//! Multi-subject serving throughput: N concurrent sessions streaming frames
//! through one `fuse-serve` micro-batched engine.
//!
//! This is the scaling story behind the FUSE edge deployment — ACCoRD-style
//! learned inference in a real-time loop, but for many clients at once. Each
//! step stacks every session's pending frame into a single forward pass, so
//! the per-frame cost should grow sublinearly with the session count on
//! multi-core hosts. A checkpoint hot-swap timing and online adaptation at
//! both of the paper's scopes round out the ops picture.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fuse_bench::subject_streams;
use fuse_core::prelude::*;
use fuse_serve::{ServeConfig, ServeEngine, SessionConfig};

fn engine_with_sessions(subjects: usize) -> ServeEngine {
    let model = build_mars_cnn(&ModelConfig::default(), 11).expect("model builds");
    let mut engine = ServeEngine::new(model, ServeConfig::default()).expect("engine builds");
    for s in 0..subjects {
        engine.open_session(SessionConfig::new(s as u64)).expect("session opens");
    }
    engine
}

fn bench_serving_step(c: &mut Criterion) {
    for subjects in [1usize, 4, 16] {
        let streams = subject_streams(subjects, 8);
        let mut engine = engine_with_sessions(subjects);
        let mut round = 0usize;
        c.bench_function(&format!("serve_step_{subjects}_sessions"), |b| {
            b.iter(|| {
                let frame_idx = round % streams[0].len();
                round += 1;
                for (s, stream) in streams.iter().enumerate() {
                    engine.submit(s as u64, stream[frame_idx].clone()).expect("submit succeeds");
                }
                engine.step().expect("step succeeds");
                black_box(engine.take_responses())
            })
        });
    }
}

fn bench_hot_swap(c: &mut Criterion) {
    let dir = std::env::temp_dir().join("fuse_serve_bench_hot_swap");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("ckpt.json");
    let mut engine = engine_with_sessions(1);
    engine.save_checkpoint("bench", &path).expect("checkpoint saves");
    c.bench_function("serve_checkpoint_hot_swap", |b| {
        b.iter(|| black_box(engine.hot_swap(black_box(&path)).expect("hot swap succeeds")))
    });
    std::fs::remove_file(&path).ok();
}

/// `adapt_session` on the MARS default model at the serving benchmark's
/// settings (32 frames of one subject, one epoch, batch 16), fine-tuning
/// every layer (paper Figure 3) or only the last (Figure 4).
fn bench_adapt_session(c: &mut Criterion) {
    let synthesis = SynthesisConfig {
        subjects: vec![0],
        movements: vec![fuse_skeleton::Movement::Squat],
        frames_per_sequence: 32,
        ..SynthesisConfig::tiny()
    };
    let dataset = MarsSynthesizer::new(synthesis).generate().expect("synthesis succeeds");
    let data = encode_dataset(&dataset, &FrameFusion::default(), &FeatureMapBuilder::default())
        .expect("encoding succeeds");
    for (name, scope) in
        [("all_layers", FineTuneScope::AllLayers), ("last_layer", FineTuneScope::LastLayer)]
    {
        let config =
            FineTuneConfig { epochs: 1, batch_size: 16, scope, ..FineTuneConfig::default() };
        let mut engine = engine_with_sessions(1);
        c.bench_function(&format!("serve_adapt_session_{name}"), |b| {
            b.iter(|| black_box(engine.adapt_session(0, &data, &config).expect("adapts")))
        });
    }
}

criterion_group!(benches, bench_serving_step, bench_hot_swap, bench_adapt_session);
criterion_main!(benches);
