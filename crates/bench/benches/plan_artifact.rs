//! Benchmarks of the `.fplan` artifact path: serializing a compiled plan,
//! deserializing it back (the edge-device startup cost that replaces a full
//! lowering + compile), and the JSON-checkpoint baseline it displaces. The
//! telemetry artifact carries the encode/decode times and the startup gap so
//! CI can watch the deployment path regress.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fuse_core::{build_mars_cnn, ModelConfig};
use fuse_graph::ExecPlan;
use fuse_nn::{Checkpoint, LoweringRequest, Sequential};

/// Per-sample input dimensions of the MARS feature map.
const INPUT_DIMS: [usize; 3] = [5, 8, 8];

fn mars_model() -> Sequential {
    build_mars_cnn(&ModelConfig::default(), 11).expect("model builds")
}

fn compile_mars(model: &Sequential, max_batch: usize) -> ExecPlan {
    LoweringRequest::new(model, &INPUT_DIMS)
        .lower()
        .and_then(|graph| graph.compile(max_batch))
        .expect("the MARS CNN lowers and compiles")
}

/// Serializing the compiled MARS plan to `.fplan` bytes (header + payload +
/// CRC-32C checksum) and the JSON checkpoint encode it displaces.
fn bench_artifact_encode(c: &mut Criterion) {
    let model = mars_model();
    let plan = compile_mars(&model, 32);
    let checkpoint = Checkpoint::capture(&model, "mars");
    let mut group = c.benchmark_group("artifact_encode");
    group.bench_function("fplan_to_bytes", |b| b.iter(|| black_box(plan.to_bytes())));
    group.bench_function("checkpoint_to_json", |b| {
        b.iter(|| black_box(checkpoint.to_json().expect("encodes")))
    });
    group.finish();
}

/// Deserializing `.fplan` bytes into a runnable plan — the whole edge
/// startup — against the legacy startup it replaces: parse a JSON
/// checkpoint, apply it, lower and compile.
fn bench_artifact_decode(c: &mut Criterion) {
    let model = mars_model();
    let bytes = compile_mars(&model, 32).to_bytes();
    let json = Checkpoint::capture(&model, "mars").to_json().expect("encodes");
    let mut group = c.benchmark_group("artifact_decode");
    group.bench_function("fplan_from_bytes", |b| {
        b.iter(|| black_box(ExecPlan::from_bytes(black_box(&bytes)).expect("decodes")))
    });
    group.bench_function("checkpoint_apply_then_compile", |b| {
        b.iter(|| {
            let checkpoint = Checkpoint::from_json(black_box(&json)).expect("decodes");
            let mut restored = mars_model();
            checkpoint.apply_to(&mut restored).expect("applies");
            black_box(compile_mars(&restored, 32))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_artifact_encode, bench_artifact_decode);
criterion_main!(benches);
