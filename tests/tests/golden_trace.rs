//! Golden-trace regression tests: fixed-seed end-to-end traces of the
//! radar → fusion → feature-map → CNN chain, checked against committed JSON
//! files under `tests/goldens/`.
//!
//! These pin the *numeric* behaviour a serving deployment must preserve —
//! any refactor of the kernels, the signal chain, the fusion/feature code or
//! the serving engine that changes a single bit of the outputs fails here.
//! After an intentional numeric change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p fuse-tests --test golden_trace
//! ```
//!
//! The traces are thread-count independent (`fuse-parallel` bit-identity
//! contract), so the same goldens hold under `FUSE_THREADS=1` and `=4`.

use serde::{Deserialize, Serialize};

use fuse_cluster::{ClusterConfig, ClusterRouter};
use fuse_core::prelude::*;
use fuse_dataset::encode_dataset;
use fuse_radar::{
    cfar_ca_2d, AdcCube, CfarConfig, FastScatterModel, PointCloudFrame, PointCloudGenerator,
    RadarConfig, RangeDopplerMap, Scatterer, Scene,
};
use fuse_serve::{ServeConfig, ServeEngine, SessionConfig};
use fuse_skeleton::{body_surface_points, Movement, MovementAnimator, Subject};
use fuse_tensor::Tensor;
use fuse_tests::golden::{check_or_update, StageDigest};

/// A radar scene for frame `i` of a fixed animated movement sequence.
fn scene_for_frame(
    samples: &[(fuse_skeleton::Skeleton, [[f32; 3]; fuse_skeleton::JOINT_COUNT])],
    i: usize,
) -> Scene {
    let (skeleton, velocities) = &samples[i];
    body_surface_points(skeleton, velocities, 3)
        .iter()
        .map(|p| Scatterer::new(p.position, p.velocity, p.reflectivity))
        .collect()
}

fn point_features(frames: &[PointCloudFrame]) -> Vec<f32> {
    frames.iter().flat_map(|f| f.points.iter().flat_map(|p| p.features())).collect()
}

/// Trace of the full FMCW signal chain feeding the CNN:
/// ADC cube → range-Doppler FFTs → CFAR → point cloud → fusion → feature map
/// → logits, all from fixed seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FullChainTrace {
    adc_samples: usize,
    adc_chirps: usize,
    adc_antennas: usize,
    adc_rms: f32,
    rd_range_bins: usize,
    rd_doppler_bins: usize,
    rd_peak_range_bin: usize,
    rd_peak_doppler_bin: usize,
    rd_peak_magnitude: f32,
    cfar_detections: usize,
    cfar_strongest_magnitude: f32,
    points_per_frame: Vec<usize>,
    points: StageDigest,
    fused_count: usize,
    feature_map: StageDigest,
    logits: Vec<f32>,
}

#[test]
fn full_chain_trace_matches_golden() {
    let animator = MovementAnimator::new(Subject::profile(2), Movement::Squat, 10.0).with_seed(1);
    let samples = animator.sample_frames_with_velocities(0.0, 3);
    let config = RadarConfig::test_small();

    // Signal-chain intermediates for the middle frame.
    let scene = scene_for_frame(&samples, 1);
    let cube = AdcCube::synthesize(&config, &scene, 1).expect("cube synthesis succeeds");
    let map = RangeDopplerMap::from_cube(&cube).expect("fft succeeds");
    let (peak_range, peak_doppler) = map.peak_cell().expect("map has a peak");
    let detections = cfar_ca_2d(&map, &CfarConfig::default()).expect("cfar succeeds");
    let strongest = detections.iter().map(|d| d.magnitude).fold(0.0f32, f32::max);

    // Full chain per frame, then fusion + feature map + CNN on the last frame.
    let generator = PointCloudGenerator::new(config);
    let frames: Vec<PointCloudFrame> = (0..3)
        .map(|i| generator.generate(&scene_for_frame(&samples, i), i as u64).expect("chain runs"))
        .collect();
    let fusion = FrameFusion::default();
    let fused = fusion.fused_points_owned(&frames, 2);
    let builder = FeatureMapBuilder::default();
    let features = builder.build(&fused, None).expect("feature map builds");
    let input = Tensor::stack(std::slice::from_ref(&features)).expect("stack succeeds");
    let mut model = build_mars_cnn(&ModelConfig::tiny(), 7).expect("model builds");
    let logits = model.forward(&input, false).expect("forward succeeds");

    let trace = FullChainTrace {
        adc_samples: cube.samples(),
        adc_chirps: cube.chirps(),
        adc_antennas: cube.antennas(),
        adc_rms: cube.rms(),
        rd_range_bins: map.range_bins(),
        rd_doppler_bins: map.doppler_bins(),
        rd_peak_range_bin: peak_range,
        rd_peak_doppler_bin: peak_doppler,
        rd_peak_magnitude: map.magnitude_at(peak_range, peak_doppler),
        cfar_detections: detections.len(),
        cfar_strongest_magnitude: strongest,
        points_per_frame: frames.iter().map(|f| f.len()).collect(),
        points: StageDigest::of(&point_features(&frames), 20),
        fused_count: fused.len(),
        feature_map: StageDigest::of(features.as_slice(), 16),
        logits: logits.as_slice().to_vec(),
    };
    check_or_update("full_chain_small", &trace);
}

/// Trace of a five-frame serving-session stream on the fast scatter model:
/// the exact responses (all 57 logits per frame) the `fuse-serve` engine
/// produces for a fixed subject, seed and model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ServeStreamTrace {
    points_per_frame: Vec<usize>,
    fused_counts: Vec<usize>,
    model_version: u64,
    responses: Vec<Vec<f32>>,
}

#[test]
fn serve_session_stream_matches_golden() {
    let animator =
        MovementAnimator::new(Subject::profile(1), Movement::BothUpperLimbExtension, 10.0)
            .with_seed(4);
    let samples = animator.sample_frames_with_velocities(0.0, 5);
    let scatter = FastScatterModel::new(RadarConfig::iwr1443_indoor());

    let model = build_mars_cnn(&ModelConfig::tiny(), 21).expect("model builds");
    let mut engine = ServeEngine::new(model, ServeConfig::default()).expect("engine builds");
    engine.open_session(SessionConfig::new(0)).expect("session opens");

    let mut trace = ServeStreamTrace {
        points_per_frame: Vec::new(),
        fused_counts: Vec::new(),
        model_version: 0,
        responses: Vec::new(),
    };
    for i in 0..5 {
        let frame = scatter.sample(&scene_for_frame(&samples, i), i as u64);
        trace.points_per_frame.push(frame.len());
        engine.submit(0, frame).expect("submit succeeds");
        trace.fused_counts.push(engine.session(0).expect("session open").fused_points().len());
        assert_eq!(engine.step().expect("step succeeds"), 1);
        let responses = engine.take_responses();
        trace.responses.push(responses[0].joints.clone());
    }
    trace.model_version = engine.model_version();
    check_or_update("serve_session_stream", &trace);
}

/// The serve golden stream replayed through the `fuse-cluster` router: the
/// per-session response sequence must be **bit-identical** to the committed
/// golden for any shard count — `FUSE_SHARDS=4` serves the same bits as
/// `FUSE_SHARDS=1`, which serves the same bits as the bare engine (the
/// cluster acceptance criterion).
#[test]
fn cluster_reproduces_the_serve_golden_stream_for_any_shard_count() {
    let animator =
        MovementAnimator::new(Subject::profile(1), Movement::BothUpperLimbExtension, 10.0)
            .with_seed(4);
    let samples = animator.sample_frames_with_velocities(0.0, 5);
    let scatter = FastScatterModel::new(RadarConfig::iwr1443_indoor());
    let frames: Vec<PointCloudFrame> =
        (0..5).map(|i| scatter.sample(&scene_for_frame(&samples, i), i as u64)).collect();

    // The committed-golden reference: the bare engine, pinned by
    // `serve_session_stream_matches_golden` above.
    let model = build_mars_cnn(&ModelConfig::tiny(), 21).expect("model builds");
    let mut engine = ServeEngine::new(model, ServeConfig::default()).expect("engine builds");
    engine.open_session(SessionConfig::new(0)).expect("session opens");
    let mut reference: Vec<Vec<f32>> = Vec::new();
    for frame in &frames {
        engine.submit(0, frame.clone()).expect("submit succeeds");
        engine.step().expect("step succeeds");
        reference.extend(engine.take_responses().into_iter().map(|r| r.joints));
    }

    for shards in [1usize, 4] {
        let model = build_mars_cnn(&ModelConfig::tiny(), 21).expect("model builds");
        let config = ClusterConfig { shards, ..ClusterConfig::default() };
        let mut router = ClusterRouter::new(model, config).expect("router builds");
        router.open_session(SessionConfig::new(0)).expect("session opens");
        let mut responses: Vec<Vec<f32>> = Vec::new();
        for frame in &frames {
            router.submit(0, frame.clone()).expect("submit succeeds");
            let report = router.drain().expect("drain succeeds");
            responses.extend(report.responses.into_iter().map(|r| r.joints));
        }
        router.shutdown();
        assert_eq!(
            responses, reference,
            "FUSE_SHARDS={shards} diverged from the golden serve stream"
        );
    }
}

/// Trace of adapted serving through the engine: the exact responses of
/// sessions fine-tuned online (all layers and last layer), re-adapted across
/// a checkpoint hot-swap and migrated to a second engine, plus the length and
/// FNV-1a-64 digest of each migrated session's `FCKP` bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct AdaptedStreamTrace {
    train_loss: Vec<Vec<f32>>,
    /// `(session id, frame index, model version, adapted)` per response.
    keys: Vec<(u64, u64, u64, bool)>,
    responses: Vec<Vec<f32>>,
    fckp_len: Vec<usize>,
    fckp_fnv1a64: Vec<u64>,
}

impl AdaptedStreamTrace {
    /// Submits `frame` to each of `ids`, runs one step and records every
    /// response.
    fn serve(&mut self, engine: &mut ServeEngine, ids: &[u64], frame: &PointCloudFrame) {
        for &id in ids {
            engine.submit(id, frame.clone()).expect("submit succeeds");
        }
        engine.step().expect("step succeeds");
        for r in engine.take_responses() {
            self.keys.push((r.session_id, r.frame_index, r.model_version, r.adapted));
            self.responses.push(r.joints);
        }
    }
}

#[test]
fn serve_adapted_stream_matches_golden() {
    let animator =
        MovementAnimator::new(Subject::profile(1), Movement::BothUpperLimbExtension, 10.0)
            .with_seed(4);
    let samples = animator.sample_frames_with_velocities(0.0, 6);
    let scatter = FastScatterModel::new(RadarConfig::iwr1443_indoor());
    let frames: Vec<PointCloudFrame> =
        (0..6).map(|i| scatter.sample(&scene_for_frame(&samples, i), i as u64)).collect();
    let dataset = MarsSynthesizer::new(SynthesisConfig::tiny()).generate().expect("synthesis");
    let encoded = encode_dataset(&dataset, &FrameFusion::default(), &FeatureMapBuilder::default())
        .expect("encoding succeeds");
    let all = FineTuneConfig { epochs: 1, batch_size: 16, ..FineTuneConfig::default() };
    let last = FineTuneConfig { scope: FineTuneScope::LastLayer, seed: 1, ..all };
    let again = FineTuneConfig { seed: 2, ..all };

    let mut trace = AdaptedStreamTrace {
        train_loss: Vec::new(),
        keys: Vec::new(),
        responses: Vec::new(),
        fckp_len: Vec::new(),
        fckp_fnv1a64: Vec::new(),
    };
    let model = build_mars_cnn(&ModelConfig::tiny(), 21).expect("model builds");
    let mut engine = ServeEngine::new(model, ServeConfig::default()).expect("engine builds");
    for id in 0..3 {
        engine.open_session(SessionConfig::new(id)).expect("session opens");
    }
    let mut losses = vec![
        engine.adapt_session(0, &encoded, &all).expect("adapts").train_loss,
        engine.adapt_session(1, &encoded, &last).expect("adapts").train_loss,
    ];
    for frame in &frames[..2] {
        trace.serve(&mut engine, &[0, 1, 2], frame);
    }

    losses.push(engine.adapt_session(0, &encoded, &again).expect("re-adapts").train_loss);
    let donor = build_mars_cnn(&ModelConfig::tiny(), 99).expect("model builds");
    let prepared = engine
        .prepare_hot_swap_checkpoint(fuse_nn::Checkpoint::capture(&donor, "donor"))
        .expect("swap validates");
    engine.commit_hot_swap(prepared);
    for frame in &frames[2..4] {
        trace.serve(&mut engine, &[0, 1, 2], frame);
    }

    let model = build_mars_cnn(&ModelConfig::tiny(), 21).expect("model builds");
    let mut receiver = ServeEngine::new(model, ServeConfig::default()).expect("engine builds");
    for id in [0, 1] {
        let state = engine.export_session(id).expect("session exports");
        let bytes = state.checkpoint.as_ref().expect("adapted sessions carry weights").to_binary();
        trace.fckp_len.push(bytes.len());
        trace.fckp_fnv1a64.push(fuse_tensor::codec::fnv1a64(&bytes));
        receiver.reopen_with_history(state).expect("session reopens");
    }
    for frame in &frames[4..] {
        trace.serve(&mut receiver, &[0, 1], frame);
        trace.serve(&mut engine, &[2], frame);
    }
    trace.train_loss = losses;
    check_or_update("serve_adapted_stream", &trace);
}

/// Trace of a short online fine-tune/adaptation run: per-epoch losses and
/// MAE plus a digest of the adapted parameters, all from fixed seeds. This
/// pins the optimiser surface (Adam updates, batch shuffling, loss
/// accumulation) ahead of multi-backend work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FineTuneTrace {
    epochs: usize,
    train_loss: Vec<f32>,
    new_data_error_cm: Vec<f32>,
    original_data_error_cm: Vec<f32>,
    params: StageDigest,
}

#[test]
fn finetune_trace_matches_golden() {
    let dataset = MarsSynthesizer::new(SynthesisConfig::tiny()).generate().expect("synthesis");
    let encoded = encode_dataset(&dataset, &FrameFusion::default(), &FeatureMapBuilder::default())
        .expect("encoding succeeds");
    let mut model = build_mars_cnn(&ModelConfig::tiny(), 17).expect("model builds");
    let config = FineTuneConfig { epochs: 2, batch_size: 16, ..FineTuneConfig::default() };
    let result =
        fine_tune(&mut model, &encoded, &encoded, &encoded, &config).expect("fine-tune succeeds");

    let trace = FineTuneTrace {
        epochs: result.epochs(),
        train_loss: result.train_loss.clone(),
        new_data_error_cm: result.new_data_error.iter().map(|e| e.average_cm()).collect(),
        original_data_error_cm: result.original_data_error.iter().map(|e| e.average_cm()).collect(),
        params: StageDigest::of(&model.flat_params(), 16),
    };
    check_or_update("finetune_small", &trace);
}
