//! Dropout / variable-cadence streaming determinism (tentpole acceptance).
//!
//! Fixed-cadence streams are pinned by `golden_trace.rs`; this suite pins
//! the *lossy* path: a producer that skips cadence slots (`tick`) between
//! frames. The contract under test:
//!
//! * a given submit/tick pattern produces a bit-exact response stream,
//!   committed as the `serve_dropout_stream` golden;
//! * that stream is identical through the cluster router for any
//!   `FUSE_THREADS` × `FUSE_SHARDS` point;
//! * migrating the session to a remote shard *mid-dropout* — while the
//!   delay line carries empty slots — over a flaky simulated link changes
//!   nothing, byte for byte (the wire codec carries the full op state);
//! * the incrementally maintained fused buffer matches the from-scratch
//!   re-fuse oracle at every step of the pattern.
//!
//! Regenerate after an intentional numeric change with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p fuse-tests --test streaming_dropout
//! ```

use std::thread::{self, JoinHandle};

use serde::{Deserialize, Serialize};

use fuse_backend::{with_backend, BackendChoice};
use fuse_cluster::{ClusterConfig, ClusterRouter, HostShard, ShardSpec};
use fuse_core::prelude::*;
use fuse_net::{sim_pair, FaultConfig, FaultHandle, SimTransport};
use fuse_parallel::{with_min_parallel_work, with_threads};
use fuse_radar::{FastScatterModel, PointCloudFrame, RadarConfig, Scatterer, Scene};
use fuse_serve::{ServeConfig, ServeEngine, Session, SessionConfig};
use fuse_skeleton::{body_surface_points, Movement, MovementAnimator, Subject};
use fuse_tests::golden::check_or_update;

/// One slot of the lossy cadence: either a frame arrives or the producer
/// reports the slot missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Frame,
    Missing,
}

use Slot::{Frame, Missing};

/// The pinned cadence pattern: bursts of consecutive dropouts (so the
/// window actually drains), isolated drops, and stretches of clean frames.
/// Eight frames spread across fourteen cadence slots.
const CADENCE: [Slot; 14] = [
    Frame, Frame, Missing, Frame, Missing, Missing, Frame, Frame, Frame, Missing, Frame, Missing,
    Missing, Frame,
];

/// A radar scene for frame `i` of a fixed animated movement sequence (same
/// recipe as the committed `serve_session_stream` golden).
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

/// The frames delivered on the `Frame` slots of [`CADENCE`].
fn dropout_frames() -> Vec<PointCloudFrame> {
    let n = CADENCE.iter().filter(|s| **s == Frame).count();
    let animator =
        MovementAnimator::new(Subject::profile(1), Movement::BothUpperLimbExtension, 10.0)
            .with_seed(4);
    let samples = animator.sample_frames_with_velocities(0.0, n);
    let scatter = FastScatterModel::new(RadarConfig::iwr1443_indoor());
    (0..n).map(|i| scatter.sample(&scene_for_frame(&samples, i), i as u64)).collect()
}

fn golden_model() -> fuse_nn::Sequential {
    build_mars_cnn(&ModelConfig::tiny(), 21).expect("model builds")
}

/// Renders a session's delay-line occupancy as e.g. `"101"` (oldest →
/// newest, `1` = slot holds a frame).
fn mask_string(session: &Session) -> String {
    session.slot_mask().iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Everything the lossy path must keep bit-stable, one entry per cadence
/// slot: how the window drained and refilled, and the exact logits of every
/// served frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DropoutStreamTrace {
    cadence: String,
    points_per_frame: Vec<usize>,
    fused_counts: Vec<usize>,
    slot_masks: Vec<String>,
    feature_maps_built: u64,
    slots_skipped: u64,
    responses: Vec<Vec<f32>>,
}

/// Replays [`CADENCE`] against a bare engine, cross-checking the
/// incremental fused buffer against the re-fuse oracle at every slot.
fn engine_dropout_trace() -> DropoutStreamTrace {
    let frames = dropout_frames();
    let mut engine =
        ServeEngine::new(golden_model(), ServeConfig::default()).expect("engine builds");
    engine.open_session(SessionConfig::new(0)).expect("session opens");

    let mut trace = DropoutStreamTrace {
        cadence: CADENCE.iter().map(|s| if *s == Frame { 'F' } else { '.' }).collect(),
        points_per_frame: frames.iter().map(|f| f.len()).collect(),
        fused_counts: Vec::new(),
        slot_masks: Vec::new(),
        feature_maps_built: 0,
        slots_skipped: 0,
        responses: Vec::new(),
    };
    let mut next_frame = 0usize;
    for slot in CADENCE {
        match slot {
            Frame => {
                engine.submit(0, frames[next_frame].clone()).expect("submit succeeds");
                next_frame += 1;
                assert_eq!(engine.step().expect("step succeeds"), 1);
                trace.responses.push(engine.take_responses().remove(0).joints);
            }
            Missing => engine.tick(0).expect("tick succeeds"),
        }
        let session = engine.session(0).expect("session open");
        assert_eq!(
            session.fused_points(),
            session.fused_points_recomputed().as_slice(),
            "incremental fused buffer diverged from the re-fuse oracle"
        );
        trace.fused_counts.push(session.fused_points().len());
        trace.slot_masks.push(mask_string(session));
    }
    let session = engine.session(0).expect("session open");
    let (built, skipped) = session.featurize_counters();
    trace.feature_maps_built = built;
    trace.slots_skipped = skipped;
    trace
}

#[test]
fn dropout_stream_matches_golden() {
    check_or_update("serve_dropout_stream", &engine_dropout_trace());
}

/// The same cadence through the cluster router: every `FUSE_THREADS` ×
/// `FUSE_SHARDS` point must serve the bare engine's bits.
#[test]
fn dropout_stream_is_bit_identical_across_threads_and_shards() {
    let run_cluster = |shards: usize| -> Vec<Vec<f32>> {
        let frames = dropout_frames();
        let config = ClusterConfig { shards, ..ClusterConfig::default() };
        let mut router = ClusterRouter::new(golden_model(), config).expect("router builds");
        router.open_session(SessionConfig::new(0)).expect("session opens");
        let mut responses = Vec::new();
        let mut next_frame = 0usize;
        for slot in CADENCE {
            match slot {
                Frame => {
                    router.submit(0, frames[next_frame].clone()).expect("submit succeeds");
                    next_frame += 1;
                    let report = router.drain().expect("drain succeeds");
                    responses.extend(report.responses.into_iter().map(|r| r.joints));
                }
                Missing => router.tick(0).expect("tick succeeds"),
            }
        }
        router.shutdown();
        responses
    };

    let reference = engine_dropout_trace().responses;
    for threads in [1usize, 4] {
        for shards in [1usize, 4] {
            let responses =
                with_threads(threads, || with_min_parallel_work(0, || run_cluster(shards)));
            assert_eq!(
                responses, reference,
                "FUSE_THREADS={threads} FUSE_SHARDS={shards} diverged from the dropout stream"
            );
        }
    }
}

/// Spawns a [`HostShard`] serving on `transport`, re-installing the calling
/// thread's kernel overrides (thread-local) on the host thread.
fn spawn_host(config: ClusterConfig, transport: SimTransport) -> JoinHandle<()> {
    let threads = fuse_parallel::available_threads();
    let min_work = fuse_parallel::min_parallel_work();
    let backend = fuse_backend::active_choice();
    thread::Builder::new()
        .name("dropout-test-host".into())
        .spawn(move || {
            with_threads(threads, || {
                with_min_parallel_work(min_work, || {
                    with_backend(backend, || {
                        HostShard::new(golden_model(), config)
                            .expect("host shard builds")
                            .serve(transport)
                            .expect("host exits cleanly");
                    })
                })
            })
        })
        .expect("host thread spawns")
}

fn assert_faults_fired(handles: &[&FaultHandle], context: &str) {
    let (mut dropped, mut duplicated, mut reordered) = (0, 0, 0);
    for handle in handles {
        let stats = handle.snapshot();
        dropped += stats.dropped;
        duplicated += stats.duplicated;
        reordered += stats.reordered;
    }
    assert!(
        dropped > 0 && duplicated > 0 && reordered > 0,
        "{context}: the sim link must exercise every fault class \
         (dropped={dropped} duplicated={duplicated} reordered={reordered})"
    );
}

/// Migration *mid-dropout*: the session moves to a remote shard over a
/// flaky link right after a missed slot, while the delay line carries empty
/// slots — the exported op state (delay-line occupancy, tick counters, the
/// fused buffer's source frames) must survive the wire codec so the rest of
/// the stream is byte-identical to never migrating.
#[test]
fn migration_mid_dropout_is_bit_identical_over_a_flaky_link() {
    // Slot 5 is the second Missing of the first dropout burst — the
    // nastiest point to move: the mask is neither full nor empty and the
    // tick counters are ahead of the frame counter.
    const MIGRATE_AT: usize = 5;
    assert_eq!(CADENCE[MIGRATE_AT], Missing, "the migration slot must sit inside a dropout burst");

    let run = || -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let reference = engine_dropout_trace().responses;

        let frames = dropout_frames();
        let config = ClusterConfig { shards: 2, ..ClusterConfig::default() };
        let (router_end, host_end) = sim_pair(FaultConfig::flaky(101), FaultConfig::flaky(202));
        let router_faults = router_end.fault_handle();
        let host_faults = host_end.fault_handle();
        let host = spawn_host(config.clone(), host_end);
        let mut router = ClusterRouter::with_shards(
            golden_model(),
            config,
            vec![ShardSpec::Local, ShardSpec::Remote(Box::new(router_end))],
        )
        .expect("router builds");
        router.open_session(SessionConfig::new(0)).expect("session opens");
        assert_eq!(router.shard_of(0), 0, "session 0 starts on the local shard");

        let mut migrated = Vec::new();
        let mut next_frame = 0usize;
        for (i, slot) in CADENCE.into_iter().enumerate() {
            match slot {
                Frame => {
                    router.submit(0, frames[next_frame].clone()).expect("submit succeeds");
                    next_frame += 1;
                    let report = router.drain().expect("drain succeeds");
                    migrated.extend(report.responses.into_iter().map(|r| r.joints));
                }
                Missing => router.tick(0).expect("tick succeeds"),
            }
            if i == MIGRATE_AT {
                router.migrate_session(0, 1).expect("migration succeeds");
                assert_eq!(router.shard_of(0), 1, "routing follows the migration");
            }
        }
        router.shutdown();
        host.join().expect("host thread joins");
        assert_faults_fired(&[&router_faults, &host_faults], "mid-dropout migration");
        (migrated, reference)
    };

    let (scalar_migrated, scalar_reference) =
        with_threads(1, || with_backend(BackendChoice::Scalar, run));
    assert_eq!(
        scalar_migrated, scalar_reference,
        "scalar leg: migrating mid-dropout must not change a single output byte"
    );

    let (simd_migrated, simd_reference) =
        with_threads(4, || with_min_parallel_work(0, || with_backend(BackendChoice::Simd, run)));
    assert_eq!(
        simd_migrated, simd_reference,
        "simd leg: migrating mid-dropout must not change a single output byte"
    );
}
