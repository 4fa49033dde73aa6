//! Multi-host serving over the `fuse-net` wire protocol: the cluster
//! acceptance tests for remote shards.
//!
//! The contract under test is the strongest one the workspace makes: putting
//! a shard on the other side of a **flaky** link — frames dropped,
//! duplicated and reordered by `fuse_net::SimTransport` — must not change a
//! single output bit. The committed serve-stream golden pins the numbers; a
//! mixed local/remote cluster must reproduce them exactly, a mid-stream
//! `migrate_session` must leave the remainder of the stream byte-identical
//! to a never-migrated reference, and the two-phase hot-swap must stay
//! all-or-nothing when one phase happens over the wire.

use std::thread::{self, JoinHandle};

use serde::Deserialize;

use fuse_backend::{with_backend, BackendChoice};
use fuse_cluster::{ClusterConfig, ClusterError, ClusterRouter, HostShard, ShardSpec};
use fuse_core::prelude::*;
use fuse_dataset::{encode_dataset, EncodedDataset};
use fuse_net::{sim_pair, FaultConfig, FaultHandle, SimTransport};
use fuse_parallel::{with_min_parallel_work, with_threads};
use fuse_radar::{FastScatterModel, PointCloudFrame, RadarConfig, Scatterer, Scene};
use fuse_serve::{ServeConfig, ServeEngine, SessionConfig};
use fuse_skeleton::{body_surface_points, Movement, MovementAnimator, Subject};
use fuse_tests::golden::goldens_dir;

/// A radar scene for frame `i` of a fixed animated movement sequence (same
/// recipe as `golden_trace.rs`).
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

/// The exact five frames behind the committed `serve_session_stream` golden.
fn golden_frames() -> Vec<PointCloudFrame> {
    let animator =
        MovementAnimator::new(Subject::profile(1), Movement::BothUpperLimbExtension, 10.0)
            .with_seed(4);
    let samples = animator.sample_frames_with_velocities(0.0, 5);
    let scatter = FastScatterModel::new(RadarConfig::iwr1443_indoor());
    (0..5).map(|i| scatter.sample(&scene_for_frame(&samples, i), i as u64)).collect()
}

fn golden_model() -> fuse_nn::Sequential {
    build_mars_cnn(&ModelConfig::tiny(), 21).expect("model builds")
}

/// Spawns a [`HostShard`] serving on `transport`, re-installing the calling
/// thread's kernel overrides (`FUSE_THREADS`/backend scopes are
/// thread-local) so the backend × thread legs exercise the host too — a real
/// deployment sets these per machine.
fn spawn_host(config: ClusterConfig, transport: SimTransport) -> JoinHandle<()> {
    let threads = fuse_parallel::available_threads();
    let min_work = fuse_parallel::min_parallel_work();
    let backend = fuse_backend::active_choice();
    thread::Builder::new()
        .name("wire-test-host".into())
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

/// Asserts that a flaky link actually misbehaved — a pass on a quietly
/// perfect link would prove nothing about the recovery paths.
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

/// The committed golden's shape, reduced to the field this test replays.
/// (f32 values survive the JSON round trip losslessly — see
/// `fuse_tests::golden`.)
#[derive(Deserialize)]
struct CommittedServeStream {
    responses: Vec<Vec<f32>>,
}

fn committed_serve_stream() -> Vec<Vec<f32>> {
    let path = goldens_dir().join("serve_session_stream.json");
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    let committed: CommittedServeStream =
        serde_json::from_str(&raw).expect("golden parses as a serve-stream trace");
    committed.responses
}

/// The tentpole acceptance: a cluster with a **remote** shard behind a
/// flaky simulated link reproduces the committed serve-stream golden bit
/// for bit. Session 0 routes to shard 0 — the remote one — so every submit,
/// flush and response crosses the misbehaving wire.
#[test]
fn remote_shard_over_a_flaky_link_reproduces_the_committed_golden() {
    let frames = golden_frames();
    let config = ClusterConfig { shards: 2, ..ClusterConfig::default() };

    let (router_end, host_end) = sim_pair(FaultConfig::flaky(101), FaultConfig::flaky(202));
    let router_faults = router_end.fault_handle();
    let host_faults = host_end.fault_handle();
    let host = spawn_host(config.clone(), host_end);

    let mut router = ClusterRouter::with_shards(
        golden_model(),
        config,
        vec![ShardSpec::Remote(Box::new(router_end)), ShardSpec::Local],
    )
    .expect("router builds");
    router.open_session(SessionConfig::new(0)).expect("session opens");
    let mut responses: Vec<Vec<f32>> = Vec::new();
    for frame in &frames {
        router.submit(0, frame.clone()).expect("submit succeeds");
        let report = router.drain().expect("drain succeeds");
        responses.extend(report.responses.into_iter().map(|r| r.joints));
    }
    router.shutdown();
    host.join().expect("host thread joins");

    assert_eq!(
        responses,
        committed_serve_stream(),
        "a remote shard over a flaky link must serve the committed golden bit for bit"
    );
    assert_faults_fired(&[&router_faults, &host_faults], "golden replay");
}

fn encoded() -> EncodedDataset {
    let dataset = MarsSynthesizer::new(SynthesisConfig::tiny()).generate().unwrap();
    encode_dataset(&dataset, &FrameFusion::default(), &FeatureMapBuilder::default()).unwrap()
}

fn quick_finetune() -> FineTuneConfig {
    FineTuneConfig { epochs: 1, batch_size: 16, ..FineTuneConfig::default() }
}

/// One response reduced to its deterministic observable key.
type Observed = (u64, bool, Vec<f32>);

/// Satellite: a session fine-tunes on its source shard, migrates over a
/// flaky wire to a **remote** shard mid-stream, and the remainder of the
/// stream is bit-identical to a never-migrated reference — on every
/// backend × thread leg.
#[test]
fn migration_over_a_flaky_link_is_bit_identical_to_never_migrating() {
    let frames = golden_frames();
    let data = encoded();

    let run = |tag: &str| -> (Vec<Observed>, Vec<Observed>) {
        // Never-migrated reference: a bare engine serving the same schedule.
        let mut engine =
            ServeEngine::new(golden_model(), ServeConfig::default()).expect("engine builds");
        engine.open_session(SessionConfig::new(0)).expect("session opens");
        let mut reference: Vec<Observed> = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            if i == 2 {
                engine.adapt_session(0, &data, &quick_finetune()).expect("adapt succeeds");
            }
            engine.submit(0, frame.clone()).expect("submit succeeds");
            engine.step().expect("step succeeds");
            reference.extend(
                engine.take_responses().into_iter().map(|r| (r.frame_index, r.adapted, r.joints)),
            );
        }

        // The migrating run: fine-tune on local shard 0, then move the
        // session — private model and fusion history — across the flaky
        // wire onto remote shard 1 and keep streaming.
        let config = ClusterConfig { shards: 2, ..ClusterConfig::default() };
        let (router_end, host_end) = sim_pair(FaultConfig::flaky(7), FaultConfig::flaky(13));
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
        let mut migrated: Vec<Observed> = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            if i == 2 {
                router.adapt_session(0, &data, &quick_finetune()).expect("adapt succeeds");
                router.migrate_session(0, 1).expect("migration succeeds");
                assert_eq!(router.shard_of(0), 1, "routing follows the migration");
            }
            router.submit(0, frame.clone()).expect("submit succeeds");
            migrated.extend(
                router
                    .drain()
                    .expect("drain succeeds")
                    .responses
                    .into_iter()
                    .map(|r| (r.frame_index, r.adapted, r.joints)),
            );
        }
        router.shutdown();
        host.join().expect("host thread joins");
        assert_faults_fired(&[&router_faults, &host_faults], tag);
        (migrated, reference)
    };

    let (scalar_migrated, scalar_reference) =
        with_threads(1, || with_backend(BackendChoice::Scalar, || run("scalar leg")));
    assert_eq!(
        scalar_migrated, scalar_reference,
        "scalar leg: migrating mid-stream must not change a single output byte"
    );

    let (simd_migrated, simd_reference) = with_threads(4, || {
        with_min_parallel_work(0, || with_backend(BackendChoice::Simd, || run("simd leg")))
    });
    assert_eq!(
        simd_migrated, simd_reference,
        "simd leg: migrating mid-stream must not change a single output byte"
    );
    assert_eq!(
        scalar_migrated, simd_migrated,
        "the migrated stream must be bit-identical across backend \u{d7} thread legs"
    );
}

/// The two-phase fan-out hot-swap stays atomic when one shard is remote:
/// a good checkpoint commits everywhere (bit-identical to a lone donor
/// engine), a corrupt one aborts everywhere, and the abort changes nothing —
/// all with the checkpoint bytes travelling as wire payloads.
#[test]
fn fan_out_hot_swap_commits_and_aborts_atomically_across_the_wire() {
    let dir = std::env::temp_dir().join("fuse_wire_swap_test");
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("good.json");
    let bad = dir.join("bad.json");
    let donor =
        ServeEngine::new(build_mars_cnn(&ModelConfig::tiny(), 99).unwrap(), ServeConfig::default())
            .unwrap();
    donor.save_checkpoint("donor", &good).unwrap();
    std::fs::write(&bad, "{\"model_name\":\"x\"").unwrap();

    let frames = golden_frames();
    let config = ClusterConfig { shards: 2, ..ClusterConfig::default() };
    let (router_end, host_end) = sim_pair(FaultConfig::flaky(31), FaultConfig::flaky(47));
    let host = spawn_host(config.clone(), host_end);
    let mut router = ClusterRouter::with_shards(
        golden_model(),
        config,
        vec![ShardSpec::Remote(Box::new(router_end)), ShardSpec::Local],
    )
    .expect("router builds");
    router.open_session(SessionConfig::new(0)).expect("remote-shard session opens");
    router.open_session(SessionConfig::new(1)).expect("local-shard session opens");

    // Phase one validates on both shards — one ack crossing the flaky wire —
    // before phase two commits anywhere.
    let swap = router.hot_swap(&good).expect("swap commits");
    assert_eq!(swap.model_name, "donor");
    assert_eq!(swap.version, 1);
    let metrics = router.metrics().expect("metrics snapshot");
    assert!(
        metrics.shards.iter().all(|s| s.model_version == 1),
        "local and remote shards must move to the new version together"
    );

    // Both shards now serve the donor's weights, bit for bit.
    router.submit(0, frames[0].clone()).expect("submit succeeds");
    router.submit(1, frames[0].clone()).expect("submit succeeds");
    let responses = router.drain().expect("drain succeeds").responses;
    assert_eq!(responses.len(), 2);
    let mut reference =
        ServeEngine::new(build_mars_cnn(&ModelConfig::tiny(), 99).unwrap(), ServeConfig::default())
            .unwrap();
    reference.open_session(SessionConfig::new(0)).unwrap();
    reference.submit(0, frames[0].clone()).unwrap();
    reference.step().unwrap();
    let expected = reference.take_responses();
    for got in &responses {
        assert_eq!(
            got.joints, expected[0].joints,
            "a swapped remote shard must match the donor bit for bit"
        );
    }

    // A corrupt checkpoint aborts on both shards; serving is unchanged.
    // The probe needs a *fresh* session (fusion history would legitimately
    // change session 0's output on a repeated frame); id 2 routes to the
    // remote shard.
    let err = router.hot_swap(&bad).unwrap_err();
    assert!(matches!(err, ClusterError::SwapAborted { .. }), "got {err:?}");
    let metrics = router.metrics().expect("metrics snapshot");
    assert!(
        metrics.shards.iter().all(|s| s.model_version == 1),
        "an aborted swap must not bump any shard's version"
    );
    router.open_session(SessionConfig::new(2)).expect("probe session opens");
    router.submit(2, frames[0].clone()).expect("submit succeeds");
    let after = router.drain().expect("drain succeeds").responses;
    assert_eq!(
        after[0].joints, expected[0].joints,
        "an aborted swap must not change what the remote shard serves"
    );

    router.shutdown();
    host.join().expect("host thread joins");
    std::fs::remove_dir_all(&dir).ok();
}

/// Failure semantics: one request body that passes its frame checksum but
/// does not decode must get a typed error reply, and the host shard must
/// keep serving the requests after it.
#[test]
fn a_malformed_request_gets_a_typed_error_and_the_shard_keeps_serving() {
    use fuse_net::{RpcClient, WireError, WireRequest, WireResponse};

    let (client_end, host_end) = sim_pair(FaultConfig::default(), FaultConfig::default());
    let host = spawn_host(ClusterConfig::default(), host_end);
    let mut client = RpcClient::new(client_end);
    let mut call = |body: &[u8]| WireResponse::decode(&client.call(body).unwrap()).unwrap();

    for garbage in [&[0xffu8, 1, 2, 3][..], &[], &WireRequest::Close { id: 7 }.encode()[..3]] {
        match call(garbage) {
            WireResponse::Error(WireError::BadRequest(msg)) => assert!(!msg.is_empty()),
            other => panic!("garbage {garbage:?} got {other:?}"),
        }
    }
    let opened = call(&WireRequest::Open { config: SessionConfig::new(3) }.encode());
    assert!(matches!(opened, WireResponse::Opened), "open got {opened:?}");
    let frame = golden_frames().remove(0);
    let submitted = call(&WireRequest::Submit { id: 3, frame }.encode());
    assert!(matches!(submitted, WireResponse::Submitted), "submit got {submitted:?}");
    match call(&WireRequest::Flush.encode()) {
        WireResponse::Flushed(report) => assert_eq!(report.responses.len(), 1),
        other => panic!("flush got {other:?}"),
    }
    let bye = call(&WireRequest::Shutdown.encode());
    assert!(matches!(bye, WireResponse::ShuttingDown), "shutdown got {bye:?}");
    host.join().expect("host thread joins");
}

/// Failure semantics: an imported session whose pending frames are not
/// shaped like the host's feature map must get a typed error reply — queued,
/// such a frame would panic the worker at the next step and take the whole
/// shard down — and the host shard must keep serving the requests after it.
#[test]
fn a_mis_shaped_import_gets_a_typed_error_and_the_shard_keeps_serving() {
    use fuse_dataset::FrameFusion;
    use fuse_net::{RpcClient, WireError, WireRequest, WireResponse};
    use fuse_serve::SessionState;
    use fuse_tensor::Tensor;

    let (client_end, host_end) = sim_pair(FaultConfig::default(), FaultConfig::default());
    let host = spawn_host(ClusterConfig::default(), host_end);
    let mut client = RpcClient::new(client_end);
    let mut call = |request: WireRequest| {
        WireResponse::decode(&client.call(&request.encode()).unwrap()).unwrap()
    };

    let state = SessionState {
        id: 9,
        slo: None,
        fusion: FrameFusion::default(),
        frames_seen: 1,
        ticks_seen: 1,
        history: Vec::new(),
        slot_mask: Vec::new(),
        checkpoint: None,
        pending: vec![(0, Tensor::zeros(&[3]))],
    };
    match call(WireRequest::ImportSession { state: Box::new(state) }) {
        WireResponse::Error(WireError::Other(msg)) => {
            assert!(msg.contains("pending frame"), "{msg}")
        }
        other => panic!("a mis-shaped import got {other:?}"),
    }
    let opened = call(WireRequest::Open { config: SessionConfig::new(3) });
    assert!(matches!(opened, WireResponse::Opened), "open got {opened:?}");
    let frame = golden_frames().remove(0);
    let submitted = call(WireRequest::Submit { id: 3, frame });
    assert!(matches!(submitted, WireResponse::Submitted), "submit got {submitted:?}");
    match call(WireRequest::Flush) {
        WireResponse::Flushed(report) => assert_eq!(report.responses.len(), 1),
        other => panic!("flush got {other:?}"),
    }
    let bye = call(WireRequest::Shutdown);
    assert!(matches!(bye, WireResponse::ShuttingDown), "shutdown got {bye:?}");
    host.join().expect("host thread joins");
}

/// Failure semantics: a session opened over the wire with a fusion window of
/// 2^40 frames must not abort the host, nor make it keep and re-bin every
/// frame of that session's stream. The host refuses the window as a typed
/// `BadRequest` (half-windows above `MAX_WIRE_FUSION_HALF_WINDOW` do not
/// decode) and keeps serving: a session at the cap and a default one serve
/// after it.
#[test]
fn a_huge_fusion_window_over_the_wire_does_not_abort_the_host() {
    use fuse_dataset::FrameFusion;
    use fuse_net::{RpcClient, WireError, WireRequest, WireResponse, MAX_WIRE_FUSION_HALF_WINDOW};

    let (client_end, host_end) = sim_pair(FaultConfig::default(), FaultConfig::default());
    let host = spawn_host(ClusterConfig::default(), host_end);
    let mut client = RpcClient::new(client_end);
    let mut call = |request: WireRequest| {
        WireResponse::decode(&client.call(&request.encode()).unwrap()).unwrap()
    };

    let huge = SessionConfig::new(5).fusion(FrameFusion::new(1 << 40));
    match call(WireRequest::Open { config: huge }) {
        WireResponse::Error(WireError::BadRequest(msg)) => assert!(msg.contains("fusion")),
        other => panic!("open with M = 2^40 got {other:?}"),
    }
    let capped = SessionConfig::new(5).fusion(FrameFusion::new(MAX_WIRE_FUSION_HALF_WINDOW));
    for config in [capped, SessionConfig::new(6)] {
        let opened = call(WireRequest::Open { config });
        assert!(matches!(opened, WireResponse::Opened), "open got {opened:?}");
    }
    for frame in golden_frames() {
        for id in [5, 6] {
            let submitted = call(WireRequest::Submit { id, frame: frame.clone() });
            assert!(matches!(submitted, WireResponse::Submitted), "submit got {submitted:?}");
        }
        match call(WireRequest::Flush) {
            WireResponse::Flushed(report) => assert_eq!(report.responses.len(), 2),
            other => panic!("flush got {other:?}"),
        }
    }
    let bye = call(WireRequest::Shutdown);
    assert!(matches!(bye, WireResponse::ShuttingDown), "shutdown got {bye:?}");
    host.join().expect("host thread joins");
}
