//! # fuse-cluster
//!
//! Sharded asynchronous serving for the FUSE pipeline: the layer that turns
//! the single-process [`fuse_serve::ServeEngine`] into a multi-shard router
//! built for heavy multi-user traffic, while keeping the workspace's
//! bit-reproducibility contract.
//!
//! ```text
//!                         ┌────────────────────────────┐
//!  radar I/O threads ───▶ │        ClusterRouter       │ ───▶ responses,
//!   submit(sess, frame)   │  session → shard (id % N)  │      re-sequenced by
//!                         └──┬─────────┬─────────┬─────┘      (session, frame)
//!                 bounded    │         │         │
//!                 channels   ▼         ▼         ▼
//!                        ┌──────┐  ┌──────┐  ┌──────┐
//!                        │shard0│  │shard1│  │shard2│   worker loops drive
//!                        │Engine│  │Engine│  │Engine│   step(), apply the
//!                        └──────┘  └──────┘  └──────┘   backpressure policy
//! ```
//!
//! * [`ClusterRouter`] — owns the shards, routes sessions deterministically
//!   (`session_id % shards`), fans hot-swaps out atomically (validate on
//!   every shard before committing on any) and re-sequences responses.
//! * [`BackpressureSpec`] — per-session backpressure resolved by SLO class
//!   ([`fuse_serve::SloClass`]): a cluster default plus per-class
//!   `(policy, capacity)` overrides, with built-in presets (`Clinical` →
//!   block at 16, `Interactive` → merge at 8, `Dashboard` → drop-oldest
//!   at 4). [`BackpressurePolicy`] is what fires at capacity: serve the
//!   backlog first (`Block`), evict the oldest frame (`DropOldest`), or
//!   coalesce the burst to its newest frame (`MergeFrames`). Every eviction
//!   is counted.
//! * [`AdaptiveController`] — opt-in (`FUSE_ADAPTIVE=1`) deterministic
//!   hysteresis controller driving each class's *effective* queue capacity
//!   from the observed p99 ([`ClusterRouter::autotune`]).
//! * [`ClusterMetrics`] — per-shard queue gauges and policy counters plus a
//!   cluster-level latency aggregation over every shard's recorder.
//! * [`ClusterError`] — typed errors end to end; bad env knobs
//!   (`FUSE_SHARDS=...`, `FUSE_ADAPTIVE=...`, `FUSE_SLO_DEFAULT=...`)
//!   surface as [`ClusterError::InvalidEnv`], never as panics.
//!
//! **Determinism.** A session lives entirely on one shard, per-sample
//! kernels are batch-composition independent, and [`ClusterRouter::drain`]
//! gathers in shard order and sorts by `(session, frame)` — so for a given
//! submit/drain schedule the externally observable response stream is
//! bit-identical for any `FUSE_SHARDS` and any `FUSE_THREADS`.

#![warn(missing_docs)]

pub mod adaptive;
pub mod config;
pub mod error;
pub mod metrics;
pub mod remote;
pub mod router;
mod worker;

pub use adaptive::{AdaptiveConfig, AdaptiveController, CapacityUpdate};
pub use config::{
    env_usize, BackpressurePolicy, BackpressureSpec, ClassBackpressure, ClusterConfig,
    CLUSTER_KNOBS, DEFAULT_CHANNEL_CAPACITY, DEFAULT_QUEUE_CAPACITY, FUSE_ADAPTIVE_ENV,
    FUSE_SHARDS_ENV, FUSE_SLO_DEFAULT_ENV, MAX_SHARDS,
};
pub use error::ClusterError;
pub use fuse_serve::{SessionConfig, SloClass};
pub use metrics::{ClusterMetrics, ShardGauge};
pub use remote::HostShard;
pub use router::{ClosedSession, ClusterRouter, DrainReport, ShardSpec, SwapReport};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ClusterError>;

/// Commonly used types for cluster call sites, alongside the serve-level
/// pieces an embedder needs.
pub mod prelude {
    pub use crate::adaptive::{AdaptiveConfig, AdaptiveController, CapacityUpdate};
    pub use crate::config::{
        BackpressurePolicy, BackpressureSpec, ClassBackpressure, ClusterConfig,
    };
    pub use crate::error::ClusterError;
    pub use crate::metrics::{ClusterMetrics, ShardGauge};
    pub use crate::router::{ClosedSession, ClusterRouter, DrainReport, SwapReport};
    pub use fuse_serve::prelude::*;
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_core::{build_mars_cnn, ModelConfig};
    use fuse_radar::{PointCloudFrame, RadarPoint};

    fn frame(seed: u64, n: usize) -> PointCloudFrame {
        let points = (0..n)
            .map(|i| {
                let t = (seed as f32) * 0.1 + i as f32 * 0.03;
                RadarPoint::new(
                    t.sin() * 0.5,
                    2.0 + t.cos() * 0.2,
                    0.2 + i as f32 * 0.04,
                    0.1,
                    1.0 + t,
                )
            })
            .collect();
        PointCloudFrame::new(0, 0.0, points)
    }

    fn tiny_router(shards: usize) -> ClusterRouter {
        let model = build_mars_cnn(&ModelConfig::tiny(), 7).unwrap();
        let config = ClusterConfig {
            serve: fuse_serve::ServeConfig {
                feature_map: fuse_dataset::FeatureMapBuilder::default(),
                ..fuse_serve::ServeConfig::default()
            },
            shards,
            ..ClusterConfig::default()
        };
        ClusterRouter::new(model, config).unwrap()
    }

    #[test]
    fn sessions_route_deterministically_and_round_trip() {
        let mut router = tiny_router(3);
        assert_eq!(router.shards(), 3);
        for id in [0u64, 1, 2, 3, 7] {
            assert_eq!(router.shard_of(id), (id % 3) as usize);
            router.open_session(SessionConfig::new(id)).unwrap();
        }
        assert_eq!(router.session_count(), 5);
        assert_eq!(
            router.open_session(SessionConfig::new(7)),
            Err(ClusterError::DuplicateSession(7))
        );
        assert_eq!(router.submit(99, frame(0, 4)), Err(ClusterError::UnknownSession(99)));

        for id in [0u64, 1, 2, 3, 7] {
            router.submit(id, frame(id, 8)).unwrap();
        }
        let report = router.drain().unwrap();
        assert_eq!(report.responses.len(), 5);
        let keys: Vec<(u64, u64)> =
            report.responses.iter().map(|r| (r.session_id, r.frame_index)).collect();
        assert_eq!(keys, [(0, 0), (1, 0), (2, 0), (3, 0), (7, 0)], "re-sequenced order");
        assert!(report.dropped.is_empty());
        assert!(report.merged.is_empty());

        let closed = router.close_session(3).unwrap();
        assert_eq!(closed.shard, 0);
        assert!(!closed.adapted);
        assert!(closed.unserved_frames.is_empty());
        assert_eq!(router.close_session(3), Err(ClusterError::UnknownSession(3)));
        router.shutdown();
    }

    #[test]
    fn closing_mid_stream_reports_unserved_frames() {
        let model = build_mars_cnn(&ModelConfig::tiny(), 7).unwrap();
        let config = ClusterConfig { shards: 2, auto_step: false, ..ClusterConfig::default() };
        let mut router = ClusterRouter::new(model, config).unwrap();
        router.open_session(SessionConfig::new(4)).unwrap();
        for i in 0..3 {
            router.submit(4, frame(i, 8)).unwrap();
        }
        // auto_step is off and no drain ran, so the frames are still queued.
        let closed = router.close_session(4).unwrap();
        assert_eq!(closed.unserved_frames, [0, 1, 2]);
        router.shutdown();
    }

    /// A model whose first layer disagrees with the feature geometry: it
    /// does not lower to a compiled plan.
    fn non_lowerable_model() -> fuse_nn::Sequential {
        use fuse_nn::layers::Linear;
        fuse_nn::Sequential::new(vec![Box::new(Linear::new(10, 4, 1).unwrap())])
    }

    #[test]
    fn router_construction_rejects_a_model_that_does_not_lower() {
        let config = ClusterConfig { shards: 2, ..ClusterConfig::default() };
        let Err(err) = ClusterRouter::new(non_lowerable_model(), config) else {
            panic!("a model that does not lower must not build a router");
        };
        assert!(matches!(err, ClusterError::Serve(fuse_serve::ServeError::Graph(_))), "got {err}");
    }

    #[test]
    fn host_shard_construction_rejects_a_model_that_does_not_lower() {
        let err = HostShard::new(non_lowerable_model(), ClusterConfig::default()).unwrap_err();
        assert!(matches!(err, ClusterError::Serve(fuse_serve::ServeError::Graph(_))), "got {err}");
    }

    #[test]
    fn metrics_snapshot_covers_every_shard() {
        let mut router = tiny_router(2);
        router.open_session(SessionConfig::new(0)).unwrap();
        router.open_session(SessionConfig::new(1)).unwrap();
        router.submit(0, frame(0, 8)).unwrap();
        router.submit(1, frame(1, 8)).unwrap();
        router.drain().unwrap();
        let metrics = router.metrics().unwrap();
        assert_eq!(metrics.shards.len(), 2);
        assert_eq!(metrics.queue_depth(), 0);
        assert_eq!(metrics.responses(), 2);
        assert_eq!(metrics.dropped_frames(), 0);
        assert!(metrics.report.budget_ms > 0.0);
        router.shutdown();
    }
}
