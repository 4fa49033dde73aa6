//! # fuse-serve
//!
//! Sessionized streaming inference for the FUSE pipeline: the subsystem that
//! turns the single-subject `realtime_edge` loop into a multi-client serving
//! engine with per-session adaptation, micro-batching, checkpoint hot-swap
//! and latency accounting against the 10 Hz radar's 100 ms frame budget.
//!
//! * [`stream`] — stateful streaming operators: fusion as an incremental
//!   delay line and featurization as an explicit per-session op state, with
//!   deterministic missing-frame ticks for variable cadence and dropout;
//! * [`Session`] — one client's streaming-op state plus, once adapted
//!   online, a private plan compiled from its fine-tuned weights (the only
//!   copy of them); created from the typed [`SessionConfig`] builder,
//!   optionally carrying a service class ([`SloClass`]) the cluster layer
//!   maps to backpressure;
//! * [`ServeEngine`] — owns the shared base model, its compiled plan and
//!   the open sessions, micro-batches pending frames across sessions into
//!   stacked plan runs, and hot-swaps `fuse-nn` checkpoints without
//!   downtime. A model that does not lower to a plan is a typed
//!   [`ServeError::Graph`] at construction;
//! * [`LatencyRecorder`] — per-stage p50/p95/p99 latency summaries.
//!
//! Responses are **deterministic by construction**: pending frames are
//! scheduled round-robin across sessions by their per-session queue rank
//! (never by arrival interleaving), and every kernel underneath is
//! bit-reproducible for any `FUSE_THREADS` × `FUSE_BACKEND` combination
//! (see `fuse-parallel`, `fuse-backend` and `REPRODUCIBILITY.md`), so a
//! serving trace is bit-identical across thread counts, kernel backends and
//! submission orders. Dropout streams keep the same property: a missing
//! frame is an explicit [`ServeEngine::tick`] that advances the session's
//! op state deterministically.
//!
//! ## Deployment knobs
//!
//! An engine operator tunes the compute substrate entirely through
//! environment knobs (all parsed through the typed helper — garbage is a
//! named error or fail-fast panic, never a silent fallback). The knobs are
//! declared as typed `fuse_parallel::env::KnobDef` registries next to
//! their parsers; the consolidated reference table lives in the workspace
//! `README.md` and is generated from those registries, so it cannot drift.
//!
//! [`BackendChoice`] and [`FUSE_BACKEND_ENV`] are re-exported here so
//! serving embedders can pin or report the backend without depending on
//! `fuse-backend` directly.
//!
//! ```no_run
//! use fuse_serve::prelude::*;
//!
//! let model = build_mars_cnn(&ModelConfig::default(), 11)?;
//! let mut engine = ServeEngine::new(model, ServeConfig::default())?;
//! engine.open_session(SessionConfig::new(0).slo(SloClass::Clinical))?;
//! // engine.submit(0, frame)?; ... and for every dropped frame:
//! engine.tick(0)?;
//! // then, each frame period:
//! engine.step()?;
//! for response in engine.take_responses() {
//!     assert_eq!(response.joints.len(), 57);
//! }
//! println!("{}", engine.recorder().report());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod latency;
pub mod session;
pub mod stream;

pub use engine::{
    PendingFrame, PreparedSwap, ServeConfig, ServeEngine, ServeResponse, SessionState,
};
pub use error::ServeError;
pub use fuse_backend::{BackendChoice, FUSE_BACKEND_ENV};
pub use latency::{
    LatencyRecorder, LatencyReport, Stage, StageStats, DEFAULT_BUDGET_MS, DEFAULT_SAMPLE_WINDOW,
};
pub use session::{Session, SessionConfig, SloClass};
pub use stream::{FeaturizeOp, FeaturizeState, FusionOp, FusionState, StreamOp};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Commonly used types for serving call sites, re-exported alongside the
/// `fuse-core` pieces an engine embedder needs (model construction and online
/// fine-tuning).
pub mod prelude {
    pub use crate::engine::{
        PendingFrame, PreparedSwap, ServeConfig, ServeEngine, ServeResponse, SessionState,
    };
    pub use crate::error::ServeError;
    pub use crate::latency::{LatencyRecorder, LatencyReport, Stage, StageStats};
    pub use crate::session::{Session, SessionConfig, SloClass};
    pub use crate::stream::{FeaturizeOp, FusionOp, StreamOp};
    pub use fuse_core::{build_mars_cnn, FineTuneConfig, FineTuneScope, ModelConfig};
    pub use fuse_dataset::{FeatureMapBuilder, FrameFusion};
}
