//! Per-client serving sessions and the typed session-creation API.
//!
//! A [`Session`] owns everything one streaming client needs: the per-session
//! state of the streaming ops (the fusion delay line and featurization
//! counters — see [`crate::stream`]), an optional service-level class, and —
//! once the client has been adapted online — a private plan compiled from
//! its fine-tuned weights, which is the only copy of those weights. Sessions
//! are plain state holders; the [`crate::ServeEngine`] drives them, owns the
//! shared base model and trains and compiles every private plan.
//!
//! Sessions are created from a [`SessionConfig`], the typed builder that
//! replaced the old positional `Session::new(id, fusion, builder)`:
//!
//! ```
//! use fuse_serve::{Session, SessionConfig, SloClass};
//!
//! let session = Session::new(SessionConfig::new(7).slo(SloClass::Clinical));
//! assert_eq!(session.id(), 7);
//! assert_eq!(session.slo_class(), Some(SloClass::Clinical));
//! ```

use fuse_dataset::{FeatureMapBuilder, FrameFusion};
use fuse_graph::ExecPlan;
use fuse_radar::{PointCloudFrame, RadarPoint};
use fuse_tensor::Tensor;

use crate::stream::{FeaturizeOp, FeaturizeState, FusionOp, FusionState, StreamOp};
use crate::Result;

/// Service-level class of a session, mapping to a backpressure preset at the
/// cluster layer (`fuse-cluster`'s `BackpressureSpec`).
///
/// | Class         | Preset intent                                        |
/// |---------------|------------------------------------------------------|
/// | `Clinical`    | every frame matters — block, deep queue              |
/// | `Interactive` | keep up with the user — merge bursts, moderate queue |
/// | `Dashboard`   | freshest pose wins — drop oldest, shallow queue      |
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SloClass {
    /// Lossless clinical capture: no frame may be discarded.
    Clinical,
    /// Interactive use: bounded latency, bursts coalesced.
    Interactive,
    /// Monitoring dashboards: bounded latency, oldest frames expendable.
    Dashboard,
}

impl SloClass {
    /// Every class, in a fixed order (useful for iteration in tests and
    /// controllers).
    pub const ALL: [SloClass; 3] = [SloClass::Clinical, SloClass::Interactive, SloClass::Dashboard];

    /// Short lowercase class name used in reports and the
    /// `FUSE_SLO_DEFAULT` environment knob.
    pub fn name(&self) -> &'static str {
        match self {
            SloClass::Clinical => "clinical",
            SloClass::Interactive => "interactive",
            SloClass::Dashboard => "dashboard",
        }
    }

    /// Parses a class name as accepted by `FUSE_SLO_DEFAULT` (trimmed, ASCII
    /// case-insensitive).
    pub fn parse(raw: &str) -> Option<SloClass> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "clinical" => Some(SloClass::Clinical),
            "interactive" => Some(SloClass::Interactive),
            "dashboard" => Some(SloClass::Dashboard),
            _ => None,
        }
    }
}

impl std::fmt::Display for SloClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Typed configuration for opening one session.
///
/// Only the id is mandatory; everything else is optional and falls back to
/// the owning engine's [`crate::ServeConfig`] (or the crate defaults when a
/// session is built standalone). The builder is the *only* session-creation
/// path — `ServeEngine::open_session`, the cluster router and the wire
/// protocol all take a `SessionConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    id: u64,
    slo: Option<SloClass>,
    fusion: Option<FrameFusion>,
    feature_map: Option<FeatureMapBuilder>,
}

impl SessionConfig {
    /// Starts a configuration for session `id` with every option unset.
    pub fn new(id: u64) -> Self {
        SessionConfig { id, slo: None, fusion: None, feature_map: None }
    }

    /// Assigns a service-level class (drives per-session backpressure at the
    /// cluster layer; unset sessions use the cluster default).
    pub fn slo(mut self, slo: SloClass) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Overrides the fusion window for this session (default: the engine's).
    pub fn fusion(mut self, fusion: FrameFusion) -> Self {
        self.fusion = Some(fusion);
        self
    }

    /// Overrides the feature-map geometry for this session. An engine
    /// rejects overrides whose input dimensions disagree with its compiled
    /// plans ([`crate::ServeError::InvalidConfig`]).
    pub fn feature_map(mut self, builder: FeatureMapBuilder) -> Self {
        self.feature_map = Some(builder);
        self
    }

    /// The session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The configured service-level class, when set.
    pub fn slo_class(&self) -> Option<SloClass> {
        self.slo
    }

    /// The configured fusion override, when set.
    pub fn fusion_override(&self) -> Option<&FrameFusion> {
        self.fusion.as_ref()
    }

    /// The configured feature-map override, when set.
    pub fn feature_map_override(&self) -> Option<&FeatureMapBuilder> {
        self.feature_map.as_ref()
    }

    /// Fills every unset option from an engine's defaults (the engine calls
    /// this before building the session, so a bare `SessionConfig::new(id)`
    /// inherits the engine geometry, not the crate defaults).
    pub(crate) fn with_defaults(
        mut self,
        fusion: FrameFusion,
        builder: &FeatureMapBuilder,
    ) -> Self {
        self.fusion.get_or_insert(fusion);
        if self.feature_map.is_none() {
            self.feature_map = Some(builder.clone());
        }
        self
    }
}

/// One client's streaming state inside a [`crate::ServeEngine`].
#[derive(Debug)]
pub struct Session {
    id: u64,
    slo: Option<SloClass>,
    fusion_op: FusionOp,
    fusion_state: FusionState,
    featurize_op: FeaturizeOp,
    featurize_state: FeaturizeState,
    /// The plan compiled from the session's fine-tuned weights, installed
    /// by the engine after an adaptation or migration, and the only copy of
    /// those weights ([`ExecPlan::params`]); `None` means the session serves
    /// from the engine's shared base plan.
    plan: Option<ExecPlan>,
    /// Number of frames ingested over the session's lifetime (ticks are not
    /// frames — see [`Session::ticks_seen`]).
    frames_seen: u64,
    /// Number of cadence slots over the session's lifetime: frames *plus*
    /// missing-frame ticks.
    ticks_seen: u64,
}

impl Session {
    /// Creates an empty session from its typed configuration. Unset fusion /
    /// feature-map options fall back to the crate defaults; inside an engine,
    /// [`crate::ServeEngine::open_session`] fills them from the engine's
    /// [`crate::ServeConfig`] first.
    pub fn new(config: SessionConfig) -> Self {
        let fusion = config.fusion.unwrap_or_default();
        let builder = config.feature_map.unwrap_or_default();
        let fusion_op = FusionOp::new(fusion);
        let featurize_op = FeaturizeOp::new(builder);
        let fusion_state = fusion_op.init();
        let featurize_state = featurize_op.init();
        Session {
            id: config.id,
            slo: config.slo,
            fusion_op,
            fusion_state,
            featurize_op,
            featurize_state,
            plan: None,
            frames_seen: 0,
            ticks_seen: 0,
        }
    }

    /// The session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The session's service-level class, when one was configured.
    pub fn slo_class(&self) -> Option<SloClass> {
        self.slo
    }

    /// The fusion operator applied to this session's stream.
    pub fn fusion(&self) -> &FrameFusion {
        self.fusion_op.fusion()
    }

    /// The feature-map geometry of this session.
    pub fn feature_map(&self) -> &FeatureMapBuilder {
        self.featurize_op.builder()
    }

    /// Number of frames currently held in the fusion delay line (present
    /// slots only; at most `M + 1`, the reachable streaming window).
    pub fn history_len(&self) -> usize {
        self.fusion_state.frame_count()
    }

    /// Number of frames ingested over the session's lifetime.
    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }

    /// Number of cadence slots over the session's lifetime: every
    /// [`Session::push_frame`] *and* every [`Session::tick_missing`].
    pub fn ticks_seen(&self) -> u64 {
        self.ticks_seen
    }

    /// The retained frames of the fusion delay line, oldest first (ticks are
    /// skipped). Together with [`Session::slot_mask`],
    /// [`Session::frames_seen`] and [`Session::ticks_seen`] this is
    /// everything a migration needs to rebuild the session's op state
    /// bit-exactly on another host ([`crate::ServeEngine::export_session`]).
    pub fn history(&self) -> impl Iterator<Item = &PointCloudFrame> {
        self.fusion_state.frames()
    }

    /// One boolean per occupied delay-line slot, oldest first: `true` where
    /// a frame is retained, `false` where a missing-frame tick advanced the
    /// line.
    pub fn slot_mask(&self) -> Vec<bool> {
        self.fusion_state.slot_mask()
    }

    /// Overwrites the lifetime counters; used when a migrated session is
    /// rebuilt from exported state (the replayed history pushes reset the
    /// counters to the replay length, not the true lifetime counts).
    pub(crate) fn set_counters(&mut self, frames_seen: u64, ticks_seen: u64) {
        self.frames_seen = frames_seen;
        self.ticks_seen = ticks_seen;
    }

    /// Installs the plan compiled from the session's fine-tuned weights,
    /// replacing any previous one (an adaptation, or a migrated session's
    /// weights restored from an `FCKP` payload).
    pub(crate) fn install(&mut self, plan: ExecPlan) {
        self.plan = Some(plan);
    }

    /// `true` once the session serves from a private fine-tuned plan.
    pub fn is_adapted(&self) -> bool {
        self.plan.is_some()
    }

    /// The session's private plan, when adapted. Its
    /// [`ExecPlan::params`] are the session's fine-tuned weights.
    pub fn plan(&self) -> Option<&ExecPlan> {
        self.plan.as_ref()
    }

    pub(crate) fn plan_mut(&mut self) -> Option<&mut ExecPlan> {
        self.plan.as_mut()
    }

    /// Advances the fusion delay line with a frame (evicting the oldest slot
    /// once the window is full and updating the fused buffer incrementally)
    /// and returns this frame's lifetime index.
    pub fn push_frame(&mut self, frame: PointCloudFrame) -> u64 {
        self.fusion_op.step(&mut self.fusion_state, frame);
        self.featurize_op.step(&mut self.featurize_state, ());
        self.ticks_seen += 1;
        let index = self.frames_seen;
        self.frames_seen += 1;
        index
    }

    /// Advances the fusion delay line one cadence slot with *no* frame: the
    /// oldest slot leaves the window and nothing replaces it. This is how a
    /// variable-rate or lossy producer tells the session that a frame was
    /// dropped — the fused window shrinks deterministically instead of
    /// serving stale history as if it were current.
    pub fn tick_missing(&mut self) {
        self.fusion_op.tick(&mut self.fusion_state);
        self.featurize_op.tick(&mut self.featurize_state);
        self.ticks_seen += 1;
    }

    /// The fused point set of the current window — the incrementally
    /// maintained delay-line buffer, *not* a re-fuse of the whole history
    /// (that recompute survives as [`Session::fused_points_recomputed`], the
    /// cross-check oracle).
    pub fn fused_points(&self) -> &[RadarPoint] {
        self.fusion_state.fused()
    }

    /// Recomputes the fused point set from scratch over the retained frames
    /// — the pre-streaming implementation, kept as the oracle the
    /// incremental buffer is cross-checked against (debug assertions in
    /// [`Session::featurize_latest`], explicit comparisons in tests).
    pub fn fused_points_recomputed(&self) -> Vec<RadarPoint> {
        self.fusion_op.refuse(&self.fusion_state)
    }

    /// Lifetime counters of the featurization op: feature maps built and
    /// cadence slots skipped.
    pub fn featurize_counters(&self) -> (u64, u64) {
        (self.featurize_state.built(), self.featurize_state.skipped())
    }

    /// Builds the `[C, H, W]` feature tensor for the newest frame in the
    /// window (incremental fusion followed by feature-map construction).
    ///
    /// # Errors
    ///
    /// Returns [`crate::ServeError::UnknownSession`]-free pipeline errors only:
    /// feature-map construction failures propagate as
    /// [`crate::ServeError::Dataset`].
    pub fn featurize_latest(&self) -> Result<Tensor> {
        let points = self.fused_points();
        debug_assert_eq!(
            points,
            self.fused_points_recomputed().as_slice(),
            "incremental fused buffer drifted from the full re-fuse"
        );
        Ok(self.feature_map().build(points, None)?)
    }

    /// Drops the private plan: the session goes back to serving from the
    /// engine's shared base model (e.g. after a checkpoint hot-swap).
    pub fn reset_to_base(&mut self) {
        self.plan = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tag: f32, n: usize) -> PointCloudFrame {
        let points =
            (0..n).map(|i| RadarPoint::new(tag, 2.0 + i as f32 * 0.01, 1.0, 0.0, 1.0)).collect();
        PointCloudFrame::new(0, 0.0, points)
    }

    #[test]
    fn history_is_bounded_by_the_fusion_window() {
        let mut s = Session::new(SessionConfig::new(1).fusion(FrameFusion::new(1)));
        assert_eq!(s.history_len(), 0);
        for i in 0..10 {
            let index = s.push_frame(frame(i as f32, 4));
            assert_eq!(index, i as u64);
        }
        assert_eq!(s.history_len(), 2, "history must hold at most M+1 frames");
        assert_eq!(s.frames_seen(), 10);
        assert_eq!(s.ticks_seen(), 10);
        // The retained frames are the newest two (tags 8, 9): fusing around
        // the newest frame reaches back exactly M = 1 frames, so both are
        // part of the fused set.
        let fused = s.fused_points();
        assert_eq!(fused.len(), 8);
        assert!(fused.iter().all(|p| p.x >= 8.0));
        assert_eq!(fused, s.fused_points_recomputed().as_slice());
    }

    #[test]
    fn featurize_latest_matches_the_manual_pipeline() {
        let fusion = FrameFusion::new(1);
        let builder = FeatureMapBuilder::default();
        let mut s = Session::new(SessionConfig::new(2).fusion(fusion).feature_map(builder.clone()));
        let frames: Vec<PointCloudFrame> = (0..3).map(|i| frame(i as f32, 8)).collect();
        for f in &frames {
            s.push_frame(f.clone());
        }
        let expected_points = fusion.fused_points_owned(&frames, 2);
        let expected = builder.build(&expected_points, None).unwrap();
        let actual = s.featurize_latest().unwrap();
        assert_eq!(actual, expected);
    }

    #[test]
    fn missing_frame_ticks_shrink_the_window_deterministically() {
        let mut s = Session::new(SessionConfig::new(7).fusion(FrameFusion::new(1)));
        s.push_frame(frame(0.0, 4));
        s.push_frame(frame(1.0, 6));
        assert_eq!(s.fused_points().len(), 10);
        s.tick_missing();
        assert_eq!(s.slot_mask(), [true, false]);
        assert_eq!(s.fused_points().len(), 6, "only the newest frame remains fused");
        assert_eq!(s.fused_points(), s.fused_points_recomputed().as_slice());
        assert_eq!(s.frames_seen(), 2);
        assert_eq!(s.ticks_seen(), 3);
        assert_eq!(s.featurize_counters(), (2, 1));
        // The next frame's index continues the *frame* sequence; ticks do
        // not consume indices.
        assert_eq!(s.push_frame(frame(2.0, 3)), 2);
    }

    #[test]
    fn empty_history_featurizes_to_zeros() {
        let s = Session::new(SessionConfig::new(3));
        assert!(s.fused_points().is_empty());
        let features = s.featurize_latest().unwrap();
        assert_eq!(features.dims(), &[5, 8, 8]);
        assert!(features.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn session_config_builder_sets_every_option() {
        let config = SessionConfig::new(9)
            .slo(SloClass::Dashboard)
            .fusion(FrameFusion::new(2))
            .feature_map(FeatureMapBuilder::new(4, 4));
        assert_eq!(config.id(), 9);
        assert_eq!(config.slo_class(), Some(SloClass::Dashboard));
        let s = Session::new(config);
        assert_eq!(s.slo_class(), Some(SloClass::Dashboard));
        assert_eq!(s.fusion().half_window(), 2);
        assert_eq!(s.feature_map().input_dims(), [5, 4, 4]);
    }

    #[test]
    fn slo_class_names_parse_and_render() {
        for class in SloClass::ALL {
            assert_eq!(SloClass::parse(class.name()), Some(class));
            assert_eq!(SloClass::parse(&class.name().to_uppercase()), Some(class));
        }
        assert_eq!(SloClass::parse("gold-tier"), None);
        assert_eq!(SloClass::Clinical.to_string(), "clinical");
    }

    #[test]
    fn reset_to_base_drops_the_private_model() {
        use fuse_nn::layers::Linear;
        use fuse_nn::{LoweringRequest, Sequential};
        let mut s = Session::new(SessionConfig::new(4));
        assert!(!s.is_adapted());
        assert!(s.plan().is_none());
        let model = Sequential::new(vec![Box::new(Linear::new(2, 1, 0).unwrap())]);
        s.install(LoweringRequest::new(&model, &[2]).lower().unwrap().compile(1).unwrap());
        assert!(s.is_adapted());
        assert!(s.plan().is_some());
        s.reset_to_base();
        assert!(!s.is_adapted());
        assert!(s.plan().is_none());
    }
}
