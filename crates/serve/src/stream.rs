//! Stateful streaming operators.
//!
//! The serving pipeline used to be a *replay* loop: every submitted frame
//! re-ran multi-frame fusion over the session's whole rolling history. This
//! module reworks fusion and featurization as explicit **streaming ops** in
//! the pulse/scan style: an operator is a small, immutable description
//! ([`StreamOp`]) and all mutable per-client storage lives in an explicit
//! `State` value owned by the [`crate::Session`]. Three properties fall out:
//!
//! * **Incremental updates** — [`FusionOp`] maintains a delay line of the
//!   last `M + 1` cadence slots plus a rolling fused-point buffer; pushing a
//!   frame drains the evicted slot's points from the front and appends the
//!   new frame's points at the back. On a fixed-cadence stream the buffer is
//!   byte-for-byte the concatenation the old full re-fuse produced, so the
//!   committed serve goldens are untouched, and each update costs `O(points
//!   in + points out)` instead of `O(window)`.
//! * **Variable cadence & dropout tolerance** — a missing frame is an
//!   explicit [`StreamOp::tick`]: the delay line advances deterministically
//!   with an empty slot, so two hosts replaying the same frame + tick pattern
//!   hold bit-identical state (the invariant session migration relies on).
//! * **Declared metadata** — every op declares its [`StreamOp::delay`] and
//!   [`StreamOp::window`], so schedulers can reason about how much history an
//!   op needs without inspecting its state.

use std::collections::VecDeque;

use fuse_dataset::{FeatureMapBuilder, FrameFusion};
use fuse_radar::{PointCloudFrame, RadarPoint};
use fuse_tensor::Tensor;

use crate::Result;

/// A stateful streaming operator.
///
/// The op itself is immutable configuration; all mutable per-session storage
/// lives in the explicit `State` value, created by [`StreamOp::init`] and
/// owned by the caller (one state per client session). Each cadence slot of
/// the input stream is either a [`StreamOp::step`] (a frame arrived) or a
/// [`StreamOp::tick`] (the frame was dropped or the producer skipped a
/// beat); both advance the state deterministically, so replaying the same
/// step/tick pattern reproduces the state bit for bit.
pub trait StreamOp {
    /// The per-session mutable state of this op.
    type State;
    /// One cadence slot's worth of input.
    type Input;
    /// What one step produces.
    type Output;

    /// Creates a fresh (empty) state.
    fn init(&self) -> Self::State;

    /// Resets a state in place to the freshly-initialised condition.
    fn reset(&self, state: &mut Self::State);

    /// Advances the state by one cadence slot carrying `input`.
    fn step(&self, state: &mut Self::State, input: Self::Input) -> Self::Output;

    /// Advances the state by one cadence slot with *no* input (a dropped or
    /// skipped frame). The default treats a missing frame as a no-op; ops
    /// with internal delay lines override this to shift them.
    fn tick(&self, _state: &mut Self::State) {}

    /// Number of cadence slots between an input entering the op and it no
    /// longer influencing the output (0 = memoryless).
    fn delay(&self) -> usize {
        0
    }

    /// Number of cadence slots of history one output draws on.
    fn window(&self) -> usize {
        1
    }
}

/// Streaming multi-frame fusion (the stateful form of
/// [`fuse_dataset::FrameFusion`], paper Eq. 3).
///
/// The op retains the last `M + 1` cadence slots (`M` =
/// [`FrameFusion::half_window`]); fusing around the newest frame can only
/// ever reach `M` slots into the past, so that is all the history a
/// streaming session needs. Each slot is `Some(frame)` or `None` (a tick),
/// and the fused output is the concatenation of the retained present frames'
/// points, oldest slot first — exactly what the offline
/// [`FrameFusion::fused_points`] produces over the same frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionOp {
    fusion: FrameFusion,
}

impl FusionOp {
    /// Wraps a fusion operator for streaming use.
    pub fn new(fusion: FrameFusion) -> Self {
        FusionOp { fusion }
    }

    /// The underlying fusion configuration.
    pub fn fusion(&self) -> &FrameFusion {
        &self.fusion
    }

    /// Number of cadence slots the delay line holds (`M + 1`, saturating:
    /// a window of `usize::MAX` never evicts).
    pub fn slots(&self) -> usize {
        self.fusion.half_window().saturating_add(1)
    }

    /// Recomputes the fused point set from scratch over the state's retained
    /// frames — the old full re-fuse path, kept as the cross-check oracle for
    /// the incremental buffer. Tests and debug assertions compare this
    /// against [`FusionState::fused`]; production callers read the
    /// incremental buffer.
    pub fn refuse(&self, state: &FusionState) -> Vec<RadarPoint> {
        let frames: Vec<&PointCloudFrame> = state.frames().collect();
        if frames.is_empty() {
            return Vec::new();
        }
        self.fusion.fused_points(&frames, frames.len() - 1)
    }
}

/// The per-session state of a [`FusionOp`]: the delay line plus the rolling
/// fused-point buffer.
#[derive(Debug, Clone, Default)]
pub struct FusionState {
    /// The last `M + 1` cadence slots, oldest first. `None` marks a tick
    /// (dropped/skipped frame) — it occupies a slot so the window keeps
    /// advancing in wall-clock cadence, not in frames-received.
    slots: VecDeque<Option<PointCloudFrame>>,
    /// Concatenated points of the present frames in `slots`, oldest slot
    /// first — maintained incrementally, never recomputed.
    fused: Vec<RadarPoint>,
}

impl FusionState {
    /// The incrementally-maintained fused point set (the streaming
    /// equivalent of fusing the retained history around its newest frame).
    pub fn fused(&self) -> &[RadarPoint] {
        &self.fused
    }

    /// The retained frames, oldest first (ticks are skipped).
    pub fn frames(&self) -> impl Iterator<Item = &PointCloudFrame> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Number of retained frames (present slots only).
    pub fn frame_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// One boolean per occupied cadence slot, oldest first: `true` where a
    /// frame is retained, `false` where a tick advanced the line. Together
    /// with [`FusionState::frames`] this reconstructs the delay line exactly
    /// (a migration replays `true` slots as steps and `false` slots as
    /// ticks).
    pub fn slot_mask(&self) -> Vec<bool> {
        self.slots.iter().map(|s| s.is_some()).collect()
    }

    fn evict_if_full(&mut self, capacity: usize) {
        if self.slots.len() == capacity {
            if let Some(Some(old)) = self.slots.pop_front() {
                self.fused.drain(..old.points.len());
            }
        }
    }
}

impl StreamOp for FusionOp {
    type State = FusionState;
    type Input = PointCloudFrame;
    type Output = usize;

    /// Reserves nothing: the half-window arrives from the wire unchecked,
    /// so the delay line grows one slot per cadence slot, up to `M + 1`.
    fn init(&self) -> FusionState {
        FusionState::default()
    }

    fn reset(&self, state: &mut FusionState) {
        state.slots.clear();
        state.fused.clear();
    }

    /// Pushes a frame into the delay line and returns the fused point count.
    /// The evicted slot's points leave the front of the fused buffer, the new
    /// frame's points join at the back — the buffer is always the
    /// concatenation of the present slots' points, oldest first.
    fn step(&self, state: &mut FusionState, frame: PointCloudFrame) -> usize {
        state.evict_if_full(self.slots());
        state.fused.extend_from_slice(&frame.points);
        state.slots.push_back(Some(frame));
        state.fused.len()
    }

    /// Advances the delay line with an empty slot: the oldest slot's points
    /// leave the fused buffer and nothing replaces them. A fully-ticked-out
    /// window fuses to the empty point set, exactly like a fresh session.
    fn tick(&self, state: &mut FusionState) {
        state.evict_if_full(self.slots());
        state.slots.push_back(None);
    }

    fn delay(&self) -> usize {
        self.fusion.half_window()
    }

    fn window(&self) -> usize {
        self.slots()
    }
}

/// Streaming feature-map construction (the stateful form of
/// [`fuse_dataset::FeatureMapBuilder`]).
///
/// Featurization is memoryless over the fused point set, so its state is
/// only the lifetime counters — but routing it through [`StreamOp`] gives it
/// the same reset/step/tick lifecycle as fusion, and leaves room for a
/// future incremental grid update without touching callers.
#[derive(Debug, Clone, PartialEq)]
pub struct FeaturizeOp {
    builder: FeatureMapBuilder,
}

impl FeaturizeOp {
    /// Wraps a feature-map builder for streaming use.
    pub fn new(builder: FeatureMapBuilder) -> Self {
        FeaturizeOp { builder }
    }

    /// The underlying feature-map geometry.
    pub fn builder(&self) -> &FeatureMapBuilder {
        &self.builder
    }

    /// Builds the `[C, H, W]` feature tensor for a fused point set,
    /// advancing the state's counters.
    ///
    /// # Errors
    ///
    /// Propagates feature-map construction failures as
    /// [`crate::ServeError::Dataset`].
    pub fn featurize(&self, state: &mut FeaturizeState, points: &[RadarPoint]) -> Result<Tensor> {
        state.built += 1;
        Ok(self.builder.build(points, None)?)
    }
}

/// The per-session state of a [`FeaturizeOp`]: lifetime counters only (the
/// grid itself is rebuilt per output — see the op docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeaturizeState {
    /// Feature maps built over the state's lifetime.
    built: u64,
    /// Cadence slots that passed without an output (ticks).
    skipped: u64,
}

impl FeaturizeState {
    /// Feature maps built over the state's lifetime.
    pub fn built(&self) -> u64 {
        self.built
    }

    /// Cadence slots that passed without an output (ticks).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }
}

impl StreamOp for FeaturizeOp {
    type State = FeaturizeState;
    type Input = ();
    type Output = ();

    fn init(&self) -> FeaturizeState {
        FeaturizeState::default()
    }

    fn reset(&self, state: &mut FeaturizeState) {
        *state = FeaturizeState::default();
    }

    fn step(&self, state: &mut FeaturizeState, _input: ()) {
        state.built += 1;
    }

    fn tick(&self, state: &mut FeaturizeState) {
        state.skipped += 1;
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
    fn incremental_fusion_matches_the_full_refuse_on_fixed_cadence() {
        let op = FusionOp::new(FrameFusion::new(2));
        let mut state = op.init();
        for i in 0..10 {
            op.step(&mut state, frame(i as f32, 3 + i % 4));
            assert_eq!(state.fused(), op.refuse(&state).as_slice(), "after frame {i}");
        }
        assert_eq!(state.frame_count(), 3, "delay line holds M + 1 slots");
        assert_eq!(op.window(), 3);
        assert_eq!(op.delay(), 2);
    }

    #[test]
    fn ticks_advance_the_delay_line_deterministically() {
        let op = FusionOp::new(FrameFusion::new(1));
        let mut state = op.init();
        op.step(&mut state, frame(0.0, 4));
        op.step(&mut state, frame(1.0, 5));
        assert_eq!(state.fused().len(), 9);
        // A tick evicts the oldest frame without replacing it.
        op.tick(&mut state);
        assert_eq!(state.slot_mask(), [true, false]);
        assert_eq!(state.fused().len(), 5);
        assert_eq!(state.fused(), op.refuse(&state).as_slice());
        // Another tick empties the window entirely.
        op.tick(&mut state);
        assert_eq!(state.slot_mask(), [false, false]);
        assert!(state.fused().is_empty());
        assert_eq!(state.frame_count(), 0);
        // A frame after a gap fuses alone, like a fresh session's first frame.
        op.step(&mut state, frame(2.0, 7));
        assert_eq!(state.fused().len(), 7);
        assert_eq!(state.fused(), op.refuse(&state).as_slice());
    }

    #[test]
    fn replaying_a_slot_mask_reproduces_the_state_bit_for_bit() {
        let op = FusionOp::new(FrameFusion::new(2));
        let mut live = op.init();
        let pattern = [true, true, false, true, false, false, true, true];
        let mut tag = 0.0f32;
        for &present in &pattern {
            if present {
                op.step(&mut live, frame(tag, 6));
                tag += 1.0;
            } else {
                op.tick(&mut live);
            }
        }
        // Rebuild from the exported view: retained frames + slot mask.
        let frames: Vec<PointCloudFrame> = live.frames().cloned().collect();
        let mut rebuilt = op.init();
        let mut next = frames.into_iter();
        for present in live.slot_mask() {
            if present {
                op.step(&mut rebuilt, next.next().expect("mask and frames agree"));
            } else {
                op.tick(&mut rebuilt);
            }
        }
        assert_eq!(rebuilt.fused(), live.fused());
        assert_eq!(rebuilt.slot_mask(), live.slot_mask());
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let op = FusionOp::new(FrameFusion::default());
        let mut state = op.init();
        op.step(&mut state, frame(0.0, 4));
        op.tick(&mut state);
        op.reset(&mut state);
        assert!(state.fused().is_empty());
        assert!(state.slot_mask().is_empty());
    }

    #[test]
    fn featurize_op_counts_steps_and_ticks() {
        let op = FeaturizeOp::new(FeatureMapBuilder::default());
        let mut state = op.init();
        let t = op.featurize(&mut state, &frame(0.0, 4).points).unwrap();
        assert_eq!(t.dims(), &[5, 8, 8]);
        op.tick(&mut state);
        assert_eq!((state.built(), state.skipped()), (1, 1));
        op.reset(&mut state);
        assert_eq!(state, FeaturizeState::default());
    }
}
