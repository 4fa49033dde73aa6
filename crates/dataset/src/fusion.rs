//! Multi-frame point-cloud fusion (§3.2, Eq. 3).
//!
//! The paper's first contribution: instead of feeding the network one sparse
//! frame `f[k]`, FUSE concatenates the points of `2M + 1` consecutive frames
//! `F[k] = { f[k-M], ..., f[k], ..., f[k+M] }`, enriching the representation
//! without touching the downstream model.

use fuse_radar::{PointCloudFrame, RadarPoint};
use serde::{Deserialize, Serialize};

/// Multi-frame fusion operator with half-window `M`.
///
/// `M = 0` reproduces the single-frame baseline, `M = 1` fuses three frames
/// and `M = 2` fuses five frames — the three settings of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameFusion {
    half_window: usize,
}

impl FrameFusion {
    /// Creates a fusion operator with half-window `M` (Eq. 3).
    pub fn new(half_window: usize) -> Self {
        FrameFusion { half_window }
    }

    /// Convenience constructor from the total number of fused frames
    /// (1, 3, 5, ...). Even counts are rounded down to the nearest odd count.
    pub fn from_frame_count(frames: usize) -> Self {
        FrameFusion { half_window: frames.saturating_sub(1) / 2 }
    }

    /// The half-window `M`.
    pub fn half_window(&self) -> usize {
        self.half_window
    }

    /// Total number of frames fused per sample (`2M + 1`, saturating at
    /// `usize::MAX`).
    pub fn frame_count(&self) -> usize {
        self.half_window.saturating_mul(2).saturating_add(1)
    }

    /// Fuses the frames around index `k` of a temporally ordered sequence.
    ///
    /// Frames outside the sequence boundary are simply skipped (the first and
    /// last `M` samples of a sequence fuse fewer frames), matching how a
    /// streaming implementation behaves at the start of a recording.
    pub fn fused_points(&self, sequence: &[&PointCloudFrame], k: usize) -> Vec<RadarPoint> {
        let mut points = Vec::new();
        if sequence.is_empty() || k >= sequence.len() {
            return points;
        }
        let start = k.saturating_sub(self.half_window);
        let end = k.saturating_add(self.half_window).min(sequence.len() - 1);
        for frame in &sequence[start..=end] {
            points.extend_from_slice(&frame.points);
        }
        points
    }

    /// Fuses owned frames (convenience wrapper over [`FrameFusion::fused_points`]).
    pub fn fused_points_owned(&self, sequence: &[PointCloudFrame], k: usize) -> Vec<RadarPoint> {
        let refs: Vec<&PointCloudFrame> = sequence.iter().collect();
        self.fused_points(&refs, k)
    }
}

impl Default for FrameFusion {
    /// The paper's recommended setting: fuse three frames (`M = 1`).
    fn default() -> Self {
        FrameFusion { half_window: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_with(n: usize, tag: f32) -> PointCloudFrame {
        let points = (0..n).map(|i| RadarPoint::new(tag, i as f32, 0.0, 0.0, 1.0)).collect();
        PointCloudFrame::new(0, 0.0, points)
    }

    #[test]
    fn frame_count_mapping() {
        assert_eq!(FrameFusion::new(0).frame_count(), 1);
        assert_eq!(FrameFusion::new(1).frame_count(), 3);
        assert_eq!(FrameFusion::new(2).frame_count(), 5);
        assert_eq!(FrameFusion::from_frame_count(1).half_window(), 0);
        assert_eq!(FrameFusion::from_frame_count(3).half_window(), 1);
        assert_eq!(FrameFusion::from_frame_count(5).half_window(), 2);
        assert_eq!(FrameFusion::from_frame_count(4).half_window(), 1);
        assert_eq!(FrameFusion::default().frame_count(), 3);
    }

    #[test]
    fn interior_frame_fuses_the_full_window() {
        let frames: Vec<PointCloudFrame> = (0..7).map(|i| frame_with(10, i as f32)).collect();
        let fusion = FrameFusion::new(1);
        let fused = fusion.fused_points_owned(&frames, 3);
        assert_eq!(fused.len(), 30);
        // Points from frames 2, 3 and 4 (tags) are all present.
        let tags: std::collections::BTreeSet<i32> = fused.iter().map(|p| p.x as i32).collect();
        assert_eq!(tags, [2, 3, 4].into_iter().collect());
    }

    #[test]
    fn boundary_frames_fuse_fewer_frames() {
        let frames: Vec<PointCloudFrame> = (0..5).map(|i| frame_with(8, i as f32)).collect();
        let fusion = FrameFusion::new(2);
        assert_eq!(fusion.fused_points_owned(&frames, 0).len(), 8 * 3); // frames 0..=2
        assert_eq!(fusion.fused_points_owned(&frames, 2).len(), 8 * 5); // full window
        assert_eq!(fusion.fused_points_owned(&frames, 4).len(), 8 * 3); // frames 2..=4
    }

    #[test]
    fn zero_window_is_the_single_frame_baseline() {
        let frames: Vec<PointCloudFrame> = (0..4).map(|i| frame_with(5, i as f32)).collect();
        let fusion = FrameFusion::new(0);
        for k in 0..4 {
            let fused = fusion.fused_points_owned(&frames, k);
            assert_eq!(fused.len(), 5);
            assert!(fused.iter().all(|p| (p.x - k as f32).abs() < 1e-6));
        }
    }

    #[test]
    fn fusion_multiplies_information_content() {
        // The motivating observation of §3.2: fused frames carry several times
        // more points than a single frame.
        let frames: Vec<PointCloudFrame> = (0..9).map(|i| frame_with(64, i as f32)).collect();
        let single = FrameFusion::new(0).fused_points_owned(&frames, 4).len();
        let fused3 = FrameFusion::new(1).fused_points_owned(&frames, 4).len();
        let fused5 = FrameFusion::new(2).fused_points_owned(&frames, 4).len();
        assert_eq!(fused3, 3 * single);
        assert_eq!(fused5, 5 * single);
    }

    #[test]
    fn huge_windows_saturate_instead_of_overflowing() {
        let frames: Vec<PointCloudFrame> = (0..4).map(|i| frame_with(2, i as f32)).collect();
        for fusion in [FrameFusion::new(1 << 40), FrameFusion::new(usize::MAX)] {
            assert_eq!(fusion.fused_points_owned(&frames, 3).len(), 8);
            assert_eq!(fusion.fused_points_owned(&frames, 0).len(), 8);
        }
        assert_eq!(FrameFusion::new(usize::MAX).frame_count(), usize::MAX);
    }

    #[test]
    fn out_of_range_and_empty_sequences_are_handled() {
        let fusion = FrameFusion::new(1);
        assert!(fusion.fused_points(&[], 0).is_empty());
        let frames = vec![frame_with(3, 0.0)];
        assert!(fusion.fused_points_owned(&frames, 5).is_empty());
    }
}
