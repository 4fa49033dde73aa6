//! Per-stage latency and throughput accounting for the serving engine.
//!
//! The FUSE deployment story is a 10 Hz radar: every frame must clear the
//! pipeline within a 100 ms budget. The recorder collects per-stage wall-clock
//! samples (fusion, feature-map construction, CNN inference, and the
//! submit-to-response total) and summarises them as p50/p95/p99 percentiles
//! against that budget, which is what the `realtime_edge` example and the
//! serving benches report.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Default per-frame latency budget: the 100 ms frame period of a 10 Hz radar.
pub const DEFAULT_BUDGET_MS: f64 = 100.0;

/// Default per-stage sample window. A long-running server records forever;
/// the recorder keeps the most recent window so memory stays bounded and the
/// percentiles describe recent behaviour.
pub const DEFAULT_SAMPLE_WINDOW: usize = 65_536;

/// A pipeline stage whose latency the engine records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// Multi-frame point-cloud fusion over the session history.
    Fuse,
    /// Feature-map construction from the fused point set.
    Featurize,
    /// CNN forward pass (one stacked micro-batch per [`Stage::Inference`] sample).
    Inference,
    /// Submit-to-response time of one frame, including micro-batch queueing.
    Total,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 4] = [Stage::Fuse, Stage::Featurize, Stage::Inference, Stage::Total];

    /// Short lowercase stage name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Fuse => "fuse",
            Stage::Featurize => "featurize",
            Stage::Inference => "inference",
            Stage::Total => "total",
        }
    }

    fn index(&self) -> usize {
        match self {
            Stage::Fuse => 0,
            Stage::Featurize => 1,
            Stage::Inference => 2,
            Stage::Total => 3,
        }
    }
}

/// Percentile summary of one stage's latency samples, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageStats {
    /// Number of recorded samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median (50th percentile).
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst observed sample.
    pub max_ms: f64,
}

impl StageStats {
    fn from_samples(samples: &VecDeque<f64>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.iter().copied().collect();
        // `record` rejects non-finite samples, so `total_cmp` is belt and
        // braces: even a sample smuggled in through deserialization cannot
        // silently corrupt the percentile ordering the way
        // `partial_cmp(..).unwrap_or(Equal)` used to.
        sorted.sort_by(f64::total_cmp);
        Some(StageStats {
            count: sorted.len(),
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_ms: percentile(&sorted, 50.0),
            p95_ms: percentile(&sorted, 95.0),
            p99_ms: percentile(&sorted, 99.0),
            max_ms: *sorted.last().expect("non-empty"),
        })
    }
}

/// Nearest-rank percentile of an ascending-sorted sample vector.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Collects per-stage latency samples for one engine, bounded to the most
/// recent [`LatencyRecorder::sample_window`] samples per stage.
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    budget_ms: f64,
    sample_window: usize,
    samples: [VecDeque<f64>; 4],
}

impl LatencyRecorder {
    /// Creates a recorder with the given per-frame budget in milliseconds and
    /// the default sample window.
    pub fn new(budget_ms: f64) -> Self {
        LatencyRecorder {
            budget_ms,
            sample_window: DEFAULT_SAMPLE_WINDOW,
            samples: std::array::from_fn(|_| VecDeque::new()),
        }
    }

    /// Overrides the per-stage sample window (values below 1 are clamped).
    pub fn with_sample_window(mut self, window: usize) -> Self {
        self.sample_window = window.max(1);
        for s in &mut self.samples {
            while s.len() > self.sample_window {
                s.pop_front();
            }
        }
        self
    }

    /// The configured per-frame budget in milliseconds.
    pub fn budget_ms(&self) -> f64 {
        self.budget_ms
    }

    /// Number of most-recent samples retained per stage.
    pub fn sample_window(&self) -> usize {
        self.sample_window
    }

    /// Records one sample for a stage, evicting the oldest sample once the
    /// window is full.
    ///
    /// Non-finite samples (NaN, ±∞) are rejected: a NaN would poison the
    /// sort order every percentile summary depends on, and a clock that
    /// produced one has nothing truthful to say about latency anyway.
    pub fn record(&mut self, stage: Stage, ms: f64) {
        if !ms.is_finite() {
            return;
        }
        let samples = &mut self.samples[stage.index()];
        if samples.len() == self.sample_window {
            samples.pop_front();
        }
        samples.push_back(ms);
    }

    /// Number of samples recorded for a stage.
    pub fn count(&self, stage: Stage) -> usize {
        self.samples[stage.index()].len()
    }

    /// Percentile summary of a stage, or `None` when nothing was recorded.
    pub fn stats(&self, stage: Stage) -> Option<StageStats> {
        StageStats::from_samples(&self.samples[stage.index()])
    }

    /// Fraction of [`Stage::Total`] samples that met the budget, or `None`
    /// when no totals were recorded.
    pub fn within_budget_fraction(&self) -> Option<f64> {
        let totals = &self.samples[Stage::Total.index()];
        if totals.is_empty() {
            return None;
        }
        let ok = totals.iter().filter(|&&ms| ms <= self.budget_ms).count();
        Some(ok as f64 / totals.len() as f64)
    }

    /// Raw samples recorded for a stage, oldest first. Used by the wire
    /// codec to ship a drained snapshot across hosts byte-exactly.
    pub fn stage_samples(&self, stage: Stage) -> impl Iterator<Item = f64> + '_ {
        self.samples[stage.index()].iter().copied()
    }

    /// Takes every sample accumulated since the previous drain, leaving this
    /// recorder empty (budget and window are kept). This is the shard side
    /// of cluster aggregation: a worker drains its engine recorder per
    /// metrics snapshot and the router [`absorb`](LatencyRecorder::absorb)s
    /// the drained deltas into one long-lived aggregate, so polling metrics
    /// twice can never re-count a sample.
    pub fn drain(&mut self) -> LatencyRecorder {
        LatencyRecorder {
            budget_ms: self.budget_ms,
            sample_window: self.sample_window,
            samples: std::mem::replace(&mut self.samples, std::array::from_fn(|_| VecDeque::new())),
        }
    }

    /// Appends every sample held by `other`, stage by stage in pipeline
    /// order, bounded by this recorder's own window. This is the cluster
    /// aggregation primitive: a
    /// router absorbs each shard's *drained* snapshot (in shard order, so
    /// the merged view is deterministic for a given set of shard snapshots)
    /// to report fleet-wide percentiles against one budget. Feed it the
    /// output of [`drain`](LatencyRecorder::drain), not a live recorder —
    /// absorbing the same live recorder twice double-counts everything.
    pub fn absorb(&mut self, other: &LatencyRecorder) {
        for stage in Stage::ALL {
            for i in 0..other.samples[stage.index()].len() {
                self.record(stage, other.samples[stage.index()][i]);
            }
        }
    }

    /// Discards all recorded samples, keeping the budget.
    pub fn clear(&mut self) {
        for s in &mut self.samples {
            s.clear();
        }
    }

    /// Renders the full per-stage summary.
    pub fn report(&self) -> LatencyReport {
        LatencyReport {
            budget_ms: self.budget_ms,
            stages: Stage::ALL.iter().filter_map(|&s| Some((s, self.stats(s)?))).collect(),
            within_budget_fraction: self.within_budget_fraction(),
        }
    }
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder::new(DEFAULT_BUDGET_MS)
    }
}

/// A rendered latency summary: one row per recorded stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyReport {
    /// Per-frame budget the totals are judged against.
    pub budget_ms: f64,
    /// Summaries for each stage that recorded at least one sample.
    pub stages: Vec<(Stage, StageStats)>,
    /// Fraction of frames that met the budget (when totals were recorded).
    pub within_budget_fraction: Option<f64>,
}

impl std::fmt::Display for LatencyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<10} {:>7} {:>9} {:>9} {:>9} {:>9}",
            "stage", "count", "p50", "p95", "p99", "max"
        )?;
        for (stage, stats) in &self.stages {
            writeln!(
                f,
                "{:<10} {:>7} {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>7.2}ms",
                stage.name(),
                stats.count,
                stats.p50_ms,
                stats.p95_ms,
                stats.p99_ms,
                stats.max_ms
            )?;
        }
        match self.within_budget_fraction {
            Some(frac) => {
                write!(f, "within {:.0} ms budget: {:.1}% of frames", self.budget_ms, 100.0 * frac)
            }
            None => write!(f, "budget: {:.0} ms (no end-to-end samples recorded)", self.budget_ms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 95.0), 95.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn stats_summarise_samples() {
        let mut rec = LatencyRecorder::new(100.0);
        assert!(rec.stats(Stage::Fuse).is_none());
        for ms in [1.0, 2.0, 3.0, 4.0] {
            rec.record(Stage::Fuse, ms);
        }
        let stats = rec.stats(Stage::Fuse).unwrap();
        assert_eq!(stats.count, 4);
        assert!((stats.mean_ms - 2.5).abs() < 1e-12);
        assert_eq!(stats.p50_ms, 2.0);
        assert_eq!(stats.max_ms, 4.0);
    }

    #[test]
    fn budget_fraction_counts_totals_only() {
        let mut rec = LatencyRecorder::new(10.0);
        assert!(rec.within_budget_fraction().is_none());
        rec.record(Stage::Total, 5.0);
        rec.record(Stage::Total, 9.9);
        rec.record(Stage::Total, 50.0);
        rec.record(Stage::Inference, 500.0); // not a total; must not count
        let frac = rec.within_budget_fraction().unwrap();
        assert!((frac - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn report_renders_every_recorded_stage() {
        let mut rec = LatencyRecorder::default();
        assert_eq!(rec.budget_ms(), DEFAULT_BUDGET_MS);
        rec.record(Stage::Fuse, 0.1);
        rec.record(Stage::Inference, 2.0);
        rec.record(Stage::Total, 2.5);
        let report = rec.report();
        assert_eq!(report.stages.len(), 3);
        let text = report.to_string();
        assert!(text.contains("fuse"));
        assert!(text.contains("inference"));
        assert!(text.contains("100.0%"));
        rec.clear();
        assert_eq!(rec.count(Stage::Fuse), 0);
    }

    #[test]
    fn non_finite_samples_are_rejected_at_record_time() {
        let mut rec = LatencyRecorder::new(100.0);
        rec.record(Stage::Total, 1.0);
        rec.record(Stage::Total, f64::NAN);
        rec.record(Stage::Total, f64::INFINITY);
        rec.record(Stage::Total, f64::NEG_INFINITY);
        rec.record(Stage::Total, 3.0);
        let stats = rec.stats(Stage::Total).unwrap();
        assert_eq!(stats.count, 2, "non-finite samples must not be stored");
        assert_eq!(stats.p50_ms, 1.0);
        assert_eq!(stats.p99_ms, 3.0);
        assert_eq!(stats.max_ms, 3.0);
        assert!(stats.mean_ms.is_finite());
        assert_eq!(rec.within_budget_fraction(), Some(1.0));
    }

    #[test]
    fn draining_twice_cannot_double_count_samples_or_fallbacks() {
        let mut shard = LatencyRecorder::new(100.0).with_sample_window(8);
        shard.record(Stage::Total, 4.0);
        shard.record(Stage::Total, 6.0);

        let mut agg = LatencyRecorder::new(100.0);
        agg.absorb(&shard.drain());
        // Nothing new happened on the shard: a second metrics poll must
        // contribute zero samples.
        agg.absorb(&shard.drain());
        let stats = agg.stats(Stage::Total).unwrap();
        assert_eq!(stats.count, 2, "a re-drained shard must not re-add its samples");

        // The shard keeps recording after a drain; only the delta travels.
        shard.record(Stage::Total, 8.0);
        let snapshot = shard.drain();
        assert_eq!(snapshot.sample_window(), 8, "drain preserves the window");
        assert_eq!(snapshot.budget_ms(), 100.0, "drain preserves the budget");
        agg.absorb(&snapshot);
        assert_eq!(agg.stats(Stage::Total).unwrap().count, 3);
        assert_eq!(shard.count(Stage::Total), 0);
    }

    #[test]
    fn sample_window_keeps_the_most_recent_samples() {
        let mut rec = LatencyRecorder::new(100.0).with_sample_window(3);
        assert_eq!(rec.sample_window(), 3);
        for ms in [10.0, 20.0, 30.0, 40.0, 50.0] {
            rec.record(Stage::Total, ms);
        }
        let stats = rec.stats(Stage::Total).unwrap();
        assert_eq!(stats.count, 3);
        assert_eq!(stats.p50_ms, 40.0, "oldest samples must be evicted");
        assert_eq!(stats.max_ms, 50.0);
    }
}
