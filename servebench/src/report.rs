//! Sample statistics, memory gauges and the result line the benchmark prints.

use std::fmt::Write as _;
use std::time::Duration;

/// One named metric as the benchmark reports it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a single gauge).
    pub samples: usize,
    /// Whether the metric is in the result line; the others are printed
    /// only.
    pub in_result: bool,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric { name: name.into(), value, unit, samples, in_result: true }
    }

    /// A metric that is printed but kept out of the result line.
    pub fn printed(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric { in_result: false, ..Metric::new(name, value, unit, samples) }
    }
}

/// Operations attempted against the system under test, and those that
/// returned an error or failed an output check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one call and passes its result through, counting an `Err` as a
    /// failure.
    pub fn count<T, E>(&mut self, result: Result<T, E>) -> Result<T, E> {
        self.attempted += 1;
        if result.is_err() {
            self.failed += 1;
        }
        result
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub ops: Ops,
    /// Output-check failures, each described in one line.
    pub check_failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail_check(&mut self, what: String) {
        if self.check_failures.len() < 16 {
            self.check_failures.push(what);
        }
        self.ops.failed += 1;
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.ops.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The last line of standard output: the machine-readable result.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.ops.attempted.max(1),
            self.ops.failed
        );
        for (i, m) in self.metrics.iter().filter(|m| m.in_result).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with all its digits (non-finite values become 0 so
/// the line always parses; the checks reject such runs anyway).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// The `q`-quantile (0..=1) of a sample, interpolating linearly between the
/// two nearest order statistics. Sorts `samples` in place.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Resets the kernel's peak-resident-set counter to the current resident set,
/// so the peak read later covers only what ran after this call. Returns
/// whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Frame latencies, and the frames answered and wall seconds of each
/// host-speed window between two probes, in order.
#[derive(Debug, Default)]
pub struct Series {
    pub latencies_ms: Vec<f64>,
    pub windows: Vec<(usize, f64)>,
}

impl Series {
    /// Per run of `group` consecutive windows (a trailing partial run is
    /// left out): the median frame latency, and the frames answered per
    /// second.
    fn groups(&self, group: usize) -> (Vec<f64>, Vec<f64>) {
        let mut medians = Vec::new();
        let mut rates = Vec::new();
        let mut from = 0;
        for g in self.windows.chunks_exact(group) {
            let frames: usize = g.iter().map(|w| w.0).sum();
            let wall: f64 = g.iter().map(|w| w.1).sum();
            medians.push(median(&mut self.latencies_ms[from..from + frames].to_vec()));
            rates.push(frames as f64 / wall);
            from += frames;
        }
        (medians, rates)
    }
}

/// Frame statistics of one timed phase, cut into groups of about a second.
struct FrameStats {
    frames: usize,
    groups: usize,
    /// The lower quartile of the groups' median latencies.
    p50_ms: f64,
    /// Over the whole phase; only when at least ten frames lie beyond it.
    p99_ms: Option<f64>,
    /// The upper quartile of the groups' frame rates.
    frames_per_s: f64,
}

impl FrameStats {
    fn of(series: &mut Series, group: usize) -> Self {
        let (mut medians, mut rates) = series.groups(group);
        let latencies = &mut series.latencies_ms;
        let frames = latencies.len();
        FrameStats {
            frames,
            groups: rates.len(),
            p50_ms: quantile(&mut medians, 0.25),
            p99_ms: (frames >= 1000).then(|| quantile(latencies, 0.99)),
            frames_per_s: quantile(&mut rates, 0.75),
        }
    }
}

/// Pushes the host-speed-scaled frame metrics (see `calib`) and notes the
/// raw ones beside them. The timed phase is cut into groups of `group`
/// probe windows, each about a second long. `frame_p50_ms` is the lower
/// quartile of the groups' median latencies and `frames_per_s` the upper
/// quartile of their frame rates: stalls of the shared host slow whole
/// seconds, and the quartile keeps a run's value from depending on how many
/// of its seconds they hit. `frame_p99_ms`, over all frames, is printed but
/// kept out of the result line, because isolated stalls move it from run to
/// run by more than any bound the benchmark could keep (see README.md).
pub fn frames_at_reference(
    out: &mut Outcome,
    workload: &str,
    mut raw: Series,
    mut scaled: Series,
    probe_s: f64,
    group: usize,
) {
    let r = FrameStats::of(&mut raw, group);
    let s = FrameStats::of(&mut scaled, group);
    let (n, groups) = (s.frames, s.groups);
    if groups == 0 {
        out.fail_check(format!(
            "{workload}: the timed phase held no complete group of {group} probe windows"
        ));
    }
    let mut pairs = vec![(Metric::new("frame_p50_ms", s.p50_ms, "ms", n), r.p50_ms)];
    if let (Some(p99), Some(raw_p99)) = (s.p99_ms, r.p99_ms) {
        pairs.push((Metric::printed("frame_p99_ms", p99, "ms", n), raw_p99));
    }
    pairs.push((Metric::new("frames_per_s", s.frames_per_s, "1/s", n), r.frames_per_s));
    for (m, raw_value) in pairs {
        out.notes.push(format!(
            "{workload} {}: {:.6} {} at the reference host speed, {raw_value:.6} raw (n={})",
            m.name, m.value, m.unit, m.samples
        ));
        out.metrics.push(m);
    }
    out.notes.push(format!("{workload}: {n} frames in {groups} groups of {group} probe windows"));
    out.notes.push(format!(
        "{workload} host probe: median {:.1} us, reference {:.1} us",
        probe_s * 1e6,
        crate::calib::REFERENCE_PROBE_S * 1e6
    ));
}

/// Pushes the set-up metric, the median of several independent set-ups,
/// and notes their range.
pub fn push_setup(out: &mut Outcome, workload: &str, setups_s: &[f64]) {
    let mut v = setups_s.to_vec();
    let mid = median(&mut v);
    out.notes.push(format!(
        "{workload} setup_s: median {mid:.6} s of {} set-ups (half before, half after the \
         timed phase), min {:.6}, max {:.6}",
        v.len(),
        v[0],
        v[v.len() - 1]
    ));
    out.metrics.push(Metric::new("setup_s", mid, "s", v.len()));
}

pub fn rss_metric() -> Metric {
    Metric::new("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN), "MiB", 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.ops.attempted = 3;
        o.metrics.push(Metric::new("setup_s", 0.25, "s", 5));
        o.metrics.push(Metric::printed("frame_p99_ms", 9.5, "ms", 5));
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
