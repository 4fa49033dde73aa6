//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself around the calls it makes into
//! each layer's public functions; the library is not instrumented. A span has
//! a name, a start and end (ns since the tracer was created), the span that
//! was open when it began (its parent) and a request id shared by the spans
//! of one request (a frame slot, a swap, a replayed call). Spans stay in
//! memory until the run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Payload bytes the call moved, for spans that report a rate.
    pub bytes: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 16), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request, bytes: 0 });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in reverse order of opening");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Records the payload size of span `id`.
    pub fn set_bytes(&mut self, id: usize, bytes: usize) {
        self.spans[id].bytes = bytes as u64;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in ns: its duration minus the time its
    /// direct children cover. Children run on the same thread inside their
    /// parent, so they never overlap one another.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// `(self time in ns, payload bytes)` of every span, grouped by name.
    pub fn by_name(&self) -> BTreeMap<&'static str, Vec<(f64, u64)>> {
        let mut by_name: BTreeMap<&'static str, Vec<(f64, u64)>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            by_name.entry(span.name).or_default().push((self_ns as f64, span.bytes));
        }
        by_name
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_times_ns();
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}, \"bytes\": {}, \"self_ns\": {own}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.bytes
            );
        }
        std::fs::write(path, out)
    }
}

/// A traced run's record: the spans plus the counts measured at the same
/// layer boundaries (queue depths, steps, bytes per message, ...).
#[derive(Debug)]
pub struct Trace {
    pub tracer: Tracer,
    pub counters: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Trace {
    pub fn new() -> Self {
        Trace { tracer: Tracer::new(), counters: BTreeMap::new() }
    }

    pub fn count(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.counters.insert(name, (value, unit));
    }

    /// Raises counter `name` to `value` if `value` is larger.
    pub fn count_max(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let entry = self.counters.entry(name).or_insert((value, unit));
        entry.0 = entry.0.max(value);
    }
}

/// The tracing hook a workload loop carries: a no-op (no clock reads, no
/// allocation) in the untraced run, a span recorder in the traced one.
pub struct Probe<'a>(pub Option<&'a mut Trace>);

impl Probe<'_> {
    pub fn active(&self) -> bool {
        self.0.is_some()
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> Option<usize> {
        self.0.as_deref_mut().map(|t| t.tracer.begin(name, request))
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let (Some(t), Some(id)) = (self.0.as_deref_mut(), id) {
            t.tracer.end(id);
        }
    }

    pub fn trace(&mut self) -> Option<&mut Trace> {
        self.0.as_deref_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 1);
        let mid = t.begin("mid", 1);
        t.span("leaf", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.end(mid);
        t.end(outer);
        let own = t.self_times_ns();
        let dur = |i: usize| t.spans()[i].end_ns - t.spans()[i].start_ns;
        assert_eq!(own[2], dur(2));
        assert_eq!(own[1], dur(1) - dur(2));
        assert_eq!(own[0], dur(0) - dur(1));
        assert_eq!(t.spans()[2].parent, Some(1));
    }
}
