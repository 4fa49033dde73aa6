//! Host-speed calibration: frame times at a reference host speed.
//!
//! Each vCPU of the benchmark host switches between speed states about 1.8×
//! apart that last from seconds to longer than a run, and the two vCPUs
//! switch independently. Raw frame times of two runs of the same code
//! therefore differ by up to that factor (`edge_int8`'s raw p50 is 0.71 or
//! 1.22 ms from run to run). The timed phases interleave a fixed probe — a
//! small scalar f32 matrix product, code that belongs to this benchmark and
//! never changes with the library — and report frame times scaled by
//! `REFERENCE_PROBE_S / probe time`: what the frames take on a host whose
//! probe takes `REFERENCE_PROBE_S`. Of the kernels tried (checksum chain,
//! int8 dot products, vector sums, memory streams, pointer chasing) the
//! matrix product tracked the slow states best. Raw values are printed
//! beside the scaled ones.
//!
//! Probes run while the workload is idle, between closed-loop slots or
//! frames, and each window of frames between two probes is scaled by the
//! median of the probes around it, which follows state changes within a
//! run. Where the probes run depends on where the work runs:
//!
//! * the calling thread, when the frame path runs on it (`edge_int8`);
//! * one probe thread pinned to each vCPU, run one after another, when the
//!   work runs on shard, pool and host threads spread over both vCPUs
//!   (`ward`, `fleet_ops`): a slot waits for the slower vCPU, so the window
//!   takes the slower vCPU's probe. Probing from an unpinned second thread
//!   was tried and tracked worse, because both probe threads sometimes
//!   landed on one vCPU.
//!
//! Set-up times are not scaled: their decode and checksum work does not slow
//! down with the probe, and scaling them was measured to add noise.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::report::{median, Series};

/// The probe time of the reference host: about this machine's most common
/// state.
pub const REFERENCE_PROBE_S: f64 = 130e-6;

const MATMUL_N: usize = 32;
const REPEATS: usize = 12;

/// Probes on each side of a window whose median sets the window's speed:
/// enough to ride out a probe hit by an interrupt, few enough to follow
/// speed states that last a second or more.
const SMOOTH_PROBES: usize = 3;

/// The probe's operands, allocated once per probing thread.
struct Probe {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Probe {
    fn new() -> Self {
        let n2 = MATMUL_N * MATMUL_N;
        Probe {
            a: (0..n2).map(|i| (i % 7) as f32 * 0.25).collect(),
            b: (0..n2).map(|i| (i % 5) as f32 * 0.5).collect(),
            c: vec![0.0; n2],
        }
    }

    /// Seconds the fixed probe takes on this thread now.
    fn run(&mut self) -> f64 {
        let n = MATMUL_N;
        let a = black_box(&self.a);
        let b = black_box(&self.b);
        let start = Instant::now();
        for _ in 0..REPEATS {
            for i in 0..n {
                let row = &a[i * n..(i + 1) * n];
                let out = &mut self.c[i * n..(i + 1) * n];
                out.fill(0.0);
                for (k, &x) in row.iter().enumerate() {
                    let b_row = &b[k * n..(k + 1) * n];
                    for (o, &y) in out.iter_mut().zip(b_row) {
                        *o += x * y;
                    }
                }
            }
            black_box(&self.c);
        }
        start.elapsed().as_secs_f64()
    }
}

type Helper = (Sender<()>, Receiver<f64>, JoinHandle<()>);

/// Where the probes run.
enum Source {
    /// On the calling thread.
    ThisThread(Probe),
    /// On one thread pinned to each vCPU, in turn; yields the slowest.
    EachCpu(Vec<Helper>),
}

impl Source {
    fn each_cpu(cpus: usize) -> Self {
        let helpers = (0..cpus)
            .map(|cpu| {
                let (go_tx, go_rx) = channel::<()>();
                let (time_tx, time_rx) = channel::<f64>();
                let handle = std::thread::Builder::new()
                    .name(format!("servebench-probe-{cpu}"))
                    .spawn(move || {
                        // Unpinned, the helper still probes whichever vCPU
                        // it lands on; the scaling is then only coarser.
                        pin_to(cpu);
                        let mut probe = Probe::new();
                        while go_rx.recv().is_ok() {
                            if time_tx.send(probe.run()).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawning a probe thread");
                (go_tx, time_rx, handle)
            })
            .collect();
        Source::EachCpu(helpers)
    }

    fn sample(&mut self) -> f64 {
        match self {
            Source::ThisThread(probe) => probe.run(),
            Source::EachCpu(helpers) => helpers
                .iter()
                .filter_map(|(go, time, _)| go.send(()).ok().and_then(|()| time.recv().ok()))
                .fold(0.0, f64::max),
        }
    }
}

impl Drop for Source {
    fn drop(&mut self) {
        if let Source::EachCpu(helpers) = self {
            for (go, time, handle) in helpers.drain(..) {
                drop(go);
                drop(time);
                let _ = handle.join();
            }
        }
    }
}

/// Collects latencies in windows separated by probes and scales each window
/// by the host speed the probes around it saw.
pub struct Timeline {
    source: Source,
    /// `probes[i]` was taken just before window `i` opened.
    probes: Vec<f64>,
    /// `(latency range, wall seconds)` of each closed window.
    windows: Vec<(std::ops::Range<usize>, f64)>,
    window_start: Instant,
    window_from: usize,
    raw: Vec<f64>,
}

impl Timeline {
    /// Probes on the calling thread.
    pub fn this_thread() -> Self {
        Self::start(Source::ThisThread(Probe::new()))
    }

    /// Probes every vCPU from a pinned thread each.
    pub fn each_cpu(cpus: usize) -> Self {
        Self::start(Source::each_cpu(cpus))
    }

    fn start(mut source: Source) -> Self {
        let first = source.sample();
        Timeline {
            source,
            probes: vec![first],
            windows: Vec::new(),
            window_start: Instant::now(),
            window_from: 0,
            raw: Vec::new(),
        }
    }

    pub fn record(&mut self, latency_ms: f64) {
        self.raw.push(latency_ms);
    }

    /// Closes the current window and probes; the next window opens after
    /// the probe, so probe time counts in no window.
    pub fn checkpoint(&mut self) {
        let wall = self.window_start.elapsed().as_secs_f64();
        self.windows.push((self.window_from..self.raw.len(), wall));
        self.probes.push(self.source.sample());
        self.window_from = self.raw.len();
        self.window_start = Instant::now();
    }

    /// Closes the last window; returns the raw and the scaled series and
    /// the median probe time.
    pub fn finish(mut self) -> (Series, Series, f64) {
        self.checkpoint();
        let mut raw = Series::default();
        let mut scaled = Series::default();
        for (i, (range, wall)) in self.windows.iter().enumerate() {
            let lo = (i + 1).saturating_sub(SMOOTH_PROBES);
            let hi = (i + 1 + SMOOTH_PROBES).min(self.probes.len());
            let factor = REFERENCE_PROBE_S / median(&mut self.probes[lo..hi].to_vec());
            scaled.latencies_ms.extend(self.raw[range.clone()].iter().map(|l| l * factor));
            raw.windows.push((range.len(), *wall));
            scaled.windows.push((range.len(), wall * factor));
        }
        raw.latencies_ms = std::mem::take(&mut self.raw);
        (raw, scaled, median(&mut self.probes))
    }
}

/// Pins the calling thread to one vCPU; returns whether the kernel accepted.
#[cfg(target_os = "linux")]
fn pin_to(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread, and `mask` is a live,
    // initialised cpu set of exactly `size_of_val(&mask)` bytes for the whole
    // call; the kernel only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_to(_cpu: usize) -> bool {
    false
}
