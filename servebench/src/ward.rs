//! `ward`: 32 not-yet-adapted patients on the default deployment.
//!
//! One in-process shard (`ClusterConfig::default()`) with `nproc` kernel
//! threads. Each closed-loop slot submits one frame per session and drains;
//! each session misses one slot in eight (sent as `ClusterRouter::tick`),
//! staggered so a slot holds 28 frames. This is the batched float path: fc1
//! dominates the micro-batch, beside per-frame fusion and featurization,
//! dropout ticks and the `fuse-parallel` pool — no wire, int8 or training.

use std::time::{Duration, Instant};

use fuse_cluster::{ClusterConfig, ClusterRouter, DrainReport, SessionConfig};
use fuse_nn::Checkpoint;
use fuse_radar::PointCloudFrame;

use crate::calib::Timeline;
use crate::inputs::{self, misses, mix, reference_slot, Res, STREAM_LEN};
use crate::report::{frames_at_reference, ms, push_setup, Outcome};
use crate::trace::Probe;

pub const SESSIONS: u64 = 32;
/// Frames per slot: every session but the ones missing it.
pub const BATCH: usize = (SESSIONS - SESSIONS / inputs::MISS_PERIOD) as usize;
/// Independent set-ups before and again after the timed phase; `setup_s`
/// is the median of all of them. Host speed states last seconds, so the
/// two groups sample the host at two times.
const SETUPS_PER_SIDE: usize = 6;
/// Untimed slots after set-up: the pool is spawned, the arena sized, the
/// first loop of the stream served.
const WARMUP_SLOTS: u64 = 2 * STREAM_LEN as u64;
/// Slots between host-speed probes.
const PROBE_EVERY: u64 = 4;
/// Probe windows per group of the frame metrics: 64 slots, about a second.
const GROUP_WINDOWS: usize = 16;

pub struct Inputs {
    pub streams: Vec<Vec<PointCloudFrame>>,
    pub fckp: Vec<u8>,
    /// Bare-engine replay outputs, see [`inputs::ward_reference`].
    pub expected: Vec<Vec<f32>>,
}

pub fn prepare(seed: u64) -> Res<Inputs> {
    let streams = inputs::streams(seed, SESSIONS);
    let model = inputs::mars_model(mix(seed, 1))?;
    let fckp = Checkpoint::capture(&model, "mars").to_binary();
    let expected = inputs::ward_reference(model, &streams)?;
    Ok(Inputs { streams, fckp, expected })
}

/// From FCKP bytes in memory to a router that accepts its first frame:
/// checkpoint decode, router build (plan compile, shard spawn), sessions
/// opened.
fn setup(fckp: &[u8]) -> Res<(ClusterRouter, f64)> {
    let start = Instant::now();
    let model = inputs::decode_model(fckp)?;
    let mut router = ClusterRouter::new(model, ClusterConfig::default())?;
    for s in 0..SESSIONS {
        router.open_session(SessionConfig::new(s))?;
    }
    Ok((router, start.elapsed().as_secs_f64()))
}

/// Sets up `SETUPS_PER_SIDE` times, shutting each router down before the
/// next, and returns the last one.
fn set_up(inp: &Inputs, times: &mut Vec<f64>, out: &mut Outcome) -> Res<ClusterRouter> {
    let mut router = None;
    for _ in 0..SETUPS_PER_SIDE {
        if let Some(previous) = router.take() {
            ClusterRouter::shutdown(previous);
        }
        let (r, secs) = out.ops.count(setup(&inp.fckp))?;
        times.push(secs);
        router = Some(r);
    }
    Ok(router.expect("at least one set-up"))
}

/// Runs set-up and `seconds` of closed-loop slots, pushing the end-to-end
/// metrics into `out`. With an active probe, every router call is a span and
/// the cluster counters are recorded.
pub fn measure(inp: &Inputs, seconds: f64, mut probe: Probe, out: &mut Outcome) -> Res<()> {
    let threads = crate::nproc();
    fuse_parallel::with_threads(threads, || {
        let mut setups = Vec::with_capacity(2 * SETUPS_PER_SIDE);
        let mut router = set_up(inp, &mut setups, out)?;
        let mut sent = Vec::with_capacity(SESSIONS as usize);
        for t in 0..WARMUP_SLOTS {
            slot(&mut router, inp, t, &mut sent, &mut probe, out)?;
        }
        let steps_before = steps(&mut router, &mut probe, out)?;
        let mut timeline = Timeline::each_cpu(threads);
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut t = WARMUP_SLOTS;
        while Instant::now() < deadline {
            let done = slot(&mut router, inp, t, &mut sent, &mut probe, out)?;
            for at in &sent {
                timeline.record(ms(done - *at));
            }
            t += 1;
            if t.is_multiple_of(PROBE_EVERY) {
                timeline.checkpoint();
            }
        }
        let slots = t - WARMUP_SLOTS;
        if let Some(before) = steps_before {
            let after = steps(&mut router, &mut probe, out)?.unwrap_or(before);
            let trace = probe.trace().expect("steps are read only when tracing");
            trace.count("cluster.steps_per_slot", (after - before) as f64 / slots as f64, "count");
        }
        router.shutdown();
        let (raw, scaled, probe_s) = timeline.finish();
        set_up(inp, &mut setups, out)?.shutdown();
        let frames = raw.latencies_ms.len() as u64;
        out.notes.push(format!(
            "ward: {slots} slots, {frames} frames, {} ticks, {threads} kernel threads",
            slots * SESSIONS - frames
        ));
        push_setup(out, "ward", &setups);
        frames_at_reference(out, "ward", raw, scaled, probe_s, GROUP_WINDOWS);
        Ok(())
    })
}

/// Shard steps so far (traced run only; `None` when untraced).
fn steps(router: &mut ClusterRouter, probe: &mut Probe, out: &mut Outcome) -> Res<Option<u64>> {
    if !probe.active() {
        return Ok(None);
    }
    let metrics = out.ops.count(router.metrics())?;
    Ok(Some(metrics.shards.iter().map(|s| s.steps).sum()))
}

/// One cadence slot: a submit or a dropout tick per session, then the drain
/// barrier. Leaves the submit instants in `sent` and returns when the
/// responses were in hand.
fn slot(
    router: &mut ClusterRouter,
    inp: &Inputs,
    t: u64,
    sent: &mut Vec<Instant>,
    probe: &mut Probe,
    out: &mut Outcome,
) -> Res<Instant> {
    sent.clear();
    let span = probe.begin("ward.slot", t);
    for s in 0..SESSIONS {
        if misses(t, s) {
            let id = probe.begin("cluster.tick", t);
            out.ops.count(router.tick(s))?;
            probe.end(id);
        } else {
            let frame = inp.streams[s as usize][t as usize % STREAM_LEN].clone();
            let id = probe.begin("cluster.submit", t);
            sent.push(Instant::now());
            out.ops.count(router.submit(s, frame))?;
            probe.end(id);
        }
    }
    if probe.active() && t.is_multiple_of(8) {
        let depth = out.ops.count(router.metrics())?.queue_depth();
        if let Some(trace) = probe.trace() {
            trace.count_max("cluster.queue_depth_max", depth as f64, "count");
        }
    }
    let id = probe.begin("cluster.drain", t);
    let report = out.ops.count(router.drain())?;
    let done = Instant::now();
    probe.end(id);
    probe.end(span);
    check(&report, inp, t, out);
    Ok(done)
}

/// Every non-missed session answers once, bit-identical to the bare-engine
/// replay of the same frames and ticks.
fn check(report: &DrainReport, inp: &Inputs, t: u64, out: &mut Outcome) {
    let expected_sessions: Vec<u64> = (0..SESSIONS).filter(|&s| !misses(t, s)).collect();
    let got: Vec<u64> = report.responses.iter().map(|r| r.session_id).collect();
    if got != expected_sessions || !report.dropped.is_empty() || !report.merged.is_empty() {
        out.fail_check(format!("ward slot {t}: answered sessions {got:?}"));
        return;
    }
    let base = reference_slot(t) * SESSIONS as usize;
    for r in &report.responses {
        if !bit_identical(&r.joints, &inp.expected[base + r.session_id as usize]) {
            out.fail_check(format!(
                "ward slot {t} session {}: response differs from the bare-engine replay",
                r.session_id
            ));
        }
    }
}

pub fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
