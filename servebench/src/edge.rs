//! `edge_int8`: one patient on an edge box, int8 `.fplan`, batch 1, one
//! kernel thread.
//!
//! Each frame goes through `fuse_serve::Session` fusion and featurization,
//! then `fuse_edge::EdgeSession::infer` on the int8 artifact. This is the
//! relaxed int8 tier end to end — no float gemm, router or wire — and its
//! set-up is one checksum-bound artifact decode. The workload never holds
//! the float model: the float outputs it is checked against are computed
//! with the inputs, before set-up.

use std::time::{Duration, Instant};

use fuse_edge::EdgeSession;
use fuse_quant::compare::{compare, top1, CompareReport, Tolerance};
use fuse_radar::PointCloudFrame;
use fuse_serve::{Session, SessionConfig};

use crate::calib::Timeline;
use crate::inputs::{self, mix, reference_slot, Res, STREAM_LEN};
use crate::report::{frames_at_reference, ms, push_setup, Outcome};
use crate::trace::Probe;

/// Independent set-ups before and again after the timed phase; `setup_s`
/// is the median of all of them. The set-up is a ~2 ms decode, so many are
/// cheap.
const SETUPS_PER_SIDE: usize = 20;
const WARMUP_FRAMES: u64 = 2 * STREAM_LEN as u64;
/// Frames per host-speed window; the deadline is checked at window ends.
const WINDOW_FRAMES: u64 = 32;
/// Probe windows per group of the frame metrics: 1024 frames, about a
/// second.
const GROUP_WINDOWS: usize = 32;

pub struct Inputs {
    pub stream: Vec<PointCloudFrame>,
    pub fplan_int8: Vec<u8>,
    /// Float-plan outputs on the same features, see [`inputs::edge_reference`].
    pub expected: Vec<Vec<f32>>,
    /// The committed `serve_session_stream/int8` serving budget.
    pub budget: Tolerance,
}

pub fn prepare(seed: u64, budget: Tolerance) -> Res<Inputs> {
    let stream = inputs::session_stream(seed, 0);
    let artifacts = inputs::artifacts(inputs::mars_model(mix(seed, 1))?)?;
    let expected = inputs::edge_reference(&artifacts.fplan, &stream)?;
    Ok(Inputs { stream, fplan_int8: artifacts.fplan_int8, expected, budget })
}

/// From int8 `.fplan` bytes in memory to a session that accepts its first
/// frame.
fn setup(fplan_int8: &[u8]) -> Res<((EdgeSession, Session), f64)> {
    let start = Instant::now();
    let edge = EdgeSession::from_bytes(fplan_int8)?;
    let session = Session::new(SessionConfig::new(0));
    Ok(((edge, session), start.elapsed().as_secs_f64()))
}

/// Sets up `SETUPS_PER_SIDE` times and returns the last stack.
fn set_up(inp: &Inputs, times: &mut Vec<f64>, out: &mut Outcome) -> Res<(EdgeSession, Session)> {
    let mut deployed = None;
    for _ in 0..SETUPS_PER_SIDE {
        let (d, secs) = out.ops.count(setup(&inp.fplan_int8))?;
        times.push(secs);
        deployed = Some(d);
    }
    Ok(deployed.expect("at least one set-up"))
}

pub fn measure(inp: &Inputs, seconds: f64, mut probe: Probe, out: &mut Outcome) -> Res<()> {
    fuse_parallel::with_threads(1, || {
        let mut setups = Vec::with_capacity(2 * SETUPS_PER_SIDE);
        let (mut edge, mut session) = set_up(inp, &mut setups, out)?;
        if !edge.is_quantized() {
            out.fail_check("edge_int8: the artifact is not quantized".into());
        }
        let mut check = Agreement::default();
        for t in 0..WARMUP_FRAMES {
            frame(&mut edge, &mut session, inp, t, &mut probe, out, &mut check)?;
        }
        let mut timeline = Timeline::this_thread();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut t = WARMUP_FRAMES;
        loop {
            let latency = frame(&mut edge, &mut session, inp, t, &mut probe, out, &mut check)?;
            timeline.record(latency);
            t += 1;
            if t.is_multiple_of(WINDOW_FRAMES) {
                timeline.checkpoint();
                if Instant::now() >= deadline {
                    break;
                }
            }
        }
        let (raw, scaled, probe_s) = timeline.finish();
        drop((edge, session));
        set_up(inp, &mut setups, out)?;
        out.notes.push(format!(
            "edge_int8: {} frames; int8 vs float max |d| {:.3e}, max rel {:.3e} \
             (budget abs {}, rel {}); top-1 agreed on {} frames, near-tie flips {}",
            raw.latencies_ms.len(),
            check.worst.max_abs,
            check.worst.max_rel,
            inp.budget.max_abs,
            inp.budget.max_rel,
            check.agreed,
            check.near_ties
        ));
        push_setup(out, "edge_int8", &setups);
        frames_at_reference(out, "edge_int8", raw, scaled, probe_s, GROUP_WINDOWS);
        Ok(())
    })
}

/// One frame: fusion, featurization and int8 inference, returning its
/// latency in ms; the output is checked after the clock stops.
fn frame(
    edge: &mut EdgeSession,
    session: &mut Session,
    inp: &Inputs,
    t: u64,
    probe: &mut Probe,
    out: &mut Outcome,
    check: &mut Agreement,
) -> Res<f64> {
    let next = inp.stream[t as usize % STREAM_LEN].clone();
    let span = probe.begin("edge.frame", t);
    let start = Instant::now();
    let id = probe.begin("serve.push_frame", t);
    session.push_frame(next);
    probe.end(id);
    let id = probe.begin("serve.featurize_latest", t);
    let features = out.ops.count(session.featurize_latest())?;
    probe.end(id);
    let id = probe.begin("edge.infer", t);
    let joints = out.ops.count(edge.infer(features.as_slice(), 1))?;
    let done = Instant::now();
    probe.end(id);
    probe.end(span);
    let expected = &inp.expected[reference_slot(t)];
    match compare(expected, joints, &inp.budget) {
        Ok(report) => {
            check.worst.max_abs = check.worst.max_abs.max(report.max_abs);
            check.worst.max_rel = check.worst.max_rel.max(report.max_rel);
        }
        Err(e) => out.fail_check(format!("edge_int8 frame {t}: {e}")),
    }
    match (top1(expected), top1(joints)) {
        (Some(a), Some(b)) if a == b => check.agreed += 1,
        // The relaxed contract's top-1 rule: a flip is admitted only as a
        // genuine near-tie, where the float scores of the two competing
        // indices lie within the absolute budget of each other.
        (Some(a), Some(b)) if (expected[a] - expected[b]).abs() <= inp.budget.max_abs => {
            check.near_ties += 1
        }
        _ => out.fail_check(format!("edge_int8 frame {t}: top-1 differs from the float plan")),
    }
    Ok(ms(done - start))
}

/// Running comparison of the int8 outputs against the float plan.
#[derive(Default)]
struct Agreement {
    worst: CompareReport,
    agreed: u64,
    near_ties: u64,
}
