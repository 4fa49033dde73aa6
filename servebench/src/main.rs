//! `servebench`: the FUSE serving benchmark.
//!
//! ```text
//! servebench --workload <ward|edge_int8|fleet_ops> --seed <n> --seconds <s>
//!            --trace <0|1> --out <dir>
//! ```
//!
//! Inputs are generated from the seed before any set-up. With `--trace 0`
//! the workload runs untraced for `--seconds` and the end-to-end metrics are
//! printed; with `--trace 1` it runs untraced and then traced for half the
//! time each, the per-layer replays follow, the spans are written to
//! `<out>/trace-<workload>-seed<n>.jsonl`, and the per-layer metrics and the
//! tracing overhead are printed. The last line of standard output is the
//! JSON result; any failed call or output check makes the exit code 1. See
//! `README.md` beside this crate for the metrics and why each workload
//! exists.

mod calib;
mod edge;
mod fleet;
mod inputs;
mod layers;
mod report;
mod trace;
mod ward;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fuse_quant::compare::Tolerance;
use serde::Deserialize;

use crate::inputs::{mix, Res};
use crate::report::Outcome;
use crate::trace::{Probe, Trace};

/// The committed relaxed-tier budget file, relative to the repository root.
const BUDGETS: &str = "tests/goldens/relaxed_budgets.json";
const INT8_BUDGET: &str = "serve_session_stream/int8";

/// Kernel threads the machine offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    if !["ward", "edge_int8", "fleet_ops"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        out: PathBuf::from(get("--out")?),
    })
}

#[derive(Deserialize)]
struct BudgetSpec {
    max_ulp: u64,
    max_abs: f32,
    max_rel: f32,
}

fn int8_budget() -> Res<Tolerance> {
    let raw = std::fs::read_to_string(BUDGETS).map_err(|e| format!("{BUDGETS}: {e}"))?;
    let budgets: HashMap<String, BudgetSpec> = serde_json::from_str(&raw)?;
    let spec = budgets.get(INT8_BUDGET).ok_or(format!("{BUDGETS} has no {INT8_BUDGET}"))?;
    Ok(Tolerance { max_ulp: spec.max_ulp, max_abs: spec.max_abs, max_rel: spec.max_rel })
}

/// Artifacts only the traced run's layer replays need.
struct Extra {
    model: fuse_nn::Sequential,
    artifacts: inputs::Artifacts,
    finetune: fuse_dataset::EncodedDataset,
}

impl Extra {
    fn generate(seed: u64) -> Res<Extra> {
        let artifacts = inputs::artifacts(inputs::mars_model(mix(seed, 1))?)?;
        Ok(Extra {
            model: inputs::decode_model(&artifacts.fckp)?,
            artifacts,
            finetune: inputs::finetune_set(seed)?,
        })
    }

    fn ctx<'a>(&'a self, streams: &'a [Vec<fuse_radar::PointCloudFrame>]) -> layers::Ctx<'a> {
        layers::Ctx {
            streams,
            sessions: vec![0],
            misses: false,
            adapted: false,
            threads: 1,
            batch: 1,
            model: &self.model,
            fckp: &self.artifacts.fckp,
            fplan: &self.artifacts.fplan,
            fplan_int8: &self.artifacts.fplan_int8,
            decodes_int8: false,
            finetune: &self.finetune,
            routed: true,
            edge_infers: false,
        }
    }
}

/// Runs one workload: untraced for the end-to-end metrics, or untraced and
/// traced halves plus the layer replays for the per-layer metrics.
fn drive(
    args: &Args,
    measure: impl Fn(f64, Probe, &mut Outcome) -> Res<()>,
    replay: impl FnOnce(&mut Trace) -> Res<()>,
    routed: bool,
    batch: usize,
) -> Outcome {
    let mut out = Outcome::default();
    if !args.trace {
        report::reset_peak_rss();
        if let Err(e) = measure(args.seconds, Probe(None), &mut out) {
            out.fail_check(format!("{}: {e}", args.workload));
        }
        out.metrics.push(report::rss_metric());
        return out;
    }
    let half = args.seconds / 2.0;
    let mut untraced = Outcome::default();
    let mut trace = Trace::new();
    let result = measure(half, Probe(None), &mut untraced)
        .and_then(|()| measure(half, Probe(Some(&mut trace)), &mut out));
    if routed {
        trace.count("cluster.ops_attempted", out.ops.attempted as f64, "count");
        trace.count("cluster.ops_failed", out.ops.failed as f64, "count");
    }
    let result = result.and_then(|()| replay(&mut trace));
    out.ops.attempted += untraced.ops.attempted;
    out.ops.failed += untraced.ops.failed;
    out.check_failures.append(&mut untraced.check_failures);
    if let Err(e) = result {
        out.fail_check(format!("{}: {e}", args.workload));
    }
    for m in &untraced.metrics {
        if let Some(t) = out.metric(&m.name) {
            out.notes.push(format!(
                "tracing overhead {}: {:+.4} {} (traced {:.4}, untraced {:.4}, n={}/{})",
                m.name,
                t.value - m.value,
                m.unit,
                t.value,
                m.value,
                t.samples,
                m.samples
            ));
        }
    }
    for (name, (p50_us, n)) in layers::self_time_table(&trace) {
        out.notes.push(format!("self time {name}: p50 {p50_us:.1} us (n={n})"));
    }
    let path = args.out.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    match trace.tracer.write_jsonl(&path) {
        Ok(()) => out.notes.push(format!("spans written to {}", path.display())),
        Err(e) => out.fail_check(format!("writing {}: {e}", path.display())),
    }
    out.metrics = layers::metrics(&trace, batch);
    out
}

fn run(args: &Args, work: &Path) -> Res<Outcome> {
    let seed = args.seed;
    let extra = if args.trace { Some(Extra::generate(seed)?) } else { None };
    Ok(match args.workload.as_str() {
        "ward" => {
            let inp = ward::prepare(seed)?;
            let replay = |trace: &mut Trace| {
                let extra = extra.as_ref().expect("traced");
                let ctx = layers::Ctx {
                    sessions: (0..ward::SESSIONS).collect(),
                    misses: true,
                    threads: nproc(),
                    batch: ward::BATCH,
                    ..extra.ctx(&inp.streams)
                };
                layers::replay(&ctx, trace)
            };
            drive(args, |s, p, o| ward::measure(&inp, s, p, o), replay, true, ward::BATCH)
        }
        "edge_int8" => {
            let inp = edge::prepare(seed, int8_budget()?)?;
            let streams = vec![inp.stream.clone()];
            let replay = |trace: &mut Trace| {
                let extra = extra.as_ref().expect("traced");
                let ctx = layers::Ctx {
                    decodes_int8: true,
                    routed: false,
                    edge_infers: true,
                    ..extra.ctx(&streams)
                };
                layers::replay(&ctx, trace)
            };
            drive(args, |s, p, o| edge::measure(&inp, s, p, o), replay, false, 1)
        }
        _ => {
            let inp = fleet::prepare(seed, work)?;
            let replay = |trace: &mut Trace| {
                let extra = extra.as_ref().expect("traced");
                let ctx = layers::Ctx {
                    sessions: (0..fleet::SESSIONS).step_by(2).collect(),
                    adapted: true,
                    ..extra.ctx(&inp.streams)
                };
                layers::replay(&ctx, trace)
            };
            drive(args, |s, p, o| fleet::measure(&inp, s, p, o), replay, true, 1)
        }
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = args.out.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("servebench: creating {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("servebench: preparing inputs: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        let printed_only = if m.in_result { "" } else { ", printed only" };
        println!("metric {} = {:.6} {} (n={}{printed_only})", m.name, m.value, m.unit, m.samples);
    }
    println!("operations attempted {}, failed {}", outcome.ops.attempted, outcome.ops.failed);
    for failure in &outcome.check_failures {
        eprintln!("check failed: {failure}");
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
