//! `fleet_ops`: the operator's control plane through a remote host.
//!
//! A 2-shard router holds one `ShardSpec::Local` and one `HostShard` behind
//! a single loopback `TcpTransport`, serving 8 sessions with one kernel
//! thread per shard. An untimed warm-up first adapts every session once, so
//! frames run through batch-1 private plans. Each timed cycle then streams
//! 10 slots and runs, in this order: a `.fplan` fan-out `hot_swap_plan`, an
//! FCKP `hot_swap`, `adapt_session` on one session with the fixed few-shot
//! set, `migrate_session` of that session to the other shard, and a
//! `metrics()` poll. This pushes multi-MB payloads through `net` framing and
//! checksums, the `graph` and `nn` codecs and training in `core`, beside the
//! small per-frame messages on the same wire.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fuse_cluster::{
    ClusterConfig, ClusterRouter, DrainReport, HostShard, SessionConfig, ShardSpec,
};
use fuse_core::FineTuneConfig;
use fuse_dataset::EncodedDataset;
use fuse_net::{TcpTransport, Transport};
use fuse_nn::Checkpoint;
use fuse_radar::PointCloudFrame;

use crate::calib::Timeline;
use crate::inputs::{self, mix, Res, STREAM_LEN};
use crate::report::{frames_at_reference, median, ms, push_setup, Outcome};
use crate::trace::Probe;

pub const SESSIONS: u64 = 8;
const SHARDS: usize = 2;
const SLOTS_PER_CYCLE: u64 = 10;
/// Independent set-ups before and again after the timed phase; `setup_s`
/// is the median of all of them.
const SETUPS_PER_SIDE: usize = 5;
/// Probe windows per group of the frame metrics: three cycles, each a
/// window of slots and one of control-plane calls, about a second.
const GROUP_WINDOWS: usize = 6;

/// The few-shot adaptation every `adapt_session` runs: one epoch over the
/// 32-frame set.
pub fn finetune_config() -> FineTuneConfig {
    FineTuneConfig { epochs: 1, batch_size: 16, ..FineTuneConfig::default() }
}

pub struct Inputs {
    pub streams: Vec<Vec<PointCloudFrame>>,
    /// FCKP of the model every shard starts from (and that `hot_swap`
    /// ships back each cycle).
    pub fckp: Arc<Vec<u8>>,
    pub fckp_path: PathBuf,
    /// Float `.fplan` of a second model, shipped by `hot_swap_plan`.
    pub fplan_path: PathBuf,
    pub finetune: EncodedDataset,
}

pub fn prepare(seed: u64, work: &Path) -> Res<Inputs> {
    let streams = inputs::streams(seed, SESSIONS);
    let fckp = Checkpoint::capture(&inputs::mars_model(mix(seed, 1))?, "mars").to_binary();
    let swap = inputs::artifacts(inputs::mars_model(mix(seed, 2))?)?;
    Ok(Inputs {
        streams,
        fckp_path: inputs::write_payload(work, "fleet-a.fckp", &fckp)?,
        fplan_path: inputs::write_payload(work, "fleet-b.fplan", &swap.fplan)?,
        fckp: Arc::new(fckp),
        finetune: inputs::finetune_set(seed)?,
    })
}

fn config() -> ClusterConfig {
    ClusterConfig { shards: SHARDS, ..ClusterConfig::default() }
}

struct Deployment {
    router: ClusterRouter,
    host: JoinHandle<Result<(), String>>,
}

impl Deployment {
    fn shutdown(self) -> Res<()> {
        self.router.shutdown();
        self.host.join().map_err(|_| "host shard panicked")??;
        Ok(())
    }
}

/// From FCKP bytes in memory to a router that accepts its first frame: host
/// shard build, TCP connect, router build (local shard plan compile, remote
/// translation thread) and sessions opened.
fn setup(fckp: &Arc<Vec<u8>>) -> Res<(Deployment, f64)> {
    let start = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let host_fckp = Arc::clone(fckp);
    let host = std::thread::Builder::new().name("servebench-host".into()).spawn(move || {
        fuse_parallel::with_threads(1, || {
            let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
            let model = inputs::decode_model(&host_fckp).map_err(|e| e.to_string())?;
            HostShard::new(model, config())
                .and_then(|host| host.serve(TcpTransport::from_stream(stream)))
                .map_err(|e| e.to_string())
        })
    })?;
    let transport: Box<dyn Transport> = Box::new(TcpTransport::connect(addr)?);
    let model = inputs::decode_model(fckp)?;
    let specs = vec![ShardSpec::Local, ShardSpec::Remote(transport)];
    let mut router = ClusterRouter::with_shards(model, config(), specs)?;
    for s in 0..SESSIONS {
        router.open_session(SessionConfig::new(s))?;
    }
    Ok((Deployment { router, host }, start.elapsed().as_secs_f64()))
}

/// Per-operation latencies of the control plane, in ms.
#[derive(Default)]
struct OpTimes {
    swap: Vec<f64>,
    ckpt_swap: Vec<f64>,
    adapt: Vec<f64>,
    migrate: Vec<f64>,
}

/// Sets up `SETUPS_PER_SIDE` times, shutting each deployment down before
/// the next, and returns the last one.
fn set_up(inp: &Inputs, times: &mut Vec<f64>, out: &mut Outcome) -> Res<Deployment> {
    let mut deployed: Option<Deployment> = None;
    for _ in 0..SETUPS_PER_SIDE {
        if let Some(previous) = deployed.take() {
            previous.shutdown()?;
        }
        let (d, secs) = out.ops.count(setup(&inp.fckp))?;
        times.push(secs);
        deployed = Some(d);
    }
    Ok(deployed.expect("at least one set-up"))
}

pub fn measure(inp: &Inputs, seconds: f64, mut probe: Probe, out: &mut Outcome) -> Res<()> {
    fuse_parallel::with_threads(1, || {
        let mut setups = Vec::with_capacity(2 * SETUPS_PER_SIDE);
        let mut deployment = set_up(inp, &mut setups, out)?;
        let router = &mut deployment.router;
        let config = finetune_config();
        for s in 0..SESSIONS {
            out.ops.count(router.adapt_session(s, &inp.finetune, &config))?;
        }
        let mut version = out.ops.count(router.metrics())?.shards[0].model_version;
        let mut t = 0u64;
        let mut ops = OpTimes::default();
        let mut sent = Vec::with_capacity(SESSIONS as usize);
        // One untimed cycle: every payload has crossed the wire once and
        // every plan shape has been compiled before the clock starts.
        let mut cycle = 0u64;
        let mut warmup_ops = OpTimes::default();
        let ctx =
            &mut Cycle { inp, router, probe: &mut probe, out: &mut *out, version: &mut version };
        ctx.run(cycle, &mut t, &mut sent, None, &mut warmup_ops, &config)?;
        cycle += 1;
        let steps_before = ctx.steps()?;
        let mut timeline = Timeline::each_cpu(crate::nproc());
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            ctx.run(cycle, &mut t, &mut sent, Some(&mut timeline), &mut ops, &config)?;
            cycle += 1;
        }
        let cycles = cycle - 1;
        if let Some(before) = steps_before {
            let after = ctx.steps()?.unwrap_or(before);
            let per_slot = (after - before) as f64 / (cycles * SLOTS_PER_CYCLE) as f64;
            if let Some(trace) = ctx.probe.trace() {
                trace.count("cluster.steps_per_slot", per_slot, "count");
            }
        }
        deployment.shutdown()?;
        let (raw, scaled, probe_s) = timeline.finish();
        set_up(inp, &mut setups, out)?.shutdown()?;
        let mut line = format!("fleet_ops: {cycles} cycles, {} frames;", raw.latencies_ms.len());
        for (name, samples) in [
            ("swap_p50_ms", &mut ops.swap),
            ("ckpt_swap_p50_ms", &mut ops.ckpt_swap),
            ("migrate_p50_ms", &mut ops.migrate),
            ("adapt_p50_ms", &mut ops.adapt),
        ] {
            let n = samples.len();
            line.push_str(&format!(" {name} {:.3} ms raw (n={n})", median(samples)));
        }
        out.notes.push(line);
        push_setup(out, "fleet_ops", &setups);
        frames_at_reference(out, "fleet_ops", raw, scaled, probe_s, GROUP_WINDOWS);
        Ok(())
    })
}

struct Cycle<'a, 'p> {
    inp: &'a Inputs,
    router: &'a mut ClusterRouter,
    probe: &'a mut Probe<'p>,
    out: &'a mut Outcome,
    /// The model version every shard serves.
    version: &'a mut u64,
}

impl Cycle<'_, '_> {
    /// Shard steps so far (traced run only).
    fn steps(&mut self) -> Res<Option<u64>> {
        if !self.probe.active() {
            return Ok(None);
        }
        let metrics = self.out.ops.count(self.router.metrics())?;
        Ok(Some(metrics.shards.iter().map(|s| s.steps).sum()))
    }

    /// Times one control-plane call under a span.
    fn op<T, E>(
        &mut self,
        name: &'static str,
        request: u64,
        samples: &mut Vec<f64>,
        call: impl FnOnce(&mut ClusterRouter) -> Result<T, E>,
    ) -> Result<T, E> {
        let id = self.probe.begin(name, request);
        let start = Instant::now();
        let result = self.out.ops.count(call(self.router));
        samples.push(ms(start.elapsed()));
        self.probe.end(id);
        result
    }

    fn run(
        &mut self,
        cycle: u64,
        t: &mut u64,
        sent: &mut Vec<Instant>,
        mut timeline: Option<&mut Timeline>,
        ops: &mut OpTimes,
        config: &FineTuneConfig,
    ) -> Res<()> {
        let span = self.probe.begin("fleet.cycle", cycle);
        for k in 0..SLOTS_PER_CYCLE {
            let done = self.slot(*t, k == 0, sent)?;
            if let Some(timeline) = timeline.as_deref_mut() {
                for at in sent.iter() {
                    timeline.record(ms(done - *at));
                }
            }
            *t += 1;
        }
        // The slots and the control-plane calls are separate host-speed
        // windows: the calls add wall time but no frame latencies.
        if let Some(timeline) = timeline.as_deref_mut() {
            timeline.checkpoint();
        }
        let inp = self.inp;
        let report = self.op("cluster.hot_swap_plan", cycle, &mut ops.swap, |r| {
            r.hot_swap_plan(&inp.fplan_path)
        })?;
        self.check_version(report.version, "hot_swap_plan");
        let report =
            self.op("cluster.hot_swap", cycle, &mut ops.ckpt_swap, |r| r.hot_swap(&inp.fckp_path))?;
        self.check_version(report.version, "hot_swap");
        let victim = cycle % SESSIONS;
        self.op("cluster.adapt_session", cycle, &mut ops.adapt, |r| {
            r.adapt_session(victim, &inp.finetune, config)
        })?;
        let from = self.router.shard_of(victim);
        let target = (from + 1) % SHARDS;
        self.op("cluster.migrate_session", cycle, &mut ops.migrate, |r| {
            r.migrate_session(victim, target)
        })?;
        if self.router.shard_of(victim) != target {
            self.out.fail_check(format!("fleet_ops cycle {cycle}: session {victim} did not move"));
        }
        // The sub-millisecond poll is a layer metric only (its span).
        let id = self.probe.begin("cluster.metrics", cycle);
        self.out.ops.count(self.router.metrics())?;
        self.probe.end(id);
        if let Some(timeline) = timeline {
            timeline.checkpoint();
        }
        self.probe.end(span);
        Ok(())
    }

    fn check_version(&mut self, version: u64, what: &str) {
        if version != *self.version + 1 {
            self.out
                .fail_check(format!("fleet_ops {what}: version {version} after {}", *self.version));
        }
        *self.version = version;
    }

    /// One slot: a frame per session, then the drain barrier.
    fn slot(&mut self, t: u64, poll_depth: bool, sent: &mut Vec<Instant>) -> Res<Instant> {
        sent.clear();
        let span = self.probe.begin("fleet.slot", t);
        for s in 0..SESSIONS {
            let frame = self.inp.streams[s as usize][t as usize % STREAM_LEN].clone();
            let id = self.probe.begin("cluster.submit", t);
            sent.push(Instant::now());
            self.out.ops.count(self.router.submit(s, frame))?;
            self.probe.end(id);
        }
        if poll_depth && self.probe.active() {
            let depth = self.out.ops.count(self.router.metrics())?.queue_depth();
            if let Some(trace) = self.probe.trace() {
                trace.count_max("cluster.queue_depth_max", depth as f64, "count");
            }
        }
        let id = self.probe.begin("cluster.drain", t);
        let report = self.out.ops.count(self.router.drain())?;
        let done = Instant::now();
        self.probe.end(id);
        self.probe.end(span);
        self.check(&report, t);
        Ok(done)
    }

    /// Every session answers once per slot, from its adapted private model,
    /// on the current base-model version, with finite joints.
    fn check(&mut self, report: &DrainReport, t: u64) {
        let sessions: Vec<u64> = report.responses.iter().map(|r| r.session_id).collect();
        if sessions != (0..SESSIONS).collect::<Vec<_>>() {
            self.out.fail_check(format!("fleet_ops slot {t}: answered sessions {sessions:?}"));
            return;
        }
        for r in &report.responses {
            if !r.adapted
                || r.model_version != *self.version
                || !r.joints.iter().all(|v| v.is_finite())
            {
                self.out.fail_check(format!(
                    "fleet_ops slot {t} session {}: adapted={} version={} (expected {})",
                    r.session_id, r.adapted, r.model_version, *self.version
                ));
            }
        }
    }
}
