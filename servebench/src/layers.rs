//! Per-layer metrics of the traced run.
//!
//! The workload's own calls (router, engine, edge session) are outer spans
//! recorded while it runs. Afterwards the same inputs are replayed through
//! each layer's public entry point on the calling thread, one span per call:
//! a bare `ServeEngine` for `serve` and `dataset`, the compiled plan for
//! `graph`, the fc1 and conv kernels for `tensor`, the int8 device kernels
//! for `quant`, and so on. Every workload reports every layer metric, at its
//! own batch size and kernel thread count, so a change to one layer shows on
//! the workload that exercises it and reads unchanged elsewhere.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use fuse_cluster::{ClusterConfig, ClusterRouter};
use fuse_core::{fine_tune, ModelConfig};
use fuse_dataset::{EncodedDataset, FeatureMapBuilder};
use fuse_edge::EdgeSession;
use fuse_graph::ExecPlan;
use fuse_net::{
    decode_frame, encode_frame, NetError, RpcClient, RpcServer, TcpTransport, WireRequest,
};
use fuse_nn::{Checkpoint, LoweringRequest, Sequential};
use fuse_quant::{quantize_rows, DeviceMemory, HostDevice};
use fuse_radar::PointCloudFrame;
use fuse_serve::{ServeConfig, ServeEngine, Session, SessionConfig};
use fuse_tensor::conv::Conv2dSpec;
use fuse_tensor::{conv2d_forward_into, linalg};

use crate::fleet::finetune_config;
use crate::inputs::{misses, Res, STREAM_LEN};
use crate::report::{median, Metric, Ops};
use crate::trace::Trace;

/// What the replay needs to know about the workload it follows.
pub struct Ctx<'a> {
    pub streams: &'a [Vec<PointCloudFrame>],
    /// Sessions of the bare-engine replay (one shard's share).
    pub sessions: Vec<u64>,
    /// Sessions miss one slot in eight (`ward`'s dropouts).
    pub misses: bool,
    /// Sessions are adapted and serve through private batch-1 plans.
    pub adapted: bool,
    pub threads: usize,
    /// Frames per micro-batch in the workload.
    pub batch: usize,
    pub model: &'a Sequential,
    pub fckp: &'a [u8],
    pub fplan: &'a [u8],
    pub fplan_int8: &'a [u8],
    /// The artifact the workload decodes is the int8 one.
    pub decodes_int8: bool,
    pub finetune: &'a EncodedDataset,
    /// The workload itself went through a router (its cluster spans and
    /// counters are real); otherwise a one-session router is replayed.
    pub routed: bool,
    /// The workload itself called `EdgeSession::infer`.
    pub edge_infers: bool,
}

const ENGINE_SLOTS: u64 = 48;
const SPEEDUP_SLOTS: u64 = 24;
const PLAN_REPS: u64 = 48;
const MICRO_REPS: u64 = 200;
const DECODE_REPS: u64 = 16;
const FINE_TUNE_REPS: u64 = 5;
const RPC_REPS: u64 = 400;
const ROUTER_SLOTS: u64 = 200;

pub fn replay(ctx: &Ctx, trace: &mut Trace) -> Res<()> {
    fuse_parallel::with_threads(ctx.threads, || {
        engine(ctx, trace)?;
        step_speedup(ctx, trace)?;
        kernels(ctx, trace)?;
        codecs(ctx, trace)?;
        wire(ctx, trace)?;
        if !ctx.routed {
            router(ctx, trace)?;
        }
        Ok(())
    })
}

fn serve_engine(ctx: &Ctx) -> Res<ServeEngine> {
    let mut engine = ServeEngine::new(ctx.model.clone(), ServeConfig::default())?;
    for &s in &ctx.sessions {
        engine.open_session(SessionConfig::new(s))?;
        if ctx.adapted {
            engine.adapt_session(s, ctx.finetune, &finetune_config())?;
        }
    }
    Ok(engine)
}

/// Submits (or ticks) one slot's frames into `engine`; returns the submit
/// instants. With `trace`, each submit is a `serve.submit` span followed by
/// a `dataset.featurize` replay of the session's fused points.
fn submit_slot(
    ctx: &Ctx,
    engine: &mut ServeEngine,
    t: u64,
    mut trace: Option<&mut Trace>,
) -> Res<Vec<Instant>> {
    let builder = FeatureMapBuilder::default();
    let mut submitted = Vec::with_capacity(ctx.sessions.len());
    for &s in &ctx.sessions {
        if ctx.misses && misses(t, s) {
            engine.tick(s)?;
            continue;
        }
        let frame = ctx.streams[s as usize][t as usize % STREAM_LEN].clone();
        submitted.push(Instant::now());
        match trace.as_deref_mut() {
            Some(trace) => {
                trace.tracer.span("serve.submit", t, || engine.submit(s, frame))?;
                let session = engine.session(s).ok_or("replayed session is open")?;
                let points = session.fused_points();
                trace.tracer.span("dataset.featurize", t, || builder.build(points, None))?;
            }
            None => {
                engine.submit(s, frame)?;
            }
        }
    }
    Ok(submitted)
}

/// `serve` and `dataset`: the workload's slots through a bare engine.
fn engine(ctx: &Ctx, trace: &mut Trace) -> Res<()> {
    let mut engine = serve_engine(ctx)?;
    let (mut batch, mut waits) = (Vec::new(), Vec::new());
    for t in 0..ENGINE_SLOTS {
        let submitted = submit_slot(ctx, &mut engine, t, Some(trace))?;
        let step_start = Instant::now();
        let served = trace.tracer.span("serve.step", t, || engine.step())?;
        waits.extend(submitted.iter().map(|at| (step_start - *at).as_secs_f64() * 1e3));
        batch.push(served as f64);
        engine.take_responses();
    }
    let (built, skipped) = ctx.sessions.iter().fold((0u64, 0u64), |(b, k), &s| {
        let (sb, sk) = engine.session(s).map_or((0, 0), |x| x.featurize_counters());
        (b + sb, k + sk)
    });
    trace.count("serve.batch_frames", median(&mut batch), "count");
    trace.count("serve.queue_wait_ms", median(&mut waits), "ms");
    trace.count("serve.featurize_built_ratio", built as f64 / (built + skipped) as f64, "ratio");
    Ok(())
}

/// `parallel`: `ServeEngine::step` on identical batches under one kernel
/// thread and under `nproc`, alternating which runs first.
fn step_speedup(ctx: &Ctx, trace: &mut Trace) -> Res<()> {
    let (mut single, mut multi) = (serve_engine(ctx)?, serve_engine(ctx)?);
    let nproc = crate::nproc();
    for t in 0..SPEEDUP_SLOTS {
        submit_slot(ctx, &mut single, t, None)?;
        submit_slot(ctx, &mut multi, t, None)?;
        let mut one = |trace: &mut Trace| {
            fuse_parallel::with_threads(1, || {
                trace.tracer.span("parallel.step_1_thread", t, || single.step())
            })
        };
        let mut all = |trace: &mut Trace| {
            fuse_parallel::with_threads(nproc, || {
                trace.tracer.span("parallel.step_n_threads", t, || multi.step())
            })
        };
        if t.is_multiple_of(2) {
            one(trace)?;
            all(trace)?;
        } else {
            all(trace)?;
            one(trace)?;
        }
        single.take_responses();
        multi.take_responses();
    }
    Ok(())
}

/// `batch` feature maps of the workload's frames, flattened.
fn features(ctx: &Ctx, batch: usize) -> Res<Vec<f32>> {
    let mut sessions: Vec<Session> =
        ctx.streams.iter().map(|_| Session::new(SessionConfig::new(0))).collect();
    let mut out = Vec::new();
    for i in 0..batch {
        let s = i % ctx.streams.len();
        let frame = i / ctx.streams.len();
        sessions[s].push_frame(ctx.streams[s][frame % STREAM_LEN].clone());
        out.extend_from_slice(sessions[s].featurize_latest()?.as_slice());
    }
    Ok(out)
}

/// Static multiply-accumulates of one MARS CNN forward pass.
pub fn forward_macs() -> u64 {
    let c = ModelConfig::default();
    let pixels = (c.height * c.width) as u64;
    let k2 = (c.kernel * c.kernel) as u64;
    let conv1 = c.conv1_filters as u64 * pixels * c.in_channels as u64 * k2;
    let conv2 = c.conv2_filters as u64 * pixels * c.conv1_filters as u64 * k2;
    let fc1 = (c.flattened_len() * c.hidden) as u64;
    let fc2 = (c.hidden * c.outputs) as u64;
    conv1 + conv2 + fc1 + fc2
}

/// `graph`, `tensor`, `quant` and `edge` kernels on the workload's features.
fn kernels(ctx: &Ctx, trace: &mut Trace) -> Res<()> {
    let c = ModelConfig::default();
    let sample = c.in_channels * c.height * c.width;
    let pixels = c.height * c.width;
    let (b, flat, hidden) = (ctx.batch, c.flattened_len(), c.hidden);
    // Buffers hold the larger of the workload's batch and the fine-tune
    // batch, whose activations feed the gradient replay.
    let fb = finetune_config().batch_size;
    let n = b.max(fb);
    let input = features(ctx, n)?;
    let tr = &mut trace.tracer;

    let mut plan = ExecPlan::from_bytes(ctx.fplan)?;
    for r in 0..PLAN_REPS {
        tr.span("graph.plan_run", r, || plan.run(&input[..b * sample], b).map(|_| ()))?;
    }
    for r in 0..MICRO_REPS {
        tr.span("graph.plan_run_b1", r, || plan.run(&input[..sample], 1).map(|_| ()))?;
    }

    let params = ctx.model.flat_params();
    let spec1 = Conv2dSpec::same(c.in_channels, c.conv1_filters, c.kernel);
    let spec2 = Conv2dSpec::same(c.conv1_filters, c.conv2_filters, c.kernel);
    let (w1, rest) = params.split_at(c.conv1_filters * c.in_channels * c.kernel * c.kernel);
    let (b1, rest) = rest.split_at(c.conv1_filters);
    let (w2, rest) = rest.split_at(c.conv2_filters * c.conv1_filters * c.kernel * c.kernel);
    let (b2, rest) = rest.split_at(c.conv2_filters);
    let (w3, rest) = rest.split_at(flat * hidden);
    let (b3, rest) = rest.split_at(hidden);
    let (w4, b4) = rest.split_at(hidden * c.outputs);

    let mut cols1 = vec![0.0; n * spec1.in_channels * c.kernel * c.kernel * pixels];
    let mut cols2 = vec![0.0; n * spec2.in_channels * c.kernel * c.kernel * pixels];
    let mut act1 = vec![0.0; n * c.conv1_filters * pixels];
    let mut act2 = vec![0.0; n * flat];
    let mut conv = |batch: usize, act1: &mut [f32], act2: &mut [f32]| -> Res<()> {
        conv2d_forward_into(
            &input[..batch * sample],
            batch,
            c.height,
            c.width,
            w1,
            b1,
            &spec1,
            &mut cols1,
            act1,
            true,
        )?;
        conv2d_forward_into(
            act1, batch, c.height, c.width, w2, b2, &spec2, &mut cols2, act2, true,
        )?;
        Ok(())
    };
    for r in 0..PLAN_REPS {
        let id = tr.begin("tensor.conv", r);
        conv(b, &mut act1[..b * c.conv1_filters * pixels], &mut act2[..b * flat])?;
        tr.end(id);
    }
    conv(n, &mut act1, &mut act2)?;
    let mut h = vec![0.0; n * hidden];
    for r in 0..PLAN_REPS {
        tr.span("tensor.fc1", r, || {
            linalg::affine_a_bt(
                &act2[..b * flat],
                w3,
                b3,
                &mut h[..b * hidden],
                b,
                flat,
                hidden,
                true,
            )
        });
    }
    for r in 0..MICRO_REPS {
        tr.span("tensor.fc1_b1", r, || {
            linalg::affine_a_bt(&act2[..flat], w3, b3, &mut h[..hidden], 1, flat, hidden, true)
        });
    }
    // fc1's gradients at the fine-tune batch: dW = dYᵀ·X and dX = dY·W.
    linalg::affine_a_bt(&act2[..fb * flat], w3, b3, &mut h[..fb * hidden], fb, flat, hidden, false);
    let (mut dw, mut dx) = (vec![0.0; hidden * flat], vec![0.0; fb * flat]);
    for r in 0..PLAN_REPS {
        tr.span("tensor.fc1_grad", r, || {
            linalg::gemm_at_b(&h[..fb * hidden], &act2[..fb * flat], &mut dw, fb, hidden, flat);
            linalg::gemm(&h[..fb * hidden], w3, &mut dx, fb, hidden, flat);
        });
    }

    let mut dev = HostDevice::new();
    let mut upload = |w: &[f32], row: usize| {
        let q = quantize_rows(w, row);
        (dev.upload_i8(&q.values), dev.upload_f32(&q.scales))
    };
    let (q1, q2) = (upload(w1, w1.len() / c.conv1_filters), upload(w2, w2.len() / c.conv2_filters));
    let (q3, q4) = (upload(w3, flat), upload(w4, hidden));
    let (mut qa1, mut qa2) = (vec![0.0; c.conv1_filters * pixels], vec![0.0; flat]);
    let (mut qh, mut qy) = (vec![0.0; hidden], vec![0.0; c.outputs]);
    for r in 0..MICRO_REPS {
        tr.span("quant.conv_i8", r, || {
            dev.conv2d_i8(
                &input[..sample],
                q1.0,
                q1.1,
                b1,
                &mut qa1,
                1,
                &spec1,
                c.height,
                c.width,
                true,
            );
            dev.conv2d_i8(&qa1, q2.0, q2.1, b2, &mut qa2, 1, &spec2, c.height, c.width, true);
        });
        tr.span("quant.fc_i8", r, || {
            dev.gemm_i8(&qa2, q3.0, q3.1, b3, &mut qh, 1, flat, hidden, true);
            dev.gemm_i8(&qh, q4.0, q4.1, b4, &mut qy, 1, hidden, c.outputs, false);
        });
    }

    if !ctx.edge_infers {
        let mut edge = EdgeSession::from_bytes(ctx.fplan_int8)?;
        for r in 0..MICRO_REPS {
            tr.span("edge.infer", r, || edge.infer(&input[..sample], 1).map(|_| ()))?;
        }
    }
    for r in 0..DECODE_REPS {
        tr.span("edge.load", r, || EdgeSession::from_bytes(ctx.fplan_int8).map(|_| ()))?;
    }
    Ok(())
}

/// `graph` compile and decode, `nn` checkpoint codec, `core` fine-tuning.
fn codecs(ctx: &Ctx, trace: &mut Trace) -> Res<()> {
    let tr = &mut trace.tracer;
    let dims = FeatureMapBuilder::default().input_dims();
    let max_batch = ServeConfig::default().max_batch;
    for r in 0..DECODE_REPS {
        tr.span("graph.compile", r, || {
            LoweringRequest::new(ctx.model, &dims).lower()?.compile(max_batch).map(|_| ())
        })?;
    }
    let artifact = if ctx.decodes_int8 { ctx.fplan_int8 } else { ctx.fplan };
    for r in 0..DECODE_REPS {
        let id = tr.begin("graph.fplan_decode", r);
        ExecPlan::from_bytes(artifact)?;
        tr.end(id);
        tr.set_bytes(id, artifact.len());
    }
    let mut model = ctx.model.clone();
    for r in 0..DECODE_REPS {
        let id = tr.begin("nn.ckpt_decode", r);
        Checkpoint::from_binary(ctx.fckp)?.apply_to(&mut model)?;
        tr.end(id);
        tr.set_bytes(id, ctx.fckp.len());
    }
    let config = finetune_config();
    for r in 0..FINE_TUNE_REPS {
        model = ctx.model.clone();
        tr.span("core.fine_tune", r, || {
            fine_tune(&mut model, ctx.finetune, ctx.finetune, ctx.finetune, &config).map(|_| ())
        })?;
    }
    for r in 0..DECODE_REPS {
        tr.span("nn.ckpt_encode", r, || Checkpoint::capture(&model, "adapted").to_binary());
    }
    Ok(())
}

/// `net`: framing and checksums on swap- and migration-sized payloads, the
/// per-frame submit message, and a small RPC round trip over loopback TCP.
fn wire(ctx: &Ctx, trace: &mut Trace) -> Res<()> {
    let frame = &ctx.streams[0][0];
    let submit = WireRequest::Submit { id: 0, frame: frame.clone() };
    trace.count("net.bytes_per_frame", encode_frame(&submit.encode()).len() as f64, "bytes");
    let swap = WireRequest::PreparePlan { bytes: ctx.fplan.to_vec(), name: "mars".into() }.encode();
    trace.count("net.bytes_per_swap", encode_frame(&swap).len() as f64, "bytes");
    // A migrating session carries its private fine-tuned model.
    let mut engine = ServeEngine::new(ctx.model.clone(), ServeConfig::default())?;
    engine.open_session(SessionConfig::new(0))?;
    for f in &ctx.streams[0][..3] {
        engine.submit(0, f.clone())?;
    }
    engine.step()?;
    engine.adapt_session(0, ctx.finetune, &finetune_config())?;
    let state = Box::new(engine.export_session(0)?);
    let migrate = WireRequest::ImportSession { state }.encode();
    trace.count("net.bytes_per_migrate", encode_frame(&migrate).len() as f64, "bytes");

    let tr = &mut trace.tracer;
    for r in 0..DECODE_REPS {
        for payload in [&swap, &migrate] {
            let id = tr.begin("net.seal", r);
            let sealed = encode_frame(payload);
            tr.end(id);
            tr.set_bytes(id, payload.len());
            let id = tr.begin("net.open", r);
            decode_frame(&sealed)?;
            tr.end(id);
            tr.set_bytes(id, payload.len());
        }
    }
    for r in 0..MICRO_REPS {
        let request = WireRequest::Submit { id: r, frame: frame.clone() };
        tr.span("net.msg_submit", r, || WireRequest::decode(&request.encode()).map(|_| ()))?;
    }

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> Result<(), String> {
        let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
        let mut server = RpcServer::new(TcpTransport::from_stream(stream));
        loop {
            match server.next_request(Duration::from_millis(50)) {
                Ok(Some(body)) => server.respond(&body).map_err(|e| e.to_string())?,
                Ok(None) => {}
                Err(NetError::Disconnected) => return Ok(()),
                Err(e) => return Err(e.to_string()),
            }
        }
    });
    let mut client = RpcClient::new(TcpTransport::connect(addr)?);
    let body = [7u8; 16];
    for r in 0..RPC_REPS {
        let reply = tr.span("net.rpc_rtt", r, || client.call(&body))?;
        if reply != body {
            return Err("rpc echo returned a different body".into());
        }
    }
    drop(client);
    echo.join().map_err(|_| "rpc echo thread panicked")??;
    Ok(())
}

/// `cluster` for a workload that has no router: a one-session router on the
/// workload's frames, one submit and drain per slot.
fn router(ctx: &Ctx, trace: &mut Trace) -> Res<()> {
    let mut ops = Ops::default();
    let mut router = ops.count(ClusterRouter::new(ctx.model.clone(), ClusterConfig::default()))?;
    ops.count(router.open_session(SessionConfig::new(0)))?;
    let steps = |router: &mut ClusterRouter, ops: &mut Ops| -> Res<u64> {
        Ok(ops.count(router.metrics())?.shards.iter().map(|s| s.steps).sum())
    };
    let before = steps(&mut router, &mut ops)?;
    for t in 0..ROUTER_SLOTS {
        let frame = ctx.streams[0][t as usize % STREAM_LEN].clone();
        trace.tracer.span("cluster.submit", t, || ops.count(router.submit(0, frame)))?;
        if t.is_multiple_of(8) {
            let depth = ops.count(router.metrics())?.queue_depth();
            trace.count_max("cluster.queue_depth_max", depth as f64, "count");
        }
        trace.tracer.span("cluster.drain", t, || ops.count(router.drain()))?;
    }
    let after = steps(&mut router, &mut ops)?;
    router.shutdown();
    trace.count("cluster.steps_per_slot", (after - before) as f64 / ROUTER_SLOTS as f64, "count");
    trace.count("cluster.ops_attempted", ops.attempted as f64, "count");
    trace.count("cluster.ops_failed", ops.failed as f64, "count");
    Ok(())
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
pub fn metrics(trace: &Trace, batch: usize) -> Vec<Metric> {
    let spans = trace.tracer.by_name();
    let ns = |name: &str| -> (f64, usize) {
        let mut v: Vec<f64> =
            spans.get(name).map_or(Vec::new(), |s| s.iter().map(|x| x.0).collect());
        let n = v.len();
        (median(&mut v), n)
    };
    let rate = |name: &str| -> (f64, usize) {
        let mut v: Vec<f64> =
            spans.get(name).map_or(Vec::new(), |s| s.iter().map(|&(t, b)| b as f64 / t).collect());
        let n = v.len();
        (median(&mut v), n)
    };
    let counter = |name: &'static str| -> Metric {
        let (value, unit) = trace.counters.get(name).copied().unwrap_or((f64::NAN, "count"));
        Metric::new(name, value, unit, 1)
    };
    let timed = |metric: &'static str, span: &str, scale: f64, unit: &'static str| -> Metric {
        let (v, n) = ns(span);
        Metric::new(metric, v / scale, unit, n)
    };
    let gflops = |metric: &'static str, span: &str, flops: f64| -> Metric {
        let (v, n) = ns(span);
        Metric::new(metric, flops / v, "GFLOP/s", n)
    };
    let gbps = |metric: &'static str, span: &str| -> Metric {
        let (v, n) = rate(span);
        Metric::new(metric, v, "GB/s", n)
    };
    let c = ModelConfig::default();
    let fc1_flops = 2.0 * (c.flattened_len() * c.hidden * batch) as f64;
    let (one, n1) = ns("parallel.step_1_thread");
    let (all, _) = ns("parallel.step_n_threads");
    let (us, ms) = (1e3, 1e6);
    vec![
        timed("cluster.submit_us", "cluster.submit", us, "us"),
        timed("cluster.drain_ms", "cluster.drain", ms, "ms"),
        counter("cluster.steps_per_slot"),
        counter("cluster.queue_depth_max"),
        counter("cluster.ops_attempted"),
        counter("cluster.ops_failed"),
        timed("serve.submit_us", "serve.submit", us, "us"),
        timed("serve.step_ms", "serve.step", ms, "ms"),
        counter("serve.batch_frames"),
        counter("serve.queue_wait_ms"),
        counter("serve.featurize_built_ratio"),
        timed("dataset.featurize_us", "dataset.featurize", us, "us"),
        timed("graph.plan_run_ms", "graph.plan_run", ms, "ms"),
        gflops("graph.plan_gflops", "graph.plan_run", 2.0 * (forward_macs() * batch as u64) as f64),
        timed("graph.plan_run_b1_us", "graph.plan_run_b1", us, "us"),
        timed("graph.compile_ms", "graph.compile", ms, "ms"),
        timed("graph.fplan_decode_ms", "graph.fplan_decode", ms, "ms"),
        gbps("graph.fplan_decode_gbps", "graph.fplan_decode"),
        timed("tensor.fc1_ms", "tensor.fc1", ms, "ms"),
        gflops("tensor.fc1_gflops", "tensor.fc1", fc1_flops),
        timed("tensor.conv_ms", "tensor.conv", ms, "ms"),
        timed("tensor.fc1_b1_us", "tensor.fc1_b1", us, "us"),
        timed("tensor.fc1_grad_ms", "tensor.fc1_grad", ms, "ms"),
        timed("quant.conv_i8_us", "quant.conv_i8", us, "us"),
        timed("quant.fc_i8_us", "quant.fc_i8", us, "us"),
        timed("edge.load_ms", "edge.load", ms, "ms"),
        timed("edge.infer_us", "edge.infer", us, "us"),
        timed("nn.ckpt_decode_ms", "nn.ckpt_decode", ms, "ms"),
        gbps("nn.ckpt_decode_gbps", "nn.ckpt_decode"),
        timed("nn.ckpt_encode_ms", "nn.ckpt_encode", ms, "ms"),
        timed("core.fine_tune_ms", "core.fine_tune", ms, "ms"),
        gbps("net.seal_gbps", "net.seal"),
        gbps("net.open_gbps", "net.open"),
        timed("net.msg_submit_us", "net.msg_submit", us, "us"),
        timed("net.rpc_rtt_us", "net.rpc_rtt", us, "us"),
        counter("net.bytes_per_frame"),
        counter("net.bytes_per_swap"),
        counter("net.bytes_per_migrate"),
        Metric::new("parallel.step_speedup", one / all, "ratio", n1),
    ]
}

/// Self time per span name (p50, µs, with counts) for the trace summary.
pub fn self_time_table(trace: &Trace) -> BTreeMap<&'static str, (f64, usize)> {
    trace
        .tracer
        .by_name()
        .into_iter()
        .map(|(name, v)| {
            let mut t: Vec<f64> = v.iter().map(|x| x.0 / 1e3).collect();
            let n = t.len();
            (name, (median(&mut t), n))
        })
        .collect()
}
