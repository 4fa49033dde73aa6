//! Remote shard endpoints: the host-side serving loop and the router-side
//! translation thread.
//!
//! A remote shard is the same state machine as a local one — the identical
//! `ShardWorker` drives the identical [`fuse_serve::ServeEngine`] — moved
//! behind a [`fuse_net`] link:
//!
//! * [`HostShard`] runs on the remote machine. It spawns a local
//!   `ShardWorker` and serves [`fuse_net::WireRequest`]s over an RPC server,
//!   translating each into the worker's command vocabulary. Because the
//!   worker code path is shared byte-for-byte with in-process shards, a
//!   host shard's responses are bit-identical to a local shard's for the
//!   same workload.
//! * `spawn_remote_shard` runs on the router's machine. It gives the
//!   router an ordinary command channel whose receiving end is a
//!   translation thread: each `Command` becomes one wire request, the
//!   response fulfils the command's embedded ack channel. The router cannot
//!   tell a remote shard from a local one.
//!
//! Exactly-once semantics over a lossy link come from the RPC layer's
//! stop-and-wait retransmission + server-side duplicate suppression
//! ([`fuse_net::rpc`]); this module never re-issues a request itself. When
//! the link dies for good, the translation thread drops every pending ack
//! and exits, which the router observes as
//! [`crate::ClusterError::ShardUnavailable`] — the same failure shape as a
//! crashed local worker.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fuse_net::message::{WireCheckpointMeta, WireCloseReport, WireFlushReport, WireGauge};
use fuse_net::{NetError, RpcClient, RpcServer, Transport, WireError, WireRequest, WireResponse};
use fuse_nn::Sequential;
use fuse_parallel::channel::{bounded, Receiver, Sender};
use fuse_serve::{ServeEngine, ServeError};

use crate::config::ClusterConfig;
use crate::error::ClusterError;
use crate::metrics::ShardGauge;
use crate::worker::{
    CheckpointMeta, CloseReport, Command, FlushReport, ShardResult, ShardSnapshot, ShardWorker,
    SwapSource,
};
use crate::Result;

/// How long the host's RPC server waits per poll before re-checking for
/// shutdown; purely a liveness knob, never a correctness one.
const HOST_POLL_INTERVAL: Duration = Duration::from_millis(200);

fn net_error(e: NetError) -> ClusterError {
    ClusterError::Serve(ServeError::Remote(e.to_string()))
}

fn wire_gauge(g: &ShardGauge) -> WireGauge {
    WireGauge {
        shard: g.shard as u64,
        sessions: g.sessions as u64,
        queue_depth: g.queue_depth as u64,
        deepest_queue: g.deepest_queue.map(|(id, depth)| (id, depth as u64)),
        ready: g.ready as u64,
        dropped_frames: g.dropped_frames,
        merged_frames: g.merged_frames,
        blocked_submits: g.blocked_submits,
        steps: g.steps,
        responses: g.responses,
        model_version: g.model_version,
    }
}

fn shard_gauge(g: &WireGauge, shard: usize) -> ShardGauge {
    ShardGauge {
        // The cluster-wide index is the router's knowledge, not the host's:
        // a host process serves "its" shard without knowing where it sits in
        // the cluster, so the translation thread stamps the index.
        shard,
        sessions: g.sessions as usize,
        queue_depth: g.queue_depth as usize,
        deepest_queue: g.deepest_queue.map(|(id, depth)| (id, depth as usize)),
        ready: g.ready as usize,
        dropped_frames: g.dropped_frames,
        merged_frames: g.merged_frames,
        blocked_submits: g.blocked_submits,
        steps: g.steps,
        responses: g.responses,
        model_version: g.model_version,
    }
}

// ---------------------------------------------------------------------------
// Host side.
// ---------------------------------------------------------------------------

/// One shard of the cluster, served on this machine for a remote router.
///
/// `serve` blocks until the router shuts the cluster down (a
/// [`WireRequest::Shutdown`]) or the link is gone for good; either way the
/// local worker is joined before it returns.
#[derive(Debug)]
pub struct HostShard {
    engine: ServeEngine,
    config: ClusterConfig,
}

impl HostShard {
    /// Prepares a host shard serving `model` under the cluster's shared
    /// shard configuration (`config.serve`, the backpressure spec, the
    /// default SLO class, auto-stepping — the fields every shard must agree
    /// on for the cluster's output to be deterministic). The engine is
    /// built here, so a model that does not lower fails now rather than
    /// when [`HostShard::serve`] starts.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] when the configuration is
    /// invalid and [`ClusterError::Serve`] carrying
    /// [`ServeError::Graph`] when the model does not lower to a compiled
    /// plan.
    pub fn new(model: Sequential, config: ClusterConfig) -> Result<Self> {
        config.validate()?;
        let engine = ServeEngine::new(model, config.serve.clone())?;
        Ok(HostShard { engine, config })
    }

    /// Serves wire requests over `transport` until shutdown or disconnect.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardUnavailable`] when the local worker
    /// dies mid-serve and a transport-level [`ClusterError::Serve`] for
    /// unrecoverable link failures (a clean peer disconnect is a normal
    /// return, not an error).
    pub fn serve(self, transport: impl Transport) -> Result<()> {
        let (tx, rx) = bounded(self.config.channel_capacity);
        let worker = ShardWorker::new(
            0,
            self.engine,
            rx,
            self.config.backpressure,
            self.config.default_slo,
            self.config.auto_step,
            self.config.channel_capacity,
        );
        let kernel_threads = fuse_parallel::available_threads();
        let kernel_min_work = fuse_parallel::min_parallel_work();
        let kernel_backend = fuse_backend::active_choice();
        let handle = std::thread::Builder::new()
            .name("fuse-cluster-host-worker".into())
            .spawn(move || {
                fuse_parallel::with_threads(kernel_threads, || {
                    fuse_parallel::with_min_parallel_work(kernel_min_work, || {
                        fuse_backend::with_backend(kernel_backend, || worker.run())
                    })
                })
            })
            .expect("spawning host shard worker failed");

        let result = Self::serve_loop(&tx, transport);
        drop(tx);
        let _ = handle.join();
        result
    }

    fn serve_loop(tx: &Sender<Command>, transport: impl Transport) -> Result<()> {
        let mut server = RpcServer::new(transport);
        loop {
            let body = match server.next_request(HOST_POLL_INTERVAL) {
                Ok(Some(body)) => body,
                Ok(None) => continue,
                Err(NetError::Disconnected) => return Ok(()),
                Err(e) => return Err(net_error(e)),
            };
            // A request that does not decode gets a typed error reply; the
            // shard keeps serving the next one.
            let (response, shutting_down) = match WireRequest::decode(&body) {
                Ok(request) => {
                    let shutting_down = matches!(request, WireRequest::Shutdown);
                    (Self::execute(tx, request)?, shutting_down)
                }
                Err(e) => (WireResponse::Error(WireError::BadRequest(e.to_string())), false),
            };
            match server.respond(&response.encode()) {
                Ok(()) => {}
                Err(NetError::Disconnected) => return Ok(()),
                Err(e) => return Err(net_error(e)),
            }
            if shutting_down {
                return Ok(());
            }
        }
    }

    /// Runs one wire request against the local worker. `Err` means the
    /// worker itself is gone — shard-level failures travel back inside
    /// [`WireResponse::Error`] instead.
    fn execute(tx: &Sender<Command>, request: WireRequest) -> Result<WireResponse> {
        fn ack<T>(rx: &Receiver<T>) -> Result<T> {
            rx.recv().map_err(|_| ClusterError::ShardUnavailable {
                shard: 0,
                during: "host shard execute",
            })
        }
        fn send(tx: &Sender<Command>, command: Command) -> Result<()> {
            tx.send(command).map_err(|_| ClusterError::ShardUnavailable {
                shard: 0,
                during: "host shard execute",
            })
        }
        fn reply<T>(result: ShardResult<T>, ok: impl FnOnce(T) -> WireResponse) -> WireResponse {
            match result {
                Ok(value) => ok(value),
                Err(e) => WireResponse::Error(WireError::from(&e)),
            }
        }

        Ok(match request {
            WireRequest::Open { config } => {
                let (ack_tx, ack_rx) = bounded(1);
                send(tx, Command::Open { config, ack: ack_tx })?;
                reply(ack(&ack_rx)?, |()| WireResponse::Opened)
            }
            WireRequest::Close { id } => {
                let (ack_tx, ack_rx) = bounded(1);
                send(tx, Command::Close { id, ack: ack_tx })?;
                reply(ack(&ack_rx)?, |report: CloseReport| {
                    WireResponse::Closed(WireCloseReport {
                        adapted: report.adapted,
                        unserved: report.unserved,
                    })
                })
            }
            WireRequest::Submit { id, frame } => {
                // Fire-and-forget into the worker, like a local submit; the
                // RPC layer's dedup is what makes the enqueue exactly-once.
                // Engine-level failures surface on the next flush, exactly
                // as they do locally.
                send(tx, Command::Submit { id, frame })?;
                WireResponse::Submitted
            }
            WireRequest::Tick { id } => {
                // Fire-and-forget like a submit: dropout ticks never make a
                // lossy producer wait, and tick failures surface on the next
                // flush exactly as submit failures do.
                send(tx, Command::Tick { id })?;
                WireResponse::Ticked
            }
            WireRequest::SetCapacity { class, queue_capacity } => {
                let (ack_tx, ack_rx) = bounded(1);
                send(
                    tx,
                    Command::SetCapacity {
                        class,
                        queue_capacity: queue_capacity as usize,
                        ack: ack_tx,
                    },
                )?;
                ack(&ack_rx)?;
                WireResponse::CapacitySet
            }
            WireRequest::Adapt { id, data, config } => {
                let (ack_tx, ack_rx) = bounded(1);
                send(tx, Command::Adapt { id, data: Arc::new(data), config, ack: ack_tx })?;
                reply(ack(&ack_rx)?, WireResponse::Adapted)
            }
            WireRequest::Flush => {
                let (ack_tx, ack_rx) = bounded(1);
                send(tx, Command::Flush { ack: ack_tx })?;
                reply(ack(&ack_rx)?, |report: FlushReport| {
                    WireResponse::Flushed(WireFlushReport {
                        responses: report.responses,
                        dropped: report.dropped,
                        merged: report.merged,
                    })
                })
            }
            WireRequest::Poll => {
                let (ack_tx, ack_rx) = bounded(1);
                send(tx, Command::Poll { ack: ack_tx })?;
                WireResponse::Polled(ack(&ack_rx)?)
            }
            WireRequest::Snapshot => {
                let (ack_tx, ack_rx) = bounded(1);
                send(tx, Command::Snapshot { ack: ack_tx })?;
                let snapshot: ShardSnapshot = ack(&ack_rx)?;
                WireResponse::Snapshot {
                    recorder: Box::new(snapshot.recorder),
                    gauge: wire_gauge(&snapshot.gauge),
                }
            }
            WireRequest::PrepareCheckpoint { bytes } => {
                let (ack_tx, ack_rx) = bounded(1);
                let source = SwapSource::Checkpoint(Arc::new(bytes));
                send(tx, Command::PrepareSwap { source, ack: ack_tx })?;
                reply(ack(&ack_rx)?, |meta: CheckpointMeta| {
                    WireResponse::Prepared(WireCheckpointMeta {
                        model_name: meta.model_name,
                        param_len: meta.param_len as u64,
                    })
                })
            }
            WireRequest::PreparePlan { bytes, name } => {
                let (ack_tx, ack_rx) = bounded(1);
                let source = SwapSource::PlanArtifact { bytes: Arc::new(bytes), name };
                send(tx, Command::PrepareSwap { source, ack: ack_tx })?;
                reply(ack(&ack_rx)?, |meta: CheckpointMeta| {
                    WireResponse::Prepared(WireCheckpointMeta {
                        model_name: meta.model_name,
                        param_len: meta.param_len as u64,
                    })
                })
            }
            WireRequest::CommitSwap => {
                let (ack_tx, ack_rx) = bounded(1);
                send(tx, Command::CommitSwap { ack: ack_tx })?;
                WireResponse::Committed { version: ack(&ack_rx)? }
            }
            WireRequest::AbortSwap => {
                send(tx, Command::AbortSwap)?;
                WireResponse::Aborted
            }
            WireRequest::ExportSession { id } => {
                let (ack_tx, ack_rx) = bounded(1);
                send(tx, Command::Export { id, ack: ack_tx })?;
                reply(ack(&ack_rx)?, WireResponse::Exported)
            }
            WireRequest::ImportSession { state } => {
                let (ack_tx, ack_rx) = bounded(1);
                send(tx, Command::Import { state, ack: ack_tx })?;
                reply(ack(&ack_rx)?, |()| WireResponse::Imported)
            }
            WireRequest::Shutdown => WireResponse::ShuttingDown,
        })
    }
}

// ---------------------------------------------------------------------------
// Router side.
// ---------------------------------------------------------------------------

/// Spawns the translation thread that makes a remote host shard look like a
/// local worker: the returned sender speaks the exact same [`Command`]
/// vocabulary the router uses for in-process shards.
pub(crate) fn spawn_remote_shard(
    shard: usize,
    transport: Box<dyn Transport>,
    channel_capacity: usize,
) -> (Sender<Command>, JoinHandle<()>) {
    let (tx, rx) = bounded::<Command>(channel_capacity);
    let handle = std::thread::Builder::new()
        .name(format!("fuse-cluster-remote-{shard}"))
        .spawn(move || {
            let mut client = RpcClient::new(transport);
            while let Ok(command) = rx.recv() {
                if translate(&mut client, shard, command).is_err() {
                    // The link is gone for good: dropping `rx` (and with it
                    // every queued command's ack sender) is how the router
                    // learns — the same signal a dead local worker gives.
                    return;
                }
            }
            // Clean shutdown: the router dropped its senders, so release
            // the host's worker too. Best-effort — the host also treats a
            // plain disconnect as shutdown.
            let _ = call(&mut client, &WireRequest::Shutdown);
        })
        .expect("spawning remote shard translator failed");
    (tx, handle)
}

fn call(
    client: &mut RpcClient<Box<dyn Transport>>,
    request: &WireRequest,
) -> std::result::Result<WireResponse, NetError> {
    let body = client.call(&request.encode())?;
    WireResponse::decode(&body)
}

/// A response variant the protocol does not allow for the issued request;
/// fed to acks so the failure is attributable, then the link is dropped.
fn protocol_error(response: &WireResponse) -> ServeError {
    ServeError::Remote(format!("protocol mismatch: unexpected response {response:?}"))
}

/// Runs one command against the remote host. `Err` means the link is
/// unusable and the translation thread must die; shard-level failures are
/// delivered through the command's ack instead.
fn translate(
    client: &mut RpcClient<Box<dyn Transport>>,
    shard: usize,
    command: Command,
) -> std::result::Result<(), NetError> {
    /// Fulfils `ack` from the wire response: `ok` maps the expected success
    /// variant (returning `None` for a mismatched variant), wire errors map
    /// to their typed [`ServeError`]s.
    fn fulfil<T>(
        response: WireResponse,
        ack: Sender<ShardResult<T>>,
        ok: impl FnOnce(WireResponse) -> Option<T>,
    ) {
        let result = match response {
            WireResponse::Error(e) => Err(ServeError::from(e)),
            other => match ok(other) {
                Some(value) => Ok(value),
                None => Err(ServeError::Remote("protocol mismatch".into())),
            },
        };
        let _ = ack.send(result);
    }

    match command {
        Command::Open { config, ack } => {
            let response = call(client, &WireRequest::Open { config })?;
            fulfil(response, ack, |r| matches!(r, WireResponse::Opened).then_some(()));
        }
        Command::Close { id, ack } => {
            let response = call(client, &WireRequest::Close { id })?;
            fulfil(response, ack, |r| match r {
                WireResponse::Closed(report) => {
                    Some(CloseReport { adapted: report.adapted, unserved: report.unserved })
                }
                _ => None,
            });
        }
        Command::Submit { id, frame } => {
            // Local submits are fire-and-forget; the wire round-trip is the
            // retransmission anchor, not an ack the router waits on.
            // Engine-level failures surface on the next flush, like local.
            let response = call(client, &WireRequest::Submit { id, frame })?;
            if !matches!(response, WireResponse::Submitted) {
                // Nothing to deliver the mismatch to — treat as link-fatal.
                let _ = protocol_error(&response);
                return Err(NetError::Decode("unexpected submit response".into()));
            }
        }
        Command::Tick { id } => {
            // Fire-and-forget like a submit; the round-trip is only the
            // retransmission anchor.
            let response = call(client, &WireRequest::Tick { id })?;
            if !matches!(response, WireResponse::Ticked) {
                let _ = protocol_error(&response);
                return Err(NetError::Decode("unexpected tick response".into()));
            }
        }
        Command::SetCapacity { class, queue_capacity, ack } => {
            let request = WireRequest::SetCapacity { class, queue_capacity: queue_capacity as u64 };
            let response = call(client, &request)?;
            if matches!(response, WireResponse::CapacitySet) {
                let _ = ack.send(());
            } else {
                return Err(NetError::Decode("unexpected set-capacity response".into()));
            }
        }
        Command::Adapt { id, data, config, ack } => {
            let request = WireRequest::Adapt { id, data: (*data).clone(), config };
            let response = call(client, &request)?;
            fulfil(response, ack, |r| match r {
                WireResponse::Adapted(result) => Some(result),
                _ => None,
            });
        }
        Command::Flush { ack } => {
            let response = call(client, &WireRequest::Flush)?;
            fulfil(response, ack, |r| match r {
                WireResponse::Flushed(report) => Some(FlushReport {
                    responses: report.responses,
                    dropped: report.dropped,
                    merged: report.merged,
                }),
                _ => None,
            });
        }
        Command::Poll { ack } => {
            let response = call(client, &WireRequest::Poll)?;
            if let WireResponse::Polled(responses) = response {
                let _ = ack.send(responses);
            } else {
                return Err(NetError::Decode("unexpected poll response".into()));
            }
        }
        Command::Snapshot { ack } => {
            let response = call(client, &WireRequest::Snapshot)?;
            if let WireResponse::Snapshot { recorder, gauge } = response {
                let _ = ack
                    .send(ShardSnapshot { recorder: *recorder, gauge: shard_gauge(&gauge, shard) });
            } else {
                return Err(NetError::Decode("unexpected snapshot response".into()));
            }
        }
        Command::PrepareSwap { source, ack } => {
            let request = match &source {
                SwapSource::Checkpoint(bytes) => {
                    WireRequest::PrepareCheckpoint { bytes: (**bytes).clone() }
                }
                SwapSource::PlanArtifact { bytes, name } => {
                    WireRequest::PreparePlan { bytes: (**bytes).clone(), name: name.clone() }
                }
            };
            let response = call(client, &request)?;
            fulfil(response, ack, |r| match r {
                WireResponse::Prepared(meta) => Some(CheckpointMeta {
                    model_name: meta.model_name,
                    param_len: meta.param_len as usize,
                }),
                _ => None,
            });
        }
        Command::CommitSwap { ack } => {
            let response = call(client, &WireRequest::CommitSwap)?;
            if let WireResponse::Committed { version } = response {
                let _ = ack.send(version);
            } else {
                return Err(NetError::Decode("unexpected commit response".into()));
            }
        }
        Command::AbortSwap => {
            let response = call(client, &WireRequest::AbortSwap)?;
            if !matches!(response, WireResponse::Aborted) {
                return Err(NetError::Decode("unexpected abort response".into()));
            }
        }
        Command::Export { id, ack } => {
            let response = call(client, &WireRequest::ExportSession { id })?;
            fulfil(response, ack, |r| match r {
                WireResponse::Exported(state) => Some(state),
                _ => None,
            });
        }
        Command::Import { state, ack } => {
            let response = call(client, &WireRequest::ImportSession { state })?;
            fulfil(response, ack, |r| matches!(r, WireResponse::Imported).then_some(()));
        }
    }
    Ok(())
}
