//! The cluster router: N engine shards behind one deterministic façade.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

use fuse_core::{FineTuneConfig, FineTuneResult};
use fuse_dataset::EncodedDataset;
use fuse_net::Transport;
use fuse_nn::{NnError, Sequential};
use fuse_parallel::channel::{bounded, Sender};
use fuse_radar::PointCloudFrame;
use fuse_serve::{
    LatencyRecorder, ServeEngine, ServeError, ServeResponse, SessionConfig, Stage,
    DEFAULT_SAMPLE_WINDOW,
};

use crate::adaptive::{AdaptiveConfig, AdaptiveController, CapacityUpdate};
use crate::config::ClusterConfig;
use crate::error::ClusterError;
use crate::metrics::ClusterMetrics;
use crate::remote::spawn_remote_shard;
use crate::worker::{Command, ShardWorker, SwapSource};
use crate::Result;

/// Where one of the cluster's shards runs.
///
/// The router drives every shard through the same command contract; a
/// remote shard only differs in that its commands are translated onto a
/// [`fuse_net`] link to a [`crate::HostShard`] on another machine.
pub enum ShardSpec {
    /// An in-process worker thread serving a clone of the router's model.
    Local,
    /// A remote [`crate::HostShard`] reached over this transport (TCP for
    /// real deployments, [`fuse_net::SimTransport`] in tests).
    Remote(Box<dyn Transport>),
}

impl std::fmt::Debug for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardSpec::Local => f.write_str("Local"),
            ShardSpec::Remote(_) => f.write_str("Remote(..)"),
        }
    }
}

/// Outcome of closing a session cluster-wide.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedSession {
    /// The session id.
    pub session_id: u64,
    /// The shard the session lived on.
    pub shard: usize,
    /// Whether the session had been adapted to a private plan.
    pub adapted: bool,
    /// Frame indices that were still queued when the session closed —
    /// returned for accounting, never silently dropped.
    pub unserved_frames: Vec<u64>,
}

/// Outcome of a successful fan-out hot-swap.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapReport {
    /// Model name recorded in the checkpoint.
    pub model_name: String,
    /// Number of scalar parameters swapped in.
    pub param_len: usize,
    /// The model version every shard now serves.
    pub version: u64,
}

/// Everything one [`ClusterRouter::drain`] barrier returns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DrainReport {
    /// Every response produced since the last collection, sorted by
    /// `(session id, frame index)`.
    pub responses: Vec<ServeResponse>,
    /// `(session, frame)` pairs dropped by the `DropOldest` policy since the
    /// last flush, sorted.
    pub dropped: Vec<(u64, u64)>,
    /// `(session, frame)` pairs merged away by the `MergeFrames` policy
    /// since the last flush, sorted.
    pub merged: Vec<(u64, u64)>,
}

/// Sharded asynchronous serving router (the `fuse-cluster` tentpole).
///
/// A `ClusterRouter` wraps `shards` independent [`ServeEngine`]s, each driven
/// by its own worker thread, behind one façade:
///
/// * **Deterministic sharding** — session `s` always lives on shard
///   `s % shards` ([`ClusterRouter::shard_of`]); a session's frames are
///   featurized, queued and served entirely on that shard, so its response
///   stream is bit-identical for *any* shard count.
/// * **Async ingestion** — [`ClusterRouter::submit`] only enqueues onto the
///   shard's bounded command channel; inference happens on the worker
///   thread. Producers never block on the model (they block only when the
///   transport channel itself is full).
/// * **Per-class backpressure** — when a session's queue reaches its
///   capacity, the shard applies the `(policy, capacity)` its SLO class
///   resolves to in the cluster's [`crate::BackpressureSpec`]; drops and
///   merges are counted and surfaced via [`ClusterRouter::metrics`] and
///   [`DrainReport`]. With `adaptive` enabled, [`ClusterRouter::autotune`]
///   feeds the observed end-to-end p99 to an [`AdaptiveController`] and
///   pushes the resulting effective capacities to every shard.
/// * **Atomic fan-out hot-swap** — [`ClusterRouter::hot_swap`] (a `fuse-nn`
///   checkpoint) and [`ClusterRouter::hot_swap_plan`] (a `.fplan`
///   compiled-plan artifact) validate the new weights on every shard before
///   committing on any; a single rejection rolls the whole swap back
///   ([`ClusterError::SwapAborted`]).
/// * **Re-sequenced responses** — [`ClusterRouter::drain`] is a barrier that
///   serves every queued frame and returns all responses sorted by
///   `(session id, frame index)`: the externally observable ordering is a
///   pure function of the submitted workload, independent of shard count and
///   thread interleaving.
///
/// ```
/// use fuse_cluster::{ClusterConfig, ClusterRouter, SessionConfig, SloClass};
/// use fuse_core::{build_mars_cnn, ModelConfig};
/// use fuse_radar::{PointCloudFrame, RadarPoint};
///
/// let model = build_mars_cnn(&ModelConfig::tiny(), 7)?;
/// let config = ClusterConfig { shards: 2, ..ClusterConfig::default() };
/// let mut router = ClusterRouter::new(model, config)?;
/// router.open_session(SessionConfig::new(0).slo(SloClass::Clinical))?;
/// router.open_session(SessionConfig::new(1))?; // lands on the other shard (1 % 2)
/// let frame = PointCloudFrame::new(0, 0.0, vec![RadarPoint::new(0.1, 2.0, 1.0, 0.0, 1.0)]);
/// router.submit(0, frame.clone())?;
/// router.submit(1, frame)?;
/// let report = router.drain()?; // barrier: every queued frame is served
/// assert_eq!(report.responses.len(), 2);
/// assert!(report.responses.iter().all(|r| r.joints.len() == 57));
/// router.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ClusterRouter {
    config: ClusterConfig,
    senders: Vec<Sender<Command>>,
    workers: Vec<JoinHandle<()>>,
    sessions: BTreeMap<u64, usize>,
    /// Flush reports collected during a [`ClusterRouter::drain`] that failed
    /// on another shard; returned by the next successful drain so nothing a
    /// healthy shard already handed over is lost.
    carry: DrainReport,
    /// Persistent cluster-wide latency aggregate. Shard snapshots *drain*
    /// their recorders (take-and-clear), so each snapshot carries only the
    /// samples since the previous one; this recorder is where they
    /// accumulate across [`ClusterRouter::metrics`] calls.
    aggregate: LatencyRecorder,
    /// The adaptive backpressure controller; present only when the config
    /// enables it (`FUSE_ADAPTIVE=1`).
    adaptive: Option<AdaptiveController>,
}

impl ClusterRouter {
    /// Spawns `config.shards` worker threads, each serving a clone of
    /// `model` with the shared [`fuse_serve::ServeConfig`].
    ///
    /// The thread count and kernel backend the shards use are pinned to the
    /// *caller's* [`fuse_parallel::available_threads`] /
    /// [`fuse_backend::active_choice`] at construction time, so
    /// `with_threads(1, …)` / `with_backend(…)` test overrides propagate
    /// into the worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] for an invalid configuration
    /// and [`ClusterError::Serve`] carrying [`fuse_serve::ServeError::Graph`]
    /// when the model does not lower to a compiled plan.
    pub fn new(model: Sequential, config: ClusterConfig) -> Result<Self> {
        let shards = config.shards;
        Self::with_shards(model, config, (0..shards).map(|_| ShardSpec::Local).collect())
    }

    /// Like [`ClusterRouter::new`], but with per-shard placement: each
    /// [`ShardSpec::Local`] spawns an in-process worker serving a clone of
    /// `model`, each [`ShardSpec::Remote`] connects a translation thread to
    /// a [`crate::HostShard`] over the given transport. Mixed clusters are
    /// fine — the router drives every shard through the same contract, so
    /// the response stream stays bit-identical for any placement.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] for an invalid configuration
    /// or when `specs.len() != config.shards`, and [`ClusterError::Serve`]
    /// carrying [`fuse_serve::ServeError::Graph`] when a local shard's model
    /// does not lower to a compiled plan.
    pub fn with_shards(
        model: Sequential,
        config: ClusterConfig,
        specs: Vec<ShardSpec>,
    ) -> Result<Self> {
        config.validate()?;
        if specs.len() != config.shards {
            return Err(ClusterError::InvalidConfig(format!(
                "{} shard specs for {} shards",
                specs.len(),
                config.shards
            )));
        }
        let kernel_threads = fuse_parallel::available_threads();
        let kernel_min_work = fuse_parallel::min_parallel_work();
        let kernel_backend = fuse_backend::active_choice();
        let mut senders = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        for (shard, spec) in specs.into_iter().enumerate() {
            let (tx, handle) = match spec {
                ShardSpec::Local => {
                    let engine = ServeEngine::new(model.clone(), config.serve.clone())?;
                    let (tx, rx) = bounded(config.channel_capacity);
                    let worker = ShardWorker::new(
                        shard,
                        engine,
                        rx,
                        config.backpressure,
                        config.default_slo,
                        config.auto_step,
                        // Uncollected responses pause autonomous stepping at
                        // the transport bound, keeping an unpolled shard's
                        // memory bounded by channel + pending queues + this
                        // buffer.
                        config.channel_capacity,
                    );
                    let handle = std::thread::Builder::new()
                        .name(format!("fuse-cluster-shard-{shard}"))
                        .spawn(move || {
                            // Propagate the constructor thread's kernel
                            // overrides into the worker (they are
                            // thread-local, so the equivalence tests'
                            // `with_threads`/`with_min_parallel_work`/
                            // `with_backend` scopes would otherwise stop at
                            // the thread boundary).
                            fuse_parallel::with_threads(kernel_threads, || {
                                fuse_parallel::with_min_parallel_work(kernel_min_work, || {
                                    fuse_backend::with_backend(kernel_backend, || worker.run())
                                })
                            })
                        })
                        .expect("spawning shard worker failed");
                    (tx, handle)
                }
                ShardSpec::Remote(transport) => {
                    spawn_remote_shard(shard, transport, config.channel_capacity)
                }
            };
            senders.push(tx);
            workers.push(handle);
        }
        // Size the persistent aggregate to hold every shard's full window:
        // absorbing N full recorders into a default-sized one would evict
        // the earlier shards' samples and hide exactly the slow shard the
        // report exists to expose.
        let aggregate = LatencyRecorder::new(config.serve.budget_ms)
            .with_sample_window(config.shards.max(1) * DEFAULT_SAMPLE_WINDOW);
        let adaptive = config.adaptive.then(|| {
            AdaptiveController::new(
                &config.backpressure,
                AdaptiveConfig { budget_ms: config.serve.budget_ms, ..AdaptiveConfig::default() },
            )
        });
        Ok(ClusterRouter {
            config,
            senders,
            workers,
            sessions: BTreeMap::new(),
            carry: DrainReport::default(),
            aggregate,
            adaptive,
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of engine shards.
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// Number of open sessions across the cluster.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The shard a session id maps to. For an open session this is where it
    /// actually lives (which follows [`ClusterRouter::migrate_session`]);
    /// for an unopened id it is the deterministic default placement,
    /// `id % shards`.
    pub fn shard_of(&self, session_id: u64) -> usize {
        self.sessions
            .get(&session_id)
            .copied()
            .unwrap_or((session_id % self.config.shards as u64) as usize)
    }

    fn send(&self, shard: usize, command: Command, during: &'static str) -> Result<()> {
        self.senders[shard]
            .send(command)
            .map_err(|_| ClusterError::ShardUnavailable { shard, during })
    }

    fn recv_ack<T>(
        &self,
        shard: usize,
        ack: &fuse_parallel::channel::Receiver<T>,
        during: &'static str,
    ) -> Result<T> {
        ack.recv().map_err(|_| ClusterError::ShardUnavailable { shard, during })
    }

    /// Opens a session on its shard from a typed [`SessionConfig`]: the id
    /// picks the shard, the optional SLO class picks the backpressure the
    /// session is served under (unset classes inherit the cluster's
    /// `FUSE_SLO_DEFAULT`, when configured), and the optional fusion /
    /// feature-map overrides configure its streaming ops.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::DuplicateSession`] when the id is already open
    /// anywhere in the cluster and propagates the engine's validation of the
    /// config (e.g. a feature-map override with the wrong dimensions).
    pub fn open_session(&mut self, config: SessionConfig) -> Result<()> {
        let id = config.id();
        if self.sessions.contains_key(&id) {
            return Err(ClusterError::DuplicateSession(id));
        }
        let shard = self.shard_of(id);
        let (ack_tx, ack_rx) = bounded(1);
        self.send(shard, Command::Open { config, ack: ack_tx }, "open_session")?;
        self.recv_ack(shard, &ack_rx, "open_session")??;
        self.sessions.insert(id, shard);
        Ok(())
    }

    /// Closes a session, reporting any frames that were still queued for it.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownSession`] when the id is not open.
    pub fn close_session(&mut self, id: u64) -> Result<ClosedSession> {
        let shard = *self.sessions.get(&id).ok_or(ClusterError::UnknownSession(id))?;
        let (ack_tx, ack_rx) = bounded(1);
        self.send(shard, Command::Close { id, ack: ack_tx }, "close_session")?;
        let report = self.recv_ack(shard, &ack_rx, "close_session")??;
        self.sessions.remove(&id);
        Ok(ClosedSession {
            session_id: id,
            shard,
            adapted: report.adapted,
            unserved_frames: report.unserved,
        })
    }

    /// Submits one frame for a session: the frame is handed to the session's
    /// shard and the call returns — inference happens on the worker thread.
    /// Blocks only when the shard's transport channel is full.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownSession`] for an unopened id.
    pub fn submit(&mut self, id: u64, frame: PointCloudFrame) -> Result<()> {
        let shard = *self.sessions.get(&id).ok_or(ClusterError::UnknownSession(id))?;
        self.send(shard, Command::Submit { id, frame }, "submit")
    }

    /// Advances a session past a missing frame: the dropout becomes an
    /// explicit, deterministic state transition of the session's streaming
    /// ops instead of a silent gap. Fire-and-forget like
    /// [`ClusterRouter::submit`] — a lossy producer never waits on its
    /// dropouts.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownSession`] for an unopened id.
    pub fn tick(&mut self, id: u64) -> Result<()> {
        let shard = *self.sessions.get(&id).ok_or(ClusterError::UnknownSession(id))?;
        self.send(shard, Command::Tick { id }, "tick")
    }

    /// Collects whatever responses are ready right now, without waiting for
    /// queued frames, sorted by `(session id, frame index)`. Per session the
    /// stream is always in frame order; *which* frames are already answered
    /// depends on worker timing — use [`ClusterRouter::drain`] for the
    /// deterministic barrier.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardUnavailable`] when a worker is gone.
    pub fn poll_responses(&mut self) -> Result<Vec<ServeResponse>> {
        let mut acks = Vec::with_capacity(self.senders.len());
        for shard in 0..self.senders.len() {
            let (ack_tx, ack_rx) = bounded(1);
            self.send(shard, Command::Poll { ack: ack_tx }, "poll_responses")?;
            acks.push(ack_rx);
        }
        let mut responses = Vec::new();
        for (shard, ack) in acks.iter().enumerate() {
            responses.extend(self.recv_ack(shard, ack, "poll_responses")?);
        }
        responses.sort_by_key(|r| (r.session_id, r.frame_index));
        Ok(responses)
    }

    /// Barrier: every frame submitted before this call is served (or dropped
    /// / merged by backpressure), and everything produced since the last
    /// collection is returned re-sequenced by `(session id, frame index)`.
    ///
    /// The flush fans out to all shards in parallel and gathers in shard
    /// order, so for a given submit/drain schedule the report — responses,
    /// drops and merges alike — is bit-identical for any shard count, thread
    /// count and submission interleaving.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardUnavailable`] when a worker is gone and
    /// propagates the first engine failure of a shard as
    /// [`ClusterError::Serve`]. Even then, every *healthy* shard's flush is
    /// still received and retained, so the failed drain loses nothing: the
    /// next successful `drain` returns the carried responses and eviction
    /// records alongside the new ones.
    pub fn drain(&mut self) -> Result<DrainReport> {
        let mut acks = Vec::with_capacity(self.senders.len());
        for shard in 0..self.senders.len() {
            let (ack_tx, ack_rx) = bounded(1);
            self.send(shard, Command::Flush { ack: ack_tx }, "drain")?;
            acks.push(ack_rx);
        }
        // Gather EVERY shard's ack before propagating any error — an early
        // return would discard the flushes the healthy shards already took
        // out of their engines.
        let mut failure: Option<ClusterError> = None;
        for (shard, ack) in acks.iter().enumerate() {
            match self.recv_ack(shard, ack, "drain") {
                Ok(Ok(flush)) => {
                    self.carry.responses.extend(flush.responses);
                    self.carry.dropped.extend(flush.dropped);
                    self.carry.merged.extend(flush.merged);
                }
                Ok(Err(e)) if failure.is_none() => failure = Some(ClusterError::from(e)),
                Err(e) if failure.is_none() => failure = Some(e),
                _ => {}
            }
        }
        if let Some(error) = failure {
            return Err(error);
        }
        let mut report = std::mem::take(&mut self.carry);
        report.responses.sort_by_key(|r| (r.session_id, r.frame_index));
        report.dropped.sort_unstable();
        report.merged.sort_unstable();
        Ok(report)
    }

    /// Fine-tunes a session online on its shard (see
    /// [`ServeEngine::adapt_session`]); blocks until the adaptation finished.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownSession`] for an unopened id and
    /// propagates fine-tuning errors.
    pub fn adapt_session(
        &mut self,
        id: u64,
        data: &EncodedDataset,
        config: &FineTuneConfig,
    ) -> Result<FineTuneResult> {
        let shard = *self.sessions.get(&id).ok_or(ClusterError::UnknownSession(id))?;
        let (ack_tx, ack_rx) = bounded(1);
        let command =
            Command::Adapt { id, data: Arc::new(data.clone()), config: *config, ack: ack_tx };
        self.send(shard, command, "adapt_session")?;
        Ok(self.recv_ack(shard, &ack_rx, "adapt_session")??)
    }

    /// Moves a live session — fusion history, private fine-tuned plan and
    /// still-pending frames — to `target_shard`, which may be local or
    /// remote. The session's state travels bit-exactly (parameters as their
    /// `FCKP` bit patterns, featurized tensors as-is), so every response
    /// after the migration is byte-identical to what the session would have
    /// produced had it never moved.
    ///
    /// Routing for the session follows the move: `submit`/`adapt`/`close`
    /// consult the live session map, not the `id % shards` default, so a
    /// migrated session keeps serving from its new home.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownSession`] for an unopened id,
    /// [`ClusterError::InvalidConfig`] for an out-of-range target, and
    /// propagates shard failures. If installing on the target fails, the
    /// state is restored onto the source shard before the error returns.
    pub fn migrate_session(&mut self, id: u64, target_shard: usize) -> Result<()> {
        let source = *self.sessions.get(&id).ok_or(ClusterError::UnknownSession(id))?;
        if target_shard >= self.senders.len() {
            return Err(ClusterError::InvalidConfig(format!(
                "migration target shard {target_shard} out of range (cluster has {})",
                self.senders.len()
            )));
        }
        if source == target_shard {
            return Ok(());
        }
        let (ack_tx, ack_rx) = bounded(1);
        self.send(source, Command::Export { id, ack: ack_tx }, "migrate_session export")?;
        let state = self.recv_ack(source, &ack_rx, "migrate_session export")??;
        // The session is now closed on its source shard; until the import
        // acks, the only copy lives in `state`.
        self.sessions.remove(&id);
        let (ack_tx, ack_rx) = bounded(1);
        self.send(
            target_shard,
            Command::Import { state: state.clone(), ack: ack_tx },
            "migrate_session import",
        )?;
        match self.recv_ack(target_shard, &ack_rx, "migrate_session import")? {
            Ok(()) => {
                self.sessions.insert(id, target_shard);
                Ok(())
            }
            Err(e) => {
                // Put the session back where it came from so a rejected
                // migration is observable but not destructive.
                let (ack_tx, ack_rx) = bounded(1);
                self.send(
                    source,
                    Command::Import { state, ack: ack_tx },
                    "migrate_session restore",
                )?;
                self.recv_ack(source, &ack_rx, "migrate_session restore")??;
                self.sessions.insert(id, source);
                Err(ClusterError::Serve(e))
            }
        }
    }

    /// Atomically hot-swaps a `fuse-nn` checkpoint (JSON or binary) into
    /// **every** shard: phase one validates the checkpoint on each shard
    /// without touching its served weights
    /// ([`ServeEngine::prepare_hot_swap`]); only when all shards accept does
    /// phase two commit — so either the whole cluster serves the new weights
    /// (every shard's version bumped together) or no shard does.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::SwapAborted`] naming the first shard that
    /// rejected the checkpoint; the cluster keeps serving the old weights.
    pub fn hot_swap(&mut self, path: &Path) -> Result<SwapReport> {
        self.fan_out_swap(SwapSource::Checkpoint(Arc::new(read_swap_payload(path)?)))
    }

    /// Atomically hot-swaps a serialized `.fplan` compiled-plan artifact
    /// (written by [`ServeEngine::export_plan`]) into **every** shard, with
    /// the same two-phase all-or-nothing fan-out as
    /// [`ClusterRouter::hot_swap`] — each shard validates the artifact
    /// against its served model and engine geometry
    /// ([`ServeEngine::prepare_hot_swap_plan`]) before any shard commits.
    /// Unlike a checkpoint swap, the shards install the artifact's compiled
    /// schedule directly: no per-shard recompilation after commit.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::SwapAborted`] naming the first shard that
    /// rejected the artifact; the cluster keeps serving the old weights.
    pub fn hot_swap_plan(&mut self, path: &Path) -> Result<SwapReport> {
        let name =
            path.file_stem().and_then(|s| s.to_str()).unwrap_or("fplan-artifact").to_string();
        let bytes = Arc::new(read_swap_payload(path)?);
        self.fan_out_swap(SwapSource::PlanArtifact { bytes, name })
    }

    /// The shared two-phase fan-out behind both swap flavours. The payload
    /// was read from disk exactly once; every shard — in-process or remote —
    /// validates the same bytes.
    fn fan_out_swap(&mut self, source: SwapSource) -> Result<SwapReport> {
        // Phase 1: validate everywhere, commit nowhere.
        let mut acks = Vec::with_capacity(self.senders.len());
        for shard in 0..self.senders.len() {
            let (ack_tx, ack_rx) = bounded(1);
            let command = Command::PrepareSwap { source: source.clone(), ack: ack_tx };
            self.send(shard, command, "hot_swap prepare")?;
            acks.push(ack_rx);
        }
        let mut meta = None;
        let mut rejection = None;
        for (shard, ack) in acks.iter().enumerate() {
            match self.recv_ack(shard, ack, "hot_swap prepare")? {
                Ok(m) => meta = Some(m),
                Err(e) if rejection.is_none() => rejection = Some((shard, e)),
                Err(_) => {}
            }
        }
        if let Some((shard, source)) = rejection {
            for s in 0..self.senders.len() {
                self.send(s, Command::AbortSwap, "hot_swap abort")?;
            }
            return Err(ClusterError::SwapAborted { shard, source });
        }
        // Phase 2: every shard accepted; commits cannot fail.
        let mut acks = Vec::with_capacity(self.senders.len());
        for shard in 0..self.senders.len() {
            let (ack_tx, ack_rx) = bounded(1);
            self.send(shard, Command::CommitSwap { ack: ack_tx }, "hot_swap commit")?;
            acks.push(ack_rx);
        }
        let mut version = 0;
        for (shard, ack) in acks.iter().enumerate() {
            version = self.recv_ack(shard, ack, "hot_swap commit")?;
        }
        let meta = meta.expect("at least one shard prepared");
        Ok(SwapReport { model_name: meta.model_name, param_len: meta.param_len, version })
    }

    /// Snapshots every shard and returns the aggregated cluster metrics:
    /// per-shard queue-depth gauges and policy counters, plus one
    /// cluster-level latency report built by absorbing each shard's drained
    /// samples — in shard order — into the router's persistent aggregate
    /// ([`LatencyRecorder::absorb`]). Shards hand their samples over
    /// exactly once ([`LatencyRecorder::drain`]), so repeated `metrics`
    /// calls never double-count a sample no matter how often they run.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardUnavailable`] when a worker is gone.
    pub fn metrics(&mut self) -> Result<ClusterMetrics> {
        let mut acks = Vec::with_capacity(self.senders.len());
        for shard in 0..self.senders.len() {
            let (ack_tx, ack_rx) = bounded(1);
            self.send(shard, Command::Snapshot { ack: ack_tx }, "metrics")?;
            acks.push(ack_rx);
        }
        let mut shards = Vec::with_capacity(acks.len());
        for (shard, ack) in acks.iter().enumerate() {
            let snapshot = self.recv_ack(shard, ack, "metrics")?;
            self.aggregate.absorb(&snapshot.recorder);
            shards.push(snapshot.gauge);
        }
        Ok(ClusterMetrics { report: self.aggregate.report(), shards })
    }

    /// Runs one adaptive-backpressure control step: snapshots the cluster
    /// metrics, feeds the observed end-to-end p99 to the
    /// [`AdaptiveController`], and fans any changed effective capacities out
    /// to every shard (blocking until each shard acks, so the new
    /// capacities are in force when this returns). Returns the updates that
    /// were applied — empty when adaptation is disabled, when no end-to-end
    /// samples were recorded yet, or when the p99 sits inside the
    /// hysteresis band.
    ///
    /// The step is explicit (no background timer) and the controller is a
    /// pure function of the observation sequence, so a given workload +
    /// autotune schedule always produces the same capacity schedule — see
    /// `REPRODUCIBILITY.md` for what adaptive mode may and may not change.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardUnavailable`] when a worker is gone.
    pub fn autotune(&mut self) -> Result<Vec<CapacityUpdate>> {
        if self.adaptive.is_none() {
            return Ok(Vec::new());
        }
        let metrics = self.metrics()?;
        let p99 = metrics
            .report
            .stages
            .iter()
            .find(|(stage, _)| *stage == Stage::Total)
            .map(|(_, stats)| stats.p99_ms);
        let Some(p99) = p99 else { return Ok(Vec::new()) };
        let controller = self.adaptive.as_mut().expect("checked above");
        let updates = controller.observe(p99);
        for update in &updates {
            let mut acks = Vec::with_capacity(self.senders.len());
            for shard in 0..self.senders.len() {
                let (ack_tx, ack_rx) = bounded(1);
                let command = Command::SetCapacity {
                    class: update.class,
                    queue_capacity: update.queue_capacity,
                    ack: ack_tx,
                };
                self.send(shard, command, "autotune")?;
                acks.push(ack_rx);
            }
            for (shard, ack) in acks.iter().enumerate() {
                self.recv_ack(shard, ack, "autotune")?;
            }
        }
        Ok(updates)
    }

    /// The current effective queue capacity of an SLO class: the adaptive
    /// controller's value when adaptation is enabled, the static spec's
    /// resolution otherwise.
    pub fn effective_capacity(&self, class: fuse_serve::SloClass) -> usize {
        match &self.adaptive {
            Some(controller) => controller.capacity(class),
            None => self.config.backpressure.resolve(Some(class)).queue_capacity,
        }
    }

    /// Shuts the cluster down: closes every command channel and joins the
    /// worker threads.
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        self.senders.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ClusterRouter {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Reads a swap payload (checkpoint or plan artifact) off disk, once.
fn read_swap_payload(path: &Path) -> Result<Vec<u8>> {
    std::fs::read(path).map_err(|e| {
        ClusterError::Serve(ServeError::Nn(NnError::Serialization(format!(
            "read {}: {e}",
            path.display()
        ))))
    })
}
