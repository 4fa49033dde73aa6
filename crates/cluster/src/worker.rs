//! Per-shard worker loops.
//!
//! Each shard owns one [`ServeEngine`] driven by a dedicated worker thread.
//! The router talks to it exclusively through a bounded command channel
//! ([`fuse_parallel::channel`]): submits are fire-and-forget (the async
//! ingestion path — a radar I/O thread never waits for inference), while
//! control commands carry a one-shot ack channel. Commands are handled in
//! FIFO order, which is what makes a flush a barrier: a `Flush` enqueued
//! after N submits is only handled once all N frames are in the engine.
//!
//! When the command queue is idle and `auto_step` is on, the worker steps its
//! engine on its own — responses accumulate in the engine's ready buffer
//! until the router collects them with a `Poll` or `Flush`.
//!
//! **Backpressure** is applied here, when a submit is about to enqueue onto a
//! session whose pending queue is at capacity. The `(policy, capacity)` pair
//! is resolved *per session* from the cluster's [`BackpressureSpec`] by the
//! session's SLO class: `Block` serves backlog first, `DropOldest` evicts the
//! session's oldest pending frame, `MergeFrames` collapses the burst to its
//! newest frame. Every eviction is logged (and surfaced through
//! [`crate::ClusterMetrics`]); in a lockstep schedule the decisions are a
//! pure function of the submit/drain sequence, which the backpressure golden
//! tests pin. When the adaptive controller is enabled, the router pushes
//! `SetCapacity` commands that override a class's *effective* capacity on
//! this shard (the policy never changes adaptively).

use std::collections::BTreeMap;
use std::sync::Arc;

use fuse_core::FineTuneConfig;
use fuse_dataset::EncodedDataset;
use fuse_nn::Checkpoint;
use fuse_parallel::channel::{Receiver, Sender, TryRecvError};
use fuse_radar::PointCloudFrame;
use fuse_serve::{
    PreparedSwap, ServeEngine, ServeError, ServeResponse, SessionConfig, SessionState, SloClass,
};

use crate::config::{BackpressurePolicy, BackpressureSpec, ClassBackpressure};
use crate::metrics::ShardGauge;

/// Result alias for shard-level operations.
pub(crate) type ShardResult<T> = std::result::Result<T, ServeError>;

/// Outcome of closing a session on its shard.
#[derive(Debug)]
pub(crate) struct CloseReport {
    /// Whether the closed session had been adapted to a private plan.
    pub adapted: bool,
    /// Frame indices that were still queued (returned by the engine, not
    /// silently dropped).
    pub unserved: Vec<u64>,
}

/// Everything a shard hands back on a flush barrier.
#[derive(Debug)]
pub(crate) struct FlushReport {
    /// All responses produced since the last collection.
    pub responses: Vec<ServeResponse>,
    /// `(session, frame)` pairs dropped by `DropOldest` since the last flush.
    pub dropped: Vec<(u64, u64)>,
    /// `(session, frame)` pairs merged away by `MergeFrames` since the last
    /// flush.
    pub merged: Vec<(u64, u64)>,
}

/// Checkpoint metadata acknowledged by a successful swap preparation.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointMeta {
    pub model_name: String,
    pub param_len: usize,
}

/// What a fan-out hot-swap loads on every shard.
///
/// Swap payloads travel as **bytes**, not paths: the router reads the file
/// once and fans the same buffer out to every shard (local workers and
/// remote hosts alike), so all shards validate byte-identical input and a
/// remote shard needs no shared filesystem.
#[derive(Debug, Clone)]
pub(crate) enum SwapSource {
    /// A `fuse-nn` checkpoint (`FCKP` binary or JSON): weights only, each
    /// shard recompiles its plan after commit.
    Checkpoint(Arc<Vec<u8>>),
    /// A serialized `.fplan` compiled-plan artifact: weights *and* schedule,
    /// installed on each shard without recompilation. Carries the model name
    /// recorded for diagnostics (derived from the file stem).
    PlanArtifact { bytes: Arc<Vec<u8>>, name: String },
}

/// A shard's metrics snapshot: its recorder plus gauges.
#[derive(Debug)]
pub(crate) struct ShardSnapshot {
    pub recorder: fuse_serve::LatencyRecorder,
    pub gauge: ShardGauge,
}

/// Commands a router sends to a shard worker.
pub(crate) enum Command {
    Open {
        config: SessionConfig,
        ack: Sender<ShardResult<()>>,
    },
    Close {
        id: u64,
        ack: Sender<ShardResult<CloseReport>>,
    },
    Submit {
        id: u64,
        frame: PointCloudFrame,
    },
    /// A missing-frame tick: advances the session's streaming-op state
    /// deterministically without producing a response. Fire-and-forget like
    /// `Submit`, so a lossy producer never waits on its dropouts.
    Tick {
        id: u64,
    },
    /// Override one SLO class's *effective* queue capacity on this shard
    /// (pushed by the router's adaptive controller; the policy is fixed).
    SetCapacity {
        class: SloClass,
        queue_capacity: usize,
        ack: Sender<()>,
    },
    Adapt {
        id: u64,
        data: Arc<EncodedDataset>,
        config: FineTuneConfig,
        ack: Sender<ShardResult<Vec<f32>>>,
    },
    Flush {
        ack: Sender<ShardResult<FlushReport>>,
    },
    Poll {
        ack: Sender<Vec<ServeResponse>>,
    },
    Snapshot {
        ack: Sender<ShardSnapshot>,
    },
    PrepareSwap {
        source: SwapSource,
        ack: Sender<ShardResult<CheckpointMeta>>,
    },
    CommitSwap {
        ack: Sender<u64>,
    },
    AbortSwap,
    /// Extract a session's full state (history, private plan's weights,
    /// pending frames) for migration; the session closes on this shard.
    Export {
        id: u64,
        ack: Sender<ShardResult<Box<SessionState>>>,
    },
    /// Install a migrated session's state, bit-exact.
    Import {
        state: Box<SessionState>,
        ack: Sender<ShardResult<()>>,
    },
}

/// State of one shard's worker loop (see the module docs).
pub(crate) struct ShardWorker {
    shard: usize,
    engine: ServeEngine,
    rx: Receiver<Command>,
    /// Static per-class backpressure (cluster default + overrides/presets).
    spec: BackpressureSpec,
    /// SLO class applied to sessions opened without one (`FUSE_SLO_DEFAULT`).
    default_slo: Option<SloClass>,
    /// Adaptive *effective* capacity per class, pushed by `SetCapacity`;
    /// absent classes use the static spec. Only capacities adapt — the
    /// policy always comes from the spec.
    effective_capacity: BTreeMap<SloClass, usize>,
    auto_step: bool,
    /// Autonomous stepping pauses once this many responses sit uncollected
    /// in the engine's ready buffer: without the pause, a producer that
    /// submits but never polls would grow `ready` without limit while the
    /// backpressure policy never fires (auto-stepping keeps the pending
    /// queue below capacity). Pausing lets the pending queue fill instead,
    /// so the configured policy bounds the whole shard.
    ready_limit: usize,
    prepared: Option<PreparedSwap>,
    /// First engine failure since the last flush; surfaced on the next ack.
    failed: Option<ServeError>,
    dropped_log: Vec<(u64, u64)>,
    merged_log: Vec<(u64, u64)>,
    dropped_total: u64,
    merged_total: u64,
    blocked_total: u64,
    steps_total: u64,
    responses_total: u64,
}

impl ShardWorker {
    pub(crate) fn new(
        shard: usize,
        engine: ServeEngine,
        rx: Receiver<Command>,
        spec: BackpressureSpec,
        default_slo: Option<SloClass>,
        auto_step: bool,
        ready_limit: usize,
    ) -> Self {
        ShardWorker {
            shard,
            engine,
            rx,
            spec,
            default_slo,
            effective_capacity: BTreeMap::new(),
            auto_step,
            ready_limit,
            prepared: None,
            failed: None,
            dropped_log: Vec::new(),
            merged_log: Vec::new(),
            dropped_total: 0,
            merged_total: 0,
            blocked_total: 0,
            steps_total: 0,
            responses_total: 0,
        }
    }

    /// Runs the worker loop until every router-side sender is dropped.
    pub(crate) fn run(mut self) {
        loop {
            let command = if self.auto_step
                && self.engine.pending_len() > 0
                && self.engine.ready_len() < self.ready_limit
            {
                // Work is queued and there is room for its responses: prefer
                // a waiting command (FIFO), otherwise step the engine
                // instead of idling.
                match self.rx.try_recv() {
                    Ok(command) => command,
                    Err(TryRecvError::Empty) => {
                        self.step_once();
                        continue;
                    }
                    Err(TryRecvError::Disconnected) => break,
                }
            } else {
                match self.rx.recv() {
                    Ok(command) => command,
                    Err(_) => break,
                }
            };
            self.handle(command);
        }
    }

    fn step_once(&mut self) {
        match self.engine.step() {
            Ok(produced) => {
                self.steps_total += 1;
                self.responses_total += produced as u64;
            }
            Err(e) => {
                self.failed.get_or_insert(e);
            }
        }
    }

    /// The backpressure a session is subject to on this shard: its SLO
    /// class's spec entry (override → preset → cluster default), with the
    /// capacity replaced by any adaptive `SetCapacity` push for the class.
    fn backpressure_for(&self, id: u64) -> ClassBackpressure {
        let class = self.engine.session(id).and_then(|s| s.slo_class());
        let mut resolved = self.spec.resolve(class);
        if let Some(class) = class {
            if let Some(&capacity) = self.effective_capacity.get(&class) {
                resolved.queue_capacity = capacity;
            }
        }
        resolved
    }

    /// Applies the session's backpressure for a frame about to join `id`'s
    /// queue, then submits it.
    fn handle_submit(&mut self, id: u64, frame: PointCloudFrame) {
        let ClassBackpressure { policy, queue_capacity } = self.backpressure_for(id);
        if self.engine.pending_for(id) >= queue_capacity {
            match policy {
                BackpressurePolicy::Block => {
                    self.blocked_total += 1;
                    while self.engine.pending_for(id) >= queue_capacity && self.failed.is_none() {
                        self.step_once();
                    }
                }
                BackpressurePolicy::DropOldest => {
                    while self.engine.pending_for(id) >= queue_capacity {
                        match self.engine.drop_oldest_pending(id) {
                            Some(frame_index) => {
                                self.dropped_total += 1;
                                self.dropped_log.push((id, frame_index));
                            }
                            None => break,
                        }
                    }
                }
                BackpressurePolicy::MergeFrames => {
                    let merged = self.engine.merge_pending(id);
                    self.merged_total += merged.len() as u64;
                    self.merged_log.extend(merged.into_iter().map(|frame_index| (id, frame_index)));
                }
            }
        }
        if let Err(e) = self.engine.submit(id, frame) {
            self.failed.get_or_insert(e);
        }
    }

    fn gauge(&self) -> ShardGauge {
        let depths = self.engine.queue_depths();
        ShardGauge {
            shard: self.shard,
            sessions: self.engine.session_count(),
            queue_depth: self.engine.pending_len(),
            // Deepest queue, ties broken by the smaller session id (iterate
            // in id order and require a strictly deeper queue to replace).
            deepest_queue: depths.iter().fold(None, |best, (&id, &depth)| match best {
                Some((_, d)) if d >= depth => best,
                _ => Some((id, depth)),
            }),
            ready: self.engine.ready_len(),
            dropped_frames: self.dropped_total,
            merged_frames: self.merged_total,
            blocked_submits: self.blocked_total,
            steps: self.steps_total,
            responses: self.responses_total,
            model_version: self.engine.model_version(),
        }
    }

    fn handle(&mut self, command: Command) {
        match command {
            Command::Open { config, ack } => {
                // Sessions opened without a class inherit the cluster's
                // FUSE_SLO_DEFAULT (when set); an explicit class wins.
                let config = match (config.slo_class(), self.default_slo) {
                    (None, Some(class)) => config.slo(class),
                    _ => config,
                };
                let result = self.engine.open_session(config).map(|_| ());
                let _ = ack.send(result);
            }
            Command::Close { id, ack } => {
                let result = self.engine.close_session(id).map(|(session, unserved)| CloseReport {
                    adapted: session.is_adapted(),
                    unserved: unserved.iter().map(|p| p.frame_index()).collect(),
                });
                let _ = ack.send(result);
            }
            Command::Submit { id, frame } => self.handle_submit(id, frame),
            Command::Tick { id } => {
                if let Err(e) = self.engine.tick(id) {
                    self.failed.get_or_insert(e);
                }
            }
            Command::SetCapacity { class, queue_capacity, ack } => {
                self.effective_capacity.insert(class, queue_capacity);
                let _ = ack.send(());
            }
            Command::Adapt { id, data, config, ack } => {
                let _ = ack.send(self.engine.adapt_session(id, &data, &config));
            }
            Command::Flush { ack } => {
                while self.engine.pending_len() > 0 && self.failed.is_none() {
                    self.step_once();
                }
                let result = match self.failed.take() {
                    Some(e) => Err(e),
                    None => Ok(FlushReport {
                        responses: self.engine.take_responses(),
                        dropped: std::mem::take(&mut self.dropped_log),
                        merged: std::mem::take(&mut self.merged_log),
                    }),
                };
                let _ = ack.send(result);
            }
            Command::Poll { ack } => {
                let _ = ack.send(self.engine.take_responses());
            }
            Command::Snapshot { ack } => {
                // Hand over the samples, don't copy them: the router absorbs
                // each snapshot into its persistent aggregate, and a clone
                // here would double-count every sample still in the window
                // on the next snapshot.
                let snapshot = ShardSnapshot {
                    recorder: self.engine.recorder_mut().drain(),
                    gauge: self.gauge(),
                };
                let _ = ack.send(snapshot);
            }
            Command::PrepareSwap { source, ack } => {
                let prepared = match &source {
                    SwapSource::Checkpoint(bytes) => Checkpoint::from_bytes(bytes)
                        .map_err(ServeError::from)
                        .and_then(|ckpt| self.engine.prepare_hot_swap_checkpoint(ckpt)),
                    SwapSource::PlanArtifact { bytes, name } => {
                        self.engine.prepare_hot_swap_plan_bytes(bytes, name)
                    }
                };
                let result = prepared.map(|prepared| {
                    let meta = CheckpointMeta {
                        model_name: prepared.checkpoint().model_name.clone(),
                        param_len: prepared.checkpoint().param_len,
                    };
                    self.prepared = Some(prepared);
                    meta
                });
                let _ = ack.send(result);
            }
            Command::CommitSwap { ack } => {
                if let Some(prepared) = self.prepared.take() {
                    self.engine.commit_hot_swap(prepared);
                }
                let _ = ack.send(self.engine.model_version());
            }
            Command::AbortSwap => {
                self.prepared = None;
            }
            Command::Export { id, ack } => {
                let _ = ack.send(self.engine.export_session(id).map(Box::new));
            }
            Command::Import { state, ack } => {
                let _ = ack.send(self.engine.reopen_with_history(*state));
            }
        }
    }
}
