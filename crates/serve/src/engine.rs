//! The streaming inference engine.
//!
//! [`ServeEngine`] turns the ad-hoc per-frame loop of the `realtime_edge`
//! example into a reusable subsystem:
//!
//! * **Sessions** — each client holds its own fusion history and, after
//!   online adaptation, a private plan compiled from its fine-tuned weights
//!   ([`Session`]).
//! * **Micro-batching** — frames submitted between two [`ServeEngine::step`]
//!   calls are featurized on arrival and queued; `step` stacks every pending
//!   frame of base-model sessions into one `[N, C, H, W]` forward pass (the
//!   kernels underneath run on the `fuse-parallel` pool), while adapted
//!   sessions run one stacked pass per private plan.
//! * **Determinism with fairness** — pending frames are scheduled
//!   round-robin across sessions (per-session queue rank, oldest first, ties
//!   by session id), so a flooding session cannot starve the others past
//!   `max_batch`; the schedule never depends on arrival order, and every
//!   per-sample kernel in the stack is batch-composition independent, so the
//!   responses of a step are bit-identical for any submission interleaving
//!   and any `FUSE_THREADS`.
//! * **Compiled execution plans** — at construction (and again after every
//!   hot-swap or adaptation) the served model is lowered to a `fuse-graph`
//!   op graph and compiled into an [`ExecPlan`]: fused conv+bias+ReLU
//!   dispatches, pre-planned arena buffers, zero steady-state allocations.
//!   Plans are the only executor: every frame, base or adapted, is served
//!   by one, bit-identical to [`Sequential::forward`] by contract. A model
//!   that does not lower is a typed [`ServeError::Graph`] at construction.
//! * **Checkpoint & plan-artifact hot-swap** — [`ServeEngine::hot_swap`]
//!   loads a `fuse-nn` checkpoint (JSON or binary) into the shared base
//!   model without touching adapted sessions; the checkpoint is validated
//!   against the compiled plan's shape signature first, so a corrupt
//!   checkpoint leaves the engine serving the old weights.
//!   [`ServeEngine::export_plan`] /
//!   [`ServeEngine::hot_swap_plan`] do the same with a serialized `.fplan`
//!   compiled-plan artifact, which carries the schedule alongside the
//!   weights and installs without recompiling.
//!   [`ServeEngine::export_quantized_plan`] writes the int8 weight-quantized
//!   variant (format v2); hot-swapping such an artifact installs the
//!   quantized plan and applies its dequantized weights to the base model,
//!   so the engine serves int8 end to end under the relaxed contract.
//! * **Latency accounting** — fusion, featurization, inference and
//!   submit-to-response totals are recorded per frame against the 100 ms
//!   frame budget ([`crate::LatencyRecorder`]).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use fuse_core::{adapt, FineTuneConfig};
use fuse_dataset::{EncodedDataset, FeatureMapBuilder, FrameFusion};
use fuse_graph::{ExecPlan, GraphError};
use fuse_nn::{Checkpoint, LoweringRequest, Sequential};
use fuse_radar::PointCloudFrame;
use fuse_tensor::Tensor;

use crate::error::ServeError;
use crate::latency::{LatencyRecorder, Stage, DEFAULT_BUDGET_MS};
use crate::session::{Session, SessionConfig, SloClass};
use crate::Result;

/// Engine-wide serving parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Multi-frame fusion applied to every session's history.
    pub fusion: FrameFusion,
    /// Feature-map geometry (must match the served model's input).
    pub feature_map: FeatureMapBuilder,
    /// Per-frame latency budget in milliseconds (100 ms at 10 Hz).
    pub budget_ms: f64,
    /// Maximum number of pending frames one [`ServeEngine::step`] consumes;
    /// excess frames stay queued for the next step.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            fusion: FrameFusion::default(),
            feature_map: FeatureMapBuilder::default(),
            budget_ms: DEFAULT_BUDGET_MS,
            max_batch: 64,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero micro-batch cap or a
    /// non-positive budget.
    pub fn validate(&self) -> Result<()> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be nonzero".into()));
        }
        if !self.budget_ms.is_finite() || self.budget_ms <= 0.0 {
            return Err(ServeError::InvalidConfig("budget_ms must be positive".into()));
        }
        Ok(())
    }
}

/// One inference result produced by [`ServeEngine::step`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// Session the frame belonged to.
    pub session_id: u64,
    /// Lifetime index of the frame within its session.
    pub frame_index: u64,
    /// Version of the shared base model at inference time.
    pub model_version: u64,
    /// `true` when the prediction came from the session's private plan.
    pub adapted: bool,
    /// Predicted joint coordinates (57 values: 19 joints × x/y/z).
    pub joints: Vec<f32>,
}

/// One forward-pass group: `(session id, frame index)` response keys paired
/// with the feature tensors to stack, in matching order.
type ForwardGroup = (Vec<(u64, u64)>, Vec<Tensor>);

/// A featurized frame waiting for the next micro-batch.
///
/// Pending frames become visible outside the engine when a session is closed
/// with work still queued ([`ServeEngine::close_session`] returns them so a
/// router can account for or re-route the unserved work instead of silently
/// losing it).
#[derive(Debug)]
pub struct PendingFrame {
    session_id: u64,
    frame_index: u64,
    features: Tensor,
    submitted: Instant,
}

impl PendingFrame {
    /// Session the frame belongs to.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Lifetime index of the frame within its session.
    pub fn frame_index(&self) -> u64 {
        self.frame_index
    }

    /// The featurized `[C, H, W]` input tensor built at submit time.
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// When the frame was submitted.
    pub fn submitted(&self) -> Instant {
        self.submitted
    }
}

/// A checkpoint validated against the engine's architecture but not yet
/// applied (see [`ServeEngine::prepare_hot_swap`]).
///
/// Holding a `PreparedSwap` means the checkpoint decoded cleanly and its
/// layout matches the served model; committing it cannot fail. A cluster
/// router uses this split to fan a swap out atomically: *prepare* on every
/// shard, and only if all of them succeed, *commit* on all — so either every
/// shard serves the new weights or none does.
///
/// Validation runs against the compiled plan's
/// [`fuse_graph::ShapeSignature`]; no candidate model is materialised, and
/// commit applies the checkpoint's flat parameters directly.
#[derive(Debug)]
pub struct PreparedSwap {
    checkpoint: Checkpoint,
    /// A deserialized `.fplan` artifact ([`ServeEngine::prepare_hot_swap_plan`]);
    /// commit installs it directly instead of recompiling the model.
    plan: Option<ExecPlan>,
}

impl PreparedSwap {
    /// Metadata of the validated checkpoint.
    pub fn checkpoint(&self) -> &Checkpoint {
        &self.checkpoint
    }
}

/// Everything needed to rebuild one session on another engine with
/// bit-identical subsequent outputs ([`ServeEngine::export_session`] /
/// [`ServeEngine::reopen_with_history`]).
///
/// The state is deliberately *model-relative*: an adapted session's private
/// weights travel as an `FCKP` [`Checkpoint`] (the same container the
/// hot-swap fan-out ships), and the receiving engine compiles the private
/// plan from a clone of its base architecture with the checkpoint applied —
/// so a migration is validated by exactly the checks a hot-swap is.
#[derive(Debug, Clone)]
pub struct SessionState {
    /// The session id.
    pub id: u64,
    /// The session's service-level class, when one was configured (the
    /// receiving cluster re-applies its backpressure preset).
    pub slo: Option<SloClass>,
    /// The session's fusion window. Overrides change which frames fuse, so
    /// they must travel with the session for outputs to stay bit-identical.
    pub fusion: FrameFusion,
    /// Lifetime frame count at export time; subsequent frames continue the
    /// index sequence exactly where the source host stopped.
    pub frames_seen: u64,
    /// Lifetime cadence-slot count at export time (frames + missing-frame
    /// ticks).
    pub ticks_seen: u64,
    /// The retained frames of the fusion delay line, oldest first (at most
    /// the fusion window's `M + 1`; ticks excluded — see
    /// [`SessionState::slot_mask`]).
    pub history: Vec<PointCloudFrame>,
    /// One boolean per occupied delay-line slot, oldest first: `true` for a
    /// retained frame (the next entry of [`SessionState::history`]), `false`
    /// for a missing-frame tick. Replaying this mask rebuilds the delay line
    /// bit-exactly, dropout gaps included.
    pub slot_mask: Vec<bool>,
    /// The session's private fine-tuned weights as an `FCKP`-serializable
    /// checkpoint; `None` for a session serving the shared base model.
    pub checkpoint: Option<Checkpoint>,
    /// Frames that were featurized but not yet served at export time, as
    /// `(frame index, feature tensor)` in frame-index order. Carrying the
    /// tensors (rather than refeaturizing) keeps the unserved work
    /// bit-identical to what the source host would have served.
    pub pending: Vec<(u64, Tensor)>,
}

/// Sessionized streaming inference engine (see the module docs).
#[derive(Debug)]
pub struct ServeEngine {
    config: ServeConfig,
    base: Sequential,
    /// Compiled execution plan of the base model, rebuilt (or installed from
    /// an artifact) on every hot-swap.
    base_plan: ExecPlan,
    /// Reusable `[max_batch × C·H·W]` input staging buffer for plan runs, so
    /// stacking a micro-batch allocates nothing in steady state.
    staging: Vec<f32>,
    model_version: u64,
    sessions: BTreeMap<u64, Session>,
    pending: Vec<PendingFrame>,
    ready: Vec<ServeResponse>,
    recorder: LatencyRecorder,
}

impl ServeEngine {
    /// Creates an engine serving `model` with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the configuration is
    /// invalid and [`ServeError::Graph`] when the model does not lower to a
    /// plan for the configured feature geometry (a layer without an op-graph
    /// lowering, or shapes that do not chain).
    pub fn new(model: Sequential, config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let recorder = LatencyRecorder::new(config.budget_ms);
        let base_plan = compile_plan(&model, &config)?;
        let input_len: usize = config.feature_map.input_dims().iter().product();
        let staging = vec![0.0; config.max_batch * input_len];
        Ok(ServeEngine {
            config,
            base: model,
            base_plan,
            staging,
            model_version: 0,
            sessions: BTreeMap::new(),
            pending: Vec::new(),
            ready: Vec::new(),
            recorder,
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The shared base model.
    pub fn base_model(&self) -> &Sequential {
        &self.base
    }

    /// The compiled execution plan of the base model; recompiled on every
    /// [`ServeEngine::hot_swap`]. Always `Some`: an engine cannot exist
    /// without its plan.
    pub fn plan(&self) -> Option<&ExecPlan> {
        Some(&self.base_plan)
    }

    /// Version counter of the shared base model; each successful
    /// [`ServeEngine::hot_swap`] increments it.
    pub fn model_version(&self) -> u64 {
        self.model_version
    }

    /// The latency recorder.
    pub fn recorder(&self) -> &LatencyRecorder {
        &self.recorder
    }

    /// Mutable access to the latency recorder (e.g. to clear it between
    /// measurement phases).
    pub fn recorder_mut(&mut self) -> &mut LatencyRecorder {
        &mut self.recorder
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Number of frames queued for the next step.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of frames queued for the next step that belong to `session_id`
    /// — the per-session queue depth backpressure policies act on.
    pub fn pending_for(&self, session_id: u64) -> usize {
        self.pending.iter().filter(|p| p.session_id == session_id).count()
    }

    /// Per-session queue depths of every session with pending work, keyed by
    /// session id (sessions with an empty queue are omitted).
    pub fn queue_depths(&self) -> BTreeMap<u64, usize> {
        let mut depths = BTreeMap::new();
        for p in &self.pending {
            *depths.entry(p.session_id).or_insert(0) += 1;
        }
        depths
    }

    /// Number of responses produced by past steps and not yet taken with
    /// [`ServeEngine::take_responses`].
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Removes and returns the oldest pending frame of `session_id` (the one
    /// with the smallest frame index), or `None` when the session has no
    /// queued work. Returns the dropped frame's index so the caller can
    /// account for it — this is the `DropOldest` backpressure primitive.
    pub fn drop_oldest_pending(&mut self, session_id: u64) -> Option<u64> {
        let (slot, _) = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, p)| p.session_id == session_id)
            .min_by_key(|(_, p)| p.frame_index)?;
        Some(self.pending.remove(slot).frame_index)
    }

    /// Collapses the pending queue of `session_id` to its newest frame and
    /// returns the frame indices that were merged away (ascending), empty
    /// when the session had at most one frame queued.
    ///
    /// The newest frame already carries the session's fused history (features
    /// are built over the rolling fusion window at submit time), so it is the
    /// natural representative of the coalesced burst — this is the
    /// `MergeFrames` backpressure primitive.
    pub fn merge_pending(&mut self, session_id: u64) -> Vec<u64> {
        let newest =
            self.pending.iter().filter(|p| p.session_id == session_id).map(|p| p.frame_index).max();
        let Some(newest) = newest else { return Vec::new() };
        let mut merged = Vec::new();
        self.pending.retain(|p| {
            if p.session_id == session_id && p.frame_index != newest {
                merged.push(p.frame_index);
                false
            } else {
                true
            }
        });
        merged.sort_unstable();
        merged
    }

    /// Opens a new session from its typed configuration
    /// ([`SessionConfig::new`] builder). Unset options inherit the engine's
    /// [`ServeConfig`]; a feature-map override must keep the engine's input
    /// geometry (the compiled plans are shaped for it).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DuplicateSession`] when the id is already open
    /// and [`ServeError::InvalidConfig`] for a feature-map override whose
    /// input dimensions disagree with the engine's.
    pub fn open_session(&mut self, config: SessionConfig) -> Result<&mut Session> {
        if let Some(builder) = config.feature_map_override() {
            let expected = self.config.feature_map.input_dims();
            if builder.input_dims() != expected {
                return Err(ServeError::InvalidConfig(format!(
                    "session {} feature-map override produces {:?} but the engine's \
                     compiled plans expect {:?}",
                    config.id(),
                    builder.input_dims(),
                    expected
                )));
            }
        }
        let config = config.with_defaults(self.config.fusion, &self.config.feature_map);
        match self.sessions.entry(config.id()) {
            std::collections::btree_map::Entry::Occupied(_) => {
                Err(ServeError::DuplicateSession(config.id()))
            }
            std::collections::btree_map::Entry::Vacant(slot) => {
                Ok(slot.insert(Session::new(config)))
            }
        }
    }

    /// Closes a session and returns its state together with any frames that
    /// were still queued for it, in frame-index order. Nothing is silently
    /// dropped: a router closing a session mid-stream can re-route or account
    /// for the unserved work.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] when the id is not open.
    pub fn close_session(&mut self, id: u64) -> Result<(Session, Vec<PendingFrame>)> {
        let session = self.sessions.remove(&id).ok_or(ServeError::UnknownSession(id))?;
        let mut unserved = Vec::new();
        self.pending.retain_mut(|p| {
            if p.session_id == id {
                // `retain_mut` only hands out `&mut`, so move the frame out
                // through a cheap placeholder swap.
                unserved.push(PendingFrame {
                    session_id: p.session_id,
                    frame_index: p.frame_index,
                    features: std::mem::replace(&mut p.features, Tensor::scalar(0.0)),
                    submitted: p.submitted,
                });
                false
            } else {
                true
            }
        });
        unserved.sort_by_key(|p| p.frame_index);
        Ok((session, unserved))
    }

    /// A session by id.
    pub fn session(&self, id: u64) -> Option<&Session> {
        self.sessions.get(&id)
    }

    /// Iterates over the open sessions in id order.
    pub fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.sessions.values()
    }

    /// Submits one point-cloud frame for a session: the frame joins the
    /// session's fusion history, is featurized immediately (so the queued
    /// request is independent of later history mutations), and waits for the
    /// next [`ServeEngine::step`]. Returns the frame's lifetime index within
    /// the session.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for an unopened id and
    /// propagates featurization failures.
    pub fn submit(&mut self, session_id: u64, frame: PointCloudFrame) -> Result<u64> {
        // Split borrows: the fused points borrow the session (they live in
        // its incremental op state now) while the recorder and pending queue
        // are separate fields.
        let ServeEngine { sessions, pending, recorder, .. } = &mut *self;
        let session =
            sessions.get_mut(&session_id).ok_or(ServeError::UnknownSession(session_id))?;
        let submitted = Instant::now();
        let frame_index = session.push_frame(frame);
        let points = session.fused_points();
        recorder.record(Stage::Fuse, ms_since(submitted));
        let featurize_start = Instant::now();
        let features = session.feature_map().build(points, None)?;
        recorder.record(Stage::Featurize, ms_since(featurize_start));
        pending.push(PendingFrame { session_id, frame_index, features, submitted });
        Ok(frame_index)
    }

    /// Advances a session's streaming-op state one cadence slot with *no*
    /// frame: the oldest delay-line slot is evicted and nothing replaces it.
    /// A variable-rate or lossy producer calls this for every dropped or
    /// skipped frame so the fused window tracks wall-clock cadence
    /// deterministically — two hosts replaying the same submit/tick pattern
    /// hold bit-identical session state. No response is produced.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for an unopened id.
    pub fn tick(&mut self, session_id: u64) -> Result<()> {
        let session =
            self.sessions.get_mut(&session_id).ok_or(ServeError::UnknownSession(session_id))?;
        session.tick_missing();
        Ok(())
    }

    /// Runs one micro-batch: consumes up to `max_batch` pending frames
    /// round-robin across sessions (by each frame's rank within its session's
    /// queue, oldest first, ties broken by session id) — never in arrival
    /// order — stacks the frames of base-model sessions into a single forward
    /// pass and runs one stacked pass per adapted session. The responses,
    /// sorted by `(session id, frame index)`, are appended to the ready
    /// buffer ([`ServeEngine::take_responses`]); the step returns how many
    /// were produced.
    ///
    /// Round-robin keeps the schedule fair under load: when one session
    /// floods the queue past `max_batch`, every other session's oldest frame
    /// still goes out in the current step instead of starving behind the
    /// flood — regardless of how long either session has existed. The rank is
    /// derived from the queue contents, not from arrival order, so the
    /// schedule — and with it every response — stays bit-identical for any
    /// submission interleaving.
    ///
    /// # Errors
    ///
    /// Propagates inference failures; the consumed frames are dropped in that
    /// case (the model state, not the queue, is the source of truth).
    pub fn step(&mut self) -> Result<usize> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        // Rank every pending frame within its session (0 = that session's
        // oldest pending frame); the (session id, frame index) pre-sort makes
        // the rank a running per-session count.
        self.pending.sort_by_key(|p| (p.session_id, p.frame_index));
        let mut next_rank: BTreeMap<u64, u64> = BTreeMap::new();
        let mut order: Vec<(u64, usize)> = self
            .pending
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let rank = next_rank.entry(p.session_id).or_insert(0);
                let r = *rank;
                *rank += 1;
                (r, i)
            })
            .collect();
        order.sort_by_key(|&(rank, i)| (rank, self.pending[i].session_id));

        let take = self.config.max_batch.min(self.pending.len());
        let mut slots: Vec<Option<PendingFrame>> = self.pending.drain(..).map(Some).collect();
        let mut batch: Vec<PendingFrame> = Vec::with_capacity(take);
        for &(_, i) in order.iter().take(take) {
            batch.push(slots[i].take().expect("each slot is consumed once"));
        }
        self.pending.extend(slots.into_iter().flatten());

        let inference_start = Instant::now();
        let submit_times: Vec<Instant> = batch.iter().map(|p| p.submitted).collect();
        let mut responses: Vec<ServeResponse> = Vec::with_capacity(batch.len());

        // Split the micro-batch into the shared-model group and one group per
        // adapted session (sessions in id order; frames per session arrive in
        // frame-index order because a session's rank grows with its frame
        // index). The feature tensors are moved out of the consumed batch —
        // no copies on the per-frame hot path.
        let mut base_keys: Vec<(u64, u64)> = Vec::new();
        let mut base_features: Vec<Tensor> = Vec::new();
        let mut adapted_groups: BTreeMap<u64, ForwardGroup> = BTreeMap::new();
        for p in batch {
            let adapted =
                self.sessions.get(&p.session_id).is_some_and(|session| session.is_adapted());
            if adapted {
                let (keys, features) = adapted_groups.entry(p.session_id).or_default();
                keys.push((p.session_id, p.frame_index));
                features.push(p.features);
            } else {
                base_keys.push((p.session_id, p.frame_index));
                base_features.push(p.features);
            }
        }

        // Split borrows: the plan needs its arena (mutably) and the staging
        // buffer at the same time, and they live in different fields.
        let model_version = self.model_version;
        let ServeEngine { sessions, base_plan, staging, .. } = &mut *self;

        if !base_features.is_empty() {
            let cols = base_plan.output_meta().len();
            let output = run_plan(base_plan, staging, &base_features)?;
            extend_responses(&mut responses, &base_keys, output, cols, model_version, false);
        }
        for (session_id, (keys, features)) in &adapted_groups {
            let plan = sessions
                .get_mut(session_id)
                .and_then(Session::plan_mut)
                .ok_or(ServeError::UnknownSession(*session_id))?;
            let cols = plan.output_meta().len();
            let output = run_plan(plan, staging, features)?;
            extend_responses(&mut responses, keys, output, cols, model_version, true);
        }
        self.recorder.record(Stage::Inference, ms_since(inference_start));
        for submitted in submit_times {
            self.recorder.record(Stage::Total, ms_since(submitted));
        }

        responses.sort_by_key(|r| (r.session_id, r.frame_index));
        let produced = responses.len();
        self.ready.append(&mut responses);
        Ok(produced)
    }

    /// Drains the responses accumulated by past [`ServeEngine::step`] calls,
    /// in production order (each step's responses are sorted by
    /// `(session id, frame index)`, so per session the stream is always in
    /// frame order).
    pub fn take_responses(&mut self) -> Vec<ServeResponse> {
        std::mem::take(&mut self.ready)
    }

    /// Fine-tunes a session online on `data` with [`fuse_core::adapt`],
    /// starting from the session's private weights or, for a first
    /// adaptation, the shared base model, and returns the mean training loss
    /// of each epoch. Training runs on a fresh clone of the base
    /// architecture, so the result is a function of those weights, `data`
    /// and `config` alone. The session's plan is replaced only once training
    /// and compiling succeed: a failed adaptation leaves the session serving
    /// exactly what it served before.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for an unopened id and
    /// propagates fine-tuning ([`ServeError::Core`]) and compile
    /// ([`ServeError::Graph`]) errors.
    pub fn adapt_session(
        &mut self,
        id: u64,
        data: &EncodedDataset,
        config: &FineTuneConfig,
    ) -> Result<Vec<f32>> {
        let session = self.sessions.get_mut(&id).ok_or(ServeError::UnknownSession(id))?;
        let mut model = self.base.clone();
        if let Some(plan) = session.plan() {
            model.set_flat_params(plan.params())?;
        }
        let losses = adapt(&mut model, data, config)?;
        // The parameters are snapshotted into the plan at lowering time, so
        // the new weights need their own plan; the model is dropped here.
        session.install(compile_plan(&model, &self.config)?);
        Ok(losses)
    }

    /// Validates a `fuse-nn` checkpoint (JSON or binary, auto-detected by
    /// [`Checkpoint::read`]) against this engine's model architecture
    /// *without* applying it, returning a [`PreparedSwap`] whose commit
    /// cannot fail. The engine itself is untouched (`&self`).
    ///
    /// The checkpoint is checked against the compiled plan's
    /// [`fuse_graph::ShapeSignature`] with [`Checkpoint::check_layout`] —
    /// parameter count and layer names, the checks [`Checkpoint::apply_to`]
    /// performs — so a mismatched checkpoint is a typed pre-commit error and
    /// no model clone is ever materialised.
    ///
    /// A cluster router calls this on every shard first and commits only if
    /// every shard prepared successfully — the all-or-nothing fan-out.
    ///
    /// # Errors
    ///
    /// Propagates read/decode/layout errors as [`ServeError::Nn`].
    pub fn prepare_hot_swap(&self, path: &Path) -> Result<PreparedSwap> {
        self.prepare_hot_swap_checkpoint(Checkpoint::read(path)?)
    }

    /// [`ServeEngine::prepare_hot_swap`] for a checkpoint that is already in
    /// memory — the entry point for checkpoints that arrive as wire payloads
    /// (a cluster router reads the file once and ships the decoded bytes to
    /// every shard, local or remote) rather than as per-shard file reads.
    ///
    /// # Errors
    ///
    /// Propagates layout mismatches as [`ServeError::Nn`].
    pub fn prepare_hot_swap_checkpoint(&self, checkpoint: Checkpoint) -> Result<PreparedSwap> {
        let signature = self.base_plan.signature();
        checkpoint.check_layout(signature.param_len(), signature.layer_names())?;
        Ok(PreparedSwap { checkpoint, plan: None })
    }

    /// Validates a `.fplan` plan artifact ([`ServeEngine::export_plan`])
    /// against this engine *without* applying it, returning a
    /// [`PreparedSwap`] whose commit cannot fail. Unlike a checkpoint swap,
    /// committing a plan artifact installs the deserialized [`ExecPlan`]
    /// directly — weights *and* compiled schedule — so the new version never
    /// recompiles.
    ///
    /// The artifact reuses the checkpoint swap's validation ladder
    /// ([`Checkpoint::check_layout`]): parameter count first
    /// ([`fuse_nn::NnError::ParamLengthMismatch`]), then layer names
    /// ([`fuse_nn::NnError::ArchitectureMismatch`]) — both against the served
    /// plan's signature — then the engine-specific geometry: the plan's input
    /// shape must equal the configured feature map's and its compiled
    /// `max_batch` must cover the engine's micro-batch cap (both
    /// [`fuse_graph::GraphError::Shape`]).
    ///
    /// # Errors
    ///
    /// Propagates read/decode errors ([`ServeError::Graph`]) and layout
    /// mismatches ([`ServeError::Nn`] / [`ServeError::Graph`]).
    pub fn prepare_hot_swap_plan(&self, path: &Path) -> Result<PreparedSwap> {
        let plan = ExecPlan::read_plan(path)?;
        let model_name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("fplan");
        self.validate_plan_swap(plan, model_name)
    }

    /// [`ServeEngine::prepare_hot_swap_plan`] for a `.fplan` artifact that is
    /// already in memory — the wire-payload entry point. `model_name` plays
    /// the role the file stem plays on the file path (the artifact itself
    /// carries no name).
    ///
    /// # Errors
    ///
    /// Propagates decode errors ([`ServeError::Graph`]) and layout
    /// mismatches ([`ServeError::Nn`] / [`ServeError::Graph`]).
    pub fn prepare_hot_swap_plan_bytes(
        &self,
        bytes: &[u8],
        model_name: &str,
    ) -> Result<PreparedSwap> {
        self.validate_plan_swap(ExecPlan::from_bytes(bytes)?, model_name)
    }

    /// The shared validation ladder of the two plan-artifact prepare entry
    /// points (see [`ServeEngine::prepare_hot_swap_plan`] for the order).
    fn validate_plan_swap(&self, plan: ExecPlan, model_name: &str) -> Result<PreparedSwap> {
        // The base model always stores f32, so a quantized swap applies the
        // int8 weights' dequantized values — carrying the bounded rounding —
        // while the installed plan itself executes the int8 tables.
        let checkpoint = Checkpoint::of_plan(&plan, model_name);
        let served = self.base_plan.signature();
        checkpoint.check_layout(served.param_len(), served.layer_names())?;
        let input_dims = self.config.feature_map.input_dims();
        if plan.input_meta().dims() != input_dims.as_slice() {
            return Err(GraphError::Shape(format!(
                "plan artifact expects input {:?} but the engine featurizes {:?}",
                plan.input_meta().dims(),
                input_dims
            ))
            .into());
        }
        if plan.max_batch() < self.config.max_batch {
            return Err(GraphError::Shape(format!(
                "plan artifact was compiled for max_batch {} but the engine batches up to {}",
                plan.max_batch(),
                self.config.max_batch
            ))
            .into());
        }
        Ok(PreparedSwap { checkpoint, plan: Some(plan) })
    }

    /// Applies a [`PreparedSwap`] produced by
    /// [`ServeEngine::prepare_hot_swap`] or
    /// [`ServeEngine::prepare_hot_swap_plan`]: the base model is replaced,
    /// the execution plan installed (from the artifact) or recompiled
    /// against the new weights, and [`ServeEngine::model_version`] bumped.
    /// Infallible by construction — every way the swap can fail was checked
    /// at prepare time.
    pub fn commit_hot_swap(&mut self, prepared: PreparedSwap) -> Checkpoint {
        self.base
            .set_flat_params(&prepared.checkpoint.params)
            .expect("prepare_hot_swap validated the parameter count against the plan");
        self.model_version += 1;
        self.base_plan = match prepared.plan {
            // A plan artifact carries its own compiled schedule: install it
            // directly instead of recompiling.
            Some(plan) => plan,
            None => compile_plan(&self.base, &self.config).expect(
                "a checkpoint changes weights only, and this architecture compiled at construction",
            ),
        };
        prepared.checkpoint
    }

    /// Loads a `fuse-nn` checkpoint (JSON or binary) into the shared base
    /// model and bumps [`ServeEngine::model_version`]. The checkpoint is
    /// validated first ([`ServeEngine::prepare_hot_swap`]): on any error the
    /// engine keeps serving the old weights. Adapted sessions keep their
    /// private plans (call [`Session::reset_to_base`] to rejoin the shared
    /// model).
    ///
    /// # Errors
    ///
    /// Propagates read/decode/layout errors as [`ServeError::Nn`].
    pub fn hot_swap(&mut self, path: &Path) -> Result<Checkpoint> {
        let prepared = self.prepare_hot_swap(path)?;
        Ok(self.commit_hot_swap(prepared))
    }

    /// Loads a `.fplan` plan artifact into the engine: validates it
    /// ([`ServeEngine::prepare_hot_swap_plan`]), applies the parameter
    /// snapshot to the base model, installs the deserialized plan and bumps
    /// [`ServeEngine::model_version`]. On any error the engine keeps serving
    /// the old weights and plan.
    ///
    /// # Errors
    ///
    /// Propagates read/decode/layout errors as [`ServeError::Graph`] /
    /// [`ServeError::Nn`].
    pub fn hot_swap_plan(&mut self, path: &Path) -> Result<Checkpoint> {
        let prepared = self.prepare_hot_swap_plan(path)?;
        Ok(self.commit_hot_swap(prepared))
    }

    /// Saves the shared base model as a `fuse-nn` JSON checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates write/encode errors as [`ServeError::Nn`].
    pub fn save_checkpoint(&self, model_name: &str, path: &Path) -> Result<()> {
        Ok(Checkpoint::capture(&self.base, model_name).write_json(path)?)
    }

    /// Serializes the base model's compiled plan as a versioned `.fplan`
    /// artifact ([`ExecPlan::write_plan`]) — the deployable unit a
    /// `fuse-edge` runtime (or another engine, via
    /// [`ServeEngine::hot_swap_plan`]) loads without any lowering stack.
    ///
    /// # Errors
    ///
    /// Propagates write failures as [`ServeError::Graph`].
    pub fn export_plan(&self, path: &Path) -> Result<()> {
        Ok(self.base_plan.write_plan(path)?)
    }

    /// Like [`ServeEngine::export_plan`], but derives an int8 weight-quantized
    /// plan ([`ExecPlan::quantize`]) before writing, producing a `.fplan`
    /// **v2** artifact roughly a quarter the size of the float export. The
    /// engine itself keeps serving the float plan; the artifact is the
    /// relaxed-contract deployable — an edge runtime or peer engine that
    /// loads it serves int8 weights through the `fuse-quant` device seam and
    /// is verified against float goldens by tolerance, not byte equality (see
    /// `REPRODUCIBILITY.md`).
    ///
    /// # Errors
    ///
    /// Propagates [`ExecPlan::quantize`] errors (e.g. non-finite weights)
    /// and write failures as [`ServeError::Graph`].
    pub fn export_quantized_plan(&self, path: &Path) -> Result<()> {
        Ok(self.base_plan.quantize()?.write_plan(path)?)
    }

    /// Closes a session and packages everything a peer engine needs to
    /// continue it bit-identically: the fusion history and lifetime frame
    /// counter, the private fine-tuned weights (read from the session's plan
    /// as an `FCKP` [`Checkpoint`]), and any still-unserved featurized frames.
    /// This is the source side of cross-host session migration; the
    /// counterpart is [`ServeEngine::reopen_with_history`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] when the id is not open.
    pub fn export_session(&mut self, id: u64) -> Result<SessionState> {
        let (session, unserved) = self.close_session(id)?;
        let checkpoint =
            session.plan().map(|plan| Checkpoint::of_plan(plan, &format!("session-{id}")));
        Ok(SessionState {
            id,
            slo: session.slo_class(),
            fusion: *session.fusion(),
            frames_seen: session.frames_seen(),
            ticks_seen: session.ticks_seen(),
            history: session.history().cloned().collect(),
            slot_mask: session.slot_mask(),
            checkpoint,
            pending: unserved.into_iter().map(|p| (p.frame_index, p.features)).collect(),
        })
    }

    /// Reopens a migrated session from exported state: the fusion history is
    /// replayed (so the next submit fuses over exactly the frames the source
    /// host held), the frame-index sequence continues from `frames_seen`,
    /// an adapted session's private plan is compiled from the `FCKP`
    /// checkpoint applied to a clone of this engine's base architecture
    /// (only the plan is kept), and unserved frames rejoin the pending queue.
    /// Every subsequent response is bit-identical to what the source host
    /// would have produced — the parameters travel as exact `f32` bit
    /// patterns and featurized tensors travel as-is.
    ///
    /// Only the latency clock restarts: re-queued frames get a fresh submit
    /// timestamp, so `Stage::Total` samples around a migration measure the
    /// post-migration wait. Outputs are unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DuplicateSession`] when the id is already open
    /// here, [`ServeError::InvalidConfig`] when the state is inconsistent (a
    /// slot mask marking more frames than the history carries, or a pending
    /// feature tensor not shaped like this engine's feature map), and
    /// propagates checkpoint-layout mismatches as [`ServeError::Nn`] and
    /// compile errors as [`ServeError::Graph`]. Nothing is inserted on any
    /// error; the state is dropped (the source still holds nothing — export
    /// is destructive — so callers should validate architectures before
    /// migrating).
    pub fn reopen_with_history(&mut self, state: SessionState) -> Result<()> {
        if self.sessions.contains_key(&state.id) {
            return Err(ServeError::DuplicateSession(state.id));
        }
        let SessionState {
            id,
            slo,
            fusion,
            frames_seen,
            ticks_seen,
            history,
            slot_mask,
            checkpoint,
            pending,
        } = state;
        // A mis-shaped tensor would be queued now and only fail inside the
        // plan run of some later step, so reject it before anything else.
        let input_dims = self.config.feature_map.input_dims();
        if let Some((frame_index, features)) =
            pending.iter().find(|(_, features)| features.dims() != input_dims.as_slice())
        {
            return Err(ServeError::InvalidConfig(format!(
                "session {id} state is inconsistent: pending frame {frame_index} has features \
                 shaped {:?} but the engine's compiled plans expect {input_dims:?}",
                features.dims()
            )));
        }
        let mut config = SessionConfig::new(id).fusion(fusion);
        if let Some(slo) = slo {
            config = config.slo(slo);
        }
        let mut session =
            Session::new(config.with_defaults(self.config.fusion, &self.config.feature_map));
        // Replay the delay line exactly: `true` slots consume the next
        // retained frame, `false` slots replay the missing-frame ticks — so
        // a session migrated mid-dropout fuses over the same gapped window
        // the source host held.
        let mut frames = history.into_iter();
        for present in slot_mask {
            if present {
                let frame = frames.next().ok_or_else(|| {
                    ServeError::InvalidConfig(format!(
                        "session {id} state is inconsistent: slot mask marks more frames \
                         than the history carries"
                    ))
                })?;
                session.push_frame(frame);
            } else {
                session.tick_missing();
            }
        }
        session.set_counters(frames_seen, ticks_seen);
        if let Some(ckpt) = checkpoint {
            let mut model = self.base.clone();
            ckpt.apply_to(&mut model)?;
            session.install(compile_plan(&model, &self.config)?);
        }
        self.sessions.insert(id, session);
        let submitted = Instant::now();
        for (frame_index, features) in pending {
            self.pending.push(PendingFrame { session_id: id, frame_index, features, submitted });
        }
        Ok(())
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1000.0
}

/// Lowers `model` for the engine's feature geometry and compiles it into an
/// [`ExecPlan`] sized for the micro-batch cap. Fails when a layer has no
/// op-graph lowering or the shapes do not chain from the configured feature
/// map.
fn compile_plan(model: &Sequential, config: &ServeConfig) -> fuse_graph::Result<ExecPlan> {
    LoweringRequest::new(model, &config.feature_map.input_dims()).lower()?.compile(config.max_batch)
}

/// Stages `features` contiguously into `staging` and runs the compiled plan
/// on the stacked micro-batch, returning the `[batch × out]` output rows.
fn run_plan<'p>(
    plan: &'p mut ExecPlan,
    staging: &mut [f32],
    features: &[Tensor],
) -> Result<&'p [f32]> {
    let sample_len = plan.input_meta().len();
    for (slot, tensor) in staging.chunks_exact_mut(sample_len).zip(features) {
        slot.copy_from_slice(tensor.as_slice());
    }
    Ok(plan.run(&staging[..features.len() * sample_len], features.len())?)
}

fn extend_responses(
    responses: &mut Vec<ServeResponse>,
    keys: &[(u64, u64)],
    output: &[f32],
    cols: usize,
    model_version: u64,
    adapted: bool,
) {
    for (row, &(session_id, frame_index)) in keys.iter().enumerate() {
        responses.push(ServeResponse {
            session_id,
            frame_index,
            model_version,
            adapted,
            joints: output[row * cols..(row + 1) * cols].to_vec(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_core::{build_mars_cnn, ModelConfig};
    use fuse_radar::RadarPoint;

    fn tiny_engine() -> ServeEngine {
        let model = build_mars_cnn(&ModelConfig::tiny(), 7).unwrap();
        ServeEngine::new(model, ServeConfig::default()).unwrap()
    }

    fn frame(seed: u64, n: usize) -> PointCloudFrame {
        let points = (0..n)
            .map(|i| {
                let t = (seed as f32) * 0.1 + i as f32 * 0.03;
                RadarPoint::new(
                    t.sin() * 0.5,
                    2.0 + t.cos() * 0.2,
                    0.2 + i as f32 * 0.04,
                    0.1,
                    1.0 + t,
                )
            })
            .collect();
        PointCloudFrame::new(0, 0.0, points)
    }

    fn adaptation_data() -> EncodedDataset {
        use fuse_dataset::{encode_dataset, MarsSynthesizer, SynthesisConfig};
        let data = MarsSynthesizer::new(SynthesisConfig::tiny()).generate().unwrap();
        encode_dataset(&data, &FrameFusion::default(), &FeatureMapBuilder::default()).unwrap()
    }

    #[test]
    fn base_plan_compiles_for_the_mars_cnn() {
        let engine = tiny_engine();
        let plan = engine.plan().expect("the MARS CNN must lower to a compiled plan");
        assert_eq!(plan.input_meta().dims(), &[5, 8, 8]);
        assert_eq!(plan.output_meta().dims(), &[57]);
        assert_eq!(plan.max_batch(), engine.config().max_batch);
        assert!(
            plan.step_count() < engine.base_model().len(),
            "fusion must collapse layers into fewer dispatches"
        );
    }

    #[test]
    fn plan_responses_match_the_legacy_forward_bit_for_bit() {
        let mut engine = tiny_engine();
        assert!(engine.plan().is_some());
        engine.open_session(SessionConfig::new(1)).unwrap();
        engine.submit(1, frame(2, 16)).unwrap();
        let features = engine.session(1).unwrap().featurize_latest().unwrap();
        let expected = {
            let mut model = engine.base_model().clone();
            let stacked = Tensor::stack(std::slice::from_ref(&features)).unwrap();
            model.forward(&stacked, false).unwrap()
        };
        engine.step().unwrap();
        let responses = engine.take_responses();
        assert_eq!(responses[0].joints.as_slice(), expected.as_slice());
    }

    #[test]
    fn prepare_hot_swap_rejects_a_mismatched_checkpoint_pre_commit() {
        use fuse_nn::NnError;
        let dir = std::env::temp_dir().join("fuse_serve_plan_swap_reject_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");

        // Same layer stack, larger widths: the parameter count disagrees with
        // the compiled plan's shape signature.
        let big = build_mars_cnn(&ModelConfig::default(), 3).unwrap();
        Checkpoint::capture(&big, "big").write_json(&path).unwrap();

        let engine = tiny_engine();
        assert!(engine.plan().is_some(), "this test exercises the signature path");
        let before = engine.base_model().flat_params();
        let err = engine.prepare_hot_swap(&path).unwrap_err();
        assert!(
            matches!(err, ServeError::Nn(NnError::ParamLengthMismatch { .. })),
            "expected a typed pre-commit mismatch, got {err}"
        );
        assert_eq!(engine.base_model().flat_params(), before);
        assert_eq!(engine.model_version(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        assert!(ServeConfig { max_batch: 0, ..ServeConfig::default() }.validate().is_err());
        assert!(ServeConfig { budget_ms: 0.0, ..ServeConfig::default() }.validate().is_err());
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn session_lifecycle_and_errors() {
        let mut engine = tiny_engine();
        engine.open_session(SessionConfig::new(1)).unwrap();
        assert!(matches!(
            engine.open_session(SessionConfig::new(1)),
            Err(ServeError::DuplicateSession(1))
        ));
        assert!(matches!(engine.submit(9, frame(0, 4)), Err(ServeError::UnknownSession(9))));
        assert!(matches!(engine.close_session(9), Err(ServeError::UnknownSession(9))));
        engine.submit(1, frame(0, 4)).unwrap();
        engine.submit(1, frame(1, 4)).unwrap();
        assert_eq!(engine.pending_len(), 2);
        assert_eq!(engine.pending_for(1), 2);
        let (closed, unserved) = engine.close_session(1).unwrap();
        assert_eq!(closed.id(), 1);
        assert_eq!(engine.pending_len(), 0, "closing a session removes its queued frames");
        assert_eq!(unserved.len(), 2, "queued frames are returned, not silently dropped");
        assert_eq!(unserved[0].frame_index(), 0);
        assert_eq!(unserved[1].frame_index(), 1);
        assert!(unserved.iter().all(|p| p.session_id() == 1));
        assert_eq!(unserved[0].features().dims(), &[5, 8, 8]);
        assert_eq!(engine.session_count(), 0);
    }

    #[test]
    fn streaming_produces_one_response_per_frame() {
        let mut engine = tiny_engine();
        engine.open_session(SessionConfig::new(5)).unwrap();
        for i in 0..4 {
            let index = engine.submit(5, frame(i, 16)).unwrap();
            assert_eq!(index, i);
        }
        assert_eq!(engine.step().unwrap(), 4);
        assert_eq!(engine.ready_len(), 4);
        let responses = engine.take_responses();
        assert_eq!(responses.len(), 4);
        assert_eq!(engine.ready_len(), 0);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.session_id, 5);
            assert_eq!(r.frame_index, i as u64);
            assert_eq!(r.model_version, 0);
            assert!(!r.adapted);
            assert_eq!(r.joints.len(), 57);
            assert!(r.joints.iter().all(|v| v.is_finite()));
        }
        assert_eq!(engine.pending_len(), 0);
        assert_eq!(engine.step().unwrap(), 0);
        assert_eq!(engine.recorder().count(Stage::Total), 4);
        assert_eq!(engine.recorder().count(Stage::Inference), 1);
        assert_eq!(engine.recorder().count(Stage::Fuse), 4);
    }

    #[test]
    fn stacked_micro_batch_matches_per_session_forwards() {
        // The batching contract: stacking N sessions' frames into one forward
        // pass produces bit-identical rows to running each frame alone.
        let mut batched = tiny_engine();
        for id in [2u64, 4, 8] {
            batched.open_session(SessionConfig::new(id)).unwrap();
            batched.submit(id, frame(id, 12)).unwrap();
        }
        assert_eq!(batched.step().unwrap(), 3);
        let together = batched.take_responses();
        assert_eq!(together.len(), 3);

        for (i, id) in [2u64, 4, 8].into_iter().enumerate() {
            let mut solo = tiny_engine();
            solo.open_session(SessionConfig::new(id)).unwrap();
            solo.submit(id, frame(id, 12)).unwrap();
            assert_eq!(solo.step().unwrap(), 1);
            let alone = solo.take_responses();
            assert_eq!(together[i].joints, alone[0].joints, "row {i} diverged from solo forward");
        }
    }

    #[test]
    fn flooding_session_cannot_starve_others() {
        // Session 0 floods the queue well past max_batch while session 7
        // submits a single frame; oldest-first scheduling must serve session
        // 7 in the first step instead of deferring it behind the flood.
        let model = build_mars_cnn(&ModelConfig::tiny(), 7).unwrap();
        let config = ServeConfig { max_batch: 4, ..ServeConfig::default() };
        let mut engine = ServeEngine::new(model, config).unwrap();
        engine.open_session(SessionConfig::new(0)).unwrap();
        engine.open_session(SessionConfig::new(7)).unwrap();
        for i in 0..10 {
            engine.submit(0, frame(i, 8)).unwrap();
        }
        engine.submit(7, frame(99, 8)).unwrap();
        assert_eq!(engine.queue_depths(), [(0u64, 10usize), (7, 1)].into_iter().collect());
        engine.step().unwrap();
        let first = engine.take_responses();
        assert!(
            first.iter().any(|r| r.session_id == 7),
            "session 7's frame 0 must be served in the first micro-batch"
        );
    }

    #[test]
    fn new_flooding_session_cannot_starve_an_old_session() {
        // A long-lived session's frame indices are far ahead of a freshly
        // opened session's; fairness must not depend on session age, only on
        // each frame's position within its own queue.
        let model = build_mars_cnn(&ModelConfig::tiny(), 7).unwrap();
        let config = ServeConfig { max_batch: 4, ..ServeConfig::default() };
        let mut engine = ServeEngine::new(model, config).unwrap();
        engine.open_session(SessionConfig::new(0)).unwrap();
        for i in 0..20 {
            engine.submit(0, frame(i, 8)).unwrap();
            engine.step().unwrap();
        }
        engine.open_session(SessionConfig::new(7)).unwrap();
        for i in 0..10 {
            engine.submit(7, frame(i, 8)).unwrap();
        }
        let index = engine.submit(0, frame(99, 8)).unwrap();
        assert_eq!(index, 20, "session 0 is genuinely older");
        engine.take_responses();
        engine.step().unwrap();
        let first = engine.take_responses();
        assert!(
            first.iter().any(|r| r.session_id == 0),
            "the old session's frame must be served in the first micro-batch"
        );
    }

    #[test]
    fn max_batch_defers_excess_frames() {
        let model = build_mars_cnn(&ModelConfig::tiny(), 7).unwrap();
        let config = ServeConfig { max_batch: 2, ..ServeConfig::default() };
        let mut engine = ServeEngine::new(model, config).unwrap();
        engine.open_session(SessionConfig::new(1)).unwrap();
        for i in 0..5 {
            engine.submit(1, frame(i, 8)).unwrap();
        }
        assert_eq!(engine.step().unwrap(), 2);
        assert_eq!(engine.pending_len(), 3);
        assert_eq!(engine.step().unwrap(), 2);
        assert_eq!(engine.step().unwrap(), 1);
        assert_eq!(engine.pending_len(), 0);
        let responses = engine.take_responses();
        assert_eq!(responses.len(), 5, "every step's responses accumulate until taken");
        assert_eq!(responses.iter().map(|r| r.frame_index).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn adapted_sessions_use_a_private_model() {
        let encoded = adaptation_data();
        let mut engine = tiny_engine();
        engine.open_session(SessionConfig::new(1)).unwrap();
        engine.open_session(SessionConfig::new(2)).unwrap();
        let before = engine.base_model().flat_params();
        let config = FineTuneConfig { epochs: 1, batch_size: 16, ..FineTuneConfig::default() };
        assert!(matches!(
            engine.adapt_session(42, &encoded, &config),
            Err(ServeError::UnknownSession(42))
        ));
        let losses = engine.adapt_session(2, &encoded, &config).unwrap();
        assert_eq!(losses.len(), 1);
        assert!(engine.session(2).unwrap().is_adapted());
        assert!(
            engine.session(2).unwrap().plan().is_some(),
            "adaptation must recompile the session's private plan"
        );
        assert!(!engine.session(1).unwrap().is_adapted());
        assert!(engine.session(1).unwrap().plan().is_none());
        assert_eq!(engine.base_model().flat_params(), before, "adaptation must not touch the base");

        // Same frame through both sessions: the adapted one must answer from
        // different (fine-tuned) weights.
        engine.submit(1, frame(3, 16)).unwrap();
        engine.submit(2, frame(3, 16)).unwrap();
        assert_eq!(engine.step().unwrap(), 2);
        let responses = engine.take_responses();
        assert!(!responses[0].adapted);
        assert!(responses[1].adapted);
        assert_ne!(responses[0].joints, responses[1].joints);
    }

    #[test]
    fn hot_swap_replaces_the_base_atomically() {
        let dir = std::env::temp_dir().join("fuse_serve_hot_swap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");

        let mut engine = tiny_engine();
        engine.open_session(SessionConfig::new(1)).unwrap();

        // A differently-seeded model of the same architecture as "new weights".
        let other = build_mars_cnn(&ModelConfig::tiny(), 99).unwrap();
        let donor = ServeEngine::new(other, ServeConfig::default()).unwrap();
        donor.save_checkpoint("donor", &path).unwrap();

        engine.submit(1, frame(0, 16)).unwrap();
        engine.step().unwrap();
        let before = engine.take_responses();
        let checkpoint = engine.hot_swap(&path).unwrap();
        assert_eq!(checkpoint.model_name, "donor");
        assert_eq!(engine.model_version(), 1);
        engine.submit(1, frame(0, 16)).unwrap();
        engine.step().unwrap();
        let after = engine.take_responses();
        assert_ne!(before[0].joints, after[0].joints, "hot-swap must change predictions");
        assert_eq!(after[0].model_version, 1);

        // A corrupt checkpoint must leave the engine serving the old weights.
        std::fs::write(&path, "{\"model_name\":\"x\"").unwrap();
        let params = engine.base_model().flat_params();
        assert!(engine.hot_swap(&path).is_err());
        assert_eq!(engine.model_version(), 1);
        assert_eq!(engine.base_model().flat_params(), params);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn prepare_hot_swap_is_non_consuming_and_commit_is_infallible() {
        let dir = std::env::temp_dir().join("fuse_serve_prepare_swap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");

        let mut engine = tiny_engine();
        let donor = ServeEngine::new(
            build_mars_cnn(&ModelConfig::tiny(), 99).unwrap(),
            ServeConfig::default(),
        )
        .unwrap();
        donor.save_checkpoint("two-phase", &path).unwrap();

        let before = engine.base_model().flat_params();
        let prepared = engine.prepare_hot_swap(&path).unwrap();
        assert_eq!(prepared.checkpoint().model_name, "two-phase");
        assert_eq!(engine.model_version(), 0, "prepare must not bump the version");
        assert_eq!(engine.base_model().flat_params(), before, "prepare must not touch the base");

        let checkpoint = engine.commit_hot_swap(prepared);
        assert_eq!(checkpoint.model_name, "two-phase");
        assert_eq!(engine.model_version(), 1);
        assert_ne!(engine.base_model().flat_params(), before);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn exported_plan_hot_swaps_into_another_engine_bit_for_bit() {
        let dir = std::env::temp_dir().join("fuse_serve_plan_swap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("donor.fplan");

        // Donor and receiver share the architecture but not the weights.
        let donor_model = build_mars_cnn(&ModelConfig::tiny(), 99).unwrap();
        let donor = ServeEngine::new(donor_model, ServeConfig::default()).unwrap();
        donor.export_plan(&path).unwrap();

        let mut engine = tiny_engine();
        engine.open_session(SessionConfig::new(1)).unwrap();
        let checkpoint = engine.hot_swap_plan(&path).unwrap();
        assert_eq!(checkpoint.model_name, "donor", "model name comes from the file stem");
        assert_eq!(engine.model_version(), 1);
        assert_eq!(
            engine.base_model().flat_params(),
            donor.base_model().flat_params(),
            "the artifact's parameter snapshot must land in the base model"
        );
        assert!(engine.plan().is_some(), "the swapped-in plan is installed, not recompiled");

        // Served predictions must be bit-identical to the donor engine's.
        let mut reference = ServeEngine::new(
            build_mars_cnn(&ModelConfig::tiny(), 99).unwrap(),
            ServeConfig::default(),
        )
        .unwrap();
        reference.open_session(SessionConfig::new(1)).unwrap();
        engine.submit(1, frame(4, 16)).unwrap();
        reference.submit(1, frame(4, 16)).unwrap();
        engine.step().unwrap();
        reference.step().unwrap();
        assert_eq!(
            engine.take_responses()[0].joints,
            reference.take_responses()[0].joints,
            "plan-artifact serving must match the donor bit for bit"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quantized_export_hot_swaps_and_serves_within_budget() {
        use fuse_quant::compare::{assert_close_ulp, top1, Tolerance};
        let dir = std::env::temp_dir().join("fuse_serve_quant_swap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quantized.fplan");

        let donor = ServeEngine::new(
            build_mars_cnn(&ModelConfig::tiny(), 7).unwrap(),
            ServeConfig::default(),
        )
        .unwrap();
        donor.export_quantized_plan(&path).unwrap();

        // The quantized artifact is strictly smaller than the float export:
        // every conv/linear weight shrinks from 4 bytes to 1 (+ one f32
        // scale per output row).
        let float_path = dir.join("float.fplan");
        donor.export_plan(&float_path).unwrap();
        let (qsize, fsize) = (
            std::fs::metadata(&path).unwrap().len(),
            std::fs::metadata(&float_path).unwrap().len(),
        );
        assert!(qsize * 2 < fsize, "quantized artifact {qsize}B vs float {fsize}B");

        let mut engine = tiny_engine();
        let checkpoint = engine.hot_swap_plan(&path).unwrap();
        assert_eq!(checkpoint.model_name, "quantized");
        assert_eq!(engine.model_version(), 1);
        assert!(engine.plan().unwrap().is_quantized(), "the int8 plan itself is installed");
        assert_eq!(
            checkpoint.params.len(),
            engine.base_model().param_len(),
            "the base model receives the full-length dequantized snapshot"
        );

        // A multi-session stream served through the quantized plan must
        // track the float donor's responses within the relaxed-contract
        // budget and agree on every top-1 joint-coordinate index.
        let mut float_engine = ServeEngine::new(
            build_mars_cnn(&ModelConfig::tiny(), 7).unwrap(),
            ServeConfig::default(),
        )
        .unwrap();
        let budget = Tolerance { max_ulp: 0, max_abs: 5e-2, max_rel: 2e-2 };
        for id in [1u64, 2, 3] {
            engine.open_session(SessionConfig::new(id)).unwrap();
            float_engine.open_session(SessionConfig::new(id)).unwrap();
        }
        for step in 0..4u64 {
            for id in [1u64, 2, 3] {
                engine.submit(id, frame(id * 10 + step, 12)).unwrap();
                float_engine.submit(id, frame(id * 10 + step, 12)).unwrap();
            }
            engine.step().unwrap();
            float_engine.step().unwrap();
            let (got, want) = (engine.take_responses(), float_engine.take_responses());
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.session_id, g.frame_index), (w.session_id, w.frame_index));
                assert_close_ulp(
                    &w.joints,
                    &g.joints,
                    &budget,
                    &format!("session {} frame {}", g.session_id, g.frame_index),
                );
                assert_eq!(top1(&g.joints), top1(&w.joints), "top-1 agreement must hold");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prepare_hot_swap_plan_rejects_mismatched_artifacts() {
        use fuse_graph::GraphError;
        use fuse_nn::NnError;
        let dir = std::env::temp_dir().join("fuse_serve_plan_swap_mismatch_test");
        std::fs::create_dir_all(&dir).unwrap();

        // Wrong architecture: a bigger model's plan against a tiny engine.
        let big_path = dir.join("big.fplan");
        let big = build_mars_cnn(&ModelConfig::default(), 3).unwrap();
        ServeEngine::new(big, ServeConfig::default()).unwrap().export_plan(&big_path).unwrap();
        let engine = tiny_engine();
        assert!(matches!(
            engine.prepare_hot_swap_plan(&big_path).unwrap_err(),
            ServeError::Nn(NnError::ParamLengthMismatch { .. })
        ));

        // Right model, too small a compiled batch for the receiving engine.
        let small_path = dir.join("small-batch.fplan");
        let donor_model = build_mars_cnn(&ModelConfig::tiny(), 7).unwrap();
        let small =
            ServeEngine::new(donor_model, ServeConfig { max_batch: 2, ..ServeConfig::default() })
                .unwrap();
        small.export_plan(&small_path).unwrap();
        assert!(matches!(
            engine.prepare_hot_swap_plan(&small_path).unwrap_err(),
            ServeError::Graph(GraphError::Shape(_))
        ));

        // A corrupt artifact is a typed decode error, and a rejected prepare
        // leaves the engine untouched.
        let bad_path = dir.join("corrupt.fplan");
        std::fs::write(&bad_path, b"not a plan").unwrap();
        assert!(matches!(
            engine.prepare_hot_swap_plan(&bad_path).unwrap_err(),
            ServeError::Graph(_)
        ));
        assert_eq!(engine.model_version(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_lowerable_models_are_a_typed_error_at_construction() {
        use fuse_nn::layers::Linear;
        // A model whose first layer disagrees with the feature geometry does
        // not lower, so the engine cannot be built.
        let model = Sequential::new(vec![Box::new(Linear::new(10, 4, 1).unwrap())]);
        let err = ServeEngine::new(model, ServeConfig::default()).unwrap_err();
        assert!(matches!(err, ServeError::Graph(_)), "expected a compile error, got {err}");
    }

    #[test]
    fn a_failed_adaptation_leaves_the_session_as_it_was() {
        use fuse_dataset::{encode_dataset, MarsSynthesizer, SynthesisConfig};
        let data = MarsSynthesizer::new(SynthesisConfig::tiny()).generate().unwrap();
        let fusion = FrameFusion::default();
        let good = encode_dataset(&data, &fusion, &FeatureMapBuilder::default()).unwrap();
        // Encoded 5×4×4 against the engine's 5×8×8 geometry: fine-tuning
        // fails on the first forward pass.
        let bad = encode_dataset(&data, &fusion, &FeatureMapBuilder::new(4, 4)).unwrap();
        let config = FineTuneConfig { epochs: 1, batch_size: 16, ..FineTuneConfig::default() };

        // Two identical engines: session 1 unadapted, session 2 adapted.
        // Only `failed` sees the failing adaptations.
        let mut failed = tiny_engine();
        let mut reference = tiny_engine();
        for engine in [&mut failed, &mut reference] {
            engine.open_session(SessionConfig::new(1)).unwrap();
            engine.open_session(SessionConfig::new(2)).unwrap();
            engine.adapt_session(2, &good, &config).unwrap();
        }
        assert!(matches!(failed.adapt_session(1, &bad, &config), Err(ServeError::Core(_))));
        assert!(matches!(failed.adapt_session(2, &bad, &config), Err(ServeError::Core(_))));
        assert!(
            !failed.session(1).unwrap().is_adapted(),
            "a failed first adaptation must not adapt"
        );

        for engine in [&mut failed, &mut reference] {
            engine.submit(1, frame(3, 16)).unwrap();
            engine.submit(2, frame(3, 16)).unwrap();
            assert_eq!(engine.step().unwrap(), 2);
        }
        let responses = failed.take_responses();
        assert_eq!(responses, reference.take_responses(), "responses must be bit-identical");
        assert!(!responses[0].adapted && responses[1].adapted);
        assert!(failed.export_session(1).unwrap().checkpoint.is_none());
    }

    /// A lowerable model whose `Dropout` draws from its RNG in training.
    fn dropout_engine() -> ServeEngine {
        use fuse_nn::layers::{Dropout, Flatten, Linear, Relu};
        let model = Sequential::new(vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(320, 16, 1).unwrap()),
            Box::new(Relu::new()),
            Box::new(Dropout::new(0.5, 2).unwrap()),
            Box::new(Linear::new(16, 57, 3).unwrap()),
        ]);
        ServeEngine::new(model, ServeConfig::default()).unwrap()
    }

    fn adapted_params(engine: &ServeEngine, id: u64) -> Vec<f32> {
        engine.session(id).unwrap().plan().unwrap().params().to_vec()
    }

    #[test]
    fn re_adapting_a_migrated_session_matches_re_adapting_it_in_place() {
        let data = adaptation_data();
        let first = FineTuneConfig { epochs: 1, batch_size: 16, ..FineTuneConfig::default() };
        let second = FineTuneConfig { seed: 5, ..first };
        let (mut source, mut in_place, mut target) =
            (dropout_engine(), dropout_engine(), dropout_engine());
        for engine in [&mut source, &mut in_place] {
            engine.open_session(SessionConfig::new(1)).unwrap();
            engine.adapt_session(1, &data, &first).unwrap();
        }
        in_place.adapt_session(1, &data, &second).unwrap();
        target.reopen_with_history(source.export_session(1).unwrap()).unwrap();
        target.adapt_session(1, &data, &second).unwrap();
        assert_eq!(adapted_params(&target, 1), adapted_params(&in_place, 1));
    }

    #[test]
    fn an_adaptation_does_not_depend_on_earlier_adaptations_of_other_sessions() {
        let data = adaptation_data();
        let config = FineTuneConfig { epochs: 1, batch_size: 16, ..FineTuneConfig::default() };
        let mut shared = dropout_engine();
        for id in [1, 2] {
            shared.open_session(SessionConfig::new(id)).unwrap();
            shared.adapt_session(id, &data, &config).unwrap();
        }
        let mut fresh = dropout_engine();
        fresh.open_session(SessionConfig::new(2)).unwrap();
        fresh.adapt_session(2, &data, &config).unwrap();
        assert_eq!(adapted_params(&shared, 2), adapted_params(&fresh, 2));
    }

    #[test]
    fn huge_fusion_windows_serve_like_a_window_spanning_the_stream() {
        // Over N frames every window M >= N - 1 fuses all of them, so
        // M = 2^40 and M = usize::MAX must serve exactly like M = N - 1, and
        // opening such a session must not reserve the window up front.
        const N: usize = 5;
        let serve = |half_window: usize| {
            let mut engine = tiny_engine();
            let config = SessionConfig::new(1).fusion(FrameFusion::new(half_window));
            engine.open_session(config).unwrap();
            for i in 0..N {
                engine.submit(1, frame(i as u64, 8)).unwrap();
                engine.step().unwrap();
            }
            assert_eq!(engine.session(1).unwrap().history_len(), N);
            engine.take_responses()
        };
        let reference = serve(N - 1);
        assert_eq!(serve(1 << 40), reference);
        assert_eq!(serve(usize::MAX), reference);
    }

    #[test]
    fn imported_pending_frames_of_the_wrong_shape_are_a_typed_error() {
        let mut source = tiny_engine();
        source.open_session(SessionConfig::new(4)).unwrap();
        source.submit(4, frame(1, 8)).unwrap();
        let mut state = source.export_session(4).unwrap();
        state.pending.push((1, Tensor::zeros(&[3])));

        let mut engine = tiny_engine();
        let err = engine.reopen_with_history(state.clone()).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "expected a typed error, got {err}");
        assert_eq!(engine.session_count(), 0, "nothing may be inserted");
        assert_eq!(engine.pending_len(), 0);

        // The well-formed part of the same state imports and serves.
        state.pending.pop();
        engine.reopen_with_history(state).unwrap();
        assert_eq!(engine.step().unwrap(), 1);
    }

    #[test]
    fn drop_oldest_pending_removes_exactly_the_oldest_frame() {
        let mut engine = tiny_engine();
        engine.open_session(SessionConfig::new(3)).unwrap();
        engine.open_session(SessionConfig::new(9)).unwrap();
        for i in 0..3 {
            engine.submit(3, frame(i, 8)).unwrap();
        }
        engine.submit(9, frame(7, 8)).unwrap();
        assert_eq!(engine.drop_oldest_pending(3), Some(0));
        assert_eq!(engine.drop_oldest_pending(3), Some(1));
        assert_eq!(engine.pending_for(3), 1);
        assert_eq!(engine.pending_for(9), 1, "other sessions' queues are untouched");
        assert_eq!(engine.drop_oldest_pending(42), None);
        engine.step().unwrap();
        let served: Vec<(u64, u64)> =
            engine.take_responses().iter().map(|r| (r.session_id, r.frame_index)).collect();
        assert_eq!(served, [(3, 2), (9, 0)]);
    }

    #[test]
    fn merge_pending_collapses_the_queue_to_its_newest_frame() {
        let mut engine = tiny_engine();
        engine.open_session(SessionConfig::new(5)).unwrap();
        engine.open_session(SessionConfig::new(6)).unwrap();
        for i in 0..4 {
            engine.submit(5, frame(i, 8)).unwrap();
        }
        engine.submit(6, frame(0, 8)).unwrap();
        assert_eq!(engine.merge_pending(5), [0, 1, 2]);
        assert_eq!(engine.merge_pending(5), [] as [u64; 0], "a single frame has nothing to merge");
        assert_eq!(engine.merge_pending(42), [] as [u64; 0]);
        engine.step().unwrap();
        let served: Vec<(u64, u64)> =
            engine.take_responses().iter().map(|r| (r.session_id, r.frame_index)).collect();
        assert_eq!(served, [(5, 3), (6, 0)], "the newest frame represents the merged burst");
    }
}
