//! The shard-serving message vocabulary and its binary codec.
//!
//! [`WireRequest`] / [`WireResponse`] mirror the command set a local shard
//! worker understands, so a remote host shard is driven by exactly the same
//! operations as an in-process one — the router cannot tell them apart.
//! Every domain value crosses the wire bit-exactly: tensors and joint
//! predictions as IEEE-754 bit patterns, fine-tuned parameters as `FCKP`
//! checkpoint bytes, compiled plans as `.fplan` bytes. That is what makes
//! "migrate a session to another host, outputs stay bit-identical" a
//! provable property instead of a hope.
//!
//! Encoding discipline (see `crate::wire`): little-endian throughout, `u8`
//! variant tags, `u64` collection lengths, strings as length-prefixed
//! UTF-8. Decoders consume the entire buffer ([`crate::wire::Reader::finish`])
//! so trailing garbage is an error.

use fuse_core::{FineTuneConfig, FineTuneScope};
use fuse_dataset::{EncodedDataset, EncodedSample};
use fuse_dataset::{FeatureMapBuilder, FrameFusion};
use fuse_nn::Checkpoint;
use fuse_radar::{PointCloudFrame, RadarPoint};
use fuse_serve::{
    LatencyRecorder, ServeError, ServeResponse, SessionConfig, SessionState, SloClass, Stage,
};
use fuse_skeleton::Movement;
use fuse_tensor::{Normalizer, Tensor};

use crate::error::NetError;
use crate::wire::{Reader, Writer};
use crate::Result;

/// A request from the cluster router to a host shard.
#[derive(Debug, Clone)]
pub enum WireRequest {
    /// Open a session from its typed configuration (id, optional SLO class
    /// and optional fusion / feature-map overrides).
    Open {
        /// The session's full configuration, bit-exact.
        config: SessionConfig,
    },
    /// Close a session and report what it learned / left unserved.
    Close {
        /// Session id.
        id: u64,
    },
    /// Submit one radar frame to a session.
    Submit {
        /// Session id.
        id: u64,
        /// The frame, bit-exact.
        frame: PointCloudFrame,
    },
    /// Advance a session past a missing frame (a deterministic dropout
    /// tick of its streaming-op state).
    Tick {
        /// Session id.
        id: u64,
    },
    /// Override one SLO class's effective queue capacity on the shard
    /// (pushed by the router's adaptive backpressure controller).
    SetCapacity {
        /// The class whose capacity changes.
        class: SloClass,
        /// The new effective per-session queue capacity.
        queue_capacity: u64,
    },
    /// Fine-tune a session on encoded samples, replacing its private plan.
    Adapt {
        /// Session id.
        id: u64,
        /// Training data, feature maps already encoded.
        data: EncodedDataset,
        /// Fine-tuning hyper-parameters.
        config: FineTuneConfig,
    },
    /// Drain every queued micro-batch until the shard is idle.
    Flush,
    /// Collect the responses ready since the last poll.
    Poll,
    /// Snapshot latency samples and shard gauges (drains the recorder).
    Snapshot,
    /// Phase one of a checkpoint hot-swap: validate and stage `FCKP` bytes.
    PrepareCheckpoint {
        /// The serialized checkpoint, verbatim `FCKP` container bytes.
        bytes: Vec<u8>,
    },
    /// Phase one of a plan hot-swap: validate and stage `.fplan` bytes.
    PreparePlan {
        /// The serialized plan, verbatim `FPLN` container bytes.
        bytes: Vec<u8>,
        /// Model name recorded for diagnostics.
        name: String,
    },
    /// Phase two: atomically activate the staged swap.
    CommitSwap,
    /// Phase two alternative: discard the staged swap.
    AbortSwap,
    /// Extract a session's full state for migration (closes it here).
    ExportSession {
        /// Session id.
        id: u64,
    },
    /// Install a migrated session's state (fails on id collision).
    ImportSession {
        /// The exported state, bit-exact.
        state: Box<SessionState>,
    },
    /// Stop serving: the shard acknowledges, then its loop exits.
    Shutdown,
}

/// A host shard's reply to one [`WireRequest`].
#[derive(Debug, Clone)]
pub enum WireResponse {
    /// The session is open.
    Opened,
    /// The session closed; its learning/backlog summary.
    Closed(WireCloseReport),
    /// The frame was accepted into the shard's queue.
    Submitted,
    /// The dropout tick was accepted.
    Ticked,
    /// The effective capacity override is in force.
    CapacitySet,
    /// Fine-tuning finished; the mean training loss of each epoch.
    Adapted(Vec<f32>),
    /// The shard is idle; how much work the flush performed.
    Flushed(WireFlushReport),
    /// The responses ready since the last poll, in serving order.
    Polled(Vec<ServeResponse>),
    /// Latency samples (drained) and the shard gauge.
    Snapshot {
        /// The shard's latency samples since the previous snapshot.
        recorder: Box<LatencyRecorder>,
        /// Point-in-time shard counters.
        gauge: WireGauge,
    },
    /// The swap payload was validated and staged.
    Prepared(WireCheckpointMeta),
    /// The staged swap is now active at this model version.
    Committed {
        /// The shard's base-model version after the swap.
        version: u64,
    },
    /// The staged swap was discarded.
    Aborted,
    /// The session's state, extracted for migration.
    Exported(Box<SessionState>),
    /// The migrated session is installed and serving.
    Imported,
    /// Acknowledges [`WireRequest::Shutdown`]; no further replies follow.
    ShuttingDown,
    /// The request failed on the shard.
    Error(WireError),
}

/// What a closed session left behind (mirrors the local close report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCloseReport {
    /// `true` when the session had a private fine-tuned plan.
    pub adapted: bool,
    /// Frame indices still queued when the session closed — returned for
    /// accounting, never silently dropped.
    pub unserved: Vec<u64>,
}

/// Everything one flush barrier handed back.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFlushReport {
    /// Every response produced since the last collection.
    pub responses: Vec<ServeResponse>,
    /// `(session, frame)` pairs dropped by backpressure since the last
    /// flush.
    pub dropped: Vec<(u64, u64)>,
    /// `(session, frame)` pairs merged away by coalescing since the last
    /// flush.
    pub merged: Vec<(u64, u64)>,
}

/// Identity of a staged checkpoint, echoed back from phase one of a swap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCheckpointMeta {
    /// Model name recorded in the checkpoint.
    pub model_name: String,
    /// Number of parameter tensors staged.
    pub param_len: u64,
}

/// Point-in-time shard counters (wire mirror of the cluster's shard gauge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireGauge {
    /// Shard index within the cluster.
    pub shard: u64,
    /// Open sessions.
    pub sessions: u64,
    /// Frames queued and not yet inferred.
    pub queue_depth: u64,
    /// Session with the deepest queue, if any.
    pub deepest_queue: Option<(u64, u64)>,
    /// Responses ready to poll.
    pub ready: u64,
    /// Frames dropped by backpressure since start.
    pub dropped_frames: u64,
    /// Frames merged by coalescing since start.
    pub merged_frames: u64,
    /// Submits that blocked on a full queue since start.
    pub blocked_submits: u64,
    /// Micro-batch steps executed since start.
    pub steps: u64,
    /// Responses produced since start.
    pub responses: u64,
    /// Current base-model version.
    pub model_version: u64,
}

/// A shard-side failure, encoded so the typed variants survive the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The request referenced a session the shard does not have.
    UnknownSession(u64),
    /// The session id is already open on the shard.
    DuplicateSession(u64),
    /// Any other failure, carried as its display string.
    Other(String),
    /// The shard could not decode the request; carries the decode error's
    /// display string. The shard keeps serving.
    BadRequest(String),
}

impl From<&ServeError> for WireError {
    fn from(e: &ServeError) -> Self {
        match e {
            ServeError::UnknownSession(id) => WireError::UnknownSession(*id),
            ServeError::DuplicateSession(id) => WireError::DuplicateSession(*id),
            other => WireError::Other(other.to_string()),
        }
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::UnknownSession(id) => ServeError::UnknownSession(id),
            WireError::DuplicateSession(id) => ServeError::DuplicateSession(id),
            WireError::Other(msg) => ServeError::Remote(msg),
            WireError::BadRequest(msg) => ServeError::Remote(format!("bad request: {msg}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared-type codecs.
// ---------------------------------------------------------------------------

fn encode_frame_msg(w: &mut Writer, frame: &PointCloudFrame) {
    w.u64(frame.index as u64);
    w.f64(frame.timestamp_s);
    w.u64(frame.points.len() as u64);
    for p in &frame.points {
        w.f32(p.x);
        w.f32(p.y);
        w.f32(p.z);
        w.f32(p.doppler);
        w.f32(p.intensity);
    }
}

fn decode_frame_msg(r: &mut Reader<'_>) -> Result<PointCloudFrame> {
    let index = r.usize("frame index")?;
    let timestamp_s = r.f64("frame timestamp")?;
    let n = r.len_prefix(20, "point count")?;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        points.push(RadarPoint::new(
            r.f32("point x")?,
            r.f32("point y")?,
            r.f32("point z")?,
            r.f32("point doppler")?,
            r.f32("point intensity")?,
        ));
    }
    Ok(PointCloudFrame::new(index, timestamp_s, points))
}

fn encode_tensor(w: &mut Writer, t: &Tensor) {
    let dims = t.dims();
    w.u64(dims.len() as u64);
    for &d in dims {
        w.u64(d as u64);
    }
    w.f32_slice(t.as_slice());
}

fn decode_tensor(r: &mut Reader<'_>) -> Result<Tensor> {
    let rank = r.len_prefix(8, "tensor rank")?;
    let dims: Vec<usize> = (0..rank).map(|_| r.usize("tensor dim")).collect::<Result<_>>()?;
    let data = r.f32_vec("tensor data")?;
    Tensor::from_vec(data, &dims).map_err(|e| NetError::Decode(format!("tensor: {e}")))
}

fn encode_recorder(w: &mut Writer, rec: &LatencyRecorder) {
    w.f64(rec.budget_ms());
    w.u64(rec.sample_window() as u64);
    for stage in Stage::ALL {
        let samples: Vec<f64> = rec.stage_samples(stage).collect();
        w.u64(samples.len() as u64);
        for s in samples {
            w.f64(s);
        }
    }
}

fn decode_recorder(r: &mut Reader<'_>) -> Result<LatencyRecorder> {
    let budget = r.f64("latency budget")?;
    let window = r.usize("sample window")?;
    let mut rec = LatencyRecorder::new(budget).with_sample_window(window);
    for stage in Stage::ALL {
        let n = r.len_prefix(8, "latency samples")?;
        for _ in 0..n {
            rec.record(stage, r.f64("latency sample")?);
        }
    }
    Ok(rec)
}

fn encode_checkpoint_opt(w: &mut Writer, ckpt: &Option<Checkpoint>) {
    match ckpt {
        None => w.u8(0),
        Some(c) => {
            w.u8(1);
            w.bytes(&c.to_binary());
        }
    }
}

fn decode_checkpoint_opt(r: &mut Reader<'_>) -> Result<Option<Checkpoint>> {
    match r.u8("checkpoint flag")? {
        0 => Ok(None),
        1 => Checkpoint::from_binary(r.blob_ref("checkpoint bytes")?)
            .map(Some)
            .map_err(|e| NetError::Decode(format!("checkpoint: {e}"))),
        other => Err(NetError::Decode(format!("bad checkpoint flag {other}"))),
    }
}

/// One byte for an optional SLO class: `0` = unset, then the classes in
/// `SloClass::ALL` order. The mapping is part of the wire contract — a new
/// class appends, never reorders.
fn encode_slo_opt(w: &mut Writer, slo: Option<SloClass>) {
    w.u8(match slo {
        None => 0,
        Some(SloClass::Clinical) => 1,
        Some(SloClass::Interactive) => 2,
        Some(SloClass::Dashboard) => 3,
    });
}

fn decode_slo_opt(r: &mut Reader<'_>) -> Result<Option<SloClass>> {
    Ok(match r.u8("slo class")? {
        0 => None,
        1 => Some(SloClass::Clinical),
        2 => Some(SloClass::Interactive),
        3 => Some(SloClass::Dashboard),
        other => return Err(NetError::Decode(format!("bad slo class {other}"))),
    })
}

fn encode_session_config(w: &mut Writer, c: &SessionConfig) {
    w.u64(c.id());
    encode_slo_opt(w, c.slo_class());
    match c.fusion_override() {
        None => w.u8(0),
        Some(fusion) => {
            w.u8(1);
            w.u64(fusion.half_window() as u64);
        }
    }
    match c.feature_map_override() {
        None => w.u8(0),
        Some(builder) => {
            w.u8(1);
            w.u64(builder.height() as u64);
            w.u64(builder.width() as u64);
        }
    }
}

/// The largest fusion half-window `M` a session may bring over the wire.
///
/// A streaming session keeps the last `M + 1` frames of its stream and
/// re-bins all their points on every submit, so a host shard bounds `M` to
/// bound what one client costs it. 64 is far beyond the paper's windows of
/// one to five frames; an in-process [`SessionConfig`] is not capped.
pub const MAX_WIRE_FUSION_HALF_WINDOW: usize = 64;

fn decode_fusion(r: &mut Reader<'_>) -> Result<FrameFusion> {
    let half_window = r.u64("fusion half window")?;
    if half_window > MAX_WIRE_FUSION_HALF_WINDOW as u64 {
        return Err(NetError::Decode(format!(
            "fusion half window {half_window} exceeds the cap of {MAX_WIRE_FUSION_HALF_WINDOW}"
        )));
    }
    Ok(FrameFusion::new(half_window as usize))
}

fn decode_session_config(r: &mut Reader<'_>) -> Result<SessionConfig> {
    let mut config = SessionConfig::new(r.u64("session id")?);
    if let Some(slo) = decode_slo_opt(r)? {
        config = config.slo(slo);
    }
    match r.u8("fusion flag")? {
        0 => {}
        1 => config = config.fusion(decode_fusion(r)?),
        other => return Err(NetError::Decode(format!("bad fusion flag {other}"))),
    }
    match r.u8("feature map flag")? {
        0 => {}
        1 => {
            let height = r.usize("feature map height")?;
            let width = r.usize("feature map width")?;
            config = config.feature_map(FeatureMapBuilder::new(height, width));
        }
        other => return Err(NetError::Decode(format!("bad feature map flag {other}"))),
    }
    Ok(config)
}

fn encode_session_state(w: &mut Writer, s: &SessionState) {
    w.u64(s.id);
    encode_slo_opt(w, s.slo);
    w.u64(s.fusion.half_window() as u64);
    w.u64(s.frames_seen);
    w.u64(s.ticks_seen);
    w.u64(s.history.len() as u64);
    for frame in &s.history {
        encode_frame_msg(w, frame);
    }
    w.u64(s.slot_mask.len() as u64);
    for &occupied in &s.slot_mask {
        w.u8(occupied as u8);
    }
    encode_checkpoint_opt(w, &s.checkpoint);
    w.u64(s.pending.len() as u64);
    for (frame_index, features) in &s.pending {
        w.u64(*frame_index);
        encode_tensor(w, features);
    }
}

fn decode_session_state(r: &mut Reader<'_>) -> Result<SessionState> {
    let id = r.u64("session id")?;
    let slo = decode_slo_opt(r)?;
    let fusion = decode_fusion(r)?;
    let frames_seen = r.u64("frames seen")?;
    let ticks_seen = r.u64("ticks seen")?;
    let n = r.len_prefix(20, "history length")?;
    let history = (0..n).map(|_| decode_frame_msg(r)).collect::<Result<_>>()?;
    let n = r.len_prefix(1, "slot mask length")?;
    let slot_mask = (0..n)
        .map(|_| match r.u8("slot mask entry")? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(NetError::Decode(format!("bad slot mask entry {other}"))),
        })
        .collect::<Result<_>>()?;
    let checkpoint = decode_checkpoint_opt(r)?;
    let n = r.len_prefix(8, "pending length")?;
    let pending = (0..n)
        .map(|_| Ok((r.u64("pending frame index")?, decode_tensor(r)?)))
        .collect::<Result<_>>()?;
    Ok(SessionState {
        id,
        slo,
        fusion,
        frames_seen,
        ticks_seen,
        history,
        slot_mask,
        checkpoint,
        pending,
    })
}

fn encode_dataset_msg(w: &mut Writer, data: &EncodedDataset) {
    w.u64(data.samples().len() as u64);
    for s in data.samples() {
        encode_tensor(w, &s.input);
        w.f32_slice(&s.label);
        w.u64(s.subject_id as u64);
        w.u8(s.movement.index() as u8);
        w.u64(s.sequence_index as u64);
    }
    w.f32_slice(data.normalizer().means());
    w.f32_slice(data.normalizer().stds());
    for d in data.input_dims() {
        w.u64(d as u64);
    }
}

fn decode_dataset_msg(r: &mut Reader<'_>) -> Result<EncodedDataset> {
    let n = r.len_prefix(8, "sample count")?;
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let input = decode_tensor(r)?;
        let label = r.f32_vec("sample label")?;
        let subject_id = r.usize("subject id")?;
        let movement_idx = r.u8("movement index")? as usize;
        let movement = *Movement::ALL
            .get(movement_idx)
            .ok_or_else(|| NetError::Decode(format!("bad movement index {movement_idx}")))?;
        let sequence_index = r.usize("sequence index")?;
        samples.push(EncodedSample { input, label, subject_id, movement, sequence_index });
    }
    let means = r.f32_vec("normalizer means")?;
    let stds = r.f32_vec("normalizer stds")?;
    if means.len() != stds.len() {
        return Err(NetError::Decode("normalizer means/stds length mismatch".into()));
    }
    let normalizer = Normalizer::from_stats(means, stds);
    let input_dims = [r.usize("input dim 0")?, r.usize("input dim 1")?, r.usize("input dim 2")?];
    Ok(EncodedDataset::from_parts(samples, normalizer, input_dims))
}

fn encode_finetune_config(w: &mut Writer, c: &FineTuneConfig) {
    w.u64(c.epochs as u64);
    w.u64(c.batch_size as u64);
    w.f32(c.learning_rate);
    w.u8(match c.scope {
        FineTuneScope::AllLayers => 0,
        FineTuneScope::LastLayer => 1,
    });
    w.u64(c.seed);
}

fn decode_finetune_config(r: &mut Reader<'_>) -> Result<FineTuneConfig> {
    let epochs = r.usize("epochs")?;
    let batch_size = r.usize("batch size")?;
    let learning_rate = r.f32("learning rate")?;
    let scope = match r.u8("scope")? {
        0 => FineTuneScope::AllLayers,
        1 => FineTuneScope::LastLayer,
        other => return Err(NetError::Decode(format!("bad fine-tune scope {other}"))),
    };
    let seed = r.u64("seed")?;
    Ok(FineTuneConfig { epochs, batch_size, learning_rate, scope, seed })
}

fn encode_serve_response(w: &mut Writer, resp: &ServeResponse) {
    w.u64(resp.session_id);
    w.u64(resp.frame_index);
    w.u64(resp.model_version);
    w.u8(resp.adapted as u8);
    w.f32_slice(&resp.joints);
}

fn decode_serve_response(r: &mut Reader<'_>) -> Result<ServeResponse> {
    Ok(ServeResponse {
        session_id: r.u64("response session")?,
        frame_index: r.u64("response frame")?,
        model_version: r.u64("response version")?,
        adapted: match r.u8("response adapted")? {
            0 => false,
            1 => true,
            other => return Err(NetError::Decode(format!("bad adapted flag {other}"))),
        },
        joints: r.f32_vec("response joints")?,
    })
}

fn encode_index_pairs(w: &mut Writer, pairs: &[(u64, u64)]) {
    w.u64(pairs.len() as u64);
    for &(session, frame) in pairs {
        w.u64(session);
        w.u64(frame);
    }
}

fn decode_index_pairs(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<(u64, u64)>> {
    let n = r.len_prefix(16, what)?;
    (0..n).map(|_| Ok((r.u64(what)?, r.u64(what)?))).collect()
}

fn encode_gauge(w: &mut Writer, g: &WireGauge) {
    w.u64(g.shard);
    w.u64(g.sessions);
    w.u64(g.queue_depth);
    match g.deepest_queue {
        None => w.u8(0),
        Some((id, depth)) => {
            w.u8(1);
            w.u64(id);
            w.u64(depth);
        }
    }
    w.u64(g.ready);
    w.u64(g.dropped_frames);
    w.u64(g.merged_frames);
    w.u64(g.blocked_submits);
    w.u64(g.steps);
    w.u64(g.responses);
    w.u64(g.model_version);
}

fn decode_gauge(r: &mut Reader<'_>) -> Result<WireGauge> {
    Ok(WireGauge {
        shard: r.u64("gauge shard")?,
        sessions: r.u64("gauge sessions")?,
        queue_depth: r.u64("gauge queue depth")?,
        deepest_queue: match r.u8("gauge deepest flag")? {
            0 => None,
            1 => Some((r.u64("gauge deepest id")?, r.u64("gauge deepest depth")?)),
            other => return Err(NetError::Decode(format!("bad deepest-queue flag {other}"))),
        },
        ready: r.u64("gauge ready")?,
        dropped_frames: r.u64("gauge dropped")?,
        merged_frames: r.u64("gauge merged")?,
        blocked_submits: r.u64("gauge blocked")?,
        steps: r.u64("gauge steps")?,
        responses: r.u64("gauge responses")?,
        model_version: r.u64("gauge version")?,
    })
}

fn encode_wire_error(w: &mut Writer, e: &WireError) {
    match e {
        WireError::UnknownSession(id) => {
            w.u8(0);
            w.u64(*id);
        }
        WireError::DuplicateSession(id) => {
            w.u8(1);
            w.u64(*id);
        }
        WireError::Other(msg) => {
            w.u8(2);
            w.str(msg);
        }
        WireError::BadRequest(msg) => {
            w.u8(3);
            w.str(msg);
        }
    }
}

fn decode_wire_error(r: &mut Reader<'_>) -> Result<WireError> {
    Ok(match r.u8("error tag")? {
        0 => WireError::UnknownSession(r.u64("error session")?),
        1 => WireError::DuplicateSession(r.u64("error session")?),
        2 => WireError::Other(r.str("error message")?),
        3 => WireError::BadRequest(r.str("error message")?),
        other => return Err(NetError::Decode(format!("bad error tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Top-level message codecs.
// ---------------------------------------------------------------------------

const REQ_OPEN: u8 = 1;
const REQ_CLOSE: u8 = 2;
const REQ_SUBMIT: u8 = 3;
const REQ_ADAPT: u8 = 4;
const REQ_FLUSH: u8 = 5;
const REQ_POLL: u8 = 6;
const REQ_SNAPSHOT: u8 = 7;
const REQ_PREPARE_CHECKPOINT: u8 = 8;
const REQ_PREPARE_PLAN: u8 = 9;
const REQ_COMMIT_SWAP: u8 = 10;
const REQ_ABORT_SWAP: u8 = 11;
const REQ_EXPORT_SESSION: u8 = 12;
const REQ_IMPORT_SESSION: u8 = 13;
const REQ_SHUTDOWN: u8 = 14;
const REQ_TICK: u8 = 15;
const REQ_SET_CAPACITY: u8 = 16;

const RESP_OPENED: u8 = 1;
const RESP_CLOSED: u8 = 2;
const RESP_SUBMITTED: u8 = 3;
// Tag 4 carried the adaptation's evaluation curves; it stays retired so a
// peer that still sends or expects that body gets a typed decode error.
const RESP_FLUSHED: u8 = 5;
const RESP_POLLED: u8 = 6;
const RESP_SNAPSHOT: u8 = 7;
const RESP_PREPARED: u8 = 8;
const RESP_COMMITTED: u8 = 9;
const RESP_ABORTED: u8 = 10;
const RESP_EXPORTED: u8 = 11;
const RESP_IMPORTED: u8 = 12;
const RESP_SHUTTING_DOWN: u8 = 13;
const RESP_ERROR: u8 = 14;
const RESP_TICKED: u8 = 15;
const RESP_CAPACITY_SET: u8 = 16;
const RESP_ADAPTED: u8 = 17;

impl WireRequest {
    /// Encodes the request as an RPC body.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            WireRequest::Open { config } => {
                w.u8(REQ_OPEN);
                encode_session_config(&mut w, config);
            }
            WireRequest::Close { id } => {
                w.u8(REQ_CLOSE);
                w.u64(*id);
            }
            WireRequest::Submit { id, frame } => {
                w.u8(REQ_SUBMIT);
                w.u64(*id);
                encode_frame_msg(&mut w, frame);
            }
            WireRequest::Tick { id } => {
                w.u8(REQ_TICK);
                w.u64(*id);
            }
            WireRequest::SetCapacity { class, queue_capacity } => {
                w.u8(REQ_SET_CAPACITY);
                encode_slo_opt(&mut w, Some(*class));
                w.u64(*queue_capacity);
            }
            WireRequest::Adapt { id, data, config } => {
                w.u8(REQ_ADAPT);
                w.u64(*id);
                encode_dataset_msg(&mut w, data);
                encode_finetune_config(&mut w, config);
            }
            WireRequest::Flush => w.u8(REQ_FLUSH),
            WireRequest::Poll => w.u8(REQ_POLL),
            WireRequest::Snapshot => w.u8(REQ_SNAPSHOT),
            WireRequest::PrepareCheckpoint { bytes } => {
                w.u8(REQ_PREPARE_CHECKPOINT);
                w.bytes(bytes);
            }
            WireRequest::PreparePlan { bytes, name } => {
                w.u8(REQ_PREPARE_PLAN);
                w.bytes(bytes);
                w.str(name);
            }
            WireRequest::CommitSwap => w.u8(REQ_COMMIT_SWAP),
            WireRequest::AbortSwap => w.u8(REQ_ABORT_SWAP),
            WireRequest::ExportSession { id } => {
                w.u8(REQ_EXPORT_SESSION);
                w.u64(*id);
            }
            WireRequest::ImportSession { state } => {
                w.u8(REQ_IMPORT_SESSION);
                encode_session_state(&mut w, state);
            }
            WireRequest::Shutdown => w.u8(REQ_SHUTDOWN),
        }
        w.into_bytes()
    }

    /// Decodes a request from an RPC body.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] / [`NetError::Decode`] on any
    /// malformed, short or over-long encoding.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let req = match r.u8("request tag")? {
            REQ_OPEN => WireRequest::Open { config: decode_session_config(&mut r)? },
            REQ_CLOSE => WireRequest::Close { id: r.u64("session id")? },
            REQ_SUBMIT => {
                WireRequest::Submit { id: r.u64("session id")?, frame: decode_frame_msg(&mut r)? }
            }
            REQ_ADAPT => WireRequest::Adapt {
                id: r.u64("session id")?,
                data: decode_dataset_msg(&mut r)?,
                config: decode_finetune_config(&mut r)?,
            },
            REQ_FLUSH => WireRequest::Flush,
            REQ_POLL => WireRequest::Poll,
            REQ_SNAPSHOT => WireRequest::Snapshot,
            REQ_PREPARE_CHECKPOINT => {
                WireRequest::PrepareCheckpoint { bytes: r.blob("checkpoint bytes")? }
            }
            REQ_PREPARE_PLAN => {
                WireRequest::PreparePlan { bytes: r.blob("plan bytes")?, name: r.str("plan name")? }
            }
            REQ_COMMIT_SWAP => WireRequest::CommitSwap,
            REQ_ABORT_SWAP => WireRequest::AbortSwap,
            REQ_EXPORT_SESSION => WireRequest::ExportSession { id: r.u64("session id")? },
            REQ_IMPORT_SESSION => {
                WireRequest::ImportSession { state: Box::new(decode_session_state(&mut r)?) }
            }
            REQ_SHUTDOWN => WireRequest::Shutdown,
            REQ_TICK => WireRequest::Tick { id: r.u64("session id")? },
            REQ_SET_CAPACITY => {
                let class = decode_slo_opt(&mut r)?.ok_or_else(|| {
                    NetError::Decode("set-capacity requires a concrete slo class".into())
                })?;
                WireRequest::SetCapacity { class, queue_capacity: r.u64("queue capacity")? }
            }
            other => return Err(NetError::Decode(format!("bad request tag {other}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

impl WireResponse {
    /// Encodes the response as an RPC body.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            WireResponse::Opened => w.u8(RESP_OPENED),
            WireResponse::Closed(report) => {
                w.u8(RESP_CLOSED);
                w.u8(report.adapted as u8);
                w.u64(report.unserved.len() as u64);
                for &frame_index in &report.unserved {
                    w.u64(frame_index);
                }
            }
            WireResponse::Submitted => w.u8(RESP_SUBMITTED),
            WireResponse::Ticked => w.u8(RESP_TICKED),
            WireResponse::CapacitySet => w.u8(RESP_CAPACITY_SET),
            WireResponse::Adapted(losses) => {
                w.u8(RESP_ADAPTED);
                w.f32_slice(losses);
            }
            WireResponse::Flushed(report) => {
                w.u8(RESP_FLUSHED);
                w.u64(report.responses.len() as u64);
                for resp in &report.responses {
                    encode_serve_response(&mut w, resp);
                }
                encode_index_pairs(&mut w, &report.dropped);
                encode_index_pairs(&mut w, &report.merged);
            }
            WireResponse::Polled(responses) => {
                w.u8(RESP_POLLED);
                w.u64(responses.len() as u64);
                for resp in responses {
                    encode_serve_response(&mut w, resp);
                }
            }
            WireResponse::Snapshot { recorder, gauge } => {
                w.u8(RESP_SNAPSHOT);
                encode_recorder(&mut w, recorder);
                encode_gauge(&mut w, gauge);
            }
            WireResponse::Prepared(meta) => {
                w.u8(RESP_PREPARED);
                w.str(&meta.model_name);
                w.u64(meta.param_len);
            }
            WireResponse::Committed { version } => {
                w.u8(RESP_COMMITTED);
                w.u64(*version);
            }
            WireResponse::Aborted => w.u8(RESP_ABORTED),
            WireResponse::Exported(state) => {
                w.u8(RESP_EXPORTED);
                encode_session_state(&mut w, state);
            }
            WireResponse::Imported => w.u8(RESP_IMPORTED),
            WireResponse::ShuttingDown => w.u8(RESP_SHUTTING_DOWN),
            WireResponse::Error(e) => {
                w.u8(RESP_ERROR);
                encode_wire_error(&mut w, e);
            }
        }
        w.into_bytes()
    }

    /// Decodes a response from an RPC body.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] / [`NetError::Decode`] on any
    /// malformed, short or over-long encoding.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let resp = match r.u8("response tag")? {
            RESP_OPENED => WireResponse::Opened,
            RESP_CLOSED => {
                let adapted = match r.u8("close adapted")? {
                    0 => false,
                    1 => true,
                    other => return Err(NetError::Decode(format!("bad adapted flag {other}"))),
                };
                let n = r.len_prefix(8, "close unserved")?;
                let unserved = (0..n).map(|_| r.u64("unserved frame")).collect::<Result<_>>()?;
                WireResponse::Closed(WireCloseReport { adapted, unserved })
            }
            RESP_SUBMITTED => WireResponse::Submitted,
            RESP_TICKED => WireResponse::Ticked,
            RESP_CAPACITY_SET => WireResponse::CapacitySet,
            RESP_ADAPTED => WireResponse::Adapted(r.f32_vec("train loss")?),
            RESP_FLUSHED => {
                let n = r.len_prefix(29, "flush response count")?;
                let responses =
                    (0..n).map(|_| decode_serve_response(&mut r)).collect::<Result<_>>()?;
                WireResponse::Flushed(WireFlushReport {
                    responses,
                    dropped: decode_index_pairs(&mut r, "flush dropped")?,
                    merged: decode_index_pairs(&mut r, "flush merged")?,
                })
            }
            RESP_POLLED => {
                let n = r.len_prefix(29, "response count")?;
                let responses =
                    (0..n).map(|_| decode_serve_response(&mut r)).collect::<Result<_>>()?;
                WireResponse::Polled(responses)
            }
            RESP_SNAPSHOT => WireResponse::Snapshot {
                recorder: Box::new(decode_recorder(&mut r)?),
                gauge: decode_gauge(&mut r)?,
            },
            RESP_PREPARED => WireResponse::Prepared(WireCheckpointMeta {
                model_name: r.str("checkpoint model name")?,
                param_len: r.u64("checkpoint param count")?,
            }),
            RESP_COMMITTED => WireResponse::Committed { version: r.u64("model version")? },
            RESP_ABORTED => WireResponse::Aborted,
            RESP_EXPORTED => WireResponse::Exported(Box::new(decode_session_state(&mut r)?)),
            RESP_IMPORTED => WireResponse::Imported,
            RESP_SHUTTING_DOWN => WireResponse::ShuttingDown,
            RESP_ERROR => WireResponse::Error(decode_wire_error(&mut r)?),
            other => return Err(NetError::Decode(format!("bad response tag {other}"))),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(index: usize) -> PointCloudFrame {
        PointCloudFrame::new(
            index,
            0.1 * index as f64,
            vec![
                RadarPoint::new(1.5, -2.25, 0.75, -0.0, f32::MIN_POSITIVE),
                RadarPoint::new(-1.0, 2.0, 3.0, 4.0, 5.0),
            ],
        )
    }

    fn assert_request_round_trips(req: &WireRequest) -> WireRequest {
        WireRequest::decode(&req.encode()).expect("request must decode")
    }

    fn assert_response_round_trips(resp: &WireResponse) -> WireResponse {
        WireResponse::decode(&resp.encode()).expect("response must decode")
    }

    #[test]
    fn simple_requests_round_trip() {
        for req in [
            WireRequest::Open { config: SessionConfig::new(7) },
            WireRequest::Close { id: u64::MAX },
            WireRequest::Tick { id: 12 },
            WireRequest::SetCapacity { class: SloClass::Dashboard, queue_capacity: 3 },
            WireRequest::Flush,
            WireRequest::Poll,
            WireRequest::Snapshot,
            WireRequest::CommitSwap,
            WireRequest::AbortSwap,
            WireRequest::ExportSession { id: 3 },
            WireRequest::Shutdown,
            WireRequest::PrepareCheckpoint { bytes: vec![1, 2, 3] },
            WireRequest::PreparePlan { bytes: vec![9; 40], name: "mars-cnn".into() },
        ] {
            // Debug formatting is a faithful structural witness for these
            // payload-free / plain-bytes variants.
            assert_eq!(format!("{:?}", assert_request_round_trips(&req)), format!("{req:?}"));
        }
    }

    #[test]
    fn open_round_trips_every_session_config_shape() {
        // Every combination of set/unset options must survive the wire —
        // the config IS the session's identity on a remote shard.
        let configs = [
            SessionConfig::new(0),
            SessionConfig::new(1).slo(SloClass::Clinical),
            SessionConfig::new(2).slo(SloClass::Interactive).fusion(FrameFusion::new(3)),
            SessionConfig::new(3)
                .slo(SloClass::Dashboard)
                .fusion(FrameFusion::new(0))
                .feature_map(FeatureMapBuilder::new(16, 12)),
            SessionConfig::new(u64::MAX).feature_map(FeatureMapBuilder::new(8, 8)),
        ];
        for config in configs {
            let WireRequest::Open { config: decoded } =
                assert_request_round_trips(&WireRequest::Open { config: config.clone() })
            else {
                panic!("wrong variant");
            };
            assert_eq!(decoded, config);
        }
        // An out-of-range class byte is a typed decode error.
        let mut bytes = WireRequest::Open { config: SessionConfig::new(9) }.encode();
        bytes[9] = 200; // the slo byte sits right after tag + id
        assert!(matches!(WireRequest::decode(&bytes), Err(NetError::Decode(_))));
    }

    #[test]
    fn fusion_windows_above_the_cap_are_decode_errors() {
        let open = |m: usize| {
            let config = SessionConfig::new(4).fusion(FrameFusion::new(m));
            WireRequest::decode(&WireRequest::Open { config }.encode())
        };
        assert!(open(MAX_WIRE_FUSION_HALF_WINDOW).is_ok());
        for m in [MAX_WIRE_FUSION_HALF_WINDOW + 1, 1 << 40, usize::MAX] {
            assert!(matches!(open(m), Err(NetError::Decode(_))), "open with M = {m}");
        }
        let state = SessionState {
            id: 4,
            slo: None,
            fusion: FrameFusion::new(1 << 40),
            frames_seen: 0,
            ticks_seen: 0,
            history: Vec::new(),
            slot_mask: Vec::new(),
            checkpoint: None,
            pending: Vec::new(),
        };
        let import = WireRequest::ImportSession { state: Box::new(state) }.encode();
        assert!(matches!(WireRequest::decode(&import), Err(NetError::Decode(_))));
    }

    #[test]
    fn the_retired_adapted_tag_is_a_decode_error() {
        // The body a peer built before the loss-only `Adapted` sent: tag 4,
        // two empty error curves and one loss.
        let mut old = vec![4u8];
        old.extend_from_slice(&0u64.to_le_bytes());
        old.extend_from_slice(&0u64.to_le_bytes());
        old.extend_from_slice(&1u64.to_le_bytes());
        old.extend_from_slice(&0.5f32.to_bits().to_le_bytes());
        assert!(matches!(WireResponse::decode(&old), Err(NetError::Decode(_))));
        let new = WireResponse::Adapted(vec![0.5]).encode();
        assert_ne!(new[0], 4, "the loss-only body travels under a new tag");
    }

    #[test]
    fn submit_round_trips_frames_bit_exactly() {
        let original = frame(42);
        let WireRequest::Submit { id, frame: decoded } =
            assert_request_round_trips(&WireRequest::Submit { id: 9, frame: original.clone() })
        else {
            panic!("wrong variant");
        };
        assert_eq!(id, 9);
        assert_eq!(decoded.index, original.index);
        assert_eq!(decoded.timestamp_s.to_bits(), original.timestamp_s.to_bits());
        assert_eq!(decoded.points.len(), original.points.len());
        for (d, o) in decoded.points.iter().zip(&original.points) {
            assert_eq!(d.features().map(f32::to_bits), o.features().map(f32::to_bits));
        }
    }

    #[test]
    fn session_state_round_trips_with_checkpoint_and_pending_work() {
        use fuse_nn::layers::Linear;
        use fuse_nn::Sequential;

        let model = Sequential::new(vec![Box::new(Linear::new(4, 3, 77).unwrap())]);
        let state = SessionState {
            id: 11,
            slo: Some(SloClass::Interactive),
            fusion: FrameFusion::new(2),
            frames_seen: 5,
            ticks_seen: 7,
            history: vec![frame(3), frame(4)],
            // Two retained frames with a dropout gap between them.
            slot_mask: vec![true, false, true],
            checkpoint: Some(Checkpoint::capture(&model, "session-11")),
            pending: vec![(5, Tensor::from_vec(vec![1.0, -2.5, 3.25, 0.5], &[4]).unwrap())],
        };
        let WireRequest::ImportSession { state: decoded } =
            assert_request_round_trips(&WireRequest::ImportSession {
                state: Box::new(state.clone()),
            })
        else {
            panic!("wrong variant");
        };
        assert_eq!(decoded.id, state.id);
        assert_eq!(decoded.slo, state.slo);
        assert_eq!(decoded.fusion.half_window(), 2);
        assert_eq!(decoded.frames_seen, state.frames_seen);
        assert_eq!(decoded.ticks_seen, state.ticks_seen);
        assert_eq!(decoded.history.len(), 2);
        assert_eq!(decoded.slot_mask, state.slot_mask);
        let original_ckpt = state.checkpoint.unwrap();
        let decoded_ckpt = decoded.checkpoint.unwrap();
        assert_eq!(decoded_ckpt.to_binary(), original_ckpt.to_binary());
        assert_eq!(decoded.pending.len(), 1);
        assert_eq!(decoded.pending[0].0, 5);
        assert_eq!(decoded.pending[0].1.as_slice(), state.pending[0].1.as_slice());
    }

    #[test]
    fn adapt_round_trips_an_encoded_dataset() {
        let sample = EncodedSample {
            input: Tensor::from_vec(vec![0.5; 8], &[2, 2, 2]).unwrap(),
            label: vec![0.25; 6],
            subject_id: 2,
            movement: Movement::ALL[7],
            sequence_index: 13,
        };
        let data = EncodedDataset::from_parts(
            vec![sample],
            Normalizer::from_stats(vec![0.1, 0.2], vec![1.0, 2.0]),
            [2, 2, 2],
        );
        let config = FineTuneConfig {
            epochs: 3,
            batch_size: 4,
            learning_rate: 1e-3,
            scope: FineTuneScope::LastLayer,
            seed: 99,
        };
        let WireRequest::Adapt { id, data: d2, config: c2 } =
            assert_request_round_trips(&WireRequest::Adapt { id: 1, data: data.clone(), config })
        else {
            panic!("wrong variant");
        };
        assert_eq!(id, 1);
        assert_eq!(c2, config);
        assert_eq!(d2.samples(), data.samples());
        assert_eq!(d2.normalizer().means(), data.normalizer().means());
        assert_eq!(d2.normalizer().stds(), data.normalizer().stds());
        assert_eq!(d2.input_dims(), data.input_dims());
    }

    #[test]
    fn responses_round_trip() {
        let polled = WireResponse::Polled(vec![ServeResponse {
            session_id: 3,
            frame_index: 8,
            model_version: 2,
            adapted: true,
            joints: vec![1.0, -0.0, f32::from_bits(0x7f80_0001)],
        }]);
        for resp in [
            WireResponse::Opened,
            WireResponse::Closed(WireCloseReport { adapted: true, unserved: vec![2, 5] }),
            WireResponse::Submitted,
            WireResponse::Ticked,
            WireResponse::CapacitySet,
            WireResponse::Adapted(vec![0.5, 0.25]),
            WireResponse::Flushed(WireFlushReport {
                responses: vec![ServeResponse {
                    session_id: 1,
                    frame_index: 2,
                    model_version: 3,
                    adapted: false,
                    joints: vec![0.5; 57],
                }],
                dropped: vec![(1, 0)],
                merged: vec![(1, 1), (1, 2)],
            }),
            polled,
            WireResponse::Prepared(WireCheckpointMeta {
                model_name: "mars-cnn".into(),
                param_len: 8,
            }),
            WireResponse::Committed { version: 4 },
            WireResponse::Aborted,
            WireResponse::Imported,
            WireResponse::ShuttingDown,
            WireResponse::Error(WireError::UnknownSession(5)),
            WireResponse::Error(WireError::DuplicateSession(6)),
            WireResponse::Error(WireError::Other("shard on fire".into())),
            WireResponse::Error(WireError::BadRequest("bad request tag 99".into())),
        ] {
            assert_eq!(format!("{:?}", assert_response_round_trips(&resp)), format!("{resp:?}"));
        }
    }

    #[test]
    fn snapshot_round_trips_latency_samples_and_gauges() {
        let mut rec = LatencyRecorder::new(22.0).with_sample_window(16);
        rec.record(Stage::Fuse, 1.25);
        rec.record(Stage::Inference, 3.5);
        rec.record(Stage::Total, 5.75);
        let gauge = WireGauge {
            shard: 1,
            sessions: 2,
            queue_depth: 3,
            deepest_queue: Some((9, 3)),
            ready: 4,
            dropped_frames: 5,
            merged_frames: 6,
            blocked_submits: 7,
            steps: 8,
            responses: 9,
            model_version: 10,
        };
        let WireResponse::Snapshot { recorder, gauge: g2 } =
            assert_response_round_trips(&WireResponse::Snapshot {
                recorder: Box::new(rec.clone()),
                gauge,
            })
        else {
            panic!("wrong variant");
        };
        assert_eq!(g2, gauge);
        assert_eq!(recorder.budget_ms(), 22.0);
        assert_eq!(recorder.sample_window(), 16);
        for stage in Stage::ALL {
            let got: Vec<f64> = recorder.stage_samples(stage).collect();
            let want: Vec<f64> = rec.stage_samples(stage).collect();
            assert_eq!(got, want, "{stage:?} samples must survive the wire");
        }
    }

    #[test]
    fn wire_errors_map_to_typed_serve_errors() {
        assert_eq!(ServeError::from(WireError::UnknownSession(4)), ServeError::UnknownSession(4));
        assert_eq!(
            ServeError::from(WireError::DuplicateSession(4)),
            ServeError::DuplicateSession(4)
        );
        assert!(matches!(
            ServeError::from(WireError::Other("boom".into())),
            ServeError::Remote(msg) if msg == "boom"
        ));
        assert_eq!(
            ServeError::from(WireError::BadRequest("bad request tag 99".into())),
            ServeError::Remote("bad request: bad request tag 99".into())
        );
        assert_eq!(WireError::from(&ServeError::UnknownSession(9)), WireError::UnknownSession(9));
    }

    #[test]
    fn corrupt_messages_are_typed_errors_not_panics() {
        assert!(WireRequest::decode(&[]).is_err());
        assert!(WireRequest::decode(&[200]).is_err(), "unknown tag");
        assert!(WireResponse::decode(&[200]).is_err(), "unknown tag");
        // Trailing bytes after a complete message.
        let mut bytes = WireRequest::Flush.encode();
        bytes.push(0);
        assert!(matches!(WireRequest::decode(&bytes), Err(NetError::Decode(_))));
        // A truncated submit.
        let bytes = WireRequest::Submit { id: 1, frame: frame(0) }.encode();
        assert!(matches!(
            WireRequest::decode(&bytes[..bytes.len() - 3]),
            Err(NetError::Truncated { .. })
        ));
        // A movement index beyond the roster.
        let sample = EncodedSample {
            input: Tensor::from_vec(vec![0.0], &[1]).unwrap(),
            label: vec![],
            subject_id: 0,
            movement: Movement::ALL[0],
            sequence_index: 0,
        };
        let data = EncodedDataset::from_parts(
            vec![sample],
            Normalizer::from_stats(vec![0.0], vec![1.0]),
            [1, 1, 1],
        );
        let config = FineTuneConfig::default();
        let mut bytes = WireRequest::Adapt { id: 0, data, config }.encode();
        // The movement byte sits right after tag + id + tensor + empty label
        // + subject id; find it by scanning for the only 0-byte we wrote as
        // a movement index is fragile, so corrupt via re-encode: flip every
        // byte one at a time and require no panic.
        for i in 0..bytes.len() {
            bytes[i] ^= 0xff;
            let _ = WireRequest::decode(&bytes); // must not panic
            bytes[i] ^= 0xff;
        }
    }
}
