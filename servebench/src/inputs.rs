//! Seeded inputs, generated before any set-up and never timed.
//!
//! Every workload streams a fixed-length, per-session loop of radar frames
//! (`STREAM_LEN` frames, wrapped around for as long as the run lasts). Because
//! `STREAM_LEN` is a multiple of the dropout period and far longer than the
//! fusion window, slot `t` and slot `t + STREAM_LEN` see identical fused
//! inputs once the first loop has passed, so the expected output of every
//! slot of a run of any length is known from a replay of two loops
//! ([`reference_slot`]).

use std::error::Error;
use std::path::{Path, PathBuf};

use fuse_core::{build_mars_cnn, ModelConfig};
use fuse_dataset::{
    encode_dataset, EncodedDataset, FeatureMapBuilder, FrameFusion, MarsSynthesizer,
    SynthesisConfig,
};
use fuse_nn::{Checkpoint, Sequential};
use fuse_radar::{FastScatterModel, PointCloudFrame, RadarConfig, Scatterer, Scene};
use fuse_serve::{ServeConfig, ServeEngine, Session, SessionConfig};
use fuse_skeleton::{body_surface_points, Movement, MovementAnimator, Subject};

pub type Res<T> = Result<T, Box<dyn Error>>;

/// Frames per session before the stream wraps around.
pub const STREAM_LEN: usize = 64;
/// A session misses one cadence slot in this many (`ward` only).
pub const MISS_PERIOD: u64 = 8;
/// Frames in the fine-tune (few-shot adaptation) set.
pub const FINETUNE_FRAMES: usize = 32;

/// The slot of the two-loop reference replay whose expected outputs equal
/// those of slot `t`.
pub fn reference_slot(t: u64) -> usize {
    let len = STREAM_LEN as u64;
    (if t < 2 * len { t } else { len + t % len }) as usize
}

/// Whether session `s` misses slot `t` in a workload with dropouts. Misses
/// are staggered across sessions, so a slot of 32 sessions holds 28 frames.
pub fn misses(t: u64, s: u64) -> bool {
    (t + s).is_multiple_of(MISS_PERIOD)
}

/// splitmix64: derives independent sub-seeds from the run's seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The MARS CNN of §4.1 (2048→512 fc1), initialised from `seed`.
pub fn mars_model(seed: u64) -> Res<Sequential> {
    Ok(build_mars_cnn(&ModelConfig::default(), seed)?)
}

/// Decodes an FCKP artifact into a served model: the architecture is built,
/// then every parameter is overwritten from the checkpoint.
pub fn decode_model(fckp: &[u8]) -> Res<Sequential> {
    let mut model = mars_model(0)?;
    Checkpoint::from_binary(fckp)?.apply_to(&mut model)?;
    Ok(model)
}

/// One session's loop of radar frames: an animated subject performing one
/// movement, sampled through the fast scatter model.
pub fn session_stream(seed: u64, session: u64) -> Vec<PointCloudFrame> {
    let scatter = FastScatterModel::new(RadarConfig::iwr1443_indoor());
    let movement = Movement::ALL[(mix(seed, 10 + session) % Movement::ALL.len() as u64) as usize];
    let subject = Subject::profile((session % 4) as usize);
    let animator =
        MovementAnimator::new(subject, movement, 10.0).with_seed(mix(seed, 20 + session));
    animator
        .sample_frames_with_velocities(0.0, STREAM_LEN)
        .iter()
        .enumerate()
        .map(|(i, (skeleton, velocities))| {
            let scene: Scene = body_surface_points(skeleton, velocities, 4)
                .iter()
                .map(|p| Scatterer::new(p.position, p.velocity, p.reflectivity))
                .collect();
            scatter.sample(&scene, mix(seed, (session << 20) + i as u64))
        })
        .collect()
}

pub fn streams(seed: u64, sessions: u64) -> Vec<Vec<PointCloudFrame>> {
    (0..sessions).map(|s| session_stream(seed, s)).collect()
}

/// The fixed few-shot adaptation set: one subject performing one movement.
pub fn finetune_set(seed: u64) -> Res<EncodedDataset> {
    let movement = Movement::ALL[(mix(seed, 30) % Movement::ALL.len() as u64) as usize];
    let config = SynthesisConfig {
        subjects: vec![(mix(seed, 31) % 4) as usize],
        movements: vec![movement],
        frames_per_sequence: FINETUNE_FRAMES,
        seed: mix(seed, 32),
        ..SynthesisConfig::tiny()
    };
    let dataset = MarsSynthesizer::new(config).generate()?;
    Ok(encode_dataset(&dataset, &FrameFusion::default(), &FeatureMapBuilder::default())?)
}

/// Serialized artifacts of a model: its FCKP checkpoint, its float `.fplan`
/// and its int8 `.fplan`, compiled by the serving engine at the default
/// micro-batch cap.
pub struct Artifacts {
    pub fckp: Vec<u8>,
    pub fplan: Vec<u8>,
    pub fplan_int8: Vec<u8>,
}

pub fn artifacts(model: Sequential) -> Res<Artifacts> {
    let fckp = Checkpoint::capture(&model, "mars").to_binary();
    let engine = ServeEngine::new(model, ServeConfig::default())?;
    let plan = engine.plan().ok_or("the MARS CNN compiles to a plan")?;
    Ok(Artifacts { fckp, fplan: plan.to_bytes(), fplan_int8: plan.quantize()?.to_bytes() })
}

/// Expected `ward` outputs: a bare [`ServeEngine`] replay of two stream loops
/// with the same submits and dropout ticks, one step per slot. Indexed by
/// `reference_slot(t) * sessions + session`; missed slots stay empty.
pub fn ward_reference(model: Sequential, streams: &[Vec<PointCloudFrame>]) -> Res<Vec<Vec<f32>>> {
    let sessions = streams.len() as u64;
    let mut engine = ServeEngine::new(model, ServeConfig::default())?;
    for s in 0..sessions {
        engine.open_session(SessionConfig::new(s))?;
    }
    let mut expected = vec![Vec::new(); 2 * STREAM_LEN * sessions as usize];
    for t in 0..2 * STREAM_LEN as u64 {
        for s in 0..sessions {
            if misses(t, s) {
                engine.tick(s)?;
            } else {
                engine.submit(s, streams[s as usize][t as usize % STREAM_LEN].clone())?;
            }
        }
        engine.step()?;
        for r in engine.take_responses() {
            expected[t as usize * sessions as usize + r.session_id as usize] = r.joints;
        }
    }
    Ok(expected)
}

/// Expected `edge_int8` outputs: the float plan of the same model run at
/// batch 1 on the same fused features, for two stream loops.
pub fn edge_reference(fplan: &[u8], stream: &[PointCloudFrame]) -> Res<Vec<Vec<f32>>> {
    let mut plan = fuse_graph::ExecPlan::from_bytes(fplan)?;
    let mut session = Session::new(SessionConfig::new(0));
    let mut expected = Vec::with_capacity(2 * STREAM_LEN);
    for t in 0..2 * STREAM_LEN {
        session.push_frame(stream[t % STREAM_LEN].clone());
        let features = session.featurize_latest()?;
        expected.push(plan.run(features.as_slice(), 1)?.to_vec());
    }
    Ok(expected)
}

/// Writes a swap payload where the router's file-based swap calls read it.
pub fn write_payload(dir: &Path, name: &str, bytes: &[u8]) -> Res<PathBuf> {
    let path = dir.join(name);
    std::fs::write(&path, bytes)?;
    Ok(path)
}
