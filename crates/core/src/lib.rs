//! # fuse-core
//!
//! FUSE: Fast and Scalable Human Pose Estimation using mmWave Point Cloud —
//! the paper's primary contribution, built on the substrates in
//! `fuse-tensor`, `fuse-nn`, `fuse-radar`, `fuse-skeleton` and `fuse-dataset`.
//!
//! The crate provides:
//!
//! * [`model`] — the MARS baseline CNN architecture (2 conv + 2 FC layers,
//!   ~1.1 M parameters) shared by the baseline and FUSE;
//! * [`baseline`] — conventional supervised training (the comparison point in
//!   every experiment);
//! * [`task`] + [`meta`] — the meta-learning framework of §3.3 (Algorithm 1);
//! * [`finetune`] — online fine-tuning of all layers or only the last layer;
//! * [`eval`] — per-axis MAE evaluation in centimetres;
//! * [`experiments`] — runnable reproductions of Table 1, Table 2 and
//!   Figures 2–4, used by the `fuse-bench` harness and the examples.
//!
//! ```no_run
//! use fuse_core::prelude::*;
//!
//! // Synthesize a small dataset, train the baseline, and report MAE.
//! let profile = ExperimentProfile::bench();
//! let result = fuse_core::experiments::table1::run(&profile)?;
//! println!("{}", result.render_table());
//! # Ok::<(), fuse_core::FuseError>(())
//! ```

pub mod baseline;
pub mod error;
pub mod eval;
pub mod experiments;
pub mod finetune;
pub mod meta;
pub mod model;
pub mod task;

pub use baseline::{Trainer, TrainerConfig, TrainingHistory};
pub use error::FuseError;
pub use eval::{evaluate_model, per_joint_mae_cm, predict_all, PoseError};
pub use finetune::{adapt, fine_tune, FineTuneConfig, FineTuneResult, FineTuneScope};
pub use meta::{MetaConfig, MetaHistory, MetaTrainer, MetaVariant};
pub use model::{build_mars_cnn, build_pooled_mars_cnn, ModelConfig};
pub use task::TaskSampler;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, FuseError>;

/// Commonly used types, re-exported for examples and benches.
pub mod prelude {
    pub use crate::baseline::{Trainer, TrainerConfig};
    pub use crate::eval::{evaluate_model, predict_all, PoseError};
    pub use crate::experiments::profile::ExperimentProfile;
    pub use crate::finetune::{adapt, fine_tune, FineTuneConfig, FineTuneScope};
    pub use crate::meta::{MetaConfig, MetaHistory, MetaTrainer, MetaVariant};
    pub use crate::model::{build_mars_cnn, build_pooled_mars_cnn, ModelConfig};
    pub use crate::FuseError;
    pub use fuse_dataset::{
        encode_dataset, FeatureMapBuilder, FrameFusion, LeaveOneOutSplit, MarsSynthesizer,
        SplitRatios, SynthesisConfig,
    };
    pub use fuse_nn::{AxisMae, Sequential};
}
