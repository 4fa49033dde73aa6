//! Online fine-tuning (§3.3.3 and §4.3.2).
//!
//! After deployment, a small amount of data from an unseen user/movement
//! (`D_test`, 200 frames in the paper) is used to fine-tune the model for a
//! few epochs. The experiments fine-tune either all layers or only the last
//! fully-connected layer, and after every epoch measure the MAE on both the
//! *new* data (the unseen scenario) and the *original* data (to quantify
//! catastrophic forgetting — the solid lines of Figures 3 and 4).
//!
//! [`adapt`] is the training alone, for serving; [`fine_tune`] runs the same
//! epochs with the experiments' evaluations between them.

use fuse_dataset::EncodedDataset;
use fuse_nn::{Adam, Sequential};
use fuse_parallel as par;
use serde::{Deserialize, Serialize};

use crate::baseline::train_epoch;
use crate::error::FuseError;
use crate::eval::{evaluate_model, PoseError};
use crate::Result;

/// Which parameters the fine-tuning step is allowed to update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FineTuneScope {
    /// Fine-tune every layer (Figure 3).
    AllLayers,
    /// Fine-tune only the final fully-connected layer (Figure 4).
    LastLayer,
}

impl std::fmt::Display for FineTuneScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FineTuneScope::AllLayers => f.write_str("all layers"),
            FineTuneScope::LastLayer => f.write_str("last layer"),
        }
    }
}

/// Fine-tuning hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FineTuneConfig {
    /// Number of fine-tuning epochs (the paper plots up to 50).
    pub epochs: usize,
    /// Mini-batch size over the fine-tuning frames.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Which layers to update.
    pub scope: FineTuneScope,
    /// Seed controlling batch shuffling.
    pub seed: u64,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        FineTuneConfig {
            epochs: 50,
            batch_size: 32,
            learning_rate: 1e-3,
            scope: FineTuneScope::AllLayers,
            seed: 0,
        }
    }
}

impl FineTuneConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FuseError::InvalidConfig`] for zero counts or a non-positive
    /// learning rate.
    pub fn validate(&self) -> Result<()> {
        if self.epochs == 0 || self.batch_size == 0 {
            return Err(FuseError::InvalidConfig("epochs and batch_size must be nonzero".into()));
        }
        if self.learning_rate <= 0.0 {
            return Err(FuseError::InvalidConfig("learning_rate must be positive".into()));
        }
        Ok(())
    }
}

/// Error trajectory of one fine-tuning run.
///
/// Index 0 holds the pre-fine-tuning errors (epoch 0 of Figures 3–4); index
/// `e` holds the errors after `e` epochs of fine-tuning.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FineTuneResult {
    /// MAE on the new (unseen) data after each epoch.
    pub new_data_error: Vec<PoseError>,
    /// MAE on the original data after each epoch.
    pub original_data_error: Vec<PoseError>,
    /// Mean fine-tuning loss per epoch (length `epochs`).
    pub train_loss: Vec<f32>,
}

impl FineTuneResult {
    /// MAE on the new data after `epochs` epochs (clamped to the recorded
    /// range).
    pub fn new_error_at(&self, epochs: usize) -> PoseError {
        let idx = epochs.min(self.new_data_error.len().saturating_sub(1));
        self.new_data_error[idx]
    }

    /// MAE on the original data after `epochs` epochs (clamped to the
    /// recorded range).
    pub fn original_error_at(&self, epochs: usize) -> PoseError {
        let idx = epochs.min(self.original_data_error.len().saturating_sub(1));
        self.original_data_error[idx]
    }

    /// Number of epochs recorded (excluding the pre-fine-tuning point).
    pub fn epochs(&self) -> usize {
        self.new_data_error.len().saturating_sub(1)
    }

    /// First epoch at which the new-data MAE drops to or below `target_cm`,
    /// if it ever does. This is the quantity behind the paper's "adapts
    /// within five epochs / 4× faster" claim.
    pub fn epochs_to_reach_cm(&self, target_cm: f32) -> Option<usize> {
        self.new_data_error.iter().position(|e| e.average_cm() <= target_cm)
    }
}

/// The epochs of one fine-tuning run: `config`'s scope resolved against a
/// model, and an Adam sized to the parameters that scope trains.
struct Epochs<'a> {
    config: &'a FineTuneConfig,
    data: &'a EncodedDataset,
    first: usize,
    optimizer: Adam,
}

impl<'a> Epochs<'a> {
    fn new(
        model: &Sequential,
        data: &'a EncodedDataset,
        config: &'a FineTuneConfig,
    ) -> Result<Self> {
        config.validate()?;
        if data.is_empty() {
            return Err(FuseError::Experiment("fine-tuning dataset is empty".into()));
        }
        let first = match config.scope {
            FineTuneScope::AllLayers => 0,
            FineTuneScope::LastLayer => {
                let ranges = model.layer_param_ranges();
                ranges.iter().rposition(|r| !r.is_empty()).unwrap_or(ranges.len())
            }
        };
        let optimizer = Adam::new(config.learning_rate, model.param_len_from(first));
        Ok(Epochs { config, data, first, optimizer })
    }

    /// Trains epoch `epoch` and returns its mean loss.
    fn run(&mut self, model: &mut Sequential, epoch: usize) -> Result<f32> {
        let seed = self.config.seed.wrapping_add(epoch as u64);
        train_epoch(model, &mut self.optimizer, self.data, self.config.batch_size, seed, self.first)
    }
}

/// Fine-tunes `model` in place on `data` and returns the mean training loss
/// of each epoch: the training of [`fine_tune`] without its evaluations,
/// leaving bit-identical parameters. Only the layers `config.scope` trains
/// run backward and hold optimizer state, so a [`FineTuneScope::LastLayer`]
/// run costs the forward passes plus the head's backward and update.
///
/// # Errors
///
/// Returns an error when the configuration is invalid, `data` is empty, or
/// the model rejects the data's shape.
pub fn adapt(
    model: &mut Sequential,
    data: &EncodedDataset,
    config: &FineTuneConfig,
) -> Result<Vec<f32>> {
    let mut epochs = Epochs::new(model, data, config)?;
    (0..config.epochs).map(|epoch| epochs.run(model, epoch)).collect()
}

/// Fine-tunes `model` in place on `finetune_data`, evaluating after every
/// epoch on the held-out `new_eval` data and on `original_eval` data.
///
/// # Errors
///
/// Returns an error when the configuration is invalid or any dataset is
/// empty.
pub fn fine_tune(
    model: &mut Sequential,
    finetune_data: &EncodedDataset,
    new_eval: &EncodedDataset,
    original_eval: &EncodedDataset,
    config: &FineTuneConfig,
) -> Result<FineTuneResult> {
    let mut epochs = Epochs::new(model, finetune_data, config)?;
    let mut result = FineTuneResult::default();
    let eval_batch = config.batch_size.max(64);

    // Epoch 0: errors before any fine-tuning.
    let (new_error, original_error) = evaluate_pair(model, new_eval, original_eval, eval_batch)?;
    result.new_data_error.push(new_error);
    result.original_data_error.push(original_error);

    for epoch in 0..config.epochs {
        result.train_loss.push(epochs.run(model, epoch)?);
        let (new_error, original_error) =
            evaluate_pair(model, new_eval, original_eval, eval_batch)?;
        result.new_data_error.push(new_error);
        result.original_data_error.push(original_error);
    }
    Ok(result)
}

/// Evaluates the model on the new-data and original-data sets, running the
/// two independent evaluations concurrently on the `fuse-parallel` pool.
///
/// Each side works on a private clone; eval-mode inference is a pure function
/// of (parameters, input), so the result is bit-identical to two sequential
/// [`evaluate_model`] calls.
fn evaluate_pair(
    model: &mut Sequential,
    new_eval: &EncodedDataset,
    original_eval: &EncodedDataset,
    batch_size: usize,
) -> Result<(PoseError, PoseError)> {
    let work = (new_eval.len() + original_eval.len()) * model.param_len();
    if par::parallel_beneficial(work) {
        let model = &*model;
        let mut new_result: Option<Result<PoseError>> = None;
        let mut original_result: Option<Result<PoseError>> = None;
        par::scope(|s| {
            s.spawn(|| new_result = Some(evaluate_model(&mut model.clone(), new_eval, batch_size)));
            s.spawn(|| {
                original_result =
                    Some(evaluate_model(&mut model.clone(), original_eval, batch_size));
            });
        });
        let new_error = new_result.expect("scope task completed")?;
        let original_error = original_result.expect("scope task completed")?;
        Ok((new_error, original_error))
    } else {
        Ok((
            evaluate_model(model, new_eval, batch_size)?,
            evaluate_model(model, original_eval, batch_size)?,
        ))
    }
}

/// Finds the "intersection" epoch of Table 2: the first epoch at which the
/// baseline's new-data MAE becomes at most the FUSE model's new-data MAE at
/// the same epoch. Returns `None` when the curves never cross within the
/// recorded range.
pub fn intersection_epoch(baseline: &FineTuneResult, fuse: &FineTuneResult) -> Option<usize> {
    let n = baseline.new_data_error.len().min(fuse.new_data_error.len());
    (1..n).find(|&e| baseline.new_data_error[e].average_cm() <= fuse.new_data_error[e].average_cm())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{Trainer, TrainerConfig};
    use crate::model::{build_mars_cnn, ModelConfig};
    use fuse_dataset::{
        encode_dataset, FeatureMapBuilder, FrameFusion, MarsSynthesizer, SynthesisConfig,
    };
    use fuse_nn::AxisMae;

    fn encoded_pair() -> (EncodedDataset, EncodedDataset) {
        let dataset = MarsSynthesizer::new(SynthesisConfig::tiny()).generate().unwrap();
        let original = dataset.filter(|f| f.subject_id == 0);
        let new_data = dataset.filter(|f| f.subject_id == 1);
        let builder = FeatureMapBuilder::default();
        let fusion = FrameFusion::default();
        (
            encode_dataset(&original, &fusion, &builder).unwrap(),
            encode_dataset(&new_data, &fusion, &builder).unwrap(),
        )
    }

    #[test]
    fn config_validation() {
        assert!(FineTuneConfig::default().validate().is_ok());
        assert!(FineTuneConfig { epochs: 0, ..FineTuneConfig::default() }.validate().is_err());
        assert!(FineTuneConfig { learning_rate: -1.0, ..FineTuneConfig::default() }
            .validate()
            .is_err());
    }

    #[test]
    fn fine_tuning_improves_new_data_error() {
        let (original, new_data) = encoded_pair();
        // Pre-train briefly on the original data.
        let model = build_mars_cnn(&ModelConfig::tiny(), 1).unwrap();
        let mut trainer = Trainer::new(model, TrainerConfig::quick(5)).unwrap();
        trainer.fit(&original, None).unwrap();
        let mut model = trainer.into_model();

        let config = FineTuneConfig { epochs: 6, batch_size: 16, ..FineTuneConfig::default() };
        let result = fine_tune(&mut model, &new_data, &new_data, &original, &config).unwrap();
        assert_eq!(result.epochs(), 6);
        assert_eq!(result.train_loss.len(), 6);
        let before = result.new_data_error[0].average_cm();
        let after = result.new_data_error[6].average_cm();
        assert!(after < before, "new-data MAE did not improve: {before} -> {after}");
    }

    #[test]
    fn last_layer_scope_only_changes_the_head() {
        let (original, new_data) = encoded_pair();
        let mut model = build_mars_cnn(&ModelConfig::tiny(), 2).unwrap();
        let before = model.flat_params();
        let config = FineTuneConfig {
            epochs: 2,
            batch_size: 16,
            scope: FineTuneScope::LastLayer,
            ..FineTuneConfig::default()
        };
        fine_tune(&mut model, &new_data, &new_data, &original, &config).unwrap();
        let after = model.flat_params();
        let ranges = model.layer_param_ranges();
        let head = ranges.last().unwrap().clone();
        assert!(!head.is_empty(), "the MARS CNN ends in its fully-connected head");
        assert_eq!(before[..head.start], after[..head.start], "a frozen parameter changed");
        assert_ne!(before[head.clone()], after[head]);
    }

    /// `adapt` is `fine_tune` without the evaluations: same parameters bit
    /// for bit and the same per-epoch losses, at both scopes.
    #[test]
    fn adapt_matches_fine_tune_at_both_scopes() {
        let (original, new_data) = encoded_pair();
        for scope in [FineTuneScope::AllLayers, FineTuneScope::LastLayer] {
            let config = FineTuneConfig {
                epochs: 2,
                batch_size: 16,
                scope,
                seed: 3,
                ..FineTuneConfig::default()
            };
            let mut tuned = build_mars_cnn(&ModelConfig::tiny(), 4).unwrap();
            let mut adapted = tuned.clone();
            let result = fine_tune(&mut tuned, &new_data, &new_data, &original, &config).unwrap();
            let losses = adapt(&mut adapted, &new_data, &config).unwrap();
            assert_eq!(losses, result.train_loss, "{scope}");
            let bits =
                |m: &Sequential| m.flat_params().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&adapted), bits(&tuned), "{scope}");
        }
    }

    /// On the MARS default model, last-layer adaptation trains fc2 alone:
    /// Adam holds moments for its 29,241 parameters only, and every trunk
    /// parameter stays byte-identical.
    #[test]
    fn last_layer_adapt_on_the_default_model_trains_and_holds_state_for_the_head_only() {
        let (_, new_data) = encoded_pair();
        let mut model = build_mars_cnn(&ModelConfig::default(), 6).unwrap();
        let config = FineTuneConfig {
            epochs: 1,
            batch_size: 16,
            scope: FineTuneScope::LastLayer,
            ..FineTuneConfig::default()
        };
        let head = 512 * 57 + 57;
        assert_eq!(Epochs::new(&model, &new_data, &config).unwrap().optimizer.param_len(), head);
        let before = model.flat_params();
        adapt(&mut model, &new_data, &config).unwrap();
        let after = model.flat_params();
        let trunk = before.len() - head;
        let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&after[..trunk]), bits(&before[..trunk]), "a trunk parameter changed");
        assert_ne!(after[trunk..], before[trunk..]);
    }

    #[test]
    fn result_accessors_clamp_and_search() {
        let mk =
            |cm: f32| PoseError { meters: AxisMae { x: cm / 100.0, y: cm / 100.0, z: cm / 100.0 } };
        let result = FineTuneResult {
            new_data_error: vec![mk(12.0), mk(8.0), mk(6.0), mk(5.0)],
            original_data_error: vec![mk(7.0), mk(7.5), mk(8.0), mk(9.0)],
            train_loss: vec![0.1, 0.08, 0.06],
        };
        assert_eq!(result.epochs(), 3);
        assert!((result.new_error_at(2).average_cm() - 6.0).abs() < 1e-4);
        assert!((result.new_error_at(99).average_cm() - 5.0).abs() < 1e-4);
        assert_eq!(result.epochs_to_reach_cm(6.0), Some(2));
        assert_eq!(result.epochs_to_reach_cm(1.0), None);
    }

    #[test]
    fn intersection_epoch_detects_crossing() {
        let mk =
            |cm: f32| PoseError { meters: AxisMae { x: cm / 100.0, y: cm / 100.0, z: cm / 100.0 } };
        let baseline = FineTuneResult {
            new_data_error: vec![mk(10.0), mk(9.0), mk(7.0), mk(4.0)],
            original_data_error: vec![],
            train_loss: vec![],
        };
        let fuse = FineTuneResult {
            new_data_error: vec![mk(12.0), mk(6.0), mk(5.0), mk(4.5)],
            original_data_error: vec![],
            train_loss: vec![],
        };
        assert_eq!(intersection_epoch(&baseline, &fuse), Some(3));
        let never = FineTuneResult {
            new_data_error: vec![mk(10.0), mk(9.0), mk(8.0), mk(7.0)],
            original_data_error: vec![],
            train_loss: vec![],
        };
        assert_eq!(intersection_epoch(&never, &fuse), None);
    }

    #[test]
    fn empty_finetune_data_is_rejected() {
        let (original, new_data) = encoded_pair();
        let mut model = build_mars_cnn(&ModelConfig::tiny(), 3).unwrap();
        let config = FineTuneConfig::default();
        // There is no public way to build an empty EncodedDataset, so check
        // validation via a zero-epoch config instead.
        let bad = FineTuneConfig { epochs: 0, ..config };
        assert!(fine_tune(&mut model, &new_data, &new_data, &original, &bad).is_err());
    }
}
