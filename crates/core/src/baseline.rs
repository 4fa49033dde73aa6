//! Conventional supervised training — the baseline that FUSE is compared
//! against throughout the paper's evaluation.

use fuse_dataset::EncodedDataset;
use fuse_nn::{Adam, L1Loss, Loss, Sequential};
use serde::{Deserialize, Serialize};

use crate::error::FuseError;
use crate::eval::{evaluate_model, PoseError};
use crate::Result;

/// Supervised training hyper-parameters (§4.2 uses a batch size of 128 and
/// 150 epochs with the Adam optimizer and the L1 loss).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Seed controlling batch shuffling.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig { epochs: 150, batch_size: 128, learning_rate: 1e-3, seed: 0 }
    }
}

impl TrainerConfig {
    /// A reduced configuration for the quick experiment profile and tests.
    pub fn quick(epochs: usize) -> Self {
        TrainerConfig { epochs, batch_size: 64, learning_rate: 1e-3, seed: 0 }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FuseError::InvalidConfig`] for zero epochs/batch size or a
    /// non-positive learning rate.
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

/// Per-epoch record of a supervised training run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f32>,
    /// Validation MAE per epoch (present only when a validation set is given).
    pub validation_error: Vec<PoseError>,
}

impl TrainingHistory {
    /// The final training loss, if any epochs were run.
    pub fn final_loss(&self) -> Option<f32> {
        self.train_loss.last().copied()
    }
}

/// Supervised trainer: Adam + L1 loss over mini-batches.
pub struct Trainer {
    model: Sequential,
    config: TrainerConfig,
    optimizer: Adam,
}

impl Trainer {
    /// Creates a trainer owning the model to be trained.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid.
    pub fn new(model: Sequential, config: TrainerConfig) -> Result<Self> {
        config.validate()?;
        let optimizer = Adam::new(config.learning_rate, model.param_len());
        Ok(Trainer { model, config, optimizer })
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &Sequential {
        &self.model
    }

    /// Mutable access to the model (e.g. for evaluation helpers).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }

    /// Consumes the trainer and returns the trained model.
    pub fn into_model(self) -> Sequential {
        self.model
    }

    /// Runs a single epoch over the training data and returns the mean batch
    /// loss.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the model or data pipeline.
    pub fn train_epoch(&mut self, train: &EncodedDataset, epoch: usize) -> Result<f32> {
        let shuffle_seed = self.config.seed.wrapping_add(epoch as u64);
        train_epoch(
            &mut self.model,
            &mut self.optimizer,
            train,
            self.config.batch_size,
            shuffle_seed,
            0,
        )
    }

    /// Trains for the configured number of epochs, optionally evaluating on a
    /// validation set after every epoch.
    ///
    /// # Errors
    ///
    /// Propagates errors from the epoch loop or evaluation.
    pub fn fit(
        &mut self,
        train: &EncodedDataset,
        validation: Option<&EncodedDataset>,
    ) -> Result<TrainingHistory> {
        let mut history = TrainingHistory::default();
        for epoch in 0..self.config.epochs {
            let loss = self.train_epoch(train, epoch)?;
            history.train_loss.push(loss);
            if let Some(val) = validation {
                let error = evaluate_model(&mut self.model, val, self.config.batch_size)?;
                history.validation_error.push(error);
            }
        }
        Ok(history)
    }

    /// Evaluates the current model on a dataset.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn evaluate(&mut self, data: &EncodedDataset) -> Result<PoseError> {
        evaluate_model(&mut self.model, data, self.config.batch_size)
    }
}

/// One epoch of L1 training over `data` in shuffled mini-batches, returning
/// the mean batch loss: the loop shared by [`Trainer`] and online
/// fine-tuning.
///
/// Only layers `first..` train. Backward stops at layer `first`, and
/// `optimizer` (sized to those layers' parameters) updates their buffers in
/// place. Earlier layers keep their parameters, and their gradient buffers
/// are left untouched.
///
/// # Errors
///
/// Propagates shape errors from the model or data pipeline, and fails when
/// `data` yields no batch.
pub(crate) fn train_epoch(
    model: &mut Sequential,
    optimizer: &mut Adam,
    data: &EncodedDataset,
    batch_size: usize,
    shuffle_seed: u64,
    first: usize,
) -> Result<f32> {
    let mut total = 0.0f64;
    let mut batches = 0usize;
    for (inputs, labels) in data.batches(batch_size, shuffle_seed) {
        let pred = model.forward(&inputs, true)?;
        let (value, grad) = L1Loss.evaluate(&pred, &labels)?;
        model.zero_grad_from(first);
        model.backward_through(&grad, first)?;
        optimizer.step_in_place(model.params_and_grads_mut(first));
        total += value as f64;
        batches += 1;
    }
    if batches == 0 {
        return Err(FuseError::Experiment("training dataset produced no batches".into()));
    }
    Ok((total / batches as f64) as f32)
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer")
            .field("config", &self.config)
            .field("params", &self.model.param_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{build_mars_cnn, ModelConfig};
    use fuse_dataset::{
        encode_dataset, FeatureMapBuilder, FrameFusion, MarsSynthesizer, SynthesisConfig,
    };

    fn encoded() -> EncodedDataset {
        let dataset = MarsSynthesizer::new(SynthesisConfig::tiny()).generate().unwrap();
        encode_dataset(&dataset, &FrameFusion::default(), &FeatureMapBuilder::default()).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(TrainerConfig::default().validate().is_ok());
        assert!(TrainerConfig { epochs: 0, ..TrainerConfig::default() }.validate().is_err());
        assert!(TrainerConfig { batch_size: 0, ..TrainerConfig::default() }.validate().is_err());
        assert!(TrainerConfig { learning_rate: 0.0, ..TrainerConfig::default() }
            .validate()
            .is_err());
    }

    #[test]
    fn training_reduces_loss_and_error() {
        let data = encoded();
        let model = build_mars_cnn(&ModelConfig::tiny(), 11).unwrap();
        let mut trainer = Trainer::new(model, TrainerConfig::quick(8)).unwrap();
        let before = trainer.evaluate(&data).unwrap();
        let history = trainer.fit(&data, None).unwrap();
        let after = trainer.evaluate(&data).unwrap();
        assert_eq!(history.train_loss.len(), 8);
        assert!(
            history.train_loss.last().unwrap() < history.train_loss.first().unwrap(),
            "loss did not decrease: {:?}",
            history.train_loss
        );
        assert!(
            after.meters.average() < before.meters.average(),
            "MAE did not improve: before {before}, after {after}"
        );
    }

    #[test]
    fn validation_history_is_recorded() {
        let data = encoded();
        let model = build_mars_cnn(&ModelConfig::tiny(), 13).unwrap();
        let mut trainer = Trainer::new(model, TrainerConfig::quick(3)).unwrap();
        let history = trainer.fit(&data, Some(&data)).unwrap();
        assert_eq!(history.validation_error.len(), 3);
        assert!(history.final_loss().is_some());
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let data = encoded();
        let run = |seed: u64| {
            let model = build_mars_cnn(&ModelConfig::tiny(), 5).unwrap();
            let mut trainer =
                Trainer::new(model, TrainerConfig { seed, ..TrainerConfig::quick(2) }).unwrap();
            trainer.fit(&data, None).unwrap();
            trainer.into_model().flat_params()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
