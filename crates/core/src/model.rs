//! The MARS baseline CNN architecture shared by the baseline and FUSE.
//!
//! §4.1 of the paper: "two convolution layers with ReLU activations, followed
//! by two FC layers, with a total model of 1,095,115 parameters. The number
//! of neurons of the two FC layers is 512 and 57" — the 57 outputs being the
//! x/y/z coordinates of the 19 joints. The FUSE model uses the same
//! architecture ("the proposed CNN trained using the FUSE framework has the
//! same dimensions and model size for a fair comparison"), so this module is
//! the single place the architecture is defined.

use fuse_nn::layers::{Conv2d, Flatten, Linear, Relu};
use fuse_nn::{MaxPool2d, Sequential};
use fuse_tensor::{derive_seeds, Conv2dSpec};
use serde::{Deserialize, Serialize};

use crate::error::FuseError;
use crate::Result;

/// Hyper-parameters of the MARS CNN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Number of input channels (5: x, y, z, Doppler, intensity).
    pub in_channels: usize,
    /// Spatial height of the input feature map.
    pub height: usize,
    /// Spatial width of the input feature map.
    pub width: usize,
    /// Filters in the first convolution layer.
    pub conv1_filters: usize,
    /// Filters in the second convolution layer.
    pub conv2_filters: usize,
    /// Convolution kernel size.
    pub kernel: usize,
    /// Neurons in the first fully-connected layer.
    pub hidden: usize,
    /// Output dimensionality (57 = 19 joints × 3 coordinates).
    pub outputs: usize,
}

impl Default for ModelConfig {
    /// The configuration from §4.1 (≈1.1 M parameters).
    fn default() -> Self {
        ModelConfig {
            in_channels: 5,
            height: 8,
            width: 8,
            conv1_filters: 16,
            conv2_filters: 32,
            kernel: 3,
            hidden: 512,
            outputs: 57,
        }
    }
}

impl ModelConfig {
    /// A reduced configuration for fast unit tests.
    pub fn tiny() -> Self {
        ModelConfig { conv1_filters: 4, conv2_filters: 8, hidden: 32, ..ModelConfig::default() }
    }

    /// Number of inputs to the first fully-connected layer.
    pub fn flattened_len(&self) -> usize {
        self.conv2_filters * self.height * self.width
    }

    /// Total number of scalar parameters of the resulting model.
    pub fn param_count(&self) -> usize {
        let conv1 =
            self.conv1_filters * self.in_channels * self.kernel * self.kernel + self.conv1_filters;
        let conv2 = self.conv2_filters * self.conv1_filters * self.kernel * self.kernel
            + self.conv2_filters;
        let fc1 = self.flattened_len() * self.hidden + self.hidden;
        let fc2 = self.hidden * self.outputs + self.outputs;
        conv1 + conv2 + fc1 + fc2
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FuseError::InvalidConfig`] when any dimension is zero.
    pub fn validate(&self) -> Result<()> {
        let dims = [
            self.in_channels,
            self.height,
            self.width,
            self.conv1_filters,
            self.conv2_filters,
            self.kernel,
            self.hidden,
            self.outputs,
        ];
        if dims.contains(&0) {
            return Err(FuseError::InvalidConfig("model dimensions must be nonzero".into()));
        }
        Ok(())
    }
}

/// Builds the MARS CNN: Conv(C→16) → ReLU → Conv(16→32) → ReLU → Flatten →
/// FC(2048→512) → ReLU → FC(512→57).
///
/// # Errors
///
/// Returns an error when the configuration is invalid.
pub fn build_mars_cnn(config: &ModelConfig, seed: u64) -> Result<Sequential> {
    config.validate()?;
    let seeds = derive_seeds(seed, 4);
    let conv1 = Conv2dSpec::same(config.in_channels, config.conv1_filters, config.kernel);
    let conv2 = Conv2dSpec::same(config.conv1_filters, config.conv2_filters, config.kernel);
    Ok(Sequential::new(vec![
        Box::new(Conv2d::new(conv1, seeds[0])?),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(conv2, seeds[1])?),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Linear::new(config.flattened_len(), config.hidden, seeds[2])?),
        Box::new(Relu::new()),
        Box::new(Linear::new(config.hidden, config.outputs, seeds[3])?),
    ]))
}

/// Builds the pooled MARS-CNN variant: the same two-conv encoder followed by
/// a non-overlapping `window × window` max-pooling stage before flattening —
/// Conv(C→16) → ReLU → Conv(16→32) → ReLU → MaxPool(window) → Flatten →
/// FC(2048/window²→512) → ReLU → FC(512→57). Pooling shrinks the first FC
/// layer by `window²`, trading a little spatial resolution for a much
/// smaller parameter count; like the plain builder, the whole stack lowers
/// to a compiled `fuse-graph` plan (max pooling included).
///
/// # Errors
///
/// Returns an error when the configuration is invalid or the window does not
/// evenly divide the feature-map geometry.
pub fn build_pooled_mars_cnn(config: &ModelConfig, window: usize, seed: u64) -> Result<Sequential> {
    config.validate()?;
    if window == 0 || !config.height.is_multiple_of(window) || !config.width.is_multiple_of(window)
    {
        return Err(FuseError::InvalidConfig(format!(
            "pooling window {window} must evenly divide the {}x{} feature map",
            config.height, config.width
        )));
    }
    let seeds = derive_seeds(seed, 4);
    let conv1 = Conv2dSpec::same(config.in_channels, config.conv1_filters, config.kernel);
    let conv2 = Conv2dSpec::same(config.conv1_filters, config.conv2_filters, config.kernel);
    let pooled_len = config.conv2_filters * (config.height / window) * (config.width / window);
    Ok(Sequential::new(vec![
        Box::new(Conv2d::new(conv1, seeds[0])?),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(conv2, seeds[1])?),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(window)?),
        Box::new(Flatten::new()),
        Box::new(Linear::new(pooled_len, config.hidden, seeds[2])?),
        Box::new(Relu::new()),
        Box::new(Linear::new(config.hidden, config.outputs, seeds[3])?),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_tensor::Tensor;

    #[test]
    fn default_model_size_is_close_to_the_paper() {
        let config = ModelConfig::default();
        let model = build_mars_cnn(&config, 1).unwrap();
        // The paper reports 1,095,115 parameters; this architecture lands
        // within 2 % of that (the difference is bookkeeping in how the paper
        // counts the flattened dimension).
        let params = model.param_len();
        assert_eq!(params, config.param_count());
        let paper = 1_095_115f32;
        assert!(
            (params as f32 - paper).abs() / paper < 0.02,
            "parameter count {params} deviates from the paper's 1,095,115"
        );
    }

    #[test]
    fn forward_shape_is_batch_by_57() {
        let config = ModelConfig::default();
        let mut model = build_mars_cnn(&config, 2).unwrap();
        let x = Tensor::randn(&[4, 5, 8, 8], 1.0, 3);
        let y = model.forward(&x, false).unwrap();
        assert_eq!(y.dims(), &[4, 57]);
    }

    #[test]
    fn backward_pass_populates_all_gradients() {
        let config = ModelConfig::tiny();
        let mut model = build_mars_cnn(&config, 4).unwrap();
        let x = Tensor::randn(&[2, 5, 8, 8], 1.0, 5);
        let y = model.forward(&x, true).unwrap();
        model.zero_grad();
        model.backward(&Tensor::ones(y.dims())).unwrap();
        let grads = model.flat_grads();
        let nonzero = grads.iter().filter(|&&g| g != 0.0).count();
        // With ReLU activations a sizeable fraction of the gradient entries is
        // legitimately zero (dead units for this mini-batch); require that a
        // substantial share is nonzero and that every layer received *some*
        // gradient signal.
        assert!(
            nonzero as f32 > 0.2 * grads.len() as f32,
            "too many zero gradients: {nonzero}/{}",
            grads.len()
        );
        for (range, name) in model.layer_param_ranges().iter().zip(model.layer_names()) {
            if !range.is_empty() {
                let layer_nonzero = grads[range.clone()].iter().any(|&g| g != 0.0);
                assert!(layer_nonzero, "layer {name} received no gradient");
            }
        }
    }

    #[test]
    fn models_with_same_seed_are_identical() {
        let config = ModelConfig::tiny();
        let a = build_mars_cnn(&config, 7).unwrap();
        let b = build_mars_cnn(&config, 7).unwrap();
        let c = build_mars_cnn(&config, 8).unwrap();
        assert_eq!(a.flat_params(), b.flat_params());
        assert_ne!(a.flat_params(), c.flat_params());
    }

    #[test]
    fn pooled_variant_shrinks_the_fc_stage_and_keeps_the_output_head() {
        let config = ModelConfig::tiny();
        let mut model = build_pooled_mars_cnn(&config, 2, 3).unwrap();
        let x = Tensor::randn(&[2, 5, 8, 8], 1.0, 4);
        let y = model.forward(&x, false).unwrap();
        assert_eq!(y.dims(), &[2, 57]);
        assert!(
            model.param_len() < build_mars_cnn(&config, 3).unwrap().param_len(),
            "pooling must shrink the first FC layer"
        );
        assert!(build_pooled_mars_cnn(&config, 3, 1).is_err(), "3 does not divide 8");
        assert!(build_pooled_mars_cnn(&config, 0, 1).is_err());
    }

    #[test]
    fn config_validation_rejects_zero_dims() {
        let config = ModelConfig { hidden: 0, ..ModelConfig::default() };
        assert!(build_mars_cnn(&config, 1).is_err());
    }
}
