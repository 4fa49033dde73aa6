//! Concrete layer implementations: `Linear`, `Conv2d`, `Relu`, `Flatten`,
//! `Dropout`.

use fuse_tensor::{
    conv2d_backward_input, conv2d_backward_weight, conv2d_forward, linalg, Conv2dSpec, Tensor,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::NnError;
use crate::layer::{Layer, LayerLowering};
use crate::Result;

/// Copies `flat` into `params` in order, in place: the
/// [`Layer::set_flat_params`] of the layers that own a weight and a bias.
fn copy_into(flat: &[f32], params: [&mut Tensor; 2]) -> Result<()> {
    let expected = params.iter().map(|p| p.len()).sum();
    if flat.len() != expected {
        return Err(NnError::ParamLengthMismatch { expected, actual: flat.len() });
    }
    let mut rest = flat;
    for p in params {
        let (head, tail) = rest.split_at(p.len());
        p.as_mut_slice().copy_from_slice(head);
        rest = tail;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully-connected layer computing `y = x·Wᵀ + b`.
///
/// Input is `[N, in_features]`, output `[N, out_features]`. The weight matrix
/// is stored `[out_features, in_features]` (PyTorch convention) so weights
/// exported from the paper's reference implementation map one-to-one.
#[derive(Debug, Clone)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform initialised weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Result<Self> {
        if in_features == 0 || out_features == 0 {
            return Err(NnError::InvalidLayer(format!(
                "linear layer dimensions must be nonzero, got {in_features}x{out_features}"
            )));
        }
        Ok(Linear {
            in_features,
            out_features,
            weight: Tensor::kaiming_uniform(&[out_features, in_features], in_features, seed),
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
        })
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight matrix (`[out_features, in_features]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias vector (`[out_features]`).
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }
}

impl Layer for Linear {
    fn name(&self) -> &str {
        "linear"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn lowering(&self) -> Option<LayerLowering<'_>> {
        Some(LayerLowering::Linear {
            in_features: self.in_features,
            out_features: self.out_features,
            weight: &self.weight,
            bias: &self.bias,
        })
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        if input.shape().rank() != 2 || input.dims()[1] != self.in_features {
            return Err(NnError::InvalidLayer(format!(
                "linear expects [N, {}], got {:?}",
                self.in_features,
                input.dims()
            )));
        }
        let n = input.dims()[0];
        // y[N, out] = x[N, in] · Wᵀ[in, out] + b
        let mut out = vec![0.0f32; n * self.out_features];
        linalg::gemm_a_bt(
            input.as_slice(),
            self.weight.as_slice(),
            &mut out,
            n,
            self.in_features,
            self.out_features,
        );
        for row in 0..n {
            for (o, &b) in out[row * self.out_features..(row + 1) * self.out_features]
                .iter_mut()
                .zip(self.bias.as_slice())
            {
                *o += b;
            }
        }
        self.cached_input = Some(input.clone());
        Ok(Tensor::from_vec(out, &[n, self.out_features])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("linear".into()))?;
        let n = input.dims()[0];
        if grad_output.dims() != [n, self.out_features] {
            return Err(NnError::InvalidLayer(format!(
                "linear backward expects [{}, {}], got {:?}",
                n,
                self.out_features,
                grad_output.dims()
            )));
        }
        // grad_W[out, in] += grad_yᵀ[out, N] · x[N, in]
        let mut gw = vec![0.0f32; self.out_features * self.in_features];
        linalg::gemm_at_b(
            grad_output.as_slice(),
            input.as_slice(),
            &mut gw,
            n,
            self.out_features,
            self.in_features,
        );
        linalg::axpy(1.0, &gw, self.grad_weight.as_mut_slice());
        // grad_b[out] += sum over batch of grad_y
        for row in 0..n {
            for (gb, &g) in self.grad_bias.as_mut_slice().iter_mut().zip(
                &grad_output.as_slice()[row * self.out_features..(row + 1) * self.out_features],
            ) {
                *gb += g;
            }
        }
        // grad_x[N, in] = grad_y[N, out] · W[out, in]
        let mut gx = vec![0.0f32; n * self.in_features];
        linalg::gemm(
            grad_output.as_slice(),
            self.weight.as_slice(),
            &mut gx,
            n,
            self.out_features,
            self.in_features,
        );
        Ok(Tensor::from_vec(gx, &[n, self.in_features])?)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn set_params(&mut self, params: &[Tensor]) -> Result<()> {
        if params.len() != 2
            || params[0].dims() != self.weight.dims()
            || params[1].dims() != self.bias.dims()
        {
            return Err(NnError::ParamLengthMismatch {
                expected: self.param_len(),
                actual: params.iter().map(|p| p.len()).sum(),
            });
        }
        self.weight = params[0].clone();
        self.bias = params[1].clone();
        Ok(())
    }

    fn set_flat_params(&mut self, flat: &[f32]) -> Result<()> {
        copy_into(flat, [&mut self.weight, &mut self.bias])
    }

    fn zero_grad(&mut self) {
        self.grad_weight.fill_zero();
        self.grad_bias.fill_zero();
    }
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution layer over `[N, C, H, W]` inputs.
#[derive(Debug, Clone)]
pub struct Conv2d {
    spec: Conv2dSpec,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer from a geometry spec with Kaiming-uniform
    /// initialised weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] for zero-sized channel counts or kernels.
    pub fn new(spec: Conv2dSpec, seed: u64) -> Result<Self> {
        if spec.in_channels == 0 || spec.out_channels == 0 || spec.kernel == 0 {
            return Err(NnError::InvalidLayer(format!("degenerate conv spec {spec:?}")));
        }
        let fan_in = spec.in_channels * spec.kernel * spec.kernel;
        Ok(Conv2d {
            spec,
            weight: Tensor::kaiming_uniform(
                &[spec.out_channels, spec.in_channels, spec.kernel, spec.kernel],
                fan_in,
                seed,
            ),
            bias: Tensor::zeros(&[spec.out_channels]),
            grad_weight: Tensor::zeros(&[
                spec.out_channels,
                spec.in_channels,
                spec.kernel,
                spec.kernel,
            ]),
            grad_bias: Tensor::zeros(&[spec.out_channels]),
            cached_input: None,
        })
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        "conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn lowering(&self) -> Option<LayerLowering<'_>> {
        Some(LayerLowering::Conv2d { spec: self.spec, weight: &self.weight, bias: &self.bias })
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let out = conv2d_forward(input, &self.weight, &self.bias, &self.spec)?;
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("conv2d".into()))?;
        let (gw, gb) = conv2d_backward_weight(input, grad_output, &self.spec)?;
        self.grad_weight.add_assign(&gw)?;
        self.grad_bias.add_assign(&gb)?;
        let gx = conv2d_backward_input(grad_output, &self.weight, input.dims(), &self.spec)?;
        Ok(gx)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn set_params(&mut self, params: &[Tensor]) -> Result<()> {
        if params.len() != 2
            || params[0].dims() != self.weight.dims()
            || params[1].dims() != self.bias.dims()
        {
            return Err(NnError::ParamLengthMismatch {
                expected: self.param_len(),
                actual: params.iter().map(|p| p.len()).sum(),
            });
        }
        self.weight = params[0].clone();
        self.bias = params[1].clone();
        Ok(())
    }

    fn set_flat_params(&mut self, flat: &[f32]) -> Result<()> {
        copy_into(flat, [&mut self.weight, &mut self.bias])
    }

    fn zero_grad(&mut self) {
        self.grad_weight.fill_zero();
        self.grad_bias.fill_zero();
    }
}

// ---------------------------------------------------------------------------
// Relu
// ---------------------------------------------------------------------------

/// Rectified Linear Unit activation.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU activation layer.
    pub fn new() -> Self {
        Relu { cached_input: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        "relu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn lowering(&self) -> Option<LayerLowering<'_>> {
        Some(LayerLowering::Relu)
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        self.cached_input = Some(input.clone());
        Ok(input.relu())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("relu".into()))?;
        let mask = input.map(|x| if x > 0.0 { 1.0 } else { 0.0 });
        Ok(grad_output.mul(&mask)?)
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn set_params(&mut self, params: &[Tensor]) -> Result<()> {
        if params.is_empty() {
            Ok(())
        } else {
            Err(NnError::ParamLengthMismatch { expected: 0, actual: params.len() })
        }
    }

    fn zero_grad(&mut self) {}
}

// ---------------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------------

/// Flattens `[N, ...]` into `[N, prod(...)]`, preserving the batch dimension.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_dims: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        "flatten"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn lowering(&self) -> Option<LayerLowering<'_>> {
        Some(LayerLowering::Flatten)
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        if input.shape().rank() < 2 {
            return Err(NnError::InvalidLayer(format!(
                "flatten expects at least rank 2, got {:?}",
                input.dims()
            )));
        }
        self.cached_dims = Some(input.dims().to_vec());
        let n = input.dims()[0];
        let rest: usize = input.dims()[1..].iter().product();
        Ok(input.reshape(&[n, rest])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let dims = self
            .cached_dims
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("flatten".into()))?;
        Ok(grad_output.reshape(dims)?)
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn set_params(&mut self, params: &[Tensor]) -> Result<()> {
        if params.is_empty() {
            Ok(())
        } else {
            Err(NnError::ParamLengthMismatch { expected: 0, actual: params.len() })
        }
    }

    fn zero_grad(&mut self) {}
}

// ---------------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------------

/// Inverted dropout: elements are zeroed with probability `p` during training
/// and the survivors scaled by `1 / (1 - p)`; inference is a no-op.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    cached_mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Result<Self> {
        if !(0.0..1.0).contains(&p) {
            return Err(NnError::InvalidLayer(format!("dropout probability {p} outside [0, 1)")));
        }
        Ok(Dropout { p, rng: StdRng::seed_from_u64(seed), cached_mask: None })
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn name(&self) -> &str {
        "dropout"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    // Dropout is exactly the identity at inference (`train = false`), which
    // is the only mode compiled plans execute.
    fn lowering(&self) -> Option<LayerLowering<'_>> {
        Some(LayerLowering::Identity)
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        if !train || self.p == 0.0 {
            self.cached_mask = Some(Tensor::ones(input.dims()));
            return Ok(input.clone());
        }
        let keep = 1.0 - self.p;
        let mut mask = Tensor::zeros(input.dims());
        for m in mask.as_mut_slice() {
            if self.rng.gen::<f32>() >= self.p {
                *m = 1.0 / keep;
            }
        }
        let out = input.mul(&mask)?;
        self.cached_mask = Some(mask);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mask = self
            .cached_mask
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("dropout".into()))?;
        Ok(grad_output.mul(mask)?)
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn set_params(&mut self, params: &[Tensor]) -> Result<()> {
        if params.is_empty() {
            Ok(())
        } else {
            Err(NnError::ParamLengthMismatch { expected: 0, actual: params.len() })
        }
    }

    fn zero_grad(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_forward_matches_manual_computation() {
        let mut layer = Linear::new(2, 2, 7).unwrap();
        layer
            .set_params(&[
                Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap(),
                Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap(),
            ])
            .unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = layer.forward(&x, true).unwrap();
        // y = [1*1+2*1+0.5, 3*1+4*1-0.5] = [3.5, 6.5]
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut layer = Linear::new(3, 2, 17).unwrap();
        let x = Tensor::randn(&[4, 3], 1.0, 18);
        // Loss = sum(layer(x)) so dL/dy = ones.
        let y = layer.forward(&x, true).unwrap();
        let grad_out = Tensor::ones(y.dims());
        layer.zero_grad();
        let grad_in = layer.backward(&grad_out).unwrap();

        let eps = 1e-3;
        // Check weight gradient entries.
        let w0 = layer.weight.clone();
        let analytic_gw = layer.grad_weight.clone();
        for i in 0..w0.len() {
            let mut plus = w0.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = w0.clone();
            minus.as_mut_slice()[i] -= eps;
            let mut lp = layer.clone();
            lp.set_params(&[plus, layer.bias.clone()]).unwrap();
            let mut lm = layer.clone();
            lm.set_params(&[minus, layer.bias.clone()]).unwrap();
            let fp = lp.forward(&x, true).unwrap().sum();
            let fm = lm.forward(&x, true).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - analytic_gw.as_slice()[i]).abs() < 1e-2);
        }
        // Check input gradient entries.
        for i in 0..x.len() {
            let mut plus = x.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[i] -= eps;
            let fp = layer.clone().forward(&plus, true).unwrap().sum();
            let fm = layer.clone().forward(&minus, true).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - grad_in.as_slice()[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn linear_rejects_bad_shapes() {
        assert!(Linear::new(0, 4, 1).is_err());
        let mut layer = Linear::new(3, 4, 1).unwrap();
        assert!(layer.forward(&Tensor::zeros(&[2, 5]), true).is_err());
        assert!(layer.backward(&Tensor::zeros(&[2, 4])).is_err());
    }

    #[test]
    fn conv2d_layer_runs_forward_backward() {
        let spec = Conv2dSpec::same(5, 8, 3);
        let mut layer = Conv2d::new(spec, 3).unwrap();
        let x = Tensor::randn(&[2, 5, 8, 8], 1.0, 4);
        let y = layer.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
        layer.zero_grad();
        let gx = layer.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(gx.dims(), x.dims());
        assert!(layer.grad_weight.norm() > 0.0);
        assert!(layer.grad_bias.norm() > 0.0);
    }

    #[test]
    fn conv2d_rejects_degenerate_spec() {
        let spec = Conv2dSpec { in_channels: 0, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        assert!(Conv2d::new(spec, 1).is_err());
    }

    #[test]
    fn relu_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 2.0, -3.0, 4.0]);
        let y = relu.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let g = relu.backward(&Tensor::ones(&[4])).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_backward_requires_forward() {
        let mut relu = Relu::new();
        assert!(relu.backward(&Tensor::ones(&[2])).is_err());
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut flat = Flatten::new();
        let x = Tensor::randn(&[3, 2, 4, 4], 1.0, 5);
        let y = flat.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[3, 32]);
        let gx = flat.backward(&Tensor::ones(&[3, 32])).unwrap();
        assert_eq!(gx.dims(), &[3, 2, 4, 4]);
    }

    #[test]
    fn flatten_rejects_rank1() {
        let mut flat = Flatten::new();
        assert!(flat.forward(&Tensor::ones(&[4]), true).is_err());
    }

    #[test]
    fn dropout_is_identity_at_inference() {
        let mut d = Dropout::new(0.5, 1).unwrap();
        let x = Tensor::ones(&[100]);
        let y = d.forward(&x, false).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn dropout_preserves_expectation_in_training() {
        let mut d = Dropout::new(0.3, 2).unwrap();
        let x = Tensor::ones(&[10_000]);
        let y = d.forward(&x, true).unwrap();
        // Inverted dropout keeps the expected activation close to 1.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Backward masks the same elements.
        let g = d.backward(&Tensor::ones(&[10_000])).unwrap();
        assert_eq!(g, y);
    }

    #[test]
    fn dropout_rejects_invalid_probability() {
        assert!(Dropout::new(1.0, 1).is_err());
        assert!(Dropout::new(-0.1, 1).is_err());
        assert!(Dropout::new(0.0, 1).is_ok());
    }

    #[test]
    fn param_len_counts_scalars() {
        let layer = Linear::new(10, 4, 1).unwrap();
        assert_eq!(layer.param_len(), 10 * 4 + 4);
        let conv = Conv2d::new(Conv2dSpec::same(5, 16, 3), 2).unwrap();
        assert_eq!(conv.param_len(), 16 * 5 * 3 * 3 + 16);
    }
}
