//! Sequential container with flattened parameter access.

use fuse_tensor::Tensor;

use crate::error::NnError;
use crate::layer::Layer;
use crate::Result;

/// An ordered stack of layers executed front to back.
///
/// Besides the obvious `forward`/`backward` plumbing, `Sequential` exposes the
/// model parameters and gradients as single flattened `Vec<f32>`s
/// ([`Sequential::flat_params`] / [`Sequential::flat_grads`]). This is the
/// representation the MAML outer loop in `fuse-core` operates on:
/// snapshotting θ, taking an inner gradient step, and restoring θ are all
/// plain vector copies. Training and fine-tuning skip the copies: they run
/// backward only through the layers that train
/// ([`Sequential::backward_through`]) and step Adam over those layers' own
/// buffers ([`Sequential::params_and_grads_mut`]).
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Clone for Sequential {
    /// Deep-copies every layer (parameters, gradients and cached
    /// activations). The parallel backend clones models per episode/batch so
    /// pool threads never share mutable layer state.
    fn clone(&self) -> Self {
        Sequential { layers: self.layers.iter().map(|l| l.clone_box()).collect() }
    }
}

impl Sequential {
    /// Creates a sequential model from an ordered list of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Appends a layer to the end of the stack.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Names of the layers in execution order.
    pub fn layer_names(&self) -> Vec<&str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// The layers in execution order (read-only; used by op-graph lowering).
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Runs the forward pass through every layer.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train)?;
        }
        Ok(x)
    }

    /// Runs the backward pass through every layer in reverse order,
    /// accumulating parameter gradients.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered (e.g. backward before
    /// forward).
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.backward_through(grad_output, 0)
    }

    /// Runs the backward pass through layers `first..` in reverse order and
    /// stops there, returning the gradient with respect to layer `first`'s
    /// input. Layers before `first` get no gradient: training only a suffix
    /// of the model (the last layer, say) does not pay for the rest.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered (e.g. backward before
    /// forward).
    ///
    /// # Panics
    ///
    /// Panics if `first > self.len()`.
    pub fn backward_through(&mut self, grad_output: &Tensor, first: usize) -> Result<Tensor> {
        let mut g = grad_output.clone();
        for layer in self.layers[first..].iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Resets every parameter gradient to zero.
    pub fn zero_grad(&mut self) {
        self.zero_grad_from(0);
    }

    /// Resets the parameter gradients of layers `first..` to zero.
    ///
    /// # Panics
    ///
    /// Panics if `first > self.len()`.
    pub fn zero_grad_from(&mut self, first: usize) {
        for layer in &mut self.layers[first..] {
            layer.zero_grad();
        }
    }

    /// Total number of scalar parameters.
    pub fn param_len(&self) -> usize {
        self.param_len_from(0)
    }

    /// Number of scalar parameters in layers `first..`.
    ///
    /// # Panics
    ///
    /// Panics if `first > self.len()`.
    pub fn param_len_from(&self, first: usize) -> usize {
        self.layers[first..].iter().map(|l| l.param_len()).sum()
    }

    /// Every parameter buffer of layers `first..`, paired with its gradient
    /// buffer and writable in place, in [`Sequential::flat_params`] order:
    /// what [`crate::Adam::step_in_place`] updates.
    ///
    /// # Panics
    ///
    /// Panics if `first > self.len()`.
    pub fn params_and_grads_mut(
        &mut self,
        first: usize,
    ) -> impl Iterator<Item = (&mut [f32], &[f32])> {
        self.layers[first..].iter_mut().flat_map(|l| l.params_and_grads_mut())
    }

    /// All parameters flattened into a single vector, in layer order.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_len());
        for layer in &self.layers {
            for p in layer.params() {
                out.extend_from_slice(p.as_slice());
            }
        }
        out
    }

    /// All parameter gradients flattened into a single vector, matching the
    /// layout of [`Sequential::flat_params`].
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_len());
        for layer in &self.layers {
            for g in layer.grads() {
                out.extend_from_slice(g.as_slice());
            }
        }
        out
    }

    /// Overwrites all parameters from a flattened vector produced by
    /// [`Sequential::flat_params`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] when the length differs from
    /// [`Sequential::param_len`].
    pub fn set_flat_params(&mut self, flat: &[f32]) -> Result<()> {
        if flat.len() != self.param_len() {
            return Err(NnError::ParamLengthMismatch {
                expected: self.param_len(),
                actual: flat.len(),
            });
        }
        let mut rest = flat;
        for layer in &mut self.layers {
            let (head, tail) = rest.split_at(layer.param_len());
            layer.set_flat_params(head)?;
            rest = tail;
        }
        Ok(())
    }

    /// Index ranges of each layer's parameters inside the flattened vector.
    ///
    /// Parameter-free layers (ReLU, Flatten, Dropout) contribute empty
    /// ranges.
    pub fn layer_param_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let mut ranges = Vec::with_capacity(self.layers.len());
        let mut offset = 0usize;
        for layer in &self.layers {
            let len = layer.param_len();
            ranges.push(offset..offset + len);
            offset += len;
        }
        ranges
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layer_names())
            .field("param_len", &self.param_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear, Relu};

    fn tiny_model() -> Sequential {
        Sequential::new(vec![
            Box::new(Linear::new(3, 4, 1).unwrap()),
            Box::new(Relu::new()),
            Box::new(Linear::new(4, 2, 2).unwrap()),
        ])
    }

    #[test]
    fn clone_is_deep_and_independent() {
        let mut original = tiny_model();
        let mut copy = original.clone();
        assert_eq!(original.flat_params(), copy.flat_params());
        // Training the copy must not touch the original's parameters, and
        // both must produce identical outputs from identical states.
        let x = Tensor::randn(&[4, 3], 1.0, 9);
        let y_original = original.forward(&x, false).unwrap();
        let y_copy = copy.forward(&x, false).unwrap();
        assert_eq!(y_original.as_slice(), y_copy.as_slice());
        let before = original.flat_params();
        let mut shifted = copy.flat_params();
        shifted.iter_mut().for_each(|p| *p += 1.0);
        copy.set_flat_params(&shifted).unwrap();
        assert_eq!(original.flat_params(), before);
        assert_ne!(original.flat_params(), copy.flat_params());
    }

    #[test]
    fn forward_backward_shapes() {
        let mut m = tiny_model();
        let x = Tensor::randn(&[5, 3], 1.0, 3);
        let y = m.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[5, 2]);
        m.zero_grad();
        let gx = m.backward(&Tensor::ones(&[5, 2])).unwrap();
        assert_eq!(gx.dims(), &[5, 3]);
    }

    #[test]
    fn flat_params_round_trip() {
        let mut m = tiny_model();
        let params = m.flat_params();
        assert_eq!(params.len(), m.param_len());
        assert_eq!(m.param_len(), 3 * 4 + 4 + 4 * 2 + 2);
        let perturbed: Vec<f32> = params.iter().map(|p| p + 1.0).collect();
        m.set_flat_params(&perturbed).unwrap();
        let back = m.flat_params();
        for (a, b) in back.iter().zip(&params) {
            assert!((a - b - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn set_flat_params_rejects_wrong_length() {
        let mut m = tiny_model();
        assert!(matches!(m.set_flat_params(&[0.0; 3]), Err(NnError::ParamLengthMismatch { .. })));
    }

    #[test]
    fn grads_accumulate_across_backward_calls() {
        let mut m = tiny_model();
        let x = Tensor::randn(&[4, 3], 1.0, 9);
        m.zero_grad();
        m.forward(&x, true).unwrap();
        m.backward(&Tensor::ones(&[4, 2])).unwrap();
        let g1 = m.flat_grads();
        m.forward(&x, true).unwrap();
        m.backward(&Tensor::ones(&[4, 2])).unwrap();
        let g2 = m.flat_grads();
        for (a, b) in g2.iter().zip(&g1) {
            assert!((a - 2.0 * b).abs() < 1e-4);
        }
        m.zero_grad();
        assert!(m.flat_grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn layer_param_ranges_cover_all_params() {
        let m = Sequential::new(vec![
            Box::new(Linear::new(3, 4, 1).unwrap()),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(4, 2, 2).unwrap()),
        ]);
        let ranges = m.layer_param_ranges();
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..16);
        assert!(ranges[1].is_empty());
        assert!(ranges[2].is_empty());
        assert_eq!(ranges[3], 16..26);
    }

    #[test]
    fn empty_model_is_identity() {
        let mut m = Sequential::new(Vec::new());
        assert!(m.is_empty());
        let x = Tensor::randn(&[2, 2], 1.0, 1);
        assert_eq!(m.forward(&x, true).unwrap(), x);
    }

    #[test]
    fn training_reduces_loss_on_a_toy_regression() {
        use crate::loss::{L1Loss, Loss};
        use crate::optim::{Adam, Optimizer};
        // Learn y = [sum(x), -sum(x)] from random data.
        let mut m = tiny_model();
        let x = Tensor::randn(&[64, 3], 1.0, 11);
        let mut y_data = Vec::new();
        for i in 0..64 {
            let s: f32 = x.as_slice()[i * 3..(i + 1) * 3].iter().sum();
            y_data.push(s);
            y_data.push(-s);
        }
        let y = Tensor::from_vec(y_data, &[64, 2]).unwrap();
        let loss = L1Loss;
        let mut opt = Adam::new(5e-2, m.param_len());
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            let pred = m.forward(&x, true).unwrap();
            let (value, grad) = loss.evaluate(&pred, &y).unwrap();
            m.zero_grad();
            m.backward(&grad).unwrap();
            let mut params = m.flat_params();
            opt.step(&mut params, &m.flat_grads());
            m.set_flat_params(&params).unwrap();
            if first.is_none() {
                first = Some(value);
            }
            last = value;
        }
        assert!(last < 0.5 * first.unwrap(), "loss did not decrease: {first:?} -> {last}");
    }
}
