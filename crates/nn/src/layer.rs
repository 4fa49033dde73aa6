//! The [`Layer`] trait implemented by every network building block.

use fuse_tensor::{Conv2dSpec, Tensor};

use crate::Result;

/// A layer's declarative description for op-graph lowering, borrowed from the
/// live layer.
///
/// Layers that can be compiled into a `fuse-graph` execution plan expose one
/// of these from [`Layer::lowering`]; the `crate::lowering` module maps them
/// onto graph nodes. The description targets **inference** (`train = false`)
/// semantics — e.g. dropout lowers to [`LayerLowering::Identity`] because it
/// is exactly the identity outside training.
#[derive(Debug)]
pub enum LayerLowering<'a> {
    /// An im2col 2-D convolution with the given geometry and parameters.
    Conv2d {
        /// Kernel geometry.
        spec: Conv2dSpec,
        /// Weight tensor `[C_out, C_in, k, k]`.
        weight: &'a Tensor,
        /// Bias tensor `[C_out]`.
        bias: &'a Tensor,
    },
    /// A fully-connected layer `y = W·x + b`.
    Linear {
        /// Input features per sample.
        in_features: usize,
        /// Output features per sample.
        out_features: usize,
        /// Weight tensor `[out x in]`.
        weight: &'a Tensor,
        /// Bias tensor `[out]`.
        bias: &'a Tensor,
    },
    /// Element-wise `x.max(0.0)`.
    Relu,
    /// 2-D max pooling over non-overlapping `window × window` tiles with a
    /// stride equal to the window.
    MaxPool2d {
        /// Square pooling window edge (also the stride).
        window: usize,
    },
    /// Reshape to a flat per-sample vector.
    Flatten,
    /// Exact pass-through at inference time.
    Identity,
}

/// A differentiable network layer with cached activations.
///
/// Layers follow a classic layer-wise backpropagation contract:
///
/// 1. [`Layer::forward`] computes the output and caches whatever it needs for
///    the backward pass (typically its input).
/// 2. [`Layer::backward`] consumes the gradient of the loss with respect to
///    the layer output, accumulates parameter gradients internally, and
///    returns the gradient with respect to the layer input.
///
/// Parameter access is exposed as ordered lists of tensors so that
/// [`crate::Sequential`] can flatten them into a single vector — the
/// representation the optimizers and the meta-learning outer loop work with.
///
/// Layers are `Send + Sync` and clonable through [`Layer::clone_box`]: the
/// parallel execution backend clones whole models so independent episodes
/// (meta-learning tasks, evaluation batches) can run on pool threads without
/// sharing mutable state.
pub trait Layer: Send + Sync {
    /// Human-readable layer name used in error messages and summaries.
    fn name(&self) -> &str;

    /// Runs the forward pass, caching state for [`Layer::backward`].
    ///
    /// `train` distinguishes training mode from inference mode (it only
    /// matters for stochastic layers such as dropout).
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor>;

    /// Runs the backward pass for the most recent forward call.
    ///
    /// # Errors
    ///
    /// Returns an error when called before `forward` or when `grad_output`
    /// has an unexpected shape.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Ordered list of parameter tensors (possibly empty).
    fn params(&self) -> Vec<&Tensor>;

    /// Ordered list of parameter gradient tensors, matching [`Layer::params`].
    fn grads(&self) -> Vec<&Tensor>;

    /// Overwrites the parameters from an ordered list of tensors.
    ///
    /// # Errors
    ///
    /// Returns an error when the number or shapes of tensors do not match.
    fn set_params(&mut self, params: &[Tensor]) -> Result<()>;

    /// Overwrites the parameters from one flat slice laid out in
    /// [`Layer::params`] order. The default builds tensors for
    /// [`Layer::set_params`]; layers with parameters override it to copy
    /// straight into their existing buffers.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::ParamLengthMismatch`] when `flat.len()`
    /// differs from [`Layer::param_len`], or whatever
    /// [`Layer::set_params`] rejects.
    fn set_flat_params(&mut self, flat: &[f32]) -> Result<()> {
        let expected = self.param_len();
        if flat.len() != expected {
            return Err(crate::NnError::ParamLengthMismatch { expected, actual: flat.len() });
        }
        let mut rest = flat;
        let mut tensors = Vec::new();
        for p in self.params() {
            let (head, tail) = rest.split_at(p.len());
            tensors.push(Tensor::from_vec(head.to_vec(), p.dims())?);
            rest = tail;
        }
        self.set_params(&tensors)
    }

    /// Each parameter buffer paired with its gradient buffer, in
    /// [`Layer::params`] order, with the parameter writable: what an
    /// in-place optimiser step ([`crate::Adam::step_in_place`]) reads and
    /// updates. Parameter-free layers keep the empty default.
    fn params_and_grads_mut(&mut self) -> Vec<(&mut [f32], &[f32])> {
        Vec::new()
    }

    /// Resets all parameter gradients to zero.
    fn zero_grad(&mut self);

    /// Total number of scalar parameters in this layer.
    fn param_len(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// The layer's op-graph lowering for inference execution, when one
    /// exists.
    ///
    /// `None` (the default) means the layer cannot be compiled into an
    /// execution plan; engines must fall back to walking the layer list with
    /// [`Layer::forward`]. Implementations must describe *exactly* the
    /// inference (`train = false`) forward semantics — compiled plans are
    /// required to be bit-identical to the legacy walk.
    fn lowering(&self) -> Option<LayerLowering<'_>> {
        None
    }

    /// Clones the layer behind a fresh box, including parameters, gradients
    /// and cached activations. Enables `Clone` for [`crate::Sequential`].
    ///
    /// Stochastic layer state is copied verbatim: a cloned dropout layer
    /// replays the same mask sequence as its source. Callers that clone a
    /// model repeatedly from one template (e.g. per-episode training loops)
    /// and need fresh randomness per clone must reseed those layers.
    fn clone_box(&self) -> Box<dyn Layer>;
}
