//! Lowering [`Sequential`] models into `fuse-graph` op graphs.
//!
//! The bridge between the mutable, trainable layer world and the immutable,
//! compiled serving world: a [`LoweringRequest`] walks a model's layers, asks
//! each for its declarative [`LayerLowering`] description and builds a typed
//! [`Graph`] with the parameters snapshotted, or compiles it straight to an
//! [`fuse_graph::ExecPlan`].
//!
//! Lowering is total only for layers that implement
//! [`crate::Layer::lowering`]; anything else makes the whole model
//! non-lowerable. What happens then is the request's [`FallbackPolicy`]:
//! [`FallbackPolicy::Deny`] surfaces the error, [`FallbackPolicy::LegacyWalk`]
//! reports a [`Compiled::Fallback`] carrying the reason so the serving engine
//! can walk the layer list instead — visibly, not silently. Either way the
//! contract stays simple: a compiled plan covers the entire model
//! bit-identically or does not exist.

use fuse_graph::{ExecPlan, Graph, GraphError, TensorMeta};

use crate::layer::LayerLowering;
use crate::sequential::Sequential;

/// What a [`LoweringRequest`] does when the model cannot be compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FallbackPolicy {
    /// Surface the lowering/compilation error to the caller (the default).
    #[default]
    Deny,
    /// Swallow the error into a [`Compiled::Fallback`] so the caller can
    /// serve through the legacy [`Sequential::forward`] walk while still
    /// seeing *why* the plan does not exist.
    LegacyWalk,
}

/// Outcome of [`LoweringRequest::compile`].
// A `Compiled` is destructured immediately at the compile call site, never
// stored or collected, so the size gap between the plan and the error
// variant costs nothing — boxing the plan would only add churn for callers.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Compiled {
    /// The model compiled; serve through the plan.
    Plan(ExecPlan),
    /// The model did not compile and the policy was
    /// [`FallbackPolicy::LegacyWalk`]; serve through the layer walk. The
    /// carried error says why — log it, count it, don't hide it.
    Fallback(GraphError),
}

/// A builder describing how to lower (and optionally compile) a model for
/// inference, replacing the old positional `lower_for_inference(model,
/// input_dims)` call so new options don't grow more positional arguments.
///
/// ```
/// use fuse_nn::layers::{Linear, Relu};
/// use fuse_nn::{LoweringRequest, Sequential};
///
/// let model = Sequential::new(vec![
///     Box::new(Linear::new(4, 2, 7)?),
///     Box::new(Relu::new()),
/// ]);
/// let graph = LoweringRequest::new(&model, &[4]).lower()?;
/// assert_eq!(graph.signature().param_len(), model.param_len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct LoweringRequest<'m> {
    model: &'m Sequential,
    input_dims: Vec<usize>,
    max_batch: usize,
    fallback: FallbackPolicy,
}

impl<'m> LoweringRequest<'m> {
    /// Starts a request lowering `model` for per-sample inputs shaped
    /// `input_dims`, with `max_batch = 1` and [`FallbackPolicy::Deny`].
    pub fn new(model: &'m Sequential, input_dims: &[usize]) -> Self {
        LoweringRequest {
            model,
            input_dims: input_dims.to_vec(),
            max_batch: 1,
            fallback: FallbackPolicy::Deny,
        }
    }

    /// Sets the largest batch the compiled plan must serve.
    #[must_use]
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets what [`Self::compile`] does when the model cannot be compiled.
    #[must_use]
    pub fn fallback(mut self, policy: FallbackPolicy) -> Self {
        self.fallback = policy;
        self
    }

    /// Builds the inference op graph, snapshotting the current parameters.
    ///
    /// The graph's [`fuse_graph::ShapeSignature`] records the model's layer
    /// names in execution order, so checkpoints validated against the
    /// signature are exactly the checkpoints [`crate::Checkpoint::apply_to`]
    /// would accept.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Unsupported`] when a layer has no op-graph
    /// lowering and [`GraphError::Shape`] when layer shapes do not chain
    /// (the same mismatches the legacy forward pass would reject at run
    /// time). The fallback policy does not apply here — `lower` always
    /// reports errors.
    pub fn lower(&self) -> fuse_graph::Result<Graph> {
        let mut graph = Graph::new(TensorMeta::f32(&self.input_dims));
        graph.reserve_params(self.model.param_len());
        for layer in self.model.layers() {
            let name = layer.name();
            let Some(lowering) = layer.lowering() else {
                return Err(GraphError::Unsupported(format!(
                    "layer '{name}' has no op-graph lowering"
                )));
            };
            match lowering {
                LayerLowering::Conv2d { spec, weight, bias } => {
                    graph.push_conv2d(name, spec, weight.as_slice(), bias.as_slice())?;
                }
                LayerLowering::Linear { in_features, out_features, weight, bias } => {
                    graph.push_linear(
                        name,
                        in_features,
                        out_features,
                        weight.as_slice(),
                        bias.as_slice(),
                    )?;
                }
                LayerLowering::Relu => {
                    graph.push_relu(name)?;
                }
                LayerLowering::MaxPool2d { window } => {
                    graph.push_maxpool2d(name, window)?;
                }
                LayerLowering::Flatten => {
                    graph.push_flatten(name)?;
                }
                LayerLowering::Identity => {
                    graph.push_identity(name)?;
                }
            }
        }
        Ok(graph)
    }

    /// Lowers and compiles in one go, honouring the fallback policy.
    ///
    /// # Errors
    ///
    /// Under [`FallbackPolicy::Deny`], any lowering or compilation error.
    /// Under [`FallbackPolicy::LegacyWalk`] this never fails — failures come
    /// back as [`Compiled::Fallback`] with the reason inside.
    pub fn compile(&self) -> fuse_graph::Result<Compiled> {
        match self.lower().and_then(|graph| graph.compile(self.max_batch)) {
            Ok(plan) => Ok(Compiled::Plan(plan)),
            Err(e) => match self.fallback {
                FallbackPolicy::Deny => Err(e),
                FallbackPolicy::LegacyWalk => Ok(Compiled::Fallback(e)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use fuse_tensor::{Conv2dSpec, Tensor};

    use super::*;
    use crate::layers::{Conv2d, Dropout, Flatten, Linear, Relu};
    use crate::pooling::MaxPool2d;
    use crate::Layer;
    use crate::Result;

    fn tiny_cnn() -> Sequential {
        Sequential::new(vec![
            Box::new(Conv2d::new(Conv2dSpec::same(2, 3, 3), 7).unwrap()),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(48, 5, 8).unwrap()),
        ])
    }

    #[test]
    fn lowered_graph_matches_the_model_signature() {
        let model = tiny_cnn();
        let graph = LoweringRequest::new(&model, &[2, 4, 4]).lower().unwrap();
        let sig = graph.signature();
        assert_eq!(
            sig.layer_names().iter().map(String::as_str).collect::<Vec<_>>(),
            model.layer_names()
        );
        assert_eq!(sig.param_len(), model.param_len());
        assert_eq!(sig.output().dims(), &[5]);
    }

    #[test]
    fn compiled_plan_matches_the_legacy_forward_bit_for_bit() {
        let mut model = tiny_cnn();
        let Compiled::Plan(mut plan) =
            LoweringRequest::new(&model, &[2, 4, 4]).max_batch(4).compile().unwrap()
        else {
            panic!("tiny_cnn must compile");
        };
        let input = Tensor::randn(&[3, 2, 4, 4], 1.0, 9);
        let expected = model.forward(&input, false).unwrap();
        let out = plan.run(input.as_slice(), 3).unwrap();
        assert_eq!(out, expected.as_slice());
    }

    #[test]
    fn pooled_models_lower_and_match_the_legacy_forward_bit_for_bit() {
        let mut model = Sequential::new(vec![
            Box::new(Conv2d::new(Conv2dSpec::same(2, 3, 3), 17).unwrap()) as Box<dyn Layer>,
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2).unwrap()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(3 * 2 * 2, 5, 18).unwrap()),
        ]);
        let Compiled::Plan(mut plan) =
            LoweringRequest::new(&model, &[2, 4, 4]).max_batch(3).compile().unwrap()
        else {
            panic!("pooled model must compile, not fall back");
        };
        let input = Tensor::randn(&[3, 2, 4, 4], 1.0, 19);
        let expected = model.forward(&input, false).unwrap();
        assert_eq!(plan.run(input.as_slice(), 3).unwrap(), expected.as_slice());
    }

    #[test]
    fn dropout_lowers_to_identity_at_inference() {
        let mut model = Sequential::new(vec![
            Box::new(Linear::new(4, 4, 3).unwrap()),
            Box::new(Dropout::new(0.5, 11).unwrap()),
        ]);
        let mut plan = LoweringRequest::new(&model, &[4]).lower().unwrap().compile(2).unwrap();
        let input = Tensor::randn(&[2, 4], 1.0, 12);
        let expected = model.forward(&input, false).unwrap();
        assert_eq!(plan.run(input.as_slice(), 2).unwrap(), expected.as_slice());
    }

    /// A layer that deliberately has no op-graph lowering (pooling, the old
    /// example, lowers now).
    #[derive(Debug, Clone)]
    struct Opaque;

    impl Layer for Opaque {
        fn name(&self) -> &str {
            "opaque"
        }
        fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
            Ok(input.clone())
        }
        fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
            Ok(grad_output.clone())
        }
        fn params(&self) -> Vec<&Tensor> {
            Vec::new()
        }
        fn grads(&self) -> Vec<&Tensor> {
            Vec::new()
        }
        fn set_params(&mut self, _params: &[Tensor]) -> Result<()> {
            Ok(())
        }
        fn zero_grad(&mut self) {}
        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn unsupported_layers_reject_the_whole_model() {
        let model = Sequential::new(vec![
            Box::new(Conv2d::new(Conv2dSpec::same(2, 2, 3), 7).unwrap()) as Box<dyn Layer>,
            Box::new(Opaque),
        ]);
        let req = LoweringRequest::new(&model, &[2, 4, 4]);
        let err = req.lower().unwrap_err();
        assert!(matches!(err, GraphError::Unsupported(_)), "{err}");
        // Deny (the default) propagates; LegacyWalk converts to a visible
        // fallback carrying the same reason.
        assert!(req.compile().is_err());
        match req.fallback(FallbackPolicy::LegacyWalk).compile().unwrap() {
            Compiled::Fallback(GraphError::Unsupported(msg)) => {
                assert!(msg.contains("opaque"), "{msg}");
            }
            other => panic!("expected a fallback, got {other:?}"),
        }
    }
}
