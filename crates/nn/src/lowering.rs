//! Lowering [`Sequential`] models into `fuse-graph` op graphs.
//!
//! The bridge between the mutable, trainable layer world and the immutable,
//! compiled serving world: a [`LoweringRequest`] walks a model's layers, asks
//! each for its declarative [`LayerLowering`] description and builds a typed
//! [`Graph`] with the parameters snapshotted, which [`Graph::compile`] turns
//! into an [`fuse_graph::ExecPlan`].
//!
//! Lowering is total only for layers that implement
//! [`crate::Layer::lowering`]; anything else makes the whole model
//! non-lowerable and [`LoweringRequest::lower`] reports why: a compiled plan
//! covers the entire model bit-identically or does not exist.

use fuse_graph::{Graph, GraphError, TensorMeta};

use crate::layer::LayerLowering;
use crate::sequential::Sequential;

/// A request to lower a model for inference on per-sample inputs of a given
/// shape. Every caller compiles the same way:
/// `LoweringRequest::new(&model, &dims).lower()?.compile(max_batch)`.
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
/// let plan = graph.compile(8)?;
/// assert_eq!(plan.max_batch(), 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct LoweringRequest<'m> {
    model: &'m Sequential,
    input_dims: Vec<usize>,
}

impl<'m> LoweringRequest<'m> {
    /// Starts a request lowering `model` for per-sample inputs shaped
    /// `input_dims`.
    pub fn new(model: &'m Sequential, input_dims: &[usize]) -> Self {
        LoweringRequest { model, input_dims: input_dims.to_vec() }
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
    /// (the same mismatches the layer-walk forward pass would reject at run
    /// time).
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
        let mut plan =
            LoweringRequest::new(&model, &[2, 4, 4]).lower().unwrap().compile(4).unwrap();
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
        let mut plan =
            LoweringRequest::new(&model, &[2, 4, 4]).lower().unwrap().compile(3).unwrap();
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
        match LoweringRequest::new(&model, &[2, 4, 4]).lower().unwrap_err() {
            GraphError::Unsupported(msg) => assert!(msg.contains("opaque"), "{msg}"),
            other => panic!("expected an unsupported-layer error, got {other}"),
        }
    }
}
