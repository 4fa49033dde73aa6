//! Graph construction: typed pushes with shape inference and validation.

use fuse_tensor::Conv2dSpec;

use crate::error::GraphError;
use crate::meta::TensorMeta;
use crate::op::{Node, NodeId, OpKind, ValueRef};
use crate::Result;

/// The shape identity of a compiled model: everything a checkpoint must match
/// before it may replace the model's parameters.
///
/// Captured from the graph **before** rewrite passes run, so the layer-name
/// sequence matches what `fuse-nn` checkpoints record even after ReLU nodes
/// are fused away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeSignature {
    layer_names: Vec<String>,
    param_len: usize,
    input: TensorMeta,
    output: TensorMeta,
}

impl ShapeSignature {
    /// Reassembles a signature from decoded parts (the plan-artifact read
    /// path); construction stays crate-internal so external code can only
    /// obtain signatures from a real graph or artifact.
    pub(crate) fn from_parts(
        layer_names: Vec<String>,
        param_len: usize,
        input: TensorMeta,
        output: TensorMeta,
    ) -> Self {
        ShapeSignature { layer_names, param_len, input, output }
    }

    /// Layer names in push order (pre-fusion, checkpoint-compatible).
    pub fn layer_names(&self) -> &[String] {
        &self.layer_names
    }

    /// Total number of parameters across all nodes.
    pub fn param_len(&self) -> usize {
        self.param_len
    }

    /// Per-sample shape of the graph input.
    pub fn input(&self) -> &TensorMeta {
        &self.input
    }

    /// Per-sample shape of the graph output.
    pub fn output(&self) -> &TensorMeta {
        &self.output
    }
}

/// A typed, single-input op chain under construction.
///
/// Every `push_*` method validates operand shapes against the current tail of
/// the chain and snapshots the op's parameters into the graph's flat buffer,
/// so a successfully built graph is compilable by construction (up to ops the
/// planner does not support). See the crate docs for the build → compile →
/// run lifecycle.
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) input: TensorMeta,
    pub(crate) nodes: Vec<Node>,
    pub(crate) params: Vec<f32>,
}

impl Graph {
    /// Starts an empty graph whose external input has the given per-sample
    /// shape.
    pub fn new(input: TensorMeta) -> Self {
        Graph { input, nodes: Vec::new(), params: Vec::new() }
    }

    /// Per-sample shape of the graph input.
    pub fn input_meta(&self) -> &TensorMeta {
        &self.input
    }

    /// Per-sample shape of the current chain tail (the graph output).
    pub fn output_meta(&self) -> &TensorMeta {
        self.nodes.last().map(|n| &n.output).unwrap_or(&self.input)
    }

    /// Number of nodes pushed so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of parameters snapshotted so far.
    pub fn param_len(&self) -> usize {
        self.params.len()
    }

    /// Reserves room for `additional` more snapshotted parameters. A caller
    /// that knows the total up front (a model lowering its layers) then
    /// snapshots into one exactly sized buffer, instead of one that doubles
    /// and copies the largest weight already pushed.
    pub fn reserve_params(&mut self, additional: usize) {
        self.params.reserve_exact(additional);
    }

    /// The nodes pushed so far, in order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The shape identity a checkpoint must match to serve from this graph.
    pub fn signature(&self) -> ShapeSignature {
        ShapeSignature {
            layer_names: self.nodes.iter().map(|n| n.name.clone()).collect(),
            param_len: self.params.len(),
            input: self.input.clone(),
            output: self.output_meta().clone(),
        }
    }

    fn tail_ref(&self) -> ValueRef {
        self.nodes.last().map(|n| ValueRef::Node(n.id)).unwrap_or(ValueRef::Input)
    }

    fn push_node(
        &mut self,
        name: &str,
        op: OpKind,
        output: TensorMeta,
        weight: &[f32],
        bias: &[f32],
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        let input = self.tail_ref();
        let w_start = self.params.len();
        self.params.extend_from_slice(weight);
        let b_start = self.params.len();
        self.params.extend_from_slice(bias);
        let b_end = self.params.len();
        self.nodes.push(Node {
            id,
            name: name.to_string(),
            op,
            input,
            output,
            weight: w_start..b_start,
            bias: b_start..b_end,
        });
        id
    }

    /// Appends a 2-D convolution (`[C, H, W]` → `[C_out, H_out, W_out]`).
    ///
    /// `weight` is `[C_out, C_in, k, k]` row-major, `bias` is `[C_out]`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Shape`] when the tail is not rank-3, its channel
    /// count disagrees with `spec`, the geometry is degenerate, or the
    /// parameter slices have the wrong lengths.
    pub fn push_conv2d(
        &mut self,
        name: &str,
        spec: Conv2dSpec,
        weight: &[f32],
        bias: &[f32],
    ) -> Result<NodeId> {
        let tail = self.output_meta();
        let dims = tail.dims();
        if dims.len() != 3 {
            return Err(GraphError::Shape(format!(
                "conv2d '{name}' needs a rank-3 [C, H, W] input, tail is {tail}"
            )));
        }
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        if c != spec.in_channels {
            return Err(GraphError::Shape(format!(
                "conv2d '{name}' expects {} input channels, tail {tail} has {c}",
                spec.in_channels
            )));
        }
        let (out_h, out_w) = spec.output_size(h, w)?;
        if weight.len() != spec.weight_len() {
            return Err(GraphError::Shape(format!(
                "conv2d '{name}' weight has {} elements, spec implies {}",
                weight.len(),
                spec.weight_len()
            )));
        }
        if bias.len() != spec.out_channels {
            return Err(GraphError::Shape(format!(
                "conv2d '{name}' bias has {} elements, spec implies {}",
                bias.len(),
                spec.out_channels
            )));
        }
        let output = TensorMeta::f32(&[spec.out_channels, out_h, out_w]);
        Ok(self.push_node(name, OpKind::Conv2d { spec, fused_relu: false }, output, weight, bias))
    }

    /// Appends a fully-connected layer (`[in]` → `[out]`).
    ///
    /// `weight` is `[out x in]` row-major, `bias` is `[out]`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Shape`] when the tail is not a flat
    /// `[in_features]` vector or the parameter slices have the wrong lengths.
    pub fn push_linear(
        &mut self,
        name: &str,
        in_features: usize,
        out_features: usize,
        weight: &[f32],
        bias: &[f32],
    ) -> Result<NodeId> {
        let tail = self.output_meta();
        if tail.dims() != [in_features] {
            return Err(GraphError::Shape(format!(
                "linear '{name}' expects a flat [{in_features}] input, tail is {tail}"
            )));
        }
        if weight.len() != out_features * in_features {
            return Err(GraphError::Shape(format!(
                "linear '{name}' weight has {} elements, expected {}",
                weight.len(),
                out_features * in_features
            )));
        }
        if bias.len() != out_features {
            return Err(GraphError::Shape(format!(
                "linear '{name}' bias has {} elements, expected {out_features}",
                bias.len()
            )));
        }
        let output = TensorMeta::f32(&[out_features]);
        let op = OpKind::Linear { in_features, out_features, fused_relu: false };
        Ok(self.push_node(name, op, output, weight, bias))
    }

    /// Appends an element-wise ReLU.
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` for uniformity with the other
    /// pushes.
    pub fn push_relu(&mut self, name: &str) -> Result<NodeId> {
        let output = self.output_meta().clone();
        Ok(self.push_node(name, OpKind::Relu, output, &[], &[]))
    }

    /// Appends a 2-D max pooling over non-overlapping `window × window` tiles
    /// (`[C, H, W]` → `[C, H/window, W/window]`, stride equal to the window).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Shape`] when the tail is not rank-3, the window
    /// is zero, or the spatial extent is smaller than the window.
    pub fn push_maxpool2d(&mut self, name: &str, window: usize) -> Result<NodeId> {
        let tail = self.output_meta();
        let dims = tail.dims();
        if dims.len() != 3 {
            return Err(GraphError::Shape(format!(
                "maxpool2d '{name}' needs a rank-3 [C, H, W] input, tail is {tail}"
            )));
        }
        if window == 0 {
            return Err(GraphError::Shape(format!(
                "maxpool2d '{name}' pooling window must be nonzero"
            )));
        }
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        if h < window || w < window {
            return Err(GraphError::Shape(format!(
                "maxpool2d '{name}' input {h}x{w} smaller than pooling window {window}"
            )));
        }
        let output = TensorMeta::f32(&[c, h / window, w / window]);
        Ok(self.push_node(name, OpKind::MaxPool2d { window }, output, &[], &[]))
    }

    /// Appends a flatten (`[C, H, W, ...]` → `[C*H*W*...]`).
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` for uniformity with the other
    /// pushes.
    pub fn push_flatten(&mut self, name: &str) -> Result<NodeId> {
        let output = TensorMeta::f32(&[self.output_meta().len()]);
        Ok(self.push_node(name, OpKind::Flatten, output, &[], &[]))
    }

    /// Appends a pass-through node (e.g. dropout at inference time).
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` for uniformity with the other
    /// pushes.
    pub fn push_identity(&mut self, name: &str) -> Result<NodeId> {
        let output = self.output_meta().clone();
        Ok(self.push_node(name, OpKind::Identity, output, &[], &[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_inference_follows_the_chain() {
        let mut g = Graph::new(TensorMeta::f32(&[2, 4, 4]));
        g.push_conv2d("conv", Conv2dSpec::same(2, 3, 3), &[0.0; 54], &[0.0; 3]).unwrap();
        assert_eq!(g.output_meta().dims(), &[3, 4, 4]);
        g.push_relu("relu").unwrap();
        g.push_flatten("flatten").unwrap();
        assert_eq!(g.output_meta().dims(), &[48]);
        g.push_linear("fc", 48, 5, &[0.0; 240], &[0.0; 5]).unwrap();
        assert_eq!(g.output_meta().dims(), &[5]);
        assert_eq!(g.param_len(), 54 + 3 + 240 + 5);
    }

    #[test]
    fn pushes_reject_mismatched_shapes() {
        let mut g = Graph::new(TensorMeta::f32(&[2, 4, 4]));
        // Wrong channel count.
        assert!(g.push_conv2d("conv", Conv2dSpec::same(3, 3, 3), &[0.0; 81], &[0.0; 3]).is_err());
        // Wrong weight length.
        assert!(g.push_conv2d("conv", Conv2dSpec::same(2, 3, 3), &[0.0; 10], &[0.0; 3]).is_err());
        // Linear on a rank-3 tail.
        assert!(g.push_linear("fc", 32, 5, &[0.0; 160], &[0.0; 5]).is_err());
        // Failed pushes must not have mutated the graph.
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.param_len(), 0);
    }

    #[test]
    fn maxpool_pushes_validate_geometry() {
        let mut g = Graph::new(TensorMeta::f32(&[2, 4, 4]));
        assert!(g.push_maxpool2d("pool", 0).is_err());
        assert!(g.push_maxpool2d("pool", 5).is_err());
        g.push_maxpool2d("pool", 2).unwrap();
        assert_eq!(g.output_meta().dims(), &[2, 2, 2]);
        g.push_flatten("flatten").unwrap();
        // Rank-1 tail: pooling needs [C, H, W].
        assert!(g.push_maxpool2d("pool2", 2).is_err());
        assert_eq!(g.param_len(), 0);
    }

    #[test]
    fn signature_records_push_order_names() {
        let mut g = Graph::new(TensorMeta::f32(&[4]));
        g.push_linear("fc1", 4, 4, &[0.0; 16], &[0.0; 4]).unwrap();
        g.push_relu("relu").unwrap();
        g.push_linear("fc2", 4, 2, &[0.0; 8], &[0.0; 2]).unwrap();
        let sig = g.signature();
        assert_eq!(sig.layer_names(), ["fc1", "relu", "fc2"]);
        assert_eq!(sig.param_len(), 30);
        assert_eq!(sig.input().dims(), &[4]);
        assert_eq!(sig.output().dims(), &[2]);
    }
}
