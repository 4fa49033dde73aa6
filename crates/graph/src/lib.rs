//! # fuse-graph
//!
//! Typed op-graph IR, fusion passes and zero-allocation execution plans for
//! the FUSE serving stack.
//!
//! The serving hot path used to walk a [`fuse-nn`-style] layer list where
//! every op allocated its own output tensor. This crate replaces that with a
//! compile-once / run-many design:
//!
//! 1. **Build** a [`Graph`]: a chain of typed nodes ([`OpKind`]) whose
//!    per-sample shapes ([`TensorMeta`]) are inferred and validated at push
//!    time, with layer parameters snapshotted into one flat buffer.
//! 2. **Compile** it with [`Graph::compile`]: rewrite passes fuse
//!    conv+bias+ReLU and linear+bias+ReLU into single kernel dispatches and
//!    collapse the im2col lowering of 1×1/stride-1 convolutions into a direct
//!    GEMM; the scheduler then walks the chain topologically and pre-plans
//!    every intermediate buffer into one bump arena with liveness-based slot
//!    reuse.
//! 3. **Run** the resulting [`ExecPlan`]: steady-state [`ExecPlan::run`]
//!    performs zero heap allocations — every intermediate lives in the arena
//!    planned at compile time.
//! 4. **Ship** it: [`ExecPlan::write_plan`] serializes the compiled plan into
//!    a self-contained, checksummed `.fplan` artifact (see [`artifact`]) that
//!    [`ExecPlan::read_plan`] — e.g. via the thin `fuse-edge` crate — loads
//!    and serves with no lowering stack and no startup compilation.
//!
//! Plans dispatch through the same `fuse-tensor` / `fuse-backend` kernels as
//! the legacy layer walk (same scalar/SIMD selection, same `FUSE_THREADS`
//! parallelism, same per-element operation order), so plan output is
//! bit-identical to the uncompiled pipeline under every exact-contract
//! backend choice — see `REPRODUCIBILITY.md` for the fusion-pass contract.
//!
//! Plans are also the workspace's **relaxed-contract surface**: float steps
//! route through the relaxed tensor entry points (fused-multiply-add kernels
//! under an explicit `FUSE_BACKEND=simd-fma`, bit-identical to exact
//! otherwise), and [`ExecPlan::quantize`] derives an int8 weight-quantized
//! plan that executes through the `fuse-quant` [`DeviceMemory`] seam and
//! ships in the same `.fplan` container (format v2). Relaxed outputs are
//! verified against float goldens by declared tolerance, never byte
//! equality.
//!
//! [`DeviceMemory`]: fuse_quant::DeviceMemory
//!
//! ```
//! use fuse_graph::{Graph, TensorMeta};
//!
//! // y = relu(W·x + b) with W = [[1, 2], [3, 4]], b = [0.5, -0.5].
//! let mut g = Graph::new(TensorMeta::f32(&[2]));
//! g.push_linear("fc", 2, 2, &[1.0, 2.0, 3.0, 4.0], &[0.5, -0.5])?;
//! g.push_relu("relu")?;
//! let mut plan = g.compile(4)?;
//!
//! // The ReLU fused into the GEMM dispatch: one step, not two.
//! assert_eq!(plan.step_count(), 1);
//! assert_eq!(plan.run(&[1.0, 1.0], 1)?, &[3.5, 6.5]);
//! # Ok::<(), fuse_graph::GraphError>(())
//! ```
//!
//! [`fuse-nn`-style]: https://github.com/fuse-rs/fuse

#![warn(missing_docs)]

mod arena;
pub mod artifact;
pub mod error;
pub mod graph;
pub mod meta;
pub mod op;
mod passes;
pub mod plan;

pub use artifact::{FPLAN_FORMAT, FPLAN_MAGIC, FPLAN_MIN_VERSION, FPLAN_VERSION};
pub use error::GraphError;
pub use graph::{Graph, ShapeSignature};
pub use meta::{DType, TensorMeta};
pub use op::{Node, NodeId, OpKind, ValueRef};
pub use plan::ExecPlan;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
