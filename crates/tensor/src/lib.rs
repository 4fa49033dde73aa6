//! # fuse-tensor
//!
//! A minimal, dependency-light f32 tensor library that serves as the numerical
//! substrate for the FUSE mmWave human pose estimation reproduction.
//!
//! The crate deliberately implements only what the FUSE models and the radar
//! signal chain need — dense row-major tensors, element-wise arithmetic,
//! matrix multiplication, 2-D convolution primitives (im2col based), axis
//! reductions, and random initialisers — so that every numerical code path in
//! the reproduction is auditable.
//!
//! ```
//! use fuse_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok::<(), fuse_tensor::TensorError>(())
//! ```

pub mod codec;
pub mod conv;
pub mod error;
pub mod linalg;
pub mod pool;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use conv::{
    conv1x1_forward_into, conv1x1_forward_into_relaxed, conv2d_backward_input,
    conv2d_backward_weight, conv2d_forward, conv2d_forward_into, conv2d_forward_into_relaxed,
    Conv2dSpec,
};
pub use error::TensorError;
pub use pool::maxpool2d_forward_into;
pub use shape::Shape;
pub use stats::{mean_std, Normalizer};
pub use tensor::{derive_seeds, Tensor};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
