//! # fuse-nn
//!
//! A small layer-wise neural-network library built on [`fuse_tensor`].
//!
//! It provides exactly the building blocks the FUSE reproduction needs:
//! `Conv2d`, `Linear`, `ReLU`, `Flatten` and `Dropout` layers composed with
//! [`Sequential`], the L1/MSE/Huber losses used for joint-coordinate
//! regression, and SGD/Adam optimizers that operate on flattened parameter
//! vectors so the meta-learning framework in `fuse-core` can snapshot,
//! perturb and restore model parameters cheaply.
//!
//! ```
//! use fuse_nn::{layers::Linear, layers::Relu, Sequential, L1Loss, Loss, Adam, Optimizer};
//! use fuse_tensor::Tensor;
//!
//! let mut model = Sequential::new(vec![
//!     Box::new(Linear::new(4, 8, 1)?),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(8, 2, 2)?),
//! ]);
//! let x = Tensor::randn(&[16, 4], 1.0, 3);
//! let y = Tensor::zeros(&[16, 2]);
//! let mut opt = Adam::new(1e-2, model.param_len());
//! let loss = L1Loss;
//!
//! for _ in 0..10 {
//!     let pred = model.forward(&x, true)?;
//!     let (value, grad) = loss.evaluate(&pred, &y)?;
//!     assert!(value.is_finite());
//!     model.zero_grad();
//!     model.backward(&grad)?;
//!     let grads = model.flat_grads();
//!     let mut params = model.flat_params();
//!     opt.step(params.as_mut_slice(), grads.as_slice());
//!     model.set_flat_params(&params)?;
//! }
//! # Ok::<(), fuse_nn::NnError>(())
//! ```

pub mod error;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod lowering;
pub mod metrics;
pub mod optim;
pub mod pooling;
pub mod schedule;
pub mod sequential;
pub mod serialize;

pub use error::NnError;
pub use layer::{Layer, LayerLowering};
pub use loss::{HuberLoss, L1Loss, Loss, MseLoss};
pub use lowering::LoweringRequest;
pub use metrics::{mae, mae_per_axis, AxisMae};
pub use optim::{Adam, Optimizer, Sgd};
pub use pooling::MaxPool2d;
pub use schedule::LrSchedule;
pub use sequential::Sequential;
pub use serialize::{Checkpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NnError>;
