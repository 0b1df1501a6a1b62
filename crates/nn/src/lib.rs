//! Neural-network layers, models, optimizers and training utilities.
//!
//! This crate provides everything the Nazar reproduction needs from a deep
//! learning framework, built on [`nazar_tensor`]:
//!
//! * [`Linear`], [`BatchNorm1d`] and [`ResidualBlock`] layers with a shared
//!   [`Layer`] trait and explicit [`Mode`] (train / eval / adapt) semantics.
//! * [`MlpResNet`] — residual MLP classifiers standing in for the paper's
//!   ResNet18/34/50 (see `DESIGN.md` S1). The [`ModelArch`] presets preserve
//!   the capacity ordering of the three architectures.
//! * [`Sgd`] and [`Adam`] optimizers, cross-entropy / entropy losses, and a
//!   batched [`train`] harness.
//! * [`TentStep`] — TENT's BN-only adaptation step without a tape, on the
//!   frozen weights packed once per job; bitwise the tape's step.
//! * [`BnPatch`] — the serializable batch-normalization-only model delta that
//!   Nazar ships to devices instead of full model weights (§3.4 of the
//!   paper: the BN layer is two orders of magnitude smaller than the model).
//!
//! # Example: train a small classifier
//!
//! ```
//! use nazar_nn::{MlpResNet, ModelArch, Sgd, train};
//! use nazar_tensor::Tensor;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! // Two well-separated classes in 4-D.
//! let xs = Tensor::from_vec(
//!     vec![2.0, 2.0, 2.0, 2.0, -2.0, -2.0, -2.0, -2.0], &[2, 4]).unwrap();
//! let ys = vec![0usize, 1];
//! let mut model = MlpResNet::new(ModelArch::tiny(4, 2), &mut rng);
//! let mut opt = Sgd::new(0.1);
//! for _ in 0..50 {
//!     train::train_epoch(&mut model, &mut opt, &xs, &ys, 2, &mut rng);
//! }
//! assert_eq!(train::evaluate(&mut model, &xs, &ys).accuracy, 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod idle;
mod init;
mod layers;
mod loss;
mod model;
mod optim;
mod param;
mod patch;
mod tent_step;
pub mod train;

pub use error::{NnError, Result};
pub use idle::Idle;
pub use init::Init;
pub use layers::{BatchNorm1d, Layer, Linear, Mode};
pub use loss::{cross_entropy, entropy_of_logits, mean_entropy};
pub use model::{MlpResNet, ModelArch, ResidualBlock};
pub use optim::{Adam, Optimizer, Sgd};
pub use param::Param;
pub use patch::{BnLayerState, BnPatch};
pub use tent_step::TentStep;
