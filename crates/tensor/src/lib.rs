//! Dense `f32` tensors with reverse-mode automatic differentiation.
//!
//! This crate is the numeric substrate of the Nazar reproduction. The paper
//! trains and adapts ResNet classifiers with PyTorch on a GPU; everything
//! Nazar itself measures (softmax confidence, prediction entropy, gradients
//! of the entropy objective with respect to batch-normalization parameters)
//! is reproduced here on top of a small, fully self-contained tensor library:
//!
//! * [`Tensor`] — an n-dimensional dense `f32` array with shape/stride
//!   bookkeeping, broadcasting helpers, matrix multiplication and
//!   reductions.
//! * [`simd`] — runtime-dispatched AVX-512 inner kernels ([`SimdTier`];
//!   `NAZAR_TENSOR_SIMD` selects `off`/`exact`/`fast`), with the scalar
//!   kernels as the always-available bitwise oracle.
//! * [`Tape`] / [`Var`] — a classic reverse-mode autodiff tape. Operations on
//!   [`Var`]s record nodes on the tape; [`Var::backward`] walks the tape in
//!   reverse and returns the gradients of its leaves (parameters, and the
//!   inputs input-gradient methods such as ODIN differentiate).
//!   Batch-statistic batch normalization is one node, [`Var::batch_norm`].
//!   A [`TapePool`] keeps node values and gradient buffers from one tape to
//!   the next.
//! * [`kernels`] — out-parameter slice kernels (tiled/packed-B matmul and
//!   its two backward products, elementwise map/zip, axpy) that the `Tensor`
//!   methods and the backward sweep are thin wrappers over.
//! * [`Workspace`] — a recycling buffer pool feeding the kernels' scratch
//!   needs, with a thread-local instance behind the allocating API.
//! * [`parallel`] — scoped-thread helpers (`std::thread::scope` only; the
//!   `NAZAR_NUM_THREADS` environment variable caps the worker count,
//!   defaulting to the machine's available parallelism).
//!
//! # Example
//!
//! ```
//! use nazar_tensor::{Tape, Tensor};
//!
//! let tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap());
//! let y = x.relu().sum_all();
//! let grads = y.backward();
//! assert_eq!(grads.get(&x).unwrap().data(), &[1.0, 1.0, 1.0]);
//! ```

// `unsafe` is denied crate-wide; the only exemption is the `simd` module,
// which needs `std::arch` intrinsics behind runtime feature detection and
// carries a local `#[allow(unsafe_code)]` plus a safety contract per kernel.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod autograd;
mod error;
pub mod kernels;
mod ops;
pub mod parallel;
mod shape;
#[allow(unsafe_code)]
pub mod simd;
mod tensor;
mod workspace;

pub use autograd::{Gradients, Tape, TapePool, Var};
pub use error::{Result, TensorError};
pub use kernels::log_sum_exp;
pub use shape::Shape;
pub use simd::SimdTier;
pub use tensor::Tensor;
pub use workspace::{pooled_bytes_total, Workspace};
