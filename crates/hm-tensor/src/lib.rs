//! Dense linear-algebra substrate for the HierMinimax reproduction.
//!
//! The paper's evaluation trains multinomial logistic regression and a small
//! fully-connected network with SGD. Those workloads only need dense
//! row-major matrices, matrix products (including transposed variants),
//! element-wise maps, numerically stable softmax / log-sum-exp, and a few
//! BLAS-1 style vector kernels. This crate provides exactly that, with
//! rayon-parallel row loops for the matrix products that dominate training
//! time and `f64` accumulation in reductions where it matters for accuracy.
//!
//! Design notes:
//! - Everything is `f32` storage (matching the PyTorch float32 runs in the
//!   paper) with `f64` accumulators in reductions; matrix products
//!   accumulate in `f32` with a fixed per-element order.
//! - Parallelism kicks in above [`ops::PAR_THRESHOLD`] scalar ops so tiny
//!   matrices (common in unit tests) don't pay rayon overhead.
//! - One forward kernel: every linear layer's `X · Wᵀ` runs
//!   [`ops::matmul_transb_into`], which multiplies through exact zeros;
//!   only the backward kernels skip them.
//! - `unsafe` only in `ops`' SSE2 lanes for the `A · Bᵀ` kernel (x86-64).

pub mod matrix;
pub mod ops;
pub mod robust;
pub mod vecops;
pub mod view;

pub use matrix::Matrix;
pub use robust::{Aggregator, AGGREGATORS};
pub use view::MatrixView;
