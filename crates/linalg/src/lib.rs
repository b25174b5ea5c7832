#![warn(missing_docs)]

//! `tsgb-linalg`: the dense linear-algebra and statistics substrate for
//! TSGBench.
//!
//! Everything in the benchmark — the neural-network tape in `tsgb-nn`,
//! the spectral transforms in `tsgb-signal`, the evaluation measures in
//! `tsgb-eval` — is built on two containers defined here:
//!
//! * [`Matrix`]: a row-major dense `f64` matrix,
//! * [`Tensor3`]: a contiguous `(samples, seq_len, features)` tensor,
//!   the canonical shape `(R, l, N)` of a preprocessed TSG dataset
//!   (paper §4.1).
//!
//! The crate also provides descriptive statistics ([`stats`]) used by
//! the feature-based measures (MDD/ACD/SD/KD, paper §4.2) and seeded
//! RNG helpers ([`rng`]) so that every stochastic component of the
//! benchmark is reproducible.

pub mod detmath;
pub mod eigen;
pub mod gemm;
pub mod matrix;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod tensor;

pub use matrix::Matrix;
pub use pool::MatrixPool;
pub use tensor::Tensor3;
