#![warn(missing_docs)]

//! `tsgb-methods`: the ten TSG methods benchmarked by the paper
//! (A1–A10, §3.2), reimplemented from scratch at CPU scale.
//!
//! Every method implements [`TsgMethod`]: fit on a `(R, l, N)` tensor
//! of windows normalized to `[0, 1]`, then generate new windows of the
//! same shape. Architectures and loss structures follow the original
//! papers; capacities (hidden sizes, epochs) are scaled down so the
//! whole benchmark grid trains on a laptop CPU — see
//! [`common::TrainConfig`] for both the fast profile used in tests and
//! the paper-scale profile documented from §5.
//!
//! | Id  | Module | Family |
//! |-----|--------|--------|
//! | A1  | [`rgan`] | GAN (GRU generator/discriminator) |
//! | A2  | [`timegan`] | GAN (embedder/recovery/supervisor) |
//! | A3  | [`rtsgan`] | GAN (autoencoder + WGAN on latents) |
//! | A4  | [`coscigan`] | GAN (per-channel + central discriminator) |
//! | A5  | [`aecgan`] | GAN (autoregressive + error correction) |
//! | A6  | [`timevae`] | VAE (trend/seasonality/residual decoder) |
//! | A7  | [`timevqvae`] | VAE (STFT bands + vector quantization) |
//! | A8  | [`fourierflow`] | Flow (spectral affine coupling) |
//! | A9  | [`gtgan`] | ODE + GAN (GRU-ODE, fixed-step solver) |
//! | A10 | [`ls4`] | SSM + VAE (deep latent state space) |

pub mod aecgan;
pub mod common;
pub mod coscigan;
pub mod cotgan;
pub mod crnngan;
pub mod fourierflow;
pub mod gtgan;
pub mod ls4;
pub mod persist;
pub mod rgan;
pub mod rtsgan;
pub mod sigwgan;
pub mod taxonomy;
pub mod timegan;
pub mod timevae;
pub mod timevqvae;
pub mod tsgm;

pub use common::{
    Condition, ConditionalSample, FitDims, GenSpec, MethodId, TrainConfig, TrainReport, TsgMethod,
    WindowStream,
};
pub use persist::{load_method, PersistError, SnapshotHeader};
