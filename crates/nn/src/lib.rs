#![warn(missing_docs)]

//! `tsgb-nn`: the deep-learning substrate for TSGBench.
//!
//! The paper's ten TSG methods are GANs, VAEs, flows, ODE networks and
//! state-space models, all trained with minibatch gradient descent. In
//! the original work that substrate is PyTorch/TensorFlow on a GPU;
//! here it is a small, from-scratch, reverse-mode automatic
//! differentiation engine over dense [`tsgb_linalg::Matrix`] values.
//!
//! Architecture:
//!
//! * [`tape`] — an arena-based gradient tape. Each forward op checks
//!   its inputs and pushes a node (value + operand ids);
//!   [`tape::Tape::backward`] runs the compiled plan that walks the
//!   arena in reverse to accumulate gradients. Training loops keep one
//!   tape per phase and start each minibatch with
//!   [`tape::Tape::begin_step`], which recycles every buffer and
//!   replays the captured step with its compiled plans (see [`plan`]).
//! * [`params`] — named parameter store decoupled from the tape, so
//!   optimizers ([`optim`]) can hold Adam moments across steps.
//! * [`resident`] — forward-only tapes for sampling, each holding a
//!   model's weights bound once, so a forward pass copies none of them.
//! * [`layers`] — Linear, GRU and LSTM cells and an MLP stack, written
//!   against the tape ops.
//! * [`loss`] — MSE, BCE-with-logits, Gaussian KL, and the adversarial
//!   losses used by the GAN methods.
//! * [`gradcheck`] — central finite-difference verification used by the
//!   test suite to prove every op and layer differentiates correctly.
//! * [`plan`] — each op's forward and backward arithmetic, written
//!   once, and the compiled backward plan every backward runs: a
//!   preresolved schedule compiled once per graph and loss, on the
//!   recorded step, and reused by every replay. A replaying tape
//!   matches each declared op against the captured step and computes
//!   it in place, with zero re-recording, bit-identical to recording
//!   the step again.

pub mod gradcheck;
pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod params;
pub mod persist;
pub mod plan;
pub mod resident;
pub mod tape;

pub use params::{ParamId, Params};
pub use resident::ResidentTapes;
pub use tape::{Tape, VarId};
