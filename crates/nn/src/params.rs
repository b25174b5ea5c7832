//! Named parameter storage, decoupled from the per-minibatch tape.
//!
//! A [`Params`] store owns every trainable matrix of a model plus the
//! optimizer state attached to it (Adam moments live here so the tape
//! can be rebuilt freely). Each training step:
//!
//! 1. [`Params::bind`] injects every parameter into a fresh tape as a
//!    leaf, returning a [`Binding`];
//! 2. the model's forward pass reads parameter `VarId`s through the
//!    binding;
//! 3. after `backward`, [`Params::absorb_grads`] copies the tape's
//!    gradients back into the store where the optimizer finds them.
//!
//! A phase that reads a network but does not train it — a GAN's
//! discriminator step running the generator, say — binds that store
//! with [`Params::bind_frozen`] instead. Its parameters then enter the
//! tape as constants, so backward computes no gradient for them nor
//! for anything the tape computes only from them, and the frozen
//! store is never absorbed. The arithmetic of every gradient that is
//! computed stays bit-identical to a [`Params::bind`].

use crate::tape::{Tape, VarId};
use tsgb_linalg::Matrix;

/// Index of a parameter within its [`Params`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

pub(crate) struct Entry {
    pub name: String,
    pub value: Matrix,
    pub grad: Matrix,
    /// First Adam moment.
    pub m: Matrix,
    /// Second Adam moment.
    pub v: Matrix,
}

/// A store of named trainable parameters with attached optimizer state.
#[derive(Default)]
pub struct Params {
    pub(crate) entries: Vec<Entry>,
}

/// Maps [`ParamId`]s to the [`VarId`]s of one particular tape.
pub struct Binding {
    vars: Vec<VarId>,
}

impl Binding {
    /// The tape node holding parameter `id`.
    pub fn var(&self, id: ParamId) -> VarId {
        self.vars[id.0]
    }
}

impl Params {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with an initial value; `name` is used in
    /// diagnostics and gradient-check reports.
    pub fn register(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let (r, c) = value.shape();
        self.entries.push(Entry {
            name: name.into(),
            value,
            grad: Matrix::zeros(r, c),
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        });
        ParamId(self.entries.len() - 1)
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn scalar_count(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Parameter name (for diagnostics).
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0].value
    }

    /// Overwrites a parameter value (used by gradient checking and by
    /// weight clipping in WGAN critics).
    pub fn set_value(&mut self, id: ParamId, value: Matrix) {
        assert_eq!(
            self.entries[id.0].value.shape(),
            value.shape(),
            "set_value shape mismatch for {}",
            self.entries[id.0].name
        );
        self.entries[id.0].value = value;
    }

    /// Gradient accumulated by the last [`Params::absorb_grads`].
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0].grad
    }

    /// Injects every parameter into `tape` as a leaf (a pooled copy of
    /// the current value) and returns the binding table.
    pub fn bind(&self, tape: &mut Tape) -> Binding {
        let vars = self
            .entries
            .iter()
            .map(|e| tape.leaf_copy(&e.value))
            .collect();
        Binding { vars }
    }

    /// Like [`Params::bind`] for a network this step reads but does not
    /// train: every parameter enters through
    /// [`Tape::constant_copy`], so backward skips its gradients and
    /// every node computed only from it. The binding must not be
    /// absorbed (it would read zeros).
    pub fn bind_frozen(&self, tape: &mut Tape) -> Binding {
        let vars = self
            .entries
            .iter()
            .map(|e| tape.constant_copy(&e.value))
            .collect();
        Binding { vars }
    }

    /// Like [`Params::bind`] but reusing a previous step's [`Binding`]
    /// table, so a recycled tape's rebind allocates nothing at all.
    pub fn rebind(&self, tape: &mut Tape, binding: &mut Binding) {
        binding.vars.clear();
        binding
            .vars
            .extend(self.entries.iter().map(|e| tape.leaf_copy(&e.value)));
    }

    /// Copies the tape gradients of every bound parameter into the
    /// store, replacing previous gradients. Reuses the stored gradient
    /// buffers — no allocation.
    pub fn absorb_grads(&mut self, tape: &Tape, binding: &Binding) {
        for (entry, &var) in self.entries.iter_mut().zip(&binding.vars) {
            match tape.grad_ref(var) {
                Some(g) => entry.grad.copy_from(g),
                None => entry.grad.fill(0.0),
            }
        }
    }

    /// Adds the tape gradients into the store (for multi-loss steps
    /// that accumulate before one optimizer update).
    pub fn accumulate_grads(&mut self, tape: &Tape, binding: &Binding) {
        for (entry, &var) in self.entries.iter_mut().zip(&binding.vars) {
            if let Some(g) = tape.grad_ref(var) {
                entry.grad.add_assign(g);
            }
        }
    }

    /// Zeroes all stored gradients.
    pub fn zero_grads(&mut self) {
        for e in &mut self.entries {
            e.grad.fill(0.0);
        }
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.grad.as_slice().iter().map(|g| g * g).sum::<f64>())
            .sum::<f64>()
            .sqrt()
    }

    /// Scales all gradients so the global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f64) {
        let norm = self.grad_norm();
        // The norm is already computed for clipping, so observing it
        // costs nothing extra (and nothing while recording is off).
        tsgb_obs::observe("nn.grad_norm", norm);
        if norm > max_norm && norm > 0.0 {
            tsgb_obs::counter_add("nn.grad_clip.events", 1);
            let s = max_norm / norm;
            for e in &mut self.entries {
                e.grad.map_inplace(|g| g * s);
            }
        }
    }

    /// Clamps every parameter value into `[-c, c]` — the WGAN weight
    /// clipping used by the RTSGAN critic.
    pub fn clip_values(&mut self, c: f64) {
        for e in &mut self.entries {
            e.value.map_inplace(|v| v.clamp(-c, c));
        }
    }

    /// Iterates over `(ParamId, name)` pairs.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.entries.len()).map(ParamId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_absorb_roundtrip() {
        let mut p = Params::new();
        let w = p.register("w", Matrix::full(2, 2, 3.0));
        let mut t = Tape::new();
        let b = p.bind(&mut t);
        let wv = b.var(w);
        let sq = t.square(wv);
        let s = t.sum(sq);
        t.backward(s);
        p.absorb_grads(&t, &b);
        assert_eq!(p.grad(w), &Matrix::full(2, 2, 6.0)); // d sum(w^2) = 2w
    }

    #[test]
    fn accumulate_adds() {
        let mut p = Params::new();
        let w = p.register("w", Matrix::full(1, 1, 1.0));
        for _ in 0..2 {
            let mut t = Tape::new();
            let b = p.bind(&mut t);
            let wv = b.var(w);
            let s = t.sum(wv);
            t.backward(s);
            p.accumulate_grads(&t, &b);
        }
        assert_eq!(p.grad(w)[(0, 0)], 2.0);
        p.zero_grads();
        assert_eq!(p.grad(w)[(0, 0)], 0.0);
    }

    #[test]
    fn clipping_bounds_norm_and_values() {
        let mut p = Params::new();
        let w = p.register("w", Matrix::full(1, 2, 5.0));
        let mut t = Tape::new();
        let b = p.bind(&mut t);
        let wv = b.var(w);
        let sq = t.square(wv);
        let s = t.sum(sq);
        t.backward(s);
        p.absorb_grads(&t, &b);
        p.clip_grad_norm(1.0);
        assert!((p.grad_norm() - 1.0).abs() < 1e-12);
        p.clip_values(0.25);
        assert_eq!(p.value(w), &Matrix::full(1, 2, 0.25));
    }
}
