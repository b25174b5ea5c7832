//! Forward-only tapes that keep a model's weights bound between runs.
//!
//! A sampler that builds a fresh [`Tape`] per call copies every weight
//! of the model into it before the first op, and frees them all again
//! when the call returns. [`ResidentTapes`] binds the weights once per
//! tape instead: each tape on its free list starts with the model's
//! stores bound through [`Params::bind_frozen`], and
//! [`ResidentTapes::run`] records one forward pass after them, then
//! drops that pass's nodes with `Tape::truncate`. The arithmetic is
//! the same as binding afresh, bit for bit.
//!
//! A model keeps its `ResidentTapes` next to the stores it binds, in
//! the struct that `fit` and `load` rebuild, so a tape can never serve
//! weights the model no longer holds. The free list's lock is held only
//! to pop and to push a tape, so each concurrent run gets a tape of its
//! own, and a run that panics loses its tape without poisoning others.

use std::sync::{Mutex, PoisonError};

use crate::params::{Binding, Params};
use crate::tape::Tape;

/// A per-model free list of forward-only tapes, each holding the
/// model's stores bound once (see the module docs).
#[derive(Default)]
pub struct ResidentTapes {
    free: Mutex<Vec<Resident>>,
}

/// One tape with its bound stores.
struct Resident {
    tape: Tape,
    bindings: Vec<Binding>,
    /// Nodes that hold the bound stores; a run's nodes follow them.
    bound: usize,
}

impl ResidentTapes {
    /// An empty free list; its first run binds the first tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one forward pass `f` on a tape whose first nodes hold
    /// `stores` bound frozen, in order; `f` reads each store's
    /// [`Binding`] at the same index. Every node `f` records is dropped
    /// afterwards. `stores` must be the same stores, in the same order,
    /// at every call: they are read only when no bound tape is free.
    pub fn run<R>(&self, stores: &[&Params], f: impl FnOnce(&mut Tape, &[Binding]) -> R) -> R {
        let popped = self.lock().pop();
        let mut r = popped.unwrap_or_else(|| {
            let mut tape = Tape::new();
            let bindings = stores.iter().map(|p| p.bind_frozen(&mut tape)).collect();
            let bound = tape.len();
            Resident {
                tape,
                bindings,
                bound,
            }
        });
        debug_assert_eq!(
            r.bindings.len(),
            stores.len(),
            "stores changed between runs"
        );
        let out = f(&mut r.tape, &r.bindings);
        r.tape.truncate(r.bound);
        self.lock().push(r);
        out
    }

    /// The free list. A poisoned lock is taken over: pop and push
    /// cannot leave the list half-updated.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Resident>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::Matrix;

    fn store() -> Params {
        let mut p = Params::new();
        p.register("w", Matrix::from_fn(3, 2, |r, c| r as f64 - 0.5 * c as f64));
        p.register("b", Matrix::from_vec(1, 2, vec![0.25, -1.0]).unwrap());
        p
    }

    fn forward(t: &mut Tape, b: &Binding, p: &Params, x: &Matrix) -> Matrix {
        let ids: Vec<_> = p.ids().collect();
        let xv = t.constant_copy(x);
        let y = t.affine(xv, b.var(ids[0]), b.var(ids[1]));
        let y = t.tanh(y);
        t.value(y).clone()
    }

    #[test]
    fn runs_match_a_fresh_binding_and_keep_only_the_weights() {
        let p = store();
        let tapes = ResidentTapes::new();
        for rows in [1, 4, 2] {
            let x = Matrix::from_fn(rows, 3, |r, c| (r * 3 + c) as f64 * 0.1);
            let mut fresh = Tape::new();
            let fb = p.bind(&mut fresh);
            let want = forward(&mut fresh, &fb, &p, &x);
            let got = tapes.run(&[&p], |t, b| {
                assert_eq!(t.len(), 2, "a run starts after the bound weights");
                forward(t, &b[0], &p, &x)
            });
            assert_eq!(got, want);
        }
        assert_eq!(tapes.lock().len(), 1, "serial runs share one tape");
    }

    #[test]
    fn concurrent_runs_take_separate_tapes() {
        let p = store();
        let tapes = ResidentTapes::new();
        let inside = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| tapes.run(&[&p], |_, _| inside.wait()));
            }
        });
        assert_eq!(tapes.lock().len(), 2);
    }

    #[test]
    fn a_panicking_run_drops_its_tape_and_leaves_the_rest_usable() {
        let p = store();
        let tapes = ResidentTapes::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tapes.run::<()>(&[&p], |_, _| panic!("injected"))
        }));
        assert!(caught.is_err());
        assert_eq!(tapes.lock().len(), 0);
        let x = Matrix::full(1, 3, 0.5);
        let got = tapes.run(&[&p], |t, b| forward(t, &b[0], &p, &x));
        let mut fresh = Tape::new();
        let fb = p.bind(&mut fresh);
        assert_eq!(got, forward(&mut fresh, &fb, &p, &x));
    }
}
