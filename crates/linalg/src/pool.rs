//! A recycling pool of matrix buffers keyed by element count.
//!
//! Training a TSG method re-runs the same computation graph every
//! minibatch, so the set of buffer sizes it needs is fixed after the
//! first step. [`MatrixPool`] keeps the `Vec<f64>` storage of retired
//! matrices and hands it back to later requests of the same length:
//! after a warm-up pass, `take_*` never touches the system allocator.
//!
//! The pool stores raw buffers, not shapes — a retired `(4, 8)` matrix
//! can serve a later `(8, 4)` or `(32, 1)` request, which is what makes
//! one pool cover forward values, gradients, and backward temporaries
//! alike.

use crate::Matrix;
use std::collections::HashMap;

/// A size-keyed free list of matrix buffers.
#[derive(Default)]
pub struct MatrixPool {
    free: HashMap<usize, Vec<Vec<f64>>>,
    /// Buffers handed out since construction (diagnostics).
    takes: u64,
    /// Takes that found no pooled buffer and had to allocate.
    misses: u64,
}

impl MatrixPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A `rows x cols` matrix whose contents are unspecified (recycled
    /// values or zeros). Callers must overwrite every element.
    pub fn take_uninit(&mut self, rows: usize, cols: usize) -> Matrix {
        let n = rows * cols;
        self.takes += 1;
        let data = match self.free.get_mut(&n).and_then(Vec::pop) {
            Some(buf) => buf,
            None => {
                self.misses += 1;
                vec![0.0; n]
            }
        };
        Matrix::from_vec(rows, cols, data).expect("pool buffers are length-keyed")
    }

    /// A `rows x cols` matrix of zeros, recycled when possible.
    pub fn take_zeroed(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut m = self.take_uninit(rows, cols);
        m.as_mut_slice().fill(0.0);
        m
    }

    /// A recycled copy of `src` (same shape, same contents).
    pub fn take_copy(&mut self, src: &Matrix) -> Matrix {
        let mut m = self.take_uninit(src.rows(), src.cols());
        m.as_mut_slice().copy_from_slice(src.as_slice());
        m
    }

    /// Retires a matrix, keeping its buffer for a later `take_*`.
    pub fn put(&mut self, m: Matrix) {
        let data = m.into_vec();
        if !data.is_empty() {
            self.free.entry(data.len()).or_default().push(data);
        }
    }

    /// Number of `take_*` calls that had to allocate fresh storage.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of `take_*` calls served so far.
    pub fn takes(&self) -> u64 {
        self.takes
    }

    /// Number of buffers currently parked in the pool.
    pub fn parked(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_by_length_across_shapes() {
        let mut pool = MatrixPool::new();
        let a = pool.take_zeroed(4, 8);
        pool.put(a);
        assert_eq!(pool.parked(), 1);
        // Same element count, different shape: reuses the buffer.
        let b = pool.take_uninit(8, 4);
        assert_eq!(b.shape(), (8, 4));
        assert_eq!(pool.misses(), 1, "second take must hit the pool");
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn take_zeroed_clears_recycled_contents() {
        let mut pool = MatrixPool::new();
        let mut a = pool.take_zeroed(2, 2);
        a.as_mut_slice().fill(7.0);
        pool.put(a);
        let b = pool.take_zeroed(2, 2);
        assert_eq!(b.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn take_copy_matches_source() {
        let mut pool = MatrixPool::new();
        let src = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let c = pool.take_copy(&src);
        assert_eq!(c, src);
    }

    #[test]
    fn empty_matrices_are_not_pooled() {
        let mut pool = MatrixPool::new();
        pool.put(Matrix::zeros(0, 3));
        assert_eq!(pool.parked(), 0);
    }
}
