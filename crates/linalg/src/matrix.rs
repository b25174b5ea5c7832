//! Row-major dense `f64` matrices.
//!
//! Shape mismatches are programming errors in this codebase, so the
//! arithmetic kernels assert on them (with descriptive messages) rather
//! than returning `Result`s; the construction boundary
//! ([`Matrix::from_vec`]) is checked and returns an error.
//!
//! The three products pick their kernel per call ([`crate::gemm`]): the
//! AVX-512 register tile, over packed panels at and above
//! [`PAR_WORK_THRESHOLD`] (bar a single row panel that reads `rhs` in
//! place) and on the operands in place otherwise, or the
//! row-band kernels here on a CPU without AVX-512F (and whenever
//! [`crate::gemm::with_gemm_mode`] forces them). The elementwise maps
//! [`Matrix::map_inplace`], [`Matrix::map_into`] and
//! [`Matrix::zip_map_into`], and the slice loops of [`elementwise`]
//! behind them, run their loop through a copy compiled for AVX-512F
//! when the CPU has it. Rust never contracts floating-point
//! operations, so a wider compile of the same closure keeps every
//! element's IEEE bits, and every kernel choice gives the same result.

use crate::gemm::Kernel;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub};

/// Error returned by checked matrix constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// What the caller asked for, e.g. `(rows, cols)`.
    pub expected: (usize, usize),
    /// The length of the buffer actually supplied.
    pub got_len: usize,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "buffer of length {} cannot form a {}x{} matrix",
            self.got_len, self.expected.0, self.expected.1
        )
    }
}

impl std::error::Error for ShapeError {}

/// A dense row-major matrix of `f64`.
///
/// The element at row `r`, column `c` lives at `data[r * cols + c]`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// The `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major buffer; errors if the buffer
    /// length does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError {
                expected: (rows, cols),
                got_len: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// A `1 x n` row vector.
    pub fn row_vector(values: &[f64]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// An `n x 1` column vector.
    pub fn col_vector(values: &[f64]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(
            c < self.cols,
            "column {c} out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Iterates over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a preallocated (e.g. pool-recycled) buffer,
    /// overwriting every element.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose_into shape mismatch"
        );
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
    }

    /// Matrix product `self * rhs`.
    ///
    /// Runs the kernel [`crate::gemm`] picks for the shape (see the
    /// module docs; [`crate::gemm::with_gemm_mode`] can force the band
    /// kernel). Products above [`PAR_WORK_THRESHOLD`] use row-band
    /// parallel dispatch, and every kernel accumulates each output
    /// element as the same strict `k`-ascending left fold, so the
    /// result is bit-identical across kernels and thread counts and
    /// agrees exactly with [`Matrix::t_matmul`] / [`Matrix::matmul_t`]
    /// on transposed operands.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_acc_into(rhs, &mut out);
        out
    }

    /// `out += self * rhs`, with no temporaries. [`Matrix::matmul`] is
    /// exactly this on a zeroed output, so accumulating into zeros
    /// reproduces its bits.
    pub fn matmul_acc_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, n) = (self.rows, rhs.cols);
        assert_eq!(out.shape(), (m, n), "matmul_acc_into output shape");
        match crate::gemm::kernel_for(m, n, self.cols, true) {
            Kernel::Packed => crate::gemm::matmul_packed(self, rhs, out),
            Kernel::Tile => crate::gemm::matmul_tile(self, rhs, out),
            Kernel::Band => dispatch_row_bands(m, n, self.cols, out.as_mut_slice(), |r0, band| {
                matmul_band(self, rhs, r0, band, n)
            }),
        }
    }

    /// `self^T * rhs` without materializing the transpose.
    ///
    /// Bit-identical to `self.transpose().matmul(rhs)` (same
    /// per-element accumulation order), with the same kernel choice
    /// and row-band parallel dispatch.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.t_matmul_acc_into(rhs, &mut out);
        out
    }

    /// `out += self^T * rhs` with no temporaries.
    pub fn t_matmul_acc_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, n) = (self.cols, rhs.cols);
        assert_eq!(out.shape(), (m, n), "t_matmul_acc_into output shape");
        match crate::gemm::kernel_for(m, n, self.rows, true) {
            Kernel::Packed => crate::gemm::t_matmul_packed(self, rhs, out),
            Kernel::Tile => crate::gemm::t_matmul_tile(self, rhs, out),
            Kernel::Band => dispatch_row_bands(m, n, self.rows, out.as_mut_slice(), |r0, band| {
                t_matmul_band(self, rhs, r0, band, n)
            }),
        }
    }

    /// `self * rhs^T` without materializing the transpose.
    ///
    /// Bit-identical to `self.matmul(&rhs.transpose())` (same
    /// per-element accumulation order), with the same kernel choice
    /// and row-band parallel dispatch.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_t_acc_into(rhs, &mut out);
        out
    }

    /// `out += self * rhs^T` with no temporaries.
    pub fn matmul_t_acc_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, n) = (self.rows, rhs.rows);
        assert_eq!(out.shape(), (m, n), "matmul_t_acc_into output shape");
        match crate::gemm::kernel_for(m, n, self.cols, false) {
            Kernel::Packed => crate::gemm::matmul_t_packed(self, rhs, out),
            // One output column is a matrix-vector product: the band
            // kernel's dot products beat a tile that fills one lane.
            Kernel::Tile if n > 1 => crate::gemm::matmul_t_tile(self, rhs, out),
            Kernel::Tile | Kernel::Band => {
                dispatch_row_bands(m, n, self.cols, out.as_mut_slice(), |r0, band| {
                    matmul_t_band(self, rhs, r0, band, n)
                })
            }
        }
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place elementwise map (compiled for AVX-512F where the CPU
    /// runs it; see the module docs).
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        elementwise::map_inplace(&mut self.data, f);
    }

    /// Elementwise map into an existing equal-shape output buffer,
    /// overwriting its contents (no allocation; compiled for AVX-512F
    /// where the CPU runs it).
    pub fn map_into(&self, f: impl Fn(f64) -> f64, out: &mut Matrix) {
        self.assert_same_shape(out, "map_into");
        elementwise::map_into(&self.data, f, &mut out.data);
    }

    /// Elementwise combination into an existing equal-shape output
    /// buffer, overwriting its contents (no allocation; compiled for
    /// AVX-512F where the CPU runs it).
    pub fn zip_map_into(&self, rhs: &Matrix, f: impl Fn(f64, f64) -> f64, out: &mut Matrix) {
        self.assert_same_shape(rhs, "zip_map_into");
        self.assert_same_shape(out, "zip_map_into (output)");
        elementwise::zip_map_into(&self.data, &rhs.data, f, &mut out.data);
    }

    /// `self += rhs` elementwise (no allocation).
    pub fn add_assign(&mut self, rhs: &Matrix) {
        self.assert_same_shape(rhs, "add_assign");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// `self -= rhs` elementwise (no allocation).
    pub fn sub_assign(&mut self, rhs: &Matrix) {
        self.assert_same_shape(rhs, "sub_assign");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }

    /// `self *= rhs` elementwise — the in-place Hadamard product.
    pub fn mul_assign_elem(&mut self, rhs: &Matrix) {
        self.assert_same_shape(rhs, "mul_assign_elem");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a *= b;
        }
    }

    /// Overwrites `self` with the contents of an equal-shape `src`.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.assert_same_shape(src, "copy_from");
        self.data.copy_from_slice(&src.data);
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Elementwise combination of two equal-shape matrices.
    pub fn zip_map(&self, rhs: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        self.assert_same_shape(rhs, "zip_map");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a * b)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// `self += alpha * rhs` (BLAS axpy).
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) {
        self.assert_same_shape(rhs, "axpy");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Dot product treating both matrices as flat vectors.
    pub fn flat_dot(&self, rhs: &Matrix) -> f64 {
        self.assert_same_shape(rhs, "flat_dot");
        self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).sum()
    }

    /// Column-wise means, returned as a `1 x cols` row vector.
    pub fn col_means(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
        }
        for row in self.rows_iter() {
            for (o, &v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
        let inv = 1.0 / self.rows as f64;
        out.map_inplace(|x| x * inv);
        out
    }

    /// Row-wise sums, returned as an `rows x 1` column vector.
    pub fn row_sums(&self) -> Matrix {
        let data = self.rows_iter().map(|r| r.iter().sum()).collect();
        Matrix {
            rows: self.rows,
            cols: 1,
            data,
        }
    }

    /// Adds `row` (a `1 x cols` matrix) to every row of `self`.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_row_broadcast_assign(row);
        out
    }

    /// Adds `row` (a `1 x cols` matrix) to every row of `self` in
    /// place (no allocation).
    pub fn add_row_broadcast_assign(&mut self, row: &Matrix) {
        assert_eq!(row.rows, 1, "broadcast operand must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(&row.data) {
                *o += b;
            }
        }
    }

    /// Accumulates the column sums of `self` into `out` (a `1 x cols`
    /// row vector): `out[c] += sum_r self[r][c]`. This is the bias
    /// gradient of a row-broadcast add.
    pub fn col_sums_acc_into(&self, out: &mut Matrix) {
        assert_eq!(out.rows, 1, "col_sums_acc_into output must be a row");
        assert_eq!(out.cols, self.cols, "col_sums_acc_into width mismatch");
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Vertical concatenation: stacks `other` below `self`.
    pub fn vcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vcat column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Horizontal concatenation: places `other` to the right of `self`.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Copies rows `[start, end)` into a new matrix.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "row slice out of bounds");
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Copies columns `[start, end)` into a new matrix.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.cols,
            "column slice out of bounds"
        );
        let mut out = Matrix::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Gathers the given rows into a new matrix.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(src < self.rows, "select_rows index {src} out of bounds");
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Maximum element (NaN-ignoring); `-inf` for an empty matrix.
    pub fn max(&self) -> f64 {
        self.data
            .iter()
            .copied()
            .filter(|x| !x.is_nan())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum element (NaN-ignoring); `+inf` for an empty matrix.
    pub fn min(&self) -> f64 {
        self.data
            .iter()
            .copied()
            .filter(|x| !x.is_nan())
            .fold(f64::INFINITY, f64::min)
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    fn assert_same_shape(&self, rhs: &Matrix, op: &str) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "{op} shape mismatch: {}x{} vs {}x{}",
            self.rows,
            self.cols,
            rhs.rows,
            rhs.cols
        );
    }
}

/// Elementwise loops over row-major slices, the kernels behind
/// [`Matrix::map_inplace`], [`Matrix::map_into`] and
/// [`Matrix::zip_map_into`]. Callers that work on a block of a buffer
/// (a fused GRU step's gate blocks, say) call the public ones on
/// slices directly. Each
/// loop has a twin compiled for AVX-512F, which runs when the CPU has
/// it: the same loop and closure, so each element gets the same IEEE
/// operations in the same order; only the vector width differs.
///
/// Every function asserts that its slices have equal lengths (a row
/// operand's length must divide the others').
pub mod elementwise {
    /// Runs `loops::$name(args)` through its AVX-512F twin when the CPU
    /// has one.
    macro_rules! dispatch {
        ($name:ident($($arg:expr),*)) => {{
            #[cfg(target_arch = "x86_64")]
            if crate::gemm::cpu_has_avx512() {
                // SAFETY: the CPU runs AVX-512F.
                return unsafe { avx512::$name($($arg),*) };
            }
            loops::$name($($arg),*)
        }};
    }

    /// `x = f(x)` for every element.
    pub(super) fn map_inplace(data: &mut [f64], f: impl Fn(f64) -> f64) {
        dispatch!(map_inplace(data, &f))
    }

    /// `out[i] = f(src[i])`.
    pub(super) fn map_into(src: &[f64], f: impl Fn(f64) -> f64, out: &mut [f64]) {
        assert_eq!(src.len(), out.len(), "map_into length mismatch");
        dispatch!(map_into(src, &f, out))
    }

    /// `out[i] = f(a[i], b[i])`.
    pub fn zip_map_into(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64, out: &mut [f64]) {
        assert!(
            a.len() == out.len() && b.len() == out.len(),
            "zip_map_into length mismatch"
        );
        dispatch!(zip_map_into(a, b, &f, out))
    }

    /// `out[i] = f(a[i], b[i], c[i])`.
    pub fn zip3_map_into(
        a: &[f64],
        b: &[f64],
        c: &[f64],
        f: impl Fn(f64, f64, f64) -> f64,
        out: &mut [f64],
    ) {
        assert!(
            a.len() == out.len() && b.len() == out.len() && c.len() == out.len(),
            "zip3_map_into length mismatch"
        );
        dispatch!(zip3_map_into(a, b, c, &f, out))
    }

    /// `dst[i] = f(dst[i], a[i], b[i])`: an update that reads the old
    /// value, as an accumulation into a gradient does.
    pub fn zip_update(dst: &mut [f64], a: &[f64], b: &[f64], f: impl Fn(f64, f64, f64) -> f64) {
        assert!(
            a.len() == dst.len() && b.len() == dst.len(),
            "zip_update length mismatch"
        );
        dispatch!(zip_update(dst, a, b, &f))
    }

    /// `out[i] = f(a[i], b[i], row[i % row.len()])` over row-major
    /// buffers whose rows are `row.len()` wide: `row` is broadcast to
    /// every row, as a bias is.
    pub fn zip_row_map_into(
        a: &[f64],
        b: &[f64],
        row: &[f64],
        f: impl Fn(f64, f64, f64) -> f64,
        out: &mut [f64],
    ) {
        assert!(
            a.len() == out.len() && b.len() == out.len() && out.len().is_multiple_of(row.len()),
            "zip_row_map_into length mismatch"
        );
        if out.is_empty() {
            return;
        }
        dispatch!(zip_row_map_into(a, b, row, &f, out))
    }

    mod loops {
        #[inline(always)]
        pub(super) fn map_inplace(data: &mut [f64], f: &impl Fn(f64) -> f64) {
            for x in data {
                *x = f(*x);
            }
        }

        #[inline(always)]
        pub(super) fn map_into(src: &[f64], f: &impl Fn(f64) -> f64, out: &mut [f64]) {
            for (o, &x) in out.iter_mut().zip(src) {
                *o = f(x);
            }
        }

        #[inline(always)]
        pub(super) fn zip_map_into(
            a: &[f64],
            b: &[f64],
            f: &impl Fn(f64, f64) -> f64,
            out: &mut [f64],
        ) {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        }

        #[inline(always)]
        pub(super) fn zip3_map_into(
            a: &[f64],
            b: &[f64],
            c: &[f64],
            f: &impl Fn(f64, f64, f64) -> f64,
            out: &mut [f64],
        ) {
            for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
                *o = f(x, y, z);
            }
        }

        #[inline(always)]
        pub(super) fn zip_update(
            dst: &mut [f64],
            a: &[f64],
            b: &[f64],
            f: &impl Fn(f64, f64, f64) -> f64,
        ) {
            for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                *d = f(*d, x, y);
            }
        }

        #[inline(always)]
        pub(super) fn zip_row_map_into(
            a: &[f64],
            b: &[f64],
            row: &[f64],
            f: &impl Fn(f64, f64, f64) -> f64,
            out: &mut [f64],
        ) {
            let n = row.len();
            for ((o, a), b) in out
                .chunks_exact_mut(n)
                .zip(a.chunks_exact(n))
                .zip(b.chunks_exact(n))
            {
                zip3_map_into(a, b, row, f, o);
            }
        }
    }

    /// The loops above compiled for AVX-512F.
    ///
    /// # Safety
    ///
    /// Each function here needs a CPU that runs AVX-512F.
    #[cfg(target_arch = "x86_64")]
    mod avx512 {
        use super::loops;

        #[target_feature(enable = "avx512f")]
        pub(super) unsafe fn map_inplace(data: &mut [f64], f: &impl Fn(f64) -> f64) {
            loops::map_inplace(data, f)
        }

        #[target_feature(enable = "avx512f")]
        pub(super) unsafe fn map_into(src: &[f64], f: &impl Fn(f64) -> f64, out: &mut [f64]) {
            loops::map_into(src, f, out)
        }

        #[target_feature(enable = "avx512f")]
        pub(super) unsafe fn zip_map_into(
            a: &[f64],
            b: &[f64],
            f: &impl Fn(f64, f64) -> f64,
            out: &mut [f64],
        ) {
            loops::zip_map_into(a, b, f, out)
        }

        #[target_feature(enable = "avx512f")]
        pub(super) unsafe fn zip3_map_into(
            a: &[f64],
            b: &[f64],
            c: &[f64],
            f: &impl Fn(f64, f64, f64) -> f64,
            out: &mut [f64],
        ) {
            loops::zip3_map_into(a, b, c, f, out)
        }

        #[target_feature(enable = "avx512f")]
        pub(super) unsafe fn zip_update(
            dst: &mut [f64],
            a: &[f64],
            b: &[f64],
            f: &impl Fn(f64, f64, f64) -> f64,
        ) {
            loops::zip_update(dst, a, b, f)
        }

        #[target_feature(enable = "avx512f")]
        pub(super) unsafe fn zip_row_map_into(
            a: &[f64],
            b: &[f64],
            row: &[f64],
            f: &impl Fn(f64, f64, f64) -> f64,
            out: &mut [f64],
        ) {
            loops::zip_row_map_into(a, b, row, f, out)
        }
    }
}

/// Column-block width of the matmul kernels: the output segment plus
/// four operand-row segments stay within L1 (5 x 128 doubles = 5 KB).
const MM_COL_BLOCK: usize = 128;

/// `k`-direction unroll factor. Unrolled terms are still added one at
/// a time into the same accumulator, so unrolling never changes the
/// floating-point result — it only amortizes output loads/stores.
const MM_K_UNROLL: usize = 4;

/// Multiply work (`m * n * k` fused multiply-adds) above which the
/// output rows are dispatched to the `tsgb-par` pool in contiguous
/// bands. Below it, thread spawn overhead dominates: a 64x64x64
/// product (2^18 madds, ~0.2 ms) ran at 0.77x serial when dispatched,
/// so the threshold sits above it — sub-threshold matmuls never pay
/// pool overhead. 128x128x128 (2^21) and larger still dispatch.
pub const PAR_WORK_THRESHOLD: usize = 1 << 19;

/// Runs `kernel(first_row, band)` over contiguous row bands of `out`
/// (an `m x n` row-major buffer), in parallel when the work is large
/// enough. Each output row is produced by exactly one invocation with
/// code independent of the banding, so the result is bit-identical for
/// every thread count (including the serial single-band path).
pub(crate) fn dispatch_row_bands(
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f64],
    kernel: impl Fn(usize, &mut [f64]) + Sync,
) {
    if m == 0 || n == 0 {
        return;
    }
    let threads = tsgb_par::max_threads();
    let work = m * n * k.max(1);
    if threads > 1 && m > 1 && work >= PAR_WORK_THRESHOLD {
        let band_rows = m.div_ceil(threads);
        tsgb_par::parallel_chunks_mut(out, band_rows * n, |band_idx, band| {
            kernel(band_idx * band_rows, band)
        });
    } else {
        kernel(0, out);
    }
}

/// `band[i][j] += sum_k a[r0+i][k] * b[k][j]`, `k` ascending per
/// element. `jb`-blocking keeps the output segment hot; the k-unroll
/// adds four terms per pass through the same left-fold chain.
fn matmul_band(a: &Matrix, b: &Matrix, r0: usize, band: &mut [f64], n: usize) {
    let kk = a.cols();
    for (bi, orow) in band.chunks_exact_mut(n).enumerate() {
        let arow = a.row(r0 + bi);
        let mut jb = 0;
        while jb < n {
            let je = (jb + MM_COL_BLOCK).min(n);
            let mut k = 0;
            while k + MM_K_UNROLL <= kk {
                let (a0, a1, a2, a3) = (arow[k], arow[k + 1], arow[k + 2], arow[k + 3]);
                let b0 = &b.row(k)[jb..je];
                let b1 = &b.row(k + 1)[jb..je];
                let b2 = &b.row(k + 2)[jb..je];
                let b3 = &b.row(k + 3)[jb..je];
                for ((((o, &v0), &v1), &v2), &v3) in
                    orow[jb..je].iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    *o = (((*o + a0 * v0) + a1 * v1) + a2 * v2) + a3 * v3;
                }
                k += MM_K_UNROLL;
            }
            while k < kk {
                let ak = arow[k];
                for (o, &v) in orow[jb..je].iter_mut().zip(&b.row(k)[jb..je]) {
                    *o += ak * v;
                }
                k += 1;
            }
            jb = je;
        }
    }
}

/// `band[i][j] += sum_k a[k][r0+i] * b[k][j]` — the transpose-free
/// kernel behind [`Matrix::t_matmul`]. Same chain order as
/// [`matmul_band`] on the materialized transpose.
fn t_matmul_band(a: &Matrix, b: &Matrix, r0: usize, band: &mut [f64], n: usize) {
    let kr = a.rows();
    let rc = band.len() / n;
    let mut jb = 0;
    while jb < n {
        let je = (jb + MM_COL_BLOCK).min(n);
        let mut k = 0;
        while k + MM_K_UNROLL <= kr {
            let (ar0, ar1, ar2, ar3) = (a.row(k), a.row(k + 1), a.row(k + 2), a.row(k + 3));
            let b0 = &b.row(k)[jb..je];
            let b1 = &b.row(k + 1)[jb..je];
            let b2 = &b.row(k + 2)[jb..je];
            let b3 = &b.row(k + 3)[jb..je];
            for bi in 0..rc {
                let i = r0 + bi;
                let (a0, a1, a2, a3) = (ar0[i], ar1[i], ar2[i], ar3[i]);
                for ((((o, &v0), &v1), &v2), &v3) in band[bi * n + jb..bi * n + je]
                    .iter_mut()
                    .zip(b0)
                    .zip(b1)
                    .zip(b2)
                    .zip(b3)
                {
                    *o = (((*o + a0 * v0) + a1 * v1) + a2 * v2) + a3 * v3;
                }
            }
            k += MM_K_UNROLL;
        }
        while k < kr {
            let arow = a.row(k);
            let bseg = &b.row(k)[jb..je];
            for bi in 0..rc {
                let ak = arow[r0 + bi];
                for (o, &v) in band[bi * n + jb..bi * n + je].iter_mut().zip(bseg) {
                    *o += ak * v;
                }
            }
            k += 1;
        }
        jb = je;
    }
}

/// `band[i][j] += dot(a.row(r0+i), b.row(j))` — the transpose-free
/// kernel behind [`Matrix::matmul_t`]. Four output columns are
/// produced per pass, each seeded from the existing output value and
/// extended by a single `k`-ascending chain, so on a zeroed output the
/// result matches [`matmul_band`] on the materialized transpose, and
/// on a warm output the kernel accumulates in place.
fn matmul_t_band(a: &Matrix, b: &Matrix, r0: usize, band: &mut [f64], n: usize) {
    for (bi, orow) in band.chunks_exact_mut(n).enumerate() {
        let arow = a.row(r0 + bi);
        let mut j = 0;
        while j + MM_K_UNROLL <= n {
            let (b0, b1, b2, b3) = (b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3));
            let (mut s0, mut s1, mut s2, mut s3) = (orow[j], orow[j + 1], orow[j + 2], orow[j + 3]);
            for ((((&av, &v0), &v1), &v2), &v3) in arow.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
                s0 += av * v0;
                s1 += av * v1;
                s2 += av * v2;
                s3 += av * v3;
            }
            orow[j] = s0;
            orow[j + 1] = s1;
            orow[j + 2] = s2;
            orow[j + 3] = s3;
            j += MM_K_UNROLL;
        }
        while j < n {
            let mut acc = orow[j];
            for (&av, &bv) in arow.iter().zip(b.row(j)) {
                acc += av * bv;
            }
            orow[j] = acc;
            j += 1;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a + b)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a - b)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.map(|x| -x)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        Matrix::add_assign(self, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert_eq!(err.expected, (2, 2));
        assert_eq!(err.got_len, 3);
        assert!(err.to_string().contains("2x2"));
    }

    #[test]
    fn identity_matmul_is_identity() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let i = Matrix::eye(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_variants_agree() {
        let a = Matrix::from_fn(4, 3, |r, c| (r + 2 * c) as f64);
        let b = Matrix::from_fn(4, 5, |r, c| (2 * r + c) as f64);
        let direct = a.transpose().matmul(&b);
        assert_eq!(a.t_matmul(&b), direct);

        let c = Matrix::from_fn(5, 3, |r, c| (r * c) as f64 + 1.0);
        let direct2 = a.matmul(&c.transpose());
        assert_eq!(a.matmul_t(&c), direct2);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 7, |r, c| (r as f64).sin() + c as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn broadcast_and_reductions() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]).unwrap();
        let row = Matrix::row_vector(&[10., 20.]);
        let b = a.add_row_broadcast(&row);
        assert_eq!(b.as_slice(), &[11., 22., 13., 24.]);
        assert_eq!(a.col_means().as_slice(), &[2., 3.]);
        assert_eq!(a.row_sums().as_slice(), &[3., 7.]);
        assert!((a.mean() - 2.5).abs() < 1e-12);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), 1.0);
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        let b = Matrix::from_fn(1, 3, |_, c| 100.0 + c as f64);
        let v = a.vcat(&b);
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v.slice_rows(0, 2), a);
        assert_eq!(v.slice_rows(2, 3), b);

        let h = a.hcat(&a);
        assert_eq!(h.shape(), (2, 6));
        assert_eq!(h.slice_cols(0, 3), a);
        assert_eq!(h.slice_cols(3, 6), a);
    }

    #[test]
    fn select_rows_gathers() {
        let a = Matrix::from_fn(4, 2, |r, _| r as f64);
        let s = a.select_rows(&[3, 1]);
        assert_eq!(s.row(0), &[3., 3.]);
        assert_eq!(s.row(1), &[1., 1.]);
    }

    #[test]
    fn axpy_matches_operator() {
        let a = Matrix::from_fn(3, 3, |r, c| (r + c) as f64);
        let b = Matrix::from_fn(3, 3, |r, c| (r * c) as f64);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        let expected = &a + &b.scale(2.0);
        assert_eq!(c, expected);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn acc_into_kernels_accumulate_and_match_fresh() {
        let a = Matrix::from_fn(5, 4, |r, c| (r as f64 + 1.3) * (c as f64 - 0.7));
        let b = Matrix::from_fn(4, 6, |r, c| (r * c) as f64 * 0.25 - 1.0);
        // On a zeroed output the accumulate kernels ARE the fresh
        // products, bit for bit.
        let mut out = Matrix::zeros(5, 6);
        a.matmul_acc_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        let mut t_out = Matrix::zeros(4, 6);
        let c = Matrix::from_fn(5, 6, |r, c| (r + c) as f64 * 0.5);
        a.t_matmul_acc_into(&c, &mut t_out);
        assert_eq!(t_out, a.t_matmul(&c));
        let d = Matrix::from_fn(7, 4, |r, c| (r as f64) - (c as f64) * 0.3);
        let mut mt_out = Matrix::zeros(5, 7);
        a.matmul_t_acc_into(&d, &mut mt_out);
        assert_eq!(mt_out, a.matmul_t(&d));

        // On a warm output they accumulate (up to the rounding of the
        // term-by-term chain vs. summing two finished products).
        a.matmul_acc_into(&b, &mut out);
        let twice = &a.matmul(&b) + &a.matmul(&b);
        let err = (&out - &twice).frobenius_norm();
        assert!(err < 1e-9, "accumulation drifted: {err}");
        a.t_matmul_acc_into(&c, &mut t_out);
        let t_twice = &a.t_matmul(&c) + &a.t_matmul(&c);
        assert!((&t_out - &t_twice).frobenius_norm() < 1e-9);
        a.matmul_t_acc_into(&d, &mut mt_out);
        let mt_twice = &a.matmul_t(&d) + &a.matmul_t(&d);
        assert!((&mt_out - &mt_twice).frobenius_norm() < 1e-9);
    }

    #[test]
    fn inplace_elementwise_kernels_match_allocating() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64);
        let b = Matrix::from_fn(3, 4, |r, c| 0.5 * (r as f64) - c as f64);
        let mut x = a.clone();
        x.add_assign(&b);
        assert_eq!(x, &a + &b);
        let mut y = a.clone();
        y.sub_assign(&b);
        assert_eq!(y, &a - &b);
        let mut z = a.clone();
        z.mul_assign_elem(&b);
        assert_eq!(z, a.hadamard(&b));

        let mut m = Matrix::zeros(3, 4);
        a.map_into(|v| v * 2.0 + 1.0, &mut m);
        assert_eq!(m, a.map(|v| v * 2.0 + 1.0));
        a.zip_map_into(&b, |u, v| u.max(v), &mut m);
        assert_eq!(m, a.zip_map(&b, |u, v| u.max(v)));

        let mut cp = Matrix::zeros(3, 4);
        cp.copy_from(&a);
        assert_eq!(cp, a);
        cp.fill(2.5);
        assert_eq!(cp, Matrix::full(3, 4, 2.5));
    }

    #[test]
    fn broadcast_assign_and_col_sums_acc() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]).unwrap();
        let row = Matrix::row_vector(&[10., 20.]);
        let mut x = a.clone();
        x.add_row_broadcast_assign(&row);
        assert_eq!(x, a.add_row_broadcast(&row));

        let mut sums = Matrix::zeros(1, 2);
        a.col_sums_acc_into(&mut sums);
        assert_eq!(sums.as_slice(), &[4., 6.]);
        a.col_sums_acc_into(&mut sums);
        assert_eq!(sums.as_slice(), &[8., 12.]);
    }

    #[test]
    fn small_matmuls_stay_below_parallel_threshold() {
        // The satellite contract: a 64^3 product must never pay pool
        // dispatch overhead.
        const { assert!(64 * 64 * 64 < PAR_WORK_THRESHOLD) };
        const { assert!(128 * 128 * 128 >= PAR_WORK_THRESHOLD) };
    }

    #[test]
    fn finite_checks() {
        let mut a = Matrix::zeros(2, 2);
        assert!(a.all_finite());
        a[(0, 1)] = f64::NAN;
        assert!(!a.all_finite());
    }
}
