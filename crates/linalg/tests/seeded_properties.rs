//! Seeded-loop property tests on the matrix/tensor substrate and the
//! symmetric eigensolver — the algebraic laws every other crate
//! silently relies on — plus the parallel-determinism contract of the
//! blocked matmul kernels.

use tsgb_linalg::eigen::{row_covariance, sqrtm_psd, sym_eigen};
use tsgb_linalg::rng::{seeded, uniform_matrix};
use tsgb_linalg::{stats, Matrix, Tensor3};
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::Rng;

fn approx(x: f64, y: f64, tol: f64) {
    assert!(
        (x - y).abs() < tol * (1.0 + x.abs()),
        "{x} vs {y} (tol {tol})"
    );
}

#[test]
fn matmul_algebraic_laws_seeded() {
    let mut rng = seeded(0xA1);
    for _ in 0..12 {
        let a = uniform_matrix(3, 4, -100.0, 100.0, &mut rng);
        let b = uniform_matrix(4, 2, -100.0, 100.0, &mut rng);
        let c = uniform_matrix(2, 5, -100.0, 100.0, &mut rng);
        // associativity
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            approx(*x, *y, 1e-6);
        }
        // transpose reverses products
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        assert_eq!(lhs.shape(), rhs.shape());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            approx(*x, *y, 1e-9);
        }
        // distributivity
        let d = uniform_matrix(3, 3, -100.0, 100.0, &mut rng);
        let e = uniform_matrix(3, 3, -100.0, 100.0, &mut rng);
        let f = uniform_matrix(3, 3, -100.0, 100.0, &mut rng);
        let left = d.matmul(&(&e + &f));
        let right = &d.matmul(&e) + &d.matmul(&f);
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            approx(*x, *y, 1e-7);
        }
        // the Frobenius norm is a norm: non-negative, subadditive,
        // absolutely homogeneous
        let (nd, ne) = (d.frobenius_norm(), e.frobenius_norm());
        assert!(nd >= 0.0);
        assert!((&d + &e).frobenius_norm() <= nd + ne + 1e-9);
        assert!((d.scale(-2.0).frobenius_norm() - 2.0 * nd).abs() < 1e-9 * (1.0 + nd));
    }
}

#[test]
fn fused_transpose_kernels_agree_seeded() {
    let mut rng = seeded(0xA2);
    for _ in 0..12 {
        let a = uniform_matrix(4, 3, -100.0, 100.0, &mut rng);
        let b = uniform_matrix(4, 5, -100.0, 100.0, &mut rng);
        // the kernels share one per-element summation order, so the
        // fused variants match the explicit transposes exactly
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
        let c = uniform_matrix(5, 3, -100.0, 100.0, &mut rng);
        assert_eq!(a.matmul_t(&c), a.matmul(&c.transpose()));
        // slicing inverts concatenation
        let h = a.hcat(&b);
        assert_eq!(
            (h.slice_cols(0, 3), h.slice_cols(3, 8)),
            (a.clone(), b.clone())
        );
        let v = a.vcat(&c);
        assert_eq!((v.slice_rows(0, 4), v.slice_rows(4, 9)), (a.clone(), c));
        // both tensor flattenings keep the row-major value order
        let t = Tensor3::from_vec(2, 5, 2, b.as_slice().to_vec()).expect("sized");
        assert_eq!(t.flatten_samples().as_slice(), b.as_slice());
        assert_eq!(t.stack_steps().as_slice(), b.as_slice());
    }
}

#[test]
fn eigen_laws_seeded() {
    let mut rng = seeded(0xA3);
    for _ in 0..8 {
        let raw = uniform_matrix(4, 4, -3.0, 3.0, &mut rng);
        let a = &raw + &raw.transpose();
        let (w, v) = sym_eigen(&a);
        // trace equals eigenvalue sum
        let trace: f64 = (0..4).map(|i| a[(i, i)]).sum();
        approx(trace, w.iter().sum(), 1e-8);
        // eigenvectors orthonormal
        let vtv = v.t_matmul(&v);
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - expect).abs() < 1e-8);
            }
        }
        // reconstruction
        let mut d = Matrix::zeros(4, 4);
        for (i, &wi) in w.iter().enumerate() {
            d[(i, i)] = wi;
        }
        let rec = v.matmul(&d).matmul_t(&v);
        for (x, y) in a.as_slice().iter().zip(rec.as_slice()) {
            approx(*x, *y, 1e-7);
        }
        // PSD spectra and matrix square root
        let b = uniform_matrix(3, 3, -2.0, 2.0, &mut rng);
        let p = b.matmul_t(&b);
        let (wp, _) = sym_eigen(&p);
        assert!(wp.iter().all(|&x| x > -1e-8), "spectrum: {wp:?}");
        let s = sqrtm_psd(&p);
        let sq = s.matmul(&s);
        for (x, y) in p.as_slice().iter().zip(sq.as_slice()) {
            approx(*x, *y, 1e-6);
        }
    }
}

#[test]
fn covariance_is_psd_seeded() {
    let mut rng = seeded(0xA4);
    for _ in 0..8 {
        let x = uniform_matrix(10, 3, -5.0, 5.0, &mut rng);
        let c = row_covariance(&x);
        let (w, _) = sym_eigen(&c);
        assert!(w.iter().all(|&e| e > -1e-9), "covariance spectrum: {w:?}");
    }
}

#[test]
fn stats_invariants_seeded() {
    let mut rng = seeded(0xA5);
    for _ in 0..8 {
        let n = rng.gen_range(8usize..64);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-50.0..50.0)).collect();
        let shift = rng.gen_range(-100.0..100.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let negated: Vec<f64> = xs.iter().map(|x| -x).collect();
        let s = stats::skewness(&xs);
        assert!((stats::skewness(&shifted) - s).abs() < 1e-6 + 1e-6 * s.abs());
        assert!((stats::skewness(&negated) + s).abs() < 1e-6 + 1e-6 * s.abs());
        let k = stats::kurtosis(&xs);
        assert!((stats::kurtosis(&negated) - k).abs() < 1e-6 + 1e-6 * k.abs());
        let h = stats::Histogram::of(&xs, 16);
        let total: f64 = h.density.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(h.density.iter().all(|&d| d >= 0.0));
        let (q25, q50, q75) = (
            stats::quantile(&xs, 0.25),
            stats::quantile(&xs, 0.5),
            stats::quantile(&xs, 0.75),
        );
        assert!(q25 <= q50 && q50 <= q75);
    }
}

/// Matrices sized to push every product past the parallel dispatch
/// threshold (`m * n * k >= 2^17`).
fn big_pair(rng: &mut SmallRng) -> (Matrix, Matrix) {
    let a = uniform_matrix(96, 96, -2.0, 2.0, rng);
    let b = uniform_matrix(96, 96, -2.0, 2.0, rng);
    (a, b)
}

#[test]
fn parallel_matmul_bit_identical_to_serial() {
    let mut rng = seeded(0xB0);
    let (a, b) = big_pair(&mut rng);
    let serial = tsgb_par::with_threads(1, || (a.matmul(&b), a.t_matmul(&b), a.matmul_t(&b)));
    for threads in [2, tsgb_par::max_threads().max(2)] {
        let par =
            tsgb_par::with_threads(threads, || (a.matmul(&b), a.t_matmul(&b), a.matmul_t(&b)));
        // assert_eq! on Matrix compares every f64 exactly: the banded
        // parallel kernels must reproduce the serial results bit for bit
        assert_eq!(par.0, serial.0, "matmul, {threads} threads");
        assert_eq!(par.1, serial.1, "t_matmul, {threads} threads");
        assert_eq!(par.2, serial.2, "matmul_t, {threads} threads");
    }
}

#[test]
fn ragged_band_shapes_bit_identical() {
    // odd sizes exercise remainder handling in the k-unroll, the
    // column blocking, and the final short row band
    let mut rng = seeded(0xB1);
    let a = uniform_matrix(97, 53, -2.0, 2.0, &mut rng);
    let b = uniform_matrix(53, 71, -2.0, 2.0, &mut rng);
    let serial = tsgb_par::with_threads(1, || a.matmul(&b));
    for threads in [2, 3, 5, 8] {
        let par = tsgb_par::with_threads(threads, || a.matmul(&b));
        assert_eq!(par, serial, "{threads} threads");
    }
}

#[test]
fn matmul_propagates_non_finite_values() {
    // the kernels must not skip zero coefficients: 0 * NaN and 0 * inf
    // are NaN and must poison the affected outputs
    let mut a = Matrix::zeros(2, 2);
    a[(0, 0)] = 0.0;
    a[(0, 1)] = 1.0;
    let mut b = Matrix::zeros(2, 2);
    b[(0, 0)] = f64::NAN;
    b[(1, 0)] = 2.0;
    b[(1, 1)] = f64::INFINITY;
    let c = a.matmul(&b);
    assert!(c[(0, 0)].is_nan(), "0 * NaN must propagate");
    assert!(c[(0, 1)].is_infinite());
    assert!(c[(1, 0)].is_nan(), "row of zeros times NaN column");
}

#[test]
fn matmul_propagates_non_finite_values_in_parallel_blocked_kernels() {
    // Same 0 * NaN contract as above, but at a size whose work
    // (128^3 = 2^21) is above the parallel-dispatch threshold, so the
    // blocked multi-thread kernels are exercised. A kernel that skips
    // zero coefficients (or a block containing them) would turn NaN
    // into 0 here. NaN != NaN, so equality is checked on the bits.
    let n = 128;
    let mut rng = seeded(0xBAD0);
    let mut a = uniform_matrix(n, n, -1.0, 1.0, &mut rng);
    let mut b = uniform_matrix(n, n, -1.0, 1.0, &mut rng);
    // a zero row in `a`, and NaN / inf spread over several blocks of `b`
    for j in 0..n {
        a[(17, j)] = 0.0;
    }
    a[(40, 3)] = 0.0;
    b[(3, 40)] = f64::NAN;
    b[(5, 0)] = f64::NAN;
    b[(90, 127)] = f64::INFINITY;
    b[(127, 64)] = -f64::INFINITY;

    let bits = |m: &Matrix| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
    let run = || {
        (
            bits(&a.matmul(&b)),
            bits(&a.t_matmul(&b)),
            bits(&a.matmul_t(&b)),
        )
    };
    let serial = tsgb_par::with_threads(1, run);

    // NaN rows of `b` poison every output column they touch, including
    // through the zero row of `a`.
    let c = tsgb_par::with_threads(1, || a.matmul(&b));
    assert!(c[(17, 40)].is_nan(), "zero row times NaN must stay NaN");
    assert!(c[(17, 0)].is_nan());
    assert!(c[(40, 40)].is_nan(), "0 * NaN coefficient must stay NaN");

    for threads in [2, 4, 8] {
        let par = tsgb_par::with_threads(threads, run);
        assert_eq!(par.0, serial.0, "matmul bits differ at {threads} threads");
        assert_eq!(par.1, serial.1, "t_matmul bits differ at {threads} threads");
        assert_eq!(par.2, serial.2, "matmul_t bits differ at {threads} threads");
    }
}
