//! Default-vs-band bit-identity properties.
//!
//! The default GEMM paths — the register tile over packed panels above
//! the parallel threshold, and on the operands in place below it —
//! promise *bit-identical* results to the band kernels: every output
//! element is the same strict k-ascending mul-then-add fold, only the
//! traversal order of independent elements changes. These tests drive
//! both through [`with_gemm_mode`] over ragged shapes (nothing aligned
//! to the MR/NR/KC tile sizes) on both sides of the threshold, all
//! three op variants, warm accumulation, and the 0·NaN edge, comparing
//! raw bits.

use tsgb_linalg::gemm::{with_gemm_mode, GemmMode, KC, MR, NR};
use tsgb_linalg::rng::{seeded, uniform_matrix};
use tsgb_linalg::Matrix;

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: element {i} differs: {x:e} vs {y:e}"
        );
    }
}

/// Ragged `(m, n, k)` shapes: deliberately *not* multiples of the
/// register tile (MR×NR) or the k-block (KC), plus exact-tile shapes
/// and single-row/column degenerates. The first group clears the
/// packed-path threshold (2^19); the rest run the in-place tile (on an
/// AVX-512F CPU), including the shapes the post-hoc GRU fits and the
/// grid's GANs multiply.
fn ragged_shapes() -> Vec<(usize, usize, usize)> {
    vec![
        // above threshold, nothing tile-aligned
        (97, 103, 61),
        (129, 65, 127),
        (100, 100, 100),
        (MR * 9 + 3, NR * 7 + 5, KC + 17),
        // k crosses multiple KC blocks
        (70, 70, 2 * KC + 9),
        // tall-skinny / short-wide
        (300, 9, 200),
        (9, 300, 200),
        // exact tile multiples
        (MR * 12, NR * 12, 128),
        // below the packed threshold
        (13, 7, 5),
        (1, 50, 50),
        (50, 1, 50),
        // post-hoc GRU (batch 32, 5 features, hidden 8) and grid shapes
        (32, 8, 5),
        (32, 8, 8),
        (32, 1, 8),
        (24, 16, 16),
        // row counts off the tile, n in {1, 7, 9, 17}, k = 1
        (31, 9, 8),
        (7, 17, 3),
        (15, 7, 12),
        (3, 1, 1),
        (21, 9, 1),
        (9, 17, 33),
        // above the threshold within one row panel, where `matmul`
        // and `t_matmul` run the in-place tile (the first is a served
        // TimeVAE decode of two windows)
        (2, 1024, 384),
        (3, 1024, 192),
        (8, 1024, 192),
        // empty operands, k past the in-place k-block
        (0, 7, 20),
        (6, 0, 20),
    ]
}

/// Shapes the three ops need: `matmul` is (m,k)x(k,n); `t_matmul`
/// computes aᵀ·b so a is (k,m); `matmul_t` computes a·bᵀ so b is
/// (n,k).
fn operands(m: usize, n: usize, k: usize, seed: u64) -> (Matrix, Matrix, Matrix, Matrix) {
    let mut rng = seeded(seed);
    let a = uniform_matrix(m, k, -2.0, 2.0, &mut rng);
    let b = uniform_matrix(k, n, -2.0, 2.0, &mut rng);
    let at = uniform_matrix(k, m, -2.0, 2.0, &mut rng);
    let bt = uniform_matrix(n, k, -2.0, 2.0, &mut rng);
    (a, b, at, bt)
}

#[test]
fn packed_matches_band_bitwise_over_ragged_shapes() {
    for (m, n, k) in ragged_shapes() {
        let (a, b, at, bt) = operands(m, n, k, (m * 31 + n * 7 + k) as u64);
        let packed = with_gemm_mode(GemmMode::Packed, || {
            (a.matmul(&b), at.t_matmul(&b), a.matmul_t(&bt))
        });
        let band = with_gemm_mode(GemmMode::Band, || {
            (a.matmul(&b), at.t_matmul(&b), a.matmul_t(&bt))
        });
        assert_bits_eq(&packed.0, &band.0, &format!("matmul {m}x{n}x{k}"));
        assert_bits_eq(&packed.1, &band.1, &format!("t_matmul {m}x{n}x{k}"));
        assert_bits_eq(&packed.2, &band.2, &format!("matmul_t {m}x{n}x{k}"));
    }
}

#[test]
fn packed_acc_into_matches_band_on_warm_output() {
    for (m, n, k) in ragged_shapes() {
        let (a, b, at, bt) = operands(m, n, k, 9000 + k as u64);
        let mut warm_rng = seeded(4242);
        let warm = uniform_matrix(m, n, -1.0, 1.0, &mut warm_rng);

        let run = |mode: GemmMode| {
            with_gemm_mode(mode, || {
                let mut c0 = warm.clone();
                a.matmul_acc_into(&b, &mut c0);
                let mut c1 = warm.clone();
                at.t_matmul_acc_into(&b, &mut c1);
                let mut c2 = warm.clone();
                a.matmul_t_acc_into(&bt, &mut c2);
                (c0, c1, c2)
            })
        };
        let packed = run(GemmMode::Packed);
        let band = run(GemmMode::Band);
        assert_bits_eq(&packed.0, &band.0, &format!("matmul_acc {m}x{n}x{k}"));
        assert_bits_eq(&packed.1, &band.1, &format!("t_matmul_acc {m}x{n}x{k}"));
        assert_bits_eq(&packed.2, &band.2, &format!("matmul_t_acc {m}x{n}x{k}"));
    }
}

#[test]
fn packed_parallel_matches_serial_bitwise() {
    let (m, n, k) = (150usize, 140, 130);
    let (a, b, _, _) = operands(m, n, k, 77);
    let serial = with_gemm_mode(GemmMode::Packed, || {
        tsgb_par::with_threads(1, || a.matmul(&b))
    });
    let parallel = with_gemm_mode(GemmMode::Packed, || {
        tsgb_par::with_threads(4, || a.matmul(&b))
    });
    assert_bits_eq(&serial, &parallel, "packed serial vs 4 threads");
}

/// The default paths must not skip zero terms: `0 * NaN` is NaN and
/// the whole k-fold containing it must come out NaN, exactly as the
/// band kernels produce. A kernel that branches on zero (or multiplies
/// padding into the answer) breaks this.
#[test]
fn packed_propagates_nan_through_zero_products() {
    for (m, n, k) in ragged_shapes() {
        // a has a zero column; b has NaN in the matching row, so every
        // C[i][j] fold contains exactly one 0*NaN term.
        let z = 37 % k;
        let a = Matrix::from_fn(m, k, |_, c| if c == z { 0.0 } else { 1.0 });
        let b = Matrix::from_fn(k, n, |r, _| if r == z { f64::NAN } else { 1.0 });
        let packed = with_gemm_mode(GemmMode::Packed, || a.matmul(&b));
        let band = with_gemm_mode(GemmMode::Band, || a.matmul(&b));
        assert!(
            packed.as_slice().iter().all(|v| v.is_nan()),
            "default path skipped a 0*NaN term at {m}x{n}x{k}"
        );
        assert!(band.as_slice().iter().all(|v| v.is_nan()));
        // NaN payload bits must match too
        assert_bits_eq(&packed, &band, &format!("0*NaN {m}x{n}x{k}"));
    }
}
