//! Elementwise-map bit identity.
//!
//! `map_into`, `map_inplace` and `zip_map_into` run their loop through
//! a twin compiled for AVX-512F on CPUs that have it. Every element
//! must still get the bits of a plain scalar call of the same closure:
//! on random inputs at several scales, and on the specials where the
//! `detmath` kernels clamp, saturate, pass NaN through or switch
//! branch. Lengths are not multiples of the 8-lane vector, so the loop
//! tails run too.

use std::hint::black_box;
use tsgb_linalg::detmath::{exp, sigmoid, tanh};
use tsgb_linalg::rng::{seeded, uniform_matrix};
use tsgb_linalg::Matrix;

/// Signed zeros, infinities, NaN, subnormals, the edges of `exp`'s
/// clamp at -708 and 709, and a few ulps either side of ±ln2/4, where
/// `tanh` switches from its single-division branch.
fn specials() -> Vec<f64> {
    let mut v = vec![
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 3.0,
        -f64::MIN_POSITIVE / 7.0,
        708.0,
        -708.0,
        709.0,
        -709.0,
        708.9,
        -708.5,
        709.5,
        -709.5,
        745.2,
        -745.2,
        1e300,
        -1e300,
    ];
    let q = std::f64::consts::LN_2 / 4.0;
    for d in -4i64..=4 {
        let x = f64::from_bits(q.to_bits().wrapping_add_signed(d));
        v.extend([x, -x]);
    }
    v
}

/// A `rows x cols` input: every third element a special, the rest
/// uniform draws at scales from 1e-3 to 800.
fn input(rows: usize, cols: usize, seed: u64) -> Matrix {
    let specials = specials();
    let mut rng = seeded(seed);
    let draws = uniform_matrix(rows, cols, -1.0, 1.0, &mut rng);
    let scales = [1e-3, 0.3, 1.0, 20.0, 800.0];
    let data = draws
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, &u)| {
            if i % 3 == 0 {
                specials[(i / 3 + seed as usize) % specials.len()]
            } else {
                u * scales[i % scales.len()]
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("rows x cols values")
}

fn assert_bits(got: &Matrix, want: &[f64], what: &str) {
    for (i, (g, w)) in got.as_slice().iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: element {i} is {g:e} ({:#x}), scalar call gives {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// `map_into` and `map_inplace` of `f` against a scalar call per
/// element. `f` is generic, not a function pointer, so it inlines into
/// the loops as the activation sites' closures do.
fn check_map(x: &Matrix, f: impl Fn(f64) -> f64, what: &str) {
    let want: Vec<f64> = x.as_slice().iter().map(|&v| f(black_box(v))).collect();
    let mut out = Matrix::zeros(x.rows(), x.cols());
    x.map_into(&f, &mut out);
    assert_bits(&out, &want, &format!("map_into {what}"));
    let mut inplace = x.clone();
    inplace.map_inplace(&f);
    assert_bits(&inplace, &want, &format!("map_inplace {what}"));
}

/// `zip_map_into` of `f` against a scalar call per element.
fn check_zip(g: &Matrix, y: &Matrix, f: impl Fn(f64, f64) -> f64, what: &str) {
    let want: Vec<f64> = g
        .as_slice()
        .iter()
        .zip(y.as_slice())
        .map(|(&gv, &yv)| f(black_box(gv), black_box(yv)))
        .collect();
    let mut out = Matrix::zeros(g.rows(), g.cols());
    g.zip_map_into(y, f, &mut out);
    assert_bits(&out, &want, &format!("zip_map_into {what}"));
}

#[test]
fn maps_equal_scalar_calls_bit_for_bit() {
    for (seed, (rows, cols)) in [(1, 7), (3, 5), (13, 1), (9, 29), (7, 143)]
        .into_iter()
        .enumerate()
    {
        let x = input(rows, cols, seed as u64);
        check_map(&x, sigmoid, &format!("sigmoid {rows}x{cols}"));
        check_map(&x, tanh, &format!("tanh {rows}x{cols}"));
        check_map(&x, exp, &format!("exp {rows}x{cols}"));
        // dz reads the activation output, so feed both kernels' outputs
        // as well as raw inputs.
        let g = input(rows, cols, 100 + seed as u64);
        for y in [
            x.map(sigmoid),
            x.map(tanh),
            input(rows, cols, 200 + seed as u64),
        ] {
            let what = format!("{rows}x{cols}");
            check_zip(
                &g,
                &y,
                |g, y| g * y * (1.0 - y),
                &format!("sigmoid dz {what}"),
            );
            check_zip(&g, &y, |g, y| g * (1.0 - y * y), &format!("tanh dz {what}"));
        }
    }
}
