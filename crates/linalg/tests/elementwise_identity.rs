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

/// `out[i] = f(a[i], b[i], c[i])` by scalar calls, where `c` may be a
/// row repeated over the rows.
fn scalar3(a: &[f64], b: &[f64], c: &[f64], f: impl Fn(f64, f64, f64) -> f64) -> Vec<f64> {
    let n = c.len();
    (0..a.len())
        .map(|i| f(black_box(a[i]), black_box(b[i]), black_box(c[i % n])))
        .collect()
}

/// The slice kernels a GRU step runs on its stacked gates, against a
/// scalar call per element: a gate's `act((xW + hU) + b)` with the
/// bias row broadcast (`zip_row_map_into`), the state mix and its
/// gradient (`zip3_map_into`), and the accumulation into h's slot
/// (`zip_update`). Each closure is generic, as at the call sites.
#[test]
fn slice_kernels_equal_scalar_calls_bit_for_bit() {
    use tsgb_linalg::matrix::elementwise::{zip3_map_into, zip_row_map_into, zip_update};
    for (seed, (rows, cols)) in [(1, 7), (3, 5), (13, 1), (9, 29), (7, 143)]
        .into_iter()
        .enumerate()
    {
        let seed = seed as u64;
        let [a, b, c] = [0, 1, 2].map(|k| input(rows, cols, 300 + 3 * seed + k));
        let row = input(1, cols, 400 + seed);
        let (a, b, c, row) = (a.as_slice(), b.as_slice(), c.as_slice(), row.as_slice());
        let what = format!("{rows}x{cols}");
        let mut out = Matrix::zeros(rows, cols);

        let gate = |p: f64, q: f64, r: f64| sigmoid((p + q) + r);
        zip_row_map_into(a, b, row, gate, out.as_mut_slice());
        let want = scalar3(a, b, row, gate);
        assert_bits(&out, &want, &format!("sigmoid gate {what}"));
        let gate = |p: f64, q: f64, r: f64| tanh((p + q) + r);
        zip_row_map_into(a, b, row, gate, out.as_mut_slice());
        let want = scalar3(a, b, row, gate);
        assert_bits(&out, &want, &format!("tanh gate {what}"));

        let mix = |h: f64, z: f64, t: f64| h + z * (t - h);
        zip3_map_into(a, b, c, mix, out.as_mut_slice());
        assert_bits(&out, &scalar3(a, b, c, mix), &format!("mix {what}"));
        let dmix = |g: f64, t: f64, h: f64| g * (t - h);
        zip3_map_into(a, b, c, dmix, out.as_mut_slice());
        assert_bits(
            &out,
            &scalar3(a, b, c, dmix),
            &format!("mix gradient {what}"),
        );

        let fold = |d: f64, g: f64, z: f64| (d + g) + -(g * z);
        let want = scalar3(c, a, b, fold);
        let mut dst = c.to_vec();
        zip_update(&mut dst, a, b, fold);
        let dst = Matrix::from_vec(rows, cols, dst).expect("rows x cols values");
        assert_bits(&dst, &want, &format!("zip_update {what}"));
    }
}
