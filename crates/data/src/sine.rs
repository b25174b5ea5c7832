//! The §6.3 robustness-test generator.
//!
//! The paper samples 10 000 synthetic series with `N = 5` from
//! `x_{i,j} = sin(2 pi eta j + theta)` with `eta ~ U[0, 1]` and
//! `theta ~ U[-pi, pi]`, drawn independently per sample and channel,
//! at lengths `l = 24` and `l = 125`. Table 4 evaluates each measure
//! on (a) identical copies and (b) two independent draws.

use std::f64::consts::PI;
use tsgb_linalg::Tensor3;
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::Rng;

/// Generates `(r, l, n)` sine windows per the paper's formula.
pub fn sine_dataset(r: usize, l: usize, n: usize, rng: &mut SmallRng) -> Tensor3 {
    let mut out = Tensor3::zeros(r, l, n);
    for s in 0..r {
        for f in 0..n {
            let eta: f64 = rng.gen();
            let theta: f64 = rng.gen_range(-PI..PI);
            for j in 0..l {
                // j in [1, l] in the paper's indexing
                *out.at_mut(s, j, f) = (2.0 * PI * eta * (j + 1) as f64 + theta).sin();
            }
        }
    }
    out
}

/// The Table-4 shapes: `(10_000, 24, 5)` and `(10_000, 125, 5)`,
/// optionally scaled down by `scale_r` for fast runs.
pub fn table4_shapes(scale_r: usize) -> Vec<(usize, usize, usize)> {
    vec![(scale_r.min(10_000), 24, 5), (scale_r.min(10_000), 125, 5)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;
    use tsgb_linalg::stats;

    #[test]
    fn values_are_bounded_by_one() {
        let mut rng = seeded(1);
        let t = sine_dataset(50, 24, 5, &mut rng);
        assert!(t.as_slice().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn per_series_is_a_pure_sinusoid() {
        let mut rng = seeded(2);
        let t = sine_dataset(5, 125, 5, &mut rng);
        // A pure sinusoid's discrete second difference satisfies
        // x[j+1] + x[j-1] = 2 cos(2 pi eta) x[j]; check constancy of the
        // implied ratio where x[j] is not tiny.
        for s in 0..5 {
            for f in 0..5 {
                let xs = t.series(s, f);
                let mut ratios = Vec::new();
                for j in 1..xs.len() - 1 {
                    if xs[j].abs() > 0.3 {
                        ratios.push((xs[j + 1] + xs[j - 1]) / xs[j]);
                    }
                }
                if ratios.len() > 4 {
                    let sd = stats::std_dev(&ratios);
                    assert!(sd < 1e-6, "series ({s},{f}) not sinusoidal: sd = {sd}");
                }
            }
        }
    }

    #[test]
    fn independent_draws_differ() {
        let mut rng = seeded(3);
        let a = sine_dataset(10, 24, 5, &mut rng);
        let b = sine_dataset(10, 24, 5, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn marginal_is_arcsine_like() {
        // sin of a uniform phase has the arcsine distribution: heavy
        // mass near +-1, mean ~ 0.
        let mut rng = seeded(4);
        let t = sine_dataset(400, 24, 5, &mut rng);
        let xs: Vec<f64> = t.as_slice().to_vec();
        assert!(stats::mean(&xs).abs() < 0.02);
        let h = stats::Histogram::of(&xs, 10);
        assert!(h.density[0] > h.density[5] && h.density[9] > h.density[5]);
    }
}
