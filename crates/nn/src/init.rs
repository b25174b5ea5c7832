//! Weight initialization schemes.
//!
//! Xavier/Glorot uniform for feedforward weights, scaled-normal for
//! recurrent matrices, zeros for biases — matching the defaults of the
//! frameworks the original methods were written in.

use tsgb_linalg::Matrix;
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::Rng;

/// Xavier/Glorot uniform: `U[-a, a]` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut SmallRng) -> Matrix {
    let a = (6.0 / (rows + cols) as f64).sqrt();
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-a..a))
}

/// Normal with standard deviation `std`.
pub fn scaled_normal(rows: usize, cols: usize, std: f64, rng: &mut SmallRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| tsgb_linalg::rng::randn(rng) * std)
}

/// All-zeros (biases).
pub fn zeros(rows: usize, cols: usize) -> Matrix {
    Matrix::zeros(rows, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;
    use tsgb_linalg::stats;

    #[test]
    fn xavier_respects_bound() {
        let mut rng = seeded(5);
        let w = xavier_uniform(30, 50, &mut rng);
        let a = (6.0 / 80.0f64).sqrt();
        assert!(w.as_slice().iter().all(|&x| x.abs() < a));
        assert!(w.mean().abs() < 0.02);
    }

    #[test]
    fn scaled_normal_std() {
        let mut rng = seeded(6);
        let w = scaled_normal(100, 100, 0.3, &mut rng);
        let s = stats::std_dev(w.as_slice());
        assert!((s - 0.3).abs() < 0.02, "std = {s}");
    }
}
