//! Seeded-loop property tests on the spectral substrate: exact
//! invertibility and analytic bounds that the flows and measures rely
//! on.

use tsgb_linalg::Matrix;
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::{Rng, SeedableRng};
use tsgb_signal::acf::autocorrelation;
use tsgb_signal::signature::{signature, signature_dim};
use tsgb_signal::stft::{istft, stft, StftConfig};

fn vec_in(rng: &mut SmallRng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

#[test]
fn stft_roundtrips_seeded_signals() {
    let mut rng = SmallRng::seed_from_u64(0xC1);
    for _ in 0..12 {
        let len = rng.gen_range(16usize..96);
        let xs = vec_in(&mut rng, len, -10.0, 10.0);
        let rec = istft(&stft(&xs, StftConfig::paper_default()));
        assert_eq!(rec.len(), xs.len());
        for (a, b) in xs.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-7 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }
}

#[test]
fn acf_bounded_and_unit_at_lag_zero_seeded() {
    let mut rng = SmallRng::seed_from_u64(0xC2);
    for _ in 0..12 {
        let len = rng.gen_range(8usize..128);
        let xs = vec_in(&mut rng, len, -5.0, 5.0);
        let acf = autocorrelation(&xs, xs.len() / 2);
        assert!((acf[0] - 1.0).abs() < 1e-9);
        for (lag, &v) in acf.iter().enumerate() {
            assert!(v.abs() <= 1.0 + 1e-9, "lag {lag}: {v}");
        }
    }
}

#[test]
fn signature_level1_is_displacement_seeded() {
    let mut rng = SmallRng::seed_from_u64(0xC3);
    for _ in 0..12 {
        let len = rng.gen_range(6usize..40);
        let points = vec_in(&mut rng, len, -3.0, 3.0);
        let path = Matrix::from_fn(points.len(), 1, |r, _| points[r]);
        let sig = signature(&path, 2);
        assert_eq!(sig.len(), signature_dim(1, 2));
        let displacement = points.last().unwrap() - points.first().unwrap();
        assert!((sig[0] - displacement).abs() < 1e-9);
        assert!((sig[1] - displacement * displacement / 2.0).abs() < 1e-7);
    }
}

#[test]
fn signature_translation_invariance_and_reversal_seeded() {
    let mut rng = SmallRng::seed_from_u64(0xC4);
    for _ in 0..12 {
        let rows = rng.gen_range(4usize..12);
        let points = vec_in(&mut rng, rows * 2, -2.0, 2.0);
        let shift = rng.gen_range(-10.0..10.0);
        let path = Matrix::from_fn(rows, 2, |r, c| points[r * 2 + c]);
        let shifted = path.map(|v| v + shift);
        let s1 = signature(&path, 2);
        let s2 = signature(&shifted, 2);
        for (a, b) in s1.iter().zip(&s2) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        // reversal negates level 1 (1-D path)
        let line = Matrix::from_fn(rows, 1, |r, _| points[r]);
        let reversed = Matrix::from_fn(rows, 1, |r, _| points[rows - 1 - r]);
        let s = signature(&line, 1);
        let sr = signature(&reversed, 1);
        assert!((s[0] + sr[0]).abs() < 1e-9);
    }
}
