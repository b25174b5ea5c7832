//! Seeded-loop property tests on the benchmark's core invariants:
//! transform round-trips, DTW's metric-like laws, normalization,
//! windowing, ranking, and the pipeline split.

use tsgb_data::pipeline::{NormParams, Pipeline, WindowLength};
use tsgb_eval::distance;
use tsgb_linalg::stats::average_ranks;
use tsgb_linalg::{Matrix, Tensor3};
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::{Rng, SeedableRng};
use tsgb_signal::dft::{inverse_real_dft, real_dft};
use tsgb_signal::fft::{fft, ifft, Complex};
use tsgb_signal::window::sliding_windows;

fn series(rng: &mut SmallRng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

#[test]
fn fft_and_real_dft_roundtrip_seeded() {
    let mut rng = SmallRng::seed_from_u64(0xE1);
    for _ in 0..16 {
        let len = rng.gen_range(4usize..96);
        let xs = series(&mut rng, len, -1e3, 1e3);
        let c: Vec<Complex> = xs.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let back = ifft(&fft(&c));
        for (a, b) in c.iter().zip(&back) {
            assert!((a.re - b.re).abs() < 1e-6 * (1.0 + a.re.abs()));
            assert!(b.im.abs() < 1e-6 * (1.0 + a.re.abs()));
        }
        let packed = real_dft(&xs);
        assert_eq!(packed.len(), xs.len());
        let back = inverse_real_dft(&packed);
        for (a, b) in xs.iter().zip(&back) {
            assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }
}

#[test]
fn dtw_identity_symmetry_and_ed_bound_seeded() {
    let mut rng = SmallRng::seed_from_u64(0xE2);
    for _ in 0..12 {
        let l = rng.gen_range(8usize..24);
        let a = series(&mut rng, l, 0.0, 1.0);
        let b = series(&mut rng, l, 0.0, 1.0);
        let ta = Tensor3::from_fn(1, l, 1, |_, t, _| a[t]);
        let tb = Tensor3::from_fn(1, l, 1, |_, t, _| b[t]);
        assert_eq!(distance::dtw(&ta, &ta), 0.0);
        let d_ab = distance::dtw(&ta, &tb);
        let d_ba = distance::dtw(&tb, &ta);
        assert!((d_ab - d_ba).abs() < 1e-9);
        let aligned: f64 = (0..l).map(|t| (a[t] - b[t]).abs()).sum();
        assert!(d_ab <= aligned + 1e-9);
        assert!(d_ab >= 0.0);
    }
}

#[test]
fn normalization_roundtrips_seeded() {
    let mut rng = SmallRng::seed_from_u64(0xE3);
    for _ in 0..12 {
        let n = 3usize;
        let rows = rng.gen_range(8usize..32);
        let values = series(&mut rng, rows * n, -1e4, 1e4);
        let t = Tensor3::from_fn(1, rows, n, |_, r, f| values[r * n + f]);
        let norm = NormParams::fit(&t);
        let mut fwd = t.clone();
        norm.normalize(&mut fwd);
        assert!(fwd
            .as_slice()
            .iter()
            .all(|&v| (-1e-9..=1.0 + 1e-9).contains(&v)));
        let mut back = fwd.clone();
        norm.denormalize(&mut back);
        for (x, y) in t.as_slice().iter().zip(back.as_slice()) {
            assert!((x - y).abs() < 1e-6 * (1.0 + x.abs()));
        }
    }
}

#[test]
fn sliding_windows_cover_everything_seeded() {
    let mut rng = SmallRng::seed_from_u64(0xE4);
    for _ in 0..12 {
        let big_l = rng.gen_range(20usize..80);
        let l = rng.gen_range(2usize..10).min(big_l - 1);
        let raw_vals = series(&mut rng, big_l, 0.0, 1.0);
        let raw = Matrix::from_fn(big_l, 1, |r, _| raw_vals[r]);
        let t = sliding_windows(&raw, l, 1);
        assert_eq!(t.samples(), big_l - l + 1);
        for (pos, &v) in raw_vals.iter().enumerate() {
            let w = pos.min(t.samples() - 1);
            assert_eq!(t.at(w, pos - w, 0), v);
        }
    }
}

#[test]
fn ranks_are_a_permutation_weighting_seeded() {
    let mut rng = SmallRng::seed_from_u64(0xE5);
    for _ in 0..12 {
        let k = rng.gen_range(2usize..12);
        let scores = series(&mut rng, k, -1e3, 1e3);
        let ranks = average_ranks(&scores);
        let kf = k as f64;
        let sum: f64 = ranks.iter().sum();
        assert!((sum - kf * (kf + 1.0) / 2.0).abs() < 1e-9);
        assert!(ranks.iter().all(|&r| (1.0..=kf).contains(&r)));
        for i in 0..k {
            for j in 0..k {
                if scores[i] < scores[j] {
                    assert!(ranks[i] < ranks[j]);
                }
            }
        }
    }
}

#[test]
fn pipeline_split_partitions_windows_seeded() {
    let mut rng = SmallRng::seed_from_u64(0xE6);
    for _ in 0..8 {
        let len = rng.gen_range(40usize..120);
        let seed = rng.gen_range(0u64..50);
        let raw = Matrix::from_fn(len, 2, |r, c| ((r + c) as f64 * 0.37).sin());
        let p = Pipeline {
            window: WindowLength::Fixed(8),
            ..Default::default()
        };
        let d = p.run(&raw, "prop", seed);
        assert_eq!(d.r(), len - 8 + 1);
        let expect_train = ((d.r() as f64) * 0.9).round() as usize;
        assert_eq!(d.train.samples(), expect_train);
    }
}
