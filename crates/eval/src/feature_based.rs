//! Feature-based measures (paper §4.2, M4–M7).
//!
//! These are deterministic functionals of the original vs generated
//! tensors — the paper's antidote to the instability of model-based
//! scores (Table 4 shows them exactly zero on identical inputs).

use tsgb_linalg::stats::{self, Histogram};
use tsgb_linalg::Tensor3;
use tsgb_signal::acf;

/// M4 — Marginal Distribution Difference. For every (time step,
/// feature) slot, build the empirical histogram of the generated
/// values over the *original* data's bin edges (50 bins, the original
/// implementation's default) and average the absolute bin-mass
/// differences over slots.
pub fn mdd(real: &Tensor3, generated: &Tensor3) -> f64 {
    assert_eq!(
        (real.seq_len(), real.features()),
        (generated.seq_len(), generated.features()),
        "MDD window shape mismatch"
    );
    let bins = 50;
    let (l, n) = (real.seq_len(), real.features());
    let mut total = 0.0;
    for t in 0..l {
        for f in 0..n {
            let rv: Vec<f64> = (0..real.samples()).map(|s| real.at(s, t, f)).collect();
            let gv: Vec<f64> = (0..generated.samples())
                .map(|s| generated.at(s, t, f))
                .collect();
            let lo = rv.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = rv.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let edges = Histogram::edges_for_range(lo, hi, bins);
            let hr = Histogram::with_edges(&rv, &edges);
            let hg = Histogram::with_edges(&gv, &edges);
            total += hr.mean_abs_diff(&hg);
        }
    }
    total / (l * n) as f64
}

/// M5 — AutoCorrelation Difference. Per channel, average the ACF over
/// samples for both tensors and take the mean absolute difference over
/// lags `1..l`, then average channels.
pub fn acd(real: &Tensor3, generated: &Tensor3) -> f64 {
    assert_eq!(
        real.features(),
        generated.features(),
        "ACD feature mismatch"
    );
    let n = real.features();
    let l = real.seq_len().min(generated.seq_len());
    let max_lag = l - 1;
    let mut total = 0.0;
    for f in 0..n {
        let ar = mean_acf(real, f, max_lag);
        let ag = mean_acf(generated, f, max_lag);
        let d: f64 = ar
            .iter()
            .zip(&ag)
            .skip(1)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>();
        total += d / max_lag as f64;
    }
    total / n as f64
}

pub(crate) fn mean_acf(t: &Tensor3, feature: usize, max_lag: usize) -> Vec<f64> {
    let mut acc = vec![0.0; max_lag + 1];
    for s in 0..t.samples() {
        let series = t.series(s, feature);
        let a = acf::autocorrelation(&series, max_lag);
        for (o, v) in acc.iter_mut().zip(a) {
            *o += v;
        }
    }
    for v in &mut acc {
        *v /= t.samples() as f64;
    }
    acc
}

/// M6 — Skewness Difference (Equation 1): absolute difference of the
/// pooled skewness per channel, averaged over channels.
pub fn sd(real: &Tensor3, generated: &Tensor3) -> f64 {
    per_channel_stat_diff(real, generated, stats::skewness)
}

/// M7 — Kurtosis Difference (Equation 2): absolute difference of the
/// pooled kurtosis per channel, averaged over channels.
pub fn kd(real: &Tensor3, generated: &Tensor3) -> f64 {
    per_channel_stat_diff(real, generated, stats::kurtosis)
}

fn per_channel_stat_diff(real: &Tensor3, generated: &Tensor3, stat: impl Fn(&[f64]) -> f64) -> f64 {
    assert_eq!(real.features(), generated.features(), "feature mismatch");
    let n = real.features();
    let mut total = 0.0;
    for f in 0..n {
        let rv = pool_channel(real, f);
        let gv = pool_channel(generated, f);
        total += (stat(&gv) - stat(&rv)).abs();
    }
    total / n as f64
}

pub(crate) fn pool_channel(t: &Tensor3, feature: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(t.samples() * t.seq_len());
    for s in 0..t.samples() {
        for step in 0..t.seq_len() {
            out.push(t.at(s, step, feature));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;
    use tsgb_rand::Rng;

    fn sine_tensor(r: usize, l: usize, n: usize, seed: u64) -> Tensor3 {
        let mut rng = seeded(seed);
        Tensor3::from_fn(r, l, n, |_, t, _| {
            let phase: f64 = rng.gen::<f64>() * std::f64::consts::TAU;
            0.5 + 0.4 * (0.7 * t as f64 + phase).sin()
        })
    }

    #[test]
    fn identical_inputs_score_zero() {
        let a = sine_tensor(30, 12, 3, 1);
        assert_eq!(mdd(&a, &a), 0.0);
        assert_eq!(acd(&a, &a), 0.0);
        assert_eq!(sd(&a, &a), 0.0);
        assert_eq!(kd(&a, &a), 0.0);
    }

    #[test]
    fn shifted_distribution_raises_mdd() {
        let a = sine_tensor(50, 10, 2, 2);
        let mut b = a.clone();
        b.map_inplace(|v| (v + 0.3).min(1.0));
        // MDD averages absolute bin-mass differences over 50 bins, so
        // its ceiling is 2/50 = 0.04; a 0.3 shift should use most of it.
        assert!(mdd(&a, &b) > 0.02, "mdd = {}", mdd(&a, &b));
    }

    #[test]
    fn different_period_raises_acd() {
        let a = Tensor3::from_fn(20, 24, 1, |_, t, _| (0.5 * t as f64).sin());
        let b = Tensor3::from_fn(20, 24, 1, |_, t, _| (1.7 * t as f64).sin());
        assert!(acd(&a, &b) > 0.2, "acd = {}", acd(&a, &b));
    }

    #[test]
    fn skewed_generation_raises_sd() {
        let a = Tensor3::from_fn(40, 10, 1, |s, t, _| ((s * 10 + t) % 7) as f64 / 7.0);
        // squash toward 0 to induce right skew
        let mut b = a.clone();
        b.map_inplace(|v| v * v);
        assert!(sd(&a, &b) > 0.1);
    }

    #[test]
    fn heavy_tails_raise_kd() {
        let mut rng = seeded(3);
        let a = Tensor3::from_fn(60, 10, 1, |_, _, _| rng.gen::<f64>());
        // inject rare extreme values
        let mut b = a.clone();
        let slice = b.as_mut_slice();
        for i in (0..slice.len()).step_by(37) {
            slice[i] = if i % 2 == 0 { 3.0 } else { -2.0 };
        }
        assert!(kd(&a, &b) > 0.5, "kd = {}", kd(&a, &b));
    }

    #[test]
    fn mdd_is_scale_free_in_sample_count() {
        // MDD compares normalized histograms, so halving the generated
        // sample count should barely move the score.
        let a = sine_tensor(64, 8, 1, 4);
        let b = sine_tensor(64, 8, 1, 5);
        let b_half = b.slice_samples(0, 32);
        let full = mdd(&a, &b);
        let half = mdd(&a, &b_half);
        assert!((full - half).abs() < 0.1, "{full} vs {half}");
    }
}
