//! Streaming variants of the cheap feature-based measures (M4–M7).
//!
//! The batch measures in [`crate::feature_based`] make a full pass
//! over the generated tensor; a monitor tailing a generation stream
//! cannot afford that per window. [`OnlineMeasures`] holds per-slot
//! histogram counts, per-feature ACF sums and per-channel central
//! moments so each arriving window costs `O(l·n)` (plus one FFT per
//! feature for the ACF) and a score read-out is `O(1)` passes over
//! the accumulator state — no retained windows.
//!
//! Equivalence contract (pinned by `tests/online_equivalence.rs`):
//!
//! * **MDD** — bit-identical to [`crate::feature_based::mdd`] for any
//!   push order: histogram counts are exact integer adds in f64.
//! * **ACD** — bit-identical when windows are pushed in the batch's
//!   sample order (the accumulation order matches); within `1e-12`
//!   after a [`OnlineMeasures::merge`].
//! * **SD/KD** — within `1e-12` of the batch values: the single-pass
//!   central-moment recurrences (Pébay) are algebraically equal to
//!   the two-pass batch moments but round differently.

use crate::feature_based;
use tsgb_linalg::stats::{self, Histogram};
use tsgb_linalg::{Matrix, Tensor3};
use tsgb_signal::acf;

/// Bin count of the MDD histograms (the batch measure's constant).
const BINS: usize = 50;

/// Running central moments of one pooled channel (Welford/Pébay).
#[derive(Debug, Clone, Default)]
struct Moments {
    n: f64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
}

impl Moments {
    fn push(&mut self, x: f64) {
        let n1 = self.n;
        self.n += 1.0;
        let delta = x - self.mean;
        let delta_n = delta / self.n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (self.n * self.n - 3.0 * self.n + 3.0)
            + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (self.n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
    }

    fn merge(&mut self, o: &Moments) {
        if o.n == 0.0 {
            return;
        }
        if self.n == 0.0 {
            *self = o.clone();
            return;
        }
        let (na, nb) = (self.n, o.n);
        let n = na + nb;
        let delta = o.mean - self.mean;
        let d2 = delta * delta;
        let m4 = self.m4
            + o.m4
            + d2 * d2 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * d2 * (na * na * o.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * o.m3 - nb * self.m3) / n;
        let m3 = self.m3
            + o.m3
            + delta * d2 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * o.m2 - nb * self.m2) / n;
        let m2 = self.m2 + o.m2 + d2 * na * nb / n;
        self.mean += delta * nb / n;
        self.n = n;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
    }

    /// Population skewness with the batch convention: 0 when the
    /// standard deviation vanishes (`< 1e-12`) or no data arrived.
    fn skewness(&self) -> f64 {
        if self.n == 0.0 {
            return 0.0;
        }
        let s = (self.m2 / self.n).sqrt();
        if s < 1e-12 {
            return 0.0;
        }
        (self.m3 / self.n) / s.powi(3)
    }

    /// Population (non-excess) kurtosis, same guard as the batch.
    fn kurtosis(&self) -> f64 {
        if self.n == 0.0 {
            return 0.0;
        }
        let s = (self.m2 / self.n).sqrt();
        if s < 1e-12 {
            return 0.0;
        }
        (self.m4 / self.n) / s.powi(4)
    }
}

/// Streaming MDD/ACD/SD/KD against a fixed reference tensor.
///
/// Construction makes one pass over the reference (histogram edges
/// and densities, mean ACFs, pooled skew/kurt); each
/// [`OnlineMeasures::push`] absorbs one generated `(seq_len,
/// features)` window. Two accumulators over the same reference can be
/// [`OnlineMeasures::merge`]d — counts add exactly, sums and moments
/// combine within `1e-12`.
#[derive(Debug, Clone)]
pub struct OnlineMeasures {
    seq_len: usize,
    features: usize,
    ref_digest: u64,
    /// Per (t, f) slot, row-major: histogram left edge and bin width
    /// (the `with_edges` arithmetic, replicated exactly).
    slot_lo: Vec<f64>,
    slot_w: Vec<f64>,
    /// Per slot: the reference histogram's normalized densities.
    ref_density: Vec<f64>,
    /// Per slot: raw generated counts (exact integer adds).
    counts: Vec<f64>,
    /// Per feature: reference mean ACF over lags `0..=max_lag`.
    ref_acf: Vec<Vec<f64>>,
    /// Per feature: sum of per-window ACFs, divided on read-out.
    acf_sum: Vec<Vec<f64>>,
    /// Per channel: reference pooled skewness and kurtosis.
    ref_skew: Vec<f64>,
    ref_kurt: Vec<f64>,
    /// Per channel: running generated central moments.
    moments: Vec<Moments>,
    windows: u64,
}

impl OnlineMeasures {
    /// Precomputes the reference side. One pass over `reference`; the
    /// reference tensor is not retained.
    pub fn new(reference: &Tensor3) -> Self {
        let (r, l, n) = reference.shape();
        assert!(
            r > 0 && l > 1,
            "online measures need samples and length >= 2"
        );
        let slots = l * n;
        let mut slot_lo = Vec::with_capacity(slots);
        let mut slot_w = Vec::with_capacity(slots);
        let mut ref_density = Vec::with_capacity(slots * BINS);
        for t in 0..l {
            for f in 0..n {
                let rv: Vec<f64> = (0..r).map(|s| reference.at(s, t, f)).collect();
                let lo = rv.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = rv.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let edges = Histogram::edges_for_range(lo, hi, BINS);
                let h = Histogram::with_edges(&rv, &edges);
                // the exact binning parameters `with_edges` derives
                let (lo, hi) = (edges[0], edges[BINS]);
                slot_lo.push(lo);
                slot_w.push((hi - lo) / BINS as f64);
                ref_density.extend_from_slice(&h.density);
            }
        }
        let max_lag = l - 1;
        let ref_acf: Vec<Vec<f64>> = (0..n)
            .map(|f| feature_based::mean_acf(reference, f, max_lag))
            .collect();
        let ref_skew: Vec<f64> = (0..n)
            .map(|f| stats::skewness(&feature_based::pool_channel(reference, f)))
            .collect();
        let ref_kurt: Vec<f64> = (0..n)
            .map(|f| stats::kurtosis(&feature_based::pool_channel(reference, f)))
            .collect();
        Self {
            seq_len: l,
            features: n,
            ref_digest: tsgb_evalcache::digest_tensor(reference),
            slot_lo,
            slot_w,
            ref_density,
            counts: vec![0.0; slots * BINS],
            ref_acf,
            acf_sum: vec![vec![0.0; max_lag + 1]; n],
            ref_skew,
            ref_kurt,
            moments: vec![Moments::default(); n],
            windows: 0,
        }
    }

    /// Window shape this accumulator expects: `(seq_len, features)`.
    pub fn window_shape(&self) -> (usize, usize) {
        (self.seq_len, self.features)
    }

    /// Digest of the reference tensor this accumulator was built on.
    pub fn ref_digest(&self) -> u64 {
        self.ref_digest
    }

    /// Windows absorbed so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Absorbs one generated window (rows are time steps, columns are
    /// features).
    pub fn push(&mut self, window: &Matrix) {
        assert_eq!(
            (window.rows(), window.cols()),
            (self.seq_len, self.features),
            "window shape mismatch"
        );
        let (l, n) = (self.seq_len, self.features);
        // histogram counts: the `with_edges` index formula per slot
        for t in 0..l {
            for f in 0..n {
                let slot = t * n + f;
                let x = window[(t, f)];
                let (lo, w) = (self.slot_lo[slot], self.slot_w[slot]);
                let idx = if w <= 0.0 {
                    0
                } else {
                    (((x - lo) / w).floor() as isize).clamp(0, BINS as isize - 1) as usize
                };
                self.counts[slot * BINS + idx] += 1.0;
            }
        }
        // per-feature ACF of this window, added in arrival order
        let max_lag = l - 1;
        for f in 0..n {
            let series: Vec<f64> = (0..l).map(|t| window[(t, f)]).collect();
            let a = acf::autocorrelation(&series, max_lag);
            for (o, v) in self.acf_sum[f].iter_mut().zip(a) {
                *o += v;
            }
        }
        // pooled moments, visited in the batch's (sample, step) order
        for (f, m) in self.moments.iter_mut().enumerate() {
            for t in 0..l {
                m.push(window[(t, f)]);
            }
        }
        self.windows += 1;
    }

    /// Absorbs every sample of a tensor in sample order (the order
    /// under which ACD is bit-identical to the batch measure).
    pub fn push_tensor(&mut self, t: &Tensor3) {
        assert_eq!(
            (t.seq_len(), t.features()),
            (self.seq_len, self.features),
            "tensor window shape mismatch"
        );
        for s in 0..t.samples() {
            let w = Matrix::from_fn(self.seq_len, self.features, |step, f| t.at(s, step, f));
            self.push(&w);
        }
    }

    /// Folds another accumulator over the same reference into this
    /// one. Histogram counts combine exactly; ACF sums and moments
    /// combine within `1e-12` of a single sequential accumulator.
    pub fn merge(&mut self, other: &OnlineMeasures) {
        assert_eq!(self.ref_digest, other.ref_digest, "different references");
        assert_eq!(
            (self.seq_len, self.features),
            (other.seq_len, other.features),
            "shape mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (af, bf) in self.acf_sum.iter_mut().zip(&other.acf_sum) {
            for (a, b) in af.iter_mut().zip(bf) {
                *a += b;
            }
        }
        for (a, b) in self.moments.iter_mut().zip(&other.moments) {
            a.merge(b);
        }
        self.windows += other.windows;
    }

    /// M4 — Marginal Distribution Difference of everything pushed so
    /// far against the reference.
    pub fn mdd(&self) -> f64 {
        let (l, n) = (self.seq_len, self.features);
        let mut total = 0.0;
        for slot in 0..l * n {
            let counts = &self.counts[slot * BINS..(slot + 1) * BINS];
            let sum: f64 = counts.iter().sum();
            let refd = &self.ref_density[slot * BINS..(slot + 1) * BINS];
            let mut diff = 0.0;
            for (c, r) in counts.iter().zip(refd) {
                let d = if sum > 0.0 { c / sum } else { *c };
                diff += (r - d).abs();
            }
            total += diff / BINS as f64;
        }
        total / (l * n) as f64
    }

    /// M5 — AutoCorrelation Difference.
    pub fn acd(&self) -> f64 {
        assert!(self.windows > 0, "ACD needs at least one window");
        let n = self.features;
        let max_lag = self.seq_len - 1;
        let mut total = 0.0;
        for f in 0..n {
            // the batch divides the accumulated sums by the sample
            // count before differencing; replicate that order
            let d: f64 = self.ref_acf[f]
                .iter()
                .zip(&self.acf_sum[f])
                .skip(1)
                .map(|(a, b)| (a - b / self.windows as f64).abs())
                .sum::<f64>();
            total += d / max_lag as f64;
        }
        total / n as f64
    }

    /// M6 — Skewness Difference.
    pub fn sd(&self) -> f64 {
        assert!(self.windows > 0, "SD needs at least one window");
        let n = self.features;
        let total: f64 = (0..n)
            .map(|f| (self.moments[f].skewness() - self.ref_skew[f]).abs())
            .sum();
        total / n as f64
    }

    /// M7 — Kurtosis Difference.
    pub fn kd(&self) -> f64 {
        assert!(self.windows > 0, "KD needs at least one window");
        let n = self.features;
        let total: f64 = (0..n)
            .map(|f| (self.moments[f].kurtosis() - self.ref_kurt[f]).abs())
            .sum();
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_two_pass_on_a_small_series() {
        let xs = [0.3, -1.2, 2.5, 0.0, 0.7, -0.4, 1.9];
        let mut m = Moments::default();
        for &x in &xs {
            m.push(x);
        }
        assert!((m.skewness() - stats::skewness(&xs)).abs() < 1e-12);
        assert!((m.kurtosis() - stats::kurtosis(&xs)).abs() < 1e-12);
    }

    #[test]
    fn constant_series_hits_the_zero_guard() {
        let mut m = Moments::default();
        for _ in 0..10 {
            m.push(4.2);
        }
        assert_eq!(m.skewness(), 0.0);
        assert_eq!(m.kurtosis(), 0.0);
        assert_eq!(Moments::default().skewness(), 0.0);
    }
}
