//! Descriptive statistics used throughout the benchmark.
//!
//! The feature-based measures of paper §4.2 (MDD, ACD, SD, KD) are all
//! functionals of the statistics defined here: empirical histograms
//! with shared bin edges, autocorrelation-ready moments, skewness and
//! kurtosis. The implementations use the *population* (biased) moment
//! estimators, matching the NumPy defaults the original TSGBench code
//! relies on.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance (divide by `n`); 0 for slices shorter than 1.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Population skewness `E[(x - mu)^3] / sigma^3`; 0 when the variance
/// vanishes (a constant series is symmetric by convention).
pub fn skewness(xs: &[f64]) -> f64 {
    let m = mean(xs);
    let s = std_dev(xs);
    if s < 1e-12 || xs.is_empty() {
        return 0.0;
    }
    let m3 = xs.iter().map(|x| (x - m).powi(3)).sum::<f64>() / xs.len() as f64;
    m3 / s.powi(3)
}

/// Population kurtosis `E[(x - mu)^4] / sigma^4` (non-excess, so a
/// Gaussian scores 3); 0 when the variance vanishes.
pub fn kurtosis(xs: &[f64]) -> f64 {
    let m = mean(xs);
    let s = std_dev(xs);
    if s < 1e-12 || xs.is_empty() {
        return 0.0;
    }
    let m4 = xs.iter().map(|x| (x - m).powi(4)).sum::<f64>() / xs.len() as f64;
    m4 / s.powi(4)
}

/// Sample covariance between two equal-length slices (divide by `n`).
pub fn covariance(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "covariance length mismatch");
    if xs.is_empty() {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    xs.iter()
        .zip(ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>()
        / xs.len() as f64
}

/// Pearson correlation; 0 when either side is constant.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let sx = std_dev(xs);
    let sy = std_dev(ys);
    if sx < 1e-12 || sy < 1e-12 {
        return 0.0;
    }
    covariance(xs, ys) / (sx * sy)
}

/// An empirical histogram over fixed bin edges.
///
/// The Marginal Distribution Difference (M4) compares the *generated*
/// series against histograms whose bin centers and widths come from
/// the *original* series, so the edges must be shareable across the
/// two histograms — hence this explicit-edges representation.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// `bins + 1` monotonically increasing edges.
    pub edges: Vec<f64>,
    /// Normalized bin masses (sums to 1 when any sample fell in range).
    pub density: Vec<f64>,
}

impl Histogram {
    /// Equal-width edges spanning `[lo, hi]` with `bins` bins. Degenerate
    /// ranges are widened by a small epsilon so every value lands in a bin.
    pub fn edges_for_range(lo: f64, hi: f64, bins: usize) -> Vec<f64> {
        assert!(bins > 0, "histogram needs at least one bin");
        let (lo, hi) = if hi - lo < 1e-12 {
            (lo - 0.5, hi + 0.5)
        } else {
            (lo, hi)
        };
        let w = (hi - lo) / bins as f64;
        (0..=bins).map(|i| lo + w * i as f64).collect()
    }

    /// Histogram of `xs` over the given edges. Values outside the range
    /// are clamped into the terminal bins (matching `numpy.histogram`'s
    /// treatment of the inclusive upper edge, extended to both tails so
    /// generated data that escapes `[0, 1]` is still counted).
    pub fn with_edges(xs: &[f64], edges: &[f64]) -> Self {
        assert!(edges.len() >= 2, "need at least two edges");
        let bins = edges.len() - 1;
        let mut counts = vec![0.0f64; bins];
        let lo = edges[0];
        let hi = edges[bins];
        let w = (hi - lo) / bins as f64;
        for &x in xs {
            let idx = if w <= 0.0 {
                0
            } else {
                (((x - lo) / w).floor() as isize).clamp(0, bins as isize - 1) as usize
            };
            counts[idx] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        if total > 0.0 {
            for c in &mut counts {
                *c /= total;
            }
        }
        Self {
            edges: edges.to_vec(),
            density: counts,
        }
    }

    /// Convenience: histogram of `xs` over `bins` equal bins spanning
    /// the data's own range.
    pub fn of(xs: &[f64], bins: usize) -> Self {
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (lo, hi) = if xs.is_empty() { (0.0, 1.0) } else { (lo, hi) };
        Self::with_edges(xs, &Self::edges_for_range(lo, hi, bins))
    }

    /// Mean absolute difference between two histograms over the same
    /// edges — the inner kernel of the MDD measure.
    pub fn mean_abs_diff(&self, other: &Histogram) -> f64 {
        assert_eq!(self.edges, other.edges, "histograms must share edges");
        let n = self.density.len();
        self.density
            .iter()
            .zip(&other.density)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / n as f64
    }
}

/// Linearly interpolated quantile `q` in `[0, 1]` of the data.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    assert!(!xs.is_empty(), "quantile of empty slice");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Gaussian kernel density estimate evaluated at `points`, with
/// Silverman's rule-of-thumb bandwidth. Used by the Distribution Plot
/// (M10) to compare density, spread and central tendency.
///
/// Points are evaluated in parallel; each point's sum runs over `xs`
/// in order on one thread, so the result is bit-identical at every
/// thread count.
pub fn kde(xs: &[f64], points: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        return vec![0.0; points.len()];
    }
    let n = xs.len() as f64;
    let s = std_dev(xs).max(1e-9);
    let h = 1.06 * s * n.powf(-0.2);
    let norm = 1.0 / (n * h * (2.0 * std::f64::consts::PI).sqrt());
    tsgb_par::parallel_map(points.len(), |k| {
        let p = points[k];
        xs.iter()
            .map(|&x| {
                let z = (p - x) / h;
                (-0.5 * z * z).exp()
            })
            .sum::<f64>()
            * norm
    })
}

/// Ranks with ties averaged (1-based), as required by the Friedman
/// test. `values` are ranked ascending: the smallest value gets rank 1.
pub fn average_ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("no NaNs in ranks"));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg;
        }
        i = j + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_of_known_data() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn skewness_sign() {
        let right = [1.0, 1.0, 1.0, 1.0, 10.0];
        let left = [10.0, 10.0, 10.0, 10.0, 1.0];
        assert!(skewness(&right) > 0.5);
        assert!(skewness(&left) < -0.5);
        let sym = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(skewness(&sym).abs() < 1e-12);
    }

    #[test]
    fn kurtosis_of_constant_and_uniformish() {
        assert_eq!(kurtosis(&[3.0; 10]), 0.0);
        // Two-point symmetric distribution has kurtosis exactly 1.
        let two = [-1.0, 1.0, -1.0, 1.0];
        assert!((kurtosis(&two) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let yneg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &yneg) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x, &[5.0; 4]), 0.0);
    }

    #[test]
    fn histogram_normalizes_and_clamps() {
        let edges = Histogram::edges_for_range(0.0, 1.0, 4);
        let h = Histogram::with_edges(&[0.1, 0.3, 0.6, 0.9, 1.5, -0.5], &edges);
        assert!((h.density.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // out-of-range values clamp to the terminal bins
        assert!(h.density[0] > 0.0 && h.density[3] > 0.0);
    }

    #[test]
    fn identical_histograms_have_zero_mdd() {
        let xs = [0.1, 0.4, 0.4, 0.8];
        let edges = Histogram::edges_for_range(0.0, 1.0, 10);
        let a = Histogram::with_edges(&xs, &edges);
        let b = Histogram::with_edges(&xs, &edges);
        assert_eq!(a.mean_abs_diff(&b), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn kde_integrates_roughly_to_one() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) / 100.0).collect();
        let grid: Vec<f64> = (-100..200).map(|i| i as f64 / 100.0).collect();
        let dens = kde(&xs, &grid);
        let integral: f64 = dens.iter().sum::<f64>() * 0.01;
        assert!((integral - 1.0).abs() < 0.05, "integral = {integral}");
    }

    #[test]
    fn kde_is_bit_identical_across_thread_counts() {
        let xs: Vec<f64> = (0..5000)
            .map(|i| ((i * 7919) % 1000) as f64 / 997.0)
            .collect();
        let grid: Vec<f64> = (0..100).map(|i| i as f64 / 99.0).collect();
        let bits = |threads| -> Vec<u64> {
            tsgb_par::with_threads(threads, || kde(&xs, &grid))
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(1), bits(4));
    }

    #[test]
    fn ranks_handle_ties() {
        let r = average_ranks(&[3.0, 1.0, 3.0, 2.0]);
        assert_eq!(r, vec![3.5, 1.0, 3.5, 2.0]);
    }
}
