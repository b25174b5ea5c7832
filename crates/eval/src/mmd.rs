//! Extension measure: Maximum Mean Discrepancy (Gretton et al., 2006).
//!
//! MMD is the statistic RGAN's original evaluation was built on (the
//! paper's §3.2 notes RGAN "is inspired by the maximum mean
//! discrepancy"); TSGBench itself omits it from the twelve-measure
//! suite, so it ships here as an *extension* for users comparing
//! against the RGAN-lineage literature.
//!
//! Implementation: the unbiased squared-MMD estimator with an RBF
//! kernel whose bandwidth follows the median heuristic over the pooled
//! pairwise distances — the standard configuration.

use crate::pairwise::{PairwiseCache, XxBlock};
use tsgb_evalcache::{digest_matrix, CacheKey, EvalCache};
use tsgb_linalg::{Matrix, Tensor3};

/// Unbiased squared MMD between the flattened windows of two tensors,
/// with a median-heuristic RBF kernel. Values near 0 mean the two
/// window distributions are indistinguishable to the kernel.
pub fn mmd2(real: &Tensor3, generated: &Tensor3) -> f64 {
    let x = real.flatten_samples();
    let y = generated.flatten_samples();
    mmd2_rows(&x, &y)
}

/// The same estimator on row sets. When the env-gated global eval
/// cache is on, the real×real distance quadrant is served from it.
pub fn mmd2_rows(x: &Matrix, y: &Matrix) -> f64 {
    let cache = if tsgb_evalcache::enabled() {
        Some(tsgb_evalcache::global())
    } else {
        None
    };
    mmd2_rows_cached(x, y, cache)
}

/// [`mmd2_rows`] with an explicit cache. The `x` set's own `nx × nx`
/// distance block is keyed on the digest of `x` alone, so a warm block
/// is reused across every generated set compared against the same
/// reference — the monitor's refresh loop and the warm-vs-cold probe
/// both lean on this. Cached and uncached paths are bit-identical
/// (pinned by `cached_xx_path_is_bit_identical`).
pub fn mmd2_rows_cached(x: &Matrix, y: &Matrix, ec: Option<&EvalCache>) -> f64 {
    assert_eq!(x.cols(), y.cols(), "MMD feature mismatch");
    assert!(
        x.rows() >= 2 && y.rows() >= 2,
        "unbiased MMD needs at least two samples per side"
    );
    let cache = match ec {
        Some(ec) => {
            let key = CacheKey::new("pairwise.xx", digest_matrix(x), 0, 0);
            let xx: std::sync::Arc<XxBlock> = ec.get_or_insert_codable(key, || XxBlock::build(x));
            PairwiseCache::pooled_with_xx(x, y, &xx)
        }
        None => PairwiseCache::pooled(x, y),
    };
    let gamma = 1.0 / cache.median_sq_dist();
    if tsgb_obs::enabled() {
        let t0 = std::time::Instant::now();
        let v = cache.rbf_mmd2(gamma);
        tsgb_obs::observe("eval.mmd.kernel_ms", t0.elapsed().as_secs_f64() * 1e3);
        v
    } else {
        cache.rbf_mmd2(gamma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;
    use tsgb_rand::Rng;

    fn uniform_tensor(r: usize, offset: f64, seed: u64) -> Tensor3 {
        let mut rng = seeded(seed);
        Tensor3::from_fn(r, 6, 1, |_, _, _| rng.gen::<f64>() + offset)
    }

    #[test]
    fn same_distribution_scores_near_zero() {
        let a = uniform_tensor(40, 0.0, 1);
        let b = uniform_tensor(40, 0.0, 2);
        let m = mmd2(&a, &b);
        assert!(m.abs() < 0.05, "mmd2 = {m}");
    }

    #[test]
    fn shifted_distribution_scores_higher() {
        let a = uniform_tensor(40, 0.0, 3);
        let near = uniform_tensor(40, 0.0, 4);
        let far = uniform_tensor(40, 2.0, 5);
        assert!(mmd2(&a, &far) > mmd2(&a, &near) + 0.1);
    }

    #[test]
    fn estimator_is_symmetric() {
        let a = uniform_tensor(20, 0.0, 6);
        let b = uniform_tensor(25, 0.5, 7);
        assert!((mmd2(&a, &b) - mmd2(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn cached_xx_path_is_bit_identical() {
        let a = uniform_tensor(24, 0.0, 10);
        let b = uniform_tensor(18, 0.3, 11);
        let c = uniform_tensor(18, 0.6, 12);
        let (x, yb, yc) = (
            a.flatten_samples(),
            b.flatten_samples(),
            c.flatten_samples(),
        );
        let ec = tsgb_evalcache::EvalCache::in_memory();
        let plain_b = mmd2_rows_cached(&x, &yb, None);
        let plain_c = mmd2_rows_cached(&x, &yc, None);
        let cached_b = mmd2_rows_cached(&x, &yb, Some(&ec));
        let cached_c = mmd2_rows_cached(&x, &yc, Some(&ec));
        assert_eq!(plain_b.to_bits(), cached_b.to_bits());
        assert_eq!(plain_c.to_bits(), cached_c.to_bits());
        // one xx build served both comparisons
        let s = ec.stats();
        assert_eq!((s.misses, s.hits), (1, 1));
    }

    #[test]
    fn unbiasedness_allows_small_negatives_but_not_large() {
        // the unbiased estimator can dip slightly below zero for equal
        // distributions, never far below
        let a = uniform_tensor(30, 0.0, 8);
        let b = uniform_tensor(30, 0.0, 9);
        assert!(mmd2(&a, &b) > -0.05);
    }
}
