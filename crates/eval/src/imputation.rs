//! Imputation measure family: scoring generator infill of masked
//! spans.
//!
//! The imputation scenario masks contiguous spans of a window set
//! (`tsgb-data`'s span masks), asks a generator to fill the holes, and
//! scores the infill against the ground truth two ways:
//!
//! * [`infill_mae`] — mean absolute error over the **masked entries
//!   only**; observed entries are by construction untouched, so
//!   including them would just dilute the score.
//! * [`infill_mmd`] — squared MMD between the marginal distribution of
//!   the true values at masked positions and the infilled values at
//!   the same positions. MAE rewards pointwise accuracy; a generator
//!   can cheat it with oversmoothed infill, which MMD catches because
//!   oversmoothing collapses the value distribution.
//!
//! The mask travels as a flat `&[bool]` in the tensor's row-major
//! `(s, t, f)` order (`SpanMask::bits`), so this crate stays free of a
//! `tsgb-data` dependency.
//!
//! Both measures have `_cached` variants keyed under their own cache
//! kinds (`imp.MAE`, `imp.MMD`) with the mask digest as the parameter
//! word, so imputation rows share the eval-cache store with the core
//! suite without key collisions. Cached and uncached paths are
//! bit-identical.

use crate::mmd::mmd2_rows_cached;
use tsgb_evalcache::{digest_tensor, CacheKey, EvalCache, Fnv64};
use tsgb_linalg::{Matrix, Tensor3};

/// Digest of a flat mask, used as the `p` word of imputation cache
/// keys. Bits are packed eight-per-byte so the digest is a function of
/// the bit pattern, not of `bool`'s in-memory representation.
pub fn digest_mask(mask: &[bool]) -> u64 {
    let mut h = Fnv64::new();
    h.update_u64(mask.len() as u64);
    let mut byte = 0u8;
    for (i, &b) in mask.iter().enumerate() {
        if b {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            h.update(&[byte]);
            byte = 0;
        }
    }
    if !mask.is_empty() && !mask.len().is_multiple_of(8) {
        h.update(&[byte]);
    }
    h.finish()
}

fn check_shapes(original: &Tensor3, infilled: &Tensor3, mask: &[bool]) {
    assert_eq!(
        original.shape(),
        infilled.shape(),
        "imputation tensors must share a shape"
    );
    let (r, l, n) = original.shape();
    assert_eq!(mask.len(), r * l * n, "mask length must match the tensor");
}

/// The true and infilled values at masked positions, as two aligned
/// single-column row sets.
fn masked_values(original: &Tensor3, infilled: &Tensor3, mask: &[bool]) -> (Vec<f64>, Vec<f64>) {
    let mut truth = Vec::new();
    let mut fill = Vec::new();
    for (i, &m) in mask.iter().enumerate() {
        if m {
            truth.push(original.as_slice()[i]);
            fill.push(infilled.as_slice()[i]);
        }
    }
    (truth, fill)
}

/// Mean absolute error of `infilled` against `original` over the
/// masked entries. An empty mask scores `0` (nothing to get wrong).
/// Routed through the env-gated global eval cache when it is on.
pub fn infill_mae(original: &Tensor3, infilled: &Tensor3, mask: &[bool]) -> f64 {
    infill_mae_cached(original, infilled, mask, global_cache())
}

/// [`infill_mae`] with an explicit cache (`None` = compute directly).
pub fn infill_mae_cached(
    original: &Tensor3,
    infilled: &Tensor3,
    mask: &[bool],
    ec: Option<&EvalCache>,
) -> f64 {
    check_shapes(original, infilled, mask);
    let compute = || {
        let (truth, fill) = masked_values(original, infilled, mask);
        if truth.is_empty() {
            return 0.0;
        }
        let sum: f64 = truth.iter().zip(&fill).map(|(t, f)| (t - f).abs()).sum();
        sum / truth.len() as f64
    };
    match ec {
        Some(ec) => {
            let key = CacheKey::new(
                "imp.MAE",
                digest_tensor(original),
                digest_tensor(infilled),
                digest_mask(mask),
            );
            *ec.get_or_insert_codable::<f64, _>(key, compute)
        }
        None => compute(),
    }
}

/// Squared MMD between the true and infilled value distributions at
/// masked positions (median-heuristic RBF kernel, unbiased estimator).
/// Masks with fewer than two masked entries score `0` — the unbiased
/// estimator is undefined there. Routed through the env-gated global
/// eval cache when it is on.
pub fn infill_mmd(original: &Tensor3, infilled: &Tensor3, mask: &[bool]) -> f64 {
    infill_mmd_cached(original, infilled, mask, global_cache())
}

/// [`infill_mmd`] with an explicit cache (`None` = compute directly).
/// The scalar is cached under `imp.MMD`; on a miss the inner MMD also
/// reuses the shared `pairwise.xx` block of the truth side, so scoring
/// many infills of one masked reference builds that block once.
pub fn infill_mmd_cached(
    original: &Tensor3,
    infilled: &Tensor3,
    mask: &[bool],
    ec: Option<&EvalCache>,
) -> f64 {
    check_shapes(original, infilled, mask);
    let compute = || {
        let (truth, fill) = masked_values(original, infilled, mask);
        if truth.len() < 2 {
            return 0.0;
        }
        let x = Matrix::from_vec(truth.len(), 1, truth).expect("n×1 shape is consistent");
        let y = Matrix::from_vec(fill.len(), 1, fill).expect("n×1 shape is consistent");
        mmd2_rows_cached(&x, &y, ec)
    };
    match ec {
        Some(ec) => {
            let key = CacheKey::new(
                "imp.MMD",
                digest_tensor(original),
                digest_tensor(infilled),
                digest_mask(mask),
            );
            *ec.get_or_insert_codable::<f64, _>(key, compute)
        }
        None => compute(),
    }
}

fn global_cache() -> Option<&'static EvalCache> {
    if tsgb_evalcache::enabled() {
        Some(tsgb_evalcache::global())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;
    use tsgb_rand::Rng;

    fn wave(r: usize, seed: u64) -> Tensor3 {
        let mut rng = seeded(seed);
        Tensor3::from_fn(r, 8, 2, |_, t, f| {
            0.5 + 0.3 * (t as f64 * 0.9 + f as f64).sin() + 0.05 * rng.gen::<f64>()
        })
    }

    /// Every third entry masked — enough structure to score on.
    fn stripe_mask(len: usize) -> Vec<bool> {
        (0..len).map(|i| i % 3 == 0).collect()
    }

    #[test]
    fn perfect_infill_scores_zero() {
        let t = wave(6, 1);
        let mask = stripe_mask(t.as_slice().len());
        assert_eq!(infill_mae_cached(&t, &t, &mask, None), 0.0);
        // the unbiased estimator dips slightly below zero on identical
        // sets (its cross term keeps the diagonal); never far below
        let m = infill_mmd_cached(&t, &t, &mask, None);
        assert!(m < 1e-9 && m > -0.1, "self-MMD = {m}");
    }

    #[test]
    fn mae_counts_masked_entries_only() {
        let t = wave(4, 2);
        let mut bad = t.clone();
        let mask = stripe_mask(t.as_slice().len());
        // corrupt one masked entry by 0.6 and one observed entry by 9.0:
        // only the masked error may show up
        let masked_at = mask.iter().position(|&b| b).unwrap();
        let observed_at = mask.iter().position(|&b| !b).unwrap();
        bad.as_mut_slice()[masked_at] += 0.6;
        bad.as_mut_slice()[observed_at] += 9.0;
        let n_masked = mask.iter().filter(|&&b| b).count() as f64;
        let mae = infill_mae_cached(&t, &bad, &mask, None);
        assert!((mae - 0.6 / n_masked).abs() < 1e-12, "mae = {mae}");
    }

    #[test]
    fn mmd_catches_distribution_collapse_mae_rewards() {
        // oversmoothed infill: every masked entry replaced by the mean
        // of the true masked values. Pointwise it is decent; its value
        // distribution is a spike.
        let t = wave(20, 3);
        let mask = stripe_mask(t.as_slice().len());
        let (truth, _) = masked_values(&t, &t, &mask);
        let mean = truth.iter().sum::<f64>() / truth.len() as f64;
        let mut smooth = t.clone();
        for (i, &m) in mask.iter().enumerate() {
            if m {
                smooth.as_mut_slice()[i] = mean;
            }
        }
        // honest infill: true values plus small seeded jitter
        let mut rng = seeded(4);
        let mut honest = t.clone();
        for (i, &m) in mask.iter().enumerate() {
            if m {
                honest.as_mut_slice()[i] += 0.02 * (rng.gen::<f64>() - 0.5);
            }
        }
        let mmd_smooth = infill_mmd_cached(&t, &smooth, &mask, None);
        let mmd_honest = infill_mmd_cached(&t, &honest, &mask, None);
        assert!(
            mmd_smooth > mmd_honest + 1e-4,
            "smooth {mmd_smooth} vs honest {mmd_honest}"
        );
    }

    #[test]
    fn empty_and_tiny_masks_are_degenerate_not_panics() {
        let t = wave(3, 5);
        let none = vec![false; t.as_slice().len()];
        assert_eq!(infill_mae_cached(&t, &t, &none, None), 0.0);
        assert_eq!(infill_mmd_cached(&t, &t, &none, None), 0.0);
        let mut one = none.clone();
        one[0] = true;
        assert_eq!(infill_mmd_cached(&t, &t, &one, None), 0.0);
    }

    #[test]
    fn cached_path_is_bit_identical_cold_and_warm() {
        let t = wave(10, 6);
        let mut infill = t.clone();
        let mask = stripe_mask(t.as_slice().len());
        let mut rng = seeded(7);
        for (i, &m) in mask.iter().enumerate() {
            if m {
                infill.as_mut_slice()[i] += 0.1 * rng.gen::<f64>();
            }
        }
        let plain_mae = infill_mae_cached(&t, &infill, &mask, None);
        let plain_mmd = infill_mmd_cached(&t, &infill, &mask, None);
        let ec = EvalCache::in_memory();
        let cold_mae = infill_mae_cached(&t, &infill, &mask, Some(&ec));
        let cold_mmd = infill_mmd_cached(&t, &infill, &mask, Some(&ec));
        let warm_mae = infill_mae_cached(&t, &infill, &mask, Some(&ec));
        let warm_mmd = infill_mmd_cached(&t, &infill, &mask, Some(&ec));
        for (plain, cold, warm) in [
            (plain_mae, cold_mae, warm_mae),
            (plain_mmd, cold_mmd, warm_mmd),
        ] {
            assert_eq!(plain.to_bits(), cold.to_bits());
            assert_eq!(cold.to_bits(), warm.to_bits());
        }
        // warm pass hit both scalar kinds without recomputing
        assert!(ec.stats().hits >= 2, "stats = {:?}", ec.stats());
    }

    #[test]
    fn mask_digest_separates_masks_and_ignores_padding() {
        let a = stripe_mask(48);
        let mut b = a.clone();
        b[1] = !b[1];
        assert_ne!(digest_mask(&a), digest_mask(&b));
        assert_ne!(digest_mask(&a[..47]), digest_mask(&a));
        assert_eq!(digest_mask(&a), digest_mask(&a.clone()));
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn mismatched_mask_length_panics() {
        let t = wave(2, 8);
        infill_mae_cached(&t, &t, &[true, false], None);
    }
}
