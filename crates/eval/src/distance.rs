//! Distance-based measures (paper §4.2, M11–M12) — the paper's
//! efficient, deterministic alternatives to DS/PS.
//!
//! M12 runs the exact `O(l^2)` DTW dynamic program. The monitor's
//! DTW nearest-neighbor search runs the banded kernels kept here: a
//! Sakoe-Chiba **banded** DP ([`dtw_pair_banded`], `O(l·band)`) that
//! is bit-equal to the exact DP once `band >= l`, an **LB_Keogh**
//! lower bound ([`lb_keogh`], `O(l·features)` after an `O(l)` Lemire
//! envelope sweep) that never exceeds the banded DTW cost, and a
//! pruned 1-NN search ([`dtw_nn`], [`DtwNnPool`]) that skips the DP
//! whenever the bound already beats a running cutoff.

use std::collections::VecDeque;
use tsgb_linalg::Tensor3;

/// Counts the windows a distance measure silently drops when the two
/// sample sets have unequal sizes — previously invisible to operators.
fn record_truncation(measure: &str, real: &Tensor3, generated: &Tensor3) {
    let dropped = real.samples().abs_diff(generated.samples());
    if dropped > 0 {
        tsgb_obs::counter_add(
            &format!("eval.distance.truncated_pairs.{measure}"),
            dropped as u64,
        );
    }
}

/// M11 — Euclidean Distance. Pairs original window `i` with generated
/// window `i` (both sets are shuffled i.i.d. samples) and averages the
/// per-channel `sqrt(sum_t (x_t - y_t)^2)` over channels, samples.
pub fn ed(real: &Tensor3, generated: &Tensor3) -> f64 {
    assert_eq!(
        (real.seq_len(), real.features()),
        (generated.seq_len(), generated.features()),
        "ED window shape mismatch"
    );
    let pairs = real.samples().min(generated.samples());
    assert!(pairs > 0, "ED needs at least one pair");
    record_truncation("ed", real, generated);
    let (l, n) = (real.seq_len(), real.features());
    // per-pair partial sums, computed in parallel and folded in pair
    // order — the serial (single-thread) path runs the identical code,
    // so the result is the same for every thread count
    let partials = tsgb_par::parallel_map(pairs, |s| {
        let mut part = 0.0;
        for f in 0..n {
            let mut acc = 0.0;
            for t in 0..l {
                let d = real.at(s, t, f) - generated.at(s, t, f);
                acc += d * d;
            }
            part += acc.sqrt();
        }
        part
    });
    partials.into_iter().sum::<f64>() / (pairs * n) as f64
}

/// Multivariate (dependent) DTW distance between two `(l, n)` windows:
/// the local cost between step vectors is their Euclidean distance and
/// the classic O(l^2) dynamic program finds the optimal alignment.
pub fn dtw_pair(a: &Tensor3, ai: usize, b: &Tensor3, bi: usize) -> f64 {
    let (la, n) = (a.seq_len(), a.features());
    let lb = b.seq_len();
    assert_eq!(n, b.features(), "DTW feature mismatch");
    let cost = |i: usize, j: usize| -> f64 {
        let mut acc = 0.0;
        for f in 0..n {
            let d = a.at(ai, i, f) - b.at(bi, j, f);
            acc += d * d;
        }
        acc.sqrt()
    };
    // rolling two-row DP
    let mut prev = vec![f64::INFINITY; lb + 1];
    let mut cur = vec![f64::INFINITY; lb + 1];
    prev[0] = 0.0;
    for i in 1..=la {
        cur[0] = f64::INFINITY;
        for j in 1..=lb {
            let c = cost(i - 1, j - 1);
            let best = prev[j].min(cur[j - 1]).min(prev[j - 1]);
            cur[j] = c + best;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[lb]
}

/// M12 — Dynamic Time Warping. Pairs windows by index like [`ed`] and
/// averages the multivariate DTW alignment cost of the exact DP.
pub fn dtw(real: &Tensor3, generated: &Tensor3) -> f64 {
    let pairs = real.samples().min(generated.samples());
    assert!(pairs > 0, "DTW needs at least one pair");
    record_truncation("dtw", real, generated);
    // each alignment is independent; fold the per-pair costs in pair
    // order so the mean is thread-count independent
    let costs = tsgb_par::parallel_map(pairs, |s| dtw_pair(real, s, generated, s));
    costs.into_iter().sum::<f64>() / pairs as f64
}

/// Widens a requested band until every row's window can reach both
/// sequence ends and consecutive windows overlap — the classic
/// `band >= |la - lb|` feasibility floor, with a minimum of one.
fn effective_band(la: usize, lb: usize, band: usize) -> usize {
    band.max(la.abs_diff(lb)).max(1)
}

/// The 0-based inclusive column window `[lo, hi]` of row `i` under a
/// band of width `band` around the slanted diagonal. Centers are
/// monotone in `i` (integer rounding), so the windows slide strictly
/// forward — the property the Lemire envelope sweep in [`lb_keogh`]
/// relies on.
fn band_window(i: usize, la: usize, lb: usize, band: usize) -> (usize, usize) {
    let center = if la > 1 {
        (i * (lb - 1) + (la - 1) / 2) / (la - 1)
    } else {
        0
    };
    (center.saturating_sub(band), (center + band).min(lb - 1))
}

/// Sakoe-Chiba banded DTW between two `(l, n)` windows: the classic
/// DP restricted to `|j - slant(i)| <= band`, `O(l·band)` instead of
/// `O(l^2)`. Cells outside the band stay at `+inf`, which the in-band
/// recurrence reads exactly like the exact DP reads its uninitialized
/// column 0 — so once the band covers every column the two functions
/// are bit-identical (pinned by `accel_properties.rs`).
pub fn dtw_pair_banded(a: &Tensor3, ai: usize, b: &Tensor3, bi: usize, band: usize) -> f64 {
    let (la, n) = (a.seq_len(), a.features());
    let lb = b.seq_len();
    assert_eq!(n, b.features(), "DTW feature mismatch");
    let band = effective_band(la, lb, band);
    let cost = |i: usize, j: usize| -> f64 {
        let mut acc = 0.0;
        for f in 0..n {
            let d = a.at(ai, i, f) - b.at(bi, j, f);
            acc += d * d;
        }
        acc.sqrt()
    };
    let mut prev = vec![f64::INFINITY; lb + 1];
    let mut cur = vec![f64::INFINITY; lb + 1];
    prev[0] = 0.0;
    for i in 1..=la {
        cur.fill(f64::INFINITY);
        let (lo, hi) = band_window(i - 1, la, lb, band);
        for j in lo + 1..=hi + 1 {
            let c = cost(i - 1, j - 1);
            let best = prev[j].min(cur[j - 1]).min(prev[j - 1]);
            cur[j] = c + best;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[lb]
}

/// LB_Keogh lower bound on [`dtw_pair_banded`] with the same band:
/// every banded warping path aligns row `i` with some column inside
/// `i`'s window, and the per-step Euclidean cost to *any* such column
/// is at least the distance from `a[i]` to the per-feature
/// `[min, max]` envelope of `b` over that window. Envelopes come from
/// one monotone-deque sweep per feature (Lemire), so the bound costs
/// `O(l·features)` — no square roots inside the sweep, which is what
/// makes pruning profitable.
pub fn lb_keogh(a: &Tensor3, ai: usize, b: &Tensor3, bi: usize, band: usize) -> f64 {
    let (la, n) = (a.seq_len(), a.features());
    let lb = b.seq_len();
    assert_eq!(n, b.features(), "LB_Keogh feature mismatch");
    let band = effective_band(la, lb, band);
    let mut acc = vec![0.0f64; la];
    let mut maxq: VecDeque<usize> = VecDeque::new();
    let mut minq: VecDeque<usize> = VecDeque::new();
    for f in 0..n {
        maxq.clear();
        minq.clear();
        let mut next_j = 0usize;
        for (i, slot) in acc.iter_mut().enumerate() {
            let (lo, hi) = band_window(i, la, lb, band);
            while next_j <= hi {
                let v = b.at(bi, next_j, f);
                while maxq.back().is_some_and(|&k| b.at(bi, k, f) <= v) {
                    maxq.pop_back();
                }
                maxq.push_back(next_j);
                while minq.back().is_some_and(|&k| b.at(bi, k, f) >= v) {
                    minq.pop_back();
                }
                minq.push_back(next_j);
                next_j += 1;
            }
            while maxq.front().is_some_and(|&k| k < lo) {
                maxq.pop_front();
            }
            while minq.front().is_some_and(|&k| k < lo) {
                minq.pop_front();
            }
            let u = b.at(bi, maxq[0], f);
            let l = b.at(bi, minq[0], f);
            let av = a.at(ai, i, f);
            let d = if av > u {
                av - u
            } else if av < l {
                l - av
            } else {
                0.0
            };
            *slot += d * d;
        }
    }
    acc.iter().map(|v| v.sqrt()).sum()
}

/// 1-nearest-neighbor of window `qi` of `query` among the windows of
/// `pool` under banded DTW, `(pool index, distance)`. Candidates are
/// visited in ascending `(LB_Keogh, index)` order with the running
/// best as the prune cutoff, so most DPs never run; once one bound
/// exceeds the best every later candidate is pruned wholesale (the
/// ordering makes their bounds at least as large).
pub fn dtw_nn(query: &Tensor3, qi: usize, pool: &Tensor3, band: usize) -> (usize, f64) {
    let m = pool.samples();
    assert!(m > 0, "dtw_nn needs a non-empty pool");
    let bounds: Vec<f64> = (0..m).map(|c| lb_keogh(query, qi, pool, c, band)).collect();
    nn_search(query, qi, pool, band, &bounds)
}

/// The prune-ordered search shared by [`dtw_nn`] and
/// [`DtwNnPool::nn`]: given per-candidate lower bounds, visit in
/// ascending `(bound, index)` order with the running best as cutoff,
/// running the banded DP only for candidates whose bound does not
/// exceed it. Both callers produce bit-equal bounds, so both produce
/// identical results. Pruned and searched candidates land in the
/// `eval.dtw.band_prune_{hits,misses}` counters.
fn nn_search(
    query: &Tensor3,
    qi: usize,
    pool: &Tensor3,
    band: usize,
    bounds: &[f64],
) -> (usize, f64) {
    let m = pool.samples();
    let mut order: Vec<(f64, usize)> = bounds.iter().copied().zip(0..m).collect();
    order.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    let mut best = (order[0].1, f64::INFINITY);
    for (k, &(bound, c)) in order.iter().enumerate() {
        if bound > best.1 {
            // sorted by bound: c and everything after it prune
            tsgb_obs::counter_add("eval.dtw.band_prune_hits", (m - k) as u64);
            break;
        }
        tsgb_obs::counter_add("eval.dtw.band_prune_misses", 1);
        let d = dtw_pair_banded(query, qi, pool, c, band);
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

/// A reference pool prepared for repeated DTW-NN queries of a fixed
/// query length: the per-feature Lemire `[min, max]` envelopes every
/// [`lb_keogh`] call would sweep are computed once per pool window
/// and retained, so each query's bound costs an `O(l·features)` read
/// instead of an `O(l·features)` sweep *plus* deque churn. The eval
/// cache holds one pool per `(reference digest, band, query_len)` —
/// the monitor's expensive-refresh loop reuses it across every
/// generated batch.
///
/// [`DtwNnPool::nn`] is bit-identical to [`dtw_nn`] with the same
/// band (pinned by `pool_nn_matches_dtw_nn_bitwise`): the envelopes
/// hold the same floats the sweep reads, and both routes share
/// `nn_search`.
pub struct DtwNnPool {
    pool: Tensor3,
    /// Effective band (after the feasibility floor), as applied.
    band: usize,
    /// The band requested at build time (the cache key parameter).
    requested_band: usize,
    query_len: usize,
    /// `env_u[((c * features) + f) * query_len + i]` = max of pool
    /// window `c`, feature `f` over query step `i`'s band window.
    env_u: Vec<f64>,
    /// Same layout, per-window minima.
    env_l: Vec<f64>,
}

impl DtwNnPool {
    /// Builds envelopes for every pool window (in parallel, one window
    /// per job).
    pub fn build(pool: &Tensor3, query_len: usize, band: usize) -> Self {
        let m = pool.samples();
        assert!(m > 0, "DtwNnPool needs a non-empty pool");
        assert!(query_len > 0, "DtwNnPool needs a positive query length");
        let (la, n) = (query_len, pool.features());
        let lb = pool.seq_len();
        let requested_band = band;
        let band = effective_band(la, lb, band);
        let per = n * la;
        let envelopes = tsgb_par::parallel_map(m, |c| {
            let mut u = vec![0.0f64; per];
            let mut l = vec![0.0f64; per];
            let mut maxq: VecDeque<usize> = VecDeque::new();
            let mut minq: VecDeque<usize> = VecDeque::new();
            for f in 0..n {
                maxq.clear();
                minq.clear();
                let mut next_j = 0usize;
                for i in 0..la {
                    let (lo, hi) = band_window(i, la, lb, band);
                    while next_j <= hi {
                        let v = pool.at(c, next_j, f);
                        while maxq.back().is_some_and(|&k| pool.at(c, k, f) <= v) {
                            maxq.pop_back();
                        }
                        maxq.push_back(next_j);
                        while minq.back().is_some_and(|&k| pool.at(c, k, f) >= v) {
                            minq.pop_back();
                        }
                        minq.push_back(next_j);
                        next_j += 1;
                    }
                    while maxq.front().is_some_and(|&k| k < lo) {
                        maxq.pop_front();
                    }
                    while minq.front().is_some_and(|&k| k < lo) {
                        minq.pop_front();
                    }
                    u[f * la + i] = pool.at(c, maxq[0], f);
                    l[f * la + i] = pool.at(c, minq[0], f);
                }
            }
            (u, l)
        });
        let mut env_u = Vec::with_capacity(m * per);
        let mut env_l = Vec::with_capacity(m * per);
        for (u, l) in envelopes {
            env_u.extend_from_slice(&u);
            env_l.extend_from_slice(&l);
        }
        Self {
            pool: pool.clone(),
            band,
            requested_band,
            query_len,
            env_u,
            env_l,
        }
    }

    /// The band this pool was built for (pre-floor, as requested).
    pub fn requested_band(&self) -> usize {
        self.requested_band
    }

    /// Query length this pool was built for.
    pub fn query_len(&self) -> usize {
        self.query_len
    }

    /// Windows in the pool.
    pub fn len(&self) -> usize {
        self.pool.samples()
    }

    /// Whether the pool is empty (never true — the constructor
    /// asserts — but clippy insists `len` has a partner).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// LB_Keogh of query window `qi` against pool window `c`, read
    /// from the retained envelopes. Identical accumulation order to
    /// [`lb_keogh`] (feature-outer, step-inner squared terms, then a
    /// sqrt-sum in step order), so the two are bit-equal.
    pub fn lb(&self, query: &Tensor3, qi: usize, c: usize) -> f64 {
        let (la, n) = (self.query_len, self.pool.features());
        assert_eq!(query.seq_len(), la, "query length differs from pool build");
        assert_eq!(query.features(), n, "LB_Keogh feature mismatch");
        let base = c * n * la;
        let mut acc = vec![0.0f64; la];
        for f in 0..n {
            let u_row = &self.env_u[base + f * la..base + (f + 1) * la];
            let l_row = &self.env_l[base + f * la..base + (f + 1) * la];
            for (i, slot) in acc.iter_mut().enumerate() {
                let (u, l) = (u_row[i], l_row[i]);
                let av = query.at(qi, i, f);
                let d = if av > u {
                    av - u
                } else if av < l {
                    l - av
                } else {
                    0.0
                };
                *slot += d * d;
            }
        }
        acc.iter().map(|v| v.sqrt()).sum()
    }

    /// 1-NN of query window `qi` in the pool — bit-identical to
    /// [`dtw_nn`] with this pool's band.
    pub fn nn(&self, query: &Tensor3, qi: usize) -> (usize, f64) {
        let bounds: Vec<f64> = (0..self.len()).map(|c| self.lb(query, qi, c)).collect();
        nn_search(query, qi, &self.pool, self.band, &bounds)
    }
}

/// Mean DTW distance from each window of `generated` to its nearest
/// pool neighbor — the monitor's incremental stand-in for the paired
/// M12 measure (a generated stream has no index pairing with the
/// reference). Per-window searches run in parallel; distances fold in
/// window order.
pub fn dtw_nn_mean(generated: &Tensor3, pool: &DtwNnPool) -> f64 {
    let s = generated.samples();
    assert!(s > 0, "dtw_nn_mean needs at least one window");
    let dists = tsgb_par::parallel_map(s, |i| pool.nn(generated, i).1);
    dists.into_iter().sum::<f64>() / s as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor_of(series: &[&[f64]]) -> Tensor3 {
        let l = series[0].len();
        Tensor3::from_fn(series.len(), l, 1, |s, t, _| series[s][t])
    }

    #[test]
    fn identical_scores_zero() {
        let a = tensor_of(&[&[0.1, 0.5, 0.9], &[0.2, 0.4, 0.6]]);
        assert_eq!(ed(&a, &a), 0.0);
        assert_eq!(dtw(&a, &a), 0.0);
    }

    #[test]
    fn ed_known_value() {
        let a = tensor_of(&[&[0.0, 0.0]]);
        let b = tensor_of(&[&[3.0, 4.0]]);
        assert!((ed(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn dtw_is_at_most_stepwise_cost() {
        // DTW with alignment can never exceed the step-by-step cost sum
        let a = tensor_of(&[&[0.0, 1.0, 0.0, 1.0]]);
        let b = tensor_of(&[&[1.0, 0.0, 1.0, 0.0]]);
        let stepwise: f64 = 4.0; // |1| at each of 4 steps
        assert!(dtw(&a, &b) <= stepwise + 1e-12);
    }

    #[test]
    fn dtw_forgives_time_shift_ed_does_not() {
        // identical sawtooth, shifted by one step
        let base: Vec<f64> = (0..16).map(|i| ((i % 8) as f64) / 8.0).collect();
        let shifted: Vec<f64> = (0..16).map(|i| (((i + 1) % 8) as f64) / 8.0).collect();
        let a = tensor_of(&[&base]);
        let b = tensor_of(&[&shifted]);
        let e = ed(&a, &b);
        let d = dtw(&a, &b);
        assert!(
            d < e,
            "DTW ({d}) should be below ED ({e}) for shifted series"
        );
    }

    #[test]
    fn dtw_symmetric() {
        let a = tensor_of(&[&[0.1, 0.9, 0.3, 0.7]]);
        let b = tensor_of(&[&[0.4, 0.2, 0.8, 0.5]]);
        assert!((dtw(&a, &b) - dtw(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn multivariate_dtw_uses_joint_cost() {
        // two channels that cancel in one channel but not jointly
        let a = Tensor3::from_fn(1, 3, 2, |_, t, f| if f == 0 { t as f64 } else { 0.0 });
        let b = Tensor3::from_fn(1, 3, 2, |_, t, f| if f == 0 { t as f64 } else { 1.0 });
        // channel 0 identical, channel 1 offset by 1 at each of 3 steps
        assert!((dtw(&a, &b) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn unequal_sample_counts_use_min_pairs() {
        let a = tensor_of(&[&[0.0, 0.0], &[1.0, 1.0]]);
        let b = tensor_of(&[&[0.0, 0.0]]);
        assert_eq!(ed(&a, &b), 0.0);
        assert_eq!(dtw(&a, &b), 0.0);
    }

    #[test]
    fn full_band_bits_match_exact_dp() {
        let a = tensor_of(&[&[0.13, 0.87, 0.41, 0.66, 0.09]]);
        let b = tensor_of(&[&[0.55, 0.21, 0.93, 0.38, 0.72]]);
        let exact = dtw_pair(&a, 0, &b, 0);
        for band in [5, 6, 100] {
            let banded = dtw_pair_banded(&a, 0, &b, 0, band);
            assert_eq!(banded.to_bits(), exact.to_bits(), "band {band}");
        }
    }

    #[test]
    fn narrow_band_never_beats_exact() {
        // the band removes paths, so its optimum can only be worse
        let base: Vec<f64> = (0..32).map(|i| ((i * 7) % 13) as f64 / 13.0).collect();
        let other: Vec<f64> = (0..32).map(|i| ((i * 5 + 3) % 11) as f64 / 11.0).collect();
        let a = tensor_of(&[&base]);
        let b = tensor_of(&[&other]);
        let exact = dtw_pair(&a, 0, &b, 0);
        let mut last = f64::INFINITY;
        for band in [1usize, 2, 4, 8, 32] {
            let v = dtw_pair_banded(&a, 0, &b, 0, band);
            assert!(v >= exact - 1e-12, "band {band}: {v} < exact {exact}");
            assert!(v <= last + 1e-12, "cost must shrink as the band widens");
            last = v;
        }
    }

    #[test]
    fn lb_keogh_bounds_banded_dtw() {
        let a = tensor_of(&[&[0.2, 0.8, 0.5, 0.1, 0.9, 0.4]]);
        let b = tensor_of(&[&[0.7, 0.3, 0.6, 0.2, 0.5, 0.8]]);
        for band in [1usize, 2, 6] {
            let lb = lb_keogh(&a, 0, &b, 0, band);
            let d = dtw_pair_banded(&a, 0, &b, 0, band);
            assert!(lb <= d + 1e-12, "band {band}: lb {lb} > dtw {d}");
        }
        // identical windows: the envelope contains every step exactly
        assert_eq!(lb_keogh(&a, 0, &a, 0, 2), 0.0);
    }

    #[test]
    fn dtw_nn_finds_the_closest_window() {
        let query = tensor_of(&[&[0.5, 0.6, 0.7, 0.8]]);
        let pool = tensor_of(&[
            &[9.0, 9.0, 9.0, 9.0],
            &[0.5, 0.6, 0.7, 0.8],
            &[-3.0, -3.0, -3.0, -3.0],
        ]);
        let (idx, d) = dtw_nn(&query, 0, &pool, 2);
        assert_eq!(idx, 1);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn pool_lb_matches_lb_keogh_bitwise() {
        let mut rng = tsgb_linalg::rng::seeded(31);
        use tsgb_rand::Rng;
        let pool = Tensor3::from_fn(9, 12, 2, |_, _, _| rng.gen::<f64>() * 2.0 - 1.0);
        let query = Tensor3::from_fn(5, 12, 2, |_, _, _| rng.gen::<f64>() * 2.0 - 1.0);
        for band in [1usize, 3, 12, 40] {
            let p = DtwNnPool::build(&pool, query.seq_len(), band);
            for qi in 0..query.samples() {
                for c in 0..pool.samples() {
                    let direct = lb_keogh(&query, qi, &pool, c, band);
                    assert_eq!(
                        p.lb(&query, qi, c).to_bits(),
                        direct.to_bits(),
                        "band {band}, qi {qi}, c {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn pool_nn_matches_dtw_nn_bitwise() {
        let mut rng = tsgb_linalg::rng::seeded(32);
        use tsgb_rand::Rng;
        let pool = Tensor3::from_fn(14, 10, 2, |_, _, _| rng.gen::<f64>() * 2.0 - 1.0);
        let query = Tensor3::from_fn(7, 10, 2, |_, _, _| rng.gen::<f64>() * 2.0 - 1.0);
        for band in [2usize, 10] {
            let p = DtwNnPool::build(&pool, query.seq_len(), band);
            for qi in 0..query.samples() {
                let (ci, cd) = p.nn(&query, qi);
                let (di, dd) = dtw_nn(&query, qi, &pool, band);
                assert_eq!(ci, di, "band {band}, qi {qi}");
                assert_eq!(cd.to_bits(), dd.to_bits(), "band {band}, qi {qi}");
            }
        }
    }

    #[test]
    fn dtw_nn_mean_is_zero_when_pool_contains_the_queries() {
        let q = tensor_of(&[&[0.1, 0.5, 0.9, 0.3], &[0.7, 0.2, 0.6, 0.4]]);
        let pool_t = tensor_of(&[
            &[0.1, 0.5, 0.9, 0.3],
            &[9.0, 9.0, 9.0, 9.0],
            &[0.7, 0.2, 0.6, 0.4],
        ]);
        let pool = DtwNnPool::build(&pool_t, 4, 2);
        assert_eq!(dtw_nn_mean(&q, &pool), 0.0);
    }
}
