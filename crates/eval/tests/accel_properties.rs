//! Properties of the banded/pruned DTW kernels behind the monitor's
//! DTW-NN search, and of t-SNE, over seeded random tensors:
//!
//! * a band covering the whole window is **bit-equal** to the exact
//!   DTW dynamic program;
//! * LB_Keogh never exceeds the banded DTW cost it bounds (and, with a
//!   full band, never exceeds the exact cost);
//! * the pruned 1-NN search agrees with an unpruned scan;
//! * t-SNE is bit-identical across 1/2/4/8 pool threads and separates
//!   a seeded bimodal real/generated fixture.

use tsgb_eval::distance::{dtw, dtw_nn, dtw_pair, dtw_pair_banded, ed, lb_keogh};
use tsgb_eval::tsne::{self, nn_overlap, TsneConfig};
use tsgb_linalg::rng::seeded;
use tsgb_linalg::{Matrix, Tensor3};
use tsgb_rand::Rng;

fn random_tensor(samples: usize, l: usize, feats: usize, seed: u64) -> Tensor3 {
    let mut rng = seeded(seed);
    Tensor3::from_fn(samples, l, feats, |_, _, _| rng.gen_range(-1.5..1.5))
}

#[test]
fn full_band_is_bit_equal_to_exact_dp_seeded() {
    for seed in 0..12u64 {
        let mut rng = seeded(0xBA0 + seed);
        let l = rng.gen_range(2usize..40);
        let feats = rng.gen_range(1usize..4);
        let a = random_tensor(1, l, feats, seed * 2 + 1);
        let b = random_tensor(1, l, feats, seed * 2 + 2);
        let exact = dtw_pair(&a, 0, &b, 0);
        for band in [l, l + 1, 4 * l] {
            let banded = dtw_pair_banded(&a, 0, &b, 0, band);
            assert_eq!(
                banded.to_bits(),
                exact.to_bits(),
                "seed {seed} l {l} band {band}: {banded} != {exact}"
            );
        }
    }
}

#[test]
fn lb_keogh_never_exceeds_banded_dtw_seeded() {
    for seed in 0..20u64 {
        let mut rng = seeded(0x1B + seed);
        let l = rng.gen_range(2usize..48);
        let feats = rng.gen_range(1usize..4);
        let a = random_tensor(1, l, feats, seed * 3 + 1);
        let b = random_tensor(1, l, feats, seed * 3 + 2);
        for band in [1usize, 2, l / 4 + 1, l] {
            let lb = lb_keogh(&a, 0, &b, 0, band);
            let d = dtw_pair_banded(&a, 0, &b, 0, band);
            assert!(
                lb <= d + 1e-9,
                "seed {seed} l {l} band {band}: lb {lb} > dtw {d}"
            );
        }
        // with a full band the bound also sits under the exact cost
        let lb_full = lb_keogh(&a, 0, &b, 0, l);
        let exact = dtw_pair(&a, 0, &b, 0);
        assert!(lb_full <= exact + 1e-9, "seed {seed}: {lb_full} > {exact}");
    }
}

#[test]
fn lb_keogh_handles_unequal_lengths() {
    for (la, lb_len) in [(5usize, 19usize), (19, 5), (1, 8), (8, 1)] {
        let a = random_tensor(1, la, 2, la as u64);
        let b = random_tensor(1, lb_len, 2, lb_len as u64 + 100);
        for band in [1usize, 3, la.max(lb_len)] {
            let lb = lb_keogh(&a, 0, &b, 0, band);
            let d = dtw_pair_banded(&a, 0, &b, 0, band);
            assert!(d.is_finite(), "band widening must keep the DP feasible");
            assert!(lb <= d + 1e-9, "({la},{lb_len}) band {band}: {lb} > {d}");
        }
    }
}

/// Serializes the tests that touch the pruned-DTW path against the
/// one that enables process-global metric recording: a concurrent
/// `dtw_nn` would otherwise leak into its exact counter assertions.
static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn pruned_search_agrees_with_unpruned_scan() {
    let _g = OBS_LOCK.lock().unwrap();
    let query = random_tensor(3, 24, 2, 77);
    let pool = random_tensor(25, 24, 2, 78);
    for qi in 0..query.samples() {
        for band in [2usize, 6, 24] {
            let (idx, d) = dtw_nn(&query, qi, &pool, band);
            // reference: full scan, min by (cost, index)
            let mut best = (usize::MAX, f64::INFINITY);
            for c in 0..pool.samples() {
                let cost = dtw_pair_banded(&query, qi, &pool, c, band);
                if cost < best.1 {
                    best = (c, cost);
                }
            }
            assert_eq!(
                (idx, d.to_bits()),
                (best.0, best.1.to_bits()),
                "qi {qi} band {band}"
            );
        }
    }
}

fn embed_bits(x: &Matrix, cfg: &TsneConfig, threads: usize) -> Vec<u64> {
    tsgb_par::with_threads(threads, || {
        let mut rng = seeded(4242);
        tsne::tsne(x, cfg, &mut rng)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    })
}

#[test]
fn tsne_bit_identical_across_thread_counts() {
    let mut rng = seeded(5);
    let x = Matrix::from_fn(36, 8, |_, _| rng.gen_range(-1.0..1.0));
    let cfg = TsneConfig {
        iterations: 50,
        ..TsneConfig::default()
    };
    let serial = embed_bits(&x, &cfg, 1);
    for threads in [2usize, 4, 8] {
        assert_eq!(
            embed_bits(&x, &cfg, threads),
            serial,
            "differs at {threads} threads"
        );
    }
}

/// Seeded bimodal fixture: real windows around 0, generated around 8.
fn bimodal() -> (Tensor3, Tensor3) {
    let mut rng = seeded(31);
    let real = Tensor3::from_fn(30, 6, 1, |_, _, _| rng.gen_range(-0.5..0.5));
    let gen = Tensor3::from_fn(30, 6, 1, |_, _, _| 8.0 + rng.gen_range(-0.5..0.5));
    (real, gen)
}

#[test]
fn tsne_preserves_bimodal_cluster_split() {
    let (real, gen) = bimodal();
    let cfg = TsneConfig {
        iterations: 150,
        ..TsneConfig::default()
    };
    let mut rng = seeded(32);
    let e = tsne::tsne_joint(&real, &gen, &cfg, &mut rng);
    assert!(e.points.all_finite());
    // trustworthiness proxy 1: separated inputs stay separated, so
    // almost no generated point should have a real nearest neighbor
    let overlap = nn_overlap(&e);
    assert!(overlap <= 0.15, "clusters merged: overlap {overlap}");
    // trustworthiness proxy 2: centroid gap dominates within-spread
    let centroid = |lo: usize, hi: usize| {
        let mut c = [0.0f64; 2];
        for r in lo..hi {
            c[0] += e.points[(r, 0)];
            c[1] += e.points[(r, 1)];
        }
        [c[0] / (hi - lo) as f64, c[1] / (hi - lo) as f64]
    };
    let (ca, cb) = (centroid(0, 30), centroid(30, 60));
    let between = ((ca[0] - cb[0]).powi(2) + (ca[1] - cb[1]).powi(2)).sqrt();
    let mut within = 0.0;
    for r in 0..30 {
        within += ((e.points[(r, 0)] - ca[0]).powi(2) + (e.points[(r, 1)] - ca[1]).powi(2)).sqrt();
    }
    within /= 30.0;
    assert!(
        between > 2.0 * within,
        "between {between} not >> within {within}"
    );
}

/// The obs counters behind the DTW and t-SNE kernels. One test owns every
/// enabled-recording scenario in this binary: the registry is
/// process-global and tests run concurrently.
#[test]
fn obs_counters_record_pruning_and_truncation() {
    let _g = OBS_LOCK.lock().unwrap();
    tsgb_obs::set_enabled(true);
    tsgb_obs::reset();

    // forced prune miss + hit: a two-window pool of the query itself
    // (searched, distance 0) and a copy shifted far away (pruned)
    let a = random_tensor(1, 12, 1, 900);
    let pool = Tensor3::from_fn(2, 12, 1, |s, t, f| a.at(0, t, f) + 50.0 * s as f64);
    assert_eq!(dtw_nn(&a, 0, &pool, 3), (0, 0.0));

    // silent min(pairs) truncation on unequal sample counts
    let many = random_tensor(7, 12, 1, 902);
    let few = random_tensor(4, 12, 1, 903);
    let _ = ed(&many, &few);
    let _ = dtw(&many, &few);

    // t-SNE phase spans
    let mut rng = seeded(904);
    let x = Matrix::from_fn(40, 4, |_, _| rng.gen_range(-1.0..1.0));
    let cfg = TsneConfig {
        iterations: 5,
        ..TsneConfig::default()
    };
    let _ = tsne::tsne(&x, &cfg, &mut rng);

    let snap = tsgb_obs::snapshot();
    tsgb_obs::set_enabled(false);
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    assert_eq!(counter("eval.dtw.band_prune_hits"), Some(1));
    assert_eq!(counter("eval.dtw.band_prune_misses"), Some(1));
    assert_eq!(counter("eval.distance.truncated_pairs.ed"), Some(3));
    assert_eq!(counter("eval.distance.truncated_pairs.dtw"), Some(3));
    assert!(
        snap.histograms
            .iter()
            .any(|(n, _)| n == "span.eval.tsne.optimize_ms"),
        "t-SNE phase span missing"
    );
}
