//! The incremental-evaluation contract at the suite level: a cached
//! run is bit-identical to an uncached run, a warm re-run serves
//! every measure from the cache, and a changed generated set gets
//! fresh (correct) values while still reusing reference-only entries.

use tsgb_eval::suite::{evaluate, evaluate_cached, EvalConfig};
use tsgb_evalcache::EvalCache;
use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_rand::Rng;

fn sines(r: usize, seed: u64) -> Tensor3 {
    let mut rng = seeded(seed);
    Tensor3::from_fn(r, 8, 2, |_, t, _| {
        let phase: f64 = rng.gen::<f64>() * std::f64::consts::TAU;
        0.5 + 0.4 * (0.8 * t as f64 + phase).sin()
    })
}

fn assert_bit_identical(a: &tsgb_eval::EvalResult, b: &tsgb_eval::EvalResult) {
    let av: Vec<_> = a.iter().collect();
    let bv: Vec<_> = b.iter().collect();
    assert_eq!(av.len(), bv.len());
    for ((ma, sa), (mb, sb)) in av.iter().zip(&bv) {
        assert_eq!(ma, mb);
        assert_eq!(sa.mean.to_bits(), sb.mean.to_bits(), "{ma:?} mean");
        assert_eq!(sa.std.to_bits(), sb.std.to_bits(), "{ma:?} std");
    }
}

#[test]
fn cached_suite_is_bit_identical_to_uncached() {
    let real = sines(30, 1);
    let generated = sines(30, 2);
    let cfg = EvalConfig::fast();
    let plain = evaluate(&real, &generated, &cfg, &mut seeded(3));
    let cache = EvalCache::in_memory();
    let cached = evaluate_cached(&real, &generated, &cfg, &mut seeded(3), &cache);
    assert_bit_identical(&plain, &cached);
}

#[test]
fn warm_rerun_hits_every_measure() {
    let real = sines(30, 4);
    let generated = sines(30, 5);
    let cfg = EvalConfig::fast();
    let cache = EvalCache::in_memory();
    let cold = evaluate_cached(&real, &generated, &cfg, &mut seeded(6), &cache);
    let cold_stats = cache.stats();
    assert_eq!(cold_stats.hits, 0, "first run cannot hit");
    assert!(cold_stats.misses > 0);
    // identical inputs + identical RNG stream => every entry warm
    let warm = evaluate_cached(&real, &generated, &cfg, &mut seeded(6), &cache);
    let warm_stats = cache.stats();
    assert_bit_identical(&cold, &warm);
    assert_eq!(
        warm_stats.misses, cold_stats.misses,
        "warm run must not rebuild anything"
    );
    // every per-measure entry is served warm: one per (model-based
    // measure, repeat) job plus the six deterministic measures. The
    // cfid.ref sub-entries are not re-read — the suite-level C-FID
    // hit short-circuits them.
    let expected = 3 * cfg.repeats as u64 + 6;
    assert_eq!(warm_stats.hits, expected);
}

#[test]
fn changed_generated_set_is_recomputed_not_served_stale() {
    let real = sines(30, 7);
    let gen_a = sines(30, 8);
    let gen_b = sines(30, 9);
    let cfg = EvalConfig::deterministic_only();
    let cache = EvalCache::in_memory();
    let a = evaluate_cached(&real, &gen_a, &cfg, &mut seeded(10), &cache);
    let b = evaluate_cached(&real, &gen_b, &cfg, &mut seeded(10), &cache);
    // fresh values for the new generated set, equal to uncached runs
    let b_plain = evaluate(&real, &gen_b, &cfg, &mut seeded(10));
    assert_bit_identical(&b, &b_plain);
    // a genuinely different generated set scores differently somewhere
    assert!(
        a.iter()
            .zip(b.iter())
            .any(|((_, sa), (_, sb))| sa.mean != sb.mean),
        "two different generated sets scored identically on every measure"
    );
}

#[test]
fn cfid_reference_fit_is_shared_across_generated_sets() {
    let real = sines(25, 11);
    let gen_a = sines(25, 12);
    let gen_b = sines(25, 13);
    let cfg = EvalConfig {
        repeats: 1,
        ..EvalConfig::fast()
    };
    let cache = EvalCache::in_memory();
    evaluate_cached(&real, &gen_a, &cfg, &mut seeded(14), &cache);
    let after_a = cache.stats();
    // same seed stream (fresh rng with the same seed), new generated
    // set: the per-measure scores miss but the cfid.ref entry hits
    evaluate_cached(&real, &gen_b, &cfg, &mut seeded(14), &cache);
    let after_b = cache.stats();
    assert!(
        after_b.hits > after_a.hits,
        "reference-only entry (cfid.ref) must hit across generated sets"
    );
}
