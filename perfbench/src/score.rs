//! `score`: the full `EvalConfig::fast()` suite plus the Figure-6
//! t-SNE overlap and DistPlot divergence, on candidate sets scored
//! against a fixed sine reference at the two Table-4 window lengths.
//!
//! No method is trained, so eval does nearly all the work; `tsgb-nn`
//! runs only the post-hoc DS/PS/C-FID fits. Each pass scores through a
//! fresh run-local `EvalCache`: the first candidate of a shape writes
//! the reference-only entries and every later one reads them.

use std::time::{Duration, Instant};

use tsgb_data::drift::{self, DriftKind};
use tsgb_data::sine::{sine_dataset, table4_shapes};
use tsgb_eval::distplot::DistPlot;
use tsgb_eval::suite::{self, EvalConfig, EvalResult, Measure};
use tsgb_eval::tsne::{self, TsneConfig};
use tsgb_evalcache::EvalCache;
use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_wire::digest::Fnv64;

use crate::grid::{eval_metrics, nn_metrics};
use crate::harness::{self, median, Args, Metrics, Obs, Tally};
use crate::Outcome;

/// Reference windows per shape (the Table-4 shapes scaled to `R`).
const R: usize = 100;
/// Windows per side fed to t-SNE and the DistPlot, as in Figure 6.
const VIS_TAKE: usize = 60;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The measures whose value on an identical copy is exactly 0.
const ZERO_ON_IDENTICAL: [Measure; 6] = [
    Measure::Mdd,
    Measure::Acd,
    Measure::Sd,
    Measure::Kd,
    Measure::Ed,
    Measure::Dtw,
];

struct Shape {
    reference: Tensor3,
    /// `(name, windows)`: an identical copy, an independent re-sample,
    /// and the re-sample under each drift kind.
    candidates: Vec<(String, Tensor3)>,
    /// Seed of every candidate's scoring stream at this shape: shared,
    /// so the post-hoc jobs draw the same seeds and reference-only
    /// cache entries are reused across candidates.
    stream_seed: u64,
}

fn setup(seed: u64) -> Vec<Shape> {
    table4_shapes(R)
        .into_iter()
        .enumerate()
        .map(|(i, (r, l, n))| {
            let mut rng = seeded(seed ^ (0x5C0 + i as u64));
            let reference = sine_dataset(r, l, n, &mut rng);
            let resample = sine_dataset(r, l, n, &mut rng);
            let mut candidates = vec![
                ("identical".to_string(), reference.clone()),
                ("resample".to_string(), resample.clone()),
            ];
            for kind in DriftKind::ALL {
                candidates.push((
                    kind.name().to_string(),
                    drift::inject(&resample, kind, 1.0, seed ^ kind as u64),
                ));
            }
            Shape {
                reference,
                candidates,
                stream_seed: seed.wrapping_mul(31).wrapping_add(l as u64),
            }
        })
        .collect()
}

fn eval_cfg() -> EvalConfig {
    EvalConfig::fast()
}

/// One candidate scored at one shape.
struct Scored {
    scores: EvalResult,
    overlap: f64,
    divergence: f64,
}

/// Scores one candidate at one shape: the suite through `cache`, then
/// the t-SNE overlap and the DistPlot divergence on the first
/// [`VIS_TAKE`] windows of each side (the t-SNE phases record their own
/// spans; the DistPlot call is timed here).
fn score_one(
    shape: &Shape,
    cand: &Tensor3,
    cache: &EvalCache,
    distplot_ms: &mut Vec<f64>,
) -> Scored {
    let mut rng = seeded(shape.stream_seed);
    let scores = suite::evaluate_cached(&shape.reference, cand, &eval_cfg(), &mut rng, cache);
    let take = VIS_TAKE.min(cand.samples());
    let real_sub = shape.reference.slice_samples(0, take);
    let gen_sub = cand.slice_samples(0, take);
    let cfg = TsneConfig {
        iterations: 120,
        ..TsneConfig::default()
    };
    let emb = tsne::tsne_joint(&real_sub, &gen_sub, &cfg, &mut rng);
    let overlap = tsne::nn_overlap(&emb);
    let t = Instant::now();
    let divergence = DistPlot::new(&real_sub, &gen_sub, 100).divergence();
    distplot_ms.push(t.elapsed().as_secs_f64() * 1e3);
    Scored {
        scores,
        overlap,
        divergence,
    }
}

/// One pass: every candidate set (a candidate at both window lengths)
/// through a fresh cache. Returns each set's latency (ms), the scores
/// in `[candidate][shape]` order, and their digest.
fn pass(
    shapes: &[Shape],
    tally: &mut Tally,
    distplot_ms: &mut Vec<f64>,
) -> (Vec<f64>, Vec<Vec<Scored>>, u64) {
    let cache = EvalCache::in_memory();
    let mut digest = Fnv64::new();
    let mut set_ms = Vec::new();
    let mut out = Vec::new();
    for c in 0..shapes[0].candidates.len() {
        let t0 = Instant::now();
        let set: Vec<Scored> = shapes
            .iter()
            .map(|shape| score_one(shape, &shape.candidates[c].1, &cache, distplot_ms))
            .collect();
        set_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        for (shape, s) in shapes.iter().zip(&set) {
            let name = &shape.candidates[c].0;
            let l = shape.reference.seq_len();
            let finite = s
                .scores
                .iter()
                .all(|(_, v)| v.mean.is_finite() && v.std.is_finite())
                && s.overlap.is_finite()
                && s.divergence.is_finite()
                && s.scores.len() == harness::SCORED_MEASURES.len();
            tally.record(finite, || {
                format!("{name} at l={l}: missing or non-finite score")
            });
            if name == "identical" {
                for m in ZERO_ON_IDENTICAL {
                    let v = s.scores.get(m).map(|v| v.mean);
                    tally.record(v == Some(0.0), || {
                        format!(
                            "identical at l={l}: {} = {v:?}, expected exactly 0",
                            m.label()
                        )
                    });
                }
            }
            for (m, v) in s.scores.iter() {
                digest
                    .update_u64(m as u64)
                    .update_u64(v.mean.to_bits())
                    .update_u64(v.std.to_bits());
            }
            digest
                .update_u64(s.overlap.to_bits())
                .update_u64(s.divergence.to_bits());
        }
        out.push(set);
    }
    (set_ms, out, digest.finish())
}

pub fn run(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let mut warm_digests = Vec::new();
    // set-up ends at the first timed pass, so it includes an untimed
    // first pass that warms allocator pools; its scores are the
    // reference every later pass must reproduce
    let ((shapes, reference, ref_digest), setup_s) = harness::repeated_setup(SETUPS, || {
        let shapes = setup(args.seed);
        let (_, reference, digest) = pass(&shapes, &mut tally, &mut Vec::new());
        warm_digests.push(digest);
        (shapes, reference, digest)
    });
    tally.record(warm_digests.iter().all(|&d| d == ref_digest), || {
        format!("warm-up passes disagree: {warm_digests:016x?}")
    });
    let sets = shapes[0].candidates.len() as f64;
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut set_ms = Vec::new();
    let mut distplot_ms = Vec::new();
    let peak_rss_mb = harness::peak_rss_mb();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut n = 0;
    // at least three passes, so the printed tail has enough sets
    while n < 3 || Instant::now() < deadline || (args.trace && traced_s.is_empty()) {
        let traced = args.trace && n % 2 == 1;
        tsgb_obs::set_enabled(traced);
        let t0 = Instant::now();
        let mut dp = Vec::new();
        let (ms, _, digest) = pass(&shapes, &mut tally, &mut dp);
        let secs = t0.elapsed().as_secs_f64();
        tsgb_obs::set_enabled(false);
        eprintln!(
            "score pass {n} ({}): {secs:.3} s",
            if traced { "traced" } else { "untraced" }
        );
        if traced {
            traced_s.push(secs);
            distplot_ms.extend(dp);
        } else {
            untraced_s.push(secs);
        }
        set_ms.extend(ms);
        tally.record(digest == ref_digest, || {
            format!("pass {n}: scores {digest:016x} differ from the warm-up pass {ref_digest:016x}")
        });
        n += 1;
    }

    // the cache must not change a bit: re-score the re-sample at the
    // first shape without one and compare every measure
    let shape = &shapes[0];
    let cached = &reference[1][0].scores;
    let plain = suite::evaluate(
        &shape.reference,
        &shape.candidates[1].1,
        &eval_cfg(),
        &mut seeded(shape.stream_seed),
    );
    let same = plain.len() == cached.len()
        && plain.iter().zip(cached.iter()).all(|((ma, a), (mb, b))| {
            ma == mb && a.mean.to_bits() == b.mean.to_bits() && a.std.to_bits() == b.std.to_bits()
        });
    tally.record(same, || {
        "cached scores differ from uncached suite::evaluate".into()
    });

    let mut m = Metrics::default();
    if args.trace {
        let obs = Obs::take();
        let passes = traced_s.len() as f64;
        nn_metrics(&mut m, &obs, passes);
        eval_metrics(&mut m, &obs);
        m.set(
            "eval.tsne.affinities_ms",
            obs.hist_mean("span.eval.tsne.affinities_ms"),
        );
        m.set(
            "eval.tsne.optimize_ms",
            obs.hist_mean("span.eval.tsne.optimize_ms"),
        );
        m.set("eval.distplot_ms", harness::mean(&distplot_ms));
        m.set(
            "evalcache.hit_ratio",
            obs.share("evalcache.hits", &["evalcache.misses"]),
        );
        m.set("evalcache.bytes", obs.gauge("evalcache.bytes"));
        m.set(
            "evalcache.evictions",
            obs.counter("evalcache.evictions") / passes,
        );
        m.set(
            "obs.overhead_frac",
            median(&traced_s) / median(&untraced_s) - 1.0,
        );
    } else {
        let tail = harness::tail(&set_ms).expect("score passes give enough sets");
        eprintln!(
            "score: {} passes, median {:.3} s; set latency p{} {:.1} ms of {} sets",
            untraced_s.len(),
            median(&untraced_s),
            tail.percentile,
            tail.value,
            tail.samples
        );
        m.set("setup_s", setup_s);
        m.set("peak_rss_mb", peak_rss_mb);
        m.set("throughput", sets / median(&untraced_s));
        m.set("p50_ms", median(&set_ms));
    }
    Outcome { tally, metrics: m }
}
