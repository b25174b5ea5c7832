//! The orchestrated twelve-measure suite (paper §4.2) — produces one
//! row of Figure 5 / Table 4 per call.

use crate::distance;
use crate::feature_based;
use crate::model_based::{self, PostHocConfig, PsVariant};
use tsgb_evalcache::{digest_tensor, CacheKey, EvalCache, Fnv64};
use tsgb_linalg::Tensor3;
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::{Rng, SeedableRng};

/// The quantitative measures of the suite (visualization measures M9
/// and M10 are exported separately as data series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Measure {
    /// M1 — Discriminative Score.
    Ds,
    /// M2 — Predictive Score (next-step).
    Ps,
    /// M2b — Predictive Score (entire-sequence), Table 4's variant.
    PsEntire,
    /// M3 — Contextual-FID.
    CFid,
    /// M4 — Marginal Distribution Difference.
    Mdd,
    /// M5 — AutoCorrelation Difference.
    Acd,
    /// M6 — Skewness Difference.
    Sd,
    /// M7 — Kurtosis Difference.
    Kd,
    /// M8 — Training time (seconds), reported not computed here.
    TrainTime,
    /// M11 — Euclidean Distance.
    Ed,
    /// M12 — Dynamic Time Warping.
    Dtw,
}

impl Measure {
    /// The ten quantitative measures of Figure 5, in display order
    /// (training time is appended by the harness from `TrainReport`).
    pub const FIGURE5: [Measure; 9] = [
        Measure::Ds,
        Measure::Ps,
        Measure::CFid,
        Measure::Mdd,
        Measure::Acd,
        Measure::Sd,
        Measure::Kd,
        Measure::Ed,
        Measure::Dtw,
    ];

    /// All quantitative measures including the PS variant and time.
    pub const ALL: [Measure; 11] = [
        Measure::Ds,
        Measure::Ps,
        Measure::PsEntire,
        Measure::CFid,
        Measure::Mdd,
        Measure::Acd,
        Measure::Sd,
        Measure::Kd,
        Measure::TrainTime,
        Measure::Ed,
        Measure::Dtw,
    ];

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Measure::Ds => "DS",
            Measure::Ps => "PS",
            Measure::PsEntire => "PS (entire)",
            Measure::CFid => "C-FID",
            Measure::Mdd => "MDD",
            Measure::Acd => "ACD",
            Measure::Sd => "SD",
            Measure::Kd => "KD",
            Measure::TrainTime => "Training Time",
            Measure::Ed => "ED",
            Measure::Dtw => "DTW",
        }
    }

    /// Whether the measure involves post-hoc model training (and is
    /// therefore stochastic and repeated).
    pub fn is_model_based(self) -> bool {
        matches!(
            self,
            Measure::Ds | Measure::Ps | Measure::PsEntire | Measure::CFid
        )
    }
}

/// Suite configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalConfig {
    /// Repetitions for stochastic (model-based) measures; the paper
    /// averages five runs.
    pub repeats: usize,
    /// Post-hoc model capacity/schedule.
    pub post_hoc: PostHocConfig,
    /// Embedding dimension for C-FID.
    pub embed_dim: usize,
    /// ts2vec training epochs for C-FID.
    pub embed_epochs: usize,
    /// Whether to compute the expensive model-based measures at all.
    pub model_based: bool,
    /// Whether to include the entire-sequence PS variant.
    pub ps_entire: bool,
}

impl EvalConfig {
    /// Fast profile for tests and the CPU grid.
    pub fn fast() -> Self {
        Self {
            repeats: 2,
            post_hoc: PostHocConfig {
                hidden: 8,
                epochs: 30,
            },
            embed_dim: 6,
            embed_epochs: 40,
            model_based: true,
            ps_entire: false,
        }
    }

    /// The paper's §5 protocol: five repeats.
    pub fn paper() -> Self {
        Self {
            repeats: 5,
            post_hoc: PostHocConfig {
                hidden: 24,
                epochs: 400,
            },
            embed_dim: 16,
            embed_epochs: 400,
            model_based: true,
            ps_entire: true,
        }
    }

    /// Feature/distance measures only (deterministic, instant).
    pub fn deterministic_only() -> Self {
        Self {
            model_based: false,
            ..Self::fast()
        }
    }
}

/// One measured value with its repeat standard deviation (0 for the
/// deterministic measures).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Mean over repeats.
    pub mean: f64,
    /// Standard deviation over repeats.
    pub std: f64,
}

/// The suite's output: `(measure, score)` pairs in evaluation order.
#[derive(Debug, Clone, Default)]
pub struct EvalResult {
    entries: Vec<(Measure, Score)>,
}

impl EvalResult {
    /// The score for a measure, if it was evaluated.
    pub fn get(&self, m: Measure) -> Option<Score> {
        self.entries
            .iter()
            .find(|(mm, _)| *mm == m)
            .map(|(_, s)| *s)
    }

    /// Inserts or replaces a score.
    pub fn set(&mut self, m: Measure, score: Score) {
        if let Some(slot) = self.entries.iter_mut().find(|(mm, _)| *mm == m) {
            slot.1 = score;
        } else {
            self.entries.push((m, score));
        }
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Measure, Score)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of evaluated measures.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was evaluated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The cache-entry kind for a measure's final score.
fn cache_kind(m: Measure) -> &'static str {
    match m {
        Measure::Ds => "suite.DS",
        Measure::Ps => "suite.PS",
        Measure::PsEntire => "suite.PSE",
        Measure::CFid => "suite.CFID",
        Measure::Mdd => "suite.MDD",
        Measure::Acd => "suite.ACD",
        Measure::Sd => "suite.SD",
        Measure::Kd => "suite.KD",
        Measure::TrainTime => "suite.TIME",
        Measure::Ed => "suite.ED",
        Measure::Dtw => "suite.DTW",
    }
}

/// Digest of the configuration fields cached measure values depend
/// on. Fields that only steer orchestration (`repeats`,
/// `model_based`, `ps_entire`) are deliberately excluded — a per-job
/// value is fully determined by its seed and the model capacity, so
/// runs with different repeat counts still share entries.
fn cfg_param_digest(cfg: &EvalConfig) -> u64 {
    let mut h = Fnv64::new();
    h.update(b"tsgb.evalcfg");
    h.update_u64(cfg.post_hoc.hidden as u64);
    h.update_u64(cfg.post_hoc.epochs as u64);
    h.update_u64(cfg.embed_dim as u64);
    h.update_u64(cfg.embed_epochs as u64);
    h.finish()
}

/// `f(…)` through the cache when one is in play, keyed on the two
/// tensor digests plus a parameter hash. Every producer routed here
/// is a deterministic pure function of the digested inputs, so cached
/// and recomputed values are bit-identical.
fn cached_f64(
    ec: Option<&EvalCache>,
    kind: &'static str,
    a: u64,
    b: u64,
    p: u64,
    f: impl FnOnce() -> f64,
) -> f64 {
    match ec {
        Some(ec) => *ec.get_or_insert_codable(CacheKey::new(kind, a, b, p), f),
        None => f(),
    }
}

/// Evaluates the full quantitative suite of original vs generated
/// windows. Training time (M8) is not computed here — append it from
/// the method's `TrainReport` via [`EvalResult::set`].
///
/// When `TSGB_EVAL_CACHE` is on, per-measure values are served from
/// the process-global [`EvalCache`] keyed on content digests of both
/// tensors — bit-identical to the uncached path (the golden-fixture
/// leg of `scripts/verify.sh` re-runs the suite with the cache on).
pub fn evaluate(
    real: &Tensor3,
    generated: &Tensor3,
    cfg: &EvalConfig,
    rng: &mut SmallRng,
) -> EvalResult {
    let cache = if tsgb_evalcache::enabled() {
        Some(tsgb_evalcache::global())
    } else {
        None
    };
    evaluate_inner(real, generated, cfg, rng, cache)
}

/// [`evaluate`] against an explicit cache — the monitor and the
/// warm-vs-cold probe own their cache instances instead of going
/// through the env-gated global.
pub fn evaluate_cached(
    real: &Tensor3,
    generated: &Tensor3,
    cfg: &EvalConfig,
    rng: &mut SmallRng,
    cache: &EvalCache,
) -> EvalResult {
    evaluate_inner(real, generated, cfg, rng, Some(cache))
}

fn evaluate_inner(
    real: &Tensor3,
    generated: &Tensor3,
    cfg: &EvalConfig,
    rng: &mut SmallRng,
    ec: Option<&EvalCache>,
) -> EvalResult {
    let mut out = EvalResult::default();
    // content digests, computed once per call; unused (zero) when no
    // cache is in play
    let (dr, dg, cfgd) = match ec {
        Some(_) => (
            digest_tensor(real),
            digest_tensor(generated),
            cfg_param_digest(cfg),
        ),
        None => (0, 0, 0),
    };

    if cfg.model_based {
        // The stochastic measures repeat `cfg.repeats` times each with
        // a freshly seeded child RNG. Seeds are drawn here in the same
        // measure-major order the sequential loop used, then the
        // flattened (measure, repeat) jobs run in parallel — scores
        // match the sequential suite exactly because each job depends
        // only on its pre-drawn seed, and the repeats are aggregated
        // in draw order.
        let mut measures = vec![Measure::Ds, Measure::Ps];
        if cfg.ps_entire {
            measures.push(Measure::PsEntire);
        }
        measures.push(Measure::CFid);
        let jobs: Vec<(Measure, u64)> = measures
            .iter()
            .flat_map(|&m| (0..cfg.repeats).map(move |_| m))
            .map(|m| (m, rng.gen()))
            .collect();
        let vals = tsgb_par::parallel_map(jobs.len(), |idx| {
            let (measure, seed) = jobs[idx];
            // per-job parameter hash: config digest plus the job's seed
            let p = {
                let mut h = Fnv64::new();
                h.update_u64(cfgd);
                h.update_u64(seed);
                h.finish()
            };
            timed(measure, || {
                cached_f64(ec, cache_kind(measure), dr, dg, p, || {
                    let mut r = SmallRng::seed_from_u64(seed);
                    match measure {
                        Measure::Ds => model_based::discriminative_score(
                            real,
                            generated,
                            &cfg.post_hoc,
                            &mut r,
                        ),
                        Measure::Ps => model_based::predictive_score(
                            real,
                            generated,
                            PsVariant::NextStep,
                            &cfg.post_hoc,
                            &mut r,
                        ),
                        Measure::PsEntire => model_based::predictive_score(
                            real,
                            generated,
                            PsVariant::Entire,
                            &cfg.post_hoc,
                            &mut r,
                        ),
                        Measure::CFid => match ec {
                            // the expensive half — fitting the embedding
                            // model on the reference — is cached keyed
                            // on the reference digest alone, so it
                            // survives a change of generated set;
                            // `cfid_ref(..).score(g)` is bit-identical
                            // to `contextual_fid` with the same seed
                            Some(ecc) => {
                                let key = CacheKey::new("cfid.ref", dr, 0, p);
                                let reference = ecc.get_or_insert_with(
                                    key,
                                    |c: &model_based::CfidRef| c.approx_bytes(),
                                    || {
                                        model_based::cfid_ref(
                                            real,
                                            cfg.embed_dim,
                                            cfg.embed_epochs,
                                            seed,
                                        )
                                    },
                                );
                                reference.score(generated)
                            }
                            None => model_based::contextual_fid(
                                real,
                                generated,
                                cfg.embed_dim,
                                cfg.embed_epochs,
                                &mut r,
                            ),
                        },
                        _ => unreachable!("only model-based measures are repeated"),
                    }
                })
            })
        });
        for (mi, &measure) in measures.iter().enumerate() {
            let repeats = &vals[mi * cfg.repeats..(mi + 1) * cfg.repeats];
            let (m, s) = model_based::mean_std(repeats);
            out.set(measure, Score { mean: m, std: s });
        }
    }

    // the deterministic measures take no configuration (p = 0) except
    // DTW, whose parameter is the fixed marker `u64::MAX` for the exact
    // DP; keeping that marker keeps existing cache entries valid
    let mdd = timed(Measure::Mdd, || {
        cached_f64(ec, cache_kind(Measure::Mdd), dr, dg, 0, || {
            feature_based::mdd(real, generated)
        })
    });
    out.set(Measure::Mdd, det(mdd));
    let acd = timed(Measure::Acd, || {
        cached_f64(ec, cache_kind(Measure::Acd), dr, dg, 0, || {
            feature_based::acd(real, generated)
        })
    });
    out.set(Measure::Acd, det(acd));
    let sd = timed(Measure::Sd, || {
        cached_f64(ec, cache_kind(Measure::Sd), dr, dg, 0, || {
            feature_based::sd(real, generated)
        })
    });
    out.set(Measure::Sd, det(sd));
    let kd = timed(Measure::Kd, || {
        cached_f64(ec, cache_kind(Measure::Kd), dr, dg, 0, || {
            feature_based::kd(real, generated)
        })
    });
    out.set(Measure::Kd, det(kd));
    let ed = timed(Measure::Ed, || {
        cached_f64(ec, cache_kind(Measure::Ed), dr, dg, 0, || {
            distance::ed(real, generated)
        })
    });
    out.set(Measure::Ed, det(ed));
    let dtw = timed(Measure::Dtw, || {
        cached_f64(ec, cache_kind(Measure::Dtw), dr, dg, u64::MAX, || {
            distance::dtw(real, generated)
        })
    });
    out.set(Measure::Dtw, det(dtw));
    out
}

fn det(v: f64) -> Score {
    Score { mean: v, std: 0.0 }
}

/// Times one measure evaluation into the `eval.measure_ms.<label>`
/// histogram. Recording never influences the measured value, so the
/// suite stays bit-identical with observability on or off.
fn timed<T>(m: Measure, f: impl FnOnce() -> T) -> T {
    if !tsgb_obs::enabled() {
        return f();
    }
    let t0 = std::time::Instant::now();
    let v = f();
    tsgb_obs::observe(
        &format!("eval.measure_ms.{}", m.label()),
        t0.elapsed().as_secs_f64() * 1e3,
    );
    v
}

/// Deterministic child-RNG helper so the suite's sub-evaluations do
/// not perturb each other's streams.
pub fn child_rng(rng: &mut SmallRng) -> SmallRng {
    SmallRng::seed_from_u64(rng.gen())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;

    fn sines(r: usize, seed: u64) -> Tensor3 {
        let mut rng = seeded(seed);
        Tensor3::from_fn(r, 8, 2, |_, t, _| {
            let phase: f64 = rng.gen::<f64>() * std::f64::consts::TAU;
            0.5 + 0.4 * (0.8 * t as f64 + phase).sin()
        })
    }

    #[test]
    fn deterministic_only_suite_is_instant_and_complete() {
        let a = sines(30, 1);
        let b = sines(30, 2);
        let mut rng = seeded(3);
        let res = evaluate(&a, &b, &EvalConfig::deterministic_only(), &mut rng);
        for m in [
            Measure::Mdd,
            Measure::Acd,
            Measure::Sd,
            Measure::Kd,
            Measure::Ed,
            Measure::Dtw,
        ] {
            assert!(res.get(m).is_some(), "{m:?} missing");
            assert!(res.get(m).unwrap().std == 0.0);
        }
        assert!(res.get(Measure::Ds).is_none());
    }

    #[test]
    fn full_fast_suite_produces_all_scores() {
        let a = sines(40, 4);
        let b = sines(40, 5);
        let mut rng = seeded(6);
        let res = evaluate(&a, &b, &EvalConfig::fast(), &mut rng);
        assert!(res.get(Measure::Ds).is_some());
        assert!(res.get(Measure::Ps).is_some());
        assert!(res.get(Measure::CFid).is_some());
        assert_eq!(
            res.get(Measure::PsEntire),
            None,
            "fast profile skips PS-entire"
        );
        assert!(res.len() >= 9);
    }

    #[test]
    fn identical_data_scores_zero_on_deterministic_measures() {
        let a = sines(25, 7);
        let mut rng = seeded(8);
        let res = evaluate(&a, &a, &EvalConfig::deterministic_only(), &mut rng);
        for m in [
            Measure::Mdd,
            Measure::Acd,
            Measure::Sd,
            Measure::Kd,
            Measure::Ed,
            Measure::Dtw,
        ] {
            assert_eq!(res.get(m).unwrap().mean, 0.0, "{m:?} must be exactly 0");
        }
    }

    #[test]
    fn result_set_replaces() {
        let mut r = EvalResult::default();
        r.set(
            Measure::Ed,
            Score {
                mean: 1.0,
                std: 0.0,
            },
        );
        r.set(
            Measure::Ed,
            Score {
                mean: 2.0,
                std: 0.0,
            },
        );
        assert_eq!(r.get(Measure::Ed).unwrap().mean, 2.0);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn measure_labels_match_paper() {
        assert_eq!(Measure::CFid.label(), "C-FID");
        assert_eq!(Measure::PsEntire.label(), "PS (entire)");
        assert_eq!(Measure::FIGURE5.len(), 9);
        assert_eq!(Measure::ALL.len(), 11);
    }
}
