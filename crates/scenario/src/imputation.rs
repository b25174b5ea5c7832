//! The imputation task family: mask contiguous spans out of the
//! reference, infill them from the generator, score the infill.
//!
//! Task construction is a seeded [`SpanMask`] over the reference
//! tensor. The generator then earns its keep *without* an imputation
//! head: it samples a pool of `candidates` unconditional draws, and
//! for every reference window the candidate that best matches the
//! **observed** entries donates its values to the **masked** entries
//! (nearest-neighbor infill in the generator's own output space — the
//! standard trick for scoring unconditional generators on conditional
//! tasks). Scoring runs through `tsgb-eval`'s infill MAE and
//! MMD-on-infill, which cache under dedicated `imp.*` kinds; a linear
//! interpolation baseline is reported alongside so the generator's
//! number has a floor to beat.
//!
//! All seeds (mask, candidate draws) are pre-drawn before any
//! generation, so an eval-cache hit cannot shift what gets sampled —
//! `run` with a warm cache is bit-identical to a cold one.

use crate::{pre_draw_seeds, Scenario, ScenarioReport};
use tsgb_data::impute::{fill_missing, FillPolicy};
use tsgb_data::{MaskSpec, SpanMask};
use tsgb_eval::imputation::{infill_mae_cached, infill_mmd_cached};
use tsgb_evalcache::EvalCache;
use tsgb_linalg::rng::seeded;
use tsgb_linalg::{Matrix, Tensor3};
use tsgb_methods::TsgMethod;

/// Masked-span imputation with a generator candidate pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImputationScenario {
    /// Span-mask shape (rate + span length).
    pub spec: MaskSpec,
    /// Unconditional draws in the candidate pool (at least 1).
    pub candidates: usize,
}

impl Default for ImputationScenario {
    fn default() -> Self {
        Self {
            spec: MaskSpec {
                rate: 0.15,
                span_len: 3,
            },
            candidates: 4,
        }
    }
}

impl Scenario for ImputationScenario {
    fn name(&self) -> &'static str {
        "imputation"
    }

    fn run(&self, method: &dyn TsgMethod, reference: &Tensor3, seed: u64) -> ScenarioReport {
        let ec = if tsgb_evalcache::enabled() {
            Some(tsgb_evalcache::global())
        } else {
            None
        };
        self.run_with_cache(method, reference, seed, ec)
    }
}

impl ImputationScenario {
    /// [`Scenario::run`] with an explicit eval cache (`None` = compute
    /// directly). Cold and warm caches produce bit-identical reports.
    pub fn run_with_cache(
        &self,
        method: &dyn TsgMethod,
        reference: &Tensor3,
        seed: u64,
        ec: Option<&EvalCache>,
    ) -> ScenarioReport {
        let _span = tsgb_obs::span("scenario.imputation");
        let (r, l, n) = reference.shape();
        let pool = self.candidates.max(1);

        // every seed this scenario will ever use, drawn up front
        let seeds = pre_draw_seeds(seed, 1 + pool);
        let mask = SpanMask::generate(r, l, n, self.spec, seeds[0]);

        let candidates: Vec<Tensor3> = seeds[1..]
            .iter()
            .map(|&s| method.generate(r, &mut seeded(s)))
            .collect();

        // per window: the candidate closest on OBSERVED entries donates
        // its masked entries (ties break toward the earliest draw)
        let mut chosen = candidates[0].clone();
        for s in 0..r {
            let mut best = 0usize;
            let mut best_err = f64::INFINITY;
            for (c, cand) in candidates.iter().enumerate() {
                let mut err = 0.0;
                for t in 0..l {
                    for f in 0..n {
                        if !mask.is_masked(s, t, f) {
                            let d = reference.at(s, t, f) - cand.at(s, t, f);
                            err += d * d;
                        }
                    }
                }
                if err < best_err {
                    best_err = err;
                    best = c;
                }
            }
            for t in 0..l {
                for f in 0..n {
                    *chosen.at_mut(s, t, f) = candidates[best].at(s, t, f);
                }
            }
        }
        let infilled = mask.overlay(reference, &chosen);
        if tsgb_obs::enabled() {
            tsgb_obs::counter_add("scenario.impute.windows", r as u64);
            tsgb_obs::counter_add("scenario.impute.masked", mask.masked_count() as u64);
        }

        let baseline = linear_baseline(reference, &mask);

        let mut report = ScenarioReport::new(self.name());
        report.push("imp.masked_fraction", mask.masked_fraction());
        report.push("imp.candidates", pool as f64);
        report.push(
            "imp.mae",
            infill_mae_cached(reference, &infilled, mask.bits(), ec),
        );
        report.push(
            "imp.mmd",
            infill_mmd_cached(reference, &infilled, mask.bits(), ec),
        );
        report.push(
            "imp.baseline_mae",
            infill_mae_cached(reference, &baseline, mask.bits(), ec),
        );
        report
    }
}

/// The interpolation floor: masked entries filled per window by linear
/// interpolation over the observed neighbors. A channel masked
/// end-to-end has nothing to interpolate from; its entries take the
/// midpoint of the normalized range (`0.5`) instead of panicking.
fn linear_baseline(reference: &Tensor3, mask: &SpanMask) -> Tensor3 {
    let (r, l, n) = reference.shape();
    let mut out = reference.clone();
    for s in 0..r {
        let holes = Matrix::from_fn(l, n, |t, f| {
            if mask.is_masked(s, t, f) {
                f64::NAN
            } else {
                reference.at(s, t, f)
            }
        });
        // fill_missing panics on fully-masked channels; patch those
        // with the range midpoint first
        let fully_masked: Vec<bool> = (0..n)
            .map(|f| (0..l).all(|t| mask.is_masked(s, t, f)))
            .collect();
        let patched = Matrix::from_fn(
            l,
            n,
            |t, f| {
                if fully_masked[f] {
                    0.5
                } else {
                    holes[(t, f)]
                }
            },
        );
        let filled = fill_missing(&patched, FillPolicy::Linear);
        for t in 0..l {
            for f in 0..n {
                *out.at_mut(s, t, f) = filled[(t, f)];
            }
        }
    }
    out
}
