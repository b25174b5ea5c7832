//! Automatic hyper-parameter tuning — the paper's final future-work
//! item ("introducing functionalities that facilitate automatic
//! tuning, thereby streamlining the training process").
//!
//! A seeded random-search tuner over [`TrainConfig`] space: sample
//! configurations, run train → generate → evaluate, keep the best
//! score on a chosen objective measure. Random search is the honest
//! baseline tuner (Bergstra & Bengio, 2012) and, unlike the method
//! comparisons in the benchmark proper (§2.2 explicitly forgoes
//! per-method tuning for fairness), this module is an *opt-in* user
//! convenience.

use crate::runner::Benchmark;
use tsgb_data::pipeline::PreprocessedDataset;
use tsgb_eval::suite::Measure;
use tsgb_methods::common::{MethodId, TrainConfig};
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::{Rng, SeedableRng};

/// The search space: inclusive ranges sampled log-uniformly (learning
/// rate) or uniformly (the rest).
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Epoch range.
    pub epochs: (usize, usize),
    /// Hidden-width range.
    pub hidden: (usize, usize),
    /// Latent-width range.
    pub latent: (usize, usize),
    /// Learning-rate range (log-uniform).
    pub lr: (f64, f64),
    /// Batch-size range.
    pub batch: (usize, usize),
}

impl Default for SearchSpace {
    fn default() -> Self {
        Self {
            epochs: (20, 120),
            hidden: (8, 24),
            latent: (4, 12),
            lr: (5e-4, 8e-3),
            batch: (16, 64),
        }
    }
}

impl SearchSpace {
    fn sample(&self, rng: &mut SmallRng) -> TrainConfig {
        let u = |lo: usize, hi: usize, rng: &mut SmallRng| {
            if hi > lo {
                rng.gen_range(lo..=hi)
            } else {
                lo
            }
        };
        let lr = {
            let (lo, hi) = self.lr;
            (lo.ln() + rng.gen::<f64>() * (hi.ln() - lo.ln())).exp()
        };
        TrainConfig {
            epochs: u(self.epochs.0, self.epochs.1, rng),
            hidden: u(self.hidden.0, self.hidden.1, rng),
            latent: u(self.latent.0, self.latent.1, rng),
            batch: u(self.batch.0, self.batch.1, rng),
            lr,
        }
    }
}

/// One tuning trial's record.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The sampled configuration.
    pub config: TrainConfig,
    /// The objective score (lower = better).
    pub score: f64,
    /// Wall-clock training seconds.
    pub train_seconds: f64,
}

/// Result of a tuning run: the best trial plus the full trace.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Best (lowest-objective) trial.
    pub best: Trial,
    /// All trials in execution order.
    pub trials: Vec<Trial>,
}

/// Random-search tuner.
#[derive(Debug, Clone)]
pub struct Tuner {
    /// Number of configurations to try.
    pub budget: usize,
    /// The space to sample.
    pub space: SearchSpace,
    /// Objective measure (must be one the benchmark's `eval_cfg`
    /// computes; the deterministic measures are the cheap choices).
    pub objective: Measure,
    /// Master seed.
    pub seed: u64,
}

impl Tuner {
    /// A tuner with the default space optimizing the given measure.
    pub fn new(budget: usize, objective: Measure) -> Self {
        Self {
            budget,
            space: SearchSpace::default(),
            objective,
            seed: 17,
        }
    }

    /// Runs the search for one method on one dataset. The supplied
    /// `bench` fixes the evaluation protocol; its training config is
    /// overridden per trial.
    pub fn tune(
        &self,
        method: MethodId,
        data: &PreprocessedDataset,
        bench: &Benchmark,
    ) -> TuneResult {
        assert!(self.budget >= 1, "tuning budget must be positive");
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut trials = Vec::with_capacity(self.budget);
        for _ in 0..self.budget {
            let config = self.space.sample(&mut rng);
            let mut trial_bench = bench.clone();
            trial_bench.train_cfg = config.clone();
            let mut m = method.create(data.train.seq_len(), data.train.features());
            let report = trial_bench.run_one(m.as_mut(), data);
            let score = report
                .scores
                .get(self.objective)
                .map(|s| s.mean)
                .unwrap_or(f64::INFINITY);
            trials.push(Trial {
                config,
                score,
                train_seconds: report.train.train_seconds,
            });
        }
        let best = trials
            .iter()
            .min_by(|a, b| a.score.partial_cmp(&b.score).expect("finite scores"))
            .expect("at least one trial")
            .clone();
        TuneResult { best, trials }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_data::spec::{DatasetId, DatasetSpec};
    use tsgb_eval::suite::EvalConfig;

    #[test]
    fn tuner_returns_best_of_trace() {
        let data = DatasetSpec::get(DatasetId::Stock)
            .scaled(20)
            .with_max_len(8)
            .materialize(5);
        let mut bench = Benchmark::quick();
        bench.eval_cfg = EvalConfig::deterministic_only();
        let tuner = Tuner {
            budget: 3,
            space: SearchSpace {
                epochs: (2, 6),
                ..SearchSpace::default()
            },
            objective: Measure::Ed,
            seed: 3,
        };
        let result = tuner.tune(MethodId::TimeVae, &data, &bench);
        assert_eq!(result.trials.len(), 3);
        let min = result
            .trials
            .iter()
            .map(|t| t.score)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(result.best.score, min);
        assert!(result.best.score.is_finite());
    }

    #[test]
    fn search_space_respects_bounds() {
        let space = SearchSpace::default();
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..50 {
            let c = space.sample(&mut rng);
            assert!((space.epochs.0..=space.epochs.1).contains(&c.epochs));
            assert!((space.hidden.0..=space.hidden.1).contains(&c.hidden));
            assert!((space.lr.0..=space.lr.1).contains(&c.lr));
        }
    }

    #[test]
    fn tuning_is_seed_deterministic() {
        let data = DatasetSpec::get(DatasetId::Dlg)
            .scaled(16)
            .with_max_len(6)
            .materialize(2);
        let mut bench = Benchmark::quick();
        bench.eval_cfg = EvalConfig::deterministic_only();
        let tuner = Tuner {
            budget: 2,
            space: SearchSpace {
                epochs: (2, 4),
                ..SearchSpace::default()
            },
            objective: Measure::Dtw,
            seed: 11,
        };
        let a = tuner.tune(MethodId::FourierFlow, &data, &bench);
        let b = tuner.tune(MethodId::FourierFlow, &data, &bench);
        assert_eq!(a.best.score, b.best.score);
    }
}
