//! The conditional task family: class-conditioned sampling through
//! the [`ConditionalSample`](tsgb_methods::ConditionalSample) capability.
//!
//! The scenario asks a method for `per_class` windows of each of
//! `classes` labels and scores three things: per-class fidelity to
//! the reference (mean MDD), whether distinct labels actually
//! *separate* in output space (spread of class means — a conditioner
//! that ignores its label scores 0), and determinism (the same
//! `(label, seed)` must reproduce bit-for-bit). Methods without the
//! capability report `cond.supported = 0` and nothing else, so grid
//! rows stay comparable without pretending an unconditional method
//! conditioned.

use crate::{pre_draw_seeds, Scenario, ScenarioReport};
use tsgb_eval::feature_based;
use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_methods::{Condition, TsgMethod};

/// Class-conditioned sampling of `per_class` windows per label.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConditionalScenario {
    /// How many class labels to sample (`0..classes`).
    pub classes: u32,
    /// Windows per class.
    pub per_class: usize,
    /// Conditioning strength passed to [`Condition::Class`].
    pub strength: f64,
}

impl Default for ConditionalScenario {
    fn default() -> Self {
        Self {
            classes: 3,
            per_class: 16,
            strength: 1.0,
        }
    }
}

impl Scenario for ConditionalScenario {
    fn name(&self) -> &'static str {
        "conditional"
    }

    fn run(&self, method: &dyn TsgMethod, reference: &Tensor3, seed: u64) -> ScenarioReport {
        let _span = tsgb_obs::span("scenario.conditional");
        let mut report = ScenarioReport::new(self.name());
        let Some(cond) = method.conditional() else {
            report.push("cond.supported", 0.0);
            return report;
        };

        // one pre-drawn seed per class, fixed before any generation
        let class_seeds = pre_draw_seeds(seed, self.classes as usize);

        let mut class_means = Vec::new();
        let mut mdd_sum = 0.0;
        let mut deterministic = true;
        for (label, &class_seed) in class_seeds.iter().enumerate() {
            let c = Condition::Class {
                label: label as u32,
                strength: self.strength,
            };
            let t = cond.generate_conditioned(self.per_class, &c, &mut seeded(class_seed));
            let again = cond.generate_conditioned(self.per_class, &c, &mut seeded(class_seed));
            deterministic &= t == again;
            if tsgb_obs::enabled() {
                tsgb_obs::counter_add("scenario.cond.windows", t.samples() as u64);
            }
            mdd_sum += feature_based::mdd(reference, &t);
            class_means.push(mean(&t));
        }

        // spread: the largest gap between any two class means; a
        // label-blind conditioner collapses this to ~0
        let mut spread = 0.0f64;
        for i in 0..class_means.len() {
            for j in (i + 1)..class_means.len() {
                spread = spread.max((class_means[i] - class_means[j]).abs());
            }
        }

        report.push("cond.supported", 1.0);
        report.push("cond.classes", self.classes as f64);
        report.push("cond.deterministic", if deterministic { 1.0 } else { 0.0 });
        report.push("cond.mdd_mean", mdd_sum / self.classes.max(1) as f64);
        report.push("cond.mean_spread", spread);
        report
    }
}

fn mean(t: &Tensor3) -> f64 {
    if t.as_slice().is_empty() {
        return 0.0;
    }
    t.as_slice().iter().sum::<f64>() / t.as_slice().len() as f64
}
