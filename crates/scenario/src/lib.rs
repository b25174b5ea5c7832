#![warn(missing_docs)]

//! `tsgb-scenario`: task families beyond one-shot unconditional
//! generation, as a first-class engine.
//!
//! The core benchmark asks one question of a trained generator:
//! *sample `n` windows, how close are they to the reference?* Real
//! deployments ask more. This crate packages three such task families
//! behind one [`Scenario`] interface — seeded task construction →
//! generator invocation → scoring — so the runner, the CLI, and the
//! serving tier can treat them uniformly:
//!
//! * [`StreamingScenario`] — windows are consumed chunk-by-chunk as
//!   they are sampled ([`TsgMethod::open_stream`]); scored online with
//!   [`tsgb_eval::OnlineMeasures`], and pinned against the one-shot
//!   draw (streamed chunks must concatenate to the exact one-shot
//!   bits).
//! * [`ConditionalScenario`] — class-conditioned sampling through the
//!   [`ConditionalSample`](tsgb_methods::ConditionalSample)
//!   capability; scores per-class fidelity and whether distinct classes
//!   actually separate.
//! * [`ImputationScenario`] — contiguous spans are masked out of the
//!   reference ([`tsgb_data::mask::SpanMask`]); the generator's samples
//!   infill the holes, scored with infill MAE and MMD-on-infill
//!   through the eval-cache with dedicated `imp.*` kinds.
//!
//! **Determinism contract**: a scenario's report is a pure function of
//! `(method, reference, seed, config)`. Every random choice inside a
//! scenario draws from seeds pre-drawn off one stream *before* any
//! generation or scoring happens, so a cache hit (which skips
//! computing a measure) can never shift what a later stage samples —
//! the same discipline `tsgb-eval`'s suite uses. Golden fixtures in
//! `tests/golden_scenarios.rs` pin the exact values.
//!
//! Each scenario struct carries its own task sizes, and its `Default`
//! impl holds the values the CLI and the golden fixtures run; [`all`]
//! and [`by_name`] hand out the built-in scenarios at those defaults.

pub mod conditional;
pub mod imputation;
pub mod streaming;

pub use conditional::ConditionalScenario;
pub use imputation::ImputationScenario;
pub use streaming::StreamingScenario;

use tsgb_linalg::Tensor3;
use tsgb_methods::TsgMethod;

/// A task family: build a seeded task, invoke the generator, score
/// the outcome. Implementations are pure functions of their inputs.
pub trait Scenario {
    /// Stable lowercase name (`"streaming"`, `"conditional"`,
    /// `"imputation"`) — the CLI selector and the report label.
    fn name(&self) -> &'static str;

    /// Runs the scenario for one `(method, reference, seed)` triple.
    /// `reference` is the preprocessed `(R, l, N)` window set the
    /// method was trained on (or its held-out split).
    fn run(&self, method: &dyn TsgMethod, reference: &Tensor3, seed: u64) -> ScenarioReport;
}

/// The outcome of one scenario run: named metrics in a stable order
/// (fixtures and JSON rendering rely on the order).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Which scenario produced this report.
    pub scenario: &'static str,
    /// `(metric, value)` rows, in the scenario's documented order.
    pub metrics: Vec<(String, f64)>,
}

impl ScenarioReport {
    /// An empty report for `scenario`.
    pub fn new(scenario: &'static str) -> Self {
        Self {
            scenario,
            metrics: Vec::new(),
        }
    }

    /// Appends a metric row.
    pub fn push(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Renders the report as a single JSON object:
    /// `{"scenario":"...","metrics":{"k":v,...}}`. Values use Rust's
    /// shortest-roundtrip float formatting; NaN (never produced by the
    /// built-in scenarios) would render as `null`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| {
                if v.is_finite() {
                    format!("\"{k}\":{v}")
                } else {
                    format!("\"{k}\":null")
                }
            })
            .collect();
        format!(
            "{{\"scenario\":\"{}\",\"metrics\":{{{}}}}}",
            self.scenario,
            rows.join(",")
        )
    }
}

/// The three built-in scenarios at their defaults, in the engine's
/// canonical order.
pub fn all() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(StreamingScenario::default()),
        Box::new(ConditionalScenario::default()),
        Box::new(ImputationScenario::default()),
    ]
}

/// The built-in scenario with the given [`Scenario::name`], at its
/// defaults, if any.
pub fn by_name(name: &str) -> Option<Box<dyn Scenario>> {
    all().into_iter().find(|s| s.name() == name)
}

/// Pre-draws `k` independent sub-seeds off the scenario seed. Every
/// scenario draws **all** its seeds through this before invoking the
/// generator or any measure, so skipping a stage (e.g. an eval-cache
/// hit) cannot shift a later stage's stream.
pub(crate) fn pre_draw_seeds(seed: u64, k: usize) -> Vec<u64> {
    use tsgb_rand::Rng;
    let mut rng = tsgb_linalg::rng::seeded(seed);
    (0..k).map(|_| rng.gen::<u64>()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_metrics() {
        let mut r = ScenarioReport::new("streaming");
        r.push("a", 1.5);
        r.push("b", -0.25);
        assert_eq!(r.metric("a"), Some(1.5));
        assert_eq!(r.metric("missing"), None);
        assert_eq!(
            r.to_json(),
            "{\"scenario\":\"streaming\",\"metrics\":{\"a\":1.5,\"b\":-0.25}}"
        );
    }

    #[test]
    fn defaults_are_documented_values() {
        let s = StreamingScenario::default();
        assert_eq!((s.n, s.chunk), (16, 4));
        let c = ConditionalScenario::default();
        assert_eq!((c.classes, c.per_class, c.strength), (3, 16, 1.0));
        let i = ImputationScenario::default();
        assert_eq!((i.spec.rate, i.spec.span_len, i.candidates), (0.15, 3, 4));
    }

    #[test]
    fn all_names_are_unique_and_resolvable() {
        let names: Vec<&str> = all().iter().map(|s| s.name()).collect();
        assert_eq!(names, ["streaming", "conditional", "imputation"]);
        for n in names {
            assert!(by_name(n).is_some());
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn pre_drawn_seeds_are_stable_and_distinct() {
        let a = pre_draw_seeds(7, 4);
        assert_eq!(a, pre_draw_seeds(7, 4));
        assert_ne!(a, pre_draw_seeds(8, 4));
        let unique: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(unique.len(), 4);
    }
}
