//! Golden-value regression for the scenario engine: pins the exact
//! reports of all three task families on a fast-profile TimeVAE (the
//! method with both capabilities) plus the capability-less path on
//! FourierFlow, against a committed fixture.
//!
//! Regenerate after an *intentional* numeric change:
//!
//! ```text
//! TSGB_UPDATE_GOLDEN=1 cargo test -p tsgb-scenario --test golden_scenarios
//! ```

use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_methods::fourierflow::FourierFlow;
use tsgb_methods::timevae::TimeVae;
use tsgb_methods::{TrainConfig, TsgMethod};
use tsgb_scenario::{ConditionalScenario, Scenario, ScenarioReport};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_scenarios.json"
);
const TOL: f64 = 1e-9;

fn reference() -> Tensor3 {
    Tensor3::from_fn(24, 8, 2, |s, t, f| {
        0.5 + 0.4 * ((t + s) as f64 * 0.7 + f as f64).sin()
    })
}

fn trained(method: &mut dyn TsgMethod, seed: u64) {
    let cfg = TrainConfig {
        epochs: 3,
        ..TrainConfig::fast()
    };
    method.fit(&reference(), &cfg, &mut seeded(seed));
}

/// Every scenario on TimeVAE, plus conditional on FourierFlow (the
/// unsupported branch), flattened to `scenario.metric` rows.
fn run_all() -> Vec<(String, f64)> {
    let data = reference();
    let mut vae = TimeVae::new(8, 2);
    trained(&mut vae, 7);
    let mut rows = Vec::new();
    for s in tsgb_scenario::all() {
        let report = s.run(&vae, &data, 42);
        flatten(&report, &mut rows);
    }
    let mut flow = FourierFlow::new(8, 2);
    trained(&mut flow, 8);
    let unsupported = ConditionalScenario::default().run(&flow, &data, 42);
    assert_eq!(unsupported.metric("cond.supported"), Some(0.0));
    flatten(&unsupported, &mut rows);
    rows
}

fn flatten(report: &ScenarioReport, rows: &mut Vec<(String, f64)>) {
    for (k, v) in &report.metrics {
        rows.push((format!("{}.{k}", report.scenario), *v));
    }
}

fn render_fixture(vals: &[(String, f64)]) -> String {
    let rows: Vec<String> = vals
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

fn parse_fixture(s: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in s.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((k, v)) = line.split_once(':') else {
            continue;
        };
        let key = k.trim().trim_matches('"');
        if let Ok(num) = v.trim().parse::<f64>() {
            out.push((key.to_string(), num));
        }
    }
    out
}

#[test]
fn golden_reports_match_fixture() {
    let vals = run_all();

    if std::env::var_os("TSGB_UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, render_fixture(&vals)).expect("write fixture");
        return;
    }

    let expected = parse_fixture(
        &std::fs::read_to_string(FIXTURE)
            .expect("fixture missing; regenerate with TSGB_UPDATE_GOLDEN=1"),
    );
    assert_eq!(
        vals.len(),
        expected.len(),
        "metric count changed vs fixture"
    );
    for ((label, got), (exp_label, exp)) in vals.iter().zip(&expected) {
        assert_eq!(label, exp_label, "metric order changed vs fixture");
        assert!(
            (got - exp).abs() <= TOL,
            "{label} drifted: got {got}, fixture {exp}"
        );
    }
}

#[test]
fn reports_are_seed_deterministic() {
    let a = run_all();
    let b = run_all();
    let bits = |v: &[(String, f64)]| -> Vec<(String, u64)> {
        v.iter().map(|(k, x)| (k.clone(), x.to_bits())).collect()
    };
    assert_eq!(bits(&a), bits(&b));
}

#[test]
fn streaming_contract_holds_in_the_golden_workload() {
    let vals = run_all();
    let get = |name: &str| {
        vals.iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    };
    assert_eq!(get("streaming.stream.bit_identical"), 1.0);
    assert_eq!(get("streaming.stream.windows"), 16.0);
    assert_eq!(get("streaming.stream.chunks"), 4.0);
    assert_eq!(get("conditional.cond.supported"), 1.0);
    assert_eq!(get("conditional.cond.deterministic"), 1.0);
    assert!(get("conditional.cond.mean_spread") > 0.0);
    assert!((0.0..=1.0).contains(&get("imputation.imp.masked_fraction")));
    // generator infill must at least be scored; the baseline row exists
    assert!(get("imputation.imp.mae") >= 0.0);
    assert!(get("imputation.imp.baseline_mae") >= 0.0);
}
