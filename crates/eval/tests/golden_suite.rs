//! Golden-value regression suite: pins the exact output of the
//! deterministic twelve-measure suite on the `suite_deterministic_80`
//! workload (the shape `perf_baseline` times) against a committed
//! fixture, and asserts the values are bit-identical across thread
//! counts.
//!
//! Regenerate the fixture after an *intentional* numeric change:
//!
//! ```text
//! TSGB_UPDATE_GOLDEN=1 cargo test -p tsgb-eval --test golden_suite
//! ```

use tsgb_eval::suite::{evaluate, EvalConfig, EvalResult};
use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_rand::Rng;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_suite.json"
);
const TOL: f64 = 1e-9;

/// The `suite_deterministic_80` workload from `perf_baseline`.
fn sines(r: usize, seed: u64) -> Tensor3 {
    let mut rng = seeded(seed);
    Tensor3::from_fn(r, 16, 2, |_, t, _| {
        let phase: f64 = rng.gen::<f64>() * std::f64::consts::TAU;
        0.5 + 0.4 * (0.7 * t as f64 + phase).sin()
    })
}

fn run_suite() -> EvalResult {
    let x = sines(80, 1);
    let y = sines(80, 2);
    let mut rng = seeded(3);
    evaluate(&x, &y, &EvalConfig::deterministic_only(), &mut rng)
}

fn scores(res: &EvalResult) -> Vec<(String, f64)> {
    res.iter()
        .map(|(m, s)| (m.label().to_string(), s.mean))
        .collect()
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

fn fixture() -> Vec<(String, f64)> {
    parse_fixture(
        &std::fs::read_to_string(FIXTURE)
            .expect("fixture missing; regenerate with TSGB_UPDATE_GOLDEN=1"),
    )
}

#[test]
fn golden_values_match_fixture_at_one_and_four_threads() {
    for threads in [1usize, 4] {
        let vals = tsgb_par::with_threads(threads, || scores(&run_suite()));

        if std::env::var_os("TSGB_UPDATE_GOLDEN").is_some() {
            std::fs::write(FIXTURE, render_fixture(&vals)).expect("write fixture");
            continue;
        }

        let expected = fixture();
        assert_eq!(
            vals.len(),
            expected.len(),
            "measure count changed vs fixture ({threads} threads)"
        );
        for ((label, got), (exp_label, exp)) in vals.iter().zip(&expected) {
            assert_eq!(label, exp_label, "measure order changed vs fixture");
            assert!(
                (got - exp).abs() <= TOL,
                "{label} drifted at {threads} threads: got {got}, fixture {exp}"
            );
        }
    }
}

#[test]
fn suite_is_bit_identical_across_thread_counts() {
    let serial: Vec<u64> = tsgb_par::with_threads(1, || {
        scores(&run_suite())
            .into_iter()
            .map(|(_, v)| v.to_bits())
            .collect()
    });
    for threads in [2usize, 4, 8] {
        let par: Vec<u64> = tsgb_par::with_threads(threads, || {
            scores(&run_suite())
                .into_iter()
                .map(|(_, v)| v.to_bits())
                .collect()
        });
        assert_eq!(par, serial, "suite output differs at {threads} threads");
    }
}
