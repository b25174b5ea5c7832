//! Golden-value regression suite for training: pins the exact bits of
//! every method's loss history and of four windows it generates after
//! training, for all fourteen methods (the paper's ten plus the four
//! extensions), against a committed fixture. Methods with the
//! conditional-sampling capability also pin one class-shaped and one
//! covariate-shaped draw.
//!
//! Every `fit` records the first step of each optimization phase,
//! compiling its backward plans there, and replays that step with
//! those plans for the rest, so the fixture guards recording, replay
//! and the hand-off between them. It was recorded with a fresh tape
//! for every step — a tape that never replays — so matching it also
//! proves replay bit-identical to recording every step on every
//! method's real graphs.
//!
//! Regenerate the fixture after an *intentional* numeric change:
//!
//! ```text
//! TSGB_UPDATE_GOLDEN=1 cargo test -p tsgb-methods --test golden_training
//! ```

use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_methods::common::{Condition, MethodId, TrainConfig};
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::SeedableRng;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_training.json"
);

/// Windows generated after training and pinned per method.
const GENERATED: usize = 4;

fn cfg() -> TrainConfig {
    TrainConfig {
        epochs: 5,
        batch: 6,
        hidden: 8,
        latent: 4,
        lr: 2e-3,
    }
}

/// Twelve two-feature sine windows of length eight; a batch of six
/// leaves every epoch two minibatches.
fn toy_data() -> Tensor3 {
    Tensor3::from_fn(12, 8, 2, |s, t, f| {
        let phase = s as f64 * 0.37 + f as f64 * 1.1;
        (t as f64 * 0.5 + phase).sin() * 0.6
    })
}

/// `(key, bits)` rows for one method: its loss history, then each
/// generated window, then (for a conditional method) one class- and
/// one covariate-conditioned draw, each on its own seeded stream.
fn pinned_bits(mid: MethodId) -> Vec<(String, Vec<u64>)> {
    let data = toy_data();
    let mut rng = SmallRng::seed_from_u64(42);
    let mut m = mid.create(8, 2);
    let report = m.fit(&data, &cfg(), &mut rng);
    let out = m.generate(GENERATED, &mut rng);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut rows = vec![(format!("{}.loss", mid.name()), bits(&report.loss_history))];
    for w in 0..out.samples() {
        rows.push((
            format!("{}.window{w}", mid.name()),
            bits(out.sample_slice(w)),
        ));
    }
    if let Some(cs) = m.conditional() {
        let conditions = [
            (
                "cond_class",
                Condition::Class {
                    label: 3,
                    strength: 2.0,
                },
                7,
            ),
            (
                "cond_covariate",
                Condition::Covariate {
                    values: vec![0.4, -0.2, 1.0],
                    strength: 1.5,
                },
                8,
            ),
        ];
        for (what, cond, seed) in conditions {
            let shaped = cs.generate_conditioned(GENERATED, &cond, &mut seeded(seed));
            rows.push((format!("{}.{what}", mid.name()), bits(shaped.as_slice())));
        }
    }
    rows
}

fn render_fixture(rows: &[(String, Vec<u64>)]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|(k, v)| {
            let hex: Vec<String> = v.iter().map(|b| format!("{b:016x}")).collect();
            format!("  \"{k}\": \"{}\"", hex.join(" "))
        })
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

fn parse_fixture(s: &str) -> Vec<(String, Vec<u64>)> {
    s.lines()
        .filter_map(|line| {
            let (k, v) = line.trim().trim_end_matches(',').split_once(':')?;
            let bits = v
                .trim()
                .trim_matches('"')
                .split_whitespace()
                .map(|h| u64::from_str_radix(h, 16).expect("hex bits"))
                .collect();
            Some((k.trim().trim_matches('"').to_string(), bits))
        })
        .collect()
}

#[test]
fn training_bits_match_fixture_for_all_fourteen_methods() {
    let got: Vec<(String, Vec<u64>)> = MethodId::ALL
        .into_iter()
        .chain(MethodId::EXTENDED)
        .flat_map(pinned_bits)
        .collect();
    if std::env::var_os("TSGB_UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, render_fixture(&got)).expect("write fixture");
        return;
    }
    let expected = parse_fixture(
        &std::fs::read_to_string(FIXTURE)
            .expect("fixture missing; regenerate with TSGB_UPDATE_GOLDEN=1"),
    );
    assert_eq!(got.len(), expected.len(), "pinned row count changed");
    for ((key, bits), (exp_key, exp_bits)) in got.iter().zip(&expected) {
        assert_eq!(key, exp_key, "pinned row order changed");
        assert_eq!(bits.len(), exp_bits.len(), "{key}: length changed");
        if let Some(i) = bits.iter().zip(exp_bits).position(|(a, b)| a != b) {
            panic!(
                "{key}[{i}] drifted: got {} ({:016x}), fixture {} ({:016x})",
                f64::from_bits(bits[i]),
                bits[i],
                f64::from_bits(exp_bits[i]),
                exp_bits[i],
            );
        }
    }
}
