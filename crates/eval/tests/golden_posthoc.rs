//! Golden-value regression suite for the model-based measures: pins
//! the exact bits (mean and repeat std) of DS, PS, PS (entire) and
//! C-FID under `EvalConfig::fast()` at the two Table-4 window lengths
//! (l = 24 and 125) against a committed fixture. The same fixture pins
//! the Figure-6 pair at both lengths: a digest of the joint t-SNE
//! embedding's bits at 120 iterations and its NN-overlap statistic.
//!
//! These measures train post-hoc networks, so the fixture guards the
//! whole training stack behind them — tape, optimizer, GRU cells and
//! the parallel job scheduler — not just the scoring arithmetic. Any
//! thread count must reproduce it: `scripts/verify.sh` runs this test
//! at `TSGB_THREADS=1` and `4`.
//!
//! Regenerate the fixture after an *intentional* numeric change:
//!
//! ```text
//! TSGB_UPDATE_GOLDEN=1 cargo test -p tsgb-eval --test golden_posthoc
//! ```

use tsgb_eval::suite::{evaluate, EvalConfig, Measure};
use tsgb_eval::tsne::{nn_overlap, tsne_joint, TsneConfig};
use tsgb_evalcache::Fnv64;
use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_rand::Rng;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_posthoc.json"
);

/// Windows per set: enough that DS's 80/20 split and PS's minibatch
/// both sample rather than take everything.
const R: usize = 48;
/// Features per window, as in the Table-4 sine shapes.
const N: usize = 5;

const MEASURES: [Measure; 4] = [Measure::Ds, Measure::Ps, Measure::PsEntire, Measure::CFid];

/// Sine windows in the paper's form: each (window, feature) series
/// has its own frequency and phase, scaled by `amp`.
fn sines(l: usize, amp: f64, seed: u64) -> Tensor3 {
    let mut rng = seeded(seed);
    let mut out = Tensor3::zeros(R, l, N);
    for s in 0..R {
        for f in 0..N {
            let eta: f64 = rng.gen();
            let theta: f64 = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
            for j in 0..l {
                *out.at_mut(s, j, f) =
                    amp * (std::f64::consts::TAU * eta * (j + 1) as f64 + theta).sin();
            }
        }
    }
    out
}

/// `(key, bits)` for the mean and std of every pinned measure at both
/// window lengths, then the Figure-6 pair at both lengths, in fixture
/// order.
fn pinned_bits() -> Vec<(String, u64)> {
    let cfg = EvalConfig {
        ps_entire: true,
        ..EvalConfig::fast()
    };
    let mut out = Vec::new();
    for l in [24usize, 125] {
        let real = sines(l, 1.0, 1);
        let generated = sines(l, 0.8, 2);
        let res = evaluate(&real, &generated, &cfg, &mut seeded(3));
        for m in MEASURES {
            let s = res.get(m).expect("model-based measure evaluated");
            out.push((format!("l{l}.{}.mean", m.label()), s.mean.to_bits()));
            out.push((format!("l{l}.{}.std", m.label()), s.std.to_bits()));
        }
    }
    // Figure 6 as `reproduce` runs it: 120 t-SNE iterations on the
    // joint cloud, then the NN-overlap statistic of the embedding
    let tsne_cfg = TsneConfig {
        iterations: 120,
        ..TsneConfig::default()
    };
    for l in [24usize, 125] {
        let real = sines(l, 1.0, 1);
        let generated = sines(l, 0.8, 2);
        let emb = tsne_joint(&real, &generated, &tsne_cfg, &mut seeded(4));
        let mut h = Fnv64::new();
        for &v in emb.points.as_slice() {
            h.update_u64(v.to_bits());
        }
        out.push((format!("l{l}.tsne.points_digest"), h.finish()));
        out.push((format!("l{l}.tsne.nn_overlap"), nn_overlap(&emb).to_bits()));
    }
    out
}

fn render_fixture(vals: &[(String, u64)]) -> String {
    let rows: Vec<String> = vals
        .iter()
        .map(|(k, v)| format!("  \"{k}\": \"{v:016x}\""))
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

fn parse_fixture(s: &str) -> Vec<(String, u64)> {
    s.lines()
        .filter_map(|line| {
            let (k, v) = line.trim().trim_end_matches(',').split_once(':')?;
            let bits = u64::from_str_radix(v.trim().trim_matches('"'), 16).ok()?;
            Some((k.trim().trim_matches('"').to_string(), bits))
        })
        .collect()
}

#[test]
fn model_based_bits_match_fixture() {
    let got = pinned_bits();
    if std::env::var_os("TSGB_UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, render_fixture(&got)).expect("write fixture");
        return;
    }
    let expected = parse_fixture(
        &std::fs::read_to_string(FIXTURE)
            .expect("fixture missing; regenerate with TSGB_UPDATE_GOLDEN=1"),
    );
    assert_eq!(got.len(), expected.len(), "pinned value count changed");
    for ((key, bits), (exp_key, exp_bits)) in got.iter().zip(&expected) {
        assert_eq!(key, exp_key, "pinned value order changed");
        assert_eq!(
            bits,
            exp_bits,
            "{key} drifted at {} threads: got {} ({bits:016x}), fixture {} ({exp_bits:016x})",
            tsgb_par::max_threads(),
            f64::from_bits(*bits),
            f64::from_bits(*exp_bits),
        );
    }
}
