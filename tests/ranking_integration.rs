//! Integration of the grid runner with the §6.4 ranking analysis:
//! a deliberately broken generator must land in the bottom tier.

use tsgb_linalg::Tensor3;
use tsgb_rand::rngs::SmallRng;
use tsgb_stats::critdiff::critical_difference;
use tsgb_stats::friedman::friedman_test;
use tsgbench::prelude::*;

/// Runs two real methods plus a "noise" baseline over two datasets and
/// checks the rank machinery orders them sensibly.
#[test]
fn noise_baseline_ranks_last() {
    let specs = [
        DatasetSpec::get(DatasetId::Stock),
        DatasetSpec::get(DatasetId::Energy),
        DatasetSpec::get(DatasetId::Dlg),
    ];
    let mut bench = Benchmark::quick();
    bench.train_cfg = TrainConfig {
        epochs: 120,
        batch: 16,
        hidden: 10,
        ..TrainConfig::fast()
    };
    bench.eval_cfg = EvalConfig::deterministic_only();

    // scores[block][method]: blocks are (dataset x measure) pairs;
    // methods are [TimeVAE, LS4, noise-baseline]
    let measures = [Measure::Mdd, Measure::Acd, Measure::Ed, Measure::Dtw];
    let mut blocks: Vec<Vec<f64>> = Vec::new();
    for spec in &specs {
        let data = spec.scaled(32).with_max_len(12).materialize(13);
        let mut per_method: Vec<EvalResult> = Vec::new();
        for mid in [MethodId::TimeVae, MethodId::Ls4] {
            let mut m = mid.create(data.train.seq_len(), data.train.features());
            per_method.push(bench.run_one(m.as_mut(), &data).scores);
        }
        // noise baseline: uniform noise windows, untouched by training
        let mut rng = tsgb_rand::SeedableRng::seed_from_u64(99);
        let noise = noise_tensor(
            data.train.samples(),
            data.train.seq_len(),
            data.train.features(),
            &mut rng,
        );
        per_method.push(tsgb_eval::suite::evaluate(
            &data.train,
            &noise,
            &EvalConfig::deterministic_only(),
            &mut rng,
        ));
        for m in measures {
            blocks.push(
                per_method
                    .iter()
                    .map(|r| r.get(m).expect("measure evaluated").mean)
                    .collect(),
            );
        }
    }

    let f = friedman_test(&blocks);
    // the noise baseline (index 2) must have the worst average rank
    assert!(
        f.avg_ranks[2] > f.avg_ranks[0] && f.avg_ranks[2] > f.avg_ranks[1],
        "noise baseline must rank last: {:?}",
        f.avg_ranks
    );

    let names = vec![
        "TimeVAE".to_string(),
        "LS4".to_string(),
        "Noise".to_string(),
    ];
    let cd = critical_difference(&names, &blocks, 0.05);
    let last_tier = cd.tiers.last().expect("non-empty tiers");
    assert!(
        last_tier.contains(&2),
        "noise baseline must be in the bottom tier: {:?}",
        cd.tiers
    );
}

fn noise_tensor(r: usize, l: usize, n: usize, rng: &mut SmallRng) -> Tensor3 {
    use tsgb_rand::Rng;
    let mut t = Tensor3::zeros(r, l, n);
    for v in t.as_mut_slice() {
        *v = rng.gen::<f64>();
    }
    t
}

#[test]
fn grid_to_friedman_pipeline() {
    let specs = [
        DatasetSpec::get(DatasetId::Stock),
        DatasetSpec::get(DatasetId::Exchange),
    ];
    let mut bench = Benchmark::quick();
    bench.train_cfg = TrainConfig {
        epochs: 5,
        batch: 16,
        hidden: 8,
        ..TrainConfig::fast()
    };
    bench.eval_cfg = EvalConfig::deterministic_only();
    let methods = [MethodId::TimeVae, MethodId::Ls4, MethodId::Rgan];
    let grid = bench.run_grid(&methods, &specs, 20, 8);
    let blocks = grid.friedman_blocks(&[Measure::Ed, Measure::Dtw, Measure::Mdd]);
    assert_eq!(blocks.len(), 6, "3 measures x 2 datasets");
    assert!(blocks.iter().all(|b| b.len() == 3));
    let f = friedman_test(&blocks);
    assert_eq!(f.treatments, 3);
    assert!((0.0..=1.0).contains(&f.p_chi2));
}
