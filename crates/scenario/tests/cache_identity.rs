//! The imputation scenario's cache contract: running against a cold
//! explicit eval cache, a warm one, and no cache at all must produce
//! bit-identical reports — pre-drawn seeds mean a cache skip can
//! never shift a later draw.

use tsgb_evalcache::EvalCache;
use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_methods::timevae::TimeVae;
use tsgb_methods::{TrainConfig, TsgMethod};
use tsgb_scenario::ImputationScenario;

fn reference() -> Tensor3 {
    Tensor3::from_fn(24, 8, 2, |s, t, f| {
        0.5 + 0.4 * ((t + s) as f64 * 0.7 + f as f64).sin()
    })
}

#[test]
fn imputation_report_is_bit_identical_cold_warm_and_uncached() {
    let data = reference();
    let mut vae = TimeVae::new(8, 2);
    let cfg = TrainConfig {
        epochs: 3,
        ..TrainConfig::fast()
    };
    vae.fit(&data, &cfg, &mut seeded(7));

    let scenario = ImputationScenario::default();
    let plain = scenario.run_with_cache(&vae, &data, 42, None);
    let ec = EvalCache::in_memory();
    let cold = scenario.run_with_cache(&vae, &data, 42, Some(&ec));
    let stats_after_cold = ec.stats();
    let warm = scenario.run_with_cache(&vae, &data, 42, Some(&ec));
    let stats_after_warm = ec.stats();

    let bits = |r: &tsgb_scenario::ScenarioReport| -> Vec<(String, u64)> {
        r.metrics
            .iter()
            .map(|(k, v)| (k.clone(), v.to_bits()))
            .collect()
    };
    assert_eq!(bits(&plain), bits(&cold), "cold cache changed a bit");
    assert_eq!(bits(&cold), bits(&warm), "warm cache changed a bit");

    // the warm pass actually hit: no new misses, at least the three
    // scalar measures (imp.MAE ×2 + imp.MMD) served from the store
    assert_eq!(stats_after_warm.misses, stats_after_cold.misses);
    assert!(
        stats_after_warm.hits >= stats_after_cold.hits + 3,
        "warm stats {stats_after_warm:?} vs cold {stats_after_cold:?}"
    );
}
