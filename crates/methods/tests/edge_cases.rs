//! Failure-injection and degenerate-input tests: the benchmark
//! harness feeds methods whatever the pipeline produces, so they must
//! survive constant data, minimal shapes, and single-sample batches
//! without NaNs or panics.

use tsgb_linalg::Tensor3;
use tsgb_methods::common::{MethodId, TrainConfig};
use tsgb_rand::SeedableRng;

fn tiny_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch: 4,
        hidden: 6,
        latent: 4,
        lr: 2e-3,
    }
}

/// Constant data is the degenerate output of normalizing a constant
/// channel; every method must train and emit finite values on it.
#[test]
fn constant_data_does_not_produce_nans() {
    let data = Tensor3::from_fn(10, 6, 2, |_, _, _| 0.5);
    for mid in MethodId::ALL.into_iter().chain(MethodId::EXTENDED) {
        let mut rng = tsgb_rand::rngs::SmallRng::seed_from_u64(1);
        let mut m = mid.create(6, 2);
        let report = m.fit(&data, &tiny_cfg(), &mut rng);
        assert!(
            report.loss_history.iter().all(|v| v.is_finite()),
            "{}: non-finite loss on constant data",
            mid.name()
        );
        let g = m.generate(4, &mut rng);
        assert!(
            g.all_finite(),
            "{}: NaN output on constant data",
            mid.name()
        );
    }
}

/// The smallest window the suite meaningfully evaluates: l = 4.
#[test]
fn minimal_window_length() {
    let data = Tensor3::from_fn(8, 4, 1, |s, t, _| 0.3 + 0.1 * ((s + t) % 3) as f64);
    for mid in MethodId::ALL {
        let mut rng = tsgb_rand::rngs::SmallRng::seed_from_u64(2);
        let mut m = mid.create(4, 1);
        m.fit(&data, &tiny_cfg(), &mut rng);
        let g = m.generate(3, &mut rng);
        assert_eq!(g.shape(), (3, 4, 1), "{}", mid.name());
        assert!(g.all_finite(), "{}", mid.name());
    }
}

/// Single-channel and batch-larger-than-dataset cases.
#[test]
fn batch_larger_than_dataset_is_clamped() {
    let data = Tensor3::from_fn(3, 5, 1, |s, t, _| (s + t) as f64 / 8.0);
    let cfg = TrainConfig {
        batch: 64,
        ..tiny_cfg()
    };
    for mid in [MethodId::TimeVae, MethodId::Rgan, MethodId::FourierFlow] {
        let mut rng = tsgb_rand::rngs::SmallRng::seed_from_u64(3);
        let mut m = mid.create(5, 1);
        m.fit(&data, &cfg, &mut rng);
        let g = m.generate(2, &mut rng);
        assert!(g.all_finite(), "{}", mid.name());
    }
}

/// Values hugging the extremes of the normalized range (sigmoid
/// saturation territory).
#[test]
fn extreme_valued_data_trains_stably() {
    let data = Tensor3::from_fn(12, 6, 1, |s, t, _| if (s + t) % 2 == 0 { 0.0 } else { 1.0 });
    for mid in [MethodId::TimeVae, MethodId::TimeGan, MethodId::Ls4] {
        let mut rng = tsgb_rand::rngs::SmallRng::seed_from_u64(4);
        let mut m = mid.create(6, 1);
        let report = m.fit(&data, &tiny_cfg(), &mut rng);
        assert!(
            report.loss_history.iter().all(|v| v.is_finite()),
            "{}: loss diverged on extreme data",
            mid.name()
        );
    }
}

/// Zero generation requests are a no-op, not a panic.
#[test]
fn zero_sample_generation() {
    let data = Tensor3::from_fn(6, 5, 1, |s, t, _| (s * t) as f64 / 30.0);
    let mut rng = tsgb_rand::rngs::SmallRng::seed_from_u64(5);
    let mut m = MethodId::TimeVae.create(5, 1);
    m.fit(&data, &tiny_cfg(), &mut rng);
    let g = m.generate(0, &mut rng);
    assert_eq!(g.samples(), 0);
}
