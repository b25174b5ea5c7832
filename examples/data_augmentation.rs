//! Data augmentation — the paper's opening motivation for TSG: when a
//! downstream model is data-starved, synthetic windows can stand in
//! for real ones. This example demonstrates the "Train on Synthetic,
//! Test on Real" (TSTR) scheme directly: a forecaster trained purely
//! on TimeVAE output is evaluated on held-out real windows and
//! compared against one trained on the small real set.
//!
//! ```text
//! cargo run --release --example data_augmentation
//! ```

use tsgb_eval::model_based::{predictive_score, PostHocConfig, PsVariant};
use tsgb_rand::SeedableRng;
use tsgbench::prelude::*;

fn main() {
    // A periodic appliance-load dataset, deliberately small.
    let spec = DatasetSpec::get(DatasetId::Energy)
        .scaled(80)
        .with_max_len(24);
    let data = spec.materialize(7);
    println!(
        "Energy (reduced): {} train windows, {} held-out windows",
        data.train.samples(),
        data.test.samples()
    );

    // Train the generator on the training windows.
    let mut method = methods::timevae::TimeVae::new(data.train.seq_len(), data.train.features());
    let mut rng = tsgb_rand::rngs::SmallRng::seed_from_u64(7);
    let mut cfg = TrainConfig::fast();
    cfg.epochs = 120;
    let report = method.fit(&data.train, &cfg, &mut rng);
    println!(
        "TimeVAE trained in {:.2}s (final ELBO {:.4})",
        report.train_seconds,
        report.loss_history.last().unwrap()
    );

    // Synthesize 4x the real training volume.
    let synthetic = method.generate(data.train.samples() * 4, &mut rng);
    println!("generated {} synthetic windows", synthetic.samples());

    // TSTR: the predictive score trains a GRU forecaster on a source
    // set and reports its MAE on the *real held-out* windows.
    let post_hoc = PostHocConfig {
        hidden: 12,
        epochs: 150,
    };
    let mae_synthetic = predictive_score(
        &data.test,
        &synthetic,
        PsVariant::NextStep,
        &post_hoc,
        &mut rng,
    );
    let mae_real = predictive_score(
        &data.test,
        &data.train,
        PsVariant::NextStep,
        &post_hoc,
        &mut rng,
    );
    println!("\nnext-step forecasting MAE on real held-out windows:");
    println!("  trained on real windows       : {mae_real:.4}");
    println!("  trained on synthetic windows  : {mae_synthetic:.4}");
    let gap = (mae_synthetic - mae_real) / mae_real.max(1e-9) * 100.0;
    println!(
        "\nTSTR gap: {gap:+.1}% — a small gap means the synthetic data preserves\n\
         the temporal structure the forecaster needs (the paper's usefulness axis)."
    );
}
