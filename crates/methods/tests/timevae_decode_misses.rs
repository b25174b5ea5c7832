//! TimeVAE's decode records the same few tape nodes whatever the
//! window length: its trend and seasonality heads meet the time basis
//! in one node, and one `concat_cols` joins the heads. So a one-window
//! `generate` on a warm sampling tape must publish the same
//! `nn.pool.miss` count at l = 64 as at l = 256, and a small one. The
//! count is read from the process-wide obs registry, so this file holds
//! one test and nothing else records beside it.

use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_methods::{MethodId, TrainConfig};

fn pool_misses() -> u64 {
    tsgb_obs::snapshot()
        .counters
        .into_iter()
        .find(|(k, _)| k == "nn.pool.miss")
        .map_or(0, |(_, v)| v)
}

/// The `nn.pool.miss` a one-window `generate` publishes at window
/// length `l`, after a first call has bound the weights.
fn one_window_misses(l: usize) -> u64 {
    let features = 4;
    let data = Tensor3::from_fn(8, l, features, |s, t, f| {
        0.5 + 0.3 * (t as f64 * 0.2 + s as f64 + f as f64).sin()
    });
    let cfg = TrainConfig {
        epochs: 1,
        batch: 4,
        hidden: 16,
        latent: 8,
        lr: 1e-3,
    };
    let mut m = MethodId::TimeVae.create(l, features);
    m.fit(&data, &cfg, &mut seeded(3));
    m.generate(1, &mut seeded(4));
    let before = pool_misses();
    m.generate(1, &mut seeded(5));
    pool_misses() - before
}

#[test]
fn a_one_window_decode_misses_the_pool_the_same_few_times_at_any_length() {
    tsgb_obs::set_enabled(true);
    let (short, long) = (one_window_misses(64), one_window_misses(256));
    assert_eq!(short, long, "pool misses grow with the window length");
    assert!(long < 50, "{long} pool misses for one decoded window");
}
