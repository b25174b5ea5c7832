//! Proptest-based shape-robustness properties for the cheap methods.
//! Opt-in: requires the `proptest` cargo feature and the external
//! `proptest` crate (see README "Offline build"). The always-on
//! seeded-loop variant lives in `method_contracts.rs`.

use proptest::prelude::*;
use tsgb_linalg::Tensor3;
use tsgb_methods::common::{MethodId, TrainConfig};
use tsgb_rand::SeedableRng;

fn tiny_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch: 8,
        hidden: 6,
        latent: 4,
        lr: 2e-3,
    }
}

fn toy(r: usize, l: usize, n: usize) -> Tensor3 {
    Tensor3::from_fn(r, l, n, |s, t, f| {
        0.5 + 0.4 * ((t as f64) * 0.6 + (s % 3) as f64 + f as f64 * 0.2).sin()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary (small) window shapes never break the cheap methods.
    #[test]
    fn shape_robustness_fast_methods(l in 4usize..14, n in 1usize..4, r in 6usize..16) {
        let data = toy(r, l, n);
        for mid in [MethodId::TimeVae, MethodId::FourierFlow, MethodId::Ls4, MethodId::TimeVqVae] {
            let mut rng = tsgb_rand::rngs::SmallRng::seed_from_u64(13);
            let mut m = mid.create(l, n);
            m.fit(&data, &tiny_cfg(), &mut rng);
            let g = m.generate(3, &mut rng);
            prop_assert_eq!(g.shape(), (3, l, n));
            prop_assert!(g.all_finite());
        }
    }
}
