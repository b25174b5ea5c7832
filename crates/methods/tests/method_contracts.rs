//! Contract tests shared by all ten methods: the invariants the
//! benchmark harness assumes of anything implementing `TsgMethod`.

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

#[test]
fn all_methods_honor_requested_sample_counts() {
    let data = toy(12, 6, 2);
    for mid in MethodId::ALL {
        let mut rng = tsgb_rand::rngs::SmallRng::seed_from_u64(3);
        let mut m = mid.create(6, 2);
        m.fit(&data, &tiny_cfg(), &mut rng);
        for &n in &[1usize, 5, 17] {
            let g = m.generate(n, &mut rng);
            assert_eq!(g.samples(), n, "{}", mid.name());
        }
    }
}

#[test]
fn generate_is_pure_given_rng_state() {
    // generate must not mutate the model: two calls with identically
    // seeded RNGs produce identical output
    let data = toy(10, 5, 2);
    for mid in MethodId::ALL {
        let mut rng = tsgb_rand::rngs::SmallRng::seed_from_u64(7);
        let mut m = mid.create(5, 2);
        m.fit(&data, &tiny_cfg(), &mut rng);
        let mut r1 = tsgb_rand::rngs::SmallRng::seed_from_u64(99);
        let mut r2 = tsgb_rand::rngs::SmallRng::seed_from_u64(99);
        let g1 = m.generate(4, &mut r1);
        let g2 = m.generate(4, &mut r2);
        assert_eq!(g1, g2, "{}: generate is not pure", mid.name());
    }
}

#[test]
fn method_names_are_unique_and_stable() {
    let mut names: Vec<&str> = MethodId::ALL.iter().map(|m| m.name()).collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "duplicate method names");
}

/// Sampled small window shapes never break the cheap methods.
#[test]
fn shape_robustness_fast_methods_seeded() {
    use tsgb_rand::Rng;
    let mut shape_rng = tsgb_rand::rngs::SmallRng::seed_from_u64(0x5EED);
    for _ in 0..6 {
        let l = shape_rng.gen_range(4usize..14);
        let n = shape_rng.gen_range(1usize..4);
        let r = shape_rng.gen_range(6usize..16);
        let data = toy(r, l, n);
        for mid in [
            MethodId::TimeVae,
            MethodId::FourierFlow,
            MethodId::Ls4,
            MethodId::TimeVqVae,
        ] {
            let mut rng = tsgb_rand::rngs::SmallRng::seed_from_u64(13);
            let mut m = mid.create(l, n);
            m.fit(&data, &tiny_cfg(), &mut rng);
            let g = m.generate(3, &mut rng);
            assert_eq!(g.shape(), (3, l, n), "{} at ({r},{l},{n})", mid.name());
            assert!(g.all_finite(), "{} at ({r},{l},{n})", mid.name());
        }
    }
}
