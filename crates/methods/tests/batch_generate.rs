//! The `generate_batch` contract: fused request coalescing must be
//! bit-exact with one independent `generate` call per request — the
//! property `tsgb-serve` relies on to batch without changing outputs.

use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_methods::common::{serial_generate_batch, GenSpec};
use tsgb_methods::{MethodId, TrainConfig, TsgMethod};

fn toy(r: usize, l: usize, n: usize) -> Tensor3 {
    Tensor3::from_fn(r, l, n, |s, t, f| {
        0.5 + 0.25 * ((t as f64) * 0.8 + (s % 3) as f64 + 0.5 * f as f64).cos()
    })
}

fn all_methods() -> impl Iterator<Item = MethodId> {
    MethodId::ALL.into_iter().chain(MethodId::EXTENDED)
}

fn trained(id: MethodId) -> Box<dyn TsgMethod> {
    let (l, n) = (8, 2);
    let data = toy(12, l, n);
    let mut m = id.create(l, n);
    let cfg = TrainConfig {
        epochs: 3,
        ..TrainConfig::fast()
    };
    m.fit(&data, &cfg, &mut seeded(id as u64 + 31));
    m
}

fn assert_batch_matches_serial(m: &dyn TsgMethod, specs: &[GenSpec]) {
    let serial = serial_generate_batch(m, specs);
    let fused = m.generate_batch(specs);
    assert_eq!(serial.len(), fused.len(), "{}: arity", m.name());
    for (i, (a, b)) in serial.iter().zip(&fused).enumerate() {
        assert_eq!(a.shape(), b.shape(), "{} spec {i}: shape", m.name());
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "{} spec {i} (n={}, seed={}): fused batch diverged from serial",
            m.name(),
            specs[i].n,
            specs[i].seed
        );
    }
}

#[test]
fn batched_generation_is_bit_identical_to_serial() {
    // mixed sizes plus a duplicated seed: identical seeds must yield
    // identical windows regardless of their position in the batch; the
    // same batch with a zero-size request inside takes the serial
    // fallback and must match too
    let specs = [
        GenSpec { n: 3, seed: 11 },
        GenSpec { n: 1, seed: 400 },
        GenSpec { n: 2, seed: 11 },
        GenSpec { n: 4, seed: 7 },
    ];
    let mut with_empty = specs.to_vec();
    with_empty.insert(2, GenSpec { n: 0, seed: 5 });
    for id in all_methods() {
        let m = trained(id);
        assert_batch_matches_serial(m.as_ref(), &specs);
        assert_batch_matches_serial(m.as_ref(), &with_empty);
    }
}

#[test]
fn single_and_empty_batches_degenerate_cleanly() {
    let m = trained(MethodId::TimeVae);
    assert!(m.generate_batch(&[]).is_empty());
    assert_batch_matches_serial(m.as_ref(), &[GenSpec { n: 5, seed: 123 }]);
}

#[test]
fn batch_output_is_stable_across_repeated_calls() {
    let m = trained(MethodId::Rgan);
    let specs = [GenSpec { n: 2, seed: 9 }, GenSpec { n: 2, seed: 10 }];
    let a = m.generate_batch(&specs);
    let b = m.generate_batch(&specs);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.as_slice(), y.as_slice(), "generation must be pure");
    }
}
