//! Contracts of the two scenario capabilities:
//!
//! * [`TsgMethod::open_stream`] — chunk concatenation is bit-identical
//!   to the one-shot `generate(n, seed)` for any chunk-size sequence,
//!   on every method: the nine that decode each chunk on pull and the
//!   five on the eager default.
//! * [`ConditionalSample`] — strength 0 is bit-identical to the
//!   unconditional draw, conditioning is deterministic per condition,
//!   and distinct classes separate.

use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_methods::common::Condition;
use tsgb_methods::rgan::Rgan;
use tsgb_methods::timevae::TimeVae;
use tsgb_methods::{GenSpec, MethodId, TrainConfig, TsgMethod};

fn toy_data(r: usize, l: usize, n: usize) -> Tensor3 {
    Tensor3::from_fn(r, l, n, |s, t, f| {
        0.5 + 0.4 * ((t + s) as f64 * 0.7 + f as f64).sin()
    })
}

fn fit(method: &mut dyn TsgMethod, seed: u64) {
    let data = toy_data(24, 8, 2);
    let cfg = TrainConfig {
        epochs: 3,
        ..TrainConfig::fast()
    };
    method.fit(&data, &cfg, &mut seeded(seed));
}

fn concat_stream(method: &dyn TsgMethod, spec: GenSpec, chunks: &[usize]) -> Tensor3 {
    let mut stream = method.open_stream(spec);
    let mut parts = Vec::new();
    let mut sizes = chunks.iter().copied().cycle();
    while stream.remaining() > 0 {
        let want = sizes.next().unwrap();
        let part = stream.next_chunk(want).expect("remaining > 0");
        assert!(part.samples() <= want.max(1));
        parts.push(part);
    }
    assert!(
        stream.next_chunk(4).is_none(),
        "exhausted stream yields None"
    );
    let mut out = parts.remove(0);
    for p in &parts {
        out = out.concat_samples(p);
    }
    out
}

fn assert_stream_matches_one_shot(method: &dyn TsgMethod, what: &str) {
    let spec = GenSpec { n: 11, seed: 42 };
    let one_shot = method.generate(spec.n, &mut spec.rng());
    for chunks in [&[1usize][..], &[4][..], &[3, 5][..], &[11][..], &[16][..]] {
        let streamed = concat_stream(method, spec, chunks);
        assert_eq!(streamed.shape(), one_shot.shape(), "{what} {chunks:?}");
        let a: Vec<u64> = streamed.as_slice().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = one_shot.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "{what}: chunks {chunks:?} must be bit-identical");
    }
}

fn all_methods() -> impl Iterator<Item = MethodId> {
    MethodId::ALL.into_iter().chain(MethodId::EXTENDED)
}

#[test]
fn every_stream_is_bit_identical_to_one_shot() {
    for id in all_methods() {
        let mut m = id.create(8, 2);
        fit(m.as_mut(), id as u64 + 7);
        assert_stream_matches_one_shot(m.as_ref(), id.name());
    }
}

#[test]
fn zero_strength_condition_is_bit_identical_to_unconditional() {
    let mut rgan = Rgan::new(8, 2);
    fit(&mut rgan, 10);
    let mut vae = TimeVae::new(8, 2);
    fit(&mut vae, 11);
    for (m, name) in [(&rgan as &dyn TsgMethod, "rgan"), (&vae, "timevae")] {
        let cond = m.conditional().expect("capability present");
        for c in [
            Condition::Class {
                label: 3,
                strength: 0.0,
            },
            Condition::Covariate {
                values: vec![0.4, -0.2],
                strength: 0.0,
            },
        ] {
            let plain = m.generate(6, &mut seeded(5));
            let shaped = cond.generate_conditioned(6, &c, &mut seeded(5));
            assert_eq!(
                plain
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                shaped
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "{name}: strength 0 must not shape the noise"
            );
        }
    }
}

#[test]
fn conditioning_is_deterministic_and_classes_separate() {
    let mut m = TimeVae::new(8, 2);
    fit(&mut m, 12);
    let cond = m.conditional().unwrap();
    let class = |label| Condition::Class {
        label,
        strength: 2.0,
    };
    let a1 = cond.generate_conditioned(8, &class(0), &mut seeded(3));
    let a2 = cond.generate_conditioned(8, &class(0), &mut seeded(3));
    assert_eq!(a1, a2, "same (condition, seed) must reproduce");
    let b = cond.generate_conditioned(8, &class(1), &mut seeded(3));
    assert_ne!(a1, b, "distinct classes must shape differently");
    // class means separate: the shift moves the decoded mean
    let mean = |t: &Tensor3| t.as_slice().iter().sum::<f64>() / t.as_slice().len() as f64;
    assert!(
        (mean(&a1) - mean(&b)).abs() > 1e-6,
        "class shift should move the output distribution"
    );
}

#[test]
fn covariate_condition_shapes_consistently() {
    let mut m = Rgan::new(8, 2);
    fit(&mut m, 13);
    let cond = m.conditional().unwrap();
    let cov = |values: Vec<f64>| Condition::Covariate {
        values,
        strength: 1.5,
    };
    let a = cond.generate_conditioned(6, &cov(vec![1.0, 0.0]), &mut seeded(4));
    let b = cond.generate_conditioned(6, &cov(vec![1.0, 0.0]), &mut seeded(4));
    let c = cond.generate_conditioned(6, &cov(vec![0.0, 1.0]), &mut seeded(4));
    assert_eq!(a, b);
    assert_ne!(a, c);
    // an empty covariate vector means no shift at any strength
    let empty = cond.generate_conditioned(6, &cov(vec![]), &mut seeded(4));
    let plain = m.generate(6, &mut seeded(4));
    assert_eq!(empty, plain);
}

#[test]
fn methods_without_the_capability_report_none() {
    for id in all_methods() {
        let m = id.create(8, 2);
        let expected = matches!(id, MethodId::Rgan | MethodId::TimeVae);
        assert_eq!(m.conditional().is_some(), expected, "{}", id.name());
    }
}
