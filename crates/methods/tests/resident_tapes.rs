//! The resident-binding contract. Every method samples on tapes that
//! keep its weights bound between calls; those tapes live in the state
//! that `fit` and `load` rebuild, so they can never serve weights the
//! model no longer holds. For all fourteen methods, with the tapes warm:
//! `generate` after a second `fit`, and after `load` of another
//! checkpoint, equals a fresh instance's output bit for bit, and two
//! threads sampling one model at once get exactly what serial calls
//! return.

use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_methods::{MethodId, TrainConfig, TsgMethod};

const L: usize = 8;
const N: usize = 2;

fn cfg() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch: 8,
        hidden: 6,
        latent: 4,
        lr: 2e-3,
    }
}

fn toy() -> Tensor3 {
    Tensor3::from_fn(12, L, N, |s, t, f| {
        0.5 + 0.4 * ((t as f64) * 0.6 + (s % 3) as f64 + f as f64 * 0.2).sin()
    })
}

fn all_methods() -> impl Iterator<Item = MethodId> {
    MethodId::ALL.into_iter().chain(MethodId::EXTENDED)
}

fn fitted(id: MethodId, seed: u64) -> Box<dyn TsgMethod> {
    let mut m = id.create(L, N);
    m.fit(&toy(), &cfg(), &mut seeded(seed));
    m
}

fn sample(m: &dyn TsgMethod, seed: u64) -> Vec<u64> {
    let t = m.generate(3, &mut seeded(seed));
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn warm_tapes_follow_a_second_fit_and_a_load() {
    for id in all_methods() {
        let mut m = fitted(id, 1);
        let first = sample(&*m, 40);

        m.fit(&toy(), &cfg(), &mut seeded(2));
        let refit = sample(&*m, 41);
        assert_eq!(refit, sample(&*fitted(id, 2), 41), "{}: refit", id.name());
        assert_ne!(
            sample(&*m, 40),
            first,
            "{}: the refit must change the samples for this test to bind",
            id.name()
        );

        let other = fitted(id, 3);
        m.load(&other.save().unwrap()).unwrap();
        let mut fresh = id.create(L, N);
        fresh.load(&other.save().unwrap()).unwrap();
        assert_eq!(sample(&*m, 42), sample(&*fresh, 42), "{}: load", id.name());
    }
}

#[test]
fn concurrent_sampling_matches_serial_calls() {
    for id in all_methods() {
        let m = fitted(id, 5);
        let seeds: Vec<u64> = (100..106).collect();
        let serial: Vec<Vec<u64>> = seeds.iter().map(|&s| sample(&*m, s)).collect();
        let (m, seeds) = (&*m, &seeds);
        // both threads start each round together, so their calls overlap
        let round = std::sync::Barrier::new(2);
        let round = &round;
        let (evens, odds) = std::thread::scope(|s| {
            let run = |parity: usize| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for _ in 0..4 {
                        round.wait();
                        for &seed in seeds.iter().skip(parity).step_by(2) {
                            out.push((seed, sample(m, seed)));
                        }
                    }
                    out
                })
            };
            let (a, b) = (run(0), run(1));
            (a.join().unwrap(), b.join().unwrap())
        });
        for (seed, bits) in evens.into_iter().chain(odds) {
            let want = &serial[(seed - 100) as usize];
            assert_eq!(&bits, want, "{}: seed {seed} under concurrency", id.name());
        }
    }
}
