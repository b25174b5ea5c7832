//! Digest stability contract (the cache's whole correctness story):
//! canonical encodings round-trip bit-exactly through the `tsgb-wire`
//! codec, the unordered digest is invariant to window insertion order,
//! and flipping any single bit of any f64 changes both digests — over
//! a seeded corpus.

use tsgb_evalcache::{decode_tensor, digest_tensor, digest_tensor_unordered, encode_tensor};
use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_rand::Rng;

/// A corpus tensor mixing ordinary in-range values with adversarial
/// floats (negative zero, subnormals, huge magnitudes, long
/// fractions) — everything the shortest-roundtrip encoder must carry.
fn corpus_tensor(seed: u64, r: usize, l: usize, n: usize) -> Tensor3 {
    let mut rng = seeded(seed);
    let specials = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        1.0 / 3.0,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 8.0, // subnormal
        1e300,
        -1e-300,
        f64::MAX,
    ];
    Tensor3::from_fn(r, l, n, |s, t, f| {
        if (s + t + f) % 5 == 0 {
            specials[rng.gen::<u64>() as usize % specials.len()]
        } else {
            rng.gen::<f64>() * 2.0 - 1.0
        }
    })
}

#[test]
fn canonical_encoding_roundtrips_bit_exactly() {
    for seed in 0..8u64 {
        let t = corpus_tensor(seed, 5, 7, 3);
        let text = encode_tensor(&t);
        let back = decode_tensor(&text).unwrap();
        assert_eq!(back.shape(), t.shape(), "seed {seed}");
        for (i, (a, b)) in t.as_slice().iter().zip(back.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "seed {seed}, value {i}: {a} re-parsed as {b}"
            );
        }
        // and the re-encoding is byte-identical — the digest of the
        // encoding is well-defined
        assert_eq!(encode_tensor(&back), text, "seed {seed}");
    }
}

#[test]
fn digests_are_stable_across_calls() {
    let t = corpus_tensor(1, 6, 5, 2);
    assert_eq!(digest_tensor(&t), digest_tensor(&t));
    assert_eq!(digest_tensor_unordered(&t), digest_tensor_unordered(&t));
}

/// Permutes samples of a tensor.
fn permute_samples(t: &Tensor3, order: &[usize]) -> Tensor3 {
    assert_eq!(order.len(), t.samples());
    Tensor3::from_fn(t.samples(), t.seq_len(), t.features(), |s, step, f| {
        t.at(order[s], step, f)
    })
}

#[test]
fn unordered_digest_is_insertion_order_invariant() {
    for seed in 0..6u64 {
        let t = corpus_tensor(seed + 10, 9, 6, 2);
        let mut rng = seeded(seed + 100);
        // a few random permutations per corpus tensor
        for _ in 0..4 {
            let mut order: Vec<usize> = (0..t.samples()).collect();
            // Fisher-Yates with the vendored RNG
            for i in (1..order.len()).rev() {
                let j = rng.gen::<u64>() as usize % (i + 1);
                order.swap(i, j);
            }
            let p = permute_samples(&t, &order);
            assert_eq!(
                digest_tensor_unordered(&t),
                digest_tensor_unordered(&p),
                "seed {seed}: bag digest must ignore sample order"
            );
            if order.iter().enumerate().any(|(i, &o)| i != o) {
                // the positional digest must NOT be order-blind
                assert_ne!(
                    digest_tensor(&t),
                    digest_tensor(&p),
                    "seed {seed}: positional digest ignored a real permutation"
                );
            }
        }
    }
}

#[test]
fn any_single_bit_flip_changes_both_digests() {
    let mut rng = seeded(42);
    for trial in 0..64 {
        let t = corpus_tensor(trial, 4, 5, 2);
        let base = digest_tensor(&t);
        let base_bag = digest_tensor_unordered(&t);
        let mut data = t.as_slice().to_vec();
        let idx = rng.gen::<u64>() as usize % data.len();
        let bit = rng.gen::<u64>() as u32 % 64;
        let flipped = f64::from_bits(data[idx].to_bits() ^ (1u64 << bit));
        if flipped.is_nan() {
            continue; // NaN is outside the digest contract
        }
        data[idx] = flipped;
        let mutated = Tensor3::from_vec(4, 5, 2, data).unwrap();
        assert_ne!(
            digest_tensor(&mutated),
            base,
            "trial {trial}: flip of bit {bit} at {idx} kept the positional digest"
        );
        assert_ne!(
            digest_tensor_unordered(&mutated),
            base_bag,
            "trial {trial}: flip of bit {bit} at {idx} kept the bag digest"
        );
    }
}

#[test]
fn negative_zero_and_zero_are_distinct_content() {
    let a = Tensor3::from_vec(1, 1, 1, vec![0.0]).unwrap();
    let b = Tensor3::from_vec(1, 1, 1, vec![-0.0]).unwrap();
    // bit-exact addressing: -0.0 and 0.0 are different bytes
    assert_ne!(digest_tensor(&a), digest_tensor(&b));
    let back = decode_tensor(&encode_tensor(&b)).unwrap();
    assert_eq!(back.as_slice()[0].to_bits(), (-0.0f64).to_bits());
}
