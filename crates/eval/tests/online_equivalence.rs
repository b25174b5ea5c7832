//! The online accumulators' equivalence contract against the batch
//! measures: MDD bit-identical for any push order, ACD bit-identical
//! in sample order, SD/KD within a pinned `1e-12`, and merge within
//! `1e-12` of sequential accumulation.

use tsgb_eval::feature_based;
use tsgb_eval::OnlineMeasures;
use tsgb_linalg::rng::seeded;
use tsgb_linalg::{Matrix, Tensor3};
use tsgb_rand::Rng;

fn mixed_tensor(r: usize, l: usize, n: usize, seed: u64) -> Tensor3 {
    let mut rng = seeded(seed);
    Tensor3::from_fn(r, l, n, |s, t, f| {
        let phase: f64 = rng.gen::<f64>() * std::f64::consts::TAU;
        let trend = (s % 3) as f64 * 0.05 * t as f64 / l as f64;
        0.5 + 0.4 * ((0.3 + 0.2 * f as f64) * t as f64 + phase).sin() + trend
    })
}

fn window_of(t: &Tensor3, s: usize) -> Matrix {
    Matrix::from_fn(t.seq_len(), t.features(), |step, f| t.at(s, step, f))
}

fn close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
        "{what}: online {a} vs batch {b}"
    );
}

#[test]
fn sample_order_push_matches_batch() {
    for seed in 0..4u64 {
        let real = mixed_tensor(40, 10, 2, seed);
        let generated = mixed_tensor(35, 10, 2, seed + 100);
        let mut online = OnlineMeasures::new(&real);
        online.push_tensor(&generated);
        assert_eq!(online.windows(), 35);
        // MDD and ACD: exactly the batch arithmetic in the batch order
        assert_eq!(
            online.mdd().to_bits(),
            feature_based::mdd(&real, &generated).to_bits(),
            "seed {seed}: MDD must be bit-identical"
        );
        assert_eq!(
            online.acd().to_bits(),
            feature_based::acd(&real, &generated).to_bits(),
            "seed {seed}: ACD must be bit-identical in sample order"
        );
        // SD/KD: single-pass moments, pinned tolerance
        close(online.sd(), feature_based::sd(&real, &generated), "SD");
        close(online.kd(), feature_based::kd(&real, &generated), "KD");
    }
}

#[test]
fn mdd_is_push_order_invariant() {
    let real = mixed_tensor(30, 8, 2, 7);
    let generated = mixed_tensor(24, 8, 2, 8);
    let mut fwd = OnlineMeasures::new(&real);
    let mut rev = OnlineMeasures::new(&real);
    for s in 0..generated.samples() {
        fwd.push(&window_of(&generated, s));
        rev.push(&window_of(&generated, generated.samples() - 1 - s));
    }
    assert_eq!(fwd.mdd().to_bits(), rev.mdd().to_bits());
}

#[test]
fn merged_accumulators_match_sequential_within_tolerance() {
    let real = mixed_tensor(30, 9, 2, 9);
    let generated = mixed_tensor(28, 9, 2, 10);
    let mut whole = OnlineMeasures::new(&real);
    whole.push_tensor(&generated);
    let mut left = OnlineMeasures::new(&real);
    let mut right = OnlineMeasures::new(&real);
    for s in 0..generated.samples() {
        let w = window_of(&generated, s);
        if s < generated.samples() / 2 {
            left.push(&w);
        } else {
            right.push(&w);
        }
    }
    left.merge(&right);
    assert_eq!(left.windows(), whole.windows());
    // counts add exactly
    assert_eq!(left.mdd().to_bits(), whole.mdd().to_bits());
    close(left.acd(), whole.acd(), "merged ACD");
    close(left.sd(), whole.sd(), "merged SD");
    close(left.kd(), whole.kd(), "merged KD");
    // and against the batch measures
    close(
        left.acd(),
        feature_based::acd(&real, &generated),
        "merged ACD vs batch",
    );
    close(
        left.sd(),
        feature_based::sd(&real, &generated),
        "merged SD vs batch",
    );
    close(
        left.kd(),
        feature_based::kd(&real, &generated),
        "merged KD vs batch",
    );
}

#[test]
fn merging_an_empty_accumulator_is_the_identity() {
    let real = mixed_tensor(20, 8, 2, 20);
    let generated = mixed_tensor(15, 8, 2, 21);
    let mut full = OnlineMeasures::new(&real);
    full.push_tensor(&generated);
    let empty = OnlineMeasures::new(&real);
    // full ← empty: nothing changes, bit-for-bit
    let before = (full.mdd().to_bits(), full.windows());
    let (acd, sd, kd) = (full.acd(), full.sd(), full.kd());
    full.merge(&empty);
    assert_eq!((full.mdd().to_bits(), full.windows()), before);
    close(full.acd(), acd, "ACD after empty merge");
    close(full.sd(), sd, "SD after empty merge");
    close(full.kd(), kd, "KD after empty merge");
    // empty ← full: adopts the full state
    let mut adopt = OnlineMeasures::new(&real);
    adopt.merge(&full);
    assert_eq!(adopt.windows(), full.windows());
    assert_eq!(adopt.mdd().to_bits(), full.mdd().to_bits());
    close(adopt.acd(), full.acd(), "ACD adopted from merge");
    close(adopt.sd(), full.sd(), "SD adopted from merge");
    close(adopt.kd(), full.kd(), "KD adopted from merge");
}

#[test]
fn merging_two_empty_accumulators_stays_empty() {
    let real = mixed_tensor(12, 6, 1, 22);
    let mut a = OnlineMeasures::new(&real);
    let b = OnlineMeasures::new(&real);
    a.merge(&b);
    assert_eq!(a.windows(), 0);
}

#[test]
fn single_window_merges_match_sequential_pushes() {
    // the finest possible sharding: one accumulator per window, folded
    // left to right, must agree with one sequential accumulator
    let real = mixed_tensor(18, 7, 2, 23);
    let generated = mixed_tensor(9, 7, 2, 24);
    let mut whole = OnlineMeasures::new(&real);
    whole.push_tensor(&generated);
    let mut folded = OnlineMeasures::new(&real);
    for s in 0..generated.samples() {
        let mut shard = OnlineMeasures::new(&real);
        shard.push(&window_of(&generated, s));
        assert_eq!(shard.windows(), 1);
        folded.merge(&shard);
    }
    assert_eq!(folded.windows(), whole.windows());
    assert_eq!(folded.mdd().to_bits(), whole.mdd().to_bits());
    close(folded.acd(), whole.acd(), "folded ACD");
    close(folded.sd(), whole.sd(), "folded SD");
    close(folded.kd(), whole.kd(), "folded KD");
}

#[test]
fn identical_stream_scores_zero_like_the_batch() {
    let real = mixed_tensor(25, 8, 2, 11);
    let mut online = OnlineMeasures::new(&real);
    online.push_tensor(&real);
    assert_eq!(online.mdd(), 0.0);
    assert_eq!(online.acd(), 0.0);
    close(online.sd(), 0.0, "SD on identical data");
    close(online.kd(), 0.0, "KD on identical data");
}

#[test]
#[should_panic(expected = "different references")]
fn merge_rejects_a_different_reference() {
    let a = OnlineMeasures::new(&mixed_tensor(10, 6, 1, 12));
    let mut b = OnlineMeasures::new(&mixed_tensor(10, 6, 1, 13));
    b.merge(&a);
}

#[test]
#[should_panic(expected = "window shape mismatch")]
fn push_rejects_a_wrong_shape() {
    let mut m = OnlineMeasures::new(&mixed_tensor(10, 6, 2, 14));
    m.push(&Matrix::zeros(5, 2));
}
