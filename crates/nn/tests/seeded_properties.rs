//! Seeded-loop properties of the gradient tape: linearity of
//! differentiation, finite-difference agreement on random composite
//! graphs, accumulation over reuse, and zero gradients for unused
//! leaves.

use tsgb_linalg::rng::{seeded, uniform_matrix};
use tsgb_nn::gradcheck;
use tsgb_nn::params::Params;
use tsgb_nn::tape::Tape;
use tsgb_rand::Rng;

#[test]
fn gradient_of_linear_combination_is_exact_seeded() {
    let mut rng = seeded(0xD1);
    for _ in 0..10 {
        let x = uniform_matrix(3, 3, -2.0, 2.0, &mut rng);
        let y = uniform_matrix(3, 3, -2.0, 2.0, &mut rng);
        let a = rng.gen_range(-3.0..3.0);
        let b = rng.gen_range(-3.0..3.0);
        let mut t = Tape::new();
        let xv = t.leaf(x);
        let yv = t.leaf(y);
        let ax = t.scale(xv, a);
        let by = t.scale(yv, b);
        let sum = t.add(ax, by);
        let loss = t.sum(sum);
        t.backward(loss);
        for &g in t.grad(xv).as_slice() {
            assert!((g - a).abs() < 1e-12);
        }
        for &g in t.grad(yv).as_slice() {
            assert!((g - b).abs() < 1e-12);
        }
    }
}

#[test]
fn random_composite_graphs_gradcheck_seeded() {
    let mut rng = seeded(0xD2);
    for round in 0..8 {
        let w = uniform_matrix(2, 3, -2.0, 2.0, &mut rng);
        let v = uniform_matrix(3, 2, -2.0, 2.0, &mut rng);
        let pick = round % 4;
        let mut p = Params::new();
        let wid = p.register("w", w);
        let vid = p.register("v", v);
        let report = gradcheck::check_model(
            &mut p,
            move |t, b| {
                let wv = b.var(wid);
                let vv = b.var(vid);
                let prod = t.matmul(wv, vv);
                let act = match pick {
                    0 => t.tanh(prod),
                    1 => t.sigmoid(prod),
                    2 => t.softplus(prod),
                    _ => {
                        let s = t.square(prod);
                        t.leaky_relu(s, 0.1)
                    }
                };
                let sq = t.square(act);
                t.mean(sq)
            },
            1e-5,
            1,
        );
        assert!(
            report.passes(2e-4),
            "rel err {} at {:?}",
            report.max_rel_err,
            report.worst
        );
    }
}

#[test]
fn reuse_accumulates_seeded() {
    let mut rng = seeded(0xD3);
    for _ in 0..6 {
        let x = uniform_matrix(2, 2, -2.0, 2.0, &mut rng);
        let mut t = Tape::new();
        let xv = t.leaf(x);
        let s1 = t.sum(xv);
        let s2 = t.sum(xv);
        let loss = t.add(s1, s2);
        t.backward(loss);
        for &g in t.grad(xv).as_slice() {
            assert!((g - 2.0).abs() < 1e-12);
        }
    }
}

#[test]
fn unused_leaves_have_zero_gradients_seeded() {
    let mut rng = seeded(0xD4);
    for _ in 0..6 {
        let x = uniform_matrix(2, 2, -2.0, 2.0, &mut rng);
        let y = uniform_matrix(2, 2, -2.0, 2.0, &mut rng);
        let mut t = Tape::new();
        let xv = t.leaf(x);
        let yv = t.leaf(y);
        let sq = t.square(xv);
        let loss = t.mean(sq);
        t.backward(loss);
        assert!(t.grad(yv).as_slice().iter().all(|&g| g == 0.0));
    }
}
