//! Compiled-plan equivalence properties: replaying a frozen execution
//! plan must be a pure performance optimization. Every test here
//! trains the same seeded workload twice — once stepping with
//! `begin_step` (record once, replay every later step) and once with
//! `reset`, which records every step and runs the one-shot backward
//! sweep — and demands bit-for-bit identical parameters, while also
//! pinning the capture/replay/invalidation counters the plan machinery
//! reports. The liveness test also checks that backward gives no
//! gradient slot to a node that depends on no trainable leaf.

use tsgb_linalg::rng::{randn_matrix, seeded};
use tsgb_linalg::Matrix;
use tsgb_nn::layers::{GruCell, Linear};
use tsgb_nn::loss;
use tsgb_nn::optim::Adam;
use tsgb_nn::params::Params;
use tsgb_nn::tape::Tape;

/// One training step's worth of data: per-timestep inputs plus the
/// regression target (shaped to the step's batch size).
type StepData = (Vec<Matrix>, Matrix);

/// Seeded minibatches; `batch_of(i)` lets a test change the batch
/// size mid-training to exercise the invalidation fallback.
fn make_steps(
    steps: usize,
    seq_of: impl Fn(usize) -> usize,
    batch_of: impl Fn(usize) -> usize,
    features: usize,
) -> Vec<StepData> {
    let mut rng = seeded(911);
    (0..steps)
        .map(|i| {
            let xs = (0..seq_of(i))
                .map(|_| randn_matrix(batch_of(i), features, &mut rng))
                .collect();
            let target = randn_matrix(batch_of(i), features, &mut rng);
            (xs, target)
        })
        .collect()
}

/// Trains a GRU + linear head on `data`, recycling one tape across
/// steps: stepped with `begin_step` when `plan` is set, else with
/// `reset`. Returns the final parameters and the tape's (captures,
/// replays, invalidations).
fn train(
    plan: bool,
    data: &[StepData],
    features: usize,
    hidden: usize,
) -> (Params, (u64, u64, u64)) {
    let mut rng = seeded(7);
    let mut p = Params::new();
    let cell = GruCell::new(&mut p, "g", features, hidden, &mut rng);
    let head = Linear::new(&mut p, "h", hidden, features, &mut rng);
    let mut opt = Adam::new(1e-3);
    let mut tape = Tape::new();
    let mut binding = p.bind(&mut tape);
    for (xs, target) in data {
        if plan {
            tape.begin_step();
        } else {
            tape.reset();
        }
        let t = &mut tape;
        p.rebind(t, &mut binding);
        let mut h = t.zeros(xs[0].rows(), hidden);
        for x in xs {
            let xv = t.constant_copy(x);
            h = cell.step(t, &binding, xv, h);
        }
        let pred = head.forward(t, &binding, h);
        let l = loss::mse_mean(t, pred, target);
        t.backward(l);
        p.absorb_grads(t, &binding);
        opt.step(&mut p);
    }
    let stats = tape.plan_stats();
    (p, stats)
}

/// Bitwise parameter comparison — not tolerance-based: the plan runs
/// the one-shot sweep's own step functions on the same bits, so any
/// difference at all is a bug.
fn assert_params_bitwise(ctx: &str, a: &Params, b: &Params) {
    for id in a.ids() {
        let (av, bv) = (a.value(id).as_slice(), b.value(id).as_slice());
        assert_eq!(av.len(), bv.len(), "{ctx}: {:?} length", a.name(id));
        for (i, (x, y)) in av.iter().zip(bv).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: param {:?}[{i}] diverged: plan {x:e} vs one-shot {y:e}",
                a.name(id)
            );
        }
    }
}

/// Replay == one-shot sweep, bitwise, across ragged shapes: batch=1,
/// hidden=1, and non-square everything.
#[test]
fn plan_matches_tape_bitwise_on_ragged_shapes() {
    const STEPS: usize = 12;
    for &(batch, seq, features, hidden) in
        &[(1usize, 5usize, 3usize, 4usize), (4, 6, 2, 1), (3, 7, 5, 2)]
    {
        let data = make_steps(STEPS, |_| seq, |_| batch, features);
        let (tape_params, tape_stats) = train(false, &data, features, hidden);
        let (plan_params, plan_stats) = train(true, &data, features, hidden);
        let ctx = format!("batch={batch} seq={seq} features={features} hidden={hidden}");
        assert_params_bitwise(&ctx, &plan_params, &tape_params);
        assert_eq!(
            tape_stats,
            (0, 0, 0),
            "{ctx}: reset tape compiled something"
        );
        // Step 0 records and sweeps once; the capture happens at
        // the next step boundary; every later step replays.
        assert_eq!(
            plan_stats,
            (1, (STEPS - 1) as u64, 0),
            "{ctx}: unexpected capture/replay/invalidation counts"
        );
    }
}

/// A mid-training batch-size change must invalidate the plan
/// (leaf-shape mismatch), fall back to recording for that step,
/// re-capture warm at the next boundary — and stay bit-identical
/// throughout.
#[test]
fn mid_training_batch_change_invalidates_and_recaptures() {
    const STEPS: usize = 12;
    let data = make_steps(STEPS, |_| 6, |i| if i < STEPS / 2 { 3 } else { 2 }, 4);
    let (tape_params, _) = train(false, &data, 4, 5);
    let (plan_params, plan_stats) = train(true, &data, 4, 5);
    assert_params_bitwise("batch 3->2", &plan_params, &tape_params);
    // Capture after step 0; replay steps 1..5; step 6 diverges
    // (batch 3 -> 2) and records; re-capture after it; replay the
    // rest.
    assert_eq!(
        plan_stats,
        (2, (STEPS - 2) as u64, 1),
        "expected exactly one invalidation and a warm re-capture"
    );
}

/// Same fallback discipline when the *structure* grows instead of a
/// leaf shape changing: lengthening the sequence adds ops, which the
/// replay detects as a signature mismatch mid-record.
#[test]
fn mid_training_seq_change_invalidates_and_recaptures() {
    const STEPS: usize = 10;
    let data = make_steps(STEPS, |i| if i < STEPS / 2 { 4 } else { 7 }, |_| 3, 2);
    let (tape_params, _) = train(false, &data, 2, 6);
    let (plan_params, plan_stats) = train(true, &data, 2, 6);
    assert_params_bitwise("seq 4->7", &plan_params, &tape_params);
    assert_eq!(
        plan_stats,
        (2, (STEPS - 2) as u64, 1),
        "expected exactly one invalidation and a warm re-capture"
    );
}

/// Steady-state replay allocates nothing new: once the plan has run a
/// couple of steps, the pool never misses again.
#[test]
fn steady_state_replay_has_zero_pool_misses() {
    let data = make_steps(20, |_| 6, |_| 4, 3);
    let mut rng = seeded(7);
    let mut p = Params::new();
    let cell = GruCell::new(&mut p, "g", 3, 5, &mut rng);
    let head = Linear::new(&mut p, "h", 5, 3, &mut rng);
    let mut opt = Adam::new(1e-3);
    let mut tape = Tape::new();
    let mut binding = p.bind(&mut tape);
    let mut warm_misses = 0;
    for (i, (xs, target)) in data.iter().enumerate() {
        tape.begin_step();
        let t = &mut tape;
        p.rebind(t, &mut binding);
        let mut h = t.zeros(xs[0].rows(), 5);
        for x in xs {
            let xv = t.constant_copy(x);
            h = cell.step(t, &binding, xv, h);
        }
        let pred = head.forward(t, &binding, h);
        let l = loss::mse_mean(t, pred, target);
        t.backward(l);
        p.absorb_grads(t, &binding);
        opt.step(&mut p);
        if i == 4 {
            warm_misses = tape.pool_misses();
        }
    }
    assert_eq!(
        tape.pool_misses(),
        warm_misses,
        "pool missed after the plan was warm"
    );
}

/// Asserts two gradient lists equal bit for bit.
fn assert_grads_bitwise(ctx: &str, a: &[Matrix], b: &[Matrix]) {
    assert_eq!(a.len(), b.len(), "{ctx}: gradient count");
    for (k, (ga, gb)) in a.iter().zip(b).enumerate() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ga), bits(gb), "{ctx}: gradient {k} diverged");
    }
}

/// The liveness rule: a GRU bound with `bind_frozen` feeds a trainable
/// `Linear` head, and a `matmul` of two constants and a `detach` of
/// the prediction join the loss. On the one-shot sweep (`reset`) and
/// on replay (`begin_step`) alike, no node that depends on no
/// trainable leaf gets a gradient slot: the frozen weights, every
/// hidden state, the constants, their product and the detached copy.
/// The head's gradients stay bit-equal to the same graph with the GRU
/// bound trainable.
#[test]
fn nodes_that_depend_on_no_trainable_leaf_get_no_gradient_slot() {
    const STEPS: usize = 4;
    let (batch, features, hidden) = (3, 2, 5);
    let data = make_steps(STEPS, |_| 4, |_| batch, features);
    let mut crng = seeded(5);
    let ca = randn_matrix(batch, 3, &mut crng);
    let cb = randn_matrix(3, features, &mut crng);

    // Trains only the head, with the GRU bound frozen or trainable.
    // Returns every step's head gradients and the tape's counters.
    let run = |frozen: bool, plan: bool| {
        let mut rng = seeded(7);
        let mut gru_p = Params::new();
        let cell = GruCell::new(&mut gru_p, "g", features, hidden, &mut rng);
        let mut head_p = Params::new();
        let head = Linear::new(&mut head_p, "h", hidden, features, &mut rng);
        let mut opt = Adam::new(1e-2);
        let mut tape = Tape::new();
        let mut head_grads = Vec::new();
        for (step, (xs, target)) in data.iter().enumerate() {
            if plan {
                tape.begin_step();
            } else {
                tape.reset();
            }
            let t = &mut tape;
            let gb = if frozen {
                gru_p.bind_frozen(t)
            } else {
                gru_p.bind(t)
            };
            let hb = head_p.bind(t);
            let mut h = t.zeros(batch, hidden);
            let mut no_slot: Vec<_> = gru_p.ids().map(|id| gb.var(id)).collect();
            for x in xs {
                let xv = t.constant_copy(x);
                h = cell.step(t, &gb, xv, h);
                no_slot.extend([xv, h]);
            }
            let pred = head.forward(t, &hb, h);
            let a = t.constant_copy(&ca);
            let b = t.constant_copy(&cb);
            let c = t.matmul(a, b);
            let d = t.detach(pred);
            let shifted = t.add(pred, c);
            let mixed = t.add(shifted, d);
            let l = loss::mse_mean(t, mixed, target);
            t.backward(l);
            let ctx = format!("frozen={frozen} plan={plan} step {step}");
            assert!(
                t.grad_ref(pred).is_some(),
                "{ctx}: the head output lost its gradient"
            );
            for v in [a, b, c, d] {
                assert!(t.grad_ref(v).is_none(), "{ctx}: {v:?} has a gradient slot");
            }
            if frozen {
                for &v in &no_slot {
                    assert!(
                        t.grad_ref(v).is_none(),
                        "{ctx}: frozen-only {v:?} has a gradient slot"
                    );
                }
            }
            head_grads.push(
                head_p
                    .ids()
                    .map(|id| t.grad(hb.var(id)))
                    .collect::<Vec<_>>(),
            );
            head_p.absorb_grads(t, &hb);
            opt.step(&mut head_p);
        }
        (head_grads, tape.plan_stats())
    };

    let (reference, _) = run(false, false);
    for plan in [false, true] {
        let (grads, stats) = run(true, plan);
        for (step, (g, r)) in grads.iter().zip(&reference).enumerate() {
            assert_grads_bitwise(&format!("plan={plan} step {step}"), g, r);
        }
        let want = if plan {
            (1, (STEPS - 1) as u64, 0)
        } else {
            (0, 0, 0)
        };
        assert_eq!(
            stats, want,
            "plan={plan}: capture/replay/invalidation counts"
        );
    }
}

/// The two-player step shape: a generator's forward pass recorded on
/// one tape, its output read with `eval` and copied as a constant onto
/// a second tape that trains a head on it, then more leaves bound and
/// ops recorded on the first tape before its `backward`. Stepping both
/// tapes with `begin_step` must match a fresh pair of tapes per step
/// bit for bit — the generator output, both heads' gradients and the
/// generator's — and each recycled tape must capture once and replay
/// every later step. The recurrent GEMM is sized past the prepack
/// threshold, so replay's packed kernel meets `eval`'s plain one.
#[test]
fn eval_mid_step_feeds_a_second_tape_bitwise() {
    const STEPS: usize = 6;
    let (batch, features, hidden) = (8, 3, 32);
    let data = make_steps(STEPS, |_| 5, |_| batch, features);

    let run = |plan: bool| {
        let mut rng = seeded(7);
        let mut g_p = Params::new();
        let cell = GruCell::new(&mut g_p, "g", features, hidden, &mut rng);
        let g_head = Linear::new(&mut g_p, "gh", hidden, features, &mut rng);
        let mut d_p = Params::new();
        let d_head = Linear::new(&mut d_p, "d", features, features, &mut rng);
        let (mut g_opt, mut d_opt) = (Adam::new(1e-2), Adam::new(1e-2));
        let (mut g_tape, mut d_tape) = (Tape::new(), Tape::new());
        let mut seen: Vec<Matrix> = Vec::new();
        for (xs, target) in &data {
            if !plan {
                (g_tape, d_tape) = (Tape::new(), Tape::new());
            }
            let g = g_tape.begin_step();
            let gb = g_p.bind(g);
            let mut h = g.zeros(batch, hidden);
            for x in xs {
                let xv = g.constant_copy(x);
                h = cell.step(g, &gb, xv, h);
            }
            let fake = g_head.forward(g, &gb, h);

            let t = d_tape.begin_step();
            let db = d_p.bind(t);
            let f = t.constant_copy(g.eval(fake));
            let pred = d_head.forward(t, &db, f);
            let d_loss = loss::mse_mean(t, pred, target);
            t.backward(d_loss);
            seen.push(t.value(f).clone());
            seen.extend(d_p.ids().map(|id| t.grad(db.var(id))));
            d_p.absorb_grads(t, &db);
            d_opt.step(&mut d_p);

            let dfb = d_p.bind_frozen(g);
            let judged = d_head.forward(g, &dfb, fake);
            let g_loss = loss::mse_mean(g, judged, target);
            g.backward(g_loss);
            seen.push(g.value(fake).clone());
            seen.extend(g_p.ids().map(|id| g.grad(gb.var(id))));
            g_p.absorb_grads(g, &gb);
            g_opt.step(&mut g_p);
        }
        (seen, g_tape.plan_stats(), d_tape.plan_stats())
    };

    let (fresh, _, _) = run(false);
    let (replayed, g_stats, d_stats) = run(true);
    assert_grads_bitwise("recycled vs fresh tapes", &replayed, &fresh);
    let want = (1, (STEPS - 1) as u64, 0);
    assert_eq!(g_stats, want, "generator tape counters");
    assert_eq!(d_stats, want, "discriminator tape counters");
}
