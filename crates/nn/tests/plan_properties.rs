//! Compiled-plan equivalence properties: replaying a captured step
//! must be a pure performance optimization. Every test here trains the
//! same seeded workload twice — once stepping with `begin_step`
//! (record once, replay every later step with the backward plans the
//! recorded step compiled) and once with `reset`, which records every
//! step and compiles its backward plan afresh — and demands
//! bit-for-bit identical parameters, while also pinning the
//! capture/replay/invalidation counters the plan machinery reports. The liveness test also checks that backward gives no
//! gradient slot to a node that depends on no trainable leaf, and the
//! fused-op tests pin each multi-node fusion (n-ary concat, basis
//! expansion, the two-node GRU step) to the graph it replaced.

use tsgb_linalg::rng::{randn_matrix, seeded};
use tsgb_linalg::Matrix;
use tsgb_nn::layers::{GruCell, Linear};
use tsgb_nn::loss;
use tsgb_nn::optim::Adam;
use tsgb_nn::params::Params;
use tsgb_nn::tape::{FusedAct, Tape, VarId};

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

/// Bitwise parameter comparison — not tolerance-based: both legs run
/// the same step functions on the same bits, so any difference at all
/// is a bug.
fn assert_params_bitwise(ctx: &str, a: &Params, b: &Params) {
    for id in a.ids() {
        let (av, bv) = (a.value(id).as_slice(), b.value(id).as_slice());
        assert_eq!(av.len(), bv.len(), "{ctx}: {:?} length", a.name(id));
        for (i, (x, y)) in av.iter().zip(bv).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: param {:?}[{i}] diverged: replay {x:e} vs reset {y:e}",
                a.name(id)
            );
        }
    }
}

/// Replay == recording every step, bitwise, across ragged shapes:
/// batch=1, hidden=1, and non-square everything.
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
            "{ctx}: reset tape captured or replayed"
        );
        // Step 0 records and compiles its backward plan; the capture
        // happens at the next step boundary; every later step replays.
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

/// A replayed step that declares a strict prefix of the captured graph
/// and runs `backward` from a node inside it: step 0 adds an activity
/// penalty on the last hidden state after the fit loss, and every later
/// step stops at the fit loss. Step 1 matches every op it declares, so
/// only `backward` sees the graph shrank: it invalidates, and the plan
/// is compiled for the prefix, whose capture at the next boundary
/// replays from step 2 on. Every step's gradients must match a `reset`
/// tape's bit for bit.
#[test]
fn replayed_step_that_stops_early_invalidates_and_recaptures() {
    const STEPS: usize = 5;
    let (batch, features, hidden) = (3, 2, 4);
    let data = make_steps(STEPS, |_| 5, |_| batch, features);
    let run = |plan: bool| {
        let mut rng = seeded(7);
        let mut p = Params::new();
        let cell = GruCell::new(&mut p, "g", features, hidden, &mut rng);
        let head = Linear::new(&mut p, "h", hidden, features, &mut rng);
        let mut opt = Adam::new(1e-2);
        let mut tape = Tape::new();
        let mut seen = Vec::new();
        for (step, (xs, target)) in data.iter().enumerate() {
            if plan {
                tape.begin_step();
            } else {
                tape.reset();
            }
            let t = &mut tape;
            let b = p.bind(t);
            let mut h = t.zeros(batch, hidden);
            for x in xs {
                let xv = t.constant_copy(x);
                h = cell.step(t, &b, xv, h);
            }
            let pred = head.forward(t, &b, h);
            let fit = loss::mse_mean(t, pred, target);
            let l = if step == 0 {
                let sq = t.square(h);
                let penalty = t.mean(sq);
                t.add(fit, penalty)
            } else {
                fit
            };
            t.backward(l);
            seen.extend(p.ids().map(|id| t.grad(b.var(id))));
            p.absorb_grads(t, &b);
            opt.step(&mut p);
        }
        (seen, tape.plan_stats())
    };
    let (reference, reset_stats) = run(false);
    let (replayed, stats) = run(true);
    assert_grads_bitwise("prefix steps vs reset", &replayed, &reference);
    assert_eq!(reset_stats, (0, 0, 0), "reset tape captured or replayed");
    assert_eq!(
        stats,
        (2, (STEPS - 2) as u64, 1),
        "expected one invalidation at step 1 and a re-capture after it"
    );
}

/// Steady-state replay allocates nothing new: the recorded step's
/// backward plan takes its buffers on that step, and a GRU forward's
/// temporaries miss once more on the first replayed step, when the
/// plan holds the ones the recorded step returned. From then on the
/// pool never misses again.
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
        if i == 1 {
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
/// the prediction join the loss. On recorded steps (`reset`) and on
/// replayed ones (`begin_step`) alike, no node that depends on no
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
/// one tape, its output read mid-step with `Tape::value` and copied as
/// a constant onto a second tape that trains a head on it, then more
/// leaves bound and ops recorded on the first tape before its
/// `backward`. A replayed op computes as it is declared, so the read
/// sees this step's bits. Stepping both tapes with `begin_step` must
/// match a fresh pair of tapes per step bit for bit — the generator
/// output, both heads' gradients and the generator's — and each
/// recycled tape must capture once and replay every later step. The
/// recurrent GEMM (8 x 32 x 32) runs on the register tile.
#[test]
fn value_read_mid_step_feeds_a_second_tape_bitwise() {
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
            let f = t.constant_copy(g.value(fake));
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

/// One `concat_cols` node over many parts against the left fold of
/// two-part joins it replaced (TimeVAE's, COT-GAN's and Sig-WGAN's
/// flattens, and COSCI-GAN's before that). The parts have unequal
/// widths, and each also feeds an earlier consumer, as COSCI-GAN's
/// channel discriminators do, so its gradient sums two edges. Over
/// three steps of one tape, so later steps replay, the joined values
/// and every part's gradient must agree bit for bit, and both tapes
/// must capture once and replay the rest.
#[test]
fn n_ary_concat_cols_matches_the_left_fold_bitwise() {
    const STEPS: usize = 3;
    let batch = 3;
    let width = |k: usize| 1 + k % 3;
    for parts in [9, 14] {
        let total: usize = (0..parts).map(width).sum();
        let run = |n_ary: bool| {
            let mut rng = seeded(17);
            let mut tape = Tape::new();
            let mut seen = Vec::new();
            for _ in 0..STEPS {
                let t = tape.begin_step();
                let cols: Vec<VarId> = (0..parts)
                    .map(|k| t.leaf(randn_matrix(batch, width(k), &mut rng)))
                    .collect();
                let mut own = Vec::new();
                for &c in &cols {
                    let sq = t.mul(c, c);
                    own.push(t.sum(sq));
                }
                let flat = if n_ary {
                    t.concat_cols(&cols)
                } else {
                    let mut acc = cols[0];
                    for &c in &cols[1..] {
                        acc = t.concat_cols(&[acc, c]);
                    }
                    acc
                };
                let w = t.constant(randn_matrix(batch, total, &mut rng));
                let weighted = t.mul(flat, w);
                let mut loss = t.sum(weighted);
                for o in own {
                    loss = t.add(loss, o);
                }
                t.backward(loss);
                seen.push(t.value(flat).clone());
                seen.extend(cols.iter().map(|&c| t.grad(c)));
            }
            (seen, tape.plan_stats())
        };
        let (fold, fold_stats) = run(false);
        let (n_ary, n_ary_stats) = run(true);
        assert_eq!(fold.len(), STEPS * (1 + parts));
        assert_grads_bitwise(&format!("{parts} parts"), &n_ary, &fold);
        let want = (1, (STEPS - 1) as u64, 0);
        assert_eq!(fold_stats, want, "{parts} parts: left-fold tape counters");
        assert_eq!(n_ary_stats, want, "{parts} parts: n-ary tape counters");
    }
}

/// TimeVAE's structured decoder as one `basis_expand` node against the
/// per-step fan-out it replaced: for each step, one `slice_cols` and
/// one `scale` per basis column, summed with `add` from the first
/// product, and the steps joined by a left fold of `concat_cols`. The
/// basis is TimeVAE's (trend degrees ascending, then Fourier
/// harmonics), so row 0 holds zeros. The coefficients come from two
/// trainable affine heads on a latent that also feeds a residual head,
/// and a sigmoid and an MSE loss follow, as in TimeVAE. Over three
/// steps of one tape, so later steps replay, the output and the
/// gradients of the latent and of every head must agree bit for bit.
#[test]
fn basis_expand_matches_the_per_step_fan_out_bitwise() {
    const STEPS: usize = 3;
    let (batch, latent, l, n) = (4, 3, 12, 2);
    let (degree, harmonics) = (3, 2);
    let width = degree + 2 * harmonics;
    let basis = Matrix::from_fn(l, width, |s, k| {
        let x = s as f64 / l as f64;
        if k < degree {
            return x.powi(k as i32);
        }
        let angle = std::f64::consts::TAU * ((k - degree) / 2 + 1) as f64 * x;
        if (k - degree) % 2 == 0 {
            angle.sin()
        } else {
            angle.cos()
        }
    });
    assert!(basis.row(0).contains(&0.0), "row 0 must hold zeros");

    let run = |one_op: bool| {
        let mut rng = seeded(29);
        let mut tape = Tape::new();
        let mut seen = Vec::new();
        for _ in 0..STEPS {
            let t = tape.begin_step();
            let mut leaf = |r, c| t.leaf(randn_matrix(r, c, &mut rng));
            let weights = [
                leaf(batch, latent),
                leaf(latent, degree * n),
                leaf(1, degree * n),
                leaf(latent, 2 * harmonics * n),
                leaf(1, 2 * harmonics * n),
                leaf(latent, l * n),
                leaf(1, l * n),
            ];
            let [z, wt, bt, ws, bs, wr, br] = weights;
            let coef_t = t.affine(z, wt, bt);
            let coef_s = t.affine(z, ws, bs);
            let structured = if one_op {
                let coef = t.concat_cols(&[coef_t, coef_s]);
                let b = t.constant_copy(&basis);
                t.basis_expand(coef, b)
            } else {
                let mut blocks = Vec::with_capacity(l);
                for s in 0..l {
                    let mut acc: Option<VarId> = None;
                    for k in 0..width {
                        let (head, j) = if k < degree {
                            (coef_t, k)
                        } else {
                            (coef_s, k - degree)
                        };
                        let c = t.slice_cols(head, j * n, (j + 1) * n);
                        let scaled = t.scale(c, basis[(s, k)]);
                        acc = Some(match acc {
                            None => scaled,
                            Some(a) => t.add(a, scaled),
                        });
                    }
                    blocks.push(acc.expect("a non-empty basis"));
                }
                let mut joined = blocks[0];
                for &b in &blocks[1..] {
                    joined = t.concat_cols(&[joined, b]);
                }
                joined
            };
            let resid = t.affine(z, wr, br);
            let sum = t.add(structured, resid);
            let recon = t.sigmoid(sum);
            let target = randn_matrix(batch, l * n, &mut rng);
            let loss = loss::mse_mean(t, recon, &target);
            t.backward(loss);
            seen.push(t.value(recon).clone());
            seen.extend(weights.iter().map(|&v| t.grad(v)));
        }
        (seen, tape.plan_stats())
    };
    let (fan_out, fan_out_stats) = run(false);
    let (one_op, one_op_stats) = run(true);
    assert_eq!(fan_out.len(), STEPS * 8);
    assert_grads_bitwise("basis_expand vs fan-out", &one_op, &fan_out);
    let want = (1, (STEPS - 1) as u64, 0);
    assert_eq!(fan_out_stats, want, "fan-out tape counters");
    assert_eq!(one_op_stats, want, "basis_expand tape counters");
}

/// `GruCell::step` as it was before a GRU step became two nodes: three
/// fused gates, then `mul(r, h)`, `sub(h̃, h)`, `mul(z, diff)` and
/// `add(h, zd)`, seven nodes in all. `w` is `[wz, uz, bz, wr, ur, br,
/// wh, uh, bh]`.
fn seven_node_gru_step(t: &mut Tape, w: [VarId; 9], x: VarId, h: VarId) -> VarId {
    let [wz, uz, bz, wr, ur, br, wh, uh, bh] = w;
    let z = t.affine2_act(x, wz, h, uz, bz, FusedAct::Sigmoid);
    let r = t.affine2_act(x, wr, h, ur, br, FusedAct::Sigmoid);
    let rh = t.mul(r, h);
    let htilde = t.affine2_act(x, wh, rh, uh, bh, FusedAct::Tanh);
    let diff = t.sub(htilde, h);
    let zd = t.mul(z, diff);
    t.add(h, zd)
}

/// How one `fused_gru_step_matches_the_seven_node_step_bitwise` case
/// wires a GRU cell into its training step.
#[derive(Debug, Clone, Copy)]
struct GruWiring {
    /// Inputs are trainable leaves rather than constants.
    x_trainable: bool,
    /// The cell's weights are bound with `bind_frozen`.
    frozen: bool,
    /// A head and a loss term on every hidden state, so h's slot is
    /// already touched when each step's mix runs backward.
    head_on_every_h: bool,
    /// The cell runs over the inputs twice, the second run from the
    /// first one's last state, so its weight slots accumulate.
    twice: bool,
}

/// The two-node GRU step (`GruCell::step`) against the seven-node step
/// it replaced, over three training steps of one tape stepped with
/// `begin_step` (so steps 2 and 3 replay the compiled plan) and with
/// `reset` (recording every step). The first state is a zeros
/// leaf, and each wiring moves which slots are live or already touched
/// when a GRU node's backward runs: a constant or a trainable x, frozen
/// weights with a live x, a head on every h, and one cell run twice.
/// Every hidden state and every leaf gradient must agree bit for bit,
/// and so must the gradient slots' presence. The counters must read
/// (1, 2, 0) under `begin_step`, and a recorded GRU step must add
/// exactly two nodes to the tape.
#[test]
fn fused_gru_step_matches_the_seven_node_step_bitwise() {
    const STEPS: usize = 3;
    let (batch, seq, features, hidden) = (3, 4, 2, 5);
    let names = ["wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh"];
    let wirings = [
        (false, false, false, false),
        (true, false, false, false),
        (true, true, false, false),
        (false, false, true, false),
        (true, false, true, true),
        (false, false, false, true),
    ]
    .map(|(x_trainable, frozen, head_on_every_h, twice)| GruWiring {
        x_trainable,
        frozen,
        head_on_every_h,
        twice,
    });
    for wiring in wirings {
        let run = |fused: bool, plan: bool| {
            let mut rng = seeded(41);
            let mut gru_p = Params::new();
            let cell = GruCell::new(&mut gru_p, "g", features, hidden, &mut rng);
            let mut head_p = Params::new();
            let head = Linear::new(&mut head_p, "h", hidden, features, &mut rng);
            let ids = names.map(|n| {
                gru_p
                    .ids()
                    .find(|&id| gru_p.name(id) == format!("g.{n}"))
                    .expect("a GRU parameter")
            });
            let (mut gru_opt, mut head_opt) = (Adam::new(1e-2), Adam::new(1e-2));
            let mut tape = Tape::new();
            let mut seen: Vec<Option<Vec<u64>>> = Vec::new();
            let bits =
                |m: &Matrix| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
            for step in 0..STEPS {
                let t = if plan {
                    tape.begin_step()
                } else {
                    tape.reset();
                    &mut tape
                };
                let gb = if wiring.frozen {
                    gru_p.bind_frozen(t)
                } else {
                    gru_p.bind(t)
                };
                let hb = head_p.bind(t);
                let w = ids.map(|id| gb.var(id));
                let xs: Vec<VarId> = (0..seq)
                    .map(|_| {
                        let m = randn_matrix(batch, features, &mut rng);
                        if wiring.x_trainable {
                            t.leaf(m)
                        } else {
                            t.constant(m)
                        }
                    })
                    .collect();
                let h0 = t.zeros(batch, hidden);
                let mut hs = Vec::new();
                let mut h = h0;
                for _ in 0..if wiring.twice { 2 } else { 1 } {
                    for &x in &xs {
                        let before = t.len();
                        h = if fused {
                            cell.step(t, &gb, x, h)
                        } else {
                            seven_node_gru_step(t, w, x, h)
                        };
                        if fused && (!plan || step == 0) {
                            assert_eq!(t.len() - before, 2, "{wiring:?}: nodes per GRU step");
                        }
                        hs.push(h);
                    }
                }
                let heads = if wiring.head_on_every_h {
                    &hs[..]
                } else {
                    &hs[hs.len() - 1..]
                };
                let mut l = None;
                for &hk in heads {
                    let pred = head.forward(t, &hb, hk);
                    let target = randn_matrix(batch, features, &mut rng);
                    let lk = loss::mse_mean(t, pred, &target);
                    l = Some(l.map_or(lk, |acc| t.add(acc, lk)));
                }
                let l = l.expect("at least one head");
                t.backward(l);
                let mut leaves = w.to_vec();
                leaves.extend(&xs);
                leaves.push(h0);
                leaves.extend(head_p.ids().map(|id| hb.var(id)));
                for v in leaves {
                    seen.push(t.grad_ref(v).map(bits));
                }
                for &hk in &hs {
                    seen.push(Some(bits(t.value(hk))));
                }
                if !wiring.frozen {
                    gru_p.absorb_grads(t, &gb);
                    gru_opt.step(&mut gru_p);
                }
                head_p.absorb_grads(t, &hb);
                head_opt.step(&mut head_p);
            }
            (seen, tape.plan_stats())
        };
        for plan in [true, false] {
            let (seven, seven_stats) = run(false, plan);
            let (two, two_stats) = run(true, plan);
            assert_eq!(
                seven.len(),
                two.len(),
                "{wiring:?} plan={plan}: entry count"
            );
            for (k, (a, b)) in two.iter().zip(&seven).enumerate() {
                assert!(a == b, "{wiring:?} plan={plan}: entry {k} diverged");
            }
            let want = if plan {
                (1, (STEPS - 1) as u64, 0)
            } else {
                (0, 0, 0)
            };
            assert_eq!(
                seven_stats, want,
                "{wiring:?} plan={plan}: seven-node counters"
            );
            assert_eq!(two_stats, want, "{wiring:?} plan={plan}: two-node counters");
        }
    }
}
