//! Finite-difference gradient verification.
//!
//! Every layer and composite loss in this crate is validated against
//! central differences: perturb each parameter scalar by `±eps`,
//! re-evaluate the loss, and compare `(f+ - f-) / 2eps` with the
//! tape's analytic gradient. The relative-error criterion follows the
//! standard CS231n recipe.

use crate::params::Params;
use crate::tape::Tape;
use tsgb_linalg::Matrix;

/// Result of a gradient check: the largest relative error found and
/// where it occurred.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Worst relative error across all checked scalars.
    pub max_rel_err: f64,
    /// `(parameter name, flat index)` of the worst scalar.
    pub worst: Option<(String, usize)>,
    /// Number of scalars compared.
    pub checked: usize,
}

impl GradCheckReport {
    /// Whether the check passed at the given tolerance.
    pub fn passes(&self, tol: f64) -> bool {
        self.max_rel_err <= tol
    }
}

/// Verifies the analytic gradients of `loss_fn` (a closure that builds
/// a fresh tape over the current parameter values and returns the
/// scalar loss value after running backward and absorbing gradients
/// into `params`).
///
/// `stride` subsamples the scalars to keep large checks fast: every
/// `stride`-th scalar of every parameter is perturbed.
pub fn check(
    params: &mut Params,
    mut loss_fn: impl FnMut(&mut Params) -> f64,
    eps: f64,
    stride: usize,
) -> GradCheckReport {
    assert!(stride >= 1);
    // Evaluate once to populate analytic grads.
    let _ = loss_fn(params);
    let analytic: Vec<Matrix> = params.ids().map(|id| params.grad(id).clone()).collect();

    let mut max_rel_err: f64 = 0.0;
    let mut worst = None;
    let mut checked = 0;
    let ids: Vec<_> = params.ids().collect();
    for (pi, id) in ids.iter().enumerate() {
        let base = params.value(*id).clone();
        let n = base.len();
        let mut i = 0;
        while i < n {
            let mut plus = base.clone();
            plus.as_mut_slice()[i] += eps;
            params.set_value(*id, plus);
            let fp = loss_fn(params);

            let mut minus = base.clone();
            minus.as_mut_slice()[i] -= eps;
            params.set_value(*id, minus);
            let fm = loss_fn(params);

            params.set_value(*id, base.clone());

            let numeric = (fp - fm) / (2.0 * eps);
            let a = analytic[pi].as_slice()[i];
            let denom = a.abs().max(numeric.abs()).max(1e-8);
            let rel = (a - numeric).abs() / denom;
            checked += 1;
            if rel > max_rel_err {
                max_rel_err = rel;
                worst = Some((params.name(*id).to_string(), i));
            }
            i += stride;
        }
    }
    GradCheckReport {
        max_rel_err,
        worst,
        checked,
    }
}

/// Convenience wrapper: builds the standard loss closure shape used in
/// the tests — forward through `f` on a recycled tape (the same
/// reset-per-evaluation pattern the training loops use), backward,
/// absorb.
pub fn check_model(
    params: &mut Params,
    mut f: impl FnMut(&mut Tape, &crate::params::Binding) -> crate::tape::VarId,
    eps: f64,
    stride: usize,
) -> GradCheckReport {
    let mut t = Tape::new();
    check(
        params,
        move |p| {
            t.reset();
            let b = p.bind(&mut t);
            let loss = f(&mut t, &b);
            t.backward(loss);
            p.absorb_grads(&t, &b);
            t.value(loss)[(0, 0)]
        },
        eps,
        stride,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, GruCell, LstmCell, Mlp};
    use crate::loss;
    use crate::tape::VarId;
    use tsgb_linalg::rng::{randn_matrix, seeded};

    const TOL: f64 = 1e-5;
    const EPS: f64 = 1e-5;

    #[test]
    fn mlp_with_mse_gradients_check() {
        let mut rng = seeded(11);
        let mut p = Params::new();
        let mlp = Mlp::new(
            &mut p,
            "m",
            &[3, 6, 2],
            Activation::Tanh,
            Activation::None,
            &mut rng,
        );
        let x = randn_matrix(4, 3, &mut rng);
        let y = randn_matrix(4, 2, &mut rng);
        let report = check_model(
            &mut p,
            move |t, b| {
                let xv = t.constant(x.clone());
                let out = mlp.forward(t, b, xv);
                loss::mse_mean(t, out, &y)
            },
            EPS,
            1,
        );
        assert!(
            report.passes(TOL),
            "worst {:?}: {}",
            report.worst,
            report.max_rel_err
        );
        assert!(report.checked > 30);
    }

    #[test]
    fn gru_sequence_gradients_check() {
        let mut rng = seeded(12);
        let mut p = Params::new();
        let gru = GruCell::new(&mut p, "g", 2, 4, &mut rng);
        let xs: Vec<_> = (0..5).map(|_| randn_matrix(3, 2, &mut rng)).collect();
        let target = randn_matrix(3, 4, &mut rng);
        let report = check_model(
            &mut p,
            move |t, b| {
                let vars: Vec<_> = xs.iter().map(|x| t.constant(x.clone())).collect();
                let hs = gru.run(t, b, &vars, 3);
                loss::mse_mean(t, *hs.last().unwrap(), &target)
            },
            EPS,
            3,
        );
        assert!(
            report.passes(TOL),
            "worst {:?}: {}",
            report.worst,
            report.max_rel_err
        );
    }

    #[test]
    fn lstm_sequence_gradients_check() {
        let mut rng = seeded(13);
        let mut p = Params::new();
        let lstm = LstmCell::new(&mut p, "l", 2, 3, &mut rng);
        let xs: Vec<_> = (0..4).map(|_| randn_matrix(2, 2, &mut rng)).collect();
        let target = randn_matrix(2, 3, &mut rng);
        let report = check_model(
            &mut p,
            move |t, b| {
                let vars: Vec<_> = xs.iter().map(|x| t.constant(x.clone())).collect();
                let hs = lstm.run(t, b, &vars, 2);
                loss::mse_mean(t, *hs.last().unwrap(), &target)
            },
            EPS,
            3,
        );
        assert!(
            report.passes(TOL),
            "worst {:?}: {}",
            report.worst,
            report.max_rel_err
        );
    }

    #[test]
    fn bce_and_kl_gradients_check() {
        let mut rng = seeded(15);
        let mut p = Params::new();
        let w = p.register("w", randn_matrix(3, 4, &mut rng));
        let targets = tsgb_linalg::Matrix::from_fn(3, 4, |r, c| ((r + c) % 2) as f64);
        let report = check_model(
            &mut p,
            move |t, b| loss::bce_with_logits_mean(t, b.var(w), &targets),
            EPS,
            1,
        );
        assert!(report.passes(TOL), "bce: {}", report.max_rel_err);

        let mut p2 = Params::new();
        let mu = p2.register("mu", randn_matrix(3, 4, &mut rng));
        let lv = p2.register("lv", randn_matrix(3, 4, &mut rng).scale(0.3));
        let report2 = check_model(
            &mut p2,
            move |t, b| loss::gaussian_kl_mean(t, b.var(mu), b.var(lv)),
            EPS,
            1,
        );
        assert!(report2.passes(TOL), "kl: {}", report2.max_rel_err);
    }

    #[test]
    fn recip_check() {
        let mut rng = seeded(18);
        let mut p = Params::new();
        // keep inputs away from zero
        let x = p.register("x", randn_matrix(3, 3, &mut rng).map(|v| v.abs() + 1.0));
        let report = check_model(
            &mut p,
            move |t, b| {
                let r = t.recip(b.var(x));
                let sq = t.square(r);
                t.mean(sq)
            },
            EPS,
            1,
        );
        assert!(report.passes(TOL), "{}", report.max_rel_err);
    }

    #[test]
    fn mul_row_broadcast_check() {
        let mut rng = seeded(17);
        let mut p = Params::new();
        let x = p.register("x", randn_matrix(4, 3, &mut rng));
        let row = p.register("row", randn_matrix(1, 3, &mut rng));
        let report = check_model(
            &mut p,
            move |t, b| {
                let y = t.mul_row_broadcast(b.var(x), b.var(row));
                let sq = t.square(y);
                t.mean(sq)
            },
            EPS,
            1,
        );
        assert!(report.passes(TOL), "{}", report.max_rel_err);
    }

    #[test]
    fn fused_affine_act_gradients_check() {
        use crate::tape::FusedAct;
        let mut rng = seeded(19);
        for act in [
            FusedAct::Identity,
            FusedAct::Sigmoid,
            FusedAct::Tanh,
            FusedAct::Relu,
        ] {
            let mut p = Params::new();
            let x = p.register("x", randn_matrix(4, 3, &mut rng));
            let w = p.register("w", randn_matrix(3, 2, &mut rng));
            let bias = p.register("b", randn_matrix(1, 2, &mut rng));
            let report = check_model(
                &mut p,
                move |t, b| {
                    let y = t.affine_act(b.var(x), b.var(w), b.var(bias), act);
                    let sq = t.square(y);
                    t.mean(sq)
                },
                EPS,
                1,
            );
            assert!(
                report.passes(TOL),
                "affine {act:?} worst {:?}: {}",
                report.worst,
                report.max_rel_err
            );
        }
    }

    #[test]
    fn fused_affine2_act_gradients_check() {
        use crate::tape::FusedAct;
        let mut rng = seeded(20);
        for act in [FusedAct::Sigmoid, FusedAct::Tanh] {
            let mut p = Params::new();
            let x = p.register("x", randn_matrix(3, 4, &mut rng));
            let w = p.register("w", randn_matrix(4, 2, &mut rng));
            let h = p.register("h", randn_matrix(3, 5, &mut rng));
            let u = p.register("u", randn_matrix(5, 2, &mut rng));
            let bias = p.register("b", randn_matrix(1, 2, &mut rng));
            let report = check_model(
                &mut p,
                move |t, b| {
                    let y = t.affine2_act(b.var(x), b.var(w), b.var(h), b.var(u), b.var(bias), act);
                    let sq = t.square(y);
                    t.mean(sq)
                },
                EPS,
                1,
            );
            assert!(
                report.passes(TOL),
                "affine2 {act:?} worst {:?}: {}",
                report.worst,
                report.max_rel_err
            );
        }
    }

    #[test]
    fn fused_affine2_act_edge_shape_gradients_check() {
        use crate::tape::FusedAct;
        let mut rng = seeded(22);
        // (batch, in, hidden, out): single-sample batches, hidden size
        // one, and strongly non-square blocks.
        for (batch, input, hidden, out) in [(1, 3, 2, 4), (3, 2, 1, 1), (1, 1, 1, 1), (2, 7, 3, 5)]
        {
            for act in [FusedAct::Identity, FusedAct::Sigmoid, FusedAct::Tanh] {
                let mut p = Params::new();
                let x = p.register("x", randn_matrix(batch, input, &mut rng));
                let w = p.register("w", randn_matrix(input, out, &mut rng));
                let h = p.register("h", randn_matrix(batch, hidden, &mut rng));
                let u = p.register("u", randn_matrix(hidden, out, &mut rng));
                let bias = p.register("b", randn_matrix(1, out, &mut rng));
                let report = check_model(
                    &mut p,
                    move |t, b| {
                        let y =
                            t.affine2_act(b.var(x), b.var(w), b.var(h), b.var(u), b.var(bias), act);
                        let sq = t.square(y);
                        t.mean(sq)
                    },
                    EPS,
                    1,
                );
                assert!(
                    report.passes(TOL),
                    "affine2 ({batch},{input},{hidden},{out}) {act:?} worst {:?}: {}",
                    report.worst,
                    report.max_rel_err
                );
            }
        }
    }

    #[test]
    fn abs_and_softplus_and_broadcast_check() {
        let mut rng = seeded(16);
        let mut p = Params::new();
        let w = p.register("w", randn_matrix(4, 3, &mut rng));
        let bias = p.register("b", randn_matrix(1, 3, &mut rng));
        let report = check_model(
            &mut p,
            move |t, b| {
                let x = t.add_row_broadcast(b.var(w), b.var(bias));
                let sp = t.softplus(x);
                let a = t.abs(sp);
                let rm = t.row_mean(a);
                let tr = t.transpose(rm);
                t.mean(tr)
            },
            EPS,
            1,
        );
        assert!(report.passes(TOL), "{}", report.max_rel_err);
    }

    /// One differentiable `Op` variant under finite differences.
    /// `label` names the variant (plus the fused activation after a
    /// `+`), `operands` derives the operand shapes from a ragged base
    /// shape `(r, c)`, and `build` applies the op to operand nodes.
    struct OpCase {
        label: &'static str,
        /// Ln and Recip need inputs bounded away from zero.
        positive: bool,
        operands: fn(usize, usize) -> Vec<(usize, usize)>,
        build: fn(&mut Tape, &[VarId]) -> VarId,
    }

    /// A unary op applied to two same-shaped operands and summed, so
    /// it runs on the parameter and on a constant alike.
    macro_rules! unary {
        ($label:literal, $positive:literal, |$t:ident, $x:ident| $body:expr) => {
            OpCase {
                label: $label,
                positive: $positive,
                operands: |r, c| vec![(r, c); 2],
                build: |$t, v| {
                    let y0 = {
                        let $x = v[0];
                        $body
                    };
                    let y1 = {
                        let $x = v[1];
                        $body
                    };
                    $t.add(y0, y1)
                },
            }
        };
    }

    /// A binary or fused op over operands of the given shapes.
    macro_rules! nary {
        ($label:literal, $operands:expr, |$t:ident, $v:ident| $body:expr) => {
            OpCase {
                label: $label,
                positive: false,
                operands: $operands,
                build: |$t, $v| $body,
            }
        };
    }

    /// A GRU step's nine weights from operands 2..11, as `gru_step`
    /// takes them: each gate's `[W, U, b]`, in the order z, r, h̃.
    fn gru_weights(v: &[VarId]) -> [[VarId; 3]; 3] {
        [[v[2], v[3], v[4]], [v[5], v[6], v[7]], [v[8], v[9], v[10]]]
    }

    fn op_cases() -> Vec<OpCase> {
        use crate::tape::FusedAct::{Identity, Relu, Sigmoid, Tanh};
        let affine = |r: usize, c: usize| vec![(r, c), (c, r + 1), (1, r + 1)];
        let affine2 =
            |r: usize, c: usize| vec![(r, c), (c, r + 1), (r, c + 1), (c + 1, r + 1), (1, r + 1)];
        // x, h, then each gate's W, U and b, with hidden width c + 1.
        let gru = |r: usize, c: usize| {
            let mut shapes = vec![(r, c), (r, c + 1)];
            for _ in 0..3 {
                shapes.extend([(c, c + 1), (c + 1, c + 1), (1, c + 1)]);
            }
            shapes
        };
        vec![
            unary!("Neg", false, |t, x| t.neg(x)),
            unary!("Scale", false, |t, x| t.scale(x, -1.7)),
            unary!("AddScalar", false, |t, x| t.add_scalar(x, 0.4)),
            unary!("Sigmoid", false, |t, x| t.sigmoid(x)),
            unary!("Tanh", false, |t, x| t.tanh(x)),
            unary!("Relu", false, |t, x| t.relu(x)),
            unary!("LeakyRelu", false, |t, x| t.leaky_relu(x, 0.2)),
            unary!("Exp", false, |t, x| t.exp(x)),
            unary!("Ln", true, |t, x| t.ln(x)),
            unary!("Square", false, |t, x| t.square(x)),
            unary!("Abs", false, |t, x| t.abs(x)),
            unary!("Softplus", false, |t, x| t.softplus(x)),
            unary!("Recip", true, |t, x| t.recip(x)),
            unary!("Sum", false, |t, x| t.sum(x)),
            unary!("Mean", false, |t, x| t.mean(x)),
            unary!("RowMean", false, |t, x| t.row_mean(x)),
            unary!("Transpose", false, |t, x| t.transpose(x)),
            unary!("SliceCols", false, |t, x| {
                let c = t.shape(x).1;
                t.slice_cols(x, c / 3, c - c / 4)
            }),
            unary!("SliceRows", false, |t, x| {
                let r = t.shape(x).0;
                t.slice_rows(x, r / 3, r - r / 4)
            }),
            nary!("Add", |r, c| vec![(r, c); 2], |t, v| t.add(v[0], v[1])),
            nary!("Sub", |r, c| vec![(r, c); 2], |t, v| t.sub(v[0], v[1])),
            nary!("Mul", |r, c| vec![(r, c); 2], |t, v| t.mul(v[0], v[1])),
            nary!("Matmul", |r, c| vec![(r, c), (c, r + 1)], |t, v| {
                t.matmul(v[0], v[1])
            }),
            nary!("AddRowBroadcast", |r, c| vec![(r, c), (1, c)], |t, v| {
                t.add_row_broadcast(v[0], v[1])
            }),
            nary!("MulRowBroadcast", |r, c| vec![(r, c), (1, c)], |t, v| {
                t.mul_row_broadcast(v[0], v[1])
            }),
            nary!(
                "ConcatCols",
                |r, c| vec![(r, c), (r, c + 1), (r, 2)],
                |t, v| { t.concat_cols(&[v[0], v[1], v[2]]) }
            ),
            nary!(
                "ConcatCols+repeat",
                |r, c| vec![(r, c), (r, c + 1)],
                |t, v| { t.concat_cols(&[v[0], v[1], v[0]]) }
            ),
            nary!("ConcatRows", |r, c| vec![(r, c), (r + 1, c)], |t, v| {
                t.concat_rows(&[v[0], v[1]])
            }),
            nary!(
                "BasisExpand",
                |r, c| vec![(r, 2 * c), (r + 1, c)],
                |t, v| { t.basis_expand(v[0], v[1]) }
            ),
            nary!("Affine+Identity", affine, |t, v| {
                t.affine_act(v[0], v[1], v[2], Identity)
            }),
            nary!("Affine+Sigmoid", affine, |t, v| {
                t.affine_act(v[0], v[1], v[2], Sigmoid)
            }),
            nary!("Affine+Tanh", affine, |t, v| {
                t.affine_act(v[0], v[1], v[2], Tanh)
            }),
            nary!("Affine+Relu", affine, |t, v| {
                t.affine_act(v[0], v[1], v[2], Relu)
            }),
            nary!("Affine2+Identity", affine2, |t, v| {
                t.affine2_act(v[0], v[1], v[2], v[3], v[4], Identity)
            }),
            nary!("Affine2+Sigmoid", affine2, |t, v| {
                t.affine2_act(v[0], v[1], v[2], v[3], v[4], Sigmoid)
            }),
            nary!("Affine2+Tanh", affine2, |t, v| {
                t.affine2_act(v[0], v[1], v[2], v[3], v[4], Tanh)
            }),
            nary!("Affine2+Relu", affine2, |t, v| {
                t.affine2_act(v[0], v[1], v[2], v[3], v[4], Relu)
            }),
            // x and h enter scaled down so the gates stay off
            // saturation: there a weight's gradient falls to about 1e-6,
            // and central differences lose it to the loss's rounding.
            nary!("GruGates", gru, |t, v| {
                let (x, h) = (t.scale(v[0], 0.3), t.scale(v[1], 0.3));
                t.gru_step(x, h, gru_weights(v))
            }),
            // Two chained steps plus a term on the first state: the mix
            // and the gates then meet slots already touched.
            nary!("GruMix", gru, |t, v| {
                let (x, h) = (t.scale(v[0], 0.3), t.scale(v[1], 0.3));
                let h1 = t.gru_step(x, h, gru_weights(v));
                let h2 = t.gru_step(x, h1, gru_weights(v));
                t.add(h2, h1)
            }),
        ]
    }

    /// The gradient of every differentiable op, checked directly
    /// rather than through a layer or loss: at ragged shapes (batch 1,
    /// width 1, non-square) and with each operand in turn as the one
    /// parameter while the rest enter as constants, so the pruned
    /// edges into constants run too.
    #[test]
    fn every_differentiable_op_gradient_checks() {
        let mut rng = seeded(23);
        let cases = op_cases();
        let variants: std::collections::HashSet<&str> = cases
            .iter()
            .map(|c| c.label.split('+').next().unwrap())
            .collect();
        assert_eq!(variants.len(), 32, "one case per differentiable Op variant");
        for case in &cases {
            let variant = case.label.split('+').next().unwrap();
            for (r, c) in [(1, 3), (4, 1), (3, 5)] {
                let values: Vec<Matrix> = (case.operands)(r, c)
                    .into_iter()
                    .map(|(rows, cols)| {
                        let m = randn_matrix(rows, cols, &mut rng);
                        if case.positive {
                            m.map(|v| v.abs() + 0.5)
                        } else {
                            m
                        }
                    })
                    .collect();
                // The case must really record the variant it names.
                let mut probe = Tape::new();
                let vars: Vec<VarId> = values.iter().map(|m| probe.constant(m.clone())).collect();
                (case.build)(&mut probe, &vars);
                assert!(
                    probe.nodes.iter().any(|n| {
                        format!("{:?}", n.op)
                            .split(|ch: char| !ch.is_alphanumeric())
                            .next()
                            == Some(variant)
                    }),
                    "{} records no {variant} node",
                    case.label
                );
                for slot in 0..values.len() {
                    let mut p = Params::new();
                    let pid = p.register("p", values[slot].clone());
                    let operands = values.clone();
                    let build = case.build;
                    let report = check_model(
                        &mut p,
                        move |t, b| {
                            let vars: Vec<VarId> = operands
                                .iter()
                                .enumerate()
                                .map(|(k, m)| {
                                    if k == slot {
                                        b.var(pid)
                                    } else {
                                        t.constant(m.clone())
                                    }
                                })
                                .collect();
                            let y = build(t, &vars);
                            let sq = t.square(y);
                            t.mean(sq)
                        },
                        EPS,
                        1,
                    );
                    assert!(
                        report.passes(TOL),
                        "{} at base {r}x{c}, parameter operand {slot}: worst {:?}: {}",
                        case.label,
                        report.worst,
                        report.max_rel_err
                    );
                }
            }
        }
    }
}
