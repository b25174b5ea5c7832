//! Compiled execution plans: record-once/replay-many training steps,
//! the compiled backward, and the one copy of every op's arithmetic.
//!
//! Training loops re-declare the same graph topology every minibatch.
//! Recording it on the [`crate::Tape`] is allocation-free (arena
//! recycling), but still pays per-step shape re-derivation, pool
//! hashing and node bookkeeping. A replaying tape instead matches each
//! declared op against the captured step and computes it at once into
//! the node's own buffer, with the same `exec_node` recording runs.
//! The backward is always compiled: a `BwdPlan` is a reverse-order
//! step list that accumulates into preresolved gradient slots, with
//! per-edge *first-touch* flags resolved at compile time.
//!
//! Each op's forward arithmetic lives only in `exec_node` and its
//! gradient only in `run_step`. The tape runs `exec_node` on every
//! node it records or matches, and every `Tape::backward` runs the
//! plan compiled for its loss node, compiling it on the first backward
//! from that node over the current graph. A recorded step's plans
//! carry into replay when the next step boundary captures the step.
//!
//! # Determinism argument
//!
//! Replay is **bit-identical** to recording every step because both
//! run the *same* step functions in the *same* order on the *same*
//! operands:
//!
//! * the forward is `exec_node` on each node, in declaration order, on
//!   both paths;
//! * the backward is a plan compiled from the graph's structure alone,
//!   so a recorded and a replayed step of one graph run the same steps
//!   with the same flags. A first touch writes the delta straight into
//!   the slot (a copy for borrowed deltas, and "zero then accumulate"
//!   for the `*_acc_into` family, so `-0.0` deltas keep
//!   `0.0 + -0.0 == 0.0` bits); later touches `add_assign`. The
//!   `a * bᵀ` edges multiply by cached transposes with plain `matmul`,
//!   bit-identical to the `matmul_t` kernels by their documented
//!   contract.
//!
//! Scalar payloads (`scale`, `add_scalar`, `leaky_relu` and `filled`
//! leaves) are per-step *feeds*: the replaying tape writes new values
//! through into the recorded ops and `exec_node` and the plan read them
//! live, so a data-dependent scalar never invalidates the structure.
//!
//! # Lifecycle
//!
//! `record -> capture -> replay* -> (invalidate -> record -> capture)*`
//!
//! [`crate::Tape::begin_step`] captures after the first recorded step
//! and rewinds on subsequent boundaries. Any structural mismatch while
//! replaying (changed batch size, a different graph) retires the stale
//! suffix and the plans (the matched prefix already holds this step's
//! values) and falls back to recording; the next boundary re-captures.

use crate::tape::{FusedAct, LeafKind, Node, Op, VarId};
use tsgb_linalg::detmath::{sigmoid, tanh};
use tsgb_linalg::matrix::elementwise::{zip3_map_into, zip_map_into, zip_row_map_into, zip_update};
use tsgb_linalg::{Matrix, MatrixPool};

// ---------------------------------------------------------------------
// Plan structure
// ---------------------------------------------------------------------

/// One compiled backward step for a reached node. `flags_at` indexes
/// the step's per-edge first-touch flags; `scratch` indexes the plan's
/// scratch groups (`u32::MAX` when the step needs none).
#[derive(Clone, Copy)]
struct BwdStep {
    node: u32,
    flags_at: u32,
    scratch: u32,
}

/// A compiled backward for one loss node, with preresolved first-touch
/// flags and pre-taken scratch buffers. It stays valid while the nodes
/// up to the loss keep their structure: a recording tape only appends,
/// and a replayed step matches every op it declares.
pub(crate) struct BwdPlan {
    pub(crate) loss: usize,
    steps: Vec<BwdStep>,
    /// Per-edge first-touch flags, in the exact order [`edges`]
    /// visits them; `true` means the slot is empty until this edge.
    /// Pruned edges (into nodes that are not live) keep a placeholder
    /// slot so the positional indexing in [`run_step`] never shifts.
    flags: Vec<bool>,
    /// The [`liveness`] mask of the frozen graph, computed once at
    /// compile; [`run_step`] prunes by it on every run.
    live: Vec<bool>,
    /// Nodes the walk from the loss reaches: after a run, exactly
    /// these hold a gradient slot.
    reached: Vec<bool>,
    /// One group of buffers per distinct shape among the steps that
    /// need temporaries ([`scratch_for`]: non-first-touch mapped
    /// deltas and fused-activation `dz`, shaped like those steps'
    /// incoming gradients, and a GRU step's three `(batch, hidden)`
    /// buffers), holding as many as one step of that shape borrows.
    /// Steps run one at a time and each overwrites its scratch before
    /// reading it, so every step of a shape can share one group.
    scratch: Vec<Vec<Matrix>>,
    /// Transposes of the nodes consumed as `matmul_t` right-hand
    /// sides (weights of `Affine`/`Affine2` and of GRU gates, the RHS
    /// of `Matmul`), sorted by node id, refreshed once per run and
    /// shared by every step that consults them. `matmul_t(a, b)` is
    /// documented bit-identical to `matmul(a, bᵀ)`, and plain `matmul`
    /// feeds the register tile with no per-call transpose, so one
    /// transpose amortized over the whole backward (a recurrent weight
    /// is hit once per timestep) wins.
    tcache: Vec<(u32, Matrix)>,
}

/// The liveness mask of `nodes[..=loss]`: a node is live when it is a
/// trainable leaf ([`crate::Tape::leaf`] / [`crate::Tape::leaf_copy`])
/// or when any of its operands is live. Constant, zeros and filled
/// leaves and `Detach` outputs are not, and neither is anything
/// computed only from them — a frozen network's whole forward pass,
/// say. The plan prunes every edge into a node that is not live. That
/// removes only writes into slots nothing reads: every live slot sees
/// the same edges, in the same order, with the same first-touch flags
/// as without pruning, so every gradient that is computed keeps its
/// bits.
fn liveness(nodes: &[Node], loss: usize) -> Vec<bool> {
    let mut live = Vec::with_capacity(loss + 1);
    for node in &nodes[..=loss] {
        let is_live = match &node.op {
            Op::Leaf(kind) => *kind == LeafKind::Data { grad: true },
            Op::Detach(_) => false,
            op => {
                let mut any = false;
                edges(op, |t, _| any |= live[t]);
                any
            }
        };
        live.push(is_live);
    }
    live
}

/// Visits the operands of `op` in the order its backward step folds
/// gradients into them, each with whether the edge's delta is *mapped*:
/// an elementwise delta computed straight into an empty slot, which on
/// a later touch needs a scratch temporary to add from. The compiled
/// flags and [`run_step`]'s positional reads of them both follow this
/// order. (`Detach` lists its operand for use counting; no backward
/// step runs for it.)
///
/// A GRU step's two nodes list the edges the seven-node step it
/// replaces folds into its operands, in that step's reverse order:
/// `GruMix` is `add(h, zd)`, `mul(z, diff)` and `sub(h̃, h)`, and
/// `GruGates` is h̃'s gate, `mul(r, h)`, then the r and z gates. The
/// internal nodes (z, r, h̃, `r ⊙ h`) are not edges.
fn edges(op: &Op, mut f: impl FnMut(usize, bool)) {
    match op {
        Op::Leaf(_) => {}
        Op::Sub(a, b) => {
            f(a.0, false);
            f(b.0, true);
        }
        Op::Mul(a, b) => {
            f(a.0, true);
            f(b.0, true);
        }
        Op::MulRowBroadcast(a, row) => {
            f(a.0, true);
            f(row.0, false);
        }
        Op::Add(a, b) | Op::Matmul(a, b) | Op::AddRowBroadcast(a, b) | Op::BasisExpand(a, b) => {
            f(a.0, false);
            f(b.0, false);
        }
        Op::Neg(a)
        | Op::Scale(a, _)
        | Op::Sigmoid(a)
        | Op::Tanh(a)
        | Op::Relu(a)
        | Op::LeakyRelu(a, _)
        | Op::Exp(a)
        | Op::Ln(a)
        | Op::Square(a)
        | Op::Abs(a)
        | Op::Softplus(a)
        | Op::Recip(a) => f(a.0, true),
        Op::AddScalar(a, _)
        | Op::Detach(a)
        | Op::Sum(a)
        | Op::Mean(a)
        | Op::SliceCols(a, _, _)
        | Op::SliceRows(a, _, _)
        | Op::RowMean(a)
        | Op::Transpose(a) => f(a.0, false),
        Op::ConcatRows(parts) | Op::ConcatCols(parts) => parts.iter().for_each(|p| f(p.0, false)),
        Op::Affine { x, w, b, .. } => [x, w, b].into_iter().for_each(|v| f(v.0, false)),
        Op::Affine2 { x, w, h, u, b, .. } => {
            [x, w, h, u, b].into_iter().for_each(|v| f(v.0, false))
        }
        Op::GruGates { x, h, w } => {
            let [[wz, uz, bz], [wr, ur, br], [wh, uh, bh]] = w;
            [x, wh, uh, bh].into_iter().for_each(|v| f(v.0, false));
            f(h.0, true);
            [x, wr, h, ur, br, x, wz, h, uz, bz]
                .into_iter()
                .for_each(|v| f(v.0, false));
        }
        Op::GruMix(gates, h) => {
            f(gates.0, true);
            f(h.0, false);
        }
    }
}

/// The temporaries `node`'s backward step borrows, as `(count, shape)`:
/// three `(batch, hidden)` buffers for a GRU step's gates (`dz`,
/// `d(r ⊙ h)`, and `r ⊙ h` recomputed), else one shaped like the
/// node's incoming gradient when the compiled flags say it `need`s
/// one.
fn scratch_for(node: &Node, need: bool) -> (usize, (usize, usize)) {
    let (r, c) = node.value.shape();
    match node.op {
        Op::GruGates { .. } => (3, (r / 3, c)),
        _ => (need as usize, (r, c)),
    }
}

/// Which of a GRU step's gates run backward, as `(z, r, h̃)`: each
/// when one of its operands is live. `r ⊙ h` is live exactly when the
/// r gate is, since that gate reads h too, and it feeds h̃'s gate.
fn gru_gates_live(live: &[bool], x: VarId, h: VarId, w: &[[VarId; 3]; 3]) -> [bool; 3] {
    let shared = live[x.0] || live[h.0];
    let gate = |g: &[VarId; 3]| shared || g.iter().any(|v| live[v.0]);
    let r = gate(&w[1]);
    [gate(&w[0]), r, r || gate(&w[2])]
}

// ---------------------------------------------------------------------
// Forward execution
// ---------------------------------------------------------------------

/// Computes node `i`'s value in place from its operands — the only
/// copy of each op's forward arithmetic. Every shape was checked when
/// the node was recorded, and every element of the value is written.
/// The tape runs it on each node it records, and on each node a
/// replayed step re-declares.
pub(crate) fn exec_node(nodes: &mut [Node], i: usize, pool: &mut MatrixPool) {
    let (lo, hi) = nodes.split_at_mut(i);
    let node = &mut hi[0];
    let v = &mut node.value;
    match &node.op {
        Op::Leaf(_) => {}
        Op::Add(a, b) => lo[a.0].value.zip_map_into(&lo[b.0].value, |x, y| x + y, v),
        Op::Sub(a, b) => lo[a.0].value.zip_map_into(&lo[b.0].value, |x, y| x - y, v),
        Op::Mul(a, b) => lo[a.0].value.zip_map_into(&lo[b.0].value, |x, y| x * y, v),
        Op::Neg(a) => lo[a.0].value.map_into(|x| -x, v),
        Op::Scale(a, s) => {
            let s = *s;
            lo[a.0].value.map_into(|x| x * s, v)
        }
        Op::AddScalar(a, s) => {
            let s = *s;
            lo[a.0].value.map_into(|x| x + s, v)
        }
        Op::Detach(a) => v.copy_from(&lo[a.0].value),
        Op::Matmul(a, b) => {
            v.fill(0.0);
            lo[a.0].value.matmul_acc_into(&lo[b.0].value, v);
        }
        Op::Sigmoid(a) => lo[a.0].value.map_into(tsgb_linalg::detmath::sigmoid, v),
        Op::Tanh(a) => lo[a.0].value.map_into(tsgb_linalg::detmath::tanh, v),
        Op::Relu(a) => lo[a.0].value.map_into(|x| x.max(0.0), v),
        Op::LeakyRelu(a, slope) => {
            let slope = *slope;
            lo[a.0]
                .value
                .map_into(|x| if x >= 0.0 { x } else { slope * x }, v)
        }
        Op::Exp(a) => lo[a.0].value.map_into(f64::exp, v),
        Op::Ln(a) => lo[a.0].value.map_into(f64::ln, v),
        Op::Square(a) => lo[a.0].value.map_into(|x| x * x, v),
        Op::Abs(a) => lo[a.0].value.map_into(f64::abs, v),
        Op::Softplus(a) => lo[a.0]
            .value
            .map_into(|x| if x > 20.0 { x } else { (1.0 + x.exp()).ln() }, v),
        Op::Recip(a) => lo[a.0].value.map_into(|x| 1.0 / x, v),
        Op::Sum(a) => {
            let s = lo[a.0].value.sum();
            v.fill(s);
        }
        Op::Mean(a) => {
            let m = lo[a.0].value.mean();
            v.fill(m);
        }
        Op::AddRowBroadcast(a, row) => {
            v.copy_from(&lo[a.0].value);
            v.add_row_broadcast_assign(&lo[row.0].value);
        }
        Op::MulRowBroadcast(a, row) => {
            let x = &lo[a.0].value;
            let rv = &lo[row.0].value;
            for row_i in 0..x.rows() {
                for (o, (&xv, &sv)) in v
                    .row_mut(row_i)
                    .iter_mut()
                    .zip(x.row(row_i).iter().zip(rv.row(0)))
                {
                    *o = xv * sv;
                }
            }
        }
        Op::ConcatCols(parts) => {
            let mut offset = 0;
            for p in parts {
                let m = &lo[p.0].value;
                let cols = m.cols();
                for row in 0..m.rows() {
                    v.row_mut(row)[offset..offset + cols].copy_from_slice(m.row(row));
                }
                offset += cols;
            }
        }
        Op::SliceCols(a, start, end) => {
            let (start, end) = (*start, *end);
            let x = &lo[a.0].value;
            for row in 0..x.rows() {
                v.row_mut(row).copy_from_slice(&x.row(row)[start..end]);
            }
        }
        Op::ConcatRows(parts) => {
            let mut offset = 0;
            for p in parts {
                let m = &lo[p.0].value;
                for row in 0..m.rows() {
                    v.row_mut(offset + row).copy_from_slice(m.row(row));
                }
                offset += m.rows();
            }
        }
        Op::SliceRows(a, start, end) => {
            let (start, end) = (*start, *end);
            let x = &lo[a.0].value;
            for row in start..end {
                v.row_mut(row - start).copy_from_slice(x.row(row));
            }
        }
        Op::RowMean(a) => {
            let x = &lo[a.0].value;
            let inv = 1.0 / x.cols() as f64;
            for row in 0..x.rows() {
                v.row_mut(row)[0] = x.row(row).iter().sum::<f64>() * inv;
            }
        }
        Op::Transpose(a) => {
            let x = &lo[a.0].value;
            for row in 0..x.rows() {
                for col in 0..x.cols() {
                    v[(col, row)] = x[(row, col)];
                }
            }
        }
        Op::BasisExpand(coef, basis) => {
            // Each output starts from its first product and adds the
            // rest in basis order: no FMA, no start from 0.0.
            let (c, bm) = (&lo[coef.0].value, &lo[basis.0].value);
            let n = c.cols() / bm.cols();
            for row in 0..c.rows() {
                let cr = c.row(row);
                for (s, out) in v.row_mut(row).chunks_exact_mut(n).enumerate() {
                    let b = bm.row(s);
                    for (o, &cv) in out.iter_mut().zip(&cr[..n]) {
                        *o = cv * b[0];
                    }
                    for (k, &bk) in b.iter().enumerate().skip(1) {
                        for (o, &cv) in out.iter_mut().zip(&cr[k * n..(k + 1) * n]) {
                            *o += cv * bk;
                        }
                    }
                }
            }
        }
        Op::Affine { x, w, b, act } => {
            let act = *act;
            v.fill(0.0);
            lo[x.0].value.matmul_acc_into(&lo[w.0].value, v);
            v.add_row_broadcast_assign(&lo[b.0].value);
            act.apply(v);
        }
        Op::Affine2 { x, w, h, u, b, act } => {
            let act = *act;
            v.fill(0.0);
            lo[x.0].value.matmul_acc_into(&lo[w.0].value, v);
            // Separate h U accumulator, added afterwards: identical
            // summation order to the record path.
            let mut hu = pool.take_zeroed(v.rows(), v.cols());
            lo[h.0].value.matmul_acc_into(&lo[u.0].value, &mut hu);
            v.add_assign(&hu);
            pool.put(hu);
            v.add_row_broadcast_assign(&lo[b.0].value);
            act.apply(v);
        }
        Op::GruGates { x, h, w } => {
            let (x, h) = (&lo[x.0].value, &lo[h.0].value);
            let ((rows, cols), n) = (h.shape(), h.len());
            let mut xw = pool.take_uninit(rows, cols);
            let mut hu = pool.take_uninit(rows, cols);
            let mut rh = pool.take_uninit(rows, cols);
            let (zr, ht) = v.as_mut_slice().split_at_mut(2 * n);
            let (z, r) = zr.split_at_mut(n);
            gru_gate(lo, x, h, w[0], sigmoid, &mut xw, &mut hu, z);
            gru_gate(lo, x, h, w[1], sigmoid, &mut xw, &mut hu, r);
            zip_map_into(r, h.as_slice(), |ri, hi| ri * hi, rh.as_mut_slice());
            gru_gate(lo, x, &rh, w[2], tanh, &mut xw, &mut hu, ht);
            for buf in [xw, hu, rh] {
                pool.put(buf);
            }
        }
        Op::GruMix(gates, h) => {
            let (y, h) = (lo[gates.0].value.as_slice(), lo[h.0].value.as_slice());
            let n = h.len();
            zip3_map_into(
                h,
                &y[..n],
                &y[2 * n..],
                |hi, zi, ti| hi + zi * (ti - hi),
                v.as_mut_slice(),
            );
        }
    }
}

/// One GRU gate's forward into its block `out`: `x W` from zero into
/// `xw`, `hin U` from zero into `hu`, then `act((xw + hu) + b)` in one
/// pass. Element for element, that is the `Affine2` chain: product,
/// separate `h U` accumulator, add, bias, activation.
#[allow(clippy::too_many_arguments)] // a gate's operands and its two temporaries
fn gru_gate(
    lo: &[Node],
    x: &Matrix,
    hin: &Matrix,
    [w, u, b]: [VarId; 3],
    act: impl Fn(f64) -> f64,
    xw: &mut Matrix,
    hu: &mut Matrix,
    out: &mut [f64],
) {
    xw.fill(0.0);
    x.matmul_acc_into(&lo[w.0].value, xw);
    hu.fill(0.0);
    hin.matmul_acc_into(&lo[u.0].value, hu);
    let bias = lo[b.0].value.as_slice();
    zip_row_map_into(
        xw.as_slice(),
        hu.as_slice(),
        bias,
        |p, q, c| act((p + q) + c),
        out,
    );
}

// ---------------------------------------------------------------------
// Backward compilation + execution
// ---------------------------------------------------------------------

impl BwdPlan {
    /// Walks the reverse order from `loss` over the graph, recording
    /// its liveness mask, which nodes are reached, the first-touch flag
    /// of every edge, which steps need scratch buffers (one group per
    /// shape), and which `matmul_t` right-hand sides to cache — then
    /// takes those buffers from the pool.
    pub(crate) fn compile(nodes: &[Node], loss: usize, pool: &mut MatrixPool) -> BwdPlan {
        let live = liveness(nodes, loss);
        let mut has = vec![false; nodes.len()];
        has[loss] = true;
        let mut steps = Vec::new();
        let mut flags = Vec::new();
        let mut scratch: Vec<Vec<Matrix>> = Vec::new();
        // Node ids whose transpose the backward wants cached
        // (`matmul_t` right-hand sides of live edges); deduped below.
        let mut tneed: Vec<u32> = Vec::new();
        for i in (0..=loss).rev() {
            if !has[i] || !live[i] || matches!(nodes[i].op, Op::Leaf(_)) {
                continue;
            }
            // Each edge's first-touch flag, in `edges` order: whether
            // its slot is still empty. A pruned edge (into a node that
            // is not live) pushes a placeholder that is never read, so
            // the positional indexing in `run_step` matches, and leaves
            // the node unreached. A step needs a scratch buffer
            // (`scratch_for`) for an activated affine's `dz` or a
            // mapped delta into an already touched slot.
            let flags_at = flags.len() as u32;
            let mut need_scratch = matches!(
                nodes[i].op,
                Op::Affine { act, .. } | Op::Affine2 { act, .. } if act != FusedAct::Identity
            );
            edges(&nodes[i].op, |t, mapped| {
                let fresh = !live[t] || !std::mem::replace(&mut has[t], true);
                flags.push(fresh);
                need_scratch |= mapped && !fresh;
            });
            match &nodes[i].op {
                Op::Matmul(a, b) if live[a.0] => tneed.push(b.0 as u32),
                Op::Affine { x, w, .. } if live[x.0] => tneed.push(w.0 as u32),
                Op::Affine2 { x, w, h, u, .. } => {
                    if live[x.0] {
                        tneed.push(w.0 as u32);
                    }
                    if live[h.0] {
                        tneed.push(u.0 as u32);
                    }
                }
                Op::GruGates { x, h, w } => {
                    let [[wz, uz, _], [wr, ur, _], [wh, uh, _]] = *w;
                    if live[x.0] {
                        tneed.extend([wz, wr, wh].map(|v| v.0 as u32));
                    }
                    if live[h.0] {
                        tneed.extend([uz, ur].map(|v| v.0 as u32));
                    }
                    if gru_gates_live(&live, *x, *h, w)[1] {
                        tneed.push(uh.0 as u32);
                    }
                }
                _ => {}
            }
            let (count, shape) = scratch_for(&nodes[i], need_scratch);
            let scratch_idx = if count > 0 {
                let at = scratch.iter().position(|g| g[0].shape() == shape);
                let at = at.unwrap_or_else(|| {
                    scratch.push(Vec::new());
                    scratch.len() - 1
                });
                while scratch[at].len() < count {
                    scratch[at].push(pool.take_uninit(shape.0, shape.1));
                }
                at as u32
            } else {
                u32::MAX
            };
            steps.push(BwdStep {
                node: i as u32,
                flags_at,
                scratch: scratch_idx,
            });
        }
        tneed.sort_unstable();
        tneed.dedup();
        let tcache = tneed
            .into_iter()
            .map(|id| {
                let (r, c) = nodes[id as usize].value.shape();
                (id, pool.take_uninit(c, r))
            })
            .collect();
        BwdPlan {
            loss,
            steps,
            flags,
            live,
            reached: has,
            scratch,
            tcache,
        }
    }

    /// Runs the compiled backward into `grads`, seeding the loss slot
    /// with 1, with first-touch flags and scratch buffers precomputed
    /// and the `matmul_t` right-hand sides read from the transpose
    /// cache, refreshed first.
    pub(crate) fn run(
        &mut self,
        nodes: &[Node],
        grads: &mut Vec<Option<Matrix>>,
        pool: &mut MatrixPool,
    ) {
        let n = nodes.len();
        if grads.len() < n {
            grads.resize_with(n, || None);
        }
        // Exactly the reached nodes hold a slot after the run. Unreached
        // leftovers (from a previous run for another loss) retire to the
        // pool; reached slots get a buffer whose every element the run
        // overwrites before reading.
        for (i, slot) in grads.iter_mut().enumerate() {
            if self.reached.get(i).copied().unwrap_or(false) {
                if slot.is_none() {
                    let (r, c) = nodes[i].value.shape();
                    *slot = Some(pool.take_uninit(r, c));
                }
            } else if let Some(g) = slot.take() {
                pool.put(g);
            }
        }
        grads[self.loss]
            .as_mut()
            .expect("loss slot materialized above")
            .fill(1.0);

        let BwdPlan {
            steps,
            flags,
            live,
            scratch,
            tcache,
            ..
        } = self;
        // Refresh the cached transposes: values (weights) change every
        // step, the set of cached nodes never does.
        for (id, buf) in tcache.iter_mut() {
            nodes[*id as usize].value.transpose_into(buf);
        }
        for step in steps.iter() {
            let (i, fa) = (step.node as usize, step.flags_at as usize);
            let sbuf = match scratch.get_mut(step.scratch as usize) {
                Some(group) => group.as_mut_slice(),
                None => &mut [],
            };
            run_step(nodes, live, grads, i, &flags[fa..], sbuf, tcache);
        }
    }

    /// Dismantles the plan, yielding its scratch and transpose buffers
    /// for pooling.
    pub(crate) fn into_buffers(self) -> impl Iterator<Item = Matrix> {
        let tcache = self.tcache.into_iter().map(|(_, m)| m);
        self.scratch.into_iter().flatten().chain(tcache)
    }
}

/// Folds a borrowed delta into a slot: first touch copies, later
/// touches `add_assign`.
fn fold_ref(dst: &mut Matrix, fresh: bool, delta: &Matrix) {
    if fresh {
        dst.copy_from(delta);
    } else {
        dst.add_assign(delta);
    }
}

/// Prepares a `*_acc_into` target: a first touch zeroes the slot and
/// the kernel accumulates into it. Zero-then-add, not a direct store,
/// so a `-0.0` delta lands as `0.0 + -0.0 == 0.0`, the bits the golden
/// fixtures pin.
fn acc_slot(slot: &mut Option<Matrix>, fresh: bool) -> &mut Matrix {
    let dst = slot.as_mut().expect("reached grads are materialized");
    if fresh {
        dst.fill(0.0);
    }
    dst
}

/// `dst += a * (node rhs's value)ᵀ`, as the plain matmul against the
/// plan's cached transpose of `rhs` (sorted by node id, found by binary
/// search): bit-identical to `matmul_t_acc_into` on the node's value
/// (documented on [`Matrix::matmul_t`]).
fn mul_t_acc(tcache: &[(u32, Matrix)], a: &Matrix, rhs: usize, dst: &mut Matrix) {
    let at = tcache
        .binary_search_by_key(&(rhs as u32), |(id, _)| *id)
        .expect("live matmul_t RHS has a cached transpose");
    a.matmul_acc_into(&tcache[at].1, dst);
}

/// The five edges of an activated `x W + h U + b` block whose `dz` is
/// computed, in `Affine2`'s order; `ops` are the operands' node ids and
/// `flags` their first-touch flags.
fn affine2_edges(
    nodes: &[Node],
    live: &[bool],
    lo: &mut [Option<Matrix>],
    tcache: &[(u32, Matrix)],
    dz: &Matrix,
    [x, w, h, u, b]: [usize; 5],
    flags: &[bool],
) {
    if live[x] {
        mul_t_acc(tcache, dz, w, acc_slot(&mut lo[x], flags[0]));
    }
    if live[w] {
        nodes[x]
            .value
            .t_matmul_acc_into(dz, acc_slot(&mut lo[w], flags[1]));
    }
    if live[h] {
        mul_t_acc(tcache, dz, u, acc_slot(&mut lo[h], flags[2]));
    }
    if live[u] {
        nodes[h]
            .value
            .t_matmul_acc_into(dz, acc_slot(&mut lo[u], flags[3]));
    }
    if live[b] {
        dz.col_sums_acc_into(acc_slot(&mut lo[b], flags[4]));
    }
}

/// Executes one backward step for node `i` — the only copy of each
/// op's gradient. `grads[i]` holds its (final) incoming gradient and
/// every live edge's slot below `i` holds a buffer; `flags` are this
/// step's first-touch flags in [`edges`] order, `sbuf` its scratch
/// buffers ([`scratch_for`]), and `tcache` the plan's cached
/// transposes. Edges into nodes that are not `live` are skipped
/// entirely, as the compiled flags pruned them — nothing reads those
/// slots.
fn run_step(
    nodes: &[Node],
    live: &[bool],
    grads: &mut [Option<Matrix>],
    i: usize,
    flags: &[bool],
    sbuf: &mut [Matrix],
    tcache: &[(u32, Matrix)],
) {
    // Contributions to node i come only from consumers (larger
    // indices, already processed), so grads[i] is final here.
    let (lo, hi) = grads.split_at_mut(i);
    let g: &Matrix = hi[0].as_ref().expect("reached grads are materialized");
    let live_mask = live;
    let live = |t: usize| live_mask[t];
    // A mapped (elementwise-delta) edge: first touch computes straight
    // into the slot; later touches compute into scratch and add.
    macro_rules! mapped {
        ($t:expr, $fresh:expr, |$dst:ident| $compute:expr) => {{
            if $fresh {
                let $dst: &mut Matrix = lo[$t].as_mut().expect("reached grads are materialized");
                $compute;
            } else {
                let $dst: &mut Matrix =
                    sbuf.first_mut().expect("non-fresh mapped edge has scratch");
                $compute;
                lo[$t]
                    .as_mut()
                    .expect("reached grads are materialized")
                    .add_assign($dst);
            }
        }};
    }
    match &nodes[i].op {
        Op::Leaf(_) | Op::Detach(_) => unreachable!("no backward steps run for these"),
        Op::Add(a, b) => {
            if live(a.0) {
                fold_ref(
                    lo[a.0].as_mut().expect("reached grads are materialized"),
                    flags[0],
                    g,
                );
            }
            if live(b.0) {
                fold_ref(
                    lo[b.0].as_mut().expect("reached grads are materialized"),
                    flags[1],
                    g,
                );
            }
        }
        Op::Sub(a, b) => {
            if live(a.0) {
                fold_ref(
                    lo[a.0].as_mut().expect("reached grads are materialized"),
                    flags[0],
                    g,
                );
            }
            if live(b.0) {
                mapped!(b.0, flags[1], |dst| g.map_into(|x| -x, dst));
            }
        }
        Op::Mul(a, b) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[b.0].value,
                    |gi, bi| gi * bi,
                    dst
                ));
            }
            if live(b.0) {
                mapped!(b.0, flags[1], |dst| g.zip_map_into(
                    &nodes[a.0].value,
                    |gi, ai| gi * ai,
                    dst
                ));
            }
        }
        Op::Neg(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.map_into(|x| -x, dst));
            }
        }
        Op::Scale(a, s) => {
            let s = *s;
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.map_into(|x| x * s, dst));
            }
        }
        Op::AddScalar(a, _) => {
            if live(a.0) {
                fold_ref(
                    lo[a.0].as_mut().expect("reached grads are materialized"),
                    flags[0],
                    g,
                );
            }
        }
        Op::Matmul(a, b) => {
            if live(a.0) {
                let ga = acc_slot(&mut lo[a.0], flags[0]);
                mul_t_acc(tcache, g, b.0, ga);
            }
            if live(b.0) {
                let gb = acc_slot(&mut lo[b.0], flags[1]);
                nodes[a.0].value.t_matmul_acc_into(g, gb);
            }
        }
        Op::Sigmoid(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[i].value,
                    |gi, yi| gi * yi * (1.0 - yi),
                    dst
                ));
            }
        }
        Op::Tanh(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[i].value,
                    |gi, yi| gi * (1.0 - yi * yi),
                    dst
                ));
            }
        }
        Op::Relu(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[a.0].value,
                    |gi, xi| if xi > 0.0 { gi } else { 0.0 },
                    dst
                ));
            }
        }
        Op::LeakyRelu(a, slope) => {
            let slope = *slope;
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[a.0].value,
                    |gi, xi| if xi >= 0.0 { gi } else { slope * gi },
                    dst
                ));
            }
        }
        Op::Exp(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[i].value,
                    |gi, yi| gi * yi,
                    dst
                ));
            }
        }
        Op::Ln(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[a.0].value,
                    |gi, xi| gi / xi,
                    dst
                ));
            }
        }
        Op::Square(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[a.0].value,
                    |gi, xi| 2.0 * xi * gi,
                    dst
                ));
            }
        }
        Op::Abs(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[a.0].value,
                    |gi, xi| gi * xi.signum() * (xi != 0.0) as u8 as f64,
                    dst
                ));
            }
        }
        Op::Softplus(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[a.0].value,
                    |gi, xi| gi / (1.0 + (-xi).exp()),
                    dst
                ));
            }
        }
        Op::Recip(a) => {
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| g.zip_map_into(
                    &nodes[i].value,
                    |gi, yi| -gi * yi * yi,
                    dst
                ));
            }
        }
        Op::Sum(a) => {
            if live(a.0) {
                let g00 = g[(0, 0)];
                let ga = acc_slot(&mut lo[a.0], flags[0]);
                ga.map_inplace(|v| v + g00);
            }
        }
        Op::Mean(a) => {
            if live(a.0) {
                let (r, c) = nodes[a.0].value.shape();
                let gm = g[(0, 0)] / (r * c) as f64;
                let ga = acc_slot(&mut lo[a.0], flags[0]);
                ga.map_inplace(|v| v + gm);
            }
        }
        Op::AddRowBroadcast(a, row) => {
            if live(a.0) {
                fold_ref(
                    lo[a.0].as_mut().expect("reached grads are materialized"),
                    flags[0],
                    g,
                );
            }
            if live(row.0) {
                let gr = acc_slot(&mut lo[row.0], flags[1]);
                g.col_sums_acc_into(gr);
            }
        }
        Op::MulRowBroadcast(a, row) => {
            let rv = &nodes[row.0].value;
            if live(a.0) {
                mapped!(a.0, flags[0], |dst| {
                    for r in 0..g.rows() {
                        for (o, (&gi, &sv)) in dst
                            .row_mut(r)
                            .iter_mut()
                            .zip(g.row(r).iter().zip(rv.row(0)))
                        {
                            *o = gi * sv;
                        }
                    }
                });
            }
            if live(row.0) {
                let x = &nodes[a.0].value;
                let grow = acc_slot(&mut lo[row.0], flags[1]);
                for r in 0..g.rows() {
                    for (o, (&gi, &xi)) in grow
                        .row_mut(0)
                        .iter_mut()
                        .zip(g.row(r).iter().zip(x.row(r)))
                    {
                        *o += gi * xi;
                    }
                }
            }
        }
        Op::ConcatCols(parts) => {
            let mut offset = 0;
            for (k, p) in parts.iter().enumerate() {
                let cols = nodes[p.0].value.cols();
                if live(p.0) {
                    let gp = acc_slot(&mut lo[p.0], flags[k]);
                    for r in 0..g.rows() {
                        let gs = &g.row(r)[offset..offset + cols];
                        for (o, &v) in gp.row_mut(r).iter_mut().zip(gs) {
                            *o += v;
                        }
                    }
                }
                offset += cols;
            }
        }
        Op::SliceCols(a, start, end) => {
            if live(a.0) {
                let (start, end) = (*start, *end);
                let ga = acc_slot(&mut lo[a.0], flags[0]);
                for r in 0..g.rows() {
                    for (o, &v) in ga.row_mut(r)[start..end].iter_mut().zip(g.row(r)) {
                        *o += v;
                    }
                }
            }
        }
        Op::ConcatRows(parts) => {
            let mut offset = 0;
            for (k, p) in parts.iter().enumerate() {
                let rows = nodes[p.0].value.rows();
                if live(p.0) {
                    let gp = acc_slot(&mut lo[p.0], flags[k]);
                    for r in 0..rows {
                        for (o, &v) in gp.row_mut(r).iter_mut().zip(g.row(offset + r)) {
                            *o += v;
                        }
                    }
                }
                offset += rows;
            }
        }
        Op::SliceRows(a, start, _end) => {
            if live(a.0) {
                let start = *start;
                let ga = acc_slot(&mut lo[a.0], flags[0]);
                for r in 0..g.rows() {
                    for (o, &v) in ga.row_mut(start + r).iter_mut().zip(g.row(r)) {
                        *o += v;
                    }
                }
            }
        }
        Op::RowMean(a) => {
            if live(a.0) {
                let (r, c) = nodes[a.0].value.shape();
                let inv = 1.0 / c as f64;
                let ga = acc_slot(&mut lo[a.0], flags[0]);
                for row in 0..r {
                    let gv = g[(row, 0)] * inv;
                    for o in ga.row_mut(row) {
                        *o += gv;
                    }
                }
            }
        }
        Op::Transpose(a) => {
            if live(a.0) {
                let ga = acc_slot(&mut lo[a.0], flags[0]);
                for r in 0..g.rows() {
                    for c in 0..g.cols() {
                        ga[(c, r)] += g[(r, c)];
                    }
                }
            }
        }
        Op::BasisExpand(coef, basis) => {
            let (c, bm) = (&nodes[coef.0].value, &nodes[basis.0].value);
            let n = c.cols() / bm.cols();
            if live(coef.0) {
                // Steps last-first: the order in which the backward
                // adds them when each step is its own `slice_cols` and
                // `scale` nodes, so both graphs give the same bits.
                let gc = acc_slot(&mut lo[coef.0], flags[0]);
                for r in 0..g.rows() {
                    let (gr, out) = (g.row(r), gc.row_mut(r));
                    for s in (0..bm.rows()).rev() {
                        let gs = &gr[s * n..(s + 1) * n];
                        for (k, &bk) in bm.row(s).iter().enumerate() {
                            for (o, &gv) in out[k * n..(k + 1) * n].iter_mut().zip(gs) {
                                *o += gv * bk;
                            }
                        }
                    }
                }
            }
            if live(basis.0) {
                let gb = acc_slot(&mut lo[basis.0], flags[1]);
                for r in 0..g.rows() {
                    let (gr, cr) = (g.row(r), c.row(r));
                    for s in 0..bm.rows() {
                        let gs = &gr[s * n..(s + 1) * n];
                        for (k, o) in gb.row_mut(s).iter_mut().enumerate() {
                            let ck = &cr[k * n..(k + 1) * n];
                            *o += gs.iter().zip(ck).map(|(&gv, &cv)| gv * cv).sum::<f64>();
                        }
                    }
                }
            }
        }
        Op::Affine { x, w, b, act } => {
            let dz: &Matrix = if *act == FusedAct::Identity {
                g
            } else {
                let d = sbuf.first_mut().expect("activated affine has scratch");
                act.dz_into(g.as_slice(), nodes[i].value.as_slice(), d.as_mut_slice());
                d
            };
            if live(x.0) {
                let gx = acc_slot(&mut lo[x.0], flags[0]);
                mul_t_acc(tcache, dz, w.0, gx);
            }
            if live(w.0) {
                let gw = acc_slot(&mut lo[w.0], flags[1]);
                nodes[x.0].value.t_matmul_acc_into(dz, gw);
            }
            if live(b.0) {
                let gb = acc_slot(&mut lo[b.0], flags[2]);
                dz.col_sums_acc_into(gb);
            }
        }
        Op::Affine2 { x, w, h, u, b, act } => {
            let dz: &Matrix = if *act == FusedAct::Identity {
                g
            } else {
                let d = sbuf.first_mut().expect("activated affine2 has scratch");
                act.dz_into(g.as_slice(), nodes[i].value.as_slice(), d.as_mut_slice());
                d
            };
            let ops = [x, w, h, u, b].map(|v| v.0);
            affine2_edges(nodes, live_mask, lo, tcache, dz, ops, flags);
        }
        Op::GruMix(gates, h) => {
            let (y, hv) = (nodes[gates.0].value.as_slice(), &nodes[h.0].value);
            let (gs, n) = (g.as_slice(), hv.len());
            let z = &y[..n];
            if live(gates.0) {
                // The gates' one consumer: the slot is always fresh.
                assert!(flags[0], "only its mix reads a GRU step's gates");
                let d = lo[gates.0]
                    .as_mut()
                    .expect("reached grads are materialized");
                let (dz, rest) = d.as_mut_slice().split_at_mut(n);
                zip3_map_into(
                    gs,
                    &y[2 * n..],
                    hv.as_slice(),
                    |gi, ti, hi| gi * (ti - hi),
                    dz,
                );
                zip_map_into(gs, z, |gi, zi| gi * zi, &mut rest[n..]);
            }
            if live(h.0) {
                let dh = lo[h.0].as_mut().expect("reached grads are materialized");
                let dh = dh.as_mut_slice();
                if flags[1] {
                    zip_map_into(gs, z, |gi, zi| gi + -(gi * zi), dh);
                } else {
                    zip_update(dh, gs, z, |di, gi, zi| (di + gi) + -(gi * zi));
                }
            }
        }
        Op::GruGates { x, h, w } => {
            let (x, h) = (*x, *h);
            let [z_live, r_live, ht_live] = gru_gates_live(live_mask, x, h, w);
            let [[wz, uz, bz], [wr, ur, br], [wh, uh, bh]] = *w;
            let [dz, drh, tmp, ..] = sbuf else {
                unreachable!("a GRU step's backward has three temporaries")
            };
            let (xv, hv) = (&nodes[x.0].value, &nodes[h.0].value);
            let (y, n) = (nodes[i].value.as_slice(), hv.len());
            let (z, r, ht) = (&y[..n], &y[n..2 * n], &y[2 * n..]);
            let d = hi[0].as_mut().expect("reached grads are materialized");
            let (dgz, rest) = d.as_mut_slice().split_at_mut(n);
            let (dgr, dght) = rest.split_at_mut(n);
            if ht_live {
                FusedAct::Tanh.dz_into(dght, ht, dz.as_mut_slice());
                if live(x.0) {
                    mul_t_acc(tcache, dz, wh.0, acc_slot(&mut lo[x.0], flags[0]));
                }
                if live(wh.0) {
                    xv.t_matmul_acc_into(dz, acc_slot(&mut lo[wh.0], flags[1]));
                }
                if r_live {
                    drh.fill(0.0);
                    mul_t_acc(tcache, dz, uh.0, drh);
                }
                if live(uh.0) {
                    zip_map_into(r, hv.as_slice(), |ri, hi| ri * hi, tmp.as_mut_slice());
                    tmp.t_matmul_acc_into(dz, acc_slot(&mut lo[uh.0], flags[2]));
                }
                if live(bh.0) {
                    dz.col_sums_acc_into(acc_slot(&mut lo[bh.0], flags[3]));
                }
            }
            if r_live {
                // `mul(r, h)`'s two edges: r's into its block, h's mapped.
                zip_map_into(drh.as_slice(), hv.as_slice(), |gi, hi| gi * hi, dgr);
                if live(h.0) {
                    let dh = lo[h.0].as_mut().expect("reached grads are materialized");
                    if flags[4] {
                        zip_map_into(drh.as_slice(), r, |gi, ri| gi * ri, dh.as_mut_slice());
                    } else {
                        zip_map_into(drh.as_slice(), r, |gi, ri| gi * ri, tmp.as_mut_slice());
                        dh.add_assign(tmp);
                    }
                }
                FusedAct::Sigmoid.dz_into(dgr, r, dz.as_mut_slice());
                let ops = [x, wr, h, ur, br].map(|v| v.0);
                affine2_edges(nodes, live_mask, lo, tcache, dz, ops, &flags[5..10]);
            }
            if z_live {
                FusedAct::Sigmoid.dz_into(dgz, z, dz.as_mut_slice());
                let ops = [x, wz, h, uz, bz].map(|v| v.0);
                affine2_edges(nodes, live_mask, lo, tcache, dz, ops, &flags[10..15]);
            }
        }
    }
}
