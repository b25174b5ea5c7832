//! Arena-based reverse-mode automatic differentiation over matrices.
//!
//! A [`Tape`] records forward ops as nodes (eagerly computing values);
//! [`Tape::backward`] walks the arena in reverse insertion order —
//! which is always a valid reverse topological order — accumulating
//! gradients. This "define-by-run" structure is the same contract as
//! PyTorch's dynamic graph, scaled down to the dense-matrix ops the
//! ten TSG methods need.
//!
//! The tape records nodes, checks each op's inputs, and matches a
//! replayed step against its captured signature; the arithmetic of
//! each op lives once, in [`crate::plan`]. Recording runs
//! `plan::exec_node` on the new node, and replay on each matched node
//! as it is declared, so a value is readable as soon as its op is
//! declared on either path. Every backward runs a compiled
//! `plan::BwdPlan`, on recorded and replayed steps alike: the tape
//! keeps the plans compiled for the current graph, one per loss node,
//! and carries a recorded step's plans into its replays.
//!
//! # Training memory model
//!
//! Rebuilding the graph every minibatch does **not** mean reallocating
//! it. [`Tape::reset`] retires every node value and gradient buffer
//! into an internal [`MatrixPool`] and clears the arena while keeping
//! its capacity; the next forward pass of the same graph shape then
//! draws every buffer back out of the pool. In steady state a
//! tape stepped with [`Tape::begin_step`] performs **zero** heap
//! allocations per training step: forward values, backward
//! temporaries, and gradient accumulators all live in pooled storage,
//! and [`Tape::backward`] accumulates through the in-place kernels of
//! `tsgb-linalg` (`add_assign`, `*_acc_into`) rather than
//! `grad + delta` temporaries. A tape stepped with [`Tape::reset`]
//! draws every buffer from the pool too, but compiles its backward
//! plan's step and flag lists again each step. See `DESIGN.md`
//! ("Training memory model") for the full contract.
//!
//! Design notes (see `DESIGN.md`):
//! * values and gradients are plain [`Matrix`]; no views/strides, so
//!   every op's backward is a few dense kernels;
//! * node payloads live in one `Vec`, ids are indices ([`VarId`]) —
//!   no `Rc`/`RefCell`, no lifetimes in user code;
//! * losses must reduce to `1 x 1` before calling `backward`;
//! * the fused [`Tape::affine_act`] / [`Tape::affine2_act`] ops record
//!   a whole `act(x W (+ h U) + b)` block as one node, so a Linear or
//!   an LSTM gate costs one arena slot instead of 3–5; a GRU step is
//!   two nodes (`Tape::gru_step`: the stacked gates, then the state
//!   mix) where it was seven.

use crate::plan::BwdPlan;
use tsgb_linalg::{Matrix, MatrixPool};

/// Index of a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

/// Activation fused into [`Tape::affine_act`] / [`Tape::affine2_act`].
///
/// Only activations whose derivative is recoverable from the *output*
/// are fusable (the pre-activation is never materialized): sigmoid
/// (`y(1-y)`), tanh (`1-y^2`) and ReLU (`y > 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedAct {
    /// No activation: the affine output itself.
    Identity,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
}

impl FusedAct {
    /// Applies the activation elementwise in place.
    pub(crate) fn apply(self, m: &mut Matrix) {
        match self {
            FusedAct::Identity => {}
            FusedAct::Sigmoid => m.map_inplace(tsgb_linalg::detmath::sigmoid),
            FusedAct::Tanh => m.map_inplace(tsgb_linalg::detmath::tanh),
            FusedAct::Relu => m.map_inplace(|x| x.max(0.0)),
        }
    }

    /// Writes `g * act'` into `out`, reading the derivative off the
    /// activation *output* `y`. Identity must be handled by the caller
    /// (no buffer is needed there). Slices, so a GRU step can pass one
    /// gate's block of its stacked gates.
    pub(crate) fn dz_into(self, g: &[f64], y: &[f64], out: &mut [f64]) {
        use tsgb_linalg::matrix::elementwise::zip_map_into;
        match self {
            FusedAct::Identity => unreachable!("identity needs no dz buffer"),
            FusedAct::Sigmoid => zip_map_into(g, y, |gi, yi| gi * yi * (1.0 - yi), out),
            FusedAct::Tanh => zip_map_into(g, y, |gi, yi| gi * (1.0 - yi * yi), out),
            FusedAct::Relu => zip_map_into(g, y, |gi, yi| if yi > 0.0 { gi } else { 0.0 }, out),
        }
    }
}

/// How a leaf's value enters the tape — recorded so a replaying tape
/// knows what to *feed* each step without re-recording: `Data` leaves
/// are memcpy'd in, `Zeros` leaves are never touched (their buffers
/// are immutable by construction), and `Filled` leaves are refilled
/// only when the fill value changes bitwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LeafKind {
    /// Parameter or minibatch data: fed by copy every replayed step.
    /// `grad: false` marks constants ([`Tape::constant`] /
    /// [`Tape::constant_copy`]) whose gradient nobody reads — they are
    /// not live, so backward prunes every edge into them and into
    /// whatever is computed only from them.
    Data { grad: bool },
    /// All-zero leaf (initial recurrent state, padding).
    Zeros,
    /// Constant-filled leaf (GAN targets); payload is the fill value.
    Filled(f64),
}

/// The differentiable operations.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Leaf (parameter or constant); no backward.
    Leaf(LeafKind),
    Add(VarId, VarId),
    Sub(VarId, VarId),
    /// Elementwise (Hadamard) product.
    Mul(VarId, VarId),
    Neg(VarId),
    /// Multiply by a fixed scalar.
    Scale(VarId, f64),
    /// Add a fixed scalar to every element. The scalar rides along so
    /// a replaying tape can re-feed per-step values (it is not needed
    /// by backward: `d(x + s)/dx = 1`).
    AddScalar(VarId, f64),
    /// Stop-gradient: forward copies the value, backward ends here.
    Detach(VarId),
    Matmul(VarId, VarId),
    Sigmoid(VarId),
    Tanh(VarId),
    Relu(VarId),
    LeakyRelu(VarId, f64),
    Exp(VarId),
    /// Natural log; caller guarantees positive inputs.
    Ln(VarId),
    Square(VarId),
    Abs(VarId),
    /// `ln(1 + e^x)`, computed stably.
    Softplus(VarId),
    /// Elementwise reciprocal; caller guarantees nonzero inputs.
    Recip(VarId),
    /// Reduce all elements to a `1 x 1` sum.
    Sum(VarId),
    /// Reduce all elements to a `1 x 1` mean.
    Mean(VarId),
    /// Add a `1 x cols` row vector to every row.
    AddRowBroadcast(VarId, VarId),
    /// Multiply every row elementwise by a `1 x cols` row vector.
    MulRowBroadcast(VarId, VarId),
    /// Side-by-side concatenation of row-compatible matrices.
    ConcatCols(Vec<VarId>),
    /// Column slice `[start, end)` of the input.
    SliceCols(VarId, usize, usize),
    /// Stack many row-compatible matrices vertically.
    ConcatRows(Vec<VarId>),
    /// Row slice `[start, end)` of the input.
    SliceRows(VarId, usize, usize),
    /// Row-wise mean: `(R, C) -> (R, 1)`.
    RowMean(VarId),
    /// Transpose.
    Transpose(VarId),
    /// Coefficients `(batch, K*n)` expanded over a fixed `(l, K)`
    /// basis into `(batch, l*n)`, step-major.
    BasisExpand(VarId, VarId),
    /// Fused `act(x W + b)`: matmul, row-broadcast bias, activation in
    /// one node.
    Affine {
        x: VarId,
        w: VarId,
        b: VarId,
        act: FusedAct,
    },
    /// Fused `act(x W + h U + b)` — the shape of every LSTM gate.
    Affine2 {
        x: VarId,
        w: VarId,
        h: VarId,
        u: VarId,
        b: VarId,
        act: FusedAct,
    },
    /// A GRU step's three gates over input `x` and state `h`, stacked
    /// by rows into `(3·batch, hidden)`: `z = σ(x Wz + h Uz + bz)`,
    /// `r = σ(x Wr + h Ur + br)`, `h̃ = tanh(x Wh + (r ⊙ h) Uh + bh)`.
    /// `w` holds each gate's `[W, U, b]`, in the order z, r, h̃. Only
    /// the step's [`Op::GruMix`] reads it.
    GruGates {
        x: VarId,
        h: VarId,
        w: [[VarId; 3]; 3],
    },
    /// `h + z ⊙ (h̃ − h)` over a [`Op::GruGates`] node and the state
    /// `h` it read: the step's new state.
    GruMix(VarId, VarId),
}

/// Structural-signature comparison for replay: `true` when `new`
/// denotes the same node as the recorded op. Input ids, slice bounds,
/// part lists and fused activations are *structure* and
/// must match exactly; scalar payloads (`Scale`, `AddScalar`,
/// `LeakyRelu`) are per-step *feeds* — compared bitwise and written
/// through into the recorded op on change, so a data-dependent scalar
/// (e.g. a per-minibatch mean) never invalidates the plan. The forward
/// and the compiled backward steps read these payloads live from the
/// recorded ops, never from a frozen copy.
fn sig_match(rec: &mut Op, new: &Op) -> bool {
    match (rec, new) {
        (Op::Add(a0, b0), Op::Add(a1, b1))
        | (Op::Sub(a0, b0), Op::Sub(a1, b1))
        | (Op::Mul(a0, b0), Op::Mul(a1, b1))
        | (Op::Matmul(a0, b0), Op::Matmul(a1, b1))
        | (Op::AddRowBroadcast(a0, b0), Op::AddRowBroadcast(a1, b1))
        | (Op::MulRowBroadcast(a0, b0), Op::MulRowBroadcast(a1, b1))
        | (Op::BasisExpand(a0, b0), Op::BasisExpand(a1, b1))
        | (Op::GruMix(a0, b0), Op::GruMix(a1, b1)) => a0 == a1 && b0 == b1,
        (Op::Neg(a0), Op::Neg(a1))
        | (Op::Detach(a0), Op::Detach(a1))
        | (Op::Sigmoid(a0), Op::Sigmoid(a1))
        | (Op::Tanh(a0), Op::Tanh(a1))
        | (Op::Relu(a0), Op::Relu(a1))
        | (Op::Exp(a0), Op::Exp(a1))
        | (Op::Ln(a0), Op::Ln(a1))
        | (Op::Square(a0), Op::Square(a1))
        | (Op::Abs(a0), Op::Abs(a1))
        | (Op::Softplus(a0), Op::Softplus(a1))
        | (Op::Recip(a0), Op::Recip(a1))
        | (Op::Sum(a0), Op::Sum(a1))
        | (Op::Mean(a0), Op::Mean(a1))
        | (Op::RowMean(a0), Op::RowMean(a1))
        | (Op::Transpose(a0), Op::Transpose(a1)) => a0 == a1,
        (Op::Scale(a0, s0), Op::Scale(a1, s1))
        | (Op::AddScalar(a0, s0), Op::AddScalar(a1, s1))
        | (Op::LeakyRelu(a0, s0), Op::LeakyRelu(a1, s1)) => {
            if a0 != a1 {
                return false;
            }
            if s0.to_bits() != s1.to_bits() {
                *s0 = *s1;
            }
            true
        }
        (Op::SliceCols(a0, s0, e0), Op::SliceCols(a1, s1, e1))
        | (Op::SliceRows(a0, s0, e0), Op::SliceRows(a1, s1, e1)) => {
            a0 == a1 && s0 == s1 && e0 == e1
        }
        (Op::ConcatRows(p0), Op::ConcatRows(p1)) | (Op::ConcatCols(p0), Op::ConcatCols(p1)) => {
            p0 == p1
        }
        (
            Op::Affine {
                x: x0,
                w: w0,
                b: b0,
                act: act0,
            },
            Op::Affine {
                x: x1,
                w: w1,
                b: b1,
                act: act1,
            },
        ) => x0 == x1 && w0 == w1 && b0 == b1 && act0 == act1,
        (
            Op::Affine2 {
                x: x0,
                w: w0,
                h: h0,
                u: u0,
                b: b0,
                act: act0,
            },
            Op::Affine2 {
                x: x1,
                w: w1,
                h: h1,
                u: u1,
                b: b1,
                act: act1,
            },
        ) => x0 == x1 && w0 == w1 && h0 == h1 && u0 == u1 && b0 == b1 && act0 == act1,
        (
            Op::GruGates {
                x: x0,
                h: h0,
                w: w0,
            },
            Op::GruGates {
                x: x1,
                h: h1,
                w: w1,
            },
        ) => x0 == x1 && h0 == h1 && w0 == w1,
        _ => false,
    }
}

pub(crate) struct Node {
    pub(crate) value: Matrix,
    pub(crate) op: Op,
}

/// The gradient tape.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
    pub(crate) grads: Vec<Option<Matrix>>,
    pub(crate) pool: MatrixPool,
    /// The backward plans compiled for the current graph, one per loss
    /// node `backward` ran from. They outlive a capture, and retire to
    /// the pool when the graph is reset or invalidated.
    plans: Vec<BwdPlan>,
    /// `Some` while replaying a captured step: how many of its ops
    /// (leaves included) have been re-declared, signature-matched and
    /// computed so far this step. `None` while recording, when ops
    /// compute eagerly and push nodes.
    cursor: Option<usize>,
    /// Pool misses as of the last step boundary, so each boundary
    /// publishes only the misses since the one before it.
    reported_misses: u64,
    /// Lifetime count of plan captures (diagnostics; mirrored to the
    /// `nn.plan.captures` obs counter).
    captures: u64,
    /// Lifetime count of fully replayed steps (`nn.plan.replays`).
    replays: u64,
    /// Lifetime count of structural invalidations that fell back to
    /// re-recording (`nn.plan.invalidations`).
    invalidations: u64,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears all nodes, gradients and plans while keeping every
    /// buffer: node values, gradient matrices and the plans' scratch
    /// are retired into the tape's pool, and the arena `Vec`s keep
    /// their capacity. Re-recording a graph of the same shape after
    /// `reset` misses the pool nowhere (only its backward plan's index
    /// lists are allocated again), and produces bit-identical values
    /// and gradients to a freshly constructed tape (the pooled buffers
    /// are fully overwritten or zeroed before reuse).
    pub fn reset(&mut self) {
        self.observe_step();
        self.cursor = None;
        self.retire_plans();
        for node in self.nodes.drain(..) {
            self.pool.put(node.value);
        }
        for g in self.grads.drain(..).flatten() {
            self.pool.put(g);
        }
    }

    /// Ends a forward-only run on a tape whose first `len` nodes outlive
    /// it (a model's weights, bound once): publishes the run's step
    /// counters as [`Tape::reset`] does, then drops every later node,
    /// every gradient, every plan and any replay state. The dropped
    /// buffers are freed, not pooled, so a tape kept between runs holds
    /// no memory that grows with the size of a run.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.observe_step();
        self.cursor = None;
        self.plans.clear();
        self.nodes.truncate(len);
        self.grads.clear();
    }

    /// Observability hook: one step boundary per reset/begin_step/truncate.
    /// Everything here is observed, never read back — results are
    /// unaffected. The miss mark advances at every boundary, so a
    /// boundary publishes only its own step's misses, never those of
    /// steps run while recording was off; with recording disabled the
    /// rest is one relaxed atomic load.
    fn observe_step(&mut self) {
        let misses = self.pool.misses();
        let step_misses = misses - std::mem::replace(&mut self.reported_misses, misses);
        if tsgb_obs::enabled() {
            tsgb_obs::counter_add("nn.tape.steps", 1);
            tsgb_obs::observe("nn.tape.nodes", self.nodes.len() as f64);
            tsgb_obs::counter_add("nn.pool.miss", step_misses);
        }
    }

    /// Dismantles every compiled plan, retiring its scratch and
    /// transpose buffers into the pool. Nodes and gradients are
    /// untouched.
    fn retire_plans(&mut self) {
        for buf in self.plans.drain(..).flat_map(BwdPlan::into_buffers) {
            self.pool.put(buf);
        }
    }

    /// Marks a step boundary under the record-once/replay-many contract
    /// and returns the tape, ready for the step:
    ///
    /// * an empty tape just starts recording (the capture step);
    /// * the first boundary after a recorded step **captures** it and
    ///   switches to replay mode, in which each declared op is matched
    ///   against the captured node list and computed in place, and
    ///   `backward` runs the plans the recorded step compiled;
    /// * subsequent boundaries rewind the replay cursor, keeping every
    ///   buffer in place for the next step's feeds.
    ///
    /// A structural mismatch mid-step (changed batch size, different
    /// graph) transparently falls back: the stale suffix is retired
    /// (the matched prefix already holds this step's values), recording
    /// resumes, and the next boundary re-captures. Replay is
    /// bit-identical to recording every step after a [`Tape::reset`].
    pub fn begin_step(&mut self) -> &mut Self {
        self.observe_step();
        if self.cursor.is_some() {
            self.cursor = Some(0);
        } else if self.plans.is_empty() {
            // Only a step that ran `backward()` (and so compiled a
            // plan) is a complete training step worth freezing. Leaves
            // recorded before the first step (e.g. the initial
            // `Params::bind`) would otherwise capture a degenerate
            // leaf-only step that immediately invalidates; recycle them
            // instead and wait for the first full step.
            for node in self.nodes.drain(..) {
                self.pool.put(node.value);
            }
        } else {
            // Capture: replay the recorded step, keeping its plans.
            self.cursor = Some(0);
            self.captures += 1;
            if tsgb_obs::enabled() {
                tsgb_obs::counter_add("nn.plan.captures", 1);
            }
        }
        self
    }

    /// Falls back from replay to recording: retires the stale suffix,
    /// all gradient buffers and the plans. The matched prefix
    /// already holds this step's values, so recording continues from
    /// it. The next [`Tape::begin_step`] re-captures.
    fn invalidate_replay(&mut self) {
        let Some(cursor) = self.cursor.take() else {
            return;
        };
        for node in self.nodes.drain(cursor..) {
            self.pool.put(node.value);
        }
        for g in self.grads.drain(..).flatten() {
            self.pool.put(g);
        }
        self.retire_plans();
        self.invalidations += 1;
        if tsgb_obs::enabled() {
            tsgb_obs::counter_add("nn.plan.invalidations", 1);
        }
    }

    /// Lifetime `(captures, replays, invalidations)` of this tape's
    /// plan state machine (diagnostics for tests and perf probes).
    pub fn plan_stats(&self) -> (u64, u64, u64) {
        (self.captures, self.replays, self.invalidations)
    }

    /// Number of pool misses so far — fresh allocations the buffer
    /// pool could not serve. Stops growing once a recycled tape
    /// reaches steady state (diagnostics for the perf probes).
    pub fn pool_misses(&self) -> u64 {
        self.pool.misses()
    }

    fn push(&mut self, value: Matrix, op: Op) -> VarId {
        debug_assert!(value.all_finite(), "non-finite value produced by {op:?}");
        self.nodes.push(Node { value, op });
        VarId(self.nodes.len() - 1)
    }

    /// Computes node `i`'s value from its operands with
    /// [`crate::plan::exec_node`]: the one forward path of a recorded
    /// and a replayed op.
    fn exec(&mut self, i: usize) -> VarId {
        crate::plan::exec_node(&mut self.nodes, i, &mut self.pool);
        debug_assert!(
            self.nodes[i].value.all_finite(),
            "non-finite value produced by {:?}",
            self.nodes[i].op
        );
        VarId(i)
    }

    /// Whether this tape is currently replaying a captured step.
    fn replaying(&self) -> bool {
        self.cursor.is_some()
    }

    /// Replay-mode handler for a non-leaf op: `same` checks the
    /// structural signature of the node at the cursor (usually
    /// [`sig_match`], which treats the scalar payloads of `scale`,
    /// `add_scalar` and `leaky_relu` as per-step *feeds* and updates
    /// them in place rather than invalidating). On a match the cursor
    /// advances and the node is computed at once, as recording would
    /// compute it, but into the captured buffer with no push. On any
    /// structural mismatch the replay is invalidated (`None` is
    /// returned) and the caller falls through to plain recording.
    fn replay_op(&mut self, same: impl FnOnce(&mut Op) -> bool) -> Option<VarId> {
        let i = self.cursor?;
        if i < self.nodes.len() && same(&mut self.nodes[i].op) {
            self.cursor = Some(i + 1);
            return Some(self.exec(i));
        }
        self.invalidate_replay();
        None
    }

    /// Replay-mode handler for a leaf: checks kind and shape against
    /// the captured structure, then feeds the new data into the
    /// preresolved buffer (memcpy for data leaves, nothing for zeros,
    /// a refill for changed fill values). Returns `None` after
    /// invalidating when the structure diverged.
    fn replay_leaf(
        &mut self,
        kind: LeafKind,
        shape: (usize, usize),
        data: Option<&Matrix>,
    ) -> Option<VarId> {
        let i = self.cursor?;
        let matched = i < self.nodes.len() && {
            let node = &mut self.nodes[i];
            node.value.shape() == shape
                && match (&mut node.op, kind) {
                    (Op::Leaf(LeafKind::Data { grad: old }), LeafKind::Data { grad: new })
                        if *old == new =>
                    {
                        node.value.copy_from(data.expect("data leaves carry data"));
                        true
                    }
                    (Op::Leaf(LeafKind::Zeros), LeafKind::Zeros) => true,
                    (Op::Leaf(LeafKind::Filled(old)), LeafKind::Filled(new)) => {
                        if old.to_bits() != new.to_bits() {
                            node.value.fill(new);
                            *old = new;
                        }
                        true
                    }
                    _ => false,
                }
        };
        if matched {
            self.cursor = Some(i + 1);
            return Some(VarId(i));
        }
        self.invalidate_replay();
        None
    }

    /// Records a leaf holding `value` (parameter input).
    pub fn leaf(&mut self, value: Matrix) -> VarId {
        let kind = LeafKind::Data { grad: true };
        if self.replaying() {
            if let Some(id) = self.replay_leaf(kind, value.shape(), Some(&value)) {
                return id;
            }
        }
        self.push(value, Op::Leaf(kind))
    }

    /// Records a leaf holding a pooled copy of `value` — the
    /// allocation-free way to inject parameters into a recycled tape.
    pub fn leaf_copy(&mut self, value: &Matrix) -> VarId {
        let kind = LeafKind::Data { grad: true };
        if self.replaying() {
            if let Some(id) = self.replay_leaf(kind, value.shape(), Some(value)) {
                return id;
            }
        }
        let v = self.pool.take_copy(value);
        self.push(v, Op::Leaf(kind))
    }

    /// Like [`Tape::leaf`] for non-trainable data. The gradient of a
    /// constant is never read, so backward skips computing it, and
    /// everything computed only from constants.
    pub fn constant(&mut self, value: Matrix) -> VarId {
        let kind = LeafKind::Data { grad: false };
        if self.replaying() {
            if let Some(id) = self.replay_leaf(kind, value.shape(), Some(&value)) {
                return id;
            }
        }
        self.push(value, Op::Leaf(kind))
    }

    /// Like [`Tape::leaf_copy`] for non-trainable data (minibatches,
    /// targets); backward prunes gradient edges into it.
    pub fn constant_copy(&mut self, value: &Matrix) -> VarId {
        let kind = LeafKind::Data { grad: false };
        if self.replaying() {
            if let Some(id) = self.replay_leaf(kind, value.shape(), Some(value)) {
                return id;
            }
        }
        let v = self.pool.take_copy(value);
        self.push(v, Op::Leaf(kind))
    }

    /// Records a leaf of zeros drawn from the pool (initial recurrent
    /// states, padding blocks).
    pub fn zeros(&mut self, rows: usize, cols: usize) -> VarId {
        if self.replaying() {
            if let Some(id) = self.replay_leaf(LeafKind::Zeros, (rows, cols), None) {
                return id;
            }
        }
        let v = self.pool.take_zeroed(rows, cols);
        self.push(v, Op::Leaf(LeafKind::Zeros))
    }

    /// Records a constant-filled leaf drawn from the pool (GAN
    /// real/fake targets).
    pub fn filled(&mut self, rows: usize, cols: usize, value: f64) -> VarId {
        if self.replaying() {
            if let Some(id) = self.replay_leaf(LeafKind::Filled(value), (rows, cols), None) {
                return id;
            }
        }
        let mut v = self.pool.take_uninit(rows, cols);
        v.fill(value);
        self.push(v, Op::Leaf(LeafKind::Filled(value)))
    }

    /// The forward value of a node, readable as soon as its op is
    /// declared: recording and replay both compute each op as it is
    /// declared.
    ///
    /// During plan replay the node must have been re-declared this
    /// step; a later node's buffer still holds the previous step's
    /// bits, so reading it panics. [`Tape::shape`] is always valid.
    pub fn value(&self, id: VarId) -> &Matrix {
        if let Some(cursor) = self.cursor {
            assert!(
                id.0 < cursor,
                "Tape::value({id:?}) of a node not yet re-declared this step"
            );
        }
        &self.nodes[id.0].value
    }

    /// The shape of a node's value. Always valid, even during plan
    /// replay (shapes are frozen by the capture).
    pub fn shape(&self, id: VarId) -> (usize, usize) {
        self.nodes[id.0].value.shape()
    }

    /// The gradient of the last `backward` call w.r.t. node `id`,
    /// **copied** into a fresh matrix (zeros if no gradient reached
    /// it: the node did not influence the loss, or depends on no
    /// trainable leaf — constant, zeros and filled leaves, `detach`
    /// outputs, and anything computed only from those). Hot paths
    /// should prefer
    /// [`Tape::grad_ref`], which borrows the accumulator instead of
    /// cloning it; this copying form stays for API convenience.
    pub fn grad(&self, id: VarId) -> Matrix {
        match self.grads.get(id.0) {
            Some(Some(g)) => g.clone(),
            _ => {
                let (r, c) = self.nodes[id.0].value.shape();
                Matrix::zeros(r, c)
            }
        }
    }

    /// Borrow of the gradient accumulated for node `id` by the last
    /// `backward` call, or `None` when no gradient reached it. A node
    /// that depends on no trainable leaf gets no gradient slot at all,
    /// and that includes `detach` outputs (see [`Tape::grad`]).
    pub fn grad_ref(&self, id: VarId) -> Option<&Matrix> {
        self.grads.get(id.0).and_then(Option::as_ref)
    }

    // ---- forward ops -------------------------------------------------

    /// Records `op`: during replay its signature is checked against
    /// the captured node, which is then computed in place; otherwise
    /// `shape` runs the op's input checks and returns its output shape,
    /// and the node is pushed with a pooled buffer and computed the
    /// same way.
    fn record(&mut self, op: Op, shape: impl FnOnce(&Self) -> (usize, usize)) -> VarId {
        if let Some(id) = self.replay_op(|rec| sig_match(rec, &op)) {
            return id;
        }
        let (r, c) = shape(self);
        let value = self.pool.take_uninit(r, c);
        self.nodes.push(Node { value, op });
        self.exec(self.nodes.len() - 1)
    }

    /// [`Tape::record`] for an op over a parts list (`concat_rows`,
    /// `concat_cols`). During replay the parts are matched in place,
    /// so a replayed step builds no `Op` and allocates no list;
    /// `op(Vec::new())` only names the variant.
    fn record_parts(
        &mut self,
        op: fn(Vec<VarId>) -> Op,
        parts: &[VarId],
        shape: impl FnOnce(&Self) -> (usize, usize),
    ) -> VarId {
        let matched = self.replay_op(|rec| match (&*rec, op(Vec::new())) {
            (Op::ConcatRows(p), Op::ConcatRows(_)) | (Op::ConcatCols(p), Op::ConcatCols(_)) => {
                p.as_slice() == parts
            }
            _ => false,
        });
        if let Some(id) = matched {
            return id;
        }
        self.record(op(parts.to_vec()), shape)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        self.record(Op::Add(a, b), |t| t.shape(a))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        self.record(Op::Sub(a, b), |t| t.shape(a))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        self.record(Op::Mul(a, b), |t| t.shape(a))
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: VarId) -> VarId {
        self.record(Op::Neg(a), |t| t.shape(a))
    }

    /// Multiplies by a constant scalar.
    pub fn scale(&mut self, a: VarId, s: f64) -> VarId {
        self.record(Op::Scale(a, s), |t| t.shape(a))
    }

    /// Adds a constant scalar to every element.
    pub fn add_scalar(&mut self, a: VarId, s: f64) -> VarId {
        self.record(Op::AddScalar(a, s), |t| t.shape(a))
    }

    /// Stop-gradient: forward is a copy of `a`, backward treats the
    /// node as a constant (no gradient flows into `a`). This is the
    /// plan-friendly form of the `t.constant(t.value(a).clone())`
    /// idiom: the copy happens on the tape, so nothing needs to read a
    /// value mid-graph.
    pub fn detach(&mut self, a: VarId) -> VarId {
        self.record(Op::Detach(a), |t| t.shape(a))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        self.record(Op::Matmul(a, b), |t| (t.shape(a).0, t.shape(b).1))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        self.record(Op::Sigmoid(a), |t| t.shape(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        self.record(Op::Tanh(a), |t| t.shape(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: VarId) -> VarId {
        self.record(Op::Relu(a), |t| t.shape(a))
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, a: VarId, slope: f64) -> VarId {
        self.record(Op::LeakyRelu(a, slope), |t| t.shape(a))
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: VarId) -> VarId {
        self.record(Op::Exp(a), |t| t.shape(a))
    }

    /// Elementwise natural log (inputs must be positive).
    pub fn ln(&mut self, a: VarId) -> VarId {
        self.record(Op::Ln(a), |t| t.shape(a))
    }

    /// Elementwise square.
    pub fn square(&mut self, a: VarId) -> VarId {
        self.record(Op::Square(a), |t| t.shape(a))
    }

    /// Elementwise absolute value (subgradient 0 at the kink).
    pub fn abs(&mut self, a: VarId) -> VarId {
        self.record(Op::Abs(a), |t| t.shape(a))
    }

    /// Numerically stable `ln(1 + e^x)`.
    pub fn softplus(&mut self, a: VarId) -> VarId {
        self.record(Op::Softplus(a), |t| t.shape(a))
    }

    /// Elementwise reciprocal `1 / x` (inputs must be nonzero) — the
    /// scaling step of unrolled Sinkhorn iterations.
    pub fn recip(&mut self, a: VarId) -> VarId {
        self.record(Op::Recip(a), |t| t.shape(a))
    }

    /// Sum of all elements, as `1 x 1`.
    pub fn sum(&mut self, a: VarId) -> VarId {
        self.record(Op::Sum(a), |_| (1, 1))
    }

    /// Mean of all elements, as `1 x 1`.
    pub fn mean(&mut self, a: VarId) -> VarId {
        self.record(Op::Mean(a), |_| (1, 1))
    }

    /// Adds a `1 x cols` bias row to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: VarId, row: VarId) -> VarId {
        self.record(Op::AddRowBroadcast(a, row), |t| t.shape(a))
    }

    /// Multiplies every row of `a` elementwise by a `1 x cols` row
    /// vector — the diagonal state transition of LS4's SSM layers.
    pub fn mul_row_broadcast(&mut self, a: VarId, row: VarId) -> VarId {
        self.record(Op::MulRowBroadcast(a, row), |t| {
            let (rr, rc) = t.shape(row);
            assert_eq!(rr, 1, "broadcast operand must be a row vector");
            assert_eq!(rc, t.shape(a).1, "broadcast width mismatch");
            t.shape(a)
        })
    }

    /// `[a | b | ...]`: the parts side by side, in order, as one node.
    /// A part may repeat.
    pub fn concat_cols(&mut self, parts: &[VarId]) -> VarId {
        self.record_parts(Op::ConcatCols, parts, |t| {
            assert!(!parts.is_empty(), "concat_cols needs at least one part");
            let rows = t.shape(parts[0]).0;
            let cols = parts
                .iter()
                .map(|&p| {
                    let (r, c) = t.shape(p);
                    assert_eq!(r, rows, "concat_cols row mismatch");
                    c
                })
                .sum();
            (rows, cols)
        })
    }

    /// Columns `[start, end)` of `a`.
    pub fn slice_cols(&mut self, a: VarId, start: usize, end: usize) -> VarId {
        self.record(Op::SliceCols(a, start, end), |t| {
            let (r, c) = t.shape(a);
            assert!(start <= end && end <= c, "column slice out of bounds");
            (r, end - start)
        })
    }

    /// Vertically stacks the given nodes.
    pub fn concat_rows(&mut self, parts: &[VarId]) -> VarId {
        self.record_parts(Op::ConcatRows, parts, |t| {
            assert!(!parts.is_empty(), "concat_rows needs at least one part");
            let cols = t.shape(parts[0]).1;
            let rows = parts
                .iter()
                .map(|&p| {
                    let (r, c) = t.shape(p);
                    assert_eq!(c, cols, "concat_rows column mismatch");
                    r
                })
                .sum();
            (rows, cols)
        })
    }

    /// Rows `[start, end)` of `a`.
    pub fn slice_rows(&mut self, a: VarId, start: usize, end: usize) -> VarId {
        self.record(Op::SliceRows(a, start, end), |t| {
            let (r, c) = t.shape(a);
            assert!(start <= end && end <= r, "row slice out of bounds");
            (end - start, c)
        })
    }

    /// Row-wise mean: `(R, C) -> (R, 1)`.
    pub fn row_mean(&mut self, a: VarId) -> VarId {
        self.record(Op::RowMean(a), |t| (t.shape(a).0, 1))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: VarId) -> VarId {
        self.record(Op::Transpose(a), |t| {
            let (r, c) = t.shape(a);
            (c, r)
        })
    }

    /// Expands per-channel coefficients over a fixed time basis: with
    /// `coef` `(batch, K*n)` and `basis` `(l, K)`, output column
    /// `s*n + f` is `coef[:, f] * basis[s, 0] + coef[:, n + f] *
    /// basis[s, 1] + ...`, summed left to right from the first product.
    /// This is TimeVAE's trend and seasonality decoder as one node.
    pub fn basis_expand(&mut self, coef: VarId, basis: VarId) -> VarId {
        self.record(Op::BasisExpand(coef, basis), |t| {
            let ((rows, kn), (l, k)) = (t.shape(coef), t.shape(basis));
            assert!(
                k > 0 && kn > 0 && kn % k == 0,
                "basis_expand: {kn} coefficient columns for a basis of width {k}"
            );
            (rows, l * (kn / k))
        })
    }

    // ---- fused ops ---------------------------------------------------

    /// Fused affine map `x W + b` (matmul plus row-broadcast bias) as
    /// a single node. Bit-identical to `add_row_broadcast(matmul(x,
    /// w), b)` while recording one node instead of two.
    pub fn affine(&mut self, x: VarId, w: VarId, b: VarId) -> VarId {
        self.affine_act(x, w, b, FusedAct::Identity)
    }

    /// Fused `act(x W + b)` — a whole Linear layer in one node.
    pub fn affine_act(&mut self, x: VarId, w: VarId, b: VarId, act: FusedAct) -> VarId {
        self.record(Op::Affine { x, w, b, act }, |t| {
            (t.shape(x).0, t.shape(w).1)
        })
    }

    /// Fused `act(x W + h U + b)` — the recurrent-gate shape of every
    /// LSTM gate, recorded as a single node. `h U` is
    /// accumulated into its own buffer and then added, which keeps the
    /// summation order of the unfused `add(matmul(x, w), matmul(h, u))`.
    pub fn affine2_act(
        &mut self,
        x: VarId,
        w: VarId,
        h: VarId,
        u: VarId,
        b: VarId,
        act: FusedAct,
    ) -> VarId {
        self.record(Op::Affine2 { x, w, h, u, b, act }, |t| {
            let m = t.shape(x).0;
            assert_eq!(t.shape(h).0, m, "affine2_act: x and h row mismatch");
            (m, t.shape(w).1)
        })
    }

    /// One GRU step (Cho et al., 2014) as two nodes: the three gates
    /// over `x` and the state `h` ([`Op::GruGates`]), then the new
    /// state `h + z ⊙ (h̃ − h)` ([`Op::GruMix`]), which is returned.
    /// `w` holds each gate's `[W, U, b]`, in the order z, r, h̃.
    ///
    /// Values and gradients are bit-identical to the seven-node step
    /// it replaces: three [`Tape::affine2_act`] gates, then `mul(r, h)`,
    /// `sub(h̃, h)`, `mul(z, diff)` and `add(h, zd)`. Each element gets
    /// the same operations in the same order, and the backward folds
    /// into every operand's slot in the seven nodes' reverse order
    /// (`DESIGN.md`, "Training memory model").
    pub(crate) fn gru_step(&mut self, x: VarId, h: VarId, w: [[VarId; 3]; 3]) -> VarId {
        let gates = self.record(Op::GruGates { x, h, w }, |t| {
            let (m, hidden) = t.shape(h);
            assert_eq!(t.shape(x).0, m, "gru_step: x and h row mismatch");
            for [_, _, b] in w {
                assert_eq!(t.shape(b), (1, hidden), "gru_step: bias shape");
            }
            (3 * m, hidden)
        });
        self.record(Op::GruMix(gates, h), |t| t.shape(h))
    }

    // ---- backward ----------------------------------------------------

    /// Runs reverse-mode accumulation from `loss`, which must be a
    /// `1 x 1` node. Gradients are then readable via [`Tape::grad_ref`]
    /// (borrowing) or [`Tape::grad`] (copying). Only *live* nodes that
    /// influence the loss through a differentiable path get a gradient:
    /// a node is live when it is a trainable leaf or has a live
    /// operand. Edges into constants, zeros and filled leaves, `detach`
    /// outputs, and whatever is computed only from them are skipped,
    /// so those read as zero.
    ///
    /// Every call runs a compiled plan (`plan::BwdPlan`): the one an
    /// earlier backward from `loss` compiled for this graph, or one
    /// compiled now, with its gradient accumulators and temporaries
    /// drawn from the pool and the matmul family accumulating in place
    /// through the `*_acc_into` kernels. A replayed step that declared
    /// fewer ops than were captured invalidates first, so the plan is
    /// compiled for the graph the step declared.
    pub fn backward(&mut self, loss: VarId) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward requires a scalar (1x1) loss node"
        );
        if self.cursor.is_some_and(|c| c < self.nodes.len()) {
            self.invalidate_replay();
        }
        let Tape {
            nodes,
            grads,
            pool,
            plans,
            ..
        } = self;
        let at = match plans.iter().position(|p| p.loss == loss.0) {
            Some(at) => at,
            None => {
                plans.push(BwdPlan::compile(nodes, loss.0, pool));
                plans.len() - 1
            }
        };
        plans[at].run(nodes, grads, pool);
        if self.replaying() {
            self.replays += 1;
            if tsgb_obs::enabled() {
                tsgb_obs::counter_add("nn.plan.replays", 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(t: &mut Tape, v: f64) -> VarId {
        t.leaf(Matrix::full(1, 1, v))
    }

    #[test]
    fn product_rule() {
        let mut t = Tape::new();
        let a = scalar(&mut t, 3.0);
        let b = scalar(&mut t, 4.0);
        let y = t.mul(a, b);
        t.backward(y);
        assert_eq!(t.grad(a)[(0, 0)], 4.0);
        assert_eq!(t.grad(b)[(0, 0)], 3.0);
    }

    #[test]
    fn chain_rule_through_square_and_mean() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap());
        let sq = t.square(x);
        let m = t.mean(sq);
        t.backward(m);
        // d mean(x^2)/dx = 2x / 3
        let g = t.grad(x);
        for (xi, gi) in [1.0, 2.0, 3.0].iter().zip(g.as_slice()) {
            assert!((gi - 2.0 * xi / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_gradients() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap());
        let b = t.leaf(Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]).unwrap());
        let y = t.matmul(a, b);
        let s = t.sum(y);
        t.backward(s);
        // dS/dA = ones(2,2) * B^T, dS/dB = A^T * ones(2,2)
        let ones = Matrix::full(2, 2, 1.0);
        let expect_a = ones.matmul_t(t.value(b));
        let expect_b = t.value(a).t_matmul(&ones);
        assert_eq!(t.grad(a), expect_a);
        assert_eq!(t.grad(b), expect_b);
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        let mut t = Tape::new();
        let x = scalar(&mut t, 2.0);
        let y = t.mul(x, x); // x^2
        t.backward(y);
        assert_eq!(t.grad(x)[(0, 0)], 4.0); // 2x
    }

    #[test]
    fn unused_nodes_have_zero_grad() {
        let mut t = Tape::new();
        let x = scalar(&mut t, 2.0);
        let z = scalar(&mut t, 5.0);
        let y = t.square(x);
        t.backward(y);
        assert_eq!(t.grad(z)[(0, 0)], 0.0);
        assert!(t.grad_ref(z).is_none(), "uninfluential node has no slot");
        assert!(t.grad_ref(x).is_some());
    }

    #[test]
    fn concat_and_slice_route_gradients() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]).unwrap());
        let b = t.leaf(Matrix::from_vec(2, 1, vec![5., 6.]).unwrap());
        let cat = t.concat_cols(&[a, b]);
        let right = t.slice_cols(cat, 2, 3); // just b
        let s = t.sum(right);
        t.backward(s);
        assert_eq!(t.grad(b), Matrix::full(2, 1, 1.0));
        assert_eq!(t.grad(a), Matrix::zeros(2, 2));
    }

    #[test]
    fn concat_rows_roundtrip_gradients() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::full(1, 2, 1.0));
        let b = t.leaf(Matrix::full(2, 2, 2.0));
        let cat = t.concat_rows(&[a, b]);
        let sl = t.slice_rows(cat, 1, 3);
        let s = t.sum(sl);
        t.backward(s);
        assert_eq!(t.grad(a), Matrix::zeros(1, 2));
        assert_eq!(t.grad(b), Matrix::full(2, 2, 1.0));
    }

    #[test]
    fn softplus_grad_is_sigmoid() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 3, vec![-2.0, 0.0, 2.0]).unwrap());
        let sp = t.softplus(x);
        let s = t.sum(sp);
        t.backward(s);
        for (xi, gi) in [-2.0f64, 0.0, 2.0].iter().zip(t.grad(x).as_slice()) {
            let sig = 1.0 / (1.0 + (-xi).exp());
            assert!((gi - sig).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "scalar (1x1) loss")]
    fn backward_requires_scalar() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(2, 2));
        t.backward(x);
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `act(a)` as its own node.
    fn activate(t: &mut Tape, a: VarId, act: FusedAct) -> VarId {
        match act {
            FusedAct::Identity => a,
            FusedAct::Sigmoid => t.sigmoid(a),
            FusedAct::Tanh => t.tanh(a),
            FusedAct::Relu => t.relu(a),
        }
    }

    /// `affine_act` against the graphs it fuses: `matmul`, then
    /// `add_row_broadcast`, then the activation; and `affine`, then the
    /// activation, the form a `Linear` head took before
    /// `Linear::forward_act`. Each tape is stepped with `begin_step`
    /// on a new `x` every step, so steps 2 and 3 replay, and the value
    /// and `dx`, `dw`, `db` must agree bit for bit on every step.
    #[test]
    fn affine_matches_unfused_graph_bitwise() {
        const STEPS: usize = 3;
        let x_at = |step: usize| {
            Matrix::from_fn(3, 4, |r, c| {
                (r as f64 + 1.0) * 0.3 - c as f64 * 0.7 + step as f64 * 0.45
            })
        };
        let w_m = Matrix::from_fn(4, 2, |r, c| (r as f64 - 1.5) * (c as f64 + 0.5) * 0.11);
        let b_m = Matrix::from_vec(1, 2, vec![0.25, -0.75]).unwrap();
        type Graph = fn(&mut Tape, [VarId; 3], FusedAct) -> VarId;
        let graphs: [(&str, Graph); 3] = [
            ("three nodes", |t, [x, w, b], act| {
                let mm = t.matmul(x, w);
                let aff = t.add_row_broadcast(mm, b);
                activate(t, aff, act)
            }),
            ("two nodes", |t, [x, w, b], act| {
                let aff = t.affine(x, w, b);
                activate(t, aff, act)
            }),
            ("one node", |t, [x, w, b], act| t.affine_act(x, w, b, act)),
        ];

        for act in [
            FusedAct::Identity,
            FusedAct::Sigmoid,
            FusedAct::Tanh,
            FusedAct::Relu,
        ] {
            let mut tapes: [Tape; 3] = Default::default();
            for step in 0..STEPS {
                let x_m = x_at(step);
                let seen: Vec<[Vec<u64>; 4]> = tapes
                    .iter_mut()
                    .zip(graphs)
                    .map(|(tape, (_, graph))| {
                        let t = tape.begin_step();
                        let leaves = [&x_m, &w_m, &b_m].map(|m| t.leaf_copy(m));
                        let y = graph(t, leaves, act);
                        let sq = t.square(y);
                        let l = t.sum(sq);
                        t.backward(l);
                        let [x, w, b] = leaves.map(|v| bits(&t.grad(v)));
                        [bits(t.value(y)), x, w, b]
                    })
                    .collect();
                for ((name, _), other) in graphs.iter().zip(&seen).skip(1) {
                    for (k, what) in ["forward", "dx", "dw", "db"].into_iter().enumerate() {
                        assert!(
                            other[k] == seen[0][k],
                            "{act:?} step {step}: {name} {what} differs from three nodes"
                        );
                    }
                }
            }
            for (tape, (name, _)) in tapes.iter().zip(graphs) {
                let want = (1, (STEPS - 1) as u64, 0);
                assert_eq!(tape.plan_stats(), want, "{act:?}: {name} counters");
            }
        }
    }

    /// A replayed step computes each op as it is declared, so a node
    /// the step has not declared yet holds the previous step's bits,
    /// and reading it must fail rather than return them.
    #[test]
    #[should_panic(expected = "of a node not yet re-declared this step")]
    fn value_of_a_node_not_yet_redeclared_panics() {
        let mut tape = Tape::new();
        let t = tape.begin_step();
        let x = t.leaf(Matrix::full(2, 2, 0.5));
        let y = t.square(x);
        let l = t.sum(y);
        t.backward(l);
        // The boundary captures the step; x is re-declared, y is not.
        let t = tape.begin_step();
        let x = t.leaf(Matrix::full(2, 2, 0.25));
        assert_eq!(t.value(x)[(0, 0)], 0.25);
        let _ = t.value(y);
    }

    #[test]
    fn affine2_matches_unfused_graph_bitwise() {
        let x_m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 * 0.09 - 0.6);
        let w_m = Matrix::from_fn(4, 2, |r, c| ((r + c) as f64).sin() * 0.5);
        let h_m = Matrix::from_fn(3, 5, |r, c| (r as f64 - c as f64) * 0.21);
        let u_m = Matrix::from_fn(5, 2, |r, c| ((r * 2 + c) as f64).cos() * 0.4);
        let b_m = Matrix::from_vec(1, 2, vec![-0.1, 0.35]).unwrap();

        // Unfused: sigmoid(x W + h U + b), the GRU gate shape.
        let mut t1 = Tape::new();
        let x1 = t1.leaf(x_m.clone());
        let w1 = t1.leaf(w_m.clone());
        let h1 = t1.leaf(h_m.clone());
        let u1 = t1.leaf(u_m.clone());
        let b1 = t1.leaf(b_m.clone());
        let xw = t1.matmul(x1, w1);
        let hu = t1.matmul(h1, u1);
        let s = t1.add(xw, hu);
        let sb = t1.add_row_broadcast(s, b1);
        let y1 = t1.sigmoid(sb);
        let l1 = t1.sum(y1);
        t1.backward(l1);

        let mut t2 = Tape::new();
        let x2 = t2.leaf(x_m.clone());
        let w2 = t2.leaf(w_m.clone());
        let h2 = t2.leaf(h_m.clone());
        let u2 = t2.leaf(u_m.clone());
        let b2 = t2.leaf(b_m.clone());
        let y2 = t2.affine2_act(x2, w2, h2, u2, b2, FusedAct::Sigmoid);
        let l2 = t2.sum(y2);
        t2.backward(l2);

        assert_eq!(t1.value(y1), t2.value(y2), "forward");
        assert_eq!(t1.grad(x1), t2.grad(x2), "dx");
        assert_eq!(t1.grad(w1), t2.grad(w2), "dw");
        assert_eq!(t1.grad(h1), t2.grad(h2), "dh");
        assert_eq!(t1.grad(u1), t2.grad(u2), "du");
        assert_eq!(t1.grad(b1), t2.grad(b2), "db");
    }

    #[test]
    fn recycled_tape_is_bit_identical_and_allocation_free() {
        let x_m = Matrix::from_fn(4, 3, |r, c| (r as f64).sin() + c as f64 * 0.3);
        let w_m = Matrix::from_fn(3, 3, |r, c| ((r * 3 + c) as f64 * 0.17).cos());
        let b_m = Matrix::from_fn(1, 3, |_, c| c as f64 * 0.05 - 0.1);

        let run = |t: &mut Tape| {
            let x = t.leaf_copy(&x_m);
            let w = t.leaf_copy(&w_m);
            let b = t.leaf_copy(&b_m);
            let y = t.affine_act(x, w, b, FusedAct::Tanh);
            let sq = t.square(y);
            let l = t.mean(sq);
            t.backward(l);
            (t.value(l)[(0, 0)], t.grad(w), t.grad(b))
        };

        // Fresh tape reference.
        let mut fresh = Tape::new();
        let (l_ref, gw_ref, gb_ref) = run(&mut fresh);

        // Recycled tape: run, reset, run again — identical results.
        let mut t = Tape::new();
        let _ = run(&mut t);
        let warm_misses = t.pool_misses();
        for _ in 0..3 {
            t.reset();
            let (l, gw, gb) = run(&mut t);
            assert_eq!(l.to_bits(), l_ref.to_bits());
            assert_eq!(gw, gw_ref);
            assert_eq!(gb, gb_ref);
        }
        assert_eq!(
            t.pool_misses(),
            warm_misses,
            "steady-state recycled reruns must not allocate fresh buffers"
        );
    }

    #[test]
    fn repeated_backward_without_reset_is_stable() {
        let mut t = Tape::new();
        let x = scalar(&mut t, 2.0);
        let y = t.square(x);
        t.backward(y);
        assert_eq!(t.grad(x)[(0, 0)], 4.0);
        t.backward(y);
        assert_eq!(t.grad(x)[(0, 0)], 4.0, "second backward must not double");
    }
}
