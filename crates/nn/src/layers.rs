//! Neural-network layers over the gradient tape.
//!
//! Layers own [`ParamId`]s (registered in a shared [`Params`] store at
//! construction) and are stateless at forward time: `forward` takes
//! the tape and the parameter binding, so the same layer object can be
//! used across the fresh tape built for every minibatch.
//!
//! Provided: [`Linear`], [`GruCell`], [`LstmCell`], and the [`Mlp`]
//! convenience stack.
//! These cover the architectures of all ten TSG methods at reduced
//! scale; batch-norm and dropout are intentionally omitted (documented
//! substitution: the reduced-capacity models do not overfit enough to
//! need them, and their train/eval mode split would complicate the
//! benchmark's determinism guarantees).

use crate::init;
use crate::params::{Binding, ParamId, Params};
use crate::tape::{FusedAct, Tape, VarId};
use tsgb_linalg::Matrix;
use tsgb_rand::rngs::SmallRng;

/// Activation applied by [`Mlp`] between layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// ReLU.
    Relu,
    /// Leaky ReLU with slope 0.2 (the GAN-discriminator default).
    LeakyRelu,
    /// tanh.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation on the tape.
    pub fn apply(self, t: &mut Tape, x: VarId) -> VarId {
        match self {
            Activation::None => x,
            Activation::Relu => t.relu(x),
            Activation::LeakyRelu => t.leaky_relu(x, 0.2),
            Activation::Tanh => t.tanh(x),
            Activation::Sigmoid => t.sigmoid(x),
        }
    }

    /// The fusable equivalent, when one exists (leaky ReLU needs the
    /// pre-activation sign and cannot be recovered from the output).
    fn fused(self) -> Option<FusedAct> {
        match self {
            Activation::None => Some(FusedAct::Identity),
            Activation::Relu => Some(FusedAct::Relu),
            Activation::Tanh => Some(FusedAct::Tanh),
            Activation::Sigmoid => Some(FusedAct::Sigmoid),
            Activation::LeakyRelu => None,
        }
    }
}

/// Fully connected layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    /// Input width (for shape assertions in debug builds).
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
}

impl Linear {
    /// Registers a `in_dim -> out_dim` layer in `params`.
    pub fn new(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut SmallRng,
    ) -> Self {
        let w = params.register(
            format!("{name}.w"),
            init::xavier_uniform(in_dim, out_dim, rng),
        );
        let b = params.register(format!("{name}.b"), init::zeros(1, out_dim));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// `x (batch, in_dim) -> (batch, out_dim)`, recorded as one fused
    /// affine node.
    pub fn forward(&self, t: &mut Tape, bind: &Binding, x: VarId) -> VarId {
        debug_assert_eq!(t.shape(x).1, self.in_dim, "Linear input width mismatch");
        t.affine(x, bind.var(self.w), bind.var(self.b))
    }

    /// Forward plus activation, fused into one node when the
    /// activation allows it.
    pub fn forward_act(&self, t: &mut Tape, bind: &Binding, x: VarId, act: Activation) -> VarId {
        debug_assert_eq!(t.shape(x).1, self.in_dim, "Linear input width mismatch");
        match act.fused() {
            Some(f) => t.affine_act(x, bind.var(self.w), bind.var(self.b), f),
            None => {
                let y = t.affine(x, bind.var(self.w), bind.var(self.b));
                act.apply(t, y)
            }
        }
    }
}

/// A stack of [`Linear`] layers with a shared hidden activation and an
/// optional output activation.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden: Activation,
    output: Activation,
}

impl Mlp {
    /// Builds an MLP through the given layer widths, e.g.
    /// `[in, h1, h2, out]`.
    pub fn new(
        params: &mut Params,
        name: &str,
        widths: &[usize],
        hidden: Activation,
        output: Activation,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(
            widths.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(params, &format!("{name}.{i}"), w[0], w[1], rng))
            .collect();
        Self {
            layers,
            hidden,
            output,
        }
    }

    /// Forward through all layers; each layer + activation is one
    /// fused node when the activation allows it.
    pub fn forward(&self, t: &mut Tape, bind: &Binding, x: VarId) -> VarId {
        let n = self.layers.len();
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i + 1 == n { self.output } else { self.hidden };
            h = layer.forward_act(t, bind, h, act);
        }
        h
    }
}

/// Gated recurrent unit cell (Cho et al., 2014).
///
/// `z = sigma(x Wz + h Uz + bz)`, `r = sigma(x Wr + h Ur + br)`,
/// `htilde = tanh(x Wh + (r .* h) Uh + bh)`,
/// `h' = (1 - z) .* h + z .* htilde`, computed as
/// `h + z .* (htilde - h)`.
///
/// A step records two tape nodes: the three gates stacked by rows,
/// then the state mix (`Tape::gru_step`). Its bits are those of the
/// seven-node step it replaced (three fused `affine2_act` gates, then
/// `mul(r, h)`, `sub(htilde, h)`, `mul(z, diff)` and `add(h, zd)`),
/// while it holds four `(batch, hidden)` value buffers and four
/// gradient slots where that step held seven of each.
#[derive(Debug, Clone)]
pub struct GruCell {
    wz: ParamId,
    uz: ParamId,
    bz: ParamId,
    wr: ParamId,
    ur: ParamId,
    br: ParamId,
    wh: ParamId,
    uh: ParamId,
    bh: ParamId,
    /// Input width.
    pub in_dim: usize,
    /// Hidden width.
    pub hidden_dim: usize,
}

impl GruCell {
    /// Registers a GRU cell in `params`.
    pub fn new(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        hidden_dim: usize,
        rng: &mut SmallRng,
    ) -> Self {
        let w = |p: &mut Params, suffix: &str, r, c, rng: &mut SmallRng| {
            p.register(format!("{name}.{suffix}"), init::xavier_uniform(r, c, rng))
        };
        let wz = w(params, "wz", in_dim, hidden_dim, rng);
        let uz = w(params, "uz", hidden_dim, hidden_dim, rng);
        let wr = w(params, "wr", in_dim, hidden_dim, rng);
        let ur = w(params, "ur", hidden_dim, hidden_dim, rng);
        let wh = w(params, "wh", in_dim, hidden_dim, rng);
        let uh = w(params, "uh", hidden_dim, hidden_dim, rng);
        let bz = params.register(format!("{name}.bz"), init::zeros(1, hidden_dim));
        let br = params.register(format!("{name}.br"), init::zeros(1, hidden_dim));
        let bh = params.register(format!("{name}.bh"), init::zeros(1, hidden_dim));
        Self {
            wz,
            uz,
            bz,
            wr,
            ur,
            br,
            wh,
            uh,
            bh,
            in_dim,
            hidden_dim,
        }
    }

    /// One step: `x (batch, in_dim)`, `h (batch, hidden) -> h'`, as
    /// two tape nodes.
    pub fn step(&self, t: &mut Tape, bind: &Binding, x: VarId, h: VarId) -> VarId {
        let v = |p: ParamId| bind.var(p);
        t.gru_step(
            x,
            h,
            [
                [v(self.wz), v(self.uz), v(self.bz)],
                [v(self.wr), v(self.ur), v(self.br)],
                [v(self.wh), v(self.uh), v(self.bh)],
            ],
        )
    }

    /// Runs the cell over a sequence of per-step inputs, returning all
    /// hidden states. `batch` fixes the zero initial state's rows.
    pub fn run(&self, t: &mut Tape, bind: &Binding, xs: &[VarId], batch: usize) -> Vec<VarId> {
        let mut h = t.zeros(batch, self.hidden_dim);
        let mut out = Vec::with_capacity(xs.len());
        for &x in xs {
            h = self.step(t, bind, x, h);
            out.push(h);
        }
        out
    }
}

/// Long short-term memory cell (standard formulation, forget-gate bias
/// initialized to 1 for stable early training).
#[derive(Debug, Clone)]
pub struct LstmCell {
    wi: ParamId,
    ui: ParamId,
    bi: ParamId,
    wf: ParamId,
    uf: ParamId,
    bf: ParamId,
    wo: ParamId,
    uo: ParamId,
    bo: ParamId,
    wc: ParamId,
    uc: ParamId,
    bc: ParamId,
    /// Input width.
    pub in_dim: usize,
    /// Hidden width.
    pub hidden_dim: usize,
}

impl LstmCell {
    /// Registers an LSTM cell in `params`.
    pub fn new(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        hidden_dim: usize,
        rng: &mut SmallRng,
    ) -> Self {
        let w = |p: &mut Params, suffix: &str, r, c, rng: &mut SmallRng| {
            p.register(format!("{name}.{suffix}"), init::xavier_uniform(r, c, rng))
        };
        let wi = w(params, "wi", in_dim, hidden_dim, rng);
        let ui = w(params, "ui", hidden_dim, hidden_dim, rng);
        let wf = w(params, "wf", in_dim, hidden_dim, rng);
        let uf = w(params, "uf", hidden_dim, hidden_dim, rng);
        let wo = w(params, "wo", in_dim, hidden_dim, rng);
        let uo = w(params, "uo", hidden_dim, hidden_dim, rng);
        let wc = w(params, "wc", in_dim, hidden_dim, rng);
        let uc = w(params, "uc", hidden_dim, hidden_dim, rng);
        let bi = params.register(format!("{name}.bi"), init::zeros(1, hidden_dim));
        let bf = params.register(format!("{name}.bf"), Matrix::full(1, hidden_dim, 1.0));
        let bo = params.register(format!("{name}.bo"), init::zeros(1, hidden_dim));
        let bc = params.register(format!("{name}.bc"), init::zeros(1, hidden_dim));
        Self {
            wi,
            ui,
            bi,
            wf,
            uf,
            bf,
            wo,
            uo,
            bo,
            wc,
            uc,
            bc,
            in_dim,
            hidden_dim,
        }
    }

    #[allow(clippy::too_many_arguments)] // the three gate weights are one unit
    fn gate(
        &self,
        t: &mut Tape,
        bind: &Binding,
        x: VarId,
        h: VarId,
        w: ParamId,
        u: ParamId,
        b: ParamId,
        act: FusedAct,
    ) -> VarId {
        t.affine2_act(x, bind.var(w), h, bind.var(u), bind.var(b), act)
    }

    /// One step: returns `(h', c')`. Each gate is one fused node.
    pub fn step(
        &self,
        t: &mut Tape,
        bind: &Binding,
        x: VarId,
        h: VarId,
        c: VarId,
    ) -> (VarId, VarId) {
        let i = self.gate(t, bind, x, h, self.wi, self.ui, self.bi, FusedAct::Sigmoid);
        let f = self.gate(t, bind, x, h, self.wf, self.uf, self.bf, FusedAct::Sigmoid);
        let o = self.gate(t, bind, x, h, self.wo, self.uo, self.bo, FusedAct::Sigmoid);
        let ctilde = self.gate(t, bind, x, h, self.wc, self.uc, self.bc, FusedAct::Tanh);
        let fc = t.mul(f, c);
        let ic = t.mul(i, ctilde);
        let c_new = t.add(fc, ic);
        let tc = t.tanh(c_new);
        let h_new = t.mul(o, tc);
        (h_new, c_new)
    }

    /// Runs the cell over a sequence, returning all hidden states.
    pub fn run(&self, t: &mut Tape, bind: &Binding, xs: &[VarId], batch: usize) -> Vec<VarId> {
        let mut h = t.zeros(batch, self.hidden_dim);
        let mut c = t.zeros(batch, self.hidden_dim);
        let mut out = Vec::with_capacity(xs.len());
        for &x in xs {
            let (h2, c2) = self.step(t, bind, x, h, c);
            h = h2;
            c = c2;
            out.push(h);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = seeded(1);
        let mut p = Params::new();
        let lin = Linear::new(&mut p, "l", 3, 2, &mut rng);
        let mut t = Tape::new();
        let b = p.bind(&mut t);
        let x = t.constant(Matrix::zeros(4, 3));
        let y = lin.forward(&mut t, &b, x);
        assert_eq!(t.value(y).shape(), (4, 2));
        // zero input -> output equals bias (zeros at init)
        assert_eq!(t.value(y), &Matrix::zeros(4, 2));
    }

    #[test]
    fn mlp_stacks() {
        let mut rng = seeded(2);
        let mut p = Params::new();
        let mlp = Mlp::new(
            &mut p,
            "m",
            &[4, 8, 8, 1],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng,
        );
        let mut t = Tape::new();
        let b = p.bind(&mut t);
        let x = t.constant(Matrix::full(5, 4, 0.3));
        let y = mlp.forward(&mut t, &b, x);
        assert_eq!(t.value(y).shape(), (5, 1));
        assert!(t
            .value(y)
            .as_slice()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn gru_runs_sequence() {
        let mut rng = seeded(3);
        let mut p = Params::new();
        let gru = GruCell::new(&mut p, "g", 2, 5, &mut rng);
        let mut t = Tape::new();
        let b = p.bind(&mut t);
        let xs: Vec<VarId> = (0..7)
            .map(|i| t.constant(Matrix::full(3, 2, i as f64 * 0.1)))
            .collect();
        let hs = gru.run(&mut t, &b, &xs, 3);
        assert_eq!(hs.len(), 7);
        assert_eq!(t.value(hs[6]).shape(), (3, 5));
        // hidden state stays in (-1, 1): it is a convex combination of
        // tanh outputs starting from zero
        assert!(t.value(hs[6]).as_slice().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn lstm_runs_sequence_and_grads_flow() {
        let mut rng = seeded(4);
        let mut p = Params::new();
        let lstm = LstmCell::new(&mut p, "l", 2, 4, &mut rng);
        let mut t = Tape::new();
        let b = p.bind(&mut t);
        let xs: Vec<VarId> = (0..5)
            .map(|_| t.constant(Matrix::full(2, 2, 0.5)))
            .collect();
        let hs = lstm.run(&mut t, &b, &xs, 2);
        let last = *hs.last().unwrap();
        let sq = t.square(last);
        let loss = t.mean(sq);
        t.backward(loss);
        p.absorb_grads(&t, &b);
        assert!(
            p.grad_norm() > 0.0,
            "gradients must flow through 5 LSTM steps"
        );
    }
}
