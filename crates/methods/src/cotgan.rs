//! Extension: COT-GAN (Xu et al., NeurIPS'20) — sequential generation
//! via causal optimal transport (paper Table 2).
//!
//! COT-GAN trains the generator to minimize a regularized optimal
//! transport divergence between generated and real minibatches.
//! Reduced-scale reproduction: the entropic **Sinkhorn divergence**
//! `S(x, y) - (S(x, x) + S(y, y)) / 2` on flattened windows, with the
//! Sinkhorn fixed-point iterations *unrolled on the gradient tape* so
//! the generator differentiates through the transport plan — the same
//! differentiable-OT training loop as the original (documented
//! substitution: the causal cost and the adversarially learned feature
//! maps `h, M` are replaced by the plain squared-Euclidean cost; the
//! divergence structure and unrolled-Sinkhorn gradients are the
//! method's identity and are kept).

use crate::common::{
    minibatch, noise, steps_to_tensor, EpochLog, FitDims, MethodId, NoiseDecoder, TrainConfig,
    TrainReport, TsgMethod,
};
use crate::persist::{PersistError, SnapshotReader, SnapshotWriter};
use std::time::Instant;
use tsgb_linalg::rng::seeded;
use tsgb_linalg::{Matrix, Tensor3};
use tsgb_nn::layers::{Activation, GruCell, Linear};
use tsgb_nn::optim::Adam;
use tsgb_nn::params::{Binding, Params};
use tsgb_nn::tape::{Tape, VarId};
use tsgb_nn::ResidentTapes;
use tsgb_rand::rngs::SmallRng;

/// Entropic regularization strength.
const EPSILON: f64 = 1.0;
/// Unrolled Sinkhorn iterations.
const SINKHORN_ITERS: usize = 10;

struct Nets {
    g_params: Params,
    g_cell: GruCell,
    g_head: Linear,
    noise_dim: usize,
    /// Sampling tapes with `g_params` bound.
    tapes: ResidentTapes,
}

/// The COT-GAN extension method.
pub struct CotGan {
    seq_len: usize,
    features: usize,
    dims: Option<FitDims>,
    nets: Option<Nets>,
}

impl CotGan {
    /// A new untrained COT-GAN for `(seq_len, features)` windows.
    pub fn new(seq_len: usize, features: usize) -> Self {
        Self {
            seq_len,
            features,
            dims: None,
            nets: None,
        }
    }

    fn build(&self, cfg: &TrainConfig, rng: &mut SmallRng) -> Nets {
        let noise_dim = cfg.latent.max(2);
        let mut g_params = Params::new();
        let g_cell = GruCell::new(&mut g_params, "g.gru", noise_dim, cfg.hidden, rng);
        let g_head = Linear::new(&mut g_params, "g.head", cfg.hidden, self.features, rng);
        Nets {
            g_params,
            g_cell,
            g_head,
            noise_dim,
            tapes: ResidentTapes::new(),
        }
    }

    /// Generates a `(batch, l * n)` flattened-window node.
    fn generate_flat(&self, nets: &Nets, t: &mut Tape, gb: &Binding, zs: &[Matrix]) -> VarId {
        let batch = zs[0].rows();
        let z_vars: Vec<VarId> = zs.iter().map(|z| t.constant(z.clone())).collect();
        let hs = nets.g_cell.run(t, gb, &z_vars, batch);
        let steps: Vec<VarId> = hs
            .iter()
            .map(|&h| nets.g_head.forward_act(t, gb, h, Activation::Sigmoid))
            .collect();
        // flatten step-major into (batch, l*n) columns
        t.concat_cols(&steps)
    }

    fn nets(&self) -> &Nets {
        self.nets.as_ref().expect("COT-GAN sampled before fit")
    }
}

/// Squared-Euclidean cost matrix `(bx, by)` between the rows of two
/// nodes, on the tape: `C = x2·1' + 1·y2' - 2 x y'`.
fn cost_matrix(t: &mut Tape, x: VarId, y: VarId) -> VarId {
    let (bx, m) = t.shape(x);
    let (by, my) = t.shape(y);
    assert_eq!(m, my, "cost matrix feature mismatch");
    let x2 = t.square(x);
    let x2m = t.row_mean(x2); // (bx, 1)
    let x2s = t.scale(x2m, m as f64);
    let ones_row = t.constant(Matrix::full(1, by, 1.0));
    let a = t.matmul(x2s, ones_row); // (bx, by)
    let y2 = t.square(y);
    let y2m = t.row_mean(y2);
    let y2s = t.scale(y2m, m as f64); // (by, 1)
    let y2t = t.transpose(y2s); // (1, by)
    let ones_col = t.constant(Matrix::full(bx, 1, 1.0));
    let b = t.matmul(ones_col, y2t); // (bx, by)
    let yt = t.transpose(y);
    let xy = t.matmul(x, yt); // (bx, by)
    let xy2 = t.scale(xy, -2.0);
    let ab = t.add(a, b);
    t.add(ab, xy2)
}

/// Entropic OT cost `<P, C>` between uniform marginals via unrolled
/// Sinkhorn iterations on the tape. `x`, `y` are `(b, m)` row sets.
fn sinkhorn_cost(t: &mut Tape, x: VarId, y: VarId) -> VarId {
    let bx = t.shape(x).0;
    let by = t.shape(y).0;
    let c = cost_matrix(t, x, y);
    let c_scaled = t.scale(c, -1.0 / EPSILON);
    let k = t.exp(c_scaled); // Gibbs kernel
    let a = t.constant(Matrix::full(bx, 1, 1.0 / bx as f64));
    let b = t.constant(Matrix::full(by, 1, 1.0 / by as f64));
    let mut v = t.constant(Matrix::full(by, 1, 1.0));
    let mut u = a;
    for _ in 0..SINKHORN_ITERS {
        let kv = t.matmul(k, v); // (bx, 1)
        let kv_r = t.recip(kv);
        u = t.mul(a, kv_r);
        let kt = t.transpose(k);
        let ktu = t.matmul(kt, u); // (by, 1)
        let ktu_r = t.recip(ktu);
        v = t.mul(b, ktu_r);
    }
    // <P, C> = u' (K ⊙ C) v
    let kc = t.mul(k, c);
    let kcv = t.matmul(kc, v); // (bx, 1)
    let ukcv = t.mul(u, kcv);
    t.sum(ukcv)
}

impl TsgMethod for CotGan {
    fn id(&self) -> MethodId {
        MethodId::CotGan
    }

    fn fit(&mut self, train: &Tensor3, cfg: &TrainConfig, rng: &mut SmallRng) -> TrainReport {
        let start = Instant::now();
        let nets = self.build(cfg, rng);
        let mut nets = nets;
        let (r, l, _) = train.shape();
        let flat_real = train.flatten_samples();
        let mut opt = Adam::new(cfg.lr);
        let mut log = EpochLog::new(self.id(), cfg.epochs);
        // Sinkhorn is O(b^2); keep minibatches modest
        let batch_cap = cfg.batch.min(24);

        let mut tape = Tape::new();
        for _ in 0..cfg.epochs {
            let idx = minibatch(r, batch_cap, rng);
            let idx2 = minibatch(r, batch_cap, rng);
            let batch = idx.len();
            let zs: Vec<Matrix> = (0..l).map(|_| noise(batch, nets.noise_dim, rng)).collect();
            let zs2: Vec<Matrix> = (0..l).map(|_| noise(batch, nets.noise_dim, rng)).collect();
            let t = tape.begin_step();
            let gb = nets.g_params.bind(t);
            let fake = self.generate_flat(&nets, t, &gb, &zs);
            let fake2 = self.generate_flat(&nets, t, &gb, &zs2);
            let real = t.constant(flat_real.select_rows(&idx));
            let real2 = t.constant(flat_real.select_rows(&idx2));
            // Sinkhorn divergence: S(f, r) - 0.5 S(f, f') - 0.5 S(r, r')
            let s_fr = sinkhorn_cost(t, fake, real);
            let s_ff = sinkhorn_cost(t, fake, fake2);
            let s_rr = sinkhorn_cost(t, real, real2);
            let s_ff_h = t.scale(s_ff, -0.5);
            let s_rr_h = t.scale(s_rr, -0.5);
            let partial = t.add(s_fr, s_ff_h);
            let loss = t.add(partial, s_rr_h);
            t.backward(loss);
            nets.g_params.absorb_grads(t, &gb);
            nets.g_params.clip_grad_norm(5.0);
            opt.step(&mut nets.g_params);
            log.epoch(t.value(loss)[(0, 0)]);
        }

        self.dims = Some(FitDims::of(cfg));
        self.nets = Some(nets);
        log.finish(start)
    }

    fn generate(&self, n: usize, rng: &mut SmallRng) -> Tensor3 {
        self.decode(&self.draw(n, rng))
    }

    fn noise_decoder(&self) -> Option<&dyn NoiseDecoder> {
        Some(self)
    }

    fn save(&self) -> Option<Vec<u8>> {
        let nets = self.nets.as_ref()?;
        let dims = self.dims?;
        let mut w = SnapshotWriter::new(self.id(), self.seq_len, self.features);
        w.dim("hidden", dims.hidden);
        w.dim("latent", dims.latent);
        w.params("g", &nets.g_params);
        Some(w.finish())
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let mut r = SnapshotReader::open(self.id(), self.seq_len, self.features, bytes)?;
        let dims = FitDims {
            hidden: r.dim("hidden")?,
            latent: r.dim("latent")?,
        };
        let mut nets = self.build(&dims.config(), &mut seeded(0));
        r.params("g", &mut nets.g_params)?;
        r.finish()?;
        self.dims = Some(dims);
        self.nets = Some(nets);
        Ok(())
    }
}

impl NoiseDecoder for CotGan {
    /// One `(n, noise_dim)` matrix per time step.
    fn draw(&self, n: usize, rng: &mut SmallRng) -> Vec<Matrix> {
        let noise_dim = self.nets().noise_dim;
        (0..self.seq_len)
            .map(|_| noise(n, noise_dim, rng))
            .collect()
    }

    fn decode(&self, zs: &[Matrix]) -> Tensor3 {
        let nets = self.nets();
        let n = zs[0].rows();
        let mats: Vec<Matrix> = nets.tapes.run(&[&nets.g_params], |t, b| {
            let z_vars: Vec<VarId> = zs.iter().map(|z| t.constant_copy(z)).collect();
            let hs = nets.g_cell.run(t, &b[0], &z_vars, n);
            hs.iter()
                .map(|&h| {
                    let s = nets.g_head.forward_act(t, &b[0], h, Activation::Sigmoid);
                    t.value(s).clone()
                })
                .collect()
        });
        steps_to_tensor(&mats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;

    fn toy(r: usize, l: usize, n: usize) -> Tensor3 {
        Tensor3::from_fn(r, l, n, |s, t, f| {
            0.5 + 0.3 * ((t as f64) * 0.8 + (s % 3) as f64 + f as f64).cos()
        })
    }

    #[test]
    fn sinkhorn_divergence_of_identical_sets_is_near_zero() {
        let mut t = Tape::new();
        let x = t.constant(Matrix::from_fn(6, 4, |r, c| {
            ((r * 4 + c) as f64 * 0.37).sin()
        }));
        let s_xx = sinkhorn_cost(&mut t, x, x);
        // S(x,x) - 0.5 S(x,x) - 0.5 S(x,x) = 0 by construction; also
        // the raw self-cost must be small (mass on the diagonal)
        assert!(t.value(s_xx)[(0, 0)] < 1.0);
    }

    #[test]
    fn sinkhorn_cost_orders_by_distance() {
        let mut t = Tape::new();
        let x = t.constant(Matrix::full(5, 3, 0.0));
        let near = t.constant(Matrix::full(5, 3, 0.1));
        let far = t.constant(Matrix::full(5, 3, 2.0));
        let c_near = sinkhorn_cost(&mut t, x, near);
        let c_far = sinkhorn_cost(&mut t, x, far);
        assert!(
            t.value(c_near)[(0, 0)] < t.value(c_far)[(0, 0)],
            "nearer set must cost less"
        );
    }

    #[test]
    fn trains_and_generates() {
        let mut rng = seeded(131);
        let data = toy(20, 6, 2);
        let mut m = CotGan::new(6, 2);
        let cfg = TrainConfig {
            epochs: 5,
            hidden: 8,
            ..TrainConfig::fast()
        };
        let report = m.fit(&data, &cfg, &mut rng);
        assert_eq!(report.loss_history.len(), 5);
        assert!(report.loss_history.iter().all(|v| v.is_finite()));
        let g = m.generate(5, &mut rng);
        assert_eq!(g.shape(), (5, 6, 2));
        assert!(g.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn divergence_falls_with_training() {
        let mut rng = seeded(132);
        let data = toy(32, 6, 1);
        let mut m = CotGan::new(6, 1);
        let cfg = TrainConfig {
            epochs: 50,
            hidden: 8,
            lr: 4e-3,
            ..TrainConfig::fast()
        };
        let report = m.fit(&data, &cfg, &mut rng);
        let head: f64 = report.loss_history[..5].iter().sum::<f64>() / 5.0;
        let tail: f64 = report.loss_history[45..].iter().sum::<f64>() / 5.0;
        assert!(
            tail < head,
            "Sinkhorn divergence should fall: {head} -> {tail}"
        );
    }
}
