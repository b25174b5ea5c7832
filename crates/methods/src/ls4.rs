//! A10: LS4 (Zhou et al., ICML'23) — deep latent state-space models
//! for TSG.
//!
//! LS4 is a VAE whose encoder and decoder are stacks of linear
//! state-space (S4-family) layers with stochastic latent variables.
//! We reproduce the architecture with diagonal SSM layers:
//!
//! * an `SsmLayer` carries a per-unit decay `a = sigmoid(lambda)`
//!   (stable by construction), input matrix `B`, read-out `C` and
//!   skip `D`: `s_t = a ⊙ s_{t-1} + x_t B`, `y_t = tanh(s_t C + x_t D)`;
//! * the encoder runs two stacked SSM layers over the window and maps
//!   the last state to the Gaussian posterior `(mu, logvar)`;
//! * the decoder seeds the SSM state from the latent `z` and rolls it
//!   out autonomously (constant latent-derived input), emitting each
//!   observation through a sigmoid head;
//! * training maximizes the ELBO, like the paper's VAE objective.
//!
//! The paper's §5 latent dimension of 5 corresponds to
//! `TrainConfig::latent`; its large batch sizes are scaled with the
//! rest of the CPU profile.

use crate::common::{
    gather_step_matrices, minibatch, EpochLog, FitDims, MethodId, NoiseDecoder, TrainConfig,
    TrainReport, TsgMethod,
};
use crate::persist::{PersistError, SnapshotReader, SnapshotWriter};
use std::time::Instant;
use tsgb_linalg::rng::{randn_matrix, seeded};
use tsgb_linalg::{Matrix, Tensor3};
use tsgb_nn::init;
use tsgb_nn::layers::{Activation, Linear};
use tsgb_nn::loss;
use tsgb_nn::optim::Adam;
use tsgb_nn::params::{Binding, ParamId, Params};
use tsgb_nn::tape::{Tape, VarId};
use tsgb_nn::ResidentTapes;
use tsgb_rand::rngs::SmallRng;

/// A diagonal linear state-space layer.
struct SsmLayer {
    /// Pre-sigmoid decay parameters, `1 x state_dim`.
    lambda: ParamId,
    b: Linear,
    c: Linear,
    d: Linear,
    state_dim: usize,
}

impl SsmLayer {
    fn new(
        p: &mut Params,
        name: &str,
        in_dim: usize,
        state_dim: usize,
        out_dim: usize,
        rng: &mut SmallRng,
    ) -> Self {
        // initialize decays near 1 (long memory), like S4's HiPPO-ish init
        let lambda = p.register(
            format!("{name}.lambda"),
            init::scaled_normal(1, state_dim, 0.5, rng).map(|x| x + 2.0),
        );
        let b = Linear::new(p, &format!("{name}.B"), in_dim, state_dim, rng);
        let c = Linear::new(p, &format!("{name}.C"), state_dim, out_dim, rng);
        let d = Linear::new(p, &format!("{name}.D"), in_dim, out_dim, rng);
        Self {
            lambda,
            b,
            c,
            d,
            state_dim,
        }
    }

    /// Runs the layer over per-step inputs; returns `(outputs, last state)`.
    fn run(
        &self,
        t: &mut Tape,
        bind: &Binding,
        xs: &[VarId],
        batch: usize,
        init_state: Option<VarId>,
    ) -> (Vec<VarId>, VarId) {
        let a = t.sigmoid(bind.var(self.lambda)); // (1, state_dim) in (0,1)
        let mut s = init_state.unwrap_or_else(|| t.constant(Matrix::zeros(batch, self.state_dim)));
        let mut out = Vec::with_capacity(xs.len());
        for &x in xs {
            let decayed = t.mul_row_broadcast(s, a);
            let driven = self.b.forward(t, bind, x);
            s = t.add(decayed, driven);
            let read = self.c.forward(t, bind, s);
            let skip = self.d.forward(t, bind, x);
            let sum = t.add(read, skip);
            out.push(t.tanh(sum));
        }
        (out, s)
    }
}

struct Nets {
    params: Params,
    enc1: SsmLayer,
    enc2: SsmLayer,
    mu_head: Linear,
    logvar_head: Linear,
    z_to_state: Linear,
    z_to_input: Linear,
    dec1: SsmLayer,
    dec2: SsmLayer,
    out_head: Linear,
    latent: usize,
    /// Sampling tapes with `params` bound.
    tapes: ResidentTapes,
}

/// The LS4 method.
pub struct Ls4 {
    seq_len: usize,
    features: usize,
    dims: Option<FitDims>,
    nets: Option<Nets>,
}

impl Ls4 {
    /// A new untrained LS4 for `(seq_len, features)` windows.
    pub fn new(seq_len: usize, features: usize) -> Self {
        Self {
            seq_len,
            features,
            dims: None,
            nets: None,
        }
    }

    fn build(&self, cfg: &TrainConfig, rng: &mut SmallRng) -> Nets {
        let h = cfg.hidden;
        // paper §5 sets the latent dimension to 5
        let latent = cfg.latent.clamp(2, 8);
        let mut params = Params::new();
        let enc1 = SsmLayer::new(&mut params, "enc1", self.features, h, h, rng);
        let enc2 = SsmLayer::new(&mut params, "enc2", h, h, h, rng);
        let mu_head = Linear::new(&mut params, "mu", h, latent, rng);
        let logvar_head = Linear::new(&mut params, "logvar", h, latent, rng);
        let z_to_state = Linear::new(&mut params, "z2s", latent, h, rng);
        let z_to_input = Linear::new(&mut params, "z2u", latent, h, rng);
        let dec1 = SsmLayer::new(&mut params, "dec1", h, h, h, rng);
        let dec2 = SsmLayer::new(&mut params, "dec2", h, h, h, rng);
        let out_head = Linear::new(&mut params, "out", h, self.features, rng);
        Nets {
            params,
            enc1,
            enc2,
            mu_head,
            logvar_head,
            z_to_state,
            z_to_input,
            dec1,
            dec2,
            out_head,
            latent,
            tapes: ResidentTapes::new(),
        }
    }

    fn nets(&self) -> &Nets {
        self.nets.as_ref().expect("LS4 sampled before fit")
    }
}

/// Decodes a latent batch into per-step sigmoid outputs.
fn decode(nets: &Nets, t: &mut Tape, b: &Binding, z: VarId, seq_len: usize) -> Vec<VarId> {
    let s0 = nets.z_to_state.forward_act(t, b, z, Activation::Tanh);
    let u = nets.z_to_input.forward_act(t, b, z, Activation::Tanh);
    let us: Vec<VarId> = (0..seq_len).map(|_| u).collect();
    let (y1, _) = nets.dec1.run(t, b, &us, t.shape(z).0, Some(s0));
    let (y2, _) = nets.dec2.run(t, b, &y1, t.shape(z).0, None);
    y2.iter()
        .map(|&y| nets.out_head.forward_act(t, b, y, Activation::Sigmoid))
        .collect()
}

impl TsgMethod for Ls4 {
    fn id(&self) -> MethodId {
        MethodId::Ls4
    }

    fn fit(&mut self, train: &Tensor3, cfg: &TrainConfig, rng: &mut SmallRng) -> TrainReport {
        let start = Instant::now();
        let mut nets = self.build(cfg, rng);
        let (r, l, _) = train.shape();
        let mut opt = Adam::new(cfg.lr);
        let mut log = EpochLog::new(self.id(), cfg.epochs);
        let recon_weight = (self.seq_len * self.features) as f64;

        let mut tape = Tape::new();
        for _ in 0..cfg.epochs {
            let idx = minibatch(r, cfg.batch, rng);
            let batch = idx.len();
            let steps = gather_step_matrices(train, &idx);
            let t = tape.begin_step();
            let b = nets.params.bind(t);
            let xs: Vec<VarId> = steps.iter().map(|m| t.constant_copy(m)).collect();
            let (h1, _) = nets.enc1.run(t, &b, &xs, batch, None);
            let (_, last) = nets.enc2.run(t, &b, &h1, batch, None);
            let mu = nets.mu_head.forward(t, &b, last);
            let logvar = nets.logvar_head.forward(t, &b, last);
            let eps = t.constant(randn_matrix(batch, nets.latent, rng));
            let half = t.scale(logvar, 0.5);
            let std = t.exp(half);
            let noise = t.mul(eps, std);
            let z = t.add(mu, noise);
            let recon = decode(&nets, t, &b, z, l);
            let rcat = t.concat_rows(&recon);
            let target = steps
                .iter()
                .skip(1)
                .fold(steps[0].clone(), |a, m| a.vcat(m));
            let rec = loss::mse_mean(t, rcat, &target);
            let rec_s = t.scale(rec, recon_weight);
            let kl = loss::gaussian_kl_mean(t, mu, logvar);
            let elbo = t.add(rec_s, kl);
            t.backward(elbo);
            nets.params.absorb_grads(t, &b);
            nets.params.clip_grad_norm(5.0);
            opt.step(&mut nets.params);
            log.epoch(t.value(elbo)[(0, 0)]);
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
        w.params("ls4", &nets.params);
        Some(w.finish())
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let mut r = SnapshotReader::open(self.id(), self.seq_len, self.features, bytes)?;
        let dims = FitDims {
            hidden: r.dim("hidden")?,
            latent: r.dim("latent")?,
        };
        let mut nets = self.build(&dims.config(), &mut seeded(0));
        r.params("ls4", &mut nets.params)?;
        r.finish()?;
        self.dims = Some(dims);
        self.nets = Some(nets);
        Ok(())
    }
}

impl NoiseDecoder for Ls4 {
    /// One `(n, latent)` matrix of standard normals.
    fn draw(&self, n: usize, rng: &mut SmallRng) -> Vec<Matrix> {
        vec![randn_matrix(n, self.nets().latent, rng)]
    }

    fn decode(&self, zs: &[Matrix]) -> Tensor3 {
        let nets = self.nets();
        let mats: Vec<Matrix> = nets.tapes.run(&[&nets.params], |t, b| {
            let z = t.constant_copy(&zs[0]);
            let steps = decode(nets, t, &b[0], z, self.seq_len);
            steps.iter().map(|&s| t.value(s).clone()).collect()
        });
        crate::common::steps_to_tensor(&mats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;

    fn toy_data(r: usize, l: usize, n: usize) -> Tensor3 {
        Tensor3::from_fn(r, l, n, |s, t, f| {
            0.5 + 0.3 * ((-0.05 * t as f64).exp() * ((t + s) as f64 * 0.8 + f as f64).sin())
        })
    }

    #[test]
    fn elbo_decreases() {
        let mut rng = seeded(101);
        let data = toy_data(32, 10, 2);
        let mut m = Ls4::new(10, 2);
        let cfg = TrainConfig {
            epochs: 80,
            lr: 3e-3,
            ..TrainConfig::fast()
        };
        let report = m.fit(&data, &cfg, &mut rng);
        let head: f64 = report.loss_history[..5].iter().sum::<f64>() / 5.0;
        let tail: f64 = report.loss_history[75..].iter().sum::<f64>() / 5.0;
        assert!(tail < head, "ELBO should fall: {head} -> {tail}");
    }

    #[test]
    fn generates_bounded_windows() {
        let mut rng = seeded(102);
        let data = toy_data(16, 8, 3);
        let mut m = Ls4::new(8, 3);
        let cfg = TrainConfig {
            epochs: 8,
            ..TrainConfig::fast()
        };
        m.fit(&data, &cfg, &mut rng);
        let gen = m.generate(6, &mut rng);
        assert_eq!(gen.shape(), (6, 8, 3));
        assert!(gen.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn ssm_decay_stays_in_unit_interval() {
        let mut rng = seeded(103);
        let data = toy_data(12, 6, 1);
        let mut m = Ls4::new(6, 1);
        let cfg = TrainConfig {
            epochs: 10,
            ..TrainConfig::fast()
        };
        m.fit(&data, &cfg, &mut rng);
        // sigmoid(lambda) in (0, 1) by construction; check lambda finite
        let nets = m.nets.as_ref().unwrap();
        for id in nets.params.ids() {
            assert!(nets.params.value(id).all_finite());
        }
    }

    #[test]
    fn distinct_latents_give_distinct_windows() {
        let mut rng = seeded(104);
        let data = toy_data(16, 8, 1);
        let mut m = Ls4::new(8, 1);
        let cfg = TrainConfig {
            epochs: 20,
            ..TrainConfig::fast()
        };
        m.fit(&data, &cfg, &mut rng);
        let gen = m.generate(8, &mut rng);
        // at least two samples should differ meaningfully
        let a = gen.series(0, 0);
        let mut max_diff = 0.0f64;
        for s in 1..8 {
            let b = gen.series(s, 0);
            let d: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
            max_diff = max_diff.max(d);
        }
        assert!(max_diff > 1e-4, "decoder ignores the latent: {max_diff}");
    }
}
