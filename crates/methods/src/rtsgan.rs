//! A3: RTSGAN (Pei et al., ICDM'21) — autoencoder + WGAN on the
//! latent space.
//!
//! RTSGAN first trains a sequence autoencoder that compresses each
//! window into a fixed-length latent vector, then trains a Wasserstein
//! GAN whose generator produces latents and whose critic scores them;
//! generation decodes critic-approved latents back to sequences. This
//! "complete time series generation" mode is the configuration the
//! paper's §5 uses (`beta_1 = 0.9`, `beta_2 = 0.999`).
//!
//! Reduced-scale deviation: the critic is constrained with weight
//! clipping (original WGAN) rather than gradient penalty — the penalty
//! needs second-order gradients our tape intentionally does not
//! implement; clipping enforces the same Lipschitz constraint.

use crate::common::{
    gather_step_matrices, minibatch, noise, steps_to_tensor, EpochLog, FitDims, MethodId,
    NoiseDecoder, TrainConfig, TrainReport, TsgMethod,
};
use crate::persist::{PersistError, SnapshotReader, SnapshotWriter};
use std::time::Instant;
use tsgb_linalg::rng::seeded;
use tsgb_linalg::{Matrix, Tensor3};
use tsgb_nn::layers::{Activation, GruCell, Linear, Mlp};
use tsgb_nn::loss;
use tsgb_nn::optim::Adam;
use tsgb_nn::params::{Binding, Params};
use tsgb_nn::tape::{Tape, VarId};
use tsgb_nn::ResidentTapes;
use tsgb_rand::rngs::SmallRng;

struct Nets {
    ae_params: Params,
    gen_params: Params,
    critic_params: Params,
    encoder: GruCell,
    enc_head: Linear,
    dec_cell: GruCell,
    dec_head: Linear,
    generator: Mlp,
    critic: Mlp,
    noise_dim: usize,
    /// Sampling tapes with `ae_params` and `gen_params` bound.
    tapes: ResidentTapes,
}

/// The RTSGAN method.
pub struct RtsGan {
    seq_len: usize,
    features: usize,
    dims: Option<FitDims>,
    nets: Option<Nets>,
}

impl RtsGan {
    /// A new untrained RTSGAN for `(seq_len, features)` windows.
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
        let latent = cfg.latent.max(2);
        let noise_dim = latent;
        let mut ae_params = Params::new();
        let encoder = GruCell::new(&mut ae_params, "enc.gru", self.features, h, rng);
        let enc_head = Linear::new(&mut ae_params, "enc.head", h, latent, rng);
        // decoder consumes the latent at every step
        let dec_cell = GruCell::new(&mut ae_params, "dec.gru", latent, h, rng);
        let dec_head = Linear::new(&mut ae_params, "dec.head", h, self.features, rng);
        let mut gen_params = Params::new();
        let generator = Mlp::new(
            &mut gen_params,
            "wgen",
            &[noise_dim, h, latent],
            Activation::Relu,
            Activation::Tanh,
            rng,
        );
        let mut critic_params = Params::new();
        let critic = Mlp::new(
            &mut critic_params,
            "critic",
            &[latent, h, 1],
            Activation::LeakyRelu,
            Activation::None,
            rng,
        );
        Nets {
            ae_params,
            gen_params,
            critic_params,
            encoder,
            enc_head,
            dec_cell,
            dec_head,
            generator,
            critic,
            noise_dim,
            tapes: ResidentTapes::new(),
        }
    }

    fn nets(&self) -> &Nets {
        self.nets.as_ref().expect("RTSGAN sampled before fit")
    }
}

/// Encodes per-step inputs to a `(batch, latent)` tanh latent.
fn encode(nets: &Nets, t: &mut Tape, b: &Binding, xs: &[VarId], batch: usize) -> VarId {
    let hs = nets.encoder.run(t, b, xs, batch);
    let last = *hs.last().expect("non-empty");
    nets.enc_head.forward_act(t, b, last, Activation::Tanh)
}

/// Decodes a latent to per-step sigmoid outputs by feeding it to the
/// decoder GRU at every step.
fn decode(
    nets: &Nets,
    t: &mut Tape,
    b: &Binding,
    z: VarId,
    seq_len: usize,
    batch: usize,
) -> Vec<VarId> {
    let zs: Vec<VarId> = (0..seq_len).map(|_| z).collect();
    let hs = nets.dec_cell.run(t, b, &zs, batch);
    hs.iter()
        .map(|&h| nets.dec_head.forward_act(t, b, h, Activation::Sigmoid))
        .collect()
}

impl TsgMethod for RtsGan {
    fn id(&self) -> MethodId {
        MethodId::RtsGan
    }

    fn fit(&mut self, train: &Tensor3, cfg: &TrainConfig, rng: &mut SmallRng) -> TrainReport {
        let start = Instant::now();
        let mut nets = self.build(cfg, rng);
        let (r, l, _) = train.shape();
        let mut ae_opt = Adam::with_betas(cfg.lr, 0.9, 0.999);
        let mut g_opt = Adam::with_betas(cfg.lr, 0.9, 0.999);
        let mut c_opt = Adam::with_betas(cfg.lr, 0.9, 0.999);
        let ae_epochs = (cfg.epochs / 2).max(1);
        let gan_epochs = cfg.epochs.saturating_sub(ae_epochs).max(1);
        let mut log = EpochLog::new(self.id(), cfg.epochs);

        let mut ae_tape = Tape::new();
        let mut c_tape = Tape::new();
        let mut g_tape = Tape::new();

        // ---- stage 1: sequence autoencoder ----
        for _ in 0..ae_epochs {
            let idx = minibatch(r, cfg.batch, rng);
            let steps = gather_step_matrices(train, &idx);
            let t = ae_tape.begin_step();
            let ab = nets.ae_params.bind(t);
            let xs: Vec<VarId> = steps.iter().map(|m| t.constant_copy(m)).collect();
            let z = encode(&nets, t, &ab, &xs, idx.len());
            let xh = decode(&nets, t, &ab, z, l, idx.len());
            let xh_cat = t.concat_rows(&xh);
            let target = steps
                .iter()
                .skip(1)
                .fold(steps[0].clone(), |a, m| a.vcat(m));
            let rec = loss::mse_mean(t, xh_cat, &target);
            t.backward(rec);
            nets.ae_params.absorb_grads(t, &ab);
            nets.ae_params.clip_grad_norm(5.0);
            ae_opt.step(&mut nets.ae_params);
            log.epoch(t.value(rec)[(0, 0)]);
        }

        // ---- stage 2: WGAN on latents (critic 3 steps per G step) ----
        for _ in 0..gan_epochs {
            for _ in 0..3 {
                let idx = minibatch(r, cfg.batch, rng);
                let steps = gather_step_matrices(train, &idx);
                let t = c_tape.begin_step();
                let ab = nets.ae_params.bind_frozen(t);
                let gb = nets.gen_params.bind_frozen(t);
                let cb = nets.critic_params.bind(t);
                let xs: Vec<VarId> = steps.iter().map(|m| t.constant_copy(m)).collect();
                let z_real = encode(&nets, t, &ab, &xs, idx.len());
                let noise_m = noise(idx.len(), nets.noise_dim, rng);
                let nz = t.constant(noise_m);
                let z_fake = nets.generator.forward(t, &gb, nz);
                let s_real = nets.critic.forward(t, &cb, z_real);
                let s_fake = nets.critic.forward(t, &cb, z_fake);
                let c_loss = loss::wgan_critic_loss(t, s_real, s_fake);
                t.backward(c_loss);
                nets.critic_params.absorb_grads(t, &cb);
                c_opt.step(&mut nets.critic_params);
                nets.critic_params.clip_values(0.05);
            }
            // generator step
            let g_loss_val = {
                let t = g_tape.begin_step();
                let gb = nets.gen_params.bind(t);
                let cb = nets.critic_params.bind_frozen(t);
                let noise_m = noise(cfg.batch.min(r), nets.noise_dim, rng);
                let nz = t.constant(noise_m);
                let z_fake = nets.generator.forward(t, &gb, nz);
                let s_fake = nets.critic.forward(t, &cb, z_fake);
                let g_loss = loss::wgan_generator_loss(t, s_fake);
                t.backward(g_loss);
                nets.gen_params.absorb_grads(t, &gb);
                nets.gen_params.clip_grad_norm(5.0);
                g_opt.step(&mut nets.gen_params);
                t.value(g_loss)[(0, 0)]
            };
            log.epoch(g_loss_val);
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
        w.params("ae", &nets.ae_params);
        w.params("gen", &nets.gen_params);
        w.params("critic", &nets.critic_params);
        Some(w.finish())
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let mut r = SnapshotReader::open(self.id(), self.seq_len, self.features, bytes)?;
        let dims = FitDims {
            hidden: r.dim("hidden")?,
            latent: r.dim("latent")?,
        };
        let mut nets = self.build(&dims.config(), &mut seeded(0));
        r.params("ae", &mut nets.ae_params)?;
        r.params("gen", &mut nets.gen_params)?;
        r.params("critic", &mut nets.critic_params)?;
        r.finish()?;
        self.dims = Some(dims);
        self.nets = Some(nets);
        Ok(())
    }
}

impl NoiseDecoder for RtsGan {
    /// One `(n, noise_dim)` matrix for the latent generator.
    fn draw(&self, n: usize, rng: &mut SmallRng) -> Vec<Matrix> {
        vec![noise(n, self.nets().noise_dim, rng)]
    }

    fn decode(&self, zs: &[Matrix]) -> Tensor3 {
        let nets = self.nets();
        let stores = [&nets.ae_params, &nets.gen_params];
        let mats: Vec<Matrix> = nets.tapes.run(&stores, |t, b| {
            let (ab, gb) = (&b[0], &b[1]);
            let nz = t.constant_copy(&zs[0]);
            let z = nets.generator.forward(t, gb, nz);
            let steps = decode(nets, t, ab, z, self.seq_len, zs[0].rows());
            steps.iter().map(|&s| t.value(s).clone()).collect()
        });
        steps_to_tensor(&mats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;

    fn toy_data(r: usize, l: usize, n: usize) -> Tensor3 {
        Tensor3::from_fn(r, l, n, |s, t, f| {
            0.5 + 0.35 * ((t as f64) * 0.9 + (s % 4) as f64 * 1.3 + f as f64).cos()
        })
    }

    #[test]
    fn ae_then_wgan_trains() {
        let mut rng = seeded(31);
        let data = toy_data(24, 6, 2);
        let mut m = RtsGan::new(6, 2);
        let cfg = TrainConfig {
            epochs: 10,
            hidden: 8,
            ..TrainConfig::fast()
        };
        let report = m.fit(&data, &cfg, &mut rng);
        assert_eq!(report.loss_history.len(), 10);
        let gen = m.generate(6, &mut rng);
        assert_eq!(gen.shape(), (6, 6, 2));
        assert!(gen.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn autoencoder_learns() {
        let mut rng = seeded(32);
        let data = toy_data(32, 6, 2);
        let mut m = RtsGan::new(6, 2);
        let cfg = TrainConfig {
            epochs: 80,
            hidden: 12,
            lr: 5e-3,
            ..TrainConfig::fast()
        };
        let report = m.fit(&data, &cfg, &mut rng);
        // first half of history is AE reconstruction loss
        let ae = &report.loss_history[..40];
        assert!(
            ae[35..].iter().sum::<f64>() < ae[..5].iter().sum::<f64>(),
            "AE loss should fall: {:?} -> {:?}",
            &ae[..3],
            &ae[37..]
        );
    }

    #[test]
    fn critic_weights_stay_clipped() {
        let mut rng = seeded(33);
        let data = toy_data(16, 5, 2);
        let mut m = RtsGan::new(5, 2);
        let cfg = TrainConfig {
            epochs: 6,
            hidden: 8,
            ..TrainConfig::fast()
        };
        m.fit(&data, &cfg, &mut rng);
        let nets = m.nets.as_ref().unwrap();
        for id in nets.critic_params.ids() {
            let v = nets.critic_params.value(id);
            assert!(v.as_slice().iter().all(|&x| x.abs() <= 0.05 + 1e-12));
        }
    }
}
