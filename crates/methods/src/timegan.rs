//! A2: TimeGAN (Yoon, Jarrett & van der Schaar, NeurIPS'19) — the de
//! facto benchmark model for TSG.
//!
//! Five networks share a learned latent space: an embedder `E` and
//! recovery `R` (an autoencoder over sequences), a generator `G`
//! producing latent trajectories from noise, a supervisor `S`
//! predicting the next latent step, and a discriminator `D` over
//! latent trajectories. Training follows the original three phases,
//! splitting the epoch budget evenly:
//!
//! 1. **autoencoding** — `E`/`R` minimize reconstruction MSE;
//! 2. **supervised** — `S` learns next-step latent dynamics on real
//!    embeddings;
//! 3. **joint** — alternating `D` (BCE real-vs-fake latents), `G`
//!    (adversarial + supervised + moment-matching on recovered data),
//!    and `E`/`R` (reconstruction, keeping the latent space useful).
//!
//! Reduced-scale deviations: one GRU layer per network instead of
//! three (paper §5), sequence-level discriminator logits, and the
//! moment loss uses first and second moments exactly as the original.

use crate::common::{
    copy_fakes, gather_step_matrices, minibatch, noise, steps_to_tensor, EpochLog, FitDims,
    MethodId, NoiseDecoder, TrainConfig, TrainReport, TsgMethod,
};
use crate::persist::{PersistError, SnapshotReader, SnapshotWriter};
use std::time::Instant;
use tsgb_linalg::rng::seeded;
use tsgb_linalg::{Matrix, Tensor3};
use tsgb_nn::layers::{Activation, GruCell, Linear};
use tsgb_nn::loss;
use tsgb_nn::optim::Adam;
use tsgb_nn::params::{Binding, Params};
use tsgb_nn::tape::{Tape, VarId};
use tsgb_nn::ResidentTapes;
use tsgb_rand::rngs::SmallRng;

/// A GRU with a per-step dense head.
struct RnnHead {
    cell: GruCell,
    head: Linear,
    sigmoid_out: bool,
}

impl RnnHead {
    fn new(
        p: &mut Params,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        sigmoid_out: bool,
        rng: &mut SmallRng,
    ) -> Self {
        Self {
            cell: GruCell::new(p, &format!("{name}.gru"), in_dim, hidden, rng),
            head: Linear::new(p, &format!("{name}.head"), hidden, out_dim, rng),
            sigmoid_out,
        }
    }

    /// Per-step outputs for per-step inputs.
    fn run(&self, t: &mut Tape, b: &Binding, xs: &[VarId], batch: usize) -> Vec<VarId> {
        let hs = self.cell.run(t, b, xs, batch);
        let act = if self.sigmoid_out {
            Activation::Sigmoid
        } else {
            Activation::None
        };
        hs.iter()
            .map(|&h| self.head.forward_act(t, b, h, act))
            .collect()
    }

    /// Final-state output only (discriminator logit).
    fn run_last(&self, t: &mut Tape, b: &Binding, xs: &[VarId], batch: usize) -> VarId {
        let hs = self.cell.run(t, b, xs, batch);
        self.head
            .forward(t, b, *hs.last().expect("non-empty sequence"))
    }
}

struct Nets {
    er_params: Params, // embedder + recovery
    s_params: Params,  // supervisor
    g_params: Params,  // generator
    d_params: Params,  // discriminator
    embedder: RnnHead,
    recovery: RnnHead,
    supervisor: RnnHead,
    generator: RnnHead,
    discriminator: RnnHead,
    noise_dim: usize,
    /// Sampling tapes with `er_params` and `g_params` bound.
    tapes: ResidentTapes,
}

/// The TimeGAN method.
pub struct TimeGan {
    seq_len: usize,
    features: usize,
    dims: Option<FitDims>,
    nets: Option<Nets>,
}

impl TimeGan {
    /// A new untrained TimeGAN for `(seq_len, features)` windows.
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
        let noise_dim = cfg.latent.max(2);
        let mut er_params = Params::new();
        let embedder = RnnHead::new(&mut er_params, "e", self.features, h, h, true, rng);
        let recovery = RnnHead::new(&mut er_params, "r", h, h, self.features, true, rng);
        let mut s_params = Params::new();
        let supervisor = RnnHead::new(&mut s_params, "s", h, h, h, true, rng);
        let mut g_params = Params::new();
        let generator = RnnHead::new(&mut g_params, "g", noise_dim, h, h, true, rng);
        let mut d_params = Params::new();
        let discriminator = RnnHead::new(&mut d_params, "d", h, h, 1, false, rng);
        Nets {
            er_params,
            s_params,
            g_params,
            d_params,
            embedder,
            recovery,
            supervisor,
            generator,
            discriminator,
            noise_dim,
            tapes: ResidentTapes::new(),
        }
    }

    fn nets(&self) -> &Nets {
        self.nets.as_ref().expect("TimeGAN sampled before fit")
    }
}

/// Differentiable per-feature moment loss between two step lists:
/// squared difference of column means plus column second moments.
fn moment_loss(t: &mut Tape, fake: &[VarId], real: &[VarId]) -> VarId {
    let fcat = t.concat_rows(fake);
    let rcat = t.concat_rows(real);
    let frows = t.shape(fcat).0;
    let avg = Matrix::full(1, frows, 1.0 / frows as f64);
    let rrows = t.shape(rcat).0;
    let ravg = Matrix::full(1, rrows, 1.0 / rrows as f64);
    let avg_c = t.constant(avg);
    let ravg_c = t.constant(ravg);
    let mf = t.matmul(avg_c, fcat); // (1, n) means
    let mr = t.matmul(ravg_c, rcat);
    let dmean = t.sub(mf, mr);
    let dmean2 = t.square(dmean);
    let l_mean = t.mean(dmean2);

    let f2 = t.square(fcat);
    let r2 = t.square(rcat);
    let sf = t.matmul(avg_c, f2);
    let sr = t.matmul(ravg_c, r2);
    let dvar = t.sub(sf, sr);
    let dvar2 = t.square(dvar);
    let l_var = t.mean(dvar2);
    t.add(l_mean, l_var)
}

impl TsgMethod for TimeGan {
    fn id(&self) -> MethodId {
        MethodId::TimeGan
    }

    fn fit(&mut self, train: &Tensor3, cfg: &TrainConfig, rng: &mut SmallRng) -> TrainReport {
        let start = Instant::now();
        let mut nets = self.build(cfg, rng);
        let (r, l, _) = train.shape();
        let mut er_opt = Adam::new(cfg.lr);
        let mut s_opt = Adam::new(cfg.lr);
        let mut g_opt = Adam::with_betas(cfg.lr, 0.5, 0.999);
        let mut d_opt = Adam::with_betas(cfg.lr, 0.5, 0.999);
        let phase = (cfg.epochs / 3).max(1);
        let mut log = EpochLog::new(self.id(), cfg.epochs);

        let mut ae_tape = Tape::new();
        let mut s_tape = Tape::new();
        let mut d_tape = Tape::new();
        let mut g_tape = Tape::new();
        let mut er_tape = Tape::new();

        // ---- phase 1: autoencoding ----
        for _ in 0..phase {
            let idx = minibatch(r, cfg.batch, rng);
            let steps = gather_step_matrices(train, &idx);
            let t = ae_tape.begin_step();
            let erb = nets.er_params.bind(t);
            let xs: Vec<VarId> = steps.iter().map(|m| t.constant_copy(m)).collect();
            let hs = nets.embedder.run(t, &erb, &xs, idx.len());
            let xh = nets.recovery.run(t, &erb, &hs, idx.len());
            let xh_cat = t.concat_rows(&xh);
            let target: Matrix = steps
                .iter()
                .fold(None::<Matrix>, |acc, m| {
                    Some(match acc {
                        None => m.clone(),
                        Some(a) => a.vcat(m),
                    })
                })
                .expect("non-empty");
            let rec = loss::mse_mean(t, xh_cat, &target);
            t.backward(rec);
            nets.er_params.absorb_grads(t, &erb);
            nets.er_params.clip_grad_norm(5.0);
            er_opt.step(&mut nets.er_params);
            log.epoch(t.value(rec)[(0, 0)]);
        }

        // ---- phase 2: supervised next-step dynamics ----
        for _ in 0..phase {
            let idx = minibatch(r, cfg.batch, rng);
            let steps = gather_step_matrices(train, &idx);
            let t = s_tape.begin_step();
            let erb = nets.er_params.bind_frozen(t);
            let sb = nets.s_params.bind(t);
            let xs: Vec<VarId> = steps.iter().map(|m| t.constant_copy(m)).collect();
            // E is frozen here, so S trains alone and the embeddings
            // carry no gradient
            let hs = nets.embedder.run(t, &erb, &xs, idx.len());
            let preds = nets.supervisor.run(t, &sb, &hs[..l - 1], idx.len());
            let pred_cat = t.concat_rows(&preds);
            // on-tape MSE against the next-step embeddings -- the op
            // sequence of `loss::mse_mean` with the target concatenated
            // on the tape instead of copied off it
            let target_cat = t.concat_rows(&hs[1..]);
            let d = t.sub(pred_cat, target_cat);
            let sq = t.square(d);
            let sup = t.mean(sq);
            t.backward(sup);
            nets.s_params.absorb_grads(t, &sb);
            nets.s_params.clip_grad_norm(5.0);
            s_opt.step(&mut nets.s_params);
            log.epoch(t.value(sup)[(0, 0)]);
        }

        // ---- phase 3: joint adversarial ----
        let joint = cfg.epochs.saturating_sub(2 * phase).max(1);
        for _ in 0..joint {
            let idx = minibatch(r, cfg.batch, rng);
            let batch = idx.len();
            let steps = gather_step_matrices(train, &idx);
            let zs: Vec<Matrix> = (0..l).map(|_| noise(batch, nets.noise_dim, rng)).collect();

            // the generator's forward pass, once for both steps
            let g = g_tape.begin_step();
            let gb = nets.g_params.bind(g);
            let z_vars: Vec<VarId> = zs.iter().map(|z| g.constant_copy(z)).collect();
            let h_fake = nets.generator.run(g, &gb, &z_vars, batch);

            // the real minibatch's embedding, once for the D step and
            // the E/R refresh: E and R change only at the refresh
            let er = er_tape.begin_step();
            let erb = nets.er_params.bind(er);
            let xs: Vec<VarId> = steps.iter().map(|m| er.constant_copy(m)).collect();
            let h_real = nets.embedder.run(er, &erb, &xs, batch);

            // D step
            {
                let t = d_tape.begin_step();
                let db = nets.d_params.bind(t);
                let h_real = copy_fakes(er, &h_real, t);
                let h_fake = copy_fakes(g, &h_fake, t);
                let real_logit = nets.discriminator.run_last(t, &db, &h_real, batch);
                let fake_logit = nets.discriminator.run_last(t, &db, &h_fake, batch);
                let d_loss = loss::gan_discriminator_loss(t, real_logit, fake_logit);
                t.backward(d_loss);
                nets.d_params.absorb_grads(t, &db);
                nets.d_params.clip_grad_norm(5.0);
                d_opt.step(&mut nets.d_params);
            }

            // G step: adversarial + supervised + moments on recovered data
            let g_loss_val = {
                let t = g;
                let erb = nets.er_params.bind_frozen(t);
                let sb = nets.s_params.bind_frozen(t);
                let db = nets.d_params.bind_frozen(t);
                let fake_logit = nets.discriminator.run_last(t, &db, &h_fake, batch);
                let adv = loss::gan_generator_loss(t, fake_logit);
                // supervised consistency of generated latents
                let preds = nets.supervisor.run(t, &sb, &h_fake[..l - 1], batch);
                let pred_cat = t.concat_rows(&preds);
                let next_cat = t.concat_rows(&h_fake[1..]);
                let d = t.sub(pred_cat, next_cat);
                let d2 = t.square(d);
                let sup = t.mean(d2);
                // moment matching on recovered series
                let x_fake = nets.recovery.run(t, &erb, &h_fake, batch);
                let xs_real: Vec<VarId> = steps.iter().map(|m| t.constant_copy(m)).collect();
                let mom = moment_loss(t, &x_fake, &xs_real);
                let sup_s = t.scale(sup, 10.0);
                let mom_s = t.scale(mom, 10.0);
                let partial = t.add(adv, sup_s);
                let g_loss = t.add(partial, mom_s);
                t.backward(g_loss);
                nets.g_params.absorb_grads(t, &gb);
                nets.g_params.clip_grad_norm(5.0);
                g_opt.step(&mut nets.g_params);
                t.value(g_loss)[(0, 0)]
            };

            // E/R refresh: keep the latent space reconstructive
            {
                let t = er;
                let xh = nets.recovery.run(t, &erb, &h_real, batch);
                let xh_cat = t.concat_rows(&xh);
                let target = steps
                    .iter()
                    .skip(1)
                    .fold(steps[0].clone(), |a, m| a.vcat(m));
                let rec = loss::mse_mean(t, xh_cat, &target);
                t.backward(rec);
                nets.er_params.absorb_grads(t, &erb);
                nets.er_params.clip_grad_norm(5.0);
                er_opt.step(&mut nets.er_params);
            }
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
        w.params("er", &nets.er_params);
        w.params("s", &nets.s_params);
        w.params("g", &nets.g_params);
        w.params("d", &nets.d_params);
        Some(w.finish())
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let mut r = SnapshotReader::open(self.id(), self.seq_len, self.features, bytes)?;
        let dims = FitDims {
            hidden: r.dim("hidden")?,
            latent: r.dim("latent")?,
        };
        let mut nets = self.build(&dims.config(), &mut seeded(0));
        r.params("er", &mut nets.er_params)?;
        r.params("s", &mut nets.s_params)?;
        r.params("g", &mut nets.g_params)?;
        r.params("d", &mut nets.d_params)?;
        r.finish()?;
        self.dims = Some(dims);
        self.nets = Some(nets);
        Ok(())
    }
}

impl NoiseDecoder for TimeGan {
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
        let stores = [&nets.er_params, &nets.g_params];
        let mats: Vec<Matrix> = nets.tapes.run(&stores, |t, b| {
            let (erb, gb) = (&b[0], &b[1]);
            let z_vars: Vec<VarId> = zs.iter().map(|z| t.constant_copy(z)).collect();
            let h_fake = nets.generator.run(t, gb, &z_vars, n);
            let x_fake = nets.recovery.run(t, erb, &h_fake, n);
            x_fake.iter().map(|&s| t.value(s).clone()).collect()
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
            0.5 + 0.4 * ((t as f64) * 0.8 + (s % 5) as f64 + f as f64).sin()
        })
    }

    #[test]
    fn three_phase_training_runs() {
        let mut rng = seeded(21);
        let data = toy_data(20, 6, 2);
        let mut m = TimeGan::new(6, 2);
        let cfg = TrainConfig {
            epochs: 9,
            hidden: 8,
            ..TrainConfig::fast()
        };
        let report = m.fit(&data, &cfg, &mut rng);
        assert_eq!(report.loss_history.len(), 9);
        let gen = m.generate(5, &mut rng);
        assert_eq!(gen.shape(), (5, 6, 2));
        assert!(gen.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn autoencoder_phase_reduces_reconstruction_loss() {
        let mut rng = seeded(22);
        let data = toy_data(32, 6, 2);
        let mut m = TimeGan::new(6, 2);
        // all-phase-1 budget is epochs/3; use a larger budget to watch
        // the first-phase trajectory
        let cfg = TrainConfig {
            epochs: 60,
            hidden: 8,
            lr: 5e-3,
            ..TrainConfig::fast()
        };
        let report = m.fit(&data, &cfg, &mut rng);
        let phase1 = &report.loss_history[..20];
        let head: f64 = phase1[..5].iter().sum::<f64>() / 5.0;
        let tail: f64 = phase1[15..].iter().sum::<f64>() / 5.0;
        assert!(
            tail < head,
            "reconstruction loss must fall: {head} -> {tail}"
        );
    }
}
