//! Extension: C-RNN-GAN (Mogren, 2016) — the earliest recurrent GAN
//! for sequential data (paper Table 2, row 1).
//!
//! The original generates music with an LSTM generator whose input at
//! each step is fresh noise *concatenated with its previous output*
//! (autoregressive feedback), and an LSTM discriminator producing
//! per-step logits that are averaged. We reproduce exactly that
//! structure (the original's bidirectional discriminator is run
//! forward-only at reduced scale — documented deviation).

use crate::common::{
    copy_fakes, gather_step_matrices, minibatch, noise, steps_to_tensor, EpochLog, FitDims,
    MethodId, NoiseDecoder, TrainConfig, TrainReport, TsgMethod,
};
use crate::persist::{PersistError, SnapshotReader, SnapshotWriter};
use std::time::Instant;
use tsgb_linalg::rng::seeded;
use tsgb_linalg::{Matrix, Tensor3};
use tsgb_nn::layers::{Activation, Linear, LstmCell};
use tsgb_nn::loss;
use tsgb_nn::optim::Adam;
use tsgb_nn::params::{Binding, Params};
use tsgb_nn::tape::{Tape, VarId};
use tsgb_nn::ResidentTapes;
use tsgb_rand::rngs::SmallRng;

struct Nets {
    g_params: Params,
    d_params: Params,
    g_cell: LstmCell,
    g_head: Linear,
    d_cell: LstmCell,
    d_head: Linear,
    noise_dim: usize,
    /// Sampling tapes with `g_params` bound.
    tapes: ResidentTapes,
}

/// The C-RNN-GAN extension method.
pub struct CRnnGan {
    seq_len: usize,
    features: usize,
    dims: Option<FitDims>,
    nets: Option<Nets>,
}

impl CRnnGan {
    /// A new untrained C-RNN-GAN for `(seq_len, features)` windows.
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
        // generator input: noise ++ previous output (autoregressive)
        let g_cell = LstmCell::new(
            &mut g_params,
            "g.lstm",
            noise_dim + self.features,
            cfg.hidden,
            rng,
        );
        let g_head = Linear::new(&mut g_params, "g.head", cfg.hidden, self.features, rng);
        let mut d_params = Params::new();
        let d_cell = LstmCell::new(&mut d_params, "d.lstm", self.features, cfg.hidden, rng);
        let d_head = Linear::new(&mut d_params, "d.head", cfg.hidden, 1, rng);
        Nets {
            g_params,
            d_params,
            g_cell,
            g_head,
            d_cell,
            d_head,
            noise_dim,
            tapes: ResidentTapes::new(),
        }
    }

    /// Autoregressive generator rollout.
    fn generate_steps(&self, nets: &Nets, t: &mut Tape, gb: &Binding, zs: &[Matrix]) -> Vec<VarId> {
        let batch = zs[0].rows();
        let mut h = t.constant(Matrix::zeros(batch, nets.g_cell.hidden_dim));
        let mut c = t.constant(Matrix::zeros(batch, nets.g_cell.hidden_dim));
        let mut prev = t.constant(Matrix::full(batch, self.features, 0.5));
        let mut out = Vec::with_capacity(self.seq_len);
        for z in zs {
            let zv = t.constant(z.clone());
            let inp = t.concat_cols(&[zv, prev]);
            let (h2, c2) = nets.g_cell.step(t, gb, inp, h, c);
            h = h2;
            c = c2;
            prev = nets.g_head.forward_act(t, gb, h, Activation::Sigmoid);
            out.push(prev);
        }
        out
    }

    /// Per-step discriminator logits averaged over time.
    fn discriminate(
        &self,
        nets: &Nets,
        t: &mut Tape,
        db: &Binding,
        steps: &[VarId],
        batch: usize,
    ) -> VarId {
        let _ = batch;
        let hs = nets.d_cell.run(t, db, steps, batch);
        let logits: Vec<VarId> = hs.iter().map(|&h| nets.d_head.forward(t, db, h)).collect();
        // per-sample logit = mean of the per-step logits (the
        // original's per-step decisions, averaged)
        let mut acc = logits[0];
        for &l in &logits[1..] {
            acc = t.add(acc, l);
        }
        t.scale(acc, 1.0 / logits.len() as f64)
    }

    fn nets(&self) -> &Nets {
        self.nets.as_ref().expect("C-RNN-GAN sampled before fit")
    }
}

impl TsgMethod for CRnnGan {
    fn id(&self) -> MethodId {
        MethodId::CRnnGan
    }

    fn fit(&mut self, train: &Tensor3, cfg: &TrainConfig, rng: &mut SmallRng) -> TrainReport {
        let start = Instant::now();
        let mut nets = self.build(cfg, rng);
        let (r, l, _) = train.shape();
        let mut g_opt = Adam::with_betas(cfg.lr, 0.5, 0.999);
        let mut d_opt = Adam::with_betas(cfg.lr, 0.5, 0.999);
        let mut log = EpochLog::new(self.id(), cfg.epochs);

        let mut d_tape = Tape::new();
        let mut g_tape = Tape::new();
        for _ in 0..cfg.epochs {
            let idx = minibatch(r, cfg.batch, rng);
            let batch = idx.len();
            let real_steps = gather_step_matrices(train, &idx);
            let zs: Vec<Matrix> = (0..l).map(|_| noise(batch, nets.noise_dim, rng)).collect();

            // the generator's forward pass, once for both steps
            let g = g_tape.begin_step();
            let gb = nets.g_params.bind(g);
            let fake = self.generate_steps(&nets, g, &gb, &zs);

            // D step
            {
                let t = d_tape.begin_step();
                let db = nets.d_params.bind(t);
                let fake = copy_fakes(g, &fake, t);
                let real: Vec<VarId> = real_steps.iter().map(|m| t.constant_copy(m)).collect();
                let rl = self.discriminate(&nets, t, &db, &real, batch);
                let fl = self.discriminate(&nets, t, &db, &fake, batch);
                let d_loss = loss::gan_discriminator_loss(t, rl, fl);
                t.backward(d_loss);
                nets.d_params.absorb_grads(t, &db);
                nets.d_params.clip_grad_norm(5.0);
                d_opt.step(&mut nets.d_params);
            }

            // G step
            let g_loss_val = {
                let t = g;
                let db = nets.d_params.bind_frozen(t);
                let fl = self.discriminate(&nets, t, &db, &fake, batch);
                let g_loss = loss::gan_generator_loss(t, fl);
                t.backward(g_loss);
                nets.g_params.absorb_grads(t, &gb);
                nets.g_params.clip_grad_norm(5.0);
                g_opt.step(&mut nets.g_params);
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
        r.params("g", &mut nets.g_params)?;
        r.params("d", &mut nets.d_params)?;
        r.finish()?;
        self.dims = Some(dims);
        self.nets = Some(nets);
        Ok(())
    }
}

impl NoiseDecoder for CRnnGan {
    /// One `(n, noise_dim)` matrix per time step.
    fn draw(&self, n: usize, rng: &mut SmallRng) -> Vec<Matrix> {
        let noise_dim = self.nets().noise_dim;
        (0..self.seq_len)
            .map(|_| noise(n, noise_dim, rng))
            .collect()
    }

    fn decode(&self, zs: &[Matrix]) -> Tensor3 {
        let nets = self.nets();
        let mats: Vec<Matrix> = nets.tapes.run(&[&nets.g_params], |t, b| {
            let steps = self.generate_steps(nets, t, &b[0], zs);
            steps.iter().map(|&s| t.value(s).clone()).collect()
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
            0.5 + 0.4 * ((t + s) as f64 * 0.8 + f as f64).sin()
        })
    }

    #[test]
    fn trains_and_generates() {
        let mut rng = seeded(111);
        let data = toy(16, 6, 2);
        let mut m = CRnnGan::new(6, 2);
        let cfg = TrainConfig {
            epochs: 4,
            hidden: 8,
            ..TrainConfig::fast()
        };
        let report = m.fit(&data, &cfg, &mut rng);
        assert_eq!(report.loss_history.len(), 4);
        let g = m.generate(5, &mut rng);
        assert_eq!(g.shape(), (5, 6, 2));
        assert!(g.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn autoregressive_feedback_creates_temporal_dependence() {
        // consecutive outputs share state + feedback: the lag-1
        // autocorrelation of generated series should be positive on
        // average (unlike i.i.d. noise)
        let mut rng = seeded(112);
        let data = toy(16, 10, 1);
        let mut m = CRnnGan::new(10, 1);
        let cfg = TrainConfig {
            epochs: 10,
            hidden: 8,
            ..TrainConfig::fast()
        };
        m.fit(&data, &cfg, &mut rng);
        let g = m.generate(20, &mut rng);
        let mut acf1 = 0.0;
        let mut count = 0;
        for s in 0..g.samples() {
            let xs = g.series(s, 0);
            let a = tsgb_signal::acf::autocorrelation(&xs, 1);
            if a.len() > 1 && a[1].is_finite() {
                acf1 += a[1];
                count += 1;
            }
        }
        acf1 /= count as f64;
        assert!(acf1 > -0.5, "lag-1 ACF suspiciously negative: {acf1}");
    }
}
