//! A1: RGAN (Esteban, Hyland & Rätsch, 2017) — the pioneering
//! recurrent GAN for time series.
//!
//! Architecture as in the original: a recurrent generator that maps a
//! fresh noise vector *per time step* to an output sample, and a
//! recurrent discriminator scoring the whole sequence. The original
//! uses LSTM cells and per-step discriminator outputs; at reduced
//! scale we use a GRU generator (the lighter cell the paper's §5
//! settings also favor elsewhere) and a sequence-level logit, which
//! preserves the adversarial dynamics that matter to the benchmark.

use crate::common::{
    copy_fakes, decode_conditioned, gather_step_matrices, minibatch, noise, steps_to_tensor,
    Condition, ConditionalSample, EpochLog, FitDims, MethodId, NoiseDecoder, TrainConfig,
    TrainReport, TsgMethod,
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

struct Nets {
    g_params: Params,
    d_params: Params,
    g_cell: GruCell,
    g_head: Linear,
    d_cell: GruCell,
    d_head: Linear,
    noise_dim: usize,
    /// Sampling tapes with `g_params` bound.
    tapes: ResidentTapes,
}

/// The RGAN method.
pub struct Rgan {
    seq_len: usize,
    features: usize,
    dims: Option<FitDims>,
    nets: Option<Nets>,
}

impl Rgan {
    /// A new untrained RGAN for `(seq_len, features)` windows.
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
        let mut d_params = Params::new();
        let d_cell = GruCell::new(&mut d_params, "d.gru", self.features, cfg.hidden, rng);
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

    fn nets(&self) -> &Nets {
        self.nets.as_ref().expect("RGAN sampled before fit")
    }
}

/// Runs the generator on per-step noise constants, returning the
/// per-step `(batch, features)` output nodes.
fn generate_steps(nets: &Nets, t: &mut Tape, gb: &Binding, zs: &[Matrix]) -> Vec<VarId> {
    let batch = zs[0].rows();
    let z_vars: Vec<VarId> = zs.iter().map(|z| t.constant_copy(z)).collect();
    let hs = nets.g_cell.run(t, gb, &z_vars, batch);
    hs.iter()
        .map(|&h| nets.g_head.forward_act(t, gb, h, Activation::Sigmoid))
        .collect()
}

/// Discriminator logit for a sequence of per-step nodes.
fn discriminate(nets: &Nets, t: &mut Tape, db: &Binding, steps: &[VarId]) -> VarId {
    let batch = t.shape(steps[0]).0;
    let mut h = t.zeros(batch, nets.d_cell.hidden_dim);
    for &x in steps {
        h = nets.d_cell.step(t, db, x, h);
    }
    nets.d_head.forward(t, db, h)
}

impl TsgMethod for Rgan {
    fn id(&self) -> MethodId {
        MethodId::Rgan
    }

    fn fit(&mut self, train: &Tensor3, cfg: &TrainConfig, rng: &mut SmallRng) -> TrainReport {
        let start = Instant::now();
        let mut nets = self.build(cfg, rng);
        let mut g_opt = Adam::with_betas(cfg.lr, 0.5, 0.999);
        let mut d_opt = Adam::with_betas(cfg.lr, 0.5, 0.999);
        let (r, l, _) = train.shape();
        let mut log = EpochLog::new(self.id(), cfg.epochs);
        let mut d_tape = Tape::new();
        let mut g_tape = Tape::new();

        for _epoch in 0..cfg.epochs {
            let idx = minibatch(r, cfg.batch, rng);
            let batch = idx.len();
            let real_steps_data = gather_step_matrices(train, &idx);
            let zs: Vec<Matrix> = (0..l).map(|_| noise(batch, nets.noise_dim, rng)).collect();

            // --- the generator's forward pass, once for both steps ---
            let g = g_tape.begin_step();
            let gb = nets.g_params.bind(g);
            let fake = generate_steps(&nets, g, &gb, &zs);

            // --- discriminator step ---
            {
                let t = d_tape.begin_step();
                let db = nets.d_params.bind(t);
                let fake = copy_fakes(g, &fake, t);
                let real: Vec<VarId> = real_steps_data.iter().map(|m| t.constant_copy(m)).collect();
                let real_logit = discriminate(&nets, t, &db, &real);
                let fake_logit = discriminate(&nets, t, &db, &fake);
                let d_loss = loss::gan_discriminator_loss(t, real_logit, fake_logit);
                t.backward(d_loss);
                nets.d_params.absorb_grads(t, &db);
                nets.d_params.clip_grad_norm(5.0);
                d_opt.step(&mut nets.d_params);
            }

            // --- generator step ---
            let g_loss_val = {
                let t = g;
                let db = nets.d_params.bind_frozen(t);
                let fake_logit = discriminate(&nets, t, &db, &fake);
                let g_loss = loss::gan_generator_loss(t, fake_logit);
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

    fn conditional(&self) -> Option<&dyn ConditionalSample> {
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

impl NoiseDecoder for Rgan {
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
            let steps = generate_steps(nets, t, &b[0], zs);
            steps.iter().map(|&s| t.value(s).clone()).collect()
        });
        steps_to_tensor(&mats)
    }
}

impl ConditionalSample for Rgan {
    /// Class-/covariate-conditioned noise shaping: every per-step
    /// noise draw is shifted by the condition's direction in noise
    /// space, steering the recurrent generator into a stable region
    /// per label. Strength 0 leaves the draws untouched (bit-identical
    /// to [`TsgMethod::generate`]).
    fn generate_conditioned(&self, n: usize, cond: &Condition, rng: &mut SmallRng) -> Tensor3 {
        decode_conditioned(self, n, cond, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;

    fn toy_data(r: usize, l: usize, n: usize) -> Tensor3 {
        Tensor3::from_fn(r, l, n, |s, t, f| {
            0.5 + 0.4 * ((t + s) as f64 * 0.7 + f as f64).sin()
        })
    }

    #[test]
    fn trains_and_generates_right_shape() {
        let mut rng = seeded(1);
        let data = toy_data(24, 8, 3);
        let mut m = Rgan::new(8, 3);
        let cfg = TrainConfig {
            epochs: 5,
            ..TrainConfig::fast()
        };
        let report = m.fit(&data, &cfg, &mut rng);
        assert_eq!(report.loss_history.len(), 5);
        assert!(report.train_seconds >= 0.0);
        let gen = m.generate(7, &mut rng);
        assert_eq!(gen.shape(), (7, 8, 3));
        assert!(gen.all_finite());
        // sigmoid head keeps output in [0, 1]
        assert!(gen.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn generate_before_fit_panics() {
        let m = Rgan::new(8, 3);
        let mut rng = seeded(2);
        let _ = m.generate(1, &mut rng);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = toy_data(16, 6, 2);
        let cfg = TrainConfig {
            epochs: 3,
            ..TrainConfig::fast()
        };
        let run = |seed| {
            let mut rng = seeded(seed);
            let mut m = Rgan::new(6, 2);
            m.fit(&data, &cfg, &mut rng);
            m.generate(4, &mut rng)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
