//! A9: GT-GAN (Jeon et al., NeurIPS'22) — general-purpose TSG with
//! continuous-time components.
//!
//! GT-GAN pairs a continuous-time generator (a CTFP-style flow driven
//! by an ODE) with a GRU-ODE discriminator. We reproduce the
//! continuous-time structure at reduced scale:
//!
//! * **generator** — a neural ODE over a latent state: `z_0 ~ N(0, I)`
//!   is integrated with a fixed-step Euler solver (`K` substeps per
//!   output step), and a read-out head emits each observation. This is
//!   the regular-time-series configuration (`P_MLE`-style pretraining
//!   is replaced by a reconstruction warm-up, documented below);
//! * **discriminator** — a GRU-ODE: the hidden state *decays along the
//!   ODE flow between observations* and jumps through a GRU cell at
//!   each observation, ending in a logit head.
//!
//! Documented substitutions: the original uses adaptive-step solvers
//! with per-dataset tolerances (§5); a fixed-step Euler at matched
//! resolution exercises the same continuous-time code path and keeps
//! gradients exact through the unrolled solver.

use crate::common::{
    copy_fakes, gather_step_matrices, minibatch, noise, steps_to_tensor, EpochLog, FitDims,
    MethodId, NoiseDecoder, TrainConfig, TrainReport, TsgMethod,
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

/// Euler substeps between consecutive observations.
const SUBSTEPS: usize = 2;

/// The checkpoint's `solver` tag: 0 names the fixed-step Euler solver,
/// the only one there is.
const EULER: usize = 0;

struct Nets {
    g_params: Params,
    d_params: Params,
    ode_func: Mlp,
    g_head: Linear,
    d_ode: Mlp,
    d_cell: GruCell,
    d_head: Linear,
    hidden: usize,
    /// Sampling tapes with `g_params` bound.
    tapes: ResidentTapes,
}

/// The GT-GAN method.
pub struct GtGan {
    seq_len: usize,
    features: usize,
    dims: Option<FitDims>,
    nets: Option<Nets>,
}

impl GtGan {
    /// A new untrained GT-GAN for `(seq_len, features)` windows.
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
        let mut g_params = Params::new();
        let ode_func = Mlp::new(
            &mut g_params,
            "g.ode",
            &[h, h, h],
            Activation::Tanh,
            Activation::Tanh,
            rng,
        );
        let g_head = Linear::new(&mut g_params, "g.head", h, self.features, rng);
        let mut d_params = Params::new();
        let d_ode = Mlp::new(
            &mut d_params,
            "d.ode",
            &[h, h, h],
            Activation::Tanh,
            Activation::Tanh,
            rng,
        );
        let d_cell = GruCell::new(&mut d_params, "d.gru", self.features, h, rng);
        let d_head = Linear::new(&mut d_params, "d.head", h, 1, rng);
        Nets {
            g_params,
            d_params,
            ode_func,
            g_head,
            d_ode,
            d_cell,
            d_head,
            hidden: h,
            tapes: ResidentTapes::new(),
        }
    }

    /// One Euler step `h <- h + dt * f(h)`.
    fn ode_step(&self, f: &Mlp, t: &mut Tape, b: &Binding, h: VarId, dt: f64) -> VarId {
        let k1 = f.forward(t, b, h);
        let step = t.scale(k1, dt);
        t.add(h, step)
    }

    /// Integrates the generator ODE from `z0`, emitting per-step
    /// observations.
    fn generate_steps(&self, nets: &Nets, t: &mut Tape, gb: &Binding, z0: Matrix) -> Vec<VarId> {
        let dt = 1.0 / (self.seq_len * SUBSTEPS) as f64;
        let mut h = t.constant(z0);
        let mut steps = Vec::with_capacity(self.seq_len);
        for _ in 0..self.seq_len {
            for _ in 0..SUBSTEPS {
                h = self.ode_step(&nets.ode_func, t, gb, h, dt * SUBSTEPS as f64);
            }
            steps.push(nets.g_head.forward_act(t, gb, h, Activation::Sigmoid));
        }
        steps
    }

    /// GRU-ODE discriminator logit: continuous decay between
    /// observations, GRU jump at each observation.
    fn discriminate(
        &self,
        nets: &Nets,
        t: &mut Tape,
        db: &Binding,
        steps: &[VarId],
        batch: usize,
    ) -> VarId {
        let dt = 1.0 / steps.len() as f64;
        let mut h = t.constant(Matrix::zeros(batch, nets.hidden));
        for &x in steps {
            h = self.ode_step(&nets.d_ode, t, db, h, dt);
            h = nets.d_cell.step(t, db, x, h);
        }
        nets.d_head.forward(t, db, h)
    }

    fn nets(&self) -> &Nets {
        self.nets.as_ref().expect("GT-GAN sampled before fit")
    }
}

impl TsgMethod for GtGan {
    fn id(&self) -> MethodId {
        MethodId::GtGan
    }

    fn fit(&mut self, train: &Tensor3, cfg: &TrainConfig, rng: &mut SmallRng) -> TrainReport {
        let start = Instant::now();
        let nets = self.build(cfg, rng);
        let mut nets = nets;
        let (r, _, _) = train.shape();
        let mut g_opt = Adam::with_betas(cfg.lr, 0.5, 0.999);
        let mut d_opt = Adam::with_betas(cfg.lr, 0.5, 0.999);
        let mut log = EpochLog::new(self.id(), cfg.epochs);

        let mut d_tape = Tape::new();
        let mut g_tape = Tape::new();
        for _ in 0..cfg.epochs {
            let idx = minibatch(r, cfg.batch, rng);
            let batch = idx.len();
            let real_steps = gather_step_matrices(train, &idx);
            let z0 = noise(batch, nets.hidden, rng);

            // the generator's forward pass, once for both steps
            let g = g_tape.begin_step();
            let gb = nets.g_params.bind(g);
            let fake = self.generate_steps(&nets, g, &gb, z0);

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

            // G step: adversarial + light moment anchoring (the
            // reconstruction warm-up stand-in for P_MLE pretraining)
            let g_loss_val = {
                let t = g;
                let db = nets.d_params.bind_frozen(t);
                let fl = self.discriminate(&nets, t, &db, &fake, batch);
                let adv = loss::gan_generator_loss(t, fl);
                let fcat = t.concat_rows(&fake);
                let target = real_steps
                    .iter()
                    .skip(1)
                    .fold(real_steps[0].clone(), |a, m| a.vcat(m));
                let mean_f = t.mean(fcat);
                let mean_r = target.mean();
                let dm = t.add_scalar(mean_f, -mean_r);
                let dm2 = t.square(dm);
                let anchor = t.scale(dm2, 5.0);
                let g_loss = t.add(adv, anchor);
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
        w.dim("solver", EULER);
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
        let solver = r.dim("solver")?;
        if solver != EULER {
            return Err(PersistError::StructureMismatch {
                detail: format!("unknown ODE solver tag {solver}"),
            });
        }
        let mut nets = self.build(&dims.config(), &mut seeded(0));
        r.params("g", &mut nets.g_params)?;
        r.params("d", &mut nets.d_params)?;
        r.finish()?;
        self.dims = Some(dims);
        self.nets = Some(nets);
        Ok(())
    }
}

impl NoiseDecoder for GtGan {
    /// One `(n, hidden)` matrix: the ODE's initial state.
    fn draw(&self, n: usize, rng: &mut SmallRng) -> Vec<Matrix> {
        vec![noise(n, self.nets().hidden, rng)]
    }

    fn decode(&self, zs: &[Matrix]) -> Tensor3 {
        let nets = self.nets();
        let mats: Vec<Matrix> = nets.tapes.run(&[&nets.g_params], |t, b| {
            let steps = self.generate_steps(nets, t, &b[0], zs[0].clone());
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
            0.5 + 0.35 * ((t as f64) * 0.7 + (s % 3) as f64 + f as f64).sin()
        })
    }

    #[test]
    fn euler_trains_and_generates() {
        let mut rng = seeded(91);
        let data = toy_data(16, 6, 2);
        let mut m = GtGan::new(6, 2);
        let cfg = TrainConfig {
            epochs: 5,
            hidden: 8,
            ..TrainConfig::fast()
        };
        let report = m.fit(&data, &cfg, &mut rng);
        assert_eq!(report.loss_history.len(), 5);
        let gen = m.generate(4, &mut rng);
        assert_eq!(gen.shape(), (4, 6, 2));
        assert!(gen.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn ode_trajectory_is_smooth() {
        // Consecutive generator outputs come from a continuous state:
        // adjacent steps should differ less than far-apart steps on
        // average (before training sharpens anything).
        let mut rng = seeded(93);
        let data = toy_data(8, 10, 1);
        let mut m = GtGan::new(10, 1);
        let cfg = TrainConfig {
            epochs: 2,
            hidden: 8,
            ..TrainConfig::fast()
        };
        m.fit(&data, &cfg, &mut rng);
        let gen = m.generate(16, &mut rng);
        let mut near = 0.0;
        let mut far = 0.0;
        for s in 0..gen.samples() {
            let xs = gen.series(s, 0);
            for t in 0..9 {
                near += (xs[t + 1] - xs[t]).abs();
            }
            far += (xs[9] - xs[0]).abs();
        }
        near /= (16 * 9) as f64;
        far /= 16.0;
        assert!(
            near <= far + 0.05,
            "adjacent steps jump too much: near {near}, far {far}"
        );
    }
}
