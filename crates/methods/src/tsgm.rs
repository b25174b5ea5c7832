//! Extension: TSGM (Lim et al., 2023) — score-based time-series
//! generation (paper Table 2, the lone SGM row).
//!
//! TSGM applies a score-based generative model (VP-SDE) to regular
//! time series. We implement the standard DDPM discretization of the
//! VP-SDE (Ho et al. 2020 == the discrete form of song-style score
//! matching): a fixed forward noising schedule
//! `x_t = sqrt(abar_t) x_0 + sqrt(1 - abar_t) eps`, an MLP
//! epsilon-predictor conditioned on a sinusoidal timestep embedding,
//! the simple-loss objective `||eps - eps_theta(x_t, t)||^2`, and
//! ancestral sampling. Windows are flattened and affinely mapped to
//! `[-1, 1]` for the diffusion space, then back to `[0, 1]` at output
//! (documented substitution: the original conditions on an RNN
//! encoding of history for forecasting-style generation; the
//! unconditional window former is the TSG-benchmark configuration).

use crate::common::{minibatch, EpochLog, FitDims, MethodId, TrainConfig, TrainReport, TsgMethod};
use crate::persist::{PersistError, SnapshotReader, SnapshotWriter};
use std::time::Instant;
use tsgb_linalg::rng::{randn_matrix, seeded};
use tsgb_linalg::{Matrix, Tensor3};
use tsgb_nn::layers::{Activation, Mlp};
use tsgb_nn::loss;
use tsgb_nn::optim::Adam;
use tsgb_nn::params::Params;
use tsgb_nn::tape::Tape;
use tsgb_nn::ResidentTapes;
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::Rng;

/// Diffusion steps (the original uses 1000; 50 suffices at window
/// scale and keeps ancestral sampling fast on CPU).
const STEPS: usize = 50;
/// Timestep-embedding width.
const T_EMBED: usize = 8;

struct Fitted {
    params: Params,
    net: Mlp,
    alphas: Vec<f64>,
    abars: Vec<f64>,
    betas: Vec<f64>,
    /// Sampling tapes with `params` bound.
    tapes: ResidentTapes,
}

/// The TSGM extension method (DDPM discretization).
pub struct Tsgm {
    seq_len: usize,
    features: usize,
    dims: Option<FitDims>,
    fitted: Option<Fitted>,
}

impl Tsgm {
    /// A new untrained TSGM for `(seq_len, features)` windows.
    pub fn new(seq_len: usize, features: usize) -> Self {
        Self {
            seq_len,
            features,
            dims: None,
            fitted: None,
        }
    }

    /// The epsilon-predictor MLP for this window shape and config.
    fn build_net(&self, cfg: &TrainConfig, rng: &mut SmallRng) -> (Params, Mlp) {
        let dim = self.seq_len * self.features;
        let mut params = Params::new();
        let h = cfg.hidden * 4; // diffusion nets need width; still tiny
        let net = Mlp::new(
            &mut params,
            "eps",
            &[dim + T_EMBED, h, h, dim],
            Activation::Relu,
            Activation::None,
            rng,
        );
        (params, net)
    }

    fn schedule() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        // linear beta schedule scaled for STEPS
        let beta_lo = 1e-4 * (1000.0 / STEPS as f64);
        let beta_hi = 0.02 * (1000.0 / STEPS as f64);
        let betas: Vec<f64> = (0..STEPS)
            .map(|t| beta_lo + (beta_hi - beta_lo) * t as f64 / (STEPS - 1) as f64)
            .collect();
        let alphas: Vec<f64> = betas.iter().map(|b| 1.0 - b).collect();
        let mut abars = Vec::with_capacity(STEPS);
        let mut acc = 1.0;
        for &a in &alphas {
            acc *= a;
            abars.push(acc);
        }
        (betas, alphas, abars)
    }

    fn t_embedding(step: usize) -> Vec<f64> {
        // sinusoidal features of the normalized timestep
        let tt = step as f64 / STEPS as f64;
        (0..T_EMBED)
            .map(|k| {
                let freq = 2.0f64.powi((k / 2) as i32) * std::f64::consts::PI;
                if k % 2 == 0 {
                    (freq * tt).sin()
                } else {
                    (freq * tt).cos()
                }
            })
            .collect()
    }
}

impl TsgMethod for Tsgm {
    fn id(&self) -> MethodId {
        MethodId::Tsgm
    }

    fn fit(&mut self, train: &Tensor3, cfg: &TrainConfig, rng: &mut SmallRng) -> TrainReport {
        let start = Instant::now();
        let (r, _, _) = train.shape();
        let dim = self.seq_len * self.features;
        let (betas, alphas, abars) = Self::schedule();
        let (mut params, net) = self.build_net(cfg, rng);
        let mut opt = Adam::new(cfg.lr);
        let mut tape = Tape::new();
        let mut log = EpochLog::new(self.id(), cfg.epochs);

        // map windows to [-1, 1]
        let flat = {
            let mut f = train.flatten_samples();
            f.map_inplace(|v| 2.0 * v - 1.0);
            f
        };

        for _ in 0..cfg.epochs {
            let idx = minibatch(r, cfg.batch, rng);
            let batch = idx.len();
            let x0 = flat.select_rows(&idx);
            let step = rng.gen_range(0..STEPS);
            let abar = abars[step];
            let eps = randn_matrix(batch, dim, rng);
            // x_t = sqrt(abar) x0 + sqrt(1-abar) eps
            let xt = x0
                .scale(abar.sqrt())
                .zip_map(&eps.scale((1.0 - abar).sqrt()), |a, b| a + b);
            let emb = Self::t_embedding(step);
            let emb_m = Matrix::from_fn(batch, T_EMBED, |_, c| emb[c]);
            let input = xt.hcat(&emb_m);

            let t = tape.begin_step();
            let b = params.bind(t);
            let inp = t.constant(input);
            let pred = net.forward(t, &b, inp);
            let l = loss::mse_mean(t, pred, &eps);
            t.backward(l);
            params.absorb_grads(t, &b);
            params.clip_grad_norm(5.0);
            opt.step(&mut params);
            log.epoch(t.value(l)[(0, 0)]);
        }

        self.dims = Some(FitDims::of(cfg));
        self.fitted = Some(Fitted {
            params,
            net,
            alphas,
            abars,
            betas,
            tapes: ResidentTapes::new(),
        });
        log.finish(start)
    }

    fn generate(&self, n: usize, rng: &mut SmallRng) -> Tensor3 {
        let f = self
            .fitted
            .as_ref()
            .expect("TSGM::generate called before fit");
        let dim = self.seq_len * self.features;
        let mut x = randn_matrix(n, dim, rng);
        for step in (0..STEPS).rev() {
            let emb = Self::t_embedding(step);
            let emb_m = Matrix::from_fn(n, T_EMBED, |_, c| emb[c]);
            let input = x.hcat(&emb_m);
            let eps_hat = f.tapes.run(&[&f.params], |t, b| {
                let inp = t.constant(input);
                let pred = f.net.forward(t, &b[0], inp);
                t.value(pred).clone()
            });
            let alpha = f.alphas[step];
            let abar = f.abars[step];
            let beta = f.betas[step];
            // mean of p(x_{t-1} | x_t)
            let coef = beta / (1.0 - abar).sqrt();
            let mut mean = x.zip_map(&eps_hat, |xi, ei| (xi - coef * ei) / alpha.sqrt());
            if step > 0 {
                let z = randn_matrix(n, dim, rng);
                mean.axpy(beta.sqrt(), &z);
            }
            x = mean;
        }
        // back to [0, 1]
        x.map_inplace(|v| ((v + 1.0) / 2.0).clamp(0.0, 1.0));
        Tensor3::from_vec(n, self.seq_len, self.features, x.into_vec())
            .expect("flat layout matches")
    }

    fn save(&self) -> Option<Vec<u8>> {
        let f = self.fitted.as_ref()?;
        let dims = self.dims?;
        let mut w = SnapshotWriter::new(self.id(), self.seq_len, self.features);
        w.dim("hidden", dims.hidden);
        w.dim("latent", dims.latent);
        w.params("eps", &f.params);
        w.floats("alphas", &f.alphas);
        w.floats("abars", &f.abars);
        w.floats("betas", &f.betas);
        Some(w.finish())
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let mut r = SnapshotReader::open(self.id(), self.seq_len, self.features, bytes)?;
        let dims = FitDims {
            hidden: r.dim("hidden")?,
            latent: r.dim("latent")?,
        };
        let (mut params, net) = self.build_net(&dims.config(), &mut seeded(0));
        r.params("eps", &mut params)?;
        let alphas = r.floats("alphas")?;
        let abars = r.floats("abars")?;
        let betas = r.floats("betas")?;
        if alphas.len() != STEPS || abars.len() != STEPS || betas.len() != STEPS {
            return Err(PersistError::StructureMismatch {
                detail: format!(
                    "diffusion schedule has {}/{}/{} entries, expected {STEPS}",
                    alphas.len(),
                    abars.len(),
                    betas.len()
                ),
            });
        }
        r.finish()?;
        self.dims = Some(dims);
        self.fitted = Some(Fitted {
            params,
            net,
            alphas,
            abars,
            betas,
            tapes: ResidentTapes::new(),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;
    use tsgb_linalg::stats;

    fn toy(r: usize, l: usize, n: usize) -> Tensor3 {
        Tensor3::from_fn(r, l, n, |s, t, f| {
            0.5 + 0.3 * ((t as f64) * 0.9 + (s % 4) as f64 + f as f64).sin()
        })
    }

    #[test]
    fn schedule_is_monotone() {
        let (betas, alphas, abars) = Tsgm::schedule();
        assert_eq!(betas.len(), STEPS);
        assert!(betas.windows(2).all(|w| w[1] >= w[0]));
        assert!(alphas.iter().all(|&a| (0.0..1.0).contains(&a)));
        assert!(abars.windows(2).all(|w| w[1] <= w[0]), "abar must decay");
        assert!(*abars.last().unwrap() < 0.1, "terminal abar ~ pure noise");
    }

    #[test]
    fn denoising_loss_decreases() {
        let mut rng = seeded(141);
        let data = toy(40, 8, 1);
        let mut m = Tsgm::new(8, 1);
        let cfg = TrainConfig {
            epochs: 200,
            lr: 2e-3,
            ..TrainConfig::fast()
        };
        let report = m.fit(&data, &cfg, &mut rng);
        let head: f64 = report.loss_history[..20].iter().sum::<f64>() / 20.0;
        let tail: f64 = report.loss_history[180..].iter().sum::<f64>() / 20.0;
        assert!(tail < head, "denoising loss should fall: {head} -> {tail}");
    }

    #[test]
    fn generates_bounded_windows_near_data_mean() {
        let mut rng = seeded(142);
        let data = toy(48, 8, 2);
        let mut m = Tsgm::new(8, 2);
        let cfg = TrainConfig {
            epochs: 300,
            lr: 2e-3,
            ..TrainConfig::fast()
        };
        m.fit(&data, &cfg, &mut rng);
        let g = m.generate(20, &mut rng);
        assert_eq!(g.shape(), (20, 8, 2));
        assert!(g.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let mg = stats::mean(g.as_slice());
        let mr = stats::mean(data.as_slice());
        assert!((mg - mr).abs() < 0.25, "generated mean {mg} vs real {mr}");
    }
}
