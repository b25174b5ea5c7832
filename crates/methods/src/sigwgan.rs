//! Extension: Sig-WGAN (Ni et al., 2020/2021) — Wasserstein training
//! in path-signature space (paper Table 2, "Sig-WGAN" / "SigCWGAN").
//!
//! The method's theorem: the W1 distance between two path
//! distributions is approximated by the Euclidean distance between
//! their **expected truncated signatures**, so the discriminator can
//! be replaced by a closed-form metric — training becomes
//! `min_G || E[sig(real)] - E[sig(G(z))] ||^2`, which is dramatically
//! more stable than adversarial optimization.
//!
//! Implementation: a GRU generator (as in RGAN) and a depth-2
//! signature computed *on the tape* via Chen's identity — the level-2
//! blocks are built from column products, so the whole Sig-W1 loss is
//! differentiable end-to-end. Paths are time-augmented (a fixed ramp
//! channel), matching the reference implementation. Depth 2 is the
//! documented truncation (the original uses higher depths on low-`d`
//! financial data; level-2 already carries Levy areas, the dominant
//! cross-channel statistic).

use crate::common::{
    gather_step_matrices, minibatch, noise, steps_to_tensor, EpochLog, FitDims, MethodId,
    NoiseDecoder, TrainConfig, TrainReport, TsgMethod,
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
use tsgb_signal::signature::{expected_signature, signature_dim, time_augment};

struct Nets {
    g_params: Params,
    g_cell: GruCell,
    g_head: Linear,
    noise_dim: usize,
    /// Sampling tapes with `g_params` bound.
    tapes: ResidentTapes,
}

/// The Sig-WGAN extension method.
pub struct SigWgan {
    seq_len: usize,
    features: usize,
    dims: Option<FitDims>,
    nets: Option<Nets>,
}

impl SigWgan {
    /// A new untrained Sig-WGAN for `(seq_len, features)` windows.
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

    fn generate_steps(&self, nets: &Nets, t: &mut Tape, gb: &Binding, zs: &[Matrix]) -> Vec<VarId> {
        let batch = zs[0].rows();
        let z_vars: Vec<VarId> = zs.iter().map(|z| t.constant(z.clone())).collect();
        let hs = nets.g_cell.run(t, gb, &z_vars, batch);
        hs.iter()
            .map(|&h| nets.g_head.forward_act(t, gb, h, Activation::Sigmoid))
            .collect()
    }

    fn nets(&self) -> &Nets {
        self.nets.as_ref().expect("Sig-WGAN sampled before fit")
    }
}

/// Batched depth-2 signature of time-augmented per-step outputs,
/// differentiably on the tape. Each step node is `(batch, d)`; the
/// augmented dimension is `d + 1` (ramp channel first). Returns a
/// `(batch, sig_dim)` node.
fn tape_signature_depth2(t: &mut Tape, steps: &[VarId], batch: usize, d_raw: usize) -> VarId {
    let l = steps.len();
    let d = d_raw + 1; // time channel
                       // increments: the time channel increments by 1/(l-1) each step
    let dt = 1.0 / (l.max(2) - 1) as f64;
    // state: s1 (batch, d); s2 (batch, d*d) built incrementally
    let mut s1 = t.constant(Matrix::zeros(batch, d));
    let mut s2 = t.constant(Matrix::zeros(batch, d * d));
    let time_inc = t.constant(Matrix::full(batch, 1, dt));
    for step in 1..l {
        let dx = t.sub(steps[step], steps[step - 1]); // (batch, d_raw)
        let delta = t.concat_cols(&[time_inc, dx]); // (batch, d)
                                                    // outer products per sample: columns (i, j) = s1[:,i]*delta[:,j]
                                                    // and delta[:,i]*delta[:,j]/2
        let mut cols: Vec<VarId> = Vec::with_capacity(d * d);
        for i in 0..d {
            let s1_i = t.slice_cols(s1, i, i + 1);
            let de_i = t.slice_cols(delta, i, i + 1);
            for j in 0..d {
                let de_j = t.slice_cols(delta, j, j + 1);
                let a = t.mul(s1_i, de_j);
                let dd = t.mul(de_i, de_j);
                let half = t.scale(dd, 0.5);
                cols.push(t.add(a, half));
            }
        }
        let upd = t.concat_cols(&cols);
        s2 = t.add(s2, upd);
        s1 = t.add(s1, delta);
    }
    t.concat_cols(&[s1, s2])
}

impl TsgMethod for SigWgan {
    fn id(&self) -> MethodId {
        MethodId::SigWgan
    }

    fn fit(&mut self, train: &Tensor3, cfg: &TrainConfig, rng: &mut SmallRng) -> TrainReport {
        let start = Instant::now();
        let nets = self.build(cfg, rng);
        let mut nets = nets;
        let (r, l, n) = train.shape();
        let mut opt = Adam::new(cfg.lr);
        let mut log = EpochLog::new(self.id(), cfg.epochs);

        // The target statistic: expected depth-2 signature of the
        // (time-augmented) real windows — computed once, closed form.
        let real_paths: Vec<Matrix> = (0..r).map(|s| time_augment(&train.sample(s))).collect();
        let target = expected_signature(&real_paths, 2);
        let sig_dim = signature_dim(n + 1, 2);
        debug_assert_eq!(target.len(), sig_dim);
        let target_m = Matrix::from_vec(1, sig_dim, target).expect("sized");

        let mut tape = Tape::new();
        for _ in 0..cfg.epochs {
            let idx = minibatch(r, cfg.batch, rng);
            let batch = idx.len();
            let _ = gather_step_matrices(train, &idx); // real batch unused: target is global
            let zs: Vec<Matrix> = (0..l).map(|_| noise(batch, nets.noise_dim, rng)).collect();
            let t = tape.begin_step();
            let gb = nets.g_params.bind(t);
            let fake = self.generate_steps(&nets, t, &gb, &zs);
            let sig = tape_signature_depth2(t, &fake, batch, n);
            // batch-mean signature: (1, sig_dim)
            let avg_row = t.constant(Matrix::full(1, batch, 1.0 / batch as f64));
            let mean_sig = t.matmul(avg_row, sig);
            let tgt = t.constant_copy(&target_m);
            let diff = t.sub(mean_sig, tgt);
            let sq = t.square(diff);
            let loss = t.mean(sq);
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

impl NoiseDecoder for SigWgan {
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
    use tsgb_signal::signature::signature;

    fn toy(r: usize, l: usize, n: usize) -> Tensor3 {
        Tensor3::from_fn(r, l, n, |s, t, f| {
            0.5 + 0.35 * ((t as f64) * 0.7 + (s % 4) as f64 + f as f64).sin()
        })
    }

    #[test]
    fn tape_signature_matches_closed_form() {
        // the differentiable signature must agree with the reference
        // implementation in tsgb-signal
        let l = 6;
        let n = 2;
        let data = toy(3, l, n);
        let mut t = Tape::new();
        let steps: Vec<VarId> = (0..l)
            .map(|step| t.constant(Matrix::from_fn(3, n, |s, f| data.at(s, step, f))))
            .collect();
        let sig = tape_signature_depth2(&mut t, &steps, 3, n);
        let got = t.value(sig);
        for s in 0..3 {
            let expect = signature(&time_augment(&data.sample(s)), 2);
            for (a, b) in got.row(s).iter().zip(&expect) {
                assert!((a - b).abs() < 1e-9, "sample {s}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn sig_loss_decreases() {
        let mut rng = seeded(121);
        let data = toy(24, 8, 1);
        let mut m = SigWgan::new(8, 1);
        let cfg = TrainConfig {
            epochs: 60,
            hidden: 10,
            lr: 4e-3,
            ..TrainConfig::fast()
        };
        let report = m.fit(&data, &cfg, &mut rng);
        let head: f64 = report.loss_history[..5].iter().sum::<f64>() / 5.0;
        let tail: f64 = report.loss_history[55..].iter().sum::<f64>() / 5.0;
        assert!(tail < head, "Sig-W1 loss should fall: {head} -> {tail}");
    }

    #[test]
    fn generates_bounded_windows() {
        let mut rng = seeded(122);
        let data = toy(16, 6, 2);
        let mut m = SigWgan::new(6, 2);
        let cfg = TrainConfig {
            epochs: 6,
            hidden: 8,
            ..TrainConfig::fast()
        };
        m.fit(&data, &cfg, &mut rng);
        let g = m.generate(5, &mut rng);
        assert_eq!(g.shape(), (5, 6, 2));
        assert!(g.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
