//! A4: COSCI-GAN (Seyfi, Rajotte & Ng, NeurIPS'22) — COmmon Source
//! CoordInated GAN.
//!
//! One generator/discriminator pair *per channel*, all generators fed
//! the **same** noise sequence (the common source), plus a central
//! discriminator over the full multivariate window that forces the
//! per-channel generators to produce *coordinated* channels. The
//! channel-GAN losses preserve marginal behaviour; the central loss —
//! weighted by `gamma` (paper §5: `gamma = 5`) — preserves
//! inter-channel dependencies, which is why the paper finds COSCI-GAN
//! strongest on MDD/SD and on datasets with rich cross-channel
//! structure. The central discriminator here is MLP-based, matching
//! the §5 configuration.

use crate::common::{
    copy_fakes, gather_step_matrices, minibatch, noise, steps_to_tensor, EpochLog, FitDims,
    MethodId, TrainConfig, TrainReport, TsgMethod,
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

/// Weight of the central-discriminator term in each generator's loss.
const GAMMA: f64 = 5.0;

struct ChannelGan {
    g_params: Params,
    d_params: Params,
    g_cell: GruCell,
    g_head: Linear,
    d_cell: GruCell,
    d_head: Linear,
}

struct Nets {
    channels: Vec<ChannelGan>,
    central_params: Params,
    central: Mlp,
    noise_dim: usize,
    /// Sampling tapes with every channel's `g_params` bound, in channel order.
    tapes: ResidentTapes,
}

/// The COSCI-GAN method.
pub struct CosciGan {
    seq_len: usize,
    features: usize,
    dims: Option<FitDims>,
    nets: Option<Nets>,
}

impl CosciGan {
    /// A new untrained COSCI-GAN for `(seq_len, features)` windows.
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
        let channels = (0..self.features)
            .map(|c| {
                let mut g_params = Params::new();
                let g_cell = GruCell::new(&mut g_params, &format!("g{c}.gru"), noise_dim, h, rng);
                let g_head = Linear::new(&mut g_params, &format!("g{c}.head"), h, 1, rng);
                let mut d_params = Params::new();
                let d_cell = GruCell::new(&mut d_params, &format!("d{c}.gru"), 1, h, rng);
                let d_head = Linear::new(&mut d_params, &format!("d{c}.head"), h, 1, rng);
                ChannelGan {
                    g_params,
                    d_params,
                    g_cell,
                    g_head,
                    d_cell,
                    d_head,
                }
            })
            .collect();
        let mut central_params = Params::new();
        let central = Mlp::new(
            &mut central_params,
            "central",
            &[self.seq_len * self.features, h * 2, 1],
            Activation::LeakyRelu,
            Activation::None,
            rng,
        );
        Nets {
            channels,
            central_params,
            central,
            noise_dim,
            tapes: ResidentTapes::new(),
        }
    }
}

/// Per-channel generation from the shared noise; returns per-step
/// single-column outputs for channel `c`.
fn gen_channel(
    ch: &ChannelGan,
    t: &mut Tape,
    gb: &Binding,
    z_vars: &[VarId],
    batch: usize,
) -> Vec<VarId> {
    let hs = ch.g_cell.run(t, gb, z_vars, batch);
    hs.iter()
        .map(|&h| ch.g_head.forward_act(t, gb, h, Activation::Sigmoid))
        .collect()
}

/// Channel-discriminator logit over per-step single-column inputs.
fn disc_channel(
    ch: &ChannelGan,
    t: &mut Tape,
    db: &Binding,
    steps: &[VarId],
    batch: usize,
) -> VarId {
    let hs = ch.d_cell.run(t, db, steps, batch);
    ch.d_head.forward(t, db, *hs.last().expect("non-empty"))
}

/// Flattens per-step-per-channel nodes into the `(batch, l * n)` input
/// of the central discriminator, as one `concat_cols` node: column
/// order is step-major, channel-minor — matching
/// `Tensor3::flatten_samples`.
fn flatten_steps(t: &mut Tape, per_channel_steps: &[Vec<VarId>]) -> VarId {
    let l = per_channel_steps[0].len();
    let cols: Vec<VarId> = (0..l)
        .flat_map(|step| per_channel_steps.iter().map(move |ch| ch[step]))
        .collect();
    t.concat_cols(&cols)
}

/// The fake window as one `(batch, l * n)` matrix in
/// [`flatten_steps`]' column order, read off the G tape's per-channel
/// step outputs.
fn flatten_values(g: &Tape, per_channel_steps: &[Vec<VarId>], batch: usize) -> Matrix {
    let (l, n) = (per_channel_steps[0].len(), per_channel_steps.len());
    let mut flat = Matrix::zeros(batch, l * n);
    for (c, steps) in per_channel_steps.iter().enumerate() {
        for (step, &v) in steps.iter().enumerate() {
            let col = g.value(v);
            for b in 0..batch {
                flat[(b, step * n + c)] = col[(b, 0)];
            }
        }
    }
    flat
}

impl TsgMethod for CosciGan {
    fn id(&self) -> MethodId {
        MethodId::CosciGan
    }

    fn fit(&mut self, train: &Tensor3, cfg: &TrainConfig, rng: &mut SmallRng) -> TrainReport {
        let start = Instant::now();
        let mut nets = self.build(cfg, rng);
        let (r, l, n) = train.shape();
        let mut g_opts: Vec<Adam> = (0..n)
            .map(|_| Adam::with_betas(cfg.lr, 0.5, 0.999))
            .collect();
        let mut d_opts: Vec<Adam> = (0..n)
            .map(|_| Adam::with_betas(cfg.lr, 0.5, 0.999))
            .collect();
        let mut cd_opt = Adam::with_betas(cfg.lr, 0.5, 0.999);
        let mut log = EpochLog::new(self.id(), cfg.epochs);

        let mut chd_tape = Tape::new();
        let mut cd_tape = Tape::new();
        let mut g_tape = Tape::new();
        for _ in 0..cfg.epochs {
            let idx = minibatch(r, cfg.batch, rng);
            let batch = idx.len();
            let real_steps = gather_step_matrices(train, &idx); // l of (batch, n)
            let zs: Vec<Matrix> = (0..l).map(|_| noise(batch, nets.noise_dim, rng)).collect();
            let real_flat: Matrix = {
                let sel = train.select_samples(&idx);
                sel.flatten_samples()
            };

            // --- every channel's generator forward pass, once for all
            // three steps ---
            let g = g_tape.begin_step();
            let g_bindings: Vec<Binding> =
                nets.channels.iter().map(|ch| ch.g_params.bind(g)).collect();
            let z_vars: Vec<VarId> = zs.iter().map(|z| g.constant_copy(z)).collect();
            let per_ch: Vec<Vec<VarId>> = nets
                .channels
                .iter()
                .zip(&g_bindings)
                .map(|(ch, gb)| gen_channel(ch, g, gb, &z_vars, batch))
                .collect();

            // --- per-channel discriminators ---
            for (c, ch) in nets.channels.iter_mut().enumerate() {
                let t = chd_tape.begin_step();
                let db = ch.d_params.bind(t);
                let fake = copy_fakes(g, &per_ch[c], t);
                let real: Vec<VarId> = real_steps
                    .iter()
                    .map(|m| t.constant(m.slice_cols(c, c + 1)))
                    .collect();
                let rl = disc_channel(ch, t, &db, &real, batch);
                let fl = disc_channel(ch, t, &db, &fake, batch);
                let d_loss = loss::gan_discriminator_loss(t, rl, fl);
                t.backward(d_loss);
                ch.d_params.absorb_grads(t, &db);
                ch.d_params.clip_grad_norm(5.0);
                d_opts[c].step(&mut ch.d_params);
            }

            // --- central discriminator ---
            {
                let t = cd_tape.begin_step();
                let cb = nets.central_params.bind(t);
                let fake_flat = t.constant(flatten_values(g, &per_ch, batch));
                let real_var = t.constant_copy(&real_flat);
                let rl = nets.central.forward(t, &cb, real_var);
                let fl = nets.central.forward(t, &cb, fake_flat);
                let cd_loss = loss::gan_discriminator_loss(t, rl, fl);
                t.backward(cd_loss);
                nets.central_params.absorb_grads(t, &cb);
                nets.central_params.clip_grad_norm(5.0);
                cd_opt.step(&mut nets.central_params);
            }

            // --- generators: channel adversarial + gamma * central ---
            let epoch_loss;
            {
                let t = g;
                let cb = nets.central_params.bind_frozen(t);
                let d_bindings: Vec<Binding> = nets
                    .channels
                    .iter()
                    .map(|ch| ch.d_params.bind_frozen(t))
                    .collect();
                // channel adversarial terms
                let mut total: Option<VarId> = None;
                for ((ch, db), steps) in nets.channels.iter().zip(&d_bindings).zip(&per_ch) {
                    let fl = disc_channel(ch, t, db, steps, batch);
                    let gl = loss::gan_generator_loss(t, fl);
                    total = Some(match total {
                        None => gl,
                        Some(acc) => t.add(acc, gl),
                    });
                }
                // central coordination term
                let fake_flat = flatten_steps(t, &per_ch);
                let fl = nets.central.forward(t, &cb, fake_flat);
                let central_g = loss::gan_generator_loss(t, fl);
                let central_scaled = t.scale(central_g, GAMMA);
                let g_loss = {
                    let base = total.expect("at least one channel");
                    t.add(base, central_scaled)
                };
                t.backward(g_loss);
                epoch_loss = t.value(g_loss)[(0, 0)];
                for (ch, gb) in nets.channels.iter_mut().zip(&g_bindings) {
                    ch.g_params.absorb_grads(t, gb);
                    ch.g_params.clip_grad_norm(5.0);
                }
            }
            for (c, ch) in nets.channels.iter_mut().enumerate() {
                g_opts[c].step(&mut ch.g_params);
            }
            log.epoch(epoch_loss);
        }

        self.dims = Some(FitDims::of(cfg));
        self.nets = Some(nets);
        log.finish(start)
    }

    fn generate(&self, n: usize, rng: &mut SmallRng) -> Tensor3 {
        let nets = self
            .nets
            .as_ref()
            .expect("COSCI-GAN::generate called before fit");
        let zs: Vec<Matrix> = (0..self.seq_len)
            .map(|_| noise(n, nets.noise_dim, rng))
            .collect();
        let stores: Vec<&Params> = nets.channels.iter().map(|ch| &ch.g_params).collect();
        let mats: Vec<Matrix> = nets.tapes.run(&stores, |t, bindings| {
            let z_vars: Vec<VarId> = zs.into_iter().map(|z| t.constant(z)).collect();
            let per_ch: Vec<Vec<VarId>> = nets
                .channels
                .iter()
                .zip(bindings)
                .map(|(ch, gb)| gen_channel(ch, t, gb, &z_vars, n))
                .collect();
            // reassemble (batch, n) step matrices
            (0..self.seq_len)
                .map(|step| {
                    let mut m = Matrix::zeros(n, self.features);
                    for (c, ch) in per_ch.iter().enumerate() {
                        let col = t.value(ch[step]);
                        for b in 0..n {
                            m[(b, c)] = col[(b, 0)];
                        }
                    }
                    m
                })
                .collect()
        });
        steps_to_tensor(&mats)
    }

    fn save(&self) -> Option<Vec<u8>> {
        let nets = self.nets.as_ref()?;
        let dims = self.dims?;
        let mut w = SnapshotWriter::new(self.id(), self.seq_len, self.features);
        w.dim("hidden", dims.hidden);
        w.dim("latent", dims.latent);
        for (c, ch) in nets.channels.iter().enumerate() {
            w.params(&format!("g{c}"), &ch.g_params);
            w.params(&format!("d{c}"), &ch.d_params);
        }
        w.params("central", &nets.central_params);
        Some(w.finish())
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let mut r = SnapshotReader::open(self.id(), self.seq_len, self.features, bytes)?;
        let dims = FitDims {
            hidden: r.dim("hidden")?,
            latent: r.dim("latent")?,
        };
        let mut nets = self.build(&dims.config(), &mut seeded(0));
        for (c, ch) in nets.channels.iter_mut().enumerate() {
            r.params(&format!("g{c}"), &mut ch.g_params)?;
            r.params(&format!("d{c}"), &mut ch.d_params)?;
        }
        r.params("central", &mut nets.central_params)?;
        r.finish()?;
        self.dims = Some(dims);
        self.nets = Some(nets);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;
    use tsgb_linalg::stats;

    /// Two perfectly correlated channels: COSCI-GAN's raison d'être.
    fn correlated_data(r: usize, l: usize) -> Tensor3 {
        Tensor3::from_fn(r, l, 2, |s, t, f| {
            let base = 0.5 + 0.4 * ((t + s) as f64 * 0.6).sin();
            if f == 0 {
                base
            } else {
                1.0 - base
            }
        })
    }

    #[test]
    fn trains_and_generates() {
        let mut rng = seeded(41);
        let data = correlated_data(20, 6);
        let mut m = CosciGan::new(6, 2);
        let cfg = TrainConfig {
            epochs: 6,
            hidden: 8,
            ..TrainConfig::fast()
        };
        let report = m.fit(&data, &cfg, &mut rng);
        assert_eq!(report.loss_history.len(), 6);
        let gen = m.generate(5, &mut rng);
        assert_eq!(gen.shape(), (5, 6, 2));
        assert!(gen.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn shared_noise_couples_channels() {
        // After meaningful training on anti-correlated channels, the
        // generated channels should show negative correlation — the
        // central discriminator enforces coordination.
        let mut rng = seeded(42);
        let data = correlated_data(48, 6);
        let mut m = CosciGan::new(6, 2);
        let cfg = TrainConfig {
            epochs: 150,
            hidden: 10,
            lr: 3e-3,
            ..TrainConfig::fast()
        };
        m.fit(&data, &cfg, &mut rng);
        let gen = m.generate(40, &mut rng);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for s in 0..gen.samples() {
            for t in 0..gen.seq_len() {
                a.push(gen.at(s, t, 0));
                b.push(gen.at(s, t, 1));
            }
        }
        let corr = stats::pearson(&a, &b);
        assert!(
            corr < 0.3,
            "channels should not be strongly positively correlated: {corr}"
        );
    }
}
