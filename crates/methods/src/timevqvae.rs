//! A7: TimeVQVAE (Lee, Malacarne & Aune, AISTATS'23) — vector-quantized
//! TSG in the time-frequency domain.
//!
//! TimeVQVAE decomposes each series with an STFT (paper §5:
//! `n_fft = 8`), models the **low-frequency** and **high-frequency**
//! bands with separate vector-quantized codebooks, and samples new
//! series by drawing code tokens from a learned prior and inverting
//! the STFT. We reproduce that structure:
//!
//! * per-band frame tokens (real/imag interleaved spectrogram frames),
//! * per-band VQ-VAEs: linear encoder → nearest-code quantization with
//!   a straight-through gradient and **EMA codebook updates** → linear
//!   decoder, trained with reconstruction + commitment losses,
//! * a **position-factorized categorical prior** over code indices per
//!   (channel, frame) for stage-2 sampling.
//!
//! Documented substitution: the original's stage-2 prior is a
//! bidirectional transformer; the factorized categorical retains the
//! positional code statistics at a tiny fraction of the cost, which is
//! the trade the CPU budget requires (see `DESIGN.md`).

use crate::common::{minibatch, EpochLog, MethodId, TrainConfig, TrainReport, TsgMethod};
use crate::persist::{PersistError, SnapshotReader, SnapshotWriter};
use std::time::Instant;
use tsgb_linalg::rng::{randn_matrix, seeded};
use tsgb_linalg::{Matrix, Tensor3};
use tsgb_nn::layers::Linear;
use tsgb_nn::loss;
use tsgb_nn::optim::Adam;
use tsgb_nn::params::Params;
use tsgb_nn::tape::Tape;
use tsgb_nn::ResidentTapes;
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::Rng;
use tsgb_signal::fft::Complex;
use tsgb_signal::stft::{istft, stft, Spectrogram, StftConfig};

/// Codebook size per band.
const CODES: usize = 32;
/// EMA decay for codebook updates.
const EMA_DECAY: f64 = 0.97;
/// Commitment-loss weight (beta in the VQ-VAE paper).
const BETA: f64 = 0.25;
/// Low/high band cut (bins below are "low frequency").
const BAND_CUT: usize = 2;

/// One band's VQ-VAE: linear encoder/decoder + EMA codebook.
struct BandVq {
    params: Params,
    encoder: Linear,
    decoder: Linear,
    /// `(codes, code_dim)` codebook, updated by EMA outside the tape.
    codebook: Matrix,
    ema_counts: Vec<f64>,
    ema_sums: Matrix,
    token_dim: usize,
    code_dim: usize,
    codes: usize,
    ema_decay: f64,
    /// Sampling tapes with `params` bound.
    tapes: ResidentTapes,
}

impl BandVq {
    fn new(
        token_dim: usize,
        code_dim: usize,
        codes: usize,
        ema_decay: f64,
        name: &str,
        rng: &mut SmallRng,
    ) -> Self {
        let mut params = Params::new();
        let encoder = Linear::new(
            &mut params,
            &format!("{name}.enc"),
            token_dim,
            code_dim,
            rng,
        );
        let decoder = Linear::new(
            &mut params,
            &format!("{name}.dec"),
            code_dim,
            token_dim,
            rng,
        );
        let codebook = randn_matrix(codes, code_dim, rng).scale(0.1);
        let ema_sums = codebook.scale(1.0);
        Self {
            params,
            encoder,
            decoder,
            codebook,
            ema_counts: vec![1.0; codes],
            ema_sums,
            token_dim,
            code_dim,
            codes,
            ema_decay,
            tapes: ResidentTapes::new(),
        }
    }

    /// Nearest codebook row for each encoding row.
    fn nearest(&self, enc: &Matrix) -> Vec<usize> {
        (0..enc.rows())
            .map(|r| {
                let row = enc.row(r);
                let mut best = 0;
                let mut best_d = f64::INFINITY;
                for k in 0..self.codes {
                    let code = self.codebook.row(k);
                    let d: f64 = row.iter().zip(code).map(|(a, b)| (a - b) * (a - b)).sum();
                    if d < best_d {
                        best_d = d;
                        best = k;
                    }
                }
                best
            })
            .collect()
    }

    /// One optimization step on a `(tokens, token_dim)` batch; returns
    /// (loss value, assigned code indices).
    fn train_step(&mut self, x: &Matrix, opt: &mut Adam, tape: &mut Tape) -> (f64, Vec<usize>) {
        let t = tape.begin_step();
        let b = self.params.bind(t);
        let xv = t.constant_copy(x);
        let e = self.encoder.forward(t, &b, xv);
        let e_val = t.value(e).clone();
        let idx = self.nearest(&e_val);
        let q = self.codebook.select_rows(&idx);
        // straight-through: decoder sees e + (q - e).detach()
        let delta = t.constant(&q - &e_val);
        let q_st = t.add(e, delta);
        let recon = self.decoder.forward(t, &b, q_st);
        let rec_loss = loss::mse_mean(t, recon, x);
        // commitment: pull encodings toward their codes
        let commit = loss::mse_mean(t, e, &q);
        let commit_s = t.scale(commit, BETA);
        let total = t.add(rec_loss, commit_s);
        t.backward(total);
        self.params.absorb_grads(t, &b);
        self.params.clip_grad_norm(5.0);
        opt.step(&mut self.params);

        // EMA codebook update from the (pre-update) encodings
        let mut counts = vec![0.0f64; self.codes];
        let mut sums = Matrix::zeros(self.codes, self.code_dim);
        for (r, &k) in idx.iter().enumerate() {
            counts[k] += 1.0;
            for (c, &v) in e_val.row(r).iter().enumerate() {
                sums[(k, c)] += v;
            }
        }
        for k in 0..self.codes {
            let d = self.ema_decay;
            self.ema_counts[k] = d * self.ema_counts[k] + (1.0 - d) * counts[k];
            for c in 0..self.code_dim {
                let s = d * self.ema_sums[(k, c)] + (1.0 - d) * sums[(k, c)];
                self.ema_sums[(k, c)] = s;
                self.codebook[(k, c)] = s / self.ema_counts[k].max(1e-6);
            }
        }
        (t.value(total)[(0, 0)], idx)
    }

    /// Appends this band's state as `<tag>.*` snapshot sections.
    fn write(&self, w: &mut SnapshotWriter, tag: &str) {
        w.dim(&format!("{tag}.token_dim"), self.token_dim);
        w.dim(&format!("{tag}.code_dim"), self.code_dim);
        w.params(&format!("{tag}.params"), &self.params);
        w.matrix(&format!("{tag}.codebook"), &self.codebook);
        w.floats(&format!("{tag}.ema_counts"), &self.ema_counts);
        w.matrix(&format!("{tag}.ema_sums"), &self.ema_sums);
    }

    /// Rebuilds a band from its `<tag>.*` snapshot sections.
    fn read(
        r: &mut SnapshotReader,
        tag: &str,
        codes: usize,
        ema_decay: f64,
    ) -> Result<Self, PersistError> {
        let token_dim = r.dim(&format!("{tag}.token_dim"))?;
        let code_dim = r.dim(&format!("{tag}.code_dim"))?;
        let mut band = BandVq::new(token_dim, code_dim, codes, ema_decay, tag, &mut seeded(0));
        r.params(&format!("{tag}.params"), &mut band.params)?;
        let codebook = r.matrix(&format!("{tag}.codebook"))?;
        if codebook.rows() != codes || codebook.cols() != code_dim {
            return Err(PersistError::StructureMismatch {
                detail: format!(
                    "{tag} codebook is {}x{}, expected {codes}x{code_dim}",
                    codebook.rows(),
                    codebook.cols()
                ),
            });
        }
        let ema_counts = r.floats(&format!("{tag}.ema_counts"))?;
        if ema_counts.len() != codes {
            return Err(PersistError::StructureMismatch {
                detail: format!(
                    "{tag} has {} EMA counts, expected {codes}",
                    ema_counts.len()
                ),
            });
        }
        let ema_sums = r.matrix(&format!("{tag}.ema_sums"))?;
        if ema_sums.rows() != codes || ema_sums.cols() != code_dim {
            return Err(PersistError::StructureMismatch {
                detail: format!(
                    "{tag} EMA sums are {}x{}, expected {codes}x{code_dim}",
                    ema_sums.rows(),
                    ema_sums.cols()
                ),
            });
        }
        band.codebook = codebook;
        band.ema_counts = ema_counts;
        band.ema_sums = ema_sums;
        Ok(band)
    }

    /// Decodes code indices back to token vectors.
    fn decode_codes(&self, idx: &[usize]) -> Matrix {
        let q = self.codebook.select_rows(idx);
        self.tapes.run(&[&self.params], |t, b| {
            let qv = t.constant(q);
            let out = self.decoder.forward(t, &b[0], qv);
            t.value(out).clone()
        })
    }
}

struct Fitted {
    low: BandVq,
    high: BandVq,
    /// Prior counts: `prior[channel][frame][code]` per band.
    prior_low: Vec<Vec<Vec<f64>>>,
    prior_high: Vec<Vec<Vec<f64>>>,
    frames: usize,
    bins: usize,
    stft_cfg: StftConfig,
}

/// The TimeVQVAE method.
pub struct TimeVqVae {
    seq_len: usize,
    features: usize,
    fitted: Option<Fitted>,
}

impl TimeVqVae {
    /// A new untrained TimeVQVAE for `(seq_len, features)` windows.
    pub fn new(seq_len: usize, features: usize) -> Self {
        Self {
            seq_len,
            features,
            fitted: None,
        }
    }

    fn stft_config(&self) -> StftConfig {
        if self.seq_len > 8 {
            StftConfig::paper_default()
        } else {
            // very short windows: shrink the frame to keep the reflect
            // pad valid
            StftConfig { n_fft: 4, hop: 2 }
        }
    }

    /// Extracts per-frame band tokens from one channel of one sample:
    /// `(frames, low_dim)` and `(frames, high_dim)`.
    fn tokens(&self, xs: &[f64], cfg: StftConfig) -> (Matrix, Matrix, usize, usize) {
        let spec = stft(xs, cfg);
        let bins = spec.bins;
        let cut = BAND_CUT.min(bins);
        let low_dim = cut * 2;
        let high_dim = (bins - cut) * 2;
        let mut low = Matrix::zeros(spec.frames, low_dim);
        let mut high = Matrix::zeros(spec.frames, high_dim.max(1));
        for f in 0..spec.frames {
            for bi in 0..bins {
                let c = spec.at(f, bi);
                if bi < cut {
                    low[(f, bi * 2)] = c.re;
                    low[(f, bi * 2 + 1)] = c.im;
                } else if high_dim > 0 {
                    high[(f, (bi - cut) * 2)] = c.re;
                    high[(f, (bi - cut) * 2 + 1)] = c.im;
                }
            }
        }
        (low, high, low_dim, high_dim.max(1))
    }
}

fn flatten_prior(prior: &[Vec<Vec<f64>>]) -> Vec<f64> {
    prior
        .iter()
        .flat_map(|per_frame| per_frame.iter().flatten().copied())
        .collect()
}

fn unflatten_prior(
    flat: &[f64],
    name: &str,
    channels: usize,
    frames: usize,
    codes: usize,
) -> Result<Vec<Vec<Vec<f64>>>, PersistError> {
    if flat.len() != channels * frames * codes {
        return Err(PersistError::StructureMismatch {
            detail: format!(
                "{name} has {} weights, expected {channels}x{frames}x{codes}",
                flat.len()
            ),
        });
    }
    Ok((0..channels)
        .map(|ch| {
            (0..frames)
                .map(|f| {
                    let base = (ch * frames + f) * codes;
                    flat[base..base + codes].to_vec()
                })
                .collect()
        })
        .collect())
}

fn sample_categorical(weights: &[f64], rng: &mut SmallRng) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

impl TsgMethod for TimeVqVae {
    fn id(&self) -> MethodId {
        MethodId::TimeVqVae
    }

    fn fit(&mut self, train: &Tensor3, cfg: &TrainConfig, rng: &mut SmallRng) -> TrainReport {
        let start = Instant::now();
        let stft_cfg = self.stft_config();
        let (r, l, n) = train.shape();
        assert_eq!(l, self.seq_len);
        let frames = stft_cfg.frames_for(l);
        let bins = stft_cfg.bins();

        // probe dims
        let probe = self.tokens(&train.series(0, 0), stft_cfg);
        let (low_dim, high_dim) = (probe.2, probe.3);
        let code_dim = cfg.latent.max(2);
        let mut low = BandVq::new(low_dim, code_dim, CODES, EMA_DECAY, "low", rng);
        let mut high = BandVq::new(high_dim, code_dim, CODES, EMA_DECAY, "high", rng);
        let mut low_opt = Adam::new(cfg.lr);
        let mut high_opt = Adam::new(cfg.lr);
        let mut low_tape = Tape::new();
        let mut high_tape = Tape::new();
        let mut log = EpochLog::new(self.id(), cfg.epochs);

        let mut prior_low = vec![vec![vec![1e-3; CODES]; frames]; n];
        let mut prior_high = vec![vec![vec![1e-3; CODES]; frames]; n];

        for epoch in 0..cfg.epochs {
            let idx = minibatch(r, cfg.batch.min(16), rng);
            // gather tokens for the minibatch, all channels
            let mut low_rows: Vec<f64> = Vec::new();
            let mut high_rows: Vec<f64> = Vec::new();
            let mut meta: Vec<(usize, usize)> = Vec::new(); // (channel, frame)
            for &s in &idx {
                for ch in 0..n {
                    let (lo, hi, _, _) = self.tokens(&train.series(s, ch), stft_cfg);
                    for f in 0..frames {
                        low_rows.extend_from_slice(lo.row(f));
                        high_rows.extend_from_slice(hi.row(f));
                        meta.push((ch, f));
                    }
                }
            }
            let rows = meta.len();
            let low_x = Matrix::from_vec(rows, low_dim, low_rows).expect("token layout");
            let high_x = Matrix::from_vec(rows, high_dim, high_rows).expect("token layout");
            let (l_loss, l_idx) = low.train_step(&low_x, &mut low_opt, &mut low_tape);
            let (h_loss, h_idx) = high.train_step(&high_x, &mut high_opt, &mut high_tape);
            log.epoch(l_loss + h_loss);

            // accumulate the categorical prior over the final third of
            // training, once the codebook has stabilized
            if epoch * 3 >= cfg.epochs * 2 {
                for (row, &(ch, f)) in meta.iter().enumerate() {
                    prior_low[ch][f][l_idx[row]] += 1.0;
                    prior_high[ch][f][h_idx[row]] += 1.0;
                }
            }
        }

        self.fitted = Some(Fitted {
            low,
            high,
            prior_low,
            prior_high,
            frames,
            bins,
            stft_cfg,
        });
        log.finish(start)
    }

    fn generate(&self, n: usize, rng: &mut SmallRng) -> Tensor3 {
        let f = self
            .fitted
            .as_ref()
            .expect("TimeVQVAE::generate called before fit");
        let cut = BAND_CUT.min(f.bins);
        // stage 2: sample codes from the prior, every (window, channel)
        // in turn, its low band's frames before its high band's
        let rows = n * self.features * f.frames;
        let (mut li, mut hi) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
        for _ in 0..n {
            for ch in 0..self.features {
                li.extend((0..f.frames).map(|fr| sample_categorical(&f.prior_low[ch][fr], rng)));
                hi.extend((0..f.frames).map(|fr| sample_categorical(&f.prior_high[ch][fr], rng)));
            }
        }
        // one decode per band: the decoder is a single linear layer, so
        // a row's tokens do not depend on the rows stacked with it
        let lo_tokens = f.low.decode_codes(&li);
        let hi_tokens = f.high.decode_codes(&hi);
        let mut out = Tensor3::zeros(n, self.seq_len, self.features);
        for s in 0..n {
            for ch in 0..self.features {
                let base = (s * self.features + ch) * f.frames;
                // assemble the spectrogram
                let mut data = vec![Complex::ZERO; f.frames * f.bins];
                for fr in 0..f.frames {
                    let row = base + fr;
                    for bi in 0..f.bins {
                        let c = if bi < cut {
                            Complex::new(lo_tokens[(row, bi * 2)], lo_tokens[(row, bi * 2 + 1)])
                        } else {
                            let o = bi - cut;
                            if o * 2 + 1 < f.high.token_dim {
                                Complex::new(hi_tokens[(row, o * 2)], hi_tokens[(row, o * 2 + 1)])
                            } else {
                                Complex::ZERO
                            }
                        };
                        data[fr * f.bins + bi] = c;
                    }
                }
                let spec = Spectrogram {
                    data,
                    frames: f.frames,
                    bins: f.bins,
                    signal_len: self.seq_len,
                    config: f.stft_cfg,
                };
                let xs = istft(&spec);
                for (t_, &v) in xs.iter().enumerate() {
                    *out.at_mut(s, t_, ch) = v.clamp(0.0, 1.0);
                }
            }
        }
        out
    }

    fn save(&self) -> Option<Vec<u8>> {
        let f = self.fitted.as_ref()?;
        let mut w = SnapshotWriter::new(self.id(), self.seq_len, self.features);
        w.dim("codes", f.low.codes);
        w.float("ema_decay", f.low.ema_decay);
        w.dim("frames", f.frames);
        w.dim("bins", f.bins);
        w.dim("n_fft", f.stft_cfg.n_fft);
        w.dim("hop", f.stft_cfg.hop);
        f.low.write(&mut w, "low");
        f.high.write(&mut w, "high");
        w.floats("prior_low", &flatten_prior(&f.prior_low));
        w.floats("prior_high", &flatten_prior(&f.prior_high));
        Some(w.finish())
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let mut r = SnapshotReader::open(self.id(), self.seq_len, self.features, bytes)?;
        let codes = r.dim("codes")?;
        let ema_decay = r.float("ema_decay")?;
        let frames = r.dim("frames")?;
        let bins = r.dim("bins")?;
        let n_fft = r.dim("n_fft")?;
        let hop = r.dim("hop")?;
        let low = BandVq::read(&mut r, "low", codes, ema_decay)?;
        let high = BandVq::read(&mut r, "high", codes, ema_decay)?;
        let prior_low = unflatten_prior(
            &r.floats("prior_low")?,
            "prior_low",
            self.features,
            frames,
            codes,
        )?;
        let prior_high = unflatten_prior(
            &r.floats("prior_high")?,
            "prior_high",
            self.features,
            frames,
            codes,
        )?;
        r.finish()?;
        self.fitted = Some(Fitted {
            low,
            high,
            prior_low,
            prior_high,
            frames,
            bins,
            stft_cfg: StftConfig { n_fft, hop },
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;
    use tsgb_linalg::stats;

    fn toy_data(r: usize, l: usize, n: usize) -> Tensor3 {
        Tensor3::from_fn(r, l, n, |s, t, f| {
            0.5 + 0.3 * (std::f64::consts::TAU * t as f64 / 12.0 + (s % 4) as f64).sin()
                + 0.05 * f as f64
        })
    }

    #[test]
    fn trains_and_generates() {
        let mut rng = seeded(71);
        let data = toy_data(24, 24, 2);
        let mut m = TimeVqVae::new(24, 2);
        let cfg = TrainConfig {
            epochs: 12,
            ..TrainConfig::fast()
        };
        let report = m.fit(&data, &cfg, &mut rng);
        assert_eq!(report.loss_history.len(), 12);
        let gen = m.generate(5, &mut rng);
        assert_eq!(gen.shape(), (5, 24, 2));
        assert!(gen.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn vq_reconstruction_improves() {
        let mut rng = seeded(72);
        let data = toy_data(32, 24, 1);
        let mut m = TimeVqVae::new(24, 1);
        let cfg = TrainConfig {
            epochs: 120,
            lr: 4e-3,
            ..TrainConfig::fast()
        };
        let report = m.fit(&data, &cfg, &mut rng);
        let head: f64 = report.loss_history[..10].iter().sum::<f64>() / 10.0;
        let tail: f64 = report.loss_history[110..].iter().sum::<f64>() / 10.0;
        assert!(tail < head, "VQ loss should fall: {head} -> {tail}");
    }

    #[test]
    fn generated_level_matches_training_level() {
        let mut rng = seeded(73);
        let data = toy_data(48, 24, 1);
        let mut m = TimeVqVae::new(24, 1);
        let cfg = TrainConfig {
            epochs: 150,
            lr: 4e-3,
            ..TrainConfig::fast()
        };
        m.fit(&data, &cfg, &mut rng);
        let gen = m.generate(30, &mut rng);
        let mg = stats::mean(gen.as_slice());
        let mr = stats::mean(data.as_slice());
        assert!(
            (mg - mr).abs() < 0.15,
            "means too far: gen {mg} vs real {mr}"
        );
    }

    #[test]
    fn short_windows_use_small_frames() {
        let m = TimeVqVae::new(6, 1);
        assert_eq!(m.stft_config().n_fft, 4);
        let m2 = TimeVqVae::new(24, 1);
        assert_eq!(m2.stft_config().n_fft, 8);
    }
}
