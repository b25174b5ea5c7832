//! The shared method interface: [`TsgMethod`], training configuration,
//! training reports, and minibatch helpers used by all ten methods.

use std::time::Instant;
use tsgb_linalg::rng::sample_without_replacement;
use tsgb_linalg::{Matrix, Tensor3};
use tsgb_nn::tape::{Tape, VarId};
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::Rng;

/// Identifier of one of the ten benchmarked methods (paper A1–A10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodId {
    /// A1 (Esteban et al., 2017).
    Rgan,
    /// A2 (Yoon et al., NeurIPS'19).
    TimeGan,
    /// A3 (Pei et al., ICDM'21).
    RtsGan,
    /// A4 (Seyfi et al., NeurIPS'22).
    CosciGan,
    /// A5 (Wang et al., AAAI'23).
    AecGan,
    /// A6 (Desai et al., 2021).
    TimeVae,
    /// A7 (Lee et al., AISTATS'23).
    TimeVqVae,
    /// A8 (Alaa et al., ICLR'21).
    FourierFlow,
    /// A9 (Jeon et al., NeurIPS'22).
    GtGan,
    /// A10 (Zhou et al., ICML'23).
    Ls4,
    /// Extension (paper Table 2, Mogren 2016): the earliest recurrent
    /// GAN for sequences.
    CRnnGan,
    /// Extension (Table 2, Ni et al. 2020/21): Wasserstein matching of
    /// expected path signatures — no discriminator training.
    SigWgan,
    /// Extension (Table 2, Xu et al. NeurIPS'20): causal optimal
    /// transport; here a Sinkhorn-divergence generator.
    CotGan,
    /// Extension (Table 2, Lim et al. 2023): score-based generation;
    /// here a DDPM discretization.
    Tsgm,
}

impl MethodId {
    /// All ten benchmarked methods, in the paper's A1–A10 order.
    pub const ALL: [MethodId; 10] = [
        MethodId::Rgan,
        MethodId::TimeGan,
        MethodId::RtsGan,
        MethodId::CosciGan,
        MethodId::AecGan,
        MethodId::TimeVae,
        MethodId::TimeVqVae,
        MethodId::FourierFlow,
        MethodId::GtGan,
        MethodId::Ls4,
    ];

    /// The four extension methods from Table 2 that this reproduction
    /// additionally implements (the paper's conclusion plans to
    /// "continually integrate emerging TSG methods").
    pub const EXTENDED: [MethodId; 4] = [
        MethodId::CRnnGan,
        MethodId::SigWgan,
        MethodId::CotGan,
        MethodId::Tsgm,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            MethodId::Rgan => "RGAN",
            MethodId::TimeGan => "TimeGAN",
            MethodId::RtsGan => "RTSGAN",
            MethodId::CosciGan => "COSCI-GAN",
            MethodId::AecGan => "AEC-GAN",
            MethodId::TimeVae => "TimeVAE",
            MethodId::TimeVqVae => "TimeVQVAE",
            MethodId::FourierFlow => "FourierFlow",
            MethodId::GtGan => "GT-GAN",
            MethodId::Ls4 => "LS4",
            MethodId::CRnnGan => "C-RNN-GAN",
            MethodId::SigWgan => "Sig-WGAN",
            MethodId::CotGan => "COT-GAN",
            MethodId::Tsgm => "TSGM",
        }
    }

    /// Inverse of [`MethodId::name`] (case-insensitive), covering the
    /// ten benchmarked and four extension methods.
    pub fn from_name(name: &str) -> Option<MethodId> {
        MethodId::ALL
            .into_iter()
            .chain(MethodId::EXTENDED)
            .find(|m| m.name().eq_ignore_ascii_case(name.trim()))
    }

    /// Instantiates the method for `(seq_len, features)` windows.
    pub fn create(self, seq_len: usize, features: usize) -> Box<dyn TsgMethod> {
        match self {
            MethodId::Rgan => Box::new(crate::rgan::Rgan::new(seq_len, features)),
            MethodId::TimeGan => Box::new(crate::timegan::TimeGan::new(seq_len, features)),
            MethodId::RtsGan => Box::new(crate::rtsgan::RtsGan::new(seq_len, features)),
            MethodId::CosciGan => Box::new(crate::coscigan::CosciGan::new(seq_len, features)),
            MethodId::AecGan => Box::new(crate::aecgan::AecGan::new(seq_len, features)),
            MethodId::TimeVae => Box::new(crate::timevae::TimeVae::new(seq_len, features)),
            MethodId::TimeVqVae => Box::new(crate::timevqvae::TimeVqVae::new(seq_len, features)),
            MethodId::FourierFlow => {
                Box::new(crate::fourierflow::FourierFlow::new(seq_len, features))
            }
            MethodId::GtGan => Box::new(crate::gtgan::GtGan::new(seq_len, features)),
            MethodId::Ls4 => Box::new(crate::ls4::Ls4::new(seq_len, features)),
            MethodId::CRnnGan => Box::new(crate::crnngan::CRnnGan::new(seq_len, features)),
            MethodId::SigWgan => Box::new(crate::sigwgan::SigWgan::new(seq_len, features)),
            MethodId::CotGan => Box::new(crate::cotgan::CotGan::new(seq_len, features)),
            MethodId::Tsgm => Box::new(crate::tsgm::Tsgm::new(seq_len, features)),
        }
    }
}

/// Capacity and schedule knobs shared by all methods.
///
/// Methods interpret `epochs` as their total optimization budget and
/// split it across internal phases where applicable (TimeGAN's three
/// phases, RTSGAN's AE-then-WGAN schedule, TimeVQVAE's two stages).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Total number of passes over the training windows.
    pub epochs: usize,
    /// Minibatch size (clamped to the dataset size).
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Hidden width of recurrent and dense blocks.
    pub hidden: usize,
    /// Latent dimensionality of VAE/AE-based methods.
    pub latent: usize,
}

impl TrainConfig {
    /// The reduced-scale profile used by tests and the CPU grid:
    /// everything trains in seconds.
    pub fn fast() -> Self {
        Self {
            epochs: 30,
            batch: 32,
            lr: 2e-3,
            hidden: 16,
            latent: 8,
        }
    }

    /// A middle profile for the `reproduce` binary.
    pub fn standard() -> Self {
        Self {
            epochs: 120,
            batch: 64,
            lr: 1e-3,
            hidden: 24,
            latent: 8,
        }
    }

    /// The paper's §5 settings (documented, not used by default: a
    /// pure-Rust CPU build at this scale would take days, like the
    /// original's "more than 1 day" GT-GAN rows).
    pub fn paper_scale() -> Self {
        Self {
            epochs: 10_000,
            batch: 128,
            lr: 1e-3,
            hidden: 64,
            latent: 8,
        }
    }
}

/// What `fit` reports back: the data behind the paper's training-time
/// row (M8) and the loss trajectories used in tests.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Wall-clock training duration in seconds.
    pub train_seconds: f64,
    /// Mean loss of each epoch (methods with multiple losses report
    /// their primary generator/ELBO/NLL loss).
    pub loss_history: Vec<f64>,
}

impl TrainReport {
    /// Builds a report from a start instant and history.
    pub fn finish(start: Instant, loss_history: Vec<f64>) -> Self {
        Self {
            train_seconds: start.elapsed().as_secs_f64(),
            loss_history,
        }
    }

    /// Final epoch loss (NaN when no epochs ran).
    pub fn final_loss(&self) -> f64 {
        self.loss_history.last().copied().unwrap_or(f64::NAN)
    }
}

/// The shared per-epoch observability hook of every training loop.
///
/// One `EpochLog` replaces the bare `Vec<f64>` loss history of each of
/// the fourteen `fit` implementations: [`EpochLog::epoch`] appends the
/// loss to the report history and — only while `tsgb-obs` recording is
/// enabled — emits the per-epoch loss gauge, the epoch wall-time
/// histogram, and the global epoch counter. With recording disabled
/// the hook is a plain `Vec::push` behind one relaxed atomic load (no
/// clock reads, no string formatting), keeping training inside the
/// perf-probe overhead budget. Gradient norms are observed where they
/// are already computed, in [`tsgb_nn::params::Params::clip_grad_norm`].
///
/// Metric names: `train.epochs` (counter), `train.loss.<METHOD>`
/// (gauge, last epoch), `train.epoch_ms.<METHOD>` and
/// `train.fit_s.<METHOD>` (histograms).
pub struct EpochLog {
    method: &'static str,
    history: Vec<f64>,
    /// Start of the epoch being timed; `None` while recording is off.
    tick: Option<Instant>,
}

impl EpochLog {
    /// A log for one `fit` call of `id`, sized for `epochs` entries.
    pub fn new(id: MethodId, epochs: usize) -> Self {
        Self {
            method: id.name(),
            history: Vec::with_capacity(epochs),
            tick: tsgb_obs::enabled().then(Instant::now),
        }
    }

    /// Records one finished epoch with its primary loss.
    pub fn epoch(&mut self, loss: f64) {
        if let Some(t0) = self.tick {
            let now = Instant::now();
            let ms = now.duration_since(t0).as_secs_f64() * 1e3;
            tsgb_obs::observe(&format!("train.epoch_ms.{}", self.method), ms);
            tsgb_obs::gauge_set(&format!("train.loss.{}", self.method), loss);
            tsgb_obs::counter_add("train.epochs", 1);
            self.tick = Some(now);
        }
        self.history.push(loss);
    }

    /// Closes the log into the method's [`TrainReport`].
    pub fn finish(self, start: Instant) -> TrainReport {
        let report = TrainReport::finish(start, self.history);
        if tsgb_obs::enabled() {
            tsgb_obs::observe(
                &format!("train.fit_s.{}", self.method),
                report.train_seconds,
            );
        }
        report
    }
}

/// The architecture-determining slice of the fit-time configuration.
///
/// Every method keeps the `FitDims` of its last `fit` so a checkpoint
/// ([`TsgMethod::save`]) can rebuild bit-identical net shapes at load
/// time; the remaining [`TrainConfig`] fields (epochs, lr, batch) only
/// steer optimization and are irrelevant to a restored model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitDims {
    /// Hidden width of recurrent and dense blocks.
    pub hidden: usize,
    /// Latent dimensionality (noise dim for GANs).
    pub latent: usize,
}

impl FitDims {
    /// Captures the dims of a training configuration.
    pub fn of(cfg: &TrainConfig) -> Self {
        Self {
            hidden: cfg.hidden,
            latent: cfg.latent,
        }
    }

    /// A configuration that rebuilds the same architecture (schedule
    /// fields are placeholders — a restored model never trains).
    pub fn config(self) -> TrainConfig {
        TrainConfig {
            hidden: self.hidden,
            latent: self.latent,
            ..TrainConfig::fast()
        }
    }
}

/// One request of a batched generation call: draw `n` windows from
/// the deterministic stream seeded with `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenSpec {
    /// How many windows this request wants.
    pub n: usize,
    /// Seed of the request's private RNG stream.
    pub seed: u64,
}

impl GenSpec {
    /// The request's RNG, positioned at the start of its stream.
    pub fn rng(&self) -> SmallRng {
        tsgb_linalg::rng::seeded(self.seed)
    }
}

/// The reference semantics of [`TsgMethod::generate_batch`]: one
/// independent `generate` call per spec, each on its own seeded
/// stream. The fused batch must match this bit-exactly.
pub fn serial_generate_batch<M: TsgMethod + ?Sized>(method: &M, specs: &[GenSpec]) -> Vec<Tensor3> {
    specs
        .iter()
        .map(|s| method.generate(s.n, &mut s.rng()))
        .collect()
}

/// Vertically stacks same-width matrices into one row-major batch.
fn vstack<'a>(mats: impl IntoIterator<Item = &'a Matrix>) -> Matrix {
    let mats: Vec<&Matrix> = mats.into_iter().collect();
    assert!(!mats.is_empty(), "cannot stack zero matrices");
    let cols = mats[0].cols();
    let rows = mats.iter().map(|m| m.rows()).sum();
    let mut data = Vec::with_capacity(rows * cols);
    for m in &mats {
        assert_eq!(m.cols(), cols, "inconsistent widths");
        data.extend_from_slice(m.as_slice());
    }
    Matrix::from_vec(rows, cols, data).expect("stacked layout")
}

/// Splits a fused `(Σn, l, N)` tensor back into per-request tensors.
fn split_samples(fused: &Tensor3, counts: &[usize]) -> Vec<Tensor3> {
    let mut out = Vec::with_capacity(counts.len());
    let mut off = 0;
    for &c in counts {
        out.push(fused.slice_samples(off, off + c));
        off += c;
    }
    assert_eq!(off, fused.samples(), "split counts must cover the batch");
    out
}

/// The two halves of a method's sampler: all of a request's noise,
/// then one forward pass over it.
///
/// RGAN, TimeGAN, RTSGAN, TimeVAE, GT-GAN, LS4, C-RNN-GAN, Sig-WGAN and
/// COT-GAN implement it, and their `generate` is
/// `decode(&draw(n, rng))`. Because the decode is row-independent, the
/// other entry points are derived from the same two functions, bit for
/// bit: [`TsgMethod::generate_batch`] stacks several requests' draws
/// into one decode, [`TsgMethod::open_stream`] decodes each chunk's
/// rows on pull, and [`decode_conditioned`] shifts the draw before the
/// decode.
pub trait NoiseDecoder: Sync {
    /// Draws all of an `n`-window request's noise, in the order
    /// `generate` draws it. Every matrix has `n` rows.
    fn draw(&self, n: usize, rng: &mut SmallRng) -> Vec<Matrix>;

    /// The forward pass from noise to windows. Row `i` of the output
    /// depends only on row `i` of each matrix, bit for bit, however
    /// many rows the matrices hold.
    fn decode(&self, noise: &[Matrix]) -> Tensor3;
}

/// Conditioned sampling through a [`NoiseDecoder`]: draws the
/// request's noise, shifts every matrix by the condition's direction
/// in its column space, and decodes. At strength 0 the shift is a
/// no-op, so the result is bit-identical to `generate(n, rng)`.
pub fn decode_conditioned(
    decoder: &dyn NoiseDecoder,
    n: usize,
    cond: &Condition,
    rng: &mut SmallRng,
) -> Tensor3 {
    let mut noise = decoder.draw(n, rng);
    for z in &mut noise {
        shift_columns(z, &cond.direction(z.cols()));
    }
    decoder.decode(&noise)
}

/// A synthetic time-series generator trainable on `(R, l, N)` windows
/// normalized to `[0, 1]`.
///
/// `Send + Sync` is part of the contract: methods hold only owned
/// numeric state after `fit`, so a trained model can be shared across
/// the connection threads of `tsgb-serve`, which run its batches.
pub trait TsgMethod: Send + Sync {
    /// The registry id.
    fn id(&self) -> MethodId;

    /// Display name.
    fn name(&self) -> &'static str {
        self.id().name()
    }

    /// Trains on the window tensor. Must be called before `generate`.
    fn fit(&mut self, train: &Tensor3, cfg: &TrainConfig, rng: &mut SmallRng) -> TrainReport;

    /// Draws `n` synthetic windows of the training shape.
    ///
    /// # Panics
    /// Panics when called before `fit`.
    fn generate(&self, n: usize, rng: &mut SmallRng) -> Tensor3;

    /// The method's sampler split into noise and decode, when it has
    /// one (see [`NoiseDecoder`]). `None` — the default — leaves the
    /// method on serial batches and the eager stream.
    fn noise_decoder(&self) -> Option<&dyn NoiseDecoder> {
        None
    }

    /// Generates for several independent seeded requests in one call.
    ///
    /// The contract is bit-exact equivalence with the serial path:
    /// element `i` of the result equals
    /// `self.generate(specs[i].n, &mut seeded(specs[i].seed))`.
    /// A method with a [`NoiseDecoder`] fuses the batch: each request
    /// draws its noise from its own stream, the draws are stacked into
    /// one decode, and the rows are split back per request. Row
    /// independence of the decode makes that exact, and it is what
    /// makes request coalescing in `tsgb-serve` pay. Methods without a
    /// decoder (COSCI-GAN, AEC-GAN, TimeVQVAE, FourierFlow, TSGM), a
    /// lone request and a batch holding an empty request take
    /// [`serial_generate_batch`].
    fn generate_batch(&self, specs: &[GenSpec]) -> Vec<Tensor3> {
        let fusable = specs.len() >= 2 && specs.iter().all(|s| s.n > 0);
        let Some(decoder) = self.noise_decoder().filter(|_| fusable) else {
            return serial_generate_batch(self, specs);
        };
        let draws: Vec<Vec<Matrix>> = specs
            .iter()
            .map(|s| decoder.draw(s.n, &mut s.rng()))
            .collect();
        // noise position k of every request, stacked into one matrix
        let stacked: Vec<Matrix> = (0..draws[0].len())
            .map(|k| vstack(draws.iter().map(|d| &d[k])))
            .collect();
        let counts: Vec<usize> = specs.iter().map(|s| s.n).collect();
        split_samples(&decoder.decode(&stacked), &counts)
    }

    /// Opens a window stream for one request. The chunks yielded by
    /// the returned [`WindowStream`] concatenate to exactly
    /// `self.generate(spec.n, &mut spec.rng())`, bit for bit, for any
    /// chunk-size sequence — streaming is invisible in the samples,
    /// the same way batching is. A method with a [`NoiseDecoder`]
    /// draws the request's noise when the stream opens and decodes
    /// each chunk's rows when the chunk is pulled; row independence of
    /// the decode makes the slices exact, and deferring the forward
    /// pass gives the streaming endpoint its time-to-first-chunk
    /// advantage. Methods without a decoder materialize the one-shot
    /// tensor up front and hand it out slice by slice.
    fn open_stream(&self, spec: GenSpec) -> Box<dyn WindowStream + '_> {
        match self.noise_decoder() {
            Some(decoder) => Box::new(DecodeStream {
                decoder,
                noise: decoder.draw(spec.n, &mut spec.rng()),
                n: spec.n,
                offset: 0,
            }),
            None => Box::new(EagerStream {
                tensor: self.generate(spec.n, &mut spec.rng()),
                offset: 0,
            }),
        }
    }

    /// The conditional-sampling capability, when the method has one
    /// (class-/covariate-conditioned noise shaping, see
    /// [`ConditionalSample`]). `None` — the default — means requests
    /// carrying a `condition` are rejected for this method.
    fn conditional(&self) -> Option<&dyn ConditionalSample> {
        None
    }

    /// Serializes the trained model into a self-describing `TSGBCK02`
    /// checkpoint (`None` before `fit`). See [`crate::persist`].
    fn save(&self) -> Option<Vec<u8>>;

    /// Restores a model saved by [`TsgMethod::save`] into this
    /// instance (created for the same `(seq_len, features)` shape).
    /// After a successful load, `generate` is bit-identical to the
    /// saved model's.
    fn load(&mut self, bytes: &[u8]) -> Result<(), crate::persist::PersistError>;
}

/// A stateful sampler that emits one request's windows in chunks (the
/// compute half of the streaming scenario; `tsgb-serve` frames each
/// chunk as one `Transfer-Encoding: chunked` body part).
///
/// Contract: concatenating every yielded chunk reproduces the one-shot
/// `generate(n, seed)` tensor bit for bit, regardless of how the pulls
/// are sized.
pub trait WindowStream: Send {
    /// Draws the next `min(len, remaining)` windows; `None` once all
    /// windows have been emitted. `len` is clamped to at least 1.
    fn next_chunk(&mut self, len: usize) -> Option<Tensor3>;

    /// Windows not yet emitted.
    fn remaining(&self) -> usize;
}

/// The [`TsgMethod::open_stream`] backend of a method without a
/// [`NoiseDecoder`]: the fully materialized one-shot tensor, handed
/// out slice by slice.
struct EagerStream {
    tensor: Tensor3,
    offset: usize,
}

impl WindowStream for EagerStream {
    fn next_chunk(&mut self, len: usize) -> Option<Tensor3> {
        if self.offset >= self.tensor.samples() {
            return None;
        }
        let end = (self.offset + len.max(1)).min(self.tensor.samples());
        let out = self.tensor.slice_samples(self.offset, end);
        self.offset = end;
        Some(out)
    }

    fn remaining(&self) -> usize {
        self.tensor.samples() - self.offset
    }
}

/// The [`TsgMethod::open_stream`] backend of a method with a
/// [`NoiseDecoder`]: the request's noise, drawn when the stream opens,
/// with each chunk's rows decoded on pull.
struct DecodeStream<'a> {
    decoder: &'a dyn NoiseDecoder,
    noise: Vec<Matrix>,
    n: usize,
    offset: usize,
}

impl WindowStream for DecodeStream<'_> {
    fn next_chunk(&mut self, len: usize) -> Option<Tensor3> {
        if self.offset >= self.n {
            return None;
        }
        let end = (self.offset + len.max(1)).min(self.n);
        let rows: Vec<Matrix> = self
            .noise
            .iter()
            .map(|z| z.slice_rows(self.offset, end))
            .collect();
        self.offset = end;
        Some(self.decoder.decode(&rows))
    }

    fn remaining(&self) -> usize {
        self.n - self.offset
    }
}

/// Salt of the per-class direction stream (see
/// [`Condition::direction`]); any stable constant works, it only has
/// to differ from the generation seeds' domain.
pub const CONDITION_SALT: u64 = 0xC0DE_5EED_0001;

/// A generation condition for [`ConditionalSample`]: what to condition
/// on, plus how strongly to shape the noise toward it. `strength 0`
/// must reproduce the unconditional stream bit for bit (implementers
/// short-circuit the zero shift).
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// A class label: the shift direction is a deterministic unit
    /// vector drawn from a stream seeded by the label, so each class
    /// claims a stable region of the noise space.
    Class {
        /// The class id.
        label: u32,
        /// Shift magnitude in noise-space standard deviations.
        strength: f64,
    },
    /// A covariate vector: the values are cycled across the noise
    /// dimensions and normalized, so correlated covariates map to a
    /// stable direction.
    Covariate {
        /// The covariate values (empty means no shift).
        values: Vec<f64>,
        /// Shift magnitude in noise-space standard deviations.
        strength: f64,
    },
}

impl Condition {
    /// The shift magnitude.
    pub fn strength(&self) -> f64 {
        match self {
            Condition::Class { strength, .. } | Condition::Covariate { strength, .. } => *strength,
        }
    }

    /// The deterministic shift vector in a `dim`-dimensional noise
    /// space: a unit direction scaled by [`Condition::strength`]. A
    /// zero strength (or an empty/zero covariate vector) yields the
    /// all-zero shift.
    pub fn direction(&self, dim: usize) -> Vec<f64> {
        let strength = self.strength();
        if dim == 0 || strength == 0.0 {
            return vec![0.0; dim];
        }
        let mut v = match self {
            Condition::Class { label, .. } => {
                let mut rng = tsgb_linalg::rng::seeded(CONDITION_SALT ^ u64::from(*label));
                (0..dim)
                    .map(|_| tsgb_linalg::rng::randn(&mut rng))
                    .collect::<Vec<f64>>()
            }
            Condition::Covariate { values, .. } => {
                if values.is_empty() {
                    return vec![0.0; dim];
                }
                (0..dim).map(|i| values[i % values.len()]).collect()
            }
        };
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            return vec![0.0; dim];
        }
        for x in &mut v {
            *x *= strength / norm;
        }
        v
    }
}

/// Adds `shift[c]` to every entry of column `c`. A no-op (and
/// bit-preserving) when the shift is all zeros, which is what keeps
/// `strength 0` identical to the unconditional draw.
pub fn shift_columns(m: &mut Matrix, shift: &[f64]) {
    assert_eq!(m.cols(), shift.len(), "shift width mismatch");
    if shift.iter().all(|&s| s == 0.0) {
        return;
    }
    for r in 0..m.rows() {
        for (c, &s) in shift.iter().enumerate() {
            m[(r, c)] += s;
        }
    }
}

/// The conditional-sampling capability: class-/covariate-conditioned
/// noise shaping for methods whose generator consumes an explicit
/// noise/latent stream (RGAN shifts its per-step noise, TimeVAE its
/// latent draw, both through [`decode_conditioned`]). Exposed on
/// [`TsgMethod::conditional`], which is `None` for methods without it.
pub trait ConditionalSample {
    /// Draws `n` windows conditioned on `cond`. The contract mirrors
    /// [`TsgMethod::generate`]: a pure function of
    /// `(checkpoint, n, cond, rng stream)`, and with
    /// `cond.strength() == 0` bit-identical to the unconditional
    /// `generate(n, rng)` on the same stream.
    fn generate_conditioned(&self, n: usize, cond: &Condition, rng: &mut SmallRng) -> Tensor3;
}

/// Gathers the samples at `idx` as per-step matrices: element `t` of
/// the result is the `(batch, N)` matrix of step `t` across the batch.
/// This is the layout recurrent models consume.
pub fn gather_step_matrices(data: &Tensor3, idx: &[usize]) -> Vec<Matrix> {
    let (_, l, n) = data.shape();
    let mut steps = vec![Matrix::zeros(idx.len(), n); l];
    for (row, &s) in idx.iter().enumerate() {
        for (t, step) in steps.iter_mut().enumerate() {
            for f in 0..n {
                step[(row, f)] = data.at(s, t, f);
            }
        }
    }
    steps
}

/// Inverse of [`gather_step_matrices`]: stacks `l` matrices of shape
/// `(batch, N)` into a `(batch, l, N)` tensor.
pub fn steps_to_tensor(steps: &[Matrix]) -> Tensor3 {
    assert!(!steps.is_empty(), "cannot stack zero steps");
    let (batch, n) = steps[0].shape();
    let l = steps.len();
    let mut out = Tensor3::zeros(batch, l, n);
    for (t, m) in steps.iter().enumerate() {
        assert_eq!(m.shape(), (batch, n), "inconsistent step shapes");
        for b in 0..batch {
            for f in 0..n {
                *out.at_mut(b, t, f) = m[(b, f)];
            }
        }
    }
    out
}

/// Copies the batch another step's tape `g` recorded (a G step's
/// fakes, TimeGAN's real embeddings) onto a D step's tape `d` as
/// constants, so the D step reads that one forward pass instead of
/// running it again. A replayed op computes as it is declared, so
/// [`Tape::value`] reads this step's bits mid-step.
pub(crate) fn copy_fakes(g: &Tape, fakes: &[VarId], d: &mut Tape) -> Vec<VarId> {
    fakes.iter().map(|&f| d.constant_copy(g.value(f))).collect()
}

/// Draws a random minibatch of sample indices.
pub fn minibatch(total: usize, batch: usize, rng: &mut SmallRng) -> Vec<usize> {
    let b = batch.min(total);
    if b == total {
        (0..total).collect()
    } else {
        sample_without_replacement(total, b, rng)
    }
}

/// A `(rows, cols)` matrix of i.i.d. standard normals — per-step GAN
/// noise.
pub fn noise(rows: usize, cols: usize, rng: &mut SmallRng) -> Matrix {
    tsgb_linalg::rng::randn_matrix(rows, cols, rng)
}

/// A `(rows, cols)` matrix of `U[0,1)` noise.
pub fn uniform_noise(rows: usize, cols: usize, rng: &mut SmallRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;

    #[test]
    fn step_matrices_roundtrip() {
        let t = Tensor3::from_fn(4, 3, 2, |s, t, f| (s * 100 + t * 10 + f) as f64);
        let steps = gather_step_matrices(&t, &[0, 1, 2, 3]);
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[1][(2, 1)], 211.0);
        let back = steps_to_tensor(&steps);
        assert_eq!(back, t);
    }

    #[test]
    fn gather_respects_index_order() {
        let t = Tensor3::from_fn(3, 2, 1, |s, _, _| s as f64);
        let steps = gather_step_matrices(&t, &[2, 0]);
        assert_eq!(steps[0].col(0), vec![2.0, 0.0]);
    }

    #[test]
    fn minibatch_bounds() {
        let mut rng = seeded(1);
        let mb = minibatch(10, 32, &mut rng);
        assert_eq!(mb.len(), 10);
        let mb2 = minibatch(100, 8, &mut rng);
        assert_eq!(mb2.len(), 8);
        assert!(mb2.iter().all(|&i| i < 100));
    }

    #[test]
    fn method_registry_is_complete() {
        assert_eq!(MethodId::ALL.len(), 10);
        for id in MethodId::ALL {
            assert!(!id.name().is_empty());
        }
    }
}
