//! Seeded contiguous mask-span generation for the imputation
//! scenario.
//!
//! Real sensor dropouts are *bursty* — a gap is a contiguous run of
//! missing steps, not i.i.d. salt-and-pepper holes (which
//! [`crate::impute::inject_missing`] already covers). [`SpanMask`]
//! reproduces that structure: per `(sample, feature)` channel it
//! places random contiguous spans until an exact per-channel coverage
//! target is hit, all from one seeded stream, so a mask is a pure
//! function of `(shape, spec, seed)` — the determinism the scenario
//! engine's golden fixtures and the eval cache's pre-drawn seed
//! streams rely on.

use tsgb_linalg::Tensor3;
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::{Rng, SeedableRng};

/// Configuration of a span mask.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskSpec {
    /// Target masked fraction per channel, clamped to `[0, 1]`. The
    /// realized per-channel count is exactly
    /// `round(rate * seq_len)` (clamped to the window).
    pub rate: f64,
    /// Length of each contiguous span; clamped to `[1, seq_len]`, so
    /// a span longer than the window degrades to a full-window span
    /// instead of panicking.
    pub span_len: usize,
}

impl Default for MaskSpec {
    fn default() -> Self {
        Self {
            rate: 0.15,
            span_len: 3,
        }
    }
}

/// A boolean mask over a `(R, l, N)` tensor: `true` = masked
/// (missing). Layout matches [`Tensor3`]'s row-major `(s, t, f)`
/// order, so [`SpanMask::bits`] can be digested or iterated flat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanMask {
    samples: usize,
    seq_len: usize,
    features: usize,
    bits: Vec<bool>,
}

impl SpanMask {
    /// Generates a seeded mask for a `(samples, seq_len, features)`
    /// tensor. Channels are visited in `(sample, feature)` order, each
    /// consuming from the same seeded stream, so the mask is a pure
    /// function of its arguments. Zero-size shapes yield an empty mask
    /// (no panic).
    pub fn generate(
        samples: usize,
        seq_len: usize,
        features: usize,
        spec: MaskSpec,
        seed: u64,
    ) -> SpanMask {
        let mut bits = vec![false; samples * seq_len * features];
        let rate = spec.rate.clamp(0.0, 1.0);
        // `round` of a NaN rate is NaN; `as usize` saturates it to 0,
        // so even a hostile spec cannot panic
        let target = ((rate * seq_len as f64).round() as usize).min(seq_len);
        let span = spec.span_len.clamp(1, seq_len.max(1));
        let mut rng = SmallRng::seed_from_u64(seed);
        if target > 0 {
            for s in 0..samples {
                for f in 0..features {
                    mask_channel(&mut bits, s, f, seq_len, features, target, span, &mut rng);
                }
            }
        }
        SpanMask {
            samples,
            seq_len,
            features,
            bits,
        }
    }

    /// The `(samples, seq_len, features)` shape this mask covers.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.samples, self.seq_len, self.features)
    }

    /// Whether entry `(s, t, f)` is masked.
    pub fn is_masked(&self, s: usize, t: usize, f: usize) -> bool {
        self.bits[(s * self.seq_len + t) * self.features + f]
    }

    /// The flat mask in `(s, t, f)` row-major order.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Total masked entries.
    pub fn masked_count(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Masked fraction over all entries (`0` for an empty mask).
    pub fn masked_fraction(&self) -> f64 {
        if self.bits.is_empty() {
            return 0.0;
        }
        self.masked_count() as f64 / self.bits.len() as f64
    }

    /// Copies `t`, replacing masked entries with NaN — the missing
    /// encoding [`crate::impute::fill_missing`] consumes, which is how
    /// the imputation scenario scores interpolation baselines against
    /// generator infill.
    pub fn apply_nan(&self, t: &Tensor3) -> Tensor3 {
        self.assert_shape(t);
        Tensor3::from_fn(self.samples, self.seq_len, self.features, |s, step, f| {
            if self.is_masked(s, step, f) {
                f64::NAN
            } else {
                t.at(s, step, f)
            }
        })
    }

    /// Merges two tensors through the mask: masked entries come from
    /// `infill`, observed entries from `base`.
    pub fn overlay(&self, base: &Tensor3, infill: &Tensor3) -> Tensor3 {
        self.assert_shape(base);
        self.assert_shape(infill);
        Tensor3::from_fn(self.samples, self.seq_len, self.features, |s, step, f| {
            if self.is_masked(s, step, f) {
                infill.at(s, step, f)
            } else {
                base.at(s, step, f)
            }
        })
    }

    /// The contiguous masked spans of one `(sample, feature)` channel
    /// as `(start, len)` pairs, in time order.
    pub fn spans(&self, s: usize, f: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut t = 0;
        while t < self.seq_len {
            if self.is_masked(s, t, f) {
                let start = t;
                while t < self.seq_len && self.is_masked(s, t, f) {
                    t += 1;
                }
                out.push((start, t - start));
            } else {
                t += 1;
            }
        }
        out
    }

    fn assert_shape(&self, t: &Tensor3) {
        assert_eq!(
            t.shape(),
            (self.samples, self.seq_len, self.features),
            "mask/tensor shape mismatch"
        );
    }
}

/// Masks exactly `target` steps of channel `(s, f)` with spans of
/// `span` steps: random starts until the budget is filled, then — if
/// overlap starves progress — a deterministic left-to-right sweep
/// tops the channel up so coverage is exact, not approximate.
#[allow(clippy::too_many_arguments)]
fn mask_channel(
    bits: &mut [bool],
    s: usize,
    f: usize,
    seq_len: usize,
    features: usize,
    target: usize,
    span: usize,
    rng: &mut SmallRng,
) {
    let idx = |t: usize| (s * seq_len + t) * features + f;
    let mut masked = 0;
    let mut attempts = 0;
    while masked < target && attempts < 16 * seq_len.max(1) {
        let start = rng.gen_range(0..seq_len);
        for t in start..(start + span).min(seq_len) {
            if masked == target {
                break;
            }
            if !bits[idx(t)] {
                bits[idx(t)] = true;
                masked += 1;
            }
        }
        attempts += 1;
    }
    // exact-coverage backstop (hit only under heavy span overlap)
    for t in 0..seq_len {
        if masked == target {
            break;
        }
        if !bits[idx(t)] {
            bits[idx(t)] = true;
            masked += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = MaskSpec {
            rate: 0.25,
            span_len: 3,
        };
        let a = SpanMask::generate(6, 16, 2, spec, 9);
        let b = SpanMask::generate(6, 16, 2, spec, 9);
        assert_eq!(a, b);
        let c = SpanMask::generate(6, 16, 2, spec, 10);
        assert_ne!(a, c, "different seeds must place different spans");
    }

    #[test]
    fn coverage_is_exact_per_channel() {
        let spec = MaskSpec {
            rate: 0.25,
            span_len: 4,
        };
        let m = SpanMask::generate(5, 16, 3, spec, 1);
        let per_channel = (0.25f64 * 16.0).round() as usize;
        for s in 0..5 {
            for f in 0..3 {
                let count: usize = (0..16).filter(|&t| m.is_masked(s, t, f)).count();
                assert_eq!(count, per_channel, "channel ({s},{f})");
            }
        }
        assert!((m.masked_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn masked_steps_form_spans() {
        // with span_len covering the target in one placement, every
        // channel is one contiguous run (or a clamped tail run)
        let spec = MaskSpec {
            rate: 0.25,
            span_len: 4,
        };
        let m = SpanMask::generate(8, 16, 1, spec, 3);
        for s in 0..8 {
            let spans = m.spans(s, 0);
            assert!(
                !spans.is_empty() && spans.iter().map(|&(_, l)| l).sum::<usize>() == 4,
                "sample {s}: {spans:?}"
            );
        }
    }

    #[test]
    fn overlay_and_nan_round_trip() {
        let base = Tensor3::from_fn(3, 8, 2, |s, t, f| (s * 16 + t * 2 + f) as f64);
        let infill = Tensor3::from_fn(3, 8, 2, |_, _, _| -1.0);
        let m = SpanMask::generate(3, 8, 2, MaskSpec::default(), 5);
        let holes = m.apply_nan(&base);
        let merged = m.overlay(&base, &infill);
        for s in 0..3 {
            for t in 0..8 {
                for f in 0..2 {
                    if m.is_masked(s, t, f) {
                        assert!(holes.at(s, t, f).is_nan());
                        assert_eq!(merged.at(s, t, f), -1.0);
                    } else {
                        assert_eq!(holes.at(s, t, f), base.at(s, t, f));
                        assert_eq!(merged.at(s, t, f), base.at(s, t, f));
                    }
                }
            }
        }
    }
}
