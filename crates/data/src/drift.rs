//! Seeded drift injectors for monitor drills and tests.
//!
//! A quality monitor is only trustworthy if it demonstrably fires on
//! the failure modes generative models actually exhibit. These pure,
//! seeded transforms produce such failures on demand from any healthy
//! window set: a broken trend (level shift growing through the
//! window), a shifted seasonality (circular phase rotation), and a
//! noise ramp (variance growing through the window). The serve
//! tier's `/drill` endpoint and `monitor_http.rs` apply them to
//! reference resamples and assert the monitor flags each within a
//! bounded number of windows.

use tsgb_linalg::Tensor3;
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::{Rng, SeedableRng};

/// A quality failure mode a drill can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// A level break: after the window midpoint every value gains a
    /// ramp, breaking marginals (MDD) and moments (SD/KD).
    TrendBreak,
    /// A seasonality shift: each series is circularly rotated by a
    /// quarter window, breaking the autocorrelation structure (ACD).
    SeasonalityShift,
    /// A noise ramp: seeded Gaussian-ish noise whose amplitude grows
    /// through the window, inflating variance and kurtosis.
    NoiseRamp,
}

impl DriftKind {
    /// All injectable kinds, in drill order.
    pub const ALL: [DriftKind; 3] = [
        DriftKind::TrendBreak,
        DriftKind::SeasonalityShift,
        DriftKind::NoiseRamp,
    ];

    /// Stable lowercase name (the wire format of `/drill`).
    pub fn name(self) -> &'static str {
        match self {
            DriftKind::TrendBreak => "trend_break",
            DriftKind::SeasonalityShift => "seasonality_shift",
            DriftKind::NoiseRamp => "noise_ramp",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(s: &str) -> Option<DriftKind> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Applies a drift to every window of `t`, seeded so drills are
/// reproducible. `severity` scales the injected magnitude; `1.0` is
/// calibrated to break a `[0, 1]`-normalized or `[-1, 1]` dataset
/// decisively without leaving its order of magnitude.
pub fn inject(t: &Tensor3, kind: DriftKind, severity: f64, seed: u64) -> Tensor3 {
    assert!(severity >= 0.0, "severity must be non-negative");
    let (r, l, n) = t.shape();
    let mut rng = SmallRng::seed_from_u64(seed);
    match kind {
        DriftKind::TrendBreak => Tensor3::from_fn(r, l, n, |s, step, f| {
            let v = t.at(s, step, f);
            if step >= l / 2 {
                // ramp from 0 at the midpoint to `0.6 * severity` at
                // the window end
                let frac = (step - l / 2) as f64 / ((l - l / 2).max(1)) as f64;
                v + 0.6 * severity * frac
            } else {
                v
            }
        }),
        DriftKind::SeasonalityShift => {
            let shift = (l / 4).max(1);
            Tensor3::from_fn(r, l, n, |s, step, f| t.at(s, (step + shift) % l, f))
        }
        DriftKind::NoiseRamp => {
            let mut out = t.clone();
            // sample in (s, step, f) order so the output is a pure
            // function of (t, severity, seed)
            for s in 0..r {
                for step in 0..l {
                    let amp = 0.5 * severity * step as f64 / (l - 1).max(1) as f64;
                    for f in 0..n {
                        // sum of uniforms: cheap, bounded, zero-mean
                        let e: f64 = rng.gen::<f64>() + rng.gen::<f64>() - 1.0;
                        *out.at_mut(s, step, f) += amp * e;
                    }
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;
    use tsgb_linalg::stats;

    fn sines(r: usize, l: usize, n: usize, seed: u64) -> Tensor3 {
        let mut rng = seeded(seed);
        Tensor3::from_fn(r, l, n, |_, t, _| {
            let phase: f64 = rng.gen::<f64>() * std::f64::consts::TAU;
            0.5 + 0.4 * (0.7 * t as f64 + phase).sin()
        })
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let t = sines(10, 12, 2, 1);
        for kind in DriftKind::ALL {
            let a = inject(&t, kind, 1.0, 42);
            let b = inject(&t, kind, 1.0, 42);
            assert_eq!(a, b, "{kind:?}");
            if kind == DriftKind::NoiseRamp {
                let c = inject(&t, kind, 1.0, 43);
                assert_ne!(a, c, "different seeds must differ");
            }
        }
    }

    #[test]
    fn trend_break_leaves_the_first_half_untouched() {
        let t = sines(8, 10, 2, 2);
        let d = inject(&t, DriftKind::TrendBreak, 1.0, 0);
        for s in 0..8 {
            for step in 0..5 {
                for f in 0..2 {
                    assert_eq!(d.at(s, step, f), t.at(s, step, f));
                }
            }
        }
        // the second half gains a strictly growing offset
        assert!(d.at(0, 9, 0) > t.at(0, 9, 0));
    }

    #[test]
    fn seasonality_shift_is_a_rotation() {
        let t = sines(5, 12, 1, 3);
        let d = inject(&t, DriftKind::SeasonalityShift, 1.0, 0);
        let shift = 3; // l / 4
        for s in 0..5 {
            for step in 0..12 {
                assert_eq!(d.at(s, step, 0), t.at(s, (step + shift) % 12, 0));
            }
        }
        // a rotation preserves the pooled value multiset exactly
        let mut a: Vec<f64> = t.as_slice().to_vec();
        let mut b: Vec<f64> = d.as_slice().to_vec();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b);
    }

    #[test]
    fn noise_ramp_inflates_late_step_variance() {
        let t = sines(200, 16, 1, 4);
        let d = inject(&t, DriftKind::NoiseRamp, 1.0, 7);
        let step_var = |x: &Tensor3, step: usize| {
            let vals: Vec<f64> = (0..x.samples()).map(|s| x.at(s, step, 0)).collect();
            stats::variance(&vals)
        };
        // step 0 gets zero noise amplitude; the last step gets the most
        assert_eq!(step_var(&d, 0), step_var(&t, 0));
        assert!(step_var(&d, 15) > step_var(&t, 15) + 0.01);
    }

    #[test]
    fn zero_severity_changes_nothing_additive() {
        let t = sines(6, 8, 2, 5);
        assert_eq!(inject(&t, DriftKind::TrendBreak, 0.0, 0), t);
        assert_eq!(inject(&t, DriftKind::NoiseRamp, 0.0, 0), t);
    }

    #[test]
    fn names_round_trip() {
        for kind in DriftKind::ALL {
            assert_eq!(DriftKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(DriftKind::parse("nope"), None);
    }
}
