//! Edge-case coverage for the seeded transforms the scenario engine
//! leans on: `tsgb_data::drift` injectors and the `tsgb_data::mask`
//! span generator. The contract under test: degenerate shapes and
//! extreme parameters never panic, and everything stays
//! seed-deterministic.

use tsgb_data::drift::{inject, DriftKind};
use tsgb_data::mask::{MaskSpec, SpanMask};
use tsgb_linalg::Tensor3;

fn tiny(r: usize, l: usize, n: usize) -> Tensor3 {
    Tensor3::from_fn(r, l, n, |s, t, f| (s + t + f) as f64 * 0.1)
}

// ---- drift ----

#[test]
fn drift_handles_zero_sample_tensors() {
    let empty = Tensor3::zeros(0, 8, 2);
    for kind in DriftKind::ALL {
        let out = inject(&empty, kind, 1.0, 7);
        assert_eq!(out.shape(), (0, 8, 2), "{kind:?}");
    }
}

#[test]
fn drift_handles_single_step_windows() {
    // l = 1: midpoint ramp and quarter-window rotation both degenerate
    let t = tiny(4, 1, 2);
    for kind in DriftKind::ALL {
        let out = inject(&t, kind, 1.0, 7);
        assert_eq!(out.shape(), (4, 1, 2), "{kind:?}");
        assert!(out.all_finite(), "{kind:?}");
    }
    // a 1-step rotation is the identity
    assert_eq!(inject(&t, DriftKind::SeasonalityShift, 1.0, 0), t);
}

#[test]
fn drift_handles_zero_feature_tensors() {
    let t = Tensor3::zeros(3, 6, 0);
    for kind in DriftKind::ALL {
        assert_eq!(inject(&t, kind, 2.0, 1).shape(), (3, 6, 0), "{kind:?}");
    }
}

#[test]
fn drift_is_seed_deterministic_on_edge_shapes() {
    for shape in [(1usize, 1usize, 1usize), (2, 2, 1), (0, 4, 2)] {
        let t = tiny(shape.0, shape.1, shape.2);
        for kind in DriftKind::ALL {
            assert_eq!(
                inject(&t, kind, 1.5, 11),
                inject(&t, kind, 1.5, 11),
                "{kind:?} {shape:?}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "non-negative")]
fn drift_rejects_negative_severity() {
    inject(&tiny(2, 4, 1), DriftKind::TrendBreak, -1.0, 0);
}

// ---- mask spans ----

#[test]
fn mask_handles_zero_length_series() {
    // l = 0: no entries to mask, and no panic from an empty range
    let m = SpanMask::generate(4, 0, 2, MaskSpec::default(), 3);
    assert_eq!(m.shape(), (4, 0, 2));
    assert_eq!(m.masked_count(), 0);
    assert_eq!(m.masked_fraction(), 0.0);
    let t = Tensor3::zeros(4, 0, 2);
    assert_eq!(m.apply_nan(&t).shape(), (4, 0, 2));
}

#[test]
fn mask_handles_zero_samples_and_features() {
    let spec = MaskSpec {
        rate: 0.5,
        span_len: 2,
    };
    assert_eq!(SpanMask::generate(0, 8, 2, spec, 1).masked_count(), 0);
    assert_eq!(SpanMask::generate(3, 8, 0, spec, 1).masked_count(), 0);
}

#[test]
fn mask_rate_zero_masks_nothing() {
    let m = SpanMask::generate(
        5,
        12,
        2,
        MaskSpec {
            rate: 0.0,
            span_len: 3,
        },
        9,
    );
    assert_eq!(m.masked_count(), 0);
}

#[test]
fn mask_rate_one_masks_everything() {
    let m = SpanMask::generate(
        5,
        12,
        2,
        MaskSpec {
            rate: 1.0,
            span_len: 3,
        },
        9,
    );
    assert_eq!(m.masked_count(), 5 * 12 * 2);
    assert_eq!(m.masked_fraction(), 1.0);
}

#[test]
fn mask_rate_is_clamped_not_panicking() {
    let over = SpanMask::generate(
        2,
        8,
        1,
        MaskSpec {
            rate: 7.5,
            span_len: 2,
        },
        0,
    );
    assert_eq!(over.masked_fraction(), 1.0);
    let under = SpanMask::generate(
        2,
        8,
        1,
        MaskSpec {
            rate: -3.0,
            span_len: 2,
        },
        0,
    );
    assert_eq!(under.masked_count(), 0);
}

#[test]
fn span_longer_than_window_is_clamped() {
    let m = SpanMask::generate(
        4,
        6,
        1,
        MaskSpec {
            rate: 0.5,
            span_len: 100,
        },
        2,
    );
    // exact per-channel coverage survives the clamp
    for s in 0..4 {
        assert_eq!(m.spans(s, 0).iter().map(|&(_, l)| l).sum::<usize>(), 3);
    }
}

#[test]
fn span_zero_is_clamped_to_one() {
    let m = SpanMask::generate(
        3,
        10,
        1,
        MaskSpec {
            rate: 0.3,
            span_len: 0,
        },
        4,
    );
    assert_eq!(m.masked_count(), 3 * 3);
}

#[test]
fn mask_is_seed_deterministic_on_edge_shapes() {
    for (r, l, n) in [(1usize, 1usize, 1usize), (2, 3, 1), (1, 16, 4)] {
        let spec = MaskSpec {
            rate: 0.4,
            span_len: 5,
        };
        assert_eq!(
            SpanMask::generate(r, l, n, spec, 21),
            SpanMask::generate(r, l, n, spec, 21),
            "({r},{l},{n})"
        );
    }
}
