#![warn(missing_docs)]

//! `tsgb-rand`: a vendored, dependency-free subset of the `rand` crate
//! API surface this workspace actually uses.
//!
//! The benchmark environment builds with no access to the crates.io
//! registry, so the external `rand` dependency is replaced by this
//! in-tree shim. It provides:
//!
//! * [`rngs::SmallRng`] — xoshiro256++ seeded via SplitMix64 (the same
//!   algorithm family `rand 0.8` uses for its 64-bit `SmallRng`);
//! * [`SeedableRng::seed_from_u64`] — deterministic construction;
//! * [`Rng::gen`], [`Rng::gen_range`], [`Rng::gen_bool`] — the sampling
//!   calls used by the data generators, methods, and eval suite.
//!
//! Everything is deterministic given a seed, on every platform: integer
//! range sampling uses widening-multiply rejection (no `usize`-width
//! dependence beyond the requested type) and `f64` sampling uses the
//! standard 53-bit mantissa scaling.

use std::ops::{Range, RangeInclusive};

/// Minimal core RNG interface: a source of uniform `u64` words.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Deterministic construction from seeds.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed via SplitMix64 state
    /// expansion; the same seed always yields the same stream.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable uniformly from their "standard" distribution:
/// `[0, 1)` for floats, the full range for unsigned integers.
pub trait Standard: Sized {
    /// One standard draw from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 high bits -> [0, 1) with full double precision
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for usize {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Uniform in `[0, bound)` by widening multiplication with rejection,
/// so the result is exactly uniform and platform-independent.
#[inline]
fn uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Lemire's method: reject the biased low zone.
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (bound as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

/// Range types [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// One uniform draw from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + uniform_u64_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty inclusive range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // full-width inclusive range
                    return rng.next_u64() as $t;
                }
                lo + uniform_u64_below(rng, span) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, u16, u8);

macro_rules! impl_signed_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(uniform_u64_below(rng, span) as i64) as $t
            }
        }
    )*};
}

impl_signed_range!(i64, i32);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let u = f64::sample_standard(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty inclusive range");
        let u = f64::sample_standard(rng);
        lo + u * (hi - lo)
    }
}

/// The user-facing sampling interface, blanket-implemented for every
/// [`RngCore`] (mirrors `rand::Rng`).
pub trait Rng: RngCore {
    /// A standard draw: `[0, 1)` for floats, full-range for integers.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A uniform draw from `range` (half-open or inclusive).
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators (mirrors `rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — small, fast, and statistically strong; the same
    /// family `rand 0.8` backs its 64-bit `SmallRng` with.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            // xoshiro must not start at the all-zero state
            if s == [0, 0, 0, 0] {
                s[0] = 0x9E3779B97F4A7C15;
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..256 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval_with_spread() {
        let mut rng = SmallRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..10_000).map(|_| rng.gen::<f64>()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn int_ranges_hit_all_values_uniformly() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut counts = [0usize; 5];
        for _ in 0..5000 {
            counts[rng.gen_range(0..5usize)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 800), "{counts:?}");
        // inclusive range reaches its upper bound
        let mut saw_hi = false;
        for _ in 0..200 {
            if rng.gen_range(0..=3usize) == 3 {
                saw_hi = true;
            }
        }
        assert!(saw_hi);
    }

    #[test]
    fn float_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..1000 {
            let x = rng.gen_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&x));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(13);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }
}
