//! Differential test of [`write_num`] against `format!("{x}")`, byte
//! for byte: random bit patterns in every binade (subnormals, both
//! zeros and the largest finite value among them), sigmoid outputs,
//! short decimals and their neighbours one ulp away, and the edges of
//! every binade and every power of ten. Non-finite values must write
//! `null`. Seeded (splitmix64), so a failure reproduces.

use tsgb_wire::json::write_num;

/// Deterministic splitmix64 — the corpus seed, not a quality RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-a, a).
    fn symmetric(&mut self, a: f64) -> f64 {
        a * ((self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
    }
}

/// Checks every value and its neighbours `ulps` bit patterns away,
/// both signs; returns how many values it checked.
fn check_all(values: impl IntoIterator<Item = f64>, ulps: u64) -> usize {
    let mut out = String::new();
    let mut checked = 0;
    for x in values {
        let bits = x.abs().to_bits();
        for b in bits.saturating_sub(ulps)..=bits.saturating_add(ulps).min(f64::MAX.to_bits()) {
            for y in [f64::from_bits(b), -f64::from_bits(b)] {
                out.clear();
                write_num(y, &mut out);
                let want = format!("{y}");
                assert_eq!(out, want, "bits {:#018x}", y.to_bits());
                checked += 1;
            }
        }
    }
    checked
}

#[test]
fn non_finite_values_write_null() {
    for x in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut out = String::from("[");
        write_num(x, &mut out);
        assert_eq!(out, "[null", "{x}");
    }
}

#[test]
fn random_bit_patterns_in_every_binade_match_display() {
    let mut rng = Rng(0x5EED_F10A);
    let mut values = vec![0.0, f64::MIN_POSITIVE, f64::MAX, f64::EPSILON];
    for biased in 0..2047u64 {
        // the binades the exact path covers get the most draws
        let draws = if (1004..=1075).contains(&biased) {
            4000
        } else {
            40
        };
        for _ in 0..draws {
            let mantissa = rng.next() & ((1 << 52) - 1);
            values.push(f64::from_bits(biased << 52 | mantissa));
        }
    }
    assert!(check_all(values, 0) > 500_000);
}

#[test]
fn sigmoid_outputs_match_display() {
    let mut rng = Rng(0x5EED_516D);
    let values = (0..200_000).map(|_| {
        let z = rng.symmetric(12.0);
        1.0 / (1.0 + (-z).exp())
    });
    check_all(values, 1);
}

#[test]
fn short_decimals_and_their_neighbours_match_display() {
    let mut values = Vec::new();
    for digits in 1..=9999u32 {
        for point in -8..=10 {
            values.push(format!("{digits}e{point}").parse::<f64>().unwrap());
        }
    }
    check_all(values, 1);
}

#[test]
fn binade_edges_and_powers_of_ten_match_display() {
    let mut values = Vec::new();
    for biased in 1..2047u64 {
        values.push(f64::from_bits(biased << 52));
        values.push(f64::from_bits(biased << 52 | ((1 << 52) - 1)));
    }
    for k in -323..=308 {
        values.push(format!("1e{k}").parse::<f64>().unwrap());
    }
    check_all(values, 2);
}
