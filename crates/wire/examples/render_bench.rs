//! Float rendering timing, the JSON writer against `write!`: `cargo
//! run --release -p tsgb-wire --example render_bench`.
//!
//! Prints nanoseconds per value for [`write_num`] and for `write!(out,
//! "{x}")` on two sets of 1,024 doubles: sigmoid outputs, the values a
//! served TimeVAE window holds, and random bit patterns, nearly all
//! outside the range the writer computes itself. Each figure is the
//! best of 7 rounds that time one batch per column in turn, swapping
//! which column goes first every round, so a slow stretch of the host
//! lands on both columns. Both columns must write the same bytes.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use tsgb_wire::json::write_num;

const VALUES: usize = 1024;
/// Passes over the set per batch.
const PASSES: usize = 200;

/// splitmix64 — a fixed input set, not a quality RNG.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn render(values: &[f64], out: &mut String, column: usize) {
    out.clear();
    for &x in values {
        if column == 0 {
            write_num(x, out);
        } else {
            let _ = write!(out, "{x}");
        }
        out.push(',');
    }
}

/// Best-of-rounds nanoseconds per value for each column.
fn best_ns(values: &[f64]) -> [f64; 2] {
    let mut out = String::with_capacity(values.len() * 32);
    let mut best = [f64::INFINITY; 2];
    for round in 0..7 {
        for turn in 0..2 {
            let column = turn ^ (round & 1);
            let t = Instant::now();
            for _ in 0..PASSES {
                render(black_box(values), &mut out, column);
                black_box(&out);
            }
            let ns = t.elapsed().as_secs_f64() * 1e9 / (PASSES * values.len()) as f64;
            best[column] = best[column].min(ns);
        }
    }
    best
}

fn main() {
    let mut state = 0x5EED_BE4C;
    let sigmoid: Vec<f64> = (0..VALUES)
        .map(|_| {
            let z = 12.0 * ((splitmix(&mut state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0);
            1.0 / (1.0 + (-z).exp())
        })
        .collect();
    let random_bits: Vec<f64> = (0..VALUES)
        .map(|_| f64::from_bits(splitmix(&mut state)))
        .filter(|x| x.is_finite())
        .collect();
    println!(
        "{:<12} {:>7} {:>12} {:>10} {:>8}",
        "values", "count", "write_num ns", "write! ns", "speedup"
    );
    for (name, values) in [("sigmoid", &sigmoid), ("random bits", &random_bits)] {
        let (mut a, mut b) = (String::new(), String::new());
        render(values, &mut a, 0);
        render(values, &mut b, 1);
        assert_eq!(a, b, "{name}: the two columns wrote different bytes");
        let [ours, fmt] = best_ns(values);
        println!(
            "{name:<12} {:>7} {ours:>12.1} {fmt:>10.1} {:>7.2}x",
            values.len(),
            fmt / ours
        );
    }
}
