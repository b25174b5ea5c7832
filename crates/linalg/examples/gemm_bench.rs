//! GEMM timing, band kernels against the default path: `cargo run
//! --release -p tsgb-linalg --example gemm_bench [MxKxN ...]`.
//!
//! Each `MxKxN` shape times `out += a * b` (`a` is `M x K`, `b` is
//! `K x N`) and the two transposed forms the backward pass runs, on
//! one thread into a warm output, and prints nanoseconds per call for
//! the band kernels and the default path side by side: the best of 7
//! rounds, each timing one batch of each column in turn, the first
//! column swapping every round. With no arguments it times the
//! sub-threshold shapes the post-hoc GRU fits (batch 32, 5 features,
//! hidden 8) and the smoke grid's GANs (batch 24, hidden 8 and 16)
//! run, and products above the threshold that fit one row panel: the
//! served TimeVAE's decode (`l = 256`, 4 features, hidden 192) on a
//! fused batch of 2 windows, and batches of 3 and 8 rows against a
//! 192 x 1024 weight. On an AVX-512F CPU the default for all of them
//! is the in-place register tile, except `matmul_t` above the
//! threshold, which packs.

use std::time::Instant;
use tsgb_linalg::gemm::{with_gemm_mode, GemmMode};
use tsgb_linalg::rng::{randn_matrix, seeded};
use tsgb_linalg::Matrix;

const DEFAULT_SHAPES: &[&str] = &[
    "32x5x8",
    "32x8x8",
    "32x8x5",
    "5x32x8",
    "8x32x8",
    "32x8x1",
    "24x8x16",
    "24x16x16",
    "24x16x1",
    "2x384x1024",
    "3x192x1024",
    "8x192x1024",
];

/// The two columns: the band kernels, then the default path.
const MODES: [GemmMode; 2] = [GemmMode::Band, GemmMode::Packed];

/// Best-of-rounds nanoseconds per call of `f` under each of [`MODES`],
/// for about `work` multiply-adds per batch. Each round times one batch
/// per mode, in turn, and swaps which mode goes first every round, so
/// a slow stretch of the host lands on both columns rather than one.
fn best_ns(work: usize, per_call: usize, mut f: impl FnMut()) -> [f64; 2] {
    let calls = (work / per_call.max(1)).clamp(1, 100_000);
    let mut best = [f64::INFINITY; 2];
    for round in 0..7 {
        for turn in 0..2 {
            let i = turn ^ (round & 1);
            with_gemm_mode(MODES[i], || {
                let t = Instant::now();
                for _ in 0..calls {
                    f();
                }
                best[i] = best[i].min(t.elapsed().as_secs_f64() * 1e9 / calls as f64);
            });
        }
    }
    best
}

fn parse(shape: &str) -> (usize, usize, usize) {
    let dims: Vec<usize> = shape
        .split('x')
        .map(|d| d.parse().expect("shape is MxKxN"))
        .collect();
    assert_eq!(dims.len(), 3, "shape is MxKxN, got {shape}");
    (dims[0], dims[1], dims[2])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let shapes: Vec<&str> = if args.is_empty() {
        DEFAULT_SHAPES.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>8}",
        "op", "MxKxN", "band ns", "default ns", "speedup"
    );
    for shape in shapes {
        let (m, k, n) = parse(shape);
        let mut rng = seeded(42);
        let a = randn_matrix(m, k, &mut rng);
        let at = randn_matrix(k, m, &mut rng);
        let b = randn_matrix(k, n, &mut rng);
        let bt = randn_matrix(n, k, &mut rng);
        let warm = randn_matrix(m, n, &mut rng);
        type Op<'a> = (&'a str, Box<dyn Fn(&mut Matrix) + 'a>);
        let ops: [Op; 3] = [
            ("matmul", Box::new(|o| a.matmul_acc_into(&b, o))),
            ("t_matmul", Box::new(|o| at.t_matmul_acc_into(&b, o))),
            ("matmul_t", Box::new(|o| a.matmul_t_acc_into(&bt, o))),
        ];
        for (name, op) in &ops {
            let (outs, times) = tsgb_par::with_threads(1, || {
                let outs = MODES.map(|mode| {
                    let mut out = warm.clone();
                    with_gemm_mode(mode, || op(&mut out));
                    out
                });
                let mut out = warm.clone();
                let times = best_ns(20_000_000, m * n * k, || op(std::hint::black_box(&mut out)));
                (outs, times)
            });
            let same = outs[0]
                .as_slice()
                .iter()
                .zip(outs[1].as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "default path differs from band for {name} at {shape}");
            println!(
                "{name:>10} {shape:>12} {:12.1} {:12.1} {:7.2}x",
                times[0],
                times[1],
                times[0] / times[1]
            );
        }
    }
}
