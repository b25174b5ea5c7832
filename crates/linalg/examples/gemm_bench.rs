//! Ad-hoc packed-vs-band GEMM timing: `cargo run --release -p
//! tsgb-linalg --example gemm_bench [sizes...]`.

use std::time::Instant;
use tsgb_linalg::gemm::{with_gemm_mode, GemmMode};
use tsgb_linalg::rng::{randn_matrix, seeded};
use tsgb_linalg::Matrix;

fn best_ms(reps: usize, mut f: impl FnMut() -> Matrix) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut sink = 0.0;
    for _ in 0..reps {
        let t = Instant::now();
        let out = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        sink += out.as_slice()[0];
    }
    (best, sink)
}

fn main() {
    let sizes: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("size"))
        .collect();
    let sizes = if sizes.is_empty() {
        vec![128, 256, 512]
    } else {
        sizes
    };
    for n in sizes {
        let mut rng = seeded(42);
        let a = randn_matrix(n, n, &mut rng);
        let b = randn_matrix(n, n, &mut rng);
        let reps = (400_000_000 / (n * n * n)).clamp(3, 50);
        let gflop = 2.0 * (n as f64).powi(3) / 1e6; // per ms
        for (label, mode) in [("band", GemmMode::Band), ("packed", GemmMode::Packed)] {
            let (ms, _) = with_gemm_mode(mode, || {
                tsgb_par::with_threads(1, || best_ms(reps, || a.matmul(&b)))
            });
            println!(
                "matmul_{n} {label:>6}: {ms:9.3} ms  {:6.2} GFLOP/s",
                gflop / ms
            );
        }
        for (label, mode) in [("band", GemmMode::Band), ("packed", GemmMode::Packed)] {
            let (ms, _) = with_gemm_mode(mode, || {
                tsgb_par::with_threads(1, || {
                    best_ms(reps, || {
                        let c = a.matmul(&b);
                        let t = a.t_matmul(&b);
                        let m = a.matmul_t(&b);
                        std::hint::black_box((t, m));
                        c
                    })
                })
            });
            println!("triple_{n} {label:>6}: {ms:9.3} ms");
        }
        // sanity: bit-identity on all three entry points
        for (op, f) in [
            (
                "matmul",
                (&|x: &Matrix, y: &Matrix| x.matmul(y)) as &dyn Fn(&Matrix, &Matrix) -> Matrix,
            ),
            ("t_matmul", &|x, y| x.t_matmul(y)),
            ("matmul_t", &|x, y| x.matmul_t(y)),
        ] {
            let band = with_gemm_mode(GemmMode::Band, || f(&a, &b));
            let packed = with_gemm_mode(GemmMode::Packed, || f(&a, &b));
            assert_eq!(band, packed, "packed != band for {op} at {n}");
        }
    }
}
