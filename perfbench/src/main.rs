//! `perfbench`: the repository's performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid|score|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Progress and per-pass figures go to
//! stderr; the last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` measures the
//! end-to-end metrics with `tsgb-obs` off; `--trace 1` turns it on and
//! prints the per-layer metrics instead. `BENCHMARK.json` lists both
//! sets, and `perfbench/map.json` records which end-to-end metric each
//! layer metric should move, on which workload.

mod grid;
mod harness;
mod score;
mod serve;

use harness::{Args, Metrics, Tally, Workload};

/// What a workload hands back for the result line.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", harness::USAGE);
            std::process::exit(2);
        }
    };
    // the benchmark owns its configuration: the env-gated global eval
    // cache would turn the uncached comparison into a cached one
    std::env::remove_var("TSGB_EVAL_CACHE");
    tsgb_obs::set_enabled(false);

    let outcome = match args.workload {
        Workload::Grid => {
            // figure5/figure1/figure8 write their CSV tables here
            let out_dir = std::path::Path::new(".perfbench_out");
            if let Err(e) = std::fs::create_dir_all(out_dir) {
                eprintln!("cannot create {}: {e}", out_dir.display());
                std::process::exit(1);
            }
            grid::run(&args, out_dir)
        }
        Workload::Score => score::run(&args),
        Workload::Serve => serve::run(&args),
    };
    eprintln!(
        "{}: attempted {}, failed {} (fail_frac {})",
        args.workload.name(),
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.fail_frac()
    );
    println!(
        "{}",
        harness::result_line(args.trace, outcome.tally, &outcome.metrics)
    );
}
