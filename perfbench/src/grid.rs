//! `grid`: the paper's Figure 5 → Figure 1 → Figure 8 pipeline at the
//! smoke shape — all ten methods on all ten Table-3 datasets, scored
//! with the deterministic measures, then ranked.
//!
//! Untraced passes go through `experiments::figure5` (and so
//! `Benchmark::run_grid`). A traced pass drives the same cells itself
//! through the crates' public functions so it can time each call; its
//! score cube must equal the untraced one bit for bit, which also
//! proves the traced pass measures the same work.

use std::path::Path;
use std::time::Instant;

use tsgb_bench::experiments::{self, ExperimentCtx, Scale};
use tsgb_data::spec::DatasetSpec;
use tsgb_eval::suite::{self, Measure, Score};
use tsgb_methods::MethodId;
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::SeedableRng;
use tsgb_wire::digest::Fnv64;
use tsgbench::runner::{GridCell, GridResult, MethodReport};

use crate::harness::{self, median, Metrics, Obs, Tally};
use crate::Outcome;

/// `Scale::Smoke`'s dataset bounds (`max_r`, `max_l`), which the traced
/// pass needs to materialize the same windows `figure5` does; the
/// cube-equality check fails if they drift.
const SMOKE_MAX_R: usize = 24;
const SMOKE_MAX_L: usize = 12;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn setup(seed: u64, out_dir: &Path) -> ExperimentCtx {
    let mut ctx = ExperimentCtx::new(Scale::Smoke, out_dir);
    ctx.bench.seed = seed;
    ctx.bench.ckpt_dir = None;
    for spec in DatasetSpec::all() {
        std::hint::black_box(
            spec.scaled(SMOKE_MAX_R)
                .with_max_len(SMOKE_MAX_L)
                .materialize(seed),
        );
    }
    ctx
}

/// Digest of every score except training time (wall clock), in cell
/// order, plus whether every score is finite.
fn cube_digest(grid: &GridResult) -> (u64, usize) {
    let mut d = Fnv64::new();
    let mut non_finite = 0;
    for cell in &grid.cells {
        d.update_u64(cell.method as u64);
        for (m, s) in cell.report.scores.iter() {
            if !(s.mean.is_finite() && s.std.is_finite()) {
                non_finite += 1;
            }
            if m != Measure::TrainTime {
                d.update_u64(m as u64)
                    .update_u64(s.mean.to_bits())
                    .update_u64(s.std.to_bits());
            }
        }
    }
    (d.finish(), non_finite)
}

/// Figures 1 and 8 plus the measure-agreement table over one grid.
fn rank(ctx: &ExperimentCtx, grid: &GridResult, tally: &mut Tally) {
    let (by_measure, by_dataset) = experiments::figure1(ctx, grid);
    experiments::measure_agreement(ctx, grid);
    let (cd, _) = experiments::figure8(ctx, grid);
    let ok = !by_measure.is_empty()
        && by_dataset.len() == grid.datasets.len()
        && cd.methods.len() == grid.methods.len()
        && cd.avg_ranks.iter().all(|r| r.is_finite());
    tally.record(ok, || "ranking tables are incomplete".into());
}

/// Timings of one traced pass.
#[derive(Default)]
struct Trace {
    materialize_ms: Vec<f64>,
    fit_s: Vec<(MethodId, f64)>,
    generate_ms: Vec<(MethodId, f64)>,
    utilization: f64,
    longest: (f64, String),
    rank_ms: f64,
}

/// One traced pass: `Benchmark::run_grid`'s cell loop, with each call
/// into the data, method and eval crates timed.
fn traced_pass(ctx: &ExperimentCtx, tally: &mut Tally) -> (GridResult, Trace) {
    let bench = &ctx.bench;
    let mut trace = Trace::default();
    let specs = DatasetSpec::all();
    let prepared: Vec<_> = specs
        .iter()
        .map(|spec| {
            let t0 = Instant::now();
            let data = spec
                .scaled(SMOKE_MAX_R)
                .with_max_len(SMOKE_MAX_L)
                .materialize(bench.seed);
            trace.materialize_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            (spec, data)
        })
        .collect();
    let methods = &ctx.methods;
    let wall = Instant::now();
    let cells = tsgb_par::parallel_map(prepared.len() * methods.len(), |idx| {
        let start = Instant::now();
        let (spec, data) = &prepared[idx / methods.len()];
        let mid = methods[idx % methods.len()];
        let train = &data.train;
        let mut method = mid.create(train.seq_len(), train.features());
        // the runner's per-cell stream: seed ^ (id + 1) * golden ratio
        let mut rng = SmallRng::seed_from_u64(
            bench.seed ^ (mid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let t = Instant::now();
        let report = method.fit(train, &bench.train_cfg, &mut rng);
        let fit_s = t.elapsed().as_secs_f64();
        let n = bench.gen_samples.unwrap_or(train.samples());
        let t = Instant::now();
        let generated = method.generate(n, &mut rng);
        let gen_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut scores = suite::evaluate(train, &generated, &bench.eval_cfg, &mut rng);
        scores.set(
            Measure::TrainTime,
            Score {
                mean: report.train_seconds,
                std: 0.0,
            },
        );
        let cell = GridCell {
            method: mid,
            dataset: spec.name.to_string(),
            report: MethodReport {
                method: mid.name().to_string(),
                train: report,
                scores,
                generated,
            },
        };
        (cell, fit_s, gen_ms, start.elapsed().as_secs_f64())
    });
    let wall_s = wall.elapsed().as_secs_f64();
    let busy: f64 = cells.iter().map(|c| c.3).sum();
    trace.utilization = busy / (wall_s * tsgb_par::max_threads() as f64);
    let mut grid_cells = Vec::with_capacity(cells.len());
    for (cell, fit_s, gen_ms, cell_s) in cells {
        trace.fit_s.push((cell.method, fit_s));
        trace.generate_ms.push((cell.method, gen_ms));
        if cell_s > trace.longest.0 {
            trace.longest = (
                cell_s,
                format!("{} on {}", cell.method.name(), cell.dataset),
            );
        }
        grid_cells.push(cell);
    }
    let grid = GridResult {
        methods: methods.clone(),
        datasets: specs.iter().map(|s| s.name.to_string()).collect(),
        cells: grid_cells,
        max_r: SMOKE_MAX_R,
        max_l: SMOKE_MAX_L,
    };
    let t = Instant::now();
    rank(ctx, &grid, tally);
    trace.rank_ms = t.elapsed().as_secs_f64() * 1e3;
    (grid, trace)
}

pub fn run(args: &crate::harness::Args, out_dir: &Path) -> Outcome {
    let cells_per_pass = (MethodId::ALL.len() * DatasetSpec::all().len()) as f64;
    let mut tally = Tally::default();
    let mut reference: Option<u64> = None;
    let mut check = |grid: &GridResult, what: &str, tally: &mut Tally| {
        let (digest, non_finite) = cube_digest(grid);
        tally.record(grid.cells.len() as f64 == cells_per_pass, || {
            format!("{what}: {} cells", grid.cells.len())
        });
        tally.record(non_finite == 0, || {
            format!("{what}: {non_finite} non-finite scores")
        });
        let expected = *reference.get_or_insert(digest);
        tally.record(digest == expected, || {
            format!("{what}: score cube {digest:016x} != warm-up pass {expected:016x}")
        });
    };

    let untraced_pass = |ctx: &ExperimentCtx, tally: &mut Tally| {
        let (grid, _) = experiments::figure5(ctx);
        rank(ctx, &grid, tally);
        grid
    };
    // set-up ends at the first timed pass, so it includes an untimed
    // first pass that lets allocator pools and caches fill; its score
    // cube is the reference every later pass must reproduce
    let (ctx, setup_s) = harness::repeated_setup(SETUPS, || {
        let ctx = setup(args.seed, out_dir);
        check(&untraced_pass(&ctx, &mut tally), "warm-up pass", &mut tally);
        ctx
    });
    let peak_rss_mb = harness::peak_rss_mb();

    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    // per untraced pass, the summed training time (M8) of its cells: a
    // median over cells would sit between two methods' clusters
    let mut train_ms = Vec::new();
    let mut traces = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut pass = 0;
    // in a traced run, passes alternate untraced / traced so the
    // overhead ratio compares neighbours; stop once the time is up and
    // both kinds have run
    while pass == 0 || Instant::now() < deadline || (args.trace && traced_s.is_empty()) {
        let traced = args.trace && pass % 2 == 1;
        tsgb_obs::set_enabled(traced);
        let t0 = Instant::now();
        let grid = if traced {
            let (grid, trace) = traced_pass(&ctx, &mut tally);
            traces.push(trace);
            grid
        } else {
            untraced_pass(&ctx, &mut tally)
        };
        let secs = t0.elapsed().as_secs_f64();
        tsgb_obs::set_enabled(false);
        if traced {
            &mut traced_s
        } else {
            &mut untraced_s
        }
        .push(secs);
        check(&grid, &format!("pass {pass}"), &mut tally);
        if !traced {
            train_ms.push(
                grid.cells
                    .iter()
                    .filter_map(|c| c.report.scores.get(Measure::TrainTime))
                    .map(|s| s.mean * 1e3)
                    .sum::<f64>(),
            );
        }
        eprintln!(
            "grid pass {pass} ({}): {secs:.3} s",
            if traced { "traced" } else { "untraced" }
        );
        pass += 1;
    }

    // determinism: a serial pass must reproduce the cube bit for bit
    let serial = tsgb_par::with_threads(1, || {
        ctx.bench
            .run_grid(&ctx.methods, &DatasetSpec::all(), SMOKE_MAX_R, SMOKE_MAX_L)
    });
    check(&serial, "1-thread pass", &mut tally);

    let mut m = Metrics::default();
    if args.trace {
        layer_metrics(&mut m, &traces, &untraced_s, &traced_s);
    } else {
        eprintln!(
            "grid: {} passes, median {:.3} s wall, {:.1} ms training (sum of M8)",
            untraced_s.len(),
            median(&untraced_s),
            median(&train_ms)
        );
        m.set("setup_s", setup_s);
        m.set("peak_rss_mb", peak_rss_mb);
        m.set("throughput", cells_per_pass / median(&untraced_s));
        m.set("p50_ms", median(&train_ms));
    }
    Outcome { tally, metrics: m }
}

fn layer_metrics(m: &mut Metrics, traces: &[Trace], untraced_s: &[f64], traced_s: &[f64]) {
    let obs = Obs::take();
    let passes = traces.len() as f64;
    let all = |f: fn(&Trace) -> &Vec<f64>| -> Vec<f64> {
        traces.iter().flat_map(|t| f(t).iter().copied()).collect()
    };
    m.set(
        "data.materialize_ms",
        harness::mean(&all(|t| &t.materialize_ms)),
    );
    for mid in MethodId::ALL {
        let of = |pick: fn(&Trace) -> &Vec<(MethodId, f64)>| -> Vec<f64> {
            traces
                .iter()
                .flat_map(|t| pick(t).iter().filter(|(id, _)| *id == mid).map(|(_, v)| *v))
                .collect()
        };
        m.set(
            format!("fit_s.{}", mid.name()),
            harness::mean(&of(|t| &t.fit_s)),
        );
        m.set(
            format!("generate_ms.{}", mid.name()),
            harness::mean(&of(|t| &t.generate_ms)),
        );
    }
    nn_metrics(m, &obs, passes);
    m.set(
        "par.utilization",
        median(&traces.iter().map(|t| t.utilization).collect::<Vec<_>>()),
    );
    let longest = traces
        .iter()
        .map(|t| &t.longest)
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one traced pass");
    eprintln!("grid: longest cell {:.3} s ({})", longest.0, longest.1);
    m.set(
        "par.longest_cell_s",
        median(&traces.iter().map(|t| t.longest.0).collect::<Vec<_>>()),
    );
    eval_metrics(m, &obs);
    m.set(
        "stats.rank_ms",
        median(&traces.iter().map(|t| t.rank_ms).collect::<Vec<_>>()),
    );
    m.set(
        "obs.overhead_frac",
        median(traced_s) / median(untraced_s) - 1.0,
    );
}

/// `tsgb-nn` counters, per traced pass.
pub fn nn_metrics(m: &mut Metrics, obs: &Obs, passes: f64) {
    m.set(
        "nn.plan.replay_ratio",
        obs.share(
            "nn.plan.replays",
            &["nn.plan.captures", "nn.plan.invalidations"],
        ),
    );
    m.set("nn.tape.steps", obs.counter("nn.tape.steps") / passes);
    m.set("nn.pool.miss", obs.counter("nn.pool.miss") / passes);
}

/// `tsgb-eval` per-measure means (ms per call).
pub fn eval_metrics(m: &mut Metrics, obs: &Obs) {
    for measure in harness::SCORED_MEASURES {
        let name = format!("eval.measure_ms.{}", measure.label());
        m.set(&name, obs.hist_mean(&name));
    }
}
