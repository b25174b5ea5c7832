//! The `tsgbench` command-line entry point.
//!
//! The subcommands connect the offline benchmark to the online
//! service:
//!
//! * `tsgbench train` fits methods on a (scaled) benchmark dataset
//!   and writes one `TSGBCK02` checkpoint per method — the artifacts
//!   `tsgbench serve` loads.
//! * `tsgbench serve` exposes the checkpoints over HTTP with request
//!   batching and deadline-aware backpressure (see `tsgb-serve`).
//! * `tsgbench route` fronts a fleet of `serve` workers: it spawns
//!   `--workers` child processes, consistent-hashes model ids across
//!   them so each loads only its shard, health-checks and respawns
//!   them, and fails requests over on worker death (see `tsgb-router`).
//! * `tsgbench monitor` watches generation quality continuously:
//!   clients stream generated windows to `POST /ingest`, online
//!   measures update per window, expensive measures refresh through
//!   the eval cache, and drift raises flags on `GET /quality` (see
//!   `tsgb_serve::monitor`).
//! * `tsgbench scenario` runs the task families of `tsgb-scenario`
//!   (streaming, conditional, imputation) against trained checkpoints
//!   and prints one JSON report per (model, scenario) pair.

use std::path::PathBuf;
use std::process::ExitCode;

use tsgb_methods::{MethodId, TrainConfig};
use tsgb_router::{Router, RouterConfig};
use tsgb_serve::{Monitor, MonitorConfig, Registry, ServeConfig, Server};
use tsgbench::data::{DatasetId, DatasetSpec};
use tsgbench::runner::{child_rng, write_checkpoint};

const USAGE: &str = "\
usage: tsgbench <command> [options]

commands:
  train     fit methods on a benchmark dataset and write checkpoints
  serve     serve checkpoints over HTTP (batching + backpressure)
  route     front a sharded fleet of serve workers (hashing + failover)
  monitor   continuous quality monitoring of generation streams
  scenario  run streaming/conditional/imputation task families on
            trained checkpoints and print JSON reports

train options:
  --out DIR          checkpoint output directory (required)
  --dataset NAME     benchmark dataset (default: Stock)
  --methods A,B,C    comma-separated method names (default: TimeVAE)
  --epochs N         training epochs (default: 30)
  --max-samples R    cap on training windows (default: 64)
  --max-len L        cap on window length (default: 24)
  --seed S           pipeline/training seed (default: 7)

serve options:
  --ckpt-dir DIR     directory of *.tsgbnn checkpoints (required)
  --addr HOST:PORT   bind address (default: 127.0.0.1:7878)
  --models A,B       load only these checkpoints (the worker's shard;
                     an empty shard is legal and serves health only)

route options:
  --ckpt-dir DIR     directory of *.tsgbnn checkpoints (required)
  --addr HOST:PORT   router bind address (default: 127.0.0.1:7979)
  --workers N        worker processes to spawn (default: 2)
  --replicas R       workers per model (default: 2; clamped to N)

monitor options:
  --dataset NAME     reference dataset (default: Stock)
  --max-samples R    cap on reference windows (default: 128)
  --max-len L        cap on window length (default: 24)
  --seed S           pipeline + C-FID embedding seed (default: 7)
  --addr HOST:PORT   bind address (default: 127.0.0.1:7879)
  --calibrate N      healthy windows that set the baseline (default: 32)
  --stride N         tumbling evaluation window (default: 32)
  --min-eval N       windows before a tumble is judged (default: 8)
  --refresh-every N  expensive-measure cadence in windows; 0 = off
                     (default: 64)
  --drift-factor F   relative drift threshold (default: 1.5)

monitor endpoints: POST /ingest, POST /drill, GET /quality,
GET /healthz, POST /shutdown (see the tsgb-serve crate docs).

scenario options:
  --ckpt-dir DIR     directory of *.tsgbnn checkpoints (required)
  --model NAME       run one model only (default: every loaded model)
  --scenario NAME    streaming | conditional | imputation
                     (default: all three, in that order)
  --dataset NAME     reference dataset (default: Stock)
  --max-samples R    cap on reference windows (default: 64)
  --max-len L        cap on window length (default: 24)
  --seed S           pipeline + scenario seed (default: 7)

scenario output: one JSON object per line,
{\"model\":\"...\",\"scenario\":\"...\",\"metrics\":{...}}.

Every command rejects a flag its options list does not name.

serve also reads TSGB_SERVE_BATCH / TSGB_SERVE_QUEUE from the
environment (route's workers inherit them);
scenario runs each family at its default task sizes and honors
TSGB_EVAL_CACHE for the imputation measures.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("monitor") => cmd_monitor(&args[1..]),
        Some("scenario") => cmd_scenario(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal `--flag value` parser shared by the subcommands.
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parses `--name value` pairs. A name outside `known` — the
    /// subcommand's options as USAGE lists them — is an error.
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("unexpected argument `{flag}`"));
            };
            if !known.contains(&name) {
                return Err(format!("unknown flag `--{name}`\n\n{USAGE}"));
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
        }
    }
}

fn dataset_by_name(name: &str) -> Option<DatasetSpec> {
    DatasetId::ALL
        .iter()
        .map(|&id| DatasetSpec::get(id))
        .find(|s| s.name.eq_ignore_ascii_case(name.trim()))
}

fn resolve_dataset(name: &str) -> Result<DatasetSpec, String> {
    dataset_by_name(name).ok_or_else(|| {
        let names: Vec<&str> = DatasetId::ALL
            .iter()
            .map(|&id| DatasetSpec::get(id).name)
            .collect();
        format!("unknown dataset `{name}` (one of: {})", names.join(", "))
    })
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "out",
            "dataset",
            "methods",
            "epochs",
            "max-samples",
            "max-len",
            "seed",
        ],
    )?;
    let out: PathBuf = flags.get("out").ok_or("train requires --out DIR")?.into();
    let spec = resolve_dataset(flags.get("dataset").unwrap_or("Stock"))?;
    let methods: Vec<MethodId> = flags
        .get("methods")
        .unwrap_or("TimeVAE")
        .split(',')
        .map(|m| MethodId::from_name(m).ok_or_else(|| format!("unknown method `{m}`")))
        .collect::<Result<_, _>>()?;
    let epochs: usize = flags.parsed("epochs", 30)?;
    let max_samples: usize = flags.parsed("max-samples", 64)?;
    let max_len: usize = flags.parsed("max-len", 24)?;
    let seed: u64 = flags.parsed("seed", 7)?;

    let scaled = spec.scaled(max_samples).with_max_len(max_len);
    let data = scaled.materialize(seed);
    let (r, l, n) = data.train.shape();
    println!("dataset {} → {r} windows of {l}×{n}", spec.name);

    let cfg = TrainConfig {
        epochs,
        ..TrainConfig::fast()
    };
    for (i, id) in methods.iter().enumerate() {
        let mut method = id.create(l, n);
        let mut rng = child_rng(seed, 1000 + i as u64);
        let report = method.fit(&data.train, &cfg, &mut rng);
        let path = write_checkpoint(&out, method.as_ref())
            .map_err(|e| format!("writing {} checkpoint: {e}", id.name()))?;
        println!(
            "trained {} ({epochs} epochs, {:.1}s) → {}",
            id.name(),
            report.train_seconds,
            path.display()
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["ckpt-dir", "addr", "models"])?;
    let ckpt_dir: PathBuf = flags
        .get("ckpt-dir")
        .ok_or("serve requires --ckpt-dir DIR")?
        .into();
    // --models restricts the registry to this worker's shard; the
    // router passes it when spawning the fleet
    let shard: Option<Vec<String>> = flags.get("models").map(|csv| {
        csv.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect()
    });

    let (registry, failures) = Registry::load_dir_filtered(&ckpt_dir, shard.as_deref())
        .map_err(|e| format!("reading {}: {e}", ckpt_dir.display()))?;
    for f in &failures {
        eprintln!("warning: skipping {}: {}", f.file, f.reason);
    }
    // an empty *shard* is a legal worker state (it still serves
    // /healthz); an empty unfiltered directory is an operator error
    if registry.is_empty() && shard.is_none() {
        return Err(format!(
            "no loadable checkpoints in {} (expected *.tsgbnn; run `tsgbench train` first)",
            ckpt_dir.display()
        ));
    }
    for entry in registry.entries() {
        let info = &entry.info;
        println!(
            "model {} ({}, {}×{})",
            info.name, info.method, info.seq_len, info.features
        );
    }

    let mut cfg = ServeConfig::from_env();
    if let Some(addr) = flags.get("addr") {
        cfg.addr = addr.to_string();
    }
    let server = Server::start(registry, cfg).map_err(|e| format!("starting server: {e}"))?;
    println!(
        "listening on http://{} (POST /generate, GET /models, GET /healthz, POST /shutdown)",
        server.addr()
    );
    server.wait();
    server.shutdown();
    println!("drained; bye");
    Ok(())
}

fn cmd_monitor(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "dataset",
            "max-samples",
            "max-len",
            "seed",
            "addr",
            "calibrate",
            "stride",
            "min-eval",
            "refresh-every",
            "drift-factor",
        ],
    )?;
    let spec = resolve_dataset(flags.get("dataset").unwrap_or("Stock"))?;
    let max_samples: usize = flags.parsed("max-samples", 128)?;
    let max_len: usize = flags.parsed("max-len", 24)?;
    let seed: u64 = flags.parsed("seed", 7)?;
    let scaled = spec.scaled(max_samples).with_max_len(max_len);
    let data = scaled.materialize(seed);
    let (r, l, n) = data.train.shape();
    println!("reference {} → {r} windows of {l}×{n}", spec.name);

    let mut cfg = MonitorConfig {
        seed,
        ..MonitorConfig::default()
    };
    if let Some(addr) = flags.get("addr") {
        cfg.addr = addr.to_string();
    }
    cfg.calibrate = flags.parsed("calibrate", cfg.calibrate)?;
    cfg.stride = flags.parsed("stride", cfg.stride)?;
    cfg.min_eval = flags.parsed("min-eval", cfg.min_eval)?;
    cfg.refresh_every = flags.parsed("refresh-every", cfg.refresh_every)?;
    cfg.drift_factor = flags.parsed("drift-factor", cfg.drift_factor)?;
    if cfg.min_eval == 0 || cfg.stride < cfg.min_eval || cfg.calibrate < cfg.min_eval {
        return Err(
            "need --calibrate >= --min-eval, --stride >= --min-eval, --min-eval >= 1".into(),
        );
    }
    if cfg.drift_factor <= 1.0 {
        return Err("--drift-factor must be above 1.0".into());
    }

    let monitor = Monitor::start(data.train, cfg).map_err(|e| format!("starting monitor: {e}"))?;
    println!(
        "monitoring on http://{} (POST /ingest, POST /drill, GET /quality, GET /healthz, POST /shutdown)",
        monitor.addr()
    );
    monitor.wait();
    monitor.shutdown();
    println!("drained; bye");
    Ok(())
}

fn cmd_scenario(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "ckpt-dir",
            "model",
            "scenario",
            "dataset",
            "max-samples",
            "max-len",
            "seed",
        ],
    )?;
    let ckpt_dir: PathBuf = flags
        .get("ckpt-dir")
        .ok_or("scenario requires --ckpt-dir DIR")?
        .into();
    let spec = resolve_dataset(flags.get("dataset").unwrap_or("Stock"))?;
    let max_samples: usize = flags.parsed("max-samples", 64)?;
    let max_len: usize = flags.parsed("max-len", 24)?;
    let seed: u64 = flags.parsed("seed", 7)?;

    let scenarios = match flags.get("scenario") {
        None => tsgb_scenario::all(),
        Some(name) => vec![tsgb_scenario::by_name(name).ok_or_else(|| {
            format!("unknown scenario `{name}` (one of: streaming, conditional, imputation)")
        })?],
    };

    let shard: Option<Vec<String>> = flags.get("model").map(|m| vec![m.to_string()]);
    let (registry, failures) = Registry::load_dir_filtered(&ckpt_dir, shard.as_deref())
        .map_err(|e| format!("reading {}: {e}", ckpt_dir.display()))?;
    for f in &failures {
        eprintln!("warning: skipping {}: {}", f.file, f.reason);
    }
    if registry.is_empty() {
        return Err(match flags.get("model") {
            Some(m) => format!("no checkpoint for `{m}` in {}", ckpt_dir.display()),
            None => format!(
                "no loadable checkpoints in {} (run `tsgbench train` first)",
                ckpt_dir.display()
            ),
        });
    }

    let scaled = spec.scaled(max_samples).with_max_len(max_len);
    let data = scaled.materialize(seed);
    let (r, l, n) = data.train.shape();
    eprintln!("reference {} → {r} windows of {l}×{n}", spec.name);

    for entry in registry.entries() {
        let info = &entry.info;
        if info.seq_len != l || info.features != n {
            eprintln!(
                "warning: skipping {} ({}×{} checkpoint vs {l}×{n} reference; \
                 pass matching --max-len / --dataset)",
                info.name, info.seq_len, info.features
            );
            continue;
        }
        for scenario in &scenarios {
            let report = scenario.run(entry.model.as_ref(), &data.train, seed);
            // splice the model name into the report's JSON object
            let json = report.to_json();
            println!("{{\"model\":\"{}\",{}", info.name, &json[1..]);
        }
    }
    Ok(())
}

fn cmd_route(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["ckpt-dir", "addr", "workers", "replicas"])?;
    let ckpt_dir: PathBuf = flags
        .get("ckpt-dir")
        .ok_or("route requires --ckpt-dir DIR")?
        .into();
    let mut cfg = RouterConfig::default();
    if let Some(addr) = flags.get("addr") {
        cfg.addr = addr.to_string();
    }
    let workers: usize = flags.parsed("workers", 2)?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    cfg.replicas = flags.parsed("replicas", cfg.replicas)?.max(1);

    // workers run the same binary this router was started from
    let bin = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let router = Router::start_spawned(bin, ckpt_dir, workers, cfg)
        .map_err(|e| format!("starting the worker tier: {e}"))?;
    for w in router.workers() {
        println!("worker {} pid {} at http://{}", w.slot, w.pid(), w.addr());
    }
    println!(
        "routing on http://{} ({} workers; POST /generate, GET /models, GET /healthz, POST /shutdown)",
        router.addr(),
        router.workers().len()
    );
    router.wait();
    router.shutdown();
    println!("tier drained; bye");
    Ok(())
}
