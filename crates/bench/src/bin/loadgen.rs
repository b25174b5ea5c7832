//! `loadgen` — a closed-loop load probe for `tsgb-serve`.
//!
//! Trains a TimeVAE in-process, serves it twice — batching disabled
//! (`max_batch = 1`) and default fused batching (`max_batch = 8`) —
//! and drives each server with closed-loop clients at concurrency 1
//! and 8. Writes the measured throughput and latency percentiles
//! (p50/p95/p99) to `BENCH_serve.json` and checks the win the
//! service is built around: at concurrency 8, fused batches must
//! deliver at least 2× the unbatched throughput. The workload is sized so
//! the fixed per-call cost of a decoder pass dominates the per-sample
//! cost (`l = 256`, one window per request): fusing 8 requests into
//! one forward pass then costs far less than 8 serial passes, which
//! is exactly the regime request batching exists for.
//!
//! A second stage probes the *sharded tier*: a `tsgb-router` fronting
//! 1 then 2 spawned `tsgbench serve` worker processes, closed-loop at
//! concurrency 8, checking ≥ 1.7× aggregate throughput at 2 workers.
//! Workers run latency-bound (`TSGB_SERVE_FWD_DELAY_MS`, small
//! `TSGB_SERVE_BATCH`) so the scaling measures tier aggregation —
//! overlapping waits across processes — rather than raw CPU
//! parallelism, which a single-core host cannot provide; the rows in
//! `BENCH_serve.json` record the injected delay so the regime is
//! explicit.
//!
//! A third stage probes `POST /generate/stream`: for one big request
//! it measures time-to-first-chunk and the steady chunk rate at two
//! chunk sizes, against the one-shot `/generate` wall time for the
//! same `(n, seed)`. The rows land in `BENCH_serve.json` under
//! `"stream_probes"`, and the probe checks the point of streaming:
//! the first windows arrive before the one-shot response would have.
//!
//! The three gates are checked after `BENCH_serve.json` is written:
//! each failure is printed, and the run exits 1 if any failed.
//!
//! ```text
//! cargo build --release && cargo run -p tsgb-bench --release --bin loadgen
//! ```
//!
//! (The release `tsgbench` binary must exist next to `loadgen` — the
//! router stage spawns it as the worker process.)

use std::net::TcpStream;
use std::time::{Duration, Instant};

use tsgb_data::sine::sine_dataset;
use tsgb_linalg::rng::seeded;
use tsgb_methods::{MethodId, TrainConfig};
use tsgb_serve::{Registry, ServeConfig, Server};
use tsgb_wire::client::{http_request, http_request_stream};

const MODEL: &str = "timevae";
const SEQ_LEN: usize = 256;
const FEATURES: usize = 4;
const N_PER_REQUEST: usize = 1;
const REQUESTS_PER_CLIENT: usize = 50;
const WARMUP_PER_CLIENT: usize = 5;
const CONCURRENCIES: [usize; 2] = [1, 8];

/// Forward-pass delay injected into router-stage workers (see the
/// module docs: this makes the tier latency-bound so worker-count
/// scaling is measurable on any host).
const ROUTER_FWD_DELAY_MS: u64 = 25;
/// Worker batch cap for the router stage: small enough that one
/// worker cannot amortise the whole closed loop into a single pass.
const ROUTER_WORKER_BATCH: usize = 2;

/// Windows per streamed request in the stream-probe stage; sized so
/// sampling the full request takes visibly longer than the first chunk.
const STREAM_N: usize = 32;
/// Chunk sizes the stream probe measures.
const STREAM_CHUNKS: [usize; 2] = [1, 8];

struct StreamProbe {
    chunk: usize,
    ttfc_ms: f64,
    total_ms: f64,
    one_shot_ms: f64,
    chunks: usize,
    chunk_rate_per_s: f64,
}

struct Probe {
    name: String,
    max_batch: usize,
    concurrency: usize,
    rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    mean_batch: f64,
    /// Injected per-forward-pass delay (router stage only; 0 for the
    /// in-process probes).
    fwd_delay_ms: u64,
}

fn main() {
    tsgb_obs::set_enabled(true);
    let registry = trained_registry();
    let mut probes: Vec<Probe> = Vec::new();

    for (label, max_batch) in [("unbatched", 1usize), ("batched", 8)] {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_batch,
            queue_cap: 256,
            ..ServeConfig::default()
        };
        let server = Server::start(rebuild(&registry), cfg).expect("start server");
        let addr = server.addr().to_string();
        for concurrency in CONCURRENCIES {
            tsgb_obs::reset();
            let probe = run_probe(&addr, label, max_batch, concurrency);
            println!(
                "{:<16} concurrency {concurrency}: {:>8.1} req/s  p50 {:>6.2} ms  p95 {:>6.2} ms  p99 {:>6.2} ms  mean batch {:.2}",
                probe.name, probe.rps, probe.p50_ms, probe.p95_ms, probe.p99_ms, probe.mean_batch
            );
            probes.push(probe);
        }
        server.shutdown();
    }

    // ---- stage 2: the sharded tier (router + spawned workers) ----
    for workers in [1usize, 2] {
        probes.push(run_router_probe(&registry, workers));
    }

    // ---- stage 3: streaming vs one-shot on a single server ----
    let stream_probes = run_stream_probes(&registry);

    let rps_of = |name: &str| probes.iter().find(|p| p.name == name).unwrap().rps;
    let speedup_c8 = rps_of("batched_c8") / rps_of("unbatched_c8");
    println!("batching speedup at concurrency 8: {speedup_c8:.2}x");
    let router_scaling_w2 = rps_of("router_w2_c8") / rps_of("router_w1_c8");
    println!("router aggregate scaling at 2 workers: {router_scaling_w2:.2}x");

    let json = render_json(&probes, &stream_probes, speedup_c8, router_scaling_w2);
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");

    // Every gate is checked and every failure printed before the one
    // non-zero exit, so a gate that fails on every run cannot hide the
    // others.
    let mut failures = Vec::new();
    // streaming's reason to exist: the first windows of a big request
    // arrive well before the one-shot response would have
    for p in stream_probes.iter().filter(|p| p.ttfc_ms >= p.one_shot_ms) {
        failures.push(format!(
            "chunk {}: first chunk after {:.2} ms but one-shot takes {:.2} ms",
            p.chunk, p.ttfc_ms, p.one_shot_ms
        ));
    }
    if speedup_c8 < 2.0 {
        failures.push(format!(
            "fused batching must be >= 2x unbatched at concurrency 8, got {speedup_c8:.2}x"
        ));
    }
    if router_scaling_w2 < 1.7 {
        failures.push(format!(
            "2 workers must deliver >= 1.7x one worker's aggregate rps, got {router_scaling_w2:.2}x"
        ));
    }
    for f in &failures {
        eprintln!("gate failed: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// Probes the router tier with `workers` spawned worker processes at
/// concurrency 8. Every worker holds the model (`replicas = workers`),
/// and the injected forward delay makes each worker latency-bound, so
/// adding a worker adds real aggregate capacity even on one core.
fn run_router_probe(ckpt: &[u8], workers: usize) -> Probe {
    use tsgb_router::{Router, RouterConfig};

    let dir = std::env::temp_dir().join(format!("tsgb_loadgen_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("checkpoint dir");
    std::fs::write(dir.join(format!("{MODEL}.tsgbnn")), ckpt).expect("write checkpoint");

    let bin = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .join("tsgbench");
    assert!(
        bin.exists(),
        "worker binary {} missing — build it first (cargo build --release)",
        bin.display()
    );

    let cfg = RouterConfig {
        addr: "127.0.0.1:0".into(),
        replicas: workers,
        health_interval: Duration::from_millis(100),
        worker_env: vec![
            (
                "TSGB_SERVE_FWD_DELAY_MS".into(),
                ROUTER_FWD_DELAY_MS.to_string(),
            ),
            ("TSGB_SERVE_BATCH".into(), ROUTER_WORKER_BATCH.to_string()),
            ("TSGB_SERVE_QUEUE".into(), "256".into()),
        ],
        ..RouterConfig::default()
    };
    let router = Router::start_spawned(bin, dir.clone(), workers, cfg).expect("start router tier");
    let addr = router.addr().to_string();
    tsgb_obs::reset(); // worker processes own their histograms; clear ours
    let probe = run_probe(&addr, &format!("router_w{workers}"), ROUTER_WORKER_BATCH, 8);
    router.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    Probe {
        fwd_delay_ms: ROUTER_FWD_DELAY_MS,
        ..probe
    }
}

/// Streams one `STREAM_N`-window request per chunk size and measures
/// time-to-first-chunk, total stream time, and steady chunk rate
/// against the one-shot wall time for the same `(n, seed)`.
fn run_stream_probes(ckpt: &[u8]) -> Vec<StreamProbe> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    let server = Server::start(rebuild(ckpt), cfg).expect("start server");
    let addr = server.addr().to_string();

    // one-shot baseline (median of 3 runs irons out scheduler noise)
    let one_shot_ms = {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_nodelay(true).ok();
        let body = format!("{{\"model\":\"{MODEL}\",\"n\":{STREAM_N},\"seed\":1}}");
        let mut runs: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let resp = http_request(&mut stream, "POST", "/generate", body.as_bytes())
                    .expect("one-shot generate");
                assert_eq!(resp.status, 200);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        runs[1]
    };

    let probes: Vec<StreamProbe> = STREAM_CHUNKS
        .iter()
        .map(|&chunk| {
            let mut conn = TcpStream::connect(&addr).expect("connect");
            conn.set_nodelay(true).ok();
            let body = format!(
                "{{\"model\":\"{MODEL}\",\"n\":{STREAM_N},\"seed\":1,\"chunk\":{chunk}}}"
            );
            let t0 = Instant::now();
            let mut resp =
                http_request_stream(&mut conn, "POST", "/generate/stream", body.as_bytes())
                    .expect("open stream");
            assert_eq!(resp.status, 200);
            let mut ttfc_ms = 0.0;
            let mut data_chunks = 0usize;
            while let Some(frame) = resp.next_chunk(&mut conn).expect("read chunk") {
                // data frames carry "offset"; the head and tail don't
                if frame.windows(8).any(|w| w == b"\"offset\"") {
                    if data_chunks == 0 {
                        ttfc_ms = t0.elapsed().as_secs_f64() * 1e3;
                    }
                    data_chunks += 1;
                }
            }
            let total_ms = t0.elapsed().as_secs_f64() * 1e3;
            let probe = StreamProbe {
                chunk,
                ttfc_ms,
                total_ms,
                one_shot_ms,
                chunks: data_chunks,
                chunk_rate_per_s: data_chunks as f64 / (total_ms / 1e3),
            };
            println!(
                "stream chunk {:<2}: ttfc {:>7.2} ms  total {:>7.2} ms  {} chunks ({:.1}/s)  one-shot {:>7.2} ms",
                probe.chunk, probe.ttfc_ms, probe.total_ms, probe.chunks, probe.chunk_rate_per_s, probe.one_shot_ms
            );
            probe
        })
        .collect();
    server.shutdown();
    probes
}

/// Trains the served model once; servers get fresh registries rebuilt
/// from its checkpoint bytes so both configurations serve the
/// identical model.
fn trained_registry() -> Vec<u8> {
    let mut rng = seeded(7);
    let train = sine_dataset(24, SEQ_LEN, FEATURES, &mut rng);
    let mut method = MethodId::TimeVae.create(SEQ_LEN, FEATURES);
    let cfg = TrainConfig {
        epochs: 3,
        hidden: 192,
        latent: 16,
        ..TrainConfig::fast()
    };
    method.fit(&train, &cfg, &mut rng);
    method.save().expect("fitted model serializes")
}

fn rebuild(ckpt: &[u8]) -> Registry {
    let model = tsgb_methods::load_method(ckpt).expect("checkpoint loads");
    let mut registry = Registry::new();
    registry.insert(MODEL, model).expect("register model");
    registry
}

fn run_probe(addr: &str, label: &str, max_batch: usize, concurrency: usize) -> Probe {
    let start = Instant::now();
    let latencies: Vec<Duration> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..concurrency)
            .map(|client| {
                s.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).ok();
                    let mut lat = Vec::with_capacity(REQUESTS_PER_CLIENT);
                    for i in 0..WARMUP_PER_CLIENT + REQUESTS_PER_CLIENT {
                        let seed = (client * 10_000 + i) as u64;
                        let t0 = Instant::now();
                        let status = generate(&mut stream, seed);
                        assert_eq!(status, 200, "generate must succeed under load");
                        if i >= WARMUP_PER_CLIENT {
                            lat.push(t0.elapsed());
                        }
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let wall = start.elapsed();
    let total = concurrency * (WARMUP_PER_CLIENT + REQUESTS_PER_CLIENT);
    let mut sorted = latencies;
    sorted.sort();
    let pct = |q: f64| {
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx].as_secs_f64() * 1e3
    };
    let snap = tsgb_obs::snapshot();
    let mean_batch = snap
        .histograms
        .iter()
        .find(|(n, _)| n == "serve.batch_size")
        .map(|(_, h)| h.sum / h.count.max(1) as f64)
        .unwrap_or(0.0);
    Probe {
        name: format!("{label}_c{concurrency}"),
        max_batch,
        concurrency,
        rps: total as f64 / wall.as_secs_f64(),
        p50_ms: pct(0.50),
        p95_ms: pct(0.95),
        p99_ms: pct(0.99),
        mean_batch,
        fwd_delay_ms: 0,
    }
}

/// One keep-alive `POST /generate` via the shared wire client;
/// returns the status code.
fn generate(stream: &mut TcpStream, seed: u64) -> u16 {
    let body = format!("{{\"model\":\"{MODEL}\",\"n\":{N_PER_REQUEST},\"seed\":{seed}}}");
    http_request(stream, "POST", "/generate", body.as_bytes())
        .expect("exchange with server")
        .status
}

fn render_json(
    probes: &[Probe],
    stream_probes: &[StreamProbe],
    speedup_c8: f64,
    router_scaling_w2: f64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"config\": {{\"model\": \"{MODEL}\", \"n_per_request\": {N_PER_REQUEST}, \"requests_per_client\": {REQUESTS_PER_CLIENT}, \"warmup_per_client\": {WARMUP_PER_CLIENT}, \"router_fwd_delay_ms\": {ROUTER_FWD_DELAY_MS}, \"router_worker_batch\": {ROUTER_WORKER_BATCH}}},\n"
    ));
    out.push_str("  \"probes\": [\n");
    for (i, p) in probes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"max_batch\": {}, \"concurrency\": {}, \"rps\": {:.1}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"mean_batch\": {:.2}, \"fwd_delay_ms\": {}}}{}\n",
            p.name,
            p.max_batch,
            p.concurrency,
            p.rps,
            p.p50_ms,
            p.p95_ms,
            p.p99_ms,
            p.mean_batch,
            p.fwd_delay_ms,
            if i + 1 == probes.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"stream_probes\": [\n");
    for (i, p) in stream_probes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {STREAM_N}, \"chunk\": {}, \"ttfc_ms\": {:.3}, \"total_ms\": {:.3}, \"one_shot_ms\": {:.3}, \"chunks\": {}, \"chunk_rate_per_s\": {:.1}}}{}\n",
            p.chunk,
            p.ttfc_ms,
            p.total_ms,
            p.one_shot_ms,
            p.chunks,
            p.chunk_rate_per_s,
            if i + 1 == stream_probes.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"speedup_c8\": {speedup_c8:.2},\n"));
    out.push_str(&format!(
        "  \"router_scaling_w2\": {router_scaling_w2:.2}\n"
    ));
    out.push_str("}\n");
    out
}
