//! `serve`: an in-process `tsgb-serve` server with the default
//! `ServeConfig` (f64, batch 8, linger 2 ms) serving a TimeVAE
//! (l = 256, 4 features) fitted during set-up, driven over two
//! keep-alive connections by `POST /generate` requests (n = 1, a
//! distinct seed per request).
//!
//! The run alternates rounds of two segments. A light rung is an open
//! loop of seeded Poisson arrivals at a rate where requests rarely
//! overlap; each request is timed from its due time, so a stall charges
//! every request queued behind it. It gives the latency. A saturation
//! segment is a closed loop, both connections sending back to back; its
//! completed rate is the server's capacity. Each metric is the median
//! over its segments, so a slow spell of the host moves a few segments
//! rather than the whole figure. A fixed ladder of open-loop rates,
//! from the light rung to past what two connections carry, then checks
//! the SLO; the search stops at the first rung that misses it, and its
//! result goes to stderr.

use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tsgb_linalg::rng::seeded;
use tsgb_methods::{load_method, MethodId, TrainConfig, TsgMethod};
use tsgb_rand::Rng;
use tsgb_serve::{Registry, ServeConfig, Server};
use tsgb_wire::client::http_request;
use tsgb_wire::digest::Fnv64;
use tsgb_wire::Json;

use crate::grid::nn_metrics;
use crate::harness::{self, median, Args, Metrics, Obs, Rung, Tally};
use crate::Outcome;

const MODEL: &str = "timevae";
const SEQ_LEN: usize = 256;
const FEATURES: usize = 4;
const CONNECTIONS: usize = 2;
/// Latency limit on the tail percentile, from each request's due time.
/// On a shared 2-vCPU host the light-rung tail alone ranges from 10 to
/// 30 ms as the host's own load changes, so the limit sits well above
/// that, and the ladder's rungs sit far from it on both sides.
const SLO_MS: f64 = 100.0;
/// Rounds of (light segment, saturation segment) that give the metrics.
const ROUNDS: usize = 5;
/// The light rung: offered req/s (requests rarely overlap a ~5 ms
/// service time) and each light segment's share of the run.
const LIGHT: (f64, f64) = (50.0, 0.12);
/// Each saturation segment's share of the run.
const SATURATE_SHARE: f64 = 0.04;
/// The SLO ladder above the light rung: `(offered req/s, share of the
/// run)`, ascending. The last is about twice what two connections carry
/// (300-380 req/s on a 2-vCPU host), and is short because its backlog
/// must drain.
const LADDER_ABOVE: [(f64, f64); 2] = [(100.0, 0.17), (800.0, 0.03)];
/// Untimed requests per connection before the first segment.
const WARM_UP_REQUESTS: usize = 10;
/// A rung's backlog grows when the mean send delay of its last third
/// exceeds that of its first third by more than this.
const BACKLOG_GROWTH_MS: f64 = SLO_MS / 2.0;
/// A rung whose mean send lateness exceeds this is flagged: the
/// generator, not the server, fell behind.
const LAG_FLAG_MS: f64 = 1.0;

struct Served {
    server: Server,
    /// A second copy of the served checkpoint, for the output check.
    model: Box<dyn TsgMethod>,
}

fn setup(seed: u64) -> Served {
    let mut rng = seeded(seed);
    let train = tsgb_data::sine::sine_dataset(24, SEQ_LEN, FEATURES, &mut rng);
    let mut method = MethodId::TimeVae.create(SEQ_LEN, FEATURES);
    let cfg = TrainConfig {
        epochs: 3,
        hidden: 192,
        latent: 16,
        ..TrainConfig::fast()
    };
    method.fit(&train, &cfg, &mut rng);
    let ckpt = method.save().expect("a fitted model serializes");
    let mut registry = Registry::new();
    registry
        .insert(MODEL, load_method(&ckpt).expect("checkpoint loads"))
        .expect("register the model");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    let server = Server::start(registry, cfg).expect("start the server");
    Served {
        server,
        model: load_method(&ckpt).expect("checkpoint loads"),
    }
}

fn connect(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect to the server");
    s.set_nodelay(true).ok();
    s
}

/// One sent request, with times in ms.
struct Sent {
    seed: u64,
    /// Sample digest of a `200` response; `None` for anything else.
    digest: Option<u64>,
    /// `send - due`: waiting for a free connection plus lateness.
    delay_ms: f64,
    /// `send - max(due, connection free)`: the generator's own lateness.
    lag_ms: f64,
    /// `done - due`.
    latency_ms: f64,
    /// `done - send`: what the client saw on the wire.
    client_ms: f64,
}

/// Absorbs every number of a parsed sample array in render order and
/// returns how many there were; `None` for anything but nested arrays
/// of numbers.
fn absorb(v: &Json, h: &mut Fnv64) -> Option<usize> {
    match v {
        Json::Num(x) => {
            h.update_u64(x.to_bits());
            Some(1)
        }
        Json::Arr(items) => items.iter().map(|i| absorb(i, h)).sum(),
        _ => None,
    }
}

/// Digest of a `/generate` body's samples, if they are exactly one
/// `SEQ_LEN` x `FEATURES` window.
fn sample_digest(body: &[u8]) -> Option<u64> {
    let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let mut h = Fnv64::new();
    (absorb(doc.get("samples")?, &mut h)? == SEQ_LEN * FEATURES).then(|| h.finish())
}

/// Expected digest: the served checkpoint's own `generate(1, seeded(seed))`.
fn expected_digest(model: &dyn TsgMethod, seed: u64) -> u64 {
    let mut h = Fnv64::new();
    for v in model.generate(1, &mut seeded(seed)).as_slice() {
        h.update_u64(v.to_bits());
    }
    h.finish()
}

/// When request `i` of a segment is due, or `None` once the segment is
/// over.
type DueAt<'a> = &'a (dyn Fn(usize) -> Option<Instant> + Sync);

/// One client connection's share of a segment: take the next request,
/// wait for its due time, send, read the reply.
fn client(
    addr: &str,
    conn: &mut TcpStream,
    next: &AtomicUsize,
    due_at: DueAt,
    seed_base: u64,
) -> Vec<Sent> {
    let mut out = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(due) = due_at(i) else {
            return out;
        };
        let ready = due.max(Instant::now());
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let send = Instant::now();
        let seed = seed_base + i as u64;
        let body = format!("{{\"model\":\"{MODEL}\",\"n\":1,\"seed\":{seed}}}");
        let reply = http_request(conn, "POST", "/generate", body.as_bytes());
        let done = Instant::now();
        let digest = match &reply {
            Ok(r) if r.status == 200 => sample_digest(&r.body),
            Ok(r) => {
                eprintln!("request {seed}: status {} {}", r.status, r.text());
                None
            }
            Err(e) => {
                eprintln!("request {seed}: {e}; reconnecting");
                *conn = connect(addr);
                None
            }
        };
        let ms = |a: Instant, b: Instant| a.saturating_duration_since(b).as_secs_f64() * 1e3;
        out.push(Sent {
            seed,
            digest,
            delay_ms: ms(send, due),
            lag_ms: ms(send, ready),
            latency_ms: ms(done, due),
            client_ms: ms(done, send),
        });
    }
}

/// Runs one segment over every connection. Returns its requests in
/// seed order and its wall time (s) from `start`.
fn drive(
    addr: &str,
    conns: &mut [TcpStream],
    start: Instant,
    due_at: DueAt,
    seed: u64,
) -> (Vec<Sent>, f64) {
    // distinct request seeds per segment, kept below 2^53 so they
    // survive the JSON number encoding exactly
    let seed_base = (seed & 0xFFFF_FFFF) << 20;
    let next = AtomicUsize::new(0);
    let mut sent: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                s.spawn(move || client(addr, conn, next, due_at, seed_base))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = Instant::now()
        .saturating_duration_since(start)
        .as_secs_f64();
    sent.sort_by_key(|r| r.seed);
    (sent, wall)
}

/// Latencies from due time; a request that failed misses any limit.
fn latencies(sent: &[Sent]) -> Vec<f64> {
    sent.iter()
        .map(|r| {
            if r.digest.is_some() {
                r.latency_ms
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Everything measured on one open-loop rung.
struct RungRun {
    rung: Rung,
    sent: Vec<Sent>,
    p50_ms: f64,
}

fn run_rung(addr: &str, conns: &mut [TcpStream], rate: f64, secs: f64, seed: u64) -> RungRun {
    // a Poisson process conditioned on its count: n uniform arrival
    // times, sorted, so every rung offers exactly rate * secs requests
    let n = ((rate * secs).round() as usize).max(11);
    let span = n as f64 / rate;
    let mut rng = seeded(seed);
    let mut arrivals: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * span).collect();
    arrivals.sort_by(f64::total_cmp);
    let schedule: Vec<Duration> = arrivals.into_iter().map(Duration::from_secs_f64).collect();
    let start = Instant::now() + Duration::from_millis(5);
    let due_at = |i: usize| schedule.get(i).map(|&offset| start + offset);
    let (sent, wall) = drive(addr, conns, start, &due_at, seed);

    let ok: Vec<f64> = sent
        .iter()
        .filter(|r| r.digest.is_some())
        .map(|r| r.latency_ms)
        .collect();
    let failed = (sent.len() - ok.len()) as u64;
    let tail = harness::tail(&latencies(&sent)).expect("rungs send at least 11 requests");
    let third = sent.len() / 3;
    let delay = |rs: &[Sent]| harness::mean(&rs.iter().map(|r| r.delay_ms).collect::<Vec<_>>());
    let growth = delay(&sent[sent.len() - third..]) - delay(&sent[..third]);
    let lag_ms = harness::mean(&sent.iter().map(|r| r.lag_ms).collect::<Vec<_>>());
    let rung = Rung {
        rate,
        achieved_rps: ok.len() as f64 / wall,
        tail_ms: tail.value,
        failed,
        backlog_grew: growth > BACKLOG_GROWTH_MS,
    };
    let p50_ms = if ok.is_empty() {
        f64::INFINITY
    } else {
        median(&ok)
    };
    eprintln!(
        "rung {rate:>5} req/s: {} sent, {failed} failed, achieved {:.1} req/s, p50 {p50_ms:.3} ms, p{} {:.3} ms of {}, send-delay growth {growth:.2} ms, lag {lag_ms:.3} ms{}{}",
        sent.len(),
        rung.achieved_rps,
        tail.percentile,
        tail.value,
        tail.samples,
        if rung.backlog_grew { ", BACKLOG GROWS" } else { "" },
        if lag_ms > LAG_FLAG_MS { ", GENERATOR FELL BEHIND" } else { "" },
    );
    RungRun { rung, sent, p50_ms }
}

/// A closed-loop segment: both connections send back to back for
/// `secs`. Returns its requests and their completed rate (req/s).
fn saturate(addr: &str, conns: &mut [TcpStream], secs: f64, seed: u64) -> (Vec<Sent>, f64) {
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(secs);
    let due_at = |_: usize| Some(Instant::now()).filter(|&now| now < stop);
    let (sent, wall) = drive(addr, conns, start, &due_at, seed);
    let ok = sent.iter().filter(|r| r.digest.is_some()).count();
    let rps = ok as f64 / wall;
    eprintln!(
        "saturate: {} sent, {} failed, {rps:.1} req/s",
        sent.len(),
        sent.len() - ok
    );
    (sent, rps)
}

/// The light rung as the SLO ladder sees it: all light segments as one.
fn light_rung(segments: &[RungRun]) -> Rung {
    let all: Vec<f64> = segments.iter().flat_map(|r| latencies(&r.sent)).collect();
    let tail = harness::tail(&all).expect("rungs send at least 11 requests");
    eprintln!(
        "light rung over {} segments: p{} {:.3} ms of {}",
        segments.len(),
        tail.percentile,
        tail.value,
        tail.samples
    );
    let achieved: Vec<f64> = segments.iter().map(|r| r.rung.achieved_rps).collect();
    Rung {
        rate: LIGHT.0,
        achieved_rps: harness::mean(&achieved),
        tail_ms: tail.value,
        failed: segments.iter().map(|r| r.rung.failed).sum(),
        backlog_grew: segments.iter().any(|r| r.rung.backlog_grew),
    }
}

fn median_p50(segments: &[RungRun]) -> f64 {
    median(&segments.iter().map(|r| r.p50_ms).collect::<Vec<_>>())
}

/// Checks every response against the checkpoint's own draw; returns
/// the generate times (ms).
fn verify(model: &dyn TsgMethod, sent: &[&Sent], tally: &mut Tally) -> Vec<f64> {
    let results = tsgb_par::parallel_map(sent.len(), |i| {
        let t0 = Instant::now();
        let expected = expected_digest(model, sent[i].seed);
        (
            sent[i].digest == Some(expected),
            t0.elapsed().as_secs_f64() * 1e3,
        )
    });
    let mut gen_ms = Vec::with_capacity(results.len());
    for (r, (ok, ms)) in sent.iter().zip(results) {
        tally.record(ok, || {
            format!(
                "request seed {}: response does not match generate(1, seeded(seed))",
                r.seed
            )
        });
        gen_ms.push(ms);
    }
    gen_ms
}

pub fn run(args: &Args) -> Outcome {
    let (served, setup_s) = harness::repeated_setup(5, || setup(args.seed));
    let addr = served.server.addr().to_string();
    let mut conns: Vec<TcpStream> = (0..CONNECTIONS).map(|_| connect(&addr)).collect();
    let mut tally = Tally::default();
    // a few untimed requests per connection let the server's lazy
    // state and the allocator settle before anything is measured
    for (c, conn) in conns.iter_mut().enumerate() {
        for i in 0..WARM_UP_REQUESTS {
            let body = format!("{{\"model\":\"{MODEL}\",\"n\":1,\"seed\":{}}}", c * 100 + i);
            let status = http_request(conn, "POST", "/generate", body.as_bytes()).map(|r| r.status);
            tally.record(matches!(status, Ok(200)), || {
                format!("warm-up request: {status:?}")
            });
        }
    }
    let peak_rss_mb = harness::peak_rss_mb();
    let mut m = Metrics::default();
    let segment_seed = |i: usize| args.seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);

    if args.trace {
        // light segments only, alternating untraced and traced
        let secs = args.seconds / (2 * ROUNDS) as f64;
        tsgb_obs::reset();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for k in 0..2 * ROUNDS {
            let on = k % 2 == 1;
            tsgb_obs::set_enabled(on);
            let run = run_rung(&addr, &mut conns, LIGHT.0, secs, segment_seed(k));
            tsgb_obs::set_enabled(false);
            if on {
                traced.push(run);
            } else {
                plain.push(run);
            }
        }
        let obs = Obs::take();
        let sent: Vec<&Sent> = plain.iter().chain(&traced).flat_map(|r| &r.sent).collect();
        let gen_ms = verify(served.model.as_ref(), &sent, &mut tally);
        let traced_sent: Vec<&Sent> = traced.iter().flat_map(|r| &r.sent).collect();
        let mean_of = |f: fn(&Sent) -> f64| {
            harness::mean(&traced_sent.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        let handle = obs.hist_mean("serve.latency_ms");
        let forward = obs.hist_mean("serve.forward_ms");
        m.set("generate_ms.TimeVAE", harness::mean(&gen_ms));
        nn_metrics(&mut m, &obs, 1.0);
        m.set("serve.handle_ms", handle);
        m.set("serve.forward_ms", forward);
        m.set("serve.batch_size", obs.hist_mean("serve.batch_size"));
        m.set("serve.wait_ms", handle - forward);
        m.set("serve.rejected", obs.counter("serve.rejected"));
        m.set("wire.transport_ms", mean_of(|r| r.client_ms) - handle);
        m.set(
            "obs.overhead_frac",
            median_p50(&traced) / median_p50(&plain) - 1.0,
        );
        m.set("loadgen.lag_ms", mean_of(|r| r.lag_ms));
    } else {
        let (mut light, mut saturated, mut capacity) = (Vec::new(), Vec::new(), Vec::new());
        for r in 0..ROUNDS {
            let secs = args.seconds * LIGHT.1;
            light.push(run_rung(
                &addr,
                &mut conns,
                LIGHT.0,
                secs,
                segment_seed(2 * r),
            ));
            let secs = args.seconds * SATURATE_SHARE;
            let (sent, rps) = saturate(&addr, &mut conns, secs, segment_seed(2 * r + 1));
            saturated.extend(sent);
            capacity.push(rps);
        }
        let mut above = Vec::new();
        let rates: Vec<f64> = std::iter::once(LIGHT.0)
            .chain(LADDER_ABOVE.map(|(rate, _)| rate))
            .collect();
        let (best, rungs) = harness::ladder_search(&rates, SLO_MS, |rate| {
            if rate == LIGHT.0 {
                return light_rung(&light);
            }
            let i = above.len();
            let secs = args.seconds * LADDER_ABOVE[i].1;
            let run = run_rung(&addr, &mut conns, rate, secs, segment_seed(2 * ROUNDS + i));
            let rung = run.rung.clone();
            above.push(run);
            rung
        });
        let throughput = median(&capacity);
        eprintln!(
            "serve: SLO p-tail <= {SLO_MS} ms met up to {} req/s offered; capacity {throughput:.1} req/s over {CONNECTIONS} connections (median of {ROUNDS} closed-loop segments)",
            best.map_or(0.0, |i| rungs[i].rate)
        );
        let sent: Vec<&Sent> = light
            .iter()
            .chain(&above)
            .flat_map(|r| &r.sent)
            .chain(&saturated)
            .collect();
        verify(served.model.as_ref(), &sent, &mut tally);
        m.set("setup_s", setup_s);
        m.set("peak_rss_mb", peak_rss_mb);
        m.set("throughput", throughput);
        m.set("p50_ms", median_p50(&light));
    }
    drop(conns);
    served.server.shutdown();
    Outcome { tally, metrics: m }
}
