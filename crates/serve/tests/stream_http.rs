//! Integration tests for `POST /generate/stream` and conditional
//! `/generate` over a live listener: streamed chunks reassemble to
//! the exact one-shot response, frame metadata is consistent, the
//! per-chunk deadline check ends a stream with an error object, a
//! stream whose model panics mid-flight is cut before its terminator,
//! a stream in flight survives a graceful drain, the `condition`
//! field routes (or 400s) correctly, and a non-finite sample renders
//! as JSON `null` in both bodies.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_methods::persist::{PersistError, SnapshotWriter};
use tsgb_methods::{GenSpec, MethodId, TrainConfig, TrainReport, TsgMethod, WindowStream};
use tsgb_rand::rngs::SmallRng;
use tsgb_serve::{Registry, ServeConfig, Server};
use tsgb_wire::{http_request, http_request_stream, Json};

fn ephemeral() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    }
}

fn fitted_vae() -> Box<dyn TsgMethod> {
    let data = Tensor3::from_fn(12, 8, 2, |s, t, f| {
        0.5 + 0.3 * ((t as f64) * 0.8 + s as f64 * 0.3 + f as f64).sin()
    });
    let mut m = MethodId::TimeVae.create(8, 2);
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::fast()
    };
    m.fit(&data, &cfg, &mut seeded(11));
    m
}

fn vae_registry() -> Registry {
    let mut r = Registry::new();
    r.insert("vae", fitted_vae()).unwrap();
    r
}

/// A pre-fitted method whose stream yields one window per chunk with a
/// fixed delay — the knob the deadline and drain tests turn — and
/// panics when asked for chunk `panic_on` (1-based), if set.
struct SlowStreamMethod {
    delay: Duration,
    panic_on: Option<usize>,
}

struct SlowStream {
    delay: Duration,
    remaining: usize,
    panic_on: Option<usize>,
    chunks: usize,
}

impl WindowStream for SlowStream {
    fn next_chunk(&mut self, len: usize) -> Option<Tensor3> {
        if self.remaining == 0 {
            return None;
        }
        self.chunks += 1;
        assert_ne!(Some(self.chunks), self.panic_on, "model fault mid-stream");
        std::thread::sleep(self.delay);
        let take = len.max(1).min(self.remaining);
        self.remaining -= take;
        Some(Tensor3::zeros(take, 8, 2))
    }
    fn remaining(&self) -> usize {
        self.remaining
    }
}

impl TsgMethod for SlowStreamMethod {
    fn id(&self) -> MethodId {
        MethodId::Rgan
    }
    fn fit(&mut self, _: &Tensor3, _: &TrainConfig, _: &mut SmallRng) -> TrainReport {
        unreachable!("SlowStreamMethod is pre-fitted")
    }
    fn generate(&self, n: usize, _: &mut SmallRng) -> Tensor3 {
        Tensor3::zeros(n, 8, 2)
    }
    fn open_stream(&self, spec: GenSpec) -> Box<dyn WindowStream + '_> {
        Box::new(SlowStream {
            delay: self.delay,
            remaining: spec.n,
            panic_on: self.panic_on,
            chunks: 0,
        })
    }
    fn save(&self) -> Option<Vec<u8>> {
        Some(SnapshotWriter::new(self.id(), 8, 2).finish())
    }
    fn load(&mut self, _: &[u8]) -> Result<(), PersistError> {
        Ok(())
    }
}

fn slow_registry(delay_ms: u64) -> Registry {
    let mut r = Registry::new();
    r.insert(
        "slow",
        Box::new(SlowStreamMethod {
            delay: Duration::from_millis(delay_ms),
            panic_on: None,
        }),
    )
    .unwrap();
    r
}

/// A stub whose every window is `[[NaN, inf], [-inf, 0.5]]`.
struct NonFinite;

/// The stub's window in render order.
const NON_FINITE: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5];

impl TsgMethod for NonFinite {
    fn id(&self) -> MethodId {
        MethodId::Rgan
    }
    fn fit(&mut self, _: &Tensor3, _: &TrainConfig, _: &mut SmallRng) -> TrainReport {
        unreachable!("NonFinite is pre-fitted")
    }
    fn generate(&self, n: usize, _: &mut SmallRng) -> Tensor3 {
        Tensor3::from_fn(n, 2, 2, |_, t, f| NON_FINITE[2 * t + f])
    }
    fn save(&self) -> Option<Vec<u8>> {
        Some(SnapshotWriter::new(self.id(), 2, 2).finish())
    }
    fn load(&mut self, _: &[u8]) -> Result<(), PersistError> {
        Ok(())
    }
}

/// The numbers of a parsed sample array, in render order, with `None`
/// for a `null`.
fn sample_values(samples: &Json) -> Vec<Option<f64>> {
    match samples {
        Json::Arr(items) => items.iter().flat_map(sample_values).collect(),
        Json::Null => vec![None],
        other => vec![Some(other.as_f64().expect("a number or null"))],
    }
}

/// Collects a whole chunked stream: returns (status, parsed frames).
fn stream_frames(addr: SocketAddr, body: &str) -> (u16, Vec<Json>) {
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    let mut resp =
        http_request_stream(&mut conn, "POST", "/generate/stream", body.as_bytes()).unwrap();
    let mut frames = Vec::new();
    while let Some(chunk) = resp.next_chunk(&mut conn).unwrap() {
        let text = String::from_utf8(chunk).unwrap();
        frames.push(Json::parse(&text).unwrap_or_else(|e| panic!("bad frame {text:?}: {e}")));
    }
    (resp.status, frames)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    let resp = http_request(&mut conn, "POST", path, body.as_bytes()).unwrap();
    (resp.status, String::from_utf8(resp.body).unwrap())
}

fn one_shot(addr: SocketAddr, body: &str) -> (u16, Json) {
    let (status, text) = post(addr, "/generate", body);
    (status, Json::parse(&text).unwrap())
}

#[test]
fn streamed_chunks_reassemble_to_the_one_shot_response() {
    let server = Server::start(vae_registry(), ephemeral()).unwrap();
    let addr = server.addr();
    let req = "{\"model\":\"vae\",\"n\":10,\"seed\":5}";
    let (status, reference) = one_shot(addr, req);
    assert_eq!(status, 200);

    for chunk in [1usize, 3, 10, 16] {
        let body = format!("{{\"model\":\"vae\",\"n\":10,\"seed\":5,\"chunk\":{chunk}}}");
        let (status, frames) = stream_frames(addr, &body);
        assert_eq!(status, 200);

        let head = &frames[0];
        assert_eq!(head.get("model"), Some(&Json::Str("vae".into())));
        assert_eq!(head.get("n").and_then(Json::as_u64), Some(10));
        assert_eq!(head.get("chunk").and_then(Json::as_u64), Some(chunk as u64));

        let tail = frames.last().unwrap();
        assert_eq!(tail.get("done"), Some(&Json::Bool(true)));
        assert_eq!(tail.get("windows").and_then(Json::as_u64), Some(10));
        let expected_chunks = 10usize.div_ceil(chunk) as u64;
        assert_eq!(
            tail.get("chunks").and_then(Json::as_u64),
            Some(expected_chunks)
        );

        // data frames: offsets contiguous, samples concatenate to the
        // one-shot array — same parser, so equality here is equality of
        // every float's shortest-roundtrip encoding, i.e. of its bits
        let mut samples = Vec::new();
        let mut offset = 0u64;
        for frame in &frames[1..frames.len() - 1] {
            assert_eq!(frame.get("offset").and_then(Json::as_u64), Some(offset));
            let Some(Json::Arr(part)) = frame.get("samples") else {
                panic!("frame without samples: {frame:?}");
            };
            assert_eq!(
                frame.get("count").and_then(Json::as_u64),
                Some(part.len() as u64)
            );
            offset += part.len() as u64;
            samples.extend(part.iter().cloned());
        }
        let Some(Json::Arr(expected)) = reference.get("samples") else {
            panic!("one-shot response without samples");
        };
        assert_eq!(
            &samples, expected,
            "chunk={chunk}: streamed windows differ from one-shot"
        );
    }
    server.shutdown();
}

#[test]
fn per_chunk_deadline_ends_the_stream_with_an_error_object() {
    // 60 ms per window, 5 windows, 100 ms deadline: the stream starts
    // healthy and expires mid-flight
    let server = Server::start(slow_registry(60), ephemeral()).unwrap();
    let body = "{\"model\":\"slow\",\"n\":5,\"seed\":1,\"chunk\":1,\"deadline_ms\":100}";
    let (status, frames) = stream_frames(server.addr(), body);
    assert_eq!(status, 200, "stream starts before the deadline trips");
    let tail = frames.last().unwrap();
    assert_eq!(
        tail.get("done"),
        Some(&Json::Bool(false)),
        "expired stream must not claim completion: {tail:?}"
    );
    assert!(
        tail.get("error").is_some(),
        "missing error object: {tail:?}"
    );
    let sent = tail.get("chunks").and_then(Json::as_u64).unwrap();
    assert!(sent < 5, "all chunks arrived despite the deadline");
    server.shutdown();
}

#[test]
fn an_expired_deadline_is_rejected_before_streaming() {
    let server = Server::start(vae_registry(), ephemeral()).unwrap();
    let (status, _) = post(
        server.addr(),
        "/generate/stream",
        "{\"model\":\"vae\",\"n\":4,\"deadline_ms\":0}",
    );
    assert_eq!(status, 504);
    server.shutdown();
}

/// A model whose stream panics on chunk 2 of 4: the client gets the
/// head and chunk 1, then the connection closes before any trailer or
/// terminator, so no frame claims completion. The server keeps
/// answering and still shuts down.
#[test]
fn a_stream_that_panics_mid_flight_is_cut_before_its_terminator() {
    let mut registry = Registry::new();
    let faulty = SlowStreamMethod {
        delay: Duration::ZERO,
        panic_on: Some(2),
    };
    registry.insert("faulty", Box::new(faulty)).unwrap();
    let server = Server::start(registry, ephemeral()).unwrap();
    let addr = server.addr();

    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    let body = b"{\"model\":\"faulty\",\"n\":4,\"seed\":3,\"chunk\":1}";
    let mut resp = http_request_stream(&mut conn, "POST", "/generate/stream", body).unwrap();
    assert_eq!(resp.status, 200);
    let mut frames = Vec::new();
    let cut = loop {
        match resp.next_chunk(&mut conn) {
            Ok(Some(chunk)) => {
                frames.push(Json::parse(std::str::from_utf8(&chunk).unwrap()).unwrap())
            }
            Ok(None) => panic!("the stream ended with its terminator: {frames:?}"),
            Err(e) => break e,
        }
    };
    assert_eq!(cut.kind(), std::io::ErrorKind::UnexpectedEof, "{cut}");
    assert!(
        frames.iter().all(|f| f.get("done").is_none()),
        "a frame claims completion: {frames:?}"
    );
    assert_eq!(frames.len(), 2, "the head and chunk 1: {frames:?}");

    let (status, later) = one_shot(addr, "{\"model\":\"faulty\",\"n\":2,\"seed\":3}");
    assert_eq!(status, 200, "{later:?}");
    server.shutdown();
}

#[test]
fn a_stream_in_flight_survives_graceful_drain() {
    let server = Server::start(slow_registry(40), ephemeral()).unwrap();
    let addr = server.addr();
    let client = std::thread::spawn(move || {
        stream_frames(addr, "{\"model\":\"slow\",\"n\":6,\"seed\":2,\"chunk\":1}")
    });
    // let the stream begin, then drain while chunks are still flowing
    std::thread::sleep(Duration::from_millis(90));
    let t0 = Instant::now();
    server.shutdown();
    let (status, frames) = client.join().unwrap();
    assert_eq!(status, 200);
    let tail = frames.last().unwrap();
    assert_eq!(
        tail.get("done"),
        Some(&Json::Bool(true)),
        "drain truncated an accepted stream: {tail:?}"
    );
    assert_eq!(tail.get("windows").and_then(Json::as_u64), Some(6));
    assert!(
        t0.elapsed() >= Duration::from_millis(50),
        "shutdown returned before the stream finished"
    );
}

#[test]
fn conditional_generate_routes_and_strength_zero_is_identical() {
    let server = Server::start(vae_registry(), ephemeral()).unwrap();
    let addr = server.addr();
    let (status, plain) = one_shot(addr, "{\"model\":\"vae\",\"n\":6,\"seed\":9}");
    assert_eq!(status, 200);

    let (status, zero) = one_shot(
        addr,
        "{\"model\":\"vae\",\"n\":6,\"seed\":9,\"condition\":{\"class\":2,\"strength\":0.0}}",
    );
    assert_eq!(status, 200);
    assert_eq!(
        plain.get("samples"),
        zero.get("samples"),
        "strength 0 must be bit-identical to unconditional"
    );

    let (status, shaped) = one_shot(
        addr,
        "{\"model\":\"vae\",\"n\":6,\"seed\":9,\"condition\":{\"class\":2,\"strength\":2.0}}",
    );
    assert_eq!(status, 200);
    assert_ne!(
        plain.get("samples"),
        shaped.get("samples"),
        "a real condition must shape the draw"
    );

    // covariate form parses too
    let (status, cov) = one_shot(
        addr,
        "{\"model\":\"vae\",\"n\":6,\"seed\":9,\"condition\":{\"covariates\":[1.0,0.0],\"strength\":1.5}}",
    );
    assert_eq!(status, 200);
    assert!(cov.get("samples").is_some());
    server.shutdown();
}

#[test]
fn conditional_generate_rejects_unsupported_models_and_bad_bodies() {
    // SlowStreamMethod has no ConditionalSample capability
    let server = Server::start(slow_registry(1), ephemeral()).unwrap();
    let addr = server.addr();
    let (status, text) = post(
        addr,
        "/generate",
        "{\"model\":\"slow\",\"n\":2,\"condition\":{\"class\":1}}",
    );
    assert_eq!(status, 400);
    assert!(text.contains("does not support"), "{text}");

    for bad in [
        "{\"model\":\"slow\",\"n\":2,\"condition\":{}}",
        "{\"model\":\"slow\",\"n\":2,\"condition\":{\"class\":-1}}",
        "{\"model\":\"slow\",\"n\":2,\"condition\":{\"covariates\":\"x\"}}",
    ] {
        let (status, _) = post(addr, "/generate", bad);
        assert_eq!(status, 400, "{bad}");
    }
    // chunk 0 is only invalid on the stream route
    let (status, _) = post(
        addr,
        "/generate/stream",
        "{\"model\":\"slow\",\"n\":2,\"chunk\":0}",
    );
    assert_eq!(status, 400);
    server.shutdown();

    // a model with the capability still rejects a non-finite strength or
    // covariate (1e999 parses as infinity) and a class beyond u32
    let server = Server::start(vae_registry(), ephemeral()).unwrap();
    let addr = server.addr();
    for bad in [
        "{\"model\":\"vae\",\"n\":2,\"condition\":{\"class\":1,\"strength\":1e999}}",
        "{\"model\":\"vae\",\"n\":2,\"condition\":{\"covariates\":[0.5,-1e999]}}",
        "{\"model\":\"vae\",\"n\":2,\"condition\":{\"class\":4294967297}}",
    ] {
        let (status, text) = post(addr, "/generate", bad);
        assert_eq!(status, 400, "{bad}: {text}");
        assert!(text.contains("\"condition."), "{bad}: {text}");
    }
    server.shutdown();
}

#[test]
fn non_finite_samples_render_as_null() {
    let mut registry = Registry::new();
    registry.insert("nan", Box::new(NonFinite)).unwrap();
    let server = Server::start(registry, ephemeral()).unwrap();
    let addr = server.addr();
    let want: Vec<Option<f64>> = [None, None, None, Some(0.5)].repeat(3);

    let (status, body) = one_shot(addr, "{\"model\":\"nan\",\"n\":3,\"seed\":1}");
    assert_eq!(status, 200);
    assert_eq!(sample_values(body.get("samples").unwrap()), want);

    let (status, frames) = stream_frames(addr, "{\"model\":\"nan\",\"n\":3,\"chunk\":2}");
    assert_eq!(status, 200);
    let streamed: Vec<Option<f64>> = frames
        .iter()
        .filter_map(|f| f.get("samples"))
        .flat_map(sample_values)
        .collect();
    assert_eq!(streamed, want);
    server.shutdown();
}
