//! Integration tests against a live listener: every robustness
//! promise in the serving contract — batching bit-identity, 503
//! backpressure with `Retry-After`, 504 deadlines, structured errors,
//! and graceful drain with zero dropped in-flight requests — is
//! exercised over a real TCP connection.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_methods::common::GenSpec;
use tsgb_methods::persist::{PersistError, SnapshotWriter};
use tsgb_methods::{MethodId, TrainConfig, TrainReport, TsgMethod};
use tsgb_rand::rngs::SmallRng;
use tsgb_serve::{Registry, ServeConfig, Server};
use tsgb_wire::Json;

// ---------------------------------------------------------------- helpers

fn ephemeral(max_batch: usize, queue_cap: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_batch,
        queue_cap,
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

/// A deliberately slow fitted method for backpressure and deadline
/// tests: each `generate` call sleeps `delay` then returns zeros.
struct SlowMethod {
    delay: Duration,
}

impl TsgMethod for SlowMethod {
    fn id(&self) -> MethodId {
        MethodId::Rgan
    }
    fn fit(&mut self, _: &Tensor3, _: &TrainConfig, _: &mut SmallRng) -> TrainReport {
        unreachable!("SlowMethod is pre-fitted")
    }
    fn generate(&self, n: usize, _: &mut SmallRng) -> Tensor3 {
        std::thread::sleep(self.delay);
        Tensor3::zeros(n, 8, 2)
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
        Box::new(SlowMethod {
            delay: Duration::from_millis(delay_ms),
        }),
    )
    .unwrap();
    r
}

/// Sends one request over an existing connection and reads one
/// `Content-Length`-framed response.
fn exchange(stream: &mut TcpStream, raw: &str) -> (u16, Vec<(String, String)>, String) {
    stream.write_all(raw.as_bytes()).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let body_len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse().unwrap())
        .unwrap_or(0);
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < body_len {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(body_len);
    (status, headers, String::from_utf8(body).unwrap())
}

fn get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    exchange(
        &mut s,
        &format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<(String, String)>, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    exchange(
        &mut s,
        &format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn generate_body(model: &str, n: usize, seed: u64) -> String {
    format!("{{\"model\":\"{model}\",\"n\":{n},\"seed\":{seed}}}")
}

// ------------------------------------------------------------------ tests

#[test]
fn smoke_healthz_models_generate_shutdown() {
    tsgb_obs::set_enabled(true);
    let server = Server::start(vae_registry(), ephemeral(8, 64)).unwrap();
    let addr = server.addr();

    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("models").unwrap().as_u64(), Some(1));

    let (status, _, body) = get(addr, "/models");
    assert_eq!(status, 200);
    let models = Json::parse(&body).unwrap();
    let Json::Arr(list) = models.get("models").unwrap() else {
        panic!("models is not an array: {body}");
    };
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].get("name").unwrap().as_str(), Some("vae"));
    assert_eq!(list[0].get("method").unwrap().as_str(), Some("TimeVAE"));
    assert_eq!(list[0].get("seq_len").unwrap().as_u64(), Some(8));
    assert_eq!(list[0].get("features").unwrap().as_u64(), Some(2));

    let (status, _, body) = post(addr, "/generate", &generate_body("vae", 3, 42));
    assert_eq!(status, 200, "{body}");
    let resp = Json::parse(&body).unwrap();
    assert_eq!(resp.get("n").unwrap().as_u64(), Some(3));
    assert_eq!(resp.get("seed").unwrap().as_u64(), Some(42));
    let Json::Arr(samples) = resp.get("samples").unwrap() else {
        panic!("samples missing");
    };
    assert_eq!(samples.len(), 3);

    // the serving path is deterministic: same (n, seed) → same body
    let (_, _, again) = post(addr, "/generate", &generate_body("vae", 3, 42));
    assert_eq!(
        body, again,
        "responses must be a pure function of (n, seed)"
    );

    // obs wiring: the counters moved during this exchange
    let snap = tsgb_obs::snapshot();
    let requests = snap
        .counters
        .iter()
        .find(|(k, _)| k == "serve.requests")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(requests >= 4, "serve.requests should count, got {requests}");

    let (status, _, body) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("draining"), "{body}");
    server.wait(); // returns because /shutdown signalled
    server.shutdown();
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let server = Server::start(vae_registry(), ephemeral(4, 16)).unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    for seed in [1u64, 2, 3] {
        let body = generate_body("vae", 1, seed);
        let (status, _, resp) = exchange(
            &mut s,
            &format!(
                "POST /generate HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert_eq!(status, 200, "{resp}");
        assert_eq!(
            Json::parse(&resp).unwrap().get("seed").unwrap().as_u64(),
            Some(seed)
        );
    }
    server.shutdown();
}

#[test]
fn structured_errors_cover_the_4xx_space() {
    let server = Server::start(vae_registry(), ephemeral(4, 16)).unwrap();
    let addr = server.addr();
    let code = |body: &str| {
        Json::parse(body)
            .unwrap()
            .get("error")
            .and_then(|e| e.get("code").and_then(Json::as_str).map(String::from))
            .unwrap_or_else(|| panic!("unstructured error body: {body}"))
    };

    let (status, _, body) = post(addr, "/generate", "{not json");
    assert_eq!((status, code(&body).as_str()), (400, "bad_request"));

    let (status, _, body) = post(addr, "/generate", "{\"n\":1}");
    assert_eq!((status, code(&body).as_str()), (400, "bad_request"));

    let (status, _, body) = post(addr, "/generate", &generate_body("vae", 0, 1));
    assert_eq!((status, code(&body).as_str()), (400, "bad_request"));

    let (status, _, body) = post(addr, "/generate", &generate_body("nope", 1, 1));
    assert_eq!((status, code(&body).as_str()), (404, "not_found"));

    let (status, _, body) = get(addr, "/generate");
    assert_eq!((status, code(&body).as_str()), (405, "method_not_allowed"));

    let (status, _, body) = get(addr, "/nowhere");
    assert_eq!((status, code(&body).as_str()), (404, "not_found"));

    server.shutdown();
}

#[test]
fn malformed_wire_input_gets_a_structured_400() {
    // not-HTTP bytes on the socket must be answered with the same
    // structured error shape as application-level 4xx, then closed —
    // the wire layer's Malformed contract, observed end to end
    let server = Server::start(vae_registry(), ephemeral(4, 16)).unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(b"NOT-HTTP ???\r\ncontent-length: banana\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap(); // server closes after the 400
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    let body = text.split("\r\n\r\n").nth(1).unwrap_or("");
    let err = Json::parse(body).unwrap();
    assert_eq!(
        err.get("error").unwrap().get("code").unwrap().as_str(),
        Some("bad_request")
    );
    server.shutdown();
}

#[test]
fn full_queue_rejects_503_with_retry_after() {
    // queue capacity 0: every generate bounces synchronously, which
    // makes the rejection deterministic
    let server = Server::start(slow_registry(50), ephemeral(1, 0)).unwrap();
    let (status, headers, body) = post(server.addr(), "/generate", &generate_body("slow", 1, 1));
    assert_eq!(status, 503, "{body}");
    let err = Json::parse(&body).unwrap();
    assert_eq!(
        err.get("error").unwrap().get("code").unwrap().as_str(),
        Some("overloaded")
    );
    let retry = headers
        .iter()
        .find(|(k, _)| k == "retry-after")
        .map(|(_, v)| v.clone())
        .expect("503 must carry Retry-After");
    assert!(retry.parse::<u64>().unwrap() >= 1);
    server.shutdown();
}

#[test]
fn queued_past_deadline_rejects_504() {
    // worker busy ~300ms with the first request; the second carries a
    // 50ms deadline and must expire in the queue
    let server = Server::start(slow_registry(300), ephemeral(1, 8)).unwrap();
    let addr = server.addr();
    let first = std::thread::spawn(move || post(addr, "/generate", &generate_body("slow", 1, 1)));
    std::thread::sleep(Duration::from_millis(60));
    let (status, _, body) = post(
        addr,
        "/generate",
        "{\"model\":\"slow\",\"n\":1,\"seed\":2,\"deadline_ms\":50}",
    );
    assert_eq!(status, 504, "{body}");
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("deadline_exceeded")
    );
    let (status, _, _) = first.join().unwrap();
    assert_eq!(status, 200, "the undeadlined request still completes");
    server.shutdown();
}

#[test]
fn graceful_shutdown_completes_in_flight_requests() {
    let server = Server::start(slow_registry(300), ephemeral(1, 8)).unwrap();
    let addr = server.addr();
    let in_flight =
        std::thread::spawn(move || post(addr, "/generate", &generate_body("slow", 2, 7)));
    // let the request reach its forward pass before draining
    std::thread::sleep(Duration::from_millis(80));
    server.shutdown();
    let (status, _, body) = in_flight.join().unwrap();
    assert_eq!(
        status, 200,
        "in-flight request dropped during drain: {body}"
    );
    let resp = Json::parse(&body).unwrap();
    assert_eq!(resp.get("n").unwrap().as_u64(), Some(2));
    // the listener is gone afterwards
    assert!(
        TcpStream::connect(addr).is_err() || {
            // the OS may accept briefly; a request must at least fail
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
                .unwrap();
            let mut out = Vec::new();
            s.read_to_end(&mut out).map(|n| n == 0).unwrap_or(true)
        }
    );
}

#[test]
fn batched_responses_are_bit_identical_to_serial() {
    let seeds: Vec<u64> = (0..8).collect();

    // serial reference: batching disabled
    let serial_server = Server::start(vae_registry(), ephemeral(1, 64)).unwrap();
    let serial_addr = serial_server.addr();
    let serial: Vec<String> = seeds
        .iter()
        .map(|&s| {
            let (status, _, body) = post(serial_addr, "/generate", &generate_body("vae", 2, s));
            assert_eq!(status, 200);
            body
        })
        .collect();
    serial_server.shutdown();

    // batched: a 40 ms forward delay holds each batch while the other
    // requests queue, so they coalesce
    let batched_cfg = ServeConfig {
        fwd_delay_ms: 40,
        ..ephemeral(8, 64)
    };
    let batched_server = Server::start(vae_registry(), batched_cfg).unwrap();
    let batched_addr = batched_server.addr();
    let handles: Vec<_> = seeds
        .iter()
        .map(|&s| {
            std::thread::spawn(move || {
                let (status, _, body) =
                    post(batched_addr, "/generate", &generate_body("vae", 2, s));
                assert_eq!(status, 200);
                body
            })
        })
        .collect();
    let batched: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    batched_server.shutdown();

    for (i, (a, b)) in serial.iter().zip(&batched).enumerate() {
        assert_eq!(a, b, "seed {i}: batched response body differs from serial");
    }

    // and both match the model's own generate, through the JSON layer
    let reference = fitted_vae();
    let want = reference.generate_batch(&[GenSpec { n: 2, seed: 0 }]);
    let parsed = Json::parse(&serial[0]).unwrap();
    let Json::Arr(samples) = parsed.get("samples").unwrap() else {
        panic!("samples missing")
    };
    let first = samples[0].clone();
    let Json::Arr(steps) = &first else {
        panic!("sample 0 is not an array")
    };
    let Json::Arr(feats) = &steps[0] else {
        panic!("step 0 is not an array")
    };
    assert_eq!(
        feats[0].as_f64().unwrap().to_bits(),
        want[0].at(0, 0, 0).to_bits(),
        "JSON float encoding must round-trip the tensor bits"
    );
}
