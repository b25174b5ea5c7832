//! Property tests for the wire codec's robustness contract: a hostile
//! or broken client can never panic the server, never hang it, and —
//! whenever the bytes are recognisably not a valid request — always
//! receives a structured `400` with a machine-readable error body
//! before the connection closes.
//!
//! The corpus is seeded (xorshift64*) so every run exercises the same
//! inputs; failures reproduce without a stored corpus file.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsgb_wire::server::{spawn_accept_loop, Lifecycle, Reply};
use tsgb_wire::{Json, Request};

/// Hard cap any single exchange in this suite is allowed to take.
/// "Never hang" is asserted by every read being bounded by this.
const EXCHANGE_DEADLINE: Duration = Duration::from_secs(10);

struct Fleet {
    addr: SocketAddr,
    lifecycle: Arc<Lifecycle>,
}

/// One loopback server whose handler answers 200 with the request
/// shape, so a parsed request is distinguishable from a rejected one.
fn spawn_server() -> Fleet {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let lifecycle = Arc::new(Lifecycle::new());
    let handler = Arc::new(|req: &Request| {
        Reply::ok(
            Json::Obj(vec![
                ("method".into(), Json::Str(req.method.clone())),
                ("path".into(), Json::Str(req.path.clone())),
                ("body_len".into(), Json::Num(req.body.len() as f64)),
            ])
            .encode(),
        )
    });
    spawn_accept_loop(listener, "codec-prop", Arc::clone(&lifecycle), handler)
        .expect("accept loop");
    Fleet { addr, lifecycle }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.lifecycle.start_draining();
        let _ = TcpStream::connect(self.addr);
    }
}

/// Deterministic xorshift64* — the corpus seed, not a quality RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Writes `payload`, half-closes the write side, and reads whatever
/// the server answers until EOF — all bounded by [`EXCHANGE_DEADLINE`].
fn exchange(addr: SocketAddr, payload: &[u8]) -> Vec<u8> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    stream.write_all(payload).expect("write corpus entry");
    stream.flush().unwrap();
    let _ = stream.shutdown(Shutdown::Write);
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        assert!(
            start.elapsed() < EXCHANGE_DEADLINE,
            "server hung on {} corpus bytes: {:?}...",
            payload.len(),
            String::from_utf8_lossy(&payload[..payload.len().min(80)])
        );
        match stream.read(&mut chunk) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return out,
        }
    }
}

fn status_of(response: &[u8]) -> Option<u16> {
    let text = std::str::from_utf8(response).ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

fn body_of(response: &[u8]) -> &[u8] {
    let pos = response.windows(4).position(|w| w == b"\r\n\r\n");
    pos.map(|p| &response[p + 4..]).unwrap_or(b"")
}

/// Asserts the response is the structured 400: parsable status line,
/// JSON body with `error.code == "bad_request"` and a nonempty message.
fn assert_structured_400(response: &[u8], label: &str) {
    assert_eq!(
        status_of(response),
        Some(400),
        "{label}: expected a 400, got {:?}",
        String::from_utf8_lossy(&response[..response.len().min(160)])
    );
    let body = std::str::from_utf8(body_of(response)).expect("400 body is UTF-8");
    let json =
        Json::parse(body).unwrap_or_else(|e| panic!("{label}: 400 body not JSON ({e}): {body}"));
    let err = json
        .get("error")
        .unwrap_or_else(|| panic!("{label}: no error object: {body}"));
    assert_eq!(
        err.get("code").and_then(Json::as_str),
        Some("bad_request"),
        "{label}: {body}"
    );
    let msg = err.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(!msg.is_empty(), "{label}: empty error message");
}

// ---------------------------------------------------------------------------
// malformed-input corpus → structured 400s
// ---------------------------------------------------------------------------

#[test]
fn garbage_preambles_yield_structured_400s() {
    let fleet = spawn_server();
    let cases: &[(&str, &[u8])] = &[
        ("bare word", b"garbage\r\n\r\n"),
        ("wrong protocol", b"GET /x SPDY/3\r\n\r\n"),
        ("redis-like", b"*1\r\n$4\r\nPING\r\n\r\n"),
        ("no verb", b"/healthz HTTP/1.1\r\n\r\n"),
        (
            "header missing colon",
            b"GET /x HTTP/1.1\r\nbroken header line\r\n\r\n",
        ),
        ("binary head", b"\xff\xfe\x00\x01ding\r\n\r\n"),
    ];
    for (label, payload) in cases {
        assert_structured_400(&exchange(fleet.addr, payload), label);
    }
}

#[test]
fn bad_content_length_yields_structured_400() {
    let fleet = spawn_server();
    let cases: &[(&str, &str)] = &[
        (
            "negative",
            "POST /generate HTTP/1.1\r\ncontent-length: -5\r\n\r\nhello",
        ),
        (
            "non-numeric",
            "POST /generate HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
        ),
        (
            "overflowing",
            "POST /generate HTTP/1.1\r\ncontent-length: 99999999999999999999999\r\n\r\n",
        ),
        (
            "float",
            "POST /generate HTTP/1.1\r\ncontent-length: 3.5\r\n\r\nabc",
        ),
        (
            "huge but parsable",
            "POST /generate HTTP/1.1\r\ncontent-length: 1073741824\r\n\r\n",
        ),
    ];
    for (label, payload) in cases {
        assert_structured_400(&exchange(fleet.addr, payload.as_bytes()), label);
    }
}

#[test]
fn oversized_and_garbage_headers_yield_structured_400s() {
    let fleet = spawn_server();
    // a single header whose value pushes the head past MAX_REQUEST:
    // the reader must reject while buffering, without allocating the
    // advertised size or waiting for a head terminator that never comes
    let mut oversized = b"GET /healthz HTTP/1.1\r\nx-pad: ".to_vec();
    oversized.resize(tsgb_wire::http::MAX_REQUEST + 4096, b'a');
    oversized.extend_from_slice(b"\r\n\r\n");
    assert_structured_400(&exchange(fleet.addr, &oversized), "oversized header");

    // seeded garbage header lines: random bytes in 1..=64-byte lines;
    // any line without a ':' must produce the structured reject
    let mut rng = Rng(0x5EED_0001);
    for round in 0..16 {
        let mut payload = b"GET /x HTTP/1.1\r\n".to_vec();
        let mut guaranteed_bad = false;
        for _ in 0..=rng.below(4) {
            let len = 1 + rng.below(64) as usize;
            let mut line: Vec<u8> = (0..len)
                .map(|_| {
                    // printable ASCII minus ':' and CR/LF so the line is
                    // definitely a malformed header, not an accidental one
                    let c = 0x20 + rng.below(95) as u8;
                    if c == b':' {
                        b';'
                    } else {
                        c
                    }
                })
                .collect();
            line.retain(|&b| b != b'\r' && b != b'\n');
            if !line.is_empty() && !line.iter().all(|&b| b == b' ') {
                guaranteed_bad = true;
            }
            payload.extend_from_slice(&line);
            payload.extend_from_slice(b"\r\n");
        }
        payload.extend_from_slice(b"\r\n");
        if guaranteed_bad {
            assert_structured_400(
                &exchange(fleet.addr, &payload),
                &format!("garbage headers round {round}"),
            );
        }
    }
}

#[test]
fn truncated_bodies_never_panic_or_hang() {
    let fleet = spawn_server();
    // client promises 100 bytes, delivers a prefix, then closes: there
    // is no valid request to reject, so the contract is a prompt, clean
    // close — bounded by EXCHANGE_DEADLINE — with the server intact
    let mut rng = Rng(0x5EED_0002);
    for _ in 0..8 {
        let sent = rng.below(100) as usize;
        let mut payload = b"POST /generate HTTP/1.1\r\ncontent-length: 100\r\n\r\n".to_vec();
        payload.extend(std::iter::repeat_n(b'x', sent));
        let response = exchange(fleet.addr, &payload);
        assert!(
            response.is_empty() || status_of(&response).is_some(),
            "partial-body close produced garbage: {:?}",
            String::from_utf8_lossy(&response)
        );
    }
    // the server is still alive and parsing after every truncation
    let ok = exchange(fleet.addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&ok), Some(200));
}

#[test]
fn stalled_partial_request_is_bounded_not_infinite() {
    // a client that sends half a request then goes silent (without
    // closing) must be cut off after MAX_PARTIAL_WAITS idle polls, not
    // held forever
    let fleet = spawn_server();
    let start = Instant::now();
    let mut stream = TcpStream::connect(fleet.addr).unwrap();
    stream
        .write_all(b"POST /generate HTTP/1.1\r\ncontent-len")
        .unwrap();
    stream.flush().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut chunk = [0u8; 256];
    loop {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "stalled client held the connection past the wait bound"
        );
        match stream.read(&mut chunk) {
            Ok(0) => break, // server gave up on us — the contract
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
}

// ---------------------------------------------------------------------------
// split TCP writes: fragmentation must be invisible to the parser
// ---------------------------------------------------------------------------

#[test]
fn requests_split_across_tcp_writes_still_parse() {
    let fleet = spawn_server();
    let body = br#"{"model":"alpha","n":3,"seed":42}"#;
    let payload = format!(
        "POST /generate HTTP/1.1\r\nhost: tsgb\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let mut full = payload.into_bytes();
    full.extend_from_slice(body);

    let mut rng = Rng(0x5EED_0003);
    for round in 0..12 {
        let mut stream = TcpStream::connect(fleet.addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        // cut the request at 1..=4 random positions and dribble the
        // fragments with pauses longer than the server's idle poll
        let mut cuts: Vec<usize> = (0..1 + rng.below(4))
            .map(|_| 1 + rng.below(full.len() as u64 - 1) as usize)
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut prev = 0;
        for &cut in cuts.iter().chain(std::iter::once(&full.len())) {
            stream.write_all(&full[prev..cut]).unwrap();
            stream.flush().unwrap();
            prev = cut;
            std::thread::sleep(Duration::from_millis(5 + rng.below(70)));
        }
        let response = read_until_body(&mut stream);
        assert_eq!(
            status_of(&response),
            Some(200),
            "round {round} cuts {cuts:?}: {:?}",
            String::from_utf8_lossy(&response)
        );
        let reply = Json::parse(std::str::from_utf8(body_of(&response)).unwrap()).unwrap();
        assert_eq!(
            reply.get("body_len").and_then(Json::as_u64),
            Some(body.len() as u64),
            "round {round}: body reassembled with the wrong length"
        );
    }
}

/// Reads one keep-alive response: head plus content-length body.
fn read_until_body(stream: &mut TcpStream) -> Vec<u8> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        assert!(start.elapsed() < EXCHANGE_DEADLINE, "response read hung");
        if let Some(p) = out.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&out[..p]).to_ascii_lowercase();
            let need: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            if out.len() >= p + 4 + need {
                return out;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return out,
        }
    }
}

// ---------------------------------------------------------------------------
// numeric round-trips: the JSON layer is bit-exact for both serve tiers
// ---------------------------------------------------------------------------

#[test]
fn f64_values_roundtrip_bit_exactly_through_the_codec() {
    let mut rng = Rng(0x5EED_0004);
    let mut values = vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        2.0 / 3.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        1e-300,
        -1e300,
        std::f64::consts::PI,
    ];
    for _ in 0..500 {
        let bits = rng.next();
        let v = f64::from_bits(bits);
        if v.is_finite() {
            values.push(v);
        }
    }
    for v in values {
        let encoded = Json::Arr(vec![Json::Num(v)]).encode();
        let parsed = Json::parse(&encoded).unwrap_or_else(|e| panic!("reparse {encoded}: {e}"));
        let Json::Arr(items) = parsed else {
            panic!("not an array")
        };
        let Some(Json::Num(back)) = items.first() else {
            panic!("not a number")
        };
        assert_eq!(
            back.to_bits(),
            v.to_bits(),
            "f64 {v:e} drifted through the codec: {encoded} -> {back:e}"
        );
    }
}
