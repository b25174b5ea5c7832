//! A panic on a connection thread stays on that connection. A handler
//! that panics before its reply is answered with a structured `500`
//! and a close; a stream producer that panics mid-body ends its stream
//! without the terminator, as a producer error does. Requests on other
//! connections keep getting byte-identical bodies, every handler gives
//! its `Lifecycle::active` count back, and drain finishes at once
//! instead of waiting out the serving tiers' 10 s drain bound.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsgb_wire::server::{spawn_accept_loop, Lifecycle};
use tsgb_wire::{http_request, http_request_stream, HttpError, Json, Reply, Request};

/// The drain bound of `tsgb-serve` and the monitor.
const DRAIN_WAIT: Duration = Duration::from_secs(10);

/// How long a handler may take to notice its client left.
const SETTLE: Duration = Duration::from_secs(2);

/// Chunks in every stream reply; the panicking producer sends this
/// many before it panics.
const CHUNKS: usize = 3;

fn chunk(i: usize) -> Vec<u8> {
    format!("{{\"chunk\":{i},\"pad\":\"{}\"}}", "x".repeat(i * 7)).into_bytes()
}

/// Replies by path; the `/panic/...` paths panic on the connection
/// thread, one before its reply and one inside its stream producer.
fn handler(req: &Request) -> Reply {
    match req.path.as_str() {
        "/body" => Reply::ok(format!("{{\"echo\":{:?}}}", req.body.len())),
        "/stream" => Reply::streaming(200, |sink| {
            for i in 0..CHUNKS {
                sink.send(&chunk(i))?;
            }
            Ok(())
        }),
        "/panic/body" => panic!("chosen panic before the reply"),
        "/panic/stream" => Reply::streaming(200, |sink| {
            for i in 0..CHUNKS {
                sink.send(&chunk(i))?;
            }
            panic!("chosen panic inside the stream producer")
        }),
        _ => Reply::from(&HttpError::not_found("no such path")),
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

/// Every chunk of a stream reply, then whether it ended with the
/// terminator (`true`) or with the connection cut mid-body (`false`).
fn read_stream(stream: &mut TcpStream, path: &str) -> (u16, Vec<Vec<u8>>, bool) {
    let mut resp = http_request_stream(stream, "GET", path, b"").unwrap();
    let mut chunks = Vec::new();
    loop {
        match resp.next_chunk(stream) {
            Ok(Some(c)) => chunks.push(c),
            Ok(None) => return (resp.status, chunks, true),
            Err(_) => return (resp.status, chunks, false),
        }
    }
}

/// Whether the server has closed `stream`: a read sees end of file.
fn closed_by_server(stream: &mut TcpStream) -> bool {
    matches!(stream.read(&mut [0u8; 1]), Ok(0))
}

fn poll_until(deadline: Instant, mut done: impl FnMut() -> bool) -> bool {
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

#[test]
fn a_panicking_handler_is_isolated_to_its_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let lifecycle = Arc::new(Lifecycle::new());
    let accept = spawn_accept_loop(
        listener,
        "panic-test",
        Arc::clone(&lifecycle),
        Arc::new(handler),
    )
    .unwrap();

    // A well-behaved keep-alive client reads both reply kinds first.
    let mut witness = connect(addr);
    let body_ref = http_request(&mut witness, "POST", "/body", b"seven b").unwrap();
    assert_eq!(body_ref.status, 200);
    let stream_ref = read_stream(&mut witness, "/stream");
    assert_eq!(stream_ref, (200, (0..CHUNKS).map(chunk).collect(), true));

    for round in 0..3 {
        // A panic before the reply: a structured 500, then a close.
        let mut c = connect(addr);
        let resp = http_request(&mut c, "GET", "/panic/body", b"")
            .unwrap_or_else(|e| panic!("round {round}: no answer to a panicking handler: {e}"));
        assert_eq!(resp.status, 500, "round {round}");
        let doc = Json::parse(&resp.text()).unwrap();
        let code = doc.get("error").and_then(|e| e.get("code"));
        assert_eq!(
            code.and_then(Json::as_str),
            Some("internal"),
            "round {round}"
        );
        assert!(
            closed_by_server(&mut c),
            "round {round}: 500 left the connection open"
        );

        // A panic mid-stream: every chunk sent so far, no terminator.
        let mut c = connect(addr);
        let (status, chunks, terminated) = read_stream(&mut c, "/panic/stream");
        assert_eq!(status, 200, "round {round}");
        assert_eq!(chunks, (0..CHUNKS).map(chunk).collect::<Vec<_>>());
        assert!(
            !terminated,
            "round {round}: a panicked stream looked complete"
        );

        // The other connection is untouched, byte for byte.
        let again = http_request(&mut witness, "POST", "/body", b"seven b").unwrap();
        assert_eq!((again.status, &again.body), (200, &body_ref.body));
        assert_eq!(read_stream(&mut witness, "/stream"), stream_ref);
        let fresh = http_request(&mut connect(addr), "POST", "/body", b"seven b").unwrap();
        assert_eq!(fresh.body, body_ref.body, "round {round}: fresh connection");
    }

    drop(witness);
    assert!(
        poll_until(Instant::now() + SETTLE, || lifecycle.active() == 0),
        "{} handler(s) still counted after every client left",
        lifecycle.active()
    );

    // Drain: wake the accept loop, then wait as the serving tiers do.
    let started = Instant::now();
    lifecycle.start_draining();
    let _ = TcpStream::connect(addr);
    accept.join().unwrap();
    lifecycle.wait_idle(DRAIN_WAIT);
    assert_eq!(lifecycle.active(), 0);
    assert!(
        started.elapsed() < SETTLE,
        "drain took {:?} of its {DRAIN_WAIT:?} bound",
        started.elapsed()
    );
}
