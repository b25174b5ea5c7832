//! A client that stops reading must not pin a connection. Once the
//! socket buffers fill, a blocked write gives up after
//! [`WRITE_TIMEOUT`], the handler returns, and `Lifecycle::active`
//! falls back to 0 — for a `Content-Length` body and for a chunked
//! stream alike. The streaming producer sees the failed write as an
//! `Err` from its sink, so whatever feeds it is released too.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsgb_wire::http::WRITE_TIMEOUT;
use tsgb_wire::server::{spawn_accept_loop, Lifecycle};
use tsgb_wire::{Reply, Request};

/// Each reply's size: far more than the loopback send and receive
/// buffers can hold between them, so the writer must block.
const BODY: usize = 64 << 20;

/// Slack past the write timeout for the handler to notice and return.
const MARGIN: Duration = Duration::from_secs(5);

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
fn a_client_that_stops_reading_is_released_after_the_write_timeout() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let lifecycle = Arc::new(Lifecycle::new());
    let producer_failed = Arc::new(AtomicBool::new(false));
    let failed = Arc::clone(&producer_failed);
    spawn_accept_loop(
        listener,
        "stall-test",
        Arc::clone(&lifecycle),
        Arc::new(move |req: &Request| match req.path.as_str() {
            "/stream" => {
                let failed = Arc::clone(&failed);
                Reply::streaming(200, move |sink| {
                    let chunk = vec![b'x'; 64 << 10];
                    for _ in 0..BODY / chunk.len() {
                        if let Err(e) = sink.send(&chunk) {
                            failed.store(true, Ordering::SeqCst);
                            return Err(e);
                        }
                    }
                    Ok(())
                })
            }
            _ => Reply::ok("x".repeat(BODY)),
        }),
    )
    .unwrap();

    // One request each, then never a byte read. The sockets stay open
    // until the end, so only the timeout can end the writes.
    let clients: Vec<TcpStream> = ["/body", "/stream"]
        .iter()
        .map(|path| {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
            s
        })
        .collect();
    let sent = Instant::now();
    assert!(
        poll_until(sent + Duration::from_secs(2), || lifecycle.active() == 2),
        "both handlers should be writing, active = {}",
        lifecycle.active()
    );

    let deadline = sent + WRITE_TIMEOUT + MARGIN;
    assert!(
        poll_until(deadline, || lifecycle.active() == 0),
        "a stalled reader still pins {} handler(s) {:?} after its request",
        lifecycle.active(),
        sent.elapsed()
    );
    assert!(
        producer_failed.load(Ordering::SeqCst),
        "the streaming producer should see its write fail"
    );
    drop(clients);
}
