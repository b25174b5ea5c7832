//! The chunked-transfer codec contract: a streaming [`Reply`] arrives
//! as the exact chunk sequence the producer sent, keep-alive survives
//! a fully-consumed stream, [`read_response`] transparently de-chunks,
//! and malformed chunk framing surfaces as an error — never a hang or
//! a silently-truncated body.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use tsgb_wire::client::read_response;
use tsgb_wire::server::{spawn_accept_loop, Lifecycle};
use tsgb_wire::{http_request, http_request_stream, Reply, Request};

fn start_echo_stream_server() -> (std::net::SocketAddr, Arc<Lifecycle>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let lifecycle = Arc::new(Lifecycle::new());
    let lc = Arc::clone(&lifecycle);
    spawn_accept_loop(
        listener,
        "chunk-test",
        Arc::clone(&lifecycle),
        Arc::new(move |req: &Request| match req.path.as_str() {
            "/stream" => {
                let n: usize = std::str::from_utf8(&req.body).unwrap().parse().unwrap();
                Reply::streaming(200, move |sink| {
                    for i in 0..n {
                        sink.send(format!("{{\"i\":{i}}}").as_bytes())?;
                    }
                    Ok(())
                })
            }
            _ => Reply::ok("{\"plain\":true}".into()),
        }),
    )
    .unwrap();
    (addr, lc)
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

#[test]
fn chunks_arrive_in_order_and_keep_alive_survives() {
    let (addr, _lc) = start_echo_stream_server();
    let mut stream = connect(addr);
    let mut resp = http_request_stream(&mut stream, "POST", "/stream", b"4").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
    let mut got = Vec::new();
    while let Some(chunk) = resp.next_chunk(&mut stream).unwrap() {
        got.push(String::from_utf8(chunk).unwrap());
    }
    assert_eq!(
        got,
        vec!["{\"i\":0}", "{\"i\":1}", "{\"i\":2}", "{\"i\":3}"]
    );
    // the connection is positioned at the next exchange
    let plain = http_request(&mut stream, "GET", "/plain", b"").unwrap();
    assert_eq!(plain.status, 200);
    assert_eq!(plain.text(), "{\"plain\":true}");
}

#[test]
fn read_response_transparently_dechunks() {
    let (addr, _lc) = start_echo_stream_server();
    let mut stream = connect(addr);
    let resp = {
        let head = "POST /stream HTTP/1.1\r\nhost: t\r\ncontent-length: 1\r\n\r\n3";
        stream.write_all(head.as_bytes()).unwrap();
        read_response(&mut stream).unwrap()
    };
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text(), "{\"i\":0}{\"i\":1}{\"i\":2}");
}

#[test]
fn non_chunked_response_is_one_pseudo_chunk() {
    let (addr, _lc) = start_echo_stream_server();
    let mut stream = connect(addr);
    let mut resp = http_request_stream(&mut stream, "GET", "/plain", b"").unwrap();
    assert_eq!(resp.status, 200);
    let first = resp.next_chunk(&mut stream).unwrap();
    assert_eq!(first.as_deref(), Some(&b"{\"plain\":true}"[..]));
    assert!(resp.next_chunk(&mut stream).unwrap().is_none());
}

#[test]
fn malformed_chunk_size_is_an_error_not_a_hang() {
    // a raw server that advertises chunked framing then writes garbage
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut drain = [0u8; 1024];
        use std::io::Read;
        let _ = s.read(&mut drain);
        s.write_all(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nzz\r\nnot-hex\r\n")
            .unwrap();
    });
    let mut stream = connect(addr);
    let mut resp = http_request_stream(&mut stream, "GET", "/x", b"").unwrap();
    let err = resp.next_chunk(&mut stream).unwrap_err();
    assert!(err.to_string().contains("bad chunk size"), "{err}");
}

#[test]
fn truncated_stream_is_an_eof_error() {
    // peer closes after one chunk without the zero-size terminator
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut drain = [0u8; 1024];
        use std::io::Read;
        let _ = s.read(&mut drain);
        s.write_all(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n2\r\nok\r\n")
            .unwrap();
        // drop: connection closes mid-stream
    });
    let mut stream = connect(addr);
    let mut resp = http_request_stream(&mut stream, "GET", "/x", b"").unwrap();
    assert_eq!(
        resp.next_chunk(&mut stream).unwrap().as_deref(),
        Some(&b"ok"[..])
    );
    assert!(resp.next_chunk(&mut stream).is_err());
}
