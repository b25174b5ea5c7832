//! A deliberately small HTTP/1.1 layer over `std::net::TcpStream`:
//! request parsing with persistent connections, and response writing
//! with explicit `Content-Length` framing plus a
//! `Transfer-Encoding: chunked` writer for streaming replies. No TLS,
//! no HTTP/2 — the tier speaks exactly the subset its clients (the
//! router's proxy, the loadgen probe, `curl`, the integration tests)
//! need.
//!
//! Reads are driven by the caller-installed socket read timeout: a
//! timeout with an empty buffer surfaces as [`ReadOutcome::Idle`] so
//! the connection loop can poll the shutdown flag between requests
//! without dropping bytes of a request that is mid-flight.
//!
//! Robustness contract (property-tested in `tests/codec_properties.rs`):
//! a malformed request — garbage preamble, header without a colon,
//! unparsable or oversized `Content-Length`, a head that never
//! terminates — is reported as [`ReadOutcome::Malformed`] with a
//! reason, so the server can answer a structured `400` before closing.
//! Hostile input can never panic the reader, and a stalled client is
//! bounded by [`MAX_PARTIAL_WAITS`] timeouts, so it can never hang it
//! either. The writers are bounded the same way: a client that stops
//! reading fails the write after [`WRITE_TIMEOUT`]
//! (`tests/stalled_reader.rs`).

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest accepted header block plus body (1 MiB — generous for the
/// protocol's small JSON requests while bounding a hostile client).
pub const MAX_REQUEST: usize = 1 << 20;

/// How many consecutive read timeouts to tolerate *mid-request*
/// before giving up on a stalled client.
pub const MAX_PARTIAL_WAITS: u32 = 100;

/// How long writing one buffer to a peer may block in all. A client
/// that stops reading fills the socket buffers; after this long the
/// write fails and the server closes the connection, which releases
/// the handler thread and, for a streaming reply, the producer behind
/// it. The server sets it as the write timeout of every accepted
/// socket.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Verb, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target (query string retained).
    pub path: String,
    /// Raw header list in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body, sized by `Content-Length`.
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }
}

/// What one attempt to read a request produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// The bytes on the wire are not a valid request; the server
    /// should answer `400` with this reason and close.
    Malformed(String),
    /// The peer closed the connection (EOF or transport error).
    Closed,
    /// Read timeout with no request in progress — poll and retry.
    Idle,
}

/// Reads one request from the stream, carrying leftover bytes between
/// calls in `buf` (HTTP pipelining keeps working).
pub fn read_request(stream: &mut TcpStream, buf: &mut Vec<u8>) -> ReadOutcome {
    let mut partial_waits = 0u32;
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = find_head_end(buf) {
            let head = match std::str::from_utf8(&buf[..head_end]) {
                Ok(h) => h,
                Err(_) => return ReadOutcome::Malformed("request head is not UTF-8".into()),
            };
            let (method, path, headers) = match parse_head(head) {
                Ok(p) => p,
                Err(reason) => return ReadOutcome::Malformed(reason),
            };
            let body_len = match headers
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            {
                None => 0,
                Some((_, v)) => match v.trim().parse::<usize>() {
                    Ok(n) => n,
                    Err(_) => {
                        return ReadOutcome::Malformed(format!("unparsable content-length {v:?}"))
                    }
                },
            };
            let total = head_end + 4 + body_len;
            if total > MAX_REQUEST {
                return ReadOutcome::Malformed(format!(
                    "request of {total} bytes exceeds the {MAX_REQUEST}-byte limit"
                ));
            }
            if buf.len() >= total {
                let body = buf[head_end + 4..total].to_vec();
                buf.drain(..total);
                return ReadOutcome::Request(Request {
                    method,
                    path,
                    headers,
                    body,
                });
            }
            // head parsed but body incomplete: fall through and read
        } else if buf.len() > MAX_REQUEST {
            return ReadOutcome::Malformed(format!(
                "header block exceeds the {MAX_REQUEST}-byte limit"
            ));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Closed,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                partial_waits = 0;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if buf.is_empty() {
                    return ReadOutcome::Idle;
                }
                partial_waits += 1;
                if partial_waits > MAX_PARTIAL_WAITS {
                    return ReadOutcome::Closed;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Closed,
        }
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[allow(clippy::type_complexity)]
fn parse_head(head: &str) -> Result<(String, String, Vec<(String, String)>), String> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(format!("bad request line {request_line:?}"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version:?}"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((k, v)) = line.split_once(':') else {
            return Err(format!("header line without ':': {line:?}"));
        };
        headers.push((k.trim().to_string(), v.trim().to_string()));
    }
    Ok((method.to_ascii_uppercase(), path.to_string(), headers))
}

pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one `Content-Length`-framed JSON response.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
        reason(status),
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    send_all(stream, head.as_bytes())?;
    send_all(stream, body)?;
    stream.flush()
}

/// Writes the head of a `Transfer-Encoding: chunked` response. The
/// body follows as [`write_chunk`] calls terminated by one
/// [`finish_chunks`]; after the terminator the connection is reusable
/// (keep-alive) unless `close` was set.
pub fn write_chunked_head(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, String)],
    close: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ntransfer-encoding: chunked\r\nconnection: {}\r\n",
        reason(status),
        if close { "close" } else { "keep-alive" },
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    send_all(stream, head.as_bytes())?;
    stream.flush()
}

/// Writes one chunk of a chunked body: hex size line, payload, CRLF.
/// Empty payloads are skipped — a zero-size chunk is the terminator,
/// which only [`finish_chunks`] may write. Each chunk is flushed so a
/// streaming consumer sees windows as they are produced.
pub fn write_chunk(stream: &mut TcpStream, data: &[u8]) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    send_all(stream, format!("{:x}\r\n", data.len()).as_bytes())?;
    send_all(stream, data)?;
    send_all(stream, b"\r\n")?;
    stream.flush()
}

/// Terminates a chunked body with the zero-size chunk.
pub fn finish_chunks(stream: &mut TcpStream) -> std::io::Result<()> {
    send_all(stream, b"0\r\n\r\n")?;
    stream.flush()
}

/// `write_all` whose blocked time is bounded in total, not per call.
/// The server sets [`WRITE_TIMEOUT`] on every accepted socket, which
/// bounds one blocked `write`. A peer that has stopped reading can
/// still take a few more bytes at some of those timeouts, as the
/// kernel grows its receive buffer, and each short write would restart
/// the clock: on loopback a stalled reader held a writer for three
/// timeouts. So a write that comes back short once the timeout has
/// passed in all fails with `TimedOut`.
fn send_all(stream: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    let start = Instant::now();
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if !buf.is_empty() && start.elapsed() >= WRITE_TIMEOUT {
            return Err(ErrorKind::TimedOut.into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_head() {
        let head = "POST /generate HTTP/1.1\r\nHost: x\r\nContent-Length: 5";
        let (m, p, h) = parse_head(head).unwrap();
        assert_eq!(m, "POST");
        assert_eq!(p, "/generate");
        assert_eq!(h.len(), 2);
        assert_eq!(h[1], ("Content-Length".to_string(), "5".to_string()));
    }

    #[test]
    fn rejects_non_http_preamble_with_a_reason() {
        assert!(parse_head("GET /x SPDY/3").unwrap_err().contains("SPDY"));
        assert!(parse_head("garbage").unwrap_err().contains("request line"));
        assert!(parse_head("GET /x HTTP/1.1\r\nno-colon-here")
            .unwrap_err()
            .contains("':'"));
    }
}
