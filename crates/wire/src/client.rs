//! The client half of the protocol: writing one request and reading
//! one response over a `TcpStream` — `Content-Length`-framed or
//! `Transfer-Encoding: chunked`.
//!
//! Shared by the router (health checks and request proxying), the
//! loadgen probe, and the integration tests — previously each carried
//! its own copy of the response reader. Keep-alive is the default:
//! [`http_request`] leaves the connection ready for the next exchange,
//! which is what makes the router's per-worker connection pool and the
//! closed-loop load clients cheap. [`http_request_stream`] reads a
//! chunked response incrementally ([`StreamingResponse::next_chunk`]),
//! which is how the loadgen probe times time-to-first-chunk; plain
//! [`read_response`] transparently de-chunks, so callers that only
//! want the assembled body keep working against streaming endpoints.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One parsed response.
#[derive(Debug)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length`-framed body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Case-insensitive header lookup (names are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn io_err(kind: ErrorKind, msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(kind, msg.into())
}

/// Writes one request on an open connection and reads the response,
/// leaving the connection usable for the next exchange (keep-alive).
pub fn http_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<HttpResponse> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: tsgb\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    read_response(stream)
}

/// Connects, performs one exchange with `timeout` applied to connect
/// and to every read, and closes the connection.
pub fn request_once(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io_err(ErrorKind::InvalidInput, "no address"))?;
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    http_request(&mut stream, method, path, body)
}

/// Reads one framed response from the stream. A chunked response is
/// transparently de-chunked into the assembled body.
pub fn read_response(stream: &mut TcpStream) -> std::io::Result<HttpResponse> {
    let (status, headers, leftover) = read_head(stream)?;
    if is_chunked(&headers) {
        let mut sr = StreamingResponse {
            status,
            headers,
            buf: leftover,
            done: false,
        };
        let mut body = Vec::new();
        while let Some(chunk) = sr.next_chunk(stream)? {
            body.extend_from_slice(&chunk);
        }
        return Ok(HttpResponse {
            status: sr.status,
            headers: sr.headers,
            body,
        });
    }
    let body_len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body = leftover;
    let mut chunk = [0u8; 4096];
    while body.len() < body_len {
        match stream.read(&mut chunk)? {
            0 => return Err(io_err(ErrorKind::UnexpectedEof, "peer closed mid-body")),
            n => body.extend_from_slice(&chunk[..n]),
        }
    }
    body.truncate(body_len);
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Writes one request and reads the response *head*, returning a
/// [`StreamingResponse`] that yields body chunks incrementally. On a
/// non-chunked response the whole `Content-Length` body arrives as a
/// single pseudo-chunk, so callers can treat both framings uniformly.
pub fn http_request_stream(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<StreamingResponse> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: tsgb\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    let (status, headers, leftover) = read_head(stream)?;
    if is_chunked(&headers) {
        return Ok(StreamingResponse {
            status,
            headers,
            buf: leftover,
            done: false,
        });
    }
    // Content-Length framing: materialize the body and serve it as
    // one chunk so the caller's consume loop stays framing-agnostic.
    let body_len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body = leftover;
    let mut chunk = [0u8; 4096];
    while body.len() < body_len {
        match stream.read(&mut chunk)? {
            0 => return Err(io_err(ErrorKind::UnexpectedEof, "peer closed mid-body")),
            n => body.extend_from_slice(&chunk[..n]),
        }
    }
    body.truncate(body_len);
    // encode the assembled body as one synthetic chunk frame so
    // `next_chunk` yields it then terminates
    let mut buf = format!("{:x}\r\n", body.len()).into_bytes();
    buf.extend_from_slice(&body);
    buf.extend_from_slice(b"\r\n0\r\n\r\n");
    Ok(StreamingResponse {
        status,
        headers,
        buf,
        done: body.is_empty(),
    })
}

/// An in-progress response whose body arrives chunk by chunk.
#[derive(Debug)]
pub struct StreamingResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    buf: Vec<u8>,
    done: bool,
}

impl StreamingResponse {
    /// Case-insensitive header lookup (names are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The next body chunk, or `None` once the terminator arrived.
    /// After `None` the connection is positioned at the next response
    /// (keep-alive survives a fully-consumed stream).
    pub fn next_chunk(&mut self, stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
        if self.done {
            return Ok(None);
        }
        loop {
            // a complete "<hex>\r\n" size line?
            if let Some(pos) = self.buf.windows(2).position(|w| w == b"\r\n") {
                let line = std::str::from_utf8(&self.buf[..pos])
                    .map_err(|_| io_err(ErrorKind::InvalidData, "chunk size line not UTF-8"))?;
                // ignore chunk extensions (";..." suffix) per RFC 9112
                let size_str = line.split(';').next().unwrap_or("").trim();
                let size = usize::from_str_radix(size_str, 16).map_err(|_| {
                    io_err(ErrorKind::InvalidData, format!("bad chunk size {line:?}"))
                })?;
                if size > crate::http::MAX_REQUEST {
                    return Err(io_err(ErrorKind::InvalidData, "chunk exceeds size limit"));
                }
                let need = pos + 2 + size + 2;
                fill_to(stream, &mut self.buf, need)?;
                if &self.buf[pos + 2 + size..need] != b"\r\n" {
                    return Err(io_err(ErrorKind::InvalidData, "chunk missing terminator"));
                }
                let data = self.buf[pos + 2..pos + 2 + size].to_vec();
                self.buf.drain(..need);
                if size == 0 {
                    self.done = true;
                    return Ok(None);
                }
                return Ok(Some(data));
            }
            if self.buf.len() > 64 {
                return Err(io_err(ErrorKind::InvalidData, "chunk size line too long"));
            }
            let need = self.buf.len() + 1;
            fill_to(stream, &mut self.buf, need)?;
        }
    }
}

fn is_chunked(headers: &[(String, String)]) -> bool {
    headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"))
}

/// Reads until `buf` holds at least `need` bytes.
fn fill_to(stream: &mut TcpStream, buf: &mut Vec<u8>, need: usize) -> std::io::Result<()> {
    let mut chunk = [0u8; 4096];
    while buf.len() < need {
        match stream.read(&mut chunk)? {
            0 => return Err(io_err(ErrorKind::UnexpectedEof, "peer closed mid-chunk")),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    }
    Ok(())
}

/// Reads the status line and headers, returning any body bytes that
/// arrived with the head.
#[allow(clippy::type_complexity)]
fn read_head(stream: &mut TcpStream) -> std::io::Result<(u16, Vec<(String, String)>, Vec<u8>)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        if buf.len() > crate::http::MAX_REQUEST {
            return Err(io_err(ErrorKind::InvalidData, "response head too large"));
        }
        match stream.read(&mut chunk)? {
            0 => return Err(io_err(ErrorKind::UnexpectedEof, "peer closed mid-head")),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io_err(ErrorKind::InvalidData, "response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io_err(
                ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let leftover = buf[head_end + 4..].to_vec();
    Ok((status, headers, leftover))
}
