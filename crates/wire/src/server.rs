//! Server lifecycle scaffolding shared by the worker (`tsgb-serve`)
//! and the router (`tsgb-router`): the draining flag, the active
//! connection count, the stop signal, and the per-connection
//! read→handle→respond loop.
//!
//! Both processes promise the same observable drain contract — every
//! accepted request is answered, zero in-flight requests are dropped —
//! so the mechanics live here once. A [`Malformed`](crate::http::ReadOutcome::Malformed)
//! read is answered with a structured `400` and a close, never a
//! silent drop.

use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::HttpError;
use crate::http::{
    finish_chunks, read_request, write_chunk, write_chunked_head, write_response, ReadOutcome,
    Request, WRITE_TIMEOUT,
};

/// How often idle connections poll the draining flag.
pub const IDLE_POLL: Duration = Duration::from_millis(50);

/// Shared shutdown state: the draining flag handler loops poll, the
/// active-connection count drain waits on, and the stop signal
/// `wait()` blocks on.
#[derive(Default)]
pub struct Lifecycle {
    draining: AtomicBool,
    active: AtomicUsize,
    stop: Mutex<bool>,
    stop_cv: Condvar,
}

impl Lifecycle {
    /// A fresh, non-draining lifecycle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether drain has started.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Starts draining: handler loops stop picking up new requests.
    pub fn start_draining(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Blocks until [`Lifecycle::signal_stop`] is called.
    pub fn wait_stop(&self) {
        let mut stop = self.stop.lock().expect("stop flag poisoned");
        while !*stop {
            stop = self.stop_cv.wait(stop).expect("stop flag poisoned");
        }
    }

    /// Wakes every [`Lifecycle::wait_stop`] caller.
    pub fn signal_stop(&self) {
        let mut stop = self.stop.lock().expect("stop flag poisoned");
        *stop = true;
        self.stop_cv.notify_all();
    }

    /// Current handler-connection count.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Polls until every connection handler finished or `wait` passed.
    pub fn wait_idle(&self, wait: Duration) {
        let deadline = Instant::now() + wait;
        while self.active() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// The chunk writer handed to a streaming reply's producer: each
/// [`ChunkSink::send`] becomes one `Transfer-Encoding: chunked` frame
/// on the wire, flushed immediately. An `Err` from `send` means the
/// peer is gone; the producer should stop.
pub struct ChunkSink<'a> {
    stream: &'a mut TcpStream,
    chunks: u64,
}

impl ChunkSink<'_> {
    /// Writes one chunk (empty payloads are skipped — the zero-size
    /// chunk is the stream terminator, written by the connection loop).
    pub fn send(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.chunks += 1;
        write_chunk(self.stream, data)
    }

    /// How many chunks have been sent so far.
    pub fn chunks_sent(&self) -> u64 {
        self.chunks
    }
}

/// The producer half of a streaming reply: called once with the
/// connection's chunk sink after the head is on the wire. Returning
/// `Err` abandons the stream mid-body and closes the connection (the
/// client sees a missing terminator, not a silent truncation).
pub type StreamProducer = Box<dyn FnOnce(&mut ChunkSink<'_>) -> std::io::Result<()> + Send>;

/// One response from a request handler: status, optional
/// `Retry-After` seconds, and either a complete JSON body
/// (`Content-Length` framing) or a chunked stream producer.
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Seconds for a `Retry-After` header, if any.
    pub retry_after: Option<u64>,
    /// The JSON body (ignored when `stream` is set).
    pub body: String,
    /// When set, the response is written `Transfer-Encoding: chunked`
    /// and this producer emits the body incrementally.
    pub stream: Option<StreamProducer>,
}

impl std::fmt::Debug for Reply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reply")
            .field("status", &self.status)
            .field("retry_after", &self.retry_after)
            .field("body", &self.body)
            .field("stream", &self.stream.is_some())
            .finish()
    }
}

impl Reply {
    /// A `200 OK` with the given body.
    pub fn ok(body: String) -> Self {
        Self {
            status: 200,
            retry_after: None,
            body,
            stream: None,
        }
    }

    /// A chunked streaming reply: the producer runs on the connection
    /// thread once the `status` head is written.
    pub fn streaming(
        status: u16,
        producer: impl FnOnce(&mut ChunkSink<'_>) -> std::io::Result<()> + Send + 'static,
    ) -> Self {
        Self {
            status,
            retry_after: None,
            body: String::new(),
            stream: Some(Box::new(producer)),
        }
    }
}

impl From<&HttpError> for Reply {
    fn from(e: &HttpError) -> Self {
        Self {
            status: e.status,
            retry_after: e.retry_after,
            body: e.body(),
            stream: None,
        }
    }
}

/// One count in [`Lifecycle::active`], released on drop, so a
/// connection thread that unwinds still gives its count back.
struct ActiveGuard(Arc<Lifecycle>);

impl ActiveGuard {
    fn enter(lifecycle: &Arc<Lifecycle>) -> Self {
        lifecycle.active.fetch_add(1, Ordering::SeqCst);
        Self(Arc::clone(lifecycle))
    }
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Spawns the accept loop: one named handler thread per connection,
/// counted in `lifecycle.active`. The loop exits when `accept` fails
/// or succeeds while draining — waking it with a loopback connection
/// after [`Lifecycle::start_draining`] is the shutdown idiom.
pub fn spawn_accept_loop<F>(
    listener: TcpListener,
    thread_name: &str,
    lifecycle: Arc<Lifecycle>,
    handler: Arc<F>,
) -> std::io::Result<JoinHandle<()>>
where
    F: Fn(&Request) -> Reply + Send + Sync + 'static,
{
    let conn_name = format!("{thread_name}-conn");
    std::thread::Builder::new()
        .name(format!("{thread_name}-accept"))
        .spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if lifecycle.draining() {
                        return;
                    }
                    let active = ActiveGuard::enter(&lifecycle);
                    let conn_handler = Arc::clone(&handler);
                    // A failed spawn drops the closure, and the guard
                    // with it.
                    let _ = std::thread::Builder::new()
                        .name(conn_name.clone())
                        .spawn(move || handle_connection(stream, &active.0, &*conn_handler));
                }
                Err(_) => {
                    if lifecycle.draining() {
                        return;
                    }
                }
            }
        })
}

/// The per-connection loop: reads requests until close/drain, passes
/// each to `handler`, writes the reply. Malformed input gets a
/// structured `400` and the connection closes, and so does a write
/// that blocks past [`WRITE_TIMEOUT`]. A handler that panics is
/// answered with a structured `500` and the connection closes; a
/// stream producer that panics ends its stream mid-body, like one that
/// returns an error.
pub fn handle_connection(
    mut stream: TcpStream,
    lifecycle: &Lifecycle,
    handler: impl Fn(&Request) -> Reply,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut buf = Vec::new();
    loop {
        match read_request(&mut stream, &mut buf) {
            ReadOutcome::Idle => {
                if lifecycle.draining() {
                    return;
                }
            }
            ReadOutcome::Closed => return,
            ReadOutcome::Malformed(reason) => {
                let err = HttpError::bad_request(reason);
                let _ = write_response(&mut stream, err.status, &[], err.body().as_bytes(), true);
                return;
            }
            ReadOutcome::Request(req) => {
                let Ok(reply) = catch_unwind(AssertUnwindSafe(|| handler(&req))) else {
                    let err = HttpError::internal(format!("handler for {} panicked", req.path));
                    let _ =
                        write_response(&mut stream, err.status, &[], err.body().as_bytes(), true);
                    return;
                };
                let close = req.wants_close() || lifecycle.draining();
                let headers: Vec<(&str, String)> = reply
                    .retry_after
                    .map(|s| vec![("retry-after", s.to_string())])
                    .unwrap_or_default();
                if let Some(producer) = reply.stream {
                    // chunked streaming reply: head, producer-driven
                    // chunks, zero-size terminator. A producer error
                    // or panic closes the connection so the peer sees
                    // a truncated stream, never a silently-complete one.
                    if write_chunked_head(&mut stream, reply.status, &headers, close).is_err() {
                        return;
                    }
                    let mut sink = ChunkSink {
                        stream: &mut stream,
                        chunks: 0,
                    };
                    let produced = catch_unwind(AssertUnwindSafe(|| producer(&mut sink)));
                    if !matches!(produced, Ok(Ok(())))
                        || finish_chunks(&mut stream).is_err()
                        || close
                    {
                        return;
                    }
                } else if write_response(
                    &mut stream,
                    reply.status,
                    &headers,
                    reply.body.as_bytes(),
                    close,
                )
                .is_err()
                    || close
                {
                    return;
                }
            }
        }
    }
}
