//! The HTTP server: a `TcpListener` accept loop, one handler thread
//! per connection, a per-model batcher whose batches run on those
//! handler threads, and a graceful drain-on-shutdown protocol. The
//! accept/connection mechanics and the drain lifecycle live in
//! [`tsgb_wire::server`], shared with the router so the two processes
//! cannot drift on drain semantics. Response floats are written by
//! [`tsgb_wire::json::write_num`], the codec's own writer.
//!
//! ## Endpoints
//!
//! | route            | behaviour                                        |
//! |------------------|--------------------------------------------------|
//! | `GET /healthz`   | liveness + model count + queue depth + pid       |
//! | `GET /models`    | registered models with their window shapes       |
//! | `POST /generate` | `{"model","n","seed"?,"deadline_ms"?,"condition"?}` → windows |
//! | `POST /generate/stream` | same request (+`"chunk"?`) → chunked window stream |
//! | `POST /shutdown` | signals [`Server::wait`] to return               |
//!
//! ## Streaming
//!
//! `/generate/stream` emits windows over `Transfer-Encoding: chunked`
//! as they are sampled: a head object (model identity + shape + chunk
//! size), one `{"offset","count","samples"}` object per chunk, and a
//! `{"done":true,...}` trailer. The connection thread walks the
//! method's [`open_stream`](tsgb_methods::TsgMethod::open_stream)
//! itself, sampling each chunk and writing it before sampling the
//! next: the blocking socket write is the backpressure, so a slow
//! client pauses sampling instead of buffering the whole response. A
//! stream that panics reaches the connection's `catch_unwind`, which
//! closes the connection before the terminator, so the client sees a
//! truncated stream. The deadline is re-checked per chunk; on expiry
//! the stream ends with an `{"error":...}` object instead of the
//! trailer. Because streamed windows ride the
//! [`WindowStream`](tsgb_methods::WindowStream) contract, the
//! concatenated chunks are bit-identical to one-shot `/generate` for
//! the same `(checkpoint, n, seed)`.
//!
//! ## Conditional generation
//!
//! A `"condition"` object on `/generate` — `{"class":k,"strength":s}`
//! or `{"covariates":[...],"strength":s}` — routes to the model's
//! [`ConditionalSample`](tsgb_methods::ConditionalSample) capability.
//! Models without it answer `400`, and so does a non-finite `strength`
//! or covariate or a `class` beyond `u32`. Conditional requests bypass the
//! batcher (their noise shaping is per-request), so they trade batch
//! fusion for the capability; `strength: 0` is bit-identical to the
//! unconditional draw.
//!
//! ## Shutdown protocol
//!
//! [`Server::shutdown`] (1) sets the draining flag so handler loops
//! stop picking up *new* requests and submits are rejected with 503,
//! (2) wakes the blocking `accept` with a loopback connection and
//! joins the accept thread, (3) drains every batcher — waits until each
//! job already accepted has run (or expired by its own deadline) and
//! been answered — and (4) waits for the active-connection count to
//! reach zero, so each of those answers is written. The observable
//! contract: zero in-flight requests are dropped.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tsgb_linalg::Tensor3;
use tsgb_methods::common::{Condition, GenSpec};
use tsgb_wire::json::write_num;
use tsgb_wire::server::{spawn_accept_loop, Lifecycle, Reply, StreamProducer};
use tsgb_wire::{HttpError, Json, Request};

use crate::batch::{Batcher, JobOutcome, SubmitError};
use crate::registry::{ModelEntry, Registry};
use crate::ServeConfig;

/// How long [`Server::shutdown`] waits for handler threads to finish
/// writing their responses.
const DRAIN_WAIT: Duration = Duration::from_secs(10);

/// Largest accepted per-request sample count.
const MAX_N: usize = 4096;

/// Windows per `/generate/stream` chunk when the request does not pass
/// `"chunk"`.
const STREAM_CHUNK: usize = 8;

struct Served {
    entry: Arc<ModelEntry>,
    batcher: Batcher,
}

struct Shared {
    served: BTreeMap<String, Served>,
    lifecycle: Arc<Lifecycle>,
}

/// A running generation service.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr` (port 0 picks an ephemeral port), sets up one
    /// batcher per registered model, and starts accepting.
    pub fn start(registry: Registry, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let served: BTreeMap<String, Served> = registry
            .entries()
            .map(|entry| {
                let entry = Arc::clone(entry);
                let batcher = Batcher::new(Arc::clone(&entry), cfg.clone());
                (entry.info.name.clone(), Served { entry, batcher })
            })
            .collect();
        let shared = Arc::new(Shared {
            served,
            lifecycle: Arc::new(Lifecycle::new()),
        });
        let handler_shared = Arc::clone(&shared);
        let accept = spawn_accept_loop(
            listener,
            "tsgb-serve",
            Arc::clone(&shared.lifecycle),
            Arc::new(move |req: &Request| handle(req, &handler_shared)),
        )?;
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a `POST /shutdown` arrives.
    pub fn wait(&self) {
        self.shared.lifecycle.wait_stop();
    }

    /// Gracefully drains and stops the server (see the module docs for
    /// the protocol).
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.shared.lifecycle.start_draining();
        // wake the blocking accept so the thread observes the flag
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for served in self.shared.served.values() {
            served.batcher.drain();
        }
        self.shared.lifecycle.wait_idle(DRAIN_WAIT);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn handle(req: &Request, shared: &Shared) -> Reply {
    tsgb_obs::counter_add("serve.requests", 1);
    let started = Instant::now();
    let is_generate = req.path == "/generate" || req.path == "/generate/stream";
    let reply = match route(req, shared) {
        Ok(reply) => reply,
        Err(e) => {
            if e.status == 503 || e.status == 504 {
                tsgb_obs::counter_add("serve.rejected", 1);
            }
            Reply::from(&e)
        }
    };
    if is_generate {
        tsgb_obs::observe("serve.latency_ms", started.elapsed().as_secs_f64() * 1000.0);
    }
    reply
}

fn route(req: &Request, shared: &Shared) -> Result<Reply, HttpError> {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => Ok(Reply::ok(healthz(shared))),
        ("GET", "/models") => Ok(Reply::ok(models(shared))),
        ("POST", "/generate") => generate(req, shared),
        ("POST", "/generate/stream") => generate_stream(req, shared),
        ("POST", "/shutdown") => {
            shared.lifecycle.signal_stop();
            shared.lifecycle.start_draining();
            Ok(Reply::ok(
                Json::Obj(vec![("status".into(), Json::Str("draining".into()))]).encode(),
            ))
        }
        (_, "/healthz" | "/models" | "/generate" | "/generate/stream" | "/shutdown") => Err(
            HttpError::method_not_allowed(format!("{} not allowed on {path}", req.method)),
        ),
        _ => Err(HttpError::not_found(format!("no route {path}"))),
    }
}

fn healthz(shared: &Shared) -> String {
    let depth: usize = shared.served.values().map(|w| w.batcher.depth()).sum();
    Json::Obj(vec![
        (
            "status".into(),
            Json::Str(if shared.lifecycle.draining() {
                "draining".into()
            } else {
                "ok".into()
            }),
        ),
        ("models".into(), Json::Num(shared.served.len() as f64)),
        ("queue_depth".into(), Json::Num(depth as f64)),
        ("pid".into(), Json::Num(std::process::id() as f64)),
    ])
    .encode()
}

fn models(shared: &Shared) -> String {
    let list = shared
        .served
        .values()
        .map(|w| {
            let info = &w.entry.info;
            Json::Obj(vec![
                ("name".into(), Json::Str(info.name.clone())),
                ("method".into(), Json::Str(info.method.into())),
                ("seq_len".into(), Json::Num(info.seq_len as f64)),
                ("features".into(), Json::Num(info.features as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![("models".into(), Json::Arr(list))]).encode()
}

/// The fields shared by `/generate` and `/generate/stream`.
struct GenRequest<'a> {
    served: &'a Served,
    spec: GenSpec,
    deadline: Option<Instant>,
    body: Json,
}

fn parse_gen_request<'a>(req: &Request, shared: &'a Shared) -> Result<GenRequest<'a>, HttpError> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| HttpError::bad_request("body is not UTF-8"))?;
    let body = Json::parse(text).map_err(|e| HttpError::bad_request(format!("bad JSON: {e}")))?;
    let model_name = body
        .get("model")
        .and_then(Json::as_str)
        .ok_or_else(|| HttpError::bad_request("missing string field \"model\""))?;
    let served = shared.served.get(model_name).ok_or_else(|| {
        HttpError::not_found(format!("unknown model {model_name:?} (see GET /models)"))
    })?;
    let n = body
        .get("n")
        .and_then(Json::as_u64)
        .ok_or_else(|| HttpError::bad_request("missing integer field \"n\""))? as usize;
    if n == 0 || n > MAX_N {
        return Err(HttpError::bad_request(format!(
            "\"n\" must be in 1..={MAX_N}"
        )));
    }
    let seed = match body.get("seed") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| HttpError::bad_request("\"seed\" must be a non-negative integer"))?,
    };
    let deadline = match body.get("deadline_ms") {
        None => None,
        Some(v) => {
            let ms = v
                .as_u64()
                .ok_or_else(|| HttpError::bad_request("\"deadline_ms\" must be an integer"))?;
            Some(Instant::now() + Duration::from_millis(ms))
        }
    };
    if shared.lifecycle.draining() {
        return Err(HttpError::overloaded("server is draining", 1));
    }
    Ok(GenRequest {
        served,
        spec: GenSpec { n, seed },
        deadline,
        body,
    })
}

/// Parses the optional `"condition"` object of a generate request.
/// Numbers must be finite (the JSON parser reads `1e999` as infinity,
/// which would shift the noise to NaN) and a class must fit in `u32`.
fn parse_condition(body: &Json) -> Result<Option<Condition>, HttpError> {
    let Some(v) = body.get("condition") else {
        return Ok(None);
    };
    let finite = |x: &Json| x.as_f64().filter(|f| f.is_finite());
    let strength = match v.get("strength") {
        None => 1.0,
        Some(s) => finite(s).ok_or_else(|| {
            HttpError::bad_request("\"condition.strength\" must be a finite number")
        })?,
    };
    if let Some(c) = v.get("class") {
        let label = c
            .as_u64()
            .and_then(|l| u32::try_from(l).ok())
            .ok_or_else(|| {
                HttpError::bad_request(
                    "\"condition.class\" must be an integer from 0 to 4294967295",
                )
            })?;
        return Ok(Some(Condition::Class { label, strength }));
    }
    if let Some(c) = v.get("covariates") {
        let not_numbers = || {
            HttpError::bad_request("\"condition.covariates\" must be an array of finite numbers")
        };
        let Json::Arr(items) = c else {
            return Err(not_numbers());
        };
        let values = items
            .iter()
            .map(|x| finite(x).ok_or_else(not_numbers))
            .collect::<Result<Vec<f64>, _>>()?;
        return Ok(Some(Condition::Covariate { values, strength }));
    }
    Err(HttpError::bad_request(
        "\"condition\" needs a \"class\" or \"covariates\" field",
    ))
}

fn generate(req: &Request, shared: &Shared) -> Result<Reply, HttpError> {
    let g = parse_gen_request(req, shared)?;
    let (served, spec) = (g.served, g.spec);
    let model_name = &served.entry.info.name;

    if let Some(cond) = parse_condition(&g.body)? {
        // conditional draws shape their noise per request, so they run
        // directly on the handler thread instead of the batcher
        let Some(cs) = served.entry.model.conditional() else {
            return Err(HttpError::bad_request(format!(
                "model {model_name:?} ({}) does not support conditional generation",
                served.entry.info.method
            )));
        };
        if g.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(HttpError::deadline_exceeded(format!(
                "deadline passed before conditional generation started (model {model_name:?})"
            )));
        }
        tsgb_obs::counter_add("serve.cond.requests", 1);
        let tensor = cs.generate_conditioned(spec.n, &cond, &mut spec.rng());
        return Ok(Reply::ok(render_samples(
            model_name,
            served.entry.info.method,
            spec,
            &tensor,
        )));
    }

    let outcome = served
        .batcher
        .submit(spec, g.deadline)
        .map_err(|e| match e {
            SubmitError::QueueFull { depth } => {
                HttpError::overloaded(format!("queue full ({depth} pending)"), 1)
            }
            SubmitError::Draining => HttpError::overloaded("server is draining", 1),
        })?;
    match outcome {
        JobOutcome::Done(tensor) => Ok(Reply::ok(render_samples(
            &served.entry.info.name,
            served.entry.info.method,
            spec,
            &tensor,
        ))),
        JobOutcome::Expired => Err(HttpError::deadline_exceeded(format!(
            "deadline passed before the request's batch ran (model {model_name:?})"
        ))),
        JobOutcome::Failed => Err(HttpError::internal(format!(
            "model {model_name:?} panicked while generating this request"
        ))),
    }
}

/// `POST /generate/stream`: chunked window streaming (see the module
/// docs). The handler validates the request, then returns a streaming
/// [`Reply`] whose producer runs on the connection thread: it walks the
/// method's `open_stream`, writing each chunk as it is sampled.
fn generate_stream(req: &Request, shared: &Shared) -> Result<Reply, HttpError> {
    let g = parse_gen_request(req, shared)?;
    if parse_condition(&g.body)?.is_some() {
        return Err(HttpError::bad_request(
            "\"condition\" is not supported on /generate/stream",
        ));
    }
    let chunk = match g.body.get("chunk") {
        None => STREAM_CHUNK,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| HttpError::bad_request("\"chunk\" must be a positive integer"))?
            as usize,
    };
    if chunk == 0 {
        return Err(HttpError::bad_request(
            "\"chunk\" must be a positive integer",
        ));
    }
    if g.deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(HttpError::deadline_exceeded(
            "deadline passed before streaming started",
        ));
    }
    tsgb_obs::counter_add("serve.stream.requests", 1);

    let entry = Arc::clone(&g.served.entry);
    let spec = g.spec;
    let deadline = g.deadline;
    let head = format!(
        "{{\"model\":{},\"method\":{},\"n\":{},\"seed\":{},\"seq_len\":{},\"features\":{},\"chunk\":{}}}",
        Json::Str(entry.info.name.clone()).encode(),
        Json::Str(entry.info.method.into()).encode(),
        spec.n,
        spec.seed,
        entry.info.seq_len,
        entry.info.features,
        chunk,
    );

    let producer: StreamProducer = Box::new(move |sink| {
        let started = Instant::now();
        sink.send(head.as_bytes())?;
        let mut stream = entry.model.open_stream(spec);
        let mut windows = 0usize;
        let mut chunks = 0u64;
        while stream.remaining() > 0 {
            let part = stream
                .next_chunk(chunk)
                .expect("remaining > 0 guarantees a chunk");
            if deadline.is_some_and(|d| Instant::now() >= d) {
                tsgb_obs::counter_add("serve.stream.expired", 1);
                return sink.send(
                    format!(
                        "{{\"error\":\"deadline exceeded mid-stream\",\"done\":false,\"chunks\":{chunks},\"windows\":{windows}}}"
                    )
                    .as_bytes(),
                );
            }
            let count = part.samples();
            let mut body = format!("{{\"offset\":{windows},\"count\":{count},\"samples\":");
            render_sample_array(&part, &mut body);
            body.push('}');
            sink.send(body.as_bytes())?;
            chunks += 1;
            windows += count;
            if chunks == 1 {
                tsgb_obs::observe(
                    "serve.stream.ttfc_ms",
                    started.elapsed().as_secs_f64() * 1000.0,
                );
            }
            tsgb_obs::counter_add("serve.stream.chunks", 1);
        }
        sink.send(format!("{{\"done\":true,\"chunks\":{chunks},\"windows\":{windows}}}").as_bytes())
    });
    Ok(Reply::streaming(200, producer))
}

/// Renders the generate response. Floats use the same
/// shortest-roundtrip encoding as [`Json`], so the body is a pure
/// function of the tensor bits — the property the batching
/// bit-identity test compares whole bodies with.
fn render_samples(name: &str, method: &str, spec: GenSpec, t: &Tensor3) -> String {
    use std::fmt::Write as _;
    let (r, l, f) = t.shape();
    let mut out = String::with_capacity(r * l * f * 20 + 128);
    let _ = write!(
        out,
        "{{\"model\":{},\"method\":{},\"n\":{},\"seed\":{},\"seq_len\":{l},\"features\":{f},\"samples\":[",
        Json::Str(name.into()).encode(),
        Json::Str(method.into()).encode(),
        spec.n,
        spec.seed,
    );
    out.pop(); // render_sample_array writes its own brackets
    render_sample_array(t, &mut out);
    out.push('}');
    out
}

/// Renders the nested `[[[f,...],...],...]` sample array — shared by
/// the one-shot body and the per-chunk stream frames, which is what
/// keeps their float encodings byte-comparable. Each float goes
/// through [`write_num`], as in [`Json::encode`], so a non-finite
/// sample renders as `null`.
fn render_sample_array(t: &Tensor3, out: &mut String) {
    let (r, l, f) = t.shape();
    out.push('[');
    for s in 0..r {
        if s > 0 {
            out.push(',');
        }
        out.push('[');
        for step in 0..l {
            if step > 0 {
                out.push(',');
            }
            out.push('[');
            for feat in 0..f {
                if feat > 0 {
                    out.push(',');
                }
                write_num(t.at(s, step, feat), out);
            }
            out.push(']');
        }
        out.push(']');
    }
    out.push(']');
}
