//! The router process: a front door that owns no models. It binds one
//! listener, consistent-hashes `/generate` requests across the worker
//! ring, proxies bytes, and keeps the tier alive through worker death.
//!
//! ## Failover semantics
//!
//! A `/generate` is tried against the model's replica set in rotated
//! (round-robin) order, healthy workers first. Application-level
//! responses — including `503` backpressure and `504` deadline
//! rejections — are relayed verbatim: the worker answered, so its
//! answer stands. Only *transport* errors (connect refused, reset
//! mid-exchange: the signatures of a dead process) trigger failover:
//! the worker is marked dead on the spot, the request is retried on the
//! next replica, and the supervisor respawns the dead worker in the
//! background. `router.failovers` counts each worker's transition to
//! dead once, whether the request path or the supervisor (a reaped
//! child, the strike limit) makes it. Retrying
//! is safe because a response is a pure function of
//! `(checkpoint, n, seed)` — replicas are interchangeable by
//! construction. If every replica is dead the router waits, bounded by
//! [`RouterConfig::failover_wait`], for the supervisor to deliver a
//! respawn before giving up with `503`.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tsgb_wire::client::HttpResponse;
use tsgb_wire::server::{spawn_accept_loop, Lifecycle, Reply};
use tsgb_wire::{HttpError, Json, Request};

use crate::health::{declare_dead, spawn_supervisor};
use crate::ring::{shard_assignment, Ring};
use crate::worker::{RespawnCmd, Worker};
use crate::{RouterConfig, RouterStats};

/// How long `shutdown` waits for a worker child to exit after its
/// `POST /shutdown` before escalating to a kill.
const CHILD_EXIT_WAIT: Duration = Duration::from_secs(10);

struct Shared {
    cfg: RouterConfig,
    ring: Ring,
    workers: Vec<Arc<Worker>>,
    stats: Arc<RouterStats>,
    lifecycle: Arc<Lifecycle>,
    rr: AtomicUsize,
}

/// A running router tier.
pub struct Router {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl Router {
    /// Spawns `workers` child processes, each loading its
    /// consistent-hash shard of `ckpt_dir`, then starts routing.
    /// `bin` is the `tsgbench` binary to run workers with.
    pub fn start_spawned(
        bin: std::path::PathBuf,
        ckpt_dir: std::path::PathBuf,
        workers: usize,
        cfg: RouterConfig,
    ) -> std::io::Result<Router> {
        let names = tsgb_serve::registry::scan_model_names(&ckpt_dir)?;
        if names.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("no checkpoints in {}", ckpt_dir.display()),
            ));
        }
        let ring = Ring::new(workers);
        let shards = shard_assignment(&names, &ring, cfg.replicas);
        let fleet: std::io::Result<Vec<Arc<Worker>>> = shards
            .into_iter()
            .enumerate()
            .map(|(slot, models)| {
                Worker::spawn(
                    slot,
                    RespawnCmd {
                        bin: bin.clone(),
                        ckpt_dir: ckpt_dir.clone(),
                        models,
                        env: cfg.worker_env.clone(),
                    },
                )
                .map(Arc::new)
            })
            .collect();
        Self::start(fleet?, ring, cfg)
    }

    /// Adopts pre-started workers (no children, no respawn): slot `i`
    /// routes to `addrs[i]`. The caller is responsible for the shard
    /// layout matching [`Ring::new`]`(addrs.len())` — or for simply
    /// loading every model on every worker.
    pub fn start_adopted(addrs: &[SocketAddr], cfg: RouterConfig) -> std::io::Result<Router> {
        let ring = Ring::new(addrs.len());
        let fleet = addrs
            .iter()
            .enumerate()
            .map(|(slot, &addr)| Arc::new(Worker::adopt(slot, addr)))
            .collect();
        Self::start(fleet, ring, cfg)
    }

    fn start(workers: Vec<Arc<Worker>>, ring: Ring, cfg: RouterConfig) -> std::io::Result<Router> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let lifecycle = Arc::new(Lifecycle::new());
        let stats = Arc::new(RouterStats::default());
        let supervisor = spawn_supervisor(
            workers.clone(),
            Arc::clone(&stats),
            Arc::clone(&lifecycle),
            cfg.health_interval,
            cfg.probe_timeout,
        )?;
        let shared = Arc::new(Shared {
            cfg,
            ring,
            workers,
            stats,
            lifecycle,
            rr: AtomicUsize::new(0),
        });
        let handler_shared = Arc::clone(&shared);
        let accept = spawn_accept_loop(
            listener,
            "tsgb-router",
            Arc::clone(&shared.lifecycle),
            Arc::new(move |req: &Request| handle(req, &handler_shared)),
        )?;
        Ok(Router {
            addr,
            shared,
            accept: Some(accept),
            supervisor: Some(supervisor),
        })
    }

    /// The router's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The worker tier, slot-indexed (addresses, pids, health — and
    /// the [`Worker::kill`] fault-injection hook).
    pub fn workers(&self) -> &[Arc<Worker>] {
        &self.shared.workers
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> &RouterStats {
        &self.shared.stats
    }

    /// Fault injection: SIGKILL the worker child at `slot`.
    pub fn kill_worker(&self, slot: usize) -> std::io::Result<()> {
        self.shared.workers[slot].kill()
    }

    /// Blocks until a `POST /shutdown` arrives.
    pub fn wait(&self) {
        self.shared.lifecycle.wait_stop();
    }

    /// Drains the whole tier: stop accepting, finish in-flight
    /// requests, then shut every spawned worker down gracefully and
    /// wait for the children to exit. Adopted workers are left
    /// running — the router does not own their lifecycle.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.shared.lifecycle.start_draining();
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // in-flight proxied requests finish before workers are told to
        // drain: the worker drain contract then covers their queues
        self.shared.lifecycle.wait_idle(CHILD_EXIT_WAIT);
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        for worker in &self.shared.workers {
            if !worker.respawnable() {
                continue;
            }
            // best effort: a killed-during-drain worker refuses the
            // connection, which is fine — reaping below still works
            let _ = worker.exchange("POST", "/shutdown", b"", self.shared.cfg.probe_timeout);
            let deadline = Instant::now() + CHILD_EXIT_WAIT;
            while Instant::now() < deadline && !worker.reap_exited_child() {
                std::thread::sleep(Duration::from_millis(10));
            }
            // escalate if the child ignored the drain
            let _ = worker.kill();
            worker.reap_exited_child();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn handle(req: &Request, shared: &Shared) -> Reply {
    shared.stats.note_request();
    match route(req, shared) {
        Ok(reply) => reply,
        Err(e) => Reply::from(&e),
    }
}

fn route(req: &Request, shared: &Shared) -> Result<Reply, HttpError> {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => Ok(Reply::ok(healthz(shared))),
        ("GET", "/models") => Ok(Reply::ok(models(shared))),
        ("POST", "/generate") => generate(req, shared),
        ("POST", "/shutdown") => {
            shared.lifecycle.signal_stop();
            shared.lifecycle.start_draining();
            Ok(Reply::ok(
                Json::Obj(vec![("status".into(), Json::Str("draining".into()))]).encode(),
            ))
        }
        (_, "/healthz" | "/models" | "/generate" | "/shutdown") => Err(
            HttpError::method_not_allowed(format!("{} not allowed on {path}", req.method)),
        ),
        _ => Err(HttpError::not_found(format!("no route {path}"))),
    }
}

fn healthz(shared: &Shared) -> String {
    let workers = shared
        .workers
        .iter()
        .map(|w| {
            Json::Obj(vec![
                ("slot".into(), Json::Num(w.slot as f64)),
                ("addr".into(), Json::Str(w.addr().to_string())),
                ("pid".into(), Json::Num(w.pid() as f64)),
                ("healthy".into(), Json::Bool(w.healthy())),
                (
                    "queue_depth".into(),
                    Json::Num(w.queue_depth.load(Ordering::SeqCst) as f64),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "status".into(),
            Json::Str(if shared.lifecycle.draining() {
                "draining".into()
            } else {
                "ok".into()
            }),
        ),
        ("workers".into(), Json::Arr(workers)),
        ("replicas".into(), Json::Num(shared.cfg.replicas as f64)),
        ("requests".into(), Json::Num(shared.stats.requests() as f64)),
        (
            "failovers".into(),
            Json::Num(shared.stats.failovers() as f64),
        ),
        ("respawns".into(), Json::Num(shared.stats.respawns() as f64)),
    ])
    .encode()
}

/// Union of every healthy worker's `/models`, deduplicated by name
/// (replicated models are listed on several workers).
fn models(shared: &Shared) -> String {
    let mut seen = std::collections::BTreeMap::new();
    for worker in &shared.workers {
        if !worker.healthy() {
            continue;
        }
        let Ok(resp) = worker.exchange("GET", "/models", b"", shared.cfg.probe_timeout) else {
            continue;
        };
        let Ok(body) = Json::parse(&resp.text()) else {
            continue;
        };
        if let Some(Json::Arr(list)) = body.get("models") {
            for model in list {
                if let Some(name) = model.get("name").and_then(Json::as_str) {
                    seen.entry(name.to_string())
                        .or_insert_with(|| model.clone());
                }
            }
        }
    }
    Json::Obj(vec![(
        "models".into(),
        Json::Arr(seen.into_values().collect()),
    )])
    .encode()
}

fn generate(req: &Request, shared: &Shared) -> Result<Reply, HttpError> {
    if shared.lifecycle.draining() {
        return Err(HttpError::overloaded("router is draining", 1));
    }
    // the router parses just enough of the body to place the request;
    // full validation is the worker's job
    let text =
        std::str::from_utf8(&req.body).map_err(|_| HttpError::bad_request("body is not UTF-8"))?;
    let body = Json::parse(text).map_err(|e| HttpError::bad_request(format!("bad JSON: {e}")))?;
    let model = body
        .get("model")
        .and_then(Json::as_str)
        .ok_or_else(|| HttpError::bad_request("missing string field \"model\""))?;
    let replicas = shared.ring.replicas(model, shared.cfg.replicas);
    let rotation = shared.rr.fetch_add(1, Ordering::Relaxed);
    let deadline = Instant::now() + shared.cfg.failover_wait;
    loop {
        let mut attempted = false;
        for i in 0..replicas.len() {
            let slot = replicas[(rotation + i) % replicas.len()];
            let worker = &shared.workers[slot];
            if worker.dead() {
                continue;
            }
            attempted = true;
            match worker.exchange("POST", "/generate", &req.body, shared.cfg.request_timeout) {
                Ok(resp) => return Ok(relay(resp)),
                // transport failure: the process is gone. Mark it (the
                // supervisor may have already), move to the next replica.
                Err(_) => declare_dead(worker, &shared.stats),
            }
        }
        if Instant::now() >= deadline {
            let what = if attempted { "failed" } else { "dead" };
            return Err(HttpError::overloaded(
                format!(
                    "all {} replicas of {model:?} are {what} (waited {:?} for a respawn)",
                    replicas.len(),
                    shared.cfg.failover_wait
                ),
                1,
            ));
        }
        // every replica is down: give the supervisor a moment to respawn
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Converts a worker's response into the router's reply, preserving
/// status, body, and `Retry-After`.
fn relay(resp: HttpResponse) -> Reply {
    Reply {
        status: resp.status,
        retry_after: resp.header("retry-after").and_then(|v| v.parse().ok()),
        body: resp.text(),
        stream: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::tick;
    use crate::worker::Origin;
    use std::sync::Mutex;

    /// A one-worker tier whose worker is a spawned process that has
    /// already exited, at `addr` as far as the router knows. Its
    /// respawn command names no binary, so the supervisor's respawn
    /// fails and the worker stays dead.
    fn tier_with_an_exited_worker(addr: SocketAddr) -> Shared {
        let mut child = std::process::Command::new("true")
            .spawn()
            .expect("spawn a child");
        // a waited child keeps its status, so `try_wait` reports the exit
        child.wait().expect("wait for the child");
        let respawn = RespawnCmd {
            bin: "no-such-tsgbench-binary".into(),
            ckpt_dir: ".".into(),
            models: vec!["m".into()],
            env: Vec::new(),
        };
        let origin = Origin::Spawned {
            child: Mutex::new(Some(child)),
            respawn,
        };
        Shared {
            cfg: RouterConfig {
                replicas: 1,
                failover_wait: Duration::ZERO,
                request_timeout: Duration::from_secs(10),
                ..RouterConfig::default()
            },
            ring: Ring::new(1),
            workers: vec![Arc::new(Worker::new(0, addr, origin))],
            stats: Arc::new(RouterStats::default()),
            lifecycle: Arc::new(Lifecycle::new()),
            rr: AtomicUsize::new(0),
        }
    }

    /// A worker dies with a request in flight: the request path gets a
    /// transport error, and the supervisor's tick reaps the child.
    /// Whichever comes first, the death counts as exactly one failover.
    #[test]
    fn a_death_counts_once_whether_the_supervisor_or_the_request_sees_it_first() {
        for tick_first in [true, false] {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let shared = tier_with_an_exited_worker(listener.local_addr().expect("addr"));
            let req = Request {
                method: "POST".into(),
                path: "/generate".into(),
                headers: Vec::new(),
                body: br#"{"model":"m","n":1,"seed":0}"#.to_vec(),
            };
            let status = std::thread::scope(|s| {
                let request = s.spawn(|| generate(&req, &shared).err().map(|e| e.status));
                // the request is in flight once the worker's socket has it
                let (conn, _) = listener.accept().expect("accept the request");
                if tick_first {
                    tick(&shared.workers, &shared.stats, Duration::from_secs(1));
                }
                drop(conn);
                let status = request.join().expect("request thread");
                if !tick_first {
                    tick(&shared.workers, &shared.stats, Duration::from_secs(1));
                }
                status
            });
            assert_eq!(
                status,
                Some(503),
                "tick_first={tick_first}: the only replica is dead"
            );
            assert!(shared.workers[0].dead(), "tick_first={tick_first}");
            assert_eq!(
                shared.stats.failovers(),
                1,
                "tick_first={tick_first}: one death, one failover"
            );
        }
    }
}
