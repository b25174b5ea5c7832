//! One worker slot: the process (spawned child or adopted address),
//! its health state machine, and a small keep-alive connection pool.
//!
//! ## Health state machine
//!
//! ```text
//!            probe ok                 probe fail
//!   Healthy ----------> Healthy    Healthy -----> Suspect(1)
//!   Suspect(k) --ok----> Healthy   Suspect(k) --fail--> Suspect(k+1)
//!   Suspect(MAX_STRIKES) ---------> Dead
//!   any state --child exited-----> Dead   (observed via `try_wait`)
//!   Dead --respawned+probe ok----> Healthy (spawned workers only)
//! ```
//!
//! A transport error on the *request path* also jumps the worker
//! straight to `Dead` — the proxy has direct evidence the socket is
//! gone and should not wait for the supervisor to accumulate strikes.
//! Adopted workers (started by someone else, e.g. an in-process test
//! server) are never respawned: the router does not own their
//! lifecycle, it only routes around them.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use tsgb_wire::client::{http_request, HttpResponse};

/// Consecutive failed probes before a `Suspect` worker is declared
/// `Dead` and (if spawned) respawned.
pub const MAX_STRIKES: u32 = 3;

/// How long the router waits for a spawned child to print its
/// listening address before giving up on the spawn.
pub const SPAWN_WAIT: Duration = Duration::from_secs(30);

/// Health state, encoded for the atomic: 0 = healthy, `1..=MAX_STRIKES`
/// = suspect strike count, `u32::MAX` = dead.
const DEAD: u32 = u32::MAX;

/// How the worker process came to exist.
pub enum Origin {
    /// The router spawned it and owns its lifecycle (respawns it).
    Spawned {
        /// The live child process, if currently running.
        child: Mutex<Option<Child>>,
        /// Binary + fixed args to respawn with.
        respawn: RespawnCmd,
    },
    /// Pre-started by someone else; routed to, never respawned.
    Adopted,
}

/// Everything needed to (re)spawn a worker child.
pub struct RespawnCmd {
    /// Path to the `tsgbench` binary.
    pub bin: std::path::PathBuf,
    /// Checkpoint directory the worker scans.
    pub ckpt_dir: std::path::PathBuf,
    /// The worker's model shard (`--models` value).
    pub models: Vec<String>,
    /// Extra environment for the child, on top of the inherited one
    /// (the fault harness sets `TSGB_SERVE_FWD_DELAY_MS` here).
    pub env: Vec<(String, String)>,
}

/// One worker slot.
pub struct Worker {
    /// Slot index — also the ring identity.
    pub slot: usize,
    /// Where the worker listens. Updated on respawn (new ephemeral
    /// port), hence the lock.
    addr: Mutex<SocketAddr>,
    /// Last known pid (0 until first spawn/probe).
    pid: AtomicU32,
    state: AtomicU32,
    /// Generation counter: bumped on every respawn so stale pool
    /// connections to the previous incarnation are discarded.
    generation: AtomicUsize,
    pool: Mutex<Vec<(usize, TcpStream)>>,
    /// Last observed queue depth from `/healthz`.
    pub queue_depth: AtomicUsize,
    origin: Origin,
}

impl Worker {
    /// Wraps an already-listening address (no child, no respawn).
    pub fn adopt(slot: usize, addr: SocketAddr) -> Self {
        Self::new(slot, addr, Origin::Adopted)
    }

    pub(crate) fn new(slot: usize, addr: SocketAddr, origin: Origin) -> Self {
        Self {
            slot,
            addr: Mutex::new(addr),
            pid: AtomicU32::new(0),
            state: AtomicU32::new(0),
            generation: AtomicUsize::new(0),
            pool: Mutex::new(Vec::new()),
            queue_depth: AtomicUsize::new(0),
            origin,
        }
    }

    /// Spawns `tsgbench serve` on an ephemeral port for this shard and
    /// waits for its listening address.
    pub fn spawn(slot: usize, cmd: RespawnCmd) -> std::io::Result<Self> {
        let (child, addr, pid) = launch(&cmd)?;
        let worker = Self::new(
            slot,
            addr,
            Origin::Spawned {
                child: Mutex::new(Some(child)),
                respawn: cmd,
            },
        );
        worker.pid.store(pid, Ordering::SeqCst);
        Ok(worker)
    }

    /// The current listening address.
    pub fn addr(&self) -> SocketAddr {
        *self.addr.lock().expect("addr lock")
    }

    /// Last known worker pid (0 if never observed).
    pub fn pid(&self) -> u32 {
        self.pid.load(Ordering::SeqCst)
    }

    /// Records the pid a `/healthz` probe reported (adopted workers
    /// have no child to ask).
    pub fn note_pid(&self, pid: u32) {
        self.pid.store(pid, Ordering::SeqCst);
    }

    /// Whether the proxy should route requests here.
    pub fn healthy(&self) -> bool {
        self.state.load(Ordering::SeqCst) < DEAD
    }

    /// Whether the worker is declared dead.
    pub fn dead(&self) -> bool {
        !self.healthy()
    }

    /// A successful probe: back to `Healthy` from any live state.
    pub fn mark_probe_ok(&self) {
        self.state.store(0, Ordering::SeqCst);
    }

    /// A failed probe: one more strike; returns `true` when the strike
    /// limit declares the worker dead.
    pub fn mark_probe_failed(&self) -> bool {
        let prev = self
            .state
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| {
                Some(if s >= MAX_STRIKES - 1 { DEAD } else { s + 1 })
            })
            .unwrap_or(DEAD);
        prev == MAX_STRIKES - 1
    }

    /// Direct evidence of death (request-path transport error, child
    /// reaped): skip the strike ladder. Returns `true` if this call
    /// made the transition (so the caller counts the failover once).
    pub fn mark_dead(&self) -> bool {
        self.state.swap(DEAD, Ordering::SeqCst) != DEAD
    }

    /// Whether the router owns (and therefore respawns) this process.
    pub fn respawnable(&self) -> bool {
        matches!(self.origin, Origin::Spawned { .. })
    }

    /// Reaps an exited child, if any. Returns `true` when the child is
    /// gone (crashed or killed) — direct evidence of death.
    pub fn reap_exited_child(&self) -> bool {
        let Origin::Spawned { child, .. } = &self.origin else {
            return false;
        };
        let mut guard = child.lock().expect("child lock");
        match guard.as_mut().map(|c| c.try_wait()) {
            Some(Ok(Some(_status))) => {
                *guard = None;
                true
            }
            _ => false,
        }
    }

    /// Respawns a dead, router-owned worker on a fresh ephemeral port.
    /// The shard is unchanged — shard layout is a pure function of the
    /// ring, not of process identity.
    pub fn respawn(&self) -> std::io::Result<()> {
        let Origin::Spawned { child, respawn } = &self.origin else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "adopted workers are not respawned",
            ));
        };
        {
            // make sure the old incarnation is gone before replacing it
            let mut guard = child.lock().expect("child lock");
            if let Some(mut old) = guard.take() {
                let _ = old.kill();
                let _ = old.wait();
            }
        }
        let (new_child, addr, pid) = launch(respawn)?;
        *self.addr.lock().expect("addr lock") = addr;
        self.pid.store(pid, Ordering::SeqCst);
        *child.lock().expect("child lock") = Some(new_child);
        self.generation.fetch_add(1, Ordering::SeqCst);
        self.pool.lock().expect("pool lock").clear();
        self.mark_probe_ok();
        Ok(())
    }

    /// Fault-injection API: SIGKILLs the child (spawned workers only).
    /// Used by the integration harness and the verify smoke leg; the
    /// supervisor notices via [`Worker::reap_exited_child`].
    pub fn kill(&self) -> std::io::Result<()> {
        let Origin::Spawned { child, .. } = &self.origin else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "cannot kill an adopted worker",
            ));
        };
        let mut guard = child.lock().expect("child lock");
        match guard.as_mut() {
            Some(c) => c.kill(),
            None => Ok(()),
        }
    }

    /// One HTTP exchange against this worker, reusing a pooled
    /// keep-alive connection when one exists. On success the
    /// connection returns to the pool; on any transport error it is
    /// dropped and the error surfaces to the caller (who decides about
    /// failover).
    pub fn exchange(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
        timeout: Duration,
    ) -> std::io::Result<HttpResponse> {
        let generation = self.generation.load(Ordering::SeqCst);
        let pooled = {
            let mut pool = self.pool.lock().expect("pool lock");
            loop {
                match pool.pop() {
                    Some((g, conn)) if g == generation => break Some(conn),
                    Some(_) => continue, // stale incarnation — drop it
                    None => break None,
                }
            }
        };
        let mut conn = match pooled {
            Some(conn) => conn,
            None => {
                let stream = TcpStream::connect_timeout(&self.addr(), timeout)?;
                stream.set_nodelay(true).ok();
                stream
            }
        };
        conn.set_read_timeout(Some(timeout))?;
        conn.set_write_timeout(Some(timeout))?;
        match http_request(&mut conn, method, path, body) {
            Ok(resp) => {
                let mut pool = self.pool.lock().expect("pool lock");
                if pool.len() < 8 {
                    pool.push((generation, conn));
                }
                Ok(resp)
            }
            Err(e) => Err(e),
        }
    }
}

/// Launches one `tsgbench serve` child and parses its listening
/// address from stdout. A reader thread keeps draining the pipe
/// afterwards so the child can never block on a full pipe.
fn launch(cmd: &RespawnCmd) -> std::io::Result<(Child, SocketAddr, u32)> {
    let mut child = Command::new(&cmd.bin)
        .envs(cmd.env.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        .arg("serve")
        .arg("--ckpt-dir")
        .arg(&cmd.ckpt_dir)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--models")
        .arg(cmd.models.join(","))
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let pid = child.id();
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::Builder::new()
        .name("tsgb-router-worker-stdout".into())
        .spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let mut sent = false;
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        if !sent {
                            if let Some(addr) = parse_listen_line(&line) {
                                let _ = tx.send(addr);
                                sent = true;
                            }
                        }
                    }
                }
            }
        })?;
    match rx.recv_timeout(SPAWN_WAIT) {
        Ok(addr) => Ok((child, addr, pid)),
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!(
                    "worker did not report a listening address within {SPAWN_WAIT:?} \
                     (bin {:?})",
                    cmd.bin
                ),
            ))
        }
    }
}

/// Extracts `ADDR` from the worker's `listening on http://ADDR (...)`
/// startup line.
fn parse_listen_line(line: &str) -> Option<SocketAddr> {
    let rest = line.split("listening on http://").nth(1)?;
    let addr = rest.split_whitespace().next()?;
    addr.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_line_parses() {
        let line = "listening on http://127.0.0.1:40123 (POST /generate, GET /models, GET /healthz, POST /shutdown)\n";
        assert_eq!(
            parse_listen_line(line),
            Some("127.0.0.1:40123".parse().unwrap())
        );
        assert_eq!(parse_listen_line("model vae (TimeVAE, 8x2)\n"), None);
    }

    #[test]
    fn strike_ladder_reaches_dead_and_recovers() {
        let w = Worker::adopt(0, "127.0.0.1:9".parse().unwrap());
        assert!(w.healthy());
        assert!(!w.mark_probe_failed());
        assert!(!w.mark_probe_failed());
        assert!(w.healthy(), "suspect is still routable");
        assert!(w.mark_probe_failed(), "third strike declares death");
        assert!(w.dead());
        assert!(!w.mark_probe_failed(), "death is reported exactly once");
        w.mark_probe_ok();
        assert!(w.healthy(), "a live probe resurrects an adopted worker");
    }

    #[test]
    fn mark_dead_reports_the_transition_once() {
        let w = Worker::adopt(1, "127.0.0.1:9".parse().unwrap());
        assert!(w.mark_dead());
        assert!(!w.mark_dead());
        assert!(!w.respawnable());
        assert!(w.kill().is_err(), "adopted workers cannot be killed");
        assert!(w.respawn().is_err(), "adopted workers are not respawned");
    }
}
