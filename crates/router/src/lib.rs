#![warn(missing_docs)]

//! `tsgb-router`: the sharded serving tier. One router process fronts
//! `N` `tsgb-serve` worker processes; model ids are consistent-hashed
//! across the worker ring so each worker loads only its shard of the
//! checkpoint directory, and every model lives on `replicas` workers
//! so the tier survives any single worker death.
//!
//! The moving parts:
//!
//! * [`ring`] — the consistent-hash ring (FNV-1a, 64 vnodes per
//!   worker) and the shard assignment derived from it;
//! * [`worker`] — one worker slot: spawned child or adopted address,
//!   the health state machine, a keep-alive connection pool, and the
//!   [`Worker::kill`](worker::Worker::kill) fault-injection hook;
//! * [`health`] — the supervisor thread: reap, probe, respawn;
//! * [`server`] — the [`Router`] itself: proxying, failover, drain.
//!
//! Failure model in one line: workers answer or they are dead —
//! application errors (4xx/5xx) are relayed verbatim, transport errors
//! mark the worker dead, fail the request over to the next replica
//! (safe: responses are pure functions of `(checkpoint, n, seed)`),
//! and the supervisor respawns the corpse with the identical shard.
//!
//! Observability (`tsgb-obs`): `router.requests`, `router.failovers`,
//! `router.respawns` counters plus a `router.worker{slot}.queue_depth`
//! gauge per worker, refreshed by every health probe.
//!
//! # Configuration
//!
//! [`RouterConfig`] holds the settings; `tsgbench route` sets its
//! bind address and replica count from `--addr` (default
//! `127.0.0.1:7979`; `:0` picks an ephemeral port) and `--replicas`
//! (default `2`, clamped to the fleet), and the fleet size from
//! `--workers` (default `2`). Spawned workers inherit the
//! `TSGB_SERVE_*` environment, plus [`RouterConfig::worker_env`].

pub mod health;
pub mod ring;
pub mod server;
pub mod worker;

pub use ring::{shard_assignment, Ring};
pub use server::Router;
pub use worker::Worker;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Router configuration; see the crate docs for the CLI mapping.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Router bind address (`host:port`; port `0` picks an ephemeral
    /// port).
    pub addr: String,
    /// How many workers each model is assigned to (clamped to the
    /// fleet size). `2` keeps every model alive through any single
    /// worker death.
    pub replicas: usize,
    /// Supervisor probe interval.
    pub health_interval: Duration,
    /// Per-probe (and per-control-exchange) timeout.
    pub probe_timeout: Duration,
    /// How long a `/generate` with every replica dead waits for the
    /// supervisor to respawn one before answering `503`.
    pub failover_wait: Duration,
    /// Per-proxied-request timeout to a worker.
    pub request_timeout: Duration,
    /// Extra environment for spawned workers, on top of the inherited
    /// one. The CLI leaves this empty (children inherit the real
    /// `TSGB_SERVE_*` environment); the fault harness injects
    /// `TSGB_SERVE_FWD_DELAY_MS` here without mutating its own env.
    pub worker_env: Vec<(String, String)>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7979".into(),
            replicas: 2,
            health_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_secs(2),
            failover_wait: Duration::from_secs(10),
            request_timeout: Duration::from_secs(60),
            worker_env: Vec::new(),
        }
    }
}

/// The router's live counters, mirrored into `tsgb-obs` as
/// `router.requests` / `router.failovers` / `router.respawns` and
/// reported by `GET /healthz`. The atomics are authoritative — obs can
/// be disabled, the healthz contract cannot.
#[derive(Debug, Default)]
pub struct RouterStats {
    requests: AtomicU64,
    failovers: AtomicU64,
    respawns: AtomicU64,
}

impl RouterStats {
    /// Counts one routed request.
    pub fn note_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        tsgb_obs::counter_add("router.requests", 1);
    }

    /// Counts one failover: a worker's transition to dead, whether the
    /// request path or the supervisor made it.
    pub fn note_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
        tsgb_obs::counter_add("router.failovers", 1);
    }

    /// Counts one successful worker respawn.
    pub fn note_respawn(&self) {
        self.respawns.fetch_add(1, Ordering::Relaxed);
        tsgb_obs::counter_add("router.respawns", 1);
    }

    /// Total routed requests.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Total failovers.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Total respawns.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_documented_table() {
        let c = RouterConfig::default();
        assert_eq!(c.addr, "127.0.0.1:7979");
        assert_eq!(c.replicas, 2);
        assert_eq!(c.health_interval, Duration::from_millis(200));
        assert_eq!(c.failover_wait, Duration::from_secs(10));
    }

    #[test]
    fn stats_count_and_report() {
        let s = RouterStats::default();
        s.note_request();
        s.note_request();
        s.note_failover();
        s.note_respawn();
        assert_eq!((s.requests(), s.failovers(), s.respawns()), (2, 1, 1));
    }
}
