#![warn(missing_docs)]

//! `tsgb-serve`: a std-only generation service for trained TSG
//! methods — checkpoint-backed model registry, request batching, and
//! deadline-aware backpressure.
//!
//! The service turns the benchmark's offline artifacts (the
//! `TSGBCK02` checkpoints the runner writes after training; legacy
//! `TSGBCK01` loads unchanged) into an
//! online API: clients `POST /generate` with a model name, a sample
//! count, and a seed, and get back synthetic windows. Four design
//! commitments:
//!
//! * **Determinism survives serving.** A response is a pure function
//!   of `(checkpoint, n, seed)`. Request batching rides the
//!   [`generate_batch`](tsgb_methods::TsgMethod::generate_batch)
//!   contract — fused batches are bit-identical to serial generation —
//!   so concurrency and batch size are invisible to clients.
//! * **Backpressure is explicit.** Bounded per-model queues reject
//!   with `503` + `Retry-After` instead of buffering unboundedly, and
//!   per-request deadlines expire queued work with `504` before it
//!   costs a forward pass.
//! * **Shutdown is graceful.** Draining completes every accepted
//!   request; zero in-flight requests are dropped.
//! * **A model panic fails one request.** The batcher catches it,
//!   re-runs the rest of the batch alone, answers the failing request
//!   with `500`, and keeps serving (see [`batch`]). A panic on a
//!   connection thread (a conditional draw, a stream's chunk sampling) is
//!   caught there and closes only that connection
//!   ([`tsgb_wire::server::handle_connection`]).
//! * **No thread per model.** A batch runs on the connection thread
//!   of one of its requests: a request to an idle model runs at once
//!   on its own thread, and the requests that queue behind a running
//!   batch run as the next one on the thread of the oldest (see
//!   [`batch`]).
//!
//! Everything is `std`-only: the HTTP layer sits on
//! `std::net::TcpListener`, and the wire format is a hand-rolled JSON
//! codec — both live in the shared [`tsgb_wire`] crate, so the router
//! and the load generator speak the same protocol.
//!
//! Beyond generation, the crate hosts the continuous-quality tier of
//! the incremental evaluation engine: [`monitor`] tails generated
//! windows over HTTP, scores them with the streaming accumulators of
//! `tsgb_eval::online`, refreshes the expensive distribution measures
//! through the content-addressed `tsgb-evalcache`, and raises drift
//! flags (see `tsgbench monitor`).
//!
//! A process running this server is one *worker* of the sharded tier
//! `tsgb-router` fronts: `--models` restricts the registry to the
//! worker's shard of the checkpoint directory, and the router
//! consistent-hashes model ids over those shards (see the
//! `tsgb-router` crate docs).
//!
//! Observability (via `tsgb-obs`, enabled with `TSGB_OBS=1`):
//! `serve.requests` / `serve.rejected` / `serve.panics` counters, a
//! `serve.queue_depth` gauge, and `serve.latency_ms` /
//! `serve.batch_size` histograms.
//!
//! # Configuration
//!
//! | env variable           | default          | meaning                         |
//! |------------------------|------------------|---------------------------------|
//! | `TSGB_SERVE_BATCH`     | `8`              | max requests fused per batch    |
//! | `TSGB_SERVE_QUEUE`     | `64`             | per-model pending-queue bound   |
//! | `TSGB_SERVE_FWD_DELAY_MS` | `0`           | fault injection: sleep before every fused forward pass |
//!
//! The bind address is `tsgbench serve --addr` (default
//! `127.0.0.1:7878`; `:0` picks an ephemeral port).
//!
//! `TSGB_SERVE_FWD_DELAY_MS` exists for the test and bench harness
//! only: it injects artificial model latency so the fault-injection
//! suite can reliably kill a worker with requests in flight, and so
//! the router scaling probe can measure tier aggregation on hosts
//! with fewer cores than workers. It must stay `0` in production.

pub mod batch;
pub mod monitor;
pub mod registry;
pub mod server;

pub use batch::{Batcher, JobOutcome, SubmitError};
pub use monitor::{Monitor, MonitorConfig};
pub use registry::{LoadFailure, ModelEntry, ModelInfo, Registry};
pub use server::Server;

/// Service configuration; see the crate docs for the env mapping.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Most requests fused into one batched forward pass. When a batch
    /// ends, the next one takes every queued request up to this many at
    /// once and never waits for more (see [`batch`]).
    pub max_batch: usize,
    /// Bounded per-model pending-queue capacity; beyond it requests
    /// are rejected with `503`.
    pub queue_cap: usize,
    /// Fault injection (`TSGB_SERVE_FWD_DELAY_MS`): artificial sleep
    /// before every fused forward pass, for the test/bench harness.
    /// `0` (the default) disables it.
    pub fwd_delay_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            max_batch: 8,
            queue_cap: 64,
            fwd_delay_ms: 0,
        }
    }
}

impl ServeConfig {
    /// Reads the `TSGB_SERVE_*` environment variables over the
    /// defaults; unparsable values fall back to the default. The bind
    /// address is not an env knob: the CLI's `--addr` sets it.
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            max_batch: env_parse("TSGB_SERVE_BATCH", d.max_batch).max(1),
            queue_cap: env_parse("TSGB_SERVE_QUEUE", d.queue_cap),
            fwd_delay_ms: env_parse("TSGB_SERVE_FWD_DELAY_MS", d.fwd_delay_ms),
            ..d
        }
    }
}

fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_documented_table() {
        let c = ServeConfig::default();
        assert_eq!(c.addr, "127.0.0.1:7878");
        assert_eq!(c.max_batch, 8);
        assert_eq!(c.queue_cap, 64);
        assert_eq!(c.fwd_delay_ms, 0, "fault injection must be off by default");
    }
}
