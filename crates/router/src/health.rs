//! The supervisor: a background thread that keeps the worker tier
//! honest. Every [`RouterConfig::health_interval`](crate::RouterConfig)
//! tick it
//!
//! 1. reaps exited children (`try_wait`), turning a crashed or killed
//!    worker into direct evidence of death;
//! 2. probes every live worker's `/healthz` with a bounded timeout,
//!    walking the strike ladder in [`crate::worker`] — one failed
//!    probe makes a worker *suspect* (still routable), three in a row
//!    declare it dead. The interval-spaced strikes are the retry and
//!    backoff policy: a worker gets `MAX_STRIKES` probe attempts,
//!    `health_interval` apart, before the tier gives up on it;
//! 3. respawns dead router-owned workers on a fresh ephemeral port
//!    with the identical shard (counted in `router.respawns`); dead
//!    *adopted* workers are only re-probed — if their process comes
//!    back on the same address, a live probe resurrects them;
//! 4. publishes per-worker queue depth gauges
//!    (`router.worker{slot}.queue_depth`) from the probe responses.
//!
//! A death found by step 1 or 2 counts in `router.failovers` just as
//! one the request path finds does: each transition to dead counts
//! once, whichever path makes it.
//!
//! The thread exits when the router starts draining — a draining tier
//! must not respawn workers it is about to shut down.

use std::sync::Arc;
use std::time::Duration;

use tsgb_wire::server::Lifecycle;
use tsgb_wire::Json;

use crate::worker::Worker;
use crate::RouterStats;

/// Probes `/healthz` once; `Ok` carries the reported queue depth and
/// pid.
fn probe(worker: &Worker, timeout: Duration) -> std::io::Result<(usize, u32)> {
    let resp = worker.exchange("GET", "/healthz", b"", timeout)?;
    if resp.status != 200 {
        return Err(std::io::Error::other(format!(
            "healthz returned {}",
            resp.status
        )));
    }
    let body = Json::parse(&resp.text()).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad healthz body: {e}"),
        )
    })?;
    let depth = body.get("queue_depth").and_then(Json::as_u64).unwrap_or(0) as usize;
    let pid = body.get("pid").and_then(Json::as_u64).unwrap_or(0) as u32;
    Ok((depth, pid))
}

/// Declares `worker` dead on direct evidence (a request-path transport
/// error, a reaped child) and counts the failover when this call made
/// the transition, so a death counts once whichever path sees it first.
pub(crate) fn declare_dead(worker: &Worker, stats: &RouterStats) {
    if worker.mark_dead() {
        stats.note_failover();
    }
}

/// One supervisor pass over the tier. Split out of the loop so the
/// unit tests can tick deterministically.
pub fn tick(workers: &[Arc<Worker>], stats: &RouterStats, probe_timeout: Duration) {
    for worker in workers {
        if worker.reap_exited_child() {
            declare_dead(worker, stats);
        }
        if worker.dead() {
            if worker.respawnable() {
                match worker.respawn() {
                    Ok(()) => {
                        stats.note_respawn();
                    }
                    Err(e) => {
                        // leave it dead; the next tick retries
                        eprintln!("router: respawn of worker {} failed: {e}", worker.slot);
                    }
                }
            } else {
                // adopted: probe in case the process came back
                if let Ok((depth, pid)) = probe(worker, probe_timeout) {
                    worker.mark_probe_ok();
                    worker.note_pid(pid);
                    publish_depth(worker, depth);
                }
            }
            continue;
        }
        match probe(worker, probe_timeout) {
            Ok((depth, pid)) => {
                worker.mark_probe_ok();
                worker.note_pid(pid);
                publish_depth(worker, depth);
            }
            Err(_) => {
                if worker.mark_probe_failed() {
                    stats.note_failover();
                }
            }
        }
    }
}

fn publish_depth(worker: &Worker, depth: usize) {
    worker
        .queue_depth
        .store(depth, std::sync::atomic::Ordering::SeqCst);
    tsgb_obs::gauge_set(
        &format!("router.worker{}.queue_depth", worker.slot),
        depth as f64,
    );
}

/// Spawns the supervisor thread; it exits once `lifecycle` drains.
pub fn spawn_supervisor(
    workers: Vec<Arc<Worker>>,
    stats: Arc<RouterStats>,
    lifecycle: Arc<Lifecycle>,
    interval: Duration,
    probe_timeout: Duration,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name("tsgb-router-supervisor".into())
        .spawn(move || {
            while !lifecycle.draining() {
                tick(&workers, &stats, probe_timeout);
                // sleep in small slices so drain is observed promptly
                let mut left = interval;
                while !lifecycle.draining() && left > Duration::ZERO {
                    let slice = left.min(Duration::from_millis(20));
                    std::thread::sleep(slice);
                    left = left.saturating_sub(slice);
                }
            }
        })
}
