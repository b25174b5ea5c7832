//! Fault-injection harness for the sharded serving tier: a real
//! router fronting real `tsgbench serve` child processes (spawned from
//! `CARGO_BIN_EXE_tsgbench`), with SIGKILL as the fault.
//!
//! The tier's contract under fire, asserted end to end:
//!
//! * killing a worker mid-burst loses **zero** client requests — every
//!   request answers `200` with the exact same body a healthy tier
//!   produces (replicas are bit-identical);
//! * the death is observable (`failovers` advances) and repaired
//!   (`respawns` advances, the slot returns with a new pid and serves
//!   again);
//! * killing a worker **during drain** neither drops the in-flight
//!   request nor wedges shutdown.
//!
//! Workers run with `TSGB_SERVE_FWD_DELAY_MS` so every forward pass
//! holds the request in flight long enough for the kill to land on a
//! busy worker — on a single-core host the burst would otherwise
//! finish before the signal does.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_methods::{MethodId, TrainConfig};
use tsgb_router::{Router, RouterConfig};
use tsgb_wire::client::request_once;
use tsgb_wire::Json;

/// Writes a checkpoint directory with two copies of one quickly
/// trained model (`alpha.tsgbnn`, `beta.tsgbnn`) — a 2-model universe
/// that, at `replicas: 2`, puts every model on every worker.
fn checkpoint_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsgb_fault_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = Tensor3::from_fn(10, 8, 2, |s, t, f| {
        0.5 + 0.3 * ((t as f64) * 0.7 + s as f64 * 0.3 + f as f64).sin()
    });
    let mut m = MethodId::TimeVae.create(8, 2);
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::fast()
    };
    m.fit(&data, &cfg, &mut seeded(11));
    let bytes = m.save().expect("fitted model saves");
    std::fs::write(dir.join("alpha.tsgbnn"), &bytes).unwrap();
    std::fs::write(dir.join("beta.tsgbnn"), &bytes).unwrap();
    dir
}

fn spawned_router(ckpt_dir: &Path, fwd_delay_ms: u64) -> Router {
    let cfg = RouterConfig {
        addr: "127.0.0.1:0".into(),
        replicas: 2,
        health_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_secs(2),
        failover_wait: Duration::from_secs(15),
        request_timeout: Duration::from_secs(30),
        worker_env: vec![(
            "TSGB_SERVE_FWD_DELAY_MS".to_string(),
            fwd_delay_ms.to_string(),
        )],
    };
    Router::start_spawned(
        PathBuf::from(env!("CARGO_BIN_EXE_tsgbench")),
        ckpt_dir.to_path_buf(),
        2,
        cfg,
    )
    .expect("router + 2 spawned workers")
}

fn generate(addr: std::net::SocketAddr, model: &str, seed: u64) -> (u16, String) {
    let body = format!("{{\"model\":\"{model}\",\"n\":2,\"seed\":{seed}}}");
    match request_once(
        addr,
        "POST",
        "/generate",
        body.as_bytes(),
        Duration::from_secs(60),
    ) {
        Ok(resp) => (resp.status, resp.text()),
        Err(e) => (0, format!("transport error: {e}")),
    }
}

fn healthz(addr: std::net::SocketAddr) -> Json {
    let resp = request_once(addr, "GET", "/healthz", b"", Duration::from_secs(5)).unwrap();
    Json::parse(&resp.text()).unwrap()
}

#[test]
fn worker_kill_mid_burst_loses_zero_requests() {
    let dir = checkpoint_dir("burst");
    let router = spawned_router(&dir, 25);
    let addr = router.addr();
    let victim_pid = router.workers()[0].pid();
    assert!(victim_pid > 0);

    // reference bodies from the healthy tier: one per (model, seed)
    let mut reference = BTreeMap::new();
    for model in ["alpha", "beta"] {
        for seed in 0..4u64 {
            let (status, body) = generate(addr, model, seed);
            assert_eq!(status, 200, "healthy tier: {body}");
            reference.insert((model, seed), body);
        }
    }

    // seeded burst: 4 closed-loop clients × 20 requests, cycling the
    // models and seeds so both shards stay busy
    let router = Arc::new(router);
    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            std::thread::spawn(move || {
                let mut outcomes = Vec::new();
                for i in 0..20u64 {
                    let model = if (c + i) % 2 == 0 { "alpha" } else { "beta" };
                    let seed = (c + i) % 4;
                    outcomes.push((model, seed, generate(addr, model, seed)));
                }
                outcomes
            })
        })
        .collect();

    // land the SIGKILL while the burst is in flight (each forward
    // pass holds 25ms, so the burst runs for seconds)
    std::thread::sleep(Duration::from_millis(200));
    router.kill_worker(0).expect("SIGKILL worker 0");

    let mut total = 0usize;
    for client in clients {
        for (model, seed, (status, body)) in client.join().unwrap() {
            total += 1;
            assert_eq!(
                status, 200,
                "request ({model}, seed {seed}) failed after worker kill: {body}"
            );
            assert_eq!(
                &body,
                reference.get(&(model, seed)).unwrap(),
                "({model}, seed {seed}): failover changed the response body"
            );
        }
    }
    assert_eq!(total, 80, "every burst request must be accounted for");

    // the death was observed and repaired
    assert!(
        router.stats().failovers() >= 1,
        "no failover recorded despite a killed worker"
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while router.stats().respawns() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        router.stats().respawns() >= 1,
        "supervisor never respawned the killed worker"
    );

    // the respawned slot has a fresh pid and the tier is fully healthy
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = healthz(addr);
        let Some(Json::Arr(workers)) = health.get("workers") else {
            panic!("no workers array")
        };
        let all_healthy = workers
            .iter()
            .all(|w| w.get("healthy") == Some(&Json::Bool(true)));
        if all_healthy {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "tier did not return to full health: {}",
            health.encode()
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    let new_pid = router.workers()[0].pid();
    assert_ne!(new_pid, victim_pid, "respawn must be a new process");

    // the reborn tier still answers bit-identically
    let (status, body) = generate(addr, "alpha", 0);
    assert_eq!(status, 200);
    assert_eq!(&body, reference.get(&("alpha", 0u64)).unwrap());

    // healthz mirrors the counters
    let health = healthz(addr);
    assert!(health.get("failovers").and_then(Json::as_u64).unwrap() >= 1);
    assert!(health.get("respawns").and_then(Json::as_u64).unwrap() >= 1);

    match Arc::try_unwrap(router) {
        Ok(router) => router.shutdown(),
        Err(_) => panic!("router still shared"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_kill_during_drain_completes_in_flight_and_shutdown() {
    let dir = checkpoint_dir("drain");
    let router = spawned_router(&dir, 150);
    let addr = router.addr();

    // put a request in flight (the 150ms forward delay holds it there)
    let in_flight = std::thread::spawn(move || generate(addr, "alpha", 1));
    std::thread::sleep(Duration::from_millis(40));

    // start the drain, then kill a worker while the tier is draining
    let resp = request_once(addr, "POST", "/shutdown", b"", Duration::from_secs(5)).unwrap();
    assert_eq!(resp.status, 200);
    router
        .kill_worker(1)
        .expect("SIGKILL worker 1 during drain");

    // the in-flight request survives: either its worker was the
    // survivor, or the failover path retried it on one
    let (status, body) = in_flight.join().unwrap();
    assert_eq!(
        status, 200,
        "in-flight request dropped during drain: {body}"
    );

    // drain must complete promptly despite the corpse in the tier
    router.wait();
    let started = Instant::now();
    router.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "drain wedged on the killed worker"
    );

    // the router socket is gone
    let after = request_once(addr, "GET", "/healthz", b"", Duration::from_millis(300));
    assert!(after.is_err(), "router still answering after drain");
    std::fs::remove_dir_all(&dir).ok();
}
