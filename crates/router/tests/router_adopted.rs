//! Router integration against *adopted* in-process workers: two real
//! `tsgb-serve` servers in this process, one `Router` fronting them.
//! Covers proxying, response bit-identity through the proxy, `/models`
//! merging, aggregate `/healthz`, failover to a surviving replica, and
//! the drain contract — everything except child-process lifecycle,
//! which `tests/router_integration.rs` at the workspace root exercises
//! with real spawned processes.

use std::net::SocketAddr;
use std::time::Duration;

use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_methods::{MethodId, TrainConfig, TsgMethod};
use tsgb_router::{Router, RouterConfig};
use tsgb_serve::{Registry, ServeConfig, Server};
use tsgb_wire::client::request_once;
use tsgb_wire::Json;

fn fitted_vae(seed: u64) -> Box<dyn TsgMethod> {
    let data = Tensor3::from_fn(10, 8, 2, |s, t, f| {
        0.5 + 0.3 * ((t as f64) * 0.7 + s as f64 * 0.3 + f as f64).sin()
    });
    let mut m = MethodId::TimeVae.create(8, 2);
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::fast()
    };
    m.fit(&data, &cfg, &mut seeded(seed));
    m
}

fn worker_with(models: &[(&str, u64)]) -> Server {
    let mut registry = Registry::new();
    for &(name, seed) in models {
        registry.insert(name, fitted_vae(seed)).unwrap();
    }
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    Server::start(registry, cfg).unwrap()
}

fn router_cfg(replicas: usize) -> RouterConfig {
    RouterConfig {
        addr: "127.0.0.1:0".into(),
        replicas,
        health_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(500),
        failover_wait: Duration::from_millis(800),
        request_timeout: Duration::from_secs(10),
        worker_env: Vec::new(),
    }
}

fn post_generate(addr: SocketAddr, model: &str, n: usize, seed: u64) -> (u16, String) {
    let body = format!("{{\"model\":\"{model}\",\"n\":{n},\"seed\":{seed}}}");
    let resp = request_once(
        addr,
        "POST",
        "/generate",
        body.as_bytes(),
        Duration::from_secs(10),
    )
    .expect("router exchange");
    (resp.status, resp.text())
}

#[test]
fn proxied_responses_are_bit_identical_to_direct_worker_responses() {
    // both workers hold "vae" (the replicas-interchangeable setup)
    let a = worker_with(&[("vae", 11)]);
    let b = worker_with(&[("vae", 11)]);
    let router = Router::start_adopted(&[a.addr(), b.addr()], router_cfg(2)).unwrap();

    let (status, via_router) = post_generate(router.addr(), "vae", 3, 42);
    assert_eq!(status, 200, "{via_router}");
    let (_, direct) = post_generate(a.addr(), "vae", 3, 42);
    assert_eq!(
        via_router, direct,
        "the proxy must relay the worker body byte-for-byte"
    );

    // round-robin means repeated requests land on both workers; the
    // responses must be indistinguishable regardless
    for _ in 0..4 {
        let (status, body) = post_generate(router.addr(), "vae", 3, 42);
        assert_eq!((status, body), (200, direct.clone()));
    }

    router.shutdown();
    a.shutdown();
    b.shutdown();
}

#[test]
fn models_endpoint_merges_the_fleet_and_healthz_aggregates() {
    let a = worker_with(&[("alpha", 1), ("shared", 5)]);
    let b = worker_with(&[("beta", 2), ("shared", 5)]);
    let router = Router::start_adopted(&[a.addr(), b.addr()], router_cfg(1)).unwrap();

    let resp = request_once(router.addr(), "GET", "/models", b"", Duration::from_secs(5)).unwrap();
    assert_eq!(resp.status, 200);
    let body = Json::parse(&resp.text()).unwrap();
    let Some(Json::Arr(models)) = body.get("models") else {
        panic!("no models array: {}", resp.text());
    };
    let mut names: Vec<&str> = models
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str))
        .collect();
    names.sort_unstable();
    assert_eq!(
        names,
        ["alpha", "beta", "shared"],
        "union of shards, deduplicated"
    );

    let resp = request_once(
        router.addr(),
        "GET",
        "/healthz",
        b"",
        Duration::from_secs(5),
    )
    .unwrap();
    let health = Json::parse(&resp.text()).unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    let Some(Json::Arr(workers)) = health.get("workers") else {
        panic!("no workers array: {}", resp.text());
    };
    assert_eq!(workers.len(), 2);
    for w in workers {
        assert_eq!(w.get("healthy"), Some(&Json::Bool(true)));
        assert!(w.get("addr").and_then(Json::as_str).is_some());
    }
    assert!(health.get("requests").and_then(Json::as_u64).is_some());
    assert!(health.get("failovers").and_then(Json::as_u64).is_some());
    assert!(health.get("respawns").and_then(Json::as_u64).is_some());

    router.shutdown();
    a.shutdown();
    b.shutdown();
}

#[test]
fn transport_failure_fails_over_to_the_surviving_replica() {
    let a = worker_with(&[("vae", 11)]);
    let b = worker_with(&[("vae", 11)]);
    let router = Router::start_adopted(&[a.addr(), b.addr()], router_cfg(2)).unwrap();

    let (status, reference) = post_generate(router.addr(), "vae", 2, 7);
    assert_eq!(status, 200);

    // kill one replica (in-process: drain it away). The router's next
    // requests hit a dead socket for half the rotation and must fail
    // over without a single client-visible error.
    a.shutdown();
    for i in 0..6 {
        let (status, body) = post_generate(router.addr(), "vae", 2, 7);
        assert_eq!(status, 200, "request {i} after replica death: {body}");
        assert_eq!(body, reference, "failover must not change the response");
    }
    assert!(
        router.stats().failovers() >= 1,
        "the dead replica must be counted as a failover"
    );
    assert_eq!(
        router.stats().respawns(),
        0,
        "adopted workers are never respawned"
    );

    // healthz now reports the dead worker
    let resp = request_once(
        router.addr(),
        "GET",
        "/healthz",
        b"",
        Duration::from_secs(5),
    )
    .unwrap();
    let health = Json::parse(&resp.text()).unwrap();
    let Some(Json::Arr(workers)) = health.get("workers") else {
        panic!("no workers array");
    };
    let healthy: usize = workers
        .iter()
        .filter(|w| w.get("healthy") == Some(&Json::Bool(true)))
        .count();
    assert_eq!(healthy, 1, "{}", resp.text());

    router.shutdown();
    b.shutdown();
}

#[test]
fn every_replica_dead_yields_structured_503_with_retry_after() {
    let a = worker_with(&[("vae", 11)]);
    let addr_a = a.addr();
    let router = Router::start_adopted(&[addr_a], router_cfg(1)).unwrap();
    a.shutdown();

    let body = b"{\"model\":\"vae\",\"n\":1,\"seed\":1}";
    let resp = request_once(
        router.addr(),
        "POST",
        "/generate",
        body,
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(resp.status, 503, "{}", resp.text());
    assert!(resp.header("retry-after").is_some());
    let err = Json::parse(&resp.text()).unwrap();
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("overloaded")
    );

    router.shutdown();
}

#[test]
fn router_relays_worker_4xx_verbatim_and_validates_placement_fields() {
    let a = worker_with(&[("vae", 11)]);
    let router = Router::start_adopted(&[a.addr()], router_cfg(1)).unwrap();

    // unknown model: the ring places it, the worker rejects it — 404
    // relayed through
    let (status, body) = post_generate(router.addr(), "ghost", 1, 1);
    assert_eq!(status, 404, "{body}");
    let err = Json::parse(&body).unwrap();
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("not_found")
    );

    // the router's own validation: no model field at all
    let resp = request_once(
        router.addr(),
        "POST",
        "/generate",
        b"{\"n\":1}",
        Duration::from_secs(5),
    )
    .unwrap();
    assert_eq!(resp.status, 400);

    router.shutdown();
    a.shutdown();
}

#[test]
fn drain_answers_in_flight_then_stops_listening() {
    let a = worker_with(&[("vae", 11)]);
    let router = Router::start_adopted(&[a.addr()], router_cfg(1)).unwrap();
    let addr = router.addr();

    let (status, _) = post_generate(addr, "vae", 1, 3);
    assert_eq!(status, 200);

    let resp = request_once(addr, "POST", "/shutdown", b"", Duration::from_secs(5)).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("draining"));
    router.wait(); // /shutdown signalled the stop
    router.shutdown();

    // the listener is gone (or at least refuses to answer)
    let after = request_once(addr, "GET", "/healthz", b"", Duration::from_millis(300));
    assert!(after.is_err(), "router still answering after drain");

    // adopted worker is untouched by router shutdown
    let worker_alive = request_once(a.addr(), "GET", "/healthz", b"", Duration::from_secs(2));
    assert!(
        worker_alive.is_ok(),
        "adopted worker must outlive the router"
    );
    a.shutdown();
}
