//! Integration tests for `tsgbench monitor` against a live listener:
//! healthy streams stay unflagged, every seeded drift injection is
//! flagged within a bounded number of windows, the expensive measures
//! refresh through the eval cache, and shutdown drains gracefully.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use tsgb_data::drift::DriftKind;
use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_rand::Rng;
use tsgb_serve::{Monitor, MonitorConfig};
use tsgb_wire::Json;

// ---------------------------------------------------------------- helpers

const SEQ_LEN: usize = 16;
const FEATURES: usize = 2;

/// Seeded per-window sine + in-window trend: enough temporal
/// structure that a circular rotation (SeasonalityShift) is visible
/// in the per-step marginals and the autocorrelation, not just noise.
fn reference(windows: usize, seed: u64) -> Tensor3 {
    let mut rng = seeded(seed);
    let phases: Vec<f64> = (0..windows * FEATURES)
        .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
        .collect();
    Tensor3::from_fn(windows, SEQ_LEN, FEATURES, |s, t, f| {
        let phase = phases[s * FEATURES + f];
        0.3 + 0.2 * (0.8 * t as f64 + phase).sin() + 0.03 * t as f64
    })
}

/// A monitor config sized for tests: fast calibration, online-only
/// unless a test opts into expensive refreshes.
fn test_config(refresh_every: u64) -> MonitorConfig {
    MonitorConfig {
        addr: "127.0.0.1:0".into(),
        calibrate: 48,
        stride: 24,
        min_eval: 12,
        refresh_every,
        window_cap: 32,
        embed_dim: 4,
        embed_epochs: 8,
        dtw_band: 4,
        ..MonitorConfig::default()
    }
}

fn exchange(stream: &mut TcpStream, raw: &str) -> (u16, String) {
    stream.write_all(raw.as_bytes()).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .unwrap();
    let body_len: usize = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.trim().parse().unwrap())
        .unwrap_or(0);
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < body_len {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(body_len);
    (status, String::from_utf8(body).unwrap())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    exchange(
        &mut s,
        &format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    exchange(
        &mut s,
        &format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Drills `n` windows into `method`; `drift: None` is a healthy
/// resample of the reference.
fn drill(addr: SocketAddr, method: &str, n: usize, seed: u64, drift: Option<DriftKind>) -> Json {
    let drift_field = match drift {
        Some(k) => format!(",\"drift\":\"{}\",\"severity\":2.0", k.name()),
        None => String::new(),
    };
    let body = format!("{{\"method\":\"{method}\",\"n\":{n},\"seed\":{seed}{drift_field}}}");
    let (status, resp) = post(addr, "/drill", &body);
    assert_eq!(status, 200, "drill failed: {resp}");
    Json::parse(&resp).unwrap()
}

fn method_flags(addr: SocketAddr, method: &str) -> Vec<String> {
    let (status, body) = get(addr, "/quality");
    assert_eq!(status, 200, "{body}");
    let q = Json::parse(&body).unwrap();
    let m = q
        .get("methods")
        .and_then(|ms| ms.get(method))
        .unwrap_or_else(|| panic!("method {method:?} missing from /quality: {body}"));
    match m.get("flags") {
        Some(Json::Arr(fs)) => fs
            .iter()
            .map(|f| f.as_str().expect("flag is a string").to_string())
            .collect(),
        other => panic!("flags missing or not an array: {other:?}"),
    }
}

// ------------------------------------------------------------------ tests

#[test]
fn smoke_healthz_ingest_quality_shutdown() {
    let monitor = Monitor::start(reference(64, 1), test_config(0)).unwrap();
    let addr = monitor.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        health.get("seq_len").unwrap().as_u64(),
        Some(SEQ_LEN as u64)
    );
    assert_eq!(
        health.get("features").unwrap().as_u64(),
        Some(FEATURES as u64)
    );

    // hand-rolled ingest of two explicit windows
    let window: String = {
        let steps: Vec<String> = (0..SEQ_LEN)
            .map(|t| format!("[{:.3},{:.3}]", 0.4 + 0.01 * t as f64, 0.5))
            .collect();
        format!("[{}]", steps.join(","))
    };
    let (status, body) = post(
        addr,
        "/ingest",
        &format!("{{\"method\":\"m\",\"windows\":[{window},{window}]}}"),
    );
    assert_eq!(status, 200, "{body}");
    let resp = Json::parse(&body).unwrap();
    assert_eq!(resp.get("accepted").unwrap().as_u64(), Some(2));

    let (status, body) = get(addr, "/quality");
    assert_eq!(status, 200);
    let q = Json::parse(&body).unwrap();
    let m = q.get("methods").unwrap().get("m").unwrap();
    assert_eq!(m.get("windows").unwrap().as_u64(), Some(2));
    assert_eq!(m.get("calibrated"), Some(&Json::Bool(false)));
    assert!(m
        .get("online")
        .unwrap()
        .get("MDD")
        .unwrap()
        .as_f64()
        .is_some());

    let (status, body) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("draining"), "{body}");
    monitor.wait();
    monitor.shutdown();
}

#[test]
fn healthy_stream_raises_no_flags() {
    let monitor = Monitor::start(reference(128, 2), test_config(0)).unwrap();
    let addr = monitor.addr();
    // calibrate, then keep streaming healthy resamples well past
    // several tumbling evaluation windows
    for round in 0..12u64 {
        drill(addr, "healthy", 16, 100 + round, None);
    }
    let flags = method_flags(addr, "healthy");
    assert!(flags.is_empty(), "healthy stream was flagged: {flags:?}");
    monitor.shutdown();
}

#[test]
fn every_drift_kind_is_flagged_within_budget() {
    let monitor = Monitor::start(reference(128, 3), test_config(0)).unwrap();
    let addr = monitor.addr();
    // the detection budget: drift must be flagged within this many
    // drifted windows after a healthy calibration
    const BUDGET_WINDOWS: usize = 160;
    const BATCH: usize = 16;
    for kind in DriftKind::ALL {
        let method = kind.name();
        // healthy calibration (48 windows = cfg.calibrate)
        for round in 0..3u64 {
            drill(addr, method, 16, 200 + round, None);
        }
        assert!(
            method_flags(addr, method).is_empty(),
            "{method}: flagged during calibration"
        );
        let mut flagged_at = None;
        for batch in 0..BUDGET_WINDOWS / BATCH {
            drill(addr, method, BATCH, 300 + batch as u64, Some(kind));
            let flags = method_flags(addr, method);
            if !flags.is_empty() {
                flagged_at = Some(((batch + 1) * BATCH, flags));
                break;
            }
        }
        let (windows, flags) = flagged_at.unwrap_or_else(|| {
            panic!("{method}: not flagged within {BUDGET_WINDOWS} drifted windows")
        });
        assert!(
            windows <= BUDGET_WINDOWS,
            "{method}: flagged too late ({windows} windows)"
        );
        eprintln!("{method}: flagged after {windows} windows: {flags:?}");
    }
    monitor.shutdown();
}

#[test]
fn expensive_measures_refresh_through_the_cache() {
    let mut cfg = test_config(16);
    cfg.calibrate = 16;
    cfg.stride = 16;
    cfg.min_eval = 8;
    let monitor = Monitor::start(reference(64, 4), cfg).unwrap();
    let addr = monitor.addr();
    // enough healthy windows for calibration plus two refreshes
    for round in 0..4u64 {
        drill(addr, "m", 16, 400 + round, None);
    }
    let (status, body) = get(addr, "/quality");
    assert_eq!(status, 200);
    let q = Json::parse(&body).unwrap();
    let m = q.get("methods").unwrap().get("m").unwrap();
    let expensive = m
        .get("expensive")
        .unwrap_or_else(|| panic!("no expensive scores after refresh: {body}"));
    for measure in ["MMD", "C-FID", "DTW-NN"] {
        let v = expensive
            .get(measure)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{measure} missing: {body}"));
        // MMD² is an unbiased estimate and may be slightly negative
        assert!(v.is_finite() && v > -0.1, "{measure} = {v}");
    }
    // the reference-side structures (pairwise block, C-FID reference
    // fit, DTW-NN pool) were built on the first refresh and served
    // warm on the second
    let cache = q.get("cache").unwrap();
    let hits = cache.get("hits").unwrap().as_u64().unwrap();
    let misses = cache.get("misses").unwrap().as_u64().unwrap();
    assert!(misses >= 3, "first refresh must build entries: {body}");
    assert!(hits >= 3, "second refresh must hit the cache: {body}");
    // a healthy stream must not trip the expensive flags either
    assert!(method_flags(addr, "m").is_empty());
    monitor.shutdown();
}

#[test]
fn structured_errors_cover_bad_input() {
    let monitor = Monitor::start(reference(64, 5), test_config(0)).unwrap();
    let addr = monitor.addr();
    let code = |body: &str| {
        Json::parse(body)
            .unwrap()
            .get("error")
            .and_then(|e| e.get("code").and_then(Json::as_str).map(String::from))
            .unwrap_or_else(|| panic!("unstructured error body: {body}"))
    };

    let (status, body) = post(addr, "/ingest", "{not json");
    assert_eq!((status, code(&body).as_str()), (400, "bad_request"));

    let (status, body) = post(addr, "/ingest", "{\"method\":\"m\",\"windows\":[]}");
    assert_eq!((status, code(&body).as_str()), (400, "bad_request"));

    // wrong window shape: 2 steps instead of 16
    let (status, body) = post(
        addr,
        "/ingest",
        "{\"method\":\"m\",\"windows\":[[[0.1,0.2],[0.3,0.4]]]}",
    );
    assert_eq!((status, code(&body).as_str()), (400, "bad_request"));
    assert!(body.contains("window 0"), "{body}");

    let (status, body) = post(
        addr,
        "/drill",
        "{\"method\":\"m\",\"n\":4,\"drift\":\"nope\"}",
    );
    assert_eq!((status, code(&body).as_str()), (400, "bad_request"));

    let (status, body) = post(addr, "/drill", "{\"method\":\"m\"}");
    assert_eq!((status, code(&body).as_str()), (400, "bad_request"));

    let (status, body) = get(addr, "/drill");
    assert_eq!((status, code(&body).as_str()), (405, "method_not_allowed"));

    let (status, body) = get(addr, "/nowhere");
    assert_eq!((status, code(&body).as_str()), (404, "not_found"));

    monitor.shutdown();
}
