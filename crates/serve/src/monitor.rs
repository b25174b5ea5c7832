//! `tsgbench monitor` — a continuous-quality endpoint for generation
//! streams.
//!
//! The offline suite answers "how good was this generator" once; the
//! monitor answers "is it still good" while windows keep arriving.
//! Clients `POST /ingest` generated windows per method; the monitor
//! folds them into the streaming accumulators of
//! [`tsgb_eval::online`] (MDD/ACD/SD/KD per window, no retained
//! history beyond a bounded ring) and refreshes the expensive
//! distribution measures (MMD, C-FID, DTW-NN) on a configurable
//! cadence through a content-addressed [`EvalCache`] — the
//! reference-side structures (pairwise block, embedding model, pool
//! envelopes) are built once and served warm on every refresh.
//!
//! ## Drift detection
//!
//! The first [`MonitorConfig::calibrate`] windows of a method set its
//! baseline: they feed the same tumbling accumulator evaluation
//! later uses, and the per-measure **maximum** over those healthy
//! tumbles is frozen as the baseline — so the baseline carries the
//! same small-sample noise as every window set it is compared
//! against. After calibration, windows feed a tumbling accumulator
//! of [`MonitorConfig::stride`] windows; once it holds
//! [`MonitorConfig::min_eval`] windows its measures are compared
//! against the baseline and any measure exceeding `baseline * factor
//! + margin` raises a persistent flag (counted by
//! `monitor.drift_flags`). The seeded injectors in
//! [`tsgb_data::drift`] exist to drill exactly this path — see
//! `POST /drill` and the `monitor_http.rs` suite, which asserts every
//! [`DriftKind`] is flagged within a bounded number of windows.
//!
//! ## Endpoints
//!
//! | route            | behaviour                                           |
//! |------------------|-----------------------------------------------------|
//! | `GET /healthz`   | liveness + method count + total windows + pid       |
//! | `POST /ingest`   | `{"method","windows":[[[f,..],..],..]}` → accepted  |
//! | `GET /quality`   | per-method online scores, expensive scores, flags   |
//! | `POST /drill`    | `{"method","n","seed"?,"drift"?,"severity"?}` — resamples the reference (plus jitter), optionally injects drift, ingests |
//! | `POST /shutdown` | signals [`Monitor::wait`] to return                 |

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use tsgb_data::drift::{self, DriftKind};
use tsgb_eval::mmd::mmd2_rows_cached;
use tsgb_eval::{cfid_ref, dtw_nn_mean, CfidRef, DtwNnPool, OnlineMeasures};
use tsgb_evalcache::{digest_tensor, CacheKey, EvalCache, Fnv64};
use tsgb_linalg::{Matrix, Tensor3};
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::{Rng, SeedableRng};
use tsgb_wire::server::{spawn_accept_loop, Lifecycle, Reply};
use tsgb_wire::{HttpError, Json, Request};

/// How long [`Monitor::shutdown`] waits for handler threads.
const DRAIN_WAIT: Duration = Duration::from_secs(10);

/// Most windows accepted in one `/ingest` or `/drill` call.
const MAX_BATCH_WINDOWS: usize = 1024;

/// Monitor configuration. The `margin_*` fields are absolute slack
/// added on top of the relative [`MonitorConfig::drift_factor`]:
/// a measure flags when `current > baseline * drift_factor +
/// margin`. Margins default to a small fraction of each measure's
/// healthy dynamic range (MDD's ceiling is `2/bins = 0.04`, so its
/// margin is the tightest).
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Bind address (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Windows that set a method's baseline before flagging starts.
    pub calibrate: u64,
    /// Tumbling-accumulator size for drift checks.
    pub stride: u64,
    /// Minimum windows in the tumbling accumulator before it is
    /// compared against the baseline.
    pub min_eval: u64,
    /// Relative drift threshold (`1.5` = 50% above baseline).
    pub drift_factor: f64,
    /// Absolute margin for MDD.
    pub margin_mdd: f64,
    /// Absolute margin for ACD.
    pub margin_acd: f64,
    /// Absolute margin for SD.
    pub margin_sd: f64,
    /// Absolute margin for KD.
    pub margin_kd: f64,
    /// Absolute margin for the expensive measures (MMD, C-FID,
    /// DTW-NN), relative to their first post-calibration refresh.
    pub margin_expensive: f64,
    /// Expensive-measure refresh cadence in windows; `0` disables.
    pub refresh_every: u64,
    /// Retained recent windows per method (the generated side of each
    /// expensive refresh).
    pub window_cap: usize,
    /// Seed for the C-FID reference fit (part of its cache key).
    pub seed: u64,
    /// C-FID embedding dimension.
    pub embed_dim: usize,
    /// C-FID embedding training epochs.
    pub embed_epochs: usize,
    /// Sakoe-Chiba band for the DTW-NN pool.
    pub dtw_band: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7879".into(),
            calibrate: 32,
            stride: 32,
            min_eval: 8,
            drift_factor: 1.5,
            margin_mdd: 0.004,
            margin_acd: 0.05,
            margin_sd: 0.15,
            margin_kd: 0.4,
            margin_expensive: 0.25,
            refresh_every: 64,
            window_cap: 128,
            seed: 7,
            embed_dim: 6,
            embed_epochs: 40,
            dtw_band: 8,
        }
    }
}

/// The online measures the monitor tracks, with their flag margins.
const ONLINE_MEASURES: [&str; 4] = ["MDD", "ACD", "SD", "KD"];

struct MethodState {
    /// Everything since the method first appeared (reported).
    total: OnlineMeasures,
    /// Tumbling accumulator compared against the baseline.
    recent: OnlineMeasures,
    /// Bounded ring of the latest raw windows (expensive refreshes).
    ring: VecDeque<Matrix>,
    /// Worst (max) healthy tumble value per measure seen while
    /// calibrating — becomes the baseline.
    calib_max: BTreeMap<&'static str, f64>,
    /// Online baselines, frozen after `calibrate` windows: the
    /// per-measure maximum over tumbling calibration windows, so the
    /// baseline carries the same small-sample noise as the windows it
    /// is later compared against.
    baseline: Option<BTreeMap<&'static str, f64>>,
    /// First post-calibration expensive refresh (the baseline).
    expensive_base: Option<Vec<(&'static str, f64)>>,
    /// Latest expensive refresh.
    expensive_last: Option<Vec<(&'static str, f64)>>,
    /// Persistent drift flags, e.g. `"MDD"`, `"MMD"`.
    flags: Vec<String>,
    windows: u64,
    since_refresh: u64,
}

struct Shared {
    cfg: MonitorConfig,
    reference: Tensor3,
    /// Reference windows flattened to rows (the MMD input), computed
    /// once.
    ref_rows: Matrix,
    ref_digest: u64,
    /// Fresh accumulator cloned per method and per tumble.
    template: OnlineMeasures,
    cache: EvalCache,
    methods: Mutex<BTreeMap<String, MethodState>>,
    lifecycle: Arc<Lifecycle>,
}

/// A running quality monitor.
pub struct Monitor {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Monitor {
    /// Binds `cfg.addr`, precomputes the reference-side state, and
    /// starts accepting.
    pub fn start(reference: Tensor3, cfg: MonitorConfig) -> std::io::Result<Monitor> {
        assert!(
            cfg.calibrate >= cfg.min_eval,
            "calibration must observe at least one evaluation-sized tumble"
        );
        assert!(
            cfg.stride >= cfg.min_eval && cfg.min_eval >= 1,
            "need stride >= min_eval >= 1"
        );
        assert!(
            cfg.window_cap >= 2,
            "window_cap must hold at least 2 windows"
        );
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let template = OnlineMeasures::new(&reference);
        let shared = Arc::new(Shared {
            ref_rows: reference.flatten_samples(),
            ref_digest: digest_tensor(&reference),
            reference,
            template,
            cache: EvalCache::in_memory(),
            cfg,
            methods: Mutex::new(BTreeMap::new()),
            lifecycle: Arc::new(Lifecycle::new()),
        });
        let handler_shared = Arc::clone(&shared);
        let accept = spawn_accept_loop(
            listener,
            "tsgb-monitor",
            Arc::clone(&shared.lifecycle),
            Arc::new(move |req: &Request| handle(req, &handler_shared)),
        )?;
        Ok(Monitor {
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

    /// Gracefully drains and stops the monitor.
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
        self.shared.lifecycle.wait_idle(DRAIN_WAIT);
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn handle(req: &Request, shared: &Shared) -> Reply {
    tsgb_obs::counter_add("monitor.requests", 1);
    match route(req, shared) {
        Ok(reply) => reply,
        Err(e) => Reply::from(&e),
    }
}

fn route(req: &Request, shared: &Shared) -> Result<Reply, HttpError> {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => Ok(Reply::ok(healthz(shared))),
        ("GET", "/quality") => Ok(Reply::ok(quality(shared))),
        ("POST", "/ingest") => ingest(req, shared),
        ("POST", "/drill") => drill(req, shared),
        ("POST", "/shutdown") => {
            shared.lifecycle.signal_stop();
            shared.lifecycle.start_draining();
            Ok(Reply::ok(
                Json::Obj(vec![("status".into(), Json::Str("draining".into()))]).encode(),
            ))
        }
        (_, "/healthz" | "/quality" | "/ingest" | "/drill" | "/shutdown") => Err(
            HttpError::method_not_allowed(format!("{} not allowed on {path}", req.method)),
        ),
        _ => Err(HttpError::not_found(format!("no route {path}"))),
    }
}

fn healthz(shared: &Shared) -> String {
    let methods = shared.methods.lock().expect("monitor state poisoned");
    let windows: u64 = methods.values().map(|m| m.windows).sum();
    let (l, n) = (shared.reference.seq_len(), shared.reference.features());
    Json::Obj(vec![
        (
            "status".into(),
            Json::Str(if shared.lifecycle.draining() {
                "draining".into()
            } else {
                "ok".into()
            }),
        ),
        ("methods".into(), Json::Num(methods.len() as f64)),
        ("windows".into(), Json::Num(windows as f64)),
        ("seq_len".into(), Json::Num(l as f64)),
        ("features".into(), Json::Num(n as f64)),
        ("pid".into(), Json::Num(std::process::id() as f64)),
    ])
    .encode()
}

fn quality(shared: &Shared) -> String {
    let methods = shared.methods.lock().expect("monitor state poisoned");
    let per_method: Vec<(String, Json)> = methods
        .iter()
        .map(|(name, st)| (name.clone(), method_json(st)))
        .collect();
    let cs = shared.cache.stats();
    Json::Obj(vec![
        (
            "reference_windows".into(),
            Json::Num(shared.reference.samples() as f64),
        ),
        ("methods".into(), Json::Obj(per_method)),
        (
            "cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Num(cs.hits as f64)),
                ("misses".into(), Json::Num(cs.misses as f64)),
                ("bytes".into(), Json::Num(cs.bytes as f64)),
            ]),
        ),
    ])
    .encode()
}

fn method_json(st: &MethodState) -> Json {
    let mut fields = vec![
        ("windows".into(), Json::Num(st.windows as f64)),
        ("calibrated".into(), Json::Bool(st.baseline.is_some())),
    ];
    if st.windows > 0 {
        fields.push(("online".into(), scores_json(&st.total)));
    }
    if let Some(base) = &st.baseline {
        fields.push((
            "baseline".into(),
            Json::Obj(
                base.iter()
                    .map(|(k, v)| ((*k).into(), Json::Num(*v)))
                    .collect(),
            ),
        ));
    }
    if let Some(exp) = &st.expensive_last {
        fields.push((
            "expensive".into(),
            Json::Obj(
                exp.iter()
                    .map(|(k, v)| ((*k).into(), Json::Num(*v)))
                    .collect(),
            ),
        ));
    }
    fields.push((
        "flags".into(),
        Json::Arr(st.flags.iter().map(|f| Json::Str(f.clone())).collect()),
    ));
    Json::Obj(fields)
}

fn scores_json(m: &OnlineMeasures) -> Json {
    Json::Obj(vec![
        ("MDD".into(), Json::Num(m.mdd())),
        ("ACD".into(), Json::Num(m.acd())),
        ("SD".into(), Json::Num(m.sd())),
        ("KD".into(), Json::Num(m.kd())),
    ])
}

fn online_snapshot(m: &OnlineMeasures) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("MDD", m.mdd()),
        ("ACD", m.acd()),
        ("SD", m.sd()),
        ("KD", m.kd()),
    ])
}

fn ingest(req: &Request, shared: &Shared) -> Result<Reply, HttpError> {
    if shared.lifecycle.draining() {
        return Err(HttpError::overloaded("monitor is draining", 1));
    }
    let body = parse_body(req)?;
    let method = required_str(&body, "method")?;
    let windows = match body.get("windows") {
        Some(Json::Arr(ws)) => ws,
        _ => return Err(HttpError::bad_request("missing array field \"windows\"")),
    };
    if windows.is_empty() || windows.len() > MAX_BATCH_WINDOWS {
        return Err(HttpError::bad_request(format!(
            "\"windows\" must hold 1..={MAX_BATCH_WINDOWS} windows"
        )));
    }
    let (l, n) = (shared.reference.seq_len(), shared.reference.features());
    let parsed: Vec<Matrix> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            parse_window(w, l, n).map_err(|e| HttpError::bad_request(format!("window {i}: {e}")))
        })
        .collect::<Result<_, _>>()?;
    let flags = absorb(shared, method, &parsed);
    Ok(Reply::ok(ingest_reply(parsed.len(), &flags)))
}

fn drill(req: &Request, shared: &Shared) -> Result<Reply, HttpError> {
    if shared.lifecycle.draining() {
        return Err(HttpError::overloaded("monitor is draining", 1));
    }
    let body = parse_body(req)?;
    let method = required_str(&body, "method")?;
    let count =
        body.get("n")
            .and_then(Json::as_u64)
            .ok_or_else(|| HttpError::bad_request("missing integer field \"n\""))? as usize;
    if count == 0 || count > MAX_BATCH_WINDOWS {
        return Err(HttpError::bad_request(format!(
            "\"n\" must be in 1..={MAX_BATCH_WINDOWS}"
        )));
    }
    let seed = body.get("seed").and_then(Json::as_u64).unwrap_or(0);
    let kind = match body.get("drift") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(DriftKind::parse(s).ok_or_else(|| {
            HttpError::bad_request(format!(
                "unknown drift {s:?} (one of {:?})",
                DriftKind::ALL.map(DriftKind::name)
            ))
        })?),
        Some(_) => return Err(HttpError::bad_request("\"drift\" must be a string or null")),
    };
    let severity = body.get("severity").and_then(Json::as_f64).unwrap_or(1.0);
    if !(0.0..=100.0).contains(&severity) {
        return Err(HttpError::bad_request("\"severity\" must be in [0, 100]"));
    }
    // resample the reference with a small seeded jitter — a "healthy"
    // generator — then optionally push it through a drift injector
    let r = &shared.reference;
    let (l, n) = (r.seq_len(), r.features());
    let mut rng = SmallRng::seed_from_u64(seed);
    let idx: Vec<usize> = (0..count)
        .map(|_| rng.gen::<u64>() as usize % r.samples())
        .collect();
    let mut resampled = Tensor3::zeros(count, l, n);
    for (s, &src) in idx.iter().enumerate() {
        for t in 0..l {
            for f in 0..n {
                let jitter = 0.01 * (2.0 * rng.gen::<f64>() - 1.0);
                *resampled.at_mut(s, t, f) = r.at(src, t, f) + jitter;
            }
        }
    }
    let produced = match kind {
        Some(k) => drift::inject(&resampled, k, severity, seed ^ 0x5eed_d21f),
        None => resampled,
    };
    let parsed: Vec<Matrix> = (0..count)
        .map(|s| Matrix::from_fn(l, n, |t, f| produced.at(s, t, f)))
        .collect();
    let flags = absorb(shared, method, &parsed);
    Ok(Reply::ok(ingest_reply(parsed.len(), &flags)))
}

fn ingest_reply(accepted: usize, flags: &[String]) -> String {
    Json::Obj(vec![
        ("accepted".into(), Json::Num(accepted as f64)),
        (
            "flags".into(),
            Json::Arr(flags.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
    ])
    .encode()
}

/// Folds parsed windows into a method's state and returns the
/// method's (possibly newly grown) flag list.
fn absorb(shared: &Shared, method: &str, windows: &[Matrix]) -> Vec<String> {
    let cfg = &shared.cfg;
    let mut methods = shared.methods.lock().expect("monitor state poisoned");
    let st = methods
        .entry(method.to_string())
        .or_insert_with(|| MethodState {
            total: shared.template.clone(),
            recent: shared.template.clone(),
            ring: VecDeque::with_capacity(cfg.window_cap),
            calib_max: BTreeMap::new(),
            baseline: None,
            expensive_base: None,
            expensive_last: None,
            flags: Vec::new(),
            windows: 0,
            since_refresh: 0,
        });
    for w in windows {
        st.total.push(w);
        if st.ring.len() == cfg.window_cap {
            st.ring.pop_front();
        }
        st.ring.push_back(w.clone());
        st.windows += 1;
        st.since_refresh += 1;
        tsgb_obs::counter_add("monitor.windows", 1);
        match &st.baseline {
            None => {
                // calibration tumbles exactly like evaluation will, so
                // the baseline is a worst healthy value at the same
                // window counts it is later compared against
                st.recent.push(w);
                if st.recent.windows() >= cfg.min_eval {
                    let cur = online_snapshot(&st.recent);
                    for m in ONLINE_MEASURES {
                        let worst = st.calib_max.entry(m).or_insert(f64::NEG_INFINITY);
                        *worst = worst.max(cur[m]);
                    }
                }
                if st.recent.windows() >= cfg.stride {
                    st.recent = shared.template.clone();
                }
                if st.windows >= cfg.calibrate {
                    st.baseline = Some(std::mem::take(&mut st.calib_max));
                    st.recent = shared.template.clone();
                }
            }
            Some(_) => {
                st.recent.push(w);
                if st.recent.windows() >= cfg.min_eval {
                    check_online_flags(cfg, st);
                }
                if st.recent.windows() >= cfg.stride {
                    st.recent = shared.template.clone();
                }
            }
        }
        if cfg.refresh_every > 0
            && st.baseline.is_some()
            && st.since_refresh >= cfg.refresh_every
            && st.ring.len() >= 2
        {
            refresh_expensive(shared, st);
            st.since_refresh = 0;
        }
    }
    st.flags.clone()
}

fn check_online_flags(cfg: &MonitorConfig, st: &mut MethodState) {
    let base = st.baseline.clone().expect("checked by caller");
    let cur = online_snapshot(&st.recent);
    for m in ONLINE_MEASURES {
        let margin = match m {
            "MDD" => cfg.margin_mdd,
            "ACD" => cfg.margin_acd,
            "SD" => cfg.margin_sd,
            _ => cfg.margin_kd,
        };
        raise_if_exceeded(st, m, base[m], cur[m], cfg.drift_factor, margin);
    }
}

fn raise_if_exceeded(
    st: &mut MethodState,
    measure: &str,
    base: f64,
    cur: f64,
    factor: f64,
    margin: f64,
) {
    if cur > base * factor + margin && !st.flags.iter().any(|f| f == measure) {
        st.flags.push(measure.to_string());
        st.flags.sort();
        tsgb_obs::counter_add("monitor.drift_flags", 1);
    }
}

/// Recomputes MMD, C-FID and DTW-NN of the retained ring against the
/// reference, through the cache: the reference-side structures hit
/// after the first refresh, so a refresh costs only the
/// generated-side work.
fn refresh_expensive(shared: &Shared, st: &mut MethodState) {
    let cfg = &shared.cfg;
    let r = &shared.reference;
    let (l, n) = (r.seq_len(), r.features());
    let generated = Tensor3::from_fn(st.ring.len(), l, n, |s, t, f| st.ring[s][(t, f)]);
    let gen_rows = generated.flatten_samples();

    let mmd = mmd2_rows_cached(&shared.ref_rows, &gen_rows, Some(&shared.cache));

    let cfid_key = CacheKey::new("cfid.ref", shared.ref_digest, 0, {
        let mut h = Fnv64::new();
        h.update(b"tsgb.monitor.cfid");
        h.update_u64(cfg.embed_dim as u64);
        h.update_u64(cfg.embed_epochs as u64);
        h.update_u64(cfg.seed);
        h.finish()
    });
    let reference_fit = shared.cache.get_or_insert_with(
        cfid_key,
        |c: &CfidRef| c.approx_bytes(),
        || cfid_ref(r, cfg.embed_dim, cfg.embed_epochs, cfg.seed),
    );
    let cfid = reference_fit.score(&generated);

    let pool_key = CacheKey::new("dtwnn.pool", shared.ref_digest, 0, {
        let mut h = Fnv64::new();
        h.update(b"tsgb.monitor.dtwnn");
        h.update_u64(cfg.dtw_band as u64);
        h.update_u64(l as u64);
        h.finish()
    });
    let pool = shared.cache.get_or_insert_with(
        pool_key,
        |p: &DtwNnPool| (p.len() * l * n * 2 + r.samples() * l * n) * 8,
        || DtwNnPool::build(r, l, cfg.dtw_band),
    );
    let dtw = dtw_nn_mean(&generated, &pool);

    let scores: Vec<(&'static str, f64)> = vec![("MMD", mmd), ("C-FID", cfid), ("DTW-NN", dtw)];
    tsgb_obs::counter_add("monitor.refreshes", 1);
    match &st.expensive_base {
        None => st.expensive_base = Some(scores.clone()),
        Some(base) => {
            for ((name, b), (_, c)) in base.clone().iter().zip(&scores) {
                raise_if_exceeded(st, name, *b, *c, cfg.drift_factor, cfg.margin_expensive);
            }
        }
    }
    st.expensive_last = Some(scores);
}

fn parse_body(req: &Request) -> Result<Json, HttpError> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| HttpError::bad_request("body is not UTF-8"))?;
    Json::parse(text).map_err(|e| HttpError::bad_request(format!("bad JSON: {e}")))
}

fn required_str<'a>(body: &'a Json, key: &str) -> Result<&'a str, HttpError> {
    body.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| HttpError::bad_request(format!("missing string field {key:?}")))
}

/// Parses one `[[f, ..], ..]` window into an `(l, n)` matrix.
fn parse_window(w: &Json, l: usize, n: usize) -> Result<Matrix, String> {
    let steps = match w {
        Json::Arr(steps) => steps,
        _ => return Err("window must be an array of steps".into()),
    };
    if steps.len() != l {
        return Err(format!("expected {l} steps, got {}", steps.len()));
    }
    let mut m = Matrix::zeros(l, n);
    for (t, step) in steps.iter().enumerate() {
        let vals = match step {
            Json::Arr(vals) => vals,
            _ => return Err(format!("step {t} must be an array of features")),
        };
        if vals.len() != n {
            return Err(format!(
                "step {t}: expected {n} features, got {}",
                vals.len()
            ));
        }
        for (f, v) in vals.iter().enumerate() {
            let x = v
                .as_f64()
                .ok_or_else(|| format!("step {t}, feature {f}: not a number"))?;
            if !x.is_finite() {
                return Err(format!("step {t}, feature {f}: not finite"));
            }
            m[(t, f)] = x;
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_parser_checks_shape_and_values() {
        let good = Json::parse("[[0.1,0.2],[0.3,0.4]]").unwrap();
        let m = parse_window(&good, 2, 2).unwrap();
        assert_eq!(m[(1, 0)], 0.3);
        assert!(parse_window(&good, 3, 2).is_err());
        assert!(parse_window(&good, 2, 1).is_err());
        let nan = Json::parse("[[0.1,0.2],[0.3,\"x\"]]").unwrap();
        assert!(parse_window(&nan, 2, 2).is_err());
    }

    #[test]
    fn default_config_is_coherent() {
        let c = MonitorConfig::default();
        assert!(c.stride >= c.min_eval);
        assert!(c.drift_factor > 1.0);
        assert!(c.margin_mdd < 0.04, "MDD margin must fit under its ceiling");
    }
}
