//! The process-wide metric registry: counters, gauges, and fixed
//! log-scale-bucket histograms.
//!
//! Registration happens lazily on first record. The slow paths here
//! are only reached while recording is enabled; the per-record cost is
//! one `HashMap` lookup under a mutex plus a handful of relaxed atomic
//! operations, which instrumented call sites keep off per-element hot
//! loops (they record per step, per epoch, or per measure).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Histogram bucket layout: one bucket per power-of-two magnitude,
/// exponent clamped to `[MIN_EXP, MAX_EXP]`. A sample `v` lands in the
/// bucket whose exponent is `ceil(log2(|v|))` — i.e. bucket `e` covers
/// `(2^(e-1), 2^e]`. Non-positive samples land in the underflow
/// bucket `MIN_EXP - 1`.
const MIN_EXP: i32 = -32;
/// See [`MIN_EXP`].
const MAX_EXP: i32 = 32;
const N_BUCKETS: usize = (MAX_EXP - MIN_EXP + 2) as usize;

pub(crate) struct Counter {
    value: AtomicU64,
}

pub(crate) struct Gauge {
    /// f64 bits.
    value: AtomicU64,
}

pub(crate) struct Histogram {
    count: AtomicU64,
    /// f64 bits, updated by compare-exchange.
    sum: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0f64.to_bits()),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, v: f64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Bucket slot for a sample; slot 0 is the underflow bucket.
fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    // ceil(log2(v)) without libm edge surprises: log2 then ceil is
    // accurate enough for bucketing (ties at exact powers of two may
    // land one bucket up or down, which the layout tolerates).
    let e = v.log2().ceil() as i32;
    (e.clamp(MIN_EXP, MAX_EXP) - MIN_EXP + 1) as usize
}

pub(crate) enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The locked registry. Every update under the lock is one insert or
/// one clear, so the map is valid even after a panic while it was held
/// (a poisoned lock): recording goes on instead of failing every later
/// call, and a [`crate::Span`] dropped during that unwind cannot abort.
pub(crate) fn registry() -> MutexGuard<'static, HashMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Metric>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn reset_registry() {
    registry().clear();
}

pub(crate) fn counter_add_slow(name: &str, n: u64) {
    let handle = {
        let mut reg = registry();
        match reg.get(name) {
            Some(Metric::Counter(c)) => c.clone(),
            Some(_) => return, // name already used by another kind
            None => {
                let c = Arc::new(Counter {
                    value: AtomicU64::new(0),
                });
                reg.insert(name.to_string(), Metric::Counter(c.clone()));
                c
            }
        }
    };
    handle.value.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn gauge_set_slow(name: &str, v: f64) {
    let handle = {
        let mut reg = registry();
        match reg.get(name) {
            Some(Metric::Gauge(g)) => g.clone(),
            Some(_) => return,
            None => {
                let g = Arc::new(Gauge {
                    value: AtomicU64::new(v.to_bits()),
                });
                reg.insert(name.to_string(), Metric::Gauge(g.clone()));
                g
            }
        }
    };
    handle.value.store(v.to_bits(), Ordering::Relaxed);
}

pub(crate) fn observe_slow(name: &str, v: f64) {
    let handle = {
        let mut reg = registry();
        match reg.get(name) {
            Some(Metric::Histogram(h)) => h.clone(),
            Some(_) => return,
            None => {
                let h = Arc::new(Histogram::new());
                reg.insert(name.to_string(), Metric::Histogram(h.clone()));
                h
            }
        }
    };
    handle.record(v);
}

/// Read-only view of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (thread-interleaving dependent in the last
    /// bits; see the crate docs).
    pub sum: f64,
    /// `(bucket exponent, sample count)` for every non-empty bucket,
    /// ascending. Bucket `e` covers `(2^(e-1), 2^e]`; the underflow
    /// bucket (non-positive samples) is reported as `MIN_EXP - 1`.
    pub buckets: Vec<(i32, u64)>,
}

/// A deterministic (name-sorted) copy of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` of every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, latest value)` of every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` of every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Reads every metric, sorted by name within each kind.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let mut out = Snapshot::default();
    for (name, metric) in reg.iter() {
        match metric {
            Metric::Counter(c) => out
                .counters
                .push((name.clone(), c.value.load(Ordering::Relaxed))),
            Metric::Gauge(g) => out.gauges.push((
                name.clone(),
                f64::from_bits(g.value.load(Ordering::Relaxed)),
            )),
            Metric::Histogram(h) => {
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let c = b.load(Ordering::Relaxed);
                        (c > 0).then_some((MIN_EXP - 1 + i as i32, c))
                    })
                    .collect();
                out.histograms.push((
                    name.clone(),
                    HistogramSnapshot {
                        count: h.count.load(Ordering::Relaxed),
                        sum: f64::from_bits(h.sum.load(Ordering::Relaxed)),
                        buckets,
                    },
                ));
            }
        }
    }
    out.counters.sort_by(|a, b| a.0.cmp(&b.0));
    out.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    out.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    out
}
