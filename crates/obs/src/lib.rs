#![warn(missing_docs)]

//! `tsgb-obs`: process-wide observability for the benchmark.
//!
//! Three primitives, all std-only and all safe to call from any
//! thread:
//!
//! * **metrics** — named [counters](counter_add), [gauges](gauge_set)
//!   and [histograms](observe) with fixed log-scale buckets, stored in
//!   a process-wide registry;
//! * **spans** — [`span`] returns a guard that times a scope and
//!   records the duration as both a histogram sample and an ordered
//!   manifest event;
//! * **sinks** — [`snapshot`] reads every metric deterministically
//!   (sorted by name), and [`write_manifest`] serializes the run
//!   header, the span log, and the final metric values as JSONL.
//!
//! # The no-op contract
//!
//! Recording is **off** unless the `TSGB_OBS` environment variable is
//! set to a non-`0` value or [`set_enabled`]`(true)` was called. While
//! off, every recording entry point reduces to one relaxed atomic load
//! and a branch — no clock reads, no locks, no allocation — so
//! instrumented hot paths (one tape reset per train step, one hook per
//! epoch) stay within the <2% overhead budget of the
//! `BENCH_train.json` step probes.
//!
//! # The determinism contract
//!
//! Metrics are observed, never fed back: nothing in this crate is read
//! by any computation, so enabling recording cannot perturb results,
//! and the `parallel == serial` bit-identity contract of `tsgb-par`
//! is preserved. Recording order from worker threads is
//! nondeterministic, but counters and histogram buckets are
//! commutative sums, and [`snapshot`] sorts by name, so the *final*
//! snapshot of a deterministic workload is itself deterministic
//! (histogram f64 sums are the one exception: they may differ in the
//! last bits across thread interleavings, which is why golden tests
//! pin suite *outputs*, not metric sums).
//!
//! Environment variables:
//!
//! | variable        | effect                                         |
//! |-----------------|------------------------------------------------|
//! | `TSGB_OBS`      | `1`/`true` enables recording at startup        |
//! | `TSGB_OBS_FILE` | default path for the JSONL run manifest        |

mod manifest;
mod metrics;
mod span;

pub use manifest::{manifest_path, write_manifest};
pub use metrics::{snapshot, HistogramSnapshot, Snapshot};
pub use span::{span, span_events, Span, SpanEvent};

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = not yet read from the environment, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether recording is currently enabled. The first call reads
/// `TSGB_OBS` from the environment; later calls are one relaxed load.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => init_enabled(),
        state => state == 2,
    }
}

#[cold]
fn init_enabled() -> bool {
    let on = std::env::var("TSGB_OBS")
        .map(|v| {
            let v = v.trim();
            !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false")
        })
        .unwrap_or(false);
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Turns recording on or off for the whole process, overriding the
/// environment. Binaries that always emit a manifest (e.g.
/// `reproduce`) call `set_enabled(true)` at startup.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Adds `n` to the named monotonic counter (no-op while disabled).
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if enabled() {
        metrics::counter_add_slow(name, n);
    }
}

/// Sets the named gauge to `v`, keeping the latest value (no-op while
/// disabled).
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        metrics::gauge_set_slow(name, v);
    }
}

/// Records one sample into the named histogram (no-op while
/// disabled). Buckets are fixed powers of two over the sample's
/// magnitude; see [`HistogramSnapshot`].
#[inline]
pub fn observe(name: &str, v: f64) {
    if enabled() {
        metrics::observe_slow(name, v);
    }
}

/// Clears every metric, span event, and the run clock. Call at the
/// start of a run (or between tests) so the manifest describes one run
/// only. Does not change the enabled state.
pub fn reset() {
    metrics::reset_registry();
    span::reset_events();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Recording state is process-global; tests that toggle it must
    /// not interleave.
    static LOCK: Mutex<()> = Mutex::new(());

    fn with_recording<R>(f: impl FnOnce() -> R) -> R {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        let r = f();
        set_enabled(false);
        r
    }

    #[test]
    fn disabled_recording_is_dropped() {
        let _g = LOCK.lock().unwrap();
        set_enabled(false);
        reset();
        counter_add("t.dropped", 5);
        gauge_set("t.dropped_gauge", 1.0);
        observe("t.dropped_hist", 1.0);
        set_enabled(true);
        let s = snapshot();
        set_enabled(false);
        assert!(s.counters.is_empty());
        assert!(s.gauges.is_empty());
        assert!(s.histograms.is_empty());
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let s = with_recording(|| {
            counter_add("t.b", 2);
            counter_add("t.a", 1);
            counter_add("t.b", 3);
            snapshot()
        });
        assert_eq!(
            s.counters,
            vec![("t.a".to_string(), 1), ("t.b".to_string(), 5)]
        );
    }

    #[test]
    fn gauge_keeps_latest() {
        let s = with_recording(|| {
            gauge_set("t.g", 1.5);
            gauge_set("t.g", -2.25);
            snapshot()
        });
        assert_eq!(s.gauges, vec![("t.g".to_string(), -2.25)]);
    }

    #[test]
    fn histogram_counts_sum_and_buckets() {
        let s = with_recording(|| {
            observe("t.h", 1.0); // exponent 0 bucket (0.5 < 1 <= 1)
            observe("t.h", 3.0); // exponent 2 bucket (2 < 3 <= 4)
            observe("t.h", 4.0); // exponent 2 bucket
            observe("t.h", 0.0); // underflow bucket
            snapshot()
        });
        let (name, h) = &s.histograms[0];
        assert_eq!(name, "t.h");
        assert_eq!(h.count, 4);
        assert!((h.sum - 8.0).abs() < 1e-12);
        let total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 4);
        assert!(h.buckets.iter().any(|&(e, c)| e == 2 && c == 2));
    }

    #[test]
    fn spans_record_events_and_histograms() {
        let (s, events) = with_recording(|| {
            {
                let _sp = span("t.phase");
                std::hint::black_box(0u64);
            }
            (snapshot(), span_events())
        });
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "t.phase");
        assert!(events[0].ms >= 0.0);
        assert!(s
            .histograms
            .iter()
            .any(|(n, h)| n == "span.t.phase_ms" && h.count == 1));
    }

    /// A panic while the registry or the span log is held poisons that
    /// lock. Recording, snapshots and span drops carry on regardless,
    /// and a span dropped by an unwinding thread does not abort the
    /// process.
    #[test]
    fn poisoned_locks_do_not_stop_recording() {
        let (s, events) = with_recording(|| {
            let poison = |hold: fn()| assert!(std::thread::spawn(hold).join().is_err());
            poison(|| {
                let _held = metrics::registry();
                panic!("poisons the metric registry");
            });
            poison(|| {
                let _held = span::event_log();
                panic!("poisons the span log");
            });
            poison(|| {
                let _sp = span("t.unwound");
                panic!("unwinds past a live span");
            });
            counter_add("t.after_poison", 2);
            {
                let _sp = span("t.after_poison");
            }
            (snapshot(), span_events())
        });
        assert_eq!(s.counters, vec![("t.after_poison".to_string(), 2)]);
        for name in ["span.t.unwound_ms", "span.t.after_poison_ms"] {
            assert!(
                s.histograms.iter().any(|(n, h)| n == name && h.count == 1),
                "{name} missing"
            );
        }
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["t.unwound", "t.after_poison"]);
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let s = with_recording(|| {
            std::thread::scope(|sc| {
                for _ in 0..4 {
                    sc.spawn(|| {
                        for _ in 0..1000 {
                            counter_add("t.conc", 1);
                        }
                    });
                }
            });
            snapshot()
        });
        assert_eq!(s.counters, vec![("t.conc".to_string(), 4000)]);
    }

    #[test]
    fn manifest_is_valid_jsonl() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        counter_add("t.m", 7);
        {
            let _sp = span("t.mphase");
        }
        let dir = std::env::temp_dir().join("tsgb_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.jsonl");
        write_manifest(&path, &[("seed", "7".into()), ("kind", "\"test\"".into())]).unwrap();
        set_enabled(false);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "run + span + counter lines");
        assert!(lines[0].starts_with("{\"type\":\"run\""));
        assert!(lines[0].contains("\"seed\":7"));
        assert!(text.contains("\"type\":\"span\""));
        assert!(text.contains("\"type\":\"counter\""));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "bad line {l}");
        }
        std::fs::remove_file(&path).ok();
    }
}
