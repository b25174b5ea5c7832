//! Lightweight span timers.
//!
//! A [`Span`] guard times the scope it lives in. On drop (with
//! recording enabled) it records the duration into the histogram
//! `span.<name>_ms` and appends an ordered [`SpanEvent`] to the run's
//! event log, which [`crate::write_manifest`] serializes as one JSONL
//! line per span. With recording disabled the guard is inert: no clock
//! is read and nothing is stored.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// One completed span, in completion order.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// The span name given to [`span`].
    pub name: String,
    /// Start offset in milliseconds since the run clock started (the
    /// first recorded span of the run, or the last [`crate::reset`]).
    pub start_ms: f64,
    /// Duration in milliseconds.
    pub ms: f64,
}

pub(crate) struct EventLog {
    epoch: Instant,
    events: Vec<SpanEvent>,
}

/// The locked span log. Every update under the lock is one push or
/// one reset, so the log is valid even after a panic while it was held
/// (a poisoned lock), and [`Span`]'s drop never panics on it.
pub(crate) fn event_log() -> MutexGuard<'static, Option<EventLog>> {
    static LOG: OnceLock<Mutex<Option<EventLog>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(None))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn reset_events() {
    *event_log() = None;
}

/// Completed spans so far, in completion order.
pub fn span_events() -> Vec<SpanEvent> {
    event_log()
        .as_ref()
        .map(|l| l.events.clone())
        .unwrap_or_default()
}

/// Times the enclosing scope under `name`. Hold the returned guard for
/// the duration of the phase:
///
/// ```
/// {
///     let _span = tsgb_obs::span("eval.suite");
///     // ... timed work ...
/// } // recorded here
/// ```
pub fn span(name: &str) -> Span {
    Span {
        inner: crate::enabled().then(|| (name.to_string(), Instant::now())),
    }
}

/// Scope-timing guard returned by [`span`].
pub struct Span {
    /// `None` when recording was disabled at creation.
    inner: Option<(String, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((name, start)) = self.inner.take() else {
            return;
        };
        let end = Instant::now();
        let ms = end.duration_since(start).as_secs_f64() * 1e3;
        crate::metrics::observe_slow(&format!("span.{name}_ms"), ms);
        let mut log = event_log();
        let log = log.get_or_insert_with(|| EventLog {
            epoch: start,
            events: Vec::new(),
        });
        let start_ms = start
            .checked_duration_since(log.epoch)
            .map_or(0.0, |d| d.as_secs_f64() * 1e3);
        log.events.push(SpanEvent { name, start_ms, ms });
    }
}
