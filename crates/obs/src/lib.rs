//! Zero-dependency observability for the mosc workspace: nested timing
//! spans, a metrics registry, and a structured log of solver decisions.
//!
//! The AO/PCO solvers are iterative searches whose cost is dominated by
//! repeated steady-state evaluations through the matrix exponential; this
//! crate makes those searches visible without adding any crates.io
//! dependency and without slowing the common path down. Three registered
//! primitives:
//!
//! * **Spans** ([`span()`], [`span!`]) — RAII guards recording nested wall
//!   time into a thread-local tree. When the root span of a thread closes,
//!   the tree is merged into a global aggregate keyed by call path
//!   (`"ao.solve/ao.sweep_m"`), so repeated calls fold into one node with a
//!   call count, total time, and derived self time. A [`SpanCapture`]
//!   additionally collects one request's trees.
//! * **Metrics** ([`Counter`], [`Gauge`]) — named values declared as
//!   `static`s at their point of use and registered lazily on first touch.
//!   Counters are monotonically increasing `u64`s (`expm.calls`), gauges
//!   hold one `f64`.
//! * **Events** ([`event`]) — structured records of solver decisions (the
//!   chosen oscillation factor, each TPT swap, `BnB` incumbents) with typed
//!   fields, capped at [`MAX_EVENTS`] per run.
//!
//! Beside them sit owned primitives that never register into the snapshot;
//! their user renders them: the one histogram type [`LogHistogram`] (log
//! buckets plus count/sum/min/max, frozen into a mergeable
//! [`HistoSnapshot`]) and the lock-free per-second [`RateWindow`], plus
//! three that ignore the recorder switch: the [`FlightRecorder`] ring (armed
//! per instance), the always-on [`CounterCell`] and the opt-in windowed
//! [`Timeline`].
//!
//! The rest routes through one process-global recorder that is **disabled
//! by default**: the disabled fast path of every primitive is a single
//! relaxed atomic load and an early return, so release binaries keep their
//! performance unless a run opts in via [`enable`] (the CLI's `--obs` flag
//! or the bench harness). [`snapshot`] freezes the current state into a
//! [`Telemetry`] value that renders as a human report
//! ([`Telemetry::render_pretty`]) or as JSONL ([`Telemetry::to_jsonl`])
//! whose lines parse with `mosc-analyze`'s JSON reader — that is the format
//! the `M05x` telemetry lints and `BENCH_obs.json` consume.
//!
//! ```
//! static SOLVES: mosc_obs::Counter = mosc_obs::Counter::new("demo.solves");
//!
//! mosc_obs::enable();
//! {
//!     let _solve = mosc_obs::span("demo.solve");
//!     let _inner = mosc_obs::span("demo.inner");
//!     SOLVES.incr();
//!     mosc_obs::event("demo.done", &[("best", 42.0.into())]);
//! }
//! let t = mosc_obs::snapshot();
//! assert_eq!(t.counter("demo.solves"), Some(1));
//! assert!(t.span_path("demo.solve/demo.inner").is_some());
//! mosc_obs::disable();
//! mosc_obs::reset();
//! ```

mod capture;
mod event;
mod flight;
mod histo;
mod metric;
mod rate;
mod report;
mod span;
mod timeline;

pub use capture::SpanCapture;
pub use event::{event, FieldValue, MAX_EVENTS};
pub use flight::{
    FlightEntry, FlightKind, FlightRecorder, FlightSnapshot, DEFAULT_FLIGHT_CAPACITY,
};
pub use histo::{bucket_upper, Exemplar, HistoSnapshot, LogHistogram, LOG_BUCKETS};
pub use metric::{counter_value, Counter, CounterCell, Gauge};
pub use rate::RateWindow;
pub use report::{EventRecord, SpanStats, Telemetry};
pub use span::{span, SpanGuard};
pub use timeline::{Timeline, TimelineWindow, MAX_GAP_WINDOWS};

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-global on/off switch. All recording primitives check this
/// first with a relaxed load; everything else is skipped while disabled.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the recorder on. Cheap and idempotent.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the recorder off. Spans already open keep recording their own
/// closure (their guard was armed at creation); new work is skipped.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// `true` when the recorder is currently on.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all recorded state: span aggregates, counter/gauge values and
/// registrations, and the event log. Metric statics re-register
/// themselves on their next enabled record, so a snapshot after a reset
/// only shows metrics touched since. The enabled flag is left untouched so
/// callers can reset between phases of one observed run.
pub fn reset() {
    span::reset();
    metric::reset();
    event::reset();
}

/// Freezes the current recorder state into an immutable [`Telemetry`]
/// snapshot. Only spans whose root guard has closed are visible (open spans
/// are still accumulating in thread-local storage).
#[must_use]
pub fn snapshot() -> Telemetry {
    Telemetry::capture()
}

/// Captures the current recorder state **and consumes it**, atomically per
/// store, so a long-lived process can carve its telemetry into windows
/// without the [`snapshot`]-then-[`reset`] race: work recorded concurrently
/// with a drain lands entirely in this window or entirely in the next.
///
/// Per store: the span aggregate is *taken* under one lock acquisition (a
/// thread-root merge is never split across windows); counter values are
/// atomically swapped to zero (no increment is lost or double-counted) and
/// stay registered; the event log is taken whole and its [`MAX_EVENTS`]
/// budget re-opens; gauges are levels, not flows, and keep their value.
#[must_use]
pub fn drain() -> Telemetry {
    Telemetry::capture_drain()
}

/// Opens a named span for the enclosing scope: `span!("ao.sweep_m");`
/// expands to a guard local that closes when the scope ends. Use the
/// [`span()`] function directly when the guard needs an explicit name or an
/// explicit drop point.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _mosc_obs_span_guard = $crate::span($name);
    };
}

#[cfg(test)]
pub(crate) mod test_lock {
    //! The recorder is process-global, so tests that enable it must not
    //! interleave. Every such test holds this lock for its full body.
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        // The overhead guard for the satellite CI check: with the recorder
        // off (the default), every primitive must take its early-out path —
        // nothing registers, nothing aggregates, nothing allocates into the
        // global stores. This is asserted structurally instead of timed, so
        // it cannot flake.
        let _guard = test_lock::hold();
        disable();
        reset();

        static INERT_COUNTER: Counter = Counter::new("inert.counter");
        static INERT_GAUGE: Gauge = Gauge::new("inert.gauge");
        static INERT_LOG_HIST: LogHistogram = LogHistogram::new("inert.log_hist");
        static INERT_RATE: RateWindow = RateWindow::new();
        let capture = SpanCapture::new();
        let observed = capture.observe(|| {
            let g = span("inert.root");
            assert!(!g.is_armed(), "span guard must not arm while disabled");
            let inner = span("inert.child");
            assert!(!inner.is_armed());
            INERT_COUNTER.add(5);
            INERT_GAUGE.set(1.5);
            INERT_LOG_HIST.record(0.25);
            INERT_RATE.tick(3);
            event("inert.event", &[("x", 1u64.into())]);
            7
        });
        assert_eq!(observed, 7, "disabled observe must still run the closure");
        assert!(!INERT_COUNTER.is_registered(), "disabled counter must not register");
        let t = snapshot();
        assert!(t.spans().is_empty(), "disabled spans must not aggregate");
        assert!(t.events().is_empty(), "disabled events must not record");
        assert_eq!(t.counter("inert.counter"), None);
        assert_eq!(t.gauge("inert.gauge"), None);
        assert!(INERT_LOG_HIST.is_empty(), "disabled log histogram must not bucket");
        assert_eq!(INERT_LOG_HIST.snapshot().count, 0);
        assert!(INERT_RATE.per_sec().abs() < f64::EPSILON, "disabled rate must read 0");
        assert!(capture.snapshot().is_empty(), "disabled span capture must capture nothing");
    }

    #[test]
    fn enable_disable_roundtrip() {
        let _guard = test_lock::hold();
        disable();
        assert!(!enabled());
        enable();
        assert!(enabled());
        disable();
        assert!(!enabled());
    }

    #[test]
    fn span_macro_scopes_to_block() {
        let _guard = test_lock::hold();
        enable();
        reset();
        {
            span!("macro.outer");
            {
                span!("macro.inner");
            }
        }
        let t = snapshot();
        assert!(t.span_path("macro.outer/macro.inner").is_some());
        disable();
        reset();
    }
}
