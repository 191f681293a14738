//! Named metrics: counters and gauges.
//!
//! Metrics are declared as `static`s at their point of use
//! (`static CALLS: Counter = Counter::new("expm.calls");`) and register
//! themselves into a process-global registry the first time they record
//! while the recorder is enabled. The hot path is lock-free: one relaxed
//! load of the global enabled flag, one relaxed registration check, and
//! the atomic update itself. Registration (a mutex push) happens at most
//! once per metric per process.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Registry of every metric static that has recorded at least once while
/// enabled. Entries are `&'static`, so the registry never owns anything.
struct Registry {
    counters: Vec<&'static Counter>,
    gauges: Vec<&'static Gauge>,
}

static REGISTRY: Mutex<Registry> =
    Mutex::new(Registry { counters: Vec::new(), gauges: Vec::new() });

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A monotonically increasing `u64` metric (calls, iterations, prunes).
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Declares a counter. `const`, so it can initialise a `static`.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// The counter's registry name, e.g. `"expm.calls"`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds one. No-op while the recorder is disabled.
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Adds `n`. Hot multi-threaded loops should accumulate locally and
    /// call this once per batch. No-op while the recorder is disabled.
    pub fn add(&'static self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.ensure_registered();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (0 until the first enabled `add`).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// `true` once this counter has recorded while enabled. Exists for the
    /// disabled-overhead guard test.
    #[must_use]
    pub fn is_registered(&self) -> bool {
        self.registered.load(Ordering::Relaxed)
    }

    fn ensure_registered(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().counters.push(self);
        }
    }
}

/// An always-on, registry-free `u64` cell for state that must be counted
/// regardless of the recorder switch (a server's request totals, which its
/// `stats` wire op reports even when telemetry is off). Unlike [`Counter`]
/// it is owned (no `'static` requirement), never registers anywhere, and
/// never checks [`crate::enabled`] — it is four relaxed atomic ops at most.
#[derive(Debug, Default)]
pub struct CounterCell(AtomicU64);

impl CounterCell {
    /// A zeroed cell. `const`, so it can initialise a `static` or a field.
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the cell to `v` if `v` is larger (high-watermark tracking).
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A metric holding the latest `f64` value set (occupancy, headroom).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    /// `f64` stored via `to_bits`.
    bits: AtomicU64,
    set_once: AtomicBool,
    registered: AtomicBool,
}

impl Gauge {
    /// Declares a gauge. `const`, so it can initialise a `static`.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            bits: AtomicU64::new(0),
            set_once: AtomicBool::new(false),
            registered: AtomicBool::new(false),
        }
    }

    /// The gauge's registry name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Stores `v` as the gauge's current value. No-op while disabled.
    pub fn set(&'static self, v: f64) {
        if !crate::enabled() {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().gauges.push(self);
        }
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        self.set_once.store(true, Ordering::Relaxed);
    }

    /// Latest value, `None` until the first enabled `set`.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        if self.set_once.load(Ordering::Relaxed) {
            Some(f64::from_bits(self.bits.load(Ordering::Relaxed)))
        } else {
            None
        }
    }
}

/// Zeroes and unregisters every registered metric, so the next snapshot
/// only lists metrics touched after the reset. A metric static re-registers
/// itself on its next enabled record.
pub(crate) fn reset() {
    let mut reg = registry();
    for c in reg.counters.drain(..) {
        c.value.store(0, Ordering::Relaxed);
        c.registered.store(false, Ordering::Relaxed);
    }
    for g in reg.gauges.drain(..) {
        g.bits.store(0, Ordering::Relaxed);
        g.set_once.store(false, Ordering::Relaxed);
        g.registered.store(false, Ordering::Relaxed);
    }
}

/// Reads one registered counter's current value by name, without taking a
/// full snapshot. `None` until the counter's first enabled record. This is
/// the cheap primitive behind kernel-counter *deltas*: read before and
/// after a solve and subtract.
#[must_use]
pub fn counter_value(name: &str) -> Option<u64> {
    registry().counters.iter().find(|c| c.name == name).map(|c| c.value())
}

/// Snapshot pair of (counters, gauges).
pub(crate) type MetricSnapshot = (Vec<(String, u64)>, Vec<(String, f64)>);

/// Snapshot of all registered metrics with a nonzero/recorded state,
/// sorted by name for stable rendering.
pub(crate) fn collect() -> MetricSnapshot {
    let reg = registry();
    let mut counters: Vec<(String, u64)> =
        reg.counters.iter().map(|c| (c.name.to_string(), c.value())).collect();
    let mut gauges: Vec<(String, f64)> =
        reg.gauges.iter().filter_map(|g| g.value().map(|v| (g.name.to_string(), v))).collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    (counters, gauges)
}

/// Like [`collect`], but *consumes* counter values: counters are
/// atomically swapped to zero (an increment lands either in this drain or
/// the next — never lost, never doubled), and gauges keep their last value
/// (they are levels, not flows). Registrations are
/// kept, so drained metrics reappear in the next window without a
/// re-registration race.
pub(crate) fn drain_collect() -> MetricSnapshot {
    let reg = registry();
    let mut counters: Vec<(String, u64)> = reg
        .counters
        .iter()
        .map(|c| (c.name.to_string(), c.value.swap(0, Ordering::Relaxed)))
        .collect();
    let mut gauges: Vec<(String, f64)> =
        reg.gauges.iter().filter_map(|g| g.value().map(|v| (g.name.to_string(), v))).collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    (counters, gauges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn counter_aggregates_across_threads() {
        let _guard = test_lock::hold();
        crate::enable();
        crate::reset();
        static MT: Counter = Counter::new("metric.mt_counter");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        MT.incr();
                    }
                });
            }
        });
        assert_eq!(MT.value(), 8000);
        assert_eq!(crate::snapshot().counter("metric.mt_counter"), Some(8000));
        crate::disable();
        crate::reset();
    }

    #[test]
    fn gauge_keeps_latest_value() {
        let _guard = test_lock::hold();
        crate::enable();
        crate::reset();
        static G: Gauge = Gauge::new("metric.gauge");
        assert_eq!(G.value(), None);
        G.set(1.25);
        G.set(-3.5);
        assert_eq!(G.value(), Some(-3.5));
        assert_eq!(crate::snapshot().gauge("metric.gauge"), Some(-3.5));
        crate::disable();
        crate::reset();
    }

    #[test]
    fn reset_zeroes_and_unregisters() {
        let _guard = test_lock::hold();
        crate::enable();
        crate::reset();
        static R: Counter = Counter::new("metric.reset_counter");
        R.add(7);
        assert!(R.is_registered());
        crate::reset();
        assert!(!R.is_registered(), "reset must unregister so stale zeros don't linger");
        assert_eq!(R.value(), 0);
        assert_eq!(crate::snapshot().counter("metric.reset_counter"), None);
        // The static re-registers on its next enabled record.
        R.add(2);
        assert_eq!(crate::snapshot().counter("metric.reset_counter"), Some(2));
        crate::disable();
        crate::reset();
    }
}
