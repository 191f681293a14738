//! Rolling-window rate gauges.
//!
//! A [`RateWindow`] answers "how many per second, lately?" — the req/s
//! figure a live `stats --watch` view or a Prometheus scrape wants —
//! without storing timestamps. It keeps a small ring of per-second slots;
//! [`RateWindow::tick`] bumps the slot for the current wall-clock second
//! (lazily reclaiming slots that have aged out of the ring), and
//! [`RateWindow::per_sec`] averages over the *completed* seconds still in
//! the ring, excluding the second in progress so a fresh scrape never
//! under-reports a half-elapsed second.
//!
//! Accuracy note: slot reclamation is a benign race — two threads entering
//! a brand-new second can interleave the stamp swap and the zeroing so a
//! handful of ticks from the slot's previous life survive, and `per_sec`
//! reads the ring without stopping writers. This is a *gauge* feeding
//! dashboards, not an invariant; the error is bounded by one slot and
//! vanishes in steady state. Ticks are dropped while the recorder is
//! disabled, and `per_sec` then reads 0.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Ring size: rates average over up to this many completed seconds.
const SLOTS: u64 = 16;

/// One per-second slot: which second it counts for, and the count.
#[derive(Debug)]
struct Slot {
    /// The 1-based second index this slot currently holds (0 = never used).
    stamp: AtomicU64,
    count: AtomicU64,
}

/// A lock-free events-per-second gauge over a rolling ~15 s window.
#[derive(Debug)]
pub struct RateWindow {
    /// First-tick anchor; seconds are measured from here.
    epoch: OnceLock<Instant>,
    slots: [Slot; SLOTS as usize],
}

impl Default for RateWindow {
    fn default() -> Self {
        Self::new()
    }
}

impl RateWindow {
    /// An empty window. `const`, so it can initialise a `static` or field.
    #[must_use]
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY: Slot = Slot { stamp: AtomicU64::new(0), count: AtomicU64::new(0) };
        Self { epoch: OnceLock::new(), slots: [EMPTY; SLOTS as usize] }
    }

    /// The 1-based index of the current second (0 is reserved for "slot
    /// never used").
    fn current_second(&self) -> u64 {
        let epoch = *self.epoch.get_or_init(Instant::now);
        epoch.elapsed().as_secs() + 1
    }

    /// Counts `n` events in the current second. No-op while the recorder is
    /// disabled.
    pub fn tick(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        let sec = self.current_second();
        let slot = &self.slots[(sec % SLOTS) as usize];
        let seen = slot.stamp.load(Ordering::Relaxed);
        if seen != sec
            && slot.stamp.compare_exchange(seen, sec, Ordering::Relaxed, Ordering::Relaxed).is_ok()
        {
            slot.count.store(0, Ordering::Relaxed);
        }
        slot.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Mean events/second over the completed seconds still inside the ring
    /// (at most 15 of them; the in-progress second is excluded).
    /// 0 until one full second has elapsed past the first tick.
    #[must_use]
    pub fn per_sec(&self) -> f64 {
        let Some(epoch) = self.epoch.get() else { return 0.0 };
        let sec = epoch.elapsed().as_secs() + 1;
        let completed = (sec - 1).min(SLOTS - 1);
        if completed == 0 {
            return 0.0;
        }
        let oldest = sec - completed;
        let total: u64 = self
            .slots
            .iter()
            .filter(|s| {
                let stamp = s.stamp.load(Ordering::Relaxed);
                stamp >= oldest && stamp < sec
            })
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum();
        #[allow(clippy::cast_precision_loss)]
        {
            total as f64 / completed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn rate_counts_completed_seconds_only() {
        let _guard = test_lock::hold();
        crate::enable();
        let w = RateWindow::new();
        w.tick(5); // anchors the epoch; second 1 is in progress
        assert!(w.per_sec().abs() < f64::EPSILON, "in-progress second must not count");
        // Force the clock forward by waiting out the first second.
        std::thread::sleep(std::time::Duration::from_millis(1050));
        let r = w.per_sec();
        assert!(r > 0.0, "completed second with 5 ticks must show a rate, got {r}");
        assert!(r <= 5.0 + f64::EPSILON, "rate cannot exceed ticks recorded, got {r}");
        crate::disable();
    }

    #[test]
    fn disabled_window_stays_silent() {
        let _guard = test_lock::hold();
        crate::disable();
        let w = RateWindow::new();
        w.tick(100);
        assert!(w.per_sec().abs() < f64::EPSILON);
    }
}
