//! Windowed timeline sampling: a run becomes a time series, not one number.
//!
//! A summary quantile hides *when* latency went bad: a saturation knee, a
//! cache warm-up, a queue excursion all average away. A [`Timeline`] slices
//! a run into fixed-width windows and accumulates, per window, a latency
//! [`HistoSnapshot`] (the request count, and the same fixed buckets as
//! [`crate::LogHistogram`], so per-window quantiles carry the same one-
//! bucket error bar), the cache-hit count, and the peak queue depth seen.
//! Closed windows render as JSONL `{"type":"timeline",...}` lines — the
//! shape `mosc-analyze` stream lints and the bench trajectory tooling read.
//!
//! Unlike the recorder-gated primitives, a `Timeline` is **explicitly
//! owned** (like [`crate::CounterCell`]): constructing one is the opt-in,
//! so recording is unconditional and the disabled-recorder fast path of the
//! process is unaffected — a process that never builds a timeline pays
//! nothing.
//!
//! Two clock styles:
//!
//! * [`Timeline::record_at`] / [`Timeline::depth_at`] take an explicit
//!   timestamp in seconds since the run started — fully deterministic, what
//!   the unit tests use.
//! * [`Timeline::record`] / [`Timeline::note_depth`] stamp against the
//!   timeline's own creation [`Instant`] — what `mosc-serve` uses.
//!
//! Windows close lazily when a later-window sample arrives; [`Timeline::
//! drain_closed`] hands closed windows to a writer incrementally and
//! [`Timeline::finish`] flushes the in-progress window at shutdown. Gaps
//! are preserved: up to [`MAX_GAP_WINDOWS`] empty windows are emitted
//! between two active ones so an idle spell shows as zeros instead of
//! silently compressing the time axis.

use crate::histo::HistoSnapshot;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Longest run of empty windows emitted to bridge an idle gap; beyond this
/// the timeline jumps (the window indices stay truthful, so a gap is still
/// visible as non-consecutive `window` values).
pub const MAX_GAP_WINDOWS: usize = 16;

/// One closed window of a [`Timeline`]: plain data, renderable as JSONL.
#[derive(Debug, Clone)]
pub struct TimelineWindow {
    /// 0-based window index since the timeline started.
    pub index: u64,
    /// Window start, seconds since the timeline started.
    pub start_s: f64,
    /// Window width, seconds.
    pub len_s: f64,
    /// Latency histogram of the samples completed in this window.
    pub histo: HistoSnapshot,
    /// Samples flagged as cache hits.
    pub hits: u64,
    /// Highest queue depth noted during the window (0 when never noted).
    pub queue_depth_peak: u64,
}

impl TimelineWindow {
    /// Completed samples in this window.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.histo.count
    }

    /// Completions per second over the window.
    #[must_use]
    pub fn req_per_s(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.histo.count as f64 / self.len_s.max(1e-12)
        }
    }

    /// Fraction of samples flagged as cache hits (0 while empty).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        if self.histo.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / self.histo.count as f64
            }
        }
    }

    /// Renders the window as one JSONL line (no trailing newline).
    /// Quantiles are reported in milliseconds, 0 while the window is empty.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let q = |p: f64| self.histo.quantile(p).map_or(0.0, |s| s * 1e3);
        let max_ms = if self.histo.count > 0 { self.histo.max * 1e3 } else { 0.0 };
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"type\":\"timeline\",\"window\":{},\"start_s\":{:?},\"len_s\":{:?},\
             \"count\":{},\"req_per_s\":{:?},\"hits\":{},\"cache_hit_rate\":{:?},\
             \"queue_depth_peak\":{},\"p50_ms\":{:?},\"p90_ms\":{:?},\"p99_ms\":{:?},\
             \"p999_ms\":{:?},\"max_ms\":{max_ms:?}}}",
            self.index,
            self.start_s,
            self.len_s,
            self.histo.count,
            self.req_per_s(),
            self.hits,
            self.cache_hit_rate(),
            self.queue_depth_peak,
            q(0.5),
            q(0.9),
            q(0.99),
            q(0.999),
        );
        out
    }
}

/// The in-progress window's accumulator.
struct Open {
    index: u64,
    histo: HistoSnapshot,
    hits: u64,
    queue_depth_peak: u64,
}

impl Open {
    fn new(index: u64) -> Self {
        Self { index, histo: HistoSnapshot::empty(), hits: 0, queue_depth_peak: 0 }
    }

    fn close(&self, window_s: f64) -> TimelineWindow {
        #[allow(clippy::cast_precision_loss)]
        TimelineWindow {
            index: self.index,
            start_s: self.index as f64 * window_s,
            len_s: window_s,
            histo: self.histo,
            hits: self.hits,
            queue_depth_peak: self.queue_depth_peak,
        }
    }
}

struct Inner {
    cur: Open,
    closed: Vec<TimelineWindow>,
}

/// A windowed run timeline (see the module docs). Thread-safe: samples from
/// many worker threads serialize on one internal mutex, which is fine at
/// the per-request cadence this measures.
pub struct Timeline {
    window_s: f64,
    start: Instant,
    inner: Mutex<Inner>,
}

impl Timeline {
    /// Creates a timeline with `window_s`-second windows.
    ///
    /// # Panics
    /// Panics unless `window_s` is finite and positive.
    #[must_use]
    pub fn new(window_s: f64) -> Self {
        assert!(window_s.is_finite() && window_s > 0.0, "window must be positive");
        Self {
            window_s,
            start: Instant::now(),
            inner: Mutex::new(Inner { cur: Open::new(0), closed: Vec::new() }),
        }
    }

    /// The configured window width in seconds.
    #[must_use]
    pub fn window_s(&self) -> f64 {
        self.window_s
    }

    /// Seconds elapsed since this timeline was created (the implicit clock
    /// behind [`record`](Self::record)).
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Advances `inner` to the window containing `t_s`, closing earlier
    /// windows (bridging gaps with up to [`MAX_GAP_WINDOWS`] empty ones).
    /// Samples timestamped before the current window clamp into it — a
    /// completion racing a window edge lands one window late at worst.
    fn advance(&self, inner: &mut Inner, t_s: f64) {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let idx = (t_s.max(0.0) / self.window_s).floor() as u64;
        while inner.cur.index < idx {
            let closed = inner.cur.close(self.window_s);
            let next = inner.cur.index + 1;
            // Jump over pathological idle gaps instead of materializing
            // thousands of zero windows.
            let gap_cap = closed.index + MAX_GAP_WINDOWS as u64;
            inner.closed.push(closed);
            inner.cur = Open::new(if idx > gap_cap { idx } else { next });
        }
    }

    /// Records one completed sample: `t_s` seconds since the run started,
    /// `latency_s` the sample's latency, `cache_hit` whether it was served
    /// from cache.
    pub fn record_at(&self, t_s: f64, latency_s: f64, cache_hit: bool) {
        if !latency_s.is_finite() || latency_s < 0.0 {
            return;
        }
        let mut inner = self.lock();
        self.advance(&mut inner, t_s);
        inner.cur.histo.record(latency_s);
        if cache_hit {
            inner.cur.hits += 1;
        }
    }

    /// Notes the instantaneous queue depth at `t_s`; windows report the
    /// peak of the depths noted inside them.
    pub fn depth_at(&self, t_s: f64, depth: u64) {
        let mut inner = self.lock();
        self.advance(&mut inner, t_s);
        inner.cur.queue_depth_peak = inner.cur.queue_depth_peak.max(depth);
    }

    /// [`record_at`](Self::record_at) against the timeline's own clock.
    pub fn record(&self, latency_s: f64, cache_hit: bool) {
        self.record_at(self.elapsed_s(), latency_s, cache_hit);
    }

    /// [`depth_at`](Self::depth_at) against the timeline's own clock.
    pub fn note_depth(&self, depth: u64) {
        self.depth_at(self.elapsed_s(), depth);
    }

    /// Takes every window closed so far (the in-progress window stays).
    /// A writer thread can call this periodically and append the lines.
    #[must_use]
    pub fn drain_closed(&self) -> Vec<TimelineWindow> {
        std::mem::take(&mut self.lock().closed)
    }

    /// Closes the in-progress window and returns everything not yet
    /// drained. The timeline stays usable; subsequent samples for the same
    /// wall-clock window open a fresh accumulator under the next index.
    #[must_use]
    pub fn finish(&self) -> Vec<TimelineWindow> {
        let mut inner = self.lock();
        let closed = inner.cur.close(self.window_s);
        inner.cur = Open::new(closed.index + 1);
        inner.closed.push(closed);
        std::mem::take(&mut inner.closed)
    }

    /// Renders windows as a JSONL document (one line per window).
    #[must_use]
    pub fn render_jsonl(windows: &[TimelineWindow]) -> String {
        let mut out = String::new();
        for w in windows {
            out.push_str(&w.to_json_line());
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Debug for Timeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timeline").field("window_s", &self.window_s).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_accumulate_and_close_deterministically() {
        let t = Timeline::new(1.0);
        t.record_at(0.1, 0.010, false);
        t.record_at(0.2, 0.020, true);
        t.depth_at(0.5, 7);
        t.record_at(1.3, 0.030, false); // closes window 0
        let closed = t.drain_closed();
        assert_eq!(closed.len(), 1);
        let w = &closed[0];
        assert_eq!((w.index, w.count(), w.hits, w.queue_depth_peak), (0, 2, 1, 7));
        assert!((w.start_s - 0.0).abs() < 1e-12 && (w.len_s - 1.0).abs() < 1e-12);
        assert!((w.cache_hit_rate() - 0.5).abs() < 1e-12);
        assert!((w.req_per_s() - 2.0).abs() < 1e-9);
        // Quantiles never under-report and stay clamped to the max.
        let p50 = w.histo.quantile(0.5).unwrap();
        assert!((0.010..=0.030).contains(&p50), "p50 {p50}");

        let rest = t.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!((rest[0].index, rest[0].count()), (1, 1));
    }

    #[test]
    fn gaps_emit_bounded_empty_windows() {
        let t = Timeline::new(1.0);
        t.record_at(0.5, 0.001, false);
        t.record_at(3.5, 0.001, false); // gap: windows 1 and 2 are empty
        let closed = t.drain_closed();
        assert_eq!(closed.iter().map(|w| w.index).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(closed[1].count(), 0);
        assert_eq!(closed[1].queue_depth_peak, 0);

        // A pathological gap jumps instead of materializing every window.
        let t = Timeline::new(1.0);
        t.record_at(0.5, 0.001, false);
        t.record_at(10_000.5, 0.001, false);
        let closed = t.drain_closed();
        assert!(closed.len() <= MAX_GAP_WINDOWS + 1, "emitted {} windows", closed.len());
        let rest = t.finish();
        assert_eq!(rest.last().unwrap().index, 10_000);
    }

    #[test]
    fn out_of_order_samples_clamp_into_the_current_window() {
        let t = Timeline::new(1.0);
        t.record_at(1.5, 0.001, false);
        t.record_at(0.2, 0.002, false); // late completion: folds into window 1
        let all = t.finish();
        let w1 = all.iter().find(|w| w.index == 1).unwrap();
        assert_eq!(w1.count(), 2);
    }

    #[test]
    fn json_line_is_well_formed_and_zeroes_empty_quantiles() {
        let t = Timeline::new(0.5);
        let all = t.finish(); // one empty window
        assert_eq!(all.len(), 1);
        let line = all[0].to_json_line();
        assert!(line.starts_with("{\"type\":\"timeline\",\"window\":0,"), "{line}");
        assert!(line.contains("\"count\":0"), "{line}");
        assert!(line.contains("\"p999_ms\":0.0"), "{line}");
        assert!(line.contains("\"max_ms\":0.0"), "{line}");
        assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
        let rendered = Timeline::render_jsonl(&all);
        assert_eq!(rendered.lines().count(), 1);
    }

    #[test]
    fn leading_empty_windows_are_emitted() {
        let t = Timeline::new(1.0);
        t.record_at(2.5, 0.001, false); // the run starts idle: 0 and 1 close empty
        let all = t.finish();
        assert_eq!(all.iter().map(|w| w.index).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!((all[0].count(), all[1].count(), all[2].count()), (0, 0, 1));
        assert!(all[0].start_s.abs() < 1e-12);
        assert!((all[0].req_per_s()).abs() < 1e-12);
    }

    #[test]
    fn trailing_empty_window_closes_at_finish() {
        let t = Timeline::new(1.0);
        t.record_at(0.5, 0.001, false);
        t.depth_at(2.7, 0); // the run goes quiet; the clock advance closes 0 and 1
        let all = t.finish();
        assert_eq!(all.iter().map(|w| w.index).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(all[2].count(), 0); // trailing idle window is present, empty
        let line = all[2].to_json_line();
        assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
    }

    #[test]
    fn boundary_exact_samples_open_the_next_window() {
        let t = Timeline::new(0.5);
        t.record_at(0.0, 0.001, false);
        t.record_at(0.5, 0.002, false); // exactly on the edge: first instant of window 1
        t.record_at(1.0, 0.003, false);
        let all = t.finish();
        let counts: Vec<(u64, u64)> = all.iter().map(|w| (w.index, w.count())).collect();
        assert_eq!(counts, vec![(0, 1), (1, 1), (2, 1)]);
        assert!((all[1].start_s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn backwards_clocks_never_panic_or_lose_samples() {
        mosc_testutil::propcheck("timeline monotonic-clock regressions", |rng| {
            let window_s = rng.gen_range(0.01..=1.0);
            let t = Timeline::new(window_s);
            let n = rng.gen_range(1..40usize);
            let mut clock = 0.0f64;
            let mut recorded = 0u64;
            for _ in 0..n {
                // A wobbling wall clock: mostly forward, sometimes a
                // regression, occasionally a long stall. Stamps saturate at
                // zero — a monotonic source never hands out negative time.
                let delta = match rng.gen_range(0..10usize) {
                    0..=5 => rng.gen_range(0.0..0.2),
                    6 | 7 => -rng.gen_range(0.0..0.3),
                    _ => rng.gen_range(1.0..40.0),
                };
                clock = (clock + delta).max(0.0);
                if rng.gen_range(0..8usize) == 0 {
                    t.depth_at(clock, rng.gen_range(0..32usize) as u64);
                } else {
                    t.record_at(clock, rng.gen_range(0.0..0.1), rng.gen_range(0..2usize) == 1);
                    recorded += 1;
                }
            }
            let all = t.finish();
            // Backdated samples clamp forward, so none are ever dropped...
            assert_eq!(all.iter().map(TimelineWindow::count).sum::<u64>(), recorded);
            // ...and the window sequence never runs backwards.
            for pair in all.windows(2) {
                assert!(pair[0].index < pair[1].index, "indices must stay strictly increasing");
            }
            for w in &all {
                assert!(w.count() == 0 || w.histo.max.is_finite());
                let line = w.to_json_line();
                assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
            }
        });
    }

    #[test]
    fn closed_window_histo_equals_a_log_histogram_snapshot() {
        let _guard = crate::test_lock::hold();
        crate::enable();
        let t = Timeline::new(1.0);
        let h = crate::LogHistogram::new("timeline.fold");
        for v in [3.2e-4, 0.0107, 1e-7, 0.5, 0.0107, 2.5e3, 0.049, 1e-6] {
            t.record_at(0.25, v, false);
            h.record(v);
        }
        crate::disable();
        let (window, direct) = (t.finish()[0].histo, h.snapshot());
        assert_eq!(window.counts, direct.counts);
        assert_eq!(window.count, direct.count);
        assert_eq!(window.sum.to_bits(), direct.sum.to_bits());
        assert_eq!(window.min.to_bits(), direct.min.to_bits());
        assert_eq!(window.max.to_bits(), direct.max.to_bits());
    }

    #[test]
    fn invalid_latencies_are_dropped() {
        let t = Timeline::new(1.0);
        t.record_at(0.1, f64::NAN, false);
        t.record_at(0.1, -1.0, false);
        t.record_at(0.1, f64::INFINITY, false);
        assert_eq!(t.finish()[0].count(), 0);
    }
}
