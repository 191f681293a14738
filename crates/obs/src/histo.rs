//! Log-bucketed latency histograms with quantile estimation.
//!
//! A [`LogHistogram`] keeps count/sum/min/max plus a fixed set of
//! logarithmically spaced buckets (eight per decade from 1 µs to 1000 s,
//! plus an underflow and an overflow bucket), so p50/p90/p99 estimates carry
//! a bounded *relative* error of one bucket ratio (10^(1/8) ≈ 1.33×) across
//! nine decades of latency, with `const` construction and lock-free
//! relaxed-atomic recording.
//!
//! [`LogHistogram`] is a standalone primitive: unlike [`crate::Counter`] it
//! does not register into the global telemetry snapshot, because its main
//! consumer (`mosc-serve`) owns one histogram per request phase per op and
//! renders them itself (Prometheus text exposition, the `stats` wire op).
//! It can still be declared as a `static` when a process-global histogram is
//! wanted. Recording is gated on the global recorder like every other
//! primitive: while [`crate::enabled`] is false, [`LogHistogram::record`] is
//! one relaxed load and an early return.
//!
//! [`HistoSnapshot`] freezes a histogram into plain data that can be
//! **merged** with other snapshots (same fixed layout, so merging is
//! element-wise) — that is how per-op histograms fold into one service-wide
//! quantile — and queried for [`HistoSnapshot::quantile`]. A snapshot also
//! accumulates directly through [`HistoSnapshot::record`], which is how a
//! [`crate::Timeline`] window fills.

use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets per decade: relative resolution 10^(1/8) ≈ 1.33×.
const PER_DECADE: usize = 8;
/// Covered decades: `[1e-6, 1e3)` seconds.
const DECADES: usize = 9;
/// Smallest finite bucket boundary (values at or below land in bucket 0).
const MIN_BOUND: f64 = 1e-6;
/// Total bucket count: underflow + finite buckets + overflow.
pub const LOG_BUCKETS: usize = DECADES * PER_DECADE + 2;

/// Upper bound of bucket `i` (inclusive). Bucket 0 is `(-inf, 1e-6]`, the
/// last bucket is `(1e3, +inf)` and reports `f64::INFINITY`.
#[must_use]
pub fn bucket_upper(i: usize) -> f64 {
    if i == 0 {
        MIN_BOUND
    } else if i >= LOG_BUCKETS - 1 {
        f64::INFINITY
    } else {
        #[allow(clippy::cast_precision_loss)]
        let exp = i as f64 / PER_DECADE as f64;
        MIN_BOUND * 10f64.powf(exp)
    }
}

/// The bucket index a sample falls into.
pub(crate) fn bucket_index(v: f64) -> usize {
    if v <= MIN_BOUND {
        return 0;
    }
    let exp = (v / MIN_BOUND).log10() * PER_DECADE as f64;
    // `ceil` puts a value exactly on a boundary into the bucket it bounds
    // (upper bounds are inclusive); float fuzz at boundaries only ever moves
    // a sample to the neighbouring bucket, which stays within the error bar.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = exp.ceil().max(1.0) as usize;
    idx.min(LOG_BUCKETS - 1)
}

/// Maps an `f64` to a `u64` whose unsigned order matches the float order
/// (standard sign-flip trick; NaN samples are rejected before this), so
/// plain `fetch_min`/`fetch_max` maintain min/max without CAS loops.
fn f64_to_ordered(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// Inverse of [`f64_to_ordered`].
fn ordered_to_f64(key: u64) -> f64 {
    if key >> 63 == 1 {
        f64::from_bits(key & !(1 << 63))
    } else {
        f64::from_bits(!key)
    }
}

/// The most recent `(trace id, value)` sample retained for one bucket —
/// the `OpenMetrics` exemplar concept: a concrete request you can open when a
/// bucket's count alone ("p99 is 40 ms") is not actionable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// The distributed trace id of the exemplified sample (never 0).
    pub trace_id: u128,
    /// The sample value itself.
    pub value: f64,
}

/// One bucket's exemplar slot: a tiny seqlock over three payload words, so
/// concurrent stamps and reads stay `unsafe`-free and lock-free. `seq` is
/// even when the payload is consistent (0 = never written) and odd while a
/// writer is mid-stamp; a concurrent writer simply drops its stamp —
/// exemplars are "most recent", not "every".
#[derive(Debug)]
struct ExemplarSlot {
    seq: AtomicU64,
    trace_hi: AtomicU64,
    trace_lo: AtomicU64,
    value_bits: AtomicU64,
}

impl ExemplarSlot {
    const fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            trace_hi: AtomicU64::new(0),
            trace_lo: AtomicU64::new(0),
            value_bits: AtomicU64::new(0),
        }
    }

    fn stamp(&self, trace_id: u128, value: f64) {
        let s = self.seq.load(Ordering::Relaxed);
        if s & 1 == 1 {
            return;
        }
        if self.seq.compare_exchange(s, s + 1, Ordering::Acquire, Ordering::Relaxed).is_err() {
            return;
        }
        #[allow(clippy::cast_possible_truncation)]
        self.trace_hi.store((trace_id >> 64) as u64, Ordering::Relaxed);
        #[allow(clippy::cast_possible_truncation)]
        self.trace_lo.store(trace_id as u64, Ordering::Relaxed);
        self.value_bits.store(value.to_bits(), Ordering::Relaxed);
        self.seq.store(s + 2, Ordering::Release);
    }

    fn load(&self) -> Option<Exemplar> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 & 1 == 1 {
            return None;
        }
        let trace_id = (u128::from(self.trace_hi.load(Ordering::Relaxed)) << 64)
            | u128::from(self.trace_lo.load(Ordering::Relaxed));
        let value = f64::from_bits(self.value_bits.load(Ordering::Relaxed));
        if self.seq.load(Ordering::Acquire) != s1 {
            return None;
        }
        Some(Exemplar { trace_id, value })
    }
}

/// A fixed-layout, log-bucketed histogram. `const`-constructible, so it can
/// be a `static` or an owned struct field; recording is lock-free and inert
/// while the recorder is disabled.
#[derive(Debug)]
pub struct LogHistogram {
    name: &'static str,
    counts: [AtomicU64; LOG_BUCKETS],
    /// Sum of samples, `f64` bits updated through a CAS loop.
    sum_bits: AtomicU64,
    /// Min/max as ordered keys (see [`f64_to_ordered`]).
    min_key: AtomicU64,
    max_key: AtomicU64,
    /// Per-bucket most-recent exemplars (stamped only by
    /// [`Self::record_traced`] with a nonzero trace id).
    exemplars: [ExemplarSlot; LOG_BUCKETS],
}

impl LogHistogram {
    /// Declares a histogram. `const`, so it can initialise a `static` or a
    /// struct field without allocation.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY: ExemplarSlot = ExemplarSlot::new();
        Self {
            name,
            counts: [ZERO; LOG_BUCKETS],
            sum_bits: AtomicU64::new(0),
            min_key: AtomicU64::new(u64::MAX),
            max_key: AtomicU64::new(0),
            exemplars: [EMPTY; LOG_BUCKETS],
        }
    }

    /// The histogram's name, e.g. `"serve.latency.ao.total"`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one sample (seconds, or any positive quantity). NaN samples
    /// are dropped. No-op while the recorder is disabled.
    pub fn record(&self, v: f64) {
        self.record_traced(v, 0);
    }

    /// Records one sample and, when `trace_id` is nonzero, stamps it as the
    /// bucket's most-recent exemplar. Same gating as [`Self::record`].
    pub fn record_traced(&self, v: f64, trace_id: u128) {
        if !crate::enabled() || v.is_nan() {
            return;
        }
        let idx = bucket_index(v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        if trace_id != 0 {
            self.exemplars[idx].stamp(trace_id, v);
        }
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        let key = f64_to_ordered(v);
        self.min_key.fetch_min(key, Ordering::Relaxed);
        self.max_key.fetch_max(key, Ordering::Relaxed);
    }

    /// Freezes the current state into a mergeable, queryable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> HistoSnapshot {
        let mut counts = [0u64; LOG_BUCKETS];
        let mut total = 0u64;
        for (slot, c) in counts.iter_mut().zip(&self.counts) {
            *slot = c.load(Ordering::Relaxed);
            total += *slot;
        }
        HistoSnapshot {
            counts,
            count: total,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: ordered_to_f64(self.min_key.load(Ordering::Relaxed)),
            max: ordered_to_f64(self.max_key.load(Ordering::Relaxed)),
        }
    }

    /// `true` when no sample has ever been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|c| c.load(Ordering::Relaxed) == 0)
    }

    /// The most-recent exemplar of bucket `i`, when one was ever stamped.
    #[must_use]
    pub fn exemplar(&self, i: usize) -> Option<Exemplar> {
        self.exemplars.get(i).and_then(ExemplarSlot::load)
    }

    /// Every stamped exemplar as `(bucket index, exemplar)`, ascending.
    /// Separate from [`HistoSnapshot`] on purpose: snapshots are `Copy`
    /// plain data that merge element-wise, while exemplars are per-instance
    /// pointers into a trace store and do not merge.
    #[must_use]
    pub fn exemplars(&self) -> Vec<(usize, Exemplar)> {
        (0..LOG_BUCKETS).filter_map(|i| self.exemplar(i).map(|e| (i, e))).collect()
    }
}

/// A frozen [`LogHistogram`]: plain data, mergeable with other snapshots of
/// the same (fixed) layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistoSnapshot {
    /// Per-bucket sample counts (see [`bucket_upper`] for the boundaries).
    pub counts: [u64; LOG_BUCKETS],
    /// Total recorded samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (meaningless while `count == 0`).
    pub min: f64,
    /// Largest sample (meaningless while `count == 0`).
    pub max: f64,
}

impl Default for HistoSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistoSnapshot {
    /// A snapshot with no samples — the identity element of [`merge`].
    ///
    /// [`merge`]: Self::merge
    #[must_use]
    pub fn empty() -> Self {
        Self {
            counts: [0; LOG_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample into the same bucket, in the same summation order,
    /// as [`LogHistogram::record`] would. Ungated and unfiltered: the caller
    /// drops NaN samples first.
    pub fn record(&mut self, v: f64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self` bucket-by-bucket. Snapshots share one fixed
    /// layout, so merging loses nothing: quantiles of the merge equal
    /// quantiles of the concatenated sample streams (up to bucket width).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Mean sample value (0 while empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum / self.count as f64
            }
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the
    /// bucket holding the rank-`ceil(q·count)` sample, clamped to the
    /// observed maximum. The estimate never under-reports: the true quantile
    /// `x` satisfies `x <= estimate <= x · 10^(1/8)` for samples inside the
    /// bucketed range (below 1 µs the error is absolute, bounded by 1 µs).
    /// Returns `None` while empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Cumulative bucket counts paired with their inclusive upper bounds —
    /// the exact shape of a Prometheus histogram exposition (`le` labels).
    /// The final entry is `(+inf, count)`.
    #[must_use]
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(LOG_BUCKETS);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            out.push((bucket_upper(i), cum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn bucket_bounds_are_monotone_and_cover() {
        let mut prev = 0.0;
        for i in 0..LOG_BUCKETS - 1 {
            let b = bucket_upper(i);
            assert!(b > prev, "bucket {i} bound {b} <= {prev}");
            prev = b;
        }
        assert!(bucket_upper(LOG_BUCKETS - 1).is_infinite());
        // Every positive float lands in exactly one bucket whose bound
        // covers it.
        for v in [1e-9, 1e-6, 3.2e-4, 0.5, 1.0, 999.0, 1e4] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i), "{v} above its bucket bound");
            if i > 0 {
                assert!(v > bucket_upper(i - 1), "{v} below its bucket's lower bound");
            }
        }
    }

    #[test]
    fn ordered_key_roundtrip() {
        for v in [-1e300, -1.0, -0.0, 0.0, 1.0, 1e300] {
            assert_eq!(ordered_to_f64(f64_to_ordered(v)), v);
        }
        assert!(f64_to_ordered(-1.0) < f64_to_ordered(0.0));
        assert!(f64_to_ordered(0.0) < f64_to_ordered(1.0));
    }

    #[test]
    fn quantiles_track_recorded_samples() {
        let _guard = test_lock::hold();
        crate::enable();
        let h = LogHistogram::new("histo.quantiles");
        for i in 1..=100 {
            h.record(f64::from(i) * 1e-3); // 1 ms .. 100 ms
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        let ratio = 10f64.powf(1.0 / 8.0);
        for (q, exact) in [(0.5, 0.050), (0.9, 0.090), (0.99, 0.099), (1.0, 0.100)] {
            let est = s.quantile(q).unwrap();
            assert!(est >= exact - 1e-12, "q{q}: {est} under-reports {exact}");
            assert!(est <= exact * ratio + 1e-12, "q{q}: {est} over-reports {exact}");
        }
        assert!(s.quantile(1.0).unwrap() <= s.max, "q1.0 is clamped to the observed max");
        crate::disable();
    }

    #[test]
    fn merge_equals_concatenation() {
        let _guard = test_lock::hold();
        crate::enable();
        let a = LogHistogram::new("histo.merge_a");
        let b = LogHistogram::new("histo.merge_b");
        let all = LogHistogram::new("histo.merge_all");
        for i in 1..=40 {
            let v = f64::from(i) * 2.5e-4;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let direct = all.snapshot();
        assert_eq!(merged.counts, direct.counts);
        assert_eq!(merged.count, direct.count);
        assert!((merged.sum - direct.sum).abs() < 1e-12);
        assert_eq!(merged.min, direct.min);
        assert_eq!(merged.max, direct.max);
        crate::disable();
    }

    #[test]
    fn cumulative_is_monotone_and_ends_at_count() {
        let _guard = test_lock::hold();
        crate::enable();
        let h = LogHistogram::new("histo.cum");
        for v in [1e-5, 1e-4, 1e-4, 0.3, 2000.0] {
            h.record(v);
        }
        let s = h.snapshot();
        let cum = s.cumulative();
        assert_eq!(cum.len(), LOG_BUCKETS);
        let mut prev = 0;
        for &(_, c) in &cum {
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(cum.last().unwrap().1, s.count);
        crate::disable();
    }

    #[test]
    fn disabled_histogram_records_nothing() {
        let _guard = test_lock::hold();
        crate::disable();
        let h = LogHistogram::new("histo.inert");
        h.record(0.5);
        h.record_traced(0.5, 42);
        assert!(h.is_empty());
        assert_eq!(h.snapshot().count, 0);
        assert_eq!(h.snapshot().quantile(0.5), None);
        assert!(h.exemplars().is_empty(), "disabled record_traced must not stamp exemplars");
    }

    #[test]
    fn exemplars_keep_the_most_recent_traced_sample_per_bucket() {
        let _guard = test_lock::hold();
        crate::enable();
        let h = LogHistogram::new("histo.exemplars");
        h.record(0.009); // untraced: counts, but no exemplar
        assert!(h.exemplars().is_empty());
        assert_eq!(bucket_index(0.008), bucket_index(0.009));
        h.record_traced(0.008, 0xaaaa);
        h.record_traced(0.009, 0xbbbb); // same bucket: replaces
        h.record_traced(5.0, 0xcccc); // different bucket
        h.record_traced(5.0, 0); // zero trace id: counts, no stamp
        let ex = h.exemplars();
        assert_eq!(ex.len(), 2);
        let (i_fast, fast) = ex[0];
        let (i_slow, slow) = ex[1];
        assert!(i_fast < i_slow);
        assert_eq!(fast.trace_id, 0xbbbb, "newest stamp wins within a bucket");
        assert!((fast.value - 0.009).abs() < 1e-12);
        assert_eq!(slow.trace_id, 0xcccc);
        assert_eq!(h.exemplar(i_slow), Some(slow));
        assert_eq!(h.exemplar(i_slow + 1), None);
        // Counts are unaffected by tracing: five samples total.
        assert_eq!(h.snapshot().count, 5);
        crate::disable();
    }
}
