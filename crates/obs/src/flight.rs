//! A flight recorder: a fixed-size, lock-light ring buffer of compact
//! span/event entries that is cheap enough to leave on in production and is
//! snapshotted *after* something went wrong — the post-mortem counterpart
//! to the live span tree in [`crate::SpanCapture`].
//!
//! The ring records continuously and forgets continuously: every entry is
//! stamped with a global sequence number, the newest `capacity` entries are
//! retained, and everything older is implicitly dropped (the snapshot
//! reports how many). Recording never allocates, never blocks, and never
//! waits on a reader: a writer claims a slot with one `fetch_add` and
//! publishes it with two release stores. Readers validate each slot's
//! sequence stamp before and after copying the payload, so an entry being
//! overwritten mid-read is detected and counted as *torn* rather than
//! surfacing corrupt data.
//!
//! While disabled (the initial state), [`FlightRecorder::record`] is one
//! relaxed load and an early return — the same inertness contract as the
//! global recorder, pinned by `disabled_flight_recorder_is_inert`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Default ring capacity: enough for a few thousand request lifecycles of
/// history at four entries per request.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// What one flight entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// A request line arrived; `value` is the connection id.
    Recv = 1,
    /// A job entered the worker queue; `value` is the queue depth after.
    Enqueue = 2,
    /// A worker picked the job up; `value` is the queue wait in µs.
    Dequeue = 3,
    /// The response was recorded; `value` is the total latency in µs.
    Done = 4,
    /// The bounded queue was full and the request was shed; `value` is the
    /// queue capacity.
    Overload = 5,
    /// A per-request deadline expired; `value` is the overshoot in µs.
    Deadline = 6,
    /// A request finished over the slow threshold; `value` is the total
    /// latency in µs.
    Slow = 7,
    /// A worker panicked while processing; `value` is the connection id.
    Panic = 8,
}

impl FlightKind {
    /// The JSONL spelling of this kind.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Recv => "recv",
            Self::Enqueue => "enqueue",
            Self::Dequeue => "dequeue",
            Self::Done => "done",
            Self::Overload => "overload",
            Self::Deadline => "deadline",
            Self::Slow => "slow",
            Self::Panic => "panic",
        }
    }

    fn from_u64(v: u64) -> Option<Self> {
        match v {
            1 => Some(Self::Recv),
            2 => Some(Self::Enqueue),
            3 => Some(Self::Dequeue),
            4 => Some(Self::Done),
            5 => Some(Self::Overload),
            6 => Some(Self::Deadline),
            7 => Some(Self::Slow),
            8 => Some(Self::Panic),
            _ => None,
        }
    }
}

/// One ring slot: the sequence stamp plus six payload words, all atomics so
/// the whole structure stays `unsafe`-free. `seq` holds `claim + 1` once
/// the payload is published and `0` while a writer is mid-flight, so a
/// reader can tell "consistent", "being rewritten" and "never written"
/// apart without a lock.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    t_us: AtomicU64,
    kind: AtomicU64,
    trace_hi: AtomicU64,
    trace_lo: AtomicU64,
    span_id: AtomicU64,
    value: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Self {
            seq: AtomicU64::new(0),
            t_us: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            trace_hi: AtomicU64::new(0),
            trace_lo: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            value: AtomicU64::new(0),
        }
    }
}

/// The fixed-size ring. Owned (not a `static`): the serve daemon creates
/// one per process and shares it behind its `Arc<Shared>`.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
    enabled: AtomicBool,
    start: Instant,
}

impl FlightRecorder {
    /// Builds a disabled recorder whose capacity is `capacity` rounded up
    /// to a power of two (at least 8). Allocation happens here, once —
    /// never on the record path.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        Self {
            slots: (0..cap).map(|_| Slot::empty()).collect(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            enabled: AtomicBool::new(false),
            start: Instant::now(),
        }
    }

    /// The ring capacity (a power of two).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Arms the recorder.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Disarms the recorder; entries already in the ring stay readable.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// `true` while the recorder is armed.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records one entry. Lock-free: one `fetch_add` to claim a slot, then
    /// plain stores; no allocation. While disabled this is one relaxed
    /// load and an early return.
    pub fn record(&self, kind: FlightKind, trace_id: u128, span_id: u64, value: u64) {
        if !self.is_enabled() {
            return;
        }
        #[allow(clippy::cast_possible_truncation)]
        let t_us = self.start.elapsed().as_micros() as u64;
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        #[allow(clippy::cast_possible_truncation)]
        let slot = &self.slots[(seq & self.mask) as usize];
        // Publish protocol: mark the slot busy (seq = 0), write the
        // payload, then publish `seq + 1`. A reader that sees the right
        // stamp both before and after its payload copy read a consistent
        // entry; every interleaving with this writer changes the stamp.
        slot.seq.store(0, Ordering::Release);
        slot.t_us.store(t_us, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        #[allow(clippy::cast_possible_truncation)]
        slot.trace_hi.store((trace_id >> 64) as u64, Ordering::Relaxed);
        #[allow(clippy::cast_possible_truncation)]
        slot.trace_lo.store(trace_id as u64, Ordering::Relaxed);
        slot.span_id.store(span_id, Ordering::Relaxed);
        slot.value.store(value, Ordering::Relaxed);
        slot.seq.store(seq + 1, Ordering::Release);
    }

    /// Copies the ring's retained window into plain data, oldest first.
    /// Entries being overwritten while the copy runs are skipped and
    /// counted in [`FlightSnapshot::torn`]; entries already pushed out of
    /// the window are counted in [`FlightSnapshot::dropped`].
    #[must_use]
    pub fn snapshot(&self) -> FlightSnapshot {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let lo = head.saturating_sub(cap);
        let mut entries = Vec::with_capacity((head - lo) as usize);
        let mut torn = 0u64;
        for seq in lo..head {
            #[allow(clippy::cast_possible_truncation)]
            let slot = &self.slots[(seq & self.mask) as usize];
            if slot.seq.load(Ordering::Acquire) != seq + 1 {
                torn += 1;
                continue;
            }
            let entry = FlightEntry {
                seq,
                t_us: slot.t_us.load(Ordering::Relaxed),
                kind: FlightKind::from_u64(slot.kind.load(Ordering::Relaxed)),
                trace_id: (u128::from(slot.trace_hi.load(Ordering::Relaxed)) << 64)
                    | u128::from(slot.trace_lo.load(Ordering::Relaxed)),
                span_id: slot.span_id.load(Ordering::Relaxed),
                value: slot.value.load(Ordering::Relaxed),
            };
            if slot.seq.load(Ordering::Acquire) != seq + 1 {
                torn += 1;
                continue;
            }
            if entry.kind.is_none() {
                torn += 1;
                continue;
            }
            entries.push(entry);
        }
        FlightSnapshot { head, capacity: self.slots.len(), dropped: lo, torn, entries }
    }
}

/// One consistent entry copied out of the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEntry {
    /// Global sequence number (monotone across the whole run).
    pub seq: u64,
    /// Microseconds since the recorder was built.
    pub t_us: u64,
    /// What happened; `None` never escapes [`FlightRecorder::snapshot`]
    /// (unreadable kinds count as torn).
    pub kind: Option<FlightKind>,
    /// The distributed trace this entry belongs to (0 for untraced work).
    pub trace_id: u128,
    /// The span within the trace (0 for untraced work).
    pub span_id: u64,
    /// Kind-specific payload (see [`FlightKind`]).
    pub value: u64,
}

/// A frozen copy of the ring plus its drop accounting — the payload of a
/// `{"type":"flight_dump"}` artifact line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightSnapshot {
    /// Total entries ever claimed (the next sequence number).
    pub head: u64,
    /// The ring capacity at snapshot time.
    pub capacity: usize,
    /// Entries lost to ring overwrite before this snapshot: `max(0, head -
    /// capacity)`.
    pub dropped: u64,
    /// Entries in the retained window that could not be read consistently
    /// (mid-rewrite during the copy).
    pub torn: u64,
    /// The consistent entries, oldest first, sequence strictly increasing.
    pub entries: Vec<FlightEntry>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_flight_recorder_is_inert() {
        // The overhead guard: a disabled recorder must take the early-out
        // path — no slot claims, no timestamps, nothing for a snapshot to
        // see. Asserted structurally, like `disabled_recorder_is_inert`.
        let r = FlightRecorder::new(64);
        assert!(!r.is_enabled(), "flight recorders start disabled");
        for i in 0..100 {
            r.record(FlightKind::Recv, 1, i, i);
        }
        let s = r.snapshot();
        assert_eq!(s.head, 0, "disabled record must not claim slots");
        assert_eq!(s.dropped, 0);
        assert_eq!(s.torn, 0);
        assert!(s.entries.is_empty());
    }

    #[test]
    fn ring_retains_newest_and_counts_dropped() {
        let r = FlightRecorder::new(8);
        r.enable();
        assert_eq!(r.capacity(), 8);
        for i in 0..20u64 {
            r.record(FlightKind::Done, u128::from(i) + 1, i, i * 10);
        }
        let s = r.snapshot();
        assert_eq!(s.head, 20);
        assert_eq!(s.dropped, 12, "everything older than the window is dropped");
        assert_eq!(s.torn, 0);
        assert_eq!(s.entries.len(), 8);
        // Oldest first, strictly increasing seq, newest entry is the last
        // record call.
        let seqs: Vec<u64> = s.entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
        let last = s.entries.last().unwrap();
        assert_eq!(last.kind, Some(FlightKind::Done));
        assert_eq!(last.trace_id, 20);
        assert_eq!(last.span_id, 19);
        assert_eq!(last.value, 190);
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(FlightRecorder::new(0).capacity(), 8);
        assert_eq!(FlightRecorder::new(100).capacity(), 128);
        assert_eq!(FlightRecorder::new(4096).capacity(), 4096);
    }

    #[test]
    fn concurrent_writers_never_produce_inconsistent_entries() {
        use std::sync::Arc;
        let r = Arc::new(FlightRecorder::new(64));
        r.enable();
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        // Per-writer invariant: value == span_id * 3, so a
                        // torn read that slipped through would be visible.
                        let span = w * 1_000_000 + i;
                        r.record(FlightKind::Enqueue, u128::from(w) + 1, span, span * 3);
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            let s = r.snapshot();
            let mut prev = None;
            for e in &s.entries {
                assert!(prev.is_none_or(|p| e.seq > p), "seq must strictly increase");
                prev = Some(e.seq);
                assert_eq!(e.value, e.span_id * 3, "entry payload must be consistent");
            }
            assert!(s.entries.len() as u64 + s.torn <= s.head.min(64));
        }
        for w in writers {
            w.join().unwrap();
        }
        let s = r.snapshot();
        assert_eq!(s.head, 8000);
        assert_eq!(s.torn, 0, "quiescent ring has no torn entries");
        assert_eq!(s.entries.len(), 64);
    }
}
