//! Request-scoped span capture.
//!
//! The global span aggregate answers "where does this *process* spend
//! time"; a server also needs "what did *this request* do" — the solver
//! span tree of one queued job, which runs on a worker thread far from the
//! connection that accepted it.
//!
//! A [`SpanCapture`] is a small shared handle created at request ingress
//! and handed (via its `Clone`) to whichever thread executes the work. The
//! worker wraps the work in [`SpanCapture::observe`]; while the closure
//! runs, a thread-local capture slot points at the capture, and when a
//! **root span** closes on that thread the completed thread tree is merged
//! into the capture *as well as* into the global aggregate.
//!
//! Captures nest: `observe` saves and restores any previously installed
//! slot, so an observed region inside an observed region attributes to the
//! inner capture only. The capture is **thread-local by design** — work
//! spawned onto other scoped threads (EXS's partitions) merges into the
//! global aggregate but not into the capture (those threads have no
//! capture slot); the root `*.solve` span always runs on the observed
//! thread, so request attribution keeps the full call-path skeleton.
//! Kernel-counter attribution must see those threads too, so it is not
//! captured here: callers diff the global counters instead
//! (`mosc_core::KernelDelta`).
//!
//! While the recorder is disabled, [`SpanCapture::observe`] runs the
//! closure directly — no thread-local writes, no locks — and snapshots are
//! empty.

use crate::report::SpanStats;
use crate::span::TreeState;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};

thread_local! {
    /// The capture slot: set while a thread is inside `observe`.
    static CAPTURE: RefCell<Option<Arc<Mutex<TreeState>>>> = const { RefCell::new(None) };
}

/// A shareable handle that collects the span trees completed inside
/// [`SpanCapture::observe`] calls, across threads.
#[derive(Clone, Default)]
pub struct SpanCapture {
    tree: Arc<Mutex<TreeState>>,
}

impl std::fmt::Debug for SpanCapture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanCapture").finish_non_exhaustive()
    }
}

impl SpanCapture {
    /// An empty capture, ready to observe work.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with this capture installed as the thread's capture target:
    /// root span trees completing on `f`'s thread during `f` accumulate into
    /// the capture. Restores any previously installed capture on exit
    /// (captures nest); panics in `f` unwind past the restore safely. When
    /// the recorder is disabled this is exactly `f()` — no state is touched.
    pub fn observe<R>(&self, f: impl FnOnce() -> R) -> R {
        if !crate::enabled() {
            return f();
        }
        let prev = CAPTURE.with(|slot| slot.borrow_mut().replace(Arc::clone(&self.tree)));
        let _restore = RestoreOnDrop(prev);
        f()
    }

    /// The span stats captured so far, preorder (same shape as
    /// [`crate::Telemetry::spans`]); empty when nothing was captured.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanStats> {
        crate::span::stats_of(&self.tree.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Restores the previous capture slot even if the observed closure panics.
struct RestoreOnDrop(Option<Arc<Mutex<TreeState>>>);

impl Drop for RestoreOnDrop {
    fn drop(&mut self) {
        let _ = CAPTURE.try_with(|slot| *slot.borrow_mut() = self.0.take());
    }
}

/// Span-module hook: a root span tree just completed on this thread; fold
/// it into the active capture, if any. (`try_with`: a span closing during
/// thread teardown must not panic on destroyed TLS.)
pub(crate) fn on_root_tree(tree: &TreeState) {
    let _ = CAPTURE.try_with(|slot| {
        if let Some(capture) = slot.borrow().as_ref() {
            capture.lock().unwrap_or_else(PoisonError::into_inner).merge(tree);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn observe_captures_spans_per_capture() {
        let _guard = test_lock::hold();
        crate::enable();
        crate::reset();
        let capture = SpanCapture::new();
        capture.observe(|| {
            let _root = crate::span("capture.root");
            let _leaf = crate::span("capture.leaf");
        });
        // Outside the observed region: the tree does not land in `capture`.
        {
            let _root = crate::span("capture.outside");
        }
        let paths: Vec<String> = capture.snapshot().into_iter().map(|s| s.path).collect();
        assert_eq!(paths, ["capture.root", "capture.root/capture.leaf"]);
        // The global aggregate still sees everything.
        let t = crate::snapshot();
        assert!(t.span_path("capture.root/capture.leaf").is_some());
        assert!(t.span_path("capture.outside").is_some());
        crate::disable();
        crate::reset();
    }

    #[test]
    fn observe_hands_across_threads_and_nests() {
        let _guard = test_lock::hold();
        crate::enable();
        crate::reset();
        let outer = SpanCapture::new();
        let inner = SpanCapture::new();
        outer.observe(|| {
            let _root = crate::span("nest.outer");
            drop(crate::span("nest.outer_leaf"));
            // The worker thread gets its own clone of a different capture.
            let worker = inner.clone();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    worker.observe(|| {
                        let _r = crate::span("nest.worker");
                    });
                });
            });
        });
        assert!(outer.snapshot().iter().any(|s| s.path == "nest.outer"));
        assert!(!outer.snapshot().iter().any(|s| s.path.contains("worker")));
        assert!(inner.snapshot().iter().any(|s| s.path == "nest.worker"));
        crate::disable();
        crate::reset();
    }

    #[test]
    fn disabled_observe_is_transparent() {
        let _guard = test_lock::hold();
        crate::disable();
        let capture = SpanCapture::new();
        let out = capture.observe(|| {
            let _root = crate::span("capture.disabled");
            41 + 1
        });
        assert_eq!(out, 42);
        assert!(capture.snapshot().is_empty());
    }
}
