//! Nested timing spans.
//!
//! A [`SpanGuard`] opens a node in a **thread-local** tree keyed by span
//! name under the currently open parent; dropping the guard closes the node
//! and adds the elapsed wall time. When the *root* guard of a thread closes
//! (the open stack empties), the whole thread tree is merged into a global
//! aggregate under a mutex — one lock acquisition per root span, not per
//! span, so instrumenting hot loops stays cheap. Repeated calls through the
//! same call path fold into one aggregated node carrying a call count and
//! total time; self time (total minus children) is derived at snapshot.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One node of a span tree (thread-local and global trees share the shape).
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub name: &'static str,
    /// Index of the parent node, `None` for roots.
    pub parent: Option<usize>,
    /// Indices of child nodes, in first-seen order.
    pub children: Vec<usize>,
    /// Completed calls through this exact path.
    pub calls: u64,
    /// Total wall time across those calls.
    pub total: Duration,
}

impl Node {
    fn new(name: &'static str, parent: Option<usize>) -> Self {
        Self { name, parent, children: Vec::new(), calls: 0, total: Duration::ZERO }
    }
}

/// An arena-backed span tree plus the stack of currently open nodes.
#[derive(Debug, Default)]
pub(crate) struct TreeState {
    nodes: Vec<Node>,
    open: Vec<usize>,
}

impl TreeState {
    /// Finds or creates the child named `name` under the innermost open
    /// node (or at the root level) and pushes it onto the open stack.
    fn open(&mut self, name: &'static str) {
        let parent = self.open.last().copied();
        let slot = self
            .children_of(parent)
            .iter()
            .copied()
            .find(|&i| self.nodes[i].name == name)
            .unwrap_or_else(|| {
                let idx = self.nodes.len();
                self.nodes.push(Node::new(name, parent));
                match parent {
                    Some(p) => self.nodes[p].children.push(idx),
                    None => self.roots_cache_invalidate(),
                }
                idx
            });
        self.open.push(slot);
    }

    /// Closes the innermost open node, attributing `elapsed` to it. Returns
    /// `true` when this closed the last open node (a root completed).
    fn close(&mut self, elapsed: Duration) -> bool {
        if let Some(idx) = self.open.pop() {
            self.nodes[idx].calls += 1;
            self.nodes[idx].total += elapsed;
        }
        self.open.is_empty()
    }

    fn children_of(&self, parent: Option<usize>) -> Vec<usize> {
        match parent {
            Some(p) => self.nodes[p].children.clone(),
            None => (0..self.nodes.len()).filter(|&i| self.nodes[i].parent.is_none()).collect(),
        }
    }

    fn roots_cache_invalidate(&self) {
        // Roots are recomputed on demand; nothing cached today. Kept as a
        // seam so a root list can be added without touching `open`.
    }

    /// Merges `other` into `self` by (path, name): equal-named children of
    /// equal parents are folded together.
    pub(crate) fn merge(&mut self, other: &TreeState) {
        fn merge_level(
            dst: &mut TreeState,
            dst_parent: Option<usize>,
            src: &TreeState,
            src_ids: &[usize],
        ) {
            for &s in src_ids {
                let src_node = src.nodes[s].clone();
                let existing = dst
                    .children_of(dst_parent)
                    .iter()
                    .copied()
                    .find(|&i| dst.nodes[i].name == src_node.name);
                let idx = existing.unwrap_or_else(|| {
                    let idx = dst.nodes.len();
                    dst.nodes.push(Node::new(src_node.name, dst_parent));
                    if let Some(p) = dst_parent {
                        dst.nodes[p].children.push(idx);
                    }
                    idx
                });
                dst.nodes[idx].calls += src_node.calls;
                dst.nodes[idx].total += src_node.total;
                merge_level(dst, Some(idx), src, &src_node.children);
            }
        }
        let roots: Vec<usize> =
            (0..other.nodes.len()).filter(|&i| other.nodes[i].parent.is_none()).collect();
        merge_level(self, None, other, &roots);
    }
}

thread_local! {
    static LOCAL: std::cell::RefCell<TreeState> = std::cell::RefCell::new(TreeState::default());
}

/// The global aggregate: thread trees merged in as their root spans close.
static GLOBAL: Mutex<Option<TreeState>> = Mutex::new(None);

/// Opens a span named `name`, returning the guard that closes it on drop.
/// When the recorder is disabled the guard is inert (no thread-local or
/// global state is touched, at creation or at drop).
#[must_use = "a span records nothing unless the guard lives to the end of the timed scope"]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { start: None, name };
    }
    LOCAL.with(|s| s.borrow_mut().open(name));
    SpanGuard { start: Some(Instant::now()), name }
}

/// RAII guard for one span. Created by [`span`] / [`crate::span!`]; closing
/// happens on drop. Guards must drop in reverse creation order (normal
/// scope nesting guarantees this).
#[derive(Debug)]
pub struct SpanGuard {
    /// `Some` when the guard was armed (recorder enabled at creation).
    start: Option<Instant>,
    name: &'static str,
}

impl SpanGuard {
    /// The span's name (diagnostics / tests).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `true` when this guard is actually recording (the recorder was
    /// enabled when it was created). Used by the disabled-overhead guard
    /// test; instrumented code never needs to check.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed();
        let root_closed = LOCAL.with(|s| s.borrow_mut().close(elapsed));
        if root_closed {
            LOCAL.with(|s| {
                let mut local = s.borrow_mut();
                {
                    let mut global =
                        GLOBAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    global.get_or_insert_with(TreeState::default).merge(&local);
                }
                // An active request capture on this thread gets its own copy
                // of the completed tree (see `crate::capture`).
                crate::capture::on_root_tree(&local);
                *local = TreeState::default();
            });
        }
    }
}

/// Clears the global aggregate. Open spans on any thread keep their
/// thread-local state and merge whenever their root closes.
pub(crate) fn reset() {
    let mut global = GLOBAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    *global = None;
}

/// Snapshot of the completed-span aggregate as flat per-path stats, parents
/// before children (preorder), children in first-seen order.
pub(crate) fn collect() -> Vec<crate::report::SpanStats> {
    let global = GLOBAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let Some(tree) = global.as_ref() else { return Vec::new() };
    stats_of(tree)
}

/// Like [`collect`], but *takes* the aggregate: the tree is removed inside
/// a single lock acquisition, so a root-span merge racing the drain lands
/// entirely in this window or entirely in the next — never split, lost, or
/// double-counted.
pub(crate) fn drain_collect() -> Vec<crate::report::SpanStats> {
    let tree = GLOBAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
    tree.as_ref().map(stats_of).unwrap_or_default()
}

/// Flattens any span tree into per-path stats, parents before children
/// (preorder), children in first-seen order. Shared by the global aggregate
/// snapshot and per-request [`crate::SpanCapture`]s.
pub(crate) fn stats_of(tree: &TreeState) -> Vec<crate::report::SpanStats> {
    let mut out = Vec::new();
    fn walk(
        tree: &TreeState,
        ids: &[usize],
        path: &str,
        depth: usize,
        out: &mut Vec<crate::report::SpanStats>,
    ) {
        for &i in ids {
            let node = &tree.nodes[i];
            let full = if path.is_empty() {
                node.name.to_string()
            } else {
                format!("{path}/{}", node.name)
            };
            let child_total: Duration = node.children.iter().map(|&c| tree.nodes[c].total).sum();
            out.push(crate::report::SpanStats {
                path: full.clone(),
                name: node.name.to_string(),
                depth,
                calls: node.calls,
                total: node.total,
                self_time: node.total.saturating_sub(child_total),
            });
            walk(tree, &node.children, &full, depth + 1, out);
        }
    }
    let roots: Vec<usize> =
        (0..tree.nodes.len()).filter(|&i| tree.nodes[i].parent.is_none()).collect();
    walk(tree, &roots, "", 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    fn spin(min: Duration) {
        let start = Instant::now();
        while start.elapsed() < min {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nesting_builds_paths_and_folds_repeats() {
        let _guard = test_lock::hold();
        crate::enable();
        crate::reset();
        for _ in 0..3 {
            let _root = span("t.root");
            {
                let _a = span("t.a");
                let _aa = span("t.aa");
            }
            let _b = span("t.b");
        }
        let t = crate::snapshot();
        let root = t.span_path("t.root").expect("root");
        assert_eq!(root.calls, 3);
        assert_eq!(root.depth, 0);
        let a = t.span_path("t.root/t.a").expect("a");
        assert_eq!(a.calls, 3);
        assert_eq!(a.depth, 1);
        assert!(t.span_path("t.root/t.a/t.aa").is_some());
        assert!(t.span_path("t.root/t.b").is_some());
        // `t.a` is not a root path.
        assert!(t.span_path("t.a").is_none());
        crate::disable();
        crate::reset();
    }

    #[test]
    fn timing_is_monotone_parent_covers_children() {
        let _guard = test_lock::hold();
        crate::enable();
        crate::reset();
        {
            let _root = span("m.root");
            {
                let _c1 = span("m.child1");
                spin(Duration::from_millis(2));
            }
            {
                let _c2 = span("m.child2");
                spin(Duration::from_millis(1));
            }
        }
        let t = crate::snapshot();
        let root = t.span_path("m.root").unwrap();
        let c1 = t.span_path("m.root/m.child1").unwrap();
        let c2 = t.span_path("m.root/m.child2").unwrap();
        assert!(root.total >= c1.total + c2.total, "parent total must cover children");
        assert_eq!(root.total, root.self_time + c1.total + c2.total, "self = total - children");
        assert!(c1.total >= Duration::from_millis(2));
        assert!(c2.total >= Duration::from_millis(1));
        crate::disable();
        crate::reset();
    }

    #[test]
    fn trees_from_multiple_threads_merge() {
        let _guard = test_lock::hold();
        crate::enable();
        crate::reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _root = span("mt.root");
                    let _leaf = span("mt.leaf");
                });
            }
        });
        let t = crate::snapshot();
        assert_eq!(t.span_path("mt.root").unwrap().calls, 4);
        assert_eq!(t.span_path("mt.root/mt.leaf").unwrap().calls, 4);
        crate::disable();
        crate::reset();
    }

    #[test]
    fn open_spans_are_invisible_until_root_closes() {
        let _guard = test_lock::hold();
        crate::enable();
        crate::reset();
        let root = span("open.root");
        {
            let _inner = span("open.inner");
        }
        // Root still open: nothing flushed to the global aggregate yet.
        assert!(crate::snapshot().span_path("open.root").is_none());
        drop(root);
        assert!(crate::snapshot().span_path("open.root/open.inner").is_some());
        crate::disable();
        crate::reset();
    }
}
