//! A bounded MPMC queue with explicit backpressure.
//!
//! Producers `try_push` and never block: a full (or closed) queue hands the
//! item straight back so the caller can answer `overloaded` instead of
//! buffering unboundedly — load shedding at the edge, as the ISSUE's
//! serving model requires. Workers `pop`, blocking on a condvar until work
//! arrives or the queue is closed and drained.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Rejection from [`BoundedQueue::try_push`]; carries the item back.
#[derive(Debug)]
pub struct QueueFull<T>(pub T);

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity multi-producer multi-consumer queue.
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    available: Condvar,
}

impl<T> BoundedQueue<T> {
    /// An empty queue holding at most `capacity` items (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            available: Condvar::new(),
        }
    }

    /// Enqueues `item` unless the queue is full or closed, returning the
    /// depth after the push. Never blocks.
    ///
    /// # Errors
    /// [`QueueFull`] with the item handed back. A closed queue also rejects:
    /// during drain-then-exit the daemon shouldn't accept new work.
    pub fn try_push(&self, item: T) -> Result<usize, QueueFull<T>> {
        let mut state = self.lock();
        if state.closed || state.items.len() >= self.capacity {
            return Err(QueueFull(item));
        }
        state.items.push_back(item);
        let depth = state.items.len();
        drop(state);
        self.available.notify_one();
        Ok(depth)
    }

    /// Dequeues the oldest item, blocking while the queue is empty and
    /// open. Returns `None` once the queue is closed *and* drained — the
    /// worker-pool exit condition.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Closes the queue: pushes start failing, pops drain what remains and
    /// then return `None`. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// Current depth.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// `true` when no items are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_queue_rejects_and_hands_the_item_back() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        let QueueFull(rejected) = q.try_push(3).unwrap_err();
        assert_eq!(rejected, 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_then_stops() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert!(q.try_push(3).is_err(), "closed queue must reject");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "stays None after drain");
    }

    #[test]
    fn pop_blocks_until_push_across_threads() {
        let q = std::sync::Arc::new(BoundedQueue::new(1));
        let q2 = q.clone();
        let handle = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(42).unwrap();
        assert_eq!(handle.join().unwrap(), Some(42));
    }

    #[test]
    fn every_item_is_popped_exactly_once_under_contention() {
        let q = std::sync::Arc::new(BoundedQueue::new(1024));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for i in 0..1000 {
            while q.try_push(i).is_err() {
                std::thread::yield_now();
            }
        }
        q.close();
        let mut all: Vec<i32> = consumers.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }
}
