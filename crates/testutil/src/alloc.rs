//! A counting global allocator for allocation guards in tests and benches.
//!
//! [`CountingAlloc`] forwards every call to [`System`] and keeps two
//! per-thread tallies: the calls that obtain memory (`alloc`,
//! `alloc_zeroed`, `realloc`) and the live bytes (what this thread's
//! allocations obtained minus what its frees returned). A test binary
//! installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: mosc_testutil::CountingAlloc = mosc_testutil::CountingAlloc;
//! ```
//!
//! and diffs [`thread_allocations`] or [`thread_live_bytes`] around the code
//! under test. The tallies are thread-local, so the test harness's other
//! threads never leak into them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Memory-obtaining allocator calls made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes obtained minus bytes returned on this thread. Signed: a block
    /// freed by another thread than the one that allocated it moves each
    /// thread's tally the other way.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Adds one to this thread's call count. `try_with`: the allocator also
/// runs while a thread's locals are being torn down.
fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Moves this thread's live-byte tally by `obtained − returned`.
fn track(obtained: usize, returned: usize) {
    let delta = obtained as i64 - returned as i64;
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + delta));
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) this thread has
/// made through [`CountingAlloc`]; always 0 when it is not the global
/// allocator.
#[must_use]
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Bytes this thread's allocations through [`CountingAlloc`] obtained minus
/// the bytes its frees returned (`realloc` counts as both); always 0 when it
/// is not the global allocator. Code that frees everything it allocated
/// leaves this unchanged.
#[must_use]
pub fn thread_live_bytes() -> i64 {
    LIVE_BYTES.try_with(Cell::get).unwrap_or(0)
}

/// The system allocator, counting allocation calls and live bytes per
/// thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tallies are const-initialized
// thread-local `Cell`s, which neither allocate nor panic.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded from the caller's contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(layout.size(), 0);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded from the caller's contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            track(layout.size(), 0);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded from the caller's contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            track(new_size, layout.size());
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, layout.size());
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}
