//! A counting global allocator for allocation guards in tests and benches.
//!
//! [`CountingAlloc`] forwards every call to [`System`] and counts, per
//! thread, the calls that obtain memory (`alloc`, `alloc_zeroed`,
//! `realloc`). A test binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: mosc_testutil::CountingAlloc = mosc_testutil::CountingAlloc;
//! ```
//!
//! and diffs [`thread_allocations`] around the code under test. The count is
//! thread-local, so the test harness's other threads never leak into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Memory-obtaining allocator calls made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Adds one to this thread's count. `try_with`: the allocator also runs
/// while a thread's locals are being torn down.
fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) this thread has
/// made through [`CountingAlloc`]; always 0 when it is not the global
/// allocator.
#[must_use]
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// The system allocator, counting allocation calls per thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell`, which neither allocates nor panics.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}
