//! Counting allocator behind `engine.window_allocs`.
//!
//! Counts per thread, so a measurement on the calling thread is exact
//! whatever other threads do, and no cache line is shared between the
//! threads of the parallel workloads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    // No destructor and no lazy initialisation, so it is usable from
    // inside the allocator at any point of a thread's life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method delegates to `System` with the caller's own
// arguments; the counter is a plain thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations (and reallocations) made by this thread so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
