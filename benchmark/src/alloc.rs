//! The process-wide counting allocator behind every `*allocs_per_*`
//! metric: one relaxed counter over `System`, as in `perf_smoke`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Fresh memory requests (alloc + realloc, not dealloc) since process
/// start. A statistic only — it publishes no other data, so `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the returned
// memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
