//! Counting global allocator: heap memory is *counted*, not read from
//! RSS (RSS at 20 MB moved ±20 % run to run on the shared host; the
//! live-byte high-water mark is a pure function of what the program
//! allocated).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `alloc` + `realloc` calls since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE`].
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator with three relaxed counters in front of it.
pub struct CountingAlloc;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` come from a prior `System` allocation
        // and `new_size` is the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// High-water mark of live heap bytes so far.
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
