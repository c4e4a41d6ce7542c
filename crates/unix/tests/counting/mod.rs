//! A counting global allocator for the allocation tests: requested, live
//! and peak bytes, process-wide — so each binary using it holds exactly
//! one test.  Install it with
//! `#[global_allocator] static ALLOCATOR: counting::Counting = counting::Counting;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes requested since the start (a `realloc` counts its whole new size).
pub static REQUESTED: AtomicUsize = AtomicUsize::new(0);
/// Bytes currently allocated, and the highest that has been.
pub static LIVE: AtomicUsize = AtomicUsize::new(0);
pub static PEAK: AtomicUsize = AtomicUsize::new(0);

pub struct Counting;

impl Counting {
    fn grew(requested: usize, by: usize) {
        REQUESTED.fetch_add(requested, Relaxed);
        let live = LIVE.fetch_add(by, Relaxed) + by;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics and
// never influence the pointers returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Counting::grew(layout.size(), layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` was returned by `System` for this `layout`.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p` was returned by `System` for this `layout`, and the
        // caller guarantees `new_size` is valid for its alignment.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            Counting::grew(new_size, new_size);
        }
        q
    }
}
