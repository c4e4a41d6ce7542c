//! What a heap-file sync allocates, counted — the cost property of the
//! durability path pinned without a clock.
//!
//! * `fsync_pages` is O(pages): flushing three pages of a 16 MiB file
//!   borrows them from the segment and allocates a few hundred bytes of
//!   bookkeeping, never a copy of the file.
//! * `sync_all` is one-copy: the snapshot holds one object's encoding at a
//!   time and the checkpoint writes it to disk from where it lies, so the
//!   transient footprint is the largest object, not the machine.
//!
//! The counters are process-wide, so this binary holds exactly one test.

use histar_unix::fs::OpenFlags;
use histar_unix::UnixEnv;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes requested since the start (a `realloc` counts its whole new size).
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
/// Bytes currently allocated, and the highest that has been.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

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

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const FILE_LEN: usize = 16 << 20;
const CHUNK: usize = 1 << 20;

#[test]
fn page_sync_allocates_per_page_and_snapshot_holds_one_object_at_a_time() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.mkdir(init, "/bench", None).unwrap();
    env.reserve_quota(init, "/bench", (4 * FILE_LEN + (64 << 20)) as u64)
        .unwrap();
    let fd = env
        .open(init, "/bench/large", OpenFlags::read_write_create())
        .unwrap();
    for chunk in 0..FILE_LEN / CHUNK {
        env.write(init, fd, &vec![chunk as u8; CHUNK]).unwrap();
    }
    env.sync_all();

    // Three pages: an 8 KiB write at a sector-aligned, page-unaligned offset.
    let off = 5 * CHUNK + 512;
    env.lseek(init, fd, off as u64).unwrap();
    env.write(init, fd, &[0xa5; 8192]).unwrap();
    let pages: Vec<u64> = (off as u64 / 4096..=(off + 8191) as u64 / 4096).collect();
    assert_eq!(pages.len(), 3);
    let flushes = env.machine().store().stats().inplace_flushes;
    let requested = REQUESTED.load(Relaxed);
    env.fsync_pages(init, fd, &pages).unwrap();
    let requested = REQUESTED.load(Relaxed) - requested;
    assert_eq!(
        env.machine().store().stats().inplace_flushes,
        flushes + 1,
        "the sync must have taken the in-place path"
    );
    assert!(
        requested < 64 << 10,
        "fsync_pages of 3 pages requested {requested} bytes"
    );

    // The steady state already holds the file three times (segment, store
    // cache, disk image); a second snapshot may add one encoding of it.
    let steady = LIVE.load(Relaxed);
    PEAK.store(steady, Relaxed);
    env.sync_all();
    let transient = PEAK.load(Relaxed) - steady;
    assert!(
        transient <= FILE_LEN + (1 << 20),
        "sync_all peaked {transient} bytes above its steady state"
    );
    assert!(LIVE.load(Relaxed) <= steady + (1 << 20));
}
