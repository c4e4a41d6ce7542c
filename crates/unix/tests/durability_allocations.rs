//! What a heap-file sync allocates, counted — the cost property of the
//! durability path pinned without a clock.
//!
//! * `fsync_pages` is O(pages): flushing three pages of a 16 MiB file
//!   borrows them from the segment and allocates a few hundred bytes of
//!   bookkeeping, never a copy of the file — also for pages in the zero
//!   tail a resize added, which are lent by one static zero page.
//! * `sync_all` copies nothing: the checkpoint writes each object home
//!   from the kernel's own bytes, and a stably stored object is its home
//!   record, so the steady state holds a file twice (its segment and the
//!   disk image) and a snapshot adds no copy of it, even transiently.
//!
//! The counters are process-wide, so this binary holds exactly one test.

mod counting;

use counting::{LIVE, PEAK, REQUESTED};
use histar_kernel::object::ContainerEntry;
use histar_unix::fs::OpenFlags;
use histar_unix::UnixEnv;
use std::sync::atomic::Ordering::Relaxed;

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

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
    let empty = LIVE.load(Relaxed);
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

    // The steady state holds the file twice (segment, disk image), and a
    // second snapshot adds no copy of it.
    let steady = LIVE.load(Relaxed);
    let held = steady - empty;
    assert!(
        held <= 2 * FILE_LEN + (1 << 20),
        "a synced {FILE_LEN}-byte file holds {held} bytes"
    );
    PEAK.store(steady, Relaxed);
    env.sync_all();
    let transient = PEAK.load(Relaxed) - steady;
    assert!(
        transient <= 1 << 20,
        "sync_all peaked {transient} bytes above its steady state"
    );
    assert!(LIVE.load(Relaxed) <= steady + (1 << 20));

    // Grow the file by 16 pages nothing writes; once a snapshot has given
    // the longer encoding a home, three pages of the tail flush in place.
    let tail = 16 * 4096;
    let thread = env.process(init).unwrap().thread;
    let dir = env.stat(init, "/bench").unwrap().object;
    let seg = env.fstat(init, fd).unwrap().object;
    let k = env.machine_mut().kernel_mut();
    k.trap_quota_move(thread, dir, seg, tail as i64).unwrap();
    k.trap_segment_resize(
        thread,
        ContainerEntry::new(dir, seg),
        (FILE_LEN + tail) as u64,
    )
    .unwrap();
    env.sync_all();
    let pages: Vec<u64> = (0..3).map(|p| (FILE_LEN / 4096 + 5 + p) as u64).collect();
    let flushes = env.machine().store().stats().inplace_flushes;
    let requested = REQUESTED.load(Relaxed);
    env.fsync_pages(init, fd, &pages).unwrap();
    let requested = REQUESTED.load(Relaxed) - requested;
    assert_eq!(
        env.machine().store().stats().inplace_flushes,
        flushes + 1,
        "the tail sync must have taken the in-place path"
    );
    assert!(
        requested < 64 << 10,
        "fsync_pages of 3 tail pages requested {requested} bytes"
    );
}
