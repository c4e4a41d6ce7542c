//! What a write costs the host in heap bytes, counted — the one copy of a
//! trapped write pinned without a clock.
//!
//! A `segment_write` call lends its bytes: the library hands the caller's
//! slice to the call, and the kernel's handler copies it into the segment,
//! the only copy the write makes.
//!
//! * A warm 4 KiB overwrite of a SegFs file through `UnixEnv::write`
//!   requests at most [`WARM_OVERWRITE`] heap bytes: the segment already
//!   holds the page, and the new seek position is lent from the stack, so
//!   what is left is the batch and its results (560 bytes measured, in
//!   both profiles); a copy of the argument alone would be 4,096.
//! * A 1 MiB write to a fresh SegFs file raises the peak live heap by
//!   less than 1.5 MiB: the segment's megabyte, not it plus a copy.
//!
//! The counters are process-wide, so this binary holds exactly one test.

mod counting;

use counting::{LIVE, PEAK, REQUESTED};
use histar_unix::fs::OpenFlags;
use histar_unix::UnixEnv;
use std::sync::atomic::Ordering::Relaxed;

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

const PAGE: usize = 4096;
/// The measured 560 bytes of a warm overwrite, plus 10%.
const WARM_OVERWRITE: usize = 616;
const MIB: usize = 1 << 20;

#[test]
fn a_write_copies_its_bytes_once() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();

    // A warm overwrite: the page is written and the length cached.
    let page = vec![0x5a; PAGE];
    let fd = env
        .open(init, "/warm", OpenFlags::read_write_create())
        .unwrap();
    for _ in 0..2 {
        env.lseek(init, fd, 0).unwrap();
        assert_eq!(env.write(init, fd, &page).unwrap(), PAGE as u64);
    }
    env.lseek(init, fd, 0).unwrap();
    let before = REQUESTED.load(Relaxed);
    assert_eq!(env.write(init, fd, &page).unwrap(), PAGE as u64);
    let requested = REQUESTED.load(Relaxed) - before;
    assert!(
        requested <= WARM_OVERWRITE,
        "a warm 4 KiB overwrite requested {requested} heap bytes"
    );

    // A fresh file's first megabyte.
    let big = vec![0xa5; MIB];
    let fd = env
        .open(init, "/fresh", OpenFlags::read_write_create())
        .unwrap();
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    assert_eq!(env.write(init, fd, &big).unwrap(), MIB as u64);
    let rise = PEAK.load(Relaxed) - live;
    assert!(
        rise < MIB + MIB / 2,
        "a 1 MiB write raised the peak live heap by {rise} bytes"
    );
    env.lseek(init, fd, 0).unwrap();
    assert_eq!(env.read(init, fd, MIB as u64).unwrap(), big);
}
