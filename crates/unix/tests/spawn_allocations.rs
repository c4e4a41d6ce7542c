//! What a process costs the host, counted — the demand-zero property of
//! segment bodies pinned without a clock.
//!
//! * A spawned process's text, heap and stack (4 + 64 + 16 KiB) are
//!   segments nothing has written: they hold no bytes until written, so a
//!   thousand spawns grow the live heap by the processes' bookkeeping,
//!   not by 84 KiB of zeros each — and those pages still read as zeros.
//!   That bookkeeping is held to 5,400 bytes a process, 9% over the
//!   4,949 it measures with each kernel object boxed out of its table and
//!   its descriptive string inline in the header (4,963 while each header
//!   held a heap `String`; ≈6.6 KB when the table held the objects inline
//!   and every spawn's share of its spare buckets was 289 bytes wide).
//! * A segment create the quota refuses allocates nothing, however long
//!   the segment would have been.
//!
//! The counters are process-wide, so this binary holds exactly one test.

mod counting;

use counting::{LIVE, REQUESTED};
use histar_kernel::object::ContainerEntry;
use histar_kernel::syscall::SyscallError;
use histar_label::Label;
use histar_unix::UnixEnv;
use std::sync::atomic::Ordering::Relaxed;

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

const WARM_UP: usize = 50;
const SPAWNS: usize = 1_000;
const PAGE: u64 = 4096;

#[test]
fn a_spawn_costs_its_bookkeeping_not_its_zeroed_segments() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    for _ in 0..WARM_UP {
        env.spawn(init, "/bin/true", None).unwrap();
    }
    let live = LIVE.load(Relaxed);
    let mut last = init;
    for _ in 0..SPAWNS {
        last = env.spawn(init, "/bin/true", None).unwrap();
    }
    let per_process = LIVE.load(Relaxed).saturating_sub(live) / SPAWNS;
    assert!(
        per_process <= 5_400,
        "each spawn kept {per_process} bytes live"
    );

    // Never-written pages read back as zeros: heap page 15, stack page 3.
    let p = env.process(last).unwrap().clone();
    let k = env.machine_mut().kernel_mut();
    for (seg, page) in [(p.heap_segment, 15), (p.stack_segment, 3)] {
        let entry = ContainerEntry::new(p.internal_container, seg);
        let bytes = k
            .trap_segment_read(p.thread, entry, page * PAGE, PAGE)
            .unwrap();
        assert_eq!(bytes, vec![0; PAGE as usize]);
    }

    // A 4 TiB segment in a 1 MiB container is refused with nothing built.
    let tid = env.process(init).unwrap().thread;
    let k = env.machine_mut().kernel_mut();
    let root = k.root_container();
    let small = k
        .trap_container_create(tid, root, Label::unrestricted(), "small", 0, 1 << 20)
        .unwrap();
    let requested = REQUESTED.load(Relaxed);
    let huge = k.trap_segment_create(tid, small, Label::unrestricted(), 1 << 42, "huge");
    assert!(
        matches!(huge, Err(SyscallError::QuotaExceeded { .. })),
        "{huge:?}"
    );
    let requested = REQUESTED.load(Relaxed) - requested;
    assert!(
        requested < 4096,
        "a refused create requested {requested} bytes"
    );
}
