//! What a SegFs lookup costs the host in allocation calls, counted.
//!
//! A SegFs directory is a container plus a directory segment, and a path
//! step reads that segment out and finds the name where it lies in the
//! bytes: it checks every record (the model charges the segment copy, so
//! the walk stays O(entries)) but builds nothing per entry.  Reading one
//! file of a 500-entry directory therefore makes about as many allocation
//! calls as the same read in a 5-entry one — a `String` per name would
//! add 495.
//!
//! The counters are process-wide, so this binary holds exactly one test.

mod counting;

use counting::ALLOCS;
use histar_unix::UnixEnv;
use std::sync::atomic::Ordering::Relaxed;

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

/// Allocation calls made by reading `path`, after one warm-up read.
fn allocs_to_read(env: &mut UnixEnv, path: &str) -> usize {
    let init = env.init_pid();
    assert_eq!(env.read_file_as(init, path).unwrap(), b"x");
    let before = ALLOCS.load(Relaxed);
    assert_eq!(env.read_file_as(init, path).unwrap(), b"x");
    ALLOCS.load(Relaxed) - before
}

#[test]
fn a_lookup_makes_allocation_calls_independent_of_directory_size() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    for (dir, entries) in [("/small", 5), ("/big", 500)] {
        env.mkdir(init, dir, None).unwrap();
        for i in 0..entries {
            env.write_file_as(init, &format!("{dir}/f{i}"), b"x", None)
                .unwrap();
        }
    }
    let small = allocs_to_read(&mut env, "/small/f2");
    let big = allocs_to_read(&mut env, "/big/f250");
    assert!(
        big <= small + 2,
        "a read in a 500-entry directory made {big} allocation calls, in a 5-entry one {small}"
    );
}
