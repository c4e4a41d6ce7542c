//! What a `/persist` lookup costs the host, counted — the borrowed read
//! side pinned without a clock.
//!
//! A `/persist` directory is one record, and finding a name in it walks
//! every entry (the model charges that walk, so it stays O(entries)), but
//! the walk lends what it can: the kernel copies the directory's record
//! out of the store once per read of it, and the library compares names
//! where they lie in that copy (`fs::DirImage`), building nothing per
//! entry.  Reading one small file of a 500-entry directory therefore
//! requests a bounded number of bytes — a copy per entry, or a `String`
//! per name, would blow the bound.
//!
//! The counters are process-wide, so this binary holds exactly one test.

mod counting;

use counting::REQUESTED;
use histar_unix::UnixEnv;
use std::sync::atomic::Ordering::Relaxed;

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

const ENTRIES: usize = 500;
const READS: usize = 16;

#[test]
fn a_lookup_in_a_large_persist_directory_lends_its_dirents() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.mkdir(init, "/persist/big", None).unwrap();
    for i in 0..ENTRIES {
        env.write_file_as(init, &format!("/persist/big/f{i}"), b"x", None)
            .unwrap();
    }
    let paths: Vec<String> = (0..READS)
        .map(|i| format!("/persist/big/f{}", i * ENTRIES / READS))
        .collect();
    // Warm-up: the first read interns labels and fills caches.
    assert_eq!(env.read_file_as(init, "/persist/big/f1").unwrap(), b"x");
    let requested = REQUESTED.load(Relaxed);
    for path in &paths {
        assert_eq!(env.read_file_as(init, path).unwrap(), b"x");
    }
    let per_read = (REQUESTED.load(Relaxed) - requested) / READS;
    assert!(
        per_read <= 64 << 10,
        "reading one file of a {ENTRIES}-entry directory requested {per_read} bytes"
    );
}
