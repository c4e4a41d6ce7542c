//! A tour of PersistFs, the store-backed persistent filesystem at
//! `/persist`: durable files whose inodes and extents are labeled records
//! in the single-level store's object map — a directory is one record, its
//! inode followed by its entries — with `fsync` as a write-ahead-log append
//! and crash recovery that replays the log back into a mountable tree —
//! labels included.
//!
//! Run with `cargo run --release --example persist_tour`.

use histar::kernel::{Machine, SyscallError};
use histar::unix::{UnixEnv, UnixError};

fn main() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();

    // --- durable writes ---------------------------------------------------
    let alice = env.create_user("alice").unwrap();
    env.mkdir(init, "/persist/home", None).unwrap();
    env.write_file_as(
        init,
        "/persist/home/diary",
        b"day 1: the store remembers",
        Some(alice.private_file_label()),
    )
    .unwrap();
    env.fsync_path(init, "/persist/home/diary").unwrap();
    env.fsync_path(init, "/persist/home").unwrap();
    println!("wrote and fsynced /persist/home/diary (labeled {{ar 3, aw 0, 1}})");

    // A second file is written but never synced: the crash below must
    // lose it — and only it.
    env.write_file_as(init, "/persist/home/scratch", b"unsynced musings", None)
        .unwrap();
    println!("wrote /persist/home/scratch WITHOUT fsync");

    let wal = env.machine().store().wal_used();
    println!("write-ahead log holds {wal} bytes of synced records");

    // --- the crash --------------------------------------------------------
    // Tear the machine down mid-workload: everything in kernel memory is
    // gone; only the disk survives.
    let disk = env.into_machine().into_disk();
    let machine = Machine::recover(Default::default(), disk).expect("recovery");
    println!("crashed and recovered the machine from disk");

    // Remounting is automatic: the environment finds the formatted tree
    // in the store and reattaches it.
    let mut env = UnixEnv::on_machine(machine);
    let init = env.init_pid();

    // --- what survived ----------------------------------------------------
    let diary = env.read_file_as(init, "/persist/home/diary").unwrap();
    println!(
        "after recovery, /persist/home/diary reads {:?}",
        String::from_utf8(diary).unwrap()
    );
    let gone = env.read_file_as(init, "/persist/home/scratch");
    assert!(matches!(gone, Err(UnixError::NotFound(_))));
    println!("after recovery, /persist/home/scratch is cleanly absent: {gone:?}");

    // --- labels survived too ----------------------------------------------
    // The label rode inside the recovered record; an unprivileged process
    // is refused by the kernel's record check, not by library courtesy.
    let snoop = env.spawn(init, "/bin_snoop", None).unwrap();
    let denied = env.read_file_as(snoop, "/persist/home/diary");
    assert!(matches!(
        denied,
        Err(UnixError::Kernel(SyscallError::CannotObserveRecord(_)))
    ));
    println!("unprivileged reader on the recovered diary: {denied:?}");

    println!("persist tour complete");
}
