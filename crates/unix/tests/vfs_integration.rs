//! Integration tests for the VFS layer: mount resolution, descriptor
//! sharing through descriptor segments, label-filtered `/proc`, the
//! cross-mount rename error, and blocking-read semantics under the
//! deterministic scheduler.

use histar_kernel::sched::{RunLimit, SchedConfig, SchedContext, Scheduler, Step, StopReason};
use histar_kernel::syscall::SyscallError;
use histar_kernel::Kernel;
use histar_label::{Label, Level};
use histar_unix::fs::OpenFlags;
use histar_unix::process::ExitStatus;
use histar_unix::{UnixEnv, UnixError};

/// Crashes the environment's machine and rebuilds a fresh environment on
/// the recovered one; `/persist` reattaches itself from the store.
fn crash_and_remount(env: UnixEnv) -> UnixEnv {
    let machine = env
        .into_machine()
        .crash_and_recover()
        .expect("recovery succeeds");
    UnixEnv::on_machine(machine)
}

/// §5.3: "descriptor state lives in the descriptor segment" — `dup`'d
/// descriptors and fork-shared descriptors observe each other's seek
/// position, because there is exactly one position and it lives in the
/// shared segment, not in any per-process table.
#[test]
fn dup_and_fork_share_seek_position_through_the_fd_segment() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/f", b"abcdefghij", None).unwrap();
    let fd = env.open(init, "/f", OpenFlags::read_only()).unwrap();
    let dup = env.dup(init, fd).unwrap();

    // A read through either descriptor number advances the one shared
    // position.
    assert_eq!(env.read(init, fd, 2).unwrap(), b"ab");
    assert_eq!(env.read(init, dup, 2).unwrap(), b"cd");

    // An absolute seek through the dup is visible through the original.
    env.lseek(init, dup, 8).unwrap();
    assert_eq!(env.read(init, fd, 2).unwrap(), b"ij");

    // A forked child shares the same descriptor segment: its reads
    // continue from the parent's position and vice versa — the child
    // names the segment through its own hard link, in its own process
    // container, and keeps its own vnode.
    env.lseek(init, fd, 4).unwrap();
    let child = env.fork(init).unwrap();
    assert_eq!(env.read(child, fd, 2).unwrap(), b"ef");
    assert_eq!(env.read(init, fd, 2).unwrap(), b"gh");
    env.lseek(child, dup, 0).unwrap();
    assert_eq!(env.read(init, fd, 2).unwrap(), b"ab");
}

/// A rename whose paths resolve into different mounted filesystems fails
/// with a distinct error and corrupts neither directory.
#[test]
fn cross_mount_rename_fails_without_corrupting_either_directory() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let exported = env.mkdir(init, "/exported", None).unwrap();
    env.write_file_as(init, "/exported/keep", b"k", None)
        .unwrap();
    env.mount("/mnt", exported);
    env.mkdir(init, "/srcdir", None).unwrap();
    env.write_file_as(init, "/srcdir/file", b"payload", None)
        .unwrap();

    let err = env.rename(init, "/srcdir/file", "/mnt/file").unwrap_err();
    match err {
        UnixError::CrossMount { from, to } => {
            assert_eq!(from, "/srcdir/file");
            assert_eq!(to, "/mnt/file");
        }
        other => panic!("expected CrossMount, got {other:?}"),
    }
    // Source untouched, destination untouched.
    assert_eq!(env.read_file_as(init, "/srcdir/file").unwrap(), b"payload");
    let mnt = env.readdir(init, "/mnt").unwrap();
    assert_eq!(mnt.len(), 1);
    assert_eq!(mnt[0].name, "keep");
    // Renaming into /proc or /dev is also a cross-mount rename.
    assert!(matches!(
        env.rename(init, "/srcdir/file", "/proc/file"),
        Err(UnixError::CrossMount { .. })
    ));
    // Renames inside the mounted filesystem still work.
    env.rename(init, "/mnt/keep", "/mnt/kept").unwrap();
    assert_eq!(env.read_file_as(init, "/mnt/kept").unwrap(), b"k");
}

/// `/proc` is label-filtered by the kernel: a tainted observer cannot
/// stat (or read) an untainted process's entry, because entering the PID
/// directory requires observing that process's internal container
/// (`{pr 3, pw 0, 1}`), and the kernel refuses.  The process itself — in
/// particular a process whose label *does* admit the entry — succeeds.
#[test]
fn tainted_observer_cannot_stat_untainted_proc_entry() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();

    // A taint category owned by init; the observer starts tainted in it.
    let init_thread = env.process(init).unwrap().thread;
    let taint = env.kernel_mut().trap_create_category(init_thread).unwrap();
    let observer = env
        .spawn_with_label(init, "/bin_observer", vec![], vec![(taint, Level::L3)])
        .unwrap();
    let victim = env.spawn(init, "/bin_victim", None).unwrap();

    // Listing /proc is public information (PIDs only).
    let pids = env.readdir(observer, "/proc").unwrap();
    assert!(pids.iter().any(|e| e.name == victim.to_string()));

    // But stat'ing the victim's entry is not: the kernel denies the
    // observe on the victim's internal container.
    let err = env
        .stat(observer, &format!("/proc/{victim}/status"))
        .unwrap_err();
    assert!(matches!(
        err,
        UnixError::Kernel(SyscallError::CannotObserve(_))
    ));
    // Same for the PID directory itself and for reads.
    assert!(env.stat(observer, &format!("/proc/{victim}")).is_err());
    assert!(env
        .read_file_as(observer, &format!("/proc/{victim}/status"))
        .is_err());

    // The victim's own label admits its entry: it reads its own status,
    // label and fd table.
    let status = env
        .read_file_as(victim, &format!("/proc/{victim}/status"))
        .unwrap();
    assert!(String::from_utf8(status)
        .unwrap()
        .contains("state:\trunning"));
    let label = env
        .read_file_as(victim, &format!("/proc/{victim}/label"))
        .unwrap();
    assert!(!label.is_empty());
    let fds = env
        .read_file_as(victim, &format!("/proc/{victim}/fds"))
        .unwrap();
    assert!(String::from_utf8(fds).unwrap().contains("open fds"));
}

/// An open `/proc` descriptor stays label-checked: every read re-runs the
/// kernel check, so content is never served from the snapshot alone.
#[test]
fn proc_reads_recheck_labels_on_every_read() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let child = env.spawn(init, "/bin_child", None).unwrap();
    // The child opens its own status file — allowed.
    let fd = env
        .open(
            child,
            &format!("/proc/{child}/status"),
            OpenFlags::read_only(),
        )
        .unwrap();
    let first = env.read(child, fd, 16).unwrap();
    assert!(!first.is_empty());
    // Each read performed a fresh container-list check; a second read
    // continues from the shared seek position.
    let second = env.read(child, fd, 16).unwrap();
    assert_ne!(first, second);
    env.close(child, fd).unwrap();
}

/// Paths resolve across mount boundaries in one resolver: `..` escapes a
/// mount point lexically, mount points shadow directories, and unmount
/// restores the underlying namespace.
#[test]
fn mount_resolution_and_dotdot_escape() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.mkdir(init, "/data", None).unwrap();
    env.write_file_as(init, "/data/under", b"under", None)
        .unwrap();
    let exported = env.mkdir(init, "/exported", None).unwrap();
    env.write_file_as(init, "/exported/over", b"over", None)
        .unwrap();

    // Mounting shadows the directory; unmounting restores it.
    env.mount("/data", exported);
    assert_eq!(env.read_file_as(init, "/data/over").unwrap(), b"over");
    assert!(matches!(
        env.read_file_as(init, "/data/under"),
        Err(UnixError::NotFound(_))
    ));
    env.vfs_mut().unmount("/data").unwrap();
    assert_eq!(env.read_file_as(init, "/data/under").unwrap(), b"under");

    // `..` walks out of a mounted filesystem back into the parent
    // namespace (lexically, before any lookup).
    env.mount("/data", exported);
    env.chdir(init, "/data").unwrap();
    assert_eq!(env.read_file_as(init, "over").unwrap(), b"over");
    assert_eq!(env.read_file_as(init, "../exported/over").unwrap(), b"over");
    assert_eq!(env.read_file_as(init, "../dev/null").unwrap(), b"");
}

/// The fd-table numbering is per-process but the refcount lives in the
/// shared descriptor segment: closing one process's number keeps the
/// descriptor alive for the other sharer.
#[test]
fn refcounts_survive_one_sharer_closing() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/shared", b"0123456789", None)
        .unwrap();
    let fd = env.open(init, "/shared", OpenFlags::read_only()).unwrap();
    let child = env.fork(init).unwrap();
    env.close(init, fd).unwrap();
    // The child still reads through the shared descriptor.
    assert_eq!(env.read(child, fd, 4).unwrap(), b"0123");
    env.close(child, fd).unwrap();
    assert!(matches!(env.read(child, fd, 1), Err(UnixError::BadFd(_))));
}

/// Regression: a zero-length read returns immediately (it used to spin
/// forever revalidating the cached file length), and an oversized device
/// read is served as a short count instead of sizing an allocation from
/// the untrusted length.
#[test]
fn zero_length_and_oversized_reads_terminate() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/f", b"abc", None).unwrap();
    let fd = env.open(init, "/f", OpenFlags::read_only()).unwrap();
    assert_eq!(env.read(init, fd, 0).unwrap(), b"");
    assert_eq!(env.read(init, fd, 2).unwrap(), b"ab");
    env.close(init, fd).unwrap();

    let zero = env.open(init, "/dev/zero", OpenFlags::read_only()).unwrap();
    let huge = env.read(init, zero, u64::MAX).unwrap();
    assert_eq!(huge.len() as u64, histar_unix::devfs::DEV_READ_MAX);
    env.close(init, zero).unwrap();
}

/// Regression: closing an inherited label-gated /proc descriptor must
/// succeed (dropping a descriptor is always allowed) and must decrement
/// the shared refcount even though the closing process cannot rebuild
/// the vnode behind it.
#[test]
fn child_can_close_inherited_proc_descriptor() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let fd = env
        .open(init, "/proc/1/status", OpenFlags::read_only())
        .unwrap();
    let child = env.fork(init).unwrap();
    // The child does not own init's pr category, so it could never
    // rebuild the proc vnode — but close must still work.
    env.close(child, fd).unwrap();
    // The refcount dropped: init's close is the last one.
    env.close(init, fd).unwrap();
    assert!(matches!(env.read(init, fd, 1), Err(UnixError::BadFd(_))));
}

/// Regression: a failed data operation must not move the shared seek
/// position — batches have no rollback, so the hot path compensates.
#[test]
fn failed_io_does_not_move_the_shared_position() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/f", b"0123456789", None).unwrap();
    // Open read-write, advance to 4, then make the *kernel* refuse the
    // write by dropping to a read-only view: simplest kernel-refused
    // write is a denied /proc gate, so test via a fork that cannot
    // observe a /proc file inherited from the parent.
    let fd = env
        .open(init, "/proc/1/status", OpenFlags::read_only())
        .unwrap();
    assert!(!env.read(init, fd, 4).unwrap().is_empty());
    let child = env.fork(init).unwrap();
    // The child's read is denied by the label gate...
    assert!(env.read(child, fd, 4).is_err());
    // ...and the shared position did not move: the parent's next read
    // continues exactly where it left off.
    let rest = env.read(init, fd, 4).unwrap();
    assert_eq!(rest.len(), 4);
    let full = env.read_file_as(init, "/proc/1/status").unwrap();
    assert_eq!(&full[4..8], &rest[..]);
}

/// A file's name is its container entry, checked on every call: reading
/// through a descriptor whose file was unlinked is refused by the kernel
/// once — no second attempt under another name — and the shared position
/// stays where the last good read left it.
#[test]
fn read_through_unlinked_file_fails_once_and_keeps_the_position() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/f", b"0123456789", None).unwrap();
    let fd = env.open(init, "/f", OpenFlags::read_only()).unwrap();
    assert_eq!(env.read(init, fd, 4).unwrap(), b"0123");
    env.unlink(init, "/f").unwrap();

    env.machine_mut().kernel_mut().enable_syscall_trace(64);
    let err = env.read(init, fd, 4).unwrap_err();
    assert!(matches!(err, UnixError::Kernel(_)), "{err:?}");
    let failed: Vec<&str> = env
        .machine()
        .kernel()
        .syscall_trace()
        .unwrap()
        .records()
        .filter(|r| !r.ok)
        .map(|r| r.syscall)
        .collect();
    assert_eq!(failed, ["segment_read"]);
    assert_eq!(env.fd_snapshot(init, fd).unwrap().position, 4);
}

/// The bytes of one segment, straight from the kernel's object table.
fn segment_bytes(machine: &histar_kernel::Machine, id: histar_kernel::object::ObjectId) -> Vec<u8> {
    match &machine
        .kernel()
        .raw_object(id)
        .expect("segment exists")
        .body
    {
        histar_kernel::bodies::ObjectBody::Segment(s) => s.bytes.clone(),
        other => panic!("not a segment: {other:?}"),
    }
}

/// Regression: `fsync_pages` names pages of the *file*, but the store
/// addressed them as pages of the segment's *record*, whose payload
/// starts one encoded header later — so the tail of every page-aligned
/// write was acknowledged and never written.  Every byte written and
/// page-synced must be in the segment a crash recovers, at aligned and
/// unaligned offsets alike.
#[test]
fn fsync_pages_makes_every_written_byte_of_the_named_pages_durable() {
    const LEN: usize = 64 * 1024;
    const WRITE: usize = 8192;
    for off in [0, 8192, 20480, 512, 12800, 30208, LEN - WRITE] {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let fd = env
            .open(init, "/heap", OpenFlags::read_write_create())
            .unwrap();
        env.write(init, fd, &vec![0x11; LEN]).unwrap();
        env.sync_all();
        let fresh: Vec<u8> = (0..WRITE).map(|i| 0x80 | (i % 113) as u8).collect();
        env.lseek(init, fd, off as u64).unwrap();
        env.write(init, fd, &fresh).unwrap();
        let pages: Vec<u64> = (off as u64 / 4096..=(off + WRITE - 1) as u64 / 4096).collect();
        env.fsync_pages(init, fd, &pages).unwrap();

        let seg = env.fstat(init, fd).unwrap().object;
        let acked = segment_bytes(env.machine(), seg);
        assert_eq!(acked[off..off + WRITE], fresh[..]);
        let recovered = env.into_machine().crash_and_recover().unwrap();
        let durable = segment_bytes(&recovered, seg);
        let lost = (0..LEN).filter(|&i| durable[i] != acked[i]).count();
        assert_eq!(lost, 0, "write at {off}: {lost} acknowledged bytes lost");
    }
}

/// Regression: a whole-file `fsync` leaves a version of the segment in the
/// write-ahead log, and recovery replays the log over the home record — so
/// pages flushed in place *after* it were acknowledged and then masked by
/// the older logged version.  The page sync must go through the log too
/// while a logged version is pending.
#[test]
fn fsync_pages_after_a_logged_fsync_is_not_masked_by_log_replay() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let fd = env
        .open(init, "/heap", OpenFlags::read_write_create())
        .unwrap();
    env.write(init, fd, &[0x11; 16384]).unwrap();
    env.sync_all();
    for (fill, page_sync) in [(0x22, false), (0x33, true)] {
        env.lseek(init, fd, 0).unwrap();
        env.write(init, fd, &[fill; 4096]).unwrap();
        if page_sync {
            env.fsync_pages(init, fd, &[0]).unwrap();
        } else {
            env.fsync_path(init, "/heap").unwrap();
        }
    }
    let seg = env.fstat(init, fd).unwrap().object;
    let acked = segment_bytes(env.machine(), seg);
    let recovered = env.into_machine().crash_and_recover().unwrap();
    assert_eq!(segment_bytes(&recovered, seg)[..8], acked[..8]);
    assert_eq!(acked[0], 0x33);
}

/// An `fsync` that cannot make anything durable says so: the object behind
/// a still-open descriptor is gone once its last name is unlinked, and a
/// page sync through that descriptor reports it instead of acknowledging —
/// with the kernel's entry error, the same a forged id would get.
#[test]
fn fsync_of_a_vanished_object_is_an_error_not_an_acknowledgement() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/f", &[7u8; 8192], None).unwrap();
    env.sync_all();
    let fd = env
        .open(init, "/f", OpenFlags::read_write_create())
        .unwrap();
    let seg = env.fstat(init, fd).unwrap().object;
    env.unlink(init, "/f").unwrap();

    let flushes = env.machine().store().stats().inplace_flushes;
    let err = env.fsync_pages(init, fd, &[0, 1]).unwrap_err();
    assert_eq!(
        err,
        UnixError::Kernel(SyscallError::NotInContainer {
            container: env.fs_root(),
            object: seg,
        })
    );
    assert_eq!(env.machine().store().stats().inplace_flushes, flushes);
}

/// `fsync` is one trap per target: a heap file's sync is the directory,
/// its directory segment and the file — three `obj_sync` calls, three log
/// frames — and two files of one directory synced through one
/// `fsync_paths` share the directory's two targets: four traps, not six.
#[test]
fn fsync_paths_syncs_each_target_once_through_its_own_trap() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.mkdir(init, "/d", None).unwrap();
    env.write_file_as(init, "/d/a", b"a", None).unwrap();
    env.write_file_as(init, "/d/b", b"b", None).unwrap();
    let count = |env: &UnixEnv| {
        let traps = env.machine().kernel().dispatch_stats().count("obj_sync");
        (traps.unwrap(), env.machine().store().wal_stats().frames)
    };

    let (traps, frames) = count(&env);
    env.fsync_path(init, "/d/a").unwrap();
    assert_eq!(count(&env), (traps + 3, frames + 3));
    env.fsync_paths(init, &["/d/a", "/d/b"]).unwrap();
    assert_eq!(count(&env), (traps + 7, frames + 7));
    // A `/persist` path beside them adds one `persist_sync` and no object.
    env.write_file_as(init, "/persist/p", b"p", None).unwrap();
    env.fsync_paths(init, &["/d/a", "/persist/p", "/d/a"])
        .unwrap();
    assert_eq!(count(&env), (traps + 10, frames + 11));
}

/// Regression: sharing a descriptor with a process that does not exist
/// must not raise its reference count — the count would never drop, and
/// a shared pipe write end would never reach last-close.  Nor may a share
/// the kernel refuses half-way leave a link behind: the receiver here has
/// room for the descriptor segment's page but not for the pipe buffer.
#[test]
fn failed_share_fd_leaves_the_refcount_unchanged() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let (_rfd, wfd) = env.pipe(init).unwrap();
    let refs = env.fd_snapshot(init, wfd).unwrap().refs;
    let nobody = init + 1000;
    assert!(matches!(
        env.share_fd(init, wfd, nobody),
        Err(UnixError::NoSuchProcess(p)) if p == nobody
    ));
    assert_eq!(env.fd_snapshot(init, wfd).unwrap().refs, refs);

    let cramped = env.spawn(init, "/bin/cramped", None).unwrap();
    let (thread, container) = {
        let p = env.process(cramped).unwrap();
        (p.thread, p.process_container)
    };
    let kernel = env.kernel_mut();
    let spare = kernel
        .trap_container_quota_avail(thread, container)
        .unwrap();
    kernel
        .trap_segment_create(
            thread,
            container,
            Label::unrestricted(),
            spare - 2 * 4096,
            "ballast",
        )
        .unwrap();
    let linked = kernel.trap_container_list(thread, container).unwrap();
    let spare = kernel
        .trap_container_quota_avail(thread, container)
        .unwrap();
    assert!((4096..2 * 4096 + 1).contains(&spare));
    assert!(matches!(
        env.share_fd(init, wfd, cramped),
        Err(UnixError::Kernel(SyscallError::QuotaExceeded { .. }))
    ));
    assert_eq!(env.fd_snapshot(init, wfd).unwrap().refs, refs);
    let kernel = env.kernel_mut();
    assert_eq!(
        kernel.trap_container_list(thread, container).unwrap(),
        linked,
        "no link left behind"
    );
    assert_eq!(
        kernel
            .trap_container_quota_avail(thread, container)
            .unwrap(),
        spare
    );
    assert_eq!(env.process(cramped).unwrap().fds.open_count(), 0);
}

/// §5.3: "a shared descriptor segment is only deallocated when it has been
/// closed and unreferenced by every process."  A descriptor a child
/// inherited works after the process that opened it has exited and been
/// reaped — same position, clean close — and the close that drops the
/// last link frees the segment.
#[test]
fn an_inherited_descriptor_outlives_its_opener() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/data", b"shared position", None)
        .unwrap();
    let mid = env.spawn(init, "/bin/mid", None).unwrap();
    let fd = env.open(mid, "/data", OpenFlags::read_only()).unwrap();
    assert_eq!(env.read(mid, fd, 7).unwrap(), b"shared ");
    let child = env.fork(mid).unwrap();
    env.exit(mid, ExitStatus::Exited(0)).unwrap();
    env.wait(init, mid).unwrap();

    assert_eq!(env.read(child, fd, 5).unwrap(), b"posit");
    let objects = env.machine().kernel().object_count();
    env.close(child, fd).unwrap();
    assert_eq!(env.machine().kernel().object_count(), objects - 1);
}

/// The same for a pipe whose creator is reaped while a forked child holds
/// the write end and another process the read end: the bytes arrive, and
/// end-of-file arrives with the child's close.
#[test]
fn a_pipe_outlives_the_process_that_created_it() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let mid = env.spawn(init, "/bin/mid", None).unwrap();
    let (rfd, wfd) = env.pipe(mid).unwrap();
    let reader_fd = env.share_fd(mid, rfd, init).unwrap();
    let child = env.fork(mid).unwrap();
    env.exit(mid, ExitStatus::Exited(0)).unwrap();
    env.wait(init, mid).unwrap();

    assert_eq!(env.write(child, wfd, b"hello").unwrap(), 5);
    assert_eq!(env.read(init, reader_fd, 64).unwrap(), b"hello");
    assert_eq!(
        env.read(init, reader_fd, 64),
        Err(UnixError::WouldBlock),
        "the child still holds the write end"
    );
    let objects = env.machine().kernel().object_count();
    env.close(child, wfd).unwrap();
    env.close(child, rfd).unwrap();
    assert_eq!(env.read(init, reader_fd, 64).unwrap(), b"", "end of file");
    env.close(init, reader_fd).unwrap();
    assert_eq!(
        env.machine().kernel().object_count(),
        objects - 3,
        "both descriptor segments and the buffer"
    );
}

/// A descriptor handed over with `share_fd` is the receiver's own: the
/// sharer may close its number first.
#[test]
fn a_shared_descriptor_survives_the_sharers_close() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/data", b"shared position", None)
        .unwrap();
    let a = env.spawn(init, "/bin/a", None).unwrap();
    let b = env.spawn(init, "/bin/b", None).unwrap();
    let fd = env.open(a, "/data", OpenFlags::read_only()).unwrap();
    assert_eq!(env.read(a, fd, 7).unwrap(), b"shared ");
    let shared = env.share_fd(a, fd, b).unwrap();
    env.close(a, fd).unwrap();
    assert_eq!(env.read(b, shared, 5).unwrap(), b"posit");
    let objects = env.machine().kernel().object_count();
    env.close(b, shared).unwrap();
    assert_eq!(env.machine().kernel().object_count(), objects - 1);
}

/// `close` gives everything back: a process can open and close for ever.
/// (The descriptor segment used never to be unreferenced, so the 8,187th
/// `open` in one process failed with `QuotaExceeded`.)
#[test]
fn close_returns_the_descriptor_segment_and_its_quota() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/f", b"x", None).unwrap();
    let (thread, container) = {
        let p = env.process(init).unwrap();
        (p.thread, p.process_container)
    };
    let held = |env: &mut UnixEnv| {
        let spare = env
            .kernel_mut()
            .trap_container_quota_avail(thread, container)
            .unwrap();
        (env.machine().kernel().object_count(), spare)
    };
    let before = held(&mut env);
    for _ in 0..20_000 {
        let fd = env.open(init, "/f", OpenFlags::read_only()).unwrap();
        env.close(init, fd).unwrap();
    }
    assert_eq!(held(&mut env), before);

    // `dup` shares one link: the first close keeps it, the second frees.
    let fd = env.open(init, "/f", OpenFlags::read_only()).unwrap();
    let dup = env.dup(init, fd).unwrap();
    env.close(init, fd).unwrap();
    assert_eq!(env.read(init, dup, 1).unwrap(), b"x");
    assert_ne!(held(&mut env), before);
    env.close(init, dup).unwrap();
    assert_eq!(held(&mut env), before);

    // `exit` closes what is open — a pipe's buffer included.
    let child = env.spawn(init, "/bin/leaky", None).unwrap();
    let objects = env.machine().kernel().object_count();
    env.open(child, "/f", OpenFlags::read_only()).unwrap();
    env.pipe(child).unwrap();
    assert_eq!(env.machine().kernel().object_count(), objects + 4);
    env.exit(child, ExitStatus::Exited(0)).unwrap();
    assert_eq!(env.machine().kernel().object_count(), objects);
}

/// Regression: oversized /proc reads with a nonzero position must not
/// overflow (they used to panic computing `start + len`).
#[test]
fn oversized_proc_read_is_clamped() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let fd = env
        .open(init, "/proc/1/status", OpenFlags::read_only())
        .unwrap();
    assert_eq!(env.read(init, fd, 1).unwrap().len(), 1);
    let rest = env.read(init, fd, u64::MAX).unwrap();
    assert!(!rest.is_empty());
    env.close(init, fd).unwrap();
}

/// Regression: operations on a mount point itself fail cleanly instead
/// of creating or renaming entries the mount table shadows.
#[test]
fn mount_point_paths_refuse_namespace_edits() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let exported = env.mkdir(init, "/exported", None).unwrap();
    env.mount("/mnt", exported);
    env.write_file_as(init, "/a.txt", b"a", None).unwrap();
    // Renaming *onto* a mount point must not shadow the file.
    assert!(matches!(
        env.rename(init, "/a.txt", "/mnt"),
        Err(UnixError::Unsupported(_))
    ));
    assert_eq!(env.read_file_as(init, "/a.txt").unwrap(), b"a");
    // mkdir/unlink on mount points fail cleanly too.
    assert!(matches!(
        env.mkdir(init, "/proc", None),
        Err(UnixError::Unsupported(_))
    ));
    assert!(matches!(
        env.unlink(init, "/dev"),
        Err(UnixError::Unsupported(_))
    ));
    // Remounting the same container does not grow the filesystem table.
    let before = env.vfs_mut().mount_count();
    env.mount("/mnt", exported);
    assert_eq!(env.vfs_mut().mount_count(), before);
}

// ------------------------------------------------ /persist semantics --

/// The acceptance story: a file written under `/persist` and fsynced
/// survives a simulated crash and is readable after recovery, while an
/// unsynced write is cleanly absent.
#[test]
fn persist_fsynced_data_survives_crash_unsynced_data_does_not() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.mkdir(init, "/persist/etc", None).unwrap();
    env.write_file_as(init, "/persist/etc/motd", b"durable greeting", None)
        .unwrap();
    env.fsync_path(init, "/persist/etc/motd").unwrap();
    // Also fsync the directory chain so the namespace entries are logged.
    env.fsync_path(init, "/persist/etc").unwrap();
    env.write_file_as(init, "/persist/etc/scratch", b"never synced", None)
        .unwrap();

    let mut env = crash_and_remount(env);
    let init = env.init_pid();
    assert_eq!(
        env.read_file_as(init, "/persist/etc/motd").unwrap(),
        b"durable greeting"
    );
    assert!(matches!(
        env.read_file_as(init, "/persist/etc/scratch"),
        Err(UnixError::NotFound(_))
    ));
    // The recovered tree is fully usable: new writes and a second crash
    // round-trip cleanly.
    env.write_file_as(init, "/persist/etc/motd2", b"second life", None)
        .unwrap();
    env.fsync_path(init, "/persist/etc/motd2").unwrap();
    let mut env = crash_and_remount(env);
    let init = env.init_pid();
    assert_eq!(
        env.read_file_as(init, "/persist/etc/motd2").unwrap(),
        b"second life"
    );
}

/// Labels are enforced across recovery: a secret file recovered from the
/// write-ahead log still carries its label inside the record, and the
/// kernel re-checks it on every read — an unprivileged reader is refused
/// exactly as before the crash.
#[test]
fn persist_labels_are_enforced_across_recovery() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let alice = env.create_user("alice").unwrap();
    env.write_file_as(
        init,
        "/persist/diary",
        b"alice's secrets",
        Some(alice.private_file_label()),
    )
    .unwrap();
    env.fsync_path(init, "/persist/diary").unwrap();

    let mut env = crash_and_remount(env);
    let init = env.init_pid();
    // The recovered environment has no users table (library state), but
    // kernel-side category ownership recovered with init's thread; an
    // unprivileged sibling cannot observe the file.
    let snoop = env.spawn(init, "/bin_snoop", None).unwrap();
    let err = env.read_file_as(snoop, "/persist/diary").unwrap_err();
    assert!(
        matches!(err, UnixError::Kernel(SyscallError::CannotObserveRecord(_))),
        "got {err:?}"
    );
    // init still owns alice's categories (they were snapshotted with its
    // thread), so it reads the recovered bytes.
    assert_eq!(
        env.read_file_as(init, "/persist/diary").unwrap(),
        b"alice's secrets"
    );
}

/// A rename between `/persist` and the heap-backed root filesystem fails
/// with `CrossMount` and corrupts neither namespace.
#[test]
fn persist_rename_across_mounts_fails_cleanly() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/persist/keep", b"p", None)
        .unwrap();
    env.write_file_as(init, "/heap.txt", b"h", None).unwrap();
    for (from, to) in [
        ("/persist/keep", "/stolen"),
        ("/heap.txt", "/persist/heap.txt"),
    ] {
        let err = env.rename(init, from, to).unwrap_err();
        assert!(matches!(err, UnixError::CrossMount { .. }), "{from}->{to}");
    }
    assert_eq!(env.read_file_as(init, "/persist/keep").unwrap(), b"p");
    assert_eq!(env.read_file_as(init, "/heap.txt").unwrap(), b"h");
    // Renames inside /persist work, including across directories.
    env.mkdir(init, "/persist/a", None).unwrap();
    env.mkdir(init, "/persist/b", None).unwrap();
    env.write_file_as(init, "/persist/a/f", b"x", None).unwrap();
    env.rename(init, "/persist/a/f", "/persist/b/g").unwrap();
    assert_eq!(env.read_file_as(init, "/persist/b/g").unwrap(), b"x");
    assert!(env.stat(init, "/persist/a/f").is_err());
}

/// Descriptor semantics on /persist match the heap filesystem: shared
/// seek positions through dup/fork, append mode, truncation, unlink, and
/// an unlink made durable (it does not resurrect after a crash).
#[test]
fn persist_descriptor_semantics_match_segfs() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/persist/f", b"0123456789", None)
        .unwrap();
    let fd = env
        .open(init, "/persist/f", OpenFlags::read_only())
        .unwrap();
    let dup = env.dup(init, fd).unwrap();
    assert_eq!(env.read(init, fd, 4).unwrap(), b"0123");
    assert_eq!(env.read(init, dup, 4).unwrap(), b"4567");
    env.lseek(init, dup, 1).unwrap();
    assert_eq!(env.read(init, fd, 2).unwrap(), b"12");
    let child = env.fork(init).unwrap();
    assert_eq!(env.read(child, fd, 2).unwrap(), b"34");
    env.close(init, fd).unwrap();
    env.close(init, dup).unwrap();

    // Append always writes at the end.
    let fda = env
        .open(
            init,
            "/persist/f",
            OpenFlags {
                write: true,
                append: true,
                ..Default::default()
            },
        )
        .unwrap();
    env.write(init, fda, b"ab").unwrap();
    env.close(init, fda).unwrap();
    assert_eq!(
        env.read_file_as(init, "/persist/f").unwrap(),
        b"0123456789ab"
    );

    // Truncating open resets the contents.
    env.write_file_as(init, "/persist/f", b"short", None)
        .unwrap();
    assert_eq!(env.read_file_as(init, "/persist/f").unwrap(), b"short");
    let stat = env.stat(init, "/persist/f").unwrap();
    assert_eq!(stat.len, 5);

    // Unlink is durable: after fsyncing the create, unlinking and
    // crashing must not resurrect the file.
    env.fsync_path(init, "/persist/f").unwrap();
    env.unlink(init, "/persist/f").unwrap();
    let mut env = crash_and_remount(env);
    let init = env.init_pid();
    assert!(matches!(
        env.read_file_as(init, "/persist/f"),
        Err(UnixError::NotFound(_))
    ));
}

/// Large files span many extent records; contents round-trip through
/// crash/recovery intact, and readdir lists the tree.
#[test]
fn persist_multi_extent_files_and_readdir() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    env.write_file_as(init, "/persist/big.bin", &big, None)
        .unwrap();
    env.write_file_as(init, "/persist/small", b"s", None)
        .unwrap();
    env.fsync_path(init, "/persist/big.bin").unwrap();
    let names: Vec<String> = env
        .readdir(init, "/persist")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert!(names.contains(&"big.bin".to_string()));
    assert!(names.contains(&"small".to_string()));

    let mut env = crash_and_remount(env);
    let init = env.init_pid();
    assert_eq!(env.read_file_as(init, "/persist/big.bin").unwrap(), big);
    // Partial reads across extent boundaries behave.
    let fd = env
        .open(init, "/persist/big.bin", OpenFlags::read_only())
        .unwrap();
    env.lseek(init, fd, 4090).unwrap();
    assert_eq!(env.read(init, fd, 12).unwrap(), big[4090..4102].to_vec());
    env.close(init, fd).unwrap();
}

/// A tainted process cannot create records it could not modify, and a
/// labeled private directory under /persist hides its entries from
/// unprivileged listers at the kernel, not in the library.
#[test]
fn persist_private_directory_is_label_gated() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let bob = env.create_user("bob").unwrap();
    env.mkdir(init, "/persist/bob", Some(bob.private_file_label()))
        .unwrap();
    env.write_file_as(init, "/persist/bob/mail", b"private", None)
        .unwrap();
    // An unprivileged process cannot even look up inside the directory.
    let other = env.spawn(init, "/bin_other", None).unwrap();
    let err = env.read_file_as(other, "/persist/bob/mail").unwrap_err();
    assert!(
        matches!(err, UnixError::Kernel(SyscallError::CannotObserveRecord(_))),
        "got {err:?}"
    );
    assert!(env.readdir(other, "/persist/bob").is_err());
    // A process running as bob reads it (files inherit the directory's
    // label when created without an explicit one).
    let shell = env.spawn(init, "/bin_sh", Some("bob")).unwrap();
    assert_eq!(
        env.read_file_as(shell, "/persist/bob/mail").unwrap(),
        b"private"
    );
    let _ = Label::unrestricted();
}

/// Regression: a rename must be durable as a unit.  Renaming a fully
/// fsynced file and crashing used to log only the old entry's tombstone,
/// orphaning the file from both directories; now the new entry (and the
/// moved inode) are logged with it.
#[test]
fn persist_rename_then_crash_keeps_the_file_reachable() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.mkdir(init, "/persist/a", None).unwrap();
    env.mkdir(init, "/persist/b", None).unwrap();
    env.fsync_path(init, "/persist/a").unwrap();
    env.fsync_path(init, "/persist/b").unwrap();
    env.write_file_as(init, "/persist/a/f", b"move me", None)
        .unwrap();
    env.fsync_path(init, "/persist/a/f").unwrap();
    env.rename(init, "/persist/a/f", "/persist/b/g").unwrap();

    let mut env = crash_and_remount(env);
    let init = env.init_pid();
    assert_eq!(env.read_file_as(init, "/persist/b/g").unwrap(), b"move me");
    assert!(matches!(
        env.read_file_as(init, "/persist/a/f"),
        Err(UnixError::NotFound(_))
    ));
}

/// Regression: a vnode whose cached length went stale (another
/// descriptor's vnode grew the file) must not shrink the authoritative
/// inode length when it writes.
#[test]
fn persist_stale_length_cache_does_not_truncate_on_write() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    env.write_file_as(init, "/persist/f", b"0123456789", None)
        .unwrap();
    // fd1's vnode caches len = 10.
    let fd1 = env
        .open(
            init,
            "/persist/f",
            OpenFlags {
                read: true,
                write: true,
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(env.read(init, fd1, 10).unwrap(), b"0123456789");
    // fd2 (a separate open, separate vnode) grows the file.
    let fd2 = env
        .open(
            init,
            "/persist/f",
            OpenFlags {
                write: true,
                append: true,
                ..Default::default()
            },
        )
        .unwrap();
    let tail = vec![0xEEu8; 5000];
    env.write(init, fd2, &tail).unwrap();
    env.close(init, fd2).unwrap();
    // fd1 writes within its stale idea of the file; the real length must
    // survive.
    env.lseek(init, fd1, 2).unwrap();
    env.write(init, fd1, b"XY").unwrap();
    env.close(init, fd1).unwrap();
    let all = env.read_file_as(init, "/persist/f").unwrap();
    assert_eq!(all.len(), 10 + 5000, "stale cache must not shrink the file");
    assert_eq!(&all[..10], b"01XY456789");
    assert_eq!(&all[10..], &tail[..]);
}

/// `/metrics` is label-filtered end to end, and — unlike `/proc` — its
/// per-activity namespaces carry **no existence channel**: a reader that
/// cannot observe an activity's label gets the byte-identical `NotFound`
/// a genuinely missing entry produces, and directory listings silently
/// omit the entry.  The uncontained administrator (`init`, who owns the
/// metrics-gate category and the secret activity's category) sees the
/// full set.
#[test]
fn metrics_entries_are_label_filtered() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let init_thread = env.process(init).unwrap().thread;

    // High-secrecy activity: a container labeled with a fresh category
    // only init owns.
    let secret_cat = env.kernel_mut().trap_create_category(init_thread).unwrap();
    let kroot = env.kernel_mut().root_container();
    let secret = env
        .kernel_mut()
        .trap_container_create(
            init_thread,
            kroot,
            Label::unrestricted().with(secret_cat, Level::L3),
            "secret activity",
            0,
            1 << 16,
        )
        .unwrap();

    let reader = env.spawn(init, "/bin_reader", None).unwrap();
    let victim = env.spawn(init, "/bin_victim", None).unwrap();

    // The /metrics namespace itself is public: names, not contents.
    let names: Vec<String> = env
        .readdir(reader, "/metrics")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    for expected in [
        "kernel",
        "dispatch",
        "labels",
        "store",
        "sched",
        "tasks",
        "containers",
    ] {
        assert!(names.contains(&expected.to_string()), "missing {expected}");
    }

    // Global counter files aggregate every label's activity, so they are
    // gated like /proc gates a process — an explicit CannotObserve (the
    // file visibly exists; only its contents are privileged).
    let err = env.read_file_as(reader, "/metrics/kernel").unwrap_err();
    assert!(matches!(
        err,
        UnixError::Kernel(SyscallError::CannotObserve(_))
    ));
    let global = String::from_utf8(env.read_file_as(init, "/metrics/kernel").unwrap()).unwrap();
    assert!(global.contains("kernel.syscalls\t"), "got: {global}");
    assert!(global.contains("spans.recorded\t"), "got: {global}");

    // The store file carries the WAL group-commit counters — same gate:
    // privileged readers see them, the contained reader gets an explicit
    // CannotObserve.
    env.write_file_as(init, "/persist/gauged", b"count me", None)
        .unwrap();
    env.fsync_path(init, "/persist/gauged").unwrap();
    let store = String::from_utf8(env.read_file_as(init, "/metrics/store").unwrap()).unwrap();
    for counter in [
        "wal.frames\t",
        "wal.group_commits\t",
        "wal.records_coalesced\t",
        "wal.flush_batch.bucket.",
    ] {
        assert!(store.contains(counter), "missing {counter} in: {store}");
    }
    let err = env.read_file_as(reader, "/metrics/store").unwrap_err();
    assert!(matches!(
        err,
        UnixError::Kernel(SyscallError::CannotObserve(_))
    ));

    // The uncontained reader sees the secret container and its counters.
    let listed: Vec<String> = env
        .readdir(init, "/metrics/containers")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert!(listed.contains(&secret.raw().to_string()));
    let body = String::from_utf8(
        env.read_file_as(init, &format!("/metrics/containers/{}", secret.raw()))
            .unwrap(),
    )
    .unwrap();
    assert!(body.contains("container.entries\t"), "got: {body}");

    // The contained reader does not — and cannot tell the entry exists.
    let listed: Vec<String> = env
        .readdir(reader, "/metrics/containers")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert!(!listed.contains(&secret.raw().to_string()));
    let denied = env
        .read_file_as(reader, &format!("/metrics/containers/{}", secret.raw()))
        .unwrap_err();
    let missing = env
        .read_file_as(reader, "/metrics/containers/999999")
        .unwrap_err();
    // Structurally identical errors: NotFound carrying exactly the probed
    // path — no variant, payload or wording distinguishes "denied" from
    // "absent".
    assert!(
        matches!(denied, UnixError::NotFound(ref n)
            if *n == format!("/metrics/containers/{}", secret.raw())),
        "denial must read as absence, got {denied:?}"
    );
    assert!(
        matches!(missing, UnixError::NotFound(ref n) if n == "/metrics/containers/999999"),
        "got {missing:?}"
    );

    // Per-task entries are framed by each process's own secrecy category
    // (the spawner deliberately drops it after process creation): a
    // process reads its own measurements, and a sibling sees neither the
    // numbers nor the fact that the task is measured.
    let own = String::from_utf8(
        env.read_file_as(victim, &format!("/metrics/tasks/{victim}"))
            .unwrap(),
    )
    .unwrap();
    assert!(own.contains("task.syscalls\t"), "got: {own}");
    let tasks_as_init: Vec<String> = env
        .readdir(init, "/metrics/tasks")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert!(tasks_as_init.contains(&init.to_string()));
    assert!(!tasks_as_init.contains(&victim.to_string()));
    let tasks_as_reader: Vec<String> = env
        .readdir(reader, "/metrics/tasks")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert!(tasks_as_reader.contains(&reader.to_string()));
    assert!(!tasks_as_reader.contains(&victim.to_string()));
    let denied = env
        .read_file_as(reader, &format!("/metrics/tasks/{victim}"))
        .unwrap_err();
    assert!(
        matches!(denied, UnixError::NotFound(ref n)
            if *n == format!("/metrics/tasks/{victim}")),
        "task denial must read as absence, got {denied:?}"
    );
    assert!(matches!(
        env.read_file_as(reader, "/metrics/tasks/9999"),
        Err(UnixError::NotFound(_))
    ));
}

/// An open `/metrics` descriptor re-runs its label gate on every read:
/// a fork-inherited descriptor for the parent's own task entry yields
/// `NotFound` — not stale snapshot bytes, and not a telltale denial —
/// in the child, which does not own the parent's secrecy category.
#[test]
fn metrics_reads_recheck_labels_and_deny_as_absence() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let parent = env.spawn(init, "/bin_parent", None).unwrap();
    let fd = env
        .open(
            parent,
            &format!("/metrics/tasks/{parent}"),
            OpenFlags::read_only(),
        )
        .unwrap();
    assert!(!env.read(parent, fd, 8).unwrap().is_empty());

    let child = env.fork(parent).unwrap();
    let err = env.read(child, fd, 8).unwrap_err();
    assert!(
        matches!(err, UnixError::NotFound(_)),
        "inherited gated descriptor must deny as absence, got {err:?}"
    );
    // The failed read did not move the shared position, and closing the
    // inherited descriptor still works.
    let rest = env.read(parent, fd, u64::MAX).unwrap();
    assert!(!rest.is_empty());
    env.close(child, fd).unwrap();
    env.close(parent, fd).unwrap();
}

/// `fork` gives the child what its parent's thread owns *now*, read from
/// the one place that knows — the kernel's thread object — and not from a
/// list the library keeps beside it.  A category the parent allocated with
/// a bare `create_category` was on no such list, so the child used to be
/// born without it; a category the parent has renounced must not come back.
#[test]
fn fork_hands_the_child_what_the_parent_owns_now() {
    use histar_unix::gatecall::{drop_categories, grant_categories};

    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let owns = |env: &UnixEnv, pid, c| {
        let thread = env.process(pid).unwrap().thread;
        env.machine().kernel().thread_label(thread).unwrap().owns(c)
    };

    // Allocated by the parent's own thread and recorded nowhere else.
    let p = env.spawn(init, "/bin_p", None).unwrap();
    let p_thread = env.process(p).unwrap().thread;
    let c = env.kernel_mut().trap_create_category(p_thread).unwrap();
    let child = env.fork(p).unwrap();
    assert!(owns(&env, child, c), "child owns: false");
    // Processes stay isolated: the parent's own `pr`/`pw` are not inherited.
    let parent_pr = env.process(p).unwrap().read_cat;
    assert!(!owns(&env, child, parent_pr));

    // Received through a gate, then renounced: the child does not get it.
    let q = env.spawn(init, "/bin_q", None).unwrap();
    grant_categories(&mut env, p, q, &[c]).unwrap();
    assert!(owns(&env, q, c));
    drop_categories(&mut env, q, &[c]).unwrap();
    let child = env.fork(q).unwrap();
    assert!(!owns(&env, child, c));
}

/// Shared world for the blocking-semantics test below: two scheduled
/// programs around one pipe, with per-program turn counters.
struct PipeWorld {
    env: UnixEnv,
    reader_turns: u64,
    writer_turns: u64,
    got: Vec<u8>,
}

impl SchedContext for PipeWorld {
    fn sched_kernel(&mut self) -> &mut Kernel {
        self.env.machine_mut().kernel_mut()
    }
}

/// `read(2)` semantics on a pipe: a reader parked on an empty pipe
/// consumes **zero quanta** until the writer's bytes wake it.  The reader
/// runs exactly twice — the attempt that parks it and the turn after the
/// kernel's readiness completion — no matter how long the writer dawdles
/// first, and the scheduler's quanta bill covers only turns that actually
/// ran.
#[test]
fn reader_parked_on_empty_pipe_consumes_zero_quanta_until_woken() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let reader = env.spawn(init, "/bin/reader", None).unwrap();
    let writer = env.spawn(init, "/bin/writer", None).unwrap();
    // The pipe is created in the reader and its write end handed to the
    // writer; the reader drops its own copy so exactly one writer holds
    // the ring.
    let (rfd, wfd_local) = env.pipe(reader).unwrap();
    let wfd = env.share_fd(reader, wfd_local, writer).unwrap();
    env.close(reader, wfd_local).unwrap();

    let reader_thread = env.process(reader).unwrap().thread;
    let writer_thread = env.process(writer).unwrap().thread;

    const WRITER_SPINS: u64 = 40;
    let mut sched: Scheduler<PipeWorld> = Scheduler::new(SchedConfig::new().seed(0xb10c));
    sched.spawn(
        reader_thread,
        Box::new(move |world: &mut PipeWorld, _tid| {
            world.reader_turns += 1;
            match world.env.read_blocking(reader, rfd, 64).unwrap() {
                None => Step::Block,
                Some(data) => {
                    world.got.extend_from_slice(&data);
                    Step::Done
                }
            }
        }),
    );
    sched.spawn(
        writer_thread,
        Box::new(move |world: &mut PipeWorld, _tid| {
            world.writer_turns += 1;
            if world.writer_turns <= WRITER_SPINS {
                return Step::Yield;
            }
            let wrote = world.env.write_blocking(writer, wfd, b"wake up").unwrap();
            assert_eq!(wrote, Some(7));
            world.env.close(writer, wfd).unwrap();
            Step::Done
        }),
    );

    let mut world = PipeWorld {
        env,
        reader_turns: 0,
        writer_turns: 0,
        got: Vec::new(),
    };
    let report = sched.run(&mut world, RunLimit::to_completion());

    assert_eq!(report.stop, StopReason::AllComplete);
    assert_eq!(world.got, b"wake up");
    assert_eq!(
        world.reader_turns, 2,
        "a parked reader must not be scheduled while the pipe stays empty"
    );
    assert_eq!(world.writer_turns, WRITER_SPINS + 1);
    // Blocked threads are billed nothing: the total quanta are exactly
    // the turns the two programs actually took.
    assert_eq!(
        sched.stats().quanta,
        world.reader_turns + world.writer_turns,
        "parked turns must cost zero quanta"
    );
    // The wake came from the kernel's readiness completion on the pipe
    // segment, not from polling.
    assert!(
        sched.stats().completion_wakeups >= 1,
        "the reader's wake must be a kernel completion"
    );
}

/// A finished scheduler run publishes its counters into the kernel's
/// metric registry, so `/metrics/sched` serves them — aggregate counters
/// and the per-shard queue gauges — behind the same global-file gate as
/// the other counter files.
#[test]
fn scheduler_counters_are_served_at_metrics_sched() {
    let mut env = UnixEnv::boot();
    let init = env.init_pid();
    let worker = env.spawn(init, "/bin/worker", None).unwrap();
    let worker_thread = env.process(worker).unwrap().thread;

    struct W {
        env: UnixEnv,
    }
    impl SchedContext for W {
        fn sched_kernel(&mut self) -> &mut Kernel {
            self.env.machine_mut().kernel_mut()
        }
    }

    let mut sched: Scheduler<W> = Scheduler::new(SchedConfig::new().seed(7).shards(4));
    let mut steps = 0u32;
    sched.spawn(
        worker_thread,
        Box::new(move |_w: &mut W, _tid| {
            steps += 1;
            if steps < 3 {
                Step::Yield
            } else {
                Step::Done
            }
        }),
    );
    let mut world = W { env };
    let report = sched.run(&mut world, RunLimit::to_completion());
    assert_eq!(report.stop, StopReason::AllComplete);

    let text = String::from_utf8(world.env.read_file_as(init, "/metrics/sched").unwrap()).unwrap();
    for line in [
        "sched.quanta\t3",
        "sched.completed\t1",
        "sched.shard_queue_depth.0\t",
        "sched.shard_queue_depth.3\t",
        "sched.shard_parked.0\t",
        "sched.parked_high_water\t",
    ] {
        assert!(text.contains(line), "missing {line} in: {text}");
    }
    // Only sched.* counters live here; the kernel file keeps its own.
    assert!(!text.contains("kernel.syscalls"));
}
