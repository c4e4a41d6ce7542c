//! Property-style tests of the one way into the kernel: every [`Syscall`]
//! row behaves the same whether it traps alone through `Kernel::dispatch`
//! or rides any split of `Kernel::submit_calls` batches, a caller that is
//! halted or names no thread is refused on every row before anything else
//! happens, and a failing call is counted once — the kernel's totals
//! ([`SyscallStats`]) always equal the per-row sums (`DispatchStats`).
//!
//! Kernels are built from one seed by one deterministic setup script, so
//! object IDs, category names and labels coincide exactly across them.  A
//! coverage check guarantees no syscall row is left untested.

use histar_kernel::abi::Completion;
use histar_kernel::bodies::{DeviceBody, Mapping, MappingFlags, ObjectBody};
use histar_kernel::dispatch::{Syscall, SyscallResult, SYSCALL_COUNT, SYSCALL_NAMES};
use histar_kernel::kernel::PAGE_SIZE;
use histar_kernel::object::{ContainerEntry, ObjectId, ObjectType, METADATA_LEN};
use histar_kernel::syscall::{SyscallError, SyscallStats};
use histar_kernel::{Kernel, Machine, MachineConfig};
use histar_label::{Category, Label, Level};
use histar_sim::{CostModel, OsFlavor, SimClock};
use histar_store::records::inode_key;
use histar_store::{SingleLevelStore, StoreConfig, PERSIST_KEY_BASE};

/// Deterministic fixture shared by every kernel `setup` builds.
struct Fx {
    root: ObjectId,
    boot: ObjectId,
    peer: ObjectId,
    cat: Category,
    cat2: Category,
    dir: ObjectId,
    seg: ObjectId,
    fixed: ObjectId,
    aspace: ObjectId,
    gate: ObjectId,
    gate_label: Label,
    dev: ObjectId,
    /// A pre-created persist record (the store is attached in setup).
    pkey: u64,
}

fn entry(fx: &Fx, o: ObjectId) -> ContainerEntry {
    ContainerEntry::new(fx.root, o)
}

/// Builds one kernel with a rich, fully deterministic state touching every
/// object type.
fn setup() -> (Kernel, Fx) {
    let mut k = Kernel::new(0x0d15_ea5e, Some(SimClock::new()));
    // A deterministic store so the persist-record syscalls are live.
    k.attach_store(SingleLevelStore::format(
        StoreConfig::default(),
        SimClock::new(),
    ));
    let root = k.root_container();
    let boot = k
        .bootstrap_thread(
            root,
            Label::unrestricted(),
            Label::default_clearance(),
            "init",
        )
        .unwrap();
    let cat = k.trap_create_category(boot).unwrap();
    let cat2 = k.trap_create_category(boot).unwrap();
    let dir = k
        .trap_container_create(boot, root, Label::unrestricted(), "dir", 0, 1 << 20)
        .unwrap();
    let seg = k
        .trap_segment_create(boot, root, Label::unrestricted(), 256, "seg")
        .unwrap();
    k.trap_segment_write(boot, ContainerEntry::new(root, seg), 0, b"deterministic")
        .unwrap();
    let fixed = k
        .trap_segment_create(boot, root, Label::unrestricted(), 64, "fixed")
        .unwrap();
    k.trap_obj_set_fixed_quota(boot, ContainerEntry::new(root, fixed))
        .unwrap();
    let aspace = k
        .trap_as_create(boot, root, Label::unrestricted(), "as")
        .unwrap();
    k.trap_as_map(
        boot,
        ContainerEntry::new(root, aspace),
        Mapping {
            va: 0x10_0000,
            segment: ContainerEntry::new(root, seg),
            offset: 0,
            npages: 1,
            flags: MappingFlags::rw(),
        },
    )
    .unwrap();
    k.trap_self_set_as(boot, ContainerEntry::new(root, aspace))
        .unwrap();
    let gate_label = k.thread_label(boot).unwrap();
    let gate = k
        .trap_gate_create(
            boot,
            root,
            gate_label.clone(),
            Label::default_clearance(),
            None,
            0x40,
            vec![7, 8],
            "gate",
        )
        .unwrap();
    // The peer inherits boot's address space, so alerts can reach both.
    let peer = k
        .trap_thread_create(
            boot,
            root,
            Label::unrestricted(),
            Label::default_clearance(),
            0,
            "peer",
        )
        .unwrap();
    // One pending alert for boot, so SelfTakeAlert has something to take.
    k.trap_thread_alert(peer, ContainerEntry::new(root, boot), 5)
        .unwrap();
    let dev = k
        .boot_create_device(
            root,
            Label::unrestricted(),
            DeviceBody::network([2, 2, 2, 2, 2, 2]),
            "eth0",
        )
        .unwrap();
    k.device_inject_rx(dev, vec![0xcc, 0xdd]).unwrap();
    let pkey = inode_key(42);
    k.trap_persist_put(
        boot,
        pkey,
        Some(Label::unrestricted()),
        0,
        b"persist-fixture",
    )
    .unwrap();
    (
        k,
        Fx {
            root,
            boot,
            peer,
            cat,
            cat2,
            dir,
            seg,
            fixed,
            aspace,
            gate,
            gate_label,
            dev,
            pkey,
        },
    )
}

fn cases(fx: &Fx) -> Vec<Syscall> {
    let e_seg = entry(fx, fx.seg);
    let e_fixed = entry(fx, fx.fixed);
    let e_dir = entry(fx, fx.dir);
    let e_as = entry(fx, fx.aspace);
    let e_gate = entry(fx, fx.gate);
    let e_dev = entry(fx, fx.dev);
    let e_peer = entry(fx, fx.peer);
    let tainted = Label::builder().own(fx.cat).set(fx.cat2, Level::L2).build();
    let raised_clearance = Label::default_clearance().with(fx.cat2, Level::L3);
    let new_mapping = Mapping {
        va: 0x20_0000,
        segment: e_seg,
        offset: 0,
        npages: 1,
        flags: MappingFlags::ro(),
    };

    vec![
        Syscall::CreateCategory,
        Syscall::SelfSetLabel { label: tainted },
        Syscall::SelfSetClearance {
            clearance: raised_clearance,
        },
        Syscall::SelfGetLabel,
        Syscall::SelfGetClearance,
        Syscall::ContainerCreate {
            parent: fx.root,
            label: Label::unrestricted(),
            descrip: "c2".into(),
            avoid_types: 0,
            quota: 1 << 16,
        },
        Syscall::ObjUnref { entry: e_dir },
        Syscall::HardLink {
            entry: e_fixed,
            dst: fx.dir,
        },
        Syscall::ContainerQuotaAvail { container: fx.dir },
        Syscall::ContainerGetParent { container: fx.dir },
        Syscall::ContainerList { container: fx.root },
        Syscall::QuotaMove {
            container: fx.root,
            object: fx.dir,
            delta: 4096,
        },
        Syscall::ObjGetLabel { entry: e_seg },
        Syscall::ObjGetMetadata { entry: e_seg },
        Syscall::ObjSetMetadata {
            entry: e_seg,
            metadata: [7; METADATA_LEN],
        },
        Syscall::ObjSetImmutable { entry: e_seg },
        Syscall::ObjSetFixedQuota { entry: e_seg },
        Syscall::SegmentCreate {
            container: fx.root,
            label: Label::unrestricted(),
            len: 64,
            descrip: "new".into(),
        },
        Syscall::SegmentResize {
            entry: e_seg,
            len: 512,
        },
        Syscall::SegmentRead {
            entry: e_seg,
            offset: 0,
            len: 13,
        },
        Syscall::SegmentWrite {
            entry: e_seg,
            offset: 4,
            data: b"xyz".to_vec(),
        },
        Syscall::SegmentLen { entry: e_seg },
        Syscall::SegmentCopy {
            src: e_seg,
            dst_container: fx.root,
            label: Label::unrestricted(),
            descrip: "copy".into(),
        },
        Syscall::AsCreate {
            container: fx.root,
            label: Label::unrestricted(),
            descrip: "as2".into(),
        },
        Syscall::AsMap {
            aspace: e_as,
            mapping: new_mapping,
        },
        Syscall::SelfSetAs { aspace: e_as },
        Syscall::ThreadCreate {
            container: fx.root,
            label: Label::unrestricted(),
            clearance: Label::default_clearance(),
            entry_point: 9,
            descrip: "t2".into(),
        },
        Syscall::SelfHalt,
        Syscall::ThreadAlert {
            target: e_peer,
            code: 3,
        },
        Syscall::SelfTakeAlert,
        Syscall::ThreadGetLabel { target: e_peer },
        Syscall::GateCreate {
            container: fx.root,
            label: fx.gate_label.clone(),
            clearance: Label::default_clearance(),
            address_space: Some(e_as),
            entry_point: 0x44,
            closure_args: vec![1],
            descrip: "g2".into(),
        },
        Syscall::GateEnter {
            gate: e_gate,
            requested: fx.gate_label.clone(),
            requested_clearance: Label::default_clearance(),
            verify: Label::unrestricted(),
        },
        Syscall::GateClearance { gate: e_gate },
        Syscall::NetTransmit {
            device: e_dev,
            frame: vec![0xee],
        },
        Syscall::NetReceive { device: e_dev },
        Syscall::PersistPut {
            key: inode_key(43),
            label: Some(Label::unrestricted()),
            offset: 4,
            data: b"spliced".to_vec(),
        },
        Syscall::PersistRead {
            key: fx.pkey,
            offset: 0,
            len: u64::MAX,
        },
        Syscall::PersistDelete { key: fx.pkey },
        Syscall::PersistScan {
            lo: PERSIST_KEY_BASE,
            hi: u64::MAX,
            max: 64,
        },
        Syscall::PersistSync {
            keys: vec![fx.pkey],
        },
        Syscall::PersistGetLabel { key: fx.pkey },
        Syscall::SegmentWatch { entry: e_seg },
        Syscall::ObjSync {
            entry: e_fixed,
            pages: Some(vec![0]),
        },
    ]
}

/// The kernel's totals are the per-row counts summed: every call and
/// every failure is counted once, at one point of the one dispatch path.
fn assert_totals_agree(k: &Kernel) {
    assert_eq!(k.stats().syscalls, k.dispatch_stats().total());
    assert_eq!(k.stats().errors, k.dispatch_stats().total_errors());
}

/// Everything one execution of the full call sequence observed: per-call
/// results, the aggregate kernel counters (which include every label
/// check), the object-table size, and the audit-trace contents (tick
/// excluded — batching amortizes charged time by design; everything else
/// must be bit-identical).
#[derive(Debug, PartialEq)]
struct SequenceObservation {
    results: Vec<Result<SyscallResult, SyscallError>>,
    stats: SyscallStats,
    objects: usize,
    trace: Vec<(u64, ObjectId, &'static str, bool)>,
}

/// Runs the full every-variant call sequence against a fresh kernel, split
/// into submission batches of the given (cycled) sizes.  `sizes = [1]`
/// with `via_trap = true` is the classic one-call-per-trap stream.
fn run_sequence_in_batches(sizes: &[usize], via_trap: bool) -> SequenceObservation {
    let (mut k, fx) = setup();
    let calls = cases(&fx);
    let before = k.dispatch_stats();
    k.enable_syscall_trace(4 * SYSCALL_COUNT);

    let mut results = Vec::with_capacity(calls.len());
    let mut sizes_cycle = sizes.iter().copied().cycle();
    let mut remaining = &calls[..];
    while !remaining.is_empty() {
        let n = sizes_cycle.next().unwrap().clamp(1, remaining.len());
        let (chunk, rest) = remaining.split_at(n);
        remaining = rest;
        if via_trap {
            for call in chunk {
                results.push(k.dispatch(fx.boot, call.clone()));
            }
        } else {
            let done = k.submit_calls(fx.boot, chunk.to_vec());
            assert_eq!(done.len(), n);
            results.extend(done);
        }
    }

    let trace: Vec<(u64, ObjectId, &'static str, bool)> = k
        .syscall_trace()
        .expect("trace enabled")
        .records()
        .map(|r| (r.seq, r.tid, r.syscall, r.ok))
        .collect();
    // The ring was sized to hold the whole sequence: any eviction here
    // means the comparison below would silently cover a truncated trace.
    assert_eq!(
        k.dispatch_stats().trace_dropped,
        0,
        "audit trace must not drop records during the equivalence sweep"
    );
    let counted = k.dispatch_stats().since(&before);
    assert!(
        counted.invocations.iter().all(|&n| n == 1),
        "every row must count exactly one invocation: {:?}",
        counted.nonzero()
    );
    assert_totals_agree(&k);
    SequenceObservation {
        results,
        stats: k.stats(),
        objects: k.object_count(),
        trace,
    }
}

#[test]
fn any_batch_split_is_equivalent_to_one_call_per_trap() {
    // The property the batched ABI must preserve: for the full every-variant
    // sequence, results, label-check counts (inside `SyscallStats`), audit
    // trace and object-table evolution are identical whether the calls
    // trap one at a time or in arbitrary batch splits.

    // Coverage: the case list is the table in row order, so it touches
    // every ABI index exactly once, at its row position.
    let all = cases(&setup().1);
    assert_eq!(all.len(), SYSCALL_COUNT);
    for (i, call) in all.iter().enumerate() {
        assert_eq!(
            call.index(),
            i,
            "{}: index is the row position",
            call.name()
        );
        assert_eq!(call.name(), SYSCALL_NAMES[i]);
    }

    let reference = run_sequence_in_batches(&[1], true);
    assert_eq!(reference.results.len(), SYSCALL_COUNT);
    // The trace is continuous from seq 0 with one record per call.
    for (i, rec) in reference.trace.iter().enumerate() {
        assert_eq!(rec.0, i as u64, "TraceRecord.seq must be continuous");
    }

    for sizes in [
        vec![1],                      // 1-entry batches (the trap_* shim path)
        vec![SYSCALL_COUNT],          // one giant batch
        vec![2],                      // pairs
        vec![3, 1, 4, 1, 5, 9, 2, 6], // arbitrary mixed splits
        vec![7, 13],
    ] {
        let split = run_sequence_in_batches(&sizes, false);
        assert_eq!(
            split, reference,
            "batch split {sizes:?} must observe exactly the sequential stream"
        );
    }
}

#[test]
fn submit_calls_skips_kernel_notifications_pushed_mid_batch() {
    // An entry inside the batch can alert the submitting thread itself,
    // interleaving a kernel-originated AlertPending completion between
    // the batch's own completions.  submit_calls must still hand back
    // exactly the submitted calls' results, in order, and leave the
    // notification queued for the thread to reap.
    let (mut k, fx) = setup();
    let _ = k.reap_completions(fx.boot);
    let results = k.submit_calls(
        fx.boot,
        vec![
            Syscall::CreateCategory,
            Syscall::ThreadAlert {
                target: ContainerEntry::new(fx.root, fx.boot),
                code: 7,
            },
            Syscall::SelfGetLabel,
        ],
    );
    assert_eq!(results.len(), 3);
    assert!(matches!(results[0], Ok(SyscallResult::Category(_))));
    assert_eq!(results[1], Ok(SyscallResult::Unit));
    assert!(matches!(results[2], Ok(SyscallResult::Label(_))));
    let left = k.reap_completions(fx.boot);
    assert_eq!(
        left,
        vec![Completion::AlertPending { code: 7 }],
        "the alert notification stays queued"
    );
}

#[test]
fn batch_that_tears_down_its_own_thread_still_reports_every_result() {
    // An entry may unref the calling thread's last link, deallocating the
    // thread (and its completion queue) mid-batch.  submit_calls must
    // still return one aligned result per entry, and the dead thread's
    // queue must not be resurrected for completions nobody can reap.
    let (mut k, fx) = setup();
    let objects_before = k.object_count();
    let results = k.submit_calls(
        fx.boot,
        vec![
            Syscall::CreateCategory,
            Syscall::ObjUnref {
                entry: ContainerEntry::new(fx.root, fx.boot),
            },
            Syscall::SelfGetLabel,
        ],
    );
    assert_eq!(results.len(), 3);
    assert!(matches!(results[0], Ok(SyscallResult::Category(_))));
    assert_eq!(results[1], Ok(SyscallResult::Unit));
    assert_eq!(
        results[2],
        Err(SyscallError::NoSuchObject(fx.boot)),
        "entries after the teardown fail like any call from a dead thread"
    );
    assert_eq!(k.object_count(), objects_before - 1, "the thread is gone");
    // The thread's runtime state is part of the thread: nothing outlives it.
    assert_eq!(k.completion_count(fx.boot), 0);
    assert_eq!(k.thread_syscalls(fx.boot), 0);
}

#[test]
fn dispatch_on_an_id_that_is_not_a_thread_fails_typed_and_leaves_no_state() {
    let (mut k, fx) = setup();
    for bogus in [fx.seg, ObjectId::from_raw(0x7777)] {
        let err = k.dispatch(bogus, Syscall::SelfGetLabel).unwrap_err();
        assert!(
            matches!(
                err,
                SyscallError::WrongType { .. } | SyscallError::NoSuchObject(_)
            ),
            "{err:?}"
        );
        assert_eq!(
            k.submit_calls(bogus, vec![Syscall::SelfGetLabel]),
            [Err(err)]
        );
        assert_eq!(k.thread_syscalls(bogus), 0);
        assert_eq!(k.completion_count(bogus), 0);
    }
}

#[test]
fn taking_an_alert_consumes_its_notification() {
    let (mut k, fx) = setup();
    let _ = k.reap_completions(fx.boot);
    k.trap_thread_alert(fx.boot, entry(&fx, fx.boot), 9)
        .unwrap();
    assert_eq!(k.completion_count(fx.boot), 1);
    // Claiming the alert removes the notification with it — otherwise a
    // blocked thread would be re-woken by the stale completion forever.
    // (The fixture queued one alert during setup; drain both.)
    assert!(k.trap_self_take_alert(fx.boot).unwrap().is_some());
    assert!(k.trap_self_take_alert(fx.boot).unwrap().is_some());
    assert_eq!(k.completion_count(fx.boot), 0);
}

#[test]
fn a_halted_or_missing_caller_is_refused_on_every_row() {
    // The trap looks the caller up before any handler runs, so no row can
    // forget to: a refused call costs one boundary crossing, is counted
    // once (kernel total and row together) and touches nothing else.
    let (mut k, fx) = setup();
    k.trap_self_halt(fx.peer).unwrap();
    let crossing = CostModel::for_flavor(OsFlavor::HiStar).syscall;
    let e_seg = entry(&fx, fx.seg);
    let callers = [
        (fx.peer, SyscallError::ThreadHalted(fx.peer)),
        (
            fx.seg,
            SyscallError::WrongType {
                found: ObjectType::Segment,
                expected: ObjectType::Thread,
            },
        ),
        (
            ObjectId::from_raw(0x7777),
            SyscallError::NoSuchObject(ObjectId::from_raw(0x7777)),
        ),
    ];
    for call in cases(&fx) {
        let name = call.name();
        for (tid, refusal) in &callers {
            let (stats, rows, objects, now) =
                (k.stats(), k.dispatch_stats(), k.object_count(), k.now());
            let queued = k.completion_count(*tid);
            assert_eq!(
                k.dispatch(*tid, call.clone()),
                Err(refusal.clone()),
                "{name}"
            );
            assert_eq!(k.now() - now, crossing, "{name}: one charged crossing");
            assert_eq!(
                k.stats(),
                SyscallStats {
                    syscalls: stats.syscalls + 1,
                    errors: stats.errors + 1,
                    ..stats
                },
                "{name}: one call, one error, nothing else"
            );
            let counted = k.dispatch_stats().since(&rows);
            assert_eq!(
                counted.nonzero(),
                [(name, 1, 1)],
                "{name}: the row's counts"
            );
            assert_eq!(k.object_count(), objects, "{name}: no object appears");
            // No watcher list grew: a write to the one segment a row could
            // have registered a watch on wakes nobody new.
            k.trap_segment_write(fx.boot, e_seg, 0, b"w").unwrap();
            assert_eq!(k.completion_count(*tid), queued, "{name}: no watch left");
        }
    }
    assert_totals_agree(&k);
}

#[test]
fn failing_calls_dispatch_identically_too() {
    // A failure is a result like any other: the typed error comes back,
    // the kernel total and the row's own error count move by one together,
    // and the object table is untouched.
    let (mut k, fx) = setup();
    let e_seg = entry(&fx, fx.seg);
    let bogus = ContainerEntry::new(fx.root, ObjectId::from_raw(0x7777));
    // What `peer` (no categories) may not do: read a container tainted
    // `cat 3`, or write a segment `cat 0` protects.
    let vault = k
        .trap_container_create(
            fx.boot,
            fx.root,
            Label::unrestricted().with(fx.cat, Level::L3),
            "vault",
            0,
            1 << 16,
        )
        .unwrap();
    let read_only = k
        .trap_segment_create(
            fx.boot,
            fx.root,
            Label::unrestricted().with(fx.cat, Level::L0),
            64,
            "ro",
        )
        .unwrap();

    let failures = [
        (
            "read beyond end",
            fx.boot,
            Syscall::SegmentRead {
                entry: e_seg,
                offset: 1000,
                len: 10,
            },
            SyscallError::InvalidArgument("read beyond end of segment"),
        ),
        (
            "unref root",
            fx.boot,
            Syscall::ObjUnref {
                entry: ContainerEntry::self_entry(fx.root),
            },
            SyscallError::RootContainer,
        ),
        (
            "no such object",
            fx.boot,
            Syscall::SegmentLen { entry: bogus },
            SyscallError::NotInContainer {
                container: fx.root,
                object: bogus.object,
            },
        ),
        (
            "over-privileged gate entry",
            fx.boot,
            Syscall::GateEnter {
                gate: entry(&fx, fx.gate),
                requested: Label::builder().own(Category::from_raw(999_999)).build(),
                requested_clearance: Label::default_clearance(),
                verify: Label::unrestricted(),
            },
            SyscallError::Label(histar_label::LabelError::LabelNotMonotonic),
        ),
        (
            "watch on a missing object",
            fx.boot,
            Syscall::SegmentWatch { entry: bogus },
            SyscallError::NotInContainer {
                container: fx.root,
                object: bogus.object,
            },
        ),
        (
            "hard link of a segment whose quota is not fixed",
            fx.boot,
            Syscall::HardLink {
                entry: e_seg,
                dst: fx.dir,
            },
            SyscallError::QuotaNotFixed(fx.seg),
        ),
        (
            "sync through a container that does not hold the object",
            fx.boot,
            Syscall::ObjSync {
                entry: ContainerEntry::new(fx.dir, fx.seg),
                pages: None,
            },
            SyscallError::NotInContainer {
                container: fx.dir,
                object: fx.seg,
            },
        ),
        (
            "sync through an unreadable container",
            fx.peer,
            Syscall::ObjSync {
                entry: ContainerEntry::new(vault, fx.seg),
                pages: Some(vec![0]),
            },
            SyscallError::CannotObserve(vault),
        ),
        (
            "sync by a read-only caller",
            fx.peer,
            Syscall::ObjSync {
                entry: entry(&fx, read_only),
                pages: None,
            },
            SyscallError::CannotModify(read_only),
        ),
    ];
    for (what, tid, call, error) in failures {
        let (stats, rows, objects) = (k.stats(), k.dispatch_stats(), k.object_count());
        let wal = k.store().unwrap().wal_stats();
        let name = call.name();
        assert_eq!(k.dispatch(tid, call), Err(error), "{what}");
        assert_eq!(k.stats().errors, stats.errors + 1, "{what}: kernel total");
        let counted = k.dispatch_stats().since(&rows);
        assert_eq!(counted.nonzero(), [(name, 1, 1)], "{what}: row counts");
        assert_eq!(k.object_count(), objects, "{what}: object table untouched");
        assert_eq!(
            k.store().unwrap().wal_stats(),
            wal,
            "{what}: nothing logged"
        );
        assert_totals_agree(&k);
    }

    // Without a store there is nothing to sync into — said after the
    // checks, so a refused caller learns nothing about the machine.
    let mut bare_kernel = Kernel::new(1, None);
    let root = bare_kernel.root_container();
    let tid = bare_kernel
        .bootstrap_thread(
            root,
            Label::unrestricted(),
            Label::default_clearance(),
            "init",
        )
        .unwrap();
    assert_eq!(
        bare_kernel.trap_obj_sync(tid, ContainerEntry::self_entry(root), None),
        Err(SyscallError::NoStore)
    );
}

/// A machine holding one three-page segment that has a home record (it was
/// snapshotted) and whose page 1 has been rewritten since.
fn machine_with_a_homed_segment() -> (Machine, ObjectId, ContainerEntry) {
    let mut m = Machine::boot(MachineConfig::default());
    let tid = m.kernel_thread();
    let root = m.kernel().root_container();
    let k = m.kernel_mut();
    let seg = k
        .trap_segment_create(tid, root, Label::unrestricted(), 3 * PAGE_SIZE, "file")
        .unwrap();
    let e = ContainerEntry::new(root, seg);
    k.trap_segment_write(tid, e, 0, &vec![0xaa; 3 * PAGE_SIZE as usize])
        .unwrap();
    m.snapshot();
    m.kernel_mut()
        .trap_segment_write(tid, e, PAGE_SIZE, &[0xbb; PAGE_SIZE as usize])
        .unwrap();
    (m, tid, e)
}

fn segment_bytes(m: &Machine, seg: ObjectId) -> Vec<u8> {
    match &m.kernel().raw_object(seg).expect("the segment exists").body {
        ObjectBody::Segment(s) => s.bytes.clone(),
        other => panic!("not a segment: {other:?}"),
    }
}

#[test]
fn obj_sync_succeeds_identically_alone_and_in_a_batch() {
    // The sweeps above reach `obj_sync` after `self_halt`, as a refusal.
    // Its two success shapes — pages flushed in place into the home record
    // a snapshot left, then the whole object logged — must also be the same
    // call whether each traps alone or both share a batch: same results,
    // same checks, same audit stream, same disk writes.
    let observe = |batched: bool| {
        let (mut m, tid, e) = machine_with_a_homed_segment();
        let before = (m.store().stats(), m.store().wal_stats());
        let disk = m.store().disk_stats();
        let k = m.kernel_mut();
        k.enable_syscall_trace(8);
        let calls = vec![
            Syscall::ObjSync {
                entry: e,
                pages: Some(vec![1]),
            },
            Syscall::ObjSync {
                entry: e,
                pages: None,
            },
        ];
        let results = if batched {
            k.submit_calls(tid, calls)
        } else {
            calls.into_iter().map(|c| k.dispatch(tid, c)).collect()
        };
        assert_eq!(results, [Ok(SyscallResult::Unit), Ok(SyscallResult::Unit)]);
        assert_totals_agree(k);
        let trace: Vec<_> = k
            .syscall_trace()
            .unwrap()
            .records()
            .map(|r| (r.seq, r.tid, r.syscall, r.ok))
            .collect();
        assert_eq!(
            trace,
            [(0, tid, "obj_sync", true), (1, tid, "obj_sync", true)]
        );
        let stats = k.stats();
        let (store, wal) = (m.store().stats(), m.store().wal_stats());
        // One in-place flush, then one one-record frame: two disk flushes.
        assert_eq!(store.inplace_flushes, before.0.inplace_flushes + 1);
        assert_eq!(wal.frames, before.1.frames + 1);
        assert_eq!(wal.appends, before.1.appends + 1);
        let now = m.store().disk_stats();
        assert_eq!(now.flushes, disk.flushes + 2);
        (stats, store, wal, now.writes, now.bytes_written)
    };
    assert_eq!(observe(true), observe(false));
}

#[test]
fn a_shared_descriptors_links_and_a_forks_copy_dispatch_identically() {
    // The shapes the Unix library makes of `hard_link`, `obj_unref` and
    // `segment_copy` (§5.3's descriptor lifetime, `fork`'s memory copy): a
    // fixed-quota segment linked into a second container survives the
    // unref of its first link and dies at the second; a copy lands in
    // another container under a different label.  Alone or in one batch:
    // same results, same checks, same audit stream.
    let observe = |batched: bool| {
        let (mut k, fx) = setup();
        let (first, second) = (entry(&fx, fx.fixed), ContainerEntry::new(fx.dir, fx.fixed));
        let secret = Label::unrestricted().with(fx.cat, Level::L3);
        let read = |entry| Syscall::SegmentRead {
            entry,
            offset: 0,
            len: 1,
        };
        let calls = vec![
            Syscall::HardLink {
                entry: first,
                dst: fx.dir,
            },
            Syscall::ObjUnref { entry: first },
            read(second),
            Syscall::SegmentCopy {
                src: second,
                dst_container: fx.dir,
                label: secret.clone(),
                descrip: "copy".into(),
            },
            Syscall::ObjUnref { entry: second },
            read(second),
        ];
        k.enable_syscall_trace(8);
        let results = if batched {
            k.submit_calls(fx.boot, calls)
        } else {
            calls.into_iter().map(|c| k.dispatch(fx.boot, c)).collect()
        };
        assert_eq!(
            results[..3],
            [
                Ok(SyscallResult::Unit),
                Ok(SyscallResult::Unit),
                Ok(SyscallResult::Bytes(vec![0]))
            ]
        );
        let Ok(SyscallResult::ObjectId(copy)) = results[3] else {
            panic!("segment_copy: {:?}", results[3]);
        };
        let copied = k.raw_object(copy).expect("the copy outlives its source");
        assert_eq!(copied.header.label, secret);
        assert_eq!(
            k.trap_container_list(fx.boot, fx.dir).unwrap(),
            [copy],
            "the copy is what is left in the second container"
        );
        assert_eq!(results[4], Ok(SyscallResult::Unit));
        assert!(k.raw_object(fx.fixed).is_none(), "freed with its last link");
        assert_eq!(
            results[5],
            Err(SyscallError::NotInContainer {
                container: fx.dir,
                object: fx.fixed
            })
        );
        assert_totals_agree(&k);
        let trace: Vec<_> = k
            .syscall_trace()
            .unwrap()
            .records()
            .map(|r| (r.seq, r.syscall, r.ok))
            .collect();
        (results, k.stats(), k.object_count(), trace)
    };
    assert_eq!(observe(true), observe(false));
}

#[test]
fn a_page_sync_batched_behind_a_whole_sync_of_the_same_object_survives_a_crash() {
    // The hazard a batchable sync creates: the whole-object sync *stages*
    // the version it saw, the write changes page 0, and the page sync must
    // not flush in place — at the end of the batch the staged frame would
    // be logged after it, and replay would mask the new page with the old
    // version.  The store refuses the flush while a staged version waits,
    // so the page sync logs the object again and one frame carries both.
    let (mut m, tid, e) = machine_with_a_homed_segment();
    let (store, wal) = (m.store().stats(), m.store().wal_stats());
    let results = m.kernel_mut().submit_calls(
        tid,
        vec![
            Syscall::ObjSync {
                entry: e,
                pages: None,
            },
            Syscall::SegmentWrite {
                entry: e,
                offset: 0,
                data: vec![0xcc; PAGE_SIZE as usize],
            },
            Syscall::ObjSync {
                entry: e,
                pages: Some(vec![0]),
            },
        ],
    );
    assert_eq!(results, vec![Ok(SyscallResult::Unit); 3]);
    assert_eq!(m.store().stats().inplace_flushes, store.inplace_flushes);
    let logged = m.store().wal_stats();
    assert_eq!(logged.frames, wal.frames + 1, "one group-commit frame");
    assert_eq!(logged.appends, wal.appends + 2, "carrying both versions");

    let live = segment_bytes(&m, e.object);
    let recovered =
        Machine::recover(MachineConfig::default(), m.store().disk().crash_copy()).unwrap();
    recovered.store().check_invariants().unwrap();
    let got = segment_bytes(&recovered, e.object);
    assert_eq!(got[..PAGE_SIZE as usize], [0xcc; PAGE_SIZE as usize]);
    assert_eq!(got, live, "every acknowledged byte survives");
}
