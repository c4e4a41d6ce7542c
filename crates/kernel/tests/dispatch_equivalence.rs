//! Property-style equivalence test: for every [`Syscall`] variant,
//! trapping through `Kernel::dispatch` and calling the corresponding
//! `sys_*` method directly produce identical results, identical label-check
//! outcomes and identical kernel state evolution.
//!
//! Two kernels are built from the same seed with the same deterministic
//! setup script, so their object IDs, category names and labels coincide
//! exactly.  Each case then executes one call — direct on kernel A,
//! dispatched on kernel B — and the test compares the (typed) results, the
//! aggregate [`SyscallStats`] (which count every label comparison), and the
//! resulting object counts.  A coverage check guarantees no syscall variant
//! is left untested.

use histar_kernel::abi::Completion;
use histar_kernel::bodies::{DeviceBody, Mapping, MappingFlags};
use histar_kernel::dispatch::{Syscall, SyscallResult, SYSCALL_COUNT, SYSCALL_NAMES};
use histar_kernel::object::{ContainerEntry, ObjectId, METADATA_LEN};
use histar_kernel::syscall::{SyscallError, SyscallStats};
use histar_kernel::Kernel;
use histar_label::{Category, Label, Level};
use histar_sim::SimClock;
use histar_store::records::inode_key;
use histar_store::{SingleLevelStore, StoreConfig, PERSIST_KEY_BASE};

/// Deterministic fixture shared by both kernels of every case.
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
    let mut k = Kernel::new(0x0d15_ea5e, None);
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
    let cat = k.sys_create_category(boot).unwrap();
    let cat2 = k.sys_create_category(boot).unwrap();
    let dir = k
        .sys_container_create(boot, root, Label::unrestricted(), "dir", 0, 1 << 20)
        .unwrap();
    let seg = k
        .sys_segment_create(boot, root, Label::unrestricted(), 256, "seg")
        .unwrap();
    k.sys_segment_write(boot, ContainerEntry::new(root, seg), 0, b"deterministic")
        .unwrap();
    let fixed = k
        .sys_segment_create(boot, root, Label::unrestricted(), 64, "fixed")
        .unwrap();
    k.sys_obj_set_fixed_quota(boot, ContainerEntry::new(root, fixed))
        .unwrap();
    let aspace = k
        .sys_as_create(boot, root, Label::unrestricted(), "as")
        .unwrap();
    k.sys_as_map(
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
    k.sys_self_set_as(boot, ContainerEntry::new(root, aspace))
        .unwrap();
    let gate_label = k.thread_label(boot).unwrap();
    let gate = k
        .sys_gate_create(
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
        .sys_thread_create(
            boot,
            root,
            Label::unrestricted(),
            Label::default_clearance(),
            0,
            "peer",
        )
        .unwrap();
    // One pending alert for boot, so SelfTakeAlert has something to take.
    k.sys_thread_alert(peer, ContainerEntry::new(root, boot), 5)
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
    k.sys_persist_put(
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

type Direct = Box<dyn Fn(&mut Kernel, &Fx) -> Result<SyscallResult, SyscallError>>;

/// One equivalence case: the trapped call and the equivalent direct call,
/// with the direct result wrapped into the same typed envelope.
fn cases(fx: &Fx) -> Vec<(Syscall, Direct)> {
    use SyscallResult as R;
    let e_seg = entry(fx, fx.seg);
    let e_fixed = entry(fx, fx.fixed);
    let e_dir = entry(fx, fx.dir);
    let e_as = entry(fx, fx.aspace);
    let e_gate = entry(fx, fx.gate);
    let e_dev = entry(fx, fx.dev);
    let e_peer = entry(fx, fx.peer);
    let tainted = Label::builder().own(fx.cat).set(fx.cat2, Level::L2).build();
    let raised_clearance = Label::default_clearance().with(fx.cat2, Level::L3);
    let gate_request = fx.gate_label.clone();
    let new_mapping = Mapping {
        va: 0x20_0000,
        segment: e_seg,
        offset: 0,
        npages: 1,
        flags: MappingFlags::ro(),
    };

    vec![
        (
            Syscall::CreateCategory,
            Box::new(|k, fx| k.sys_create_category(fx.boot).map(R::Category)),
        ),
        (
            Syscall::SelfSetLabel {
                label: tainted.clone(),
            },
            {
                let l = tainted.clone();
                Box::new(move |k, fx| k.sys_self_set_label(fx.boot, l.clone()).map(|()| R::Unit))
            },
        ),
        (
            Syscall::SelfSetClearance {
                clearance: raised_clearance.clone(),
            },
            {
                let c = raised_clearance.clone();
                Box::new(move |k, fx| {
                    k.sys_self_set_clearance(fx.boot, c.clone())
                        .map(|()| R::Unit)
                })
            },
        ),
        (
            Syscall::SelfGetLabel,
            Box::new(|k, fx| k.sys_self_get_label(fx.boot).map(R::Label)),
        ),
        (
            Syscall::SelfGetClearance,
            Box::new(|k, fx| k.sys_self_get_clearance(fx.boot).map(R::Label)),
        ),
        (
            Syscall::ContainerCreate {
                parent: fx.root,
                label: Label::unrestricted(),
                descrip: "c2".into(),
                avoid_types: 0,
                quota: 1 << 16,
            },
            Box::new(|k, fx| {
                k.sys_container_create(fx.boot, fx.root, Label::unrestricted(), "c2", 0, 1 << 16)
                    .map(R::ObjectId)
            }),
        ),
        (
            Syscall::ObjUnref { entry: e_dir },
            Box::new(move |k, fx| k.sys_obj_unref(fx.boot, e_dir).map(|()| R::Unit)),
        ),
        (
            Syscall::HardLink {
                entry: e_fixed,
                dst: fx.dir,
            },
            Box::new(move |k, fx| k.sys_hard_link(fx.boot, e_fixed, fx.dir).map(|()| R::Unit)),
        ),
        (
            Syscall::ContainerQuotaAvail { container: fx.dir },
            Box::new(|k, fx| k.sys_container_quota_avail(fx.boot, fx.dir).map(R::U64)),
        ),
        (
            Syscall::ContainerGetParent { container: fx.dir },
            Box::new(|k, fx| k.sys_container_get_parent(fx.boot, fx.dir).map(R::ObjectId)),
        ),
        (
            Syscall::ContainerList { container: fx.root },
            Box::new(|k, fx| k.sys_container_list(fx.boot, fx.root).map(R::ObjectIds)),
        ),
        (
            Syscall::QuotaMove {
                container: fx.root,
                object: fx.dir,
                delta: 4096,
            },
            Box::new(|k, fx| {
                k.sys_quota_move(fx.boot, fx.root, fx.dir, 4096)
                    .map(|()| R::Unit)
            }),
        ),
        (
            Syscall::ObjGetLabel { entry: e_seg },
            Box::new(move |k, fx| k.sys_obj_get_label(fx.boot, e_seg).map(R::Label)),
        ),
        (
            Syscall::ObjGetInfo { entry: e_seg },
            Box::new(move |k, fx| {
                k.sys_obj_get_info(fx.boot, e_seg)
                    .map(|(object_type, descrip, quota)| R::Info {
                        object_type,
                        descrip,
                        quota,
                    })
            }),
        ),
        (
            Syscall::ObjGetMetadata { entry: e_seg },
            Box::new(move |k, fx| k.sys_obj_get_metadata(fx.boot, e_seg).map(R::Metadata)),
        ),
        (
            Syscall::ObjSetMetadata {
                entry: e_seg,
                metadata: [7; METADATA_LEN],
            },
            Box::new(move |k, fx| {
                k.sys_obj_set_metadata(fx.boot, e_seg, [7; METADATA_LEN])
                    .map(|()| R::Unit)
            }),
        ),
        (
            Syscall::ObjSetImmutable { entry: e_seg },
            Box::new(move |k, fx| k.sys_obj_set_immutable(fx.boot, e_seg).map(|()| R::Unit)),
        ),
        (
            Syscall::ObjSetFixedQuota { entry: e_seg },
            Box::new(move |k, fx| k.sys_obj_set_fixed_quota(fx.boot, e_seg).map(|()| R::Unit)),
        ),
        (
            Syscall::SegmentCreate {
                container: fx.root,
                label: Label::unrestricted(),
                len: 64,
                descrip: "new".into(),
            },
            Box::new(|k, fx| {
                k.sys_segment_create(fx.boot, fx.root, Label::unrestricted(), 64, "new")
                    .map(R::ObjectId)
            }),
        ),
        (
            Syscall::SegmentResize {
                entry: e_seg,
                len: 512,
            },
            Box::new(move |k, fx| k.sys_segment_resize(fx.boot, e_seg, 512).map(|()| R::Unit)),
        ),
        (
            Syscall::SegmentRead {
                entry: e_seg,
                offset: 0,
                len: 13,
            },
            Box::new(move |k, fx| k.sys_segment_read(fx.boot, e_seg, 0, 13).map(R::Bytes)),
        ),
        (
            Syscall::SegmentWrite {
                entry: e_seg,
                offset: 4,
                data: b"xyz".to_vec(),
            },
            Box::new(move |k, fx| {
                k.sys_segment_write(fx.boot, e_seg, 4, b"xyz")
                    .map(|()| R::Unit)
            }),
        ),
        (
            Syscall::SegmentLen { entry: e_seg },
            Box::new(move |k, fx| k.sys_segment_len(fx.boot, e_seg).map(R::U64)),
        ),
        (
            Syscall::SegmentCopy {
                src: e_seg,
                dst_container: fx.root,
                label: Label::unrestricted(),
                descrip: "copy".into(),
            },
            Box::new(move |k, fx| {
                k.sys_segment_copy(fx.boot, e_seg, fx.root, Label::unrestricted(), "copy")
                    .map(R::ObjectId)
            }),
        ),
        (
            Syscall::AsCreate {
                container: fx.root,
                label: Label::unrestricted(),
                descrip: "as2".into(),
            },
            Box::new(|k, fx| {
                k.sys_as_create(fx.boot, fx.root, Label::unrestricted(), "as2")
                    .map(R::ObjectId)
            }),
        ),
        (
            Syscall::AsCopy {
                src: e_as,
                dst_container: fx.root,
                label: Label::unrestricted(),
                descrip: "asc".into(),
            },
            Box::new(move |k, fx| {
                k.sys_as_copy(fx.boot, e_as, fx.root, Label::unrestricted(), "asc")
                    .map(R::ObjectId)
            }),
        ),
        (
            Syscall::AsMap {
                aspace: e_as,
                mapping: new_mapping,
            },
            Box::new(move |k, fx| k.sys_as_map(fx.boot, e_as, new_mapping).map(|()| R::Unit)),
        ),
        (
            Syscall::AsUnmap {
                aspace: e_as,
                va: 0x10_0000,
            },
            Box::new(move |k, fx| k.sys_as_unmap(fx.boot, e_as, 0x10_0000).map(|()| R::Unit)),
        ),
        (
            Syscall::SelfSetAs { aspace: e_as },
            Box::new(move |k, fx| k.sys_self_set_as(fx.boot, e_as).map(|()| R::Unit)),
        ),
        (
            Syscall::PageFault {
                va: 0x10_0000,
                write: false,
            },
            Box::new(|k, fx| {
                k.sys_page_fault(fx.boot, 0x10_0000, false)
                    .map(R::PageFault)
            }),
        ),
        (
            Syscall::ThreadCreate {
                container: fx.root,
                label: Label::unrestricted(),
                clearance: Label::default_clearance(),
                entry_point: 9,
                descrip: "t2".into(),
            },
            Box::new(|k, fx| {
                k.sys_thread_create(
                    fx.boot,
                    fx.root,
                    Label::unrestricted(),
                    Label::default_clearance(),
                    9,
                    "t2",
                )
                .map(R::ObjectId)
            }),
        ),
        (
            Syscall::SelfLocalSegment,
            Box::new(|k, fx| k.sys_self_local_segment(fx.boot).map(R::ObjectId)),
        ),
        (
            Syscall::SelfHalt,
            Box::new(|k, fx| k.sys_self_halt(fx.boot).map(|()| R::Unit)),
        ),
        (
            Syscall::ThreadAlert {
                target: e_peer,
                code: 3,
            },
            Box::new(move |k, fx| k.sys_thread_alert(fx.boot, e_peer, 3).map(|()| R::Unit)),
        ),
        (
            Syscall::SelfTakeAlert,
            Box::new(|k, fx| k.sys_self_take_alert(fx.boot).map(R::Alert)),
        ),
        (
            Syscall::ThreadGetLabel { target: e_peer },
            Box::new(move |k, fx| k.sys_thread_get_label(fx.boot, e_peer).map(R::Label)),
        ),
        (
            Syscall::GateCreate {
                container: fx.root,
                label: fx.gate_label.clone(),
                clearance: Label::default_clearance(),
                address_space: Some(e_as),
                entry_point: 0x44,
                closure_args: vec![1],
                descrip: "g2".into(),
            },
            {
                let gl = fx.gate_label.clone();
                Box::new(move |k, fx| {
                    k.sys_gate_create(
                        fx.boot,
                        fx.root,
                        gl.clone(),
                        Label::default_clearance(),
                        Some(entry(fx, fx.aspace)),
                        0x44,
                        vec![1],
                        "g2",
                    )
                    .map(R::ObjectId)
                })
            },
        ),
        (
            Syscall::GateEnter {
                gate: e_gate,
                requested: gate_request.clone(),
                requested_clearance: Label::default_clearance(),
                verify: Label::unrestricted(),
            },
            {
                let req = gate_request.clone();
                Box::new(move |k, fx| {
                    k.sys_gate_enter(
                        fx.boot,
                        e_gate,
                        req.clone(),
                        Label::default_clearance(),
                        Label::unrestricted(),
                    )
                    .map(R::GateEntry)
                })
            },
        ),
        (
            Syscall::GateClearance { gate: e_gate },
            Box::new(move |k, fx| k.sys_gate_clearance(fx.boot, e_gate).map(R::Label)),
        ),
        (
            Syscall::NetMac { device: e_dev },
            Box::new(move |k, fx| k.sys_net_mac(fx.boot, e_dev).map(R::Mac)),
        ),
        (
            Syscall::NetTransmit {
                device: e_dev,
                frame: vec![0xee],
            },
            Box::new(move |k, fx| {
                k.sys_net_transmit(fx.boot, e_dev, vec![0xee])
                    .map(|()| R::Unit)
            }),
        ),
        (
            Syscall::NetReceive { device: e_dev },
            Box::new(move |k, fx| k.sys_net_receive(fx.boot, e_dev).map(R::Frame)),
        ),
        (
            Syscall::PersistPut {
                key: inode_key(43),
                label: Some(Label::unrestricted()),
                offset: 4,
                data: b"spliced".to_vec(),
            },
            Box::new(|k, fx| {
                k.sys_persist_put(
                    fx.boot,
                    inode_key(43),
                    Some(Label::unrestricted()),
                    4,
                    b"spliced",
                )
                .map(|()| R::Unit)
            }),
        ),
        (
            Syscall::PersistRead {
                key: fx.pkey,
                offset: 0,
                len: u64::MAX,
            },
            Box::new(|k, fx| {
                k.sys_persist_read(fx.boot, fx.pkey, 0, u64::MAX)
                    .map(R::Bytes)
            }),
        ),
        (
            Syscall::PersistDelete { key: fx.pkey },
            Box::new(|k, fx| k.sys_persist_delete(fx.boot, fx.pkey).map(|()| R::Unit)),
        ),
        (
            Syscall::PersistScan {
                lo: PERSIST_KEY_BASE,
                hi: u64::MAX,
                max: 64,
            },
            Box::new(|k, fx| {
                k.sys_persist_scan(fx.boot, PERSIST_KEY_BASE, u64::MAX, 64)
                    .map(R::Records)
            }),
        ),
        (
            Syscall::PersistSync {
                keys: vec![fx.pkey],
            },
            Box::new(|k, fx| k.sys_persist_sync(fx.boot, &[fx.pkey]).map(|()| R::Unit)),
        ),
        (
            Syscall::PersistGetLabel { key: fx.pkey },
            Box::new(|k, fx| k.sys_persist_get_label(fx.boot, fx.pkey).map(R::Label)),
        ),
        (
            Syscall::SegmentWatch { entry: e_seg },
            Box::new(|k, fx| {
                k.sys_segment_watch(fx.boot, entry(fx, fx.seg))
                    .map(|()| R::Unit)
            }),
        ),
    ]
}

#[test]
fn every_syscall_dispatches_identically_to_its_direct_call() {
    let (_, fx_probe) = setup();
    let all = cases(&fx_probe);

    // Coverage: the case list is the table in row order, so it touches
    // every ABI index exactly once, at its row position.
    assert_eq!(all.len(), SYSCALL_COUNT);
    for (i, (call, _)) in all.iter().enumerate() {
        assert_eq!(
            call.index(),
            i,
            "{}: index is the row position",
            call.name()
        );
        assert_eq!(call.name(), SYSCALL_NAMES[i]);
    }

    for (call, direct) in all {
        let name = call.name();
        let (mut ka, fxa) = setup();
        let (mut kb, fxb) = setup();
        assert_eq!(fxa.seg, fxb.seg, "setup must be deterministic");

        let direct_result = direct(&mut ka, &fxa);
        let dispatched_result = kb.dispatch(fxb.boot, call);
        assert_eq!(
            direct_result, dispatched_result,
            "{name}: result must be identical"
        );
        assert_eq!(
            ka.stats(),
            kb.stats(),
            "{name}: label checks and kernel counters must be identical"
        );
        assert_eq!(
            ka.object_count(),
            kb.object_count(),
            "{name}: object-table evolution must be identical"
        );
        assert_eq!(
            kb.dispatch_stats().count(name),
            Some(1),
            "{name}: dispatch must count exactly one invocation"
        );
        assert_eq!(
            kb.dispatch_stats().trace_dropped,
            0,
            "{name}: no audit record may be silently evicted"
        );
    }
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
    let calls: Vec<Syscall> = cases(&fx).into_iter().map(|(call, _)| call).collect();
    assert_eq!(calls.len(), SYSCALL_COUNT);
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
    assert!(k.completion_pending(fx.boot));
    // Claiming the alert removes the notification with it — otherwise a
    // blocked thread would be re-woken by the stale completion forever.
    // (The fixture queued one alert during setup; drain both.)
    assert!(k.trap_self_take_alert(fx.boot).unwrap().is_some());
    assert!(k.trap_self_take_alert(fx.boot).unwrap().is_some());
    assert!(!k.completion_pending(fx.boot));
}

#[test]
fn failing_calls_dispatch_identically_too() {
    let failures: Vec<(&str, Syscall, Direct)> = {
        let (_, fx) = setup();
        let e_seg = entry(&fx, fx.seg);
        let bogus = ContainerEntry::new(fx.root, ObjectId::from_raw(0x7777));
        vec![
            (
                "read beyond end",
                Syscall::SegmentRead {
                    entry: e_seg,
                    offset: 1000,
                    len: 10,
                },
                Box::new(move |k: &mut Kernel, fx: &Fx| {
                    k.sys_segment_read(fx.boot, e_seg, 1000, 10)
                        .map(SyscallResult::Bytes)
                }),
            ),
            (
                "unref root",
                Syscall::ObjUnref {
                    entry: ContainerEntry::self_entry(fx.root),
                },
                Box::new(move |k: &mut Kernel, fx: &Fx| {
                    k.sys_obj_unref(fx.boot, ContainerEntry::self_entry(fx.root))
                        .map(|()| SyscallResult::Unit)
                }),
            ),
            (
                "no such object",
                Syscall::SegmentLen { entry: bogus },
                Box::new(move |k: &mut Kernel, fx: &Fx| {
                    k.sys_segment_len(fx.boot, bogus).map(SyscallResult::U64)
                }),
            ),
            (
                "over-privileged gate entry",
                Syscall::GateEnter {
                    gate: entry(&fx, fx.gate),
                    requested: Label::builder().own(Category::from_raw(999_999)).build(),
                    requested_clearance: Label::default_clearance(),
                    verify: Label::unrestricted(),
                },
                {
                    let g = entry(&fx, fx.gate);
                    Box::new(move |k: &mut Kernel, fx: &Fx| {
                        k.sys_gate_enter(
                            fx.boot,
                            g,
                            Label::builder().own(Category::from_raw(999_999)).build(),
                            Label::default_clearance(),
                            Label::unrestricted(),
                        )
                        .map(SyscallResult::GateEntry)
                    })
                },
            ),
        ]
    };
    for (what, call, direct) in failures {
        let (mut ka, fxa) = setup();
        let (mut kb, fxb) = setup();
        let a = direct(&mut ka, &fxa);
        let b = kb.dispatch(fxb.boot, call);
        assert!(a.is_err(), "{what}: expected failure");
        assert_eq!(a, b, "{what}: identical error through both paths");
        assert_eq!(ka.stats(), kb.stats(), "{what}: identical error counters");
    }
}
