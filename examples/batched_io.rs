//! The batched syscall ABI in action: multi-call batches and the amortized
//! trap cost.
//!
//! A thread pushes whole argument spills through one boundary crossing per
//! `submit_calls` batch, naming every object by its container entry
//! `⟨D, O⟩`.  Every per-call label check and audit record is identical to
//! the one-trap-per-call stream — only the charged kernel entry/exit cost
//! amortizes.
//!
//! Run with `cargo run --release --example batched_io`.

use histar::prelude::*;

fn main() {
    let mut machine = Machine::boot(MachineConfig::default());
    let tid = machine.kernel_thread();
    let root = machine.kernel().root_container();
    machine.kernel_mut().enable_syscall_trace(64);

    // One trap: create two segments (a log and a scratch buffer).
    let kernel = machine.kernel_mut();
    let results = kernel.submit_calls(
        tid,
        vec![
            Syscall::SegmentCreate {
                container: root,
                label: Label::unrestricted(),
                len: 64,
                descrip: "log".into(),
            },
            Syscall::SegmentCreate {
                container: root,
                label: Label::unrestricted(),
                len: 64,
                descrip: "scratch".into(),
            },
        ],
    );
    let ids: Vec<ObjectId> = results
        .into_iter()
        .map(|r| r.expect("creation succeeds").into_object_id())
        .collect();
    let (log, scratch) = (ids[0], ids[1]);

    let (log_e, scratch_e) = (
        ContainerEntry::new(root, log),
        ContainerEntry::new(root, scratch),
    );

    // A whole write/read spill as one batch.
    let before = kernel.now();
    let results = kernel.submit_calls(
        tid,
        vec![
            Syscall::SegmentWrite {
                entry: log_e,
                offset: 0,
                data: b"batched".to_vec(),
            },
            Syscall::SegmentWrite {
                entry: scratch_e,
                offset: 0,
                data: b"abi".to_vec(),
            },
            Syscall::SegmentRead {
                entry: log_e,
                offset: 0,
                len: 7,
            },
        ],
    );
    let batched = kernel.now() - before;
    assert_eq!(
        results[2],
        Ok(SyscallResult::Bytes(b"batched".to_vec())),
        "the read observes the write submitted earlier in the same batch"
    );

    // The same three calls, one trap each: same results, same checks,
    // three kernel entries instead of one.
    let before = kernel.now();
    kernel
        .trap_segment_write(tid, log_e, 0, b"batched")
        .unwrap();
    kernel
        .trap_segment_write(tid, scratch_e, 0, b"abi")
        .unwrap();
    assert_eq!(
        kernel.trap_segment_read(tid, log_e, 0, 7).unwrap(),
        b"batched"
    );
    let trapped = kernel.now() - before;
    println!("three calls: {batched} as one batch, {trapped} one trap each");

    // A name is only as good as its link: unref the scratch segment and
    // the entry that named it is refused by the same check that admitted
    // it.
    kernel.trap_obj_unref(tid, scratch_e).unwrap();
    let stale = kernel.dispatch(tid, Syscall::SegmentLen { entry: scratch_e });
    println!("severed link refused: {}", stale.unwrap_err());

    let stats = kernel.dispatch_stats();
    println!(
        "batches: {}, entries: {}, mean batch size: {:.2}",
        stats.batches,
        stats.batch_entries,
        stats.mean_batch_size()
    );
    println!("audit trace records one entry per call, seq continuous across batches:");
    for r in machine.kernel().syscall_trace().unwrap().records() {
        println!("  seq {:>2}  {:<16} ok={}", r.seq, r.syscall, r.ok);
    }
}
