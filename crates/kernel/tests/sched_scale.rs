//! Scale and determinism tests for the scheduler: the audit trace is
//! byte-identical for a fixed seed, and waking one thread out of a
//! 10⁵-strong parked population costs O(events), not O(parked).

use histar_kernel::object::ContainerEntry;
use histar_kernel::sched::{RunLimit, SchedConfig, Scheduler, Step, StopReason};
use histar_kernel::{Machine, MachineConfig, ObjectId, TraceRecord};
use histar_label::Label;

fn spawn_thread(m: &mut Machine, name: &str) -> ObjectId {
    let boot = m.kernel_thread();
    let root = m.kernel().root_container();
    m.kernel_mut()
        .trap_thread_create(
            boot,
            root,
            Label::unrestricted(),
            Label::default_clearance(),
            0,
            name,
        )
        .unwrap()
}

/// Runs a small labeled workload — writers appending to a shared segment,
/// one blocker woken by an alert — under `config`, returning the full
/// audit trace.
fn traced_run(config: SchedConfig) -> Vec<TraceRecord> {
    let mut m = Machine::boot(MachineConfig::default());
    m.kernel_mut().enable_syscall_trace(1 << 16);
    let boot = m.kernel_thread();
    let root = m.kernel().root_container();
    let seg = m
        .kernel_mut()
        .trap_segment_create(boot, root, Label::unrestricted(), 0, "log")
        .unwrap();
    let entry = ContainerEntry::new(root, seg);
    let mut sched: Scheduler<Machine> = Scheduler::new(config);
    for i in 0..12u8 {
        let tid = spawn_thread(&mut m, &format!("w{i}"));
        let mut remaining = 4;
        sched.spawn(
            tid,
            Box::new(move |m: &mut Machine, tid| {
                let len = m.kernel_mut().trap_segment_len(tid, entry).unwrap();
                m.kernel_mut()
                    .trap_segment_write(tid, entry, len, &[i])
                    .unwrap();
                remaining -= 1;
                if remaining == 0 {
                    Step::Done
                } else {
                    Step::Yield
                }
            }),
        );
    }
    let report = m.run_until(&mut sched, RunLimit::to_completion());
    assert_eq!(report.stop, StopReason::AllComplete);
    m.kernel()
        .syscall_trace()
        .unwrap()
        .records()
        .copied()
        .collect()
}

#[test]
fn audit_trace_is_byte_identical_per_seed() {
    let config = SchedConfig::new().seed(0x5ca1e);
    let t1 = traced_run(config);
    let t2 = traced_run(config);
    assert!(!t1.is_empty());
    assert_eq!(t1, t2, "same seed must replay the identical syscall stream");
    // Another seed is another interleaving of the same work: the workload
    // still completes — checked inside traced_run — and the record count
    // is interleaving-independent.
    let other = traced_run(SchedConfig::new().seed(0x5ca1f));
    assert_eq!(other.len(), t1.len());
}

#[test]
fn waking_one_of_a_hundred_thousand_parked_threads_is_o_events() {
    const USERS: usize = 100_000;
    let mut m = Machine::boot(MachineConfig::default());
    let boot = m.kernel_thread();
    let root = m.kernel().root_container();
    let mut sched: Scheduler<Machine> = Scheduler::new(SchedConfig::new().seed(0xbead));
    let mut tids = Vec::with_capacity(USERS);
    for i in 0..USERS {
        let tid = m
            .kernel_mut()
            .trap_thread_create(
                boot,
                root,
                Label::unrestricted(),
                Label::default_clearance(),
                0,
                &format!("u{i}"),
            )
            .unwrap();
        tids.push(tid);
        let mut parked = false;
        sched.spawn(
            tid,
            Box::new(move |_m: &mut Machine, _tid| {
                if parked {
                    Step::Done
                } else {
                    parked = true;
                    Step::Block
                }
            }),
        );
    }
    let admit = m.run_until(&mut sched, RunLimit::to_completion());
    assert_eq!(admit.stop, StopReason::AllBlocked);
    assert_eq!(admit.stats.parked_high_water, USERS as u64);

    // Dirty exactly one thread; the wake pass must examine exactly that
    // thread and charge exactly one quantum — never rescan the other
    // 99,999 parked threads.
    let target = tids[USERS / 2];
    m.kernel_mut().sched_wake(target).unwrap();
    let wake = m.run_until(&mut sched, RunLimit::to_completion());
    assert_eq!(wake.stop, StopReason::AllBlocked);
    assert_eq!(wake.stats.completed, 1, "exactly the woken thread retires");
    assert_eq!(wake.stats.quanta, 1, "one quantum for the woken thread");
    assert_eq!(wake.stats.wake_passes, 1);
    assert_eq!(
        wake.stats.wake_examined, 1,
        "the wake pass examined only the dirtied thread"
    );
}
