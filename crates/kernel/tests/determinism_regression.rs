//! Regression test for the nondeterministic-iteration bugs flowcheck
//! found (PR 9): `remote_bindings` was a `HashMap`, so
//! `Kernel::remote_bindings()` leaked per-instance hash order to every
//! consumer — two identically built kernels could disagree on binding
//! order within one process. The table is a `BTreeMap` now; this test
//! pins the observable guarantees:
//!
//! 1. binding enumeration order is identical across identically built
//!    kernels (and is sorted by category),
//! 2. audit traces of identical runs are identical record-for-record,
//! 3. snapshot disk images stay byte-identical under a binding-heavy
//!    workload.

use histar_kernel::object::ContainerEntry;
use histar_kernel::{Machine, MachineConfig};
use histar_label::{Label, Level};

/// A deterministic workload over the migrated binding maps
/// (remote_bindings/remote_index) and enough objects that hash order
/// would scramble with high probability if any of them regressed to a
/// HashMap.
fn build() -> Machine {
    let mut m = Machine::boot(MachineConfig::default());
    m.kernel_mut().enable_syscall_trace(4096);
    let tid = m.kernel_thread();
    let root = m.kernel().root_container();

    let dir = m
        .kernel_mut()
        .trap_container_create(tid, root, Label::unrestricted(), "dir", 0, 8 << 20)
        .unwrap();

    let mut cats = Vec::new();
    for i in 0..16u64 {
        let cat = m.kernel_mut().trap_create_category(tid).unwrap();
        m.kernel_mut()
            .trap_category_bind_remote(tid, cat, (0xABCD ^ i, 100 + i))
            .unwrap();
        cats.push(cat);
    }

    for (i, cat) in cats.iter().enumerate() {
        let label = if i % 2 == 0 {
            Label::builder().set(*cat, Level::L3).build()
        } else {
            Label::unrestricted()
        };
        let seg = m
            .kernel_mut()
            .trap_segment_create(tid, dir, label, 64, &format!("seg{i}"))
            .unwrap();
        m.kernel_mut()
            .trap_segment_write(tid, ContainerEntry::new(dir, seg), 0, &[i as u8; 8])
            .unwrap();
    }
    m.snapshot();
    m
}

#[test]
fn remote_binding_order_is_stable_across_instances() {
    let a = build();
    let b = build();
    let ba: Vec<_> = a.kernel().remote_bindings().collect();
    let bb: Vec<_> = b.kernel().remote_bindings().collect();
    assert_eq!(ba.len(), 16);
    assert_eq!(
        ba, bb,
        "two identically built kernels must enumerate bindings identically"
    );
    // The order is the sorted category order, not insertion or hash order.
    let mut sorted = ba.clone();
    sorted.sort_unstable_by_key(|(cat, _)| cat.raw());
    assert_eq!(ba, sorted, "bindings must enumerate in category order");
}

#[test]
fn audit_traces_of_identical_runs_are_identical() {
    let a = build();
    let b = build();
    let ta: Vec<_> = a
        .kernel()
        .syscall_trace()
        .unwrap()
        .records()
        .map(|r| (r.seq, r.tid, r.syscall, r.ok))
        .collect();
    let tb: Vec<_> = b
        .kernel()
        .syscall_trace()
        .unwrap()
        .records()
        .map(|r| (r.seq, r.tid, r.syscall, r.ok))
        .collect();
    assert!(!ta.is_empty());
    assert_eq!(ta, tb, "audit traces must replay identically");
}

#[test]
fn binding_heavy_snapshots_are_byte_identical() {
    let a = build();
    let b = build();
    let img_a = a.store().disk().image();
    let img_b = b.store().disk().image();
    assert!(!img_a.is_empty());
    assert_eq!(img_a, img_b, "snapshot images must be byte-identical");
}
