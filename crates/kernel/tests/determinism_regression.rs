//! Regression test for the nondeterministic-iteration bugs flowcheck
//! found (PR 9): a kernel `HashMap` leaked per-instance hash order to its
//! consumers, so two identically built kernels could disagree within one
//! process.  This test pins the observable guarantees over a
//! category- and object-heavy workload:
//!
//! 1. audit traces of identical runs are identical record-for-record,
//! 2. snapshot disk images stay byte-identical,
//! 3. the object table's own order — which the model never sees but the
//!    host allocator does — is the same in any two runs.

use histar_kernel::object::ContainerEntry;
use histar_kernel::{Machine, MachineConfig};
use histar_label::{Label, Level};

/// A deterministic workload with enough categories and objects that hash
/// order would scramble with high probability if it ever became visible.
fn build() -> Machine {
    let mut m = Machine::boot(MachineConfig::default());
    m.kernel_mut().enable_syscall_trace(4096);
    let tid = m.kernel_thread();
    let root = m.kernel().root_container();

    let dir = m
        .kernel_mut()
        .trap_container_create(tid, root, Label::unrestricted(), "dir", 0, 8 << 20)
        .unwrap();

    let cats: Vec<_> = (0..16)
        .map(|_| m.kernel_mut().trap_create_category(tid).unwrap())
        .collect();

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

/// A dropped kernel frees its objects in table order, and that order shapes
/// the host allocator's heap for whatever the process builds next.  Under
/// `HashMap`'s per-instance seed two identical kernels disagreed on it, and
/// the repo benchmark's `lfs_large` ran at 165k or 280k ops/s by the seed
/// its process drew; the table hashes with a constant key instead.
#[test]
fn object_table_order_is_a_function_of_the_boot_script() {
    // Unsorted on purpose: the table's order is the thing under test.
    let order =
        |m: &Machine| -> Vec<u64> { m.kernel().objects().map(|(id, _)| id.raw()).collect() };
    let (a, b) = (build(), build());
    assert!(order(&a).len() > 16);
    assert_eq!(order(&a), order(&b));
}
