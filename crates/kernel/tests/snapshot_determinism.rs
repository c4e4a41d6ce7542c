//! Snapshot byte-stability: two machines built by the same deterministic
//! script must produce byte-identical disk images when snapshotted.
//!
//! The kernel's object table is a `SimHashMap`: unkeyed, so two runs of
//! one script iterate it alike, but its order follows the history of
//! inserts and removes, and two kernels can reach one state by different
//! histories.  `Machine::snapshot` therefore emits objects in sorted-ID
//! order (and sweeps stale store objects in sorted order) so the
//! persistent layout depends on the state alone.  This test builds the
//! same state twice — including object deletions, so the stale-object
//! sweep runs — and compares the raw disk blocks.

use histar_kernel::object::ContainerEntry;
use histar_kernel::{Machine, MachineConfig};
use histar_label::{Label, Level};

/// Builds a machine with a few dozen objects, some deletions, a category,
/// and two snapshots (the second exercising the stale sweep).
fn build() -> Machine {
    let mut m = Machine::boot(MachineConfig::default());
    let tid = m.kernel_thread();
    let root = m.kernel().root_container();

    let cat = m.kernel_mut().trap_create_category(tid).unwrap();

    let dir = m
        .kernel_mut()
        .trap_container_create(tid, root, Label::unrestricted(), "dir", 0, 8 << 20)
        .unwrap();
    let mut segs = Vec::new();
    for i in 0..40 {
        let label = if i % 3 == 0 {
            Label::builder().set(cat, Level::L3).build()
        } else {
            Label::unrestricted()
        };
        let seg = m
            .kernel_mut()
            .trap_segment_create(tid, dir, label, 128 + i, &format!("seg{i}"))
            .unwrap();
        m.kernel_mut()
            .trap_segment_write(tid, ContainerEntry::new(dir, seg), 0, &[i as u8; 16])
            .unwrap();
        segs.push(seg);
    }
    m.snapshot();
    // Delete every fourth segment, so the next snapshot must sweep stale
    // store objects.
    for seg in segs.iter().step_by(4) {
        m.kernel_mut()
            .trap_obj_unref(tid, ContainerEntry::new(dir, *seg))
            .unwrap();
    }
    m.snapshot();
    m
}

#[test]
fn identical_state_produces_identical_disk_images() {
    let a = build();
    let b = build();
    let img_a = a.store().disk().image();
    let img_b = b.store().disk().image();
    assert!(!img_a.is_empty());
    assert_eq!(
        img_a.len(),
        img_b.len(),
        "same number of written disk blocks"
    );
    for ((na, da), (nb, db)) in img_a.iter().zip(img_b.iter()) {
        assert_eq!(na, nb, "block numbers must match");
        assert_eq!(da, db, "block {na} must be byte-identical");
    }
}

#[test]
fn snapshot_image_survives_recovery_equivalently() {
    // Recovering each of two identically built machines and snapshotting
    // again must also agree byte-for-byte: recovery goes through the same
    // sorted emission path.
    let a = build().crash_and_recover().unwrap();
    let b = build().crash_and_recover().unwrap();
    let mut a = a;
    let mut b = b;
    a.snapshot();
    b.snapshot();
    assert_eq!(a.store().disk().image(), b.store().disk().image());
    // And the recovered kernels agree on live state.
    assert_eq!(a.kernel().object_count(), b.kernel().object_count());
}
