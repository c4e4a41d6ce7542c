//! Error channels: a refused call must not tell a low thread what a high
//! thread did.  Each case boots the same machine twice, lets a thread H
//! at `{h 3}` make a choice in one run and not in the other, then has a
//! low thread L make the same call in both — L's result must not depend
//! on H's choice.  An error variant is an output like any other: L learns
//! H's bit from which error comes back just as well as from a value.

use histar_kernel::{ContainerEntry, Kernel, ObjectId, SyscallError};
use histar_label::{Label, Level};
use histar_sim::SimClock;
use histar_store::SingleLevelStore;

/// One booted machine: the owner `p` of a fresh category `h`, a high
/// thread H at `{h 3}` and a low thread L at `{1}` with clearance `{2}`.
struct World {
    k: Kernel,
    p: ObjectId,
    h_thread: ObjectId,
    l_thread: ObjectId,
    high: Label,
}

fn boot() -> World {
    let clock = SimClock::new();
    let store = SingleLevelStore::format(Default::default(), clock.clone());
    let mut k = Kernel::new(7, clock, store);
    let root = k.root_container();
    let p = k
        .bootstrap_thread(root, Label::unrestricted(), Label::default_clearance(), "p")
        .unwrap();
    let h = k.trap_create_category(p).unwrap();
    let high = Label::builder().set(h, Level::L3).build();
    let high_clearance = Label::builder()
        .set(h, Level::L3)
        .default_level(Level::L2)
        .build();
    let h_thread = k
        .trap_thread_create(p, root, high.clone(), high_clearance, 0, "H")
        .unwrap();
    let l_thread = k
        .trap_thread_create(
            p,
            root,
            Label::unrestricted(),
            Label::default_clearance(),
            0,
            "L",
        )
        .unwrap();
    World {
        k,
        p,
        h_thread,
        l_thread,
        high,
    }
}

/// L's own container, in the root.
fn low_container(w: &mut World) -> ObjectId {
    let root = w.k.root_container();
    w.k.trap_container_create(w.l_thread, root, Label::unrestricted(), "D_L", 0, 1 << 16)
        .unwrap()
}

/// `obj_unref(⟨D_L, X⟩)` by L, after H did or did not unref `⟨C_H, X⟩`:
/// X is not in `D_L` either way, and that is all L may learn.
fn unref_run(h_unrefs: bool) -> Result<(), SyscallError> {
    let mut w = boot();
    let root = w.k.root_container();
    let c_h =
        w.k.trap_container_create(w.p, root, w.high.clone(), "C_H", 0, 1 << 16)
            .unwrap();
    let x =
        w.k.trap_segment_create(w.p, c_h, w.high.clone(), 16, "X")
            .unwrap();
    let d_l = low_container(&mut w);
    if h_unrefs {
        w.k.trap_obj_unref(w.h_thread, ContainerEntry::new(c_h, x))
            .unwrap();
    }
    w.k.trap_obj_unref(w.l_thread, ContainerEntry::new(d_l, x))
}

#[test]
fn obj_unref_does_not_tell_a_low_thread_whether_a_high_object_exists() {
    let (acted, idle) = (unref_run(true), unref_run(false));
    assert!(
        matches!(idle, Err(SyscallError::NotInContainer { .. })),
        "{idle:?}"
    );
    assert_eq!(acted, idle);
}

/// `hard_link(⟨D0, X⟩, D_L)` by L, whose clearance `{2}` does not admit
/// X's `{h 3}`, after H did or did not fix X's quota: the clearance
/// refusal comes first, so the flag never shows.
fn link_run(h_fixes: bool) -> Result<(), SyscallError> {
    let mut w = boot();
    let root = w.k.root_container();
    let d0 =
        w.k.trap_container_create(w.p, root, Label::unrestricted(), "D0", 0, 1 << 16)
            .unwrap();
    let x =
        w.k.trap_segment_create(w.p, d0, w.high.clone(), 16, "X")
            .unwrap();
    let d_l = low_container(&mut w);
    let entry = ContainerEntry::new(d0, x);
    if h_fixes {
        w.k.trap_obj_set_fixed_quota(w.h_thread, entry).unwrap();
    }
    w.k.trap_hard_link(w.l_thread, entry, d_l)
}

#[test]
fn hard_link_does_not_show_a_low_thread_a_high_objects_quota_flag() {
    let (acted, idle) = (link_run(true), link_run(false));
    assert!(
        matches!(
            idle,
            Err(SyscallError::Label(
                histar_label::LabelError::LabelExceedsClearance
            ))
        ),
        "{idle:?}"
    );
    assert_eq!(acted, idle);
}
