//! The kernel acts on the comparison cache's verdict for immutable objects
//! (§4), so a memoized verdict must never outlive the label it was computed
//! for.  The cache keys on label *structure*: when a thread's label changes,
//! the identical syscall is a different comparison.  Each test runs twice:
//! as is, and with the cache swept between its steps, which evicts the
//! labels nothing carries any more and renumbers the rest.

use histar_kernel::object::ContainerEntry;
use histar_kernel::{Machine, MachineConfig, ObjectId, SyscallError};
use histar_label::{Category, Label, Level};

/// A machine whose boot thread owns a fresh category `c`, and a segment
/// labelled `{c 3, 1}` in the root container.
fn secret_segment() -> (Machine, ObjectId, Category, ContainerEntry) {
    let mut m = Machine::boot(MachineConfig::default());
    let tid = m.kernel_thread();
    let root = m.kernel().root_container();
    let k = m.kernel_mut();
    let c = k.trap_create_category(tid).unwrap();
    let secret = Label::builder().set(c, Level::L3).build();
    let seg = k
        .trap_segment_create(tid, root, secret, 16, "secret")
        .unwrap();
    (m, tid, c, ContainerEntry::new(root, seg))
}

/// With `sweep`, sweeps the label cache twice: every label no live object
/// carries leaves it.
fn settle(m: &mut Machine, sweep: bool) {
    if sweep {
        for _ in 0..2 {
            m.kernel_mut().sweep_label_cache();
        }
    }
}

/// Runs `read` twice, settling between, and reports both results plus
/// whether the second run was answered entirely from the cache.
fn twice<T>(m: &mut Machine, sweep: bool, mut read: impl FnMut(&mut Machine) -> T) -> (T, T, bool) {
    let first = read(m);
    settle(m, sweep);
    let before = m.kernel().label_cache().stats();
    let second = read(m);
    let after = m.kernel().label_cache().stats();
    let memoized = after.hits > before.hits && after.misses == before.misses;
    (first, second, memoized)
}

#[test]
fn memoized_allow_does_not_survive_dropping_the_category() {
    for sweep in [false, true] {
        let (mut m, tid, c, entry) = secret_segment();
        let read = |m: &mut Machine| m.kernel_mut().trap_segment_read(tid, entry, 0, 16);

        let (first, second, memoized) = twice(&mut m, sweep, read);
        assert!(first.is_ok() && second.is_ok());
        assert!(memoized, "the repeated read must be a cache hit");

        // Renounce ownership of `c`: ⋆ ⊑ 1, so this is an ordinary label change.
        let owner = m.kernel_mut().trap_self_get_label(tid).unwrap();
        assert!(owner.owns(c));
        m.kernel_mut()
            .trap_self_set_label(tid, owner.without(c))
            .unwrap();
        settle(&mut m, sweep);

        assert_eq!(read(&mut m), Err(SyscallError::CannotObserve(entry.object)));
        settle(&mut m, sweep);
        let write = m.kernel_mut().trap_segment_write(tid, entry, 0, &[1]);
        assert_eq!(write, Err(SyscallError::CannotModify(entry.object)));
        // The owner's old label left the cache with its pairs.
        assert_eq!(m.kernel().label_cache().stats().evicted > 0, sweep);
    }
}

#[test]
fn memoized_deny_does_not_survive_a_grant() {
    for sweep in [false, true] {
        let (mut m, tid, c, entry) = secret_segment();
        let root = m.kernel().root_container();
        // An unprivileged reader that is cleared to taint itself `c 3`.
        let reader = m
            .kernel_mut()
            .trap_thread_create(
                tid,
                root,
                Label::unrestricted(),
                Label::default_clearance().with(c, Level::L3),
                0,
                "reader",
            )
            .unwrap();
        let read = |m: &mut Machine| m.kernel_mut().trap_segment_read(reader, entry, 0, 16);

        let (first, second, memoized) = twice(&mut m, sweep, read);
        let denied = Err(SyscallError::CannotObserve(entry.object));
        assert_eq!((&first, &second), (&denied, &denied));
        assert!(memoized, "the repeated refusal must be a cache hit");

        m.kernel_mut()
            .trap_self_set_label(reader, Label::unrestricted().with(c, Level::L3))
            .unwrap();
        settle(&mut m, sweep);
        assert_eq!(read(&mut m), Ok(vec![0; 16]));
    }
}

/// A persist record's label is carried by the store, where no sweep looks,
/// so it stays pinned: a repeated read of the record hits across sweeps
/// that evict every label no object carries.
#[test]
fn a_record_label_stays_pinned_across_sweeps() {
    let (mut m, tid, c, _) = secret_segment();
    let key = histar_store::PERSIST_KEY_BASE + 7;
    let label = Label::builder().set(c, Level::L2).build();
    m.kernel_mut()
        .trap_persist_put(tid, key, Some(label), 0, b"record")
        .unwrap();
    let read = |m: &mut Machine| m.kernel_mut().trap_persist_read(tid, key, 0, u64::MAX);

    let (first, second, memoized) = twice(&mut m, true, read);
    assert_eq!(first.unwrap().1, b"record");
    assert_eq!(second.unwrap().1, b"record");
    assert!(memoized, "the pinned record label must keep its pairs");
}
