//! The kernel acts on the comparison cache's verdict for immutable objects
//! (§4), so a memoized verdict must never outlive the label it was computed
//! for.  The cache keys on label *structure*: when a thread's label changes,
//! the identical syscall is a different comparison.

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

/// Runs `read` twice and reports both results plus whether the second run
/// was answered entirely from the cache.
fn twice<T>(m: &mut Machine, mut read: impl FnMut(&mut Machine) -> T) -> (T, T, bool) {
    let first = read(m);
    let before = m.kernel().label_cache_stats();
    let second = read(m);
    let after = m.kernel().label_cache_stats();
    let memoized = after.hits > before.hits && after.misses == before.misses;
    (first, second, memoized)
}

#[test]
fn memoized_allow_does_not_survive_dropping_the_category() {
    let (mut m, tid, c, entry) = secret_segment();
    let read = |m: &mut Machine| m.kernel_mut().trap_segment_read(tid, entry, 0, 16);

    let (first, second, memoized) = twice(&mut m, read);
    assert!(first.is_ok() && second.is_ok());
    assert!(memoized, "the repeated read must be a cache hit");

    // Renounce ownership of `c`: ⋆ ⊑ 1, so this is an ordinary label change.
    let owner = m.kernel_mut().trap_self_get_label(tid).unwrap();
    assert!(owner.owns(c));
    m.kernel_mut()
        .trap_self_set_label(tid, owner.without(c))
        .unwrap();

    assert_eq!(read(&mut m), Err(SyscallError::CannotObserve(entry.object)));
    let write = m.kernel_mut().trap_segment_write(tid, entry, 0, &[1]);
    assert_eq!(write, Err(SyscallError::CannotModify(entry.object)));
}

#[test]
fn memoized_deny_does_not_survive_a_grant() {
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

    let (first, second, memoized) = twice(&mut m, read);
    let denied = Err(SyscallError::CannotObserve(entry.object));
    assert_eq!((&first, &second), (&denied, &denied));
    assert!(memoized, "the repeated refusal must be a cache hit");

    m.kernel_mut()
        .trap_self_set_label(reader, Label::unrestricted().with(c, Level::L3))
        .unwrap();
    assert_eq!(read(&mut m), Ok(vec![0; 16]));
}
