//! The batched user↔kernel ABI: submission/completion queues and typed
//! capability handles.
//!
//! The trap boundary of [`dispatch`](crate::dispatch) charges a full
//! kernel entry/exit per call.  `sched_bench` shows syscall throughput is
//! bounded by exactly that per-trap overhead, so this module models the
//! boundary the way modern kernels do (io_uring): a thread fills a
//! [`SubmissionQueue`] with [`SqEntry`]s and crosses into the kernel
//! *once*; [`Kernel::dispatch_batch`](crate::kernel::Kernel) drains the
//! batch, paying one trap cost for the whole batch while still performing
//! every per-call label check, per-call statistics update and per-call
//! audit-trace append, and pushes one [`Completion`] per entry onto the
//! thread's completion queue.  A thread blocked on an empty completion
//! queue is woken by the scheduler when a completion (or an alert
//! notification) arrives, so waiting costs zero quanta.
//!
//! At the same boundary, raw `⟨container, object⟩` names can be replaced
//! by **capability handles**: small dense [`Handle`]s installed in a
//! per-thread [`HandleTable`] only through a reachability-checked
//! resolution of a [`ContainerEntry`] (the same check every syscall
//! performs — the thread must be able to observe the container and the
//! container must hold a link to the object).  A handle-bearing call can
//! therefore never name an object its thread could not traverse to, and
//! handles are revoked as soon as the link they were installed through is
//! unreferenced.  Handles are per-boot, per-thread kernel state — like
//! io_uring registered files, they are not persisted across snapshots.

use crate::dispatch::{Syscall, SyscallResult};
use crate::object::{ContainerEntry, ObjectId, HANDLE_NAMESPACE};
use crate::syscall::SyscallError;
use std::collections::{BTreeMap, VecDeque};

/// A dense, per-thread capability handle naming one kernel object through
/// the container link it was resolved against.
///
/// Handles are installed only by [`Kernel::handle_open`](crate::Kernel)
/// (which performs the reachability check) and are revoked when the link
/// is unreferenced or the object deallocated; a stale handle fails with
/// [`SyscallError::BadHandle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle(pub u32);

impl Handle {
    /// The handle's raw index.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The handle encoded as a [`ContainerEntry`], usable anywhere a
    /// syscall takes one: the entry names the reserved handle namespace as
    /// its container, which no real object can ever occupy, and the
    /// dispatcher substitutes the installed entry (checking liveness)
    /// before the call runs.
    pub fn entry(self) -> ContainerEntry {
        ContainerEntry::new(HANDLE_NAMESPACE, ObjectId::from_raw(self.0 as u64))
    }
}

impl core::fmt::Display for Handle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A per-thread table of installed handles: dense `u32` slots with a free
/// list, so handle values stay small and reuse is cheap.  A live counter
/// keeps emptiness O(1), letting the unref-time revocation sweep skip
/// threads holding no handles, and a reverse `entry → slots` index makes
/// [`HandleTable::find`] O(1) — the fd hot path probes it on every
/// descriptor operation, and a thread holding many open descriptors used
/// to pay a linear slot scan per probe.
#[derive(Clone, Debug, Default)]
pub struct HandleTable {
    slots: Vec<Option<ContainerEntry>>,
    free: Vec<u32>,
    live: usize,
    /// Reverse index: every live slot holding `entry`, in install order.
    /// Invariant: `index[e]` lists exactly the slots `i` with
    /// `slots[i] == Some(e)`, and no empty lists are retained.
    index: BTreeMap<ContainerEntry, Vec<u32>>,
}

impl HandleTable {
    /// Installs an (already reachability-checked) entry, returning its
    /// handle.
    pub fn install(&mut self, entry: ContainerEntry) -> Handle {
        self.live += 1;
        let idx = if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(entry);
            idx
        } else {
            self.slots.push(Some(entry));
            (self.slots.len() - 1) as u32
        };
        self.index.entry(entry).or_default().push(idx);
        Handle(idx)
    }

    /// The entry a handle resolves to, if still installed.
    pub fn resolve(&self, h: Handle) -> Option<ContainerEntry> {
        self.slots.get(h.0 as usize).copied().flatten()
    }

    /// Finds a live handle already installed for exactly this entry, so
    /// hot paths that repeatedly name the same object (the VFS fd path)
    /// can reuse one handle instead of growing the table per operation.
    /// One reverse-index probe, however many descriptors the thread holds.
    pub fn find(&self, entry: ContainerEntry) -> Option<Handle> {
        self.index
            .get(&entry)
            .and_then(|slots| slots.first())
            .map(|&i| Handle(i))
    }

    /// Removes one slot from the reverse index (the slot was just
    /// cleared).
    fn unindex(&mut self, entry: ContainerEntry, idx: u32) {
        if let Some(slots) = self.index.get_mut(&entry) {
            slots.retain(|&i| i != idx);
            if slots.is_empty() {
                self.index.remove(&entry);
            }
        }
    }

    /// Drops one handle.  Returns the entry it named, if any.
    pub fn revoke(&mut self, h: Handle) -> Option<ContainerEntry> {
        let slot = self.slots.get_mut(h.0 as usize)?;
        let old = slot.take();
        if let Some(entry) = old {
            self.free.push(h.0);
            self.live -= 1;
            self.unindex(entry, h.0);
        }
        old
    }

    /// Revokes every handle installed through exactly this container link
    /// (an `obj_unref` severed it).  Returns how many were revoked.
    /// Served entirely from the reverse index: threads without a handle
    /// for this link pay one hash probe.
    pub fn revoke_entry(&mut self, entry: ContainerEntry) -> usize {
        let Some(slots) = self.index.remove(&entry) else {
            return 0;
        };
        let revoked = slots.len();
        for idx in slots {
            self.slots[idx as usize] = None;
            self.free.push(idx);
        }
        self.live -= revoked;
        revoked
    }

    /// Revokes every handle naming `object` through any link (the object
    /// was deallocated).  Returns how many were revoked.
    pub fn revoke_object(&mut self, object: ObjectId) -> usize {
        if self.live == 0 {
            return 0;
        }
        let mut revoked = 0;
        for idx in 0..self.slots.len() {
            if let Some(entry) = self.slots[idx] {
                if entry.object == object || entry.container == object {
                    self.slots[idx] = None;
                    self.free.push(idx as u32);
                    self.unindex(entry, idx as u32);
                    revoked += 1;
                }
            }
        }
        self.live -= revoked;
        revoked
    }

    /// Number of live handles.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no handles are installed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// True once any handle was ever installed (slots are reused, never
    /// dropped) — what `kernel.threads_with_handles` counts.
    pub fn ever_used(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Live handle counts aggregated per named object, in object order —
    /// the holder counts other objects must forget when this table's
    /// thread dies.
    pub fn live_holdings(&self) -> Vec<(ObjectId, u64)> {
        let mut counts: std::collections::BTreeMap<ObjectId, u64> = Default::default();
        for (entry, slots) in &self.index {
            *counts.entry(entry.object).or_insert(0) += slots.len() as u64;
        }
        counts.into_iter().collect()
    }
}

/// One operation in a submission batch.
#[derive(Clone, Debug, PartialEq)]
pub enum SqOp {
    /// A system call.  `ContainerEntry` arguments may be handle-encoded
    /// (see [`Handle::entry`]); the dispatcher resolves them against the
    /// calling thread's handle table before the call runs.
    Call(Syscall),
    /// Resolve a container entry into a handle.  The kernel performs the
    /// standard reachability check (observe the container, link present)
    /// and installs the entry in the calling thread's handle table.
    HandleOpen {
        /// The entry to resolve.
        entry: ContainerEntry,
    },
    /// Drop a handle from the calling thread's handle table.
    HandleClose {
        /// The handle to drop.
        handle: Handle,
    },
}

/// One submission-queue entry: an operation plus the caller's correlation
/// token, echoed back in the matching [`Completion`].
#[derive(Clone, Debug, PartialEq)]
pub struct SqEntry {
    /// Caller-chosen token identifying this entry among the completions.
    pub user_data: u64,
    /// The operation.
    pub op: SqOp,
}

/// The payload of one completion.
#[derive(Clone, Debug, PartialEq)]
pub enum CompletionKind {
    /// The typed result of a submitted [`SqOp::Call`].
    Call(Result<SyscallResult, SyscallError>),
    /// The result of a [`SqOp::HandleOpen`].
    HandleOpened(Result<Handle, SyscallError>),
    /// The result of a [`SqOp::HandleClose`]: whether the handle was live.
    HandleClosed(bool),
    /// Kernel-pushed notification (no matching submission): an alert was
    /// posted to this thread.  The alert itself is still claimed with
    /// `self_take_alert`; the notification exists so a thread blocked on
    /// its completion queue wakes without polling.
    AlertPending {
        /// The alert's code.
        code: u64,
    },
    /// Kernel-pushed readiness notification (no matching submission): an
    /// object this thread registered a watch on (`segment_watch`) was
    /// written to or deallocated.  The watch is one-shot — a woken thread
    /// re-checks the object and re-registers if it still wants to wait.
    /// This is the wake half of blocking `read(2)`/`accept(2)`/`poll`.
    ObjectReady {
        /// The object that made progress.
        object: ObjectId,
    },
}

/// The `user_data` carried by kernel-originated completions (alert
/// notifications), which have no matching submission entry.
pub const KERNEL_USER_DATA: u64 = u64::MAX;

/// One completion-queue entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Completion {
    /// The token of the submission this completes, or
    /// [`KERNEL_USER_DATA`] for kernel-originated notifications.
    pub user_data: u64,
    /// What completed.
    pub kind: CompletionKind,
}

impl Completion {
    /// Unwraps a [`CompletionKind::Call`] payload; panics on any other
    /// kind (submission and reaping are ordered, so a caller that only
    /// submitted calls can rely on this).
    pub fn into_call_result(self) -> Result<SyscallResult, SyscallError> {
        match self.kind {
            CompletionKind::Call(r) => r,
            other => panic!("expected a call completion, got {other:?}"),
        }
    }

    /// Unwraps a [`CompletionKind::HandleOpened`] payload; panics on any
    /// other kind.
    pub fn into_handle_result(self) -> Result<Handle, SyscallError> {
        match self.kind {
            CompletionKind::HandleOpened(r) => r,
            other => panic!("expected a handle-open completion, got {other:?}"),
        }
    }
}

/// A thread's runtime state at the ABI edge.  It is part of the thread
/// object ([`ThreadBody::runtime`](crate::bodies::ThreadBody), boxed so a
/// thread does not widen every `KObject`), is never serialized, and is
/// gone with the thread — there is no side table to keep in step.
#[derive(Clone, Debug, Default)]
pub(crate) struct ThreadRuntime {
    /// Unreaped completions, oldest first.
    pub(crate) completions: VecDeque<Completion>,
    /// Installed capability handles.
    pub(crate) handles: HandleTable,
    /// Dispatched-syscall count (served by `/metrics/tasks`).
    pub(crate) syscalls: u64,
}

/// The user-side submission queue: entries accumulate here and cross the
/// trap boundary together via
/// [`Kernel::submit`](crate::kernel::Kernel::submit).
#[derive(Clone, Debug, Default)]
pub struct SubmissionQueue {
    entries: VecDeque<SqEntry>,
    next_user_data: u64,
}

impl SubmissionQueue {
    /// Creates an empty queue.
    pub fn new() -> SubmissionQueue {
        SubmissionQueue::default()
    }

    /// Queues an operation, returning the auto-assigned `user_data` token
    /// its completion will carry.
    pub fn push(&mut self, op: SqOp) -> u64 {
        let user_data = self.next_user_data;
        self.next_user_data += 1;
        self.entries.push_back(SqEntry { user_data, op });
        user_data
    }

    /// Queues a system call.
    pub fn call(&mut self, call: Syscall) -> u64 {
        self.push(SqOp::Call(call))
    }

    /// Queues a handle-open for `entry`.
    pub fn open_handle(&mut self, entry: ContainerEntry) -> u64 {
        self.push(SqOp::HandleOpen { entry })
    }

    /// Queues a handle-close.
    pub fn close_handle(&mut self, handle: Handle) -> u64 {
        self.push(SqOp::HandleClose { handle })
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes and returns all queued entries, oldest first.
    pub fn drain(&mut self) -> Vec<SqEntry> {
        self.entries.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(c: u64, o: u64) -> ContainerEntry {
        ContainerEntry::new(ObjectId::from_raw(c), ObjectId::from_raw(o))
    }

    #[test]
    fn handle_table_installs_resolves_and_reuses_slots() {
        let mut t = HandleTable::default();
        let h0 = t.install(e(1, 2));
        let h1 = t.install(e(1, 3));
        assert_eq!(h0, Handle(0));
        assert_eq!(h1, Handle(1));
        assert_eq!(t.resolve(h0), Some(e(1, 2)));
        assert_eq!(t.revoke(h0), Some(e(1, 2)));
        assert_eq!(t.resolve(h0), None);
        assert_eq!(t.revoke(h0), None, "double revoke is a no-op");
        // The freed slot is reused.
        let h2 = t.install(e(4, 5));
        assert_eq!(h2, Handle(0));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn revocation_by_entry_and_by_object() {
        let mut t = HandleTable::default();
        let a = t.install(e(1, 2));
        let b = t.install(e(3, 2));
        let c = t.install(e(1, 9));
        assert_eq!(t.revoke_entry(e(1, 2)), 1, "only the exact link");
        assert_eq!(t.resolve(a), None);
        assert_eq!(t.resolve(b), Some(e(3, 2)));
        assert_eq!(t.revoke_object(ObjectId::from_raw(2)), 1, "any link to 2");
        assert_eq!(t.resolve(b), None);
        assert_eq!(t.resolve(c), Some(e(1, 9)));
        // Deallocating a container revokes handles resolved through it.
        assert_eq!(t.revoke_object(ObjectId::from_raw(1)), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn reverse_index_finds_in_constant_time_and_tracks_duplicates() {
        let mut t = HandleTable::default();
        // Many distinct entries, then duplicates of one of them.
        for i in 0..100 {
            t.install(e(1, 100 + i));
        }
        let a = t.install(e(9, 9));
        let b = t.install(e(9, 9));
        assert_ne!(a, b, "duplicate installs get distinct slots");
        // find returns the earliest-installed live duplicate...
        assert_eq!(t.find(e(9, 9)), Some(a));
        // ...and falls through to the next one when it is revoked.
        assert_eq!(t.revoke(a), Some(e(9, 9)));
        assert_eq!(t.find(e(9, 9)), Some(b));
        assert_eq!(t.revoke(b), Some(e(9, 9)));
        assert_eq!(t.find(e(9, 9)), None);
        // Slot reuse re-indexes under the new entry.
        let c = t.install(e(7, 7));
        assert_eq!(t.find(e(7, 7)), Some(c));
        assert_eq!(t.find(e(1, 100)), Some(Handle(0)));
        // revoke_entry removes every duplicate at once.
        let d1 = t.install(e(4, 4));
        let d2 = t.install(e(4, 4));
        assert_eq!(t.revoke_entry(e(4, 4)), 2);
        assert_eq!(t.resolve(d1), None);
        assert_eq!(t.resolve(d2), None);
        assert_eq!(t.find(e(4, 4)), None);
        // revoke_object keeps the index consistent too.
        assert_eq!(t.revoke_object(ObjectId::from_raw(7)), 1);
        assert_eq!(t.find(e(7, 7)), None);
    }

    #[test]
    fn handle_entries_round_trip_through_container_entry_encoding() {
        let h = Handle(7);
        let entry = h.entry();
        assert_eq!(entry.as_handle(), Some(h));
        assert_eq!(e(1, 2).as_handle(), None);
    }

    #[test]
    fn submission_queue_assigns_increasing_user_data() {
        let mut sq = SubmissionQueue::new();
        let a = sq.call(Syscall::CreateCategory);
        let b = sq.open_handle(e(1, 2));
        let c = sq.close_handle(Handle(0));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(sq.len(), 3);
        let drained = sq.drain();
        assert!(sq.is_empty());
        assert_eq!(drained[0].user_data, 0);
        assert!(matches!(drained[1].op, SqOp::HandleOpen { .. }));
        assert!(matches!(
            drained[2].op,
            SqOp::HandleClose { handle: Handle(0) }
        ));
    }
}
