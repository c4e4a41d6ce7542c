//! The user↔kernel edge beside the trap: what the kernel sends a thread
//! without being asked.
//!
//! Calls go *in* synchronously — one at a time through
//! [`Kernel::dispatch`](crate::kernel::Kernel::dispatch) and the `trap_*`
//! wrappers, or many per boundary crossing through
//! [`Kernel::submit_calls`](crate::kernel::Kernel::submit_calls), which
//! pays one trap cost for the whole batch while still performing every
//! per-call label check, statistics update and audit-trace append — and
//! their results come straight back to the caller.  Kernel events come
//! *out* asynchronously: a [`Completion`] is pushed onto the thread's
//! completion queue when an alert is posted to it or an object it watches
//! makes progress.  A thread blocked on an empty completion queue is woken
//! by the scheduler when one arrives, so waiting costs zero quanta.
//!
//! Objects have one name at this edge, the container entry `⟨D, O⟩`; the
//! label-comparison cache is what makes re-checking it cheap.

use crate::object::ObjectId;
use std::collections::VecDeque;

/// One completion-queue entry: a kernel-originated notification.
#[derive(Clone, Debug, PartialEq)]
pub enum Completion {
    /// An alert was posted to this thread.  The alert itself is still
    /// claimed with `self_take_alert`; the notification exists so a thread
    /// blocked on its completion queue wakes without polling.
    AlertPending {
        /// The alert's code.
        code: u64,
    },
    /// An object this thread registered a watch on (`segment_watch`) was
    /// written to or deallocated.  The watch is one-shot — a woken thread
    /// re-checks the object and re-registers if it still wants to wait.
    /// This is the wake half of blocking `read(2)`/`accept(2)`/`poll`.
    ObjectReady {
        /// The object that made progress.
        object: ObjectId,
    },
}

/// A thread's runtime state at the ABI edge.  It is part of the thread
/// object ([`ThreadBody::runtime`](crate::bodies::ThreadBody), boxed so a
/// thread does not widen every `KObject`), is never serialized, and is
/// gone with the thread — there is no side table to keep in step.
#[derive(Clone, Debug, Default)]
pub(crate) struct ThreadRuntime {
    /// Unreaped completions, oldest first.
    pub(crate) completions: VecDeque<Completion>,
    /// Dispatched-syscall count (served by `/metrics/tasks`).
    pub(crate) syscalls: u64,
}
