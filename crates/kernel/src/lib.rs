//! The HiStar kernel: six object types and explicit information flow.
//!
//! This crate implements Sections 3 and 4 of *Making Information Flow
//! Explicit in HiStar* (OSDI 2006).  All operating-system abstractions are
//! layered on top of six low-level kernel object types — segments, threads,
//! address spaces, containers, gates and devices — and every object carries
//! an immutable label.  The kernel interface is designed so that:
//!
//! > The contents of object A can only affect object B if, for every
//! > category c in which A is more tainted than B, a thread owning c takes
//! > part in the process.
//!
//! The kernel here is a *user-space reproduction*: threads are driven
//! cooperatively by the caller (the untrusted Unix library in
//! `histar-unix`), and hardware is simulated by `histar-sim`.  What is
//! preserved exactly is the object model, the system-call surface, and the
//! label checks performed on every operation.
//!
//! # Module map
//!
//! * [`object`] — object IDs, headers, flags, container entries.
//! * [`bodies`] — the per-type payloads of the six object types.
//! * [`syscall`] — the error type and syscall statistics.
//! * [`kernel`] — the [`Kernel`] itself: the trap, the console, and the
//!   [`kernel::Sys`] state a call may reach, with the proof types its label
//!   checks return (`kernel::checked`).
//! * `syscalls` — the 42 `sys_*` handlers, methods of `Sys` outside the
//!   `kernel` module, so each reaches an object only through a proof
//!   (crate-private: the trap in [`dispatch`] is the only way in).
//! * [`serialize`] — binary encoding of kernel objects for the single-level
//!   store.
//! * [`machine`] — a [`machine::Machine`] bundles a kernel with a
//!   single-level store and a simulated clock, providing boot, snapshot and
//!   recovery.
//! * [`dispatch`] — the trap-style syscall ABI: a [`dispatch::Syscall`]
//!   value per entry point, decoded and executed only by
//!   [`Kernel::dispatch`](kernel::Kernel::dispatch) (one call per trap) /
//!   [`Kernel::submit_calls`](kernel::Kernel::submit_calls) (one trap cost
//!   per batch); the one place a call is charged, counted, refused for a
//!   halted caller and appended to the bounded audit trace.
//! * [`abi`] — the other direction of that edge: the per-thread
//!   completion queue of kernel-pushed [`abi::Completion`]s (alert
//!   pending, watched object ready).
//! * [`sched`] — a deterministic round-robin [`sched::Scheduler`] stepping
//!   user-level programs one quantum at a time over any
//!   [`sched::SchedContext`], plus `Machine::run_until`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A `pub fn` handler takes the crate-private `Caller`: an error here, so
// no handler is reachable from outside the crate, around the trap.
#![deny(private_interfaces)]

pub mod abi;
pub mod bodies;
pub mod dispatch;
pub mod kernel;
pub mod machine;
pub mod object;
pub mod sched;
pub mod serialize;
pub mod syscall;
mod syscalls;

pub use abi::Completion;
pub use dispatch::{DispatchStats, Syscall, SyscallResult, SyscallTrace, TraceRecord};
pub use kernel::Kernel;
pub use machine::{Machine, MachineConfig};
pub use object::{ContainerEntry, ObjectFlags, ObjectId, ObjectType};
pub use sched::{
    RunLimit, SchedConfig, SchedContext, SchedStats, ScheduleReport, Scheduler, Step, StopReason,
};
pub use syscall::{SyscallError, SyscallStats};

/// Convenience result alias for kernel operations.
pub type Result<T> = core::result::Result<T, SyscallError>;
