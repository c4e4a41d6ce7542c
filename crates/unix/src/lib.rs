//! The untrusted user-level Unix emulation library (§5).
//!
//! HiStar provides no Unix abstractions in the kernel.  Everything a Unix
//! program expects — processes, a file system, file descriptors, pipes,
//! signals, users — is built *in user space* out of the six kernel object
//! types, running with only the privileges (category ownerships) of the
//! calling user.  A bug here compromises only the threads that trigger it,
//! never the kernel's information-flow guarantees.
//!
//! The entry point is [`UnixEnv`], which owns a simulated
//! [`Machine`](histar_kernel::Machine) and exposes the Unix-like API:
//!
//! * [`process`] — processes as container pairs (Figure 6), `spawn`,
//!   `fork`, `exec`, `wait`, `exit`.
//! * [`vfs`] — the mount layer: path resolution across filesystem
//!   boundaries and the [`vfs::Filesystem`] trait.
//! * [`vnode`] — the [`vnode::Vnode`] trait every descriptor dispatches
//!   through, plus pipes, the console and the batched descriptor hot
//!   path.
//! * [`segfs`] — the paper's file system (§5.1): files as segments,
//!   directories as containers with a directory segment.
//! * [`persistfs`] — the store-backed persistent filesystem at
//!   `/persist`: inodes, dirents and extents as labeled records in the
//!   single-level store's object map; `fsync` is a write-ahead-log append
//!   and recovery replays the log into a mountable tree.
//! * [`procfs`] — label-filtered per-process state under `/proc`.
//! * [`devfs`] — `/dev`: console, null, zero, urandom.
//! * [`fs`] — the on-segment directory format, path helpers, open flags.
//! * [`fdtable`] — file descriptors as segments shared across processes.
//! * [`users`] — per-user read/write categories (no superuser anywhere).
//! * [`gatecall`] — the service-gate / return-gate convention (Figure 7),
//!   including taint-forking for privacy-preserving services.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod devfs;
pub mod env;
pub mod fdtable;
pub mod fs;
pub mod gatecall;
pub mod metricsfs;
pub mod net_queue;
pub mod persistfs;
pub mod process;
pub mod procfs;
pub mod segfs;
pub mod users;
pub mod vfs;
pub mod vnode;

pub use env::{UnixEnv, UnixError};
pub use fdtable::{Fd, FdKind};
pub use fs::OpenFlags;
pub use process::{ExitStatus, Pid, Process};
pub use users::User;
pub use vfs::{Filesystem, Vfs};
pub use vnode::Vnode;

/// Convenience result alias for Unix-library operations.
pub type Result<T> = core::result::Result<T, UnixError>;
