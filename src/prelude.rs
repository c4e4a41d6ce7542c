//! Commonly used types, re-exported for examples and applications.

pub use histar_exporter::{Fabric, GlobalCategory};
pub use histar_kernel::{
    abi::Completion,
    machine::{Machine, MachineConfig},
    object::{ContainerEntry, ObjectId},
    sched::{RunLimit, Scheduler, Step},
    syscall::SyscallError,
    Kernel, Syscall, SyscallResult,
};
pub use histar_label::{Category, Label, Level};
pub use histar_sim::clock::SimClock;
pub use histar_unix::{process::Process, UnixEnv};
