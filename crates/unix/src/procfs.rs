//! `/proc`: a label-filtered pseudo-filesystem exposing per-process
//! state (pid, labels, descriptor table).
//!
//! The root lists one directory per process, named by PID — PIDs are
//! public information (process containers are linked into the kernel
//! root with public labels), so listing `/proc` always succeeds.
//! Everything *inside* a PID directory is gated by that process's
//! *internal* container (`{pr 3, pw 0, 1}`, Figure 6): a caller whose
//! label cannot observe the process — any other process, and in
//! particular a tainted observer poking at an untainted victim — gets
//! `CannotObserve` back from the kernel, not from this library; owning the
//! process's `pr` category (the process itself, or anyone it granted `pr`
//! to through a gate) opens the entry.  When the gate runs, and what a
//! denial looks like, is [`snapshot`](crate::snapshot)'s protocol; this
//! module is only the tree.
//!
//! The file *contents* come from the Unix library's own bookkeeping (the
//! library already knows its processes; the kernel knows only objects):
//! they are rendered from the live process table every
//! [`VfsCtx`] carries, so there is no copy to refresh and a reaped
//! process is simply absent.

use crate::env::UnixError;
use crate::fdtable::FdKind;
use crate::fs::DirEntry;
use crate::process::{Pid, ProcessState};
use crate::snapshot::{GatedTree, ROOT};
use crate::vnode::VfsCtx;
use histar_kernel::object::{ContainerEntry, ObjectId};

type Result<T> = core::result::Result<T, UnixError>;

/// Files inside a PID directory, in directory order.
const PID_FILES: [&str; 3] = ["status", "label", "fds"];

/// Node encoding: `pid << 3 | file`, where file 0 is the PID directory
/// itself and files 1.. index [`PID_FILES`].
fn node_of(pid: Pid, file: u64) -> u64 {
    (pid << 3) | file
}

/// The `/proc` filesystem.
#[derive(Debug, Default)]
pub struct ProcFs;

/// The gate of everything under `/proc/<pid>`: the process's internal
/// container.
fn internal(ctx: &VfsCtx, pid: Pid) -> Result<ObjectId> {
    Ok(ctx.live_process(pid)?.internal_container)
}

impl GatedTree for ProcFs {
    const NAME: &'static str = "procfs";
    const KIND: FdKind = FdKind::Proc;

    fn children(&mut self, ctx: &mut VfsCtx, dir: u64) -> Result<Vec<DirEntry>> {
        let entry = |node, is_dir, name: String| DirEntry {
            name,
            object: ObjectId::from_raw(node),
            is_dir,
        };
        if dir == ROOT {
            return Ok(ctx
                .live_processes()
                .map(|p| entry(node_of(p.pid, 0), true, p.pid.to_string()))
                .collect());
        }
        Ok((1..)
            .zip(PID_FILES)
            .map(|(file, name)| entry(node_of(dir >> 3, file), false, name.to_string()))
            .collect())
    }

    fn gate(&self, ctx: &VfsCtx, node: u64) -> Result<Option<ObjectId>> {
        match node {
            ROOT => Ok(None),
            _ => internal(ctx, node >> 3).map(Some),
        }
    }

    fn render(ctx: &mut VfsCtx, node: u64, gate: ObjectId) -> Result<Vec<u8>> {
        let p = ctx.live_process(node >> 3)?;
        if p.internal_container != gate {
            return Err(UnixError::Corrupt("procfs descriptor names another gate"));
        }
        let text = match node & 7 {
            1 => {
                let parent = p
                    .parent
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "-".to_string());
                let user = p.user.as_deref().unwrap_or("-");
                let state = match p.state {
                    ProcessState::Zombie(_) => "zombie",
                    _ => "running",
                };
                format!(
                    "pid:\t{}\nparent:\t{}\nuser:\t{}\nexe:\t{}\nstate:\t{}\n",
                    p.pid, parent, user, p.executable, state
                )
            }
            2 => {
                let thread = ctx.thread;
                let label = ctx.kernel().trap_thread_get_label(
                    thread,
                    ContainerEntry::new(p.process_container, p.thread),
                )?;
                format!("{label}\n")
            }
            3 => format!("open fds:\t{}\n", p.fds.open_count()),
            _ => return Err(UnixError::Corrupt("procfs node encodes no file")),
        };
        Ok(text.into_bytes())
    }
}
