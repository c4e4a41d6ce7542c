//! `/proc`: a label-filtered pseudo-filesystem exposing per-process
//! state (pid, labels, descriptor table).
//!
//! The root lists one directory per process, named by PID — PIDs are
//! public information (process containers are linked into the kernel
//! root with public labels), so listing `/proc` always succeeds.
//! Everything *inside* a PID directory is gated by the kernel: before a
//! PID directory or any file in it is looked up, stat'ed or read, procfs
//! issues a label-checked system call against that process's *internal*
//! container (`{pr 3, pw 0, 1}`, Figure 6) on the calling thread.  A
//! caller whose label cannot observe the process — any other process,
//! and in particular a tainted observer poking at an untainted victim —
//! gets `CannotObserve` back from the kernel, not from this library;
//! owning the process's `pr` category (the process itself, or anyone it
//! granted `pr` to through a gate) opens the entry.
//!
//! The file *contents* come from the Unix library's own bookkeeping (the
//! library already knows its processes; the kernel knows only objects):
//! they are rendered from the live process table every
//! [`VfsCtx`] carries, so there is no copy to refresh and a reaped
//! process is simply absent.  Contents are snapshotted at `open`; every
//! subsequent `read` re-runs the label check.

use crate::env::UnixError;
use crate::fdtable::{FdKind, FdState, FLAG_RDONLY};
use crate::fs::{DirEntry, FileStat, OpenFlags};
use crate::process::{Pid, ProcessState};
use crate::vfs::{Filesystem, FsNode};
use crate::vnode::{SnapshotVnode, VfsCtx, Vnode};
use histar_kernel::object::{ContainerEntry, ObjectId};
use histar_label::Label;

type Result<T> = core::result::Result<T, UnixError>;

/// Files inside a PID directory, in directory order.
const PID_FILES: [&str; 3] = ["status", "label", "fds"];

const NODE_ROOT: u64 = 0;
/// Node encoding: `pid << 3 | file`, where file 0 is the PID directory
/// itself and files 1.. index [`PID_FILES`].
fn node_of(pid: Pid, file: u64) -> u64 {
    (pid << 3) | file
}

/// The `/proc` filesystem.
#[derive(Debug, Default)]
pub struct ProcFs;

impl ProcFs {
    /// The label gate: a kernel call on the *caller's* thread that
    /// requires observing the process's internal container.  This is
    /// where `/proc` becomes label-filtered — the check is the kernel's,
    /// not this library's.
    fn check_observe(&self, ctx: &mut VfsCtx, pid: Pid) -> Result<()> {
        let internal = ctx.live_process(pid)?.internal_container;
        let thread = ctx.thread;
        ctx.kernel().trap_container_list(thread, internal)?;
        Ok(())
    }

    /// Renders one pseudo-file's contents (the open-time snapshot).
    fn render(&self, ctx: &mut VfsCtx, pid: Pid, file: u64) -> Result<Vec<u8>> {
        let p = ctx.live_process(pid)?;
        let text = match file {
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

impl Filesystem for ProcFs {
    fn fs_name(&self) -> &'static str {
        "procfs"
    }

    fn root_node(&self) -> u64 {
        NODE_ROOT
    }

    fn lookup(&mut self, ctx: &mut VfsCtx, dir: u64, name: &str) -> Result<FsNode> {
        if dir == NODE_ROOT {
            let pid: Pid = name
                .parse()
                .map_err(|_| UnixError::NotFound(name.to_string()))?;
            // Entering a PID directory is where the label gate sits.
            self.check_observe(ctx, pid)?;
            return Ok(FsNode {
                node: node_of(pid, 0),
                is_dir: true,
            });
        }
        let pid = dir >> 3;
        self.check_observe(ctx, pid)?;
        let file = PID_FILES
            .iter()
            .position(|f| *f == name)
            .ok_or_else(|| UnixError::NotFound(name.to_string()))?;
        Ok(FsNode {
            node: node_of(pid, file as u64 + 1),
            is_dir: false,
        })
    }

    fn readdir(&mut self, ctx: &mut VfsCtx, dir: u64) -> Result<Vec<DirEntry>> {
        if dir == NODE_ROOT {
            return Ok(ctx
                .live_processes()
                .map(|p| DirEntry {
                    name: p.pid.to_string(),
                    object: ObjectId::from_raw(node_of(p.pid, 0)),
                    is_dir: true,
                })
                .collect());
        }
        let pid = dir >> 3;
        self.check_observe(ctx, pid)?;
        Ok(PID_FILES
            .iter()
            .enumerate()
            .map(|(i, f)| DirEntry {
                name: f.to_string(),
                object: ObjectId::from_raw(node_of(pid, i as u64 + 1)),
                is_dir: false,
            })
            .collect())
    }

    fn stat(&mut self, ctx: &mut VfsCtx, _dir: u64, node: FsNode) -> Result<FileStat> {
        let pid = node.node >> 3;
        let file = node.node & 7;
        if node.node != NODE_ROOT {
            self.check_observe(ctx, pid)?;
        }
        let len = if node.is_dir || node.node == NODE_ROOT {
            0
        } else {
            self.render(ctx, pid, file)?.len() as u64
        };
        Ok(FileStat {
            object: ObjectId::from_raw(node.node),
            is_dir: node.is_dir,
            len,
        })
    }

    fn open(
        &mut self,
        ctx: &mut VfsCtx,
        dir: u64,
        name: &str,
        _flags: OpenFlags,
        _label: Option<Label>,
    ) -> Result<(FdState, Box<dyn Vnode>)> {
        let node = self.lookup(ctx, dir, name)?;
        if node.is_dir {
            return Err(UnixError::IsADirectory(name.to_string()));
        }
        let pid = node.node >> 3;
        let file = node.node & 7;
        let content = self.render(ctx, pid, file)?;
        let internal = ctx.live_process(pid)?.internal_container;
        let state = FdState {
            kind: FdKind::Proc,
            target: ObjectId::from_raw(node.node),
            target_container: internal,
            position: 0,
            flags: FLAG_RDONLY,
            refs: 1,
        };
        Ok((
            state,
            Box::new(SnapshotVnode {
                content,
                absence: None,
            }),
        ))
    }

    fn vnode_from_state(&mut self, ctx: &mut VfsCtx, state: &FdState) -> Result<Box<dyn Vnode>> {
        let pid = state.target.raw() >> 3;
        let file = state.target.raw() & 7;
        self.check_observe(ctx, pid)?;
        let content = self.render(ctx, pid, file)?;
        Ok(Box::new(SnapshotVnode {
            content,
            absence: None,
        }))
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}
