//! Label-gated pseudo-files: the one protocol `/proc` and `/metrics`
//! share.
//!
//! A [`GatedTree`] knows only its tree — the names in each directory, how
//! a node is encoded, which container gates which node and how a file
//! renders.  Everything else is decided here, once, for both:
//!
//! * **The gate** is a `container_list` of the node's gate container on
//!   the caller's thread: the kernel's label check, not this library's.
//! * **Denial** is the kernel's `CannotObserve`, except at a node whose
//!   very existence is gated ([`GatedTree::hidden`]), where it is the same
//!   `NotFound` a missing entry produces, so revocation by relabeling is
//!   as silent as never having existed.
//! * **When the gate runs:** on entering a gated directory, on finding a
//!   hidden entry, on listing a gated directory, on `stat`, at `open`, on
//!   every `read`, and when a descriptor's vnode is rebuilt after `fork`
//!   or `share_fd`.  A listing leaves out every hidden entry the caller
//!   may not observe.
//! * **Contents** are rendered once the gate has passed at `open` (and at
//!   a rebuild) and served from that snapshot; `stat` reports the rendered
//!   length.
//!
//! A descriptor records its node as `target` and the gate it passed as
//! `target_container`.  A sharer can rewrite both, so a rebuild gates on
//! the recorded container and the renderer refuses a container that is
//! not the node's own gate.

use crate::env::UnixError;
use crate::fdtable::{FdKind, FdState, FLAG_RDONLY};
use crate::fs::{DirEntry, FileStat, OpenFlags};
use crate::vfs::{Filesystem, FsNode};
use crate::vnode::{undo_seek, vnode_for, FdRef, VfsCtx, Vnode};
use histar_kernel::dispatch::Syscall;
use histar_kernel::object::ObjectId;
use histar_kernel::syscall::SyscallError;
use histar_label::Label;

type Result<T> = core::result::Result<T, UnixError>;

/// The node of every gated tree's root directory.
pub(crate) const ROOT: u64 = 0;

/// One label-gated pseudo-filesystem's tree.  Implementing it makes the
/// type a [`Filesystem`] that follows this module's protocol.
pub(crate) trait GatedTree: core::fmt::Debug {
    /// The filesystem's name (`"procfs"`, `"metricsfs"`).
    const NAME: &'static str;
    /// The kind its descriptors record.
    const KIND: FdKind;

    /// Every entry of directory `dir`, hidden ones included; no gate runs.
    fn children(&mut self, ctx: &mut VfsCtx, dir: u64) -> Result<Vec<DirEntry>>;

    /// The container whose observation gates `node`; `None` for a public
    /// node.
    fn gate(&self, ctx: &VfsCtx, node: u64) -> Result<Option<ObjectId>>;

    /// For a node whose existence is gated by `gate`, the name a denial
    /// reports as missing; `None` (the default) for a node that is not
    /// hidden.
    fn hidden(_node: u64, _gate: ObjectId) -> Option<String> {
        None
    }

    /// Renders file `node` for a caller that passed `gate`, refusing a
    /// `gate` that is not the node's own.
    fn render(ctx: &mut VfsCtx, node: u64, gate: ObjectId) -> Result<Vec<u8>>;
}

/// The gate itself: one `container_list` of `gate` on the caller's thread,
/// its denial read as absence when the node is `hidden`.
fn pass(ctx: &mut VfsCtx, gate: ObjectId, hidden: Option<String>) -> Result<()> {
    let thread = ctx.thread;
    match ctx.kernel().trap_container_list(thread, gate) {
        Ok(_) => Ok(()),
        Err(e) => Err(denial(e, hidden)),
    }
}

fn denial(e: SyscallError, hidden: Option<String>) -> UnixError {
    match hidden {
        Some(name) => UnixError::NotFound(name),
        None => e.into(),
    }
}

/// Runs `node`'s gate, if it has one, and returns it.
fn check<T: GatedTree>(tree: &T, ctx: &mut VfsCtx, node: u64) -> Result<Option<ObjectId>> {
    let gate = tree.gate(ctx, node)?;
    if let Some(gate) = gate {
        pass(ctx, gate, T::hidden(node, gate))?;
    }
    Ok(gate)
}

/// The vnode of a descriptor on tree `T`: its recorded gate passed, its
/// node rendered.  Only [`vnode_for`] calls this.
pub(crate) fn reopen<T: GatedTree>(ctx: &mut VfsCtx, state: &FdState) -> Result<Box<dyn Vnode>> {
    let (node, gate) = (state.target.raw(), state.target_container);
    let hidden = T::hidden(node, gate);
    pass(ctx, gate, hidden.clone())?;
    let content = T::render(ctx, node, gate)?;
    Ok(Box::new(SnapshotVnode { content, hidden }))
}

impl<T: GatedTree> Filesystem for T {
    fn fs_name(&self) -> &'static str {
        T::NAME
    }

    fn root_node(&self) -> u64 {
        ROOT
    }

    fn lookup(&mut self, ctx: &mut VfsCtx, dir: u64, name: &str) -> Result<FsNode> {
        let entry = self
            .children(ctx, dir)?
            .into_iter()
            .find(|e| e.name == name)
            .ok_or_else(|| UnixError::NotFound(name.to_string()))?;
        let node = entry.object.raw();
        if let Some(gate) = self.gate(ctx, node)? {
            let hidden = T::hidden(node, gate);
            if entry.is_dir || hidden.is_some() {
                pass(ctx, gate, hidden)?;
            }
        }
        Ok(FsNode {
            node,
            is_dir: entry.is_dir,
        })
    }

    fn readdir(&mut self, ctx: &mut VfsCtx, dir: u64) -> Result<Vec<DirEntry>> {
        check(self, ctx, dir)?;
        let mut out = Vec::new();
        for entry in self.children(ctx, dir)? {
            let node = entry.object.raw();
            let hidden = match self.gate(ctx, node)? {
                Some(gate) => T::hidden(node, gate).map(|name| (gate, name)),
                None => None,
            };
            if let Some((gate, name)) = hidden {
                if pass(ctx, gate, Some(name)).is_err() {
                    continue;
                }
            }
            out.push(entry);
        }
        Ok(out)
    }

    fn stat(&mut self, ctx: &mut VfsCtx, _dir: u64, node: FsNode) -> Result<FileStat> {
        let len = match check(self, ctx, node.node)? {
            Some(gate) if !node.is_dir => T::render(ctx, node.node, gate)?.len() as u64,
            _ => 0,
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
        let gate = self
            .gate(ctx, node.node)?
            .ok_or(UnixError::Corrupt("a pseudo-file without a gate"))?;
        let state = FdState {
            kind: T::KIND,
            target: ObjectId::from_raw(node.node),
            target_container: gate,
            position: 0,
            flags: FLAG_RDONLY,
            refs: 1,
        };
        Ok((state, vnode_for(ctx, &state)?))
    }
}

/// An open gated pseudo-file: the text rendered when it was opened (or
/// rebuilt).  Every read passes the gate the descriptor records, batched
/// with the descriptor's seek update, before serving bytes.
#[derive(Debug)]
struct SnapshotVnode {
    content: Vec<u8>,
    /// The name a denial reports as missing, for a hidden node.
    hidden: Option<String>,
}

impl Vnode for SnapshotVnode {
    fn read(
        &mut self,
        ctx: &mut VfsCtx,
        fd: &FdRef,
        state: &mut FdState,
        len: u64,
    ) -> Result<Vec<u8>> {
        // `len` is untrusted: clamp before any arithmetic can overflow.
        let start = (state.position as usize).min(self.content.len());
        let end = (start as u64)
            .saturating_add(len)
            .min(self.content.len() as u64) as usize;
        // The gate and the seek update cross the boundary as one batch;
        // the gate must pass before bytes are served.
        let thread = ctx.thread;
        let position = (end as u64).to_le_bytes();
        let calls = vec![
            Syscall::ContainerList {
                container: state.target_container,
            },
            fd.position_update(&position),
        ];
        let mut results = ctx.kernel().submit_calls(thread, calls).into_iter();
        let gate = results.next().expect("label gate completes");
        let seek = results.next().expect("seek update completes");
        if let Err(e) = gate {
            // Batches have no rollback: undo the optimistic seek update
            // so a denied read does not move the shared position.
            undo_seek(ctx, fd, state.position);
            return Err(denial(e, self.hidden.clone()));
        }
        seek?;
        state.position = end as u64;
        Ok(self.content[start..end].to_vec())
    }

    fn write(
        &mut self,
        _ctx: &mut VfsCtx,
        _fd: &FdRef,
        state: &mut FdState,
        _data: &[u8],
    ) -> Result<u64> {
        Err(UnixError::ReadOnly(match state.kind {
            FdKind::Proc => "procfs",
            _ => "metricsfs",
        }))
    }

    fn stat(&mut self, _ctx: &mut VfsCtx, state: &FdState) -> Result<FileStat> {
        Ok(FileStat {
            object: state.target,
            is_dir: false,
            len: self.content.len() as u64,
        })
    }
}
