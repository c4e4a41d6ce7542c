//! `/dev`: the device pseudo-filesystem — console, null, zero, urandom.
//!
//! Like everything in the Unix library these are conventions, not kernel
//! objects: `console` forwards writes to the boot console device through
//! the kernel's (label-checked) device transmit path, `null`/`zero` are
//! pure library behaviour, and `urandom` streams bytes from a
//! deterministic [`SimRng`] so simulations stay reproducible: each open
//! numbers its stream, and a device descriptor records that number as its
//! `target_container`, so a process the descriptor reaches by `fork` or
//! `share_fd` starts the same stream again from its first byte.

use crate::env::UnixError;
use crate::fdtable::{FdKind, FdState, FLAG_RDONLY};
use crate::fs::{DirEntry, FileStat, OpenFlags};
use crate::vfs::{Filesystem, FsNode};
use crate::vnode::{vnode_for, ConsoleVnode, FdRef, VfsCtx, Vnode};
use histar_kernel::object::ObjectId;
use histar_label::Label;
use histar_sim::SimRng;

type Result<T> = core::result::Result<T, UnixError>;

const NODE_ROOT: u64 = 0;
const NODE_CONSOLE: u64 = 1;
const NODE_NULL: u64 = 2;
const NODE_ZERO: u64 = 3;
const NODE_URANDOM: u64 = 4;

/// Seed every `/dev/urandom` stream derives from.
const DEV_RNG_SEED: u64 = 0x0dd5_eed5;

/// Largest single device read: `/dev/zero` and `/dev/urandom` are
/// endless, so a read materializes at most this many bytes per call (a
/// short count, like read(2)); the caller's length is otherwise
/// untrusted and would size an allocation directly.
pub const DEV_READ_MAX: u64 = 1024 * 1024;

const NODES: [(&str, u64); 4] = [
    ("console", NODE_CONSOLE),
    ("null", NODE_NULL),
    ("zero", NODE_ZERO),
    ("urandom", NODE_URANDOM),
];

/// The `/dev` filesystem.
#[derive(Debug, Default)]
pub struct DevFs {
    /// Opens so far: each open's number names its urandom stream.
    opens: u64,
}

/// The vnode of device `node`; `stream` numbers a urandom stream.
pub(crate) fn device(node: u64, stream: u64) -> Result<Box<dyn Vnode>> {
    Ok(match node {
        NODE_CONSOLE => Box::new(ConsoleVnode),
        NODE_NULL => Box::new(DevVnode::Null),
        NODE_ZERO => Box::new(DevVnode::Zero),
        NODE_URANDOM => Box::new(DevVnode::Urandom(SimRng::new(
            DEV_RNG_SEED ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ))),
        _ => return Err(UnixError::Corrupt("devfs node out of range")),
    })
}

impl Filesystem for DevFs {
    fn fs_name(&self) -> &'static str {
        "devfs"
    }

    fn root_node(&self) -> u64 {
        NODE_ROOT
    }

    fn lookup(&mut self, _ctx: &mut VfsCtx, dir: u64, name: &str) -> Result<FsNode> {
        if dir != NODE_ROOT {
            return Err(UnixError::NotADirectory(name.to_string()));
        }
        NODES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, node)| FsNode {
                node: *node,
                is_dir: false,
            })
            .ok_or_else(|| UnixError::NotFound(name.to_string()))
    }

    fn readdir(&mut self, _ctx: &mut VfsCtx, dir: u64) -> Result<Vec<DirEntry>> {
        if dir != NODE_ROOT {
            return Err(UnixError::NotADirectory("devfs".to_string()));
        }
        Ok(NODES
            .iter()
            .map(|(name, node)| DirEntry {
                name: name.to_string(),
                object: ObjectId::from_raw(*node),
                is_dir: false,
            })
            .collect())
    }

    fn stat(&mut self, _ctx: &mut VfsCtx, _dir: u64, node: FsNode) -> Result<FileStat> {
        Ok(FileStat {
            object: ObjectId::from_raw(node.node),
            is_dir: node.is_dir || node.node == NODE_ROOT,
            len: 0,
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
        self.opens = self.opens.wrapping_add(1);
        let kind = if node.node == NODE_CONSOLE {
            FdKind::Console
        } else {
            FdKind::Dev
        };
        let state = FdState {
            kind,
            target: ObjectId::from_raw(node.node),
            target_container: ObjectId::from_raw(self.opens),
            position: 0,
            flags: if node.node == NODE_CONSOLE {
                0
            } else {
                FLAG_RDONLY
            },
            refs: 1,
        };
        Ok((state, vnode_for(ctx, &state)?))
    }
}

/// The non-console device vnodes.
#[derive(Debug)]
pub enum DevVnode {
    /// `/dev/null`: reads EOF, writes vanish.
    Null,
    /// `/dev/zero`: an endless stream of zero bytes.
    Zero,
    /// `/dev/urandom`: an endless deterministic random stream.
    Urandom(SimRng),
}

impl Vnode for DevVnode {
    fn read(
        &mut self,
        ctx: &mut VfsCtx,
        fd: &FdRef,
        state: &mut FdState,
        len: u64,
    ) -> Result<Vec<u8>> {
        let n = len.min(DEV_READ_MAX) as usize;
        let data = match self {
            DevVnode::Null => Vec::new(),
            DevVnode::Zero => vec![0u8; n],
            DevVnode::Urandom(rng) => rng.bytes(n),
        };
        if !data.is_empty() {
            let end = crate::vnode::access_end(state.position, data.len() as u64)?;
            let thread = ctx.thread;
            let position = end.to_le_bytes();
            for r in ctx
                .kernel()
                .submit_calls(thread, vec![fd.position_update(&position)])
            {
                r?;
            }
            state.position = end;
        }
        Ok(data)
    }

    fn write(
        &mut self,
        _ctx: &mut VfsCtx,
        _fd: &FdRef,
        _state: &mut FdState,
        data: &[u8],
    ) -> Result<u64> {
        match self {
            // null swallows anything; zero and urandom are read-only.
            DevVnode::Null => Ok(data.len() as u64),
            _ => Err(UnixError::ReadOnly("devfs")),
        }
    }
}
