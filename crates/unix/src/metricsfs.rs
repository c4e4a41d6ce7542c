//! `/metrics`: a label-aware pseudo-filesystem over the kernel's metrics
//! registry.
//!
//! Three namespaces, three gates:
//!
//! * **Global counter files** (`/metrics/kernel`, `dispatch`, `labels`,
//!   `store`, `sched`) aggregate activity across every label in the system, so
//!   reading them is observing the whole machine.  They are gated the
//!   same way `/proc` gates a process: a label-checked syscall against a
//!   dedicated *metrics gate container* created at boot with a secrecy
//!   category only `init` owns.  A thread that cannot observe that
//!   container gets the kernel's `CannotObserve` back.
//! * **Per-task files** (`/metrics/tasks/<pid>`) carry one process's
//!   dispatched-syscall count, framed by that process's label: the gate
//!   is the process's *internal* container, exactly as in `/proc`.
//! * **Per-container files** (`/metrics/containers/<id>`) carry one
//!   container's entry count and quota headroom; the gate is the
//!   container itself — the label of the activity measured is the label
//!   that guards its measurements.
//!
//! Unlike `/proc`, denial on the per-activity namespaces is
//! **indistinguishable from absence**: a failed gate maps to the same
//! `NotFound` a genuinely missing entry produces, and `readdir` silently
//! omits unobservable entries.  A tainted reader learns neither the
//! metrics nor the *existence* of high-secrecy activity; an uncontained
//! reader sees the full set.  Contents are snapshotted at `open`; every
//! subsequent `read` re-runs the gate for its namespace.

use crate::env::UnixError;
use crate::fdtable::{FdKind, FdState, FLAG_RDONLY};
use crate::fs::{DirEntry, FileStat, OpenFlags};
use crate::process::Pid;
use crate::vfs::{Filesystem, FsNode};
use crate::vnode::{SnapshotVnode, VfsCtx, Vnode};
use histar_kernel::object::{ObjectId, OBJECT_ID_MASK};
use histar_label::Label;

type Result<T> = core::result::Result<T, UnixError>;

/// The global counter files, in directory order, with the metric-name
/// prefixes each one serves.
const GLOBAL_FILES: [(&str, &[&str]); 5] = [
    ("kernel", &["kernel.", "trace.", "spans."]),
    ("dispatch", &["dispatch."]),
    ("labels", &["label_cache."]),
    ("store", &["store.", "wal.", "disk."]),
    ("sched", &["sched."]),
];

/// Node encoding: `payload << 4 | tag`.  Tag 0 is the special namespace
/// (payload indexes root, the global files and the two directories);
/// tag 1 is a per-task file (payload = pid); tag 2 is a per-container
/// file (payload = an interned index into [`MetricsFs::containers`],
/// because raw container IDs use the full 61-bit space and cannot carry
/// extra tag bits).
const TAG_SPECIAL: u64 = 0;
const TAG_TASK: u64 = 1;
const TAG_CONTAINER: u64 = 2;

const NODE_ROOT: u64 = 0;
const SPECIAL_TASKS_DIR: u64 = 6;
const SPECIAL_CONTAINERS_DIR: u64 = 7;

fn node_of(tag: u64, payload: u64) -> u64 {
    (payload << 4) | tag
}

/// The `/metrics` filesystem.
#[derive(Debug)]
pub struct MetricsFs {
    /// The container whose label gates the global counter files.
    gate: ObjectId,
    /// Interned container IDs; a container's node payload is its index
    /// here, stable for the lifetime of the mount.
    containers: Vec<ObjectId>,
}

impl MetricsFs {
    /// Creates a metrics filesystem whose global files are gated by
    /// observing `gate` (a container labeled with a secrecy category the
    /// machine's administrator owns).
    pub fn new(gate: ObjectId) -> MetricsFs {
        MetricsFs {
            gate,
            containers: Vec::new(),
        }
    }

    fn intern_container(&mut self, id: ObjectId) -> u64 {
        match self.containers.iter().position(|c| *c == id) {
            Some(i) => i as u64,
            None => {
                self.containers.push(id);
                (self.containers.len() - 1) as u64
            }
        }
    }

    /// The gate for a node, given its tag and payload: which container
    /// must be observable, and whether denial must read as absence.  A
    /// task's gate is its process's internal container, as in `/proc`.
    fn gate_of(&self, ctx: &VfsCtx, tag: u64, payload: u64) -> Result<(ObjectId, bool)> {
        match tag {
            TAG_SPECIAL => Ok((self.gate, false)),
            TAG_TASK => Ok((ctx.live_process(payload)?.internal_container, true)),
            TAG_CONTAINER => {
                let id = self
                    .containers
                    .get(payload as usize)
                    .copied()
                    .ok_or(UnixError::Corrupt("metrics node names no container"))?;
                Ok((id, true))
            }
            _ => Err(UnixError::Corrupt("metrics node tag")),
        }
    }

    /// Runs the label gate for a node.  When `absence` is set, any kernel
    /// denial is flattened to the same `NotFound` a missing entry
    /// produces — the no-existence-channel property.
    fn check_gate(&self, ctx: &mut VfsCtx, tag: u64, payload: u64, name: &str) -> Result<()> {
        let (container, absence) = self.gate_of(ctx, tag, payload)?;
        let thread = ctx.thread;
        match ctx.kernel().trap_container_list(thread, container) {
            Ok(_) => Ok(()),
            Err(_) if absence => Err(UnixError::NotFound(name.to_string())),
            Err(e) => Err(e.into()),
        }
    }

    /// Renders one pseudo-file's contents (the open-time snapshot).  The
    /// gate must already have passed.
    fn render(&self, ctx: &mut VfsCtx, tag: u64, payload: u64) -> Result<Vec<u8>> {
        let text = match tag {
            TAG_SPECIAL => {
                let (_, prefixes) = GLOBAL_FILES
                    .get(payload as usize - 1)
                    .ok_or(UnixError::Corrupt("metrics node encodes no file"))?;
                let set = ctx.kernel().metrics();
                let mut out = String::new();
                for m in set.iter() {
                    let full = m.full_name();
                    if prefixes.iter().any(|p| full.starts_with(p)) {
                        out.push_str(&format!("{full}\t{}\n", m.value));
                    }
                }
                out
            }
            TAG_TASK => {
                let thread = ctx.live_process(payload)?.thread;
                let syscalls = ctx.kernel().thread_syscalls(thread);
                format!("task.pid\t{payload}\ntask.syscalls\t{syscalls}\n")
            }
            TAG_CONTAINER => {
                let id = self
                    .containers
                    .get(payload as usize)
                    .copied()
                    .ok_or(UnixError::Corrupt("metrics node names no container"))?;
                let thread = ctx.thread;
                // These calls are label-checked too: they are the same
                // observe the gate already passed.
                let entries = ctx.kernel().trap_container_list(thread, id)?.len();
                let avail = ctx.kernel().trap_container_quota_avail(thread, id)?;
                format!(
                    "container.id\t{}\ncontainer.entries\t{entries}\ncontainer.quota_avail\t{avail}\n",
                    id.raw()
                )
            }
            _ => return Err(UnixError::Corrupt("metrics node tag")),
        };
        Ok(text.into_bytes())
    }
}

impl Filesystem for MetricsFs {
    fn fs_name(&self) -> &'static str {
        "metricsfs"
    }

    fn root_node(&self) -> u64 {
        NODE_ROOT
    }

    fn lookup(&mut self, ctx: &mut VfsCtx, dir: u64, name: &str) -> Result<FsNode> {
        if dir == NODE_ROOT {
            if let Some(i) = GLOBAL_FILES.iter().position(|(f, _)| *f == name) {
                // The gate sits on open/stat/read, not on lookup: the
                // global file *names* are public, their contents are not.
                return Ok(FsNode {
                    node: node_of(TAG_SPECIAL, i as u64 + 1),
                    is_dir: false,
                });
            }
            return match name {
                "tasks" => Ok(FsNode {
                    node: node_of(TAG_SPECIAL, SPECIAL_TASKS_DIR),
                    is_dir: true,
                }),
                "containers" => Ok(FsNode {
                    node: node_of(TAG_SPECIAL, SPECIAL_CONTAINERS_DIR),
                    is_dir: true,
                }),
                _ => Err(UnixError::NotFound(name.to_string())),
            };
        }
        match (dir & 15, dir >> 4) {
            (TAG_SPECIAL, SPECIAL_TASKS_DIR) => {
                let pid: Pid = name
                    .parse()
                    .map_err(|_| UnixError::NotFound(name.to_string()))?;
                // Denied and absent must be the same error before any
                // state is revealed.
                ctx.live_process(pid)
                    .map_err(|_| UnixError::NotFound(name.to_string()))?;
                self.check_gate(ctx, TAG_TASK, pid, name)?;
                Ok(FsNode {
                    node: node_of(TAG_TASK, pid),
                    is_dir: false,
                })
            }
            (TAG_SPECIAL, SPECIAL_CONTAINERS_DIR) => {
                let raw: u64 = name
                    .parse()
                    .map_err(|_| UnixError::NotFound(name.to_string()))?;
                if raw > OBJECT_ID_MASK {
                    return Err(UnixError::NotFound(name.to_string()));
                }
                let id = ObjectId::from_raw(raw);
                if !ctx.kernel().container_ids().contains(&id) {
                    return Err(UnixError::NotFound(name.to_string()));
                }
                let payload = self.intern_container(id);
                self.check_gate(ctx, TAG_CONTAINER, payload, name)?;
                Ok(FsNode {
                    node: node_of(TAG_CONTAINER, payload),
                    is_dir: false,
                })
            }
            _ => Err(UnixError::NotFound(name.to_string())),
        }
    }

    fn readdir(&mut self, ctx: &mut VfsCtx, dir: u64) -> Result<Vec<DirEntry>> {
        if dir == NODE_ROOT {
            let mut out: Vec<DirEntry> = GLOBAL_FILES
                .iter()
                .enumerate()
                .map(|(i, (f, _))| DirEntry {
                    name: f.to_string(),
                    object: ObjectId::from_raw(node_of(TAG_SPECIAL, i as u64 + 1)),
                    is_dir: false,
                })
                .collect();
            for (name, payload) in [
                ("tasks", SPECIAL_TASKS_DIR),
                ("containers", SPECIAL_CONTAINERS_DIR),
            ] {
                out.push(DirEntry {
                    name: name.to_string(),
                    object: ObjectId::from_raw(node_of(TAG_SPECIAL, payload)),
                    is_dir: true,
                });
            }
            return Ok(out);
        }
        match (dir & 15, dir >> 4) {
            (TAG_SPECIAL, SPECIAL_TASKS_DIR) => {
                // Silently omit entries the caller may not observe: the
                // listing must not leak the existence of gated activity.
                let pids: Vec<Pid> = ctx.live_processes().map(|p| p.pid).collect();
                let mut out = Vec::new();
                for pid in pids {
                    if self.check_gate(ctx, TAG_TASK, pid, "").is_ok() {
                        out.push(DirEntry {
                            name: pid.to_string(),
                            object: ObjectId::from_raw(node_of(TAG_TASK, pid)),
                            is_dir: false,
                        });
                    }
                }
                Ok(out)
            }
            (TAG_SPECIAL, SPECIAL_CONTAINERS_DIR) => {
                let ids = ctx.kernel().container_ids();
                let mut out = Vec::new();
                for id in ids {
                    let payload = self.intern_container(id);
                    if self.check_gate(ctx, TAG_CONTAINER, payload, "").is_ok() {
                        out.push(DirEntry {
                            name: id.raw().to_string(),
                            object: ObjectId::from_raw(node_of(TAG_CONTAINER, payload)),
                            is_dir: false,
                        });
                    }
                }
                Ok(out)
            }
            _ => Err(UnixError::NotADirectory(format!("metrics node {dir:#x}"))),
        }
    }

    fn stat(&mut self, ctx: &mut VfsCtx, _dir: u64, node: FsNode) -> Result<FileStat> {
        let (tag, payload) = (node.node & 15, node.node >> 4);
        let len = if node.is_dir {
            0
        } else {
            self.check_gate(ctx, tag, payload, &payload.to_string())?;
            self.render(ctx, tag, payload)?.len() as u64
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
        let (tag, payload) = (node.node & 15, node.node >> 4);
        self.check_gate(ctx, tag, payload, name)?;
        let content = self.render(ctx, tag, payload)?;
        let (gate_container, absence) = self.gate_of(ctx, tag, payload)?;
        let state = FdState {
            kind: FdKind::Metrics,
            target: ObjectId::from_raw(node.node),
            target_container: gate_container,
            position: 0,
            flags: FLAG_RDONLY,
            refs: 1,
        };
        let absence = absence.then(|| name.to_string());
        Ok((state, Box::new(SnapshotVnode { content, absence })))
    }

    fn vnode_from_state(&mut self, ctx: &mut VfsCtx, state: &FdState) -> Result<Box<dyn Vnode>> {
        let (tag, payload) = (state.target.raw() & 15, state.target.raw() >> 4);
        let name = payload.to_string();
        self.check_gate(ctx, tag, payload, &name)?;
        let content = self.render(ctx, tag, payload)?;
        let absence = self.gate_of(ctx, tag, payload)?.1.then_some(name);
        Ok(Box::new(SnapshotVnode { content, absence }))
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}
