//! `/metrics`: a label-aware pseudo-filesystem over the kernel's metrics
//! registry.
//!
//! Three namespaces, three gates:
//!
//! * **Global counter files** (`/metrics/kernel`, `dispatch`, `labels`,
//!   `store`, `sched`) aggregate activity across every label in the system, so
//!   reading them is observing the whole machine.  They are gated the
//!   same way `/proc` gates a process, by a dedicated *metrics gate
//!   container* created at boot with a secrecy category only `init` owns
//!   ([`VfsCtx::metrics_gate`]).  A thread that cannot observe that
//!   container gets the kernel's `CannotObserve` back; the file *names*
//!   are public.
//! * **Per-task files** (`/metrics/tasks/<pid>`) carry one process's
//!   dispatched-syscall count, framed by that process's label: the gate
//!   is the process's *internal* container, exactly as in `/proc`.
//! * **Per-container files** (`/metrics/containers/<id>`) carry one
//!   container's entry count and quota headroom; the gate is the
//!   container itself — the label of the activity measured is the label
//!   that guards its measurements.
//!
//! Unlike `/proc`, the per-activity entries are *hidden*: a denial there
//! is indistinguishable from absence, and a listing leaves out what the
//! caller may not observe.  A tainted reader learns neither the metrics
//! nor the *existence* of high-secrecy activity; an uncontained reader
//! sees the full set.  When each gate runs is
//! [`snapshot`](crate::snapshot)'s protocol; this module is only the tree.

use crate::env::UnixError;
use crate::fdtable::FdKind;
use crate::fs::DirEntry;
use crate::snapshot::{GatedTree, ROOT};
use crate::vnode::VfsCtx;
use histar_kernel::object::ObjectId;
use std::collections::BTreeMap;

type Result<T> = core::result::Result<T, UnixError>;

/// The root's entries, in directory order: the global counter files with
/// the metric-name prefixes each one serves (special payloads 1..=5),
/// then the two directories (payloads 6 and 7).
const GLOBAL_FILES: [(&str, &[&str]); 5] = [
    ("kernel", &["kernel.", "trace.", "spans."]),
    ("dispatch", &["dispatch."]),
    ("labels", &["label_cache."]),
    ("store", &["store.", "wal.", "disk."]),
    ("sched", &["sched."]),
];
const DIRS: [(&str, u64); 2] = [("tasks", TASKS_DIR), ("containers", CONTAINERS_DIR)];

/// Node encoding: `payload << 4 | tag`.  Tag 0 is the special namespace
/// (payload indexes root, the global files and the two directories);
/// tag 1 is a per-task file (payload = pid); tag 2 is a per-container
/// file (payload = an interned index into [`MetricsFs::containers`],
/// because raw container IDs use the full 61-bit space and cannot carry
/// extra tag bits).
const TAG_SPECIAL: u64 = 0;
const TAG_TASK: u64 = 1;
const TAG_CONTAINER: u64 = 2;

const TASKS_DIR: u64 = 6;
const CONTAINERS_DIR: u64 = 7;

fn node_of(tag: u64, payload: u64) -> u64 {
    (payload << 4) | tag
}

/// The `/metrics` filesystem.
#[derive(Debug, Default)]
pub struct MetricsFs {
    /// Interned container IDs; a container's node payload is its index
    /// here, stable for the lifetime of the mount.
    containers: Vec<ObjectId>,
    /// Each interned ID's index in `containers`.
    interned: BTreeMap<ObjectId, u64>,
}

impl MetricsFs {
    fn intern_container(&mut self, id: ObjectId) -> u64 {
        let containers = &mut self.containers;
        *self.interned.entry(id).or_insert_with(|| {
            containers.push(id);
            containers.len() as u64 - 1
        })
    }
}

/// The gate of a global file, or of a task, whatever the descriptor
/// records.
fn fixed_gate(ctx: &VfsCtx, tag: u64, payload: u64) -> Result<ObjectId> {
    match tag {
        TAG_SPECIAL => ctx
            .metrics_gate
            .ok_or(UnixError::Corrupt("no metrics gate")),
        _ => Ok(ctx.live_process(payload)?.internal_container),
    }
}

impl GatedTree for MetricsFs {
    const NAME: &'static str = "metricsfs";
    const KIND: FdKind = FdKind::Metrics;

    fn children(&mut self, ctx: &mut VfsCtx, dir: u64) -> Result<Vec<DirEntry>> {
        let entry = |node, is_dir, name: String| DirEntry {
            name,
            object: ObjectId::from_raw(node),
            is_dir,
        };
        Ok(match dir {
            ROOT => (1..)
                .zip(GLOBAL_FILES)
                .map(|(i, (name, _))| entry(node_of(TAG_SPECIAL, i), false, name.to_string()))
                .chain(DIRS.map(|(name, i)| entry(node_of(TAG_SPECIAL, i), true, name.to_string())))
                .collect(),
            _ if dir == node_of(TAG_SPECIAL, TASKS_DIR) => ctx
                .live_processes()
                .map(|p| entry(node_of(TAG_TASK, p.pid), false, p.pid.to_string()))
                .collect(),
            _ if dir == node_of(TAG_SPECIAL, CONTAINERS_DIR) => {
                let ids = ctx.kernel().container_ids();
                ids.into_iter()
                    .map(|id| {
                        let node = node_of(TAG_CONTAINER, self.intern_container(id));
                        entry(node, false, id.raw().to_string())
                    })
                    .collect()
            }
            _ => return Err(UnixError::NotADirectory(format!("metrics node {dir:#x}"))),
        })
    }

    fn gate(&self, ctx: &VfsCtx, node: u64) -> Result<Option<ObjectId>> {
        let (tag, payload) = (node & 15, node >> 4);
        match tag {
            TAG_SPECIAL if !(1..=GLOBAL_FILES.len() as u64).contains(&payload) => Ok(None),
            TAG_CONTAINER => self
                .containers
                .get(payload as usize)
                .copied()
                .map(Some)
                .ok_or(UnixError::Corrupt("metrics node names no container")),
            _ => fixed_gate(ctx, tag, payload).map(Some),
        }
    }

    fn hidden(node: u64, gate: ObjectId) -> Option<String> {
        match node & 15 {
            TAG_TASK => Some((node >> 4).to_string()),
            TAG_CONTAINER => Some(gate.raw().to_string()),
            _ => None,
        }
    }

    fn render(ctx: &mut VfsCtx, node: u64, gate: ObjectId) -> Result<Vec<u8>> {
        let (tag, payload) = (node & 15, node >> 4);
        if tag != TAG_CONTAINER && fixed_gate(ctx, tag, payload)? != gate {
            return Err(UnixError::Corrupt("metrics descriptor names another gate"));
        }
        let text = match tag {
            TAG_SPECIAL => {
                let (_, prefixes) = GLOBAL_FILES
                    .get((payload as usize).wrapping_sub(1))
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
                // These calls are label-checked too: they are the same
                // observe the gate already passed.
                let thread = ctx.thread;
                let entries = ctx.kernel().trap_container_list(thread, gate)?.len();
                let avail = ctx.kernel().trap_container_quota_avail(thread, gate)?;
                format!(
                    "container.id\t{}\ncontainer.entries\t{entries}\ncontainer.quota_avail\t{avail}\n",
                    gate.raw()
                )
            }
            _ => return Err(UnixError::Corrupt("metrics node tag")),
        };
        Ok(text.into_bytes())
    }
}
