//! The Unix environment: the library state tying processes, the VFS and
//! file descriptors together over a simulated HiStar machine.
//!
//! Everything in this module is *untrusted library code* in the paper's
//! sense: it only ever acts through kernel system calls made on behalf of
//! some process's thread, so every access it performs is subject to the
//! kernel's label checks.  A process with insufficient privilege simply gets
//! `CannotObserve`/`CannotModify` errors back, exactly as a buggy or
//! malicious library would.
//!
//! File and descriptor operations are thin wrappers here: paths resolve
//! through the [`Vfs`] mount table (segment fs at `/`, label-filtered
//! `/proc`, devices at `/dev`, plus whatever [`UnixEnv::mount`] overlays)
//! and every descriptor dispatches through its [`Vnode`], which owns the
//! batched hot path.  What remains in this file is the process machinery
//! (§5.2) and the descriptor-segment bookkeeping that must straddle
//! processes (`dup`/`fork` sharing: reference counts, and the hard link
//! each process holds to every descriptor it has open, §5.3).

use crate::devfs::DevFs;
use crate::fdtable::{Fd, FdState, FdTable, FLAG_NONBLOCK, FLAG_TARGET_BESIDE};
use crate::fs::DirEntry;
use crate::fs::{join_path, FileStat, OpenFlags};
use crate::gatecall;
use crate::metricsfs::MetricsFs;
use crate::persistfs::PersistFs;
use crate::process::{ExitStatus, Pid, Process, ProcessState};
use crate::procfs::ProcFs;
use crate::segfs::SegFs;
use crate::users::{User, UserTable};
use crate::vfs::{ensure_quota, SyncTarget, Vfs};
use crate::vnode::{self, create_pipe, FdRef, VfsCtx, Vnode};
use histar_kernel::bodies::{Mapping, MappingFlags};
use histar_kernel::kernel::PAGE_SIZE;
use histar_kernel::object::{ContainerEntry, ObjectId};
use histar_kernel::syscall::SyscallError;
use histar_kernel::{Machine, MachineConfig, Syscall, SyscallResult};
use histar_label::{Category, Label, Level};
use histar_store::codec::Wire;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Errors returned by the Unix library.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnixError {
    /// A kernel system call failed (usually a label check).
    Kernel(SyscallError),
    /// A path component does not exist.
    NotFound(String),
    /// The path already exists.
    Exists(String),
    /// A non-directory appeared where a directory was required.
    NotADirectory(String),
    /// A directory appeared where a file was required.
    IsADirectory(String),
    /// The file descriptor is not open.
    BadFd(Fd),
    /// No such process.
    NoSuchProcess(Pid),
    /// The process has not exited yet.
    StillRunning(Pid),
    /// The operation would block (e.g. reading an empty pipe).
    WouldBlock,
    /// No such user.
    NoSuchUser(String),
    /// The descriptor or operation does not support this action.
    Unsupported(&'static str),
    /// The corrupted state was detected in a library data structure.
    Corrupt(&'static str),
    /// The paths of a rename resolve into different mounted filesystems;
    /// neither directory was modified.
    CrossMount {
        /// The (normalized) source path.
        from: String,
        /// The (normalized) destination path.
        to: String,
    },
    /// The filesystem does not support modification.
    ReadOnly(&'static str),
}

impl From<SyscallError> for UnixError {
    fn from(e: SyscallError) -> UnixError {
        UnixError::Kernel(e)
    }
}

/// The next completion of a `submit_calls` batch, unwrapped to the value its
/// row returns.  Taking a batch's completions in submission order through
/// `?` reports its first error in that order, as a fail-stop sequence of
/// lone traps would.
pub(crate) fn take<T>(
    results: &mut impl Iterator<Item = core::result::Result<SyscallResult, SyscallError>>,
    into: fn(SyscallResult) -> T,
) -> Result<T> {
    let r = results.next().expect("one completion per submitted call")?;
    Ok(into(r))
}

impl core::fmt::Display for UnixError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            UnixError::Kernel(e) => write!(f, "kernel error: {e}"),
            UnixError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            UnixError::Exists(p) => write!(f, "file exists: {p}"),
            UnixError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            UnixError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            UnixError::BadFd(fd) => write!(f, "bad file descriptor: {fd}"),
            UnixError::NoSuchProcess(p) => write!(f, "no such process: {p}"),
            UnixError::StillRunning(p) => write!(f, "process {p} is still running"),
            UnixError::WouldBlock => write!(f, "operation would block"),
            UnixError::NoSuchUser(u) => write!(f, "no such user: {u}"),
            UnixError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            UnixError::Corrupt(what) => write!(f, "corrupt library state: {what}"),
            UnixError::CrossMount { from, to } => {
                write!(f, "rename across mount points: {from} -> {to}")
            }
            UnixError::ReadOnly(fs) => write!(f, "read-only filesystem: {fs}"),
        }
    }
}

impl std::error::Error for UnixError {}

type Result<T> = core::result::Result<T, UnixError>;

/// Default quota handed to each process container.
const PROCESS_QUOTA: u64 = 64 * 1024 * 1024;
/// Number of pages in a freshly exec'd heap.
const HEAP_PAGES: u64 = 16;
/// Number of pages in a freshly exec'd stack.
const STACK_PAGES: u64 = 4;

/// One live (per-thread) view of an open descriptor: the vnode serving
/// its I/O and the thread's copy of the descriptor state.  Keyed by
/// `(thread, descriptor segment)` — each process sharing a descriptor
/// keeps its own vnode (and its own cached file length) and its own
/// copy, while the shared state stays in the descriptor segment.
#[derive(Debug)]
struct OpenFd {
    vnode: Box<dyn Vnode>,
    /// This thread's view of the descriptor state, a write-through cache
    /// of the segment:
    /// * the identity fields (`kind`, `target`, `target_container`,
    ///   `flags`) are fixed at the thread's first touch.  A later read of
    ///   the segment never replaces them, so a sharer that rewrites them
    ///   changes nothing here.  Nothing changes flags after open (there
    ///   is no `fcntl`); a call that ever does must update every holder's
    ///   view;
    /// * `position` and `refs` are as this thread last read or stored
    ///   them.  At `refs == 1` this thread holds the only number naming
    ///   the descriptor, and every path that raises the count (`dup`,
    ///   `share_descriptor`) runs through the holder and updates its
    ///   view, so the view *is* the segment and is not read (those two
    ///   still read the count they raise, so a count with no room left is
    ///   refused whoever wrote it).  Otherwise another number may have
    ///   moved the position, and [`current_state`] reads both first.
    ///   `refs == 0` means "unknown": a failed operation forgets the view
    ///   that way.
    meta: FdState,
}

/// The descriptor state after one read of its segment, through
/// `ctx.thread`'s `view`: only `position` and `refs` come from the read
/// when there is a view, the whole state when there is none.
fn read_state(ctx: &mut VfsCtx, fd: &FdRef, view: Option<FdState>) -> Result<FdState> {
    let fresh = vnode::read_fd_state(ctx, fd)?;
    Ok(match view {
        Some(view) => FdState {
            position: fresh.position,
            refs: fresh.refs,
            ..view
        },
        None => fresh,
    })
}

/// The descriptor state `ctx.thread` acts on: its `view` as it stands
/// while it is the only holder (`refs == 1`), else [`read_state`].
fn current_state(ctx: &mut VfsCtx, fd: &FdRef, view: Option<FdState>) -> Result<FdState> {
    match view {
        Some(view) if view.refs == 1 => Ok(view),
        _ => read_state(ctx, fd, view),
    }
}

/// This thread's entry for a descriptor, built from one read of the
/// segment at its first touch; `true` beside it when that read just
/// happened.
fn open_fd<'e>(
    ctx: &mut VfsCtx,
    open_vnodes: &'e mut BTreeMap<(ObjectId, ObjectId), OpenFd>,
    fd: &FdRef,
) -> Result<(&'e mut OpenFd, bool)> {
    match open_vnodes.entry((ctx.thread, fd.entry.object)) {
        Entry::Occupied(ofd) => Ok((ofd.into_mut(), false)),
        Entry::Vacant(slot) => {
            let state = vnode::read_fd_state(ctx, fd)?;
            let vnode = vnode::vnode_for(ctx, &state)?;
            Ok((slot.insert(OpenFd { vnode, meta: state }), true))
        }
    }
}

/// The unrefs that drop a holder's link to the descriptor segment and,
/// for a `pipe()` end as `identity` names it, to the buffer beside it.
fn unlink_calls(fd: &FdRef, identity: Option<&FdState>) -> Vec<Syscall<'static>> {
    let mut calls = vec![Syscall::ObjUnref { entry: fd.entry }];
    if let Some(state) = identity.filter(|s| s.flags & FLAG_TARGET_BESIDE != 0) {
        calls.push(Syscall::ObjUnref {
            entry: fd.target_entry(state),
        });
    }
    calls
}

/// The Unix environment (§5): the untrusted library that makes a HiStar
/// machine feel like Unix.
#[derive(Debug)]
pub struct UnixEnv {
    machine: Machine,
    processes: BTreeMap<Pid, Process>,
    next_pid: Pid,
    users: UserTable,
    vfs: Vfs,
    fs_root: ObjectId,
    init_pid: Pid,
    open_vnodes: BTreeMap<(ObjectId, ObjectId), OpenFd>,
    /// The container gating the global `/metrics` files.
    metrics_gate: Option<ObjectId>,
}

impl UnixEnv {
    /// Boots a fresh machine and builds a Unix environment on it, with a
    /// root file system, `/proc` and `/dev`, and an `init` process (PID 1).
    pub fn boot() -> UnixEnv {
        UnixEnv::on_machine(Machine::boot(MachineConfig::default()))
    }

    /// Builds a Unix environment on an existing machine.
    pub fn on_machine(mut machine: Machine) -> UnixEnv {
        let boot_thread = machine.kernel_thread();
        let kroot = machine.kernel().root_container();
        let processes = BTreeMap::new();
        let (root_fs, persistfs) = {
            let mut ctx = VfsCtx {
                console: machine.console_device(),
                kernel: machine.kernel_mut(),
                thread: boot_thread,
                metrics_gate: None,
                processes: &processes,
            };
            // The root directory and its filesystem.
            let root_fs = SegFs::format(&mut ctx, kroot, Label::unrestricted(), "/")
                .expect("creating the root directory cannot fail on a fresh machine");
            // The store-backed persistent filesystem: reattached when the
            // store already holds a formatted tree (this machine was
            // recovered from a crash — the write-ahead log has been
            // replayed by the store and the tree is simply mounted again),
            // formatted fresh otherwise.
            let persistfs = PersistFs::mount_or_format(&mut ctx, Label::unrestricted())
                .expect("mounting /persist cannot fail on a bootable machine");
            (root_fs, persistfs)
        };
        let fs_root = root_fs.root_container();
        let mut vfs = Vfs::new(Box::new(root_fs));
        let procfs = vfs.add_filesystem(Box::new(ProcFs));
        vfs.mount("/proc", procfs);
        let devfs = vfs.add_filesystem(Box::new(DevFs::default()));
        vfs.mount("/dev", devfs);
        let persistfs = vfs.add_filesystem(Box::new(persistfs));
        vfs.mount("/persist", persistfs);
        let mut env = UnixEnv {
            machine,
            processes,
            next_pid: 1,
            users: UserTable::new(),
            vfs,
            fs_root,
            init_pid: 1,
            open_vnodes: BTreeMap::new(),
            metrics_gate: None,
        };
        // PID 1.
        let init = env
            .create_process(None, None, "/sbin/init", Vec::new(), &[], None)
            .expect("creating init cannot fail on a fresh machine");
        env.init_pid = init;
        // `/metrics`: global counter files are gated by a container
        // labeled with a fresh secrecy category only init owns, so an
        // unprivileged or tainted thread cannot observe whole-machine
        // aggregates; per-task entries reuse each process's own gate.
        {
            let init_thread = env.process(init).expect("init exists at boot").thread;
            let kernel = env.machine.kernel_mut();
            let mr = kernel
                .trap_create_category(init_thread)
                .expect("creating the metrics category cannot fail at boot");
            let gate = kernel
                .trap_container_create(
                    init_thread,
                    kroot,
                    Label::unrestricted().with(mr, Level::L3),
                    "metrics gate",
                    0,
                    PAGE_SIZE,
                )
                .expect("creating the metrics gate cannot fail at boot");
            env.metrics_gate = Some(gate);
            let metricsfs = env.vfs.add_filesystem(Box::new(MetricsFs::default()));
            env.vfs.mount("/metrics", metricsfs);
        }
        // A store that has never checkpointed cannot recover at all (no
        // superblock); seed one system snapshot at boot so that from here
        // on, `/persist` fsyncs alone decide what a crash preserves.
        if env.machine.store().sequence() == 0 {
            env.machine.snapshot();
        }
        env
    }

    /// Consumes the environment, returning the underlying machine (for
    /// crash/recovery tests: crash the machine, then build a fresh
    /// environment on the recovered one — `/persist` reattaches itself).
    pub fn into_machine(self) -> Machine {
        self.machine
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The underlying machine, mutably (benchmarks use this to reach the
    /// store and clock).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The kernel, mutably — shorthand for `machine_mut().kernel_mut()`,
    /// the path every `trap_*` syscall takes.
    pub fn kernel_mut(&mut self) -> &mut histar_kernel::Kernel {
        self.machine.kernel_mut()
    }

    /// The PID of the `init` process.
    pub fn init_pid(&self) -> Pid {
        self.init_pid
    }

    /// The object ID of the root directory container.
    pub fn fs_root(&self) -> ObjectId {
        self.fs_root
    }

    /// The registered users.
    pub fn users(&self) -> &UserTable {
        &self.users
    }

    /// The mount layer, mutably (to mount additional filesystems).
    pub fn vfs_mut(&mut self) -> &mut Vfs {
        &mut self.vfs
    }

    /// Mounts an existing directory container at a path, as its own
    /// segment filesystem (how daemons export their namespaces).
    /// Remounting the same container reuses its registered filesystem.
    pub fn mount(&mut self, path: &str, container: ObjectId) {
        let fs = match self.vfs.segfs_with_root(container) {
            Some(fs) => fs,
            None => self.vfs.add_filesystem(Box::new(SegFs::new(container))),
        };
        self.vfs.mount(path, fs);
    }

    /// A process's bookkeeping record.
    pub fn process(&self, pid: Pid) -> Result<&Process> {
        self.processes
            .get(&pid)
            .ok_or(UnixError::NoSuchProcess(pid))
    }

    fn process_mut(&mut self, pid: Pid) -> Result<&mut Process> {
        self.processes
            .get_mut(&pid)
            .ok_or(UnixError::NoSuchProcess(pid))
    }

    /// Mutable access to a process's library bookkeeping record.
    ///
    /// Services that legitimately change what a process is (the
    /// authentication service granting a user's categories, a shell
    /// adjusting ownership it received through a gate) update the record
    /// here; the kernel-side state is always changed through system calls
    /// first, so this bookkeeping can never grant privilege by itself.
    pub fn process_record_mut(&mut self, pid: Pid) -> Result<&mut Process> {
        self.process_mut(pid)
    }

    /// The context one VFS/vnode operation on `thread` runs against — the
    /// kernel plus the live process table `/proc` and `/metrics/tasks`
    /// render from — alongside the environment's other halves, borrowed
    /// disjointly so a caller can drive the mount layer or a cached vnode
    /// with it.
    #[allow(clippy::type_complexity)]
    fn split(
        &mut self,
        thread: ObjectId,
    ) -> (
        VfsCtx<'_>,
        &mut Vfs,
        &mut BTreeMap<(ObjectId, ObjectId), OpenFd>,
    ) {
        let ctx = VfsCtx {
            console: self.machine.console_device(),
            kernel: self.machine.kernel_mut(),
            thread,
            metrics_gate: self.metrics_gate,
            processes: &self.processes,
        };
        (ctx, &mut self.vfs, &mut self.open_vnodes)
    }

    /// The context alone, for vnode-level helpers that need neither the
    /// mount layer nor the vnode cache (here and in netd).
    pub fn vfs_ctx(&mut self, thread: ObjectId) -> VfsCtx<'_> {
        self.split(thread).0
    }

    // ----- users -----------------------------------------------------------

    /// Creates a user account: allocates its `ur`/`uw` categories on the
    /// init process's thread.  Init holds them only until the user's
    /// authentication service takes them over: `histar_auth` spawns that
    /// service owning the pair at the user's first login and has init
    /// drop it, after which init can no longer grant them or spawn a
    /// process as the user.
    pub fn create_user(&mut self, name: &str) -> Result<User> {
        let init_thread = self.process(self.init_pid)?.thread;
        let kernel = self.machine.kernel_mut();
        let read_cat = kernel.trap_create_category(init_thread)?;
        let write_cat = kernel.trap_create_category(init_thread)?;
        let user = User {
            name: name.to_string(),
            read_cat,
            write_cat,
        };
        self.users.add(user.clone());
        Ok(user)
    }

    /// Looks up a user by name.
    pub fn user(&self, name: &str) -> Result<User> {
        self.users
            .lookup(name)
            .cloned()
            .ok_or_else(|| UnixError::NoSuchUser(name.to_string()))
    }

    // ----- process management (§5.2) ---------------------------------------

    /// Spawns a new process running `path` as a child of `parent`, with the
    /// given user's privileges (if any).  This is the paper's `spawn`: it
    /// builds the process directly rather than going through fork + exec,
    /// which is roughly 3× cheaper.
    pub fn spawn(&mut self, parent: Pid, path: &str, user: Option<&str>) -> Result<Pid> {
        let user = match user {
            Some(name) => Some(self.user(name)?),
            None => None,
        };
        let extra = match &user {
            Some(u) => vec![u.read_cat, u.write_cat],
            None => Vec::new(),
        };
        let pid = self.create_process(
            Some(parent),
            user.as_ref().map(|u| u.name.clone()),
            path,
            extra,
            &[],
            None,
        )?;
        Ok(pid)
    }

    /// Spawns a new process whose thread additionally owns the given
    /// categories and/or starts out tainted in others — the hook `wrap`
    /// uses to launch the virus scanner tainted in its isolation category.
    ///
    /// The creating (parent) process's thread must own every category it
    /// grants or taints the child with; the kernel's spawn rule
    /// (`L_T ⊑ L_{T'} ⊑ C_{T'} ⊑ C_T`) enforces this.
    pub fn spawn_with_label(
        &mut self,
        parent: Pid,
        path: &str,
        extra_ownership: Vec<Category>,
        extra_taint: Vec<(Category, Level)>,
    ) -> Result<Pid> {
        self.create_process(
            Some(parent),
            None,
            path,
            extra_ownership,
            &extra_taint,
            None,
        )
    }

    /// Forks a process: the child gets copies of the parent's text, heap and
    /// stack segments, owns what the parent owns, and shares its open file
    /// descriptors.
    pub fn fork(&mut self, parent: Pid) -> Result<Pid> {
        let (user, executable, image, fds) = {
            let p = self.process(parent)?;
            (
                p.user.clone(),
                p.executable.clone(),
                [p.text_segment, p.heap_segment, p.stack_segment]
                    .map(|seg| ContainerEntry::new(p.internal_container, seg)),
                p.fds.iter().collect::<Vec<(Fd, ObjectId)>>(),
            )
        };
        let child =
            self.create_process(Some(parent), user, &executable, vec![], &[], Some(image))?;
        // Share file descriptors, number for number.
        for (fd, seg) in fds {
            self.share_descriptor(parent, seg, child)?;
            self.process_mut(child)?.fds.install(fd, seg);
        }
        Ok(child)
    }

    /// Replaces a process's image with the named executable (the file's
    /// contents become the text segment; heap and stack are reallocated).
    pub fn exec(&mut self, pid: Pid, path: &str) -> Result<()> {
        let image = match self.read_file_as(pid, path) {
            Ok(bytes) => bytes,
            Err(UnixError::NotFound(_)) => format!("#!{path}").into_bytes(),
            Err(e) => return Err(e),
        };
        let (thread, internal, internal_label, aspace) = {
            let p = self.process(pid)?;
            (
                p.thread,
                p.internal_container,
                p.internal_label(),
                p.address_space,
            )
        };
        let kernel = self.machine.kernel_mut();

        // Fresh text/heap/stack segments (the old ones are unreferenced).
        let text = kernel.trap_segment_create(
            thread,
            internal,
            internal_label.clone(),
            image.len().max(1) as u64,
            "text",
        )?;
        // The image is written once: from here on the text is immutable.
        let text_entry = ContainerEntry::new(internal, text);
        let loaded = kernel.submit_calls(
            thread,
            vec![
                Syscall::SegmentWrite {
                    entry: text_entry,
                    offset: 0,
                    data: image.into(),
                },
                Syscall::ObjSetImmutable { entry: text_entry },
            ],
        );
        for r in loaded {
            r?;
        }
        let heap = kernel.trap_segment_create(
            thread,
            internal,
            internal_label.clone(),
            HEAP_PAGES * PAGE_SIZE,
            "heap",
        )?;
        let stack = kernel.trap_segment_create(
            thread,
            internal,
            internal_label,
            STACK_PAGES * PAGE_SIZE,
            "stack",
        )?;

        let old = {
            let p = self.process(pid)?;
            [p.text_segment, p.heap_segment, p.stack_segment]
        };
        let kernel = self.machine.kernel_mut();
        for seg in old {
            let _ = kernel.trap_obj_unref(thread, ContainerEntry::new(internal, seg));
        }
        self.map_process_image(pid, aspace, text, heap, stack)?;
        {
            let p = self.process_mut(pid)?;
            p.text_segment = text;
            p.heap_segment = heap;
            p.stack_segment = stack;
            p.executable = path.to_string();
        }
        Ok(())
    }

    /// Terminates a process with the given status: the exit status is
    /// written to the (externally readable) exit segment and the thread is
    /// halted.  Resources are reclaimed when the parent waits.
    pub fn exit(&mut self, pid: Pid, status: ExitStatus) -> Result<()> {
        let (thread, process_container, exit_segment, fds): (
            ObjectId,
            ObjectId,
            ObjectId,
            Vec<(Fd, ObjectId)>,
        ) = {
            let p = self.process(pid)?;
            (
                p.thread,
                p.process_container,
                p.exit_segment,
                p.fds.iter().collect(),
            )
        };
        for (fd, _) in fds {
            let _ = self.close(pid, fd);
        }
        let kernel = self.machine.kernel_mut();
        kernel.trap_segment_write(
            thread,
            ContainerEntry::new(process_container, exit_segment),
            0,
            &status.encode(),
        )?;
        kernel.trap_self_halt(thread)?;
        self.process_mut(pid)?.state = ProcessState::Zombie(status);
        Ok(())
    }

    /// Waits for a child to exit, returning its status and reclaiming its
    /// resources.  Returns [`UnixError::StillRunning`] if it has not exited.
    pub fn wait(&mut self, parent: Pid, child: Pid) -> Result<ExitStatus> {
        let parent_thread = self.process(parent)?.thread;
        let (child_container, exit_segment, state) = {
            let c = self.process(child)?;
            (c.process_container, c.exit_segment, c.state)
        };
        match state {
            ProcessState::Running => return Err(UnixError::StillRunning(child)),
            ProcessState::Reaped => return Err(UnixError::NoSuchProcess(child)),
            ProcessState::Zombie(_) => {}
        }
        // Read the exit status through the kernel (checks that the parent
        // may observe the exit segment, which anyone may — {pw 0, 1}).
        let kernel = self.machine.kernel_mut();
        let bytes = kernel.trap_segment_read(
            parent_thread,
            ContainerEntry::new(child_container, exit_segment),
            0,
            8,
        )?;
        let status = ExitStatus::decode(&bytes).map_err(|_| UnixError::Corrupt("exit segment"))?;
        // Reclaim: unreference the child's process container from the
        // kernel root, which drops the whole subtree.
        let kroot = kernel.root_container();
        kernel.trap_obj_unref(parent_thread, ContainerEntry::new(kroot, child_container))?;
        let child_thread = self.process(child)?.thread;
        self.process_mut(child)?.state = ProcessState::Reaped;
        self.open_vnodes.retain(|(t, _), _| *t != child_thread);
        Ok(status)
    }

    /// Sends a signal to a process by invoking its signal gate, which alerts
    /// one of the process's threads (§5.6).
    pub fn kill(&mut self, sender: Pid, target: Pid, signal: u64) -> Result<()> {
        let sender_thread = self.process(sender)?.thread;
        let (target_container, signal_gate, target_thread) = {
            let t = self.process(target)?;
            (t.process_container, t.signal_gate, t.thread)
        };
        // Invoking the signal gate requires passing its clearance check; we
        // then deliver the alert with the privilege the gate carries.
        let kernel = self.machine.kernel_mut();
        let gate_entry = ContainerEntry::new(target_container, signal_gate);
        let mut probe = kernel
            .submit_calls(
                sender_thread,
                vec![
                    Syscall::SelfGetLabel,
                    Syscall::SelfGetClearance,
                    Syscall::ObjGetLabel { entry: gate_entry },
                ],
            )
            .into_iter();
        let tl = take(&mut probe, SyscallResult::into_label)?;
        let tc = take(&mut probe, SyscallResult::into_label)?;
        let glabel = take(&mut probe, SyscallResult::into_label)?;
        let requested = tl.ownership_union(&glabel);
        kernel.trap_gate_enter(sender_thread, gate_entry, requested, tc.clone(), tl.clone())?;
        // Running in the gate's privilege, alert the target thread.
        kernel.trap_thread_alert(
            sender_thread,
            ContainerEntry::new(target_container, target_thread),
            signal,
        )?;
        // Return to the sender's own label (it owned everything it had).
        kernel.trap_self_set_label(sender_thread, tl)?;
        kernel.trap_self_set_clearance(sender_thread, tc)?;
        Ok(())
    }

    /// Takes the next pending signal for a process, if any.
    pub fn take_signal(&mut self, pid: Pid) -> Result<Option<u64>> {
        let thread = self.process(pid)?.thread;
        let alert = self.machine.kernel_mut().trap_self_take_alert(thread)?;
        Ok(alert.map(|a| a.code))
    }

    // ----- internal process construction ------------------------------------

    fn create_process(
        &mut self,
        parent: Option<Pid>,
        user: Option<String>,
        executable: &str,
        mut extra_ownership: Vec<Category>,
        extra_taint: &[(Category, Level)],
        image: Option<[ContainerEntry; 3]>,
    ) -> Result<Pid> {
        // The parent's thread creates everything; init's is the boot thread.
        let creator = match parent {
            Some(parent) => self.process(parent)?.thread,
            None => self.machine.kernel_thread(),
        };
        let kroot = self.machine.kernel().root_container();
        let kernel = self.machine.kernel_mut();

        // The label and clearance the creator comes back to, and the
        // process's secrecy and integrity categories: one batch.
        let mut head = kernel
            .submit_calls(
                creator,
                vec![
                    Syscall::SelfGetLabel,
                    Syscall::SelfGetClearance,
                    Syscall::CreateCategory,
                    Syscall::CreateCategory,
                ],
            )
            .into_iter();
        let saved_label = take(&mut head, SyscallResult::into_label)?;
        let saved_clearance = take(&mut head, SyscallResult::into_label)?;
        let pr = take(&mut head, SyscallResult::into_category)?;
        let pw = take(&mut head, SyscallResult::into_category)?;
        // A forked child owns what its parent owns right now — user
        // privileges, grants received through gates, categories it
        // allocated — except the parent's own `pr`/`pw`: processes stay
        // isolated.
        if let Some(parent) = parent.filter(|_| image.is_some()) {
            let p = &self.processes[&parent];
            let own = [p.read_cat, p.write_cat];
            extra_ownership.extend(saved_label.owned_categories().filter(|c| !own.contains(c)));
        }

        // A process launched pre-tainted (e.g. the virus scanner tainted
        // `v 3`) needs that taint on everything it must be able to write:
        // its thread, its private containers and segments, and its exit
        // segment (reading the exit status then requires owning the taint
        // category, which is the §5.8 "explicit leak" decision left to the
        // category's owner).
        let mut external_builder = Label::builder().set(pw, Level::L0);
        let mut internal_builder = Label::builder().set(pr, Level::L3).set(pw, Level::L0);
        let mut thread_label_builder = Label::builder().own(pr).own(pw);
        let mut clearance_builder = Label::builder()
            .set(pr, Level::L3)
            .set(pw, Level::L3)
            .default_level(Level::L2);
        for &c in &extra_ownership {
            thread_label_builder = thread_label_builder.own(c);
            clearance_builder = clearance_builder.set(c, Level::L3);
        }
        for &(c, lvl) in extra_taint {
            thread_label_builder = thread_label_builder.set(c, lvl);
            external_builder = external_builder.set(c, lvl);
            internal_builder = internal_builder.set(c, lvl);
            clearance_builder = clearance_builder.set(c, Level::L3);
        }
        let external_label = external_builder.build();
        let internal_label = internal_builder.build();
        let thread_label = thread_label_builder.build();
        let thread_clearance = clearance_builder.build();

        // Process container and internal container (Figure 6).
        let process_container = kernel.trap_container_create(
            creator,
            kroot,
            external_label.clone(),
            &format!("proc {executable}"),
            0,
            PROCESS_QUOTA,
        )?;
        let internal_container = kernel.trap_container_create(
            creator,
            process_container,
            internal_label.clone(),
            "internal",
            0,
            PROCESS_QUOTA / 2,
        )?;
        // Exit status segment, readable by anyone.
        let exit_segment = kernel.trap_segment_create(
            creator,
            process_container,
            external_label,
            8,
            "exit status",
        )?;
        // The process's thread.
        let thread = kernel.trap_thread_create(
            creator,
            process_container,
            thread_label.clone(),
            thread_clearance,
            0,
            &format!("thread {executable}"),
        )?;
        // Signal gate, guarded by the user's write category (open to
        // anyone, for user-less system processes).
        let guard = user
            .as_deref()
            .and_then(|name| self.users.lookup(name))
            .map(|u| u.write_cat);
        let signal_gate = gatecall::create_signal_gate(
            kernel,
            creator,
            process_container,
            &thread_label,
            [pr, pw],
            guard,
        )?;

        // Address space and the initial memory image.
        let address_space = kernel.trap_as_create(
            creator,
            internal_container,
            internal_label.clone(),
            "address space",
        )?;
        // The memory image: zeroed for a fresh process; for `fork`, the
        // creator's own text, heap and stack copied at the child's label.
        let mut segment = |i: usize, descrip: &str, len: u64| {
            let label = internal_label.clone();
            match image {
                Some(src) => {
                    kernel.trap_segment_copy(creator, src[i], internal_container, label, descrip)
                }
                None => {
                    kernel.trap_segment_create(creator, internal_container, label, len, descrip)
                }
            }
        };
        let text = segment(0, "text", PAGE_SIZE)?;
        let heap = segment(1, "heap", HEAP_PAGES * PAGE_SIZE)?;
        let stack = segment(2, "stack", STACK_PAGES * PAGE_SIZE)?;

        // The creator drops the new process's categories again: from here on
        // only the new process's own thread owns them.
        kernel.trap_self_set_label(creator, saved_label)?;
        kernel.trap_self_set_clearance(creator, saved_clearance)?;

        let pid = self.next_pid;
        self.next_pid += 1;
        let cwd = parent
            .and_then(|p| self.processes.get(&p))
            .map(|p| p.cwd.clone())
            .unwrap_or_else(|| "/".to_string());
        let process = Process {
            pid,
            parent,
            user,
            read_cat: pr,
            write_cat: pw,
            process_container,
            internal_container,
            thread,
            address_space,
            exit_segment,
            signal_gate,
            text_segment: text,
            heap_segment: heap,
            stack_segment: stack,
            executable: executable.to_string(),
            fds: FdTable::new(),
            cwd,
            state: ProcessState::Running,
        };
        self.processes.insert(pid, process);
        self.map_process_image(pid, address_space, text, heap, stack)?;
        Ok(pid)
    }

    /// Installs the standard text/heap/stack mappings and switches the
    /// process's thread onto its address space.
    fn map_process_image(
        &mut self,
        pid: Pid,
        address_space: ObjectId,
        text: ObjectId,
        heap: ObjectId,
        stack: ObjectId,
    ) -> Result<()> {
        let (thread, internal) = {
            let p = self.process(pid)?;
            (p.thread, p.internal_container)
        };
        let kernel = self.machine.kernel_mut();
        let as_entry = ContainerEntry::new(internal, address_space);
        let mappings = [
            (0x0040_0000u64, text, MappingFlags::rx(), 16u64),
            (0x1000_0000u64, heap, MappingFlags::rw(), HEAP_PAGES),
            (0x7fff_0000u64, stack, MappingFlags::rw(), STACK_PAGES),
        ];
        for (va, seg, flags, npages) in mappings {
            kernel.trap_as_map(
                thread,
                as_entry,
                Mapping {
                    va,
                    segment: ContainerEntry::new(internal, seg),
                    offset: 0,
                    npages,
                    flags,
                },
            )?;
        }
        kernel.trap_self_set_as(thread, as_entry)?;
        Ok(())
    }

    // ----- descriptor plumbing ----------------------------------------------

    /// Runs one descriptor operation on the thread's view of the
    /// descriptor ([`OpenFd::meta`]), which the segment refreshes only
    /// when another number may have moved it: an unshared warm read or
    /// write is the vnode's one batch.  The vnode (or `f`) stores what it
    /// changes into the view; a failed operation forgets it.
    fn with_fd<T>(
        &mut self,
        pid: Pid,
        fd: Fd,
        f: impl FnOnce(&mut VfsCtx, &FdRef, &mut dyn Vnode, &mut FdState) -> Result<T>,
    ) -> Result<T> {
        let (thread, fd_ref) = {
            let p = self.process(pid)?;
            let seg = p.fds.get(fd).ok_or(UnixError::BadFd(fd))?;
            (p.thread, FdRef::new(p.process_container, seg))
        };
        let (mut ctx, _, open_vnodes) = self.split(thread);
        let (ofd, just_read) = open_fd(&mut ctx, open_vnodes, &fd_ref)?;
        if !just_read {
            ofd.meta = current_state(&mut ctx, &fd_ref, Some(ofd.meta))?;
        }
        let result = f(&mut ctx, &fd_ref, ofd.vnode.as_mut(), &mut ofd.meta);
        if result.is_err() {
            ofd.meta.refs = 0;
        }
        result
    }

    /// Creates the descriptor segment for `state` and installs it in the
    /// process's table, seeding the vnode cache when the opener already
    /// built one.
    fn install_fd(
        &mut self,
        pid: Pid,
        state: FdState,
        vnode: Option<Box<dyn Vnode>>,
    ) -> Result<Fd> {
        let (thread, container) = {
            let p = self.process(pid)?;
            (p.thread, p.process_container)
        };
        let kernel = self.machine.kernel_mut();
        // The descriptor segment carries the opening thread's taint (but not
        // its ownership) so that tainted processes can still maintain their
        // own descriptor state.
        let fd_label = kernel
            .trap_self_get_label(thread)?
            .drop_ownership(Level::L1);
        let fd_seg =
            kernel.trap_segment_create(thread, container, fd_label, 0, "file descriptor")?;
        // The state, and the fixed quota that lets every process the
        // descriptor is shared with hold a hard link of its own (§5.3).
        let entry = ContainerEntry::new(container, fd_seg);
        let calls = vec![
            Syscall::SegmentWrite {
                entry,
                offset: 0,
                data: state.encode().into(),
            },
            Syscall::ObjSetFixedQuota { entry },
        ];
        for r in kernel.submit_calls(thread, calls) {
            r?;
        }
        if let Some(vnode) = vnode {
            self.open_vnodes
                .insert((thread, fd_seg), OpenFd { vnode, meta: state });
        }
        let fd = self.process_mut(pid)?.fds.allocate(fd_seg);
        Ok(fd)
    }

    /// Gives `to` its own reference to a descriptor `from` holds open.
    /// Unless one of `to`'s numbers already names the descriptor, `to`'s
    /// thread hard-links the descriptor segment — and a `pipe()` buffer
    /// beside it — out of `from`'s process container into its own, all or
    /// nothing; then `from` counts one more open.  A count with no room
    /// left refuses the share before any link.  The caller allocates the
    /// number.
    fn share_descriptor(&mut self, from: Pid, seg: ObjectId, to: Pid) -> Result<()> {
        let (from_thread, from_container) = {
            let p = self.process(from)?;
            (p.thread, p.process_container)
        };
        let (to_thread, to_container, held) = {
            let p = self.process(to)?;
            (p.thread, p.process_container, p.fds.names(seg))
        };
        let fd_ref = FdRef::new(from_container, seg);
        let (mut ctx, _, open_vnodes) = self.split(from_thread);
        let view = open_vnodes.get_mut(&(from_thread, seg));
        let mut state = read_state(&mut ctx, &fd_ref, view.as_ref().map(|o| o.meta))?;
        vnode::count_open(&mut state)?;
        let kernel = ctx.kernel();
        if !held {
            let mut links = vec![fd_ref.entry];
            if state.flags & FLAG_TARGET_BESIDE != 0 {
                links.push(fd_ref.target_entry(&state));
            }
            let calls = links
                .iter()
                .map(|&entry| Syscall::HardLink {
                    entry,
                    dst: to_container,
                })
                .collect();
            let results = kernel.submit_calls(to_thread, calls);
            if let Some(Err(refused)) = results.iter().find(|r| r.is_err()) {
                for (link, _) in links.iter().zip(&results).filter(|(_, r)| r.is_ok()) {
                    let mine = ContainerEntry::new(to_container, link.object);
                    let _ = kernel.trap_obj_unref(to_thread, mine);
                }
                return Err(refused.clone().into());
            }
        }
        kernel.trap_segment_write(from_thread, fd_ref.entry, 0, &state.encode())?;
        if let Some(ofd) = view {
            ofd.meta = state;
        }
        Ok(())
    }

    // ----- descriptor operations (thin wrappers over the vnode layer) -------

    /// Creates (or opens) a file and returns a descriptor for it.
    pub fn open(&mut self, pid: Pid, path: &str, flags: OpenFlags) -> Result<Fd> {
        self.open_labeled(pid, path, flags, None)
    }

    /// Creates (or opens) a file with an explicit label for newly created
    /// files (e.g. `{ur 3, uw 0, 1}` for a user's private data).
    pub fn open_labeled(
        &mut self,
        pid: Pid,
        path: &str,
        flags: OpenFlags,
        label: Option<Label>,
    ) -> Result<Fd> {
        let (thread, cwd) = {
            let p = self.process(pid)?;
            (p.thread, p.cwd.clone())
        };
        let (state, vnode) = {
            let (mut ctx, vfs, _) = self.split(thread);
            vfs.open(&mut ctx, &cwd, path, flags, label)?
        };
        self.install_fd(pid, state, Some(vnode))
    }

    /// Closes a descriptor.  With the process's last number for it goes the
    /// process's hard link to the descriptor segment (and to a `pipe()`
    /// buffer beside it); the kernel frees each with its last link, so a
    /// shared descriptor lives until every process has closed it.
    ///
    /// Closing must never require re-opening the vnode: an inherited
    /// `/proc` descriptor, for example, is rebuilt through a label check
    /// the closing process may not pass — but dropping a descriptor is
    /// always allowed.  The refcount is adjusted directly on the
    /// descriptor segment; a vnode is only consulted (and built on
    /// demand, best-effort) for the last-close hook.  A shared state that
    /// does not read back still loses this process's link with its last
    /// number (named as the thread's view names it) before the error is
    /// reported.
    pub fn close(&mut self, pid: Pid, fd: Fd) -> Result<()> {
        let (thread, container, seg, last_here) = {
            let p = self.process_mut(pid)?;
            let seg = p.fds.remove(fd).ok_or(UnixError::BadFd(fd))?;
            (p.thread, p.process_container, seg, !p.fds.names(seg))
        };
        let cached = self.open_vnodes.remove(&(thread, seg));
        let view = cached.as_ref().map(|ofd| ofd.meta);
        let fd_ref = FdRef::new(container, seg);
        let mut ctx = self.vfs_ctx(thread);
        let mut state = match current_state(&mut ctx, &fd_ref, view) {
            Ok(state) => state,
            Err(unreadable) => {
                if last_here {
                    let calls = unlink_calls(&fd_ref, view.as_ref());
                    for r in ctx.kernel().submit_calls(thread, calls) {
                        r?;
                    }
                }
                return Err(unreadable);
            }
        };
        state.refs = state.refs.saturating_sub(1);
        if state.refs == 0 {
            // Only the last-close hook needs a vnode; building one can
            // legitimately fail (label-gated /proc state), in which case
            // there is nothing to clean up anyway.
            let vnode = match cached {
                Some(ofd) => Some(ofd.vnode),
                None => vnode::vnode_for(&mut ctx, &state).ok(),
            };
            if let Some(mut vnode) = vnode {
                let _ = vnode.on_last_close(&mut ctx, &fd_ref, &state);
            }
        }
        let mut calls = vec![Syscall::SegmentWrite {
            entry: fd_ref.entry,
            offset: 0,
            data: state.encode().into(),
        }];
        if last_here {
            calls.extend(unlink_calls(&fd_ref, Some(&state)));
        }
        for r in ctx.kernel().submit_calls(thread, calls) {
            r?;
        }
        Ok(())
    }

    /// Duplicates a descriptor (both numbers share the same descriptor
    /// segment, hence offset and flags).
    pub fn dup(&mut self, pid: Pid, fd: Fd) -> Result<Fd> {
        let (thread, container, seg) = {
            let p = self.process(pid)?;
            let seg = p.fds.get(fd).ok_or(UnixError::BadFd(fd))?;
            (p.thread, p.process_container, seg)
        };
        let fd_ref = FdRef::new(container, seg);
        let (mut ctx, _, open_vnodes) = self.split(thread);
        let view = open_vnodes.get_mut(&(thread, seg));
        let mut state = read_state(&mut ctx, &fd_ref, view.as_ref().map(|o| o.meta))?;
        vnode::count_open(&mut state)?;
        ctx.kernel()
            .trap_segment_write(thread, fd_ref.entry, 0, &state.encode())?;
        if let Some(ofd) = view {
            ofd.meta = state;
        }
        let new_fd = self.process_mut(pid)?.fds.allocate(seg);
        Ok(new_fd)
    }

    /// Reads up to `len` bytes from a descriptor.
    pub fn read(&mut self, pid: Pid, fd: Fd, len: u64) -> Result<Vec<u8>> {
        self.with_fd(pid, fd, |ctx, fd_ref, vnode, state| {
            vnode.read(ctx, fd_ref, state, len)
        })
    }

    /// Writes bytes to a descriptor, returning the number written.
    pub fn write(&mut self, pid: Pid, fd: Fd, data: &[u8]) -> Result<u64> {
        self.with_fd(pid, fd, |ctx, fd_ref, vnode, state| {
            vnode.write(ctx, fd_ref, state, data)
        })
    }

    /// Repositions a file descriptor (absolute seek).
    pub fn lseek(&mut self, pid: Pid, fd: Fd, position: u64) -> Result<()> {
        self.with_fd(pid, fd, |ctx, fd_ref, vnode, state| {
            vnode.seek(ctx, fd_ref, position)?;
            state.position = position;
            Ok(())
        })
    }

    /// `stat` on an open descriptor.
    pub fn fstat(&mut self, pid: Pid, fd: Fd) -> Result<FileStat> {
        self.with_fd(pid, fd, |ctx, _fd_ref, vnode, state| vnode.stat(ctx, state))
    }

    /// Creates a pipe, returning `(read end, write end)`.
    pub fn pipe(&mut self, pid: Pid) -> Result<(Fd, Fd)> {
        let (thread, container) = {
            let p = self.process(pid)?;
            (p.thread, p.process_container)
        };
        let (read_state, write_state) = create_pipe(&mut self.vfs_ctx(thread), container)?;
        let read_fd = self.install_fd(pid, read_state, None)?;
        let write_fd = self.install_fd(pid, write_state, None)?;
        Ok((read_fd, write_fd))
    }

    // ----- blocking I/O and readiness ---------------------------------------
    //
    // Real `read(2)` semantics on top of the kernel's one-shot readiness
    // watches: an operation that cannot make progress registers a watch on
    // the descriptor's backing segment and returns `None`, the caller's
    // thread program issues `Step::Block`, and the scheduler parks the
    // thread — zero quanta are charged until a peer's write (or hangup)
    // pushes an `ObjectReady` completion and wakes it.

    /// Installs an externally built descriptor (e.g. a socket handed over
    /// by netd) into a process's table.  The descriptor segment is created
    /// in the process's container as usual.
    pub fn install_descriptor(&mut self, pid: Pid, state: FdState) -> Result<Fd> {
        self.install_fd(pid, state, None)
    }

    /// Shares an open descriptor with another process (the launcher →
    /// worker handoff): the receiver links the descriptor segment into its
    /// own container, the shared refcount goes up and a number is allocated
    /// in the target's table.  Both processes now see the same seek
    /// position and flags, exactly like `fork`, and either may outlive the
    /// other.  A refused share leaves no link and no reference behind.
    pub fn share_fd(&mut self, from: Pid, fd: Fd, to: Pid) -> Result<Fd> {
        let seg = {
            let p = self.process(from)?;
            p.fds.get(fd).ok_or(UnixError::BadFd(fd))?
        };
        self.share_descriptor(from, seg, to)?;
        Ok(self.process_mut(to)?.fds.allocate(seg))
    }

    /// Reads a descriptor's current state (one segment read, no vnode).
    pub fn fd_snapshot(&mut self, pid: Pid, fd: Fd) -> Result<FdState> {
        let (thread, container, seg) = {
            let p = self.process(pid)?;
            let seg = p.fds.get(fd).ok_or(UnixError::BadFd(fd))?;
            (p.thread, p.process_container, seg)
        };
        vnode::read_fd_state(&mut self.vfs_ctx(thread), &FdRef::new(container, seg))
    }

    /// Blocking read: `Ok(Some(bytes))` on progress (empty = EOF),
    /// `Ok(None)` when the descriptor has no data yet — a readiness watch
    /// has been registered and the caller must block the thread and retry
    /// after the wake-up.  `O_NONBLOCK` descriptors surface
    /// [`UnixError::WouldBlock`] instead of parking.
    pub fn read_blocking(&mut self, pid: Pid, fd: Fd, len: u64) -> Result<Option<Vec<u8>>> {
        let thread = self.process(pid)?.thread;
        // Drain any stale wake-up notifications so this attempt's watch
        // (if needed) is the only one outstanding.
        self.machine.kernel_mut().reap_completions(thread);
        self.with_fd(pid, fd, |ctx, fd_ref, vnode, state| {
            match vnode.read(ctx, fd_ref, state, len) {
                Ok(data) => Ok(Some(data)),
                Err(UnixError::WouldBlock) if state.flags & FLAG_NONBLOCK == 0 => {
                    let thread = ctx.thread;
                    ctx.kernel()
                        .trap_segment_watch(thread, fd_ref.target_entry(state))?;
                    Ok(None)
                }
                Err(e) => Err(e),
            }
        })
    }

    /// Blocking write: `Ok(Some(n))` when at least one byte was accepted,
    /// `Ok(None)` when the ring is full — a readiness watch has been
    /// registered (the reader's next drain wakes the writer) and the
    /// caller must block the thread and retry.
    pub fn write_blocking(&mut self, pid: Pid, fd: Fd, data: &[u8]) -> Result<Option<u64>> {
        let thread = self.process(pid)?.thread;
        self.machine.kernel_mut().reap_completions(thread);
        self.with_fd(pid, fd, |ctx, fd_ref, vnode, state| {
            match vnode.write(ctx, fd_ref, state, data) {
                Ok(n) => Ok(Some(n)),
                Err(UnixError::WouldBlock) if state.flags & FLAG_NONBLOCK == 0 => {
                    let thread = ctx.thread;
                    ctx.kernel()
                        .trap_segment_watch(thread, fd_ref.target_entry(state))?;
                    Ok(None)
                }
                Err(e) => Err(e),
            }
        })
    }

    /// Readiness poll over a set of descriptors: one batched submission of
    /// ring-header reads, one `bool` per descriptor.  Descriptors without
    /// a blocking discipline (files, devices) always report ready.
    pub fn poll(&mut self, pid: Pid, fds: &[Fd]) -> Result<Vec<bool>> {
        self.poll_inner(pid, fds, false)
            .map(|r| r.expect("non-registering poll always returns a result"))
    }

    /// Blocking poll: like [`UnixEnv::poll`], but when *nothing* is ready
    /// it arms a one-shot readiness watch on every polled descriptor (one
    /// batched submission) and returns `None`; the caller blocks the
    /// thread and re-polls after the wake-up.  This is how one launcher
    /// thread multiplexes a listening socket and thousands of idle
    /// connections without burning a quantum on any of them.
    pub fn poll_block(&mut self, pid: Pid, fds: &[Fd]) -> Result<Option<Vec<bool>>> {
        let thread = self.process(pid)?.thread;
        self.machine.kernel_mut().reap_completions(thread);
        self.poll_inner(pid, fds, true)
    }

    fn poll_inner(&mut self, pid: Pid, fds: &[Fd], register: bool) -> Result<Option<Vec<bool>>> {
        let (thread, container, segs) = {
            let p = self.process(pid)?;
            let segs = fds
                .iter()
                .map(|&fd| p.fds.get(fd).ok_or(UnixError::BadFd(fd)))
                .collect::<Result<Vec<_>>>()?;
            (p.thread, p.process_container, segs)
        };
        // Probe targets from the cached identity: the probe for each
        // blocking descriptor is a read of its ring header, and all probes
        // go down in ONE submission batch.
        let (mut ctx, _, open_vnodes) = self.split(thread);
        let probes: Vec<Option<(ContainerEntry, u64, u64, bool)>> = segs
            .iter()
            .map(|&seg| {
                let fd = FdRef::new(container, seg);
                let (ofd, _) = open_fd(&mut ctx, open_vnodes, &fd)?;
                let meta = &ofd.meta;
                Ok(
                    vnode::readiness_probe(meta).map(|(header, capacity, write_side)| {
                        (fd.target_entry(meta), header, capacity, write_side)
                    }),
                )
            })
            .collect::<Result<_>>()?;
        let calls: Vec<Syscall> = probes
            .iter()
            .flatten()
            .map(|&(entry, header, _, _)| Syscall::SegmentRead {
                entry,
                offset: header,
                len: vnode::PIPE_HEADER,
            })
            .collect();
        let results = self.machine.kernel_mut().submit_calls(thread, calls);
        let mut it = results.into_iter();
        let mut ready = Vec::with_capacity(fds.len());
        for probe in &probes {
            match probe {
                None => ready.push(true),
                Some((_, _, capacity, write_side)) => {
                    let (capacity, write_side) = (*capacity, *write_side);
                    match it.next().expect("one result per probe") {
                        Ok(SyscallResult::Bytes(b)) => {
                            ready.push(vnode::readiness_from_header(&b, capacity, write_side)?);
                        }
                        Ok(_) => return Err(UnixError::Corrupt("poll probe result")),
                        Err(e) => return Err(UnixError::Kernel(e)),
                    }
                }
            }
        }
        if !register || ready.iter().any(|&r| r) {
            return Ok(Some(ready));
        }
        // Nothing ready: arm one-shot watches on every probe target as a
        // second single batch, then tell the caller to park.  Probe and
        // watch both run inside the calling thread's quantum, so no peer
        // can slip a write between them — there is no lost-wakeup window.
        let watches: Vec<Syscall> = probes
            .iter()
            .flatten()
            .map(|&(entry, ..)| Syscall::SegmentWatch { entry })
            .collect();
        for r in self.machine.kernel_mut().submit_calls(thread, watches) {
            r.map_err(UnixError::Kernel)?;
        }
        Ok(None)
    }

    // ----- path operations (thin wrappers over the VFS) ---------------------

    /// Creates a directory at `path` with an optional explicit label.
    pub fn mkdir(&mut self, pid: Pid, path: &str, label: Option<Label>) -> Result<ObjectId> {
        let node = self.vfs_op(pid, |vfs, ctx, cwd| vfs.mkdir(ctx, cwd, path, label))?;
        Ok(ObjectId::from_raw(node))
    }

    /// `stat` on a path.
    pub fn stat(&mut self, pid: Pid, path: &str) -> Result<FileStat> {
        self.vfs_op(pid, |vfs, ctx, cwd| vfs.stat(ctx, cwd, path))
    }

    /// Lists a directory.
    pub fn readdir(&mut self, pid: Pid, path: &str) -> Result<Vec<DirEntry>> {
        self.vfs_op(pid, |vfs, ctx, cwd| vfs.readdir(ctx, cwd, path))
    }

    /// Removes a file (or empty directory entry) from its directory.
    pub fn unlink(&mut self, pid: Pid, path: &str) -> Result<()> {
        self.vfs_op(pid, |vfs, ctx, cwd| vfs.unlink(ctx, cwd, path))
    }

    /// Renames a file.  Both paths must live in the same mounted
    /// filesystem (and, as in real HiStar, the same directory — renames
    /// are atomic under the directory mutex); a rename across mount
    /// points fails with [`UnixError::CrossMount`] without touching
    /// either directory.
    pub fn rename(&mut self, pid: Pid, from: &str, to: &str) -> Result<()> {
        self.vfs_op(pid, |vfs, ctx, cwd| vfs.rename(ctx, cwd, from, to))
    }

    /// Changes a process's working directory.
    pub fn chdir(&mut self, pid: Pid, path: &str) -> Result<()> {
        let comps = {
            let p = self.process(pid)?;
            Vfs::normalize(&p.cwd, path)
        };
        self.vfs_op(pid, |vfs, ctx, cwd| {
            vfs.resolve_dir(ctx, cwd, path).map(|_| ())
        })?;
        self.process_mut(pid)?.cwd = join_path(&comps);
        Ok(())
    }

    /// A process's current working directory.
    pub fn getcwd(&self, pid: Pid) -> Result<String> {
        Ok(self.process(pid)?.cwd.clone())
    }

    /// Pre-reserves quota for a directory so that processes which cannot
    /// modify the directory's ancestors (e.g. network-tainted downloaders)
    /// can still grow files inside it.  The calling process must be able to
    /// write the directory and its ancestors — this is the §5.8 observation
    /// that quota adjustments for tainted work must be arranged by an owner
    /// ahead of time.
    pub fn reserve_quota(&mut self, pid: Pid, path: &str, bytes: u64) -> Result<()> {
        self.vfs_op(pid, |vfs, ctx, cwd| {
            let (fs, dir) = vfs.resolve_dir(ctx, cwd, path)?;
            if vfs.filesystem_mut(fs).fs_name() != "segfs" {
                return Err(UnixError::Unsupported(
                    "quota reservation on a pseudo filesystem",
                ));
            }
            ensure_quota(ctx, ObjectId::from_raw(dir), bytes)
        })
    }

    fn vfs_op<T>(
        &mut self,
        pid: Pid,
        f: impl FnOnce(&mut Vfs, &mut VfsCtx, &str) -> Result<T>,
    ) -> Result<T> {
        let (thread, cwd) = {
            let p = self.process(pid)?;
            (p.thread, p.cwd.clone())
        };
        let (mut ctx, vfs, _) = self.split(thread);
        f(vfs, &mut ctx, &cwd)
    }

    // ----- higher-level file helpers ------------------------------------------

    /// Reads an entire file into memory on behalf of a process.
    pub fn read_file_as(&mut self, pid: Pid, path: &str) -> Result<Vec<u8>> {
        let fd = self.open(pid, path, OpenFlags::read_only())?;
        let stat = self.fstat(pid, fd)?;
        let data = self.read(pid, fd, stat.len)?;
        self.close(pid, fd)?;
        Ok(data)
    }

    /// Writes an entire file (creating or truncating it) on behalf of a
    /// process, with an optional label for newly created files.
    pub fn write_file_as(
        &mut self,
        pid: Pid,
        path: &str,
        data: &[u8],
        label: Option<Label>,
    ) -> Result<()> {
        let fd = self.open_labeled(pid, path, OpenFlags::write_create(), label)?;
        self.write(pid, fd, data)?;
        self.close(pid, fd)?;
        Ok(())
    }

    // ----- durability (§7.1) -----------------------------------------------------

    /// `fsync`: makes one file (and the directory naming it) durable —
    /// [`UnixEnv::fsync_paths`] of the one path.
    pub fn fsync_path(&mut self, pid: Pid, path: &str) -> Result<()> {
        self.fsync_paths(pid, &[path])
    }

    /// `fsync` over several paths at once — the group-commit entry point,
    /// and the library's one way to make a path durable.  Every path is
    /// resolved to its [`SyncTarget`]s, whichever filesystem owns it;
    /// duplicates are dropped (first seen wins the place); the records are
    /// synced with one `persist_sync` and each kernel object with one
    /// `obj_sync` (a heap file names three: directory, directory segment,
    /// file), all in ONE batch, so the whole group shares a single WAL
    /// frame and is acked together once that frame is durable.  The
    /// kernel checks every target against the caller; the first refusal,
    /// in submission order, is returned.
    pub fn fsync_paths(&mut self, pid: Pid, paths: &[&str]) -> Result<()> {
        self.vfs_op(pid, |vfs, ctx, cwd| {
            let (mut keys, mut objects, mut seen) = (Vec::new(), Vec::new(), BTreeSet::new());
            for path in paths {
                for target in vfs.sync_targets_path(ctx, cwd, path)? {
                    if seen.insert(target) {
                        match target {
                            SyncTarget::Record(key) => keys.push(key),
                            SyncTarget::Object(entry) => objects.push(entry),
                        }
                    }
                }
            }
            let records = (!keys.is_empty()).then_some(Syscall::PersistSync { keys });
            let calls: Vec<Syscall<'_>> = records
                .into_iter()
                .chain(
                    objects
                        .into_iter()
                        .map(|entry| Syscall::ObjSync { entry, pages: None }),
                )
                .collect();
            if calls.is_empty() {
                return Ok(());
            }
            let thread = ctx.thread;
            for r in ctx.kernel().submit_calls(thread, calls) {
                r?;
            }
            Ok(())
        })
    }

    /// `fdatasync` limited to specific pages of an open file: flushes those
    /// pages of the backing segment in place, without writing any metadata —
    /// the fast path for random writes to large existing files.
    pub fn fsync_pages(&mut self, pid: Pid, fd: Fd, pages: &[u64]) -> Result<()> {
        self.with_fd(pid, fd, |ctx, _fd_ref, vnode, _state| {
            vnode.fsync_pages(ctx, pages)
        })
    }

    /// Group sync: one system-wide snapshot covering everything (the
    /// single-level store's whole-machine checkpoint).
    pub fn sync_all(&mut self) {
        self.machine.snapshot();
    }

    /// Drains everything written to the console device (for examples/tests).
    pub fn console_output(&mut self) -> Vec<Vec<u8>> {
        let dev = self.machine.console_device();
        self.machine
            .kernel_mut()
            .device_drain_tx(dev)
            .unwrap_or_default()
    }
}

/// The Unix environment can host scheduled programs: the scheduler reaches
/// the kernel through the environment, so multiprogrammed processes issue
/// their Unix-library work (which traps through `Kernel::dispatch`) from
/// inside their own quanta.
impl histar_kernel::sched::SchedContext for UnixEnv {
    fn sched_kernel(&mut self) -> &mut histar_kernel::Kernel {
        self.machine.kernel_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> (UnixEnv, Pid) {
        let env = UnixEnv::boot();
        let init = env.init_pid();
        (env, init)
    }

    #[test]
    fn boot_creates_init_and_root() {
        let (env, init) = env();
        assert_eq!(init, 1);
        assert_eq!(env.getcwd(init).unwrap(), "/");
    }

    #[test]
    fn file_create_read_write() {
        let (mut env, init) = env();
        env.write_file_as(init, "/hello.txt", b"hello world", None)
            .unwrap();
        assert_eq!(
            env.read_file_as(init, "/hello.txt").unwrap(),
            b"hello world"
        );
        let stat = env.stat(init, "/hello.txt").unwrap();
        assert_eq!(stat.len, 11);
        assert!(!stat.is_dir);
        // Reading a missing file fails.
        assert!(matches!(
            env.read_file_as(init, "/missing"),
            Err(UnixError::NotFound(_))
        ));
    }

    #[test]
    fn directories_and_paths() {
        let (mut env, init) = env();
        env.mkdir(init, "/home", None).unwrap();
        env.mkdir(init, "/home/bob", None).unwrap();
        env.write_file_as(init, "/home/bob/notes.txt", b"secret", None)
            .unwrap();
        let entries = env.readdir(init, "/home/bob").unwrap();
        assert!(entries.iter().any(|e| e.name == "notes.txt"));
        // Relative paths use the cwd.
        env.chdir(init, "/home/bob").unwrap();
        assert_eq!(env.getcwd(init).unwrap(), "/home/bob");
        assert_eq!(env.read_file_as(init, "notes.txt").unwrap(), b"secret");
        assert_eq!(
            env.read_file_as(init, "../bob/notes.txt").unwrap(),
            b"secret"
        );
        // Sloppy paths normalize to the same file.
        assert_eq!(
            env.read_file_as(init, "/home//bob/./notes.txt/").unwrap(),
            b"secret"
        );
        // mkdir over an existing name fails.
        assert!(matches!(
            env.mkdir(init, "/home/bob", None),
            Err(UnixError::Exists(_))
        ));
        env.chdir(init, "/").unwrap();
    }

    #[test]
    fn unlink_and_rename() {
        let (mut env, init) = env();
        env.write_file_as(init, "/a.txt", b"a", None).unwrap();
        env.rename(init, "/a.txt", "/b.txt").unwrap();
        assert!(env.stat(init, "/a.txt").is_err());
        assert_eq!(env.read_file_as(init, "/b.txt").unwrap(), b"a");
        env.unlink(init, "/b.txt").unwrap();
        assert!(env.stat(init, "/b.txt").is_err());
        assert!(matches!(
            env.unlink(init, "/b.txt"),
            Err(UnixError::NotFound(_))
        ));
    }

    #[test]
    fn fds_seek_append_dup() {
        let (mut env, init) = env();
        env.write_file_as(init, "/f", b"0123456789", None).unwrap();
        let fd = env
            .open(
                init,
                "/f",
                OpenFlags {
                    read: true,
                    write: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(env.read(init, fd, 4).unwrap(), b"0123");
        assert_eq!(env.read(init, fd, 4).unwrap(), b"4567");
        env.lseek(init, fd, 1).unwrap();
        assert_eq!(env.read(init, fd, 3).unwrap(), b"123");
        // dup shares the seek position.
        let fd2 = env.dup(init, fd).unwrap();
        assert_eq!(env.read(init, fd2, 2).unwrap(), b"45");
        assert_eq!(env.read(init, fd, 2).unwrap(), b"67");
        env.close(init, fd).unwrap();
        assert_eq!(env.read(init, fd2, 2).unwrap(), b"89");
        env.close(init, fd2).unwrap();
        assert!(matches!(env.read(init, fd2, 1), Err(UnixError::BadFd(_))));

        // Append mode always writes at the end.
        let fda = env
            .open(
                init,
                "/f",
                OpenFlags {
                    write: true,
                    append: true,
                    ..Default::default()
                },
            )
            .unwrap();
        env.write(init, fda, b"ab").unwrap();
        env.close(init, fda).unwrap();
        assert_eq!(env.read_file_as(init, "/f").unwrap(), b"0123456789ab");
    }

    #[test]
    fn pipes_move_data_and_signal_eof() {
        let (mut env, init) = env();
        let (r, w) = env.pipe(init).unwrap();
        assert!(matches!(env.read(init, r, 8), Err(UnixError::WouldBlock)));
        env.write(init, w, b"ping").unwrap();
        assert_eq!(env.read(init, r, 8).unwrap(), b"ping");
        // Large transfers wrap around the ring buffer.
        let big = vec![7u8; 50_000];
        let written = env.write(init, w, &big).unwrap();
        assert_eq!(env.read(init, r, written).unwrap().len() as u64, written);
        // Closing the write end signals end of file.
        env.close(init, w).unwrap();
        assert_eq!(env.read(init, r, 8).unwrap(), b"");
        env.close(init, r).unwrap();
    }

    #[test]
    fn spawn_exit_wait() {
        let (mut env, init) = env();
        env.write_file_as(init, "/bin_true", b"#!true", None)
            .unwrap();
        let child = env.spawn(init, "/bin_true", None).unwrap();
        assert_eq!(env.process(child).unwrap().parent, Some(init));
        assert!(matches!(
            env.wait(init, child),
            Err(UnixError::StillRunning(_))
        ));
        env.exit(child, ExitStatus::Exited(0)).unwrap();
        assert_eq!(env.wait(init, child).unwrap(), ExitStatus::Exited(0));
        // A second wait finds nothing.
        assert!(env.wait(init, child).is_err());
    }

    #[test]
    fn fork_copies_memory_and_shares_fds() {
        let (mut env, init) = env();
        env.write_file_as(init, "/data", b"shared input", None)
            .unwrap();
        let fd = env.open(init, "/data", OpenFlags::read_only()).unwrap();
        assert_eq!(env.read(init, fd, 7).unwrap(), b"shared ");
        let child = env.fork(init).unwrap();
        // The child's descriptor continues from the shared seek position.
        assert_eq!(env.read(child, fd, 5).unwrap(), b"input");
        // Processes are isolated: the child's thread does not own the
        // parent's categories.
        let parent_proc = env.process(init).unwrap().clone();
        let child_proc = env.process(child).unwrap().clone();
        assert_ne!(parent_proc.read_cat, child_proc.read_cat);
        let kernel_label = env
            .machine()
            .kernel()
            .thread_label(child_proc.thread)
            .unwrap();
        assert!(!kernel_label.owns(parent_proc.read_cat));
        env.exit(child, ExitStatus::Exited(3)).unwrap();
        assert_eq!(env.wait(init, child).unwrap(), ExitStatus::Exited(3));
    }

    #[test]
    fn exec_replaces_image() {
        let (mut env, init) = env();
        env.write_file_as(init, "/bin_prog", b"PROGRAM IMAGE CONTENTS", None)
            .unwrap();
        let child = env.spawn(init, "/bin_sh", None).unwrap();
        let old_text = env.process(child).unwrap().text_segment;
        env.exec(child, "/bin_prog").unwrap();
        let p = env.process(child).unwrap().clone();
        assert_ne!(p.text_segment, old_text);
        assert_eq!(p.executable, "/bin_prog");
        // The new text segment holds the executable's bytes.
        let kernel_thread = p.thread;
        let data = env
            .machine_mut()
            .kernel_mut()
            .trap_segment_read(
                kernel_thread,
                ContainerEntry::new(p.internal_container, p.text_segment),
                0,
                22,
            )
            .unwrap();
        assert_eq!(data, b"PROGRAM IMAGE CONTENTS");
    }

    #[test]
    fn user_private_files_are_protected_by_the_kernel() {
        let (mut env, init) = env();
        let bob = env.create_user("bob").unwrap();
        env.mkdir(init, "/home", None).unwrap();
        env.mkdir(init, "/home/bob", None).unwrap();
        // init (owning bob's categories) writes bob's private file.
        env.write_file_as(
            init,
            "/home/bob/secret",
            b"bob's diary",
            Some(bob.private_file_label()),
        )
        .unwrap();
        // A process running *without* bob's privilege cannot read it.
        let other = env.spawn(init, "/bin_other", None).unwrap();
        let err = env.read_file_as(other, "/home/bob/secret").unwrap_err();
        assert!(matches!(
            err,
            UnixError::Kernel(SyscallError::CannotObserve(_))
        ));
        // A process running as bob can.
        let shell = env.spawn(init, "/bin_sh", Some("bob")).unwrap();
        assert_eq!(
            env.read_file_as(shell, "/home/bob/secret").unwrap(),
            b"bob's diary"
        );
    }

    #[test]
    fn signals_are_delivered_through_the_signal_gate() {
        let (mut env, init) = env();
        let child = env.spawn(init, "/bin_sleepy", None).unwrap();
        env.kill(init, child, 15).unwrap();
        assert_eq!(env.take_signal(child).unwrap(), Some(15));
        assert_eq!(env.take_signal(child).unwrap(), None);
    }

    #[test]
    fn fsync_survives_crash() {
        let (mut env, init) = env();
        env.sync_all();
        env.write_file_as(init, "/durable.txt", b"must survive", None)
            .unwrap();
        env.fsync_path(init, "/durable.txt").unwrap();
        env.write_file_as(init, "/volatile.txt", b"may vanish", None)
            .unwrap();
        // Crash and recover the machine.
        let mut machine = {
            let UnixEnv { machine, .. } = env;
            machine.crash_and_recover().unwrap()
        };
        // The durable file's segment exists in the recovered kernel with its
        // contents; the volatile one is gone.
        let recovered: Vec<Vec<u8>> = machine
            .kernel()
            .objects()
            .filter_map(|(_, o)| match &o.body {
                histar_kernel::bodies::ObjectBody::Segment(s) => Some(s.to_vec()),
                _ => None,
            })
            .collect();
        assert!(recovered
            .iter()
            .any(|b| b.windows(12).any(|w| w == b"must survive")));
        assert!(!recovered
            .iter()
            .any(|b| b.windows(10).any(|w| w == b"may vanish")));
        let _ = machine.kernel_mut();
    }

    #[test]
    fn console_writes_reach_the_device() {
        let (mut env, init) = env();
        let fd = env
            .open(
                init,
                "/dev/console",
                OpenFlags {
                    write: true,
                    ..Default::default()
                },
            )
            .unwrap();
        env.write(init, fd, b"hello tty").unwrap();
        let out = env.console_output();
        assert_eq!(out, vec![b"hello tty".to_vec()]);
        // Console reads return end-of-file.
        assert_eq!(env.read(init, fd, 8).unwrap(), b"");
        env.close(init, fd).unwrap();
    }

    #[test]
    fn dev_null_zero_urandom() {
        let (mut env, init) = env();
        let entries = env.readdir(init, "/dev").unwrap();
        for dev in ["console", "null", "zero", "urandom"] {
            assert!(entries.iter().any(|e| e.name == dev), "missing {dev}");
        }
        let null = env.open(init, "/dev/null", OpenFlags::read_only()).unwrap();
        assert_eq!(env.read(init, null, 16).unwrap(), b"");
        let zero = env.open(init, "/dev/zero", OpenFlags::read_only()).unwrap();
        assert_eq!(env.read(init, zero, 4).unwrap(), vec![0u8; 4]);
        let ur = env
            .open(init, "/dev/urandom", OpenFlags::read_only())
            .unwrap();
        let a = env.read(init, ur, 32).unwrap();
        let b = env.read(init, ur, 32).unwrap();
        assert_eq!(a.len(), 32);
        assert_ne!(a, b, "urandom streams");
        // Writes to read-only devices fail; /dev/null swallows.
        assert!(matches!(
            env.write(init, zero, b"x"),
            Err(UnixError::ReadOnly(_))
        ));
        for fd in [null, zero, ur] {
            env.close(init, fd).unwrap();
        }
    }

    #[test]
    fn proc_lists_processes_and_serves_own_status() {
        let (mut env, init) = env();
        let child = env.spawn(init, "/bin_child", None).unwrap();
        let entries = env.readdir(init, "/proc").unwrap();
        assert!(entries.iter().any(|e| e.name == init.to_string()));
        assert!(entries.iter().any(|e| e.name == child.to_string()));
        // A process can read its own /proc entry.
        let status = env
            .read_file_as(init, &format!("/proc/{init}/status"))
            .unwrap();
        let text = String::from_utf8(status).unwrap();
        assert!(text.contains("exe:\t/sbin/init"), "got: {text}");
        assert!(text.contains("state:\trunning"));
        // ...but not a sibling's (the kernel denies observing the internal
        // container).
        let err = env
            .read_file_as(init, &format!("/proc/{child}/status"))
            .unwrap_err();
        assert!(matches!(
            err,
            UnixError::Kernel(SyscallError::CannotObserve(_))
        ));
    }

    #[test]
    fn reaped_pid_is_absent_from_proc_and_metrics_tasks() {
        let (mut env, init) = env();
        let child = env.spawn(init, "/bin_child", None).unwrap();
        let listed = |env: &mut UnixEnv, reader: Pid, dir: &str| {
            let entries = env.readdir(reader, dir).unwrap();
            entries.iter().any(|e| e.name == child.to_string())
        };
        // `/proc` names are public; a task entry shows to whoever may
        // observe the process — here, the process itself.
        assert!(listed(&mut env, init, "/proc"));
        assert!(listed(&mut env, child, "/metrics/tasks"));
        env.exit(child, ExitStatus::Exited(0)).unwrap();
        assert!(listed(&mut env, init, "/proc"), "a zombie is still listed");
        env.wait(init, child).unwrap();
        assert!(!listed(&mut env, init, "/proc"));
        assert!(!listed(&mut env, init, "/metrics/tasks"));
        for path in [
            format!("/proc/{child}/status"),
            format!("/metrics/tasks/{child}"),
        ] {
            let err = env.read_file_as(init, &path).unwrap_err();
            assert!(matches!(err, UnixError::NotFound(_)), "{path}: {err:?}");
        }
    }

    #[test]
    fn rename_across_mounts_fails_cleanly() {
        let (mut env, init) = env();
        let exported = env.mkdir(init, "/exported", None).unwrap();
        env.mount("/mnt", exported);
        env.write_file_as(init, "/a.txt", b"a", None).unwrap();
        let err = env.rename(init, "/a.txt", "/mnt/a.txt").unwrap_err();
        assert!(matches!(err, UnixError::CrossMount { .. }));
        // Neither namespace was touched.
        assert_eq!(env.read_file_as(init, "/a.txt").unwrap(), b"a");
        assert!(env.readdir(init, "/mnt").unwrap().is_empty());
    }

    #[test]
    fn mount_table_overlays_directories() {
        let (mut env, init) = env();
        // Create a directory that will act as a daemon's exported container.
        let exported = env.mkdir(init, "/exported", None).unwrap();
        env.write_file_as(init, "/exported/status", b"ready", None)
            .unwrap();
        env.mount("/netd", exported);
        assert_eq!(env.read_file_as(init, "/netd/status").unwrap(), b"ready");
        // `..` escapes the mount point lexically.
        assert_eq!(
            env.read_file_as(init, "/netd/../exported/status").unwrap(),
            b"ready"
        );
    }
}
