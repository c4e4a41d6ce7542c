//! The vnode layer: every open descriptor dispatches through the
//! [`Vnode`] trait, whatever it refers to.
//!
//! §5 of the paper insists the Unix file system is *untrusted library
//! code* over labeled kernel objects.  The vnode trait is where that
//! library stops special-casing: a regular file, a pipe end, a console, a
//! `/proc` pseudo-file and a `/dev` node all answer the same
//! `read`/`write`/`seek`/`stat` interface, and the kernel's label checks
//! run inside each implementation's system calls exactly as before.
//!
//! Descriptor state still lives in the *descriptor segment* (§5.3): a
//! vnode never caches the seek position, because `dup` and `fork` share
//! positions by sharing that segment.  A file vnode caches its backing
//! segment's *length* and nothing else; both segments are named by their
//! [`ContainerEntry`] on every call, and the hot read/write paths submit
//! their data operation and the descriptor seek-update as ONE
//! `submit_calls` batch (a single boundary crossing).

use crate::env::UnixError;
use crate::fdtable::{FdKind, FdState, FD_POSITION_OFFSET, FD_STATE_LEN, FLAG_TARGET_BESIDE};
use crate::fs::FileStat;
use crate::process::{Pid, Process, ProcessState};
use histar_kernel::dispatch::Syscall;
use histar_kernel::object::{ContainerEntry, ObjectId};
use histar_kernel::Kernel;
use std::collections::BTreeMap;

type Result<T> = core::result::Result<T, UnixError>;

/// Size of the ring buffer inside a pipe segment.
pub const PIPE_CAPACITY: u64 = 64 * 1024;
/// Header bytes of a pipe segment: read position, write position, writer
/// count.
pub const PIPE_HEADER: u64 = 24;

/// The state a vnode operation runs against: the kernel, the calling
/// process's thread, and the library's live process table.  Every kernel
/// call a vnode makes goes through `trap_*`/`submit_calls` on this thread,
/// so the kernel's label checks always apply to the actual caller — and
/// the context holds the kernel, not the machine, so nothing below the
/// environment can name the store, a snapshot or a crash: a filesystem's
/// only way to make anything durable is a trapped `obj_sync` /
/// `persist_sync`.
#[derive(Debug)]
pub struct VfsCtx<'a> {
    /// The kernel the environment's machine runs.
    pub(crate) kernel: &'a mut Kernel,
    /// The machine's boot console device, if configured (what a
    /// [`ConsoleVnode`] transmits to).
    pub(crate) console: Option<ObjectId>,
    /// The calling process's thread.
    pub thread: ObjectId,
    /// The process table `/proc` and `/metrics/tasks` render from (built
    /// by [`UnixEnv::vfs_ctx`](crate::env::UnixEnv::vfs_ctx)).
    pub processes: &'a BTreeMap<Pid, Process>,
}

impl<'a> VfsCtx<'a> {
    /// The kernel, mutably — the path every syscall takes.
    pub fn kernel(&mut self) -> &mut Kernel {
        self.kernel
    }

    /// The processes `/proc` and `/metrics/tasks` serve: everything in the
    /// table that has not been reaped, in pid order.
    pub fn live_processes(&self) -> impl Iterator<Item = &'a Process> {
        self.processes
            .values()
            .filter(|p| p.state != ProcessState::Reaped)
    }

    /// One served process, or the `NotFound` a reaped or unknown pid reads
    /// as.
    pub fn live_process(&self, pid: Pid) -> Result<&'a Process> {
        self.processes
            .get(&pid)
            .filter(|p| p.state != ProcessState::Reaped)
            .ok_or_else(|| UnixError::NotFound(format!("{pid}")))
    }
}

/// One process's name for a descriptor segment: the entry in its own
/// process container, where the process holds a hard link to the segment
/// for as long as one of its descriptor numbers names it (§5.3).
#[derive(Clone, Copy, Debug)]
pub struct FdRef {
    /// `⟨the process's container, the descriptor segment⟩`.
    pub entry: ContainerEntry,
}

impl FdRef {
    /// The descriptor segment `seg` as the process owning
    /// `process_container` names it.
    pub fn new(process_container: ObjectId, seg: ObjectId) -> FdRef {
        FdRef {
            entry: ContainerEntry::new(process_container, seg),
        }
    }

    /// The batched syscall that stores a new seek position into the
    /// descriptor segment (the second entry of the hot-path batches).
    pub fn position_update(&self, position: u64) -> Syscall {
        Syscall::SegmentWrite {
            entry: self.entry,
            offset: FD_POSITION_OFFSET,
            data: position.to_le_bytes().to_vec(),
        }
    }

    /// The entry the descriptor's target is named through: the container
    /// the state records, or, for a `pipe()` end, this process's own.
    pub fn target_entry(&self, state: &FdState) -> ContainerEntry {
        if state.flags & FLAG_TARGET_BESIDE != 0 {
            ContainerEntry::new(self.entry.container, state.target)
        } else {
            recorded_target(state)
        }
    }
}

/// `⟨target_container, target⟩`, as the descriptor state records it.
fn recorded_target(state: &FdState) -> ContainerEntry {
    ContainerEntry::new(state.target_container, state.target)
}

/// Restores a descriptor's seek position after a failed batched I/O.
/// Submission batches have no rollback — every entry executes — so a
/// hot path whose data operation failed must undo the optimistic
/// position update or a denied read/write would move the shared
/// position.  Best-effort: the fd segment is the caller's own state, so
/// this write only fails if the descriptor itself is gone.
pub fn undo_seek(ctx: &mut VfsCtx, fd: &FdRef, position: u64) {
    let thread = ctx.thread;
    let _ = ctx
        .kernel()
        .submit_calls(thread, vec![fd.position_update(position)]);
}

/// Reads and decodes the descriptor state from its segment (one trap).
pub fn read_fd_state(ctx: &mut VfsCtx, fd: &FdRef) -> Result<FdState> {
    let thread = ctx.thread;
    let bytes = ctx
        .kernel()
        .trap_segment_read(thread, fd.entry, 0, FD_STATE_LEN)?;
    FdState::decode(&bytes).ok_or(UnixError::Corrupt("fd segment"))
}

/// Read-modify-writes the descriptor state (`dup`'s reference count).
pub fn update_fd_state(
    ctx: &mut VfsCtx,
    fd: &FdRef,
    update: impl FnOnce(&mut FdState),
) -> Result<FdState> {
    let mut state = read_fd_state(ctx, fd)?;
    update(&mut state);
    let thread = ctx.thread;
    ctx.kernel()
        .trap_segment_write(thread, fd.entry, 0, &state.encode())?;
    Ok(state)
}

/// One open descriptor's behaviour: the object every `FdKind` used to be
/// hand-dispatched to.  Implementations update descriptor-segment state
/// (seek position, pipe header) themselves, batching those updates with
/// their data operation where the ABI allows.
pub trait Vnode: core::fmt::Debug {
    /// Reads up to `len` bytes at the descriptor's current position.
    fn read(&mut self, ctx: &mut VfsCtx, fd: &FdRef, state: &FdState, len: u64) -> Result<Vec<u8>>;

    /// Writes `data` at the descriptor's current position, returning the
    /// number of bytes written.
    fn write(&mut self, ctx: &mut VfsCtx, fd: &FdRef, state: &FdState, data: &[u8]) -> Result<u64>;

    /// Repositions the descriptor (absolute seek).  The default stores
    /// the position into the descriptor segment, which is all a seekable
    /// vnode needs; stream-like vnodes (pipes, console, sockets)
    /// override this to refuse.
    fn seek(&mut self, ctx: &mut VfsCtx, fd: &FdRef, position: u64) -> Result<()> {
        let thread = ctx.thread;
        for r in ctx
            .kernel()
            .submit_calls(thread, vec![fd.position_update(position)])
        {
            r?;
        }
        Ok(())
    }

    /// `fstat` through the descriptor.
    fn stat(&mut self, _ctx: &mut VfsCtx, state: &FdState) -> Result<FileStat> {
        Ok(FileStat {
            object: state.target,
            is_dir: false,
            len: 0,
        })
    }

    /// Makes specific pages of the backing object durable in place
    /// (`fdatasync`); only file-backed vnodes support it.
    fn fsync_pages(&mut self, _ctx: &mut VfsCtx, _pages: &[u64]) -> Result<()> {
        Err(UnixError::Unsupported("fsync on a non-file descriptor"))
    }

    /// Called when the last reference to the descriptor is closed (e.g. a
    /// pipe write end signalling end-of-file).
    fn on_last_close(&mut self, _ctx: &mut VfsCtx, _fd: &FdRef, _state: &FdState) -> Result<()> {
        Ok(())
    }
}

// ------------------------------------------------- pseudo-file snapshots --

/// An open `/proc` or `/metrics` pseudo-file: an open-time snapshot of the
/// rendered text.  Every read re-runs the kernel label check against the
/// node's gate container (the descriptor's `target_container`) before
/// serving bytes, batched with the descriptor's seek update.
#[derive(Debug)]
pub struct SnapshotVnode {
    /// The rendered text.
    pub(crate) content: Vec<u8>,
    /// The node's name, when a denial must read as the `NotFound` a
    /// missing entry produces (the per-activity `/metrics` namespaces), so
    /// revocation-by-relabeling is as silent as never having existed.
    pub(crate) absence: Option<String>,
}

impl Vnode for SnapshotVnode {
    fn read(&mut self, ctx: &mut VfsCtx, fd: &FdRef, state: &FdState, len: u64) -> Result<Vec<u8>> {
        // `len` is untrusted: clamp before any arithmetic can overflow.
        let start = (state.position as usize).min(self.content.len());
        let end = (start as u64)
            .saturating_add(len)
            .min(self.content.len() as u64) as usize;
        // The label gate and the seek update cross the boundary as one
        // batch; the gate must pass before bytes are served.
        let thread = ctx.thread;
        let calls = vec![
            Syscall::ContainerList {
                container: state.target_container,
            },
            fd.position_update(end as u64),
        ];
        let mut results = ctx.kernel().submit_calls(thread, calls).into_iter();
        let gate = results.next().expect("label gate completes");
        let seek = results.next().expect("seek update completes");
        if let Err(e) = gate {
            // Batches have no rollback: undo the optimistic seek update
            // so a denied read does not move the shared position.
            undo_seek(ctx, fd, state.position);
            return Err(match &self.absence {
                Some(name) => UnixError::NotFound(name.clone()),
                None => e.into(),
            });
        }
        seek?;
        Ok(self.content[start..end].to_vec())
    }

    fn write(
        &mut self,
        _ctx: &mut VfsCtx,
        _fd: &FdRef,
        state: &FdState,
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

// ---------------------------------------------------------------- pipes --

/// Both ends of a pipe: a ring buffer in a shared segment whose header
/// holds `(read pos, write pos, writer count)`.  The header read costs one
/// trap; the data transfer and the header update then cross the boundary
/// together as one batch.
#[derive(Debug, Default)]
pub struct PipeVnode;

pub(crate) fn decode_pipe_header(header: &[u8]) -> (u64, u64, u64) {
    let rpos = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes"));
    let wpos = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let writers = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    (rpos, wpos, writers)
}

pub(crate) fn encode_pipe_header(rpos: u64, wpos: u64, writers: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(PIPE_HEADER as usize);
    out.extend_from_slice(&rpos.to_le_bytes());
    out.extend_from_slice(&wpos.to_le_bytes());
    out.extend_from_slice(&writers.to_le_bytes());
    out
}

/// One byte ring inside a segment: a `PIPE_HEADER`-byte header plus
/// `capacity` data bytes, each at an arbitrary offset.  A pipe segment
/// holds one ring; a socket connection segment holds two (one per
/// direction), with both headers packed at the front so an idle
/// connection materializes almost no segment bytes.
#[derive(Clone, Copy, Debug)]
pub struct Ring {
    /// The segment holding the ring.
    pub entry: ContainerEntry,
    /// Byte offset of the ring's `(rpos, wpos, writers)` header.
    pub header: u64,
    /// Byte offset of the ring's data area.
    pub data: u64,
    /// Data capacity in bytes.
    pub capacity: u64,
}

impl Ring {
    /// The offset poll probes to compute readiness without data movement.
    pub fn header_offset(&self) -> u64 {
        self.header
    }

    /// Decoded `(rpos, wpos, writers)` header (one trap).
    pub fn read_header(&self, ctx: &mut VfsCtx) -> Result<(u64, u64, u64)> {
        let thread = ctx.thread;
        let header =
            ctx.kernel()
                .trap_segment_read(thread, self.entry, self.header, PIPE_HEADER)?;
        Ok(decode_pipe_header(&header))
    }

    /// Consumes up to `len` bytes.  Empty ring: end-of-file when no
    /// writers remain, [`UnixError::WouldBlock`] otherwise.  The data
    /// read(s) and the header update cross the boundary as one batch.
    pub(crate) fn read(&self, ctx: &mut VfsCtx, len: u64) -> Result<Vec<u8>> {
        let (rpos, wpos, writers) = self.read_header(ctx)?;
        let available = wpos - rpos;
        if available == 0 {
            if writers == 0 {
                return Ok(Vec::new()); // end of file
            }
            return Err(UnixError::WouldBlock);
        }
        let n = len.min(available);
        let start = rpos % self.capacity;
        let first = n.min(self.capacity - start);
        let mut calls = vec![Syscall::SegmentRead {
            entry: self.entry,
            offset: self.data + start,
            len: first,
        }];
        if first < n {
            calls.push(Syscall::SegmentRead {
                entry: self.entry,
                offset: self.data,
                len: n - first,
            });
        }
        calls.push(Syscall::SegmentWrite {
            entry: self.entry,
            offset: self.header,
            data: encode_pipe_header(rpos + n, wpos, writers),
        });
        let thread = ctx.thread;
        let mut results = ctx.kernel().submit_calls(thread, calls).into_iter();
        let mut out = results.next().expect("first read completes")?.into_bytes();
        if first < n {
            out.extend(results.next().expect("wrap read completes")?.into_bytes());
        }
        results.next().expect("header update completes")?;
        Ok(out)
    }

    /// Appends up to `data.len()` bytes, returning how many fit.  A full
    /// ring returns [`UnixError::WouldBlock`].
    pub(crate) fn write(&self, ctx: &mut VfsCtx, data: &[u8]) -> Result<u64> {
        let (rpos, wpos, writers) = self.read_header(ctx)?;
        let free = self.capacity - (wpos - rpos);
        if free == 0 {
            return Err(UnixError::WouldBlock);
        }
        let n = (data.len() as u64).min(free);
        let start = wpos % self.capacity;
        let first = n.min(self.capacity - start);
        let mut calls = vec![Syscall::SegmentWrite {
            entry: self.entry,
            offset: self.data + start,
            data: data[..first as usize].to_vec(),
        }];
        if first < n {
            calls.push(Syscall::SegmentWrite {
                entry: self.entry,
                offset: self.data,
                data: data[first as usize..n as usize].to_vec(),
            });
        }
        calls.push(Syscall::SegmentWrite {
            entry: self.entry,
            offset: self.header,
            data: encode_pipe_header(rpos, wpos + n, writers),
        });
        let thread = ctx.thread;
        for r in ctx.kernel().submit_calls(thread, calls) {
            r?;
        }
        Ok(n)
    }

    /// Adjusts the writer count (last close of a write end → EOF for
    /// readers).
    fn adjust_writers(&self, ctx: &mut VfsCtx, delta: i64) -> Result<()> {
        let (rpos, wpos, writers) = self.read_header(ctx)?;
        let writers = if delta < 0 {
            writers.saturating_sub(delta.unsigned_abs())
        } else {
            writers + delta as u64
        };
        let thread = ctx.thread;
        ctx.kernel().trap_segment_write(
            thread,
            self.entry,
            self.header,
            &encode_pipe_header(rpos, wpos, writers),
        )?;
        Ok(())
    }
}

impl PipeVnode {
    fn ring(fd: &FdRef, state: &FdState) -> Ring {
        Ring {
            entry: fd.target_entry(state),
            header: 0,
            data: PIPE_HEADER,
            capacity: PIPE_CAPACITY,
        }
    }
}

impl Vnode for PipeVnode {
    fn read(&mut self, ctx: &mut VfsCtx, fd: &FdRef, state: &FdState, len: u64) -> Result<Vec<u8>> {
        if state.kind.is_pipe_write() {
            return Err(UnixError::Unsupported("read from pipe write end"));
        }
        PipeVnode::ring(fd, state).read(ctx, len)
    }

    fn write(&mut self, ctx: &mut VfsCtx, fd: &FdRef, state: &FdState, data: &[u8]) -> Result<u64> {
        if !state.kind.is_pipe_write() {
            return Err(UnixError::Unsupported("write to pipe read end"));
        }
        PipeVnode::ring(fd, state).write(ctx, data)
    }

    fn seek(&mut self, _ctx: &mut VfsCtx, _fd: &FdRef, _position: u64) -> Result<()> {
        Err(UnixError::Unsupported("seek on a non-file descriptor"))
    }

    fn on_last_close(&mut self, ctx: &mut VfsCtx, fd: &FdRef, state: &FdState) -> Result<()> {
        if state.kind.is_pipe_write() {
            PipeVnode::ring(fd, state).adjust_writers(ctx, -1)?;
        }
        Ok(())
    }
}

/// Creates a pipe buffer in the calling process's `process_container` and
/// returns the descriptor states for its read and write ends.  The buffer
/// is linked there twice, once per end, with its quota fixed: each end's
/// descriptor carries one link of the buffer wherever it is shared and
/// drops it where it is closed ([`FLAG_TARGET_BESIDE`]).
pub fn create_pipe(ctx: &mut VfsCtx, process_container: ObjectId) -> Result<(FdState, FdState)> {
    use crate::fdtable::{FdKind, FLAG_RDONLY, FLAG_WRONLY};
    let thread = ctx.thread;
    let kernel = ctx.kernel();
    let pipe_label = kernel
        .trap_self_get_label(thread)?
        .drop_ownership(histar_label::Level::L1);
    let pipe_seg = kernel.trap_segment_create(
        thread,
        process_container,
        pipe_label,
        PIPE_HEADER + PIPE_CAPACITY,
        "pipe",
    )?;
    let entry = ContainerEntry::new(process_container, pipe_seg);
    let calls = vec![
        // Header: read pos = 0, write pos = 0, writers = 1.
        Syscall::SegmentWrite {
            entry,
            offset: 0,
            data: encode_pipe_header(0, 0, 1),
        },
        Syscall::ObjSetFixedQuota { entry },
        Syscall::HardLink {
            entry,
            dst: process_container,
        },
    ];
    for r in kernel.submit_calls(thread, calls) {
        r?;
    }
    let read_end = FdState {
        kind: FdKind::PipeRead,
        target: pipe_seg,
        target_container: process_container,
        position: 0,
        flags: FLAG_RDONLY | FLAG_TARGET_BESIDE,
        refs: 1,
    };
    let write_end = FdState {
        kind: FdKind::PipeWrite,
        flags: FLAG_WRONLY | FLAG_TARGET_BESIDE,
        ..read_end
    };
    Ok((read_end, write_end))
}

// -------------------------------------------------------------- console --

/// The console/TTY: writes are transmitted to the boot console device
/// (label-checked by the kernel's device transmit path); reads return
/// end-of-file.
#[derive(Debug, Default)]
pub struct ConsoleVnode;

impl Vnode for ConsoleVnode {
    fn read(
        &mut self,
        _ctx: &mut VfsCtx,
        _fd: &FdRef,
        _state: &FdState,
        _len: u64,
    ) -> Result<Vec<u8>> {
        Ok(Vec::new())
    }

    fn write(
        &mut self,
        ctx: &mut VfsCtx,
        _fd: &FdRef,
        _state: &FdState,
        data: &[u8],
    ) -> Result<u64> {
        if let Some(console) = ctx.console {
            let thread = ctx.thread;
            let entry = ContainerEntry::new(ctx.kernel().root_container(), console);
            ctx.kernel()
                .trap_net_transmit(thread, entry, data.to_vec())?;
        }
        Ok(data.len() as u64)
    }

    fn seek(&mut self, _ctx: &mut VfsCtx, _fd: &FdRef, _position: u64) -> Result<()> {
        Err(UnixError::Unsupported("seek on a non-file descriptor"))
    }
}

// -------------------------------------------------------------- sockets --

/// Data capacity of one direction of a socket connection.  Sized so the
/// whole duplex segment (two headers + two data areas) fits in a single
/// page: a connection created with `len = 0` gets a one-page quota, its
/// bytes materialize lazily as data flows, and 10⁴ concurrent idle
/// connections cost 10⁴ × ~48 bytes, not 10⁴ × pages.
pub const SOCK_RING_CAPACITY: u64 = 2000;
/// Offset of the first ring's data area: both headers pack at the front.
const SOCK_DATA_BASE: u64 = 2 * PIPE_HEADER;

/// A connected network socket: one shared *connection segment* holding
/// two [`Ring`]s — ring 0 carries client→server bytes, ring 1
/// server→client — so `read`/`write`/`close` are ordinary label-checked
/// segment operations on whichever ring faces away from the caller.
/// `netd` creates the segment (labelled with its network taint plus the
/// connection's own categories), so every byte moved here is subject to
/// exactly the information-flow rules of §5.7.
///
/// Which side of the connection a descriptor is (and whether it is a
/// listening socket, whose segment is the accept queue) is carried in the
/// descriptor flags, not in the vnode: positions live in the shared
/// segment, the vnode stays stateless.
#[derive(Debug, Default)]
pub struct SocketVnode;

/// Ring `i` (0 = client→server, 1 = server→client) of a connection
/// segment.
fn socket_ring(entry: ContainerEntry, i: u64) -> Ring {
    Ring {
        entry,
        header: i * PIPE_HEADER,
        data: SOCK_DATA_BASE + i * SOCK_RING_CAPACITY,
        capacity: SOCK_RING_CAPACITY,
    }
}

/// The ring a descriptor *receives* from.
pub fn socket_rx_ring(state: &FdState) -> Ring {
    use crate::fdtable::FLAG_SOCK_SERVER;
    let i = if state.flags & FLAG_SOCK_SERVER != 0 {
        0
    } else {
        1
    };
    socket_ring(recorded_target(state), i)
}

/// The ring a descriptor *transmits* into.
pub fn socket_tx_ring(state: &FdState) -> Ring {
    use crate::fdtable::FLAG_SOCK_SERVER;
    let i = if state.flags & FLAG_SOCK_SERVER != 0 {
        1
    } else {
        0
    };
    socket_ring(recorded_target(state), i)
}

impl Vnode for SocketVnode {
    fn read(
        &mut self,
        ctx: &mut VfsCtx,
        _fd: &FdRef,
        state: &FdState,
        len: u64,
    ) -> Result<Vec<u8>> {
        use crate::fdtable::FLAG_SOCK_LISTEN;
        if state.flags & FLAG_SOCK_LISTEN != 0 {
            return Err(UnixError::Unsupported("read on a listening socket"));
        }
        socket_rx_ring(state).read(ctx, len)
    }

    fn write(
        &mut self,
        ctx: &mut VfsCtx,
        _fd: &FdRef,
        state: &FdState,
        data: &[u8],
    ) -> Result<u64> {
        use crate::fdtable::FLAG_SOCK_LISTEN;
        if state.flags & FLAG_SOCK_LISTEN != 0 {
            return Err(UnixError::Unsupported("write on a listening socket"));
        }
        socket_tx_ring(state).write(ctx, data)
    }

    fn seek(&mut self, _ctx: &mut VfsCtx, _fd: &FdRef, _position: u64) -> Result<()> {
        Err(UnixError::Unsupported("seek on a non-file descriptor"))
    }

    fn on_last_close(&mut self, ctx: &mut VfsCtx, _fd: &FdRef, state: &FdState) -> Result<()> {
        use crate::fdtable::FLAG_SOCK_LISTEN;
        if state.flags & FLAG_SOCK_LISTEN == 0 {
            // Hang up our transmit direction: the peer's next read sees
            // end-of-file instead of blocking forever.
            socket_tx_ring(state).adjust_writers(ctx, -1)?;
        }
        Ok(())
    }
}

/// What `poll` must read to decide this descriptor's readiness, when
/// readiness is ring-derived: `(header offset within the target segment,
/// ring capacity, write side?)`.  `None` means the descriptor is always
/// ready (files, console, pseudo-files).  One `PIPE_HEADER`-byte read at
/// the returned offset — batchable across descriptors — fully decides
/// readiness; no data moves.
pub fn readiness_probe(state: &FdState) -> Option<(u64, u64, bool)> {
    use crate::fdtable::{FdKind, FLAG_SOCK_LISTEN};
    match state.kind {
        FdKind::PipeRead => Some((0, PIPE_CAPACITY, false)),
        FdKind::PipeWrite => Some((0, PIPE_CAPACITY, true)),
        FdKind::Socket if state.flags & FLAG_SOCK_LISTEN != 0 => {
            // The accept queue is ring 0 of its segment.
            Some((0, crate::net_queue::QUEUE_CAPACITY, false))
        }
        FdKind::Socket => {
            let rx = socket_rx_ring(state);
            Some((rx.header_offset(), rx.capacity, false))
        }
        _ => None,
    }
}

/// Decides readiness from a probed ring header: a read side is ready when
/// bytes are buffered or every writer hung up (EOF is readable); a write
/// side is ready when the ring has free space.
pub fn readiness_from_header(header: &[u8], capacity: u64, write_side: bool) -> bool {
    let (rpos, wpos, writers) = decode_pipe_header(header);
    if write_side {
        capacity - (wpos - rpos) > 0
    } else {
        wpos > rpos || writers == 0
    }
}

/// Initializes a fresh connection segment's two ring headers (one writer
/// each — the two peers).  The segment itself is created by the caller
/// (netd), which chooses its label and container; created with `len = 0`,
/// only these 48 header bytes materialize until data actually flows.
pub fn init_socket_segment(ctx: &mut VfsCtx, entry: ContainerEntry) -> Result<()> {
    let thread = ctx.thread;
    let mut headers = encode_pipe_header(0, 0, 1);
    headers.extend(encode_pipe_header(0, 0, 1));
    ctx.kernel()
        .trap_segment_write(thread, entry, 0, &headers)?;
    Ok(())
}
