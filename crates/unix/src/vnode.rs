//! The vnode layer: every open descriptor dispatches through the
//! [`Vnode`] trait, whatever it refers to.
//!
//! §5 of the paper insists the Unix file system is *untrusted library
//! code* over labeled kernel objects.  The vnode trait is where that
//! library stops special-casing: a regular file, a pipe end, a console, a
//! socket, a `/proc` or `/metrics` pseudo-file and a `/dev` node all
//! answer the same `read`/`write`/`seek`/`stat` interface, and the
//! kernel's label checks run inside each implementation's system calls
//! exactly as before.
//!
//! Descriptor state lives in the *descriptor segment* (§5.3), because
//! `dup` and `fork` share positions by sharing that segment.  A vnode
//! runs against the caller's view of that state (`&mut FdState`, kept by
//! the environment) and, once its batch has stored a new position, sets
//! the view's `position` to match.  Two decisions are made here, once:
//!
//! * **Which vnode serves a descriptor.**  A filesystem's `open` hands
//!   back the vnode it built; every other holder — a process the
//!   descriptor reached by `fork` or `share_fd`, or a `close` that must
//!   run a last-close hook — gets it from [`vnode_for`], one `match` on
//!   the state's [`FdKind`].
//! * **When a file vnode may trust its cached length.**  SegFs's and
//!   PersistFs's file vnodes cache their file's *length* and nothing
//!   else, and share one read loop, [`read_cached`], which decides it.

use crate::devfs::device;
use crate::env::UnixError;
use crate::fdtable::{FdKind, FdState, FD_POSITION_OFFSET, FD_STATE_LEN, FLAG_TARGET_BESIDE};
use crate::fs::FileStat;
use crate::metricsfs::MetricsFs;
use crate::persistfs::PersistVnode;
use crate::process::{Pid, Process, ProcessState};
use crate::procfs::ProcFs;
use crate::segfs::SegVnode;
use crate::snapshot::reopen;
use histar_kernel::dispatch::{Syscall, SyscallResult};
use histar_kernel::object::{ContainerEntry, ObjectId};
use histar_kernel::syscall::SyscallError;
use histar_kernel::Kernel;
use histar_store::codec::{DecodeError, Decoder, Encoder, Wire};
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
    /// The machine's boot console device (what a [`ConsoleVnode`]
    /// transmits to).
    pub(crate) console: ObjectId,
    /// The calling process's thread.
    pub thread: ObjectId,
    /// The container whose label gates the global `/metrics` files, once
    /// the environment has made it.
    pub metrics_gate: Option<ObjectId>,
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

    /// The batched syscall that stores a new seek position, encoded by
    /// `u64::to_le_bytes` on the caller's stack and lent, into the
    /// descriptor segment (the second entry of the hot-path batches).
    pub fn position_update<'a>(&self, position: &'a [u8; 8]) -> Syscall<'a> {
        Syscall::SegmentWrite {
            entry: self.entry,
            offset: FD_POSITION_OFFSET,
            data: position.as_slice().into(),
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
    let position = position.to_le_bytes();
    let _ = ctx
        .kernel()
        .submit_calls(thread, vec![fd.position_update(&position)]);
}

/// The end of an access of `len` bytes at file position `pos`.  A sum past
/// `u64::MAX` is refused as the kernel refuses such a segment write,
/// before any call, so the shared position does not move.
pub(crate) fn access_end(pos: u64, len: u64) -> Result<u64> {
    pos.checked_add(len)
        .ok_or(UnixError::Kernel(SyscallError::InvalidArgument(
            "write offset overflows",
        )))
}

/// Reads and decodes the descriptor state from its segment (one trap).
pub fn read_fd_state(ctx: &mut VfsCtx, fd: &FdRef) -> Result<FdState> {
    let thread = ctx.thread;
    let bytes = ctx
        .kernel()
        .trap_segment_read(thread, fd.entry, 0, FD_STATE_LEN)?;
    FdState::decode(&bytes).map_err(|_| UnixError::Corrupt("fd segment"))
}

/// Counts one more number naming the descriptor.  Every process sharing
/// it can write the count, so a count with no room left is refused like
/// an undecodable segment, before anything is linked or written.
pub(crate) fn count_open(state: &mut FdState) -> Result<()> {
    state.refs = state
        .refs
        .checked_add(1)
        .ok_or(UnixError::Corrupt("fd segment"))?;
    Ok(())
}

/// One open descriptor's behaviour: the object every `FdKind` used to be
/// hand-dispatched to.  Implementations update descriptor-segment state
/// (seek position, pipe header) themselves, batching those updates with
/// their data operation where the ABI allows.  A `read` or `write` that
/// stores a new position also sets `state.position` to it, so the
/// caller's view stays the segment's; on an error the caller forgets its
/// view instead.
pub trait Vnode: core::fmt::Debug {
    /// Reads up to `len` bytes at the descriptor's current position.
    fn read(
        &mut self,
        ctx: &mut VfsCtx,
        fd: &FdRef,
        state: &mut FdState,
        len: u64,
    ) -> Result<Vec<u8>>;

    /// Writes `data` at the descriptor's current position, returning the
    /// number of bytes written.
    fn write(
        &mut self,
        ctx: &mut VfsCtx,
        fd: &FdRef,
        state: &mut FdState,
        data: &[u8],
    ) -> Result<u64>;

    /// Repositions the descriptor (absolute seek).  The default stores
    /// the position into the descriptor segment, which is all a seekable
    /// vnode needs; stream-like vnodes (pipes, console, sockets)
    /// override this to refuse.
    fn seek(&mut self, ctx: &mut VfsCtx, fd: &FdRef, position: u64) -> Result<()> {
        let thread = ctx.thread;
        let position = position.to_le_bytes();
        for r in ctx
            .kernel()
            .submit_calls(thread, vec![fd.position_update(&position)])
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

/// The vnode serving a descriptor, built from its state alone: the one
/// place a vnode is built for a descriptor its filesystem did not just
/// open.  A file vnode starts with a cold length cache; a `/proc` or
/// `/metrics` pseudo-file passes the gate its state records and is
/// rendered afresh; a `/dev/urandom` stream starts again from the seed
/// its open recorded.
pub(crate) fn vnode_for(ctx: &mut VfsCtx, state: &FdState) -> Result<Box<dyn Vnode>> {
    Ok(match state.kind {
        FdKind::File => Box::new(SegVnode::new(recorded_target(state))),
        FdKind::Persist => Box::new(PersistVnode::new(state.target.raw() as u32)),
        FdKind::PipeRead | FdKind::PipeWrite => Box::new(PipeVnode),
        FdKind::Console => Box::new(ConsoleVnode),
        FdKind::Socket => Box::new(SocketVnode),
        FdKind::Dev => device(state.target.raw(), state.target_container.raw())?,
        FdKind::Proc => reopen::<ProcFs>(ctx, state)?,
        FdKind::Metrics => reopen::<MetricsFs>(ctx, state)?,
    })
}

// ------------------------------------------------------- cached length --

/// A file vnode that caches its file's length: what [`read_cached`] asks
/// of it.
pub(crate) trait CachedLength {
    /// The cached length, if there is one.
    fn cached_len(&self) -> Option<u64>;

    /// Fetches the length fresh — a label-checked kernel call, so an
    /// unauthorized reader fails here — and caches it.
    fn fetch_len(&mut self, ctx: &mut VfsCtx) -> Result<u64>;

    /// Drops the cached length.
    fn forget_len(&mut self);

    /// The calls reading bytes `[start, start + n)`, followed by `then`.
    fn read_calls<'a>(&self, start: u64, n: u64, then: Syscall<'a>) -> Vec<Syscall<'a>>;

    /// The bytes the read calls' completions carry.  `Ok(None)` says
    /// they show the length used stale; it is asked only while `fresh` is
    /// false, i.e. while the length in hand came from the cache.
    fn read_bytes(
        &self,
        done: Vec<core::result::Result<SyscallResult, SyscallError>>,
        start: u64,
        n: u64,
        fresh: bool,
    ) -> core::result::Result<Option<Vec<u8>>, SyscallError>;
}

/// The length in hand: the cached one, or a fetch (which `fresh` records).
fn length<F: CachedLength>(file: &mut F, ctx: &mut VfsCtx, fresh: &mut bool) -> Result<u64> {
    match file.cached_len() {
        Some(len) => Ok(len),
        None => {
            *fresh = true;
            file.fetch_len(ctx)
        }
    }
}

/// Reads up to `len` bytes of a length-caching file at the descriptor's
/// position: the read loop SegFs and PersistFs files share.  A warm read
/// is one batch — the data reads and the seek update.  At (cached) end of
/// file the length is fetched once more, so growth through other
/// descriptors shows, before end of file is reported with the position
/// unchanged.  A batch that shows a cached length stale (the file shrank
/// through another descriptor) is undone and retried once on a fresh
/// length.  A zero-length read still fetches a cold length, as read(2)
/// with a zero count still validates the descriptor.
pub(crate) fn read_cached<F: CachedLength>(
    file: &mut F,
    ctx: &mut VfsCtx,
    fd: &FdRef,
    state: &mut FdState,
    len: u64,
) -> Result<Vec<u8>> {
    let mut fresh = false;
    if len == 0 {
        length(file, ctx, &mut fresh)?;
        return Ok(Vec::new());
    }
    loop {
        let file_len = length(file, ctx, &mut fresh)?;
        let start = state.position.min(file_len);
        let n = len.min(file_len - start);
        if n == 0 {
            fresh = true;
            if file.fetch_len(ctx)? <= start {
                return Ok(Vec::new());
            }
            continue;
        }
        let end = (start + n).to_le_bytes();
        let calls = file.read_calls(start, n, fd.position_update(&end));
        let thread = ctx.thread;
        let mut done = ctx.kernel().submit_calls(thread, calls);
        let seek = done.pop().expect("seek update completes");
        match file.read_bytes(done, start, n, fresh) {
            Ok(Some(data)) => {
                seek?;
                state.position = start + n;
                return Ok(data);
            }
            Ok(None) => {
                // The retry may end at end of file without a batch of its
                // own, so this one's seek update is undone first.
                undo_seek(ctx, fd, state.position);
                file.forget_len();
            }
            Err(e) => {
                // A failed read must not move the shared position.
                undo_seek(ctx, fd, state.position);
                return Err(e.into());
            }
        }
    }
}

// ---------------------------------------------------------------- pipes --

/// Both ends of a pipe: a ring buffer in a shared segment whose header
/// holds `(read pos, write pos, writer count)`.  The header read costs one
/// trap; the data transfer and the header update then cross the boundary
/// together as one batch.
#[derive(Debug, Default)]
pub struct PipeVnode;

/// A ring's header, `(rpos, wpos, writers)`: read position, write
/// position and writer count, each a `u64`.  Anyone holding the segment's
/// write categories can rewrite it, so it is input: a header with `rpos >
/// wpos`, more than the ring's capacity (what the reader knows) buffered,
/// or no room
/// left to advance `wpos` is [`DecodeError::BadValue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingHeader(pub u64, pub u64, pub u64);

impl Wire<'_, u64> for RingHeader {
    const SIZE: usize = PIPE_HEADER as usize;

    fn put(&self, e: &mut Encoder) {
        e.put_u64(self.0).put_u64(self.1).put_u64(self.2);
    }

    fn get(d: &mut Decoder<'_>, capacity: u64) -> core::result::Result<RingHeader, DecodeError> {
        let (rpos, wpos) = (d.get_u64()?, d.get_u64()?);
        match wpos.checked_sub(rpos) {
            Some(buffered) if buffered <= capacity && wpos.checked_add(capacity).is_some() => {
                Ok(RingHeader(rpos, wpos, d.get_u64()?))
            }
            _ => Err(DecodeError::BadValue),
        }
    }
}

impl RingHeader {
    /// Decodes the header of a ring of `capacity` bytes.
    pub fn read(bytes: &[u8], capacity: u64) -> Result<RingHeader> {
        RingHeader::decode_with(bytes, capacity).map_err(|_| UnixError::Corrupt("ring header"))
    }
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

    /// The decoded, validated header (one trap).
    pub fn read_header(&self, ctx: &mut VfsCtx) -> Result<RingHeader> {
        let thread = ctx.thread;
        let header =
            ctx.kernel()
                .trap_segment_read(thread, self.entry, self.header, PIPE_HEADER)?;
        RingHeader::read(&header, self.capacity)
    }

    /// Consumes up to `len` bytes.  Empty ring: end-of-file when no
    /// writers remain, [`UnixError::WouldBlock`] otherwise.  The data
    /// read(s) and the header update cross the boundary as one batch.
    pub(crate) fn read(&self, ctx: &mut VfsCtx, len: u64) -> Result<Vec<u8>> {
        let RingHeader(rpos, wpos, writers) = self.read_header(ctx)?;
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
            data: RingHeader(rpos + n, wpos, writers).encode().into(),
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
        let RingHeader(rpos, wpos, writers) = self.read_header(ctx)?;
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
            data: data[..first as usize].into(),
        }];
        if first < n {
            calls.push(Syscall::SegmentWrite {
                entry: self.entry,
                offset: self.data,
                data: data[first as usize..n as usize].into(),
            });
        }
        calls.push(Syscall::SegmentWrite {
            entry: self.entry,
            offset: self.header,
            data: RingHeader(rpos, wpos + n, writers).encode().into(),
        });
        let thread = ctx.thread;
        for r in ctx.kernel().submit_calls(thread, calls) {
            r?;
        }
        Ok(n)
    }

    /// Drops one writer (last close of a write end → EOF for readers).
    fn drop_writer(&self, ctx: &mut VfsCtx) -> Result<()> {
        let RingHeader(rpos, wpos, writers) = self.read_header(ctx)?;
        let thread = ctx.thread;
        ctx.kernel().trap_segment_write(
            thread,
            self.entry,
            self.header,
            &RingHeader(rpos, wpos, writers.saturating_sub(1)).encode(),
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
    fn read(
        &mut self,
        ctx: &mut VfsCtx,
        fd: &FdRef,
        state: &mut FdState,
        len: u64,
    ) -> Result<Vec<u8>> {
        if state.kind.is_pipe_write() {
            return Err(UnixError::Unsupported("read from pipe write end"));
        }
        PipeVnode::ring(fd, state).read(ctx, len)
    }

    fn write(
        &mut self,
        ctx: &mut VfsCtx,
        fd: &FdRef,
        state: &mut FdState,
        data: &[u8],
    ) -> Result<u64> {
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
            PipeVnode::ring(fd, state).drop_writer(ctx)?;
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
            data: RingHeader(0, 0, 1).encode().into(),
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
        _state: &mut FdState,
        _len: u64,
    ) -> Result<Vec<u8>> {
        Ok(Vec::new())
    }

    fn write(
        &mut self,
        ctx: &mut VfsCtx,
        _fd: &FdRef,
        _state: &mut FdState,
        data: &[u8],
    ) -> Result<u64> {
        let thread = ctx.thread;
        let entry = ContainerEntry::new(ctx.kernel().root_container(), ctx.console);
        ctx.kernel()
            .trap_net_transmit(thread, entry, data.to_vec())?;
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
        state: &mut FdState,
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
        state: &mut FdState,
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
            socket_tx_ring(state).drop_writer(ctx)?;
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
/// side is ready when the ring has free space.  A corrupt header is
/// [`UnixError::Corrupt`].
pub fn readiness_from_header(header: &[u8], capacity: u64, write_side: bool) -> Result<bool> {
    let RingHeader(rpos, wpos, writers) = RingHeader::read(header, capacity)?;
    Ok(if write_side {
        capacity - (wpos - rpos) > 0
    } else {
        wpos > rpos || writers == 0
    })
}

/// Initializes a fresh connection segment's two ring headers (one writer
/// each — the two peers).  The segment itself is created by the caller
/// (netd), which chooses its label and container; created with `len = 0`,
/// only these 48 header bytes materialize until data actually flows.
pub fn init_socket_segment(ctx: &mut VfsCtx, entry: ContainerEntry) -> Result<()> {
    let thread = ctx.thread;
    let headers = [RingHeader(0, 0, 1).encode(), RingHeader(0, 0, 1).encode()].concat();
    ctx.kernel()
        .trap_segment_write(thread, entry, 0, &headers)?;
    Ok(())
}
