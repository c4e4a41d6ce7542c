//! The accept queue: how `netd` hands freshly created connections to a
//! listening server.
//!
//! A listening socket's descriptor points at a *queue segment* — a single
//! byte ring (same header format as a pipe) of fixed-size records, each
//! naming one connection segment plus the two per-connection categories
//! minted for it (the receive-taint category and the write-protect
//! category, the paper's §6.1 `ssl_r`/`ssl_w` pattern).  `netd` enqueues
//! on connect; the server's `accept` dequeues, asks netd to grant it the
//! two categories, and installs a server-side socket descriptor.
//!
//! Because the queue is an ordinary labeled segment, the blocking story
//! is the pipe story: an empty queue is `WouldBlock`, a parked acceptor
//! registers a readiness watch on the queue segment, and netd's enqueue
//! write wakes it through the kernel's watcher list — `accept(2)` without
//! a polling loop.

use crate::env::UnixError;
use crate::vnode::{Ring, RingHeader, VfsCtx, PIPE_HEADER};
use histar_kernel::object::{ContainerEntry, ObjectId};
use histar_store::codec::{DecodeError, Decoder, Encoder, Wire};

type Result<T> = core::result::Result<T, UnixError>;

/// Encoded size of one queue record.
pub const QUEUE_ENTRY_LEN: u64 = 40;
/// Data capacity of the accept queue ring: a multiple of the record size
/// (so records never split across the wrap *logically*; the ring handles
/// byte wrap-around regardless), sized for a 10⁴-connection burst.
pub const QUEUE_CAPACITY: u64 = QUEUE_ENTRY_LEN * 16384;
/// Total queue segment length (header + data).
pub const QUEUE_SEGMENT_LEN: u64 = PIPE_HEADER + QUEUE_CAPACITY;

/// One pending connection, as handed from netd to an acceptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnHandoff {
    /// Container the connection segment is linked in.
    pub container: ObjectId,
    /// The connection segment (two rings, one per direction).
    pub segment: ObjectId,
    /// Raw name of the connection's receive-taint category (level 3 in
    /// the segment label: only holders may observe the connection).
    pub taint_cat: u64,
    /// Raw name of the connection's write-protect category (level 0 in
    /// the segment label: only owners may write the connection).
    pub write_cat: u64,
    /// The single-use grant gate netd pre-created for the acceptor (so
    /// netd itself can shed the two categories at connect time).  Its
    /// clearance pins the listener's guard category to `0`: only the
    /// legitimate acceptor can enter it.
    pub grant_gate: ObjectId,
}

/// A queue record: the five fields as `u64`s, [`QUEUE_ENTRY_LEN`] bytes.
/// The acceptor may write its own queue, so a name past 61 bits is
/// [`DecodeError::BadValue`].
impl Wire<'_> for ConnHandoff {
    const SIZE: usize = QUEUE_ENTRY_LEN as usize;

    fn put(&self, e: &mut Encoder) {
        e.put_u64(self.container.raw())
            .put_u64(self.segment.raw())
            .put_u64(self.taint_cat)
            .put_u64(self.write_cat)
            .put_u64(self.grant_gate.raw());
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> core::result::Result<ConnHandoff, DecodeError> {
        Ok(ConnHandoff {
            container: ObjectId::get(d, ())?,
            segment: ObjectId::get(d, ())?,
            taint_cat: ObjectId::get(d, ())?.raw(),
            write_cat: ObjectId::get(d, ())?.raw(),
            grant_gate: ObjectId::get(d, ())?,
        })
    }
}

/// Initializes a fresh queue segment's ring header.  The writer count is
/// pinned to 1 (netd never hangs up its own queue), so an empty queue is
/// always `WouldBlock` — never EOF.
pub fn init_queue_segment(ctx: &mut VfsCtx, queue: ContainerEntry) -> Result<()> {
    let thread = ctx.thread;
    ctx.kernel()
        .trap_segment_write(thread, queue, 0, &RingHeader(0, 0, 1).encode())?;
    Ok(())
}

/// The queue segment's ring.
pub fn queue_ring(entry: ContainerEntry) -> Ring {
    Ring {
        entry,
        header: 0,
        data: PIPE_HEADER,
        capacity: QUEUE_CAPACITY,
    }
}

/// Enqueues one pending connection (netd side).  All-or-nothing: a queue
/// without room for a whole record reports [`UnixError::WouldBlock`].
pub fn enqueue(ctx: &mut VfsCtx, queue: ContainerEntry, conn: &ConnHandoff) -> Result<()> {
    let ring = queue_ring(queue);
    let RingHeader(rpos, wpos, _) = ring.read_header(ctx)?;
    if QUEUE_CAPACITY - (wpos - rpos) < QUEUE_ENTRY_LEN {
        return Err(UnixError::WouldBlock);
    }
    let n = ring.write(ctx, &conn.encode())?;
    debug_assert_eq!(n, QUEUE_ENTRY_LEN, "free space was checked above");
    Ok(())
}

/// Dequeues the oldest pending connection (acceptor side).  An empty
/// queue reports [`UnixError::WouldBlock`] — the caller registers a
/// watch on the queue segment and parks.
pub fn dequeue(ctx: &mut VfsCtx, queue: ContainerEntry) -> Result<ConnHandoff> {
    let bytes = queue_ring(queue).read(ctx, QUEUE_ENTRY_LEN)?;
    ConnHandoff::decode(&bytes).map_err(|_| UnixError::Corrupt("accept-queue record"))
}
