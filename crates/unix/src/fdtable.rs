//! File descriptors as segments (§5.3).
//!
//! All of the state normally kept inside a Unix kernel for an open file —
//! the current seek position, the open flags, the identity of the underlying
//! object — lives in a *file descriptor segment*.  Sharing a descriptor
//! across processes (e.g. across `fork`) just means mapping the same
//! descriptor segment; the descriptor is deallocated when every process has
//! closed it, because every process holding it open hard-links it into its
//! own process container (double-charged, its quota fixed) and drops that
//! link with its last descriptor number for it.

use histar_kernel::object::ObjectId;
use histar_store::codec::{Decoder, Encoder};

/// A file descriptor number.
pub type Fd = u32;

/// What an open descriptor refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FdKind {
    /// A regular file backed by a segment.
    File,
    /// The read end of a pipe.
    PipeRead,
    /// The write end of a pipe.
    PipeWrite,
    /// A console/TTY device.
    Console,
    /// A network socket serviced by netd through a gate.
    Socket,
    /// A `/dev` pseudo-device (null, zero, urandom); `target` holds the
    /// device filesystem's node ID.
    Dev,
    /// A `/proc` pseudo-file; `target` holds the proc filesystem's node
    /// ID and `target_container` the process's internal container (the
    /// object the label check runs against on every access).
    Proc,
    /// A file on the store-backed persistent filesystem; `target` holds
    /// the inode number and `target_container` the directory inode it was
    /// opened through.  The backing records live in the single-level
    /// store's persist namespace, not in the kernel object heap.
    Persist,
    /// A `/metrics` pseudo-file; `target` holds the metrics filesystem's
    /// node ID and `target_container` the container whose label gates the
    /// entry (re-checked on every read).
    Metrics,
}

impl FdKind {
    fn tag(self) -> u8 {
        match self {
            FdKind::File => 0,
            FdKind::PipeRead => 1,
            FdKind::PipeWrite => 2,
            FdKind::Console => 3,
            FdKind::Socket => 4,
            FdKind::Dev => 5,
            FdKind::Proc => 6,
            FdKind::Persist => 7,
            FdKind::Metrics => 8,
        }
    }

    fn from_tag(tag: u8) -> Option<FdKind> {
        Some(match tag {
            0 => FdKind::File,
            1 => FdKind::PipeRead,
            2 => FdKind::PipeWrite,
            3 => FdKind::Console,
            4 => FdKind::Socket,
            5 => FdKind::Dev,
            6 => FdKind::Proc,
            7 => FdKind::Persist,
            8 => FdKind::Metrics,
            _ => return None,
        })
    }

    /// True for the write end of a pipe.
    pub fn is_pipe_write(self) -> bool {
        self == FdKind::PipeWrite
    }
}

/// The contents of one file-descriptor segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FdState {
    /// What the descriptor refers to.
    pub kind: FdKind,
    /// Object ID of the underlying object (file segment, pipe segment,
    /// device, or socket state segment).
    pub target: ObjectId,
    /// Container in which the target is linked (so the entry can be named;
    /// see [`FLAG_TARGET_BESIDE`] for the one exception).
    pub target_container: ObjectId,
    /// Current seek position (files only).
    pub position: u64,
    /// Open flags (append, nonblock, ...), as a bitmask.
    pub flags: u32,
    /// Reference count: how many descriptor numbers, in every process
    /// together, name this descriptor.  It says when a close is the *last*
    /// close (a pipe end hanging up); storage is not its business — each
    /// process's hard link to the segment keeps that.
    pub refs: u32,
}

/// Encoded size of [`FdState`] in its segment: the layout is fixed
/// (`u8` kind, `u64` target, `u64` container, `u64` position, `u32`
/// flags, `u32` refs) so hot paths can read it in one call and patch
/// single fields in place.
pub const FD_STATE_LEN: u64 = 1 + 8 + 8 + 8 + 4 + 4;
/// Byte offset of the seek position inside the encoded [`FdState`] — the
/// 8 bytes the vnode hot paths overwrite in the same submission batch as
/// their data operation.
pub const FD_POSITION_OFFSET: u64 = 1 + 8 + 8;

/// Flag bit: writes always append.
pub const FLAG_APPEND: u32 = 1 << 0;
/// Flag bit: reads/writes never block (pipes report would-block instead).
pub const FLAG_NONBLOCK: u32 = 1 << 1;
/// Flag bit: descriptor was opened read-only.
pub const FLAG_RDONLY: u32 = 1 << 2;
/// Flag bit: descriptor was opened write-only.
pub const FLAG_WRONLY: u32 = 1 << 3;
/// Flag bit (sockets): this descriptor is the *server* side of a
/// connection — it reads ring 0 (client→server) and writes ring 1.
/// Absent, the descriptor is the client side and the rings swap roles.
pub const FLAG_SOCK_SERVER: u32 = 1 << 4;
/// Flag bit (sockets): a listening socket; `target` is the accept-queue
/// segment netd enqueues new connections into, not a connection.
pub const FLAG_SOCK_LISTEN: u32 = 1 << 5;
/// Flag bit (`pipe()` ends): the target is linked beside the descriptor
/// segment — every process holding the descriptor hard-links the pipe
/// buffer into its own process container too, once per end, and names it
/// there — so `target_container` is unused and the buffer, like the
/// descriptor, outlives whichever process created it.
pub const FLAG_TARGET_BESIDE: u32 = 1 << 6;

impl FdState {
    /// Serializes the descriptor state into the bytes stored in its segment.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(self.kind.tag())
            .put_u64(self.target.raw())
            .put_u64(self.target_container.raw())
            .put_u64(self.position)
            .put_u32(self.flags)
            .put_u32(self.refs);
        e.finish()
    }

    /// Decodes descriptor state previously produced by [`FdState::encode`].
    pub fn decode(bytes: &[u8]) -> Option<FdState> {
        let mut d = Decoder::new(bytes);
        let kind = FdKind::from_tag(d.get_u8().ok()?)?;
        let target = ObjectId::from_raw(d.get_u64().ok()?);
        let target_container = ObjectId::from_raw(d.get_u64().ok()?);
        let position = d.get_u64().ok()?;
        let flags = d.get_u32().ok()?;
        let refs = d.get_u32().ok()?;
        Some(FdState {
            kind,
            target,
            target_container,
            position,
            flags,
            refs,
        })
    }
}

/// The per-process descriptor table: a mapping from descriptor numbers to
/// descriptor-segment object IDs.  In real HiStar each number corresponds to
/// a fixed virtual address at which the segment is mapped; here we keep the
/// table explicit but it is still *shared state in segments*, not kernel
/// state.
#[derive(Clone, Debug, Default)]
pub struct FdTable {
    entries: Vec<Option<ObjectId>>,
}

impl FdTable {
    /// Creates an empty table.
    pub fn new() -> FdTable {
        FdTable::default()
    }

    /// Allocates the lowest free descriptor number for a descriptor segment.
    pub fn allocate(&mut self, segment: ObjectId) -> Fd {
        for (i, slot) in self.entries.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(segment);
                return i as Fd;
            }
        }
        self.entries.push(Some(segment));
        (self.entries.len() - 1) as Fd
    }

    /// Installs a descriptor at a specific number (for `dup2`-style use),
    /// returning the previous occupant.
    pub fn install(&mut self, fd: Fd, segment: ObjectId) -> Option<ObjectId> {
        let idx = fd as usize;
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, None);
        }
        self.entries[idx].replace(segment)
    }

    /// Looks up the descriptor segment for a number.
    pub fn get(&self, fd: Fd) -> Option<ObjectId> {
        self.entries.get(fd as usize).copied().flatten()
    }

    /// True if some open descriptor number names `segment`.
    pub fn names(&self, segment: ObjectId) -> bool {
        self.entries.contains(&Some(segment))
    }

    /// Removes a descriptor, returning its segment.
    pub fn remove(&mut self, fd: Fd) -> Option<ObjectId> {
        self.entries
            .get_mut(fd as usize)
            .and_then(|slot| slot.take())
    }

    /// All open descriptor numbers with their segments.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, ObjectId)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|seg| (i as Fd, seg)))
    }

    /// Number of open descriptors.
    pub fn open_count(&self) -> usize {
        self.entries.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    #[test]
    fn fd_state_layout_is_fixed() {
        let s = FdState {
            kind: FdKind::File,
            target: oid(0x1111),
            target_container: oid(0x2222),
            position: 0xdead_beef,
            flags: FLAG_APPEND,
            refs: 2,
        };
        let bytes = s.encode();
        assert_eq!(bytes.len() as u64, FD_STATE_LEN);
        let pos = u64::from_le_bytes(
            bytes[FD_POSITION_OFFSET as usize..FD_POSITION_OFFSET as usize + 8]
                .try_into()
                .unwrap(),
        );
        assert_eq!(pos, 0xdead_beef, "position sits at FD_POSITION_OFFSET");
        // Patching just the position field round-trips through decode.
        let mut patched = bytes.clone();
        patched[FD_POSITION_OFFSET as usize..FD_POSITION_OFFSET as usize + 8]
            .copy_from_slice(&7u64.to_le_bytes());
        assert_eq!(FdState::decode(&patched).unwrap().position, 7);
    }

    #[test]
    fn fd_state_round_trip() {
        let s = FdState {
            kind: FdKind::PipeWrite,
            target: oid(55),
            target_container: oid(66),
            position: 1234,
            flags: FLAG_APPEND | FLAG_NONBLOCK,
            refs: 3,
        };
        assert_eq!(FdState::decode(&s.encode()), Some(s));
        assert_eq!(FdState::decode(&[1, 2, 3]), None);
    }

    #[test]
    fn all_kinds_round_trip() {
        for kind in [
            FdKind::File,
            FdKind::PipeRead,
            FdKind::PipeWrite,
            FdKind::Console,
            FdKind::Socket,
            FdKind::Dev,
            FdKind::Proc,
            FdKind::Persist,
        ] {
            let s = FdState {
                kind,
                target: oid(1),
                target_container: oid(2),
                position: 0,
                flags: 0,
                refs: 1,
            };
            assert_eq!(FdState::decode(&s.encode()).unwrap().kind, kind);
        }
    }

    #[test]
    fn table_allocates_lowest_free() {
        let mut t = FdTable::new();
        assert_eq!(t.allocate(oid(10)), 0);
        assert_eq!(t.allocate(oid(11)), 1);
        assert_eq!(t.allocate(oid(12)), 2);
        assert_eq!(t.remove(1), Some(oid(11)));
        assert_eq!(t.allocate(oid(13)), 1, "freed slot is reused first");
        assert_eq!(t.get(1), Some(oid(13)));
        assert_eq!(t.get(9), None);
        assert_eq!(t.open_count(), 3);
    }

    #[test]
    fn install_at_specific_number() {
        let mut t = FdTable::new();
        assert_eq!(t.install(5, oid(42)), None);
        assert_eq!(t.get(5), Some(oid(42)));
        assert_eq!(t.install(5, oid(43)), Some(oid(42)));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(5, oid(43))]);
    }
}
