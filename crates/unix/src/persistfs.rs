//! PersistFs: the store-backed persistent filesystem mounted at
//! `/persist`.
//!
//! HiStar's single-level store makes *kernel* state persistent by
//! checkpointing the object hierarchy; everything else survives only as a
//! side effect of whole-machine snapshots.  PersistFs gives files the
//! paper's durability story directly: its inodes, directory entries and
//! file extents are keyed records in the store's object map (under the
//! [`histar_store::records`] namespace bit), bypassing the in-kernel object
//! heap for cold data.  `fsync` resolves a file to its record keys
//! ([`Filesystem::sync_targets`]) and the environment issues one
//! modify-checked `persist_sync` for the group; the store group-commits
//! every sync in the same syscall batch into a single multi-record WAL
//! frame, acked only after the shared append lands (§5's group sync).
//! Recovery replays the log back into a mountable tree, so a crash
//! between writes loses at most unsynced data — and never labels, because
//! **each record carries its label** and the kernel re-checks it on every
//! `lookup`/`read`/`write`, exactly as it checks a segment's label for
//! [`SegFs`](crate::segfs::SegFs).  A record's label comes back with its
//! bytes from the checked `persist_read`, which is how this library learns
//! the label to give a new inode or extent.
//!
//! Record layout (three kinds, all in the persist key namespace, whose
//! keys the snapshot engine neither decodes as kernel objects nor sweeps
//! as stale; nothing walks a key range).  The layout is this module's
//! alone: the store knows only the namespace bit.
//!
//! ```text
//! 63   62..61  60..56   55..24        23..0
//! [1]  [0 0]   [kind]   [owner ino]   [extent index]
//! ```
//!
//! An extent index has 24 bits, so a file ends at 2²⁴ extents (64 GiB):
//! a write past that is refused before any call.
//!
//! * **meta** (`META_KEY`): magic, next inode number.  Label: the root
//!   directory's label.
//! * **inode** (`inode_key(ino)`): `is_dir`, byte length.  A directory's
//!   inode record goes on with its entries as a [`DirImage`] — the
//!   directory-segment format SegFs uses — so a directory is one record,
//!   as in the paper a directory is one object (§5.1).  Label: the file or
//!   directory's label — the one every access is checked against, so
//!   listing a directory is exactly as restricted as observing it.
//! * **extent** (`extent_key(ino, index)`): one [`EXTENT_SIZE`]-byte
//!   chunk of file data.  Label: the file's label.  A record holds only
//!   the bytes written into it, so a write that starts past the extent
//!   holding the end of file zero-pads that extent in the same batch:
//!   inside a file's length an extent is whole, or the file's last, or
//!   missing (a hole, read as zeros).  A read inside a length just
//!   fetched also reads a short extent's missing tail as zeros: a sync
//!   of later pages logs the grown inode without the padded extent, so
//!   after a crash the durable extent may still end where it did.
//!
//! Durability: creating a file or directory syncs its inode and the
//! superblock at once, so a directory record that a later sync logs never
//! names a missing inode.  `fsync` logs the directory record, the inode
//! and the extents; unlink and rename are durable at once.  A file written
//! but never synced, that no later directory sync names, is absent after a
//! crash.
//!
//! The hot path: [`PersistVnode`] issues its extent reads/writes and the
//! descriptor seek-update as ONE submission batch — persist records ride
//! the same batched ABI as every other syscall, so a steady-state
//! `read(2)` on `/persist` costs a single boundary crossing.  Its reads
//! run the read loop it shares with SegFs ([`read_cached`]); an extent
//! missing inside a cached length is a stale length until a fresh one
//! says it is a hole.

use crate::env::UnixError;
use crate::fdtable::{FdKind, FdState, FLAG_APPEND};
use crate::fs::{DirEntry, DirImage, FileStat, OpenFlags};
use crate::vfs::{Filesystem, FsNode, SyncTarget};
use crate::vnode::{read_cached, undo_seek, CachedLength, FdRef, VfsCtx, Vnode};
use histar_kernel::dispatch::{Syscall, SyscallResult};
use histar_kernel::object::ObjectId;
use histar_kernel::syscall::SyscallError;
use histar_label::Label;
use histar_store::codec::{DecodeError, Decoder, Encoder, Wire};
use histar_store::PERSIST_KEY_BASE;

type Result<T> = core::result::Result<T, UnixError>;

/// Bytes per file extent record (matches the page size, so the benchmark
/// 4 KiB I/O is a single-record operation).
pub const EXTENT_SIZE: u64 = 4096;

/// The root directory's inode number.
pub const ROOT_INO: u32 = 1;

/// Magic identifying a formatted PersistFs superblock ("PRSTFS1\0").
const PERSIST_MAGIC: u64 = 0x5052_5354_4653_3100;

/// Bytes of the header every inode record starts with; a directory's
/// [`DirImage`] follows it.
const INODE_LEN: usize = 9;

// ----------------------------------------------------- record keys ------

/// Bits of a key's payload identifying the extent within its owner.
const SLOT_BITS: u32 = 24;

/// Maximum extent index representable in a record key.
const MAX_SLOT: u64 = (1 << SLOT_BITS) - 1;

/// The longest file: every extent index used.
const MAX_FILE_LEN: u64 = (MAX_SLOT + 1) * EXTENT_SIZE;

/// The kinds of records, in bits 56..61 of the key.
enum RecordKind {
    /// One inode: type, length and (in the kernel framing) its label; a
    /// directory's entries follow.
    Inode = 1,
    /// One fixed-size extent of file data, keyed under its file's inode.
    /// (Kind 2 is unused, so extent keys keep their place.)
    Extent = 3,
}

/// The filesystem superblock record (kind 0, payload 0).
pub const META_KEY: u64 = PERSIST_KEY_BASE;

fn record_key(kind: RecordKind, ino: u32, index: u64) -> u64 {
    PERSIST_KEY_BASE | ((kind as u64) << 56) | ((ino as u64) << SLOT_BITS) | index
}

/// The key of inode `ino`.
pub fn inode_key(ino: u32) -> u64 {
    record_key(RecordKind::Inode, ino, 0)
}

/// The key of extent `index` (at most [`MAX_SLOT`]) of file inode `ino`.
pub fn extent_key(ino: u32, index: u64) -> u64 {
    debug_assert!(index <= MAX_SLOT, "extent index exceeds 24 bits");
    record_key(RecordKind::Extent, ino, index)
}

// -------------------------------------------------- record codecs ------

/// An inode record's header: a directory byte (0 or 1) and the byte
/// length, which a file keeps within [`MAX_FILE_LEN`] (a directory keeps
/// 0).  A directory's [`DirImage`] follows it in the record, so the record
/// is read with `get`, not `decode`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Inode {
    /// Whether the inode is a directory.
    pub is_dir: bool,
    /// Byte length (files; directories keep 0).
    pub len: u64,
}

impl Wire<'_> for Inode {
    fn put(&self, e: &mut Encoder) {
        e.put_u8(u8::from(self.is_dir)).put_u64(self.len);
    }

    /// A length past [`MAX_FILE_LEN`] has no extent keys, so it is
    /// [`DecodeError::BadValue`], as is any other directory byte.
    fn get(d: &mut Decoder<'_>, (): ()) -> core::result::Result<Inode, DecodeError> {
        let (is_dir, len) = (bool::get(d, ())?, d.get_u64()?);
        (len <= MAX_FILE_LEN)
            .then_some(Inode { is_dir, len })
            .ok_or(DecodeError::BadValue)
    }
}

/// The entries of a directory whose inode record is `record`.
fn dir_image(record: &[u8]) -> Result<DirImage<'_>> {
    let mut d = Decoder::new(record);
    let image = Inode::get(&mut d, ()).and_then(|_| DirImage::get(&mut d, ()));
    image.map_err(|_| UnixError::Corrupt("directory segment"))
}

/// The inode number a directory entry names.
fn entry_ino(object: ObjectId) -> Result<u32> {
    u32::try_from(object.raw()).map_err(|_| UnixError::Corrupt("persist directory entry"))
}

/// The superblock record: the magic, then the next inode number
/// [`PersistFs`] allocates, as a `u64` that must fit a `u32`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Meta(pub u32);

impl Wire<'_> for Meta {
    fn put(&self, e: &mut Encoder) {
        e.put_u64(PERSIST_MAGIC).put_u64(self.0.into());
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> core::result::Result<Meta, DecodeError> {
        match (d.get_u64()?, u32::try_from(d.get_u64()?)) {
            (PERSIST_MAGIC, Ok(next)) => Ok(Meta(next)),
            _ => Err(DecodeError::BadValue),
        }
    }
}

// ------------------------------------------------------ the filesystem --

/// The store-backed persistent filesystem.  Node IDs are inode numbers.
#[derive(Debug)]
pub struct PersistFs {
    /// Vnodes opened through this filesystem share one label cache slot
    /// per open; nothing else is cached — all state is in the store.
    _private: (),
}

impl PersistFs {
    /// Reattaches an already-formatted filesystem from the store, or
    /// formats a fresh one (meta + root inode, both synced so the empty
    /// tree itself survives a crash once the store has a checkpoint).
    pub fn mount_or_format(ctx: &mut VfsCtx, root_label: Label) -> Result<PersistFs> {
        let thread = ctx.thread;
        match ctx
            .kernel()
            .trap_persist_read(thread, META_KEY, 0, u64::MAX)
        {
            Ok((_, bytes)) => {
                Meta::decode(&bytes).map_err(|_| UnixError::Corrupt("persistfs superblock"))?;
                Ok(PersistFs { _private: () })
            }
            Err(SyscallError::NoSuchRecord(_)) => {
                let kernel = ctx.kernel();
                kernel.trap_persist_put(
                    thread,
                    META_KEY,
                    Some(root_label.clone()),
                    0,
                    &Meta(ROOT_INO + 1).encode(),
                )?;
                let root = Inode {
                    is_dir: true,
                    len: 0,
                };
                kernel.trap_persist_put(
                    thread,
                    inode_key(ROOT_INO),
                    Some(root_label),
                    0,
                    &root.encode(),
                )?;
                kernel.trap_persist_sync(thread, vec![META_KEY, inode_key(ROOT_INO)])?;
                Ok(PersistFs { _private: () })
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Inode `ino`'s label, header and whole record's bytes: one checked
    /// read.
    fn read_record(ctx: &mut VfsCtx, ino: u32) -> Result<(Label, Inode, Vec<u8>)> {
        let thread = ctx.thread;
        let (label, bytes) = ctx
            .kernel()
            .trap_persist_read(thread, inode_key(ino), 0, u64::MAX)?;
        let inode = Inode::get(&mut Decoder::new(&bytes), ())
            .map_err(|_| UnixError::Corrupt("persist inode record"))?;
        Ok((label, inode, bytes))
    }

    fn read_inode(ctx: &mut VfsCtx, ino: u32) -> Result<(Label, Inode)> {
        let (label, inode, _) = Self::read_record(ctx, ino)?;
        Ok((label, inode))
    }

    fn write_inode(ctx: &mut VfsCtx, ino: u32, label: Option<Label>, inode: &Inode) -> Result<()> {
        let thread = ctx.thread;
        ctx.kernel()
            .trap_persist_put(thread, inode_key(ino), label, 0, &inode.encode())?;
        Ok(())
    }

    /// Directory `dir`'s label and record, failing if it is not a
    /// directory; its entries are [`dir_image`] of the record.  This is
    /// the observe check every directory operation starts with: a caller
    /// that may not observe the directory's label gets the kernel's
    /// refusal here, before any entry is revealed.
    fn read_dir(ctx: &mut VfsCtx, dir: u32) -> Result<(Label, Vec<u8>)> {
        let (label, inode, record) = Self::read_record(ctx, dir)?;
        if !inode.is_dir {
            return Err(UnixError::NotADirectory(format!("inode {dir}")));
        }
        Ok((label, record))
    }

    /// Replaces the entries of directory `dir`, whose record was `record`,
    /// with `image`.  A put cannot shrink a record, so a shorter image
    /// zero-fills the old tail, which [`DirImage`] ignores.
    fn write_dir(ctx: &mut VfsCtx, dir: u32, record: &[u8], mut image: Vec<u8>) -> Result<()> {
        image.resize(image.len().max(record.len() - INODE_LEN), 0);
        let thread = ctx.thread;
        ctx.kernel()
            .trap_persist_put(thread, inode_key(dir), None, INODE_LEN as u64, &image)?;
        Ok(())
    }

    /// Allocates a fresh inode number from the superblock record.
    ///
    /// Allocation is a modify of the (root-labeled) meta record, so a
    /// *tainted* thread cannot create files even in a directory labeled
    /// for its taint — the same §5.8 pre-arrangement SegFs demands when
    /// a tainted writer needs quota moved down from untainted ancestors
    /// (`UnixEnv::reserve_quota`).  A pre-reserved ino-range mechanism is
    /// the ROADMAP's answer if a workload needs tainted creators.
    fn alloc_ino(ctx: &mut VfsCtx) -> Result<u32> {
        let thread = ctx.thread;
        let (_, bytes) = ctx
            .kernel()
            .trap_persist_read(thread, META_KEY, 0, u64::MAX)?;
        let Meta(next) =
            Meta::decode(&bytes).map_err(|_| UnixError::Corrupt("persistfs superblock"))?;
        ctx.kernel()
            .trap_persist_put(thread, META_KEY, None, 0, &Meta(next + 1).encode())?;
        Ok(next)
    }

    /// Creates `name` in directory `dir`, whose record is `record`: a
    /// fresh inode labeled `label`, synced with the superblock before the
    /// directory names it, so no directory record a later sync logs names
    /// an inode a crash loses.
    fn create_node(
        ctx: &mut VfsCtx,
        dir: u32,
        record: &[u8],
        name: &str,
        is_dir: bool,
        label: Label,
    ) -> Result<u32> {
        let ino = Self::alloc_ino(ctx)?;
        Self::write_inode(ctx, ino, Some(label), &Inode { is_dir, len: 0 })?;
        let thread = ctx.thread;
        ctx.kernel()
            .trap_persist_sync(thread, vec![META_KEY, inode_key(ino)])?;
        let (image, _) = dir_image(record)?.insert(name, ObjectId::from_raw(ino as u64), is_dir)?;
        Self::write_dir(ctx, dir, record, image)?;
        Ok(ino)
    }

    /// The extent keys a file of length `len` can occupy (extents never
    /// outlive the inode length: truncate drops them, writes extend it).
    fn extent_keys(ino: u32, len: u64) -> Vec<u64> {
        (0..len.div_ceil(EXTENT_SIZE))
            .map(|i| extent_key(ino, i))
            .collect()
    }

    /// Deletes the records at `keys` in one batch.  Holes never
    /// materialized an extent record; everything else must delete cleanly.
    fn delete_records(ctx: &mut VfsCtx, keys: &[u64]) -> Result<()> {
        let thread = ctx.thread;
        let calls = keys.iter().map(|&key| Syscall::PersistDelete { key });
        for r in ctx.kernel().submit_calls(thread, calls.collect()) {
            match r {
                Ok(_) | Err(SyscallError::NoSuchRecord(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Makes a name change durable at once: deletes `doomed` — the inode
    /// and length of the node the change unnamed, if any — with its
    /// extents, and logs the tombstones with `dirs`, the edited directory
    /// records, in one sync.  A deletion that could silently resurrect
    /// after a crash would un-delete secrets.
    fn commit(ctx: &mut VfsCtx, mut dirs: Vec<u64>, doomed: Option<(u32, u64)>) -> Result<()> {
        if let Some((ino, len)) = doomed {
            let mut keys = vec![inode_key(ino)];
            keys.extend(Self::extent_keys(ino, len));
            Self::delete_records(ctx, &keys)?;
            dirs.extend(keys);
        }
        let thread = ctx.thread;
        ctx.kernel().trap_persist_sync(thread, dirs)?;
        Ok(())
    }
}

impl Filesystem for PersistFs {
    fn fs_name(&self) -> &'static str {
        "persistfs"
    }

    fn root_node(&self) -> u64 {
        ROOT_INO as u64
    }

    fn lookup(&mut self, ctx: &mut VfsCtx, dir: u64, name: &str) -> Result<FsNode> {
        let (_, record) = Self::read_dir(ctx, dir as u32)?;
        let (object, is_dir) = dir_image(&record)?
            .lookup(name)?
            .ok_or_else(|| UnixError::NotFound(name.to_string()))?;
        Ok(FsNode {
            node: entry_ino(object)?.into(),
            is_dir,
        })
    }

    fn readdir(&mut self, ctx: &mut VfsCtx, dir: u64) -> Result<Vec<DirEntry>> {
        dir_image(&Self::read_dir(ctx, dir as u32)?.1)?.listing()
    }

    fn stat(&mut self, ctx: &mut VfsCtx, _dir: u64, node: FsNode) -> Result<FileStat> {
        let (_, inode) = Self::read_inode(ctx, node.node as u32)?;
        Ok(FileStat {
            object: ObjectId::from_raw(node.node),
            is_dir: inode.is_dir,
            len: inode.len,
        })
    }

    fn mkdir(
        &mut self,
        ctx: &mut VfsCtx,
        dir: u64,
        name: &str,
        label: Option<Label>,
    ) -> Result<u64> {
        let dir = dir as u32;
        let (dir_label, record) = Self::read_dir(ctx, dir)?;
        if dir_image(&record)?.lookup(name)?.is_some() {
            return Err(UnixError::Exists(name.to_string()));
        }
        let label = label.unwrap_or(dir_label);
        Ok(Self::create_node(ctx, dir, &record, name, true, label)? as u64)
    }

    fn unlink(&mut self, ctx: &mut VfsCtx, dir: u64, name: &str) -> Result<()> {
        let dir = dir as u32;
        let (_, record) = Self::read_dir(ctx, dir)?;
        let (image, object) = dir_image(&record)?
            .remove(name)?
            .ok_or_else(|| UnixError::NotFound(name.to_string()))?;
        let ino = entry_ino(object)?;
        let (_, inode, node) = Self::read_record(ctx, ino)?;
        if inode.is_dir && dir_image(&node)?.entries().next().is_some() {
            return Err(UnixError::Unsupported(
                "unlink of a non-empty /persist directory",
            ));
        }
        Self::write_dir(ctx, dir, &record, image)?;
        Self::commit(ctx, vec![inode_key(dir)], Some((ino, inode.len)))
    }

    fn rename(
        &mut self,
        ctx: &mut VfsCtx,
        dir_from: u64,
        from: &str,
        dir_to: u64,
        to: &str,
    ) -> Result<()> {
        let (dir_from, dir_to) = (dir_from as u32, dir_to as u32);
        let missing = || UnixError::NotFound(from.to_string());
        let (_, source) = Self::read_dir(ctx, dir_from)?;
        let target = if dir_to == dir_from {
            None
        } else {
            Some(Self::read_dir(ctx, dir_to)?.1)
        };
        let image = dir_image(&source)?;
        // Each edited directory with its record and next image.  One sync
        // logs them all in one log frame, so a crash shows the whole
        // rename or none of it.
        let (edits, replaced) = match &target {
            // Renaming a name onto itself changes nothing (POSIX).
            None if from == to => return image.lookup(from)?.map(drop).ok_or_else(missing),
            None => {
                let (next, replaced) = image.rename(from, to)?.ok_or_else(missing)?;
                (vec![(dir_from, &source, next)], replaced)
            }
            Some(target) => {
                let (object, is_dir) = image.lookup(from)?.ok_or_else(missing)?;
                let (arrival, replaced) = dir_image(target)?.insert(to, object, is_dir)?;
                let (departure, _) = image.remove(from)?.ok_or_else(missing)?;
                let edits = vec![(dir_to, target, arrival), (dir_from, &source, departure)];
                (edits, replaced)
            }
        };
        // What the rename replaced is a file (the rename rule), deleted as
        // `unlink` deletes it; its length is read before any edit.
        let doomed = match replaced {
            Some(object) => {
                let ino = entry_ino(object)?;
                Some((ino, Self::read_inode(ctx, ino)?.1.len))
            }
            None => None,
        };
        let mut dirs = Vec::with_capacity(edits.len());
        for (dir, record, next) in edits {
            Self::write_dir(ctx, dir, record, next)?;
            dirs.push(inode_key(dir));
        }
        Self::commit(ctx, dirs, doomed)
    }

    fn open(
        &mut self,
        ctx: &mut VfsCtx,
        dir: u64,
        name: &str,
        flags: OpenFlags,
        label: Option<Label>,
    ) -> Result<(FdState, Box<dyn Vnode>)> {
        let dir = dir as u32;
        let (dir_label, record) = Self::read_dir(ctx, dir)?;
        let vnode = match dir_image(&record)?.lookup(name)? {
            Some((_, true)) => return Err(UnixError::IsADirectory(name.to_string())),
            Some((object, false)) if !flags.truncate => PersistVnode::new(entry_ino(object)?),
            Some((object, false)) => {
                // Drop the extents and reset the length.
                let ino = entry_ino(object)?;
                let (label, mut inode) = Self::read_inode(ctx, ino)?;
                Self::delete_records(ctx, &Self::extent_keys(ino, inode.len))?;
                inode.len = 0;
                Self::write_inode(ctx, ino, None, &inode)?;
                PersistVnode {
                    ino,
                    cached: Some((0, label)),
                }
            }
            None if !flags.create => return Err(UnixError::NotFound(name.to_string())),
            None => {
                let label = label.unwrap_or(dir_label);
                let ino = Self::create_node(ctx, dir, &record, name, false, label.clone())?;
                PersistVnode {
                    ino,
                    cached: Some((0, label)),
                }
            }
        };
        let state = FdState {
            kind: FdKind::Persist,
            target: ObjectId::from_raw(vnode.ino as u64),
            target_container: ObjectId::from_raw(dir as u64),
            position: 0,
            flags: flags.fd_flags(),
            refs: 1,
        };
        Ok((state, Box::new(vnode)))
    }

    fn sync_targets(&mut self, ctx: &mut VfsCtx, dir: u64, name: &str) -> Result<Vec<SyncTarget>> {
        let dir = dir as u32;
        let (_, record) = Self::read_dir(ctx, dir)?;
        let (object, is_dir) = dir_image(&record)?
            .lookup(name)?
            .ok_or_else(|| UnixError::NotFound(name.to_string()))?;
        let ino = entry_ino(object)?;
        let len = if is_dir {
            0
        } else {
            Self::read_inode(ctx, ino)?.1.len
        };
        let mut keys = vec![inode_key(dir), inode_key(ino)];
        keys.extend(Self::extent_keys(ino, len));
        Ok(keys.into_iter().map(SyncTarget::Record).collect())
    }
}

// ------------------------------------------------------- the hot path --

/// A file vnode backed by extent records in the single-level store: the
/// steady-state `/persist` read/write path.
#[derive(Debug)]
pub struct PersistVnode {
    ino: u32,
    /// Cached file length (see [`read_cached`]), and the file's
    /// (immutable) label, which new extents take; the inode read returns
    /// both.
    cached: Option<(u64, Label)>,
}

impl PersistVnode {
    /// A vnode for inode `ino`.
    pub fn new(ino: u32) -> PersistVnode {
        PersistVnode { ino, cached: None }
    }

    /// The file's length and label, cached or fetched.
    fn inode(&mut self, ctx: &mut VfsCtx) -> Result<(u64, Label)> {
        match &self.cached {
            Some(known) => Ok(known.clone()),
            None => self.fetch(ctx),
        }
    }

    /// Fetches the inode fresh — a label-checked kernel call, so the
    /// first access through any descriptor re-verifies the caller may
    /// observe the file, including after a crash and recovery.
    fn fetch(&mut self, ctx: &mut VfsCtx) -> Result<(u64, Label)> {
        let (label, inode) = PersistFs::read_inode(ctx, self.ino)?;
        self.cached = Some((inode.len, label.clone()));
        Ok((inode.len, label))
    }

    /// The extent-aligned `(key, offset-within-extent, chunk-length)`
    /// triples covering `[pos, end)`.
    fn extent_chunks(&self, pos: u64, end: u64) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        let mut off = pos;
        while off < end {
            let index = off / EXTENT_SIZE;
            let within = off % EXTENT_SIZE;
            let chunk = (EXTENT_SIZE - within).min(end - off);
            out.push((extent_key(self.ino, index), within, chunk));
            off += chunk;
        }
        out
    }
}

impl CachedLength for PersistVnode {
    fn cached_len(&self) -> Option<u64> {
        self.cached.as_ref().map(|(len, _)| *len)
    }

    fn fetch_len(&mut self, ctx: &mut VfsCtx) -> Result<u64> {
        Ok(self.fetch(ctx)?.0)
    }

    fn forget_len(&mut self) {
        self.cached = None;
    }

    fn read_calls<'a>(&self, start: u64, n: u64, then: Syscall<'a>) -> Vec<Syscall<'a>> {
        let reads = self.extent_chunks(start, start + n).into_iter();
        reads
            .map(|(key, offset, len)| Syscall::PersistRead { key, offset, len })
            .chain([then])
            .collect()
    }

    fn read_bytes(
        &self,
        done: Vec<core::result::Result<SyscallResult, SyscallError>>,
        start: u64,
        n: u64,
        fresh: bool,
    ) -> core::result::Result<Option<Vec<u8>>, SyscallError> {
        let mut out = Vec::with_capacity(n as usize);
        for (r, (_, _, chunk)) in done.into_iter().zip(self.extent_chunks(start, start + n)) {
            match r {
                // Inside a fresh length, a short extent's missing tail is
                // zeros (see the module doc); inside a cached length, a
                // short or missing extent may be a truncation elsewhere.
                Ok(SyscallResult::Record((_, bytes))) if bytes.len() as u64 == chunk || fresh => {
                    let want = out.len() + chunk as usize;
                    out.extend(bytes);
                    out.resize(want, 0);
                }
                Ok(SyscallResult::Record(_)) => return Ok(None),
                Ok(other) => unreachable!("persist_read completed with {other:?}"),
                // A missing extent inside a fresh length is a hole (a
                // never-written extent of a sparse file): zeros.
                Err(SyscallError::NoSuchRecord(_)) if fresh => {
                    out.resize(out.len() + chunk as usize, 0);
                }
                Err(SyscallError::NoSuchRecord(_)) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        Ok(Some(out))
    }
}

impl Vnode for PersistVnode {
    fn read(
        &mut self,
        ctx: &mut VfsCtx,
        fd: &FdRef,
        state: &mut FdState,
        len: u64,
    ) -> Result<Vec<u8>> {
        read_cached(self, ctx, fd, state, len)
    }

    fn write(
        &mut self,
        ctx: &mut VfsCtx,
        fd: &FdRef,
        state: &mut FdState,
        data: &[u8],
    ) -> Result<u64> {
        let pos = if state.flags & FLAG_APPEND != 0 {
            self.fetch(ctx)?.0
        } else {
            state.position
        };
        let end = crate::vnode::access_end(pos, data.len() as u64)?;
        if end > MAX_FILE_LEN {
            return Err(UnixError::Unsupported("a /persist file ends at 64 GiB"));
        }
        let (mut file_len, mut label) = self.inode(ctx)?;
        if end > file_len {
            // The cached length may be stale: another descriptor's vnode
            // can have grown the file since it was cached, and writing
            // the inode from a stale length would *shrink* the
            // authoritative file.  Revalidate before deciding to grow.
            (file_len, label) = self.fetch(ctx)?;
        }
        // Extent puts, the inode length update (when the file grows) and
        // the descriptor seek-update cross the boundary as ONE batch.
        let chunks = self.extent_chunks(pos, end);
        let mut calls: Vec<Syscall> = Vec::with_capacity(chunks.len() + 2);
        let mut consumed = 0usize;
        for &(key, offset, chunk) in &chunks {
            calls.push(Syscall::PersistPut {
                key,
                label: Some(label.clone()),
                offset,
                data: data[consumed..consumed + chunk as usize].into(),
            });
            consumed += chunk as usize;
        }
        let grows = end > file_len;
        // A write that starts past the extent holding the old end of file
        // zero-pads that extent, so a read inside the new length finds
        // zeros there, not the record's end (see the module doc).
        let old_tail = file_len % EXTENT_SIZE;
        if old_tail != 0 && pos / EXTENT_SIZE > file_len / EXTENT_SIZE {
            calls.push(Syscall::PersistPut {
                key: extent_key(self.ino, file_len / EXTENT_SIZE),
                label: Some(label.clone()),
                offset: old_tail,
                data: vec![0; (EXTENT_SIZE - old_tail) as usize].into(),
            });
        }
        if grows {
            calls.push(Syscall::PersistPut {
                key: inode_key(self.ino),
                label: None,
                offset: 0,
                data: Inode {
                    is_dir: false,
                    len: end,
                }
                .encode()
                .into(),
            });
        }
        let position = end.to_le_bytes();
        calls.push(fd.position_update(&position));
        let thread = ctx.thread;
        let results = ctx.kernel().submit_calls(thread, calls);
        for r in &results {
            if let Err(e) = r {
                // Batches have no rollback; a denied write must restore
                // the shared position before reporting.
                undo_seek(ctx, fd, state.position);
                return Err(e.clone().into());
            }
        }
        state.position = end;
        if grows {
            self.cached = Some((end, label));
        }
        Ok(data.len() as u64)
    }

    fn stat(&mut self, ctx: &mut VfsCtx, state: &FdState) -> Result<FileStat> {
        let (len, _) = self.fetch(ctx)?;
        Ok(FileStat {
            object: state.target,
            is_dir: false,
            len,
        })
    }

    fn fsync_pages(&mut self, ctx: &mut VfsCtx, pages: &[u64]) -> Result<()> {
        // `fdatasync`: the touched extents plus the inode, each one WAL
        // append.  Pages and extents share the 4 KiB granularity.
        let mut keys = vec![inode_key(self.ino)];
        keys.extend(pages.iter().map(|&p| extent_key(self.ino, p)));
        keys.sort_unstable();
        keys.dedup();
        let thread = ctx.thread;
        ctx.kernel().trap_persist_sync(thread, keys)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histar_store::is_persist_key;

    #[test]
    fn record_codecs_round_trip() {
        let i = Inode {
            is_dir: true,
            len: 77,
        };
        assert_eq!(i.encode().len(), INODE_LEN);
        assert_eq!(Inode::decode(&i.encode()), Ok(i));
        assert!(Inode::decode(&[1, 2]).is_err());
        let meta = Meta(5).encode();
        assert_eq!(Meta::decode(&meta), Ok(Meta(5)));
        assert!(Meta::decode(&meta[..8]).is_err());
        assert!(Meta::decode(&[0u8; 16]).is_err());
        let huge = Inode {
            is_dir: false,
            len: MAX_FILE_LEN + 1,
        };
        assert!(Inode::decode(&huge.encode()).is_err());
    }

    #[test]
    fn kinds_partition_the_namespace() {
        assert!(is_persist_key(META_KEY));
        assert!(is_persist_key(inode_key(u32::MAX)));
        assert!(is_persist_key(extent_key(u32::MAX, MAX_SLOT)));
        assert_ne!(inode_key(3), extent_key(3, 0));
        assert!(extent_key(3, MAX_SLOT) < extent_key(4, 0));
        assert!(inode_key(u32::MAX) < extent_key(0, 0));
        assert!(META_KEY < inode_key(0));
    }

    #[test]
    fn extent_chunking_covers_ranges_exactly() {
        let v = PersistVnode::new(3);
        // Aligned single extent.
        let c = v.extent_chunks(0, EXTENT_SIZE);
        assert_eq!(c, vec![(extent_key(3, 0), 0, EXTENT_SIZE)]);
        // Straddling two extents.
        let c = v.extent_chunks(EXTENT_SIZE - 100, EXTENT_SIZE + 200);
        assert_eq!(
            c,
            vec![
                (extent_key(3, 0), EXTENT_SIZE - 100, 100),
                (extent_key(3, 1), 0, 200),
            ]
        );
        // Interior offset.
        let c = v.extent_chunks(EXTENT_SIZE * 2 + 8, EXTENT_SIZE * 2 + 24);
        assert_eq!(c, vec![(extent_key(3, 2), 8, 16)]);
        let total: u64 = v.extent_chunks(123, 100_122).iter().map(|c| c.2).sum();
        assert_eq!(total, 99_999);
    }
}
