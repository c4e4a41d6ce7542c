//! PersistFs: the store-backed persistent filesystem mounted at
//! `/persist`.
//!
//! HiStar's single-level store makes *kernel* state persistent by
//! checkpointing the object hierarchy; everything else survives only as a
//! side effect of whole-machine snapshots.  PersistFs gives files the
//! paper's durability story directly: its inodes, directory entries and
//! file extents are keyed records in the store's B+-tree (the
//! [`histar_store::records`] namespace), bypassing the in-kernel object
//! heap for cold data.  `fsync` resolves a file to its record keys
//! ([`Filesystem::sync_targets`]) and the environment issues one
//! modify-checked `persist_sync` for the group; the store group-commits
//! every sync in the same syscall batch into a single multi-record WAL
//! frame, acked only after the shared append lands (§5's group sync).
//! Recovery replays the log back into a mountable tree, so a crash
//! between writes loses at most unsynced data — and never labels, because
//! **each record carries its label** and the kernel re-checks it on every
//! `lookup`/`read`/`write`, exactly as it checks a segment's label for
//! [`SegFs`](crate::segfs::SegFs).
//!
//! Record layout (all records live in the persist key namespace, whose
//! keys the snapshot engine neither decodes as kernel objects nor sweeps
//! as stale):
//!
//! * **meta** (`META_KEY`): magic, next inode number.  Label: the root
//!   directory's label.
//! * **inode** (`inode_key(ino)`): `is_dir`, byte length, next dirent
//!   slot.  Label: the file or directory's label — the one every access
//!   is checked against.
//! * **dirent** (`dirent_key(dir, slot)`): name, child inode, `is_dir`.
//!   Label: the *directory's* label, so listing a directory is exactly as
//!   restricted as observing it.
//! * **extent** (`extent_key(ino, index)`): one [`EXTENT_SIZE`]-byte
//!   chunk of file data.  Label: the file's label.
//!
//! The hot path keeps PR 3's shape: [`PersistVnode`] issues its extent
//! reads/writes and the descriptor seek-update as ONE submission batch —
//! persist records ride the same batched ABI as every other syscall, so a
//! steady-state `read(2)` on `/persist` still costs a single boundary
//! crossing.

use crate::env::UnixError;
use crate::fdtable::{FdKind, FdState, FLAG_APPEND, FLAG_RDONLY, FLAG_WRONLY};
use crate::fs::{DirEntry, FileStat, OpenFlags};
use crate::vfs::{Filesystem, FsNode, SyncTarget};
use crate::vnode::{FdRef, VfsCtx, Vnode};
use histar_kernel::dispatch::Syscall;
use histar_kernel::object::ObjectId;
use histar_kernel::syscall::SyscallError;
use histar_label::Label;
use histar_store::codec::{Decoder, Encoder};
use histar_store::records::{dirent_range, extent_key, inode_key, META_KEY};

type Result<T> = core::result::Result<T, UnixError>;

/// Bytes per file extent record (matches the page size, so the benchmark
/// 4 KiB I/O is a single-record operation).
pub const EXTENT_SIZE: u64 = 4096;

/// The root directory's inode number.
pub const ROOT_INO: u32 = 1;

/// Magic identifying a formatted PersistFs superblock ("PRSTFS1\0").
const PERSIST_MAGIC: u64 = 0x5052_5354_4653_3100;

/// Scan limit for directory listings and extent walks.
const SCAN_MAX: u64 = 1 << 24;

// -------------------------------------------------- record codecs ------

/// A decoded inode record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Inode {
    is_dir: bool,
    /// Byte length (files; directories keep 0).
    len: u64,
    /// Next dirent slot to hand out (directories).
    next_slot: u64,
}

impl Inode {
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(u8::from(self.is_dir))
            .put_u64(self.len)
            .put_u64(self.next_slot);
        e.finish()
    }

    fn decode(bytes: &[u8]) -> Option<Inode> {
        let mut d = Decoder::new(bytes);
        Some(Inode {
            is_dir: d.get_u8().ok()? != 0,
            len: d.get_u64().ok()?,
            next_slot: d.get_u64().ok()?,
        })
    }
}

/// A decoded directory-entry record.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Dirent {
    name: String,
    ino: u32,
    is_dir: bool,
}

impl Dirent {
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_str(&self.name)
            .put_u64(self.ino as u64)
            .put_u8(u8::from(self.is_dir));
        e.finish()
    }

    fn decode(bytes: &[u8]) -> Option<Dirent> {
        let mut d = Decoder::new(bytes);
        let name = d.get_str().ok()?;
        let ino = u32::try_from(d.get_u64().ok()?).ok()?;
        let is_dir = d.get_u8().ok()? != 0;
        Some(Dirent { name, ino, is_dir })
    }
}

fn encode_meta(next_ino: u32) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(PERSIST_MAGIC).put_u64(next_ino as u64);
    e.finish()
}

fn decode_meta(bytes: &[u8]) -> Option<u32> {
    let mut d = Decoder::new(bytes);
    if d.get_u64().ok()? != PERSIST_MAGIC {
        return None;
    }
    u32::try_from(d.get_u64().ok()?).ok()
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
            Ok(bytes) => {
                decode_meta(&bytes).ok_or(UnixError::Corrupt("persistfs superblock"))?;
                Ok(PersistFs { _private: () })
            }
            Err(SyscallError::NoSuchRecord(_)) => {
                let kernel = ctx.kernel();
                kernel.trap_persist_put(
                    thread,
                    META_KEY,
                    Some(root_label.clone()),
                    0,
                    &encode_meta(ROOT_INO + 1),
                )?;
                let root = Inode {
                    is_dir: true,
                    len: 0,
                    next_slot: 0,
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

    fn read_inode(ctx: &mut VfsCtx, ino: u32) -> Result<Inode> {
        let thread = ctx.thread;
        let bytes = ctx
            .kernel()
            .trap_persist_read(thread, inode_key(ino), 0, u64::MAX)?;
        Inode::decode(&bytes).ok_or(UnixError::Corrupt("persist inode record"))
    }

    fn write_inode(ctx: &mut VfsCtx, ino: u32, label: Option<Label>, inode: &Inode) -> Result<()> {
        let thread = ctx.thread;
        ctx.kernel()
            .trap_persist_put(thread, inode_key(ino), label, 0, &inode.encode())?;
        Ok(())
    }

    /// The label an inode record carries (needed to label new dirents and
    /// extents consistently with their owner).
    fn inode_label(ctx: &mut VfsCtx, ino: u32) -> Result<Label> {
        let thread = ctx.thread;
        Ok(ctx
            .kernel()
            .trap_persist_get_label(thread, inode_key(ino))?)
    }

    /// Reads directory `dir`'s inode, failing if it is not a directory.
    /// This is the observe check every directory operation starts with:
    /// a caller that may not observe the directory's label gets the
    /// kernel's refusal here, before any entry is revealed.
    fn read_dir_inode(ctx: &mut VfsCtx, dir: u32) -> Result<Inode> {
        let inode = Self::read_inode(ctx, dir)?;
        if !inode.is_dir {
            return Err(UnixError::NotADirectory(format!("inode {dir}")));
        }
        Ok(inode)
    }

    /// All dirents of `dir`, as `(slot key, dirent)` pairs.
    fn scan_dirents(ctx: &mut VfsCtx, dir: u32) -> Result<Vec<(u64, Dirent)>> {
        let (lo, hi) = dirent_range(dir);
        let thread = ctx.thread;
        let records = ctx.kernel().trap_persist_scan(thread, lo, hi, SCAN_MAX)?;
        records
            .into_iter()
            .map(|(key, payload)| {
                Dirent::decode(&payload)
                    .map(|d| (key, d))
                    .ok_or(UnixError::Corrupt("persist dirent record"))
            })
            .collect()
    }

    fn find_dirent(ctx: &mut VfsCtx, dir: u32, name: &str) -> Result<Option<(u64, Dirent)>> {
        Ok(Self::scan_dirents(ctx, dir)?
            .into_iter()
            .find(|(_, d)| d.name == name))
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
        let bytes = ctx
            .kernel()
            .trap_persist_read(thread, META_KEY, 0, u64::MAX)?;
        let next = decode_meta(&bytes).ok_or(UnixError::Corrupt("persistfs superblock"))?;
        ctx.kernel()
            .trap_persist_put(thread, META_KEY, None, 0, &encode_meta(next + 1))?;
        Ok(next)
    }

    /// Inserts `dirent` under `dir`, taking the next slot from the
    /// directory inode.  Returns the new dirent's record key.
    fn insert_dirent(ctx: &mut VfsCtx, dir: u32, dirent: &Dirent) -> Result<u64> {
        let mut dnode = Self::read_dir_inode(ctx, dir)?;
        let slot = dnode.next_slot;
        dnode.next_slot += 1;
        let dlabel = Self::inode_label(ctx, dir)?;
        let key = histar_store::records::dirent_key(dir, slot);
        let thread = ctx.thread;
        // Dirent creation and the slot-counter update cross together.
        let results = ctx.kernel().submit_calls(
            thread,
            vec![
                Syscall::PersistPut {
                    key,
                    label: Some(dlabel),
                    offset: 0,
                    data: dirent.encode(),
                },
                Syscall::PersistPut {
                    key: inode_key(dir),
                    label: None,
                    offset: 0,
                    data: dnode.encode(),
                },
            ],
        );
        for r in results {
            r?;
        }
        Ok(key)
    }

    /// The extent keys a file of length `len` can occupy (extents never
    /// outlive the inode length: truncate drops them, writes extend it).
    fn extent_keys(ino: u32, len: u64) -> Vec<u64> {
        (0..len.div_ceil(EXTENT_SIZE))
            .map(|i| extent_key(ino, i))
            .collect()
    }

    /// Removes a file or empty directory: its dirent, inode and extents.
    /// The removals are made durable immediately (a deletion that could
    /// silently resurrect after a crash would un-delete secrets).
    fn remove_node(ctx: &mut VfsCtx, dirent_key: u64, d: &Dirent) -> Result<()> {
        let thread = ctx.thread;
        if d.is_dir && !Self::scan_dirents(ctx, d.ino)?.is_empty() {
            return Err(UnixError::Unsupported(
                "unlink of a non-empty /persist directory",
            ));
        }
        let len = Self::read_inode(ctx, d.ino)?.len;
        let mut doomed = vec![dirent_key, inode_key(d.ino)];
        doomed.extend(Self::extent_keys(d.ino, len));
        let calls: Vec<Syscall> = doomed
            .iter()
            .map(|&key| Syscall::PersistDelete { key })
            .collect();
        for r in ctx.kernel().submit_calls(thread, calls) {
            // Holes never materialized an extent record; everything else
            // must delete cleanly.
            if let Err(e) = r {
                if !matches!(e, SyscallError::NoSuchRecord(_)) {
                    return Err(e.into());
                }
            }
        }
        // Durable tombstones: one WAL append per removed record.
        ctx.kernel().trap_persist_sync(thread, doomed)?;
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
        Self::read_dir_inode(ctx, dir as u32)?;
        match Self::find_dirent(ctx, dir as u32, name)? {
            Some((_, d)) => Ok(FsNode {
                node: d.ino as u64,
                is_dir: d.is_dir,
            }),
            None => Err(UnixError::NotFound(name.to_string())),
        }
    }

    fn readdir(&mut self, ctx: &mut VfsCtx, dir: u64) -> Result<Vec<DirEntry>> {
        Self::read_dir_inode(ctx, dir as u32)?;
        Ok(Self::scan_dirents(ctx, dir as u32)?
            .into_iter()
            .map(|(_, d)| DirEntry {
                name: d.name,
                object: ObjectId::from_raw(d.ino as u64),
                is_dir: d.is_dir,
            })
            .collect())
    }

    fn stat(&mut self, ctx: &mut VfsCtx, _dir: u64, node: FsNode) -> Result<FileStat> {
        let inode = Self::read_inode(ctx, node.node as u32)?;
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
        Self::read_dir_inode(ctx, dir)?;
        if Self::find_dirent(ctx, dir, name)?.is_some() {
            return Err(UnixError::Exists(name.to_string()));
        }
        let label = match label {
            Some(l) => l,
            None => Self::inode_label(ctx, dir)?,
        };
        let ino = Self::alloc_ino(ctx)?;
        Self::write_inode(
            ctx,
            ino,
            Some(label),
            &Inode {
                is_dir: true,
                len: 0,
                next_slot: 0,
            },
        )?;
        Self::insert_dirent(
            ctx,
            dir,
            &Dirent {
                name: name.to_string(),
                ino,
                is_dir: true,
            },
        )?;
        Ok(ino as u64)
    }

    fn unlink(&mut self, ctx: &mut VfsCtx, dir: u64, name: &str) -> Result<()> {
        Self::read_dir_inode(ctx, dir as u32)?;
        let (key, d) = Self::find_dirent(ctx, dir as u32, name)?
            .ok_or_else(|| UnixError::NotFound(name.to_string()))?;
        Self::remove_node(ctx, key, &d)
    }

    fn rename(
        &mut self,
        ctx: &mut VfsCtx,
        dir_from: u64,
        from: &str,
        dir_to: u64,
        to: &str,
    ) -> Result<()> {
        Self::read_dir_inode(ctx, dir_from as u32)?;
        Self::read_dir_inode(ctx, dir_to as u32)?;
        let (old_key, d) = Self::find_dirent(ctx, dir_from as u32, from)?
            .ok_or_else(|| UnixError::NotFound(from.to_string()))?;
        // Renaming onto an existing entry replaces it (files and empty
        // directories only, like the segment filesystem's rename).
        if let Some((target_key, target)) = Self::find_dirent(ctx, dir_to as u32, to)? {
            if target.ino != d.ino {
                Self::remove_node(ctx, target_key, &target)?;
            }
        }
        let thread = ctx.thread;
        ctx.kernel().trap_persist_delete(thread, old_key)?;
        let new_key = Self::insert_dirent(
            ctx,
            dir_to as u32,
            &Dirent {
                name: to.to_string(),
                ino: d.ino,
                is_dir: d.is_dir,
            },
        )?;
        // The rename is made durable as a unit: the new entry (and the
        // moved inode) are logged BEFORE the old entry's tombstone, so a
        // crash torn inside this sync shows the file at both names — a
        // benign duplicate — never at neither.  Syncing only the
        // tombstone would let a crash orphan a fully-fsynced file.
        ctx.kernel().trap_persist_sync(
            thread,
            vec![
                inode_key(dir_to as u32),
                new_key,
                inode_key(d.ino),
                inode_key(dir_from as u32),
                old_key,
            ],
        )?;
        Ok(())
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
        Self::read_dir_inode(ctx, dir)?;
        let mut known_len: Option<u64> = None;
        let ino = match Self::find_dirent(ctx, dir, name)? {
            Some((_, d)) if d.is_dir => return Err(UnixError::IsADirectory(name.to_string())),
            Some((_, d)) => {
                if flags.truncate {
                    // Drop the extents and reset the length.
                    let mut inode = Self::read_inode(ctx, d.ino)?;
                    let thread = ctx.thread;
                    let calls: Vec<Syscall> = Self::extent_keys(d.ino, inode.len)
                        .into_iter()
                        .map(|key| Syscall::PersistDelete { key })
                        .collect();
                    for r in ctx.kernel().submit_calls(thread, calls) {
                        // A hole never materialized an extent record.
                        if let Err(e) = r {
                            if !matches!(e, SyscallError::NoSuchRecord(_)) {
                                return Err(e.into());
                            }
                        }
                    }
                    inode.len = 0;
                    Self::write_inode(ctx, d.ino, None, &inode)?;
                    known_len = Some(0);
                }
                d.ino
            }
            None => {
                if !flags.create {
                    return Err(UnixError::NotFound(name.to_string()));
                }
                let label = match label {
                    Some(l) => l,
                    None => Self::inode_label(ctx, dir)?,
                };
                let ino = Self::alloc_ino(ctx)?;
                Self::write_inode(
                    ctx,
                    ino,
                    Some(label),
                    &Inode {
                        is_dir: false,
                        len: 0,
                        next_slot: 0,
                    },
                )?;
                Self::insert_dirent(
                    ctx,
                    dir,
                    &Dirent {
                        name: name.to_string(),
                        ino,
                        is_dir: false,
                    },
                )?;
                known_len = Some(0);
                ino
            }
        };
        let mut fd_flags = 0u32;
        if flags.append {
            fd_flags |= FLAG_APPEND;
        }
        if flags.read && !flags.write {
            fd_flags |= FLAG_RDONLY;
        }
        if flags.write && !flags.read {
            fd_flags |= FLAG_WRONLY;
        }
        let state = FdState {
            kind: FdKind::Persist,
            target: ObjectId::from_raw(ino as u64),
            target_container: ObjectId::from_raw(dir as u64),
            position: 0,
            flags: fd_flags,
            refs: 1,
        };
        let mut vnode = PersistVnode::new(ino);
        vnode.cached_len = known_len;
        Ok((state, Box::new(vnode)))
    }

    fn vnode_from_state(&mut self, _ctx: &mut VfsCtx, state: &FdState) -> Result<Box<dyn Vnode>> {
        Ok(Box::new(PersistVnode::new(state.target.raw() as u32)))
    }

    fn sync_targets(&mut self, ctx: &mut VfsCtx, dir: u64, name: &str) -> Result<Vec<SyncTarget>> {
        let dir = dir as u32;
        Self::read_dir_inode(ctx, dir)?;
        let (dirent_key, d) = Self::find_dirent(ctx, dir, name)?
            .ok_or_else(|| UnixError::NotFound(name.to_string()))?;
        let len = if d.is_dir {
            0
        } else {
            Self::read_inode(ctx, d.ino)?.len
        };
        let mut keys = vec![META_KEY, inode_key(dir), dirent_key, inode_key(d.ino)];
        keys.extend(Self::extent_keys(d.ino, len));
        Ok(keys.into_iter().map(SyncTarget::Record).collect())
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

// ------------------------------------------------------- the hot path --

/// A file vnode backed by extent records in the single-level store: the
/// steady-state `/persist` read/write path.
#[derive(Debug)]
pub struct PersistVnode {
    ino: u32,
    /// Cached file label (immutable), fetched once per vnode for labeling
    /// newly created extents.
    label: Option<Label>,
    /// Cached file length.  Revalidated at end-of-file and on a failed
    /// in-batch extent access, like `SegVnode`'s length cache.
    cached_len: Option<u64>,
}

impl PersistVnode {
    /// A vnode for inode `ino`.
    pub fn new(ino: u32) -> PersistVnode {
        PersistVnode {
            ino,
            label: None,
            cached_len: None,
        }
    }

    fn len(&mut self, ctx: &mut VfsCtx) -> Result<u64> {
        if let Some(len) = self.cached_len {
            return Ok(len);
        }
        self.fetch_len(ctx)
    }

    /// Fetches the inode fresh — a label-checked kernel call, so the
    /// first access through any descriptor re-verifies the caller may
    /// observe the file, including after a crash and recovery.
    fn fetch_len(&mut self, ctx: &mut VfsCtx) -> Result<u64> {
        let inode = PersistFs::read_inode(ctx, self.ino)?;
        self.cached_len = Some(inode.len);
        Ok(inode.len)
    }

    fn file_label(&mut self, ctx: &mut VfsCtx) -> Result<Label> {
        if let Some(l) = &self.label {
            return Ok(l.clone());
        }
        let l = PersistFs::inode_label(ctx, self.ino)?;
        self.label = Some(l.clone());
        Ok(l)
    }

    /// The extent-aligned `(key, offset-within-extent, chunk-length)`
    /// triples covering `[pos, pos + len)`.
    fn extent_chunks(&self, pos: u64, len: u64) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        let mut off = pos;
        let end = pos + len;
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

impl Vnode for PersistVnode {
    fn read(&mut self, ctx: &mut VfsCtx, fd: &FdRef, state: &FdState, len: u64) -> Result<Vec<u8>> {
        if len == 0 {
            // Still label-checks through the inode fetch, like a
            // zero-length read(2) still validates the descriptor.
            self.len(ctx)?;
            return Ok(Vec::new());
        }
        let mut attempts = 0;
        loop {
            let file_len = self.len(ctx)?;
            let start = state.position.min(file_len);
            let n = len.min(file_len - start);
            if n == 0 {
                // At (cached) end of file: revalidate once so growth via
                // other descriptors is observed — itself a label-checked
                // call, so an unauthorized reader still fails here.
                let fresh = self.fetch_len(ctx)?;
                if fresh <= start {
                    return Ok(Vec::new());
                }
                continue;
            }
            // The extent reads and the seek-update cross the boundary
            // together: one batch, one trap cost.
            let chunks = self.extent_chunks(start, n);
            let mut calls: Vec<Syscall> = chunks
                .iter()
                .map(|&(key, offset, chunk)| Syscall::PersistRead {
                    key,
                    offset,
                    len: chunk,
                })
                .collect();
            calls.push(fd.position_update(start + n));
            let thread = ctx.thread;
            let mut results = ctx.kernel().submit_calls(thread, calls).into_iter();
            let mut out = Vec::with_capacity(n as usize);
            let mut failed: Option<SyscallError> = None;
            for &(_, _, chunk) in &chunks {
                match results.next().expect("one completion per chunk") {
                    Ok(r) => out.extend(r.into_bytes()),
                    // A hole (never-written extent of a sparse file)
                    // reads as zeros.
                    Err(SyscallError::NoSuchRecord(_)) => {
                        out.resize(out.len() + chunk as usize, 0);
                    }
                    Err(e) => {
                        failed.get_or_insert(e);
                    }
                }
            }
            let seek = results.next().expect("seek update completes");
            match failed {
                None => {
                    seek?;
                    return Ok(out);
                }
                Some(SyscallError::InvalidArgument(_)) if attempts == 0 => {
                    // The cached length was stale (the file shrank under
                    // us); refresh and retry once.
                    self.cached_len = None;
                    attempts += 1;
                }
                Some(e) => {
                    // A failed read must not move the shared position.
                    crate::vnode::undo_seek(ctx, fd, state.position);
                    return Err(e.into());
                }
            }
        }
    }

    fn write(&mut self, ctx: &mut VfsCtx, fd: &FdRef, state: &FdState, data: &[u8]) -> Result<u64> {
        let pos = if state.flags & FLAG_APPEND != 0 {
            self.fetch_len(ctx)?
        } else {
            state.position
        };
        let end = pos + data.len() as u64;
        let mut file_len = self.len(ctx)?;
        if end > file_len {
            // The cached length may be stale: another descriptor's vnode
            // can have grown the file since it was cached, and writing
            // the inode from a stale length would *shrink* the
            // authoritative file.  Revalidate before deciding to grow.
            file_len = self.fetch_len(ctx)?;
        }
        let label = self.file_label(ctx)?;
        // Extent puts, the inode length update (when the file grows) and
        // the descriptor seek-update cross the boundary as ONE batch.
        let chunks = self.extent_chunks(pos, data.len() as u64);
        let mut calls: Vec<Syscall> = Vec::with_capacity(chunks.len() + 2);
        let mut consumed = 0usize;
        for &(key, offset, chunk) in &chunks {
            calls.push(Syscall::PersistPut {
                key,
                label: Some(label.clone()),
                offset,
                data: data[consumed..consumed + chunk as usize].to_vec(),
            });
            consumed += chunk as usize;
        }
        let grows = end > file_len;
        if grows {
            calls.push(Syscall::PersistPut {
                key: inode_key(self.ino),
                label: None,
                offset: 0,
                data: Inode {
                    is_dir: false,
                    len: end,
                    next_slot: 0,
                }
                .encode(),
            });
        }
        calls.push(fd.position_update(end));
        let thread = ctx.thread;
        let results = ctx.kernel().submit_calls(thread, calls);
        for r in &results {
            if let Err(e) = r {
                // Batches have no rollback; a denied write must restore
                // the shared position before reporting.
                crate::vnode::undo_seek(ctx, fd, state.position);
                return Err(e.clone().into());
            }
        }
        if grows {
            self.cached_len = Some(end);
        }
        Ok(data.len() as u64)
    }

    fn stat(&mut self, ctx: &mut VfsCtx, state: &FdState) -> Result<FileStat> {
        let len = self.fetch_len(ctx)?;
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

    #[test]
    fn record_codecs_round_trip() {
        let i = Inode {
            is_dir: true,
            len: 77,
            next_slot: 3,
        };
        assert_eq!(Inode::decode(&i.encode()), Some(i));
        assert_eq!(Inode::decode(&[1, 2]), None);
        let d = Dirent {
            name: "notes.txt".into(),
            ino: 9,
            is_dir: false,
        };
        assert_eq!(Dirent::decode(&d.encode()), Some(d));
        assert_eq!(Dirent::decode(&[]), None);
        assert_eq!(decode_meta(&encode_meta(5)), Some(5));
        assert_eq!(decode_meta(&encode_meta(5)[..8]), None);
        assert_eq!(decode_meta(&[0u8; 16]), None);
    }

    #[test]
    fn extent_chunking_covers_ranges_exactly() {
        let v = PersistVnode::new(3);
        // Aligned single extent.
        let c = v.extent_chunks(0, EXTENT_SIZE);
        assert_eq!(c, vec![(extent_key(3, 0), 0, EXTENT_SIZE)]);
        // Straddling two extents.
        let c = v.extent_chunks(EXTENT_SIZE - 100, 300);
        assert_eq!(
            c,
            vec![
                (extent_key(3, 0), EXTENT_SIZE - 100, 100),
                (extent_key(3, 1), 0, 200),
            ]
        );
        // Interior offset.
        let c = v.extent_chunks(EXTENT_SIZE * 2 + 8, 16);
        assert_eq!(c, vec![(extent_key(3, 2), 8, 16)]);
        let total: u64 = v.extent_chunks(123, 99_999).iter().map(|c| c.2).sum();
        assert_eq!(total, 99_999);
    }
}
