//! The segment filesystem (§5.1): files are segments, directories are
//! containers holding a *directory segment* mapping names to object IDs,
//! and permissions are nothing but the labels on those kernel objects.
//!
//! This is the paper's file system, lifted out of the old `UnixEnv`
//! monolith into a mountable [`Filesystem`].  Several instances can be
//! mounted at once (`UnixEnv::mount` overlays another container, e.g. a
//! daemon's exported namespace, as its own `SegFs`).
//!
//! [`SegVnode`] is the hot path: it caches its backing segment's length
//! (and nothing else), so a steady-state `read`/`write` issues its data
//! operation and the descriptor seek-update as ONE two-entry
//! `submit_calls` batch — a single boundary crossing instead of the seven
//! the match-on-`FdKind` code paid.

use crate::env::UnixError;
use crate::fdtable::{FdKind, FdState, FLAG_APPEND, FLAG_RDONLY, FLAG_WRONLY};
use crate::fs::{DirEntry, Directory, FileStat, OpenFlags};
use crate::vfs::{ensure_quota, Filesystem, FsNode, SyncTarget, CREATE_HEADROOM, DIRECTORY_QUOTA};
use crate::vnode::{FdRef, VfsCtx, Vnode};
use histar_kernel::dispatch::Syscall;
use histar_kernel::kernel::PAGE_SIZE;
use histar_kernel::object::{ContainerEntry, ObjectId, METADATA_LEN};
use histar_kernel::syscall::SyscallError;
use histar_label::Label;

type Result<T> = core::result::Result<T, UnixError>;

/// The segment/directory-segment filesystem.  Node IDs are raw kernel
/// object IDs: containers for directories, segments for files.
#[derive(Debug)]
pub struct SegFs {
    root: ObjectId,
}

impl SegFs {
    /// A filesystem rooted at an existing directory container.
    pub fn new(root: ObjectId) -> SegFs {
        SegFs { root }
    }

    /// Creates a fresh root directory container under `parent` and
    /// returns the filesystem rooted there.
    pub fn format(
        ctx: &mut VfsCtx,
        parent: ObjectId,
        label: Label,
        descrip: &str,
    ) -> Result<SegFs> {
        let root = make_directory_in(ctx, parent, label, descrip)?;
        Ok(SegFs::new(root))
    }

    /// The root directory container.
    pub fn root_container(&self) -> ObjectId {
        self.root
    }

    fn read_dir(&mut self, ctx: &mut VfsCtx, dir: u64) -> Result<Directory> {
        read_directory(ctx, ObjectId::from_raw(dir))
    }
}

impl Filesystem for SegFs {
    fn fs_name(&self) -> &'static str {
        "segfs"
    }

    fn root_node(&self) -> u64 {
        self.root.raw()
    }

    fn lookup(&mut self, ctx: &mut VfsCtx, dir: u64, name: &str) -> Result<FsNode> {
        let d = self.read_dir(ctx, dir)?;
        let entry = d
            .lookup(name)
            .ok_or_else(|| UnixError::NotFound(name.to_string()))?;
        Ok(FsNode {
            node: entry.object.raw(),
            is_dir: entry.is_dir,
        })
    }

    fn readdir(&mut self, ctx: &mut VfsCtx, dir: u64) -> Result<Vec<DirEntry>> {
        Ok(self.read_dir(ctx, dir)?.entries)
    }

    fn stat(&mut self, ctx: &mut VfsCtx, dir: u64, node: FsNode) -> Result<FileStat> {
        let object = ObjectId::from_raw(node.node);
        let len = if node.is_dir {
            0
        } else {
            let thread = ctx.thread;
            ctx.kernel()
                .trap_segment_len(thread, ContainerEntry::new(ObjectId::from_raw(dir), object))?
        };
        Ok(FileStat {
            object,
            is_dir: node.is_dir,
            len,
        })
    }

    fn mkdir(
        &mut self,
        ctx: &mut VfsCtx,
        dir: u64,
        name: &str,
        label: Option<Label>,
    ) -> Result<u64> {
        let dir = ObjectId::from_raw(dir);
        let mut d = read_directory(ctx, dir)?;
        if d.lookup(name).is_some() {
            return Err(UnixError::Exists(name.to_string()));
        }
        let label = label.unwrap_or_else(Label::unrestricted);
        let new_dir = make_directory_in(ctx, dir, label, name)?;
        d.insert(DirEntry {
            name: name.to_string(),
            object: new_dir,
            is_dir: true,
        });
        write_directory(ctx, dir, &d)?;
        Ok(new_dir.raw())
    }

    fn unlink(&mut self, ctx: &mut VfsCtx, dir: u64, name: &str) -> Result<()> {
        let dir = ObjectId::from_raw(dir);
        let mut d = read_directory(ctx, dir)?;
        let entry = d
            .remove(name)
            .ok_or_else(|| UnixError::NotFound(name.to_string()))?;
        write_directory(ctx, dir, &d)?;
        let thread = ctx.thread;
        ctx.kernel()
            .trap_obj_unref(thread, ContainerEntry::new(dir, entry.object))?;
        Ok(())
    }

    fn rename(
        &mut self,
        ctx: &mut VfsCtx,
        dir_from: u64,
        from: &str,
        dir_to: u64,
        to: &str,
    ) -> Result<()> {
        if dir_from != dir_to {
            return Err(UnixError::Unsupported("cross-directory rename"));
        }
        let dir = ObjectId::from_raw(dir_from);
        let mut d = read_directory(ctx, dir)?;
        if !d.rename(from, to) {
            return Err(UnixError::NotFound(from.to_string()));
        }
        write_directory(ctx, dir, &d)
    }

    fn open(
        &mut self,
        ctx: &mut VfsCtx,
        dir: u64,
        name: &str,
        flags: OpenFlags,
        label: Option<Label>,
    ) -> Result<(FdState, Box<dyn Vnode>)> {
        let dir = ObjectId::from_raw(dir);
        let mut d = read_directory(ctx, dir)?;
        let mut known_len: Option<u64> = None;
        let file_seg = match d.lookup(name) {
            Some(entry) if entry.is_dir => {
                return Err(UnixError::IsADirectory(name.to_string()));
            }
            Some(entry) => {
                let seg = entry.object;
                if flags.truncate {
                    let thread = ctx.thread;
                    ctx.kernel()
                        .trap_segment_resize(thread, ContainerEntry::new(dir, seg), 0)?;
                    known_len = Some(0);
                }
                seg
            }
            None => {
                if !flags.create {
                    return Err(UnixError::NotFound(name.to_string()));
                }
                let label = label.unwrap_or_else(Label::unrestricted);
                ensure_quota(ctx, dir, CREATE_HEADROOM)?;
                let thread = ctx.thread;
                let seg = ctx
                    .kernel()
                    .trap_segment_create(thread, dir, label, 0, name)?;
                d.insert(DirEntry {
                    name: name.to_string(),
                    object: seg,
                    is_dir: false,
                });
                write_directory(ctx, dir, &d)?;
                known_len = Some(0);
                seg
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
            kind: FdKind::File,
            target: file_seg,
            target_container: dir,
            position: 0,
            flags: fd_flags,
            refs: 1,
        };
        let mut vnode = SegVnode::new(ContainerEntry::new(dir, file_seg));
        vnode.cached_len = known_len;
        Ok((state, Box::new(vnode)))
    }

    fn vnode_from_state(&mut self, _ctx: &mut VfsCtx, state: &FdState) -> Result<Box<dyn Vnode>> {
        Ok(Box::new(SegVnode::new(ContainerEntry::new(
            state.target_container,
            state.target,
        ))))
    }

    fn sync_targets(&mut self, ctx: &mut VfsCtx, dir: u64, name: &str) -> Result<Vec<SyncTarget>> {
        let dir = ObjectId::from_raw(dir);
        let file = read_directory(ctx, dir)?.lookup(name).map(|e| e.object);
        let ids = [Some(dir), Some(dirseg_of(ctx, dir)?), file];
        Ok(ids
            .into_iter()
            .flatten()
            .map(|id| SyncTarget::Object(ContainerEntry::new(dir, id)))
            .collect())
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

// ------------------------------------------------- directory plumbing --

/// Creates a directory container plus its directory segment, recording
/// the directory segment's object ID in the container metadata.
pub fn make_directory_in(
    ctx: &mut VfsCtx,
    parent_container: ObjectId,
    label: Label,
    descrip: &str,
) -> Result<ObjectId> {
    ensure_quota(ctx, parent_container, DIRECTORY_QUOTA + 2 * PAGE_SIZE)?;
    let thread = ctx.thread;
    let kernel = ctx.kernel();
    let dir = kernel.trap_container_create(
        thread,
        parent_container,
        label.clone(),
        descrip,
        0,
        DIRECTORY_QUOTA,
    )?;
    let dirseg = kernel.trap_segment_create(thread, dir, label, PAGE_SIZE, ".dirents")?;
    let mut meta = [0u8; METADATA_LEN];
    meta[..8].copy_from_slice(&dirseg.raw().to_le_bytes());
    kernel.trap_obj_set_metadata(thread, ContainerEntry::self_entry(dir), meta)?;
    Ok(dir)
}

/// Finds the directory segment of a directory container.
pub fn dirseg_of(ctx: &mut VfsCtx, dir: ObjectId) -> Result<ObjectId> {
    let thread = ctx.thread;
    let meta = ctx
        .kernel()
        .trap_obj_get_metadata(thread, ContainerEntry::self_entry(dir))?;
    let raw = u64::from_le_bytes(meta[..8].try_into().expect("metadata is 64 bytes"));
    if raw == 0 {
        return Err(UnixError::Corrupt("directory has no directory segment"));
    }
    Ok(ObjectId::from_raw(raw))
}

/// Reads and decodes a directory container's directory segment.
pub fn read_directory(ctx: &mut VfsCtx, dir: ObjectId) -> Result<Directory> {
    let dirseg = dirseg_of(ctx, dir)?;
    let thread = ctx.thread;
    let kernel = ctx.kernel();
    let entry = ContainerEntry::new(dir, dirseg);
    let len = kernel.trap_segment_len(thread, entry)?;
    let bytes = kernel.trap_segment_read(thread, entry, 0, len)?;
    Directory::decode(&bytes).ok_or(UnixError::Corrupt("directory segment"))
}

/// Encodes and writes back a directory image, growing the directory
/// segment's quota from the directory's ancestors when it fills up.
pub fn write_directory(ctx: &mut VfsCtx, dir: ObjectId, d: &Directory) -> Result<()> {
    let dirseg = dirseg_of(ctx, dir)?;
    let entry = ContainerEntry::new(dir, dirseg);
    let bytes = d.encode();
    let thread = ctx.thread;
    if let Err(SyscallError::QuotaExceeded {
        requested,
        available,
        ..
    }) = ctx
        .kernel()
        .trap_segment_resize(thread, entry, bytes.len() as u64)
    {
        let grow = (requested - available).max(64 * PAGE_SIZE);
        ensure_quota(ctx, dir, grow)?;
        ctx.kernel()
            .trap_quota_move(thread, dir, dirseg, grow as i64)?;
        ctx.kernel()
            .trap_segment_resize(thread, entry, bytes.len() as u64)?;
    }
    ctx.kernel().trap_segment_write(thread, entry, 0, &bytes)?;
    Ok(())
}

// ------------------------------------------------------- the hot path --

/// A file vnode backed by one segment: the steady-state read/write path
/// of the whole Unix library.
#[derive(Debug)]
pub struct SegVnode {
    /// The container entry naming the backing segment.
    entry: ContainerEntry,
    /// Cached segment length.  Revalidated at end-of-file, so a reader
    /// that hits EOF observes growth by other descriptors; a concurrent
    /// *truncate* through a different descriptor surfaces as a failed
    /// in-batch read, which also refreshes the cache and retries.
    cached_len: Option<u64>,
}

impl SegVnode {
    /// A vnode for the segment named by `entry`.
    pub fn new(entry: ContainerEntry) -> SegVnode {
        SegVnode {
            entry,
            cached_len: None,
        }
    }

    /// The backing segment's length, from cache when warm (label-checked
    /// by the kernel when cold).
    fn len(&mut self, ctx: &mut VfsCtx) -> Result<u64> {
        if let Some(len) = self.cached_len {
            return Ok(len);
        }
        self.fetch_len(ctx)
    }

    fn fetch_len(&mut self, ctx: &mut VfsCtx) -> Result<u64> {
        let thread = ctx.thread;
        let len = ctx.kernel().trap_segment_len(thread, self.entry)?;
        self.cached_len = Some(len);
        Ok(len)
    }
}

impl Vnode for SegVnode {
    fn read(&mut self, ctx: &mut VfsCtx, fd: &FdRef, state: &FdState, len: u64) -> Result<Vec<u8>> {
        if len == 0 {
            // A zero-length read still label-checks (the length fetch),
            // like read(2) with a zero count still validates the fd.
            self.len(ctx)?;
            return Ok(Vec::new());
        }
        let mut attempts = 0;
        loop {
            let file_len = self.len(ctx)?;
            let start = state.position.min(file_len);
            let n = len.min(file_len - start);
            if n == 0 {
                // At (cached) end of file: revalidate once so growth by
                // other descriptors is observed, then report EOF.  The
                // revalidation is itself a label-checked kernel call, so
                // an unauthorized reader still fails here.
                let fresh = self.fetch_len(ctx)?;
                if fresh <= start {
                    return Ok(Vec::new());
                }
                continue;
            }
            // The data read and the descriptor seek-update cross the
            // boundary together: one batch, one trap cost.
            let thread = ctx.thread;
            let calls = vec![
                Syscall::SegmentRead {
                    entry: self.entry,
                    offset: start,
                    len: n,
                },
                fd.position_update(start + n),
            ];
            let mut results = ctx.kernel().submit_calls(thread, calls).into_iter();
            let data = results.next().expect("read completes");
            let seek = results.next().expect("seek update completes");
            match data {
                Ok(r) => {
                    seek?;
                    return Ok(r.into_bytes());
                }
                Err(SyscallError::InvalidArgument(_)) if attempts == 0 => {
                    // The cached length was stale (the file shrank).
                    self.cached_len = None;
                    attempts += 1;
                }
                Err(e) => {
                    // A failed read must not move the shared position.
                    crate::vnode::undo_seek(ctx, fd, state.position);
                    return Err(e.into());
                }
            }
        }
    }

    fn write(&mut self, ctx: &mut VfsCtx, fd: &FdRef, state: &FdState, data: &[u8]) -> Result<u64> {
        // Appends position at the real end of file — fetched fresh, since
        // appending after stale metadata would overwrite data.
        let pos = if state.flags & FLAG_APPEND != 0 {
            self.fetch_len(ctx)?
        } else {
            state.position
        };
        let end = pos + data.len() as u64;
        let mut attempts = 0;
        loop {
            let thread = ctx.thread;
            let calls = vec![
                Syscall::SegmentWrite {
                    entry: self.entry,
                    offset: pos,
                    data: data.to_vec(),
                },
                fd.position_update(end),
            ];
            let mut results = ctx.kernel().submit_calls(thread, calls).into_iter();
            let wrote = results.next().expect("write completes");
            let seek = results.next().expect("seek update completes");
            match wrote {
                Ok(_) => {
                    seek?;
                    if let Some(len) = self.cached_len {
                        self.cached_len = Some(len.max(end));
                    }
                    return Ok(data.len() as u64);
                }
                Err(SyscallError::QuotaExceeded {
                    requested,
                    available,
                    ..
                }) if attempts < 2 => {
                    // Growing the file past its segment quota is handled
                    // by the library: move more quota into the segment
                    // from the directory (topping the directory up from
                    // its ancestors).
                    let grow = (requested - available).max(PAGE_SIZE * 256);
                    let topped = ensure_quota(ctx, self.entry.container, grow).and_then(|()| {
                        ctx.kernel()
                            .trap_quota_move(
                                thread,
                                self.entry.container,
                                self.entry.object,
                                grow as i64,
                            )
                            .map_err(UnixError::from)
                    });
                    if let Err(e) = topped {
                        crate::vnode::undo_seek(ctx, fd, state.position);
                        return Err(e);
                    }
                    attempts += 1;
                }
                Err(e) => {
                    // A failed write must not move the shared position.
                    crate::vnode::undo_seek(ctx, fd, state.position);
                    return Err(e.into());
                }
            }
        }
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
        let thread = ctx.thread;
        Ok(ctx
            .kernel()
            .trap_obj_sync(thread, self.entry, Some(pages.to_vec()))?)
    }
}
