//! The VFS layer: a real mount table over pluggable [`Filesystem`]s.
//!
//! Path resolution happens in exactly one place — [`Vfs::normalize`] +
//! [`Vfs::resolve`] — so trailing slashes, repeated `/`, `.`/`..`
//! components (including `..` at the root and `..` walking back out of a
//! mount point) behave identically for every operation.  Normalization is
//! lexical, as in the paper's library: `..` is resolved against the path
//! string before any lookup runs, which is also what lets a path escape a
//! mount point — the mount table is consulted afresh for the normalized
//! result.
//!
//! A [`Filesystem`] names its objects with opaque `u64` node IDs (the
//! segment/container object ID for [`SegFs`](crate::segfs::SegFs),
//! synthetic IDs for `/proc` and `/dev`).  The VFS walks directories via
//! `lookup`, then hands the final component to the owning filesystem.
//! Label enforcement stays in the kernel: every lookup/readdir/open a
//! filesystem performs issues system calls on the calling thread, so a
//! caller that may not observe a directory (or a `/proc` entry) gets
//! `CannotObserve` from the kernel, not from this library.  Durability is
//! no exception: a filesystem *names* what an `fsync` must make durable
//! ([`Filesystem::sync_targets`], the one sync seam) and the environment
//! traps `persist_sync` / `obj_sync` for it.

use crate::env::UnixError;
use crate::fdtable::FdState;
use crate::fs::{join_path, DirEntry, FileStat, OpenFlags};
use crate::vnode::{VfsCtx, Vnode};
use histar_kernel::kernel::PAGE_SIZE;
use histar_kernel::object::{ContainerEntry, ObjectId};
use histar_label::Label;

type Result<T> = core::result::Result<T, UnixError>;

/// Initial quota handed to each directory container; the library tops
/// directories up automatically from their ancestors as they fill.
pub const DIRECTORY_QUOTA: u64 = 4 * 1024 * 1024;

/// Index of a mounted filesystem inside a [`Vfs`].
pub type FsId = usize;

/// A node within one filesystem, as returned by [`Filesystem::lookup`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FsNode {
    /// The filesystem-local node ID.
    pub node: u64,
    /// True if the node is a directory.
    pub is_dir: bool,
}

/// One thing an `fsync` makes durable, named as the kernel call that
/// syncs it takes it (see [`Filesystem::sync_targets`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SyncTarget {
    /// A persist record, by key: synced together with every other record
    /// of the group by one `persist_sync`.
    Record(u64),
    /// A kernel object, by container entry: synced by one `obj_sync`.
    Object(ContainerEntry),
}

/// One mountable filesystem.  All methods run on behalf of `ctx.thread`;
/// implementations only reach kernel state through system calls — a
/// [`VfsCtx`] hands them the kernel's trap interface and nothing beside it
/// — so the kernel's label checks always apply to the actual caller.
pub trait Filesystem: core::fmt::Debug {
    /// A short name for diagnostics (`"segfs"`, `"procfs"`, `"devfs"`).
    fn fs_name(&self) -> &'static str;

    /// The node ID of the filesystem's root directory.
    fn root_node(&self) -> u64;

    /// Looks up `name` inside directory node `dir`.
    fn lookup(&mut self, ctx: &mut VfsCtx, dir: u64, name: &str) -> Result<FsNode>;

    /// Lists directory node `dir`.
    fn readdir(&mut self, ctx: &mut VfsCtx, dir: u64) -> Result<Vec<DirEntry>>;

    /// `stat` of a node previously returned by [`Filesystem::lookup`]
    /// from directory `dir` (the directory is how segment-backed files
    /// are named for the kernel's checks).
    fn stat(&mut self, ctx: &mut VfsCtx, dir: u64, node: FsNode) -> Result<FileStat>;

    /// Creates a directory named `name` under `dir`.
    fn mkdir(
        &mut self,
        _ctx: &mut VfsCtx,
        _dir: u64,
        _name: &str,
        _label: Option<Label>,
    ) -> Result<u64> {
        Err(UnixError::ReadOnly(self.fs_name()))
    }

    /// Removes the entry `name` from `dir`.
    fn unlink(&mut self, _ctx: &mut VfsCtx, _dir: u64, _name: &str) -> Result<()> {
        Err(UnixError::ReadOnly(self.fs_name()))
    }

    /// Renames `from` (under `dir_from`) to `to` (under `dir_to`), both
    /// directories belonging to this filesystem.
    fn rename(
        &mut self,
        _ctx: &mut VfsCtx,
        _dir_from: u64,
        _from: &str,
        _dir_to: u64,
        _to: &str,
    ) -> Result<()> {
        Err(UnixError::ReadOnly(self.fs_name()))
    }

    /// Opens (or creates, according to `flags`) `name` under `dir`,
    /// returning the descriptor-state template and the vnode that will
    /// serve its I/O.
    fn open(
        &mut self,
        ctx: &mut VfsCtx,
        dir: u64,
        name: &str,
        flags: OpenFlags,
        label: Option<Label>,
    ) -> Result<(FdState, Box<dyn Vnode>)>;

    /// Rebuilds the vnode for a descriptor that was opened on this
    /// filesystem (after `fork`, or when the in-memory vnode cache was
    /// dropped); `state` is the decoded descriptor segment.
    fn vnode_from_state(&mut self, ctx: &mut VfsCtx, state: &FdState) -> Result<Box<dyn Vnode>>;

    /// What an `fsync` of `name` under `dir` must make durable — the file
    /// and the directory naming it — as the arguments of the kernel's two
    /// sync calls; empty (the default) for a filesystem with nothing in
    /// the store.  The filesystem only *names* the targets:
    /// [`UnixEnv::fsync_paths`](crate::env::UnixEnv::fsync_paths) gathers
    /// them over all its paths and traps, so durability has one way into
    /// the kernel and every target is modify-checked there against the
    /// caller.  A caller that may write a file but not its directory
    /// therefore gets the kernel's refusal for the directory's targets
    /// (the first error, in order): making a directory's current version
    /// the one that survives a crash is a write to the directory.
    fn sync_targets(
        &mut self,
        _ctx: &mut VfsCtx,
        _dir: u64,
        _name: &str,
    ) -> Result<Vec<SyncTarget>> {
        Ok(Vec::new())
    }

    /// Downcast hook (how [`Vfs::find_fs_mut`] finds a filesystem by type,
    /// e.g. to reach `segfs`'s quota helpers).
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any;
}

/// The result of resolving a path to its parent directory: which
/// filesystem owns it, the parent's node, and the final component.
#[derive(Clone, Debug)]
pub struct ResolvedParent {
    /// The owning filesystem.
    pub fs: FsId,
    /// The parent directory's node ID.
    pub dir: u64,
    /// The final path component.
    pub name: String,
    /// The normalized absolute components of the full path.
    pub comps: Vec<String>,
}

/// The mount layer: filesystems overlaid onto the path namespace.
#[derive(Debug, Default)]
pub struct Vfs {
    filesystems: Vec<Box<dyn Filesystem>>,
    /// `(mount components, filesystem)`; resolution takes the longest
    /// matching prefix.  The root mount is `([], fs)`.
    mounts: Vec<(Vec<String>, FsId)>,
}

impl Vfs {
    /// Creates a VFS with `root` mounted at `/`.
    pub fn new(root: Box<dyn Filesystem>) -> Vfs {
        let mut vfs = Vfs::default();
        let id = vfs.add_filesystem(root);
        vfs.mounts.push((Vec::new(), id));
        vfs
    }

    /// Registers a filesystem without mounting it, returning its ID.
    pub fn add_filesystem(&mut self, fs: Box<dyn Filesystem>) -> FsId {
        self.filesystems.push(fs);
        self.filesystems.len() - 1
    }

    /// Mounts a registered filesystem at an absolute path, replacing any
    /// previous mount at exactly that path.
    pub fn mount(&mut self, path: &str, fs: FsId) {
        let comps = Vfs::normalize("/", path);
        self.mounts.retain(|(p, _)| *p != comps);
        self.mounts.push((comps, fs));
    }

    /// Removes the mount at exactly `path`, returning the filesystem that
    /// was mounted there.  The root mount cannot be removed.
    pub fn unmount(&mut self, path: &str) -> Option<FsId> {
        let comps = Vfs::normalize("/", path);
        if comps.is_empty() {
            return None;
        }
        let idx = self.mounts.iter().position(|(p, _)| *p == comps)?;
        Some(self.mounts.remove(idx).1)
    }

    /// Number of mounts (including the root).
    pub fn mount_count(&self) -> usize {
        self.mounts.len()
    }

    /// Mutable access to a mounted filesystem.
    pub fn filesystem_mut(&mut self, fs: FsId) -> &mut dyn Filesystem {
        self.filesystems[fs].as_mut()
    }

    /// Finds the first registered filesystem downcastable to `F`.
    pub fn find_fs_mut<F: 'static>(&mut self) -> Option<&mut F> {
        self.filesystems
            .iter_mut()
            .find_map(|f| f.as_any_mut().downcast_mut::<F>())
    }

    /// The ID of an already-registered [`SegFs`](crate::segfs::SegFs)
    /// rooted at `root`, if any — remounting the same container reuses
    /// its filesystem instead of registering a duplicate.
    pub fn segfs_with_root(&mut self, root: histar_kernel::object::ObjectId) -> Option<FsId> {
        self.filesystems.iter_mut().position(|f| {
            f.as_any_mut()
                .downcast_mut::<crate::segfs::SegFs>()
                .is_some_and(|s| s.root_container() == root)
        })
    }

    // ----- path normalization (the one place) ---------------------------

    /// Normalizes `path` (absolute or relative to `cwd`) into absolute
    /// components: repeated and trailing `/` collapse, `.` disappears,
    /// `..` pops a component (and is a no-op at the root).  This is the
    /// single path parser every file operation goes through.
    pub fn normalize(cwd: &str, path: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let absolute = path.starts_with('/');
        if !absolute {
            for comp in cwd.split('/') {
                match comp {
                    "" | "." => {}
                    ".." => {
                        out.pop();
                    }
                    other => out.push(other.to_string()),
                }
            }
        }
        for comp in path.split('/') {
            match comp {
                "" | "." => {}
                ".." => {
                    out.pop();
                }
                other => out.push(other.to_string()),
            }
        }
        out
    }

    /// The longest mount prefix of `comps`: the owning filesystem and how
    /// many leading components the mount consumes.
    fn mount_for(&self, comps: &[String]) -> (FsId, usize) {
        let mut best: (FsId, usize) = (0, 0);
        let mut found = false;
        for (prefix, fs) in &self.mounts {
            if prefix.len() <= comps.len()
                && comps[..prefix.len()] == prefix[..]
                && (!found || prefix.len() >= best.1)
            {
                best = (*fs, prefix.len());
                found = true;
            }
        }
        best
    }

    /// Resolves normalized components to a directory node, walking
    /// through the owning filesystem.
    fn resolve_dir_comps(&mut self, ctx: &mut VfsCtx, comps: &[String]) -> Result<(FsId, u64)> {
        let (fs, consumed) = self.mount_for(comps);
        let mut node = self.filesystems[fs].root_node();
        for (i, comp) in comps.iter().enumerate().skip(consumed) {
            let found = self.filesystems[fs]
                .lookup(ctx, node, comp)
                .map_err(|e| match e {
                    UnixError::NotFound(_) => UnixError::NotFound(join_path(&comps[..=i])),
                    other => other,
                })?;
            if !found.is_dir {
                return Err(UnixError::NotADirectory(comp.clone()));
            }
            node = found.node;
        }
        Ok((fs, node))
    }

    /// Resolves a path to its existing directory node (for `chdir`,
    /// `readdir`).
    pub fn resolve_dir(&mut self, ctx: &mut VfsCtx, cwd: &str, path: &str) -> Result<(FsId, u64)> {
        let comps = Vfs::normalize(cwd, path);
        self.resolve_dir_comps(ctx, &comps)
    }

    /// Resolves a path to its parent directory and final component.
    pub fn resolve_parent(
        &mut self,
        ctx: &mut VfsCtx,
        cwd: &str,
        path: &str,
    ) -> Result<ResolvedParent> {
        let comps = Vfs::normalize(cwd, path);
        if comps.is_empty() {
            return Err(UnixError::Unsupported("path resolves to the root itself"));
        }
        // A path that exactly names a mount point has no meaningful
        // parent: creating/removing/renaming the entry *under* the mount
        // would silently operate on a name the mount table shadows.
        // Callers that want the mounted root (stat, open-as-directory)
        // handle the exact-mount case before resolving the parent.
        if self
            .mounts
            .iter()
            .any(|(p, _)| !p.is_empty() && *p == comps)
        {
            return Err(UnixError::Unsupported("path names a mount point"));
        }
        let (dir_comps, name) = comps.split_at(comps.len() - 1);
        let (fs, dir) = self.resolve_dir_comps(ctx, dir_comps)?;
        Ok(ResolvedParent {
            fs,
            dir,
            name: name[0].clone(),
            comps,
        })
    }

    // ----- façade operations -------------------------------------------

    /// Opens (or creates) a file, returning the descriptor-state template
    /// and its vnode.
    pub fn open(
        &mut self,
        ctx: &mut VfsCtx,
        cwd: &str,
        path: &str,
        flags: OpenFlags,
        label: Option<Label>,
    ) -> Result<(FdState, Box<dyn Vnode>)> {
        // A path that exactly names a mount point opens the mounted
        // root, which is a directory.
        let comps = Vfs::normalize(cwd, path);
        let (_, consumed) = self.mount_for(&comps);
        if consumed == comps.len() {
            return Err(UnixError::IsADirectory(join_path(&comps)));
        }
        let r = self.resolve_parent(ctx, cwd, path)?;
        self.filesystems[r.fs]
            .open(ctx, r.dir, &r.name, flags, label)
            .map_err(|e| annotate_path(e, &r.comps))
    }

    /// Creates a directory, returning its filesystem-local node ID.
    pub fn mkdir(
        &mut self,
        ctx: &mut VfsCtx,
        cwd: &str,
        path: &str,
        label: Option<Label>,
    ) -> Result<u64> {
        let r = self.resolve_parent(ctx, cwd, path)?;
        self.filesystems[r.fs]
            .mkdir(ctx, r.dir, &r.name, label)
            .map_err(|e| annotate_path(e, &r.comps))
    }

    /// `stat` on a path.
    pub fn stat(&mut self, ctx: &mut VfsCtx, cwd: &str, path: &str) -> Result<FileStat> {
        let comps = Vfs::normalize(cwd, path);
        let (fs, consumed) = self.mount_for(&comps);
        if consumed == comps.len() {
            // The path names a mount point (or the root): stat the
            // mounted filesystem's root directly.
            let root = self.filesystems[fs].root_node();
            return self.filesystems[fs].stat(
                ctx,
                root,
                FsNode {
                    node: root,
                    is_dir: true,
                },
            );
        }
        let r = self.resolve_parent(ctx, cwd, path)?;
        let node = self.filesystems[r.fs]
            .lookup(ctx, r.dir, &r.name)
            .map_err(|e| annotate_path(e, &r.comps))?;
        self.filesystems[r.fs].stat(ctx, r.dir, node)
    }

    /// Lists a directory.
    pub fn readdir(&mut self, ctx: &mut VfsCtx, cwd: &str, path: &str) -> Result<Vec<DirEntry>> {
        let (fs, dir) = self.resolve_dir(ctx, cwd, path)?;
        self.filesystems[fs].readdir(ctx, dir)
    }

    /// Removes a file or (empty) directory entry.
    pub fn unlink(&mut self, ctx: &mut VfsCtx, cwd: &str, path: &str) -> Result<()> {
        let r = self.resolve_parent(ctx, cwd, path)?;
        self.filesystems[r.fs]
            .unlink(ctx, r.dir, &r.name)
            .map_err(|e| annotate_path(e, &r.comps))
    }

    /// Renames `from` to `to`.  Both paths must resolve into the *same*
    /// mounted filesystem: a rename would otherwise have to move bytes
    /// between unrelated object namespaces, so it fails with
    /// [`UnixError::CrossMount`] before either directory is touched.
    pub fn rename(&mut self, ctx: &mut VfsCtx, cwd: &str, from: &str, to: &str) -> Result<()> {
        let rf = self.resolve_parent(ctx, cwd, from)?;
        let rt = self.resolve_parent(ctx, cwd, to)?;
        if rf.fs != rt.fs {
            return Err(UnixError::CrossMount {
                from: join_path(&rf.comps),
                to: join_path(&rt.comps),
            });
        }
        self.filesystems[rf.fs]
            .rename(ctx, rf.dir, &rf.name, rt.dir, &rt.name)
            .map_err(|e| annotate_path(e, &rf.comps))
    }

    /// What an `fsync` of `path` must make durable (see
    /// [`Filesystem::sync_targets`]).
    pub fn sync_targets_path(
        &mut self,
        ctx: &mut VfsCtx,
        cwd: &str,
        path: &str,
    ) -> Result<Vec<SyncTarget>> {
        let r = self.resolve_parent(ctx, cwd, path)?;
        self.filesystems[r.fs].sync_targets(ctx, r.dir, &r.name)
    }

    /// Rebuilds the vnode for a decoded descriptor state.  File-backed
    /// descriptors are owned by the filesystem that can serve their
    /// object; descriptor kinds that live outside any filesystem (pipes,
    /// console, sockets) are built here.
    pub fn vnode_from_state(
        &mut self,
        ctx: &mut VfsCtx,
        state: &FdState,
    ) -> Result<Box<dyn Vnode>> {
        use crate::fdtable::FdKind;
        use crate::vnode::{ConsoleVnode, PipeVnode, SocketVnode};
        use crate::{devfs::DevFs, metricsfs::MetricsFs, persistfs::PersistFs};
        use crate::{procfs::ProcFs, segfs::SegFs};
        match state.kind {
            FdKind::PipeRead | FdKind::PipeWrite => Ok(Box::new(PipeVnode)),
            FdKind::Console => Ok(Box::new(ConsoleVnode)),
            FdKind::Socket => Ok(Box::new(SocketVnode)),
            // Any SegFs can rebuild a file vnode: the descriptor state
            // names the object directly.
            FdKind::File => self.rebuild::<SegFs>(ctx, state, "file descriptor with no segfs"),
            FdKind::Dev => self.rebuild::<DevFs>(ctx, state, "dev descriptor with no devfs"),
            FdKind::Proc => self.rebuild::<ProcFs>(ctx, state, "proc descriptor with no procfs"),
            FdKind::Metrics => {
                self.rebuild::<MetricsFs>(ctx, state, "metrics descriptor with no metricsfs")
            }
            FdKind::Persist => {
                self.rebuild::<PersistFs>(ctx, state, "persist descriptor with no persistfs")
            }
        }
    }

    /// Asks the registered filesystem of type `F` to rebuild a vnode.
    fn rebuild<F: Filesystem + 'static>(
        &mut self,
        ctx: &mut VfsCtx,
        state: &FdState,
        missing: &'static str,
    ) -> Result<Box<dyn Vnode>> {
        self.find_fs_mut::<F>()
            .ok_or(UnixError::Corrupt(missing))?
            .vnode_from_state(ctx, state)
    }
}

/// Rewrites `NotFound`/`Exists`/`IsADirectory` errors raised by a
/// filesystem on its final component with the full path the caller used.
fn annotate_path(e: UnixError, comps: &[String]) -> UnixError {
    match e {
        UnixError::NotFound(_) => UnixError::NotFound(join_path(comps)),
        UnixError::Exists(_) => UnixError::Exists(join_path(comps)),
        UnixError::IsADirectory(_) => UnixError::IsADirectory(join_path(comps)),
        other => other,
    }
}

/// Automatic quota management (§3.3): tops a container up from its
/// ancestors so at least `need` bytes are available, moving quota down
/// the hierarchy from the root (whose quota is infinite).
pub fn ensure_quota(ctx: &mut VfsCtx, container: ObjectId, need: u64) -> Result<()> {
    let thread = ctx.thread;
    let avail = ctx.kernel().trap_container_quota_avail(thread, container)?;
    if avail >= need {
        return Ok(());
    }
    let grant = (need - avail).max(DIRECTORY_QUOTA);
    let parent = ctx.kernel().trap_container_get_parent(thread, container)?;
    ensure_quota(ctx, parent, grant)?;
    ctx.kernel()
        .trap_quota_move(thread, parent, container, grant as i64)?;
    Ok(())
}

/// Quota headroom demanded before creating a file or directory entry.
pub const CREATE_HEADROOM: u64 = 2 * PAGE_SIZE;

#[cfg(test)]
mod tests {
    use super::*;

    fn n(cwd: &str, path: &str) -> String {
        join_path(&Vfs::normalize(cwd, path))
    }

    #[test]
    fn normalization_edge_cases() {
        // Repeated and trailing slashes.
        assert_eq!(n("/", "//a///b//"), "/a/b");
        assert_eq!(n("/", "/a/b/"), "/a/b");
        // `.` components.
        assert_eq!(n("/", "/a/./b/."), "/a/b");
        assert_eq!(n("/a/b", "./c/./d"), "/a/b/c/d");
        // `..` components, including at the root.
        assert_eq!(n("/", ".."), "/");
        assert_eq!(n("/", "/../../x"), "/x");
        assert_eq!(n("/a/b", "../c"), "/a/c");
        assert_eq!(n("/a/b", "../../../.."), "/");
        // Relative paths against a cwd that has redundant slashes.
        assert_eq!(n("/a//b/", "c"), "/a/b/c");
        // Absolute paths ignore the cwd entirely.
        assert_eq!(n("/deep/down", "/top"), "/top");
        // Empty path = the cwd itself.
        assert_eq!(n("/a/b", ""), "/a/b");
        // `..` escaping a mount point is lexical: normalize first, then
        // the mount table sees the escaped path.
        assert_eq!(n("/proc/5", ".."), "/proc");
        assert_eq!(n("/proc/5", "../.."), "/");
        assert_eq!(n("/proc", "../dev/null"), "/dev/null");
    }
}
