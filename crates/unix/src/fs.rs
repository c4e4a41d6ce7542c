//! File-system conventions (§5.1).
//!
//! The HiStar file system is untrusted library code: a file is a segment, a
//! directory is a container holding a *directory segment* that maps names to
//! object IDs, and permissions are nothing but the labels on those kernel
//! objects, enforced by the kernel rather than by this library.  This module
//! defines path manipulation, open flags and the directory segment's
//! format: [`DirImage`] reads a segment where its bytes lie and builds each
//! edit's next image in one pass, with no owned copy of the directory; only
//! `readdir` builds owned [`DirEntry`]s.  The directory operations live in
//! [`SegFs`](crate::segfs::SegFs) and
//! [`PersistFs`](crate::persistfs::PersistFs), which keeps the same image
//! in a directory's store record, and the mount table in
//! [`Vfs`](crate::vfs::Vfs).

use crate::fdtable::{FLAG_APPEND, FLAG_RDONLY, FLAG_WRONLY};
use crate::{Result, UnixError};
use histar_kernel::object::ObjectId;
use histar_store::codec::{DecodeError, Decoder, Encoder, Wire};

/// Flags for [`UnixEnv::open`](crate::env::UnixEnv::open).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create the file if it does not exist.
    pub create: bool,
    /// Truncate the file to zero length on open.
    pub truncate: bool,
    /// All writes append to the end of the file.
    pub append: bool,
}

impl OpenFlags {
    /// Read-only open.
    pub fn read_only() -> OpenFlags {
        OpenFlags {
            read: true,
            ..Default::default()
        }
    }

    /// Write-only open, creating and truncating the file.
    pub fn write_create() -> OpenFlags {
        OpenFlags {
            write: true,
            create: true,
            truncate: true,
            ..Default::default()
        }
    }

    /// Read-write open, creating the file if needed.
    pub fn read_write_create() -> OpenFlags {
        OpenFlags {
            read: true,
            write: true,
            create: true,
            ..Default::default()
        }
    }

    /// The descriptor flag bits an open with these flags starts with.
    pub fn fd_flags(&self) -> u32 {
        let mut bits = 0;
        if self.append {
            bits |= FLAG_APPEND;
        }
        if self.read && !self.write {
            bits |= FLAG_RDONLY;
        }
        if self.write && !self.read {
            bits |= FLAG_WRONLY;
        }
        bits
    }
}

/// One entry of a directory listing, owned: what `readdir` returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirEntry {
    /// The file or subdirectory name (no slashes).
    pub name: String,
    /// The object named by this entry (a segment or a container).
    pub object: ObjectId,
    /// True if the entry names a directory (container).
    pub is_dir: bool,
}

/// A directory segment's bytes, read and edited where they lie: the working
/// form of a directory on SegFs and on PersistFs.
///
/// The image is a `u64` generation, a `u64` entry count, then one record
/// per entry — the name as a length-prefixed UTF-8 string, the object ID
/// as a `u64`, and an `is_dir` byte — in the store's little-endian codec.
/// Bytes past the last record are ignored, and an all-zero segment (how a
/// fresh directory starts) is the empty directory.  Every edit bumps the
/// generation, letting readers that cannot take the directory mutex detect
/// concurrent modification and retry (§5.1), and writes the records
/// exactly: trailing bytes are dropped.
///
/// Directory segments are writable by anything the kernel's labels admit,
/// so the bytes are untrusted input.  Every walk validates every record —
/// the framing, the UTF-8 of each name, the 61-bit object-ID range — and a
/// malformed record anywhere fails the whole operation with
/// [`UnixError::Corrupt`] rather than panicking or answering from part of
/// the directory.
pub struct DirImage<'a> {
    generation: u64,
    count: u64,
    /// Everything after the header: the records, then any trailing bytes.
    records: &'a [u8],
}

fn corrupt() -> UnixError {
    UnixError::Corrupt("directory segment")
}

/// The image's header, then its records lent; they are validated as they
/// are walked.  The format ignores bytes past the last record, so `get`
/// takes the rest of the input, and all-zero input is the empty
/// directory.  `put` writes the generation and the image's valid leading
/// records: the bytes an edit that keeps every entry writes, but for the
/// generation's bump.
impl<'a> Wire<'a> for DirImage<'a> {
    fn put(&self, e: &mut Encoder) {
        let entries: Vec<_> = self.entries().map_while(|entry| entry.ok()).collect();
        put_image(e, self.generation, &entries);
    }

    fn get(d: &mut Decoder<'a>, (): ()) -> core::result::Result<DirImage<'a>, DecodeError> {
        let bytes = d.rest();
        let zero = bytes.iter().all(|&b| b == 0);
        let mut d = Decoder::new(if zero { &[0; 16] } else { bytes });
        Ok(DirImage {
            generation: d.get_u64()?,
            count: d.get_u64()?,
            records: d.rest(),
        })
    }
}

/// Writes an image of `entries` at `generation`.
fn put_image(e: &mut Encoder, generation: u64, entries: &[(&str, ObjectId, bool)]) {
    e.put_u64(generation).put_u64(entries.len() as u64);
    for &(name, object, is_dir) in entries {
        e.put_str(name).put_u64(object.raw()).put_u8(is_dir.into());
    }
}

impl<'a> DirImage<'a> {
    /// Reads an image's header; the records are validated as they are
    /// walked.
    pub fn new(bytes: &'a [u8]) -> Result<DirImage<'a>> {
        DirImage::decode(bytes).map_err(|_| corrupt())
    }

    /// Every entry as `(name, object, is_dir)`, in image order, lent from
    /// the image; a malformed record ends the walk with an error.
    pub fn entries(&self) -> impl Iterator<Item = Result<(&'a str, ObjectId, bool)>> {
        let (mut d, mut left) = (Decoder::new(self.records), self.count);
        core::iter::from_fn(move || {
            left = left.checked_sub(1)?;
            match (d.get_str_slice(), ObjectId::get(&mut d, ()), d.get_u8()) {
                (Ok(name), Ok(object), Ok(is_dir)) => Some(Ok((name, object, is_dir != 0))),
                _ => {
                    left = 0;
                    Some(Err(corrupt()))
                }
            }
        })
    }

    /// The first entry named `name`, as `(object, is_dir)`, after checking
    /// every record.
    pub fn lookup(&self, name: &str) -> Result<Option<(ObjectId, bool)>> {
        self.entries().try_fold(None, |hit, entry| {
            let (entry, object, is_dir) = entry?;
            Ok(hit.or((entry == name).then_some((object, is_dir))))
        })
    }

    /// The owned listing `readdir` returns.
    pub fn listing(&self) -> Result<Vec<DirEntry>> {
        let mut out = Vec::with_capacity(self.count.min(1024) as usize);
        for entry in self.entries() {
            let (name, object, is_dir) = entry?;
            out.push(DirEntry {
                name: name.to_owned(),
                object,
                is_dir,
            });
        }
        Ok(out)
    }

    /// The next image with `name` naming `object` — every entry already
    /// named `name` dropped and the new one appended — and the object the
    /// first dropped one named; refused as [`DirImage::rename`] refuses a
    /// replacement.
    pub fn insert(
        &self,
        name: &str,
        object: ObjectId,
        is_dir: bool,
    ) -> Result<(Vec<u8>, Option<ObjectId>)> {
        let mut replaced = None;
        let image = self.splice(
            |entry, old, old_is_dir| {
                let hit = entry == name;
                replaced = replaced.or(hit.then_some((old, old_is_dir)));
                (!hit).then_some(entry)
            },
            Some((name, object, is_dir)),
        )?;
        Ok((image, replaceable(name, is_dir, replaced)?))
    }

    /// The next image without the first entry named `name`, and the object
    /// that entry named; `None` if there is none.
    pub fn remove(&self, name: &str) -> Result<Option<(Vec<u8>, ObjectId)>> {
        let mut hit = None;
        let image = self.splice(
            |entry, object, _| {
                let first = hit.is_none() && entry == name;
                hit = hit.or(first.then_some(object));
                (!first).then_some(entry)
            },
            None,
        )?;
        Ok(hit.map(|object| (image, object)))
    }

    /// The next image with the first entry named `from` renamed `to` in
    /// its place and every entry already named `to` dropped, and the object
    /// the first dropped one named, unless it is the renamed object itself;
    /// `None` if `from` is missing.  `from` and `to` differ: renaming a
    /// name onto itself changes nothing, so it is not an edit.
    ///
    /// A rename may replace only a file, and only with a file: replacing
    /// a directory is [`UnixError::IsADirectory`] (it would take its whole
    /// subtree with it), and a directory over a file is
    /// [`UnixError::NotADirectory`].
    pub fn rename(&self, from: &str, to: &str) -> Result<Option<(Vec<u8>, Option<ObjectId>)>> {
        let (mut moved, mut replaced) = (None, None);
        let image = self.splice(
            |entry, object, is_dir| {
                if entry == to {
                    replaced = replaced.or(Some((object, is_dir)));
                    return None;
                }
                let first = moved.is_none() && entry == from;
                moved = moved.or(first.then_some((object, is_dir)));
                Some(if first { to } else { entry })
            },
            None,
        )?;
        let Some((moved, is_dir)) = moved else {
            return Ok(None);
        };
        let replaced = replaceable(to, is_dir, replaced.filter(|&(r, _)| r != moved))?;
        Ok(Some((image, replaced)))
    }

    /// Builds the next image: the generation bumped, each entry kept under
    /// the name `edit` gives it or dropped where it gives none, then
    /// `append`; re-encoded, so the bytes are what an encode of the edited
    /// directory writes.
    fn splice<'n>(
        &self,
        mut edit: impl FnMut(&'n str, ObjectId, bool) -> Option<&'n str>,
        append: Option<(&str, ObjectId, bool)>,
    ) -> Result<Vec<u8>>
    where
        'a: 'n,
    {
        let mut kept = Vec::with_capacity(self.count.min(1024) as usize + 1);
        for entry in self.entries() {
            let (name, object, is_dir) = entry?;
            if let Some(name) = edit(name, object, is_dir) {
                kept.push((name, object, is_dir));
            }
        }
        kept.extend(append);
        let mut e = Encoder::with_capacity(self.records.len() + 64);
        put_image(&mut e, self.generation.wrapping_add(1), &kept);
        Ok(e.finish())
    }
}

/// The rename rule's check on the entry a new name replaces: only a file,
/// and only by a file (`is_dir` is the newcomer's).
fn replaceable(
    name: &str,
    is_dir: bool,
    replaced: Option<(ObjectId, bool)>,
) -> Result<Option<ObjectId>> {
    match replaced {
        Some((_, true)) => Err(UnixError::IsADirectory(name.to_string())),
        Some(_) if is_dir => Err(UnixError::NotADirectory(name.to_string())),
        replaced => Ok(replaced.map(|(object, _)| object)),
    }
}

/// Splits an absolute or relative path into its components, resolving `.`
/// and `..` lexically.  This is a thin alias for
/// [`Vfs::normalize`](crate::vfs::Vfs::normalize) — path parsing lives in
/// exactly one place.
pub fn split_path(cwd: &str, path: &str) -> Vec<String> {
    crate::vfs::Vfs::normalize(cwd, path)
}

/// Joins components back into an absolute path.
pub fn join_path(components: &[String]) -> String {
    if components.is_empty() {
        "/".to_string()
    } else {
        format!("/{}", components.join("/"))
    }
}

/// Metadata returned by `stat`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileStat {
    /// The underlying object.
    pub object: ObjectId,
    /// True for directories.
    pub is_dir: bool,
    /// File length in bytes (0 for directories).
    pub len: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    /// The image after each edit, with the edit's own checks.
    fn insert(image: &[u8], name: &str, n: u64, is_dir: bool) -> Vec<u8> {
        DirImage::new(image)
            .unwrap()
            .insert(name, oid(n), is_dir)
            .unwrap()
            .0
    }

    fn lookup(image: &[u8], name: &str) -> Option<(ObjectId, bool)> {
        DirImage::new(image).unwrap().lookup(name).unwrap()
    }

    #[test]
    fn directory_encode_decode_round_trip() {
        let d = insert(&insert(&[], "passwd", 5, false), "home", 9, true);
        let listing = DirImage::new(&d).unwrap().listing().unwrap();
        let names: Vec<_> = listing
            .iter()
            .map(|e| (e.name.as_str(), e.object, e.is_dir))
            .collect();
        assert_eq!(names, [("passwd", oid(5), false), ("home", oid(9), true)]);
        // A zeroed (fresh) segment is an empty directory, and trailing
        // bytes are not part of the image.
        assert!(DirImage::new(&[0u8; 64])
            .unwrap()
            .listing()
            .unwrap()
            .is_empty());
        let mut padded = d.clone();
        padded.extend_from_slice(&[7; 9]);
        assert_eq!(insert(&padded, "x", 1, false), insert(&d, "x", 1, false));
    }

    #[test]
    fn directory_operations_bump_generation() {
        let generation = |image: &[u8]| u64::from_le_bytes(image[..8].try_into().unwrap());
        assert_eq!(generation(&[0; 16]), 0);
        let d = insert(&[0; 16], "a", 1, false);
        assert_eq!(generation(&d), 1);
        assert!(lookup(&d, "a").is_some());
        let (d, replaced) = DirImage::new(&d)
            .unwrap()
            .rename("a", "b")
            .unwrap()
            .unwrap();
        assert_eq!((generation(&d), replaced), (2, None));
        assert!(lookup(&d, "a").is_none());
        assert_eq!(lookup(&d, "b"), Some((oid(1), false)));
        assert!(DirImage::new(&d)
            .unwrap()
            .rename("missing", "c")
            .unwrap()
            .is_none());
        let (d, removed) = DirImage::new(&d).unwrap().remove("b").unwrap().unwrap();
        assert_eq!(removed, oid(1));
        assert!(DirImage::new(&d).unwrap().remove("b").unwrap().is_none());
        assert_eq!(generation(&d), 3);
    }

    #[test]
    fn insert_replaces_same_name() {
        let d = insert(&insert(&[], "x", 1, false), "x", 2, false);
        assert_eq!(DirImage::new(&d).unwrap().entries().count(), 1);
        assert_eq!(lookup(&d, "x"), Some((oid(2), false)));
    }

    #[test]
    fn rename_overwrites_destination() {
        let d = insert(&insert(&[], "a", 1, false), "b", 2, false);
        let (d, replaced) = DirImage::new(&d)
            .unwrap()
            .rename("a", "b")
            .unwrap()
            .unwrap();
        assert_eq!(replaced, Some(oid(2)));
        assert_eq!(DirImage::new(&d).unwrap().entries().count(), 1);
        assert_eq!(lookup(&d, "b"), Some((oid(1), false)));
    }

    #[test]
    fn rename_replaces_only_a_file_with_a_file() {
        let d = insert(
            &insert(&insert(&[], "f", 1, false), "g", 2, false),
            "d",
            3,
            true,
        );
        let image = DirImage::new(&d).unwrap();
        assert!(matches!(
            image.rename("f", "d"),
            Err(UnixError::IsADirectory(_))
        ));
        assert!(matches!(
            image.rename("d", "f"),
            Err(UnixError::NotADirectory(_))
        ));
        assert!(matches!(
            image.insert("d", oid(4), false),
            Err(UnixError::IsADirectory(_))
        ));
        assert_eq!(image.rename("f", "g").unwrap().unwrap().1, Some(oid(2)));
        assert_eq!(image.rename("d", "e").unwrap().unwrap().1, None);
    }

    #[test]
    fn path_splitting() {
        assert_eq!(split_path("/", "/a/b/c"), vec!["a", "b", "c"]);
        assert_eq!(split_path("/a/b", "c"), vec!["a", "b", "c"]);
        assert_eq!(split_path("/a/b", "../c"), vec!["a", "c"]);
        assert_eq!(split_path("/a/b", "./c/./d"), vec!["a", "b", "c", "d"]);
        assert_eq!(split_path("/", ".."), Vec::<String>::new());
        assert_eq!(split_path("/", "//x///y/"), vec!["x", "y"]);
        assert_eq!(join_path(&split_path("/", "/a/b")), "/a/b");
        assert_eq!(join_path(&[]), "/");
    }

    #[test]
    fn open_flag_presets() {
        assert!(OpenFlags::read_only().read);
        assert!(!OpenFlags::read_only().write);
        assert!(OpenFlags::write_create().truncate);
        assert!(OpenFlags::read_write_create().create);
    }
}
