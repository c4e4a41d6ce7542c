//! The typed record namespace: store keys reserved for data that lives
//! *directly* in the single-level store, outside the kernel object heap.
//!
//! Kernel objects occupy the low 61 bits of the key space (their object
//! IDs) and the machine metadata blob sits at `1 << 62`.  Every key with
//! bit 63 set belongs to the **persist record namespace**: keyed records
//! owned by user-level subsystems (today, the `/persist` filesystem) that
//! the snapshot engine must neither decode as kernel objects nor sweep as
//! stale.  Within the namespace, bits 56..61 select a record *kind* and
//! the low 56 bits identify the record, laid out so that one directory's
//! entries (and one file's extents) are contiguous in key order — a
//! range scan of the object map enumerates them without touching anything
//! else.
//!
//! ```text
//! 63   62..61  60..56   55..24        23..0
//! [1]  [0 0]   [kind]   [owner id]    [slot / extent index]
//! ```
//!
//! Inode keys put the inode number in the *owner* position with a zero
//! slot, so `owner_range` covers an inode and nothing else when needed.

/// Bit marking a key as belonging to the persist record namespace.
pub const PERSIST_KEY_BASE: u64 = 1 << 63;

/// Number of low bits identifying a record within its kind.
const PAYLOAD_BITS: u32 = 56;

/// Bits of the payload identifying the owning object (directory inode for
/// dirents, file inode for extents).
const OWNER_BITS: u32 = 32;

/// Bits of the payload identifying the slot within the owner.
const SLOT_BITS: u32 = PAYLOAD_BITS - OWNER_BITS;

/// Maximum slot / extent index representable in a record key.
pub const MAX_SLOT: u64 = (1 << SLOT_BITS) - 1;

/// The kinds of typed records in the persist namespace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// Filesystem superblock: allocation counters and the root inode.
    Meta = 0,
    /// One inode: type, length and (in the kernel framing) its label.
    Inode = 1,
    /// One directory entry, keyed under its directory's inode.
    Dirent = 2,
    /// One fixed-size extent of file data, keyed under its file's inode.
    Extent = 3,
}

/// True if `key` lies in the persist record namespace (and therefore must
/// not be decoded as a kernel object or swept at snapshot time).
pub fn is_persist_key(key: u64) -> bool {
    key & PERSIST_KEY_BASE != 0
}

/// Composes a raw record key from a kind and a 56-bit payload.
pub fn record_key(kind: RecordKind, payload: u64) -> u64 {
    debug_assert!(payload < (1 << PAYLOAD_BITS), "payload exceeds 56 bits");
    PERSIST_KEY_BASE | ((kind as u64) << PAYLOAD_BITS) | payload
}

/// The half-open key range `[lo, hi)` covering every record of `kind`.
pub fn kind_range(kind: RecordKind) -> (u64, u64) {
    let lo = record_key(kind, 0);
    (lo, lo + (1 << PAYLOAD_BITS))
}

/// The filesystem superblock record.
pub const META_KEY: u64 = PERSIST_KEY_BASE; // record_key(Meta, 0)

/// The key of inode `ino`.
pub fn inode_key(ino: u32) -> u64 {
    record_key(RecordKind::Inode, (ino as u64) << SLOT_BITS)
}

/// The key of directory entry `slot` under directory inode `dir`.
pub fn dirent_key(dir: u32, slot: u64) -> u64 {
    debug_assert!(slot <= MAX_SLOT, "dirent slot exceeds 24 bits");
    record_key(RecordKind::Dirent, ((dir as u64) << SLOT_BITS) | slot)
}

/// The half-open key range covering every directory entry of `dir`.
pub fn dirent_range(dir: u32) -> (u64, u64) {
    let lo = dirent_key(dir, 0);
    (lo, lo + (1 << SLOT_BITS))
}

/// The key of extent `index` of file inode `ino`.
pub fn extent_key(ino: u32, index: u64) -> u64 {
    debug_assert!(index <= MAX_SLOT, "extent index exceeds 24 bits");
    record_key(RecordKind::Extent, ((ino as u64) << SLOT_BITS) | index)
}

/// The slot (dirent) or index (extent) encoded in a record key.
pub fn key_slot(key: u64) -> u64 {
    key & MAX_SLOT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespace_is_disjoint_from_object_ids_and_machine_meta() {
        assert!(!is_persist_key((1u64 << 61) - 1)); // max object ID
        assert!(!is_persist_key(1 << 62)); // machine metadata key
        assert!(is_persist_key(META_KEY));
        assert!(is_persist_key(inode_key(u32::MAX)));
        assert!(is_persist_key(extent_key(u32::MAX, MAX_SLOT)));
    }

    #[test]
    fn ranges_cover_exactly_their_owner() {
        let (lo, hi) = dirent_range(7);
        assert!(dirent_key(7, 0) >= lo && dirent_key(7, 0) < hi);
        assert!(dirent_key(7, MAX_SLOT) < hi);
        assert!(dirent_key(8, 0) >= hi);
        assert!(dirent_key(6, MAX_SLOT) < lo);

        // Dirents and extents of the same numeric owner never collide.
        let (dlo, dhi) = dirent_range(3);
        assert!(extent_key(3, 0) >= dhi || extent_key(3, MAX_SLOT) < dlo);
    }

    #[test]
    fn kinds_partition_the_namespace() {
        let kinds = [
            RecordKind::Meta,
            RecordKind::Inode,
            RecordKind::Dirent,
            RecordKind::Extent,
        ];
        for w in kinds.windows(2) {
            let (_, hi_a) = kind_range(w[0]);
            let (lo_b, _) = kind_range(w[1]);
            assert_eq!(hi_a, lo_b, "kind ranges must tile the namespace");
        }
    }

    #[test]
    fn key_slot_round_trips() {
        assert_eq!(key_slot(dirent_key(9, 123)), 123);
        assert_eq!(key_slot(extent_key(2, MAX_SLOT)), MAX_SLOT);
    }
}
