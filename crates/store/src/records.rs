//! The typed record namespace: store keys reserved for data that lives
//! *directly* in the single-level store, outside the kernel object heap.
//!
//! Kernel objects occupy the low 61 bits of the key space (their object
//! IDs) and the machine metadata blob sits at `1 << 62`.  Every key with
//! bit 63 set belongs to the **persist record namespace**: keyed records
//! owned by user-level subsystems (today, the `/persist` filesystem) that
//! the snapshot engine must neither decode as kernel objects nor sweep as
//! stale.  Within the namespace, bits 56..61 select a record *kind* and
//! the low 56 bits identify the record: an owning inode and, for an
//! extent, its index within the file.  Records are fetched by key only;
//! nothing walks a key range.
//!
//! ```text
//! 63   62..61  60..56   55..24        23..0
//! [1]  [0 0]   [kind]   [owner id]    [extent index]
//! ```
//!
//! Inode keys put the inode number in the *owner* position with a zero
//! index.  A directory is one inode record: its entries follow its inode
//! header, so it has no records of its own.

/// Bit marking a key as belonging to the persist record namespace.
pub const PERSIST_KEY_BASE: u64 = 1 << 63;

/// Number of low bits identifying a record within its kind.
const PAYLOAD_BITS: u32 = 56;

/// Bits of the payload identifying the owning inode.
const OWNER_BITS: u32 = 32;

/// Bits of the payload identifying the extent within the owner.
const SLOT_BITS: u32 = PAYLOAD_BITS - OWNER_BITS;

/// Maximum extent index representable in a record key.
pub const MAX_SLOT: u64 = (1 << SLOT_BITS) - 1;

/// The kinds of typed records in the persist namespace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// Filesystem superblock: allocation counters and the root inode.
    Meta = 0,
    /// One inode: type, length and (in the kernel framing) its label; a
    /// directory's entries follow.
    Inode = 1,
    /// One fixed-size extent of file data, keyed under its file's inode.
    /// (Kind 2 is unused, so extent keys keep their place.)
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

/// The filesystem superblock record.
pub const META_KEY: u64 = PERSIST_KEY_BASE; // record_key(Meta, 0)

/// The key of inode `ino`.
pub fn inode_key(ino: u32) -> u64 {
    record_key(RecordKind::Inode, (ino as u64) << SLOT_BITS)
}

/// The key of extent `index` of file inode `ino`.
pub fn extent_key(ino: u32, index: u64) -> u64 {
    debug_assert!(index <= MAX_SLOT, "extent index exceeds 24 bits");
    record_key(RecordKind::Extent, ((ino as u64) << SLOT_BITS) | index)
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
    fn kinds_partition_the_namespace() {
        assert_ne!(inode_key(3), extent_key(3, 0));
        assert!(extent_key(3, MAX_SLOT) < extent_key(4, 0));
        assert!(inode_key(u32::MAX) < extent_key(0, 0));
        assert!(META_KEY < inode_key(0));
    }
}
