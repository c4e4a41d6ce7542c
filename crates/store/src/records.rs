//! The persist record namespace: store keys reserved for data that lives
//! *directly* in the single-level store, outside the kernel object heap.
//!
//! Kernel objects occupy the low 61 bits of the key space (their object
//! IDs) and the machine metadata blob sits at `1 << 62`.  Every key with
//! bit 63 set belongs to the **persist record namespace**: keyed records
//! owned by user-level subsystems (today, the `/persist` filesystem) that
//! the snapshot engine must neither decode as kernel objects nor sweep as
//! stale.  How a subsystem lays its records out under that bit is its own
//! business: PersistFs's layout lives in `histar-unix`'s `persistfs`.

/// Bit marking a key as belonging to the persist record namespace.
pub const PERSIST_KEY_BASE: u64 = 1 << 63;

/// True if `key` lies in the persist record namespace (and therefore must
/// not be decoded as a kernel object or swept at snapshot time).
pub fn is_persist_key(key: u64) -> bool {
    key & PERSIST_KEY_BASE != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespace_is_disjoint_from_object_ids_and_machine_meta() {
        assert!(!is_persist_key((1u64 << 61) - 1)); // max object ID
        assert!(!is_persist_key(1 << 62)); // machine metadata key
        assert!(is_persist_key(PERSIST_KEY_BASE));
        assert!(is_persist_key(u64::MAX));
    }
}
