//! Object identity, headers and flags.
//!
//! Every kernel object has a unique 61-bit object ID, a label, a quota
//! bounding its storage usage, 64 bytes of mutable user-defined metadata, a
//! 32-byte descriptive string, and a few flags such as the irrevocable
//! `immutable` flag (§3).

use histar_label::Label;

/// Number of bits in an object ID (same space as category names).
pub const OBJECT_ID_BITS: u32 = 61;

/// Mask selecting the low 61 bits.
pub const OBJECT_ID_MASK: u64 = (1u64 << OBJECT_ID_BITS) - 1;

/// Maximum length of an object's descriptive string, in bytes.
pub const DESCRIP_LEN: usize = 32;

/// Size of the mutable user-defined metadata area, in bytes.
pub const METADATA_LEN: usize = 64;

/// The reserved quota value meaning "unlimited" (the root container).
pub const QUOTA_INFINITE: u64 = u64::MAX;

/// A unique, 61-bit kernel object identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(u64);

impl ObjectId {
    /// Constructs an object ID from its raw value.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in 61 bits.
    pub fn from_raw(raw: u64) -> ObjectId {
        assert!(raw <= OBJECT_ID_MASK, "object id exceeds 61 bits");
        ObjectId(raw)
    }

    /// The raw 61-bit value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl core::fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Obj({:#x})", self.0)
    }
}

impl core::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "#{:x}", self.0)
    }
}

/// The six kernel object types (plus nothing else — §3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ObjectType {
    /// A variable-length byte array.
    Segment,
    /// A thread of execution, with a mutable label and clearance.
    Thread,
    /// A list of virtual-address mappings onto segments.
    AddressSpace,
    /// A protected control-transfer entry point carrying privilege.
    Gate,
    /// A hierarchical holder of hard links to other objects.
    Container,
    /// A hardware device (the network interface).
    Device,
}

impl ObjectType {
    /// All object types.
    pub const ALL: [ObjectType; 6] = [
        ObjectType::Segment,
        ObjectType::Thread,
        ObjectType::AddressSpace,
        ObjectType::Gate,
        ObjectType::Container,
        ObjectType::Device,
    ];

    /// Bit used in a container's `avoid_types` mask for this type.
    pub fn mask_bit(self) -> u8 {
        match self {
            ObjectType::Segment => 1 << 0,
            ObjectType::Thread => 1 << 1,
            ObjectType::AddressSpace => 1 << 2,
            ObjectType::Gate => 1 << 3,
            ObjectType::Container => 1 << 4,
            ObjectType::Device => 1 << 5,
        }
    }

    /// Whether this object type's label may contain ownership (`⋆`).
    ///
    /// Only threads and gates can own categories (Figure 3).
    pub fn may_own_categories(self) -> bool {
        matches!(self, ObjectType::Thread | ObjectType::Gate)
    }

    /// Short lowercase name, used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            ObjectType::Segment => "segment",
            ObjectType::Thread => "thread",
            ObjectType::AddressSpace => "address-space",
            ObjectType::Gate => "gate",
            ObjectType::Container => "container",
            ObjectType::Device => "device",
        }
    }
}

/// Per-object flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObjectFlags {
    /// The object is irrevocably read-only.
    pub immutable: bool,
    /// The object's quota can no longer change; required before the object
    /// can be hard-linked into additional containers (§3.3).
    pub fixed_quota: bool,
}

/// A `⟨container ID, object ID⟩` pair.
///
/// Most system calls name objects by container entry rather than bare ID so
/// the kernel can check that the calling thread is allowed to know of the
/// object's existence (§3.2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ContainerEntry {
    /// The container through which the object is being named.
    pub container: ObjectId,
    /// The object itself.
    pub object: ObjectId,
}

impl ContainerEntry {
    /// Creates a container entry.
    pub fn new(container: ObjectId, object: ObjectId) -> ContainerEntry {
        ContainerEntry { container, object }
    }

    /// The special self-referential entry `⟨D, D⟩`: every container contains
    /// itself, so a thread that can read `D` can always name it this way.
    pub fn self_entry(container: ObjectId) -> ContainerEntry {
        ContainerEntry {
            container,
            object: container,
        }
    }
}

impl core::fmt::Display for ContainerEntry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "<{}, {}>", self.container, self.object)
    }
}

/// The metadata every kernel object carries, regardless of type.
#[derive(Clone, Debug)]
pub struct ObjectHeader {
    /// The object's unique ID.
    pub id: ObjectId,
    /// The object's (immutable, except for threads) information-flow label.
    pub label: Label,
    /// The object's type.
    pub object_type: ObjectType,
    /// Storage quota in bytes ([`QUOTA_INFINITE`] for the root container).
    pub quota: u64,
    /// Current storage usage in bytes.
    pub usage: u64,
    /// 64 bytes of mutable, user-defined metadata (e.g. modification time).
    pub metadata: [u8; METADATA_LEN],
    /// Descriptive string giving a rough idea of the object's purpose.
    pub descrip: String,
    /// Object flags.
    pub flags: ObjectFlags,
    /// Number of containers holding a hard link to this object.
    pub links: u32,
}

impl ObjectHeader {
    /// Creates a header with empty metadata and default flags.
    ///
    /// The descriptive string is truncated to [`DESCRIP_LEN`] bytes.
    pub fn new(
        id: ObjectId,
        object_type: ObjectType,
        label: Label,
        quota: u64,
        descrip: &str,
    ) -> ObjectHeader {
        let descrip = truncate_descrip(descrip);
        ObjectHeader {
            id,
            label,
            object_type,
            quota,
            usage: 0,
            metadata: [0u8; METADATA_LEN],
            descrip,
            flags: ObjectFlags::default(),
            links: 0,
        }
    }

    /// Remaining quota (saturating; infinite quota always has space).
    pub fn quota_remaining(&self) -> u64 {
        if self.quota == QUOTA_INFINITE {
            QUOTA_INFINITE
        } else {
            self.quota.saturating_sub(self.usage)
        }
    }
}

/// Truncates a descriptive string to [`DESCRIP_LEN`] bytes on a character
/// boundary.
pub fn truncate_descrip(s: &str) -> String {
    if s.len() <= DESCRIP_LEN {
        return s.to_string();
    }
    let mut end = DESCRIP_LEN;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    s[..end].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use histar_label::Level;

    #[test]
    fn object_id_bounds() {
        let id = ObjectId::from_raw(OBJECT_ID_MASK);
        assert_eq!(id.raw(), OBJECT_ID_MASK);
        assert_eq!(id.to_string(), format!("#{:x}", OBJECT_ID_MASK));
    }

    #[test]
    #[should_panic(expected = "61 bits")]
    fn oversized_object_id_panics() {
        let _ = ObjectId::from_raw(1 << 61);
    }

    #[test]
    fn only_threads_and_gates_may_own() {
        for t in ObjectType::ALL {
            assert_eq!(
                t.may_own_categories(),
                matches!(t, ObjectType::Thread | ObjectType::Gate),
                "{t:?}"
            );
        }
    }

    #[test]
    fn mask_bits_are_distinct() {
        let mut seen = 0u8;
        for t in ObjectType::ALL {
            assert_eq!(seen & t.mask_bit(), 0);
            seen |= t.mask_bit();
        }
    }

    #[test]
    fn descrip_truncation() {
        assert_eq!(truncate_descrip("short"), "short");
        let long = "x".repeat(100);
        assert_eq!(truncate_descrip(&long).len(), DESCRIP_LEN);
        // Multi-byte characters are not split.
        let emoji = "é".repeat(40);
        let t = truncate_descrip(&emoji);
        assert!(t.len() <= DESCRIP_LEN);
        assert!(std::str::from_utf8(t.as_bytes()).is_ok());
    }

    #[test]
    fn quota_remaining() {
        let mut h = ObjectHeader::new(
            ObjectId::from_raw(1),
            ObjectType::Segment,
            Label::new(Level::L1),
            1000,
            "seg",
        );
        assert_eq!(h.quota_remaining(), 1000);
        h.usage = 400;
        assert_eq!(h.quota_remaining(), 600);
        h.usage = 2000;
        assert_eq!(h.quota_remaining(), 0);
        h.quota = QUOTA_INFINITE;
        assert_eq!(h.quota_remaining(), QUOTA_INFINITE);
    }

    #[test]
    fn container_entry_display_and_self() {
        let d = ObjectId::from_raw(5);
        let o = ObjectId::from_raw(9);
        let e = ContainerEntry::new(d, o);
        assert_eq!(e.to_string(), "<#5, #9>");
        let s = ContainerEntry::self_entry(d);
        assert_eq!(s.container, s.object);
    }
}
