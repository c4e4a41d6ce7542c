//! Per-type payloads of the six kernel object types.
//!
//! The kernel stores each object as an [`ObjectHeader`](crate::object::ObjectHeader)
//! plus one of the bodies defined here.  Figure 5 of the paper shows how the
//! types may link to each other: containers hold hard links to anything,
//! address spaces soft-link segments, threads soft-link address spaces, and
//! gates soft-link address spaces.

use crate::abi::ThreadRuntime;
use crate::object::{ContainerEntry, ObjectId, ObjectType};
use histar_label::Label;
use std::borrow::Cow;

/// One page of zeros, lent out for the parts of a segment never written.
static ZERO_PAGE: [u8; 4096] = [0; 4096];

/// A segment: a variable-length byte array, similar to a file.
///
/// Demand-zero: `bytes` holds the prefix up to the highest byte ever
/// written, and every byte in `bytes.len()..len` reads as zero, so a
/// segment costs host memory for what was written to it, not for its
/// length.  Equality compares contents, not representation.
#[derive(Clone, Debug, Default)]
pub struct SegmentBody {
    bytes: Vec<u8>,
    len: usize,
}

impl SegmentBody {
    /// Creates a zero-filled segment of `len` bytes (allocating nothing).
    pub fn zeroed(len: usize) -> SegmentBody {
        SegmentBody {
            bytes: Vec::new(),
            len,
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The written prefix; every byte after it, up to `len`, is zero.
    pub(crate) fn written(&self) -> &[u8] {
        &self.bytes
    }

    /// The whole contents, lent in order: the written prefix, then the
    /// zero tail one zero page at a time.
    pub(crate) fn lend_parts(&self) -> impl Iterator<Item = &[u8]> {
        let tail = self.len - self.bytes.len();
        let zeros = (0..tail)
            .step_by(ZERO_PAGE.len())
            .map(move |at| &ZERO_PAGE[..(tail - at).min(ZERO_PAGE.len())]);
        std::iter::once(&self.bytes[..]).chain(zeros)
    }

    /// Resizes the segment: growth reads as zeros, and a shrink drops the
    /// written bytes past the new end so a later grow cannot revive them.
    pub fn resize(&mut self, len: usize) {
        self.bytes.truncate(len);
        self.len = len;
    }

    /// Bytes `start..end` (`start <= end <= len`): borrowed from the
    /// written prefix or the zero page where one of them covers the range,
    /// assembled otherwise.
    pub(crate) fn range(&self, start: usize, end: usize) -> Cow<'_, [u8]> {
        let w = self.bytes.len();
        if end <= w {
            Cow::Borrowed(&self.bytes[start..end])
        } else if start >= w && end - start <= ZERO_PAGE.len() {
            Cow::Borrowed(&ZERO_PAGE[..end - start])
        } else {
            let mut out = self.bytes[start.min(w)..].to_vec();
            out.resize(end - start, 0);
            Cow::Owned(out)
        }
    }

    /// Copies `data` in at `offset`, growing the segment (and the written
    /// prefix only up to the write's end) if it ends past `len`.
    pub(crate) fn write(&mut self, offset: usize, data: &[u8]) {
        let end = offset + data.len();
        if end > self.bytes.len() {
            self.bytes.resize(end, 0);
        }
        self.bytes[offset..end].copy_from_slice(data);
        self.len = self.len.max(end);
    }

    /// The whole contents, zeros included.
    pub fn to_vec(&self) -> Vec<u8> {
        self.range(0, self.len).into_owned()
    }
}

impl From<Vec<u8>> for SegmentBody {
    fn from(bytes: Vec<u8>) -> SegmentBody {
        let len = bytes.len();
        SegmentBody { bytes, len }
    }
}

impl PartialEq for SegmentBody {
    fn eq(&self, other: &SegmentBody) -> bool {
        let (long, short) = if self.bytes.len() >= other.bytes.len() {
            (&self.bytes, &other.bytes)
        } else {
            (&other.bytes, &self.bytes)
        };
        self.len == other.len
            && long.starts_with(short)
            && long[short.len()..].iter().all(|&b| b == 0)
    }
}

impl Eq for SegmentBody {}

/// A container: hierarchical holder of hard links (§3.2).
///
/// A container may hold several links to one object: each `hard_link` is a
/// link of its own, charged on its own and removed by its own `obj_unref`.
///
/// Membership is probed on every syscall's `check_entry`, so the
/// insertion-ordered link list carries a sorted index alongside it:
/// `contains` is O(log n) however many threads a burst links into one
/// container, while enumeration (and the snapshot encoding) still sees
/// insertion order.
#[derive(Clone, Debug, Default)]
pub struct ContainerBody {
    /// Hard links to objects, in insertion order.
    pub(crate) links: Vec<ObjectId>,
    /// Membership index over `links`: how many links each object has here
    /// (invariant: the counts of `links`).
    index: std::collections::BTreeMap<ObjectId, u32>,
    /// Object ID of the parent container (`None` only for the root).
    pub parent: Option<ObjectId>,
    /// Bitmask of [`ObjectType::mask_bit`]s that may *not* be created in
    /// this container or any of its descendants.
    pub avoid_types: u8,
}

impl ContainerBody {
    /// Rebuilds a container body from its serialized parts, restoring the
    /// membership index.
    pub fn with_links(
        links: Vec<ObjectId>,
        parent: Option<ObjectId>,
        avoid_types: u8,
    ) -> ContainerBody {
        let mut body = ContainerBody {
            parent,
            avoid_types,
            ..ContainerBody::default()
        };
        for id in links {
            body.link(id);
        }
        body
    }

    /// Returns true if the container holds a link to `id`.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.index.contains_key(&id)
    }

    /// The linked objects, in insertion order.
    pub fn links(&self) -> &[ObjectId] {
        &self.links
    }

    /// Adds one hard link.
    pub fn link(&mut self, id: ObjectId) {
        *self.index.entry(id).or_insert(0) += 1;
        self.links.push(id);
    }

    /// Removes one hard link (the oldest, if `id` has several), returning
    /// true if there was one.  The ordered list shifts (O(n) memmove); the
    /// hot path is `contains`, not unlink.  A sole link is searched for
    /// from the back, where the newest links are: a short-lived object is
    /// usually one of those.
    pub fn unlink(&mut self, id: ObjectId) -> bool {
        let Some(count) = self.index.get_mut(&id) else {
            return false;
        };
        *count -= 1;
        let mut links = self.links.iter();
        let pos = if *count == 0 {
            self.index.remove(&id);
            links.rposition(|&x| x == id)
        } else {
            links.position(|&x| x == id)
        }
        .expect("index and links agree");
        self.links.remove(pos);
        true
    }

    /// Whether objects of `ty` may be created under this container.
    pub fn allows_type(&self, ty: ObjectType) -> bool {
        self.avoid_types & ty.mask_bit() == 0
    }
}

/// The scheduling state of a thread.  Whether a runnable thread is parked
/// is the scheduler's business, not the kernel's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// The thread may run.
    Runnable,
    /// The thread has been halted and will never run again.
    Halted,
}

/// A pending alert delivered to a thread (the kernel half of Unix signals).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alert {
    /// Argument passed to the alert handler (the Unix library passes the
    /// signal number here).
    pub code: u64,
}

/// A thread: the only active object type (§3.1).
///
/// The thread's label and clearance are mutable (via `self_set_label` /
/// `self_set_clearance`); everything else about the thread's identity is
/// fixed at creation.
#[derive(Clone, Debug)]
pub struct ThreadBody {
    /// The thread's clearance, bounding how far it may taint itself.
    pub clearance: Label,
    /// Container entry of the thread's current address space.
    pub address_space: Option<ContainerEntry>,
    /// Abstract entry point (the user-level library interprets it).
    pub entry_point: u64,
    /// Current scheduling state.
    pub state: ThreadState,
    /// Alerts queued for delivery.
    pub pending_alerts: Vec<Alert>,
    /// Completion queue and syscall count: runtime state, never
    /// serialized (a decoded thread starts with a fresh one).  The
    /// scheduler's wake probe reads this queue's and `pending_alerts`'
    /// emptiness directly.
    pub(crate) runtime: Box<ThreadRuntime>,
}

impl ThreadBody {
    /// Creates a runnable thread body with the given clearance.
    pub fn new(clearance: Label) -> ThreadBody {
        ThreadBody {
            clearance,
            address_space: None,
            entry_point: 0,
            state: ThreadState::Runnable,
            pending_alerts: Vec::new(),
            runtime: Box::default(),
        }
    }
}

/// Access permissions of one address-space mapping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MappingFlags {
    /// Reads are permitted.
    pub read: bool,
    /// Writes are permitted.
    pub write: bool,
    /// Instruction fetches are permitted.
    pub execute: bool,
}

impl MappingFlags {
    /// Read-only mapping.
    pub fn ro() -> MappingFlags {
        MappingFlags {
            read: true,
            write: false,
            execute: false,
        }
    }

    /// Read-write mapping.
    pub fn rw() -> MappingFlags {
        MappingFlags {
            read: true,
            write: true,
            execute: false,
        }
    }

    /// Read-execute mapping.
    pub fn rx() -> MappingFlags {
        MappingFlags {
            read: true,
            write: false,
            execute: true,
        }
    }
}

/// One `VA → ⟨segment, offset, npages, flags⟩` mapping (§3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mapping {
    /// Page-aligned virtual address.
    pub va: u64,
    /// Container entry of the mapped segment.
    pub segment: ContainerEntry,
    /// Byte offset within the segment.
    pub offset: u64,
    /// Number of 4 KiB pages mapped.
    pub npages: u64,
    /// Access permissions.
    pub flags: MappingFlags,
}

/// An address space: a list of mappings.
#[derive(Clone, Debug, Default)]
pub struct AddressSpaceBody {
    /// The mappings, in no particular order.
    pub mappings: Vec<Mapping>,
}

impl AddressSpaceBody {
    /// Inserts or replaces the mapping starting at `mapping.va`.
    pub fn map(&mut self, mapping: Mapping) {
        self.mappings.retain(|m| m.va != mapping.va);
        self.mappings.push(mapping);
    }
}

/// A gate: protected control transfer with privilege (§3.5).
#[derive(Clone, Debug)]
pub struct GateBody {
    /// The gate's clearance, an upper bound on the label a caller may
    /// request when entering.
    pub clearance: Label,
    /// Container entry of the address space the invoking thread switches to.
    pub address_space: Option<ContainerEntry>,
    /// Initial entry point for threads entering through the gate.
    pub entry_point: u64,
    /// Initial stack pointer.
    pub stack_pointer: u64,
    /// Closure arguments passed to the entry-point function.
    pub closure_args: Vec<u64>,
}

impl GateBody {
    /// Creates a gate body with the given clearance and entry point.
    pub fn new(clearance: Label, entry_point: u64) -> GateBody {
        GateBody {
            clearance,
            address_space: None,
            entry_point,
            stack_pointer: 0,
            closure_args: Vec::new(),
        }
    }
}

/// Which device a device object models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    /// A network interface (the paper's only user-visible device type).
    Network,
    /// A console/TTY used by examples to show user-visible output.
    Console,
}

/// A device object: the kernel network API is just "get the MAC address,
/// provide a transmit or receive buffer, wait for completion" (§4).
#[derive(Clone, Debug)]
pub struct DeviceBody {
    /// What kind of device this is.
    pub kind: DeviceKind,
    /// MAC address (network devices).
    pub mac: [u8; 6],
    /// Frames received from the outside world, waiting for a receive buffer.
    pub rx_queue: Vec<Vec<u8>>,
    /// Frames transmitted by the machine.
    pub tx_queue: Vec<Vec<u8>>,
}

impl DeviceBody {
    /// Creates a network device with the given MAC address.
    pub fn network(mac: [u8; 6]) -> DeviceBody {
        DeviceBody {
            kind: DeviceKind::Network,
            mac,
            rx_queue: Vec::new(),
            tx_queue: Vec::new(),
        }
    }

    /// Creates a console device.
    pub fn console() -> DeviceBody {
        DeviceBody {
            kind: DeviceKind::Console,
            mac: [0; 6],
            rx_queue: Vec::new(),
            tx_queue: Vec::new(),
        }
    }
}

/// The body of a kernel object: exactly one of the six types.
#[derive(Clone, Debug)]
pub enum ObjectBody {
    /// See [`SegmentBody`].
    Segment(SegmentBody),
    /// See [`ContainerBody`].
    Container(ContainerBody),
    /// See [`ThreadBody`].
    Thread(ThreadBody),
    /// See [`AddressSpaceBody`].
    AddressSpace(AddressSpaceBody),
    /// See [`GateBody`].
    Gate(GateBody),
    /// See [`DeviceBody`].
    Device(DeviceBody),
}

impl ObjectBody {
    /// The object type of this body.
    pub fn object_type(&self) -> ObjectType {
        match self {
            ObjectBody::Segment(_) => ObjectType::Segment,
            ObjectBody::Container(_) => ObjectType::Container,
            ObjectBody::Thread(_) => ObjectType::Thread,
            ObjectBody::AddressSpace(_) => ObjectType::AddressSpace,
            ObjectBody::Gate(_) => ObjectType::Gate,
            ObjectBody::Device(_) => ObjectType::Device,
        }
    }

    /// Approximate storage footprint of the body in bytes, used for quota
    /// accounting.
    pub fn storage_bytes(&self) -> u64 {
        match self {
            ObjectBody::Segment(s) => s.len() as u64,
            ObjectBody::Container(c) => 64 + 8 * c.links.len() as u64,
            ObjectBody::Thread(_) => 512,
            ObjectBody::AddressSpace(a) => 64 + 48 * a.mappings.len() as u64,
            ObjectBody::Gate(g) => 128 + 8 * g.closure_args.len() as u64,
            ObjectBody::Device(_) => 256,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histar_label::{Label, Level};

    fn ce(c: u64, o: u64) -> ContainerEntry {
        ContainerEntry::new(ObjectId::from_raw(c), ObjectId::from_raw(o))
    }

    #[test]
    fn segment_resize_zero_fills() {
        let mut s = SegmentBody::default();
        assert!(s.is_empty());
        s.resize(10);
        s.write(5, &[7]);
        s.resize(20);
        assert_eq!(s.len(), 20);
        assert_eq!(s.written().len(), 6, "the written prefix ends at the write");
        assert_eq!(s.to_vec(), [&[0; 5][..], &[7], &[0; 14]].concat());
        s.resize(3);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn segment_shrink_then_grow_reads_zeros_where_the_old_bytes_were() {
        let mut s = SegmentBody::zeroed(8192);
        assert!(s.written().is_empty(), "a fresh segment holds no bytes");
        s.write(100, &[0xaa; 5000]);
        s.resize(200);
        s.resize(8192);
        let mut model = vec![0u8; 8192];
        model[100..200].fill(0xaa);
        assert_eq!(s.to_vec(), model);
        assert_eq!(s.range(4096, 8192), &[0u8; 4096][..]);
        assert_eq!(s.range(150, 250), &model[150..250]);
        // Equality is by contents: a written zero equals a demand-zero one.
        let mut z = SegmentBody::zeroed(16);
        z.write(0, &[0; 4]);
        assert_eq!(z, SegmentBody::zeroed(16));
        assert_eq!(SegmentBody::from(vec![0; 16]), SegmentBody::zeroed(16));
        assert_ne!(SegmentBody::zeroed(15), SegmentBody::zeroed(16));
        z.write(3, &[1]);
        assert_ne!(z, SegmentBody::zeroed(16));
    }

    #[test]
    fn container_link_unlink() {
        let mut c = ContainerBody::default();
        let a = ObjectId::from_raw(1);
        let b = ObjectId::from_raw(2);
        c.link(a);
        c.link(a); // a second link of its own
        c.link(b);
        assert_eq!(c.links, [a, a, b]);
        assert!(c.unlink(a));
        assert!(c.contains(a));
        assert!(c.unlink(a));
        assert!(!c.unlink(a));
        assert!(!c.contains(a));
        assert_eq!(c.links, [b]);
    }

    #[test]
    fn unlink_of_a_repeated_link_removes_the_oldest() {
        let mut c = ContainerBody::default();
        let a = ObjectId::from_raw(1);
        let b = ObjectId::from_raw(2);
        let d = ObjectId::from_raw(3);
        for id in [a, b, a] {
            c.link(id);
        }
        assert!(c.unlink(a));
        assert_eq!(c.links, [b, a]);
        // A sole link goes from wherever it is.
        c.link(d);
        assert!(c.unlink(b));
        assert_eq!(c.links, [a, d]);
    }

    #[test]
    fn container_avoid_types() {
        let mut c = ContainerBody::default();
        assert!(c.allows_type(ObjectType::Thread));
        c.avoid_types = ObjectType::Thread.mask_bit() | ObjectType::Device.mask_bit();
        assert!(!c.allows_type(ObjectType::Thread));
        assert!(!c.allows_type(ObjectType::Device));
        assert!(c.allows_type(ObjectType::Segment));
    }

    #[test]
    fn address_space_lookup_and_replace() {
        let mut aspace = AddressSpaceBody::default();
        aspace.map(Mapping {
            va: 0x1000,
            segment: ce(1, 2),
            offset: 0,
            npages: 2,
            flags: MappingFlags::rw(),
        });
        aspace.map(Mapping {
            va: 0x4000,
            segment: ce(1, 3),
            offset: 0,
            npages: 1,
            flags: MappingFlags::ro(),
        });
        assert_eq!(aspace.mappings.len(), 2);
        // Re-mapping the same VA replaces the old mapping.
        aspace.map(Mapping {
            va: 0x1000,
            segment: ce(1, 9),
            offset: 0,
            npages: 1,
            flags: MappingFlags::rx(),
        });
        assert_eq!(aspace.mappings.len(), 2);
        let at = |va| aspace.mappings.iter().find(|m| m.va == va).unwrap();
        assert_eq!(at(0x1000).segment, ce(1, 9));
        assert_eq!(at(0x4000).flags, MappingFlags::ro());
    }

    #[test]
    fn body_types_and_storage() {
        let label = Label::new(Level::L2);
        let bodies = [
            ObjectBody::Segment(SegmentBody::zeroed(100)),
            ObjectBody::Thread(ThreadBody::new(label.clone())),
            ObjectBody::AddressSpace(AddressSpaceBody::default()),
            ObjectBody::Gate(GateBody::new(label, 0)),
            ObjectBody::Container(ContainerBody::default()),
            ObjectBody::Device(DeviceBody::network([1, 2, 3, 4, 5, 6])),
        ];
        let types: Vec<ObjectType> = bodies.iter().map(|b| b.object_type()).collect();
        assert_eq!(types, ObjectType::ALL.to_vec() as Vec<ObjectType>);
        for b in &bodies {
            assert!(b.storage_bytes() > 0 || matches!(b, ObjectBody::Segment(_)));
        }
        assert_eq!(bodies[0].storage_bytes(), 100);
    }

    #[test]
    fn mapping_flag_constructors() {
        assert!(MappingFlags::ro().read && !MappingFlags::ro().write);
        assert!(MappingFlags::rw().write);
        assert!(MappingFlags::rx().execute && !MappingFlags::rx().write);
    }

    #[test]
    fn device_constructors() {
        let n = DeviceBody::network([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        assert_eq!(n.kind, DeviceKind::Network);
        assert_eq!(n.mac[0], 0xde);
        let c = DeviceBody::console();
        assert_eq!(c.kind, DeviceKind::Console);
    }
}
