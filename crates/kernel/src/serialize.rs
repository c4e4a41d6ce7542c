//! Binary serialization of kernel objects for the single-level store.
//!
//! Every kernel object can be flattened to bytes and restored, which is what
//! makes the single-level store possible: at snapshot time the machine
//! serializes the whole object table into the store, and at boot it rebuilds
//! the table from the most recent snapshot.
//!
//! Labels are encoded using the packed `⟨61-bit category, 3-bit level⟩`
//! representation the kernel itself uses (§2).

use crate::bodies::{
    AddressSpaceBody, Alert, ContainerBody, DeviceBody, DeviceKind, GateBody, Mapping,
    MappingFlags, ObjectBody, SegmentBody, ThreadBody, ThreadState,
};
use crate::kernel::KObject;
use crate::object::{ContainerEntry, Descrip, ObjectFlags, ObjectHeader, ObjectId, ObjectType};
use histar_label::{Category, Label, Level};
use histar_store::codec::{DecodeError, Decoder, Encoder, Wire};
use std::borrow::Cow;

/// Each object type beside its tag.
const OBJECT_TYPES: [(ObjectType, u8); 6] = [
    (ObjectType::Segment, 1),
    (ObjectType::Thread, 2),
    (ObjectType::AddressSpace, 3),
    (ObjectType::Gate, 4),
    (ObjectType::Container, 5),
    (ObjectType::Device, 6),
];

/// Each thread state beside its tag.
const THREAD_STATES: [(ThreadState, u8); 2] =
    [(ThreadState::Runnable, 0), (ThreadState::Halted, 2)];

/// Each device kind beside its tag.
const DEVICE_KINDS: [(DeviceKind, u8); 2] = [(DeviceKind::Network, 0), (DeviceKind::Console, 1)];

/// Encodes a label: default level byte, entry count, then one packed 64-bit
/// word per entry, in ascending category order.
pub fn put_label(e: &mut Encoder, label: &Label) {
    e.put_u8(label.default_level().encode());
    e.put_u64(label.len() as u64);
    for (c, l) in label.entries() {
        e.put_u64(c.pack_with_level(l.encode()));
    }
}

/// Decodes a label written by [`put_label`]: only its normal form, entries
/// in strictly ascending category order and none at the default level, so
/// a label read back re-encodes to the bytes it came from.
pub fn get_label(d: &mut Decoder<'_>) -> Result<Label, DecodeError> {
    let level = |bits| Level::decode(bits).ok_or(DecodeError::BadValue);
    let default = level(d.get_u8()?)?;
    let n = d.get_u64()?;
    let mut builder = Label::builder().default_level(default);
    let mut last: Option<Category> = None;
    for _ in 0..d.count(n, 8)? {
        let (c, bits) = Category::unpack_with_level(d.get_u64()?);
        let l = level(bits)?;
        if l == default || last >= Some(c) {
            return Err(DecodeError::BadValue);
        }
        builder = builder.set(c, l);
        last = Some(c);
    }
    Ok(builder.build())
}

/// A 61-bit name read from bytes is checked here, and only here: a `u64`
/// past 61 bits, which [`ObjectId::from_raw`] would panic on, is
/// [`DecodeError::BadValue`].  A category shares the space.
impl Wire<'_> for ObjectId {
    const SIZE: usize = 8;

    fn put(&self, e: &mut Encoder) {
        e.put_u64(self.raw());
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<ObjectId, DecodeError> {
        ObjectId::try_from_raw(d.get_u64()?).ok_or(DecodeError::BadValue)
    }
}

/// The container's id, then the object's.
impl Wire<'_> for ContainerEntry {
    const SIZE: usize = 16;

    fn put(&self, e: &mut Encoder) {
        self.container.put(e);
        self.object.put(e);
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<ContainerEntry, DecodeError> {
        let container = ObjectId::get(d, ())?;
        Ok(ContainerEntry::new(container, ObjectId::get(d, ())?))
    }
}

/// An alert's code.
impl Wire<'_> for Alert {
    const SIZE: usize = 8;

    fn put(&self, e: &mut Encoder) {
        e.put_u64(self.code);
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<Alert, DecodeError> {
        Ok(Alert { code: d.get_u64()? })
    }
}

/// Address, segment, offset, page count, then the read, write and
/// execute flags.
impl Wire<'_> for Mapping {
    const SIZE: usize = 8 + 16 + 8 + 8 + 3;

    fn put(&self, e: &mut Encoder) {
        e.put_u64(self.va);
        self.segment.put(e);
        e.put_u64(self.offset).put_u64(self.npages);
        for flag in [self.flags.read, self.flags.write, self.flags.execute] {
            flag.put(e);
        }
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<Mapping, DecodeError> {
        Ok(Mapping {
            va: d.get_u64()?,
            segment: ContainerEntry::get(d, ())?,
            offset: d.get_u64()?,
            npages: d.get_u64()?,
            flags: MappingFlags {
                read: bool::get(d, ())?,
                write: bool::get(d, ())?,
                execute: bool::get(d, ())?,
            },
        })
    }
}

/// Id, type tag, label, quota, usage, the metadata and the descriptive
/// string (each length-prefixed: exactly 64 bytes and at most 32), the
/// two flags and the link count.
impl Wire<'_> for ObjectHeader {
    fn put(&self, e: &mut Encoder) {
        self.id.put(e);
        e.put_tag(&OBJECT_TYPES, &self.object_type);
        put_label(e, &self.label);
        e.put_u64(self.quota)
            .put_u64(self.usage)
            .put_bytes(&self.metadata)
            .put_str(&self.descrip);
        self.flags.immutable.put(e);
        self.flags.fixed_quota.put(e);
        e.put_u32(self.links);
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<ObjectHeader, DecodeError> {
        Ok(ObjectHeader {
            id: ObjectId::get(d, ())?,
            object_type: d.get_tag(&OBJECT_TYPES)?,
            label: get_label(d)?,
            quota: d.get_u64()?,
            usage: d.get_u64()?,
            metadata: Wire::get(d, ())?,
            descrip: Descrip::fit(d.get_str_slice()?).ok_or(DecodeError::BadValue)?,
            flags: ObjectFlags {
                immutable: bool::get(d, ())?,
                fixed_quota: bool::get(d, ())?,
            },
            links: d.get_u32()?,
        })
    }
}

/// The body of an object of the type its header names.
impl Wire<'_, ObjectType> for ObjectBody {
    fn put(&self, e: &mut Encoder) {
        match self {
            ObjectBody::Segment(s) => {
                e.put_bytes_padded(s.written(), s.len());
            }
            ObjectBody::Container(c) => {
                c.links.put(e);
                c.parent.put(e);
                e.put_u8(c.avoid_types);
            }
            ObjectBody::Thread(t) => {
                put_label(e, &t.clearance);
                t.address_space.put(e);
                e.put_u64(t.entry_point).put_tag(&THREAD_STATES, &t.state);
                t.pending_alerts.put(e);
            }
            ObjectBody::AddressSpace(a) => a.mappings.put(e),
            ObjectBody::Gate(g) => {
                put_label(e, &g.clearance);
                g.address_space.put(e);
                e.put_u64(g.entry_point).put_u64(g.stack_pointer);
                g.closure_args.put(e);
            }
            ObjectBody::Device(dev) => {
                e.put_tag(&DEVICE_KINDS, &dev.kind).put_bytes(&dev.mac);
                dev.rx_queue.put(e);
                dev.tx_queue.put(e);
            }
        }
    }

    fn get(d: &mut Decoder<'_>, ty: ObjectType) -> Result<ObjectBody, DecodeError> {
        Ok(match ty {
            ObjectType::Segment => ObjectBody::Segment(SegmentBody::from(d.get_bytes()?)),
            ObjectType::Container => {
                let (links, parent) = (Vec::get(d, ())?, Option::get(d, ())?);
                ObjectBody::Container(ContainerBody::with_links(links, parent, d.get_u8()?))
            }
            // Runtime state (completions) is never encoded: a decoded
            // thread starts with a fresh record.
            ObjectType::Thread => ObjectBody::Thread(ThreadBody {
                clearance: get_label(d)?,
                address_space: Option::get(d, ())?,
                entry_point: d.get_u64()?,
                state: d.get_tag(&THREAD_STATES)?,
                pending_alerts: Vec::get(d, ())?,
                runtime: Box::default(),
            }),
            ObjectType::AddressSpace => ObjectBody::AddressSpace(AddressSpaceBody {
                mappings: Vec::get(d, ())?,
            }),
            ObjectType::Gate => ObjectBody::Gate(GateBody {
                clearance: get_label(d)?,
                address_space: Option::get(d, ())?,
                entry_point: d.get_u64()?,
                stack_pointer: d.get_u64()?,
                closure_args: Vec::get(d, ())?,
            }),
            ObjectType::Device => ObjectBody::Device(DeviceBody {
                kind: d.get_tag(&DEVICE_KINDS)?,
                mac: Wire::get(d, ())?,
                rx_queue: Vec::get(d, ())?,
                tx_queue: Vec::get(d, ())?,
            }),
        })
    }
}

/// A whole kernel object, as the store holds it: its header, then the
/// body of the type the header names.  The disk is the kernel's input at
/// boot, so a record that does not decode is an error, never a panic.
impl Wire<'_> for KObject {
    fn put(&self, e: &mut Encoder) {
        self.header.put(e);
        self.body.put(e);
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<KObject, DecodeError> {
        let header = ObjectHeader::get(d, ())?;
        let body = ObjectBody::get(d, header.object_type)?;
        Ok(KObject::new(header, body))
    }
}

/// A persist record as the store holds it: the label it was created with,
/// then its payload, length-prefixed.  The label rides inside the record
/// so that every access after a crash re-checks exactly what was
/// protected before it.
#[derive(Debug)]
pub struct RecordFrame<'a> {
    /// The record's label.
    pub label: Label,
    /// The record's bytes, lent from the frame.
    pub payload: &'a [u8],
}

impl<'a> Wire<'a> for RecordFrame<'a> {
    fn put(&self, e: &mut Encoder) {
        put_label(e, &self.label);
        e.put_bytes(self.payload);
    }

    fn get(d: &mut Decoder<'a>, (): ()) -> Result<RecordFrame<'a>, DecodeError> {
        Ok(RecordFrame {
            label: get_label(d)?,
            payload: d.get_slice()?,
        })
    }
}

/// A segment's encoding split where its payload starts: the *prefix* —
/// header plus the payload's 8-byte length word, a hundred-odd bytes — and
/// the segment whose contents are the payload.  `prefix ‖ contents` is
/// exactly the object's [`Wire`] encoding, so byte `n` of the segment sits
/// at offset `prefix.len() + n` of its stored record; a range flush needs
/// nothing else.  `None` for every other object type.
pub(crate) fn segment_prefix(obj: &KObject) -> Option<(Vec<u8>, &SegmentBody)> {
    let ObjectBody::Segment(s) = &obj.body else {
        return None;
    };
    let mut e = Encoder::new();
    obj.header.put(&mut e);
    e.put_u64(s.len() as u64);
    Some((e.finish(), s))
}

/// The object's encoding lent in parts, for a checkpoint to write without
/// building it: a segment's is its [`segment_prefix`], its written bytes
/// and its zero tail, borrowed; any other object's is its whole (small)
/// encoding.
pub(crate) fn lend_object(obj: &KObject) -> Vec<Cow<'_, [u8]>> {
    match segment_prefix(obj) {
        Some((prefix, seg)) => std::iter::once(Cow::Owned(prefix))
            .chain(seg.lend_parts().map(Cow::Borrowed))
            .collect(),
        None => vec![Cow::Owned(obj.encode())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::DESCRIP_LEN;
    use histar_label::Level;

    fn oid(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    fn sample_label() -> Label {
        Label::builder()
            .set(Category::from_raw(5), Level::Star)
            .set(Category::from_raw(9), Level::L3)
            .set(Category::from_raw(11), Level::L0)
            .default_level(Level::L1)
            .build()
    }

    fn header(ty: ObjectType) -> ObjectHeader {
        let mut h = ObjectHeader::new(oid(77), ty, sample_label(), 4096, "sample object");
        h.usage = 123;
        h.metadata[0] = 0xab;
        h.metadata[63] = 0xcd;
        h.flags.immutable = true;
        h.links = 3;
        h
    }

    fn round_trip(obj: KObject) {
        let bytes = obj.encode();
        let back = KObject::decode(&bytes).unwrap();
        assert_eq!(back.header.id, obj.header.id);
        assert_eq!(back.header.label, obj.header.label);
        assert_eq!(back.header.object_type, obj.header.object_type);
        assert_eq!(back.header.quota, obj.header.quota);
        assert_eq!(back.header.usage, obj.header.usage);
        assert_eq!(back.header.metadata, obj.header.metadata);
        assert_eq!(back.header.descrip, obj.header.descrip);
        assert_eq!(back.header.flags, obj.header.flags);
        assert_eq!(back.header.links, obj.header.links);
        match (&obj.body, &back.body) {
            (ObjectBody::Segment(a), ObjectBody::Segment(b)) => assert_eq!(a, b),
            (ObjectBody::Container(a), ObjectBody::Container(b)) => {
                assert_eq!(a.links, b.links);
                assert_eq!(a.parent, b.parent);
                assert_eq!(a.avoid_types, b.avoid_types);
            }
            (ObjectBody::Thread(a), ObjectBody::Thread(b)) => {
                assert_eq!(a.clearance, b.clearance);
                assert_eq!(a.address_space, b.address_space);
                assert_eq!(a.entry_point, b.entry_point);
                assert_eq!(a.state, b.state);
                assert_eq!(a.pending_alerts, b.pending_alerts);
            }
            (ObjectBody::AddressSpace(a), ObjectBody::AddressSpace(b)) => {
                assert_eq!(a.mappings, b.mappings)
            }
            (ObjectBody::Gate(a), ObjectBody::Gate(b)) => {
                assert_eq!(a.clearance, b.clearance);
                assert_eq!(a.entry_point, b.entry_point);
                assert_eq!(a.closure_args, b.closure_args);
            }
            (ObjectBody::Device(a), ObjectBody::Device(b)) => {
                assert_eq!(a.kind, b.kind);
                assert_eq!(a.mac, b.mac);
                assert_eq!(a.rx_queue, b.rx_queue);
                assert_eq!(a.tx_queue, b.tx_queue);
            }
            (a, b) => panic!("body type changed: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn label_round_trip() {
        let l = sample_label();
        let mut e = Encoder::new();
        put_label(&mut e, &l);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(get_label(&mut d).unwrap(), l);
    }

    #[test]
    fn segment_round_trip() {
        round_trip(KObject::new(
            header(ObjectType::Segment),
            ObjectBody::Segment(SegmentBody::from((0..255u8).collect::<Vec<u8>>())),
        ));
    }

    #[test]
    fn segment_prefix_and_payload_concatenate_to_the_encoding() {
        let mut body = SegmentBody::from((0..255u8).cycle().take(10_000).collect::<Vec<u8>>());
        // A zero tail past the written prefix encodes as the zeros it reads.
        body.resize(20_000);
        let seg = KObject::new(header(ObjectType::Segment), ObjectBody::Segment(body));
        let (prefix, payload) = segment_prefix(&seg).unwrap();
        let encoded = seg.encode();
        assert_eq!([&prefix[..], &payload.to_vec()].concat(), encoded);
        assert!(encoded[prefix.len() + 10_000..].iter().all(|&b| b == 0));
        assert_eq!(lend_object(&seg).concat(), encoded);
        let gate = KObject::new(
            header(ObjectType::Gate),
            ObjectBody::Gate(GateBody::new(sample_label(), 1)),
        );
        assert!(segment_prefix(&gate).is_none());
        assert_eq!(lend_object(&gate).concat(), gate.encode());
    }

    #[test]
    fn container_round_trip() {
        round_trip(KObject::new(
            header(ObjectType::Container),
            ObjectBody::Container(ContainerBody::with_links(
                vec![oid(1), oid(2), oid(3)],
                Some(oid(99)),
                0b10_0101,
            )),
        ));
    }

    #[test]
    fn thread_round_trip() {
        let mut t = ThreadBody::new(sample_label());
        t.address_space = Some(ContainerEntry::new(oid(4), oid(5)));
        t.entry_point = 0xfeed;
        t.state = ThreadState::Halted;
        t.pending_alerts = vec![Alert { code: 9 }, Alert { code: 17 }];
        round_trip(KObject::new(
            header(ObjectType::Thread),
            ObjectBody::Thread(t),
        ));
    }

    #[test]
    fn address_space_round_trip() {
        let body = AddressSpaceBody {
            mappings: vec![
                Mapping {
                    va: 0x1000,
                    segment: ContainerEntry::new(oid(1), oid(2)),
                    offset: 0,
                    npages: 4,
                    flags: MappingFlags::rw(),
                },
                Mapping {
                    va: 0x8000,
                    segment: ContainerEntry::new(oid(1), oid(3)),
                    offset: 4096,
                    npages: 1,
                    flags: MappingFlags::rx(),
                },
            ],
        };
        round_trip(KObject::new(
            header(ObjectType::AddressSpace),
            ObjectBody::AddressSpace(body),
        ));
    }

    #[test]
    fn gate_round_trip() {
        let mut g = GateBody::new(sample_label(), 0x1234);
        g.address_space = Some(ContainerEntry::new(oid(7), oid(8)));
        g.stack_pointer = 0x9000;
        g.closure_args = vec![5, 6, 7];
        round_trip(KObject::new(header(ObjectType::Gate), ObjectBody::Gate(g)));
    }

    #[test]
    fn device_round_trip() {
        let mut d = DeviceBody::network([9, 8, 7, 6, 5, 4]);
        d.rx_queue = vec![vec![1, 2, 3], vec![4]];
        d.tx_queue = vec![vec![5; 100]];
        round_trip(KObject::new(
            header(ObjectType::Device),
            ObjectBody::Device(d),
        ));
    }

    #[test]
    fn corrupt_input_is_rejected() {
        let obj = KObject::new(
            header(ObjectType::Segment),
            ObjectBody::Segment(SegmentBody::from(vec![1; 64])),
        );
        let bytes = obj.encode();
        assert!(KObject::decode(&bytes[..bytes.len() / 2]).is_err());
        let mut bad_tag = bytes.clone();
        bad_tag[8] = 99; // object type tag lives right after the id
        assert!(KObject::decode(&bad_tag).is_err());
    }

    #[test]
    fn an_overlong_descrip_is_refused() {
        let obj = KObject::new(
            header(ObjectType::Segment),
            ObjectBody::Segment(SegmentBody::from(vec![1; 8])),
        );
        let bytes = obj.encode();
        let mut field = (obj.header.descrip.len() as u64).to_le_bytes().to_vec();
        field.extend_from_slice(obj.header.descrip.as_bytes());
        let at = bytes
            .windows(field.len())
            .position(|w| w == field)
            .expect("the descrip field is in the encoding");
        for n in [DESCRIP_LEN, DESCRIP_LEN + 1, 255] {
            let mut forged = bytes[..at].to_vec();
            forged.extend_from_slice(&(n as u64).to_le_bytes());
            forged.resize(forged.len() + n, b'x');
            forged.extend_from_slice(&bytes[at + field.len()..]);
            let decoded = KObject::decode(&forged);
            if n == DESCRIP_LEN {
                assert_eq!(decoded.unwrap().header.descrip, "x".repeat(n).as_str());
            } else {
                assert_eq!(decoded.err(), Some(DecodeError::BadValue), "{n} bytes");
            }
        }
    }

    fn container() -> KObject {
        KObject::new(
            header(ObjectType::Container),
            ObjectBody::Container(ContainerBody::with_links(vec![oid(1), oid(2)], None, 0)),
        )
    }

    /// An id past 61 bits is the record's error, not the kernel's panic:
    /// `ObjectId::from_raw` asserts the bound.
    #[test]
    fn an_object_id_past_61_bits_is_refused() {
        let mut bytes = container().encode();
        bytes[..8].fill(0xff);
        assert_eq!(KObject::decode(&bytes).err(), Some(DecodeError::BadValue));
    }

    /// A link count the record cannot hold is refused before a list is
    /// allocated for it: a count of 2⁶¹ or more asks for more than the
    /// address space.
    #[test]
    fn a_link_count_the_record_cannot_hold_is_refused() {
        let obj = container();
        let at = obj.header.encode().len();
        for count in [1 << 61, u64::MAX, 3] {
            let mut bytes = obj.encode();
            bytes[at..at + 8].copy_from_slice(&count.to_le_bytes());
            assert_eq!(
                KObject::decode(&bytes).err(),
                Some(DecodeError::BadLength),
                "{count}"
            );
        }
    }

    /// `bytes` with the length-prefixed field `field` (prefix included)
    /// replaced by a field of `len` bytes: `field`'s bytes, cut or padded
    /// with 0xee.  Everything around it is left intact.
    fn refit(bytes: &[u8], field: &[u8], len: usize) -> Vec<u8> {
        let at = bytes
            .windows(field.len())
            .position(|w| w == field)
            .expect("the field is in the encoding");
        let mut body = field[8..].to_vec();
        body.resize(len, 0xee);
        let mut out = bytes[..at].to_vec();
        out.extend_from_slice(&(len as u64).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&bytes[at + field.len()..]);
        out
    }

    /// A flag byte other than 0 or 1, metadata or a MAC address of the
    /// wrong length, and bytes after the record are not what the encoder
    /// writes, so none of them reads as a value.
    #[test]
    fn only_what_the_encoder_writes_is_read() {
        let obj = container();
        let bytes = obj.encode();
        let flags = obj.header.encode().len() - 6;
        let mut flag = bytes.clone();
        flag[flags] = 2;
        assert_eq!(KObject::decode(&flag).err(), Some(DecodeError::BadValue));
        let mut metadata = 64u64.to_le_bytes().to_vec();
        metadata.extend_from_slice(&obj.header.metadata);
        for len in [0, 63, 65] {
            let forged = refit(&bytes, &metadata, len);
            assert_eq!(KObject::decode(&forged).err(), Some(DecodeError::BadValue));
        }
        let mac = [6, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1];
        let dev = KObject::new(
            header(ObjectType::Device),
            ObjectBody::Device(DeviceBody::network([1; 6])),
        )
        .encode();
        for len in [5, 7] {
            let forged = refit(&dev, &mac, len);
            assert_eq!(KObject::decode(&forged).err(), Some(DecodeError::BadValue));
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(
            KObject::decode(&trailing).err(),
            Some(DecodeError::Trailing)
        );
    }
}
