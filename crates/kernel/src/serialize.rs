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
use crate::object::{
    ContainerEntry, Descrip, ObjectFlags, ObjectHeader, ObjectId, ObjectType, METADATA_LEN,
};
use histar_label::{Category, Label, Level};
use histar_store::codec::{DecodeError, Decoder, Encoder};
use std::borrow::Cow;

/// Errors from object deserialization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SerializeError {
    /// The underlying byte decoding failed.
    Decode(DecodeError),
    /// An enumeration tag had an unknown value.
    BadTag(&'static str, u8),
    /// A bounded field was longer than its bound: `(field, bytes)`.
    TooLong(&'static str, usize),
}

impl From<DecodeError> for SerializeError {
    fn from(e: DecodeError) -> SerializeError {
        SerializeError::Decode(e)
    }
}

impl core::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SerializeError::Decode(e) => write!(f, "decode error: {e}"),
            SerializeError::BadTag(what, v) => write!(f, "bad {what} tag: {v}"),
            SerializeError::TooLong(what, n) => write!(f, "{what} too long: {n} bytes"),
        }
    }
}

impl std::error::Error for SerializeError {}

fn object_type_tag(t: ObjectType) -> u8 {
    match t {
        ObjectType::Segment => 1,
        ObjectType::Thread => 2,
        ObjectType::AddressSpace => 3,
        ObjectType::Gate => 4,
        ObjectType::Container => 5,
        ObjectType::Device => 6,
    }
}

fn object_type_from_tag(tag: u8) -> Result<ObjectType, SerializeError> {
    Ok(match tag {
        1 => ObjectType::Segment,
        2 => ObjectType::Thread,
        3 => ObjectType::AddressSpace,
        4 => ObjectType::Gate,
        5 => ObjectType::Container,
        6 => ObjectType::Device,
        other => return Err(SerializeError::BadTag("object type", other)),
    })
}

/// Encodes a label: default level byte, entry count, then one packed 64-bit
/// word per entry.
pub fn encode_label(e: &mut Encoder, label: &Label) {
    e.put_u8(label.default_level().encode());
    e.put_u64(label.len() as u64);
    for (c, l) in label.entries() {
        e.put_u64(c.pack_with_level(l.encode()));
    }
}

/// Decodes a label written by [`encode_label`].
pub fn decode_label(d: &mut Decoder<'_>) -> Result<Label, SerializeError> {
    let default =
        Level::decode(d.get_u8()?).ok_or(SerializeError::BadTag("default level", 0xff))?;
    let n = d.get_u64()? as usize;
    let mut builder = Label::builder().default_level(default);
    for _ in 0..n {
        let word = d.get_u64()?;
        let (c, bits) = Category::unpack_with_level(word);
        let level = Level::decode(bits).ok_or(SerializeError::BadTag("entry level", bits))?;
        builder = builder.set(c, level);
    }
    Ok(builder.build())
}

fn encode_opt_entry(e: &mut Encoder, entry: Option<ContainerEntry>) {
    match entry {
        None => {
            e.put_u8(0);
        }
        Some(ce) => {
            e.put_u8(1)
                .put_u64(ce.container.raw())
                .put_u64(ce.object.raw());
        }
    }
}

fn decode_opt_entry(d: &mut Decoder<'_>) -> Result<Option<ContainerEntry>, SerializeError> {
    match d.get_u8()? {
        0 => Ok(None),
        1 => {
            let c = ObjectId::from_raw(d.get_u64()?);
            let o = ObjectId::from_raw(d.get_u64()?);
            Ok(Some(ContainerEntry::new(c, o)))
        }
        other => Err(SerializeError::BadTag("optional entry", other)),
    }
}

fn encode_header(e: &mut Encoder, h: &ObjectHeader) {
    e.put_u64(h.id.raw());
    e.put_u8(object_type_tag(h.object_type));
    encode_label(e, &h.label);
    e.put_u64(h.quota);
    e.put_u64(h.usage);
    e.put_bytes(&h.metadata);
    e.put_str(&h.descrip);
    e.put_u8(u8::from(h.flags.immutable));
    e.put_u8(u8::from(h.flags.fixed_quota));
    e.put_u32(h.links);
}

fn decode_header(d: &mut Decoder<'_>) -> Result<ObjectHeader, SerializeError> {
    let id = ObjectId::from_raw(d.get_u64()?);
    let object_type = object_type_from_tag(d.get_u8()?)?;
    let label = decode_label(d)?;
    let quota = d.get_u64()?;
    let usage = d.get_u64()?;
    let metadata_vec = d.get_bytes()?;
    let descrip = d.get_str_slice()?;
    let descrip = Descrip::fit(descrip).ok_or(SerializeError::TooLong("descrip", descrip.len()))?;
    let immutable = d.get_u8()? != 0;
    let fixed_quota = d.get_u8()? != 0;
    let links = d.get_u32()?;
    let mut metadata = [0u8; METADATA_LEN];
    let n = metadata_vec.len().min(METADATA_LEN);
    metadata[..n].copy_from_slice(&metadata_vec[..n]);
    Ok(ObjectHeader {
        id,
        label,
        object_type,
        quota,
        usage,
        metadata,
        descrip,
        flags: ObjectFlags {
            immutable,
            fixed_quota,
        },
        links,
    })
}

fn encode_body(e: &mut Encoder, body: &ObjectBody) {
    match body {
        ObjectBody::Segment(s) => {
            e.put_bytes_padded(s.written(), s.len());
        }
        ObjectBody::Container(c) => {
            e.put_u64(c.links.len() as u64);
            for l in &c.links {
                e.put_u64(l.raw());
            }
            match c.parent {
                None => {
                    e.put_u8(0);
                }
                Some(p) => {
                    e.put_u8(1).put_u64(p.raw());
                }
            }
            e.put_u8(c.avoid_types);
        }
        ObjectBody::Thread(t) => {
            encode_label(e, &t.clearance);
            encode_opt_entry(e, t.address_space);
            e.put_u64(t.entry_point);
            e.put_u8(match t.state {
                ThreadState::Runnable => 0,
                ThreadState::Halted => 2,
            });
            e.put_u64(t.pending_alerts.len() as u64);
            for a in &t.pending_alerts {
                e.put_u64(a.code);
            }
        }
        ObjectBody::AddressSpace(a) => {
            e.put_u64(a.mappings.len() as u64);
            for m in &a.mappings {
                e.put_u64(m.va);
                e.put_u64(m.segment.container.raw());
                e.put_u64(m.segment.object.raw());
                e.put_u64(m.offset);
                e.put_u64(m.npages);
                e.put_u8(u8::from(m.flags.read));
                e.put_u8(u8::from(m.flags.write));
                e.put_u8(u8::from(m.flags.execute));
            }
        }
        ObjectBody::Gate(g) => {
            encode_label(e, &g.clearance);
            encode_opt_entry(e, g.address_space);
            e.put_u64(g.entry_point);
            e.put_u64(g.stack_pointer);
            e.put_u64(g.closure_args.len() as u64);
            for a in &g.closure_args {
                e.put_u64(*a);
            }
        }
        ObjectBody::Device(dev) => {
            e.put_u8(match dev.kind {
                DeviceKind::Network => 0,
                DeviceKind::Console => 1,
            });
            e.put_bytes(&dev.mac);
            e.put_u64(dev.rx_queue.len() as u64);
            for f in &dev.rx_queue {
                e.put_bytes(f);
            }
            e.put_u64(dev.tx_queue.len() as u64);
            for f in &dev.tx_queue {
                e.put_bytes(f);
            }
        }
    }
}

fn decode_body(d: &mut Decoder<'_>, ty: ObjectType) -> Result<ObjectBody, SerializeError> {
    Ok(match ty {
        ObjectType::Segment => ObjectBody::Segment(SegmentBody::from(d.get_bytes()?)),
        ObjectType::Container => {
            let n = d.get_u64()? as usize;
            let mut links = Vec::with_capacity(n);
            for _ in 0..n {
                links.push(ObjectId::from_raw(d.get_u64()?));
            }
            let parent = match d.get_u8()? {
                0 => None,
                1 => Some(ObjectId::from_raw(d.get_u64()?)),
                other => return Err(SerializeError::BadTag("container parent", other)),
            };
            let avoid_types = d.get_u8()?;
            ObjectBody::Container(ContainerBody::with_links(links, parent, avoid_types))
        }
        ObjectType::Thread => {
            let clearance = decode_label(d)?;
            let address_space = decode_opt_entry(d)?;
            let entry_point = d.get_u64()?;
            let state = match d.get_u8()? {
                0 => ThreadState::Runnable,
                2 => ThreadState::Halted,
                other => return Err(SerializeError::BadTag("thread state", other)),
            };
            let n = d.get_u64()? as usize;
            let mut pending_alerts = Vec::with_capacity(n);
            for _ in 0..n {
                pending_alerts.push(Alert { code: d.get_u64()? });
            }
            // Runtime state (completions) is never encoded: a
            // decoded thread starts with a fresh record.
            ObjectBody::Thread(ThreadBody {
                address_space,
                entry_point,
                state,
                pending_alerts,
                ..ThreadBody::new(clearance)
            })
        }
        ObjectType::AddressSpace => {
            let n = d.get_u64()? as usize;
            let mut mappings = Vec::with_capacity(n);
            for _ in 0..n {
                let va = d.get_u64()?;
                let c = ObjectId::from_raw(d.get_u64()?);
                let o = ObjectId::from_raw(d.get_u64()?);
                let offset = d.get_u64()?;
                let npages = d.get_u64()?;
                let read = d.get_u8()? != 0;
                let write = d.get_u8()? != 0;
                let execute = d.get_u8()? != 0;
                mappings.push(Mapping {
                    va,
                    segment: ContainerEntry::new(c, o),
                    offset,
                    npages,
                    flags: MappingFlags {
                        read,
                        write,
                        execute,
                    },
                });
            }
            ObjectBody::AddressSpace(AddressSpaceBody { mappings })
        }
        ObjectType::Gate => {
            let clearance = decode_label(d)?;
            let address_space = decode_opt_entry(d)?;
            let entry_point = d.get_u64()?;
            let stack_pointer = d.get_u64()?;
            let n = d.get_u64()? as usize;
            let mut closure_args = Vec::with_capacity(n);
            for _ in 0..n {
                closure_args.push(d.get_u64()?);
            }
            ObjectBody::Gate(GateBody {
                clearance,
                address_space,
                entry_point,
                stack_pointer,
                closure_args,
            })
        }
        ObjectType::Device => {
            let kind = match d.get_u8()? {
                0 => DeviceKind::Network,
                1 => DeviceKind::Console,
                other => return Err(SerializeError::BadTag("device kind", other)),
            };
            let mac_vec = d.get_bytes()?;
            let mut mac = [0u8; 6];
            let n = mac_vec.len().min(6);
            mac[..n].copy_from_slice(&mac_vec[..n]);
            let nrx = d.get_u64()? as usize;
            let mut rx_queue = Vec::with_capacity(nrx);
            for _ in 0..nrx {
                rx_queue.push(d.get_bytes()?);
            }
            let ntx = d.get_u64()? as usize;
            let mut tx_queue = Vec::with_capacity(ntx);
            for _ in 0..ntx {
                tx_queue.push(d.get_bytes()?);
            }
            ObjectBody::Device(DeviceBody {
                kind,
                mac,
                rx_queue,
                tx_queue,
            })
        }
    })
}

/// A segment's encoding split where its payload starts: the *prefix* —
/// header plus the payload's 8-byte length word, a hundred-odd bytes — and
/// the segment whose contents are the payload.  `prefix ‖ contents` is
/// exactly [`encode_object`]'s output, so byte `n` of the segment sits at
/// offset `prefix.len() + n` of its stored record; a range flush needs
/// nothing else.  `None` for every other object type.
pub(crate) fn segment_prefix(obj: &KObject) -> Option<(Vec<u8>, &SegmentBody)> {
    let ObjectBody::Segment(s) = &obj.body else {
        return None;
    };
    let mut e = Encoder::new();
    encode_header(&mut e, &obj.header);
    e.put_u64(s.len() as u64);
    Some((e.finish(), s))
}

/// [`encode_object`]'s output lent in parts, for a checkpoint to write
/// without building it: a segment's is its [`segment_prefix`], its
/// written bytes and its zero tail, borrowed; any other object's is its
/// whole (small) encoding.
pub(crate) fn lend_object(obj: &KObject) -> Vec<Cow<'_, [u8]>> {
    match segment_prefix(obj) {
        Some((prefix, seg)) => std::iter::once(Cow::Owned(prefix))
            .chain(seg.lend_parts().map(Cow::Borrowed))
            .collect(),
        None => vec![Cow::Owned(encode_object(obj))],
    }
}

/// Serializes a whole kernel object.
pub fn encode_object(obj: &KObject) -> Vec<u8> {
    let mut e = Encoder::new();
    encode_header(&mut e, &obj.header);
    encode_body(&mut e, &obj.body);
    e.finish()
}

/// Deserializes a kernel object written by [`encode_object`].
pub fn decode_object(bytes: &[u8]) -> Result<KObject, SerializeError> {
    let mut d = Decoder::new(bytes);
    let header = decode_header(&mut d)?;
    let body = decode_body(&mut d, header.object_type)?;
    Ok(KObject::new(header, body))
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
        let bytes = encode_object(&obj);
        let back = decode_object(&bytes).unwrap();
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
        encode_label(&mut e, &l);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(decode_label(&mut d).unwrap(), l);
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
        let encoded = encode_object(&seg);
        assert_eq!([&prefix[..], &payload.to_vec()].concat(), encoded);
        assert!(encoded[prefix.len() + 10_000..].iter().all(|&b| b == 0));
        assert_eq!(lend_object(&seg).concat(), encoded);
        let gate = KObject::new(
            header(ObjectType::Gate),
            ObjectBody::Gate(GateBody::new(sample_label(), 1)),
        );
        assert!(segment_prefix(&gate).is_none());
        assert_eq!(lend_object(&gate).concat(), encode_object(&gate));
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
        let bytes = encode_object(&obj);
        assert!(decode_object(&bytes[..bytes.len() / 2]).is_err());
        let mut bad_tag = bytes.clone();
        bad_tag[8] = 99; // object type tag lives right after the id
        assert!(decode_object(&bad_tag).is_err());
    }

    #[test]
    fn an_overlong_descrip_is_refused() {
        let obj = KObject::new(
            header(ObjectType::Segment),
            ObjectBody::Segment(SegmentBody::from(vec![1; 8])),
        );
        let bytes = encode_object(&obj);
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
            let decoded = decode_object(&forged);
            if n == DESCRIP_LEN {
                assert_eq!(decoded.unwrap().header.descrip, "x".repeat(n).as_str());
            } else {
                assert_eq!(
                    decoded.err(),
                    Some(SerializeError::TooLong("descrip", n)),
                    "{n} bytes"
                );
            }
        }
    }
}
