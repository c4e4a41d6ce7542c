//! Every format another principal can write, and every record the
//! kernel and the store write to their own disk (the machine's input at
//! boot), fed bytes a generator chooses.  Each row of the table is a
//! [`Wire`] type with a generator of its values; one generic driver feeds
//! its decoder every single-bit flip of a few valid encodings, every
//! truncation of them, and xorshift bytes of every length around theirs,
//! and holds two oracles:
//!
//! - the decoder never panics: it returns a value or a typed error;
//! - a value it returns re-encodes to the bytes it came from, so it
//!   refused everything else.  A directory image ignores bytes past its
//!   last record and reads all-zero bytes as empty, so its oracle is the
//!   listing: a re-encoded image lists what the original listed.
//!
//! The generator is the xorshift64* of the seeded property suites, so the
//! suite runs offline and replays exactly.

use histar::apps::VirusDb;
use histar::exporter::{
    DelegationCert, ErrorCode, ExporterId, GlobalCategory, GlobalLabel, RpcMessage,
};
use histar::kernel::bodies::{
    AddressSpaceBody, Alert, ContainerBody, DeviceBody, GateBody, Mapping, MappingFlags,
    ObjectBody, SegmentBody, ThreadBody, ThreadState,
};
use histar::kernel::kernel::KObject;
use histar::kernel::machine::MachineMeta;
use histar::kernel::object::{ContainerEntry, ObjectHeader, ObjectId, OBJECT_ID_MASK};
use histar::kernel::serialize::RecordFrame;
use histar::label::{Category, Label, Level};
use histar::net::Batch;
use histar::store::codec::{Encoder, Wire};
use histar::store::store::{CheckpointMap, Superblock};
use histar::store::{LogRecord, StoreConfig};
use histar::unix::fdtable::{FdKind, FdState};
use histar::unix::fs::DirImage;
use histar::unix::net_queue::ConnHandoff;
use histar::unix::persistfs::{Inode, Meta};
use histar::unix::process::ExitStatus;
use histar::unix::vnode::{RingHeader, PIPE_CAPACITY};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Valid encodings per format, each flipped bit by bit and truncated.
const SAMPLES: u64 = 32;
/// Xorshift inputs per format.
const RANDOM_INPUTS: usize = 4_000;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }

    /// A field value, often one at an edge.
    fn value(&mut self) -> u64 {
        match self.below(6) {
            0 => [0, 1, u64::MAX, OBJECT_ID_MASK, 1 << 32][self.below(5) as usize],
            1 => self.below(64),
            _ => self.next(),
        }
    }

    /// A kernel name: an object id or a category.
    fn name(&mut self) -> u64 {
        self.value() & OBJECT_ID_MASK
    }

    fn bytes(&mut self, max: u64) -> Vec<u8> {
        (0..self.below(max + 1))
            .map(|_| self.next() as u8)
            .collect()
    }

    fn flag(&mut self) -> bool {
        self.below(2) == 1
    }

    fn id(&mut self) -> ObjectId {
        ObjectId::from_raw(self.name())
    }

    fn entry(&mut self) -> Option<ContainerEntry> {
        self.flag()
            .then(|| ContainerEntry::new(self.id(), self.id()))
    }

    fn level(&mut self) -> Level {
        [Level::L0, Level::L1, Level::L2, Level::L3, Level::Star][self.below(5) as usize]
    }

    fn label(&mut self) -> Label {
        let mut builder = Label::builder().default_level(self.level());
        for _ in 0..self.below(4) {
            builder = builder.set(Category::from_raw(self.name()), self.level());
        }
        builder.build()
    }

    fn list(&mut self, max: u64) -> Vec<u64> {
        (0..self.below(max + 1)).map(|_| self.value()).collect()
    }
}

/// The capacity of the store's default disk: what the reader of the
/// superblock and the checkpoint map knows.
fn capacity() -> u64 {
    StoreConfig::default().disk.capacity
}

/// What a format's oracle makes of one input: `Ok(true)` decoded,
/// `Ok(false)` refused, `Err` a violation.
type Verdict = Result<bool, String>;

/// One row: a name, an encoding of generated field values, and the
/// oracle.
struct Format {
    name: &'static str,
    sample: fn(&mut Rng) -> Vec<u8>,
    check: fn(&[u8]) -> Verdict,
}

/// The oracle over [`Wire`]: a decode of `bytes` is refused or
/// re-encodes to exactly `bytes`.
fn exact<'a, T: Wire<'a, K>, K: Copy>(bytes: &'a [u8], known: K) -> Verdict {
    match T::decode_with(bytes, known) {
        Err(_) => Ok(false),
        Ok(value) if value.encode() == bytes => Ok(true),
        Ok(value) => Err(format!("re-encodes to {:?}", value.encode())),
    }
}

/// The directory image's oracle: an image whose every record decodes
/// lists the same entries once re-encoded.
fn same_listing(bytes: &[u8]) -> Verdict {
    let Ok(Ok(listing)) = DirImage::decode(bytes).map(|image| image.listing()) else {
        return Ok(false);
    };
    let again = DirImage::decode(bytes).map_err(|e| e.to_string())?.encode();
    match DirImage::decode(&again).map(|image| image.listing()) {
        Ok(Ok(relisted)) if relisted == listing => Ok(true),
        other => Err(format!("re-encoded image lists {other:?}")),
    }
}

fn ring_header(rng: &mut Rng) -> Vec<u8> {
    let rpos = rng.value() % (u64::MAX - 2 * PIPE_CAPACITY);
    let wpos = rpos + rng.below(PIPE_CAPACITY + 1);
    RingHeader(rpos, wpos, rng.value()).encode()
}

fn conn_handoff(rng: &mut Rng) -> Vec<u8> {
    ConnHandoff {
        container: ObjectId::from_raw(rng.name()),
        segment: ObjectId::from_raw(rng.name()),
        taint_cat: rng.name(),
        write_cat: rng.name(),
        grant_gate: ObjectId::from_raw(rng.name()),
    }
    .encode()
}

fn exit_status(rng: &mut Rng) -> Vec<u8> {
    let code = rng.value() as i32;
    match rng.below(2) {
        0 => ExitStatus::Exited(code),
        _ => ExitStatus::Signaled(code),
    }
    .encode()
}

fn fd_state(rng: &mut Rng) -> Vec<u8> {
    use FdKind::*;
    let kinds = [
        File, PipeRead, PipeWrite, Console, Socket, Dev, Proc, Persist, Metrics,
    ];
    FdState {
        kind: kinds[rng.below(kinds.len() as u64) as usize],
        target: ObjectId::from_raw(rng.name()),
        target_container: ObjectId::from_raw(rng.name()),
        position: rng.value(),
        flags: rng.value() as u32,
        refs: rng.value() as u32,
    }
    .encode()
}

fn batch(rng: &mut Rng) -> Vec<u8> {
    let messages: Vec<Vec<u8>> = (0..rng.below(5)).map(|_| rng.bytes(24)).collect();
    Batch(messages.iter().map(Vec::as_slice).collect()).encode()
}

fn buffer_message(rng: &mut Rng) -> Vec<u8> {
    rng.bytes(40).as_slice().encode()
}

fn virus_db(rng: &mut Rng) -> Vec<u8> {
    VirusDb {
        signatures: (0..rng.below(4)).map(|_| rng.bytes(16)).collect(),
    }
    .encode()
}

fn dir_image(rng: &mut Rng) -> Vec<u8> {
    let mut e = Encoder::new();
    let count = rng.below(6);
    e.put_u64(rng.value()).put_u64(count);
    for _ in 0..count {
        let name: String = (0..rng.below(12))
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        e.put_str(&name)
            .put_u64(rng.name())
            .put_u8(rng.below(2) as u8);
    }
    e.finish()
}

fn inode(rng: &mut Rng) -> Vec<u8> {
    Inode {
        is_dir: rng.below(2) == 1,
        len: rng.below(1 << 36),
    }
    .encode()
}

fn meta(rng: &mut Rng) -> Vec<u8> {
    Meta(rng.value() as u32).encode()
}

fn global_label_of(rng: &mut Rng) -> GlobalLabel {
    GlobalLabel {
        default: rng.value() as u8,
        entries: (0..rng.below(4))
            .map(|_| {
                let home = ExporterId(rng.value());
                (
                    GlobalCategory {
                        home,
                        id: rng.value(),
                    },
                    rng.value() as u8,
                )
            })
            .collect(),
    }
}

fn global_label(rng: &mut Rng) -> Vec<u8> {
    global_label_of(rng).encode()
}

fn rpc_message(rng: &mut Rng) -> Vec<u8> {
    let seq = rng.value();
    let category = |rng: &mut Rng| GlobalCategory {
        home: ExporterId(rng.value()),
        id: rng.value(),
    };
    match rng.below(3) {
        0 => RpcMessage::Call {
            seq,
            sender: ExporterId(rng.value()),
            service: "echo".repeat(rng.below(3) as usize),
            label: global_label_of(rng),
            claims: (0..rng.below(3)).map(|_| category(rng)).collect(),
            certs: (0..rng.below(3))
                .map(|_| DelegationCert {
                    category: category(rng),
                    grantee: ExporterId(rng.value()),
                    tag: rng.value(),
                })
                .collect(),
            payload: rng.bytes(32),
        },
        1 => RpcMessage::Reply {
            seq,
            label: global_label_of(rng),
            payload: rng.bytes(32),
        },
        _ => RpcMessage::Error {
            seq,
            code: ErrorCode::NotExportable,
            message: "no".repeat(rng.below(3) as usize),
        },
    }
    .encode()
}

/// An object record: a generated header over `body`.
fn object(rng: &mut Rng, body: ObjectBody) -> Vec<u8> {
    let descrip: String = (0..rng.below(33))
        .map(|_| (b' ' + rng.below(95) as u8) as char)
        .collect();
    let ty = body.object_type();
    let mut h = ObjectHeader::new(rng.id(), ty, rng.label(), rng.value(), &descrip);
    h.usage = rng.value();
    h.metadata = core::array::from_fn(|_| rng.below(4) as u8);
    h.flags.immutable = rng.flag();
    h.flags.fixed_quota = rng.flag();
    h.links = rng.value() as u32;
    KObject::new(h, body).encode()
}

fn segment_record(rng: &mut Rng) -> Vec<u8> {
    let mut body = SegmentBody::from(rng.bytes(24));
    body.resize(body.len() + rng.below(16) as usize);
    object(rng, ObjectBody::Segment(body))
}

fn container_record(rng: &mut Rng) -> Vec<u8> {
    let links = (0..rng.below(4)).map(|_| rng.id()).collect();
    let parent = rng.flag().then(|| rng.id());
    let body = ContainerBody::with_links(links, parent, rng.value() as u8);
    object(rng, ObjectBody::Container(body))
}

fn thread_record(rng: &mut Rng) -> Vec<u8> {
    let mut t = ThreadBody::new(rng.label());
    t.address_space = rng.entry();
    t.entry_point = rng.value();
    t.state = [ThreadState::Runnable, ThreadState::Halted][rng.below(2) as usize];
    t.pending_alerts = rng.list(3).into_iter().map(|code| Alert { code }).collect();
    object(rng, ObjectBody::Thread(t))
}

fn address_space_record(rng: &mut Rng) -> Vec<u8> {
    let mappings = (0..rng.below(3))
        .map(|_| Mapping {
            va: rng.value(),
            segment: ContainerEntry::new(rng.id(), rng.id()),
            offset: rng.value(),
            npages: rng.value(),
            flags: MappingFlags {
                read: rng.flag(),
                write: rng.flag(),
                execute: rng.flag(),
            },
        })
        .collect();
    object(rng, ObjectBody::AddressSpace(AddressSpaceBody { mappings }))
}

fn gate_record(rng: &mut Rng) -> Vec<u8> {
    let mut g = GateBody::new(rng.label(), rng.value());
    g.address_space = rng.entry();
    g.stack_pointer = rng.value();
    g.closure_args = rng.list(3);
    object(rng, ObjectBody::Gate(g))
}

fn device_record(rng: &mut Rng) -> Vec<u8> {
    let mut d = match rng.flag() {
        true => DeviceBody::network(core::array::from_fn(|_| rng.next() as u8)),
        false => DeviceBody::console(),
    };
    d.rx_queue = (0..rng.below(3)).map(|_| rng.bytes(12)).collect();
    d.tx_queue = (0..rng.below(3)).map(|_| rng.bytes(12)).collect();
    object(rng, ObjectBody::Device(d))
}

fn machine_meta(rng: &mut Rng) -> Vec<u8> {
    MachineMeta {
        root: rng.id(),
        id_counter: rng.value(),
        cat_counter: rng.value(),
        kernel_thread: rng.id(),
        net_device: rng.id(),
        console_device: rng.id(),
        seed: rng.value(),
    }
    .encode()
}

fn record_frame(rng: &mut Rng) -> Vec<u8> {
    let payload = rng.bytes(32);
    let label = rng.label();
    RecordFrame {
        label,
        payload: &payload,
    }
    .encode()
}

fn superblock(rng: &mut Rng) -> Vec<u8> {
    let meta_extent_len = rng.below(1 << 20);
    Superblock {
        sequence: rng.value(),
        meta_offset: rng.below(capacity() - meta_extent_len),
        meta_len: rng.below(meta_extent_len + 1),
        meta_extent_len,
    }
    .encode()
}

/// A checkpoint map's bytes, built field by field: its homes are private
/// to the store.
fn checkpoint_map(rng: &mut Rng) -> Vec<u8> {
    let mut id = 0;
    let homes: Vec<[u64; 4]> = (0..rng.below(4))
        .map(|_| {
            id += 1 + rng.below(1 << 20);
            let extent_len = 16 + rng.below(1 << 16);
            let offset = rng.below(capacity() - extent_len);
            [id, offset, extent_len, rng.below(extent_len - 15)]
        })
        .collect();
    let mut e = Encoder::new();
    for field in 1..4 {
        e.put_u64(16 * homes.len() as u64);
        for home in &homes {
            e.put_u64(home[0]).put_u64(home[field]);
        }
    }
    let free = rng.list(2);
    e.put_u64(8 + 16 * free.len() as u64)
        .put_u64(free.len() as u64);
    for offset in free {
        e.put_u64(offset).put_u64(rng.value());
    }
    e.finish()
}

fn log_record(rng: &mut Rng) -> Vec<u8> {
    match rng.below(3) {
        0 => LogRecord::PutObject(rng.value(), rng.bytes(24)),
        1 => LogRecord::DeleteObject(rng.value()),
        _ => LogRecord::CheckpointMarker {
            sequence: rng.value(),
        },
    }
    .encode()
}

/// The table: every format another principal can write, then every
/// record the trusted base writes to its own disk.
fn formats() -> [Format; 23] {
    [
        Format {
            name: "pipe / socket ring header",
            sample: ring_header,
            check: |b| exact::<RingHeader, _>(b, PIPE_CAPACITY),
        },
        Format {
            name: "accept-queue entry",
            sample: conn_handoff,
            check: |b| exact::<ConnHandoff, _>(b, ()),
        },
        Format {
            name: "exit status",
            sample: exit_status,
            check: |b| exact::<ExitStatus, _>(b, ()),
        },
        Format {
            name: "descriptor state",
            sample: fd_state,
            check: |b| exact::<FdState, _>(b, ()),
        },
        Format {
            name: "netd batch frame",
            sample: batch,
            check: |b| exact::<Batch, _>(b, ()),
        },
        Format {
            name: "netd buffer message",
            sample: buffer_message,
            check: |b| exact::<&[u8], _>(b, ()),
        },
        Format {
            name: "virus database",
            sample: virus_db,
            check: |b| exact::<VirusDb, _>(b, ()),
        },
        Format {
            name: "directory image",
            sample: dir_image,
            check: same_listing,
        },
        Format {
            name: "/persist inode header",
            sample: inode,
            check: |b| exact::<Inode, _>(b, ()),
        },
        Format {
            name: "/persist superblock",
            sample: meta,
            check: |b| exact::<Meta, _>(b, ()),
        },
        Format {
            name: "exporter global label",
            sample: global_label,
            check: |b| exact::<GlobalLabel, _>(b, ()),
        },
        Format {
            name: "exporter RPC",
            sample: rpc_message,
            check: |b| exact::<RpcMessage, _>(b, ()),
        },
        Format {
            name: "segment record",
            sample: segment_record,
            check: |b| exact::<KObject, _>(b, ()),
        },
        Format {
            name: "container record",
            sample: container_record,
            check: |b| exact::<KObject, _>(b, ()),
        },
        Format {
            name: "thread record",
            sample: thread_record,
            check: |b| exact::<KObject, _>(b, ()),
        },
        Format {
            name: "address-space record",
            sample: address_space_record,
            check: |b| exact::<KObject, _>(b, ()),
        },
        Format {
            name: "gate record",
            sample: gate_record,
            check: |b| exact::<KObject, _>(b, ()),
        },
        Format {
            name: "device record",
            sample: device_record,
            check: |b| exact::<KObject, _>(b, ()),
        },
        Format {
            name: "machine metadata",
            sample: machine_meta,
            check: |b| exact::<MachineMeta, _>(b, ()),
        },
        Format {
            name: "persist-record frame",
            sample: record_frame,
            check: |b| exact::<RecordFrame, _>(b, ()),
        },
        Format {
            name: "store superblock",
            sample: superblock,
            check: |b| exact::<Superblock, _>(b, capacity()),
        },
        Format {
            name: "checkpoint map",
            sample: checkpoint_map,
            check: |b| exact::<CheckpointMap, _>(b, capacity()),
        },
        Format {
            name: "log record",
            sample: log_record,
            check: |b| exact::<LogRecord, _>(b, ()),
        },
    ]
}

/// One input through one format's oracle; a panic is a violation.
fn verdict(format: &Format, input: &[u8]) -> bool {
    let verdict = catch_unwind(AssertUnwindSafe(|| (format.check)(input)))
        .unwrap_or_else(|_| Err("the decoder panicked".into()));
    verdict.unwrap_or_else(|why| panic!("{}: input {input:?}: {why}", format.name))
}

/// The generic driver: generated encodings must decode; their bit flips,
/// truncations and xorshift bytes of nearby lengths are held to the
/// oracle.
fn fuzz(format: &Format, seed: u64) {
    let mut rng = Rng(seed | 1);
    let mut longest = 0;
    for _ in 0..SAMPLES {
        let mut input = (format.sample)(&mut rng);
        assert!(
            verdict(format, &input),
            "{}: {input:?} refused",
            format.name
        );
        longest = longest.max(input.len() as u64);
        for cut in 0..input.len() {
            verdict(format, &input[..cut]);
        }
        for bit in 0..input.len() * 8 {
            input[bit / 8] ^= 1 << (bit % 8);
            verdict(format, &input);
            input[bit / 8] ^= 1 << (bit % 8);
        }
    }
    for _ in 0..RANDOM_INPUTS {
        let input = rng.bytes(2 * longest + 8);
        verdict(format, &input);
    }
}

#[test]
fn every_foreign_format_refuses_or_round_trips() {
    for (i, format) in formats().iter().enumerate() {
        fuzz(format, 0x5eed_f00d ^ (i as u64) << 32);
    }
}
