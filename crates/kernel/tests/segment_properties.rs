//! Seeded oracle for demand-zero segment bodies.
//!
//! A segment holds only the prefix ever written and reads zeros past it,
//! so every path that turns a segment back into bytes — `segment_read`,
//! `segment_copy`, the encoding, the page ranges of `obj_sync` — must
//! agree with a plain `Vec<u8>` that was simply written, resized and
//! copied.  Seeded sequences of those calls trap through `dispatch`
//! against the plain model: same input stream, same outputs.  After every
//! step each live segment's reads, encoding and decode round trip are
//! checked against the model, and every page sync is checked against the
//! record it patched — a sync naming every page must leave the store's
//! copy equal to the object's encoding, zero tail included.
//!
//! The generator is the xorshift64* harness of `wake_properties.rs`, so
//! the suite runs offline.

use histar_kernel::bodies::{ObjectBody, SegmentBody, ThreadBody};
use histar_kernel::dispatch::{Syscall, SyscallResult};
use histar_kernel::kernel::{KObject, PAGE_SIZE};
use histar_kernel::object::{ContainerEntry, ObjectId};
use histar_kernel::syscall::SyscallError;
use histar_kernel::{Kernel, Machine, MachineConfig};
use histar_label::Label;
use histar_sim::SimClock;
use histar_store::codec::Wire;
use histar_store::{SingleLevelStore, StoreConfig};

const SEEDS: u64 = 40;
const STEPS: usize = 400;
const MAX_SEGMENTS: usize = 5;
const PAGE: usize = PAGE_SIZE as usize;

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

    /// A length or offset around a few pages, often unaligned.
    fn size(&mut self) -> usize {
        match self.below(4) {
            0 => self.below(64) as usize,
            1 => PAGE * self.below(6) as usize,
            _ => self.below(6 * PAGE as u64) as usize,
        }
    }
}

/// The model of one segment: its bytes, its quota, and where the highest
/// write ended (a page from there on is in the body's zero tail).
struct Model {
    id: ObjectId,
    bytes: Vec<u8>,
    quota: usize,
    written: usize,
}

fn quota_for(len: usize) -> usize {
    len.max(1).div_ceil(PAGE) * PAGE
}

fn segment(m: &Machine, id: ObjectId) -> &KObject {
    m.kernel()
        .raw_object(id)
        .expect("a modelled segment is live")
}

/// The encoding the kernel must produce: the segment's own header over a
/// body that is simply the model's bytes.
fn model_encoding(obj: &KObject, bytes: &[u8]) -> Vec<u8> {
    KObject::new(
        obj.header.clone(),
        ObjectBody::Segment(SegmentBody::from(bytes.to_vec())),
    )
    .encode()
}

fn check(m: &Machine, s: &Model, what: &str) {
    let obj = segment(m, s.id);
    let ObjectBody::Segment(body) = &obj.body else {
        panic!("{what}: not a segment");
    };
    assert_eq!(body.to_vec(), s.bytes, "{what}: contents");
    let encoded = obj.encode();
    assert_eq!(encoded, model_encoding(obj, &s.bytes), "{what}: encoding");
    let back = KObject::decode(&encoded).expect("an encoding decodes");
    let ObjectBody::Segment(back_body) = &back.body else {
        panic!("{what}: decoded to another type");
    };
    assert_eq!(back_body, body, "{what}: decode(encode(x)) == x");
    assert_eq!(back.encode(), encoded, "{what}: re-encoding");
}

#[test]
fn segment_bodies_read_encode_and_flush_as_a_plain_byte_vector() {
    // Page syncs that went in place with a page in the zero tail, and
    // whole-segment syncs checked byte for byte: the walk must reach both.
    let (mut tail_flushes, mut whole_checks) = (0usize, 0usize);
    for seed in 1..=SEEDS {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut m = Machine::boot(MachineConfig::default());
        let tid = m.kernel_thread();
        let root = m.kernel().root_container();
        let mut segs: Vec<Model> = Vec::new();

        for step in 0..STEPS {
            let what = format!("seed {seed} step {step}");
            let pick = rng.below(segs.len().max(1) as u64) as usize;
            let op = if segs.is_empty() { 0 } else { rng.below(16) };
            match op {
                // Create (or, with the pool full, retire one).
                0 | 1 if segs.len() >= MAX_SEGMENTS => {
                    let gone = segs.swap_remove(pick);
                    let call = Syscall::ObjUnref {
                        entry: ContainerEntry::new(root, gone.id),
                    };
                    assert_eq!(m.kernel_mut().dispatch(tid, call), Ok(SyscallResult::Unit));
                }
                0 | 1 => {
                    let len = rng.size();
                    let call = Syscall::SegmentCreate {
                        container: root,
                        label: Label::unrestricted(),
                        len: len as u64,
                        descrip: "seg".into(),
                    };
                    let id = match m.kernel_mut().dispatch(tid, call) {
                        Ok(SyscallResult::ObjectId(id)) => id,
                        other => panic!("{what}: create: {other:?}"),
                    };
                    segs.push(Model {
                        id,
                        bytes: vec![0; len],
                        quota: quota_for(len),
                        written: 0,
                    });
                }
                // Resize: grow, shrink, or shrink then grow back.
                2..=4 => {
                    let s = &mut segs[pick];
                    let entry = ContainerEntry::new(root, s.id);
                    let mut lens = vec![rng.size()];
                    if op == 4 {
                        lens = vec![rng.below(s.bytes.len() as u64 + 1) as usize, s.bytes.len()];
                    }
                    for len in lens {
                        let call = Syscall::SegmentResize {
                            entry,
                            len: len as u64,
                        };
                        let want = if len > s.quota {
                            Err(SyscallError::QuotaExceeded {
                                container: root,
                                requested: len as u64,
                                available: s.quota as u64,
                            })
                        } else {
                            s.bytes.resize(len, 0);
                            s.written = s.written.min(len);
                            Ok(SyscallResult::Unit)
                        };
                        assert_eq!(m.kernel_mut().dispatch(tid, call), want, "{what}: resize");
                    }
                }
                // Write at a random offset, now and then one that wraps.
                5..=8 => {
                    let s = &mut segs[pick];
                    let data: Vec<u8> = (0..rng.below(3 * PAGE as u64))
                        .map(|_| 1 + rng.below(255) as u8)
                        .collect();
                    let offset = match rng.below(20) {
                        0 => u64::MAX - rng.below(4),
                        _ => rng.size() as u64,
                    };
                    let end = offset.checked_add(data.len() as u64);
                    let want = match end {
                        None => Err(SyscallError::InvalidArgument("write offset overflows")),
                        Some(end) if end > s.quota as u64 => Err(SyscallError::QuotaExceeded {
                            container: root,
                            requested: end,
                            available: s.quota as u64,
                        }),
                        Some(end) => {
                            let (offset, end) = (offset as usize, end as usize);
                            if end > s.bytes.len() {
                                s.bytes.resize(end, 0);
                            }
                            s.bytes[offset..end].copy_from_slice(&data);
                            s.written = s.written.max(end);
                            Ok(SyscallResult::Unit)
                        }
                    };
                    let call = Syscall::SegmentWrite {
                        entry: ContainerEntry::new(root, s.id),
                        offset,
                        data: data.as_slice().into(),
                    };
                    assert_eq!(m.kernel_mut().dispatch(tid, call), want, "{what}: write");
                }
                // Read a random range, now and then one past the end.
                9..=11 => {
                    let s = &segs[pick];
                    let offset = match rng.below(20) {
                        0 => u64::MAX - rng.below(4),
                        _ => rng.below(s.bytes.len() as u64 + 64),
                    };
                    let len = rng.below(3 * PAGE as u64);
                    let want = match offset.checked_add(len) {
                        Some(end) if end <= s.bytes.len() as u64 => Ok(SyscallResult::Bytes(
                            s.bytes[offset as usize..end as usize].to_vec(),
                        )),
                        _ => Err(SyscallError::InvalidArgument("read beyond end of segment")),
                    };
                    let call = Syscall::SegmentRead {
                        entry: ContainerEntry::new(root, s.id),
                        offset,
                        len,
                    };
                    assert_eq!(m.kernel_mut().dispatch(tid, call), want, "{what}: read");
                }
                // Copy into a new segment (the pool may overflow by one).
                12 => {
                    let s = &segs[pick];
                    let call = Syscall::SegmentCopy {
                        src: ContainerEntry::new(root, s.id),
                        dst_container: root,
                        label: Label::unrestricted(),
                        descrip: "copy".into(),
                    };
                    let id = match m.kernel_mut().dispatch(tid, call) {
                        Ok(SyscallResult::ObjectId(id)) => id,
                        other => panic!("{what}: copy: {other:?}"),
                    };
                    let copy = Model {
                        id,
                        bytes: s.bytes.clone(),
                        quota: quota_for(s.bytes.len()),
                        written: s.written,
                    };
                    segs.push(copy);
                }
                // Give every segment a home record, so page syncs go in place.
                13 => m.snapshot(),
                // Sync some pages (past the end too), or every page.
                _ => {
                    let s = &segs[pick];
                    let npages = s.bytes.len().div_ceil(PAGE) as u64;
                    let whole = rng.below(2) == 0;
                    let pages: Vec<u64> = if whole {
                        (0..=npages).collect()
                    } else {
                        (0..rng.below(4)).map(|_| rng.below(npages + 2)).collect()
                    };
                    let before = m.store().stats().inplace_flushes;
                    let call = Syscall::ObjSync {
                        entry: ContainerEntry::new(root, s.id),
                        pages: Some(pages.clone()),
                    };
                    assert_eq!(m.kernel_mut().dispatch(tid, call), Ok(SyscallResult::Unit));
                    let encoded = segment(&m, s.id).encode();
                    let stored = m.store_mut().get(s.id.raw()).expect("synced");
                    assert_eq!(stored.len(), encoded.len(), "{what}: record length");
                    let base = encoded.len() - s.bytes.len();
                    for &p in &pages {
                        let start = base + p as usize * PAGE;
                        let end = encoded.len().min(start + PAGE);
                        if start < end {
                            assert_eq!(stored[start..end], encoded[start..end], "{what}: page {p}");
                        }
                    }
                    if whole {
                        assert_eq!(stored, encoded, "{what}: prefix ‖ pages");
                        whole_checks += 1;
                    }
                    let in_place = m.store().stats().inplace_flushes > before;
                    let tail = pages.iter().any(|&p| {
                        p as usize * PAGE >= s.written && (p as usize * PAGE) < s.bytes.len()
                    });
                    tail_flushes += usize::from(in_place && tail);
                }
            }
            for s in &segs {
                check(&m, s, &what);
            }
        }
    }
    assert!(tail_flushes > 0, "no in-place sync reached a zero tail");
    assert!(whole_checks > 0, "no whole-segment sync was checked");
}

fn kernel_with_a_segment() -> (Kernel, ObjectId, ContainerEntry) {
    let clock = SimClock::new();
    let store = SingleLevelStore::format(StoreConfig::default(), clock.clone());
    let init = (
        "init",
        ObjectBody::Thread(ThreadBody::new(Label::default_clearance())),
    );
    let (mut k, [tid]) = Kernel::with_root_objects(7, clock, store, [init]);
    let root = k.root_container();
    let seg = k
        .trap_segment_create(tid, root, Label::unrestricted(), 64, "seg")
        .unwrap();
    (k, tid, ContainerEntry::new(root, seg))
}

#[test]
fn a_refused_read_moves_the_clock_by_its_crossing_alone() {
    let (mut k, tid, seg) = kernel_with_a_segment();
    let refused = |k: &mut Kernel, len| {
        let now = k.now();
        assert_eq!(
            k.trap_segment_read(tid, seg, 0, len),
            Err(SyscallError::InvalidArgument("read beyond end of segment"))
        );
        k.now() - now
    };
    let just_past = refused(&mut k, 65);
    assert_eq!(refused(&mut k, u64::MAX / 2), just_past);
    assert_eq!(refused(&mut k, u64::MAX), just_past);
}

#[test]
fn the_segment_rows_one_call_host_crashes_are_typed_refusals() {
    let (mut k, tid, seg) = kernel_with_a_segment();
    assert_eq!(
        k.trap_segment_read(tid, seg, u64::MAX, 2),
        Err(SyscallError::InvalidArgument("read beyond end of segment"))
    );
    assert_eq!(
        k.trap_segment_write(tid, seg, u64::MAX - 1, &[1, 2, 3]),
        Err(SyscallError::InvalidArgument("write offset overflows"))
    );
    // A 4 TiB segment in a 1 MiB container: refused before any body could
    // be allocated, creating nothing and charging no zeroing.
    let root = k.root_container();
    let small = k
        .trap_container_create(tid, root, Label::unrestricted(), "small", 0, 1 << 20)
        .unwrap();
    let objects = k.object_count();
    let mut refused = |len: u64| {
        let now = k.now();
        let got = k.trap_segment_create(tid, small, Label::unrestricted(), len, "big");
        assert!(
            matches!(got, Err(SyscallError::QuotaExceeded { requested, .. }) if requested == len),
            "{got:?}"
        );
        k.now() - now
    };
    assert_eq!(refused(1 << 42), refused(2 << 20));
    assert_eq!(k.object_count(), objects);
    // The largest lengths have no page-rounded quota at all.
    assert_eq!(
        k.trap_segment_create(tid, small, Label::unrestricted(), u64::MAX, "max"),
        Err(SyscallError::InvalidArgument("segment length out of range"))
    );
}
