//! Property tests for the directory-segment format: round-trips over
//! adversarial names, rejection of malformed encodings, and the in-place
//! image edits SegFs makes, step for step against an owned codec.
//!
//! The owned [`Directory`] below is the format's oracle: a decode into one
//! `String` per name, edits on a `Vec`, and an encode.  The library never
//! builds it; it reads and splices the segment bytes with [`DirImage`], and
//! every image it writes must be byte for byte what the oracle encodes.
//!
//! The repo runs offline, so these are seeded pseudo-property tests (like
//! the label-algebra ones): a deterministic RNG drives many iterations
//! over a generator of adversarial inputs.

use histar_kernel::object::{ObjectId, OBJECT_ID_MASK};
use histar_sim::SimRng;
use histar_store::codec::{Decoder, Encoder};
use histar_unix::fs::{DirEntry, DirImage};
use histar_unix::UnixError;

/// The owned directory codec: the oracle for [`DirImage`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Directory {
    generation: u64,
    entries: Vec<DirEntry>,
}

impl Directory {
    fn lookup(&self, name: &str) -> Option<&DirEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    fn insert(&mut self, entry: DirEntry) {
        self.entries.retain(|e| e.name != entry.name);
        self.entries.push(entry);
        self.generation += 1;
    }

    fn remove(&mut self, name: &str) -> Option<DirEntry> {
        let idx = self.entries.iter().position(|e| e.name == name)?;
        self.generation += 1;
        Some(self.entries.remove(idx))
    }

    /// Renames `from`, dropping whatever `to` named; false if `from` is
    /// missing.  A name renamed onto itself changes nothing.
    fn rename(&mut self, from: &str, to: &str) -> bool {
        if self.lookup(from).is_none() {
            return false;
        }
        if from == to {
            return true;
        }
        self.entries.retain(|e| e.name != to);
        let e = self.entries.iter_mut().find(|e| e.name == from).unwrap();
        e.name = to.to_string();
        self.generation += 1;
        true
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(self.generation);
        e.put_u64(self.entries.len() as u64);
        for entry in &self.entries {
            e.put_str(&entry.name);
            e.put_u64(entry.object.raw());
            e.put_u8(u8::from(entry.is_dir));
        }
        e.finish()
    }

    /// `None` for malformed framing, non-UTF-8 names and out-of-range
    /// object IDs; an all-zero segment is the empty directory.
    fn decode(bytes: &[u8]) -> Option<Directory> {
        if bytes.iter().all(|&b| b == 0) {
            return Some(Directory::default());
        }
        let mut d = Decoder::new(bytes);
        let generation = d.get_u64().ok()?;
        let n = d.get_u64().ok()?;
        let mut entries = Vec::new();
        for _ in 0..n {
            let name = d.get_str().ok()?;
            let raw = d.get_u64().ok()?;
            if raw > OBJECT_ID_MASK {
                return None;
            }
            let object = ObjectId::from_raw(raw);
            let is_dir = d.get_u8().ok()? != 0;
            entries.push(DirEntry {
                name,
                object,
                is_dir,
            });
        }
        Some(Directory {
            generation,
            entries,
        })
    }
}

fn oid(n: u64) -> ObjectId {
    // Object IDs are 61-bit; clamp generated values into range.
    ObjectId::from_raw(n & OBJECT_ID_MASK)
}

/// Generates an adversarial (but valid-UTF-8) name.
fn adversarial_name(rng: &mut SimRng, salt: u64) -> String {
    match rng.next_below(8) {
        // Empty name: the codec must carry it even though the VFS never
        // creates one.
        0 => String::new(),
        // Slash-bearing names: never produced by path resolution, but
        // the codec must not corrupt neighbouring entries over them.
        1 => format!("a/b/{salt}"),
        2 => "/".to_string(),
        // Maximum-length (255-byte) names.
        3 => "x".repeat(255),
        // Multi-byte UTF-8.
        4 => format!("ファイル-{salt}-✓"),
        // Names that look like codec framing.
        5 => "\u{0}\u{0}\u{0}\u{0}".to_string(),
        6 => format!(".{salt}"),
        // Plain names.
        _ => format!("file-{salt}"),
    }
}

/// What the image says, in the oracle's terms: its listing, and the
/// generation in its first eight bytes (none in a fresh, zeroed one).
fn read_image(bytes: &[u8]) -> Result<Directory, UnixError> {
    let entries = DirImage::new(bytes)?.listing()?;
    let generation = bytes
        .get(..8)
        .map_or(0, |g| u64::from_le_bytes(g.try_into().unwrap()));
    Ok(Directory {
        generation,
        entries,
    })
}

/// An image the oracle rejects is rejected as corrupt by every walk.
fn assert_rejected(bytes: &[u8]) {
    assert_eq!(Directory::decode(bytes), None);
    let corrupt = |r: Result<(), UnixError>| matches!(r, Err(UnixError::Corrupt(_)));
    let image =
        |op: &dyn Fn(DirImage) -> Result<(), UnixError>| corrupt(DirImage::new(bytes).and_then(op));
    assert!(image(&|i| i.lookup("entry-0").map(drop)), "lookup");
    assert!(image(&|i| i.lookup("missing").map(drop)), "lookup miss");
    assert!(image(&|i| i.listing().map(drop)), "listing");
    assert!(
        image(&|i| i.insert("new", oid(1), false).map(drop)),
        "insert"
    );
    assert!(image(&|i| i.remove("entry-0").map(drop)), "remove");
    assert!(image(&|i| i.rename("entry-0", "z").map(drop)), "rename");
}

/// An image the oracle accepts reads the same through [`DirImage`], and an
/// edit of it writes what the oracle encodes — a non-canonical `is_dir`
/// byte included, which both write back as 0 or 1.
fn assert_agrees(bytes: &[u8]) {
    let Some(mut oracle) = Directory::decode(bytes) else {
        return assert_rejected(bytes);
    };
    assert_eq!(read_image(bytes).unwrap(), oracle);
    let edited = DirImage::new(bytes)
        .unwrap()
        .insert("new", oid(1), false)
        .unwrap();
    oracle.insert(DirEntry {
        name: "new".to_string(),
        object: oid(1),
        is_dir: false,
    });
    assert_eq!(edited, oracle.encode());
}

#[test]
fn round_trip_over_adversarial_names() {
    let mut rng = SimRng::new(0xd1c0de);
    for iter in 0..500 {
        let mut dir = Directory::default();
        let entries = rng.next_below(12);
        for i in 0..entries {
            dir.insert(DirEntry {
                // Suffix with the index so insert() replacement semantics
                // don't shrink the directory under us.
                name: format!("{}#{i}", adversarial_name(&mut rng, iter)),
                object: oid(rng.next_u64()),
                is_dir: rng.next_below(2) == 1,
            });
        }
        let encoded = dir.encode();
        let decoded =
            read_image(&encoded).unwrap_or_else(|e| panic!("iteration {iter}: {e} for {dir:?}"));
        assert_eq!(decoded, dir, "iteration {iter}");
    }
}

#[test]
fn round_trip_preserves_exact_255_byte_and_empty_names() {
    let mut dir = Directory::default();
    for name in ["", "/", "a/b", &"n".repeat(255)] {
        dir.insert(DirEntry {
            name: name.to_string(),
            object: oid(7),
            is_dir: false,
        });
    }
    let bytes = dir.encode();
    assert_eq!(read_image(&bytes).unwrap(), dir);
    let image = DirImage::new(&bytes).unwrap();
    for name in ["", "/", "a/b"] {
        assert!(image.lookup(name).unwrap().is_some(), "lost {name:?}");
    }
    assert_eq!(
        image.lookup(&"n".repeat(255)).unwrap(),
        Some((oid(7), false))
    );
}

/// Non-UTF-8 name bytes are rejected: the image is reported corrupt
/// instead of fabricating a lossy name that would no longer round-trip.
#[test]
fn non_utf8_names_are_rejected() {
    // Hand-encode a directory whose single entry has invalid UTF-8 bytes.
    let mut e = Encoder::new();
    e.put_u64(1); // generation
    e.put_u64(1); // entry count
    e.put_bytes(&[0xff, 0xfe, 0x80]); // invalid UTF-8 "name"
    e.put_u64(42); // object id
    e.put_u8(0); // is_dir
    assert_rejected(&e.finish());
}

/// Truncated and garbage encodings are rejected rather than read as a
/// partial directory.
#[test]
fn malformed_encodings_are_rejected() {
    let mut rng = SimRng::new(0xbadc0de);
    let mut dir = Directory::default();
    for i in 0..8 {
        dir.insert(DirEntry {
            name: format!("entry-{i}"),
            object: oid(i),
            is_dir: i % 2 == 0,
        });
    }
    let good = dir.encode();
    // Every strict prefix long enough to not look like a fresh (zeroed)
    // segment must be rejected.
    for cut in 1..good.len() {
        let prefix = &good[..cut];
        if prefix.iter().all(|&b| b == 0) {
            continue; // reads as an empty directory by design
        }
        assert_rejected(prefix);
    }
    // Random byte flips either read as *some* directory — the oracle's —
    // or are rejected as corrupt, but never panic.
    for _ in 0..500 {
        let mut bytes = good.clone();
        let idx = rng.next_below(bytes.len() as u64) as usize;
        bytes[idx] ^= (1 + rng.next_below(255)) as u8;
        assert_agrees(&bytes);
    }
}

/// Out-of-range object IDs (beyond the kernel's 61-bit space) are
/// rejected — the walk must not panic on untrusted segment bytes.
#[test]
fn out_of_range_object_ids_are_rejected() {
    let mut e = Encoder::new();
    e.put_u64(1); // generation
    e.put_u64(1); // entry count
    e.put_str("evil");
    e.put_u64(u64::MAX); // object id outside the 61-bit space
    e.put_u8(0);
    assert_rejected(&e.finish());
}

/// Seeded runs of insert, remove, rename and lookup over a small pool of
/// adversarial names (so edits collide), from a fresh all-zero page and
/// from images with trailing bytes: after every step the image is exactly
/// what the oracle encodes, and both answer every lookup alike.
#[test]
fn image_edits_equal_the_owned_codec_step_for_step() {
    let mut rng = SimRng::new(0x5911ce);
    for iter in 0..300 {
        let pool: Vec<String> = (0..6)
            .map(|_| adversarial_name(&mut rng, iter % 3))
            .collect();
        let (mut oracle, mut bytes) = match iter % 3 {
            0 => (Directory::default(), vec![0; 4096]),
            1 => (Directory::default(), Vec::new()),
            _ => {
                let mut oracle = Directory::default();
                for name in &pool[..3] {
                    oracle.insert(DirEntry {
                        name: name.clone(),
                        object: oid(rng.next_u64()),
                        is_dir: false,
                    });
                }
                let mut bytes = oracle.encode();
                let mut tail = vec![0; 1 + rng.next_below(40) as usize];
                rng.fill(&mut tail);
                bytes.extend_from_slice(&tail);
                (oracle, bytes)
            }
        };
        let mut edited = false;
        for step in 0..40 {
            let pick = |rng: &mut SimRng| pool[rng.next_below(pool.len() as u64) as usize].clone();
            let image = DirImage::new(&bytes).unwrap();
            let next = match rng.next_below(4) {
                0 => {
                    let (name, object) = (pick(&mut rng), oid(rng.next_u64()));
                    let is_dir = rng.next_below(2) == 1;
                    oracle.insert(DirEntry {
                        name: name.clone(),
                        object,
                        is_dir,
                    });
                    Some(image.insert(&name, object, is_dir).unwrap())
                }
                1 => {
                    let name = pick(&mut rng);
                    let removed = oracle.remove(&name).map(|e| e.object);
                    let next = image.remove(&name).unwrap();
                    assert_eq!(next.as_ref().map(|n| n.1), removed);
                    next.map(|n| n.0)
                }
                2 => {
                    let (from, to) = (pick(&mut rng), pick(&mut rng));
                    let before = oracle.clone();
                    let moved = oracle.rename(&from, &to);
                    if from == to {
                        assert_eq!(image.lookup(&from).unwrap().is_some(), moved);
                        None
                    } else {
                        let next = image.rename(&from, &to).unwrap();
                        assert_eq!(next.is_some(), moved);
                        let replaced = before.lookup(&to).map(|e| e.object);
                        let mover = before.lookup(&from).map(|e| e.object);
                        next.map(|(image, r)| {
                            assert_eq!(r, replaced.filter(|&r| Some(r) != mover));
                            image
                        })
                    }
                }
                _ => None,
            };
            if let Some(next) = next {
                bytes = next;
                edited = true;
            }
            let image = DirImage::new(&bytes).unwrap();
            if edited {
                assert_eq!(bytes, oracle.encode(), "iteration {iter} step {step}");
            }
            // The generation and every entry, in order.
            assert_eq!(read_image(&bytes).unwrap(), oracle);
            for name in pool.iter().chain([&"absent".to_string()]) {
                let want = oracle.lookup(name).map(|e| (e.object, e.is_dir));
                assert_eq!(
                    image.lookup(name).unwrap(),
                    want,
                    "iteration {iter}: {name:?}"
                );
            }
        }
    }
}
