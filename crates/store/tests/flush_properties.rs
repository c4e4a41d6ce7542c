//! Seeded property test for the store's in-place range flush.
//!
//! A small model — what is resident, what each home record holds, what the
//! log holds — is driven beside a real [`SingleLevelStore`] through random
//! interleavings of `put`, `checkpoint`, `sync_object`, `evict_clean`,
//! `get`, `flush_ranges` and `sync_pages_in_place`, with random object
//! sizes, prefix lengths and range sets.  After every step:
//!
//! * the flush returned exactly what the model predicts, and a refused
//!   flush (no resident copy, no home record, size or prefix changed, a
//!   logged version pending, a range past the record) left the disk's and
//!   the store's counters untouched;
//! * a store recovered from a copy of the disk image holds, for every
//!   object, exactly the bytes the model says are durable — every flushed
//!   range included;
//! * `check_invariants` holds on both stores.
//!
//! The generator is the xorshift64* harness of
//! `crates/label/tests/label_properties.rs`, so the suite runs offline.

use histar_sim::disk::BLOCK_SIZE;
use histar_sim::SimClock;
use histar_store::{page_ranges, SingleLevelStore, StoreConfig, StoreError};
use std::collections::{BTreeMap, BTreeSet};

const SEEDS: u64 = 24;
const STEPS: usize = 160;
const IDS: u64 = 5;
const MAX_LEN: u64 = 40_000;

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

    fn bytes(&mut self, len: u64) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// A log region no workload here can fill, so the only checkpoints are the
/// explicit ones and the model stays exact.
fn config() -> StoreConfig {
    StoreConfig {
        log_region_len: 8 << 20,
        apply_batch: usize::MAX,
        ..StoreConfig::default()
    }
}

/// What the store must look like from outside.
#[derive(Default)]
struct Model {
    /// Resident copies: what `get` returns without touching the disk.
    cache: BTreeMap<u64, Vec<u8>>,
    dirty: BTreeSet<u64>,
    /// Contents of each home record.
    home: BTreeMap<u64, Vec<u8>>,
    /// Versions appended to the log since the last checkpoint.
    logged: BTreeMap<u64, Vec<u8>>,
}

#[derive(Debug, PartialEq)]
enum Refusal {
    NoSuchObject,
    Invalid,
}

impl Model {
    /// What a crash recovers for `id`: the logged version masks the home
    /// record.
    fn durable(&self, id: u64) -> Option<&Vec<u8>> {
        self.logged.get(&id).or_else(|| self.home.get(&id))
    }

    /// The verdict `flush_ranges` must reach, checked in the store's order.
    fn flush_verdict(
        &self,
        id: u64,
        encoded_len: u64,
        prefix: &[u8],
        ranges: &[(u64, &[u8])],
    ) -> Result<(), Refusal> {
        let cached = self.cache.get(&id).ok_or(Refusal::NoSuchObject)?;
        if cached.len() as u64 != encoded_len || !cached.starts_with(prefix) {
            return Err(Refusal::Invalid);
        }
        let home = self.home.get(&id).ok_or(Refusal::NoSuchObject)?;
        let past = |(off, bytes): &(u64, &[u8])| {
            off.checked_add(bytes.len() as u64)
                .is_none_or(|end| end > encoded_len)
        };
        if home.len() as u64 != encoded_len
            || self.logged.contains_key(&id)
            || ranges.iter().any(past)
        {
            return Err(Refusal::Invalid);
        }
        Ok(())
    }

    fn patch(&mut self, id: u64, ranges: &[(u64, &[u8])]) {
        for copy in [self.cache.get_mut(&id), self.home.get_mut(&id)] {
            let copy = copy.expect("verdict checked both copies exist");
            for (off, bytes) in ranges {
                copy[*off as usize..][..bytes.len()].copy_from_slice(bytes);
            }
        }
    }
}

/// The class of a refusal (what the model predicts) and its stated reason
/// (what the walk counts).
fn refusal(e: &StoreError) -> (Refusal, &'static str) {
    match e {
        StoreError::NoSuchObject(_) => (Refusal::NoSuchObject, "no such object"),
        StoreError::InvalidOperation(why) => (Refusal::Invalid, why),
        other => panic!("a flush never fails with {other:?}"),
    }
}

/// What a crash at this instant would boot into.
fn crash_copy(store: &SingleLevelStore) -> SingleLevelStore {
    SingleLevelStore::recover(config(), store.disk().crash_copy())
        .expect("a formatted disk recovers")
}

fn check(seed: u64, step: usize, store: &mut SingleLevelStore, model: &Model) {
    let at = format!("seed {seed} step {step}");
    store
        .check_invariants()
        .unwrap_or_else(|e| panic!("{at}: {e}"));
    for (id, data) in &model.cache {
        assert!(
            store.get(*id).unwrap() == *data,
            "{at}: resident copy of {id}"
        );
    }
    if store.sequence() == 0 {
        return; // never checkpointed: nothing to recover from
    }
    let mut recovered = crash_copy(store);
    recovered
        .check_invariants()
        .unwrap_or_else(|e| panic!("{at}: recovered: {e}"));
    for id in 0..IDS {
        match model.durable(id) {
            Some(data) => assert!(recovered.get(id).unwrap() == *data, "{at}: object {id}"),
            None => assert!(!recovered.contains(id), "{at}: object {id} is not durable"),
        }
    }
}

#[test]
fn every_flushed_range_is_durable_and_every_refusal_is_free() {
    let (mut flushed, mut refused) = (0u32, BTreeSet::new());
    for seed in 1..=SEEDS {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut store = SingleLevelStore::format(config(), SimClock::new());
        let mut model = Model::default();
        for step in 0..STEPS {
            let id = rng.below(IDS);
            match rng.below(10) {
                0 | 1 => {
                    // Half the rewrites keep the length, so flushes of a
                    // rewritten object are usually admissible.
                    let len = match model.cache.get(&id) {
                        Some(old) if rng.below(2) == 0 => old.len() as u64,
                        _ => 1 + rng.below(MAX_LEN),
                    };
                    let data = rng.bytes(len);
                    store.put(id, data.clone());
                    model.cache.insert(id, data);
                    model.dirty.insert(id);
                }
                2 => {
                    store.checkpoint();
                    for id in std::mem::take(&mut model.dirty) {
                        model.home.insert(id, model.cache[&id].clone());
                    }
                    model.logged.clear();
                }
                3 => {
                    let synced = store.sync_object(id);
                    assert_eq!(synced.is_ok(), model.cache.contains_key(&id));
                    if let Some(data) = model.cache.get(&id) {
                        model.logged.insert(id, data.clone());
                    }
                }
                4 => {
                    store.evict_clean();
                    let dirty = &model.dirty;
                    model.cache.retain(|id, _| dirty.contains(id));
                }
                5 => {
                    // A read of an evicted object makes it resident again.
                    if let Some(home) = model.home.get(&id) {
                        let data = model.cache.entry(id).or_insert_with(|| home.clone());
                        assert!(store.get(id).unwrap() == *data);
                    }
                }
                6 => {
                    let len = model.cache.get(&id).map_or(0, |d| d.len() as u64);
                    let pages: Vec<u64> = (0..rng.below(4))
                        .map(|_| rng.below(len / BLOCK_SIZE + 3))
                        .collect();
                    let ranges = model
                        .cache
                        .get(&id)
                        .map_or(Vec::new(), |d| page_ranges(d, 0, &pages));
                    let verdict = model.flush_verdict(id, len, &[], &ranges);
                    let before = (store.disk_stats(), store.stats());
                    match store.sync_pages_in_place(id, &pages) {
                        Ok(n) => {
                            assert_eq!(verdict, Ok(()), "seed {seed} step {step}");
                            assert_eq!(n, ranges.len());
                            let owned: Vec<(u64, Vec<u8>)> =
                                ranges.iter().map(|(o, b)| (*o, b.to_vec())).collect();
                            let ranges: Vec<(u64, &[u8])> =
                                owned.iter().map(|(o, b)| (*o, &b[..])).collect();
                            model.patch(id, &ranges);
                            flushed += 1;
                        }
                        Err(e) => {
                            let (class, why) = refusal(&e);
                            assert_eq!(verdict, Err(class), "seed {seed} step {step}");
                            assert_eq!((store.disk_stats(), store.stats()), before);
                            refused.insert(why);
                        }
                    }
                }
                _ => {
                    // The caller's view of the object: the resident copy
                    // with some ranges rewritten, described by its length
                    // and a prefix of random length.
                    let current = model.cache.get(&id).cloned().unwrap_or_default();
                    let mut encoded_len = current.len() as u64;
                    let mut prefix = current[..rng.below(200).min(encoded_len) as usize].to_vec();
                    let mut ranges: Vec<(u64, Vec<u8>)> = (0..rng.below(4))
                        .map(|_| {
                            let off = rng.below(encoded_len.max(1));
                            let len = rng.below((encoded_len - off).min(9_000) + 1);
                            (off, rng.bytes(len))
                        })
                        .collect();
                    // One call in four is wrong in one of the ways a caller
                    // can be wrong.
                    match rng.below(12) {
                        0 => encoded_len += 1 + rng.below(64),
                        1 if !prefix.is_empty() => {
                            let i = rng.below(prefix.len() as u64) as usize;
                            prefix[i] ^= 0x40;
                        }
                        2 => ranges.push((encoded_len - rng.below(4).min(encoded_len), vec![1; 5])),
                        _ => {}
                    }
                    let ranges: Vec<(u64, &[u8])> =
                        ranges.iter().map(|(o, b)| (*o, &b[..])).collect();
                    let verdict = model.flush_verdict(id, encoded_len, &prefix, &ranges);
                    let before = (store.disk_stats(), store.stats());
                    match store.flush_ranges(id, encoded_len, &prefix, &ranges) {
                        Ok(()) => {
                            assert_eq!(verdict, Ok(()), "seed {seed} step {step}");
                            let after = store.disk_stats();
                            assert_eq!(after.writes - before.0.writes, ranges.len() as u64);
                            assert_eq!(after.flushes - before.0.flushes, 1);
                            model.patch(id, &ranges);
                            flushed += 1;
                        }
                        Err(e) => {
                            let (class, why) = refusal(&e);
                            assert_eq!(verdict, Err(class), "seed {seed} step {step}");
                            assert_eq!((store.disk_stats(), store.stats()), before);
                            refused.insert(why);
                        }
                    }
                }
            }
            check(seed, step, &mut store, &model);
        }
    }
    // The walk must actually visit what it claims to test.
    assert!(flushed > 200, "only {flushed} flushes were admitted");
    assert_eq!(refused.len(), 5, "refusal reasons seen: {refused:?}");
}
