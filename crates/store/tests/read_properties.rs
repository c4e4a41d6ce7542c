//! Seeded property test for the store's read side: the one lookup
//! (`resident`) and the merged key listing (`object_ids`).
//!
//! A plain oracle — what exists now, what is cached and dirty, what the
//! last checkpoint holds and what the log has appended since — is driven
//! beside a real [`SingleLevelStore`] through random interleavings of
//! `put`, `delete`, `sync_object`, `sync_delete`, `checkpoint`,
//! `evict_clean` and crash-recover.  After every step:
//!
//! * `object_ids` equals the oracle's key set;
//! * `resident` of a random id returns the oracle's bytes (or `None`),
//!   and a miss adds exactly one `objects_read` while a hit adds none;
//! * `check_invariants` holds.
//!
//! The generator is the xorshift64* harness of `flush_properties.rs`.

use histar_sim::SimClock;
use histar_store::{SingleLevelStore, StoreConfig};
use std::collections::{BTreeMap, BTreeSet};

const SEEDS: u64 = if cfg!(miri) { 2 } else { 32 };
const STEPS: usize = if cfg!(miri) { 30 } else { 240 };
/// Ids are drawn from `0..IDS`; listings and lookups also probe past it.
const IDS: u64 = 24;
const MAX_LEN: u64 = 600;

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

/// A log region no workload here can fill and no batch limit, so the only
/// checkpoints are the explicit ones and the oracle stays exact.
fn config() -> StoreConfig {
    StoreConfig {
        log_region_len: 8 << 20,
        apply_batch: usize::MAX,
        ..StoreConfig::default()
    }
}

/// What the store must look like from outside.
#[derive(Default)]
struct Oracle {
    /// Every object that exists, with its bytes.
    live: BTreeMap<u64, Vec<u8>>,
    /// Objects a read finds without touching the disk.
    cached: BTreeSet<u64>,
    dirty: BTreeSet<u64>,
    /// The state the last checkpoint made durable.
    checkpointed: BTreeMap<u64, Vec<u8>>,
    /// Records appended to the log since: a put's bytes or a deletion.
    logged: Vec<(u64, Option<Vec<u8>>)>,
}

impl Oracle {
    /// What a crash recovers: the checkpoint with the log replayed over it.
    fn durable(&self) -> BTreeMap<u64, Vec<u8>> {
        let mut state = self.checkpointed.clone();
        for (id, record) in &self.logged {
            match record {
                Some(data) => state.insert(*id, data.clone()),
                None => state.remove(id),
            };
        }
        state
    }

    /// The oracle after a crash and recovery: the durable state, and
    /// cached and dirty exactly the objects whose last logged record is a
    /// put (replay caches them).  Recovery reads no home record, so every
    /// other live object costs one disk read when it is first asked for.
    /// The log survives.
    fn recover(&mut self) {
        self.live = self.durable();
        let mut last = BTreeMap::new();
        for (id, record) in &self.logged {
            last.insert(*id, record.is_some());
        }
        self.dirty = last
            .into_iter()
            .filter(|(_, put)| *put)
            .map(|(id, _)| id)
            .collect();
        self.cached = self.dirty.clone();
    }
}

fn check(
    at: &str,
    rng: &mut Rng,
    store: &mut SingleLevelStore,
    oracle: &mut Oracle,
    seen: &mut [u32; 3],
) {
    store
        .check_invariants()
        .unwrap_or_else(|e| panic!("{at}: {e}"));
    let keys: Vec<u64> = oracle.live.keys().copied().collect();
    assert_eq!(store.object_ids(), keys, "{at}: object_ids");

    let id = rng.below(IDS + 2);
    let reads = store.stats().objects_read;
    let got = store
        .resident(id)
        .unwrap_or_else(|e| panic!("{at}: resident({id}): {e}"))
        .map(<[u8]>::to_vec);
    assert_eq!(got.as_ref(), oracle.live.get(&id), "{at}: resident({id})");
    let miss = got.is_some() && !oracle.cached.contains(&id);
    assert_eq!(
        store.stats().objects_read - reads,
        u64::from(miss),
        "{at}: resident({id}) read the disk {} times",
        store.stats().objects_read - reads
    );
    seen[usize::from(got.is_some()) + usize::from(miss)] += 1;
    if got.is_some() {
        oracle.cached.insert(id); // a read makes the object resident
    }
}

#[test]
fn listings_and_lookups_agree_with_a_set_oracle() {
    // [absent, hit, miss] lookups made across the walk.
    let mut seen = [0u32; 3];
    for seed in 1..=SEEDS {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut store = SingleLevelStore::format(config(), SimClock::new());
        store.checkpoint(); // every crash below has a checkpoint to recover
        let mut oracle = Oracle::default();
        for step in 0..STEPS {
            let id = rng.below(IDS);
            match rng.below(12) {
                0..=3 => {
                    let len = rng.below(MAX_LEN);
                    let data = rng.bytes(len);
                    store.put(id, data.clone());
                    oracle.live.insert(id, data);
                    oracle.cached.insert(id);
                    oracle.dirty.insert(id);
                }
                4 | 5 => {
                    store.delete(id);
                    oracle.live.remove(&id);
                    oracle.cached.remove(&id);
                    oracle.dirty.remove(&id);
                }
                6 => {
                    let synced = store.sync_object(id);
                    assert_eq!(synced.is_ok(), oracle.cached.contains(&id));
                    if synced.is_ok() {
                        oracle.logged.push((id, Some(oracle.live[&id].clone())));
                    }
                }
                7 => {
                    store.sync_delete(id);
                    oracle.logged.push((id, None));
                }
                8 => {
                    store.checkpoint();
                    oracle.checkpointed = oracle.live.clone();
                    oracle.logged.clear();
                    oracle.dirty.clear();
                }
                9 | 10 => {
                    store.evict_clean();
                    let dirty = &oracle.dirty;
                    oracle.cached.retain(|id| dirty.contains(id));
                }
                _ => {
                    store = SingleLevelStore::recover(config(), store.disk().crash_copy())
                        .expect("a checkpointed disk recovers");
                    oracle.recover();
                }
            }
            check(
                &format!("seed {seed} step {step}"),
                &mut rng,
                &mut store,
                &mut oracle,
                &mut seen,
            );
        }
    }
    // The walk must visit all three kinds of lookup.
    let [absent, hit, miss] = seen;
    let least = if cfg!(miri) { 1 } else { 100 };
    assert!(
        absent >= least && hit >= least && miss >= least,
        "lookups: {absent} absent, {hit} hits, {miss} misses"
    );
}
