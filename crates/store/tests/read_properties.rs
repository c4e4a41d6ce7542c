//! Seeded property test for the store's read side: the one lookup
//! (`resident`) and the merged key listing (`object_ids`).
//!
//! A plain oracle — what exists now, what is resident and dirty, what
//! the last checkpoint holds and what the log has appended since — is
//! driven beside a real [`SingleLevelStore`] through random interleavings
//! of `put`, `delete`, `sync_object`, `sync_delete`, `checkpoint`, a
//! checkpoint with objects lent in parts (`checkpoint_lent`),
//! `evict_clean` and crash-recover.  After every step:
//!
//! * `object_ids` equals the oracle's key set;
//! * every resident object's bytes are the oracle's, and reading them
//!   changes no disk counter;
//! * `resident` of a random id returns the oracle's bytes (or `None`),
//!   and a miss adds exactly one `objects_read` and one disk read of the
//!   whole home record while a hit adds none;
//! * `check_invariants` holds.
//!
//! The generator is the xorshift64* harness of `flush_properties.rs`.

use histar_sim::{DiskStats, SimClock};
use histar_store::{SingleLevelStore, StoreConfig};
use std::borrow::Cow;
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
    /// Objects a read finds without touching the disk: dirty ones, and
    /// clean ones whose home record stands for them.
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

    /// The oracle after `checkpoint`: everything live is durable and
    /// nothing is dirty; what was resident stays resident.
    fn checkpoint(&mut self) {
        self.checkpointed = self.live.clone();
        self.logged.clear();
        self.dirty.clear();
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

    let disk = store.disk_stats();
    for id in &oracle.cached {
        let got = store.resident(*id).unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(
            got.as_deref(),
            oracle.live.get(id).map(|v| &v[..]),
            "{at}: {id}"
        );
    }
    assert_eq!(store.disk_stats(), disk, "{at}: a resident read did I/O");

    let id = rng.below(IDS + 2);
    let reads = store.stats().objects_read;
    let got = store
        .resident(id)
        .unwrap_or_else(|e| panic!("{at}: resident({id}): {e}"))
        .map(Cow::into_owned);
    assert_eq!(got.as_ref(), oracle.live.get(&id), "{at}: resident({id})");
    let miss = got.is_some() && !oracle.cached.contains(&id);
    assert_eq!(
        store.stats().objects_read - reads,
        u64::from(miss),
        "{at}: resident({id}) read the disk {} times",
        store.stats().objects_read - reads
    );
    let home_record = got
        .as_ref()
        .filter(|_| miss)
        .map(|data| 16 + data.len() as u64);
    assert_one_read_or_none(at, disk, store.disk_stats(), home_record);
    seen[usize::from(got.is_some()) + usize::from(miss)] += 1;
    if got.is_some() {
        oracle.cached.insert(id); // a read makes the object resident
    }
}

/// A lookup's disk cost: none at all, or — for a miss — exactly one read
/// of the `len`-byte home record, and no write or flush.
fn assert_one_read_or_none(at: &str, before: DiskStats, after: DiskStats, len: Option<u64>) {
    let Some(len) = len else {
        assert_eq!(after, before, "{at}: a lookup without a miss did I/O");
        return;
    };
    assert_eq!(after.reads, before.reads + 1, "{at}: reads");
    assert_eq!(
        after.bytes_read,
        before.bytes_read + len,
        "{at}: bytes read"
    );
    assert!(after.lookahead_hits - before.lookahead_hits <= 1, "{at}");
    assert!(after.busy > before.busy, "{at}: a read takes time");
    let untouched = |s: DiskStats| (s.writes, s.bytes_written, s.flushes);
    assert_eq!(untouched(after), untouched(before), "{at}: a miss wrote");
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
            match rng.below(13) {
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
                    oracle.checkpoint();
                }
                9 => {
                    // A few objects lent in two parts each, as the kernel
                    // lends its own: they go home as if just `put`.
                    let lent: BTreeMap<u64, Vec<u8>> = (0..rng.below(4))
                        .map(|_| {
                            let (id, len) = (rng.below(IDS), rng.below(MAX_LEN));
                            (id, rng.bytes(len))
                        })
                        .collect();
                    let cuts: Vec<usize> = lent
                        .values()
                        .map(|data| rng.below(data.len() as u64 + 1) as usize)
                        .collect();
                    store.checkpoint_lent(lent.iter().zip(cuts).map(|((id, data), cut)| {
                        let (head, tail) = data.split_at(cut);
                        (*id, vec![Cow::Borrowed(head), Cow::Borrowed(tail)])
                    }));
                    oracle.cached.extend(lent.keys());
                    oracle.live.extend(lent);
                    oracle.checkpoint();
                }
                10 | 11 => {
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
