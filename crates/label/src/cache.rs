//! Memoization of label comparisons between immutable labels.
//!
//! The HiStar kernel "caches the result of comparisons between immutable
//! labels" (§4).  Because object labels are fixed at creation, a comparison
//! between two immutable labels can be keyed by their identities and reused
//! on every subsequent access check.  This matters because label checks are
//! on the critical path of every system call and page fault.
//!
//! The cache is keyed by *label identity tokens* handed out by
//! [`LabelCache::intern`]; interning also deduplicates structurally equal
//! labels so that a system with thousands of objects sharing a handful of
//! distinct labels performs each comparison only once.  A comparison
//! reports its verdict and whether it was a hit — that is, whether the
//! pair is present in this cache: compared this way since both labels were
//! last interned.  The kernel acts on the first and charges simulated time
//! by the second.
//!
//! A label lives here as long as something carries it.  The owner calls
//! [`LabelCache::sweep`] with every label its live objects carry once
//! [`LabelCache::sweep_due`] says so: once `max(4,096, carriers)` labels
//! have been interned since the last sweep, so the interns pay for the
//! walk.  A sweep evicts each label it finds carried by nothing, unless
//! the sweep before found it carried (one sweep of grace; a label interned
//! since then had none), together with every pair that names it.  A label
//! [`LabelCache::pin`]ned is never evicted.  A sweep that evicts rebuilds
//! the tables densely from the survivors, in their old id order, so they
//! shrink to the live size (with room for the next interval's interns) and
//! ids change: an id must not be kept across a sweep.

use crate::label::Label;
use histar_sim::SimHashMap;

/// The fewest labels interned since the last sweep that make the next one
/// due; more carriers than this raise the bar to their number, so a sweep's
/// walk is paid for by as many interns.
const SWEEP_MIN: usize = 4096;

/// An opaque token identifying an interned, immutable label: its index in
/// the cache that minted it, valid until that cache's next sweep.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LabelId(u64);

impl LabelId {
    /// Returns the raw token value (useful for diagnostics only).
    pub fn raw(self) -> u64 {
        self.0
    }

    fn index(self) -> Option<usize> {
        usize::try_from(self.0).ok()
    }
}

/// Where a held label stands with respect to the next sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tenure {
    /// Carried by a live object at the last sweep: the next sweep keeps it.
    Carried,
    /// Interned since the last sweep, or carried by nothing at it: the next
    /// sweep that finds it uncarried evicts it.
    Uncarried,
    /// Carried where no sweep looks (a persist record's label, which the
    /// store holds): never evicted.
    Pinned,
}

/// What has been computed so far about one ordered pair of labels `(a, b)`.
#[derive(Clone, Copy, Debug, Default)]
struct Known {
    /// `a ⊑ b`, ownership low on both sides.
    leq: Option<bool>,
    /// `a ⊑ b^J`, the observation check.
    leq_high_rhs: Option<bool>,
    /// `b ⊑ a`: the write half of "can `b` modify `a`", kept beside the
    /// observe half `a ⊑ b^J` so that a modify check is one lookup.
    geq: Option<bool>,
}

/// The answer to a memoized comparison.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Memo {
    /// Whether the relation holds.
    pub verdict: bool,
    /// Whether the verdict came from the cache rather than being computed.
    pub hit: bool,
}

/// Statistics for cache effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of comparisons answered from the cache.
    pub hits: u64,
    /// Number of comparisons computed and inserted.
    pub misses: u64,
    /// Number of distinct labels the cache holds now.
    pub interned: u64,
    /// Number of labels sweeps have evicted.
    pub evicted: u64,
}

impl histar_obs::MetricSource for CacheStats {
    fn export(&self, set: &mut histar_obs::MetricSet) {
        set.counter("label_cache.hits", self.hits);
        set.counter("label_cache.misses", self.misses);
        set.gauge("label_cache.interned", self.interned);
        set.counter("label_cache.evicted", self.evicted);
    }
}

/// A comparison cache over interned immutable labels.
///
/// The cache is not thread-safe, and need not be: the kernel that owns it
/// runs on one thread.
#[derive(Debug, Default)]
pub struct LabelCache {
    /// Every distinct label held, indexed by its id.  The key in `ids` is a
    /// handle to the same shared entries, as is the label the caller keeps.
    labels: Vec<Label>,
    /// Each held label's tenure, indexed like `labels`.
    tenure: Vec<Tenure>,
    /// Both maps are `SimHashMap`s, hashed without a per-process seed:
    /// the order a dropped cache releases its labels in shapes the host
    /// allocator for whatever runs next, the same way every run.
    ids: SimHashMap<Label, LabelId>,
    cmp: SimHashMap<(LabelId, LabelId), Known>,
    /// Labels interned since the last sweep.
    fresh: usize,
    hits: u64,
    misses: u64,
    evicted: u64,
}

impl LabelCache {
    /// Creates an empty cache.
    pub fn new() -> LabelCache {
        LabelCache::default()
    }

    /// Interns a label, returning its identity token.
    ///
    /// Structurally equal labels intern to the same token.
    pub fn intern(&mut self, label: &Label) -> LabelId {
        if let Some(&id) = self.ids.get(label) {
            return id;
        }
        let id = LabelId(self.labels.len() as u64);
        self.labels.push(label.clone());
        self.tenure.push(Tenure::Uncarried);
        self.ids.insert(label.clone(), id);
        self.fresh += 1;
        id
    }

    /// Keeps the label `id` names through every sweep: something no sweep
    /// walks carries it.
    pub fn pin(&mut self, id: LabelId) {
        if let Some(tenure) = id.index().and_then(|i| self.tenure.get_mut(i)) {
            *tenure = Tenure::Pinned;
        }
    }

    /// Returns the label for a previously interned token.
    pub fn get(&self, id: LabelId) -> Option<&Label> {
        self.labels.get(id.index()?)
    }

    /// Number of label pairs the cache holds a comparison for.
    pub fn pairs(&self) -> usize {
        self.cmp.len()
    }

    /// Whether enough labels have been interned since the last sweep to
    /// pay for one over `carriers` carried labels: `max(4,096, carriers)`.
    pub fn sweep_due(&self, carriers: usize) -> bool {
        self.fresh >= carriers.max(SWEEP_MIN)
    }

    /// Evicts every unpinned label that neither `carried` nor the last
    /// sweep found carried, and every pair naming one, then rebuilds the
    /// cache from the survivors in their old id order.  Every id minted
    /// before a sweep that evicts is void after it.
    pub fn sweep<'a>(&mut self, carried: impl IntoIterator<Item = &'a Label>) {
        self.fresh = 0;
        let mut carriers = 0;
        let mut marked = vec![false; self.labels.len()];
        for label in carried {
            carriers += 1;
            if let Some(id) = self.ids.get(label) {
                marked[id.0 as usize] = true;
            }
        }
        // Each label's id after the sweep, or `None` if it goes.
        let mut kept = 0;
        let remap: Vec<Option<LabelId>> = self
            .tenure
            .iter_mut()
            .zip(marked)
            .map(|(tenure, marked)| {
                *tenure = match (*tenure, marked) {
                    (Tenure::Pinned, _) => Tenure::Pinned,
                    (_, true) => Tenure::Carried,
                    (Tenure::Carried, false) => Tenure::Uncarried,
                    (Tenure::Uncarried, false) => return None,
                };
                let id = LabelId(kept as u64);
                kept += 1;
                Some(id)
            })
            .collect();
        let evicted = remap.len() - kept;
        if evicted > 0 {
            self.evicted += evicted as u64;
            self.rebuild(&remap, kept + carriers.max(SWEEP_MIN));
        }
    }

    /// Rebuilds the three tables from the survivors, label `i` as
    /// `remap[i]`, with each pair of two survivors.  The label tables keep
    /// their capacity up to `room` labels (the survivors and the interns
    /// that make the next sweep due) and the pair map up to as many pairs
    /// as it held: what the next interval fills anyway, so it does not
    /// regrow them.  Capacity beyond that, which a larger past left and
    /// `retain` alone would keep, goes.
    fn rebuild(&mut self, remap: &[Option<LabelId>], room: usize) {
        keep_survivors(&mut self.labels, remap, room);
        keep_survivors(&mut self.tenure, remap, room);
        self.ids.clear();
        self.ids.shrink_to(room);
        let ids = (0..).map(LabelId);
        self.ids.extend(self.labels.iter().cloned().zip(ids));
        let held = self.cmp.len();
        let new = |id: LabelId| remap[id.0 as usize];
        let pairs: Vec<_> = self
            .cmp
            .drain()
            .filter_map(|((a, b), known)| Some(((new(a)?, new(b)?), known)))
            .collect();
        self.cmp.shrink_to(held);
        self.cmp.extend(pairs);
    }

    /// Looks up the comparison `relation`, kept in `slot`, computing and
    /// remembering it if absent.  With `and_geq` the verdict also requires
    /// `b ⊑ a`, which is memoized beside it but is no event of its own: the
    /// hit or miss is `relation`'s.
    fn memo(
        &mut self,
        (a, b): (LabelId, LabelId),
        slot: fn(&mut Known) -> &mut Option<bool>,
        relation: fn(&Label, &Label) -> bool,
        and_geq: bool,
    ) -> Memo {
        // An id some other cache minted names no label here: fail closed.
        let label = |id: LabelId| self.labels.get(id.index()?);
        let (Some(la), Some(lb)) = (label(a), label(b)) else {
            debug_assert!(false, "label id not minted by this cache");
            return Memo::default();
        };
        let known = self.cmp.entry((a, b)).or_default();
        let slot = slot(known);
        let hit = slot.is_some();
        let mut verdict = *slot.get_or_insert_with(|| relation(la, lb));
        if and_geq && verdict {
            verdict = *known.geq.get_or_insert_with(|| lb.leq(la));
        }
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        Memo { verdict, hit }
    }

    /// Memoized `a ⊑ b`.
    pub fn leq(&mut self, a: LabelId, b: LabelId) -> Memo {
        self.memo((a, b), |k| &mut k.leq, Label::leq, false)
    }

    /// Memoized `a ⊑ b^J` (the "can `b` observe `a`" check).
    pub fn leq_high_rhs(&mut self, a: LabelId, b: LabelId) -> Memo {
        self.memo((a, b), |k| &mut k.leq_high_rhs, Label::leq_high_rhs, false)
    }

    /// Memoized `thread ⊑ object ⊑ thread^J` (the "can `thread` modify
    /// `object`" check).  It is one check: the hit or miss is that of
    /// [`LabelCache::leq_high_rhs`]`(object, thread)`.
    pub fn can_modify(&mut self, thread: LabelId, object: LabelId) -> Memo {
        self.memo(
            (object, thread),
            |k| &mut k.leq_high_rhs,
            Label::leq_high_rhs,
            true,
        )
    }

    /// Current cache statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            interned: self.labels.len() as u64,
            evicted: self.evicted,
        }
    }
}

/// Keeps the entries of `by_id` (indexed by label id) whose label `remap`
/// keeps, in order, with capacity for `room`.
fn keep_survivors<T>(by_id: &mut Vec<T>, remap: &[Option<LabelId>], room: usize) {
    let mut kept = remap.iter().map(Option::is_some);
    by_id.retain(|_| kept.next().unwrap_or(false));
    by_id.shrink_to(room);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Rng;
    use crate::{Category, Level};
    use std::collections::{BTreeMap, BTreeSet};

    fn c(n: u64) -> Category {
        Category::from_raw(n)
    }

    /// The lengths of the label→id map and of the pair map.
    fn lens(cache: &LabelCache) -> (usize, usize) {
        (cache.ids.len(), cache.cmp.len())
    }

    #[test]
    fn interning_deduplicates() {
        let mut cache = LabelCache::new();
        let a = Label::builder().set(c(1), Level::L3).build();
        let b = Label::builder().set(c(1), Level::L3).build();
        assert_eq!(cache.intern(&a), cache.intern(&b));
        assert_eq!(cache.stats().interned, 1);
        let id = cache.intern(&b);
        assert_eq!(cache.get(id), Some(&a));
    }

    #[test]
    fn ids_depend_only_on_this_caches_history() {
        let labels: Vec<Label> = (0..4)
            .map(|n| Label::unrestricted().with(c(n), Level::L3))
            .collect();
        let mut first = LabelCache::new();
        let mut noise = LabelCache::new();
        let mut second = LabelCache::new();
        let ids: Vec<u64> = labels.iter().map(|l| first.intern(l).raw()).collect();
        for l in labels.iter().rev() {
            noise.intern(l);
        }
        let again: Vec<u64> = labels.iter().map(|l| second.intern(l).raw()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(ids, again);
    }

    #[test]
    fn memoized_results_match_direct_computation() {
        let mut cache = LabelCache::new();
        let thread = Label::unrestricted();
        let obj = Label::builder().set(c(1), Level::L3).build();
        let t = cache.intern(&thread);
        let o = cache.intern(&obj);
        assert_eq!(cache.leq_high_rhs(o, t).verdict, obj.leq_high_rhs(&thread));
        assert_eq!(cache.leq(t, o).verdict, thread.leq(&obj));
    }

    #[test]
    fn hits_accumulate() {
        let mut cache = LabelCache::new();
        let a = cache.intern(&Label::unrestricted());
        let b = cache.intern(&Label::default_clearance());
        let answers = [cache.leq(a, b), cache.leq(a, b), cache.leq(a, b)];
        assert!(answers.iter().all(|m| m.verdict));
        assert_eq!(answers.map(|m| m.hit), [false, true, true]);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn direction_matters() {
        let mut cache = LabelCache::new();
        let lo = cache.intern(&Label::unrestricted());
        let hi = cache.intern(&Label::default_clearance());
        assert!(cache.leq(lo, hi).verdict);
        assert!(!cache.leq(hi, lo).verdict);
    }

    /// An id from another cache names no label here.  Release builds refuse
    /// the comparison and count nothing; debug builds stop at the assert.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "not minted by this cache"))]
    fn foreign_id_fails_closed() {
        let mut other = LabelCache::new();
        other.intern(&Label::unrestricted());
        let foreign = other.intern(&Label::default_clearance());
        let mut cache = LabelCache::new();
        let own = cache.intern(&Label::unrestricted());
        let refused = Memo::default();
        assert_eq!(cache.leq(own, foreign), refused);
        assert_eq!(cache.leq(own, foreign), refused);
        assert_eq!(cache.can_modify(foreign, own), refused);
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 0));
    }

    /// Over a random script, every verdict equals the direct computation and
    /// the hit/miss sequence equals a naive model: a comparison hits exactly
    /// when the same structural `(a, b, kind)` was compared before.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "20,000 steps; the small tests cover the representation"
    )]
    fn verdicts_and_hit_sequence_match_a_naive_model() {
        // The model keys on plain data, not on `Label`'s own `Eq`/`Hash`;
        // levels by their encoding, since `Level` has no order.
        type Plain = (u8, Vec<(Category, u8)>);
        let plain = |l: &Label| -> Plain {
            let entries = l.entries().map(|(c, lv)| (c, lv.encode())).collect();
            (l.default_level().encode(), entries)
        };

        let mut rng = Rng::new(0xcac4e);
        let mut pool: Vec<Label> = (0..24).map(|_| rng.label(6, 6)).collect();
        // Structural duplicates, built by another route.
        for i in 0..8 {
            let default = pool[i].default_level();
            let rebuilt = pool[i]
                .entries()
                .fold(Label::new(default), |l, (c, lv)| l.with(c, lv));
            pool.push(rebuilt);
        }
        let distinct: BTreeSet<Plain> = pool.iter().map(plain).collect();

        let mut cache = LabelCache::new();
        let mut compared: BTreeSet<(Plain, Plain, &str)> = BTreeSet::new();
        let (mut hits, mut misses) = (0, 0);
        for _ in 0..20_000 {
            let a = &pool[rng.below(pool.len() as u64) as usize];
            let b = &pool[rng.below(pool.len() as u64) as usize];
            let (ia, ib) = (cache.intern(a), cache.intern(b));
            let (memo, direct, event) = match rng.below(3) {
                0 => (cache.leq(ia, ib), a.leq(b), (a, b, "leq")),
                1 => (
                    cache.leq_high_rhs(ia, ib),
                    a.leq_high_rhs(b),
                    (a, b, "leq_high_rhs"),
                ),
                // Thread `a` modifying object `b` is the event `b ⊑ a^J`;
                // `a ⊑ b` beside it is no event and disturbs none.
                _ => (
                    cache.can_modify(ia, ib),
                    a.can_modify(b),
                    (b, a, "leq_high_rhs"),
                ),
            };
            let hit = !compared.insert((plain(event.0), plain(event.1), event.2));
            assert_eq!(
                memo,
                Memo {
                    verdict: direct,
                    hit
                }
            );
            if hit {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        assert!(hits > 0 && misses > 0);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits,
                misses,
                interned: distinct.len() as u64,
                evicted: 0,
            }
        );
    }

    #[test]
    fn a_sweep_is_due_after_max_of_4096_and_the_carriers_interns() {
        let mut cache = LabelCache::new();
        let label = |n: u64| Label::unrestricted().with(c(n), Level::L3);
        for n in 0..SWEEP_MIN as u64 {
            assert!(!cache.sweep_due(0));
            cache.intern(&label(n));
            cache.intern(&label(n));
        }
        assert!(cache.sweep_due(0) && cache.sweep_due(SWEEP_MIN));
        assert!(!cache.sweep_due(SWEEP_MIN + 1));
        // Nothing carried any of them: all go, and the count restarts.
        cache.sweep([]);
        assert!(!cache.sweep_due(0));
        let stats = cache.stats();
        assert_eq!((stats.interned, stats.evicted), (0, SWEEP_MIN as u64));
        assert_eq!(lens(&cache), (0, 0));
    }

    #[test]
    fn a_label_goes_at_the_second_sweep_that_finds_it_uncarried() {
        let mut cache = LabelCache::new();
        let [kept, gone, pinned, stray] =
            [1, 2, 3, 4].map(|n| Label::unrestricted().with(c(n), Level::L2));
        let [k, g, p, s] = [&kept, &gone, &pinned, &stray].map(|l| cache.intern(l));
        cache.pin(p);
        for (a, b) in [(k, g), (p, k), (s, k)] {
            assert!(!cache.leq(a, b).hit);
        }
        // Interned since the last sweep and carried by nothing: `stray`
        // goes at once, with its pair.
        cache.sweep([&kept, &gone]);
        assert_eq!(lens(&cache), (3, 2));
        // Carried at the last sweep: `gone` has one sweep of grace.
        cache.sweep([&kept]);
        assert_eq!(lens(&cache), (3, 2));
        cache.sweep([&kept]);
        assert_eq!(lens(&cache), (2, 1));
        assert_eq!(cache.stats().evicted, 2);
        // Survivors keep their order and their pairs; an evicted label
        // comes back as a stranger.
        assert_eq!(cache.intern(&kept).raw(), 0);
        assert_eq!(cache.get(LabelId(1)), Some(&pinned));
        assert!(cache.leq(LabelId(1), LabelId(0)).hit);
        let g = cache.intern(&gone);
        assert_eq!(g.raw(), 2);
        assert!(!cache.leq(LabelId(0), g).hit);
    }

    /// Over a random script of interning, comparing, pinning and sweeping
    /// with a random carried set, every verdict equals the direct
    /// computation; a comparison hits exactly when the same structural
    /// `(a, b, kind)` was compared after both labels were last interned;
    /// the cache holds exactly the labels a naive model of the eviction
    /// rule holds; and no pair outlives the sweep that evicted either of
    /// its labels.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "20,000 steps; the small tests cover the representation"
    )]
    fn sweeps_keep_verdicts_and_hits_to_a_naive_model() {
        type Plain = (u8, Vec<(Category, u8)>);
        type Event = (Plain, Plain, &'static str);
        let plain = |l: &Label| -> Plain {
            let entries = l.entries().map(|(c, lv)| (c, lv.encode())).collect();
            (l.default_level().encode(), entries)
        };
        #[derive(Clone, Copy, PartialEq)]
        enum Held {
            Carried,
            Uncarried,
            Pinned,
        }

        let mut rng = Rng::new(0x5eef);
        let mut pool: Vec<Label> = (0..40).map(|_| rng.label(5, 8)).collect();
        for i in 0..8 {
            let default = pool[i].default_level();
            let rebuilt = pool[i]
                .entries()
                .fold(Label::new(default), |l, (c, lv)| l.with(c, lv));
            pool.push(rebuilt);
        }

        let mut cache = LabelCache::new();
        // Per held label: its tenure and the step it was last interned at.
        let mut held: BTreeMap<Plain, (Held, u64)> = BTreeMap::new();
        // Per event: the step it was last compared at.
        let mut compared: BTreeMap<Event, u64> = BTreeMap::new();
        let (mut hits, mut misses, mut evicted, mut sweeps) = (0, 0, 0, 0);
        for step in 0..20_000u64 {
            let mut intern = |cache: &mut LabelCache, l: &Label| {
                held.entry(plain(l)).or_insert((Held::Uncarried, step));
                cache.intern(l)
            };
            match rng.below(40) {
                0 => {
                    let carried: Vec<&Label> = pool.iter().filter(|_| rng.below(3) == 0).collect();
                    let marked: BTreeSet<Plain> = carried.iter().map(|l| plain(l)).collect();
                    cache.sweep(carried);
                    sweeps += 1;
                    held.retain(|l, (tenure, _)| {
                        *tenure = match (*tenure, marked.contains(l)) {
                            (Held::Pinned, _) => Held::Pinned,
                            (_, true) => Held::Carried,
                            (Held::Carried, false) => Held::Uncarried,
                            (Held::Uncarried, false) => {
                                evicted += 1;
                                return false;
                            }
                        };
                        true
                    });
                    for (i, label) in cache.labels.iter().enumerate() {
                        assert!(held.contains_key(&plain(label)));
                        assert_eq!(cache.ids[label], LabelId(i as u64));
                    }
                    // Every pair left names two held labels and was
                    // compared since both were last interned.
                    for (&(a, b), known) in &cache.cmp {
                        let (a, b) = (plain(cache.get(a).unwrap()), plain(cache.get(b).unwrap()));
                        let since = held[&a].1.max(held[&b].1);
                        let kinds = [(known.leq, "leq"), (known.leq_high_rhs, "leq_high_rhs")];
                        for (_, kind) in kinds.iter().filter(|(slot, _)| slot.is_some()) {
                            let event = (a.clone(), b.clone(), *kind);
                            assert!(compared.get(&event).is_some_and(|&at| at >= since));
                        }
                        assert!(known.geq.is_none() || known.leq_high_rhs.is_some());
                    }
                }
                1 => {
                    let l = &pool[rng.below(pool.len() as u64) as usize];
                    let id = intern(&mut cache, l);
                    cache.pin(id);
                    held.get_mut(&plain(l)).unwrap().0 = Held::Pinned;
                }
                _ => {
                    let a = &pool[rng.below(pool.len() as u64) as usize];
                    let b = &pool[rng.below(pool.len() as u64) as usize];
                    let (ia, ib) = (intern(&mut cache, a), intern(&mut cache, b));
                    let (memo, direct, (x, y, kind)) = match rng.below(3) {
                        0 => (cache.leq(ia, ib), a.leq(b), (a, b, "leq")),
                        1 => (
                            cache.leq_high_rhs(ia, ib),
                            a.leq_high_rhs(b),
                            (a, b, "leq_high_rhs"),
                        ),
                        _ => (
                            cache.can_modify(ia, ib),
                            a.can_modify(b),
                            (b, a, "leq_high_rhs"),
                        ),
                    };
                    let since = held[&plain(x)].1.max(held[&plain(y)].1);
                    let last = compared.insert((plain(x), plain(y), kind), step);
                    let hit = last.is_some_and(|at| at >= since);
                    assert_eq!(
                        memo,
                        Memo {
                            verdict: direct,
                            hit
                        }
                    );
                    if hit {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                }
            }
            let stats = cache.stats();
            assert_eq!(
                stats,
                CacheStats {
                    hits,
                    misses,
                    interned: held.len() as u64,
                    evicted,
                }
            );
            assert_eq!(lens(&cache).0, held.len());
        }
        assert!(hits > 0 && misses > 0 && evicted > 0 && sweeps > 100);
    }
}
