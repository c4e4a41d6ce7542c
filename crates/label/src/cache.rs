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
//! reports its verdict and whether it was a hit — that is, whether the same
//! structural pair was compared this way on this cache before.  The kernel
//! acts on the first and charges simulated time by the second.

use crate::label::Label;
use std::collections::hash_map::{DefaultHasher, HashMap};
use std::hash::BuildHasherDefault;

/// An opaque token identifying an interned, immutable label: its index in
/// the cache that minted it.
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

/// What has been computed so far about one ordered pair of labels `(a, b)`.
#[derive(Clone, Copy, Debug, Default)]
struct Known {
    /// `a ⊑ b`, ownership low on both sides.
    leq: Option<bool>,
    /// `a ⊑ b^J`, the observation check.
    leq_high_rhs: Option<bool>,
    /// `a^J ⊑ b^J`.
    leq_high_both: Option<bool>,
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
    /// Number of distinct labels interned.
    pub interned: u64,
}

impl histar_obs::MetricSource for CacheStats {
    fn export(&self, set: &mut histar_obs::MetricSet) {
        set.counter("label_cache.hits", self.hits);
        set.counter("label_cache.misses", self.misses);
        set.gauge("label_cache.interned", self.interned);
    }
}

/// A comparison cache over interned immutable labels.
///
/// The cache is not itself thread-safe; the kernel wraps it in its own lock
/// (label checks already execute under the kernel lock in this
/// reproduction).
#[derive(Debug, Default)]
pub struct LabelCache {
    /// Every distinct label seen, indexed by its id.  The key in `ids` is a
    /// handle to the same shared entries, as is the label the caller keeps.
    labels: Vec<Label>,
    /// Both maps hash with a constant key: `HashMap`'s default hasher draws
    /// a seed per process, and the order a dropped cache releases its
    /// labels in would then shape the host allocator differently each run.
    ids: HashMap<Label, LabelId, BuildHasherDefault<DefaultHasher>>,
    cmp: HashMap<(LabelId, LabelId), Known, BuildHasherDefault<DefaultHasher>>,
    hits: u64,
    misses: u64,
}

impl LabelCache {
    /// Creates an empty cache.
    pub fn new() -> LabelCache {
        LabelCache::default()
    }

    /// Interns a label, returning a stable identity token.
    ///
    /// Structurally equal labels intern to the same token.
    pub fn intern(&mut self, label: &Label) -> LabelId {
        if let Some(&id) = self.ids.get(label) {
            return id;
        }
        let id = LabelId(self.labels.len() as u64);
        self.labels.push(label.clone());
        self.ids.insert(label.clone(), id);
        id
    }

    /// Returns the label for a previously interned token.
    pub fn get(&self, id: LabelId) -> Option<&Label> {
        self.labels.get(id.index()?)
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

    /// Memoized `a^J ⊑ b^J`.
    pub fn leq_high_both(&mut self, a: LabelId, b: LabelId) -> Memo {
        self.memo(
            (a, b),
            |k| &mut k.leq_high_both,
            Label::leq_high_both,
            false,
        )
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Rng;
    use crate::{Category, Level};
    use std::collections::HashSet;

    fn c(n: u64) -> Category {
        Category::from_raw(n)
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
        assert_eq!(
            cache.leq_high_both(o, t).verdict,
            obj.leq_high_both(&thread)
        );
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
        // The model keys on plain data, not on `Label`'s own `Eq`/`Hash`.
        type Plain = (Level, Vec<(Category, Level)>);
        let plain = |l: &Label| -> Plain { (l.default_level(), l.entries().collect()) };

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
        let distinct: HashSet<Plain> = pool.iter().map(plain).collect();

        let mut cache = LabelCache::new();
        let mut compared: HashSet<(Plain, Plain, &str)> = HashSet::new();
        let (mut hits, mut misses) = (0, 0);
        for _ in 0..20_000 {
            let a = &pool[rng.below(pool.len() as u64) as usize];
            let b = &pool[rng.below(pool.len() as u64) as usize];
            let (ia, ib) = (cache.intern(a), cache.intern(b));
            let (memo, direct, event) = match rng.below(4) {
                0 => (cache.leq(ia, ib), a.leq(b), (a, b, "leq")),
                1 => (
                    cache.leq_high_rhs(ia, ib),
                    a.leq_high_rhs(b),
                    (a, b, "leq_high_rhs"),
                ),
                2 => (
                    cache.leq_high_both(ia, ib),
                    a.leq_high_both(b),
                    (a, b, "leq_high_both"),
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
                interned: distinct.len() as u64
            }
        );
    }
}
