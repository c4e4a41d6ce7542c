//! Seeded property test for the free-space allocator: an
//! [`ExtentAllocator`] driven beside a bitmap oracle.
//!
//! The oracle keeps one free flag per `unit` bytes and knows nothing of
//! lists or coalescing: its free extents are the maximal runs of free
//! units, and it allocates from the start of the run that comes first in
//! the allocator's best-fit order — the smallest adequate length, then the
//! offset's fingerprint, then the offset.  The order is restated here on
//! purpose: every home offset, and so every seek and tick of the model,
//! follows from it, so a change to it must fail this test.
//!
//! Random `alloc`s from a few sizes (so equal lengths are common), `free`s
//! of a random live allocation, and round trips through
//! `from_free_list(free_list())` run on both.  After every step the extent
//! returned, `free_list`, `free_bytes`, `fragments` and `high_water`
//! agree, and `check_invariants` holds.
//!
//! The generator is the xorshift64* harness of `read_properties.rs`.

use histar_store::{Extent, ExtentAllocator};

const SEEDS: u64 = if cfg!(miri) { 2 } else { 32 };
const STEPS: usize = if cfg!(miri) { 40 } else { 400 };
/// Allocation sizes in oracle units; the repeat makes equal lengths common.
const SIZES: [u64; 5] = [1, 1, 2, 3, 8];

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
}

/// The top 24 bits of the offset's Fibonacci hash: the allocator's
/// tie-break between free extents of equal length.
fn fingerprint(offset: u64) -> u64 {
    offset.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40
}

/// One free flag per `unit` bytes of `[start, start + unit · free.len())`.
struct Bitmap {
    start: u64,
    unit: u64,
    free: Vec<bool>,
}

impl Bitmap {
    fn offset(&self, unit: usize) -> u64 {
        self.start + unit as u64 * self.unit
    }

    /// The maximal runs of units whose flag is `free`.
    fn runs(&self, free: bool) -> Vec<Extent> {
        let mut runs = Vec::new();
        let mut i = 0;
        while i < self.free.len() {
            let n = self.free[i..]
                .iter()
                .take_while(|&&f| f == self.free[i])
                .count();
            if self.free[i] == free {
                runs.push(Extent::new(self.offset(i), n as u64 * self.unit));
            }
            i += n;
        }
        runs
    }

    fn set(&mut self, e: Extent, free: bool) {
        let first = ((e.offset - self.start) / self.unit) as usize;
        for flag in &mut self.free[first..][..(e.len / self.unit) as usize] {
            assert_ne!(*flag, free, "oracle: {e:?} is already in that state");
            *flag = free;
        }
    }

    /// The best fit, taken from the start of its run, and whether another
    /// free run had the same length (so the fingerprint decided).
    fn alloc(&mut self, len: u64) -> (Option<Extent>, bool) {
        let runs = self.runs(true);
        let Some(best) = runs
            .iter()
            .filter(|r| r.len >= len)
            .min_by_key(|r| (r.len, fingerprint(r.offset), r.offset))
        else {
            return (None, false);
        };
        let tied = runs.iter().filter(|r| r.len == best.len).count() > 1;
        let got = Extent::new(best.offset, len);
        self.set(got, false);
        (Some(got), tied)
    }

    /// One past the last unit in use.
    fn high_water(&self) -> u64 {
        self.offset(self.free.iter().rposition(|&f| !f).map_or(0, |i| i + 1))
    }
}

/// Over every walk: allocations refused, and allocations that had an
/// equal-length rival.
#[derive(Default)]
struct Seen {
    refused: u32,
    tied: u32,
}

/// One seeded walk over `units` units of `unit` bytes from `start`.  With
/// `given_back` non-empty it first allocates everything and then frees
/// those extents.
fn walk(seed: u64, start: u64, unit: u64, units: usize, given_back: &[Extent], seen: &mut Seen) {
    let capacity = start + unit * units as u64;
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut alloc = ExtentAllocator::new(start, capacity);
    let mut oracle = Bitmap {
        start,
        unit,
        free: vec![true; units],
    };
    if !given_back.is_empty() {
        let all = Extent::new(start, capacity - start);
        assert_eq!(alloc.alloc(all.len), Some(all));
        oracle.set(all, false);
        for &e in given_back {
            alloc.free(e);
            oracle.set(e, true);
        }
    }
    let mut live = oracle.runs(false);
    for step in 0..STEPS {
        let at = format!("seed {seed} step {step}");
        match rng.below(8) {
            0..=3 => {
                let len = unit * SIZES[rng.below(SIZES.len() as u64) as usize];
                let (want, tied) = oracle.alloc(len);
                assert_eq!(alloc.alloc(len), want, "{at}: alloc({len})");
                seen.refused += u32::from(want.is_none());
                seen.tied += u32::from(tied);
                live.extend(want);
            }
            4..=6 if !live.is_empty() => {
                let e = live.swap_remove(rng.below(live.len() as u64) as usize);
                alloc.free(e);
                oracle.set(e, true);
            }
            _ => alloc = ExtentAllocator::from_free_list(capacity, alloc.free_list()),
        }
        alloc
            .check_invariants()
            .unwrap_or_else(|e| panic!("{at}: {e}"));
        let free = oracle.runs(true);
        assert_eq!(alloc.free_list(), free, "{at}: free list");
        let free_bytes: u64 = free.iter().map(|e| e.len).sum();
        assert_eq!(alloc.free_bytes(), free_bytes, "{at}: free bytes");
        assert_eq!(alloc.fragments(), free.len(), "{at}: fragments");
        assert_eq!(alloc.high_water(), oracle.high_water(), "{at}: high water");
    }
}

#[test]
fn the_allocator_agrees_with_a_bitmap_oracle() {
    let mut seen = Seen::default();
    for seed in 1..=SEEDS {
        // 128 units of 16 bytes above a reserved 4 KiB: small enough that
        // the walk fills, fragments and exhausts it.
        walk(seed, 4096, 16, 128, &[], &mut seen);
    }
    let least = if cfg!(miri) { 1 } else { 100 };
    assert!(
        seen.refused >= least && seen.tied >= least,
        "{} refused, {} tied",
        seen.refused,
        seen.tied
    );
}

/// Two free extents of equal length whose fingerprints collide.  The
/// by-size index this list replaced was keyed by length and fingerprint
/// alone, so the second overwrote the first, which `free_bytes` still
/// counted but `alloc` could never hand out.
#[test]
fn a_fingerprint_colliding_pair_is_allocated_like_any_other() {
    // 24,157,817 = F(37) = 2,221 × 10,877, so units of 2,221 bytes put both
    // extents of the pair on unit boundaries.
    let unit = 2_221;
    let pair = [Extent::new(0, unit), Extent::new(24_157_817, unit)];
    assert_eq!(fingerprint(pair[0].offset), fingerprint(pair[1].offset));
    let mut seen = Seen::default();
    for seed in 1..=SEEDS.min(4) {
        walk(seed, 0, unit, 10_880, &pair, &mut seen);
    }
    assert!(seen.tied > 0, "the pair never met as equal-length rivals");
}
