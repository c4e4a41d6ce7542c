//! Free disk-space management.
//!
//! The store tracks free space as *extents* (contiguous byte ranges) in one
//! list sorted by offset, with adjacent extents always coalesced — the form
//! a checkpoint stores it in.  The paper indexes free extents by size and
//! by location in two B+-trees (§4); here the list stays a handful of
//! extents long in every workload measured, so `alloc` scans it for the
//! best fit and `free` binary-searches it for the neighbours to merge
//! with.  Disk space allocation is delayed until an object is written to
//! disk, which makes it easier to allocate contiguous extents; the
//! allocator itself only hands out ranges.

/// A contiguous range of free (or allocated) disk space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extent {
    /// Byte offset of the start of the extent.
    pub offset: u64,
    /// Length of the extent in bytes.
    pub len: u64,
}

impl Extent {
    /// Creates an extent.
    pub fn new(offset: u64, len: u64) -> Extent {
        Extent { offset, len }
    }

    /// One-past-the-end offset.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// Best-fit free-space allocator over one offset-sorted free list.
#[derive(Debug)]
pub struct ExtentAllocator {
    /// Free extents: sorted by offset, non-empty, and never adjacent.
    free: Vec<Extent>,
    total_free: u64,
    capacity: u64,
}

/// Number of low bits of a [`size_key`] that carry the offset fingerprint.
const SIZE_KEY_SHIFT: u32 = 24;

/// The best-fit order: the smallest adequate length first and, among equal
/// lengths, the lowest fingerprint (the top bits of the offset's Fibonacci
/// hash), then the lowest offset.  Every home offset, and so every seek
/// and tick of the model, follows from this order.
fn size_key(len: u64, offset: u64) -> u64 {
    (len << SIZE_KEY_SHIFT) | (offset.wrapping_mul(0x9E3779B97F4A7C15) >> (64 - SIZE_KEY_SHIFT))
}

impl ExtentAllocator {
    /// Creates an allocator managing `capacity` bytes starting at
    /// `data_start` (space before `data_start` is reserved for superblocks
    /// and the log).
    pub fn new(data_start: u64, capacity: u64) -> ExtentAllocator {
        let all = Extent::new(data_start, capacity.saturating_sub(data_start));
        ExtentAllocator::from_free_list(capacity, &[all])
    }

    /// Total free bytes.
    pub fn free_bytes(&self) -> u64 {
        self.total_free
    }

    /// Total managed capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of distinct free extents (a fragmentation metric).
    pub fn fragments(&self) -> usize {
        self.free.len()
    }

    /// Allocates an extent of exactly `len` bytes from the start of the
    /// best-fitting free extent (see [`size_key`]).  Returns `None` if no
    /// single free extent is large enough.
    pub fn alloc(&mut self, len: u64) -> Option<Extent> {
        if len == 0 {
            return Some(Extent::new(0, 0));
        }
        let (i, fit) = self
            .free
            .iter_mut()
            .enumerate()
            .filter(|(_, e)| e.len >= len)
            .min_by_key(|(_, e)| (size_key(e.len, e.offset), e.offset))?;
        let got = Extent::new(fit.offset, len);
        if fit.len == len {
            self.free.remove(i);
        } else {
            fit.offset += len;
            fit.len -= len;
        }
        self.total_free -= len;
        Some(got)
    }

    /// Frees an extent, coalescing with free neighbours.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the extent overlaps existing free space,
    /// which would indicate a double free.
    pub fn free(&mut self, extent: Extent) {
        if extent.len == 0 {
            return;
        }
        let i = self.free.partition_point(|e| e.offset < extent.offset);
        let prev = i.checked_sub(1).map(|p| self.free[p]);
        let next = self.free.get(i).copied();
        debug_assert!(
            prev.is_none_or(|p| p.end() <= extent.offset)
                && next.is_none_or(|n| extent.end() <= n.offset),
            "double free or overlap at offset {}",
            extent.offset
        );
        self.total_free += extent.len;
        let mut merged = extent;
        if next.is_some_and(|n| n.offset == extent.end()) {
            merged.len += self.free.remove(i).len;
        }
        if prev.is_some_and(|p| p.end() == extent.offset) {
            self.free[i - 1].len += merged.len;
        } else {
            self.free.insert(i, merged);
        }
    }

    /// One past the highest allocated byte: if the topmost free extent
    /// runs to the end of the disk, nothing above its start is in use.
    /// The superblock records this so recovery can preload the whole live
    /// data region in a single read.
    pub fn high_water(&self) -> u64 {
        match self.free.last() {
            Some(last) if last.end() == self.capacity => last.offset,
            _ => self.capacity,
        }
    }

    /// All free extents in ascending offset order (used by checkpointing).
    pub fn free_list(&self) -> &[Extent] {
        &self.free
    }

    /// Rebuilds an allocator from a saved free list, which must be sorted
    /// and coalesced as [`ExtentAllocator::free_list`] returns it
    /// ([`ExtentAllocator::check_invariants`] reports one that is not).
    pub fn from_free_list(capacity: u64, free: &[Extent]) -> ExtentAllocator {
        let free: Vec<Extent> = free.iter().copied().filter(|e| e.len > 0).collect();
        ExtentAllocator {
            total_free: free.iter().map(|e| e.len).sum(),
            free,
            capacity,
        }
    }

    /// Consistency check: the free extents are non-empty, inside the
    /// capacity, sorted, disjoint and coalesced, and `free_bytes` is their
    /// sum.  Returns the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let capacity = self.capacity;
        let outside = |e: &&Extent| {
            capacity
                .checked_sub(e.offset)
                .is_none_or(|room| e.len > room)
        };
        if let Some(e) = self.free.iter().find(|e| e.len == 0 || outside(e)) {
            return Err(format!(
                "free extent {e:?} is empty or ends past the capacity {capacity:#x}"
            ));
        }
        if let Some(w) = self.free.windows(2).find(|w| w[0].end() >= w[1].offset) {
            return Err(format!(
                "free extents {:?} and {:?} are unsorted, overlapping or not coalesced",
                w[0], w[1]
            ));
        }
        let sum: u64 = self.free.iter().map(|e| e.len).sum();
        if sum != self.total_free {
            return Err(format!(
                "free_bytes reads {} but the free extents sum to {sum}",
                self.total_free
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_round_trip() {
        let mut a = ExtentAllocator::new(0, 1_000_000);
        assert_eq!(a.free_bytes(), 1_000_000);
        let e1 = a.alloc(1000).unwrap();
        let e2 = a.alloc(2000).unwrap();
        assert_eq!(a.free_bytes(), 997_000);
        assert_ne!(e1.offset, e2.offset);
        a.free(e1);
        a.free(e2);
        assert_eq!(a.free_bytes(), 1_000_000);
        // Everything coalesces back into one extent.
        assert_eq!(a.fragments(), 1);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut a = ExtentAllocator::new(4096, 10_000_000);
        let mut extents = Vec::new();
        for i in 0..500u64 {
            let len = 100 + (i % 37) * 64;
            extents.push(a.alloc(len).unwrap());
        }
        let mut sorted = extents.clone();
        sorted.sort_by_key(|e| e.offset);
        for w in sorted.windows(2) {
            assert!(w[0].end() <= w[1].offset, "extents overlap: {w:?}");
        }
        // None may fall below the data start.
        assert!(sorted[0].offset >= 4096);
    }

    #[test]
    fn best_fit_prefers_smallest_adequate_extent() {
        let mut a = ExtentAllocator::new(0, 100_000);
        // Carve the space into free fragments of size 1000, 5000 and the rest.
        let big = a.alloc(100_000).unwrap();
        a.free(Extent::new(big.offset, 1000));
        a.free(Extent::new(big.offset + 2000, 5000));
        a.free(Extent::new(big.offset + 10_000, 90_000));
        // A 900-byte request should come from the 1000-byte fragment.
        let got = a.alloc(900).unwrap();
        assert_eq!(got.offset, big.offset);
    }

    /// Regression: the by-size index this list replaced keyed a free
    /// extent by `size_key` alone, so of two equal-length extents whose
    /// fingerprints collide the second overwrote the first, which
    /// `free_bytes` still counted but `alloc` could never hand out.
    #[test]
    fn equal_extents_with_colliding_fingerprints_are_both_allocated() {
        let mut a = ExtentAllocator::new(0, 48 << 20);
        a.alloc(48 << 20).unwrap();
        // Offsets F(37) = 24,157,817 bytes apart: φ-hashing is weakest at
        // Fibonacci distances.
        let (x, y) = (Extent::new(0, 4096), Extent::new(24_157_817, 4096));
        assert_eq!(size_key(x.len, x.offset), size_key(y.len, y.offset));
        a.free(x);
        a.free(y);
        assert_eq!(a.alloc(4096), Some(x), "the tie goes to the lower offset");
        assert_eq!(a.alloc(4096), Some(y));
        assert_eq!(a.free_bytes(), 0);
        assert_eq!(a.alloc(1), None);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = ExtentAllocator::new(0, 10_000);
        assert!(a.alloc(10_001).is_none());
        let e = a.alloc(10_000).unwrap();
        assert!(a.alloc(1).is_none());
        a.free(e);
        assert!(a.alloc(1).is_some());
    }

    #[test]
    fn coalescing_with_both_neighbours() {
        let mut a = ExtentAllocator::new(0, 30_000);
        let e = a.alloc(30_000).unwrap();
        // Free three adjacent pieces out of order; they must merge into one.
        a.free(Extent::new(e.offset, 10_000));
        a.free(Extent::new(e.offset + 20_000, 10_000));
        assert_eq!(a.fragments(), 2);
        a.free(Extent::new(e.offset + 10_000, 10_000));
        assert_eq!(a.fragments(), 1);
        assert_eq!(a.free_bytes(), 30_000);
        let again = a.alloc(30_000).unwrap();
        assert_eq!(again.len, 30_000);
    }

    #[test]
    fn free_list_round_trip() {
        let mut a = ExtentAllocator::new(0, 50_000);
        let e1 = a.alloc(1234).unwrap();
        let _e2 = a.alloc(4321).unwrap();
        a.free(e1);
        let list = a.free_list();
        let b = ExtentAllocator::from_free_list(50_000, list);
        assert_eq!(b.free_bytes(), a.free_bytes());
        assert_eq!(b.free_list(), list);
    }

    #[test]
    fn zero_length_requests_are_trivial() {
        let mut a = ExtentAllocator::new(0, 1000);
        assert_eq!(a.alloc(0), Some(Extent::new(0, 0)));
        a.free(Extent::new(500, 0));
        assert_eq!(a.free_bytes(), 1000);
    }

    #[test]
    fn high_water_tracks_topmost_allocation() {
        let mut a = ExtentAllocator::new(4096, 1_000_000);
        assert_eq!(a.high_water(), 4096, "empty disk: nothing allocated");
        let e1 = a.alloc(10_000).unwrap();
        assert_eq!(a.high_water(), e1.end());
        let e2 = a.alloc(10_000).unwrap();
        assert_eq!(a.high_water(), e2.end());
        // Freeing a middle extent does not lower the mark.
        a.free(e1);
        assert_eq!(a.high_water(), e2.end());
        // Freeing the topmost extent coalesces with the tail and lowers it.
        a.free(e2);
        assert_eq!(a.high_water(), 4096);
        // A fully allocated disk has no tail extent at all.
        let all = a.alloc(1_000_000 - 4096).unwrap();
        assert_eq!(a.high_water(), a.capacity());
        a.free(all);
    }

    #[test]
    fn sequential_allocations_are_contiguous_when_space_allows() {
        // Delayed allocation relies on the allocator handing out adjacent
        // ranges for back-to-back writes.
        let mut a = ExtentAllocator::new(0, 1_000_000);
        let e1 = a.alloc(4096).unwrap();
        let e2 = a.alloc(4096).unwrap();
        assert_eq!(e1.end(), e2.offset);
    }

    #[test]
    fn a_malformed_free_list_is_reported() {
        let ok = ExtentAllocator::from_free_list(100, &[Extent::new(0, 10), Extent::new(20, 10)]);
        ok.check_invariants().unwrap();
        for (free, what) in [
            (&[Extent::new(20, 10), Extent::new(0, 10)][..], "unsorted"),
            (
                &[Extent::new(0, 10), Extent::new(10, 10)][..],
                "not coalesced",
            ),
            (&[Extent::new(95, 10)][..], "past the capacity"),
        ] {
            let err = ExtentAllocator::from_free_list(100, free)
                .check_invariants()
                .unwrap_err();
            assert!(err.contains(what), "{free:?}: {err}");
        }
    }
}
