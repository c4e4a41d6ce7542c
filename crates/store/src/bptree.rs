//! A map from `u64` keys to `u64` values, for the benchmark's probes.
//!
//! The store keeps its own maps in `std::collections`.  This newtype
//! exists only because the frozen benchmark's `store.bptree_insert_host_ns`
//! and `store.bptree_range_host_ns` probes call `BPlusTree::new`, `insert`
//! and `range`; it keeps exactly those until the probes retire.

use std::collections::BTreeMap;

/// A `u64 → u64` map under the name the benchmark's probes use.
#[derive(Clone, Debug, Default)]
pub struct BPlusTree(BTreeMap<u64, u64>);

impl BPlusTree {
    /// Creates an empty map.
    pub fn new() -> BPlusTree {
        BPlusTree::default()
    }

    /// Inserts a key/value pair, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        self.0.insert(key, value)
    }

    /// Every pair with key in `[lo, hi)`, in ascending key order (none
    /// when `lo >= hi`).
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        if lo >= hi {
            return Vec::new();
        }
        self.0.range(lo..hi).map(|(&k, &v)| (k, v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        assert_eq!(BPlusTree::new().range(0, u64::MAX), vec![]);
    }

    #[test]
    fn insert_get_small() {
        let mut t = BPlusTree::new();
        assert_eq!(t.insert(5, 50), None);
        assert_eq!(t.insert(3, 30), None);
        assert_eq!(t.insert(5, 55), Some(50));
        assert_eq!(t.range(0, 10), vec![(3, 30), (5, 55)]);
    }

    #[test]
    fn range_is_half_open() {
        let mut t = BPlusTree::new();
        for i in (0..100u64).map(|i| i * 10) {
            t.insert(i, i);
        }
        assert_eq!(
            t.range(95, 135),
            vec![(100, 100), (110, 110), (120, 120), (130, 130)]
        );
        assert_eq!(t.range(100, 110), vec![(100, 100)]);
        assert_eq!(t.range(130, 130), vec![]);
        assert_eq!(t.range(135, 95), vec![]);
    }
}
