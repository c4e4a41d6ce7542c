//! The one hasher behind the simulator's hash maps, and the one hash map.
//!
//! `HashMap`'s default hasher draws a seed per process.  The model never
//! sees a map's order, but the host does: a dropped world frees its
//! objects and disk blocks in hash order, and that order shapes the
//! allocator's heap for whatever runs next, so two runs of one binary
//! would take different host time.  [`SimHasher`] has no seed, and it is
//! cheap: one rotate, xor and multiply per word, the step of rustc's
//! `FxHasher`.  It does not resist keys crafted to collide, and need not:
//! every key it is given is minted by the simulator — Feistel-encrypted
//! object ids, a label's content hash, label intern ids, disk block
//! numbers — and a flooded table would cost host time only, since a
//! lookup finds the same entry in any order.
//!
//! A product's high bits depend on every input bit and its low bits on
//! few, while a table indexes by the low bits; so [`Hasher::finish`]
//! rotates the high bits down, as rustc-hash 2 does.  Without that, keys
//! with a common stride (4 KiB-aligned offsets) would share one bucket.
//!
//! [`SimHashMap`] is the only hash map the workspace can name.  The root
//! `clippy.toml` bans std's `HashMap`, `HashSet` and `RandomState`, and
//! every other package inherits that ban at `forbid`, which no `#[allow]`
//! lifts; this crate sets it to `deny`, so the alias below is the one
//! place that allows it.  A table that hashes is a `SimHashMap`; anything
//! else keeps a `BTreeMap` or `BTreeSet`, whose order is the keys'.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc-hash 2: odd, with its bits spread evenly.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A deterministic, unkeyed multiply hasher for simulator-minted keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimHasher {
    hash: u64,
}

/// Builds [`SimHasher`]s: the `S` parameter of [`SimHashMap`].
pub type SimBuildHasher = BuildHasherDefault<SimHasher>;

/// std's `HashMap` over the unkeyed [`SimHasher`]: the same table and
/// order in every process.  Build one with `SimHashMap::default()`.
#[allow(clippy::disallowed_types)]
pub type SimHashMap<K, V> = std::collections::HashMap<K, V, SimBuildHasher>;

impl SimHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for SimHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    /// Every key the simulator hashes is one or two `u64`s.
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histar_label::category::FeistelCipher;
    use std::collections::BTreeSet;

    /// The hash of a key written as `words`, by a fresh `H`.
    fn hash_of<H: Hasher + Default>(words: &[u64]) -> u64 {
        let mut h = H::default();
        for &w in words {
            h.write_u64(w);
        }
        h.finish()
    }

    /// Whether `H` spreads `keys` the way `HashMap` reads a hash: every
    /// one of the 128 seven-bit tags it takes from the top occurs, and no
    /// bucket picked by the low 12 bits holds more than 4× the mean.
    fn spreads<H: Hasher + Default>(keys: &[Vec<u64>]) -> Result<(), String> {
        let hashes: Vec<u64> = keys.iter().map(|k| hash_of::<H>(k)).collect();
        let tags: BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        if tags.len() != 128 {
            return Err(format!("{} of 128 tags occur", tags.len()));
        }
        let mut buckets = vec![0usize; 1 << 12];
        for h in &hashes {
            buckets[(h & 0xfff) as usize] += 1;
        }
        let fullest = buckets.iter().copied().max().unwrap_or(0);
        if fullest * buckets.len() > 4 * hashes.len() {
            return Err(format!(
                "a bucket holds {fullest}; the mean is {:.1}",
                hashes.len() as f64 / buckets.len() as f64
            ));
        }
        Ok(())
    }

    /// The three key shapes the simulator's maps see: 4 KiB-aligned disk
    /// offsets (the disk keys by block number, an easier stride of one),
    /// Feistel-encrypted object ids, and pairs of small intern ids.
    fn shapes() -> [(&'static str, Vec<Vec<u64>>); 3] {
        let cipher = FeistelCipher::new(7 ^ 0xbeef);
        [
            (
                "disk offsets",
                (0..4_096).map(|n| vec![n * 4_096]).collect(),
            ),
            (
                "object ids",
                (0..100_000).map(|n| vec![cipher.encrypt(n)]).collect(),
            ),
            (
                "label id pairs",
                (0..256 * 256).map(|n| vec![n / 256, n % 256]).collect(),
            ),
        ]
    }

    #[test]
    #[cfg_attr(miri, ignore = "170,000 keys")]
    fn spreads_every_key_shape() {
        for (name, keys) in shapes() {
            assert_eq!(spreads::<SimHasher>(&keys), Ok(()), "{name}");
        }
    }

    /// The test has teeth: the same step without the final rotation, and
    /// a hasher that passes keys through, each fail some shape.
    #[test]
    #[cfg_attr(miri, ignore = "170,000 keys")]
    fn a_bare_multiply_and_the_identity_fail() {
        #[derive(Default)]
        struct Bare(SimHasher);
        impl Hasher for Bare {
            fn write(&mut self, bytes: &[u8]) {
                self.0.write(bytes);
            }
            fn write_u64(&mut self, n: u64) {
                self.0.add(n);
            }
            fn finish(&self) -> u64 {
                self.0.hash
            }
        }
        #[derive(Default)]
        struct Identity(u64);
        impl Hasher for Identity {
            fn write(&mut self, _: &[u8]) {
                unreachable!("keys are written as u64s");
            }
            fn write_u64(&mut self, n: u64) {
                self.0 = n;
            }
            fn finish(&self) -> u64 {
                self.0
            }
        }
        let fails = |spread: fn(&[Vec<u64>]) -> Result<(), String>| {
            shapes().iter().any(|(_, keys)| spread(keys).is_err())
        };
        assert!(fails(spreads::<Bare>));
        assert!(fails(spreads::<Identity>));
    }

    #[test]
    fn is_a_function_of_the_words_written() {
        let words = [3, 1 << 40, u64::MAX];
        assert_eq!(hash_of::<SimHasher>(&words), hash_of::<SimHasher>(&words));
        assert_ne!(
            hash_of::<SimHasher>(&words),
            hash_of::<SimHasher>(&[1 << 40, 3, u64::MAX])
        );
        let mut bytes = SimHasher::default();
        bytes.write(&7u64.to_le_bytes());
        assert_eq!(bytes.finish(), hash_of::<SimHasher>(&[7]));
    }
}
