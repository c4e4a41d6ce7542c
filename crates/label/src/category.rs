//! Taint categories and category allocation.
//!
//! Categories are named by 61-bit opaque identifiers.  The kernel generates
//! them by encrypting a counter with a block cipher so that a thread cannot
//! learn how many categories other threads have allocated by observing the
//! identifiers it receives (§2 of the paper).  The specific width of 61 bits
//! was chosen so that a category name and a 3-bit taint level fit in a single
//! 64-bit word.

use core::fmt;

/// Number of bits in a category identifier.
pub const CATEGORY_BITS: u32 = 61;

/// Mask selecting the low 61 bits of a `u64`.
pub const CATEGORY_MASK: u64 = (1u64 << CATEGORY_BITS) - 1;

/// A 61-bit opaque category identifier.
///
/// Categories are the unit of information-flow policy: each category in a
/// label independently restricts either reading or writing of the labelled
/// object.  Whoever allocates a category owns it (level `⋆`) and has the
/// exclusive ability to untaint data in it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Category(u64);

impl Category {
    /// Constructs a category from a raw 61-bit value.
    ///
    /// # Panics
    ///
    /// Panics if `raw` does not fit in 61 bits.  Use
    /// [`Category::try_from_raw`] for a fallible variant.
    pub fn from_raw(raw: u64) -> Category {
        assert!(raw <= CATEGORY_MASK, "category identifier exceeds 61 bits");
        Category(raw)
    }

    /// Constructs a category from a raw value, returning `None` if it does
    /// not fit in 61 bits.
    pub fn try_from_raw(raw: u64) -> Option<Category> {
        if raw <= CATEGORY_MASK {
            Some(Category(raw))
        } else {
            None
        }
    }

    /// Returns the raw 61-bit identifier.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Packs this category together with a 3-bit level encoding into a
    /// single 64-bit word, as the kernel's label representation does.
    pub fn pack_with_level(self, level_bits: u8) -> u64 {
        debug_assert!(level_bits < 8);
        (self.0 << 3) | u64::from(level_bits & 0x7)
    }

    /// Unpacks a word produced by [`Category::pack_with_level`], returning
    /// the category and the 3-bit level encoding.
    pub fn unpack_with_level(word: u64) -> (Category, u8) {
        (Category(word >> 3), (word & 0x7) as u8)
    }
}

impl fmt::Debug for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Category({:#x})", self.0)
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{:x}", self.0)
    }
}

/// A 61-bit balanced Feistel network used as the category-name block cipher.
///
/// The paper only requires that the mapping from the allocation counter to
/// the visible identifier be a *pseudorandom permutation* of the 61-bit
/// space, so that identifiers do not reveal allocation counts.  We use an
/// 8-round Feistel network with a mixing function derived from
/// SplitMix64-style finalizers.  This is not intended to be
/// cryptographically strong against offline attack; it is a faithful,
/// dependency-free stand-in for the kernel's counter encryption.
#[derive(Clone, Debug)]
pub struct FeistelCipher {
    round_keys: [u64; FeistelCipher::ROUNDS],
}

impl FeistelCipher {
    /// Number of Feistel rounds.
    pub const ROUNDS: usize = 8;

    /// Left half: 31 bits; right half: 30 bits (61 total).
    const LEFT_BITS: u32 = 31;
    const RIGHT_BITS: u32 = 30;
    const LEFT_MASK: u64 = (1 << Self::LEFT_BITS) - 1;
    const RIGHT_MASK: u64 = (1 << Self::RIGHT_BITS) - 1;

    /// Creates a cipher keyed by `seed`.
    pub fn new(seed: u64) -> FeistelCipher {
        let mut round_keys = [0u64; Self::ROUNDS];
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        for key in &mut round_keys {
            state = Self::splitmix(state);
            *key = state;
        }
        FeistelCipher { round_keys }
    }

    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn round(&self, half: u64, key: u64) -> u64 {
        Self::splitmix(half ^ key)
    }

    /// Encrypts a 61-bit value into another 61-bit value (a permutation).
    ///
    /// The construction is an *alternating* Feistel network: even rounds
    /// XOR a keyed mix of the right half into the left half, odd rounds the
    /// reverse.  Each round is invertible, so the whole network is a
    /// permutation of the 61-bit space.
    ///
    /// # Panics
    ///
    /// Panics if `plaintext` does not fit in 61 bits.
    pub fn encrypt(&self, plaintext: u64) -> u64 {
        assert!(plaintext <= CATEGORY_MASK, "plaintext exceeds 61 bits");
        let mut left = (plaintext >> Self::RIGHT_BITS) & Self::LEFT_MASK;
        let mut right = plaintext & Self::RIGHT_MASK;
        for (i, &key) in self.round_keys.iter().enumerate() {
            if i % 2 == 0 {
                left ^= self.round(right, key) & Self::LEFT_MASK;
            } else {
                right ^= self.round(left, key) & Self::RIGHT_MASK;
            }
        }
        (left << Self::RIGHT_BITS) | right
    }

    /// Decrypts a value produced by [`FeistelCipher::encrypt`].
    pub fn decrypt(&self, ciphertext: u64) -> u64 {
        assert!(ciphertext <= CATEGORY_MASK, "ciphertext exceeds 61 bits");
        let mut left = (ciphertext >> Self::RIGHT_BITS) & Self::LEFT_MASK;
        let mut right = ciphertext & Self::RIGHT_MASK;
        for (i, &key) in self.round_keys.iter().enumerate().rev() {
            if i % 2 == 0 {
                left ^= self.round(right, key) & Self::LEFT_MASK;
            } else {
                right ^= self.round(left, key) & Self::RIGHT_MASK;
            }
        }
        (left << Self::RIGHT_BITS) | right
    }
}

/// Allocates fresh categories by encrypting a monotonic counter.
///
/// The counter space is 61 bits; even allocating a billion categories per
/// second it would take over 60 years to exhaust, so the allocator simply
/// panics on wraparound rather than attempting reuse.
#[derive(Debug)]
pub struct CategoryAllocator {
    cipher: FeistelCipher,
    counter: u64,
}

impl CategoryAllocator {
    /// Creates an allocator keyed by `seed`.
    ///
    /// Two allocators with the same seed produce the same sequence, which is
    /// useful for deterministic simulation and for restoring the single-level
    /// store; production kernels would seed from a hardware entropy source.
    pub fn new(seed: u64) -> CategoryAllocator {
        CategoryAllocator {
            cipher: FeistelCipher::new(seed),
            counter: 0,
        }
    }

    /// Creates an allocator that resumes from a previously saved counter.
    pub fn resume(seed: u64, counter: u64) -> CategoryAllocator {
        CategoryAllocator {
            cipher: FeistelCipher::new(seed),
            counter,
        }
    }

    /// Allocates a previously unused category.
    ///
    /// # Panics
    ///
    /// Panics if the 61-bit identifier space is exhausted.
    pub fn alloc(&mut self) -> Category {
        assert!(self.counter <= CATEGORY_MASK, "category space exhausted");
        let id = self.cipher.encrypt(self.counter);
        self.counter += 1;
        Category(id & CATEGORY_MASK)
    }

    /// Number of categories allocated so far.
    ///
    /// Only the kernel may observe this; exposing it to user threads would
    /// itself be a covert channel, which is exactly why identifiers are
    /// encrypted.
    pub fn allocated(&self) -> u64 {
        self.counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn category_fits_61_bits() {
        assert!(Category::try_from_raw(CATEGORY_MASK).is_some());
        assert!(Category::try_from_raw(CATEGORY_MASK + 1).is_none());
    }

    #[test]
    #[should_panic(expected = "61 bits")]
    fn from_raw_panics_on_overflow() {
        let _ = Category::from_raw(1 << 61);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let c = Category::from_raw(0x1234_5678_9abc);
        for bits in 0..5u8 {
            let word = c.pack_with_level(bits);
            let (c2, b2) = Category::unpack_with_level(word);
            assert_eq!(c2, c);
            assert_eq!(b2, bits);
        }
    }

    #[test]
    fn feistel_is_a_permutation_on_small_sample() {
        let cipher = FeistelCipher::new(42);
        let mut seen = BTreeSet::new();
        for i in 0..10_000u64 {
            let e = cipher.encrypt(i);
            assert!(e <= CATEGORY_MASK, "ciphertext must stay in 61 bits");
            assert!(seen.insert(e), "collision at counter {i}");
        }
    }

    #[test]
    fn feistel_encrypt_decrypt_round_trip() {
        let cipher = FeistelCipher::new(0xdead_beef);
        for i in (0..100_000u64).step_by(977) {
            assert_eq!(cipher.decrypt(cipher.encrypt(i)), i);
        }
        assert_eq!(cipher.decrypt(cipher.encrypt(CATEGORY_MASK)), CATEGORY_MASK);
    }

    #[test]
    fn feistel_is_deterministic_per_seed() {
        let a = FeistelCipher::new(7);
        let b = FeistelCipher::new(7);
        let c = FeistelCipher::new(8);
        assert_eq!(a.encrypt(1234), b.encrypt(1234));
        assert_ne!(
            a.encrypt(1234),
            c.encrypt(1234),
            "different seeds should (overwhelmingly) differ"
        );
    }

    #[test]
    fn encrypted_ids_hide_allocation_order() {
        // Consecutive counters should not produce consecutive identifiers.
        let cipher = FeistelCipher::new(99);
        let mut consecutive = 0;
        for i in 0..1000u64 {
            if cipher.encrypt(i + 1).wrapping_sub(cipher.encrypt(i)) == 1 {
                consecutive += 1;
            }
        }
        assert!(
            consecutive < 5,
            "identifiers look sequential: {consecutive}"
        );
    }

    #[test]
    fn allocator_yields_distinct_categories() {
        let mut alloc = CategoryAllocator::new(1);
        let mut seen = BTreeSet::new();
        for _ in 0..5000 {
            assert!(seen.insert(alloc.alloc()));
        }
        assert_eq!(alloc.allocated(), 5000);
    }

    #[test]
    fn allocator_resume_continues_sequence() {
        let mut a = CategoryAllocator::new(3);
        for _ in 0..10 {
            a.alloc();
        }
        let next_from_a = a.alloc();
        let mut b = CategoryAllocator::resume(3, 10);
        assert_eq!(b.alloc(), next_from_a);
    }

    #[test]
    fn display_and_debug() {
        let c = Category::from_raw(0xff);
        assert_eq!(c.to_string(), "cff");
        assert!(format!("{c:?}").contains("0xff"));
    }
}
