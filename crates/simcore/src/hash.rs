//! One fixed, fast hasher for the simulation's hashed tables.
//!
//! std's `HashMap` seeds SipHash at random per map: robust against
//! adversarial keys, which a simulation never sees, and a random iteration
//! order, which a simulation must never depend on. [`FxHasher`] is rustc's
//! word-at-a-time hash: each word is folded in by a rotate, an xor and one
//! multiply, and the result is rotated once more so that both the table's
//! bucket index (its low bits) and its tag (its top seven bits) come from
//! the product's well-mixed upper half. Keys should vary in their low 40
//! or so bits, as counters, ids and a mixed placement hash do. It is
//! fixed: no seed, so the same keys hash alike in every run. Code that iterates a hashed table must
//! still sort what it collects before it reaches simulated state; the
//! hasher's order is an accident of its constants.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// rustc's 64-bit Fx multiplier.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The Fx hash state: one word.
#[derive(Clone, Copy, Default, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for w in words {
            self.add(u64::from_le_bytes(*w));
        }
        let (halves, rest) = rest.as_chunks::<4>();
        for h in halves {
            self.add(u64::from(u32::from_le_bytes(*h)));
        }
        for &b in rest {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s; every one starts from the same zero state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` under [`FxHasher`]. Construct with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` under [`FxHasher`]. Construct with `FxHashSet::default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Every map's layout follows from these values: an edit to the hasher
    /// shows up here as a diff, not as a silently reordered table.
    #[test]
    fn outputs_are_pinned() {
        let fx = FxBuildHasher::default();
        assert_eq!(fx.hash_one(0u64), 0);
        assert_eq!(fx.hash_one(1u64), 0xa8b9_8aa7_17c4_d5eb);
        assert_eq!(fx.hash_one(0xdead_beef_u64), 0xd060_f6d3_ac1a_89db);
        assert_eq!(fx.hash_one("get"), 0xf6e6_6e87_7237_d8d6);
        assert_eq!(fx.hash_one("incrementAndGet"), 0x41c9_6b95_1d7c_1fc3);
        // A `(u32, u64)` hashes as `Mid { node, seq }` does.
        assert_eq!(fx.hash_one((7u32, 3u64)), 0xcd8a_9808_c2d8_6dd8);
    }

    /// Sequential ids and keys that differ only above bit 32 both spread
    /// over a small table's buckets (its low hash bits), which the final
    /// rotate draws from the product's upper half.
    #[test]
    fn small_tables_see_varying_bits() {
        let fx = FxBuildHasher::default();
        for shift in [0, 32] {
            let buckets: FxHashSet<u64> =
                (0..64u64).map(|i| fx.hash_one(i << shift) & 63).collect();
            assert!(buckets.len() > 32, "shift {shift}: {} of 64 buckets", buckets.len());
        }
    }
}
