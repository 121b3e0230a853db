//! A fast, deterministic hasher for the data plane.
//!
//! The hot path of evaluation is dominated by small hash operations:
//! every answer tuple is deduplicated at its rule node, inserted into a
//! node-local [`Relation`](crate::Relation), checked against per-stream
//! `ended`/`requested` sets, and probed through [`KeyIndex`] maps — all
//! keyed by interned words or short word slices. `std`'s default SipHash
//! is built to resist hash-flooding from untrusted keys; these keys are
//! the engine's own interned values, so the defence buys nothing and
//! costs a large constant per operation.
//!
//! [`FastHasher`] is an FxHash-style multiply-rotate mixer over native
//! words. It is **deterministic across processes** (no random seed),
//! which is a feature here: the simulated runtime's reproducibility
//! promise extends to hash-bucket iteration wherever a map's order could
//! leak into schedules. Do not use it on attacker-controlled keys.
//!
//! [`KeyIndex`]: crate::KeyIndex

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by trusted engine data, using [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` of trusted engine data, using [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// Multiplier from the golden ratio (same constant family as FxHash /
/// Fibonacci hashing); spreads consecutive interned ids across buckets.
pub(crate) const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fold one word into a running key hash — the same rotate/xor/multiply
/// step [`FastHasher`] applies per word, exposed as a pure function so
/// the columnar join kernels can hash a whole key column in one batched
/// pass per column (see `Relation::key_hashes`).
#[inline]
pub(crate) fn fold_key_word(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// An FxHash-style streaming hasher: rotate, xor, multiply per word.
///
/// Word-sized writes (`u64`/`u32`/`u8`/`usize`) mix one word each, so
/// hashing a [`Tuple`](crate::Tuple) of interned values is a handful of
/// multiplies. Byte slices are consumed in little-endian word chunks.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Length tag so "ab" and "ab\0" cannot collide trivially.
            tail[7] = rest.len() as u8;
            self.mix(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.mix(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    fn hash_of(f: impl Fn(&mut FastHasher)) -> u64 {
        let mut h = FastHasher::default();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_builders() {
        let b1: BuildHasherDefault<FastHasher> = Default::default();
        let b2: BuildHasherDefault<FastHasher> = Default::default();
        assert_eq!(b1.hash_one(12345u64), b2.hash_one(12345u64));
        assert_eq!(b1.hash_one("symbol"), b2.hash_one("symbol"));
    }

    #[test]
    fn order_sensitive_and_spreading() {
        let ab = hash_of(|h| {
            h.write_u64(1);
            h.write_u64(2);
        });
        let ba = hash_of(|h| {
            h.write_u64(2);
            h.write_u64(1);
        });
        assert_ne!(ab, ba, "word order must matter");
        // Consecutive small ids land in different buckets.
        let hashes: Vec<u64> = (0u64..64).map(|v| hash_of(|h| h.write_u64(v))).collect();
        let distinct: std::collections::HashSet<&u64> = hashes.iter().collect();
        assert_eq!(distinct.len(), 64);
    }

    #[test]
    fn byte_tail_is_length_tagged() {
        assert_ne!(
            hash_of(|h| h.write(b"ab")),
            hash_of(|h| h.write(b"ab\0")),
            "trailing zero bytes must change the hash"
        );
    }

    #[test]
    fn fast_map_and_set_work() {
        let mut m: FastMap<crate::Tuple, u32> = FastMap::default();
        m.insert(crate::tuple![1, 2], 7);
        assert_eq!(m.get(&crate::tuple![1, 2]), Some(&7));
        let mut s: FastSet<u64> = FastSet::default();
        assert!(s.insert(3));
        assert!(!s.insert(3));
    }
}
