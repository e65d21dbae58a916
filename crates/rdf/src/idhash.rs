//! A keyless multiplicative hasher for tables keyed by ids we mint.
//!
//! `TermId`s, id tuples and the interner's already-mixed view hashes are
//! values this process assigns; nothing read from a file can choose them,
//! so hash flooding is not a concern and SipHash's per-key cost (the graph
//! probes five tables per inserted triple) buys nothing. Term *strings* are
//! hashed once, by `DefaultHasher::new()` — SipHash under fixed, public
//! keys, so no defence against a crafted file either. What matters there is
//! that every graph computes the same hash for a term: the merge fold files
//! each term under the hash its sub-graph recorded (see [`crate::graph`]).
//!
//! The mix is the Fx word step: rotate, xor the word in, multiply by an odd
//! constant. No output depends on hash values: every serializer sorts, and
//! ids are assigned in insertion order.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0x517c_c1b7_2722_0a95;

/// See the module docs. Only for keys this process assigns.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

pub(crate) type IdBuildHasher = BuildHasherDefault<IdHasher>;
/// A `HashMap` keyed by minted ids.
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;
/// A `HashSet` of minted ids or id tuples.
pub type IdSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        IdBuildHasher::default().hash_one(v)
    }

    #[test]
    fn keyless_and_position_sensitive() {
        assert_eq!(hash_of((1u32, 2u32, 3u32)), hash_of((1u32, 2u32, 3u32)));
        assert_ne!(hash_of((1u32, 2u32, 3u32)), hash_of((3u32, 2u32, 1u32)));
        assert_ne!(hash_of(1u32), hash_of(2u32));
    }

    #[test]
    fn dense_ids_spread_over_low_and_high_bits() {
        // hashbrown indexes buckets with the low bits and tags with the top
        // seven: sequential ids must not pile up in either.
        let low: IdSet<u64> = (0..4096u32).map(|i| hash_of(i) & 0xfff).collect();
        let high: IdSet<u64> = (0..4096u32).map(|i| hash_of(i) >> 57).collect();
        assert!(low.len() > 2048, "low bits: {} distinct of 4096", low.len());
        assert_eq!(high.len(), 128);
    }

    #[test]
    fn id_tables_behave_like_std_tables() {
        let mut m: IdMap<u32, &str> = IdMap::default();
        m.insert(7, "a");
        m.insert(7, "b");
        assert_eq!(m.len(), 1);
        assert_eq!(m[&7], "b");
        let mut s: IdSet<(u32, u32, u32)> = IdSet::default();
        assert!(s.insert((1, 2, 3)));
        assert!(!s.insert((1, 2, 3)));
    }
}
