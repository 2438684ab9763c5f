//! Maps and sets keyed by external id, hashed with one multiply.
//!
//! The exact copy's `by_id` ([`ExactCopy`](super::ExactCopy)) and a
//! query's prewarm ids are probed once per SQ8 hit the client reranks,
//! and `by_id` once per pending row each compaction folds, so their hash
//! is on both hot paths. Ids are `u64`s the caller
//! picks — often dense, sometimes strided — and std's SipHash spends tens
//! of nanoseconds per probe to defend against adversarial keys. [`IdHash`]
//! folds the 128-bit product of `(id ^ seed)` and an odd constant: the
//! low half carries the low bits of the id, the high half every bit, so
//! dense and strided ids alike spread over the low bits the table indexes
//! by. Each map draws its own seed from [`RandomState`], so hash order —
//! and which keys collide — still differs from map to map and from
//! process to process. What it gives up is SipHash's keyed defence
//! against ids chosen to collide: the seed keeps a collision set from
//! being worked out once and reused on another map or process, but not
//! from being searched for against one running map.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// External id → `V`.
pub(crate) type IdMap<V> = HashMap<u64, V, IdHash>;

/// A set of external ids.
pub(crate) type IdSet = HashSet<u64, IdHash>;

/// The odd multiplier (the 64-bit golden ratio, as in Fibonacci hashing).
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// An [`IdMap`]'s hasher builder: one seed per map.
#[derive(Clone)]
pub(crate) struct IdHash {
    seed: u64,
}

impl Default for IdHash {
    /// A fresh seed from [`RandomState`], whose keys differ per map and
    /// per process.
    fn default() -> Self {
        Self {
            seed: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for IdHash {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            seed: self.seed,
            hash: 0,
        }
    }
}

/// The hasher of one [`IdMap`] probe.
pub(crate) struct IdHasher {
    seed: u64,
    hash: u64,
}

impl Hasher for IdHasher {
    fn write_u64(&mut self, id: u64) {
        let product = u128::from(id ^ self.seed) * u128::from(MULTIPLIER);
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }

    /// Keys other than a `u64` (none in an [`IdMap`]) fold in byte by
    /// byte.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.hash.rotate_left(8) ^ u64::from(byte));
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense ids and ids strided by 2^32 and 2^48 — whose low bits are
    /// all equal — spread over the buckets a table of 4096 indexes by the
    /// low 12 bits. A uniform hash fills 1 − e⁻³ ≈ 95 % of them with the
    /// 12 288 ids together, and 1 − e⁻¹ ≈ 63 % with each stride's 4096
    /// alone (an identity hash would put a strided set in one bucket). And
    /// two maps of one process hash the same id differently.
    #[test]
    fn id_map_spreads_strided_ids() {
        let fill = |hash: &IdHash, ids: &mut dyn Iterator<Item = u64>| {
            let mut filled = vec![false; 4096];
            for id in ids {
                filled[(hash.hash_one(id) & 4095) as usize] = true;
            }
            filled.iter().filter(|&&f| f).count() as f64 / 4096.0
        };
        let seeds = [0, 1, MULTIPLIER, u64::MAX, IdHash::default().seed];
        for seed in seeds {
            let hash = IdHash { seed };
            let all = fill(&hash, &mut (0..4096u64).flat_map(|i| [i, i << 32, i << 48]));
            assert!(all >= 0.9, "seed {seed:#x}: {all:.3} of the buckets");
            for shift in [0, 32, 48] {
                let one = fill(&hash, &mut (0..4096u64).map(|i| i << shift));
                assert!(one >= 0.55, "seed {seed:#x}, ids i << {shift}: {one:.3}");
            }
        }

        let (a, b) = (IdHash::default(), IdHash::default());
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));

        // The map itself: every id finds its row.
        let ids: Vec<u64> = (1..4096u64).flat_map(|i| [i, i << 32, i << 48]).collect();
        let mut map = IdMap::default();
        map.extend(ids.iter().enumerate().map(|(row, &id)| (id, row)));
        assert_eq!(map.len(), ids.len());
        assert!(ids.iter().enumerate().all(|(row, id)| map[id] == row));
    }
}
