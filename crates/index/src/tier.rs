//! Temperature tiering primitives for multi-tenant residency control.
//!
//! HARMONY's original design keeps one dataset fully RAM-resident; serving
//! many tenants on fixed hardware inverts that assumption — most
//! namespaces are cold most of the time. This module supplies the three
//! building blocks the worker composes into a tiered block store:
//!
//! * [`Temperature`] — the per-namespace residency tier and its legal
//!   transitions (any tier may move to any other; the *mechanics* differ),
//! * [`BlockCache`] — a byte-budgeted LRU over opaque keys (the worker's
//!   are single lists of a grid block). The cache tracks recency and
//!   budget only; the owner holds the payloads and evicts exactly the keys
//!   this cache returns, so its resident-byte stats stay exact,
//! * [`AccessEwma`] — an exponentially-weighted access rate per namespace
//!   driving automatic promote/demote sweeps.
//!
//! The tier state machine (DESIGN.md §8):
//!
//! ```text
//!            demote                 demote
//!   Hot ───────────────▶ Warm ───────────────▶ Cold
//!    ▲   (spill, cache)   │    (drop lists)      │
//!    │                    │ fault probed lists   │ fault probed lists
//!    └────────────────────┴─────────◀────────────┘
//!            promote (fault all + pin)
//! ```
//!
//! Hot blocks are pinned RAM residents and never appear in the cache.
//! Warm/cold blocks live on disk as part files (see
//! [`crate::persist::write_part_file`]); a visit — or the prefetch the
//! client sends ahead of it — faults the probed lists back, inserts them
//! at the cache's MRU end, and evicts least-recent lists past the byte
//! budget. Faulting a list back is a pure byte round-trip, so search
//! results are bit-identical across tiers.

use std::collections::VecDeque;

/// Residency tier of one namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Temperature {
    /// RAM-resident and pinned: never cached, never evicted.
    #[default]
    Hot,
    /// Spilled to disk with payloads retained in the LRU cache up to the
    /// byte budget; faulted back on demand.
    Warm,
    /// Spilled to disk with payloads dropped immediately; every visit
    /// faults through the cache.
    Cold,
}

impl Temperature {
    /// Wire tag of the tier.
    pub fn encode(self) -> u8 {
        match self {
            Temperature::Hot => 0,
            Temperature::Warm => 1,
            Temperature::Cold => 2,
        }
    }

    /// Decodes a wire tag; unknown tags are rejected.
    pub fn decode(tag: u8) -> Option<Temperature> {
        match tag {
            0 => Some(Temperature::Hot),
            1 => Some(Temperature::Warm),
            2 => Some(Temperature::Cold),
            _ => None,
        }
    }

    /// Whether blocks of this tier are pinned in RAM.
    pub fn is_pinned(self) -> bool {
        matches!(self, Temperature::Hot)
    }

    /// Short lowercase label for reports and benches.
    pub fn label(self) -> &'static str {
        match self {
            Temperature::Hot => "hot",
            Temperature::Warm => "warm",
            Temperature::Cold => "cold",
        }
    }
}

/// A byte-budgeted LRU over opaque block keys.
///
/// The cache does not own payloads: [`BlockCache::insert`] records a key
/// with its resident size and returns every key pushed past the budget —
/// the caller drops those payloads itself. This split keeps the
/// accounting exact: bytes leave the cache in the same call stack that
/// frees them.
#[derive(Debug)]
pub struct BlockCache<K: Eq + Clone> {
    /// Byte budget; 0 admits nothing (every insert evicts itself).
    budget: usize,
    /// Resident bytes currently tracked.
    resident: usize,
    /// LRU order: front = least recent, back = most recent.
    entries: VecDeque<(K, usize)>,
}

impl<K: Eq + Clone> BlockCache<K> {
    /// Creates an empty cache with the given byte budget.
    pub fn new(budget: usize) -> Self {
        Self {
            budget,
            resident: 0,
            entries: VecDeque::new(),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes currently tracked as resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache tracks no blocks.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is currently cached.
    pub fn contains(&self, key: &K) -> bool {
        self.entries.iter().any(|(k, _)| k == key)
    }

    /// Marks `key` most-recently-used. Returns `false` if it is not cached.
    pub fn touch(&mut self, key: &K) -> bool {
        let Some(pos) = self.entries.iter().position(|(k, _)| k == key) else {
            return false;
        };
        let Some(entry) = self.entries.remove(pos) else {
            return false;
        };
        self.entries.push_back(entry);
        true
    }

    /// Inserts (or refreshes) `key` with `bytes` resident bytes at the MRU
    /// end, then evicts least-recent entries until the budget holds.
    /// Returns the evicted keys, oldest first — which may include `key`
    /// itself when it alone exceeds the budget.
    pub fn insert(&mut self, key: K, bytes: usize) -> Vec<K> {
        self.remove(&key);
        self.entries.push_back((key, bytes));
        self.resident += bytes;
        let mut evicted = Vec::new();
        while self.resident > self.budget {
            let Some((k, b)) = self.entries.pop_front() else {
                break;
            };
            self.resident -= b;
            evicted.push(k);
        }
        evicted
    }

    /// Removes `key` without treating it as an eviction. Returns its
    /// tracked size, or `None` if absent.
    pub fn remove(&mut self, key: &K) -> Option<usize> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let (_, bytes) = self.entries.remove(pos)?;
        self.resident -= bytes;
        Some(bytes)
    }

    /// Removes every key matching the predicate (namespace teardown /
    /// epoch eviction), returning `(keys, total bytes)`.
    pub fn remove_matching(&mut self, mut pred: impl FnMut(&K) -> bool) -> (Vec<K>, usize) {
        let mut removed = Vec::new();
        let mut bytes = 0usize;
        self.entries.retain(|(k, b)| {
            if pred(k) {
                removed.push(k.clone());
                bytes += *b;
                false
            } else {
                true
            }
        });
        self.resident -= bytes;
        (removed, bytes)
    }
}

/// Exponentially-weighted per-namespace access rate.
///
/// Each recorded access adds 1; each [`AccessEwma::decay`] sweep multiplies
/// the accumulated rate by `alpha` (0 < alpha < 1). A namespace that stops
/// being queried decays geometrically toward 0, which an automatic sweep
/// compares against promote/demote thresholds.
#[derive(Debug, Clone)]
pub struct AccessEwma {
    rate: f64,
    alpha: f64,
}

impl AccessEwma {
    /// Creates a zero-rate tracker with decay factor `alpha`, clamped into
    /// `(0, 1)`.
    pub fn new(alpha: f64) -> Self {
        Self {
            rate: 0.0,
            alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON),
        }
    }

    /// Records `n` accesses.
    pub fn record(&mut self, n: u64) {
        self.rate += n as f64;
    }

    /// Applies one decay sweep.
    pub fn decay(&mut self) {
        self.rate *= self.alpha;
    }

    /// The current smoothed access rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temperature_tags_roundtrip_and_reject_unknown() {
        for t in [Temperature::Hot, Temperature::Warm, Temperature::Cold] {
            assert_eq!(Temperature::decode(t.encode()), Some(t));
        }
        assert_eq!(Temperature::decode(3), None);
        assert_eq!(Temperature::decode(255), None);
        assert!(Temperature::Hot.is_pinned());
        assert!(!Temperature::Warm.is_pinned());
        assert!(!Temperature::Cold.is_pinned());
    }

    #[test]
    fn cache_evicts_least_recent_past_budget() {
        let mut cache: BlockCache<u32> = BlockCache::new(100);
        assert!(cache.insert(1, 40).is_empty());
        assert!(cache.insert(2, 40).is_empty());
        // Key 1 is LRU; inserting 3 pushes resident to 120 > 100.
        assert_eq!(cache.insert(3, 40), vec![1]);
        assert_eq!(cache.resident_bytes(), 80);
        assert!(!cache.contains(&1));
        assert!(cache.contains(&2) && cache.contains(&3));
    }

    #[test]
    fn touch_reorders_recency() {
        let mut cache: BlockCache<u32> = BlockCache::new(100);
        cache.insert(1, 40);
        cache.insert(2, 40);
        assert!(cache.touch(&1));
        // Now 2 is least recent and goes first.
        assert_eq!(cache.insert(3, 40), vec![2]);
        assert!(!cache.touch(&99));
    }

    #[test]
    fn oversized_insert_evicts_itself() {
        let mut cache: BlockCache<u32> = BlockCache::new(50);
        let evicted = cache.insert(7, 80);
        assert_eq!(evicted, vec![7]);
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
        // Zero-budget caches admit nothing.
        let mut none: BlockCache<u32> = BlockCache::new(0);
        assert_eq!(none.insert(1, 1), vec![1]);
    }

    #[test]
    fn reinsert_replaces_tracked_size() {
        let mut cache: BlockCache<u32> = BlockCache::new(100);
        cache.insert(1, 60);
        cache.insert(1, 30);
        assert_eq!(cache.resident_bytes(), 30);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.remove(&1), Some(30));
        assert_eq!(cache.remove(&1), None);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn remove_matching_clears_a_namespace() {
        let mut cache: BlockCache<(u16, u32)> = BlockCache::new(1000);
        cache.insert((1, 0), 10);
        cache.insert((2, 0), 20);
        cache.insert((1, 1), 30);
        let (keys, bytes) = cache.remove_matching(|&(ns, _)| ns == 1);
        assert_eq!(keys.len(), 2);
        assert_eq!(bytes, 40);
        assert_eq!(cache.resident_bytes(), 20);
        assert!(cache.contains(&(2, 0)));
    }

    #[test]
    fn ewma_decays_idle_namespaces() {
        let mut hot = AccessEwma::new(0.5);
        let mut idle = AccessEwma::new(0.5);
        hot.record(8);
        idle.record(8);
        for _ in 0..4 {
            hot.decay();
            hot.record(8); // keeps being queried
            idle.decay(); // never queried again
        }
        assert!(hot.rate() > 8.0);
        assert!(idle.rate() < 1.0);
        // Degenerate alphas are clamped, not panicking.
        let mut c = AccessEwma::new(7.0);
        c.record(1);
        c.decay();
        assert!(c.rate() < 1.0);
    }
}
