//! Bounded top-k tracking with pruning thresholds.
//!
//! Every search in Harmony maintains a max-heap of the best `k` candidates
//! seen so far. The heap's worst retained score is the pruning threshold
//! `τ²` (§3.1): any candidate whose (partial) score already exceeds `τ²`
//! provably cannot enter the top-k and is discarded. [`TopK::threshold`]
//! exposes exactly this value; while the heap is not yet full the threshold
//! is `+∞` so nothing is pruned prematurely.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::vector::VectorId;

/// One search result: a vector id and its lower-is-better score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Id of the matched base vector.
    pub id: VectorId,
    /// Lower-is-better score (squared L2 distance, or negated similarity).
    pub score: f32,
}

impl Neighbor {
    /// Creates a neighbor entry.
    #[inline]
    pub fn new(id: VectorId, score: f32) -> Self {
        Self { id, score }
    }
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    /// Orders by score (total order via `f32::total_cmp`), breaking ties by
    /// id so results are fully deterministic.
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Most entries [`TopK::new`] reserves up front; a larger `k` grows the
/// heap as candidates arrive, so an outsized `k` costs nothing until it is
/// filled.
const PREALLOC_MAX: usize = 1024;

/// A bounded max-heap keeping the `k` smallest-scored neighbors.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl TopK {
    /// Creates a tracker for the best `k` results, reserving room for at
    /// most [`PREALLOC_MAX`] of them.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k.min(PREALLOC_MAX) + 1),
        }
    }

    /// Capacity `k` of the tracker.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidates currently retained (`<= k`).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no candidate has been accepted yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// `true` once `k` candidates are retained.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// Current pruning threshold `τ²`: the worst retained score once full,
    /// `+∞` before that.
    ///
    /// A candidate can be discarded as soon as its accumulated partial score
    /// strictly exceeds this value (L2), or its best-possible completion
    /// exceeds it (inner product with residual bounds).
    #[inline]
    pub fn threshold(&self) -> f32 {
        if self.is_full() {
            // Heap is non-empty here, peek cannot fail.
            self.heap.peek().map_or(f32::INFINITY, |n| n.score)
        } else {
            f32::INFINITY
        }
    }

    /// Offers a candidate; returns `true` if it was retained.
    #[inline]
    pub fn push(&mut self, id: VectorId, score: f32) -> bool {
        let cand = Neighbor::new(id, score);
        if self.heap.len() < self.k {
            self.heap.push(cand);
            true
        } else if let Some(worst) = self.heap.peek() {
            if cand < *worst {
                self.heap.pop();
                self.heap.push(cand);
                true
            } else {
                false
            }
        } else {
            false
        }
    }

    /// Merges every retained candidate of `other` into `self`.
    pub fn merge(&mut self, other: &TopK) {
        for n in other.heap.iter() {
            self.push(n.id, n.score);
        }
    }

    /// Consumes the tracker and returns neighbors sorted best-first.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }

    /// Returns the retained neighbors sorted best-first without consuming.
    pub fn to_sorted(&self) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = self.heap.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest() {
        let mut t = TopK::new(3);
        for (id, score) in [(0, 5.0), (1, 1.0), (2, 4.0), (3, 2.0), (4, 3.0)] {
            t.push(id, score);
        }
        let out = t.into_sorted();
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 3, 4]);
        assert_eq!(out[0].score, 1.0);
    }

    #[test]
    fn threshold_is_infinite_until_full() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), f32::INFINITY);
        t.push(0, 10.0);
        assert_eq!(t.threshold(), f32::INFINITY);
        t.push(1, 20.0);
        assert_eq!(t.threshold(), 20.0);
        t.push(2, 5.0);
        assert_eq!(t.threshold(), 10.0);
    }

    #[test]
    fn push_reports_retention() {
        let mut t = TopK::new(1);
        assert!(t.push(0, 1.0));
        assert!(!t.push(1, 2.0));
        assert!(t.push(2, 0.5));
        assert_eq!(t.into_sorted()[0].id, 2);
    }

    #[test]
    fn ties_break_by_id_deterministically() {
        let mut t = TopK::new(2);
        t.push(7, 1.0);
        t.push(3, 1.0);
        t.push(5, 1.0);
        let out = t.into_sorted();
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn merge_combines_trackers() {
        let mut a = TopK::new(2);
        a.push(0, 4.0);
        a.push(1, 3.0);
        let mut b = TopK::new(2);
        b.push(2, 1.0);
        b.push(3, 2.0);
        a.merge(&b);
        let out = a.into_sorted();
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn handles_nan_free_total_order_extremes() {
        let mut t = TopK::new(2);
        t.push(0, f32::INFINITY);
        t.push(1, f32::NEG_INFINITY);
        t.push(2, 0.0);
        let out = t.into_sorted();
        assert_eq!(out[0].id, 1);
        assert_eq!(out[1].id, 2);
    }

    /// An outsized `k` reserves a bounded heap (`1 << 40` entries would be
    /// 16 TiB) and still keeps every candidate it is offered, past the
    /// reservation, without a threshold until `k` are in.
    #[test]
    fn outsized_k_reserves_little_and_grows() {
        let mut t = TopK::new(1 << 40);
        assert!(t.heap.capacity() <= PREALLOC_MAX + 1);
        let n = 3 * PREALLOC_MAX as u64;
        for id in 0..n {
            assert!(t.push(id, (n - id) as f32));
        }
        assert_eq!(t.len(), n as usize);
        assert_eq!(t.threshold(), f32::INFINITY);
        let out = t.into_sorted();
        assert_eq!(out[0].id, n - 1);
        assert_eq!(out.len(), n as usize);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        TopK::new(0);
    }

    #[test]
    fn to_sorted_does_not_consume() {
        let mut t = TopK::new(2);
        t.push(0, 2.0);
        t.push(1, 1.0);
        let s1 = t.to_sorted();
        let s2 = t.to_sorted();
        assert_eq!(s1, s2);
        assert_eq!(s1[0].id, 1);
    }
}
