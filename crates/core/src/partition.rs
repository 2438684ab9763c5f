//! Multi-granularity partition plans and shard packing.
//!
//! A [`PartitionPlan`] is the pair `(B_vec, B_dim)` of §4.2: the dataset is
//! cut into `B_vec` vector shards (whole IVF lists) × `B_dim` dimension
//! blocks (contiguous dimension ranges), and each of the `B_vec · B_dim`
//! grid blocks `V_i D_j` lives on one machine (Fig. 4a). Pure vector-based
//! partitioning is the degenerate plan `(N, 1)`; pure dimension-based
//! partitioning is `(1, N)`.
//!
//! [`ShardAssignment`] maps every IVF list to its shard. Harmony's
//! *balanced* packing is weighted LPT (longest-processing-time-first) over
//! `list_size × probe_frequency`, the standard 4/3-approximation for
//! makespan; the *naive* packing used as the ablation baseline assigns lists
//! round-robin, oblivious to size.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use harmony_cluster::NodeId;
use harmony_index::DimRange;

use crate::error::CoreError;

/// A multi-granularity partition plan `π = (B_vec, B_dim)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionPlan {
    /// Number of vector-based shards `|B_vec(π)|`.
    pub vec_shards: usize,
    /// Number of dimension-based blocks `|B_dim(π)|`.
    pub dim_blocks: usize,
}

impl PartitionPlan {
    /// Creates a plan; both factors must be positive.
    ///
    /// # Errors
    /// [`CoreError::Config`] when a factor is zero.
    pub fn new(vec_shards: usize, dim_blocks: usize) -> Result<Self, CoreError> {
        if vec_shards == 0 || dim_blocks == 0 {
            return Err(CoreError::Config(format!(
                "partition factors must be positive, got {vec_shards}x{dim_blocks}"
            )));
        }
        Ok(Self {
            vec_shards,
            dim_blocks,
        })
    }

    /// Pure vector-based partitioning over `n` machines (Harmony-vector).
    pub fn pure_vector(n: usize) -> Self {
        Self {
            vec_shards: n.max(1),
            dim_blocks: 1,
        }
    }

    /// Pure dimension-based partitioning over `n` machines
    /// (Harmony-dimension).
    pub fn pure_dimension(n: usize) -> Self {
        Self {
            vec_shards: 1,
            dim_blocks: n.max(1),
        }
    }

    /// Machines the plan occupies (`B_vec × B_dim`).
    pub fn machines(&self) -> usize {
        self.vec_shards * self.dim_blocks
    }

    /// All factorizations `a × b = n` as candidate plans, vector-heavy
    /// first. The planner scores each with the cost model.
    pub fn enumerate(n_machines: usize) -> Vec<PartitionPlan> {
        let mut plans = Vec::new();
        for a in (1..=n_machines).rev() {
            if n_machines.is_multiple_of(a) {
                plans.push(PartitionPlan {
                    vec_shards: a,
                    dim_blocks: n_machines / a,
                });
            }
        }
        plans
    }

    /// The machine hosting grid block `(shard, dim_block)`.
    ///
    /// Machines are laid out row-major: shard `s` occupies the contiguous
    /// range `[s·B_dim, (s+1)·B_dim)`, so one shard's dimension pipeline
    /// never leaves its row (Fig. 4a's M1..M6 layout).
    ///
    /// # Panics
    /// Panics when the coordinates exceed the plan.
    #[inline]
    pub fn machine_of(&self, shard: usize, dim_block: usize) -> NodeId {
        assert!(shard < self.vec_shards && dim_block < self.dim_blocks);
        shard * self.dim_blocks + dim_block
    }

    /// Inverse of [`PartitionPlan::machine_of`].
    ///
    /// # Panics
    /// Panics when `machine` exceeds the plan.
    #[inline]
    pub fn block_of(&self, machine: NodeId) -> (usize, usize) {
        assert!(machine < self.machines());
        (machine / self.dim_blocks, machine % self.dim_blocks)
    }

    /// The dimension ranges of the plan's blocks for vectors of width `dim`.
    ///
    /// # Errors
    /// [`CoreError::Config`] when there are more blocks than dimensions.
    pub fn dim_ranges(&self, dim: usize) -> Result<Vec<DimRange>, CoreError> {
        if self.dim_blocks > dim {
            return Err(CoreError::Config(format!(
                "cannot split {dim} dimensions into {} blocks",
                self.dim_blocks
            )));
        }
        Ok(DimRange::split(dim, self.dim_blocks))
    }

    /// Short label used in reports, e.g. `"2v x 2d"`.
    pub fn label(&self) -> String {
        format!("{}v x {}d", self.vec_shards, self.dim_blocks)
    }
}

/// Assignment of IVF lists (clusters) to vector shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    /// `cluster_to_shard[c]` = shard owning cluster `c`.
    pub cluster_to_shard: Vec<u32>,
    /// Total weight packed into each shard.
    pub shard_weights: Vec<u64>,
}

impl ShardAssignment {
    /// Balanced packing: weighted LPT. `weights[c]` is the expected work of
    /// cluster `c` (list size × probe frequency). Heaviest cluster first,
    /// always into the lightest shard.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn balanced(weights: &[u64], shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_unstable_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));
        let mut cluster_to_shard = vec![0u32; weights.len()];
        let mut shard_weights = vec![0u64; shards];
        // Min-heap over (weight, shard): each placement is O(log S) instead
        // of an O(S) scan, so replanning ticks stay cheap at large shard
        // counts. `Reverse((w, s))` pops the lightest shard, ties to the
        // lowest index — identical packing to the previous linear scan.
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            (0..shards).map(|s| Reverse((0u64, s))).collect();
        for c in order {
            let Reverse((w, s)) = heap.pop().expect("shards > 0");
            cluster_to_shard[c] = s as u32;
            shard_weights[s] = w + weights[c];
            heap.push(Reverse((shard_weights[s], s)));
        }
        Self {
            cluster_to_shard,
            shard_weights,
        }
    }

    /// Incremental rebalance: starts from `prev` and greedily moves clusters
    /// from the heaviest shard to the lightest one until no move improves
    /// the spread or the moved weight would exceed
    /// `max_move_frac · total_weight`.
    ///
    /// Bounding the moved weight is what makes this suitable for *live*
    /// replanning: each moved cluster later becomes real migration traffic,
    /// so the supervisor caps how much data one tick may put on the wire.
    /// When `prev` does not match (`shards` or cluster count changed) the
    /// incremental path is impossible and this falls back to a fresh
    /// [`ShardAssignment::balanced`] packing.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn rebalance(
        prev: &ShardAssignment,
        weights: &[u64],
        shards: usize,
        max_move_frac: f64,
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        if prev.shards() != shards || prev.cluster_to_shard.len() != weights.len() {
            return Self::balanced(weights, shards);
        }
        let mut cluster_to_shard = prev.cluster_to_shard.clone();
        // Shard weights re-derived under the *new* weights: the profile that
        // produced `prev` may be stale.
        let mut shard_weights = vec![0u64; shards];
        for (c, &w) in weights.iter().enumerate() {
            shard_weights[cluster_to_shard[c] as usize] += w;
        }
        let total: u64 = shard_weights.iter().sum();
        let mut budget = (total as f64 * max_move_frac.clamp(0.0, 1.0)) as u64;

        for _ in 0..weights.len().max(1) {
            let h = (0..shards)
                .max_by_key(|&s| (shard_weights[s], Reverse(s)))
                .expect("shards > 0");
            let l = (0..shards)
                .min_by_key(|&s| (shard_weights[s], s))
                .expect("shards > 0");
            let gap = shard_weights[h] - shard_weights[l];
            if gap == 0 {
                break;
            }
            // Heaviest movable cluster that still shrinks the spread: after
            // the move both endpoints stay strictly below the old maximum.
            let candidate = (0..weights.len())
                .filter(|&c| cluster_to_shard[c] as usize == h)
                .filter(|&c| weights[c] > 0 && weights[c] < gap && weights[c] <= budget)
                .max_by_key(|&c| (weights[c], Reverse(c)));
            let Some(c) = candidate else { break };
            cluster_to_shard[c] = l as u32;
            shard_weights[h] -= weights[c];
            shard_weights[l] += weights[c];
            budget -= weights[c];
        }
        Self {
            cluster_to_shard,
            shard_weights,
        }
    }

    /// Groups a query's probed clusters into its shard visits: shards in
    /// the order the probes first reach them (probes come nearest first, so
    /// the nearest shard is visited first), each with its clusters in probe
    /// order.
    pub fn visits(&self, probes: &[u32]) -> Vec<(u32, Vec<u32>)> {
        let mut visits: Vec<(u32, Vec<u32>)> = Vec::new();
        for &c in probes {
            let shard = self.cluster_to_shard[c as usize];
            match visits.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, clusters)) => clusters.push(c),
                None => visits.push((shard, vec![c])),
            }
        }
        visits
    }

    /// Clusters whose shard differs between `self` and `other` (the
    /// migration set of a rebalance).
    pub fn moved_clusters(&self, other: &ShardAssignment) -> Vec<u32> {
        self.cluster_to_shard
            .iter()
            .zip(&other.cluster_to_shard)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(c, _)| c as u32)
            .collect()
    }

    /// Naive packing: cluster `c` → shard `c % shards`, ignoring sizes.
    /// The ablation baseline for Fig. 9's "+Balanced load".
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn round_robin(weights: &[u64], shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let mut cluster_to_shard = vec![0u32; weights.len()];
        let mut shard_weights = vec![0u64; shards];
        for (c, &w) in weights.iter().enumerate() {
            let s = c % shards;
            cluster_to_shard[c] = s as u32;
            shard_weights[s] += w;
        }
        Self {
            cluster_to_shard,
            shard_weights,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shard_weights.len()
    }

    /// Clusters owned by shard `s`, ascending.
    pub fn clusters_of(&self, s: usize) -> Vec<u32> {
        self.cluster_to_shard
            .iter()
            .enumerate()
            .filter(|(_, &shard)| shard as usize == s)
            .map(|(c, _)| c as u32)
            .collect()
    }

    /// Ratio of the heaviest shard's weight to the *mean* shard weight
    /// (1.0 = perfectly even).
    ///
    /// The mean — not the minimum — is the denominator on purpose: when
    /// there are more shards than (non-empty) clusters, some shards are
    /// empty by construction and a max/min ratio would report `∞` for a
    /// packing that is as good as it can possibly be. Max/mean degrades
    /// gracefully instead: an unavoidable empty shard raises the ratio in
    /// proportion to the weight the other shards absorb. The one remaining
    /// degenerate case — every shard empty (no clusters, or all weights
    /// zero) — reports 1.0, "as balanced as it gets".
    pub fn imbalance_ratio(&self) -> f64 {
        let max = self.shard_weights.iter().copied().max().unwrap_or(0);
        let total: u64 = self.shard_weights.iter().sum();
        if total == 0 || self.shard_weights.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.shard_weights.len() as f64;
        max as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerate_covers_all_factorizations() {
        let plans = PartitionPlan::enumerate(12);
        let expected: Vec<(usize, usize)> = vec![(12, 1), (6, 2), (4, 3), (3, 4), (2, 6), (1, 12)];
        let got: Vec<(usize, usize)> = plans.iter().map(|p| (p.vec_shards, p.dim_blocks)).collect();
        assert_eq!(got, expected);
        for p in &plans {
            assert_eq!(p.machines(), 12);
        }
    }

    #[test]
    fn prime_machine_counts_have_two_plans() {
        let plans = PartitionPlan::enumerate(7);
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0], PartitionPlan::pure_vector(7));
        assert_eq!(plans[1], PartitionPlan::pure_dimension(7));
    }

    #[test]
    fn machine_grid_roundtrips() {
        let plan = PartitionPlan::new(3, 4).unwrap();
        let mut seen = std::collections::HashSet::new();
        for s in 0..3 {
            for b in 0..4 {
                let m = plan.machine_of(s, b);
                assert!(m < plan.machines());
                assert!(seen.insert(m), "machine {m} double-assigned");
                assert_eq!(plan.block_of(m), (s, b));
            }
        }
        assert_eq!(seen.len(), 12);
    }

    #[test]
    fn shard_rows_are_contiguous() {
        let plan = PartitionPlan::new(2, 3).unwrap();
        assert_eq!(plan.machine_of(0, 0), 0);
        assert_eq!(plan.machine_of(0, 2), 2);
        assert_eq!(plan.machine_of(1, 0), 3);
        assert_eq!(plan.machine_of(1, 2), 5);
    }

    #[test]
    fn dim_ranges_cover_dimensionality() {
        let plan = PartitionPlan::new(2, 3).unwrap();
        let ranges = plan.dim_ranges(10).unwrap();
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges.iter().map(DimRange::len).sum::<usize>(), 10);
        assert!(plan.dim_ranges(2).is_err());
    }

    #[test]
    fn zero_factors_rejected() {
        assert!(PartitionPlan::new(0, 4).is_err());
        assert!(PartitionPlan::new(4, 0).is_err());
    }

    #[test]
    fn balanced_packing_beats_round_robin_on_skewed_lists() {
        // Pathological: sizes 100, 1, 1, 1, 100, 1, 1, 1 — round-robin on 2
        // shards puts both giants on shard 0.
        let weights = vec![100, 1, 1, 1, 100, 1, 1, 1];
        let rr = ShardAssignment::round_robin(&weights, 2);
        let lpt = ShardAssignment::balanced(&weights, 2);
        assert!(lpt.imbalance_ratio() < rr.imbalance_ratio());
        assert!(lpt.imbalance_ratio() < 1.1, "{:?}", lpt.shard_weights);
        // Both cover every cluster exactly once.
        for a in [&rr, &lpt] {
            assert_eq!(a.cluster_to_shard.len(), 8);
            let total: u64 = a.shard_weights.iter().sum();
            assert_eq!(total, 206);
        }
    }

    #[test]
    fn clusters_of_partitions_the_clusters() {
        let weights = vec![5, 3, 8, 1, 9, 2];
        let a = ShardAssignment::balanced(&weights, 3);
        let mut all: Vec<u32> = (0..3).flat_map(|s| a.clusters_of(s)).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn balanced_packing_is_deterministic() {
        let weights = vec![7, 7, 7, 7, 7];
        let a = ShardAssignment::balanced(&weights, 2);
        let b = ShardAssignment::balanced(&weights, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn imbalance_ratio_finite_with_unavoidable_empty_shards() {
        // One cluster over two shards: a perfect packing still leaves one
        // shard empty. The ratio must stay finite (max/mean = 10/5 = 2),
        // not blow up to ∞ as the old max/min definition did.
        let a = ShardAssignment::balanced(&[10], 2);
        assert_eq!(a.imbalance_ratio(), 2.0);
        // Fully degenerate packings (no weight anywhere) report 1.0.
        let b = ShardAssignment::balanced(&[], 2);
        assert_eq!(b.imbalance_ratio(), 1.0);
        let c = ShardAssignment::balanced(&[0, 0], 2);
        assert_eq!(c.imbalance_ratio(), 1.0);
    }

    #[test]
    fn imbalance_ratio_is_one_for_even_packings() {
        let a = ShardAssignment::balanced(&[5, 5, 5, 5], 4);
        assert_eq!(a.imbalance_ratio(), 1.0);
    }

    #[test]
    fn rebalance_moves_weight_toward_even() {
        // Start from a deliberately lopsided assignment.
        let weights = vec![50, 10, 10, 10, 10, 10];
        let prev = ShardAssignment {
            cluster_to_shard: vec![0, 0, 0, 0, 0, 1],
            shard_weights: vec![90, 10],
        };
        let next = ShardAssignment::rebalance(&prev, &weights, 2, 1.0);
        assert!(next.imbalance_ratio() < prev.imbalance_ratio());
        let total: u64 = next.shard_weights.iter().sum();
        assert_eq!(total, 100);
        // Already-balanced assignments are left alone.
        let again = ShardAssignment::rebalance(&next, &weights, 2, 1.0);
        assert_eq!(again.cluster_to_shard, next.cluster_to_shard);
    }

    #[test]
    fn rebalance_respects_move_budget() {
        let weights = vec![40, 40, 40, 40];
        let prev = ShardAssignment {
            cluster_to_shard: vec![0, 0, 0, 0],
            shard_weights: vec![160, 0],
        };
        // A zero budget may move nothing.
        let frozen = ShardAssignment::rebalance(&prev, &weights, 2, 0.0);
        assert_eq!(frozen.cluster_to_shard, prev.cluster_to_shard);
        // A 30 % budget (48 weight) fits exactly one 40-weight cluster.
        let bounded = ShardAssignment::rebalance(&prev, &weights, 2, 0.3);
        assert_eq!(prev.moved_clusters(&bounded).len(), 1);
    }

    #[test]
    fn rebalance_falls_back_on_shape_mismatch() {
        let weights = vec![5, 5, 5, 5];
        let prev = ShardAssignment::balanced(&weights, 2);
        // Different shard count: incremental start is impossible.
        let fresh = ShardAssignment::rebalance(&prev, &weights, 4, 0.1);
        assert_eq!(fresh, ShardAssignment::balanced(&weights, 4));
    }

    #[test]
    fn moved_clusters_diffs_assignments() {
        let a = ShardAssignment {
            cluster_to_shard: vec![0, 1, 0],
            shard_weights: vec![2, 1],
        };
        let b = ShardAssignment {
            cluster_to_shard: vec![0, 0, 1],
            shard_weights: vec![2, 1],
        };
        assert_eq!(a.moved_clusters(&b), vec![1, 2]);
        assert!(a.moved_clusters(&a).is_empty());
    }

    #[test]
    fn labels_read_naturally() {
        assert_eq!(PartitionPlan::new(2, 3).unwrap().label(), "2v x 3d");
    }
}
