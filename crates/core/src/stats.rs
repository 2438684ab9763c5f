//! Engine-level statistics: build timing, pruning breakdowns, QPS, and the
//! shared per-machine load estimates driving §4.3 deferred-dimension
//! scheduling.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use harmony_cluster::{ClusterSnapshot, CommMode, TimeBreakdown};

use crate::cost::{PlanCost, PlanEstimate};
use crate::partition::PartitionPlan;
use crate::pruning::SliceStats;

/// Lock-free per-machine outstanding-work estimates.
///
/// Each cell stores an `f64` as its bit pattern in an [`AtomicU64`], updated
/// with CAS loops, so any number of concurrent search sessions can charge
/// and discharge load without a shared lock. Values are clamped at zero on
/// discharge: a late or duplicated discharge can never drive an estimate
/// negative.
#[derive(Debug, Default)]
pub struct LoadTracker {
    cells: Vec<AtomicU64>,
}

impl LoadTracker {
    /// A tracker for `machines` nodes, all starting at zero load.
    pub fn new(machines: usize) -> Self {
        Self {
            cells: (0..machines).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of machines tracked.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when no machines are tracked.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    fn update(&self, machine: usize, f: impl Fn(f64) -> f64) {
        let cell = &self.cells[machine];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(cur)).to_bits();
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Charges `amount` of estimated work to `machine`.
    pub fn add(&self, machine: usize, amount: f64) {
        self.update(machine, |v| v + amount);
    }

    /// Discharges `amount` from `machine`, clamping at zero.
    pub fn sub(&self, machine: usize, amount: f64) {
        self.update(machine, |v| (v - amount).max(0.0));
    }

    /// The current estimate for `machine`.
    pub fn get(&self, machine: usize) -> f64 {
        f64::from_bits(self.cells[machine].load(Ordering::Relaxed))
    }

    /// A point-in-time copy of every machine's estimate.
    pub fn snapshot(&self) -> Vec<f64> {
        (0..self.cells.len()).map(|m| self.get(m)).collect()
    }

    /// Sum over machines (≈ 0 when no work is in flight).
    pub fn total(&self) -> f64 {
        self.snapshot().iter().sum()
    }
}

/// Lock-free per-cluster probe counters — the engine's *observed* workload.
///
/// Every admitted query bumps the counter of each IVF list it probes plus a
/// query counter. The plan supervisor periodically snapshots these, diffs
/// against the previous snapshot, and folds the window into an observed
/// [`crate::cost::WorkloadProfile`] — the runtime analogue of the paper's
/// offline probe-frequency input (§4.2.1).
#[derive(Debug, Default)]
pub struct ProbeTracker {
    counts: Vec<AtomicU64>,
    queries: AtomicU64,
    /// Batch calls the queries arrived in (the cost model sizes sub-batches
    /// from the mean batch).
    batches: AtomicU64,
    /// `k` of the most recently admitted query (the cost model's
    /// result-message size input).
    last_k: AtomicU64,
}

impl ProbeTracker {
    /// A tracker for `nlist` IVF lists.
    pub fn new(nlist: usize) -> Self {
        Self {
            counts: (0..nlist).map(|_| AtomicU64::new(0)).collect(),
            queries: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            last_k: AtomicU64::new(0),
        }
    }

    /// Records the arrival of one batch call (its queries are recorded one
    /// by one as they are admitted).
    pub fn record_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one query probing the given clusters with result size `k`.
    pub fn record(&self, probes: &[u32], k: usize) {
        for &c in probes {
            if let Some(cell) = self.counts.get(c as usize) {
                cell.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.last_k.store(k as u64, Ordering::Relaxed);
    }

    /// Total queries recorded since construction.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// `k` of the most recently recorded query (0 before any query).
    pub fn last_k(&self) -> u64 {
        self.last_k.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> ProbeSnapshot {
        ProbeSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            queries: self.queries.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a [`ProbeTracker`]'s counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeSnapshot {
    /// Probe count per cluster.
    pub counts: Vec<u64>,
    /// Queries recorded.
    pub queries: u64,
    /// Batch calls recorded.
    pub batches: u64,
}

impl ProbeSnapshot {
    /// Counter delta since `earlier` (saturating; the observation window).
    pub fn delta(&self, earlier: &ProbeSnapshot) -> ProbeSnapshot {
        ProbeSnapshot {
            counts: self
                .counts
                .iter()
                .enumerate()
                .map(|(i, &c)| c.saturating_sub(earlier.counts.get(i).copied().unwrap_or(0)))
                .collect(),
            queries: self.queries.saturating_sub(earlier.queries),
            batches: self.batches.saturating_sub(earlier.batches),
        }
    }

    /// Mean queries per batch call (at least 1).
    pub fn mean_batch(&self) -> usize {
        (self.queries / self.batches.max(1)).max(1) as usize
    }

    /// Total probes across clusters.
    pub fn total_probes(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Exponentially-weighted moving average over [`ProbeTracker`] windows.
///
/// The plan supervisor feeds each observation window through this smoother
/// before scoring plans, so sustained drift dominates while a single noisy
/// window cannot whipsaw the layout. With `alpha = 1.0` every window stands
/// alone (no memory — the pre-smoothing behavior); smaller values discount
/// stale history geometrically: after `n` windows an old observation
/// retains weight `(1-α)^n`.
#[derive(Debug, Clone)]
pub struct ProbeEwma {
    counts: Vec<f64>,
    queries: f64,
    alpha: f64,
    primed: bool,
}

impl ProbeEwma {
    /// A smoother over `nlist` clusters with factor `alpha` ∈ (0, 1].
    pub fn new(nlist: usize, alpha: f64) -> Self {
        Self {
            counts: vec![0.0; nlist],
            queries: 0.0,
            alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0),
            primed: false,
        }
    }

    /// Folds one observation window in: `x ← α·window + (1-α)·x`. The first
    /// window seeds the state directly so early decisions are not biased
    /// toward the zero initialization.
    pub fn absorb(&mut self, window: &ProbeSnapshot) {
        if !self.primed {
            for (cell, &c) in self.counts.iter_mut().zip(&window.counts) {
                *cell = c as f64;
            }
            self.queries = window.queries as f64;
            self.primed = true;
            return;
        }
        let a = self.alpha;
        for (i, cell) in self.counts.iter_mut().enumerate() {
            let observed = window.counts.get(i).copied().unwrap_or(0) as f64;
            *cell = a * observed + (1.0 - a) * *cell;
        }
        self.queries = a * window.queries as f64 + (1.0 - a) * self.queries;
    }

    /// The smoothed per-cluster probe counts, rounded to integers.
    pub fn counts(&self) -> Vec<u64> {
        self.counts.iter().map(|&c| c.round() as u64).collect()
    }

    /// The smoothed per-window query count, rounded (at least 1 once any
    /// window with queries has been absorbed).
    pub fn queries(&self) -> u64 {
        self.queries.round() as u64
    }

    /// The smoothing factor in force.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

/// Timing of the three index-construction stages (Fig. 10).
#[derive(Debug, Clone)]
pub struct BuildStats {
    /// k-means training time ("Train").
    pub train: Duration,
    /// Vector-to-list assignment time ("Add").
    pub add: Duration,
    /// Distribution of grid blocks to machines ("Pre-assign").
    pub preassign: Duration,
    /// The plan the engine ended up with.
    pub plan: PartitionPlan,
    /// Cost-model estimate of the chosen plan (None for forced plans).
    pub plan_cost: Option<PlanCost>,
    /// Every candidate plan as the cost model priced it at build, with the
    /// inputs of each estimate (rates, survivors per hop, messages per
    /// query) — also recorded when the plan was forced.
    pub candidates: Vec<PlanEstimate>,
    /// Bytes shipped to workers during pre-assign.
    pub bytes_shipped: u64,
}

impl BuildStats {
    /// Total build time.
    pub fn total(&self) -> Duration {
        self.train + self.add + self.preassign
    }
}

/// Aggregated per-worker statistics after a batch.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Per-slice pruning counters aggregated over workers.
    pub slices: SliceStats,
    /// Per-worker block-storage bytes.
    pub worker_memory_bytes: Vec<u64>,
    /// Total point-dimension products scanned across workers.
    pub scanned_point_dims: u64,
    /// Block payload bytes resident in exact f32 form across workers.
    pub f32_block_bytes: u64,
    /// Block payload bytes resident in SQ8-quantized form across workers.
    pub sq8_block_bytes: u64,
    /// Observed wall nanoseconds workers spent in scan kernels (feeds the
    /// supervisor's compute-rate recalibration).
    pub compute_ns: u64,
    /// Delta-list payload bytes resident across workers.
    pub delta_block_bytes: u64,
    /// Delta rows resident across workers (counted once per machine
    /// holding a slice of the row).
    pub delta_rows: u64,
    /// Tombstoned ids held across worker epochs.
    pub tombstone_entries: u64,
    /// Payload bytes of faulted-in warm/cold lists resident in worker LRU
    /// caches.
    pub cache_block_bytes: u64,
    /// Bytes of spilled part files on disk across workers.
    pub spilled_block_bytes: u64,
    /// Lists of spilled blocks a hop or a prefetch found resident.
    pub cache_hits: u64,
    /// Lists faulted in from part files.
    pub cache_misses: u64,
    /// Part-file bytes those faults read.
    pub fault_bytes: u64,
    /// Sub-batch hops answered emptily because a probed list could not be
    /// read back from its part file.
    pub spill_read_errors: u64,
}

impl EngineStats {
    /// Total index bytes across workers.
    pub fn total_memory_bytes(&self) -> u64 {
        self.worker_memory_bytes.iter().sum()
    }

    /// Largest single-worker block storage.
    pub fn max_worker_memory_bytes(&self) -> u64 {
        self.worker_memory_bytes.iter().copied().max().unwrap_or(0)
    }

    /// The candidates that entered each pipeline position since `earlier`
    /// was collected. The worker counters behind these are cumulative; a
    /// reset in between (a counter running backwards) makes the window
    /// everything since that reset.
    pub fn entering_since(&self, earlier: &EngineStats) -> Vec<u64> {
        let seen = &self.slices.seen;
        let before = |i: usize| earlier.slices.seen.get(i).copied().unwrap_or(0);
        let reset = (0..seen.len()).any(|i| seen[i] < before(i));
        (0..seen.len())
            .map(|i| seen[i] - if reset { 0 } else { before(i) })
            .collect()
    }
}

/// Outcome of a batch search.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-query neighbor lists, best-first, parallel to the input store.
    pub results: Vec<Vec<harmony_index::Neighbor>>,
    /// Wall-clock time of the batch at the client.
    pub wall: Duration,
    /// Metrics delta over the batch's time window. When other sessions run
    /// concurrently on the same engine, the window includes their traffic
    /// too (the cluster's counters are shared).
    pub snapshot: ClusterSnapshot,
    /// Communication mode in force (decides makespan composition).
    pub comm_mode: CommMode,
}

impl BatchResult {
    /// Queries per second by wall clock.
    pub fn qps_wall(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.results.len() as f64 / secs
    }

    /// Queries per second by the modeled cluster makespan: compute busy time
    /// plus modeled network time, gated by the slowest node. This is the
    /// number the paper's testbed would observe, where the 100 Gb/s fabric —
    /// not the in-process channel — carries every message.
    pub fn qps_modeled(&self) -> f64 {
        let ns = self.snapshot.makespan_ns(self.comm_mode);
        if ns == 0 {
            return 0.0;
        }
        self.results.len() as f64 / (ns as f64 / 1e9)
    }

    /// Three-way time breakdown over the batch.
    pub fn breakdown(&self) -> TimeBreakdown {
        self.snapshot.breakdown()
    }

    /// Std-dev of per-worker compute load (the measured `I(π)`).
    pub fn load_imbalance(&self) -> f64 {
        self.snapshot.imbalance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_cluster::NodeSnapshot;

    #[test]
    fn build_total_sums_stages() {
        let b = BuildStats {
            train: Duration::from_millis(10),
            add: Duration::from_millis(20),
            preassign: Duration::from_millis(5),
            plan: PartitionPlan::pure_vector(4),
            plan_cost: None,
            candidates: Vec::new(),
            bytes_shipped: 0,
        };
        assert_eq!(b.total(), Duration::from_millis(35));
    }

    #[test]
    fn qps_uses_result_count() {
        let snapshot = ClusterSnapshot {
            workers: vec![NodeSnapshot {
                busy_ns: 1_000_000_000, // 1 s busy
                ..Default::default()
            }],
            client: NodeSnapshot::default(),
        };
        let r = BatchResult {
            results: vec![vec![]; 100],
            wall: Duration::from_millis(500),
            snapshot,
            comm_mode: CommMode::NonBlocking,
        };
        assert!((r.qps_wall() - 200.0).abs() < 1.0);
        assert!((r.qps_modeled() - 100.0).abs() < 1.0);
    }

    #[test]
    fn empty_batch_is_zero_qps() {
        let r = BatchResult {
            results: vec![],
            wall: Duration::ZERO,
            snapshot: ClusterSnapshot::default(),
            comm_mode: CommMode::NonBlocking,
        };
        assert_eq!(r.qps_wall(), 0.0);
        assert_eq!(r.qps_modeled(), 0.0);
    }

    #[test]
    fn load_tracker_charges_and_discharges() {
        let t = LoadTracker::new(3);
        assert_eq!(t.len(), 3);
        t.add(1, 12.5);
        t.add(1, 2.5);
        t.add(2, 4.0);
        assert_eq!(t.get(1), 15.0);
        assert_eq!(t.snapshot(), vec![0.0, 15.0, 4.0]);
        t.sub(1, 15.0);
        t.sub(2, 4.0);
        assert_eq!(t.total(), 0.0);
        // Over-discharge clamps at zero instead of going negative.
        t.sub(0, 100.0);
        assert_eq!(t.get(0), 0.0);
    }

    #[test]
    fn load_tracker_is_consistent_under_threads() {
        let t = LoadTracker::new(2);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        t.add(0, 1.0);
                        t.add(1, 0.5);
                        t.sub(1, 0.5);
                        t.sub(0, 1.0);
                    }
                });
            }
        });
        assert_eq!(t.get(0), 0.0);
        assert_eq!(t.get(1), 0.0);
    }

    #[test]
    fn probe_tracker_windows_diff_cleanly() {
        let t = ProbeTracker::new(4);
        t.record(&[0, 2], 10);
        t.record(&[2, 3], 10);
        let first = t.snapshot();
        assert_eq!(first.counts, vec![1, 0, 2, 1]);
        assert_eq!(first.queries, 2);
        t.record(&[0], 25);
        assert_eq!(t.last_k(), 25);
        let window = t.snapshot().delta(&first);
        assert_eq!(window.counts, vec![1, 0, 0, 0]);
        assert_eq!(window.queries, 1);
        assert_eq!(window.total_probes(), 1);
        // Out-of-range clusters are ignored, not a panic.
        t.record(&[99], 10);
    }

    #[test]
    fn probe_ewma_first_window_seeds_directly() {
        let mut e = ProbeEwma::new(3, 0.5);
        e.absorb(&ProbeSnapshot {
            counts: vec![10, 0, 4],
            queries: 8,
            batches: 1,
        });
        assert_eq!(e.counts(), vec![10, 0, 4]);
        assert_eq!(e.queries(), 8);
    }

    #[test]
    fn probe_ewma_weighs_recent_windows_heavier() {
        let mut e = ProbeEwma::new(2, 0.75);
        e.absorb(&ProbeSnapshot {
            counts: vec![100, 0],
            queries: 50,
            batches: 1,
        });
        // Workload flips entirely to the other cluster.
        e.absorb(&ProbeSnapshot {
            counts: vec![0, 100],
            queries: 50,
            batches: 1,
        });
        let c = e.counts();
        assert_eq!(c, vec![25, 75], "recent window must dominate at α=0.75");
        assert_eq!(e.queries(), 50);
        // Another flipped window decays the stale cluster further.
        e.absorb(&ProbeSnapshot {
            counts: vec![0, 100],
            queries: 50,
            batches: 1,
        });
        assert!(e.counts()[0] < 10);
        assert!(e.counts()[1] > 90);
    }

    #[test]
    fn probe_ewma_alpha_one_has_no_memory() {
        let mut e = ProbeEwma::new(1, 1.0);
        e.absorb(&ProbeSnapshot {
            counts: vec![100],
            queries: 10,
            batches: 1,
        });
        e.absorb(&ProbeSnapshot {
            counts: vec![4],
            queries: 2,
            batches: 1,
        });
        assert_eq!(e.counts(), vec![4]);
        assert_eq!(e.queries(), 2);
    }

    #[test]
    fn engine_stats_memory_helpers() {
        let s = EngineStats {
            worker_memory_bytes: vec![10, 30, 20],
            ..Default::default()
        };
        assert_eq!(s.total_memory_bytes(), 60);
        assert_eq!(s.max_worker_memory_bytes(), 30);
    }

    #[test]
    fn windows_are_differences_not_lifetime_totals() {
        let collected = |seen: Vec<u64>| EngineStats {
            slices: SliceStats {
                pruned: vec![0; seen.len()],
                seen,
            },
            ..EngineStats::default()
        };
        // Two ticks of 1000 candidates each; the second window's traffic
        // pruned half as well. The counters themselves only ever grow.
        let built = EngineStats::default();
        let first = collected(vec![1_000, 200]);
        let second = collected(vec![2_000, 600]);
        assert_eq!(first.entering_since(&built), vec![1_000, 200]);
        // The lifetime totals would have said 0.3 for the second window,
        // and ever closer to the lifetime mean for any later one.
        assert_eq!(second.entering_since(&first), vec![1_000, 400]);
        // A manual reset in between runs the counters backwards: the window
        // is then everything since that reset.
        let after_reset = collected(vec![200, 50]);
        assert_eq!(after_reset.entering_since(&second), vec![200, 50]);
        // A pipeline that grew since the earlier collection.
        let longer = collected(vec![2_500, 700, 90]);
        assert_eq!(longer.entering_since(&second), vec![500, 100, 90]);
    }
}
