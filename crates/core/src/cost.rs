//! The cost model of §4.2.1 (Table 1), priced from what the engine measures.
//!
//! For a candidate plan `π = (B_vec, B_dim)` and a workload profile, the
//! model keeps the paper's objective
//!
//! ```text
//! C(π, Q) = Σ_q  Σ_blocks [c_comp(b, q) + c_comm(b, q)]  +  α · I(π)
//! ```
//!
//! * `c_comp` — worker scan time, two terms: `a(width) · point_dims +
//!   b · candidate_visits`, where `candidate_visits = Σ_hops survivors
//!   entering the hop`. `a` is the kernel's rate at the plan's slice width,
//!   `b` what one candidate costs a hop beside its arithmetic (slot walk,
//!   bound, prune, emit). On narrow slices `b` is most of the time: a
//!   quarter-width hop does a quarter of the arithmetic per candidate and
//!   all of the bookkeeping, so a plan with `B_dim` blocks pays `b` up to
//!   `B_dim` times per candidate unless pruning thins the later hops —
//!   which is why survivors per hop ([`Survivors`]) are sampled, not
//!   assumed. Both rates are timed through the worker's own scan routine
//!   ([`ScanRates`]; the engine measures them at build).
//! * `c_comm` — messages counted the way the dispatch loop sends them
//!   ([`PlanInputs::msgs_per_query`], sub-batches of [`sub_batch_rows`]
//!   rows), each at a measured fixed cost plus the modeled link's latency,
//!   and their bytes at the wire layouts' real sizes over the modeled
//!   link's bandwidth.
//! * `I(π)` — the standard deviation of per-machine computation load
//!   (§4.2.1), weighted by the user's `α`.
//!
//! The *probe frequencies* in the profile are what make the model adaptive:
//! under a skewed workload hot clusters concentrate `Load(n, π)` on few
//! machines, `I(π)` explodes for vector-heavy plans, and the model shifts
//! toward dimension-heavy hybrids — the trade-off of Figs. 6 & 7.
//!
//! Rates and choice are separate: everything a decision reads is a field of
//! [`CostModel`], so tests inject fixed rates and survivors and never read a
//! clock, and every [`PlanEstimate`] records the inputs it was priced from.

use harmony_cluster::{ComputeRates, NetworkModel};

use crate::config::ReplanConfig;
use crate::error::CoreError;
use crate::messages::{carry_wire_bytes, chunk_wire_bytes, result_wire_bytes};
use crate::partition::{PartitionPlan, ShardAssignment};

/// Expected workload characteristics fed to the planner.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Inverted-list sizes, indexed by cluster.
    pub list_sizes: Vec<usize>,
    /// Relative probe frequency per cluster (any non-negative scale).
    /// `uniform` profiles use all-ones.
    pub probe_freq: Vec<f64>,
    /// Vector dimensionality.
    pub dim: usize,
    /// Queries the estimate covers.
    pub queries: usize,
    /// Probed lists per query.
    pub nprobe: usize,
    /// Results per query (controls result-message size).
    pub k: usize,
    /// Queries of one batch call in flight together — `min(batch length,
    /// max_inflight)`, the input of [`sub_batch_rows`]. Constructors set it
    /// to `queries`.
    pub window: usize,
    /// Upserted rows not yet folded into IVF lists. Delta rows force a
    /// visit to every shard holding them regardless of probe proximity,
    /// and each visit scans the full delta prefix — a real cost the
    /// planner must see, or it will under-charge layouts with many
    /// vector shards while an ingest burst is in flight.
    pub pending_deltas: usize,
}

impl WorkloadProfile {
    /// Validating constructor: the cost model indexes `probe_freq` and
    /// `list_sizes` in lockstep, so a length mismatch (easy to produce when
    /// profiles are assembled from runtime statistics) would read out of
    /// bounds or silently truncate the workload. All shape and value
    /// invariants are checked here instead.
    ///
    /// # Errors
    /// [`CoreError::Config`] when the lengths differ, a frequency is
    /// negative or non-finite, or `dim` is zero.
    pub fn new(
        list_sizes: Vec<usize>,
        probe_freq: Vec<f64>,
        dim: usize,
        queries: usize,
        nprobe: usize,
        k: usize,
    ) -> Result<Self, CoreError> {
        if probe_freq.len() != list_sizes.len() {
            return Err(CoreError::Config(format!(
                "workload profile shape mismatch: {} probe frequencies for {} lists",
                probe_freq.len(),
                list_sizes.len()
            )));
        }
        if let Some(f) = probe_freq.iter().find(|f| !f.is_finite() || **f < 0.0) {
            return Err(CoreError::Config(format!(
                "probe frequencies must be finite and non-negative, got {f}"
            )));
        }
        if dim == 0 {
            return Err(CoreError::Config(
                "workload profile needs a positive dimensionality".into(),
            ));
        }
        Ok(Self {
            list_sizes,
            probe_freq,
            dim,
            queries: queries.max(1),
            nprobe: nprobe.max(1),
            k: k.max(1),
            window: queries.max(1),
            pending_deltas: 0,
        })
    }

    /// Uniform probe frequencies over the given list sizes.
    pub fn uniform(list_sizes: Vec<usize>, dim: usize, queries: usize, nprobe: usize) -> Self {
        let n = list_sizes.len();
        Self {
            list_sizes,
            probe_freq: vec![1.0; n],
            dim,
            queries,
            nprobe,
            k: 10,
            window: queries.max(1),
            pending_deltas: 0,
        }
    }

    /// Profile assembled from *observed* per-cluster probe counters (the
    /// supervisor's runtime view), validated like [`WorkloadProfile::new`].
    ///
    /// # Errors
    /// [`CoreError::Config`] on shape mismatches (see
    /// [`WorkloadProfile::new`]).
    pub fn observed(
        list_sizes: Vec<usize>,
        probe_counts: &[u64],
        dim: usize,
        queries: usize,
        nprobe: usize,
        k: usize,
    ) -> Result<Self, CoreError> {
        let freq = probe_counts.iter().map(|&c| c as f64).collect();
        Self::new(list_sizes, freq, dim, queries, nprobe, k)
    }

    /// Sets the number of unfolded delta rows the planner should charge
    /// for (see [`WorkloadProfile::pending_deltas`]).
    #[must_use]
    pub fn with_pending_deltas(mut self, pending_deltas: usize) -> Self {
        self.pending_deltas = pending_deltas;
        self
    }

    /// Sets the in-flight window (see [`WorkloadProfile::window`]).
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Replaces the probe frequencies (e.g. observed from a query log).
    ///
    /// # Errors
    /// [`CoreError::Config`] when the length differs from the cluster count
    /// or a frequency is invalid (see [`WorkloadProfile::new`]).
    pub fn with_probe_freq(self, probe_freq: Vec<f64>) -> Result<Self, CoreError> {
        let (window, pending_deltas) = (self.window, self.pending_deltas);
        let mut profile = Self::new(
            self.list_sizes,
            probe_freq,
            self.dim,
            self.queries,
            self.nprobe,
            self.k,
        )?;
        (profile.window, profile.pending_deltas) = (window, pending_deltas);
        Ok(profile)
    }

    /// Expected number of probes of cluster `c` across all queries.
    fn probes_of(&self, c: usize) -> f64 {
        let total: f64 = self.probe_freq.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.probe_freq[c] / total * (self.queries * self.nprobe) as f64
    }

    /// Per-cluster expected work in (point · dimension) units.
    pub fn cluster_work(&self) -> Vec<f64> {
        (0..self.list_sizes.len())
            .map(|c| self.probes_of(c) * self.list_sizes[c] as f64 * self.dim as f64)
            .collect()
    }
}

/// Rows per sub-batch, from what a session can see of its batch: enough
/// sub-batches that every hop of the dimension pipeline has work while
/// others are on the wire (at least two per dimension block inside one
/// in-flight `window`), at most 32 rows each — past that a sub-batch only
/// adds latency to its first row without amortizing more. The dispatch loop
/// cuts its batches with this and the planner counts messages with it.
pub fn sub_batch_rows(window: usize, dim_blocks: usize) -> usize {
    (window / (2 * dim_blocks.max(1))).clamp(1, 32)
}

/// The two measured rates of the worker scan: `scan_ns = a(width) ·
/// point_dims + b · candidate_visits`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanRates {
    /// `a`: nanoseconds per (point · dimension), per calibrated slice
    /// width, ascending by width. Narrow slices pay more per dimension
    /// (shorter vector loops); a width between two entries reads the
    /// nearer one.
    pub point_dim_ns: Vec<(usize, f64)>,
    /// `b`: nanoseconds one candidate costs one hop beside its arithmetic.
    pub visit_ns: f64,
}

impl ScanRates {
    /// The same `a` at every width.
    pub fn flat(point_dim_ns: f64, visit_ns: f64) -> Self {
        Self {
            point_dim_ns: vec![(0, point_dim_ns)],
            visit_ns,
        }
    }

    /// Rates from measured per-visit scan times `(width, ns)`: `b` is where
    /// the least-squares line through them meets width 0 — the part of a
    /// visit no narrowing of the slice removes — and `a(width)` the rest of
    /// each measurement, so `a(w) · w + b` returns every time exactly. A
    /// visit on a wider slice does at least the work of one on a narrower:
    /// where the measurements say otherwise they erred, and neighbours that
    /// disagree with that order share their mean. One width alone splits
    /// evenly.
    pub fn from_visit_times(times: &[(usize, f64)]) -> Self {
        let mut times: Vec<(usize, f64)> = times
            .iter()
            .copied()
            .filter(|&(w, t)| w > 0 && t.is_finite() && t > 0.0)
            .collect();
        times.sort_by_key(|&(w, _)| w);
        times.dedup_by_key(|&mut (w, _)| w);
        // Pool adjacent violators: runs of widths whose times descend.
        let mut start = 0;
        while start < times.len() {
            let mut end = start + 1;
            let mut sum = times[start].1;
            while end < times.len() && times[end].1 < sum / (end - start) as f64 {
                sum += times[end].1;
                end += 1;
            }
            let pooled = end - start > 1;
            for time in &mut times[start..end] {
                time.1 = sum / (end - start) as f64;
            }
            // A pooled run may now undercut the run before it: look again.
            start = if pooled { 0 } else { end };
        }
        let Some(min_t) = times.iter().map(|&(_, t)| t).reduce(f64::min) else {
            return Self::flat(0.0, 0.0);
        };
        let n = times.len() as f64;
        let mean_w = times.iter().map(|&(w, _)| w as f64).sum::<f64>() / n;
        let mean_t = times.iter().map(|&(_, t)| t).sum::<f64>() / n;
        let var_w: f64 = times
            .iter()
            .map(|&(w, _)| (w as f64 - mean_w).powi(2))
            .sum();
        let cov: f64 = times
            .iter()
            .map(|&(w, t)| (w as f64 - mean_w) * (t - mean_t))
            .sum();
        let intercept = if var_w > 0.0 {
            mean_t - cov / var_w * mean_w
        } else {
            min_t / 2.0
        };
        // A visit is never free and never all overhead.
        let visit_ns = intercept.clamp(0.05 * min_t, 0.95 * min_t);
        Self {
            point_dim_ns: times
                .iter()
                .map(|&(w, t)| (w, (t - visit_ns) / w as f64))
                .collect(),
            visit_ns,
        }
    }

    /// `a` at slice `width` (the nearest calibrated width's).
    pub fn point_dim_ns_at(&self, width: usize) -> f64 {
        self.point_dim_ns
            .iter()
            .min_by_key(|&&(w, _)| w.abs_diff(width))
            .map_or(0.0, |&(_, a)| a)
    }

    /// What one candidate visit costs on a slice `width` dimensions wide.
    pub fn visit_time_ns(&self, width: usize) -> f64 {
        self.point_dim_ns_at(width) * width as f64 + self.visit_ns
    }

    /// The modeled per-node rates of a deployment scanning slices `width`
    /// dimensions wide: the cluster charges the two rates the planner
    /// prices with. A cluster holds one `a` for its lifetime, whatever
    /// layouts it migrates through; an engine gives it the full-width one.
    pub fn compute_rates(&self, width: usize) -> ComputeRates {
        ComputeRates::default()
            .with_kernel_rate(self.point_dim_ns_at(width))
            .with_candidate_rate(self.visit_ns)
    }
}

/// Survivors entering each hop of a plan's dimension pipeline, as fractions
/// of the candidates entering hop 0 (entry 0 is 1), per plan — the vector
/// shards matter too: a query's threshold tightens between its shard
/// visits, so the later visits of a plan with several shards prune harder
/// than a single visit would. The engine samples the rows at build and the
/// supervisor refreshes the incumbent's from the workers' `slice_in`
/// counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Survivors {
    rows: Vec<(PartitionPlan, Vec<f64>)>,
}

impl Survivors {
    /// Survivor fractions from per-hop entering counts; `None` when nothing
    /// entered hop 0.
    pub fn fractions(entering: &[u64]) -> Option<Vec<f64>> {
        let first = *entering.first().filter(|&&n| n > 0)? as f64;
        Some(entering.iter().map(|&n| n as f64 / first).collect())
    }

    /// Sets `plan`'s row (one entry per dimension block).
    pub fn set(&mut self, plan: PartitionPlan, entering: Vec<f64>) {
        debug_assert_eq!(entering.len(), plan.dim_blocks);
        match self.rows.iter_mut().find(|(p, _)| *p == plan) {
            Some((_, row)) => *row = entering,
            None => self.rows.push((plan, entering)),
        }
    }

    /// `plan`'s row, if one was sampled.
    pub fn get(&self, plan: PartitionPlan) -> Option<&[f64]> {
        let row = self.rows.iter().find(|(p, _)| *p == plan);
        row.map(|(_, row)| row.as_slice())
    }

    /// Folds the incumbent plan's observed row in, moving it by `blend`
    /// toward `observed`, and carries what the observation says over to the
    /// other rows: each of their entries is scaled by how far the incumbent
    /// moved at the same fraction of the dimensions (linear between the
    /// incumbent's hop boundaries, level past its last), so a workload that
    /// prunes better than the sample did makes every pipeline cheaper, not
    /// only the one in force.
    pub fn observe(&mut self, plan: PartitionPlan, observed: &[f64], blend: f64) {
        let blocks = observed.len();
        let Some(old) = self.get(plan).map(<[f64]>::to_vec) else {
            self.set(plan, observed.to_vec());
            return;
        };
        let new: Vec<f64> = old
            .iter()
            .zip(observed)
            .map(|(&o, &x)| blend * x + (1.0 - blend) * o)
            .collect();
        let moved: Vec<f64> = old
            .iter()
            .zip(&new)
            .map(|(&o, &n)| if o > 0.0 { n / o } else { 1.0 })
            .collect();
        let moved_at = |fraction: f64| {
            let at = fraction * blocks as f64;
            let lo = (at.floor() as usize).min(blocks - 1);
            let hi = (lo + 1).min(blocks - 1);
            moved[lo] + (moved[hi] - moved[lo]) * (at - lo as f64).clamp(0.0, 1.0)
        };
        for (other, row) in self.rows.iter_mut().filter(|(p, _)| *p != plan) {
            let mut cap = 1.0f64;
            for (h, s) in row.iter_mut().enumerate().skip(1) {
                *s = (*s * moved_at(h as f64 / other.dim_blocks as f64)).clamp(0.0, cap);
                cap = *s;
            }
        }
        self.set(plan, new);
    }
}

/// Estimated cost of one plan, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// Total expected computation time across machines.
    pub comp_ns: f64,
    /// Total expected communication time across messages.
    pub comm_ns: f64,
    /// Imbalance factor `I(π)` (std-dev of per-machine compute ns).
    pub imbalance_ns: f64,
    /// `comp + comm + α · imbalance`.
    pub total_ns: f64,
}

/// What a [`PlanCost`] was priced from.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanInputs {
    /// Queries the cost covers (the profile's).
    pub queries: usize,
    /// Slice width of the plan's dimension blocks.
    pub width: usize,
    /// `a` at that width, ns per (point · dimension).
    pub point_dim_ns: f64,
    /// `b`, ns per candidate visit.
    pub visit_ns: f64,
    /// Fixed ns per message (measured) plus the modeled link's latency.
    pub msg_ns: f64,
    /// Survivors entering each hop, as fractions of hop 0's candidates.
    pub survivors: Vec<f64>,
    /// Candidates entering hop 0, per query.
    pub candidates_per_query: f64,
    /// Candidate visits (`Σ_hops` survivors entering), per query.
    pub visits_per_query: f64,
    /// Point-dimension products scanned, per query.
    pub point_dims_per_query: f64,
    /// Shards a query visits.
    pub shard_visits_per_query: f64,
    /// Messages on the fabric, per query.
    pub msgs_per_query: f64,
    /// Payload bytes on the fabric, per query.
    pub wire_bytes_per_query: f64,
}

/// One candidate plan as a decision saw it: the plan, its price and what
/// the price was made of.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEstimate {
    /// The candidate.
    pub plan: PartitionPlan,
    /// Its estimated cost.
    pub cost: PlanCost,
    /// The inputs of the estimate.
    pub inputs: PlanInputs,
}

impl PlanEstimate {
    /// Column titles of the row [`PlanEstimate`] displays as.
    pub const HEADER: &'static str = "    plan  total us/q  comp us/q  comm us/q  a*I us/q  \
         a ns/pd  b ns/visit  visits/q  msgs/q  bytes/q  survivors entering each hop";
}

/// One row of a decision table: costs per query in microseconds, then the
/// inputs they were priced from (titles in [`PlanEstimate::HEADER`]).
impl std::fmt::Display for PlanEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (c, i) = (&self.cost, &self.inputs);
        let per_query_us = |ns: f64| ns / i.queries.max(1) as f64 / 1e3;
        let imbalance = c.total_ns - c.comp_ns - c.comm_ns;
        write!(
            f,
            "{:>8}  {:>10.1}  {:>9.1}  {:>9.1}  {:>8.1}  {:>7.3}  {:>10.1}  {:>8.0}  {:>6.2}  {:>7.0}  ",
            self.plan.label(),
            per_query_us(c.total_ns),
            per_query_us(c.comp_ns),
            per_query_us(c.comm_ns),
            per_query_us(imbalance),
            i.point_dim_ns,
            i.visit_ns,
            i.visits_per_query,
            i.msgs_per_query,
            i.wire_bytes_per_query,
        )?;
        let survivors: Vec<String> = i.survivors.iter().map(|s| format!("{s:.2}")).collect();
        f.write_str(&survivors.join(" "))
    }
}

/// The cost model: measured scan and message rates, sampled survivors, the
/// interconnect model and the two knobs of the choice (`α`, the near-tie
/// margin).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// The worker scan's two rates.
    pub rates: ScanRates,
    /// Fixed nanoseconds one message costs its two ends (encode, queue,
    /// wake, decode, dispatch), measured on the engine's own fabric.
    pub msg_ns: f64,
    /// The interconnect.
    pub net: NetworkModel,
    /// Imbalance weight `α`.
    pub alpha: f64,
    /// Per-hop candidate survival rate the model assumes for a pipeline
    /// length it holds no sample of (`1.0`: nothing is pruned).
    pub pruning_survival: f64,
    /// Sampled (or observed) survivors per hop.
    pub survivors: Survivors,
    /// Two plans whose costs are within this share of each other are a
    /// tie (see [`CostModel::pick`]).
    pub near_tie: f64,
}

impl CostModel {
    /// Model with assumed rates (use [`CostModel::calibrate`] or
    /// [`CostModel::with_rates`] for measured ones).
    ///
    /// A note on `alpha`: because the paper's objective sums *per-query*
    /// costs (which are invariant to how work is spread over machines) and
    /// adds `α · I(π)`, the imbalance weight is what prices concentration.
    /// The makespan of a plan is roughly `mean_load + c·σ` with `c ≈ 3–4`
    /// for one overloaded machine out of four, so `α ≈ 4` makes the model's
    /// switch point track real throughput; it is exposed as the paper's
    /// user-defined `--α`.
    pub fn new(net: NetworkModel, alpha: f64) -> Self {
        let assumed = ComputeRates::default();
        Self {
            rates: ScanRates::flat(assumed.ns_per_point_dim, assumed.ns_per_candidate),
            msg_ns: 2.0 * assumed.ns_per_message,
            net,
            alpha,
            pruning_survival: 1.0,
            survivors: Survivors::default(),
            near_tie: ReplanConfig::default().hysteresis,
        }
    }

    /// Sets the per-hop survival rate assumed where no sample exists (see
    /// [`CostModel::pruning_survival`]).
    pub fn with_pruning_survival(mut self, survival: f64) -> Self {
        self.pruning_survival = survival.clamp(0.0, 1.0);
        self
    }

    /// Sets measured scan rates.
    pub fn with_rates(mut self, rates: ScanRates) -> Self {
        self.rates = rates;
        self
    }

    /// Sets the measured fixed cost of a message.
    pub fn with_message_ns(mut self, msg_ns: f64) -> Self {
        self.msg_ns = msg_ns.max(0.0);
        self
    }

    /// Sets sampled survivors per hop.
    pub fn with_survivors(mut self, survivors: Survivors) -> Self {
        self.survivors = survivors;
        self
    }

    /// Sets the near-tie margin.
    pub fn with_near_tie(mut self, near_tie: f64) -> Self {
        self.near_tie = near_tie.clamp(0.0, 1.0);
        self
    }

    /// Survivors entering each hop of `plan`'s pipeline: the sampled row
    /// when there is one, the geometric prior otherwise.
    pub fn survivors_entering(&self, plan: PartitionPlan) -> Vec<f64> {
        match self.survivors.get(plan) {
            Some(row) => row.to_vec(),
            None => (0..plan.dim_blocks.max(1))
                .map(|h| self.pruning_survival.powi(h as i32))
                .collect(),
        }
    }

    /// Measures the scan rates of this host for a caller with no index at
    /// hand: the worker's scan routine over synthetic exact 128-d lists at
    /// full, half and quarter width. An engine measures on its own lists
    /// instead.
    pub fn calibrate(self) -> Self {
        let rates = crate::planner::synthetic_scan_rates();
        self.with_rates(rates)
    }

    /// Scores one plan against a profile.
    pub fn plan_cost(&self, plan: PartitionPlan, profile: &WorkloadProfile) -> PlanCost {
        self.estimate(plan, profile).cost
    }

    /// Scores one plan under its balanced packing, keeping the inputs.
    pub fn estimate(&self, plan: PartitionPlan, profile: &WorkloadProfile) -> PlanEstimate {
        let assignment = ShardAssignment::balanced(
            &weights_from(profile),
            plan.vec_shards.min(profile.list_sizes.len().max(1)),
        );
        self.estimate_with_assignment(plan, profile, &assignment)
    }

    /// Scores one plan with an explicit cluster→shard assignment, keeping
    /// the inputs.
    pub fn estimate_with_assignment(
        &self,
        plan: PartitionPlan,
        profile: &WorkloadProfile,
        assignment: &ShardAssignment,
    ) -> PlanEstimate {
        let blocks = plan.dim_blocks.max(1);
        let queries = profile.queries as f64;
        let shard_of = |c: usize| {
            let s = assignment.cluster_to_shard.get(c).copied().unwrap_or(0) as usize;
            s.min(plan.vec_shards - 1)
        };

        // --- Computation. A candidate entering hop 0 is visited once per
        // hop it survives into; every visit scans one slice and pays `b`.
        let width = profile.dim / blocks;
        let survivors = self.survivors_entering(plan);
        let visits_per_candidate: f64 = survivors.iter().sum();
        let candidate_ns = visits_per_candidate * self.rates.visit_time_ns(width);
        let mut shard_candidates = vec![0.0f64; plan.vec_shards];
        for (c, &rows) in profile.list_sizes.iter().enumerate() {
            shard_candidates[shard_of(c)] += profile.probes_of(c) * rows as f64;
        }
        // The hop order rotates (or follows load), so the machines of a
        // shard row share its work evenly.
        let machine_loads: Vec<f64> = shard_candidates
            .iter()
            .flat_map(|&c| std::iter::repeat_n(c * candidate_ns / blocks as f64, blocks))
            .collect();
        let mut candidates: f64 = shard_candidates.iter().sum();
        let mut comp_ns: f64 = machine_loads.iter().sum();

        // --- Communication. Per query and visited shard, the client sends
        // the query split over `B_dim` chunk messages, `B_dim - 1` carries
        // hop the survivors along, one result comes back — `2 · B_dim`
        // messages per sub-batch, whatever its rows.
        let shard_visits: f64 = expected_shard_visits(plan, profile, &shard_of).iter().sum();
        let per_visit_candidates = candidates / (queries * shard_visits).max(1.0);
        let clusters_per_visit = profile.nprobe as f64 / shard_visits.max(1.0);
        // Payload bytes of one visit by a sub-batch of `rows` queries, at
        // the wire layouts' real sizes.
        let visit_bytes = |rows: f64| {
            let chunk = chunk_wire_bytes(rows, clusters_per_visit, width, blocks);
            let carries: f64 = survivors
                .iter()
                .skip(1)
                .map(|entering| carry_wire_bytes(rows, entering * per_visit_candidates))
                .sum();
            blocks as f64 * chunk + carries + result_wire_bytes(rows, profile.k as f64)
        };
        let sub_rows = sub_batch_rows(profile.window, blocks) as f64;
        let (mut msgs_per_query, mut wire_bytes_per_query) = (0.0, 0.0);
        // Rows that travel together shared every shard so far, so from
        // visit to visit a sub-batch parts into groups, one per way its
        // rows went. There is a way per order of the shards visited so far
        // — but no more than lists: a query ranks its probes by where it
        // lies, and queries of one home list rank them alike — and the
        // groups are the ways at least one of `sub_rows` rows took.
        let mut orders = 1.0;
        for round in 0..plan.vec_shards {
            let reached = (shard_visits - round as f64).clamp(0.0, 1.0);
            orders *= (plan.vec_shards - round) as f64;
            let ways = orders.min(profile.list_sizes.len().max(1) as f64);
            let groups = ways * (1.0 - (1.0 - 1.0 / ways).powf(sub_rows));
            let rows = sub_rows / groups;
            msgs_per_query += reached * (2 * blocks) as f64 / rows;
            wire_bytes_per_query += reached * visit_bytes(rows) / rows;
        }

        // --- Pending deltas. Unfolded rows are scanned like list rows by
        // every query, and the shards holding them are visited even when no
        // probe lands there. Charge both: the extra scan work, and the
        // forced visits a probe-driven plan would not otherwise pay. More
        // vector shards spread the deltas wider and force more visits —
        // the pressure that should steer the planner toward fewer shards
        // during an ingest burst.
        if profile.pending_deltas > 0 {
            let pending = profile.pending_deltas as f64;
            comp_ns += queries * pending * candidate_ns;
            candidates += queries * pending;
            // Deltas land on at most one shard per pending row; assume the
            // worst-case spread. A shard already visited by probes is not
            // re-visited, so only the uncovered fraction is forced.
            let delta_shards = profile.pending_deltas.min(plan.vec_shards) as f64;
            let covered = (shard_visits / plan.vec_shards as f64).min(1.0);
            let forced = delta_shards * (1.0 - covered);
            msgs_per_query += forced * (2 * blocks) as f64 / sub_rows;
            wire_bytes_per_query += forced * visit_bytes(sub_rows) / sub_rows;
        }
        let msg_ns = self.msg_ns + self.net.transfer_ns(0) as f64;
        let comm_ns = queries
            * (msgs_per_query * msg_ns + wire_bytes_per_query * link_ns_per_byte(&self.net));

        // --- Imbalance I(π): std-dev of machine compute loads.
        let imbalance_ns = std_dev(&machine_loads);

        let candidates_per_query = candidates / queries;
        PlanEstimate {
            plan,
            cost: PlanCost {
                comp_ns,
                comm_ns,
                imbalance_ns,
                total_ns: comp_ns + comm_ns + self.alpha * imbalance_ns,
            },
            inputs: PlanInputs {
                queries: profile.queries,
                width,
                point_dim_ns: self.rates.point_dim_ns_at(width),
                visit_ns: self.rates.visit_ns,
                msg_ns,
                visits_per_query: candidates_per_query * visits_per_candidate,
                point_dims_per_query: candidates_per_query * visits_per_candidate * width as f64,
                candidates_per_query,
                survivors,
                shard_visits_per_query: shard_visits,
                msgs_per_query,
                wire_bytes_per_query,
            },
        }
    }

    /// Modeled one-time cost of shipping `bytes` of migration traffic as
    /// `messages` point-to-point transfers over the interconnect: total
    /// byte time plus per-message latency/framing. This is the §4.2.1 cost
    /// model's migration extension — the supervisor only switches plans
    /// when the projected steady-state win amortizes this over its
    /// configured horizon.
    pub fn migration_ns(&self, bytes: u64, messages: u64) -> f64 {
        if messages == 0 {
            return 0.0;
        }
        let per_message = self.net.transfer_ns(0) as f64;
        let byte_ns = (self.net.transfer_ns(bytes as usize) as f64 - per_message).max(0.0);
        byte_ns + messages as f64 * per_message
    }

    /// Scores every factorization of `n_machines` that fits the profile's
    /// dimensionality, in [`PartitionPlan::enumerate`] order.
    pub fn estimates(&self, n_machines: usize, profile: &WorkloadProfile) -> Vec<PlanEstimate> {
        PartitionPlan::enumerate(n_machines)
            .into_iter()
            .filter(|p| p.dim_blocks <= profile.dim.max(1))
            .map(|p| self.estimate(p, profile))
            .collect()
    }

    /// Whether a near-tie between the two plans goes to `a`: it has
    /// dimension blocks and `b` has none. A plan without dimension blocks
    /// rests wholly on the profile's spread of probes — one hot list pins
    /// one machine — and a build-time profile is uniform by assumption;
    /// any dimension blocks spread every list over several machines.
    /// Between two plans that both have them the cheaper stays: the longer
    /// pipeline's price rests on its sampled survivors, and those on a
    /// probe count the build also had to assume.
    fn tie_goes_to(a: PartitionPlan, b: PartitionPlan) -> bool {
        a.dim_blocks > 1 && b.dim_blocks <= 1
    }

    /// The choice among scored candidates: the cheapest — unless the
    /// runner-up is within [`CostModel::near_tie`] of it and the tie goes
    /// to the runner-up ([`CostModel::tie_goes_to`]). The rule also keeps
    /// timing noise in the measured rates from flipping near-ties between
    /// runs. Returns the winner's position.
    pub fn pick(&self, candidates: &[PlanEstimate]) -> Option<usize> {
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (&candidates[a].cost, &candidates[b].cost);
            a.total_ns.total_cmp(&b.total_ns)
        });
        let &best = order.first()?;
        let Some(&second) = order.get(1) else {
            return Some(best);
        };
        let (cheapest, runner_up) = (&candidates[best], &candidates[second]);
        let tie = cheapest.cost.total_ns >= runner_up.cost.total_ns * (1.0 - self.near_tie);
        if tie && Self::tie_goes_to(runner_up.plan, cheapest.plan) {
            return Some(second);
        }
        Some(best)
    }

    /// What a challenger priced at `score_ns` (its steady-state cost plus
    /// the amortized cost of moving to it) weighs against `incumbent` at a
    /// supervisor tick, where near-ties are settled the way
    /// [`CostModel::pick`] settles them, in both directions: one the rule
    /// hands to the challenger is left to the hysteresis alone; any other
    /// goes to the incumbent — by the rule, or because it is the layout
    /// installed — and the challenger first has to leave that band, the
    /// hysteresis it must clear being measured from the band's edge. So a
    /// plan `pick` settled on is not moved off by a tick that sees what the
    /// choice saw, nor by one that sees a little less, and two plans the
    /// model prices alike do not trade places as its survivors follow the
    /// one in force. A re-packing of the incumbent's own plan is no choice
    /// between plans and is left to the hysteresis too. Every migration
    /// pays the full hysteresis.
    pub fn challenger_score(
        &self,
        incumbent: PartitionPlan,
        challenger: PartitionPlan,
        score_ns: f64,
    ) -> f64 {
        match challenger == incumbent || Self::tie_goes_to(challenger, incumbent) {
            true => score_ns,
            false => score_ns / (1.0 - self.near_tie).max(f64::MIN_POSITIVE),
        }
    }

    /// Picks a factorization of `n_machines` for the profile (see
    /// [`CostModel::pick`]). Returns the plan and its cost.
    pub fn choose_plan(
        &self,
        n_machines: usize,
        profile: &WorkloadProfile,
    ) -> (PartitionPlan, PlanCost) {
        let candidates = self.estimates(n_machines, profile);
        let chosen = self
            .pick(&candidates)
            .expect("at least one factorization exists");
        (candidates[chosen].plan, candidates[chosen].cost)
    }
}

/// Integer weights for LPT packing derived from expected cluster work.
pub fn weights_from(profile: &WorkloadProfile) -> Vec<u64> {
    profile
        .cluster_work()
        .into_iter()
        .map(|w| w.round() as u64 + 1)
        .collect()
}

/// Probability that a query visits each shard: a shard is skipped only if
/// none of the query's `nprobe` probes lands in it.
fn expected_shard_visits(
    plan: PartitionPlan,
    profile: &WorkloadProfile,
    shard_of: &impl Fn(usize) -> usize,
) -> Vec<f64> {
    let mut share = vec![0.0f64; plan.vec_shards];
    let total: f64 = profile.probe_freq.iter().sum();
    if total <= 0.0 {
        return share;
    }
    for (c, &f) in profile.probe_freq.iter().enumerate() {
        share[shard_of(c)] += f / total;
    }
    share
        .iter()
        .map(|&p| 1.0 - (1.0 - p.min(1.0)).powi(profile.nprobe as i32))
        .collect()
}

/// Nanoseconds one payload byte occupies the modeled link.
fn link_ns_per_byte(net: &NetworkModel) -> f64 {
    let ns = 8.0 / net.bandwidth_gbps;
    if ns.is_finite() {
        ns
    } else {
        0.0
    }
}

fn std_dev(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let m = v.iter().sum::<f64>() / v.len() as f64;
    (v.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_profile(nlist: usize, dim: usize) -> WorkloadProfile {
        WorkloadProfile::uniform(vec![1000; nlist], dim, 100, 8)
    }

    /// Probe frequencies concentrated on the first `hot` clusters.
    fn skewed_profile(nlist: usize, dim: usize, hot: usize) -> WorkloadProfile {
        let mut freq = vec![0.01; nlist];
        for f in freq.iter_mut().take(hot) {
            *f = 100.0;
        }
        uniform_profile(nlist, dim).with_probe_freq(freq).unwrap()
    }

    /// A model with every measured input injected: no clock is read.
    fn injected(a: f64, b: f64, msg_ns: f64) -> CostModel {
        CostModel::new(NetworkModel::instant(), 0.0)
            .with_rates(ScanRates::flat(a, b))
            .with_message_ns(msg_ns)
    }

    fn plan(vec_shards: usize, dim_blocks: usize) -> PartitionPlan {
        PartitionPlan::new(vec_shards, dim_blocks).unwrap()
    }

    fn survivors(rows: &[(PartitionPlan, &[f64])]) -> Survivors {
        let mut s = Survivors::default();
        for (plan, row) in rows {
            s.set(*plan, row.to_vec());
        }
        s
    }

    #[test]
    fn a_hop_that_prunes_nothing_can_only_cost() {
        // Survival 1.0 at every hop, uniform profile, free messages: every
        // added dimension block adds a visit per candidate and saves no
        // arithmetic, so cost rises strictly with B_dim.
        let model = injected(0.2, 16.0, 0.0);
        let profile = uniform_profile(64, 128);
        let costs: Vec<f64> = [plan(4, 1), plan(2, 2), plan(1, 4)]
            .iter()
            .map(|&p| model.plan_cost(p, &profile).total_ns)
            .collect();
        assert!(costs[0] < costs[1] && costs[1] < costs[2], "{costs:?}");
        // Paid messages do not change the computation term's order.
        let paid = injected(0.2, 16.0, 5_000.0);
        let comp: Vec<f64> = [plan(4, 1), plan(2, 2), plan(1, 4)]
            .iter()
            .map(|&p| paid.plan_cost(p, &profile).comp_ns)
            .collect();
        assert!(comp[0] < comp[1] && comp[1] < comp[2], "{comp:?}");
    }

    #[test]
    fn collapsing_survivors_make_dimension_blocks_win() {
        // Long lists, and almost nothing survives the first quarter of the
        // dimensions: the pipeline scans a quarter of the arithmetic and
        // pays the per-visit overhead barely more than once.
        let profile = WorkloadProfile::uniform(vec![20_000; 64], 128, 100, 8);
        let model = injected(0.2, 16.0, 5_000.0).with_survivors(survivors(&[
            (plan(1, 4), &[1.0, 0.03, 0.02, 0.01]),
            (plan(2, 2), &[1.0, 0.02]),
        ]));
        let vector = model.plan_cost(plan(4, 1), &profile).total_ns;
        let hybrid = model.plan_cost(plan(2, 2), &profile).total_ns;
        let dimension = model.plan_cost(plan(1, 4), &profile).total_ns;
        assert!(dimension < vector, "{dimension} vs {vector}");
        assert!(dimension < hybrid, "{dimension} vs {hybrid}");
        assert_eq!(model.choose_plan(4, &profile).0, plan(1, 4));
    }

    /// One forced-plan measurement set of a `perf/` corpus shape: the rates
    /// fitted to its traces and the survivors per hop its workers counted.
    struct Shape {
        name: &'static str,
        list_rows: usize,
        nlist: usize,
        dim: usize,
        nprobe: usize,
        /// `a`, `b`, per message, ns.
        rates: (f64, f64, f64),
        /// Observed survivors entering each hop under `1v x 4d`, `2v x 2d`.
        observed: [&'static [f64]; 2],
    }

    const TRACES: [Shape; 2] = [
        Shape {
            name: "hops_skew_tcp",
            list_rows: 200,
            nlist: 200,
            dim: 96,
            nprobe: 16,
            rates: (0.18, 32.0, 7_500.0),
            observed: [&[1.0, 0.75, 0.75, 0.75], &[1.0, 0.49]],
        },
        Shape {
            name: "scan_uniform",
            list_rows: 781,
            nlist: 128,
            dim: 128,
            nprobe: 32,
            rates: (0.22, 16.0, 5_000.0),
            observed: [&[1.0, 0.13, 0.11, 0.08], &[1.0, 0.09]],
        },
    ];

    #[test]
    fn forced_plan_traces_rank_as_measured() {
        // The six forced-plan runs behind this model (ISSUE 18): on the
        // short-list SQ8 corpus both plans with fewer hops measured about
        // twice `1v x 4d`'s throughput; on the long-list corpus, where
        // pruning pays for its hops, pure vector measured worst.
        for shape in &TRACES {
            let (a, b, msg_ns) = shape.rates;
            let model = injected(a, b, msg_ns).with_survivors(survivors(&[
                (plan(1, 4), shape.observed[0]),
                (plan(2, 2), shape.observed[1]),
            ]));
            let profile = WorkloadProfile::uniform(
                vec![shape.list_rows; shape.nlist],
                shape.dim,
                256,
                shape.nprobe,
            );
            let cost = |p: PartitionPlan| model.plan_cost(p, &profile).total_ns;
            let (vector, hybrid, dimension) =
                (cost(plan(4, 1)), cost(plan(2, 2)), cost(plan(1, 4)));
            match shape.name {
                "hops_skew_tcp" => {
                    assert!(
                        hybrid < dimension,
                        "{}: {hybrid} vs {dimension}",
                        shape.name
                    );
                    assert!(
                        vector < dimension,
                        "{}: {vector} vs {dimension}",
                        shape.name
                    );
                }
                _ => {
                    assert!(
                        vector > hybrid.min(dimension),
                        "{}: pure vector must not rank first ({vector} vs {hybrid}, {dimension})",
                        shape.name
                    );
                    assert_ne!(model.choose_plan(4, &profile).0, plan(4, 1));
                }
            }
        }
    }

    #[test]
    fn near_ties_go_to_dimension_blocks_and_repeat() {
        let profile = uniform_profile(64, 128);
        let estimate = |p: PartitionPlan, total_ns: f64| {
            let mut e = injected(0.2, 16.0, 0.0).estimate(p, &profile);
            e.cost.total_ns = total_ns;
            e
        };
        let model = injected(0.2, 16.0, 0.0).with_near_tie(0.10);
        // The runner-up is within 10 % and has dimension blocks, the
        // cheapest has none.
        let tie = [
            estimate(plan(4, 1), 100.0),
            estimate(plan(2, 2), 108.0),
            estimate(plan(1, 4), 150.0),
        ];
        assert_eq!(model.pick(&tie), Some(1));
        // Outside the margin the cheapest wins whatever its shape.
        let clear = [
            estimate(plan(4, 1), 100.0),
            estimate(plan(2, 2), 115.0),
            estimate(plan(1, 4), 150.0),
        ];
        assert_eq!(model.pick(&clear), Some(0));
        // A cheapest plan that has dimension blocks keeps winning — over a
        // runner-up with none, and over one with more: a longer pipeline is
        // no safer, only more dependent on its sampled survivors.
        let already = [
            estimate(plan(4, 1), 104.0),
            estimate(plan(2, 2), 100.0),
            estimate(plan(1, 4), 105.0),
        ];
        assert_eq!(model.pick(&already), Some(1));
        let longer = [
            estimate(plan(4, 1), 150.0),
            estimate(plan(2, 2), 100.0),
            estimate(plan(1, 4), 103.0),
        ];
        assert_eq!(model.pick(&longer), Some(1));
        // Only the two cheapest take part.
        let third = [
            estimate(plan(4, 1), 100.0),
            estimate(plan(8, 1), 101.0),
            estimate(plan(2, 2), 102.0),
        ];
        assert_eq!(model.pick(&third), Some(0));
        assert_eq!(model.pick(&[]), None);

        // At a tick the same rule settles near-ties in both directions:
        // one it hands to the challenger is left to the hysteresis, any
        // other goes to the incumbent — the challenger starts from the
        // band's edge. A re-packing of the same plan is no such choice.
        let weighed = |incumbent, challenger| model.challenger_score(incumbent, challenger, 90.0);
        assert_eq!(weighed(plan(4, 1), plan(2, 2)), 90.0);
        assert!((weighed(plan(2, 2), plan(4, 1)) - 100.0).abs() < 1e-9);
        assert!((weighed(plan(1, 4), plan(2, 2)) - 100.0).abs() < 1e-9);
        assert!((weighed(plan(2, 2), plan(1, 4)) - 100.0).abs() < 1e-9);
        assert_eq!(weighed(plan(2, 2), plan(2, 2)), 90.0);

        // Same data, same injected rates: the same plan, twice.
        let model = injected(0.2, 16.0, 5_000.0).with_survivors(survivors(&[
            (plan(1, 4), &[1.0, 0.4, 0.3, 0.2]),
            (plan(2, 2), &[1.0, 0.3]),
        ]));
        assert_eq!(
            model.choose_plan(4, &profile),
            model.choose_plan(4, &profile)
        );
    }

    #[test]
    fn a_tick_that_sees_what_the_choice_saw_holds_it() {
        // Whatever the rates and survivors, the plan `pick` settles on is
        // not displaced at a tick pricing the same profile with the same
        // model: no challenger clears the hysteresis against it, free
        // migration included — also when the pick was a near-tie settled by
        // rule, the case that sits on the band's edge.
        let profile = uniform_profile(64, 128);
        let hysteresis = 0.10;
        let mut settled_by_rule = 0;
        for a in [0.05, 0.2, 1.0, 8.0] {
            for b in [2.0, 16.0, 60.0, 130.0] {
                for msg_ns in [0.0, 5_000.0, 30_000.0] {
                    for s in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
                        let model = injected(a, b, msg_ns)
                            .with_near_tie(hysteresis)
                            .with_pruning_survival(s);
                        let candidates = model.estimates(4, &profile);
                        let chosen = &candidates[model.pick(&candidates).unwrap()];
                        let cheapest = candidates
                            .iter()
                            .map(|c| c.cost.total_ns)
                            .fold(f64::INFINITY, f64::min);
                        settled_by_rule += usize::from(chosen.cost.total_ns > cheapest);
                        for c in candidates.iter().filter(|c| c.plan != chosen.plan) {
                            let score =
                                model.challenger_score(chosen.plan, c.plan, c.cost.total_ns);
                            assert!(
                                score >= chosen.cost.total_ns * (1.0 - hysteresis),
                                "a {a} b {b} msg {msg_ns} s {s}: {} would displace {}",
                                c.plan.label(),
                                chosen.plan.label()
                            );
                        }
                    }
                }
            }
        }
        assert!(settled_by_rule > 0, "the grid must contain near-ties");
    }

    #[test]
    fn messages_are_counted_the_way_the_dispatch_loop_sends_them() {
        let model = injected(0.2, 16.0, 5_000.0);
        // One shard: a sub-batch stays together, 2 · B_dim messages for
        // `sub_batch_rows` queries.
        let profile = uniform_profile(64, 128).with_window(64);
        let one = model.estimate(plan(1, 4), &profile);
        assert_eq!(sub_batch_rows(64, 4), 8);
        assert!((one.inputs.msgs_per_query - 8.0 / 8.0).abs() < 1e-9);
        // A window too small to batch: every query travels alone, and one
        // that visits both shards of `2v x 2d` pays 2 · 2 · 2 messages.
        let every_list = WorkloadProfile::uniform(vec![100; 8], 16, 3, 8);
        let two = model.estimate(plan(2, 2), &every_list);
        assert_eq!(sub_batch_rows(3, 2), 1);
        assert!((two.inputs.shard_visits_per_query - 2.0).abs() < 0.02);
        assert!((two.inputs.msgs_per_query - 8.0).abs() < 0.1);
        // Rows of a sub-batch part ways between shards, so more shards mean
        // more, smaller messages — not fewer.
        let four = model.estimate(plan(4, 1), &profile);
        assert!(four.inputs.msgs_per_query > one.inputs.msgs_per_query);
        assert!(four.cost.comm_ns > one.cost.comm_ns);
    }

    #[test]
    fn visit_times_split_into_two_terms_and_back() {
        let rates = ScanRates::from_visit_times(&[(32, 20.0), (64, 24.0), (128, 36.0)]);
        for (w, t) in [(32, 20.0), (64, 24.0), (128, 36.0)] {
            assert!((rates.visit_time_ns(w) - t).abs() < 1e-9, "width {w}");
            assert!(rates.point_dim_ns_at(w) > 0.0);
        }
        assert!(rates.visit_ns > 0.0 && rates.visit_ns < 20.0);
        // A narrower slice cannot cost a visit more than a wider one:
        // measurements that say so share their mean.
        let erred = ScanRates::from_visit_times(&[(8, 12.0), (16, 20.0), (32, 16.0)]);
        assert!((erred.visit_time_ns(8) - 12.0).abs() < 1e-9);
        assert!((erred.visit_time_ns(16) - 18.0).abs() < 1e-9);
        assert!((erred.visit_time_ns(32) - 18.0).abs() < 1e-9);
        let descending = ScanRates::from_visit_times(&[(8, 30.0), (16, 20.0), (32, 10.0)]);
        assert!((descending.visit_time_ns(8) - 20.0).abs() < 1e-9);
        assert!((descending.visit_time_ns(32) - 20.0).abs() < 1e-9);
        // A width between two calibrated ones reads the nearer.
        assert_eq!(rates.point_dim_ns_at(40), rates.point_dim_ns_at(32));
        // One width alone splits evenly; none at all is all zeros.
        let single = ScanRates::from_visit_times(&[(64, 30.0)]);
        assert!((single.visit_ns - 15.0).abs() < 1e-9);
        assert_eq!(ScanRates::from_visit_times(&[]).visit_time_ns(64), 0.0);
    }

    #[test]
    fn observed_survivors_carry_over_to_other_plans() {
        let mut s = survivors(&[
            (plan(1, 4), &[1.0, 0.4, 0.3, 0.2]),
            (plan(2, 2), &[1.0, 0.3]),
        ]);
        // The incumbent prunes twice as well as sampled at every hop.
        s.observe(plan(1, 4), &[1.0, 0.2, 0.15, 0.1], 1.0);
        assert_eq!(s.get(plan(1, 4)).unwrap(), &[1.0, 0.2, 0.15, 0.1]);
        // 2v x 2d's second hop sits at half the dimensions — where the
        // incumbent's third hop does — and halves with it.
        let hybrid = s.get(plan(2, 2)).unwrap();
        assert!((hybrid[1] - 0.15).abs() < 1e-9, "{hybrid:?}");
        // A plan never sampled takes the observation as its row.
        s.observe(plan(4, 1), &[1.0], 0.5);
        assert_eq!(s.get(plan(4, 1)).unwrap(), &[1.0]);
        assert_eq!(
            Survivors::fractions(&[200, 50, 10]).unwrap(),
            vec![1.0, 0.25, 0.05]
        );
        assert!(Survivors::fractions(&[0, 0]).is_none());
    }

    #[test]
    fn uniform_workload_prefers_vector_partitioning() {
        // No pruning information, assumed rates, uniform probes, queries
        // one at a time: every dimension block is a hop that prunes nothing
        // and two more messages on the query's way. (In batches the paper's
        // 30 µs link can turn this: sub-batches part ways between vector
        // shards and pure vector sends the most messages.)
        let model = CostModel::new(NetworkModel::default(), 4.0);
        let profile = uniform_profile(64, 128).with_window(1);
        let (plan, _) = model.choose_plan(4, &profile);
        assert_eq!(
            plan,
            PartitionPlan::pure_vector(4),
            "uniform loads without pruning should pick the latency-light pure-vector plan"
        );
    }

    #[test]
    fn more_dim_blocks_cost_more_messages_per_visit() {
        // One query at a time, one probe: a single shard visit either way,
        // and each dimension block adds a chunk and a carry to it. (Across
        // a batch the order can turn: rows of a sub-batch part ways between
        // vector shards — `messages_are_counted_the_way_…`.)
        let model = CostModel::new(NetworkModel::default(), 0.0);
        let profile = WorkloadProfile::uniform(vec![1000; 64], 128, 100, 1).with_window(1);
        let v = model.estimate(PartitionPlan::pure_vector(4), &profile);
        let d = model.estimate(PartitionPlan::pure_dimension(4), &profile);
        assert!((v.inputs.msgs_per_query - 2.0).abs() < 1e-9);
        assert!((d.inputs.msgs_per_query - 8.0).abs() < 1e-9);
        assert!(
            d.cost.comm_ns > v.cost.comm_ns,
            "dimension plan must pay more messages: {} vs {}",
            d.cost.comm_ns,
            v.cost.comm_ns
        );
    }

    #[test]
    fn skewed_workload_shifts_toward_dimension_blocks() {
        let model = CostModel::new(NetworkModel::default(), 4.0);
        // One scorching cluster: any vector sharding leaves 3 machines idle.
        let profile = skewed_profile(64, 128, 1);
        let (plan, _) = model.choose_plan(4, &profile);
        assert!(
            plan.dim_blocks > 1,
            "skewed loads should pick dimension blocks, got {}",
            plan.label()
        );
    }

    #[test]
    fn alpha_controls_the_switch_point() {
        // One hot cluster: every plan with more than one shard is imbalanced
        // (four hot clusters would spread evenly over four shards and hide
        // the effect). With α = 0 imbalance is free, so the plan with the
        // fewest visits per candidate wins; with huge α the balanced plan
        // wins.
        let profile = skewed_profile(64, 128, 1);
        let free = CostModel::new(NetworkModel::default(), 0.0);
        let (plan_free, _) = free.choose_plan(4, &profile);
        assert_eq!(plan_free, PartitionPlan::pure_vector(4));

        let strict = CostModel::new(NetworkModel::default(), 1e6);
        let (plan_strict, _) = strict.choose_plan(4, &profile);
        assert!(plan_strict.dim_blocks > 1);
    }

    #[test]
    fn imbalance_zero_for_uniform_vector_plan() {
        let model = CostModel::new(NetworkModel::default(), 1.0);
        let profile = uniform_profile(64, 128);
        let cost = model.plan_cost(PartitionPlan::pure_vector(4), &profile);
        // 64 equal clusters over 4 shards: LPT packs exactly 16 each.
        assert!(cost.imbalance_ns < 1e-6, "imbalance {}", cost.imbalance_ns);
    }

    #[test]
    fn dimension_plan_always_balanced() {
        let model = CostModel::new(NetworkModel::default(), 1.0);
        let profile = skewed_profile(64, 128, 1);
        let cost = model.plan_cost(PartitionPlan::pure_dimension(4), &profile);
        assert!(cost.imbalance_ns < 1e-6);
        let vec_cost = model.plan_cost(PartitionPlan::pure_vector(4), &profile);
        assert!(vec_cost.imbalance_ns > 0.0);
    }

    #[test]
    fn total_includes_alpha_weighted_imbalance() {
        let profile = skewed_profile(16, 64, 1);
        let m0 = CostModel::new(NetworkModel::default(), 0.0);
        let m1 = CostModel::new(NetworkModel::default(), 2.0);
        let plan = PartitionPlan::pure_vector(4);
        let c0 = m0.plan_cost(plan, &profile);
        let c1 = m1.plan_cost(plan, &profile);
        assert_eq!(c0.comp_ns, c1.comp_ns);
        assert!((c1.total_ns - (c1.comp_ns + c1.comm_ns + 2.0 * c1.imbalance_ns)).abs() < 1e-6);
        assert!(c1.total_ns > c0.total_ns);
    }

    #[test]
    fn calibrate_lands_in_sane_band() {
        // Wide enough for an unoptimized build on a loaded host, narrow
        // enough to catch a rate in the wrong unit (per row instead of per
        // dimension, microseconds instead of nanoseconds).
        let model = CostModel::new(NetworkModel::default(), 1.0).calibrate();
        assert_eq!(model.rates.point_dim_ns.len(), 3);
        for &(width, a) in &model.rates.point_dim_ns {
            assert!((0.005..=100.0).contains(&a), "a({width}) = {a}");
            let visit = model.rates.visit_time_ns(width);
            assert!(
                (1.0..=50_000.0).contains(&visit),
                "visit({width}) = {visit}"
            );
        }
        let b = model.rates.visit_ns;
        assert!((0.05..=10_000.0).contains(&b), "b = {b}");
        // A visit on a wider slice takes at least as long as on a narrower.
        let times: Vec<f64> = model
            .rates
            .point_dim_ns
            .iter()
            .map(|&(w, _)| model.rates.visit_time_ns(w))
            .collect();
        assert!(times.windows(2).all(|t| t[0] <= t[1] + 1e-9), "{times:?}");
        // The geometric prior is what prices a plan without a sample.
        let prior = model.with_pruning_survival(0.5);
        assert_eq!(
            prior.survivors_entering(plan(1, 4)),
            vec![1.0, 0.5, 0.25, 0.125]
        );
    }

    #[test]
    fn choose_plan_respects_dimensionality_limit() {
        let model = CostModel::new(NetworkModel::default(), 1.0);
        // 2-dimensional data cannot be split into 4 dim blocks.
        let profile = WorkloadProfile::uniform(vec![100; 8], 2, 10, 2);
        let (plan, _) = model.choose_plan(4, &profile);
        assert!(plan.dim_blocks <= 2);
    }

    #[test]
    fn cluster_work_scales_with_probe_frequency() {
        let profile = uniform_profile(4, 16)
            .with_probe_freq(vec![3.0, 1.0, 1.0, 1.0])
            .unwrap();
        let work = profile.cluster_work();
        assert!((work[0] / work[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn mismatched_profiles_rejected() {
        // 4 lists, 3 frequencies: the bug this constructor exists to catch.
        let err = WorkloadProfile::new(vec![100; 4], vec![1.0; 3], 16, 10, 2, 10);
        assert!(matches!(err, Err(crate::error::CoreError::Config(_))));
        let err = uniform_profile(4, 16).with_probe_freq(vec![1.0; 5]);
        assert!(matches!(err, Err(crate::error::CoreError::Config(_))));
        // Invalid frequency values are rejected too.
        let err = WorkloadProfile::new(vec![100; 2], vec![1.0, f64::NAN], 16, 10, 2, 10);
        assert!(err.is_err());
        let err = WorkloadProfile::new(vec![100; 2], vec![1.0, -1.0], 16, 10, 2, 10);
        assert!(err.is_err());
        // And the happy path works.
        assert!(WorkloadProfile::new(vec![100; 2], vec![1.0, 2.0], 16, 10, 2, 10).is_ok());
    }

    #[test]
    fn observed_profile_normalizes_counts() {
        let p = WorkloadProfile::observed(vec![100; 3], &[30, 10, 0], 16, 20, 4, 10).unwrap();
        assert_eq!(p.probe_freq, vec![30.0, 10.0, 0.0]);
        assert!(WorkloadProfile::observed(vec![100; 3], &[1, 2], 16, 20, 4, 10).is_err());
    }

    #[test]
    fn migration_cost_scales_with_bytes_and_messages() {
        let model = CostModel::new(NetworkModel::default(), 1.0);
        assert_eq!(model.migration_ns(0, 0), 0.0);
        let small = model.migration_ns(1_000, 1);
        let big = model.migration_ns(1_000_000, 1);
        assert!(big > small);
        let many = model.migration_ns(1_000, 100);
        assert!(many > small, "per-message latency must be charged");
    }

    #[test]
    fn pending_deltas_raise_every_plan_cost() {
        let model = CostModel::new(NetworkModel::default(), 4.0);
        let calm = uniform_profile(64, 128);
        let burst = uniform_profile(64, 128).with_pending_deltas(5_000);
        for plan in PartitionPlan::enumerate(4) {
            let a = model.plan_cost(plan, &calm).total_ns;
            let b = model.plan_cost(plan, &burst).total_ns;
            assert!(
                b > a,
                "plan {} must charge for 5k pending deltas ({a} vs {b})",
                plan.label()
            );
        }
    }

    #[test]
    fn delta_burst_penalizes_wide_vector_sharding_more() {
        let model = CostModel::new(NetworkModel::default(), 4.0);
        // A narrowly-probed workload: most shards are not visited, so
        // forced delta visits are pure overhead that scales with the
        // shard count.
        let mut profile = skewed_profile(64, 128, 2);
        profile.nprobe = 1;
        let burst = profile.clone().with_pending_deltas(10_000);
        let wide = PartitionPlan::pure_vector(4);
        let narrow = PartitionPlan::pure_dimension(4);
        let wide_extra =
            model.plan_cost(wide, &burst).comm_ns - model.plan_cost(wide, &profile).comm_ns;
        let narrow_extra =
            model.plan_cost(narrow, &burst).comm_ns - model.plan_cost(narrow, &profile).comm_ns;
        assert!(
            wide_extra > narrow_extra,
            "forced delta visits must cost more under wide sharding \
             ({wide_extra} vs {narrow_extra})"
        );
    }
}
