//! The cost model of §4.2.1 (Table 1), priced from what the engine measures.
//!
//! For a candidate plan `π = (B_vec, B_dim)` and a workload profile, the
//! model keeps the paper's objective
//!
//! ```text
//! C(π, Q) = Σ_q  Σ_blocks [c_comp(b, q) + c_comm(b, q)]  +  α · I(π)
//! ```
//!
//! * `c_comp` — worker scan time, per candidate entering hop 0:
//!   `survivors[0] · first(width) + Σ survivors[1..] · carried(width)`,
//!   the survivors entering each hop times what one visit costs that kind
//!   of hop at the plan's slice width. A first hop walks whole lists
//!   through the register tile; a carried hop gathers survivors out of
//!   them and pays most of its time beside the arithmetic (slot walk,
//!   bound, prune, emit), so a plan with `B_dim` blocks pays a carried
//!   visit up to `B_dim − 1` times per candidate unless pruning thins the
//!   later hops — which is why survivors per hop ([`Survivors`]) are
//!   sampled, not assumed. Both times are measured hop by hop through the
//!   worker's own scan routine at every candidate width ([`ScanRates`];
//!   the engine measures them at build).
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

/// What one candidate visit costs the worker scan, by hop kind and slice
/// width: a *first* hop walks whole lists (every row a candidate, scored
/// by the register tile), a *carried* hop gathers the survivors a carry
/// names out of them. The two loops speed up differently — a kernel change
/// can move one and not the other — so each is timed on its own, through
/// the worker's own scan routine ([`crate::planner`] does, at every width
/// a candidate plan scans), and priced on its own.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanRates {
    /// `(width, ns)` per first-hop visit, ascending by width.
    pub first: Vec<(usize, f64)>,
    /// `(width, ns)` per carried-hop visit, ascending by width.
    pub carried: Vec<(usize, f64)>,
}

impl ScanRates {
    /// `a · width + b` per visit on either kind of hop: assumed rates,
    /// `a` per point-dimension and `b` per candidate.
    pub fn linear(point_dim_ns: f64, visit_ns: f64) -> Self {
        let line = vec![(0, visit_ns), (1, point_dim_ns + visit_ns)];
        Self {
            first: line.clone(),
            carried: line,
        }
    }

    /// Rates from measured times per visit, `(width, first-hop ns,
    /// carried-hop ns)`; a width with no carried hop (a one-hop pipeline)
    /// gives `None` for it. Non-positive and non-finite times are dropped,
    /// and a width measured twice keeps its first measurement.
    pub fn measured(times: &[(usize, f64, Option<f64>)]) -> Self {
        let mut rates = Self::default();
        for &(width, first, carried) in times {
            rates.first.push((width, first));
            rates.carried.extend(carried.map(|ns| (width, ns)));
        }
        for series in [&mut rates.first, &mut rates.carried] {
            series.retain(|&(w, ns)| w > 0 && ns.is_finite() && ns > 0.0);
            series.sort_by_key(|&(w, _)| w);
            series.dedup_by_key(|&mut (w, _)| w);
        }
        rates
    }

    /// Nanoseconds per first-hop visit on a slice `width` dimensions wide.
    pub fn first_ns(&self, width: usize) -> f64 {
        line_at(&self.first, width).0
    }

    /// Nanoseconds per carried-hop visit on a slice `width` dimensions wide.
    pub fn carried_ns(&self, width: usize) -> f64 {
        line_at(&self.carried, width).0
    }

    /// The modeled per-node rates of a deployment scanning slices `width`
    /// dimensions wide: the first-hop times' local line `a · w + b` around
    /// `width`, `a` per point-dimension and `b` per candidate visit. A
    /// cluster holds one pair for its lifetime, whatever layouts it
    /// migrates through; an engine gives it the full width's.
    pub fn compute_rates(&self, width: usize) -> ComputeRates {
        let (ns, slope) = line_at(&self.first, width);
        let w = width.max(1) as f64;
        let slope = slope.clamp(0.0, ns / w);
        ComputeRates::default()
            .with_kernel_rate(slope)
            .with_candidate_rate(ns - slope * w)
    }
}

/// A measured series at `width` and its slope there: between two measured
/// widths on the line through them, beyond the ends on the line through the
/// two nearest (never below zero); one measurement holds at every width,
/// none is zero.
fn line_at(series: &[(usize, f64)], width: usize) -> (f64, f64) {
    let (lo, hi) = match series {
        [] => return (0.0, 0.0),
        [(_, ns)] => return (*ns, 0.0),
        _ => {
            let upper = series.partition_point(|&(w, _)| w < width);
            let hi = upper.clamp(1, series.len() - 1);
            (series[hi - 1], series[hi])
        }
    };
    let slope = (hi.1 - lo.1) / (hi.0 - lo.0) as f64;
    let ns = lo.1 + slope * (width as f64 - lo.0 as f64);
    (ns.max(0.0), slope)
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
    /// Ns per candidate visit on the first hop, at that width.
    pub first_ns: f64,
    /// Ns per candidate visit on a carried hop, at that width.
    pub carried_ns: f64,
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
        first ns  carried ns  visits/q  msgs/q  bytes/q  survivors entering each hop";
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
            "{:>8}  {:>10.1}  {:>9.1}  {:>9.1}  {:>8.1}  {:>8.1}  {:>10.1}  {:>8.0}  {:>6.2}  {:>7.0}  ",
            self.plan.label(),
            per_query_us(c.total_ns),
            per_query_us(c.comp_ns),
            per_query_us(c.comm_ns),
            per_query_us(imbalance),
            i.first_ns,
            i.carried_ns,
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
    /// The worker scan's times per visit, by hop kind.
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
            rates: ScanRates::linear(assumed.ns_per_point_dim, assumed.ns_per_candidate),
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
    /// full, half and quarter width, hop by hop. An engine measures on its
    /// own lists instead.
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
        // hop it survives into: at the first hop's time per visit there,
        // at the carried hops' time per visit after.
        let width = profile.dim / blocks;
        let survivors = self.survivors_entering(plan);
        let visits_per_candidate: f64 = survivors.iter().sum();
        let (first_ns, carried_ns) = (self.rates.first_ns(width), self.rates.carried_ns(width));
        let candidate_ns = survivors.first().map_or(0.0, |&s| s * first_ns)
            + survivors.iter().skip(1).sum::<f64>() * carried_ns;
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
                first_ns,
                carried_ns,
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

    /// The choice among scored candidates: the cheapest — unless the
    /// runner-up is within [`CostModel::near_tie`] of it and needs less
    /// computation. Inside the band the model cannot tell two plans apart,
    /// and its two halves are not measured alike: the computation is timed
    /// on the namespace's own lists through the worker's own routine, while
    /// the communication rests on what a build cannot check — the batch
    /// size (a full in-flight window: a 64-query batch sends twice the
    /// messages per query of `2v x 2d`), a fabric timed idle, and bytes
    /// priced at the link alone though encoding and decoding them is CPU on
    /// both ends. So the near-tie goes to the computation. The rule also
    /// keeps timing noise in the measured rates from flipping near-ties
    /// between runs. Returns the winner's position.
    pub fn pick(&self, candidates: &[PlanEstimate]) -> Option<usize> {
        let priced: Vec<(f64, f64)> = candidates
            .iter()
            .map(|c| (c.cost.total_ns, c.cost.comp_ns))
            .collect();
        self.pick_priced(&priced)
    }

    /// [`CostModel::pick`] over `(price, computation)` pairs.
    pub fn pick_priced(&self, priced: &[(f64, f64)]) -> Option<usize> {
        let mut order: Vec<usize> = (0..priced.len()).collect();
        order.sort_by(|&a, &b| priced[a].0.total_cmp(&priced[b].0));
        let &best = order.first()?;
        let Some(&second) = order.get(1) else {
            return Some(best);
        };
        let ((cheapest, comp), (runner_up, runner_up_comp)) = (priced[best], priced[second]);
        let tie = cheapest >= runner_up * (1.0 - self.near_tie);
        Some(if tie && runner_up_comp < comp {
            second
        } else {
            best
        })
    }

    /// What a challenger priced at `score_ns` (its steady-state cost plus
    /// the amortized cost of moving to it) weighs against `incumbent` at a
    /// supervisor tick. A tick prices an observed profile, not an assumed
    /// one, so near-ties go the way its skew points: a challenger with
    /// dimension blocks facing an incumbent without them — the only move
    /// that spreads one hot list over several machines — is left to the
    /// hysteresis alone; any other challenger first has to leave the
    /// near-tie band, the hysteresis it must clear being measured from the
    /// band's edge. [`CostModel::pick`] departs from the cheapest plan only
    /// inside the band, so a plan it settled on is not moved off by a tick
    /// that sees what the choice saw, and two plans the model prices alike
    /// do not trade places as its survivors follow the one in force. A
    /// re-packing of the incumbent's own plan is no choice between plans
    /// and is left to the hysteresis too. Every migration pays the full
    /// hysteresis.
    pub fn challenger_score(
        &self,
        incumbent: PartitionPlan,
        challenger: PartitionPlan,
        score_ns: f64,
    ) -> f64 {
        let spreads = challenger.dim_blocks > 1 && incumbent.dim_blocks <= 1;
        match challenger == incumbent || spreads {
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
            .with_rates(ScanRates::linear(a, b))
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
    fn near_ties_go_to_the_computation_and_repeat() {
        let profile = uniform_profile(64, 128);
        let estimate = |p: PartitionPlan, total_ns: f64, comp_ns: f64| {
            let mut e = injected(0.2, 16.0, 0.0).estimate(p, &profile);
            (e.cost.total_ns, e.cost.comp_ns) = (total_ns, comp_ns);
            e
        };
        let model = injected(0.2, 16.0, 0.0).with_near_tie(0.10);
        // The runner-up is within 10 % and needs less computation: its
        // messages are what make it dearer.
        let tie = [
            estimate(plan(4, 1), 108.0, 80.0),
            estimate(plan(2, 2), 100.0, 90.0),
            estimate(plan(1, 4), 150.0, 140.0),
        ];
        assert_eq!(model.pick(&tie), Some(0));
        // A runner-up within 10 % that needs more stays the runner-up,
        // whatever its shape.
        let dearer = [
            estimate(plan(4, 1), 100.0, 80.0),
            estimate(plan(2, 2), 108.0, 90.0),
            estimate(plan(1, 4), 150.0, 140.0),
        ];
        assert_eq!(model.pick(&dearer), Some(0));
        // Outside the margin the cheapest wins.
        let clear = [
            estimate(plan(4, 1), 115.0, 80.0),
            estimate(plan(2, 2), 100.0, 90.0),
            estimate(plan(1, 4), 150.0, 140.0),
        ];
        assert_eq!(model.pick(&clear), Some(1));
        // Only the two cheapest take part.
        let third = [
            estimate(plan(4, 1), 109.0, 80.0),
            estimate(plan(2, 2), 100.0, 90.0),
            estimate(plan(1, 4), 105.0, 95.0),
        ];
        assert_eq!(model.pick(&third), Some(1));
        assert_eq!(model.pick(&[]), None);
        assert_eq!(model.pick_priced(&[(7.0, 1.0)]), Some(0));

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
    fn each_hop_kind_is_priced_at_its_own_time() {
        // Injected per-visit times, first and carried, at the three widths
        // four machines can slice 128 dimensions into.
        let rates = ScanRates::measured(&[
            (128, 30.0, None),
            (64, 10.0, Some(100.0)),
            (32, 6.0, Some(60.0)),
            (64, 99.0, Some(99.0)),
            (16, f64::NAN, Some(-1.0)),
        ]);
        assert_eq!(rates.first, vec![(32, 6.0), (64, 10.0), (128, 30.0)]);
        assert_eq!(rates.carried, vec![(32, 60.0), (64, 100.0)]);
        // Between measured widths on their line, past the ends on the line
        // through the nearest two.
        assert_eq!(rates.first_ns(96), 20.0);
        assert_eq!(rates.carried_ns(128), 180.0);
        assert_eq!(rates.carried_ns(16), 40.0);
        let model = CostModel::new(NetworkModel::instant(), 0.0)
            .with_rates(rates)
            .with_message_ns(0.0)
            .with_survivors(survivors(&[
                (plan(2, 2), &[1.0, 0.25]),
                (plan(1, 4), &[1.0, 0.5, 0.25, 0.25]),
            ]));
        // 100 queries × 8 probes × 1000-row lists enter hop 0.
        let profile = uniform_profile(64, 128);
        let entering = 100.0 * 8.0 * 1000.0;
        let comp = |p: PartitionPlan| model.plan_cost(p, &profile).comp_ns;
        assert!((comp(plan(4, 1)) - entering * 30.0).abs() < 1e-3);
        assert!((comp(plan(2, 2)) - entering * (10.0 + 0.25 * 100.0)).abs() < 1e-3);
        assert!((comp(plan(1, 4)) - entering * (6.0 + 1.0 * 60.0)).abs() < 1e-3);
        let hybrid = model.estimate(plan(2, 2), &profile).inputs;
        assert_eq!((hybrid.first_ns, hybrid.carried_ns), (10.0, 100.0));
        // A faster first hop alone moves every plan; a faster carried hop
        // moves only the plans that have one — here enough to turn the
        // choice from pure vector to the hybrid.
        assert_eq!(model.choose_plan(4, &profile).0, plan(4, 1));
        let cheap_carry = model.clone().with_rates(ScanRates::measured(&[
            (128, 30.0, None),
            (64, 10.0, Some(8.0)),
            (32, 6.0, Some(10.0)),
        ]));
        let vector = cheap_carry.plan_cost(plan(4, 1), &profile).comp_ns;
        assert!((vector - entering * 30.0).abs() < 1e-3);
        assert_eq!(cheap_carry.choose_plan(4, &profile).0, plan(2, 2));
        // The modeled cluster charges the first hop's local line.
        let charged = ScanRates::linear(0.25, 12.0).compute_rates(64);
        assert_eq!(
            (charged.ns_per_point_dim, charged.ns_per_candidate),
            (0.25, 12.0)
        );
        let charged = ScanRates::measured(&[(32, 6.0, None), (64, 10.0, None)]).compute_rates(64);
        assert_eq!(
            (charged.ns_per_point_dim, charged.ns_per_candidate),
            (0.125, 2.0)
        );
        assert_eq!(ScanRates::default().first_ns(64), 0.0);
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
        let widths = |series: &[(usize, f64)]| series.iter().map(|&(w, _)| w).collect::<Vec<_>>();
        assert_eq!(widths(&model.rates.first), vec![32, 64, 128]);
        assert_eq!(widths(&model.rates.carried), vec![32, 64]);
        for &(width, ns) in model.rates.first.iter().chain(&model.rates.carried) {
            assert!((1.0..=50_000.0).contains(&ns), "visit({width}) = {ns}");
        }
        let rates = model.rates.compute_rates(128);
        assert!((0.0..=100.0).contains(&rates.ns_per_point_dim), "{rates:?}");
        assert!(
            (0.0..=10_000.0).contains(&rates.ns_per_candidate),
            "{rates:?}"
        );
        // A first-hop visit on a wider slice takes longer than on a narrower.
        let first: Vec<f64> = model.rates.first.iter().map(|&(_, ns)| ns).collect();
        assert!(first[0] < first[2], "{first:?}");
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
