//! The plan supervisor: the per-namespace bookkeeping behind the mutex
//! that serializes replanning ticks, migrations and compactions, and every
//! entry point that takes it — [`EngineCore::supervisor_tick`],
//! [`EngineCore::migrate_to`], [`EngineCore::compact`] and the hook
//! sessions run after a batch. The mutex is private to this module: the
//! epoch and ingest code it calls receives `&mut SupervisorState`.

use std::sync::Arc;

use harmony_index::VectorStore;
use parking_lot::Mutex;

use super::epoch::{MigrationReport, RoutingEpoch};
use super::ingest::{with_sample_view, CompactionReport};
use super::namespace::{list_weights, pack_shards, NamespaceState};
use super::EngineCore;
use crate::config::{ReplanConfig, SearchOptions};
use crate::cost::{weights_from, CostModel, PlanEstimate, Survivors, WorkloadProfile};
use crate::error::CoreError;
use crate::partition::{PartitionPlan, ShardAssignment};
use crate::planner;
use crate::stats::{EngineStats, ProbeEwma, ProbeSnapshot};

/// Supervisor bookkeeping of one namespace, serialized under one mutex.
pub(super) struct SupervisorState {
    /// Probe snapshot at the start of the current observation window.
    window_start: ProbeSnapshot,
    /// EWMA-smoothed probe windows (the supervisor's drift-aware view of
    /// the workload; see [`ReplanConfig::ewma_alpha`](crate::ReplanConfig)).
    ewma: ProbeEwma,
    /// Query count at which the next auto-check fires.
    next_check: u64,
    /// Next epoch number to hand out ([`SupervisorState::number_epoch`]).
    next_epoch: u64,
    /// Retired routing epochs still referenced by in-flight queries. Once
    /// only this list holds an Arc (`strong_count == 1`), the epoch's
    /// storage is evicted from the workers.
    pub(super) retired: Vec<Arc<RoutingEpoch>>,
    /// The namespace's cost model: scan rates and survivors per hop start
    /// from the build's measurements and follow what each observation
    /// window of worker counters shows.
    pub(super) tuned: CostModel,
    /// Worker statistics as of the previous tick — the counters are
    /// cumulative, a window is the difference of two collections.
    last_stats: EngineStats,
    /// Bytes the epoch in force took on the wire — what a layout change,
    /// which ships every grid block of the namespace anew, is priced at.
    pub(super) epoch_bytes: u64,
}

impl SupervisorState {
    /// Numbers the next epoch. Migrations and compactions share the
    /// counter, and it advances on every *attempt*, successful or not: a
    /// failed handshake must never reuse its epoch number, or stale acks
    /// of the aborted attempt could complete the retry's handshake.
    pub(super) fn number_epoch(&mut self) -> u64 {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        epoch
    }
}

/// A namespace's [`SupervisorState`] behind its mutex, which nothing
/// outside this module — a search session least of all — can wait on.
pub(super) struct Supervision {
    supervisor: Mutex<SupervisorState>,
}

impl Supervision {
    /// The supervisor of a freshly placed namespace of `nlist` lists,
    /// serving epoch 0 under the model that chose its plan.
    pub(super) fn new(nlist: usize, replan: &ReplanConfig, tuned: CostModel) -> Self {
        Self {
            supervisor: Mutex::new(SupervisorState {
                window_start: ProbeSnapshot::default(),
                ewma: ProbeEwma::new(nlist, replan.ewma_alpha),
                next_check: replan.check_every.max(1),
                next_epoch: 1,
                retired: Vec::new(),
                tuned,
                last_stats: EngineStats::default(),
                epoch_bytes: 0,
            }),
        }
    }

    /// Records what shipping epoch 0 took on the wire.
    pub(super) fn record_shipment(&mut self, bytes: u64) {
        self.supervisor.get_mut().epoch_bytes = bytes;
    }

    /// Starts the first observation window at `stats`: the worker counters
    /// are cumulative and shared, so a tenant's first window starts where
    /// it was created, not at the engine's build.
    pub(super) fn start_window(&mut self, stats: EngineStats) {
        self.supervisor.get_mut().last_stats = stats;
    }
}

/// What one supervisor tick decided.
#[derive(Debug, Clone)]
pub enum ReplanOutcome {
    /// The observation window has too few queries to act on.
    InsufficientData,
    /// The incumbent layout survived (no candidate beat it by the
    /// configured hysteresis once migration cost was charged).
    Hold {
        /// Modeled cost of staying on the current layout, ns.
        stay_ns: f64,
        /// Best challenger's modeled cost including amortized migration, ns.
        best_ns: f64,
        /// What the tick priced, with the inputs of each estimate: the
        /// incumbent layout first, then every challenger (the incumbent's
        /// plan appears again when a same-plan rebalance was one).
        candidates: Vec<PlanEstimate>,
    },
    /// The engine switched layouts via live migration.
    Switched(MigrationReport),
}

impl EngineCore {
    /// Runs one supervisor tick over the default namespace: fold the
    /// observation window's probe counters into an observed
    /// [`WorkloadProfile`], re-score every factorization with the cost
    /// model plus the amortized migration-cost term, and live-migrate when
    /// a challenger beats the incumbent by the configured hysteresis.
    ///
    /// Safe to call from any thread; ticks serialize on the supervisor
    /// lock. With [`crate::config::ReplanConfig::check_every`] set, the
    /// engine also ticks itself after batches.
    ///
    /// # Errors
    /// Transport failures or a migration handshake timeout.
    pub fn supervisor_tick(&self) -> Result<ReplanOutcome, CoreError> {
        let mut sup = self.ns0.supervision.supervisor.lock();
        self.tick_locked(&self.ns0, &mut sup)
    }

    /// Forces a live migration of the default namespace to `plan`
    /// (diagnostics / benchmarks), bypassing the cost model but using the
    /// same epoch handshake.
    ///
    /// # Errors
    /// [`CoreError::Config`] when the plan does not fit the deployment;
    /// transport failures or a handshake timeout otherwise.
    pub fn migrate_to(&self, plan: PartitionPlan) -> Result<MigrationReport, CoreError> {
        let state = &*self.ns0;
        if plan.machines() != self.config.n_machines {
            return Err(CoreError::Config(format!(
                "plan {} needs {} machines but the deployment has {}",
                plan.label(),
                plan.machines(),
                self.config.n_machines
            )));
        }
        // A plan with more blocks than dimensions is rejected where the
        // epoch is cut.
        let mut sup = state.supervision.supervisor.lock();
        self.gc_retired(state, &mut sup);
        let cur = Arc::clone(&state.view().routing);
        let sizes = cur.lists.sizes();
        let assignment = if plan == cur.plan {
            let weights = list_weights(&sizes);
            ShardAssignment::rebalance(&cur.assignment, &weights, plan.vec_shards, 1.0)
        } else {
            pack_shards(self.config.balanced_load, &sizes, plan.vec_shards)
        };
        drop(cur);
        self.migrate(state, &mut sup, plan, assignment)
    }

    /// A live layout switch: [`EngineCore::recut`] onto `(plan,
    /// assignment)`, reported with the price a tick would have put on it.
    /// The old epoch stays on the workers until its last in-flight query
    /// drains ([`EngineCore::gc_retired`]).
    fn migrate(
        &self,
        state: &NamespaceState,
        sup: &mut SupervisorState,
        plan: PartitionPlan,
        assignment: ShardAssignment,
    ) -> Result<MigrationReport, CoreError> {
        let cur = Arc::clone(&state.view().routing);
        let mut report = MigrationReport {
            from_epoch: cur.epoch,
            to_epoch: cur.epoch,
            from_plan: cur.plan,
            to_plan: plan,
            clusters_moved: cur.assignment.moved_clusters(&assignment).len(),
            modeled_bytes: sup.epoch_bytes,
            migration_ns: self.switch_ns(sup),
            stay_ns: 0.0,
            projected_ns: 0.0,
            candidates: Vec::new(),
        };
        drop(cur);
        report.to_epoch = self.recut(state, sup, plan, assignment)?.epoch;
        Ok(report)
    }

    /// Modeled one-time cost of a layout change: the namespace's blocks,
    /// one message per machine.
    fn switch_ns(&self, sup: &SupervisorState) -> f64 {
        let machines = self.config.n_machines as u64;
        sup.tuned.migration_ns(sup.epoch_bytes, machines)
    }

    /// Folds every pending delta row of the default namespace into its
    /// home IVF list and drops tombstoned rows, publishing the result as a
    /// new epoch the way a live migration does ([`EngineCore::recut`]) —
    /// searches in flight keep their old epoch and stay bit-consistent;
    /// new admissions see only the compacted lists. Under SQ8 the recut
    /// lists are re-quantized client-side. A no-op (nothing pending,
    /// nothing deleted) publishes no epoch.
    ///
    /// # Errors
    /// Transport failures or a handshake timeout (the incumbent epoch
    /// stays in force).
    pub fn compact(&self) -> Result<CompactionReport, CoreError> {
        self.compact_namespace(&self.ns0)
    }

    /// Folds pending deltas of namespace `ns` (see
    /// [`EngineCore::compact`]).
    ///
    /// # Errors
    /// Unknown namespace, transport failures or a handshake timeout.
    pub fn compact_ns(&self, ns: u16) -> Result<CompactionReport, CoreError> {
        let state = self.namespace(ns)?;
        self.compact_namespace(&state)
    }

    /// One compaction of `state`, serialized with its ticks and migrations.
    pub(super) fn compact_namespace(
        &self,
        state: &NamespaceState,
    ) -> Result<CompactionReport, CoreError> {
        let mut sup = state.supervision.supervisor.lock();
        self.gc_retired(state, &mut sup);
        // The compacted lists keep the incumbent's layout.
        let cur = Arc::clone(&state.view().routing);
        let (plan, assignment) = (cur.plan, cur.assignment.clone());
        drop(cur);
        self.recut(state, &mut sup, plan, assignment)
    }

    /// Runs the planner's survival sample on queries of the caller's
    /// choosing (default namespace): the candidates that would enter each
    /// position of `plan`'s dimension pipeline — every probed list cut to
    /// the pipeline's slices in the namespace's representation and every
    /// shard visit run through the worker's own scan routine against the
    /// query's threshold, which starts from the prewarm samples and
    /// tightens between shard visits. The layout in force is sampled under
    /// its own shard assignment, any other plan under the packing a forced
    /// migration would give it. These are the `slice_in` counters a
    /// deployment running the plan reports for the same queries searched
    /// one at a time with `balanced_load` off (blocks in natural order).
    /// The call copies the probed lists: it is a diagnostic, sized for
    /// tests and tools.
    ///
    /// # Errors
    /// [`CoreError::Config`] when the plan has more blocks than the vectors
    /// have dimensions, or the queries another dimensionality.
    pub fn sample_survivors(
        &self,
        queries: &VectorStore,
        opts: &SearchOptions,
        plan: PartitionPlan,
    ) -> Result<Vec<u64>, CoreError> {
        let state = &self.ns0;
        if plan.dim_blocks > state.dim || queries.dim() != state.dim {
            return Err(CoreError::Config(format!(
                "cannot sample {}-d queries over plan {} of {} dimensions",
                queries.dim(),
                plan.label(),
                state.dim
            )));
        }
        let routing = Arc::clone(&state.view().routing);
        let assignment = if plan == routing.plan {
            routing.assignment.clone()
        } else {
            let sizes = routing.lists.sizes();
            pack_shards(self.config.balanced_load, &sizes, plan.vec_shards)
        };
        drop(routing);
        let rows = (0..queries.len()).map(|q| queries.row(q));
        let plans = [(plan, &assignment)];
        let entering = with_sample_view(state, opts.k, |view| {
            planner::survivors_entering(view, rows, opts.nprobe, &plans, 1)
        });
        Ok(entering.into_iter().next().unwrap_or_default())
    }

    /// What a session does for the supervisor once its batch is answered,
    /// never waiting: if a tick, migration or compaction holds the lock,
    /// this batch skips. Drained retired epochs are evicted here (they must
    /// not wait for a tick that may never come in manual mode), and with
    /// [`ReplanConfig::check_every`] set a supervisor pass runs when enough
    /// queries completed since the last one.
    pub(super) fn after_batch(&self, state: &NamespaceState) {
        let Some(mut sup) = state.supervision.supervisor.try_lock() else {
            return;
        };
        if !sup.retired.is_empty() {
            self.gc_retired(state, &mut sup);
        }
        let every = self.config.replan.check_every;
        let done = state.probes.queries();
        if every == 0 || done < sup.next_check {
            return;
        }
        sup.next_check = done + every;
        // Auto mode is best-effort: a failed tick (e.g. handshake timeout)
        // leaves the incumbent layout in force and retries next window.
        let _ = self.tick_locked(state, &mut sup);
    }

    fn tick_locked(
        &self,
        state: &NamespaceState,
        sup: &mut SupervisorState,
    ) -> Result<ReplanOutcome, CoreError> {
        self.gc_retired(state, sup);
        let replan = self.config.replan;
        let now = state.probes.snapshot();
        let window = now.delta(&sup.window_start);
        if window.queries < replan.min_window_queries.max(1) {
            return Ok(ReplanOutcome::InsufficientData);
        }
        let nprobe = (window.total_probes() / window.queries.max(1)).max(1) as usize;
        let k = state.probes.last_k().max(1) as usize;
        // Smooth the raw window through the EWMA so sustained drift drives
        // the decision while one noisy window cannot whipsaw the layout.
        sup.ewma.absorb(&window);
        let smoothed_counts = sup.ewma.counts();
        let smoothed_queries = sup.ewma.queries().max(1);
        let cur = Arc::clone(&state.view().routing);
        let profile = WorkloadProfile::observed(
            cur.lists.sizes(),
            &smoothed_counts,
            state.dim,
            smoothed_queries as usize,
            nprobe,
            k,
        )?
        .with_pending_deltas(state.unfolded_writes().0)
        .with_window(window.mean_batch().min(self.config.max_inflight));
        let weights = weights_from(&profile);
        // Let the model follow how the incumbent pipeline pruned since the
        // previous tick: the candidates that entered each of its positions.
        // The worker counters are cumulative and shared by every namespace
        // — the window is the difference of two collections, and on a
        // multi-tenant deployment it holds the other tenants' scans of the
        // same interval too. The scan rates stay as the build measured
        // them: a window served at one slice width is one equation for two
        // rates, on a clock that also counts the time workers sat preempted.
        if let Ok(stats) = self.collect_stats() {
            let entering = stats.entering_since(&sup.last_stats);
            sup.last_stats = stats;
            let observed = entering.get(..cur.plan.dim_blocks);
            if let Some(observed) = observed.and_then(Survivors::fractions) {
                let blend = replan.ewma_alpha;
                sup.tuned.survivors.observe(cur.plan, &observed, blend);
            }
        }
        let stay = sup
            .tuned
            .estimate_with_assignment(cur.plan, &profile, &cur.assignment);
        let stay_ns = stay.cost.total_ns;
        let mut candidates = vec![stay];

        // Score every factorization under the observed profile, charging
        // challengers the amortized cost of moving to them — the same for
        // each: a layout change ships the whole namespace anew.
        let switch_ns = self.switch_ns(sup) / replan.amortize_windows;
        let mut best: Option<(PartitionPlan, ShardAssignment, f64, f64, f64)> = None;
        for plan in PartitionPlan::enumerate(self.config.n_machines) {
            if plan.dim_blocks > state.dim {
                continue;
            }
            let assignment = if plan == cur.plan {
                ShardAssignment::rebalance(
                    &cur.assignment,
                    &weights,
                    plan.vec_shards,
                    replan.max_move_frac,
                )
            } else {
                ShardAssignment::balanced(&weights, plan.vec_shards)
            };
            if plan == cur.plan && assignment.cluster_to_shard == cur.assignment.cluster_to_shard {
                continue; // identical to the incumbent, already priced
            }
            let estimate = sup
                .tuned
                .estimate_with_assignment(plan, &profile, &assignment);
            let cost = estimate.cost.total_ns;
            candidates.push(estimate);
            let score = cost + switch_ns;
            // Near-ties are settled by the choice's own rule, and for the
            // incumbent where it has none (`CostModel::challenger_score`).
            let preferred = sup.tuned.challenger_score(cur.plan, plan, score);
            if best.as_ref().is_none_or(|b| preferred < b.4) {
                best = Some((plan, assignment, score, cost, preferred));
            }
        }
        drop(cur);
        // Every decision starts a fresh observation window.
        sup.window_start = now;

        let Some((plan, assignment, best_ns, cost, preferred_ns)) = best else {
            return Ok(ReplanOutcome::Hold {
                stay_ns,
                best_ns: stay_ns,
                candidates,
            });
        };
        if preferred_ns >= stay_ns * (1.0 - replan.hysteresis) {
            return Ok(ReplanOutcome::Hold {
                stay_ns,
                best_ns,
                candidates,
            });
        }
        let mut report = self.migrate(state, sup, plan, assignment)?;
        report.stay_ns = stay_ns;
        report.projected_ns = cost;
        report.candidates = candidates;
        Ok(ReplanOutcome::Switched(report))
    }
}
