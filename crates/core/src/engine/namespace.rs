//! Namespaces: one tenant's state, how it is built (Train / Add /
//! Pre-assign), the registry that resolves ids to it, its storage
//! temperature, and the background thread that folds and retempers
//! tenants.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use harmony_index::distance::{ip, U8_MAX_WIDTH};
use harmony_index::{
    max_magnitude, AccessEwma, BlockRepr, DimRange, IndexError, KMeans, KMeansConfig, Metric,
    Sq8Segment, Temperature, VectorStore,
};
use parking_lot::RwLock;

use super::epoch::{ship_epoch, EpochLists, PrewarmSamples, RoutingEpoch, PREWARM_PER_LIST};
use super::ingest::WriteSide;
use super::supervisor::Supervision;
use super::{await_acks, once_per_machine, EngineCore};
use crate::config::{EngineMode, HarmonyConfig, NamespaceConfig, SearchOptions};
use crate::cost::{CostModel, ScanRates, Survivors, WorkloadProfile};
use crate::error::CoreError;
use crate::messages::{ClusterBlock, SetTier, ToClient, ToWorker};
use crate::partition::{PartitionPlan, ShardAssignment};
use crate::planner::{self, SampleView};
use crate::stats::{BuildStats, ProbeTracker};

/// One tenant's complete logical index: clustering, the exact copy of its
/// vectors, the write side with the view it publishes, probe counters,
/// supervisor and storage temperature. Four locks, taken in the order
/// `supervisor < ingest < base < view`: sessions read `view` and `base`,
/// the two mutexes belong to the writers and are private to their modules.
pub struct NamespaceState {
    /// Wire id of this namespace.
    pub(super) ns: u16,
    pub(super) metric: Metric,
    pub(super) dim: usize,
    /// Whether blocks are SQ8-quantized (two-stage search with re-rank).
    pub(super) sq8: bool,
    pub(super) pruning: bool,
    rerank_scale: usize,
    /// Live-vector quota (0 = unlimited).
    pub(super) max_vectors: usize,
    /// Whether the background sweep may retemper this namespace.
    auto_tier: bool,
    pub(super) centroids: VectorStore,
    /// Seed the prewarm samples' picks derive from, at build and again at
    /// every compaction.
    pub(super) prewarm_seed: u64,
    /// Exact full-dimension copy of every live vector, `by_id` pointing at
    /// the newest row per external id. Source of truth for compaction
    /// (lists are recut from it) and, under SQ8, for the exact re-rank
    /// stage.
    pub(super) base: RwLock<BaseStore>,
    /// Mutable-shard ingest bookkeeping and the view published from it.
    pub(super) writes: WriteSide,
    /// Observed per-cluster probe counters (the supervisor's input).
    pub(super) probes: ProbeTracker,
    /// Serializes replanning ticks, migrations and compactions.
    pub(super) supervision: Supervision,
    /// Storage temperature as last acknowledged by every worker
    /// ([`Temperature::encode`]); publishes nothing else, hence `Relaxed`.
    temperature: AtomicU8,
    /// Queries that arrived since the compactor's last sweep — the
    /// auto-tier signal, a statistic the sweep drains into its EWMA.
    pub(super) arrivals: AtomicU64,
}

/// Stage-1 collection size: `k × rerank_scale` under SQ8 (the extra
/// survivors feed the exact re-rank stage), plain `k` otherwise.
fn effective_k(sq8: bool, rerank_scale: usize, k: usize) -> usize {
    if sq8 {
        k.saturating_mul(rerank_scale.max(1))
    } else {
        k
    }
}

impl NamespaceState {
    pub(super) fn effective_k(&self, k: usize) -> usize {
        effective_k(self.sq8, self.rerank_scale, k)
    }

    /// Rejects `rows` (row-major, `dim` wide) of another dimensionality than
    /// the namespace's, or holding a NaN or infinite coordinate — before
    /// anything is sent.
    pub(super) fn check_rows(&self, dim: usize, rows: &[f32]) -> Result<(), CoreError> {
        let (expected, actual) = (self.dim, dim);
        if actual != expected {
            return Err(IndexError::DimensionMismatch { expected, actual }.into());
        }
        let non_finite = rows.chunks(dim).position(|r| max_magnitude(r).is_none());
        match non_finite {
            Some(row) => Err(IndexError::NonFinite { row }.into()),
            None => Ok(()),
        }
    }

    pub(super) fn temperature(&self) -> Temperature {
        Temperature::decode(self.temperature.load(Ordering::Relaxed)).unwrap_or(Temperature::Hot)
    }
}

/// Client-side exact vectors: compaction source and SQ8 re-rank store.
/// Upserts append rows and repoint `by_id`; superseded rows are
/// unreachable through the id map and linger, like the rows of deleted
/// ids, until the next compaction sweeps them.
pub(crate) struct BaseStore {
    pub(crate) store: VectorStore,
    /// External id → newest row of `store`.
    pub(crate) by_id: HashMap<u64, usize>,
}

impl BaseStore {
    /// The exact copy of a freshly built namespace: every row live.
    pub(crate) fn over(store: VectorStore) -> Self {
        let by_id = (0..store.len()).map(|r| (store.id(r), r)).collect();
        Self { store, by_id }
    }

    /// Drops the rows of `deleted` ids and every superseded row, in place.
    /// Without this the store (and the quota's live count) grew with every
    /// write a namespace had ever seen.
    pub(super) fn sweep(&mut self, deleted: &HashMap<u64, u64>) {
        let Self { store, by_id } = self;
        by_id.retain(|id, _| !deleted.contains_key(id));
        store.retain_rows(|row, id| by_id.get(&id) == Some(&row));
        for (row, id) in store.ids().iter().enumerate() {
            by_id.insert(*id, row);
        }
    }
}

/// The default namespace's parameters, as the engine config states them.
pub(super) fn default_namespace_config(config: &HarmonyConfig) -> NamespaceConfig {
    NamespaceConfig {
        metric: config.metric,
        repr: config.repr,
        rerank_scale: config.rerank_scale,
        nlist: config.nlist,
        pruning: config.pruning,
        seed: config.seed,
        max_vectors: 0,
        auto_tier: false,
        plan_override: config.plan_override,
    }
}

/// Output of [`place_namespace`]: the assembled state, epoch 0 cut but
/// not yet shipped (the caller owns the transport: [`ship_epoch`]).
pub(super) struct PreparedNamespace {
    pub(super) state: NamespaceState,
    /// Train, Add and the plan choice; Pre-assign is the caller's to time.
    pub(super) stats: BuildStats,
    /// The model that priced the candidates: the engine's, with this
    /// namespace's scan rates and sampled survivors.
    pub(super) model: CostModel,
}

/// Cuts `rows` of `store` to `range` as list `cluster` of a grid block.
/// Under SQ8 only codes travel and reside, one segment per list; the norm
/// tables stay exact (computed from the original slices, before
/// quantization).
pub(crate) fn cut_list(
    store: &VectorStore,
    cluster: u32,
    rows: impl ExactSizeIterator<Item = usize>,
    range: DimRange,
    is_ip: bool,
    sq8: bool,
) -> ClusterBlock {
    let mut cut = ClusterBlock {
        cluster,
        ids: Vec::with_capacity(rows.len()),
        flat: Vec::with_capacity(rows.len() * range.len()),
        segs: Vec::new(),
        block_norms_sq: Vec::new(),
        total_norms_sq: Vec::new(),
    };
    for row in rows {
        cut.ids.push(store.id(row));
        let slice = store.row_range(row, range);
        cut.flat.extend_from_slice(slice);
        if is_ip {
            cut.block_norms_sq.push(ip(slice, slice));
            let full = store.row(row);
            cut.total_norms_sq.push(ip(full, full));
        }
    }
    if sq8 && !cut.flat.is_empty() {
        let flat = std::mem::take(&mut cut.flat);
        cut.segs = vec![Sq8Segment::quantize(&flat, range.len(), range.start as u64)];
    }
    cut
}

/// What lists of these sizes weigh in a packing (an empty list still
/// costs its visit).
pub(super) fn list_weights(list_sizes: &[usize]) -> Vec<u64> {
    list_sizes.iter().map(|&s| s as u64 + 1).collect()
}

/// A fresh packing of lists (weighted by size) into `shards`: load-aware
/// LPT, or round-robin with `balanced_load` off.
pub(super) fn pack_shards(
    balanced_load: bool,
    list_sizes: &[usize],
    shards: usize,
) -> ShardAssignment {
    let weights = list_weights(list_sizes);
    if balanced_load {
        ShardAssignment::balanced(&weights, shards)
    } else {
        ShardAssignment::round_robin(&weights, shards)
    }
}

/// A namespace trained and measured but not yet placed: the outcome of
/// Train and Add, the exact client-side copy with its prewarm samples, and
/// what the plan choice measures on the namespace's own rows.
pub(super) struct SurveyedNamespace {
    centroids: VectorStore,
    base_store: BaseStore,
    members: Vec<Vec<u64>>,
    prewarm: PrewarmSamples,
    prewarm_seed: u64,
    /// The workload the plan choice prices.
    profile: WorkloadProfile,
    /// Scan rates measured on (or handed down for) these lists.
    pub(super) rates: ScanRates,
    /// Survivors per hop of every candidate plan.
    survivors: Survivors,
    train: Duration,
    add: Duration,
}

/// Every plan `machines` can run over `dim` dimensions, each under the
/// packing a fresh placement gives it.
fn candidate_plans(
    config: &HarmonyConfig,
    list_sizes: &[usize],
    dim: usize,
) -> Vec<(PartitionPlan, ShardAssignment)> {
    let packed = |p: PartitionPlan| pack_shards(config.balanced_load, list_sizes, p.vec_shards);
    let plans = PartitionPlan::enumerate(config.n_machines).into_iter();
    plans
        .filter(|p| p.dim_blocks <= dim)
        .map(|p| (p, packed(p)))
        .collect()
}

/// Runs Train and Add for one namespace over `base` and takes the plan
/// choice's measurements — everything that needs no fabric. `rates` are
/// scan rates already measured on a namespace of this one's shape, if any;
/// otherwise this namespace measures its own.
pub(super) fn survey_namespace(
    config: &HarmonyConfig,
    params: &NamespaceConfig,
    base: &VectorStore,
    rates: Option<&ScanRates>,
) -> Result<SurveyedNamespace, CoreError> {
    if base.is_empty() {
        return Err(CoreError::Config("base vectors must be non-empty".into()));
    }
    let dim = base.dim();
    let sq8 = matches!(params.repr, BlockRepr::Sq8);
    // A plan may scan the full width on one machine, and the u8 kernels'
    // sums are exact only up to `U8_MAX_WIDTH` codes.
    if sq8 && dim > U8_MAX_WIDTH {
        return Err(CoreError::Config(format!(
            "an SQ8 namespace holds at most {U8_MAX_WIDTH} dimensions, not {dim}"
        )));
    }
    let nlist = params.nlist.min(base.len());

    // --- Train ---------------------------------------------------
    let t0 = Instant::now();
    let fit = KMeans::fit(
        base,
        &KMeansConfig {
            k: nlist,
            seed: params.seed,
            ..KMeansConfig::default()
        },
    )?;
    let train = t0.elapsed();

    // --- Add -----------------------------------------------------
    let t0 = Instant::now();
    let assignments = fit.assign();
    let mut list_rows: Vec<Vec<usize>> = vec![Vec::new(); nlist];
    for (row, &c) in assignments.iter().enumerate() {
        list_rows[c as usize].push(row);
    }
    let list_sizes: Vec<usize> = list_rows.iter().map(Vec::len).collect();
    let add = t0.elapsed();
    let rate_budget = planner::rate_budget(fit.nominal_point_dims());
    let km = fit.model;

    // Exact client-side copy of the base: compaction recuts IVF lists
    // from it, and under SQ8 it doubles as the re-rank store.
    let base_store = BaseStore::over(base.clone());
    let members: Vec<Vec<u64>> = list_rows
        .iter()
        .map(|rows| rows.iter().map(|&r| base.id(r)).collect())
        .collect();
    let prewarm_seed = params.seed ^ 0x9E37_79B9_7F4A_7C15;
    let prewarm = PrewarmSamples::cut(PREWARM_PER_LIST, prewarm_seed, &members, &base_store, None)?;

    // --- What the plan choice measures ------------------------------
    // The build knows nothing of the queries to come, so it prices the ones
    // the API issues by default — `SearchOptions::new`'s probe count, one
    // full in-flight window per batch — spread evenly over the lists. What
    // it can know it measures: the scan's rates on these lists (within a
    // budget sized by Train's nominal work, never by its clock), and how
    // many candidates survive into each hop of every candidate pipeline.
    let mut profile = WorkloadProfile::uniform(list_sizes, dim, config.max_inflight, 1);
    let asked = SearchOptions::new(profile.k);
    profile.nprobe = asked.nprobe.min(nlist);
    let plans = candidate_plans(config, &profile.list_sizes, dim);
    let pipelines: Vec<usize> = plans.iter().map(|(p, _)| p.dim_blocks).collect();
    let view = SampleView {
        metric: params.metric,
        sq8,
        pruning: params.pruning,
        k: asked.k,
        stage1_k: effective_k(sq8, params.rerank_scale, asked.k),
        centroids: &km.centroids,
        store: base,
        lists: &list_rows,
        prewarm: &prewarm,
    };
    let measure =
        || planner::measure_scan_rates(&view, profile.nprobe, &pipelines, params.seed, rate_budget);
    let rates = rates.cloned().or_else(measure);
    let picks = planner::even_picks(&view, params.seed);
    let survivors = planner::sample_survivors(&view, &picks, profile.nprobe, &plans);
    Ok(SurveyedNamespace {
        centroids: km.centroids,
        base_store,
        members,
        prewarm,
        prewarm_seed,
        profile,
        // A namespace too empty to time keeps the assumed rates.
        rates: rates.unwrap_or_else(|| CostModel::new(config.net, config.alpha).rates),
        survivors,
        train,
        add,
    })
}

/// Chooses the plan of a surveyed namespace and cuts its epoch 0,
/// producing its state. `model` carries what is measured once per engine —
/// the fabric's message cost — and the knobs of the choice; the
/// namespace's own rates and survivors complete it.
pub(super) fn place_namespace(
    ns: u16,
    config: &HarmonyConfig,
    params: &NamespaceConfig,
    mode: EngineMode,
    survey: SurveyedNamespace,
    model: &CostModel,
) -> Result<PreparedNamespace, CoreError> {
    let dim = survey.base_store.store.dim();
    let metric = params.metric;
    let nlist = survey.centroids.len();
    let sq8 = matches!(params.repr, BlockRepr::Sq8);

    // --- Plan selection -------------------------------------------
    let scoring = model
        .clone()
        .with_rates(survey.rates)
        .with_survivors(survey.survivors);
    let candidates = scoring.estimates(config.n_machines, &survey.profile);
    let (plan, plan_cost) = match (params.plan_override, mode) {
        (Some(plan), _) => (plan, None),
        (None, EngineMode::HarmonyVector) => (PartitionPlan::pure_vector(config.n_machines), None),
        (None, EngineMode::HarmonyDimension) => {
            let blocks = config.n_machines.min(dim);
            (PartitionPlan::pure_dimension(blocks), None)
        }
        (None, EngineMode::Harmony) => {
            let chosen = scoring
                .pick(&candidates)
                .ok_or_else(|| CoreError::Config("no partition plan fits".into()))?;
            (candidates[chosen].plan, Some(candidates[chosen].cost))
        }
    };

    // A plan with more blocks than dimensions ends here.
    let lists = EpochLists {
        members: survey.members,
        prewarm: survey.prewarm,
    };
    let sizes = &survey.profile.list_sizes;
    let assignment = pack_shards(config.balanced_load, sizes, plan.vec_shards);
    let routing = RoutingEpoch::new(0, plan, assignment, dim, lists, &scoring)?;

    let state = NamespaceState {
        ns,
        metric,
        dim,
        sq8,
        pruning: params.pruning,
        rerank_scale: params.rerank_scale,
        max_vectors: params.max_vectors,
        auto_tier: params.auto_tier,
        centroids: survey.centroids,
        prewarm_seed: survey.prewarm_seed,
        base: RwLock::new(survey.base_store),
        writes: WriteSide::new(routing),
        probes: ProbeTracker::new(nlist),
        supervision: Supervision::new(nlist, &config.replan, scoring.clone()),
        temperature: AtomicU8::new(Temperature::Hot.encode()),
        arrivals: AtomicU64::new(0),
    };
    let stats = BuildStats {
        train: survey.train,
        add: survey.add,
        preassign: Duration::ZERO,
        plan,
        plan_cost,
        candidates,
        bytes_shipped: 0,
    };
    Ok(PreparedNamespace {
        state,
        stats,
        model: scoring,
    })
}

/// Poll granularity of the background compactor thread: the thread sleeps
/// in short slices so shutdown stays responsive even with long intervals.
const COMPACTOR_POLL: Duration = Duration::from_millis(20);

/// EWMA smoothing of per-namespace access rates (the auto-tier signal).
const TIER_EWMA_ALPHA: f64 = 0.5;

/// Smoothed queries-per-sweep at or above which an auto-tiered namespace
/// is (kept) hot.
const TIER_HOT_RATE: f64 = 1.0;

/// Smoothed queries-per-sweep below which an auto-tiered namespace goes
/// cold; between the two thresholds it sits warm.
const TIER_COLD_RATE: f64 = 0.05;

/// The background compactor loop: every `interval`, fold due namespaces'
/// unfolded writes and sweep auto-tiered namespaces between temperatures.
/// The access-rate EWMAs are the thread's own: sessions only count
/// arrivals.
pub(super) fn run_compactor(core: Arc<EngineCore>, interval: Duration, stop: Arc<AtomicBool>) {
    let interval = interval.max(Duration::from_millis(1));
    let mut access: HashMap<u16, AccessEwma> = HashMap::new();
    let mut last = Instant::now();
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(COMPACTOR_POLL.min(interval));
        if stop.load(Ordering::Acquire) {
            break;
        }
        if last.elapsed() < interval {
            continue;
        }
        last = Instant::now();
        core.compactor_tick(&mut access);
    }
}

impl EngineCore {
    /// Resolves a namespace id to its state.
    pub(super) fn namespace(&self, ns: u16) -> Result<Arc<NamespaceState>, CoreError> {
        let found = self.namespaces.read().get(&ns).cloned();
        found.ok_or_else(|| CoreError::Config(format!("unknown namespace {ns}")))
    }

    /// Registered namespace ids, ascending (0 is always present).
    pub fn namespace_ids(&self) -> Vec<u16> {
        self.namespaces.read().keys().copied().collect()
    }

    /// Creates a tenant namespace over `base`: trains its own clustering,
    /// picks its own plan with the engine's calibrated cost model, ships
    /// its grid blocks to the shared workers, and registers it hot.
    /// Returns the new namespace id.
    ///
    /// # Errors
    /// Invalid tenant configuration, an over-quota base, clustering or
    /// transport failures. A failed install evicts whatever blocks already
    /// landed; the id is burned, never reused.
    pub fn create_namespace(
        &self,
        cfg: &NamespaceConfig,
        base: &VectorStore,
    ) -> Result<u16, CoreError> {
        cfg.validate(self.config.n_machines)?;
        if cfg.max_vectors > 0 && base.len() > cfg.max_vectors {
            return Err(CoreError::Config(format!(
                "namespace base has {} vectors, exceeding the quota of {}",
                base.len(),
                cfg.max_vectors
            )));
        }
        let shape = (cfg.repr, cfg.metric, base.dim());
        let rates = (shape == self.rates_shape).then_some(&self.model.rates);
        let surveyed = survey_namespace(&self.config, cfg, base, rates)?;
        let ns = self
            .next_ns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_add(1))
            .map_err(|_| CoreError::Config("namespace ids exhausted (u16 overflow)".into()))?;
        let PreparedNamespace { mut state, .. } = place_namespace(
            ns,
            &self.config,
            cfg,
            EngineMode::Harmony,
            surveyed,
            &self.model,
        )?;
        let shipped = {
            let (view, base) = (state.view(), state.base.read());
            let control = self.control.lock();
            ship_epoch(&self.cluster, &control, &state, &view.routing, &base)
        };
        match shipped {
            Ok(bytes) => state.supervision.record_shipment(bytes),
            Err(e) => {
                // Best-effort cleanup of whatever blocks already landed.
                self.abort_epoch(ns, 0);
                return Err(e);
            }
        }
        state.supervision.start_window(self.collect_stats()?);
        self.namespaces.write().insert(ns, Arc::new(state));
        Ok(ns)
    }

    /// Moves a namespace to a storage temperature on every worker: hot
    /// namespaces are fully RAM-resident, warm/cold namespaces spill their
    /// blocks to disk and fault them back through the worker block cache
    /// on demand. Blocks round-trip bit-identically, so results are
    /// unaffected. Returns once every worker acknowledged the transition.
    ///
    /// # Errors
    /// Unknown namespace, transport failures, or an ack timeout.
    pub fn set_namespace_tier(&self, ns: u16, temperature: Temperature) -> Result<(), CoreError> {
        let state = self.namespace(ns)?;
        self.set_tier_state(&state, temperature)
    }

    /// The namespace's current storage temperature.
    ///
    /// # Errors
    /// [`CoreError::Config`] for an unknown namespace.
    pub fn namespace_tier(&self, ns: u16) -> Result<Temperature, CoreError> {
        Ok(self.namespace(ns)?.temperature())
    }

    fn set_tier_state(
        &self,
        state: &NamespaceState,
        temperature: Temperature,
    ) -> Result<(), CoreError> {
        let (machines, ns, tag) = (self.config.n_machines, state.ns, temperature.encode());
        let control = self.control.lock();
        self.broadcast(&ToWorker::SetTier(SetTier {
            ns,
            temperature: tag,
        }))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        let acks = once_per_machine(machines, |msg| *msg == ToClient::TierAck { ns });
        await_acks(&control, deadline, machines, acks)?;
        // Recorded before the channel is released: transitions of one
        // namespace are recorded in the order the workers applied them.
        state.temperature.store(tag, Ordering::Relaxed);
        Ok(())
    }

    /// One pass of the background compactor: fold every namespace whose
    /// unfolded writes crossed `compact_after`, then sweep auto-tiered
    /// namespaces between temperatures by their access-rate EWMA, which
    /// `access` keeps between passes.
    fn compactor_tick(&self, access: &mut HashMap<u16, AccessEwma>) {
        let states: Vec<Arc<NamespaceState>> = self.namespaces.read().values().cloned().collect();
        let after = self.config.compact_after;
        for state in states {
            let (pending, tombstones) = state.unfolded_writes();
            if after > 0 && pending + tombstones >= after {
                // Best-effort: a failed handshake leaves the incumbent
                // epoch in force; the next tick retries.
                let _ = self.compact_namespace(&state);
            }
            if !state.auto_tier {
                continue;
            }
            let ewma = access
                .entry(state.ns)
                .or_insert_with(|| AccessEwma::new(TIER_EWMA_ALPHA));
            ewma.record(state.arrivals.swap(0, Ordering::Relaxed));
            ewma.decay();
            let want = match ewma.rate() {
                rate if rate >= TIER_HOT_RATE => Temperature::Hot,
                rate if rate >= TIER_COLD_RATE => Temperature::Warm,
                _ => Temperature::Cold,
            };
            if want != state.temperature() {
                let _ = self.set_tier_state(&state, want);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;

    #[test]
    fn namespaces_are_isolated_tenants() {
        let data = dataset(1_200, 16);
        let engine = engine_with(EngineMode::Harmony, &data.base);
        let opts = SearchOptions::new(10).with_nprobe(4);
        let baseline: Vec<Vec<Neighbor>> = (0..5)
            .map(|i| engine.search(data.base.row(i), &opts).unwrap().neighbors)
            .collect();

        let tenant = SyntheticSpec::clustered(400, 16, 4)
            .with_seed(99)
            .generate();
        let ns = engine
            .create_namespace(&NamespaceConfig::default().with_nlist(8), &tenant.base)
            .unwrap();
        assert!(ns > 0, "tenant namespaces start above the default");
        assert_eq!(engine.namespace_ids(), vec![0, ns]);

        // Tenant self-queries resolve inside the tenant's own id space.
        for row in [0usize, 100, 399] {
            let got = engine
                .search_ns(ns, tenant.base.row(row), &opts)
                .unwrap()
                .neighbors;
            assert_eq!(
                got.first().map(|n| n.id),
                Some(tenant.base.id(row)),
                "tenant row {row} must find itself in its own namespace"
            );
        }

        // The default namespace is unaffected by the tenant's existence.
        for (i, want) in baseline.iter().enumerate() {
            let got = engine.search(data.base.row(i), &opts).unwrap().neighbors;
            assert_eq!(
                ids(&got),
                ids(want),
                "ns0 results must not change when a tenant is added"
            );
        }

        // Unknown namespaces are a configuration error, not a panic.
        assert!(matches!(
            engine.search_ns(42, data.base.row(0), &opts),
            Err(CoreError::Config(_))
        ));
        engine.shutdown().unwrap();
    }

    #[test]
    fn namespace_tier_roundtrip_is_bit_identical() {
        let data = dataset(1_000, 16);
        let engine = engine_with(EngineMode::Harmony, &data.base);
        let opts = SearchOptions::new(10).with_nprobe(4);
        let hot: Vec<Vec<Neighbor>> = (0..5)
            .map(|i| engine.search(data.base.row(i), &opts).unwrap().neighbors)
            .collect();
        assert_eq!(engine.namespace_tier(0).unwrap(), Temperature::Hot);

        // Demote to cold: blocks spill to disk and fault back on demand.
        engine.set_namespace_tier(0, Temperature::Cold).unwrap();
        assert_eq!(engine.namespace_tier(0).unwrap(), Temperature::Cold);
        let stats = engine.collect_stats().unwrap();
        assert!(
            stats.spilled_block_bytes > 0,
            "cold namespace must have disk-resident blocks"
        );
        for (i, want) in hot.iter().enumerate() {
            let got = engine.search(data.base.row(i), &opts).unwrap().neighbors;
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.id, w.id, "cold results must match hot results");
                assert_eq!(
                    g.score.to_bits(),
                    w.score.to_bits(),
                    "spilled blocks must round-trip bit-identically"
                );
            }
        }

        // Re-promote: everything resident again, still identical.
        engine.set_namespace_tier(0, Temperature::Hot).unwrap();
        let stats = engine.collect_stats().unwrap();
        assert_eq!(stats.spilled_block_bytes, 0, "hot means no spilled blocks");
        assert_eq!(stats.cache_block_bytes, 0, "hot bypasses the block cache");
        for (i, want) in hot.iter().enumerate() {
            let got = engine.search(data.base.row(i), &opts).unwrap().neighbors;
            assert_eq!(ids(&got), ids(want));
        }
        engine.shutdown().unwrap();
    }

    #[test]
    fn background_compactor_folds_pending_deltas() {
        let data = dataset(600, 16);
        let config = HarmonyConfig::builder()
            .n_machines(2)
            .nlist(8)
            .seed(7)
            .compact_after(4)
            .compact_interval_ms(10)
            .build();
        let engine = HarmonyEngine::build(config.unwrap(), &data.base).unwrap();
        for i in 0..5u64 {
            let mut v = data.base.row(i as usize).to_vec();
            v[0] += 0.25;
            engine.upsert(10_000 + i, &v).unwrap();
        }
        // The background thread owns folding: wait for it to fire.
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.pending_deltas() > 0 {
            assert!(
                Instant::now() < deadline,
                "compactor did not fold {} pending deltas in time",
                engine.pending_deltas()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(engine.current_epoch() > 0, "folding publishes a new epoch");
        // The folded rows are still searchable, now from the IVF lists.
        let mut q = data.base.row(0).to_vec();
        q[0] += 0.25;
        let opts = SearchOptions::new(1).with_nprobe(8);
        let got = engine.search(&q, &opts).unwrap().neighbors;
        assert_eq!(got.first().map(|n| n.id), Some(10_000));
        engine.shutdown().unwrap();
    }

    /// Regression: the compactor counted pending upserts only, so a tenant
    /// that only deletes was never folded — its tombstones, dead set and
    /// override set grew without bound.
    #[test]
    fn background_compactor_folds_a_delete_only_namespace() {
        let data = dataset(600, 16);
        let config = HarmonyConfig::builder()
            .n_machines(2)
            .nlist(8)
            .seed(7)
            .compact_after(4)
            .compact_interval_ms(10)
            .build();
        let engine = HarmonyEngine::build(config.unwrap(), &data.base).unwrap();
        for id in 0..5u64 {
            assert!(engine.delete(id).unwrap());
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.tombstone_count() > 0 {
            assert!(
                Instant::now() < deadline,
                "compactor did not fold {} tombstones in time",
                engine.tombstone_count()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(engine.current_epoch() > 0, "folding publishes a new epoch");
        assert_eq!(engine.list_sizes().iter().sum::<usize>(), 595);
        // The deleted rows are gone from the lists, not merely filtered.
        let opts = SearchOptions::new(1).with_nprobe(8);
        let got = engine.search(data.base.row(0), &opts).unwrap().neighbors;
        assert!(got.first().is_some_and(|n| n.id >= 5));
        engine.shutdown().unwrap();
    }

    #[test]
    fn namespace_quota_rejects_over_ingest() {
        let data = dataset(500, 16);
        let engine = engine_with(EngineMode::Harmony, &data.base);
        let tenant = SyntheticSpec::clustered(100, 16, 4).with_seed(5).generate();
        let ns = engine
            .create_namespace(
                &NamespaceConfig::default()
                    .with_nlist(4)
                    .with_max_vectors(100),
                &tenant.base,
            )
            .unwrap();

        // The namespace is full: a new id is rejected...
        assert!(matches!(
            engine.upsert_ns(ns, 5_000, &[0.25; 16]),
            Err(CoreError::Config(_))
        ));
        // ...but replacing a live id never grows the namespace.
        engine.upsert_ns(ns, 3, &[0.25; 16]).unwrap();
        // Deleting frees quota for a new id.
        assert!(engine.delete_ns(ns, 7).unwrap());
        engine.upsert_ns(ns, 5_000, &[0.5; 16]).unwrap();
        // The default namespace has no quota and is unaffected.
        engine.upsert(9_999, &[0.75; 16]).unwrap();

        // A base already over quota is rejected at creation.
        assert!(matches!(
            engine.create_namespace(
                &NamespaceConfig::default()
                    .with_nlist(4)
                    .with_max_vectors(10),
                &tenant.base,
            ),
            Err(CoreError::Config(_))
        ));
        engine.shutdown().unwrap();
    }

    /// The u8 kernels sum in `u32`, exact up to 2¹⁶ codes, and a plan may
    /// scan the full width on one machine: an SQ8 namespace that wide
    /// builds and answers, and one dimension more is a typed error at build
    /// and at creation.
    #[test]
    fn sq8_dims_past_the_u8_kernels_are_a_config_error() {
        let store = |dim: usize| {
            let flat = (0..6 * dim)
                .map(|i| (i * 7919 % 1000) as f32 / 1000.0)
                .collect();
            VectorStore::from_flat(dim, flat).unwrap()
        };
        let config = HarmonyConfig::builder()
            .n_machines(1)
            .nlist(2)
            .seed(7)
            .repr(BlockRepr::Sq8)
            .build()
            .unwrap();
        let widest = store(U8_MAX_WIDTH);
        let engine = HarmonyEngine::build(config.clone(), &widest).unwrap();
        let opts = SearchOptions::new(1).with_nprobe(2);
        let hit = engine.search(widest.row(3), &opts).unwrap().neighbors;
        assert_eq!(hit.first().map(|n| n.id), Some(3));
        let tenant = NamespaceConfig::default()
            .with_nlist(2)
            .with_repr(BlockRepr::Sq8);
        assert!(matches!(
            engine.create_namespace(&tenant, &store(U8_MAX_WIDTH + 1)),
            Err(CoreError::Config(_))
        ));
        engine.shutdown().unwrap();
        assert!(matches!(
            HarmonyEngine::build(config, &store(U8_MAX_WIDTH + 1)),
            Err(CoreError::Config(_))
        ));
    }
}
