//! The Harmony engine: build (Train / Add / Pre-assign) and distributed
//! search with load-aware routing, prewarmed thresholds, pipelined staging
//! and dimension-level pruning.
//!
//! This is the client-side half of the system (Fig. 3): the *fine-grained
//! query planner* (§4.2) lives in [`HarmonyEngine::build`]'s plan selection
//! and in the per-visit dimension-order scheduling; the *flexible pipelined
//! execution engine* (§4.3) is the dispatch loop of
//! [`EngineCore::search_batch`] plus the worker-side relay in
//! [`crate::worker`].
//!
//! # Sub-batches
//!
//! The unit that moves through the dimension pipeline is a **sub-batch**
//! of queries, not a query: a session admits contiguous rows of its batch
//! together, and the rows whose next visit is the same shard travel as one
//! [`ChunkBatch`] per machine, one [`crate::messages::CarryBatch`] per hop
//! and one [`ResultBatch`] back — per-message cost (encode, queue, thread
//! wake, decode) is paid per sub-batch, and the hop order is picked once
//! for all of its rows. A single [`EngineCore::search`] is a sub-batch of
//! one.
//!
//! # Concurrent search sessions
//!
//! The engine multiplexes any number of caller threads over one worker
//! pool. Each [`EngineCore::search_batch`] call opens a *session*: it
//! reserves a contiguous `query_id` range from a shared atomic counter,
//! registers the range in a session table, and drives its own dispatch
//! loop. A dedicated client-side **router thread** owns the cluster's
//! receive path and demultiplexes incoming [`ToClient::ResultBatch`]
//! messages by their first query id to the owning session's channel
//! (control replies such as [`ToClient::Stats`] go to a separate control
//! channel). Sends need only
//! `&self`, so sessions never serialize on one another; the per-machine
//! `outstanding` load estimates that drive §4.3 deferred-dimension
//! scheduling live in a lock-free [`LoadTracker`] shared by all sessions.
//!
//! # Adaptive replanning and routing epochs
//!
//! The partition layout is no longer fixed at build time. Routing state
//! (plan, shard assignment, dimension ranges) lives in an immutable
//! [`RoutingEpoch`] behind an `RwLock<Arc<_>>`; every query captures the
//! Arc at admission and keeps it for all its visits, so a layout switch
//! can land *between* queries but never *inside* one. A **plan
//! supervisor** ([`EngineCore::supervisor_tick`], optionally auto-run
//! every [`crate::config::ReplanConfig::check_every`] queries) folds the
//! live per-cluster probe counters ([`ProbeTracker`]) into an observed
//! [`WorkloadProfile`], re-scores every factorization with the cost model
//! plus a migration-cost term, and — when the projected win amortizes the
//! move — executes a live migration: workers ship [`ListPiece`]s of their
//! grid blocks to the new layout's machines (epoch N+1), destinations ack
//! once assembled, the client swaps the routing Arc, and the old epoch is
//! evicted only after its last in-flight query drains (tracked by the
//! Arc's reference count).
//!
//! # Multi-tenant namespaces and temperature tiering
//!
//! The engine hosts any number of *namespaces* — isolated logical indexes
//! with their own metric, block representation, re-rank scale, quota and
//! routing epochs — multiplexed over the one shared worker pool
//! ([`EngineCore::create_namespace`]). Every wire message carries the
//! namespace id, so worker-side storage is keyed by `(ns, epoch)` and
//! tenants can never observe each other's rows, even with overlapping
//! external ids. Each namespace also has a storage *temperature*
//! ([`Temperature`]): hot namespaces stay fully RAM-resident; warm and
//! cold namespaces spill their grid blocks to length-checked disk files
//! and fault them back through a per-worker byte-budgeted LRU cache on
//! first visit ([`EngineCore::set_namespace_tier`]) — faulted bytes are
//! bit-identical, so results never depend on residency. With
//! [`HarmonyConfig::compact_interval_ms`] set, a background **compactor
//! thread** folds any namespace's pending deltas once they cross
//! `compact_after` and sweeps namespaces that opted into `auto_tier`
//! between temperatures by their access-rate EWMA.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use harmony_cluster::{
    ClientReceiver, Cluster, ClusterConfig, ClusterError, ClusterSnapshot, CommMode, DelayMode,
    NodeId, Wire,
};
use harmony_index::distance::ip;
use harmony_index::kmeans::nearest_centroids;
use harmony_index::{
    AccessEwma, BlockRepr, DimRange, KMeans, KMeansConfig, Metric, Neighbor, Sq8Segment,
    Temperature, TopK, VectorStore,
};
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{EngineMode, HarmonyConfig, NamespaceConfig, SearchOptions};
use crate::cost::{
    sub_batch_rows, weights_from, CostModel, PlanCost, PlanEstimate, ScanRates, Survivors,
    WorkloadProfile,
};
use crate::error::CoreError;
use crate::messages::{
    metric_tag, repr_tag, span, BeginEpoch, ChunkBatch, ClusterBlock, DeleteIds, DeltaUpsert,
    InstallLists, ListPiece, LoadBlock, MigrateOut, ResultBatch, SetTier, ToClient, ToWorker,
    TransferSpec,
};
use crate::partition::{PartitionPlan, ShardAssignment};
use crate::planner::{self, ListRows, SampleView};
use crate::pruning::SliceStats;
use crate::stats::{
    BatchResult, BuildStats, EngineStats, LoadTracker, ProbeEwma, ProbeSnapshot, ProbeTracker,
};
use crate::worker::HarmonyWorker;

/// A built, running Harmony deployment.
///
/// The engine owns a simulated cluster of `n_machines` workers plus one
/// client-side session-router thread (and, with
/// [`HarmonyConfig::compact_interval_ms`] set, a background compactor
/// thread). All search entry points take `&self` and are safe to call from
/// any number of threads concurrently; each call runs as an independent
/// session against the shared worker pool (see the [module docs](self) for
/// the session model). `max_inflight` bounds the in-flight queries *per
/// session*; sub-batch size is derived from it (see
/// [`EngineCore::search_batch`]).
///
/// The engine API lives on [`EngineCore`], reachable through `Deref`: the
/// wrapper only adds thread lifecycle (router + compactor) so the core can
/// be shared with the background threads.
pub struct HarmonyEngine {
    core: Arc<EngineCore>,
    router_stop: Arc<AtomicBool>,
    router: Option<JoinHandle<()>>,
    compactor_stop: Arc<AtomicBool>,
    compactor: Option<JoinHandle<()>>,
}

impl std::ops::Deref for HarmonyEngine {
    type Target = EngineCore;

    fn deref(&self) -> &EngineCore {
        &self.core
    }
}

/// The shared engine state and full public API (search, ingest,
/// namespaces, tiering, replanning). [`HarmonyEngine`] derefs here;
/// background threads hold it as an `Arc`.
pub struct EngineCore {
    config: HarmonyConfig,
    /// Namespace 0's cost model as the build measured it. Tenants start
    /// from it: the fabric's message cost and the knobs of the choice are
    /// engine-wide, the scan rates carry over to tenants of namespace 0's
    /// shape (`rates_shape`), survivors are sampled per namespace.
    model: CostModel,
    /// Representation, metric and dimensionality `model`'s scan rates were
    /// measured on.
    rates_shape: (BlockRepr, Metric, usize),
    /// Tenant registry. Lock order: `namespaces` before any per-namespace
    /// lock; only ever held as a temporary.
    namespaces: RwLock<BTreeMap<u16, Arc<NamespaceState>>>,
    /// Next namespace id to hand out (0 is the default namespace).
    next_ns: Mutex<u16>,
    /// The default namespace (always registered; kept separately so
    /// borrowing accessors like [`EngineCore::centroids`] can return
    /// references without going through the registry lock).
    ns0: Arc<NamespaceState>,
    build_stats: BuildStats,
    shared: Arc<EngineShared>,
    sessions: Arc<SessionTable>,
    /// Control-plane replies (acks, stats) demultiplexed by the router.
    /// Locking the receiver serializes concurrent stats collectors.
    control: Mutex<Receiver<(NodeId, ToClient)>>,
}

/// One tenant's complete logical index: clustering, routing epochs,
/// ingest state, probe counters, supervisor and storage temperature.
/// Everything a query touches after namespace resolution lives here.
pub struct NamespaceState {
    /// Wire id of this namespace.
    ns: u16,
    metric: Metric,
    dim: usize,
    /// Whether blocks are SQ8-quantized (two-stage search with re-rank).
    sq8: bool,
    pruning: bool,
    rerank_scale: usize,
    /// Live-vector quota (0 = unlimited).
    max_vectors: usize,
    /// Whether the background sweep may retemper this namespace.
    auto_tier: bool,
    centroids: VectorStore,
    /// Current list sizes per cluster; rewritten by compaction.
    list_sizes: RwLock<Vec<usize>>,
    /// Prewarm samples cut per list (at build and again by every
    /// compaction) and the seed their picks derive from.
    prewarm_per_list: usize,
    prewarm_seed: u64,
    /// Exact full-dimension copy of every live vector, `by_id` pointing at
    /// the newest row per external id. Source of truth for compaction
    /// (lists are recut from it) and, under SQ8, for the exact re-rank
    /// stage.
    base: RwLock<BaseStore>,
    /// Mutable-shard ingest bookkeeping (upserts, deletes, compaction).
    ingest: Mutex<IngestState>,
    /// Ingest watermark visible to searches: queries admitted with
    /// watermark `w` scan exactly the delta rows with `seq < w`. Advanced
    /// only *after* an ingest op's sends complete, so FIFO transport
    /// ordering guarantees every selected row precedes the query's chunks.
    published_seq: AtomicU64,
    /// Lock-free snapshot of the ingest state consulted on the search path
    /// (dead-set filtering, forced delta visits, prewarm overrides).
    ingest_snap: RwLock<Arc<IngestSnapshot>>,
    /// The routing generation this namespace's queries are admitted under.
    routing: RwLock<Arc<RoutingEpoch>>,
    /// Observed per-cluster probe counters (the supervisor's input).
    probes: ProbeTracker,
    /// Serializes replanning ticks, migrations and compactions.
    supervisor: Mutex<SupervisorState>,
    /// Storage temperature plus the access EWMA driving auto-tier sweeps.
    tier: Mutex<TierState>,
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
    fn effective_k(&self, k: usize) -> usize {
        effective_k(self.sq8, self.rerank_scale, k)
    }
}

/// Client-side temperature record of one namespace.
struct TierState {
    temperature: Temperature,
    /// EWMA of per-sweep query arrivals (the auto-tier signal).
    access: AccessEwma,
}

/// One immutable generation of routing state. Queries capture the Arc at
/// admission; the engine swaps the shared Arc on a plan switch.
#[derive(Debug)]
pub struct RoutingEpoch {
    /// Monotonic epoch counter (the build is epoch 0).
    pub epoch: u64,
    /// The partition plan in force.
    pub plan: PartitionPlan,
    /// Cluster → shard mapping in force.
    pub assignment: ShardAssignment,
    /// Dimension ranges of the plan's blocks.
    dim_ranges: Vec<DimRange>,
    /// Clusters owned by each shard.
    shard_clusters: Vec<Vec<u32>>,
    /// Threshold-prewarm samples cut from the lists this epoch serves.
    /// They ride the epoch because a compaction rewrites the lists: the
    /// epoch it publishes carries samples of the compacted rows, so the
    /// ids overridden before it need no remembering. Migrations move lists
    /// without changing them and share the incumbent's samples.
    prewarm: Arc<PrewarmSamples>,
    /// Expected share of a visit's candidates that enters each pipeline
    /// position, as the namespace's cost model holds it when the epoch is
    /// cut (1 everywhere with pruning off) — what the load estimates
    /// behind the §4.3 hop order discount later positions by.
    survivors: Vec<f64>,
}

impl RoutingEpoch {
    fn new(
        epoch: u64,
        plan: PartitionPlan,
        assignment: ShardAssignment,
        dim: usize,
        prewarm: Arc<PrewarmSamples>,
        model: &CostModel,
    ) -> Result<Self, CoreError> {
        let dim_ranges = plan.dim_ranges(dim)?;
        let shard_clusters = (0..plan.vec_shards)
            .map(|s| assignment.clusters_of(s))
            .collect();
        Ok(Self {
            epoch,
            plan,
            assignment,
            dim_ranges,
            shard_clusters,
            prewarm,
            survivors: model.survivors_entering(plan),
        })
    }
}

/// Full-dimension samples of every list, kept client-side to seed each
/// query's pruning threshold (Algorithm 1, lines 1-5).
#[derive(Debug)]
pub(crate) struct PrewarmSamples {
    store: VectorStore,
    /// Rows of `store` per cluster.
    rows: Vec<Vec<usize>>,
}

impl PrewarmSamples {
    /// Seeds a query's heap from the samples of its probed lists
    /// (Algorithm 1 lines 1-5), nearest probe first, skipping ids written
    /// since the samples were cut (`overridden`: stale or dead). The budget
    /// is capped so prewarming stays a cheap threshold seed. Returns the
    /// ids it pushed.
    pub(crate) fn seed(
        &self,
        metric: Metric,
        query: &[f32],
        probes: &[u32],
        k: usize,
        overridden: &HashSet<u64>,
        topk: &mut TopK,
    ) -> HashSet<u64> {
        let mut seeded = HashSet::new();
        let budget = (4 * k).max(16);
        for &c in probes {
            for &sample_row in &self.rows[c as usize] {
                if seeded.len() >= budget {
                    return seeded;
                }
                let id = self.store.id(sample_row);
                if overridden.contains(&id) {
                    continue;
                }
                if seeded.insert(id) {
                    topk.push(id, metric.score(query, self.store.row(sample_row)));
                }
            }
        }
        seeded
    }

    /// Cuts `per_list` samples (or the whole list, if shorter) from every
    /// list, vectors read from the exact client-side copy. Samples of
    /// `prior` whose id was not written since stay, in place — a recut
    /// only replaces what went stale, so thresholds (and, for ids the
    /// prewarm heap contributes, result bits) do not jump across a
    /// compaction. Open places are filled from a seeded start, walking the
    /// list's members in order.
    pub(crate) fn cut(
        per_list: usize,
        seed: u64,
        members: &[Vec<u64>],
        base: &BaseStore,
        prior: Option<(&PrewarmSamples, &HashSet<u64>)>,
    ) -> Result<Self, CoreError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut store = VectorStore::new(base.store.dim());
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
        let mut picked: Vec<u64> = Vec::with_capacity(per_list);
        for (c, ids) in members.iter().enumerate() {
            let want = per_list.min(ids.len());
            picked.clear();
            if let Some((prior, overridden)) = prior {
                let kept = prior.rows[c].iter().map(|&r| prior.store.id(r));
                picked.extend(kept.filter(|id| !overridden.contains(id)).take(want));
            }
            let start = rng.random_range(0..ids.len().max(1));
            for j in 0..ids.len() {
                if picked.len() >= want {
                    break;
                }
                let id = ids[(start + j) % ids.len()];
                if !picked.contains(&id) {
                    picked.push(id);
                }
            }
            for &id in &picked {
                let row = *base.by_id.get(&id).ok_or_else(|| {
                    CoreError::Runtime(format!("list member {id} missing from the base store"))
                })?;
                rows[c].push(store.len());
                store
                    .push(id, base.store.row(row))
                    .map_err(CoreError::Index)?;
            }
        }
        Ok(Self { store, rows })
    }
}

/// State shared between caller threads: the send half of the cluster and
/// the cross-session counters.
struct EngineShared {
    cluster: Cluster,
    next_query_id: AtomicU64,
    /// Client-side estimate of outstanding work per machine, driving the
    /// deferred-dimension scheduling of §4.3 "Load Balancing Strategies".
    outstanding: LoadTracker,
}

/// Supervisor bookkeeping of one namespace, serialized under one mutex.
struct SupervisorState {
    /// Probe snapshot at the start of the current observation window.
    window_start: ProbeSnapshot,
    /// EWMA-smoothed probe windows (the supervisor's drift-aware view of
    /// the workload; see [`ReplanConfig::ewma_alpha`](crate::ReplanConfig)).
    ewma: ProbeEwma,
    /// Query count at which the next auto-check fires.
    next_check: u64,
    /// Next epoch number to hand out. Advances on every migration
    /// *attempt*, successful or not: a failed handshake must never reuse
    /// its epoch number, or stale acks/pieces from the aborted attempt
    /// could corrupt the retry.
    next_epoch: u64,
    /// Retired routing epochs still referenced by in-flight queries. Once
    /// only this list holds an Arc (`strong_count == 1`), the epoch's
    /// storage is evicted from the workers.
    retired: Vec<Arc<RoutingEpoch>>,
    /// The namespace's cost model: scan rates and survivors per hop start
    /// from the build's measurements and follow what each observation
    /// window of worker counters shows.
    tuned: CostModel,
    /// Worker statistics as of the previous tick — the counters are
    /// cumulative, a window is the difference of two collections.
    last_stats: EngineStats,
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

/// Accounting of one executed live migration.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Epoch the cluster left.
    pub from_epoch: u64,
    /// Epoch now in force.
    pub to_epoch: u64,
    /// Plan before the switch.
    pub from_plan: PartitionPlan,
    /// Plan after the switch.
    pub to_plan: PartitionPlan,
    /// Clusters whose shard changed.
    pub clusters_moved: usize,
    /// Point-to-point transfers that crossed the fabric (self-transfers
    /// install locally and are excluded).
    pub network_pieces: u64,
    /// Modeled payload bytes shipped across the fabric.
    pub modeled_bytes: u64,
    /// Modeled one-time migration time, ns.
    pub migration_ns: f64,
    /// Modeled cost of staying, ns (0 for forced migrations).
    pub stay_ns: f64,
    /// Modeled steady-state cost of the new layout, ns (0 for forced
    /// migrations).
    pub projected_ns: f64,
    /// What the deciding tick priced (see [`ReplanOutcome::Hold`]; empty
    /// for forced migrations).
    pub candidates: Vec<PlanEstimate>,
}

/// Registered sessions, keyed by the base of their reserved query-id range.
#[derive(Default)]
struct SessionTable {
    inner: Mutex<SessionTableState>,
}

#[derive(Default)]
struct SessionTableState {
    /// Set when the router is gone: no result can ever be routed again.
    closed: bool,
    ranges: BTreeMap<u64, SessionEntry>,
}

struct SessionEntry {
    /// One past the last query id of the session's range.
    end: u64,
    tx: Sender<ResultBatch>,
}

impl SessionTable {
    /// Registers a session owning `[base, base + count)` and returns its
    /// result channel. Must happen before the session dispatches anything.
    /// On a closed table the sender is dropped immediately, so the session
    /// observes a disconnect instead of waiting out its deadline.
    fn register(&self, base: u64, count: u64) -> Receiver<ResultBatch> {
        let (tx, rx) = unbounded();
        let mut inner = self.inner.lock();
        if !inner.closed {
            inner.ranges.insert(
                base,
                SessionEntry {
                    end: base + count,
                    tx,
                },
            );
        }
        rx
    }

    fn unregister(&self, base: u64) {
        self.inner.lock().ranges.remove(&base);
    }

    /// Routes one sub-batch's results to the session owning its first
    /// query id (a sub-batch never spans sessions); results for departed
    /// sessions (timed out, dropped) are discarded.
    fn route(&self, result: ResultBatch) {
        let Some(&first) = result.query_ids.first() else {
            return;
        };
        let mut inner = self.inner.lock();
        let Some((&base, entry)) = inner.ranges.range(..=first).next_back() else {
            return;
        };
        if first >= entry.end {
            return;
        }
        if entry.tx.send(result).is_err() {
            inner.ranges.remove(&base);
        }
    }

    /// Drops every session sender and refuses new registrations: blocked
    /// and future sessions see a disconnect right away. Called by the
    /// router on exit (cluster death or engine shutdown).
    fn close(&self) {
        let mut inner = self.inner.lock();
        inner.closed = true;
        inner.ranges.clear();
    }
}

/// RAII registration of one `search_batch` session.
struct Session<'a> {
    table: &'a SessionTable,
    base: u64,
    rx: Receiver<ResultBatch>,
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.table.unregister(self.base);
    }
}

/// How often the router re-checks its stop flag while the cluster is idle.
const ROUTER_TICK: Duration = Duration::from_millis(25);

/// Deadline for a migration's announce → ship → ack handshake. Generous:
/// migrations move whole grid blocks over the modeled fabric while query
/// traffic shares the worker mailboxes. On expiry the epoch is aborted
/// (evicted everywhere) and the incumbent layout stays in force.
const MIGRATION_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(120);

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

/// Monotonic engine counter keeping the spill directories of multiple
/// engines in one process disjoint.
static ENGINE_SEQ: AtomicUsize = AtomicUsize::new(0);

/// The client-side router loop: drains the cluster's receive path and
/// demultiplexes results to sessions, everything else to the control
/// channel. Exits on the stop flag or once the cluster is gone.
///
/// Receiver-side injected delays (`DelayMode::Sleep` + non-blocking
/// transport) are paid here, serially — the client is modeled as one node,
/// and one NIC drains its transfers one at a time, exactly as the previous
/// single-threaded client did.
fn run_router(
    mut rx: ClientReceiver,
    sessions: Arc<SessionTable>,
    control_tx: Sender<(NodeId, ToClient)>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Acquire) {
        match rx.recv_timeout(ROUTER_TICK) {
            Ok((from, payload)) => match ToClient::from_bytes(payload) {
                Ok(ToClient::ResultBatch(batch)) => sessions.route(batch),
                // The single-query form is a one-row batch.
                Ok(ToClient::Result(result)) => sessions.route(result.into()),
                Ok(other) => {
                    let _ = control_tx.send((from, other));
                }
                Err(_) => debug_assert!(false, "malformed client-bound message"),
            },
            Err(ClusterError::Timeout) => continue,
            // Every sending endpoint is gone: nothing can arrive anymore.
            Err(_) => break,
        }
    }
    // Whatever ended the loop, no result can be routed anymore: fail
    // blocked and future sessions fast instead of letting them wait out
    // their deadlines.
    sessions.close();
}

/// The background compactor loop: every `interval`, fold due namespaces'
/// pending deltas and sweep auto-tiered namespaces between temperatures.
fn run_compactor(core: Arc<EngineCore>, interval: Duration, stop: Arc<AtomicBool>) {
    let interval = interval.max(Duration::from_millis(1));
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
        core.compactor_tick();
    }
}

/// Per-query dispatch state held by the session loop.
struct QueryState {
    topk: TopK,
    /// Ids already inserted by prewarm (skip on merge to avoid duplicates).
    prewarm_ids: HashSet<u64>,
    /// Shard visits not yet dispatched: `(shard, probed clusters)`, nearest
    /// shard last so `pop()` yields it; clusters ascending — the canonical
    /// enumeration order on the workers.
    pending_visits: Vec<(u32, Vec<u32>)>,
    /// Visits currently in flight.
    in_flight: usize,
    admission: Arc<Admission>,
}

/// What the rows of one admitted sub-batch share for their whole lifetime
/// — and therefore what every message built from them states once, in its
/// header.
struct Admission {
    /// Routing generation captured at admission: every visit of these
    /// queries executes against this layout, even if the engine switches
    /// mid-query.
    routing: Arc<RoutingEpoch>,
    /// Ingest watermark captured at admission, stamped on every chunk so
    /// all machines of a shard row scan the identical prefix of delta rows.
    delta_seq: u64,
    /// Position of the sub-batch in its batch; rotates the hop order when
    /// load balancing is off.
    ordinal: usize,
}

/// Per-machine load estimates charged for the in-flight shard visits of a
/// session, keyed like the visits themselves by `(first query id, shard)`
/// so the completing [`ResultBatch`] discharges exactly the machines it
/// charged.
type Charges = HashMap<(u64, u32), Vec<(NodeId, f64)>>;

/// The shared inputs of one batch session's dispatch loop.
struct BatchCtx<'a> {
    state: &'a Arc<NamespaceState>,
    queries: &'a VectorStore,
    opts: &'a SearchOptions,
    /// First query id of the session: query `base + row` is batch row `row`.
    base: u64,
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
    fn sweep(&mut self, deleted: &HashMap<u64, u64>) {
        let Self { store, by_id } = self;
        by_id.retain(|id, _| !deleted.contains_key(id));
        store.retain_rows(|row, id| by_id.get(&id) == Some(&row));
        for (row, id) in store.ids().iter().enumerate() {
            by_id.insert(*id, row);
        }
    }
}

/// The lists of a live namespace as the planner's samplers read them:
/// member ids resolved through the exact copy's id map.
struct LiveLists<'a> {
    members: &'a [Vec<u64>],
    by_id: &'a HashMap<u64, usize>,
}

impl ListRows for LiveLists<'_> {
    fn len(&self, c: u32) -> usize {
        self.members[c as usize].len()
    }
    fn row(&self, c: u32, i: usize) -> Option<usize> {
        let id = self.members[c as usize].get(i)?;
        self.by_id.get(id).copied()
    }
}

/// Runs `sample` over the planner's view of a namespace as it stands, for
/// queries asking for `k` results.
fn with_sample_view<R>(
    state: &NamespaceState,
    k: usize,
    sample: impl FnOnce(&SampleView<'_>) -> R,
) -> R {
    let ing = state.ingest.lock();
    let base = state.base.read();
    let routing = Arc::clone(&state.routing.read());
    let lists = LiveLists {
        members: &ing.members,
        by_id: &base.by_id,
    };
    sample(&SampleView {
        metric: state.metric,
        sq8: state.sq8,
        pruning: state.pruning,
        k,
        stage1_k: state.effective_k(k),
        centroids: &state.centroids,
        store: &base.store,
        lists: &lists,
        prewarm: &routing.prewarm,
    })
}

/// One not-yet-compacted upsert (client-side record of a delta row).
struct PendingDelta {
    id: u64,
    /// Home cluster chosen at upsert time (nearest centroid).
    cluster: u32,
    seq: u64,
}

/// Client-side ingest bookkeeping, serialized under one mutex.
struct IngestState {
    /// Next ingest sequence number to assign (starts at 1; 0 means "no
    /// ingest has ever happened" on the wire).
    next_seq: u64,
    /// Upserts not yet folded into IVF lists, in sequence order.
    pending: Vec<PendingDelta>,
    /// Every live tombstone: id → newest delete sequence. Covers both
    /// user deletes and the supersede-tombstones written by re-upserts.
    /// Cleared by compaction (the recut lists contain no stale copies).
    tombstones: HashMap<u64, u64>,
    /// Ids deleted and not re-upserted since: the authoritative dead-set
    /// filtered out of every result. Subset of `tombstones`. Shared
    /// copy-on-write with the published [`IngestSnapshot`]: an ingest op
    /// clones only the set it changes.
    deleted: Arc<HashMap<u64, u64>>,
    /// Member ids per cluster of the currently installed lists; rewritten
    /// by compaction. Mirrors what the workers hold.
    members: Vec<Vec<u64>>,
    /// Ids upserted or deleted since the current lists were cut. The
    /// epoch's prewarm samples of these ids may be stale or dead and are
    /// skipped; a compaction recuts the samples and empties the set.
    /// Copy-on-write like `deleted`.
    overridden: Arc<HashSet<u64>>,
}

/// Immutable ingest snapshot read lock-free-ish on the search path.
#[derive(Default)]
struct IngestSnapshot {
    /// Ids deleted and not re-upserted since (id → delete seq).
    deleted: Arc<HashMap<u64, u64>>,
    /// Clusters with pending delta rows (drives forced shard visits).
    pending_clusters: HashSet<u32>,
    /// Ids whose prewarm samples must be skipped (written since the last
    /// compaction).
    overridden: Arc<HashSet<u64>>,
}

/// Accounting of one executed compaction.
#[derive(Debug, Clone)]
pub struct CompactionReport {
    /// Epoch the compacted lists were installed under (unchanged when the
    /// compaction was a no-op).
    pub epoch: u64,
    /// Delta rows folded into their home IVF lists.
    pub folded_rows: usize,
    /// Tombstoned ids dropped from the lists.
    pub dropped_tombstones: usize,
    /// `true` when nothing was pending and no epoch was published.
    pub noop: bool,
}

/// Build-time parameters of one namespace: the default namespace takes
/// them from the engine config, tenants from a [`NamespaceConfig`].
struct NsParams {
    metric: Metric,
    repr: BlockRepr,
    rerank_scale: usize,
    nlist: usize,
    pruning: bool,
    seed: u64,
    prewarm: usize,
    max_vectors: usize,
    auto_tier: bool,
    plan_override: Option<PartitionPlan>,
    mode: EngineMode,
}

/// Output of [`place_namespace`]: the assembled state plus the grid
/// blocks to ship (the caller owns the transport).
struct PreparedNamespace {
    state: NamespaceState,
    /// `(machine, block)` pairs in send order.
    loads: Vec<(usize, LoadBlock)>,
    plan_cost: Option<PlanCost>,
    /// Every candidate plan as the namespace's model priced it.
    candidates: Vec<PlanEstimate>,
    /// The model that priced them: the engine's, with this namespace's
    /// scan rates and sampled survivors.
    model: CostModel,
    train: Duration,
    add: Duration,
}

/// One inverted list cut to one dimension range: the payload a
/// [`ClusterBlock`] (build) and a [`ListPiece`] (compaction) both carry.
pub(crate) struct ListCut {
    ids: Vec<u64>,
    /// Row-major coordinates over the range (empty under SQ8).
    flat: Vec<f32>,
    /// The same rows quantized as one segment (SQ8 only).
    segs: Vec<Sq8Segment>,
    /// Per-row squared norm over the range and over the full vector
    /// (inner-product metrics only; empty under L2).
    range_norms_sq: Vec<f32>,
    total_norms_sq: Vec<f32>,
}

impl ListCut {
    /// The cut as the list of a [`LoadBlock`].
    pub(crate) fn into_block(self, cluster: u32) -> ClusterBlock {
        ClusterBlock {
            cluster,
            ids: self.ids,
            flat: self.flat,
            segs: self.segs,
            block_norms_sq: self.range_norms_sq,
            total_norms_sq: self.total_norms_sq,
        }
    }
}

/// Cuts `rows` of `store` to `range`. Under SQ8 only codes travel and
/// reside; the norm tables stay exact (computed from the original slices,
/// before quantization).
pub(crate) fn cut_list(
    store: &VectorStore,
    rows: impl ExactSizeIterator<Item = usize>,
    range: DimRange,
    is_ip: bool,
    sq8: bool,
) -> ListCut {
    let mut cut = ListCut {
        ids: Vec::with_capacity(rows.len()),
        flat: Vec::with_capacity(rows.len() * range.len()),
        segs: Vec::new(),
        range_norms_sq: Vec::new(),
        total_norms_sq: Vec::new(),
    };
    for row in rows {
        cut.ids.push(store.id(row));
        let slice = store.row_range(row, range);
        cut.flat.extend_from_slice(slice);
        if is_ip {
            cut.range_norms_sq.push(ip(slice, slice));
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

/// Drains the control channel until `accept` has taken `expected`
/// acknowledgments or `deadline` passes — one deadline for the whole
/// handshake, however many replies it takes. `accept(from, msg)` says
/// whether a message is a new ack of the awaited operation; anything else
/// (stats replies and acks of earlier, timed-out operations) is skipped.
fn await_acks(
    control: &Receiver<(NodeId, ToClient)>,
    deadline: Instant,
    expected: usize,
    mut accept: impl FnMut(NodeId, ToClient) -> bool,
) -> Result<(), CoreError> {
    let mut accepted = 0;
    while accepted < expected {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match control.recv_timeout(remaining) {
            Ok((from, msg)) => accepted += usize::from(accept(from, msg)),
            Err(RecvTimeoutError::Timeout) => {
                return Err(CoreError::Cluster(ClusterError::Timeout))
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(CoreError::Cluster(ClusterError::ShutDown))
            }
        }
    }
    Ok(())
}

/// The `accept` of a handshake every machine answers once: takes a matching
/// reply from each of `machines` senders, a duplicate from none.
fn once_per_machine(
    machines: usize,
    mut matches: impl FnMut(&ToClient) -> bool,
) -> impl FnMut(NodeId, ToClient) -> bool {
    let mut seen = vec![false; machines];
    move |from, msg| matches(&msg) && from < machines && !std::mem::replace(&mut seen[from], true)
}

/// A fresh packing of lists (weighted by size) into `shards`: load-aware
/// LPT, or round-robin with `balanced_load` off.
fn pack_shards(balanced_load: bool, weights: &[u64], shards: usize) -> ShardAssignment {
    if balanced_load {
        ShardAssignment::balanced(weights, shards)
    } else {
        ShardAssignment::round_robin(weights, shards)
    }
}

/// A namespace trained and measured but not yet placed: the outcome of
/// Train and Add, the exact client-side copy with its prewarm samples, and
/// what the plan choice measures on the namespace's own rows.
struct SurveyedNamespace {
    centroids: VectorStore,
    /// Rows of the base per list.
    list_rows: Vec<Vec<usize>>,
    base_store: BaseStore,
    members: Vec<Vec<u64>>,
    prewarm: PrewarmSamples,
    prewarm_seed: u64,
    /// The workload the plan choice prices.
    profile: WorkloadProfile,
    /// Scan rates measured on (or handed down for) these lists.
    rates: ScanRates,
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
    let weights: Vec<u64> = list_sizes.iter().map(|&s| s as u64 + 1).collect();
    PartitionPlan::enumerate(config.n_machines)
        .into_iter()
        .filter(|p| p.dim_blocks <= dim)
        .map(|p| (p, pack_shards(config.balanced_load, &weights, p.vec_shards)))
        .collect()
}

/// Runs Train and Add for one namespace over `base` and takes the plan
/// choice's measurements — everything that needs no fabric. `rates` are
/// scan rates already measured on a namespace of this one's shape, if any;
/// otherwise this namespace measures its own.
fn survey_namespace(
    config: &HarmonyConfig,
    params: &NsParams,
    base: &VectorStore,
    rates: Option<&ScanRates>,
) -> Result<SurveyedNamespace, CoreError> {
    if base.is_empty() {
        return Err(CoreError::Config("base vectors must be non-empty".into()));
    }
    let dim = base.dim();
    let nlist = params.nlist.min(base.len());

    // --- Train ---------------------------------------------------
    let t0 = Instant::now();
    let km = KMeans::train(
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
    let assignments = km.assign(base);
    let mut list_rows: Vec<Vec<usize>> = vec![Vec::new(); nlist];
    for (row, &c) in assignments.iter().enumerate() {
        list_rows[c as usize].push(row);
    }
    let list_sizes: Vec<usize> = list_rows.iter().map(Vec::len).collect();
    let add = t0.elapsed();

    // Exact client-side copy of the base: compaction recuts IVF lists
    // from it, and under SQ8 it doubles as the re-rank store.
    let base_store = BaseStore::over(base.clone());
    let members: Vec<Vec<u64>> = list_rows
        .iter()
        .map(|rows| rows.iter().map(|&r| base.id(r)).collect())
        .collect();
    let prewarm_seed = params.seed ^ 0x9E37_79B9_7F4A_7C15;
    let prewarm = PrewarmSamples::cut(params.prewarm, prewarm_seed, &members, &base_store, None)?;
    let sq8 = matches!(params.repr, BlockRepr::Sq8);

    // --- What the plan choice measures ------------------------------
    // The build knows nothing of the queries to come, so it prices the ones
    // the API issues by default — `SearchOptions::new`'s probe count, one
    // full in-flight window per batch — spread evenly over the lists. What
    // it can know it measures: the scan's rates on these lists (a small
    // fraction of the Train stage it follows), and how many candidates
    // survive into each hop of every candidate pipeline.
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
        || planner::measure_scan_rates(&view, profile.nprobe, &pipelines, params.seed, train / 64);
    let rates = rates.cloned().or_else(measure);
    let picks = planner::even_picks(&view, params.seed);
    let survivors = planner::sample_survivors(&view, &picks, profile.nprobe, &plans);
    Ok(SurveyedNamespace {
        centroids: km.centroids,
        list_rows,
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

/// Chooses the plan of a surveyed namespace and cuts the grid blocks to
/// ship (Pre-assign), producing its state. `model` carries what is measured
/// once per engine — the fabric's message cost — and the knobs of the
/// choice; the namespace's own rates and survivors complete it.
fn place_namespace(
    ns: u16,
    config: &HarmonyConfig,
    params: &NsParams,
    base: &VectorStore,
    surveyed: SurveyedNamespace,
    model: &CostModel,
) -> Result<PreparedNamespace, CoreError> {
    let SurveyedNamespace {
        centroids,
        list_rows,
        base_store,
        members,
        prewarm,
        prewarm_seed,
        profile,
        rates,
        survivors,
        train,
        add,
    } = surveyed;
    let dim = base.dim();
    let metric = params.metric;
    let nlist = centroids.len();
    let sq8 = matches!(params.repr, BlockRepr::Sq8);

    // --- Plan selection -------------------------------------------
    let scoring = model.clone().with_rates(rates).with_survivors(survivors);
    let candidates = scoring.estimates(config.n_machines, &profile);
    let (plan, plan_cost) = match (params.plan_override, params.mode) {
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
    if plan.dim_blocks > dim {
        return Err(CoreError::Config(format!(
            "plan {} needs more dimension blocks than dimensions ({dim})",
            plan.label()
        )));
    }

    // --- Pre-assign ------------------------------------------------
    let list_sizes = profile.list_sizes;
    let weights: Vec<u64> = list_sizes.iter().map(|&s| s as u64 + 1).collect();
    let assignment = pack_shards(config.balanced_load, &weights, plan.vec_shards);
    let routing = RoutingEpoch::new(0, plan, assignment, dim, Arc::new(prewarm), &scoring)?;

    let is_ip = !matches!(metric, Metric::L2);
    let mut loads = Vec::new();
    for (s, clusters) in routing.shard_clusters.iter().enumerate() {
        for (b, range) in routing.dim_ranges.iter().enumerate() {
            let machine = plan.machine_of(s, b);
            let lists: Vec<ClusterBlock> = clusters
                .iter()
                .map(|&c| {
                    let rows = list_rows[c as usize].iter().copied();
                    cut_list(base, rows, *range, is_ip, sq8).into_block(c)
                })
                .collect();
            let load = LoadBlock {
                ns,
                epoch: 0,
                shard: s as u32,
                dim_block: b as u32,
                dim_start: range.start as u64,
                dim_end: range.end as u64,
                total_dim_blocks: plan.dim_blocks as u32,
                metric: metric_tag::encode(metric),
                pruning: params.pruning,
                repr: repr_tag::encode(params.repr),
                lists,
            };
            loads.push((machine, load));
        }
    }

    let state = NamespaceState {
        ns,
        metric,
        dim,
        sq8,
        pruning: params.pruning,
        rerank_scale: params.rerank_scale,
        max_vectors: params.max_vectors,
        auto_tier: params.auto_tier,
        centroids,
        list_sizes: RwLock::new(list_sizes),
        prewarm_per_list: params.prewarm,
        prewarm_seed,
        base: RwLock::new(base_store),
        ingest: Mutex::new(IngestState {
            next_seq: 1,
            pending: Vec::new(),
            tombstones: HashMap::new(),
            deleted: Arc::default(),
            members,
            overridden: Arc::default(),
        }),
        published_seq: AtomicU64::new(0),
        ingest_snap: RwLock::new(Arc::new(IngestSnapshot::default())),
        routing: RwLock::new(Arc::new(routing)),
        probes: ProbeTracker::new(nlist),
        supervisor: Mutex::new(SupervisorState {
            window_start: ProbeSnapshot::default(),
            ewma: ProbeEwma::new(nlist, config.replan.ewma_alpha),
            next_check: config.replan.check_every.max(1),
            next_epoch: 1,
            retired: Vec::new(),
            tuned: scoring.clone(),
            last_stats: EngineStats::default(),
        }),
        tier: Mutex::new(TierState {
            temperature: Temperature::Hot,
            access: AccessEwma::new(TIER_EWMA_ALPHA),
        }),
    };
    Ok(PreparedNamespace {
        state,
        loads,
        plan_cost,
        candidates,
        model: scoring,
        train,
        add,
    })
}

impl HarmonyEngine {
    /// Builds the distributed index over `base` and starts the workers.
    ///
    /// The three timed stages match Fig. 10: **Train** (k-means), **Add**
    /// (list assignment), **Pre-assign** (shipping grid blocks). The
    /// resulting deployment hosts `base` as namespace 0; further tenants
    /// attach through [`EngineCore::create_namespace`].
    ///
    /// # Errors
    /// Configuration, clustering, or transport failures.
    pub fn build(config: HarmonyConfig, base: &VectorStore) -> Result<Self, CoreError> {
        config.validate()?;
        let comm_mode = if config.pipeline {
            CommMode::NonBlocking
        } else {
            CommMode::Blocking
        };
        // Every engine gets its own spill subtree so concurrent engines
        // (tests, benches) never collide on block file names.
        let engine_seq = ENGINE_SEQ.fetch_add(1, Ordering::Relaxed);
        let spill_root = config
            .spill_dir
            .clone()
            .unwrap_or_else(|| {
                std::env::temp_dir().join(format!("harmony-engine-{}", std::process::id()))
            })
            .join(format!("e{engine_seq}"));
        let cache_budget = config.cache_budget_bytes;
        let params = NsParams {
            metric: config.metric,
            repr: config.repr,
            rerank_scale: config.rerank_scale,
            nlist: config.nlist,
            pruning: config.pruning,
            seed: config.seed,
            prewarm: config.prewarm,
            max_vectors: 0,
            auto_tier: false,
            plan_override: config.plan_override,
            mode: config.mode,
        };
        let surveyed = survey_namespace(&config, &params, base, None)?;
        // The workers come up between the two halves of the build: after
        // the scan is measured — all nodes charge compute at the measured
        // rates — and before the plan is chosen, because what a message
        // costs is measured on the fabric that will carry the queries.
        let mut cluster = Cluster::try_spawn(
            ClusterConfig {
                workers: config.n_machines,
                net: config.net,
                comm_mode,
                delay: config.delay,
                rates: surveyed.rates.compute_rates(base.dim()),
                drop_every_nth: 0,
                transport: config.transport.clone(),
            },
            {
                let spill_root = spill_root.clone();
                move |m| HarmonyWorker::with_tiering(spill_root.join(format!("w{m}")), cache_budget)
            },
        )
        .map_err(CoreError::Cluster)?;
        let mut msg_ns = planner::measure_message_ns(&mut cluster)?;
        // A fabric that sleeps the modeled link's latency was timed with
        // it; the model adds the link itself.
        if let DelayMode::Sleep { scale } = config.delay {
            msg_ns = (msg_ns - scale * config.net.transfer_ns(0) as f64).max(0.0);
        }
        // The measurement's traffic is not the build's.
        cluster.reset_metrics();
        let model = CostModel::new(config.net, config.alpha)
            .with_message_ns(msg_ns)
            .with_near_tie(config.replan.hysteresis);
        let PreparedNamespace {
            state,
            loads,
            plan_cost,
            candidates,
            model,
            train,
            add,
        } = place_namespace(0, &config, &params, base, surveyed, &model)?;
        let plan = state.routing.read().plan;
        // Namespaces of namespace 0's shape reuse its scan rates.
        let rates_shape = (config.repr, config.metric, state.dim);

        // --- Pre-assign: ship namespace 0's grid blocks ----------------
        let t0 = Instant::now();
        let mut expected_acks = 0usize;
        for (machine, load) in loads {
            cluster.send(machine, ToWorker::Load(load).to_bytes())?;
            expected_acks += 1;
        }
        // Collect acknowledgments (the receive path is still attached to
        // the building thread here).
        let deadline = Instant::now() + Duration::from_secs(120);
        for _ in 0..expected_acks {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let (_, payload) = cluster.recv_timeout(remaining)?;
            match ToClient::from_bytes(payload)? {
                ToClient::LoadAck { .. } => {}
                other => {
                    return Err(CoreError::Protocol(format!(
                        "expected LoadAck during pre-assign, got {other:?}"
                    )))
                }
            }
        }
        let bytes_shipped = cluster.snapshot().client.bytes_tx;
        let preassign = t0.elapsed();

        // Search metrics must not include the build traffic.
        cluster.reset_metrics();

        // Hand the receive path to the session router; from here on the
        // cluster is send-only for every caller thread.
        let receiver = cluster.take_client_receiver()?;
        let shared = Arc::new(EngineShared {
            cluster,
            next_query_id: AtomicU64::new(0),
            outstanding: LoadTracker::new(config.n_machines),
        });
        let sessions = Arc::new(SessionTable::default());
        let (control_tx, control_rx) = unbounded();
        let router_stop = Arc::new(AtomicBool::new(false));
        let router = std::thread::Builder::new()
            .name("harmony-client-router".into())
            .spawn({
                let sessions = Arc::clone(&sessions);
                let stop = Arc::clone(&router_stop);
                move || run_router(receiver, sessions, control_tx, stop)
            })
            .map_err(|e| CoreError::Runtime(format!("spawn client router thread: {e}")))?;

        let ns0 = Arc::new(state);
        let mut registry = BTreeMap::new();
        registry.insert(0u16, Arc::clone(&ns0));
        let compact_interval = config.compact_interval_ms;
        let core = Arc::new(EngineCore {
            config,
            model,
            rates_shape,
            namespaces: RwLock::new(registry),
            next_ns: Mutex::new(1),
            ns0,
            build_stats: BuildStats {
                train,
                add,
                preassign,
                plan,
                plan_cost,
                candidates,
                bytes_shipped,
            },
            shared,
            sessions,
            control: Mutex::new(control_rx),
        });
        let compactor_stop = Arc::new(AtomicBool::new(false));
        let compactor = if compact_interval > 0 {
            let handle = std::thread::Builder::new()
                .name("harmony-compactor".into())
                .spawn({
                    let core = Arc::clone(&core);
                    let stop = Arc::clone(&compactor_stop);
                    let interval = Duration::from_millis(compact_interval);
                    move || run_compactor(core, interval, stop)
                })
                .map_err(|e| CoreError::Runtime(format!("spawn compactor thread: {e}")))?;
            Some(handle)
        } else {
            None
        };
        Ok(Self {
            core,
            router_stop,
            router: Some(router),
            compactor_stop,
            compactor,
        })
    }

    /// Signals and joins the background threads. Idempotent.
    fn stop_threads(&mut self) {
        self.router_stop.store(true, Ordering::Release);
        self.compactor_stop.store(true, Ordering::Release);
        // The compactor holds an Arc of the core: it must be gone before
        // shutdown can unwrap the Arc chain.
        if let Some(handle) = self.compactor.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.router.take() {
            let _ = handle.join();
        }
    }

    /// Stops the background threads and all workers, releasing the cluster.
    ///
    /// # Errors
    /// Reports the first worker that panicked, if any.
    pub fn shutdown(mut self) -> Result<(), CoreError> {
        self.stop_threads();
        let core = Arc::clone(&self.core);
        drop(self);
        match Arc::try_unwrap(core) {
            Ok(core) => match Arc::try_unwrap(core.shared) {
                Ok(mut shared) => {
                    shared.cluster.shutdown()?;
                    Ok(())
                }
                // Unreachable in practice (the router holds no engine
                // reference); the last Arc drop still stops the cluster.
                Err(_) => Ok(()),
            },
            Err(_) => Ok(()),
        }
    }
}

impl Drop for HarmonyEngine {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

impl EngineCore {
    /// The engine configuration.
    pub fn config(&self) -> &HarmonyConfig {
        &self.config
    }

    /// The partition plan in force (the default namespace's current
    /// routing epoch).
    pub fn plan(&self) -> PartitionPlan {
        self.ns0.routing.read().plan
    }

    /// The current routing epoch of the default namespace (0 = the
    /// initial build; bumps on every live migration or compaction).
    pub fn current_epoch(&self) -> u64 {
        self.ns0.routing.read().epoch
    }

    /// The cluster → shard assignment in force (default namespace).
    pub fn assignment(&self) -> ShardAssignment {
        self.ns0.routing.read().assignment.clone()
    }

    /// Build-stage timings (Fig. 10).
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// Inverted-list sizes (cluster load profile; reflects the last
    /// compaction). Default namespace.
    pub fn list_sizes(&self) -> Vec<usize> {
        self.ns0.list_sizes.read().clone()
    }

    /// Upserted rows not yet folded into IVF lists (default namespace).
    pub fn pending_deltas(&self) -> usize {
        self.ns0.ingest.lock().pending.len()
    }

    /// Ids currently soft-deleted in the default namespace (tombstoned,
    /// awaiting compaction).
    pub fn tombstone_count(&self) -> usize {
        self.ns0.ingest.lock().deleted.len()
    }

    /// Trained centroids of the default namespace (client-side copy).
    pub fn centroids(&self) -> &VectorStore {
        &self.ns0.centroids
    }

    /// Clusters owned by each vector shard (default namespace, current
    /// epoch).
    pub fn shard_clusters(&self) -> Vec<Vec<u32>> {
        self.ns0.routing.read().shard_clusters.clone()
    }

    /// Observed per-cluster probe counts since build (the supervisor's
    /// workload signal; default namespace).
    pub fn probe_counts(&self) -> Vec<u64> {
        self.ns0.probes.snapshot().counts
    }

    /// The current per-machine outstanding-work estimates (diagnostics).
    ///
    /// Returns to ~0 whenever no search session has visits in flight — the
    /// invariant behind §4.3's deferred-dimension scheduling.
    pub fn outstanding_load(&self) -> Vec<f64> {
        self.shared.outstanding.snapshot()
    }

    // --- Namespaces ----------------------------------------------------

    /// Resolves a namespace id to its state.
    fn namespace(&self, ns: u16) -> Result<Arc<NamespaceState>, CoreError> {
        self.namespaces
            .read()
            .get(&ns)
            .cloned()
            .ok_or_else(|| CoreError::Config(format!("unknown namespace {ns}")))
    }

    /// Registered namespace ids, ascending (0 is always present).
    pub fn namespace_ids(&self) -> Vec<u16> {
        self.namespaces.read().keys().copied().collect()
    }

    /// Upserted rows not yet folded into IVF lists, for one namespace.
    ///
    /// # Errors
    /// [`CoreError::Config`] for an unknown namespace.
    pub fn pending_deltas_ns(&self, ns: u16) -> Result<usize, CoreError> {
        Ok(self.namespace(ns)?.ingest.lock().pending.len())
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
        if base.is_empty() {
            return Err(CoreError::Config(
                "namespace base vectors must be non-empty".into(),
            ));
        }
        if cfg.max_vectors > 0 && base.len() > cfg.max_vectors {
            return Err(CoreError::Config(format!(
                "namespace base has {} vectors, exceeding the quota of {}",
                base.len(),
                cfg.max_vectors
            )));
        }
        let ns = {
            let mut next = self.next_ns.lock();
            let ns = *next;
            *next = next.checked_add(1).ok_or_else(|| {
                CoreError::Config("namespace ids exhausted (u16 overflow)".into())
            })?;
            ns
        };
        let params = NsParams {
            metric: cfg.metric,
            repr: cfg.repr,
            rerank_scale: cfg.rerank_scale,
            nlist: cfg.nlist,
            pruning: cfg.pruning,
            seed: cfg.seed,
            prewarm: cfg.prewarm,
            max_vectors: cfg.max_vectors,
            auto_tier: cfg.auto_tier,
            plan_override: cfg.plan_override,
            mode: EngineMode::Harmony,
        };
        let shape = (cfg.repr, cfg.metric, base.dim());
        let rates = (shape == self.rates_shape).then_some(&self.model.rates);
        let surveyed = survey_namespace(&self.config, &params, base, rates)?;
        let PreparedNamespace {
            mut state, loads, ..
        } = place_namespace(ns, &self.config, &params, base, surveyed, &self.model)?;
        if let Err(e) = self.install_loads(ns, loads) {
            // Best-effort cleanup of whatever blocks already landed.
            self.abort_epoch(ns, 0);
            return Err(e);
        }
        // The worker counters are shared by every namespace and cumulative:
        // this tenant's first window starts here, not at the engine's build.
        state.supervisor.get_mut().last_stats = self.collect_stats()?;
        self.namespaces.write().insert(ns, Arc::new(state));
        Ok(ns)
    }

    /// Ships prepared grid blocks over the running cluster and awaits one
    /// ack per block on the control channel (unlike the build path, the
    /// router already owns the receive side here).
    fn install_loads(&self, ns: u16, loads: Vec<(usize, LoadBlock)>) -> Result<(), CoreError> {
        let expected = loads.len();
        let control = self.control.lock();
        for (machine, load) in loads {
            self.shared
                .cluster
                .send(machine, ToWorker::Load(load).to_bytes())?;
        }
        let deadline = Instant::now() + Duration::from_secs(120);
        // Stale acks of other namespaces are not this install's.
        let mut acked: HashSet<(u32, u32)> = HashSet::new();
        await_acks(&control, deadline, expected, |_, msg| match msg {
            ToClient::LoadAck {
                ns: n,
                shard,
                dim_block,
            } => n == ns && acked.insert((shard, dim_block)),
            _ => false,
        })
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
        Ok(self.namespace(ns)?.tier.lock().temperature)
    }

    fn set_tier_state(
        &self,
        state: &NamespaceState,
        temperature: Temperature,
    ) -> Result<(), CoreError> {
        let machines = self.config.n_machines;
        let control = self.control.lock();
        for m in 0..machines {
            let msg = SetTier {
                ns: state.ns,
                temperature: temperature.encode(),
            };
            self.shared
                .cluster
                .send(m, ToWorker::SetTier(msg).to_bytes())?;
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let acked = |msg: &ToClient| matches!(*msg, ToClient::TierAck { ns } if ns == state.ns);
        await_acks(
            &control,
            deadline,
            machines,
            once_per_machine(machines, acked),
        )?;
        drop(control);
        state.tier.lock().temperature = temperature;
        Ok(())
    }

    /// One pass of the background compactor: fold every namespace whose
    /// pending delta count crossed `compact_after`, then sweep auto-tiered
    /// namespaces between temperatures by their access-rate EWMA.
    fn compactor_tick(&self) {
        let states: Vec<Arc<NamespaceState>> = self.namespaces.read().values().cloned().collect();
        let after = self.config.compact_after;
        for state in states {
            if after > 0 && state.ingest.lock().pending.len() >= after {
                // Best-effort: a failed handshake leaves the incumbent
                // epoch in force; the next tick retries.
                let _ = self.compact_state(&state);
            }
            if !state.auto_tier {
                continue;
            }
            let (current, rate) = {
                let mut tier = state.tier.lock();
                tier.access.decay();
                (tier.temperature, tier.access.rate())
            };
            let want = if rate >= TIER_HOT_RATE {
                Temperature::Hot
            } else if rate >= TIER_COLD_RATE {
                Temperature::Warm
            } else {
                Temperature::Cold
            };
            if want != current {
                let _ = self.set_tier_state(&state, want);
            }
        }
    }

    // --- Search --------------------------------------------------------

    /// Top-`k` search for one query in the default namespace.
    ///
    /// # Errors
    /// Dimension mismatches or distributed-collection failures.
    pub fn search(&self, query: &[f32], opts: &SearchOptions) -> Result<SingleResult, CoreError> {
        self.search_ns(0, query, opts)
    }

    /// Top-`k` search for one query in namespace `ns`.
    ///
    /// # Errors
    /// Unknown namespace, dimension mismatches or distributed-collection
    /// failures.
    pub fn search_ns(
        &self,
        ns: u16,
        query: &[f32],
        opts: &SearchOptions,
    ) -> Result<SingleResult, CoreError> {
        let state = self.namespace(ns)?;
        let mut store = VectorStore::new(state.dim);
        store.push(0, query).map_err(CoreError::Index)?;
        let batch = self.search_batch_ns(ns, &store, opts)?;
        Ok(SingleResult {
            neighbors: batch.results.into_iter().next().unwrap_or_default(),
        })
    }

    /// Top-`k` search for a batch of queries with pipelined dispatch, in
    /// the default namespace.
    ///
    /// Safe to call from multiple threads at once: each call runs as its
    /// own session over the shared workers (see the [module docs](self)).
    /// Rows are admitted in sub-batches of [`sub_batch_rows`] contiguous
    /// rows, up to `max_inflight` queries in flight, and each sub-batch
    /// moves through the pipeline as one message per hop.
    /// `opts.timeout_ms` is a *batch deadline*: every receive waits only
    /// for the time remaining until it, so a stalled batch fails after one
    /// timeout total, not one per query.
    ///
    /// # Errors
    /// Dimension mismatches or distributed-collection failures.
    pub fn search_batch(
        &self,
        queries: &VectorStore,
        opts: &SearchOptions,
    ) -> Result<BatchResult, CoreError> {
        self.search_batch_ns(0, queries, opts)
    }

    /// Top-`k` batch search in namespace `ns` (see
    /// [`EngineCore::search_batch`]).
    ///
    /// # Errors
    /// Unknown namespace, dimension mismatches or distributed-collection
    /// failures.
    pub fn search_batch_ns(
        &self,
        ns: u16,
        queries: &VectorStore,
        opts: &SearchOptions,
    ) -> Result<BatchResult, CoreError> {
        let state = self.namespace(ns)?;
        if queries.dim() != state.dim {
            return Err(CoreError::Index(
                harmony_index::IndexError::DimensionMismatch {
                    expected: state.dim,
                    actual: queries.dim(),
                },
            ));
        }
        let comm_mode = self.shared.cluster.config().comm_mode;
        let t0 = Instant::now();

        let n = queries.len();
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
        let start = self.shared.cluster.snapshot();
        if n == 0 {
            return Ok(BatchResult {
                results,
                wall: t0.elapsed(),
                snapshot: start.delta(&start),
                comm_mode,
            });
        }
        // Feed the auto-tier signal: this namespace is being queried.
        state.tier.lock().access.record(n as u64);
        state.probes.record_batch();

        // One deadline for the whole batch: every receive below gets only
        // the remaining budget, never a fresh full timeout.
        let deadline = Instant::now() + Duration::from_millis(opts.timeout_ms.max(1));
        let base = self
            .shared
            .next_query_id
            .fetch_add(n as u64, Ordering::Relaxed);
        let session = Session {
            table: &self.sessions,
            base,
            rx: self.sessions.register(base, n as u64),
        };

        let mut charges = Charges::new();
        let ctx = BatchCtx {
            state: &state,
            queries,
            opts,
            base,
        };
        let outcome = self.drive_batch(&ctx, &session, deadline, &mut results, &mut charges);
        // Visits abandoned mid-flight must not leave their load estimates
        // charged forever (on success every visit was discharged already).
        for charge in charges.values() {
            self.discharge(charge);
        }
        outcome?;

        let wall = t0.elapsed();
        // Metrics are attributed by window delta; with overlapping sessions
        // the window includes their traffic too (shared-cluster view).
        let snapshot = self.shared.cluster.snapshot().delta(&start);

        // Traffic-driven supervision, *after* the batch's metrics capture
        // so a migration's one-time cost is not billed to this batch's
        // window: evict any drained retired epochs, then run the
        // replanning tick if this batch crossed the check threshold.
        self.maybe_gc_retired(&state);
        self.maybe_auto_replan(&state);

        Ok(BatchResult {
            results,
            wall,
            snapshot,
            comm_mode,
        })
    }

    /// The admission/collection loop of one session.
    fn drive_batch(
        &self,
        ctx: &BatchCtx<'_>,
        session: &Session<'_>,
        deadline: Instant,
        results: &mut [Vec<Neighbor>],
        charges: &mut Charges,
    ) -> Result<(), CoreError> {
        let n = ctx.queries.len();
        let dim_blocks = ctx.state.routing.read().plan.dim_blocks;
        let sub_rows = sub_batch_rows(n.min(self.config.max_inflight), dim_blocks);
        // Query `base + row` lives at `active[row]` while in flight.
        let mut active: Vec<Option<QueryState>> = (0..n).map(|_| None).collect();
        let mut next_row = 0usize;
        let mut live = 0usize;
        let mut completed = 0usize;
        let mut ready: Vec<usize> = Vec::new();

        while completed < n {
            // Admit sub-batches up to the session's in-flight window. The
            // batch deadline covers dispatch too: blocking transports can
            // stall sends long enough to eat the whole budget.
            while next_row < n && live < self.config.max_inflight {
                if deadline.saturating_duration_since(Instant::now()).is_zero() {
                    return Err(CoreError::Cluster(ClusterError::Timeout));
                }
                let rows = next_row..(next_row + sub_rows).min(n);
                let ordinal = next_row / sub_rows;
                next_row = rows.end;
                let admitted =
                    self.admit_sub_batch(ctx, ordinal, rows.clone(), &mut active, charges)?;
                live += admitted;
                // Queries resolved entirely from prewarm (no probes hit
                // populated shards) — rare but possible.
                completed += rows.len() - admitted;
            }
            if completed >= n {
                break;
            }

            // Collect one routed sub-batch within the remaining budget.
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(CoreError::Cluster(ClusterError::Timeout));
            }
            let batch = match session.rx.recv_timeout(remaining) {
                Ok(batch) => batch,
                Err(RecvTimeoutError::Timeout) => {
                    return Err(CoreError::Cluster(ClusterError::Timeout))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CoreError::Cluster(ClusterError::ShutDown))
                }
            };
            // Discharge exactly the completing visit's load estimates.
            let first = batch.query_ids.first().copied().unwrap_or(u64::MAX);
            if let Some(charge) = charges.remove(&(first, batch.shard)) {
                self.discharge(&charge);
            }

            ready.clear();
            for (i, &qid) in batch.query_ids.iter().enumerate() {
                let row = qid.wrapping_sub(ctx.base) as usize;
                let Some(state) = active.get_mut(row).and_then(Option::as_mut) else {
                    continue; // stale result for an already-finished query
                };
                if state.in_flight == 0 {
                    continue; // defensive: duplicate result for this visit
                }
                // Merge candidates (skipping prewarm duplicates).
                let hits = span(&batch.result_ends, i);
                for (&id, &score) in batch.ids[hits.clone()].iter().zip(&batch.scores[hits]) {
                    if !state.prewarm_ids.contains(&id) {
                        state.topk.push(id, score);
                    }
                }
                state.in_flight -= 1;
                if state.in_flight > 0 {
                    continue;
                }
                // Stage the next visit (pipeline mode) or finish.
                if !state.pending_visits.is_empty() {
                    ready.push(row);
                } else if let Some(done) = active[row].take() {
                    results[row] = self.finalize_results(
                        ctx.state,
                        ctx.queries.row(row),
                        done.topk,
                        ctx.opts.k,
                    );
                    completed += 1;
                    live -= 1;
                }
            }
            // The rows that move on together stay one sub-batch per shard.
            self.dispatch_round(ctx, &ready, &mut active, charges)?;
        }
        Ok(())
    }

    /// Finishes one query. Deleted ids are filtered against the current
    /// dead-set first — the worker-side tombstones are best-effort, this
    /// filter is the guarantee. Under SQ8 every surviving stage-1 candidate
    /// is then re-scored exactly against the retained base copy and the
    /// list is trimmed to `k` (prewarm entries re-score idempotently —
    /// they were exact already). Under f32 the heap is already exact.
    fn finalize_results(
        &self,
        state: &NamespaceState,
        query: &[f32],
        topk: TopK,
        k: usize,
    ) -> Vec<Neighbor> {
        let snap = Arc::clone(&state.ingest_snap.read());
        if !state.sq8 {
            let sorted = topk.into_sorted();
            if snap.deleted.is_empty() {
                return sorted;
            }
            return sorted
                .into_iter()
                .filter(|n| !snap.deleted.contains_key(&n.id))
                .collect();
        }
        let survivors = topk.into_sorted();
        let base = state.base.read();
        let mut exact = TopK::new(k);
        let mut reranked = 0usize;
        for n in &survivors {
            if snap.deleted.contains_key(&n.id) {
                continue;
            }
            let score = match base.by_id.get(&n.id) {
                Some(&row) => state.metric.score(query, base.store.row(row)),
                // Unknown id (defensive): keep the stage-1 score.
                None => n.score,
            };
            exact.push(n.id, score);
            reranked += 1;
        }
        // The re-rank is real client-side compute: bill it at the modeled
        // scan rates like the centroid and prewarm stages.
        self.shared
            .cluster
            .charge_client_compute((reranked * state.dim) as u64, reranked as u64);
        exact.into_sorted()
    }

    /// Subtracts one visit's per-machine estimates from the shared tracker.
    fn discharge(&self, charge: &[(NodeId, f64)]) {
        for &(machine, amount) in charge {
            self.shared.outstanding.sub(machine, amount);
        }
    }

    /// Admits batch rows `rows` as the batch's `ordinal`-th sub-batch:
    /// captures what they share, sets each query up (probes, prewarm, visit
    /// list) and dispatches their first stage(s). Returns how many have
    /// something to visit.
    fn admit_sub_batch(
        &self,
        ctx: &BatchCtx<'_>,
        ordinal: usize,
        rows: std::ops::Range<usize>,
        active: &mut [Option<QueryState>],
        charges: &mut Charges,
    ) -> Result<usize, CoreError> {
        let ns_state = ctx.state;
        // Ingest watermark and snapshot: rows with `seq < delta_seq` are
        // visible, the dead-set is filtered out.
        //
        // The order of these three loads matters. Watermark before
        // routing: every row the watermark covers was sent to the epoch
        // current at its upsert and re-shipped (or folded) into each later
        // one before that epoch was published, so the later-read epoch
        // holds all of them. Snapshot before routing: a compaction swaps
        // in the epoch with recut prewarm samples *before* it publishes the
        // snapshot with the emptied `overridden` set, so a snapshot can be
        // older than the epoch read after it (its set is then merely
        // over-inclusive) but never newer — an emptied set is never paired
        // with samples cut before the writes it forgot.
        let delta_seq = ns_state.published_seq.load(Ordering::Acquire);
        let snap = Arc::clone(&ns_state.ingest_snap.read());
        // Capture the routing generation for these queries' whole
        // lifetime: a concurrent plan switch must never split one query
        // across layouts.
        let routing = Arc::clone(&ns_state.routing.read());
        let admission = Arc::new(Admission {
            routing,
            delta_seq,
            ordinal,
        });
        let mut admitted = Vec::with_capacity(rows.len());
        for row in rows {
            let query = ctx.queries.row(row);
            if let Some(state) = self.admit_query(ns_state, &admission, &snap, query, ctx.opts) {
                active[row] = Some(state);
                admitted.push(row);
            }
        }
        self.dispatch_round(ctx, &admitted, active, charges)?;
        Ok(admitted.len())
    }

    /// Sets up one query: probes, prewarm, visit list. Returns `None` when
    /// the query has nothing to visit.
    fn admit_query(
        &self,
        ns_state: &Arc<NamespaceState>,
        admission: &Arc<Admission>,
        snap: &IngestSnapshot,
        query: &[f32],
        opts: &SearchOptions,
    ) -> Option<QueryState> {
        let routing = &admission.routing;
        let probes = nearest_centroids(query, &ns_state.centroids, opts.nprobe);
        // Feed the observed-workload counters driving the plan supervisor.
        ns_state.probes.record(&probes, opts.k);

        // Prewarm (Algorithm 1 lines 1-5): seed the heap from client-side
        // samples of the probed lists. The budget is capped so prewarming
        // stays a cheap threshold seed — nearest probes sampled first.
        // Under SQ8 the heap over-collects for the exact re-rank stage.
        let mut topk = TopK::new(ns_state.effective_k(opts.k));
        let prewarm_ids = routing.prewarm.seed(
            ns_state.metric,
            query,
            &probes,
            opts.k,
            &snap.overridden,
            &mut topk,
        );
        // Client-side computation (centroid scan + prewarm) is charged with
        // the same modeled rates as any node: the client is a real machine.
        let centroid_pd = (ns_state.centroids.len() * ns_state.dim) as u64;
        let prewarm_pd = (prewarm_ids.len() * ns_state.dim) as u64;
        self.shared.cluster.charge_client_compute(
            centroid_pd + prewarm_pd,
            (ns_state.centroids.len() + prewarm_ids.len()) as u64,
        );

        // Group probes by shard, preserving probe (= proximity) order.
        let mut pending_visits = routing.assignment.visits(&probes);
        // Fresh-data recall is 1.0 by construction: every shard holding
        // pending delta rows gets a (possibly cluster-less) forced visit,
        // and its workers scan the full delta prefix below the watermark.
        if admission.delta_seq > 0 {
            let mut delta_shards: Vec<u32> = snap
                .pending_clusters
                .iter()
                .filter_map(|&c| routing.assignment.cluster_to_shard.get(c as usize).copied())
                .collect();
            delta_shards.sort_unstable();
            delta_shards.dedup();
            for s in delta_shards {
                if !pending_visits.iter().any(|(shard, _)| *shard == s) {
                    pending_visits.push((s, Vec::new()));
                }
            }
        }
        // Clusters ascending: the canonical enumeration order on the workers.
        for (_, clusters) in &mut pending_visits {
            clusters.sort_unstable();
        }
        // Dispatch order: nearest shard first; reverse so pop() yields it.
        pending_visits.reverse();

        (!pending_visits.is_empty()).then(|| QueryState {
            topk,
            prewarm_ids,
            pending_visits,
            in_flight: 0,
            admission: Arc::clone(admission),
        })
    }

    /// Dispatches the next shard visit of every row in `rows` (pipeline
    /// mode) or every remaining visit at once (non-pipelined mode). Rows
    /// bound for the same shard travel as one sub-batch. `rows` ascend and
    /// share one admission.
    fn dispatch_round(
        &self,
        ctx: &BatchCtx<'_>,
        rows: &[usize],
        active: &mut [Option<QueryState>],
        charges: &mut Charges,
    ) -> Result<(), CoreError> {
        // shard → (row, probed clusters) of every visit going there.
        let mut groups: BTreeMap<u32, Vec<(usize, Vec<u32>)>> = BTreeMap::new();
        for &row in rows {
            let Some(state) = active[row].as_mut() else {
                continue;
            };
            let rounds = if self.config.pipeline {
                1
            } else {
                state.pending_visits.len()
            };
            for _ in 0..rounds {
                let Some((shard, clusters)) = state.pending_visits.pop() else {
                    break;
                };
                state.in_flight += 1;
                groups.entry(shard).or_default().push((row, clusters));
            }
        }
        for (shard, members) in groups {
            self.dispatch_visit(ctx, shard, &members, active, charges)?;
        }
        Ok(())
    }

    /// Sends the dimension-sliced chunk batches of one sub-batch's visit to
    /// `shard`: one [`ChunkBatch`] per machine of the shard row.
    fn dispatch_visit(
        &self,
        ctx: &BatchCtx<'_>,
        shard: u32,
        members: &[(usize, Vec<u32>)],
        active: &[Option<QueryState>],
        charges: &mut Charges,
    ) -> Result<(), CoreError> {
        let ns = ctx.state;
        let states = || {
            members
                .iter()
                .filter_map(|(row, _)| active[*row].as_ref().map(|s| (*row, s)))
        };
        let Some((first_row, first)) = states().next() else {
            return Ok(());
        };
        let admission = Arc::clone(&first.admission);
        debug_assert!(states().all(|(_, s)| Arc::ptr_eq(&s.admission, &admission)));
        let routing = &admission.routing;
        let plan = routing.plan;

        // Estimate the candidate volume of this visit for load accounting.
        let candidates: usize = {
            let sizes = ns.list_sizes.read();
            members
                .iter()
                .flat_map(|(_, clusters)| clusters)
                .map(|&c| sizes.get(c as usize).copied().unwrap_or(0))
                .sum()
        };

        // Pipeline order over dimension blocks (§4.3 Load Balancing), once
        // for the sub-batch: balanced mode sends the most-loaded machine's
        // block last, where pruning has already thinned the candidates;
        // otherwise natural order with a deterministic rotation to spread
        // stage collisions.
        let blocks: Vec<usize> = {
            let mut blocks: Vec<usize> = (0..plan.dim_blocks).collect();
            if self.config.balanced_load {
                let loads = self.shared.outstanding.snapshot();
                blocks.sort_by(|&a, &b| {
                    let la = loads[plan.machine_of(shard as usize, a)];
                    let lb = loads[plan.machine_of(shard as usize, b)];
                    la.total_cmp(&lb).then(a.cmp(&b))
                });
            } else {
                // Rotate by the sub-batch's place in its batch, not by
                // query ids: ids depend on how concurrent sessions
                // interleave their range reservations, places make results
                // reproducible per batch.
                blocks.rotate_left(admission.ordinal % plan.dim_blocks.max(1));
            }
            blocks
        };

        // Charge the estimated work per machine: later positions are
        // discounted by the expected pruning survival rate. The same
        // entries are discharged when this visit's result arrives.
        let mut per_machine: Vec<(NodeId, f64)> = Vec::with_capacity(blocks.len());
        for (pos, &b) in blocks.iter().enumerate() {
            let machine = plan.machine_of(shard as usize, b);
            let width = routing.dim_ranges[b].len() as f64;
            let survival = routing.survivors.get(pos).copied().unwrap_or(1.0);
            let amount = candidates as f64 * width * survival;
            self.shared.outstanding.add(machine, amount);
            per_machine.push((machine, amount));
        }
        charges.insert((ctx.base + first_row as u64, shard), per_machine);

        // Everything but the coordinates is the same on every machine.
        let is_ip = !matches!(ns.metric, Metric::L2);
        let mut header = ChunkBatch {
            ns: ns.ns,
            epoch: routing.epoch,
            shard,
            k: ns.effective_k(ctx.opts.k) as u32,
            order: blocks
                .iter()
                .map(|&b| plan.machine_of(shard as usize, b) as u64)
                .collect(),
            position: 0,
            delta_seq: admission.delta_seq,
            legacy_reply: false,
            query_ids: Vec::with_capacity(members.len()),
            thresholds: Vec::with_capacity(members.len()),
            q_total_norms_sq: Vec::new(),
            cluster_ends: Vec::with_capacity(members.len()),
            clusters: Vec::new(),
            dims: Vec::new(),
        };
        for ((row, state), (_, clusters)) in states().zip(members) {
            let query = ctx.queries.row(row);
            header.query_ids.push(ctx.base + row as u64);
            header.thresholds.push(state.topk.threshold());
            if is_ip {
                header.q_total_norms_sq.push(ip(query, query));
            }
            header.clusters.extend_from_slice(clusters);
            header.cluster_ends.push(header.clusters.len() as u32);
        }
        for (pos, &b) in blocks.iter().enumerate() {
            let range = routing.dim_ranges[b];
            let mut dims = Vec::with_capacity(members.len() * range.len());
            for (row, _) in states() {
                dims.extend_from_slice(&ctx.queries.row(row)[range.start..range.end]);
            }
            let chunk = ChunkBatch {
                position: pos as u32,
                dims,
                ..header.clone()
            };
            self.shared.cluster.send(
                plan.machine_of(shard as usize, b),
                ToWorker::ChunkBatch(chunk).to_bytes(),
            )?;
        }
        Ok(())
    }

    // --- Ingest --------------------------------------------------------

    /// Upserts (inserts or replaces) one vector by id in the default
    /// namespace. Returns the row's publication sequence number.
    ///
    /// The row is immediately searchable: it lands in the delta list of
    /// its nearest cluster's shard on every dimension block, and every
    /// query admitted after this call carries a watermark covering it.
    /// A replaced id is superseded everywhere by a tombstone below the
    /// new row's sequence.
    ///
    /// # Errors
    /// Dimension mismatches or transport failures.
    pub fn upsert(&self, id: u64, vector: &[f32]) -> Result<u64, CoreError> {
        self.upsert_ns(0, id, vector)
    }

    /// Upserts one vector by id in namespace `ns` (see
    /// [`EngineCore::upsert`]). Enforces the namespace's live-vector
    /// quota when one is set.
    ///
    /// # Errors
    /// Unknown namespace, dimension mismatches, an exhausted quota or
    /// transport failures.
    pub fn upsert_ns(&self, ns: u16, id: u64, vector: &[f32]) -> Result<u64, CoreError> {
        let state = self.namespace(ns)?;
        if vector.len() != state.dim {
            return Err(CoreError::Index(
                harmony_index::IndexError::DimensionMismatch {
                    expected: state.dim,
                    actual: vector.len(),
                },
            ));
        }
        let seq;
        {
            let mut ing = state.ingest.lock();
            let routing = Arc::clone(&state.routing.read());
            // Supersede any live copy first: a tombstone below the new
            // row's sequence suppresses stale list/delta rows everywhere
            // while the re-upsert itself stays visible.
            let (known, id_live, live) = {
                let base = state.base.read();
                let in_base = base.by_id.contains_key(&id);
                let in_pending = ing.pending.iter().any(|p| p.id == id);
                let known = in_base || in_pending || ing.tombstones.contains_key(&id);
                let id_live = (in_base || in_pending) && !ing.deleted.contains_key(&id);
                let live = base.by_id.len().saturating_sub(ing.deleted.len());
                (known, id_live, live)
            };
            // Quota check before any side effect: replacing a live id
            // never grows the namespace, a new id must fit the budget.
            if state.max_vectors > 0 && !id_live && live >= state.max_vectors {
                return Err(CoreError::Config(format!(
                    "namespace {ns} quota exceeded: {live} live vectors of {} allowed",
                    state.max_vectors
                )));
            }
            if known {
                let del_seq = ing.next_seq;
                ing.next_seq += 1;
                let del = DeleteIds {
                    ns: state.ns,
                    epoch: u64::MAX,
                    ids: vec![id],
                    seq: del_seq,
                };
                for m in 0..self.config.n_machines {
                    self.shared
                        .cluster
                        .send(m, ToWorker::DeleteIds(del.clone()).to_bytes())?;
                }
                ing.tombstones.insert(id, del_seq);
            }
            seq = ing.next_seq;
            ing.next_seq += 1;
            let cluster = *nearest_centroids(vector, &state.centroids, 1)
                .first()
                .ok_or_else(|| CoreError::Runtime("engine has no centroids".into()))?;
            {
                let mut base = state.base.write();
                let row = base.store.len();
                base.store.push(id, vector).map_err(CoreError::Index)?;
                base.by_id.insert(id, row);
            }
            ing.pending.push(PendingDelta { id, cluster, seq });
            if ing.deleted.contains_key(&id) {
                Arc::make_mut(&mut ing.deleted).remove(&id);
            }
            mark_overridden(&mut ing, id);
            let shard = routing
                .assignment
                .cluster_to_shard
                .get(cluster as usize)
                .copied()
                .unwrap_or(0);
            let is_ip = !matches!(state.metric, Metric::L2);
            let total_norm_sq = if is_ip { ip(vector, vector) } else { 0.0 };
            for (b, range) in routing.dim_ranges.iter().enumerate() {
                let machine = routing.plan.machine_of(shard as usize, b);
                let slice = &vector[range.start..range.end];
                let msg = DeltaUpsert {
                    ns: state.ns,
                    epoch: routing.epoch,
                    shard,
                    dim_start: range.start as u64,
                    dim_end: range.end as u64,
                    ids: vec![id],
                    seqs: vec![seq],
                    flat: slice.to_vec(),
                    block_norms_sq: if is_ip {
                        vec![ip(slice, slice)]
                    } else {
                        Vec::new()
                    },
                    total_norms_sq: if is_ip {
                        vec![total_norm_sq]
                    } else {
                        Vec::new()
                    },
                };
                self.shared
                    .cluster
                    .send(machine, ToWorker::UpsertDelta(msg).to_bytes())?;
            }
            // Publish only after every send: FIFO transport ordering then
            // guarantees any chunk stamped with this watermark arrives
            // after the rows it selects.
            state.published_seq.store(ing.next_seq, Ordering::Release);
            refresh_ingest_snapshot(&state, &ing);
        }
        self.maybe_auto_compact(&state)?;
        Ok(seq)
    }

    /// Soft-deletes one id in the default namespace. The stored rows stay
    /// in place; a tombstone suppresses them at result emission on the
    /// workers, and the client dead-set guarantees the id never appears in
    /// results even before the tombstone broadcast lands. Returns `false`
    /// when the id was not live.
    ///
    /// # Errors
    /// Transport failures.
    pub fn delete(&self, id: u64) -> Result<bool, CoreError> {
        self.delete_ns(0, id)
    }

    /// Soft-deletes one id in namespace `ns` (see [`EngineCore::delete`]).
    ///
    /// # Errors
    /// Unknown namespace or transport failures.
    pub fn delete_ns(&self, ns: u16, id: u64) -> Result<bool, CoreError> {
        let state = self.namespace(ns)?;
        let mut ing = state.ingest.lock();
        let live = (state.base.read().by_id.contains_key(&id)
            || ing.pending.iter().any(|p| p.id == id))
            && !ing.deleted.contains_key(&id);
        if !live {
            return Ok(false);
        }
        let seq = ing.next_seq;
        ing.next_seq += 1;
        let msg = DeleteIds {
            ns: state.ns,
            epoch: u64::MAX,
            ids: vec![id],
            seq,
        };
        for m in 0..self.config.n_machines {
            self.shared
                .cluster
                .send(m, ToWorker::DeleteIds(msg.clone()).to_bytes())?;
        }
        ing.tombstones.insert(id, seq);
        Arc::make_mut(&mut ing.deleted).insert(id, seq);
        mark_overridden(&mut ing, id);
        state.published_seq.store(ing.next_seq, Ordering::Release);
        refresh_ingest_snapshot(&state, &ing);
        Ok(true)
    }

    /// Folds every pending delta row of the default namespace into its
    /// home IVF list and drops tombstoned rows, publishing the result as a
    /// new epoch through the same `BeginEpoch → InstallLists → EpochReady
    /// → swap` handshake as live migration — searches in flight keep their
    /// old epoch and stay bit-consistent; new admissions see only the
    /// compacted lists. Under SQ8 the recut lists are re-quantized
    /// client-side. A no-op (nothing pending, nothing deleted) publishes
    /// no epoch.
    ///
    /// # Errors
    /// Transport failures or a handshake timeout (the incumbent epoch
    /// stays in force).
    pub fn compact(&self) -> Result<CompactionReport, CoreError> {
        let state = Arc::clone(&self.ns0);
        self.compact_state(&state)
    }

    /// Folds pending deltas of namespace `ns` (see
    /// [`EngineCore::compact`]).
    ///
    /// # Errors
    /// Unknown namespace, transport failures or a handshake timeout.
    pub fn compact_ns(&self, ns: u16) -> Result<CompactionReport, CoreError> {
        let state = self.namespace(ns)?;
        self.compact_state(&state)
    }

    fn compact_state(&self, state: &NamespaceState) -> Result<CompactionReport, CoreError> {
        let mut sup = state.supervisor.lock();
        self.gc_retired(state, &mut sup);
        let mut ing = state.ingest.lock();
        if ing.pending.is_empty() && ing.deleted.is_empty() && ing.tombstones.is_empty() {
            return Ok(CompactionReport {
                epoch: state.routing.read().epoch,
                folded_rows: 0,
                dropped_tombstones: 0,
                noop: true,
            });
        }
        let cur = Arc::clone(&state.routing.read());
        // Epoch numbers are shared with migration and never reused.
        let epoch = sup.next_epoch;
        sup.next_epoch += 1;

        // Newest pending upsert per id; ids deleted after their last
        // upsert drop out entirely (a delete always outsequences the
        // upserts it follows).
        let mut latest: HashMap<u64, (u32, u64)> = HashMap::new();
        for p in &ing.pending {
            if ing.deleted.contains_key(&p.id) {
                continue;
            }
            let e = latest.entry(p.id).or_insert((p.cluster, p.seq));
            if p.seq >= e.1 {
                *e = (p.cluster, p.seq);
            }
        }
        let folded_rows = latest.len();
        let dropped_tombstones = ing.deleted.len();

        // Recut membership: old members minus deleted/re-homed ids, plus
        // each surviving pending id at its new home. Additions are sorted
        // by sequence so list order is deterministic.
        let mut members: Vec<Vec<u64>> = ing
            .members
            .iter()
            .map(|m| {
                m.iter()
                    .copied()
                    .filter(|id| !ing.deleted.contains_key(id) && !latest.contains_key(id))
                    .collect()
            })
            .collect();
        let mut additions: Vec<(u64, u32, u64)> = latest
            .iter()
            .map(|(&id, &(cluster, seq))| (id, cluster, seq))
            .collect();
        additions.sort_unstable_by_key(|&(_, _, seq)| seq);
        for (id, cluster, _) in additions {
            members[cluster as usize].push(id);
        }

        let is_ip = !matches!(state.metric, Metric::L2);
        let base = state.base.read();
        // The published epoch carries prewarm samples of the lists it
        // serves, so thresholds stay as tight as a fresh build's however
        // many write cycles came before.
        let prewarm = Arc::new(PrewarmSamples::cut(
            state.prewarm_per_list,
            state.prewarm_seed.wrapping_add(epoch),
            &members,
            &base,
            Some((&cur.prewarm, &ing.overridden)),
        )?);
        let control = self.control.lock();
        let sends = (|| -> Result<(), CoreError> {
            for (s, clusters) in cur.shard_clusters.iter().enumerate() {
                for (b, range) in cur.dim_ranges.iter().enumerate() {
                    let machine = cur.plan.machine_of(s, b);
                    let begin = BeginEpoch {
                        ns: state.ns,
                        epoch,
                        shard: s as u32,
                        dim_block: b as u32,
                        dim_start: range.start as u64,
                        dim_end: range.end as u64,
                        total_dim_blocks: cur.plan.dim_blocks as u32,
                        expected_pieces: clusters.len() as u64,
                    };
                    self.shared
                        .cluster
                        .send(machine, ToWorker::BeginEpoch(begin).to_bytes())?;
                    let pieces: Vec<ListPiece> = clusters
                        .iter()
                        .map(|&c| {
                            let rows = members[c as usize].iter().map(|id| base.by_id[id]);
                            let cut = cut_list(&base.store, rows, *range, is_ip, state.sq8);
                            ListPiece {
                                cluster: c,
                                dim_start: range.start as u64,
                                dim_end: range.end as u64,
                                ids: cut.ids,
                                flat: cut.flat,
                                segs: cut.segs,
                                piece_norms_sq: cut.range_norms_sq,
                                total_norms_sq: cut.total_norms_sq,
                            }
                        })
                        .collect();
                    let msg = InstallLists {
                        ns: state.ns,
                        epoch,
                        shard: s as u32,
                        dim_block: b as u32,
                        pieces,
                    };
                    self.shared
                        .cluster
                        .send(machine, ToWorker::InstallLists(msg).to_bytes())?;
                }
            }
            Ok(())
        })();
        drop(base);
        // Await one activation ack per machine (the migration handshake).
        let acks = sends.and_then(|()| self.await_epoch_ready(&control, state.ns, epoch));
        drop(control);
        if let Err(e) = acks {
            self.abort_epoch(state.ns, epoch);
            return Err(e);
        }

        // Swap admissions onto the compacted epoch; the old one retires
        // until its in-flight queries drain, exactly like a migration.
        let next = Arc::new(RoutingEpoch::new(
            epoch,
            cur.plan,
            cur.assignment.clone(),
            state.dim,
            prewarm,
            &sup.tuned,
        )?);
        drop(cur);
        {
            let mut routing = state.routing.write();
            sup.retired.push(Arc::clone(&routing));
            *routing = next;
        }
        *state.list_sizes.write() = members.iter().map(Vec::len).collect();
        // In-flight queries of the retired epoch re-rank against whatever
        // is left; the ids swept here are dead to them already.
        state.base.write().sweep(&ing.deleted);
        ing.members = members;
        ing.pending.clear();
        ing.tombstones.clear();
        ing.deleted = Arc::default();
        // Every id written before this point is folded into the lists the
        // new epoch's samples were cut from.
        ing.overridden = Arc::default();
        refresh_ingest_snapshot(state, &ing);
        Ok(CompactionReport {
            epoch,
            folded_rows,
            dropped_tombstones,
            noop: false,
        })
    }

    /// Auto-compaction hook: folds deltas once `compact_after` upserts are
    /// pending (0 disables; manual [`EngineCore::compact`] calls only).
    /// When the background compactor is running it owns threshold-driven
    /// folding, and the ingest path never blocks on a handshake.
    fn maybe_auto_compact(&self, state: &NamespaceState) -> Result<(), CoreError> {
        let after = self.config.compact_after;
        if after == 0 || self.config.compact_interval_ms > 0 {
            return Ok(());
        }
        let due = state.ingest.lock().pending.len() >= after;
        if due {
            self.compact_state(state)?;
        }
        Ok(())
    }

    // --- Adaptive replanning -----------------------------------------

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
        let state = Arc::clone(&self.ns0);
        let mut sup = state.supervisor.lock();
        self.tick_locked(&state, &mut sup)
    }

    /// Forces a live migration of the default namespace to `plan`
    /// (diagnostics / benchmarks), bypassing the cost model but using the
    /// same epoch handshake.
    ///
    /// # Errors
    /// [`CoreError::Config`] when the plan does not fit the deployment;
    /// transport failures or a handshake timeout otherwise.
    pub fn migrate_to(&self, plan: PartitionPlan) -> Result<MigrationReport, CoreError> {
        let state = Arc::clone(&self.ns0);
        if plan.machines() != self.config.n_machines {
            return Err(CoreError::Config(format!(
                "plan {} needs {} machines but the deployment has {}",
                plan.label(),
                plan.machines(),
                self.config.n_machines
            )));
        }
        if plan.dim_blocks > state.dim {
            return Err(CoreError::Config(format!(
                "plan {} needs more dimension blocks than dimensions ({})",
                plan.label(),
                state.dim
            )));
        }
        let weights: Vec<u64> = state
            .list_sizes
            .read()
            .iter()
            .map(|&s| s as u64 + 1)
            .collect();
        let cur = Arc::clone(&state.routing.read());
        let assignment = if plan == cur.plan {
            ShardAssignment::rebalance(&cur.assignment, &weights, plan.vec_shards, 1.0)
        } else {
            pack_shards(self.config.balanced_load, &weights, plan.vec_shards)
        };
        drop(cur);
        let mut sup = state.supervisor.lock();
        self.gc_retired(&state, &mut sup);
        self.execute_migration(&state, &mut sup, plan, assignment)
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
        let routing = Arc::clone(&state.routing.read());
        let assignment = if plan == routing.plan {
            routing.assignment.clone()
        } else {
            let sizes = state.list_sizes.read();
            let weights: Vec<u64> = sizes.iter().map(|&s| s as u64 + 1).collect();
            pack_shards(self.config.balanced_load, &weights, plan.vec_shards)
        };
        drop(routing);
        let rows = (0..queries.len()).map(|q| queries.row(q));
        let plans = [(plan, &assignment)];
        let entering = with_sample_view(state, opts.k, |view| {
            planner::survivors_entering(view, rows, opts.nprobe, &plans, 1)
        });
        Ok(entering.into_iter().next().unwrap_or_default())
    }

    /// Drain-time eviction hook: retired epochs must not wait for the next
    /// supervisor tick (which may never come in manual mode) to release
    /// their worker-side storage. Non-blocking and O(1) when nothing is
    /// retired.
    fn maybe_gc_retired(&self, state: &NamespaceState) {
        let Some(mut sup) = state.supervisor.try_lock() else {
            return;
        };
        if !sup.retired.is_empty() {
            self.gc_retired(state, &mut sup);
        }
    }

    /// Auto-tick hook: runs a supervisor pass when enough queries completed
    /// since the last check. Non-blocking — if another thread is already
    /// ticking, this one skips.
    fn maybe_auto_replan(&self, state: &Arc<NamespaceState>) {
        let every = self.config.replan.check_every;
        if every == 0 {
            return;
        }
        let done = state.probes.queries();
        let Some(mut sup) = state.supervisor.try_lock() else {
            return;
        };
        if done < sup.next_check {
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
        let pending = state.ingest.lock().pending.len();
        let profile = WorkloadProfile::observed(
            state.list_sizes.read().clone(),
            &smoothed_counts,
            state.dim,
            smoothed_queries as usize,
            nprobe,
            k,
        )?
        .with_pending_deltas(pending)
        .with_window(window.mean_batch().min(self.config.max_inflight));
        let cur = Arc::clone(&state.routing.read());
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
        // challengers the amortized cost of moving to them.
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
            let next = RoutingEpoch::new(
                cur.epoch + 1,
                plan,
                assignment,
                state.dim,
                Arc::clone(&cur.prewarm),
                &sup.tuned,
            )?;
            let (bytes, msgs, _) = self.migration_volume(state, &cur, &next);
            let migration_ns = sup.tuned.migration_ns(bytes, msgs);
            let score = cost + migration_ns / replan.amortize_windows;
            // Near-ties are settled by the choice's own rule, and for the
            // incumbent where it has none (`CostModel::challenger_score`).
            let preferred = sup.tuned.challenger_score(cur.plan, plan, score);
            if best.as_ref().is_none_or(|b| preferred < b.4) {
                best = Some((next.plan, next.assignment, score, cost, preferred));
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
        let mut report = self.execute_migration(state, sup, plan, assignment)?;
        report.stay_ns = stay_ns;
        report.projected_ns = cost;
        report.candidates = candidates;
        Ok(ReplanOutcome::Switched(report))
    }

    /// Evicts retired epochs whose last in-flight query has drained (only
    /// the supervisor's own Arc remains).
    fn gc_retired(&self, state: &NamespaceState, sup: &mut SupervisorState) {
        sup.retired.retain(|old| {
            if Arc::strong_count(old) > 1 {
                return true;
            }
            for m in 0..self.config.n_machines {
                let _ = self.shared.cluster.send(
                    m,
                    ToWorker::EvictEpoch {
                        ns: state.ns,
                        epoch: old.epoch,
                    }
                    .to_bytes(),
                );
            }
            false
        });
    }

    /// Walks the migration schedule from `cur` to `next` without
    /// materializing it: for every cluster, the overlap of each old
    /// dimension block with each new dimension block is one piece, shipped
    /// from the machine storing the old block to the machine hosting the
    /// new one. The supervisor scores many candidate layouts per tick;
    /// streaming the schedule keeps those evaluations allocation-free —
    /// only the one winning layout ever materializes its specs.
    fn visit_transfers(
        &self,
        state: &NamespaceState,
        cur: &RoutingEpoch,
        next: &RoutingEpoch,
        mut visit: impl FnMut(NodeId, TransferSpec),
    ) {
        for c in 0..state.list_sizes.read().len() {
            let s_old = cur.assignment.cluster_to_shard.get(c).copied().unwrap_or(0) as usize;
            let s_old = s_old.min(cur.plan.vec_shards - 1);
            let s_new = next
                .assignment
                .cluster_to_shard
                .get(c)
                .copied()
                .unwrap_or(0) as usize;
            let s_new = s_new.min(next.plan.vec_shards - 1);
            for (b_new, r_new) in next.dim_ranges.iter().enumerate() {
                let dest = next.plan.machine_of(s_new, b_new);
                for (b_old, r_old) in cur.dim_ranges.iter().enumerate() {
                    let start = r_new.start.max(r_old.start);
                    let end = r_new.end.min(r_old.end);
                    if start >= end {
                        continue;
                    }
                    let src = cur.plan.machine_of(s_old, b_old);
                    visit(
                        src,
                        TransferSpec {
                            cluster: c as u32,
                            src_epoch: cur.epoch,
                            src_shard: s_old as u32,
                            dim_start: start as u64,
                            dim_end: end as u64,
                            dest: dest as u64,
                            dest_shard: s_new as u32,
                            dest_dim_block: b_new as u32,
                        },
                    );
                }
            }
        }
    }

    /// Materializes the migration schedule (used once, for the winning
    /// layout).
    fn build_transfers(
        &self,
        state: &NamespaceState,
        cur: &RoutingEpoch,
        next: &RoutingEpoch,
    ) -> Vec<(NodeId, TransferSpec)> {
        let mut out = Vec::new();
        self.visit_transfers(state, cur, next, |src, t| out.push((src, t)));
        out
    }

    /// Modeled `(payload bytes, network messages, network pieces)` of the
    /// migration from `cur` to `next`. Self-directed pieces install locally
    /// and cost nothing on the fabric.
    fn migration_volume(
        &self,
        state: &NamespaceState,
        cur: &RoutingEpoch,
        next: &RoutingEpoch,
    ) -> (u64, u64, u64) {
        let is_ip = !matches!(state.metric, Metric::L2);
        let sq8 = state.sq8;
        let sizes = state.list_sizes.read().clone();
        let mut bytes = 0u64;
        let mut pieces = 0u64;
        let mut groups: HashSet<(NodeId, u64, u32, u32)> = HashSet::new();
        self.visit_transfers(state, cur, next, |src, t| {
            if src as u64 == t.dest {
                return;
            }
            let rows = sizes.get(t.cluster as usize).copied().unwrap_or(0) as u64;
            let width = t.dim_end - t.dim_start;
            // Header + ids + payload (+ norm tables under inner-product
            // metrics) — mirrors the ListPiece wire layout. SQ8 ships one
            // byte per coordinate plus a 4-byte code sum per row and a
            // fixed segment header instead of 4-byte floats.
            let mut piece = 44 + rows * 8;
            piece += if sq8 {
                40 + rows * (width + 4)
            } else {
                rows * width * 4
            };
            if is_ip {
                piece += rows * 8;
            }
            bytes += piece;
            pieces += 1;
            groups.insert((src, t.dest, t.dest_shard, t.dest_dim_block));
        });
        (bytes, groups.len() as u64, pieces)
    }

    /// Executes a live layout switch: announce the next epoch to every
    /// machine, ship the pieces, await activation acks, then atomically
    /// swap the routing Arc. The old epoch stays on the workers until its
    /// last in-flight query drains (see [`EngineCore::gc_retired`]).
    fn execute_migration(
        &self,
        state: &NamespaceState,
        sup: &mut SupervisorState,
        plan: PartitionPlan,
        assignment: ShardAssignment,
    ) -> Result<MigrationReport, CoreError> {
        let cur = Arc::clone(&state.routing.read());
        // Epoch numbers are never reused, even across failed attempts: a
        // stale ack or piece from an aborted handshake must not be able to
        // impersonate a later one.
        let epoch = sup.next_epoch;
        sup.next_epoch += 1;
        // A migration moves the lists without changing them: the samples
        // stay valid.
        let next = Arc::new(RoutingEpoch::new(
            epoch,
            plan,
            assignment,
            state.dim,
            Arc::clone(&cur.prewarm),
            &sup.tuned,
        )?);
        let specs = self.build_transfers(state, &cur, &next);
        let (modeled_bytes, msgs, network_pieces) = self.migration_volume(state, &cur, &next);
        let clusters_moved = cur.assignment.moved_clusters(&next.assignment).len();
        let machines = self.config.n_machines;

        // Hold the control channel for the whole handshake so concurrent
        // stats collectors cannot consume the activation acks.
        let control = self.control.lock();

        let mut expected = vec![0u64; machines];
        for (_, t) in &specs {
            expected[t.dest as usize] += 1;
        }
        let sends = (|| -> Result<(), CoreError> {
            for (m, &expected_pieces) in expected.iter().enumerate() {
                let (shard, dim_block) = next.plan.block_of(m);
                let range = next.dim_ranges[dim_block];
                let begin = BeginEpoch {
                    ns: state.ns,
                    epoch,
                    shard: shard as u32,
                    dim_block: dim_block as u32,
                    dim_start: range.start as u64,
                    dim_end: range.end as u64,
                    total_dim_blocks: next.plan.dim_blocks as u32,
                    expected_pieces,
                };
                self.shared
                    .cluster
                    .send(m, ToWorker::BeginEpoch(begin).to_bytes())?;
            }
            let mut by_src: BTreeMap<NodeId, Vec<TransferSpec>> = BTreeMap::new();
            for (src, t) in &specs {
                by_src.entry(*src).or_default().push(t.clone());
            }
            // Ship each source's transfers in bounded waves so foreground
            // query chunks can interleave in worker mailboxes instead of
            // stalling behind one giant transfer message. Activation counts
            // pieces, not messages, so chunking never changes the handshake.
            let wave = self.config.replan.max_pieces_per_tick;
            for (src, transfers) in by_src {
                let wave = if wave == 0 {
                    transfers.len().max(1)
                } else {
                    wave
                };
                for chunk in transfers.chunks(wave) {
                    let msg = MigrateOut {
                        ns: state.ns,
                        epoch,
                        transfers: chunk.to_vec(),
                    };
                    self.shared
                        .cluster
                        .send(src, ToWorker::MigrateOut(msg).to_bytes())?;
                }
            }
            Ok(())
        })();
        // Await one activation ack per machine.
        let acks = sends.and_then(|()| self.await_epoch_ready(&control, state.ns, epoch));
        drop(control);
        if let Err(e) = acks {
            self.abort_epoch(state.ns, epoch);
            return Err(e);
        }

        // The migration shipped only the epoch's *list* storage; rows still
        // sitting in delta lists — and the tombstones suppressing their
        // stale copies — live outside it. Re-home both onto the new epoch,
        // holding the ingest lock across the routing swap so no concurrent
        // ingest op can slip between re-ship and swap.
        let ingest = state.ingest.lock();
        if let Err(e) = self.reship_ingest(state, &ingest, &next) {
            drop(ingest);
            self.abort_epoch(state.ns, epoch);
            return Err(e);
        }

        // Atomically route new admissions to the new epoch. In-flight
        // queries hold Arcs of the old epoch; it retires until they drain.
        let report = MigrationReport {
            from_epoch: cur.epoch,
            to_epoch: next.epoch,
            from_plan: cur.plan,
            to_plan: next.plan,
            clusters_moved,
            network_pieces,
            modeled_bytes,
            migration_ns: sup.tuned.migration_ns(modeled_bytes, msgs),
            stay_ns: 0.0,
            projected_ns: 0.0,
            candidates: Vec::new(),
        };
        drop(cur);
        {
            let mut routing = state.routing.write();
            sup.retired.push(Arc::clone(&routing));
            *routing = next;
        }
        drop(ingest);
        Ok(report)
    }

    /// Replays the live ingest state (tombstones + newest pending row per
    /// id) into a freshly activated epoch. Rows ship in sequence order per
    /// destination so the worker-side delta lists stay seq-sorted; older
    /// pending copies of a re-upserted id are covered by its supersede
    /// tombstone and need not travel.
    fn reship_ingest(
        &self,
        state: &NamespaceState,
        ing: &IngestState,
        next: &RoutingEpoch,
    ) -> Result<(), CoreError> {
        if ing.tombstones.is_empty() && ing.pending.is_empty() {
            return Ok(());
        }
        let epoch = next.epoch;
        let machines = self.config.n_machines;
        let mut tombs: Vec<(u64, u64)> = ing.tombstones.iter().map(|(&id, &s)| (id, s)).collect();
        tombs.sort_unstable_by_key(|&(_, seq)| seq);
        for (id, seq) in tombs {
            let msg = DeleteIds {
                ns: state.ns,
                epoch,
                ids: vec![id],
                seq,
            };
            for m in 0..machines {
                self.shared
                    .cluster
                    .send(m, ToWorker::DeleteIds(msg.clone()).to_bytes())?;
            }
        }
        let mut latest: HashMap<u64, (u32, u64)> = HashMap::new();
        for p in &ing.pending {
            let e = latest.entry(p.id).or_insert((p.cluster, p.seq));
            if p.seq >= e.1 {
                *e = (p.cluster, p.seq);
            }
        }
        let mut rows: Vec<(u64, u32, u64)> = latest
            .into_iter()
            .map(|(id, (cluster, seq))| (id, cluster, seq))
            .collect();
        rows.sort_unstable_by_key(|&(_, _, seq)| seq);
        let base = state.base.read();
        let is_ip = !matches!(state.metric, Metric::L2);
        for (id, cluster, seq) in rows {
            let Some(&row) = base.by_id.get(&id) else {
                debug_assert!(false, "pending delta row missing from the base store");
                continue;
            };
            let vector = base.store.row(row);
            let shard = next
                .assignment
                .cluster_to_shard
                .get(cluster as usize)
                .copied()
                .unwrap_or(0);
            let total_norm_sq = if is_ip { ip(vector, vector) } else { 0.0 };
            for (b, range) in next.dim_ranges.iter().enumerate() {
                let machine = next.plan.machine_of(shard as usize, b);
                let slice = &vector[range.start..range.end];
                let msg = DeltaUpsert {
                    ns: state.ns,
                    epoch,
                    shard,
                    dim_start: range.start as u64,
                    dim_end: range.end as u64,
                    ids: vec![id],
                    seqs: vec![seq],
                    flat: slice.to_vec(),
                    block_norms_sq: if is_ip {
                        vec![ip(slice, slice)]
                    } else {
                        Vec::new()
                    },
                    total_norms_sq: if is_ip {
                        vec![total_norm_sq]
                    } else {
                        Vec::new()
                    },
                };
                self.shared
                    .cluster
                    .send(machine, ToWorker::UpsertDelta(msg).to_bytes())?;
            }
        }
        Ok(())
    }

    /// Awaits every machine's [`ToClient::EpochReady`] for `(ns, epoch)`.
    /// Stale stats replies and acks of older epochs are skipped; on expiry
    /// the caller aborts the epoch and the incumbent layout stays in force.
    fn await_epoch_ready(
        &self,
        control: &Receiver<(NodeId, ToClient)>,
        ns: u16,
        epoch: u64,
    ) -> Result<(), CoreError> {
        let machines = self.config.n_machines;
        let ready = |msg: &ToClient| *msg == ToClient::EpochReady { ns, epoch };
        await_acks(
            control,
            Instant::now() + MIGRATION_HANDSHAKE_TIMEOUT,
            machines,
            once_per_machine(machines, ready),
        )
    }

    /// Best-effort cleanup of a half-installed epoch after a failed
    /// handshake, so a retry cannot meet leftover state.
    fn abort_epoch(&self, ns: u16, epoch: u64) {
        for m in 0..self.config.n_machines {
            let _ = self
                .shared
                .cluster
                .send(m, ToWorker::EvictEpoch { ns, epoch }.to_bytes());
        }
    }

    /// Gathers per-worker pruning/memory statistics.
    ///
    /// Runs over the control channel, so it can proceed while search
    /// sessions are in flight; concurrent collectors serialize on the
    /// channel lock.
    ///
    /// # Errors
    /// Transport failures or protocol violations.
    pub fn collect_stats(&self) -> Result<EngineStats, CoreError> {
        let control = self.control.lock();
        // Drop stragglers from an earlier, timed-out collection.
        while control.try_recv().is_ok() {}
        let workers = self.shared.cluster.workers();
        for w in 0..workers {
            self.shared.cluster.send(w, ToWorker::GetStats.to_bytes())?;
        }
        let mut stats = EngineStats {
            slices: SliceStats::new(self.plan().dim_blocks),
            worker_memory_bytes: vec![0; workers],
            ..EngineStats::default()
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        // One reply per worker: a straggler from an earlier timed-out
        // collection that arrives mid-flight must not be merged twice.
        let mut seen = vec![false; workers];
        await_acks(&control, deadline, workers, |from, msg| {
            let ToClient::Stats(r) = msg else {
                return false;
            };
            if from >= workers || std::mem::replace(&mut seen[from], true) {
                return false;
            }
            stats.slices.merge_report(&r.slice_in, &r.slice_pruned);
            stats.worker_memory_bytes[from] = r.memory_bytes;
            stats.scanned_point_dims += r.scanned_point_dims;
            stats.f32_block_bytes += r.f32_block_bytes;
            stats.sq8_block_bytes += r.sq8_block_bytes;
            stats.compute_ns += r.compute_ns;
            stats.delta_block_bytes += r.delta_bytes;
            stats.delta_rows += r.delta_rows;
            stats.tombstone_entries += r.tombstone_entries;
            stats.cache_block_bytes += r.cache_block_bytes;
            stats.spilled_block_bytes += r.spilled_block_bytes;
            true
        })?;
        Ok(stats)
    }

    /// Zeroes worker statistics counters.
    ///
    /// # Errors
    /// Transport failures.
    pub fn reset_stats(&self) -> Result<(), CoreError> {
        for w in 0..self.shared.cluster.workers() {
            self.shared
                .cluster
                .send(w, ToWorker::ResetStats.to_bytes())?;
        }
        Ok(())
    }

    /// Point-in-time cluster metrics (cumulative since the build finished).
    pub fn cluster_snapshot(&self) -> ClusterSnapshot {
        self.shared.cluster.snapshot()
    }
}

/// Records that `id`'s prewarm sample (if any) no longer reflects the
/// live vector. Copies the shared set only when it actually changes.
fn mark_overridden(ing: &mut IngestState, id: u64) {
    if !ing.overridden.contains(&id) {
        Arc::make_mut(&mut ing.overridden).insert(id);
    }
}

/// Publishes a fresh immutable snapshot of a namespace's ingest state for
/// the search path. Called with the ingest lock held. The id sets are
/// shared, not copied: the next ingest op that changes one clones it then
/// (copy-on-write), so publishing costs nothing per id of history.
fn refresh_ingest_snapshot(state: &NamespaceState, ing: &IngestState) {
    let snap = IngestSnapshot {
        deleted: Arc::clone(&ing.deleted),
        pending_clusters: ing.pending.iter().map(|p| p.cluster).collect(),
        overridden: Arc::clone(&ing.overridden),
    };
    *state.ingest_snap.write() = Arc::new(snap);
}

/// Result of a single-query search.
#[derive(Debug, Clone)]
pub struct SingleResult {
    /// Best-first neighbor list.
    pub neighbors: Vec<Neighbor>,
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::QueryResult;
    use harmony_data::SyntheticSpec;
    use harmony_index::{FlatIndex, IvfIndex, IvfParams};

    fn dataset(n: usize, dim: usize) -> harmony_data::Dataset {
        SyntheticSpec::clustered(n, dim, 8).with_seed(42).generate()
    }

    fn engine_with(mode: EngineMode, base: &VectorStore) -> HarmonyEngine {
        let config = HarmonyConfig::builder()
            .n_machines(4)
            .nlist(16)
            .mode(mode)
            .seed(7)
            .build()
            .unwrap();
        HarmonyEngine::build(config, base).unwrap()
    }

    /// Reference: single-node IVF with the same clustering seed.
    fn reference_ivf(base: &VectorStore) -> IvfIndex {
        let mut ivf = IvfIndex::train(base, &IvfParams::new(16).with_seed(7)).unwrap();
        ivf.add(base).unwrap();
        ivf
    }

    fn ids(neighbors: &[Neighbor]) -> Vec<u64> {
        neighbors.iter().map(|n| n.id).collect()
    }

    /// Compares two result lists tolerating float-reassociation tie swaps.
    fn assert_equivalent(a: &[Neighbor], b: &[Neighbor]) {
        assert_eq!(a.len(), b.len(), "result lengths differ");
        for (x, y) in a.iter().zip(b) {
            if x.id != y.id {
                // Accept only when scores agree to float tolerance (tie swap).
                assert!(
                    (x.score - y.score).abs() <= 1e-3 * x.score.abs().max(1.0),
                    "ids differ with distinct scores: {x:?} vs {y:?}"
                );
            }
        }
    }

    #[test]
    fn all_modes_match_single_node_ivf() {
        let d = dataset(2_000, 24);
        let reference = reference_ivf(&d.base);
        let opts = SearchOptions::new(10).with_nprobe(4);
        for mode in EngineMode::ALL {
            let engine = engine_with(mode, &d.base);
            for qi in 0..10 {
                let q = d.queries.row(qi);
                let got = engine.search(q, &opts).unwrap();
                let want = reference.search(q, 10, 4).unwrap();
                assert_equivalent(&got.neighbors, &want);
            }
            engine.shutdown().unwrap();
        }
    }

    #[test]
    fn pruning_does_not_change_results() {
        let d = dataset(2_000, 24);
        let opts = SearchOptions::new(10).with_nprobe(4);
        let base_cfg = |pruning| {
            HarmonyConfig::builder()
                .n_machines(4)
                .nlist(16)
                .seed(7)
                .pruning(pruning)
                .build()
                .unwrap()
        };
        let with = HarmonyEngine::build(base_cfg(true), &d.base).unwrap();
        let without = HarmonyEngine::build(base_cfg(false), &d.base).unwrap();
        for qi in 0..10 {
            let q = d.queries.row(qi);
            let a = with.search(q, &opts).unwrap();
            let b = without.search(q, &opts).unwrap();
            assert_equivalent(&a.neighbors, &b.neighbors);
        }
        with.shutdown().unwrap();
        without.shutdown().unwrap();
    }

    #[test]
    fn batch_matches_single_queries() {
        let d = dataset(1_500, 16);
        let opts = SearchOptions::new(5).with_nprobe(4);
        // More rows than one in-flight window, so admission goes through
        // several rounds of sub-batches; once on the planner's layout and
        // once on a 2-shard plan, where the rows of a sub-batch part ways
        // between their first and second shard visit.
        let rows: Vec<usize> = (0..150).map(|i| (i * 37 + 3) % d.base.len()).collect();
        let queries = d.base.gather(&rows);
        for plan in [None, Some(PartitionPlan::new(2, 2).unwrap())] {
            let mut config = HarmonyConfig::builder()
                .n_machines(4)
                .nlist(16)
                .seed(7)
                .max_inflight(64);
            if let Some(plan) = plan {
                config = config.plan(plan);
            }
            let engine = HarmonyEngine::build(config.build().unwrap(), &d.base).unwrap();
            let batch = engine.search_batch(&queries, &opts).unwrap();
            assert_eq!(batch.results.len(), rows.len());
            for (qi, res) in batch.results.iter().enumerate() {
                assert_eq!(res.first().map(|n| n.id), Some(rows[qi] as u64));
                let single = engine.search(queries.row(qi), &opts).unwrap();
                assert_equivalent(res, &single.neighbors);
            }
            let leftover: f64 = engine.outstanding_load().iter().sum();
            assert!(leftover.abs() < 1e-6, "load estimates leaked: {leftover}");
            engine.shutdown().unwrap();
        }
    }

    /// Regression: prewarm used to decay under churn — samples of written
    /// ids were skipped forever and never replaced, so thresholds loosened
    /// with every write cycle. A compaction now recuts them.
    #[test]
    fn compaction_recuts_prewarm_and_drains_overridden() {
        let d = dataset(1_200, 16);
        let engine = engine_with(EngineMode::Harmony, &d.base);
        let ns = &engine.ns0;
        let per_list = engine.config().prewarm;
        let sample_ids = || -> Vec<u64> {
            let routing = ns.routing.read();
            let samples = &routing.prewarm;
            (0..samples.store.len())
                .map(|r| samples.store.id(r))
                .collect()
        };
        for cycle in 0..4u64 {
            // The worst case for the samples: overwrite and delete the very
            // ids they hold, besides inserting new ones.
            let sampled = sample_ids();
            for (i, &id) in sampled.iter().take(24).enumerate() {
                let mut v = d.base.row(i).to_vec();
                v[0] += 0.125 * (cycle + 1) as f32;
                engine.upsert(id, &v).unwrap();
            }
            for &id in sampled.iter().skip(24).take(12) {
                engine.delete(id).unwrap();
            }
            for i in 0..8u64 {
                engine
                    .upsert(50_000 + cycle * 8 + i, d.base.row(i as usize))
                    .unwrap();
            }
            assert!(!ns.ingest.lock().overridden.is_empty());
            assert!(!engine.compact().unwrap().noop);

            assert!(ns.ingest.lock().overridden.is_empty());
            assert!(ns.ingest_snap.read().overridden.is_empty());
            let routing = Arc::clone(&ns.routing.read());
            let base = ns.base.read();
            // Nor does the exact copy keep superseded or deleted rows.
            let live: usize = engine.list_sizes().iter().sum();
            assert_eq!((base.store.len(), base.by_id.len()), (live, live));
            for (c, &size) in engine.list_sizes().iter().enumerate() {
                // Exactly what a fresh build over this list would hold.
                let rows = &routing.prewarm.rows[c];
                assert_eq!(rows.len(), size.min(per_list), "cycle {cycle} list {c}");
                for &r in rows {
                    let id = routing.prewarm.store.id(r);
                    let live = base.store.row(base.by_id[&id]);
                    assert_eq!(routing.prewarm.store.row(r), live, "stale sample {id}");
                }
            }
        }
        engine.shutdown().unwrap();
    }

    #[test]
    fn self_queries_find_themselves() {
        let d = dataset(1_000, 16);
        let engine = engine_with(EngineMode::Harmony, &d.base);
        let opts = SearchOptions::new(1).with_nprobe(2);
        for row in [0usize, 100, 500] {
            let res = engine.search(d.base.row(row), &opts).unwrap();
            assert_eq!(res.neighbors[0].id, row as u64, "row {row}");
            assert!(res.neighbors[0].score < 1e-6);
        }
        engine.shutdown().unwrap();
    }

    #[test]
    fn full_probe_reaches_perfect_recall() {
        let d = dataset(800, 12);
        let engine = engine_with(EngineMode::Harmony, &d.base);
        let flat = FlatIndex::from_store(d.base.clone(), Metric::L2);
        let opts = SearchOptions::new(10).with_nprobe(16);
        for qi in 0..5 {
            let q = d.queries.row(qi);
            let got = ids(&engine.search(q, &opts).unwrap().neighbors);
            let want = ids(&flat.search(q, 10).unwrap());
            assert_eq!(got, want, "query {qi}");
        }
        engine.shutdown().unwrap();
    }

    #[test]
    fn build_stats_populated() {
        let d = dataset(600, 16);
        let engine = engine_with(EngineMode::Harmony, &d.base);
        let stats = engine.build_stats();
        assert!(stats.bytes_shipped > (600 * 16 * 4) as u64 / 2);
        assert_eq!(stats.plan.machines(), 4);
        engine.shutdown().unwrap();
    }

    #[test]
    fn stats_show_pruning_on_later_slices() {
        let d = dataset(2_000, 32);
        let config = HarmonyConfig::builder()
            .n_machines(4)
            .nlist(16)
            .mode(EngineMode::HarmonyDimension)
            .seed(7)
            .build()
            .unwrap();
        let engine = HarmonyEngine::build(config, &d.base).unwrap();
        let opts = SearchOptions::new(10).with_nprobe(4);
        let _ = engine.search_batch(&d.queries, &opts).unwrap();
        let stats = engine.collect_stats().unwrap();
        let ratios = stats.slices.cumulative_ratios();
        assert_eq!(ratios[0], 0.0);
        assert!(
            ratios.last().copied().unwrap_or(0.0) > 10.0,
            "later slices should show pruning, got {ratios:?}"
        );
        engine.shutdown().unwrap();
    }

    #[test]
    fn wrong_dim_query_rejected() {
        let d = dataset(500, 16);
        let engine = engine_with(EngineMode::Harmony, &d.base);
        assert!(matches!(
            engine.search(&[0.0; 8], &SearchOptions::new(3)),
            Err(CoreError::Index(_))
        ));
        engine.shutdown().unwrap();
    }

    #[test]
    fn empty_base_rejected() {
        let config = HarmonyConfig::builder().build().unwrap();
        assert!(matches!(
            HarmonyEngine::build(config, &VectorStore::new(8)),
            Err(CoreError::Config(_))
        ));
    }

    #[test]
    fn modes_choose_expected_plans() {
        let d = dataset(800, 16);
        let v = engine_with(EngineMode::HarmonyVector, &d.base);
        assert_eq!(v.plan(), PartitionPlan::pure_vector(4));
        v.shutdown().unwrap();
        let dm = engine_with(EngineMode::HarmonyDimension, &d.base);
        assert_eq!(dm.plan(), PartitionPlan::pure_dimension(4));
        dm.shutdown().unwrap();
    }

    /// SQ8 two-stage search must reproduce the f32 engine's results on
    /// well-separated data, report the promised memory reduction, and
    /// never exceed its exact-re-rank contract (all returned scores are
    /// exact, so they must match f32's bit for bit per id).
    #[test]
    fn sq8_two_stage_matches_f32_results() {
        // 64 dims so even a 4-way dimension plan keeps blocks ≥16 wide —
        // below that the fixed 4-byte per-row code sums eat the ≥3×
        // byte-reduction margin.
        let d = dataset(2_000, 64);
        let build = |repr| {
            let config = HarmonyConfig::builder()
                .n_machines(4)
                .nlist(16)
                .seed(7)
                .repr(repr)
                .build()
                .unwrap();
            HarmonyEngine::build(config, &d.base).unwrap()
        };
        let exact = build(harmony_index::BlockRepr::F32);
        let quant = build(harmony_index::BlockRepr::Sq8);
        let opts = SearchOptions::new(10).with_nprobe(8);
        let mut hits = 0usize;
        let mut total = 0usize;
        for qi in 0..20 {
            let q = d.queries.row(qi);
            let want = exact.search(q, &opts).unwrap().neighbors;
            let got = quant.search(q, &opts).unwrap().neighbors;
            let want_ids: HashSet<u64> = want.iter().map(|n| n.id).collect();
            total += want.len();
            for n in &got {
                if want_ids.contains(&n.id) {
                    hits += 1;
                    // Re-ranked scores are exact f32 — they differ from the
                    // pipeline's distributed partial sums only by float
                    // association, never by quantization error.
                    let w = want.iter().find(|m| m.id == n.id).unwrap();
                    assert!(
                        (n.score - w.score).abs() <= 1e-4 * w.score.abs().max(1.0),
                        "id {}: sq8 {} vs f32 {}",
                        n.id,
                        n.score,
                        w.score
                    );
                }
            }
        }
        let recall = hits as f64 / total.max(1) as f64;
        assert!(recall >= 0.99, "sq8 recall vs f32 = {recall}");

        let fs = exact.collect_stats().unwrap();
        let qs = quant.collect_stats().unwrap();
        assert_eq!(fs.sq8_block_bytes, 0);
        assert_eq!(qs.f32_block_bytes, 0);
        assert!(
            fs.f32_block_bytes as f64 >= 3.0 * qs.sq8_block_bytes as f64,
            "sq8 must shrink block bytes ≥3×: f32 {} vs sq8 {}",
            fs.f32_block_bytes,
            qs.sq8_block_bytes
        );
        exact.shutdown().unwrap();
        quant.shutdown().unwrap();
    }

    #[test]
    fn session_table_routes_by_query_id_range() {
        let table = SessionTable::default();
        let rx_a = table.register(0, 10);
        let rx_b = table.register(10, 5);
        let result = |qid| {
            ResultBatch::from(QueryResult {
                query_id: qid,
                shard: 0,
                ids: vec![],
                scores: vec![],
                candidates_seen: 0,
            })
        };
        table.route(result(3));
        table.route(result(9));
        table.route(result(10));
        table.route(result(14));
        // Out-of-range ids (no session) are dropped, not misdelivered.
        table.route(result(15));
        table.route(result(99));
        assert_eq!(rx_a.try_iter().count(), 2);
        assert_eq!(rx_b.try_iter().count(), 2);
        // After unregistering, results to the old range are dropped.
        table.unregister(0);
        table.route(result(3));
        assert!(rx_a.try_recv().is_err());
    }

    #[test]
    fn closed_session_table_disconnects_blocked_and_future_sessions() {
        use crossbeam::channel::TryRecvError;
        let table = SessionTable::default();
        let rx = table.register(0, 4);
        // Router death closes the table: the registered session's sender is
        // dropped so its receive loop sees a disconnect, not a timeout.
        table.close();
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
        // Later sessions fail fast the same way instead of waiting out
        // their whole deadline.
        let rx2 = table.register(10, 4);
        assert!(matches!(rx2.try_recv(), Err(TryRecvError::Disconnected)));
        // Routing into a closed table is a no-op, not a panic.
        table.route(ResultBatch {
            shard: 0,
            query_ids: vec![1],
            result_ends: vec![0],
            ids: vec![],
            scores: vec![],
            candidates_seen: vec![0],
        });
    }

    #[test]
    fn concurrent_sessions_match_serial_results() {
        let d = dataset(2_000, 24);
        let engine = engine_with(EngineMode::Harmony, &d.base);
        let opts = SearchOptions::new(5).with_nprobe(4);
        let batches: Vec<VectorStore> = (0..4)
            .map(|t| {
                let rows: Vec<usize> = (0..16).map(|i| (t * 97 + i * 13) % d.base.len()).collect();
                d.base.gather(&rows)
            })
            .collect();
        let serial: Vec<_> = batches
            .iter()
            .map(|b| engine.search_batch(b, &opts).unwrap().results)
            .collect();
        let concurrent: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = batches
                .iter()
                .map(|b| s.spawn(|| engine.search_batch(b, &opts).unwrap().results))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (se, co) in serial.iter().zip(&concurrent) {
            for (a, b) in se.iter().zip(co) {
                assert_equivalent(a, b);
            }
        }
        engine.shutdown().unwrap();
    }

    #[test]
    fn concurrent_outstanding_load_settles_to_zero() {
        let d = dataset(1_500, 16);
        // Non-pipelined mode dispatches every shard visit at once, the
        // regression case for shard-matched discharge.
        let config = HarmonyConfig::builder()
            .n_machines(4)
            .nlist(16)
            .seed(7)
            .pipeline(false)
            .build()
            .unwrap();
        let engine = HarmonyEngine::build(config, &d.base).unwrap();
        let opts = SearchOptions::new(5).with_nprobe(8);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let _ = engine.search_batch(&d.queries, &opts).unwrap();
                });
            }
        });
        let leftover: f64 = engine.outstanding_load().iter().sum();
        assert!(
            leftover.abs() < 1e-6,
            "outstanding load must settle to ~0, got {leftover}"
        );
        engine.shutdown().unwrap();
    }

    #[test]
    fn stats_collection_runs_alongside_search_sessions() {
        let d = dataset(1_200, 16);
        let engine = engine_with(EngineMode::Harmony, &d.base);
        let opts = SearchOptions::new(5).with_nprobe(4);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..3 {
                    let _ = engine.search_batch(&d.queries, &opts).unwrap();
                }
            });
            s.spawn(|| {
                for _ in 0..3 {
                    let stats = engine.collect_stats().unwrap();
                    assert_eq!(stats.worker_memory_bytes.len(), 4);
                }
            });
        });
        engine.shutdown().unwrap();
    }

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
}
