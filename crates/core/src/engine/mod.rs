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
//! [`crate::messages::ChunkBatch`] per machine, one
//! [`crate::messages::CarryBatch`] per hop and one
//! [`crate::messages::ResultBatch`] back — per-message cost (encode, queue, thread
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
//! receive path and demultiplexes incoming [`crate::messages::ToClient::ResultBatch`]
//! messages by their first query id to the owning session's channel
//! (control replies such as [`crate::messages::ToClient::Stats`] go to a separate control
//! channel). Sends need only
//! `&self`, so sessions never serialize on one another; the per-machine
//! `outstanding` load estimates that drive §4.3 deferred-dimension
//! scheduling live in a lock-free [`LoadTracker`] shared by all sessions.
//!
//! # Adaptive replanning and routing epochs
//!
//! The partition layout is no longer fixed at build time. Routing state
//! (plan, shard assignment, dimension ranges) lives in an immutable
//! [`RoutingEpoch`], part of the namespace's published view; every query
//! captures the Arc at admission and keeps it for all its visits, so a
//! layout switch can land *between* queries but never *inside* one. A **plan
//! supervisor** ([`EngineCore::supervisor_tick`], optionally auto-run
//! every [`crate::config::ReplanConfig::check_every`] queries) folds the
//! live per-cluster probe counters ([`crate::ProbeTracker`]) into an
//! observed [`crate::WorkloadProfile`], re-scores every factorization with the cost model
//! plus a migration-cost term, and — when the projected win amortizes the
//! move — executes a live migration: the client re-runs Pre-assign for
//! the new layout (epoch N+1), cutting every grid block from its exact
//! copy with the pending writes folded in and shipping it as a
//! [`crate::messages::LoadBlock`]; machines ack as they install, the client
//! publishes the new epoch, and the old one is evicted only after its last
//! in-flight query drains (tracked by the Arc's reference count). A
//! compaction is the same recut onto the layout already in force.
//!
//! # One published view per namespace
//!
//! Everything a query may see of a namespace — the routing epoch with the
//! lists it serves, the ingest watermark, the dead and override sets, the
//! clusters holding pending delta rows — is one immutable view behind one
//! `RwLock<Arc<_>>`. Admission loads it once; a finishing query loads it
//! once more, for the dead set current then. Every writer publishes holding
//! the namespace's `ingest` mutex, through one function that takes the
//! guard as proof, *after* all of its sends (DESIGN.md §6).
//!
//! The modules follow the locks: `session` (the session table), `ingest`
//! (the `ingest` mutex, the view, every publication), `exact` (the exact
//! copy behind the `base` lock), `epoch` (routing epochs, Pre-assign),
//! `supervisor` (the `supervisor` mutex and every entry that takes it),
//! `namespace` (tenant state, build, registry, temperature).
//! Lock order: `namespaces < supervisor < ingest < base < control < view <
//! inner` (`lint.toml`).
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
//! ([`crate::Temperature`]): hot namespaces stay fully RAM-resident; warm and
//! cold namespaces spill each grid block to a part file and fault back the
//! lists a sub-batch probes through a per-worker byte-budgeted LRU list
//! cache, prefetched on every machine of the itinerary at admission
//! ([`EngineCore::set_namespace_tier`]) — faulted bytes are bit-identical,
//! so results never depend on residency. With
//! [`HarmonyConfig::compact_interval_ms`] set, a background **compactor
//! thread** — the one compaction trigger besides an explicit
//! [`EngineCore::compact`] — folds any namespace's unfolded writes once
//! they cross `compact_after`, and sweeps namespaces that opted into
//! `auto_tier` between temperatures by their access-rate EWMA.

mod epoch;
mod exact;
mod id_map;
mod ingest;
mod namespace;
mod session;
mod supervisor;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use harmony_cluster::{
    Cluster, ClusterConfig, ClusterError, ClusterSnapshot, CommMode, DelayMode, NodeId, Wire,
};
use harmony_index::{BlockRepr, Metric, VectorStore};
use parking_lot::{Mutex, RwLock};

use crate::config::HarmonyConfig;
use crate::cost::CostModel;
use crate::error::CoreError;
use crate::messages::{ToClient, ToWorker};
use crate::partition::{PartitionPlan, ShardAssignment};
use crate::planner;
use crate::pruning::SliceStats;
use crate::stats::{BuildStats, EngineStats, LoadTracker};
use crate::worker::HarmonyWorker;

pub use epoch::{MigrationReport, RoutingEpoch};
pub use ingest::CompactionReport;
pub use namespace::NamespaceState;
pub use session::SingleResult;
pub use supervisor::ReplanOutcome;

pub(crate) use epoch::PrewarmSamples;
pub(crate) use exact::ExactCopy;
pub(crate) use id_map::IdSet;
pub(crate) use namespace::cut_list;

use epoch::ship_epoch;
use namespace::{
    default_namespace_config, place_namespace, run_compactor, survey_namespace, PreparedNamespace,
};
use session::{run_router, SessionTable};

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
    // Dropped in this order: the compactor's handshakes need the router,
    // and the cluster goes down with the core, on the dropping thread.
    compactor: Option<Background>,
    router: Background,
    core: Arc<EngineCore>,
}

/// A named background thread, told to stop and joined when dropped.
struct Background {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Background {
    fn spawn(
        name: &str,
        run: impl FnOnce(Arc<AtomicBool>) + Send + 'static,
    ) -> Result<Self, CoreError> {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn({
                let stop = Arc::clone(&stop);
                move || run(stop)
            })
            .map_err(|e| CoreError::Runtime(format!("spawn {name} thread: {e}")))?;
        Ok(Self {
            stop,
            thread: Some(thread),
        })
    }
}

impl Drop for Background {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
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
    /// Next namespace id to hand out (0 is the default namespace). Ids are
    /// only ever unique numbers: `Relaxed`.
    next_ns: AtomicU16,
    /// The default namespace (always registered; kept separately so
    /// borrowing accessors like [`EngineCore::centroids`] can return
    /// references without going through the registry lock).
    ns0: Arc<NamespaceState>,
    build_stats: BuildStats,
    /// The send half of the cluster (the router owns the receive path).
    cluster: Cluster,
    next_query_id: AtomicU64,
    /// Client-side estimate of outstanding work per machine, driving the
    /// deferred-dimension scheduling of §4.3 "Load Balancing Strategies".
    outstanding: LoadTracker,
    sessions: Arc<SessionTable>,
    /// Control-plane replies (acks, stats) demultiplexed by the router.
    /// Locking the receiver serializes concurrent stats collectors.
    control: Mutex<Receiver<(NodeId, ToClient)>>,
}

/// Monotonic engine counter keeping the spill directories of multiple
/// engines in one process disjoint.
static ENGINE_SEQ: AtomicUsize = AtomicUsize::new(0);

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
        let (from, msg) = control.recv_timeout(remaining).map_err(recv_error)?;
        accepted += usize::from(accept(from, msg));
    }
    Ok(())
}

/// What a failed receive on a router-fed channel means to its caller: the
/// deadline passed, or the router — and with it the cluster — is gone.
fn recv_error(e: RecvTimeoutError) -> CoreError {
    CoreError::Cluster(match e {
        RecvTimeoutError::Timeout => ClusterError::Timeout,
        RecvTimeoutError::Disconnected => ClusterError::ShutDown,
    })
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
        // One flat directory per worker, named for the process, the engine
        // and the machine, so concurrent engines (tests, benches) never
        // collide on block file names and a worker that removes its own
        // directory leaves nothing behind under the root.
        let engine_seq = ENGINE_SEQ.fetch_add(1, Ordering::Relaxed);
        let spill_root = config.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
        let spill_prefix = format!("harmony-engine-{}-e{engine_seq}", std::process::id());
        let cache_budget = config.cache_budget_bytes;
        let ns0_cfg = default_namespace_config(&config);
        let surveyed = survey_namespace(&config, &ns0_cfg, base, None)?;
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
                transport: config.transport.clone(),
            },
            {
                move |m| {
                    let dir = spill_root.join(format!("{spill_prefix}-w{m}"));
                    HarmonyWorker::with_tiering(dir, cache_budget)
                }
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
            mut state,
            stats,
            model,
        } = place_namespace(0, &config, &ns0_cfg, config.mode, surveyed, &model)?;
        // Namespaces of namespace 0's shape reuse its scan rates.
        let rates_shape = (config.repr, config.metric, state.dim);

        // Hand the receive path to the session router; from here on the
        // cluster is send-only for every caller thread.
        let receiver = cluster.take_client_receiver()?;
        let sessions = Arc::new(SessionTable::default());
        let (control_tx, control_rx) = unbounded();
        let router = Background::spawn("harmony-client-router", {
            let sessions = Arc::clone(&sessions);
            move |stop| run_router(receiver, sessions, control_tx, stop)
        })?;

        // --- Pre-assign: ship namespace 0's grid blocks ----------------
        let t0 = Instant::now();
        let view = state.view();
        let shipped = ship_epoch(
            &cluster,
            &control_rx,
            &state,
            &view.routing,
            &state.base.read().lists(),
        )?;
        state.supervision.record_shipment(shipped);
        let bytes_shipped = cluster.snapshot().client.bytes_tx;
        let preassign = t0.elapsed();
        // Search metrics must not include the build traffic.
        cluster.reset_metrics();

        let ns0 = Arc::new(state);
        let compact_interval = config.compact_interval_ms;
        let core = Arc::new(EngineCore {
            outstanding: LoadTracker::new(config.n_machines),
            config,
            model,
            rates_shape,
            namespaces: RwLock::new(BTreeMap::from([(0, Arc::clone(&ns0))])),
            next_ns: AtomicU16::new(1),
            ns0,
            build_stats: BuildStats {
                preassign,
                bytes_shipped,
                ..stats
            },
            cluster,
            next_query_id: AtomicU64::new(0),
            sessions,
            control: Mutex::new(control_rx),
        });
        let compactor = (compact_interval > 0)
            .then(|| {
                let core = Arc::clone(&core);
                let interval = Duration::from_millis(compact_interval);
                Background::spawn("harmony-compactor", move |stop| {
                    run_compactor(core, interval, stop)
                })
            })
            .transpose()?;
        Ok(Self {
            compactor,
            router,
            core,
        })
    }

    /// Stops the background threads and all workers, releasing the cluster.
    ///
    /// # Errors
    /// Reports the first worker that panicked, if any.
    pub fn shutdown(self) -> Result<(), CoreError> {
        let Self {
            compactor,
            router,
            core,
        } = self;
        // The compactor holds an Arc of the core: it must be gone before
        // the Arc chain can be unwrapped.
        drop(compactor);
        drop(router);
        // Nothing else holds the core once the threads are gone; if
        // something did, the last Arc drop would still stop the cluster.
        if let Ok(mut core) = Arc::try_unwrap(core) {
            core.cluster.shutdown()?;
        }
        Ok(())
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
        self.ns0.view().routing.plan
    }

    /// The current routing epoch of the default namespace (0 = the
    /// initial build; bumps on every live migration or compaction).
    pub fn current_epoch(&self) -> u64 {
        self.ns0.view().routing.epoch
    }

    /// The cluster → shard assignment in force (default namespace).
    pub fn assignment(&self) -> ShardAssignment {
        self.ns0.view().routing.assignment.clone()
    }

    /// Build-stage timings (Fig. 10).
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// Inverted-list sizes (cluster load profile; reflects the last
    /// compaction). Default namespace.
    pub fn list_sizes(&self) -> Vec<usize> {
        self.ns0.view().routing.lists.sizes.clone()
    }

    /// Trained centroids of the default namespace (client-side copy).
    pub fn centroids(&self) -> &VectorStore {
        &self.ns0.centroids
    }

    /// Clusters owned by each vector shard (default namespace, current
    /// epoch).
    pub fn shard_clusters(&self) -> Vec<Vec<u32>> {
        self.ns0.view().routing.shard_clusters.clone()
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
        self.outstanding.snapshot()
    }

    /// Sends `msg` to machine `to`.
    fn send(&self, to: NodeId, msg: &ToWorker) -> Result<(), CoreError> {
        Ok(self.cluster.send(to, msg.to_bytes())?)
    }

    /// Sends `msg` to every machine, in machine order.
    fn broadcast(&self, msg: &ToWorker) -> Result<(), CoreError> {
        Ok(self.cluster.broadcast(&msg.to_bytes())?)
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
        let workers = self.cluster.workers();
        self.broadcast(&ToWorker::GetStats)?;
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
            stats.cache_hits += r.cache_hits;
            stats.cache_misses += r.cache_misses;
            stats.fault_bytes += r.fault_bytes;
            stats.spill_read_errors += r.spill_read_errors;
            true
        })?;
        Ok(stats)
    }

    /// Zeroes worker statistics counters.
    ///
    /// # Errors
    /// Transport failures.
    pub fn reset_stats(&self) -> Result<(), CoreError> {
        self.broadcast(&ToWorker::ResetStats)
    }

    /// Point-in-time cluster metrics (cumulative since the build finished).
    pub fn cluster_snapshot(&self) -> ClusterSnapshot {
        self.cluster.snapshot()
    }
}

/// What the engine's unit tests share.
#[cfg(test)]
pub(super) mod testkit {
    pub(crate) use super::*;
    pub(crate) use crate::config::{EngineMode, SearchOptions};
    pub(crate) use harmony_data::SyntheticSpec;
    pub(crate) use harmony_index::Neighbor;

    pub(crate) fn dataset(n: usize, dim: usize) -> harmony_data::Dataset {
        SyntheticSpec::clustered(n, dim, 8).with_seed(42).generate()
    }

    pub(crate) fn engine_with(mode: EngineMode, base: &VectorStore) -> HarmonyEngine {
        let config = HarmonyConfig::builder()
            .n_machines(4)
            .nlist(16)
            .mode(mode)
            .seed(7)
            .build()
            .unwrap();
        HarmonyEngine::build(config, base).unwrap()
    }

    pub(crate) fn ids(neighbors: &[Neighbor]) -> Vec<u64> {
        neighbors.iter().map(|n| n.id).collect()
    }

    /// Compares two result lists tolerating float-reassociation tie swaps.
    pub(crate) fn assert_equivalent(a: &[Neighbor], b: &[Neighbor]) {
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
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use harmony_index::{FlatIndex, IvfIndex, IvfParams};
    use std::collections::HashSet;

    /// Reference: single-node IVF with the same clustering seed.
    fn reference_ivf(base: &VectorStore) -> IvfIndex {
        let mut ivf = IvfIndex::train(base, &IvfParams::new(16).with_seed(7)).unwrap();
        ivf.add(base).unwrap();
        ivf
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
}
