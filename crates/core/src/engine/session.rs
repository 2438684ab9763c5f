//! Search sessions: the session table, the client-side router that feeds
//! it, and the admission / dispatch / collection loop of one
//! [`EngineCore::search_batch`] call. A session reads a namespace through
//! [`NamespaceState::view`] — one load per sub-batch admitted, one fresh
//! load per query finished — and `base` for the SQ8 re-rank; it cannot name
//! a writer's mutex, and [`EngineCore::after_batch`] never waits on one.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use harmony_cluster::{ClientReceiver, ClusterError, NodeId, Wire};
use harmony_index::distance::ip;
use harmony_index::kmeans::nearest_centroids;
use harmony_index::{Metric, Neighbor, Temperature, TopK, VectorStore};
use parking_lot::Mutex;

use super::ingest::NsView;
use super::namespace::NamespaceState;
use super::{recv_error, EngineCore};
use crate::config::SearchOptions;
use crate::cost::sub_batch_rows;
use crate::error::CoreError;
use crate::messages::{span, ChunkBatch, ResultBatch, ToClient, ToWorker};
use crate::stats::BatchResult;

/// Registered sessions, keyed by the base of their reserved query-id range.
#[derive(Default)]
pub(super) struct SessionTable {
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

/// The client-side router loop: drains the cluster's receive path and
/// demultiplexes results to sessions, everything else to the control
/// channel. Exits on the stop flag or once the cluster is gone.
///
/// Receiver-side injected delays (`DelayMode::Sleep` + non-blocking
/// transport) are paid here, serially — the client is modeled as one node,
/// and one NIC drains its transfers one at a time.
pub(super) fn run_router(
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
    /// The view captured at admission. Every visit of these queries
    /// executes against its routing generation, even if the engine
    /// switches mid-query, and every chunk is stamped with its watermark,
    /// so all machines of a shard row scan the identical prefix of delta
    /// rows.
    view: Arc<NsView>,
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

impl EngineCore {
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
    /// own session over the shared workers (see the [module docs](super)).
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
        state.check_rows(queries.dim(), queries.as_flat())?;
        let comm_mode = self.cluster.config().comm_mode;
        let t0 = Instant::now();

        let n = queries.len();
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
        let start = self.cluster.snapshot();
        if n == 0 {
            return Ok(BatchResult {
                results,
                wall: t0.elapsed(),
                snapshot: start.delta(&start),
                comm_mode,
            });
        }
        // Feed the auto-tier signal: this namespace is being queried.
        state.arrivals.fetch_add(n as u64, Ordering::Relaxed);
        state.probes.record_batch();

        // One deadline for the whole batch: every receive below gets only
        // the remaining budget, never a fresh full timeout.
        let deadline = Instant::now() + Duration::from_millis(opts.timeout_ms.max(1));
        let base = self.next_query_id.fetch_add(n as u64, Ordering::Relaxed);
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
        let snapshot = self.cluster.snapshot().delta(&start);

        // Traffic-driven supervision, *after* the batch's metrics capture
        // so a migration's one-time cost is not billed to this batch's
        // window.
        self.after_batch(&state);

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
        let dim_blocks = ctx.state.view().routing.plan.dim_blocks;
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
            let batch = session.rx.recv_timeout(remaining).map_err(recv_error)?;
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

    /// Finishes one query. Deleted ids are filtered first, against the view
    /// current *now*, not the admission's: a delete that returned before
    /// this query finished is in it. The worker-side tombstones are
    /// best-effort, this filter is the guarantee. Under SQ8 every surviving
    /// stage-1 candidate is then re-scored exactly against the retained
    /// base copy and the list is trimmed to `k` (prewarm entries re-score
    /// idempotently — they were exact already). Under f32 the heap is
    /// already exact.
    fn finalize_results(
        &self,
        state: &NamespaceState,
        query: &[f32],
        topk: TopK,
        k: usize,
    ) -> Vec<Neighbor> {
        let deleted = &state.view().deleted;
        let mut survivors = topk.into_sorted();
        if !deleted.is_empty() {
            survivors.retain(|n| !deleted.contains_key(&n.id));
        }
        if !state.sq8 {
            return survivors;
        }
        let base = state.base.read();
        let mut exact = TopK::new(k);
        for n in &survivors {
            let score = match base.by_id.get(&n.id) {
                Some(&row) => state.metric.score(query, base.store.row(row)),
                // Unknown id (defensive): keep the stage-1 score.
                None => n.score,
            };
            exact.push(n.id, score);
        }
        let reranked = survivors.len();
        // The re-rank is real client-side compute: bill it at the modeled
        // scan rates like the centroid and prewarm stages.
        self.cluster
            .charge_client_compute((reranked * state.dim) as u64, reranked as u64);
        exact.into_sorted()
    }

    /// Subtracts one visit's per-machine estimates from the shared tracker.
    fn discharge(&self, charge: &[(NodeId, f64)]) {
        for &(machine, amount) in charge {
            self.outstanding.sub(machine, amount);
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
        // The one synchronised load of namespace state: layout, watermark
        // and id sets of these rows come from the same publication, so
        // there is no order to read them in.
        let view = ns_state.view();
        let admission = Arc::new(Admission { view, ordinal });
        let mut admitted = Vec::with_capacity(rows.len());
        for row in rows {
            let query = ctx.queries.row(row);
            if let Some(state) = self.admit_query(ns_state, &admission, query, ctx.opts) {
                active[row] = Some(state);
                admitted.push(row);
            }
        }
        if ns_state.temperature() != Temperature::Hot {
            self.prefetch(ns_state.ns, &admission, &admitted, active)?;
        }
        self.dispatch_round(ctx, &admitted, active, charges)?;
        Ok(admitted.len())
    }

    /// Tells every machine of every shard row the admitted rows will visit
    /// which lists they will probe there, so a spilled block's lists fault
    /// in on all of them at once instead of hop after hop and visit after
    /// visit.
    fn prefetch(
        &self,
        ns: u16,
        admission: &Admission,
        rows: &[usize],
        active: &[Option<QueryState>],
    ) -> Result<(), CoreError> {
        let mut probed: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for state in rows.iter().filter_map(|&row| active[row].as_ref()) {
            for (shard, clusters) in &state.pending_visits {
                probed.entry(*shard).or_default().extend(clusters);
            }
        }
        let routing = &admission.view.routing;
        for (shard, mut clusters) in probed {
            clusters.sort_unstable();
            clusters.dedup();
            if clusters.is_empty() {
                continue; // a delta-only visit probes no list
            }
            let msg = ToWorker::Prefetch {
                ns,
                epoch: routing.epoch,
                shard,
                clusters,
            };
            for b in 0..routing.plan.dim_blocks {
                self.send(routing.plan.machine_of(shard as usize, b), &msg)?;
            }
        }
        Ok(())
    }

    /// Sets up one query: probes, prewarm, visit list. Returns `None` when
    /// the query has nothing to visit.
    fn admit_query(
        &self,
        ns_state: &Arc<NamespaceState>,
        admission: &Arc<Admission>,
        query: &[f32],
        opts: &SearchOptions,
    ) -> Option<QueryState> {
        let routing = &admission.view.routing;
        let probes = nearest_centroids(query, &ns_state.centroids, opts.nprobe);
        // Feed the observed-workload counters driving the plan supervisor.
        ns_state.probes.record(&probes, opts.k);

        // Prewarm (Algorithm 1 lines 1-5): seed the heap from client-side
        // samples of the probed lists. The budget is capped so prewarming
        // stays a cheap threshold seed — nearest probes sampled first.
        // Under SQ8 the heap over-collects for the exact re-rank stage.
        let mut topk = TopK::new(ns_state.effective_k(opts.k));
        let prewarm_ids = routing.lists.prewarm.seed(
            ns_state.metric,
            query,
            &probes,
            opts.k,
            &admission.view.overridden,
            &mut topk,
        );
        // Client-side computation (centroid scan + prewarm) is charged with
        // the same modeled rates as any node: the client is a real machine.
        let centroid_pd = (ns_state.centroids.len() * ns_state.dim) as u64;
        let prewarm_pd = (prewarm_ids.len() * ns_state.dim) as u64;
        self.cluster.charge_client_compute(
            centroid_pd + prewarm_pd,
            (ns_state.centroids.len() + prewarm_ids.len()) as u64,
        );

        // Group probes by shard, preserving probe (= proximity) order.
        let mut pending_visits = routing.assignment.visits(&probes);
        // Fresh-data recall is 1.0 by construction: every shard holding
        // pending delta rows gets a (possibly cluster-less) forced visit,
        // and its workers scan the full delta prefix below the watermark.
        if admission.view.delta_seq > 0 {
            let mut delta_shards: Vec<u32> = admission
                .view
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
        let routing = &admission.view.routing;
        let plan = routing.plan;

        // Estimate the candidate volume of this visit for load accounting,
        // from the sizes of the lists the admission's epoch serves.
        let candidates: usize = members
            .iter()
            .flat_map(|(_, clusters)| clusters)
            .map(|&c| routing.lists.members.get(c as usize).map_or(0, Vec::len))
            .sum();

        // Pipeline order over dimension blocks (§4.3 Load Balancing), once
        // for the sub-batch: balanced mode sends the most-loaded machine's
        // block last, where pruning has already thinned the candidates;
        // otherwise natural order with a deterministic rotation to spread
        // stage collisions.
        let blocks: Vec<usize> = {
            let mut blocks: Vec<usize> = (0..plan.dim_blocks).collect();
            if self.config.balanced_load {
                let loads = self.outstanding.snapshot();
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
            self.outstanding.add(machine, amount);
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
            delta_seq: admission.view.delta_seq,
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
            let machine = plan.machine_of(shard as usize, b);
            self.send(machine, &ToWorker::ChunkBatch(chunk))?;
        }
        Ok(())
    }
}

/// Result of a single-query search.
#[derive(Debug, Clone)]
pub struct SingleResult {
    /// Best-first neighbor list.
    pub neighbors: Vec<Neighbor>,
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use crate::messages::QueryResult;

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
}
