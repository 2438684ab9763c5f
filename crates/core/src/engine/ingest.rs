//! The write side of a namespace: the ingest bookkeeping behind its mutex,
//! the [`NsView`] published from it, and every writer's publication.
//!
//! Readers load the view whole ([`NamespaceState::view`]); writers replace
//! it whole, through [`WriteSide::publish`] only, which takes the ingest
//! guard as proof that its caller is the one writer. Mutex and view slot
//! are private to this module, so every writer lives here:
//! [`EngineCore::upsert_ns`], [`EngineCore::delete_ns`], and
//! [`EngineCore::recut`], which every compaction and migration is.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use harmony_index::distance::ip;
use harmony_index::kmeans::nearest_centroids;
use harmony_index::Metric;
use parking_lot::{Mutex, MutexGuard, RwLock};

use super::epoch::{ship_epoch, EpochLists, PrewarmSamples, RoutingEpoch, PREWARM_PER_LIST};
use super::namespace::NamespaceState;
use super::supervisor::SupervisorState;
use super::EngineCore;
use crate::error::CoreError;
use crate::messages::{DeleteIds, DeltaUpsert, ToWorker};
use crate::partition::{PartitionPlan, ShardAssignment};
use crate::planner::{ListRows, SampleView};

/// One not-yet-compacted upsert (client-side record of a delta row).
struct PendingDelta {
    id: u64,
    /// Home cluster chosen at upsert time (nearest centroid).
    cluster: u32,
    seq: u64,
}

/// Client-side ingest bookkeeping, serialized under one mutex.
pub(super) struct IngestState {
    /// Next ingest sequence number to assign (starts at 1).
    next_seq: u64,
    /// Upserts not yet folded into IVF lists, in sequence order.
    pending: Vec<PendingDelta>,
    /// Every live tombstone: id → newest delete sequence. Covers both
    /// user deletes and the supersede-tombstones written by re-upserts.
    /// Cleared by compaction (the recut lists contain no stale copies).
    tombstones: HashMap<u64, u64>,
    /// Ids deleted and not re-upserted since: the authoritative dead-set
    /// filtered out of every result. Subset of `tombstones`. Shared
    /// copy-on-write with the published [`NsView`]: an ingest op clones
    /// only the set it changes.
    deleted: Arc<HashMap<u64, u64>>,
    /// Ids upserted or deleted since the current lists were cut. The
    /// epoch's prewarm samples of these ids may be stale or dead and are
    /// skipped; a compaction recuts the samples and empties the set.
    /// Copy-on-write like `deleted`.
    overridden: Arc<HashSet<u64>>,
}

impl IngestState {
    /// Takes the next sequence number.
    fn number(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Records that `id`'s prewarm sample (if any) no longer reflects the
    /// live vector. Copies the shared set only when it actually changes.
    fn mark_overridden(&mut self, id: u64) {
        if !self.overridden.contains(&id) {
            Arc::make_mut(&mut self.overridden).insert(id);
        }
    }

    /// The newest pending upsert of every id as `(id, home cluster, seq)`,
    /// in sequence order like `pending` itself. Older pending copies of a
    /// re-upserted id are covered by its supersede tombstone.
    fn newest_pending(&self) -> Vec<(u64, u32, u64)> {
        let mut seen = HashSet::new();
        let newest = self.pending.iter().rev().filter(|p| seen.insert(p.id));
        let mut rows: Vec<_> = newest.map(|p| (p.id, p.cluster, p.seq)).collect();
        rows.reverse();
        rows
    }
}

/// Everything a query may see of a namespace, as of one publication —
/// immutable, so its parts cannot be read or written in a wrong order: an
/// emptied `overridden` set only ever comes with the samples recut from
/// the writes it forgot.
pub(super) struct NsView {
    /// The routing generation queries are admitted under, with the sizes
    /// and prewarm samples of the lists it serves.
    pub(super) routing: Arc<RoutingEpoch>,
    /// Ingest watermark: a query admitted under this view scans exactly the
    /// delta rows with `seq < delta_seq`. Every such row was sent — to the
    /// epoch current at its upsert; each later one has it folded into its
    /// lists — before the view that covers it was published, so
    /// per-destination FIFO order puts it ahead of the query's chunks.
    pub(super) delta_seq: u64,
    /// Ids deleted and not re-upserted since (id → delete seq): filtered
    /// out of every result.
    pub(super) deleted: Arc<HashMap<u64, u64>>,
    /// Ids written since `routing`'s prewarm samples were cut: their
    /// samples are skipped.
    pub(super) overridden: Arc<HashSet<u64>>,
    /// Clusters with pending delta rows (drives forced shard visits).
    pub(super) pending_clusters: HashSet<u32>,
}

/// The ingest state behind its mutex and the view its holder publishes;
/// nothing outside this module can take the one or store the other.
pub(super) struct WriteSide {
    ingest: Mutex<IngestState>,
    view: RwLock<Arc<NsView>>,
}

impl WriteSide {
    /// The write side of a freshly placed namespace: nothing written yet,
    /// `routing` in force.
    pub(super) fn new(routing: RoutingEpoch) -> Self {
        Self {
            ingest: Mutex::new(IngestState {
                next_seq: 1,
                pending: Vec::new(),
                tombstones: HashMap::new(),
                deleted: Arc::default(),
                overridden: Arc::default(),
            }),
            view: RwLock::new(Arc::new(NsView {
                routing: Arc::new(routing),
                delta_seq: 0,
                deleted: Arc::default(),
                overridden: Arc::default(),
                pending_clusters: HashSet::new(),
            })),
        }
    }

    /// Publishes the state behind `ing` — under `next`, if given, else the
    /// current routing epoch — and returns the epoch it replaced, if any.
    /// The only store to `view`: the guard proves the caller is the single
    /// writer, so the view cannot change between the load and the store
    /// here. The id sets are shared, not copied (the next ingest op that
    /// changes one clones it then). A writer calls this *after* all of its
    /// sends: everything the new view selects is then ahead of any chunk
    /// admitted under it.
    fn publish(
        &self,
        ing: &MutexGuard<'_, IngestState>,
        next: Option<Arc<RoutingEpoch>>,
    ) -> Option<Arc<RoutingEpoch>> {
        let current = Arc::clone(&self.view.read());
        let replaced = next.is_some().then(|| Arc::clone(&current.routing));
        let view = NsView {
            routing: next.unwrap_or_else(|| Arc::clone(&current.routing)),
            // Above every sequence number handed out so far; 0 until the
            // first write, which lets the workers skip the delta scan.
            delta_seq: if ing.next_seq > 1 { ing.next_seq } else { 0 },
            deleted: Arc::clone(&ing.deleted),
            overridden: Arc::clone(&ing.overridden),
            pending_clusters: ing.pending.iter().map(|p| p.cluster).collect(),
        };
        *self.view.write() = Arc::new(view);
        replaced
    }
}

impl NamespaceState {
    /// The view in force: one synchronised load of everything a query may
    /// see of this namespace.
    pub(super) fn view(&self) -> Arc<NsView> {
        Arc::clone(&self.writes.view.read())
    }

    /// The writes a compaction would fold, as `(pending upserts, live
    /// tombstones)` — a stream of deletes alone grows the workers' tombstone
    /// tables and the client's dead and override sets just the same.
    pub(super) fn unfolded_writes(&self) -> (usize, usize) {
        let ing = self.writes.ingest.lock();
        (ing.pending.len(), ing.tombstones.len())
    }
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
pub(super) fn with_sample_view<R>(
    state: &NamespaceState,
    k: usize,
    sample: impl FnOnce(&SampleView<'_>) -> R,
) -> R {
    let base = state.base.read();
    let routing = Arc::clone(&state.view().routing);
    let lists = LiveLists {
        members: &routing.lists.members,
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
        prewarm: &routing.lists.prewarm,
    })
}

impl EngineCore {
    /// Upserted rows not yet folded into IVF lists (default namespace).
    pub fn pending_deltas(&self) -> usize {
        self.ns0.unfolded_writes().0
    }

    /// Upserted rows not yet folded into IVF lists, for one namespace.
    ///
    /// # Errors
    /// [`CoreError::Config`] for an unknown namespace.
    pub fn pending_deltas_ns(&self, ns: u16) -> Result<usize, CoreError> {
        Ok(self.namespace(ns)?.unfolded_writes().0)
    }

    /// Ids currently soft-deleted in the default namespace (tombstoned,
    /// awaiting compaction).
    pub fn tombstone_count(&self) -> usize {
        self.ns0.view().deleted.len()
    }

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
    /// quota when one is set. Never folds: threshold-driven compaction
    /// belongs to the background compactor, so an upsert never waits on an
    /// epoch handshake of its own making.
    ///
    /// # Errors
    /// Unknown namespace, dimension mismatches, an exhausted quota or
    /// transport failures.
    pub fn upsert_ns(&self, ns: u16, id: u64, vector: &[f32]) -> Result<u64, CoreError> {
        let state = self.namespace(ns)?;
        state.check_rows(vector.len(), vector)?;
        let mut ing = state.writes.ingest.lock();
        // Stable until this guard drops: only its holder publishes.
        let routing = Arc::clone(&state.view().routing);
        // The exact copy maps every id that has a row, live or deleted —
        // list members and pending upserts alike.
        let base = state.base.read();
        let has_row = base.by_id.contains_key(&id);
        let known = has_row || ing.tombstones.contains_key(&id);
        let id_live = has_row && !ing.deleted.contains_key(&id);
        let live = base.by_id.len().saturating_sub(ing.deleted.len());
        drop(base);
        // Quota check before any side effect: replacing a live id
        // never grows the namespace, a new id must fit the budget.
        if state.max_vectors > 0 && !id_live && live >= state.max_vectors {
            return Err(CoreError::Config(format!(
                "namespace {ns} quota exceeded: {live} live vectors of {} allowed",
                state.max_vectors
            )));
        }
        // Supersede any live copy first: a tombstone below the new
        // row's sequence suppresses stale list/delta rows everywhere
        // while the re-upsert itself stays visible.
        if known {
            let del_seq = ing.number();
            self.send_tombstone(state.ns, id, del_seq)?;
            ing.tombstones.insert(id, del_seq);
        }
        let seq = ing.number();
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
        ing.mark_overridden(id);
        self.send_delta_row(&state, &routing, (id, cluster, seq), vector)?;
        // After every send: FIFO transport ordering then guarantees any
        // chunk stamped with this watermark arrives after the rows it
        // selects.
        state.writes.publish(&ing, None);
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
        let mut ing = state.writes.ingest.lock();
        let live = state.base.read().by_id.contains_key(&id) && !ing.deleted.contains_key(&id);
        if !live {
            return Ok(false);
        }
        let seq = ing.number();
        self.send_tombstone(state.ns, id, seq)?;
        ing.tombstones.insert(id, seq);
        Arc::make_mut(&mut ing.deleted).insert(id, seq);
        ing.mark_overridden(id);
        // After the broadcast, like an upsert's.
        state.writes.publish(&ing, None);
        Ok(true)
    }

    /// Tells every machine that `id` is dead below `seq`, in every epoch
    /// of the namespace it holds.
    fn send_tombstone(&self, ns: u16, id: u64, seq: u64) -> Result<(), CoreError> {
        self.broadcast(&ToWorker::DeleteIds(DeleteIds {
            ns,
            epoch: u64::MAX,
            ids: vec![id],
            seq,
        }))
    }

    /// Ships delta row `(id, home cluster, seq)` to every machine of its
    /// home shard's row under `routing`, each its dimension slice.
    fn send_delta_row(
        &self,
        state: &NamespaceState,
        routing: &RoutingEpoch,
        (id, cluster, seq): (u64, u32, u64),
        vector: &[f32],
    ) -> Result<(), CoreError> {
        let home = routing.assignment.cluster_to_shard.get(cluster as usize);
        let shard = home.copied().unwrap_or(0);
        let norm = |v: &[f32]| match state.metric {
            Metric::L2 => Vec::new(),
            _ => vec![ip(v, v)],
        };
        let total_norms_sq = norm(vector);
        for (b, range) in routing.dim_ranges.iter().enumerate() {
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
                block_norms_sq: norm(slice),
                total_norms_sq: total_norms_sq.clone(),
            };
            let machine = routing.plan.machine_of(shard as usize, b);
            self.send(machine, &ToWorker::UpsertDelta(msg))?;
        }
        Ok(())
    }

    /// Recuts `state` onto the layout `(plan, assignment)` under its
    /// supervisor lock — the one way an epoch follows another. A compaction
    /// passes the incumbent's layout, a migration the one it moves to;
    /// either way every pending write is folded into the lists the new
    /// epoch is cut from, and with nothing to fold and the layout already
    /// in force the call is a no-op. Holds `ingest` from the cut to the
    /// publication: no write can land between the membership the new
    /// lists are cut from and the view that stops selecting the rows
    /// folded into them.
    pub(super) fn recut(
        &self,
        state: &NamespaceState,
        sup: &mut SupervisorState,
        plan: PartitionPlan,
        assignment: ShardAssignment,
    ) -> Result<CompactionReport, CoreError> {
        let ing = state.writes.ingest.lock();
        let cur = Arc::clone(&state.view().routing);
        let unwritten =
            ing.pending.is_empty() && ing.deleted.is_empty() && ing.tombstones.is_empty();
        let in_force =
            plan == cur.plan && assignment.cluster_to_shard == cur.assignment.cluster_to_shard;
        if unwritten && in_force {
            return Ok(CompactionReport {
                epoch: cur.epoch,
                folded_rows: 0,
                dropped_tombstones: 0,
                noop: true,
            });
        }
        let epoch = sup.number_epoch();

        // Ids deleted after their last upsert drop out entirely (a delete
        // always outsequences the upserts it follows).
        let mut folded = ing.newest_pending();
        folded.retain(|(id, _, _)| !ing.deleted.contains_key(id));
        let rehomed: HashSet<u64> = folded.iter().map(|&(id, _, _)| id).collect();
        let report = CompactionReport {
            epoch,
            folded_rows: folded.len(),
            dropped_tombstones: ing.deleted.len(),
            noop: false,
        };

        // Recut membership: old members minus deleted/re-homed ids, plus
        // each surviving pending id at its new home, in sequence order so
        // list order is deterministic.
        let mut members: Vec<Vec<u64>> = cur
            .lists
            .members
            .iter()
            .map(|m| {
                m.iter()
                    .copied()
                    .filter(|id| !ing.deleted.contains_key(id) && !rehomed.contains(id))
                    .collect()
            })
            .collect();
        for (id, cluster, _) in folded {
            members[cluster as usize].push(id);
        }

        // The published epoch carries prewarm samples of the lists it
        // serves, so thresholds stay as tight as a fresh build's however
        // many write cycles came before.
        let prewarm = PrewarmSamples::cut(
            PREWARM_PER_LIST,
            state.prewarm_seed.wrapping_add(epoch),
            &members,
            &state.base.read(),
            Some((&cur.lists.prewarm, &ing.overridden)),
        )?;
        let next = RoutingEpoch::new(
            epoch,
            plan,
            assignment,
            state.dim,
            EpochLists { members, prewarm },
            &sup.tuned,
        )?;
        drop(cur);
        self.install_epoch(state, sup, ing, Arc::new(next))?;
        Ok(report)
    }

    /// Brings `next` — cut from the ingest state behind `ing` — into force,
    /// the one way a routing epoch is replaced: hold the control channel,
    /// ship the epoch's blocks and await every machine's ack
    /// ([`ship_epoch`]), forget the writes now folded into its lists,
    /// publish, and retire the incumbent until its in-flight queries drain.
    /// A failed handshake evicts the half-installed epoch and leaves the
    /// incumbent in force.
    pub(super) fn install_epoch(
        &self,
        state: &NamespaceState,
        sup: &mut SupervisorState,
        mut ing: MutexGuard<'_, IngestState>,
        next: Arc<RoutingEpoch>,
    ) -> Result<(), CoreError> {
        let shipped = {
            let base = state.base.read();
            // Held for the whole handshake so concurrent stats collectors
            // cannot consume the acks.
            let control = self.control.lock();
            ship_epoch(&self.cluster, &control, state, &next, &base)
        };
        match shipped {
            Ok(bytes) => sup.epoch_bytes = bytes,
            Err(e) => {
                drop(ing);
                self.abort_epoch(state.ns, next.epoch);
                return Err(e);
            }
        }
        // In-flight queries re-rank against whatever is left; the ids swept
        // here are dead to them already, and stay listed as deleted until
        // the publication that follows.
        state.base.write().sweep(&ing.deleted);
        ing.pending.clear();
        ing.tombstones.clear();
        ing.deleted = Arc::default();
        // Every id written before this point is folded into the lists the
        // new epoch's samples were cut from.
        ing.overridden = Arc::default();
        // The replaced epoch goes to the retired list and nowhere else:
        // in-flight admissions are its only other holders, which is what
        // lets a strong count of one mean "drained".
        sup.retired.extend(state.writes.publish(&ing, Some(next)));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    /// Regression: prewarm used to decay under churn — samples of written
    /// ids were skipped forever and never replaced, so thresholds loosened
    /// with every write cycle. A compaction now recuts them.
    #[test]
    fn compaction_recuts_prewarm_and_drains_overridden() {
        let d = dataset(1_200, 16);
        let engine = engine_with(EngineMode::Harmony, &d.base);
        let ns = &engine.ns0;
        let sample_ids = || -> Vec<u64> {
            let samples = &ns.view().routing.lists.prewarm;
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
            assert!(!ns.view().overridden.is_empty());
            assert!(!engine.compact().unwrap().noop);

            // One publication: the emptied set and the recut samples.
            let view = ns.view();
            assert!(view.overridden.is_empty() && view.deleted.is_empty());
            assert!(ns.writes.ingest.lock().overridden.is_empty());
            let routing = &view.routing;
            let base = ns.base.read();
            // Nor does the exact copy keep superseded or deleted rows.
            let lists = &routing.lists;
            let live: usize = lists.sizes().iter().sum();
            assert_eq!((base.store.len(), base.by_id.len()), (live, live));
            for (c, &size) in lists.sizes().iter().enumerate() {
                // Exactly what a fresh build over this list would hold.
                let rows = &lists.prewarm.rows[c];
                assert_eq!(
                    rows.len(),
                    size.min(PREWARM_PER_LIST),
                    "cycle {cycle} list {c}"
                );
                for &r in rows {
                    let id = lists.prewarm.store.id(r);
                    let live = base.store.row(base.by_id[&id]);
                    assert_eq!(lists.prewarm.store.row(r), live, "stale sample {id}");
                }
            }
        }
        engine.shutdown().unwrap();
    }

    /// What the writer of the test below records for an epoch *before* the
    /// call that publishes it.
    struct Recorded {
        /// Live vectors in the lists the epoch serves.
        live: usize,
        /// Every id written before the compaction that cut those lists.
        folded: HashSet<u64>,
    }

    /// The publication point under churn: whatever a reader loads is one
    /// writer's one publication — never the routing of one and the id sets
    /// of another.
    #[test]
    fn view_publication_is_atomic_under_churn() {
        const CYCLES: u64 = 5;
        let d = dataset(600, 16);
        let engine = engine_with(EngineMode::Harmony, &d.base);
        let ns = &engine.ns0;
        let nlist = engine.centroids().len();
        let ledger: Mutex<HashMap<u64, Recorded>> = Mutex::new(HashMap::new());
        let record = |epoch: u64, live: usize, folded: &HashSet<u64>| {
            let folded = folded.clone();
            ledger.lock().insert(epoch, Recorded { live, folded });
        };
        record(0, d.base.len(), &HashSet::new());
        let start = Barrier::new(2);
        let done = AtomicBool::new(false);
        let opts = SearchOptions::new(5).with_nprobe(4);

        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                start.wait();
                let (mut epoch, mut delta_seq, mut loads, mut epochs) = (0u64, 0u64, 0u64, 0u64);
                while !done.load(Ordering::Acquire) {
                    let view = ns.view();
                    let routing = &view.routing;
                    assert!(routing.epoch >= epoch, "epoch went back");
                    assert!(view.delta_seq >= delta_seq, "watermark went back");
                    epochs += u64::from(routing.epoch > epoch);
                    (epoch, delta_seq) = (routing.epoch, view.delta_seq);
                    let sizes = routing.lists.sizes();
                    assert_eq!(sizes.len(), nlist);
                    {
                        let ledger = ledger.lock();
                        let recorded = ledger.get(&epoch).expect("published before recorded");
                        let served: usize = sizes.iter().sum();
                        assert_eq!(served, recorded.live, "epoch {epoch}");
                        // A compaction's publication forgets exactly the
                        // writes its lists and samples hold.
                        for id in &recorded.folded {
                            assert!(!view.overridden.contains(id), "epoch {epoch} id {id}");
                            assert!(!view.deleted.contains_key(id), "epoch {epoch} id {id}");
                        }
                    }
                    drop(view);
                    loads += 1;
                    if loads % 64 == 0 {
                        engine.search(d.queries.row(0), &opts).unwrap();
                    }
                }
                (loads, epochs)
            });

            start.wait();
            let mut live = d.base.len();
            let mut written: HashSet<u64> = HashSet::new();
            let plans = [(2, 2), (4, 1)].map(|(v, b)| PartitionPlan::new(v, b).unwrap());
            for cycle in 0..CYCLES {
                // Ids no other cycle touches: new ones, overwritten base
                // rows, deleted base rows.
                for i in 0..12u64 {
                    let id = 90_000 + cycle * 12 + i;
                    engine.upsert(id, d.base.row(i as usize)).unwrap();
                    written.insert(id);
                    live += 1;
                }
                for i in 0..6u64 {
                    let id = cycle * 20 + i;
                    let mut v = d.base.row(id as usize).to_vec();
                    v[1] += 0.5;
                    engine.upsert(id, &v).unwrap();
                    written.insert(id);
                }
                for i in 6..12u64 {
                    let id = cycle * 20 + i;
                    assert!(engine.delete(id).unwrap());
                    written.insert(id);
                    live -= 1;
                }
                // The two epochs this cycle publishes serve the same lists.
                let epoch = engine.current_epoch();
                record(epoch + 1, live, &written);
                record(epoch + 2, live, &written);
                let report = engine.compact().unwrap();
                assert_eq!((report.epoch, report.noop), (epoch + 1, false));
                // A layout already in force with nothing to fold would be
                // a no-op: always move to the other plan.
                let plan = plans[usize::from(engine.plan() == plans[0])];
                assert_eq!(engine.migrate_to(plan).unwrap().to_epoch, epoch + 2);
            }
            assert!(engine.compact().unwrap().noop);
            done.store(true, Ordering::Release);
            let (loads, epochs) = reader.join().unwrap();
            assert!(
                loads > CYCLES && epochs > 0,
                "{loads} loads, {epochs} epochs"
            );
        });

        let view = ns.view();
        assert_eq!(view.routing.epoch, 2 * CYCLES);
        assert!(view.overridden.is_empty() && view.deleted.is_empty());
        assert!(view.pending_clusters.is_empty());
        drop(view);
        let leftover: f64 = engine.outstanding_load().iter().sum();
        assert!(leftover.abs() < 1e-6, "load estimates leaked: {leftover}");
        engine.shutdown().unwrap();
    }
}
