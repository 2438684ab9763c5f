//! Routing epochs: the immutable generation of layout a query is admitted
//! under, the prewarm samples and list sizes that ride it, the migration
//! from one layout to another, and the eviction of retired epochs once
//! their last in-flight query has drained. All of it runs under the
//! namespace's supervisor lock, received as `&mut SupervisorState`; the
//! swap that brings an epoch into force is a publication and lives with
//! the view ([`EngineCore::install_epoch`]).

use harmony_cluster::NodeId;
use harmony_index::{DimRange, Metric, TopK, VectorStore};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use super::namespace::{BaseStore, NamespaceState};
use super::supervisor::SupervisorState;
use super::EngineCore;
use crate::cost::{CostModel, PlanEstimate};
use crate::error::CoreError;
use crate::messages::{BeginEpoch, MigrateOut, ToWorker, TransferSpec};
use crate::partition::{PartitionPlan, ShardAssignment};

/// One immutable generation of routing state. Queries capture the Arc at
/// admission; a writer replaces it by publishing a new view
/// (`EngineCore::install_epoch`).
#[derive(Debug)]
pub struct RoutingEpoch {
    /// Monotonic epoch counter (the build is epoch 0).
    pub epoch: u64,
    /// The partition plan in force.
    pub plan: PartitionPlan,
    /// Cluster → shard mapping in force.
    pub assignment: ShardAssignment,
    /// Dimension ranges of the plan's blocks.
    pub(super) dim_ranges: Vec<DimRange>,
    /// Clusters owned by each shard.
    pub(super) shard_clusters: Vec<Vec<u32>>,
    /// The lists this epoch serves. A migration moves lists without
    /// changing them and shares the incumbent's.
    pub(super) lists: Arc<EpochLists>,
    /// Expected share of a visit's candidates that enters each pipeline
    /// position, as the namespace's cost model holds it when the epoch is
    /// cut (1 everywhere with pruning off) — what the load estimates
    /// behind the §4.3 hop order discount later positions by.
    pub(super) survivors: Vec<f64>,
}

impl RoutingEpoch {
    pub(super) fn new(
        epoch: u64,
        plan: PartitionPlan,
        assignment: ShardAssignment,
        dim: usize,
        lists: Arc<EpochLists>,
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
            lists,
            survivors: model.survivors_entering(plan),
        })
    }

    /// Announces this epoch's block `(shard, dim_block)` of namespace `ns`
    /// to the machine hosting it: active once `pieces` list pieces arrived.
    pub(super) fn begin(&self, ns: u16, shard: usize, dim_block: usize, pieces: u64) -> ToWorker {
        let range = self.dim_ranges[dim_block];
        ToWorker::BeginEpoch(BeginEpoch {
            ns,
            epoch: self.epoch,
            shard: shard as u32,
            dim_block: dim_block as u32,
            dim_start: range.start as u64,
            dim_end: range.end as u64,
            total_dim_blocks: self.plan.dim_blocks as u32,
            expected_pieces: pieces,
        })
    }
}

/// The lists an epoch serves, as the client knows them. They change only
/// when a compaction recuts them, and then together: the epoch a compaction
/// publishes carries samples of the compacted rows, so the ids overridden
/// before it need no remembering.
#[derive(Debug)]
pub(super) struct EpochLists {
    /// Member ids per cluster. Mirrors what the workers hold.
    pub(super) members: Vec<Vec<u64>>,
    /// Threshold-prewarm samples cut from `members`.
    pub(super) prewarm: PrewarmSamples,
}

impl EpochLists {
    /// List sizes per cluster.
    pub(super) fn sizes(&self) -> Vec<usize> {
        self.members.iter().map(Vec::len).collect()
    }
}

/// Prewarm samples cut per list (or the whole list, if shorter) at build and
/// again by every compaction. A query seeds its threshold from the samples
/// of the lists it probes, nearest first, up to [`PrewarmSamples::seed`]'s
/// budget.
pub(super) const PREWARM_PER_LIST: usize = 8;

/// Full-dimension samples of every list, kept client-side to seed each
/// query's pruning threshold (Algorithm 1, lines 1-5).
#[derive(Debug)]
pub(crate) struct PrewarmSamples {
    pub(super) store: VectorStore,
    /// Rows of `store` per cluster.
    pub(super) rows: Vec<Vec<usize>>,
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
    /// What the deciding tick priced (see [`super::ReplanOutcome::Hold`]; empty
    /// for forced migrations).
    pub candidates: Vec<PlanEstimate>,
}

/// Walks the migration schedule from `cur` to `next` without materializing
/// it: for every cluster, the overlap of each old dimension block with each
/// new dimension block is one piece, shipped from the machine storing the
/// old block to the machine hosting the new one. The supervisor scores many
/// candidate layouts per tick; streaming the schedule keeps those
/// evaluations allocation-free.
fn visit_transfers(
    cur: &RoutingEpoch,
    next: &RoutingEpoch,
    mut visit: impl FnMut(NodeId, TransferSpec),
) {
    let shard_of = |epoch: &RoutingEpoch, c: usize| {
        let shard = epoch.assignment.cluster_to_shard.get(c).copied();
        (shard.unwrap_or(0) as usize).min(epoch.plan.vec_shards - 1)
    };
    for c in 0..cur.lists.members.len() {
        let (s_old, s_new) = (shard_of(cur, c), shard_of(next, c));
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

/// Modeled `(payload bytes, network messages, network pieces)` of the
/// migration from `cur` to `next`. Self-directed pieces install locally
/// and cost nothing on the fabric.
pub(super) fn migration_volume(
    state: &NamespaceState,
    cur: &RoutingEpoch,
    next: &RoutingEpoch,
) -> (u64, u64, u64) {
    let is_ip = !matches!(state.metric, Metric::L2);
    let mut bytes = 0u64;
    let mut pieces = 0u64;
    let mut groups: HashSet<(NodeId, u64, u32, u32)> = HashSet::new();
    visit_transfers(cur, next, |src, t| {
        if src as u64 == t.dest {
            return;
        }
        let members = cur.lists.members.get(t.cluster as usize);
        let rows = members.map_or(0, Vec::len) as u64;
        let width = t.dim_end - t.dim_start;
        // Header + ids + payload (+ norm tables under inner-product
        // metrics) — mirrors the ListPiece wire layout. SQ8 ships one
        // byte per coordinate plus a 4-byte code sum per row and a
        // fixed segment header instead of 4-byte floats.
        let mut piece = 44 + rows * 8;
        piece += if state.sq8 {
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

impl EngineCore {
    /// Evicts retired epochs whose last in-flight query has drained: only
    /// the supervisor's own Arc remains (the view holds the current epoch
    /// only, and what else clones one drops it before it returns).
    pub(super) fn gc_retired(&self, state: &NamespaceState, sup: &mut SupervisorState) {
        sup.retired.retain(|old| {
            if Arc::strong_count(old) > 1 {
                return true;
            }
            self.abort_epoch(state.ns, old.epoch);
            false
        });
    }

    /// Executes a live layout switch: announce the next epoch to every
    /// machine, ship the pieces, and once all have activated it re-home
    /// the pending ingest state and publish it
    /// (`EngineCore::install_epoch`). The old epoch stays on the workers
    /// until its last in-flight query drains
    /// (see [`EngineCore::gc_retired`]).
    pub(super) fn execute_migration(
        &self,
        state: &NamespaceState,
        sup: &mut SupervisorState,
        plan: PartitionPlan,
        assignment: ShardAssignment,
    ) -> Result<MigrationReport, CoreError> {
        let cur = Arc::clone(&state.view().routing);
        let epoch = sup.number_epoch();
        let lists = Arc::clone(&cur.lists);
        let next = RoutingEpoch::new(epoch, plan, assignment, state.dim, lists, &sup.tuned)?;
        let next = Arc::new(next);
        // The one winning layout materializes its schedule: pieces expected
        // per destination, transfers per source.
        let mut expected = vec![0u64; self.config.n_machines];
        let mut by_src: BTreeMap<NodeId, Vec<TransferSpec>> = BTreeMap::new();
        visit_transfers(&cur, &next, |src, t| {
            expected[t.dest as usize] += 1;
            by_src.entry(src).or_default().push(t);
        });
        let (modeled_bytes, msgs, network_pieces) = migration_volume(state, &cur, &next);
        let report = MigrationReport {
            from_epoch: cur.epoch,
            to_epoch: next.epoch,
            from_plan: cur.plan,
            to_plan: next.plan,
            clusters_moved: cur.assignment.moved_clusters(&next.assignment).len(),
            network_pieces,
            modeled_bytes,
            migration_ns: sup.tuned.migration_ns(modeled_bytes, msgs),
            stay_ns: 0.0,
            projected_ns: 0.0,
            candidates: Vec::new(),
        };
        drop(cur);

        let ship = || -> Result<(), CoreError> {
            for (m, &pieces) in expected.iter().enumerate() {
                let (shard, dim_block) = next.plan.block_of(m);
                self.send(m, &next.begin(state.ns, shard, dim_block, pieces))?;
            }
            // Ship each source's transfers in bounded waves so foreground
            // query chunks can interleave in worker mailboxes instead of
            // stalling behind one giant transfer message. Activation counts
            // pieces, not messages, so chunking never changes the handshake.
            let wave = match self.config.replan.max_pieces_per_tick {
                0 => usize::MAX,
                wave => wave,
            };
            for (&src, transfers) in &by_src {
                for chunk in transfers.chunks(wave) {
                    let msg = MigrateOut {
                        ns: state.ns,
                        epoch,
                        transfers: chunk.to_vec(),
                    };
                    self.send(src, &ToWorker::MigrateOut(msg))?;
                }
            }
            Ok(())
        };
        // The migration ships only the epoch's *list* storage; rows still
        // sitting in delta lists — and the tombstones suppressing their
        // stale copies — live outside it and are re-homed once the epoch is
        // active. Writes go on during the handshake: no ingest guard yet.
        self.install_epoch(state, sup, None, Arc::clone(&next), ship, |ing| {
            self.reship_ingest(state, ing, &next)
        })?;
        Ok(report)
    }

    /// Best-effort eviction of an epoch from every machine: a drained
    /// retired one, or a half-installed one after a failed handshake, so a
    /// retry cannot meet leftover state.
    pub(super) fn abort_epoch(&self, ns: u16, epoch: u64) {
        let _ = self.broadcast(&ToWorker::EvictEpoch { ns, epoch });
    }
}
