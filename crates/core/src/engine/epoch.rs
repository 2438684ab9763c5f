//! Routing epochs: the immutable generation of layout a query is admitted
//! under, the prewarm samples and list sizes that ride it, the one routine
//! that cuts an epoch's grid blocks and ships them ([`ship_epoch`]), and
//! the eviction of retired epochs once their last in-flight query has
//! drained. The swap that brings an epoch into force is a publication and
//! lives with the view ([`EngineCore::install_epoch`]).

use crossbeam::channel::Receiver;
use harmony_cluster::{Cluster, NodeId, Wire};
use harmony_index::{BlockRepr, DimRange, Metric, TopK, VectorStore};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::namespace::{cut_list, BaseStore, NamespaceState};
use super::supervisor::SupervisorState;
use super::{await_acks, once_per_machine, EngineCore};
use crate::cost::{CostModel, PlanEstimate};
use crate::error::CoreError;
use crate::messages::{metric_tag, repr_tag, LoadBlock, ToClient, ToWorker};
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
    /// The lists this epoch serves.
    pub(super) lists: EpochLists,
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
        lists: EpochLists,
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
    /// Bytes the switch was priced at: a layout change ships every grid
    /// block of the namespace anew, so what the replaced epoch's blocks
    /// took on the wire.
    pub modeled_bytes: u64,
    /// Modeled one-time migration time, ns: `modeled_bytes` as one
    /// message per machine.
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

/// Deadline for an epoch's ship → ack handshake. Generous: whole grid
/// blocks cross the modeled fabric while query traffic shares the worker
/// mailboxes. On expiry the caller evicts the epoch everywhere.
const EPOCH_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(120);

/// Pre-assign (§4, Fig. 10), the one way list storage reaches a worker:
/// walks `routing`'s `(shard, dimension range)` grid, cuts each block from
/// the exact copy and sends it as one [`LoadBlock`] before cutting the
/// next, then awaits every machine's [`ToClient::EpochReady`] on the
/// control channel the router feeds. An epoch is therefore the block set a
/// fresh build at its layout would ship, however it was reached. Returns
/// the bytes sent.
pub(super) fn ship_epoch(
    cluster: &Cluster,
    control: &Receiver<(NodeId, ToClient)>,
    state: &NamespaceState,
    routing: &RoutingEpoch,
    base: &BaseStore,
) -> Result<u64, CoreError> {
    let (ns, epoch) = (state.ns, routing.epoch);
    let is_ip = !matches!(state.metric, Metric::L2);
    let repr = if state.sq8 {
        BlockRepr::Sq8
    } else {
        BlockRepr::F32
    };
    let mut bytes = 0;
    for (s, clusters) in routing.shard_clusters.iter().enumerate() {
        for (b, range) in routing.dim_ranges.iter().enumerate() {
            let cut = |&c: &u32| {
                let rows = routing.lists.members[c as usize].iter();
                let rows = rows.map(|id| base.by_id[id]);
                cut_list(&base.store, c, rows, *range, is_ip, state.sq8)
            };
            let load = ToWorker::Load(LoadBlock {
                ns,
                epoch,
                shard: s as u32,
                dim_block: b as u32,
                dim_start: range.start as u64,
                dim_end: range.end as u64,
                total_dim_blocks: routing.plan.dim_blocks as u32,
                metric: metric_tag::encode(state.metric),
                pruning: state.pruning,
                repr: repr_tag::encode(repr),
                lists: clusters.iter().map(cut).collect(),
            })
            .to_bytes();
            bytes += load.len() as u64;
            cluster.send(routing.plan.machine_of(s, b), load)?;
        }
    }
    // One block per machine of the plan, which may be fewer than the
    // deployment's.
    let (blocks, ready) = (routing.plan.machines(), ToClient::EpochReady { ns, epoch });
    let timeout = EPOCH_HANDSHAKE_TIMEOUT;
    await_ready(control, cluster.workers(), &ready, blocks, timeout)?;
    Ok(bytes)
}

/// The one wait of an epoch handshake: `blocks` machines each answer
/// `ready` once. A machine hosts one block of an epoch and epoch numbers
/// are never reused, so the acks of another epoch — an aborted one's
/// stragglers — and a machine's duplicate count for nothing.
fn await_ready(
    control: &Receiver<(NodeId, ToClient)>,
    machines: usize,
    ready: &ToClient,
    blocks: usize,
    timeout: Duration,
) -> Result<(), CoreError> {
    let acks = once_per_machine(machines, |msg| msg == ready);
    await_acks(control, Instant::now() + timeout, blocks, acks)
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

    /// Best-effort eviction of an epoch from every machine: a drained
    /// retired one, or a half-installed one after a failed handshake, so a
    /// retry cannot meet leftover state.
    pub(super) fn abort_epoch(&self, ns: u16, epoch: u64) {
        let _ = self.broadcast(&ToWorker::EvictEpoch { ns, epoch });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use harmony_cluster::ClusterError;

    #[test]
    fn a_stale_ack_of_an_aborted_epoch_cannot_complete_a_later_handshake() {
        let ack = |epoch| ToClient::EpochReady { ns: 7, epoch };
        let brief = Duration::from_millis(20);
        let (tx, rx) = unbounded();
        // Epoch 1 was aborted after every machine had acked it; of epoch 2,
        // three machines have answered so far, one of them twice, and
        // another tenant's epoch 2 is ready everywhere.
        for machine in 0..4 {
            tx.send((machine, ack(1))).unwrap();
            tx.send((machine, ToClient::EpochReady { ns: 8, epoch: 2 }))
                .unwrap();
        }
        for machine in [0, 1, 1, 2] {
            tx.send((machine, ack(2))).unwrap();
        }
        let waited = await_ready(&rx, 4, &ack(2), 4, brief);
        assert_eq!(waited, Err(CoreError::Cluster(ClusterError::Timeout)));
        // With the fourth machine's ack the same wait completes.
        for machine in 0..4 {
            tx.send((machine, ack(1))).unwrap();
            tx.send((machine, ack(2))).unwrap();
        }
        await_ready(&rx, 4, &ack(2), 4, brief).unwrap();
    }
}
