//! The Harmony worker: hosts grid blocks and executes the dimension
//! pipeline (Algorithm 1's `DimensionPipeline`, Fig. 5b).
//!
//! Each worker owns one grid block `V_s D_b` per shard it participates in:
//! the vectors of shard `s`'s inverted lists, restricted to dimension block
//! `b`. Query execution is a relay, and its unit is a **sub-batch** of
//! queries visiting the same shard ([`ChunkBatch`]):
//!
//! 1. The *first* machine of the sub-batch's pipeline order enumerates each
//!    query's candidates from its probed lists, computes partial scores
//!    over its dimension range, prunes against the query's threshold, and
//!    forwards all survivors as one [`CarryBatch`].
//! 2. *Middle* machines add their block's contribution to each carried
//!    partial, prune again (partials only grow under L2), and forward.
//! 3. The *last* machine completes the scores, keeps the best `k` per
//!    query, and reports one [`ResultBatch`] to the client.
//!
//! All three are the same routine ([`scan_batch`] → [`scan_run`]): `scan →
//! bound → prune → emit` over runs of rows, walked **list-major** — every
//! query of the sub-batch that probes a list is scored against it while
//! the list is cache-resident — with the metric resolved once per
//! sub-batch. The single-query messages ([`ToWorker::Chunk`],
//! [`ToWorker::Carry`]) are lifted into one-row sub-batches on arrival.
//!
//! Sub-batches whose one hop answers the client and that were queued
//! together ([`NodeHandler::handle_batch`]) are scanned as one: each run
//! of them that agrees on its storage goes through one list-major walk
//! and its answer is split back per sub-batch (DESIGN.md §2).
//!
//! Reported scores live in the metric's client-side lower-is-better space
//! ([`Metric::score`]): raw for L2 and inner product, and normalized by the
//! full vector norms for cosine (using the `total_norms_sq` tables shipped
//! at load time), so merged heaps never mix incomparable orderings even
//! when inputs are not normalized at ingestion.
//!
//! The chunk for a machine may arrive after the carry from its predecessor
//! (different senders, one mailbox), so both orders are buffered.
//! Per-position pruning counters feed Fig. 2a and Table 3.
//!
//! # Epochs
//!
//! Block storage is keyed by *routing epoch*. Every epoch — the build's, a
//! compaction's, a layout change's — reaches a machine the same way: one
//! [`LoadBlock`] from the client, cut from its exact copy of the rows and
//! answered with [`ToClient::EpochReady`]. The block installs beside the
//! incumbent epoch's, so queries admitted under the old epoch keep
//! executing against the old storage; a retired epoch goes only on an
//! explicit [`ToWorker::EvictEpoch`], which the client sends after the
//! last in-flight query of that epoch has drained.
//!
//! # Tiering
//!
//! A warm or cold namespace's block is spilled once, as an immutable part
//! file with a list directory (`harmony_index::persist`), and becomes
//! resident **list by list**: a hop faults exactly the probed lists its
//! block lacks, and the client's [`ToWorker::Prefetch`] lets every machine
//! of a sub-batch's itinerary do so before the hop reaches it. Faulted
//! lists live in a per-worker LRU keyed by `(ns, epoch, shard, cluster)`.
//! A hop never runs while a list it probes is in the directory but not
//! resident: if one cannot be read back the sub-batch is answered emptily
//! and counted, because scanning it as absent would shift the canonical
//! candidate indices the machines of the shard row carry between them.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{self, AtomicUsize};
use std::time::Instant;

use bytes::Bytes;
use harmony_cluster::{NodeCtx, NodeHandler, NodeId, Wire, CLIENT};
use harmony_index::distance::{
    ip, ip_rows, ip_rows_at, ip_tile, ip_u8_rows, ip_u8_rows_at, l2_sq_prefix_keep, l2_sq_rows,
    l2_sq_rows_at, l2_sq_tile, l2_sq_u8_rows, l2_sq_u8_rows_at,
};
use harmony_index::persist::{
    read_part_lists, write_part_file, PartDirectory, PartList, PartListRef, PersistError,
};
use harmony_index::{BlockCache, DeltaList, Metric, Sq8Segment, Temperature, TombstoneSet, TopK};

use crate::messages::{
    metric_tag, span, CarryBatch, ChunkBatch, ClusterBlock, DeleteIds, DeltaUpsert, LoadBlock,
    ResultBatch, SetTier, StatsReport, ToClient, ToWorker,
};
use crate::pruning::PruneRule;

/// Addresses one grid block in the tier machinery: `(ns, epoch, shard)`.
/// A worker hosts at most one block per shard per `(ns, epoch)`, so the key
/// is unique within a worker (and part files live in a per-worker
/// directory, so it is unique on disk too).
type BlockKey = (u16, u64, u32);

/// Addresses one list of a grid block: the list cache's key,
/// `(ns, epoch, shard, cluster)`.
type ListKey = (u16, u64, u32, u32);

/// Distinguishes concurrently-constructed workers' default spill
/// directories within one process.
static SPILL_DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// The vector payload of one list block, in its resident representation.
enum BlockData {
    /// Exact row-major `f32` rows.
    F32 { flat: Vec<f32> },
    /// SQ8-quantized rows: the one segment over the block's range that
    /// `cut_list` quantizes a list into (`LoadBlock` admits no other).
    Sq8 { seg: Sq8Segment },
}

impl BlockData {
    /// SQ8 when there is a segment, exact rows otherwise.
    fn of(flat: Vec<f32>, segs: Vec<Sq8Segment>) -> Self {
        match segs.into_iter().next() {
            Some(seg) => BlockData::Sq8 { seg },
            None => BlockData::F32 { flat },
        }
    }
}

/// One inverted list restricted to this worker's dimension block.
struct ListBlock {
    ids: Vec<u64>,
    data: BlockData,
    block_norms_sq: Vec<f32>,
    total_norms_sq: Vec<f32>,
    /// Max of `block_norms_sq` (0 when empty) — the `max‖p‖²` term of the
    /// SQ8 inner-product prune-slack widening.
    max_block_norm_sq: f32,
    width: usize,
}

impl ListBlock {
    /// The resident form of one list `width` dimensions wide: SQ8 when it
    /// has segments, exact rows otherwise.
    fn new(
        ids: Vec<u64>,
        flat: Vec<f32>,
        segs: Vec<Sq8Segment>,
        block_norms_sq: Vec<f32>,
        total_norms_sq: Vec<f32>,
        width: usize,
    ) -> Self {
        Self {
            ids,
            data: BlockData::of(flat, segs),
            max_block_norm_sq: block_norms_sq.iter().fold(0.0f32, |a, &b| a.max(b)),
            block_norms_sq,
            total_norms_sq,
            width,
        }
    }

    /// The resident form of a list read back from a part file: its arrays
    /// moved in, the derived maximum taken from the directory.
    fn from_part(part: PartList, width: usize) -> Self {
        Self {
            ids: part.ids,
            data: BlockData::of(part.flat, part.segs),
            block_norms_sq: part.block_norms_sq,
            total_norms_sq: part.total_norms_sq,
            max_block_norm_sq: part.max_block_norm_sq,
            width,
        }
    }

    /// What a part file stores of this list.
    fn part_ref(&self, cluster: u32) -> PartListRef<'_> {
        let (flat, segs): (&[f32], &[Sq8Segment]) = match &self.data {
            BlockData::F32 { flat } => (flat, &[]),
            BlockData::Sq8 { seg } => (&[], std::slice::from_ref(seg)),
        };
        PartListRef {
            cluster,
            ids: &self.ids,
            flat,
            segs,
            block_norms_sq: &self.block_norms_sq,
            total_norms_sq: &self.total_norms_sq,
            max_block_norm_sq: self.max_block_norm_sq,
        }
    }

    fn rows(&self) -> usize {
        self.ids.len()
    }

    /// Resident payload bytes split by representation: `(f32, sq8)`.
    fn payload_bytes(&self) -> (usize, usize) {
        match &self.data {
            BlockData::F32 { flat } => (flat.capacity() * 4, 0),
            BlockData::Sq8 { seg } => (0, seg.memory_bytes()),
        }
    }

    fn memory_bytes(&self) -> usize {
        let (f, s) = self.payload_bytes();
        self.ids.capacity() * 8
            + f
            + s
            + self.block_norms_sq.capacity() * 4
            + self.total_norms_sq.capacity() * 4
    }
}

/// Storage for one grid block `V_s D_b`.
pub(crate) struct BlockStore {
    /// Absolute dimension range `[start, end)` of the block: SQ8 segments
    /// are addressed in absolute dimensions.
    dim_start: u64,
    dim_end: u64,
    lists: HashMap<u32, ListBlock>,
}

impl BlockStore {
    /// The storage of a block shipped (or spilled) as wire lists.
    pub(crate) fn from_wire(dim_start: u64, dim_end: u64, lists: Vec<ClusterBlock>) -> Self {
        let width = (dim_end - dim_start) as usize;
        let lists = lists
            .into_iter()
            .map(|cb| {
                let list = ListBlock::new(
                    cb.ids,
                    cb.flat,
                    cb.segs,
                    cb.block_norms_sq,
                    cb.total_norms_sq,
                    width,
                );
                (cb.cluster, list)
            })
            .collect();
        Self {
            dim_start,
            dim_end,
            lists,
        }
    }

    /// Dimensions the block covers.
    fn width(&self) -> usize {
        (self.dim_end - self.dim_start) as usize
    }

    fn memory_bytes(&self) -> usize {
        self.lists
            .values()
            .map(ListBlock::memory_bytes)
            .sum::<usize>()
    }

    /// Resident payload bytes split by representation: `(f32, sq8)`.
    fn payload_bytes(&self) -> (usize, usize) {
        self.lists.values().fold((0, 0), |(f, s), l| {
            let (lf, ls) = l.payload_bytes();
            (f + lf, s + ls)
        })
    }
}

/// The disk backing of a spilled grid block: its part file, and the
/// file's list directory kept in memory so a fault reads only lists.
/// Dropping it deletes the file.
struct SpillFile {
    path: PathBuf,
    dir: PartDirectory,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One shard's grid block under the tier machinery. A pinned (hot) block
/// has no backing and every list resident; a spilled (warm/cold) one has a
/// part file — immutable for the life of the block, so demoting again is
/// free — and exactly the lists the cache holds. Dropping a slot deletes
/// its part file (the owner forgets the block's cache entries).
struct BlockSlot {
    store: BlockStore,
    spill: Option<SpillFile>,
}

impl BlockSlot {
    fn pinned(store: BlockStore) -> Self {
        Self { store, spill: None }
    }
}

fn slot_mut(
    epochs: &mut HashMap<(u16, u64), EpochStore>,
    (ns, epoch, shard): BlockKey,
) -> Option<&mut BlockSlot> {
    epochs.get_mut(&(ns, epoch))?.blocks.get_mut(&shard)
}

/// Per-namespace query configuration, set by the namespace's first
/// [`LoadBlock`] and inherited by every later epoch (migrations never
/// change a namespace's metric or pruning rule).
#[derive(Clone, Copy)]
pub(crate) struct NsMeta {
    metric: Metric,
    rule: PruneRule,
}

impl NsMeta {
    pub(crate) fn new(metric: Metric, pruning: bool) -> Self {
        Self {
            metric,
            rule: PruneRule::new(metric, pruning),
        }
    }
}

impl Default for NsMeta {
    fn default() -> Self {
        Self::new(Metric::L2, true)
    }
}

/// All grid blocks this machine hosts under one `(ns, epoch)`.
struct EpochStore {
    /// Pipeline length of the epoch's plan.
    total_dim_blocks: usize,
    /// shard → block slot (resident, spilled, or both).
    blocks: HashMap<u32, BlockSlot>,
    /// shard → freshly upserted rows (this machine's dimension slice),
    /// appended in ingest-sequence order and scanned exactly after the
    /// probed lists. Folded away when a compaction publishes the next
    /// epoch.
    deltas: HashMap<u32, DeltaList>,
    /// Soft-deleted ids. Consulted only at result emission; stored rows are
    /// never removed, so the canonical candidate enumeration stays
    /// identical across every machine of a shard row.
    tombstones: TombstoneSet,
}

impl EpochStore {
    fn new(total_dim_blocks: usize) -> Self {
        Self {
            total_dim_blocks,
            blocks: HashMap::new(),
            deltas: HashMap::new(),
            tombstones: TombstoneSet::new(),
        }
    }

    fn delta_bytes(&self) -> usize {
        self.deltas.values().map(DeltaList::memory_bytes).sum()
    }
}

/// In-flight sub-batch halves keyed by `(first query id, shard)`: every
/// machine of a shard row sees a sub-batch's rows in the same order, so the
/// first id names it on all of them.
#[derive(Default)]
struct PendingTables {
    chunks: HashMap<(u64, u32), ChunkBatch>,
    carries: HashMap<(u64, u32), CarryBatch>,
}

/// What a metric contributes to the scan: whether a partial is a distance
/// or a negated dot product, how far SQ8 may have moved a score, how a
/// full partial becomes a result score and when a partial can be
/// discarded. Resolved once per sub-batch ([`HarmonyWorker::run_hop`]), so
/// the row loop is monomorphised and carries no metric branch.
trait MetricOps {
    /// Inner-product family: partials are negated dot products, rows carry
    /// norm tables and partials are bounded by Cauchy–Schwarz residuals
    /// instead of by monotonicity.
    const IP: bool;

    /// This list's prune-widening term (see the `pruning` module docs) from
    /// the query's exact quantization error `err` and the segment's
    /// data-side bound `data_err`: distance-space under L2, dot-space under
    /// IP/cosine.
    fn sq8_eps(err: f32, data_err: f32, max_block_norm_sq: f32, q_block_norm_sq: f32) -> f32;

    /// Result score of a fully accumulated partial.
    #[inline]
    fn finish(partial: f32, _q_total_sq: f32, _p_total_sq: f32) -> f32 {
        partial
    }

    /// Whether even the best completion of `partial` misses `threshold`.
    #[inline]
    fn prune(rule: &PruneRule, partial: f32, threshold: f32, rest: Rest, eps: f32) -> bool {
        rule.should_prune_quantized(partial, threshold, rest.q_rest_sq, rest.p_rest_sq, eps)
    }
}

/// Residual and full squared norms of query and candidate (zeros under L2;
/// residuals zero on the last hop, where the partial is the full score).
#[derive(Clone, Copy, Default)]
struct Rest {
    q_rest_sq: f32,
    p_rest_sq: f32,
    q_total_sq: f32,
    p_total_sq: f32,
}

struct L2Ops;
struct IpOps;
struct CosOps;

impl MetricOps for L2Ops {
    const IP: bool = false;

    // Triangle inequality: ‖q−p‖ ≥ ‖dq(q)−dq(p)‖ − (E_q+E_p).
    fn sq8_eps(err: f32, data_err: f32, _max_block_norm_sq: f32, _q_block_norm_sq: f32) -> f32 {
        err + data_err
    }
}

impl MetricOps for IpOps {
    const IP: bool = true;

    // |q·p − dq(q)·dq(p)| ≤ E_q·‖p‖ + (‖q‖+E_q)·E_p. The stored block norms
    // are exact — `cut_list` takes them from the rows before it quantizes
    // them, on every route to an epoch — so their maximum bounds ‖p‖ as is.
    fn sq8_eps(err: f32, data_err: f32, max_block_norm_sq: f32, q_block_norm_sq: f32) -> f32 {
        let p_norm = max_block_norm_sq.max(0.0).sqrt();
        err * p_norm + (q_block_norm_sq.max(0.0).sqrt() + err) * data_err
    }
}

impl MetricOps for CosOps {
    const IP: bool = true;

    fn sq8_eps(err: f32, data_err: f32, max_block_norm_sq: f32, q_block_norm_sq: f32) -> f32 {
        IpOps::sq8_eps(err, data_err, max_block_norm_sq, q_block_norm_sq)
    }

    /// Normalized by the full vector norms so worker results land in the
    /// same lower-is-better space as the client's prewarm scores
    /// ([`Metric::score`]), even for unnormalized inputs. Zero-norm vectors
    /// score 0, matching [`harmony_index::distance::cosine`].
    #[inline]
    fn finish(partial: f32, q_total_sq: f32, p_total_sq: f32) -> f32 {
        let denom = (q_total_sq * p_total_sq).sqrt();
        if denom > 0.0 {
            partial / denom
        } else {
            0.0
        }
    }

    #[inline]
    fn prune(rule: &PruneRule, partial: f32, threshold: f32, rest: Rest, eps: f32) -> bool {
        rule.should_prune_cosine_quantized(
            partial,
            threshold,
            rest.q_rest_sq,
            rest.p_rest_sq,
            rest.q_total_sq,
            rest.p_total_sq,
            eps,
        )
    }
}

/// Lower-is-better partials of exact rows through the blocked kernels:
/// squared distances under L2, negated dot products otherwise. Query `q`
/// against each row of the row-major `rows`, into `out`.
fn f32_rows<M: MetricOps>(q: &[f32], rows: &[f32], out: &mut [f32]) {
    if M::IP {
        ip_rows(q, rows, out);
        negate(out);
    } else {
        l2_sq_rows(q, rows, out);
    }
}

/// [`f32_rows`] over the picked rows `at` only.
fn f32_rows_at<M: MetricOps>(q: &[f32], rows: &[f32], at: &[u32], out: &mut [f32]) {
    if M::IP {
        ip_rows_at(q, rows, at, out);
        negate(out);
    } else {
        l2_sq_rows_at(q, rows, at, out);
    }
}

/// [`f32_rows`] for every query of `qs`, query-major.
fn f32_tile<M: MetricOps>(qs: &[&[f32]], rows: &[f32], out: &mut [f32]) {
    if M::IP {
        ip_tile(qs, rows, out);
        negate(out);
    } else {
        l2_sq_tile(qs, rows, out);
    }
}

fn negate(out: &mut [f32]) {
    for p in out {
        *p = -*p;
    }
}

/// Coordinates of an L2 first-hop run's prefix pass (DESIGN.md §5): every
/// candidate is scored on its block's first `PREFIX` coordinates, and only
/// those whose partial does not fail the hop's test already are scored over
/// the whole block.
const PREFIX: usize = 8;

/// Narrowest exact block the prefix pass runs on. Not the pass's own
/// break-even: on 64-wide rows it still saves time. But cheaper 64-wide
/// first hops move the planner's timed rates onto near-ties between plans
/// of 64-d corpora (DESIGN.md §9): a stale `4v x 1d` plan no longer priced
/// dear enough to leave under induced skew, and `tenants_cold` and
/// `scan_uniform` picking either plan build to build. Lower it to the
/// break-even once the planner tolerates those ties.
const PREFIX_MIN_WIDTH: usize = 128;

/// The eligibility rule of the prefix pass, one per hop: L2 over exact
/// rows at least [`PREFIX_MIN_WIDTH`] wide, on the first hop (the
/// reference scoring of the tests aside).
fn prefix_eligible<M: MetricOps>(env: &HopEnv<'_>, width: usize) -> bool {
    !M::IP && width >= PREFIX_MIN_WIDTH && env.carry.is_none() && env.shortcuts()
}

/// What the next run of `slot` on an eligible hop ([`prefix_eligible`])
/// drops a candidate beyond after the prefix pass, if its test can drop:
/// the walk's own, which on a first hop has no slack — `τ` on a forwarding
/// hop, the smaller of `τ` and the local top-k's bound at the run's start
/// on the last. That bound only falls during the run, so whatever it
/// drops the walk would drop too.
fn prefix_bound(env: &HopEnv<'_>, slot: &QuerySlot) -> Option<f32> {
    if !env.rule.enabled() {
        return None;
    }
    let top = slot
        .out
        .topk
        .as_ref()
        .map_or(f32::INFINITY, TopK::threshold);
    let bound = slot.threshold.min(top);
    (bound < f32::INFINITY).then_some(bound)
}

/// What the walk reads of one run's rows beside their scores: a list
/// restricted to this block ([`ListRows`]) or the shard's delta prefix
/// ([`DeltaRows`]).
trait Rows {
    /// Squared norm of `row`'s coordinates in this block (IP metrics).
    fn block_norm_sq(&self, row: usize) -> f32;
    /// Squared norm of `row`'s full vector (IP metrics).
    fn total_norm_sq(&self, row: usize) -> f32;
    fn id(&self, row: usize) -> u64;
    /// Soft-deleted: dropped at emission only, so the enumeration itself
    /// is untouched.
    fn suppressed(&self, tombstones: &TombstoneSet, row: usize) -> bool;
}

/// A list restricted to this block.
struct ListRows<'a>(&'a ListBlock);

/// The shard's delta rows, exact f32 whatever the block representation.
struct DeltaRows<'a>(&'a DeltaList);

impl Rows for ListRows<'_> {
    #[inline]
    fn block_norm_sq(&self, row: usize) -> f32 {
        self.0.block_norms_sq[row]
    }
    #[inline]
    fn total_norm_sq(&self, row: usize) -> f32 {
        self.0.total_norms_sq[row]
    }
    #[inline]
    fn id(&self, row: usize) -> u64 {
        self.0.ids[row]
    }
    #[inline]
    fn suppressed(&self, tombstones: &TombstoneSet, row: usize) -> bool {
        tombstones.suppresses_list_row(self.0.ids[row])
    }
}

impl Rows for DeltaRows<'_> {
    #[inline]
    fn block_norm_sq(&self, row: usize) -> f32 {
        self.0.block_norm_sq(row)
    }
    #[inline]
    fn total_norm_sq(&self, row: usize) -> f32 {
        self.0.total_norm_sq(row)
    }
    #[inline]
    fn id(&self, row: usize) -> u64 {
        self.0.id(row)
    }
    #[inline]
    fn suppressed(&self, tombstones: &TombstoneSet, row: usize) -> bool {
        tombstones.suppresses_delta_row(self.0.id(row), self.0.seq(row))
    }
}

/// One `(query, run)` scored before it is settled — `BlockRepr` contract
/// point 1 (DESIGN.md §5) as data: a representation joins the scan by
/// scoring a run into this, with its blocked kernels, and the walk
/// ([`scan_run`]) never learns which one it settles.
#[derive(Clone, Copy)]
struct Scored<'a> {
    /// This block's contribution to each candidate's partial, in walk
    /// order: by row on the first hop, by carried survivor on later ones.
    partials: &'a [f32],
    /// Candidates that entered the run.
    len: usize,
    /// Where an L2 prefix pass dropped candidates: the walk positions of
    /// the survivors, ascending, `partials` holding theirs only.
    sel: Option<&'a [u32]>,
    /// `(kernel integer per candidate, cut)` where the run has settled the
    /// threshold test exactly already (SQ8's L2 first-hop cutoff): a
    /// candidate is pruned iff its integer exceeds `cut`.
    cut: Option<(&'a [u32], u32)>,
    /// The run's own prune slack (0 for exact rows).
    eps: f32,
}

/// One candidate entering the hop: where it sits in the run, its position
/// in the query's canonical enumeration, and what earlier hops accumulated
/// (zeros on the first hop).
struct Cand {
    row: usize,
    index: u32,
    partial: f32,
    visited_norm_sq: f32,
}

/// Where one query's survivors of this hop go: the outgoing carry arrays,
/// or — on the last hop — a local top-k, which also tightens the threshold
/// within the scan itself.
#[derive(Default)]
struct SlotOut {
    indices: Vec<u32>,
    partials: Vec<f32>,
    visited_norms_sq: Vec<f32>,
    topk: Option<TopK>,
}

/// Walk state and output of one query of the sub-batch. Slots live in the
/// worker's [`Scratch`] and are reused across batches, so survivors land in
/// warm buffers instead of a fresh `Vec` per chunk.
#[derive(Default)]
struct QuerySlot {
    /// Tightest threshold known (the chunk's and the carry's).
    threshold: f32,
    q_total_norm_sq: f32,
    /// This block's share of the query norm (IP metrics).
    q_block_norm_sq: f32,
    /// Query norm over every block visited so far, this one included.
    q_visited_norm_sq: f32,
    /// Prune slack carried in from earlier hops.
    eps_in: f32,
    /// Largest per-list slack met on this hop.
    hop_eps: f32,
    /// Enumeration index of row 0 of the run being walked.
    base: u32,
    /// Cursor value when the hop began; `cursor - entered` candidates
    /// have entered the hop so far.
    entered: usize,
    /// Next unread carried survivor (absolute offset into the carry); on
    /// the first hop, simply the rows enumerated so far.
    cursor: usize,
    /// One past this query's last carried survivor.
    carried_end: usize,
    out: SlotOut,
}

/// Per-worker buffers of the scan routine.
#[derive(Default)]
pub(crate) struct Scratch {
    slots: Vec<QuerySlot>,
    /// `(cluster, query row)` pairs of the sub-batch, sorted: the
    /// list-major walk order.
    probes: Vec<(u32, u32)>,
    run: RunScratch,
    /// Score runs row by row and settle every candidate one at a time
    /// ([`tests::score_by_rows`]): the reference the run scoring and the
    /// walk's shortcuts are checked against.
    #[cfg(test)]
    by_rows: bool,
}

/// The buffers one run is scored into, then settled from.
#[derive(Default)]
struct RunScratch {
    /// SQ8: the query slice's codes against the list's segment.
    codes: Vec<u8>,
    /// On a carried hop, the rows of the run its survivors sit at, in
    /// carry order.
    picks: Vec<u32>,
    /// SQ8: the kernel's integer per candidate.
    ints: Vec<u32>,
    /// Each candidate's partial, in walk order; after a first-hop tile,
    /// every query of the group's, query-major.
    partials: Vec<f32>,
    /// L2 prefix pass: the walk positions of the candidates it kept.
    sel: Vec<u32>,
    /// Candidates the prefix pass has dropped, for the oracle test to see
    /// that its fixture engages it.
    #[cfg(test)]
    prefix_dropped: u64,
}

impl RunScratch {
    /// The first `len` candidates scored, with the run's prune slack and
    /// its L2 first-hop cutoff on the kernel integer, where one applies.
    fn scored(&self, len: usize, eps: f32, cut: Option<u32>) -> Scored<'_> {
        Scored {
            partials: &self.partials[..len],
            len,
            sel: None,
            cut: cut.map(|cut| (&self.ints[..len], cut)),
            eps,
        }
    }

    /// The candidates of `slot`'s run of `n` rows: `n` on the first hop;
    /// on later ones the carried survivors that fall inside the run (runs
    /// and survivor indices both ascend), whose rows land in `picks`.
    fn pick(&mut self, env: &HopEnv<'_>, slot: &QuerySlot, n: usize) -> usize {
        self.picks.clear();
        let Some(carry) = env.carry else { return n };
        self.picks.extend(
            carry.indices[slot.cursor..slot.carried_end]
                .iter()
                .map(|&index| index.wrapping_sub(slot.base))
                .take_while(|&row| (row as usize) < n),
        );
        self.picks.len()
    }

    /// Exact rows' scoring step for one `(query, run)`: the run's `n` rows
    /// of `rows` (row-major, `q.len()` wide) through the blocked kernels —
    /// every row on the first hop, the carried survivors in carry order on
    /// later ones — into `partials`; in two passes where the hop is
    /// eligible ([`prefix_eligible`]) and [`prefix_bound`] can drop.
    fn score_f32<M: MetricOps>(
        &mut self,
        env: &HopEnv<'_>,
        rows: &[f32],
        n: usize,
        q: &[f32],
        slot: &QuerySlot,
    ) -> Scored<'_> {
        let len = self.pick(env, slot, n);
        grow(&mut self.partials, len);
        #[cfg(test)]
        if env.by_rows {
            tests::score_f32_by_rows::<M>(self, rows, q, len);
            return self.scored(len, 0.0, None);
        }
        match env.carry {
            None => {
                if prefix_eligible::<M>(env, q.len()) {
                    if let Some(bound) = prefix_bound(env, slot) {
                        return self.score_prefixed(rows, len, q, bound);
                    }
                }
                f32_rows::<M>(q, rows, &mut self.partials[..len]);
            }
            Some(_) => f32_rows_at::<M>(q, rows, &self.picks, &mut self.partials[..len]),
        }
        self.scored(len, 0.0, None)
    }

    /// L2's two passes over the `len` rows of a first-hop run: the first
    /// [`PREFIX`] coordinates of every row, then, with the four-row gather,
    /// the whole of those whose prefix is not beyond `bound`. The prefix
    /// kernel sums its lanes as the row kernels sum their first ones, so a
    /// prefix is never above the row's partial and every candidate dropped
    /// is one the walk would prune (DESIGN.md §5). Kept out of line, so the
    /// one-pass runs' scoring step stays as small as it was.
    #[inline(never)]
    fn score_prefixed(&mut self, rows: &[f32], len: usize, q: &[f32], bound: f32) -> Scored<'_> {
        grow(&mut self.sel, len);
        grow(&mut self.partials, len);
        // Kept: `!(prefix > bound)`, as the walk's compaction.
        let kept = l2_sq_prefix_keep(&q[..PREFIX], rows, q.len(), bound, &mut self.sel[..len]);
        #[cfg(test)]
        {
            self.prefix_dropped += (len - kept) as u64;
        }
        let sel = &self.sel[..kept];
        l2_sq_rows_at(q, rows, sel, &mut self.partials[..kept]);
        Scored {
            partials: &self.partials[..kept],
            len,
            sel: Some(sel),
            cut: None,
            eps: 0.0,
        }
    }

    /// SQ8's scoring step for one `(query, list)` run. Quantizes the query
    /// slice `q` once, into `codes`; scores the run's candidates with the
    /// blocked u8 kernels into `ints`; and turns each integer into its
    /// partial with the segment's own formula, so every partial is bit for
    /// bit what `quant::l2_partial_row` / `ip_dot_row` give. On an L2 first
    /// hop that is not the last, the prune test depends on the integer
    /// alone (DESIGN.md §5), so one cutoff per run settles it.
    fn score_sq8<M: MetricOps>(
        &mut self,
        env: &HopEnv<'_>,
        list: &ListBlock,
        seg: &Sq8Segment,
        q: &[f32],
        slot: &QuerySlot,
    ) -> Scored<'_> {
        let len = self.pick(env, slot, list.rows());
        grow(&mut self.partials, len);
        #[cfg(test)]
        if env.by_rows {
            let eps = tests::score_sq8_by_rows::<M>(self, list, seg, q, slot, len);
            return self.scored(len, eps, None);
        }
        let (q_code_sum, err_sq) = seg.quantize_query_into(q, &mut self.codes);
        // `prepare_block_query`'s sums over segments, for one segment.
        let data_err = {
            let e = seg.row_error_bound();
            (e * e).sqrt()
        };
        let eps = M::sq8_eps(
            err_sq.sqrt(),
            data_err,
            list.max_block_norm_sq,
            slot.q_block_norm_sq,
        );
        grow(&mut self.ints, len);
        let ints = &mut self.ints[..len];
        match (env.carry, M::IP) {
            (None, true) => ip_u8_rows(&self.codes, &seg.codes, ints),
            (None, false) => l2_sq_u8_rows(&self.codes, &seg.codes, ints),
            (Some(_), true) => ip_u8_rows_at(&self.codes, &seg.codes, &self.picks, ints),
            (Some(_), false) => l2_sq_u8_rows_at(&self.codes, &seg.codes, &self.picks, ints),
        }
        for (i, (p, &int)) in self.partials.iter_mut().zip(&*ints).enumerate() {
            let row = match env.carry {
                None => i,
                Some(_) => self.picks[i] as usize,
            };
            *p = if M::IP {
                -seg.ip_of(q_code_sum, row, int)
            } else {
                seg.l2_of(int)
            };
        }
        let cut = if env.carry.is_none() && !env.is_last && !M::IP {
            let b = Bounds::of(slot, eps);
            env.rule
                .l2_cutoff(seg.scale * seg.scale, b.threshold, b.eps, seg.max_l2_int())
        } else {
            None
        };
        self.scored(len, eps, cut)
    }
}

/// Lengthens a reused buffer to at least `n` entries; it never shrinks.
fn grow<T: Copy + Default>(buf: &mut Vec<T>, n: usize) {
    if buf.len() < n {
        buf.resize(n, T::default());
    }
}

/// What one hop did, for the statistics counters.
#[derive(Default)]
pub(crate) struct HopTally {
    /// Candidates that entered the hop (candidate visits).
    pub(crate) seen: u64,
    pub(crate) pruned: u64,
    pub(crate) scanned_point_dims: u64,
}

/// The per-hop constants of the scan.
struct HopEnv<'a> {
    rule: PruneRule,
    tombstones: &'a TombstoneSet,
    /// `None` on the first hop: every row of a run is a candidate.
    carry: Option<&'a CarryBatch>,
    is_last: bool,
    /// [`Scratch::by_rows`].
    #[cfg(test)]
    by_rows: bool,
}

impl HopEnv<'_> {
    /// Whether the walk may take its L2 shortcuts (always, outside the
    /// reference the tests check them against).
    fn shortcuts(&self) -> bool {
        #[cfg(test)]
        if self.by_rows {
            return false;
        }
        true
    }
}

/// What every candidate of one `(query, run)` is bounded against.
#[derive(Clone, Copy)]
struct Bounds {
    threshold: f32,
    q_total_sq: f32,
    /// Query norm over the blocks not visited yet.
    q_rest_sq: f32,
    /// Prune slack accumulated so far: previous hops' carry plus this
    /// run's contribution.
    eps: f32,
}

impl Bounds {
    /// What one query's candidates are bounded against in a run whose own
    /// prune slack is `eps_run`.
    fn of(slot: &QuerySlot, eps_run: f32) -> Self {
        Self {
            threshold: slot.threshold,
            q_total_sq: slot.q_total_norm_sq,
            q_rest_sq: slot.q_total_norm_sq - slot.q_visited_norm_sq,
            eps: slot.eps_in + eps_run,
        }
    }
}

/// `bound → prune → emit` for one candidate, `part` being this block's
/// contribution to its partial and `cut` the run's exact verdict on it,
/// if it has one.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn settle<M: MetricOps, R: Rows>(
    env: &HopEnv<'_>,
    rows: &R,
    c: Cand,
    part: f32,
    cut: Option<bool>,
    Bounds {
        threshold,
        q_total_sq,
        q_rest_sq,
        eps,
    }: Bounds,
    out: &mut SlotOut,
    tally: &mut HopTally,
) {
    let partial = c.partial + part;
    let (mut rest, mut p_visited) = (Rest::default(), 0.0);
    if M::IP {
        p_visited = c.visited_norm_sq + rows.block_norm_sq(c.row);
        rest.q_total_sq = q_total_sq;
        rest.p_total_sq = rows.total_norm_sq(c.row);
        if !env.is_last {
            rest.q_rest_sq = q_rest_sq;
            rest.p_rest_sq = rest.p_total_sq - p_visited;
        }
    }
    let global_prune = cut.unwrap_or_else(|| M::prune(&env.rule, partial, threshold, rest, eps));
    if let Some(topk) = out.topk.as_mut() {
        // Full score now known; keep only entries beating both the local
        // top-k (same-domain, no widening) and the exact-domain client
        // threshold (widened).
        let score = M::finish(partial, rest.q_total_sq, rest.p_total_sq);
        if env.rule.enabled() && (score > topk.threshold() || global_prune) {
            tally.pruned += 1;
        } else if !rows.suppressed(env.tombstones, c.row) {
            topk.push(rows.id(c.row), score);
        }
    } else if global_prune {
        tally.pruned += 1;
    } else {
        out.indices.push(c.index);
        out.partials.push(partial);
        if M::IP {
            out.visited_norms_sq.push(p_visited);
        }
    }
}

/// `bound → prune → emit` over one query's scored run of `run_len` rows —
/// the only row loop of the worker. The candidates are every row of the
/// run on the first hop, and on later hops the carried survivors that fall
/// inside it, in the order [`RunScratch::pick`] scored them. Under L2 two
/// shortcuts decide most candidates without [`settle`], each giving
/// exactly its verdict: a hop that is not the last keeps its survivors by
/// a branchless compaction when the test is the run's integer cutoff or
/// the plain `partial > τ` (no slack: `keep = !(p > τ)`, which keeps NaN,
/// and τ = ∞ or pruning off keeps all); the last hop drops a candidate
/// beyond `τ` (no slack) or the local top-k's bound before settling it.
/// Where a prefix pass dropped candidates already, only its survivors are
/// walked and the rest count as pruned.
fn scan_run<M: MetricOps, R: Rows>(
    env: &HopEnv<'_>,
    rows: &R,
    (run_len, width): (usize, usize),
    scored: Scored<'_>,
    slot: &mut QuerySlot,
    tally: &mut HopTally,
) {
    slot.hop_eps = slot.hop_eps.max(scored.eps);
    match scored.sel {
        None => walk::<M, R>(env, rows, scored, |j| j, slot, tally),
        Some(sel) => walk_selected::<M, R>(env, rows, scored, sel, slot, tally),
    }
    slot.cursor += scored.len;
    tally.scanned_point_dims += (scored.len * width) as u64;
    slot.base += run_len as u32;
}

/// [`walk`] over the survivors of a prefix pass, the rest counted pruned.
/// Kept out of line, so the walk of a run without a selection is the only
/// one inlined into [`scan_run`].
#[inline(never)]
fn walk_selected<M: MetricOps, R: Rows>(
    env: &HopEnv<'_>,
    rows: &R,
    scored: Scored<'_>,
    sel: &[u32],
    slot: &mut QuerySlot,
    tally: &mut HopTally,
) {
    tally.pruned += (scored.len - sel.len()) as u64;
    walk::<M, R>(env, rows, scored, |j| sel[j] as usize, slot, tally);
}

/// [`scan_run`]'s walk over the scored candidates, the `j`-th of which sits
/// at walk position `pos(j)` of the run: monomorphised apart for a run
/// without a prefix selection, whose `pos` is the identity.
#[inline(always)]
fn walk<M: MetricOps, R: Rows>(
    env: &HopEnv<'_>,
    rows: &R,
    scored: Scored<'_>,
    pos: impl Fn(usize) -> usize,
    slot: &mut QuerySlot,
    tally: &mut HopTally,
) {
    let bounds = Bounds::of(slot, scored.eps);
    let (base, at) = (slot.base, slot.cursor);
    let len = scored.partials.len();
    let cand = |i: usize| match env.carry {
        None => Cand {
            row: i,
            index: base + i as u32,
            partial: 0.0,
            visited_norm_sq: 0.0,
        },
        Some(carry) => {
            let at = at + i;
            let index = carry.indices[at];
            Cand {
                row: index.wrapping_sub(base) as usize,
                index,
                partial: carry.partials[at],
                visited_norm_sq: carry.visited_norms_sq.get(at).copied().unwrap_or(0.0),
            }
        }
    };
    let shortcuts = !M::IP && env.shortcuts();
    // Without slack the prune test is the plain `partial > τ`.
    let plain = bounds.eps <= 0.0;
    if shortcuts && !env.is_last && (scored.cut.is_some() || plain) {
        let tau = if env.rule.enabled() {
            bounds.threshold
        } else {
            f32::INFINITY
        };
        let out = &mut slot.out;
        let start = out.indices.len();
        out.indices.resize(start + len, 0);
        out.partials.resize(start + len, 0.0);
        let mut kept = start;
        for (j, &part) in scored.partials.iter().enumerate() {
            let i = pos(j);
            let c = cand(i);
            let partial = c.partial + part;
            let keep = match scored.cut {
                Some((ints, cut)) => ints[i] <= cut,
                None => partial.partial_cmp(&tau) != Some(Ordering::Greater),
            };
            out.indices[kept] = c.index;
            out.partials[kept] = partial;
            kept += usize::from(keep);
        }
        out.indices.truncate(kept);
        out.partials.truncate(kept);
        tally.pruned += (start + len - kept) as u64;
    } else {
        let prefilter = shortcuts && env.is_last && env.rule.enabled();
        let tau = if plain {
            bounds.threshold
        } else {
            f32::INFINITY
        };
        for (j, &part) in scored.partials.iter().enumerate() {
            let i = pos(j);
            let c = cand(i);
            if prefilter {
                let partial = c.partial + part;
                let top = slot
                    .out
                    .topk
                    .as_ref()
                    .map_or(f32::INFINITY, TopK::threshold);
                if partial > tau || partial > top {
                    tally.pruned += 1;
                    continue;
                }
            }
            let cut = scored.cut.map(|(ints, cut)| ints[i] > cut);
            settle::<M, R>(env, rows, c, part, cut, bounds, &mut slot.out, tally);
        }
    }
}

/// The first-hop runs of `queries` over every row of the exact `list`
/// (`flat`): one register tile, then each run walked.
#[inline(always)]
fn scan_tiled<'c, M: MetricOps>(
    env: &HopEnv<'_>,
    list: &ListBlock,
    flat: &[f32],
    queries: impl Iterator<Item = u32> + Clone,
    chunk: &'c ChunkBatch,
    (slots, run, tally): (&mut [QuerySlot], &mut RunScratch, &mut HopTally),
    tile: &mut Vec<&'c [f32]>,
) {
    let shape = (list.rows(), list.width);
    let n = shape.0;
    tile.clear();
    tile.extend(queries.clone().map(|q| chunk.dims_of(q as usize)));
    grow(&mut run.partials, tile.len() * n);
    f32_tile::<M>(tile, flat, &mut run.partials[..tile.len() * n]);
    for (g, q) in queries.enumerate() {
        let scored = Scored {
            partials: &run.partials[g * n..(g + 1) * n],
            len: n,
            sel: None,
            cut: None,
            eps: 0.0,
        };
        let slot = &mut slots[q as usize];
        scan_run::<M, _>(env, &ListRows(list), shape, scored, slot, tally);
    }
}

/// The first-hop runs over the exact `list` (`flat`) of the queries of
/// `group` on a hop eligible for the prefix pass: each whose test can drop
/// ([`prefix_bound`]) scored in two passes and walked, the others pushed
/// to `tiled`, for one register tile. Kept out of line, so the tile path
/// of a hop the pass does not run on stays as small as it was.
#[inline(never)]
fn scan_prefixed<M: MetricOps>(
    env: &HopEnv<'_>,
    list: &ListBlock,
    flat: &[f32],
    group: &[(u32, u32)],
    (slots, run, tally): (&mut [QuerySlot], &mut RunScratch, &mut HopTally),
    tiled: &mut Vec<u32>,
    chunk: &ChunkBatch,
) {
    let shape = (list.rows(), list.width);
    tiled.clear();
    for &(_, q) in group {
        let slot = &mut slots[q as usize];
        let Some(bound) = prefix_bound(env, slot) else {
            tiled.push(q);
            continue;
        };
        let scored = run.score_prefixed(flat, shape.0, chunk.dims_of(q as usize), bound);
        scan_run::<M, _>(env, &ListRows(list), shape, scored, slot, tally);
    }
}

/// Scans one sub-batch on one hop, **list-major**: for each list any query
/// of the sub-batch probes, in ascending cluster id — which is also every
/// query's canonical enumeration order, because chunk rows list their
/// clusters ascending — score every query that probes it while the list's
/// slice is cache-resident (on an exact first hop all of them in one
/// register tile, which loads each row once per pair of queries); then the
/// shard's delta prefix, once, for all queries. Results are left in the
/// slots of `scratch`.
fn scan_batch<M: MetricOps>(
    env: &HopEnv<'_>,
    block: Option<&BlockStore>,
    delta: Option<&DeltaList>,
    chunk: &ChunkBatch,
    scratch: &mut Scratch,
) -> HopTally {
    let mut tally = HopTally::default();
    let Scratch {
        slots, probes, run, ..
    } = scratch;
    if let Some(block) = block {
        probes.clear();
        for q in 0..chunk.len() {
            probes.extend(chunk.clusters_of(q).iter().map(|&c| (c, q as u32)));
        }
        probes.sort_unstable();
        let mut tile: Vec<&[f32]> = Vec::new();
        let mut tiled: Vec<u32> = Vec::new();
        let prefix = prefix_eligible::<M>(env, chunk.width());
        for group in probes.chunk_by(|a, b| a.0 == b.0) {
            let Some(list) = block.lists.get(&group[0].0) else {
                continue;
            };
            let shape = (list.rows(), list.width);
            match &list.data {
                // Every row is a candidate of every query of the group: a
                // query whose run takes the L2 prefix pass is scored alone,
                // the rest share one tile.
                BlockData::F32 { flat } if prefix => {
                    let runs = (&mut slots[..], &mut *run, &mut tally);
                    scan_prefixed::<M>(env, list, flat, group, runs, &mut tiled, chunk);
                    if !tiled.is_empty() {
                        let runs = (&mut slots[..], &mut *run, &mut tally);
                        let queries = tiled.iter().copied();
                        scan_tiled::<M>(env, list, flat, queries, chunk, runs, &mut tile);
                    }
                }
                BlockData::F32 { flat } if env.carry.is_none() && env.shortcuts() => {
                    let runs = (&mut slots[..], &mut *run, &mut tally);
                    let queries = group.iter().map(|&(_, q)| q);
                    scan_tiled::<M>(env, list, flat, queries, chunk, runs, &mut tile);
                }
                data => {
                    for &(_, q) in group {
                        let slot = &mut slots[q as usize];
                        let carried_here = env.carry.is_none_or(|carry| {
                            slot.cursor < slot.carried_end
                                && carry.indices[slot.cursor].wrapping_sub(slot.base)
                                    < shape.0 as u32
                        });
                        if shape.0 == 0 || !carried_here {
                            // Nothing of this query lives here: only the
                            // enumeration advances (and no SQ8 query
                            // preparation is paid).
                            slot.base += shape.0 as u32;
                            continue;
                        }
                        let dims = chunk.dims_of(q as usize);
                        let scored = match data {
                            BlockData::F32 { flat } => {
                                run.score_f32::<M>(env, flat, shape.0, dims, slot)
                            }
                            BlockData::Sq8 { seg } => {
                                run.score_sq8::<M>(env, list, seg, dims, slot)
                            }
                        };
                        scan_run::<M, _>(env, &ListRows(list), shape, scored, slot, &mut tally);
                    }
                }
            }
        }
    }
    // Exact delta scan: rows below the shared admission watermark, in
    // append (= sequence) order, enumerated after every probed list so
    // carried indices stay canonical across the shard row. Delta partials
    // are exact f32, so their own prune slack is zero even under SQ8.
    if let Some(delta) = delta {
        // The first hop enumerates the visible prefix (rows are sorted by
        // sequence); later hops address whatever it enumerated.
        let run_len = match env.carry {
            Some(_) => delta.len(),
            None => (0..delta.len())
                .take_while(|&i| delta.seq(i) < chunk.delta_seq)
                .count(),
        };
        let shape = (run_len, delta.width());
        let rows = delta.rows(run_len);
        for (q, slot) in slots.iter_mut().enumerate().take(chunk.len()) {
            let scored = run.score_f32::<M>(env, rows, run_len, chunk.dims_of(q), slot);
            scan_run::<M, _>(env, &DeltaRows(delta), shape, scored, slot, &mut tally);
        }
    }
    debug_assert!(
        slots
            .iter()
            .take(chunk.len())
            .all(|s| env.carry.is_none() || s.cursor == s.carried_end),
        "carried indices extend past the canonical enumeration"
    );
    tally
}

/// What one hop of a sub-batch produces.
pub(crate) enum HopOutput {
    /// Not the last position: the survivors, for the next machine of the
    /// itinerary.
    Forward(CarryBatch),
    /// The last position: the sub-batch's answer, for the client.
    Answer(ResultBatch),
}

/// One hop of one sub-batch over the storage it resolved to — the part of
/// the worker that touches neither the fabric nor the worker's tables, so
/// the planner can time it on sample lists and a simulated transport can
/// drive it. Position 0 enumerates candidates from the probed lists (plus
/// the shard's delta rows below the watermark), later positions add this
/// block's contribution to the carried partials; the last position keeps
/// the best `k` per query, the others forward the survivors. The metric is
/// resolved here, once, and the whole batch runs through [`scan_batch`].
pub(crate) fn scan_hop(
    meta: NsMeta,
    tombstones: &TombstoneSet,
    block: Option<&BlockStore>,
    delta: Option<&DeltaList>,
    chunk: ChunkBatch,
    carry: Option<&CarryBatch>,
    scratch: &mut Scratch,
) -> (HopOutput, HopTally) {
    let n = chunk.len();
    let position = chunk.position as usize;
    let is_last = position + 1 >= chunk.order.len();
    let is_ip = !matches!(meta.metric, Metric::L2);
    let k = chunk.k.max(1) as usize;
    if scratch.slots.len() < n {
        scratch.slots.resize_with(n, QuerySlot::default);
    }
    for (q, slot) in scratch.slots.iter_mut().enumerate().take(n) {
        let dims = chunk.dims_of(q);
        slot.threshold = chunk.thresholds[q];
        slot.q_total_norm_sq = chunk.q_total_norms_sq.get(q).copied().unwrap_or(0.0);
        slot.q_block_norm_sq = if is_ip { ip(dims, dims) } else { 0.0 };
        slot.q_visited_norm_sq = slot.q_block_norm_sq;
        (slot.eps_in, slot.hop_eps, slot.base) = (0.0, 0.0, 0);
        (slot.cursor, slot.carried_end) = (0, 0);
        if let Some(carry) = carry {
            let carried = span(&carry.survivor_ends, q);
            (slot.cursor, slot.carried_end) = (carried.start, carried.end);
            // Tightest threshold wins (lower-is-better scores).
            slot.threshold = slot.threshold.min(carry.thresholds[q]);
            slot.q_visited_norm_sq += carry.q_visited_norms_sq.get(q).copied().unwrap_or(0.0);
            slot.eps_in = carry.quant_eps.get(q).copied().unwrap_or(0.0);
        }
        slot.entered = slot.cursor;
        slot.out.indices.clear();
        slot.out.partials.clear();
        slot.out.visited_norms_sq.clear();
        slot.out.topk = is_last.then(|| TopK::new(k));
    }

    let env = HopEnv {
        rule: meta.rule,
        tombstones,
        carry,
        is_last,
        #[cfg(test)]
        by_rows: scratch.by_rows,
    };
    let mut tally = match meta.metric {
        Metric::L2 => scan_batch::<L2Ops>(&env, block, delta, &chunk, scratch),
        Metric::InnerProduct => scan_batch::<IpOps>(&env, block, delta, &chunk, scratch),
        Metric::Cosine => scan_batch::<CosOps>(&env, block, delta, &chunk, scratch),
    };
    let slots = &mut scratch.slots[..n];
    tally.seen = slots.iter().map(|s| (s.cursor - s.entered) as u64).sum();

    if is_last {
        let hits = slots
            .iter()
            .map(|s| s.out.topk.as_ref().map_or(0, TopK::len))
            .sum();
        let mut result = ResultBatch {
            shard: chunk.shard,
            result_ends: Vec::with_capacity(n),
            ids: Vec::with_capacity(hits),
            scores: Vec::with_capacity(hits),
            candidates_seen: Vec::with_capacity(n),
            query_ids: chunk.query_ids,
        };
        for slot in slots.iter_mut() {
            for hit in slot
                .out
                .topk
                .take()
                .map(TopK::into_sorted)
                .unwrap_or_default()
            {
                result.ids.push(hit.id);
                result.scores.push(hit.score);
            }
            result.result_ends.push(result.ids.len() as u32);
            result
                .candidates_seen
                .push((slot.cursor - slot.entered) as u64);
        }
        return (HopOutput::Answer(result), tally);
    }
    let survivors: usize = slots.iter().map(|s| s.out.indices.len()).sum();
    let mut out = CarryBatch {
        first_query_id: chunk.query_ids[0],
        shard: chunk.shard,
        thresholds: Vec::with_capacity(n),
        survivor_ends: Vec::with_capacity(n),
        indices: Vec::with_capacity(survivors),
        partials: Vec::with_capacity(survivors),
        visited_norms_sq: Vec::with_capacity(if is_ip { survivors } else { 0 }),
        q_visited_norms_sq: Vec::with_capacity(if is_ip { n } else { 0 }),
        quant_eps: Vec::new(),
    };
    for slot in slots.iter() {
        out.thresholds.push(slot.threshold);
        out.indices.extend_from_slice(&slot.out.indices);
        out.partials.extend_from_slice(&slot.out.partials);
        out.survivor_ends.push(out.indices.len() as u32);
        if is_ip {
            out.visited_norms_sq
                .extend_from_slice(&slot.out.visited_norms_sq);
            out.q_visited_norms_sq.push(slot.q_visited_norm_sq);
        }
    }
    // Per hop, the *maximum* slack over the scanned lists, summed along
    // the pipeline; exact deployments never send the array.
    if slots.iter().any(|s| s.eps_in + s.hop_eps != 0.0) {
        out.quant_eps = slots.iter().map(|s| s.eps_in + s.hop_eps).collect();
    }
    (HopOutput::Forward(out), tally)
}

/// The Harmony worker node handler.
pub struct HarmonyWorker {
    /// `(ns, epoch)` → grid-block storage. Queries resolve their storage by
    /// the namespace and epoch stamped on the chunk, so in-flight traffic
    /// survives a live migration untouched and tenants never see each
    /// other's blocks. Epoch numbers are per-namespace sequences.
    epochs: HashMap<(u16, u64), EpochStore>,
    pending: PendingTables,
    /// Reusable buffers of the scan routine.
    scratch: Scratch,
    /// Per-namespace metric and pruning rule.
    ns_meta: HashMap<u16, NsMeta>,
    /// Per-namespace residency tier (absent = hot).
    tiers: HashMap<u16, Temperature>,
    /// LRU over the resident lists of spilled blocks, each at its full
    /// memory footprint (ids, rows, norm tables); the lists live in the
    /// slots.
    cache: BlockCache<ListKey>,
    /// Directory for this worker's part files (created lazily).
    spill_dir: PathBuf,
    spill_dir_ready: bool,
    /// Longest pipeline across live epochs (sizes the slice counters).
    slice_positions: usize,
    // --- statistics ---
    slice_in: Vec<u64>,
    slice_pruned: Vec<u64>,
    scanned_point_dims: u64,
    /// Wall nanoseconds spent in candidate scan loops (observed compute,
    /// fed back into the client's cost-model recalibration).
    compute_ns: u64,
    /// Requested lists of spilled blocks found resident.
    cache_hits: u64,
    /// Lists faulted in, and the part-file bytes that took.
    cache_misses: u64,
    fault_bytes: u64,
    /// Sub-batches answered emptily because a probed list was unreadable.
    spill_read_errors: u64,
    /// Sub-batches scanned as part of a joined run, for the tests to see
    /// that their queues form runs.
    #[cfg(test)]
    chunks_joined: u64,
}

impl Default for HarmonyWorker {
    fn default() -> Self {
        Self::new()
    }
}

/// Default warm-cache byte budget when the engine does not configure one.
const DEFAULT_CACHE_BUDGET: usize = 64 << 20;

impl HarmonyWorker {
    /// Creates an empty worker; configuration arrives with the first
    /// [`LoadBlock`]. Spill files land in a per-instance temp directory.
    pub fn new() -> Self {
        let seq = SPILL_DIR_SEQ.fetch_add(1, atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("harmony-spill-{}-w{seq}", std::process::id()));
        Self::with_tiering(dir, DEFAULT_CACHE_BUDGET)
    }

    /// Creates an empty worker that spills warm/cold blocks under
    /// `spill_dir` and caches faulted lists up to `cache_budget` bytes.
    pub fn with_tiering(spill_dir: PathBuf, cache_budget: usize) -> Self {
        Self {
            epochs: HashMap::new(),
            pending: PendingTables::default(),
            scratch: Scratch::default(),
            ns_meta: HashMap::new(),
            tiers: HashMap::new(),
            cache: BlockCache::new(cache_budget),
            spill_dir,
            spill_dir_ready: false,
            slice_positions: 1,
            slice_in: vec![0],
            slice_pruned: vec![0],
            scanned_point_dims: 0,
            compute_ns: 0,
            cache_hits: 0,
            cache_misses: 0,
            fault_bytes: 0,
            spill_read_errors: 0,
            #[cfg(test)]
            chunks_joined: 0,
        }
    }

    /// Per-namespace metric and pruning rule (default before any load).
    fn meta(&self, ns: u16) -> NsMeta {
        self.ns_meta.get(&ns).copied().unwrap_or_default()
    }

    fn tier(&self, ns: u16) -> Temperature {
        self.tiers.get(&ns).copied().unwrap_or_default()
    }

    fn spill_path(&self, (ns, epoch, shard): BlockKey) -> PathBuf {
        self.spill_dir
            .join(format!("ns{ns}-e{epoch}-s{shard}.part"))
    }

    /// Drops the named lists of spilled blocks (cache evictions, and the
    /// lists a hop kept past the budget until it was done with them).
    fn drop_cached(&mut self, keys: impl IntoIterator<Item = ListKey>) {
        for (ns, epoch, shard, cluster) in keys {
            let Some(slot) = slot_mut(&mut self.epochs, (ns, epoch, shard)) else {
                continue;
            };
            debug_assert!(slot.spill.is_some(), "dropping a list with no backing");
            slot.store.lists.remove(&cluster);
        }
    }

    /// Writes the block's part file unless it has one. Only a pinned block
    /// lacks one, and a pinned block holds every list. On I/O failure the
    /// block keeps no backing and stays pinned, trading memory for safety.
    fn ensure_spilled(&mut self, key: BlockKey) {
        let path = self.spill_path(key);
        if !self.spill_dir_ready {
            if std::fs::create_dir_all(&self.spill_dir).is_err() {
                return;
            }
            self.spill_dir_ready = true;
        }
        let Some(slot) = slot_mut(&mut self.epochs, key) else {
            return;
        };
        if slot.spill.is_some() {
            return;
        }
        let store = &slot.store;
        let mut lists: Vec<PartListRef<'_>> =
            store.lists.iter().map(|(&c, l)| l.part_ref(c)).collect();
        if let Ok(dir) = write_part_file(&path, (store.dim_start, store.dim_end), &mut lists) {
            slot.spill = Some(SpillFile { path, dir });
        }
    }

    /// Makes the lists `clusters` of `key`'s block resident: a spilled
    /// block faults the ones it lacks from its part file — each read and
    /// checked alone — and refreshes the recency of the rest; a pinned
    /// block (or an unknown one) returns at once. Faulting may push colder
    /// lists past the cache budget. Returns the requested lists the budget
    /// pushed out too: they stay resident for the caller, who drops them
    /// ([`Self::drop_cached`]) once done. On a read error nothing is
    /// installed.
    fn fault_in(&mut self, key: BlockKey, clusters: &[u32]) -> Result<Vec<ListKey>, PersistError> {
        let Some(slot) = slot_mut(&mut self.epochs, key) else {
            return Ok(Vec::new());
        };
        let Some(spill) = &slot.spill else {
            return Ok(Vec::new()); // pinned
        };
        let (ns, epoch, shard) = key;
        let mut wanted: Vec<u32> = clusters
            .iter()
            .copied()
            .filter(|&c| spill.dir.entry(c).is_some())
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        let mut missing = Vec::new();
        for &cluster in &wanted {
            if slot.store.lists.contains_key(&cluster) {
                self.cache.touch(&(ns, epoch, shard, cluster));
                self.cache_hits += 1;
            } else {
                missing.push(cluster);
            }
        }
        if missing.is_empty() {
            return Ok(Vec::new());
        }
        let parts = read_part_lists(&spill.path, &spill.dir, &missing)?;
        let read: u64 = missing
            .iter()
            .filter_map(|&c| spill.dir.entry(c))
            .map(|e| e.len)
            .sum();
        self.fault_bytes += read;
        self.cache_misses += parts.len() as u64;
        let width = slot.store.width();
        let mut evicted = Vec::new();
        for part in parts {
            let cluster = part.cluster;
            let list = ListBlock::from_part(part, width);
            let bytes = list.memory_bytes();
            slot.store.lists.insert(cluster, list);
            evicted.extend(self.cache.insert((ns, epoch, shard, cluster), bytes));
        }
        let (kept, dropped): (Vec<ListKey>, Vec<ListKey>) = evicted
            .into_iter()
            .partition(|&(n, e, s, c)| (n, e, s) == key && wanted.binary_search(&c).is_ok());
        self.drop_cached(dropped);
        Ok(kept)
    }

    /// Spills `key`'s block (once) and keeps its resident lists as cache
    /// entries (`keep`, warm) or drops them (cold). A block whose spill
    /// fails stays pinned.
    fn demote(&mut self, key: BlockKey, keep: bool) {
        let was_spilled = slot_mut(&mut self.epochs, key).is_some_and(|s| s.spill.is_some());
        self.ensure_spilled(key);
        let Some(slot) = slot_mut(&mut self.epochs, key) else {
            return;
        };
        if slot.spill.is_none() || (keep && was_spilled) {
            return; // spill failed: pinned; or already warm/cold: cached
        }
        let (ns, epoch, shard) = key;
        if keep {
            // Ascending cluster id: the recency order does not depend on
            // the map's iteration order.
            let mut lists: Vec<_> = slot.store.lists.iter().collect();
            lists.sort_unstable_by_key(|&(&c, _)| c);
            let mut evicted = Vec::new();
            for (&c, list) in lists {
                let bytes = list.memory_bytes();
                evicted.extend(self.cache.insert((ns, epoch, shard, c), bytes));
            }
            self.drop_cached(evicted);
        } else {
            for c in std::mem::take(&mut slot.store.lists).into_keys() {
                self.cache.remove(&(ns, epoch, shard, c));
            }
        }
    }

    /// Faults every list of `key`'s spilled block back, pins them all and
    /// deletes the part file. A block with a list that cannot be read back
    /// keeps its file and stays spilled rather than lose the list.
    fn promote(&mut self, key: BlockKey) {
        let Some(slot) = slot_mut(&mut self.epochs, key) else {
            return;
        };
        let Some(spill) = &slot.spill else {
            return; // already pinned
        };
        let missing: Vec<u32> = spill
            .dir
            .entries()
            .iter()
            .map(|e| e.cluster)
            .filter(|c| !slot.store.lists.contains_key(c))
            .collect();
        let Ok(parts) = read_part_lists(&spill.path, &spill.dir, &missing) else {
            return;
        };
        let (ns, epoch, shard) = key;
        for &c in slot.store.lists.keys() {
            self.cache.remove(&(ns, epoch, shard, c));
        }
        let width = slot.store.width();
        for part in parts {
            let cluster = part.cluster;
            let list = ListBlock::from_part(part, width);
            slot.store.lists.insert(cluster, list);
        }
        slot.spill = None; // deletes the part file
    }

    /// Applies the namespace's current tier to a freshly installed block:
    /// hot blocks stay pinned, warm blocks spill and cache their lists,
    /// cold blocks spill and drop them.
    fn apply_tier(&mut self, key: BlockKey) {
        match self.tier(key.0) {
            Temperature::Hot => {}
            Temperature::Warm => self.demote(key, true),
            Temperature::Cold => self.demote(key, false),
        }
    }

    /// Every block key currently stored for a namespace.
    fn ns_keys(&self, ns: u16) -> Vec<BlockKey> {
        let mut keys: Vec<BlockKey> = self
            .epochs
            .iter()
            .filter(|((n, _), _)| *n == ns)
            .flat_map(|(&(n, e), store)| store.blocks.keys().map(move |&s| (n, e, s)))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Moves a namespace between residency tiers and acks the client.
    fn handle_set_tier(&mut self, ctx: &NodeCtx, msg: SetTier) {
        let Some(tier) = Temperature::decode(msg.temperature) else {
            return; // unknown tags die at decode; never ack what was not applied
        };
        self.tiers.insert(msg.ns, tier);
        for key in self.ns_keys(msg.ns) {
            match tier {
                Temperature::Hot => self.promote(key),
                Temperature::Warm | Temperature::Cold => self.apply_tier(key),
            }
        }
        let _ = ctx.send(CLIENT, ToClient::TierAck { ns: msg.ns }.to_bytes());
    }

    /// Grows the per-position pruning counters to cover `positions` slices
    /// (never shrinks: counters aggregate across epochs).
    fn ensure_slice_positions(&mut self, positions: usize) {
        if positions > self.slice_positions {
            self.slice_positions = positions;
        }
        if self.slice_in.len() < self.slice_positions {
            self.slice_in.resize(self.slice_positions, 0);
            self.slice_pruned.resize(self.slice_positions, 0);
        }
    }

    /// Installs `block` as `key`'s grid block — replacing one already
    /// there — and applies the namespace's tier to it.
    fn install_block(&mut self, key: BlockKey, total_dim_blocks: u32, block: BlockStore) {
        let total_dim_blocks = total_dim_blocks.max(1) as usize;
        self.ensure_slice_positions(total_dim_blocks);
        let (ns, epoch, shard) = key;
        let store = self
            .epochs
            .entry((ns, epoch))
            .or_insert_with(|| EpochStore::new(total_dim_blocks));
        store.total_dim_blocks = total_dim_blocks;
        if let Some(old) = store.blocks.insert(shard, BlockSlot::pinned(block)) {
            // Replaced block: its part file (if any) describes stale data,
            // and shares the path the new block may spill to.
            drop(old);
            self.cache.remove_matching(|&(n, e, s, _)| (n, e, s) == key);
        }
        // A demoted namespace keeps its tier across reloads and migrations.
        self.apply_tier(key);
    }

    fn handle_load(&mut self, ctx: &NodeCtx, load: LoadBlock) {
        let Ok(metric) = metric_tag::decode(load.metric) else {
            return; // unknown tags (and misshapen lists) die at decode
        };
        self.ns_meta
            .insert(load.ns, NsMeta::new(metric, load.pruning));
        let block = BlockStore::from_wire(load.dim_start, load.dim_end, load.lists);
        self.install_block(
            (load.ns, load.epoch, load.shard),
            load.total_dim_blocks,
            block,
        );
        let ready = ToClient::EpochReady {
            ns: load.ns,
            epoch: load.epoch,
        };
        let _ = ctx.send(CLIENT, ready.to_bytes());
    }

    /// Appends freshly upserted rows to the target epoch's delta list for
    /// their home shard. Rows arrive in ingest-sequence order (FIFO from
    /// the client), so the list stays sorted by `seq` and a query's
    /// watermark selects a stable prefix on every machine of the row.
    fn handle_upsert_delta(&mut self, msg: DeltaUpsert) {
        // Rows and the block they belong beside come from one sender, the
        // block first: an epoch this machine does not hold was evicted.
        let Some(store) = self.epochs.get_mut(&(msg.ns, msg.epoch)) else {
            return;
        };
        let width = (msg.dim_end - msg.dim_start) as usize;
        let delta = store
            .deltas
            .entry(msg.shard)
            .or_insert_with(|| DeltaList::new(width));
        debug_assert_eq!(delta.width(), width, "delta slice width changed mid-epoch");
        // Decode validated the shape: `seqs` and `flat` are per-row, the
        // norm tables per-row or (L2) absent.
        let norm = |table: &[f32], i: usize| table.get(i).copied().unwrap_or(0.0);
        for (i, (&id, &seq)) in msg.ids.iter().zip(&msg.seqs).enumerate() {
            let row = &msg.flat[i * width..(i + 1) * width];
            let (block_norm_sq, total_norm_sq) =
                (norm(&msg.block_norms_sq, i), norm(&msg.total_norms_sq, i));
            delta.push(id, seq, row, block_norm_sq, total_norm_sq);
        }
    }

    /// Records soft deletes in the target epoch's tombstone set (or every
    /// live epoch's for the [`u64::MAX`] sentinel). Stored rows are left in
    /// place; suppression happens at result emission.
    fn handle_delete_ids(&mut self, msg: DeleteIds) {
        let apply = |store: &mut EpochStore| {
            for &id in &msg.ids {
                store.tombstones.insert(id, msg.seq);
            }
        };
        if msg.epoch == u64::MAX {
            for (_, store) in self.epochs.iter_mut().filter(|((n, _), _)| *n == msg.ns) {
                apply(store);
            }
        } else if let Some(store) = self.epochs.get_mut(&(msg.ns, msg.epoch)) {
            apply(store);
        }
    }

    fn handle_chunk_batch(&mut self, ctx: &NodeCtx, chunk: ChunkBatch) {
        let Some(&first) = chunk.query_ids.first() else {
            debug_assert!(false, "chunk batch without queries");
            return;
        };
        if chunk.position == 0 {
            self.run_hop(ctx, chunk, None);
            return;
        }
        // The chunk may arrive after the carry from the previous hop
        // (different senders, one mailbox), so both orders are buffered.
        let key = (first, chunk.shard);
        match self.pending.carries.remove(&key) {
            Some(carry) => self.run_hop(ctx, chunk, Some(carry)),
            None => {
                self.pending.chunks.insert(key, chunk);
            }
        }
    }

    fn handle_carry_batch(&mut self, ctx: &NodeCtx, carry: CarryBatch) {
        let key = (carry.first_query_id, carry.shard);
        match self.pending.chunks.remove(&key) {
            Some(chunk) => self.run_hop(ctx, chunk, Some(carry)),
            None => {
                self.pending.carries.insert(key, carry);
            }
        }
    }

    /// One hop of one sub-batch on this worker: fault what it probes, then
    /// [`Self::hop`] it.
    fn run_hop(&mut self, ctx: &NodeCtx, chunk: ChunkBatch, carry: Option<CarryBatch>) {
        // Fault what a demoted block lacks of the probed lists (and refresh
        // their cache recency) once per sub-batch, before taking the
        // immutable storage borrow. A list that cannot be read back is not
        // scanned as absent — that would shift the canonical indices the
        // shard row carries — the hop is skipped instead.
        let kept = match self.fault_in((chunk.ns, chunk.epoch, chunk.shard), &chunk.clusters) {
            Ok(kept) => Some(kept),
            Err(_) => {
                self.spill_read_errors += 1;
                None
            }
        };
        let n = chunk.len();
        self.hop(ctx, chunk, carry, kept, std::slice::from_ref(&n));
    }

    /// Scans a run of queued single-hop sub-batches ([`same_run`]) as one:
    /// one fault, one probe sort and one list-major walk, so the register
    /// tile and the prefix pass see every query of the run that probes a
    /// list. The answer is split back into one [`ResultBatch`] per
    /// sub-batch. A lone sub-batch runs alone, and so does each of a run
    /// a probed list of which cannot be read back, so that only the
    /// sub-batches probing that list are skipped.
    fn run_joined(&mut self, ctx: &NodeCtx, run: Vec<ChunkBatch>) {
        let kept = match run.as_slice() {
            [head, _, ..] => {
                let probed: Vec<u32> = run
                    .iter()
                    .flat_map(|c| c.clusters.iter().copied())
                    .collect();
                self.fault_in((head.ns, head.epoch, head.shard), &probed)
                    .ok()
            }
            _ => None,
        };
        let Some(kept) = kept else {
            for chunk in run {
                self.run_hop(ctx, chunk, None);
            }
            return;
        };
        #[cfg(test)]
        {
            self.chunks_joined += run.len() as u64;
        }
        let sizes: Vec<usize> = run.iter().map(ChunkBatch::len).collect();
        let mut run = run.into_iter();
        let Some(mut joined) = run.next() else { return };
        for chunk in run {
            let base = joined.clusters.len() as u32;
            joined.query_ids.extend(chunk.query_ids);
            joined.thresholds.extend(chunk.thresholds);
            joined.q_total_norms_sq.extend(chunk.q_total_norms_sq);
            joined
                .cluster_ends
                .extend(chunk.cluster_ends.iter().map(|&e| base + e));
            joined.clusters.extend(chunk.clusters);
            joined.dims.extend(chunk.dims);
        }
        self.hop(ctx, joined, None, Some(kept), &sizes);
    }

    /// One hop of `chunk` — one sub-batch, or a run of `sizes` queries
    /// each — over the lists `kept` faulted (`None`: one was unreadable):
    /// resolve the storage the chunk names, run [`scan_hop`] over it,
    /// count what it did and send what it produced — the survivors to the
    /// next machine of the itinerary, or each sub-batch's answer to the
    /// client.
    fn hop(
        &mut self,
        ctx: &NodeCtx,
        chunk: ChunkBatch,
        carry: Option<CarryBatch>,
        kept: Option<Vec<ListKey>>,
        sizes: &[usize],
    ) {
        let n = chunk.len();
        let position = chunk.position as usize;
        let meta = self.meta(chunk.ns);
        let store = self.epochs.get(&(chunk.ns, chunk.epoch));
        let block = store
            .and_then(|s| s.blocks.get(&chunk.shard))
            .map(|s| &s.store);
        let delta = store
            .and_then(|s| s.deltas.get(&chunk.shard))
            .filter(|_| chunk.delta_seq > 0);
        let rows_agree = carry.as_ref().is_none_or(|c| c.len() == n);
        debug_assert!(rows_agree, "carry and chunk disagree on the sub-batch");
        // The kernels take a query slice exactly as wide as the rows.
        let width = chunk.width();
        let widths_agree = chunk.dims.len() == n * width
            && block.is_none_or(|b| b.width() == width)
            && delta.is_none_or(|d| d.width() == width);
        let store = store.filter(|_| {
            kept.is_some() && rows_agree && widths_agree && (block.is_some() || delta.is_some())
        });
        let Some(store) = store else {
            // Epoch never loaded (or already evicted), a probed list
            // unreadable, or a malformed sub-batch.
            Self::skip_hop(ctx, chunk, sizes);
            self.drop_cached(kept.into_iter().flatten());
            return;
        };

        let legacy_reply = chunk.legacy_reply;
        let next = chunk.order.get(position + 1).copied();
        let scan_start = Instant::now();
        let (out, tally) = scan_hop(
            meta,
            &store.tombstones,
            block,
            delta,
            chunk,
            carry.as_ref(),
            &mut self.scratch,
        );
        self.compute_ns += scan_start.elapsed().as_nanos() as u64;
        if position < self.slice_in.len() {
            self.slice_in[position] += tally.seen;
            self.slice_pruned[position] += tally.pruned;
        }
        self.scanned_point_dims += tally.scanned_point_dims;
        match (out, next) {
            (HopOutput::Answer(result), _) => {
                // Modeled compute charge: deterministic, host-independent,
                // and charged per sub-batch, so a run costs what its
                // sub-batches cost alone. Every candidate a query saw was
                // scanned across the whole slice.
                debug_assert_eq!(tally.scanned_point_dims, tally.seen * width as u64);
                for part in split_answer(result, sizes) {
                    let seen = part.candidates_seen.iter().sum::<u64>();
                    ctx.charge_compute(seen * width as u64, seen);
                    Self::reply(ctx, legacy_reply, part);
                }
            }
            (HopOutput::Forward(carry), Some(next)) => {
                ctx.charge_compute(tally.scanned_point_dims, tally.seen);
                let _ = ctx.send(next as NodeId, ToWorker::CarryBatch(carry).to_bytes());
            }
            (HopOutput::Forward(_), None) => {
                debug_assert!(false, "a forwarding hop is never the itinerary's last")
            }
        }
        self.drop_cached(kept.into_iter().flatten());
    }

    /// A hop that cannot scan. The last position answers each sub-batch of
    /// `sizes` emptily, so the client can finish; an earlier one forwards
    /// a carry without survivors, so the next machine's chunk is not left
    /// waiting for it and the itinerary's last machine answers.
    fn skip_hop(ctx: &NodeCtx, chunk: ChunkBatch, sizes: &[usize]) {
        let n = chunk.len();
        if let Some(&next) = chunk.order.get(chunk.position as usize + 1) {
            let carry = CarryBatch {
                first_query_id: chunk.query_ids.first().copied().unwrap_or_default(),
                shard: chunk.shard,
                thresholds: chunk.thresholds,
                survivor_ends: vec![0; n],
                indices: Vec::new(),
                partials: Vec::new(),
                visited_norms_sq: Vec::new(),
                q_visited_norms_sq: Vec::new(),
                quant_eps: Vec::new(),
            };
            let _ = ctx.send(next as NodeId, ToWorker::CarryBatch(carry).to_bytes());
            return;
        }
        let empty = ResultBatch {
            shard: chunk.shard,
            result_ends: vec![0; n],
            ids: Vec::new(),
            scores: Vec::new(),
            candidates_seen: vec![0; n],
            query_ids: chunk.query_ids,
        };
        for part in split_answer(empty, sizes) {
            Self::reply(ctx, chunk.legacy_reply, part);
        }
    }

    /// Faults the lists a sub-batch will probe on this machine ahead of its
    /// hop, scanning nothing. Nothing to do for a pinned block or an
    /// epoch this machine does not hold; an unreadable list is left for
    /// the hop, which re-faults whatever is missing by then and counts the
    /// failure.
    fn handle_prefetch(&mut self, key: BlockKey, clusters: &[u32]) {
        if let Ok(kept) = self.fault_in(key, clusters) {
            self.drop_cached(kept);
        }
    }

    /// Sends a finished sub-batch to the client: one [`ResultBatch`], or —
    /// for a sub-batch lifted from a legacy [`QueryChunk`] — one
    /// [`ToClient::Result`] per query.
    fn reply(ctx: &NodeCtx, legacy: bool, result: ResultBatch) {
        if legacy {
            for i in 0..result.len() {
                let _ = ctx.send(CLIENT, ToClient::Result(result.result(i)).to_bytes());
            }
        } else {
            let _ = ctx.send(CLIENT, ToClient::ResultBatch(result).to_bytes());
        }
    }

    /// Drops an epoch's storage — a retired one's, or what a failed
    /// handshake left of a new one — with its part files and cache entries.
    fn handle_evict(&mut self, ns: u16, epoch: u64) {
        self.epochs.remove(&(ns, epoch));
        self.cache
            .remove_matching(|&(n, e, _, _)| n == ns && e == epoch);
    }

    fn stats_report(&self) -> StatsReport {
        let slots = || self.epochs.values().flat_map(|e| e.blocks.values());
        let (f32_bytes, sq8_bytes) = slots().fold((0usize, 0usize), |(f, s), slot| {
            let (bf, bs) = slot.store.payload_bytes();
            (f + bf, s + bs)
        });
        let cached_bytes: usize = slots()
            .filter(|slot| slot.spill.is_some())
            .map(|slot| {
                let (f, s) = slot.store.payload_bytes();
                f + s
            })
            .sum();
        let spilled_bytes: u64 = slots()
            .filter_map(|s| s.spill.as_ref())
            .map(|f| f.dir.file_bytes())
            .sum();
        let delta_bytes: usize = self.epochs.values().map(EpochStore::delta_bytes).sum();
        let delta_rows: usize = self
            .epochs
            .values()
            .flat_map(|e| e.deltas.values())
            .map(DeltaList::len)
            .sum();
        let tombstone_entries: usize = self.epochs.values().map(|e| e.tombstones.len()).sum();
        StatsReport {
            slice_in: self.slice_in.clone(),
            slice_pruned: self.slice_pruned.clone(),
            scanned_point_dims: self.scanned_point_dims,
            memory_bytes: slots().map(|s| s.store.memory_bytes()).sum::<usize>() as u64
                + delta_bytes as u64,
            f32_block_bytes: f32_bytes as u64,
            sq8_block_bytes: sq8_bytes as u64,
            compute_ns: self.compute_ns,
            delta_bytes: delta_bytes as u64,
            delta_rows: delta_rows as u64,
            tombstone_entries: tombstone_entries as u64,
            cache_block_bytes: cached_bytes as u64,
            spilled_block_bytes: spilled_bytes,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            fault_bytes: self.fault_bytes,
            spill_read_errors: self.spill_read_errors,
        }
    }

    fn reset_stats(&mut self) {
        self.slice_in = vec![0; self.slice_positions];
        self.slice_pruned = vec![0; self.slice_positions];
        self.scanned_point_dims = 0;
        self.compute_ns = 0;
        self.cache_hits = 0;
        self.cache_misses = 0;
        self.fault_bytes = 0;
        self.spill_read_errors = 0;
    }
}

impl Drop for HarmonyWorker {
    /// Deletes this worker's part files, then its spill directory: nothing
    /// a worker wrote outlives it. Best-effort: leftovers from a crashed
    /// worker are bounded by temp-dir hygiene, not correctness.
    fn drop(&mut self) {
        self.epochs.clear();
        let _ = std::fs::remove_dir(&self.spill_dir);
    }
}

/// Most sub-batches, and most queries, one run joins: the scan's scratch
/// (query slots, probe list, tile partials) grows with a run's queries.
const RUN_MAX_CHUNKS: usize = 64;
const RUN_MAX_QUERIES: usize = 256;

/// Whether `chunk` may join a run: it is the whole itinerary, so its hop
/// answers the client. A forwarding hop never joins one — the carry of
/// every sub-batch of the run would wait for the whole run's scan, and
/// the next machine with it.
fn joins_runs(chunk: &ChunkBatch) -> bool {
    chunk.position == 0 && chunk.order.len() == 1 && !chunk.legacy_reply && !chunk.is_empty()
}

/// Whether `next` scans as one sub-batch with the run `head` starts:
/// the same storage, watermark, `k` and query slice shape.
fn same_run(head: &ChunkBatch, next: &ChunkBatch) -> bool {
    (head.ns, head.epoch, head.shard, head.k, head.delta_seq)
        == (next.ns, next.epoch, next.shard, next.k, next.delta_seq)
        && head.width() == next.width()
        && head.q_total_norms_sq.is_empty() == next.q_total_norms_sq.is_empty()
}

/// Splits a run's answer into one [`ResultBatch`] per sub-batch of
/// `sizes` queries, in order; a lone sub-batch's is its own.
fn split_answer(result: ResultBatch, sizes: &[usize]) -> Vec<ResultBatch> {
    if sizes.len() < 2 {
        return vec![result];
    }
    let (mut q, mut hits) = (0, 0);
    sizes
        .iter()
        .map(|&n| {
            let ends = &result.result_ends[q..q + n];
            let end = ends.last().map_or(hits, |&e| e as usize);
            let part = ResultBatch {
                shard: result.shard,
                query_ids: result.query_ids[q..q + n].to_vec(),
                result_ends: ends.iter().map(|&e| e - hits as u32).collect(),
                ids: result.ids[hits..end].to_vec(),
                scores: result.scores[hits..end].to_vec(),
                candidates_seen: result.candidates_seen[q..q + n].to_vec(),
            };
            (q, hits) = (q + n, end);
            part
        })
        .collect()
}

impl HarmonyWorker {
    /// A message from the fabric; `None` (and a debug assertion) for one
    /// that does not decode.
    fn decode(payload: Bytes) -> Option<ToWorker> {
        let msg = ToWorker::from_bytes(payload).ok();
        debug_assert!(msg.is_some(), "malformed worker message");
        msg
    }

    /// Handles one message on its own.
    fn dispatch(&mut self, ctx: &NodeCtx, msg: ToWorker) {
        match msg {
            ToWorker::Load(load) => self.handle_load(ctx, load),
            // The single-query forms run as one-row batches.
            ToWorker::Chunk(chunk) => self.handle_chunk_batch(ctx, chunk.into()),
            ToWorker::Carry(carry) => self.handle_carry_batch(ctx, carry.into()),
            ToWorker::ChunkBatch(chunk) => self.handle_chunk_batch(ctx, chunk),
            ToWorker::CarryBatch(carry) => self.handle_carry_batch(ctx, carry),
            ToWorker::GetStats => {
                let _ = ctx.send(CLIENT, ToClient::Stats(self.stats_report()).to_bytes());
            }
            ToWorker::ResetStats => self.reset_stats(),
            ToWorker::EvictEpoch { ns, epoch } => self.handle_evict(ns, epoch),
            ToWorker::UpsertDelta(m) => self.handle_upsert_delta(m),
            ToWorker::DeleteIds(m) => self.handle_delete_ids(m),
            ToWorker::SetTier(m) => self.handle_set_tier(ctx, m),
            ToWorker::Prefetch {
                ns,
                epoch,
                shard,
                clusters,
            } => self.handle_prefetch((ns, epoch, shard), &clusters),
        }
    }
}

impl NodeHandler for HarmonyWorker {
    fn handle(&mut self, ctx: &NodeCtx, _from: NodeId, payload: Bytes) {
        if let Some(msg) = Self::decode(payload) {
            self.dispatch(ctx, msg);
        }
    }

    /// Handles the queued messages in order, except that each run of
    /// consecutive sub-batches that answer the client and agree on their
    /// storage ([`joins_runs`], [`same_run`]) is scanned as one
    /// ([`Self::run_joined`]). Any other message ends the run first, so
    /// deltas, deletes, loads, evictions, tier changes and prefetches keep
    /// their place relative to every chunk.
    fn handle_batch(&mut self, ctx: &NodeCtx, batch: Vec<(NodeId, Bytes)>) {
        let mut run: Vec<ChunkBatch> = Vec::new();
        for (_, payload) in batch {
            let Some(msg) = Self::decode(payload) else {
                continue;
            };
            match msg {
                ToWorker::ChunkBatch(chunk) if joins_runs(&chunk) => {
                    let queries: usize = run.iter().map(ChunkBatch::len).sum();
                    let fits = run.first().is_some_and(|head| same_run(head, &chunk))
                        && run.len() < RUN_MAX_CHUNKS
                        && queries + chunk.len() <= RUN_MAX_QUERIES;
                    if !fits {
                        self.run_joined(ctx, std::mem::take(&mut run));
                    }
                    run.push(chunk);
                }
                msg => {
                    self.run_joined(ctx, std::mem::take(&mut run));
                    self.dispatch(ctx, msg);
                }
            }
        }
        self.run_joined(ctx, run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Carry, QueryChunk, QueryResult};
    use harmony_cluster::{Cluster, ClusterConfig};
    use harmony_index::distance::l2_sq;
    use harmony_index::quant;
    use std::sync::Arc;
    use std::time::Duration;

    /// Loads a 2-vector block into a single worker and runs a query.
    fn one_worker_cluster() -> Cluster {
        Cluster::spawn(ClusterConfig::new(1), |_| HarmonyWorker::new())
    }

    fn load_block(pruning: bool) -> LoadBlock {
        LoadBlock {
            ns: 0,
            epoch: 0,
            shard: 0,
            dim_block: 0,
            dim_start: 0,
            dim_end: 2,
            total_dim_blocks: 1,
            metric: 0,
            pruning,
            repr: 0,
            lists: vec![ClusterBlockFixture::simple()],
        }
    }

    struct ClusterBlockFixture;
    impl ClusterBlockFixture {
        fn simple() -> crate::messages::ClusterBlock {
            crate::messages::ClusterBlock {
                cluster: 0,
                ids: vec![100, 200, 300],
                // Vectors (1,0), (0,1), (5,5).
                flat: vec![1.0, 0.0, 0.0, 1.0, 5.0, 5.0],
                segs: vec![],
                block_norms_sq: vec![],
                total_norms_sq: vec![],
            }
        }
    }

    fn recv_result(cluster: &mut Cluster) -> QueryResult {
        loop {
            let (_, payload) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
            match ToClient::from_bytes(payload).unwrap() {
                ToClient::Result(r) => return r,
                _ => continue,
            }
        }
    }

    fn drain_ack(cluster: &mut Cluster) {
        let (_, payload) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(
            ToClient::from_bytes(payload).unwrap(),
            ToClient::EpochReady { .. }
        ));
    }

    #[test]
    fn single_block_pipeline_returns_topk() {
        let mut cluster = one_worker_cluster();
        cluster
            .send(0, ToWorker::Load(load_block(true)).to_bytes())
            .unwrap();
        drain_ack(&mut cluster);

        let chunk = QueryChunk {
            ns: 0,
            query_id: 1,
            epoch: 0,
            shard: 0,
            k: 2,
            threshold: f32::INFINITY,
            clusters: vec![0],
            dims: vec![1.0, 0.0],
            q_total_norm_sq: 0.0,
            order: vec![0],
            position: 0,
            delta_seq: 0,
        };
        cluster.send(0, ToWorker::Chunk(chunk).to_bytes()).unwrap();
        let r = recv_result(&mut cluster);
        assert_eq!(r.query_id, 1);
        assert_eq!(r.ids, vec![100, 200]); // distances 0, 2 (vs 41 for id 300)
        assert_eq!(r.candidates_seen, 3);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn threshold_prunes_at_first_hop() {
        let mut cluster = one_worker_cluster();
        cluster
            .send(0, ToWorker::Load(load_block(true)).to_bytes())
            .unwrap();
        drain_ack(&mut cluster);

        // τ = 1.0: only id 100 (distance 0) survives.
        let chunk = QueryChunk {
            ns: 0,
            query_id: 2,
            epoch: 0,
            shard: 0,
            k: 3,
            threshold: 1.0,
            clusters: vec![0],
            dims: vec![1.0, 0.0],
            q_total_norm_sq: 0.0,
            order: vec![0],
            position: 0,
            delta_seq: 0,
        };
        cluster.send(0, ToWorker::Chunk(chunk).to_bytes()).unwrap();
        let r = recv_result(&mut cluster);
        assert_eq!(r.ids, vec![100]);

        // Stats must show 2 pruned of 3 seen.
        cluster.send(0, ToWorker::GetStats.to_bytes()).unwrap();
        let (_, payload) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
        match ToClient::from_bytes(payload).unwrap() {
            ToClient::Stats(s) => {
                assert_eq!(s.slice_in, vec![3]);
                assert_eq!(s.slice_pruned, vec![2]);
            }
            other => panic!("unexpected {other:?}"),
        }
        cluster.shutdown().unwrap();
    }

    #[test]
    fn two_hop_pipeline_accumulates_partials() {
        // Two workers, 4-d vectors split 2+2. Worker 0 has dims [0,2),
        // worker 1 has dims [2,4).
        let mut cluster = Cluster::spawn(ClusterConfig::new(2), |_| HarmonyWorker::new());
        let base: Vec<[f32; 4]> = vec![[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0]];
        let ids = vec![10u64, 20u64];
        for (w, range) in [(0usize, 0..2), (1usize, 2..4)] {
            let flat: Vec<f32> = base
                .iter()
                .flat_map(|v| v[range.clone()].to_vec())
                .collect();
            let load = LoadBlock {
                ns: 0,
                epoch: 0,
                shard: 0,
                dim_block: w as u32,
                dim_start: range.start as u64,
                dim_end: range.end as u64,
                total_dim_blocks: 2,
                metric: 0,
                pruning: true,
                repr: 0,
                lists: vec![crate::messages::ClusterBlock {
                    cluster: 0,
                    ids: ids.clone(),
                    flat,
                    segs: vec![],
                    block_norms_sq: vec![],
                    total_norms_sq: vec![],
                }],
            };
            cluster.send(w, ToWorker::Load(load).to_bytes()).unwrap();
            drain_ack(&mut cluster);
        }

        // Query = (1, 0, 0, 0): distance 0 to id 10, 1 + 4 = 5 to id 20.
        let query = [1.0f32, 0.0, 0.0, 0.0];
        for (w, range, position) in [(0usize, 0..2, 0u32), (1usize, 2..4, 1u32)] {
            let chunk = QueryChunk {
                ns: 0,
                query_id: 7,
                epoch: 0,
                shard: 0,
                k: 2,
                threshold: f32::INFINITY,
                clusters: vec![0],
                dims: query[range].to_vec(),
                q_total_norm_sq: 0.0,
                order: vec![0, 1],
                position,
                delta_seq: 0,
            };
            cluster.send(w, ToWorker::Chunk(chunk).to_bytes()).unwrap();
        }
        let r = recv_result(&mut cluster);
        assert_eq!(r.ids, vec![10, 20]);
        assert!((r.scores[0] - 0.0).abs() < 1e-6);
        assert!((r.scores[1] - 5.0).abs() < 1e-6);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn carry_before_chunk_is_buffered() {
        // Deliver the carry to worker 0 before its chunk: the pipeline must
        // still complete.
        let mut cluster = Cluster::spawn(ClusterConfig::new(1), |_| HarmonyWorker::new());
        let load = LoadBlock {
            ns: 0,
            epoch: 0,
            shard: 0,
            dim_block: 1,
            dim_start: 1,
            dim_end: 2,
            total_dim_blocks: 2,
            metric: 0,
            pruning: true,
            repr: 0,
            lists: vec![crate::messages::ClusterBlock {
                cluster: 0,
                ids: vec![1],
                flat: vec![3.0],
                segs: vec![],
                block_norms_sq: vec![],
                total_norms_sq: vec![],
            }],
        };
        cluster.send(0, ToWorker::Load(load).to_bytes()).unwrap();
        drain_ack(&mut cluster);

        let carry = Carry {
            ns: 0,
            query_id: 9,
            epoch: 0,
            shard: 0,
            threshold: f32::INFINITY,
            next_position: 1,
            indices: vec![0],
            partials: vec![4.0],
            visited_norms_sq: vec![],
            q_visited_norm_sq: 0.0,
            quant_eps: 0.0,
        };
        cluster.send(0, ToWorker::Carry(carry).to_bytes()).unwrap();
        // Now the chunk (position 1 of a 2-hop order [9, 0] — final hop).
        let chunk = QueryChunk {
            ns: 0,
            query_id: 9,
            epoch: 0,
            shard: 0,
            k: 1,
            threshold: f32::INFINITY,
            clusters: vec![0],
            dims: vec![1.0], // (1 - 3)^2 = 4 added to carried 4.0
            q_total_norm_sq: 0.0,
            order: vec![9, 0],
            position: 1,
            delta_seq: 0,
        };
        cluster.send(0, ToWorker::Chunk(chunk).to_bytes()).unwrap();
        let r = recv_result(&mut cluster);
        assert_eq!(r.ids, vec![1]);
        assert!((r.scores[0] - 8.0).abs() < 1e-6);
        cluster.shutdown().unwrap();
    }

    // --- Sub-batch pipeline -------------------------------------------

    const FX_DIM: usize = 8;
    const FX_LISTS: u32 = 3;
    const FX_ROWS: usize = 9;
    const FX_DELTA_ROWS: u64 = 4;

    /// Deterministic coordinates in (-1, 1).
    fn fx_coord(i: u64) -> f32 {
        let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        h as f32 / (1u64 << 23) as f32 - 1.0
    }

    fn fx_row(id: u64) -> Vec<f32> {
        (0..FX_DIM as u64).map(|j| fx_coord(id * 31 + j)).collect()
    }

    fn fx_list_id(list: u32, row: usize) -> u64 {
        u64::from(list) * 100 + row as u64
    }

    fn recv_batch(cluster: &mut Cluster) -> ResultBatch {
        loop {
            let (_, payload) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
            match ToClient::from_bytes(payload).unwrap() {
                ToClient::ResultBatch(b) => return b,
                _ => continue,
            }
        }
    }

    /// Two workers, each holding one half of the dimensions of three lists
    /// plus a four-row delta list; one list row and one delta row are
    /// tombstoned. Exercises every kind of run the scan walks.
    fn fx_cluster(metric: Metric, sq8: bool) -> Cluster {
        let mut cluster = Cluster::spawn(ClusterConfig::new(2), |_| HarmonyWorker::new());
        fx_install(&mut cluster, metric, sq8, &[0, FX_DIM / 2, FX_DIM]);
        cluster
    }

    /// Installs the fixture on the first workers of `cluster`, worker `w`
    /// holding dimensions `splits[w]..splits[w + 1]`.
    fn fx_install(cluster: &mut Cluster, metric: Metric, sq8: bool, splits: &[usize]) {
        let is_ip = !matches!(metric, Metric::L2);
        for (w, r) in splits.windows(2).enumerate() {
            let (range, width) = (r[0]..r[1], r[1] - r[0]);
            let lists = (0..FX_LISTS)
                .map(|l| {
                    let ids: Vec<u64> = (0..FX_ROWS).map(|r| fx_list_id(l, r)).collect();
                    let rows: Vec<Vec<f32>> = ids.iter().map(|&id| fx_row(id)).collect();
                    let flat: Vec<f32> = rows
                        .iter()
                        .flat_map(|v| v[range.clone()].to_vec())
                        .collect();
                    crate::messages::ClusterBlock {
                        cluster: l,
                        ids,
                        segs: if sq8 {
                            vec![Sq8Segment::quantize(&flat, width, range.start as u64)]
                        } else {
                            vec![]
                        },
                        flat: if sq8 { vec![] } else { flat },
                        block_norms_sq: if is_ip {
                            rows.iter()
                                .map(|v| ip(&v[range.clone()], &v[range.clone()]))
                                .collect()
                        } else {
                            vec![]
                        },
                        total_norms_sq: if is_ip {
                            rows.iter().map(|v| ip(v, v)).collect()
                        } else {
                            vec![]
                        },
                    }
                })
                .collect();
            let load = LoadBlock {
                ns: 0,
                epoch: 0,
                shard: 0,
                dim_block: w as u32,
                dim_start: range.start as u64,
                dim_end: range.end as u64,
                total_dim_blocks: splits.len() as u32 - 1,
                metric: metric_tag::encode(metric),
                pruning: true,
                repr: u8::from(sq8),
                lists,
            };
            cluster.send(w, ToWorker::Load(load).to_bytes()).unwrap();
            drain_ack(cluster);
            let delta_ids: Vec<u64> = (0..FX_DELTA_ROWS).map(|i| 900 + i).collect();
            let delta_rows: Vec<Vec<f32>> = delta_ids.iter().map(|&id| fx_row(id)).collect();
            let upsert = DeltaUpsert {
                ns: 0,
                epoch: 0,
                shard: 0,
                dim_start: range.start as u64,
                dim_end: range.end as u64,
                ids: delta_ids,
                seqs: (1..=FX_DELTA_ROWS).collect(),
                flat: delta_rows
                    .iter()
                    .flat_map(|v| v[range.clone()].to_vec())
                    .collect(),
                block_norms_sq: if is_ip {
                    delta_rows
                        .iter()
                        .map(|v| ip(&v[range.clone()], &v[range.clone()]))
                        .collect()
                } else {
                    vec![]
                },
                total_norms_sq: if is_ip {
                    delta_rows.iter().map(|v| ip(v, v)).collect()
                } else {
                    vec![]
                },
            };
            cluster
                .send(w, ToWorker::UpsertDelta(upsert).to_bytes())
                .unwrap();
            // Tombstone one list row everywhere and the first delta row
            // (its delete outsequences it; the later delta rows stay).
            let delete = DeleteIds {
                ns: 0,
                epoch: 0,
                ids: vec![fx_list_id(1, 4), 900],
                seq: 2,
            };
            cluster
                .send(w, ToWorker::DeleteIds(delete).to_bytes())
                .unwrap();
        }
    }

    /// One query of the fixture: full vector, probed clusters, threshold.
    struct FxQuery {
        id: u64,
        vector: Vec<f32>,
        clusters: Vec<u32>,
        threshold: f32,
    }

    /// Sixteen queries probing every non-empty subset shape of the three
    /// lists (and none at all: delta only), half of them with a threshold
    /// tight enough to prune.
    fn fx_queries(metric: Metric, first_id: u64) -> Vec<FxQuery> {
        (0..16u64)
            .map(|i| {
                let vector = fx_row(5_000 + i);
                let clusters = (0..FX_LISTS).filter(|l| (i + 1) >> l & 1 == 1).collect();
                let near = metric.score(&vector, &fx_row(fx_list_id(i as u32 % FX_LISTS, 2)));
                FxQuery {
                    id: first_id + i,
                    vector,
                    clusters,
                    threshold: if i % 2 == 0 { f32::INFINITY } else { near },
                }
            })
            .collect()
    }

    /// Sends `queries` down the two-hop fixture pipeline as one sub-batch.
    fn fx_send(cluster: &Cluster, metric: Metric, queries: &[FxQuery]) {
        let half = FX_DIM / 2;
        for w in 0..2usize {
            let mut chunk = fx_chunk(metric, queries, w * half..(w + 1) * half, FX_DELTA_ROWS);
            (chunk.order, chunk.position) = (vec![0, 1], w as u32);
            cluster
                .send(w, ToWorker::ChunkBatch(chunk).to_bytes())
                .unwrap();
        }
    }

    /// `queries` as one sub-batch for the machine holding `dims` alone,
    /// at watermark `delta_seq`.
    fn fx_chunk(
        metric: Metric,
        queries: &[FxQuery],
        dims: std::ops::Range<usize>,
        delta_seq: u64,
    ) -> ChunkBatch {
        let mut clusters = Vec::new();
        let mut cluster_ends = Vec::new();
        for q in queries {
            clusters.extend_from_slice(&q.clusters);
            cluster_ends.push(clusters.len() as u32);
        }
        ChunkBatch {
            ns: 0,
            epoch: 0,
            shard: 0,
            k: 5,
            order: vec![0],
            position: 0,
            delta_seq,
            legacy_reply: false,
            query_ids: queries.iter().map(|q| q.id).collect(),
            thresholds: queries.iter().map(|q| q.threshold).collect(),
            q_total_norms_sq: if matches!(metric, Metric::L2) {
                vec![]
            } else {
                queries.iter().map(|q| ip(&q.vector, &q.vector)).collect()
            },
            cluster_ends,
            clusters,
            dims: queries
                .iter()
                .flat_map(|q| q.vector[dims.clone()].to_vec())
                .collect(),
        }
    }

    /// The tentpole's contract: list-major execution of a sub-batch is an
    /// execution order, not a different computation. Every query of a
    /// 16-row sub-batch gets exactly — ids, score bits, candidate counts —
    /// what it gets alone in a one-row batch, under both representations
    /// and both bound families, with delta rows and tombstones in play.
    #[test]
    fn sub_batch_equals_one_row_batches() {
        for (metric, sq8) in [
            (Metric::L2, false),
            (Metric::L2, true),
            (Metric::Cosine, false),
            (Metric::Cosine, true),
        ] {
            let mut cluster = fx_cluster(metric, sq8);
            let queries = fx_queries(metric, 100);
            fx_send(&cluster, metric, &queries);
            let together = recv_batch(&mut cluster);
            assert_eq!(together.len(), 16);
            assert!(
                together
                    .ids
                    .iter()
                    .all(|&id| id != fx_list_id(1, 4) && id != 900),
                "{metric:?} sq8={sq8}: tombstoned id returned"
            );
            let mut pruned_some = false;
            for (i, q) in fx_queries(metric, 200).into_iter().enumerate() {
                fx_send(&cluster, metric, std::slice::from_ref(&q));
                let alone = recv_batch(&mut cluster);
                let (a, b) = (alone.result(0), together.result(i));
                assert_eq!(a.ids, b.ids, "{metric:?} sq8={sq8} query {i}: ids");
                assert_eq!(
                    a.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    b.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    "{metric:?} sq8={sq8} query {i}: score bits"
                );
                assert_eq!(a.candidates_seen, b.candidates_seen, "query {i}: seen");
                let enumerated = q.clusters.len() * FX_ROWS + (FX_DELTA_ROWS as usize - 1);
                pruned_some |= (a.candidates_seen as usize) < enumerated;
                if q.threshold.is_infinite() {
                    assert_eq!(a.ids.len(), 5.min(enumerated - 1), "query {i}: short top-k");
                }
            }
            assert!(
                pruned_some,
                "{metric:?} sq8={sq8}: no threshold ever pruned"
            );
            cluster.shutdown().unwrap();
        }
    }

    /// The single-query messages are adapters into the same routine: a
    /// legacy `Chunk` pipeline answers with the legacy `Result`, equal to
    /// what a one-row `ChunkBatch` reports.
    #[test]
    fn legacy_chunk_pipeline_matches_one_row_batch() {
        let metric = Metric::L2;
        let mut cluster = fx_cluster(metric, false);
        let q = fx_queries(metric, 300).swap_remove(6); // probes all lists
        fx_send(&cluster, metric, std::slice::from_ref(&q));
        let batch = recv_batch(&mut cluster);
        let half = FX_DIM / 2;
        for w in 0..2usize {
            // Unsorted on purpose: the adapter restores the canonical order.
            let mut clusters = q.clusters.clone();
            clusters.reverse();
            let chunk = QueryChunk {
                ns: 0,
                query_id: 301,
                epoch: 0,
                shard: 0,
                k: 5,
                threshold: q.threshold,
                clusters,
                dims: q.vector[w * half..(w + 1) * half].to_vec(),
                q_total_norm_sq: 0.0,
                order: vec![0, 1],
                position: w as u32,
                delta_seq: FX_DELTA_ROWS,
            };
            cluster.send(w, ToWorker::Chunk(chunk).to_bytes()).unwrap();
        }
        let legacy = recv_result(&mut cluster);
        assert_eq!(legacy.query_id, 301);
        let want = batch.result(0);
        assert!(!want.ids.is_empty());
        assert_eq!(legacy.ids, want.ids);
        assert_eq!(legacy.scores, want.scores);
        assert_eq!(legacy.candidates_seen, want.candidates_seen);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn carry_batch_before_chunk_batch_is_buffered() {
        // Only the second hop of the fixture is driven here: its carry
        // arrives first and must wait for the chunk.
        let mut cluster = fx_cluster(Metric::L2, false);
        let carry = CarryBatch {
            first_query_id: 40,
            shard: 0,
            thresholds: vec![f32::INFINITY, 0.5],
            survivor_ends: vec![2, 2],
            // List 2 is the second run of query 40 (it probes lists 0, 2).
            indices: vec![1, FX_ROWS as u32 + 3],
            partials: vec![0.25, 0.5],
            visited_norms_sq: vec![],
            q_visited_norms_sq: vec![],
            quant_eps: vec![],
        };
        cluster
            .send(1, ToWorker::CarryBatch(carry).to_bytes())
            .unwrap();
        let q = [fx_row(7_000), fx_row(7_001)];
        let half = FX_DIM / 2;
        let chunk = ChunkBatch {
            ns: 0,
            epoch: 0,
            shard: 0,
            k: 3,
            order: vec![0, 1],
            position: 1,
            delta_seq: 0,
            legacy_reply: false,
            query_ids: vec![40, 41],
            thresholds: vec![f32::INFINITY; 2],
            q_total_norms_sq: vec![],
            cluster_ends: vec![2, 3],
            clusters: vec![0, 2, 1],
            dims: q.iter().flat_map(|v| v[half..].to_vec()).collect(),
        };
        cluster
            .send(1, ToWorker::ChunkBatch(chunk).to_bytes())
            .unwrap();
        let r = recv_batch(&mut cluster);
        assert_eq!(r.query_ids, vec![40, 41]);
        assert_eq!(
            r.result_ends,
            vec![2, 2],
            "an empty survivor set stays empty"
        );
        assert_eq!(r.ids, vec![fx_list_id(0, 1), fx_list_id(2, 3)]);
        let want = |id: u64, carried: f32| carried + l2_sq(&q[0][half..], &fx_row(id)[half..]);
        assert_eq!(r.scores, vec![want(1, 0.25), want(203, 0.5)]);
        assert_eq!(r.candidates_seen, vec![2, 0]);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn cosine_single_hop_reports_normalized_scores() {
        // Deliberately unnormalized vectors: raw -q·p and true cosine order
        // them differently (id 300 has a huge dot product but poor angle).
        let mut cluster = one_worker_cluster();
        let base: Vec<[f32; 2]> = vec![[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]];
        let load = LoadBlock {
            ns: 0,
            epoch: 0,
            shard: 0,
            dim_block: 0,
            dim_start: 0,
            dim_end: 2,
            total_dim_blocks: 1,
            metric: 2, // cosine
            pruning: true,
            repr: 0,
            lists: vec![crate::messages::ClusterBlock {
                cluster: 0,
                ids: vec![100, 200, 300],
                flat: base.iter().flatten().copied().collect(),
                segs: vec![],
                block_norms_sq: base.iter().map(|v| ip(v, v)).collect(),
                total_norms_sq: base.iter().map(|v| ip(v, v)).collect(),
            }],
        };
        cluster.send(0, ToWorker::Load(load).to_bytes()).unwrap();
        drain_ack(&mut cluster);

        let query = [2.0f32, 0.5]; // unnormalized on purpose
        let chunk = QueryChunk {
            ns: 0,
            query_id: 11,
            epoch: 0,
            shard: 0,
            k: 3,
            threshold: f32::INFINITY,
            clusters: vec![0],
            dims: query.to_vec(),
            q_total_norm_sq: ip(&query, &query),
            order: vec![0],
            position: 0,
            delta_seq: 0,
        };
        cluster.send(0, ToWorker::Chunk(chunk).to_bytes()).unwrap();
        let r = recv_result(&mut cluster);
        for (&id, &score) in r.ids.iter().zip(&r.scores) {
            let row = &base[(id / 100 - 1) as usize];
            let want = Metric::Cosine.score(&query, row);
            assert!(
                (score - want).abs() < 1e-6,
                "id {id}: worker {score} vs client {want}"
            );
        }
        assert_eq!(r.ids[0], 100, "best angle must win, not largest dot");
        cluster.shutdown().unwrap();
    }

    #[test]
    fn cosine_two_hop_pipeline_matches_client_scoring() {
        let mut cluster = Cluster::spawn(ClusterConfig::new(2), |_| HarmonyWorker::new());
        let base: Vec<[f32; 4]> = vec![
            [2.0, 0.0, 0.0, 0.1],
            [0.0, 3.0, 3.0, 0.0],
            [0.5, 0.5, 0.5, 0.5],
        ];
        let ids = vec![1u64, 2, 3];
        for (w, range) in [(0usize, 0..2), (1usize, 2..4)] {
            let flat: Vec<f32> = base
                .iter()
                .flat_map(|v| v[range.clone()].to_vec())
                .collect();
            let load = LoadBlock {
                ns: 0,
                epoch: 0,
                shard: 0,
                dim_block: w as u32,
                dim_start: range.start as u64,
                dim_end: range.end as u64,
                total_dim_blocks: 2,
                metric: 2, // cosine
                pruning: true,
                repr: 0,
                lists: vec![crate::messages::ClusterBlock {
                    cluster: 0,
                    ids: ids.clone(),
                    flat,
                    segs: vec![],
                    block_norms_sq: base
                        .iter()
                        .map(|v| ip(&v[range.clone()], &v[range.clone()]))
                        .collect(),
                    total_norms_sq: base.iter().map(|v| ip(v, v)).collect(),
                }],
            };
            cluster.send(w, ToWorker::Load(load).to_bytes()).unwrap();
            drain_ack(&mut cluster);
        }

        let query = [1.0f32, 2.0, 0.0, 1.0]; // unnormalized
        for (w, range, position) in [(0usize, 0..2, 0u32), (1usize, 2..4, 1u32)] {
            let chunk = QueryChunk {
                ns: 0,
                query_id: 12,
                epoch: 0,
                shard: 0,
                k: 3,
                threshold: f32::INFINITY,
                clusters: vec![0],
                dims: query[range].to_vec(),
                q_total_norm_sq: ip(&query, &query),
                order: vec![0, 1],
                position,
                delta_seq: 0,
            };
            cluster.send(w, ToWorker::Chunk(chunk).to_bytes()).unwrap();
        }
        let r = recv_result(&mut cluster);
        assert_eq!(r.ids.len(), 3);
        for (&id, &score) in r.ids.iter().zip(&r.scores) {
            let row = &base[(id - 1) as usize];
            let want = Metric::Cosine.score(&query, row);
            assert!(
                (score - want).abs() < 1e-6,
                "id {id}: worker {score} vs client {want}"
            );
        }
        cluster.shutdown().unwrap();
    }

    #[test]
    fn pruning_disabled_forwards_everything() {
        let mut cluster = one_worker_cluster();
        cluster
            .send(0, ToWorker::Load(load_block(false)).to_bytes())
            .unwrap();
        drain_ack(&mut cluster);
        let chunk = QueryChunk {
            ns: 0,
            query_id: 3,
            epoch: 0,
            shard: 0,
            k: 3,
            threshold: 0.5, // would prune everything if enabled
            clusters: vec![0],
            dims: vec![9.0, 9.0],
            q_total_norm_sq: 0.0,
            order: vec![0],
            position: 0,
            delta_seq: 0,
        };
        cluster.send(0, ToWorker::Chunk(chunk).to_bytes()).unwrap();
        let r = recv_result(&mut cluster);
        assert_eq!(r.ids.len(), 3, "disabled pruning must keep all candidates");
        cluster.shutdown().unwrap();
    }

    #[test]
    fn unknown_shard_answers_empty() {
        let mut cluster = one_worker_cluster();
        // No Load at all.
        let chunk = QueryChunk {
            ns: 0,
            query_id: 4,
            epoch: 0,
            shard: 5,
            k: 1,
            threshold: f32::INFINITY,
            clusters: vec![0],
            dims: vec![0.0, 0.0],
            q_total_norm_sq: 0.0,
            order: vec![0],
            position: 0,
            delta_seq: 0,
        };
        cluster.send(0, ToWorker::Chunk(chunk).to_bytes()).unwrap();
        let r = recv_result(&mut cluster);
        assert!(r.ids.is_empty());
        cluster.shutdown().unwrap();
    }

    /// SQ8 block, single hop: stage-1 quantized distances must rank the
    /// same ids as exact f32 (well-separated vectors), stats must report
    /// the bytes as SQ8 payload, and eviction must release them.
    #[test]
    fn sq8_block_scans_and_accounts_bytes() {
        let mut cluster = one_worker_cluster();
        let flat = vec![1.0f32, 0.0, 0.0, 1.0, 5.0, 5.0];
        let load = LoadBlock {
            ns: 0,
            epoch: 0,
            shard: 0,
            dim_block: 0,
            dim_start: 0,
            dim_end: 2,
            total_dim_blocks: 1,
            metric: 0,
            pruning: true,
            repr: 1,
            lists: vec![crate::messages::ClusterBlock {
                cluster: 0,
                ids: vec![100, 200, 300],
                flat: vec![],
                segs: vec![Sq8Segment::quantize(&flat, 2, 0)],
                block_norms_sq: vec![],
                total_norms_sq: vec![],
            }],
        };
        cluster.send(0, ToWorker::Load(load).to_bytes()).unwrap();
        drain_ack(&mut cluster);

        cluster.send(0, ToWorker::GetStats.to_bytes()).unwrap();
        let (_, payload) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
        match ToClient::from_bytes(payload).unwrap() {
            ToClient::Stats(s) => {
                assert_eq!(s.f32_block_bytes, 0);
                assert!(s.sq8_block_bytes > 0, "sq8 payload must be accounted");
            }
            other => panic!("unexpected {other:?}"),
        }

        let chunk = QueryChunk {
            ns: 0,
            query_id: 21,
            epoch: 0,
            shard: 0,
            k: 2,
            threshold: f32::INFINITY,
            clusters: vec![0],
            dims: vec![1.0, 0.0],
            q_total_norm_sq: 0.0,
            order: vec![0],
            position: 0,
            delta_seq: 0,
        };
        cluster.send(0, ToWorker::Chunk(chunk).to_bytes()).unwrap();
        let r = recv_result(&mut cluster);
        // Exact distances are 0, 2, 41: quantization error (range 5, step
        // ~0.02) cannot reorder them.
        assert_eq!(r.ids, vec![100, 200]);
        assert!((r.scores[0] - 0.0).abs() < 0.1, "got {}", r.scores[0]);
        assert!((r.scores[1] - 2.0).abs() < 0.2, "got {}", r.scores[1]);

        cluster
            .send(0, ToWorker::EvictEpoch { ns: 0, epoch: 0 }.to_bytes())
            .unwrap();
        cluster.send(0, ToWorker::GetStats.to_bytes()).unwrap();
        let (_, payload) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
        match ToClient::from_bytes(payload).unwrap() {
            ToClient::Stats(s) => assert_eq!(s.sq8_block_bytes, 0),
            other => panic!("unexpected {other:?}"),
        }
        cluster.shutdown().unwrap();
    }

    /// A widened threshold prune under SQ8 must never drop the true best:
    /// τ sits between id 100's exact distance (0) and the others.
    #[test]
    fn sq8_threshold_prune_keeps_true_best() {
        let mut cluster = one_worker_cluster();
        let flat = vec![1.0f32, 0.0, 0.0, 1.0, 5.0, 5.0];
        let load = LoadBlock {
            ns: 0,
            epoch: 0,
            shard: 0,
            dim_block: 0,
            dim_start: 0,
            dim_end: 2,
            total_dim_blocks: 1,
            metric: 0,
            pruning: true,
            repr: 1,
            lists: vec![crate::messages::ClusterBlock {
                cluster: 0,
                ids: vec![100, 200, 300],
                flat: vec![],
                segs: vec![Sq8Segment::quantize(&flat, 2, 0)],
                block_norms_sq: vec![],
                total_norms_sq: vec![],
            }],
        };
        cluster.send(0, ToWorker::Load(load).to_bytes()).unwrap();
        drain_ack(&mut cluster);

        let chunk = QueryChunk {
            ns: 0,
            query_id: 22,
            epoch: 0,
            shard: 0,
            k: 3,
            threshold: 1.0,
            clusters: vec![0],
            dims: vec![1.0, 0.0],
            q_total_norm_sq: 0.0,
            order: vec![0],
            position: 0,
            delta_seq: 0,
        };
        cluster.send(0, ToWorker::Chunk(chunk).to_bytes()).unwrap();
        let r = recv_result(&mut cluster);
        assert!(r.ids.contains(&100), "true best pruned: {:?}", r.ids);
        assert!(!r.ids.contains(&300), "far point must still prune");
        cluster.shutdown().unwrap();
    }

    /// The inner-product slack is the bound the quantizer's property test
    /// proves (`widened_quantized_distance_lower_bounds_exact`), with the
    /// list's stored block norm as `‖p‖` and nothing added to it: norms are
    /// cut from exact rows on every route to an epoch.
    #[test]
    fn sq8_ip_slack_takes_the_stored_norm_unpadded() {
        // E_q·‖p‖ + (‖q‖+E_q)·E_p = 0.5·2 + (3+0.5)·0.25.
        assert_eq!(IpOps::sq8_eps(0.5, 0.25, 4.0, 9.0), 1.875);
        assert_eq!(CosOps::sq8_eps(0.5, 0.25, 4.0, 9.0), 1.875);
    }

    // --- Run scoring against the row-at-a-time oracle -------------------

    /// The row at walk position `i` of a run: row `i` on the first hop, the
    /// `i`-th pick on later ones.
    fn oracle_row(buf: &RunScratch, i: usize) -> usize {
        buf.picks.get(i).map_or(i, |&r| r as usize)
    }

    /// The row-at-a-time exact scoring the blocked kernels replaced: one
    /// `l2_sq` / `ip` call per candidate, `rows` being the run row-major.
    pub(super) fn score_f32_by_rows<M: MetricOps>(
        buf: &mut RunScratch,
        rows: &[f32],
        q: &[f32],
        len: usize,
    ) {
        let w = q.len();
        for i in 0..len {
            let r = oracle_row(buf, i);
            let row = &rows[r * w..(r + 1) * w];
            buf.partials[i] = if M::IP { -ip(q, row) } else { l2_sq(q, row) };
        }
    }

    /// The row-at-a-time SQ8 scoring the run scoring replaced: the query
    /// prepared per `(query, list)` by `quant::prepare_block_query`, every
    /// candidate scored through `quant::l2_partial_row` / `ip_dot_row`, and
    /// every prune left to `settle`'s float test. Returns the run's slack.
    pub(super) fn score_sq8_by_rows<M: MetricOps>(
        buf: &mut RunScratch,
        list: &ListBlock,
        seg: &Sq8Segment,
        q: &[f32],
        slot: &QuerySlot,
        len: usize,
    ) -> f32 {
        let segs = std::slice::from_ref(seg);
        let bq = quant::prepare_block_query(segs, q, seg.dim_start);
        for i in 0..len {
            let row = oracle_row(buf, i);
            buf.partials[i] = if M::IP {
                -quant::ip_dot_row(segs, &bq, row)
            } else {
                quant::l2_partial_row(segs, &bq, row)
            };
        }
        M::sq8_eps(
            bq.err,
            bq.data_err,
            list.max_block_norm_sq,
            slot.q_block_norm_sq,
        )
    }

    /// Width of the oracle fixture's vectors.
    const OR_DIM: usize = 274;
    /// Dimension ranges of the oracle fixture's pipelines: one hop over all
    /// 274 dimensions; four hops, the first three of whose widths take a
    /// 16-code step plus a scalar tail, plus the 8-code tail, and plus one
    /// code; and three hops, the first two exactly the prefix pass's
    /// eligibility width. So the L2 prefix pass runs on a first hop that
    /// forwards and on one that answers, and is passed over on a narrower
    /// first hop and on carried hops as wide as it.
    const OR_SPLITS: [&[usize]; 3] = [
        &[0, OR_DIM],
        &[0, 21, 45, 62, OR_DIM],
        &[0, PREFIX_MIN_WIDTH, 2 * PREFIX_MIN_WIDTH, OR_DIM],
    ];
    /// Rows per list: empty, short of a quad, across quad boundaries.
    const OR_LISTS: [usize; 8] = [0, 1, 3, 4, 5, 9, 17, 30];

    fn or_row(id: u64) -> Vec<f32> {
        (0..OR_DIM as u64)
            .map(|j| fx_coord(id * 67 + j) * (1 + j % 5) as f32)
            .collect()
    }

    /// The vector of the oracle's query 113.
    const OR_EDGE: u64 = 4_343;
    /// Where row 2 of list 4 departs from [`OR_EDGE`]'s vector: in the
    /// first [`PREFIX`] coordinates only, by steps whose squares sum one
    /// ulp higher in lane order 0..8, 7..0, `(t0+t2)+(t1+t3)` or adjacent
    /// pairs than in the row kernels' tree — so a prefix summed in another
    /// order drops the row the walk keeps.
    const OR_EDGE_STEPS: [f32; PREFIX] = [-0.046, -0.78, -0.0057, 0.52, -0.64, -0.014, 0.14, -1.0];

    /// Row 2 of list 4: [`OR_EDGE`]'s vector moved in its first
    /// [`PREFIX`] coordinates, so the prefix pass sees the row's whole
    /// score.
    fn or_edge_row() -> Vec<f32> {
        let mut row = or_row(OR_EDGE);
        for (x, step) in row.iter_mut().zip(OR_EDGE_STEPS) {
            *x += step;
        }
        row
    }

    /// One machine's share of the oracle fixture: every list cut to
    /// `range` (and quantized as `cut_list` does, under SQ8), and four
    /// delta rows.
    fn or_block(range: std::ops::Range<usize>, is_ip: bool, sq8: bool) -> (BlockStore, DeltaList) {
        let norms = |v: &[f32]| (ip(&v[range.clone()], &v[range.clone()]), ip(v, v));
        let lists = OR_LISTS
            .iter()
            .enumerate()
            .map(|(l, &n)| {
                let ids: Vec<u64> = (0..n).map(|r| fx_list_id(l as u32, r)).collect();
                // List 5's rows are one vector: equal scores at the edges.
                let vector = |id: u64| match (l, id) {
                    (5, _) => or_row(OR_TWIN),
                    (4, id) if id == fx_list_id(4, 2) => or_edge_row(),
                    _ => or_row(id),
                };
                let rows: Vec<Vec<f32>> = ids.iter().map(|&id| vector(id)).collect();
                let flat: Vec<f32> = rows
                    .iter()
                    .flat_map(|v| v[range.clone()].to_vec())
                    .collect();
                let (block_norms_sq, total_norms_sq): (Vec<f32>, Vec<f32>) = if is_ip {
                    rows.iter().map(|v| norms(v)).unzip()
                } else {
                    (vec![], vec![])
                };
                crate::messages::ClusterBlock {
                    cluster: l as u32,
                    ids,
                    segs: if sq8 && n > 0 {
                        vec![Sq8Segment::quantize(&flat, range.len(), range.start as u64)]
                    } else {
                        vec![]
                    },
                    flat: if sq8 { vec![] } else { flat },
                    block_norms_sq,
                    total_norms_sq,
                }
            })
            .collect();
        let mut delta = DeltaList::new(range.len());
        for i in 0..4u64 {
            let v = or_row(900 + i);
            let (b, t) = if is_ip { norms(&v) } else { (0.0, 0.0) };
            delta.push(900 + i, i + 1, &v[range.clone()], b, t);
        }
        let block = BlockStore::from_wire(range.start as u64, range.end as u64, lists);
        (block, delta)
    }

    /// The vector every row of list 5 of the oracle fixture holds.
    const OR_TWIN: u64 = 4_242;

    /// Twelve queries: random without a threshold, random with a moderate
    /// one, and near a list row with that row's score as the threshold —
    /// tight enough that the first hop prunes. A thirteenth is list 5's
    /// vector with its own score as the threshold, so partials and top-k
    /// bounds tie exactly: ties survive, as `settle` keeps them. A
    /// fourteenth is [`OR_EDGE`]'s vector with the score of the row that
    /// departs from it in its first [`PREFIX`] coordinates as the
    /// threshold: that row's prefix partial equals the threshold exactly,
    /// and it must survive the prefix pass.
    fn or_queries(metric: Metric) -> Vec<FxQuery> {
        let twin = or_row(OR_TWIN);
        let mut queries: Vec<FxQuery> = (0..12u64)
            .map(|i| {
                let target = or_row(fx_list_id(7, i as usize));
                let vector: Vec<f32> = if i % 3 == 2 {
                    target
                        .iter()
                        .zip(0u64..)
                        .map(|(x, j)| x + 0.05 * fx_coord(i * 131 + j))
                        .collect()
                } else {
                    or_row(5_000 + i)
                };
                let threshold = if i % 3 == 0 {
                    f32::INFINITY
                } else {
                    metric.score(&vector, &target)
                };
                FxQuery {
                    id: 100 + i,
                    vector,
                    clusters: (0..OR_LISTS.len() as u32)
                        .filter(|&l| (i + u64::from(l)) % 4 != 0)
                        .collect(),
                    threshold,
                }
            })
            .collect();
        queries.push(FxQuery {
            id: 112,
            threshold: metric.score(&twin, &twin),
            vector: twin,
            clusters: (0..OR_LISTS.len() as u32).collect(),
        });
        let edge = or_row(OR_EDGE);
        queries.push(FxQuery {
            id: 113,
            threshold: metric.score(&edge, &or_edge_row()),
            vector: edge,
            clusters: (0..OR_LISTS.len() as u32).collect(),
        });
        queries
    }

    fn or_chunk(
        metric: Metric,
        queries: &[FxQuery],
        splits: &[usize],
        position: usize,
    ) -> ChunkBatch {
        let range = splits[position]..splits[position + 1];
        let mut clusters = Vec::new();
        let mut cluster_ends = Vec::new();
        for q in queries {
            clusters.extend_from_slice(&q.clusters);
            cluster_ends.push(clusters.len() as u32);
        }
        ChunkBatch {
            ns: 0,
            epoch: 0,
            shard: 0,
            k: 5,
            order: (0..splits.len() as u64 - 1).collect(),
            position: position as u32,
            delta_seq: 4, // the last delta row is past it
            legacy_reply: false,
            query_ids: queries.iter().map(|q| q.id).collect(),
            thresholds: queries.iter().map(|q| q.threshold).collect(),
            q_total_norms_sq: if metric == Metric::L2 {
                vec![]
            } else {
                queries.iter().map(|q| ip(&q.vector, &q.vector)).collect()
            },
            cluster_ends,
            clusters,
            dims: queries
                .iter()
                .flat_map(|q| q.vector[range.clone()].to_vec())
                .collect(),
        }
    }

    /// Everything a hop hands on, as bits: a carry's survivors, partials,
    /// norms, slack and thresholds, or an answer's ids, scores and counts.
    fn hop_bits(out: &HopOutput) -> Vec<Vec<u64>> {
        let bits = |v: &[f32]| -> Vec<u64> { v.iter().map(|x| u64::from(x.to_bits())).collect() };
        let wide = |v: &[u32]| -> Vec<u64> { v.iter().map(|&x| u64::from(x)).collect() };
        match out {
            HopOutput::Forward(c) => vec![
                wide(&c.survivor_ends),
                wide(&c.indices),
                bits(&c.partials),
                bits(&c.visited_norms_sq),
                bits(&c.q_visited_norms_sq),
                bits(&c.quant_eps),
                bits(&c.thresholds),
            ],
            HopOutput::Answer(r) => vec![
                wide(&r.result_ends),
                r.ids.clone(),
                bits(&r.scores),
                r.candidates_seen.clone(),
            ],
        }
    }

    /// One sub-batch down an oracle-fixture pipeline through `scan_hop`,
    /// each hop's carry feeding the next: every hop's output as bits, and
    /// its tally.
    fn or_pipeline(
        meta: NsMeta,
        blocks: &[(BlockStore, DeltaList)],
        tombstones: &TombstoneSet,
        splits: &[usize],
        queries: &[FxQuery],
        scratch: &mut Scratch,
    ) -> Vec<(Vec<Vec<u64>>, [u64; 3])> {
        let mut carry = None;
        let mut hops = Vec::new();
        for (position, (block, delta)) in blocks.iter().enumerate() {
            let chunk = or_chunk(meta.metric, queries, splits, position);
            let (out, t) = scan_hop(
                meta,
                tombstones,
                Some(block),
                Some(delta),
                chunk,
                carry.as_ref(),
                scratch,
            );
            hops.push((hop_bits(&out), [t.seen, t.pruned, t.scanned_point_dims]));
            carry = match out {
                HopOutput::Forward(c) => Some(c),
                HopOutput::Answer(_) => None,
            };
        }
        hops
    }

    /// Run scoring is an execution strategy, not a different computation.
    /// Exact rows go through the blocked f32 kernels (the first hop's
    /// register tile over every query probing a list, the carried hops'
    /// four-row gather) and, under L2 on first hops at least
    /// [`PREFIX_MIN_WIDTH`] wide, the prefix pass first; SQ8 quantizes once
    /// per `(query, list)` and scores with the blocked u8 kernels and the
    /// integer cutoff; and the walk takes its L2 shortcuts (compaction, the
    /// last hop's pre-filter). Against row-at-a-time scoring with every
    /// candidate settled one by one, every hop of a one-hop, a four-hop and
    /// a three-hop pipeline (first, carried and last positions) hands on
    /// the same carry (survivor indices, partial and `quant_eps` bits) or
    /// answer (ids, score bits) and counts the same tally, under both
    /// representations, L2, IP and cosine, pruning on and off, with delta
    /// rows and tombstones in play, as a sub-batch and query by query.
    #[test]
    fn run_scoring_matches_row_oracle() {
        let mut tombstones = TombstoneSet::new();
        tombstones.insert(fx_list_id(6, 3), 2);
        tombstones.insert(900, 2);
        let mut runs = Scratch::default();
        let mut rows = Scratch {
            by_rows: true,
            ..Scratch::default()
        };
        for sq8 in [false, true] {
            let mut first_hop_pruned = 0;
            runs.run.prefix_dropped = 0;
            for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                let queries = or_queries(metric);
                for splits in OR_SPLITS {
                    let blocks: Vec<_> = splits
                        .windows(2)
                        .map(|r| or_block(r[0]..r[1], metric != Metric::L2, sq8))
                        .collect();
                    for pruning in [true, false] {
                        let meta = NsMeta::new(metric, pruning);
                        let mut check = |qs: &[FxQuery]| {
                            let got =
                                or_pipeline(meta, &blocks, &tombstones, splits, qs, &mut runs);
                            let want =
                                or_pipeline(meta, &blocks, &tombstones, splits, qs, &mut rows);
                            let ids: Vec<u64> = qs.iter().map(|q| q.id).collect();
                            assert_eq!(
                                got, want,
                                "sq8={sq8} {metric:?} {splits:?} pruning={pruning}: {ids:?}"
                            );
                            got
                        };
                        let batch = check(&queries);
                        if metric == Metric::L2 && pruning && splits.len() > 2 {
                            first_hop_pruned += batch[0].1[1];
                        }
                        for q in &queries {
                            check(std::slice::from_ref(q));
                        }
                    }
                }
            }
            assert!(
                first_hop_pruned > 0,
                "sq8={sq8}: the L2 first hop never pruned"
            );
            // Under SQ8 the exact delta rows take it.
            assert!(
                runs.run.prefix_dropped > 0,
                "sq8={sq8}: the prefix pass never dropped a candidate"
            );
        }
    }

    /// A sub-batch whose query slices are not as wide as the stored block
    /// (or its delta rows) is answered emptily, like one whose carry
    /// disagrees on its rows — the worker thread lives on and answers the
    /// next, well-formed sub-batch.
    #[test]
    fn a_sub_batch_of_the_wrong_width_is_answered_emptily() {
        let mut cluster = fx_cluster(Metric::L2, false);
        let queries = fx_queries(Metric::L2, 500);
        let half = FX_DIM / 2;
        for width in [half - 1, half + 1] {
            let chunk = ChunkBatch {
                ns: 0,
                epoch: 0,
                shard: 0,
                k: 5,
                order: vec![1],
                position: 0,
                delta_seq: FX_DELTA_ROWS,
                legacy_reply: false,
                query_ids: vec![600, 601],
                thresholds: vec![f32::INFINITY; 2],
                q_total_norms_sq: vec![],
                cluster_ends: vec![3, 3],
                clusters: vec![0, 1, 2],
                dims: vec![0.5; 2 * width],
            };
            cluster
                .send(1, ToWorker::ChunkBatch(chunk).to_bytes())
                .unwrap();
            let r = recv_batch(&mut cluster);
            assert_eq!(r.query_ids, vec![600, 601]);
            assert_eq!(r.result_ends, vec![0, 0], "width {width}");
            assert!(r.ids.is_empty());
        }
        fx_send(&cluster, Metric::L2, &queries[..2]);
        let r = recv_batch(&mut cluster);
        assert_eq!(r.len(), 2);
        assert!(!r.ids.is_empty(), "the worker must still answer");
        cluster.shutdown().unwrap();
    }

    /// A client payload that makes the [`Harness`] hold the client's
    /// messages; an empty one hands the held ones over.
    const HOLD: &[u8] = b"hold";

    /// What a [`Harness`] publishes after each step: the worker's
    /// sub-batches scanned in joined runs, and its pending chunks and
    /// carries.
    type Probe = Arc<std::sync::Mutex<(u64, usize)>>;

    /// Drives a worker with a queue of the test's making: between [`HOLD`]
    /// and an empty payload the messages are held, then handed to the
    /// worker as one queued batch ([`NodeHandler::handle_batch`]) or,
    /// unless `together`, one at a time; every other message is handled
    /// alone, on arrival.
    struct Harness {
        worker: HarmonyWorker,
        together: bool,
        held: Option<Vec<(NodeId, Bytes)>>,
        probe: Probe,
    }

    impl NodeHandler for Harness {
        fn handle(&mut self, ctx: &NodeCtx, from: NodeId, payload: Bytes) {
            if payload[..] == *HOLD {
                self.held = Some(Vec::new());
            } else if payload.is_empty() {
                let batch = self.held.take().unwrap_or_default();
                if self.together {
                    self.worker.handle_batch(ctx, batch);
                } else {
                    for (from, payload) in batch {
                        self.worker.handle(ctx, from, payload);
                    }
                }
            } else if let Some(held) = self.held.as_mut() {
                held.push((from, payload));
            } else {
                self.worker.handle(ctx, from, payload);
            }
            let pending = &self.worker.pending;
            *self.probe.lock().unwrap() = (
                self.worker.chunks_joined,
                pending.chunks.len() + pending.carries.len(),
            );
        }
    }

    fn harness_cluster(workers: usize, together: bool) -> (Cluster, Vec<Probe>) {
        let probes: Vec<Probe> = (0..workers).map(|_| Probe::default()).collect();
        let handed = probes.clone();
        let cluster = Cluster::spawn(ClusterConfig::new(workers), move |w| Harness {
            worker: HarmonyWorker::new(),
            together,
            held: None,
            probe: Arc::clone(&handed[w]),
        });
        (cluster, probes)
    }

    /// Every message the client receives until `cluster` is quiet.
    fn drain_client(cluster: &mut Cluster) -> Vec<ToClient> {
        cluster.quiesce(1, Duration::from_secs(5)).unwrap();
        let mut got = Vec::new();
        while let Ok((_, payload)) = cluster.recv_timeout(Duration::from_millis(50)) {
            got.push(ToClient::from_bytes(payload).unwrap());
        }
        got
    }

    /// A forwarding hop that cannot scan (here: a chunk of the wrong
    /// width) forwards a carry without survivors: the last machine
    /// answers the sub-batch, once, and nothing is left pending.
    #[test]
    fn a_failed_forwarding_hop_lets_the_last_machine_answer() {
        let (mut cluster, probes) = harness_cluster(2, false);
        fx_install(&mut cluster, Metric::L2, false, &[0, FX_DIM / 2, FX_DIM]);
        let queries = fx_queries(Metric::L2, 700);
        let half = FX_DIM / 2;
        for w in [1usize, 0] {
            // The first machine's slices are one coordinate short.
            let dims = w * half..(w + 1) * half - usize::from(w == 0);
            let mut chunk = fx_chunk(Metric::L2, &queries[..3], dims, FX_DELTA_ROWS);
            (chunk.order, chunk.position) = (vec![0, 1], w as u32);
            cluster
                .send(w, ToWorker::ChunkBatch(chunk).to_bytes())
                .unwrap();
        }
        let (from, payload) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, 1, "the itinerary's last machine answers");
        let ToClient::ResultBatch(r) = ToClient::from_bytes(payload).unwrap() else {
            panic!("not a result batch");
        };
        assert_eq!(r.query_ids, vec![700, 701, 702]);
        assert_eq!(r.result_ends, vec![0; 3]);
        assert_eq!(r.candidates_seen, vec![0; 3]);
        assert!(drain_client(&mut cluster).is_empty(), "answered once");
        for (w, probe) in probes.iter().enumerate() {
            assert_eq!(
                probe.lock().unwrap().1,
                0,
                "worker {w}: entries left pending"
            );
        }
        cluster.shutdown().unwrap();
    }

    /// A queued run of single-hop sub-batches scans as one and answers
    /// exactly as its messages handled one at a time: per sub-batch the
    /// same result bytes, and the same scan counters. Deletes and delta
    /// upserts between chunks split runs, so chunks after them see them
    /// and chunks before do not; so do a legacy chunk, another watermark
    /// and an epoch the worker does not hold (which empties that
    /// sub-batch's answer alone).
    #[test]
    fn coalesced_runs_equal_one_at_a_time() {
        for (metric, sq8) in [
            (Metric::L2, false),
            (Metric::L2, true),
            (Metric::Cosine, false),
            (Metric::Cosine, true),
        ] {
            let label = format!("{metric:?} sq8={sq8}");
            let qs = fx_queries(metric, 0);
            let full = 0..FX_DIM;
            let chunk = |first: u64, at: &[usize], delta_seq: u64| {
                let picked: Vec<FxQuery> = at
                    .iter()
                    .enumerate()
                    .map(|(i, &q)| FxQuery {
                        id: first + i as u64,
                        vector: qs[q].vector.clone(),
                        clusters: qs[q].clusters.clone(),
                        threshold: qs[q].threshold,
                    })
                    .collect();
                ToWorker::ChunkBatch(fx_chunk(metric, &picked, full.clone(), delta_seq))
            };
            // Query 0 probes list 0 alone, without a threshold: the best
            // row of list 0 is in its top 5 (only three delta rows are
            // visible); that row gets deleted mid-queue.
            let head = chunk(100, &[0, 5, 6], FX_DELTA_ROWS);
            let doomed = {
                let (mut cluster, _) = harness_cluster(1, false);
                fx_install(&mut cluster, metric, sq8, &[0, FX_DIM]);
                cluster.send(0, head.to_bytes()).unwrap();
                match &drain_client(&mut cluster)[..] {
                    [ToClient::ResultBatch(r)] => {
                        *r.result(0).ids.iter().find(|&&id| id < 900).unwrap()
                    }
                    other => panic!("{label}: {other:?}"),
                }
            };
            let upserted = &qs[0].vector;
            let norm = ip(upserted, upserted);
            let is_ip = metric != Metric::L2;
            let legacy = ToWorker::Chunk(QueryChunk {
                ns: 0,
                query_id: 400,
                epoch: 0,
                shard: 0,
                k: 5,
                threshold: f32::INFINITY,
                clusters: vec![2, 0],
                dims: qs[3].vector.clone(),
                q_total_norm_sq: if is_ip {
                    ip(&qs[3].vector, &qs[3].vector)
                } else {
                    0.0
                },
                order: vec![0],
                position: 0,
                delta_seq: FX_DELTA_ROWS,
            });
            let mut unknown = chunk(500, &[7, 8], FX_DELTA_ROWS);
            if let ToWorker::ChunkBatch(c) = &mut unknown {
                c.epoch = 9;
            }
            let late = FX_DELTA_ROWS + 2;
            let queue = [
                head,
                chunk(110, &[1], FX_DELTA_ROWS),
                chunk(120, &[2, 3, 4, 9, 15], FX_DELTA_ROWS),
                ToWorker::DeleteIds(DeleteIds {
                    ns: 0,
                    epoch: 0,
                    ids: vec![doomed],
                    seq: 10,
                }),
                chunk(200, &[0, 11], FX_DELTA_ROWS),
                chunk(210, &[12, 13], FX_DELTA_ROWS),
                ToWorker::UpsertDelta(DeltaUpsert {
                    ns: 0,
                    epoch: 0,
                    shard: 0,
                    dim_start: 0,
                    dim_end: FX_DIM as u64,
                    ids: vec![950],
                    seqs: vec![FX_DELTA_ROWS + 1],
                    flat: upserted.clone(),
                    block_norms_sq: if is_ip { vec![norm] } else { vec![] },
                    total_norms_sq: if is_ip { vec![norm] } else { vec![] },
                }),
                chunk(300, &[0, 14], late),
                chunk(310, &[10], late),
                legacy,
                chunk(320, &[4, 6, 8], late),
                chunk(330, &[1, 3], late),
                unknown,
                chunk(340, &[2], late),
                chunk(350, &[5, 7, 9, 11], late),
                ToWorker::GetStats,
            ];
            let mut answers = Vec::new();
            let mut joined = Vec::new();
            for together in [false, true] {
                let (mut cluster, probes) = harness_cluster(1, together);
                fx_install(&mut cluster, metric, sq8, &[0, FX_DIM]);
                cluster.send(0, Bytes::from_static(HOLD)).unwrap();
                for msg in &queue {
                    cluster.send(0, msg.to_bytes()).unwrap();
                }
                cluster.send(0, Bytes::new()).unwrap();
                answers.push(drain_client(&mut cluster));
                joined.push(probes[0].lock().unwrap().0);
                cluster.shutdown().unwrap();
            }
            // Runs: [100, 110, 120], [200, 210], [300, 310], [320, 330],
            // [340, 350]; everything else alone.
            assert_eq!(joined, vec![0, 11], "{label}: sub-batches joined");
            let (alone, together) = (&answers[0], &answers[1]);
            assert_eq!(alone.len(), together.len(), "{label}: messages");
            assert_eq!(
                alone.len(),
                13 + 1,
                "{label}: one answer per sub-batch, then stats"
            );
            for (i, (a, t)) in alone.iter().zip(together).enumerate() {
                match (a, t) {
                    (ToClient::Stats(a), ToClient::Stats(t)) => {
                        assert_eq!(a.slice_in, t.slice_in, "{label}: slice_in");
                        assert_eq!(a.slice_pruned, t.slice_pruned, "{label}: pruned");
                        assert_eq!(
                            a.scanned_point_dims, t.scanned_point_dims,
                            "{label}: scanned point-dims"
                        );
                    }
                    (a, t) => assert_eq!(a.to_bytes(), t.to_bytes(), "{label}: message {i}"),
                }
            }
            let batch = |first: u64| {
                together
                    .iter()
                    .find_map(|m| match m {
                        ToClient::ResultBatch(r) if r.query_ids[0] == first => Some(r),
                        _ => None,
                    })
                    .unwrap()
            };
            assert!(
                batch(100).result(0).ids.contains(&doomed),
                "{label}: deleted early"
            );
            assert!(
                !batch(200).result(0).ids.contains(&doomed),
                "{label}: delete missed"
            );
            assert_eq!(batch(300).result(0).ids[0], 950, "{label}: upsert missed");
            assert_eq!(batch(500).result_ends, vec![0, 0], "{label}: unknown epoch");
            assert!(
                batch(340).ids.len() + batch(350).ids.len() > 0,
                "{label}: the run after the unknown epoch answered"
            );
        }
    }

    fn drain_tier_ack(cluster: &mut Cluster) {
        let (_, payload) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(
            ToClient::from_bytes(payload).unwrap(),
            ToClient::TierAck { .. }
        ));
    }

    fn get_stats(cluster: &mut Cluster) -> StatsReport {
        cluster.send(0, ToWorker::GetStats.to_bytes()).unwrap();
        let (_, payload) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
        match ToClient::from_bytes(payload).unwrap() {
            ToClient::Stats(s) => s,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Demote → fault → promote must be invisible to queries: results stay
    /// bit-identical while the resident bytes move between RAM and disk.
    #[test]
    fn tier_demote_fault_promote_is_bit_identical() {
        let mut cluster = one_worker_cluster();
        cluster
            .send(0, ToWorker::Load(load_block(true)).to_bytes())
            .unwrap();
        drain_ack(&mut cluster);

        let chunk = |qid: u64| QueryChunk {
            ns: 0,
            query_id: qid,
            epoch: 0,
            shard: 0,
            k: 3,
            threshold: f32::INFINITY,
            clusters: vec![0],
            dims: vec![1.0, 0.0],
            q_total_norm_sq: 0.0,
            order: vec![0],
            position: 0,
            delta_seq: 0,
        };
        cluster
            .send(0, ToWorker::Chunk(chunk(40)).to_bytes())
            .unwrap();
        let hot = recv_result(&mut cluster);
        let hot_stats = get_stats(&mut cluster);
        assert!(hot_stats.f32_block_bytes > 0);
        assert_eq!(hot_stats.spilled_block_bytes, 0);

        // Demote to cold: payload leaves RAM, a spill file appears.
        cluster
            .send(
                0,
                ToWorker::SetTier(SetTier {
                    ns: 0,
                    temperature: Temperature::Cold.encode(),
                })
                .to_bytes(),
            )
            .unwrap();
        drain_tier_ack(&mut cluster);
        let cold_stats = get_stats(&mut cluster);
        assert_eq!(cold_stats.f32_block_bytes, 0, "cold drops the payload");
        assert!(cold_stats.spilled_block_bytes > 0, "cold keeps a backing");

        // A query faults the block back and matches the hot answer exactly.
        cluster
            .send(0, ToWorker::Chunk(chunk(41)).to_bytes())
            .unwrap();
        let faulted = recv_result(&mut cluster);
        assert_eq!(faulted.ids, hot.ids);
        assert_eq!(faulted.scores, hot.scores);
        let warm_stats = get_stats(&mut cluster);
        assert!(warm_stats.cache_block_bytes > 0, "fault lands in the cache");

        // Promote back to hot: spill file released, payload pinned again.
        cluster
            .send(
                0,
                ToWorker::SetTier(SetTier {
                    ns: 0,
                    temperature: Temperature::Hot.encode(),
                })
                .to_bytes(),
            )
            .unwrap();
        drain_tier_ack(&mut cluster);
        let promoted_stats = get_stats(&mut cluster);
        assert!(promoted_stats.f32_block_bytes > 0);
        assert_eq!(promoted_stats.spilled_block_bytes, 0);
        assert_eq!(promoted_stats.cache_block_bytes, 0);
        cluster
            .send(0, ToWorker::Chunk(chunk(42)).to_bytes())
            .unwrap();
        let promoted = recv_result(&mut cluster);
        assert_eq!(promoted.ids, hot.ids);
        assert_eq!(promoted.scores, hot.scores);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let mut cluster = one_worker_cluster();
        cluster
            .send(0, ToWorker::Load(load_block(true)).to_bytes())
            .unwrap();
        drain_ack(&mut cluster);
        let chunk = QueryChunk {
            ns: 0,
            query_id: 5,
            epoch: 0,
            shard: 0,
            k: 1,
            threshold: f32::INFINITY,
            clusters: vec![0],
            dims: vec![0.0, 0.0],
            q_total_norm_sq: 0.0,
            order: vec![0],
            position: 0,
            delta_seq: 0,
        };
        cluster.send(0, ToWorker::Chunk(chunk).to_bytes()).unwrap();
        let _ = recv_result(&mut cluster);
        cluster.send(0, ToWorker::ResetStats.to_bytes()).unwrap();
        cluster.send(0, ToWorker::GetStats.to_bytes()).unwrap();
        let (_, payload) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
        match ToClient::from_bytes(payload).unwrap() {
            ToClient::Stats(s) => {
                assert!(s.slice_in.iter().all(|&x| x == 0));
                assert_eq!(s.scanned_point_dims, 0);
                assert!(s.memory_bytes > 0, "memory survives a stats reset");
            }
            other => panic!("unexpected {other:?}"),
        }
        cluster.shutdown().unwrap();
    }
}
