//! The scan: one hop of one sub-batch over the storage it resolved to
//! ([`scan_hop`]). It touches neither the fabric nor the worker's tables,
//! so the planner times it on sample lists and a simulated transport can
//! drive it.
//!
//! A hop walks the sub-batch **list-major** ([`scan_batch`]): one group
//! per list any query probes, in ascending cluster id, then the shard's
//! visible delta prefix as more groups of at most [`DELTA_RUN_ROWS`]
//! rows, each holding every query. Each group is scored
//! ([`super::score`]) and every `(query, run)` of it walked by the one row
//! loop ([`scan_run`] → [`settle`]): `scan → bound → prune → emit`, with
//! the metric resolved once per sub-batch.

use std::cmp::Ordering;

use harmony_index::distance::{f32_tile, ip};
use harmony_index::{DeltaList, Metric, TombstoneSet, TopK};

use super::score::{
    grow, prefix_bound, prefix_eligible, CosOps, DeltaRows, IpOps, L2Ops, ListRows, MetricOps,
    Rest, Rows, RunData, RunScratch, Scored,
};
use super::store::{BlockData, BlockStore};
use crate::messages::{span, CarryBatch, ChunkBatch, ResultBatch};
use crate::pruning::PruneRule;

/// Per-namespace query configuration, set by the namespace's first
/// [`LoadBlock`](crate::messages::LoadBlock) and inherited by every later
/// epoch (migrations never change a namespace's metric or pruning rule).
#[derive(Clone, Copy)]
pub(crate) struct NsMeta {
    pub(super) metric: Metric,
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
pub(super) struct SlotOut {
    indices: Vec<u32>,
    partials: Vec<f32>,
    visited_norms_sq: Vec<f32>,
    pub(super) topk: Option<TopK>,
}

/// Walk state and output of one query of the sub-batch. Slots live in the
/// worker's [`Scratch`] and are reused across batches, so survivors land in
/// warm buffers instead of a fresh `Vec` per chunk.
#[derive(Default)]
pub(super) struct QuerySlot {
    /// Tightest threshold known (the chunk's and the carry's).
    pub(super) threshold: f32,
    q_total_norm_sq: f32,
    /// This block's share of the query norm (IP metrics).
    pub(super) q_block_norm_sq: f32,
    /// Query norm over every block visited so far, this one included.
    q_visited_norm_sq: f32,
    /// Prune slack carried in from earlier hops.
    eps_in: f32,
    /// Largest per-list slack met on this hop.
    hop_eps: f32,
    /// Enumeration index of row 0 of the run being walked.
    pub(super) base: u32,
    /// Cursor value when the hop began; `cursor - entered` candidates
    /// have entered the hop so far.
    entered: usize,
    /// Next unread carried survivor (absolute offset into the carry); on
    /// the first hop, simply the rows enumerated so far.
    pub(super) cursor: usize,
    /// One past this query's last carried survivor.
    pub(super) carried_end: usize,
    pub(super) out: SlotOut,
}

/// Per-worker buffers of the scan routine.
#[derive(Default)]
pub(crate) struct Scratch {
    slots: Vec<QuerySlot>,
    /// `(cluster, query row)` pairs of the sub-batch, sorted: the
    /// list-major walk order.
    probes: Vec<(u32, u32)>,
    pub(super) run: RunScratch,
    /// Score runs row by row and settle every candidate one at a time
    /// (`tests::oracle`): the reference the run scoring and the walk's
    /// shortcuts are checked against.
    #[cfg(test)]
    pub(super) by_rows: bool,
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
pub(super) struct HopEnv<'a> {
    pub(super) rule: PruneRule,
    tombstones: &'a TombstoneSet,
    /// `None` on the first hop: every row of a run is a candidate.
    pub(super) carry: Option<&'a CarryBatch>,
    pub(super) is_last: bool,
    /// [`Scratch::by_rows`].
    #[cfg(test)]
    pub(super) by_rows: bool,
}

impl HopEnv<'_> {
    /// Whether the walk may take its L2 shortcuts (always, outside the
    /// reference the tests check them against).
    pub(super) fn shortcuts(&self) -> bool {
        #[cfg(test)]
        if self.by_rows {
            return false;
        }
        true
    }
}

/// What every candidate of one `(query, run)` is bounded against.
#[derive(Clone, Copy)]
pub(super) struct Bounds {
    pub(super) threshold: f32,
    q_total_sq: f32,
    /// Query norm over the blocks not visited yet.
    q_rest_sq: f32,
    /// Prune slack accumulated so far: previous hops' carry plus this
    /// run's contribution.
    pub(super) eps: f32,
}

impl Bounds {
    /// What one query's candidates are bounded against in a run whose own
    /// prune slack is `eps_run`.
    pub(super) fn of(slot: &QuerySlot, eps_run: f32) -> Self {
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
/// inside it, in the order `RunScratch::pick` scored them. Under L2 two
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

/// What the groups of one sub-batch's list-major walk share: the hop, the
/// chunk and its query slots, the run buffers, the tally, and the query
/// lists of a tile.
struct Walker<'w> {
    env: &'w HopEnv<'w>,
    chunk: &'w ChunkBatch,
    /// The hop runs the L2 prefix pass ([`prefix_eligible`]).
    prefix: bool,
    slots: &'w mut [QuerySlot],
    run: &'w mut RunScratch,
    tally: HopTally,
    /// The query slices of one register tile.
    tile: Vec<&'w [f32]>,
    /// The queries of a group the prefix pass leaves to the tile.
    tiled: Vec<u32>,
}

impl Walker<'_> {
    /// One group: the run `rows` / `data` of `n` rows `width` wide against
    /// each query of `queries`, ascending. On an exact first hop every row
    /// is a candidate of every query: a query whose run takes the L2
    /// prefix pass is scored alone, the rest share one register tile,
    /// which loads each row once per pair of queries. Otherwise query by
    /// query, skipping those with nothing here.
    #[inline(always)]
    fn group<M: MetricOps, R: Rows>(
        &mut self,
        rows: &R,
        data: RunData<'_>,
        (n, width): (usize, usize),
        queries: impl Iterator<Item = u32> + Clone,
    ) {
        let env = self.env;
        match data {
            RunData::F32(flat) if env.carry.is_none() && env.shortcuts() => {
                if self.prefix {
                    let mut tiled = std::mem::take(&mut self.tiled);
                    self.prefix_runs::<M, R>(rows, flat, (n, width), queries, &mut tiled);
                    self.tile_runs::<M, R>(rows, flat, (n, width), tiled.iter().copied());
                    self.tiled = tiled;
                } else {
                    self.tile_runs::<M, R>(rows, flat, (n, width), queries);
                }
            }
            data => {
                for q in queries {
                    let slot = &mut self.slots[q as usize];
                    let carried_here = env.carry.is_none_or(|carry| {
                        slot.cursor < slot.carried_end
                            && carry.indices[slot.cursor].wrapping_sub(slot.base) < n as u32
                    });
                    if n == 0 || !carried_here {
                        // Nothing of this query lives here: only the
                        // enumeration advances (and no SQ8 query
                        // preparation is paid).
                        slot.base += n as u32;
                        continue;
                    }
                    let dims = self.chunk.dims_of(q as usize);
                    let scored = match data {
                        RunData::F32(flat) => self.run.score_f32::<M>(env, flat, n, dims, slot),
                        RunData::Sq8(seg, max_norm) => {
                            self.run.score_sq8::<M>(env, (seg, max_norm), n, dims, slot)
                        }
                    };
                    scan_run::<M, R>(env, rows, (n, width), scored, slot, &mut self.tally);
                }
            }
        }
    }

    /// The first-hop runs of `queries` over every row of the exact `flat`:
    /// one register tile, then each run walked.
    #[inline(always)]
    fn tile_runs<M: MetricOps, R: Rows>(
        &mut self,
        rows: &R,
        flat: &[f32],
        (n, width): (usize, usize),
        queries: impl Iterator<Item = u32> + Clone,
    ) {
        let chunk = self.chunk;
        self.tile.clear();
        self.tile
            .extend(queries.clone().map(|q| chunk.dims_of(q as usize)));
        if self.tile.is_empty() {
            return;
        }
        let m = self.tile.len();
        grow(&mut self.run.partials, m * n);
        f32_tile(M::METRIC, &self.tile, flat, &mut self.run.partials[..m * n]);
        for (g, q) in queries.enumerate() {
            let scored = Scored {
                partials: &self.run.partials[g * n..(g + 1) * n],
                len: n,
                sel: None,
                cut: None,
                eps: 0.0,
            };
            let slot = &mut self.slots[q as usize];
            scan_run::<M, R>(self.env, rows, (n, width), scored, slot, &mut self.tally);
        }
    }

    /// The first-hop runs over the exact `flat` of `queries` on a hop
    /// eligible for the prefix pass: each whose test can drop
    /// ([`prefix_bound`]) scored in two passes and walked, the others
    /// pushed to `tiled`, for one register tile. Kept out of line, so the
    /// tile path of a hop the pass does not run on stays as small as it
    /// was.
    #[inline(never)]
    fn prefix_runs<M: MetricOps, R: Rows>(
        &mut self,
        rows: &R,
        flat: &[f32],
        shape: (usize, usize),
        queries: impl Iterator<Item = u32>,
        tiled: &mut Vec<u32>,
    ) {
        tiled.clear();
        for q in queries {
            let slot = &mut self.slots[q as usize];
            let Some(bound) = prefix_bound(self.env, slot) else {
                tiled.push(q);
                continue;
            };
            let dims = self.chunk.dims_of(q as usize);
            let scored = self.run.score_prefixed(flat, shape.0, dims, bound);
            scan_run::<M, R>(self.env, rows, shape, scored, slot, &mut self.tally);
        }
    }
}

/// The most delta rows one group of [`scan_batch`]'s walk holds.
pub(super) const DELTA_RUN_ROWS: usize = 256;

/// Scans one sub-batch on one hop, **list-major**: for each list any query
/// of the sub-batch probes, in ascending cluster id — which is also every
/// query's canonical enumeration order, because chunk rows list their
/// clusters ascending — score every query that probes it while the list's
/// slice is cache-resident; then the shard's delta prefix, as groups of
/// at most [`DELTA_RUN_ROWS`] rows holding every query. Results are left
/// in the slots of `scratch`.
fn scan_batch<M: MetricOps>(
    env: &HopEnv<'_>,
    block: Option<&BlockStore>,
    delta: Option<&DeltaList>,
    chunk: &ChunkBatch,
    scratch: &mut Scratch,
) -> HopTally {
    let Scratch {
        slots, probes, run, ..
    } = scratch;
    probes.clear();
    if block.is_some() {
        for q in 0..chunk.len() {
            probes.extend(chunk.clusters_of(q).iter().map(|&c| (c, q as u32)));
        }
        probes.sort_unstable();
    }
    let mut walk = Walker {
        env,
        chunk,
        prefix: prefix_eligible::<M>(env, chunk.width()),
        slots: &mut slots[..],
        run,
        tally: HopTally::default(),
        tile: Vec::new(),
        tiled: Vec::new(),
    };
    for group in probes.chunk_by(|a, b| a.0 == b.0) {
        let Some(list) = block.and_then(|b| b.lists.get(&group[0].0)) else {
            continue;
        };
        let data = match &list.data {
            BlockData::F32 { flat } => RunData::F32(flat),
            BlockData::Sq8 { seg } => RunData::Sq8(seg, list.max_block_norm_sq),
        };
        let queries = group.iter().map(|&(_, q)| q);
        walk.group::<M, _>(&ListRows(list), data, (list.rows(), list.width), queries);
    }
    // Delta rows: those below the shared admission watermark, in append
    // (= sequence) order, enumerated after every probed list so carried
    // indices stay canonical across the shard row. They are exact f32
    // whatever the block representation, so their own prune slack is zero
    // even under SQ8. The first hop enumerates the visible prefix (rows
    // are sorted by sequence); later hops address whatever it enumerated.
    // The prefix is unbounded until compaction, so it is walked as groups
    // of at most `DELTA_RUN_ROWS` rows each: a first-hop tile's partials
    // stay queries × `DELTA_RUN_ROWS`, like a list's.
    if let Some(delta) = delta {
        let n = match env.carry {
            Some(_) => delta.len(),
            None => (0..delta.len())
                .take_while(|&i| delta.seq(i) < chunk.delta_seq)
                .count(),
        };
        let width = delta.width();
        let flat = delta.rows(n);
        for from in (0..n).step_by(DELTA_RUN_ROWS) {
            let len = DELTA_RUN_ROWS.min(n - from);
            let data = RunData::F32(&flat[from * width..(from + len) * width]);
            let queries = 0..chunk.len() as u32;
            walk.group::<M, _>(&DeltaRows(delta, from), data, (len, width), queries);
        }
    }
    debug_assert!(
        walk.slots
            .iter()
            .take(chunk.len())
            .all(|s| env.carry.is_none() || s.cursor == s.carried_end),
        "carried indices extend past the canonical enumeration"
    );
    walk.tally
}

/// What one hop of a sub-batch produces.
pub(crate) enum HopOutput {
    /// Not the last position: the survivors, for the next machine of the
    /// itinerary.
    Forward(CarryBatch),
    /// The last position: the sub-batch's answer, for the client.
    Answer(ResultBatch),
}

/// One hop of one sub-batch over the storage it resolved to. Position 0
/// enumerates candidates from the probed lists (plus the shard's delta
/// rows below the watermark), later positions add this
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
