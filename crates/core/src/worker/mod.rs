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
//! All three are the same routine ([`scan::scan_hop`]): `scan → bound →
//! prune → emit` over runs of rows, walked **list-major** — every query of
//! the sub-batch that probes a list is scored against it while the list is
//! cache-resident, and the shard's delta rows are more such groups —
//! with the metric resolved once per sub-batch. The single-query messages
//! ([`ToWorker::Chunk`], [`ToWorker::Carry`]) are lifted into one-row
//! sub-batches on arrival.
//!
//! Sub-batches whose one hop answers the client and that were queued
//! together ([`NodeHandler::handle_batch`]) are scanned as one: each run
//! of them that agrees on its storage goes through one list-major walk
//! and its answer is split back per sub-batch (DESIGN.md §2).
//!
//! The module splits along the worker's jobs: [`store`] holds the grid
//! blocks, spill files and list cache; [`score`] scores one run into a
//! buffer; [`scan`] walks a hop; [`runs`] joins queued sub-batches. This
//! file is the protocol: the message handlers, [`NodeHandler`] and the
//! statistics.
//!
//! Reported scores live in the metric's client-side lower-is-better space
//! ([`Metric::score`](harmony_index::Metric::score)): raw for L2 and inner
//! product, and normalized by the full vector norms for cosine (using the
//! `total_norms_sq` tables shipped at load time), so merged heaps never mix
//! incomparable orderings even when inputs are not normalized at
//! ingestion.
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

mod runs;
mod scan;
mod score;
mod store;
#[cfg(test)]
mod tests;

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use bytes::Bytes;
use harmony_cluster::{NodeCtx, NodeHandler, NodeId, Wire, CLIENT};
use harmony_index::{BlockCache, DeltaList, Temperature};

use crate::messages::{
    metric_tag, CarryBatch, ChunkBatch, DeleteIds, DeltaUpsert, LoadBlock, ResultBatch, SetTier,
    StatsReport, ToClient, ToWorker,
};
use runs::{joins_runs, same_run, split_answer, RUN_MAX_CHUNKS, RUN_MAX_QUERIES};
pub(crate) use scan::{scan_hop, HopOutput, NsMeta, Scratch};
pub(crate) use store::BlockStore;
use store::{default_spill_dir, BlockKey, EpochStore, ListKey};

/// In-flight sub-batch halves keyed by `(first query id, shard)`: every
/// machine of a shard row sees a sub-batch's rows in the same order, so the
/// first id names it on all of them.
#[derive(Default)]
struct PendingTables {
    chunks: HashMap<(u64, u32), ChunkBatch>,
    carries: HashMap<(u64, u32), CarryBatch>,
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
        Self::with_tiering(default_spill_dir(), DEFAULT_CACHE_BUDGET)
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
    /// watermark selects a stable prefix on every machine of the row. A
    /// message whose slice is not as wide as the shard's delta rows or
    /// block is dropped whole: the rows could not join the list, and a
    /// list of another width than the block would fail every later hop of
    /// the shard.
    fn handle_upsert_delta(&mut self, msg: DeltaUpsert) {
        // Rows and the block they belong beside come from one sender, the
        // block first: an epoch this machine does not hold was evicted.
        let Some(store) = self.epochs.get_mut(&(msg.ns, msg.epoch)) else {
            return;
        };
        let width = (msg.dim_end - msg.dim_start) as usize;
        let fits = store
            .deltas
            .get(&msg.shard)
            .is_none_or(|d| d.width() == width)
            && store
                .blocks
                .get(&msg.shard)
                .is_none_or(|b| b.store.width() == width);
        if !fits {
            return;
        }
        let delta = store
            .deltas
            .entry(msg.shard)
            .or_insert_with(|| DeltaList::new(width));
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
    /// for a sub-batch lifted from a legacy
    /// [`QueryChunk`](crate::messages::QueryChunk) — one
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
