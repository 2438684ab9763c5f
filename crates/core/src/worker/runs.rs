//! Run joining: the sub-batches a worker finds queued together, whose one
//! hop answers the client, scanned as one ([`HarmonyWorker::run_joined`])
//! — one fault, one probe sort and one list-major walk, so the register
//! tile and the prefix pass see every query of the run that probes a list
//! — and the answer split back per sub-batch ([`split_answer`]; DESIGN.md
//! §2).

use harmony_cluster::NodeCtx;

use super::HarmonyWorker;
use crate::messages::{ChunkBatch, ResultBatch};

/// Most sub-batches, and most queries, one run joins: the scan's scratch
/// (query slots, probe list, tile partials) grows with a run's queries.
pub(super) const RUN_MAX_CHUNKS: usize = 64;
pub(super) const RUN_MAX_QUERIES: usize = 256;

/// Whether `chunk` may join a run: it is the whole itinerary, so its hop
/// answers the client. A forwarding hop never joins one — the carry of
/// every sub-batch of the run would wait for the whole run's scan, and
/// the next machine with it.
pub(super) fn joins_runs(chunk: &ChunkBatch) -> bool {
    chunk.position == 0 && chunk.order.len() == 1 && !chunk.legacy_reply && !chunk.is_empty()
}

/// Whether `next` scans as one sub-batch with the run `head` starts:
/// the same storage, watermark, `k` and query slice shape.
pub(super) fn same_run(head: &ChunkBatch, next: &ChunkBatch) -> bool {
    (head.ns, head.epoch, head.shard, head.k, head.delta_seq)
        == (next.ns, next.epoch, next.shard, next.k, next.delta_seq)
        && head.width() == next.width()
        && head.q_total_norms_sq.is_empty() == next.q_total_norms_sq.is_empty()
}

/// Splits a run's answer into one [`ResultBatch`] per sub-batch of
/// `sizes` queries, in order; a lone sub-batch's is its own.
pub(super) fn split_answer(result: ResultBatch, sizes: &[usize]) -> Vec<ResultBatch> {
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
    /// Scans a run of queued single-hop sub-batches ([`same_run`]) as one:
    /// one fault, one probe sort and one list-major walk, so the register
    /// tile and the prefix pass see every query of the run that probes a
    /// list. The answer is split back into one [`ResultBatch`] per
    /// sub-batch. A lone sub-batch runs alone, and so does each of a run
    /// a probed list of which cannot be read back, so that only the
    /// sub-batches probing that list are skipped.
    pub(super) fn run_joined(&mut self, ctx: &NodeCtx, run: Vec<ChunkBatch>) {
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
}
