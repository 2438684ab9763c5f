//! Worker tests, split by what they drive: [`pipeline`] sends messages
//! through a cluster and checks answers; [`oracle`] holds the scan to
//! row-at-a-time scoring, hop by hop; [`queue`] drives queued batches,
//! malformed messages and tiering. This file holds the fixtures they share.
#![cfg(test)]

pub(super) mod oracle;
mod pipeline;
mod queue;

use super::*;
use crate::messages::{ClusterBlock, QueryChunk, QueryResult};
use harmony_cluster::{Cluster, ClusterConfig};
use harmony_index::distance::ip;
use harmony_index::{Metric, Sq8Segment};
use std::ops::Range;
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
        lists: vec![simple_list()],
    }
}

/// List 0 of [`load_block`]: ids 100, 200, 300 at (1,0), (0,1), (5,5).
fn simple_list() -> ClusterBlock {
    ClusterBlock {
        cluster: 0,
        ids: vec![100, 200, 300],
        flat: vec![1.0, 0.0, 0.0, 1.0, 5.0, 5.0],
        segs: vec![],
        block_norms_sq: vec![],
        total_norms_sq: vec![],
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
                let (block_norms_sq, total_norms_sq) = fx_norms(&rows, &range, is_ip);
                ClusterBlock {
                    cluster: l,
                    ids,
                    segs: if sq8 {
                        vec![Sq8Segment::quantize(&flat, width, range.start as u64)]
                    } else {
                        vec![]
                    },
                    flat: if sq8 { vec![] } else { flat },
                    block_norms_sq,
                    total_norms_sq,
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
        let (block_norms_sq, total_norms_sq) = fx_norms(&delta_rows, &range, is_ip);
        let flat = delta_rows.iter().flat_map(|v| v[range.clone()].to_vec());
        let upsert = DeltaUpsert {
            dim_start: range.start as u64,
            block_norms_sq,
            total_norms_sq,
            ..l2_upsert(
                delta_ids,
                (1..=FX_DELTA_ROWS).collect(),
                r[1],
                flat.collect(),
            )
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

/// The squared norms of `rows` over `range` and whole, as the IP metrics
/// store them; none under L2.
fn fx_norms(rows: &[Vec<f32>], range: &Range<usize>, is_ip: bool) -> (Vec<f32>, Vec<f32>) {
    rows.iter()
        .filter(|_| is_ip)
        .map(|v| (ip(&v[range.clone()], &v[range.clone()]), ip(v, v)))
        .unzip()
}

/// An L2 delta upsert into shard 0 of namespace 0: rows `flat`, of
/// dimensions 0 to `dim_end`.
fn l2_upsert(ids: Vec<u64>, seqs: Vec<u64>, dim_end: usize, flat: Vec<f32>) -> DeltaUpsert {
    DeltaUpsert {
        ns: 0,
        epoch: 0,
        shard: 0,
        dim_start: 0,
        dim_end: dim_end as u64,
        ids,
        seqs,
        flat,
        block_norms_sq: vec![],
        total_norms_sq: vec![],
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

/// A single-query chunk over cluster 0 of shard 0 of namespace 0, epoch
/// 0: one hop, no threshold, no delta rows.
fn one_query(query_id: u64, k: u32, dims: Vec<f32>) -> QueryChunk {
    QueryChunk {
        ns: 0,
        query_id,
        epoch: 0,
        shard: 0,
        k,
        threshold: f32::INFINITY,
        clusters: vec![0],
        dims,
        q_total_norm_sq: 0.0,
        order: vec![0],
        position: 0,
        delta_seq: 0,
    }
}
