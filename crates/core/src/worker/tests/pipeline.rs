//! Messages through a one- or two-worker cluster: the pipeline's hops,
//! the adapters of the single-query messages, both metrics families and
//! both representations.
#![cfg(test)]

use super::*;
use crate::messages::Carry;
use crate::worker::score::{CosOps, IpOps, MetricOps};
use harmony_index::distance::l2_sq;

#[test]
fn single_block_pipeline_returns_topk() {
    let mut cluster = one_worker_cluster();
    cluster
        .send(0, ToWorker::Load(load_block(true)).to_bytes())
        .unwrap();
    drain_ack(&mut cluster);

    let chunk = one_query(1, 2, vec![1.0, 0.0]);
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
        threshold: 1.0,
        ..one_query(2, 3, vec![1.0, 0.0])
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
            dim_block: w as u32,
            dim_start: range.start as u64,
            dim_end: range.end as u64,
            total_dim_blocks: 2,
            lists: vec![ClusterBlock {
                ids: ids.clone(),
                flat,
                ..simple_list()
            }],
            ..load_block(true)
        };
        cluster.send(w, ToWorker::Load(load).to_bytes()).unwrap();
        drain_ack(&mut cluster);
    }

    // Query = (1, 0, 0, 0): distance 0 to id 10, 1 + 4 = 5 to id 20.
    let query = [1.0f32, 0.0, 0.0, 0.0];
    for (w, range, position) in [(0usize, 0..2, 0u32), (1usize, 2..4, 1u32)] {
        let chunk = QueryChunk {
            order: vec![0, 1],
            position,
            ..one_query(7, 2, query[range].to_vec())
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
        dim_block: 1,
        dim_start: 1,
        dim_end: 2,
        total_dim_blocks: 2,
        lists: vec![ClusterBlock {
            ids: vec![1],
            flat: vec![3.0],
            ..simple_list()
        }],
        ..load_block(true)
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
        order: vec![9, 0],
        position: 1,
        // (1 - 3)^2 = 4 added to carried 4.0
        ..one_query(9, 1, vec![1.0])
    };
    cluster.send(0, ToWorker::Chunk(chunk).to_bytes()).unwrap();
    let r = recv_result(&mut cluster);
    assert_eq!(r.ids, vec![1]);
    assert!((r.scores[0] - 8.0).abs() < 1e-6);
    cluster.shutdown().unwrap();
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
            threshold: q.threshold,
            clusters,
            order: vec![0, 1],
            position: w as u32,
            delta_seq: FX_DELTA_ROWS,
            ..one_query(301, 5, q.vector[w * half..(w + 1) * half].to_vec())
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
        metric: 2, // cosine
        lists: vec![ClusterBlock {
            flat: base.iter().flatten().copied().collect(),
            block_norms_sq: base.iter().map(|v| ip(v, v)).collect(),
            total_norms_sq: base.iter().map(|v| ip(v, v)).collect(),
            ..simple_list()
        }],
        ..load_block(true)
    };
    cluster.send(0, ToWorker::Load(load).to_bytes()).unwrap();
    drain_ack(&mut cluster);

    let query = [2.0f32, 0.5]; // unnormalized on purpose
    let chunk = QueryChunk {
        q_total_norm_sq: ip(&query, &query),
        ..one_query(11, 3, query.to_vec())
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
            dim_block: w as u32,
            dim_start: range.start as u64,
            dim_end: range.end as u64,
            total_dim_blocks: 2,
            metric: 2, // cosine
            lists: vec![ClusterBlock {
                ids: ids.clone(),
                flat,
                block_norms_sq: base
                    .iter()
                    .map(|v| ip(&v[range.clone()], &v[range.clone()]))
                    .collect(),
                total_norms_sq: base.iter().map(|v| ip(v, v)).collect(),
                ..simple_list()
            }],
            ..load_block(true)
        };
        cluster.send(w, ToWorker::Load(load).to_bytes()).unwrap();
        drain_ack(&mut cluster);
    }

    let query = [1.0f32, 2.0, 0.0, 1.0]; // unnormalized
    for (w, range, position) in [(0usize, 0..2, 0u32), (1usize, 2..4, 1u32)] {
        let chunk = QueryChunk {
            q_total_norm_sq: ip(&query, &query),
            order: vec![0, 1],
            position,
            ..one_query(12, 3, query[range].to_vec())
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
        threshold: 0.5, // would prune everything if enabled
        ..one_query(3, 3, vec![9.0, 9.0])
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
        shard: 5,
        ..one_query(4, 1, vec![0.0, 0.0])
    };
    cluster.send(0, ToWorker::Chunk(chunk).to_bytes()).unwrap();
    let r = recv_result(&mut cluster);
    assert!(r.ids.is_empty());
    cluster.shutdown().unwrap();
}

/// [`load_block`]'s list quantized to SQ8.
fn sq8_load_block() -> LoadBlock {
    let simple = simple_list();
    LoadBlock {
        repr: 1,
        lists: vec![ClusterBlock {
            flat: vec![],
            segs: vec![Sq8Segment::quantize(&simple.flat, 2, 0)],
            ..simple
        }],
        ..load_block(true)
    }
}

/// SQ8 block, single hop: stage-1 quantized distances must rank the
/// same ids as exact f32 (well-separated vectors), stats must report
/// the bytes as SQ8 payload, and eviction must release them.
#[test]
fn sq8_block_scans_and_accounts_bytes() {
    let mut cluster = one_worker_cluster();
    cluster
        .send(0, ToWorker::Load(sq8_load_block()).to_bytes())
        .unwrap();
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

    let chunk = one_query(21, 2, vec![1.0, 0.0]);
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
    cluster
        .send(0, ToWorker::Load(sq8_load_block()).to_bytes())
        .unwrap();
    drain_ack(&mut cluster);

    let chunk = QueryChunk {
        threshold: 1.0,
        ..one_query(22, 3, vec![1.0, 0.0])
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
