//! Queued batches (joined runs against one-at-a-time handling), messages
//! a worker must survive, and tiering.
#![cfg(test)]

use super::*;

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
            clusters: vec![2, 0],
            q_total_norm_sq: if is_ip {
                ip(&qs[3].vector, &qs[3].vector)
            } else {
                0.0
            },
            delta_seq: FX_DELTA_ROWS,
            ..one_query(400, 5, qs[3].vector.clone())
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
                block_norms_sq: if is_ip { vec![norm] } else { vec![] },
                total_norms_sq: if is_ip { vec![norm] } else { vec![] },
                ..l2_upsert(vec![950], vec![FX_DELTA_ROWS + 1], FX_DIM, upserted.clone())
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

/// Demote → fault → promote must be invisible to queries: results stay
/// bit-identical while the resident bytes move between RAM and disk.
#[test]
fn tier_demote_fault_promote_is_bit_identical() {
    let mut cluster = one_worker_cluster();
    cluster
        .send(0, ToWorker::Load(load_block(true)).to_bytes())
        .unwrap();
    drain_ack(&mut cluster);

    let chunk = |qid: u64| one_query(qid, 3, vec![1.0, 0.0]);
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
    let chunk = one_query(5, 1, vec![0.0, 0.0]);
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

/// A delta upsert whose slice is not as wide as the shard's delta rows is
/// dropped whole: the worker lives on, and the next chunk is answered
/// from the rows it already held.
#[test]
fn a_delta_upsert_of_another_width_is_dropped() {
    let (mut cluster, _) = harness_cluster(1, false);
    // Four 4-wide delta rows, 900 of them tombstoned.
    fx_install(&mut cluster, Metric::L2, false, &[0, FX_DIM / 2]);
    let seqs = vec![FX_DELTA_ROWS + 1, FX_DELTA_ROWS + 2];
    let wide = l2_upsert(
        vec![950, 951],
        seqs,
        FX_DIM,
        [fx_row(950), fx_row(951)].concat(),
    );
    cluster
        .send(0, ToWorker::UpsertDelta(wide).to_bytes())
        .unwrap();
    // Probes no list: the delta rows are its only candidates.
    let query = FxQuery {
        id: 800,
        vector: fx_row(5_000),
        clusters: vec![],
        threshold: f32::INFINITY,
    };
    let chunk = fx_chunk(Metric::L2, &[query], 0..FX_DIM / 2, FX_DELTA_ROWS + 3);
    cluster
        .send(0, ToWorker::ChunkBatch(chunk).to_bytes())
        .unwrap();
    let r = recv_batch(&mut cluster);
    let mut ids = r.ids.clone();
    ids.sort_unstable();
    assert_eq!(ids, vec![901, 902, 903], "only the first upsert's rows");
    assert_eq!(r.candidates_seen, vec![FX_DELTA_ROWS]);
    assert!(cluster.shutdown().is_ok(), "the worker died");
}

/// A shard's first delta upsert, wider than its block, is dropped: a delta
/// list of another width would fail every later hop of the shard.
#[test]
fn a_delta_upsert_wider_than_its_block_is_dropped() {
    let (mut cluster, _) = harness_cluster(1, false);
    cluster
        .send(0, ToWorker::Load(load_block(true)).to_bytes())
        .unwrap();
    drain_ack(&mut cluster);
    let wide = l2_upsert(vec![950], vec![1], 4, vec![1.0, 0.0, 0.0, 0.0]);
    cluster
        .send(0, ToWorker::UpsertDelta(wide).to_bytes())
        .unwrap();
    let query = FxQuery {
        id: 801,
        vector: vec![1.0, 0.0],
        clusters: vec![0],
        threshold: f32::INFINITY,
    };
    let chunk = fx_chunk(Metric::L2, &[query], 0..2, 5);
    cluster
        .send(0, ToWorker::ChunkBatch(chunk).to_bytes())
        .unwrap();
    let r = recv_batch(&mut cluster);
    assert_eq!(
        r.ids,
        vec![100, 200, 300],
        "the block's rows, and only them"
    );
    assert!(cluster.shutdown().is_ok(), "the worker died");
}
