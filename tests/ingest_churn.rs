//! Ingest churn: the mutable-shard lifecycle end to end. Fresh upserts
//! land in per-shard delta lists and are scanned *exactly* (full f32, no
//! quantization), so a query equal to a fresh vector must rank it first —
//! recall@10 on fresh data is 1.0 by construction. Soft deletes are
//! tombstones consulted at result-merge time, so a deleted id never
//! appears in any result even though its rows are still stored.
//! Compaction folds the deltas into their home IVF lists behind the same
//! epoch handshake as live migration, so the logical live set — and
//! therefore every top-k result, bit for bit — is unchanged before,
//! during, and after a compaction, on both transports and under both
//! block representations.

use harmony::prelude::*;

const WORKERS: usize = 4;
const SESSIONS: usize = 4;
const QUERIES_PER_SESSION: usize = 12;
const FRESH_BASE_ID: u64 = 1_000_000;

type SessionResults = Vec<Vec<Neighbor>>;

fn dataset() -> harmony::data::Dataset {
    SyntheticSpec::clustered(1_500, 24, 8)
        .with_seed(41)
        .generate()
}

fn build_engine(
    d: &harmony::data::Dataset,
    transport: TransportKind,
    repr: BlockRepr,
) -> HarmonyEngine {
    // balanced_load(false) keeps packing row-deterministic so result bits
    // depend only on the logical state, never on scheduling.
    let config = HarmonyConfig::builder()
        .n_machines(WORKERS)
        .nlist(24)
        .seed(7)
        .balanced_load(false)
        .transport(transport)
        .repr(repr)
        .build()
        .unwrap();
    HarmonyEngine::build(config, &d.base).unwrap()
}

/// A fresh vector that exists nowhere in the base set: a base row nudged
/// by an index-dependent offset, so each is unique and its self-query has
/// a strictly smaller L2 distance to itself than to anything else.
fn fresh_vector(d: &harmony::data::Dataset, i: usize) -> Vec<f32> {
    let row = d.base.row((i * 131) % d.base.len());
    row.iter()
        .enumerate()
        .map(|(j, &x)| x + 0.05 + 0.01 * ((i + j) % 7) as f32)
        .collect()
}

fn session_batches(d: &harmony::data::Dataset) -> Vec<VectorStore> {
    (0..SESSIONS)
        .map(|t| {
            let rows: Vec<usize> = (0..QUERIES_PER_SESSION)
                .map(|i| (t * 977 + i * 31) % d.base.len())
                .collect();
            d.base.gather(&rows)
        })
        .collect()
}

fn assert_bit_identical(a: &[SessionResults], b: &[SessionResults], phase: &str) {
    for (t, (sa, sb)) in a.iter().zip(b).enumerate() {
        for (qi, (ra, rb)) in sa.iter().zip(sb).enumerate() {
            assert_eq!(
                ra.len(),
                rb.len(),
                "{phase}: session {t} query {qi} lengths differ"
            );
            for (na, nb) in ra.iter().zip(rb) {
                assert_eq!(na.id, nb.id, "{phase}: session {t} query {qi} ids diverge");
                assert_eq!(
                    na.score.to_bits(),
                    nb.score.to_bits(),
                    "{phase}: session {t} query {qi} score bits diverge for id {}",
                    na.id
                );
            }
        }
    }
}

fn assert_never_contains(results: &[SessionResults], dead: &[u64], phase: &str) {
    for (t, sr) in results.iter().enumerate() {
        for (qi, r) in sr.iter().enumerate() {
            for n in r {
                assert!(
                    !dead.contains(&n.id),
                    "{phase}: deleted id {} surfaced in session {t} query {qi}",
                    n.id
                );
            }
        }
    }
}

/// Full churn scenario on one (transport, repr) combination:
///
/// 1. upsert 40 fresh vectors, delete 10 base ids and 10 fresh ids,
///    re-upsert 5 of the deleted base ids (supersede path);
/// 2. fresh-data recall: every live fresh vector's self-query ranks it
///    first at distance 0 — recall@10 = 1.0 on fresh data — and a deleted
///    one's self-query never returns it;
/// 3. deleted ids appear in no result, before or after compaction;
/// 4. four concurrent sessions run before, *during* (hammering a live
///    `compact()`), and after compaction — all three phases must agree
///    bit for bit, because compaction changes the physical layout but
///    not the logical live set;
/// 5. a second compaction is a no-op.
fn run_churn_scenario(transport: TransportKind, repr: BlockRepr) {
    let d = dataset();
    let engine = build_engine(&d, transport, repr);
    let batches = session_batches(&d);
    let opts = SearchOptions::new(10).with_nprobe(6);

    // --- Churn ------------------------------------------------------
    for i in 0..40usize {
        engine
            .upsert(FRESH_BASE_ID + i as u64, &fresh_vector(&d, i))
            .unwrap();
    }
    let mut dead: Vec<u64> = Vec::new();
    for i in 0..10usize {
        let base_id = (i * 149 + 3) as u64 % d.base.len() as u64;
        assert!(engine.delete(base_id).unwrap(), "base id was live");
        dead.push(base_id);
        let fresh_id = FRESH_BASE_ID + (i * 3) as u64;
        assert!(engine.delete(fresh_id).unwrap(), "fresh id was live");
        dead.push(fresh_id);
    }
    assert!(
        !engine.delete(dead[0]).unwrap(),
        "double delete must be false"
    );
    // Re-upsert half the deleted base ids: the supersede tombstone must
    // suppress the stale list copy while the new delta row stays visible.
    let mut revived: Vec<u64> = Vec::new();
    for &id in dead.iter().filter(|id| **id < FRESH_BASE_ID).take(5) {
        engine
            .upsert(id, &fresh_vector(&d, 400 + id as usize))
            .unwrap();
        revived.push(id);
    }
    dead.retain(|id| !revived.contains(id));
    assert!(engine.pending_deltas() > 0, "deltas must be pending");
    assert!(engine.tombstone_count() > 0, "tombstones must be pending");

    // --- Fresh-data recall = 1.0 pre-compaction ---------------------
    let check_fresh = |phase: &str| {
        for i in 0..40usize {
            let id = FRESH_BASE_ID + i as u64;
            let res = engine.search(&fresh_vector(&d, i), &opts).unwrap();
            if dead.contains(&id) {
                assert!(
                    res.neighbors.iter().all(|n| n.id != id),
                    "{phase}: deleted fresh id {id} returned for its own vector"
                );
                continue;
            }
            assert_eq!(
                res.neighbors.len(),
                10,
                "{phase}: short result for fresh id {id}"
            );
            assert_eq!(
                res.neighbors[0].id, id,
                "{phase}: fresh id {id} not ranked first by its own vector"
            );
        }
        for (slot, &id) in revived.iter().enumerate() {
            let res = engine
                .search(&fresh_vector(&d, 400 + id as usize), &opts)
                .unwrap();
            assert_eq!(
                res.neighbors[0].id, id,
                "{phase}: revived id {id} (slot {slot}) not ranked first"
            );
        }
    };
    check_fresh("pre-compaction");

    // --- Concurrent phases around a live compaction -----------------
    let run_concurrent = |label: &str| -> Vec<SessionResults> {
        std::thread::scope(|s| {
            let handles: Vec<_> = batches
                .iter()
                .map(|b| {
                    let (engine, opts) = (&engine, &opts);
                    s.spawn(move || engine.search_batch(b, opts).unwrap().results)
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| panic!("{label} session panicked"))
                })
                .collect()
        })
    };

    let pre = run_concurrent("pre-compaction");
    assert_never_contains(&pre, &dead, "pre-compaction");

    // Hammer the engine with all four sessions while compact() publishes
    // the folded epoch; collect every mid-flight result for the
    // bit-identity check below.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mid: Vec<Vec<SessionResults>> = std::thread::scope(|s| {
        let handles: Vec<_> = batches
            .iter()
            .map(|b| {
                let (engine, opts, stop) = (&engine, &opts, &stop);
                s.spawn(move || {
                    let mut runs = Vec::new();
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) || runs.is_empty() {
                        let out = engine.search_batch(b, opts).unwrap();
                        assert_eq!(out.results.len(), b.len(), "lost results mid-compaction");
                        runs.push(out.results);
                    }
                    runs
                })
            })
            .collect();
        let report = engine.compact().expect("live compaction");
        assert!(!report.noop, "churned engine must have work to compact");
        assert!(report.folded_rows > 0, "no delta rows folded");
        assert!(report.dropped_tombstones > 0, "no tombstones dropped");
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("mid-compaction session"))
            .collect()
    });

    assert_eq!(engine.pending_deltas(), 0, "compaction must drain deltas");
    assert_eq!(
        engine.tombstone_count(),
        0,
        "compaction must drain tombstones"
    );

    let post = run_concurrent("post-compaction");
    assert_never_contains(&post, &dead, "post-compaction");
    check_fresh("post-compaction");

    // Compaction rewrites the layout but not the logical live set: the
    // pre and post phases must agree bit for bit, and every mid-flight
    // batch (which legally ran on either side of the epoch swap) must
    // match them too.
    assert_bit_identical(&pre, &post, "pre vs post compaction");
    for (t, runs) in mid.iter().enumerate() {
        for results in runs {
            assert_never_contains(std::slice::from_ref(results), &dead, "mid-compaction");
            let wrapped = [results.clone()];
            let expected = [pre[t].clone()];
            assert_bit_identical(&wrapped, &expected, "mid vs pre compaction");
        }
    }

    let report = engine.compact().unwrap();
    assert!(report.noop, "second compaction must be a no-op");
    engine.shutdown().unwrap();
}

#[test]
fn churn_inproc_f32() {
    run_churn_scenario(TransportKind::InProc, BlockRepr::F32);
}

#[test]
fn churn_inproc_sq8() {
    run_churn_scenario(TransportKind::InProc, BlockRepr::Sq8);
}

#[test]
fn churn_tcp_f32() {
    run_churn_scenario(TransportKind::tcp(), BlockRepr::F32);
}

#[test]
fn churn_tcp_sq8() {
    run_churn_scenario(TransportKind::tcp(), BlockRepr::Sq8);
}
