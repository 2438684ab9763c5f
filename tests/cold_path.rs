//! The cold path, list by list: a warm or cold block is a part file whose
//! lists fault in one by one — ahead of the hop when the client's
//! `Prefetch` arrives first, by the hop itself otherwise — through a cache
//! that may hold less than one block. None of that may show in an answer:
//! on {f32, SQ8} × {L2, inner product} × {in-process, TCP}, a cold tenant
//! answers bit for bit what it answers hot, even with a budget too small
//! for one block, and under two sessions whose prefetched lists are
//! evicted before their hops run. A prefetch names nothing a worker must
//! keep: one for an epoch it does not (or no longer) hold is ignored. And
//! a list that cannot be read back costs its sub-batch an empty, counted
//! answer — never a silently shorter candidate list — while every other
//! list and tenant answers as before. (The gauge and spill-file side lives
//! in `tests/cold_path_gauges.rs`, alone in its process.)

use std::path::{Path, PathBuf};
use std::time::Duration;

use harmony::cluster::{Cluster, ClusterConfig, Wire};
use harmony::core::messages::{ClusterBlock, LoadBlock, QueryChunk, SetTier, ToClient, ToWorker};
use harmony::core::{EngineStats, HarmonyWorker};
use harmony::index::kmeans::nearest_centroids;
use harmony::index::persist::read_part_directory;
use harmony::prelude::*;

const WORKERS: usize = 4;
const NLIST: usize = 16;
const NPROBE: usize = 6;

fn dataset() -> harmony::data::Dataset {
    SyntheticSpec::clustered(1_500, 32, 8)
        .with_seed(97)
        .generate()
}

/// Plan pinned and `balanced_load(false)`: answers are a function of the
/// layout alone, so hot and cold compare bit for bit.
fn build_engine(
    d: &harmony::data::Dataset,
    (metric, repr, transport): &(Metric, BlockRepr, TransportKind),
    cache_budget: usize,
    spill_dir: Option<PathBuf>,
) -> HarmonyEngine {
    let mut config = HarmonyConfig::builder()
        .n_machines(WORKERS)
        .nlist(NLIST)
        .seed(5)
        .metric(*metric)
        .repr(*repr)
        .transport(transport.clone())
        .plan(PartitionPlan::new(2, 2).unwrap())
        .balanced_load(false)
        .cache_budget_bytes(cache_budget);
    if let Some(dir) = spill_dir {
        config = config.spill_dir(dir);
    }
    HarmonyEngine::build(config.build().unwrap(), &d.base).unwrap()
}

/// Every combination the suite runs.
fn matrix() -> Vec<(Metric, BlockRepr, TransportKind)> {
    let mut all = Vec::new();
    for transport in [TransportKind::InProc, TransportKind::tcp()] {
        for repr in [BlockRepr::F32, BlockRepr::Sq8] {
            for metric in [Metric::L2, Metric::InnerProduct] {
                all.push((metric, repr, transport.clone()));
            }
        }
    }
    all
}

fn label((metric, repr, transport): &(Metric, BlockRepr, TransportKind)) -> String {
    format!("{metric:?} / {repr} / {}", transport.label())
}

fn queries(d: &harmony::data::Dataset, offset: usize) -> VectorStore {
    let rows: Vec<usize> = (0..32).map(|i| (offset + i * 41) % d.base.len()).collect();
    d.base.gather(&rows)
}

fn opts() -> SearchOptions {
    SearchOptions::new(10).with_nprobe(NPROBE)
}

fn bits(results: &[Vec<Neighbor>]) -> Vec<Vec<(u64, u32)>> {
    results
        .iter()
        .map(|r| r.iter().map(|n| (n.id, n.score.to_bits())).collect())
        .collect()
}

fn answers(engine: &HarmonyEngine, ns: u16, q: &VectorStore) -> Vec<Vec<(u64, u32)>> {
    bits(&engine.search_batch_ns(ns, q, &opts()).unwrap().results)
}

/// A block of this corpus on one machine is ≈ 750 rows × 16 dims: 48 KiB
/// of f32 rows, ≈ 21 KiB of SQ8 codes and ids. Twelve KiB holds neither.
#[test]
fn a_cold_tenant_under_a_budget_below_one_block_answers_as_it_does_hot() {
    const BUDGET: usize = 12 << 10;
    let d = dataset();
    let q = queries(&d, 3);
    for combo in matrix() {
        let what = label(&combo);
        let engine = build_engine(&d, &combo, BUDGET, None);
        let hot = answers(&engine, 0, &q);
        engine.set_namespace_tier(0, Temperature::Cold).unwrap();
        engine.reset_stats().unwrap();
        let cold = answers(&engine, 0, &q);
        assert_eq!(cold, hot, "{what}: cold answers");
        let stats = engine.collect_stats().unwrap();
        assert!(
            stats.cache_misses > 0 && stats.fault_bytes > 0,
            "{what}: faults"
        );
        assert!(
            stats.cache_hits > 0,
            "{what}: a prefetched list is a hit for its hop"
        );
        assert_eq!(stats.spill_read_errors, 0, "{what}");
        assert!(
            stats.cache_block_bytes as usize <= WORKERS * BUDGET,
            "{what}: {} cached bytes over the budget",
            stats.cache_block_bytes
        );
        // Warm keeps what it faulted; back to hot, everything is pinned.
        engine.set_namespace_tier(0, Temperature::Warm).unwrap();
        assert_eq!(answers(&engine, 0, &q), hot, "{what}: warm answers");
        engine.set_namespace_tier(0, Temperature::Hot).unwrap();
        assert_eq!(answers(&engine, 0, &q), hot, "{what}: promoted answers");
        let stats = engine.collect_stats().unwrap();
        assert_eq!(
            (stats.spilled_block_bytes, stats.cache_block_bytes),
            (0, 0),
            "{what}: promoted"
        );
        engine.shutdown().unwrap();
    }
}

/// About one f32 list (≈ 94 rows × 72 B) or two SQ8 lists: whatever one
/// session's prefetch faults in, the other session's — and its own next
/// fault — pushes out before the hop that wanted it runs, so hops re-fault
/// and hold their lists past the budget until they are done.
#[test]
fn two_sessions_on_a_one_list_budget_answer_as_they_do_hot() {
    const BUDGET: usize = 6 << 10;
    let d = dataset();
    let batches = [queries(&d, 5), queries(&d, 700)];
    for combo in matrix() {
        let what = label(&combo);
        let engine = build_engine(&d, &combo, BUDGET, None);
        let hot: Vec<_> = batches.iter().map(|q| answers(&engine, 0, q)).collect();
        engine.set_namespace_tier(0, Temperature::Cold).unwrap();
        for round in 0..2 {
            let cold: Vec<_> = std::thread::scope(|s| {
                let sessions: Vec<_> = batches
                    .iter()
                    .map(|q| s.spawn(|| answers(&engine, 0, q)))
                    .collect();
                sessions.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(cold, hot, "{what}: round {round}");
        }
        let stats = engine.collect_stats().unwrap();
        assert!(
            stats.cache_block_bytes as usize <= WORKERS * BUDGET,
            "{what}"
        );
        assert_eq!(stats.spill_read_errors, 0, "{what}");
        engine.shutdown().unwrap();
    }
}

const NS: u16 = 2;

fn load(epoch: u64) -> ToWorker {
    ToWorker::Load(LoadBlock {
        ns: NS,
        epoch,
        shard: 0,
        dim_block: 0,
        dim_start: 0,
        dim_end: 2,
        total_dim_blocks: 1,
        metric: 0,
        pruning: true,
        repr: 0,
        lists: (0..3u32)
            .map(|c| ClusterBlock {
                cluster: c,
                ids: vec![100 * u64::from(c), 100 * u64::from(c) + 1],
                flat: vec![c as f32, 0.0, 0.0, c as f32],
                segs: vec![],
                block_norms_sq: vec![],
                total_norms_sq: vec![],
            })
            .collect(),
    })
}

fn prefetch(epoch: u64, shard: u32) -> ToWorker {
    ToWorker::Prefetch {
        ns: NS,
        epoch,
        shard,
        clusters: vec![0, 1, 2],
    }
}

fn recv(cluster: &mut Cluster) -> ToClient {
    let (_, payload) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
    ToClient::from_bytes(payload).unwrap()
}

/// The next message must be the stats reply: a prefetch answers nothing.
fn stats(cluster: &mut Cluster) -> harmony::core::messages::StatsReport {
    cluster.send(0, ToWorker::GetStats.to_bytes()).unwrap();
    match recv(cluster) {
        ToClient::Stats(s) => s,
        other => panic!("a prefetch answered: {other:?}"),
    }
}

#[test]
fn a_prefetch_for_an_epoch_the_worker_does_not_hold_is_ignored() {
    for transport in [TransportKind::InProc, TransportKind::tcp()] {
        let config = ClusterConfig {
            transport,
            ..ClusterConfig::new(1)
        };
        let mut cluster = Cluster::spawn(config, |_| HarmonyWorker::new());
        let send = |cluster: &Cluster, msg: ToWorker| cluster.send(0, msg.to_bytes()).unwrap();
        send(&cluster, load(3));
        assert_eq!(
            recv(&mut cluster),
            ToClient::EpochReady { ns: NS, epoch: 3 }
        );

        // Hot: a prefetch has nothing to fault.
        send(&cluster, prefetch(3, 0));
        let hot = stats(&mut cluster);
        assert_eq!((hot.cache_hits, hot.cache_misses), (0, 0));

        let cold = SetTier {
            ns: NS,
            temperature: Temperature::Cold.encode(),
        };
        send(&cluster, ToWorker::SetTier(cold));
        assert_eq!(recv(&mut cluster), ToClient::TierAck { ns: NS });
        let before = stats(&mut cluster);
        // An epoch never loaded, a shard not hosted, a namespace unknown.
        send(&cluster, prefetch(4, 0));
        send(&cluster, prefetch(3, 7));
        send(
            &cluster,
            ToWorker::Prefetch {
                ns: NS + 1,
                epoch: 3,
                shard: 0,
                clusters: vec![0],
            },
        );
        assert_eq!(stats(&mut cluster), before, "nothing faulted");

        // The held epoch's prefetch faults; after its eviction, nothing.
        send(&cluster, prefetch(3, 0));
        let fetched = stats(&mut cluster);
        assert_eq!(fetched.cache_misses, 3);
        assert!(fetched.cache_block_bytes > 0);
        send(&cluster, ToWorker::EvictEpoch { ns: NS, epoch: 3 });
        send(&cluster, prefetch(3, 0));
        let evicted = stats(&mut cluster);
        assert_eq!(evicted.cache_misses, 3, "an evicted epoch faults nothing");
        assert_eq!(
            (
                evicted.memory_bytes,
                evicted.cache_block_bytes,
                evicted.spilled_block_bytes
            ),
            (0, 0, 0)
        );

        // The worker still serves: a reloaded epoch answers a query.
        send(&cluster, load(5));
        assert_eq!(
            recv(&mut cluster),
            ToClient::EpochReady { ns: NS, epoch: 5 }
        );
        let chunk = QueryChunk {
            ns: NS,
            query_id: 1,
            epoch: 5,
            shard: 0,
            k: 2,
            threshold: f32::INFINITY,
            clusters: vec![1, 2],
            dims: vec![1.0, 0.0],
            q_total_norm_sq: 0.0,
            order: vec![0],
            position: 0,
            delta_seq: 0,
        };
        send(&cluster, ToWorker::Chunk(chunk));
        match recv(&mut cluster) {
            ToClient::Result(r) => assert_eq!(r.ids, vec![100, 200]),
            other => panic!("expected a result, got {other:?}"),
        }
        cluster.shutdown().unwrap();
    }
}

/// Every file under `dir` named `name`, sorted.
fn find_files(dir: &Path, name: &str, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            find_files(&path, name, out);
        } else if path.file_name().is_some_and(|n| n == name) {
            out.push(path);
        }
    }
    out.sort();
}

/// One list's bytes flipped in one machine's part file: the one sub-batch
/// that probes it is answered emptily there and counted once; every query
/// that does not probe it, and another tenant, answer as they do hot.
#[test]
fn an_unreadable_list_costs_its_sub_batch_a_counted_empty_answer_and_nothing_else() {
    let d = dataset();
    let tenant = SyntheticSpec::clustered(600, 32, 4)
        .with_seed(98)
        .generate();
    for repr in [BlockRepr::F32, BlockRepr::Sq8] {
        let spill =
            std::env::temp_dir().join(format!("harmony-cold-path-{}-{}", std::process::id(), repr));
        let combo = (Metric::L2, repr, TransportKind::InProc);
        let engine = build_engine(&d, &combo, 64 << 10, Some(spill.clone()));
        let ns1 = engine
            .create_namespace(&NamespaceConfig::default().with_nlist(8), &tenant.base)
            .unwrap();
        let single =
            |ns: u16, q: &[f32]| bits(&[engine.search_ns(ns, q, &opts()).unwrap().neighbors]);
        let probes: Vec<Vec<u32>> = (0..d.base.len())
            .step_by(7)
            .map(|r| nearest_centroids(d.base.row(r), engine.centroids(), NPROBE))
            .collect();
        let hot0: Vec<_> = (0..probes.len())
            .map(|i| single(0, d.base.row(i * 7)))
            .collect();
        let hot1: Vec<_> = (0..40)
            .map(|r| single(ns1, tenant.base.row(r * 13)))
            .collect();
        for ns in [0, ns1] {
            engine.set_namespace_tier(ns, Temperature::Cold).unwrap();
        }

        // Shard 0's block of namespace 0 on the first machine of its row.
        let mut files = Vec::new();
        find_files(&spill, "ns0-e0-s0.part", &mut files);
        assert_eq!(files.len(), 2, "one part file per machine of the row");
        let dir = read_part_directory(&files[0]).unwrap();
        let bad = *dir.entries().iter().find(|e| e.rows > 0).unwrap();
        let mut bytes = std::fs::read(&files[0]).unwrap();
        bytes[(bad.offset + bad.len / 2) as usize] ^= 0x20;
        std::fs::write(&files[0], &bytes).unwrap();
        engine.reset_stats().unwrap();

        let probes_bad = |i: usize| probes[i].contains(&bad.cluster);
        let first_bad = (0..probes.len()).find(|&i| probes_bad(i)).unwrap();
        let _ = single(0, d.base.row(first_bad * 7));
        assert_eq!(
            engine.collect_stats().unwrap().spill_read_errors,
            1,
            "{repr}: the one sub-batch probing the list"
        );
        for i in (0..probes.len()).filter(|&i| !probes_bad(i)) {
            assert_eq!(single(0, d.base.row(i * 7)), hot0[i], "{repr}: query {i}");
        }
        for (r, want) in hot1.iter().enumerate() {
            assert_eq!(
                &single(ns1, tenant.base.row(r * 13)),
                want,
                "{repr}: tenant {r}"
            );
        }
        let stats: EngineStats = engine.collect_stats().unwrap();
        assert_eq!(stats.spill_read_errors, 1, "{repr}: nothing else failed");
        assert!(stats.cache_misses > 0);
        engine.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&spill);
    }
}
