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
//! list and tenant answers as before. Nothing the cold path installs
//! outlives what put it there: every stored byte the engine's stats count
//! and every part file return after a promotion, after the lists a query
//! faulted in are evicted, and after `EvictEpoch` takes a retired epoch
//! away; once the engine is down, its spill root is empty.

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

/// A fresh spill root for one engine of this process.
fn spill_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "harmony-cold-path-{}-{}",
        std::process::id(),
        tag.replace([' ', '/'], "")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Whatever is left under `dir`: files and directories alike.
fn leftovers(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    out.sort();
    out
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

/// Every file under `dir` that `keep` accepts, sorted (none if `dir` is
/// not there yet: workers make their directories on first spill).
fn find_files(dir: &Path, keep: &impl Fn(&Path) -> bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            find_files(&path, keep, out);
        } else if keep(&path) {
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
        let spill = spill_root(&repr.to_string());
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
        let named = |p: &Path| p.file_name().is_some_and(|n| n == "ns0-e0-s0.part");
        find_files(&spill, &named, &mut files);
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

/// What the workers store, as the engine's stats count it — resident
/// payload by representation, delta bytes, tombstones, cached and spilled
/// bytes — beside the sizes of the part files under the spill root.
fn storage(engine: &HarmonyEngine, spill: &Path) -> ([u64; 6], Vec<u64>) {
    let s = engine.collect_stats().unwrap();
    let mut files = Vec::new();
    find_files(
        spill,
        &|p| p.extension().is_some_and(|e| e == "part"),
        &mut files,
    );
    let mut sizes: Vec<u64> = files
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .collect();
    sizes.sort_unstable();
    let stats = [
        s.f32_block_bytes,
        s.sq8_block_bytes,
        s.delta_block_bytes,
        s.tombstone_entries,
        s.cache_block_bytes,
        s.spilled_block_bytes,
    ];
    (stats, sizes)
}

#[test]
fn every_stored_byte_and_part_file_returns_after_promote_evict_and_evict_epoch() {
    let d = dataset();
    let q = queries(&d, 7);
    let (p1, p2) = (
        PartitionPlan::new(2, 2).unwrap(),
        PartitionPlan::pure_vector(4),
    );
    for combo in matrix() {
        let what = label(&combo);
        let spill = spill_root(&what);
        let engine = build_engine(&d, &combo, 16 << 10, Some(spill.clone()));
        // A stats round trip orders every earlier message on every worker
        // before the part files are listed.
        let settled = || storage(&engine, &spill);
        let search = || {
            engine.search_batch(&q, &opts()).unwrap();
        };
        let tier = |t: Temperature| engine.set_namespace_tier(0, t).unwrap();

        let hot = settled();
        assert!(hot.1.is_empty(), "{what}: hot spills nothing");
        tier(Temperature::Cold);
        let cold = settled();
        assert_eq!(cold.1.len(), 4, "{what}: one part file per block");
        assert_eq!(cold.0[4], 0, "{what}: cold caches nothing");
        assert_eq!(
            cold.0[5],
            cold.1.iter().sum::<u64>(),
            "{what}: spilled bytes are the part files"
        );

        // Promote: faulted lists pinned, part files gone.
        search();
        assert!(settled().0[4] > 0, "{what}: the queries faulted lists in");
        tier(Temperature::Hot);
        assert_eq!(settled(), hot, "{what}: after promotion");

        // Evict: demoting a cold tenant again drops what it faulted.
        tier(Temperature::Cold);
        assert_eq!(settled(), cold, "{what}: demoted again");
        search();
        tier(Temperature::Cold);
        assert_eq!(settled(), cold, "{what}: after eviction");

        // EvictEpoch: away to another layout and back, each retired epoch
        // evicted once the batch after it drains. The epoch that is left is
        // a fresh cut of the same rows.
        for plan in [p2, p1] {
            engine.migrate_to(plan).unwrap();
            search();
            search();
        }
        tier(Temperature::Cold);
        assert_eq!(settled(), cold, "{what}: after the retired epochs left");

        engine.shutdown().unwrap();
        assert_eq!(
            leftovers(&spill),
            Vec::<PathBuf>::new(),
            "{what}: nothing outlives the engine"
        );
        let _ = std::fs::remove_dir_all(&spill);
    }
}

/// A dropped engine cleans up as a shut-down one does: the caller's spill
/// root stays, and nothing the engine wrote is left under it.
#[test]
fn a_dropped_engine_leaves_its_spill_root_empty() {
    let d = dataset();
    let q = queries(&d, 11);
    let spill = spill_root("dropped");
    let combo = (Metric::L2, BlockRepr::F32, TransportKind::InProc);
    let engine = build_engine(&d, &combo, 12 << 10, Some(spill.clone()));
    engine.set_namespace_tier(0, Temperature::Cold).unwrap();
    answers(&engine, 0, &q);
    assert!(!leftovers(&spill).is_empty(), "the cold tenant spilled");
    drop(engine);
    assert_eq!(leftovers(&spill), Vec::<PathBuf>::new());
    let _ = std::fs::remove_dir_all(&spill);
}
