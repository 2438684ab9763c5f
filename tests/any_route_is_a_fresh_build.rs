//! Any route to a layout is a fresh build of it. Every epoch — the build's,
//! a compaction's, a migration's — is cut by the client from its exact copy
//! of the rows and shipped block by block through one function, so an
//! engine that was *migrated* onto a layout holds, bit for bit, what an
//! engine *built* at that layout and compacted over the same writes holds:
//! same answers (ids and score bits), nothing left pending, the same block
//! bytes on the workers. And a demoted namespace stays demoted across both
//! kinds of epoch change, its retired epochs taking their spill files and
//! cache entries along.

use harmony::core::EngineStats;
use harmony::prelude::*;

const WORKERS: usize = 4;

fn dataset() -> harmony::data::Dataset {
    SyntheticSpec::clustered(1_200, 24, 8)
        .with_seed(73)
        .generate()
}

/// Both plans pinned and `balanced_load(false)`: packing and dispatch are
/// functions of the layout alone, so two engines compare bit for bit.
fn build_engine(
    d: &harmony::data::Dataset,
    plan: PartitionPlan,
    metric: Metric,
    repr: BlockRepr,
    transport: &TransportKind,
) -> HarmonyEngine {
    let config = HarmonyConfig::builder()
        .n_machines(WORKERS)
        .nlist(16)
        .seed(7)
        .metric(metric)
        .repr(repr)
        .transport(transport.clone())
        .plan(plan)
        .balanced_load(false)
        .build()
        .unwrap();
    HarmonyEngine::build(config, &d.base).unwrap()
}

/// Fresh rows, overwritten rows, deleted rows and a delete taken back —
/// the same writes for every engine of a comparison. `round` keeps the ids
/// of two rounds apart.
fn write(engine: &HarmonyEngine, d: &harmony::data::Dataset, round: u64) {
    let nudged = |row: usize, by: f32| -> Vec<f32> {
        let v = d.base.row(row % d.base.len());
        v.iter().map(|x| x + by).collect()
    };
    for i in 0..24u64 {
        let id = 50_000 + round * 100 + i;
        engine.upsert(id, &nudged(i as usize * 37, 0.03)).unwrap();
    }
    for i in 0..12u64 {
        let id = round * 200 + i * 3;
        engine.upsert(id, &nudged(id as usize, -0.02)).unwrap();
    }
    for i in 0..12u64 {
        assert!(engine.delete(round * 200 + 100 + i).unwrap());
    }
    let back = round * 200 + 100;
    engine.upsert(back, &nudged(back as usize, 0.01)).unwrap();
}

fn queries(d: &harmony::data::Dataset) -> VectorStore {
    let rows: Vec<usize> = (0..48).map(|i| (i * 23) % d.base.len()).collect();
    d.base.gather(&rows)
}

fn assert_same_answers(a: &[Vec<Neighbor>], b: &[Vec<Neighbor>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: batch sizes differ");
    for (qi, (ra, rb)) in a.iter().zip(b).enumerate() {
        let bits = |r: &[Neighbor]| -> Vec<(u64, u32)> {
            r.iter().map(|n| (n.id, n.score.to_bits())).collect()
        };
        assert_eq!(bits(ra), bits(rb), "{what}: query {qi}");
    }
}

/// Answers twice over (the second batch's completion evicts whatever the
/// first left retired), then the workers' counters.
fn settle(engine: &HarmonyEngine, q: &VectorStore) -> (Vec<Vec<Neighbor>>, EngineStats) {
    let opts = SearchOptions::new(10).with_nprobe(6);
    let first = engine.search_batch(q, &opts).unwrap().results;
    let again = engine.search_batch(q, &opts).unwrap().results;
    assert_same_answers(&first, &again, "same engine, same epoch");
    (first, engine.collect_stats().unwrap())
}

fn migrated_equals_built(metric: Metric, repr: BlockRepr, transport: TransportKind) {
    let what = format!("{metric:?} / {repr} / {}", transport.label());
    let d = dataset();
    let q = queries(&d);
    let p1 = PartitionPlan::pure_vector(WORKERS);
    let p2 = PartitionPlan::new(2, 2).unwrap();

    let built = build_engine(&d, p2, metric, repr, &transport);
    let migrated = build_engine(&d, p1, metric, repr, &transport);
    write(&built, &d, 0);
    write(&migrated, &d, 0);
    assert!(migrated.pending_deltas() > 0 && migrated.tombstone_count() > 0);

    let compaction = built.compact().unwrap();
    let migration = migrated.migrate_to(p2).unwrap();
    assert_eq!(migration.to_epoch, compaction.epoch, "{what}");
    assert_eq!(migrated.plan(), p2);
    assert_eq!(migrated.assignment(), built.assignment(), "{what}");
    assert_eq!(migrated.list_sizes(), built.list_sizes(), "{what}");

    // The migration folded what the compaction folded.
    for engine in [&built, &migrated] {
        assert_eq!(engine.pending_deltas(), 0, "{what}");
        assert_eq!(engine.tombstone_count(), 0, "{what}");
    }
    let (built_answers, built_stats) = settle(&built, &q);
    let (migrated_answers, migrated_stats) = settle(&migrated, &q);
    assert_same_answers(&migrated_answers, &built_answers, &what);
    let block_bytes = |s: &EngineStats| (s.f32_block_bytes, s.sq8_block_bytes);
    assert_eq!(
        block_bytes(&migrated_stats),
        block_bytes(&built_stats),
        "{what}"
    );
    let unfolded = |s: &EngineStats| (s.delta_rows, s.tombstone_entries);
    assert_eq!(unfolded(&migrated_stats), (0, 0), "{what}");
    assert_eq!(unfolded(&built_stats), (0, 0), "{what}");
    built.shutdown().unwrap();
    migrated.shutdown().unwrap();
}

#[test]
fn migrated_equals_built_f32_inproc() {
    migrated_equals_built(Metric::L2, BlockRepr::F32, TransportKind::InProc);
    migrated_equals_built(Metric::InnerProduct, BlockRepr::F32, TransportKind::InProc);
}

#[test]
fn migrated_equals_built_sq8_inproc() {
    migrated_equals_built(Metric::L2, BlockRepr::Sq8, TransportKind::InProc);
    migrated_equals_built(Metric::InnerProduct, BlockRepr::Sq8, TransportKind::InProc);
}

#[test]
fn migrated_equals_built_f32_tcp() {
    migrated_equals_built(Metric::L2, BlockRepr::F32, TransportKind::tcp());
    migrated_equals_built(Metric::InnerProduct, BlockRepr::F32, TransportKind::tcp());
}

#[test]
fn migrated_equals_built_sq8_tcp() {
    migrated_equals_built(Metric::L2, BlockRepr::Sq8, TransportKind::tcp());
    migrated_equals_built(Metric::InnerProduct, BlockRepr::Sq8, TransportKind::tcp());
}

/// The tier comment's promise: a block a demoted namespace receives takes
/// the namespace's tier as it installs, whichever epoch change sent it.
#[test]
fn a_cold_namespace_stays_cold_across_migration_and_compaction() {
    let d = dataset();
    let q = queries(&d);
    let p1 = PartitionPlan::pure_vector(WORKERS);
    let p2 = PartitionPlan::new(2, 2).unwrap();
    let build = || build_engine(&d, p1, Metric::L2, BlockRepr::F32, &TransportKind::InProc);
    let (hot, cold) = (build(), build());
    cold.set_namespace_tier(0, Temperature::Cold).unwrap();

    for engine in [&hot, &cold] {
        write(engine, &d, 0);
        engine.migrate_to(p2).unwrap();
    }
    let (hot_answers, _) = settle(&hot, &q);
    let (cold_answers, cold_stats) = settle(&cold, &q);
    assert_same_answers(&cold_answers, &hot_answers, "after the migration");
    assert!(cold_stats.spilled_block_bytes > 0);

    for engine in [&hot, &cold] {
        write(engine, &d, 1);
        assert!(!engine.compact().unwrap().noop);
    }
    let (hot_answers, hot_stats) = settle(&hot, &q);
    let (cold_answers, cold_stats) = settle(&cold, &q);
    assert_same_answers(&cold_answers, &hot_answers, "after the compaction");
    assert_eq!(cold.namespace_tier(0).unwrap(), Temperature::Cold);
    assert_eq!(
        (hot_stats.spilled_block_bytes, hot_stats.cache_block_bytes),
        (0, 0)
    );

    // Three epochs went by; what the cold engine keeps on disk and in its
    // cache is the live one's alone — exactly what the hot engine, holding
    // the same epoch, spills and faults when it is demoted now.
    hot.set_namespace_tier(0, Temperature::Cold).unwrap();
    let (demoted_answers, demoted_stats) = settle(&hot, &q);
    assert_same_answers(&demoted_answers, &cold_answers, "demoted at the end");
    let on_disk_and_cached = |s: &EngineStats| (s.spilled_block_bytes, s.cache_block_bytes);
    assert_eq!(
        on_disk_and_cached(&cold_stats),
        on_disk_and_cached(&demoted_stats)
    );
    assert!(cold_stats.cache_block_bytes <= cold_stats.f32_block_bytes);
    hot.shutdown().unwrap();
    cold.shutdown().unwrap();
}
