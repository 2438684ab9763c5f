//! Nothing the cold path installs outlives what put it there: on {f32,
//! SQ8} × {L2, inner product} × {in-process, TCP}, every `mem::*` gauge
//! and every part file returns to its prior value after a promotion, after
//! the lists a query faulted in are evicted, and after `EvictEpoch` takes
//! a retired epoch away.
//!
//! The gauges are process-wide statics, so this file holds exactly one
//! test: alone in its process, it can compare them exactly.

use std::path::Path;

use harmony::cluster::mem;
use harmony::prelude::*;

fn gauges() -> [usize; 6] {
    [
        mem::f32_block_bytes(),
        mem::sq8_block_bytes(),
        mem::delta_block_bytes(),
        mem::tombstone_entries(),
        mem::cache_block_bytes(),
        mem::spilled_block_bytes(),
    ]
}

/// Sizes of every part file under `dir`, sorted.
fn part_files(dir: &Path) -> Vec<u64> {
    let mut sizes = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "part") {
                sizes.push(std::fs::metadata(&path).unwrap().len());
            }
        }
    }
    sizes.sort_unstable();
    sizes
}

#[test]
fn every_gauge_and_part_file_returns_after_promote_evict_and_evict_epoch() {
    let d = SyntheticSpec::clustered(1_200, 24, 8)
        .with_seed(31)
        .generate();
    let rows: Vec<usize> = (0..48).map(|i| (i * 29) % d.base.len()).collect();
    let q = d.base.gather(&rows);
    let opts = SearchOptions::new(10).with_nprobe(6);
    let (p1, p2) = (
        PartitionPlan::new(2, 2).unwrap(),
        PartitionPlan::pure_vector(4),
    );
    let idle = gauges();
    for transport in [TransportKind::InProc, TransportKind::tcp()] {
        for repr in [BlockRepr::F32, BlockRepr::Sq8] {
            for metric in [Metric::L2, Metric::InnerProduct] {
                let what = format!("{metric:?} / {repr} / {}", transport.label());
                let spill = std::env::temp_dir().join(format!(
                    "harmony-cold-gauges-{}-{}",
                    std::process::id(),
                    what.replace([' ', '/'], "")
                ));
                let config = HarmonyConfig::builder()
                    .n_machines(4)
                    .nlist(16)
                    .seed(3)
                    .metric(metric)
                    .repr(repr)
                    .transport(transport.clone())
                    .plan(p1)
                    .balanced_load(false)
                    .cache_budget_bytes(16 << 10)
                    .spill_dir(spill.clone())
                    .build()
                    .unwrap();
                let engine = HarmonyEngine::build(config, &d.base).unwrap();
                // A stats round trip orders every earlier message on every
                // worker before the gauges are read.
                let settled = || {
                    engine.collect_stats().unwrap();
                    (gauges(), part_files(&spill))
                };
                let search = || {
                    engine.search_batch(&q, &opts).unwrap();
                };
                let tier = |t: Temperature| engine.set_namespace_tier(0, t).unwrap();

                let hot = settled();
                assert!(hot.1.is_empty(), "{what}: hot spills nothing");
                tier(Temperature::Cold);
                let cold = settled();
                assert_eq!(cold.1.len(), 4, "{what}: one part file per block");
                assert_eq!(cold.0[4], 0, "{what}: cold caches nothing");

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

                // EvictEpoch: away to another layout and back, each retired
                // epoch evicted once the batch after it drains. The epoch
                // that is left is a fresh cut of the same rows.
                for plan in [p2, p1] {
                    engine.migrate_to(plan).unwrap();
                    search();
                    search();
                }
                tier(Temperature::Cold);
                assert_eq!(settled(), cold, "{what}: after the retired epochs left");

                engine.shutdown().unwrap();
                assert_eq!(gauges(), idle, "{what}: nothing outlives the engine");
                assert!(part_files(&spill).is_empty(), "{what}");
                let _ = std::fs::remove_dir_all(&spill);
            }
        }
    }
}
