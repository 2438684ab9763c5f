//! Adaptive replanning: the plan supervisor must detect workload drift
//! from live probe counters and switch layouts via live migration — while
//! concurrent search sessions lose no results, duplicate no results, and
//! stay bit-identical to serialized runs of the layouts they executed on.

use std::sync::atomic::{AtomicBool, Ordering};

use harmony::core::{EngineMode, ReplanConfig, ReplanOutcome};
use harmony::prelude::*;
use rand::prelude::*;

fn clustered(n: usize, dim: usize, seed: u64) -> harmony::data::Dataset {
    SyntheticSpec::clustered(n, dim, 8)
        .with_seed(seed)
        .generate()
}

/// Queries jittered around one centroid: with a small `nprobe` their probes
/// concentrate on a hot set smaller than the shard count, the adversarial
/// drift for vector partitioning (no rebalance can spread one hot list).
fn hot_queries(engine: &HarmonyEngine, cluster: usize, n: usize, seed: u64) -> VectorStore {
    let centroids = engine.centroids();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries = VectorStore::with_capacity(centroids.dim(), n);
    for i in 0..n {
        let mut q = centroids.row(cluster).to_vec();
        for x in q.iter_mut() {
            *x += rng.random_range(-0.01..0.01f32);
        }
        queries.push(i as u64, &q).expect("dims match");
    }
    queries
}

/// Exact per-query comparison helper: `got` must match one of the
/// per-epoch references bit-for-bit.
fn matches_bitwise(got: &[Neighbor], reference: &[Neighbor]) -> bool {
    got.len() == reference.len()
        && got
            .iter()
            .zip(reference)
            .all(|(a, b)| a.id == b.id && a.score.to_bits() == b.score.to_bits())
}

#[test]
fn supervisor_holds_on_a_fitting_plan_under_uniform_traffic() {
    let d = clustered(8_000, 32, 21);
    let config = HarmonyConfig::builder()
        .n_machines(4)
        .nlist(16)
        .mode(EngineMode::Harmony)
        .seed(7)
        .replan(ReplanConfig {
            min_window_queries: 32,
            amortize_windows: 200.0,
            ..ReplanConfig::default()
        })
        .build()
        .unwrap();
    let engine = HarmonyEngine::build(config, &d.base).unwrap();
    assert_eq!(engine.current_epoch(), 0);
    // The build already chose the cost-optimal plan for a uniform profile,
    // so observing uniform traffic must not trigger a migration.
    let opts = SearchOptions::new(10).with_nprobe(4);
    engine.search_batch(&d.queries, &opts).unwrap();
    match engine.supervisor_tick().unwrap() {
        ReplanOutcome::Hold {
            stay_ns, best_ns, ..
        } => assert!(best_ns >= 0.0 && stay_ns >= 0.0),
        ReplanOutcome::InsufficientData => {}
        other => panic!("uniform traffic must not trigger a switch, got {other:?}"),
    }
    assert_eq!(engine.current_epoch(), 0);
    engine.shutdown().unwrap();
}

#[test]
fn supervisor_switches_a_stale_plan_under_induced_skew() {
    // The ISSUE scenario: a deployment stuck on vector partitioning (the
    // right call for some earlier workload) meets a flash-sale drift whose
    // hot set is smaller than the shard count. No re-packing can spread
    // one hot list, so the supervisor must migrate to dimension blocks.
    // Sized so per-probe computation dominates per-message network cost
    // regardless of the host's calibrated kernel rate (1500-row lists,
    // 64-d vectors) — the paper's Figs. 6-7 regime.
    let d = clustered(24_000, 64, 21);
    let config = HarmonyConfig::builder()
        .n_machines(4)
        .nlist(16)
        .mode(EngineMode::HarmonyVector)
        .seed(7)
        .replan(ReplanConfig {
            min_window_queries: 32,
            amortize_windows: 200.0,
            ..ReplanConfig::default()
        })
        .build()
        .unwrap();
    let engine = HarmonyEngine::build(config, &d.base).unwrap();
    let stale_plan = engine.plan();
    assert_eq!(stale_plan, PartitionPlan::pure_vector(4));

    // Drift: every query hammers one cluster's neighborhood with nprobe 2.
    let hot = hot_queries(&engine, 3, 128, 99);
    let hot_opts = SearchOptions::new(10).with_nprobe(2);
    let stale = engine.search_batch(&hot, &hot_opts).unwrap();
    let outcome = engine.supervisor_tick().unwrap();
    let ReplanOutcome::Switched(report) = outcome else {
        panic!("induced skew must trigger a switch, got {outcome:?}");
    };
    assert_eq!(report.from_plan, stale_plan);
    assert!(
        report.to_plan.dim_blocks > 1,
        "a hot set smaller than the shard count needs dimension blocks, got {}",
        report.to_plan.label()
    );
    assert_eq!(engine.current_epoch(), report.to_epoch);
    assert_eq!(engine.plan(), report.to_plan);
    assert!(report.modeled_bytes > 0 && report.migration_ns > 0.0);
    assert!(report.projected_ns < report.stay_ns);

    // The replanned layout beats the stale one on the same drifted traffic
    // (modeled makespan QPS, the paper's Fig. 7 recovery).
    let recovered = engine.search_batch(&hot, &hot_opts).unwrap();
    assert!(
        recovered.qps_modeled() > stale.qps_modeled(),
        "replanning must recover throughput: stale {:.0} vs replanned {:.0}",
        stale.qps_modeled(),
        recovered.qps_modeled()
    );

    // A follow-up window of the same traffic holds: hysteresis prevents
    // flapping once the layout fits.
    engine.search_batch(&hot, &hot_opts).unwrap();
    match engine.supervisor_tick().unwrap() {
        ReplanOutcome::Hold { .. } | ReplanOutcome::InsufficientData => {}
        other => panic!("the replanned layout must be stable, got {other:?}"),
    }

    // Post-switch correctness: the migrated layout answers like a
    // single-node IVF with the same clustering.
    let opts = SearchOptions::new(10).with_nprobe(4);
    let mut ivf = IvfIndex::train(&d.base, &IvfParams::new(16).with_seed(7)).unwrap();
    ivf.add(&d.base).unwrap();
    for qi in 0..8 {
        let q = d.queries.row(qi);
        let got = engine.search(q, &opts).unwrap().neighbors;
        let want = ivf.search(q, 10, 4).unwrap();
        assert_eq!(got.len(), want.len());
        for (x, y) in got.iter().zip(&want) {
            if x.id != y.id {
                assert!(
                    (x.score - y.score).abs() <= 1e-3 * x.score.abs().max(1.0),
                    "post-migration results diverge: {x:?} vs {y:?}"
                );
            }
        }
    }
    engine.shutdown().unwrap();
}

#[test]
fn auto_replan_ticks_from_search_traffic() {
    let d = clustered(24_000, 64, 33);
    let config = HarmonyConfig::builder()
        .n_machines(4)
        .nlist(16)
        .mode(EngineMode::HarmonyVector)
        .seed(7)
        .replan(ReplanConfig {
            check_every: 64,
            min_window_queries: 32,
            amortize_windows: 200.0,
            ..ReplanConfig::default()
        })
        .build()
        .unwrap();
    let engine = HarmonyEngine::build(config, &d.base).unwrap();
    let hot = hot_queries(&engine, 5, 96, 123);
    let opts = SearchOptions::new(10).with_nprobe(2);
    // No manual ticks: batches alone must cross the check threshold and
    // drive the supervisor.
    for _ in 0..4 {
        engine.search_batch(&hot, &opts).unwrap();
    }
    assert!(
        engine.current_epoch() > 0,
        "auto supervision never replanned; plan still {}",
        engine.plan().label()
    );
    engine.shutdown().unwrap();
}

#[test]
fn live_migration_loses_and_duplicates_nothing_across_sessions() {
    let d = clustered(3_000, 24, 42);
    // balanced_load(false): deterministic dimension-order rotation, so
    // per-epoch results are bit-reproducible (the PR-2 contract). The plan
    // override pins epoch 0 to the row layout the test migrates back to.
    let config = HarmonyConfig::builder()
        .n_machines(4)
        .nlist(16)
        .seed(7)
        .balanced_load(false)
        .plan(PartitionPlan::pure_vector(4))
        .build()
        .unwrap();
    let engine = HarmonyEngine::build(config, &d.base).unwrap();
    let opts = SearchOptions::new(10).with_nprobe(4);
    let baseline_memory = engine.collect_stats().unwrap().total_memory_bytes();

    let batches: Vec<VectorStore> = (0..4)
        .map(|t| {
            let rows: Vec<usize> = (0..24).map(|i| (t * 131 + i * 17) % d.base.len()).collect();
            d.base.gather(&rows)
        })
        .collect();

    let grid = PartitionPlan::new(2, 2).unwrap();
    let row_plan = PartitionPlan::pure_vector(4);

    // Serialized per-epoch references: epoch 0 (4v x 1d) and the 2v x 2d
    // layout. Migrating back to 4v x 1d reproduces epoch 0 bit-for-bit
    // (same deterministic round-robin packing, same dimension ranges).
    let refs_row: Vec<_> = batches
        .iter()
        .map(|b| engine.search_batch(b, &opts).unwrap().results)
        .collect();
    engine.migrate_to(grid).unwrap();
    let refs_grid: Vec<_> = batches
        .iter()
        .map(|b| engine.search_batch(b, &opts).unwrap().results)
        .collect();
    engine.migrate_to(row_plan).unwrap();
    for (b, reference) in batches.iter().zip(&refs_row) {
        let again = engine.search_batch(b, &opts).unwrap().results;
        for (got, want) in again.iter().zip(reference) {
            assert!(
                matches_bitwise(got, want),
                "round-trip migration must restore bit-identical results"
            );
        }
    }

    // ≥ 4 concurrent sessions hammer the engine while the main thread
    // migrates back and forth between the layouts.
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for b in &batches {
            let engine = &engine;
            let opts = &opts;
            let stop = &stop;
            handles.push(s.spawn(move || {
                let mut rounds = 0usize;
                let mut last = Vec::new();
                while !stop.load(Ordering::Relaxed) || rounds < 3 {
                    let out = engine.search_batch(b, opts).unwrap();
                    // Zero loss: every query answers, fully.
                    assert_eq!(out.results.len(), b.len());
                    for r in &out.results {
                        assert_eq!(r.len(), opts.k, "query lost results mid-migration");
                        let mut ids: Vec<u64> = r.iter().map(|n| n.id).collect();
                        ids.sort_unstable();
                        ids.dedup();
                        assert_eq!(r.len(), ids.len(), "duplicated results mid-migration");
                    }
                    last = out.results;
                    rounds += 1;
                }
                (rounds, last)
            }));
        }
        for plan in [grid, row_plan, grid, row_plan] {
            let report = engine.migrate_to(plan).unwrap();
            assert_eq!(report.to_plan, plan);
        }
        stop.store(true, Ordering::Relaxed);
        for (t, h) in handles.into_iter().enumerate() {
            let (rounds, last) = h.join().unwrap();
            assert!(rounds >= 3);
            // Bit-identity: each query's answer matches one of the two
            // layouts' serialized references exactly.
            for (qi, got) in last.iter().enumerate() {
                let row_ref = &refs_row[t][qi];
                let grid_ref = &refs_grid[t][qi];
                assert!(
                    matches_bitwise(got, row_ref) || matches_bitwise(got, grid_ref),
                    "thread {t} query {qi}: result matches neither layout's \
                     serialized reference"
                );
            }
        }
    });

    // After the sessions drain, retired epochs are evicted at batch
    // completion: worker memory returns to roughly one layout's footprint,
    // not the sum of every epoch the test cycled through. (One more batch
    // guarantees a GC pass after the last in-flight Arc dropped.)
    engine.search_batch(&batches[0], &opts).unwrap();
    let collected = engine.collect_stats().unwrap().total_memory_bytes();
    assert!(
        collected < baseline_memory + baseline_memory / 2,
        "retired epochs must be evicted (baseline {baseline_memory}, now {collected} bytes)"
    );
    engine.shutdown().unwrap();
}

#[test]
fn same_plan_rebalance_migrates_cleanly() {
    let d = clustered(2_000, 16, 11);
    let config = HarmonyConfig::builder()
        .n_machines(4)
        .nlist(16)
        .seed(7)
        .build()
        .unwrap();
    let engine = HarmonyEngine::build(config, &d.base).unwrap();
    let opts = SearchOptions::new(5).with_nprobe(4);
    let before = engine.search_batch(&d.queries, &opts).unwrap().results;

    // Forcing the same plan re-packs the clusters and, where that moves
    // one, recuts the namespace through the full handshake (epoch bump,
    // blocks shipped, acks, swap); a packing it cannot improve is a no-op.
    let plan = engine.plan();
    let report = engine.migrate_to(plan).unwrap();
    assert_eq!(report.from_plan, report.to_plan);
    assert_eq!(engine.current_epoch(), report.to_epoch);

    let after = engine.search_batch(&d.queries, &opts).unwrap().results;
    for (a, b) in before.iter().zip(&after) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            if x.id != y.id {
                assert!(
                    (x.score - y.score).abs() <= 1e-4 * x.score.abs().max(1.0),
                    "rebalance changed results: {x:?} vs {y:?}"
                );
            }
        }
    }
    engine.shutdown().unwrap();
}

#[test]
fn migrate_to_rejects_misfit_plans() {
    let d = clustered(1_000, 8, 3);
    let config = HarmonyConfig::builder()
        .n_machines(4)
        .nlist(8)
        .seed(7)
        .build()
        .unwrap();
    let engine = HarmonyEngine::build(config, &d.base).unwrap();
    // Wrong machine count.
    assert!(engine
        .migrate_to(PartitionPlan::new(3, 1).unwrap())
        .is_err());
    // A fitting plan migrates fine even on an 8-d dataset.
    assert!(engine.migrate_to(PartitionPlan::new(1, 4).unwrap()).is_ok());
    engine.shutdown().unwrap();
}
