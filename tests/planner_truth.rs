//! The planner's inputs against the engine they describe: the messages the
//! model counts are the messages the dispatch loop sends, the survivors it
//! samples are the survivors the workers count, a supervisor tick observes
//! its own window and nothing older, and every decision records what it saw.

use harmony::core::{CostModel, ReplanConfig, ReplanOutcome, WorkloadProfile};
use harmony::prelude::*;

fn clustered(n: usize, dim: usize, seed: u64) -> harmony::data::Dataset {
    SyntheticSpec::clustered(n, dim, 8)
        .with_seed(seed)
        .generate()
}

fn engine(base: &VectorStore, plan: PartitionPlan, repr: BlockRepr) -> HarmonyEngine {
    // balanced_load(false): blocks in natural order, the order the survival
    // sample scores dimension prefixes in.
    let config = HarmonyConfig::builder()
        .n_machines(4)
        .nlist(8)
        .seed(7)
        .plan(plan)
        .repr(repr)
        .balanced_load(false)
        // Ticks observe and hold: no window alone (ewma_alpha 1) may move
        // the pinned layout.
        .replan(ReplanConfig {
            min_window_queries: 8,
            ewma_alpha: 1.0,
            hysteresis: 0.99,
            ..ReplanConfig::default()
        })
        .build()
        .unwrap();
    HarmonyEngine::build(config, base).unwrap()
}

#[test]
fn model_counts_the_messages_the_dispatch_loop_sends() {
    let d = clustered(1_600, 16, 5);
    // Every query probes every list, so it visits every shard.
    let opts = SearchOptions::new(5).with_nprobe(8);
    let model = CostModel::new(NetworkModel::default(), 0.0);
    // (plan, batch, tolerance). One shard: a sub-batch stays together and
    // the count is exact. A batch too small to share a message: exact. Rows
    // of a real sub-batch part ways between shards by where each query's
    // probes lie — the model prices the expected parting, not this batch's.
    for (plan, batch, tolerance) in [
        (PartitionPlan::new(1, 4).unwrap(), 64, 0.01),
        (PartitionPlan::new(2, 2).unwrap(), 3, 0.01),
        (PartitionPlan::new(2, 2).unwrap(), 64, 0.05),
        (PartitionPlan::new(2, 2).unwrap(), 256, 0.05),
        (PartitionPlan::new(4, 1).unwrap(), 64, 0.05),
        (PartitionPlan::new(4, 1).unwrap(), 256, 0.05),
    ] {
        let engine = engine(&d.base, plan, BlockRepr::F32);
        let queries = d.base.gather(&(0..batch).collect::<Vec<_>>());
        let before = engine.cluster_snapshot();
        engine.search_batch(&queries, &opts).unwrap();
        let sent = engine.cluster_snapshot().delta(&before).total().msgs_tx;

        let profile = WorkloadProfile::uniform(engine.list_sizes(), 16, batch, opts.nprobe)
            .with_window(batch.min(engine.config().max_inflight));
        let counted = model
            .estimate_with_assignment(plan, &profile, &engine.assignment())
            .inputs
            .msgs_per_query;
        assert!(
            (counted * batch as f64 - sent as f64).abs() <= tolerance * sent as f64,
            "{}: the model counts {:.2} messages for {batch} queries, the engine sent {sent}",
            plan.label(),
            counted * batch as f64
        );
        engine.shutdown().unwrap();
    }
}

/// Searches `queries` one at a time and returns the candidates that
/// entered each pipeline position, as the workers counted them.
fn counted_entering(
    engine: &HarmonyEngine,
    queries: &VectorStore,
    opts: &SearchOptions,
) -> Vec<u64> {
    engine.reset_stats().unwrap();
    for q in 0..queries.len() {
        engine.search(queries.row(q), opts).unwrap();
    }
    let blocks = engine.plan().dim_blocks;
    engine.collect_stats().unwrap().slices.seen[..blocks].to_vec()
}

#[test]
fn sampled_survivors_are_the_survivors_workers_count() {
    let d = clustered(2_400, 32, 11);
    let queries = d.queries.gather(&(0..24).collect::<Vec<_>>());
    let opts = SearchOptions::new(10).with_nprobe(4);
    // Exact rows: the sample is the count, hop by hop — on one shard, where
    // the threshold is the prewarm's for the whole visit, and on two, where
    // the second visit starts from what the first one found.
    for plan in [
        PartitionPlan::new(1, 4).unwrap(),
        PartitionPlan::new(2, 2).unwrap(),
    ] {
        let engine = engine(&d.base, plan, BlockRepr::F32);
        let sampled = engine.sample_survivors(&queries, &opts, plan).unwrap();
        let counted = counted_entering(&engine, &queries, &opts);
        assert_eq!(sampled, counted, "f32 {}", plan.label());
        assert!(
            sampled[1] < sampled[0],
            "the sample must show pruning: {sampled:?}"
        );
        engine.shutdown().unwrap();
    }

    // SQ8: the sample quantizes the lists it cuts the way the build does and
    // runs them through the same scan, slack and all.
    let plan = PartitionPlan::new(1, 4).unwrap();
    let engine = engine(&d.base, plan, BlockRepr::Sq8);
    let sampled = engine.sample_survivors(&queries, &opts, plan).unwrap();
    let counted = counted_entering(&engine, &queries, &opts);
    assert_eq!(sampled, counted, "sq8 {}", plan.label());
    // A plan with more blocks than dimensions cannot be sampled.
    assert!(engine
        .sample_survivors(&queries, &opts, PartitionPlan::new(1, 64).unwrap())
        .is_err());
    engine.shutdown().unwrap();
}

#[test]
fn a_tick_observes_its_own_window() {
    let d = clustered(2_400, 32, 13);
    let plan = PartitionPlan::new(1, 4).unwrap();
    let engine = engine(&d.base, plan, BlockRepr::F32);
    let queries = d.base.gather(&(0..32).map(|i| i * 61).collect::<Vec<_>>());
    let survivors_seen = |outcome: ReplanOutcome| match outcome {
        // The incumbent layout is priced first.
        ReplanOutcome::Hold { candidates, .. } => candidates[0].inputs.survivors.clone(),
        ReplanOutcome::Switched(report) => report.candidates[0].inputs.survivors.clone(),
        ReplanOutcome::InsufficientData => panic!("the window holds 32 queries"),
    };
    let fractions =
        |seen: &[u64]| -> Vec<f64> { seen.iter().map(|&s| s as f64 / seen[0] as f64).collect() };

    // Window 1 probes every list: far lists prune at once. Window 2 probes
    // only the nearest list, whose rows mostly survive.
    engine
        .search_batch(&queries, &SearchOptions::new(10).with_nprobe(8))
        .unwrap();
    let first = survivors_seen(engine.supervisor_tick().unwrap());
    let lifetime1 = engine.collect_stats().unwrap().slices.seen;
    assert_eq!(first, fractions(&lifetime1[..4]));

    engine
        .search_batch(&queries, &SearchOptions::new(10).with_nprobe(1))
        .unwrap();
    let second = survivors_seen(engine.supervisor_tick().unwrap());
    let lifetime2 = engine.collect_stats().unwrap().slices.seen;
    let window: Vec<u64> = lifetime2
        .iter()
        .zip(&lifetime1)
        .map(|(b, a)| b - a)
        .collect();
    // ewma_alpha 1: the tick's view is the window alone — not the lifetime
    // totals, which still remember window 1.
    assert_eq!(second, fractions(&window[..4]));
    assert_ne!(second, fractions(&lifetime2[..4]));
    assert!(
        second[1] > first[1],
        "nearest-list traffic must survive better: {second:?} vs {first:?}"
    );
    engine.shutdown().unwrap();
}

#[test]
fn decisions_record_what_they_saw() {
    let d = clustered(2_000, 16, 3);
    let config = HarmonyConfig::builder()
        .n_machines(4)
        .nlist(8)
        .seed(7)
        .build()
        .unwrap();
    let engine = HarmonyEngine::build(config, &d.base).unwrap();
    let build = engine.build_stats();
    // Every factorization of four machines was priced, the chosen one among
    // them at the recorded cost, each with the inputs it was priced from.
    assert_eq!(build.candidates.len(), 3);
    let chosen = build
        .candidates
        .iter()
        .find(|c| c.plan == build.plan)
        .expect("the chosen plan is a candidate");
    assert_eq!(Some(chosen.cost), build.plan_cost);
    for c in &build.candidates {
        assert_eq!(c.inputs.survivors.len(), c.plan.dim_blocks);
        assert_eq!(c.inputs.survivors[0], 1.0);
        assert!(c.inputs.point_dim_ns > 0.0 && c.inputs.visit_ns > 0.0 && c.inputs.msg_ns > 0.0);
        assert!(c.inputs.msgs_per_query > 0.0 && c.cost.total_ns > 0.0);
        assert!(!format!("{c}").is_empty());
    }
    // A forced plan still records the table it did not follow.
    let forced = HarmonyConfig::builder()
        .n_machines(4)
        .nlist(8)
        .seed(7)
        .plan(PartitionPlan::pure_vector(4))
        .build()
        .unwrap();
    let forced = HarmonyEngine::build(forced, &d.base).unwrap();
    assert_eq!(forced.build_stats().candidates.len(), 3);
    assert!(forced.build_stats().plan_cost.is_none());
    forced.shutdown().unwrap();
    engine.shutdown().unwrap();
}
