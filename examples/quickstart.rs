//! Quickstart: build a 4-worker Harmony deployment over synthetic data and
//! run a few searches.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use harmony::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 20k random 64-dimensional vectors in 32 clusters, plus a query set.
    let dataset = SyntheticSpec::clustered(20_000, 64, 32)
        .with_seed(42)
        .generate();
    println!(
        "dataset: {} vectors x {} dims, {} queries",
        dataset.len(),
        dataset.dim(),
        dataset.queries.len()
    );

    // A 4-machine deployment; the cost model picks the partition grid.
    let config = HarmonyConfig::builder().n_machines(4).nlist(128).build()?;
    let engine = HarmonyEngine::build(config, &dataset.base)?;
    println!(
        "built: plan {}, train {:?}, add {:?}, pre-assign {:?}",
        engine.plan().label(),
        engine.build_stats().train,
        engine.build_stats().add,
        engine.build_stats().preassign,
    );
    // What the planner saw when it chose: every candidate plan's price and
    // the measured inputs behind it (scan rates, survivors per hop, messages).
    println!("{}", harmony::core::PlanEstimate::HEADER);
    for candidate in &engine.build_stats().candidates {
        println!("{candidate}");
    }

    // Single query.
    let opts = SearchOptions::new(10).with_nprobe(16);
    let result = engine.search(dataset.queries.row(0), &opts)?;
    println!("\ntop-10 for query 0:");
    for n in &result.neighbors {
        println!("  id {:>6}  distance² {:.4}", n.id, n.score);
    }

    // Batch of 100 queries with recall scoring.
    let queries = dataset.base.gather(&(0..100).collect::<Vec<_>>());
    let batch = engine.search_batch(&queries, &opts)?;
    let self_hits = batch
        .results
        .iter()
        .enumerate()
        .filter(|(i, r)| r.first().is_some_and(|n| n.id == *i as u64))
        .count();
    println!(
        "\nbatch: {} queries, {self_hits}/100 found themselves first, \
         modeled {:.0} QPS (wall {:.0} QPS)",
        batch.results.len(),
        batch.qps_modeled(),
        batch.qps_wall(),
    );

    // How much work did pruning save?
    let stats = engine.collect_stats()?;
    println!(
        "pruning: cumulative per-slice ratios {:?} %, {:.1}% of scan work skipped",
        stats
            .slices
            .cumulative_ratios()
            .iter()
            .map(|r| (*r * 10.0).round() / 10.0)
            .collect::<Vec<_>>(),
        stats.slices.work_saved_percent(),
    );

    engine.shutdown()?;
    Ok(())
}
