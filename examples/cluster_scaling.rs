//! Scaling a deployment from 2 to 16 workers and watching the partition
//! plan, throughput, and per-node memory evolve — the operational view an
//! adopter cares about before provisioning a cluster (paper §6.5.2).
//!
//! ```sh
//! cargo run --release --example cluster_scaling
//! ```

use harmony::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = SyntheticSpec::clustered(40_000, 128, 64)
        .with_seed(5)
        .generate();
    println!(
        "dataset: {} vectors x {} dims\n",
        dataset.len(),
        dataset.dim()
    );
    let queries = dataset
        .queries
        .gather(&(0..128.min(dataset.queries.len())).collect::<Vec<_>>());
    let opts = SearchOptions::new(10).with_nprobe(16);

    println!(
        "{:>8} {:>10} {:>14} {:>16} {:>18}",
        "workers", "plan", "modeled QPS", "max node MiB", "bytes shipped MiB"
    );
    let mut decisions = Vec::new();
    for workers in [2, 4, 8, 16] {
        let config = HarmonyConfig::builder()
            .n_machines(workers)
            .nlist(200)
            .seed(3)
            .build()?;
        let engine = HarmonyEngine::build(config, &dataset.base)?;
        let batch = engine.search_batch(&queries, &opts)?;
        let stats = engine.collect_stats()?;
        println!(
            "{workers:>8} {:>10} {:>14.0} {:>16.1} {:>18.1}",
            engine.plan().label(),
            batch.qps_modeled(),
            stats.max_worker_memory_bytes() as f64 / (1024.0 * 1024.0),
            engine.build_stats().bytes_shipped as f64 / (1024.0 * 1024.0),
        );
        decisions.push((workers, engine.build_stats().candidates.clone()));
        engine.shutdown()?;
    }
    // What each build's planner chose from: the candidate grids, their
    // prices and the measured inputs behind them.
    for (workers, candidates) in decisions {
        println!(
            "\n{workers} workers\n{}",
            harmony::core::PlanEstimate::HEADER
        );
        for candidate in &candidates {
            println!("{candidate}");
        }
    }
    println!("\nper-node memory shrinks ~linearly with workers; the planner");
    println!("re-factorizes the grid as the machine count grows.");
    Ok(())
}
