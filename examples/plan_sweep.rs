//! Does the cost model rank partition plans the way the wall clock does?
//!
//! For corpora with the shapes of the four `perf/` workloads (the same
//! `SyntheticSpec::clustered` parameters, representation, transport,
//! `nprobe` and batch size; read traffic only — `churn_mixed` without its
//! writer) this builds one engine per factorization of four machines,
//! forced through `plan_override`, plus one default-mode engine that lets
//! the planner choose, runs identical batches on each, and prints per plan
//! what the planner predicted beside what happened: wall time per query,
//! worker scan time per query against `first · hop-0 visits + carried ·
//! later visits` at the per-hop times the default engine measured (printed
//! beside it), messages and survivors per hop
//! against the counts the model priced. Then the Spearman rank correlation
//! of predicted cost and observed wall time over the forced plans, and the
//! regret of the plan the planner chose. It is also the repo's wall-clock
//! parallel-layout curve (Fig. 11b's axis).
//!
//! ```sh
//! cargo run --release --example plan_sweep                  # all four shapes
//! cargo run --release --example plan_sweep -- --smoke       # corpora ÷ 10
//! cargo run --release --example plan_sweep -- hops_skew_tcp # one shape
//! ```
//!
//! The exit code is non-zero on an engine error or a wrong answer (recall
//! against a brute-force oracle below the shape's floor), never on a timing.

use std::time::Instant;

use harmony::core::PlanEstimate;
use harmony::prelude::*;

/// The same corpus for every run, as in `perf/` (`CORPUS_SEED`).
const CORPUS_SEED: u64 = 0x00C0_2B05;
const K: usize = 10;
const MACHINES: usize = 4;
/// Queries scored against the oracle, per engine.
const SCORED: usize = 64;
/// Measured windows per engine, after one warm-up window.
const WINDOWS: usize = 5;

#[derive(Clone)]
struct Shape {
    name: &'static str,
    n: usize,
    dim: usize,
    components: usize,
    nlist: usize,
    nprobe: usize,
    repr: BlockRepr,
    tcp: bool,
    skew: WorkloadSpec,
    batch: usize,
    batches_per_window: usize,
    /// Namespaces; all but the first are demoted to `Cold`.
    tenants: usize,
    cache_budget_bytes: Option<usize>,
    recall_floor: f64,
}

fn shapes(smoke: bool) -> Vec<Shape> {
    let base = Shape {
        name: "",
        n: 0,
        dim: 0,
        components: 0,
        nlist: 0,
        nprobe: 0,
        repr: BlockRepr::F32,
        tcp: false,
        skew: WorkloadSpec::Uniform,
        batch: 0,
        batches_per_window: 1,
        tenants: 1,
        cache_budget_bytes: None,
        recall_floor: 0.93,
    };
    let mut shapes = vec![
        Shape {
            name: "scan_uniform",
            n: 100_000,
            dim: 128,
            components: 32,
            nlist: 128,
            nprobe: 32,
            batch: 1000,
            recall_floor: 0.97,
            ..base.clone()
        },
        Shape {
            name: "hops_skew_tcp",
            n: 40_000,
            dim: 96,
            components: 32,
            nlist: 200,
            nprobe: 16,
            repr: BlockRepr::Sq8,
            tcp: true,
            skew: WorkloadSpec::Zipf { s: 1.2 },
            batch: 2000,
            ..base.clone()
        },
        Shape {
            name: "churn_mixed",
            n: 48_000,
            dim: 64,
            components: 16,
            nlist: 64,
            nprobe: 8,
            batch: 64,
            batches_per_window: 16,
            ..base.clone()
        },
        Shape {
            name: "tenants_cold",
            n: 20_000,
            dim: 64,
            components: 8,
            nlist: 16,
            nprobe: 8,
            batch: 32,
            batches_per_window: 24,
            tenants: 16,
            cache_budget_bytes: Some(4 << 20),
            recall_floor: 0.97,
            ..base.clone()
        },
    ];
    if smoke {
        // The reduction `perf run --smoke` applies.
        for s in &mut shapes {
            s.n /= 10;
            s.nlist = (s.nlist / 4).max(s.nprobe);
            s.batch = (s.batch / 8).max(32);
            s.batches_per_window = s.batches_per_window.min(6);
            s.cache_budget_bytes = s.cache_budget_bytes.map(|b| b / 10);
        }
    }
    shapes
}

/// One `search_batch_ns` call of the per-window schedule.
struct Call {
    tenant: usize,
    queries: VectorStore,
}

struct Inputs {
    tenants: Vec<VectorStore>,
    window: Vec<Call>,
}

fn inputs(shape: &Shape) -> Inputs {
    let spec = |t: usize| {
        SyntheticSpec::clustered(shape.n, shape.dim, shape.components)
            .with_seed(CORPUS_SEED + t as u64)
    };
    let tenants: Vec<VectorStore> = (0..shape.tenants)
        .map(|t| spec(t).generate().base)
        .collect();
    let weights = shape.skew.weights(shape.components);
    // Half the calls go to the hot tenant, half to cold ones on a fixed
    // quadratic walk that returns to a few of them more often than to the
    // rest — popular cold tenants stay cached, the others fault.
    let cold: Vec<usize> = (0..shape.batches_per_window)
        .map(|j| 1 + (j * j) % (shape.tenants - 1).max(1))
        .collect();
    let window = (0..shape.batches_per_window)
        .map(|b| {
            let tenant = match shape.tenants > 1 && b % 2 == 1 {
                true => cold[b],
                false => 0,
            };
            let seed = 7919 ^ (0x005E_A2C4 + (b * shape.tenants + tenant) as u64);
            let queries = spec(tenant)
                .make_queries(shape.batch, Some(&weights), seed)
                .0;
            Call { tenant, queries }
        })
        .collect();
    Inputs { tenants, window }
}

/// What one engine did over its measured windows.
struct Observed {
    plan: PartitionPlan,
    wall_ns_per_query: f64,
    scan_ns_per_query: f64,
    /// CPU time of the worker threads, and of every thread, per query.
    worker_cpu_ns_per_query: f64,
    cpu_ns_per_query: f64,
    visits_per_query: f64,
    msgs_per_query: f64,
    bytes_per_query: f64,
    entering: Vec<u64>,
    recall: f64,
    /// The build's decision table (the default engine's is the planner's).
    candidates: Vec<PlanEstimate>,
}

/// CPU nanoseconds the worker threads (`harmony-worker-*`) and the whole
/// process have run so far, from `/proc/self/task/*/schedstat`. A worker's
/// own scan timer is a wall clock and counts the time it sat preempted —
/// with four workers on fewer cores that is most of its error. Zeros where
/// `/proc` does not say.
fn cpu_ns() -> (f64, f64) {
    let (mut workers, mut all) = (0.0, 0.0);
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return (0.0, 0.0);
    };
    for task in tasks.flatten() {
        let read = |file: &str| std::fs::read_to_string(task.path().join(file)).unwrap_or_default();
        let on_cpu: f64 = read("schedstat")
            .split_whitespace()
            .next()
            .and_then(|ns| ns.parse().ok())
            .unwrap_or(0.0);
        all += on_cpu;
        if read("comm").starts_with("harmony-worker") {
            workers += on_cpu;
        }
    }
    (workers, all)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn run_engine(
    shape: &Shape,
    data: &Inputs,
    forced: Option<PartitionPlan>,
) -> Result<Observed, Box<dyn std::error::Error>> {
    let mut config = HarmonyConfig::builder()
        .n_machines(MACHINES)
        .nlist(shape.nlist)
        .repr(shape.repr);
    if shape.tcp {
        config = config.transport(TransportKind::tcp());
    }
    if let Some(budget) = shape.cache_budget_bytes {
        config = config.cache_budget_bytes(budget);
    }
    if let Some(plan) = forced {
        config = config.plan(plan);
    }
    let engine = HarmonyEngine::build(config.build()?, &data.tenants[0])?;
    let mut namespaces = vec![0u16];
    for base in &data.tenants[1..] {
        let mut cfg = NamespaceConfig::default()
            .with_nlist(shape.nlist)
            .with_repr(shape.repr);
        if let Some(plan) = forced {
            cfg = cfg.with_plan(plan);
        }
        let ns = engine.create_namespace(&cfg, base)?;
        engine.set_namespace_tier(ns, Temperature::Cold)?;
        namespaces.push(ns);
    }
    let opts = SearchOptions::new(K).with_nprobe(shape.nprobe);
    let pass = |scored: &mut Vec<(usize, VectorStore, Vec<Vec<Neighbor>>)>| {
        for call in &data.window {
            let batch = engine.search_batch_ns(namespaces[call.tenant], &call.queries, &opts)?;
            if scored.is_empty() {
                let rows: Vec<usize> = (0..SCORED.min(call.queries.len())).collect();
                let results = batch.results[..rows.len()].to_vec();
                scored.push((call.tenant, call.queries.gather(&rows), results));
            }
        }
        Ok::<(), Box<dyn std::error::Error>>(())
    };

    // Warm-up window (first faults, first allocations), scored against the
    // oracle; then the measured windows, alone on the engine.
    let mut scored = Vec::new();
    pass(&mut scored)?;
    let (tenant, queries, results) = &scored[0];
    let oracle = FlatIndex::from_store(data.tenants[*tenant].clone(), Metric::L2);
    let mut hits = 0;
    for (q, got) in results.iter().enumerate() {
        let want = oracle.search(queries.row(q), K)?;
        hits += got
            .iter()
            .filter(|n| want.iter().any(|w| w.id == n.id))
            .count();
    }
    let recall = hits as f64 / (results.len() * K) as f64;

    let per_window: usize = data.window.iter().map(|c| c.queries.len()).sum();
    let stats0 = engine.collect_stats()?;
    let snap0 = engine.cluster_snapshot();
    let cpu0 = cpu_ns();
    let mut walls = Vec::new();
    for _ in 0..WINDOWS {
        let t0 = Instant::now();
        pass(&mut scored)?;
        walls.push(t0.elapsed().as_nanos() as f64 / per_window as f64);
    }
    let cpu = cpu_ns();
    let stats = engine.collect_stats()?;
    let traffic = engine.cluster_snapshot().delta(&snap0).total();
    let entering = stats.entering_since(&stats0);
    let queries = (WINDOWS * per_window) as f64;
    let observed = Observed {
        plan: engine.plan(),
        wall_ns_per_query: median(walls),
        scan_ns_per_query: (stats.compute_ns - stats0.compute_ns) as f64 / queries,
        worker_cpu_ns_per_query: (cpu.0 - cpu0.0) / queries,
        cpu_ns_per_query: (cpu.1 - cpu0.1) / queries,
        visits_per_query: entering.iter().sum::<u64>() as f64 / queries,
        msgs_per_query: traffic.msgs_tx as f64 / queries,
        bytes_per_query: traffic.bytes_tx as f64 / queries,
        entering,
        recall,
        candidates: engine.build_stats().candidates.clone(),
    };
    engine.shutdown()?;
    Ok(observed)
}

/// Spearman rank correlation of two equally long series (no tie handling
/// beyond stable order: costs and times do not tie).
fn spearman(a: &[f64], b: &[f64]) -> f64 {
    let ranks = |v: &[f64]| {
        let mut order: Vec<usize> = (0..v.len()).collect();
        order.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
        let mut rank = vec![0.0; v.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r as f64;
        }
        rank
    };
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let d2: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - y) * (x - y)).sum();
    1.0 - 6.0 * d2 / (n * (n * n - 1.0)).max(1.0)
}

fn sweep(shape: &Shape) -> Result<bool, Box<dyn std::error::Error>> {
    println!(
        "\n== {}: {} x {} x {}d {}, nlist {}, nprobe {}, {}, batches of {}",
        shape.name,
        shape.tenants,
        shape.n,
        shape.dim,
        shape.repr,
        shape.nlist,
        shape.nprobe,
        if shape.tcp { "tcp" } else { "inproc" },
        shape.batch,
    );
    let data = inputs(shape);
    let chosen = run_engine(shape, &data, None)?;
    println!(
        "the planner chose {} from (build-time prior: default nprobe, full windows):",
        chosen.plan.label()
    );
    println!("{}", PlanEstimate::HEADER);
    for candidate in &chosen.candidates {
        println!("{candidate}");
    }
    let forced: Vec<Observed> = PartitionPlan::enumerate(MACHINES)
        .into_iter()
        .filter(|p| p.dim_blocks <= shape.dim)
        .map(|p| run_engine(shape, &data, Some(p)))
        .collect::<Result<_, _>>()?;
    println!(
        "\n{:>8}  {:>9}  {:>9}  {:>7}  {:>8}  {:>8}  {:>9}  {:>7}  {:>7}  {:>9}  {:>8}  {:>8}  {:>7}  {:>7}  {:>8}  {:>6}  entering each hop (observed)",
        "plan", "pred us/q", "wall us/q", "QPS", "cpu us/q", "workers", "scan us/q", "first", "carried",
        "priced", "/workers", "/scan", "msgs/q", "(pred)", "bytes/q", "recall"
    );
    let mut ok = true;
    let mut predicted = Vec::new();
    let mut walls = Vec::new();
    for (o, label) in forced
        .iter()
        .map(|o| (o, o.plan.label()))
        .chain([(&chosen, format!("*{}", chosen.plan.label()))])
    {
        let estimate = chosen.candidates.iter().find(|c| c.plan == o.plan);
        let pred_ns = estimate.map_or(f64::NAN, |c| c.cost.total_ns / c.inputs.queries as f64);
        // The default engine's measured per-hop times price the observed
        // visits: hop 0's at the first-hop time, the rest at the carried.
        let total: u64 = o.entering.iter().take(o.plan.dim_blocks).sum();
        let first_visits = o.visits_per_query * o.entering[0] as f64 / total.max(1) as f64;
        let (first_ns, carried_ns) = estimate.map_or((f64::NAN, f64::NAN), |c| {
            (c.inputs.first_ns, c.inputs.carried_ns)
        });
        let scan_pred = first_ns * first_visits + carried_ns * (o.visits_per_query - first_visits);
        let entering: Vec<String> = o
            .entering
            .iter()
            .take(o.plan.dim_blocks)
            .map(|&e| format!("{:.2}", e as f64 / o.entering[0].max(1) as f64))
            .collect();
        println!(
            "{label:>8}  {:>9.1}  {:>9.1}  {:>7.0}  {:>8.1}  {:>8.1}  {:>9.1}  {:>7.1}  {:>7.1}  {:>9.1}  {:>8.2}  {:>8.2}  {:>7.2}  {:>7.2}  {:>8.0}  {:>6.3}  {}",
            pred_ns / 1e3,
            o.wall_ns_per_query / 1e3,
            1e9 / o.wall_ns_per_query,
            o.cpu_ns_per_query / 1e3,
            o.worker_cpu_ns_per_query / 1e3,
            o.scan_ns_per_query / 1e3,
            first_ns,
            carried_ns,
            scan_pred / 1e3,
            scan_pred / o.worker_cpu_ns_per_query,
            scan_pred / o.scan_ns_per_query,
            o.msgs_per_query,
            estimate.map_or(f64::NAN, |c| c.inputs.msgs_per_query),
            o.bytes_per_query,
            o.recall,
            entering.join(" "),
        );
        if o.recall < shape.recall_floor {
            println!(
                "WRONG: recall {:.4} below the floor {}",
                o.recall, shape.recall_floor
            );
            ok = false;
        }
        if !label.starts_with('*') {
            predicted.push(pred_ns);
            walls.push(o.wall_ns_per_query);
        }
    }
    let best = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let chosen_forced = forced
        .iter()
        .find(|o| o.plan == chosen.plan)
        .map_or(chosen.wall_ns_per_query, |o| o.wall_ns_per_query);
    println!(
        "spearman(predicted, wall) = {:.2}; regret of {} = {:.1} % of the best forced plan's QPS \
         (default-mode engine itself: {:.1} %)",
        spearman(&predicted, &walls),
        chosen.plan.label(),
        (1.0 - best / chosen_forced) * 100.0,
        (1.0 - best / chosen.wall_ns_per_query) * 100.0,
    );
    Ok(ok)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let wanted: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let mut ok = true;
    for shape in shapes(smoke) {
        if wanted.is_empty() || wanted.iter().any(|w| *w == shape.name) {
            ok &= sweep(&shape)?;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    Ok(())
}
