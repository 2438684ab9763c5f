//! One benchmark run: set-up cycles, fixed-work measurement windows, the
//! scoring point, the write tail and the correctness gate — then the
//! metrics, end-to-end (`run`) or per-layer (`trace`).

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use harmony_cluster::ClusterSnapshot;
use harmony_core::{EngineStats, SearchOptions, Temperature};
use harmony_data::{ground_truth, recall_at_k};
use harmony_index::{Metric, Neighbor, VectorStore};

use crate::calib::Calibrator;
use crate::churn::{ChurnShared, Churner};
use crate::estim::{median, norm_duration, norm_rate, spread, tail_percentile, Tally};
use crate::json::Json;
use crate::probes;
use crate::spans::Tracer;
use crate::workloads::{deploy, generate, Batch, Deployment, Inputs, Spec, K};

/// Set-up cycles per `run`; `setup_s` is their median.
const SETUP_CYCLES: usize = 5;
/// A traced run spends its time on probes instead; a smoke run has none.
const SETUP_CYCLES_SHORT: usize = 2;
/// Windows measured even when `--seconds` is already used up.
const MIN_WINDOWS: usize = 6;
/// Write cycles after the windows of a read-only workload.
const TAIL_CYCLES: usize = 8;
/// Fresh rows queried back per gate pass.
const FRESH_CHECKS: usize = 32;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// A named measurement with its unit.
pub type Metric3 = (String, f64, &'static str);

/// Everything the windows produce.
#[derive(Default)]
struct Samples {
    /// Mean of the calibration slices before and after each window, ms.
    calib_ms: Vec<f64>,
    /// Raw queries/s per window.
    qps: Vec<f64>,
    /// Raw per-window median single-query latency, ms.
    p50_ms: Vec<f64>,
    /// Every single-query latency, ms.
    singles_ms: Vec<f64>,
    /// Per-tenant-kind single-query latencies (hot, cold), ms.
    hot_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    /// Raw acknowledged writes/s with the bracketing calibration beside each.
    ingest_ops_s: Vec<f64>,
    ingest_calib_ms: Vec<f64>,
    queries: u64,
    /// Wall seconds with engine calls in flight.
    active_s: f64,
    /// Modeled makespan against observed wall over the window batches.
    model_ns: f64,
    batch_wall_ns: f64,
}

fn opts(spec: &Spec) -> SearchOptions {
    SearchOptions::new(K).with_nprobe(spec.nprobe)
}

/// Runs the fixed batch schedule once; returns every batch's results.
fn read_batches(
    dep: &Deployment,
    batches: &[Batch],
    spec: &Spec,
    tracer: &Tracer,
    parent: u64,
    tally: &mut Tally,
    s: &mut Samples,
) -> Vec<Vec<Vec<Neighbor>>> {
    let opts = opts(spec);
    let mut out = Vec::with_capacity(batches.len());
    for b in batches {
        let r = tracer.span("engine.search_batch", parent, |_| {
            dep.engine
                .search_batch_ns(dep.ns[b.tenant], &b.queries, &opts)
        });
        let n = b.queries.len() as u64;
        match tally.record("search_batch", n, r) {
            Some(res) => {
                s.queries += n;
                s.model_ns += res.snapshot.makespan_ns(res.comm_mode) as f64;
                s.batch_wall_ns += res.wall.as_nanos() as f64;
                out.push(res.results);
            }
            None => out.push(Vec::new()),
        }
    }
    out
}

/// `Spec::singles` single in-flight `search[_ns]` calls; returns the window's
/// median latency in ms.
fn singles(
    dep: &Deployment,
    inputs: &Inputs,
    tracer: &Tracer,
    parent: u64,
    tally: &mut Tally,
    s: &mut Samples,
) -> f64 {
    let opts = opts(&inputs.spec);
    let mut lat = Vec::with_capacity(inputs.singles.len());
    for (tenant, q) in &inputs.singles {
        let t = Instant::now();
        let r = tracer.span("engine.search", parent, |_| {
            dep.engine.search_ns(dep.ns[*tenant], q, &opts)
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(r) = tally.record("search", 1, r) {
            tally.check(r.neighbors.len() == K, "search returned fewer than k");
            lat.push(ms);
            if *tenant == 0 {
                &mut s.hot_ms
            } else {
                &mut s.cold_ms
            }
            .push(ms);
        }
    }
    s.queries += lat.len() as u64;
    s.singles_ms.extend_from_slice(&lat);
    median(&lat)
}

/// The reader of `churn_mixed`: 64-query batches, half from the static pool
/// and half aimed at the rows the writer just acknowledged, until `done`.
/// Checks every answer against what was dead or fresh when it was asked.
fn churn_reader(
    dep: &Deployment,
    inputs: &Inputs,
    shared: &ChurnShared,
    done: &AtomicBool,
    cursor: &mut usize,
    tracer: &Tracer,
    parent: u64,
) -> (Samples, Tally) {
    let spec = &inputs.spec;
    let opts = opts(spec);
    let mut tally = Tally::default();
    let mut s = Samples::default();
    while !done.load(Ordering::Acquire) {
        let cycle_at_start = shared.cycle.load(Ordering::Acquire);
        let fresh = shared
            .fresh
            .lock()
            .expect("writer never panics holding it")
            .clone();
        let mut batch = VectorStore::with_capacity(spec.dim, spec.batch);
        let mut expect: Vec<Option<u64>> = Vec::with_capacity(spec.batch);
        for i in 0..spec.batch {
            *cursor += 1;
            if i % 2 == 1 && !fresh.is_empty() {
                let (id, v) = &fresh[*cursor % fresh.len()];
                batch.push(i as u64, v).expect("fresh rows share the dim");
                expect.push(Some(*id));
            } else {
                let row = inputs.pool.row(*cursor % inputs.pool.len());
                batch.push(i as u64, row).expect("pool rows share the dim");
                expect.push(None);
            }
        }
        let r = tracer.span("engine.search_batch", parent, |_| {
            dep.engine.search_batch(&batch, &opts)
        });
        let Some(res) = tally.record("search_batch", spec.batch as u64, r) else {
            continue;
        };
        s.queries += spec.batch as u64;
        s.model_ns += res.snapshot.makespan_ns(res.comm_mode) as f64;
        s.batch_wall_ns += res.wall.as_nanos() as f64;
        let dead = shared.dead.lock().expect("writer never panics holding it");
        for (hits, want) in res.results.iter().zip(&expect) {
            if let Some(id) = want {
                tally.check(
                    hits.first().map(|n| n.id) == Some(*id),
                    "a just-upserted vector is not its own top-1",
                );
            }
            let stale = hits
                .iter()
                .any(|n| dead.get(&n.id).is_some_and(|&c| c < cycle_at_start));
            tally.check(!stale, "a deleted id was returned");
        }
    }
    (s, tally)
}

/// After writes have stopped: every id deleted so far stays out of the
/// answers, and the last burst's rows are each their own top-1.
fn gate_after_writes(dep: &Deployment, inputs: &Inputs, shared: &ChurnShared, tally: &mut Tally) {
    let opts = opts(&inputs.spec);
    let dead = shared.dead.lock().expect("writer finished");
    let fresh = shared.fresh.lock().expect("writer finished").clone();
    for (id, v) in fresh.iter().take(FRESH_CHECKS) {
        if let Some(r) = tally.record("search", 1, dep.engine.search(v, &opts)) {
            tally.check(
                r.neighbors.first().map(|n| n.id) == Some(*id),
                "a just-upserted vector is not its own top-1",
            );
        }
    }
    // Query the neighbourhood of deleted rows: that is where they would show.
    let base = &inputs.tenants[0];
    let by_id: HashMap<u64, usize> = (0..base.len()).map(|r| (base.id(r), r)).collect();
    for (id, _) in dead.iter().take(FRESH_CHECKS) {
        let Some(&row) = by_id.get(id) else { continue };
        if let Some(r) = tally.record("search", 1, dep.engine.search(base.row(row), &opts)) {
            tally.check(
                !r.neighbors.iter().any(|n| dead.contains_key(&n.id)),
                "a deleted id was returned",
            );
        }
    }
}

/// Whether two answers to the same queries agree. The engine orders a
/// query's dimension hops by worker load, so partial sums associate
/// differently from call to call and scores differ in their last bits;
/// ids must match rank for rank except where two scores tie within that
/// rounding (they may swap, or trade places across the k-th rank).
fn same_answers(a: &[Vec<Neighbor>], b: &[Vec<Neighbor>]) -> bool {
    let close = |x: f32, y: f32| (x - y).abs() <= 1e-5 * x.abs().max(y.abs()).max(1e-12);
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(m, n)| close(m.score, n.score))
                && x.iter().zip(y).all(|(m, n)| {
                    m.id == n.id
                        || y.iter().any(|o| o.id == m.id && close(o.score, m.score))
                        || y.last().is_some_and(|o| close(o.score, m.score))
                })
        })
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the scoring point measures on a quiescent engine.
struct Score {
    recall: f64,
    wire_bytes_per_query: f64,
    stats: EngineStats,
    /// Tenant 1's answers while cold (`tenants_cold` only).
    cold_answers: Vec<Vec<Neighbor>>,
}

fn score(
    dep: &Deployment,
    inputs: &Inputs,
    live0: Option<&VectorStore>,
    tally: &mut Tally,
) -> Result<Score, String> {
    let opts = opts(&inputs.spec);
    let mut recall_sum = 0.0;
    let mut queries = 0usize;
    let mut cold_answers = Vec::new();
    for b in &inputs.score {
        let oracle = match (b.tenant, live0) {
            (0, Some(live)) => live,
            (t, _) => &inputs.tenants[t],
        };
        let truth = ground_truth(oracle, &b.queries, K, Metric::L2);
        let r = dep
            .engine
            .search_batch_ns(dep.ns[b.tenant], &b.queries, &opts);
        let n = b.queries.len();
        let res = tally
            .record("search_batch", n as u64, r)
            .ok_or("scoring batch failed")?;
        recall_sum += recall_at_k(&truth, &res.results, K) * n as f64;
        queries += n;
        if b.tenant != 0 {
            cold_answers = res.results;
        }
    }
    // Wire bytes: one more pass of the window schedule (the reader's pool on
    // `churn_mixed`), alone on the engine so no write traffic is counted.
    let pool;
    let replay = if inputs.window.is_empty() {
        pool = [Batch {
            tenant: 0,
            queries: inputs.pool.clone(),
        }];
        &pool[..]
    } else {
        &inputs.window[..]
    };
    let before = dep.engine.cluster_snapshot();
    let mut replayed = 0usize;
    for b in replay {
        let r = dep
            .engine
            .search_batch_ns(dep.ns[b.tenant], &b.queries, &opts);
        tally
            .record("search_batch", b.queries.len() as u64, r)
            .ok_or("wire-bytes batch failed")?;
        replayed += b.queries.len();
    }
    let bytes = dep
        .engine
        .cluster_snapshot()
        .delta(&before)
        .total()
        .bytes_tx;
    let stats = tally
        .record("collect_stats", 1, dep.engine.collect_stats())
        .ok_or("collect_stats failed")?;
    Ok(Score {
        recall: recall_sum / queries as f64,
        wire_bytes_per_query: bytes as f64 / replayed as f64,
        stats,
        cold_answers,
    })
}

/// Per-layer numbers read off the serving engine's own counters over the
/// measured windows.
fn engine_layer_metrics(
    spec: &Spec,
    s: &Samples,
    snap: &ClusterSnapshot,
    stats: &EngineStats,
    m: &mut Vec<Metric3>,
) {
    let q = s.queries.max(1) as f64;
    let active_ns = (s.active_s * 1e9).max(1.0);
    let total = snap.total();
    let workers = snap.workers.len().max(1) as f64;
    let busy: u64 = snap.workers.iter().map(|w| w.busy_ns).sum();
    let compute: Vec<f64> = snap.workers.iter().map(|w| w.compute_ns as f64).collect();
    let mean = compute.iter().sum::<f64>() / workers;
    let max = compute.iter().copied().fold(0.0, f64::max);
    let entered = stats.slices.seen.first().copied().unwrap_or(0).max(1) as f64;
    let pruned: u64 = stats.slices.pruned.iter().sum();
    let pd = stats.scanned_point_dims.max(1) as f64;
    let budget = spec.cache_budget_bytes.unwrap_or(64 << 20) as f64 * workers;
    m.extend([
        (
            "cluster.msgs_per_query".into(),
            total.msgs_tx as f64 / q,
            "count",
        ),
        (
            "cluster.worker_busy_frac".into(),
            busy as f64 / (active_ns * workers),
            "ratio",
        ),
        (
            "cluster.client_busy_frac".into(),
            snap.client.busy_ns as f64 / active_ns,
            "ratio",
        ),
        (
            "cluster.load_imbalance".into(),
            if mean > 0.0 { max / mean } else { 1.0 },
            "ratio",
        ),
        (
            "core.worker.scanned_pd_per_query".into(),
            stats.scanned_point_dims as f64 / q,
            "count",
        ),
        (
            "core.worker.compute_ns_per_pd".into(),
            stats.compute_ns as f64 / pd,
            "ns",
        ),
        (
            "core.pruning.pruned_frac".into(),
            pruned as f64 / entered,
            "ratio",
        ),
        (
            "core.pruning.work_saved_pct".into(),
            stats.slices.work_saved_percent(),
            "%",
        ),
        (
            "core.cost.predicted_over_observed".into(),
            s.model_ns / s.batch_wall_ns.max(1.0),
            "ratio",
        ),
        (
            "index.tier.cache_fill_frac".into(),
            stats.cache_block_bytes as f64 / budget,
            "ratio",
        ),
    ]);
}

fn metrics_json(metrics: &[Metric3]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Calibration slices around consecutive pieces of work: each piece is
/// normalised by the mean of the slice before it and the slice after it, so
/// a change of host speed in the middle of a run is followed piece by piece.
struct Brackets<'a> {
    calib: &'a Calibrator,
    tracer: &'a Tracer,
    before: f64,
    /// Every slice taken, ms.
    slices: Vec<f64>,
}

impl<'a> Brackets<'a> {
    fn open(calib: &'a Calibrator, tracer: &'a Tracer, parent: u64) -> Self {
        let before = tracer.span("host.calib", parent, |_| calib.slice_ms());
        Self {
            calib,
            tracer,
            before,
            slices: vec![before],
        }
    }

    /// Takes the slice after a piece of work; returns the piece's yardstick.
    fn close(&mut self, parent: u64) -> f64 {
        let after = self
            .tracer
            .span("host.calib", parent, |_| self.calib.slice_ms());
        let mid = (self.before + after) / 2.0;
        self.before = after;
        self.slices.push(after);
        mid
    }
}

/// Median over pieces of work of each raw value normalised by its own
/// bracket.
fn normalised(raw: &[f64], calib_ms: &[f64], norm: fn(f64, f64) -> f64) -> f64 {
    let each: Vec<f64> = raw
        .iter()
        .zip(calib_ms)
        .map(|(r, c)| norm(*r, *c))
        .collect();
    median(&each)
}

/// Runs the workload and prints the result line. `Ok(true)` means every
/// operation succeeded and every answer checked out.
///
/// # Errors
/// An unknown workload, or a failure that leaves nothing to measure.
pub fn execute(args: &Args, out_dir: &Path) -> Result<bool, String> {
    let spec = Spec::get(&args.workload, args.smoke)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let spill_dir = out_dir.join(format!("spill-{}", std::process::id()));
    let tracer = Tracer::new(args.trace);
    let root = tracer.begin("run", 0);
    let mut tally = Tally::default();

    let inputs = tracer.span("datagen", root, |_| generate(&spec, args.seed));
    let calib = Calibrator::new();

    // --- Set-up: corpus in memory → first answer → shutdown, several times;
    // one more, untimed, build serves the measured phase. -------------------
    let cycles = match (args.trace, args.smoke) {
        (false, false) => SETUP_CYCLES,
        _ => SETUP_CYCLES_SHORT,
    };
    let setup_span = tracer.begin("setup", root);
    let mut setup_raw = Vec::with_capacity(cycles);
    let mut setup_calib = Vec::with_capacity(cycles);
    let mut brackets = Brackets::open(&calib, &tracer, setup_span);
    let build = |tally: &mut Tally| -> Result<Deployment, String> {
        let dep = tracer.span("engine.build", setup_span, |_| {
            deploy(&inputs, &spill_dir, tally)
        })?;
        let (_, q) = &inputs.singles[0];
        let first = tracer.span("engine.search", setup_span, |_| {
            dep.engine.search(q, &opts(&spec))
        });
        tally.record("search", 1, first);
        Ok(dep)
    };
    for _ in 0..cycles {
        let t0 = Instant::now();
        let dep = build(&mut tally)?;
        let down = tracer.span("engine.shutdown", setup_span, |_| dep.engine.shutdown());
        tally.record("shutdown", 1, down);
        setup_raw.push(t0.elapsed().as_secs_f64());
        setup_calib.push(brackets.close(setup_span));
    }
    let dep = build(&mut tally)?;
    tracer.end(setup_span, cycles as u64 + 1);

    // --- Measured phase: fixed-work windows until --seconds is used up ---
    let mut s = Samples::default();
    let mut churner = Churner::new(&inputs.tenants[0], args.seed);
    let mut reader_cursor = 0usize;
    let mut first_window: Option<Vec<Vec<Vec<Neighbor>>>> = None;
    let mut last_window = Vec::new();
    tally.record("reset_stats", 1, dep.engine.reset_stats());
    let snap0 = dep.engine.cluster_snapshot();
    let mut brackets = Brackets::open(&calib, &tracer, root);
    let phase = Instant::now();
    let mut w = 0usize;
    while w < MIN_WINDOWS || phase.elapsed().as_secs_f64() < args.seconds {
        // A traced run alternates recording on and off, so the two halves
        // give the tracing overhead under identical conditions.
        let traced = args.trace && w.is_multiple_of(2);
        tracer.set_enabled(traced);
        let wspan = tracer.begin(&format!("window[{w}]"), root);

        let t0 = Instant::now();
        if spec.concurrent_churn {
            let done = AtomicBool::new(false);
            let shared = churner.shared.clone();
            let (ops, write_s, read, reader_tally) = std::thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    churn_reader(
                        &dep,
                        &inputs,
                        &shared,
                        &done,
                        &mut reader_cursor,
                        &tracer,
                        wspan,
                    )
                });
                let (mut ops, mut write_s) = (0u64, 0.0);
                for _ in 0..spec.churn.cycles_per_window {
                    let (n, secs) =
                        churner.cycle(&dep.engine, spec.churn, &tracer, wspan, &mut tally);
                    ops += n;
                    write_s += secs;
                }
                done.store(true, Ordering::Release);
                let (read, reader_tally) = reader.join().expect("reader thread panicked");
                (ops, write_s, read, reader_tally)
            });
            tally.merge(reader_tally);
            s.queries += read.queries;
            s.model_ns += read.model_ns;
            s.batch_wall_ns += read.batch_wall_ns;
            s.qps.push(read.queries as f64 / t0.elapsed().as_secs_f64());
            s.ingest_ops_s.push(ops as f64 / write_s);
        } else {
            let before = s.queries;
            last_window = read_batches(
                &dep,
                &inputs.window,
                &spec,
                &tracer,
                wspan,
                &mut tally,
                &mut s,
            );
            s.qps
                .push((s.queries - before) as f64 / t0.elapsed().as_secs_f64());
            if first_window.is_none() {
                first_window = Some(last_window.clone());
            }
        }
        let p50 = singles(&dep, &inputs, &tracer, wspan, &mut tally, &mut s);
        s.p50_ms.push(p50);
        s.active_s += t0.elapsed().as_secs_f64();
        s.calib_ms.push(brackets.close(wspan));
        tracer.end(wspan, 1);
        w += 1;
    }
    tracer.set_enabled(args.trace);
    let window_slices = brackets.slices;
    let window_snap = dep.engine.cluster_snapshot().delta(&snap0);
    if let Some(first) = &first_window {
        for (a, b) in first.iter().zip(&last_window) {
            tally.check(
                same_answers(a, b),
                "top-k of the first and last window differ",
            );
        }
    }

    // --- Scoring point: recall, wire bytes, residency on a quiet engine ---
    let live0 = spec.concurrent_churn.then(|| churner.live_set());
    let scored = tracer.span("score", root, |_| {
        score(&dep, &inputs, live0.as_ref(), &mut tally)
    })?;
    tally.check(
        scored.recall >= spec.recall_floor,
        &format!(
            "recall_at_10 {:.4} is below the floor {}",
            scored.recall, spec.recall_floor
        ),
    );
    let live_vectors =
        live0.as_ref().map_or(spec.n, VectorStore::len) + (spec.tenants - 1) * spec.n;
    let resident = scored.stats.f32_block_bytes
        + scored.stats.sq8_block_bytes
        + scored.stats.delta_block_bytes;

    // Cold answers must equal the same tenant's answers once it is hot again.
    let mut set_tier_ms = Vec::new();
    if let Some(b) = inputs.score.iter().find(|b| b.tenant != 0) {
        let t = Instant::now();
        let r = dep
            .engine
            .set_namespace_tier(dep.ns[b.tenant], Temperature::Hot);
        set_tier_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally.record("set_namespace_tier", 1, r);
        let r = dep
            .engine
            .search_batch_ns(dep.ns[b.tenant], &b.queries, &opts(&spec));
        if let Some(hot) = tally.record("search_batch", b.queries.len() as u64, r) {
            tally.check(
                same_answers(&hot.results, &scored.cold_answers),
                "cold-tenant answers differ from their hot answers",
            );
        }
    }

    // --- Write tail of the read-only workloads ---------------------------
    if !spec.concurrent_churn {
        let tail = tracer.begin("tail", root);
        let mut brackets = Brackets::open(&calib, &tracer, tail);
        for _ in 0..TAIL_CYCLES {
            let (ops, secs) = churner.cycle(&dep.engine, spec.churn, &tracer, tail, &mut tally);
            s.ingest_ops_s.push(ops as f64 / secs);
            s.ingest_calib_ms.push(brackets.close(tail));
        }
        tracer.end(tail, TAIL_CYCLES as u64);
    }
    gate_after_writes(&dep, &inputs, &churner.shared, &mut tally);

    // --- Metrics -----------------------------------------------------------
    if spec.concurrent_churn {
        s.ingest_calib_ms = s.calib_ms.clone();
    }
    let raw_qps = median(&s.qps);
    let raw_p50 = median(&s.p50_ms);
    let mut per_layer: Vec<Metric3> = Vec::new();
    if args.trace {
        engine_layer_metrics(&spec, &s, &window_snap, &scored.stats, &mut per_layer);
        probes::run_all(
            &probes::Ctx {
                inputs: &inputs,
                dep: &dep,
                out_dir,
                tracer: &tracer,
                root,
                raw_search_qps: raw_qps,
                set_tier_ms,
                hot_p50_ms: median(&s.hot_ms),
                cold_p50_ms: median(&s.cold_ms),
                write_lat: &churner.lat,
            },
            &mut tally,
            &mut per_layer,
        );
    }

    let plan_label = dep.engine.plan().label();
    let down = tracer.span("engine.shutdown", root, |_| dep.engine.shutdown());
    tally.record("shutdown", 1, down);
    let _ = std::fs::remove_dir_all(&spill_dir);
    let raw_setup = median(&setup_raw);

    let host: Vec<Metric3> = vec![
        ("host.calib_ms_p50".into(), median(&window_slices), "ms"),
        ("host.calib_spread".into(), spread(&window_slices), "ratio"),
        ("host.raw_search_qps".into(), raw_qps, "1/s"),
        ("host.raw_search_p50_ms".into(), raw_p50, "ms"),
        ("host.raw_setup_s".into(), raw_setup, "s"),
    ];
    let end_to_end: Vec<Metric3> = vec![
        (
            "setup_s".into(),
            normalised(&setup_raw, &setup_calib, norm_duration),
            "s",
        ),
        (
            "search_qps".into(),
            normalised(&s.qps, &s.calib_ms, norm_rate),
            "1/s",
        ),
        (
            "search_p50_ms".into(),
            normalised(&s.p50_ms, &s.calib_ms, norm_duration),
            "ms",
        ),
        (
            "ingest_ops_s".into(),
            normalised(&s.ingest_ops_s, &s.ingest_calib_ms, norm_rate),
            "1/s",
        ),
        ("recall_at_10".into(), scored.recall, "ratio"),
        (
            "wire_bytes_per_query".into(),
            scored.wire_bytes_per_query,
            "bytes",
        ),
        (
            "resident_bytes_per_vector".into(),
            resident as f64 / live_vectors as f64,
            "bytes",
        ),
        ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
    ];

    tracer.end(root, 1);
    let reported = if args.trace {
        // Even windows recorded spans, odd ones did not.
        let qps_of = |parity: usize| {
            let each: Vec<f64> = (parity..s.qps.len())
                .step_by(2)
                .map(|w| norm_rate(s.qps[w], s.calib_ms[w]))
                .collect();
            median(&each)
        };
        let p99 = tail_percentile(&s.singles_ms);
        if let Some((p, _)) = p99 {
            eprintln!(
                "[perf] core.engine.search_p99_ms reports p{p} of {} samples",
                s.singles_ms.len()
            );
        }
        per_layer.extend(host.clone());
        per_layer.extend([
            (
                "core.engine.search_p99_ms".into(),
                p99.map_or(0.0, |(_, v)| v),
                "ms",
            ),
            ("trace.spans".into(), tracer.len() as f64, "count"),
            (
                "trace.overhead_frac".into(),
                1.0 - qps_of(0) / qps_of(1).max(f64::MIN_POSITIVE),
                "ratio",
            ),
            ("error_rate".into(), tally.error_rate(), "ratio"),
        ]);
        per_layer.sort_by(|a, b| a.0.cmp(&b.0));
        let path = out_dir.join(format!("trace_{}.json", spec.name));
        std::fs::create_dir_all(out_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(spec.name).to_string()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "[perf] {} spans written to {}",
            tracer.len(),
            path.display()
        );
        per_layer
    } else {
        end_to_end.clone()
    };

    eprintln!(
        "[perf] {} seed {} — {} windows, {} queries, {} single-query samples, plan {}, threads {}",
        spec.name,
        args.seed,
        s.qps.len(),
        s.queries,
        s.singles_ms.len(),
        plan_label,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    for (name, value, unit) in host.iter().chain(&end_to_end) {
        eprintln!("[perf]   {name:<28} {value:>14.4} {unit}");
    }

    let correct = tally.failed == 0;
    let result = |metrics: &[Metric3]| {
        vec![
            ("correct".to_string(), Json::Bool(correct)),
            ("attempted".to_string(), Json::Num(tally.attempted as f64)),
            ("failed".to_string(), Json::Num(tally.failed as f64)),
            ("metrics".to_string(), metrics_json(metrics)),
        ]
    };
    if let Some(path) = &args.out {
        // One self-describing line per run; `compare` groups them by workload.
        let mut all = end_to_end.clone();
        all.extend(host);
        let mut fields = vec![
            ("workload".to_string(), Json::Str(spec.name.into())),
            ("seed".to_string(), Json::Num(args.seed as f64)),
        ];
        fields.extend(result(&all));
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        fields.push((
            "raw".to_string(),
            Json::Obj(vec![
                ("calib_ms".into(), nums(&s.calib_ms)),
                ("qps".into(), nums(&s.qps)),
                ("p50_ms".into(), nums(&s.p50_ms)),
                ("ingest_ops_s".into(), nums(&s.ingest_ops_s)),
                ("ingest_calib_ms".into(), nums(&s.ingest_calib_ms)),
                ("setup_s".into(), nums(&setup_raw)),
                ("setup_calib_ms".into(), nums(&setup_calib)),
            ]),
        ));
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", Json::Obj(fields)))
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    }
    println!("{}", Json::Obj(result(&reported)));
    Ok(correct)
}
