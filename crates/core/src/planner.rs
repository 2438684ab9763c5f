//! What the plan choice measures before it chooses (§4.2.1's inputs, taken
//! from the deployment instead of assumed): the worker scan's time per
//! candidate visit on a first hop and on a carried hop, timed hop by hop
//! through the worker's own scan routine on a sample of the namespace's
//! real lists at every candidate slice width; the survivors
//! entering each hop of every candidate pipeline, sampled from the
//! namespace's own rows against the prewarm thresholds its queries will
//! start with; and the fabric's fixed cost per message. [`crate::cost`]
//! prices plans from the results and never reads a clock itself.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use harmony_cluster::{Cluster, Wire};
use harmony_index::distance::ip;
use harmony_index::kmeans::nearest_centroids;
use harmony_index::{DimRange, Metric, TombstoneSet, TopK, VectorStore};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cost::{ScanRates, Survivors};
use crate::engine::{cut_list, ExactCopy, IdSet, PrewarmSamples};
use crate::error::CoreError;
use crate::messages::{ChunkBatch, ResultBatch, ToClient, ToWorker};
use crate::partition::{PartitionPlan, ShardAssignment};
use crate::worker::{scan_hop, BlockStore, HopOutput, NsMeta, Scratch};

/// What the samplers read of a namespace — its build inputs before the
/// state exists, the state's own fields afterwards.
pub(crate) struct SampleView<'a> {
    pub(crate) metric: Metric,
    pub(crate) sq8: bool,
    pub(crate) pruning: bool,
    /// Results a query asks for (sizes the prewarm budget and the query's
    /// heap of exact scores).
    pub(crate) k: usize,
    /// Estimates each last hop keeps per shard visit (`k × rerank_scale`
    /// under SQ8).
    pub(crate) estimates_per_visit: usize,
    pub(crate) centroids: &'a VectorStore,
    /// The exact copy: the rows of every list, and where an SQ8 answer is
    /// reranked.
    pub(crate) exact: &'a ExactCopy,
    pub(crate) prewarm: &'a PrewarmSamples,
}

impl SampleView<'_> {
    /// The threshold a query starts its first shard visit with: the k-th
    /// exact score of its prewarm samples.
    fn prewarm_threshold(&self, query: &[f32], probes: &[u32]) -> f32 {
        let mut topk = TopK::new(self.k);
        let fresh = IdSet::default();
        self.prewarm
            .seed(self.metric, query, probes, self.k, &fresh, &mut topk);
        topk.threshold()
    }

    /// Every `stride`-th row of list `c`.
    fn rows_of(&self, c: u32, stride: usize) -> impl ExactSizeIterator<Item = (u64, &[f32])> {
        let lists = self.exact.lists();
        (0..lists.len(c))
            .step_by(stride.max(1))
            .map(move |i| lists.row(c, i))
    }

    /// Rows over every list.
    fn rows(&self) -> usize {
        self.exact.lists().sizes().iter().sum()
    }
}

/// One candidate dimension pipeline over sample lists: per hop, the lists
/// cut to the hop's range and stored the way a worker stores them.
struct Pipeline {
    ranges: Vec<DimRange>,
    blocks: Vec<BlockStore>,
    /// Sample lists have no deleted rows.
    tombstones: TombstoneSet,
}

impl Pipeline {
    /// Cuts every `stride`-th row of each of `lists` to the `hops` ranges
    /// of the namespace's dimensions, in the namespace's representation.
    fn cut(view: &SampleView<'_>, lists: &[u32], stride: usize, hops: usize) -> Self {
        let is_ip = !matches!(view.metric, Metric::L2);
        let ranges = DimRange::split(view.exact.lists().dim(), hops);
        let blocks = ranges
            .iter()
            .map(|range| {
                let cut = |&c: &u32| cut_list(c, view.rows_of(c, stride), *range, is_ip, view.sq8);
                let lists = lists.iter().map(cut).collect();
                BlockStore::from_wire(range.start as u64, range.end as u64, lists)
            })
            .collect();
        Self {
            ranges,
            blocks,
            tombstones: TombstoneSet::new(),
        }
    }

    /// The chunk the dispatch loop would send to `position` for `queries`
    /// that all probe `clusters` (ascending) with the given thresholds.
    fn chunk(
        &self,
        view: &SampleView<'_>,
        position: usize,
        queries: &[&[f32]],
        thresholds: &[f32],
        clusters: &[u32],
    ) -> ChunkBatch {
        let range = self.ranges[position];
        ChunkBatch {
            ns: 0,
            epoch: 0,
            shard: 0,
            k: view.estimates_per_visit as u32,
            order: (0..self.ranges.len() as u64).collect(),
            position: position as u32,
            delta_seq: 0,
            legacy_reply: false,
            query_ids: (0..queries.len() as u64).collect(),
            thresholds: thresholds.to_vec(),
            q_total_norms_sq: match view.metric {
                Metric::L2 => Vec::new(),
                _ => queries.iter().map(|q| ip(q, q)).collect(),
            },
            cluster_ends: (1..=queries.len())
                .map(|q| (q * clusters.len()) as u32)
                .collect(),
            clusters: queries
                .iter()
                .flat_map(|_| clusters.iter().copied())
                .collect(),
            dims: queries
                .iter()
                .flat_map(|q| q[range.start..range.end].iter().copied())
                .collect(),
        }
    }

    /// Runs one shard visit through every hop, chained through its real
    /// carries. Returns, per position, the candidates that entered it and
    /// the nanoseconds its hop took, and the visit's answer.
    fn visit(
        &self,
        meta: NsMeta,
        chunks: Vec<ChunkBatch>,
        scratch: &mut Scratch,
    ) -> (Vec<(u64, u64)>, Option<ResultBatch>) {
        let mut entering = Vec::with_capacity(chunks.len());
        let mut carry = None;
        for (block, chunk) in self.blocks.iter().zip(chunks) {
            let carried = carry.as_ref();
            let t0 = Instant::now();
            let (out, tally) = scan_hop(
                meta,
                &self.tombstones,
                Some(block),
                None,
                chunk,
                carried,
                scratch,
            );
            entering.push((tally.seen, t0.elapsed().as_nanos() as u64));
            carry = match out {
                HopOutput::Forward(carry) => Some(carry),
                HopOutput::Answer(answer) => return (entering, Some(answer)),
            };
        }
        (entering, None)
    }
}

/// Queries the rate measurement scores against its sample lists.
const RATE_QUERIES: usize = 4;

/// Most and least repetitions of the rate measurement. The budget decides
/// in between; the least must outlast one disturbed repetition.
const RATE_REPS: usize = 16;
const RATE_REPS_MIN: usize = 9;

/// What one point-dimension of an unpruned Lloyd iteration cost on the
/// hosts the rate sample was sized on (0.07–0.13 ns measured): the price at
/// which [`rate_budget`] turns Train's nominal work into time.
const LLOYD_NS_PER_PD: f64 = 0.1;

/// The rate measurement's budget for a namespace whose unpruned Train
/// scores `train_point_dims` ([`harmony_index::Fitted::nominal_point_dims`]):
/// a 64th of that work at [`LLOYD_NS_PER_PD`]. This is the budget the
/// measurement had when it took a 64th of Train's clock and Train scored
/// every point-dim, but it follows from the namespace alone, not from how
/// fast the host ran Train. It decides how often the sample is repeated.
pub(crate) fn rate_budget(train_point_dims: u64) -> Duration {
    Duration::from_nanos((train_point_dims as f64 * LLOYD_NS_PER_PD / 64.0) as u64)
}

/// Threads that scan beside the timed one while the rates are measured:
/// the other workers of an `n_machines` deployment that the host's cores
/// run at the same time.
pub(crate) fn timing_peers(n_machines: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(n_machines).saturating_sub(1)
}

/// Counts its thread finished when dropped, also by a panic.
struct Finish<'a>(&'a AtomicUsize);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::AcqRel);
    }
}

/// What the rate measurement times, and for how long: the lists a query
/// from a seeded home list probes, nearest first — its whole probe set, so
/// the sample streams from where a real query's lists stream from (a
/// smaller one sits in the nearest cache and flatters the hops that scan it
/// most), up to a quarter of the namespace — repeated until `budget` is
/// spent.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RateSample {
    home: u32,
    /// The sample lists, nearest the home list first.
    probes: Vec<u32>,
    /// Rows the sample lists hold.
    rows: usize,
    budget: Duration,
}

impl RateSample {
    /// The sample of `view` for `nprobe`-list queries; `None` when every
    /// list is empty.
    pub(crate) fn draw(
        view: &SampleView<'_>,
        nprobe: usize,
        seed: u64,
        budget: Duration,
    ) -> Option<Self> {
        let nlist = view.centroids.len();
        let mut rng = SmallRng::seed_from_u64(seed);
        let start = rng.random_range(0..nlist.max(1));
        let home = (0..nlist)
            .map(|j| (start + j) % nlist)
            .find(|&c| view.exact.lists().len(c as u32) > 0)?;
        let row_cap = (view.rows() / 4).max(256);
        let mut probes: Vec<u32> = Vec::new();
        let mut rows = 0;
        for c in nearest_centroids(view.centroids.row(home), view.centroids, nprobe) {
            if rows >= row_cap {
                break;
            }
            rows += view.exact.lists().len(c);
            probes.push(c);
        }
        Some(Self {
            home: home as u32,
            probes,
            rows,
            budget,
        })
    }
}

/// Times the worker's scan routine over the namespace's [`RateSample`] —
/// cut to every candidate pipeline's slices, a few of the home list's rows
/// as queries with their real prewarm thresholds, every hop chained to the
/// next through its real carry, every pipeline once per repetition — hop by
/// hop: per pipeline, the first hop's time per candidate visit, and the
/// carried hops' together, each the fastest of the repetitions (what
/// disturbs a run — a preemption, a neighbour's cache traffic — only ever
/// adds time). Repetitions stop once they have taken the sample's budget.
/// Each pipeline's slice width gets the two times it measured
/// ([`ScanRates::measured`]).
///
/// The sample is timed the way workers scan: on `1 + peers` threads at
/// once ([`timing_peers`]), each timing its own repetitions and scanning
/// on untimed until all are done, their fastest times averaged. On one
/// thread of a quiet host, a first hop read 55–65 % of its time beside one
/// busy peer at 32 dimensions and 60–75 % at 64 (two vCPUs), and how quiet
/// the host was for the few milliseconds of the timing decided which of
/// the two a build saw: a near-tie between plans of different widths went
/// one way or the other from build to build.
pub(crate) fn measure_scan_rates(
    view: &SampleView<'_>,
    nprobe: usize,
    dim_blocks: &[usize],
    seed: u64,
    budget: Duration,
    peers: usize,
) -> Option<ScanRates> {
    let started = Instant::now();
    let dim = view.exact.lists().dim();
    let RateSample {
        home,
        probes,
        budget,
        ..
    } = RateSample::draw(view, nprobe, seed, budget)?;
    // A chunk lists its clusters ascending.
    let mut lists = probes.clone();
    lists.sort_unstable();
    let home_rows: Vec<&[f32]> = view.rows_of(home, 1).map(|(_, row)| row).collect();
    let asked = RATE_QUERIES.min(home_rows.len());
    let queries: Vec<&[f32]> = (0..asked)
        .map(|i| home_rows[i * home_rows.len() / asked])
        .collect();
    let thresholds: Vec<f32> = queries
        .iter()
        .map(|q| view.prewarm_threshold(q, &probes))
        .collect();

    let pipelines: Vec<Pipeline> = dim_blocks
        .iter()
        .filter(|&&hops| hops <= dim)
        .map(|&hops| Pipeline::cut(view, &lists, 1, hops))
        .collect();
    // Every query probes every sample list.
    let batches: Vec<Vec<ChunkBatch>> = pipelines
        .iter()
        .map(|pipeline| {
            (0..pipeline.blocks.len())
                .map(|position| pipeline.chunk(view, position, &queries, &thresholds, &lists))
                .collect()
        })
        .collect();
    let meta = NsMeta::new(view.metric, view.pruning);

    // Every thread times the sample the same way, then scans on untimed
    // until every thread is done, so no repetition is timed alone.
    let threads = 1 + peers;
    let finished = AtomicUsize::new(0);
    let time = || {
        let done = Finish(&finished);
        let mut scratch = Scratch::default();
        let mut fastest = vec![(f64::INFINITY, f64::INFINITY); pipelines.len()];
        let mut reps = 0;
        while reps < RATE_REPS && (reps < RATE_REPS_MIN || started.elapsed() < budget) {
            for ((pipeline, chunks), fastest) in pipelines.iter().zip(&batches).zip(&mut fastest) {
                let (hops, _) = pipeline.visit(meta, chunks.clone(), &mut scratch);
                let per_visit = |hops: &[(u64, u64)]| {
                    let (seen, ns) = hops.iter().fold((0, 0), |(s, t), &(n, d)| (s + n, t + d));
                    (seen > 0).then(|| ns as f64 / seen as f64)
                };
                let first = per_visit(&hops[..hops.len().min(1)]);
                let carried = per_visit(hops.get(1..).unwrap_or_default());
                fastest.0 = fastest.0.min(first.unwrap_or(f64::INFINITY));
                fastest.1 = fastest.1.min(carried.unwrap_or(f64::INFINITY));
            }
            reps += 1;
        }
        drop(done);
        'load: while finished.load(Ordering::Acquire) < threads {
            for (pipeline, chunks) in pipelines.iter().zip(&batches) {
                if finished.load(Ordering::Acquire) >= threads {
                    break 'load;
                }
                pipeline.visit(meta, chunks.clone(), &mut scratch);
            }
        }
        (fastest, reps)
    };
    // Per pipeline, each thread's fastest first-hop and carried-hop times
    // per visit, averaged over the threads.
    let (fastest, reps) = std::thread::scope(|s| {
        let peers: Vec<_> = (0..peers)
            .filter_map(|_| {
                std::thread::Builder::new()
                    .name("harmony-rate-peer".into())
                    .spawn_scoped(s, time)
                    .ok()
            })
            .collect();
        // A peer that could not start never counts itself finished.
        finished.fetch_add(threads - 1 - peers.len(), Ordering::AcqRel);
        let (mine, reps) = time();
        let mut runs = vec![mine];
        runs.extend(
            peers
                .into_iter()
                .filter_map(|p| p.join().ok().map(|(f, _)| f)),
        );
        let n = runs.len() as f64;
        let mut mean = vec![(0.0, 0.0); pipelines.len()];
        for run in &runs {
            for (m, t) in mean.iter_mut().zip(run) {
                *m = (m.0 + t.0 / n, m.1 + t.1 / n);
            }
        }
        (mean, reps)
    });
    let times: Vec<(usize, f64, Option<f64>)> = pipelines
        .iter()
        .zip(fastest)
        .map(|(pipeline, (first, carried))| {
            let carried = (pipeline.blocks.len() > 1).then_some(carried);
            (dim / pipeline.blocks.len(), first, carried)
        })
        .collect();
    (reps > 0).then(|| ScanRates::measured(&times))
}

/// Scan rates for a caller with no index at hand
/// ([`crate::CostModel::calibrate`]): [`measure_scan_rates`] over four
/// synthetic exact 128-d lists of a thousand rows, at full, half and
/// quarter width, on one thread: such a caller names no machine count.
pub(crate) fn synthetic_scan_rates() -> ScanRates {
    const DIM: usize = 128;
    const LISTS: usize = 4;
    const ROWS: usize = 1_000;
    let value = |i: usize| (i % 97) as f32 * 0.01 + (i / (ROWS * DIM)) as f32;
    let flat: Vec<f32> = (0..LISTS * ROWS * DIM).map(value).collect();
    let fallback = ScanRates::default();
    let Ok(store) = VectorStore::from_flat(DIM, flat) else {
        return fallback;
    };
    let centroids = store.gather(&(0..LISTS).map(|c| c * ROWS).collect::<Vec<_>>());
    let homes: Vec<u32> = (0..LISTS * ROWS).map(|r| (r / ROWS) as u32).collect();
    let Ok(exact) = ExactCopy::build(&store, &homes, LISTS) else {
        return fallback;
    };
    let Ok(prewarm) = PrewarmSamples::cut(8, 0, &exact.lists(), None) else {
        return fallback;
    };
    let view = SampleView {
        metric: Metric::L2,
        sq8: false,
        pruning: true,
        k: 10,
        estimates_per_visit: 10,
        centroids: &centroids,
        exact: &exact,
        prewarm: &prewarm,
    };
    let budget = Duration::from_millis(5);
    measure_scan_rates(&view, LISTS, &[1, 2, 4], 0, budget, 0).unwrap_or(fallback)
}

/// Queries the build-time survival sample scores.
const SURVIVAL_QUERIES: usize = 32;

/// Candidates entering each hop of each of `plans`' pipelines, for the
/// given queries probing `nprobe` lists each. Every `stride`-th row of each
/// probed list is cut to the pipeline's slices and stored the way a worker
/// stores them, and a query walks a plan the way the dispatch loop would
/// send it: its probes grouped into shard visits, nearest shard first, each
/// visit run hop by hop through the worker's own scan routine
/// ([`scan_hop`]) against the query's threshold — the k-th exact score the
/// client knows, as a session's is: it starts from the prewarm samples and
/// tightens between visits by what each visit answered, SQ8 answers
/// reranked exactly — every sampled row standing for the `stride` rows it
/// was drawn from.
/// With `stride` 1 the counts are the `slice_in` counters a deployment
/// running the plan reports for the same queries sent one by one, blocks
/// in order.
pub(crate) fn survivors_entering<'q>(
    view: &SampleView<'_>,
    queries: impl Iterator<Item = &'q [f32]>,
    nprobe: usize,
    plans: &[(PartitionPlan, &ShardAssignment)],
    stride: usize,
) -> Vec<Vec<u64>> {
    let dim = view.exact.lists().dim();
    let meta = NsMeta::new(view.metric, view.pruning);
    let queries: Vec<(&[f32], Vec<u32>)> = queries
        .map(|q| (q, nearest_centroids(q, view.centroids, nprobe)))
        .collect();
    let mut probed: Vec<u32> = queries
        .iter()
        .flat_map(|(_, p)| p.iter().copied())
        .collect();
    probed.sort_unstable();
    probed.dedup();
    let fresh = IdSet::default();
    let mut scratch = Scratch::default();
    plans
        .iter()
        .map(|(plan, assignment)| {
            let pipeline = Pipeline::cut(view, &probed, stride, plan.dim_blocks.clamp(1, dim));
            let mut entering = vec![0; pipeline.blocks.len()];
            for (query, probes) in &queries {
                let mut topk = TopK::new(view.k);
                let seeded =
                    view.prewarm
                        .seed(view.metric, query, probes, view.k, &fresh, &mut topk);
                for (_, mut clusters) in assignment.visits(probes) {
                    clusters.sort_unstable();
                    let chunks = (0..pipeline.blocks.len())
                        .map(|at| {
                            pipeline.chunk(view, at, &[query], &[topk.threshold()], &clusters)
                        })
                        .collect();
                    let (hops, answer) = pipeline.visit(meta, chunks, &mut scratch);
                    for (total, (seen, _)) in entering.iter_mut().zip(hops) {
                        *total += seen;
                    }
                    // The client merges the answer, skipping prewarm ids and
                    // reranking SQ8 estimates.
                    let answer = answer.iter().flat_map(|a| a.ids.iter().zip(&a.scores));
                    for (&id, &score) in answer.filter(|(id, _)| !seeded.contains(id)) {
                        let score = if view.sq8 {
                            let Some(row) = view.exact.vector(id) else {
                                continue;
                            };
                            view.metric.score(query, row)
                        } else {
                            score
                        };
                        for _ in 0..stride.max(1) {
                            topk.push(id, score);
                        }
                    }
                }
            }
            entering
        })
        .collect()
}

/// Rows of an average list a survival sample scores.
const SURVIVAL_ROWS_PER_LIST: usize = 16;

/// Sample queries for a build: a seeded, evenly spaced draw of the
/// namespace's own rows, `store`.
pub(crate) fn even_picks(store: &VectorStore, seed: u64) -> Vec<&[f32]> {
    let rows = store.len();
    let queries = SURVIVAL_QUERIES.min(rows);
    let mut rng = SmallRng::seed_from_u64(seed);
    let start = rng.random_range(0..rows.max(1));
    (0..queries)
        .map(|i| store.row((start + i * rows / queries) % rows))
        .collect()
}

/// A survival sample: `picks` as queries, every candidate
/// plan under the packing it would run with, and a row stride that leaves
/// an average list [`SURVIVAL_ROWS_PER_LIST`] rows — a few thousand scored
/// candidates per plan whatever the corpus, against the passes over all of
/// it Train made.
pub(crate) fn sample_survivors(
    view: &SampleView<'_>,
    picks: &[&[f32]],
    nprobe: usize,
    plans: &[(PartitionPlan, ShardAssignment)],
) -> Survivors {
    let mean_list = view.rows() / view.centroids.len().max(1);
    let stride = mean_list.div_ceil(SURVIVAL_ROWS_PER_LIST);
    let queries = picks.iter().copied();
    let plans: Vec<(PartitionPlan, &ShardAssignment)> =
        plans.iter().map(|(p, a)| (*p, a)).collect();
    let mut survivors = Survivors::default();
    let counts = survivors_entering(view, queries, nprobe, &plans, stride);
    for ((plan, _), entering) in plans.iter().zip(counts) {
        if let Some(fractions) = Survivors::fractions(&entering) {
            survivors.set(*plan, fractions);
        }
    }
    survivors
}

/// Messages per direction of one message-cost measurement.
const MESSAGE_FLOOD: usize = 64;

/// Floods per message-cost measurement; the fastest counts. Five let one
/// build in tens catch every flood in a slow moment (three times the
/// usual cost per message on loopback); sixteen add a few milliseconds
/// to a build over TCP.
const MESSAGE_FLOODS: usize = 16;

/// The fixed cost of one message on this deployment's own fabric, both ends
/// together: a flood of the smallest request the protocol has, each
/// answered by a worker, sender and receiver working in parallel the way
/// they do under load, so the wall time per request is one encode, send,
/// wake, receive and decode. The fastest of [`MESSAGE_FLOODS`] floods
/// counts: a flood caught in a slow moment (a wake-up delayed by a
/// neighbour on the same core) prices every message of the build's choice.
/// Runs on the building thread, before the session router takes the
/// receive path.
pub(crate) fn measure_message_ns(cluster: &mut Cluster) -> Result<f64, CoreError> {
    let mut best = f64::INFINITY;
    for _ in 0..MESSAGE_FLOODS {
        let t0 = Instant::now();
        for _ in 0..MESSAGE_FLOOD {
            cluster.send(0, ToWorker::GetStats.to_bytes())?;
        }
        for _ in 0..MESSAGE_FLOOD {
            let (_, payload) = cluster.recv_timeout(Duration::from_secs(30))?;
            ToClient::from_bytes(payload)?;
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / MESSAGE_FLOOD as f64);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_data::SyntheticSpec;
    use harmony_index::{KMeans, KMeansConfig};

    /// The rate sample — its lists, their rows and the budget — follows from
    /// the namespace alone: Train's nominal work fixes the budget, however
    /// long Train took to do it.
    #[test]
    fn the_rate_sample_is_a_function_of_the_namespace() {
        let base = SyntheticSpec::clustered(6_000, 24, 12)
            .with_seed(3)
            .generate()
            .base;
        let cfg = KMeansConfig {
            samples_per_centroid: Some(64),
            ..KMeansConfig::new(32, 9)
        };
        let draw = || {
            let fit = KMeans::fit(&base, &cfg).unwrap();
            let homes = fit.assign();
            let exact = ExactCopy::build(&base, &homes, 32).unwrap();
            let prewarm = PrewarmSamples::cut(8, 0, &exact.lists(), None).unwrap();
            let view = SampleView {
                metric: Metric::L2,
                sq8: false,
                pruning: true,
                k: 10,
                estimates_per_visit: 10,
                centroids: &fit.model.centroids,
                exact: &exact,
                prewarm: &prewarm,
            };
            let work = fit.nominal_point_dims();
            assert_eq!(work, 32 * 64 * 32 * 24 * fit.model.iterations as u64);
            RateSample::draw(&view, 8, 5, rate_budget(work)).unwrap()
        };
        let first = draw();
        // A second Train of the same namespace runs on another clock.
        assert_eq!(draw(), first);
        assert!(first.rows >= 256 && !first.probes.is_empty());

        // The budget is a 64th of the unpruned work at 0.1 ns per point-dim:
        // on the `scan_uniform` shape (32 768 sampled rows, 128 lists, 128
        // dims, 20 iterations) the 16.8 ms the clock rule gave there when
        // Train took ≈ 1.1 s.
        let scan_uniform = rate_budget(32_768 * 128 * 128 * 20);
        assert_eq!(scan_uniform, Duration::from_nanos(16_777_216));
    }

    /// Timed beside peers, the sample still measures every width of every
    /// pipeline, and the peers stop when the timing does — also when there
    /// are more of them than cores.
    #[test]
    fn peers_time_every_width_and_stop() {
        let base = SyntheticSpec::clustered(3_000, 24, 8)
            .with_seed(4)
            .generate()
            .base;
        let fit = KMeans::fit(&base, &KMeansConfig::new(8, 2)).unwrap();
        let homes = fit.assign();
        let exact = ExactCopy::build(&base, &homes, 8).unwrap();
        let prewarm = PrewarmSamples::cut(8, 0, &exact.lists(), None).unwrap();
        let view = SampleView {
            metric: Metric::L2,
            sq8: false,
            pruning: true,
            k: 10,
            estimates_per_visit: 10,
            centroids: &fit.model.centroids,
            exact: &exact,
            prewarm: &prewarm,
        };
        for peers in [0, 3] {
            let rates = measure_scan_rates(&view, 4, &[1, 2, 4], 5, Duration::ZERO, peers).unwrap();
            let widths = |series: &[(usize, f64)]| -> Vec<usize> {
                assert!(series.iter().all(|&(_, ns)| ns.is_finite() && ns > 0.0));
                series.iter().map(|&(w, _)| w).collect()
            };
            assert_eq!(widths(&rates.first), [6, 12, 24], "peers {peers}");
            assert_eq!(widths(&rates.carried), [6, 12], "peers {peers}");
        }
    }
}
