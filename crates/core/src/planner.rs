//! What the plan choice measures before it chooses (§4.2.1's inputs, taken
//! from the deployment instead of assumed): the worker scan's two rates,
//! timed through the worker's own scan routine on a sample of the
//! namespace's real lists at every candidate slice width; the survivors
//! entering each hop of every candidate pipeline, sampled from the
//! namespace's own rows against the prewarm thresholds its queries will
//! start with; and the fabric's fixed cost per message. [`crate::cost`]
//! prices plans from the results and never reads a clock itself.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use harmony_cluster::{Cluster, Wire};
use harmony_index::distance::ip;
use harmony_index::kmeans::nearest_centroids;
use harmony_index::{DimRange, Metric, TombstoneSet, TopK, VectorStore};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cost::{ScanRates, Survivors};
use crate::engine::{cut_list, BaseStore, PrewarmSamples};
use crate::error::CoreError;
use crate::messages::{ChunkBatch, ResultBatch, ToClient, ToWorker};
use crate::partition::{PartitionPlan, ShardAssignment};
use crate::worker::{scan_hop, BlockStore, HopOutput, NsMeta, Scratch};

/// Where a sampler finds the members of a list among the rows of the
/// namespace's exact store: the build's row lists, or a live namespace's
/// member ids through its id map.
pub(crate) trait ListRows {
    /// Members of list `c`.
    fn len(&self, c: u32) -> usize;
    /// The store row of list `c`'s `i`-th member (`None` once it is gone).
    fn row(&self, c: u32, i: usize) -> Option<usize>;
}

impl ListRows for Vec<Vec<usize>> {
    fn len(&self, c: u32) -> usize {
        self[c as usize].len()
    }
    fn row(&self, c: u32, i: usize) -> Option<usize> {
        self[c as usize].get(i).copied()
    }
}

/// What the samplers read of a namespace — its build inputs before the
/// state exists, the state's own fields afterwards.
pub(crate) struct SampleView<'a> {
    pub(crate) metric: Metric,
    pub(crate) sq8: bool,
    pub(crate) pruning: bool,
    /// Results a query asks for (sizes the prewarm budget).
    pub(crate) k: usize,
    /// Stage-1 heap size (`k × rerank_scale` under SQ8).
    pub(crate) stage1_k: usize,
    pub(crate) centroids: &'a VectorStore,
    /// The namespace's exact vectors.
    pub(crate) store: &'a VectorStore,
    /// Rows of `store` per list.
    pub(crate) lists: &'a dyn ListRows,
    pub(crate) prewarm: &'a PrewarmSamples,
}

impl SampleView<'_> {
    /// The threshold a query starts its first shard visit with.
    fn prewarm_threshold(&self, query: &[f32], probes: &[u32]) -> f32 {
        let mut topk = TopK::new(self.stage1_k);
        let fresh = HashSet::new();
        self.prewarm
            .seed(self.metric, query, probes, self.k, &fresh, &mut topk);
        topk.threshold()
    }

    /// Every `stride`-th row of list `c`.
    fn rows_of(&self, c: u32, stride: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.lists.len(c))
            .step_by(stride.max(1))
            .filter_map(move |i| self.lists.row(c, i))
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
        let ranges = DimRange::split(view.store.dim(), hops);
        let blocks = ranges
            .iter()
            .map(|range| {
                let cut = |&c: &u32| {
                    let rows: Vec<usize> = view.rows_of(c, stride).collect();
                    cut_list(view.store, c, rows.into_iter(), *range, is_ip, view.sq8)
                };
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
            k: view.stage1_k as u32,
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
    /// carries. Returns the candidates that entered each position and the
    /// visit's answer.
    fn visit(
        &self,
        meta: NsMeta,
        chunks: Vec<ChunkBatch>,
        scratch: &mut Scratch,
    ) -> (Vec<u64>, Option<ResultBatch>) {
        let mut entering = Vec::with_capacity(chunks.len());
        let mut carry = None;
        for (block, chunk) in self.blocks.iter().zip(chunks) {
            let carried = carry.as_ref();
            let (out, tally) = scan_hop(
                meta,
                &self.tombstones,
                Some(block),
                None,
                chunk,
                carried,
                scratch,
            );
            entering.push(tally.seen);
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

/// Roughly what one sample row costs the rate measurement: cut to every
/// pipeline's slices, then scanned by [`RATE_QUERIES`] queries a few
/// times. Sizes the sample to the budget.
const SAMPLE_ROW_NS: u128 = 1_000;

/// What one point-dimension of an unpruned Lloyd iteration cost on the
/// hosts the rate sample was sized on (0.07–0.13 ns measured): the price at
/// which [`rate_budget`] turns Train's nominal work into time.
const LLOYD_NS_PER_PD: f64 = 0.1;

/// The rate measurement's budget for a namespace whose unpruned Train
/// scores `train_point_dims` ([`harmony_index::Fitted::nominal_point_dims`]):
/// a 64th of that work at [`LLOYD_NS_PER_PD`]. This is the budget the
/// measurement had when it took a 64th of Train's clock and Train scored
/// every point-dim — so it draws the sample it drew then — but it follows
/// from the namespace alone, not from how fast the host ran Train.
pub(crate) fn rate_budget(train_point_dims: u64) -> Duration {
    Duration::from_nanos((train_point_dims as f64 * LLOYD_NS_PER_PD / 64.0) as u64)
}

/// What the rate measurement times, and for how long: the lists a query
/// from a seeded home list would probe, nearest first, until the sample
/// holds the rows `budget` pays for (at least 256, at most a quarter of the
/// namespace; a sample the size of one query's real probe set streams from
/// where real lists stream from, a smaller one sits in the nearest cache
/// and flatters wide slices).
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
            .find(|&c| view.lists.len(c as u32) > 0)?;
        let total = view.store.len();
        let row_cap =
            ((budget.as_nanos() / SAMPLE_ROW_NS) as usize).clamp(256, (total / 4).max(256));
        let mut probes: Vec<u32> = Vec::new();
        let mut rows = 0;
        for c in nearest_centroids(view.centroids.row(home), view.centroids, nprobe) {
            if rows >= row_cap {
                break;
            }
            rows += view.lists.len(c);
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
/// next through its real carry, every pipeline once per repetition.
/// Repetitions stop once they have taken the sample's budget. The per-visit
/// times become rates through [`ScanRates::from_visit_times`].
pub(crate) fn measure_scan_rates(
    view: &SampleView<'_>,
    nprobe: usize,
    dim_blocks: &[usize],
    seed: u64,
    budget: Duration,
) -> Option<ScanRates> {
    let started = Instant::now();
    let dim = view.store.dim();
    let RateSample {
        home,
        probes,
        budget,
        ..
    } = RateSample::draw(view, nprobe, seed, budget)?;
    // A chunk lists its clusters ascending.
    let mut lists = probes.clone();
    lists.sort_unstable();
    let home_rows: Vec<usize> = view.rows_of(home, 1).collect();
    let asked = RATE_QUERIES.min(home_rows.len());
    let queries: Vec<&[f32]> = (0..asked)
        .map(|i| view.store.row(home_rows[i * home_rows.len() / asked]))
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
    let chunks = |pipeline: &Pipeline| -> Vec<ChunkBatch> {
        (0..pipeline.blocks.len())
            .map(|position| pipeline.chunk(view, position, &queries, &thresholds, &lists))
            .collect()
    };

    // Per repetition, every pipeline's time per visit, back to back.
    let meta = NsMeta::new(view.metric, view.pruning);
    let mut scratch = Scratch::default();
    let mut reps: Vec<Vec<f64>> = Vec::new();
    while reps.len() < RATE_REPS && (reps.len() < RATE_REPS_MIN || started.elapsed() < budget) {
        let mut rep = Vec::with_capacity(pipelines.len());
        for pipeline in &pipelines {
            let chunks = chunks(pipeline);
            let t0 = Instant::now();
            let (entering, _) = pipeline.visit(meta, chunks, &mut scratch);
            let visits: u64 = entering.iter().sum();
            rep.push(t0.elapsed().as_nanos() as f64 / visits.max(1) as f64);
        }
        reps.push(rep);
    }
    // Per pipeline the fastest repetition counts: what disturbs a run — a
    // preemption, a neighbour's cache traffic — only ever adds time.
    let times: Vec<(usize, f64)> = pipelines
        .iter()
        .enumerate()
        .map(|(p, pipeline)| {
            let fastest = reps.iter().map(|rep| rep[p]).fold(f64::INFINITY, f64::min);
            (dim / pipeline.blocks.len(), fastest)
        })
        .collect();
    (!reps.is_empty()).then(|| ScanRates::from_visit_times(&times))
}

/// Scan rates for a caller with no index at hand
/// ([`crate::CostModel::calibrate`]): [`measure_scan_rates`] over four
/// synthetic exact 128-d lists of a thousand rows, at full, half and
/// quarter width.
pub(crate) fn synthetic_scan_rates() -> ScanRates {
    const DIM: usize = 128;
    const LISTS: usize = 4;
    const ROWS: usize = 1_000;
    let value = |i: usize| (i % 97) as f32 * 0.01 + (i / (ROWS * DIM)) as f32;
    let flat: Vec<f32> = (0..LISTS * ROWS * DIM).map(value).collect();
    let fallback = ScanRates::flat(0.0, 0.0);
    let Ok(store) = VectorStore::from_flat(DIM, flat) else {
        return fallback;
    };
    let centroids = store.gather(&(0..LISTS).map(|c| c * ROWS).collect::<Vec<_>>());
    let list_rows: Vec<Vec<usize>> = (0..LISTS)
        .map(|c| (c * ROWS..(c + 1) * ROWS).collect())
        .collect();
    // Ids are row numbers.
    let members: Vec<Vec<u64>> = list_rows
        .iter()
        .map(|rows| rows.iter().map(|&r| r as u64).collect())
        .collect();
    let base = BaseStore::over(store);
    let Ok(prewarm) = PrewarmSamples::cut(8, 0, &members, &base, None) else {
        return fallback;
    };
    let view = SampleView {
        metric: Metric::L2,
        sq8: false,
        pruning: true,
        k: 10,
        stage1_k: 10,
        centroids: &centroids,
        store: &base.store,
        lists: &list_rows,
        prewarm: &prewarm,
    };
    let budget = Duration::from_millis(5);
    measure_scan_rates(&view, LISTS, &[1, 2, 4], 0, budget).unwrap_or(fallback)
}

/// Queries the build-time survival sample scores.
const SURVIVAL_QUERIES: usize = 32;

/// Candidates entering each hop of each of `plans`' pipelines, for the
/// given queries probing `nprobe` lists each. Every `stride`-th row of each
/// probed list is cut to the pipeline's slices and stored the way a worker
/// stores them, and a query walks a plan the way the dispatch loop would
/// send it: its probes grouped into shard visits, nearest shard first, each
/// visit run hop by hop through the worker's own scan routine
/// ([`scan_hop`]) against the query's threshold, which starts from the
/// prewarm samples and tightens between visits by what each visit answered
/// — every sampled row standing for the `stride` rows it was drawn from.
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
    let dim = view.store.dim();
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
    let fresh = HashSet::new();
    let mut scratch = Scratch::default();
    plans
        .iter()
        .map(|(plan, assignment)| {
            let pipeline = Pipeline::cut(view, &probed, stride, plan.dim_blocks.clamp(1, dim));
            let mut entering = vec![0; pipeline.blocks.len()];
            for (query, probes) in &queries {
                let mut topk = TopK::new(view.stage1_k);
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
                    let (seen, answer) = pipeline.visit(meta, chunks, &mut scratch);
                    for (total, seen) in entering.iter_mut().zip(seen) {
                        *total += seen;
                    }
                    // The client merges the answer, skipping prewarm ids.
                    let answer = answer.iter().flat_map(|a| a.ids.iter().zip(&a.scores));
                    for (&id, &score) in answer.filter(|(id, _)| !seeded.contains(id)) {
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
/// namespace's own rows.
pub(crate) fn even_picks(view: &SampleView<'_>, seed: u64) -> Vec<usize> {
    let rows = view.store.len();
    let queries = SURVIVAL_QUERIES.min(rows);
    let mut rng = SmallRng::seed_from_u64(seed);
    let start = rng.random_range(0..rows.max(1));
    (0..queries)
        .map(|i| (start + i * rows / queries) % rows)
        .collect()
}

/// A survival sample: the store rows `picks` as queries, every candidate
/// plan under the packing it would run with, and a row stride that leaves
/// an average list [`SURVIVAL_ROWS_PER_LIST`] rows — a few thousand scored
/// candidates per plan whatever the corpus, against the passes over all of
/// it Train made.
pub(crate) fn sample_survivors(
    view: &SampleView<'_>,
    picks: &[usize],
    nprobe: usize,
    plans: &[(PartitionPlan, ShardAssignment)],
) -> Survivors {
    let mean_list = view.store.len() / view.centroids.len().max(1);
    let stride = mean_list.div_ceil(SURVIVAL_ROWS_PER_LIST);
    let queries = picks.iter().map(|&r| view.store.row(r));
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

/// The fixed cost of one message on this deployment's own fabric, both ends
/// together: a flood of the smallest request the protocol has, each
/// answered by a worker, sender and receiver working in parallel the way
/// they do under load, so the wall time per request is one encode, send,
/// wake, receive and decode. The faster of two floods counts. Runs on the
/// building thread, before the session router takes the receive path.
pub(crate) fn measure_message_ns(cluster: &mut Cluster) -> Result<f64, CoreError> {
    let mut best = f64::INFINITY;
    for _ in 0..2 {
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
            let mut lists = vec![Vec::new(); 32];
            for (row, c) in fit.assign().into_iter().enumerate() {
                lists[c as usize].push(row);
            }
            let members: Vec<Vec<u64>> = lists
                .iter()
                .map(|rows: &Vec<usize>| rows.iter().map(|&r| r as u64).collect())
                .collect();
            let store = BaseStore::over(base.clone());
            let prewarm = PrewarmSamples::cut(8, 0, &members, &store, None).unwrap();
            let view = SampleView {
                metric: Metric::L2,
                sq8: false,
                pruning: true,
                k: 10,
                stage1_k: 10,
                centroids: &fit.model.centroids,
                store: &base,
                lists: &lists,
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
}
