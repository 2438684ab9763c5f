//! The run scoring and the walk's shortcuts against the row-at-a-time
//! reference (`Scratch::by_rows`), hop by hop, bit for bit.
#![cfg(test)]

use super::*;
use crate::worker::scan::QuerySlot;
use crate::worker::score::{MetricOps, RunScratch, PREFIX, PREFIX_MIN_WIDTH};
use harmony_index::distance::l2_sq;
use harmony_index::{quant, DeltaList, TombstoneSet};

// --- Run scoring against the row-at-a-time oracle -------------------

/// The row at walk position `i` of a run: row `i` on the first hop, the
/// `i`-th pick on later ones.
fn oracle_row(buf: &RunScratch, i: usize) -> usize {
    buf.picks.get(i).map_or(i, |&r| r as usize)
}

/// The row-at-a-time exact scoring the blocked kernels replaced: one
/// `l2_sq` / `ip` call per candidate, `rows` being the run row-major.
pub(in crate::worker) fn score_f32_by_rows<M: MetricOps>(
    buf: &mut RunScratch,
    rows: &[f32],
    q: &[f32],
    len: usize,
) {
    let w = q.len();
    for i in 0..len {
        let r = oracle_row(buf, i);
        let row = &rows[r * w..(r + 1) * w];
        buf.partials[i] = if M::IP { -ip(q, row) } else { l2_sq(q, row) };
    }
}

/// The row-at-a-time SQ8 scoring the run scoring replaced: the query
/// prepared per `(query, list)` by `quant::prepare_block_query`, every
/// candidate scored through `quant::l2_partial_row` / `ip_dot_row`, and
/// every prune left to `settle`'s float test. Returns the run's slack.
pub(in crate::worker) fn score_sq8_by_rows<M: MetricOps>(
    buf: &mut RunScratch,
    (seg, max_block_norm_sq): (&Sq8Segment, f32),
    q: &[f32],
    slot: &QuerySlot,
    len: usize,
) -> f32 {
    let segs = std::slice::from_ref(seg);
    let bq = quant::prepare_block_query(segs, q, seg.dim_start);
    for i in 0..len {
        let row = oracle_row(buf, i);
        buf.partials[i] = if M::IP {
            -quant::ip_dot_row(segs, &bq, row)
        } else {
            quant::l2_partial_row(segs, &bq, row)
        };
    }
    M::sq8_eps(bq.err, bq.data_err, max_block_norm_sq, slot.q_block_norm_sq)
}

/// Width of the oracle fixture's vectors.
const OR_DIM: usize = 274;
/// Dimension ranges of the oracle fixture's pipelines: one hop over all
/// 274 dimensions; four hops, the first three of whose widths take a
/// 16-code step plus a scalar tail, plus the 8-code tail, and plus one
/// code; and three hops, the first two exactly the prefix pass's
/// eligibility width. So the L2 prefix pass runs on a first hop that
/// forwards and on one that answers, and is passed over on a narrower
/// first hop and on carried hops as wide as it.
const OR_SPLITS: [&[usize]; 3] = [
    &[0, OR_DIM],
    &[0, 21, 45, 62, OR_DIM],
    &[0, PREFIX_MIN_WIDTH, 2 * PREFIX_MIN_WIDTH, OR_DIM],
];
/// Rows per list: empty, short of a quad, across quad boundaries.
const OR_LISTS: [usize; 8] = [0, 1, 3, 4, 5, 9, 17, 30];

fn or_row(id: u64) -> Vec<f32> {
    (0..OR_DIM as u64)
        .map(|j| fx_coord(id * 67 + j) * (1 + j % 5) as f32)
        .collect()
}

/// The vector of the oracle's query 113.
const OR_EDGE: u64 = 4_343;
/// Where row 2 of list 4 departs from [`OR_EDGE`]'s vector: in the
/// first [`PREFIX`] coordinates only, by steps whose squares sum one
/// ulp higher in lane order 0..8, 7..0, `(t0+t2)+(t1+t3)` or adjacent
/// pairs than in the row kernels' tree — so a prefix summed in another
/// order drops the row the walk keeps.
const OR_EDGE_STEPS: [f32; PREFIX] = [-0.046, -0.78, -0.0057, 0.52, -0.64, -0.014, 0.14, -1.0];

/// Row 2 of list 4: [`OR_EDGE`]'s vector moved in its first
/// [`PREFIX`] coordinates, so the prefix pass sees the row's whole
/// score.
fn or_edge_row() -> Vec<f32> {
    let mut row = or_row(OR_EDGE);
    for (x, step) in row.iter_mut().zip(OR_EDGE_STEPS) {
        *x += step;
    }
    row
}

/// One machine's share of the oracle fixture: every list cut to
/// `range` (and quantized as `cut_list` does, under SQ8), and `deltas`
/// delta rows, all but the last below the chunks' watermark.
fn or_block(range: Range<usize>, is_ip: bool, sq8: bool, deltas: u64) -> (BlockStore, DeltaList) {
    let lists = OR_LISTS
        .iter()
        .enumerate()
        .map(|(l, &n)| {
            let ids: Vec<u64> = (0..n).map(|r| fx_list_id(l as u32, r)).collect();
            // List 5's rows are one vector: equal scores at the edges.
            let vector = |id: u64| match (l, id) {
                (5, _) => or_row(OR_TWIN),
                (4, id) if id == fx_list_id(4, 2) => or_edge_row(),
                _ => or_row(id),
            };
            let rows: Vec<Vec<f32>> = ids.iter().map(|&id| vector(id)).collect();
            let flat: Vec<f32> = rows
                .iter()
                .flat_map(|v| v[range.clone()].to_vec())
                .collect();
            let (block_norms_sq, total_norms_sq) = fx_norms(&rows, &range, is_ip);
            ClusterBlock {
                cluster: l as u32,
                ids,
                segs: if sq8 && n > 0 {
                    vec![Sq8Segment::quantize(&flat, range.len(), range.start as u64)]
                } else {
                    vec![]
                },
                flat: if sq8 { vec![] } else { flat },
                block_norms_sq,
                total_norms_sq,
            }
        })
        .collect();
    let mut delta = DeltaList::new(range.len());
    for i in 0..deltas {
        let v = or_row(900 + i);
        let (b, t) = fx_norms(std::slice::from_ref(&v), &range, is_ip);
        let seq = (i + 1).min(3) + u64::from(i + 1 == deltas);
        // One norm each under IP, none (so 0) under L2.
        delta.push(
            900 + i,
            seq,
            &v[range.clone()],
            b.iter().sum(),
            t.iter().sum(),
        );
    }
    let block = BlockStore::from_wire(range.start as u64, range.end as u64, lists);
    (block, delta)
}

/// The vector every row of list 5 of the oracle fixture holds.
const OR_TWIN: u64 = 4_242;

/// Twelve queries: random without a threshold, random with a moderate
/// one, and near a list row with that row's score as the threshold —
/// tight enough that the first hop prunes. A thirteenth is list 5's
/// vector with its own score as the threshold, so partials and top-k
/// bounds tie exactly: ties survive, as `settle` keeps them. A
/// fourteenth is [`OR_EDGE`]'s vector with the score of the row that
/// departs from it in its first [`PREFIX`] coordinates as the
/// threshold: that row's prefix partial equals the threshold exactly,
/// and it must survive the prefix pass.
fn or_queries(metric: Metric) -> Vec<FxQuery> {
    let twin = or_row(OR_TWIN);
    let mut queries: Vec<FxQuery> = (0..12u64)
        .map(|i| {
            let target = or_row(fx_list_id(7, i as usize));
            let vector: Vec<f32> = if i % 3 == 2 {
                target
                    .iter()
                    .zip(0u64..)
                    .map(|(x, j)| x + 0.05 * fx_coord(i * 131 + j))
                    .collect()
            } else {
                or_row(5_000 + i)
            };
            let threshold = if i % 3 == 0 {
                f32::INFINITY
            } else {
                metric.score(&vector, &target)
            };
            FxQuery {
                id: 100 + i,
                vector,
                clusters: (0..OR_LISTS.len() as u32)
                    .filter(|&l| (i + u64::from(l)) % 4 != 0)
                    .collect(),
                threshold,
            }
        })
        .collect();
    queries.push(FxQuery {
        id: 112,
        threshold: metric.score(&twin, &twin),
        vector: twin,
        clusters: (0..OR_LISTS.len() as u32).collect(),
    });
    let edge = or_row(OR_EDGE);
    queries.push(FxQuery {
        id: 113,
        threshold: metric.score(&edge, &or_edge_row()),
        vector: edge,
        clusters: (0..OR_LISTS.len() as u32).collect(),
    });
    queries
}

fn or_chunk(metric: Metric, queries: &[FxQuery], splits: &[usize], position: usize) -> ChunkBatch {
    let range = splits[position]..splits[position + 1];
    let mut clusters = Vec::new();
    let mut cluster_ends = Vec::new();
    for q in queries {
        clusters.extend_from_slice(&q.clusters);
        cluster_ends.push(clusters.len() as u32);
    }
    ChunkBatch {
        ns: 0,
        epoch: 0,
        shard: 0,
        k: 5,
        order: (0..splits.len() as u64 - 1).collect(),
        position: position as u32,
        delta_seq: 4, // the last delta row is past it
        legacy_reply: false,
        query_ids: queries.iter().map(|q| q.id).collect(),
        thresholds: queries.iter().map(|q| q.threshold).collect(),
        q_total_norms_sq: if metric == Metric::L2 {
            vec![]
        } else {
            queries.iter().map(|q| ip(&q.vector, &q.vector)).collect()
        },
        cluster_ends,
        clusters,
        dims: queries
            .iter()
            .flat_map(|q| q.vector[range.clone()].to_vec())
            .collect(),
    }
}

/// Everything a hop hands on, as bits: a carry's survivors, partials,
/// norms, slack and thresholds, or an answer's ids, scores and counts.
fn hop_bits(out: &HopOutput) -> Vec<Vec<u64>> {
    let bits = |v: &[f32]| -> Vec<u64> { v.iter().map(|x| u64::from(x.to_bits())).collect() };
    let wide = |v: &[u32]| -> Vec<u64> { v.iter().map(|&x| u64::from(x)).collect() };
    match out {
        HopOutput::Forward(c) => vec![
            wide(&c.survivor_ends),
            wide(&c.indices),
            bits(&c.partials),
            bits(&c.visited_norms_sq),
            bits(&c.q_visited_norms_sq),
            bits(&c.quant_eps),
            bits(&c.thresholds),
        ],
        HopOutput::Answer(r) => vec![
            wide(&r.result_ends),
            r.ids.clone(),
            bits(&r.scores),
            r.candidates_seen.clone(),
        ],
    }
}

/// One sub-batch down an oracle-fixture pipeline through `scan_hop`,
/// each hop's carry feeding the next: every hop's output as bits, and
/// its tally.
fn or_pipeline(
    meta: NsMeta,
    blocks: &[(BlockStore, DeltaList)],
    tombstones: &TombstoneSet,
    splits: &[usize],
    queries: &[FxQuery],
    scratch: &mut Scratch,
) -> Vec<(Vec<Vec<u64>>, [u64; 3])> {
    let mut carry = None;
    let mut hops = Vec::new();
    for (position, (block, delta)) in blocks.iter().enumerate() {
        let chunk = or_chunk(meta.metric, queries, splits, position);
        let (out, t) = scan_hop(
            meta,
            tombstones,
            Some(block),
            Some(delta),
            chunk,
            carry.as_ref(),
            scratch,
        );
        hops.push((hop_bits(&out), [t.seen, t.pruned, t.scanned_point_dims]));
        carry = match out {
            HopOutput::Forward(c) => Some(c),
            HopOutput::Answer(_) => None,
        };
    }
    hops
}

/// Run scoring is an execution strategy, not a different computation.
/// Exact rows go through the blocked f32 kernels (the first hop's
/// register tile over every query probing a list, the carried hops'
/// four-row gather) and, under L2 on first hops at least
/// [`PREFIX_MIN_WIDTH`] wide, the prefix pass first; SQ8 quantizes once
/// per `(query, list)` and scores with the blocked u8 kernels and the
/// integer cutoff; and the walk takes its L2 shortcuts (compaction, the
/// last hop's pre-filter). Against row-at-a-time scoring with every
/// candidate settled one by one, every hop of a one-hop, a four-hop and
/// a three-hop pipeline (first, carried and last positions) hands on
/// the same carry (survivor indices, partial and `quant_eps` bits) or
/// answer (ids, score bits) and counts the same tally, under both
/// representations, L2, IP and cosine, pruning on and off, with delta
/// rows and tombstones in play, as a sub-batch and query by query.
#[test]
fn run_scoring_matches_row_oracle() {
    let mut tombstones = TombstoneSet::new();
    tombstones.insert(fx_list_id(6, 3), 2);
    tombstones.insert(900, 2);
    let mut runs = Scratch::default();
    let mut rows = Scratch::default();
    rows.by_rows = true;
    for sq8 in [false, true] {
        let mut first_hop_pruned = 0;
        runs.run.prefix_dropped = 0;
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            let queries = or_queries(metric);
            for splits in OR_SPLITS {
                let blocks: Vec<_> = splits
                    .windows(2)
                    .map(|r| or_block(r[0]..r[1], metric != Metric::L2, sq8, 4))
                    .collect();
                for pruning in [true, false] {
                    let meta = NsMeta::new(metric, pruning);
                    let mut check = |qs: &[FxQuery]| {
                        let got = or_pipeline(meta, &blocks, &tombstones, splits, qs, &mut runs);
                        let want = or_pipeline(meta, &blocks, &tombstones, splits, qs, &mut rows);
                        let ids: Vec<u64> = qs.iter().map(|q| q.id).collect();
                        assert_eq!(
                            got, want,
                            "sq8={sq8} {metric:?} {splits:?} pruning={pruning}: {ids:?}"
                        );
                        got
                    };
                    let batch = check(&queries);
                    if metric == Metric::L2 && pruning && splits.len() > 2 {
                        first_hop_pruned += batch[0].1[1];
                    }
                    for q in &queries {
                        check(std::slice::from_ref(q));
                    }
                }
            }
        }
        assert!(
            first_hop_pruned > 0,
            "sq8={sq8}: the L2 first hop never pruned"
        );
        // Under SQ8 the exact delta rows take it.
        assert!(
            runs.run.prefix_dropped > 0,
            "sq8={sq8}: the prefix pass never dropped a candidate"
        );
    }
}

/// A delta prefix longer than one group ([`DELTA_RUN_ROWS`]) is walked as
/// several, each addressing its own rows: against the row oracle every
/// hop hands on the same bits, under both representations and every
/// metric; under L2 a query equal to a delta row on either side of a
/// group boundary finds that row first; and a first-hop tile's partials
/// stay within queries × [`DELTA_RUN_ROWS`].
#[test]
fn delta_rows_past_one_group_match_row_oracle() {
    use crate::worker::scan::DELTA_RUN_ROWS;
    let deltas = 2 * DELTA_RUN_ROWS + 88;
    let at = [
        1,
        DELTA_RUN_ROWS - 1,
        DELTA_RUN_ROWS,
        2 * DELTA_RUN_ROWS + 1,
        deltas - 2,
    ];
    let mut tombstones = TombstoneSet::new();
    tombstones.insert(900, 2);
    let (mut runs, mut rows) = (Scratch::default(), Scratch::default());
    rows.by_rows = true;
    for sq8 in [false, true] {
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            let mut queries = or_queries(metric);
            queries.extend(at.iter().map(|&i| FxQuery {
                id: 200 + i as u64,
                vector: or_row(900 + i as u64),
                clusters: vec![],
                threshold: f32::INFINITY,
            }));
            for splits in OR_SPLITS {
                let blocks: Vec<_> = splits
                    .windows(2)
                    .map(|r| or_block(r[0]..r[1], metric != Metric::L2, sq8, deltas as u64))
                    .collect();
                let meta = NsMeta::new(metric, true);
                runs.run.partials.clear();
                let got = or_pipeline(meta, &blocks, &tombstones, splits, &queries, &mut runs);
                let want = or_pipeline(meta, &blocks, &tombstones, splits, &queries, &mut rows);
                assert_eq!(got, want, "sq8={sq8} {metric:?} {splits:?}");
                assert!(runs.run.partials.len() <= queries.len() * DELTA_RUN_ROWS);
                // The answer's result ends, then its ids.
                let answer = &got[got.len() - 1].0;
                for (q, &i) in (queries.len() - at.len()..).zip(&at) {
                    let first = answer[1][answer[0][q - 1] as usize];
                    assert!(
                        metric != Metric::L2 || first == 900 + i as u64,
                        "{splits:?} {i}"
                    );
                }
            }
        }
    }
}
