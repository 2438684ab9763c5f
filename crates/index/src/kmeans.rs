//! Seeded k-means clustering (k-means++ initialization + Lloyd iterations)
//! that scores only the distances able to change an answer.
//!
//! Every engine in the Harmony evaluation — Faiss-like single-node, the three
//! Harmony distribution modes, and the Auncel-like baseline — must share "the
//! same clustering algorithm and number of clusters" (paper §6.1) so that the
//! measured differences come from the distribution strategy alone. This
//! module is that shared algorithm.
//!
//! # Pruning
//!
//! Train returns what the plain algorithm returns — the same centroids,
//! inertia and iteration count, bit for bit — while skipping every distance
//! the triangle inequality proves cannot change a row's nearest centroid:
//!
//! * every row keeps one lower bound on its distance to every centroid but
//!   its own (Hamerly), shrunk by how far the centroids move;
//! * every centroid keeps the others sorted by their distance to it;
//! * a row always scores its own centroid (the inertia needs that
//!   distance). It keeps the centroid when that distance is below half the
//!   gap to the centroid's nearest neighbour or below the row's bound;
//!   otherwise it scores the centroid's neighbours, nearest first, until they
//!   lie more than twice its distance away.
//!
//! Every test carries a relative slack ([`SLACK`]) and an absolute floor
//! ([`FLOOR`]) far above what f32 rounding can move a distance, so a row is
//! skipped only where its f32 argmin — lowest index on ties, as in
//! [`nearest_centroid`] — cannot differ. Data whose squared distances could
//! overflow f32 is scored in full. k-means++ seeding skips rows the same way,
//! and its nearest-seed array is the first Lloyd iteration's assignment, so
//! that iteration scores nothing. Add ([`Fitted::assign`]) continues from
//! Train's final bounds. Extra memory: O(rows + k²).
//!
//! Determinism: given the same data and [`KMeansConfig::seed`], training
//! produces bit-identical centroids regardless of available parallelism.
//! Rows are scored in fixed blocks, whichever thread takes a block; the
//! inertia is summed within each block and then over blocks in order;
//! centroid accumulation runs serially in row order.

use rand::distr::weighted::WeightedIndex;
use rand::prelude::*;

use crate::distance::{l2_sq, Metric};
use crate::error::IndexError;
use crate::vector::VectorStore;

/// Configuration for k-means training.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters (`nlist` in IVF terms).
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Relative improvement in inertia below which training stops early.
    pub tol: f64,
    /// RNG seed; equal seeds give bit-identical results.
    pub seed: u64,
    /// If set, train on at most `k * samples_per_centroid` points sampled
    /// uniformly (Faiss-style subsampling for large datasets).
    pub samples_per_centroid: Option<usize>,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 16,
            max_iters: 20,
            tol: 1e-4,
            seed: 0x4A12_9E55,
            samples_per_centroid: Some(256),
        }
    }
}

impl KMeansConfig {
    /// Convenience constructor fixing `k` and `seed`.
    pub fn new(k: usize, seed: u64) -> Self {
        Self {
            k,
            seed,
            ..Self::default()
        }
    }
}

/// A trained k-means model.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// The `k` centroids (ids are `0..k`).
    pub centroids: VectorStore,
    /// Final inertia: sum of squared distances of training points to their
    /// assigned centroid.
    pub inertia: f64,
    /// Number of Lloyd iterations actually executed.
    pub iterations: usize,
}

/// Train's outcome together with what Add continues from: the training
/// input, the rows of it Train saw, and where Train left each of them.
#[derive(Debug)]
pub struct Fitted<'a> {
    /// The trained model.
    pub model: KMeans,
    data: &'a VectorStore,
    /// Rows of `data` Train saw, ascending (`None`: every row).
    seen: Option<Vec<usize>>,
    /// Per seen row: its last assignment and its bound, valid against the
    /// final centroids.
    rows: Vec<RowState>,
    prune: bool,
    threads: usize,
}

impl KMeans {
    /// Trains k-means on `data`.
    ///
    /// # Errors
    /// * [`IndexError::InvalidParameter`] if `k`, `max_iters` or
    ///   `samples_per_centroid` is 0.
    /// * [`IndexError::NotEnoughData`] if `data.len() < k`.
    /// * [`IndexError::NonFinite`] if a row holds a NaN or infinite
    ///   coordinate.
    pub fn train(data: &VectorStore, cfg: &KMeansConfig) -> Result<Self, IndexError> {
        Ok(Self::fit(data, cfg)?.model)
    }

    /// Trains k-means on `data` and keeps what assigning `data` itself
    /// ([`Fitted::assign`]) continues from.
    ///
    /// # Errors
    /// As [`KMeans::train`].
    pub fn fit<'a>(data: &'a VectorStore, cfg: &KMeansConfig) -> Result<Fitted<'a>, IndexError> {
        fit(data, cfg, available_threads())
    }

    /// Assigns every row of `data` to its nearest centroid.
    pub fn assign(&self, data: &VectorStore) -> Vec<u32> {
        let mut out = vec![0u32; data.len()];
        over_blocks(&mut out, available_threads(), |first, block| {
            for (off, slot) in block.iter_mut().enumerate() {
                *slot = nearest_centroid(data.row(first + off), &self.centroids).0;
            }
        });
        out
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }
}

impl<'a> Fitted<'a> {
    /// The rows Train was given (all of them, subsampled or not).
    pub fn data(&self) -> &'a VectorStore {
        self.data
    }

    /// Add: every row of the training input to its nearest centroid — the
    /// same answer as [`KMeans::assign`], with the rows Train saw continuing
    /// from their bounds and the others scored in full.
    pub fn assign(&self) -> Vec<u32> {
        let mut rows = match &self.seen {
            None => self.rows.clone(),
            Some(seen) => {
                let mut rows = vec![RowState::UNSEEN; self.data.len()];
                for (&row, state) in seen.iter().zip(&self.rows) {
                    rows[row] = *state;
                }
                rows
            }
        };
        let centroids = &self.model.centroids;
        let neighbours = self.prune.then(|| Neighbours::new(centroids));
        lloyd_pass(
            self.data,
            centroids,
            neighbours.as_ref(),
            &mut rows,
            self.threads,
        );
        rows.into_iter().map(|r| r.near).collect()
    }

    /// Point-dimensions an unpruned Train scores for this model: every row
    /// it saw against every centroid, once per iteration.
    pub fn nominal_point_dims(&self) -> u64 {
        let model = &self.model;
        [
            self.rows.len(),
            model.k(),
            model.centroids.dim(),
            model.iterations,
        ]
        .into_iter()
        .map(|n| n as u64)
        .product()
    }
}

/// Relative slack of every pruning test: a skip must hold with distances
/// off by this factor, far beyond the f32 rounding of a distance.
const SLACK: f32 = 1e-3;

/// Absolute slack of every pruning test, as a distance: far beyond what
/// underflowing squares of tiny differences can hide.
const FLOOR: f32 = 1e-18;

/// Rows per block: the unit threads take turns on, and the unit the inertia
/// is summed over, so the sum does not depend on the thread count.
const BLOCK_ROWS: usize = 1024;

/// Where the last pass left one row.
#[derive(Debug, Clone, Copy)]
struct RowState {
    /// Its centroid (lowest index on ties).
    near: u32,
    /// Squared distance to `near`.
    dist: f32,
    /// Lower bound on its distance (not squared) to every other centroid.
    lower: f32,
}

impl RowState {
    /// A row Train never saw: with no centroid to start from, it scores
    /// every centroid.
    const UNSEEN: Self = Self {
        near: u32::MAX,
        dist: 0.0,
        lower: 0.0,
    };
}

/// How far another centroid must lie from a row's centroid (at distance
/// `root` from the row) before it cannot be nearer the row, with slack.
fn reach(root: f32) -> f32 {
    2.0 * (root * (1.0 + SLACK) + FLOOR)
}

/// Whether every squared distance between points of a `dim`-dimensional
/// box of half-width `magnitude` — the data and therefore its centroids —
/// stays finite in f32, with room for the bounds' arithmetic.
fn prunable(dim: usize, magnitude: f32) -> bool {
    let span = 2.0 * f64::from(magnitude);
    dim as f64 * span * span * 4.0 < f64::from(f32::MAX)
}

/// The rows Train samples, ascending, when `cfg` subsamples `n` rows
/// (Faiss-style); `None` trains on every row.
fn sample_rows(n: usize, cfg: &KMeansConfig, rng: &mut StdRng) -> Option<Vec<usize>> {
    let want = cfg.k * cfg.samples_per_centroid?;
    if n <= want {
        return None;
    }
    let mut rows: Vec<usize> = (0..n).collect();
    rows.shuffle(rng);
    rows.truncate(want);
    rows.sort_unstable();
    Some(rows)
}

/// Checks `cfg` against `data`; returns whether Train may prune on it.
fn validate(data: &VectorStore, cfg: &KMeansConfig) -> Result<bool, IndexError> {
    if cfg.k == 0 {
        return Err(IndexError::InvalidParameter("k must be > 0".into()));
    }
    if cfg.max_iters == 0 {
        return Err(IndexError::InvalidParameter("max_iters must be > 0".into()));
    }
    if cfg.samples_per_centroid == Some(0) {
        let msg = "samples_per_centroid must be > 0".into();
        return Err(IndexError::InvalidParameter(msg));
    }
    if data.len() < cfg.k {
        return Err(IndexError::NotEnoughData {
            required: cfg.k,
            available: data.len(),
        });
    }
    Ok(prunable(data.dim(), data.max_magnitude()?))
}

/// [`KMeans::fit`] on `threads` threads.
fn fit<'a>(
    data: &'a VectorStore,
    cfg: &KMeansConfig,
    threads: usize,
) -> Result<Fitted<'a>, IndexError> {
    let prune = validate(data, cfg)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let seen = sample_rows(data.len(), cfg, &mut rng);
    let sampled = seen.as_ref().map(|rows| data.gather(rows));
    let train_data = sampled.as_ref().unwrap_or(data);

    let (mut centroids, mut rows) = seed_centroids(train_data, cfg.k, &mut rng, prune, threads)?;
    let mut prev_inertia = f64::INFINITY;
    let mut inertia = f64::INFINITY;
    let mut iterations = 0;

    for iter in 0..cfg.max_iters {
        iterations = iter + 1;
        inertia = if iter == 0 {
            // Seeding left every row scored against every seed.
            rows.chunks(BLOCK_ROWS).map(block_inertia).sum()
        } else {
            let neighbours = prune.then(|| Neighbours::new(&centroids));
            lloyd_pass(
                train_data,
                &centroids,
                neighbours.as_ref(),
                &mut rows,
                threads,
            )
        };
        let before = prune.then(|| centroids.clone());
        let assignments = rows.iter().map(|r| r.near);
        recompute_centroids(train_data, assignments, &mut centroids, &mut rng);
        if let Some(before) = before {
            shift_bounds(&before, &centroids, &mut rows);
        }
        if prev_inertia.is_finite() {
            let denom = prev_inertia.abs().max(f64::MIN_POSITIVE);
            if (prev_inertia - inertia) / denom < cfg.tol {
                break;
            }
        }
        prev_inertia = inertia;
    }

    Ok(Fitted {
        model: KMeans {
            centroids,
            inertia,
            iterations,
        },
        data,
        seen,
        rows,
        prune,
        threads,
    })
}

/// k-means++ seeding (Arthur & Vassilvitskii 2007). Returns the seeds and,
/// per row, its nearest seed (lowest index on ties), the squared distance
/// to it and a bound on its distance to every other seed: the first Lloyd
/// iteration's assignment, already scored. A new seed is scored only
/// against rows whose nearest seed lies within [`reach`] of it.
fn seed_centroids(
    data: &VectorStore,
    k: usize,
    rng: &mut StdRng,
    prune: bool,
    threads: usize,
) -> Result<(VectorStore, Vec<RowState>), IndexError> {
    let n = data.len();
    let mut centroids = VectorStore::with_capacity(data.dim(), k);
    let first = rng.random_range(0..n);
    centroids.push(0, data.row(first))?;
    let mut rows = vec![
        RowState {
            near: 0,
            dist: 0.0,
            lower: f32::INFINITY,
        };
        n
    ];
    over_blocks(&mut rows, threads, |first, block| {
        for (off, r) in block.iter_mut().enumerate() {
            r.dist = l2_sq(data.row(first + off), centroids.row(0));
        }
    });

    for c in 1..k {
        let total: f64 = rows.iter().map(|r| r.dist as f64).sum();
        let next = if total <= f64::EPSILON {
            // All remaining points coincide with chosen centroids; pick any.
            rng.random_range(0..n)
        } else {
            let weights = WeightedIndex::new(rows.iter().map(|r| r.dist as f64 + 1e-12))
                .map_err(|e| IndexError::InvalidParameter(format!("k-means++ weights: {e}")))?;
            weights.sample(rng)
        };
        centroids.push(c as u64, data.row(next))?;
        let new_row = centroids.row(c);
        // Per earlier seed: the squared distance below which a row of that
        // seed cannot move to the new one (`dist < cap` is `reach(√dist) <
        // apart`), and the bound such a row then has on its distance to it.
        let (cap, bound): (Vec<f32>, Vec<f32>) = if prune {
            (0..c)
                .map(|j| {
                    let apart = l2_sq(centroids.row(j), new_row).sqrt();
                    let cap = ((0.5 * apart - FLOOR).max(0.0) / (1.0 + SLACK)).powi(2);
                    (cap, 0.5 * apart * (1.0 - SLACK))
                })
                .unzip()
        } else {
            (Vec::new(), Vec::new())
        };
        over_blocks(&mut rows, threads, |first, block| {
            for (off, r) in block.iter_mut().enumerate() {
                let j = r.near as usize;
                if prune && r.dist < cap[j] {
                    r.lower = r.lower.min(bound[j]);
                    continue;
                }
                let d = l2_sq(data.row(first + off), new_row);
                if d < r.dist {
                    r.lower = r.lower.min(r.dist.sqrt());
                    r.near = c as u32;
                    r.dist = d;
                } else {
                    r.lower = r.lower.min(d.sqrt());
                }
            }
        });
    }
    Ok((centroids, rows))
}

/// Every centroid's neighbours, nearest first.
struct Neighbours {
    k: usize,
    /// Per centroid, its `k - 1` neighbours as `distance bits << 32 |
    /// index`: non-negative f32s order as their bits, so the keys sort
    /// nearest first, lowest index on ties.
    order: Vec<u64>,
}

impl Neighbours {
    fn new(centroids: &VectorStore) -> Self {
        let k = centroids.len();
        let mut apart = vec![0.0f32; k * k];
        for a in 0..k {
            for b in a + 1..k {
                let d = l2_sq(centroids.row(a), centroids.row(b)).sqrt();
                apart[a * k + b] = d;
                apart[b * k + a] = d;
            }
        }
        let mut order = Vec::with_capacity(k * k.saturating_sub(1));
        for a in 0..k {
            let from = order.len();
            let others = (0..k).filter(|&b| b != a);
            order.extend(others.map(|b| u64::from(apart[a * k + b].to_bits()) << 32 | b as u64));
            order[from..].sort_unstable();
        }
        Self { k, order }
    }

    /// Centroid `a`'s neighbours as `(distance, index)`, nearest first.
    fn of(&self, a: usize) -> impl Iterator<Item = (f32, u32)> + '_ {
        let width = self.k - 1;
        self.order[a * width..(a + 1) * width]
            .iter()
            .map(|&e| (f32::from_bits((e >> 32) as u32), e as u32))
    }

    /// Distance from centroid `a` to its nearest neighbour.
    fn gap(&self, a: usize) -> f32 {
        self.of(a).next().map_or(f32::INFINITY, |(d, _)| d)
    }
}

/// Moves row `x`'s state to its nearest centroid: scores its own centroid
/// and, unless the bounds keep it there, the neighbours that could be
/// nearer. Without `neighbours`, or for an unseen row, scores every
/// centroid.
fn settle(x: &[f32], centroids: &VectorStore, neighbours: Option<&Neighbours>, r: &mut RowState) {
    let neighbours = match neighbours {
        Some(neighbours) if r.near != RowState::UNSEEN.near => neighbours,
        _ => {
            let (near, dist) = nearest_centroid(x, centroids);
            *r = RowState {
                near,
                dist,
                lower: 0.0,
            };
            return;
        }
    };
    let a = r.near as usize;
    let dist = l2_sq(x, centroids.row(a));
    let root = dist.sqrt();
    let bound = (0.5 * neighbours.gap(a)).max(r.lower);
    if root * (1.0 + SLACK) + FLOOR < bound * (1.0 - SLACK) {
        r.dist = dist;
        return;
    }
    let limit = reach(root);
    let (mut best, mut best_d) = (r.near, dist);
    let (mut second, mut cut) = (f32::INFINITY, f32::INFINITY);
    for (apart, c) in neighbours.of(a) {
        if apart > limit {
            cut = apart;
            break;
        }
        let d = l2_sq(x, centroids.row(c as usize));
        if d < best_d || (d == best_d && c < best) {
            second = best_d;
            best = c;
            best_d = d;
        } else if d < second {
            second = d;
        }
    }
    // Scored centroids lie at least `second` away; the rest of the
    // neighbours at least `cut - root`.
    *r = RowState {
        near: best,
        dist: best_d,
        lower: second.sqrt().min((cut - root) * (1.0 - SLACK)),
    };
}

/// One assignment pass of every row of `data` (state `rows[i]` for row
/// `i`); returns the inertia, summed per block and then over blocks in
/// order.
fn lloyd_pass(
    data: &VectorStore,
    centroids: &VectorStore,
    neighbours: Option<&Neighbours>,
    rows: &mut [RowState],
    threads: usize,
) -> f64 {
    let parts = over_blocks(rows, threads, |first, block| {
        for (off, r) in block.iter_mut().enumerate() {
            settle(data.row(first + off), centroids, neighbours, r);
        }
        block_inertia(block)
    });
    parts.into_iter().sum()
}

/// Sum of one block's squared distances, in row order.
fn block_inertia(block: &[RowState]) -> f64 {
    block.iter().map(|r| r.dist as f64).sum()
}

/// Shrinks every row's bound by the furthest any other centroid moved from
/// `before` to `after`.
fn shift_bounds(before: &VectorStore, after: &VectorStore, rows: &mut [RowState]) {
    let (mut top, mut top_c, mut runner_up) = (0.0f32, u32::MAX, 0.0f32);
    for c in 0..after.len() {
        let moved = l2_sq(before.row(c), after.row(c)).sqrt() * (1.0 + SLACK);
        if moved > top {
            runner_up = top;
            top = moved;
            top_c = c as u32;
        } else if moved > runner_up {
            runner_up = moved;
        }
    }
    for r in rows {
        r.lower -= if r.near == top_c { runner_up } else { top };
    }
}

/// Runs `f(first_row, block)` over `slots` in blocks of [`BLOCK_ROWS`],
/// blocks dealt round-robin to up to `threads` threads; returns the results
/// in block order.
fn over_blocks<S: Send, T: Send>(
    slots: &mut [S],
    threads: usize,
    f: impl Fn(usize, &mut [S]) -> T + Sync,
) -> Vec<T> {
    let blocks: Vec<&mut [S]> = slots.chunks_mut(BLOCK_ROWS).collect();
    let threads = threads.clamp(1, blocks.len().max(1));
    let mut out: Vec<Option<T>> = blocks.iter().map(|_| None).collect();
    let mut lanes: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
    for (b, (block, slot)) in blocks.into_iter().zip(&mut out).enumerate() {
        lanes[b % threads].push((b * BLOCK_ROWS, block, slot));
    }
    let run = |lane: Vec<(usize, &mut [S], &mut Option<T>)>| {
        for (first, block, slot) in lane {
            *slot = Some(f(first, block));
        }
    };
    if threads == 1 {
        lanes.into_iter().for_each(run);
    } else {
        let run = &run;
        // The scope joins every lane; a lane that panicked re-raises here.
        std::thread::scope(|s| {
            for lane in lanes {
                s.spawn(move || run(lane));
            }
        });
    }
    out.into_iter().flatten().collect()
}

/// Index and squared distance of the centroid nearest to `row`.
pub fn nearest_centroid(row: &[f32], centroids: &VectorStore) -> (u32, f32) {
    let mut best = 0u32;
    let mut best_d = f32::INFINITY;
    for c in 0..centroids.len() {
        let d = l2_sq(row, centroids.row(c));
        if d < best_d {
            best_d = d;
            best = c as u32;
        }
    }
    (best, best_d)
}

/// Indices of the `nprobe` centroids nearest to `row`, best first.
pub fn nearest_centroids(row: &[f32], centroids: &VectorStore, nprobe: usize) -> Vec<u32> {
    let mut scored: Vec<(f32, u32)> = (0..centroids.len())
        .map(|c| (Metric::L2.score(row, centroids.row(c)), c as u32))
        .collect();
    let n = nprobe.min(scored.len());
    scored.select_nth_unstable_by(n.saturating_sub(1), |a, b| {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
    });
    scored.truncate(n);
    scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.into_iter().map(|(_, c)| c).collect()
}

/// Lloyd update: recompute centroids as assigned-point means; empty clusters
/// are re-seeded from random points of the largest cluster.
fn recompute_centroids(
    data: &VectorStore,
    assignments: impl Iterator<Item = u32> + Clone,
    centroids: &mut VectorStore,
    rng: &mut StdRng,
) {
    let k = centroids.len();
    let dim = data.dim();
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0usize; k];
    for (row, a) in assignments.clone().enumerate() {
        let a = a as usize;
        counts[a] += 1;
        let r = data.row(row);
        let s = &mut sums[a * dim..(a + 1) * dim];
        for (acc, &x) in s.iter_mut().zip(r) {
            *acc += x as f64;
        }
    }
    for c in 0..k {
        if counts[c] == 0 {
            // Empty-cluster repair: re-seed from a random member of the
            // largest cluster, nudged to break the tie deterministically.
            let largest = counts
                .iter()
                .enumerate()
                .max_by_key(|(_, &n)| n)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let members: Vec<usize> = assignments
                .clone()
                .enumerate()
                .filter(|&(_, a)| a as usize == largest)
                .map(|(i, _)| i)
                .collect();
            if let Some(&pick) = members.as_slice().choose(rng) {
                let src = data.row(pick).to_vec();
                centroids.row_mut(c).copy_from_slice(&src);
            }
            continue;
        }
        let inv = 1.0 / counts[c] as f64;
        let dst = centroids.row_mut(c);
        let s = &sums[c * dim..(c + 1) * dim];
        for (d, &acc) in dst.iter_mut().zip(s) {
            *d = (acc * inv) as f32;
        }
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Three well-separated 2-D blobs.
    fn blobs(seed: u64, per_blob: usize) -> VectorStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [[0.0f32, 0.0], [10.0, 10.0], [-10.0, 10.0]];
        let mut store = VectorStore::with_capacity(2, per_blob * 3);
        let mut id = 0u64;
        for c in centers {
            for _ in 0..per_blob {
                let v = [
                    c[0] + rng.random_range(-0.5..0.5f32),
                    c[1] + rng.random_range(-0.5..0.5f32),
                ];
                store.push(id, &v).unwrap();
                id += 1;
            }
        }
        store
    }

    /// The plain algorithm the pruned one must reproduce bit for bit:
    /// k-means++ and Lloyd iterations scoring every row against every
    /// centroid, then Add scoring every row of `data`. Returns the model and
    /// Add's assignment.
    fn oracle(data: &VectorStore, cfg: &KMeansConfig) -> Result<(KMeans, Vec<u32>), IndexError> {
        validate(data, cfg)?;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let sampled = sample_rows(data.len(), cfg, &mut rng).map(|rows| data.gather(&rows));
        let train_data = sampled.as_ref().unwrap_or(data);
        let n = train_data.len();

        let mut centroids = VectorStore::with_capacity(data.dim(), cfg.k);
        let first = rng.random_range(0..n);
        centroids.push(0, train_data.row(first))?;
        let mut d2: Vec<f32> = (0..n)
            .map(|i| l2_sq(train_data.row(i), centroids.row(0)))
            .collect();
        for c in 1..cfg.k {
            let total: f64 = d2.iter().map(|&x| x as f64).sum();
            let next = if total <= f64::EPSILON {
                rng.random_range(0..n)
            } else {
                let weights = WeightedIndex::new(d2.iter().map(|&x| x as f64 + 1e-12))
                    .map_err(|e| IndexError::InvalidParameter(format!("k-means++ weights: {e}")))?;
                weights.sample(&mut rng)
            };
            centroids.push(c as u64, train_data.row(next))?;
            for (i, best) in d2.iter_mut().enumerate() {
                let d = l2_sq(train_data.row(i), centroids.row(c));
                if d < *best {
                    *best = d;
                }
            }
        }

        let mut prev_inertia = f64::INFINITY;
        let mut inertia = f64::INFINITY;
        let mut iterations = 0;
        for iter in 0..cfg.max_iters {
            iterations = iter + 1;
            let scored: Vec<(u32, f32)> = (0..n)
                .map(|i| nearest_centroid(train_data.row(i), &centroids))
                .collect();
            inertia = scored
                .chunks(BLOCK_ROWS)
                .map(|block| block.iter().map(|&(_, d)| d as f64).sum::<f64>())
                .sum();
            let assignments = scored.iter().map(|&(a, _)| a);
            recompute_centroids(train_data, assignments, &mut centroids, &mut rng);
            if prev_inertia.is_finite() {
                let denom = prev_inertia.abs().max(f64::MIN_POSITIVE);
                if (prev_inertia - inertia) / denom < cfg.tol {
                    break;
                }
            }
            prev_inertia = inertia;
        }
        let model = KMeans {
            centroids,
            inertia,
            iterations,
        };
        let added = (0..data.len())
            .map(|i| nearest_centroid(data.row(i), &model.centroids).0)
            .collect();
        Ok((model, added))
    }

    /// Asserts that pruned Train and Add on `threads` threads return the
    /// oracle's centroids, inertia, iteration count and assignment, bit for
    /// bit (or the oracle's error).
    fn assert_matches_oracle(data: &VectorStore, cfg: &KMeansConfig, threads: usize) {
        let want = oracle(data, cfg);
        let got = fit(data, cfg, threads);
        let (want, got) = match (want, got) {
            (Ok(want), Ok(got)) => (want, got),
            (Err(want), Err(got)) => return assert_eq!(want, got),
            (want, got) => panic!("oracle {:?} vs pruned {:?}", want.err(), got.err()),
        };
        let (model, added) = want;
        let bits = |s: &VectorStore| s.as_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.model.iterations, model.iterations, "iterations");
        assert_eq!(
            bits(&got.model.centroids),
            bits(&model.centroids),
            "centroids"
        );
        assert_eq!(
            got.model.inertia.to_bits(),
            model.inertia.to_bits(),
            "inertia"
        );
        assert_eq!(got.assign(), added, "Add");
        assert_eq!(got.model.assign(data), added, "plain assignment");
    }

    /// Gaussian-ish clusters: `components` centres, rows scattered around
    /// them at unit scale.
    fn clustered(n: usize, dim: usize, components: usize, scale: f32, seed: u64) -> VectorStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let centres: Vec<f32> = (0..components * dim)
            .map(|_| rng.random_range(-8.0..8.0f32))
            .collect();
        let flat: Vec<f32> = (0..n)
            .flat_map(|i| {
                let c = i % components;
                (0..dim)
                    .map(|j| {
                        let noise: f32 = (0..3).map(|_| rng.random_range(-1.0..1.0f32)).sum();
                        (centres[c * dim + j] + noise) * scale
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        VectorStore::from_flat(dim, flat).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Pruned Train and Add against the plain algorithm over the cases
        /// pruning must get right: duplicate rows and exact ties (integer
        /// grids), `k = 1`, `k = n`, empty-cluster repair (more clusters
        /// than distinct rows), dims that leave a kernel tail, subsampling,
        /// large magnitudes, and magnitudes too large to prune.
        #[test]
        fn pruned_train_and_add_equal_the_plain_algorithm(
            n in 1usize..300,
            dim in 1usize..21,
            kind in 0u8..7,
            k_pick in 0usize..1000,
            threads in 1usize..4,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let data = match kind {
                // Few distinct rows, on an integer grid: duplicates and ties.
                0 | 1 => {
                    let pool = 1 + rng.random_range(0..8usize);
                    let rows: Vec<Vec<f32>> = (0..pool)
                        .map(|_| (0..dim).map(|_| rng.random_range(0..3u32) as f32).collect())
                        .collect();
                    let flat = (0..n).flat_map(|i| rows[(i * 7 + seed as usize) % pool].clone());
                    VectorStore::from_flat(dim, flat.collect()).unwrap()
                }
                2 => clustered(n, dim, 1 + k_pick % 6, 1.0, seed),
                3 => clustered(n, dim, 1 + k_pick % 6, 1e15, seed),
                // Past what pruning takes; the largest overflow f32.
                4 => clustered(n, dim, 3, [1e17, 1e18][seed as usize % 2], seed),
                _ => clustered(n, dim, 1 + k_pick % 9, 0.1, seed),
            };
            let k = match kind {
                1 => n,
                5 => 1,
                _ => 1 + k_pick % n.min(24),
            };
            let cfg = KMeansConfig {
                // Tiny subsamples on kind 6 exercise rows Train never saw.
                samples_per_centroid: if kind == 6 { Some(2) } else { Some(256) },
                ..KMeansConfig::new(k, seed)
            };
            assert_matches_oracle(&data, &cfg, threads);
        }

        /// From any start centroid, one step lands where
        /// [`nearest_centroid`] does, lowest index on exact ties, and leaves
        /// a bound no other centroid is nearer than. Integer centroids
        /// (duplicates among them) and half-integer rows make ties common.
        #[test]
        fn settle_breaks_ties_like_nearest_centroid(
            k in 1usize..12,
            dim in 1usize..4,
            start in 0usize..12,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let grid = (0..k * dim).map(|_| rng.random_range(0..4u32) as f32);
            let centroids = VectorStore::from_flat(dim, grid.collect()).unwrap();
            let neighbours = Neighbours::new(&centroids);
            for _ in 0..32 {
                let x: Vec<f32> = (0..dim)
                    .map(|_| rng.random_range(0..8u32) as f32 * 0.5)
                    .collect();
                let mut r = RowState {
                    near: (start % k) as u32,
                    ..RowState::UNSEEN
                };
                settle(&x, &centroids, Some(&neighbours), &mut r);
                let (near, dist) = nearest_centroid(&x, &centroids);
                prop_assert_eq!((r.near, r.dist.to_bits()), (near, dist.to_bits()));
                for c in (0..k).filter(|&c| c != near as usize) {
                    prop_assert!(l2_sq(&x, centroids.row(c)).sqrt() >= r.lower);
                }
            }
        }
    }

    /// The pruned path engages on a corpus of the benchmark's shape (≥ 20k
    /// rows × 64 dims, k = 64, subsampled and not): slow unoptimized, so
    /// run with `--release -- --include-ignored`.
    #[test]
    #[ignore = "large corpus: run in release"]
    fn pruned_train_equals_the_plain_algorithm_at_scale() {
        let data = clustered(20_000, 64, 32, 1.0, 3);
        for (seed, spc) in [(1, Some(256)), (2, None)] {
            let cfg = KMeansConfig {
                samples_per_centroid: spc,
                ..KMeansConfig::new(64, seed)
            };
            assert_matches_oracle(&data, &cfg, available_threads());
        }
    }

    #[test]
    fn thread_count_changes_no_bit() {
        let data = clustered(5_000, 12, 8, 1.0, 9);
        let cfg = KMeansConfig::new(16, 4);
        let one = fit(&data, &cfg, 1).unwrap();
        let three = fit(&data, &cfg, 3).unwrap();
        let bits = |f: &Fitted<'_>| {
            let c: Vec<u32> = f
                .model
                .centroids
                .as_flat()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            (c, f.model.inertia.to_bits(), f.model.iterations)
        };
        assert_eq!(bits(&one), bits(&three));
        assert_eq!(one.assign(), three.assign());
    }

    #[test]
    fn non_finite_rows_are_rejected() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut data = blobs(7, 20);
            data.row_mut(31)[1] = bad;
            assert_eq!(
                KMeans::train(&data, &KMeansConfig::new(3, 1)).unwrap_err(),
                IndexError::NonFinite { row: 31 }
            );
        }
    }

    #[test]
    fn recovers_separated_blobs() {
        let data = blobs(1, 50);
        let km = KMeans::train(&data, &KMeansConfig::new(3, 42)).unwrap();
        assert_eq!(km.k(), 3);
        // Every blob should map to a single distinct centroid.
        let assignments = km.assign(&data);
        for blob in 0..3 {
            let labels: std::collections::HashSet<u32> = assignments[blob * 50..(blob + 1) * 50]
                .iter()
                .copied()
                .collect();
            assert_eq!(labels.len(), 1, "blob {blob} split across centroids");
        }
        // Inertia of well-separated tight blobs is small.
        assert!(km.inertia < 150.0 * 1.0, "inertia {}", km.inertia);
    }

    #[test]
    fn deterministic_across_runs() {
        let data = blobs(2, 40);
        let a = KMeans::train(&data, &KMeansConfig::new(4, 7)).unwrap();
        let b = KMeans::train(&data, &KMeansConfig::new(4, 7)).unwrap();
        assert_eq!(a.centroids.as_flat(), b.centroids.as_flat());
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn different_seeds_may_differ_but_both_valid() {
        let data = blobs(3, 40);
        let a = KMeans::train(&data, &KMeansConfig::new(3, 1)).unwrap();
        let b = KMeans::train(&data, &KMeansConfig::new(3, 2)).unwrap();
        assert_eq!(a.k(), 3);
        assert_eq!(b.k(), 3);
    }

    #[test]
    fn rejects_invalid_parameters() {
        let data = blobs(4, 5);
        assert!(matches!(
            KMeans::train(&data, &KMeansConfig::new(0, 0)),
            Err(IndexError::InvalidParameter(_))
        ));
        assert!(matches!(
            KMeans::train(&data, &KMeansConfig::new(1000, 0)),
            Err(IndexError::NotEnoughData { .. })
        ));
        let cfg = KMeansConfig {
            max_iters: 0,
            ..KMeansConfig::new(2, 0)
        };
        assert!(matches!(
            KMeans::train(&data, &cfg),
            Err(IndexError::InvalidParameter(_))
        ));
        // An empty sample used to panic seeding k-means++.
        let cfg = KMeansConfig {
            samples_per_centroid: Some(0),
            ..KMeansConfig::new(2, 0)
        };
        assert!(matches!(
            KMeans::train(&data, &cfg),
            Err(IndexError::InvalidParameter(_))
        ));
    }

    #[test]
    fn assignment_matches_nearest_centroid() {
        let data = blobs(5, 30);
        let km = KMeans::train(&data, &KMeansConfig::new(3, 11)).unwrap();
        let assignments = km.assign(&data);
        for (row, &assigned) in assignments.iter().enumerate() {
            let (best, _) = nearest_centroid(data.row(row), &km.centroids);
            assert_eq!(assigned, best, "row {row}");
        }
    }

    #[test]
    fn nearest_centroids_returns_sorted_probe_list() {
        let centroids = VectorStore::from_flat(1, vec![0.0, 10.0, 20.0, 30.0]).unwrap();
        let probes = nearest_centroids(&[11.0], &centroids, 3);
        assert_eq!(probes, vec![1, 2, 0]);
        // nprobe larger than nlist clamps.
        let probes = nearest_centroids(&[11.0], &centroids, 99);
        assert_eq!(probes.len(), 4);
    }

    #[test]
    fn handles_duplicate_points() {
        // All points identical: k-means must not crash or loop forever.
        let data = VectorStore::from_flat(2, vec![1.0; 20]).unwrap();
        let km = KMeans::train(&data, &KMeansConfig::new(3, 5)).unwrap();
        assert_eq!(km.k(), 3);
        assert!(km.inertia < 1e-6);
    }

    #[test]
    fn subsampling_still_trains() {
        let data = blobs(6, 100);
        let cfg = KMeansConfig {
            samples_per_centroid: Some(8),
            ..KMeansConfig::new(3, 9)
        };
        let km = KMeans::train(&data, &cfg).unwrap();
        assert_eq!(km.k(), 3);
        // Assignments on the full data still separate the blobs decently:
        // at least two distinct labels must appear.
        let labels: std::collections::HashSet<u32> = km.assign(&data).into_iter().collect();
        assert!(labels.len() >= 2);
    }
}
