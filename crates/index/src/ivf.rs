//! IVF-Flat: the cluster-based index Harmony distributes.
//!
//! An inverted-file index stores one *inverted list* per k-means centroid;
//! each list keeps its member vectors contiguously (Faiss `IndexIVFFlat`
//! layout) so scans are cache-friendly and — crucially for Harmony — so a
//! whole list can be lifted out and shipped to a remote machine as a unit.
//! Vector-based partitioning assigns entire lists to shards `V_i`;
//! dimension-based partitioning then slices each shipped list column-wise
//! into blocks `D_j` (paper §4.2.2, Fig. 4a).
//!
//! Search visits the `nprobe` lists whose centroids are nearest the query
//! and scans them exactly. Recall is controlled by `nprobe` alone, which is
//! how the paper traces its QPS-recall curves (Fig. 6).

use crate::distance::Metric;
use crate::error::IndexError;
use crate::kmeans::{nearest_centroids, Fitted, KMeans, KMeansConfig};
use crate::topk::{Neighbor, TopK};
use crate::vector::VectorStore;

/// Construction parameters for [`IvfIndex`].
#[derive(Debug, Clone)]
pub struct IvfParams {
    /// Number of inverted lists (clusters).
    pub nlist: usize,
    /// Similarity metric.
    pub metric: Metric,
    /// Training configuration overrides (seed, iterations, subsampling).
    pub train: KMeansConfig,
}

impl IvfParams {
    /// Parameters with sensible defaults for `nlist` lists.
    pub fn new(nlist: usize) -> Self {
        Self {
            nlist,
            metric: Metric::L2,
            train: KMeansConfig::new(nlist, KMeansConfig::default().seed),
        }
    }

    /// Sets the metric.
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the training seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.train.seed = seed;
        self
    }

    /// The k-means configuration Train runs: `train` with `nlist` clusters.
    pub fn kmeans(&self) -> KMeansConfig {
        KMeansConfig {
            k: self.nlist,
            ..self.train.clone()
        }
    }
}

/// One inverted list: ids plus their vectors, stored contiguously.
#[derive(Debug, Clone, Default)]
pub struct InvertedList {
    /// Member vectors (ids travel inside the store).
    pub vectors: VectorStore,
}

impl InvertedList {
    /// Number of vectors in the list.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// `true` when the list holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }
}

/// An IVF-Flat index.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    metric: Metric,
    centroids: VectorStore,
    lists: Vec<InvertedList>,
    size: usize,
}

impl IvfIndex {
    /// Trains centroids on `train_data` and returns an empty index.
    ///
    /// # Errors
    /// Propagates k-means training errors (invalid `nlist`, too little data).
    pub fn train(train_data: &VectorStore, params: &IvfParams) -> Result<Self, IndexError> {
        let km = KMeans::train(train_data, &params.kmeans())?;
        let dim = train_data.dim();
        Ok(Self {
            metric: params.metric,
            centroids: km.centroids,
            lists: (0..params.nlist)
                .map(|_| InvertedList {
                    vectors: VectorStore::new(dim),
                })
                .collect(),
            size: 0,
        })
    }

    /// An index over `fit`'s centroids holding every row of its training
    /// input: Add, continuing from where Train left the rows it saw
    /// ([`crate::kmeans::Fitted::assign`]).
    pub fn from_fit(metric: Metric, fit: &Fitted<'_>) -> Self {
        let mut members = vec![Vec::new(); fit.model.k()];
        for (row, list) in fit.assign().into_iter().enumerate() {
            members[list as usize].push(row);
        }
        let lists = members
            .iter()
            .map(|rows| InvertedList {
                vectors: fit.data().gather(rows),
            })
            .collect();
        Self::from_parts(metric, fit.model.centroids.clone(), lists)
    }

    /// Builds a trained index directly from parts (used when reassembling a
    /// distributed index or loading from disk).
    pub fn from_parts(metric: Metric, centroids: VectorStore, lists: Vec<InvertedList>) -> Self {
        let size = lists.iter().map(InvertedList::len).sum();
        Self {
            metric,
            centroids,
            lists,
            size,
        }
    }

    /// Adds every row of `data`, routing each vector to its nearest centroid.
    ///
    /// # Errors
    /// [`IndexError::DimensionMismatch`] when widths differ.
    pub fn add(&mut self, data: &VectorStore) -> Result<(), IndexError> {
        if data.dim() != self.centroids.dim() {
            return Err(IndexError::DimensionMismatch {
                expected: self.centroids.dim(),
                actual: data.dim(),
            });
        }
        // Parallel assignment via the shared k-means kernel.
        let km = KMeans {
            centroids: self.centroids.clone(),
            inertia: 0.0,
            iterations: 0,
        };
        let assignments = km.assign(data);
        for (row, &list) in assignments.iter().enumerate() {
            self.lists[list as usize]
                .vectors
                .push(data.id(row), data.row(row))?;
            self.size += 1;
        }
        Ok(())
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Total number of indexed vectors.
    pub fn len(&self) -> usize {
        self.size
    }

    /// `true` when no vectors are indexed.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// The trained centroids.
    pub fn centroids(&self) -> &VectorStore {
        &self.centroids
    }

    /// The inverted lists.
    pub fn lists(&self) -> &[InvertedList] {
        &self.lists
    }

    /// Metric this index searches under.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Sizes of all inverted lists (the load profile that drives Harmony's
    /// shard packing).
    pub fn list_sizes(&self) -> Vec<usize> {
        self.lists.iter().map(InvertedList::len).collect()
    }

    /// Ids of the `nprobe` lists to visit for `query`, best first.
    pub fn probe_lists(&self, query: &[f32], nprobe: usize) -> Vec<u32> {
        nearest_centroids(query, &self.centroids, nprobe)
    }

    /// Top-`k` search visiting `nprobe` lists.
    ///
    /// # Errors
    /// [`IndexError::DimensionMismatch`] on query width mismatch;
    /// [`IndexError::InvalidParameter`] when `nprobe == 0`.
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Neighbor>, IndexError> {
        let mut topk = TopK::new(k);
        self.search_into(query, nprobe, &mut topk)?;
        Ok(topk.into_sorted())
    }

    /// Top-`k` search accumulating into an existing tracker (lets callers
    /// seed the pruning threshold, as Harmony's prewarm stage does).
    ///
    /// # Errors
    /// Same as [`IvfIndex::search`].
    pub fn search_into(
        &self,
        query: &[f32],
        nprobe: usize,
        topk: &mut TopK,
    ) -> Result<(), IndexError> {
        if query.len() != self.centroids.dim() {
            return Err(IndexError::DimensionMismatch {
                expected: self.centroids.dim(),
                actual: query.len(),
            });
        }
        if nprobe == 0 {
            return Err(IndexError::InvalidParameter("nprobe must be > 0".into()));
        }
        for &list in &self.probe_lists(query, nprobe) {
            let list = &self.lists[list as usize];
            for (id, row) in list.vectors.iter() {
                topk.push(id, self.metric.score(query, row));
            }
        }
        Ok(())
    }

    /// Batch search, parallelized over queries with scoped threads.
    ///
    /// # Errors
    /// Same as [`IvfIndex::search`].
    pub fn search_batch(
        &self,
        queries: &VectorStore,
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        if queries.dim() != self.centroids.dim() {
            return Err(IndexError::DimensionMismatch {
                expected: self.centroids.dim(),
                actual: queries.dim(),
            });
        }
        if nprobe == 0 {
            return Err(IndexError::InvalidParameter("nprobe must be > 0".into()));
        }
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let n = queries.len();
        let chunk = n.div_ceil(threads).max(1);
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
        crossbeam::thread::scope(|s| {
            for (ci, out_chunk) in results.chunks_mut(chunk).enumerate() {
                let start = ci * chunk;
                s.spawn(move |_| {
                    for (off, slot) in out_chunk.iter_mut().enumerate() {
                        *slot = self
                            .search(queries.row(start + off), k, nprobe)
                            .expect("params already validated");
                    }
                });
            }
        })
        .expect("crossbeam scope");
        Ok(results)
    }

    /// Heap bytes held by the index (centroids + lists).
    pub fn memory_bytes(&self) -> usize {
        self.centroids.memory_bytes()
            + self
                .lists
                .iter()
                .map(|l| l.vectors.memory_bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use rand::prelude::*;

    fn random_store(n: usize, dim: usize, seed: u64) -> VectorStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..n * dim).map(|_| rng.random_range(-1.0..1.0)).collect();
        VectorStore::from_flat(dim, data).unwrap()
    }

    fn build(n: usize, dim: usize, nlist: usize, seed: u64) -> (IvfIndex, VectorStore) {
        let data = random_store(n, dim, seed);
        let mut ivf = IvfIndex::train(&data, &IvfParams::new(nlist).with_seed(seed)).unwrap();
        ivf.add(&data).unwrap();
        (ivf, data)
    }

    #[test]
    fn from_fit_equals_train_then_add() {
        // Subsampled (Add continues from Train for a third of the rows) and not.
        for spc in [Some(10), None] {
            let data = random_store(900, 12, 3);
            let mut params = IvfParams::new(30).with_seed(5);
            params.train.samples_per_centroid = spc;
            let fit = KMeans::fit(&data, &params.kmeans()).unwrap();
            let built = IvfIndex::from_fit(params.metric, &fit);
            let mut added = IvfIndex::train(&data, &params).unwrap();
            added.add(&data).unwrap();
            assert_eq!(built.centroids(), added.centroids());
            assert_eq!(built.len(), added.len());
            for (b, a) in built.lists().iter().zip(added.lists()) {
                assert_eq!(b.vectors, a.vectors);
            }
        }
    }

    #[test]
    fn add_routes_every_vector_once() {
        let (ivf, data) = build(500, 8, 10, 1);
        assert_eq!(ivf.len(), data.len());
        let total: usize = ivf.list_sizes().iter().sum();
        assert_eq!(total, 500);
        // Every id appears exactly once across lists.
        let mut seen = std::collections::HashSet::new();
        for list in ivf.lists() {
            for &id in list.vectors.ids() {
                assert!(seen.insert(id), "id {id} duplicated");
            }
        }
        assert_eq!(seen.len(), 500);
    }

    #[test]
    fn full_probe_equals_flat_search() {
        let (ivf, data) = build(300, 6, 8, 2);
        let flat = FlatIndex::from_store(data.clone(), Metric::L2);
        let q = data.row(17);
        let ivf_res = ivf.search(q, 10, 8).unwrap();
        let flat_res = flat.search(q, 10).unwrap();
        assert_eq!(
            ivf_res.iter().map(|n| n.id).collect::<Vec<_>>(),
            flat_res.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn more_probes_never_hurt_recall() {
        let (ivf, data) = build(400, 8, 16, 3);
        let flat = FlatIndex::from_store(data.clone(), Metric::L2);
        let q = data.row(100);
        let truth: std::collections::HashSet<u64> =
            flat.search(q, 10).unwrap().iter().map(|n| n.id).collect();
        let mut prev_hits = 0;
        for nprobe in [1, 2, 4, 8, 16] {
            let res = ivf.search(q, 10, nprobe).unwrap();
            let hits = res.iter().filter(|n| truth.contains(&n.id)).count();
            assert!(hits >= prev_hits, "recall dropped going to nprobe={nprobe}");
            prev_hits = hits;
        }
        assert_eq!(prev_hits, 10, "full probe must be exact");
    }

    #[test]
    fn search_finds_self_with_one_probe() {
        let (ivf, data) = build(200, 4, 5, 4);
        // Query = a stored vector: its own list is the nearest one.
        let res = ivf.search(data.row(42), 1, 1).unwrap();
        assert_eq!(res[0].id, 42);
        assert!(res[0].score < 1e-9);
    }

    #[test]
    fn batch_matches_single() {
        let (ivf, data) = build(200, 4, 5, 5);
        let queries = data.gather(&[0, 50, 100, 150]);
        let batch = ivf.search_batch(&queries, 5, 3).unwrap();
        for (qi, res) in batch.iter().enumerate() {
            let single = ivf.search(queries.row(qi), 5, 3).unwrap();
            assert_eq!(res, &single);
        }
    }

    #[test]
    fn rejects_bad_params() {
        let (ivf, data) = build(100, 4, 4, 6);
        assert!(matches!(
            ivf.search(&[1.0], 5, 2),
            Err(IndexError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            ivf.search(data.row(0), 5, 0),
            Err(IndexError::InvalidParameter(_))
        ));
        let mut ivf2 = ivf.clone();
        assert!(ivf2.add(&VectorStore::new(9)).is_err());
    }

    #[test]
    fn from_parts_roundtrip() {
        let (ivf, data) = build(150, 4, 6, 7);
        let rebuilt =
            IvfIndex::from_parts(ivf.metric(), ivf.centroids().clone(), ivf.lists().to_vec());
        assert_eq!(rebuilt.len(), ivf.len());
        let q = data.row(3);
        assert_eq!(
            rebuilt.search(q, 5, 6).unwrap(),
            ivf.search(q, 5, 6).unwrap()
        );
    }

    #[test]
    fn memory_bytes_scales_with_data() {
        let (small, _) = build(100, 8, 4, 8);
        let (large, _) = build(1000, 8, 4, 8);
        assert!(large.memory_bytes() > small.memory_bytes());
        // Lower bound: the raw vector payload.
        assert!(large.memory_bytes() >= 1000 * 8 * 4);
    }

    #[test]
    fn search_into_respects_seeded_threshold() {
        let (ivf, data) = build(300, 6, 8, 9);
        let q = data.row(0);
        // Seed the tracker with unbeatable sentinel candidates (ids outside
        // the index). The threshold they establish must exclude every real
        // candidate, demonstrating that search_into honors seeded state.
        let mut topk = TopK::new(3);
        for sentinel in 0..3u64 {
            topk.push(10_000 + sentinel, -1.0);
        }
        ivf.search_into(q, 8, &mut topk).unwrap();
        let out = topk.into_sorted();
        assert!(out.iter().all(|n| n.id >= 10_000), "seeds were evicted");

        // An empty tracker reproduces plain search exactly.
        let mut topk = TopK::new(3);
        ivf.search_into(q, 8, &mut topk).unwrap();
        assert_eq!(topk.into_sorted(), ivf.search(q, 3, 8).unwrap());
    }
}
