//! Single-node IVF-Flat baseline ("Faiss" in the paper's figures).
//!
//! Same k-means, same kernels, same `nlist`/`nprobe` semantics as the
//! distributed engines — the only difference is that everything runs on one
//! node with thread-level parallelism. This isolates the variable the paper
//! studies: the distribution strategy.

use std::time::{Duration, Instant};

use harmony_index::{IvfIndex, IvfParams, KMeans, Metric, Neighbor, VectorStore};

use harmony_core::CoreError;

/// Build timing for the single-node baseline (Train + Add; no Pre-assign).
#[derive(Debug, Clone)]
pub struct FaissBuildStats {
    /// k-means training time.
    pub train: Duration,
    /// List-assignment time.
    pub add: Duration,
}

impl FaissBuildStats {
    /// Total build time.
    pub fn total(&self) -> Duration {
        self.train + self.add
    }
}

/// The single-node IVF-Flat engine.
pub struct FaissLikeEngine {
    ivf: IvfIndex,
    build_stats: FaissBuildStats,
}

impl FaissLikeEngine {
    /// Trains and populates the index over `base`.
    ///
    /// # Errors
    /// Propagates clustering failures.
    pub fn build(
        nlist: usize,
        metric: Metric,
        seed: u64,
        base: &VectorStore,
    ) -> Result<Self, CoreError> {
        let nlist = nlist.min(base.len()).max(1);
        let params = IvfParams::new(nlist).with_metric(metric).with_seed(seed);
        let t0 = Instant::now();
        let fit = KMeans::fit(base, &params.kmeans())?;
        let train = t0.elapsed();
        let t0 = Instant::now();
        let ivf = IvfIndex::from_fit(metric, &fit);
        let add = t0.elapsed();
        Ok(Self {
            ivf,
            build_stats: FaissBuildStats { train, add },
        })
    }

    /// Build timings.
    pub fn build_stats(&self) -> &FaissBuildStats {
        &self.build_stats
    }

    /// The underlying index.
    pub fn index(&self) -> &IvfIndex {
        &self.ivf
    }

    /// Heap bytes of the index.
    pub fn memory_bytes(&self) -> usize {
        self.ivf.memory_bytes()
    }

    /// Top-`k` search probing `nprobe` lists.
    ///
    /// # Errors
    /// Dimension mismatch or invalid parameters.
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Neighbor>, CoreError> {
        Ok(self.ivf.search(query, k, nprobe)?)
    }

    /// Parallel batch search; returns the per-query results and the wall
    /// time, from which callers derive the baseline QPS.
    ///
    /// # Errors
    /// Dimension mismatch or invalid parameters.
    pub fn search_batch(
        &self,
        queries: &VectorStore,
        k: usize,
        nprobe: usize,
    ) -> Result<(Vec<Vec<Neighbor>>, Duration), CoreError> {
        let t0 = Instant::now();
        let results = self.ivf.search_batch(queries, k, nprobe)?;
        Ok((results, t0.elapsed()))
    }

    /// Sequential batch search: one thread, as a stand-in for "one node" in
    /// cross-system comparisons where each simulated Harmony worker is also
    /// one thread (see DESIGN.md §4 — node ≙ thread consistently).
    ///
    /// # Errors
    /// Dimension mismatch or invalid parameters.
    pub fn search_batch_sequential(
        &self,
        queries: &VectorStore,
        k: usize,
        nprobe: usize,
    ) -> Result<(Vec<Vec<Neighbor>>, Duration), CoreError> {
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(queries.len());
        for qi in 0..queries.len() {
            results.push(self.ivf.search(queries.row(qi), k, nprobe)?);
        }
        Ok((results, t0.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_data::SyntheticSpec;

    fn dataset() -> harmony_data::Dataset {
        SyntheticSpec::clustered(1_200, 16, 8)
            .with_seed(3)
            .generate()
    }

    #[test]
    fn build_and_search() {
        let d = dataset();
        let engine = FaissLikeEngine::build(16, Metric::L2, 7, &d.base).unwrap();
        assert_eq!(engine.index().len(), 1_200);
        let res = engine.search(d.base.row(10), 5, 16).unwrap();
        assert_eq!(res[0].id, 10);
        assert!(engine.memory_bytes() > 1_200 * 16 * 4 / 2);
        assert!(engine.build_stats().total() > Duration::ZERO);
    }

    #[test]
    fn matches_raw_ivf_with_same_seed() {
        let d = dataset();
        let engine = FaissLikeEngine::build(16, Metric::L2, 7, &d.base).unwrap();
        let mut ivf = harmony_index::IvfIndex::train(
            &d.base,
            &harmony_index::IvfParams::new(16).with_seed(7),
        )
        .unwrap();
        ivf.add(&d.base).unwrap();
        for qi in 0..5 {
            let q = d.queries.row(qi);
            assert_eq!(
                engine.search(q, 10, 4).unwrap(),
                ivf.search(q, 10, 4).unwrap()
            );
        }
    }

    #[test]
    fn batch_returns_timing() {
        let d = dataset();
        let engine = FaissLikeEngine::build(16, Metric::L2, 7, &d.base).unwrap();
        let (results, wall) = engine.search_batch(&d.queries, 10, 4).unwrap();
        assert_eq!(results.len(), d.queries.len());
        assert!(wall > Duration::ZERO);
    }

    #[test]
    fn nlist_clamped_to_dataset() {
        let tiny = VectorStore::from_flat(4, vec![0.0; 4 * 8]).unwrap();
        let engine = FaissLikeEngine::build(1000, Metric::L2, 1, &tiny).unwrap();
        assert!(engine.index().nlist() <= 8);
    }
}
