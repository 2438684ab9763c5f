//! Auncel-like baseline: error-bounded distributed vector search (§6.5.4).
//!
//! Auncel (Zhang et al., NSDI'23) serves vector queries with *error-bound
//! guarantees* over a *fixed vector-based partitioning*. This stand-in
//! reproduces both traits on the shared substrate:
//!
//! * **Fixed vector partitioning** — IVF lists are packed onto machines
//!   once, by size (the paper observes Auncel behaves "similar to
//!   Harmony-vector" under load skew, which is exactly what this layout
//!   yields);
//! * **Error-bounded early termination** — clusters are probed in waves of
//!   ascending centroid distance; after each wave the triangle inequality
//!   gives a lower bound `(max(0, ‖q−c‖ − r_c))²` on any unseen candidate in
//!   cluster `c`, and the query stops once that bound exceeds
//!   `τ² · (1 + ε)`, i.e. no unseen vector can improve the current top-k by
//!   more than the error budget.
//!
//! Workers are plain [`harmony_core::HarmonyWorker`]s hosting single-block
//! shards; all the Auncel-specific logic is client-side wave control.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use harmony_cluster::{
    Cluster, ClusterConfig, ClusterSnapshot, CommMode, DelayMode, NetworkModel, Wire,
};
use harmony_index::distance::l2_sq;
use harmony_index::{KMeans, KMeansConfig, Metric, Neighbor, TopK, VectorStore};
use parking_lot::Mutex;

use harmony_core::messages::{metric_tag, ClusterBlock, LoadBlock, QueryChunk, ToClient, ToWorker};
use harmony_core::{CoreError, HarmonyWorker, ShardAssignment};

/// Configuration for the Auncel-like engine.
#[derive(Debug, Clone)]
pub struct AuncelConfig {
    /// Worker machines.
    pub n_machines: usize,
    /// IVF lists.
    pub nlist: usize,
    /// Training seed (matched with the other engines for fairness).
    pub seed: u64,
    /// Error budget ε: termination fires when the best possible unseen
    /// candidate cannot beat `τ² (1 + ε)`.
    pub epsilon: f32,
    /// Clusters probed per wave.
    pub wave: usize,
    /// Hard probe cap per query.
    pub max_nprobe: usize,
    /// Interconnect model.
    pub net: NetworkModel,
    /// Real-delay injection.
    pub delay: DelayMode,
}

impl Default for AuncelConfig {
    fn default() -> Self {
        Self {
            n_machines: 4,
            nlist: 64,
            seed: 0xA0CE1,
            epsilon: 0.05,
            wave: 4,
            max_nprobe: 64,
            net: NetworkModel::amortized(10),
            delay: DelayMode::Account,
        }
    }
}

/// Result of one Auncel query.
#[derive(Debug, Clone)]
pub struct AuncelResult {
    /// Best-first neighbors.
    pub neighbors: Vec<Neighbor>,
    /// Lists actually probed before the error bound fired.
    pub probes_used: usize,
}

struct Inner {
    cluster: Cluster,
    next_query_id: u64,
}

/// The Auncel-like engine (L2 only, as in the original system's evaluation).
pub struct AuncelEngine {
    config: AuncelConfig,
    dim: usize,
    centroids: VectorStore,
    /// Cluster radius: max member distance to its centroid.
    radii: Vec<f32>,
    assignment: ShardAssignment,
    list_sizes: Vec<usize>,
    inner: Mutex<Inner>,
}

impl AuncelEngine {
    /// Builds the engine over `base`.
    ///
    /// # Errors
    /// Clustering or transport failures.
    pub fn build(config: AuncelConfig, base: &VectorStore) -> Result<Self, CoreError> {
        if config.n_machines == 0 {
            return Err(CoreError::Config("n_machines must be > 0".into()));
        }
        if base.is_empty() {
            return Err(CoreError::Config("base must be non-empty".into()));
        }
        let dim = base.dim();
        let nlist = config.nlist.min(base.len()).max(1);

        let fit = KMeans::fit(
            base,
            &KMeansConfig {
                k: nlist,
                seed: config.seed,
                ..KMeansConfig::default()
            },
        )?;
        let assignments = fit.assign();
        let km = fit.model;
        let mut list_rows: Vec<Vec<usize>> = vec![Vec::new(); nlist];
        let mut radii = vec![0.0f32; nlist];
        for (row, &c) in assignments.iter().enumerate() {
            let c = c as usize;
            list_rows[c].push(row);
            let d = l2_sq(base.row(row), km.centroids.row(c)).sqrt();
            if d > radii[c] {
                radii[c] = d;
            }
        }
        let list_sizes: Vec<usize> = list_rows.iter().map(Vec::len).collect();

        // Fixed vector partitioning: one shard per machine, size-balanced.
        let weights: Vec<u64> = list_sizes.iter().map(|&s| s as u64 + 1).collect();
        let assignment = ShardAssignment::balanced(&weights, config.n_machines);

        // Shared calibrated compute rates, matching the other engines.
        let model = harmony_core::CostModel::new(config.net, 1.0).calibrate();
        let cluster = Cluster::spawn(
            ClusterConfig {
                workers: config.n_machines,
                net: config.net,
                comm_mode: CommMode::NonBlocking,
                delay: config.delay,
                rates: model.rates.compute_rates(dim),
                drop_every_nth: 0,
                transport: harmony_cluster::TransportKind::InProc,
            },
            |_| HarmonyWorker::new(),
        );

        for machine in 0..config.n_machines {
            let clusters = assignment.clusters_of(machine);
            let lists: Vec<ClusterBlock> = clusters
                .iter()
                .map(|&c| {
                    let rows = &list_rows[c as usize];
                    let mut flat = Vec::with_capacity(rows.len() * dim);
                    let mut ids = Vec::with_capacity(rows.len());
                    for &row in rows {
                        ids.push(base.id(row));
                        flat.extend_from_slice(base.row(row));
                    }
                    ClusterBlock {
                        cluster: c,
                        ids,
                        flat,
                        segs: vec![],
                        block_norms_sq: vec![],
                        total_norms_sq: vec![],
                    }
                })
                .collect();
            let load = LoadBlock {
                ns: 0,
                epoch: 0,
                shard: machine as u32,
                dim_block: 0,
                dim_start: 0,
                dim_end: dim as u64,
                total_dim_blocks: 1,
                metric: metric_tag::encode(Metric::L2),
                pruning: true,
                repr: 0,
                lists,
            };
            cluster.send(machine, ToWorker::Load(load).to_bytes())?;
        }

        let mut inner = Inner {
            cluster,
            next_query_id: 0,
        };
        for _ in 0..config.n_machines {
            let (_, payload) = inner.cluster.recv_timeout(Duration::from_secs(120))?;
            match ToClient::from_bytes(payload)? {
                ToClient::EpochReady { .. } => {}
                other => {
                    return Err(CoreError::Protocol(format!(
                        "expected EpochReady, got {other:?}"
                    )))
                }
            }
        }
        inner.cluster.reset_metrics();

        Ok(Self {
            config,
            dim,
            centroids: km.centroids,
            radii,
            assignment,
            list_sizes,
            inner: Mutex::new(inner),
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &AuncelConfig {
        &self.config
    }

    /// Inverted-list sizes.
    pub fn list_sizes(&self) -> &[usize] {
        &self.list_sizes
    }

    /// Error-bounded top-`k` search.
    ///
    /// # Errors
    /// Dimension mismatch or transport failures.
    pub fn search(&self, query: &[f32], k: usize) -> Result<AuncelResult, CoreError> {
        let mut inner = self.inner.lock();
        self.search_locked(&mut inner, query, k)
    }

    fn search_locked(
        &self,
        inner: &mut Inner,
        query: &[f32],
        k: usize,
    ) -> Result<AuncelResult, CoreError> {
        if query.len() != self.dim {
            return Err(CoreError::Index(
                harmony_index::IndexError::DimensionMismatch {
                    expected: self.dim,
                    actual: query.len(),
                },
            ));
        }
        let qid = inner.next_query_id;
        inner.next_query_id += 1;

        // Clusters by ascending centroid distance, with unseen lower bounds.
        let mut order: Vec<(u32, f32, f32)> = (0..self.centroids.len())
            .map(|c| {
                let d_sq = l2_sq(query, self.centroids.row(c));
                let lb = (d_sq.sqrt() - self.radii[c]).max(0.0);
                (c as u32, d_sq, lb * lb)
            })
            .collect();
        order.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

        let mut topk = TopK::new(k);
        let mut probed = 0usize;
        let cap = self.config.max_nprobe.min(order.len());

        while probed < cap {
            // Error-bound termination: the best unseen candidate lives in
            // the next cluster; if even it cannot beat τ²(1+ε), stop.
            if topk.is_full() {
                let next_lb_sq = order[probed].2;
                if next_lb_sq > topk.threshold() * (1.0 + self.config.epsilon) {
                    break;
                }
            }
            let wave_end = (probed + self.config.wave).min(cap);
            let wave = &order[probed..wave_end];
            probed = wave_end;

            // Group the wave's clusters by owning machine.
            let mut by_machine: HashMap<usize, Vec<u32>> = HashMap::new();
            for &(c, _, _) in wave {
                let m = self.assignment.cluster_to_shard[c as usize] as usize;
                by_machine.entry(m).or_default().push(c);
            }
            let expected = by_machine.len();
            for (machine, clusters) in by_machine {
                let chunk = QueryChunk {
                    ns: 0,
                    query_id: qid,
                    epoch: 0,
                    shard: machine as u32,
                    k: k as u32,
                    threshold: topk.threshold(),
                    clusters,
                    dims: query.to_vec(),
                    q_total_norm_sq: 0.0,
                    order: vec![machine as u64],
                    position: 0,
                    delta_seq: 0,
                };
                inner
                    .cluster
                    .send(machine, ToWorker::Chunk(chunk).to_bytes())?;
            }
            let mut received = 0;
            while received < expected {
                let (_, payload) = inner.cluster.recv_timeout(Duration::from_secs(30))?;
                match ToClient::from_bytes(payload)? {
                    ToClient::Result(r) => {
                        if r.query_id != qid {
                            continue;
                        }
                        for (&id, &score) in r.ids.iter().zip(&r.scores) {
                            topk.push(id, score);
                        }
                        received += 1;
                    }
                    other => {
                        return Err(CoreError::Protocol(format!(
                            "unexpected message during Auncel wave: {other:?}"
                        )))
                    }
                }
            }
        }

        Ok(AuncelResult {
            neighbors: topk.into_sorted(),
            probes_used: probed,
        })
    }

    /// Sequential batch search (Auncel's waves serialize per query); returns
    /// per-query results, wall time, and the metrics delta.
    ///
    /// # Errors
    /// Dimension mismatch or transport failures.
    pub fn search_batch(
        &self,
        queries: &VectorStore,
        k: usize,
    ) -> Result<(Vec<AuncelResult>, Duration, ClusterSnapshot), CoreError> {
        let mut inner = self.inner.lock();
        inner.cluster.reset_metrics();
        let t0 = Instant::now();
        let mut out = Vec::with_capacity(queries.len());
        for qi in 0..queries.len() {
            out.push(self.search_locked(&mut inner, queries.row(qi), k)?);
        }
        let wall = t0.elapsed();
        let snapshot = inner.cluster.snapshot();
        Ok((out, wall, snapshot))
    }

    /// Stops the workers.
    ///
    /// # Errors
    /// Reports worker panics.
    pub fn shutdown(self) -> Result<(), CoreError> {
        self.inner.into_inner().cluster.shutdown()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_data::SyntheticSpec;
    use harmony_index::FlatIndex;

    fn dataset() -> harmony_data::Dataset {
        SyntheticSpec::clustered(1_500, 16, 12)
            .with_seed(5)
            .generate()
    }

    fn engine(epsilon: f32) -> (AuncelEngine, harmony_data::Dataset) {
        let d = dataset();
        let config = AuncelConfig {
            nlist: 24,
            epsilon,
            seed: 9,
            ..AuncelConfig::default()
        };
        (AuncelEngine::build(config, &d.base).unwrap(), d)
    }

    #[test]
    fn finds_self_and_terminates_early() {
        let (engine, d) = engine(0.05);
        let r = engine.search(d.base.row(7), 1).unwrap();
        assert_eq!(r.neighbors[0].id, 7);
        assert!(r.neighbors[0].score < 1e-6);
        assert!(
            r.probes_used < 24,
            "tight self-query should stop early, probed {}",
            r.probes_used
        );
        engine.shutdown().unwrap();
    }

    #[test]
    fn error_bound_holds_against_exact_search() {
        let (engine, d) = engine(0.05);
        let flat = FlatIndex::from_store(d.base.clone(), Metric::L2);
        for qi in 0..10 {
            let q = d.queries.row(qi);
            let got = engine.search(q, 5).unwrap();
            let exact = flat.search(q, 5).unwrap();
            // Every returned score must be within (1+ε) of the true k-th
            // best — the Auncel guarantee.
            let bound = exact[4].score * (1.0 + 0.05) + 1e-6;
            for n in &got.neighbors {
                assert!(
                    n.score <= bound,
                    "query {qi}: score {} above bound {bound}",
                    n.score
                );
            }
        }
        engine.shutdown().unwrap();
    }

    #[test]
    fn tighter_epsilon_probes_more() {
        let (loose, d) = engine(1.0);
        let (tight, _) = engine(0.0);
        let mut loose_probes = 0;
        let mut tight_probes = 0;
        for qi in 0..10 {
            let q = d.queries.row(qi);
            loose_probes += loose.search(q, 5).unwrap().probes_used;
            tight_probes += tight.search(q, 5).unwrap().probes_used;
        }
        assert!(
            tight_probes >= loose_probes,
            "tight {tight_probes} < loose {loose_probes}"
        );
        loose.shutdown().unwrap();
        tight.shutdown().unwrap();
    }

    #[test]
    fn batch_reports_metrics() {
        let (engine, d) = engine(0.1);
        let queries = d.base.gather(&[1, 2, 3]);
        let (results, wall, snapshot) = engine.search_batch(&queries, 3).unwrap();
        assert_eq!(results.len(), 3);
        assert!(wall > Duration::ZERO);
        assert!(snapshot.total().bytes_tx > 0);
        engine.shutdown().unwrap();
    }

    #[test]
    fn rejects_bad_inputs() {
        let (engine, _) = engine(0.1);
        assert!(engine.search(&[1.0, 2.0], 3).is_err());
        engine.shutdown().unwrap();
        assert!(AuncelEngine::build(
            AuncelConfig {
                n_machines: 0,
                ..AuncelConfig::default()
            },
            &VectorStore::from_flat(2, vec![0.0, 0.0]).unwrap()
        )
        .is_err());
    }
}
