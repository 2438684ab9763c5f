//! The four workloads: their parameters, their seeded inputs and the engine
//! configuration each one runs. Names are permanent — later PRs are judged
//! by them. Why each exists is recorded in `BENCHMARK.json` and README.md.

use std::path::Path;

use harmony_cluster::TransportKind;
use harmony_core::{HarmonyConfig, HarmonyEngine, NamespaceConfig, Temperature};
use harmony_data::{SyntheticSpec, WorkloadSpec};
use harmony_index::{BlockRepr, VectorStore};
use rand::distr::weighted::WeightedIndex;
use rand::prelude::*;

use crate::estim::Tally;

pub const K: usize = 10;
/// Queries scored against the brute-force oracle.
pub const SCORE_QUERIES: usize = 256;

/// Writes per churn cycle; a cycle ends with one `compact()`.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// Upserts per cycle: half new ids, half overwrites of live ids.
    pub upserts: usize,
    pub deletes: usize,
    pub cycles_per_window: usize,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Vectors per tenant.
    pub n: usize,
    pub dim: usize,
    pub components: usize,
    pub nlist: usize,
    pub nprobe: usize,
    pub repr: BlockRepr,
    pub tcp: bool,
    pub query_skew: WorkloadSpec,
    /// Queries per `search_batch[_ns]` call.
    pub batch: usize,
    /// Batch calls per window (read-only workloads).
    pub batches_per_window: usize,
    /// Single in-flight `search[_ns]` calls per window (latency samples).
    pub singles: usize,
    /// Namespaces; tenant 0 is hot, the rest are demoted to `Cold`.
    pub tenants: usize,
    /// Per-worker block-cache budget (engine default when `None`).
    pub cache_budget_bytes: Option<usize>,
    /// Mixed workload: writer cycles run beside the reader in every window.
    /// Read-only workloads run a few smaller cycles after their windows.
    pub concurrent_churn: bool,
    pub churn: Churn,
    /// `recall_at_10` below this is a correctness failure.
    pub recall_floor: f64,
}

impl Spec {
    /// Full-size or `--smoke` (micro corpus) parameters of workload `name`.
    pub fn get(name: &str, smoke: bool) -> Option<Spec> {
        let tail = Churn {
            upserts: 96,
            deletes: 32,
            cycles_per_window: 1,
        };
        let mut spec = match name {
            "scan_uniform" => Spec {
                name: "scan_uniform",
                n: 100_000,
                dim: 128,
                components: 32,
                nlist: 128,
                nprobe: 32,
                repr: BlockRepr::F32,
                tcp: false,
                query_skew: WorkloadSpec::Uniform,
                batch: 1000,
                batches_per_window: 1,
                singles: 64,
                tenants: 1,
                cache_budget_bytes: None,
                concurrent_churn: false,
                churn: tail,
                recall_floor: 0.97,
            },
            "hops_skew_tcp" => Spec {
                name: "hops_skew_tcp",
                n: 40_000,
                dim: 96,
                components: 32,
                nlist: 200,
                nprobe: 16,
                repr: BlockRepr::Sq8,
                tcp: true,
                query_skew: WorkloadSpec::Zipf { s: 1.2 },
                batch: 2000,
                batches_per_window: 1,
                singles: 64,
                tenants: 1,
                cache_budget_bytes: None,
                concurrent_churn: false,
                churn: tail,
                recall_floor: 0.93,
            },
            "churn_mixed" => Spec {
                name: "churn_mixed",
                n: 48_000,
                dim: 64,
                components: 16,
                nlist: 64,
                nprobe: 8,
                repr: BlockRepr::F32,
                tcp: false,
                query_skew: WorkloadSpec::Uniform,
                batch: 64,
                batches_per_window: 0,
                singles: 64,
                tenants: 1,
                cache_budget_bytes: None,
                concurrent_churn: true,
                churn: Churn {
                    upserts: 384,
                    deletes: 128,
                    cycles_per_window: 6,
                },
                recall_floor: 0.93,
            },
            "tenants_cold" => Spec {
                name: "tenants_cold",
                n: 20_000,
                dim: 64,
                components: 8,
                nlist: 16,
                nprobe: 8,
                repr: BlockRepr::F32,
                tcp: false,
                query_skew: WorkloadSpec::Uniform,
                batch: 32,
                batches_per_window: 24,
                // A faulting call takes ≈ 20 ms: fewer keep the window short.
                singles: 32,
                tenants: 16,
                // ≈ 19 MiB of cold blocks per worker against 4 MiB of cache.
                cache_budget_bytes: Some(4 << 20),
                concurrent_churn: false,
                churn: tail,
                recall_floor: 0.97,
            },
            _ => return None,
        };
        if smoke {
            spec.n /= 10;
            spec.nlist = (spec.nlist / 4).max(spec.nprobe);
            spec.batch = (spec.batch / 8).max(32);
            spec.batches_per_window = spec.batches_per_window.min(6);
            spec.cache_budget_bytes = spec.cache_budget_bytes.map(|b| b / 10);
            spec.churn.upserts /= 4;
            spec.churn.deletes /= 4;
            spec.churn.cycles_per_window = spec.churn.cycles_per_window.min(2);
        }
        Some(spec)
    }

    pub fn engine_config(&self, spill_dir: &Path) -> HarmonyConfig {
        let mut b = HarmonyConfig::builder()
            .n_machines(4)
            .nlist(self.nlist)
            .repr(self.repr)
            .spill_dir(spill_dir.to_path_buf());
        if self.tcp {
            b = b.transport(TransportKind::tcp());
        }
        if let Some(budget) = self.cache_budget_bytes {
            b = b.cache_budget_bytes(budget);
        }
        b.build().expect("workload engine configs are valid")
    }
}

/// One `search_batch_ns` call of the fixed per-window schedule.
pub struct Batch {
    /// Index into [`Inputs::tenants`] (= position in the namespace id list).
    pub tenant: usize,
    pub queries: VectorStore,
}

/// Everything the engine will see, generated from `--seed` alone.
pub struct Inputs {
    pub spec: Spec,
    /// Base vectors per tenant; tenant 0 becomes namespace 0.
    pub tenants: Vec<VectorStore>,
    /// The same batches run in every window, so first and last window must
    /// agree bit for bit. Empty for `churn_mixed`, whose reader builds its
    /// batches from [`Inputs::pool`] and the rows just written.
    pub window: Vec<Batch>,
    /// `Spec::singles` single-query calls per window, hot and cold alternating on
    /// `tenants_cold`.
    pub singles: Vec<(usize, Vec<f32>)>,
    /// Queries scored against the oracle, grouped by tenant.
    pub score: Vec<Batch>,
    /// Static query pool of tenant 0 for the churn reader.
    pub pool: VectorStore,
}

fn rows(store: &VectorStore, range: std::ops::Range<usize>) -> VectorStore {
    store.gather(&range.collect::<Vec<_>>())
}

/// The corpus is the same for every `--seed`: its cluster geometry alone
/// moves `wire_bytes_per_query` by ±30 % and the time metrics by ±10 % from
/// seed to seed, which would swamp every bound. The seed drives what the
/// engine is *asked*: the query sample, the tenant schedule and the write
/// stream.
const CORPUS_SEED: u64 = 0x00C0_2B05;

pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let data_spec = |tenant: usize| {
        SyntheticSpec::clustered(spec.n, spec.dim, spec.components)
            .with_seed(CORPUS_SEED + tenant as u64)
    };
    let tenants: Vec<VectorStore> = (0..spec.tenants)
        .map(|t| data_spec(t).generate().base)
        .collect();
    let weights = spec.query_skew.weights(spec.components);
    let queries_of = |tenant: usize, n: usize| {
        let query_seed = seed.wrapping_mul(7919) ^ (0x005E_A2C4 + tenant as u64);
        data_spec(tenant)
            .make_queries(n, Some(&weights), query_seed)
            .0
    };

    let mut window = Vec::new();
    let mut singles = Vec::new();
    let mut score = Vec::new();
    let mut pool = VectorStore::new(spec.dim);
    if spec.tenants == 1 {
        // The churn reader cycles through a pool instead of fixed batches.
        let per_window = (spec.batch * spec.batches_per_window).max(1024);
        let all = queries_of(0, per_window + spec.singles + SCORE_QUERIES);
        for b in 0..spec.batches_per_window {
            window.push(Batch {
                tenant: 0,
                queries: rows(&all, b * spec.batch..(b + 1) * spec.batch),
            });
        }
        pool = rows(&all, 0..per_window);
        for i in 0..spec.singles {
            singles.push((0, all.row(per_window + i).to_vec()));
        }
        score.push(Batch {
            tenant: 0,
            queries: rows(&all, per_window + spec.singles..all.len()),
        });
    } else {
        // The tenant schedule is the same for every seed (which tenant a
        // batch goes to decides how much data it touches); the seed picks
        // the query vectors. Batches: half to the hot tenant, half Zipf(1.0)
        // over the cold ones, so a few popular cold tenants stay cached and
        // the rest fault.
        let mut rng = StdRng::seed_from_u64(CORPUS_SEED);
        let cold = WeightedIndex::new((1..spec.tenants).map(|r| 1.0 / r as f64))
            .expect("at least one cold tenant");
        let per_tenant: Vec<VectorStore> = (0..spec.tenants)
            .map(|t| {
                queries_of(
                    t,
                    spec.batch * spec.batches_per_window + spec.singles + SCORE_QUERIES,
                )
            })
            .collect();
        let mut used = vec![0usize; spec.tenants];
        for b in 0..spec.batches_per_window {
            let t = if b % 2 == 0 {
                0
            } else {
                1 + cold.sample(&mut rng)
            };
            window.push(Batch {
                tenant: t,
                queries: rows(&per_tenant[t], used[t]..used[t] + spec.batch),
            });
            used[t] += spec.batch;
        }
        // Singles: a quarter hot, the rest round-robin over the unpopular
        // cold tenants — more of them than the cache holds, so each call
        // faults its blocks in. The median then sits inside the fault path
        // instead of between two modes.
        let unpopular: Vec<usize> = (spec.tenants / 4 + 1..spec.tenants).collect();
        for i in 0..spec.singles {
            let t = if i % 4 == 0 {
                0
            } else {
                unpopular[i % unpopular.len()]
            };
            singles.push((t, per_tenant[t].row(used[t]).to_vec()));
            used[t] += 1;
        }
        // Score the hot tenant and the most popular cold one.
        for t in [0, 1] {
            score.push(Batch {
                tenant: t,
                queries: rows(&per_tenant[t], used[t]..used[t] + SCORE_QUERIES / 2),
            });
        }
    }
    Inputs {
        spec: spec.clone(),
        tenants,
        window,
        singles,
        score,
        pool,
    }
}

/// A built deployment: the engine plus the namespace id of every tenant.
pub struct Deployment {
    pub engine: HarmonyEngine,
    pub ns: Vec<u16>,
}

/// Builds the workload's engine from the in-memory corpus: namespace 0 from
/// tenant 0, one namespace per further tenant, all but tenant 0 demoted to
/// `Cold`. Every call is counted in `tally`; a failed build is fatal.
pub fn deploy(inputs: &Inputs, spill_dir: &Path, tally: &mut Tally) -> Result<Deployment, String> {
    let spec = &inputs.spec;
    let engine = tally
        .record(
            "engine build",
            1,
            HarmonyEngine::build(spec.engine_config(spill_dir), &inputs.tenants[0]),
        )
        .ok_or("engine build failed")?;
    let mut ns = vec![0u16];
    let ns_cfg = NamespaceConfig::default().with_nlist(spec.nlist);
    for base in &inputs.tenants[1..] {
        let id = tally
            .record(
                "create_namespace",
                1,
                engine.create_namespace(&ns_cfg, base),
            )
            .ok_or("create_namespace failed")?;
        ns.push(id);
    }
    for &id in &ns[1..] {
        tally
            .record(
                "set_namespace_tier",
                1,
                engine.set_namespace_tier(id, Temperature::Cold),
            )
            .ok_or("set_namespace_tier failed")?;
    }
    Ok(Deployment { engine, ns })
}
