//! SQ8 two-stage search parity: the quantized stage-1 scan plus exact f32
//! re-rank must recover ≥ 0.99 of the exact pipeline's recall@10 — on both
//! the in-process and the real loopback TCP fabric, on the layout the build
//! picks and on a forced two-hop, two-shard one, and again after a live
//! migration has resliced every quantized block onto a new layout. And the
//! threshold workers prune against is sound: with every list probed and
//! every estimate reranked, the answers are brute force's while the first
//! hop still prunes.

use harmony::core::{HarmonyConfigBuilder, PartitionPlan};
use harmony::data::ground_truth;
use harmony::prelude::*;

const WORKERS: usize = 4;
const QUERIES: usize = 64;
const K: usize = 10;
const NLIST: usize = 32;

fn dataset() -> harmony::data::Dataset {
    // dim 64 keeps every dimension block ≥ 16 wide under a 4-way plan, the
    // regime the SQ8 byte-reduction target assumes.
    SyntheticSpec::clustered(2_000, 64, 8)
        .with_seed(97)
        .generate()
}

fn builder(transport: TransportKind, repr: BlockRepr) -> HarmonyConfigBuilder {
    HarmonyConfig::builder()
        .n_machines(WORKERS)
        .nlist(NLIST)
        .seed(7)
        .balanced_load(false)
        .transport(transport)
        .repr(repr)
}

/// An engine on the layout its build picks, or on `plan` when one is given.
fn build_engine(
    d: &harmony::data::Dataset,
    transport: TransportKind,
    repr: BlockRepr,
    plan: Option<PartitionPlan>,
) -> HarmonyEngine {
    let mut config = builder(transport, repr);
    if let Some(plan) = plan {
        config = config.plan(plan);
    }
    HarmonyEngine::build(config.build().unwrap(), &d.base).unwrap()
}

fn queries(d: &harmony::data::Dataset) -> VectorStore {
    let rows: Vec<usize> = (0..QUERIES).map(|i| (i * 31) % d.base.len()).collect();
    d.base.gather(&rows)
}

/// Fraction of the f32 pipeline's top-k ids the sq8 pipeline recovers,
/// averaged over the batch.
fn recall_vs(f32_results: &[Vec<Neighbor>], sq8_results: &[Vec<Neighbor>]) -> f64 {
    assert_eq!(f32_results.len(), sq8_results.len());
    let mut hits = 0usize;
    let mut total = 0usize;
    for (fr, qr) in f32_results.iter().zip(sq8_results) {
        total += fr.len();
        for n in fr {
            if qr.iter().any(|m| m.id == n.id) {
                hits += 1;
            }
        }
    }
    hits as f64 / total.max(1) as f64
}

/// Runs both representations through one transport, pre- and post-
/// migration, and checks sq8 recall against the exact pipeline each time.
fn check_transport(transport: TransportKind, label: &str) {
    let d = dataset();
    let q = queries(&d);
    let opts = SearchOptions::new(K).with_nprobe(8);

    // Forced `2v x 2d`: a query's second shard visit prunes against a
    // threshold taken from the first visit's hits, reranked on arrival.
    let plan = PartitionPlan::new(2, 2).unwrap();
    let exact = build_engine(&d, transport.clone(), BlockRepr::F32, Some(plan));
    let quant = build_engine(&d, transport.clone(), BlockRepr::Sq8, Some(plan));
    let r = recall_vs(
        &exact.search_batch(&q, &opts).unwrap().results,
        &quant.search_batch(&q, &opts).unwrap().results,
    );
    assert!(r >= 0.99, "{label}: 2v x 2d sq8 recall@{K} {r:.4} < 0.99");
    exact.shutdown().unwrap();
    quant.shutdown().unwrap();

    let exact = build_engine(&d, transport.clone(), BlockRepr::F32, None);
    let quant = build_engine(&d, transport, BlockRepr::Sq8, None);

    let f_pre = exact.search_batch(&q, &opts).unwrap().results;
    let q_pre = quant.search_batch(&q, &opts).unwrap().results;
    let r_pre = recall_vs(&f_pre, &q_pre);
    assert!(
        r_pre >= 0.99,
        "{label}: pre-migration sq8 recall@{K} {r_pre:.4} < 0.99"
    );

    // Live-migrate both engines to a pure dimension layout: sq8 blocks are
    // sliced segment-wise in transit and reassembled on the new owners.
    for engine in [&exact, &quant] {
        let report = engine
            .migrate_to(PartitionPlan::pure_dimension(WORKERS))
            .expect("live migration");
        assert_eq!(report.to_plan.dim_blocks, WORKERS);
    }

    let f_post = exact.search_batch(&q, &opts).unwrap().results;
    let q_post = quant.search_batch(&q, &opts).unwrap().results;
    let r_post = recall_vs(&f_post, &q_post);
    assert!(
        r_post >= 0.99,
        "{label}: post-migration sq8 recall@{K} {r_post:.4} < 0.99"
    );

    exact.shutdown().unwrap();
    quant.shutdown().unwrap();
}

#[test]
fn sq8_recall_matches_f32_inproc() {
    check_transport(TransportKind::InProc, "inproc");
}

#[test]
fn sq8_recall_matches_f32_tcp() {
    check_transport(TransportKind::tcp(), "tcp");
}

/// With every list probed and every estimate kept (`rerank_scale = n / k`),
/// the only thing that can lose a true neighbour is the threshold workers
/// prune against. It is the k-th exact score the client knows, never below
/// the true k-th, so the answers are brute force's — while the first hop
/// still prunes, which a threshold taken from an `n`-entry heap that never
/// fills would not.
fn check_exact_threshold(transport: TransportKind, label: &str) {
    let d = dataset();
    let q = queries(&d);
    let truth = ground_truth(&d.base, &q, K, Metric::L2);
    let opts = SearchOptions::new(K).with_nprobe(NLIST);
    for plan in [
        PartitionPlan::pure_dimension(WORKERS),
        PartitionPlan::new(2, 2).unwrap(),
    ] {
        let config = builder(transport.clone(), BlockRepr::Sq8)
            .rerank_scale(d.base.len() / K)
            .plan(plan)
            .build()
            .unwrap();
        let engine = HarmonyEngine::build(config, &d.base).unwrap();
        engine.reset_stats().unwrap();
        let results = engine.search_batch(&q, &opts).unwrap().results;
        for (row, (got, want)) in results.iter().zip(&truth).enumerate() {
            let got: Vec<u64> = got.iter().map(|n| n.id).collect();
            let want: Vec<u64> = want.iter().map(|n| n.id).collect();
            assert_eq!(got, want, "{label} {}: query {row}", plan.label());
        }
        let pruned = engine.collect_stats().unwrap().slices.pruned;
        assert!(
            pruned[0] > 0,
            "{label} {}: the first hop pruned nothing: {pruned:?}",
            plan.label()
        );
        engine.shutdown().unwrap();
    }
}

#[test]
fn sq8_exact_threshold_is_sound_inproc() {
    check_exact_threshold(TransportKind::InProc, "inproc");
}

#[test]
fn sq8_exact_threshold_is_sound_tcp() {
    check_exact_threshold(TransportKind::tcp(), "tcp");
}
