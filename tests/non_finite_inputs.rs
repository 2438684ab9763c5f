//! A NaN or infinite coordinate is a typed error at every entry point that
//! takes vectors, raised before anything is sent — never a panic in
//! k-means++, never an infinite SQ8 scale zeroing a list's codes at the next
//! compaction — and the engine keeps answering afterwards.

use harmony::core::CoreError;
use harmony::index::IndexError;
use harmony::prelude::*;

const BAD: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

fn corpus() -> VectorStore {
    SyntheticSpec::clustered(2_000, 8, 8)
        .with_seed(11)
        .generate()
        .base
}

fn config() -> HarmonyConfig {
    HarmonyConfig::builder()
        .n_machines(4)
        .nlist(16)
        .seed(3)
        .build()
        .unwrap()
}

/// `base` with row `row`'s coordinate 5 replaced by `bad`.
fn poisoned(base: &VectorStore, row: usize, bad: f32) -> VectorStore {
    let mut out = base.clone();
    out.row_mut(row)[5] = bad;
    out
}

fn assert_non_finite<T>(got: Result<T, CoreError>, row: usize) {
    match got {
        Err(CoreError::Index(IndexError::NonFinite { row: at })) => assert_eq!(at, row),
        Err(other) => panic!("expected a non-finite error for row {row}, got {other:?}"),
        Ok(_) => panic!("a non-finite vector in row {row} was accepted"),
    }
}

#[test]
fn build_rejects_a_non_finite_base() {
    let base = corpus();
    for bad in BAD {
        assert_non_finite(
            HarmonyEngine::build(config(), &poisoned(&base, 1_234, bad)),
            1_234,
        );
    }
}

#[test]
fn a_serving_engine_rejects_non_finite_vectors_and_keeps_answering() {
    let base = corpus();
    let engine = HarmonyEngine::build(config(), &base).unwrap();
    let tenant = SyntheticSpec::clustered(600, 8, 4)
        .with_seed(5)
        .generate()
        .base;
    let ns = engine
        .create_namespace(&NamespaceConfig::default().with_nlist(4), &tenant)
        .unwrap();
    let opts = SearchOptions::new(5).with_nprobe(4);
    let queries = base.gather(&[10, 20, 30]);
    let want = engine.search_batch(&queries, &opts).unwrap().results;

    for bad in BAD {
        let cfg = NamespaceConfig::default().with_nlist(4);
        assert_non_finite(
            engine.create_namespace(&cfg, &poisoned(&tenant, 77, bad)),
            77,
        );

        let vector = poisoned(&queries, 0, bad).row(0).to_vec();
        assert_non_finite(engine.upsert(50_000, &vector), 0);
        assert_non_finite(engine.upsert_ns(ns, 50_000, &vector), 0);
        assert_non_finite(engine.search(&vector, &opts), 0);
        assert_non_finite(engine.search_ns(ns, &vector, &opts), 0);
        assert_non_finite(engine.search_batch(&poisoned(&queries, 2, bad), &opts), 2);
        assert_non_finite(
            engine.search_batch_ns(ns, &poisoned(&queries, 1, bad), &opts),
            1,
        );
    }

    // Nothing was written and nothing is stuck: the same answers as before.
    assert_eq!(engine.pending_deltas(), 0);
    assert_eq!(engine.namespace_ids(), vec![0, ns]);
    let got = engine.search_batch(&queries, &opts).unwrap().results;
    assert_eq!(got, want);
    let own = engine.search_ns(ns, tenant.row(7), &opts).unwrap();
    assert_eq!(own.neighbors.first().map(|n| n.id), Some(tenant.id(7)));
    engine.shutdown().unwrap();
}
