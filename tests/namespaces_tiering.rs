//! Namespaces and temperature tiering, end to end: a tenant namespace's
//! results must be bit-identical across its hot → demoted (disk-resident)
//! → re-promoted lifecycle, on both transports and both block
//! representations, with four concurrent sessions in flight — spilling a
//! block to disk and faulting it back through the worker cache must be
//! invisible to every query. Separately, namespaces sharing one engine
//! must be perfectly isolated even when their tenants reuse the same
//! vector ids.

use harmony::prelude::*;

const WORKERS: usize = 4;
const SESSIONS: usize = 4;
const QUERIES_PER_SESSION: usize = 16;

type SessionResults = Vec<Vec<Neighbor>>;

fn dataset() -> harmony::data::Dataset {
    SyntheticSpec::clustered(1_500, 32, 8)
        .with_seed(61)
        .generate()
}

fn build_engine(
    d: &harmony::data::Dataset,
    transport: &TransportKind,
    repr: BlockRepr,
) -> HarmonyEngine {
    // balanced_load(false) keeps dispatch row-deterministic so result bits
    // depend only on the layout — the property under test is that storage
    // temperature is *not* part of the layout.
    let config = HarmonyConfig::builder()
        .n_machines(WORKERS)
        .nlist(32)
        .seed(11)
        .balanced_load(false)
        .transport(transport.clone())
        .repr(repr)
        .cache_budget_bytes(1 << 20)
        .build()
        .unwrap();
    HarmonyEngine::build(config, &d.base).unwrap()
}

fn session_batches(d: &harmony::data::Dataset) -> Vec<VectorStore> {
    (0..SESSIONS)
        .map(|t| {
            let rows: Vec<usize> = (0..QUERIES_PER_SESSION)
                .map(|i| (t * 613 + i * 29) % d.base.len())
                .collect();
            d.base.gather(&rows)
        })
        .collect()
}

/// Four concurrent sessions against one namespace; returns per-session
/// ranked results.
fn run_concurrent(
    engine: &HarmonyEngine,
    ns: u16,
    batches: &[VectorStore],
    opts: &SearchOptions,
    label: &str,
) -> Vec<SessionResults> {
    std::thread::scope(|s| {
        let handles: Vec<_> = batches
            .iter()
            .map(|b| s.spawn(move || engine.search_batch_ns(ns, b, opts).unwrap().results))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| panic!("{label} session panicked"))
            })
            .collect()
    })
}

fn assert_bit_identical(a: &[SessionResults], b: &[SessionResults], phase: &str) {
    assert_eq!(a.len(), b.len(), "{phase}: session counts differ");
    for (t, (sa, sb)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            sa.len(),
            sb.len(),
            "{phase}: session {t} result counts differ"
        );
        for (q, (ra, rb)) in sa.iter().zip(sb).enumerate() {
            assert_eq!(
                ra.len(),
                rb.len(),
                "{phase}: session {t} query {q} top-k lengths differ"
            );
            for (na, nb) in ra.iter().zip(rb) {
                assert_eq!(na.id, nb.id, "{phase}: session {t} query {q} ids differ");
                assert_eq!(
                    na.score.to_bits(),
                    nb.score.to_bits(),
                    "{phase}: session {t} query {q} score bits differ for id {}",
                    na.id
                );
            }
        }
    }
}

/// Hot → Cold → Hot on one engine configuration: every phase must return
/// the same bits under four concurrent sessions.
fn run_tier_roundtrip(transport: TransportKind, repr: BlockRepr) {
    let d = dataset();
    let engine = build_engine(&d, &transport, repr);
    let batches = session_batches(&d);
    let opts = SearchOptions::new(10).with_nprobe(8);

    assert_eq!(engine.namespace_tier(0).unwrap(), Temperature::Hot);
    let hot = run_concurrent(&engine, 0, &batches, &opts, "hot");

    // Demote: blocks spill to disk; queries fault them back through the
    // (deliberately tiny) cache, evicting and re-reading under pressure.
    engine.set_namespace_tier(0, Temperature::Cold).unwrap();
    let stats = engine.collect_stats().unwrap();
    assert!(
        stats.spilled_block_bytes > 0,
        "cold tier must spill blocks to disk ({transport:?}, {repr:?})"
    );
    let cold = run_concurrent(&engine, 0, &batches, &opts, "cold");
    assert_bit_identical(&hot, &cold, "hot vs demoted");

    // Re-promote: everything resident again.
    engine.set_namespace_tier(0, Temperature::Hot).unwrap();
    let stats = engine.collect_stats().unwrap();
    assert_eq!(
        stats.spilled_block_bytes, 0,
        "re-promotion must restore full residency ({transport:?}, {repr:?})"
    );
    let back = run_concurrent(&engine, 0, &batches, &opts, "re-promoted");
    assert_bit_identical(&hot, &back, "hot vs re-promoted");

    engine.shutdown().unwrap();
}

#[test]
fn tier_roundtrip_bit_identical_inproc_f32() {
    run_tier_roundtrip(TransportKind::InProc, BlockRepr::F32);
}

#[test]
fn tier_roundtrip_bit_identical_inproc_sq8() {
    run_tier_roundtrip(TransportKind::InProc, BlockRepr::Sq8);
}

#[test]
fn tier_roundtrip_bit_identical_tcp_f32() {
    run_tier_roundtrip(TransportKind::tcp(), BlockRepr::F32);
}

#[test]
fn tier_roundtrip_bit_identical_tcp_sq8() {
    run_tier_roundtrip(TransportKind::tcp(), BlockRepr::Sq8);
}

/// Cross-namespace isolation, property-style: tenants deliberately reuse
/// the same vector ids with *different* vectors; searches, upserts and
/// deletes in one namespace must never leak into another. The shared
/// default namespace is the control group.
#[test]
fn namespaces_isolate_overlapping_id_spaces() {
    let d = dataset();
    let engine = build_engine(&d, &TransportKind::InProc, BlockRepr::F32);
    let opts = SearchOptions::new(5).with_nprobe(8);

    // Three tenants over disjoint data that reuses ids 0..300.
    let tenants: Vec<harmony::data::Dataset> = (0..3)
        .map(|t| {
            SyntheticSpec::clustered(300, 32, 4)
                .with_seed(100 + t as u64)
                .generate()
        })
        .collect();
    let ns: Vec<u16> = tenants
        .iter()
        .map(|t| {
            engine
                .create_namespace(&NamespaceConfig::default().with_nlist(8), &t.base)
                .unwrap()
        })
        .collect();

    let ns0_baseline: Vec<Vec<Neighbor>> = (0..10)
        .map(|i| engine.search(d.base.row(i), &opts).unwrap().neighbors)
        .collect();

    // Self-queries: the same id names a different vector in every tenant,
    // and each tenant resolves it to *its own* vector with a self-match
    // score.
    for (t, tenant) in tenants.iter().enumerate() {
        for row in (0..300).step_by(37) {
            let got = engine
                .search_ns(ns[t], tenant.base.row(row), &opts)
                .unwrap()
                .neighbors;
            assert_eq!(
                got.first().map(|n| n.id),
                Some(tenant.base.id(row)),
                "tenant {t} row {row} must find its own vector"
            );
        }
    }

    // Mutations in tenant 0 — including a delete of an id every tenant
    // shares — must be invisible to tenant 1, tenant 2, and ns0.
    assert!(engine.delete_ns(ns[0], 5).unwrap());
    engine.upsert_ns(ns[0], 7, tenants[2].base.row(7)).unwrap();
    for t in [1usize, 2] {
        let got = engine
            .search_ns(ns[t], tenants[t].base.row(5), &opts)
            .unwrap()
            .neighbors;
        assert_eq!(
            got.first().map(|n| n.id),
            Some(tenants[t].base.id(5)),
            "tenant {t} still owns id 5 after tenant 0 deleted its copy"
        );
    }
    for (i, want) in ns0_baseline.iter().enumerate() {
        let got = engine.search(d.base.row(i), &opts).unwrap().neighbors;
        let want_ids: Vec<u64> = want.iter().map(|n| n.id).collect();
        let got_ids: Vec<u64> = got.iter().map(|n| n.id).collect();
        assert_eq!(
            got_ids, want_ids,
            "ns0 query {i} changed after tenant churn"
        );
    }

    // Tiering one tenant must not disturb the others' results.
    engine.set_namespace_tier(ns[1], Temperature::Cold).unwrap();
    for (t, tenant) in tenants.iter().enumerate() {
        let got = engine
            .search_ns(ns[t], tenant.base.row(11), &opts)
            .unwrap()
            .neighbors;
        assert_eq!(
            got.first().map(|n| n.id),
            Some(tenant.base.id(11)),
            "tenant {t} broken by tenant 1's demotion"
        );
    }

    engine.shutdown().unwrap();
}

/// Sixteen tenants, one hot: demoting the other fifteen must collapse the
/// cluster's RAM-resident block bytes to at most a quarter of the all-hot
/// footprint — and keep them there while the cold tenants are queried,
/// because what a query faults in stays only within the cache's budget.
#[test]
fn one_hot_tenant_of_sixteen_keeps_resident_bytes_under_a_quarter() {
    const TENANTS: usize = 16;
    let data: Vec<harmony::data::Dataset> = (0..TENANTS)
        .map(|t| {
            SyntheticSpec::clustered(1_000, 32, 4)
                .with_seed(400 + t as u64)
                .generate()
        })
        .collect();
    // A tenant's block on a machine is 32 000 B under any plan (1 000 rows
    // x 32 d x 4 B over 4 machines): each worker's cache holds one.
    const CACHE_BUDGET: usize = 48 << 10;
    let config = HarmonyConfig::builder()
        .n_machines(WORKERS)
        .nlist(8)
        .seed(11)
        .cache_budget_bytes(CACHE_BUDGET)
        .build()
        .unwrap();
    let engine = HarmonyEngine::build(config, &data[0].base).unwrap();
    let mut ns = vec![0u16];
    for tenant in &data[1..] {
        let cfg = NamespaceConfig::default().with_nlist(8);
        ns.push(engine.create_namespace(&cfg, &tenant.base).unwrap());
    }
    // Block payload in RAM: pinned blocks and cached ones alike.
    let resident = || {
        let stats = engine.collect_stats().unwrap();
        assert!(stats.cache_block_bytes as usize <= WORKERS * CACHE_BUDGET);
        stats.f32_block_bytes + stats.sq8_block_bytes
    };

    let all_hot = resident();
    for &cold in &ns[1..] {
        engine.set_namespace_tier(cold, Temperature::Cold).unwrap();
    }
    let tiered = resident();
    assert!(
        tiered * 4 <= all_hot,
        "1 hot of {TENANTS}: {tiered} resident bytes of {all_hot} all-hot"
    );

    let opts = SearchOptions::new(1).with_nprobe(8);
    for (tenant, &cold) in data.iter().zip(&ns).skip(1) {
        let got = engine.search_ns(cold, tenant.base.row(7), &opts).unwrap();
        assert_eq!(got.neighbors.first().map(|n| n.id), Some(tenant.base.id(7)));
    }
    let faulted = resident();
    assert!(
        faulted > tiered && faulted * 4 <= all_hot,
        "after cold queries: {faulted} resident bytes of {all_hot} all-hot"
    );
    engine.shutdown().unwrap();
}
