//! Concurrent multi-client search sessions: N threads sharing one engine
//! must behave exactly like the old serialized client — same results, an
//! `outstanding` load ledger that drains back to zero, one batch deadline
//! instead of one per query, and cosine scores that agree between the
//! client-side prewarm and the worker pipeline.

use harmony::core::CoreError;
use harmony::prelude::*;

fn clustered(n: usize, dim: usize, seed: u64) -> harmony::data::Dataset {
    SyntheticSpec::clustered(n, dim, 8)
        .with_seed(seed)
        .generate()
}

/// Exact comparison: concurrent sessions must not perturb result bits.
fn assert_bit_identical(a: &[Vec<Neighbor>], b: &[Vec<Neighbor>], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: batch sizes differ");
    for (qi, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{label}: query {qi} lengths differ");
        for (nx, ny) in x.iter().zip(y) {
            assert_eq!(nx.id, ny.id, "{label}: query {qi} ids differ");
            assert_eq!(
                nx.score.to_bits(),
                ny.score.to_bits(),
                "{label}: query {qi} scores differ for id {}",
                nx.id
            );
        }
    }
}

#[test]
fn concurrent_sessions_are_bit_identical_to_serialized_runs() {
    let d = clustered(3_000, 24, 42);
    // balanced_load(false) keeps the dimension-block rotation purely
    // row-deterministic, so even float summation order is reproducible.
    let config = HarmonyConfig::builder()
        .n_machines(4)
        .nlist(16)
        .seed(7)
        .balanced_load(false)
        .build()
        .unwrap();
    let engine = HarmonyEngine::build(config, &d.base).unwrap();
    let opts = SearchOptions::new(10).with_nprobe(4);

    let batches: Vec<VectorStore> = (0..4)
        .map(|t| {
            let rows: Vec<usize> = (0..32).map(|i| (t * 131 + i * 17) % d.base.len()).collect();
            d.base.gather(&rows)
        })
        .collect();

    // Serialized baseline: one session at a time.
    let serial: Vec<_> = batches
        .iter()
        .map(|b| engine.search_batch(b, &opts).unwrap().results)
        .collect();

    // Concurrent: all four batches in flight at once, twice over.
    for round in 0..2 {
        let concurrent: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = batches
                .iter()
                .map(|b| s.spawn(|| engine.search_batch(b, &opts).unwrap().results))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, (se, co)) in serial.iter().zip(&concurrent).enumerate() {
            assert_bit_identical(se, co, &format!("round {round} thread {t}"));
        }
    }
    engine.shutdown().unwrap();
}

#[test]
fn concurrent_sessions_over_tcp_match_inproc_bits() {
    let d = clustered(3_000, 24, 42);
    // The plan is pinned: the two engines measure different message costs
    // on their fabrics and may settle a near-tie differently, and the layout
    // decides the float summation order.
    let build = |transport: TransportKind| {
        let config = HarmonyConfig::builder()
            .n_machines(4)
            .nlist(16)
            .seed(7)
            .plan(PartitionPlan::new(2, 2).unwrap())
            .balanced_load(false)
            .transport(transport)
            .build()
            .unwrap();
        HarmonyEngine::build(config, &d.base).unwrap()
    };
    let opts = SearchOptions::new(10).with_nprobe(4);
    let batches: Vec<VectorStore> = (0..4)
        .map(|t| {
            let rows: Vec<usize> = (0..32).map(|i| (t * 131 + i * 17) % d.base.len()).collect();
            d.base.gather(&rows)
        })
        .collect();

    // Reference bits from a serialized run on the in-process fabric.
    let inproc = build(TransportKind::InProc);
    let serial: Vec<_> = batches
        .iter()
        .map(|b| inproc.search_batch(b, &opts).unwrap().results)
        .collect();
    inproc.shutdown().unwrap();

    // Four concurrent sessions multiplexed over real loopback sockets must
    // reproduce them exactly: the cost model sits above the transport, so
    // the fabric may not perturb a single bit.
    let tcp = build(TransportKind::tcp());
    let concurrent: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = batches
            .iter()
            .map(|b| s.spawn(|| tcp.search_batch(b, &opts).unwrap().results))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, (se, co)) in serial.iter().zip(&concurrent).enumerate() {
        assert_bit_identical(se, co, &format!("tcp thread {t}"));
    }
    tcp.shutdown().unwrap();
}

#[test]
fn concurrent_sessions_discharge_outstanding_load_to_zero() {
    let d = clustered(2_000, 16, 11);
    // Non-pipelined dispatch keeps several shard visits of one query in
    // flight simultaneously — the case where discharging the *last
    // dispatched* visit instead of the completing one corrupted the ledger.
    let config = HarmonyConfig::builder()
        .n_machines(4)
        .nlist(16)
        .seed(7)
        .pipeline(false)
        .build()
        .unwrap();
    let engine = HarmonyEngine::build(config, &d.base).unwrap();
    let opts = SearchOptions::new(5).with_nprobe(8);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..2 {
                    engine.search_batch(&d.queries, &opts).unwrap();
                }
            });
        }
    });
    let load = engine.outstanding_load();
    let leftover: f64 = load.iter().sum();
    assert!(
        leftover.abs() < 1e-6,
        "outstanding load must return to ~0 after all batches, got {load:?}"
    );
    engine.shutdown().unwrap();
}

#[test]
fn concurrent_cosine_sessions_match_flat_reference_on_unnormalized_input() {
    let d = clustered(1_500, 24, 5);
    // Scale rows by wildly different factors so nothing is normalized:
    // raw dot products and true cosine order candidates differently.
    let mut base = VectorStore::with_capacity(d.base.dim(), d.base.len());
    for row in 0..d.base.len() {
        let scale = 0.25 + (row % 7) as f32;
        let v: Vec<f32> = d.base.row(row).iter().map(|x| x * scale).collect();
        base.push(row as u64, &v).unwrap();
    }
    let config = HarmonyConfig::builder()
        .n_machines(4)
        .nlist(16)
        .metric(Metric::Cosine)
        .mode(harmony::core::EngineMode::HarmonyDimension)
        .seed(7)
        .build()
        .unwrap();
    let engine = HarmonyEngine::build(config, &base).unwrap();
    let flat = FlatIndex::from_store(base.clone(), Metric::Cosine);
    let opts = SearchOptions::new(10).with_nprobe(16);

    let queries = &d.queries;
    let results: Vec<Vec<Neighbor>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|qi| {
                let engine = &engine;
                let opts = &opts;
                s.spawn(move || engine.search(queries.row(qi), opts).unwrap().neighbors)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (qi, got) in results.iter().enumerate() {
        let q = d.queries.row(qi);
        // Worker-reported scores must equal the client-side metric exactly
        // (up to float reassociation): the cosine score-parity contract.
        for n in got {
            let want = Metric::Cosine.score(q, base.row(n.id as usize));
            assert!(
                (n.score - want).abs() < 1e-4,
                "query {qi}: engine score {} vs client metric {want} for id {}",
                n.score,
                n.id
            );
        }
        // Full probe must agree with the exact flat scan.
        let want = flat.search(q, 10).unwrap();
        for (x, y) in got.iter().zip(&want) {
            if x.id != y.id {
                assert!(
                    (x.score - y.score).abs() <= 1e-4,
                    "query {qi}: ids differ with distinct scores: {x:?} vs {y:?}"
                );
            }
        }
    }
    engine.shutdown().unwrap();
}

#[test]
fn concurrent_batch_deadline_is_shared_not_per_query() {
    let d = clustered(1_200, 16, 3);
    // Blocking transport + real injected delay: every send stalls its
    // sender 30 ms, so a 12-query batch cannot possibly finish inside a
    // 100 ms deadline. Under the old per-receive timeout, each of the up
    // to 12 receives restarted the full budget and the batch could crawl
    // through Q x timeout; the shared deadline must abort after ~one.
    let net = NetworkModel {
        bandwidth_gbps: f64::INFINITY,
        latency_ns: 30_000_000,
        per_message_overhead_bytes: 0,
    };
    let config = HarmonyConfig::builder()
        .n_machines(4)
        .nlist(16)
        .seed(7)
        .pipeline(false) // blocking comm so the delay is sender-side
        .net(net)
        .delay(DelayMode::Sleep { scale: 1.0 })
        .build()
        .unwrap();
    let engine = HarmonyEngine::build(config, &d.base).unwrap();
    let queries = d.base.gather(&(0..12).collect::<Vec<_>>());
    let opts = SearchOptions::new(5).with_nprobe(4).with_timeout_ms(100);

    let t0 = std::time::Instant::now();
    let err = engine.search_batch(&queries, &opts).unwrap_err();
    let elapsed = t0.elapsed();
    assert!(
        matches!(
            err,
            CoreError::Cluster(harmony::cluster::ClusterError::Timeout)
        ),
        "expected a batch timeout, got {err:?}"
    );
    // Old behavior could block up to 12 x 100 ms of receive budget plus the
    // send stalls; the shared deadline caps waiting at one budget (plus the
    // in-progress sends). Leave generous CI slack, but far below Q x timeout.
    assert!(
        elapsed < std::time::Duration::from_millis(900),
        "deadline not shared: batch took {elapsed:?}"
    );
    // The failed batch must not leak load estimates.
    let leftover: f64 = engine.outstanding_load().iter().sum();
    assert!(leftover.abs() < 1e-6, "timeout leaked load: {leftover}");
    engine.shutdown().unwrap();
}
