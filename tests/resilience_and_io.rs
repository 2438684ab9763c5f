//! Failure injection, timeouts, dataset IO, and cross-crate plumbing.

use harmony::cluster::{
    Cluster, ClusterConfig, ClusterError, NodeCtx, NodeHandler, NodeId, CLIENT,
};
use harmony::core::CoreError;
use harmony::data::io;
use harmony::prelude::*;
use std::time::Duration;

struct Echo;
impl NodeHandler for Echo {
    fn handle(&mut self, ctx: &NodeCtx, _from: NodeId, payload: bytes::Bytes) {
        ctx.send(CLIENT, payload).unwrap();
    }
}

/// Loses every third message it is sent: the request never answered.
#[derive(Default)]
struct Lossy {
    seen: usize,
}
impl NodeHandler for Lossy {
    fn handle(&mut self, ctx: &NodeCtx, from: NodeId, payload: bytes::Bytes) {
        self.seen += 1;
        if !self.seen.is_multiple_of(3) {
            Echo.handle(ctx, from, payload);
        }
    }
}

#[test]
fn lossy_network_times_out_cleanly() {
    let mut cluster = Cluster::spawn(ClusterConfig::new(2), |_| Lossy::default());
    let mut delivered = 0;
    let mut timeouts = 0;
    for i in 0..8 {
        cluster
            .send(i % 2, bytes::Bytes::from_static(b"x"))
            .unwrap();
        match cluster.recv_timeout(Duration::from_millis(100)) {
            Ok(_) => delivered += 1,
            Err(ClusterError::Timeout) => timeouts += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    // With requests lost, some round trips must fail — and the failures
    // must be clean timeouts, never hangs or panics.
    assert!(timeouts > 0, "expected some losses");
    assert!(delivered > 0, "expected some successes");
    cluster.shutdown().unwrap();
}

#[test]
fn search_survives_engine_reuse_after_timeout_configuration() {
    // A very short timeout with a healthy cluster must still succeed for
    // small work, proving the timeout plumbing does not trip spuriously.
    let d = SyntheticSpec::clustered(500, 8, 4).with_seed(1).generate();
    let config = HarmonyConfig::builder()
        .n_machines(2)
        .nlist(8)
        .build()
        .unwrap();
    let engine = HarmonyEngine::build(config, &d.base).unwrap();
    let opts = SearchOptions::new(3).with_nprobe(2).with_timeout_ms(5_000);
    for qi in 0..5 {
        assert_eq!(
            engine
                .search(d.queries.row(qi), &opts)
                .unwrap()
                .neighbors
                .len(),
            3
        );
    }
    engine.shutdown().unwrap();
}

#[test]
fn fvecs_roundtrip_feeds_an_engine() {
    let d = SyntheticSpec::clustered(600, 12, 6).with_seed(2).generate();
    let mut path = std::env::temp_dir();
    path.push(format!("harmony-it-{}.fvecs", std::process::id()));
    io::write_fvecs(&path, &d.base).unwrap();
    let loaded = io::read_fvecs(&path).unwrap();
    assert_eq!(loaded.len(), d.base.len());
    assert_eq!(loaded.as_flat(), d.base.as_flat());

    let config = HarmonyConfig::builder()
        .n_machines(2)
        .nlist(8)
        .build()
        .unwrap();
    let engine = HarmonyEngine::build(config, &loaded).unwrap();
    let res = engine
        .search(d.base.row(0), &SearchOptions::new(1).with_nprobe(8))
        .unwrap();
    assert_eq!(res.neighbors[0].id, 0);
    engine.shutdown().unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_and_tiny_datasets_behave() {
    // Single vector, k larger than the dataset.
    let store = VectorStore::from_flat(4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
    let config = HarmonyConfig::builder()
        .n_machines(2)
        .nlist(4)
        .build()
        .unwrap();
    let engine = HarmonyEngine::build(config, &store).unwrap();
    let res = engine
        .search(
            &[1.0, 2.0, 3.0, 4.0],
            &SearchOptions::new(10).with_nprobe(4),
        )
        .unwrap();
    assert_eq!(res.neighbors.len(), 1);
    assert_eq!(res.neighbors[0].id, 0);
    engine.shutdown().unwrap();
}

/// Stage 1 ships its `k` to the workers as a u32. A `k` whose stage-1
/// count does not fit — `k` itself on exact blocks, `k` × the rerank scale
/// under SQ8 — is a typed error before anything is sent, and the engine
/// keeps answering; the largest `k` that fits is served (every probed row
/// comes back) without reserving room for `k` results anywhere.
#[test]
fn a_k_past_the_wire_is_a_config_error_and_the_largest_that_fits_is_served() {
    let d = SyntheticSpec::clustered(400, 8, 4).with_seed(3).generate();
    for repr in [BlockRepr::F32, BlockRepr::Sq8] {
        let config = HarmonyConfig::builder()
            .n_machines(2)
            .nlist(4)
            .repr(repr)
            .build()
            .unwrap();
        let engine = HarmonyEngine::build(config, &d.base).unwrap();
        let fits = match repr {
            BlockRepr::F32 => u32::MAX as usize,
            BlockRepr::Sq8 => u32::MAX as usize / 4,
        };
        let query = d.queries.row(0);
        for k in [fits + 1, 1 << 32, usize::MAX] {
            let opts = SearchOptions::new(k).with_nprobe(4);
            match engine.search(query, &opts) {
                Err(CoreError::Config(msg)) => assert!(msg.contains("stage 1"), "{msg}"),
                other => panic!("{repr:?} k={k}: expected a config error, got {other:?}"),
            }
        }
        let all = engine
            .search(query, &SearchOptions::new(fits).with_nprobe(4))
            .unwrap();
        assert_eq!(all.neighbors.len(), d.base.len(), "{repr:?}");
        let top = engine
            .search(query, &SearchOptions::new(5).with_nprobe(4))
            .unwrap();
        assert_eq!(top.neighbors[..], all.neighbors[..5], "{repr:?}");
        engine.shutdown().unwrap();
    }
}

#[test]
fn dimension_blocks_cannot_exceed_dimensions() {
    let store = VectorStore::from_flat(2, vec![0.0; 2 * 50]).unwrap();
    let config = HarmonyConfig::builder()
        .n_machines(4)
        .nlist(4)
        .plan(harmony::core::PartitionPlan::new(1, 4).unwrap())
        .build()
        .unwrap();
    assert!(HarmonyEngine::build(config, &store).is_err());
}

#[test]
fn dimension_mode_clamps_blocks_to_dim() {
    // HarmonyDimension on 2-d data with 4 machines must clamp, not fail.
    let store = VectorStore::from_flat(2, vec![0.5; 2 * 60]).unwrap();
    let config = HarmonyConfig::builder()
        .n_machines(4)
        .nlist(4)
        .mode(harmony::core::EngineMode::HarmonyDimension)
        .build()
        .unwrap();
    let engine = HarmonyEngine::build(config, &store).unwrap();
    assert!(engine.plan().dim_blocks <= 2);
    engine.shutdown().unwrap();
}

#[test]
fn peak_memory_counters_wire_through() {
    use harmony::cluster::mem;
    // Not installed as global allocator in the test binary: counters must
    // read zero-ish and never panic.
    let _ = mem::current_bytes();
    let _ = mem::peak_bytes();
    mem::reset_peak();
    assert_eq!(mem::format_bytes(0), "0 B");
}
