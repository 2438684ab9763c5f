//! The worker's one install path, driven over the wire: a `Load` for epoch
//! `N+1` installs beside epoch `N` and is answered with the epoch-carrying
//! ack, both epochs answer queries, and `EvictEpoch` returns every stored
//! byte the worker's stats count, and its part files, to their prior
//! value. Once the worker is down, its spill directory is gone.

use std::path::{Path, PathBuf};
use std::time::Duration;

use harmony::cluster::{Cluster, ClusterConfig, Wire};
use harmony::core::messages::{
    ClusterBlock, DeleteIds, DeltaUpsert, LoadBlock, QueryChunk, SetTier, ToClient, ToWorker,
};
use harmony::core::{HarmonyWorker, Temperature};

const NS: u16 = 3;

/// Three 2-d rows — (1,0), (0,1), (5,5) — as list 0 of shard 0.
fn load(epoch: u64) -> ToWorker {
    ToWorker::Load(LoadBlock {
        ns: NS,
        epoch,
        shard: 0,
        dim_block: 0,
        dim_start: 0,
        dim_end: 2,
        total_dim_blocks: 1,
        metric: 0,
        pruning: true,
        repr: 0,
        lists: vec![ClusterBlock {
            cluster: 0,
            ids: vec![100, 200, 300],
            flat: vec![1.0, 0.0, 0.0, 1.0, 5.0, 5.0],
            segs: vec![],
            block_norms_sq: vec![],
            total_norms_sq: vec![],
        }],
    })
}

fn chunk(epoch: u64, query_id: u64, delta_seq: u64) -> ToWorker {
    ToWorker::Chunk(QueryChunk {
        ns: NS,
        query_id,
        epoch,
        shard: 0,
        k: 3,
        threshold: f32::INFINITY,
        clusters: vec![0],
        dims: vec![1.0, 0.0],
        q_total_norm_sq: 0.0,
        order: vec![0],
        position: 0,
        delta_seq,
    })
}

fn recv(cluster: &mut Cluster) -> ToClient {
    let (_, payload) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
    ToClient::from_bytes(payload).unwrap()
}

fn answer(cluster: &mut Cluster, msg: ToWorker) -> Vec<u64> {
    cluster.send(0, msg.to_bytes()).unwrap();
    match recv(cluster) {
        ToClient::Result(r) => r.ids,
        other => panic!("expected a result, got {other:?}"),
    }
}

/// What the worker stores, as its stats count it — resident payload by
/// representation, delta bytes, tombstones, cached and spilled bytes —
/// beside the files in its spill directory.
fn storage(cluster: &mut Cluster, spill: &Path) -> ([u64; 6], Vec<PathBuf>) {
    cluster.send(0, ToWorker::GetStats.to_bytes()).unwrap();
    let stats = match recv(cluster) {
        ToClient::Stats(s) => [
            s.f32_block_bytes,
            s.sq8_block_bytes,
            s.delta_bytes,
            s.tombstone_entries,
            s.cache_block_bytes,
            s.spilled_block_bytes,
        ],
        other => panic!("expected stats, got {other:?}"),
    };
    let mut files: Vec<PathBuf> = std::fs::read_dir(spill)
        .map(|d| d.map(|e| e.unwrap().path()).collect())
        .unwrap_or_default();
    files.sort();
    (stats, files)
}

#[test]
fn a_load_installs_the_next_epoch_beside_the_incumbent_and_evict_returns_the_gauges() {
    let spill = std::env::temp_dir().join(format!("harmony-worker-epochs-{}", std::process::id()));
    let mut cluster = Cluster::spawn(ClusterConfig::new(1), |_| {
        HarmonyWorker::with_tiering(spill.clone(), 64 << 20)
    });
    let send = |cluster: &Cluster, msg: ToWorker| cluster.send(0, msg.to_bytes()).unwrap();
    let tier = |cluster: &mut Cluster, t: Temperature| {
        let temperature = t.encode();
        send(
            cluster,
            ToWorker::SetTier(SetTier {
                ns: NS,
                temperature,
            }),
        );
        assert_eq!(recv(cluster), ToClient::TierAck { ns: NS });
    };

    // Epoch 4, cold: its block sits in a spill file, and the query below
    // faults it into the cache.
    send(&cluster, load(4));
    assert_eq!(
        recv(&mut cluster),
        ToClient::EpochReady { ns: NS, epoch: 4 }
    );
    tier(&mut cluster, Temperature::Cold);
    assert_eq!(answer(&mut cluster, chunk(4, 1, 0)), vec![100, 200, 300]);
    let before = storage(&mut cluster, &spill);
    assert!(before.0[4] > 0 && before.0[5] > 0, "cached and spilled");
    assert_eq!(before.1.len(), 1, "one part file");

    // Epoch 5 arrives as one `Load`, acked with its own epoch, and takes
    // the namespace's tier as it installs. A delta row and a tombstone land
    // in it.
    send(&cluster, load(5));
    assert_eq!(
        recv(&mut cluster),
        ToClient::EpochReady { ns: NS, epoch: 5 }
    );
    let delta_row = || {
        ToWorker::UpsertDelta(DeltaUpsert {
            ns: NS,
            epoch: 5,
            shard: 0,
            dim_start: 0,
            dim_end: 2,
            ids: vec![400],
            seqs: vec![1],
            flat: vec![0.9, 0.0],
            block_norms_sq: vec![],
            total_norms_sq: vec![],
        })
    };
    send(&cluster, delta_row());
    send(
        &cluster,
        ToWorker::DeleteIds(DeleteIds {
            ns: NS,
            epoch: 5,
            ids: vec![200],
            seq: 2,
        }),
    );
    // Both epochs answer, each from its own storage.
    assert_eq!(answer(&mut cluster, chunk(5, 2, 3)), vec![100, 400, 300]);
    assert_eq!(answer(&mut cluster, chunk(4, 3, 0)), vec![100, 200, 300]);
    let both = storage(&mut cluster, &spill);
    assert!(
        both.0[2] > before.0[2] && both.0[3] > before.0[3] && both.0[5] > before.0[5],
        "epoch 5's delta row, tombstone and spill file are accounted: {before:?} -> {both:?}"
    );
    assert_eq!(both.1.len(), 2, "a part file per epoch");

    // Evicting epoch 5 takes everything of it along; a straggling row for
    // it afterwards is dropped, not stashed.
    send(&cluster, ToWorker::EvictEpoch { ns: NS, epoch: 5 });
    send(&cluster, delta_row());
    assert_eq!(answer(&mut cluster, chunk(5, 4, 3)), Vec::<u64>::new());
    assert_eq!(
        storage(&mut cluster, &spill),
        before,
        "every count and file back at epoch 4's alone"
    );
    assert_eq!(answer(&mut cluster, chunk(4, 5, 0)), vec![100, 200, 300]);

    send(&cluster, ToWorker::EvictEpoch { ns: NS, epoch: 4 });
    assert_eq!(
        storage(&mut cluster, &spill),
        ([0; 6], Vec::new()),
        "nothing outlives the epochs"
    );
    cluster.shutdown().unwrap();
    assert!(!spill.exists(), "nothing outlives the worker");
}
