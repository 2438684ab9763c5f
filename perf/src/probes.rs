//! Per-layer microprobes of the traced run.
//!
//! Each probe times *public* calls of one layer on inputs shaped like the
//! workload's (its dim, its typical list length `n / nlist`, its quarter-width
//! dimension block), inside one `probe.<layer>` span. Probe numbers are raw
//! host time: they are context for reading a change, never gated.

use std::path::Path;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use harmony_baseline::FaissLikeEngine;
use harmony_cluster::{
    decode_frame, encode_frame, Cluster, ClusterConfig, Frame, NodeCtx, NodeHandler, NodeId,
    TransportKind, Wire, CLIENT,
};
use harmony_core::messages::{
    metric_tag, repr_tag, Carry, ClusterBlock, DeltaUpsert, LoadBlock, QueryChunk, QueryResult,
    ToClient, ToWorker,
};
use harmony_core::{
    CostModel, HarmonyWorker, NamespaceConfig, PartitionPlan, SearchOptions, Temperature,
    WorkloadProfile,
};
use harmony_index::distance::{ip, l2_sq, l2_sq_scalar, l2_sq_u8};
use harmony_index::persist::{load_block_file, save_block_file};
use harmony_index::quant::{l2_partial_row, prepare_block_query};
use harmony_index::{
    BlockCache, BlockRepr, DeltaList, Metric, Sq8Segment, TombstoneSet, TopK, VectorStore,
};

use crate::churn::WriteLatencies;
use crate::estim::{median, Tally};
use crate::run::Metric3;
use crate::spans::Tracer;
use crate::workloads::{Deployment, Inputs, K};

/// Seconds of repetitions per timing chunk; a probe takes five chunks.
const CHUNK_S: f64 = 0.006;
const RECV: Duration = Duration::from_secs(10);
/// Pipeline length of the worker probe: the plan the cost model picks for
/// all four workloads is 1 vector shard × 4 dimension blocks.
const HOPS: usize = 4;

pub struct Ctx<'a> {
    pub inputs: &'a Inputs,
    pub dep: &'a Deployment,
    pub out_dir: &'a Path,
    pub tracer: &'a Tracer,
    pub root: u64,
    pub raw_search_qps: f64,
    /// `set_namespace_tier` calls already timed by the run, ms.
    pub set_tier_ms: Vec<f64>,
    /// Window single-query medians per tenant kind (0 when not sampled).
    pub hot_p50_ms: f64,
    pub cold_p50_ms: f64,
    pub write_lat: &'a WriteLatencies,
}

/// Median nanoseconds per unit of work of `f`, where one call does `units`.
fn ns_per_unit(units: f64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-8);
    let reps = ((CHUNK_S / once) as usize).clamp(1, 1 << 20);
    let chunks: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&chunks) * 1e9 / units
}

/// Shapes shared by the probes.
struct Shape {
    dim: usize,
    /// Quarter-width dimension block.
    block: usize,
    /// Typical inverted-list length.
    rows: usize,
    nprobe: usize,
    /// `rows` full-width base rows, row-major.
    full: Vec<f32>,
    /// The first `block` dims of the same rows.
    slice: Vec<f32>,
    query: Vec<f32>,
}

impl Shape {
    fn of(inputs: &Inputs) -> Self {
        let spec = &inputs.spec;
        let base = &inputs.tenants[0];
        let dim = spec.dim;
        let block = (dim / HOPS).max(1);
        let rows = (spec.n / spec.nlist).clamp(16, base.len());
        let full = base.as_flat()[..rows * dim].to_vec();
        let slice = (0..rows)
            .flat_map(|r| base.row(r)[..block].iter().copied())
            .collect();
        Self {
            dim,
            block,
            rows,
            nprobe: spec.nprobe,
            full,
            slice,
            query: inputs.singles[0].1.clone(),
        }
    }
}

fn probe_index(sh: &Shape, out_dir: &Path, m: &mut Vec<Metric3>) {
    use std::hint::black_box;
    let (q, qs) = (&sh.query, &sh.query[..sh.block]);
    let full_pd = (sh.rows * sh.dim) as f64;
    let slice_pd = (sh.rows * sh.block) as f64;
    let scan = |matrix: &[f32], width: usize, q: &[f32], kernel: fn(&[f32], &[f32]) -> f32| {
        let mut acc = 0f32;
        for row in matrix.chunks_exact(width) {
            acc += kernel(q, row);
        }
        black_box(acc);
    };
    let l2 = ns_per_unit(full_pd, || scan(&sh.full, sh.dim, q, l2_sq));
    let l2_scalar = ns_per_unit(full_pd, || scan(&sh.full, sh.dim, q, l2_sq_scalar));
    let l2_slice = ns_per_unit(slice_pd, || scan(&sh.slice, sh.block, qs, l2_sq));
    let ip_full = ns_per_unit(full_pd, || scan(&sh.full, sh.dim, q, ip));

    let seg = Sq8Segment::quantize(&sh.slice, sh.block, 0);
    let qcodes = seg.quantize_query(qs).codes;
    let l2_u8 = ns_per_unit(slice_pd, || {
        let mut acc = 0u32;
        for r in 0..sh.rows {
            acc = acc.wrapping_add(l2_sq_u8(&qcodes, seg.row_codes(r)));
        }
        black_box(acc);
    });
    let quantize_row_ns = ns_per_unit(sh.rows as f64, || {
        black_box(Sq8Segment::quantize(&sh.slice, sh.block, 0));
    });
    let segs = [seg];
    let bq = prepare_block_query(&segs, qs, 0);
    let partial_row_ns = ns_per_unit(sh.rows as f64, || {
        let mut acc = 0f32;
        for r in 0..sh.rows {
            acc += l2_partial_row(&segs, &bq, r);
        }
        black_box(acc);
    });

    // The scan's pattern: most candidates fail the threshold test, few push.
    let scores: Vec<f32> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 8) as f32)
        .collect();
    let topk_ns = ns_per_unit(scores.len() as f64, || {
        let mut top = TopK::new(K);
        for (i, &s) in scores.iter().enumerate() {
            if s <= top.threshold() {
                top.push(i as u64, s);
            }
        }
        black_box(top.len());
    });

    let delta_push_ns = ns_per_unit(512.0, || {
        let mut d = DeltaList::new(sh.block);
        for i in 0..512u64 {
            d.push(i, i + 1, qs, 0.0, 0.0);
        }
        black_box(d.len());
    });
    let mut tombs = TombstoneSet::new();
    for id in (0..2048u64).step_by(2) {
        tombs.insert(id, 1);
    }
    let tomb_ns = ns_per_unit(4096.0, || {
        let mut hits = 0u32;
        for id in 0..4096u64 {
            hits += u32::from(tombs.suppresses_list_row(id));
        }
        black_box(hits);
    });

    // One spilled grid block: every list's quarter-width rows (capped).
    let payload: Vec<u8> = sh
        .slice
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .cycle()
        .take((sh.rows * sh.block * 4 * 64).min(8 << 20))
        .collect();
    let path = out_dir.join(format!("probe-{}.blk", std::process::id()));
    let mb = payload.len() as f64 / 1e6;
    let (mut save_mb_s, mut load_mb_s) = (0.0, 0.0);
    if std::fs::create_dir_all(out_dir).is_ok() && save_block_file(&path, &payload).is_ok() {
        let save_ns = ns_per_unit(1.0, || {
            let _ = black_box(save_block_file(&path, &payload));
        });
        let load_ns = ns_per_unit(1.0, || {
            let _ = black_box(load_block_file(&path));
        });
        save_mb_s = mb / (save_ns / 1e9);
        load_mb_s = mb / (load_ns / 1e9);
    }
    let _ = std::fs::remove_file(&path);

    type Key = (u16, u64, u32);
    let mut cache: BlockCache<Key> = BlockCache::new(16 << 20);
    for s in 0..16u32 {
        cache.insert((1, 0, s), 1 << 20);
    }
    let mut next = 0u32;
    let touch_ns = ns_per_unit(1.0, || {
        next = (next + 7) % 16;
        black_box(cache.touch(&(1, 0, next)));
    });
    let mut fresh = 16u32;
    let evict_ns = ns_per_unit(1.0, || {
        fresh += 1;
        black_box(cache.insert((1, 0, fresh), 1 << 20));
    });

    m.extend([
        ("index.distance.l2_f32_ns_per_pd".into(), l2, "ns"),
        (
            "index.distance.l2_f32_slice_ns_per_pd".into(),
            l2_slice,
            "ns",
        ),
        ("index.distance.ip_f32_ns_per_pd".into(), ip_full, "ns"),
        ("index.distance.l2_u8_ns_per_pd".into(), l2_u8, "ns"),
        (
            "index.distance.simd_speedup".into(),
            l2_scalar / l2,
            "ratio",
        ),
        (
            "index.quant.quantize_mrows_s".into(),
            1e3 / quantize_row_ns,
            "Mrows/s",
        ),
        ("index.quant.l2_partial_row_ns".into(), partial_row_ns, "ns"),
        ("index.topk.push_ns".into(), topk_ns, "ns"),
        ("index.delta.push_ns".into(), delta_push_ns, "ns"),
        ("index.delta.tombstone_check_ns".into(), tomb_ns, "ns"),
        ("index.persist.save_block_mb_s".into(), save_mb_s, "MB/s"),
        ("index.persist.load_block_mb_s".into(), load_mb_s, "MB/s"),
        ("index.tier.cache_touch_ns".into(), touch_ns, "ns"),
        ("index.tier.cache_insert_evict_ns".into(), evict_ns, "ns"),
    ]);
}

/// One list of the worker/codec probes: `rows` vectors restricted to the
/// dimension block starting at `dim_start`.
fn list_block(inputs: &Inputs, sh: &Shape, list: usize, dim_start: usize) -> ClusterBlock {
    let base = &inputs.tenants[0];
    let mut ids = Vec::with_capacity(sh.rows);
    let mut flat = Vec::with_capacity(sh.rows * sh.block);
    for i in 0..sh.rows {
        let row = (list + i * sh.nprobe) % base.len();
        ids.push(base.id(row));
        flat.extend_from_slice(&base.row(row)[dim_start..dim_start + sh.block]);
    }
    ClusterBlock {
        cluster: list as u32,
        ids,
        flat,
        segs: Vec::new(),
        block_norms_sq: Vec::new(),
        total_norms_sq: Vec::new(),
    }
}

fn load_block(inputs: &Inputs, sh: &Shape, ns: u16, hop: usize, pruning: bool) -> LoadBlock {
    LoadBlock {
        ns,
        epoch: 0,
        shard: 0,
        dim_block: hop as u32,
        dim_start: (hop * sh.block) as u64,
        dim_end: ((hop + 1) * sh.block) as u64,
        total_dim_blocks: HOPS as u32,
        metric: metric_tag::encode(Metric::L2),
        repr: repr_tag::encode(BlockRepr::F32),
        pruning,
        lists: (0..sh.nprobe)
            .map(|l| list_block(inputs, sh, l, hop * sh.block))
            .collect(),
    }
}

fn query_chunk(sh: &Shape, ns: u16, query_id: u64, hop: usize, threshold: f32) -> QueryChunk {
    QueryChunk {
        ns,
        query_id,
        epoch: 0,
        shard: 0,
        k: K as u32,
        threshold,
        clusters: (0..sh.nprobe as u32).collect(),
        dims: sh.query[hop * sh.block..(hop + 1) * sh.block].to_vec(),
        q_total_norm_sq: 0.0,
        order: (0..HOPS as u64).collect(),
        position: hop as u32,
        delta_seq: 0,
    }
}

fn probe_messages(inputs: &Inputs, sh: &Shape, m: &mut Vec<Metric3>) {
    use std::hint::black_box;
    /// (encode ns/byte, decode ns/byte, encoded bytes) of one message.
    fn codec<T: Wire>(msg: &T) -> (f64, f64, f64) {
        let bytes = msg.to_bytes();
        let n = bytes.len() as f64;
        let enc = ns_per_unit(n, || {
            black_box(msg.to_bytes());
        });
        let dec = ns_per_unit(n, || {
            let _ = black_box(T::from_bytes(bytes.clone()));
        });
        (enc, dec, n)
    }
    let survivors = (sh.rows * sh.nprobe / 2) as u32;
    let chunk = ToWorker::Chunk(query_chunk(sh, 0, 1, 0, 1.0));
    let carry = ToWorker::Carry(Carry {
        ns: 0,
        query_id: 1,
        epoch: 0,
        shard: 0,
        threshold: 1.0,
        next_position: 1,
        indices: (0..survivors).map(|i| i * 2).collect(),
        partials: (0..survivors).map(|i| i as f32 * 0.001).collect(),
        visited_norms_sq: Vec::new(),
        q_visited_norm_sq: 0.0,
        quant_eps: 0.0,
    });
    let result = ToClient::Result(QueryResult {
        query_id: 1,
        shard: 0,
        ids: (0..K as u64).collect(),
        scores: (0..K).map(|i| i as f32).collect(),
        candidates_seen: u64::from(survivors),
    });
    let load = ToWorker::Load(load_block(inputs, sh, 0, 0, true));
    let upsert = ToWorker::UpsertDelta(DeltaUpsert {
        ns: 0,
        epoch: 0,
        shard: 0,
        dim_start: 0,
        dim_end: sh.block as u64,
        ids: vec![7],
        seqs: vec![1],
        flat: sh.query[..sh.block].to_vec(),
        block_norms_sq: Vec::new(),
        total_norms_sq: Vec::new(),
    });
    let (chunk_enc, chunk_dec, _) = codec(&chunk);
    let (carry_enc, carry_dec, _) = codec(&carry);
    let (_, result_dec, _) = codec(&result);
    let (load_enc, load_dec, _) = codec(&load);
    let (upsert_enc, _, upsert_bytes) = codec(&upsert);
    m.extend([
        (
            "core.messages.chunk_encode_ns_per_byte".into(),
            chunk_enc,
            "ns",
        ),
        (
            "core.messages.chunk_decode_ns_per_byte".into(),
            chunk_dec,
            "ns",
        ),
        (
            "core.messages.carry_encode_ns_per_byte".into(),
            carry_enc,
            "ns",
        ),
        (
            "core.messages.carry_decode_ns_per_byte".into(),
            carry_dec,
            "ns",
        ),
        (
            "core.messages.result_decode_ns_per_byte".into(),
            result_dec,
            "ns",
        ),
        (
            "core.messages.loadblock_encode_mb_s".into(),
            1e3 / load_enc,
            "MB/s",
        ),
        (
            "core.messages.loadblock_decode_mb_s".into(),
            1e3 / load_dec,
            "MB/s",
        ),
        (
            "core.messages.upsert_encode_ns".into(),
            upsert_enc * upsert_bytes,
            "ns",
        ),
    ]);
}

struct Echo;

impl NodeHandler for Echo {
    fn handle(&mut self, ctx: &NodeCtx, _from: NodeId, payload: Bytes) {
        // A failed echo shows up as the probe's receive timing out.
        let _ = ctx.send(CLIENT, payload);
    }
}

/// Round-trip time (µs, small frames) and throughput (MB/s, 64 KiB frames)
/// of a 1-worker echo cluster over `transport`.
fn echo(transport: TransportKind, tally: &mut Tally) -> (f64, f64) {
    let config = ClusterConfig {
        transport,
        ..ClusterConfig::new(1)
    };
    let Some(mut cluster) = tally.record("echo cluster", 1, Cluster::try_spawn(config, |_| Echo))
    else {
        return (0.0, 0.0);
    };
    let round = |cluster: &mut Cluster, payload: &Bytes, inflight: usize| {
        let t = Instant::now();
        let sent = (0..inflight).all(|_| cluster.send(0, payload.clone()).is_ok());
        let back = (0..inflight).all(|_| cluster.recv_timeout(RECV).is_ok());
        (sent && back).then(|| t.elapsed().as_secs_f64())
    };
    let small = Bytes::from(vec![7u8; 64]);
    let rtts: Vec<f64> = (0..300)
        .filter_map(|_| round(&mut cluster, &small, 1))
        .collect();
    tally.check(rtts.len() == 300, "echo round trips were lost");
    let big = Bytes::from(vec![7u8; 64 << 10]);
    let (inflight, rounds) = (32usize, 8);
    let bulk: Vec<f64> = (0..rounds)
        .filter_map(|_| round(&mut cluster, &big, inflight))
        .collect();
    tally.check(bulk.len() == rounds, "echo bulk frames were lost");
    tally.record("echo shutdown", 1, cluster.shutdown());
    let mb = (inflight * big.len()) as f64 / 1e6;
    (median(&rtts) * 1e6, mb / median(&bulk).max(1e-9))
}

fn probe_transport(tally: &mut Tally, m: &mut Vec<Metric3>) {
    let (inproc_rtt, inproc_mb_s) = echo(TransportKind::InProc, tally);
    let (tcp_rtt, tcp_mb_s) = echo(TransportKind::tcp(), tally);
    let frame = Frame::User {
        from: 0,
        payload: Bytes::from(vec![7u8; 4096]),
        injected_delay_ns: 0,
    };
    let bytes = (4 + frame.encoded_len()) as f64;
    let frame_ns = ns_per_unit(bytes, || {
        let mut buf = BytesMut::new();
        encode_frame(&frame, &mut buf);
        let _ = std::hint::black_box(decode_frame(&mut buf.freeze()));
    });
    m.extend([
        ("cluster.transport.inproc_rtt_us".into(), inproc_rtt, "us"),
        ("cluster.transport.tcp_rtt_us".into(), tcp_rtt, "us"),
        ("cluster.transport.inproc_mb_s".into(), inproc_mb_s, "MB/s"),
        ("cluster.transport.tcp_mb_s".into(), tcp_mb_s, "MB/s"),
        ("cluster.transport.frame_ns_per_byte".into(), frame_ns, "ns"),
    ]);
}

/// Drives `HarmonyWorker`s directly: a 4-hop pipeline over `nprobe` lists of
/// typical length, as one shard visit of the real engine would, minus the
/// client's routing, merging and re-ranking.
fn probe_worker(inputs: &Inputs, sh: &Shape, out_dir: &Path, tally: &mut Tally) -> Vec<Metric3> {
    let spill = out_dir.join(format!("spill-probe-{}", std::process::id()));
    let spawned = Cluster::try_spawn(ClusterConfig::new(HOPS), {
        let spill = spill.clone();
        move |w| HarmonyWorker::with_tiering(spill.join(format!("w{w}")), 64 << 20)
    });
    let Some(mut cluster) = tally.record("worker cluster", 1, spawned) else {
        return Vec::new();
    };
    // Namespace 0 prunes, namespace 1 does not; same rows in both.
    let mut load_mb_s = Vec::new();
    for (ns, pruning) in [(0u16, true), (1, false)] {
        for hop in 0..HOPS {
            let bytes = ToWorker::Load(load_block(inputs, sh, ns, hop, pruning)).to_bytes();
            let mb = bytes.len() as f64 / 1e6;
            let t = Instant::now();
            let acked = cluster.send(hop, bytes).is_ok() && cluster.recv_timeout(RECV).is_ok();
            tally.check(acked, "worker did not acknowledge a block load");
            load_mb_s.push(mb / t.elapsed().as_secs_f64());
        }
    }
    // The threshold a prewarmed query starts with: k-th best of a sample.
    let base = &inputs.tenants[0];
    let mut sample: Vec<f32> = (0..sh.nprobe * 8)
        .map(|r| l2_sq(&sh.query, base.row(r % base.len())))
        .collect();
    sample.sort_by(f32::total_cmp);
    let threshold = sample[K.min(sample.len()) - 1];

    let mut next_id = 0u64;
    let mut visit = |cluster: &mut Cluster, ns: u16, delta_seq: u64| {
        next_id += 1;
        let t = Instant::now();
        let sent = (0..HOPS).all(|hop| {
            let mut chunk = query_chunk(sh, ns, next_id, hop, threshold);
            chunk.delta_seq = delta_seq;
            cluster.send(hop, ToWorker::Chunk(chunk).to_bytes()).is_ok()
        });
        let answered = sent
            && matches!(
                cluster
                    .recv_timeout(RECV)
                    .map(|(_, b)| ToClient::from_bytes(b)),
                Ok(Ok(ToClient::Result(_)))
            );
        answered.then(|| t.elapsed().as_secs_f64())
    };
    let mut timed = |cluster: &mut Cluster, ns: u16, delta_seq: u64| {
        let secs: Vec<f64> = (0..40)
            .filter_map(|_| visit(cluster, ns, delta_seq))
            .collect();
        (secs.len() == 40).then(|| median(&secs))
    };
    let pruned = timed(&mut cluster, 0, 0);
    let unpruned = timed(&mut cluster, 1, 0);

    // Delta rows: the same slices appended to every hop's delta list.
    let delta_rows = 4096usize;
    for hop in 0..HOPS {
        let lo = hop * sh.block;
        let msg = ToWorker::UpsertDelta(DeltaUpsert {
            ns: 0,
            epoch: 0,
            shard: 0,
            dim_start: lo as u64,
            dim_end: (lo + sh.block) as u64,
            ids: (0..delta_rows as u64).map(|i| (1 << 40) + i).collect(),
            seqs: (1..=delta_rows as u64).collect(),
            flat: (0..delta_rows)
                .flat_map(|r| base.row(r % base.len())[lo..lo + sh.block].iter().copied())
                .collect(),
            block_norms_sq: Vec::new(),
            total_norms_sq: Vec::new(),
        });
        tally.record("worker upsert", 1, cluster.send(hop, msg.to_bytes()));
    }
    let with_delta = timed(&mut cluster, 0, delta_rows as u64 + 1);
    tally.check(
        pruned.is_some() && unpruned.is_some() && with_delta.is_some(),
        "worker pipeline visits were lost",
    );
    tally.record("worker shutdown", 1, cluster.shutdown());
    let _ = std::fs::remove_dir_all(&spill);

    let rows = (sh.rows * sh.nprobe) as f64;
    let (pruned, unpruned, with_delta) = (
        pruned.unwrap_or(0.0),
        unpruned.unwrap_or(0.0),
        with_delta.unwrap_or(0.0),
    );
    vec![
        ("core.worker.chunk_us".into(), pruned * 1e6, "us"),
        (
            "core.worker.scan_ns_per_row".into(),
            pruned * 1e9 / rows,
            "ns",
        ),
        (
            "core.worker.scan_ns_per_row_noprune".into(),
            unpruned * 1e9 / rows,
            "ns",
        ),
        (
            "core.worker.delta_scan_ns_per_row".into(),
            (with_delta - pruned).max(0.0) * 1e9 / delta_rows as f64,
            "ns",
        ),
        (
            "core.worker.load_block_mb_s".into(),
            median(&load_mb_s),
            "MB/s",
        ),
    ]
}

/// Control-plane calls on the serving engine: namespaces, tiers, forced
/// migration, planning — plus what its build recorded about itself.
fn probe_engine(ctx: &Ctx<'_>, tally: &mut Tally, m: &mut Vec<Metric3>) {
    let (inputs, engine) = (ctx.inputs, &ctx.dep.engine);
    let spec = &inputs.spec;
    let base = &inputs.tenants[0];
    let opts = SearchOptions::new(K).with_nprobe(spec.nprobe);
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

    let build = engine.build_stats();
    let plan = build.plan;
    let profile = WorkloadProfile::uniform(engine.list_sizes(), spec.dim, 1_000, 8);
    let model = CostModel::new(engine.config().net, engine.config().alpha)
        .with_pruning_survival(0.55)
        .calibrate();
    let choose_ns = ns_per_unit(1.0, || {
        std::hint::black_box(model.choose_plan(HOPS, &profile));
    });

    // A small tenant: created hot, queried, demoted, queried again.
    let sub: VectorStore = base.gather(&(0..base.len().min(8192)).collect::<Vec<_>>());
    let queries: Vec<&[f32]> = inputs
        .singles
        .iter()
        .take(32)
        .map(|(_, q)| &q[..])
        .collect();
    let mut create_ms = 0.0;
    let mut set_tier_ms = ctx.set_tier_ms.clone();
    let mut penalty = 0.0;
    let t = Instant::now();
    let ns_cfg = NamespaceConfig::default().with_nlist(spec.nlist.min(64));
    if let Some(ns) = tally.record(
        "create_namespace",
        1,
        engine.create_namespace(&ns_cfg, &sub),
    ) {
        create_ms = ms(t);
        let p50 = |tally: &mut Tally| {
            let lat: Vec<f64> = queries
                .iter()
                .filter_map(|q| {
                    let t = Instant::now();
                    tally
                        .record("search", 1, engine.search_ns(ns, q, &opts))
                        .map(|_| ms(t))
                })
                .collect();
            median(&lat)
        };
        let hot = p50(tally);
        let t = Instant::now();
        let r = engine.set_namespace_tier(ns, Temperature::Cold);
        set_tier_ms.push(ms(t));
        tally.record("set_namespace_tier", 1, r);
        let cold = p50(tally);
        penalty = cold / hot.max(f64::MIN_POSITIVE);
    }
    // Where windows sampled both tenant kinds, real traffic is the answer.
    if ctx.hot_p50_ms > 0.0 && ctx.cold_p50_ms > 0.0 {
        penalty = ctx.cold_p50_ms / ctx.hot_p50_ms;
    }

    let other = if plan.vec_shards == 1 {
        PartitionPlan::new(2, 2)
    } else {
        PartitionPlan::new(1, HOPS)
    }
    .expect("both plans fit four machines");
    let migrate_ms: Vec<f64> = [other, plan]
        .into_iter()
        .filter_map(|to| {
            let t = Instant::now();
            tally
                .record("migrate_to", 1, engine.migrate_to(to))
                .map(|_| ms(t))
        })
        .collect();

    let w = ctx.write_lat;
    m.extend([
        (
            "index.kmeans.train_s".into(),
            build.train.as_secs_f64(),
            "s",
        ),
        ("index.ivf.add_s".into(), build.add.as_secs_f64(), "s"),
        (
            "core.engine.preassign_s".into(),
            build.preassign.as_secs_f64(),
            "s",
        ),
        (
            "core.engine.build_bytes_shipped".into(),
            build.bytes_shipped as f64,
            "bytes",
        ),
        ("core.cost.choose_plan_us".into(), choose_ns / 1e3, "us"),
        // vec_shards × 10 + dim_blocks: 14 is "1v x 4d", 22 is "2v x 2d".
        (
            "core.cost.plan".into(),
            (plan.vec_shards * 10 + plan.dim_blocks) as f64,
            "VxD",
        ),
        (
            "core.partition.shard_imbalance".into(),
            engine.assignment().imbalance_ratio(),
            "ratio",
        ),
        (
            "core.engine.upsert_us_p50".into(),
            median(&w.upsert) * 1e6,
            "us",
        ),
        (
            "core.engine.delete_us_p50".into(),
            median(&w.delete) * 1e6,
            "us",
        ),
        (
            "core.engine.compact_ms_p50".into(),
            median(&w.compact) * 1e3,
            "ms",
        ),
        ("core.engine.create_namespace_ms".into(), create_ms, "ms"),
        ("core.engine.set_tier_ms".into(), median(&set_tier_ms), "ms"),
        ("core.engine.migrate_ms".into(), median(&migrate_ms), "ms"),
        ("core.worker.cold_query_penalty".into(), penalty, "ratio"),
    ]);
}

/// The paper's single-node comparison point on the same corpus and kernels.
fn probe_baseline(ctx: &Ctx<'_>, tally: &mut Tally, m: &mut Vec<Metric3>) {
    let spec = &ctx.inputs.spec;
    let built = FaissLikeEngine::build(
        spec.nlist,
        Metric::L2,
        ctx.dep.engine.config().seed,
        &ctx.inputs.tenants[0],
    );
    let Some(single) = tally.record("baseline build", 1, built) else {
        return;
    };
    let queries = &ctx.inputs.score[0].queries;
    let r = single.search_batch_sequential(queries, K, spec.nprobe);
    if let Some((_, wall)) = tally.record("baseline search", queries.len() as u64, r) {
        let qps = queries.len() as f64 / wall.as_secs_f64();
        m.extend([
            ("baseline.single_node_qps".into(), qps, "1/s"),
            (
                "baseline.speedup_vs_single_node".into(),
                ctx.raw_search_qps / qps,
                "ratio",
            ),
        ]);
    }
}

pub fn run_all(ctx: &Ctx<'_>, tally: &mut Tally, m: &mut Vec<Metric3>) {
    let sh = Shape::of(ctx.inputs);
    let (tr, root) = (ctx.tracer, ctx.root);
    tr.span("probe.index", root, |_| probe_index(&sh, ctx.out_dir, m));
    tr.span("probe.core.messages", root, |_| {
        probe_messages(ctx.inputs, &sh, m);
    });
    tr.span("probe.cluster.transport", root, |_| {
        probe_transport(tally, m);
    });
    let worker = tr.span("probe.core.worker", root, |_| {
        probe_worker(ctx.inputs, &sh, ctx.out_dir, tally)
    });
    m.extend(worker);
    tr.span("probe.core.engine", root, |_| probe_engine(ctx, tally, m));
    tr.span("probe.baseline", root, |_| probe_baseline(ctx, tally, m));

    // The engine's observed cost per point-dim against the bare kernel's.
    let find = |m: &[Metric3], name: &str| {
        m.iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    };
    let kernel = find(m, "index.distance.l2_f32_slice_ns_per_pd");
    let observed = find(m, "core.worker.compute_ns_per_pd");
    m.push((
        "core.worker.scan_overhead".into(),
        observed / kernel.max(f64::MIN_POSITIVE),
        "ratio",
    ));
}
