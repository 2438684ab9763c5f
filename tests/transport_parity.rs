//! Transport parity: the in-process channel fabric and the real loopback
//! TCP fabric must be *observationally identical*. The cost model, delay
//! injection, and metric charging all live above the [`Transport`] trait,
//! so as long as both backends deliver frames reliably and in per-
//! destination FIFO order, every search must return bit-identical top-k
//! results — even with four concurrent sessions in flight and a live
//! migration rewriting the layout underneath them.

use harmony::core::PartitionPlan;
use harmony::prelude::*;

const WORKERS: usize = 4;
const SESSIONS: usize = 4;
const QUERIES_PER_SESSION: usize = 24;

/// One session's ranked results for its whole batch.
type SessionResults = Vec<Vec<Neighbor>>;

fn dataset() -> harmony::data::Dataset {
    SyntheticSpec::clustered(2_000, 32, 8)
        .with_seed(97)
        .generate()
}

fn build_engine(
    d: &harmony::data::Dataset,
    transport: TransportKind,
    repr: BlockRepr,
) -> HarmonyEngine {
    // balanced_load(false) keeps packing and dimension-block rotation
    // row-deterministic, so float summation order — and therefore result
    // bits — depends only on the layout, never on scheduling.
    // The plan is pinned: two engines on two fabrics measure different
    // message costs and may settle a near-tie differently, and the layout
    // decides the summation order (and, under SQ8, the quantization).
    let config = HarmonyConfig::builder()
        .n_machines(WORKERS)
        .nlist(32)
        .seed(7)
        .plan(PartitionPlan::new(2, 2).unwrap())
        .balanced_load(false)
        .transport(transport)
        .repr(repr)
        .build()
        .unwrap();
    HarmonyEngine::build(config, &d.base).unwrap()
}

fn session_batches(d: &harmony::data::Dataset) -> Vec<VectorStore> {
    (0..SESSIONS)
        .map(|t| {
            let rows: Vec<usize> = (0..QUERIES_PER_SESSION)
                .map(|i| (t * 977 + i * 31) % d.base.len())
                .collect();
            d.base.gather(&rows)
        })
        .collect()
}

/// Runs the full scenario on one transport: four concurrent sessions
/// before the migration, the same four sessions querying *while* a live
/// migration to pure dimension partitioning is in flight, and the same
/// four sessions again on the settled post-migration layout.
fn run_scenario(
    transport: TransportKind,
    repr: BlockRepr,
) -> (Vec<SessionResults>, Vec<SessionResults>) {
    let d = dataset();
    let engine = build_engine(&d, transport, repr);
    let batches = session_batches(&d);
    let opts = SearchOptions::new(10).with_nprobe(8);

    let run_concurrent = |label: &str| -> Vec<SessionResults> {
        std::thread::scope(|s| {
            let handles: Vec<_> = batches
                .iter()
                .map(|b| {
                    let (engine, opts) = (&engine, &opts);
                    s.spawn(move || engine.search_batch(b, opts).unwrap().results)
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| panic!("{label} session panicked"))
                })
                .collect()
        })
    };

    let pre = run_concurrent("pre-migration");

    // Live migration with all four sessions hammering the engine. The
    // in-flight batches route by epoch, so none may lose or duplicate
    // results; their bits are not compared (they may legally land on
    // either side of the epoch switch).
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for b in &batches {
            let (engine, opts, stop) = (&engine, &opts, &stop);
            handles.push(s.spawn(move || {
                let mut served = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) || served == 0 {
                    let out = engine.search_batch(b, opts).unwrap();
                    assert_eq!(out.results.len(), b.len(), "lost results mid-migration");
                    for r in &out.results {
                        let mut ids: Vec<u64> = r.iter().map(|n| n.id).collect();
                        ids.sort_unstable();
                        ids.dedup();
                        assert_eq!(ids.len(), r.len(), "duplicated results mid-migration");
                    }
                    served += out.results.len();
                }
            }));
        }
        let report = engine
            .migrate_to(PartitionPlan::pure_dimension(WORKERS))
            .expect("live migration");
        assert!(
            report.to_plan.dim_blocks == WORKERS,
            "unexpected target plan"
        );
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in handles {
            h.join().expect("live session");
        }
    });
    assert_eq!(
        engine.plan(),
        PartitionPlan::pure_dimension(WORKERS),
        "migration must have activated the dimension plan"
    );

    let post = run_concurrent("post-migration");
    engine.shutdown().unwrap();
    (pre, post)
}

fn assert_bit_identical(a: &[SessionResults], b: &[SessionResults], phase: &str) {
    assert_eq!(a.len(), b.len(), "{phase}: session counts differ");
    for (t, (sa, sb)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            sa.len(),
            sb.len(),
            "{phase}: session {t} batch sizes differ"
        );
        for (qi, (ra, rb)) in sa.iter().zip(sb).enumerate() {
            assert_eq!(
                ra.len(),
                rb.len(),
                "{phase}: session {t} query {qi} lengths differ"
            );
            for (na, nb) in ra.iter().zip(rb) {
                assert_eq!(
                    na.id, nb.id,
                    "{phase}: session {t} query {qi} ids diverge across transports"
                );
                assert_eq!(
                    na.score.to_bits(),
                    nb.score.to_bits(),
                    "{phase}: session {t} query {qi} score bits diverge for id {}",
                    na.id
                );
            }
        }
    }
}

#[test]
fn tcp_and_inproc_transports_yield_bit_identical_topk() {
    let (pre_inproc, post_inproc) = run_scenario(TransportKind::InProc, BlockRepr::F32);
    let (pre_tcp, post_tcp) = run_scenario(TransportKind::tcp(), BlockRepr::F32);

    assert_bit_identical(&pre_inproc, &pre_tcp, "pre-migration");
    assert_bit_identical(&post_inproc, &post_tcp, "post-migration");

    // The migration must actually have changed the layout — otherwise the
    // post-phase comparison would be vacuous re-runs of the pre-phase.
    assert_ne!(
        pre_inproc[0][0]
            .iter()
            .map(|n| n.score.to_bits())
            .collect::<Vec<_>>(),
        Vec::<u32>::new(),
        "pre-phase produced empty results"
    );
}

/// Same contract under the SQ8 representation: quantized blocks travel the
/// TCP fabric (and the migration pipeline slices them segment-wise), so
/// bit-identical top-k across transports proves the int8 codes, per-segment
/// affine parameters, and carried quantization-error bounds all survive
/// framing and live migration byte-for-byte.
#[test]
fn tcp_and_inproc_transports_yield_bit_identical_topk_sq8() {
    let (pre_inproc, post_inproc) = run_scenario(TransportKind::InProc, BlockRepr::Sq8);
    let (pre_tcp, post_tcp) = run_scenario(TransportKind::tcp(), BlockRepr::Sq8);

    assert_bit_identical(&pre_inproc, &pre_tcp, "sq8 pre-migration");
    assert_bit_identical(&post_inproc, &post_tcp, "sq8 post-migration");
}
