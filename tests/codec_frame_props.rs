//! Property and golden tests for the wire codec and the framed transport:
//! every typed message variant must survive the full wire path — `Wire`
//! serialization into a `Frame::User` payload, length-prefixed frame
//! encoding, frame decoding, and `Wire` deserialization — bit for bit.
//! Truncated frames must decode to "incomplete" without consuming bytes,
//! and frames whose header declares a body larger than [`MAX_FRAME_BYTES`]
//! must be rejected.
//!
//! The message codecs are generated from one declaration each (`wire!`), so
//! field symmetry and variant coverage hold by construction. What the
//! compiler cannot see is pinned here:
//!
//! * **tag and layout stability** — `ToWorker::TAGS` / `ToClient::TAGS`
//!   against a literal table, golden bytes of every variant in
//!   `tests/golden/wire_messages.txt`, and the hand-derived bytes of the
//!   single-query forms (a published format: drivers outside this
//!   workspace speak them);
//! * **sample coverage** — goldens and round-trip properties take their
//!   variants from `TAGS` and fail on one nobody wrote a sample for;
//! * **the three hand-written batch codecs** (`ChunkBatch` / `CarryBatch`
//!   / `ResultBatch`: varint index gaps of every width, omitted arrays,
//!   truncation), whose `full` golden draw sets every field to a
//!   non-default value, so a field dropped from either direction cannot
//!   round-trip;
//! * **decode-boundary validation** — one malformed-but-decodable message
//!   per `validate` rule.

use std::collections::HashMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use harmony::cluster::codec::{CodecError, Wire};
use harmony::cluster::{decode_frame, encode_frame, Frame, MAX_FRAME_BYTES};
use harmony::core::messages::{
    Carry, CarryBatch, ChunkBatch, ClusterBlock, DeleteIds, DeltaUpsert, LoadBlock, QueryChunk,
    QueryResult, ResultBatch, SetTier, StatsReport, ToClient, ToWorker,
};
use harmony::index::Sq8Segment;
use proptest::prelude::*;

/// Pushes `payload` through the complete frame path and asserts identity.
fn roundtrip_payload(payload: Bytes, from: u64, delay: u64) -> Result<(), TestCaseError> {
    let frame = Frame::User {
        from: from as usize,
        payload: payload.clone(),
        injected_delay_ns: delay,
    };
    let mut wire = BytesMut::new();
    encode_frame(&frame, &mut wire);
    let mut buf = wire.freeze();
    let got = decode_frame(&mut buf)
        .map_err(|e| TestCaseError::Fail(format!("decode failed: {e}")))?
        .ok_or_else(|| TestCaseError::Fail("complete frame decoded as incomplete".into()))?;
    prop_assert_eq!(&got, &frame);
    prop_assert_eq!(buf.remaining(), 0, "decode left trailing bytes");
    match got {
        Frame::User { payload: p, .. } => prop_assert_eq!(p, payload),
        other => return Err(TestCaseError::Fail(format!("wrong frame kind {other:?}"))),
    }
    Ok(())
}

/// Round-trips a typed message through `Wire` + the frame path.
fn roundtrip_msg<T: Wire + PartialEq + std::fmt::Debug>(
    msg: T,
    from: u64,
    delay: u64,
) -> Result<(), TestCaseError> {
    let payload = msg.to_bytes();
    roundtrip_payload(payload.clone(), from, delay)?;
    let back =
        T::from_bytes(payload).map_err(|e| TestCaseError::Fail(format!("Wire decode: {e}")))?;
    prop_assert_eq!(back, msg);
    Ok(())
}

/// One quantized segment covering `[0, width)` for `n` rows (what an SQ8
/// block carries instead of `flat`).
/// Written out rather than quantized, so the goldens pin the codec alone.
fn sample_segs(n: usize, width: usize) -> Vec<Sq8Segment> {
    if n == 0 {
        return Vec::new();
    }
    let codes: Vec<u8> = (0..n * width).map(|i| (i * 37 % 256) as u8).collect();
    let sum = |row: &[u8]| row.iter().map(|&c| u32::from(c)).sum();
    vec![Sq8Segment {
        dim_start: 0,
        dim_end: width as u64,
        min: -3.0,
        scale: 0.375,
        code_sums: codes.chunks(width).map(sum).collect(),
        codes,
    }]
}

fn sample_block(cluster: u32, n: usize, width: usize, ip: bool, sq8: bool) -> ClusterBlock {
    ClusterBlock {
        cluster,
        ids: (0..n as u64).map(|i| i * 3 + 1).collect(),
        flat: if sq8 {
            Vec::new()
        } else {
            (0..n * width).map(|i| i as f32 * 0.25 - 1.0).collect()
        },
        segs: if sq8 {
            sample_segs(n, width)
        } else {
            Vec::new()
        },
        block_norms_sq: if ip { vec![1.5; n] } else { Vec::new() },
        total_norms_sq: if ip { vec![4.0; n] } else { Vec::new() },
    }
}

/// A sub-batch of `n` queries; query `i` probes `i % 4` clusters (so some
/// probe none), ascending, with gaps that need multi-byte varints.
fn sample_chunk_batch(n: usize, width: usize, ip: bool, seed: u64) -> ChunkBatch {
    let mut clusters = Vec::new();
    let mut cluster_ends = Vec::new();
    for i in 0..n {
        clusters.extend((0..(i % 4) as u32).map(|c| c * 200 + i as u32));
        cluster_ends.push(clusters.len() as u32);
    }
    ChunkBatch {
        ns: (seed % 8) as u16,
        epoch: seed % 1_000,
        shard: (seed % 64) as u32,
        k: 10,
        order: vec![3, 0, 2, 1],
        position: (seed % 4) as u32,
        delta_seq: seed % 10_000,
        legacy_reply: seed.is_multiple_of(2),
        query_ids: (0..n as u64).map(|i| seed / 2 + i * 3).collect(),
        thresholds: (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    f32::INFINITY
                } else {
                    i as f32 * 0.5
                }
            })
            .collect(),
        q_total_norms_sq: if ip { vec![2.5; n] } else { Vec::new() },
        cluster_ends,
        clusters,
        dims: (0..n * width).map(|i| i as f32 * 0.125 - 1.0).collect(),
    }
}

/// A carry of `n` queries; query `i` keeps `i % 5` survivors (so some keep
/// none) whose indices step by `gap`.
fn sample_carry_batch(n: usize, gap: u32, ip: bool, sq8: bool, seed: u64) -> CarryBatch {
    let mut indices = Vec::new();
    let mut survivor_ends = Vec::new();
    for i in 0..n {
        indices.extend((0..(i % 5) as u32).map(|j| (seed % 7) as u32 + j * gap));
        survivor_ends.push(indices.len() as u32);
    }
    let survivors = indices.len();
    CarryBatch {
        first_query_id: seed,
        shard: (seed % 64) as u32,
        thresholds: (0..n).map(|i| i as f32 + 0.25).collect(),
        survivor_ends,
        indices,
        partials: (0..survivors).map(|i| i as f32 * 0.75).collect(),
        visited_norms_sq: if ip { vec![1.5; survivors] } else { Vec::new() },
        q_visited_norms_sq: if ip { vec![0.5; n] } else { Vec::new() },
        quant_eps: if sq8 { vec![0.0625; n] } else { Vec::new() },
    }
}

fn sample_result_batch(n: usize, seed: u64) -> ResultBatch {
    let mut ids = Vec::new();
    let mut result_ends = Vec::new();
    for i in 0..n {
        ids.extend((0..(i % 4) as u64).map(|j| seed % 1_000 + i as u64 * 10 + j));
        result_ends.push(ids.len() as u32);
    }
    ResultBatch {
        shard: (seed % 64) as u32,
        query_ids: (0..n as u64).map(|i| seed / 2 + i).collect(),
        result_ends,
        scores: (0..ids.len()).map(|i| i as f32 * 0.5 - 2.0).collect(),
        ids,
        candidates_seen: (0..n as u64).map(|i| (seed % 100_000) * i).collect(),
    }
}

/// The knobs a variant sample is drawn from.
#[derive(Clone, Copy)]
struct Draw {
    ns: u16,
    epoch: u64,
    shard: u32,
    /// Rows (list members, queries, survivors …).
    n: usize,
    width: usize,
    /// Inner-product shape: norm tables present.
    ip: bool,
    sq8: bool,
    seed: u64,
}

/// A sample of the `ToWorker` variant called `name` in the schema's tag
/// table; `None` for a variant nobody wrote one for.
fn to_worker_sample(name: &str, d: &Draw) -> Option<ToWorker> {
    let (ns, epoch, shard, n, seed) = (d.ns, d.epoch, d.shard, d.n, d.seed);
    let dim_end = d.width as u64;
    Some(match name {
        "Load" => ToWorker::Load(LoadBlock {
            ns,
            epoch,
            shard,
            dim_block: shard % 4,
            dim_start: 0,
            dim_end,
            total_dim_blocks: 4,
            metric: if d.ip { 1 + (seed % 2) as u8 } else { 0 },
            pruning: seed.is_multiple_of(3),
            repr: d.sq8 as u8,
            lists: vec![sample_block(shard, n, d.width, d.ip, d.sq8)],
        }),
        "Chunk" => ToWorker::Chunk(QueryChunk {
            ns,
            query_id: seed,
            epoch,
            shard,
            k: 10,
            threshold: if d.ip { f32::INFINITY } else { 1.25 },
            clusters: (0..n as u32).collect(),
            dims: (0..d.width).map(|i| i as f32 * 0.1).collect(),
            q_total_norm_sq: 2.0,
            order: (0..4u64).collect(),
            position: shard % 4,
            delta_seq: seed % 1_000,
        }),
        "Carry" => ToWorker::Carry(Carry {
            ns,
            query_id: seed,
            epoch,
            shard,
            threshold: 0.5,
            next_position: 1,
            indices: (0..n as u32).map(|i| i * 2).collect(),
            partials: (0..n).map(|i| i as f32).collect(),
            visited_norms_sq: if d.ip { vec![1.0; n] } else { Vec::new() },
            q_visited_norm_sq: if d.ip { 0.25 } else { 0.0 },
            quant_eps: if d.sq8 { 0.0625 } else { 0.0 },
        }),
        "GetStats" => ToWorker::GetStats,
        "ResetStats" => ToWorker::ResetStats,
        "EvictEpoch" => ToWorker::EvictEpoch { ns, epoch },
        "UpsertDelta" => ToWorker::UpsertDelta(sample_upsert(d)),
        "DeleteIds" => ToWorker::DeleteIds(DeleteIds {
            ns,
            epoch: if d.ip { u64::MAX } else { epoch },
            ids: (0..n as u64).map(|i| i * 11).collect(),
            seq: seed % 10_000,
        }),
        "SetTier" => ToWorker::SetTier(SetTier {
            ns,
            temperature: (seed % 3) as u8,
        }),
        "ChunkBatch" => ToWorker::ChunkBatch(sample_chunk_batch(n, d.width, d.ip, seed)),
        "CarryBatch" => ToWorker::CarryBatch(sample_carry_batch(n, 1 + shard, d.ip, d.sq8, seed)),
        "Prefetch" => ToWorker::Prefetch {
            ns,
            epoch,
            shard,
            clusters: (0..n as u32).map(|i| i * 3 + 1).collect(),
        },
        _ => return None,
    })
}

fn sample_upsert(d: &Draw) -> DeltaUpsert {
    DeltaUpsert {
        ns: d.ns,
        epoch: d.epoch,
        shard: d.shard,
        dim_start: 0,
        dim_end: d.width as u64,
        ids: (0..d.n as u64).map(|i| i * 5 + 2).collect(),
        seqs: (0..d.n as u64).map(|i| d.seed % 1_000 + i).collect(),
        flat: (0..d.n * d.width).map(|i| i as f32 * 0.125 - 2.0).collect(),
        block_norms_sq: if d.ip { vec![0.5; d.n] } else { Vec::new() },
        total_norms_sq: if d.ip { vec![1.75; d.n] } else { Vec::new() },
    }
}

/// [`to_worker_sample`] for `ToClient`.
fn to_client_sample(name: &str, d: &Draw) -> Option<ToClient> {
    let (ns, epoch, shard, n, seed) = (d.ns, d.epoch, d.shard, d.n, d.seed);
    Some(match name {
        "Result" => ToClient::Result(QueryResult {
            query_id: seed,
            shard,
            ids: (0..n as u64).collect(),
            scores: (0..n).map(|i| i as f32 * 0.5 - 2.0).collect(),
            candidates_seen: seed % 10_000,
        }),
        "Stats" => ToClient::Stats(StatsReport {
            slice_in: (0..n as u64).collect(),
            slice_pruned: (0..n as u64).map(|x| x / 2).collect(),
            scanned_point_dims: seed,
            memory_bytes: seed / 3,
            f32_block_bytes: seed / 5,
            sq8_block_bytes: seed / 7,
            compute_ns: seed / 11,
            delta_bytes: seed / 13,
            delta_rows: seed % 100,
            tombstone_entries: seed % 50,
            cache_block_bytes: seed / 17,
            spilled_block_bytes: seed / 19,
            cache_hits: seed / 23,
            cache_misses: seed / 29,
            fault_bytes: seed / 31,
            spill_read_errors: seed % 7,
        }),
        "EpochReady" => ToClient::EpochReady { ns, epoch },
        "TierAck" => ToClient::TierAck { ns },
        "ResultBatch" => ToClient::ResultBatch(sample_result_batch(n, seed)),
        _ => return None,
    })
}

/// Every strict prefix of `msg`'s encoding must fail to decode (never
/// panic, never yield a shorter message), and every strict prefix of its
/// frame must report "incomplete".
fn assert_truncation_detected<T: Wire + std::fmt::Debug>(msg: &T) -> Result<(), TestCaseError> {
    let payload = msg.to_bytes();
    for cut in 0..payload.len() {
        prop_assert!(
            T::from_bytes(payload.slice(..cut)).is_err(),
            "{cut}/{} payload bytes decoded",
            payload.len()
        );
    }
    let frame = Frame::User {
        from: 1,
        payload,
        injected_delay_ns: 0,
    };
    let mut wire = BytesMut::new();
    encode_frame(&frame, &mut wire);
    let full = wire.freeze();
    for cut in 0..full.len() {
        let got = decode_frame(&mut full.slice(..cut));
        prop_assert!(matches!(got, Ok(None)), "frame cut at {cut}: {got:?}");
    }
    Ok(())
}

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// The single-query pipeline messages are a published format: drivers
/// outside this workspace build them field by field and expect the old
/// bytes back. Expected values were derived from the documented layout
/// (tag, little-endian fields in declaration order, `u64` counts), not
/// from this encoder.
#[test]
fn legacy_pipeline_messages_keep_their_bytes() {
    let chunk = ToWorker::Chunk(QueryChunk {
        ns: 2,
        query_id: 42,
        epoch: 3,
        shard: 1,
        k: 10,
        threshold: 3.25,
        clusters: vec![0, 5, 9],
        dims: vec![0.5, -1.0, 2.0],
        q_total_norm_sq: 5.25,
        order: vec![3, 4, 5],
        position: 1,
        delta_seq: 6,
    });
    let carry = ToWorker::Carry(Carry {
        ns: 2,
        query_id: 42,
        epoch: 3,
        shard: 1,
        threshold: 1.5,
        next_position: 2,
        indices: vec![10, 20],
        partials: vec![0.25, 0.75],
        visited_norms_sq: vec![],
        q_visited_norm_sq: 0.0,
        quant_eps: 0.125,
    });
    let result = ToClient::Result(QueryResult {
        query_id: 42,
        shard: 1,
        ids: vec![5, 7],
        scores: vec![0.125, 2.0],
        candidates_seen: 100,
    });
    let chunk_bytes = hex(concat!(
        "0102002a000000000000000300000000000000010000000a00000000005040",
        "0300000000000000000000000500000009000000",
        "03000000000000000000003f000080bf00000040",
        "0000a840",
        "0300000000000000030000000000000004000000000000000500000000000000",
        "010000000600000000000000",
    ));
    let carry_bytes = hex(concat!(
        "0202002a000000000000000300000000000000010000000000c03f02000000",
        "02000000000000000a00000014000000",
        "02000000000000000000803e0000403f",
        "0000000000000000",
        "000000000000003e",
    ));
    let result_bytes = hex(concat!(
        "012a0000000000000001000000",
        "020000000000000005000000000000000700000000000000",
        "02000000000000000000003e00000040",
        "6400000000000000",
    ));
    assert_eq!(chunk.to_bytes().as_ref(), &chunk_bytes[..]);
    assert_eq!(carry.to_bytes().as_ref(), &carry_bytes[..]);
    assert_eq!(result.to_bytes().as_ref(), &result_bytes[..]);
    assert_eq!(ToWorker::from_bytes(chunk_bytes.into()).unwrap(), chunk);
    assert_eq!(ToWorker::from_bytes(carry_bytes.into()).unwrap(), carry);
    assert_eq!(ToClient::from_bytes(result_bytes.into()).unwrap(), result);
    // The batch variants took the next free tags; the old ones did not move.
    let tag = |m: ToWorker| m.to_bytes()[0];
    assert_eq!(
        tag(ToWorker::ChunkBatch(sample_chunk_batch(1, 2, false, 0))),
        12
    );
    assert_eq!(
        tag(ToWorker::CarryBatch(sample_carry_batch(
            1, 1, false, false, 0
        ))),
        13
    );
    assert_eq!(
        ToClient::ResultBatch(sample_result_batch(1, 0)).to_bytes()[0],
        5
    );
}

/// The draws `tests/golden/wire_messages.txt` records for every variant:
/// `full` has inner-product norm tables and SQ8 payloads (every optional
/// array present, every field of the batch messages non-default), `plain`
/// is what an exact L2 deployment sends (every optional array omitted),
/// `empty` has no rows (empty lists, zero survivors).
const FULL: Draw = Draw {
    ns: 1,
    epoch: 2,
    shard: 3,
    n: 4,
    width: 2,
    ip: true,
    sq8: true,
    seed: 1_000_006,
};
const GOLDEN_DRAWS: [(&str, Draw); 3] = [
    ("full", FULL),
    (
        "plain",
        Draw {
            ip: false,
            sq8: false,
            ..FULL
        },
    ),
    ("empty", Draw { n: 0, ..FULL }),
];

/// Every variant of both enums, under every golden draw, encodes to
/// exactly the bytes the hand-written codecs of the commit before the
/// schema (PR 16) produced, and decodes back from them.
#[test]
fn golden_messages_keep_their_bytes() {
    fn check<T: Wire + PartialEq + std::fmt::Debug>(
        golden: &mut HashMap<&str, &str>,
        (enum_name, tags): (&str, &[(u8, &str)]),
        sample: fn(&str, &Draw) -> Option<T>,
        tag_of: fn(&T) -> u8,
    ) {
        for &(tag, name) in tags {
            for (draw_name, draw) in &GOLDEN_DRAWS {
                let label = format!("{enum_name}::{name} {draw_name}");
                let msg = sample(name, draw).unwrap_or_else(|| panic!("no sample for {label}"));
                let want = golden.remove(label.as_str());
                let want = want.unwrap_or_else(|| panic!("no golden line for {label}"));
                let got: String = msg.to_bytes().iter().map(|b| format!("{b:02x}")).collect();
                assert!(got == want, "{label} now encodes as {got}");
                assert_eq!(tag_of(&msg), tag, "{label}");
                assert!(got.starts_with(&format!("{tag:02x}")), "{label}");
                assert_eq!(
                    T::from_bytes(hex(want).into()).as_ref(),
                    Ok(&msg),
                    "{label}"
                );
            }
        }
    }
    let mut golden: HashMap<&str, &str> = include_str!("golden/wire_messages.txt")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.rsplit_once(' ').expect("`<label> <hex>`"))
        .collect();
    check(
        &mut golden,
        ("ToWorker", ToWorker::TAGS),
        to_worker_sample,
        ToWorker::tag,
    );
    check(
        &mut golden,
        ("ToClient", ToClient::TAGS),
        to_client_sample,
        ToClient::tag,
    );
    assert!(golden.is_empty(), "stale golden lines: {:?}", golden.keys());
}

/// The tag tables, literally. The schema makes a duplicate tag a compile
/// error; that a tag never *moves* (or is reused for something else) is
/// what this pins — append new variants, never renumber. `ToWorker` tags
/// 5–7 and `ToClient` tag 0 carried the peer-to-peer piece protocol and
/// its block ack: retired, and a retired tag is a decode error, not a gap
/// the next variant may fill.
#[test]
fn wire_tags_are_golden() {
    for tag in [5u8, 6, 7] {
        let got = ToWorker::from_bytes(Bytes::from(vec![tag; 64]));
        assert!(matches!(got, Err(CodecError::Invalid(_))), "tag {tag}");
    }
    let got = ToClient::from_bytes(Bytes::from(vec![0u8; 64]));
    assert!(matches!(got, Err(CodecError::Invalid(_))), "tag 0");
    assert_eq!(
        ToWorker::TAGS,
        &[
            (0, "Load"),
            (1, "Chunk"),
            (2, "Carry"),
            (3, "GetStats"),
            (4, "ResetStats"),
            (8, "EvictEpoch"),
            (9, "UpsertDelta"),
            (10, "DeleteIds"),
            (11, "SetTier"),
            (12, "ChunkBatch"),
            (13, "CarryBatch"),
            (14, "Prefetch"),
        ]
    );
    assert_eq!(
        ToClient::TAGS,
        &[
            (1, "Result"),
            (2, "Stats"),
            (3, "EpochReady"),
            (4, "TierAck"),
            (5, "ResultBatch"),
        ]
    );
}

/// The batch codecs are written by hand (their varint / omitted-field
/// layouts are their purpose), so nothing generates their field symmetry.
/// Their `full` golden samples therefore set **every** field to a
/// non-default value — destructured without `..`, so a new field fails to
/// compile here until it is given one — and a field dropped from `encode`
/// or defaulted in `decode` cannot round-trip them.
#[test]
fn batch_codec_goldens_set_every_field() {
    let ChunkBatch {
        ns,
        epoch,
        shard,
        k,
        order,
        position,
        delta_seq,
        legacy_reply,
        query_ids,
        thresholds,
        q_total_norms_sq,
        cluster_ends,
        clusters,
        dims,
    } = sample_chunk_batch(FULL.n, FULL.width, FULL.ip, FULL.seed);
    assert!(ns != 0 && epoch != 0 && shard != 0 && k != 0 && position != 0 && delta_seq != 0);
    assert!(legacy_reply && !order.is_empty() && !query_ids.is_empty());
    assert!(!thresholds.is_empty() && !q_total_norms_sq.is_empty());
    assert!(!cluster_ends.is_empty() && !clusters.is_empty() && !dims.is_empty());
    let CarryBatch {
        first_query_id,
        shard,
        thresholds,
        survivor_ends,
        indices,
        partials,
        visited_norms_sq,
        q_visited_norms_sq,
        quant_eps,
    } = sample_carry_batch(FULL.n, 1 + FULL.shard, FULL.ip, FULL.sq8, FULL.seed);
    assert!(first_query_id != 0 && shard != 0 && !thresholds.is_empty());
    assert!(!survivor_ends.is_empty() && !indices.is_empty() && !partials.is_empty());
    assert!(!visited_norms_sq.is_empty() && !q_visited_norms_sq.is_empty());
    assert!(!quant_eps.is_empty());
    let ResultBatch {
        shard,
        query_ids,
        result_ends,
        ids,
        scores,
        candidates_seen,
    } = sample_result_batch(FULL.n, FULL.seed);
    assert!(shard != 0 && !query_ids.is_empty() && !result_ends.is_empty());
    assert!(!ids.is_empty() && !scores.is_empty());
    assert!(candidates_seen.iter().any(|&seen| seen != 0));
}

/// Handlers index a message's arrays by row without checking, so a
/// malformed-but-decodable message must die in `from_bytes`: one case per
/// `validate` rule, each a golden sample with one thing wrong.
#[test]
fn malformed_shapes_are_rejected_at_decode() {
    fn rejected<T: Wire + std::fmt::Debug>(rule: &str, mut msg: T, spoil: impl FnOnce(&mut T)) {
        assert!(T::from_bytes(msg.to_bytes()).is_ok(), "{rule}: bad base");
        spoil(&mut msg);
        let got = T::from_bytes(msg.to_bytes());
        let invalid = matches!(got, Err(CodecError::Invalid(_)));
        assert!(invalid, "{rule}: decoded as {got:?}");
    }
    let plain = GOLDEN_DRAWS[1].1;
    let load = |d: &Draw| match to_worker_sample("Load", d) {
        Some(ToWorker::Load(load)) => load,
        other => panic!("not a load: {other:?}"),
    };
    rejected("metric tag", load(&plain), |m| m.metric = 3);
    rejected("repr tag", load(&plain), |m| m.repr = 2);
    rejected("block range", load(&plain), |m| m.dim_start = 3);
    rejected("flat vs rows", load(&plain), |m| {
        m.lists[0].flat.truncate(7)
    });
    rejected("flat vs block width", load(&plain), |m| m.dim_end = 3);
    rejected("partial norm table", load(&plain), |m| {
        m.lists[0].block_norms_sq = vec![1.0; 2];
    });
    rejected("inner product without norms", load(&plain), |m| {
        m.metric = 1
    });
    rejected("rows under the sq8 tag", load(&plain), |m| m.repr = 1);
    rejected("segments under the f32 tag", load(&FULL), |m| m.repr = 0);
    rejected("rows and segments", load(&FULL), |m| {
        m.lists[0].flat = vec![0.0; 8];
    });
    rejected("codes vs rows", load(&FULL), |m| {
        m.lists[0].segs[0].codes.truncate(7);
    });
    rejected("code sums vs rows", load(&FULL), |m| {
        m.lists[0].segs[0].code_sums.truncate(3);
    });
    rejected("segment range", load(&FULL), |m| {
        m.lists[0].segs[0].dim_start = 3;
    });
    rejected("segment outside the block", load(&FULL), |m| m.dim_end = 1);
    rejected("two segments in one list", load(&FULL), |m| {
        let seg = m.lists[0].segs[0].clone();
        m.lists[0].segs.push(seg);
    });
    rejected("sq8 block wider than the u8 kernels", load(&FULL), |m| {
        m.lists.clear();
        m.dim_end = m.dim_start + 65_537;
    });
    // A list on its own (the spill format) checks what needs no width.
    rejected("list norms", load(&FULL).lists.remove(0), |l| {
        l.total_norms_sq.truncate(1);
    });

    rejected("upsert seqs", sample_upsert(&FULL), |m| m.seqs.truncate(1));
    rejected("upsert flat vs rows", sample_upsert(&FULL), |m| {
        m.flat.push(0.0)
    });
    rejected("upsert range", sample_upsert(&FULL), |m| m.dim_start = 3);
    rejected("upsert norms", sample_upsert(&FULL), |m| {
        m.block_norms_sq.truncate(1);
    });
    let tier = SetTier {
        ns: 9,
        temperature: 2,
    };
    rejected("temperature tag", tier, |m| m.temperature = 3);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The sub-batch messages survive the frame path whatever their shape:
    /// survivor-index gaps on every side of the 1/2/3/4/5-byte varint
    /// boundaries, queries with no survivors / clusters / results, the
    /// optional arrays present or omitted — and lose no byte silently.
    #[test]
    fn batch_messages_roundtrip_and_detect_truncation(
        n in 0usize..12,
        width in 1usize..8,
        gap_class in 0usize..5,
        nudge in 0u32..2,
        ip in proptest::bool::ANY,
        sq8 in proptest::bool::ANY,
        from in 0u64..8,
        delay in 0u64..1_000_000,
        seed in proptest::num::u64::ANY,
    ) {
        let gap = [1u32, 1 << 7, 1 << 14, 1 << 21, 1 << 28][gap_class] - nudge.min(gap_class as u32);
        let chunk = sample_chunk_batch(n, width, ip, seed);
        let carry = sample_carry_batch(n, gap, ip, sq8, seed);
        let result = sample_result_batch(n, seed);
        assert_truncation_detected(&chunk)?;
        assert_truncation_detected(&carry)?;
        assert_truncation_detected(&result)?;
        // A survivor costs its index gap (one byte when dense) plus its
        // partial (and visited norm), nothing else.
        let dense = sample_carry_batch(n, 1, ip, sq8, seed);
        let none = CarryBatch {
            survivor_ends: vec![0; n],
            indices: Vec::new(),
            partials: Vec::new(),
            visited_norms_sq: Vec::new(),
            ..dense.clone()
        };
        let per_survivor = if ip { 9 } else { 5 };
        prop_assert_eq!(
            dense.to_bytes().len(),
            none.to_bytes().len() + dense.indices.len() * per_survivor
        );
        roundtrip_msg(chunk, from, delay)?;
        roundtrip_msg(carry, from, delay)?;
        roundtrip_msg(result, from, delay)?;
    }

    /// Every `ToWorker` variant survives the full frame path. The variant
    /// is drawn from the schema's own tag table, so one added there without
    /// a sample fails here (and, whatever the draw, in
    /// `wire_tags_are_golden`).
    #[test]
    fn to_worker_variants_roundtrip_through_frames(
        pick in 0usize..ToWorker::TAGS.len(),
        ns in 0u16..8,
        epoch in 0u64..1_000,
        shard in 0u32..64,
        n in 0usize..12,
        width in 1usize..8,
        ip in proptest::bool::ANY,
        sq8 in proptest::bool::ANY,
        from in 0u64..8,
        delay in 0u64..1_000_000,
        seed in proptest::num::u64::ANY,
    ) {
        let (tag, name) = ToWorker::TAGS[pick];
        let draw = Draw { ns, epoch, shard, n, width, ip, sq8, seed };
        let msg = to_worker_sample(name, &draw)
            .ok_or_else(|| TestCaseError::Fail(format!("no sample for ToWorker::{name}")))?;
        prop_assert_eq!(msg.tag(), tag);
        roundtrip_msg(msg, from, delay)?;
    }

    /// Every `ToClient` variant survives the full frame path.
    #[test]
    fn to_client_variants_roundtrip_through_frames(
        pick in 0usize..ToClient::TAGS.len(),
        ns in 0u16..8,
        epoch in 0u64..1_000,
        shard in 0u32..64,
        n in 0usize..16,
        from in 0u64..8,
        delay in 0u64..1_000_000,
        seed in proptest::num::u64::ANY,
    ) {
        let (tag, name) = ToClient::TAGS[pick];
        let draw = Draw { ns, epoch, shard, n, width: 1, ip: false, sq8: false, seed };
        let msg = to_client_sample(name, &draw)
            .ok_or_else(|| TestCaseError::Fail(format!("no sample for ToClient::{name}")))?;
        prop_assert_eq!(msg.tag(), tag);
        roundtrip_msg(msg, from, delay)?;
    }

    /// Control frames (`Ping`/`Pong`/`Shutdown`) and arbitrary opaque
    /// payloads also round-trip.
    #[test]
    fn control_frames_and_raw_payloads_roundtrip(
        token in proptest::num::u64::ANY,
        from in 0u64..8,
        body in proptest::collection::vec(proptest::num::u8::ANY, 0..256),
    ) {
        for frame in [
            Frame::Ping { token },
            Frame::Pong { from: from as usize, token },
            Frame::Shutdown,
        ] {
            let mut wire = BytesMut::new();
            encode_frame(&frame, &mut wire);
            let mut buf = wire.freeze();
            let got = decode_frame(&mut buf)
                .map_err(|e| TestCaseError::Fail(format!("decode failed: {e}")))?
                .ok_or_else(|| TestCaseError::Fail("incomplete".into()))?;
            prop_assert_eq!(got, frame);
        }
        roundtrip_payload(Bytes::from(body), from, token % 1_000)?;
    }

    /// Any strict prefix of an encoded frame decodes as "incomplete" and
    /// consumes nothing — the stream reader can always wait for more bytes.
    #[test]
    fn truncated_frames_report_incomplete(
        body in proptest::collection::vec(proptest::num::u8::ANY, 0..128),
        from in 0u64..8,
        cut_seed in proptest::num::u64::ANY,
    ) {
        let frame = Frame::User {
            from: from as usize,
            payload: Bytes::from(body),
            injected_delay_ns: 0,
        };
        let mut wire = BytesMut::new();
        encode_frame(&frame, &mut wire);
        let full = wire.freeze();
        prop_assume!(full.len() > 1);
        let cut = (cut_seed % (full.len() as u64 - 1)) as usize + 1; // 1..len
        let mut prefix = full.slice(..cut);
        let before = prefix.remaining();
        match decode_frame(&mut prefix) {
            Ok(None) => prop_assert_eq!(prefix.remaining(), before, "incomplete decode consumed bytes"),
            Ok(Some(f)) => return Err(TestCaseError::Fail(format!(
                "truncated frame ({cut}/{} bytes) decoded as {f:?}", full.len()
            ))),
            Err(e) => return Err(TestCaseError::Fail(format!("truncated frame errored: {e}"))),
        }
    }

    /// A header declaring a body beyond the cap is rejected outright, no
    /// matter how many bytes follow — a corrupt peer cannot make the
    /// reader allocate unboundedly.
    #[test]
    fn oversized_frames_are_rejected(
        excess in 1u64..1_000_000,
        tail in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
    ) {
        let declared = (MAX_FRAME_BYTES as u64 + excess).min(u32::MAX as u64) as u32;
        let mut wire = BytesMut::new();
        wire.put_u32_le(declared);
        wire.extend_from_slice(&tail);
        let mut buf = wire.freeze();
        prop_assert!(
            decode_frame(&mut buf).is_err(),
            "declared body of {declared} bytes must be rejected"
        );
    }
}
