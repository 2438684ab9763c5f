//! Property tests for the framed transport codec: every typed message
//! variant must survive the full wire path — `Wire` serialization into a
//! `Frame::User` payload, length-prefixed frame encoding, frame decoding,
//! and `Wire` deserialization — bit for bit. Truncated frames must decode
//! to "incomplete" without consuming bytes, and frames whose header
//! declares a body larger than [`MAX_FRAME_BYTES`] must be rejected.
//!
//! The sub-batch pipeline messages (`ChunkBatch` / `CarryBatch` /
//! `ResultBatch`) get their own properties — varint index gaps of every
//! width, empty survivor sets, truncation — and the single-query forms
//! they superseded (`Chunk` / `Carry` / `Result`) are pinned byte for byte:
//! external drivers still speak them.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use harmony::cluster::codec::Wire;
use harmony::cluster::{decode_frame, encode_frame, Frame, MAX_FRAME_BYTES};
use harmony::core::messages::{
    BeginEpoch, Carry, CarryBatch, ChunkBatch, ClusterBlock, DeleteIds, DeltaUpsert, InstallLists,
    ListPiece, LoadBlock, MigrateOut, QueryChunk, QueryResult, ResultBatch, SetTier, StatsReport,
    ToClient, ToWorker, TransferSpec,
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

/// One quantized segment covering `[dim_start, dim_start + width)` for `n`
/// rows (what an SQ8 block or migration piece carries instead of `flat`).
fn sample_segs(n: usize, width: usize, dim_start: u64) -> Vec<Sq8Segment> {
    if n == 0 {
        return Vec::new();
    }
    let flat: Vec<f32> = (0..n * width).map(|i| i as f32 * 0.375 - 3.0).collect();
    vec![Sq8Segment::quantize(&flat, width, dim_start)]
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
            sample_segs(n, width, 0)
        } else {
            Vec::new()
        },
        block_norms_sq: if ip { vec![1.5; n] } else { Vec::new() },
        total_norms_sq: if ip { vec![4.0; n] } else { Vec::new() },
    }
}

fn sample_piece(cluster: u32, n: usize, width: usize, ip: bool, sq8: bool) -> ListPiece {
    ListPiece {
        cluster,
        dim_start: 8,
        dim_end: 8 + width as u64,
        ids: (0..n as u64).map(|i| i * 7).collect(),
        flat: if sq8 {
            Vec::new()
        } else {
            (0..n * width).map(|i| -(i as f32) * 0.5).collect()
        },
        segs: if sq8 {
            sample_segs(n, width, 8)
        } else {
            Vec::new()
        },
        piece_norms_sq: if ip { vec![0.75; n] } else { Vec::new() },
        total_norms_sq: if ip { vec![2.25; n] } else { Vec::new() },
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

    /// Every `ToWorker` variant survives the full frame path.
    #[test]
    fn to_worker_variants_roundtrip_through_frames(
        tag in 0usize..14,
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
        let msg = match tag {
            0 => ToWorker::Load(LoadBlock {
                ns,
                epoch,
                shard,
                dim_block: shard % 4,
                dim_start: 0,
                dim_end: width as u64,
                total_dim_blocks: 4,
                metric: (seed % 3) as u8,
                pruning: ip,
                repr: sq8 as u8,
                lists: vec![sample_block(shard, n, width, ip, sq8)],
            }),
            1 => ToWorker::Chunk(QueryChunk {
                ns,
                query_id: seed,
                epoch,
                shard,
                k: 10,
                threshold: if ip { f32::INFINITY } else { 1.25 },
                clusters: (0..n as u32).collect(),
                dims: (0..width).map(|i| i as f32 * 0.1).collect(),
                q_total_norm_sq: 2.0,
                order: (0..4u64).collect(),
                position: shard % 4,
                delta_seq: seed % 1_000,
            }),
            2 => ToWorker::Carry(Carry {
                ns,
                query_id: seed,
                epoch,
                shard,
                threshold: 0.5,
                next_position: 1,
                indices: (0..n as u32).map(|i| i * 2).collect(),
                partials: (0..n).map(|i| i as f32).collect(),
                visited_norms_sq: if ip { vec![1.0; n] } else { Vec::new() },
                q_visited_norm_sq: if ip { 0.25 } else { 0.0 },
                quant_eps: if sq8 { 0.0625 } else { 0.0 },
            }),
            3 => ToWorker::GetStats,
            4 => ToWorker::ResetStats,
            5 => ToWorker::BeginEpoch(BeginEpoch {
                ns,
                epoch,
                shard,
                dim_block: 1,
                dim_start: 0,
                dim_end: width as u64,
                total_dim_blocks: 2,
                expected_pieces: n as u64,
            }),
            6 => ToWorker::MigrateOut(MigrateOut {
                ns,
                epoch,
                transfers: (0..n as u32).map(|c| TransferSpec {
                    cluster: c,
                    src_epoch: epoch,
                    src_shard: shard,
                    dim_start: 0,
                    dim_end: width as u64,
                    dest: seed % 4,
                    dest_shard: c % 2,
                    dest_dim_block: c % 3,
                }).collect(),
            }),
            7 => ToWorker::InstallLists(InstallLists {
                ns,
                epoch,
                shard,
                dim_block: 0,
                pieces: vec![sample_piece(shard, n, width, ip, sq8)],
            }),
            8 => ToWorker::EvictEpoch { ns, epoch },
            9 => ToWorker::UpsertDelta(DeltaUpsert {
                ns,
                epoch,
                shard,
                dim_start: 0,
                dim_end: width as u64,
                ids: (0..n as u64).map(|i| i * 5 + 2).collect(),
                seqs: (0..n as u64).map(|i| seed % 1_000 + i).collect(),
                flat: (0..n * width).map(|i| i as f32 * 0.125 - 2.0).collect(),
                block_norms_sq: if ip { vec![0.5; n] } else { Vec::new() },
                total_norms_sq: if ip { vec![1.75; n] } else { Vec::new() },
            }),
            10 => ToWorker::DeleteIds(DeleteIds {
                ns,
                epoch: if ip { u64::MAX } else { epoch },
                ids: (0..n as u64).map(|i| i * 11).collect(),
                seq: seed % 10_000,
            }),
            11 => ToWorker::SetTier(SetTier {
                ns,
                temperature: (seed % 3) as u8,
            }),
            12 => ToWorker::ChunkBatch(sample_chunk_batch(n, width, ip, seed)),
            _ => ToWorker::CarryBatch(sample_carry_batch(n, 1 + shard, ip, sq8, seed)),
        };
        roundtrip_msg(msg, from, delay)?;
    }

    /// Every `ToClient` variant survives the full frame path.
    #[test]
    fn to_client_variants_roundtrip_through_frames(
        tag in 0usize..6,
        ns in 0u16..8,
        epoch in 0u64..1_000,
        shard in 0u32..64,
        n in 0usize..16,
        from in 0u64..8,
        delay in 0u64..1_000_000,
        seed in proptest::num::u64::ANY,
    ) {
        let msg = match tag {
            0 => ToClient::LoadAck { ns, shard, dim_block: shard % 4 },
            1 => ToClient::Result(QueryResult {
                query_id: seed,
                shard,
                ids: (0..n as u64).collect(),
                scores: (0..n).map(|i| i as f32 * 0.5 - 2.0).collect(),
                candidates_seen: seed % 10_000,
            }),
            2 => ToClient::Stats(StatsReport {
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
            }),
            3 => ToClient::EpochReady { ns, epoch },
            4 => ToClient::TierAck { ns },
            _ => ToClient::ResultBatch(sample_result_batch(n, seed)),
        };
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
