//! Pluggable block representations: SQ8 scalar quantization (§ "two-stage
//! scan" refactor).
//!
//! Harmony's grid blocks historically stored raw `f32` rows. This module
//! adds the second representation, **SQ8**: each dimension-slice of a block
//! is quantized to one byte per coordinate with an affine per-slice code
//! `v ≈ min + scale · c`, `c ∈ [0, 255]`, where `min`/`scale` are computed
//! over *all* rows × dimensions of the slice. Stage-1 scans run entirely
//! over the codes via the integer kernels in [`crate::distance`]. Each
//! shard visit's last hop returns its `k × rerank_scale` best estimates
//! (`rerank_scale` sizes that heap), and the client reranks every hit
//! exactly, in f32, as it arrives, so the threshold τ later visits prune
//! against is the k-th exact score.
//!
//! The contract a representation must satisfy (see DESIGN.md "BlockRepr"):
//!
//! 1. **Scan** — produce a deterministic lower-is-better partial score per
//!    row per dimension slice ([`Sq8Segment::l2_partial`],
//!    [`Sq8Segment::ip_dot`]; [`Sq8Segment::l2_of`] / [`Sq8Segment::ip_of`]
//!    from a blocked kernel's integers).
//! 2. **Error bound** — advertise a per-coordinate round-trip bound
//!    ([`Sq8Segment::coord_error_bound`]) so prune bounds can be widened to
//!    stay exact-over-quantized (`harmony-core::pruning`).
//! 3. **Memory accounting** — report resident payload bytes
//!    ([`Sq8Segment::memory_bytes`]).
//! 4. **Wire codec** — a segment travels as its fields (`min`, `scale`,
//!    codes, code sums); quantization is deterministic in the slice it is
//!    given, so the same rows cut to the same range score identically
//!    wherever and whenever they were quantized.

use crate::distance::{ip_u8, l2_sq_u8};

/// Which in-memory representation a grid block uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BlockRepr {
    /// Raw row-major `f32` coordinates (the original representation).
    #[default]
    F32,
    /// Per-dimension-slice affine scalar quantization to one byte per
    /// coordinate, scanned in two stages (quantized stage-1 → exact f32
    /// re-rank of the survivor set).
    Sq8,
}

impl BlockRepr {
    /// Name used in CLI flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            BlockRepr::F32 => "f32",
            BlockRepr::Sq8 => "sq8",
        }
    }

    /// Parses a CLI name (`"f32"` / `"sq8"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(BlockRepr::F32),
            "sq8" => Some(BlockRepr::Sq8),
            _ => None,
        }
    }

    /// `true` when stage-1 scans run over quantized codes and prune bounds
    /// must be widened by the quantization error.
    pub fn is_quantized(self) -> bool {
        matches!(self, BlockRepr::Sq8)
    }
}

impl std::fmt::Display for BlockRepr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The code of `v` under the affine code `(min, scale)`, `scale > 0`:
/// `round((v − min) / scale)` clamped to `[0, 255]`, NaN → 0, for both
/// quantizers. `f64::round` is a library call on the x86-64 baseline
/// target; this is the same rounding, half away from zero, inline: below
/// 255, `t = x as u32` is `⌊x⌋` for `x ≥ 0` (and 0 for negative or NaN
/// `x`, which clamp to 0 anyway), `x − t` is exact, and `t + (x − t ≥ ½)`
/// is `round(x)`.
#[inline]
fn code(v: f32, min: f32, scale: f32) -> u8 {
    let x = (v as f64 - min as f64) / scale as f64;
    let t = x as u32;
    if t >= 255 {
        255
    } else {
        (t + u32::from(x - t as f64 >= 0.5)) as u8
    }
}

/// One self-contained SQ8-quantized dimension slice of a list block.
///
/// A list block holds exactly one segment spanning its whole dimension
/// range. Every epoch's blocks are quantized anew from the exact rows —
/// at build, and again by every compaction and layout change — so results
/// are bit-identical across transports and across a live migration because
/// the same rows cut to the same range quantize to the same segment, not
/// because codes are carried over.
#[derive(Debug, Clone, PartialEq)]
pub struct Sq8Segment {
    /// Absolute first dimension (inclusive) this segment covers.
    pub dim_start: u64,
    /// Absolute one-past-last dimension.
    pub dim_end: u64,
    /// Affine offset: `v ≈ min + scale · code`.
    pub min: f32,
    /// Affine step `(max − min) / 255`; `0` for constant slices, in which
    /// case every code is 0 and dequantization is exact.
    pub scale: f32,
    /// Row-major codes, `dim_end − dim_start` wide per row.
    pub codes: Vec<u8>,
    /// Per-row sum of codes (the inner-product affine cross term).
    pub code_sums: Vec<u32>,
}

impl Sq8Segment {
    /// Number of dimensions per row.
    #[inline]
    pub fn width(&self) -> usize {
        (self.dim_end - self.dim_start) as usize
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.codes.len().checked_div(self.width()).unwrap_or(0)
    }

    /// Quantizes a row-major `f32` slice (`width` coordinates per row)
    /// covering absolute dimensions `[dim_start, dim_start + width)`.
    ///
    /// `min`/`max` are taken over every entry, so no data coordinate is
    /// clamped and the round-trip error is bounded by
    /// [`Self::coord_error_bound`]. Inputs must be finite.
    pub fn quantize(flat: &[f32], width: usize, dim_start: u64) -> Self {
        debug_assert!(width == 0 || flat.len().is_multiple_of(width));
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &v in flat {
            min = min.min(v);
            max = max.max(v);
        }
        if flat.is_empty() {
            min = 0.0;
            max = 0.0;
        }
        // f64 keeps the step finite even for ranges that overflow f32
        // (e.g. min = -MAX, max = +MAX).
        let scale = ((max as f64 - min as f64) / 255.0) as f32;
        let codes: Vec<u8> = flat
            .iter()
            .map(|&v| if scale > 0.0 { code(v, min, scale) } else { 0 })
            .collect();
        let rows = flat.len().checked_div(width).unwrap_or(0);
        let code_sums = (0..rows)
            .map(|r| {
                codes[r * width..(r + 1) * width]
                    .iter()
                    .map(|&c| c as u32)
                    .sum()
            })
            .collect();
        Self {
            dim_start,
            dim_end: dim_start + width as u64,
            min,
            scale,
            codes,
            code_sums,
        }
    }

    /// The codes of one row.
    #[inline]
    pub fn row_codes(&self, row: usize) -> &[u8] {
        let w = self.width();
        &self.codes[row * w..(row + 1) * w]
    }

    /// Dequantizes one code back to its `f32` approximation. Computed in
    /// f64 so extreme `min`/`scale` pairs stay finite.
    #[inline]
    pub fn dequant(&self, code: u8) -> f32 {
        (self.min as f64 + self.scale as f64 * code as f64) as f32
    }

    /// Advertised per-coordinate round-trip bound for *data* (not query)
    /// coordinates: the rounding half-step plus slack for the f32 rounding
    /// of `scale` and the dequantization arithmetic. Query coordinates may
    /// clamp; their error is measured exactly by [`Self::quantize_query`].
    #[inline]
    pub fn coord_error_bound(&self) -> f32 {
        0.5 * self.scale + (self.min.abs() + 255.0 * self.scale) * f32::EPSILON * 4.0
    }

    /// Row-vector L2 error bound `‖p − dq(p)‖ ≤ coord_bound · √width`.
    #[inline]
    pub fn row_error_bound(&self) -> f32 {
        self.coord_error_bound() * (self.width() as f32).sqrt()
    }

    /// Quantizes a query slice against this segment's affine code. Query
    /// values outside `[min, max]` clamp; the *exact* residual
    /// `‖q − dq(qc)‖²` is returned so prune-bound widening never has to
    /// assume anything about the query.
    pub fn quantize_query(&self, q: &[f32]) -> Sq8Query {
        let mut codes = Vec::with_capacity(q.len());
        let (code_sum, err_sq) = self.quantize_query_into(q, &mut codes);
        Sq8Query {
            codes,
            code_sum,
            err_sq,
        }
    }

    /// [`Self::quantize_query`] into a caller's buffer, so a scan that
    /// reuses `codes` quantizes without allocating: `codes` is refilled
    /// with the query's codes and `(code_sum, err_sq)` is returned.
    pub fn quantize_query_into(&self, q: &[f32], codes: &mut Vec<u8>) -> (u32, f32) {
        debug_assert_eq!(q.len(), self.width());
        codes.clear();
        let mut code_sum = 0u32;
        let mut err_sq = 0f64;
        for &v in q {
            let c = if self.scale > 0.0 {
                code(v, self.min, self.scale)
            } else {
                0
            };
            codes.push(c);
            code_sum += c as u32;
            let d = v as f64 - self.dequant(c) as f64;
            err_sq += d * d;
        }
        (code_sum, err_sq as f32)
    }

    /// Largest L2 kernel integer a row of this segment can reach: 255² per
    /// coordinate.
    #[inline]
    pub fn max_l2_int(&self) -> u32 {
        (65_025 * self.width() as u64).min(u64::from(u32::MAX)) as u32
    }

    /// Stage-1 L2 partial of `row` against a quantized query:
    /// `‖dq(q) − dq(p)‖² = scale² · Σ (qc − pc)²` (integer kernel).
    #[inline]
    pub fn l2_partial(&self, qq: &Sq8Query, row: usize) -> f32 {
        self.l2_of(l2_sq_u8(&qq.codes, self.row_codes(row)))
    }

    /// [`Self::l2_partial`] of a row whose kernel integer `Σ (qc − pc)²` is
    /// `d`: one formula for the one-row and the blocked kernels.
    #[inline]
    pub fn l2_of(&self, d: u32) -> f32 {
        self.scale * self.scale * d as f32
    }

    /// Stage-1 dot product of `row` against a quantized query:
    /// `dq(q) · dq(p) = w·min² + min·scale·(Σqc + Σpc) + scale²·(qc·pc)`.
    #[inline]
    pub fn ip_dot(&self, qq: &Sq8Query, row: usize) -> f32 {
        self.ip_of(qq.code_sum, row, ip_u8(&qq.codes, self.row_codes(row)))
    }

    /// [`Self::ip_dot`] of `row` whose kernel integer `qc·pc` is `dot`,
    /// against a query whose codes sum to `q_code_sum`.
    #[inline]
    pub fn ip_of(&self, q_code_sum: u32, row: usize, dot: u32) -> f32 {
        let w = self.width() as f32;
        let cross = (q_code_sum + self.code_sums[row]) as f32;
        w * self.min * self.min
            + self.min * self.scale * cross
            + self.scale * self.scale * dot as f32
    }

    /// Resident payload bytes of this segment (codes + sums + header).
    pub fn memory_bytes(&self) -> usize {
        self.codes.capacity() + self.code_sums.capacity() * 4 + 24
    }
}

/// A query slice quantized against one [`Sq8Segment`]'s affine code.
#[derive(Debug, Clone, PartialEq)]
pub struct Sq8Query {
    /// Quantized (clamped) query codes, segment-width wide.
    pub codes: Vec<u8>,
    /// Sum of the query codes (inner-product cross term).
    pub code_sum: u32,
    /// Exact `‖q − dq(qc)‖²` over this segment — the query side of the
    /// prune-bound widening.
    pub err_sq: f32,
}

/// A query prepared against every segment of one SQ8 list block, plus the
/// error terms that widen the prune bounds for that list.
#[derive(Debug, Clone)]
pub struct Sq8BlockQuery {
    /// Per-segment quantized queries, parallel to the block's segments.
    pub per_seg: Vec<Sq8Query>,
    /// Query-side error `E_q = √(Σ_seg ‖q_seg − dq(qc_seg)‖²)` — exact.
    pub err: f32,
    /// Data-side error bound `E_p = √(Σ_seg row_error_bound²)`.
    pub data_err: f32,
}

/// Quantizes `qdims` (the query coordinates of the block, starting at
/// absolute dimension `block_dim_start`) against each segment of a list.
pub fn prepare_block_query(
    segs: &[Sq8Segment],
    qdims: &[f32],
    block_dim_start: u64,
) -> Sq8BlockQuery {
    let mut per_seg = Vec::with_capacity(segs.len());
    let mut err_sq = 0f32;
    let mut data_err_sq = 0f32;
    for seg in segs {
        let rel = (seg.dim_start - block_dim_start) as usize;
        let qq = seg.quantize_query(&qdims[rel..rel + seg.width()]);
        err_sq += qq.err_sq;
        let e = seg.row_error_bound();
        data_err_sq += e * e;
        per_seg.push(qq);
    }
    Sq8BlockQuery {
        per_seg,
        err: err_sq.sqrt(),
        data_err: data_err_sq.sqrt(),
    }
}

/// Stage-1 L2 partial of `row` across every segment of a block.
#[inline]
pub fn l2_partial_row(segs: &[Sq8Segment], bq: &Sq8BlockQuery, row: usize) -> f32 {
    segs.iter()
        .zip(&bq.per_seg)
        .map(|(s, q)| s.l2_partial(q, row))
        .sum()
}

/// Stage-1 dot product of `row` across every segment of a block.
#[inline]
pub fn ip_dot_row(segs: &[Sq8Segment], bq: &Sq8BlockQuery, row: usize) -> f32 {
    segs.iter()
        .zip(&bq.per_seg)
        .map(|(s, q)| s.ip_dot(q, row))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg_from(values: &[f32], width: usize) -> Sq8Segment {
        Sq8Segment::quantize(values, width, 0)
    }

    /// The rounding reference: `f64::round`, clamped — how both quantizers
    /// computed a code before they shared [`code`].
    fn code_by_round(v: f32, min: f32, scale: f32) -> u8 {
        if scale > 0.0 {
            ((v as f64 - min as f64) / scale as f64)
                .round()
                .clamp(0.0, 255.0) as u8
        } else {
            0
        }
    }

    /// [`Sq8Segment::quantize_query`] over [`code_by_round`].
    fn quantize_query_by_round(s: &Sq8Segment, q: &[f32]) -> Sq8Query {
        let codes: Vec<u8> = q
            .iter()
            .map(|&v| code_by_round(v, s.min, s.scale))
            .collect();
        let mut code_sum = 0u32;
        let mut err_sq = 0f64;
        for (&v, &c) in q.iter().zip(&codes) {
            code_sum += c as u32;
            let d = v as f64 - s.dequant(c) as f64;
            err_sq += d * d;
        }
        Sq8Query {
            codes,
            code_sum,
            err_sq: err_sq as f32,
        }
    }

    #[test]
    fn repr_names_roundtrip() {
        for r in [BlockRepr::F32, BlockRepr::Sq8] {
            assert_eq!(BlockRepr::parse(r.name()), Some(r));
        }
        assert_eq!(BlockRepr::parse("pq4"), None);
        assert!(BlockRepr::Sq8.is_quantized());
        assert!(!BlockRepr::F32.is_quantized());
        assert_eq!(BlockRepr::default(), BlockRepr::F32);
    }

    #[test]
    fn constant_slice_dequantizes_exactly() {
        let s = seg_from(&[3.25; 12], 4);
        assert_eq!(s.scale, 0.0);
        assert!(s.codes.iter().all(|&c| c == 0));
        for r in 0..3 {
            for &c in s.row_codes(r) {
                assert_eq!(s.dequant(c), 3.25);
            }
        }
        assert_eq!(s.coord_error_bound(), 3.25 * f32::EPSILON * 4.0);
    }

    #[test]
    fn round_trip_error_within_bound_basic() {
        let vals: Vec<f32> = (0..64)
            .map(|i| (i as f32 * 0.7).sin() * 5.0 - 2.0)
            .collect();
        let s = seg_from(&vals, 8);
        let bound = s.coord_error_bound();
        for (i, &v) in vals.iter().enumerate() {
            let back = s.dequant(s.codes[i]);
            assert!(
                (v - back).abs() <= bound,
                "coord {i}: |{v} - {back}| > {bound}"
            );
        }
    }

    /// Codes sitting exactly on half steps round away from zero, as
    /// `f64::round` does; NaN and both clamps land where it put them.
    #[test]
    fn query_codes_round_half_away_from_zero() {
        // min 0, max 255: the step is exactly 1, so `k + 0.5` is a tie.
        let s = seg_from(&[0.0, 255.0], 1);
        assert_eq!(s.scale, 1.0);
        let cases = [
            (0.5f32, 1u8),
            (1.5, 2),
            (2.5, 3),
            (254.5, 255),
            (0.499_999_97, 0),
            (-0.5, 0),
            (255.5, 255),
            (1e30, 255),
            (f32::NAN, 0),
        ];
        for (v, want) in cases {
            let got = s.quantize_query(&[v]);
            assert_eq!(got.codes, vec![want], "query {v}");
            let reference = quantize_query_by_round(&s, &[v]);
            assert_eq!(
                got.err_sq.to_bits(),
                reference.err_sq.to_bits(),
                "query {v}"
            );
        }
    }

    #[test]
    fn l2_partial_matches_dequantized_distance() {
        let vals: Vec<f32> = (0..32).map(|i| (i as f32 * 1.3).cos() * 3.0).collect();
        let s = seg_from(&vals, 8);
        let q: Vec<f32> = (0..8).map(|i| (i as f32 * 0.41).sin()).collect();
        let qq = s.quantize_query(&q);
        for row in 0..4 {
            let got = s.l2_partial(&qq, row);
            let want: f32 = (0..8)
                .map(|j| {
                    let d = s.dequant(qq.codes[j]) - s.dequant(s.row_codes(row)[j]);
                    d * d
                })
                .sum();
            assert!(
                (got - want).abs() <= want.abs() * 1e-4 + 1e-5,
                "row {row}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn ip_dot_matches_dequantized_dot() {
        let vals: Vec<f32> = (0..32)
            .map(|i| (i as f32 * 0.9).sin() * 2.0 - 0.5)
            .collect();
        let s = seg_from(&vals, 8);
        let q: Vec<f32> = (0..8).map(|i| (i as f32 * 0.23).cos() * 1.5).collect();
        let qq = s.quantize_query(&q);
        for row in 0..4 {
            let got = s.ip_dot(&qq, row);
            let want: f32 = (0..8)
                .map(|j| s.dequant(qq.codes[j]) * s.dequant(s.row_codes(row)[j]))
                .sum();
            assert!(
                (got - want).abs() <= want.abs() * 1e-3 + 1e-3,
                "row {row}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn query_error_is_exact_even_when_clamped() {
        // Query far outside the data range clamps to code 255.
        let s = seg_from(&[0.0, 1.0, 2.0, 3.0], 4);
        let q = [10.0f32, -5.0, 1.5, 2.0];
        let qq = s.quantize_query(&q);
        assert_eq!(qq.codes[0], 255);
        assert_eq!(qq.codes[1], 0);
        let want: f32 = (0..4)
            .map(|j| {
                let d = q[j] - s.dequant(qq.codes[j]);
                d * d
            })
            .sum();
        assert!((qq.err_sq - want).abs() <= want * 1e-5);
    }

    #[test]
    fn block_query_scoring_sums_over_segments() {
        // Two segments over adjacent column ranges, each with its own code.
        let left: Vec<f32> = (0..20).map(|i| (i as f32 * 0.61).cos() * 2.0).collect();
        let right: Vec<f32> = (0..28).map(|i| (i as f32 * 0.37).sin() * 9.0).collect();
        let segs = [
            Sq8Segment::quantize(&left, 5, 3),
            Sq8Segment::quantize(&right, 7, 8),
        ];
        let q: Vec<f32> = (0..12).map(|i| (i as f32 * 0.17).sin() * 3.0).collect();
        let bq = prepare_block_query(&segs, &q, 3);
        let parts = [
            segs[0].quantize_query(&q[..5]),
            segs[1].quantize_query(&q[5..]),
        ];
        assert_eq!(bq.per_seg, parts);
        assert_eq!(bq.err, (parts[0].err_sq + parts[1].err_sq).sqrt());
        let [e0, e1] = [segs[0].row_error_bound(), segs[1].row_error_bound()];
        assert_eq!(bq.data_err, (e0 * e0 + e1 * e1).sqrt());
        for row in 0..4 {
            let l2 = segs[0].l2_partial(&parts[0], row) + segs[1].l2_partial(&parts[1], row);
            assert_eq!(l2_partial_row(&segs, &bq, row), l2);
            let dot = segs[0].ip_dot(&parts[0], row) + segs[1].ip_dot(&parts[1], row);
            assert_eq!(ip_dot_row(&segs, &bq, row), dot);
        }
    }

    #[test]
    fn memory_is_about_one_byte_per_coordinate() {
        let vals = vec![0.5f32; 128 * 32];
        let s = Sq8Segment::quantize(&vals, 32, 0);
        let f32_bytes = vals.len() * 4;
        let sq8_bytes = s.memory_bytes();
        assert!(
            (f32_bytes as f64 / sq8_bytes as f64) >= 3.0,
            "expected >=3x reduction, got {f32_bytes}/{sq8_bytes}"
        );
    }

    #[test]
    fn empty_block_quantizes_to_empty_segment() {
        let s = Sq8Segment::quantize(&[], 4, 8);
        assert_eq!(s.rows(), 0);
        assert_eq!(s.width(), 4);
        assert_eq!(s.scale, 0.0);
        let qq = s.quantize_query(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(qq.codes.len(), 4);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Maps a plain `[-1, 1)` sample vector into one of several
        /// adversarial regimes: ordinary magnitudes, tiny scales, huge
        /// scales (ranges that overflow f32 subtraction), constant slices,
        /// and all-negative mins.
        fn adversarialize(base: &[f32], mode: usize) -> Vec<f32> {
            match mode {
                0 => base.iter().map(|v| v * 1e3).collect(),
                1 => base.iter().map(|v| v * 1e-30).collect(),
                2 => base.iter().map(|v| v * 3.0e38).collect(),
                3 => vec![base[0] * 1e2 - 7.25; base.len()],
                _ => base.iter().map(|v| v.abs() * -1e4 - 1.0).collect(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// Round-trip error stays within the advertised bound for
            /// adversarial ranges: constant slices, tiny/huge scales,
            /// negative mins.
            #[test]
            fn round_trip_error_within_advertised_bound(
                base in proptest::collection::vec(-1.0f32..1.0f32, 1..96),
                mode in 0usize..5,
                width in 1usize..9,
            ) {
                let vals = adversarialize(&base, mode);
                let rows = vals.len() / width;
                let flat = &vals[..rows * width];
                let s = Sq8Segment::quantize(flat, width, 0);
                prop_assert!(s.scale.is_finite() && s.scale >= 0.0);
                let bound = s.coord_error_bound() as f64;
                for (i, &v) in flat.iter().enumerate() {
                    let back = s.dequant(s.codes[i]) as f64;
                    let err = (v as f64 - back).abs();
                    prop_assert!(
                        err <= bound,
                        "coord {i}: err {err} > bound {bound} (min {} scale {})",
                        s.min, s.scale
                    );
                }
            }

            /// One query quantizer behind two entry points, both bit for
            /// bit the `f64::round` reference in every adversarial regime —
            /// constant slices (scale 0), tiny and huge scales, queries
            /// clamped at either end and queries far outside `[min, max]` —
            /// with the buffer reused dirty, as a scan reuses it. The data
            /// quantizer shares the rounding and matches it too.
            #[test]
            fn buffered_query_quantizer_matches_the_rounding_reference(
                base in proptest::collection::vec(-1.0f32..1.0f32, 1..96),
                mode in 0usize..5,
                width in 1usize..9,
                q_base in proptest::collection::vec(-1.0f32..1.0f32, 8..9),
                q_mode in 0usize..5,
                stretch in 0usize..4,
            ) {
                let vals = adversarialize(&base, mode);
                let rows = vals.len() / width;
                let flat = &vals[..rows * width];
                let s = Sq8Segment::quantize(flat, width, 0);
                let data: Vec<u8> = flat.iter().map(|&v| code_by_round(v, s.min, s.scale)).collect();
                prop_assert_eq!(&s.codes, &data);
                let factor = [1.0f32, 1e3, 1e-3, -1.0][stretch];
                let q: Vec<f32> = adversarialize(&q_base, q_mode)
                    .iter()
                    .take(width)
                    .map(|v| v * factor)
                    .collect();
                let want = quantize_query_by_round(&s, &q);
                let mut buf = vec![7u8; 11];
                let (code_sum, err_sq) = s.quantize_query_into(&q, &mut buf);
                prop_assert_eq!(&buf, &want.codes);
                prop_assert_eq!(code_sum, want.code_sum);
                prop_assert_eq!(err_sq.to_bits(), want.err_sq.to_bits());
                let got = s.quantize_query(&q);
                prop_assert_eq!(&got.codes, &want.codes);
                prop_assert_eq!(got.code_sum, want.code_sum);
                prop_assert_eq!(got.err_sq.to_bits(), want.err_sq.to_bits());
            }

            /// The L2 stage-1 partial lower-bounds the exact distance once
            /// widened by the measured query error plus the advertised data
            /// error: `‖q−p‖ ≥ ‖dq(q)−dq(p)‖ − E_q − E_p`. And the stage-1
            /// dot product is within `E_q·‖p‖ + (‖q‖+E_q)·E_p` of the
            /// exact one, with `‖p‖` the row's exact norm and no pad on it
            /// — the inner-product prune slack as the workers compute it.
            #[test]
            fn widened_quantized_distance_lower_bounds_exact(
                vals in proptest::collection::vec(-20.0f32..20.0f32, 8..64),
                q in proptest::collection::vec(-25.0f32..25.0f32, 8..9),
            ) {
                let width = 8;
                let rows = vals.len() / width;
                prop_assume!(rows > 0);
                let flat = &vals[..rows * width];
                let s = Sq8Segment::quantize(flat, width, 0);
                let bq = prepare_block_query(std::slice::from_ref(&s), &q, 0);
                let q_norm = q.iter().map(|v| v * v).sum::<f32>().sqrt();
                for row in 0..rows {
                    let p = &flat[row * width..(row + 1) * width];
                    let exact: f32 = q.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum();
                    let quant = l2_partial_row(std::slice::from_ref(&s), &bq, row);
                    let eps = bq.err + bq.data_err;
                    let lower = (quant.max(0.0).sqrt() - eps).max(0.0);
                    prop_assert!(
                        lower * lower <= exact * (1.0 + 1e-4) + 1e-5,
                        "row {row}: widened bound {} exceeds exact {exact}",
                        lower * lower
                    );
                    let exact_dot: f32 = q.iter().zip(p).map(|(a, b)| a * b).sum();
                    let quant_dot = ip_dot_row(std::slice::from_ref(&s), &bq, row);
                    let p_norm = p.iter().map(|v| v * v).sum::<f32>().sqrt();
                    let slack = bq.err * p_norm + (q_norm + bq.err) * bq.data_err;
                    prop_assert!(
                        (exact_dot - quant_dot).abs() <= slack * (1.0 + 1e-4) + 1e-3,
                        "row {row}: dot off by {} with slack {slack}",
                        (exact_dot - quant_dot).abs()
                    );
                }
            }
        }
    }
}
