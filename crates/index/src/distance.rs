//! Distance kernels: full-range and dimension-range partial variants.
//!
//! Harmony's dimension-based partitioning splits a `d`-dimensional distance
//! computation into per-block partial results (§3.1 of the paper):
//!
//! * squared Euclidean distance decomposes as
//!   `D²(p, q) = Σ_k D²_k(p, q)` over disjoint dimension blocks `I_k`,
//! * dot products decompose as `p·q = Σ_k α_k(p, q)`.
//!
//! Every kernel here therefore operates on *slices*: a worker that owns the
//! dimension block `I_k` stores only those coordinates, and calls the same
//! kernels on its sub-slices. The decomposition identities are verified by
//! property tests at the bottom of this module.
//!
//! Kernels ship in two flavors: a portable scalar implementation with 4-way
//! unrolled accumulators (auto-vectorizes well), and AVX2+FMA intrinsics that
//! are selected at runtime when the CPU supports them. The paper's testbed
//! uses Intel MKL with AVX-512; AVX2 is our closest widely-available analog
//! (see DESIGN.md §4 Substitutions).

/// Vector similarity metric.
///
/// `L2` is a distance (lower is better); `InnerProduct` and `Cosine` are
/// similarities (higher is better). [`Metric::score`] maps all three onto a
/// single lower-is-better score so the rest of the system works with one
/// ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// Squared Euclidean distance.
    #[default]
    L2,
    /// Dot product (maximized). Scored as its negation.
    InnerProduct,
    /// Cosine similarity (maximized). Callers are expected to normalize
    /// vectors at ingestion; the kernel computes a true cosine regardless.
    Cosine,
}

impl Metric {
    /// Lower-is-better score of `a` vs `b` under this metric.
    #[inline]
    pub fn score(self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::L2 => l2_sq(a, b),
            Metric::InnerProduct => -ip(a, b),
            Metric::Cosine => -cosine(a, b),
        }
    }

    /// `true` when partial sums of this metric grow monotonically, enabling
    /// Harmony's exact early-stop pruning without auxiliary bounds.
    ///
    /// L2 partials are sums of squares (non-negative terms); inner-product
    /// partials may be negative and need the Cauchy–Schwarz residual bound
    /// implemented in `harmony-core::pruning`.
    ///
    /// **Quantized (SQ8) caveat:** monotonicity holds only *within* one
    /// score domain. SQ8 stage-1 partials accumulate over dequantized
    /// approximations, so they are monotone against other quantized scores
    /// but **not** against exact-domain thresholds (a prewarm `τ` or a
    /// cross-shard threshold computed from f32 arithmetic): the quantized
    /// partial may overshoot the exact score by up to the per-slice
    /// quantization error. Before early-stopping against an exact-domain
    /// threshold the prune bound must be widened by the accumulated error —
    /// `‖q−p‖ ≥ ‖dq(q)−dq(p)‖ − E_q − E_p` under L2, an additive dot-product
    /// slack under IP/cosine — as implemented by
    /// `harmony-core::pruning::PruneRule::{should_prune_quantized,
    /// should_prune_cosine_quantized}`. Pruning then stays
    /// exact-over-quantized: it never discards a candidate whose exact
    /// score could still beat the threshold.
    #[inline]
    pub fn monotone_partials(self) -> bool {
        matches!(self, Metric::L2)
    }

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Metric::L2 => "l2",
            Metric::InnerProduct => "ip",
            Metric::Cosine => "cosine",
        }
    }
}

/// Half-open dimension range `[start, end)` — one dimension block `D_j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimRange {
    /// First dimension (inclusive).
    pub start: usize,
    /// One past the last dimension (exclusive).
    pub end: usize,
}

impl DimRange {
    /// Creates the range `[start, end)`.
    ///
    /// # Panics
    /// Panics if `start > end`.
    #[inline]
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start <= end, "invalid DimRange {start}..{end}");
        Self { start, end }
    }

    /// The full range `[0, dim)`.
    #[inline]
    pub fn full(dim: usize) -> Self {
        Self { start: 0, end: dim }
    }

    /// Number of dimensions covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the range covers no dimensions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Splits `[0, dim)` into `blocks` contiguous near-equal ranges.
    ///
    /// The first `dim % blocks` ranges get one extra dimension, matching the
    /// paper's quarter splits (`[1, d/4], [d/4+1, d/2], ...`).
    ///
    /// # Panics
    /// Panics if `blocks == 0` or `blocks > dim`.
    pub fn split(dim: usize, blocks: usize) -> Vec<DimRange> {
        assert!(blocks > 0, "cannot split into 0 blocks");
        assert!(
            blocks <= dim,
            "cannot split {dim} dims into {blocks} blocks"
        );
        let base = dim / blocks;
        let extra = dim % blocks;
        let mut out = Vec::with_capacity(blocks);
        let mut start = 0;
        for b in 0..blocks {
            let len = base + usize::from(b < extra);
            out.push(DimRange::new(start, start + len));
            start += len;
        }
        debug_assert_eq!(start, dim);
        out
    }
}

// ---------------------------------------------------------------------------
// Scalar kernels (reference implementations, 4-way unrolled).
// ---------------------------------------------------------------------------

/// Squared L2 distance, scalar implementation.
#[inline]
pub fn l2_sq_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc0 = 0.0f32;
    let mut acc1 = 0.0f32;
    let mut acc2 = 0.0f32;
    let mut acc3 = 0.0f32;
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        let d0 = a[j] - b[j];
        let d1 = a[j + 1] - b[j + 1];
        let d2 = a[j + 2] - b[j + 2];
        let d3 = a[j + 3] - b[j + 3];
        acc0 += d0 * d0;
        acc1 += d1 * d1;
        acc2 += d2 * d2;
        acc3 += d3 * d3;
    }
    let mut acc = (acc0 + acc1) + (acc2 + acc3);
    for j in chunks * 4..a.len() {
        let d = a[j] - b[j];
        acc += d * d;
    }
    acc
}

/// Dot product, scalar implementation.
#[inline]
pub fn ip_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc0 = 0.0f32;
    let mut acc1 = 0.0f32;
    let mut acc2 = 0.0f32;
    let mut acc3 = 0.0f32;
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc0 += a[j] * b[j];
        acc1 += a[j + 1] * b[j + 1];
        acc2 += a[j + 2] * b[j + 2];
        acc3 += a[j + 3] * b[j + 3];
    }
    let mut acc = (acc0 + acc1) + (acc2 + acc3);
    for j in chunks * 4..a.len() {
        acc += a[j] * b[j];
    }
    acc
}

/// Squared L2 distance between equal-length u8 code slices, scalar
/// implementation (4-way unrolled, mirroring [`l2_sq_scalar`]).
///
/// The `u32` accumulator is exact for widths up to 2¹⁶ (the per-term
/// maximum is 255² and 255² · 2¹⁶ < 2³²).
#[inline]
pub fn l2_sq_u8_scalar(a: &[u8], b: &[u8]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(a.len() <= 1 << 16, "u32 accumulator caps widths at 2^16");
    let mut acc0 = 0u32;
    let mut acc1 = 0u32;
    let mut acc2 = 0u32;
    let mut acc3 = 0u32;
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        let d0 = a[j] as i32 - b[j] as i32;
        let d1 = a[j + 1] as i32 - b[j + 1] as i32;
        let d2 = a[j + 2] as i32 - b[j + 2] as i32;
        let d3 = a[j + 3] as i32 - b[j + 3] as i32;
        acc0 += (d0 * d0) as u32;
        acc1 += (d1 * d1) as u32;
        acc2 += (d2 * d2) as u32;
        acc3 += (d3 * d3) as u32;
    }
    let mut acc = (acc0 + acc1) + (acc2 + acc3);
    for j in chunks * 4..a.len() {
        let d = a[j] as i32 - b[j] as i32;
        acc += (d * d) as u32;
    }
    acc
}

/// Dot product between equal-length u8 code slices, scalar implementation
/// (4-way unrolled, mirroring [`ip_scalar`]). Exact for widths up to 2¹⁶.
#[inline]
pub fn ip_u8_scalar(a: &[u8], b: &[u8]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(a.len() <= 1 << 16, "u32 accumulator caps widths at 2^16");
    let mut acc0 = 0u32;
    let mut acc1 = 0u32;
    let mut acc2 = 0u32;
    let mut acc3 = 0u32;
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc0 += a[j] as u32 * b[j] as u32;
        acc1 += a[j + 1] as u32 * b[j + 1] as u32;
        acc2 += a[j + 2] as u32 * b[j + 2] as u32;
        acc3 += a[j + 3] as u32 * b[j + 3] as u32;
    }
    let mut acc = (acc0 + acc1) + (acc2 + acc3);
    for j in chunks * 4..a.len() {
        acc += a[j] as u32 * b[j] as u32;
    }
    acc
}

/// Widest code slice the u8 kernels score exactly: their `u32` sums hold
/// 255² · 2¹⁶ < 2³², and a wider slice would wrap silently.
pub const U8_MAX_WIDTH: usize = 1 << 16;

/// Row `i` of a row-major code matrix `w` codes wide.
#[inline]
fn code_row(rows: &[u8], w: usize, i: usize) -> &[u8] {
    &rows[i * w..(i + 1) * w]
}

/// Row `i` of a row-major f32 matrix `w` floats wide.
#[inline]
fn f32_row(rows: &[f32], w: usize, i: usize) -> &[f32] {
    &rows[i * w..(i + 1) * w]
}

/// [`partial_score`] through the scalar kernels.
#[inline]
fn partial_score_scalar(metric: Metric, a: &[f32], b: &[f32]) -> f32 {
    match metric {
        Metric::L2 => l2_sq_scalar(a, b),
        Metric::InnerProduct | Metric::Cosine => -ip_scalar(a, b),
    }
}

/// The u8 kernel `metric` scores codes with, scalar: the squared distance
/// under L2, the dot product otherwise.
#[inline]
fn u8_score_scalar(metric: Metric, a: &[u8], b: &[u8]) -> u32 {
    match metric {
        Metric::L2 => l2_sq_u8_scalar(a, b),
        Metric::InnerProduct | Metric::Cosine => ip_u8_scalar(a, b),
    }
}

/// Checks the shape of a u8 rows call: `rows` holds `out.len()` rows as
/// wide as `q`, and `q` is no wider than the `u32` sums allow.
#[inline]
fn check_u8_rows(q: &[u8], rows: &[u8], out: &[u32]) {
    assert_eq!(
        rows.len(),
        q.len() * out.len(),
        "rows must be out.len() rows of q.len()"
    );
    debug_assert!(
        q.len() <= U8_MAX_WIDTH,
        "u32 accumulator caps widths at 2^16"
    );
}

/// Checks the shape of a tile call and returns its rows per query: the
/// queries share one width, `out` holds `qs.len()` runs of `n` results and
/// `rows` holds `n` rows of that width.
#[inline]
fn check_tile(qs: &[&[f32]], rows: &[f32], out: &[f32]) -> usize {
    let w = qs.first().map_or(0, |q| q.len());
    assert!(
        qs.iter().all(|q| q.len() == w),
        "queries must share one width"
    );
    let n = out.len().checked_div(qs.len()).unwrap_or(0);
    assert_eq!(out.len(), qs.len() * n, "out must be qs.len() runs of rows");
    assert_eq!(rows.len(), w * n, "rows must be n rows of the query width");
    n
}

/// [`f32_tile`], scalar: one [`l2_sq_scalar`] or negated [`ip_scalar`]
/// per (query, row).
pub fn f32_tile_scalar(metric: Metric, qs: &[&[f32]], rows: &[f32], out: &mut [f32]) {
    let n = check_tile(qs, rows, out);
    for (q, out) in qs.iter().zip(out.chunks_mut(n.max(1))) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = partial_score_scalar(metric, q, f32_row(rows, q.len(), i));
        }
    }
}

/// [`f32_rows_at`], scalar: one [`l2_sq_scalar`] or negated [`ip_scalar`]
/// per picked row.
pub fn f32_rows_at_scalar(metric: Metric, q: &[f32], rows: &[f32], at: &[u32], out: &mut [f32]) {
    assert_eq!(at.len(), out.len(), "one output per picked row");
    for (o, &r) in out.iter_mut().zip(at) {
        *o = partial_score_scalar(metric, q, f32_row(rows, q.len(), r as usize));
    }
}

/// [`u8_rows`], scalar: one [`l2_sq_u8_scalar`] or [`ip_u8_scalar`] per
/// row.
pub fn u8_rows_scalar(metric: Metric, q: &[u8], rows: &[u8], out: &mut [u32]) {
    check_u8_rows(q, rows, out);
    for (i, o) in out.iter_mut().enumerate() {
        *o = u8_score_scalar(metric, q, code_row(rows, q.len(), i));
    }
}

/// [`u8_rows_at`], scalar: one [`l2_sq_u8_scalar`] or [`ip_u8_scalar`] per
/// picked row.
pub fn u8_rows_at_scalar(metric: Metric, q: &[u8], rows: &[u8], at: &[u32], out: &mut [u32]) {
    assert_eq!(at.len(), out.len(), "one output per picked row");
    for (o, &r) in out.iter_mut().zip(at) {
        *o = u8_score_scalar(metric, q, code_row(rows, q.len(), r as usize));
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels, selected at runtime.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Squared L2 distance using AVX2 + FMA.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2` and `fma`, and that `b`
    /// is as long as `a`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc = _mm256_setzero_ps();
        let chunks = n / 8;
        for i in 0..chunks {
            // SAFETY: i < n / 8, so both 8-lane loads end at i*8+8 <= n.
            let (pa, pb) = unsafe {
                (
                    _mm256_loadu_ps(a.as_ptr().add(i * 8)),
                    _mm256_loadu_ps(b.as_ptr().add(i * 8)),
                )
            };
            let d = _mm256_sub_ps(pa, pb);
            acc = _mm256_fmadd_ps(d, d, acc);
        }
        // SAFETY: callee requires the same target features as self.
        let mut sum = unsafe { horizontal_sum(acc) };
        for j in chunks * 8..n {
            let d = a[j] - b[j];
            sum += d * d;
        }
        sum
    }

    /// Dot product using AVX2 + FMA.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2` and `fma`, and that `b`
    /// is as long as `a`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn ip(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc = _mm256_setzero_ps();
        let chunks = n / 8;
        for i in 0..chunks {
            // SAFETY: i < n / 8, so both 8-lane loads end at i*8+8 <= n.
            let (pa, pb) = unsafe {
                (
                    _mm256_loadu_ps(a.as_ptr().add(i * 8)),
                    _mm256_loadu_ps(b.as_ptr().add(i * 8)),
                )
            };
            acc = _mm256_fmadd_ps(pa, pb, acc);
        }
        // SAFETY: callee requires the same target features as self.
        let mut sum = unsafe { horizontal_sum(acc) };
        for j in chunks * 8..n {
            sum += a[j] * b[j];
        }
        sum
    }

    /// Squared L2 distance over u8 codes using AVX2 integer arithmetic:
    /// 16 codes per iteration are zero-extended to i16 lanes
    /// (`cvtepu8_epi16`), differenced (range −255..255 fits i16), and
    /// pair-wise squared-and-summed into i32 lanes (`madd_epi16`; products
    /// are at most 255² so no saturation is possible).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2`, and that `b` is as long
    /// as `a`: every 16-code load reads both slices at the same offset.
    #[target_feature(enable = "avx2")]
    pub unsafe fn l2_sq_u8(a: &[u8], b: &[u8]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc = _mm256_setzero_si256();
        let chunks = n / 16;
        for i in 0..chunks {
            // SAFETY: i < n / 16, so both 16-byte loads end at i*16+16 <= n.
            let (pa, pb) = unsafe {
                (
                    _mm_loadu_si128(a.as_ptr().add(i * 16) as *const __m128i),
                    _mm_loadu_si128(b.as_ptr().add(i * 16) as *const __m128i),
                )
            };
            let wa = _mm256_cvtepu8_epi16(pa);
            let wb = _mm256_cvtepu8_epi16(pb);
            let d = _mm256_sub_epi16(wa, wb);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, d));
        }
        // SAFETY: callee requires the same target features as self.
        let mut sum = unsafe { horizontal_sum_epi32(acc) };
        for j in chunks * 16..n {
            let d = a[j] as i32 - b[j] as i32;
            sum += (d * d) as u32;
        }
        sum
    }

    /// Dot product over u8 codes using AVX2 integer arithmetic (same
    /// zero-extend + `madd_epi16` scheme as [`l2_sq_u8`]).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2`, and that `b` is as long
    /// as `a`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn ip_u8(a: &[u8], b: &[u8]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc = _mm256_setzero_si256();
        let chunks = n / 16;
        for i in 0..chunks {
            // SAFETY: i < n / 16, so both 16-byte loads end at i*16+16 <= n.
            let (pa, pb) = unsafe {
                (
                    _mm_loadu_si128(a.as_ptr().add(i * 16) as *const __m128i),
                    _mm_loadu_si128(b.as_ptr().add(i * 16) as *const __m128i),
                )
            };
            let wa = _mm256_cvtepu8_epi16(pa);
            let wb = _mm256_cvtepu8_epi16(pb);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wa, wb));
        }
        // SAFETY: callee requires the same target features as self.
        let mut sum = unsafe { horizontal_sum_epi32(acc) };
        for j in chunks * 16..n {
            sum += a[j] as u32 * b[j] as u32;
        }
        sum
    }

    /// One widened step of a blocked u8 kernel: 16 i16 lanes of query and
    /// row codes become eight i32 lanes of `(q−r)²` pair sums (`L2`) or
    /// `q·r` pair sums.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn step<const L2: bool>(qw: __m256i, rw: __m256i) -> __m256i {
        if L2 {
            let d = _mm256_sub_epi16(qw, rw);
            _mm256_madd_epi16(d, d)
        } else {
            _mm256_madd_epi16(qw, rw)
        }
    }

    /// Four rows' u8 kernel sums against `q` at once: each 16 query codes
    /// are widened once for all four rows, an 8-code tail takes a 64-bit
    /// load (its upper lanes widen zeros on both sides and add nothing),
    /// and the four accumulators meet in one `hadd` reduction. Each i32
    /// lane stays below 2·255²·(width/16 + 1) < 2³¹ for widths ≤ 2¹⁶; the
    /// reduction's adds wrap, so the u32 totals are exact.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2` and that every row is at
    /// least `q.len()` codes long.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn four<const L2: bool>(q: &[u8], rows: [&[u8]; 4]) -> [u32; 4] {
        let n = q.len();
        debug_assert!(rows.iter().all(|r| r.len() >= n));
        let mut acc = [_mm256_setzero_si256(); 4];
        let mut j = 0;
        while j + 16 <= n {
            // SAFETY: j + 16 <= n and every row holds n codes, so each
            // 16-byte load is in bounds.
            let qw = _mm256_cvtepu8_epi16(unsafe {
                _mm_loadu_si128(q.as_ptr().add(j) as *const __m128i)
            });
            for (a, row) in acc.iter_mut().zip(rows) {
                // SAFETY: as for the query load; `step` needs the features
                // this function has.
                unsafe {
                    let rw = _mm256_cvtepu8_epi16(_mm_loadu_si128(
                        row.as_ptr().add(j) as *const __m128i
                    ));
                    *a = _mm256_add_epi32(*a, step::<L2>(qw, rw));
                }
            }
            j += 16;
        }
        if j + 8 <= n {
            // SAFETY: j + 8 <= n, so each 8-byte load is in bounds.
            let qw = _mm256_cvtepu8_epi16(unsafe {
                _mm_loadl_epi64(q.as_ptr().add(j) as *const __m128i)
            });
            for (a, row) in acc.iter_mut().zip(rows) {
                // SAFETY: as for the query load; `step` needs the features
                // this function has.
                unsafe {
                    let rw = _mm256_cvtepu8_epi16(_mm_loadl_epi64(
                        row.as_ptr().add(j) as *const __m128i
                    ));
                    *a = _mm256_add_epi32(*a, step::<L2>(qw, rw));
                }
            }
            j += 8;
        }
        let s = _mm256_hadd_epi32(
            _mm256_hadd_epi32(acc[0], acc[1]),
            _mm256_hadd_epi32(acc[2], acc[3]),
        );
        let t = _mm_add_epi32(_mm256_castsi256_si128(s), _mm256_extracti128_si256(s, 1));
        let mut sums = [0u32; 4];
        // SAFETY: `sums` is a 16-byte local array, valid for a 128-bit store.
        unsafe { _mm_storeu_si128(sums.as_mut_ptr() as *mut __m128i, t) };
        for (sum, row) in sums.iter_mut().zip(rows) {
            for (&a, &b) in q[j..].iter().zip(&row[j..n]) {
                *sum += if L2 {
                    let d = a as i32 - b as i32;
                    (d * d) as u32
                } else {
                    a as u32 * b as u32
                };
            }
        }
        sums
    }

    /// Scores `out.len()` rows four at a time, `row(i)` being the i-th; a
    /// short last quad repeats its final row and keeps its own results.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2` and that every `row(i)`
    /// is at least `q.len()` codes long.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn blocked<'r, const L2: bool>(
        q: &[u8],
        out: &mut [u32],
        row: impl Fn(usize) -> &'r [u8],
    ) {
        for (c, quad) in out.chunks_mut(4).enumerate() {
            let last = quad.len() - 1;
            let at = |k: usize| row(c * 4 + k.min(last));
            // SAFETY: same target features as self; rows as required.
            let sums = unsafe { four::<L2>(q, [at(0), at(1), at(2), at(3)]) };
            quad.copy_from_slice(&sums[..quad.len()]);
        }
    }

    /// [`super::u8_rows`]: squared distances (`L2`) or dot products.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn u8_rows<const L2: bool>(q: &[u8], rows: &[u8], out: &mut [u32]) {
        let w = q.len();
        // SAFETY: same target features as self; `code_row` slices every
        // row exactly `w` codes wide, bounds-checked.
        unsafe { blocked::<L2>(q, out, |i| super::code_row(rows, w, i)) }
    }

    /// [`super::u8_rows_at`]: squared distances (`L2`) or dot products.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn u8_rows_at<const L2: bool>(q: &[u8], rows: &[u8], at: &[u32], out: &mut [u32]) {
        let w = q.len();
        // SAFETY: same target features as self; `code_row` slices every
        // picked row exactly `w` codes wide, bounds-checked.
        unsafe { blocked::<L2>(q, out, |i| super::code_row(rows, w, at[i] as usize)) }
    }

    /// `M` queries' f32 kernel sums against four rows at once. Every
    /// (query, row) pair keeps its own 8-lane FMA chain over the steps
    /// [`l2_sq`] / [`ip`] take, is reduced in [`horizontal_sum`]'s lane
    /// order ([`horizontal_sums`]) and finished by the same scalar tail, so
    /// each sum is bit for bit the one-row kernel's; each row is loaded
    /// once per step for all `M` queries.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2` and `fma`, and that every
    /// query and row is exactly `qs[0].len()` floats long.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile<const L2: bool, const M: usize>(
        qs: [&[f32]; M],
        rows: [&[f32]; 4],
    ) -> [[f32; 4]; M] {
        let n = qs[0].len();
        debug_assert!(qs.iter().chain(&rows).all(|v| v.len() == n));
        let mut acc = [[_mm256_setzero_ps(); 4]; M];
        let chunks = n / 8;
        for i in 0..chunks {
            let mut r = [_mm256_setzero_ps(); 4];
            for (r, row) in r.iter_mut().zip(rows) {
                // SAFETY: i < n / 8 and every row holds n floats, so the
                // 8-lane load ends at i*8+8 <= n.
                *r = unsafe { _mm256_loadu_ps(row.as_ptr().add(i * 8)) };
            }
            for (acc, q) in acc.iter_mut().zip(qs) {
                // SAFETY: as for the rows; every query holds n floats.
                let q = unsafe { _mm256_loadu_ps(q.as_ptr().add(i * 8)) };
                for (a, &r) in acc.iter_mut().zip(&r) {
                    *a = if L2 {
                        let d = _mm256_sub_ps(q, r);
                        _mm256_fmadd_ps(d, d, *a)
                    } else {
                        _mm256_fmadd_ps(q, r, *a)
                    };
                }
            }
        }
        let mut sums = [[0.0f32; 4]; M];
        for ((sums, acc), q) in sums.iter_mut().zip(acc).zip(qs) {
            // SAFETY: callee requires the same target features as self.
            *sums = unsafe { horizontal_sums(acc) };
            for (sum, row) in sums.iter_mut().zip(rows) {
                for (&a, &b) in q[chunks * 8..].iter().zip(&row[chunks * 8..]) {
                    *sum += if L2 {
                        let d = a - b;
                        d * d
                    } else {
                        a * b
                    };
                }
            }
        }
        sums
    }

    /// Scores `outs[0].len()` rows against the `M` queries four rows at a
    /// time, `row(i)` being the i-th, into `outs[g][i]`: the squared
    /// distance (`L2`) or the negated dot product, negation being exact. A
    /// short last quad repeats its final row and keeps its own results.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2` and `fma`, that every
    /// query is `qs[0].len()` floats long and every `row(i)` too, and that
    /// every `outs[g]` is as long as `outs[0]`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn blocked_f32<'r, const L2: bool, const M: usize>(
        qs: [&[f32]; M],
        mut outs: [&mut [f32]; M],
        row: impl Fn(usize) -> &'r [f32],
    ) {
        let n = outs[0].len();
        for c in (0..n).step_by(4) {
            let last = (n - c).min(4) - 1;
            let at = |k: usize| row(c + k.min(last));
            // SAFETY: same target features as self; shapes as required.
            let sums = unsafe { tile::<L2, M>(qs, [at(0), at(1), at(2), at(3)]) };
            for (out, sums) in outs.iter_mut().zip(sums) {
                let sums = if L2 { sums } else { sums.map(|s| -s) };
                out[c..=c + last].copy_from_slice(&sums[..=last]);
            }
        }
    }

    /// [`super::f32_rows_at`]: squared distances (`L2`) or negated dot
    /// products.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2` and `fma`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn f32_rows_at<const L2: bool>(
        q: &[f32],
        rows: &[f32],
        at: &[u32],
        out: &mut [f32],
    ) {
        let w = q.len();
        // SAFETY: same target features as self; `f32_row` slices every
        // picked row exactly `w` floats wide, bounds-checked.
        unsafe { blocked_f32::<L2, 1>([q], [out], |i| super::f32_row(rows, w, at[i] as usize)) }
    }

    /// [`super::f32_tile`]: squared distances (`L2`) or negated dot
    /// products, the queries in pairs (an odd last one alone), each pair
    /// against every row.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2` and `fma`, and that the
    /// shape is one [`super::check_tile`] accepts.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn f32_tile<const L2: bool>(qs: &[&[f32]], rows: &[f32], out: &mut [f32], n: usize) {
        if n == 0 {
            return;
        }
        let w = qs.first().map_or(0, |q| q.len());
        let row = |i: usize| super::f32_row(rows, w, i);
        for (pair, outs) in qs.chunks(2).zip(out.chunks_mut(2 * n)) {
            if let [a, b] = *pair {
                let (oa, ob) = outs.split_at_mut(n);
                // SAFETY: same target features as self; the queries share
                // width `w`, `row` slices rows that wide, and each output
                // run is `n` long.
                unsafe { blocked_f32::<L2, 2>([a, b], [oa, ob], row) }
            } else {
                // SAFETY: as above, for the odd last query alone.
                unsafe { blocked_f32::<L2, 1>([pair[0]], [outs], row) }
            }
        }
    }

    /// Four 8-lane sums, each reduced exactly as [`horizontal_sum`] reduces
    /// one: the two 128-bit halves lane by lane, then `(t0+t1)+(t2+t3)`,
    /// which two rounds of `hadd` form for all four at once.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn horizontal_sums(v: [__m256; 4]) -> [f32; 4] {
        let half = |v: __m256| _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
        let s = _mm_hadd_ps(
            _mm_hadd_ps(half(v[0]), half(v[1])),
            _mm_hadd_ps(half(v[2]), half(v[3])),
        );
        let mut sums = [0.0f32; 4];
        // SAFETY: `sums` is a 16-byte local array, valid for a 128-bit store.
        unsafe { _mm_storeu_ps(sums.as_mut_ptr(), s) };
        sums
    }

    /// Sums the eight i32 lanes. Lanes are non-negative and bounded by
    /// 2·255²·(width/16), so for widths ≤ 2¹⁶ both the 128-bit lane adds
    /// and the final u32 total are exact.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn horizontal_sum_epi32(v: __m256i) -> u32 {
        let hi = _mm256_extracti128_si256(v, 1);
        let lo = _mm256_castsi256_si128(v);
        let s = _mm_add_epi32(lo, hi);
        let mut lanes = [0i32; 4];
        // SAFETY: `lanes` is a 16-byte local array, valid for a 128-bit store.
        unsafe { _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, s) };
        lanes
            .iter()
            .fold(0u32, |acc, &x| acc.wrapping_add(x as u32))
    }

    /// Sums the eight f32 lanes via extract/shuffle reduction.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn horizontal_sum(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        let sum128 = _mm_add_ps(lo, hi);
        let shuf = _mm_movehdup_ps(sum128);
        let sums = _mm_add_ps(sum128, shuf);
        let shuf = _mm_movehl_ps(shuf, sums);
        let sums = _mm_add_ss(sums, shuf);
        _mm_cvtss_f32(sums)
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
}

// ---------------------------------------------------------------------------
// Public dispatching kernels.
// ---------------------------------------------------------------------------

/// Squared L2 distance between equal-length slices.
///
/// Dispatches to AVX2 when available, scalar otherwise.
///
/// # Panics
/// When the slice lengths differ.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l2_sq of slices of different lengths");
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above; lengths asserted equal.
            return unsafe { avx2::l2_sq(a, b) };
        }
    }
    l2_sq_scalar(a, b)
}

/// Dot product between equal-length slices.
///
/// # Panics
/// When the slice lengths differ.
#[inline]
pub fn ip(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "ip of slices of different lengths");
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above; lengths asserted equal.
            return unsafe { avx2::ip(a, b) };
        }
    }
    ip_scalar(a, b)
}

/// The lower-is-better partial ([`partial_score`]) of every query of `qs`
/// against every row of `rows` — the squared distance under L2, the
/// negated dot product under inner product and cosine — query-major:
/// `out[g * n + i]` is query `g` against row `i`, for `n` rows of the
/// queries' shared width. The first-hop scan of one run for all the queries
/// of a sub-batch that probe it; one query makes it the scan of one row
/// block for one query. A 2-query × 4-row register tile loads each row
/// once per pair of queries. Each result is bit for bit [`l2_sq`] or
/// `-`[`ip`] of its pair; [`f32_tile_scalar`] is the path without AVX2.
///
/// # Panics
/// When the queries differ in width, `out.len()` is not `qs.len() * n` or
/// `rows.len()` not `n` rows of that width.
pub fn f32_tile(metric: Metric, qs: &[&[f32]], rows: &[f32], out: &mut [f32]) {
    let n = check_tile(qs, rows, out);
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above; shape checked.
            return unsafe {
                match metric {
                    Metric::L2 => avx2::f32_tile::<true>(qs, rows, out, n),
                    Metric::InnerProduct | Metric::Cosine => {
                        avx2::f32_tile::<false>(qs, rows, out, n)
                    }
                }
            };
        }
    }
    f32_tile_scalar(metric, qs, rows, out)
}

/// [`f32_tile`] for one query over the picked rows `at` of `rows` only —
/// the carried hops, which score the survivors a run still holds, in
/// carry order — with `out[i]` the partial of row `at[i]`, four picked
/// rows per pass. [`f32_rows_at_scalar`] is the path without AVX2.
///
/// # Panics
/// When `at.len() != out.len()` or a picked row lies outside `rows`.
pub fn f32_rows_at(metric: Metric, q: &[f32], rows: &[f32], at: &[u32], out: &mut [f32]) {
    assert_eq!(at.len(), out.len(), "one output per picked row");
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above; lengths asserted equal.
            return unsafe {
                match metric {
                    Metric::L2 => avx2::f32_rows_at::<true>(q, rows, at, out),
                    Metric::InnerProduct | Metric::Cosine => {
                        avx2::f32_rows_at::<false>(q, rows, at, out)
                    }
                }
            };
        }
    }
    f32_rows_at_scalar(metric, q, rows, at, out)
}

/// Squared L2 distance between equal-length u8 code slices (SQ8 stage-1
/// scans). Dispatches to AVX2 when available, scalar otherwise; both paths
/// are exact integer arithmetic, so they agree bit-for-bit.
///
/// # Panics
/// When the slice lengths differ.
#[inline]
pub fn l2_sq_u8(a: &[u8], b: &[u8]) -> u32 {
    assert_eq!(a.len(), b.len(), "l2_sq_u8 of slices of different lengths");
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above; lengths asserted equal.
            return unsafe { avx2::l2_sq_u8(a, b) };
        }
    }
    l2_sq_u8_scalar(a, b)
}

/// Dot product between equal-length u8 code slices (SQ8 stage-1 scans).
///
/// # Panics
/// When the slice lengths differ.
#[inline]
pub fn ip_u8(a: &[u8], b: &[u8]) -> u32 {
    assert_eq!(a.len(), b.len(), "ip_u8 of slices of different lengths");
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above; lengths asserted equal.
            return unsafe { avx2::ip_u8(a, b) };
        }
    }
    ip_u8_scalar(a, b)
}

/// The u8 kernel of `metric` — [`l2_sq_u8`] under L2, [`ip_u8`] under
/// inner product and cosine — of the u8 query `q` against each of the
/// `out.len()` rows of the row-major code matrix `rows` (`q.len()` codes
/// wide), into `out`: SQ8's first-hop scan of a whole list. Four rows per
/// pass — the query is widened once per 16 codes for all four, and their
/// sums meet in one reduction — with [`u8_rows_scalar`] as the path
/// without AVX2. Each result equals the one-row kernel's exactly, for
/// widths up to [`U8_MAX_WIDTH`].
///
/// # Panics
/// When `rows.len() != q.len() * out.len()`.
pub fn u8_rows(metric: Metric, q: &[u8], rows: &[u8], out: &mut [u32]) {
    check_u8_rows(q, rows, out);
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above; shape checked.
            return unsafe {
                match metric {
                    Metric::L2 => avx2::u8_rows::<true>(q, rows, out),
                    Metric::InnerProduct | Metric::Cosine => avx2::u8_rows::<false>(q, rows, out),
                }
            };
        }
    }
    u8_rows_scalar(metric, q, rows, out)
}

/// [`u8_rows`] over the picked rows `at` of `rows` only — SQ8's carried
/// hops, which score the survivors a run still holds — with `out[i]` the
/// integer of row `at[i]`, four picked rows per pass.
///
/// # Panics
/// When `at.len() != out.len()` or a picked row lies outside `rows`.
pub fn u8_rows_at(metric: Metric, q: &[u8], rows: &[u8], at: &[u32], out: &mut [u32]) {
    assert_eq!(at.len(), out.len(), "one output per picked row");
    debug_assert!(
        q.len() <= U8_MAX_WIDTH,
        "u32 accumulator caps widths at 2^16"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above; lengths asserted equal.
            return unsafe {
                match metric {
                    Metric::L2 => avx2::u8_rows_at::<true>(q, rows, at, out),
                    Metric::InnerProduct | Metric::Cosine => {
                        avx2::u8_rows_at::<false>(q, rows, at, out)
                    }
                }
            };
        }
    }
    u8_rows_at_scalar(metric, q, rows, at, out)
}

/// True cosine similarity (handles unnormalized inputs; zero vectors map
/// to similarity 0).
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot = ip(a, b);
    let na = ip(a, a);
    let nb = ip(b, b);
    let denom = (na * nb).sqrt();
    if denom > 0.0 {
        dot / denom
    } else {
        0.0
    }
}

/// Partial lower-is-better score over one dimension block.
///
/// `a_block` and `b_block` are the *pre-sliced* coordinates of the block.
/// For L2 this is the block's squared-distance contribution `d²_k`; for
/// inner-product metrics it is the negated partial dot product `-α_k`.
/// Summing the partials over all blocks of a partition reconstructs the
/// full score exactly (up to f32 reassociation) — the identity Harmony's
/// pipeline relies on.
#[inline]
pub fn partial_score(metric: Metric, a_block: &[f32], b_block: &[f32]) -> f32 {
    match metric {
        Metric::L2 => l2_sq(a_block, b_block),
        // Cosine assumes ingestion-time normalization; the partial is the
        // negated partial dot product in both similarity cases.
        Metric::InnerProduct | Metric::Cosine => -ip(a_block, b_block),
    }
}

// ---------------------------------------------------------------------------
// L2 prefix kernel: the first pass of an L2 run's early stop inside a hop.
// ---------------------------------------------------------------------------

/// Checks the shape of a prefix keep call: an 8-float prefix `q`, and
/// `rows` holding `keep.len()` rows `stride` floats apart, each at least
/// as wide as the prefix.
#[inline]
fn check_prefix_keep(q: &[f32], rows: &[f32], stride: usize, keep: &[u32]) {
    assert_eq!(q.len(), 8, "the prefix is 8 floats");
    assert!(stride >= 8, "row stride narrower than the prefix");
    assert_eq!(
        rows.len(),
        stride * keep.len(),
        "rows must be keep.len() rows of stride"
    );
}

/// [`l2_sq_prefix_keep`], scalar: one [`l2_sq_scalar`] per row prefix.
pub fn l2_sq_prefix_keep_scalar(
    q: &[f32],
    rows: &[f32],
    stride: usize,
    bound: f32,
    keep: &mut [u32],
) -> usize {
    check_prefix_keep(q, rows, stride, keep);
    let mut kept = 0;
    for i in 0..keep.len() {
        let d = l2_sq_scalar(q, &rows[i * stride..i * stride + 8]);
        keep[kept] = i as u32;
        kept += usize::from(d.partial_cmp(&bound) != Some(std::cmp::Ordering::Greater));
    }
    kept
}

#[cfg(target_arch = "x86_64")]
mod avx2_prefix {
    use std::arch::x86_64::*;

    /// [`super::l2_sq_prefix_keep`]: the prefixes of eight rows at a time,
    /// a short last group repeating its final row in the lanes past its
    /// own. Each row's one 8-lane step is [`super::l2_sq`]'s first, and
    /// the eight are reduced in `avx2::horizontal_sum`'s lane order
    /// ([`horizontal_sums8`]), so each sum is bit for bit [`super::l2_sq`]
    /// of the two prefixes. The sums are compared with `bound` at once
    /// (`_CMP_NGT_UQ`, true where a sum is not above it or is NaN) and the
    /// kept rows' indices written in order.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2` and `fma`, that `q` and
    /// `stride` are 8 and at least 8 wide and that `rows` holds `keep.len()` rows `stride`
    /// floats apart.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn l2_prefix_keep(
        q: &[f32],
        rows: &[f32],
        stride: usize,
        bound: f32,
        keep: &mut [u32],
    ) -> usize {
        debug_assert!(q.len() == 8 && stride >= 8 && rows.len() == stride * keep.len());
        let (base, n) = (rows.as_ptr(), keep.len());
        // SAFETY: the query holds 8 floats.
        let qv = unsafe { _mm256_loadu_ps(q.as_ptr()) };
        let bound = _mm256_set1_ps(bound);
        let zero = _mm256_setzero_ps();
        let mut kept = 0;
        for c in (0..n).step_by(8) {
            let last = (n - c).min(8) - 1;
            let mut acc = [zero; 8];
            for (k, a) in acc.iter_mut().enumerate() {
                // SAFETY: row c + min(k, last) < n starts at its index
                // times stride, and its first 8 <= stride floats end inside
                // `rows`, which holds n rows of stride.
                let r = unsafe { _mm256_loadu_ps(base.add((c + k.min(last)) * stride)) };
                let d = _mm256_sub_ps(qv, r);
                *a = _mm256_fmadd_ps(d, d, zero);
            }
            // SAFETY: callee requires the same target features as self.
            let sums = unsafe { horizontal_sums8(acc) };
            let not_above = _mm256_cmp_ps(sums, bound, _CMP_NGT_UQ);
            let mut mask = (_mm256_movemask_ps(not_above) as u32) & ((2 << last) - 1);
            while mask != 0 {
                keep[kept] = (c + mask.trailing_zeros() as usize) as u32;
                kept += 1;
                mask &= mask - 1;
            }
        }
        kept
    }

    /// Eight 8-lane sums, each reduced exactly as `avx2::horizontal_sum`
    /// reduces one, lane `i` holding `v[i]`'s: the two 128-bit halves lane
    /// by lane (vectors `i` and `i + 4` share one 256-bit add), then
    /// `(t0+t1)+(t2+t3)`, which two rounds of 256-bit `hadd` form for all
    /// eight at once.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn horizontal_sums8(v: [__m256; 8]) -> __m256 {
        // [lo(a) + hi(a) | lo(b) + hi(b)]
        let halves = |a: __m256, b: __m256| {
            _mm256_add_ps(
                _mm256_permute2f128_ps(a, b, 0x20),
                _mm256_permute2f128_ps(a, b, 0x31),
            )
        };
        let h = [
            halves(v[0], v[4]),
            halves(v[1], v[5]),
            halves(v[2], v[6]),
            halves(v[3], v[7]),
        ];
        // Within each 128-bit lane: [t0+t1, t2+t3] of two vectors, then the
        // four vectors' sums; the upper lane does the same for v[4..8].
        _mm256_hadd_ps(_mm256_hadd_ps(h[0], h[1]), _mm256_hadd_ps(h[2], h[3]))
    }
}

/// The prefix pass of an L2 run, which drops a candidate on its first 8
/// coordinates before its whole row is scored: the squared L2 distance of
/// the query prefix `q` to the first 8 floats of each of the `keep.len()`
/// rows of `rows`, whose rows start `stride` floats apart, and the index
/// of every row whose distance is not above `bound` (`!(d > bound)`, so a
/// NaN distance is kept) written to the front of `keep`, ascending, and
/// their count returned. Each distance is bit for bit [`l2_sq`] of the two
/// prefixes, so it is at most [`f32_tile`]'s L2 sum over the whole row:
/// every lane and every add of the reduction only sees non-negative terms
/// added. Eight rows per pass, reduced and compared together.
/// [`l2_sq_prefix_keep_scalar`] is the path without AVX2, bit for bit
/// [`l2_sq_scalar`] of the prefixes.
///
/// # Panics
/// When `q` is not 8 floats, `stride < 8` or
/// `rows.len() != stride * keep.len()`.
pub fn l2_sq_prefix_keep(
    q: &[f32],
    rows: &[f32],
    stride: usize,
    bound: f32,
    keep: &mut [u32],
) -> usize {
    check_prefix_keep(q, rows, stride, keep);
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above; shape checked.
            return unsafe { avx2_prefix::l2_prefix_keep(q, rows, stride, bound, keep) };
        }
    }
    l2_sq_prefix_keep_scalar(q, rows, stride, bound, keep)
}

// ---------------------------------------------------------------------------
// SQ8 quantization: a slice's range, its codes and its rows' code sums.
// ---------------------------------------------------------------------------

/// The SQ8 code of `v` under the affine code `(min, scale)`, `scale > 0`:
/// `round((v − min) / scale)` clamped to `[0, 255]`, NaN → 0. `f64::round`
/// is a library call on the x86-64 baseline target; this is the same
/// rounding, half away from zero, inline: below 255, `t = x as u32` is
/// `⌊x⌋` for `x ≥ 0` (and 0 for negative or NaN `x`, which clamp to 0
/// anyway), `x − t` is exact, and `t + (x − t ≥ ½)` is `round(x)`.
#[inline]
pub(crate) fn sq8_code(v: f32, min: f32, scale: f32) -> u8 {
    let x = (v as f64 - min as f64) / scale as f64;
    let t = x as u32;
    if t >= 255 {
        255
    } else {
        (t + u32::from(x - t as f64 >= 0.5)) as u8
    }
}

/// Half-width of the band around a half-integer inside which [`sq8_codes`]
/// takes a code from [`sq8_code`]'s divide. Below 256 the quotient
/// `(v − min) · (1/scale)` is within 1e-13 of `(v − min) / scale` (three
/// f64 roundings apart), so outside the band both round to the same code.
const SQ8_NEAR_HALF: f64 = 1e-9;

/// `(min, max)` of `flat` as the serial `f32::min` / `f32::max` fold from
/// `(∞, −∞)` computes them: NaN entries are skipped, and of two equal
/// values the earlier is kept, which decides the sign of a zero (and so
/// the bits of `min` on the wire). [`sq8_range_scalar`] is that fold; the
/// AVX2 path folds eight lanes at a time and takes a zero's sign from the
/// slice's first zero.
pub(crate) fn sq8_range(flat: &[f32]) -> (f32, f32) {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above.
            return unsafe { avx2_sq8::range(flat) };
        }
    }
    sq8_range_scalar(flat)
}

/// [`sq8_range`], scalar: the serial fold.
pub(crate) fn sq8_range_scalar(flat: &[f32]) -> (f32, f32) {
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in flat {
        min = min.min(v);
        max = max.max(v);
    }
    (min, max)
}

/// Checks the shape of a [`sq8_codes`] call: one code per coordinate, and
/// `flat` holding `sums.len()` rows of `width`.
#[inline]
fn check_sq8_codes(flat: &[f32], width: usize, codes: &[u8], sums: &[u32]) {
    assert_eq!(codes.len(), flat.len(), "one code per coordinate");
    assert_eq!(
        flat.len(),
        width * sums.len(),
        "the slice must be sums.len() rows of width"
    );
}

/// The SQ8 codes of the row-major slice `flat` (`width` coordinates per
/// row) under `(min, scale)` into `codes`, and each row's code sum into
/// `sums`, in one pass: every code is [`sq8_code`]'s, and every code 0
/// when `scale` is not positive. The AVX2 path multiplies by `1/scale`
/// instead of dividing and takes any code whose quotient lies within
/// [`SQ8_NEAR_HALF`] of a half-integer from [`sq8_code`], so codes and
/// sums are bit for bit [`sq8_codes_scalar`]'s.
///
/// # Panics
/// When `codes.len() != flat.len()` or `flat.len() != width * sums.len()`.
pub(crate) fn sq8_codes(
    flat: &[f32],
    width: usize,
    min: f32,
    scale: f32,
    codes: &mut [u8],
    sums: &mut [u32],
) {
    check_sq8_codes(flat, width, codes, sums);
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() && scale > 0.0 && scale.is_finite() {
            // SAFETY: availability checked above; shape checked; scale
            // positive and finite.
            return unsafe { avx2_sq8::codes(flat, width, min, scale, codes, sums) };
        }
    }
    sq8_codes_scalar(flat, width, min, scale, codes, sums)
}

/// [`sq8_codes`], scalar: one divide per coordinate, then the row sums.
pub(crate) fn sq8_codes_scalar(
    flat: &[f32],
    width: usize,
    min: f32,
    scale: f32,
    codes: &mut [u8],
    sums: &mut [u32],
) {
    check_sq8_codes(flat, width, codes, sums);
    for (c, &v) in codes.iter_mut().zip(flat) {
        *c = if scale > 0.0 {
            sq8_code(v, min, scale)
        } else {
            0
        };
    }
    for (r, s) in sums.iter_mut().enumerate() {
        *s = codes[r * width..(r + 1) * width]
            .iter()
            .map(|&c| c as u32)
            .sum();
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2_sq8 {
    use std::arch::x86_64::*;

    use super::{sq8_code, sq8_range_scalar, SQ8_NEAR_HALF};

    /// [`super::sq8_range`] over four 8-lane accumulator pairs. `minps(v,
    /// acc)` is `acc` when `v` is NaN or equal to it, so each lane skips
    /// NaN and keeps its earlier value, as the fold does; the lanes meet in
    /// the fold over the tail. Lanes keep their own earlier value, not the
    /// slice's, which only a zero's sign can tell apart: a zero result
    /// takes the sign of the slice's first zero, the one the fold keeps.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn range(flat: &[f32]) -> (f32, f32) {
        let (p, n) = (flat.as_ptr(), flat.len());
        let mut lo = [_mm256_set1_ps(f32::INFINITY); 4];
        let mut hi = [_mm256_set1_ps(f32::NEG_INFINITY); 4];
        let mut i = 0;
        while i + 32 <= n {
            for k in 0..4 {
                // SAFETY: i + 8k + 8 <= i + 32 <= n floats.
                let v = unsafe { _mm256_loadu_ps(p.add(i + 8 * k)) };
                lo[k] = _mm256_min_ps(v, lo[k]);
                hi[k] = _mm256_max_ps(v, hi[k]);
            }
            i += 32;
        }
        while i + 8 <= n {
            // SAFETY: i + 8 <= n floats.
            let v = unsafe { _mm256_loadu_ps(p.add(i)) };
            lo[0] = _mm256_min_ps(v, lo[0]);
            hi[0] = _mm256_max_ps(v, hi[0]);
            i += 8;
        }
        let lo = _mm256_min_ps(_mm256_min_ps(lo[0], lo[1]), _mm256_min_ps(lo[2], lo[3]));
        let hi = _mm256_max_ps(_mm256_max_ps(hi[0], hi[1]), _mm256_max_ps(hi[2], hi[3]));
        let (mut lanes_lo, mut lanes_hi) = ([0f32; 8], [0f32; 8]);
        // SAFETY: both are 8-float local arrays, valid for a 256-bit store.
        unsafe {
            _mm256_storeu_ps(lanes_lo.as_mut_ptr(), lo);
            _mm256_storeu_ps(lanes_hi.as_mut_ptr(), hi);
        }
        let (mut min, mut max) = sq8_range_scalar(&flat[i..]);
        for (&l, &h) in lanes_lo.iter().zip(&lanes_hi) {
            min = min.min(l);
            max = max.max(h);
        }
        let first_zero = |z: f32| flat.iter().copied().find(|&v| v == 0.0).unwrap_or(z);
        if min == 0.0 {
            min = first_zero(min);
        }
        if max == 0.0 {
            max = first_zero(max);
        }
        (min, max)
    }

    /// [`super::sq8_codes`], eight coordinates per step, row by row. Each
    /// half of a step widens four coordinates to f64, multiplies their
    /// offsets from `min` by `1/scale`, caps them at 255 and rounds to
    /// the nearest integer, ties to even. Rounding half away from zero
    /// only differs at a tie, and a tie lies in the band: a quotient
    /// within [`SQ8_NEAR_HALF`] of a half-integer (`|y − round(y)| ≥ ½ −
    /// band`) takes its code from [`sq8_code`] instead, and the row's sum
    /// is corrected. Packing with unsigned saturation clamps below at 0:
    /// a negative quotient packs to 0, and so does NaN, which `minpd`
    /// passes through (it returns its second operand when one is NaN)
    /// and which converts to `i32::MIN`. The row's code sum gathers from
    /// the packed bytes (`psadbw`). A row's last `width % 8` coordinates
    /// take [`sq8_code`].
    ///
    /// # Safety
    /// Caller must ensure the CPU supports `avx2`, that `scale` is
    /// positive and finite, and that `flat` and `codes` hold `sums.len()`
    /// rows of `width`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn codes(
        flat: &[f32],
        width: usize,
        min: f32,
        scale: f32,
        codes: &mut [u8],
        sums: &mut [u32],
    ) {
        let min_v = _mm256_set1_pd(min as f64);
        let inv = _mm256_set1_pd(1.0 / scale as f64);
        let top = _mm256_set1_pd(255.0);
        let edge = _mm256_set1_pd(0.5 - SQ8_NEAR_HALF);
        let magnitude = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));
        let zero = _mm_setzero_si128();
        // Four codes as i32 lanes, and a bit per code near a half-integer.
        let four = |v: __m128| -> (__m128i, i32) {
            let x = _mm256_mul_pd(_mm256_sub_pd(_mm256_cvtps_pd(v), min_v), inv);
            let y = _mm256_min_pd(top, x);
            let c = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(y);
            let off = _mm256_and_pd(_mm256_sub_pd(y, c), magnitude);
            let near = _mm256_cmp_pd(off, edge, _CMP_GE_OQ);
            (_mm256_cvtpd_epi32(c), _mm256_movemask_pd(near))
        };
        for (r, sum) in sums.iter_mut().enumerate() {
            let row = &flat[r * width..(r + 1) * width];
            let out = &mut codes[r * width..(r + 1) * width];
            let mut acc = zero;
            let mut fix = 0u32;
            let mut j = 0;
            while j + 8 <= width {
                // SAFETY: j + 8 <= width = row.len().
                let v = unsafe { _mm256_loadu_ps(row.as_ptr().add(j)) };
                let (lo, near_lo) = four(_mm256_castps256_ps128(v));
                let (hi, near_hi) = four(_mm256_extractf128_ps(v, 1));
                let bytes = _mm_packus_epi16(_mm_packus_epi32(lo, hi), zero);
                acc = _mm_add_epi64(acc, _mm_sad_epu8(bytes, zero));
                // SAFETY: j + 8 <= width = out.len(): an 8-byte store.
                unsafe { _mm_storel_epi64(out.as_mut_ptr().add(j) as *mut __m128i, bytes) };
                let mut near = near_lo | near_hi << 4;
                while near != 0 {
                    let at = j + near.trailing_zeros() as usize;
                    let exact = sq8_code(row[at], min, scale);
                    fix = fix.wrapping_add(exact as u32).wrapping_sub(out[at] as u32);
                    out[at] = exact;
                    near &= near - 1;
                }
                j += 8;
            }
            let mut total = (_mm_cvtsi128_si64(acc) as u32).wrapping_add(fix);
            for (c, &v) in out[j..].iter_mut().zip(&row[j..]) {
                *c = sq8_code(v, min, scale);
                total += *c as u32;
            }
            *sum = total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f32 = 1e-3;

    #[test]
    fn l2_matches_naive() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0, 4.0, 3.0, 2.0, 1.0];
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((l2_sq(&a, &b) - naive).abs() < EPS);
        assert!((l2_sq_scalar(&a, &b) - naive).abs() < EPS);
    }

    #[test]
    fn ip_matches_naive() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let b = [9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((ip(&a, &b) - naive).abs() < EPS);
        assert!((ip_scalar(&a, &b) - naive).abs() < EPS);
    }

    #[test]
    fn empty_slices_score_zero() {
        assert_eq!(l2_sq(&[], &[]), 0.0);
        assert_eq!(ip(&[], &[]), 0.0);
    }

    #[test]
    fn cosine_of_parallel_vectors_is_one() {
        let a = [1.0, 2.0, 2.0];
        let b = [2.0, 4.0, 4.0];
        assert!((cosine(&a, &b) - 1.0).abs() < EPS);
        assert!((cosine(&a, &[0.0, 0.0, 0.0])).abs() < EPS);
    }

    #[test]
    fn metric_score_orients_lower_is_better() {
        let q = [1.0, 0.0];
        let near = [1.0, 0.1];
        let far = [-1.0, 0.0];
        for m in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            assert!(
                m.score(&q, &near) < m.score(&q, &far),
                "{:?} should rank near before far",
                m
            );
        }
    }

    #[test]
    fn only_l2_has_monotone_partials() {
        assert!(Metric::L2.monotone_partials());
        assert!(!Metric::InnerProduct.monotone_partials());
        assert!(!Metric::Cosine.monotone_partials());
    }

    #[test]
    fn dim_range_split_covers_exactly() {
        let ranges = DimRange::split(10, 3);
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges[0], DimRange::new(0, 4));
        assert_eq!(ranges[1], DimRange::new(4, 7));
        assert_eq!(ranges[2], DimRange::new(7, 10));
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn dim_range_split_rejects_zero_blocks() {
        DimRange::split(10, 0);
    }

    #[test]
    fn dim_range_full_covers_all() {
        let r = DimRange::full(7);
        assert_eq!(r.len(), 7);
        assert!(!r.is_empty());
        assert!(DimRange::new(3, 3).is_empty());
    }

    #[test]
    fn partial_scores_sum_to_full_score() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32 * 0.11).cos()).collect();
        for metric in [Metric::L2, Metric::InnerProduct] {
            for blocks in [1, 2, 3, 5] {
                let total: f32 = DimRange::split(37, blocks)
                    .iter()
                    .map(|r| partial_score(metric, &a[r.start..r.end], &b[r.start..r.end]))
                    .sum();
                let full = match metric {
                    Metric::L2 => l2_sq(&a, &b),
                    _ => -ip(&a, &b),
                };
                assert!(
                    (total - full).abs() < 1e-3,
                    "{metric:?} blocks={blocks}: {total} vs {full}"
                );
            }
        }
    }

    #[test]
    fn u8_kernels_match_naive() {
        let a: Vec<u8> = (0..37).map(|i| (i * 7 % 256) as u8).collect();
        let b: Vec<u8> = (0..37).map(|i| (i * 13 % 256) as u8).collect();
        let naive_ip: u32 = a.iter().zip(&b).map(|(&x, &y)| x as u32 * y as u32).sum();
        let naive_l2: u32 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| {
                let d = x as i32 - y as i32;
                (d * d) as u32
            })
            .sum();
        assert_eq!(ip_u8(&a, &b), naive_ip);
        assert_eq!(ip_u8_scalar(&a, &b), naive_ip);
        assert_eq!(l2_sq_u8(&a, &b), naive_l2);
        assert_eq!(l2_sq_u8_scalar(&a, &b), naive_l2);
        assert_eq!(ip_u8(&[], &[]), 0);
        assert_eq!(l2_sq_u8(&[], &[]), 0);
    }

    #[test]
    fn u8_kernels_handle_extremes_without_overflow() {
        // All-255 vs all-0 at a realistic width exercises the maximum
        // per-term magnitude on both kernels.
        let a = vec![255u8; 4096];
        let b = vec![0u8; 4096];
        assert_eq!(l2_sq_u8(&a, &b), 255 * 255 * 4096);
        assert_eq!(ip_u8(&a, &a), 255 * 255 * 4096);
        assert_eq!(ip_u8(&a, &b), 0);
        // The blocked kernels at the same extremes, and at the widest
        // slice they accept, where a row's sum passes 2³¹.
        for w in [4096, U8_MAX_WIDTH] {
            let max = 255 * 255 * w as u32;
            let q = vec![255u8; w];
            let zeros = vec![0u8; 5 * w];
            let full = vec![255u8; 5 * w];
            let mut out = [7u32; 5];
            u8_rows(Metric::L2, &q, &zeros, &mut out);
            assert_eq!(out, [max; 5], "l2 rows w={w}");
            u8_rows(Metric::InnerProduct, &q, &full, &mut out);
            assert_eq!(out, [max; 5], "ip rows w={w}");
            u8_rows(Metric::InnerProduct, &q, &zeros, &mut out);
            assert_eq!(out, [0; 5], "ip rows w={w}");
            u8_rows_at(Metric::L2, &q, &zeros, &[4, 0, 2], &mut out[..3]);
            assert_eq!(out[..3], [max; 3], "l2 picked w={w}");
            u8_rows_scalar(Metric::L2, &q, &zeros, &mut out);
            assert_eq!(out, [max; 5], "l2 rows scalar w={w}");
        }
    }

    /// The u8 kernels of every metric, on both dispatch paths, against
    /// the one-row kernels bit for bit: the dispatching rows and picked
    /// rows against [`l2_sq_u8`] / [`ip_u8`] (AVX2 where the host has it),
    /// the scalar twins against [`l2_sq_u8_scalar`] / [`ip_u8_scalar`], and
    /// those one-row kernels against each other. Widths on both sides of
    /// every lane boundary (16-code steps, the
    /// 8-code tail, the scalar tail) and row counts on both sides of every
    /// quad boundary.
    #[test]
    fn blocked_u8_kernels_match_the_one_row_kernels() {
        use rand::prelude::*;
        type One = fn(&[u8], &[u8]) -> u32;
        type Rows = fn(Metric, &[u8], &[u8], &mut [u32]);
        type At = fn(Metric, &[u8], &[u8], &[u32], &mut [u32]);
        let paths: [(One, One, Rows, At); 2] = [
            (l2_sq_u8, ip_u8, u8_rows, u8_rows_at),
            (
                l2_sq_u8_scalar,
                ip_u8_scalar,
                u8_rows_scalar,
                u8_rows_at_scalar,
            ),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let mut codes =
            |n: usize| -> Vec<u8> { (0..n).map(|_| rng.random_range(0u16..256) as u8).collect() };
        for w in [1usize, 15, 16, 17, 24, 31, 32, 48, 64, 96, 130] {
            for n in (0..=9).chain([17]) {
                let q = codes(w);
                let rows = codes(n * w);
                // Picks in any order, repeats included: the last byte of
                // each draw, modulo the row count.
                let at: Vec<u32> = codes(n + 2)
                    .iter()
                    .filter(|_| n > 0)
                    .map(|&b| u32::from(b) % n as u32)
                    .collect();
                let row = |i: usize| &rows[i * w..(i + 1) * w];
                for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                    let mut wants = Vec::new();
                    for (l2, dot, blocked, picked) in paths {
                        let one = if metric == Metric::L2 { l2 } else { dot };
                        let want: Vec<u32> = (0..n).map(|i| one(&q, row(i))).collect();
                        let mut got = vec![u32::MAX; n];
                        blocked(metric, &q, &rows, &mut got);
                        assert_eq!(got, want, "{metric:?} rows w={w} n={n}");
                        let want_at: Vec<u32> = at.iter().map(|&r| want[r as usize]).collect();
                        let mut got = vec![u32::MAX; at.len()];
                        picked(metric, &q, &rows, &at, &mut got);
                        assert_eq!(got, want_at, "{metric:?} picked w={w} n={n}");
                        wants.push(want);
                    }
                    // The dispatching one-row kernel against its twin.
                    assert_eq!(wants[0], wants[1], "{metric:?} one-row w={w} n={n}");
                }
            }
        }
    }

    /// The blocked f32 kernels of every metric — tile (one query to five)
    /// and picked rows — against the one-row kernels, bit for bit, on both
    /// dispatch paths: the dispatching forms against [`l2_sq`] / `-`[`ip`]
    /// (AVX2 where the host has it) and the scalar twins against
    /// [`l2_sq_scalar`] / `-`[`ip_scalar`]. Every width from 1 to 130 (both
    /// sides of each 8-lane step and the scalar tail), 0–9 rows (both sides
    /// of each quad) and 1–5 queries (pairs and an odd one out).
    #[test]
    fn blocked_f32_kernels_match_the_one_row_kernels() {
        use rand::prelude::*;
        type One = fn(&[f32], &[f32]) -> f32;
        type At = fn(Metric, &[f32], &[f32], &[u32], &mut [f32]);
        type Tile = fn(Metric, &[&[f32]], &[f32], &mut [f32]);
        let paths: [(One, One, At, Tile); 2] = [
            (l2_sq, ip, f32_rows_at, f32_tile),
            (l2_sq_scalar, ip_scalar, f32_rows_at_scalar, f32_tile_scalar),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for w in 1usize..=130 {
            for n in 0..=9usize {
                let mut floats = |k: usize| -> Vec<f32> {
                    (0..k).map(|_| rng.random_range(-2.0..2.0)).collect()
                };
                let rows = floats(n * w);
                let qs: Vec<Vec<f32>> = (0..5).map(|_| floats(w)).collect();
                // Picks in any order, repeats included.
                let at: Vec<u32> = (0..n + 2)
                    .filter(|_| n > 0)
                    .map(|_| rng.random_range(0..n as u32))
                    .collect();
                let row = |i: usize| &rows[i * w..(i + 1) * w];
                for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                    for (l2, dot, picked, tile) in paths {
                        let one = |q: &[f32], r: &[f32]| match metric {
                            Metric::L2 => l2(q, r),
                            Metric::InnerProduct | Metric::Cosine => -dot(q, r),
                        };
                        let want: Vec<Vec<f32>> = qs
                            .iter()
                            .map(|q| (0..n).map(|i| one(q, row(i))).collect())
                            .collect();
                        let want_at: Vec<f32> = at.iter().map(|&r| want[0][r as usize]).collect();
                        let mut got = vec![f32::NAN; at.len()];
                        picked(metric, &qs[0], &rows, &at, &mut got);
                        assert_eq!(bits(&got), bits(&want_at), "{metric:?} picked w={w} n={n}");
                        for m in 1..=5 {
                            let group: Vec<&[f32]> = qs[..m].iter().map(Vec::as_slice).collect();
                            let mut got = vec![f32::NAN; m * n];
                            tile(metric, &group, &rows, &mut got);
                            assert_eq!(
                                bits(&got),
                                bits(&want[..m].concat()),
                                "{metric:?} tile w={w} n={n} m={m}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The prefix kernel on both dispatch paths — the dispatching form
    /// against [`l2_sq`] and [`f32_tile`] (AVX2 where the host has it),
    /// the scalar twin against [`l2_sq_scalar`] and [`f32_tile_scalar`]:
    /// the rows it keeps at a bound equal to a row's prefix distance and at
    /// the float just below it pin each distance bit for bit to the one-row
    /// kernel of the two 8-float prefixes, which is never above the row
    /// kernel's sum over the whole row. Rows 8–200 wide, stored at their
    /// width and at strides above it, 0–17 rows (both sides of each group
    /// of eight), with coordinates drawn from ordinary values, subnormals,
    /// ±1e30 (whose squares overflow to +∞) and the query's own.
    #[test]
    fn prefix_kernel_matches_the_prefix_and_bounds_the_row() {
        use rand::prelude::*;
        type One = fn(&[f32], &[f32]) -> f32;
        type Tile = fn(Metric, &[&[f32]], &[f32], &mut [f32]);
        type Keep = fn(&[f32], &[f32], usize, f32, &mut [u32]) -> usize;
        let paths: [(One, Tile, Keep); 2] = [
            (l2_sq, f32_tile, l2_sq_prefix_keep),
            (l2_sq_scalar, f32_tile_scalar, l2_sq_prefix_keep_scalar),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        let subnormal = f32::MIN_POSITIVE / 3.0;
        for w in 8usize..=200 {
            let n = [0usize, 1, 7, 8, 9, 17][w % 6];
            let q: Vec<f32> = (0..w)
                .map(|_| match rng.random_range(0..6) {
                    0 => subnormal,
                    1 => 1e30,
                    _ => rng.random_range(-2.0..2.0),
                })
                .collect();
            // Row i is the query itself when i % 4 == 0, the query past
            // the prefix when i % 4 == 1, and drawn otherwise.
            let rows: Vec<Vec<f32>> = (0..n)
                .map(|i| {
                    (0..w)
                        .map(|j| match (i % 4, rng.random_range(0..8)) {
                            (0, _) => q[j],
                            (1, _) if j >= 8 => q[j],
                            (_, 0) => -subnormal,
                            (_, 1) => -1e30,
                            (_, 2) => 1e30,
                            (_, 3) => q[j],
                            _ => rng.random_range(-2.0..2.0),
                        })
                        .collect()
                })
                .collect();
            let dense = rows.concat();
            for stride in [w, w + 1, w + 9] {
                let flat: Vec<f32> = rows
                    .iter()
                    .flat_map(|r| {
                        r.iter()
                            .copied()
                            .chain(std::iter::repeat_n(7.5, stride - w))
                    })
                    .collect();
                for (one, tile, keep) in paths {
                    let want: Vec<f32> = rows.iter().map(|r| one(&q[..8], &r[..8])).collect();
                    let mut full = vec![f32::NAN; n];
                    tile(Metric::L2, &[&q], &dense, &mut full);
                    for (i, (pre, full)) in want.iter().zip(&full).enumerate() {
                        assert!(pre <= full, "w={w} row {i}: {pre} > {full}");
                    }
                    // Kept at a bound equal to a row's distance, dropped at
                    // the float below it: the kernel's distance is exactly
                    // `want`'s. Then bounds between and beyond them, and
                    // NaN (all kept).
                    let below = want.iter().map(|&d| d.next_down());
                    let bounds = want.iter().copied().chain(below).chain([
                        -1.0,
                        0.5,
                        f32::INFINITY,
                        f32::NAN,
                    ]);
                    for bound in bounds {
                        let kept: Vec<u32> = (0..n as u32)
                            .filter(|&i| {
                                want[i as usize].partial_cmp(&bound)
                                    != Some(std::cmp::Ordering::Greater)
                            })
                            .collect();
                        let mut got = vec![u32::MAX; n];
                        let count = keep(&q[..8], &flat, stride, bound, &mut got);
                        assert_eq!(got[..count], kept[..], "w={w} stride={stride} {bound}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "the prefix is 8 floats")]
    fn prefix_of_another_width_panics() {
        l2_sq_prefix_keep(&[1.0; 9], &[0.0; 32], 16, 1.0, &mut [0; 2]);
    }

    #[test]
    #[should_panic(expected = "row stride narrower than the prefix")]
    fn prefix_stride_narrower_than_the_prefix_panics() {
        l2_sq_prefix_keep(&[1.0; 8], &[0.0; 14], 7, 1.0, &mut [0; 2]);
    }

    #[test]
    #[should_panic(expected = "rows must be keep.len() rows of stride")]
    fn prefix_keep_rows_of_the_wrong_shape_panic() {
        l2_sq_prefix_keep(&[1.0; 8], &[0.0; 60], 16, 1.0, &mut [0; 4]);
    }

    #[test]
    #[should_panic(expected = "rows must be keep.len() rows of stride")]
    fn prefix_scalar_keep_rows_of_the_wrong_shape_panic() {
        l2_sq_prefix_keep_scalar(&[1.0; 8], &[0.0; 60], 16, 1.0, &mut [0; 4]);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn l2_of_unequal_slices_panics_in_every_build() {
        let big = [0.0f32; 64];
        l2_sq(&[1.0; 64], &big[..8]);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn ip_of_unequal_slices_panics_in_every_build() {
        let big = [0.0f32; 64];
        ip(&big[..8], &[1.0; 64]);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn u8_of_unequal_slices_panics_in_every_build() {
        let big = [1u8; 64];
        l2_sq_u8(&[3; 64], &big[..1]);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn ip_u8_of_unequal_slices_panics_in_every_build() {
        let big = [1u8; 64];
        ip_u8(&big[..16], &[3; 64]);
    }

    #[test]
    #[should_panic(expected = "rows must be out.len() rows")]
    fn u8_rows_of_the_wrong_shape_panic() {
        u8_rows(Metric::L2, &[1; 8], &[0; 20], &mut [0; 3]);
    }

    #[test]
    #[should_panic]
    fn u8_picked_row_outside_the_rows_panics() {
        u8_rows_at(
            Metric::InnerProduct,
            &[1; 8],
            &[0; 24],
            &[1, 3],
            &mut [0; 2],
        );
    }

    #[test]
    #[should_panic]
    fn f32_picked_row_outside_the_rows_panics() {
        f32_rows_at(
            Metric::InnerProduct,
            &[1.0; 8],
            &[0.0; 24],
            &[1, 3],
            &mut [0.0; 2],
        );
    }

    #[test]
    #[should_panic(expected = "queries must share one width")]
    fn tile_queries_of_different_widths_panic() {
        let (a, b) = ([1.0f32; 16], [1.0f32; 8]);
        f32_tile(Metric::L2, &[&a, &b], &[0.0; 32], &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "rows must be n rows")]
    fn tile_rows_of_the_wrong_width_panic() {
        let q = [1.0f32; 16];
        f32_tile(Metric::InnerProduct, &[&q, &q], &[0.0; 24], &mut [0.0; 4]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_u8_matches_scalar_exactly_when_available() {
        if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
            return;
        }
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for len in [1usize, 15, 16, 17, 31, 64, 100, 1024] {
            let a: Vec<u8> = (0..len)
                .map(|_| rng.random_range(0u16..256) as u8)
                .collect();
            let b: Vec<u8> = (0..len)
                .map(|_| rng.random_range(0u16..256) as u8)
                .collect();
            // SAFETY: feature checked above. Integer kernels must agree
            // bit-for-bit, not just within tolerance.
            let (av_l2, av_ip) = unsafe { (avx2::l2_sq_u8(&a, &b), avx2::ip_u8(&a, &b)) };
            assert_eq!(av_l2, l2_sq_u8_scalar(&a, &b), "l2_u8 len={len}");
            assert_eq!(av_ip, ip_u8_scalar(&a, &b), "ip_u8 len={len}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_matches_scalar_when_available() {
        if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
            return;
        }
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for len in [1usize, 7, 8, 15, 64, 100, 1024] {
            let a: Vec<f32> = (0..len).map(|_| rng.random_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.random_range(-1.0..1.0)).collect();
            // SAFETY: feature checked above.
            let (av_l2, av_ip) = unsafe { (avx2::l2_sq(&a, &b), avx2::ip(&a, &b)) };
            let rel = |x: f32, y: f32| (x - y).abs() / x.abs().max(y.abs()).max(1.0);
            assert!(rel(av_l2, l2_sq_scalar(&a, &b)) < 1e-4, "l2 len={len}");
            assert!(rel(av_ip, ip_scalar(&a, &b)) < 1e-4, "ip len={len}");
        }
    }
}
