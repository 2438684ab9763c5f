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

/// [`l2_sq_u8_rows`], scalar: one [`l2_sq_u8_scalar`] per row.
pub fn l2_sq_u8_rows_scalar(q: &[u8], rows: &[u8], out: &mut [u32]) {
    assert_eq!(
        rows.len(),
        q.len() * out.len(),
        "rows must be out.len() rows of q.len()"
    );
    for (i, o) in out.iter_mut().enumerate() {
        *o = l2_sq_u8_scalar(q, code_row(rows, q.len(), i));
    }
}

/// [`ip_u8_rows`], scalar: one [`ip_u8_scalar`] per row.
pub fn ip_u8_rows_scalar(q: &[u8], rows: &[u8], out: &mut [u32]) {
    assert_eq!(
        rows.len(),
        q.len() * out.len(),
        "rows must be out.len() rows of q.len()"
    );
    for (i, o) in out.iter_mut().enumerate() {
        *o = ip_u8_scalar(q, code_row(rows, q.len(), i));
    }
}

/// [`l2_sq_u8_rows_at`], scalar: one [`l2_sq_u8_scalar`] per picked row.
pub fn l2_sq_u8_rows_at_scalar(q: &[u8], rows: &[u8], at: &[u32], out: &mut [u32]) {
    assert_eq!(at.len(), out.len(), "one output per picked row");
    for (o, &r) in out.iter_mut().zip(at) {
        *o = l2_sq_u8_scalar(q, code_row(rows, q.len(), r as usize));
    }
}

/// [`ip_u8_rows_at`], scalar: one [`ip_u8_scalar`] per picked row.
pub fn ip_u8_rows_at_scalar(q: &[u8], rows: &[u8], at: &[u32], out: &mut [u32]) {
    assert_eq!(at.len(), out.len(), "one output per picked row");
    for (o, &r) in out.iter_mut().zip(at) {
        *o = ip_u8_scalar(q, code_row(rows, q.len(), r as usize));
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
    /// Caller must ensure the CPU supports `avx2` and `fma`.
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
    /// Caller must ensure the CPU supports `avx2` and `fma`.
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
    /// Caller must ensure the CPU supports `avx2`.
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
    /// Caller must ensure the CPU supports `avx2`.
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

    /// [`super::l2_sq_u8_rows`] (`L2`) and [`super::ip_u8_rows`].
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

    /// [`super::l2_sq_u8_rows_at`] (`L2`) and [`super::ip_u8_rows_at`].
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
/// Panics in debug builds when slice lengths differ.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above.
            return unsafe { avx2::l2_sq(a, b) };
        }
    }
    l2_sq_scalar(a, b)
}

/// Dot product between equal-length slices.
#[inline]
pub fn ip(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above.
            return unsafe { avx2::ip(a, b) };
        }
    }
    ip_scalar(a, b)
}

/// Squared L2 distance between equal-length u8 code slices (SQ8 stage-1
/// scans). Dispatches to AVX2 when available, scalar otherwise; both paths
/// are exact integer arithmetic, so they agree bit-for-bit.
#[inline]
pub fn l2_sq_u8(a: &[u8], b: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above.
            return unsafe { avx2::l2_sq_u8(a, b) };
        }
    }
    l2_sq_u8_scalar(a, b)
}

/// Dot product between equal-length u8 code slices (SQ8 stage-1 scans).
#[inline]
pub fn ip_u8(a: &[u8], b: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above.
            return unsafe { avx2::ip_u8(a, b) };
        }
    }
    ip_u8_scalar(a, b)
}

/// Squared L2 distance of the u8 query `q` to each of the `out.len()` rows
/// of the row-major code matrix `rows` (`q.len()` codes wide), into `out`:
/// SQ8's first-hop scan of a whole list. Four rows per pass — the query is
/// widened once per 16 codes for all four, and their sums meet in one
/// reduction — with [`l2_sq_u8_rows_scalar`] as the path without AVX2.
/// Each result equals [`l2_sq_u8`] of its row exactly, for widths up to
/// [`U8_MAX_WIDTH`].
///
/// # Panics
/// When `rows.len() != q.len() * out.len()`.
pub fn l2_sq_u8_rows(q: &[u8], rows: &[u8], out: &mut [u32]) {
    assert_eq!(
        rows.len(),
        q.len() * out.len(),
        "rows must be out.len() rows of q.len()"
    );
    debug_assert!(
        q.len() <= U8_MAX_WIDTH,
        "u32 accumulator caps widths at 2^16"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above.
            return unsafe { avx2::u8_rows::<true>(q, rows, out) };
        }
    }
    l2_sq_u8_rows_scalar(q, rows, out)
}

/// Dot product of the u8 query `q` with each row of `rows`; the blocked
/// twin of [`ip_u8`] as [`l2_sq_u8_rows`] is of [`l2_sq_u8`].
///
/// # Panics
/// When `rows.len() != q.len() * out.len()`.
pub fn ip_u8_rows(q: &[u8], rows: &[u8], out: &mut [u32]) {
    assert_eq!(
        rows.len(),
        q.len() * out.len(),
        "rows must be out.len() rows of q.len()"
    );
    debug_assert!(
        q.len() <= U8_MAX_WIDTH,
        "u32 accumulator caps widths at 2^16"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above.
            return unsafe { avx2::u8_rows::<false>(q, rows, out) };
        }
    }
    ip_u8_rows_scalar(q, rows, out)
}

/// [`l2_sq_u8_rows`] over the picked rows `at` of `rows` only — SQ8's
/// carried hops, which score the survivors a run still holds — with
/// `out[i]` the distance to row `at[i]`, four picked rows per pass.
///
/// # Panics
/// When `at.len() != out.len()` or a picked row lies outside `rows`.
pub fn l2_sq_u8_rows_at(q: &[u8], rows: &[u8], at: &[u32], out: &mut [u32]) {
    assert_eq!(at.len(), out.len(), "one output per picked row");
    debug_assert!(
        q.len() <= U8_MAX_WIDTH,
        "u32 accumulator caps widths at 2^16"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above.
            return unsafe { avx2::u8_rows_at::<true>(q, rows, at, out) };
        }
    }
    l2_sq_u8_rows_at_scalar(q, rows, at, out)
}

/// [`ip_u8_rows`] over the picked rows `at` of `rows` only.
///
/// # Panics
/// When `at.len() != out.len()` or a picked row lies outside `rows`.
pub fn ip_u8_rows_at(q: &[u8], rows: &[u8], at: &[u32], out: &mut [u32]) {
    assert_eq!(at.len(), out.len(), "one output per picked row");
    debug_assert!(
        q.len() <= U8_MAX_WIDTH,
        "u32 accumulator caps widths at 2^16"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: availability checked above.
            return unsafe { avx2::u8_rows_at::<false>(q, rows, at, out) };
        }
    }
    ip_u8_rows_at_scalar(q, rows, at, out)
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

/// Batch of scores from `query` to every row of a row-major matrix.
///
/// `matrix.len()` must be a multiple of `query.len()`.
pub fn scores_into(metric: Metric, query: &[f32], matrix: &[f32], out: &mut Vec<f32>) {
    let dim = query.len();
    debug_assert_eq!(matrix.len() % dim.max(1), 0);
    out.clear();
    out.extend(matrix.chunks_exact(dim).map(|row| metric.score(query, row)));
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
    fn scores_into_computes_batch() {
        let q = [0.0, 0.0];
        let matrix = [1.0, 0.0, 0.0, 2.0, 3.0, 4.0];
        let mut out = Vec::new();
        scores_into(Metric::L2, &q, &matrix, &mut out);
        assert_eq!(out.len(), 3);
        assert!((out[0] - 1.0).abs() < EPS);
        assert!((out[1] - 4.0).abs() < EPS);
        assert!((out[2] - 25.0).abs() < EPS);
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
            l2_sq_u8_rows(&q, &zeros, &mut out);
            assert_eq!(out, [max; 5], "l2 rows w={w}");
            ip_u8_rows(&q, &full, &mut out);
            assert_eq!(out, [max; 5], "ip rows w={w}");
            ip_u8_rows(&q, &zeros, &mut out);
            assert_eq!(out, [0; 5], "ip rows w={w}");
            l2_sq_u8_rows_at(&q, &zeros, &[4, 0, 2], &mut out[..3]);
            assert_eq!(out[..3], [max; 3], "l2 picked w={w}");
            l2_sq_u8_rows_scalar(&q, &zeros, &mut out);
            assert_eq!(out, [max; 5], "l2 rows scalar w={w}");
        }
    }

    /// The blocked kernels and their index forms against their scalar
    /// twins and the one-row kernels, bit for bit: widths on both sides of
    /// every lane boundary (16-code steps, the 8-code tail, the scalar
    /// tail) and row counts on both sides of every quad boundary.
    #[test]
    fn blocked_u8_kernels_match_the_one_row_kernels() {
        use rand::prelude::*;
        type One = fn(&[u8], &[u8]) -> u32;
        type Rows = fn(&[u8], &[u8], &mut [u32]);
        type At = fn(&[u8], &[u8], &[u32], &mut [u32]);
        let kernels: [(One, One, Rows, Rows, At, At); 2] = [
            (
                l2_sq_u8,
                l2_sq_u8_scalar,
                l2_sq_u8_rows,
                l2_sq_u8_rows_scalar,
                l2_sq_u8_rows_at,
                l2_sq_u8_rows_at_scalar,
            ),
            (
                ip_u8,
                ip_u8_scalar,
                ip_u8_rows,
                ip_u8_rows_scalar,
                ip_u8_rows_at,
                ip_u8_rows_at_scalar,
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
                for (one, one_scalar, blocked, blocked_scalar, picked, picked_scalar) in kernels {
                    let row = |i: usize| &rows[i * w..(i + 1) * w];
                    let want: Vec<u32> = (0..n).map(|i| one(&q, row(i))).collect();
                    let scalar: Vec<u32> = (0..n).map(|i| one_scalar(&q, row(i))).collect();
                    assert_eq!(want, scalar, "one-row w={w} n={n}");
                    let mut got = vec![u32::MAX; n];
                    blocked(&q, &rows, &mut got);
                    assert_eq!(got, want, "rows w={w} n={n}");
                    got.fill(u32::MAX);
                    blocked_scalar(&q, &rows, &mut got);
                    assert_eq!(got, want, "rows scalar w={w} n={n}");
                    let want_at: Vec<u32> = at.iter().map(|&r| want[r as usize]).collect();
                    let mut got = vec![u32::MAX; at.len()];
                    picked(&q, &rows, &at, &mut got);
                    assert_eq!(got, want_at, "picked w={w} n={n}");
                    got.fill(u32::MAX);
                    picked_scalar(&q, &rows, &at, &mut got);
                    assert_eq!(got, want_at, "picked scalar w={w} n={n}");
                }
            }
        }
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
