//! Dense vector storage.
//!
//! [`VectorStore`] is the canonical in-memory representation used everywhere
//! in Harmony: a row-major `f32` matrix plus a parallel array of stable
//! [`VectorId`]s. Harmony's dimension-based partitioning cuts stores into
//! *dimension slices* ([`VectorStore::slice_dims`]), and vector-based
//! partitioning cuts them into *row subsets* ([`VectorStore::gather`]); both
//! produce new owned stores so each simulated machine holds exactly the bytes
//! the paper's layout assigns to it (§4.2.2, Fig. 4).

use crate::distance::DimRange;
use crate::error::IndexError;

/// Stable identifier of a base vector. Survives partitioning and shuffling.
pub type VectorId = u64;

/// A dense, row-major matrix of `f32` vectors with stable ids.
///
/// Invariants (checked in debug builds, preserved by every method):
/// * `data.len() == ids.len() * dim`
/// * `dim > 0` once any vector has been pushed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VectorStore {
    dim: usize,
    data: Vec<f32>,
    ids: Vec<VectorId>,
}

impl VectorStore {
    /// Creates an empty store for vectors of dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            data: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Creates an empty store with room for `capacity` vectors.
    pub fn with_capacity(dim: usize, capacity: usize) -> Self {
        Self {
            dim,
            data: Vec::with_capacity(dim * capacity),
            ids: Vec::with_capacity(capacity),
        }
    }

    /// Builds a store from a flat row-major buffer, assigning ids `0..n`.
    ///
    /// # Errors
    /// Returns [`IndexError::InvalidParameter`] if `data.len()` is not a
    /// multiple of `dim` or `dim == 0`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Result<Self, IndexError> {
        if dim == 0 {
            return Err(IndexError::InvalidParameter("dim must be > 0".into()));
        }
        if !data.len().is_multiple_of(dim) {
            return Err(IndexError::InvalidParameter(format!(
                "flat buffer of len {} is not a multiple of dim {}",
                data.len(),
                dim
            )));
        }
        let n = data.len() / dim;
        Ok(Self {
            dim,
            data,
            ids: (0..n as VectorId).collect(),
        })
    }

    /// Builds a store from a flat buffer with explicit ids.
    ///
    /// # Errors
    /// Returns [`IndexError::InvalidParameter`] on shape mismatch.
    pub fn from_flat_with_ids(
        dim: usize,
        data: Vec<f32>,
        ids: Vec<VectorId>,
    ) -> Result<Self, IndexError> {
        if dim == 0 {
            return Err(IndexError::InvalidParameter("dim must be > 0".into()));
        }
        if data.len() != ids.len() * dim {
            return Err(IndexError::InvalidParameter(format!(
                "flat buffer of len {} does not match {} ids x dim {}",
                data.len(),
                ids.len(),
                dim
            )));
        }
        Ok(Self { dim, data, ids })
    }

    /// Dimensionality of the stored vectors.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the store holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The stable ids, in row order.
    #[inline]
    pub fn ids(&self) -> &[VectorId] {
        &self.ids
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Borrow row `row` as a slice of length `dim`.
    ///
    /// # Panics
    /// Panics if `row >= self.len()`.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        let start = row * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Mutable access to row `row`.
    ///
    /// # Panics
    /// Panics if `row >= self.len()`.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        let start = row * self.dim;
        &mut self.data[start..start + self.dim]
    }

    /// Borrow the dimension sub-range `range` of row `row`.
    ///
    /// # Panics
    /// Panics if the row or range is out of bounds.
    #[inline]
    pub fn row_range(&self, row: usize, range: DimRange) -> &[f32] {
        debug_assert!(range.end <= self.dim);
        let start = row * self.dim;
        &self.data[start + range.start..start + range.end]
    }

    /// The id of row `row`.
    ///
    /// # Panics
    /// Panics if `row >= self.len()`.
    #[inline]
    pub fn id(&self, row: usize) -> VectorId {
        self.ids[row]
    }

    /// Appends a vector with the given id.
    ///
    /// # Errors
    /// Returns [`IndexError::DimensionMismatch`] if `vector.len() != dim`.
    pub fn push(&mut self, id: VectorId, vector: &[f32]) -> Result<(), IndexError> {
        if vector.len() != self.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.dim,
                actual: vector.len(),
            });
        }
        self.data.extend_from_slice(vector);
        self.ids.push(id);
        Ok(())
    }

    /// Drops, in place, every row for which `keep(row, id)` is false; kept
    /// rows close ranks in their original order. Capacity is retained.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(usize, VectorId) -> bool) {
        let dim = self.dim;
        let mut kept = 0;
        for row in 0..self.ids.len() {
            if !keep(row, self.ids[row]) {
                continue;
            }
            if kept != row {
                self.ids[kept] = self.ids[row];
                self.data
                    .copy_within(row * dim..(row + 1) * dim, kept * dim);
            }
            kept += 1;
        }
        self.ids.truncate(kept);
        self.data.truncate(kept * dim);
    }

    /// Appends every row of `other`.
    ///
    /// # Errors
    /// Returns [`IndexError::DimensionMismatch`] if dimensionalities differ.
    pub fn extend_from(&mut self, other: &VectorStore) -> Result<(), IndexError> {
        if other.dim != self.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.dim,
                actual: other.dim,
            });
        }
        self.data.extend_from_slice(&other.data);
        self.ids.extend_from_slice(&other.ids);
        Ok(())
    }

    /// Returns a new store containing only the dimension range `range` of
    /// every vector (dimension-based partitioning: block `D_j`).
    ///
    /// Ids are preserved so partial results can be joined across machines.
    ///
    /// # Panics
    /// Panics if `range` is out of bounds or empty.
    pub fn slice_dims(&self, range: DimRange) -> VectorStore {
        assert!(range.start < range.end && range.end <= self.dim);
        let sub_dim = range.len();
        let mut data = Vec::with_capacity(sub_dim * self.len());
        for row in 0..self.len() {
            data.extend_from_slice(self.row_range(row, range));
        }
        VectorStore {
            dim: sub_dim,
            data,
            ids: self.ids.clone(),
        }
    }

    /// Returns a new store containing the given rows, in order
    /// (vector-based partitioning: shard `V_i`).
    ///
    /// # Panics
    /// Panics if any row index is out of bounds.
    pub fn gather(&self, rows: &[usize]) -> VectorStore {
        let mut out = VectorStore::with_capacity(self.dim, rows.len());
        for &r in rows {
            out.data.extend_from_slice(self.row(r));
            out.ids.push(self.ids[r]);
        }
        out
    }

    /// In-place L2 normalization of every row (used for cosine similarity).
    ///
    /// Zero vectors are left untouched.
    pub fn normalize(&mut self) {
        for row in 0..self.len() {
            let r = self.row_mut(row);
            let norm_sq: f32 = r.iter().map(|x| x * x).sum();
            if norm_sq > 0.0 {
                let inv = norm_sq.sqrt().recip();
                for x in r.iter_mut() {
                    *x *= inv;
                }
            }
        }
    }

    /// Per-row squared L2 norm restricted to `range`.
    ///
    /// Used to precompute the residual norms that make inner-product pruning
    /// admissible (Cauchy–Schwarz bound, see `harmony-core::pruning`).
    pub fn norms_sq_range(&self, range: DimRange) -> Vec<f32> {
        (0..self.len())
            .map(|row| {
                self.row_range(row, range)
                    .iter()
                    .map(|x| x * x)
                    .sum::<f32>()
            })
            .collect()
    }

    /// The largest coordinate magnitude of the store (0 when empty).
    ///
    /// # Errors
    /// [`IndexError::NonFinite`] naming the first row that holds a NaN or
    /// infinite coordinate.
    pub fn max_magnitude(&self) -> Result<f32, IndexError> {
        (0..self.len()).try_fold(0.0f32, |top, row| {
            let m = max_magnitude(self.row(row)).ok_or(IndexError::NonFinite { row })?;
            Ok(top.max(m))
        })
    }

    /// Heap memory held by this store, in bytes (data + ids).
    pub fn memory_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
            + self.ids.capacity() * std::mem::size_of::<VectorId>()
    }

    /// Iterator over `(id, row_slice)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VectorId, &[f32])> + '_ {
        self.ids
            .iter()
            .copied()
            .zip(self.data.chunks_exact(self.dim))
    }
}

/// The largest coordinate magnitude of `v` (0 when empty), or `None` when a
/// coordinate is NaN or infinite.
pub fn max_magnitude(v: &[f32]) -> Option<f32> {
    // On the bits: magnitudes order as their patterns, and ±inf and NaN sit
    // above every finite one. An integer max vectorizes.
    let top = v.iter().fold(0u32, |m, x| m.max(x.to_bits() & 0x7FFF_FFFF));
    (top < f32::INFINITY.to_bits()).then(|| f32::from_bits(top))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_magnitude_finds_the_largest_and_rejects_non_finite() {
        assert_eq!(max_magnitude(&[1.0, -3.5, 2.0]), Some(3.5));
        assert_eq!(max_magnitude(&[]), Some(0.0));
        assert_eq!(max_magnitude(&[f32::MAX, -f32::MAX]), Some(f32::MAX));
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(max_magnitude(&[0.0, bad]), None);
        }
        let mut s = sample();
        assert_eq!(s.max_magnitude(), Ok(9.0));
        s.row_mut(1)[2] = f32::NAN;
        assert_eq!(s.max_magnitude(), Err(IndexError::NonFinite { row: 1 }));
    }

    #[test]
    fn retain_rows_compacts_in_place_and_keeps_order() {
        let mut s = VectorStore::new(2);
        for i in 0..6u64 {
            s.push(10 + i, &[i as f32, -(i as f32)]).unwrap();
        }
        s.retain_rows(|row, id| row != 0 && id != 13);
        assert_eq!(s.ids(), &[11, 12, 14, 15]);
        assert_eq!(s.row(2), &[4.0, -4.0]);
        assert_eq!(s.as_flat().len(), 8);
        s.retain_rows(|_, _| false);
        assert!(s.is_empty());
    }

    fn sample() -> VectorStore {
        VectorStore::from_flat(3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).unwrap()
    }

    #[test]
    fn from_flat_assigns_sequential_ids() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.dim(), 3);
        assert_eq!(s.ids(), &[0, 1, 2]);
        assert_eq!(s.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_flat_rejects_bad_shapes() {
        assert!(VectorStore::from_flat(0, vec![]).is_err());
        assert!(VectorStore::from_flat(3, vec![1.0, 2.0]).is_err());
        assert!(VectorStore::from_flat_with_ids(2, vec![1.0, 2.0], vec![7, 8]).is_err());
    }

    #[test]
    fn push_checks_dimension() {
        let mut s = VectorStore::new(2);
        assert!(s.push(10, &[1.0, 2.0]).is_ok());
        assert_eq!(
            s.push(11, &[1.0]),
            Err(IndexError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.id(0), 10);
    }

    #[test]
    fn slice_dims_extracts_column_block() {
        let s = sample();
        let d = s.slice_dims(DimRange::new(1, 3));
        assert_eq!(d.dim(), 2);
        assert_eq!(d.len(), 3);
        assert_eq!(d.row(0), &[2.0, 3.0]);
        assert_eq!(d.row(2), &[8.0, 9.0]);
        assert_eq!(d.ids(), s.ids());
    }

    #[test]
    fn gather_extracts_rows_and_ids() {
        let s = sample();
        let g = s.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(g.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(g.ids(), &[2, 0]);
    }

    #[test]
    fn slice_then_gather_commutes_with_gather_then_slice() {
        let s = sample();
        let a = s.slice_dims(DimRange::new(0, 2)).gather(&[1, 2]);
        let b = s.gather(&[1, 2]).slice_dims(DimRange::new(0, 2));
        assert_eq!(a, b);
    }

    #[test]
    fn normalize_produces_unit_rows() {
        let mut s = VectorStore::from_flat(2, vec![3.0, 4.0, 0.0, 0.0]).unwrap();
        s.normalize();
        assert!((s.row(0)[0] - 0.6).abs() < 1e-6);
        assert!((s.row(0)[1] - 0.8).abs() < 1e-6);
        // Zero vector untouched.
        assert_eq!(s.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn norms_sq_range_matches_manual() {
        let s = sample();
        let norms = s.norms_sq_range(DimRange::new(1, 3));
        assert!((norms[0] - (4.0 + 9.0)).abs() < 1e-6);
        assert!((norms[2] - (64.0 + 81.0)).abs() < 1e-6);
    }

    #[test]
    fn row_range_borrows_correct_window() {
        let s = sample();
        assert_eq!(s.row_range(1, DimRange::new(0, 1)), &[4.0]);
        assert_eq!(s.row_range(1, DimRange::new(2, 3)), &[6.0]);
    }

    #[test]
    fn extend_from_appends_rows() {
        let mut a = sample();
        let b = VectorStore::from_flat_with_ids(3, vec![0.0; 3], vec![99]).unwrap();
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.id(3), 99);
        let c = VectorStore::new(5);
        assert!(a.extend_from(&c).is_err());
    }

    #[test]
    fn iter_yields_id_row_pairs() {
        let s = sample();
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[1].0, 1);
        assert_eq!(pairs[1].1, &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn memory_bytes_counts_buffers() {
        let s = sample();
        assert!(s.memory_bytes() >= 9 * 4 + 3 * 8);
    }
}
