//! Mutable-shard ingestion structures: delta lists and tombstones.
//!
//! Harmony's grid blocks are immutable once loaded; fresh upserts land in a
//! per-shard [`DeltaList`] instead — an append-only, row-major f32 side
//! table scanned *exactly* (no quantization) alongside the probed IVF
//! lists, so recall on fresh data is 1.0 by construction. Deletes are soft:
//! a [`TombstoneSet`] maps vector id → delete sequence number and is
//! consulted only when a candidate is about to be emitted, never by
//! mutating the stored lists (positional candidate enumeration must stay
//! identical across every machine of a shard row).
//!
//! Both structures are folded away by compaction: delta rows move into
//! their home IVF lists, tombstoned rows are dropped, and the compacted
//! blocks are published under a fresh routing epoch.

/// Append-only store of freshly upserted rows for one shard, restricted to
/// one machine's dimension slice.
///
/// Rows carry the ingest *sequence number* they were upserted at. Queries
/// are admitted with a delta watermark and scan only rows with
/// `seq < watermark`, so every machine of a pipelined shard row enumerates
/// the exact same delta candidates even while new upserts race in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaList {
    width: usize,
    ids: Vec<u64>,
    seqs: Vec<u64>,
    flat: Vec<f32>,
    block_norms_sq: Vec<f32>,
    total_norms_sq: Vec<f32>,
}

impl DeltaList {
    /// Creates an empty delta list whose rows are `width` coordinates wide.
    #[must_use]
    pub fn new(width: usize) -> Self {
        Self {
            width,
            ..Self::default()
        }
    }

    /// Row width in coordinates (the machine's dimension-slice width).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of delta rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the list holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends one row.
    ///
    /// `block_norm_sq` / `total_norm_sq` are only meaningful under
    /// inner-product metrics; pass 0.0 under L2.
    ///
    /// # Panics
    /// If `row.len() != width`.
    pub fn push(&mut self, id: u64, seq: u64, row: &[f32], block_norm_sq: f32, total_norm_sq: f32) {
        assert_eq!(row.len(), self.width, "delta row width mismatch");
        self.ids.push(id);
        self.seqs.push(seq);
        self.flat.extend_from_slice(row);
        self.block_norms_sq.push(block_norm_sq);
        self.total_norms_sq.push(total_norm_sq);
    }

    /// Vector id of row `i`.
    #[must_use]
    pub fn id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// Ingest sequence number of row `i`.
    #[must_use]
    pub fn seq(&self, i: usize) -> u64 {
        self.seqs[i]
    }

    /// Coordinates of row `i` (this machine's dimension slice).
    #[must_use]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.flat[i * self.width..(i + 1) * self.width]
    }

    /// Squared norm of row `i` over this slice's coordinates.
    #[must_use]
    pub fn block_norm_sq(&self, i: usize) -> f32 {
        self.block_norms_sq[i]
    }

    /// Squared norm of row `i`'s full vector.
    #[must_use]
    pub fn total_norm_sq(&self, i: usize) -> f32 {
        self.total_norms_sq[i]
    }

    /// Heap bytes held by the payload vectors (stats accounting).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.ids.len() * (8 + 8)
            + self.flat.len() * 4
            + (self.block_norms_sq.len() + self.total_norms_sq.len()) * 4
    }
}

/// Soft-delete set: vector id → the ingest sequence number of the delete.
///
/// The visibility rule has two halves:
/// * a *stored list* row is suppressed iff its id is present at all (list
///   rows predate every delta, so any tombstone outranks them);
/// * a *delta* row is suppressed iff the tombstone's sequence is newer than
///   the row's upsert sequence — a re-upsert after a delete stays visible
///   while the older stored row stays hidden.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TombstoneSet {
    map: std::collections::HashMap<u64, u64>,
}

impl TombstoneSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tombstoned ids.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no ids are tombstoned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Records a delete of `id` at sequence `seq`, keeping the newest.
    pub fn insert(&mut self, id: u64, seq: u64) {
        let e = self.map.entry(id).or_insert(seq);
        if *e < seq {
            *e = seq;
        }
    }

    /// Whether a *stored list* row with this id is suppressed.
    #[must_use]
    pub fn suppresses_list_row(&self, id: u64) -> bool {
        self.map.contains_key(&id)
    }

    /// Whether a *delta* row upserted at `row_seq` is suppressed.
    #[must_use]
    pub fn suppresses_delta_row(&self, id: u64, row_seq: u64) -> bool {
        self.map.get(&id).is_some_and(|&del| del > row_seq)
    }

    /// Iterates `(id, delete_seq)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.map.iter().map(|(&id, &seq)| (id, seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_list_appends_and_reads_back() {
        let mut d = DeltaList::new(3);
        d.push(10, 1, &[1.0, 2.0, 3.0], 14.0, 14.0);
        d.push(11, 2, &[4.0, 5.0, 6.0], 77.0, 80.0);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.width(), 3);
        assert_eq!(d.id(0), 10);
        assert_eq!(d.seq(1), 2);
        assert_eq!(d.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(d.block_norm_sq(1), 77.0);
        assert_eq!(d.total_norm_sq(1), 80.0);
        assert_eq!(d.memory_bytes(), 2 * 16 + 6 * 4 + 4 * 4);
    }

    #[test]
    #[should_panic(expected = "delta row width mismatch")]
    fn delta_list_rejects_wrong_width() {
        let mut d = DeltaList::new(2);
        d.push(1, 1, &[1.0], 0.0, 0.0);
    }

    #[test]
    fn tombstone_visibility_rule() {
        let mut t = TombstoneSet::new();
        assert!(t.is_empty());
        t.insert(7, 5);
        assert_eq!(t.len(), 1);
        // Stored list rows: any tombstone suppresses.
        assert!(t.suppresses_list_row(7));
        assert!(!t.suppresses_list_row(8));
        // Delta rows: only older-than-the-delete rows are suppressed.
        assert!(t.suppresses_delta_row(7, 3));
        assert!(!t.suppresses_delta_row(7, 5));
        assert!(!t.suppresses_delta_row(7, 9));
        assert!(!t.suppresses_delta_row(8, 0));
    }

    #[test]
    fn tombstone_keeps_newest_seq() {
        let mut t = TombstoneSet::new();
        t.insert(1, 10);
        t.insert(1, 4); // older delete must not regress the watermark
        assert!(t.suppresses_delta_row(1, 8));
        t.insert(1, 20);
        assert!(t.suppresses_delta_row(1, 15));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(1, 20)]);
    }
}
