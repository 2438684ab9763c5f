//! The worker's store: the grid blocks it hosts, keyed by `(ns, epoch,
//! shard)`, with each shard's delta rows and each epoch's tombstones; the
//! part files warm and cold blocks spill to; and the list cache that makes
//! a spilled block resident list by list (the module docs of
//! [`super`], *Epochs* and *Tiering*).
//!
//! Blocks install, spill, fault, promote and evict here. Nothing here
//! scans: the scan reads a resolved [`BlockStore`] and [`DeltaList`].

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{self, AtomicUsize};

use harmony_index::persist::{
    read_part_lists, write_part_file, PartDirectory, PartList, PartListRef, PersistError,
};
use harmony_index::{DeltaList, Sq8Segment, Temperature, TombstoneSet};

use super::HarmonyWorker;
use crate::messages::ClusterBlock;

/// Addresses one grid block in the tier machinery: `(ns, epoch, shard)`.
/// A worker hosts at most one block per shard per `(ns, epoch)`, so the key
/// is unique within a worker (and part files live in a per-worker
/// directory, so it is unique on disk too).
pub(super) type BlockKey = (u16, u64, u32);

/// Addresses one list of a grid block: the list cache's key,
/// `(ns, epoch, shard, cluster)`.
pub(super) type ListKey = (u16, u64, u32, u32);

/// Distinguishes concurrently-constructed workers' default spill
/// directories within one process.
static SPILL_DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh per-instance spill directory under the system temp directory.
pub(super) fn default_spill_dir() -> PathBuf {
    let seq = SPILL_DIR_SEQ.fetch_add(1, atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("harmony-spill-{}-w{seq}", std::process::id()))
}

/// The vector payload of one list block, in its resident representation.
pub(super) enum BlockData {
    /// Exact row-major `f32` rows.
    F32 { flat: Vec<f32> },
    /// SQ8-quantized rows: the one segment over the block's range that
    /// `cut_list` quantizes a list into (`LoadBlock` admits no other).
    Sq8 { seg: Sq8Segment },
}

impl BlockData {
    /// SQ8 when there is a segment, exact rows otherwise.
    fn of(flat: Vec<f32>, segs: Vec<Sq8Segment>) -> Self {
        match segs.into_iter().next() {
            Some(seg) => BlockData::Sq8 { seg },
            None => BlockData::F32 { flat },
        }
    }
}

/// One inverted list restricted to this worker's dimension block.
pub(super) struct ListBlock {
    pub(super) ids: Vec<u64>,
    pub(super) data: BlockData,
    pub(super) block_norms_sq: Vec<f32>,
    pub(super) total_norms_sq: Vec<f32>,
    /// Max of `block_norms_sq` (0 when empty) — the `max‖p‖²` term of the
    /// SQ8 inner-product prune-slack widening.
    pub(super) max_block_norm_sq: f32,
    pub(super) width: usize,
}

impl ListBlock {
    /// The resident form of one list `width` dimensions wide: SQ8 when it
    /// has segments, exact rows otherwise.
    fn new(
        ids: Vec<u64>,
        flat: Vec<f32>,
        segs: Vec<Sq8Segment>,
        block_norms_sq: Vec<f32>,
        total_norms_sq: Vec<f32>,
        width: usize,
    ) -> Self {
        Self {
            ids,
            data: BlockData::of(flat, segs),
            max_block_norm_sq: block_norms_sq.iter().fold(0.0f32, |a, &b| a.max(b)),
            block_norms_sq,
            total_norms_sq,
            width,
        }
    }

    /// The resident form of a list read back from a part file: its arrays
    /// moved in, the derived maximum taken from the directory.
    fn from_part(part: PartList, width: usize) -> Self {
        Self {
            ids: part.ids,
            data: BlockData::of(part.flat, part.segs),
            block_norms_sq: part.block_norms_sq,
            total_norms_sq: part.total_norms_sq,
            max_block_norm_sq: part.max_block_norm_sq,
            width,
        }
    }

    /// What a part file stores of this list.
    fn part_ref(&self, cluster: u32) -> PartListRef<'_> {
        let (flat, segs): (&[f32], &[Sq8Segment]) = match &self.data {
            BlockData::F32 { flat } => (flat, &[]),
            BlockData::Sq8 { seg } => (&[], std::slice::from_ref(seg)),
        };
        PartListRef {
            cluster,
            ids: &self.ids,
            flat,
            segs,
            block_norms_sq: &self.block_norms_sq,
            total_norms_sq: &self.total_norms_sq,
            max_block_norm_sq: self.max_block_norm_sq,
        }
    }

    pub(super) fn rows(&self) -> usize {
        self.ids.len()
    }

    /// Resident payload bytes split by representation: `(f32, sq8)`.
    fn payload_bytes(&self) -> (usize, usize) {
        match &self.data {
            BlockData::F32 { flat } => (flat.capacity() * 4, 0),
            BlockData::Sq8 { seg } => (0, seg.memory_bytes()),
        }
    }

    fn memory_bytes(&self) -> usize {
        let (f, s) = self.payload_bytes();
        self.ids.capacity() * 8
            + f
            + s
            + self.block_norms_sq.capacity() * 4
            + self.total_norms_sq.capacity() * 4
    }
}

/// Storage for one grid block `V_s D_b`.
pub(crate) struct BlockStore {
    /// Absolute dimension range `[start, end)` of the block: SQ8 segments
    /// are addressed in absolute dimensions.
    dim_start: u64,
    dim_end: u64,
    pub(super) lists: HashMap<u32, ListBlock>,
}

impl BlockStore {
    /// The storage of a block shipped (or spilled) as wire lists.
    pub(crate) fn from_wire(dim_start: u64, dim_end: u64, lists: Vec<ClusterBlock>) -> Self {
        let width = (dim_end - dim_start) as usize;
        let lists = lists
            .into_iter()
            .map(|cb| {
                let list = ListBlock::new(
                    cb.ids,
                    cb.flat,
                    cb.segs,
                    cb.block_norms_sq,
                    cb.total_norms_sq,
                    width,
                );
                (cb.cluster, list)
            })
            .collect();
        Self {
            dim_start,
            dim_end,
            lists,
        }
    }

    /// Dimensions the block covers.
    pub(super) fn width(&self) -> usize {
        (self.dim_end - self.dim_start) as usize
    }

    pub(super) fn memory_bytes(&self) -> usize {
        self.lists
            .values()
            .map(ListBlock::memory_bytes)
            .sum::<usize>()
    }

    /// Resident payload bytes split by representation: `(f32, sq8)`.
    pub(super) fn payload_bytes(&self) -> (usize, usize) {
        self.lists.values().fold((0, 0), |(f, s), l| {
            let (lf, ls) = l.payload_bytes();
            (f + lf, s + ls)
        })
    }
}

/// The disk backing of a spilled grid block: its part file, and the
/// file's list directory kept in memory so a fault reads only lists.
/// Dropping it deletes the file.
pub(super) struct SpillFile {
    path: PathBuf,
    pub(super) dir: PartDirectory,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One shard's grid block under the tier machinery. A pinned (hot) block
/// has no backing and every list resident; a spilled (warm/cold) one has a
/// part file — immutable for the life of the block, so demoting again is
/// free — and exactly the lists the cache holds. Dropping a slot deletes
/// its part file (the owner forgets the block's cache entries).
pub(super) struct BlockSlot {
    pub(super) store: BlockStore,
    pub(super) spill: Option<SpillFile>,
}

impl BlockSlot {
    fn pinned(store: BlockStore) -> Self {
        Self { store, spill: None }
    }
}

fn slot_mut(
    epochs: &mut HashMap<(u16, u64), EpochStore>,
    (ns, epoch, shard): BlockKey,
) -> Option<&mut BlockSlot> {
    epochs.get_mut(&(ns, epoch))?.blocks.get_mut(&shard)
}

/// All grid blocks this machine hosts under one `(ns, epoch)`.
pub(super) struct EpochStore {
    /// Pipeline length of the epoch's plan.
    total_dim_blocks: usize,
    /// shard → block slot (resident, spilled, or both).
    pub(super) blocks: HashMap<u32, BlockSlot>,
    /// shard → freshly upserted rows (this machine's dimension slice),
    /// appended in ingest-sequence order and scanned exactly after the
    /// probed lists. Folded away when a compaction publishes the next
    /// epoch.
    pub(super) deltas: HashMap<u32, DeltaList>,
    /// Soft-deleted ids. Consulted only at result emission; stored rows are
    /// never removed, so the canonical candidate enumeration stays
    /// identical across every machine of a shard row.
    pub(super) tombstones: TombstoneSet,
}

impl EpochStore {
    fn new(total_dim_blocks: usize) -> Self {
        Self {
            total_dim_blocks,
            blocks: HashMap::new(),
            deltas: HashMap::new(),
            tombstones: TombstoneSet::new(),
        }
    }

    pub(super) fn delta_bytes(&self) -> usize {
        self.deltas.values().map(DeltaList::memory_bytes).sum()
    }
}

impl HarmonyWorker {
    pub(super) fn tier(&self, ns: u16) -> Temperature {
        self.tiers.get(&ns).copied().unwrap_or_default()
    }

    pub(super) fn spill_path(&self, (ns, epoch, shard): BlockKey) -> PathBuf {
        self.spill_dir
            .join(format!("ns{ns}-e{epoch}-s{shard}.part"))
    }

    /// Drops the named lists of spilled blocks (cache evictions, and the
    /// lists a hop kept past the budget until it was done with them).
    pub(super) fn drop_cached(&mut self, keys: impl IntoIterator<Item = ListKey>) {
        for (ns, epoch, shard, cluster) in keys {
            let Some(slot) = slot_mut(&mut self.epochs, (ns, epoch, shard)) else {
                continue;
            };
            debug_assert!(slot.spill.is_some(), "dropping a list with no backing");
            slot.store.lists.remove(&cluster);
        }
    }

    /// Writes the block's part file unless it has one. Only a pinned block
    /// lacks one, and a pinned block holds every list. On I/O failure the
    /// block keeps no backing and stays pinned, trading memory for safety.
    pub(super) fn ensure_spilled(&mut self, key: BlockKey) {
        let path = self.spill_path(key);
        if !self.spill_dir_ready {
            if std::fs::create_dir_all(&self.spill_dir).is_err() {
                return;
            }
            self.spill_dir_ready = true;
        }
        let Some(slot) = slot_mut(&mut self.epochs, key) else {
            return;
        };
        if slot.spill.is_some() {
            return;
        }
        let store = &slot.store;
        let mut lists: Vec<PartListRef<'_>> =
            store.lists.iter().map(|(&c, l)| l.part_ref(c)).collect();
        if let Ok(dir) = write_part_file(&path, (store.dim_start, store.dim_end), &mut lists) {
            slot.spill = Some(SpillFile { path, dir });
        }
    }

    /// Makes the lists `clusters` of `key`'s block resident: a spilled
    /// block faults the ones it lacks from its part file — each read and
    /// checked alone — and refreshes the recency of the rest; a pinned
    /// block (or an unknown one) returns at once. Faulting may push colder
    /// lists past the cache budget. Returns the requested lists the budget
    /// pushed out too: they stay resident for the caller, who drops them
    /// ([`Self::drop_cached`]) once done. On a read error nothing is
    /// installed.
    pub(super) fn fault_in(
        &mut self,
        key: BlockKey,
        clusters: &[u32],
    ) -> Result<Vec<ListKey>, PersistError> {
        let Some(slot) = slot_mut(&mut self.epochs, key) else {
            return Ok(Vec::new());
        };
        let Some(spill) = &slot.spill else {
            return Ok(Vec::new()); // pinned
        };
        let (ns, epoch, shard) = key;
        let mut wanted: Vec<u32> = clusters
            .iter()
            .copied()
            .filter(|&c| spill.dir.entry(c).is_some())
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        let mut missing = Vec::new();
        for &cluster in &wanted {
            if slot.store.lists.contains_key(&cluster) {
                self.cache.touch(&(ns, epoch, shard, cluster));
                self.cache_hits += 1;
            } else {
                missing.push(cluster);
            }
        }
        if missing.is_empty() {
            return Ok(Vec::new());
        }
        let parts = read_part_lists(&spill.path, &spill.dir, &missing)?;
        let read: u64 = missing
            .iter()
            .filter_map(|&c| spill.dir.entry(c))
            .map(|e| e.len)
            .sum();
        self.fault_bytes += read;
        self.cache_misses += parts.len() as u64;
        let width = slot.store.width();
        let mut evicted = Vec::new();
        for part in parts {
            let cluster = part.cluster;
            let list = ListBlock::from_part(part, width);
            let bytes = list.memory_bytes();
            slot.store.lists.insert(cluster, list);
            evicted.extend(self.cache.insert((ns, epoch, shard, cluster), bytes));
        }
        let (kept, dropped): (Vec<ListKey>, Vec<ListKey>) = evicted
            .into_iter()
            .partition(|&(n, e, s, c)| (n, e, s) == key && wanted.binary_search(&c).is_ok());
        self.drop_cached(dropped);
        Ok(kept)
    }

    /// Spills `key`'s block (once) and keeps its resident lists as cache
    /// entries (`keep`, warm) or drops them (cold). A block whose spill
    /// fails stays pinned.
    pub(super) fn demote(&mut self, key: BlockKey, keep: bool) {
        let was_spilled = slot_mut(&mut self.epochs, key).is_some_and(|s| s.spill.is_some());
        self.ensure_spilled(key);
        let Some(slot) = slot_mut(&mut self.epochs, key) else {
            return;
        };
        if slot.spill.is_none() || (keep && was_spilled) {
            return; // spill failed: pinned; or already warm/cold: cached
        }
        let (ns, epoch, shard) = key;
        if keep {
            // Ascending cluster id: the recency order does not depend on
            // the map's iteration order.
            let mut lists: Vec<_> = slot.store.lists.iter().collect();
            lists.sort_unstable_by_key(|&(&c, _)| c);
            let mut evicted = Vec::new();
            for (&c, list) in lists {
                let bytes = list.memory_bytes();
                evicted.extend(self.cache.insert((ns, epoch, shard, c), bytes));
            }
            self.drop_cached(evicted);
        } else {
            for c in std::mem::take(&mut slot.store.lists).into_keys() {
                self.cache.remove(&(ns, epoch, shard, c));
            }
        }
    }

    /// Faults every list of `key`'s spilled block back, pins them all and
    /// deletes the part file. A block with a list that cannot be read back
    /// keeps its file and stays spilled rather than lose the list.
    pub(super) fn promote(&mut self, key: BlockKey) {
        let Some(slot) = slot_mut(&mut self.epochs, key) else {
            return;
        };
        let Some(spill) = &slot.spill else {
            return; // already pinned
        };
        let missing: Vec<u32> = spill
            .dir
            .entries()
            .iter()
            .map(|e| e.cluster)
            .filter(|c| !slot.store.lists.contains_key(c))
            .collect();
        let Ok(parts) = read_part_lists(&spill.path, &spill.dir, &missing) else {
            return;
        };
        let (ns, epoch, shard) = key;
        for &c in slot.store.lists.keys() {
            self.cache.remove(&(ns, epoch, shard, c));
        }
        let width = slot.store.width();
        for part in parts {
            let cluster = part.cluster;
            let list = ListBlock::from_part(part, width);
            slot.store.lists.insert(cluster, list);
        }
        slot.spill = None; // deletes the part file
    }

    /// Applies the namespace's current tier to a freshly installed block:
    /// hot blocks stay pinned, warm blocks spill and cache their lists,
    /// cold blocks spill and drop them.
    pub(super) fn apply_tier(&mut self, key: BlockKey) {
        match self.tier(key.0) {
            Temperature::Hot => {}
            Temperature::Warm => self.demote(key, true),
            Temperature::Cold => self.demote(key, false),
        }
    }

    /// Every block key currently stored for a namespace.
    pub(super) fn ns_keys(&self, ns: u16) -> Vec<BlockKey> {
        let mut keys: Vec<BlockKey> = self
            .epochs
            .iter()
            .filter(|((n, _), _)| *n == ns)
            .flat_map(|(&(n, e), store)| store.blocks.keys().map(move |&s| (n, e, s)))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Installs `block` as `key`'s grid block — replacing one already
    /// there — and applies the namespace's tier to it.
    pub(super) fn install_block(
        &mut self,
        key: BlockKey,
        total_dim_blocks: u32,
        block: BlockStore,
    ) {
        let total_dim_blocks = total_dim_blocks.max(1) as usize;
        self.ensure_slice_positions(total_dim_blocks);
        let (ns, epoch, shard) = key;
        let store = self
            .epochs
            .entry((ns, epoch))
            .or_insert_with(|| EpochStore::new(total_dim_blocks));
        store.total_dim_blocks = total_dim_blocks;
        if let Some(old) = store.blocks.insert(shard, BlockSlot::pinned(block)) {
            // Replaced block: its part file (if any) describes stale data,
            // and shares the path the new block may spill to.
            drop(old);
            self.cache.remove_matching(|&(n, e, s, _)| (n, e, s) == key);
        }
        // A demoted namespace keeps its tier across reloads and migrations.
        self.apply_tier(key);
    }

    /// Drops an epoch's storage — a retired one's, or what a failed
    /// handshake left of a new one — with its part files and cache entries.
    pub(super) fn handle_evict(&mut self, ns: u16, epoch: u64) {
        self.epochs.remove(&(ns, epoch));
        self.cache
            .remove_matching(|&(n, e, _, _)| n == ns && e == epoch);
    }
}
