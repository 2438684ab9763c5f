//! The client's exact copy of a namespace's vectors (DESIGN §6): each IVF
//! list's rows in the order the current epoch's workers hold them, the
//! pending upserts beside the lists in sequence order, and the fold that
//! brings a recut into the copy in place.

use harmony_index::VectorStore;

use super::id_map::IdMap;
use crate::error::CoreError;

/// Where a row sits: `(list, position)`, the list [`PENDING`] for the
/// pending upserts.
pub(super) type Handle = (u32, u32);

/// The list of the pending upserts in a [`Handle`]: past every IVF list.
const PENDING: u32 = u32::MAX;

/// Room each list has past its rows, as a fraction of them (1/`SLACK`):
/// a fold appends in place until that is used up, then regrows the list to
/// the same margin, so a list reallocates once per eighth it grows, not on
/// every fold that adds a row.
const SLACK: usize = 8;

/// Exact full-dimension copy of a namespace's vectors: compaction source
/// and SQ8 re-rank store. A row is live while `by_id` points at it. A fold
/// leaves every list row live and no pending row, so between folds the
/// dead list rows are exactly those a write took out of their list since,
/// each of which it recorded in `dead`.
#[cfg_attr(test, derive(Clone, Debug, PartialEq))]
pub(crate) struct ExactCopy {
    /// Per IVF list, its rows in the order the current epoch's workers
    /// hold them.
    lists: Vec<VectorStore>,
    /// Per list, the positions a write took out of it since the last fold:
    /// each once, as `by_id` moves off a list row only once between folds.
    dead: Vec<Vec<u32>>,
    /// Upserts since the last fold, in sequence order, and their home lists.
    delta: VectorStore,
    homes: Vec<u32>,
    /// Live id → its newest row. A delete removes the id.
    by_id: IdMap<Handle>,
}

/// The lists a fold would leave: per IVF list, its next rows in order, or
/// `None` for a list the fold leaves as it is. Folding it
/// ([`ExactCopy::fold`]) changes the copy; dropping it, nothing.
pub(super) struct Recut {
    next: Vec<Option<Vec<Handle>>>,
    /// Pending rows it folds.
    pub(super) folded: usize,
}

impl ExactCopy {
    /// The copy of a freshly built namespace: every row of `base` in list
    /// `homes[row]`, each list in `base`'s order. An id that repeats in
    /// `base` keeps its last row, as if `base` had been upserted in order:
    /// the build drops its earlier entries from their lists, as a fold
    /// drops superseded rows.
    pub(crate) fn build(
        base: &VectorStore,
        homes: &[u32],
        lists: usize,
    ) -> Result<Self, CoreError> {
        let mut sizes = vec![0; lists];
        homes.iter().for_each(|&home| sizes[home as usize] += 1);
        let mut copy = Self {
            lists: sizes
                .iter()
                .map(|&n| VectorStore::with_capacity(base.dim(), n + n / SLACK))
                .collect(),
            dead: vec![Vec::new(); lists],
            delta: VectorStore::new(base.dim()),
            homes: Vec::new(),
            by_id: IdMap::with_capacity_and_hasher(base.len(), Default::default()),
        };
        for (row, &home) in homes.iter().enumerate() {
            let list = &mut copy.lists[home as usize];
            let prior = copy.by_id.insert(base.id(row), (home, list.len() as u32));
            list.push(base.id(row), base.row(row))?;
            copy.kill(prior);
        }
        copy.fold(copy.recut())?;
        Ok(copy)
    }

    /// Live ids.
    pub(super) fn ids(&self) -> usize {
        self.by_id.len()
    }

    /// The home lists of the pending upserts, in sequence order.
    pub(super) fn pending(&self) -> &[u32] {
        &self.homes
    }

    /// Where live id `id`'s newest row sits.
    pub(super) fn handle(&self, id: u64) -> Option<Handle> {
        self.by_id.get(&id).copied()
    }

    /// The rows of list `list`, or the pending ones.
    fn store(&self, list: u32) -> &VectorStore {
        self.lists.get(list as usize).unwrap_or(&self.delta)
    }

    pub(super) fn row(&self, (list, pos): Handle) -> &[f32] {
        self.store(list).row(pos as usize)
    }

    /// Live id `id`'s newest vector.
    pub(crate) fn vector(&self, id: u64) -> Option<&[f32]> {
        self.handle(id).map(|at| self.row(at))
    }

    /// Appends `vector` as `id`'s newest row, pending in list `home`; the
    /// list row it supersedes, if any, is dead from here on.
    pub(super) fn upsert(&mut self, id: u64, home: u32, vector: &[f32]) -> Result<(), CoreError> {
        self.delta.push(id, vector)?;
        self.homes.push(home);
        let prior = self
            .by_id
            .insert(id, (PENDING, self.homes.len() as u32 - 1));
        self.kill(prior);
        Ok(())
    }

    /// Deletes `id`: its list row, if it has one, is dead from here on.
    pub(super) fn delete(&mut self, id: u64) {
        let row = self.by_id.remove(&id);
        self.kill(row);
    }

    fn kill(&mut self, row: Option<Handle>) {
        if let Some((list, pos)) = row {
            if let Some(dead) = self.dead.get_mut(list as usize) {
                dead.push(pos);
            }
        }
    }

    /// The lists a fold would leave: every list with a dead row or a live
    /// pending row homed there becomes its live rows in order, then those
    /// pending rows in sequence order.
    pub(super) fn recut(&self) -> Recut {
        let all = |c: usize| (0..self.lists[c].len()).map(move |pos| (c as u32, pos as u32));
        let mut next: Vec<Option<Vec<Handle>>> = vec![None; self.lists.len()];
        for (c, dead) in self.dead.iter().enumerate().filter(|(_, d)| !d.is_empty()) {
            let mut dead = dead.clone();
            dead.sort_unstable();
            let mut dead = dead.into_iter().peekable();
            let live = all(c).filter(|&(_, pos)| dead.next_if_eq(&pos).is_none());
            next[c] = Some(live.collect());
        }
        let mut folded = 0;
        for (pos, &home) in self.homes.iter().enumerate() {
            let at = (PENDING, pos as u32);
            if self.handle(self.delta.id(pos)) == Some(at) {
                let home = home as usize;
                next[home]
                    .get_or_insert_with(|| all(home).collect())
                    .push(at);
                folded += 1;
            }
        }
        Recut { next, folded }
    }

    /// The lists as the copy holds them.
    pub(crate) fn lists(&self) -> Lists<'_> {
        Lists {
            copy: self,
            next: &[],
        }
    }

    /// The lists `recut` would leave.
    pub(super) fn next<'a>(&'a self, recut: &'a Recut) -> Lists<'a> {
        Lists {
            copy: self,
            next: &recut.next,
        }
    }

    /// Brings `recut`, derived from the copy as it stands, into force in
    /// place: each list it changes keeps its live rows in order, moved
    /// down over the dead ones with only the moved rows' ids repointed,
    /// then appends the pending rows folded there; no other list is
    /// touched. Every pending row leaves the copy.
    pub(super) fn fold(&mut self, recut: Recut) -> Result<(), CoreError> {
        let Self {
            lists,
            delta,
            by_id,
            ..
        } = self;
        for (c, (next, list)) in recut.next.into_iter().zip(lists.iter_mut()).enumerate() {
            let Some(next) = next else {
                continue;
            };
            let kept = next.partition_point(|&(l, _)| l != PENDING);
            list.retain_rows(next[..kept].iter().map(|&(_, pos)| pos as usize));
            if next.len() > list.capacity() {
                list.reserve_exact(next.len() + next.len() / SLACK - list.len());
            }
            for &(_, pos) in &next[kept..] {
                list.push(delta.id(pos as usize), delta.row(pos as usize))?;
            }
            for (to, &at) in next.iter().enumerate() {
                let here = (c as u32, to as u32);
                if at != here {
                    by_id.insert(list.id(to), here);
                }
            }
        }
        delta.clear();
        self.homes.clear();
        self.dead.iter_mut().for_each(Vec::clear);
        Ok(())
    }
}

/// The IVF lists of a namespace, row by row, read through the exact copy:
/// as it holds them, or as a [`Recut`] of it would leave them.
#[derive(Clone, Copy)]
pub(crate) struct Lists<'a> {
    copy: &'a ExactCopy,
    /// The recut's lists (empty: none changed).
    next: &'a [Option<Vec<Handle>>],
}

impl<'a> Lists<'a> {
    /// Dimensions of a row.
    pub(crate) fn dim(&self) -> usize {
        self.copy.delta.dim()
    }

    /// Lists there are.
    pub(crate) fn lists(&self) -> usize {
        self.copy.lists.len()
    }

    /// Rows of list `c`.
    pub(crate) fn len(&self, c: u32) -> usize {
        match self.next.get(c as usize) {
            Some(Some(next)) => next.len(),
            _ => self.copy.lists[c as usize].len(),
        }
    }

    /// The id and exact vector of list `c`'s `i`-th row.
    pub(crate) fn row(&self, c: u32, i: usize) -> (u64, &'a [f32]) {
        let (list, pos) = match self.next.get(c as usize) {
            Some(Some(next)) => next[i],
            _ => (c, i as u32),
        };
        let store = self.copy.store(list);
        (store.id(pos as usize), store.row(pos as usize))
    }

    /// Rows per list.
    pub(crate) fn sizes(&self) -> Vec<usize> {
        (0..self.lists() as u32).map(|c| self.len(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    const DIM: usize = 3;
    const LISTS: usize = 4;

    /// Version `version` of `id`'s vector: every coordinate names both.
    fn vector(id: u64, version: u64) -> Vec<f32> {
        (0..DIM as u64)
            .map(|d| (id * 1000 + version * 10 + d) as f32)
            .collect()
    }

    /// For a corpus of unique ids, each list holds the rows the build
    /// assigned it in corpus order: the rows the plan choice samples are
    /// those of the corpus, list by list.
    #[test]
    fn unique_ids_list_their_rows_in_corpus_order() {
        let mut rng = SmallRng::seed_from_u64(43);
        let mut base = VectorStore::new(DIM);
        for row in 0..200 {
            base.push(1_000 + 3 * row, &vector(row, 0)).unwrap();
        }
        let homes: Vec<u32> = (0..base.len())
            .map(|_| rng.random_range(0..LISTS as u32))
            .collect();
        let copy = ExactCopy::build(&base, &homes, LISTS).unwrap();
        let lists = copy.lists();
        assert_eq!((lists.lists(), lists.dim()), (LISTS, DIM));
        for c in 0..LISTS as u32 {
            let want: Vec<(u64, &[f32])> = (0..base.len())
                .filter(|&row| homes[row] == c)
                .map(|row| (base.id(row), base.row(row)))
                .collect();
            let got: Vec<(u64, &[f32])> = (0..lists.len(c)).map(|i| lists.row(c, i)).collect();
            assert_eq!(got, want, "list {c}");
        }
    }

    /// Ids 0..64 dealt over the lists, then id 7 again: the build's own
    /// duplicate, in list 0, while its first entry sits in list 3.
    fn built() -> ExactCopy {
        let mut base = VectorStore::new(DIM);
        for id in 0..64 {
            base.push(id, &vector(id, 0)).unwrap();
        }
        base.push(7, &vector(7, 1)).unwrap();
        let homes: Vec<u32> = (0..base.len()).map(|r| (r % LISTS) as u32).collect();
        ExactCopy::build(&base, &homes, LISTS).unwrap()
    }

    /// The ids of every list, in order.
    fn list_ids(copy: &ExactCopy) -> Vec<Vec<u64>> {
        copy.lists.iter().map(|list| list.ids().to_vec()).collect()
    }

    /// The state a fold must leave: `lists` in that order, every live id
    /// of `newest` on its newest vector, no dead row and no pending one,
    /// and `by_id` a bijection onto the rows.
    fn check(copy: &ExactCopy, lists: &[Vec<u64>], newest: &HashMap<u64, u64>, at: &str) {
        assert_eq!(list_ids(copy), lists, "{at}: list order");
        assert!(copy.delta.is_empty() && copy.homes.is_empty(), "{at}");
        assert!(copy.dead.iter().all(Vec::is_empty), "{at}");
        let rows: usize = lists.iter().map(Vec::len).sum();
        assert_eq!((copy.ids(), rows), (newest.len(), newest.len()), "{at}");
        for (&id, &version) in newest {
            let (list, pos) = copy.handle(id).unwrap();
            assert_eq!(copy.lists[list as usize].id(pos as usize), id, "{at}");
            assert_eq!(copy.vector(id), Some(&vector(id, version)[..]), "{at}");
        }
    }

    /// Seeded writes against a model of the live set: upserts of new, live
    /// and deleted ids to random home lists, deletes of live ids, and a
    /// fold after each round. Every fold leaves each list in recut order —
    /// its rows not written since, in order, then the newest pending row of
    /// every live id homed there, in sequence order — every live id on its
    /// newest vector, no dead row, and `by_id` a bijection onto the rows.
    /// The build's repeated id keeps its last entry only.
    #[test]
    fn folds_keep_recut_order_and_every_live_id_on_its_newest_row() {
        let mut copy = built();
        let mut lists: Vec<Vec<u64>> = (0..LISTS as u64)
            .map(|c| {
                (0..64)
                    .filter(|id| id % LISTS as u64 == c && *id != 7)
                    .collect()
            })
            .collect();
        lists[0].push(7);
        let mut newest: HashMap<u64, u64> = (0..64).map(|id| (id, u64::from(id == 7))).collect();
        check(&copy, &lists, &newest, "build");

        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let mut version = 1;
        for round in 0..40 {
            // Per written id: its newest upsert's sequence number and home,
            // `None` once deleted.
            let mut written: HashMap<u64, Option<(usize, usize)>> = HashMap::new();
            for seq in 0..rng.random_range(0..64) {
                let id = rng.random_range(0..96u64);
                if rng.random_range(0..3) < 2 {
                    version += 1;
                    let home = rng.random_range(0..LISTS);
                    copy.upsert(id, home as u32, &vector(id, version)).unwrap();
                    newest.insert(id, version);
                    written.insert(id, Some((seq, home)));
                } else if newest.remove(&id).is_some() {
                    copy.delete(id);
                    written.insert(id, None);
                }
            }
            for list in &mut lists {
                list.retain(|id| !written.contains_key(id));
            }
            let mut folded: Vec<(usize, usize, u64)> = written
                .iter()
                .filter_map(|(&id, at)| at.map(|(seq, home)| (seq, home, id)))
                .collect();
            folded.sort_unstable();
            for (_, home, id) in folded {
                lists[home].push(id);
            }
            copy.fold(copy.recut()).unwrap();
            check(&copy, &lists, &newest, &format!("round {round}"));
        }
    }

    /// A failed handshake drops the recut it shipped: deriving the lists
    /// and walking every row of them leaves the copy bit for bit as it was,
    /// and the retry's fold equals one fold of the same writes — no pending
    /// row folded twice.
    #[test]
    fn a_dropped_recut_leaves_the_copy_as_it_was() {
        let mut copy = built();
        for (version, (id, home)) in [(3, 1), (70, 2), (3, 0), (12, 0), (71, 3)]
            .into_iter()
            .enumerate()
        {
            copy.upsert(id, home, &vector(id, 10 + version as u64))
                .unwrap();
        }
        for id in [12, 20, 71] {
            copy.delete(id);
        }
        let before = copy.clone();

        let recut = copy.recut();
        let next = copy.next(&recut);
        let walked: Vec<u64> = (0..next.lists() as u32)
            .flat_map(|c| (0..next.len(c)).map(move |i| (c, i)))
            .map(|(c, i)| next.row(c, i).0)
            .collect();
        // 64 ids, less 3, 12 and 20 in the lists, plus 70 and 3 folded.
        assert_eq!((walked.len(), recut.folded), (64 - 3 + 2, 2));
        drop(recut);
        assert_eq!(copy, before);

        let mut once = before;
        once.fold(once.recut()).unwrap();
        copy.fold(copy.recut()).unwrap();
        assert_eq!(copy, once);
        // The fold leaves what was walked, and every id once.
        let mut ids: Vec<u64> = list_ids(&copy).concat();
        assert_eq!(ids, walked);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), walked.len(), "an id folded twice");
        assert_eq!(copy.vector(3), Some(&vector(3, 12)[..]));
        assert_eq!(copy.vector(12), None);
    }
}
