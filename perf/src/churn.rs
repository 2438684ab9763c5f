//! The write side: seeded upsert/delete/compact cycles against namespace 0,
//! a mirror of the logical live set for the oracle, and the bookkeeping the
//! correctness gate needs (which ids are dead since when, which rows were
//! just written).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use harmony_core::HarmonyEngine;
use harmony_index::VectorStore;
use rand::prelude::*;

use crate::estim::Tally;
use crate::spans::Tracer;
use crate::workloads::Churn;

/// Ids of freshly inserted rows start here, far above any base id.
const NEW_ID_BASE: u64 = 1 << 32;
/// Rows written in the last `RECENT_CYCLES` cycles are never overwritten or
/// deleted, so a reader holding the previous cycle's rows can still expect
/// each to be its own top-1 while the writer moves on.
const RECENT_CYCLES: usize = 3;

/// An upserted row: its id and vector.
pub type Row = (u64, Vec<f32>);

/// What a concurrent reader may look at while the writer runs.
#[derive(Default)]
pub struct ChurnShared {
    /// Completed cycles.
    pub cycle: AtomicU32,
    /// Deleted id → cycle during which its delete was acknowledged.
    pub dead: Mutex<HashMap<u64, u32>>,
    /// Rows upserted (and acknowledged) by the latest completed burst.
    pub fresh: Mutex<Arc<Vec<Row>>>,
}

/// Per-call latencies of the write path, in seconds.
#[derive(Default)]
pub struct WriteLatencies {
    pub upsert: Vec<f64>,
    pub delete: Vec<f64>,
    pub compact: Vec<f64>,
}

pub struct Churner<'a> {
    base: &'a VectorStore,
    rng: StdRng,
    next_new: u64,
    /// Current vector of every id written since the build.
    overrides: HashMap<u64, Vec<f32>>,
    recent: VecDeque<HashSet<u64>>,
    pub shared: Arc<ChurnShared>,
    pub lat: WriteLatencies,
}

impl<'a> Churner<'a> {
    pub fn new(base: &'a VectorStore, seed: u64) -> Self {
        Self {
            base,
            rng: StdRng::seed_from_u64(seed ^ 0xC4_0A11),
            next_new: NEW_ID_BASE,
            overrides: HashMap::new(),
            recent: VecDeque::new(),
            shared: Arc::default(),
            lat: WriteLatencies::default(),
        }
    }

    /// A live base id that was not written recently.
    fn victim(&mut self, dead: &HashMap<u64, u32>, taken: &HashSet<u64>) -> u64 {
        loop {
            let id = self.base.id(self.rng.random_range(0..self.base.len()));
            let busy = dead.contains_key(&id)
                || taken.contains(&id)
                || self.recent.iter().any(|set| set.contains(&id));
            if !busy {
                return id;
            }
        }
    }

    /// A vector near a random base row: unique, and inside the data's
    /// cluster structure so it lands in a realistic list.
    fn fresh_vector(&mut self) -> Vec<f32> {
        let row = self.rng.random_range(0..self.base.len());
        self.base
            .row(row)
            .iter()
            .map(|&x| x + self.rng.random_range(-0.02f32..0.02))
            .collect()
    }

    /// One cycle: the upsert burst, the delete burst, then `compact()`.
    /// Returns acknowledged operations and the cycle's wall time.
    pub fn cycle(
        &mut self,
        engine: &HarmonyEngine,
        churn: Churn,
        tracer: &Tracer,
        parent: u64,
        tally: &mut Tally,
    ) -> (u64, f64) {
        let shared = Arc::clone(&self.shared);
        let cycle_no = shared.cycle.load(Ordering::Acquire);
        let t0 = Instant::now();
        let mut acked = 0u64;
        let mut written = HashSet::new();
        let mut fresh = Vec::with_capacity(churn.upserts);

        let span = tracer.begin("engine.upsert", parent);
        for i in 0..churn.upserts {
            let id = if i % 2 == 0 {
                self.next_new += 1;
                self.next_new
            } else {
                let dead = shared.dead.lock().expect("reader never panics");
                self.victim(&dead, &written)
            };
            let v = self.fresh_vector();
            let t = Instant::now();
            let r = engine.upsert(id, &v);
            self.lat.upsert.push(t.elapsed().as_secs_f64());
            if tally.record("upsert", 1, r).is_some() {
                acked += 1;
                written.insert(id);
                self.overrides.insert(id, v.clone());
                fresh.push((id, v));
            }
        }
        tracer.end(span, churn.upserts as u64);
        *shared.fresh.lock().expect("reader never panics") = Arc::new(fresh);

        let span = tracer.begin("engine.delete", parent);
        for _ in 0..churn.deletes {
            let id = {
                let dead = shared.dead.lock().expect("reader never panics");
                self.victim(&dead, &written)
            };
            let t = Instant::now();
            let r = engine.delete(id);
            self.lat.delete.push(t.elapsed().as_secs_f64());
            if let Some(was_live) = tally.record("delete", 1, r) {
                tally.check(was_live, "delete of a live id reported it absent");
                acked += 1;
                self.overrides.remove(&id);
                shared
                    .dead
                    .lock()
                    .expect("reader never panics")
                    .insert(id, cycle_no);
            }
        }
        tracer.end(span, churn.deletes as u64);

        let t = Instant::now();
        let report = tracer.span("engine.compact", parent, |_| engine.compact());
        self.lat.compact.push(t.elapsed().as_secs_f64());
        if let Some(report) = tally.record("compact", 1, report) {
            tally.check(
                !report.noop && report.folded_rows > 0,
                "compaction folded nothing",
            );
        }

        self.recent.push_back(written);
        if self.recent.len() > RECENT_CYCLES {
            self.recent.pop_front();
        }
        shared.cycle.store(cycle_no + 1, Ordering::Release);
        (acked, t0.elapsed().as_secs_f64())
    }

    /// The logical live set: base minus deleted and overwritten rows, plus
    /// the current vector of every written id.
    pub fn live_set(&self) -> VectorStore {
        let dead = self.shared.dead.lock().expect("reader never panics");
        let mut live = VectorStore::with_capacity(self.base.dim(), self.base.len());
        for (id, row) in self.base.iter() {
            if !dead.contains_key(&id) && !self.overrides.contains_key(&id) {
                live.push(id, row).expect("base rows share one dim");
            }
        }
        // Sorted so the oracle's tie-breaking does not depend on hash order.
        let mut written: Vec<_> = self.overrides.iter().collect();
        written.sort_by_key(|(id, _)| **id);
        for (id, v) in written {
            live.push(*id, v).expect("written rows share the base dim");
        }
        live
    }
}
