//! Run scoring: how a *run* — one list of the block, or the shard's delta
//! prefix, against one query — is scored into a buffer before the walk
//! ([`super::scan`]) settles it. `BlockRepr` contract point 1 (DESIGN.md
//! §5): exact rows through the blocked f32 kernels (the first hop's
//! register tile and L2 prefix pass, the carried hops' four-row gather),
//! SQ8 through the blocked u8 kernels and its integer cutoff. What a
//! metric contributes ([`MetricOps`]) and what the walk reads of a run's
//! rows beside their scores ([`Rows`]) are stated here too.

use harmony_index::distance::{f32_rows_at, l2_sq_prefix_keep, u8_rows, u8_rows_at};
use harmony_index::{DeltaList, Metric, Sq8Segment, TombstoneSet, TopK};

use super::scan::{Bounds, HopEnv, QuerySlot};
use super::store::ListBlock;
use crate::pruning::PruneRule;

/// What a metric contributes to the scan: whether a partial is a distance
/// or a negated dot product, how far SQ8 may have moved a score, how a
/// full partial becomes a result score and when a partial can be
/// discarded. Resolved once per sub-batch ([`super::scan_hop`]), so the
/// row loop is monomorphised and carries no metric branch.
pub(super) trait MetricOps {
    /// The metric, as the kernels take it.
    const METRIC: Metric;

    /// Inner-product family: partials are negated dot products, rows carry
    /// norm tables and partials are bounded by Cauchy–Schwarz residuals
    /// instead of by monotonicity.
    const IP: bool = !matches!(Self::METRIC, Metric::L2);

    /// This list's prune-widening term (see the `pruning` module docs) from
    /// the query's exact quantization error `err` and the segment's
    /// data-side bound `data_err`: distance-space under L2, dot-space under
    /// IP/cosine.
    fn sq8_eps(err: f32, data_err: f32, max_block_norm_sq: f32, q_block_norm_sq: f32) -> f32;

    /// Result score of a fully accumulated partial.
    #[inline]
    fn finish(partial: f32, _q_total_sq: f32, _p_total_sq: f32) -> f32 {
        partial
    }

    /// Whether even the best completion of `partial` misses `threshold`.
    #[inline]
    fn prune(rule: &PruneRule, partial: f32, threshold: f32, rest: Rest, eps: f32) -> bool {
        rule.should_prune_quantized(partial, threshold, rest.q_rest_sq, rest.p_rest_sq, eps)
    }
}

/// Residual and full squared norms of query and candidate (zeros under L2;
/// residuals zero on the last hop, where the partial is the full score).
#[derive(Clone, Copy, Default)]
pub(super) struct Rest {
    pub(super) q_rest_sq: f32,
    pub(super) p_rest_sq: f32,
    pub(super) q_total_sq: f32,
    pub(super) p_total_sq: f32,
}

pub(super) struct L2Ops;
pub(super) struct IpOps;
pub(super) struct CosOps;

impl MetricOps for L2Ops {
    const METRIC: Metric = Metric::L2;

    // Triangle inequality: ‖q−p‖ ≥ ‖dq(q)−dq(p)‖ − (E_q+E_p).
    fn sq8_eps(err: f32, data_err: f32, _max_block_norm_sq: f32, _q_block_norm_sq: f32) -> f32 {
        err + data_err
    }
}

impl MetricOps for IpOps {
    const METRIC: Metric = Metric::InnerProduct;

    // |q·p − dq(q)·dq(p)| ≤ E_q·‖p‖ + (‖q‖+E_q)·E_p. The stored block norms
    // are exact — `cut_list` takes them from the rows before it quantizes
    // them, on every route to an epoch — so their maximum bounds ‖p‖ as is.
    fn sq8_eps(err: f32, data_err: f32, max_block_norm_sq: f32, q_block_norm_sq: f32) -> f32 {
        let p_norm = max_block_norm_sq.max(0.0).sqrt();
        err * p_norm + (q_block_norm_sq.max(0.0).sqrt() + err) * data_err
    }
}

impl MetricOps for CosOps {
    const METRIC: Metric = Metric::Cosine;

    fn sq8_eps(err: f32, data_err: f32, max_block_norm_sq: f32, q_block_norm_sq: f32) -> f32 {
        IpOps::sq8_eps(err, data_err, max_block_norm_sq, q_block_norm_sq)
    }

    /// Normalized by the full vector norms so worker results land in the
    /// same lower-is-better space as the client's prewarm scores
    /// ([`Metric::score`]), even for unnormalized inputs. Zero-norm vectors
    /// score 0, matching [`harmony_index::distance::cosine`].
    #[inline]
    fn finish(partial: f32, q_total_sq: f32, p_total_sq: f32) -> f32 {
        let denom = (q_total_sq * p_total_sq).sqrt();
        if denom > 0.0 {
            partial / denom
        } else {
            0.0
        }
    }

    #[inline]
    fn prune(rule: &PruneRule, partial: f32, threshold: f32, rest: Rest, eps: f32) -> bool {
        rule.should_prune_cosine_quantized(
            partial,
            threshold,
            rest.q_rest_sq,
            rest.p_rest_sq,
            rest.q_total_sq,
            rest.p_total_sq,
            eps,
        )
    }
}

/// Coordinates of an L2 first-hop run's prefix pass (DESIGN.md §5): every
/// candidate is scored on its block's first `PREFIX` coordinates, and only
/// those whose partial does not fail the hop's test already are scored over
/// the whole block.
pub(super) const PREFIX: usize = 8;

/// Narrowest exact block the prefix pass runs on. Not the pass's own
/// break-even: on 64-wide rows it still saves time. But cheaper 64-wide
/// first hops move the planner's timed rates onto near-ties between plans
/// of 64-d corpora (DESIGN.md §9): a stale `4v x 1d` plan no longer priced
/// dear enough to leave under induced skew, and `tenants_cold` and
/// `scan_uniform` picking either plan build to build. Lower it to the
/// break-even once the planner tolerates those ties.
pub(super) const PREFIX_MIN_WIDTH: usize = 128;

/// The eligibility rule of the prefix pass, one per hop: L2 over exact
/// rows at least [`PREFIX_MIN_WIDTH`] wide, on the first hop (the
/// reference scoring of the tests aside).
pub(super) fn prefix_eligible<M: MetricOps>(env: &HopEnv<'_>, width: usize) -> bool {
    !M::IP && width >= PREFIX_MIN_WIDTH && env.carry.is_none() && env.shortcuts()
}

/// What the next run of `slot` on an eligible hop ([`prefix_eligible`])
/// drops a candidate beyond after the prefix pass, if its test can drop:
/// the walk's own, which on a first hop has no slack — `τ` on a forwarding
/// hop, the smaller of `τ` and the local top-k's bound at the run's start
/// on the last. That bound only falls during the run, so whatever it
/// drops the walk would drop too.
pub(super) fn prefix_bound(env: &HopEnv<'_>, slot: &QuerySlot) -> Option<f32> {
    if !env.rule.enabled() {
        return None;
    }
    let top = slot
        .out
        .topk
        .as_ref()
        .map_or(f32::INFINITY, TopK::threshold);
    let bound = slot.threshold.min(top);
    (bound < f32::INFINITY).then_some(bound)
}

/// What the walk reads of one run's rows beside their scores: a list
/// restricted to this block ([`ListRows`]) or the shard's delta prefix
/// ([`DeltaRows`]).
pub(super) trait Rows {
    /// Squared norm of `row`'s coordinates in this block (IP metrics).
    fn block_norm_sq(&self, row: usize) -> f32;
    /// Squared norm of `row`'s full vector (IP metrics).
    fn total_norm_sq(&self, row: usize) -> f32;
    fn id(&self, row: usize) -> u64;
    /// Soft-deleted: dropped at emission only, so the enumeration itself
    /// is untouched.
    fn suppressed(&self, tombstones: &TombstoneSet, row: usize) -> bool;
}

/// A list restricted to this block.
pub(super) struct ListRows<'a>(pub(super) &'a ListBlock);

/// The shard's delta rows from the `.1`-th on, exact f32 whatever the
/// block representation.
pub(super) struct DeltaRows<'a>(pub(super) &'a DeltaList, pub(super) usize);

impl Rows for ListRows<'_> {
    #[inline]
    fn block_norm_sq(&self, row: usize) -> f32 {
        self.0.block_norms_sq[row]
    }
    #[inline]
    fn total_norm_sq(&self, row: usize) -> f32 {
        self.0.total_norms_sq[row]
    }
    #[inline]
    fn id(&self, row: usize) -> u64 {
        self.0.ids[row]
    }
    #[inline]
    fn suppressed(&self, tombstones: &TombstoneSet, row: usize) -> bool {
        tombstones.suppresses_list_row(self.0.ids[row])
    }
}

impl Rows for DeltaRows<'_> {
    #[inline]
    fn block_norm_sq(&self, row: usize) -> f32 {
        self.0.block_norm_sq(self.1 + row)
    }
    #[inline]
    fn total_norm_sq(&self, row: usize) -> f32 {
        self.0.total_norm_sq(self.1 + row)
    }
    #[inline]
    fn id(&self, row: usize) -> u64 {
        self.0.id(self.1 + row)
    }
    #[inline]
    fn suppressed(&self, tombstones: &TombstoneSet, row: usize) -> bool {
        let row = self.1 + row;
        tombstones.suppresses_delta_row(self.0.id(row), self.0.seq(row))
    }
}

/// One `(query, run)` scored before it is settled — `BlockRepr` contract
/// point 1 (DESIGN.md §5) as data: a representation joins the scan by
/// scoring a run into this, with its blocked kernels, and the walk
/// (`scan_run`) never learns which one it settles.
#[derive(Clone, Copy)]
pub(super) struct Scored<'a> {
    /// This block's contribution to each candidate's partial, in walk
    /// order: by row on the first hop, by carried survivor on later ones.
    pub(super) partials: &'a [f32],
    /// Candidates that entered the run.
    pub(super) len: usize,
    /// Where an L2 prefix pass dropped candidates: the walk positions of
    /// the survivors, ascending, `partials` holding theirs only.
    pub(super) sel: Option<&'a [u32]>,
    /// `(kernel integer per candidate, cut)` where the run has settled the
    /// threshold test exactly already (SQ8's L2 first-hop cutoff): a
    /// candidate is pruned iff its integer exceeds `cut`.
    pub(super) cut: Option<(&'a [u32], u32)>,
    /// The run's own prune slack (0 for exact rows).
    pub(super) eps: f32,
}

/// A run's rows as the kernels read them.
#[derive(Clone, Copy)]
pub(super) enum RunData<'a> {
    /// Exact row-major rows: a list's, or the shard's delta prefix.
    F32(&'a [f32]),
    /// A list's SQ8 codes, with the list's largest block norm (the `‖p‖`
    /// of the inner-product slack).
    Sq8(&'a Sq8Segment, f32),
}

/// The buffers one run is scored into, then settled from.
#[derive(Default)]
pub(super) struct RunScratch {
    /// SQ8: the query slice's codes against the list's segment.
    codes: Vec<u8>,
    /// On a carried hop, the rows of the run its survivors sit at, in
    /// carry order.
    pub(super) picks: Vec<u32>,
    /// SQ8: the kernel's integer per candidate.
    ints: Vec<u32>,
    /// Each candidate's partial, in walk order; after a first-hop tile,
    /// every query of the group's, query-major.
    pub(super) partials: Vec<f32>,
    /// L2 prefix pass: the walk positions of the candidates it kept.
    sel: Vec<u32>,
    /// Candidates the prefix pass has dropped, for the oracle test to see
    /// that its fixture engages it.
    #[cfg(test)]
    pub(super) prefix_dropped: u64,
}

impl RunScratch {
    /// The first `len` candidates scored, with the run's prune slack and
    /// its L2 first-hop cutoff on the kernel integer, where one applies.
    fn scored(&self, len: usize, eps: f32, cut: Option<u32>) -> Scored<'_> {
        Scored {
            partials: &self.partials[..len],
            len,
            sel: None,
            cut: cut.map(|cut| (&self.ints[..len], cut)),
            eps,
        }
    }

    /// The candidates of `slot`'s run of `n` rows: `n` on the first hop;
    /// on later ones the carried survivors that fall inside the run (runs
    /// and survivor indices both ascend), whose rows land in `picks`.
    fn pick(&mut self, env: &HopEnv<'_>, slot: &QuerySlot, n: usize) -> usize {
        self.picks.clear();
        let Some(carry) = env.carry else { return n };
        self.picks.extend(
            carry.indices[slot.cursor..slot.carried_end]
                .iter()
                .map(|&index| index.wrapping_sub(slot.base))
                .take_while(|&row| (row as usize) < n),
        );
        self.picks.len()
    }

    /// Exact rows' scoring step for one `(query, run)` on a carried hop:
    /// the carried survivors inside the run's `n` rows of `rows` (row-major,
    /// `q.len()` wide), gathered four per pass in carry order, into
    /// `partials`. First hops score exact runs a group of queries at a time
    /// ([`super::scan`]: the register tile and the prefix pass); only the
    /// reference scoring of the tests scores them here, row by row.
    pub(super) fn score_f32<M: MetricOps>(
        &mut self,
        env: &HopEnv<'_>,
        rows: &[f32],
        n: usize,
        q: &[f32],
        slot: &QuerySlot,
    ) -> Scored<'_> {
        let len = self.pick(env, slot, n);
        grow(&mut self.partials, len);
        #[cfg(test)]
        if env.by_rows {
            super::tests::oracle::score_f32_by_rows::<M>(self, rows, q, len);
            return self.scored(len, 0.0, None);
        }
        // On a first hop `pick` leaves `picks` empty for all `len` rows.
        debug_assert!(env.carry.is_some(), "first-hop exact runs are tiled");
        f32_rows_at(M::METRIC, q, rows, &self.picks, &mut self.partials[..len]);
        self.scored(len, 0.0, None)
    }

    /// L2's two passes over the `len` rows of a first-hop run: the first
    /// [`PREFIX`] coordinates of every row, then, with the four-row gather,
    /// the whole of those whose prefix is not beyond `bound`. The prefix
    /// kernel sums its lanes as the row kernels sum their first ones, so a
    /// prefix is never above the row's partial and every candidate dropped
    /// is one the walk would prune (DESIGN.md §5). Kept out of line, so the
    /// one-pass runs' scoring step stays as small as it was.
    #[inline(never)]
    pub(super) fn score_prefixed(
        &mut self,
        rows: &[f32],
        len: usize,
        q: &[f32],
        bound: f32,
    ) -> Scored<'_> {
        grow(&mut self.sel, len);
        grow(&mut self.partials, len);
        // Kept: `!(prefix > bound)`, as the walk's compaction.
        let kept = l2_sq_prefix_keep(&q[..PREFIX], rows, q.len(), bound, &mut self.sel[..len]);
        #[cfg(test)]
        {
            self.prefix_dropped += (len - kept) as u64;
        }
        let sel = &self.sel[..kept];
        f32_rows_at(Metric::L2, q, rows, sel, &mut self.partials[..kept]);
        Scored {
            partials: &self.partials[..kept],
            len,
            sel: Some(sel),
            cut: None,
            eps: 0.0,
        }
    }

    /// SQ8's scoring step for one `(query, list)` run of `n` rows, whose
    /// largest block norm is `max_block_norm_sq`. Quantizes the query slice
    /// `q` once, into `codes`; scores the run's candidates with the blocked
    /// u8 kernels into `ints`; and turns each integer into its partial with
    /// the segment's own formula, so every partial is bit for bit what
    /// `quant::l2_partial_row` / `ip_dot_row` give. On an L2 first hop that
    /// is not the last, the prune test depends on the integer alone
    /// (DESIGN.md §5), so one cutoff per run settles it.
    pub(super) fn score_sq8<M: MetricOps>(
        &mut self,
        env: &HopEnv<'_>,
        (seg, max_block_norm_sq): (&Sq8Segment, f32),
        n: usize,
        q: &[f32],
        slot: &QuerySlot,
    ) -> Scored<'_> {
        let len = self.pick(env, slot, n);
        grow(&mut self.partials, len);
        #[cfg(test)]
        if env.by_rows {
            let eps = super::tests::oracle::score_sq8_by_rows::<M>(
                self,
                (seg, max_block_norm_sq),
                q,
                slot,
                len,
            );
            return self.scored(len, eps, None);
        }
        let (q_code_sum, err_sq) = seg.quantize_query_into(q, &mut self.codes);
        // `prepare_block_query`'s sums over segments, for one segment.
        let data_err = {
            let e = seg.row_error_bound();
            (e * e).sqrt()
        };
        let eps = M::sq8_eps(
            err_sq.sqrt(),
            data_err,
            max_block_norm_sq,
            slot.q_block_norm_sq,
        );
        grow(&mut self.ints, len);
        let ints = &mut self.ints[..len];
        match env.carry {
            None => u8_rows(M::METRIC, &self.codes, &seg.codes, ints),
            Some(_) => u8_rows_at(M::METRIC, &self.codes, &seg.codes, &self.picks, ints),
        }
        for (i, (p, &int)) in self.partials.iter_mut().zip(&*ints).enumerate() {
            let row = match env.carry {
                None => i,
                Some(_) => self.picks[i] as usize,
            };
            *p = if M::IP {
                -seg.ip_of(q_code_sum, row, int)
            } else {
                seg.l2_of(int)
            };
        }
        let cut = if env.carry.is_none() && !env.is_last && !M::IP {
            let b = Bounds::of(slot, eps);
            env.rule
                .l2_cutoff(seg.scale * seg.scale, b.threshold, b.eps, seg.max_l2_int())
        } else {
            None
        };
        self.scored(len, eps, cut)
    }
}

/// Lengthens a reused buffer to at least `n` entries; it never shrinks.
pub(super) fn grow<T: Copy + Default>(buf: &mut Vec<T>, n: usize) {
    if buf.len() < n {
        buf.resize(n, T::default());
    }
}
