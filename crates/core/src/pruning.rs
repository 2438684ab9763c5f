//! Dimension-level early-stop pruning (§3.1 "Motivation 1", §4.3).
//!
//! Under squared L2, the partial sums accumulated along the dimension
//! pipeline are non-decreasing, so a candidate whose running sum exceeds the
//! current top-k threshold `τ²` can never re-enter the top-k: pruning is
//! *exact*. Under inner-product metrics the partial terms may be negative;
//! the paper sidesteps this by assuming pre-normalization. We implement the
//! general admissible bound instead: by Cauchy–Schwarz the best possible
//! completion of a partial dot product is `‖q_rest‖·‖p_rest‖`, so with
//! lower-is-better scores (negated dot products)
//!
//! ```text
//! final_score ≥ partial_score − √(q_rest² · p_rest²)
//! ```
//!
//! and a candidate is pruned when even that optimistic bound exceeds `τ`.
//! The residual norms come from per-block norm tables shipped at build time
//! (`ClusterBlock::{block,total}_norms_sq`).
//!
//! Cosine adds one more step: final scores are the negated dot product
//! *divided by the full norms* (`-q·p / (‖q‖‖p‖)`), so the optimistic
//! completion bound must be rescaled into that normalized space before it
//! is compared against `τ` — see [`PruneRule::should_prune_cosine`]. This
//! keeps worker-side partials comparable with the client-side prewarm
//! scores ([`Metric::score`]) even for unnormalized inputs.
//!
//! ## Quantized (SQ8) partials
//!
//! When blocks are stored SQ8-quantized, the stage-1 partials are computed
//! over *dequantized* coordinates, so they differ from the exact partials by
//! a bounded perturbation. Comparing a quantized partial against an
//! exact-domain threshold `τ` (the client's prewarm threshold and the final
//! re-ranked scores are exact) therefore requires *widening* the prune test
//! by the accumulated quantization error, or exact survivors could be
//! dropped:
//!
//! * **L2** — with `ε = ε_q + ε_p` (query- and point-side row error bounds
//!   accumulated additively along the pipeline),
//!   `‖q−p‖ ≥ ‖dq(q)−dq(p)‖ − ε`, so prune iff
//!   `(√partial − ε)₊² > τ` ([`PruneRule::should_prune_quantized`]).
//! * **IP / cosine** — the dequantized dot product differs from the exact
//!   one by at most `ε_q·max‖p‖ + (‖q‖+ε_q)·ε_p` per block; that slack is
//!   subtracted from the admissible bound (cosine: before normalization,
//!   [`PruneRule::should_prune_cosine_quantized`]).
//!
//! Comparisons *within* the quantized domain (a worker-local top-k built
//! from quantized scores, compared against quantized scores) need no
//! widening — both sides carry the same perturbation. The widening is only
//! for mixed-domain tests, and `quant_eps = 0` reduces every quantized rule
//! to its exact counterpart.

use harmony_index::Metric;

/// Decides whether candidates can be discarded given partial information.
#[derive(Debug, Clone, Copy)]
pub struct PruneRule {
    metric: Metric,
    enabled: bool,
}

impl PruneRule {
    /// A rule for `metric`; `enabled = false` never prunes (the ablation
    /// baseline of Fig. 9).
    pub fn new(metric: Metric, enabled: bool) -> Self {
        Self { metric, enabled }
    }

    /// The metric this rule serves.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// `true` when pruning is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Should a candidate be pruned?
    ///
    /// * `partial` — accumulated lower-is-better partial score,
    /// * `threshold` — current `τ` (the k-th best full score),
    /// * `q_rest_sq` / `p_rest_sq` — squared norms of the *unvisited*
    ///   coordinates of query and candidate (ignored under L2).
    #[inline]
    pub fn should_prune(
        &self,
        partial: f32,
        threshold: f32,
        q_rest_sq: f32,
        p_rest_sq: f32,
    ) -> bool {
        if !self.enabled || threshold == f32::INFINITY {
            return false;
        }
        match self.metric {
            // L2 partials only grow: the current sum is already a valid
            // lower bound on the final score.
            Metric::L2 => partial > threshold,
            // Optimistic completion via Cauchy–Schwarz.
            Metric::InnerProduct | Metric::Cosine => {
                let best_remaining = (q_rest_sq.max(0.0) * p_rest_sq.max(0.0)).sqrt();
                partial - best_remaining > threshold
            }
        }
    }

    /// Cosine-specific prune test on an accumulated *raw* (negated dot
    /// product) partial.
    ///
    /// The admissible bound is the inner-product completion bound rescaled
    /// by the full norms: since the final cosine score is
    /// `-q·p / (‖q‖‖p‖)` and `-q·p ≥ partial − √(q_rest²·p_rest²)`,
    ///
    /// ```text
    /// final_score ≥ (partial − √(q_rest² · p_rest²)) / √(q_total² · p_total²)
    /// ```
    ///
    /// Zero-norm vectors score exactly 0 (matching
    /// [`harmony_index::distance::cosine`]), so their bound is 0 as well.
    #[inline]
    pub fn should_prune_cosine(
        &self,
        partial: f32,
        threshold: f32,
        q_rest_sq: f32,
        p_rest_sq: f32,
        q_total_sq: f32,
        p_total_sq: f32,
    ) -> bool {
        if !self.enabled || threshold == f32::INFINITY {
            return false;
        }
        let best_remaining = (q_rest_sq.max(0.0) * p_rest_sq.max(0.0)).sqrt();
        let denom = (q_total_sq.max(0.0) * p_total_sq.max(0.0)).sqrt();
        let bound = if denom > 0.0 {
            (partial - best_remaining) / denom
        } else {
            0.0
        };
        bound > threshold
    }

    /// [`Self::should_prune`] widened by accumulated quantization error, for
    /// SQ8 stage-1 partials compared against an exact-domain threshold.
    ///
    /// * Under L2, `quant_eps` is an upper bound on
    ///   `‖q − dq(q)‖ + ‖p − dq(p)‖` over the visited dimensions, so by the
    ///   triangle inequality the exact distance satisfies
    ///   `‖q−p‖ ≥ √partial − quant_eps` and the admissible squared lower
    ///   bound is `max(0, √partial − quant_eps)²`.
    /// * Under IP/cosine, `quant_eps` is an upper bound on the absolute dot
    ///   product error over the visited dimensions and is subtracted from
    ///   the optimistic completion directly.
    ///
    /// `quant_eps <= 0` delegates to the exact rule unchanged.
    #[inline]
    pub fn should_prune_quantized(
        &self,
        partial: f32,
        threshold: f32,
        q_rest_sq: f32,
        p_rest_sq: f32,
        quant_eps: f32,
    ) -> bool {
        if quant_eps <= 0.0 {
            return self.should_prune(partial, threshold, q_rest_sq, p_rest_sq);
        }
        if !self.enabled || threshold == f32::INFINITY {
            return false;
        }
        match self.metric {
            Metric::L2 => {
                let lower = (partial.max(0.0).sqrt() - quant_eps).max(0.0);
                lower * lower > threshold
            }
            Metric::InnerProduct | Metric::Cosine => {
                let best_remaining = (q_rest_sq.max(0.0) * p_rest_sq.max(0.0)).sqrt();
                partial - best_remaining - quant_eps > threshold
            }
        }
    }

    /// [`Self::should_prune_cosine`] widened by accumulated quantization
    /// error: the raw-dot-product slack `quant_eps` is subtracted from the
    /// numerator *before* normalization, since the error lives in the
    /// unnormalized dot-product space.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn should_prune_cosine_quantized(
        &self,
        partial: f32,
        threshold: f32,
        q_rest_sq: f32,
        p_rest_sq: f32,
        q_total_sq: f32,
        p_total_sq: f32,
        quant_eps: f32,
    ) -> bool {
        if quant_eps <= 0.0 {
            return self.should_prune_cosine(
                partial, threshold, q_rest_sq, p_rest_sq, q_total_sq, p_total_sq,
            );
        }
        if !self.enabled || threshold == f32::INFINITY {
            return false;
        }
        let best_remaining = (q_rest_sq.max(0.0) * p_rest_sq.max(0.0)).sqrt();
        let denom = (q_total_sq.max(0.0) * p_total_sq.max(0.0)).sqrt();
        let bound = if denom > 0.0 {
            (partial - best_remaining - quant_eps) / denom
        } else {
            0.0
        };
        bound > threshold
    }

    /// The L2 test of a run whose candidates differ only in an integer:
    /// each candidate's partial is `scale_sq · (d as f32)` for its kernel
    /// integer `d ∈ [0, max_d]`, and `threshold` and `quant_eps` are the
    /// run's. Returns `Some(cut)` such that
    /// `should_prune_quantized(scale_sq · (d as f32), threshold, 0, 0,
    /// quant_eps)` holds exactly when `d > cut`, or `None` when it holds
    /// even at `d = 0`.
    ///
    /// That test is a chain of correctly rounded monotone steps — `d as
    /// f32`, the product with `scale_sq ≥ 0`, `max`, `sqrt`, subtracting
    /// `quant_eps`, `max`, squaring, the compare — so it is monotone in
    /// `d`, and one search per run stands in for one test per row. The
    /// search starts at the real-valued boundary `(√τ + ε)² / scale_sq`,
    /// gallops outward until it brackets the integer one, and bisects the
    /// bracket: a handful of tests where the estimate is good, about
    /// `2·log₂(max_d)` where it is not.
    pub fn l2_cutoff(
        &self,
        scale_sq: f32,
        threshold: f32,
        quant_eps: f32,
        max_d: u32,
    ) -> Option<u32> {
        debug_assert_eq!(self.metric, Metric::L2);
        let pruned = |d: u32| {
            self.should_prune_quantized(scale_sq * d as f32, threshold, 0.0, 0.0, quant_eps)
        };
        if pruned(0) {
            return None;
        }
        if !pruned(max_d) {
            return Some(max_d);
        }
        // From here on `!pruned(lo) && pruned(hi)`.
        let reach = f64::from(threshold).sqrt() + f64::from(quant_eps.max(0.0));
        let guess = ((reach * reach / f64::from(scale_sq)) as u32).min(max_d);
        let (mut lo, mut hi, mut step) = (0, max_d, 1u32);
        if pruned(guess) {
            hi = guess;
            while hi - lo > step {
                if !pruned(hi - step) {
                    lo = hi - step;
                    break;
                }
                hi -= step;
                step = step.saturating_mul(2);
            }
        } else {
            lo = guess;
            while hi - lo > step {
                if pruned(lo + step) {
                    hi = lo + step;
                    break;
                }
                lo += step;
                step = step.saturating_mul(2);
            }
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if pruned(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(lo)
    }
}

/// Client-side accumulator of per-slice pruning ratios (Fig. 2a, Table 3).
///
/// `record(position, seen, pruned)` is fed from worker stats; ratios are
/// *cumulative*: `ratio(i)` = the fraction of slice-0 candidates already
/// gone when slice `i` runs, matching the paper's presentation where the
/// first slice is always 0 %.
#[derive(Debug, Clone, Default)]
pub struct SliceStats {
    /// Candidates entering each pipeline position.
    pub seen: Vec<u64>,
    /// Candidates pruned at each pipeline position.
    pub pruned: Vec<u64>,
}

impl SliceStats {
    /// Creates stats for a pipeline of `positions` slices.
    pub fn new(positions: usize) -> Self {
        Self {
            seen: vec![0; positions],
            pruned: vec![0; positions],
        }
    }

    /// Accumulates one worker's report.
    pub fn merge_report(&mut self, slice_in: &[u64], slice_pruned: &[u64]) {
        let len = self.seen.len().max(slice_in.len()).max(slice_pruned.len());
        self.seen.resize(len, 0);
        self.pruned.resize(len, 0);
        for (i, &v) in slice_in.iter().enumerate() {
            self.seen[i] += v;
        }
        for (i, &v) in slice_pruned.iter().enumerate() {
            self.pruned[i] += v;
        }
    }

    /// Cumulative pruning ratio per slice, in percent. Slice 0 is 0 % by
    /// construction.
    pub fn cumulative_ratios(&self) -> Vec<f64> {
        let total = self.seen.first().copied().unwrap_or(0);
        if total == 0 {
            return vec![0.0; self.seen.len()];
        }
        self.seen
            .iter()
            .map(|&reached| (1.0 - reached as f64 / total as f64) * 100.0)
            .collect()
    }

    /// Average of the per-slice cumulative ratios (the paper's "Average
    /// Pruning Ratio" column in Table 3).
    pub fn average_ratio(&self) -> f64 {
        let ratios = self.cumulative_ratios();
        if ratios.is_empty() {
            return 0.0;
        }
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }

    /// Fraction of point-dimension work skipped overall: pruned candidates
    /// skip all their remaining slices.
    pub fn work_saved_percent(&self) -> f64 {
        let slices = self.seen.len();
        if slices == 0 || self.seen[0] == 0 {
            return 0.0;
        }
        let full_work = (self.seen[0] * slices as u64) as f64;
        let done_work: f64 = self.seen.iter().map(|&s| s as f64).sum();
        (1.0 - done_work / full_work) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_prunes_on_partial_exceeding_threshold() {
        let rule = PruneRule::new(Metric::L2, true);
        assert!(rule.should_prune(5.0, 4.0, 0.0, 0.0));
        assert!(!rule.should_prune(3.0, 4.0, 0.0, 0.0));
        // Equal is not strictly greater: keep (could still tie into top-k).
        assert!(!rule.should_prune(4.0, 4.0, 0.0, 0.0));
    }

    #[test]
    fn disabled_rule_never_prunes() {
        let rule = PruneRule::new(Metric::L2, false);
        assert!(!rule.should_prune(1e9, 0.0, 0.0, 0.0));
    }

    #[test]
    fn infinite_threshold_never_prunes() {
        let rule = PruneRule::new(Metric::L2, true);
        assert!(!rule.should_prune(1e9, f32::INFINITY, 0.0, 0.0));
    }

    #[test]
    fn ip_uses_cauchy_schwarz_bound() {
        let rule = PruneRule::new(Metric::InnerProduct, true);
        // partial = -2 (i.e. dot product 2 so far); remaining best is
        // sqrt(1*4) = 2, so the final score can reach -4.
        assert!(!rule.should_prune(-2.0, -3.5, 1.0, 4.0));
        // With tiny residuals the bound collapses to the partial itself.
        assert!(rule.should_prune(-2.0, -3.5, 0.01, 0.01));
    }

    #[test]
    fn ip_bound_is_admissible() {
        // Construct explicit vectors and verify the bound never prunes the
        // true best completion.
        let q = [1.0f32, 0.0, 2.0, -1.0];
        let p = [0.5f32, 1.0, -0.5, 2.0];
        let split = 2;
        let partial: f32 = -(q[..split]
            .iter()
            .zip(&p[..split])
            .map(|(a, b)| a * b)
            .sum::<f32>());
        let full: f32 = -(q.iter().zip(&p).map(|(a, b)| a * b).sum::<f32>());
        let q_rest_sq: f32 = q[split..].iter().map(|x| x * x).sum();
        let p_rest_sq: f32 = p[split..].iter().map(|x| x * x).sum();
        let bound = partial - (q_rest_sq * p_rest_sq).sqrt();
        assert!(
            bound <= full + 1e-6,
            "bound {bound} must lower-bound the final score {full}"
        );
        // Therefore pruning with threshold >= full never fires.
        let rule = PruneRule::new(Metric::InnerProduct, true);
        assert!(!rule.should_prune(partial, full, q_rest_sq, p_rest_sq));
    }

    #[test]
    fn cosine_bound_is_admissible_for_unnormalized_vectors() {
        // Unnormalized vectors with very different magnitudes: the raw -q·p
        // partial would be wildly out of scale with a cosine threshold.
        let q = [3.0f32, -1.5, 4.0, 2.0];
        let p = [0.2f32, 0.1, -0.3, 0.05];
        let split = 2;
        let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>();
        let partial = -dot(&q[..split], &p[..split]);
        let q_rest_sq = dot(&q[split..], &q[split..]);
        let p_rest_sq = dot(&p[split..], &p[split..]);
        let q_total_sq = dot(&q, &q);
        let p_total_sq = dot(&p, &p);
        let full = -dot(&q, &p) / (q_total_sq * p_total_sq).sqrt();

        let rule = PruneRule::new(Metric::Cosine, true);
        // The true final score must never be pruned by its own threshold.
        assert!(
            !rule.should_prune_cosine(partial, full, q_rest_sq, p_rest_sq, q_total_sq, p_total_sq)
        );
        // A threshold strictly better than the best possible completion
        // does prune.
        let bound = (partial - (q_rest_sq * p_rest_sq).sqrt()) / (q_total_sq * p_total_sq).sqrt();
        assert!(rule.should_prune_cosine(
            partial,
            bound - 1e-3,
            q_rest_sq,
            p_rest_sq,
            q_total_sq,
            p_total_sq
        ));
    }

    #[test]
    fn cosine_bound_handles_zero_norms_and_disabled_rule() {
        let rule = PruneRule::new(Metric::Cosine, true);
        // Zero-norm candidate: score is defined as 0; prune only when the
        // threshold is better than 0.
        assert!(rule.should_prune_cosine(0.0, -0.5, 0.0, 0.0, 1.0, 0.0));
        assert!(!rule.should_prune_cosine(0.0, 0.5, 0.0, 0.0, 1.0, 0.0));
        let off = PruneRule::new(Metric::Cosine, false);
        assert!(!off.should_prune_cosine(1e9, -1.0, 0.0, 0.0, 1.0, 1.0));
        assert!(!rule.should_prune_cosine(1e9, f32::INFINITY, 0.0, 0.0, 1.0, 1.0));
    }

    #[test]
    fn quantized_l2_rule_is_widened_and_admissible() {
        let rule = PruneRule::new(Metric::L2, true);
        // Exact partial 9.0 (distance 3) with eps 0.5: lower bound is
        // (3 - 0.5)^2 = 6.25 — prune only past that.
        assert!(!rule.should_prune_quantized(9.0, 6.25, 0.0, 0.0, 0.5));
        assert!(rule.should_prune_quantized(9.0, 6.2, 0.0, 0.0, 0.5));
        // The exact rule would have pruned at tau = 8.0; the widened one
        // keeps the candidate because quantization might explain the gap.
        assert!(rule.should_prune(9.0, 8.0, 0.0, 0.0));
        assert!(!rule.should_prune_quantized(9.0, 8.0, 0.0, 0.0, 0.5));
        // eps = 0 degenerates to the exact rule.
        assert!(rule.should_prune_quantized(9.0, 8.0, 0.0, 0.0, 0.0));
        // Simulated quantized measurement of a true distance: the true
        // score must never be pruned by its own threshold when the
        // perturbation stays within eps.
        let true_dist_sq = 4.0f32;
        let eps = 0.25f32;
        for k in 0..20 {
            let noise = eps * (k as f32 / 19.0 * 2.0 - 1.0);
            let measured = (true_dist_sq.sqrt() + noise).powi(2);
            assert!(
                !rule.should_prune_quantized(measured, true_dist_sq, 0.0, 0.0, eps),
                "noise {noise} pruned the true score"
            );
        }
    }

    #[test]
    fn quantized_ip_and_cosine_rules_subtract_slack() {
        let ip = PruneRule::new(Metric::InnerProduct, true);
        // Exact rule prunes at partial - best_remaining > tau; the widened
        // rule gives quantization the benefit of the doubt.
        assert!(ip.should_prune(-2.0, -3.5, 0.01, 0.01));
        assert!(!ip.should_prune_quantized(-2.0, -3.5, 0.01, 0.01, 2.0));
        assert!(ip.should_prune_quantized(-2.0, -3.5, 0.01, 0.01, 0.5));
        assert!(!ip.should_prune_quantized(-2.0, f32::INFINITY, 0.0, 0.0, 0.5));

        let cos = PruneRule::new(Metric::Cosine, true);
        let (q_rest_sq, p_rest_sq, q_total_sq, p_total_sq) = (1.0, 1.0, 4.0, 4.0);
        let partial = -1.0f32;
        let exact_bound = (partial - 1.0) / 4.0; // -0.5
        assert!(cos.should_prune_cosine(
            partial,
            exact_bound - 1e-3,
            q_rest_sq,
            p_rest_sq,
            q_total_sq,
            p_total_sq
        ));
        // Slack 1.0 in dot space moves the bound to -0.75.
        assert!(!cos.should_prune_cosine_quantized(
            partial,
            exact_bound - 1e-3,
            q_rest_sq,
            p_rest_sq,
            q_total_sq,
            p_total_sq,
            1.0
        ));
        assert!(cos.should_prune_cosine_quantized(
            partial, -0.76, q_rest_sq, p_rest_sq, q_total_sq, p_total_sq, 1.0
        ));
        // Zero-norm candidates still score 0.
        assert!(cos.should_prune_cosine_quantized(0.0, -0.5, 0.0, 0.0, 1.0, 0.0, 1.0));
        assert!(!cos.should_prune_cosine_quantized(0.0, 0.5, 0.0, 0.0, 1.0, 0.0, 1.0));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

            /// SQ8's run cutoff is the per-row L2 test: `d > cut` exactly
            /// when `should_prune_quantized(scale²·d, τ, 0, 0, ε)` holds —
            /// at the cutoff and either side of it, at both ends of the
            /// range and at random integers — for thresholds infinite,
            /// zero, negative and inside the range, scales from subnormal
            /// to overflowing squares, zero and positive slack, and
            /// pruning on and off.
            #[test]
            fn sq8_l2_cutoff_is_the_per_row_test(
                scale_exp in -75i32..75,
                scale_mant in 1.0f32..2.0,
                tau_kind in 0usize..5,
                tau_frac in 0.0f32..1.0,
                eps_kind in 0usize..3,
                eps_frac in 0.0f32..1.0,
                enabled in proptest::bool::ANY,
                width in 1u32..65_537,
                draws in proptest::collection::vec(proptest::num::u32::ANY, 8..9),
            ) {
                let rule = PruneRule::new(Metric::L2, enabled);
                let scale = scale_mant * 2f32.powi(scale_exp);
                let scale_sq = scale * scale;
                let max_d = 65_025 * width;
                let inside = scale_sq * max_d as f32 * tau_frac;
                let threshold = match tau_kind {
                    0 => f32::INFINITY,
                    1 => 0.0,
                    2 => -1.0 - inside,
                    3 => inside * 1e-3,
                    _ => inside,
                };
                let eps = match eps_kind {
                    0 => 0.0,
                    1 => eps_frac * 1e-3,
                    _ => inside.sqrt() * eps_frac,
                };
                let cut = rule.l2_cutoff(scale_sq, threshold, eps, max_d);
                let mut at: Vec<u32> = draws.iter().map(|&r| r % (max_d + 1)).collect();
                at.extend([0, max_d]);
                if let Some(c) = cut {
                    at.extend([c.saturating_sub(1), c, (c + 1).min(max_d)]);
                }
                for d in at {
                    let want =
                        rule.should_prune_quantized(scale_sq * d as f32, threshold, 0.0, 0.0, eps);
                    prop_assert_eq!(cut.is_none_or(|c| d > c), want, "d = {}, cut = {:?}", d, cut);
                }
            }
        }
    }

    #[test]
    fn slice_stats_cumulative_ratios_match_paper_shape() {
        let mut s = SliceStats::new(4);
        // 1000 candidates enter slice 0; 505 survive to slice 1; etc. —
        // mirroring Fig. 2a's 0 / 49.5 / 82.3 / 97.4 %.
        s.merge_report(&[1000, 505, 177, 26], &[495, 328, 151, 20]);
        let ratios = s.cumulative_ratios();
        assert_eq!(ratios[0], 0.0);
        assert!((ratios[1] - 49.5).abs() < 0.01);
        assert!((ratios[2] - 82.3).abs() < 0.01);
        assert!((ratios[3] - 97.4).abs() < 0.01);
        assert!(s.average_ratio() > 50.0);
    }

    #[test]
    fn slice_stats_merge_accumulates() {
        let mut s = SliceStats::new(2);
        s.merge_report(&[10, 5], &[5, 2]);
        s.merge_report(&[10, 5], &[5, 2]);
        assert_eq!(s.seen, vec![20, 10]);
        assert_eq!(s.pruned, vec![10, 4]);
    }

    #[test]
    fn work_saved_reflects_skipped_slices() {
        let mut s = SliceStats::new(4);
        // No pruning: everyone visits all 4 slices → 0 % saved.
        s.merge_report(&[100, 100, 100, 100], &[0, 0, 0, 0]);
        assert_eq!(s.work_saved_percent(), 0.0);

        let mut s = SliceStats::new(4);
        // Everything pruned after slice 0 → 75 % of work skipped.
        s.merge_report(&[100, 0, 0, 0], &[100, 0, 0, 0]);
        assert!((s.work_saved_percent() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_quiet() {
        let s = SliceStats::new(0);
        assert_eq!(s.average_ratio(), 0.0);
        assert_eq!(s.work_saved_percent(), 0.0);
        let s = SliceStats::new(3);
        assert_eq!(s.cumulative_ratios(), vec![0.0, 0.0, 0.0]);
    }
}
