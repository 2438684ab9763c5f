//! Engine configuration — the paper's CLI surface (§5 *Parameters*).
//!
//! | Paper flag | Field |
//! |------------|-------|
//! | `--NMachine` | [`HarmonyConfig::n_machines`] |
//! | `--Pruning_Configuration` | [`HarmonyConfig::pruning`] |
//! | `--Indexing_Parameters` (`nlist`, `nprobe`, `dim`) | [`HarmonyConfig::nlist`], [`SearchOptions::nprobe`] |
//! | `--α` | [`HarmonyConfig::alpha`] |
//! | `--Mode` | [`HarmonyConfig::mode`] |
//!
//! Two additional switches, [`HarmonyConfig::pipeline`] and
//! [`HarmonyConfig::balanced_load`], expose the optimizations the paper
//! ablates in Fig. 9 ("+Balanced load", "+Pipeline and asynchronous
//! execution", "+Pruning").

use std::path::PathBuf;

use harmony_cluster::{DelayMode, NetworkModel, TransportKind};
use harmony_index::{BlockRepr, Metric};

use crate::error::CoreError;
use crate::partition::PartitionPlan;

/// Which distribution strategy the engine runs (`--Mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// Hybrid multi-granularity partitioning chosen by the cost model.
    #[default]
    Harmony,
    /// Pure vector-based partitioning (`B_vec = N, B_dim = 1`).
    HarmonyVector,
    /// Pure dimension-based partitioning (`B_vec = 1, B_dim = N`).
    HarmonyDimension,
}

impl EngineMode {
    /// Name used in reports, matching the paper's legend.
    pub fn name(self) -> &'static str {
        match self {
            EngineMode::Harmony => "Harmony",
            EngineMode::HarmonyVector => "Harmony-vector",
            EngineMode::HarmonyDimension => "Harmony-dimension",
        }
    }

    /// The three modes compared throughout §6.
    pub const ALL: [EngineMode; 3] = [
        EngineMode::Harmony,
        EngineMode::HarmonyVector,
        EngineMode::HarmonyDimension,
    ];
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Knobs of the adaptive replanning supervisor.
///
/// The supervisor folds live per-cluster probe counts into an *observed*
/// [`crate::cost::WorkloadProfile`], re-scores every factorization with the
/// §4.2.1 cost model extended by a migration-cost term, and live-migrates
/// to a better plan when the projected steady-state win amortizes the move
/// (see the `engine` module docs for epoch semantics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplanConfig {
    /// Auto-tick the supervisor every `check_every` completed queries
    /// (0 = manual [`crate::HarmonyEngine::supervisor_tick`] calls only).
    pub check_every: u64,
    /// Minimum queries observed in a window before the supervisor acts.
    pub min_window_queries: u64,
    /// Hysteresis: required relative cost win before switching (0.1 = the
    /// candidate must beat the incumbent by 10 %).
    pub hysteresis: f64,
    /// Observation windows over which the one-time migration cost is
    /// amortized when scoring a switch (larger = more eager to move).
    pub amortize_windows: f64,
    /// Bound on the weight fraction a same-plan incremental rebalance may
    /// move in one tick: how far one tick moves the packing. (What a switch
    /// ships does not depend on it — every layout change ships the whole
    /// namespace anew.)
    pub max_move_frac: f64,
    /// EWMA smoothing factor applied to per-window probe counts before the
    /// supervisor scores plans: `smoothed = α·window + (1-α)·smoothed`.
    /// `1.0` disables smoothing (each window stands alone); smaller values
    /// weigh recent drift against stale history more gradually.
    pub ewma_alpha: f64,
}

impl Default for ReplanConfig {
    fn default() -> Self {
        Self {
            check_every: 0,
            min_window_queries: 64,
            hysteresis: 0.10,
            amortize_windows: 10.0,
            max_move_frac: 0.25,
            ewma_alpha: 0.65,
        }
    }
}

impl ReplanConfig {
    /// Auto-checking configuration with defaults elsewhere.
    pub fn auto(check_every: u64) -> Self {
        Self {
            check_every,
            ..Self::default()
        }
    }

    fn validate(&self) -> Result<(), CoreError> {
        if !(0.0..1.0).contains(&self.hysteresis) {
            return Err(CoreError::Config(format!(
                "replan hysteresis must be in [0, 1), got {}",
                self.hysteresis
            )));
        }
        if self.amortize_windows <= 0.0 || !self.amortize_windows.is_finite() {
            return Err(CoreError::Config(format!(
                "replan amortize_windows must be positive and finite, got {}",
                self.amortize_windows
            )));
        }
        if !(0.0..=1.0).contains(&self.max_move_frac) {
            return Err(CoreError::Config(format!(
                "replan max_move_frac must be in [0, 1], got {}",
                self.max_move_frac
            )));
        }
        if !(self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0) {
            return Err(CoreError::Config(format!(
                "replan ewma_alpha must be in (0, 1], got {}",
                self.ewma_alpha
            )));
        }
        Ok(())
    }
}

/// Full engine configuration. Build with [`HarmonyConfig::builder`].
#[derive(Debug, Clone)]
pub struct HarmonyConfig {
    /// Number of worker machines (`--NMachine`).
    pub n_machines: usize,
    /// Number of IVF lists (clusters).
    pub nlist: usize,
    /// Similarity metric.
    pub metric: Metric,
    /// Distribution strategy (`--Mode`).
    pub mode: EngineMode,
    /// Dimension-level early-stop pruning (`--Pruning_Configuration`).
    pub pruning: bool,
    /// Pipelined staging + asynchronous (non-blocking) communication.
    /// Off = all shard visits dispatched at once over blocking transport.
    pub pipeline: bool,
    /// Load-aware shard packing and adaptive dimension-order scheduling.
    /// Off = round-robin packing, fixed dimension order.
    pub balanced_load: bool,
    /// Imbalance weight `α` in the cost model (`--α`).
    pub alpha: f64,
    /// Training/packing RNG seed.
    pub seed: u64,
    /// Interconnect model for the simulated cluster.
    pub net: NetworkModel,
    /// Whether modeled network cost is injected as real delay.
    pub delay: DelayMode,
    /// Fixed partition plan, bypassing the cost model (diagnostics).
    pub plan_override: Option<PartitionPlan>,
    /// Maximum queries in flight during batch search.
    pub max_inflight: usize,
    /// Adaptive replanning supervisor knobs.
    pub replan: ReplanConfig,
    /// Which fabric carries cluster frames (in-process channels or real
    /// loopback TCP). The cost model charges identically over either.
    pub transport: TransportKind,
    /// Block storage representation: exact `f32` rows or SQ8-quantized
    /// segments scanned in two stages (quantized stage-1, exact re-rank).
    pub repr: BlockRepr,
    /// Under [`BlockRepr::Sq8`], stage 1 collects `k × rerank_scale`
    /// survivors per query before the exact f32 re-rank trims them back to
    /// `k`. Larger values recover more recall at more re-rank work; ignored
    /// under [`BlockRepr::F32`]. Must be ≥ 1.
    pub rerank_scale: usize,
    /// The background compactor's threshold: it folds a namespace once
    /// this many unfolded writes (pending upserts plus live tombstones)
    /// accumulate (0 = manual [`crate::HarmonyEngine::compact`] calls only).
    /// Needs [`HarmonyConfig::compact_interval_ms`] > 0 — the ingest path
    /// itself never compacts.
    pub compact_after: usize,
    /// Background maintenance interval in milliseconds. When > 0 the engine
    /// runs a self-scheduling tick thread that compacts any namespace whose
    /// unfolded writes reached [`HarmonyConfig::compact_after`] and sweeps
    /// auto-tiered namespaces between temperature tiers by access rate
    /// (0 = no background thread).
    pub compact_interval_ms: u64,
    /// Per-worker byte budget of the warm/cold list cache. Faulted-in lists
    /// of non-pinned namespaces — ids, rows and norm tables alike — are
    /// retained up to this budget and evicted least-recently-used first.
    pub cache_budget_bytes: usize,
    /// Root directory for spilled part files of warm/cold namespaces.
    /// `None` uses a per-process temp directory cleaned on worker drop.
    pub spill_dir: Option<PathBuf>,
}

impl HarmonyConfig {
    /// Starts a builder with the paper's defaults (4 machines, `nlist` 64).
    pub fn builder() -> HarmonyConfigBuilder {
        HarmonyConfigBuilder::default()
    }

    /// Validates invariants that do not depend on the dataset.
    ///
    /// # Errors
    /// [`CoreError::Config`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.n_machines == 0 {
            return Err(CoreError::Config("n_machines must be > 0".into()));
        }
        if self.nlist == 0 {
            return Err(CoreError::Config("nlist must be > 0".into()));
        }
        if self.alpha < 0.0 || !self.alpha.is_finite() {
            return Err(CoreError::Config(format!(
                "alpha must be finite and non-negative, got {}",
                self.alpha
            )));
        }
        if self.max_inflight == 0 {
            return Err(CoreError::Config("max_inflight must be > 0".into()));
        }
        if self.rerank_scale == 0 {
            return Err(CoreError::Config("rerank_scale must be >= 1".into()));
        }
        if self.compact_after > 0 && self.compact_interval_ms == 0 {
            return Err(CoreError::Config(format!(
                "compact_after = {} needs compact_interval_ms > 0: the background \
                 compactor is the only threshold-driven compaction trigger",
                self.compact_after
            )));
        }
        self.replan.validate()?;
        if let Some(plan) = self.plan_override {
            if plan.machines() != self.n_machines {
                return Err(CoreError::Config(format!(
                    "plan override {} needs {} machines but n_machines = {}",
                    plan.label(),
                    plan.machines(),
                    self.n_machines
                )));
            }
        }
        Ok(())
    }
}

impl Default for HarmonyConfig {
    fn default() -> Self {
        HarmonyConfigBuilder::default()
            .build()
            .expect("defaults are valid")
    }
}

/// Builder for [`HarmonyConfig`].
#[derive(Debug, Clone)]
pub struct HarmonyConfigBuilder {
    config: HarmonyConfig,
}

impl Default for HarmonyConfigBuilder {
    fn default() -> Self {
        Self {
            config: HarmonyConfig {
                n_machines: 4,
                nlist: 64,
                metric: Metric::L2,
                mode: EngineMode::Harmony,
                pruning: true,
                pipeline: true,
                balanced_load: true,
                alpha: 4.0,
                seed: 0x04A1_0D0E_u64 ^ 0x5EED,
                // Per-query amortized message cost under the paper's
                // query-block batching (10 queries per wire message).
                net: NetworkModel::amortized(10),
                delay: DelayMode::Account,
                plan_override: None,
                max_inflight: 256,
                replan: ReplanConfig::default(),
                transport: TransportKind::InProc,
                repr: BlockRepr::F32,
                rerank_scale: 4,
                compact_after: 0,
                compact_interval_ms: 0,
                cache_budget_bytes: 64 << 20,
                spill_dir: None,
            },
        }
    }
}

macro_rules! builder_setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, $name: $ty) -> Self {
            self.config.$name = $name;
            self
        }
    };
}

impl HarmonyConfigBuilder {
    builder_setter!(
        /// Number of worker machines.
        n_machines: usize
    );
    builder_setter!(
        /// Number of IVF lists.
        nlist: usize
    );
    builder_setter!(
        /// Similarity metric.
        metric: Metric
    );
    builder_setter!(
        /// Distribution strategy.
        mode: EngineMode
    );
    builder_setter!(
        /// Dimension-level pruning on/off.
        pruning: bool
    );
    builder_setter!(
        /// Pipelined staging + async communication on/off.
        pipeline: bool
    );
    builder_setter!(
        /// Load-aware packing + adaptive dimension order on/off.
        balanced_load: bool
    );
    builder_setter!(
        /// Cost-model imbalance weight α.
        alpha: f64
    );
    builder_setter!(
        /// RNG seed.
        seed: u64
    );
    builder_setter!(
        /// Interconnect model.
        net: NetworkModel
    );
    builder_setter!(
        /// Real-delay injection mode.
        delay: DelayMode
    );
    builder_setter!(
        /// Maximum in-flight queries for batch search.
        max_inflight: usize
    );
    builder_setter!(
        /// Adaptive replanning supervisor knobs.
        replan: ReplanConfig
    );
    builder_setter!(
        /// Transport fabric for cluster frames.
        transport: TransportKind
    );
    builder_setter!(
        /// Block storage representation (f32 or SQ8 two-stage).
        repr: BlockRepr
    );
    builder_setter!(
        /// Stage-1 survivor multiplier for SQ8 re-ranking.
        rerank_scale: usize
    );
    builder_setter!(
        /// Background compaction threshold in unfolded writes (0 = manual).
        compact_after: usize
    );
    builder_setter!(
        /// Background maintenance tick interval in ms (0 = off).
        compact_interval_ms: u64
    );
    builder_setter!(
        /// Warm/cold block-cache byte budget per worker.
        cache_budget_bytes: usize
    );

    /// Sets the root directory for spilled block files.
    pub fn spill_dir(mut self, dir: PathBuf) -> Self {
        self.config.spill_dir = Some(dir);
        self
    }

    /// Forces a specific partition plan (diagnostics / ablations).
    pub fn plan(mut self, plan: PartitionPlan) -> Self {
        self.config.plan_override = Some(plan);
        self
    }

    /// Finalizes and validates the configuration.
    ///
    /// # Errors
    /// [`CoreError::Config`] when a constraint is violated.
    pub fn build(self) -> Result<HarmonyConfig, CoreError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Per-tenant index parameters for [`crate::HarmonyEngine::create_namespace`].
///
/// Each namespace is an isolated logical index: its own metric, block
/// representation, clustering, and quota, multiplexed over the engine's
/// existing worker set. Fields not present here (machine count, transport,
/// network model, …) are cluster-level and inherited from the engine's
/// [`HarmonyConfig`].
#[derive(Debug, Clone)]
pub struct NamespaceConfig {
    /// Similarity metric of this tenant's index.
    pub metric: Metric,
    /// Block storage representation (f32 or SQ8 two-stage).
    pub repr: BlockRepr,
    /// Stage-1 survivor multiplier under SQ8 (ignored for f32); must be ≥ 1.
    pub rerank_scale: usize,
    /// Number of IVF lists for this tenant.
    pub nlist: usize,
    /// Dimension-level early-stop pruning on this tenant's queries.
    pub pruning: bool,
    /// Training/packing RNG seed.
    pub seed: u64,
    /// Quota: maximum live vectors this tenant may hold (0 = unlimited).
    /// Upserts past the quota are rejected with [`CoreError::Config`].
    pub max_vectors: usize,
    /// Whether the background sweep may demote/promote this namespace
    /// between temperature tiers by observed access rate.
    pub auto_tier: bool,
    /// Fixed partition plan, bypassing the cost model (diagnostics).
    pub plan_override: Option<PartitionPlan>,
}

impl Default for NamespaceConfig {
    fn default() -> Self {
        Self {
            metric: Metric::L2,
            repr: BlockRepr::F32,
            rerank_scale: 4,
            nlist: 16,
            pruning: true,
            seed: 0x04A1_0D0E_u64 ^ 0x5EED,
            max_vectors: 0,
            auto_tier: false,
            plan_override: None,
        }
    }
}

impl NamespaceConfig {
    /// Sets the metric.
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the block representation.
    pub fn with_repr(mut self, repr: BlockRepr) -> Self {
        self.repr = repr;
        self
    }

    /// Sets the SQ8 re-rank multiplier.
    pub fn with_rerank_scale(mut self, rerank_scale: usize) -> Self {
        self.rerank_scale = rerank_scale;
        self
    }

    /// Sets the IVF list count.
    pub fn with_nlist(mut self, nlist: usize) -> Self {
        self.nlist = nlist;
        self
    }

    /// Enables or disables pruning.
    pub fn with_pruning(mut self, pruning: bool) -> Self {
        self.pruning = pruning;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the vector quota (0 = unlimited).
    pub fn with_max_vectors(mut self, max_vectors: usize) -> Self {
        self.max_vectors = max_vectors;
        self
    }

    /// Opts this namespace into automatic tier sweeps.
    pub fn with_auto_tier(mut self, auto_tier: bool) -> Self {
        self.auto_tier = auto_tier;
        self
    }

    /// Forces a specific partition plan.
    pub fn with_plan(mut self, plan: PartitionPlan) -> Self {
        self.plan_override = Some(plan);
        self
    }

    /// Validates per-tenant invariants against the owning engine.
    ///
    /// # Errors
    /// [`CoreError::Config`] describing the first violated constraint.
    pub fn validate(&self, n_machines: usize) -> Result<(), CoreError> {
        if self.nlist == 0 {
            return Err(CoreError::Config("namespace nlist must be > 0".into()));
        }
        if self.rerank_scale == 0 {
            return Err(CoreError::Config(
                "namespace rerank_scale must be >= 1".into(),
            ));
        }
        if let Some(plan) = self.plan_override {
            if plan.machines() != n_machines {
                return Err(CoreError::Config(format!(
                    "namespace plan override {} needs {} machines but engine has {}",
                    plan.label(),
                    plan.machines(),
                    n_machines
                )));
            }
        }
        Ok(())
    }
}

/// Per-search parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOptions {
    /// Results to return.
    pub k: usize,
    /// IVF lists probed per query (recall knob).
    pub nprobe: usize,
    /// Batch deadline in milliseconds for distributed collection: the
    /// whole `search_batch` call must finish within this budget (each
    /// receive waits only for the remaining time, never a fresh timeout).
    pub timeout_ms: u64,
}

impl SearchOptions {
    /// Top-`k` search with a default `nprobe` of 8.
    pub fn new(k: usize) -> Self {
        Self {
            k: k.max(1),
            nprobe: 8,
            timeout_ms: 30_000,
        }
    }

    /// Sets `nprobe`.
    pub fn with_nprobe(mut self, nprobe: usize) -> Self {
        self.nprobe = nprobe.max(1);
        self
    }

    /// Sets the batch collection deadline.
    pub fn with_timeout_ms(mut self, timeout_ms: u64) -> Self {
        self.timeout_ms = timeout_ms;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_paper_setup() {
        let c = HarmonyConfig::default();
        assert_eq!(c.n_machines, 4);
        assert!(c.pruning && c.pipeline && c.balanced_load);
        assert_eq!(c.mode, EngineMode::Harmony);
        assert_eq!(c.repr, BlockRepr::F32);
        assert_eq!(c.rerank_scale, 4);
        c.validate().unwrap();
    }

    #[test]
    fn repr_and_rerank_scale_are_configurable_and_validated() {
        let c = HarmonyConfig::builder()
            .repr(BlockRepr::Sq8)
            .rerank_scale(8)
            .build()
            .unwrap();
        assert_eq!(c.repr, BlockRepr::Sq8);
        assert_eq!(c.rerank_scale, 8);
        assert!(HarmonyConfig::builder().rerank_scale(0).build().is_err());
    }

    #[test]
    fn builder_sets_fields() {
        let c = HarmonyConfig::builder()
            .n_machines(8)
            .nlist(128)
            .mode(EngineMode::HarmonyVector)
            .pruning(false)
            .alpha(2.5)
            .build()
            .unwrap();
        assert_eq!(c.n_machines, 8);
        assert_eq!(c.nlist, 128);
        assert_eq!(c.mode, EngineMode::HarmonyVector);
        assert!(!c.pruning);
        assert_eq!(c.alpha, 2.5);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(HarmonyConfig::builder().n_machines(0).build().is_err());
        assert!(HarmonyConfig::builder().nlist(0).build().is_err());
        assert!(HarmonyConfig::builder().alpha(-1.0).build().is_err());
        assert!(HarmonyConfig::builder().alpha(f64::NAN).build().is_err());
        assert!(HarmonyConfig::builder().max_inflight(0).build().is_err());
        // A threshold without the thread that acts on it would do nothing.
        assert!(HarmonyConfig::builder().compact_after(8).build().is_err());
        let both = HarmonyConfig::builder()
            .compact_after(8)
            .compact_interval_ms(10);
        assert!(both.build().is_ok());
    }

    #[test]
    fn invalid_replan_configs_rejected() {
        let bad = |r: ReplanConfig| HarmonyConfig::builder().replan(r).build().is_err();
        assert!(bad(ReplanConfig {
            hysteresis: 1.0,
            ..ReplanConfig::default()
        }));
        assert!(bad(ReplanConfig {
            amortize_windows: 0.0,
            ..ReplanConfig::default()
        }));
        assert!(bad(ReplanConfig {
            max_move_frac: 1.5,
            ..ReplanConfig::default()
        }));
        assert!(bad(ReplanConfig {
            ewma_alpha: 0.0,
            ..ReplanConfig::default()
        }));
        assert!(bad(ReplanConfig {
            ewma_alpha: 1.5,
            ..ReplanConfig::default()
        }));
        assert!(HarmonyConfig::builder()
            .replan(ReplanConfig::auto(256))
            .build()
            .is_ok());
    }

    #[test]
    fn plan_override_must_match_machines() {
        let plan = PartitionPlan::new(2, 2).unwrap();
        assert!(HarmonyConfig::builder()
            .n_machines(4)
            .plan(plan)
            .build()
            .is_ok());
        assert!(HarmonyConfig::builder()
            .n_machines(5)
            .plan(plan)
            .build()
            .is_err());
    }

    #[test]
    fn mode_names_match_paper_legend() {
        assert_eq!(EngineMode::Harmony.to_string(), "Harmony");
        assert_eq!(EngineMode::HarmonyVector.to_string(), "Harmony-vector");
        assert_eq!(
            EngineMode::HarmonyDimension.to_string(),
            "Harmony-dimension"
        );
    }

    #[test]
    fn tiering_knobs_default_off_and_are_settable() {
        let c = HarmonyConfig::default();
        assert_eq!(c.compact_interval_ms, 0);
        assert_eq!(c.cache_budget_bytes, 64 << 20);
        assert!(c.spill_dir.is_none());
        let c = HarmonyConfig::builder()
            .compact_interval_ms(25)
            .cache_budget_bytes(1 << 20)
            .spill_dir(PathBuf::from("/tmp/spill"))
            .build()
            .unwrap();
        assert_eq!(c.compact_interval_ms, 25);
        assert_eq!(c.cache_budget_bytes, 1 << 20);
        assert_eq!(
            c.spill_dir.as_deref(),
            Some(std::path::Path::new("/tmp/spill"))
        );
    }

    #[test]
    fn namespace_config_validates_against_engine() {
        let ns = NamespaceConfig::default();
        ns.validate(4).unwrap();
        assert!(NamespaceConfig::default()
            .with_nlist(0)
            .validate(4)
            .is_err());
        assert!(NamespaceConfig::default()
            .with_rerank_scale(0)
            .validate(4)
            .is_err());
        let plan = PartitionPlan::new(2, 2).unwrap();
        assert!(NamespaceConfig::default()
            .with_plan(plan)
            .validate(4)
            .is_ok());
        assert!(NamespaceConfig::default()
            .with_plan(plan)
            .validate(5)
            .is_err());
        let ns = NamespaceConfig::default()
            .with_metric(Metric::InnerProduct)
            .with_max_vectors(100)
            .with_auto_tier(true)
            .with_seed(7);
        assert_eq!(ns.metric, Metric::InnerProduct);
        assert_eq!(ns.max_vectors, 100);
        assert!(ns.auto_tier);
    }

    #[test]
    fn search_options_clamp_degenerate_values() {
        let o = SearchOptions::new(0);
        assert_eq!(o.k, 1);
        let o = o.with_nprobe(0);
        assert_eq!(o.nprobe, 1);
    }
}
