//! # harmony-core
//!
//! The Harmony distributed ANNS engine — the primary contribution of the
//! paper (SIGMOD 2025, arXiv:2506.14707), built on the `harmony-index` and
//! `harmony-cluster` substrates.
//!
//! The system combines three ideas:
//!
//! 1. **Multi-granularity partitioning** ([`partition`]): the IVF index is
//!    cut on a grid of vector shards × dimension blocks, with each grid
//!    block on its own machine.
//! 2. **A cost model** ([`cost`]) that scores candidate grids by expected
//!    computation, communication, and load imbalance, picking the best
//!    factorization for the current workload (`--Mode Harmony`), or forced
//!    to the pure strategies (`--Mode Harmony-vector` / `Harmony-dimension`).
//! 3. **Dimension-level pruning in a pipelined executor** ([`pruning`],
//!    [`worker`], [`engine`]): partial distances accumulate hop by hop
//!    across machines and candidates are dropped the moment they can no
//!    longer enter the top-k — exactly (monotone partial sums under L2, a
//!    Cauchy–Schwarz completion bound under inner-product metrics).
//!
//! Entry point: [`HarmonyEngine::build`], then [`HarmonyEngine::search`] /
//! [`HarmonyEngine::search_batch`].

pub mod config;
pub mod cost;
pub mod engine;
pub mod error;
pub mod messages;
pub mod partition;
mod planner;
pub mod pruning;
pub mod stats;
pub mod worker;

pub use config::{
    EngineMode, HarmonyConfig, HarmonyConfigBuilder, NamespaceConfig, ReplanConfig, SearchOptions,
};
pub use cost::{
    sub_batch_rows, CostModel, PlanCost, PlanEstimate, PlanInputs, ScanRates, Survivors,
    WorkloadProfile,
};
pub use engine::{
    CompactionReport, EngineCore, HarmonyEngine, MigrationReport, ReplanOutcome, RoutingEpoch,
    SingleResult,
};
pub use error::CoreError;
pub use harmony_index::Temperature;
pub use partition::{PartitionPlan, ShardAssignment};
pub use pruning::{PruneRule, SliceStats};
pub use stats::{
    BatchResult, BuildStats, EngineStats, LoadTracker, ProbeEwma, ProbeSnapshot, ProbeTracker,
};
pub use worker::HarmonyWorker;
