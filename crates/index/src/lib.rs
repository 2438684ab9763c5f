//! # harmony-index
//!
//! ANN indexing substrate for the Harmony distributed vector database.
//!
//! This crate provides the single-node building blocks that the distributed
//! layers (`harmony-core`, `harmony-baseline`) compose:
//!
//! * [`vector::VectorStore`] — a dense, row-major `f32` matrix with stable
//!   vector ids and cheap dimension-slice views,
//! * [`distance`] — full-range and *dimension-range partial* distance kernels
//!   (scalar reference implementations plus runtime-detected AVX2 variants),
//! * [`topk`] — a bounded max-heap tracking the current top-*k* candidates and
//!   the pruning threshold `τ²` used by Harmony's early-stop mechanism,
//! * [`kmeans`] — seeded k-means++ / Lloyd clustering shared by every engine
//!   in the evaluation (the paper mandates identical clustering across all
//!   compared systems, §6.1), pruned by the triangle inequality to the
//!   distances that can change an assignment,
//! * [`delta`] — append-only delta lists and tombstone sets backing the
//!   mutable-shard ingestion path,
//! * [`flat`] — an exact brute-force index used for ground truth,
//! * [`ivf`] — the IVF-Flat cluster-based index that Harmony partitions and
//!   distributes.
//!
//! All randomized entry points take explicit seeds; given the same seed the
//! results are deterministic across runs and thread counts.

// New unsafe code must state its obligations: each unsafe operation inside
// an `unsafe fn` needs its own block (and a `// SAFETY:` comment, enforced
// by harmony-lint).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod delta;
pub mod distance;
pub mod error;
pub mod flat;
pub mod ivf;
pub mod kmeans;
pub mod persist;
pub mod quant;
pub mod tier;
pub mod topk;
pub mod vector;

pub use delta::{DeltaList, TombstoneSet};
pub use distance::{DimRange, Metric};
pub use error::IndexError;
pub use flat::FlatIndex;
pub use ivf::{IvfIndex, IvfParams};
pub use kmeans::{Fitted, KMeans, KMeansConfig};
pub use quant::{BlockRepr, Sq8BlockQuery, Sq8Query, Sq8Segment};
pub use tier::{AccessEwma, BlockCache, Temperature};
pub use topk::{Neighbor, TopK};
pub use vector::{max_magnitude, prefetch, VectorId, VectorStore};
