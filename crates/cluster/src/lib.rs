//! # harmony-cluster
//!
//! Simulated multi-node cluster substrate for the Harmony distributed vector
//! database.
//!
//! The paper evaluates Harmony on a 20-node Xeon cluster connected by
//! 100 Gb/s links and driven over OpenMPI. This crate reproduces that
//! environment in-process (see DESIGN.md §4 *Substitutions*):
//!
//! * each worker node is an OS thread with a crossbeam-channel mailbox
//!   ([`node`], [`cluster`]),
//! * messages are *really serialized* through a length-prefixed binary wire
//!   codec ([`codec`]) so byte counts are exact,
//! * every node counts the messages and bytes it sends and receives and
//!   the work it scans ([`metrics`]); a snapshot prices the counts with a
//!   configurable network cost model ([`net`]) — `latency + bytes /
//!   bandwidth` — in both blocking and non-blocking (overlapped) delivery
//!   modes, mirroring the paper's `MPI_Send` vs `MPI_Isend` comparison
//!   (Fig. 2b), and breaks busy time into computation, communication and
//!   other overhead — the three-way breakdown of Figs. 2b & 8,
//! * an optional byte-tracking global allocator ([`mem`]) measures the peak
//!   memory numbers of Tables 4 & 5.
//!
//! The substrate is payload-agnostic: `harmony-core` layers its typed RPC on
//! top of [`bytes::Bytes`] payloads.

// New unsafe code must state its obligations: each unsafe operation inside
// an `unsafe fn` needs its own block (and a `// SAFETY:` comment, enforced
// by harmony-lint).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cluster;
pub mod codec;
pub mod error;
pub mod mem;
pub mod metrics;
pub mod net;
pub mod node;
pub mod transport;

pub use cluster::{ClientReceiver, Cluster, ClusterConfig};
pub use codec::{CodecError, Wire};
pub use error::ClusterError;
pub use metrics::{ClusterSnapshot, NodeSnapshot, TimeBreakdown};
pub use net::{CommMode, ComputeRates, DelayMode, NetworkModel};
pub use node::{NodeCtx, NodeHandler, NodeId, CLIENT};
pub use transport::{
    decode_frame, encode_frame, Frame, InProcTransport, TcpOptions, TcpTransport, Transport,
    TransportKind, MAX_FRAME_BYTES,
};
