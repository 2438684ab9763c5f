//! Network cost model.
//!
//! The paper's testbed connects nodes with 100 Gb/s links whose bandwidth is
//! one to two orders of magnitude below memory bandwidth — the disparity that
//! makes communication the bottleneck of naive dimension-based partitioning
//! (§1, §3.1). The simulated cluster models every message as
//!
//! ```text
//! cost(bytes) = latency + (bytes + overhead) / bandwidth
//! ```
//!
//! priced per node from its message and byte counts at snapshot. Two
//! delivery modes mirror the MPI modes of Fig. 2b: [`CommMode::Blocking`]
//! (a la `MPI_Send`) serializes communication with computation on the
//! critical path, while [`CommMode::NonBlocking`] (a la
//! `MPI_Isend`/`MPI_Irecv`) lets them overlap. Optionally ([`DelayMode::Sleep`]) the modeled cost is also
//! injected as real sleep so wall-clock measurements feel the network.

use std::time::Duration;

/// Delivery semantics for inter-node messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommMode {
    /// Sender stalls for the full modeled transfer time (`MPI_Send`).
    Blocking,
    /// Transfer overlaps with computation (`MPI_Isend` / `MPI_Irecv`).
    #[default]
    NonBlocking,
}

impl CommMode {
    /// Short label used in reports ("B" / "NB" as in Fig. 2b).
    pub fn label(self) -> &'static str {
        match self {
            CommMode::Blocking => "B",
            CommMode::NonBlocking => "NB",
        }
    }
}

/// Whether modeled network cost is injected as real wall-clock delay.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DelayMode {
    /// Account the cost but do not sleep (fast, fully deterministic).
    #[default]
    Account,
    /// Sleep `modeled_cost * scale` at the charged node.
    Sleep {
        /// Multiplier on the modeled cost (1.0 = real time).
        scale: f64,
    },
}

/// Modeled per-node computation rates.
///
/// The simulated cluster charges node time from *work counters* rather than
/// wall clocks: on an oversubscribed host (the workers are threads, often
/// more threads than cores) wall time inside a handler includes preemption
/// by sibling workers and would mis-attribute load. Deterministic modeled
/// charges keep per-node loads exact and host-independent; the rates are
/// calibrated against the real distance kernels at engine start-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeRates {
    /// Nanoseconds per (point · dimension) scanned in a distance kernel.
    pub ns_per_point_dim: f64,
    /// Fixed nanoseconds per candidate visited (loop/bookkeeping overhead).
    pub ns_per_candidate: f64,
    /// Nanoseconds per wire byte for (de)serialization, charged as "other".
    pub ns_per_wire_byte: f64,
    /// Fixed nanoseconds per message handled, charged as "other".
    pub ns_per_message: f64,
}

impl Default for ComputeRates {
    fn default() -> Self {
        Self {
            ns_per_point_dim: 0.25,
            ns_per_candidate: 4.0,
            ns_per_wire_byte: 0.05,
            ns_per_message: 200.0,
        }
    }
}

impl ComputeRates {
    /// Rates with a measured kernel speed.
    pub fn with_kernel_rate(mut self, ns_per_point_dim: f64) -> Self {
        self.ns_per_point_dim = ns_per_point_dim.clamp(0.01, 100.0);
        self
    }

    /// Rates with a measured per-candidate overhead.
    pub fn with_candidate_rate(mut self, ns_per_candidate: f64) -> Self {
        self.ns_per_candidate = ns_per_candidate.clamp(0.5, 1_000.0);
        self
    }

    /// Modeled nanoseconds for scanning `point_dims` products over
    /// `candidates` candidates.
    pub fn compute_ns(&self, point_dims: u64, candidates: u64) -> u64 {
        (point_dims as f64 * self.ns_per_point_dim + candidates as f64 * self.ns_per_candidate)
            as u64
    }

    /// Modeled serialization overhead for `msgs` messages carrying
    /// `bytes` of payload in all.
    pub fn overhead_ns(&self, msgs: u64, bytes: u64) -> u64 {
        (bytes as f64 * self.ns_per_wire_byte + msgs as f64 * self.ns_per_message) as u64
    }
}

/// Parameters of the modeled interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Link bandwidth in gigabits per second.
    pub bandwidth_gbps: f64,
    /// One-way latency per message, nanoseconds.
    pub latency_ns: u64,
    /// Fixed framing overhead added to every message, bytes.
    pub per_message_overhead_bytes: usize,
}

impl Default for NetworkModel {
    /// The paper's interconnect: 100 Gb/s, ~30 µs one-way latency.
    fn default() -> Self {
        Self {
            bandwidth_gbps: 100.0,
            latency_ns: 30_000,
            per_message_overhead_bytes: 64,
        }
    }
}

impl NetworkModel {
    /// A model so fast it never matters (for logic-only tests).
    pub fn instant() -> Self {
        Self {
            bandwidth_gbps: f64::INFINITY,
            latency_ns: 0,
            per_message_overhead_bytes: 0,
        }
    }

    /// A slower 10 Gb/s datacenter link.
    pub fn ten_gbit() -> Self {
        Self {
            bandwidth_gbps: 10.0,
            latency_ns: 50_000,
            per_message_overhead_bytes: 64,
        }
    }

    /// The paper-testbed link with per-message latency amortized over
    /// query-block batching. Harmony's protocol ships queries in blocks
    /// (Fig. 4's `Q_i`, Fig. 5's `Q1–Q3` batches), so one wire message
    /// carries ~`batch` queries; this simulation dispatches per query, so
    /// the equivalent per-query message cost is `latency / batch`.
    pub fn amortized(batch: usize) -> Self {
        let batch = batch.max(1);
        let base = Self::default();
        Self {
            latency_ns: base.latency_ns / batch as u64,
            per_message_overhead_bytes: base.per_message_overhead_bytes / batch,
            ..base
        }
    }

    /// Modeled one-way transfer time for a payload of `payload_bytes`
    /// (propagation latency + wire time).
    pub fn transfer_ns(&self, payload_bytes: usize) -> u64 {
        self.latency_ns + self.occupancy_ns(1, payload_bytes as u64)
    }

    /// Wire time only: how long `msgs` messages carrying `payload_bytes`
    /// in all *occupy* an endpoint's NIC.
    ///
    /// Propagation latency does not occupy the endpoints — a non-blocking
    /// sender issues the next message immediately (`MPI_Isend`) and in-flight
    /// messages overlap. Throughput accounting therefore charges occupancy;
    /// latency is still charged for blocking sends ([`CommMode::Blocking`])
    /// and shows up in per-query latency.
    pub fn occupancy_ns(&self, msgs: u64, payload_bytes: u64) -> u64 {
        let total_bytes = (payload_bytes + msgs * self.per_message_overhead_bytes as u64) as f64;
        let bits = total_bytes * 8.0;
        let seconds = bits / (self.bandwidth_gbps * 1e9);
        if seconds.is_finite() {
            (seconds * 1e9).round() as u64
        } else {
            0
        }
    }

    /// [`NetworkModel::transfer_ns`] as a [`Duration`].
    pub fn transfer_duration(&self, payload_bytes: usize) -> Duration {
        Duration::from_nanos(self.transfer_ns(payload_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let m = NetworkModel::default();
        assert_eq!(m.bandwidth_gbps, 100.0);
        assert_eq!(m.latency_ns, 30_000);
    }

    #[test]
    fn transfer_time_scales_linearly_with_bytes() {
        let m = NetworkModel {
            bandwidth_gbps: 100.0,
            latency_ns: 0,
            per_message_overhead_bytes: 0,
        };
        // 100 Gb/s = 12.5 GB/s; 12.5 MB should take ~1 ms.
        let ns = m.transfer_ns(12_500_000);
        assert!((ns as i64 - 1_000_000).abs() < 1_000, "got {ns} ns");
        // Double the bytes, double the time.
        assert_eq!(m.transfer_ns(25_000_000), 2 * ns);
    }

    #[test]
    fn latency_dominates_small_messages() {
        let m = NetworkModel::default();
        let small = m.transfer_ns(64);
        assert!(small >= m.latency_ns);
        assert!(small < m.latency_ns + 1_000);
    }

    #[test]
    fn instant_model_is_free() {
        let m = NetworkModel::instant();
        assert_eq!(m.transfer_ns(0), 0);
        assert_eq!(m.transfer_ns(1 << 30), 0);
    }

    #[test]
    fn ten_gbit_is_ten_times_slower_per_byte() {
        let fast = NetworkModel {
            latency_ns: 0,
            per_message_overhead_bytes: 0,
            ..NetworkModel::default()
        };
        let slow = NetworkModel {
            latency_ns: 0,
            per_message_overhead_bytes: 0,
            ..NetworkModel::ten_gbit()
        };
        let payload = 10_000_000;
        let ratio = slow.transfer_ns(payload) as f64 / fast.transfer_ns(payload) as f64;
        assert!((ratio - 10.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn comm_mode_labels_match_paper() {
        assert_eq!(CommMode::Blocking.label(), "B");
        assert_eq!(CommMode::NonBlocking.label(), "NB");
    }

    #[test]
    fn duration_wrapper_consistent() {
        let m = NetworkModel::default();
        assert_eq!(
            m.transfer_duration(1000),
            Duration::from_nanos(m.transfer_ns(1000))
        );
    }
}
