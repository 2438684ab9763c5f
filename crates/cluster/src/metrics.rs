//! Per-node and cluster-wide metrics.
//!
//! The paper's key diagnostics are three-way time breakdowns (computation /
//! communication / other — Figs. 2b & 8), per-node load profiles (the
//! imbalance factor of §4.2.1), and byte counters. Counters use relaxed
//! atomics so worker threads can record without contention; consistency is
//! only needed at snapshot time, after the cluster has quiesced.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::net::CommMode;

/// Monotonic counters owned by one node (or the client).
#[derive(Debug, Default)]
pub struct NodeMetrics {
    /// Nanoseconds of computation charged to this node: modeled from the
    /// work scanned ([`crate::node::NodeCtx::charge_compute`]), or the
    /// client's work ([`crate::Cluster::record_client_compute`]).
    pub compute_ns: AtomicU64,
    /// Modeled network nanoseconds charged to this node for sends.
    pub comm_tx_ns: AtomicU64,
    /// Modeled network nanoseconds charged to this node for receives.
    pub comm_rx_ns: AtomicU64,
    /// Wall nanoseconds spent inside message handlers (busy time).
    pub busy_ns: AtomicU64,
    /// Payload bytes sent.
    pub bytes_tx: AtomicU64,
    /// Payload bytes received.
    pub bytes_rx: AtomicU64,
    /// Messages sent.
    pub msgs_tx: AtomicU64,
    /// Messages received.
    pub msgs_rx: AtomicU64,
    /// Wire bytes sent: payload plus the transport's per-message framing
    /// overhead (0 for the in-process fabric).
    pub wire_tx_bytes: AtomicU64,
    /// Wire bytes received (payload + framing).
    pub wire_rx_bytes: AtomicU64,
}

impl NodeMetrics {
    /// Adds `ns` of compute time.
    #[inline]
    pub fn add_compute(&self, ns: u64) {
        self.compute_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds `ns` of handler busy time.
    #[inline]
    pub fn add_busy(&self, ns: u64) {
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records an outgoing message of `bytes` payload costing `ns`.
    #[inline]
    pub fn record_tx(&self, bytes: u64, ns: u64) {
        self.bytes_tx.fetch_add(bytes, Ordering::Relaxed);
        self.msgs_tx.fetch_add(1, Ordering::Relaxed);
        self.comm_tx_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records an incoming message of `bytes` payload costing `ns`.
    #[inline]
    pub fn record_rx(&self, bytes: u64, ns: u64) {
        self.bytes_rx.fetch_add(bytes, Ordering::Relaxed);
        self.msgs_rx.fetch_add(1, Ordering::Relaxed);
        self.comm_rx_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds `bytes` of outgoing wire traffic (payload + framing).
    #[inline]
    pub fn add_wire_tx(&self, bytes: u64) {
        self.wire_tx_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Adds `bytes` of incoming wire traffic (payload + framing).
    #[inline]
    pub fn add_wire_rx(&self, bytes: u64) {
        self.wire_rx_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the counters.
    pub fn snapshot(&self) -> NodeSnapshot {
        NodeSnapshot {
            compute_ns: self.compute_ns.load(Ordering::Relaxed),
            comm_tx_ns: self.comm_tx_ns.load(Ordering::Relaxed),
            comm_rx_ns: self.comm_rx_ns.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            bytes_tx: self.bytes_tx.load(Ordering::Relaxed),
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
            msgs_tx: self.msgs_tx.load(Ordering::Relaxed),
            msgs_rx: self.msgs_rx.load(Ordering::Relaxed),
            wire_tx_bytes: self.wire_tx_bytes.load(Ordering::Relaxed),
            wire_rx_bytes: self.wire_rx_bytes.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero (between experiment phases).
    pub fn reset(&self) {
        self.compute_ns.store(0, Ordering::Relaxed);
        self.comm_tx_ns.store(0, Ordering::Relaxed);
        self.comm_rx_ns.store(0, Ordering::Relaxed);
        self.busy_ns.store(0, Ordering::Relaxed);
        self.bytes_tx.store(0, Ordering::Relaxed);
        self.bytes_rx.store(0, Ordering::Relaxed);
        self.msgs_tx.store(0, Ordering::Relaxed);
        self.msgs_rx.store(0, Ordering::Relaxed);
        self.wire_tx_bytes.store(0, Ordering::Relaxed);
        self.wire_rx_bytes.store(0, Ordering::Relaxed);
    }
}

/// Immutable copy of one node's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// See [`NodeMetrics::compute_ns`].
    pub compute_ns: u64,
    /// See [`NodeMetrics::comm_tx_ns`].
    pub comm_tx_ns: u64,
    /// See [`NodeMetrics::comm_rx_ns`].
    pub comm_rx_ns: u64,
    /// See [`NodeMetrics::busy_ns`].
    pub busy_ns: u64,
    /// See [`NodeMetrics::bytes_tx`].
    pub bytes_tx: u64,
    /// See [`NodeMetrics::bytes_rx`].
    pub bytes_rx: u64,
    /// See [`NodeMetrics::msgs_tx`].
    pub msgs_tx: u64,
    /// See [`NodeMetrics::msgs_rx`].
    pub msgs_rx: u64,
    /// See [`NodeMetrics::wire_tx_bytes`].
    pub wire_tx_bytes: u64,
    /// See [`NodeMetrics::wire_rx_bytes`].
    pub wire_rx_bytes: u64,
}

impl NodeSnapshot {
    /// Total modeled communication nanoseconds (tx + rx).
    pub fn comm_ns(&self) -> u64 {
        self.comm_tx_ns + self.comm_rx_ns
    }

    /// Handler time not attributed to compute: bookkeeping, queueing,
    /// (de)serialization — the paper's "other overhead".
    pub fn other_ns(&self) -> u64 {
        self.busy_ns.saturating_sub(self.compute_ns)
    }

    /// The node's contribution to the cluster makespan under the given
    /// communication mode: blocking transports serialize compute and
    /// communication; non-blocking transports overlap them.
    pub fn makespan_ns(&self, mode: CommMode) -> u64 {
        match mode {
            CommMode::Blocking => self.busy_ns + self.comm_ns(),
            CommMode::NonBlocking => self.busy_ns.max(self.comm_ns()),
        }
    }

    /// Counter delta since `earlier` (element-wise saturating subtraction).
    ///
    /// Used by concurrent clients to attribute a time window without
    /// resetting the shared counters under other sessions' feet.
    pub fn delta(&self, earlier: &NodeSnapshot) -> NodeSnapshot {
        NodeSnapshot {
            compute_ns: self.compute_ns.saturating_sub(earlier.compute_ns),
            comm_tx_ns: self.comm_tx_ns.saturating_sub(earlier.comm_tx_ns),
            comm_rx_ns: self.comm_rx_ns.saturating_sub(earlier.comm_rx_ns),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
            bytes_tx: self.bytes_tx.saturating_sub(earlier.bytes_tx),
            bytes_rx: self.bytes_rx.saturating_sub(earlier.bytes_rx),
            msgs_tx: self.msgs_tx.saturating_sub(earlier.msgs_tx),
            msgs_rx: self.msgs_rx.saturating_sub(earlier.msgs_rx),
            wire_tx_bytes: self.wire_tx_bytes.saturating_sub(earlier.wire_tx_bytes),
            wire_rx_bytes: self.wire_rx_bytes.saturating_sub(earlier.wire_rx_bytes),
        }
    }

    /// Element-wise sum (for aggregating nodes).
    pub fn merged(&self, other: &NodeSnapshot) -> NodeSnapshot {
        NodeSnapshot {
            compute_ns: self.compute_ns + other.compute_ns,
            comm_tx_ns: self.comm_tx_ns + other.comm_tx_ns,
            comm_rx_ns: self.comm_rx_ns + other.comm_rx_ns,
            busy_ns: self.busy_ns + other.busy_ns,
            bytes_tx: self.bytes_tx + other.bytes_tx,
            bytes_rx: self.bytes_rx + other.bytes_rx,
            msgs_tx: self.msgs_tx + other.msgs_tx,
            msgs_rx: self.msgs_rx + other.msgs_rx,
            wire_tx_bytes: self.wire_tx_bytes + other.wire_tx_bytes,
            wire_rx_bytes: self.wire_rx_bytes + other.wire_rx_bytes,
        }
    }
}

/// Snapshot of every node plus the client.
#[derive(Debug, Clone, Default)]
pub struct ClusterSnapshot {
    /// Worker snapshots, indexed by node id.
    pub workers: Vec<NodeSnapshot>,
    /// The client (master) node's snapshot.
    pub client: NodeSnapshot,
}

impl ClusterSnapshot {
    /// Sum over workers and client.
    pub fn total(&self) -> NodeSnapshot {
        self.workers
            .iter()
            .fold(self.client, |acc, w| acc.merged(w))
    }

    /// Node-wise counter delta since `earlier` (see [`NodeSnapshot::delta`]).
    pub fn delta(&self, earlier: &ClusterSnapshot) -> ClusterSnapshot {
        let zero = NodeSnapshot::default();
        ClusterSnapshot {
            workers: self
                .workers
                .iter()
                .enumerate()
                .map(|(i, w)| w.delta(earlier.workers.get(i).unwrap_or(&zero)))
                .collect(),
            client: self.client.delta(&earlier.client),
        }
    }

    /// Cluster makespan: the slowest node gates completion.
    pub fn makespan_ns(&self, mode: CommMode) -> u64 {
        self.workers
            .iter()
            .map(|w| w.makespan_ns(mode))
            .chain(std::iter::once(self.client.makespan_ns(mode)))
            .max()
            .unwrap_or(0)
    }

    /// Per-worker compute load (the `Load(n, π)` of §4.2.1).
    pub fn worker_loads(&self) -> Vec<u64> {
        self.workers.iter().map(|w| w.compute_ns).collect()
    }

    /// Standard deviation of worker compute loads — the imbalance factor
    /// `I(π)` of §4.2.1.
    pub fn imbalance(&self) -> f64 {
        let loads = self.worker_loads();
        if loads.is_empty() {
            return 0.0;
        }
        let mean = loads.iter().map(|&l| l as f64).sum::<f64>() / loads.len() as f64;
        let var = loads
            .iter()
            .map(|&l| {
                let d = l as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / loads.len() as f64;
        var.sqrt()
    }

    /// Ratio of the hottest worker's compute load to the mean (1.0 = even).
    ///
    /// The live analogue of the planner's imbalance factor, usable on a
    /// window [`ClusterSnapshot::delta`]: a drifting workload shows up here
    /// before it shows up in tail latency. Uses max/mean (not max/min) so
    /// legitimately idle workers do not blow the ratio up to infinity; a
    /// window with no compute anywhere reports 1.0.
    pub fn imbalance_ratio(&self) -> f64 {
        let loads = self.worker_loads();
        let total: u64 = loads.iter().sum();
        if total == 0 || loads.is_empty() {
            return 1.0;
        }
        let max = loads.iter().copied().max().unwrap_or(0);
        max as f64 / (total as f64 / loads.len() as f64)
    }

    /// Three-way time breakdown across the whole cluster.
    pub fn breakdown(&self) -> TimeBreakdown {
        let t = self.total();
        TimeBreakdown {
            compute_ns: t.compute_ns,
            comm_ns: t.comm_ns(),
            other_ns: t.other_ns(),
        }
    }
}

/// The computation / communication / other split of Figs. 2b & 8.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Computation nanoseconds.
    pub compute_ns: u64,
    /// Communication nanoseconds (modeled).
    pub comm_ns: u64,
    /// Other overhead nanoseconds.
    pub other_ns: u64,
}

impl TimeBreakdown {
    /// Total accounted nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.compute_ns + self.comm_ns + self.other_ns
    }

    /// Percentages `(compute, comm, other)`, summing to ~100.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let total = self.total_ns() as f64;
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.compute_ns as f64 / total * 100.0,
            self.comm_ns as f64 / total * 100.0,
            self.other_ns as f64 / total * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_roundtrip() {
        let m = NodeMetrics::default();
        m.add_compute(100);
        m.add_busy(150);
        m.record_tx(1000, 50);
        m.record_rx(500, 25);
        let s = m.snapshot();
        assert_eq!(s.compute_ns, 100);
        assert_eq!(s.busy_ns, 150);
        assert_eq!(s.bytes_tx, 1000);
        assert_eq!(s.bytes_rx, 500);
        assert_eq!(s.msgs_tx, 1);
        assert_eq!(s.msgs_rx, 1);
        assert_eq!(s.comm_ns(), 75);
        assert_eq!(s.other_ns(), 50);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = NodeMetrics::default();
        m.add_compute(1);
        m.record_tx(2, 3);
        m.add_wire_tx(4);
        m.reset();
        assert_eq!(m.snapshot(), NodeSnapshot::default());
    }

    #[test]
    fn wire_bytes_tracked_separately_from_payload() {
        let m = NodeMetrics::default();
        m.record_tx(100, 5);
        m.add_wire_tx(121); // payload + framing
        m.add_wire_rx(42);
        let s = m.snapshot();
        assert_eq!(s.bytes_tx, 100);
        assert_eq!(s.wire_tx_bytes, 121);
        assert_eq!(s.wire_rx_bytes, 42);
        let d = s.delta(&NodeSnapshot::default());
        assert_eq!(d.wire_tx_bytes, 121);
        assert_eq!(s.merged(&s).wire_rx_bytes, 84);
    }

    #[test]
    fn makespan_blocking_adds_nonblocking_overlaps() {
        let s = NodeSnapshot {
            busy_ns: 100,
            comm_tx_ns: 30,
            comm_rx_ns: 20,
            ..Default::default()
        };
        assert_eq!(s.makespan_ns(CommMode::Blocking), 150);
        assert_eq!(s.makespan_ns(CommMode::NonBlocking), 100);
        let comm_heavy = NodeSnapshot {
            busy_ns: 10,
            comm_tx_ns: 200,
            ..Default::default()
        };
        assert_eq!(comm_heavy.makespan_ns(CommMode::NonBlocking), 200);
    }

    #[test]
    fn cluster_makespan_takes_slowest_node() {
        let snap = ClusterSnapshot {
            workers: vec![
                NodeSnapshot {
                    busy_ns: 50,
                    ..Default::default()
                },
                NodeSnapshot {
                    busy_ns: 200,
                    ..Default::default()
                },
            ],
            client: NodeSnapshot {
                busy_ns: 10,
                ..Default::default()
            },
        };
        assert_eq!(snap.makespan_ns(CommMode::NonBlocking), 200);
    }

    #[test]
    fn imbalance_zero_for_equal_loads() {
        let mk = |c| NodeSnapshot {
            compute_ns: c,
            ..Default::default()
        };
        let balanced = ClusterSnapshot {
            workers: vec![mk(100), mk(100), mk(100)],
            client: NodeSnapshot::default(),
        };
        assert_eq!(balanced.imbalance(), 0.0);
        let skewed = ClusterSnapshot {
            workers: vec![mk(0), mk(200)],
            client: NodeSnapshot::default(),
        };
        assert!(skewed.imbalance() > 99.0);
    }

    #[test]
    fn imbalance_ratio_tracks_concentration() {
        let mk = |c| NodeSnapshot {
            compute_ns: c,
            ..Default::default()
        };
        let even = ClusterSnapshot {
            workers: vec![mk(100), mk(100)],
            client: NodeSnapshot::default(),
        };
        assert_eq!(even.imbalance_ratio(), 1.0);
        let hot = ClusterSnapshot {
            workers: vec![mk(300), mk(100), mk(0), mk(0)],
            client: NodeSnapshot::default(),
        };
        assert_eq!(hot.imbalance_ratio(), 3.0);
        // An idle window is "balanced", not a division by zero.
        let idle = ClusterSnapshot {
            workers: vec![mk(0), mk(0)],
            client: NodeSnapshot::default(),
        };
        assert_eq!(idle.imbalance_ratio(), 1.0);
    }

    #[test]
    fn breakdown_percentages_sum_to_hundred() {
        let b = TimeBreakdown {
            compute_ns: 60,
            comm_ns: 30,
            other_ns: 10,
        };
        let (c, m, o) = b.percentages();
        assert!((c - 60.0).abs() < 1e-9);
        assert!((m - 30.0).abs() < 1e-9);
        assert!((o - 10.0).abs() < 1e-9);
        assert!((c + m + o - 100.0).abs() < 1e-9);
        let zero = TimeBreakdown::default();
        assert_eq!(zero.percentages(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn delta_subtracts_earlier_counters() {
        let earlier = NodeSnapshot {
            compute_ns: 10,
            bytes_tx: 100,
            msgs_tx: 2,
            ..Default::default()
        };
        let later = NodeSnapshot {
            compute_ns: 25,
            bytes_tx: 160,
            msgs_tx: 5,
            ..Default::default()
        };
        let d = later.delta(&earlier);
        assert_eq!(d.compute_ns, 15);
        assert_eq!(d.bytes_tx, 60);
        assert_eq!(d.msgs_tx, 3);
        // A reset between snapshots must saturate, not underflow.
        assert_eq!(earlier.delta(&later), NodeSnapshot::default());
    }

    #[test]
    fn cluster_delta_is_node_wise() {
        let mk = |b| NodeSnapshot {
            bytes_rx: b,
            ..Default::default()
        };
        let earlier = ClusterSnapshot {
            workers: vec![mk(5), mk(10)],
            client: mk(1),
        };
        let later = ClusterSnapshot {
            workers: vec![mk(8), mk(30)],
            client: mk(4),
        };
        let d = later.delta(&earlier);
        assert_eq!(d.workers[0].bytes_rx, 3);
        assert_eq!(d.workers[1].bytes_rx, 20);
        assert_eq!(d.client.bytes_rx, 3);
    }

    #[test]
    fn total_merges_client_and_workers() {
        let snap = ClusterSnapshot {
            workers: vec![NodeSnapshot {
                bytes_tx: 5,
                ..Default::default()
            }],
            client: NodeSnapshot {
                bytes_tx: 7,
                ..Default::default()
            },
        };
        assert_eq!(snap.total().bytes_tx, 12);
    }
}
