//! Per-node counts and the model priced from them.
//!
//! The paper's key diagnostics are three-way time breakdowns (computation /
//! communication / other — Figs. 2b & 8), per-node load profiles (the
//! imbalance factor of §4.2.1), and byte counters. Every modeled term is
//! linear in a node's counts of messages, payload bytes, point-dimensions
//! and candidates, so a node only counts (`NodeMetrics`) and a snapshot
//! prices the counts in one place (`Prices::price`). Each count is
//! written only by the thread doing the work, with relaxed atomics on a
//! cache line of its own; consistency is only needed at snapshot time,
//! after the cluster has quiesced.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::net::{CommMode, ComputeRates, NetworkModel};

/// Two counts one thread adds to together, alone on their cache line (128
/// bytes: adjacent-line prefetch pairs 64-byte lines), so no other
/// thread's counts share it.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Line([AtomicU64; 2]);

impl Line {
    #[inline]
    fn add(&self, a: u64, b: u64) {
        self.0[0].fetch_add(a, Ordering::Relaxed);
        self.0[1].fetch_add(b, Ordering::Relaxed);
    }

    fn load(&self) -> [u64; 2] {
        self.0.each_ref().map(|c| c.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.0.iter().for_each(|c| c.store(0, Ordering::Relaxed));
    }
}

/// Monotonic work counts of one node (or the client). Nothing here is
/// time: [`Prices::price`] models it from the counts at snapshot.
#[derive(Debug, Default)]
pub(crate) struct NodeMetrics {
    /// Messages and payload bytes sent, by the sending thread. The client
    /// is one modeled node, so its caller threads share this line.
    tx: Line,
    /// Messages and payload bytes received, by the node's receiving loop.
    rx: Line,
    /// Point-dimensions and candidates scanned, by the scanning thread.
    scan: Line,
}

impl NodeMetrics {
    /// Counts one message of `bytes` payload sent.
    #[inline]
    pub(crate) fn count_tx(&self, bytes: usize) {
        self.tx.add(1, bytes as u64);
    }

    /// Counts one message of `bytes` payload received.
    #[inline]
    pub(crate) fn count_rx(&self, bytes: usize) {
        self.rx.add(1, bytes as u64);
    }

    /// Counts `point_dims` point-dimension products over `candidates`.
    #[inline]
    pub(crate) fn count_scan(&self, point_dims: u64, candidates: u64) {
        self.scan.add(point_dims, candidates);
    }

    /// Resets every count to zero (between experiment phases).
    pub(crate) fn reset(&self) {
        for line in [&self.tx, &self.rx, &self.scan] {
            line.reset();
        }
    }
}

/// What a snapshot prices counts with: the cluster's link, compute rates
/// and delivery mode, and the framing bytes its fabric adds to a message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Prices {
    pub(crate) net: NetworkModel,
    pub(crate) rates: ComputeRates,
    pub(crate) mode: CommMode,
    pub(crate) frame_overhead_bytes: u64,
}

impl Prices {
    /// Prices one node's counts: every modeled field of a snapshot is made
    /// here, rounded once per node rather than once per message.
    pub(crate) fn price(&self, node: &NodeMetrics, worker: bool) -> NodeSnapshot {
        let [msgs_tx, bytes_tx] = node.tx.load();
        let [msgs_rx, bytes_rx] = node.rx.load();
        let [point_dims, candidates] = node.scan.load();
        // Blocking sends occupy both ends for the full transfer (latency +
        // wire time, `MPI_Send`); non-blocking ones for the wire time only
        // (`MPI_Isend`: propagation overlaps further work).
        let latency_ns = match self.mode {
            CommMode::Blocking => self.net.latency_ns,
            CommMode::NonBlocking => 0,
        };
        let link_ns =
            |msgs: u64, bytes: u64| msgs * latency_ns + self.net.occupancy_ns(msgs, bytes);
        let compute_ns = self.rates.compute_ns(point_dims, candidates);
        // (De)serialization CPU is busy-not-compute, the paper's "other
        // overhead": every node pays it per send, a worker also per frame
        // its event loop hands over.
        let decode_ns = if worker {
            self.rates.overhead_ns(msgs_rx, bytes_rx)
        } else {
            0
        };
        NodeSnapshot {
            compute_ns,
            comm_tx_ns: link_ns(msgs_tx, bytes_tx),
            comm_rx_ns: link_ns(msgs_rx, bytes_rx),
            busy_ns: compute_ns + self.rates.overhead_ns(msgs_tx, bytes_tx) + decode_ns,
            bytes_tx,
            bytes_rx,
            msgs_tx,
            msgs_rx,
            wire_tx_bytes: bytes_tx + msgs_tx * self.frame_overhead_bytes,
            wire_rx_bytes: bytes_rx + msgs_rx * self.frame_overhead_bytes,
        }
    }
}

/// One node's counts and the modeled times priced from them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// Modeled nanoseconds of computation: the node's scans
    /// ([`crate::node::NodeCtx::charge_compute`]), or the client's work
    /// ([`crate::Cluster::charge_client_compute`]), at the compute rates.
    pub compute_ns: u64,
    /// Modeled network nanoseconds of the node's sends.
    pub comm_tx_ns: u64,
    /// Modeled network nanoseconds of the node's receives.
    pub comm_rx_ns: u64,
    /// Modeled nanoseconds the node is busy: its compute plus the
    /// (de)serialization overhead of its messages. Not wall time.
    pub busy_ns: u64,
    /// Payload bytes sent.
    pub bytes_tx: u64,
    /// Payload bytes received.
    pub bytes_rx: u64,
    /// Messages sent.
    pub msgs_tx: u64,
    /// Messages received.
    pub msgs_rx: u64,
    /// Wire bytes sent: payload plus the transport's per-message framing
    /// overhead (0 for the in-process fabric).
    pub wire_tx_bytes: u64,
    /// Wire bytes received (payload + framing).
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

    /// Round numbers: 1 ns per point-dim, 10 per candidate, 1 per byte and
    /// 100 per message handled; a link of 8 Gb/s (1 ns per byte) with
    /// 1000 ns of latency and no framing of its own.
    fn round_prices(mode: CommMode, frame_overhead_bytes: u64) -> Prices {
        Prices {
            net: NetworkModel {
                bandwidth_gbps: 8.0,
                latency_ns: 1_000,
                per_message_overhead_bytes: 0,
            },
            rates: ComputeRates {
                ns_per_point_dim: 1.0,
                ns_per_candidate: 10.0,
                ns_per_wire_byte: 1.0,
                ns_per_message: 100.0,
            },
            mode,
            frame_overhead_bytes,
        }
    }

    #[test]
    fn record_and_snapshot_roundtrip() {
        let m = NodeMetrics::default();
        m.count_scan(50, 5);
        m.count_tx(1000);
        m.count_rx(500);
        let s = round_prices(CommMode::NonBlocking, 0).price(&m, true);
        assert_eq!(s.compute_ns, 100);
        // Compute plus one send's and one receive's overhead.
        assert_eq!(s.busy_ns, 100 + 1100 + 600);
        assert_eq!(s.bytes_tx, 1000);
        assert_eq!(s.bytes_rx, 500);
        assert_eq!(s.msgs_tx, 1);
        assert_eq!(s.msgs_rx, 1);
        assert_eq!(s.comm_ns(), 1500);
        assert_eq!(s.other_ns(), 1700);
        // Blocking adds the latency at both ends; the client pays no
        // receive overhead.
        let s = round_prices(CommMode::Blocking, 0).price(&m, false);
        assert_eq!(s.comm_ns(), 3500);
        assert_eq!(s.busy_ns, 100 + 1100);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = NodeMetrics::default();
        m.count_scan(1, 1);
        m.count_tx(2);
        m.count_rx(3);
        m.reset();
        let prices = round_prices(CommMode::Blocking, 4);
        assert_eq!(prices.price(&m, true), NodeSnapshot::default());
    }

    #[test]
    fn wire_bytes_tracked_separately_from_payload() {
        let m = NodeMetrics::default();
        m.count_tx(100);
        m.count_rx(21);
        m.count_rx(0);
        let s = round_prices(CommMode::NonBlocking, 21).price(&m, true);
        assert_eq!(s.bytes_tx, 100);
        assert_eq!(s.wire_tx_bytes, 121); // payload + framing
        assert_eq!(s.wire_rx_bytes, 63);
        let d = s.delta(&NodeSnapshot::default());
        assert_eq!(d.wire_tx_bytes, 121);
        assert_eq!(s.merged(&s).wire_rx_bytes, 126);
    }

    /// Each count sits alone on its line: two threads' counts never share
    /// one.
    #[test]
    fn counts_written_by_different_threads_do_not_share_a_line() {
        let m = NodeMetrics::default();
        let at = |line: &Line| line as *const Line as usize;
        let lines = [at(&m.tx), at(&m.rx), at(&m.scan)];
        for pair in lines.windows(2) {
            assert!(pair[0].abs_diff(pair[1]) >= 128);
        }
        assert_eq!(std::mem::align_of::<NodeMetrics>(), 128);
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
