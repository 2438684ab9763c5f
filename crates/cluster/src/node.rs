//! Worker node runtime: identity, the counted send path, and the per-node
//! context handed to message handlers.
//!
//! A Harmony deployment is one *client* (master) node plus `N` worker nodes
//! (§6.1 uses "one client node and four worker nodes"). Workers run an event
//! loop (see [`crate::cluster`]) that feeds incoming payloads to a
//! [`NodeHandler`]. The handler sends messages — to peers for pipeline hops,
//! to the client for results — through [`NodeCtx::send`], which counts the
//! message at the sender before handing the frame to the
//! [`Transport`](crate::transport::Transport) fabric; the receiving loop
//! counts it again at the other end.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use crate::error::ClusterError;
use crate::metrics::{NodeMetrics, Prices};
use crate::net::{CommMode, ComputeRates, DelayMode, NetworkModel};
use crate::transport::{Frame, Transport};

/// Identifier of a node within a cluster. Workers are `0..N`.
pub type NodeId = usize;

/// The distinguished client (master) node id.
pub const CLIENT: NodeId = usize::MAX;

/// Logic hosted on a worker node.
///
/// Handlers are single-threaded per node: `handle` and `handle_batch` are
/// never called concurrently for the same node, so implementations can
/// keep plain mutable state.
pub trait NodeHandler: Send + 'static {
    /// Processes one message. Replies and forwards go through `ctx`.
    fn handle(&mut self, ctx: &NodeCtx, from: NodeId, payload: Bytes);

    /// Processes the messages that were queued together, in arrival
    /// order: the event loop hands over everything already in the mailbox
    /// at once, so a handler may execute adjacent messages jointly as long
    /// as it keeps their order. The default handles them one by one.
    fn handle_batch(&mut self, ctx: &NodeCtx, batch: Vec<(NodeId, Bytes)>) {
        for (from, payload) in batch {
            self.handle(ctx, from, payload);
        }
    }

    /// Called once after the node receives the shutdown signal.
    fn on_shutdown(&mut self, _ctx: &NodeCtx) {}
}

/// Shared cluster state visible to every node.
pub(crate) struct Shared {
    /// What snapshots price the counts with.
    pub prices: Prices,
    pub delay: DelayMode,
    /// Per-worker counts, indexed by node id.
    pub worker_metrics: Vec<NodeMetrics>,
    /// Counts of the client node.
    pub client_metrics: NodeMetrics,
}

impl Shared {
    pub(crate) fn metrics_of(&self, node: NodeId) -> &NodeMetrics {
        if node == CLIENT {
            &self.client_metrics
        } else {
            &self.worker_metrics[node]
        }
    }
}

/// Core send path shared by workers and the client: counts the message at
/// the sender, applies injected delay, then hands the frame to the
/// transport. It writes no other node's counts and models no time except
/// the delay [`DelayMode::Sleep`] injects; snapshots price the counts.
pub(crate) fn send_impl(
    shared: &Shared,
    transport: &dyn Transport,
    from: NodeId,
    to: NodeId,
    payload: Bytes,
) -> Result<(), ClusterError> {
    if to != CLIENT && to >= shared.worker_metrics.len() {
        return Err(ClusterError::UnknownNode(to));
    }
    shared.metrics_of(from).count_tx(payload.len());

    let mut injected_delay_ns = 0;
    if let DelayMode::Sleep { scale } = shared.delay {
        let net = &shared.prices.net;
        match shared.prices.mode {
            // Blocking send: the sender stalls for the full transfer.
            CommMode::Blocking => {
                spin_sleep((net.transfer_ns(payload.len()) as f64 * scale) as u64);
            }
            // Non-blocking send: the receiver's NIC drains the wire time
            // before the handler sees the payload.
            CommMode::NonBlocking => {
                let ns = net.occupancy_ns(1, payload.len() as u64);
                injected_delay_ns = (ns as f64 * scale) as u64;
            }
        }
    }

    transport.send(
        to,
        Frame::User {
            from,
            payload,
            injected_delay_ns,
        },
    )
}

/// Sleeps `ns` nanoseconds with reasonable sub-millisecond accuracy.
pub(crate) fn spin_sleep(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    let target = std::time::Duration::from_nanos(ns);
    // Coarse sleep for the bulk, spin for the tail.
    if target > std::time::Duration::from_micros(200) {
        std::thread::sleep(target - std::time::Duration::from_micros(100));
    }
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

/// Per-node context: identity, peers, metrics, and the cost-model send path.
pub struct NodeCtx {
    pub(crate) node_id: NodeId,
    pub(crate) transport: Arc<dyn Transport>,
    pub(crate) shared: Arc<Shared>,
}

impl NodeCtx {
    /// This node's id.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.node_id
    }

    /// Number of worker nodes in the cluster.
    #[inline]
    pub fn workers(&self) -> usize {
        self.transport.workers()
    }

    /// Sends `payload` to `to` (a worker id or [`CLIENT`]), counted at this
    /// node now and at `to` when its loop receives it.
    ///
    /// # Errors
    /// [`ClusterError::UnknownNode`] for an invalid id,
    /// [`ClusterError::NodeDown`] when the destination stopped,
    /// [`ClusterError::Backpressure`] when a bounded transport queue stayed
    /// full.
    pub fn send(&self, to: NodeId, payload: Bytes) -> Result<(), ClusterError> {
        send_impl(&self.shared, &*self.transport, self.node_id, to, payload)
    }

    /// Counts a scan of `point_dims` point-dimension products across
    /// `candidates` candidates; snapshots price it as *modeled* computation
    /// time at the cluster's calibrated [`ComputeRates`]. Deterministic and
    /// independent of host scheduling.
    #[inline]
    pub fn charge_compute(&self, point_dims: u64, candidates: u64) {
        self.metrics().count_scan(point_dims, candidates);
    }

    /// The compute rates in force.
    #[inline]
    pub fn rates(&self) -> &ComputeRates {
        &self.shared.prices.rates
    }

    /// This node's counts.
    #[inline]
    pub(crate) fn metrics(&self) -> &NodeMetrics {
        self.shared.metrics_of(self.node_id)
    }

    /// The network model in force.
    #[inline]
    pub fn network(&self) -> &NetworkModel {
        &self.shared.prices.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NodeSnapshot;
    use crate::transport::InProcTransport;
    use std::time::Duration;

    fn test_shared(workers: usize) -> Arc<Shared> {
        Arc::new(Shared {
            prices: Prices {
                net: NetworkModel::default(),
                rates: ComputeRates::default(),
                mode: CommMode::NonBlocking,
                frame_overhead_bytes: 0,
            },
            delay: DelayMode::Account,
            worker_metrics: (0..workers).map(|_| NodeMetrics::default()).collect(),
            client_metrics: NodeMetrics::default(),
        })
    }

    fn test_ctx(shared: Arc<Shared>) -> (NodeCtx, Arc<InProcTransport>) {
        let workers = shared.worker_metrics.len();
        let transport = Arc::new(InProcTransport::new(workers));
        (
            NodeCtx {
                node_id: 0,
                transport: Arc::clone(&transport) as Arc<dyn Transport>,
                shared,
            },
            transport,
        )
    }

    /// `node`'s counts priced.
    fn priced(shared: &Shared, node: NodeId) -> NodeSnapshot {
        shared.prices.price(shared.metrics_of(node), node != CLIENT)
    }

    #[test]
    fn send_counts_the_sender_only() {
        let shared = test_shared(2);
        let (ctx, transport) = test_ctx(shared.clone());
        ctx.send(1, Bytes::from_static(b"hello")).unwrap();
        let tx = priced(&shared, 0);
        assert_eq!(tx.bytes_tx, 5);
        assert_eq!(tx.msgs_tx, 1);
        // In-process delivery adds no framing: wire bytes == payload bytes.
        assert_eq!(tx.wire_tx_bytes, 5);
        // Non-blocking sends charge wire occupancy only (no propagation
        // latency).
        assert_eq!(
            tx.comm_tx_ns,
            shared.prices.net.occupancy_ns(1, 5),
            "non-blocking send must charge occupancy"
        );
        // The receiver's counts are its receiving loop's to write.
        assert_eq!(priced(&shared, 1), NodeSnapshot::default());
        assert!(matches!(
            transport.recv(1, Duration::from_secs(1)).unwrap(),
            Frame::User { from: 0, .. }
        ));
    }

    #[test]
    fn send_to_client_counts_at_the_worker() {
        let shared = test_shared(1);
        let (ctx, transport) = test_ctx(shared.clone());
        ctx.send(CLIENT, Bytes::from_static(b"result")).unwrap();
        assert_eq!(priced(&shared, 0).bytes_tx, 6);
        assert_eq!(priced(&shared, CLIENT), NodeSnapshot::default());
        assert!(transport.recv(CLIENT, Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn unknown_node_rejected() {
        let shared = test_shared(2);
        let (ctx, _transport) = test_ctx(shared);
        assert_eq!(
            ctx.send(99, Bytes::new()),
            Err(ClusterError::UnknownNode(99))
        );
    }

    #[test]
    fn spin_sleep_is_accurate_enough() {
        let t0 = Instant::now();
        spin_sleep(500_000); // 0.5 ms
        let elapsed = t0.elapsed().as_nanos() as u64;
        assert!(elapsed >= 500_000, "slept only {elapsed} ns");
        assert!(elapsed < 50_000_000, "oversleep: {elapsed} ns");
    }

    #[test]
    fn send_after_transport_shutdown_rejected() {
        let shared = test_shared(1);
        let (ctx, transport) = test_ctx(shared);
        transport.shutdown();
        assert_eq!(ctx.send(0, Bytes::new()), Err(ClusterError::ShutDown));
    }
}
