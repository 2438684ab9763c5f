//! Worker node runtime: identity, the cost-modeled send path, and the
//! per-node context handed to message handlers.
//!
//! A Harmony deployment is one *client* (master) node plus `N` worker nodes
//! (§6.1 uses "one client node and four worker nodes"). Workers run an event
//! loop (see [`crate::cluster`]) that feeds incoming payloads to a
//! [`NodeHandler`]. The handler sends messages — to peers for pipeline hops,
//! to the client for results — through [`NodeCtx::send`], which charges the
//! network cost model and updates metrics on both ends before handing the
//! frame to the [`Transport`](crate::transport::Transport) fabric.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use crate::error::ClusterError;
use crate::metrics::NodeMetrics;
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
    pub net: NetworkModel,
    pub rates: ComputeRates,
    pub comm_mode: CommMode,
    pub delay: DelayMode,
    /// Per-worker metrics, indexed by node id.
    pub worker_metrics: Vec<NodeMetrics>,
    /// Metrics of the client node.
    pub client_metrics: NodeMetrics,
    /// Message counter for deterministic drop injection.
    pub drop_counter: AtomicU64,
    /// Drop every n-th message (0 = never). Deterministic failure injection.
    pub drop_every_nth: u64,
}

impl Shared {
    pub(crate) fn metrics_of(&self, node: NodeId) -> &NodeMetrics {
        if node == CLIENT {
            &self.client_metrics
        } else {
            &self.worker_metrics[node]
        }
    }

    /// Returns `true` when this message must be dropped (failure injection).
    pub(crate) fn should_drop(&self) -> bool {
        if self.drop_every_nth == 0 {
            return false;
        }
        let n = self.drop_counter.fetch_add(1, Ordering::Relaxed) + 1;
        n.is_multiple_of(self.drop_every_nth)
    }
}

/// Core send path shared by workers and the client: charges the cost model,
/// applies failure injection and delay, then hands the frame to the
/// transport. Everything simulated lives here — the transport below only
/// moves frames — so results are identical across fabrics.
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

    let bytes = payload.len() as u64;
    // Blocking sends occupy the endpoint for the full transfer (latency +
    // wire time, `MPI_Send`); non-blocking sends only for the wire time
    // (`MPI_Isend` — propagation overlaps with further work).
    let cost_ns = match shared.comm_mode {
        CommMode::Blocking => shared.net.transfer_ns(payload.len()),
        CommMode::NonBlocking => shared.net.occupancy_ns(payload.len()),
    };
    // Wire traffic = payload plus whatever framing this fabric really adds.
    let wire_bytes = bytes + transport.frame_overhead_bytes();
    shared.metrics_of(from).record_tx(bytes, cost_ns);
    shared.metrics_of(from).add_wire_tx(wire_bytes);
    // Serialization CPU at the sender: modeled, charged as busy-not-compute
    // ("other overhead" in the paper's breakdowns).
    shared
        .metrics_of(from)
        .add_busy(shared.rates.overhead_ns(payload.len()));

    if shared.should_drop() {
        // The sender paid for the transmission; the receiver never sees it.
        return Ok(());
    }
    shared.metrics_of(to).record_rx(bytes, cost_ns);
    shared.metrics_of(to).add_wire_rx(wire_bytes);

    let mut injected_delay_ns = 0;
    if let DelayMode::Sleep { scale } = shared.delay {
        let scaled = (cost_ns as f64 * scale) as u64;
        match shared.comm_mode {
            // Blocking send: the sender stalls for the full transfer.
            CommMode::Blocking => spin_sleep(scaled),
            // Non-blocking send: the receiver's NIC drains the transfer
            // before the handler sees the payload.
            CommMode::NonBlocking => injected_delay_ns = scaled,
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

    /// Sends `payload` to `to` (a worker id or [`CLIENT`]), charging the
    /// network model at both endpoints.
    ///
    /// # Errors
    /// [`ClusterError::UnknownNode`] for an invalid id,
    /// [`ClusterError::NodeDown`] when the destination stopped,
    /// [`ClusterError::Backpressure`] when a bounded transport queue stayed
    /// full.
    pub fn send(&self, to: NodeId, payload: Bytes) -> Result<(), ClusterError> {
        send_impl(&self.shared, &*self.transport, self.node_id, to, payload)
    }

    /// Charges *modeled* computation time for scanning `point_dims`
    /// point-dimension products across `candidates` candidates, using the
    /// cluster's calibrated [`ComputeRates`]. Deterministic and independent
    /// of host scheduling.
    #[inline]
    pub fn charge_compute(&self, point_dims: u64, candidates: u64) {
        let ns = self.shared.rates.compute_ns(point_dims, candidates);
        self.metrics().add_compute(ns);
        self.metrics().add_busy(ns);
    }

    /// The compute rates in force.
    #[inline]
    pub fn rates(&self) -> &ComputeRates {
        &self.shared.rates
    }

    /// This node's metrics.
    #[inline]
    pub fn metrics(&self) -> &NodeMetrics {
        self.shared.metrics_of(self.node_id)
    }

    /// The network model in force.
    #[inline]
    pub fn network(&self) -> &NetworkModel {
        &self.shared.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcTransport;
    use std::time::Duration;

    fn test_shared(workers: usize, drop_every_nth: u64) -> Arc<Shared> {
        Arc::new(Shared {
            net: NetworkModel::default(),
            rates: ComputeRates::default(),
            comm_mode: CommMode::NonBlocking,
            delay: DelayMode::Account,
            worker_metrics: (0..workers).map(|_| NodeMetrics::default()).collect(),
            client_metrics: NodeMetrics::default(),
            drop_counter: AtomicU64::new(0),
            drop_every_nth,
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

    #[test]
    fn send_accounts_both_endpoints() {
        let shared = test_shared(2, 0);
        let (ctx, transport) = test_ctx(shared.clone());
        ctx.send(1, Bytes::from_static(b"hello")).unwrap();
        let tx = shared.worker_metrics[0].snapshot();
        let rx = shared.worker_metrics[1].snapshot();
        assert_eq!(tx.bytes_tx, 5);
        assert_eq!(tx.msgs_tx, 1);
        assert_eq!(rx.bytes_rx, 5);
        assert_eq!(rx.msgs_rx, 1);
        // In-process delivery adds no framing: wire bytes == payload bytes.
        assert_eq!(tx.wire_tx_bytes, 5);
        assert_eq!(rx.wire_rx_bytes, 5);
        // Non-blocking sends charge wire occupancy only (no propagation
        // latency).
        assert_eq!(
            tx.comm_tx_ns,
            shared.net.occupancy_ns(5),
            "non-blocking send must charge occupancy"
        );
        assert!(matches!(
            transport.recv(1, Duration::from_secs(1)).unwrap(),
            Frame::User { from: 0, .. }
        ));
    }

    #[test]
    fn send_to_client_uses_client_metrics() {
        let shared = test_shared(1, 0);
        let (ctx, transport) = test_ctx(shared.clone());
        ctx.send(CLIENT, Bytes::from_static(b"result")).unwrap();
        assert_eq!(shared.client_metrics.snapshot().bytes_rx, 6);
        assert!(transport.recv(CLIENT, Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn unknown_node_rejected() {
        let shared = test_shared(2, 0);
        let (ctx, _transport) = test_ctx(shared);
        assert_eq!(
            ctx.send(99, Bytes::new()),
            Err(ClusterError::UnknownNode(99))
        );
    }

    #[test]
    fn drop_injection_swallows_nth_message() {
        let shared = test_shared(2, 2); // drop every 2nd message
        let (ctx, transport) = test_ctx(shared.clone());
        for _ in 0..4 {
            ctx.send(1, Bytes::from_static(b"x")).unwrap();
        }
        // 2 of 4 delivered.
        let mut delivered = 0;
        while transport.recv(1, Duration::from_millis(10)).is_ok() {
            delivered += 1;
        }
        assert_eq!(delivered, 2);
        let s = shared.worker_metrics[1].snapshot();
        assert_eq!(s.msgs_rx, 2);
        assert_eq!(shared.worker_metrics[0].snapshot().msgs_tx, 4);
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
        let shared = test_shared(1, 0);
        let (ctx, transport) = test_ctx(shared);
        transport.shutdown();
        assert_eq!(ctx.send(0, Bytes::new()), Err(ClusterError::ShutDown));
    }
}
