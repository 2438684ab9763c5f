//! Cluster orchestration: spawning workers, client messaging, barriers,
//! metrics collection, shutdown.
//!
//! [`Cluster::spawn`] builds the configured [`Transport`] fabric and starts
//! one OS thread per worker node; each thread runs an event loop that feeds
//! messages to the node's [`NodeHandler`]. The calling thread plays the
//! paper's *client node*: it submits queries with [`Cluster::send`] /
//! [`Cluster::broadcast`] and harvests results with
//! [`Cluster::recv_timeout`]. All cluster messaging is transport-agnostic:
//! the cost model charges the same modeled nanoseconds whether frames move
//! through in-process channels or real TCP sockets.
//!
//! For multi-threaded clients the receive path can be *split off* with
//! [`Cluster::take_client_receiver`]: the returned [`ClientReceiver`] is
//! moved to a dedicated reader thread (e.g. `harmony-core`'s session
//! router) while any number of threads keep submitting through
//! [`Cluster::send`], which only needs `&self`.

use std::collections::VecDeque;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::error::ClusterError;
use crate::metrics::{ClusterSnapshot, NodeMetrics};
use crate::net::{CommMode, ComputeRates, DelayMode, NetworkModel};
use crate::node::{send_impl, spin_sleep, NodeCtx, NodeHandler, NodeId, Shared, CLIENT};
use crate::transport::{build_transport, Frame, Transport, TransportKind};

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker nodes (the paper uses 4–20).
    pub workers: usize,
    /// Interconnect cost model.
    pub net: NetworkModel,
    /// Blocking vs non-blocking delivery (Fig. 2b's B / NB).
    pub comm_mode: CommMode,
    /// Whether modeled cost is injected as real delay.
    pub delay: DelayMode,
    /// Modeled per-node computation rates (see [`ComputeRates`]).
    pub rates: ComputeRates,
    /// Drop every n-th message (0 = never); deterministic failure injection.
    pub drop_every_nth: u64,
    /// Which fabric physically carries the frames.
    pub transport: TransportKind,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            net: NetworkModel::default(),
            comm_mode: CommMode::NonBlocking,
            delay: DelayMode::Account,
            rates: ComputeRates::default(),
            drop_every_nth: 0,
            transport: TransportKind::default(),
        }
    }
}

impl ClusterConfig {
    /// Config with `workers` nodes and defaults elsewhere.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            ..Self::default()
        }
    }
}

/// A running simulated cluster.
///
/// Dropping the cluster shuts it down; call [`Cluster::shutdown`] for an
/// orderly join with error reporting.
pub struct Cluster {
    config: ClusterConfig,
    shared: Arc<Shared>,
    transport: Arc<dyn Transport>,
    /// `true` after [`Cluster::take_client_receiver`] moved the client
    /// mailbox out.
    client_taken: bool,
    /// User messages buffered while waiting for barrier pongs.
    pending: VecDeque<(NodeId, Bytes)>,
    handles: Vec<JoinHandle<()>>,
    next_ping_token: u64,
    down: bool,
}

impl Cluster {
    /// Spawns `config.workers` worker threads, building each node's handler
    /// with `factory(node_id)`.
    ///
    /// # Panics
    /// Panics if `config.workers == 0` or the transport fabric cannot be
    /// brought up (use [`Cluster::try_spawn`] to handle that).
    pub fn spawn<H, F>(config: ClusterConfig, factory: F) -> Self
    where
        H: NodeHandler,
        F: FnMut(NodeId) -> H,
    {
        Self::try_spawn(config, factory).expect("bring up cluster transport")
    }

    /// Fallible [`Cluster::spawn`]: surfaces transport bring-up failures
    /// (e.g. a TCP listener that cannot bind) instead of panicking.
    ///
    /// # Errors
    /// [`ClusterError::Io`] when the transport cannot be constructed.
    ///
    /// # Panics
    /// Panics if `config.workers == 0`.
    pub fn try_spawn<H, F>(config: ClusterConfig, mut factory: F) -> Result<Self, ClusterError>
    where
        H: NodeHandler,
        F: FnMut(NodeId) -> H,
    {
        assert!(config.workers > 0, "cluster needs at least one worker");

        let shared = Arc::new(Shared {
            net: config.net,
            rates: config.rates,
            comm_mode: config.comm_mode,
            delay: config.delay,
            worker_metrics: (0..config.workers)
                .map(|_| NodeMetrics::default())
                .collect(),
            client_metrics: NodeMetrics::default(),
            drop_counter: AtomicU64::new(0),
            drop_every_nth: config.drop_every_nth,
        });

        let transport = build_transport(&config.transport, config.workers)?;

        let mut handles = Vec::with_capacity(config.workers);
        for node_id in 0..config.workers {
            let ctx = NodeCtx {
                node_id,
                transport: Arc::clone(&transport),
                shared: Arc::clone(&shared),
            };
            let handler = factory(node_id);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("harmony-worker-{node_id}"))
                    .spawn(move || worker_main(handler, ctx))
                    .map_err(|e| ClusterError::Io(format!("spawn worker thread: {e}")))?,
            );
        }

        Ok(Self {
            config,
            shared,
            transport,
            client_taken: false,
            pending: VecDeque::new(),
            handles,
            next_ping_token: 1,
            down: false,
        })
    }

    /// Number of worker nodes.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// The configuration the cluster was spawned with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Sends `payload` from the client to worker `to`.
    ///
    /// # Errors
    /// [`ClusterError::UnknownNode`] / [`ClusterError::NodeDown`] /
    /// [`ClusterError::Backpressure`] / [`ClusterError::ShutDown`].
    pub fn send(&self, to: NodeId, payload: Bytes) -> Result<(), ClusterError> {
        if self.down {
            return Err(ClusterError::ShutDown);
        }
        send_impl(&self.shared, &*self.transport, CLIENT, to, payload)
    }

    /// Sends a copy of `payload` to every worker.
    ///
    /// # Errors
    /// Fails on the first undeliverable worker.
    pub fn broadcast(&self, payload: &Bytes) -> Result<(), ClusterError> {
        for w in 0..self.config.workers {
            self.send(w, payload.clone())?;
        }
        Ok(())
    }

    /// Receives the next message addressed to the client.
    ///
    /// # Errors
    /// [`ClusterError::Timeout`] when nothing arrives in time, and
    /// [`ClusterError::ReceiverDetached`] after
    /// [`Cluster::take_client_receiver`].
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<(NodeId, Bytes), ClusterError> {
        if self.client_taken {
            return Err(ClusterError::ReceiverDetached);
        }
        if let Some(msg) = self.pending.pop_front() {
            return Ok(msg);
        }
        recv_user_frame(&*self.transport, timeout)
    }

    /// Detaches the client mailbox as a standalone [`ClientReceiver`].
    ///
    /// After the split, `&self` sends ([`Cluster::send`] /
    /// [`Cluster::broadcast`]) keep working from any thread, while all
    /// receiving goes through the returned handle — typically on one
    /// dedicated reader thread. Messages already buffered by
    /// [`Cluster::quiesce`] move over with it. Subsequent calls to
    /// [`Cluster::recv_timeout`] or [`Cluster::quiesce`] report
    /// [`ClusterError::ReceiverDetached`].
    ///
    /// # Errors
    /// [`ClusterError::ReceiverDetached`] if the receiver was already taken.
    pub fn take_client_receiver(&mut self) -> Result<ClientReceiver, ClusterError> {
        if self.client_taken {
            return Err(ClusterError::ReceiverDetached);
        }
        self.client_taken = true;
        Ok(ClientReceiver {
            transport: Arc::clone(&self.transport),
            pending: std::mem::take(&mut self.pending),
        })
    }

    /// Barrier: waits until every worker has drained its mailbox `rounds`
    /// times. One round is sufficient for client→worker→client round trips;
    /// pipelines that hop across `h` workers need `rounds >= h`.
    ///
    /// User messages arriving during the barrier are buffered and later
    /// returned by [`Cluster::recv_timeout`] in order.
    ///
    /// # Errors
    /// [`ClusterError::Timeout`] when a worker fails to answer in time,
    /// [`ClusterError::ReceiverDetached`] after
    /// [`Cluster::take_client_receiver`].
    pub fn quiesce(&mut self, rounds: usize, timeout: Duration) -> Result<(), ClusterError> {
        if self.client_taken {
            return Err(ClusterError::ReceiverDetached);
        }
        if self.down {
            return Err(ClusterError::ShutDown);
        }
        let deadline = Instant::now() + timeout;
        for _ in 0..rounds {
            let token = self.next_ping_token;
            self.next_ping_token += 1;
            // Barrier probes ride the transport out-of-band: no cost model.
            self.transport.broadcast(&Frame::Ping { token })?;
            let mut acked = vec![false; self.config.workers];
            let mut acks = 0;
            while acks < self.config.workers {
                let remaining = deadline.saturating_duration_since(Instant::now());
                match self.transport.recv(CLIENT, remaining) {
                    Ok(Frame::Pong { token: t, from }) if t == token => {
                        if let Some(slot) = acked.get_mut(from) {
                            if !*slot {
                                *slot = true;
                                acks += 1;
                            }
                        }
                    }
                    Ok(Frame::Pong { .. }) => {}
                    Ok(Frame::User {
                        from,
                        payload,
                        injected_delay_ns,
                    }) => {
                        spin_sleep(injected_delay_ns);
                        self.pending.push_back((from, payload));
                    }
                    Ok(_) => {}
                    Err(ClusterError::Timeout) => return Err(ClusterError::Timeout),
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    /// Point-in-time metrics for every node and the client.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            workers: self
                .shared
                .worker_metrics
                .iter()
                .map(NodeMetrics::snapshot)
                .collect(),
            client: self.shared.client_metrics.snapshot(),
        }
    }

    /// The transport fabric carrying this cluster's frames.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Attributes `ns` nanoseconds of computation to the client node
    /// (centroid assignment, prewarming, result merging).
    pub fn record_client_compute(&self, ns: u64) {
        self.shared.client_metrics.add_compute(ns);
        self.shared.client_metrics.add_busy(ns);
    }

    /// Charges *modeled* client computation from work counters (see
    /// [`crate::node::NodeCtx::charge_compute`]).
    pub fn charge_client_compute(&self, point_dims: u64, candidates: u64) {
        let ns = self.shared.rates.compute_ns(point_dims, candidates);
        self.record_client_compute(ns);
    }

    /// Zeroes all metrics (between experiment phases).
    pub fn reset_metrics(&self) {
        for m in &self.shared.worker_metrics {
            m.reset();
        }
        self.shared.client_metrics.reset();
    }

    /// Orderly shutdown: signals every worker, joins its thread, then tears
    /// the transport down.
    ///
    /// # Errors
    /// [`ClusterError::NodeDown`] if a worker thread panicked.
    pub fn shutdown(&mut self) -> Result<(), ClusterError> {
        if self.down {
            return Ok(());
        }
        self.down = true;
        for w in 0..self.config.workers {
            // A worker that already died is reported by join below.
            let _ = self.transport.send(w, Frame::Shutdown);
        }
        let mut first_panic = None;
        for (node_id, handle) in self.handles.drain(..).enumerate() {
            if handle.join().is_err() && first_panic.is_none() {
                first_panic = Some(node_id);
            }
        }
        // Workers are gone; close the fabric so detached receivers observe
        // the disconnect.
        self.transport.shutdown();
        match first_panic {
            Some(node) => Err(ClusterError::NodeDown(node)),
            None => Ok(()),
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Receives the next `User` frame addressed to the client, applying
/// receiver-side delay injection and skipping stray barrier pongs.
fn recv_user_frame(
    transport: &dyn Transport,
    timeout: Duration,
) -> Result<(NodeId, Bytes), ClusterError> {
    let deadline = Instant::now() + timeout;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match transport.recv(CLIENT, remaining) {
            Ok(Frame::User {
                from,
                payload,
                injected_delay_ns,
            }) => {
                spin_sleep(injected_delay_ns);
                return Ok((from, payload));
            }
            // Stray pong from an abandoned barrier: skip.
            Ok(_) => continue,
            Err(e) => return Err(e),
        }
    }
}

/// The client-side receive half of a cluster, detached via
/// [`Cluster::take_client_receiver`].
///
/// Exactly one thread should own this handle; it observes every message a
/// worker addresses to [`CLIENT`](crate::node::CLIENT) and applies the same
/// receiver-side delay injection as [`Cluster::recv_timeout`].
pub struct ClientReceiver {
    transport: Arc<dyn Transport>,
    /// Messages buffered by a pre-split [`Cluster::quiesce`] barrier.
    pending: VecDeque<(NodeId, Bytes)>,
}

impl ClientReceiver {
    /// Receives the next message addressed to the client.
    ///
    /// # Errors
    /// [`ClusterError::Timeout`] when nothing arrives in time,
    /// [`ClusterError::ShutDown`] once the cluster has been torn down and
    /// the mailbox is drained.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<(NodeId, Bytes), ClusterError> {
        if let Some(msg) = self.pending.pop_front() {
            return Ok(msg);
        }
        recv_user_frame(&*self.transport, timeout)
    }
}

/// Most user frames one drain of a worker mailbox hands to the handler.
const DRAIN_MAX_FRAMES: usize = 64;

/// Worker event loop: pulls frames off the transport and feeds payloads to
/// the handler. After each blocking receive it also takes the frames
/// already queued behind it, without waiting, and hands the user frames
/// over as one batch ([`NodeHandler::handle_batch`]). A control frame ends
/// the drain and is acted on after the batch before it, so a barrier pong
/// still means that everything sent before the ping has been handled.
fn worker_main<H: NodeHandler>(mut handler: H, ctx: NodeCtx) {
    let mut batch = Vec::new();
    loop {
        let mut next = ctx.transport.recv(ctx.node_id, Duration::from_millis(500));
        let control = loop {
            match next {
                Ok(Frame::User {
                    from,
                    payload,
                    injected_delay_ns,
                }) => {
                    // Receiver-side injected network delay (non-blocking+sleep
                    // mode): the NIC drains the transfer before the handler
                    // runs.
                    spin_sleep(injected_delay_ns);
                    // Deserialization CPU: modeled, busy-not-compute ("other").
                    ctx.metrics()
                        .add_busy(ctx.rates().overhead_ns(payload.len()));
                    batch.push((from, payload));
                    if batch.len() == DRAIN_MAX_FRAMES {
                        break None;
                    }
                    next = ctx.transport.try_recv(ctx.node_id);
                }
                Err(ClusterError::Timeout) => break None,
                other => break Some(other),
            }
        };
        if !batch.is_empty() {
            handler.handle_batch(&ctx, std::mem::take(&mut batch));
        }
        match control {
            None | Some(Ok(Frame::User { .. })) => {}
            Some(Ok(Frame::Ping { token })) => {
                // Barrier probe: answer out-of-band (not cost-modeled).
                let _ = ctx.transport.send(
                    CLIENT,
                    Frame::Pong {
                        from: ctx.node_id,
                        token,
                    },
                );
            }
            Some(Ok(Frame::Pong { .. })) => {}
            Some(Ok(Frame::Shutdown)) | Some(Err(_)) => break,
        }
    }
    handler.on_shutdown(&ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TcpOptions;

    /// Echoes every payload back to the client, uppercased.
    struct Echo;
    impl NodeHandler for Echo {
        fn handle(&mut self, ctx: &NodeCtx, _from: NodeId, payload: Bytes) {
            let up: Vec<u8> = payload.iter().map(|b| b.to_ascii_uppercase()).collect();
            ctx.send(CLIENT, Bytes::from(up)).unwrap();
        }
    }

    /// Forwards the payload to the next worker; the last returns to client.
    struct Ring;
    impl NodeHandler for Ring {
        fn handle(&mut self, ctx: &NodeCtx, _from: NodeId, payload: Bytes) {
            let mut v = payload.to_vec();
            v.push(ctx.id() as u8);
            let next = ctx.id() + 1;
            if next < ctx.workers() {
                ctx.send(next, Bytes::from(v)).unwrap();
            } else {
                ctx.send(CLIENT, Bytes::from(v)).unwrap();
            }
        }
    }

    fn tcp_config(workers: usize) -> ClusterConfig {
        ClusterConfig {
            workers,
            transport: TransportKind::Tcp(TcpOptions::default()),
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn echo_roundtrip() {
        let mut cluster = Cluster::spawn(ClusterConfig::new(2), |_| Echo);
        cluster.send(0, Bytes::from_static(b"ping")).unwrap();
        let (from, reply) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, 0);
        assert_eq!(&reply[..], b"PING");
        cluster.shutdown().unwrap();
    }

    #[test]
    fn echo_roundtrip_over_tcp() {
        let mut cluster = Cluster::spawn(tcp_config(2), |_| Echo);
        cluster.send(0, Bytes::from_static(b"ping")).unwrap();
        let (from, reply) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, 0);
        assert_eq!(&reply[..], b"PING");
        cluster.shutdown().unwrap();
    }

    #[test]
    fn multi_hop_pipeline_crosses_all_workers() {
        let mut cluster = Cluster::spawn(ClusterConfig::new(4), |_| Ring);
        cluster.send(0, Bytes::new()).unwrap();
        let (_, reply) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&reply[..], &[0, 1, 2, 3]);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn multi_hop_pipeline_crosses_all_workers_over_tcp() {
        let mut cluster = Cluster::spawn(tcp_config(4), |_| Ring);
        cluster.send(0, Bytes::new()).unwrap();
        let (_, reply) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&reply[..], &[0, 1, 2, 3]);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn metrics_account_messages_and_bytes() {
        let mut cluster = Cluster::spawn(ClusterConfig::new(2), |_| Echo);
        cluster.send(1, Bytes::from_static(b"abc")).unwrap();
        let _ = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
        let snap = cluster.snapshot();
        assert_eq!(snap.client.bytes_tx, 3);
        assert_eq!(snap.workers[1].bytes_rx, 3);
        assert_eq!(snap.workers[1].bytes_tx, 3); // echo reply
        assert_eq!(snap.client.bytes_rx, 3);
        assert_eq!(snap.workers[0].msgs_rx, 0);
        assert!(snap.workers[1].busy_ns > 0);
        // In-process fabric adds no framing.
        assert_eq!(snap.client.wire_tx_bytes, 3);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn tcp_charges_framing_overhead_into_wire_bytes() {
        let mut cluster = Cluster::spawn(tcp_config(1), |_| Echo);
        cluster.send(0, Bytes::from_static(b"abc")).unwrap();
        let _ = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
        let snap = cluster.snapshot();
        let overhead = crate::transport::TCP_FRAME_OVERHEAD_BYTES;
        // Payload counters stay payload-only; wire counters add framing.
        assert_eq!(snap.client.bytes_tx, 3);
        assert_eq!(snap.client.wire_tx_bytes, 3 + overhead);
        assert_eq!(snap.workers[0].wire_rx_bytes, 3 + overhead);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn reset_metrics_clears_counters() {
        let mut cluster = Cluster::spawn(ClusterConfig::new(1), |_| Echo);
        cluster.send(0, Bytes::from_static(b"x")).unwrap();
        let _ = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
        cluster.reset_metrics();
        let snap = cluster.snapshot();
        assert_eq!(snap.total().bytes_tx, 0);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn quiesce_buffers_user_messages() {
        let mut cluster = Cluster::spawn(ClusterConfig::new(2), |_| Echo);
        cluster.send(0, Bytes::from_static(b"a")).unwrap();
        cluster.send(1, Bytes::from_static(b"b")).unwrap();
        cluster.quiesce(1, Duration::from_secs(5)).unwrap();
        // Both replies must still be retrievable after the barrier.
        let mut got = vec![
            cluster.recv_timeout(Duration::from_secs(1)).unwrap().1,
            cluster.recv_timeout(Duration::from_secs(1)).unwrap().1,
        ];
        got.sort();
        assert_eq!(
            got,
            vec![Bytes::from_static(b"A"), Bytes::from_static(b"B")]
        );
        cluster.shutdown().unwrap();
    }

    #[test]
    fn quiesce_works_over_tcp() {
        let mut cluster = Cluster::spawn(tcp_config(2), |_| Echo);
        cluster.send(0, Bytes::from_static(b"a")).unwrap();
        cluster.quiesce(1, Duration::from_secs(5)).unwrap();
        let (_, reply) = cluster.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(&reply[..], b"A");
        cluster.shutdown().unwrap();
    }

    #[test]
    fn dropped_messages_cause_timeout() {
        let cfg = ClusterConfig {
            workers: 1,
            drop_every_nth: 1, // drop everything
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::spawn(cfg, |_| Echo);
        cluster.send(0, Bytes::from_static(b"lost")).unwrap();
        assert_eq!(
            cluster.recv_timeout(Duration::from_millis(50)),
            Err(ClusterError::Timeout)
        );
        cluster.shutdown().unwrap();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mut cluster = Cluster::spawn(ClusterConfig::new(2), |_| Echo);
        cluster.shutdown().unwrap();
        cluster.shutdown().unwrap();
        assert_eq!(cluster.send(0, Bytes::new()), Err(ClusterError::ShutDown));
        // Drop after shutdown must not panic.
        drop(cluster);
    }

    #[test]
    fn tcp_shutdown_is_idempotent_and_drop_safe() {
        let mut cluster = Cluster::spawn(tcp_config(2), |_| Echo);
        cluster.shutdown().unwrap();
        cluster.shutdown().unwrap();
        assert_eq!(cluster.send(0, Bytes::new()), Err(ClusterError::ShutDown));
        drop(cluster);
    }

    #[test]
    fn worker_panic_reported_at_shutdown() {
        struct Panics;
        impl NodeHandler for Panics {
            fn handle(&mut self, _ctx: &NodeCtx, _from: NodeId, _p: Bytes) {
                panic!("boom");
            }
        }
        let mut cluster = Cluster::spawn(ClusterConfig::new(1), |_| Panics);
        cluster.send(0, Bytes::from_static(b"die")).unwrap();
        // Give the worker time to crash.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(cluster.shutdown(), Err(ClusterError::NodeDown(0)));
    }

    #[test]
    fn blocking_sleep_mode_stalls_sender() {
        // 1 ms latency per message, injected for real.
        let cfg = ClusterConfig {
            workers: 1,
            net: NetworkModel {
                bandwidth_gbps: f64::INFINITY,
                latency_ns: 1_000_000,
                per_message_overhead_bytes: 0,
            },
            comm_mode: CommMode::Blocking,
            delay: DelayMode::Sleep { scale: 1.0 },
            ..ClusterConfig::default()
        };
        let cluster = Cluster::spawn(cfg, |_| Echo);
        let t0 = Instant::now();
        cluster.send(0, Bytes::from_static(b"x")).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(1),
            "blocking send returned early"
        );
        drop(cluster);
    }

    #[test]
    fn broadcast_reaches_every_worker() {
        let mut cluster = Cluster::spawn(ClusterConfig::new(3), |_| Echo);
        cluster.broadcast(&Bytes::from_static(b"hi")).unwrap();
        for _ in 0..3 {
            let (_, r) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(&r[..], b"HI");
        }
        cluster.shutdown().unwrap();
    }

    #[test]
    fn split_receiver_sees_replies_while_cluster_sends() {
        let mut cluster = Cluster::spawn(ClusterConfig::new(2), |_| Echo);
        let mut rx = cluster.take_client_receiver().unwrap();
        // The cluster half can still send from any thread.
        std::thread::scope(|s| {
            s.spawn(|| cluster.send(0, Bytes::from_static(b"a")).unwrap());
            s.spawn(|| cluster.send(1, Bytes::from_static(b"b")).unwrap());
        });
        let mut got = vec![
            rx.recv_timeout(Duration::from_secs(5)).unwrap().1,
            rx.recv_timeout(Duration::from_secs(5)).unwrap().1,
        ];
        got.sort();
        assert_eq!(
            got,
            vec![Bytes::from_static(b"A"), Bytes::from_static(b"B")]
        );
        // The cluster's own receive path is now detached.
        assert_eq!(
            cluster.recv_timeout(Duration::from_millis(10)),
            Err(ClusterError::ReceiverDetached)
        );
        assert!(matches!(
            cluster.take_client_receiver(),
            Err(ClusterError::ReceiverDetached)
        ));
        cluster.shutdown().unwrap();
    }

    #[test]
    fn split_receiver_observes_disconnect_after_drop() {
        let mut cluster = Cluster::spawn(ClusterConfig::new(1), |_| Echo);
        let mut rx = cluster.take_client_receiver().unwrap();
        drop(cluster);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)),
            Err(ClusterError::ShutDown)
        );
    }

    #[test]
    fn tcp_split_receiver_observes_disconnect_after_drop() {
        let mut cluster = Cluster::spawn(tcp_config(1), |_| Echo);
        let mut rx = cluster.take_client_receiver().unwrap();
        drop(cluster);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)),
            Err(ClusterError::ShutDown)
        );
    }

    #[test]
    fn split_receiver_carries_quiesce_buffered_messages() {
        let mut cluster = Cluster::spawn(ClusterConfig::new(1), |_| Echo);
        cluster.send(0, Bytes::from_static(b"x")).unwrap();
        cluster.quiesce(1, Duration::from_secs(5)).unwrap();
        let mut rx = cluster.take_client_receiver().unwrap();
        let (_, reply) = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(&reply[..], b"X");
        cluster.shutdown().unwrap();
    }

    /// Echoes like [`Echo`] and logs each batch the drain hands over; the
    /// first message waits for `gate`, so the next ones queue behind it.
    struct Gated {
        gate: Option<std::sync::mpsc::Receiver<()>>,
        batches: Arc<parking_lot::Mutex<Vec<Vec<Bytes>>>>,
    }
    impl NodeHandler for Gated {
        fn handle(&mut self, ctx: &NodeCtx, from: NodeId, payload: Bytes) {
            if let Some(gate) = self.gate.take() {
                gate.recv().unwrap();
            }
            Echo.handle(ctx, from, payload);
        }
        fn handle_batch(&mut self, ctx: &NodeCtx, batch: Vec<(NodeId, Bytes)>) {
            let payloads = batch.iter().map(|(_, p)| p.clone()).collect();
            self.batches.lock().push(payloads);
            for (from, payload) in batch {
                self.handle(ctx, from, payload);
            }
        }
    }

    /// One gated worker, its gate and its batch log.
    type GatedCluster = (
        Cluster,
        std::sync::mpsc::Sender<()>,
        Arc<parking_lot::Mutex<Vec<Vec<Bytes>>>>,
    );

    fn gated_cluster(config: ClusterConfig) -> GatedCluster {
        let (open, gate) = std::sync::mpsc::channel();
        let batches = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut gate = Some(gate);
        let log = Arc::clone(&batches);
        let cluster = Cluster::spawn(config, move |_| Gated {
            gate: gate.take(),
            batches: Arc::clone(&log),
        });
        (cluster, open, batches)
    }

    const QUEUED: [&[u8]; 4] = [b"g", b"a", b"b", b"c"];

    /// A barrier ping queued behind user frames is answered only after the
    /// drain has handled them all: every reply reaches the client before
    /// the pong, and the frames that queued were handed over together.
    #[test]
    fn a_ping_queued_behind_user_frames_is_answered_after_them() {
        for config in [ClusterConfig::new(1), tcp_config(1)] {
            let label = config.transport.label();
            let (mut cluster, open, batches) = gated_cluster(config);
            for payload in QUEUED {
                cluster.send(0, Bytes::from_static(payload)).unwrap();
            }
            // The gate opens only once every frame sent is handed over or
            // waiting in the worker's mailbox: a frame still on its way
            // (over TCP, in the reader) would be drained alone.
            let deadline = Instant::now() + Duration::from_secs(5);
            let accounted = || {
                let handed: usize = batches.lock().iter().map(Vec::len).sum();
                handed + cluster.transport.queued(0)
            };
            while accounted() < QUEUED.len() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            cluster
                .transport
                .broadcast(&Frame::Ping { token: 7 })
                .unwrap();
            open.send(()).unwrap();
            let mut replies = Vec::new();
            loop {
                match cluster.transport.recv(CLIENT, Duration::from_secs(5)) {
                    Ok(Frame::User { payload, .. }) => replies.push(payload),
                    Ok(Frame::Pong { token: 7, from: 0 }) => break,
                    other => panic!("{label}: unexpected {other:?}"),
                }
            }
            let want = QUEUED.map(|p| Bytes::from(p.to_ascii_uppercase()));
            assert_eq!(replies, want, "{label}: replies before the pong, in order");
            let batches = batches.lock().clone();
            let handed: Vec<Bytes> = batches.iter().flatten().cloned().collect();
            let sent = QUEUED.map(Bytes::from_static);
            assert_eq!(
                handed, sent,
                "{label}: every frame handed over once, in order"
            );
            assert!(
                batches.iter().any(|b| b.len() > 1),
                "{label}: frames queued behind the gate were not drained together"
            );
            cluster.shutdown().unwrap();
        }
    }

    /// A shutdown queued behind user frames still stops the loop, after
    /// the frames before it are handled.
    #[test]
    fn a_queued_shutdown_stops_the_loop_after_the_frames_before_it() {
        for config in [ClusterConfig::new(1), tcp_config(1)] {
            let label = config.transport.label();
            let (mut cluster, open, batches) = gated_cluster(config);
            for payload in QUEUED {
                cluster.send(0, Bytes::from_static(payload)).unwrap();
            }
            cluster.transport.send(0, Frame::Shutdown).unwrap();
            open.send(()).unwrap();
            // Joins the worker thread: returns only once the loop stopped.
            cluster.shutdown().unwrap();
            let handed = batches.lock().iter().flatten().count();
            assert_eq!(handed, QUEUED.len(), "{label}: frames before the shutdown");
        }
    }

    /// The default `handle_batch` calls `handle` in arrival order: a
    /// burst of echoes comes back in the order it was sent.
    #[test]
    fn default_batch_handling_keeps_arrival_order() {
        for config in [ClusterConfig::new(1), tcp_config(1)] {
            let mut cluster = Cluster::spawn(config, |_| Echo);
            let sent: Vec<Bytes> = (0..200u32)
                .map(|i| Bytes::from(format!("m{i}").into_bytes()))
                .collect();
            for payload in &sent {
                cluster.send(0, payload.clone()).unwrap();
            }
            for payload in &sent {
                let (_, reply) = cluster.recv_timeout(Duration::from_secs(5)).unwrap();
                assert_eq!(reply[..], payload.to_ascii_uppercase()[..]);
            }
            cluster.shutdown().unwrap();
        }
    }

    #[test]
    fn on_shutdown_hook_runs() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static RAN: AtomicBool = AtomicBool::new(false);
        struct Hooked;
        impl NodeHandler for Hooked {
            fn handle(&mut self, _ctx: &NodeCtx, _from: NodeId, _p: Bytes) {}
            fn on_shutdown(&mut self, _ctx: &NodeCtx) {
                RAN.store(true, Ordering::SeqCst);
            }
        }
        let mut cluster = Cluster::spawn(ClusterConfig::new(1), |_| Hooked);
        cluster.shutdown().unwrap();
        assert!(RAN.load(Ordering::SeqCst));
    }
}
