//! The transport fabric: how frames physically move between nodes.
//!
//! Every inter-node message flows through the [`Transport`] trait as an
//! opaque [`Frame`]. The cost model, metrics, failure injection, and delay
//! injection all live *above* the transport (see [`crate::node::send_impl`]):
//! a transport's only job is reliable frame delivery, which is what makes
//! results bit-identical across backends. Two implementations ship:
//!
//! * [`InProcTransport`] — the original in-process fabric: one
//!   crossbeam-channel mailbox per node, zero framing overhead. This is the
//!   default and what the simulated cost model was calibrated against.
//! * [`TcpTransport`] — real loopback sockets carrying length-prefixed
//!   frames encoded with the [`crate::codec`] wire format. Each destination
//!   owns a bounded send queue drained by a writer thread that coalesces
//!   whatever is queued into one `write` and flushes the moment the queue
//!   runs dry; a full queue surfaces as
//!   [`ClusterError::Backpressure`], and broken connections are re-dialed
//!   with bounded retries before the destination is declared down.
//!
//! ## Frame format (TCP)
//!
//! ```text
//! +----------------+---------------------------------------------+
//! | u32 LE length  |  Wire-encoded Frame (length bytes)          |
//! +----------------+---------------------------------------------+
//! ```
//!
//! The body reuses the codec's rules (tag byte, little-endian integers,
//! length-prefixed payload). Frames longer than [`MAX_FRAME_BYTES`] are
//! refused at `send` ([`ClusterError::FrameTooLarge`]) and rejected on
//! decode — a hostile or corrupt length prefix cannot force an unbounded
//! allocation — and any malformed frame drops the connection so the reader
//! can resynchronize on a fresh accept.
//!
//! ## Backpressure and reconnect contract (TCP)
//!
//! * `send` waits at most [`TcpOptions::send_wait`] for queue space, then
//!   fails with [`ClusterError::Backpressure`] — callers decide whether to
//!   retry, shed, or abort.
//! * A failed write re-dials the destination up to
//!   [`TcpOptions::connect_retries`] times with linear backoff and then
//!   retransmits the unacknowledged batch on the new connection
//!   (at-least-once during reconnect); if every attempt fails the
//!   destination is marked down and subsequent sends fail with
//!   [`ClusterError::NodeDown`].

use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::{Mutex, RwLock};

use crate::codec::{CodecError, Wire};
use crate::error::ClusterError;
use crate::node::{NodeId, CLIENT};

/// Hard ceiling on a single frame's encoded body (64 MiB). A corrupt or
/// hostile length prefix beyond this drops the connection instead of
/// allocating.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// The opaque unit a transport moves between nodes.
///
/// `User` carries an application payload plus the receiver-side delay the
/// cost model asked to inject; `Ping`/`Pong` are the barrier probes of
/// [`crate::cluster::Cluster::quiesce`] (out of band, never cost-modeled);
/// `Shutdown` terminates a worker loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// An application payload.
    User {
        /// Sending node.
        from: NodeId,
        /// Serialized message.
        payload: Bytes,
        /// Receiver-side injected delay (non-blocking + sleep mode), ns.
        injected_delay_ns: u64,
    },
    /// Barrier probe; the worker runtime answers with `Pong` directly.
    Ping {
        /// Token echoed back in the pong.
        token: u64,
    },
    /// Barrier acknowledgment (worker → client).
    Pong {
        /// Responding worker.
        from: NodeId,
        /// Token from the matching ping.
        token: u64,
    },
    /// Orderly termination of the worker loop.
    Shutdown,
}

impl Frame {
    /// Encoded body size in bytes (without the u32 length prefix).
    pub fn encoded_len(&self) -> usize {
        match self {
            Frame::User { payload, .. } => 1 + 8 + 8 + 8 + payload.len(),
            Frame::Ping { .. } => 1 + 8,
            Frame::Pong { .. } => 1 + 8 + 8,
            Frame::Shutdown => 1,
        }
    }
}

impl Wire for Frame {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Frame::User {
                from,
                payload,
                injected_delay_ns,
            } => {
                buf.put_u8(0);
                buf.put_u64_le(*from as u64);
                buf.put_u64_le(*injected_delay_ns);
                buf.put_u64_le(payload.len() as u64);
                buf.put_slice(payload);
            }
            Frame::Ping { token } => {
                buf.put_u8(1);
                buf.put_u64_le(*token);
            }
            Frame::Pong { from, token } => {
                buf.put_u8(2);
                buf.put_u64_le(*from as u64);
                buf.put_u64_le(*token);
            }
            Frame::Shutdown => buf.put_u8(3),
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let tag = u8::decode(buf)?;
        match tag {
            0 => {
                let from = u64::decode(buf)? as usize;
                let injected_delay_ns = u64::decode(buf)?;
                let len = usize::decode(buf)?;
                if len > buf.remaining() {
                    return Err(CodecError::Invalid(format!(
                        "payload claims {len} bytes but only {} remain",
                        buf.remaining()
                    )));
                }
                let payload = buf.copy_to_bytes(len);
                Ok(Frame::User {
                    from,
                    payload,
                    injected_delay_ns,
                })
            }
            1 => Ok(Frame::Ping {
                token: u64::decode(buf)?,
            }),
            2 => Ok(Frame::Pong {
                from: u64::decode(buf)? as usize,
                token: u64::decode(buf)?,
            }),
            3 => Ok(Frame::Shutdown),
            t => Err(CodecError::Invalid(format!("bad frame tag {t}"))),
        }
    }
}

/// Appends `frame` to `buf` as one length-prefixed wire frame.
pub fn encode_frame(frame: &Frame, buf: &mut BytesMut) {
    let body_len = frame.encoded_len();
    debug_assert!(body_len <= MAX_FRAME_BYTES, "frame exceeds MAX_FRAME_BYTES");
    buf.reserve(4 + body_len);
    buf.put_u32_le(body_len as u32);
    frame.encode(buf);
}

/// Tries to decode one length-prefixed frame from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete frame
/// (read more bytes and retry — nothing is consumed).
///
/// # Errors
/// [`CodecError::Invalid`] for an oversized length prefix or a malformed
/// body; the connection carrying such bytes cannot be resynchronized.
pub fn decode_frame(buf: &mut Bytes) -> Result<Option<Frame>, CodecError> {
    if buf.remaining() < 4 {
        return Ok(None);
    }
    let header = &buf[..4];
    let body_len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    if body_len > MAX_FRAME_BYTES {
        return Err(CodecError::Invalid(format!(
            "frame length {body_len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    if buf.remaining() < 4 + body_len {
        return Ok(None);
    }
    buf.advance(4);
    let body = buf.copy_to_bytes(body_len);
    Frame::from_bytes(body).map(Some)
}

/// Which fabric carries the cluster's frames.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process crossbeam channels (the calibrated default).
    #[default]
    InProc,
    /// Real loopback TCP sockets with framing, batching, and backpressure.
    Tcp(TcpOptions),
}

impl TransportKind {
    /// TCP with default options.
    pub fn tcp() -> Self {
        TransportKind::Tcp(TcpOptions::default())
    }

    /// Short label for reports ("inproc" / "tcp").
    pub fn label(&self) -> &'static str {
        match self {
            TransportKind::InProc => "inproc",
            TransportKind::Tcp(_) => "tcp",
        }
    }
}

/// Tuning knobs of the [`TcpTransport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpOptions {
    /// Frames a destination's send queue holds before `send` pushes back.
    pub queue_capacity: usize,
    /// Coalescing buffer size that forces a flush while frames are still
    /// queued (an idle queue always flushes at once).
    pub flush_threshold_bytes: usize,
    /// Longest `send` waits for queue space before
    /// [`ClusterError::Backpressure`].
    pub send_wait: Duration,
    /// Dial attempts per (re)connect before the destination is declared
    /// down.
    pub connect_retries: u32,
    /// Base backoff between dial attempts (grows linearly).
    pub retry_backoff: Duration,
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            flush_threshold_bytes: 64 << 10,
            send_wait: Duration::from_millis(200),
            connect_retries: 5,
            retry_backoff: Duration::from_millis(20),
        }
    }
}

/// A cluster fabric: moves opaque [`Frame`]s between the `N` workers and
/// the client node.
///
/// Implementations must be reliable and FIFO per destination — everything
/// probabilistic (drop injection, modeled latency) is layered above by the
/// cost model, so the same workload produces bit-identical results on every
/// backend.
pub trait Transport: Send + Sync {
    /// Number of worker nodes (the client is addressed as [`CLIENT`]).
    fn workers(&self) -> usize;

    /// Delivers `frame` to `to`'s mailbox.
    ///
    /// # Errors
    /// [`ClusterError::UnknownNode`] for an invalid id,
    /// [`ClusterError::NodeDown`] when the destination is gone,
    /// [`ClusterError::Backpressure`] when its send queue stayed full,
    /// [`ClusterError::FrameTooLarge`] for a frame a framing backend
    /// cannot carry, [`ClusterError::ShutDown`] after
    /// [`Transport::shutdown`].
    fn send(&self, to: NodeId, frame: Frame) -> Result<(), ClusterError>;

    /// Delivers a copy of `frame` to every worker.
    ///
    /// # Errors
    /// Fails on the first undeliverable worker (see [`Transport::send`]).
    fn broadcast(&self, frame: &Frame) -> Result<(), ClusterError> {
        for w in 0..self.workers() {
            self.send(w, frame.clone())?;
        }
        Ok(())
    }

    /// Receives the next frame addressed to `node`.
    ///
    /// Exactly one thread consumes each node's mailbox (the worker's event
    /// loop, or the client router for [`CLIENT`]).
    ///
    /// # Errors
    /// [`ClusterError::Timeout`] when nothing arrives in time,
    /// [`ClusterError::ShutDown`] once the fabric is torn down and drained.
    fn recv(&self, node: NodeId, timeout: Duration) -> Result<Frame, ClusterError>;

    /// Takes the next frame already queued for `node`, without waiting
    /// (and without the spinning and yielding a zero-timeout
    /// [`Transport::recv`] may do before it gives up).
    ///
    /// # Errors
    /// [`ClusterError::Timeout`] when nothing is queued,
    /// [`ClusterError::ShutDown`] once the fabric is torn down and drained.
    fn try_recv(&self, node: NodeId) -> Result<Frame, ClusterError>;

    /// Frames delivered to `node`'s mailbox and not yet received from it
    /// (0 for an unknown node). A frame still in flight — in a send queue,
    /// on a socket — is not counted yet.
    fn queued(&self, node: NodeId) -> usize;

    /// Framing bytes this transport adds to each user message on the wire
    /// (0 for in-process delivery). Charged into the `wire_*` metrics.
    fn frame_overhead_bytes(&self) -> u64;

    /// Payload bytes currently buffered in send queues (0 when the
    /// transport does not buffer).
    fn buffered_bytes(&self) -> u64 {
        0
    }

    /// Tears the fabric down: closes queues and connections, wakes blocked
    /// receivers, joins background threads. Idempotent.
    fn shutdown(&self);
}

/// Builds the transport described by `kind` for `workers` nodes.
///
/// # Errors
/// [`ClusterError::Io`] when a TCP listener cannot bind.
pub fn build_transport(
    kind: &TransportKind,
    workers: usize,
) -> Result<Arc<dyn Transport>, ClusterError> {
    match kind {
        TransportKind::InProc => Ok(Arc::new(InProcTransport::new(workers))),
        TransportKind::Tcp(opts) => Ok(Arc::new(TcpTransport::bind(workers, opts.clone())?)),
    }
}

/// One node's receive side: its channel, locked only by its single
/// consumer, and a count of the frames waiting in it.
struct Mailbox {
    rx: Mutex<Receiver<Frame>>,
    /// Frames delivered minus frames taken. Delivery is counted after the
    /// frame is in the channel, so a frame taken first leaves it at −1
    /// until its delivery is counted.
    depth: Arc<AtomicIsize>,
}

impl Mailbox {
    fn new(rx: Receiver<Frame>) -> Self {
        Self {
            rx: Mutex::new(rx),
            depth: Arc::new(AtomicIsize::new(0)),
        }
    }

    /// [`Transport::recv`] on this mailbox.
    fn recv(&self, timeout: Duration) -> Result<Frame, ClusterError> {
        let taken = match self.rx.lock().recv_timeout(timeout) {
            Ok(frame) => Ok(frame),
            Err(RecvTimeoutError::Timeout) => Err(ClusterError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(ClusterError::ShutDown),
        };
        self.took(taken)
    }

    /// [`Transport::try_recv`] on this mailbox.
    fn try_recv(&self) -> Result<Frame, ClusterError> {
        let taken = match self.rx.lock().try_recv() {
            Ok(frame) => Ok(frame),
            Err(TryRecvError::Empty) => Err(ClusterError::Timeout),
            Err(TryRecvError::Disconnected) => Err(ClusterError::ShutDown),
        };
        self.took(taken)
    }

    fn took(&self, taken: Result<Frame, ClusterError>) -> Result<Frame, ClusterError> {
        if taken.is_ok() {
            self.depth.fetch_sub(1, Ordering::AcqRel);
        }
        taken
    }

    /// [`Transport::queued`] on this mailbox.
    fn queued(&self) -> usize {
        self.depth.load(Ordering::Acquire).max(0) as usize
    }
}

fn slot_of(node: NodeId, workers: usize) -> Result<usize, ClusterError> {
    if node == CLIENT {
        Ok(workers)
    } else if node < workers {
        Ok(node)
    } else {
        Err(ClusterError::UnknownNode(node))
    }
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

/// The original in-process fabric: one unbounded channel per node, no
/// serialization, no framing. [`Transport::shutdown`] drops the send side so
/// drained receivers observe disconnection as [`ClusterError::ShutDown`].
pub struct InProcTransport {
    workers: usize,
    /// Send halves, slot-indexed (workers then client); `None` after
    /// shutdown.
    senders: RwLock<Option<Vec<Sender<Frame>>>>,
    /// Receive sides, slot-indexed like `senders`.
    mailboxes: Vec<Mailbox>,
}

impl InProcTransport {
    /// A fabric for `workers` nodes plus the client.
    pub fn new(workers: usize) -> Self {
        let mut senders = Vec::with_capacity(workers + 1);
        let mut mailboxes = Vec::with_capacity(workers + 1);
        for _ in 0..=workers {
            let (tx, rx) = unbounded();
            senders.push(tx);
            mailboxes.push(Mailbox::new(rx));
        }
        Self {
            workers,
            senders: RwLock::new(Some(senders)),
            mailboxes,
        }
    }
}

impl Transport for InProcTransport {
    fn workers(&self) -> usize {
        self.workers
    }

    fn send(&self, to: NodeId, frame: Frame) -> Result<(), ClusterError> {
        let slot = slot_of(to, self.workers)?;
        let guard = self.senders.read();
        let senders = guard.as_ref().ok_or(ClusterError::ShutDown)?;
        senders[slot]
            .send(frame)
            .map_err(|_| ClusterError::NodeDown(to))?;
        self.mailboxes[slot].depth.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    fn recv(&self, node: NodeId, timeout: Duration) -> Result<Frame, ClusterError> {
        self.mailboxes[slot_of(node, self.workers)?].recv(timeout)
    }

    fn try_recv(&self, node: NodeId) -> Result<Frame, ClusterError> {
        self.mailboxes[slot_of(node, self.workers)?].try_recv()
    }

    fn queued(&self, node: NodeId) -> usize {
        slot_of(node, self.workers).map_or(0, |slot| self.mailboxes[slot].queued())
    }

    fn frame_overhead_bytes(&self) -> u64 {
        0
    }

    fn shutdown(&self) {
        self.senders.write().take();
    }
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// Outcome of pushing into a bounded send queue.
enum PushError {
    Full,
    Closed,
}

struct QueueState {
    frames: VecDeque<Frame>,
    bytes: usize,
    closed: bool,
}

/// A bounded MPSC frame queue with blocking push/pop and a count of the
/// wire bytes it holds.
struct SendQueue {
    state: StdMutex<QueueState>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl SendQueue {
    fn new(capacity: usize) -> Self {
        Self {
            state: StdMutex::new(QueueState {
                frames: VecDeque::new(),
                bytes: 0,
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues `frame`, waiting up to `wait` for space.
    fn push(&self, frame: Frame, wait: Duration) -> Result<(), PushError> {
        let deadline = Instant::now() + wait;
        // Poisoning recovery: QueueState mutations are plain arithmetic and
        // queue ops that stay consistent even if a holder panicked mid-way.
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.closed {
                return Err(PushError::Closed);
            }
            if state.frames.len() < self.capacity {
                let len = 4 + frame.encoded_len();
                state.bytes += len;
                state.frames.push_back(frame);
                self.not_empty.notify_one();
                return Ok(());
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(PushError::Full);
            }
            let (guard, _) = self
                .not_full
                .wait_timeout(state, remaining)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }

    /// Dequeues one frame, waiting up to `wait`; `Ok(None)` on timeout.
    ///
    /// # Errors
    /// `Err(())` once the queue is closed *and* empty.
    fn pop(&self, wait: Duration) -> Result<Option<Frame>, ()> {
        let deadline = Instant::now() + wait;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(frame) = state.frames.pop_front() {
                let len = 4 + frame.encoded_len();
                state.bytes -= len;
                self.not_full.notify_one();
                return Ok(Some(frame));
            }
            if state.closed {
                return Err(());
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            let (guard, _) = self
                .not_empty
                .wait_timeout(state, remaining)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }

    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        state.bytes = 0;
        state.frames.clear();
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn buffered_bytes(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).bytes
    }
}

/// Per-user-message framing overhead on the TCP wire: the u32 length prefix
/// plus the `Frame::User` header (tag, sender, injected delay, payload
/// length).
pub const TCP_FRAME_OVERHEAD_BYTES: u64 = 4 + 1 + 8 + 8 + 8;

/// Real loopback sockets. One listener + acceptor/reader thread per node,
/// one bounded send queue + writer thread per destination; see the module
/// docs for the frame format and the backpressure/reconnect contract.
pub struct TcpTransport {
    workers: usize,
    opts: TcpOptions,
    queues: Vec<Arc<SendQueue>>,
    /// Receive sides, slot-indexed; each acceptor delivers into its own.
    mailboxes: Vec<Mailbox>,
    /// Listener addresses, slot-indexed (used by shutdown to unblock
    /// accept).
    addrs: Vec<SocketAddr>,
    /// Each destination writer's live connection (cloned handle), so
    /// shutdown can sever a blocked write.
    live_streams: Vec<Arc<Mutex<Option<TcpStream>>>>,
    /// Destinations declared unreachable after exhausted reconnects.
    dead: Vec<Arc<AtomicBool>>,
    down: Arc<AtomicBool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl TcpTransport {
    /// Binds one loopback listener per node and spawns the acceptor and
    /// writer threads.
    ///
    /// # Errors
    /// [`ClusterError::Io`] when a listener cannot bind.
    pub fn bind(workers: usize, opts: TcpOptions) -> Result<Self, ClusterError> {
        let slots = workers + 1;
        let down = Arc::new(AtomicBool::new(false));
        let mut listeners = Vec::with_capacity(slots);
        let mut addrs = Vec::with_capacity(slots);
        for _ in 0..slots {
            let listener = TcpListener::bind("127.0.0.1:0")
                .map_err(|e| ClusterError::Io(format!("bind loopback listener: {e}")))?;
            addrs.push(
                listener
                    .local_addr()
                    .map_err(|e| ClusterError::Io(format!("listener address: {e}")))?,
            );
            listeners.push(listener);
        }

        let mut threads = Vec::with_capacity(slots * 2);
        let mut mailboxes = Vec::with_capacity(slots);
        for (slot, listener) in listeners.into_iter().enumerate() {
            let (tx, rx) = unbounded();
            let mailbox = Mailbox::new(rx);
            let delivery = Delivery {
                tx,
                depth: Arc::clone(&mailbox.depth),
            };
            mailboxes.push(mailbox);
            let down = Arc::clone(&down);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("harmony-tcp-rx-{slot}"))
                    .spawn(move || accept_loop(listener, delivery, down))
                    .map_err(|e| ClusterError::Io(format!("spawn reader thread: {e}")))?,
            );
        }

        let mut queues = Vec::with_capacity(slots);
        let mut live_streams = Vec::with_capacity(slots);
        let mut dead = Vec::with_capacity(slots);
        for (slot, &addr) in addrs.iter().enumerate() {
            let queue = Arc::new(SendQueue::new(opts.queue_capacity));
            let live = Arc::new(Mutex::new(None));
            let slot_dead = Arc::new(AtomicBool::new(false));
            {
                let queue = Arc::clone(&queue);
                let live = Arc::clone(&live);
                let slot_dead = Arc::clone(&slot_dead);
                let down = Arc::clone(&down);
                let opts = opts.clone();
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("harmony-tcp-tx-{slot}"))
                        .spawn(move || writer_loop(addr, queue, live, slot_dead, down, opts))
                        .map_err(|e| ClusterError::Io(format!("spawn writer thread: {e}")))?,
                );
            }
            queues.push(queue);
            live_streams.push(live);
            dead.push(slot_dead);
        }

        Ok(Self {
            workers,
            opts,
            queues,
            mailboxes,
            addrs,
            live_streams,
            dead,
            down,
            threads: Mutex::new(threads),
        })
    }

    /// The tuning options in force.
    pub fn options(&self) -> &TcpOptions {
        &self.opts
    }
}

impl Transport for TcpTransport {
    fn workers(&self) -> usize {
        self.workers
    }

    fn send(&self, to: NodeId, frame: Frame) -> Result<(), ClusterError> {
        let slot = slot_of(to, self.workers)?;
        if self.down.load(Ordering::Acquire) {
            return Err(ClusterError::ShutDown);
        }
        if self.dead[slot].load(Ordering::Acquire) {
            return Err(ClusterError::NodeDown(to));
        }
        // The reader drops the connection on a longer frame, and the sender
        // would wait out its handshake for a reply that cannot come.
        let bytes = frame.encoded_len();
        if bytes > MAX_FRAME_BYTES {
            let cap = MAX_FRAME_BYTES;
            return Err(ClusterError::FrameTooLarge { bytes, cap });
        }
        match self.queues[slot].push(frame, self.opts.send_wait) {
            Ok(()) => Ok(()),
            Err(PushError::Full) => Err(ClusterError::Backpressure),
            Err(PushError::Closed) => Err(ClusterError::ShutDown),
        }
    }

    fn recv(&self, node: NodeId, timeout: Duration) -> Result<Frame, ClusterError> {
        self.mailboxes[slot_of(node, self.workers)?].recv(timeout)
    }

    fn try_recv(&self, node: NodeId) -> Result<Frame, ClusterError> {
        self.mailboxes[slot_of(node, self.workers)?].try_recv()
    }

    fn queued(&self, node: NodeId) -> usize {
        slot_of(node, self.workers).map_or(0, |slot| self.mailboxes[slot].queued())
    }

    fn frame_overhead_bytes(&self) -> u64 {
        TCP_FRAME_OVERHEAD_BYTES
    }

    fn buffered_bytes(&self) -> u64 {
        self.queues.iter().map(|q| q.buffered_bytes() as u64).sum()
    }

    fn shutdown(&self) {
        if self.down.swap(true, Ordering::AcqRel) {
            return;
        }
        for queue in &self.queues {
            queue.close();
        }
        // Sever live connections: a writer blocked mid-`write_all` (stalled
        // peer) wakes with an error and observes the shutdown flag.
        for live in &self.live_streams {
            if let Some(stream) = live.lock().take() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        // Unblock acceptors parked in `accept` with a throwaway dial.
        for &addr in &self.addrs {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(100));
        }
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The send side of one node's [`Mailbox`], held by its acceptor.
struct Delivery {
    tx: Sender<Frame>,
    depth: Arc<AtomicIsize>,
}

/// Accepts connections for one node and pumps decoded frames into its
/// mailbox. Sequential accepts are the reconnect path: a broken
/// connection falls back here and the writer dials in again.
fn accept_loop(listener: TcpListener, delivery: Delivery, down: Arc<AtomicBool>) {
    loop {
        if down.load(Ordering::Acquire) {
            return;
        }
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if down.load(Ordering::Acquire) {
            return;
        }
        read_frames(stream, &delivery, &down);
    }
}

/// Reads length-prefixed frames off one connection until EOF or a framing
/// violation (oversized or malformed frame), which drops the connection.
/// Buffered, so a batch the writer coalesced costs one `read`, not two per
/// frame; bodies larger than the buffer bypass it.
fn read_frames(stream: TcpStream, delivery: &Delivery, down: &AtomicBool) {
    let mut stream = BufReader::with_capacity(64 << 10, stream);
    let mut header = [0u8; 4];
    loop {
        if stream.read_exact(&mut header).is_err() {
            return;
        }
        let body_len = u32::from_le_bytes(header) as usize;
        if body_len > MAX_FRAME_BYTES {
            return;
        }
        let mut body = vec![0u8; body_len];
        if stream.read_exact(&mut body).is_err() {
            return;
        }
        let Ok(frame) = Frame::from_bytes(Bytes::from(body)) else {
            return;
        };
        if down.load(Ordering::Acquire) || delivery.tx.send(frame).is_err() {
            return;
        }
        delivery.depth.fetch_add(1, Ordering::AcqRel);
    }
}

/// Dials `addr` with bounded linear-backoff retries; `None` once the
/// transport is down or every attempt failed.
fn dial(
    addr: SocketAddr,
    opts: &TcpOptions,
    down: &AtomicBool,
    live: &Mutex<Option<TcpStream>>,
) -> Option<TcpStream> {
    for attempt in 0..=opts.connect_retries {
        if down.load(Ordering::Acquire) {
            return None;
        }
        if let Ok(stream) = TcpStream::connect(addr) {
            let _ = stream.set_nodelay(true);
            // `shutdown` sets `down` before it takes `live`, so checked under
            // the lock, a stream stored here is one it severs. A stream it
            // can no longer sever is severed here: its clone would keep the
            // acceptor reading, and `shutdown`'s join waiting, forever.
            let mut live = live.lock();
            if down.load(Ordering::Acquire) {
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return None;
            }
            *live = stream.try_clone().ok();
            return Some(stream);
        }
        std::thread::sleep(opts.retry_backoff * (attempt + 1));
    }
    None
}

/// Appends to `buf` every frame already queued behind the batch's first,
/// up to the flush threshold, without waiting: an empty queue ends the
/// batch, so a lone frame is written as soon as it is popped and coalescing
/// costs no latency.
fn coalesce_queued(queue: &SendQueue, buf: &mut BytesMut, flush_threshold_bytes: usize) {
    while buf.len() < flush_threshold_bytes {
        match queue.pop(Duration::ZERO) {
            Ok(Some(frame)) => encode_frame(&frame, buf),
            Ok(None) | Err(()) => break,
        }
    }
}

/// Drains one destination's send queue: coalesces the queued frames into a
/// buffer, writes the batch, and re-dials (retransmitting the batch) on a
/// broken connection.
fn writer_loop(
    addr: SocketAddr,
    queue: Arc<SendQueue>,
    live: Arc<Mutex<Option<TcpStream>>>,
    dead: Arc<AtomicBool>,
    down: Arc<AtomicBool>,
    opts: TcpOptions,
) {
    let Some(mut stream) = dial(addr, &opts, &down, &live) else {
        dead.store(true, Ordering::Release);
        queue.close();
        return;
    };
    let mut buf = BytesMut::new();
    'drain: loop {
        // Block for the batch's first frame.
        let first = loop {
            match queue.pop(Duration::from_millis(100)) {
                Ok(Some(frame)) => break frame,
                Ok(None) => continue,
                Err(()) => break 'drain,
            }
        };
        buf.clear();
        encode_frame(&first, &mut buf);
        coalesce_queued(&queue, &mut buf, opts.flush_threshold_bytes);
        while stream.write_all(&buf).is_err() {
            if down.load(Ordering::Acquire) {
                return;
            }
            // Reconnect and retransmit the whole batch on the fresh
            // connection (at-least-once during reconnect; the reader's
            // framing restarts per connection, so no corruption).
            match dial(addr, &opts, &down, &live) {
                Some(s) => stream = s,
                None => {
                    dead.store(true, Ordering::Release);
                    queue.close();
                    return;
                }
            }
        }
    }
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(from: NodeId, payload: &'static [u8]) -> Frame {
        Frame::User {
            from,
            payload: Bytes::from_static(payload),
            injected_delay_ns: 0,
        }
    }

    #[test]
    fn frame_roundtrips_through_wire() {
        for frame in [
            user(3, b"hello"),
            user(CLIENT, b""),
            Frame::Ping { token: 42 },
            Frame::Pong { from: 7, token: 42 },
            Frame::Shutdown,
        ] {
            let bytes = frame.to_bytes();
            assert_eq!(bytes.len(), frame.encoded_len());
            assert_eq!(Frame::from_bytes(bytes).unwrap(), frame);
        }
    }

    #[test]
    fn framed_encode_decode_roundtrips() {
        let mut buf = BytesMut::new();
        encode_frame(&user(1, b"abc"), &mut buf);
        encode_frame(&Frame::Ping { token: 9 }, &mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(decode_frame(&mut bytes).unwrap(), Some(user(1, b"abc")));
        assert_eq!(
            decode_frame(&mut bytes).unwrap(),
            Some(Frame::Ping { token: 9 })
        );
        assert_eq!(decode_frame(&mut bytes).unwrap(), None);
    }

    #[test]
    fn truncated_frame_waits_for_more_bytes() {
        let mut buf = BytesMut::new();
        encode_frame(&user(0, b"payload"), &mut buf);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut partial = full.slice(0..cut);
            assert_eq!(decode_frame(&mut partial).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le((MAX_FRAME_BYTES + 1) as u32);
        let mut bytes = buf.freeze();
        assert!(matches!(
            decode_frame(&mut bytes),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn inproc_send_recv_roundtrip() {
        let t = InProcTransport::new(2);
        t.send(1, user(CLIENT, b"hi")).unwrap();
        t.send(CLIENT, user(1, b"yo")).unwrap();
        assert_eq!(
            t.recv(1, Duration::from_secs(1)).unwrap(),
            user(CLIENT, b"hi")
        );
        assert_eq!(
            t.recv(CLIENT, Duration::from_secs(1)).unwrap(),
            user(1, b"yo")
        );
        assert_eq!(
            t.recv(0, Duration::from_millis(10)),
            Err(ClusterError::Timeout)
        );
        // `try_recv` takes only what is already queued.
        assert_eq!(t.try_recv(0), Err(ClusterError::Timeout));
        t.send(0, user(1, b"queued")).unwrap();
        assert_eq!(t.try_recv(0).unwrap(), user(1, b"queued"));
        assert_eq!(
            t.send(5, Frame::Shutdown),
            Err(ClusterError::UnknownNode(5))
        );
    }

    #[test]
    fn inproc_shutdown_disconnects_drained_receivers() {
        let t = InProcTransport::new(1);
        t.send(0, Frame::Shutdown).unwrap();
        t.shutdown();
        // Buffered frames still drain...
        assert_eq!(t.recv(0, Duration::from_secs(1)).unwrap(), Frame::Shutdown);
        // ...then the disconnect shows through.
        assert_eq!(
            t.recv(0, Duration::from_millis(10)),
            Err(ClusterError::ShutDown)
        );
        assert_eq!(t.try_recv(0), Err(ClusterError::ShutDown));
        assert_eq!(t.send(0, Frame::Shutdown), Err(ClusterError::ShutDown));
    }

    #[test]
    fn tcp_send_recv_roundtrip() {
        let t = TcpTransport::bind(2, TcpOptions::default()).unwrap();
        t.send(0, user(CLIENT, b"over the wire")).unwrap();
        t.send(CLIENT, user(0, b"and back")).unwrap();
        assert_eq!(
            t.recv(0, Duration::from_secs(5)).unwrap(),
            user(CLIENT, b"over the wire")
        );
        assert_eq!(
            t.recv(CLIENT, Duration::from_secs(5)).unwrap(),
            user(0, b"and back")
        );
        t.shutdown();
        assert_eq!(t.send(0, Frame::Shutdown), Err(ClusterError::ShutDown));
    }

    /// A frame the reader would drop the connection on is refused at
    /// `send`, by name, and the connection stays usable. (The payload is
    /// zeroed pages nobody touches: the check reads only its length.)
    #[test]
    fn tcp_send_rejects_a_frame_over_the_cap() {
        let t = TcpTransport::bind(1, TcpOptions::default()).unwrap();
        let payload = Bytes::from(vec![0u8; MAX_FRAME_BYTES]);
        let frame = Frame::User {
            from: CLIENT,
            payload,
            injected_delay_ns: 0,
        };
        let bytes = frame.encoded_len();
        let cap = MAX_FRAME_BYTES;
        let refused = ClusterError::FrameTooLarge { bytes, cap };
        assert!(bytes > cap && refused.to_string().contains(&cap.to_string()));
        assert_eq!(t.send(0, frame), Err(refused));
        t.send(0, user(CLIENT, b"still connected")).unwrap();
        assert_eq!(
            t.recv(0, Duration::from_secs(5)).unwrap(),
            user(CLIENT, b"still connected")
        );
        t.shutdown();
    }

    #[test]
    fn tcp_preserves_per_destination_order() {
        let t = TcpTransport::bind(1, TcpOptions::default()).unwrap();
        for i in 0..256u64 {
            t.send(0, Frame::Ping { token: i }).unwrap();
        }
        for i in 0..256u64 {
            assert_eq!(
                t.recv(0, Duration::from_secs(5)).unwrap(),
                Frame::Ping { token: i }
            );
        }
        t.shutdown();
    }

    #[test]
    fn tcp_coalesces_small_frames() {
        // A pre-filled queue is one batch: the writer takes everything that
        // is already waiting, in order, and stops when the queue runs dry.
        let queue = SendQueue::new(128);
        for i in 0..64u64 {
            assert!(queue.push(Frame::Ping { token: i }, Duration::ZERO).is_ok());
        }
        let first = queue.pop(Duration::ZERO).unwrap().unwrap();
        let mut buf = BytesMut::new();
        encode_frame(&first, &mut buf);
        coalesce_queued(&queue, &mut buf, 64 << 10);
        assert_eq!(queue.buffered_bytes(), 0, "queued frames left behind");
        let mut batch = buf.freeze();
        for i in 0..64u64 {
            assert_eq!(
                decode_frame(&mut batch).unwrap(),
                Some(Frame::Ping { token: i })
            );
        }
        assert!(!batch.has_remaining());

        // The threshold still splits a backlog into bounded writes.
        for i in 0..64u64 {
            assert!(queue.push(Frame::Ping { token: i }, Duration::ZERO).is_ok());
        }
        let mut buf = BytesMut::new();
        coalesce_queued(&queue, &mut buf, 64);
        assert!(buf.len() >= 64 && buf.len() < 64 + 13);
        assert!(queue.buffered_bytes() > 0);
        queue.close();
    }

    #[test]
    fn tcp_backpressure_surfaces_when_queue_stays_full() {
        // Tiny queue, no send grace, and a peer that never accepts: once
        // the kernel buffers fill, the queue stays full and sends must
        // report Backpressure instead of buffering without bound.
        let opts = TcpOptions {
            queue_capacity: 2,
            send_wait: Duration::ZERO,
            flush_threshold_bytes: 1 << 20,
            connect_retries: 0,
            ..TcpOptions::default()
        };
        let t = TcpTransport::bind(1, opts).unwrap();
        let payload = Bytes::from(vec![0u8; 1 << 20]); // 1 MiB frames
        let mut saw_backpressure = false;
        for _ in 0..64 {
            match t.send(
                0,
                Frame::User {
                    from: CLIENT,
                    payload: payload.clone(),
                    injected_delay_ns: 0,
                },
            ) {
                Ok(()) => continue,
                Err(ClusterError::Backpressure) => {
                    saw_backpressure = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(saw_backpressure, "full queue never pushed back");
        assert!(t.buffered_bytes() > 0);
        t.shutdown();
    }

    #[test]
    fn tcp_shutdown_is_idempotent_and_wakes_receivers() {
        let t = Arc::new(TcpTransport::bind(1, TcpOptions::default()).unwrap());
        let t2 = Arc::clone(&t);
        let waiter = std::thread::spawn(move || t2.recv(CLIENT, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(50));
        t.shutdown();
        t.shutdown();
        assert_eq!(waiter.join().unwrap(), Err(ClusterError::ShutDown));
    }

    /// A shutdown that lands while a writer is still dialing severs the
    /// connection the writer opens: no acceptor is left reading a socket
    /// nobody closes, and `shutdown`'s join returns.
    #[test]
    fn tcp_shutdown_right_after_bind_never_hangs() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..500 {
                TcpTransport::bind(2, TcpOptions::default())
                    .unwrap()
                    .shutdown();
            }
            let _ = done.send(());
        });
        assert!(
            finished.recv_timeout(Duration::from_secs(60)).is_ok(),
            "500 bind → shutdown cycles did not finish within 60 s"
        );
    }

    /// A mailbox counts the frames delivered to it and not yet taken, on
    /// both fabrics.
    #[test]
    fn queued_counts_delivered_frames_not_yet_received() {
        let inproc = InProcTransport::new(1);
        let tcp = TcpTransport::bind(1, TcpOptions::default()).unwrap();
        for t in [&inproc as &dyn Transport, &tcp] {
            assert_eq!(t.queued(0), 0);
            for _ in 0..3 {
                t.send(0, user(CLIENT, b"depth")).unwrap();
            }
            let deadline = Instant::now() + Duration::from_secs(5);
            while t.queued(0) < 3 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(t.queued(0), 3);
            assert_eq!(t.queued(CLIENT), 0);
            t.recv(0, Duration::from_secs(5)).unwrap();
            t.try_recv(0).unwrap();
            assert_eq!(t.queued(0), 1);
            t.shutdown();
        }
    }

    #[test]
    fn tcp_buffered_bytes_return_to_zero() {
        let t = TcpTransport::bind(1, TcpOptions::default()).unwrap();
        for _ in 0..8 {
            t.send(0, user(CLIENT, b"gauge")).unwrap();
        }
        for _ in 0..8 {
            t.recv(0, Duration::from_secs(5)).unwrap();
        }
        // Writers drained everything; nothing may stay accounted.
        let deadline = Instant::now() + Duration::from_secs(5);
        while t.buffered_bytes() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(t.buffered_bytes(), 0);
        t.shutdown();
    }
}
