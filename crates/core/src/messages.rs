//! Typed wire protocol between the client and Harmony workers.
//!
//! Every message is serialized through `harmony-cluster`'s binary codec, so
//! the byte counts the network model charges match what a real deployment
//! would put on the wire:
//!
//! * **Pre-assign** — [`LoadBlock`] ships one grid block `V_s D_b` of one
//!   routing epoch (Fig. 10): at build, and again whenever a compaction or
//!   a layout change recuts the namespace. It is the only message that
//!   installs list storage, and is acknowledged by
//!   [`ToClient::EpochReady`]. The client writes its frame straight from
//!   the rows it carries ([`LoadFrame`]), byte for byte the derived
//!   codec's.
//! * **Query phase** — the client splits each *sub-batch* of queries
//!   across the dimension blocks of every visited shard as one
//!   [`ChunkBatch`] per machine (Fig. 4b); workers stream surviving
//!   candidates down the pipeline as one [`CarryBatch`] per hop (Fig. 5b)
//!   and the final hop reports one [`ResultBatch`]. The single-query forms
//!   [`QueryChunk`] / [`Carry`] / [`QueryResult`] stay decodable and are
//!   lifted into one-row batches on arrival. For a warm or cold namespace
//!   the client first sends every machine a sub-batch will visit one
//!   [`ToWorker::Prefetch`] naming the lists it will probe there.
//! * **Diagnostics** — [`ToWorker::GetStats`] / [`ToClient::Stats`] collect
//!   the per-slice pruning counters behind Fig. 2a and Table 3.
//!
//! Every message is declared **once**, through [`harmony_cluster::wire!`]:
//! the documented field (or tagged variant) list below is the type and its
//! codec. Adding a field is one line in its declaration plus regenerating
//! that message's lines in `tests/golden/wire_messages.txt`. Messages whose
//! arrays a handler indexes by row carry a `validate` hook, so a
//! malformed-but-decodable payload fails in `decode` instead of panicking
//! a worker thread. Only [`ChunkBatch`] / [`CarryBatch`] / [`ResultBatch`]
//! keep hand-written codecs: their varint and omitted-field layouts are
//! their purpose.

use std::ops::Range;

use bytes::{Bytes, BytesMut};
use harmony_cluster::codec::{get_ascending, get_count, get_varint, put_ascending, put_varint};
use harmony_cluster::{wire, CodecError, Wire};
use harmony_index::distance::U8_MAX_WIDTH;
use harmony_index::{BlockRepr, Metric, Sq8Segment, Temperature};

/// Field codec of `Vec<Sq8Segment>` (`segs: … as sq8_segs` in the schemas
/// below). `Sq8Segment` lives in `harmony-index` and `Wire` in
/// `harmony-cluster`, so the orphan rule forbids an `impl Wire for
/// Sq8Segment` here; this module keeps the wire layout (count + per-segment
/// header + codes + sums) in one place.
mod sq8_segs {
    use super::*;

    pub fn encode(segs: &[Sq8Segment], buf: &mut BytesMut) {
        (segs.len() as u64).encode(buf);
        for s in segs {
            s.dim_start.encode(buf);
            s.dim_end.encode(buf);
            s.min.encode(buf);
            s.scale.encode(buf);
            s.codes.encode(buf);
            s.code_sums.encode(buf);
        }
    }

    pub fn decode(buf: &mut Bytes) -> Result<Vec<Sq8Segment>, CodecError> {
        let len = usize::decode(buf)?;
        if len > buf.len() {
            return Err(CodecError::Invalid(format!(
                "declared {len} segments but only {} bytes remain",
                buf.len()
            )));
        }
        let mut segs = Vec::with_capacity(len);
        for _ in 0..len {
            segs.push(Sq8Segment {
                dim_start: u64::decode(buf)?,
                dim_end: u64::decode(buf)?,
                min: f32::decode(buf)?,
                scale: f32::decode(buf)?,
                codes: Vec::decode(buf)?,
                code_sums: Vec::decode(buf)?,
            });
        }
        Ok(segs)
    }

    pub fn size_hint(segs: &[Sq8Segment]) -> usize {
        8 + segs
            .iter()
            .map(|s| 40 + s.codes.len() + 4 * s.code_sums.len())
            .sum::<usize>()
    }
}

fn invalid(msg: String) -> Result<(), CodecError> {
    Err(CodecError::Invalid(msg))
}

/// Width of the dimension range `[dim_start, dim_end)`.
fn width_of(what: &str, dim_start: u64, dim_end: u64) -> Result<usize, CodecError> {
    dim_end
        .checked_sub(dim_start)
        .and_then(|w| usize::try_from(w).ok())
        .ok_or_else(|| {
            CodecError::Invalid(format!(
                "{what}: bad dimension range {dim_start}..{dim_end}"
            ))
        })
}

/// The shape every row-carrying payload must have whatever its width, in
/// O(segments): norm tables are absent or per-row, and the rows travel as
/// `flat` *or* as SQ8 segments whose code and code-sum arrays are per-row.
/// Handlers and the scan index these arrays by row without checking.
fn check_rows(
    what: &str,
    rows: usize,
    flat: &[f32],
    segs: &[Sq8Segment],
    norm_tables: [&[f32]; 2],
) -> Result<(), CodecError> {
    for table in norm_tables {
        if !table.is_empty() && table.len() != rows {
            return invalid(format!(
                "{what}: norm table of {} entries beside {rows} rows",
                table.len()
            ));
        }
    }
    if !segs.is_empty() && !flat.is_empty() {
        return invalid(format!("{what}: both f32 rows and SQ8 segments"));
    }
    for s in segs {
        let width = width_of(what, s.dim_start, s.dim_end)?;
        if rows.checked_mul(width) != Some(s.codes.len()) || s.code_sums.len() != rows {
            return invalid(format!(
                "{what}: segment of {} codes / {} code sums beside {rows} rows of {width}",
                s.codes.len(),
                s.code_sums.len()
            ));
        }
    }
    Ok(())
}

/// The width-dependent half of [`check_rows`]: without segments `flat` is
/// exactly `rows × width`; segments stay inside `[dim_start, dim_end)`.
fn check_width(
    what: &str,
    rows: usize,
    (dim_start, dim_end): (u64, u64),
    flat: &[f32],
    segs: &[Sq8Segment],
) -> Result<(), CodecError> {
    let width = width_of(what, dim_start, dim_end)?;
    if segs.is_empty() && rows.checked_mul(width) != Some(flat.len()) {
        return invalid(format!(
            "{what}: {} coordinates beside {rows} rows of {width}",
            flat.len()
        ));
    }
    if segs
        .iter()
        .any(|s| s.dim_start < dim_start || s.dim_end > dim_end)
    {
        return invalid(format!(
            "{what}: segment outside dimensions {dim_start}..{dim_end}"
        ));
    }
    Ok(())
}

wire! {
    /// One inverted list restricted to one dimension block.
    ///
    /// Exactly one of `flat` (f32 representation) and `segs` (SQ8) is
    /// populated; the block's [`LoadBlock::repr`] tag says which.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ClusterBlock {
        /// IVF list (cluster) id.
        pub cluster: u32,
        /// Member vector ids.
        pub ids: Vec<u64>,
        /// Row-major member vectors, `block_dims` wide (f32 representation;
        /// empty under SQ8).
        pub flat: Vec<f32>,
        /// SQ8-quantized dimension-slice segments (empty under f32).
        pub segs: Vec<Sq8Segment> as sq8_segs,
        /// Per-member squared norm of *this* block's coordinates (inner-product
        /// pruning only; empty under L2).
        pub block_norms_sq: Vec<f32>,
        /// Per-member squared norm of the *full* vector (inner-product pruning
        /// only; empty under L2).
        pub total_norms_sq: Vec<f32>,
    }
    validate = ClusterBlock::validate;
}

impl ClusterBlock {
    /// Width-independent shape; [`LoadBlock`] checks the rest against its
    /// dimension range.
    fn validate(&self) -> Result<(), CodecError> {
        check_rows(
            "ClusterBlock",
            self.ids.len(),
            &self.flat,
            &self.segs,
            [&self.block_norms_sq, &self.total_norms_sq],
        )
    }
}

wire! {
    /// Shipment of one grid block of one routing epoch to its machine: the
    /// build ships epoch 0, every compaction and layout change the blocks
    /// of the epoch it cuts.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LoadBlock {
        /// Namespace (tenant) this block belongs to. Workers key all epoch
        /// storage by `(ns, epoch)`, so id-spaces never collide across tenants.
        pub ns: u16,
        /// Routing epoch this block belongs to (the initial build is epoch 0).
        pub epoch: u64,
        /// Vector shard index `s` of the block.
        pub shard: u32,
        /// Dimension block index `b`.
        pub dim_block: u32,
        /// Dimension range `[start, end)` this block covers.
        pub dim_start: u64,
        /// End of the dimension range.
        pub dim_end: u64,
        /// Total number of dimension blocks in the plan (pipeline length).
        pub total_dim_blocks: u32,
        /// Metric tag (0 = L2, 1 = IP, 2 = cosine).
        pub metric: u8,
        /// Block representation tag (0 = f32, 1 = SQ8); see [`repr_tag`].
        pub repr: u8,
        /// Whether early-stop pruning is enabled on this deployment.
        pub pruning: bool,
        /// The inverted lists assigned to this block.
        pub lists: Vec<ClusterBlock>,
    }
    validate = LoadBlock::validate;
}

impl LoadBlock {
    /// Known metric and representation tags, and every list shaped for
    /// them: payload in the tagged representation, as wide as the block,
    /// with per-row norm tables under the inner-product metrics.
    fn validate(&self) -> Result<(), CodecError> {
        let ip = metric_tag::decode(self.metric)? != Metric::L2;
        let sq8 = repr_tag::decode(self.repr)? == BlockRepr::Sq8;
        let width = width_of("LoadBlock", self.dim_start, self.dim_end)?;
        if sq8 && width > U8_MAX_WIDTH {
            return invalid(format!(
                "LoadBlock: {width} SQ8 dimensions exceed the u8 kernels' {U8_MAX_WIDTH}"
            ));
        }
        for list in &self.lists {
            let rows = list.ids.len();
            check_width(
                "LoadBlock",
                rows,
                (self.dim_start, self.dim_end),
                &list.flat,
                &list.segs,
            )?;
            // Under SQ8, at most the one segment a list is quantized into
            // (`ClusterBlock::sq8_segments`), spanning the block: the scan
            // quantizes each query once per list against it.
            let payload_fits = if sq8 {
                list.flat.is_empty()
                    && list.segs.len() <= 1
                    && list
                        .segs
                        .iter()
                        .all(|s| (s.dim_start, s.dim_end) == (self.dim_start, self.dim_end))
            } else {
                list.segs.is_empty()
            };
            let norms_fit =
                !ip || (list.block_norms_sq.len() == rows && list.total_norms_sq.len() == rows);
            if !payload_fits || !norms_fit {
                return invalid(format!(
                    "LoadBlock: list {} does not fit metric tag {} / repr tag {}",
                    list.cluster, self.metric, self.repr
                ));
            }
        }
        Ok(())
    }
}

impl ClusterBlock {
    /// The segments an SQ8 list of these row-major `coords` travels as, in
    /// a block of dimensions `[dim_start, dim_end)`: one spanning the
    /// block, none for an empty list.
    pub fn sq8_segments(coords: &[f32], dim_start: u64, dim_end: u64) -> Vec<Sq8Segment> {
        if coords.is_empty() {
            return Vec::new();
        }
        let width = dim_end.saturating_sub(dim_start) as usize;
        vec![Sq8Segment::quantize(coords, width, dim_start)]
    }
}

/// One [`ToWorker::Load`] frame written list by list, straight from the
/// rows it carries, into one buffer sized exactly up front: the bytes
/// `ToWorker::Load(block).to_bytes()` gives for the block of these lists,
/// without the lists ever existing as [`ClusterBlock`]s. The header goes
/// through the derived codec with `lists` empty; its list count — the
/// block's last field — is then patched, and each list is appended in
/// [`ClusterBlock`]'s field order. Under SQ8 a list's coordinates gather in
/// one scratch buffer, reused list to list, and are quantized into the
/// frame: the codes straight into place, the code sums through a second
/// reused buffer — the segment [`ClusterBlock::sq8_segments`] gives,
/// without one being allocated.
pub struct LoadFrame {
    buf: BytesMut,
    /// Length the frame will have once every announced list is in.
    size: usize,
    /// The block's dimension range.
    dims: (u64, u64),
    ip: bool,
    sq8: bool,
    /// A list's SQ8 coordinates before quantization.
    coords: Vec<f32>,
    /// A list's SQ8 code sums, one per member.
    code_sums: Vec<u32>,
    /// A list's block and total norm tables (inner-product metrics).
    norms_sq: [Vec<f32>; 2],
}

impl LoadFrame {
    /// Starts the frame of `head` (its `lists` left out) for lists of
    /// `rows` members each, in the order [`LoadFrame::push_list`] will
    /// append them.
    pub fn new(head: LoadBlock, rows: impl IntoIterator<Item = usize>) -> Self {
        let mut frame = Self {
            buf: BytesMut::new(),
            size: 0,
            dims: (head.dim_start, head.dim_end),
            ip: head.metric != metric_tag::encode(Metric::L2),
            sq8: head.repr == repr_tag::encode(BlockRepr::Sq8),
            coords: Vec::new(),
            code_sums: Vec::new(),
            norms_sq: Default::default(),
        };
        let (lists, bytes) = rows.into_iter().fold((0u64, 0), |(n, bytes), r| {
            (n + 1, bytes + frame.list_len(r))
        });
        let head = ToWorker::Load(LoadBlock {
            lists: Vec::new(),
            ..head
        });
        frame.size = head.size_hint() + bytes;
        frame.buf = BytesMut::with_capacity(frame.size);
        head.encode(&mut frame.buf);
        let count = frame.buf.len() - 8;
        frame.buf[count..].copy_from_slice(&lists.to_le_bytes());
        frame
    }

    fn width(&self) -> usize {
        self.dims.1.saturating_sub(self.dims.0) as usize
    }

    /// Encoded length of a list of `rows` members: cluster, then ids,
    /// coordinates, segments and the two norm tables, each behind its
    /// count.
    fn list_len(&self, rows: usize) -> usize {
        let values = rows * self.width();
        let (coords, segs) = match (self.sq8, values) {
            (false, _) => (4 * values, 0),
            (true, 0) => (0, 0),
            (true, _) => (0, 40 + values + 4 * rows),
        };
        let norms = if self.ip { 4 * rows } else { 0 };
        4 + (8 + 8 * rows) + (8 + coords) + (8 + segs) + 2 * (8 + norms)
    }

    /// Appends list `cluster`, whose `rows` members `fill` pushes, in
    /// order, through the [`ListFrame`] it is handed.
    pub fn push_list(&mut self, cluster: u32, rows: usize, fill: impl FnOnce(&mut ListFrame<'_>)) {
        let values = if self.sq8 { 0 } else { rows * self.width() };
        cluster.encode(&mut self.buf);
        (rows as u64).encode(&mut self.buf);
        let ids = self.buf.len();
        self.buf.resize(ids + 8 * rows, 0);
        (values as u64).encode(&mut self.buf);
        let mut list = ListFrame {
            frame: self,
            next_id: ids,
        };
        fill(&mut list);
        debug_assert_eq!(list.next_id, ids + 8 * rows, "list {cluster}: rows pushed");
        self.push_segments();
        for table in &mut self.norms_sq {
            table.encode(&mut self.buf);
            table.clear();
        }
    }

    /// Appends the gathered list's SQ8 segments as [`sq8_segs`] encodes
    /// [`ClusterBlock::sq8_segments`]: none for an f32 or an empty list,
    /// else one spanning the block, its codes quantized in place and its
    /// `min` and `scale` written in once they are known.
    fn push_segments(&mut self) {
        let width = self.width();
        let buf = &mut self.buf;
        if self.coords.is_empty() {
            0u64.encode(buf);
            return;
        }
        1u64.encode(buf);
        self.dims.0.encode(buf);
        self.dims.1.encode(buf);
        let min_scale = buf.len();
        buf.resize(min_scale + 8, 0);
        (self.coords.len() as u64).encode(buf);
        let codes = buf.len();
        buf.resize(codes + self.coords.len(), 0);
        self.code_sums.resize(self.coords.len() / width, 0);
        let (min, scale) =
            Sq8Segment::quantize_into(&self.coords, width, &mut buf[codes..], &mut self.code_sums);
        buf[min_scale..min_scale + 4].copy_from_slice(&min.to_le_bytes());
        buf[min_scale + 4..min_scale + 8].copy_from_slice(&scale.to_le_bytes());
        self.code_sums.encode(buf);
        self.coords.clear();
    }

    /// The finished frame.
    pub fn finish(self) -> Bytes {
        debug_assert_eq!(self.buf.len(), self.size, "frame length");
        self.buf.freeze()
    }
}

/// One list of a [`LoadFrame`] as [`LoadFrame::push_list`] hands it out.
pub struct ListFrame<'a> {
    frame: &'a mut LoadFrame,
    /// Where the next member's id goes.
    next_id: usize,
}

impl ListFrame<'_> {
    /// Appends the next member: its id, its coordinates in the block's
    /// dimension range and, under the inner-product metrics, the squared
    /// norms of those and of its full vector (unread under L2).
    pub fn push(&mut self, id: u64, coords: &[f32], norms_sq: Option<[f32; 2]>) {
        let frame = &mut *self.frame;
        frame.buf[self.next_id..self.next_id + 8].copy_from_slice(&id.to_le_bytes());
        self.next_id += 8;
        if frame.sq8 {
            frame.coords.extend_from_slice(coords);
        } else {
            let at = frame.buf.len();
            frame.buf.resize(at + 4 * coords.len(), 0);
            for (dst, v) in frame.buf[at..].chunks_exact_mut(4).zip(coords) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
        }
        if frame.ip {
            let [block, total] = norms_sq.unwrap_or_default();
            frame.norms_sq[0].push(block);
            frame.norms_sq[1].push(total);
        }
    }
}

wire! {
    /// The dimension slice of one query routed to one machine (Fig. 4b's
    /// `Q_i D_j`), plus the pipeline itinerary.
    #[derive(Debug, Clone, PartialEq)]
    pub struct QueryChunk {
        /// Namespace the query targets; workers resolve block storage by
        /// `(ns, epoch)`.
        pub ns: u16,
        /// Query identifier, unique within a batch.
        pub query_id: u64,
        /// Routing epoch the query was admitted under: workers resolve block
        /// storage by epoch, so in-flight queries keep completing against the
        /// old layout while a migration installs the new one.
        pub epoch: u64,
        /// Visited vector shard.
        pub shard: u32,
        /// Results wanted (`k`).
        pub k: u32,
        /// Current pruning threshold `τ` for this query (`+∞` encoded as such).
        pub threshold: f32,
        /// Clusters of this shard the query probes.
        pub clusters: Vec<u32>,
        /// The query's coordinates for *this machine's* dimension block.
        pub dims: Vec<f32>,
        /// Squared norm of the query's *full* vector (inner-product pruning
        /// residuals and cosine score normalization; 0 under L2).
        pub q_total_norm_sq: f32,
        /// Machines of this shard's pipeline, in execution order.
        pub order: Vec<u64>,
        /// This machine's position in `order`.
        pub position: u32,
        /// Delta watermark captured at admission: every machine of the shard
        /// row scans exactly the delta rows with `seq < delta_seq`, so the
        /// pipeline's canonical enumeration stays identical across machines
        /// even while new upserts race in. Transports deliver FIFO per
        /// destination, so a chunk stamped `w` always arrives after every
        /// [`DeltaUpsert`] it covers.
        pub delta_seq: u64,
    }
}

wire! {
    /// Pipeline hop: surviving candidates and their accumulated partials
    /// (Fig. 5b's "Compute & send" → "Receive & check").
    ///
    /// Candidates are addressed *positionally*: every machine of a shard row
    /// stores the same lists in the same order, so the canonical enumeration
    /// (probed clusters in chunk order, members in list order) is identical on
    /// every hop. Carrying sorted enumeration indices instead of vector ids
    /// turns each downstream hop into a sequential merge-scan — no per-candidate
    /// hash lookups — and halves the carry width.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Carry {
        /// Namespace of the originating chunk.
        pub ns: u16,
        /// Query this carry belongs to.
        pub query_id: u64,
        /// Routing epoch of the originating chunk (see [`QueryChunk::epoch`]).
        pub epoch: u64,
        /// Shard whose pipeline this is.
        pub shard: u32,
        /// Tightest threshold known to the sender.
        pub threshold: f32,
        /// Position the *receiver* occupies in the pipeline order.
        pub next_position: u32,
        /// Surviving candidate positions in the canonical enumeration,
        /// strictly ascending.
        pub indices: Vec<u32>,
        /// Accumulated partial scores, parallel to `indices`.
        pub partials: Vec<f32>,
        /// Accumulated per-candidate visited-block squared norms (inner-product
        /// pruning; empty under L2).
        pub visited_norms_sq: Vec<f32>,
        /// Accumulated visited squared norm of the query (inner-product; 0
        /// under L2).
        pub q_visited_norm_sq: f32,
        /// Accumulated quantization-error slack for SQ8 pipelines (0 under
        /// f32): per hop, the *maximum* over the scanned lists of that hop's
        /// error term, summed along the pipeline. Receivers widen their prune
        /// bounds by this before comparing quantized partials against the
        /// exact-domain threshold.
        pub quant_eps: f32,
    }
}

wire! {
    /// Final hop of a shard pipeline: the shard's top candidates.
    ///
    /// `query_id` is the session demultiplexing key: the client router matches
    /// it against each session's reserved id range, and `shard` identifies the
    /// completing visit so the session can discharge exactly that visit's load
    /// estimates.
    #[derive(Debug, Clone, PartialEq)]
    pub struct QueryResult {
        /// Query this result answers.
        pub query_id: u64,
        /// Shard that produced it.
        pub shard: u32,
        /// Candidate ids (at most `k`).
        pub ids: Vec<u64>,
        /// Full scores, parallel to `ids`, in the metric's client-side
        /// lower-is-better space ([`harmony_index::Metric::score`]): raw for L2
        /// and inner product, normalized by the full vector norms for cosine.
        pub scores: Vec<f32>,
        /// Candidates this shard's pipeline enumerated (diagnostics).
        pub candidates_seen: u64,
    }
}

/// The rows `i` owns in a concatenated array whose per-row exclusive end
/// offsets are `ends`.
#[inline]
pub fn span(ends: &[u32], i: usize) -> Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    start..ends[i] as usize
}

/// Reads `n` per-row varint counts and returns their running end offsets.
fn decode_ends(buf: &mut Bytes, n: usize) -> Result<Vec<u32>, CodecError> {
    let mut ends = Vec::with_capacity(n);
    let mut end = 0u32;
    for _ in 0..n {
        end = u32::try_from(get_varint(buf)?)
            .ok()
            .and_then(|count| end.checked_add(count))
            .ok_or_else(|| CodecError::Invalid("row counts overflow u32".into()))?;
        ends.push(end);
    }
    Ok(ends)
}

fn encode_counts(ends: &[u32], buf: &mut BytesMut) {
    for i in 0..ends.len() {
        put_varint(buf, span(ends, i).len() as u64);
    }
}

/// Decodes an `f32` array that is on the wire only when `present`, and
/// must then hold `want` entries.
fn decode_optional(
    what: &str,
    present: bool,
    want: usize,
    buf: &mut Bytes,
) -> Result<Vec<f32>, CodecError> {
    if !present {
        return Ok(Vec::new());
    }
    let values = Vec::<f32>::decode(buf)?;
    expect_len(what, values.len(), want)?;
    Ok(values)
}

/// Rejects a per-row or per-survivor array whose length disagrees with the
/// batch shape it was decoded beside.
fn expect_len(what: &str, got: usize, want: usize) -> Result<(), CodecError> {
    if got == want {
        Ok(())
    } else {
        Err(CodecError::Invalid(format!(
            "{what} holds {got} entries, batch shape needs {want}"
        )))
    }
}

/// Encoded size of a [`ChunkBatch`] of `rows` queries probing
/// `clusters_per_row` lists each, `width` coordinates per row, on a
/// `hops`-machine itinerary — the exact layout (L2: no query norms), for
/// the planner's byte counts. Varints are counted at one byte, which holds
/// for machine ids, row and cluster counts and id gaps below 128.
pub fn chunk_wire_bytes(rows: f64, clusters_per_row: f64, width: usize, hops: usize) -> f64 {
    // ns, epoch, shard, k, hop count, position, delta_seq, flags, row
    // count, two array length prefixes.
    let header = (2 + 8 + 4 + 4 + 1 + 4 + 8 + 1 + 1 + 8 + 8 + hops) as f64;
    // id gap, threshold, cluster count, cluster gaps, coordinates.
    header + rows * (1.0 + 4.0 + 1.0 + clusters_per_row + 4.0 * width as f64)
}

/// Encoded size of a [`CarryBatch`] of `rows` queries with
/// `survivors_per_row` survivors each (L2, no quantization slack): an index
/// travels as a one-byte gap where [`Carry`] spent four.
pub fn carry_wire_bytes(rows: f64, survivors_per_row: f64) -> f64 {
    // first id, shard, flags, two array length prefixes.
    let header = (8 + 4 + 1 + 8 + 8) as f64;
    // threshold, survivor count; index gap, partial.
    header + rows * (4.0 + 1.0 + survivors_per_row * (1.0 + 4.0))
}

/// Encoded size of a [`ResultBatch`] of `rows` queries with
/// `results_per_row` hits each.
pub fn result_wire_bytes(rows: f64, results_per_row: f64) -> f64 {
    // shard, row count, two array length prefixes.
    let header = (4 + 1 + 8 + 8) as f64;
    // id gap, result count, candidates seen; id, score.
    header + rows * (1.0 + 1.0 + 1.0 + results_per_row * (8.0 + 4.0))
}

/// The dimension slices of one *sub-batch* of queries routed to one machine
/// — the unit that moves through the dimension pipeline. Everything the
/// rows share (`ns`, `epoch`, `shard`, `k`, itinerary, watermark) travels
/// once in the header; per-query data is struct-of-arrays, row `i` of every
/// array belonging to `query_ids[i]`.
///
/// Every machine of the shard row receives the same rows in the same
/// order, so `(query_ids[0], shard)` names the sub-batch on all of them and
/// a [`CarryBatch`] addresses its rows positionally.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkBatch {
    /// Namespace the queries target.
    pub ns: u16,
    /// Routing epoch the sub-batch was admitted under (see
    /// [`QueryChunk::epoch`]).
    pub epoch: u64,
    /// Visited vector shard.
    pub shard: u32,
    /// Results wanted per query (`k`).
    pub k: u32,
    /// Machines of the shard's pipeline in execution order, chosen once
    /// for the whole sub-batch.
    pub order: Vec<u64>,
    /// This machine's position in `order`.
    pub position: u32,
    /// Delta watermark shared by the rows (see [`QueryChunk::delta_seq`]).
    pub delta_seq: u64,
    /// Set by the [`QueryChunk`] adapter: the last hop answers with one
    /// [`ToClient::Result`] per query instead of a [`ResultBatch`].
    pub legacy_reply: bool,
    /// Query identifiers, strictly ascending.
    pub query_ids: Vec<u64>,
    /// Pruning threshold `τ` per query.
    pub thresholds: Vec<f32>,
    /// Squared norm of each query's *full* vector (inner-product metrics;
    /// empty under L2, read as zeros).
    pub q_total_norms_sq: Vec<f32>,
    /// Exclusive end offset of each query's probed clusters in `clusters`.
    pub cluster_ends: Vec<u32>,
    /// Probed clusters of this shard, per query **ascending** — which makes
    /// ascending cluster id the canonical candidate enumeration order of
    /// every query, so a worker can walk the union list by list.
    pub clusters: Vec<u32>,
    /// Row-major query coordinates for *this machine's* dimension block.
    pub dims: Vec<f32>,
}

impl ChunkBatch {
    /// Queries in the sub-batch.
    pub fn len(&self) -> usize {
        self.query_ids.len()
    }

    /// `true` for a batch without queries (never sent by the engine).
    pub fn is_empty(&self) -> bool {
        self.query_ids.is_empty()
    }

    /// Width of this machine's dimension block.
    pub fn width(&self) -> usize {
        self.dims.len().checked_div(self.len()).unwrap_or(0)
    }

    /// Query `i`'s coordinates for this block.
    pub fn dims_of(&self, i: usize) -> &[f32] {
        let w = self.width();
        &self.dims[i * w..(i + 1) * w]
    }

    /// Query `i`'s probed clusters, ascending.
    pub fn clusters_of(&self, i: usize) -> &[u32] {
        &self.clusters[span(&self.cluster_ends, i)]
    }
}

impl Wire for ChunkBatch {
    fn encode(&self, buf: &mut BytesMut) {
        self.ns.encode(buf);
        self.epoch.encode(buf);
        self.shard.encode(buf);
        self.k.encode(buf);
        put_varint(buf, self.order.len() as u64);
        for &machine in &self.order {
            put_varint(buf, machine);
        }
        self.position.encode(buf);
        self.delta_seq.encode(buf);
        let flags = u8::from(self.legacy_reply) | u8::from(!self.q_total_norms_sq.is_empty()) << 1;
        flags.encode(buf);
        put_varint(buf, self.query_ids.len() as u64);
        put_ascending(&self.query_ids, buf);
        self.thresholds.encode(buf);
        if flags & 2 != 0 {
            self.q_total_norms_sq.encode(buf);
        }
        encode_counts(&self.cluster_ends, buf);
        for i in 0..self.cluster_ends.len() {
            put_ascending(&self.clusters[span(&self.cluster_ends, i)], buf);
        }
        self.dims.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let ns = u16::decode(buf)?;
        let epoch = u64::decode(buf)?;
        let shard = u32::decode(buf)?;
        let k = u32::decode(buf)?;
        let hops = get_count(buf, 1)?;
        let mut order = Vec::with_capacity(hops);
        for _ in 0..hops {
            order.push(get_varint(buf)?);
        }
        let position = u32::decode(buf)?;
        let delta_seq = u64::decode(buf)?;
        let flags = u8::decode(buf)?;
        if flags > 3 {
            return Err(CodecError::Invalid(format!("bad ChunkBatch flags {flags}")));
        }
        let n = get_count(buf, 1)?;
        let mut query_ids = Vec::new();
        get_ascending(buf, n, &mut query_ids)?;
        let thresholds = Vec::<f32>::decode(buf)?;
        expect_len("thresholds", thresholds.len(), n)?;
        let q_total_norms_sq = decode_optional("q_total_norms_sq", flags & 2 != 0, n, buf)?;
        let cluster_ends = decode_ends(buf, n)?;
        let mut clusters = Vec::new();
        for i in 0..n {
            get_ascending(buf, span(&cluster_ends, i).len(), &mut clusters)?;
        }
        let dims = Vec::<f32>::decode(buf)?;
        if !dims.len().is_multiple_of(n.max(1)) || (n == 0 && !dims.is_empty()) {
            return Err(CodecError::Invalid(format!(
                "{} coordinates do not divide into {n} rows",
                dims.len()
            )));
        }
        Ok(Self {
            ns,
            epoch,
            shard,
            k,
            order,
            position,
            delta_seq,
            legacy_reply: flags & 1 != 0,
            query_ids,
            thresholds,
            q_total_norms_sq,
            cluster_ends,
            clusters,
            dims,
        })
    }

    fn size_hint(&self) -> usize {
        64 + 2 * self.order.len()
            + 2 * self.query_ids.len()
            + 4 * (self.thresholds.len() + self.q_total_norms_sq.len() + self.dims.len())
            + self.cluster_ends.len()
            + 2 * self.clusters.len()
    }
}

impl From<QueryChunk> for ChunkBatch {
    /// Lifts a single-query chunk into a one-row batch that answers in the
    /// legacy form. Clusters are sorted (and deduplicated) into the
    /// canonical ascending order; every hop of the query applies the same
    /// lift, so the enumeration stays identical along the shard row.
    fn from(c: QueryChunk) -> Self {
        let mut clusters = c.clusters;
        clusters.sort_unstable();
        clusters.dedup();
        Self {
            ns: c.ns,
            epoch: c.epoch,
            shard: c.shard,
            k: c.k,
            order: c.order,
            position: c.position,
            delta_seq: c.delta_seq,
            legacy_reply: true,
            query_ids: vec![c.query_id],
            thresholds: vec![c.threshold],
            q_total_norms_sq: vec![c.q_total_norm_sq],
            cluster_ends: vec![clusters.len() as u32],
            clusters,
            dims: c.dims,
        }
    }
}

/// Pipeline hop of one sub-batch: every query's surviving candidates and
/// accumulated partials, struct-of-arrays. Row `i` continues row `i` of the
/// receiver's [`ChunkBatch`] with the same `(first_query_id, shard)`, so
/// nothing the chunk header already says (`ns`, `epoch`, position, ids) is
/// repeated. Fields a deployment never uses are omitted rather than sent
/// as zeros: the norm arrays under L2, `quant_eps` without SQ8 error.
#[derive(Debug, Clone, PartialEq)]
pub struct CarryBatch {
    /// `query_ids[0]` of the sub-batch this carry belongs to.
    pub first_query_id: u64,
    /// Shard whose pipeline this is.
    pub shard: u32,
    /// Tightest threshold known to the sender, per query.
    pub thresholds: Vec<f32>,
    /// Exclusive end offset of each query's survivors in the arrays below.
    pub survivor_ends: Vec<u32>,
    /// Surviving positions in each query's canonical enumeration, strictly
    /// ascending per query; on the wire a gap costs one varint.
    pub indices: Vec<u32>,
    /// Accumulated partial scores, parallel to `indices`.
    pub partials: Vec<f32>,
    /// Accumulated visited-block squared norms per survivor (inner-product
    /// metrics; empty under L2).
    pub visited_norms_sq: Vec<f32>,
    /// Accumulated visited squared norm of each query (inner-product
    /// metrics; empty under L2).
    pub q_visited_norms_sq: Vec<f32>,
    /// Accumulated SQ8 prune slack per query (see [`Carry::quant_eps`]);
    /// empty when every query's slack is zero.
    pub quant_eps: Vec<f32>,
}

impl CarryBatch {
    /// Queries in the sub-batch.
    pub fn len(&self) -> usize {
        self.thresholds.len()
    }

    /// `true` for a carry without queries.
    pub fn is_empty(&self) -> bool {
        self.thresholds.is_empty()
    }
}

impl Wire for CarryBatch {
    fn encode(&self, buf: &mut BytesMut) {
        self.first_query_id.encode(buf);
        self.shard.encode(buf);
        let flags = u8::from(!self.q_visited_norms_sq.is_empty())
            | u8::from(!self.quant_eps.is_empty()) << 1;
        flags.encode(buf);
        self.thresholds.encode(buf);
        encode_counts(&self.survivor_ends, buf);
        for i in 0..self.survivor_ends.len() {
            put_ascending(&self.indices[span(&self.survivor_ends, i)], buf);
        }
        self.partials.encode(buf);
        if flags & 1 != 0 {
            self.visited_norms_sq.encode(buf);
            self.q_visited_norms_sq.encode(buf);
        }
        if flags & 2 != 0 {
            self.quant_eps.encode(buf);
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let first_query_id = u64::decode(buf)?;
        let shard = u32::decode(buf)?;
        let flags = u8::decode(buf)?;
        if flags > 3 {
            return Err(CodecError::Invalid(format!("bad CarryBatch flags {flags}")));
        }
        let thresholds = Vec::<f32>::decode(buf)?;
        let n = thresholds.len();
        let survivor_ends = decode_ends(buf, n)?;
        let mut indices = Vec::new();
        for i in 0..n {
            get_ascending(buf, span(&survivor_ends, i).len(), &mut indices)?;
        }
        let partials = Vec::<f32>::decode(buf)?;
        expect_len("partials", partials.len(), indices.len())?;
        let ip = flags & 1 != 0;
        let visited_norms_sq = decode_optional("visited_norms_sq", ip, indices.len(), buf)?;
        let q_visited_norms_sq = decode_optional("q_visited_norms_sq", ip, n, buf)?;
        let quant_eps = decode_optional("quant_eps", flags & 2 != 0, n, buf)?;
        Ok(Self {
            first_query_id,
            shard,
            thresholds,
            survivor_ends,
            indices,
            partials,
            visited_norms_sq,
            q_visited_norms_sq,
            quant_eps,
        })
    }

    fn size_hint(&self) -> usize {
        64 + 4
            * (self.thresholds.len()
                + self.partials.len()
                + self.visited_norms_sq.len()
                + self.q_visited_norms_sq.len()
                + self.quant_eps.len())
            + 2 * self.survivor_ends.len()
            + 2 * self.indices.len()
    }
}

impl From<Carry> for CarryBatch {
    /// Lifts a single-query carry into a one-row batch. `ns`, `epoch` and
    /// `next_position` are dropped: the receiver's chunk states them.
    fn from(c: Carry) -> Self {
        // An inner-product carry with no survivors still has a query norm.
        let ip = !c.visited_norms_sq.is_empty() || c.q_visited_norm_sq != 0.0;
        Self {
            first_query_id: c.query_id,
            shard: c.shard,
            thresholds: vec![c.threshold],
            survivor_ends: vec![c.indices.len() as u32],
            visited_norms_sq: if ip && c.visited_norms_sq.is_empty() {
                vec![0.0; c.indices.len()]
            } else {
                c.visited_norms_sq
            },
            q_visited_norms_sq: if ip {
                vec![c.q_visited_norm_sq]
            } else {
                Vec::new()
            },
            quant_eps: if c.quant_eps != 0.0 {
                vec![c.quant_eps]
            } else {
                Vec::new()
            },
            indices: c.indices,
            partials: c.partials,
        }
    }
}

/// Final hop of a shard pipeline for one sub-batch: every query's top
/// candidates, struct-of-arrays. The session router demultiplexes the
/// whole batch by `query_ids[0]` — a sub-batch never spans sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultBatch {
    /// Shard that produced the results.
    pub shard: u32,
    /// Queries answered, strictly ascending.
    pub query_ids: Vec<u64>,
    /// Exclusive end offset of each query's candidates in `ids`/`scores`.
    pub result_ends: Vec<u32>,
    /// Candidate ids (at most `k` per query).
    pub ids: Vec<u64>,
    /// Full scores, parallel to `ids` (see [`QueryResult::scores`]).
    pub scores: Vec<f32>,
    /// Candidates the last hop considered, per query (diagnostics).
    pub candidates_seen: Vec<u64>,
}

impl ResultBatch {
    /// Queries answered.
    pub fn len(&self) -> usize {
        self.query_ids.len()
    }

    /// `true` for a batch without queries.
    pub fn is_empty(&self) -> bool {
        self.query_ids.is_empty()
    }

    /// Query `i`'s answer in the single-query form.
    pub fn result(&self, i: usize) -> QueryResult {
        let rows = span(&self.result_ends, i);
        QueryResult {
            query_id: self.query_ids[i],
            shard: self.shard,
            ids: self.ids[rows.clone()].to_vec(),
            scores: self.scores[rows].to_vec(),
            candidates_seen: self.candidates_seen[i],
        }
    }
}

impl Wire for ResultBatch {
    fn encode(&self, buf: &mut BytesMut) {
        self.shard.encode(buf);
        put_varint(buf, self.query_ids.len() as u64);
        put_ascending(&self.query_ids, buf);
        encode_counts(&self.result_ends, buf);
        for &seen in &self.candidates_seen {
            put_varint(buf, seen);
        }
        self.ids.encode(buf);
        self.scores.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let shard = u32::decode(buf)?;
        let n = get_count(buf, 3)?;
        let mut query_ids = Vec::new();
        get_ascending(buf, n, &mut query_ids)?;
        let result_ends = decode_ends(buf, n)?;
        let mut candidates_seen = Vec::with_capacity(n);
        for _ in 0..n {
            candidates_seen.push(get_varint(buf)?);
        }
        let ids = Vec::<u64>::decode(buf)?;
        let scores = Vec::<f32>::decode(buf)?;
        expect_len(
            "ids",
            ids.len(),
            result_ends.last().map_or(0, |&e| e as usize),
        )?;
        expect_len("scores", scores.len(), ids.len())?;
        Ok(Self {
            shard,
            query_ids,
            result_ends,
            ids,
            scores,
            candidates_seen,
        })
    }

    fn size_hint(&self) -> usize {
        32 + 6 * self.query_ids.len() + 12 * self.ids.len()
    }
}

impl From<QueryResult> for ResultBatch {
    fn from(r: QueryResult) -> Self {
        Self {
            shard: r.shard,
            query_ids: vec![r.query_id],
            result_ends: vec![r.ids.len() as u32],
            ids: r.ids,
            scores: r.scores,
            candidates_seen: vec![r.candidates_seen],
        }
    }
}

wire! {
    /// Client → every machine of a shard row: freshly upserted rows for that
    /// machine's dimension slice, appended to the shard's in-memory delta list.
    ///
    /// Delta rows are stored and scanned as exact f32 regardless of the
    /// deployment's block representation, so recall on fresh data is 1.0 by
    /// construction. Rows carry ingest sequence numbers; queries scan only rows
    /// below their admission watermark ([`QueryChunk::delta_seq`]).
    #[derive(Debug, Clone, PartialEq)]
    pub struct DeltaUpsert {
        /// Namespace whose delta storage the rows append to.
        pub ns: u16,
        /// Epoch whose delta storage the rows append to.
        pub epoch: u64,
        /// Home shard of the upserted vectors.
        pub shard: u32,
        /// Absolute dimension range `[start, end)` of this machine's slice.
        pub dim_start: u64,
        /// End of the dimension range.
        pub dim_end: u64,
        /// Upserted vector ids.
        pub ids: Vec<u64>,
        /// Ingest sequence numbers, parallel to `ids`.
        pub seqs: Vec<u64>,
        /// Row-major coordinates, `dim_end - dim_start` wide per row.
        pub flat: Vec<f32>,
        /// Per-row squared norm of this slice's coordinates (inner-product
        /// metrics only; empty under L2).
        pub block_norms_sq: Vec<f32>,
        /// Per-row squared norm of the full vector (inner-product only).
        pub total_norms_sq: Vec<f32>,
    }
    validate = DeltaUpsert::validate;
}

impl DeltaUpsert {
    fn validate(&self) -> Result<(), CodecError> {
        let rows = self.ids.len();
        expect_len("seqs", self.seqs.len(), rows)?;
        check_rows(
            "DeltaUpsert",
            rows,
            &self.flat,
            &[],
            [&self.block_norms_sq, &self.total_norms_sq],
        )?;
        check_width(
            "DeltaUpsert",
            rows,
            (self.dim_start, self.dim_end),
            &self.flat,
            &[],
        )
    }
}

wire! {
    /// Client → all machines: soft-delete these ids at sequence `seq`.
    ///
    /// Workers record the ids in the target epoch's tombstone set; stored rows
    /// are suppressed at result-emission time, never removed (positional
    /// enumeration must stay identical across a shard row). The client keeps
    /// its own authoritative dead set, so worker-side tombstones are a
    /// best-effort early filter rather than the correctness mechanism.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DeleteIds {
        /// Namespace whose tombstone sets record the delete; the wildcard
        /// epoch never crosses namespaces.
        pub ns: u16,
        /// Epoch whose tombstone set records the delete, or [`u64::MAX`] to
        /// apply to every live epoch of the namespace on the machine.
        pub epoch: u64,
        /// Ids to tombstone.
        pub ids: Vec<u64>,
        /// Ingest sequence number of the delete: delta rows upserted at or
        /// after this stay visible (re-upsert after delete).
        pub seq: u64,
    }
}

wire! {
    /// Client → all machines: move a namespace to a new residency tier.
    ///
    /// Workers spill or fault the namespace's grid blocks accordingly (see
    /// `harmony_index::tier`) and ack with [`ToClient::TierAck`] once the
    /// transition is durable. Tier changes never alter stored bytes — a
    /// spilled block faults back bit-identical — so search results are
    /// unaffected by when the ack races with in-flight queries.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SetTier {
        /// Namespace whose tier changes.
        pub ns: u16,
        /// Target tier tag ([`harmony_index::Temperature::encode`]).
        pub temperature: u8,
    }
    validate = SetTier::validate;
}

impl SetTier {
    fn validate(&self) -> Result<(), CodecError> {
        match Temperature::decode(self.temperature) {
            Some(_) => Ok(()),
            None => invalid(format!("bad temperature tag {}", self.temperature)),
        }
    }
}

wire! {
    /// Per-worker pruning and load counters.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct StatsReport {
        /// Candidates entering the pipeline at each position this worker served.
        pub slice_in: Vec<u64>,
        /// Candidates pruned at each position.
        pub slice_pruned: Vec<u64>,
        /// Total candidate-dimension products scanned.
        pub scanned_point_dims: u64,
        /// Heap bytes used by this worker's block storage.
        pub memory_bytes: u64,
        /// Resident block payload bytes held in f32 form (vector coordinates
        /// only, ids excluded).
        pub f32_block_bytes: u64,
        /// Resident block payload bytes held in SQ8 form (codes + per-row code
        /// sums + segment headers, ids excluded).
        pub sq8_block_bytes: u64,
        /// Wall nanoseconds this worker spent in candidate scan loops since the
        /// last reset — the numerator of the observed compute rate the
        /// supervisor feeds back into the cost model.
        pub compute_ns: u64,
        /// Resident delta-list payload bytes (exact f32 rows awaiting
        /// compaction).
        pub delta_bytes: u64,
        /// Delta rows currently held across live epochs.
        pub delta_rows: u64,
        /// Tombstoned ids currently held across live epochs.
        pub tombstone_entries: u64,
        /// Evictable list payload bytes resident in the warm-tier cache (a
        /// subset of `f32_block_bytes` + `sq8_block_bytes`).
        pub cache_block_bytes: u64,
        /// Part-file bytes on disk (warm/cold namespaces); not counted in
        /// any of the resident byte counts above.
        pub spilled_block_bytes: u64,
        /// Requested lists of spilled blocks (by a hop or a prefetch) that
        /// were already resident.
        pub cache_hits: u64,
        /// Lists faulted in from part files.
        pub cache_misses: u64,
        /// Part-file bytes read by those faults.
        pub fault_bytes: u64,
        /// Sub-batches answered emptily because a probed list could not be
        /// read back from its part file.
        pub spill_read_errors: u64,
    }
}

wire! {
    /// Client → worker messages. Tags are a published format (drivers
    /// outside this workspace speak the single-query forms): a new variant
    /// takes the next free tag, an existing one never moves. Tags 5, 6 and
    /// 7 (`BeginEpoch`, `MigrateOut`, `InstallLists` — the peer-to-peer
    /// piece protocol) are retired and never reused.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ToWorker {
        /// Ship a grid block of a routing epoch.
        0 => Load(LoadBlock),
        /// Route a query slice (query phase).
        1 => Chunk(QueryChunk),
        /// Pipeline hop from a peer worker.
        2 => Carry(Carry),
        /// Request a [`StatsReport`].
        3 => GetStats,
        /// Zero the statistics counters.
        4 => ResetStats,
        /// Drop all storage of a retired epoch.
        8 => EvictEpoch {
            /// Namespace whose epoch retires.
            ns: u16,
            /// The retired epoch.
            epoch: u64,
        },
        /// Append freshly upserted rows to a shard's delta list.
        9 => UpsertDelta(DeltaUpsert),
        /// Tombstone ids for soft deletion.
        10 => DeleteIds(DeleteIds),
        /// Move a namespace between residency tiers.
        11 => SetTier(SetTier),
        /// Route one sub-batch's query slices (query phase; what the engine
        /// sends — [`ToWorker::Chunk`] is its one-row legacy form).
        12 => ChunkBatch(ChunkBatch),
        /// Pipeline hop of one sub-batch from a peer worker.
        13 => CarryBatch(CarryBatch),
        /// Fault these lists of a spilled block in ahead of the sub-batch
        /// that will probe them (warm/cold namespaces only; scans nothing,
        /// answers nothing).
        14 => Prefetch {
            /// Namespace of the block.
            ns: u16,
            /// Epoch the sub-batch was admitted under.
            epoch: u64,
            /// Shard row of the block.
            shard: u32,
            /// Clusters the sub-batch probes on that shard, ascending.
            clusters: Vec<u32>,
        },
    }
}

wire! {
    /// Worker → client messages (tags published like [`ToWorker`]'s). Tag
    /// 0 (`LoadAck`, which named a block but not its epoch) is retired and
    /// never reused.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ToClient {
        /// A shard pipeline finished for one query.
        1 => Result(QueryResult),
        /// Statistics reply.
        2 => Stats(StatsReport),
        /// Acknowledges a [`LoadBlock`]: the machine installed its grid
        /// block of `epoch` and serves queries stamped with it.
        3 => EpochReady {
            /// Namespace of the activated epoch.
            ns: u16,
            /// The activated epoch.
            epoch: u64,
        },
        /// Acknowledges a [`SetTier`]: the namespace's blocks on this
        /// machine now sit in the requested tier.
        4 => TierAck {
            /// Namespace whose transition completed.
            ns: u16,
        },
        /// A shard pipeline finished for one sub-batch of queries.
        5 => ResultBatch(ResultBatch),
    }
}

/// Metric tags shared by [`LoadBlock::metric`].
pub mod metric_tag {
    use harmony_index::Metric;

    /// Encodes a metric as its wire tag.
    pub fn encode(metric: Metric) -> u8 {
        match metric {
            Metric::L2 => 0,
            Metric::InnerProduct => 1,
            Metric::Cosine => 2,
        }
    }

    /// Decodes a wire tag back to a metric.
    ///
    /// # Errors
    /// [`harmony_cluster::CodecError::Invalid`] for unknown tags.
    pub fn decode(tag: u8) -> Result<Metric, harmony_cluster::CodecError> {
        match tag {
            0 => Ok(Metric::L2),
            1 => Ok(Metric::InnerProduct),
            2 => Ok(Metric::Cosine),
            t => Err(harmony_cluster::CodecError::Invalid(format!(
                "bad metric tag {t}"
            ))),
        }
    }
}

/// Block-representation tags shared by [`LoadBlock::repr`].
pub mod repr_tag {
    use harmony_index::BlockRepr;

    /// Encodes a block representation as its wire tag.
    pub fn encode(repr: BlockRepr) -> u8 {
        match repr {
            BlockRepr::F32 => 0,
            BlockRepr::Sq8 => 1,
        }
    }

    /// Decodes a wire tag back to a block representation.
    ///
    /// # Errors
    /// [`harmony_cluster::CodecError::Invalid`] for unknown tags.
    pub fn decode(tag: u8) -> Result<BlockRepr, harmony_cluster::CodecError> {
        match tag {
            0 => Ok(BlockRepr::F32),
            1 => Ok(BlockRepr::Sq8),
            t => Err(harmony_cluster::CodecError::Invalid(format!(
                "bad repr tag {t}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Round-trips, golden bytes, tag tables and the `validate` rejections
    // of every message live in `tests/codec_frame_props.rs`.

    #[test]
    fn hostile_segment_count_rejected() {
        let mut evil = BytesMut::new();
        7u32.encode(&mut evil); // cluster
        Vec::<u64>::new().encode(&mut evil); // ids
        Vec::<f32>::new().encode(&mut evil); // flat
        u64::MAX.encode(&mut evil); // declared segment count, no payload
        assert!(ClusterBlock::from_bytes(evil.freeze()).is_err());
    }

    /// The streamed frame is the derived codec's, byte for byte, in every
    /// representation and metric, an empty list among the others.
    #[test]
    fn load_frame_streams_the_bytes_of_the_derived_encoding() {
        let norm = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>();
        let row =
            |id: u64| -> [f32; 5] { std::array::from_fn(|d| (id as f32 - 2.5) * (d as f32 + 0.5)) };
        // Lists of block `1..4` of a 5-d space: members, then the empty
        // list, then one member.
        let lists: [(u32, Vec<u64>); 3] = [(4, vec![11, 3, 8, 20]), (0, vec![]), (9, vec![6])];
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            for repr in [BlockRepr::F32, BlockRepr::Sq8] {
                let (ip, sq8) = (metric != Metric::L2, repr == BlockRepr::Sq8);
                let head = LoadBlock {
                    ns: 3,
                    epoch: 9,
                    shard: 1,
                    dim_block: 1,
                    dim_start: 1,
                    dim_end: 4,
                    total_dim_blocks: 2,
                    metric: metric_tag::encode(metric),
                    repr: repr_tag::encode(repr),
                    pruning: true,
                    lists: Vec::new(),
                };
                let blocks = lists.iter().map(|(cluster, ids)| {
                    let rows: Vec<[f32; 5]> = ids.iter().map(|&id| row(id)).collect();
                    let coords: Vec<f32> = rows.iter().flat_map(|r| r[1..4].to_vec()).collect();
                    let norms = |of: &dyn Fn(&[f32; 5]) -> f32| match ip {
                        true => rows.iter().map(of).collect(),
                        false => Vec::new(),
                    };
                    ClusterBlock {
                        cluster: *cluster,
                        ids: ids.clone(),
                        flat: if sq8 { Vec::new() } else { coords.clone() },
                        segs: match sq8 && !ids.is_empty() {
                            true => vec![Sq8Segment::quantize(&coords, 3, 1)],
                            false => Vec::new(),
                        },
                        block_norms_sq: norms(&|r| norm(&r[1..4])),
                        total_norms_sq: norms(&|r| norm(r)),
                    }
                });
                let block = LoadBlock {
                    lists: blocks.collect(),
                    ..head.clone()
                };
                let want = ToWorker::Load(block).to_bytes();

                let mut frame = LoadFrame::new(head, lists.iter().map(|(_, ids)| ids.len()));
                for (cluster, ids) in &lists {
                    frame.push_list(*cluster, ids.len(), |out| {
                        for &id in ids {
                            let r = row(id);
                            out.push(id, &r[1..4], ip.then(|| [norm(&r[1..4]), norm(&r)]));
                        }
                    });
                }
                let got = frame.finish();
                assert_eq!(got, want, "{metric:?} {repr:?}");
                assert!(ToWorker::from_bytes(got).is_ok(), "{metric:?} {repr:?}");
            }
        }
    }

    #[test]
    fn bad_tags_rejected() {
        let raw = Bytes::from_static(&[99]);
        assert!(ToWorker::from_bytes(raw.clone()).is_err());
        assert!(ToClient::from_bytes(raw).is_err());
    }

    #[test]
    fn metric_and_repr_tags_roundtrip() {
        for m in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            assert_eq!(metric_tag::decode(metric_tag::encode(m)).unwrap(), m);
        }
        assert!(metric_tag::decode(9).is_err());
        for r in [BlockRepr::F32, BlockRepr::Sq8] {
            assert_eq!(repr_tag::decode(repr_tag::encode(r)).unwrap(), r);
        }
        assert!(repr_tag::decode(7).is_err());
    }

    /// The planner's byte counts are the codecs' own sizes (every varint
    /// below 128, as the helpers state).
    #[test]
    fn wire_size_helpers_equal_the_encodings() {
        let (rows, clusters, width, hops) = (3usize, 2usize, 5usize, 4usize);
        let chunk = ChunkBatch {
            ns: 1,
            epoch: 2,
            shard: 3,
            k: 10,
            order: (0..hops as u64).collect(),
            position: 1,
            delta_seq: 0,
            legacy_reply: false,
            query_ids: (0..rows as u64).map(|q| 40 + q).collect(),
            thresholds: vec![1.0; rows],
            q_total_norms_sq: Vec::new(),
            cluster_ends: (1..=rows as u32).map(|q| q * clusters as u32).collect(),
            clusters: (0..rows).flat_map(|_| [7u32, 9]).collect(),
            dims: vec![0.5; rows * width],
        };
        assert_eq!(
            chunk.to_bytes().len() as f64,
            chunk_wire_bytes(rows as f64, clusters as f64, width, hops)
        );
        let survivors = 6usize;
        let carry = CarryBatch {
            first_query_id: 40,
            shard: 3,
            thresholds: vec![1.0; rows],
            survivor_ends: (1..=rows as u32).map(|q| q * survivors as u32).collect(),
            indices: (0..rows)
                .flat_map(|_| (0..survivors as u32).map(|i| 3 * i))
                .collect(),
            partials: vec![0.25; rows * survivors],
            visited_norms_sq: Vec::new(),
            q_visited_norms_sq: Vec::new(),
            quant_eps: Vec::new(),
        };
        assert_eq!(
            carry.to_bytes().len() as f64,
            carry_wire_bytes(rows as f64, survivors as f64)
        );
        let hits = 10usize;
        let result = ResultBatch {
            shard: 3,
            query_ids: (0..rows as u64).map(|q| 40 + q).collect(),
            result_ends: (1..=rows as u32).map(|q| q * hits as u32).collect(),
            ids: vec![11; rows * hits],
            scores: vec![0.5; rows * hits],
            candidates_seen: vec![99; rows],
        };
        assert_eq!(
            result.to_bytes().len() as f64,
            result_wire_bytes(rows as f64, hits as f64)
        );
    }
}
