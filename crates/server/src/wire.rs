//! The campaign service's binary wire protocol (version 1).
//!
//! Everything on the socket is a **frame**: a fixed 16-byte header
//! followed by a checksummed body, mirroring the engine's write-ahead
//! log framing so both binary formats in the workspace share one
//! discipline (length prefix with an XOR self-check, FNV-1a checksum,
//! size-bounded decode).
//!
//! # On-the-wire layout (version 1, pinned by a golden test)
//!
//! ```text
//! hello  := "DPTDNET" 0x01                    (8 bytes, client → server,
//!                                              echoed back on accept)
//! frame  := body_len:u32 len_check:u32 checksum:u64 body
//! body   := kind:u8 payload                   (all little-endian)
//! ```
//!
//! `len_check` is `body_len ^ "NET1"`; `checksum` is FNV-1a over the
//! body. A header whose self-check fails, a body whose checksum fails,
//! or a length past [`MAX_FRAME_LEN`] is a typed [`WireError`] — never a
//! panic, and never an allocation driven by an unvalidated length: every
//! count a payload claims is bounded against the bytes actually present
//! before any `Vec` is sized (the same hardening as the WAL decode).
//!
//! Request kinds are `0x01..`, response kinds `0x81..`; an unknown kind
//! is [`WireError::UnknownKind`]. Strings (campaign ids) are
//! length-prefixed UTF-8, bounded by [`MAX_CAMPAIGN_ID_LEN`] and
//! restricted to `[A-Za-z0-9._-]` (they name per-campaign WAL
//! directories, so path separators must be unrepresentable).

use std::fmt;

use dptd_core::roles::PerturbedReport;
use dptd_obs::{
    HistogramSnapshot, MetricValue, MetricsSnapshot, SpanContext, TraceEvent, NUM_BUCKETS,
};
use dptd_protocol::message::StampedReport;
use dptd_stats::digest::Fnv1a;

/// The 8-byte connection hello: 7 ASCII magic bytes plus the protocol
/// version. Sent by the client on connect, echoed by the server.
pub const HELLO: [u8; 8] = *b"DPTDNET\x01";

/// Bytes of frame overhead before each body (length prefix, length
/// self-check, checksum).
pub const FRAME_HEADER_LEN: usize = 4 + 4 + 8;

/// Upper bound on a frame body. Large submissions must be chunked by the
/// client ([`crate::client::Client::submit_chunked`]); the bound is what
/// lets the server reject a length-lying header before allocating.
pub const MAX_FRAME_LEN: usize = 32 << 20;

/// Upper bound on a campaign id, in bytes.
pub const MAX_CAMPAIGN_ID_LEN: usize = 64;

/// XOR mask for the frame header's length self-check.
const LEN_XOR: u32 = u32::from_le_bytes(*b"NET1");

/// Typed wire-level failures. Every way a byte stream can be malformed
/// maps here; the codec never panics and never over-allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the frame does (stream truncated mid-frame
    /// — e.g. a peer that died mid-write).
    Truncated {
        /// Bytes the frame needs.
        needed: usize,
        /// Bytes present.
        have: usize,
    },
    /// The header claims a body larger than [`MAX_FRAME_LEN`].
    TooLarge {
        /// The claimed body length.
        claimed: u64,
    },
    /// The length prefix failed its XOR self-check — a corrupted or
    /// non-protocol header.
    LenCheck,
    /// The body checksum did not match its header.
    Checksum,
    /// The body's kind byte names no known message.
    UnknownKind(
        /// The offending kind byte.
        u8,
    ),
    /// The payload violates its kind's structure (a claimed count larger
    /// than the bytes present, an over-long or ill-charactered campaign
    /// id, trailing bytes, …).
    Malformed(
        /// What was wrong.
        &'static str,
    ),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "frame truncated: needs {needed} bytes, got {have}")
            }
            WireError::TooLarge { claimed } => {
                write!(
                    f,
                    "frame body of {claimed} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
                )
            }
            WireError::LenCheck => write!(f, "frame length prefix failed its self-check"),
            WireError::Checksum => write!(f, "frame checksum mismatch"),
            WireError::UnknownKind(kind) => write!(f, "unknown frame kind 0x{kind:02x}"),
            WireError::Malformed(reason) => write!(f, "malformed frame payload: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Why the server refused a request, as a stable wire-level code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// No campaign under that id.
    UnknownCampaign = 1,
    /// A live campaign already holds that id.
    CampaignExists = 2,
    /// The request was structurally valid but semantically wrong (wrong
    /// epoch, bad sizing, ill-formed campaign id, …).
    InvalidRequest = 3,
    /// The round starved: after deadline/dedup/refusal filtering some
    /// object had no surviving report.
    InsufficientCoverage = 4,
    /// Every submitting user's privacy budget is exhausted — the
    /// [`dptd_protocol::budget::BudgetAccountant`] refused them all.
    BudgetExhausted = 5,
    /// The campaign's write-ahead log refused the operation (locked by
    /// another writer, corrupt, policy mismatch, or durability was
    /// requested on a server with no WAL root).
    WalRefused = 6,
    /// The server is at its connection worker budget.
    ServerBusy = 7,
    /// Anything else (engine/internal failures).
    Internal = 8,
    /// The campaign is quarantined: a worker panicked while holding its
    /// state lock, so the in-memory state cannot be trusted mid-round.
    /// Requests on the campaign are refused instead of risking a
    /// corrupted merge; recreate the campaign (or restart the server,
    /// replaying its WAL) to recover.
    CampaignQuarantined = 9,
}

impl ErrorCode {
    /// Decode a wire byte.
    pub fn from_u8(code: u8) -> Option<Self> {
        Some(match code {
            1 => ErrorCode::UnknownCampaign,
            2 => ErrorCode::CampaignExists,
            3 => ErrorCode::InvalidRequest,
            4 => ErrorCode::InsufficientCoverage,
            5 => ErrorCode::BudgetExhausted,
            6 => ErrorCode::WalRefused,
            7 => ErrorCode::ServerBusy,
            8 => ErrorCode::Internal,
            9 => ErrorCode::CampaignQuarantined,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::UnknownCampaign => "unknown-campaign",
            ErrorCode::CampaignExists => "campaign-exists",
            ErrorCode::InvalidRequest => "invalid-request",
            ErrorCode::InsufficientCoverage => "insufficient-coverage",
            ErrorCode::BudgetExhausted => "budget-exhausted",
            ErrorCode::WalRefused => "wal-refused",
            ErrorCode::ServerBusy => "server-busy",
            ErrorCode::Internal => "internal",
            ErrorCode::CampaignQuarantined => "campaign-quarantined",
        };
        write!(f, "{name}")
    }
}

/// A store operation replicated from a primary's WAL directory to its
/// follower, in commit order. The four variants mirror the four
/// mutating methods of the engine's `StoreFs` trait, so a follower that
/// applies them in sequence reconstructs the primary's directory byte
/// for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum StoreOp {
    /// Append bytes to a (possibly new) file.
    Append = 0,
    /// Replace a file's contents all-or-nothing.
    WriteAtomic = 1,
    /// Shrink a file to `arg` bytes.
    Truncate = 2,
    /// Delete a file.
    Remove = 3,
}

impl StoreOp {
    /// Decode a wire byte.
    pub fn from_u8(op: u8) -> Option<Self> {
        Some(match op {
            0 => StoreOp::Append,
            1 => StoreOp::WriteAtomic,
            2 => StoreOp::Truncate,
            3 => StoreOp::Remove,
            _ => return None,
        })
    }
}

/// A campaign's engine counters as reported over the wire — the
/// remotely observable subset of the engine's `EngineMetrics` plus the
/// registry's current submission-queue depth. Latency quantiles are in
/// nanoseconds (`0` before any ingest has been timed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsReport {
    /// Reports offered to the engine.
    pub reports_submitted: u64,
    /// Reports that survived dedup/deadline and were aggregated.
    pub reports_accepted: u64,
    /// Duplicates discarded (first-wins).
    pub duplicates_discarded: u64,
    /// Reports dropped as late.
    pub late_dropped: u64,
    /// Reports dropped as out-of-order.
    pub out_of_order_dropped: u64,
    /// Times a producer stalled on a full shard queue.
    pub backpressure_stalls: u64,
    /// Epochs merged into the estimator.
    pub epochs_merged: u64,
    /// High-water mark of the engine's shard queues.
    pub max_queue_depth: u64,
    /// Reports currently buffered for the next close (pending plus the
    /// one-round lookahead).
    pub queue_depth: u64,
    /// Accepted reports per second of engine wall time.
    pub throughput_rps: f64,
    /// Median ingest latency, nanoseconds.
    pub ingest_p50_ns: u64,
    /// 99th-percentile ingest latency, nanoseconds.
    pub ingest_p99_ns: u64,
    /// Connections live on the serving front end right now (a
    /// server-wide gauge, repeated in every campaign's report).
    pub conn_live: u64,
    /// Connections accepted since the server started.
    pub conn_accepted: u64,
    /// Connections refused at accept because the front end was at its
    /// connection budget.
    pub conn_refused: u64,
    /// I/O threads the front end is running.
    pub io_threads: u64,
}

/// Sizing and privacy policy for a campaign created over the wire —
/// everything the server needs to build the engine, the campaign driver
/// and (optionally) the per-campaign write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSpec {
    /// Population size.
    pub num_users: u64,
    /// Objects per round.
    pub num_objects: u64,
    /// Engine ingestion shards.
    pub num_shards: u64,
    /// Engine drain workers (0 = auto).
    pub workers: u64,
    /// Engine per-shard queue depth.
    pub engine_queue: u64,
    /// Per-round submission deadline (virtual µs).
    pub deadline_us: u64,
    /// Cap on reports buffered between `SubmitReports` and `CloseRound`;
    /// past it the server replies `Busy` instead of growing the queue.
    pub submission_capacity: u64,
    /// ε one aggregated report costs its user.
    pub per_round_epsilon: f64,
    /// δ one aggregated report costs its user.
    pub per_round_delta: f64,
    /// The campaign-wide ε ceiling per user.
    pub budget_epsilon: f64,
    /// The campaign-wide δ ceiling per user.
    pub budget_delta: f64,
    /// Opaque fingerprint of the input stream driving this campaign
    /// (`0` when unused). Stamped into every durable WAL record: a
    /// re-create that would resume the log under a **different** stream
    /// (e.g. `dptd submit` with a new `--seed`) is refused instead of
    /// silently replaying the ledger against reports it never
    /// accounted — the same guard `dptd campaign --wal` applies.
    pub stream_tag: u64,
    /// Whether the campaign logs every round to its own WAL directory
    /// under the server's WAL root (and resumes from it when re-created).
    pub durable: bool,
}

/// A client→server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a new campaign (or resume a durable one from its WAL).
    CreateCampaign {
        /// The campaign id (also its WAL directory name when durable).
        campaign: String,
        /// Sizing and privacy policy.
        spec: CampaignSpec,
    },
    /// Append a batch of stamped reports to the campaign's bounded
    /// submission queue. All reports must carry the campaign's next
    /// epoch; the batch is taken atomically or refused (`Busy`).
    SubmitReports {
        /// Target campaign.
        campaign: String,
        /// The batch, in stream order.
        reports: Vec<StampedReport>,
        /// Optional trace-context extension: the sender's current span,
        /// so the server's queue/merge spans causally link to the
        /// client's submit span. `None` encodes byte-identically to the
        /// pre-extension frame, so untraced peers interoperate.
        ctx: Option<SpanContext>,
    },
    /// Execute the campaign's next round over everything submitted since
    /// the previous close.
    CloseRound {
        /// Target campaign.
        campaign: String,
        /// The epoch being closed (must be the campaign's next epoch —
        /// a stale retry is refused instead of silently re-running).
        epoch: u64,
    },
    /// Read the latest truths and the current weights digest.
    QueryTruths {
        /// Target campaign.
        campaign: String,
    },
    /// Read the privacy-budget ledger.
    QueryBudget {
        /// Target campaign.
        campaign: String,
    },
    /// Read the campaign's engine metrics (throughput, latency
    /// quantiles, drop counters, queue depth).
    QueryMetrics {
        /// Target campaign.
        campaign: String,
    },
    /// Identify this connection as a cluster peer. A coordinator sends
    /// it after the hello so a node can confirm the partition geometry
    /// both sides assume; a plain campaign server refuses it.
    NodeHello {
        /// The node's index in the cluster's partition map.
        node_id: u32,
        /// Total nodes the sender believes the cluster has.
        num_nodes: u32,
    },
    /// Phase one of the cluster's two-phase round barrier: drain the
    /// node's submission queue for `epoch`, filter it exactly as a
    /// round close would (refusal withhold → deadline → first-wins
    /// dedup), and return the surviving claims **without** touching
    /// durable state. The coordinator merges all nodes' claims before
    /// anything commits.
    CloseRoundPrepare {
        /// Target campaign.
        campaign: String,
        /// The epoch being closed (must be the node's next epoch).
        epoch: u64,
        /// Node-local user ids whose budget the coordinator's global
        /// ledger says is exhausted — their reports are withheld before
        /// the deadline cut, matching the driver's refusal order.
        refused: Vec<u64>,
        /// Optional trace-context extension: the coordinator's barrier
        /// span, so the node's drain span parents under it in a merged
        /// timeline. `None` is byte-identical to the pre-extension frame.
        ctx: Option<SpanContext>,
    },
    /// Phase two of the barrier: durably append the node's slice of the
    /// merged round to its WAL. Idempotent — re-sending the previous
    /// epoch's byte-identical record is acknowledged without a second
    /// append, so a coordinator that died between commit fan-out and
    /// its own state advance can safely re-drive the barrier.
    CloseRoundCommit {
        /// Target campaign.
        campaign: String,
        /// The epoch being committed.
        epoch: u64,
        /// Estimator batches merged globally after this round.
        batches_seen: u64,
        /// Node-local ids accepted this round, ascending.
        accepted_users: Vec<u64>,
        /// The node's slice of the post-round cumulative losses, one
        /// per local user.
        cumulative_losses: Vec<f64>,
        /// The node's slice of the post-round debit ledger, one per
        /// local user.
        rounds_debited: Vec<u32>,
        /// Optional trace-context extension (see
        /// [`Request::CloseRoundPrepare::ctx`]).
        ctx: Option<SpanContext>,
    },
    /// Stream one committed store operation to a follower, in commit
    /// order. The follower applies it under its replica root and acks
    /// with the same sequence number.
    ReplicateSegment {
        /// The campaign whose WAL directory is being replicated.
        campaign: String,
        /// Position of this operation in the primary's commit order
        /// (strictly increasing from 0).
        seq: u64,
        /// Which store mutation to apply.
        op: StoreOp,
        /// The file within the campaign's directory.
        name: String,
        /// Operand for [`StoreOp::Truncate`] (the new length); `0`
        /// otherwise.
        arg: u64,
        /// Payload for [`StoreOp::Append`] / [`StoreOp::WriteAtomic`];
        /// empty otherwise.
        bytes: Vec<u8>,
    },
    /// Read a node's durable round ledger — what a fresh coordinator
    /// needs to rebuild global state after failover.
    QueryLedger {
        /// Target campaign.
        campaign: String,
        /// Epoch to read the ledger *as of*: the node answers with its
        /// state after committing `upto` (or refuses if it never did).
        /// `u64::MAX` means "your latest".
        upto: u64,
    },
    /// One batch of a **pipelined** submission stream. Unlike
    /// [`Request::SubmitReports`] the client does not wait for the
    /// previous batch's reply before sending the next: it keeps a window
    /// of batches in flight, each stamped with a per-connection sequence
    /// number (strictly increasing over *accepted* batches), and the
    /// server answers every batch with a cumulative
    /// [`Response::SubmitAcked`]. The connection front end accepts only
    /// the next in-order sequence number, so the submission queue sees
    /// the exact byte order the client sent — pipelining never perturbs
    /// campaign results.
    SubmitReportsStream {
        /// Target campaign.
        campaign: String,
        /// This batch's position in the connection's stream. The first
        /// batch on a connection is `0`; a refused batch is retried
        /// under the **same** number.
        seq: u64,
        /// The batch, in stream order.
        reports: Vec<StampedReport>,
        /// Optional trace-context extension (see
        /// [`Request::SubmitReports::ctx`]).
        ctx: Option<SpanContext>,
    },
    /// Read the server's full observability snapshot: every registry
    /// metric (connection gauges, per-campaign stage-busy counters,
    /// error-code frequencies, WAL bytes) plus per-campaign ingest
    /// histograms — the frame behind `dptd status --connect`. Unlike
    /// [`Request::QueryMetrics`] it is server-wide, not per-campaign.
    QueryStatus,
    /// Read the process's retained trace rings — every event the
    /// per-thread buffers still hold, plus the wall-clock anchor that
    /// lets a coordinator align timelines from different machines. The
    /// frame behind `dptd cluster trace`.
    QueryTrace,
}

/// One refused batch inside a [`Response::SubmitAcked`], carried as a
/// delta against the cumulative ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRefusal {
    /// The refused batch's sequence number.
    pub seq: u64,
    /// Why it was refused. `None` is retryable backpressure (the queue
    /// was full, or the batch arrived out of order behind another
    /// refusal): resend from this sequence number once the earlier
    /// refusal clears. `Some(code)` is a hard refusal.
    pub code: Option<ErrorCode>,
}

/// A server→client reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Campaign registered.
    Created {
        /// Rounds already durably committed (non-zero only when a
        /// durable campaign resumed from its WAL).
        resumed_rounds: u64,
    },
    /// Batch accepted into the submission queue.
    Submitted {
        /// Reports now pending for the next close.
        queued: u64,
    },
    /// Backpressure: the submission queue cannot take the batch. Nothing
    /// was enqueued — the client must retry after a `CloseRound` drains
    /// the queue (the server never buffers unboundedly).
    Busy {
        /// Reports currently pending.
        queued: u64,
        /// The queue's capacity.
        capacity: u64,
    },
    /// A round executed.
    RoundClosed {
        /// The epoch that closed.
        epoch: u64,
        /// Reports aggregated.
        accepted: u64,
        /// Users refused because their budget was exhausted.
        refused: u64,
        /// Duplicates discarded (first-wins).
        duplicates: u64,
        /// Reports dropped as late.
        late: u64,
        /// Estimated truths for the round's objects.
        truths: Vec<f64>,
        /// FNV-1a digest of the post-round weights' bit patterns — the
        /// same digest `dptd campaign` prints, so wire and in-process
        /// runs diff from the shell.
        weights_digest: u64,
        /// Worst cumulative ε across the population after the round.
        max_spent_epsilon: f64,
        /// Worst cumulative δ across the population after the round.
        max_spent_delta: f64,
    },
    /// Current truths.
    Truths {
        /// Rounds completed so far.
        rounds_run: u64,
        /// Truths from the last closed round (empty before the first).
        truths: Vec<f64>,
        /// FNV-1a digest of the current weights.
        weights_digest: u64,
    },
    /// The privacy ledger.
    Budget {
        /// Users whose budget affords no further round.
        exhausted: u64,
        /// Worst cumulative ε spent.
        max_spent_epsilon: f64,
        /// Worst cumulative δ spent.
        max_spent_delta: f64,
        /// Per-user debit counts, user order — the exact snapshot
        /// [`dptd_protocol::budget::BudgetAccountant::debits_by_user`]
        /// exposes, so a wire ledger can be compared bit-for-bit with an
        /// in-process one.
        debits: Vec<u32>,
    },
    /// The request was refused.
    Error {
        /// Stable machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The campaign's engine counters.
    Metrics {
        /// The observable metrics snapshot (boxed — it is by far the
        /// widest variant, and responses travel through `Result` errors).
        metrics: Box<MetricsReport>,
    },
    /// The node accepts the peer handshake.
    NodeWelcome {
        /// The node's own index (must match the `NodeHello`).
        node_id: u32,
    },
    /// Phase-one result: the node's filtered claims for the epoch.
    Prepared {
        /// The epoch that was drained.
        epoch: u64,
        /// Duplicates discarded by the node's first-wins filter.
        duplicates: u64,
        /// Reports the node dropped as late.
        late: u64,
        /// Distinct refused users that actually submitted this epoch.
        refused_seen: u64,
        /// Surviving reports in ascending local-user order. `user` is
        /// the **node-local** dense id; the coordinator maps it back to
        /// the global id through the partition map.
        claims: Vec<PerturbedReport>,
    },
    /// Phase-two result: the node's WAL holds the epoch.
    Committed {
        /// The epoch now durable.
        epoch: u64,
        /// Whether a record was appended (`false` = the byte-identical
        /// record was already the node's latest — an idempotent retry).
        appended: bool,
    },
    /// The follower applied the replicated store operation.
    Replicated {
        /// Echo of the operation's sequence number.
        seq: u64,
    },
    /// Cumulative acknowledgement of a pipelined submission stream: one
    /// is sent for every [`Request::SubmitReportsStream`] frame, in
    /// order, so a client with `W` batches in flight reads `W` acks.
    SubmitAcked {
        /// Batches accepted contiguously from sequence `0` — equally,
        /// the next sequence number the server will accept. Everything
        /// below it is durably queued and will never be re-requested.
        contiguous: u64,
        /// Reports pending for the next close after the most recently
        /// accepted batch (the same counter as
        /// [`Response::Submitted::queued`]).
        queued: u64,
        /// Batches refused since the previous ack, as deltas. Empty
        /// when this ack's own batch was accepted.
        refusals: Vec<BatchRefusal>,
    },
    /// A node's durable round ledger.
    Ledger {
        /// The next epoch the node would commit.
        next_epoch: u64,
        /// Estimator batches reflected in the slices below.
        batches_seen: u64,
        /// Per-local-user debit counts.
        rounds_debited: Vec<u32>,
        /// Per-local-user cumulative losses.
        cumulative_losses: Vec<f64>,
    },
    /// The server's full observability snapshot (reply to
    /// [`Request::QueryStatus`]).
    Status {
        /// Every metric the server's registry holds, sorted by name.
        snapshot: dptd_obs::MetricsSnapshot,
    },
    /// The process's retained trace rings (reply to
    /// [`Request::QueryTrace`]).
    TraceDump {
        /// Wall-clock nanoseconds since the Unix epoch at the process's
        /// trace epoch — `ts_ns + anchor_ns` places an event on the
        /// shared wall clock, which is how a coordinator aligns rings
        /// from different processes into one timeline.
        anchor_ns: u64,
        /// Per-ring truncation: `(tid, events_overwritten)` for every
        /// ring that wrapped, so a merged timeline can say what is
        /// missing instead of silently looking complete.
        dropped: Vec<(u64, u64)>,
        /// The retained events, oldest-first per ring.
        events: Vec<TraceEvent>,
    },
}

const KIND_CREATE: u8 = 0x01;
const KIND_SUBMIT: u8 = 0x02;
const KIND_CLOSE: u8 = 0x03;
const KIND_QUERY_TRUTHS: u8 = 0x04;
const KIND_QUERY_BUDGET: u8 = 0x05;
const KIND_QUERY_METRICS: u8 = 0x06;
const KIND_NODE_HELLO: u8 = 0x07;
const KIND_CLOSE_PREPARE: u8 = 0x08;
const KIND_CLOSE_COMMIT: u8 = 0x09;
const KIND_REPLICATE: u8 = 0x0a;
const KIND_QUERY_LEDGER: u8 = 0x0b;
const KIND_SUBMIT_STREAM: u8 = 0x0c;
const KIND_QUERY_STATUS: u8 = 0x0d;
const KIND_QUERY_TRACE: u8 = 0x0e;
const KIND_CREATED: u8 = 0x81;
const KIND_SUBMITTED: u8 = 0x82;
const KIND_BUSY: u8 = 0x83;
const KIND_ROUND_CLOSED: u8 = 0x84;
const KIND_TRUTHS: u8 = 0x85;
const KIND_BUDGET: u8 = 0x86;
const KIND_ERROR: u8 = 0x87;
const KIND_METRICS: u8 = 0x88;
const KIND_NODE_WELCOME: u8 = 0x89;
const KIND_PREPARED: u8 = 0x8a;
const KIND_COMMITTED: u8 = 0x8b;
const KIND_REPLICATED: u8 = 0x8c;
const KIND_LEDGER: u8 = 0x8d;
const KIND_SUBMIT_ACKED: u8 = 0x8e;
const KIND_STATUS: u8 = 0x8f;
const KIND_TRACE_DUMP: u8 = 0x90;

fn checksum(body: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    for &b in body {
        h.write_u8(b);
    }
    h.finish()
}

/// Split one frame off the front of `buf`.
///
/// Returns the frame body and the total bytes consumed. This is the pure
/// decode the socket layer and the malformed-input proptests share: any
/// byte string either yields a body, a typed [`WireError`], or
/// [`WireError::Truncated`] (more bytes needed) — never a panic, and the
/// body allocation is bounded by the bytes actually present.
///
/// # Errors
///
/// [`WireError::Truncated`] when `buf` holds less than a full frame;
/// [`WireError::LenCheck`], [`WireError::TooLarge`], or
/// [`WireError::Checksum`] for an invalid header or body.
pub fn split_frame(buf: &[u8]) -> Result<(&[u8], usize), WireError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Err(WireError::Truncated {
            needed: FRAME_HEADER_LEN,
            have: buf.len(),
        });
    }
    let body_len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
    let len_check = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if body_len ^ LEN_XOR != len_check {
        return Err(WireError::LenCheck);
    }
    if body_len as usize > MAX_FRAME_LEN {
        return Err(WireError::TooLarge {
            claimed: u64::from(body_len),
        });
    }
    let stored_sum = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let total = FRAME_HEADER_LEN + body_len as usize;
    if buf.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            have: buf.len(),
        });
    }
    let body = &buf[FRAME_HEADER_LEN..total];
    if checksum(body) != stored_sum {
        return Err(WireError::Checksum);
    }
    Ok((body, total))
}

/// Validate a campaign id: non-empty, at most [`MAX_CAMPAIGN_ID_LEN`]
/// bytes, characters from `[A-Za-z0-9._-]`, not starting with a dot.
/// Ids name per-campaign WAL directories, so nothing path-like may pass.
///
/// # Errors
///
/// [`WireError::Malformed`] describing the violated rule.
pub fn validate_campaign_id(id: &str) -> Result<(), WireError> {
    if id.is_empty() {
        return Err(WireError::Malformed("campaign id is empty"));
    }
    if id.len() > MAX_CAMPAIGN_ID_LEN {
        return Err(WireError::Malformed("campaign id too long"));
    }
    if id.starts_with('.') {
        return Err(WireError::Malformed("campaign id starts with a dot"));
    }
    if !id
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
    {
        return Err(WireError::Malformed(
            "campaign id may only use [A-Za-z0-9._-]",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Body writer/reader
// ---------------------------------------------------------------------

/// Builds one frame in place: the buffer opens with the 16 header
/// bytes reserved, the body is written behind them, and
/// [`Writer::finish`] patches length, length check and checksum into
/// the reservation — a multi-megabyte body is never copied into a
/// second buffer to gain its header.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(kind: u8) -> Self {
        Self::with_payload(kind, 0)
    }
    /// A writer whose buffer is sized up front for `payload` bytes
    /// behind the kind byte, so a bulk body computed from its element
    /// counts is not grown by doubling.
    fn with_payload(kind: u8, payload: usize) -> Self {
        let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + 1 + payload);
        buf.extend_from_slice(&[0; FRAME_HEADER_LEN]);
        buf.push(kind);
        Self { buf }
    }
    /// The body written so far (kind byte included).
    fn body(&self) -> &[u8] {
        &self.buf[FRAME_HEADER_LEN..]
    }
    /// Patch the v1 frame header over the reservation and hand the
    /// complete frame out.
    fn finish(mut self) -> Vec<u8> {
        let body_len = self.body().len();
        debug_assert!(body_len <= MAX_FRAME_LEN, "oversized frame produced");
        let sum = checksum(self.body());
        self.buf[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
        self.buf[4..8].copy_from_slice(&((body_len as u32) ^ LEN_XOR).to_le_bytes());
        self.buf[8..FRAME_HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        self.buf
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize);
        self.buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Malformed("payload shorter than its fields"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A claimed element count, bounded by the bytes still present: each
    /// element needs at least `min_elem_bytes`, so a count the remaining
    /// buffer cannot possibly hold is malformed — checked **before** any
    /// allocation sized by it.
    fn bounded_count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let claimed = self.u32()? as usize;
        let need = claimed
            .checked_mul(min_elem_bytes)
            .ok_or(WireError::Malformed("element count overflows"))?;
        if self.buf.len() < need {
            return Err(WireError::Malformed(
                "claimed count larger than the payload",
            ));
        }
        Ok(claimed)
    }
    fn str(&mut self) -> Result<String, WireError> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().expect("2")) as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("string is not UTF-8"))
    }
    fn campaign_id(&mut self) -> Result<String, WireError> {
        let id = self.str()?;
        validate_campaign_id(&id)?;
        Ok(id)
    }
    fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after the payload"))
        }
    }
}

/// Minimum encoded size of one [`StampedReport`] (epoch + sent_at + user
/// + value count, with zero values).
const MIN_REPORT_BYTES: usize = 8 + 8 + 8 + 4;
/// Encoded size of one report value (object:u32 + value:f64).
const VALUE_BYTES: usize = 4 + 8;

fn write_report(w: &mut Writer, r: &StampedReport) {
    w.u64(r.epoch);
    w.u64(r.sent_at_us);
    w.u64(r.report.user as u64);
    w.u32(r.report.values.len() as u32);
    for &(object, value) in &r.report.values {
        w.u32(object as u32);
        w.f64(value);
    }
}

/// Encoded size of a length-prefixed string.
fn str_bytes(s: &str) -> usize {
    2 + s.len()
}

/// Encoded size of a counted report batch — what a bulk arm reserves.
fn reports_bytes(reports: &[StampedReport]) -> usize {
    let report = |r: &StampedReport| MIN_REPORT_BYTES + VALUE_BYTES * r.report.values.len();
    4 + reports.iter().map(report).sum::<usize>()
}

fn write_reports(w: &mut Writer, reports: &[StampedReport]) {
    w.u32(reports.len() as u32);
    for r in reports {
        write_report(w, r);
    }
}

/// Encode a [`Request::SubmitReports`] frame straight from a borrowed
/// batch. This is the one body writer for that kind —
/// [`Request::encode`] calls it — so a client chunking a slice need not
/// deep-clone every report into an owned `Request` first.
pub(crate) fn encode_submit_reports(
    campaign: &str,
    reports: &[StampedReport],
    ctx: Option<SpanContext>,
) -> Vec<u8> {
    let mut w = Writer::with_payload(
        KIND_SUBMIT,
        str_bytes(campaign) + reports_bytes(reports) + CTX_BYTES,
    );
    w.str(campaign);
    write_reports(&mut w, reports);
    write_opt_ctx(&mut w, ctx);
    w.finish()
}

fn read_report(r: &mut Reader<'_>) -> Result<StampedReport, WireError> {
    let epoch = r.u64()?;
    let sent_at_us = r.u64()?;
    let user = usize::try_from(r.u64()?).map_err(|_| WireError::Malformed("user overflows"))?;
    let nvals = r.bounded_count(VALUE_BYTES)?;
    let mut values = Vec::with_capacity(nvals);
    for _ in 0..nvals {
        let object =
            usize::try_from(r.u32()?).map_err(|_| WireError::Malformed("object overflows"))?;
        values.push((object, r.f64()?));
    }
    Ok(StampedReport {
        epoch,
        sent_at_us,
        report: PerturbedReport { user, values },
    })
}

fn write_f64s(w: &mut Writer, vs: &[f64]) {
    w.u32(vs.len() as u32);
    for &v in vs {
        w.f64(v);
    }
}

fn read_f64s(r: &mut Reader<'_>) -> Result<Vec<f64>, WireError> {
    let n = r.bounded_count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.f64()?);
    }
    Ok(out)
}

fn write_u64s(w: &mut Writer, vs: &[u64]) {
    w.u32(vs.len() as u32);
    for &v in vs {
        w.u64(v);
    }
}

fn read_u64s(r: &mut Reader<'_>) -> Result<Vec<u64>, WireError> {
    let n = r.bounded_count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64()?);
    }
    Ok(out)
}

fn write_u32s(w: &mut Writer, vs: &[u32]) {
    w.u32(vs.len() as u32);
    for &v in vs {
        w.u32(v);
    }
}

fn read_u32s(r: &mut Reader<'_>) -> Result<Vec<u32>, WireError> {
    let n = r.bounded_count(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u32()?);
    }
    Ok(out)
}

/// Minimum encoded size of one prepared claim (user + value count, with
/// zero values).
const MIN_CLAIM_BYTES: usize = 8 + 4;

/// Encoded size of one [`BatchRefusal`] (seq:u64 + code:u8).
const MIN_REFUSAL_BYTES: usize = 8 + 1;

fn write_claim(w: &mut Writer, c: &PerturbedReport) {
    w.u64(c.user as u64);
    w.u32(c.values.len() as u32);
    for &(object, value) in &c.values {
        w.u32(object as u32);
        w.f64(value);
    }
}

fn read_claim(r: &mut Reader<'_>) -> Result<PerturbedReport, WireError> {
    let user = usize::try_from(r.u64()?).map_err(|_| WireError::Malformed("user overflows"))?;
    let nvals = r.bounded_count(VALUE_BYTES)?;
    let mut values = Vec::with_capacity(nvals);
    for _ in 0..nvals {
        let object =
            usize::try_from(r.u32()?).map_err(|_| WireError::Malformed("object overflows"))?;
        values.push((object, r.f64()?));
    }
    Ok(PerturbedReport { user, values })
}

/// Encoded size of the optional trace-context extension (trace id +
/// span id). When present it is always the **last** 16 bytes of the
/// payload — decoders read it iff bytes remain after the v1 fields, so
/// an absent context keeps the frame byte-identical to the
/// pre-extension layout and old peers interoperate untraced.
const CTX_BYTES: usize = 8 + 8;

fn write_opt_ctx(w: &mut Writer, ctx: Option<SpanContext>) {
    if let Some(c) = ctx {
        w.u64(c.trace_id);
        w.u64(c.span_id);
    }
}

fn read_opt_ctx(r: &mut Reader<'_>) -> Result<Option<SpanContext>, WireError> {
    if r.buf.is_empty() {
        return Ok(None);
    }
    if r.buf.len() != CTX_BYTES {
        return Err(WireError::Malformed(
            "trace-context extension is not 16 bytes",
        ));
    }
    Ok(Some(SpanContext {
        trace_id: r.u64()?,
        span_id: r.u64()?,
    }))
}

/// Encoded size of one trace event (tid + ts + phase + code + arg +
/// trace/span/parent ids).
const TRACE_EVENT_BYTES: usize = 8 + 8 + 1 + 4 + 8 + 8 + 8 + 8;
/// Encoded size of one per-ring truncation pair (tid + dropped).
const TRACE_DROP_BYTES: usize = 8 + 8;

fn write_trace_event(w: &mut Writer, e: &TraceEvent) {
    w.u64(e.tid);
    w.u64(e.ts_ns);
    w.u8(e.phase as u8);
    w.u32(e.code);
    w.u64(e.arg);
    w.u64(e.trace_id);
    w.u64(e.span_id);
    w.u64(e.parent_span);
}

fn read_trace_event(r: &mut Reader<'_>) -> Result<TraceEvent, WireError> {
    let tid = r.u64()?;
    let ts_ns = r.u64()?;
    let phase = match r.u8()? {
        b'B' => 'B',
        b'E' => 'E',
        b'i' => 'i',
        _ => return Err(WireError::Malformed("unknown trace event phase")),
    };
    Ok(TraceEvent {
        tid,
        ts_ns,
        phase,
        code: r.u32()?,
        arg: r.u64()?,
        trace_id: r.u64()?,
        span_id: r.u64()?,
        parent_span: r.u64()?,
    })
}

/// Validate a replicated store file name: same path-safe charset as a
/// campaign id (the follower joins it onto its replica directory, so
/// nothing path-like may pass).
fn validate_store_name(name: &str) -> Result<(), WireError> {
    validate_campaign_id(name).map_err(|_| WireError::Malformed("store file name is not path-safe"))
}

impl CampaignSpec {
    fn write(&self, w: &mut Writer) {
        w.u64(self.num_users);
        w.u64(self.num_objects);
        w.u64(self.num_shards);
        w.u64(self.workers);
        w.u64(self.engine_queue);
        w.u64(self.deadline_us);
        w.u64(self.submission_capacity);
        w.f64(self.per_round_epsilon);
        w.f64(self.per_round_delta);
        w.f64(self.budget_epsilon);
        w.f64(self.budget_delta);
        w.u64(self.stream_tag);
        w.u8(u8::from(self.durable));
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            num_users: r.u64()?,
            num_objects: r.u64()?,
            num_shards: r.u64()?,
            workers: r.u64()?,
            engine_queue: r.u64()?,
            deadline_us: r.u64()?,
            submission_capacity: r.u64()?,
            per_round_epsilon: r.f64()?,
            per_round_delta: r.f64()?,
            budget_epsilon: r.f64()?,
            budget_delta: r.f64()?,
            stream_tag: r.u64()?,
            durable: match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("durable flag is not 0/1")),
            },
        })
    }
}

impl MetricsReport {
    fn write(&self, w: &mut Writer) {
        w.u64(self.reports_submitted);
        w.u64(self.reports_accepted);
        w.u64(self.duplicates_discarded);
        w.u64(self.late_dropped);
        w.u64(self.out_of_order_dropped);
        w.u64(self.backpressure_stalls);
        w.u64(self.epochs_merged);
        w.u64(self.max_queue_depth);
        w.u64(self.queue_depth);
        w.f64(self.throughput_rps);
        w.u64(self.ingest_p50_ns);
        w.u64(self.ingest_p99_ns);
        w.u64(self.conn_live);
        w.u64(self.conn_accepted);
        w.u64(self.conn_refused);
        w.u64(self.io_threads);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            reports_submitted: r.u64()?,
            reports_accepted: r.u64()?,
            duplicates_discarded: r.u64()?,
            late_dropped: r.u64()?,
            out_of_order_dropped: r.u64()?,
            backpressure_stalls: r.u64()?,
            epochs_merged: r.u64()?,
            max_queue_depth: r.u64()?,
            queue_depth: r.u64()?,
            throughput_rps: r.f64()?,
            ingest_p50_ns: r.u64()?,
            ingest_p99_ns: r.u64()?,
            conn_live: r.u64()?,
            conn_accepted: r.u64()?,
            conn_refused: r.u64()?,
            io_threads: r.u64()?,
        })
    }
}

/// Metric-value tags inside a [`Response::Status`] snapshot entry.
const VALUE_TAG_COUNTER: u8 = 0;
const VALUE_TAG_GAUGE: u8 = 1;
const VALUE_TAG_HISTOGRAM: u8 = 2;

/// Minimum encoded size of one snapshot entry (name length prefix +
/// value tag, with an empty name and a counter value's u64 to follow —
/// the tag byte plus the counter payload is the smallest value).
const MIN_SNAPSHOT_ENTRY_BYTES: usize = 2 + 1 + 8;
/// Encoded size of one sparse histogram bucket (index:u32 + count:u64).
const SNAPSHOT_BUCKET_BYTES: usize = 4 + 8;

fn write_hist_snapshot(w: &mut Writer, h: &HistogramSnapshot) {
    w.u64(h.count);
    w.u64(h.total_ns);
    w.u64(h.max_ns);
    w.u32(h.buckets.len() as u32);
    for &(idx, n) in &h.buckets {
        w.u32(idx);
        w.u64(n);
    }
}

fn read_hist_snapshot(r: &mut Reader<'_>) -> Result<HistogramSnapshot, WireError> {
    let count = r.u64()?;
    let total_ns = r.u64()?;
    let max_ns = r.u64()?;
    let nbuckets = r.bounded_count(SNAPSHOT_BUCKET_BYTES)?;
    let mut buckets = Vec::with_capacity(nbuckets);
    let mut prev: Option<u32> = None;
    for _ in 0..nbuckets {
        let idx = r.u32()?;
        if idx as usize >= NUM_BUCKETS {
            return Err(WireError::Malformed("histogram bucket index out of range"));
        }
        if prev.is_some_and(|p| idx <= p) {
            return Err(WireError::Malformed(
                "histogram bucket indices not strictly increasing",
            ));
        }
        prev = Some(idx);
        buckets.push((idx, r.u64()?));
    }
    Ok(HistogramSnapshot {
        count,
        total_ns,
        max_ns,
        buckets,
    })
}

fn write_snapshot(w: &mut Writer, s: &MetricsSnapshot) {
    w.u32(s.entries.len() as u32);
    for (name, value) in &s.entries {
        w.str(name);
        match value {
            MetricValue::Counter(v) => {
                w.u8(VALUE_TAG_COUNTER);
                w.u64(*v);
            }
            MetricValue::Gauge(v) => {
                w.u8(VALUE_TAG_GAUGE);
                w.u64(*v);
            }
            MetricValue::Histogram(h) => {
                w.u8(VALUE_TAG_HISTOGRAM);
                write_hist_snapshot(w, h);
            }
        }
    }
}

fn read_snapshot(r: &mut Reader<'_>) -> Result<MetricsSnapshot, WireError> {
    let n = r.bounded_count(MIN_SNAPSHOT_ENTRY_BYTES)?;
    let mut out = MetricsSnapshot::new();
    for _ in 0..n {
        let name = r.str()?;
        let value = match r.u8()? {
            VALUE_TAG_COUNTER => MetricValue::Counter(r.u64()?),
            VALUE_TAG_GAUGE => MetricValue::Gauge(r.u64()?),
            VALUE_TAG_HISTOGRAM => MetricValue::Histogram(read_hist_snapshot(r)?),
            _ => return Err(WireError::Malformed("unknown metric value tag")),
        };
        out.set(name, value);
    }
    Ok(out)
}

impl Request {
    /// Encode as one complete frame (header + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut w;
        match self {
            Request::CreateCampaign { campaign, spec } => {
                w = Writer::new(KIND_CREATE);
                w.str(campaign);
                spec.write(&mut w);
            }
            Request::SubmitReports {
                campaign,
                reports,
                ctx,
            } => return encode_submit_reports(campaign, reports, *ctx),
            Request::CloseRound { campaign, epoch } => {
                w = Writer::new(KIND_CLOSE);
                w.str(campaign);
                w.u64(*epoch);
            }
            Request::QueryTruths { campaign } => {
                w = Writer::new(KIND_QUERY_TRUTHS);
                w.str(campaign);
            }
            Request::QueryBudget { campaign } => {
                w = Writer::new(KIND_QUERY_BUDGET);
                w.str(campaign);
            }
            Request::QueryMetrics { campaign } => {
                w = Writer::new(KIND_QUERY_METRICS);
                w.str(campaign);
            }
            Request::NodeHello { node_id, num_nodes } => {
                w = Writer::new(KIND_NODE_HELLO);
                w.u32(*node_id);
                w.u32(*num_nodes);
            }
            Request::CloseRoundPrepare {
                campaign,
                epoch,
                refused,
                ctx,
            } => {
                w = Writer::new(KIND_CLOSE_PREPARE);
                w.str(campaign);
                w.u64(*epoch);
                write_u64s(&mut w, refused);
                write_opt_ctx(&mut w, *ctx);
            }
            Request::CloseRoundCommit {
                campaign,
                epoch,
                batches_seen,
                accepted_users,
                cumulative_losses,
                rounds_debited,
                ctx,
            } => {
                w = Writer::with_payload(
                    KIND_CLOSE_COMMIT,
                    str_bytes(campaign)
                        + 8
                        + 8
                        + (4 + 8 * accepted_users.len())
                        + (4 + 8 * cumulative_losses.len())
                        + (4 + 4 * rounds_debited.len())
                        + CTX_BYTES,
                );
                w.str(campaign);
                w.u64(*epoch);
                w.u64(*batches_seen);
                write_u64s(&mut w, accepted_users);
                write_f64s(&mut w, cumulative_losses);
                write_u32s(&mut w, rounds_debited);
                write_opt_ctx(&mut w, *ctx);
            }
            Request::ReplicateSegment {
                campaign,
                seq,
                op,
                name,
                arg,
                bytes,
            } => {
                w = Writer::with_payload(
                    KIND_REPLICATE,
                    str_bytes(campaign) + 8 + 1 + str_bytes(name) + 8 + 4 + bytes.len(),
                );
                w.str(campaign);
                w.u64(*seq);
                w.u8(*op as u8);
                w.str(name);
                w.u64(*arg);
                w.u32(bytes.len() as u32);
                w.buf.extend_from_slice(bytes);
            }
            Request::QueryLedger { campaign, upto } => {
                w = Writer::new(KIND_QUERY_LEDGER);
                w.str(campaign);
                w.u64(*upto);
            }
            Request::SubmitReportsStream {
                campaign,
                seq,
                reports,
                ctx,
            } => {
                w = Writer::with_payload(
                    KIND_SUBMIT_STREAM,
                    str_bytes(campaign) + 8 + reports_bytes(reports) + CTX_BYTES,
                );
                w.str(campaign);
                w.u64(*seq);
                write_reports(&mut w, reports);
                write_opt_ctx(&mut w, *ctx);
            }
            Request::QueryStatus => {
                w = Writer::new(KIND_QUERY_STATUS);
            }
            Request::QueryTrace => {
                w = Writer::new(KIND_QUERY_TRACE);
            }
        }
        w.finish()
    }

    /// Decode a frame body (as returned by [`split_frame`]).
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownKind`] for a non-request kind,
    /// [`WireError::Malformed`] for structural violations.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader { buf: body };
        let kind = r.u8()?;
        let req = match kind {
            KIND_CREATE => Request::CreateCampaign {
                campaign: r.campaign_id()?,
                spec: CampaignSpec::read(&mut r)?,
            },
            KIND_SUBMIT => {
                let campaign = r.campaign_id()?;
                let count = r.bounded_count(MIN_REPORT_BYTES)?;
                let mut reports = Vec::with_capacity(count);
                for _ in 0..count {
                    reports.push(read_report(&mut r)?);
                }
                Request::SubmitReports {
                    campaign,
                    reports,
                    ctx: read_opt_ctx(&mut r)?,
                }
            }
            KIND_CLOSE => Request::CloseRound {
                campaign: r.campaign_id()?,
                epoch: r.u64()?,
            },
            KIND_QUERY_TRUTHS => Request::QueryTruths {
                campaign: r.campaign_id()?,
            },
            KIND_QUERY_BUDGET => Request::QueryBudget {
                campaign: r.campaign_id()?,
            },
            KIND_QUERY_METRICS => Request::QueryMetrics {
                campaign: r.campaign_id()?,
            },
            KIND_NODE_HELLO => Request::NodeHello {
                node_id: r.u32()?,
                num_nodes: r.u32()?,
            },
            KIND_CLOSE_PREPARE => Request::CloseRoundPrepare {
                campaign: r.campaign_id()?,
                epoch: r.u64()?,
                refused: read_u64s(&mut r)?,
                ctx: read_opt_ctx(&mut r)?,
            },
            KIND_CLOSE_COMMIT => Request::CloseRoundCommit {
                campaign: r.campaign_id()?,
                epoch: r.u64()?,
                batches_seen: r.u64()?,
                accepted_users: read_u64s(&mut r)?,
                cumulative_losses: read_f64s(&mut r)?,
                rounds_debited: read_u32s(&mut r)?,
                ctx: read_opt_ctx(&mut r)?,
            },
            KIND_REPLICATE => {
                let campaign = r.campaign_id()?;
                let seq = r.u64()?;
                let op = StoreOp::from_u8(r.u8()?)
                    .ok_or(WireError::Malformed("unknown store operation"))?;
                let name = r.str()?;
                validate_store_name(&name)?;
                let arg = r.u64()?;
                let n = r.bounded_count(1)?;
                let bytes = r.take(n)?.to_vec();
                Request::ReplicateSegment {
                    campaign,
                    seq,
                    op,
                    name,
                    arg,
                    bytes,
                }
            }
            KIND_QUERY_LEDGER => Request::QueryLedger {
                campaign: r.campaign_id()?,
                upto: r.u64()?,
            },
            KIND_SUBMIT_STREAM => {
                let campaign = r.campaign_id()?;
                let seq = r.u64()?;
                let count = r.bounded_count(MIN_REPORT_BYTES)?;
                let mut reports = Vec::with_capacity(count);
                for _ in 0..count {
                    reports.push(read_report(&mut r)?);
                }
                Request::SubmitReportsStream {
                    campaign,
                    seq,
                    reports,
                    ctx: read_opt_ctx(&mut r)?,
                }
            }
            KIND_QUERY_STATUS => Request::QueryStatus,
            KIND_QUERY_TRACE => Request::QueryTrace,
            other => return Err(WireError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encode as one complete frame (header + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut w;
        match self {
            Response::Created { resumed_rounds } => {
                w = Writer::new(KIND_CREATED);
                w.u64(*resumed_rounds);
            }
            Response::Submitted { queued } => {
                w = Writer::new(KIND_SUBMITTED);
                w.u64(*queued);
            }
            Response::Busy { queued, capacity } => {
                w = Writer::new(KIND_BUSY);
                w.u64(*queued);
                w.u64(*capacity);
            }
            Response::RoundClosed {
                epoch,
                accepted,
                refused,
                duplicates,
                late,
                truths,
                weights_digest,
                max_spent_epsilon,
                max_spent_delta,
            } => {
                w = Writer::new(KIND_ROUND_CLOSED);
                w.u64(*epoch);
                w.u64(*accepted);
                w.u64(*refused);
                w.u64(*duplicates);
                w.u64(*late);
                write_f64s(&mut w, truths);
                w.u64(*weights_digest);
                w.f64(*max_spent_epsilon);
                w.f64(*max_spent_delta);
            }
            Response::Truths {
                rounds_run,
                truths,
                weights_digest,
            } => {
                w = Writer::new(KIND_TRUTHS);
                w.u64(*rounds_run);
                write_f64s(&mut w, truths);
                w.u64(*weights_digest);
            }
            Response::Budget {
                exhausted,
                max_spent_epsilon,
                max_spent_delta,
                debits,
            } => {
                w = Writer::new(KIND_BUDGET);
                w.u64(*exhausted);
                w.f64(*max_spent_epsilon);
                w.f64(*max_spent_delta);
                w.u32(debits.len() as u32);
                for &d in debits {
                    w.u32(d);
                }
            }
            Response::Error { code, message } => {
                w = Writer::new(KIND_ERROR);
                w.u8(*code as u8);
                w.str(message);
            }
            Response::Metrics { metrics } => {
                w = Writer::new(KIND_METRICS);
                metrics.write(&mut w);
            }
            Response::NodeWelcome { node_id } => {
                w = Writer::new(KIND_NODE_WELCOME);
                w.u32(*node_id);
            }
            Response::Prepared {
                epoch,
                duplicates,
                late,
                refused_seen,
                claims,
            } => {
                let claim_bytes =
                    |c: &PerturbedReport| MIN_CLAIM_BYTES + VALUE_BYTES * c.values.len();
                w = Writer::with_payload(
                    KIND_PREPARED,
                    4 * 8 + 4 + claims.iter().map(claim_bytes).sum::<usize>(),
                );
                w.u64(*epoch);
                w.u64(*duplicates);
                w.u64(*late);
                w.u64(*refused_seen);
                w.u32(claims.len() as u32);
                for c in claims {
                    write_claim(&mut w, c);
                }
            }
            Response::Committed { epoch, appended } => {
                w = Writer::new(KIND_COMMITTED);
                w.u64(*epoch);
                w.u8(u8::from(*appended));
            }
            Response::Replicated { seq } => {
                w = Writer::new(KIND_REPLICATED);
                w.u64(*seq);
            }
            Response::SubmitAcked {
                contiguous,
                queued,
                refusals,
            } => {
                w = Writer::new(KIND_SUBMIT_ACKED);
                w.u64(*contiguous);
                w.u64(*queued);
                w.u32(refusals.len() as u32);
                for refusal in refusals {
                    w.u64(refusal.seq);
                    w.u8(refusal.code.map_or(0, |c| c as u8));
                }
            }
            Response::Ledger {
                next_epoch,
                batches_seen,
                rounds_debited,
                cumulative_losses,
            } => {
                w = Writer::with_payload(
                    KIND_LEDGER,
                    8 + 8 + (4 + 4 * rounds_debited.len()) + (4 + 8 * cumulative_losses.len()),
                );
                w.u64(*next_epoch);
                w.u64(*batches_seen);
                write_u32s(&mut w, rounds_debited);
                write_f64s(&mut w, cumulative_losses);
            }
            Response::Status { snapshot } => {
                w = Writer::new(KIND_STATUS);
                write_snapshot(&mut w, snapshot);
            }
            Response::TraceDump {
                anchor_ns,
                dropped,
                events,
            } => {
                w = Writer::new(KIND_TRACE_DUMP);
                w.u64(*anchor_ns);
                w.u32(dropped.len() as u32);
                for &(tid, n) in dropped {
                    w.u64(tid);
                    w.u64(n);
                }
                w.u32(events.len() as u32);
                for e in events {
                    write_trace_event(&mut w, e);
                }
            }
        }
        w.finish()
    }

    /// Decode a frame body (as returned by [`split_frame`]).
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownKind`] for a non-response kind,
    /// [`WireError::Malformed`] for structural violations.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader { buf: body };
        let kind = r.u8()?;
        let resp = match kind {
            KIND_CREATED => Response::Created {
                resumed_rounds: r.u64()?,
            },
            KIND_SUBMITTED => Response::Submitted { queued: r.u64()? },
            KIND_BUSY => Response::Busy {
                queued: r.u64()?,
                capacity: r.u64()?,
            },
            KIND_ROUND_CLOSED => Response::RoundClosed {
                epoch: r.u64()?,
                accepted: r.u64()?,
                refused: r.u64()?,
                duplicates: r.u64()?,
                late: r.u64()?,
                truths: read_f64s(&mut r)?,
                weights_digest: r.u64()?,
                max_spent_epsilon: r.f64()?,
                max_spent_delta: r.f64()?,
            },
            KIND_TRUTHS => Response::Truths {
                rounds_run: r.u64()?,
                truths: read_f64s(&mut r)?,
                weights_digest: r.u64()?,
            },
            KIND_BUDGET => {
                let exhausted = r.u64()?;
                let max_spent_epsilon = r.f64()?;
                let max_spent_delta = r.f64()?;
                let n = r.bounded_count(4)?;
                let mut debits = Vec::with_capacity(n);
                for _ in 0..n {
                    debits.push(r.u32()?);
                }
                Response::Budget {
                    exhausted,
                    max_spent_epsilon,
                    max_spent_delta,
                    debits,
                }
            }
            KIND_ERROR => Response::Error {
                code: ErrorCode::from_u8(r.u8()?)
                    .ok_or(WireError::Malformed("unknown error code"))?,
                message: r.str()?,
            },
            KIND_METRICS => Response::Metrics {
                metrics: Box::new(MetricsReport::read(&mut r)?),
            },
            KIND_NODE_WELCOME => Response::NodeWelcome { node_id: r.u32()? },
            KIND_PREPARED => {
                let epoch = r.u64()?;
                let duplicates = r.u64()?;
                let late = r.u64()?;
                let refused_seen = r.u64()?;
                let count = r.bounded_count(MIN_CLAIM_BYTES)?;
                let mut claims = Vec::with_capacity(count);
                for _ in 0..count {
                    claims.push(read_claim(&mut r)?);
                }
                Response::Prepared {
                    epoch,
                    duplicates,
                    late,
                    refused_seen,
                    claims,
                }
            }
            KIND_COMMITTED => Response::Committed {
                epoch: r.u64()?,
                appended: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("appended flag is not 0/1")),
                },
            },
            KIND_REPLICATED => Response::Replicated { seq: r.u64()? },
            KIND_SUBMIT_ACKED => {
                let contiguous = r.u64()?;
                let queued = r.u64()?;
                let n = r.bounded_count(MIN_REFUSAL_BYTES)?;
                let mut refusals = Vec::with_capacity(n);
                for _ in 0..n {
                    let seq = r.u64()?;
                    let code = match r.u8()? {
                        0 => None,
                        byte => Some(
                            ErrorCode::from_u8(byte)
                                .ok_or(WireError::Malformed("unknown refusal code"))?,
                        ),
                    };
                    refusals.push(BatchRefusal { seq, code });
                }
                Response::SubmitAcked {
                    contiguous,
                    queued,
                    refusals,
                }
            }
            KIND_LEDGER => Response::Ledger {
                next_epoch: r.u64()?,
                batches_seen: r.u64()?,
                rounds_debited: read_u32s(&mut r)?,
                cumulative_losses: read_f64s(&mut r)?,
            },
            KIND_STATUS => Response::Status {
                snapshot: read_snapshot(&mut r)?,
            },
            KIND_TRACE_DUMP => {
                let anchor_ns = r.u64()?;
                let ndropped = r.bounded_count(TRACE_DROP_BYTES)?;
                let mut dropped = Vec::with_capacity(ndropped);
                for _ in 0..ndropped {
                    dropped.push((r.u64()?, r.u64()?));
                }
                let nevents = r.bounded_count(TRACE_EVENT_BYTES)?;
                let mut events = Vec::with_capacity(nevents);
                for _ in 0..nevents {
                    events.push(read_trace_event(&mut r)?);
                }
                Response::TraceDump {
                    anchor_ns,
                    dropped,
                    events,
                }
            }
            other => return Err(WireError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            num_users: 100,
            num_objects: 4,
            num_shards: 8,
            workers: 0,
            engine_queue: 4096,
            deadline_us: 1_000_000,
            submission_capacity: 65_536,
            per_round_epsilon: 0.5,
            per_round_delta: 0.02,
            budget_epsilon: 5.0,
            budget_delta: 0.2,
            stream_tag: 0x5EED_5EED,
            durable: true,
        }
    }

    fn stamped(
        epoch: u64,
        user: usize,
        sent_at_us: u64,
        values: Vec<(usize, f64)>,
    ) -> StampedReport {
        StampedReport {
            epoch,
            sent_at_us,
            report: PerturbedReport { user, values },
        }
    }

    fn roundtrip_request(req: Request) {
        let bytes = req.encode();
        let (body, consumed) = split_frame(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(Request::decode(body).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let bytes = resp.encode();
        let (body, consumed) = split_frame(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(Response::decode(body).unwrap(), resp);
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip_request(Request::CreateCampaign {
            campaign: "air-quality_7".to_string(),
            spec: spec(),
        });
        roundtrip_request(Request::SubmitReports {
            campaign: "c".to_string(),
            reports: vec![
                stamped(3, 0, 10, vec![(0, 1.5), (2, -0.5)]),
                stamped(3, 1, 20, vec![]),
            ],
            ctx: None,
        });
        roundtrip_request(Request::SubmitReports {
            campaign: "c".to_string(),
            reports: vec![stamped(3, 0, 10, vec![(0, 1.5)])],
            ctx: Some(SpanContext {
                trace_id: 0xDEAD_BEEF_CAFE_F00D,
                span_id: 0x0123_4567_89AB_CDEF,
            }),
        });
        roundtrip_request(Request::CloseRound {
            campaign: "c".to_string(),
            epoch: 9,
        });
        roundtrip_request(Request::QueryTruths {
            campaign: "c".to_string(),
        });
        roundtrip_request(Request::QueryBudget {
            campaign: "c".to_string(),
        });

        roundtrip_response(Response::Created { resumed_rounds: 2 });
        roundtrip_response(Response::Submitted { queued: 17 });
        roundtrip_response(Response::Busy {
            queued: 64,
            capacity: 64,
        });
        roundtrip_response(Response::RoundClosed {
            epoch: 4,
            accepted: 90,
            refused: 3,
            duplicates: 2,
            late: 1,
            truths: vec![20.5, 19.75],
            weights_digest: 0xDEAD_BEEF,
            max_spent_epsilon: 2.5,
            max_spent_delta: 0.1,
        });
        roundtrip_response(Response::Truths {
            rounds_run: 4,
            truths: vec![1.0],
            weights_digest: 7,
        });
        roundtrip_response(Response::Budget {
            exhausted: 5,
            max_spent_epsilon: 5.0,
            max_spent_delta: 0.2,
            debits: vec![10, 0, 3],
        });
        roundtrip_response(Response::Error {
            code: ErrorCode::BudgetExhausted,
            message: "everyone is out of budget".to_string(),
        });
    }

    #[test]
    fn every_cluster_message_roundtrips() {
        roundtrip_request(Request::QueryMetrics {
            campaign: "c".to_string(),
        });
        roundtrip_request(Request::NodeHello {
            node_id: 2,
            num_nodes: 5,
        });
        roundtrip_request(Request::CloseRoundPrepare {
            campaign: "c".to_string(),
            epoch: 3,
            refused: vec![0, 7, 12],
            ctx: None,
        });
        roundtrip_request(Request::CloseRoundPrepare {
            campaign: "c".to_string(),
            epoch: 3,
            refused: vec![],
            ctx: Some(SpanContext {
                trace_id: 17,
                span_id: 92,
            }),
        });
        roundtrip_request(Request::CloseRoundCommit {
            campaign: "c".to_string(),
            epoch: 3,
            batches_seen: 4,
            accepted_users: vec![1, 2],
            cumulative_losses: vec![0.5, -1.25, 3.0e-300],
            rounds_debited: vec![2, 0, 1],
            ctx: None,
        });
        roundtrip_request(Request::CloseRoundCommit {
            campaign: "c".to_string(),
            epoch: 3,
            batches_seen: 4,
            accepted_users: vec![1, 2],
            cumulative_losses: vec![0.5],
            rounds_debited: vec![2],
            ctx: Some(SpanContext {
                trace_id: u64::MAX,
                span_id: 1,
            }),
        });
        roundtrip_request(Request::ReplicateSegment {
            campaign: "c".to_string(),
            seq: 42,
            op: StoreOp::Append,
            name: "segment-000.wal".to_string(),
            arg: 0,
            bytes: vec![0xde, 0xad, 0xbe, 0xef],
        });
        roundtrip_request(Request::ReplicateSegment {
            campaign: "c".to_string(),
            seq: 43,
            op: StoreOp::Truncate,
            name: "MANIFEST".to_string(),
            arg: 128,
            bytes: vec![],
        });
        roundtrip_request(Request::QueryLedger {
            campaign: "c".to_string(),
            upto: u64::MAX,
        });

        roundtrip_response(Response::Metrics {
            metrics: Box::new(MetricsReport {
                reports_submitted: 1000,
                reports_accepted: 990,
                duplicates_discarded: 7,
                late_dropped: 3,
                out_of_order_dropped: 0,
                backpressure_stalls: 2,
                epochs_merged: 5,
                max_queue_depth: 512,
                queue_depth: 17,
                throughput_rps: 12_345.5,
                ingest_p50_ns: 1_800,
                ingest_p99_ns: 95_000,
                conn_live: 3,
                conn_accepted: 40,
                conn_refused: 2,
                io_threads: 4,
            }),
        });
        roundtrip_response(Response::NodeWelcome { node_id: 2 });
        roundtrip_response(Response::Prepared {
            epoch: 3,
            duplicates: 2,
            late: 1,
            refused_seen: 1,
            claims: vec![
                PerturbedReport {
                    user: 0,
                    values: vec![(0, 1.5), (3, -0.25)],
                },
                PerturbedReport {
                    user: 4,
                    values: vec![],
                },
            ],
        });
        roundtrip_response(Response::Committed {
            epoch: 3,
            appended: true,
        });
        roundtrip_response(Response::Committed {
            epoch: 2,
            appended: false,
        });
        roundtrip_response(Response::Replicated { seq: 42 });
        roundtrip_response(Response::Ledger {
            next_epoch: 4,
            batches_seen: 4,
            rounds_debited: vec![2, 0, 1],
            cumulative_losses: vec![0.5, 0.0, -3.5],
        });
    }

    /// The bulk arms compute their body size from their element counts,
    /// so a multi-megabyte frame is allocated once: at most the optional
    /// trace context's 16 bytes go unused, and nothing is regrown.
    #[test]
    fn bulk_frames_are_sized_up_front() {
        let reports: Vec<StampedReport> = (0..100)
            .map(|u| stamped(3, u, 10, vec![(0, 1.5); u % 4]))
            .collect();
        let claims: Vec<PerturbedReport> = reports.iter().map(|r| r.report.clone()).collect();
        let ctx = Some(SpanContext {
            trace_id: 1,
            span_id: 2,
        });
        let frames = [
            Request::SubmitReports {
                campaign: "c".to_string(),
                reports: reports.clone(),
                ctx,
            }
            .encode(),
            Request::SubmitReportsStream {
                campaign: "c".to_string(),
                seq: 7,
                reports,
                ctx: None,
            }
            .encode(),
            Request::CloseRoundCommit {
                campaign: "c".to_string(),
                epoch: 3,
                batches_seen: 4,
                accepted_users: vec![1; 70],
                cumulative_losses: vec![0.5; 100],
                rounds_debited: vec![2; 100],
                ctx,
            }
            .encode(),
            Request::ReplicateSegment {
                campaign: "c".to_string(),
                seq: 42,
                op: StoreOp::Append,
                name: "segment-000.wal".to_string(),
                arg: 0,
                bytes: vec![0xab; 1000],
            }
            .encode(),
            Response::Prepared {
                epoch: 3,
                duplicates: 2,
                late: 1,
                refused_seen: 1,
                claims,
            }
            .encode(),
            Response::Ledger {
                next_epoch: 4,
                batches_seen: 4,
                rounds_debited: vec![2; 100],
                cumulative_losses: vec![0.5; 100],
            }
            .encode(),
        ];
        for frame in frames {
            let spare = frame.capacity() - frame.len();
            assert!(
                spare == 0 || spare == CTX_BYTES,
                "kind {:#04x}: {} bytes in a buffer of {}",
                frame[FRAME_HEADER_LEN],
                frame.len(),
                frame.capacity()
            );
        }
    }

    #[test]
    fn every_streaming_message_roundtrips() {
        roundtrip_request(Request::SubmitReportsStream {
            campaign: "c".to_string(),
            seq: 17,
            reports: vec![
                stamped(3, 0, 10, vec![(0, 1.5), (2, -0.5)]),
                stamped(3, 1, 20, vec![]),
            ],
            ctx: None,
        });
        roundtrip_request(Request::SubmitReportsStream {
            campaign: "c".to_string(),
            seq: 18,
            reports: vec![stamped(3, 1, 20, vec![])],
            ctx: Some(SpanContext {
                trace_id: 0xF00D,
                span_id: 0xBEEF,
            }),
        });
        roundtrip_response(Response::SubmitAcked {
            contiguous: 18,
            queued: 512,
            refusals: vec![],
        });
        roundtrip_response(Response::SubmitAcked {
            contiguous: 18,
            queued: 512,
            refusals: vec![
                BatchRefusal {
                    seq: 18,
                    code: None,
                },
                BatchRefusal {
                    seq: 19,
                    code: Some(ErrorCode::BudgetExhausted),
                },
            ],
        });
    }

    #[test]
    fn every_status_message_roundtrips() {
        roundtrip_request(Request::QueryStatus);

        roundtrip_response(Response::Status {
            snapshot: MetricsSnapshot::new(),
        });

        let mut snap = MetricsSnapshot::new();
        snap.set("server.conn.live".to_string(), MetricValue::Gauge(3));
        snap.set("server.requests".to_string(), MetricValue::Counter(512));
        snap.set(
            "campaign.air.ingest_latency".to_string(),
            MetricValue::Histogram(HistogramSnapshot {
                count: 4,
                total_ns: 10_000,
                max_ns: 4_000,
                buckets: vec![(17, 1), (42, 2), (99, 1)],
            }),
        );
        roundtrip_response(Response::Status { snapshot: snap });
    }

    #[test]
    fn status_snapshot_refuses_malformed_payloads() {
        // Unknown value tag.
        let mut w = Writer::new(KIND_STATUS);
        w.u32(1);
        w.str("m");
        w.u8(9);
        w.u64(0);
        assert_eq!(
            Response::decode(w.body()),
            Err(WireError::Malformed("unknown metric value tag"))
        );

        // Bucket index past the shared layout.
        let mut w = Writer::new(KIND_STATUS);
        w.u32(1);
        w.str("h");
        w.u8(VALUE_TAG_HISTOGRAM);
        w.u64(1);
        w.u64(10);
        w.u64(10);
        w.u32(1);
        w.u32(NUM_BUCKETS as u32);
        w.u64(1);
        assert_eq!(
            Response::decode(w.body()),
            Err(WireError::Malformed("histogram bucket index out of range"))
        );

        // Bucket indices must be strictly increasing (canonical sparse
        // form — a duplicate would double-count on merge).
        let mut w = Writer::new(KIND_STATUS);
        w.u32(1);
        w.str("h");
        w.u8(VALUE_TAG_HISTOGRAM);
        w.u64(2);
        w.u64(20);
        w.u64(10);
        w.u32(2);
        w.u32(7);
        w.u64(1);
        w.u32(7);
        w.u64(1);
        assert_eq!(
            Response::decode(w.body()),
            Err(WireError::Malformed(
                "histogram bucket indices not strictly increasing"
            ))
        );
    }

    #[test]
    fn golden_status_wire_layout_is_pinned() {
        // The status frames share the v1 framing; a change to either
        // payload is a format break (bump the HELLO version byte and
        // keep v1 decoders).
        let bytes = Request::QueryStatus.encode();
        // body := kind(0x0d)  → 1 byte
        let body = vec![0x0d];
        let golden: Vec<u8> = [
            1u32.to_le_bytes().to_vec(),
            (1u32 ^ u32::from_le_bytes(*b"NET1")).to_le_bytes().to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "QueryStatus wire layout changed");
        assert_eq!(
            u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            0xaf63_c04c_8601_bcf8,
            "QueryStatus checksum constant changed: {:#x}",
            u64::from_le_bytes(bytes[8..16].try_into().unwrap())
        );

        let mut snap = MetricsSnapshot::new();
        snap.set("c".to_string(), MetricValue::Counter(7));
        snap.set(
            "h".to_string(),
            MetricValue::Histogram(HistogramSnapshot {
                count: 1,
                total_ns: 32,
                max_ns: 32,
                buckets: vec![(80, 1)],
            }),
        );
        let bytes = Response::Status { snapshot: snap }.encode();
        // body := kind(0x8f) nentries:u32
        //         namelen:u16 "c" tag(0x00) value:u64
        //         namelen:u16 "h" tag(0x02) count:u64 total:u64 max:u64
        //         nbuckets:u32 idx:u32 bucket_count:u64
        let body: Vec<u8> = [
            vec![0x8f],
            2u32.to_le_bytes().to_vec(),
            1u16.to_le_bytes().to_vec(),
            b"c".to_vec(),
            vec![0x00],
            7u64.to_le_bytes().to_vec(),
            1u16.to_le_bytes().to_vec(),
            b"h".to_vec(),
            vec![0x02],
            1u64.to_le_bytes().to_vec(),
            32u64.to_le_bytes().to_vec(),
            32u64.to_le_bytes().to_vec(),
            1u32.to_le_bytes().to_vec(),
            80u32.to_le_bytes().to_vec(),
            1u64.to_le_bytes().to_vec(),
        ]
        .concat();
        let golden: Vec<u8> = [
            (body.len() as u32).to_le_bytes().to_vec(),
            ((body.len() as u32) ^ u32::from_le_bytes(*b"NET1"))
                .to_le_bytes()
                .to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "Status wire layout changed");
    }

    #[test]
    fn every_trace_message_roundtrips() {
        roundtrip_request(Request::QueryTrace);
        roundtrip_response(Response::TraceDump {
            anchor_ns: 0,
            dropped: vec![],
            events: vec![],
        });
        roundtrip_response(Response::TraceDump {
            anchor_ns: 1_700_000_000_000_000_000,
            dropped: vec![(1, 0), (3, 4096)],
            events: vec![
                TraceEvent {
                    tid: 1,
                    ts_ns: 1_500,
                    phase: 'B',
                    code: 1,
                    arg: 7,
                    trace_id: 0xABC,
                    span_id: 0x11,
                    parent_span: 0,
                },
                TraceEvent {
                    tid: 1,
                    ts_ns: 2_000,
                    phase: 'i',
                    code: 4,
                    arg: 128,
                    trace_id: 0xABC,
                    span_id: 0,
                    parent_span: 0x11,
                },
                TraceEvent {
                    tid: 1,
                    ts_ns: 2_250,
                    phase: 'E',
                    code: 1,
                    arg: 7,
                    trace_id: 0xABC,
                    span_id: 0x11,
                    parent_span: 0,
                },
            ],
        });
    }

    #[test]
    fn golden_trace_wire_layout_is_pinned() {
        // The trace frames share the v1 framing; a change to either
        // payload is a format break (bump the HELLO version byte and
        // keep v1 decoders).
        let bytes = Request::QueryTrace.encode();
        // body := kind(0x0e)  → 1 byte
        let body = vec![0x0e];
        let golden: Vec<u8> = [
            1u32.to_le_bytes().to_vec(),
            (1u32 ^ u32::from_le_bytes(*b"NET1")).to_le_bytes().to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "QueryTrace wire layout changed");

        let bytes = Response::TraceDump {
            anchor_ns: 99,
            dropped: vec![(2, 5)],
            events: vec![TraceEvent {
                tid: 2,
                ts_ns: 1_500,
                phase: 'B',
                code: 1,
                arg: 7,
                trace_id: 0xABC,
                span_id: 0x11,
                parent_span: 0x22,
            }],
        }
        .encode();
        // body := kind(0x90) anchor:u64 ndropped:u32 tid:u64 n:u64
        //         nevents:u32 tid:u64 ts:u64 phase:u8 code:u32 arg:u64
        //         trace:u64 span:u64 parent:u64
        let body: Vec<u8> = [
            vec![0x90],
            99u64.to_le_bytes().to_vec(),
            1u32.to_le_bytes().to_vec(),
            2u64.to_le_bytes().to_vec(),
            5u64.to_le_bytes().to_vec(),
            1u32.to_le_bytes().to_vec(),
            2u64.to_le_bytes().to_vec(),
            1_500u64.to_le_bytes().to_vec(),
            vec![b'B'],
            1u32.to_le_bytes().to_vec(),
            7u64.to_le_bytes().to_vec(),
            0xABCu64.to_le_bytes().to_vec(),
            0x11u64.to_le_bytes().to_vec(),
            0x22u64.to_le_bytes().to_vec(),
        ]
        .concat();
        let golden: Vec<u8> = [
            (body.len() as u32).to_le_bytes().to_vec(),
            ((body.len() as u32) ^ u32::from_le_bytes(*b"NET1"))
                .to_le_bytes()
                .to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "TraceDump wire layout changed");
    }

    #[test]
    fn trace_context_extension_is_all_or_nothing() {
        // The context extension is exactly 16 trailing bytes; a partial
        // one is malformed, not silently dropped.
        let good = Request::SubmitReports {
            campaign: "c".to_string(),
            reports: vec![],
            ctx: Some(SpanContext {
                trace_id: 1,
                span_id: 2,
            }),
        }
        .encode();
        let (body, _) = split_frame(&good).unwrap();
        let partial = &body[..body.len() - 8];
        assert_eq!(
            Request::decode(partial),
            Err(WireError::Malformed(
                "trace-context extension is not 16 bytes"
            ))
        );

        // And a with-context frame is exactly the without-context frame
        // plus the 16-byte tail — old decoders see old bytes when the
        // sender is untraced.
        let bare = Request::SubmitReports {
            campaign: "c".to_string(),
            reports: vec![],
            ctx: None,
        }
        .encode();
        let (bare_body, _) = split_frame(&bare).unwrap();
        assert_eq!(&body[..body.len() - CTX_BYTES], bare_body);
    }

    #[test]
    fn trace_dump_refuses_unknown_phases() {
        let mut w = Writer::new(KIND_TRACE_DUMP);
        w.u64(0);
        w.u32(0);
        w.u32(1);
        w.u64(1);
        w.u64(10);
        w.u8(b'X');
        w.u32(1);
        w.u64(0);
        w.u64(0);
        w.u64(0);
        w.u64(0);
        assert_eq!(
            Response::decode(w.body()),
            Err(WireError::Malformed("unknown trace event phase"))
        );
    }

    #[test]
    fn submit_acked_refuses_unknown_refusal_codes() {
        let mut w = Writer::new(KIND_SUBMIT_ACKED);
        w.u64(0);
        w.u64(0);
        w.u32(1);
        w.u64(5);
        w.u8(0xee);
        assert_eq!(
            Response::decode(w.body()),
            Err(WireError::Malformed("unknown refusal code"))
        );
    }

    #[test]
    fn golden_streaming_wire_layout_is_pinned() {
        // The pipelined-submit frames share the v1 framing; a change to
        // either payload is a format break (bump the HELLO version byte
        // and keep v1 decoders).
        let bytes = Request::SubmitReportsStream {
            campaign: "cafe".to_string(),
            seq: 7,
            reports: vec![stamped(3, 9, 11, vec![(1, 2.5)])],
            ctx: None,
        }
        .encode();
        // body := kind(0x0c) idlen:u16 "cafe" seq:u64 count:u32
        //         epoch:u64 sent_at:u64 user:u64 nvals:u32 obj:u32 val:f64
        let body: Vec<u8> = [
            vec![0x0c],
            4u16.to_le_bytes().to_vec(),
            b"cafe".to_vec(),
            7u64.to_le_bytes().to_vec(),
            1u32.to_le_bytes().to_vec(),
            3u64.to_le_bytes().to_vec(),
            11u64.to_le_bytes().to_vec(),
            9u64.to_le_bytes().to_vec(),
            1u32.to_le_bytes().to_vec(),
            1u32.to_le_bytes().to_vec(),
            2.5f64.to_bits().to_le_bytes().to_vec(),
        ]
        .concat();
        let golden: Vec<u8> = [
            (body.len() as u32).to_le_bytes().to_vec(),
            ((body.len() as u32) ^ u32::from_le_bytes(*b"NET1"))
                .to_le_bytes()
                .to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "SubmitReportsStream wire layout changed");
        assert_eq!(
            u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            0x99ca_6a1a_6610_8381,
            "SubmitReportsStream checksum constant changed: {:#x}",
            u64::from_le_bytes(bytes[8..16].try_into().unwrap())
        );

        let bytes = Response::SubmitAcked {
            contiguous: 8,
            queued: 96,
            refusals: vec![BatchRefusal {
                seq: 8,
                code: Some(ErrorCode::ServerBusy),
            }],
        }
        .encode();
        // body := kind(0x8e) contiguous:u64 queued:u64 nrefusals:u32
        //         seq:u64 code:u8
        let body: Vec<u8> = [
            vec![0x8e],
            8u64.to_le_bytes().to_vec(),
            96u64.to_le_bytes().to_vec(),
            1u32.to_le_bytes().to_vec(),
            8u64.to_le_bytes().to_vec(),
            vec![0x07],
        ]
        .concat();
        let golden: Vec<u8> = [
            (body.len() as u32).to_le_bytes().to_vec(),
            ((body.len() as u32) ^ u32::from_le_bytes(*b"NET1"))
                .to_le_bytes()
                .to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "SubmitAcked wire layout changed");
        assert_eq!(
            u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            0x23fa_c372_b366_8f35,
            "SubmitAcked checksum constant changed: {:#x}",
            u64::from_le_bytes(bytes[8..16].try_into().unwrap())
        );
    }

    #[test]
    fn golden_cluster_wire_layout_is_pinned() {
        // The cluster frames share the v1 framing; their payloads are
        // pinned here the same way `golden_wire_layout_is_pinned` pins
        // the original five. A change means a format break: bump the
        // HELLO version byte and keep decoders for v1.
        let bytes = Request::QueryMetrics {
            campaign: "cafe".to_string(),
        }
        .encode();
        // body := kind(0x06) idlen:u16 "cafe"  → 1+2+4 = 7
        let body: Vec<u8> = [vec![0x06], 4u16.to_le_bytes().to_vec(), b"cafe".to_vec()].concat();
        let golden: Vec<u8> = [
            7u32.to_le_bytes().to_vec(),
            (7u32 ^ u32::from_le_bytes(*b"NET1")).to_le_bytes().to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "QueryMetrics wire layout changed");
        assert_eq!(
            u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            0xf136_3cf3_dd59_6008,
            "QueryMetrics checksum constant changed"
        );

        let bytes = Request::ReplicateSegment {
            campaign: "cafe".to_string(),
            seq: 7,
            op: StoreOp::Append,
            name: "seg.0001".to_string(),
            arg: 0,
            bytes: b"abc".to_vec(),
        }
        .encode();
        // body := kind(0x0a) idlen:u16 "cafe" seq:u64 op:u8
        //         namelen:u16 "seg.0001" arg:u64 nbytes:u32 "abc"
        let body: Vec<u8> = [
            vec![0x0a],
            4u16.to_le_bytes().to_vec(),
            b"cafe".to_vec(),
            7u64.to_le_bytes().to_vec(),
            vec![0x00],
            8u16.to_le_bytes().to_vec(),
            b"seg.0001".to_vec(),
            0u64.to_le_bytes().to_vec(),
            3u32.to_le_bytes().to_vec(),
            b"abc".to_vec(),
        ]
        .concat();
        let golden: Vec<u8> = [
            (body.len() as u32).to_le_bytes().to_vec(),
            ((body.len() as u32) ^ u32::from_le_bytes(*b"NET1"))
                .to_le_bytes()
                .to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "ReplicateSegment wire layout changed");
        assert_eq!(
            u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            0x033c_15dc_4987_7e7c,
            "ReplicateSegment checksum constant changed"
        );
    }

    #[test]
    fn replicated_store_names_are_path_safe() {
        for bad in ["", "a/b", "a\\b", "..", ".hidden", "x\0y"] {
            let frame = Request::ReplicateSegment {
                campaign: "c".to_string(),
                seq: 0,
                op: StoreOp::Remove,
                name: bad.to_string(),
                arg: 0,
                bytes: vec![],
            }
            .encode();
            let (body, _) = split_frame(&frame).unwrap();
            assert!(
                matches!(Request::decode(body), Err(WireError::Malformed(_))),
                "store name {bad:?} must be refused"
            );
        }
    }

    #[test]
    fn golden_wire_layout_is_pinned() {
        // Version-1 layout, byte for byte. If this fails you have changed
        // the wire format: bump the HELLO version byte and keep decoders
        // for the old one — deployed clients must not be misread.
        assert_eq!(HELLO, *b"DPTDNET\x01");

        let bytes = Request::CloseRound {
            campaign: "cafe".to_string(),
            epoch: 7,
        }
        .encode();
        // body := kind(0x03) idlen:u16 "cafe" epoch:u64  → 1+2+4+8 = 15
        let body: Vec<u8> = [
            vec![0x03],
            4u16.to_le_bytes().to_vec(),
            b"cafe".to_vec(),
            7u64.to_le_bytes().to_vec(),
        ]
        .concat();
        let golden: Vec<u8> = [
            15u32.to_le_bytes().to_vec(),
            (15u32 ^ u32::from_le_bytes(*b"NET1"))
                .to_le_bytes()
                .to_vec(),
            checksum(&body).to_le_bytes().to_vec(),
            body,
        ]
        .concat();
        assert_eq!(bytes, golden, "wire v1 frame layout changed");
        // And the checksum itself is pinned (FNV-1a over the body).
        assert_eq!(
            u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            0xb072_23e2_7d00_7524,
            "checksum constant changed: {:#x}",
            u64::from_le_bytes(bytes[8..16].try_into().unwrap())
        );
    }

    #[test]
    fn truncated_frames_ask_for_more_bytes() {
        let bytes = Request::QueryTruths {
            campaign: "c".to_string(),
        }
        .encode();
        for cut in 0..bytes.len() {
            match split_frame(&bytes[..cut]) {
                Err(WireError::Truncated { needed, have }) => {
                    assert_eq!(have, cut);
                    assert!(needed > cut);
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_headers_and_bodies_are_typed_errors() {
        let good = Request::CloseRound {
            campaign: "c".to_string(),
            epoch: 1,
        }
        .encode();

        // Flip a length-prefix bit: self-check catches it.
        let mut bad_len = good.clone();
        bad_len[1] ^= 0x40;
        assert_eq!(split_frame(&bad_len), Err(WireError::LenCheck));

        // Flip a body bit: checksum catches it.
        let mut bad_body = good.clone();
        *bad_body.last_mut().unwrap() ^= 0x01;
        assert_eq!(split_frame(&bad_body), Err(WireError::Checksum));

        // A consistent header claiming more than the cap is TooLarge —
        // rejected before any allocation.
        let huge = (MAX_FRAME_LEN as u32) + 1;
        let mut lying = Vec::new();
        lying.extend_from_slice(&huge.to_le_bytes());
        lying.extend_from_slice(&(huge ^ LEN_XOR).to_le_bytes());
        lying.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            split_frame(&lying),
            Err(WireError::TooLarge {
                claimed: u64::from(huge)
            })
        );
    }

    #[test]
    fn claimed_counts_are_bounded_before_allocation() {
        // A submit body claiming 2^32-1 reports in a tiny payload must
        // be Malformed, not a 4-billion-element Vec::with_capacity.
        let mut w = Writer::new(KIND_SUBMIT);
        w.str("c");
        w.u32(u32::MAX);
        assert_eq!(
            Request::decode(w.body()),
            Err(WireError::Malformed(
                "claimed count larger than the payload"
            ))
        );
        // Same for a modest but still payload-exceeding claim.
        let mut w = Writer::new(KIND_SUBMIT);
        w.str("c");
        w.u32(1_000);
        assert_eq!(
            Request::decode(w.body()),
            Err(WireError::Malformed(
                "claimed count larger than the payload"
            ))
        );
    }

    #[test]
    fn campaign_ids_are_path_safe() {
        assert!(validate_campaign_id("air-quality_7.v2").is_ok());
        for bad in ["", ".hidden", "a/b", "a\\b", "a b", "ü", "x\0"] {
            assert!(
                validate_campaign_id(bad).is_err(),
                "{bad:?} must be refused"
            );
        }
        let long = "x".repeat(MAX_CAMPAIGN_ID_LEN + 1);
        assert!(validate_campaign_id(&long).is_err());
        let max = "x".repeat(MAX_CAMPAIGN_ID_LEN);
        assert!(validate_campaign_id(&max).is_ok());
    }

    #[test]
    fn unknown_kinds_and_trailing_bytes_are_refused() {
        assert_eq!(Request::decode(&[0x7f]), Err(WireError::UnknownKind(0x7f)));
        assert_eq!(Response::decode(&[0x01]), Err(WireError::UnknownKind(0x01)));
        // A valid message with trailing garbage.
        let mut w = Writer::new(KIND_CREATED);
        w.u64(0);
        w.u8(0xaa);
        assert_eq!(
            Response::decode(w.body()),
            Err(WireError::Malformed("trailing bytes after the payload"))
        );
    }
}
