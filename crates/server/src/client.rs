//! Blocking client for the campaign service.
//!
//! [`Client`] is what `dptd submit` runs, what the loopback e2e harness
//! drives, and what the `server_throughput` bench times: one TCP
//! connection, the hello exchange, then synchronous
//! request/response. Convenience wrappers return typed outcomes and
//! turn [`Response::Error`] replies into [`ServerError::Remote`].
//!
//! One loop drives several connections at once from one thread:
//! [`submit_streams`] (every submit: a window of batches per connection,
//! every ack read), the socket driver of the lane machine in `lane.rs`.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use dptd_core::roles::PerturbedReport;
use dptd_protocol::message::StampedReport;
use dptd_stats::digest::Fnv1a;

use crate::lane::{Ack, Action, Batch, Event, Lane, Lanes};
use crate::server::{complete_frame, read_frame_body, write_frame};
use crate::wire::{self, CampaignSpec, Request, Response, StoreOp};
use crate::{io_err, ServerError};
use dptd_obs::trace;
use dptd_obs::{SpanContext, TraceEvent};

/// The trace context to attach to an outgoing mutating frame: the
/// thread's ambient span when tracing is on, nothing otherwise — an
/// untraced client sends byte-identical pre-extension frames.
fn wire_ctx() -> Option<SpanContext> {
    trace::enabled().then(trace::current).flatten()
}

/// Default reports per `SubmitReports` frame for
/// [`Client::submit_chunked`].
pub const DEFAULT_SUBMIT_CHUNK: usize = 1024;

/// Ceiling on one busy-retry backoff sleep, milliseconds, **before**
/// jitter (the exponential stops doubling here). With jitter the hard
/// per-sleep ceiling is `1.5 ×` this — see [`RetryPolicy::max_delay`].
pub const MAX_BUSY_BACKOFF_MS: u64 = 2_000;

/// The exponent clamp in `busy_backoff_ms · 2^min(attempt, 6)`: kept
/// alongside [`MAX_BUSY_BACKOFF_MS`] so the doubling can never overflow
/// `u64` for any `busy_backoff_ms`, even before the millisecond cap
/// applies.
pub const MAX_BUSY_BACKOFF_EXPONENT: u32 = 6;

/// How a client treats a `Busy` submission queue: give up immediately
/// (the default, and the historical behaviour) or retry with bounded
/// exponential backoff. The backoff before retry `attempt` is
/// `busy_backoff_ms · 2^min(attempt, MAX_BUSY_BACKOFF_EXPONENT)`,
/// capped at [`MAX_BUSY_BACKOFF_MS`], plus a deterministic jitter of up
/// to half the capped base hashed from the chunk index and attempt —
/// concurrent submitters spread out without any client holding an RNG.
///
/// Every bound is explicit: one sleep never exceeds
/// [`RetryPolicy::max_delay`] (`1.5 × MAX_BUSY_BACKOFF_MS` for large
/// bases), and because a chunk retries at most `busy_retries` times,
/// the **total** time a submit can spend asleep per chunk is bounded by
/// [`RetryPolicy::max_total_sleep`] — `busy_retries ×
/// max_delay` — regardless of how the exponential and the cap interact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per chunk after a `Busy` reply (`0` = fail the submit on
    /// the first `Busy`).
    pub busy_retries: u32,
    /// Base backoff before the first retry, milliseconds.
    pub busy_backoff_ms: u64,
}

impl Default for RetryPolicy {
    /// No retries: `Busy` stays a hard [`ServerError::Busy`].
    fn default() -> Self {
        Self {
            busy_retries: 0,
            busy_backoff_ms: 25,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based) of `chunk`.
    pub(crate) fn delay(&self, chunk: usize, attempt: u32) -> Duration {
        let base = self.base_ms(attempt);
        let mut h = Fnv1a::new();
        h.write_u64(chunk as u64);
        h.write_u64(u64::from(attempt));
        Duration::from_millis(base + h.finish() % (base / 2 + 1))
    }

    /// The capped backoff before retry `attempt`, jitter aside.
    fn base_ms(&self, attempt: u32) -> u64 {
        self.busy_backoff_ms
            .saturating_mul(1u64 << attempt.min(MAX_BUSY_BACKOFF_EXPONENT))
            .min(MAX_BUSY_BACKOFF_MS)
    }

    /// The largest single backoff sleep this policy can produce: the
    /// capped base plus its worst-case (half-base) jitter.
    pub fn max_delay(&self) -> Duration {
        let base = self.base_ms(MAX_BUSY_BACKOFF_EXPONENT);
        Duration::from_millis(base + base / 2)
    }

    /// Upper bound on the total time one chunk can spend asleep before
    /// its submit either succeeds or fails with
    /// [`ServerError::Busy`]: `busy_retries × max_delay`.
    pub fn max_total_sleep(&self) -> Duration {
        self.max_delay().saturating_mul(self.busy_retries)
    }
}

/// What a successful `CloseRound` reported.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// The epoch that closed.
    pub epoch: u64,
    /// Reports aggregated.
    pub accepted: u64,
    /// Users refused on budget.
    pub refused: u64,
    /// Duplicates discarded.
    pub duplicates: u64,
    /// Late drops.
    pub late: u64,
    /// Truths for the round's objects.
    pub truths: Vec<f64>,
    /// Post-round weights digest.
    pub weights_digest: u64,
    /// Worst cumulative ε after the round.
    pub max_spent_epsilon: f64,
    /// Worst cumulative δ after the round.
    pub max_spent_delta: f64,
}

/// What `QueryTruths` returned.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthsOutcome {
    /// Rounds completed.
    pub rounds_run: u64,
    /// Truths from the last closed round.
    pub truths: Vec<f64>,
    /// Current weights digest.
    pub weights_digest: u64,
}

/// What `QueryBudget` returned.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetOutcome {
    /// Users who can afford no further round.
    pub exhausted: u64,
    /// Worst cumulative ε spent.
    pub max_spent_epsilon: f64,
    /// Worst cumulative δ spent.
    pub max_spent_delta: f64,
    /// Per-user debit counts.
    pub debits: Vec<u32>,
}

/// What a node's `CloseRoundPrepare` returned: the epoch's surviving
/// claims, one [`PerturbedReport`] per row of the claim columns they
/// crossed the wire in, plus the filter's drop counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedOutcome {
    /// The epoch that was prepared.
    pub epoch: u64,
    /// Duplicates discarded.
    pub duplicates: u64,
    /// Late drops.
    pub late: u64,
    /// Distinct refused users that submitted.
    pub refused_seen: u64,
    /// Surviving reports, ascending **node-local** user id, each one's
    /// claims in report order.
    pub claims: Vec<PerturbedReport>,
}

/// What a node's `QueryLedger` returned: the durable round ledger a
/// coordinator rebuilds global state from.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerOutcome {
    /// The next epoch the node would commit.
    pub next_epoch: u64,
    /// Estimator batches reflected in the slices.
    pub batches_seen: u64,
    /// Per-local-user debit counts.
    pub rounds_debited: Vec<u32>,
    /// Per-local-user cumulative losses.
    pub cumulative_losses: Vec<f64>,
}

/// Whether a submission batch was queued or pushed back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The batch was enqueued; the campaign now holds this many pending
    /// reports.
    Queued(u64),
    /// Backpressure: nothing was enqueued.
    Busy {
        /// Reports currently pending.
        queued: u64,
        /// The submission queue's capacity.
        capacity: u64,
    },
}

/// In-flight batch frames per connection for [`Client::submit_stream`]
/// (and the cluster coordinator's per-node streams) before the client
/// stops writing and waits for cumulative acks.
pub const DEFAULT_STREAM_WINDOW: usize = 64;

/// A blocking connection to a campaign server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// The pipelined-submit cursor: the next batch sequence number on
    /// this connection (the server's front end tracks the same number
    /// and only accepts batches in order).
    stream_seq: u64,
}

impl Client {
    /// Connect and perform the hello exchange.
    ///
    /// # Errors
    ///
    /// [`ServerError::Busy`] when the server refuses at its connection
    /// budget, [`ServerError::BadHello`] for a non-protocol peer,
    /// [`ServerError::Io`] for socket failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ServerError> {
        let mut stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        stream.set_nodelay(true).map_err(|e| io_err("connect", e))?;
        stream
            .write_all(&wire::HELLO)
            .map_err(|e| io_err("send hello", e))?;

        let mut reply = [0u8; wire::HELLO.len()];
        stream
            .read_exact(&mut reply)
            .map_err(|e| io_err("read hello", e))?;
        if reply == wire::HELLO {
            return Ok(Self {
                stream,
                stream_seq: 0,
            });
        }
        // Not the hello: an over-budget server answers the connect with
        // one error frame instead. The 8 bytes read are its header's
        // first half; complete the frame and surface it typed.
        let Ok(body) = complete_frame(&reply, &mut stream) else {
            return Err(ServerError::BadHello);
        };
        match Response::decode(&body) {
            Ok(Response::Error {
                code: wire::ErrorCode::ServerBusy,
                ..
            }) => Err(ServerError::Busy),
            Ok(Response::Error { code, message }) => Err(ServerError::Remote { code, message }),
            _ => Err(ServerError::BadHello),
        }
    }

    /// Write one request without waiting for its reply — the scatter
    /// half of a fan-out over several connections.
    ///
    /// **Invariant: at most one unanswered request per connection
    /// between fan-outs.** Every `send` must be paired with one
    /// [`Client::recv`] before the next request is written on this
    /// connection, whether or not the caller still wants the reply: an
    /// unread reply would answer the *next* request. A pipelined stream
    /// ([`submit_streams`]) keeps a window of batches unanswered, and
    /// reads every ack it is owed before it returns.
    ///
    /// # Errors
    ///
    /// Socket failures; [`wire::WireError::TooLarge`] — before a byte is
    /// written, so the connection stays frame-aligned — for a request
    /// past the frame cap the server would refuse.
    pub fn send(&mut self, request: &Request) -> Result<(), ServerError> {
        write_frame(&mut self.stream, &request.try_encode()?)
    }

    /// Read the reply to the one outstanding request.
    ///
    /// # Errors
    ///
    /// Socket and wire failures; a typed [`Response::Error`] is returned
    /// as a normal `Ok` response (the convenience wrappers convert it
    /// into [`ServerError::Remote`]).
    pub fn recv(&mut self) -> Result<Response, ServerError> {
        match read_frame_body(&mut self.stream)? {
            Some(body) => Ok(Response::decode(&body)?),
            None => Err(ServerError::Io {
                op: "read response",
                message: "connection closed before the reply".to_string(),
            }),
        }
    }

    /// Send one request and read its reply: [`Client::send`] then
    /// [`Client::recv`].
    ///
    /// # Errors
    ///
    /// As [`Client::send`] and [`Client::recv`].
    pub fn request(&mut self, request: &Request) -> Result<Response, ServerError> {
        self.send(request)?;
        self.recv()
    }

    /// [`Client::recv`] with a typed refusal surfaced as
    /// [`ServerError::Remote`].
    fn recv_ok(&mut self) -> Result<Response, ServerError> {
        match self.recv()? {
            Response::Error { code, message } => Err(ServerError::Remote { code, message }),
            other => Ok(other),
        }
    }

    fn expect(&mut self, request: &Request) -> Result<Response, ServerError> {
        self.send(request)?;
        self.recv_ok()
    }

    /// Create (or, when durable, resume) a campaign. Returns the rounds
    /// already committed in its WAL.
    ///
    /// # Errors
    ///
    /// [`ServerError::Remote`] for typed refusals, plus socket/wire
    /// failures.
    pub fn create_campaign(
        &mut self,
        campaign: &str,
        spec: CampaignSpec,
    ) -> Result<u64, ServerError> {
        match self.expect(&Request::CreateCampaign {
            campaign: campaign.to_string(),
            spec,
        })? {
            Response::Created { resumed_rounds } => Ok(resumed_rounds),
            other => Err(ServerError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Submit one batch as a single frame.
    ///
    /// # Errors
    ///
    /// As [`Client::create_campaign`]; `Busy` is an `Ok` outcome, not an
    /// error — backpressure is the caller's to handle.
    pub fn submit(
        &mut self,
        campaign: &str,
        reports: Vec<StampedReport>,
    ) -> Result<SubmitOutcome, ServerError> {
        match self.expect(&Request::SubmitReports {
            campaign: campaign.to_string(),
            reports,
            ctx: wire_ctx(),
        })? {
            Response::Submitted { queued } => Ok(SubmitOutcome::Queued(queued)),
            Response::Busy { queued, capacity } => Ok(SubmitOutcome::Busy { queued, capacity }),
            other => Err(ServerError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Submit a round's stream in frames of `chunk` reports (order
    /// preserved — what keeps a served round bit-identical to an
    /// in-process one). Returns the reports queued server-side.
    ///
    /// # Errors
    ///
    /// [`ServerError::Busy`] if any chunk hits backpressure (nothing of
    /// that chunk was enqueued), plus everything [`Client::submit`]
    /// raises.
    pub fn submit_chunked(
        &mut self,
        campaign: &str,
        reports: &[StampedReport],
        chunk: usize,
    ) -> Result<u64, ServerError> {
        self.submit_chunked_with_retry(campaign, reports, chunk, RetryPolicy::default())
    }

    /// [`Client::submit_chunked`] with an explicit [`RetryPolicy`]: a
    /// `Busy` chunk is retried up to `policy.busy_retries` times behind
    /// exponential backoff instead of failing the whole submit — the
    /// queue drains when a concurrent closer finishes the round ahead.
    /// The one-lane, window-1 case of [`submit_streams`].
    ///
    /// # Errors
    ///
    /// [`ServerError::Busy`] once a chunk exhausts its retries (nothing
    /// of that chunk was enqueued), plus everything [`Client::submit`]
    /// raises.
    pub fn submit_chunked_with_retry(
        &mut self,
        campaign: &str,
        reports: &[StampedReport],
        chunk: usize,
        policy: RetryPolicy,
    ) -> Result<u64, ServerError> {
        let mut lanes = [StreamLane {
            request_reply: true,
            ..StreamLane::new(self, reports)
        }];
        submit_streams(&mut lanes, campaign, chunk, 1, policy).map_err(|(_, e)| e)?;
        Ok(lanes[0].queued)
    }

    /// Submit a round's stream **pipelined**: batches of `chunk`
    /// reports go out as `SubmitReportsStream` frames without waiting
    /// for per-batch acks, up to [`DEFAULT_STREAM_WINDOW`] frames in
    /// flight; the server answers each with a cumulative ack (highest
    /// contiguous batch accepted, refusals as deltas). Order is
    /// preserved — the server accepts only the next in-order batch, so
    /// a pipelined round stays bit-identical to a sequential one.
    ///
    /// # Errors
    ///
    /// As [`Client::submit_stream_with_retry`] under the default
    /// (no-retry) policy: the first backpressure refusal is
    /// [`ServerError::Busy`].
    pub fn submit_stream(
        &mut self,
        campaign: &str,
        reports: &[StampedReport],
        chunk: usize,
    ) -> Result<u64, ServerError> {
        self.submit_stream_with_retry(
            campaign,
            reports,
            chunk,
            DEFAULT_STREAM_WINDOW,
            RetryPolicy::default(),
        )
    }

    /// [`Client::submit_stream`] with an explicit in-flight `window`
    /// and [`RetryPolicy`]: the one-lane case of [`submit_streams`]. A
    /// batch refused for backpressure is retried under the **same**
    /// sequence number behind the policy's backoff, once the acks of the
    /// overrun window behind it are read. Returns the reports queued
    /// server-side after the last accepted batch.
    ///
    /// # Errors
    ///
    /// [`ServerError::Busy`] once a batch exhausts its retries (that
    /// batch and everything after it was not enqueued),
    /// [`ServerError::Remote`] naming the refused batch for hard
    /// refusals, plus socket/wire failures.
    pub fn submit_stream_with_retry(
        &mut self,
        campaign: &str,
        reports: &[StampedReport],
        chunk: usize,
        window: usize,
        policy: RetryPolicy,
    ) -> Result<u64, ServerError> {
        let mut lanes = [StreamLane::new(self, reports)];
        submit_streams(&mut lanes, campaign, chunk, window, policy).map_err(|(_, e)| e)?;
        Ok(lanes[0].queued)
    }

    /// Close the campaign's current round.
    ///
    /// # Errors
    ///
    /// [`ServerError::Remote`] for typed refusals (wrong epoch, starved
    /// coverage, exhausted budgets), plus socket/wire failures.
    pub fn close_round(&mut self, campaign: &str, epoch: u64) -> Result<RoundOutcome, ServerError> {
        match self.expect(&Request::CloseRound {
            campaign: campaign.to_string(),
            epoch,
        })? {
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
            } => Ok(RoundOutcome {
                epoch,
                accepted,
                refused,
                duplicates,
                late,
                truths,
                weights_digest,
                max_spent_epsilon,
                max_spent_delta,
            }),
            other => Err(ServerError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Read the latest truths and weights digest.
    ///
    /// # Errors
    ///
    /// As [`Client::close_round`].
    pub fn query_truths(&mut self, campaign: &str) -> Result<TruthsOutcome, ServerError> {
        match self.expect(&Request::QueryTruths {
            campaign: campaign.to_string(),
        })? {
            Response::Truths {
                rounds_run,
                truths,
                weights_digest,
            } => Ok(TruthsOutcome {
                rounds_run,
                truths,
                weights_digest,
            }),
            other => Err(ServerError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Read the privacy-budget ledger.
    ///
    /// # Errors
    ///
    /// As [`Client::close_round`].
    pub fn query_budget(&mut self, campaign: &str) -> Result<BudgetOutcome, ServerError> {
        match self.expect(&Request::QueryBudget {
            campaign: campaign.to_string(),
        })? {
            Response::Budget {
                exhausted,
                max_spent_epsilon,
                max_spent_delta,
                debits,
            } => Ok(BudgetOutcome {
                exhausted,
                max_spent_epsilon,
                max_spent_delta,
                debits,
            }),
            other => Err(ServerError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Read the server's full observability snapshot (every registry
    /// metric plus per-campaign stage-busy counters and ingest
    /// histograms) — what `dptd status --connect` renders, and the one
    /// way to read a live process's numbers.
    ///
    /// # Errors
    ///
    /// As [`Client::close_round`].
    pub fn query_status(&mut self) -> Result<dptd_obs::MetricsSnapshot, ServerError> {
        match self.expect(&Request::QueryStatus)? {
            Response::Status { snapshot } => Ok(snapshot),
            other => Err(ServerError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Identify this connection as a cluster coordinator talking to
    /// node `node_id` of `num_nodes`. Returns the node's echoed id.
    ///
    /// # Errors
    ///
    /// [`ServerError::Remote`] when the peer is not a cluster node or
    /// disagrees about the geometry, plus socket/wire failures.
    pub fn node_hello(&mut self, node_id: u32, num_nodes: u32) -> Result<u32, ServerError> {
        match self.expect(&Request::NodeHello { node_id, num_nodes })? {
            Response::NodeWelcome { node_id } => Ok(node_id),
            other => Err(ServerError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Phase one of the cluster barrier: the node's filtered survivors
    /// for `epoch` so far, without committing anything. The reply's claim
    /// columns come back one [`PerturbedReport`] per row.
    ///
    /// # Errors
    ///
    /// As [`Client::close_round`].
    pub fn close_round_prepare(
        &mut self,
        campaign: &str,
        epoch: u64,
        refused: Vec<u64>,
    ) -> Result<PreparedOutcome, ServerError> {
        match self.expect(&Request::CloseRoundPrepare {
            campaign: campaign.to_string(),
            epoch,
            refused,
            ctx: wire_ctx(),
        })? {
            Response::Prepared {
                epoch,
                duplicates,
                late,
                refused_seen,
                claims,
            } => Ok(PreparedOutcome {
                epoch,
                duplicates,
                late,
                refused_seen,
                claims: (0..claims.len())
                    .map(|row| {
                        let (user, objects, values) = claims.row(row);
                        let values = objects.iter().copied().zip(values.iter().copied());
                        PerturbedReport {
                            user,
                            values: values.collect(),
                        }
                    })
                    .collect(),
            }),
            other => Err(ServerError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Phase two of the cluster barrier: durably commit the node's
    /// slice of the merged round. Returns whether a record was appended
    /// (`false` = idempotent re-commit of the node's latest epoch).
    ///
    /// # Errors
    ///
    /// As [`Client::close_round`].
    pub fn close_round_commit(
        &mut self,
        campaign: &str,
        epoch: u64,
        batches_seen: u64,
        accepted_users: Vec<u64>,
        cumulative_losses: Vec<f64>,
        rounds_debited: Vec<u32>,
    ) -> Result<bool, ServerError> {
        match self.expect(&Request::CloseRoundCommit {
            campaign: campaign.to_string(),
            epoch,
            batches_seen,
            accepted_users,
            cumulative_losses,
            rounds_debited,
            ctx: wire_ctx(),
        })? {
            Response::Committed { appended, .. } => Ok(appended),
            other => Err(ServerError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Stream one committed store operation to a follower and wait for
    /// its ack.
    ///
    /// # Errors
    ///
    /// As [`Client::close_round`], plus [`ServerError::UnexpectedResponse`]
    /// when the follower acks a different sequence number.
    pub fn replicate(
        &mut self,
        campaign: &str,
        seq: u64,
        op: StoreOp,
        name: &str,
        arg: u64,
        bytes: Vec<u8>,
    ) -> Result<(), ServerError> {
        match self.expect(&Request::ReplicateSegment {
            campaign: campaign.to_string(),
            seq,
            op,
            name: name.to_string(),
            arg,
            bytes,
        })? {
            Response::Replicated { seq: acked } if acked == seq => Ok(()),
            other => Err(ServerError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Read a node's durable round ledger as of epoch `upto`
    /// (`u64::MAX` = latest).
    ///
    /// # Errors
    ///
    /// As [`Client::close_round`].
    pub fn query_ledger(
        &mut self,
        campaign: &str,
        upto: u64,
    ) -> Result<LedgerOutcome, ServerError> {
        match self.expect(&Request::QueryLedger {
            campaign: campaign.to_string(),
            upto,
        })? {
            Response::Ledger {
                next_epoch,
                batches_seen,
                rounds_debited,
                cumulative_losses,
            } => Ok(LedgerOutcome {
                next_epoch,
                batches_seen,
                rounds_debited,
                cumulative_losses,
            }),
            other => Err(ServerError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Fetch the peer process's retained trace rings: its wall-clock
    /// anchor, per-ring truncation counts, and every retained event —
    /// what `dptd cluster trace` merges into one timeline.
    ///
    /// # Errors
    ///
    /// As [`Client::close_round`].
    pub fn query_trace(&mut self) -> Result<TraceOutcome, ServerError> {
        match self.expect(&Request::QueryTrace)? {
            Response::TraceDump {
                anchor_ns,
                dropped,
                events,
            } => Ok(TraceOutcome {
                anchor_ns,
                dropped,
                events,
            }),
            other => Err(ServerError::UnexpectedResponse(Box::new(other))),
        }
    }
}

/// One connection's share of a [`submit_streams`] call: the connection
/// and the rows it must deliver in order.
#[derive(Debug)]
pub struct StreamLane<'a> {
    client: &'a mut Client,
    reports: &'a [StampedReport],
    /// `(index into reports, user on the wire)` in send order; `None`
    /// sends `reports` in order, each under its own user.
    rows: Option<&'a [(usize, usize)]>,
    /// Sends `SubmitReports` frames one at a time instead of a stream.
    request_reply: bool,
    /// Reports pending server-side after this lane's last accepted
    /// batch (`0` until one is).
    pub queued: u64,
}

impl<'a> StreamLane<'a> {
    /// A lane that delivers `reports`, in order and each under its own
    /// user, over `client`.
    pub fn new(client: &'a mut Client, reports: &'a [StampedReport]) -> Self {
        Self {
            client,
            reports,
            rows: None,
            request_reply: false,
            queued: 0,
        }
    }

    /// A lane that delivers `reports[index]` under `user` for every
    /// `(index, user)` of `rows`, in `rows` order — a partition of the
    /// caller's slice, sent without copying a report.
    ///
    /// # Panics
    ///
    /// When sending a row whose index is outside `reports`.
    pub fn remapped(
        client: &'a mut Client,
        reports: &'a [StampedReport],
        rows: &'a [(usize, usize)],
    ) -> Self {
        Self {
            rows: Some(rows),
            ..Self::new(client, reports)
        }
    }

    /// Rows to deliver.
    fn len(&self) -> usize {
        self.rows.map_or(self.reports.len(), <[_]>::len)
    }

    /// Row `pos`: its index into `reports`, and the user it goes out as.
    fn row(&self, pos: usize) -> (usize, usize) {
        self.rows
            .map_or((pos, self.reports[pos].report.user), |rows| rows[pos])
    }

    /// Batch `batch`'s rows.
    fn span(&self, batch: Batch, chunk: usize) -> std::ops::Range<usize> {
        let start = (batch.index * chunk).min(self.len());
        start..self.len().min(start + chunk)
    }

    /// Write `batch`, in a stream frame when it has a sequence number. A
    /// batch past the frame cap is refused here, unsent.
    fn send(&mut self, campaign: &str, chunk: usize, batch: Batch) -> Result<(), ServerError> {
        let rows = self.span(batch, chunk).map(|pos| self.row(pos));
        let rows = rows.map(|(i, user)| (&self.reports[i], user));
        let frame = wire::encode_submit(campaign, batch.seq, rows, wire_ctx())?;
        write_frame(&mut self.client.stream, &frame)
    }

    /// Read the answer to `batch`. A streamed hard refusal is named by
    /// its batch; a request/reply refusal keeps the server's words.
    fn recv(&mut self, chunk: usize, batch: Batch) -> Result<Ack, ServerError> {
        let (code, message) = match (batch.seq, self.client.recv()?) {
            (None, Response::Submitted { queued }) => return Ok(Ack::Accepted(queued)),
            (None, Response::Busy { .. }) => return Ok(Ack::Retryable),
            (_, Response::Error { code, message }) => (code, message),
            (
                Some(seq),
                Response::SubmitAcked {
                    queued, refusals, ..
                },
            ) => {
                let Some(refusal) = refusals.first() else {
                    return Ok(Ack::Accepted(queued));
                };
                let Some(code) = refusal.code else {
                    return Ok(Ack::Retryable);
                };
                // Where the batch's first and last reports sit in the
                // caller's slice (a batch on the wire is never empty).
                let span = self.span(batch, chunk);
                let (first, last) = (self.row(span.start).0, self.row(span.end - 1).0);
                let n = span.len();
                let message = format!(
                    "streamed batch seq {seq} ({n} reports, slice indices {first}..={last}) \
                     refused: {code}"
                );
                (code, message)
            }
            (_, other) => return Err(ServerError::UnexpectedResponse(Box::new(other))),
        };
        Ok(Ack::Refused(ServerError::Remote { code, message }))
    }
}

/// Deliver every lane's rows in batches of `chunk` reports from one
/// thread, as the lane machine (`lane.rs`) decides every write, read and
/// backoff: up to `window` `SubmitReportsStream` frames in flight per
/// streamed lane, so every peer decodes and queues while the others do,
/// and one `SubmitReports` frame at a time on a request/reply lane. Each
/// connection ends frame-aligned with its `stream_seq` realigned, even
/// after an error. Writes block only while a peer's socket buffer is
/// full, and a peer keeps reading while its acks go unread, so this
/// cannot deadlock.
///
/// # Errors
///
/// The first error in lane order, with that lane's index:
/// [`ServerError::Busy`] once a batch exhausts its retries,
/// [`ServerError::Remote`] naming the batch for a hard refusal, plus
/// socket/wire failures.
pub fn submit_streams(
    lanes: &mut [StreamLane<'_>],
    campaign: &str,
    chunk: usize,
    window: usize,
    policy: RetryPolicy,
) -> Result<(), (usize, ServerError)> {
    let chunk = chunk.max(1);
    let machines = lanes.iter().map(|lane| {
        let base = (!lane.request_reply).then_some(lane.client.stream_seq);
        Lane::new(lane.len().div_ceil(chunk), window, base)
    });
    let mut machine = Lanes::new(machines.collect(), policy);
    let start = Instant::now();
    let mut event = Event::Tick;
    let result = loop {
        event = match machine.step(event, start.elapsed()) {
            Action::Send(b) => Event::Written(b.lane, lanes[b.lane].send(campaign, chunk, b)),
            Action::Await(b) => Event::Acked(b.lane, lanes[b.lane].recv(chunk, b)),
            Action::SleepUntil(at) => {
                std::thread::sleep(at.saturating_sub(start.elapsed()));
                Event::Tick
            }
            Action::Done => break Ok(()),
            Action::Fail(lane, e) => break Err((lane, e)),
        };
    };
    for (i, lane) in lanes.iter_mut().enumerate() {
        lane.queued = machine.queued(i);
        if let Some(seq) = machine.stream_seq(i) {
            lane.client.stream_seq = seq;
        }
    }
    result
}

/// What [`Client::query_trace`] returns: one process's retained rings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOutcome {
    /// Wall-clock nanoseconds at the peer's trace epoch.
    pub anchor_ns: u64,
    /// `(tid, events_overwritten)` for every ring that wrapped.
    pub dropped: Vec<(u64, u64)>,
    /// The retained events, oldest-first per ring.
    pub events: Vec<TraceEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;
    use crate::server::{Server, ServerConfig};
    use dptd_core::roles::PerturbedReport;

    fn spec(users: u64, capacity: u64) -> CampaignSpec {
        CampaignSpec {
            num_users: users,
            num_objects: 1,
            num_shards: 2,
            workers: 0,
            engine_queue: 1024,
            deadline_us: 1_000,
            submission_capacity: capacity,
            per_round_epsilon: 0.5,
            per_round_delta: 0.0,
            budget_epsilon: 5.0,
            budget_delta: 0.0,
            stream_tag: 0,
            durable: false,
        }
    }

    fn stamped(epoch: u64, user: usize, sent_at_us: u64, v: f64) -> StampedReport {
        StampedReport {
            epoch,
            sent_at_us,
            report: PerturbedReport {
                user,
                values: vec![(0, v)],
            },
        }
    }

    fn start() -> Server {
        Server::start(ServerConfig {
            registry: RegistryConfig::default(),
            ..ServerConfig::default()
        })
        .expect("server starts on loopback")
    }

    #[test]
    fn loopback_round_trip_through_real_sockets() {
        let server = start();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.create_campaign("c", spec(2, 64)).unwrap(), 0);
        let queued = client
            .submit_chunked("c", &[stamped(0, 0, 1, 1.0), stamped(0, 1, 2, 2.0)], 1)
            .unwrap();
        assert_eq!(queued, 2);
        let round = client.close_round("c", 0).unwrap();
        assert_eq!(round.accepted, 2);
        assert_eq!(round.truths.len(), 1);
        let budget = client.query_budget("c").unwrap();
        assert_eq!(budget.debits, vec![1, 1]);
        let truths = client.query_truths("c").unwrap();
        assert_eq!(truths.rounds_run, 1);
        assert_eq!(truths.weights_digest, round.weights_digest);
        let stats = server.shutdown();
        assert_eq!(stats.rounds_closed, 1);
        assert_eq!(stats.reports_submitted, 2);
    }

    #[test]
    fn busy_retry_completes_once_a_closer_drains_the_queue() {
        let server = start();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        // 4 users, queue capacity 4 (pending + lookahead combined).
        client.create_campaign("c", spec(4, 4)).unwrap();
        // Round 0 fills half the queue, the round-1 lookahead the rest.
        client
            .submit("c", vec![stamped(0, 0, 1, 1.0), stamped(0, 1, 2, 2.0)])
            .unwrap();
        client
            .submit("c", vec![stamped(1, 0, 1, 1.5), stamped(1, 1, 2, 2.5)])
            .unwrap();
        // Saturated: without retries the next chunk is a hard Busy.
        let err = client
            .submit_chunked("c", &[stamped(1, 2, 3, 3.0), stamped(1, 3, 4, 4.0)], 2)
            .unwrap_err();
        assert!(matches!(err, ServerError::Busy), "{err:?}");
        // With retries it completes once a concurrent closer finishes
        // round 0, promoting the lookahead and freeing capacity.
        let closer = std::thread::spawn(move || {
            let mut closer = Client::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(60));
            closer.close_round("c", 0).unwrap()
        });
        let queued = client
            .submit_chunked_with_retry(
                "c",
                &[stamped(1, 2, 3, 3.0), stamped(1, 3, 4, 4.0)],
                2,
                RetryPolicy {
                    busy_retries: 100,
                    busy_backoff_ms: 5,
                },
            )
            .unwrap();
        assert_eq!(queued, 4);
        let round0 = closer.join().unwrap();
        assert_eq!(round0.accepted, 2);
        let round1 = client.close_round("c", 1).unwrap();
        assert_eq!(round1.accepted, 4);
        server.shutdown();
    }

    #[test]
    fn retry_backoff_is_bounded_and_deterministic() {
        let policy = RetryPolicy {
            busy_retries: 10,
            busy_backoff_ms: 25,
        };
        // Deterministic: the same (chunk, attempt) always sleeps the
        // same time; bounded: never past the explicit per-sleep cap.
        for attempt in 0..32 {
            let d = policy.delay(3, attempt);
            assert_eq!(d, policy.delay(3, attempt));
            assert!(d <= policy.max_delay(), "attempt {attempt}: {d:?}");
        }
        // The base doubles early on (jitter aside, attempt 6 dominates
        // attempt 0's worst case).
        assert!(policy.delay(0, 6) > policy.delay(0, 0));

        // The full schedule for chunk 3 is pinned, milliseconds: base
        // 25·2^min(attempt,6) capped at MAX_BUSY_BACKOFF_MS, plus the
        // FNV-hashed jitter. A change here changes how every deployed
        // retrying client behaves under sustained backpressure.
        let schedule: Vec<u64> = (0..10)
            .map(|a| policy.delay(3, a).as_millis() as u64)
            .collect();
        assert_eq!(
            schedule,
            vec![36, 59, 132, 256, 415, 1026, 2201, 1665, 2106, 2371],
            "busy-backoff schedule changed"
        );
        // Every entry respects the explicit cap, and the exponent clamp
        // means attempts past 6 stop growing (only jitter varies).
        let cap = policy.max_delay().as_millis() as u64;
        // 25ms · 2^6 = 1600ms stays under MAX_BUSY_BACKOFF_MS, so this
        // policy's cap is exponent-limited: 1600 + 800 jitter. No
        // policy can ever exceed the absolute 2000 + 1000 ceiling.
        assert_eq!(cap, 2_400);
        assert!(cap <= MAX_BUSY_BACKOFF_MS + MAX_BUSY_BACKOFF_MS / 2);
        assert!(schedule.iter().all(|&ms| ms <= cap), "{schedule:?}");
        // And the total sleep a chunk can accumulate is the documented
        // product, which `busy_retries` makes finite.
        assert_eq!(
            policy.max_total_sleep(),
            policy.max_delay() * policy.busy_retries
        );
        assert_eq!(
            RetryPolicy::default().max_total_sleep(),
            Duration::ZERO,
            "the no-retry default never sleeps"
        );
    }

    #[test]
    fn pipelined_submit_matches_sequential_results() {
        let server = start();
        let mut piped = Client::connect(server.local_addr()).unwrap();
        piped.create_campaign("piped", spec(8, 1024)).unwrap();
        let reports: Vec<StampedReport> = (0..8)
            .map(|u| stamped(0, u, u as u64 + 1, u as f64))
            .collect();
        // 8 reports in 2-report batches, window 2: real pipelining on a
        // tiny stream.
        let queued = piped
            .submit_stream_with_retry("piped", &reports, 2, 2, RetryPolicy::default())
            .unwrap();
        assert_eq!(queued, 8);
        let piped_round = piped.close_round("piped", 0).unwrap();

        let mut seq = Client::connect(server.local_addr()).unwrap();
        seq.create_campaign("seq", spec(8, 1024)).unwrap();
        seq.submit_chunked("seq", &reports, 2).unwrap();
        let seq_round = seq.close_round("seq", 0).unwrap();

        assert_eq!(
            piped_round.weights_digest, seq_round.weights_digest,
            "pipelined and sequential submits must aggregate bit-identically"
        );
        assert_eq!(piped_round.accepted, seq_round.accepted);

        // The stream cursor survives across rounds on one connection:
        // a second pipelined round keeps working.
        let reports1: Vec<StampedReport> =
            (0..8).map(|u| stamped(1, u, 60 + u as u64, 1.0)).collect();
        assert_eq!(piped.submit_stream("piped", &reports1, 3).unwrap(), 8);
        piped.close_round("piped", 1).unwrap();
        server.shutdown();
    }

    #[test]
    fn pipelined_submit_retries_backpressure_under_the_same_seq() {
        let server = start();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        // Capacity 4 (pending + lookahead): round 0 fills it, so the
        // stream's later batches are refused until a closer drains.
        client.create_campaign("c", spec(4, 4)).unwrap();
        let reports: Vec<StampedReport> = (0..4)
            .map(|u| stamped(0, u, u as u64 + 1, u as f64))
            .chain((0..4).map(|u| stamped(1, u, 10 + u as u64, 1.0)))
            .collect();
        // Without retries: a hard Busy once the window overruns.
        let err = client
            .submit_stream_with_retry("c", &reports, 2, 4, RetryPolicy::default())
            .unwrap_err();
        assert!(matches!(err, ServerError::Busy), "{err:?}");
        let closer = std::thread::spawn(move || {
            let mut closer = Client::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(60));
            closer.close_round("c", 0).unwrap()
        });
        // With retries: the refused batch is re-sent under its original
        // sequence number once round 0's close frees the queue, and the
        // stream completes. (The server accepts in order, so everything
        // already accepted is never resent.)
        let queued = client
            .submit_stream_with_retry(
                "c",
                &reports[4..],
                2,
                4,
                RetryPolicy {
                    busy_retries: 100,
                    busy_backoff_ms: 5,
                },
            )
            .unwrap();
        assert_eq!(queued, 4);
        assert_eq!(closer.join().unwrap().accepted, 4);
        assert_eq!(client.close_round("c", 1).unwrap().accepted, 4);
        server.shutdown();
    }

    #[test]
    fn pipelined_hard_refusals_surface_typed_and_leave_the_connection_usable() {
        let server = start();
        let mut client = Client::connect(server.local_addr()).unwrap();
        // No such campaign: the first batch's refusal carries the code.
        let err = client
            .submit_stream("ghost", &[stamped(0, 0, 1, 1.0)], 1)
            .unwrap_err();
        match err {
            ServerError::Remote { code, .. } => {
                assert_eq!(code, crate::wire::ErrorCode::UnknownCampaign)
            }
            other => panic!("expected Remote, got {other:?}"),
        }
        // The connection is still frame-aligned for ordinary requests
        // and for a fresh stream.
        client.create_campaign("real", spec(2, 64)).unwrap();
        assert_eq!(
            client
                .submit_stream("real", &[stamped(0, 0, 1, 1.0), stamped(0, 1, 2, 2.0)], 1)
                .unwrap(),
            2
        );
        assert_eq!(client.close_round("real", 0).unwrap().accepted, 2);
        server.shutdown();
    }

    /// A hard refusal names the batch: its sequence number, where its
    /// reports sit in the submitted slice, and the refusal's code.
    #[test]
    fn a_refused_streamed_batch_is_named() {
        let server = start();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.create_campaign("c", spec(4, 64)).unwrap();
        let mut reports: Vec<StampedReport> =
            (0..4).map(|u| stamped(0, u, u as u64 + 1, 1.0)).collect();
        // Object 7 of a one-object campaign: a malformed claim, refused
        // at submit.
        reports[3].report.values = vec![(7, 1.0)];
        match client.submit_stream_with_retry("c", &reports, 2, 4, RetryPolicy::default()) {
            Err(ServerError::Remote { code, message }) => {
                assert_eq!(code, crate::wire::ErrorCode::InvalidRequest);
                assert_eq!(
                    message,
                    "streamed batch seq 1 (2 reports, slice indices 2..=3) \
                     refused: invalid-request"
                );
            }
            other => panic!("expected a named refusal, got {other:?}"),
        }
        // Batch 0 was taken and the cursor is back in step with the
        // server's: the repaired rest of the stream goes through.
        reports[3].report.values = vec![(0, 1.0)];
        assert_eq!(client.submit_stream("c", &reports[2..], 2).unwrap(), 4);
        assert_eq!(client.close_round("c", 0).unwrap().accepted, 4);
        server.shutdown();
    }

    #[test]
    fn typed_refusals_reach_the_client() {
        let server = start();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let err = client.close_round("ghost", 0).unwrap_err();
        match err {
            ServerError::Remote { code, .. } => {
                assert_eq!(code, crate::wire::ErrorCode::UnknownCampaign)
            }
            other => panic!("expected Remote, got {other:?}"),
        }
    }

    #[test]
    fn connection_budget_refuses_with_server_busy() {
        let server = Server::start(ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let held = Client::connect(server.local_addr()).unwrap();
        // Second connection: over budget. The refusal can race the
        // acceptor's reaping, so allow a few tries.
        let mut refused = false;
        for _ in 0..10 {
            match Client::connect(server.local_addr()) {
                Err(ServerError::Busy) => {
                    refused = true;
                    break;
                }
                Err(other) => panic!("expected Busy, got {other:?}"),
                Ok(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        assert!(
            refused,
            "a held connection must trip the 1-connection budget"
        );
        drop(held);
    }
}
