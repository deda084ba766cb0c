//! Blocking client for the campaign service.
//!
//! [`Client`] is what `dptd submit` runs, what the loopback e2e harness
//! drives, and what the `server_throughput` bench times: one TCP
//! connection, the v1 hello exchange, then synchronous
//! request/response. Convenience wrappers return typed outcomes and
//! turn [`Response::Error`] replies into [`ServerError::Remote`].

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use dptd_core::roles::PerturbedReport;
use dptd_protocol::message::StampedReport;
use dptd_stats::digest::Fnv1a;

use crate::server::{complete_frame, read_frame_body, write_frame};
use crate::wire::{self, CampaignSpec, MetricsReport, Request, Response, StoreOp};
use crate::{io_err, ServerError};
use dptd_obs::trace;
use dptd_obs::{SpanContext, TraceEvent};

/// The trace context to attach to an outgoing mutating frame: the
/// thread's ambient span when tracing is on, nothing otherwise — an
/// untraced client sends byte-identical v1 frames.
fn wire_ctx() -> Option<SpanContext> {
    if trace::enabled() {
        trace::current()
    } else {
        None
    }
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
    fn delay(&self, chunk: usize, attempt: u32) -> Duration {
        let base = self
            .busy_backoff_ms
            .saturating_mul(1u64 << attempt.min(MAX_BUSY_BACKOFF_EXPONENT))
            .min(MAX_BUSY_BACKOFF_MS);
        let mut h = Fnv1a::new();
        for b in (chunk as u64).to_le_bytes() {
            h.write_u8(b);
        }
        for b in u64::from(attempt).to_le_bytes() {
            h.write_u8(b);
        }
        let jitter = if base == 0 {
            0
        } else {
            h.finish() % (base / 2 + 1)
        };
        Duration::from_millis(base + jitter)
    }

    /// The largest single backoff sleep this policy can produce: the
    /// capped base plus its worst-case (half-base) jitter.
    pub fn max_delay(&self) -> Duration {
        let base = self
            .busy_backoff_ms
            .saturating_mul(1u64 << MAX_BUSY_BACKOFF_EXPONENT)
            .min(MAX_BUSY_BACKOFF_MS);
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
/// claims plus the filter's drop counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedOutcome {
    /// The epoch that was drained.
    pub epoch: u64,
    /// Duplicates discarded.
    pub duplicates: u64,
    /// Late drops.
    pub late: u64,
    /// Distinct refused users that submitted.
    pub refused_seen: u64,
    /// Surviving reports, ascending **node-local** user id.
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

/// In-flight batch frames for [`Client::submit_stream`] before the
/// client stops writing and waits for cumulative acks.
pub const DEFAULT_STREAM_WINDOW: usize = 64;

/// One decoded cumulative ack from a pipelined submit.
struct StreamAck {
    contiguous: u64,
    queued: u64,
    refusals: Vec<wire::BatchRefusal>,
}

/// On any exit from a pipelined submit, re-align the client's stream
/// cursor with the server's (`base + accepted`): a later stream on the
/// same connection then starts in sync even after an error.
fn break_stream(seq: &mut u64, base: u64, accepted: usize) {
    *seq = base + accepted as u64;
}

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
    /// **Invariant: at most one unanswered request per connection.**
    /// Every `send` (and every typed `send_*` below) must be paired
    /// with one [`Client::recv`] (or the matching `recv_*`) before the
    /// next request is written on this connection, whether or not the
    /// caller still wants the reply: an unread reply would answer the
    /// *next* request.
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
    /// as a normal `Ok` response (the typed `recv_*` readers and the
    /// convenience wrappers convert it into [`ServerError::Remote`]).
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
        self.send_submit(campaign, &reports)?;
        self.recv_submit()
    }

    /// The write half of [`Client::submit`], encoding straight from the
    /// borrowed batch.
    ///
    /// # Errors
    ///
    /// As [`Client::send`].
    pub fn send_submit(
        &mut self,
        campaign: &str,
        reports: &[StampedReport],
    ) -> Result<(), ServerError> {
        let frame = wire::encode_submit(campaign, None, reports, wire_ctx())?;
        write_frame(&mut self.stream, &frame)
    }

    /// The read half of [`Client::submit`].
    ///
    /// # Errors
    ///
    /// As [`Client::submit`].
    pub fn recv_submit(&mut self) -> Result<SubmitOutcome, ServerError> {
        match self.recv_ok()? {
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
        let mut lanes = [SubmitLane::new(self, reports)];
        submit_waves(&mut lanes, campaign, chunk, policy)?;
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
    /// and [`RetryPolicy`]. A batch refused for backpressure is retried
    /// under the **same** sequence number behind the policy's backoff:
    /// the client drains the outstanding acks of the overrun window
    /// (they are out-of-order refusals, also retryable), sleeps, and
    /// rewinds its send cursor to the refused batch. Returns the
    /// reports queued server-side after the last accepted batch.
    ///
    /// # Errors
    ///
    /// [`ServerError::Busy`] once a batch exhausts its retries (that
    /// batch and everything after it was not enqueued),
    /// [`ServerError::Remote`] for hard refusals, plus socket/wire
    /// failures.
    pub fn submit_stream_with_retry(
        &mut self,
        campaign: &str,
        reports: &[StampedReport],
        chunk: usize,
        window: usize,
        policy: RetryPolicy,
    ) -> Result<u64, ServerError> {
        let chunk = chunk.max(1);
        let window = window.max(1);
        let batches: Vec<&[StampedReport]> = reports.chunks(chunk).collect();
        let total = batches.len();
        if total == 0 {
            return Ok(0);
        }
        let base = self.stream_seq;
        let mut attempts = vec![0u32; total];
        // Batch indices with a frame on the wire, in send order.
        let mut inflight: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut cursor = 0usize; // next batch to send (rewound on refusal)
        let mut accepted = 0usize; // contiguously accepted batches
        let mut queued = 0u64;
        let mut over_cap: Option<wire::WireError> = None;

        let result = loop {
            // Top up the window. Writing can block briefly once the
            // socket buffer is full, but the server is draining our
            // frames and its acks are tiny, so this cannot deadlock.
            while cursor < total && inflight.len() < window && over_cap.is_none() {
                let seq = base + cursor as u64;
                match wire::encode_submit(campaign, Some(seq), batches[cursor], wire_ctx()) {
                    Ok(frame) => {
                        if let Err(e) = write_frame(&mut self.stream, &frame) {
                            break_stream(&mut self.stream_seq, base, accepted);
                            return Err(e);
                        }
                        inflight.push_back(cursor);
                        cursor += 1;
                    }
                    // A batch past the frame cap is refused here, unsent:
                    // stop topping up, read the acks still owed so the
                    // connection stays frame-aligned, then surface it.
                    Err(e) => over_cap = Some(e),
                }
            }
            let Some(_idx) = inflight.pop_front() else {
                // Everything sent was acked.
                break over_cap.take().map_or(Ok(queued), |e| Err(e.into()));
            };
            let ack = match self.read_stream_ack() {
                Ok(ack) => ack,
                Err(e) => {
                    break_stream(&mut self.stream_seq, base, accepted);
                    return Err(e);
                }
            };
            accepted = (ack.contiguous.saturating_sub(base)) as usize;
            match ack.refusals.first() {
                None => queued = ack.queued,
                Some(&wire::BatchRefusal { code: None, .. }) => {
                    // Retryable: backpressure on the in-order batch, or
                    // a window continuation behind it. Drain the rest
                    // of the overrun window (all retryable refusals
                    // too), then back off and rewind.
                    while inflight.pop_front().is_some() {
                        match self.read_stream_ack() {
                            Ok(later) => {
                                accepted = (later.contiguous.saturating_sub(base)) as usize;
                                if let Some(&wire::BatchRefusal {
                                    code: Some(code), ..
                                }) = later.refusals.first()
                                {
                                    break_stream(&mut self.stream_seq, base, accepted);
                                    return Err(ServerError::Remote {
                                        code,
                                        message: "streamed batch refused".to_string(),
                                    });
                                }
                            }
                            Err(e) => {
                                break_stream(&mut self.stream_seq, base, accepted);
                                return Err(e);
                            }
                        }
                    }
                    // The earliest unaccepted batch is the one to retry,
                    // under its original sequence number.
                    let retry = accepted;
                    if retry >= total {
                        break Ok(queued); // refusal raced an accept
                    }
                    if attempts[retry] >= policy.busy_retries {
                        break Err(ServerError::Busy);
                    }
                    std::thread::sleep(policy.delay(retry, attempts[retry]));
                    attempts[retry] += 1;
                    cursor = retry;
                }
                Some(&wire::BatchRefusal {
                    code: Some(code), ..
                }) => {
                    // Hard refusal: drain outstanding acks so the
                    // connection stays frame-aligned, then surface it.
                    while inflight.pop_front().is_some() {
                        if let Err(e) = self.read_stream_ack() {
                            break_stream(&mut self.stream_seq, base, accepted);
                            return Err(e);
                        }
                    }
                    break Err(ServerError::Remote {
                        code,
                        message: "streamed batch refused".to_string(),
                    });
                }
            }
        };
        // Align the client cursor with the server's (base + accepted on
        // failure, base + total on success) so a later stream on this
        // connection starts in sync.
        self.stream_seq = base + accepted as u64;
        result
    }

    /// Read one cumulative ack frame.
    fn read_stream_ack(&mut self) -> Result<StreamAck, ServerError> {
        match read_frame_body(&mut self.stream)? {
            Some(body) => match Response::decode(&body)? {
                Response::SubmitAcked {
                    contiguous,
                    queued,
                    refusals,
                } => Ok(StreamAck {
                    contiguous,
                    queued,
                    refusals,
                }),
                Response::Error { code, message } => Err(ServerError::Remote { code, message }),
                other => Err(ServerError::UnexpectedResponse(Box::new(other))),
            },
            None => Err(ServerError::Io {
                op: "read response",
                message: "connection closed before the streamed ack".to_string(),
            }),
        }
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

    /// Read the campaign's engine metrics.
    ///
    /// # Errors
    ///
    /// As [`Client::close_round`].
    pub fn query_metrics(&mut self, campaign: &str) -> Result<MetricsReport, ServerError> {
        match self.expect(&Request::QueryMetrics {
            campaign: campaign.to_string(),
        })? {
            Response::Metrics { metrics } => Ok(*metrics),
            other => Err(ServerError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Read the server's full observability snapshot (every registry
    /// metric plus per-campaign stage-busy counters and ingest
    /// histograms) — what `dptd status --connect` renders.
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

    /// Phase one of the cluster barrier: drain and filter the node's
    /// queue for `epoch` without committing anything.
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
        self.send_prepare(campaign, epoch, refused)?;
        self.recv_prepared()
    }

    /// The write half of [`Client::close_round_prepare`].
    ///
    /// # Errors
    ///
    /// As [`Client::send`].
    pub fn send_prepare(
        &mut self,
        campaign: &str,
        epoch: u64,
        refused: Vec<u64>,
    ) -> Result<(), ServerError> {
        self.send(&Request::CloseRoundPrepare {
            campaign: campaign.to_string(),
            epoch,
            refused,
            ctx: wire_ctx(),
        })
    }

    /// The read half of [`Client::close_round_prepare`].
    ///
    /// # Errors
    ///
    /// As [`Client::close_round`].
    pub fn recv_prepared(&mut self) -> Result<PreparedOutcome, ServerError> {
        match self.recv_ok()? {
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
                claims,
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
    #[allow(clippy::too_many_arguments)]
    pub fn close_round_commit(
        &mut self,
        campaign: &str,
        epoch: u64,
        batches_seen: u64,
        accepted_users: Vec<u64>,
        cumulative_losses: Vec<f64>,
        rounds_debited: Vec<u32>,
    ) -> Result<bool, ServerError> {
        self.send_commit(
            campaign,
            epoch,
            batches_seen,
            accepted_users,
            cumulative_losses,
            rounds_debited,
        )?;
        self.recv_committed()
    }

    /// The write half of [`Client::close_round_commit`].
    ///
    /// # Errors
    ///
    /// As [`Client::send`].
    #[allow(clippy::too_many_arguments)]
    pub fn send_commit(
        &mut self,
        campaign: &str,
        epoch: u64,
        batches_seen: u64,
        accepted_users: Vec<u64>,
        cumulative_losses: Vec<f64>,
        rounds_debited: Vec<u32>,
    ) -> Result<(), ServerError> {
        self.send(&Request::CloseRoundCommit {
            campaign: campaign.to_string(),
            epoch,
            batches_seen,
            accepted_users,
            cumulative_losses,
            rounds_debited,
            ctx: wire_ctx(),
        })
    }

    /// The read half of [`Client::close_round_commit`].
    ///
    /// # Errors
    ///
    /// As [`Client::close_round`].
    pub fn recv_committed(&mut self) -> Result<bool, ServerError> {
        match self.recv_ok()? {
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

/// One scatter/gather over a set of connections, in lane order: `send`
/// writes every lane's request before `recv` reads any reply, so the
/// peers work concurrently while each connection still carries at most
/// one unanswered request.
///
/// The gather **always reads every reply that is outstanding before it
/// returns** and only then surfaces the first error in lane order — a
/// refusal from lane 0 must not leave lane 1's reply unread, or the next
/// request on that connection would be answered by the stale frame. A
/// failed write stops the scatter (later lanes are not asked) but not
/// the gather; each written lane is read exactly once, so a connection
/// whose read failed is not read again.
///
/// No deadlock is possible under the invariant: requests are written to
/// one lane at a time with blocking writes, and a server never waits
/// for its peer to read a reply before it accepts the next input.
///
/// # Errors
///
/// The first `send` or `recv` error in lane order.
pub fn scatter_gather<L, T>(
    lanes: &mut [L],
    mut send: impl FnMut(usize, &mut L) -> Result<(), ServerError>,
    mut recv: impl FnMut(usize, &mut L) -> Result<T, ServerError>,
) -> Result<Vec<T>, ServerError> {
    let mut written = Vec::with_capacity(lanes.len());
    for (i, lane) in lanes.iter_mut().enumerate() {
        let outcome = send(i, lane);
        let failed = outcome.is_err();
        written.push(outcome);
        if failed {
            break;
        }
    }
    let gathered: Vec<Result<T, ServerError>> = written
        .into_iter()
        .zip(lanes.iter_mut())
        .enumerate()
        .map(|(i, (sent, lane))| sent.and_then(|()| recv(i, lane)))
        .collect();
    gathered.into_iter().collect()
}

/// One connection's share of a [`submit_waves`] call: the connection,
/// the ordered stream it must deliver, and how far it has got.
#[derive(Debug)]
pub struct SubmitLane<'a> {
    client: &'a mut Client,
    reports: &'a [StampedReport],
    /// Chunks queued so far — the index of the chunk to send next.
    next: usize,
    /// `Busy` replies to the current chunk so far.
    attempt: u32,
    /// Reports pending server-side after the last chunk this lane
    /// queued (`0` until one is).
    pub queued: u64,
}

impl<'a> SubmitLane<'a> {
    /// A lane that will deliver `reports`, in order, over `client`.
    pub fn new(client: &'a mut Client, reports: &'a [StampedReport]) -> Self {
        Self {
            client,
            reports,
            next: 0,
            attempt: 0,
            queued: 0,
        }
    }
}

/// Deliver every lane's stream in frames of `chunk` reports, in
/// **waves**: each wave writes the next chunk of every lane that still
/// has one, then reads every reply ([`scatter_gather`]), so the peers
/// decode and queue concurrently. A lane never has two chunks in
/// flight, which is what preserves its stream order. A `Busy` chunk is
/// re-sent in the next wave, behind `policy`'s backoff for that chunk
/// and attempt, up to `policy.busy_retries` times before its lane moves
/// on; with one lane this is exactly the sequential chunk-and-retry
/// loop, and [`Client::submit_chunked_with_retry`] is that case.
///
/// # Errors
///
/// [`ServerError::Busy`] once a chunk exhausts its retries (nothing of
/// that chunk was enqueued), plus everything [`Client::submit`] raises —
/// the first in lane order, after every outstanding reply was read.
pub fn submit_waves(
    lanes: &mut [SubmitLane<'_>],
    campaign: &str,
    chunk: usize,
    policy: RetryPolicy,
) -> Result<(), ServerError> {
    let chunk = chunk.max(1);
    loop {
        let mut wave: Vec<&mut SubmitLane<'_>> = lanes
            .iter_mut()
            .filter(|lane| lane.next * chunk < lane.reports.len())
            .collect();
        if wave.is_empty() {
            return Ok(());
        }
        let replies = scatter_gather(
            &mut wave,
            |_, lane| {
                let start = lane.next * chunk;
                let end = lane.reports.len().min(start + chunk);
                lane.client.send_submit(campaign, &lane.reports[start..end])
            },
            |_, lane| match lane.client.recv_submit()? {
                SubmitOutcome::Busy { .. } if lane.attempt >= policy.busy_retries => {
                    Err(ServerError::Busy)
                }
                outcome => Ok(outcome),
            },
        )?;
        let mut backoff = Duration::ZERO;
        for (lane, reply) in wave.into_iter().zip(replies) {
            match reply {
                SubmitOutcome::Queued(queued) => {
                    lane.queued = queued;
                    lane.next += 1;
                    lane.attempt = 0;
                }
                SubmitOutcome::Busy { .. } => {
                    backoff = backoff.max(policy.delay(lane.next, lane.attempt));
                    lane.attempt += 1;
                }
            }
        }
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
    }
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
