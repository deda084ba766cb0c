//! Campaign-slot hosting: everything about serving a campaign that is
//! the same whether the slot holds a whole campaign
//! ([`CampaignRegistry`](crate::CampaignRegistry)) or one partition of
//! one (the cluster node in `dptd-cluster`). Each policy below has this
//! module as its only owner; the two hosts keep what only they do —
//! running an engine round, or the two-phase barrier.
//!
//! * **Quarantine** — [`Host`] owns the id → slot map. Slot state is
//!   reachable on a request path only through [`Host::with`], which
//!   answers an unknown id or a poisoned slot with a typed refusal, so
//!   "locked or refused" is enforced by the type.
//! * **Queue** — [`SubmissionQueue`]: the bounded, batch-atomic
//!   submission buffer with one round of lookahead.
//! * **Spec admission** — [`admit`]: a wire [`CampaignSpec`] becomes a
//!   validated `(CampaignConfig, WalPolicy)` before anything
//!   `O(users)` is allocated.
//! * **Durable open** — [`open_durable`]: writer lock → directory →
//!   observer → segmented store, every failure a `WalRefused` refusal.
//! * **The request envelope** — [`Host::handle`]: request counting,
//!   trace-context adoption, the host-level frames
//!   ([`Host::answer`]), and the response observer that feeds the
//!   per-campaign refusal counters and the flight recorder.
//!
//! The shared code never asks which host it serves: the noun used in
//! refusal messages (`"campaign"` / `"campaign partition"`) is data the
//! host passes in.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dptd_engine::store::{DirFs, StoreFs};
use dptd_engine::wal::Replay;
use dptd_engine::{
    ObservedFs, SegmentStore, StoreConfig, StoreObserver, WalError, WalLock, WalPolicy,
};
use dptd_ldp::PrivacyLoss;
use dptd_obs::{
    names, Counter, MetricValue, MetricsSnapshot, Registry as ObsRegistry, SpanContext,
};
use dptd_protocol::campaign::CampaignConfig;
use dptd_protocol::message::StampedReport;
use dptd_truth::columnar::check_claims;

use crate::frontend::FrontendStats;
use crate::wire::{validate_campaign_id, CampaignSpec, ErrorCode, Request, Response};

/// The population cap a host applies when its configuration names none
/// (`RegistryConfig::default()`, every cluster node): 4 Mi users.
pub const MAX_USERS_PER_CAMPAIGN: u64 = 4 << 20;

/// A typed refusal frame.
pub fn refuse(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

/// What a host's slot state contributes to the status snapshot.
pub trait Hosted {
    /// This slot's live gauges and counters as `(suffix, value)` pairs,
    /// suffixes from [`dptd_obs::names`]; the host publishes each as
    /// `campaign.<id>.<suffix>`.
    fn status(&self) -> Vec<(&'static str, MetricValue)>;
}

type Slot<S> = Arc<Mutex<S>>;

/// The slot map and request envelope one hosting process shares across
/// every campaign (or campaign partition) it serves. Each slot
/// serializes its own operations behind one mutex, so slots proceed
/// fully concurrently while one slot's rounds stay deterministic.
#[derive(Debug)]
pub struct Host<S> {
    noun: &'static str,
    max_slots: usize,
    slots: Mutex<BTreeMap<String, Slot<S>>>,
    /// Event-driven metrics: per-campaign refusal frequencies, WAL
    /// bytes, quarantine flags. Counters a slot already keeps are
    /// sampled through [`Hosted`] at snapshot time instead of being
    /// double-accounted here.
    obs: ObsRegistry,
    /// Total requests dispatched — a cached handle so the hot path
    /// never takes the obs registry's name-lookup lock.
    requests: Counter,
    /// The front end's connection accounting plus its I/O thread
    /// count, attached after the front end starts (the handler is built
    /// first).
    conn: Mutex<Option<(Arc<FrontendStats>, u64)>>,
}

impl<S> Host<S> {
    /// An empty host for at most `max_slots` slots, each called `noun`
    /// in refusal messages.
    pub fn new(noun: &'static str, max_slots: usize) -> Self {
        let obs = ObsRegistry::new();
        let requests = obs.counter(names::SERVER_REQUESTS);
        Self {
            noun,
            max_slots,
            slots: Mutex::new(BTreeMap::new()),
            obs,
            requests,
            conn: Mutex::new(None),
        }
    }

    /// A handle on the event-driven `campaign.<id>.<suffix>` counter.
    pub fn campaign_counter(&self, id: &str, suffix: &str) -> Counter {
        self.obs.counter(&names::campaign_metric(id, suffix))
    }

    /// Attach the front end's connection accounting (and its I/O
    /// thread count); before that, connection counts read as zero.
    pub fn set_conn_stats(&self, stats: Arc<FrontendStats>, io_threads: usize) {
        *self.conn.lock().unwrap_or_else(PoisonError::into_inner) =
            Some((stats, io_threads as u64));
    }

    /// `(live, accepted, refused, io_threads)` from the front end's
    /// shared admission counters — the `live` atomic *is* the budget the
    /// accept path enforces, so the gauge cannot drift from it.
    pub fn conn_counts(&self) -> (u64, u64, u64, u64) {
        let conn = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
        match conn.as_ref() {
            Some((stats, io_threads)) => (
                stats.live.load(Ordering::SeqCst) as u64,
                stats.accepted.load(Ordering::Relaxed),
                stats.refused.load(Ordering::Relaxed),
                *io_threads,
            ),
            None => (0, 0, 0, 0),
        }
    }

    /// The map's mutex only guards `BTreeMap` bookkeeping — slot state
    /// lives behind each slot's own lock — so a poisoned map lock (some
    /// other thread panicked between map operations) has nothing
    /// half-mutated to protect: recover the guard and keep serving.
    fn slots(&self) -> MutexGuard<'_, BTreeMap<String, Slot<S>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn slot(&self, id: &str) -> Option<Slot<S>> {
        self.slots().get(id).cloned()
    }

    /// Slots currently hosted.
    pub fn slot_count(&self) -> usize {
        self.slots().len()
    }

    /// Run `f` on slot `id`'s state under its lock — the only way a
    /// request reaches slot state. `None` when no such slot exists.
    ///
    /// A poisoned lock means a worker panicked mid-request on this
    /// slot: its in-memory round state (queue, carried weights or
    /// staged lane, ledger) cannot be trusted half-mutated, so the slot
    /// is **quarantined** behind a typed error frame. Every later
    /// request on it gets the same refusal instead of a cascading panic
    /// killing its connection; other slots — and the host itself — keep
    /// serving. A durable slot recovers by restart (WAL replay); a
    /// volatile one by recreate.
    pub fn try_with(&self, id: &str, f: impl FnOnce(&mut S) -> Response) -> Option<Response> {
        let slot = self.slot(id)?;
        let Ok(mut state) = slot.lock() else {
            return Some(refuse(
                ErrorCode::CampaignQuarantined,
                format!(
                    "{} `{id}` is quarantined: a worker panicked while updating it; \
                     restart the process to replay its WAL (or recreate it, if \
                     volatile) to recover",
                    self.noun
                ),
            ));
        };
        Some(f(&mut state))
    }

    /// [`Host::try_with`], with an unknown id answered by a typed
    /// `UnknownCampaign` refusal.
    pub fn with(&self, id: &str, f: impl FnOnce(&mut S) -> Response) -> Response {
        self.try_with(id, f).unwrap_or_else(|| {
            refuse(
                ErrorCode::UnknownCampaign,
                format!("no {} `{id}` on this host", self.noun),
            )
        })
    }

    /// Read slot `id`'s state for an operator poll **off** the request
    /// path (a latched diagnostic, say). Recovers a poisoned guard:
    /// nothing here serves half-mutated round state to a client.
    pub fn peek<R>(&self, id: &str, f: impl FnOnce(&S) -> R) -> Option<R> {
        let slot = self.slot(id)?;
        let state = slot.lock().unwrap_or_else(PoisonError::into_inner);
        Some(f(&state))
    }

    fn check_room(&self, map: &BTreeMap<String, Slot<S>>, id: &str) -> Result<(), Response> {
        if map.contains_key(id) {
            return Err(refuse(
                ErrorCode::CampaignExists,
                format!("{} `{id}` is already live", self.noun),
            ));
        }
        if map.len() >= self.max_slots {
            return Err(refuse(
                ErrorCode::InvalidRequest,
                format!("this host is at its {}-{} cap", self.max_slots, self.noun),
            ));
        }
        Ok(())
    }

    /// Fast-fail on an unusable or taken id, or a full host, before the
    /// caller builds slot state; the authoritative check is
    /// [`Host::insert`].
    ///
    /// # Errors
    ///
    /// The typed refusal to answer with.
    pub fn vacancy(&self, id: &str) -> Result<(), Response> {
        path_safe(id)?;
        self.check_room(&self.slots(), id)
    }

    /// Host `state` under `id`.
    ///
    /// # Errors
    ///
    /// The [`Host::vacancy`] checks again, authoritatively: that ran
    /// before the state was built, and a concurrent create may have won
    /// either the id or the last cap slot in the meantime.
    pub fn insert(&self, id: &str, state: S) -> Result<(), Response> {
        let mut map = self.slots();
        self.check_room(&map, id)?;
        map.insert(id.to_string(), Arc::new(Mutex::new(state)));
        Ok(())
    }
}

impl<S: Send + 'static> Host<S> {
    /// Force-quarantine a slot by poisoning its state lock — byte for
    /// byte what a worker panic mid-request produces. Returns whether
    /// the lock is now poisoned. Hidden seam for exercising the
    /// quarantine → flight-recorder path from integration tests.
    #[doc(hidden)]
    pub fn poison(&self, id: &str) -> bool {
        let Some(slot) = self.slot(id) else {
            return false;
        };
        let poisoner = Arc::clone(&slot);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poison: deliberate panic while holding the slot's state lock");
        })
        .join();
        slot.is_poisoned()
    }
}

impl<S: Hosted> Host<S> {
    /// Execute one request through `dispatch`, inside the envelope
    /// every hosted request shares: count it, adopt the sender's span as
    /// this thread's ambient trace context (so the instants and spans
    /// below causally link to the sender's trace — gated on the local
    /// tracing switch, so an untraced host ignores contexts), and feed
    /// the response to the refusal accounting.
    pub fn handle(&self, request: Request, dispatch: impl FnOnce(Request) -> Response) -> Response {
        self.requests.incr();
        let (campaign, ctx) = addressed(&request);
        let campaign = campaign.map(str::to_owned);
        let _ctx_guard = ctx
            .filter(|_| dptd_obs::trace::enabled())
            .map(dptd_obs::trace::enter);
        let response = dispatch(request);
        if let Some(id) = campaign {
            self.count_refusal(&id, &response);
        }
        response
    }

    /// Answer the frames that address the hosting process rather than
    /// one slot's round state.
    pub fn answer(&self, request: Request) -> Response {
        match request {
            Request::QueryStatus => Response::Status {
                snapshot: self.status_snapshot(),
            },
            Request::QueryTrace => Response::TraceDump {
                anchor_ns: dptd_obs::trace::wall_anchor_ns(),
                dropped: dptd_obs::trace::dropped_events(),
                events: dptd_obs::trace::collect(),
            },
            // Pipelined batches carry per-connection sequencing state,
            // which only the connection front end holds; one reaching a
            // host directly bypassed the cumulative-ack protocol.
            Request::SubmitReportsStream { .. } => refuse(
                ErrorCode::InvalidRequest,
                "streamed submit batches are handled by the connection front end",
            ),
            _ => refuse(
                ErrorCode::InvalidRequest,
                "not a frame the hosting process answers itself",
            ),
        }
    }

    /// The per-campaign error-frequency accounting seam: every `Busy`
    /// and every budget / WAL / quarantine refusal that leaves a host
    /// bumps its campaign's `campaign.<id>.refused.*` counter, so the
    /// counters cover both I/O models and the in-process path without
    /// per-site bookkeeping. Refusal paths only — the common accept
    /// path never touches the obs registry's lock.
    ///
    /// Also the flight-recorder trigger seam: a quarantine refusal
    /// freezes a bundle immediately (the rings that explain the panic
    /// are still warm), and a typed-refusal **storm** — too many
    /// consecutive refusals with no accept between them — freezes one
    /// too, so an operator gets a black box even when no single refusal
    /// is fatal.
    fn count_refusal(&self, campaign: &str, response: &Response) {
        let flight = dptd_obs::flight::global();
        let suffix = match response {
            Response::Busy { .. } => names::REFUSED_BUSY,
            Response::Error { code, .. } => match code {
                ErrorCode::BudgetExhausted => names::REFUSED_BUDGET,
                ErrorCode::WalRefused => names::REFUSED_WAL,
                ErrorCode::CampaignQuarantined => {
                    self.obs
                        .gauge(&names::campaign_metric(campaign, names::QUARANTINED))
                        .set(1);
                    names::REFUSED_QUARANTINED
                }
                _ => {
                    flight.note_accept();
                    return;
                }
            },
            _ => {
                flight.note_accept();
                return;
            }
        };
        self.campaign_counter(campaign, suffix).incr();
        let storm = flight.note_refusal();
        if suffix == names::REFUSED_QUARANTINED {
            flight.freeze("quarantine", self.status_snapshot());
        } else if storm {
            flight.freeze("refusal-storm", self.status_snapshot());
        }
    }

    /// The full observability snapshot behind [`Request::QueryStatus`]:
    /// the event-driven registry (refusal frequencies, WAL bytes,
    /// quarantine flags, request totals), the connection gauges, and
    /// what every slot reports live through [`Hosted`]. Fair-share
    /// views ([`MetricsSnapshot::campaign_shares`]) are computed by the
    /// consumer from these counters.
    pub fn status_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.obs.snapshot();
        let (live, accepted, refused, io_threads) = self.conn_counts();
        for (name, value) in [
            (names::SERVER_CONN_LIVE, MetricValue::Gauge(live)),
            (names::SERVER_CONN_ACCEPTED, MetricValue::Counter(accepted)),
            (names::SERVER_CONN_REFUSED, MetricValue::Counter(refused)),
            (names::SERVER_IO_THREADS, MetricValue::Gauge(io_threads)),
        ] {
            snap.set(name.to_string(), value);
        }
        let slots: Vec<(String, Slot<S>)> = self
            .slots()
            .iter()
            .map(|(id, slot)| (id.clone(), Arc::clone(slot)))
            .collect();
        for (id, slot) in slots {
            match slot.lock() {
                Ok(state) => {
                    for (suffix, value) in state.status() {
                        snap.set(names::campaign_metric(&id, suffix), value);
                    }
                }
                // Quarantined: its state cannot be read, but the flag
                // itself must be visible — not silently absent — even
                // before the first refusal bumps it.
                Err(_) => snap.set(
                    names::campaign_metric(&id, names::QUARANTINED),
                    MetricValue::Gauge(1),
                ),
            }
        }
        // Every status cut also lands in the flight recorder's bounded
        // ring: the periodic `--watch` poll becomes the black box's
        // history for free.
        dptd_obs::flight::global().record("status", snap.clone());
        snap
    }

    /// Orderly shutdown: drain the map and hand every slot to `flush`.
    /// The host serves nothing afterwards — callers run this after the
    /// accept loop has stopped.
    ///
    /// Shutdown is best-effort even for a quarantined slot: a poisoned
    /// guard is recovered so its WAL still gets a final flush attempt
    /// and its writer lock is released for the successor process. The
    /// shutdown black box is cut before the slots drain, so the bundle
    /// shows the fleet as it was serving, not an empty host.
    pub fn shutdown(&self, mut flush: impl FnMut(&mut S)) {
        let parting = self.status_snapshot();
        let drained = std::mem::take(&mut *self.slots());
        for slot in drained.into_values() {
            flush(&mut slot.lock().unwrap_or_else(PoisonError::into_inner));
        }
        dptd_obs::flight::global().freeze("shutdown", parting);
    }
}

/// An id becomes a metric name and, when durable, a directory under the
/// WAL root: nothing path-like may pass, whoever built the request.
fn path_safe(id: &str) -> Result<(), Response> {
    validate_campaign_id(id).map_err(|e| refuse(ErrorCode::InvalidRequest, e.to_string()))
}

/// The campaign a request addresses (its refusals are accounted to that
/// id) and the sender's trace context, when the frame carries one.
fn addressed(request: &Request) -> (Option<&str>, Option<SpanContext>) {
    match request {
        Request::SubmitReports { campaign, ctx, .. }
        | Request::SubmitReportsStream { campaign, ctx, .. }
        | Request::CloseRoundPrepare { campaign, ctx, .. }
        | Request::CloseRoundCommit { campaign, ctx, .. } => (Some(campaign), *ctx),
        Request::CreateCampaign { campaign, .. }
        | Request::CloseRound { campaign, .. }
        | Request::QueryTruths { campaign }
        | Request::QueryBudget { campaign }
        | Request::QueryMetrics { campaign }
        | Request::QueryLedger { campaign, .. }
        | Request::ReplicateSegment { campaign, .. } => (Some(campaign), None),
        Request::NodeHello { .. } | Request::QueryStatus | Request::QueryTrace => (None, None),
    }
}

/// A slot's **bounded** submission queue: batches accumulate until the
/// round closes, and a batch that would overflow is refused with
/// [`Response::Busy`] (taken atomically or not at all — a host never
/// buffers unboundedly and never tears a batch).
#[derive(Debug)]
pub struct SubmissionQueue {
    /// Reports awaiting the next close, in submission order.
    pending: Vec<StampedReport>,
    /// One round of lookahead: reports already submitted for the epoch
    /// *after* the next close (an eager client racing a slow closer).
    /// Promoted to `pending` when the round ahead of them closes, so a
    /// busy-retrying submitter can make progress without waiting for
    /// the close to happen between its retries.
    future: Vec<StampedReport>,
    /// `pending` + `future` combined may hold this many reports.
    capacity: usize,
    /// The epoch the next round will run as (advances only on a
    /// successful close, so a failed round can be retried).
    next_epoch: u64,
    /// Reports taken since the queue was built.
    taken: u64,
}

impl SubmissionQueue {
    /// An empty queue of `capacity` reports whose next round is
    /// `next_epoch` (non-zero after a WAL resume).
    pub fn new(capacity: usize, next_epoch: u64) -> Self {
        Self {
            pending: Vec::new(),
            future: Vec::new(),
            capacity,
            next_epoch,
            taken: 0,
        }
    }

    /// Reports taken so far, over every round.
    pub fn taken(&self) -> u64 {
        self.taken
    }

    /// The epoch the next round will run as.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// The bound on buffered reports.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reports buffered right now, lookahead included.
    pub fn depth(&self) -> u64 {
        (self.pending.len() + self.future.len()) as u64
    }

    /// Admit one submission batch from a slot of `population` users
    /// observing `num_objects` objects a round (`noun` names the slot's
    /// kind in refusals). Answers `Submitted` with the new depth, `Busy`
    /// with nothing taken, or a typed refusal.
    ///
    /// A claim the aggregation would refuse — object out of range,
    /// non-finite value, an object claimed twice — is refused here,
    /// naming its user: past this door one such claim fails the merge of
    /// the whole round, after the close has drained everyone's reports.
    pub fn offer(
        &mut self,
        reports: Vec<StampedReport>,
        population: usize,
        num_objects: usize,
        noun: &str,
    ) -> Response {
        let queued = self.depth();
        let Some(first) = reports.first() else {
            return Response::Submitted { queued };
        };
        let epoch = first.epoch;
        for r in &reports {
            if r.epoch != epoch {
                return refuse(
                    ErrorCode::InvalidRequest,
                    "a submission batch must carry a single epoch",
                );
            }
            if r.report.user >= population {
                return refuse(
                    ErrorCode::InvalidRequest,
                    format!(
                        "user {} outside the {noun}'s {population}-user population",
                        r.report.user
                    ),
                );
            }
            if let Err(defect) = check_claims(r.report.user, &r.report.values, num_objects) {
                return refuse(
                    ErrorCode::InvalidRequest,
                    format!("report from user {} refused: {defect}", r.report.user),
                );
            }
        }
        // The queue buffers the next round plus one round of lookahead;
        // anything staler or further ahead is a client-side epoch bug.
        if epoch != self.next_epoch && epoch != self.next_epoch + 1 {
            return refuse(
                ErrorCode::InvalidRequest,
                format!(
                    "report for epoch {epoch} but the {noun} is on round {} \
                     (one round of lookahead is buffered)",
                    self.next_epoch
                ),
            );
        }
        // Bounded queue, batch-atomic: either the whole batch fits or
        // nothing is taken and the client sees explicit backpressure.
        if self.pending.len() + self.future.len() + reports.len() > self.capacity {
            dptd_obs::trace::instant(dptd_obs::codes::QUEUE_FULL, queued);
            return Response::Busy {
                queued,
                capacity: self.capacity as u64,
            };
        }
        dptd_obs::trace::instant(dptd_obs::codes::SUBMIT, reports.len() as u64);
        self.taken += reports.len() as u64;
        if epoch == self.next_epoch {
            self.pending.extend(reports);
        } else {
            self.future.extend(reports);
        }
        Response::Submitted {
            queued: self.depth(),
        }
    }

    /// Take everything queued for the next round, in submission order.
    pub fn drain(&mut self) -> Vec<StampedReport> {
        let reports = std::mem::take(&mut self.pending);
        dptd_obs::trace::instant(dptd_obs::codes::DEQUEUE, reports.len() as u64);
        reports
    }

    /// The round closed: the next epoch is one later, and the lookahead
    /// buffer — which was for exactly that epoch — becomes its queue.
    pub fn advance(&mut self) {
        self.next_epoch += 1;
        self.pending = std::mem::take(&mut self.future);
    }
}

/// Validate a wire [`CampaignSpec`] against `max_users` and turn it
/// into the campaign-layer configuration plus the WAL policy stamped
/// into every durable record: resuming a log under a different stream
/// tag (or different privacy flags) is refused by recovery instead of
/// silently reinterpreting the ledger.
///
/// # Errors
///
/// An `InvalidRequest` refusal for an empty or over-cap population (so
/// a create claiming more is refused before the host allocates
/// `O(users)`), a zero submission capacity, or an invalid privacy loss.
pub fn admit(spec: &CampaignSpec, max_users: u64) -> Result<(CampaignConfig, WalPolicy), Response> {
    let invalid = |message: String| refuse(ErrorCode::InvalidRequest, message);
    if spec.num_users == 0 {
        return Err(invalid("a campaign needs at least one user".to_string()));
    }
    if spec.num_users > max_users {
        return Err(invalid(format!(
            "population {} exceeds the host's {max_users}-user cap",
            spec.num_users
        )));
    }
    if spec.submission_capacity == 0 {
        return Err(invalid("submission_capacity must be positive".to_string()));
    }
    let config = CampaignConfig {
        num_objects: spec.num_objects as usize,
        deadline_us: spec.deadline_us,
        per_round_loss: PrivacyLoss::new(spec.per_round_epsilon, spec.per_round_delta)
            .map_err(|e| invalid(e.to_string()))?,
        budget: PrivacyLoss::new(spec.budget_epsilon, spec.budget_delta)
            .map_err(|e| invalid(e.to_string()))?,
    };
    let policy = WalPolicy::from_campaign(&config).with_stream_tag(spec.stream_tag);
    Ok((config, policy))
}

/// Open slot `id`'s segmented store under `root` (rotation and
/// compaction per `store`; legacy single-segment directories adopted in
/// place) and replay it. The returned [`WalLock`] is the advisory
/// single-writer lock, to be held for the slot's lifetime: a second
/// live writer on the directory (another host, a CLI campaign) is
/// refused here, at open.
///
/// `observe` runs once the directory is locked and open; the observer
/// it yields wraps the filesystem *before* the store opens, so it sees
/// every durable byte from the manifest's creation (or this resume's
/// tail repair) onward.
///
/// # Errors
///
/// `InvalidRequest` for an id that is not path-safe; a `WalRefused`
/// refusal for a host without a WAL root and for every lock, filesystem
/// and replay failure; `observe`'s own refusal.
pub fn open_durable(
    root: Option<&Path>,
    id: &str,
    store: StoreConfig,
    noun: &str,
    observe: impl FnOnce() -> Result<Option<Box<dyn StoreObserver>>, Response>,
) -> Result<(WalLock, SegmentStore, Replay), Response> {
    let wal = |e: WalError| refuse(ErrorCode::WalRefused, e.to_string());
    let Some(root) = root else {
        return Err(refuse(
            ErrorCode::WalRefused,
            format!("a durable {noun} needs a host started with `--wal <root>`"),
        ));
    };
    path_safe(id)?;
    let dir = root.join(id);
    let lock = WalLock::acquire(&dir).map_err(wal)?;
    let mut fs: Box<dyn StoreFs> = Box::new(DirFs::open(&dir).map_err(wal)?);
    if let Some(observer) = observe()? {
        fs = Box::new(ObservedFs::new(fs, observer));
    }
    let (store, replay) = SegmentStore::open(fs, store).map_err(wal)?;
    Ok((lock, store, replay))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dptd_core::roles::PerturbedReport;

    fn stamped(epoch: u64, user: usize) -> StampedReport {
        StampedReport {
            epoch,
            sent_at_us: 1,
            report: PerturbedReport {
                user,
                values: vec![(0, 1.0)],
            },
        }
    }

    fn is_invalid(resp: &Response) -> bool {
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::InvalidRequest,
                ..
            }
        )
    }

    #[test]
    fn queue_refuses_malformed_batches_and_takes_nothing() {
        let mut q = SubmissionQueue::new(8, 3);
        assert_eq!(
            q.offer(vec![], 4, 1, "campaign"),
            Response::Submitted { queued: 0 }
        );
        for bad in [
            vec![stamped(3, 0), stamped(4, 1)], // mixed epochs
            vec![stamped(3, 4)],                // outside the population
            vec![stamped(2, 0)],                // stale
            vec![stamped(5, 0)],                // two ahead
        ] {
            let resp = q.offer(bad, 4, 1, "campaign");
            assert!(is_invalid(&resp), "{resp:?}");
            assert_eq!(q.depth(), 0);
        }
    }

    #[test]
    fn queue_refuses_a_claim_the_merge_would_refuse_and_takes_nothing() {
        let mut q = SubmissionQueue::new(8, 0);
        for (claims, defect) in [
            (vec![(0, 1.0), (7, 2.0)], "object index 7 out of range"),
            (vec![(0, 1.0), (1, f64::NAN)], "non-finite observation NaN"),
            (vec![(1, 1.0), (0, 2.0), (1, 3.0)], "observed object 1 more"),
        ] {
            let mut bad = stamped(0, 2);
            bad.report.values = claims;
            // Batch-atomic: the honest neighbours are not taken either.
            match q.offer(vec![stamped(0, 1), bad, stamped(0, 3)], 4, 2, "campaign") {
                Response::Error {
                    code: ErrorCode::InvalidRequest,
                    message,
                } => assert!(
                    message.starts_with("report from user 2 refused: ") && message.contains(defect),
                    "{message}"
                ),
                other => panic!("{other:?}"),
            }
            assert_eq!((q.depth(), q.taken()), (0, 0));
        }
        // Unsorted but well-formed is fine; so is an empty claim list.
        let mut unsorted = stamped(0, 2);
        unsorted.report.values = vec![(1, 1.0), (0, 2.0)];
        let mut empty = stamped(0, 3);
        empty.report.values = vec![];
        assert_eq!(
            q.offer(vec![unsorted, empty], 4, 2, "campaign"),
            Response::Submitted { queued: 2 }
        );
    }

    #[test]
    fn queue_is_bounded_batch_atomic_and_promotes_its_lookahead() {
        let mut q = SubmissionQueue::new(3, 0);
        assert_eq!(
            q.offer(vec![stamped(0, 0), stamped(0, 1)], 4, 1, "campaign"),
            Response::Submitted { queued: 2 }
        );
        // The lookahead shares the one bound with the current round.
        assert_eq!(
            q.offer(vec![stamped(1, 2)], 4, 1, "campaign"),
            Response::Submitted { queued: 3 }
        );
        let busy = Response::Busy {
            queued: 3,
            capacity: 3,
        };
        assert_eq!(q.offer(vec![stamped(0, 3)], 4, 1, "campaign"), busy);
        assert_eq!(q.offer(vec![stamped(1, 3)], 4, 1, "campaign"), busy);
        assert_eq!(
            (q.depth(), q.taken()),
            (3, 3),
            "a refused batch leaves nothing behind"
        );
        // Draining frees the current round's share only; a failed round
        // does not advance, so the epoch is still the one to submit for.
        assert_eq!(q.drain().len(), 2);
        assert_eq!((q.depth(), q.next_epoch()), (1, 0));
        q.advance();
        assert_eq!((q.depth(), q.next_epoch()), (1, 1));
        let promoted = q.drain();
        assert_eq!(
            (promoted.len(), promoted[0].report.user, promoted[0].epoch),
            (1, 2, 1)
        );
    }

    fn spec() -> CampaignSpec {
        CampaignSpec {
            num_users: 4,
            num_objects: 2,
            num_shards: 1,
            workers: 0,
            engine_queue: 64,
            deadline_us: 1_000,
            submission_capacity: 8,
            per_round_epsilon: 0.5,
            per_round_delta: 0.0,
            budget_epsilon: 1.0,
            budget_delta: 0.0,
            stream_tag: 7,
            durable: false,
        }
    }

    #[test]
    fn admission_bounds_the_population_before_anything_is_allocated() {
        let (config, policy) = admit(&spec(), MAX_USERS_PER_CAMPAIGN).expect("valid spec");
        assert_eq!((config.num_objects, config.deadline_us), (2, 1_000));
        assert_eq!(policy, WalPolicy::from_campaign(&config).with_stream_tag(7));
        for bad in [
            CampaignSpec {
                num_users: 0,
                ..spec()
            },
            CampaignSpec {
                num_users: 1 << 40,
                ..spec()
            },
            CampaignSpec {
                submission_capacity: 0,
                ..spec()
            },
            CampaignSpec {
                budget_epsilon: -1.0,
                ..spec()
            },
        ] {
            let resp = admit(&bad, MAX_USERS_PER_CAMPAIGN).expect_err("must be refused");
            assert!(is_invalid(&resp), "{resp:?}");
        }
        assert!(admit(&spec(), 3).is_err(), "the cap is the caller's");
    }

    impl Hosted for u32 {
        fn status(&self) -> Vec<(&'static str, MetricValue)> {
            vec![(names::ROUNDS, MetricValue::Counter(u64::from(*self)))]
        }
    }

    #[test]
    fn slots_are_capped_unique_and_quarantined_once_poisoned() {
        let host: Host<u32> = Host::new("campaign", 2);
        assert!(host.vacancy("../escape").is_err());
        host.vacancy("a").expect("room");
        host.insert("a", 1).expect("room");
        host.insert("b", 2).expect("room");
        for (id, code) in [
            ("a", ErrorCode::CampaignExists),
            ("c", ErrorCode::InvalidRequest),
        ] {
            for resp in [host.vacancy(id), host.insert(id, 9)] {
                let resp = resp.expect_err("taken or full");
                assert!(matches!(&resp, Response::Error { code: c, .. } if *c == code));
            }
        }
        let bump = |s: &mut u32| {
            *s += 10;
            Response::Created {
                resumed_rounds: u64::from(*s),
            }
        };
        assert_eq!(
            host.with("a", bump),
            Response::Created { resumed_rounds: 11 }
        );
        assert!(host.try_with("ghost", bump).is_none());
        assert!(matches!(
            host.with("ghost", bump),
            Response::Error {
                code: ErrorCode::UnknownCampaign,
                ..
            }
        ));

        assert!(host.poison("a"));
        assert!(!host.poison("ghost"));
        assert!(matches!(
            host.with("a", bump),
            Response::Error {
                code: ErrorCode::CampaignQuarantined,
                ..
            }
        ));
        assert_eq!(host.peek("a", |s| *s), Some(11));
        let snap = host.status_snapshot();
        assert_eq!(snap.scalar("campaign.a.quarantined"), Some(1));
        assert_eq!(snap.scalar("campaign.b.rounds"), Some(2));

        let mut seen = Vec::new();
        host.shutdown(|s| seen.push(*s));
        assert_eq!(seen, vec![11, 2]);
        assert_eq!(host.slot_count(), 0);
    }
}
