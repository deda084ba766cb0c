//! The multi-campaign registry: one process, many live campaigns.
//!
//! [`CampaignRegistry`] hosts whole campaigns on the shared [`Host`]:
//! the slot map with its quarantine policy, the bounded
//! [`SubmissionQueue`], spec admission, the durable open sequence and
//! the request envelope all live in [`crate::host`].
//! What is left here is what only a campaign server does — each slot
//! owns a [`CampaignDriver`]`<`[`EngineBackend`]`>` (its own sharded
//! engine, carried weights and per-user privacy ledger, optionally
//! durable through a per-campaign WAL directory), and `CloseRound`
//! drains the slot's queue through one engine epoch.
//!
//! A slot's operations are serialized, so campaigns proceed fully
//! concurrently while a single campaign's rounds stay deterministic:
//! the reports a round aggregates are exactly the submitted stream in
//! submission order, which is what makes a served campaign's weights
//! digest and budget ledger **bit-identical** to an in-process
//! [`CampaignDriver`] run on the same stream.
//!
//! Privacy enforcement is the campaign layer's, unchanged: exhausted
//! users are refused by the [`BudgetAccountant`] before their reports
//! reach the engine, and a round in which *every* submitter is refused
//! surfaces as a typed [`ErrorCode::BudgetExhausted`] wire error.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dptd_engine::{Engine, EngineBackend, EngineConfig, StoreConfig, StoreObserver, WalLock};
use dptd_obs::{names, Counter, MetricValue, MetricsSnapshot};
use dptd_protocol::budget::BudgetAccountant;
use dptd_protocol::campaign::{CampaignDriver, RoundBackend};
use dptd_protocol::message::StampedReport;
use dptd_protocol::ProtocolError;
use dptd_stats::digest::fnv1a_f64s;
use dptd_truth::Loss;

use crate::host::{
    admit, open_durable, refuse, Host, Hosted, SubmissionQueue, MAX_USERS_PER_CAMPAIGN,
};
use crate::wire::{CampaignSpec, ErrorCode, MetricsReport, Request, Response};

/// What this host calls a slot in refusal messages.
const NOUN: &str = "campaign";

/// Server-side limits and the WAL root.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Root directory for durable campaigns; campaign `id` logs to
    /// `<root>/<id>`. `None` refuses durable creates.
    pub wal_root: Option<PathBuf>,
    /// Hard cap on concurrently hosted campaigns.
    pub max_campaigns: usize,
    /// Hard cap on a single campaign's population (a `CreateCampaign`
    /// claiming more is refused before the server allocates `O(users)`).
    pub max_users_per_campaign: u64,
    /// Rotation/compaction thresholds applied to every durable
    /// campaign's segmented store (`dptd serve --wal-rotate-bytes /
    /// --wal-rotate-records / --wal-compact-every`).
    pub store: StoreConfig,
}

impl Default for RegistryConfig {
    /// No WAL root, 1024 campaigns, 4 Mi users per campaign, default
    /// store thresholds.
    fn default() -> Self {
        Self {
            wal_root: None,
            max_campaigns: 1024,
            max_users_per_campaign: MAX_USERS_PER_CAMPAIGN,
            store: StoreConfig::default(),
        }
    }
}

/// One hosted campaign.
#[derive(Debug)]
struct CampaignState {
    driver: CampaignDriver<EngineBackend>,
    /// Reports awaiting the next `CloseRound`.
    queue: SubmissionQueue,
    /// Truths from the last successful round (empty before the first).
    last_truths: Vec<f64>,
    /// Held for the campaign's lifetime when durable: a second live
    /// writer on the same WAL directory is refused at create. Released
    /// explicitly by [`CampaignRegistry::finalize`] on orderly
    /// shutdown.
    wal_lock: Option<WalLock>,
}

/// Aggregate counters across every campaign (for the `dptd serve`
/// shutdown summary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Campaigns created (including WAL resumes).
    pub campaigns_created: u64,
    /// Reports accepted into submission queues.
    pub reports_submitted: u64,
    /// Rounds successfully closed.
    pub rounds_closed: u64,
    /// Durable campaigns finalized (WAL flushed, lock released) at
    /// shutdown; volatile campaigns are not counted.
    pub campaigns_flushed: u64,
    /// Campaigns whose shutdown WAL sync failed (locks still released).
    pub sync_failures: u64,
}

/// The shared multi-campaign state behind the TCP front end.
#[derive(Debug)]
pub struct CampaignRegistry {
    config: RegistryConfig,
    host: Host<CampaignState>,
    campaigns_created: AtomicU64,
    reports_submitted: AtomicU64,
    rounds_closed: AtomicU64,
}

/// Feeds every durable WAL write into the campaign's
/// `campaign.<id>.wal_bytes` counter — an infallible [`StoreObserver`],
/// so observability can never fail (or reorder) the primary's writes.
#[derive(Debug)]
struct WalBytesObserver {
    bytes: Counter,
}

impl StoreObserver for WalBytesObserver {
    fn on_append(&mut self, _name: &str, bytes: &[u8]) {
        self.bytes.add(bytes.len() as u64);
    }
    fn on_write_atomic(&mut self, _name: &str, bytes: &[u8]) {
        self.bytes.add(bytes.len() as u64);
    }
    fn on_truncate(&mut self, _name: &str, _len: u64) {}
    fn on_remove(&mut self, _name: &str) {}
}

/// Map a campaign-layer failure onto a stable wire error code.
fn protocol_refusal(e: &ProtocolError) -> Response {
    let code = match e {
        ProtocolError::InvalidParameter { .. } => ErrorCode::InvalidRequest,
        ProtocolError::InsufficientCoverage { .. } => ErrorCode::InsufficientCoverage,
        ProtocolError::Backend { message, .. } if message.contains("write-ahead log") => {
            ErrorCode::WalRefused
        }
        _ => ErrorCode::Internal,
    };
    refuse(code, e.to_string())
}

impl CampaignState {
    fn close_round(&mut self, epoch: u64) -> Response {
        if epoch != self.queue.next_epoch() {
            return refuse(
                ErrorCode::InvalidRequest,
                format!(
                    "cannot close epoch {epoch}: the campaign is on round {}",
                    self.queue.next_epoch()
                ),
            );
        }
        let reports = self.queue.drain();
        // Surface an all-refused round as the budget error it is, before
        // the engine turns it into a bare coverage failure. Observable
        // state is identical either way: nothing is debited, the round
        // does not advance, and the submitted batch is consumed.
        if !reports.is_empty() {
            let ledger = self.driver.accountant();
            if reports.iter().all(|r| !ledger.can_spend(r.report.user)) {
                return refuse(
                    ErrorCode::BudgetExhausted,
                    format!(
                        "every submitting user's privacy budget is exhausted \
                         ({} of {} users spent out)",
                        ledger.exhausted_count(),
                        ledger.num_users()
                    ),
                );
            }
        }
        match self.driver.run_round(epoch, reports) {
            Ok(round) => {
                self.queue.advance();
                self.last_truths = round.truths.clone();
                Response::RoundClosed {
                    epoch,
                    accepted: round.accepted as u64,
                    refused: round.refused_users as u64,
                    duplicates: round.duplicates_discarded,
                    late: round.late_dropped,
                    truths: round.truths,
                    weights_digest: fnv1a_f64s(&round.weights),
                    max_spent_epsilon: round.max_spent.epsilon(),
                    max_spent_delta: round.max_spent.delta(),
                }
            }
            Err(e) => protocol_refusal(&e),
        }
    }

    fn truths(&self) -> Response {
        Response::Truths {
            rounds_run: u64::from(self.driver.rounds_run()),
            truths: self.last_truths.clone(),
            weights_digest: fnv1a_f64s(self.driver.backend().current_weights()),
        }
    }

    fn budget(&self) -> Response {
        let ledger: &BudgetAccountant = self.driver.accountant();
        Response::Budget {
            exhausted: ledger.exhausted_count() as u64,
            max_spent_epsilon: ledger.max_spent().epsilon(),
            max_spent_delta: ledger.max_spent().delta(),
            debits: ledger.debits_by_user().to_vec(),
        }
    }

    fn metrics(
        &self,
        (conn_live, conn_accepted, conn_refused, io_threads): (u64, u64, u64, u64),
    ) -> Response {
        let m = self.driver.backend().metrics();
        let ns = |d: Option<std::time::Duration>| {
            d.map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        };
        Response::Metrics {
            metrics: Box::new(MetricsReport {
                reports_submitted: m.reports_submitted,
                reports_accepted: m.reports_accepted,
                duplicates_discarded: m.duplicates_discarded,
                late_dropped: m.late_dropped,
                out_of_order_dropped: m.out_of_order_dropped,
                backpressure_stalls: m.backpressure_stalls,
                epochs_merged: m.epochs_merged,
                max_queue_depth: m.max_queue_depth as u64,
                queue_depth: self.queue.depth(),
                throughput_rps: m.throughput_rps(),
                ingest_p50_ns: ns(m.ingest_latency.p50()),
                ingest_p99_ns: ns(m.ingest_latency.p99()),
                conn_live,
                conn_accepted,
                conn_refused,
                io_threads,
            }),
        }
    }
}

impl Hosted for CampaignState {
    /// Counters sampled live from the engine — cumulative stage-busy
    /// time, ingest latency histogram, queue depth.
    fn status(&self) -> Vec<(&'static str, MetricValue)> {
        let m = self.driver.backend().metrics();
        let busy_ns = |d: std::time::Duration| {
            MetricValue::Counter(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        };
        let dropped = m.duplicates_discarded + m.late_dropped + m.out_of_order_dropped;
        let ingest = m.ingest_latency.snapshot();
        vec![
            (names::ROUTE_BUSY_NS, busy_ns(m.stage.route)),
            (names::FILTER_BUSY_NS, busy_ns(m.stage.filter)),
            (names::MERGE_BUSY_NS, busy_ns(m.stage.merge)),
            (names::QUEUE_DEPTH, MetricValue::Gauge(self.queue.depth())),
            (names::SUBMITTED, MetricValue::Counter(m.reports_submitted)),
            (names::ACCEPTED, MetricValue::Counter(m.reports_accepted)),
            (names::DROPPED, MetricValue::Counter(dropped)),
            (names::ROUNDS, MetricValue::Counter(m.epochs_merged)),
            (names::INGEST_LATENCY, MetricValue::Histogram(ingest)),
        ]
    }
}

impl CampaignRegistry {
    /// An empty registry under `config`.
    pub fn new(config: RegistryConfig) -> Self {
        Self {
            host: Host::new(NOUN, config.max_campaigns),
            config,
            campaigns_created: AtomicU64::new(0),
            reports_submitted: AtomicU64::new(0),
            rounds_closed: AtomicU64::new(0),
        }
    }

    /// Attach the front end's connection accounting (and its I/O
    /// thread count) so `QueryMetrics` / `QueryStatus` can report
    /// them. Called by [`crate::Server::start`] once the front end is
    /// up; before that, connection counts read as zero.
    pub fn set_conn_stats(&self, stats: Arc<crate::frontend::FrontendStats>, io_threads: usize) {
        self.host.set_conn_stats(stats, io_threads);
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            campaigns_created: self.campaigns_created.load(Ordering::Relaxed),
            reports_submitted: self.reports_submitted.load(Ordering::Relaxed),
            rounds_closed: self.rounds_closed.load(Ordering::Relaxed),
            campaigns_flushed: 0,
            sync_failures: 0,
        }
    }

    /// Campaigns currently hosted.
    pub fn campaign_count(&self) -> usize {
        self.host.slot_count()
    }

    /// Orderly shutdown of every hosted campaign: flush + fsync each
    /// durable campaign's active WAL segment and release its advisory
    /// writer lock **now**, instead of relying on process-exit `Drop`
    /// order. Returns `(durable campaigns flushed, sync failures)`;
    /// locks are released even when a sync fails. The registry hosts
    /// nothing afterwards — see [`Host::shutdown`].
    pub fn finalize(&self) -> (usize, usize) {
        let mut flushed = 0usize;
        let mut failures = 0usize;
        self.host.shutdown(|state| {
            // Only durable campaigns hold a lock and a log; counting
            // volatile ones as "flushed" would tell the operator state
            // was persisted that never existed.
            if state.wal_lock.is_none() {
                return;
            }
            if state.driver.backend_mut().sync_log().is_err() {
                failures += 1;
            }
            // Dropping the lock handle releases the OS file lock; a
            // successor writer (a restarted server, a CLI resume) can
            // acquire the directory immediately.
            state.wal_lock = None;
            flushed += 1;
        });
        (flushed, failures)
    }

    /// Force-quarantine a campaign — see [`Host::poison`].
    #[doc(hidden)]
    pub fn poison_campaign(&self, campaign: &str) -> bool {
        self.host.poison(campaign)
    }

    /// The full observability snapshot behind [`Request::QueryStatus`]
    /// — see [`Host::status_snapshot`].
    pub fn status_snapshot(&self) -> MetricsSnapshot {
        self.host.status_snapshot()
    }

    /// Execute one request. Every failure is a typed
    /// [`Response::Error`] — the connection layer only transports.
    pub fn handle(&self, request: Request) -> Response {
        self.host.handle(request, |request| self.dispatch(request))
    }

    fn dispatch(&self, request: Request) -> Response {
        match request {
            Request::CreateCampaign { campaign, spec } => self
                .create(&campaign, &spec)
                .unwrap_or_else(|refusal| refusal),
            Request::SubmitReports {
                campaign, reports, ..
            } => self.submit(&campaign, reports),
            Request::CloseRound { campaign, epoch } => {
                let response = self.host.with(&campaign, |state| state.close_round(epoch));
                if matches!(response, Response::RoundClosed { .. }) {
                    self.rounds_closed.fetch_add(1, Ordering::Relaxed);
                }
                response
            }
            Request::QueryTruths { campaign } => self.host.with(&campaign, |state| state.truths()),
            Request::QueryBudget { campaign } => self.host.with(&campaign, |state| state.budget()),
            Request::QueryMetrics { campaign } => {
                let conn = self.host.conn_counts();
                self.host.with(&campaign, |state| state.metrics(conn))
            }
            // Cluster-peer frames: a plain campaign server is not a
            // cluster node. The refusal is typed so a misconfigured
            // coordinator learns *what* it dialled, not just "error".
            Request::NodeHello { .. }
            | Request::CloseRoundPrepare { .. }
            | Request::CloseRoundCommit { .. }
            | Request::ReplicateSegment { .. }
            | Request::QueryLedger { .. } => refuse(
                ErrorCode::InvalidRequest,
                "this server is not a cluster node (start one with `dptd cluster serve`)",
            ),
            request @ (Request::QueryStatus
            | Request::QueryTrace
            | Request::SubmitReportsStream { .. }) => self.host.answer(request),
        }
    }

    fn create(&self, campaign: &str, spec: &CampaignSpec) -> Result<Response, Response> {
        let (campaign_cfg, policy) = admit(spec, self.config.max_users_per_campaign)?;
        self.host.vacancy(campaign)?;
        let engine = Engine::new(EngineConfig {
            num_users: spec.num_users as usize,
            num_objects: spec.num_objects as usize,
            num_shards: spec.num_shards as usize,
            workers: spec.workers as usize,
            queue_capacity: spec.engine_queue as usize,
            epoch_deadline_us: spec.deadline_us,
            loss: Loss::Squared,
            merge_workers: 0,
        })
        .map_err(|e| refuse(ErrorCode::InvalidRequest, e.to_string()))?;

        let (driver, next_epoch, resumed_rounds, wal_lock) = if spec.durable {
            let (lock, store, replay) = open_durable(
                self.config.wal_root.as_deref(),
                campaign,
                self.config.store,
                NOUN,
                // The directory is observed so every durable byte lands
                // in the campaign's `wal_bytes` counter.
                || {
                    let bytes = self.host.campaign_counter(campaign, names::WAL_BYTES);
                    Ok(Some(Box::new(WalBytesObserver { bytes })))
                },
            )?;
            let (backend, recovered) =
                EngineBackend::with_log(engine, Box::new(store), &replay, policy)
                    .map_err(|e| refuse(ErrorCode::WalRefused, e.to_string()))?;
            let next = recovered.next_epoch();
            let applied = recovered.records_applied;
            let driver = CampaignDriver::resume(
                backend,
                campaign_cfg,
                recovered.rounds_debited,
                applied.min(u64::from(u32::MAX)) as u32,
            )
            .map_err(|e| protocol_refusal(&e))?;
            (driver, next, applied, Some(lock))
        } else {
            let backend = EngineBackend::new(engine)
                .map_err(|e| refuse(ErrorCode::InvalidRequest, e.to_string()))?;
            let driver =
                CampaignDriver::new(backend, campaign_cfg).map_err(|e| protocol_refusal(&e))?;
            (driver, 0, 0, None)
        };

        self.host.insert(
            campaign,
            CampaignState {
                driver,
                queue: SubmissionQueue::new(spec.submission_capacity as usize, next_epoch),
                last_truths: Vec::new(),
                wal_lock,
            },
        )?;
        self.campaigns_created.fetch_add(1, Ordering::Relaxed);
        Ok(Response::Created { resumed_rounds })
    }

    fn submit(&self, campaign: &str, reports: Vec<StampedReport>) -> Response {
        let batch = reports.len() as u64;
        let response = self.host.with(campaign, |state| {
            let population = state.driver.backend().num_users();
            let num_objects = state.driver.config().num_objects;
            state.queue.offer(reports, population, num_objects, NOUN)
        });
        if matches!(response, Response::Submitted { .. }) {
            self.reports_submitted.fetch_add(batch, Ordering::Relaxed);
        }
        response
    }
}

impl crate::frontend::RequestHandler for CampaignRegistry {
    fn handle(&self, request: Request) -> Response {
        // `Type::method` resolves to the inherent `handle` above, not
        // back into this trait method.
        CampaignRegistry::handle(self, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dptd_core::roles::PerturbedReport;
    use std::sync::Mutex;

    /// The raw slot handle the poisoning test locks directly, as the
    /// panicking worker it imitates would.
    struct RawSlot {
        state: Arc<Mutex<CampaignState>>,
    }

    impl CampaignRegistry {
        fn slot(&self, campaign: &str) -> Option<RawSlot> {
            self.host.slot(campaign).map(|state| RawSlot { state })
        }
    }

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
            budget_epsilon: 1.0,
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

    fn registry() -> CampaignRegistry {
        CampaignRegistry::new(RegistryConfig::default())
    }

    fn create(reg: &CampaignRegistry, id: &str, s: CampaignSpec) -> Response {
        reg.handle(Request::CreateCampaign {
            campaign: id.to_string(),
            spec: s,
        })
    }

    #[test]
    fn campaign_lifecycle_round_trips() {
        let reg = registry();
        assert_eq!(
            create(&reg, "c", spec(2, 64)),
            Response::Created { resumed_rounds: 0 }
        );
        assert_eq!(reg.campaign_count(), 1);

        let resp = reg.handle(Request::SubmitReports {
            campaign: "c".to_string(),
            reports: vec![stamped(0, 0, 1, 1.0), stamped(0, 1, 2, 2.0)],
            ctx: None,
        });
        assert_eq!(resp, Response::Submitted { queued: 2 });

        let resp = reg.handle(Request::CloseRound {
            campaign: "c".to_string(),
            epoch: 0,
        });
        let Response::RoundClosed {
            epoch, accepted, ..
        } = resp
        else {
            panic!("expected RoundClosed, got {resp:?}");
        };
        assert_eq!((epoch, accepted), (0, 2));

        let resp = reg.handle(Request::QueryBudget {
            campaign: "c".to_string(),
        });
        let Response::Budget { debits, .. } = resp else {
            panic!("expected Budget, got {resp:?}");
        };
        assert_eq!(debits, vec![1, 1]);
        assert_eq!(reg.stats().rounds_closed, 1);
        assert_eq!(reg.stats().reports_submitted, 2);
    }

    #[test]
    fn duplicate_ids_and_unknown_campaigns_are_typed_errors() {
        let reg = registry();
        create(&reg, "c", spec(2, 64));
        let resp = create(&reg, "c", spec(2, 64));
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::CampaignExists,
                    ..
                }
            ),
            "{resp:?}"
        );
        let resp = reg.handle(Request::QueryTruths {
            campaign: "ghost".to_string(),
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::UnknownCampaign,
                ..
            }
        ));
    }

    #[test]
    fn submission_queue_is_bounded_and_batch_atomic() {
        let reg = registry();
        create(&reg, "c", spec(8, 3));
        let batch: Vec<_> = (0..3).map(|u| stamped(0, u, 1, u as f64)).collect();
        assert_eq!(
            reg.handle(Request::SubmitReports {
                campaign: "c".to_string(),
                reports: batch,
                ctx: None,
            }),
            Response::Submitted { queued: 3 }
        );
        // One more report would overflow: Busy, and nothing taken.
        assert_eq!(
            reg.handle(Request::SubmitReports {
                campaign: "c".to_string(),
                reports: vec![stamped(0, 3, 1, 3.0)],
                ctx: None,
            }),
            Response::Busy {
                queued: 3,
                capacity: 3
            }
        );
        // Closing drains the queue; submissions flow again.
        let resp = reg.handle(Request::CloseRound {
            campaign: "c".to_string(),
            epoch: 0,
        });
        assert!(matches!(resp, Response::RoundClosed { .. }), "{resp:?}");
        assert_eq!(
            reg.handle(Request::SubmitReports {
                campaign: "c".to_string(),
                reports: vec![stamped(1, 3, 1, 3.0)],
                ctx: None,
            }),
            Response::Submitted { queued: 1 }
        );
    }

    #[test]
    fn wrong_epoch_submissions_and_closes_are_refused() {
        let reg = registry();
        create(&reg, "c", spec(2, 64));
        let resp = reg.handle(Request::SubmitReports {
            campaign: "c".to_string(),
            reports: vec![stamped(5, 0, 1, 1.0)],
            ctx: None,
        });
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::InvalidRequest,
                    ..
                }
            ),
            "{resp:?}"
        );
        let resp = reg.handle(Request::CloseRound {
            campaign: "c".to_string(),
            epoch: 3,
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::InvalidRequest,
                ..
            }
        ));
        // Out-of-population users are refused at submit, with nothing
        // queued.
        let resp = reg.handle(Request::SubmitReports {
            campaign: "c".to_string(),
            reports: vec![stamped(0, 99, 1, 1.0)],
            ctx: None,
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::InvalidRequest,
                ..
            }
        ));
    }

    #[test]
    fn budget_exhaustion_surfaces_as_a_typed_wire_error() {
        let reg = registry();
        // (0.5, 0) per round against a (1.0, 0) budget: two rounds each.
        create(&reg, "c", spec(2, 64));
        for epoch in 0..2u64 {
            reg.handle(Request::SubmitReports {
                campaign: "c".to_string(),
                reports: vec![stamped(epoch, 0, 1, 1.0), stamped(epoch, 1, 2, 2.0)],
                ctx: None,
            });
            let resp = reg.handle(Request::CloseRound {
                campaign: "c".to_string(),
                epoch,
            });
            assert!(matches!(resp, Response::RoundClosed { .. }), "{resp:?}");
        }
        // Round 3: everyone is spent out — a typed BudgetExhausted, and
        // the round stays retryable (epoch does not advance).
        reg.handle(Request::SubmitReports {
            campaign: "c".to_string(),
            reports: vec![stamped(2, 0, 1, 1.0), stamped(2, 1, 2, 2.0)],
            ctx: None,
        });
        let resp = reg.handle(Request::CloseRound {
            campaign: "c".to_string(),
            epoch: 2,
        });
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::BudgetExhausted,
                    ..
                }
            ),
            "{resp:?}"
        );
        let resp = reg.handle(Request::QueryBudget {
            campaign: "c".to_string(),
        });
        let Response::Budget {
            exhausted, debits, ..
        } = resp
        else {
            panic!("expected Budget, got {resp:?}");
        };
        assert_eq!(exhausted, 2);
        assert_eq!(debits, vec![2, 2]); // the failed round debited nothing
    }

    #[test]
    fn one_round_of_lookahead_is_buffered_and_promoted() {
        let reg = registry();
        create(&reg, "c", spec(4, 64));
        // Next round is 0; an epoch-1 report parks in the lookahead
        // buffer instead of being refused.
        assert_eq!(
            reg.handle(Request::SubmitReports {
                campaign: "c".to_string(),
                reports: vec![stamped(1, 2, 1, 2.0)],
                ctx: None,
            }),
            Response::Submitted { queued: 1 }
        );
        // Epoch 2 is beyond the one-round lookahead: refused.
        let resp = reg.handle(Request::SubmitReports {
            campaign: "c".to_string(),
            reports: vec![stamped(2, 0, 1, 1.0)],
            ctx: None,
        });
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::InvalidRequest,
                    ..
                }
            ),
            "{resp:?}"
        );
        // Mixed-epoch batches are refused outright.
        let resp = reg.handle(Request::SubmitReports {
            campaign: "c".to_string(),
            reports: vec![stamped(0, 0, 1, 1.0), stamped(1, 1, 2, 2.0)],
            ctx: None,
        });
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::InvalidRequest,
                    ..
                }
            ),
            "{resp:?}"
        );
        // Round 0 closes over its own reports only…
        reg.handle(Request::SubmitReports {
            campaign: "c".to_string(),
            reports: vec![stamped(0, 0, 1, 1.0), stamped(0, 1, 2, 2.0)],
            ctx: None,
        });
        let resp = reg.handle(Request::CloseRound {
            campaign: "c".to_string(),
            epoch: 0,
        });
        let Response::RoundClosed { accepted, .. } = resp else {
            panic!("expected RoundClosed, got {resp:?}");
        };
        assert_eq!(accepted, 2);
        // …and the parked epoch-1 report was promoted: round 1 sees it.
        let resp = reg.handle(Request::CloseRound {
            campaign: "c".to_string(),
            epoch: 1,
        });
        let Response::RoundClosed { accepted, .. } = resp else {
            panic!("expected RoundClosed, got {resp:?}");
        };
        assert_eq!(accepted, 1);
    }

    #[test]
    fn metrics_are_observable_per_campaign() {
        let reg = registry();
        create(&reg, "c", spec(2, 64));
        reg.handle(Request::SubmitReports {
            campaign: "c".to_string(),
            reports: vec![stamped(0, 0, 1, 1.0)],
            ctx: None,
        });
        let resp = reg.handle(Request::QueryMetrics {
            campaign: "c".to_string(),
        });
        let Response::Metrics { metrics } = resp else {
            panic!("expected Metrics, got {resp:?}");
        };
        assert_eq!(metrics.queue_depth, 1);
        assert_eq!(metrics.epochs_merged, 0);
        reg.handle(Request::CloseRound {
            campaign: "c".to_string(),
            epoch: 0,
        });
        let resp = reg.handle(Request::QueryMetrics {
            campaign: "c".to_string(),
        });
        let Response::Metrics { metrics } = resp else {
            panic!("expected Metrics, got {resp:?}");
        };
        assert_eq!(metrics.queue_depth, 0);
        assert_eq!(metrics.epochs_merged, 1);
        assert_eq!(metrics.reports_accepted, 1);
    }

    #[test]
    fn cluster_peer_frames_are_refused_by_a_plain_server() {
        let reg = registry();
        create(&reg, "c", spec(2, 64));
        for req in [
            Request::NodeHello {
                node_id: 0,
                num_nodes: 3,
            },
            Request::CloseRoundPrepare {
                campaign: "c".to_string(),
                epoch: 0,
                refused: vec![],
                ctx: None,
            },
            Request::QueryLedger {
                campaign: "c".to_string(),
                upto: u64::MAX,
            },
        ] {
            let resp = reg.handle(req);
            assert!(
                matches!(
                    resp,
                    Response::Error {
                        code: ErrorCode::InvalidRequest,
                        ..
                    }
                ),
                "{resp:?}"
            );
        }
    }

    #[test]
    fn poisoned_campaign_yields_a_typed_error_frame_not_a_panic() {
        let reg = registry();
        create(&reg, "c", spec(2, 64));
        create(&reg, "healthy", spec(2, 64));

        // Poison campaign `c`'s slot: a worker panics while holding its
        // state lock, exactly what a panic mid-`run_round` looks like.
        let slot = reg.slot("c").expect("campaign exists");
        std::thread::spawn(move || {
            let _guard = slot.state.lock().expect("first locker");
            panic!("worker dies holding the campaign lock");
        })
        .join()
        .expect_err("the poisoning thread must have panicked");

        // Every request on the quarantined campaign gets a typed error
        // frame — the connection stays alive, nothing panics.
        for req in [
            Request::SubmitReports {
                campaign: "c".to_string(),
                reports: vec![stamped(0, 0, 1, 1.0)],
                ctx: None,
            },
            Request::CloseRound {
                campaign: "c".to_string(),
                epoch: 0,
            },
            Request::QueryTruths {
                campaign: "c".to_string(),
            },
            Request::QueryMetrics {
                campaign: "c".to_string(),
            },
            Request::QueryBudget {
                campaign: "c".to_string(),
            },
        ] {
            let resp = reg.handle(req);
            assert!(
                matches!(
                    resp,
                    Response::Error {
                        code: ErrorCode::CampaignQuarantined,
                        ..
                    }
                ),
                "{resp:?}"
            );
        }

        // Other campaigns — and the registry itself — keep serving.
        assert_eq!(reg.campaign_count(), 2);
        let resp = reg.handle(Request::SubmitReports {
            campaign: "healthy".to_string(),
            reports: vec![stamped(0, 0, 1, 1.0)],
            ctx: None,
        });
        assert_eq!(resp, Response::Submitted { queued: 1 });
        // Shutdown still drains the quarantined slot without panicking.
        reg.finalize();
        assert_eq!(reg.campaign_count(), 0);
    }

    #[test]
    fn durable_creates_need_a_wal_root_and_take_the_writer_lock() {
        let reg = registry();
        let durable = CampaignSpec {
            stream_tag: 0,
            durable: true,
            ..spec(2, 64)
        };
        let resp = create(&reg, "c", durable);
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::WalRefused,
                    ..
                }
            ),
            "{resp:?}"
        );

        let root = std::env::temp_dir().join(format!(
            "dptd-registry-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let reg = CampaignRegistry::new(RegistryConfig {
            wal_root: Some(root.clone()),
            ..RegistryConfig::default()
        });
        assert_eq!(
            create(&reg, "c", durable),
            Response::Created { resumed_rounds: 0 }
        );
        // The campaign's WAL dir is locked: an external writer is
        // refused while the campaign lives.
        assert!(matches!(
            WalLock::acquire(&root.join("c")),
            Err(dptd_engine::WalError::Locked { .. })
        ));
        let _ = std::fs::remove_dir_all(&root);
    }
}
