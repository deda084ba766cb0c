//! Multi-round sensing campaigns.
//!
//! Real crowd-sensing deployments run in waves: each round brings new
//! micro-tasks (new hallway segments, new grid cells) to the same user
//! population. [`CampaignDriver`] runs them: each round is a stream of
//! [`StampedReport`]s executed by a pluggable [`RoundBackend`] (the
//! in-process [`SimBackend`] here, or the sharded `dptd-engine`
//! backend), with **per-user** budget accounting through
//! [`BudgetAccountant`]: a user whose next debit would overshoot the
//! campaign budget refuses to submit, and dropped/late reports debit
//! nothing.
//!
//! Both backends apply the identical server pipeline — deadline cut-off,
//! first-wins de-duplication, one [`StreamingCrh`] ingest per round — so
//! a fixed report stream produces **bit-identical** truths and weights on
//! either, which is what lets the scalable path replace the simulator
//! under test.

use dptd_ldp::PrivacyLoss;
use dptd_truth::streaming::StreamingCrh;
use dptd_truth::{Loss, ObservationMatrix};

use crate::budget::BudgetAccountant;
use crate::dedup::DedupFilter;
use crate::message::StampedReport;
use crate::ProtocolError;

/// One round's input to a [`RoundBackend`]: the perturbed, time-stamped
/// reports of everyone who chose to submit, in stream (delivery) order.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundInput {
    /// The epoch id stamped on this round's reports.
    pub epoch: u64,
    /// Objects this round's micro-tasks cover.
    pub num_objects: usize,
    /// Deadline in virtual µs; reports stamped later are dropped as late.
    pub deadline_us: u64,
    /// The round's report stream. Backends process it in order: the
    /// first on-time report per user wins, exactly as the streaming
    /// engine's shard queues would see it.
    pub reports: Vec<StampedReport>,
}

/// What a [`RoundBackend`] produced for one round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutput {
    /// Estimated truths for this round's objects.
    pub truths: Vec<f64>,
    /// Full-population weights after ingesting the round.
    pub weights: Vec<f64>,
    /// Users whose report was aggregated, ascending.
    pub accepted_users: Vec<usize>,
    /// Duplicate submissions discarded (first-wins).
    pub duplicates_discarded: u64,
    /// Reports dropped for missing the deadline.
    pub late_dropped: u64,
}

/// A round-execution strategy for [`CampaignDriver`].
///
/// Implementations must apply the canonical server pipeline — deadline
/// cut-off, first-wins de-duplication in stream order, then exactly one
/// [`StreamingCrh`] ingest over the surviving reports — so that any two
/// backends fed the same stream produce bit-identical truths and
/// weights. The in-process reference is [`SimBackend`]; the scalable
/// implementation is `dptd_engine::EngineBackend`.
pub trait RoundBackend {
    /// A short human-readable backend name (`"sim"`, `"engine"`, …).
    fn name(&self) -> &'static str;

    /// The fixed population size this backend aggregates over.
    fn num_users(&self) -> usize;

    /// Hand over part of round `epoch`'s stream before the round closes,
    /// in stream order. The next [`RoundBackend::run_round`] closes the
    /// round over every staged report followed by `input.reports`, with
    /// the result of one run over that concatenation; whether it succeeds
    /// or fails, nothing staged outlives it.
    ///
    /// # Errors
    ///
    /// Implementations may refuse malformed input up front (a report of
    /// another epoch, a user outside the population), staging nothing.
    fn stage(&mut self, epoch: u64, reports: Vec<StampedReport>) -> Result<(), ProtocolError>;

    /// Execute one round over the staged reports followed by
    /// `input.reports`.
    ///
    /// # Errors
    ///
    /// Implementations fail when the surviving reports cannot cover every
    /// object, and may fail on malformed input (user ids outside the
    /// population, mismatched sizing).
    fn run_round(&mut self, input: RoundInput) -> Result<RoundOutput, ProtocolError>;
}

/// The in-process reference backend: the discrete-event simulator's
/// server path (deadline, first-wins dedup, streaming ingest) driven
/// directly by the stamped stream, single-threaded.
#[derive(Debug, Clone)]
pub struct SimBackend {
    streaming: StreamingCrh,
    /// Reports staged for the next round, in stream order.
    staged: Vec<StampedReport>,
}

impl SimBackend {
    /// A backend over a fixed population with fresh (uniform) weights.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty population.
    pub fn new(num_users: usize, loss: Loss) -> Result<Self, ProtocolError> {
        let streaming = StreamingCrh::new(num_users, loss)
            .map_err(|e| ProtocolError::Core(dptd_core::CoreError::Truth(e)))?;
        Ok(Self {
            streaming,
            staged: Vec::new(),
        })
    }

    /// The backing streaming estimator.
    pub fn streaming(&self) -> &StreamingCrh {
        &self.streaming
    }
}

impl RoundBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn num_users(&self) -> usize {
        self.streaming.num_users()
    }

    /// Buffers the batch: the reference filters the whole round at its
    /// close.
    fn stage(&mut self, _epoch: u64, reports: Vec<StampedReport>) -> Result<(), ProtocolError> {
        self.staged.extend(reports);
        Ok(())
    }

    fn run_round(&mut self, input: RoundInput) -> Result<RoundOutput, ProtocolError> {
        let num_users = self.streaming.num_users();
        let mut dedup = DedupFilter::new(num_users);
        let mut late_dropped = 0u64;
        let staged = std::mem::take(&mut self.staged);
        for stamped in staged.into_iter().chain(input.reports) {
            if stamped.epoch != input.epoch {
                return Err(ProtocolError::InvalidParameter {
                    name: "report.epoch",
                    value: stamped.epoch as f64,
                    constraint: "every report in a campaign round must carry the round's epoch",
                });
            }
            let user = stamped.report.user;
            if user >= num_users {
                return Err(ProtocolError::InvalidParameter {
                    name: "report.user",
                    value: user as f64,
                    constraint: "must be inside the campaign population",
                });
            }
            // Deadline before dedup, mirroring the engine's shard path: a
            // late duplicate counts as late, not as a duplicate.
            if stamped.sent_at_us > input.deadline_us {
                late_dropped += 1;
                continue;
            }
            dedup.accept(user, stamped.report);
        }
        let duplicates_discarded = dedup.duplicates_discarded() as u64;

        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); num_users];
        let mut accepted_users = Vec::with_capacity(dedup.len());
        for (user, report) in dedup.into_slot_ordered() {
            accepted_users.push(user);
            rows[user] = report.values;
        }
        let batch = ObservationMatrix::from_sparse_rows(input.num_objects, &rows)
            .map_err(|e| ProtocolError::Core(dptd_core::CoreError::Truth(e)))?;
        let truths = self
            .streaming
            .ingest(&batch)
            .map_err(|e| ProtocolError::Core(dptd_core::CoreError::Truth(e)))?;

        Ok(RoundOutput {
            truths,
            weights: self.streaming.weights().to_vec(),
            accepted_users,
            duplicates_discarded,
            late_dropped,
        })
    }
}

/// Sizing and privacy policy for a [`CampaignDriver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Objects per round.
    pub num_objects: usize,
    /// Per-round submission deadline (virtual µs).
    pub deadline_us: u64,
    /// The `(ε, δ)` one aggregated report costs its user.
    pub per_round_loss: PrivacyLoss,
    /// The campaign-wide `(ε, δ)` ceiling per user.
    pub budget: PrivacyLoss,
}

/// What one driven round reported.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverRound {
    /// The round's epoch id.
    pub epoch: u64,
    /// Estimated truths for the round's objects.
    pub truths: Vec<f64>,
    /// Full-population weights after the round.
    pub weights: Vec<f64>,
    /// Reports aggregated this round.
    pub accepted: usize,
    /// Users that refused this round because their budget was exhausted
    /// (their reports never reached the backend).
    pub refused_users: usize,
    /// Duplicates the backend discarded.
    pub duplicates_discarded: u64,
    /// Reports the backend dropped as late.
    pub late_dropped: u64,
    /// Worst cumulative privacy loss across the population after the
    /// round's debits.
    pub max_spent: PrivacyLoss,
}

/// Drives a multi-round campaign through a pluggable [`RoundBackend`],
/// enforcing per-user privacy budgets.
///
/// Per round: users whose budget cannot afford another submission are
/// filtered out *before* the backend runs (they refuse, so not even a
/// perturbed report leaves the device); the backend aggregates the rest;
/// and only users whose report was actually **accepted** are debited —
/// late, duplicate-discarded and churned-out reports debit nothing.
///
/// # Example
///
/// ```
/// use dptd_core::roles::PerturbedReport;
/// use dptd_ldp::PrivacyLoss;
/// use dptd_protocol::campaign::{CampaignConfig, CampaignDriver, SimBackend};
/// use dptd_protocol::message::StampedReport;
/// use dptd_truth::Loss;
///
/// # fn main() -> Result<(), dptd_protocol::ProtocolError> {
/// let per_round = PrivacyLoss::new(0.5, 0.0).map_err(dptd_core::CoreError::from)?;
/// let budget = PrivacyLoss::new(1.0, 0.0).map_err(dptd_core::CoreError::from)?;
/// let config = CampaignConfig {
///     num_objects: 1,
///     deadline_us: 1_000,
///     per_round_loss: per_round,
///     budget,
/// };
/// let mut driver = CampaignDriver::new(SimBackend::new(2, Loss::Squared)?, config)?;
/// let reports = |epoch| {
///     (0..2)
///         .map(|user| StampedReport {
///             epoch,
///             sent_at_us: 10,
///             report: PerturbedReport { user, values: vec![(0, user as f64)] },
///         })
///         .collect::<Vec<_>>()
/// };
/// let round = driver.run_round(0, reports(0))?;
/// assert_eq!(round.accepted, 2);
/// // A 1.0 budget in 0.5 steps affords exactly two rounds.
/// driver.run_round(1, reports(1))?;
/// assert!(driver.run_round(2, reports(2)).is_err()); // everyone refuses
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CampaignDriver<B> {
    backend: B,
    config: CampaignConfig,
    accountant: BudgetAccountant,
    rounds_run: u32,
    /// Reports [`CampaignDriver::stage`] passed to the backend since the
    /// last close.
    staged_reports: usize,
    /// Users whose staged reports were withheld since the last close, in
    /// stream order with repeats: [`CampaignDriver::run_round`] sorts and
    /// dedups them once, at the close.
    staged_refused: Vec<usize>,
}

impl<B: RoundBackend> CampaignDriver<B> {
    /// Wrap `backend` with budget accounting under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] for zero objects or a
    /// budget that cannot afford a single round.
    pub fn new(backend: B, config: CampaignConfig) -> Result<Self, ProtocolError> {
        if config.num_objects == 0 {
            return Err(ProtocolError::InvalidParameter {
                name: "num_objects",
                value: 0.0,
                constraint: "must be positive",
            });
        }
        if config.deadline_us == 0 {
            return Err(ProtocolError::InvalidParameter {
                name: "deadline_us",
                value: 0.0,
                constraint: "must be positive",
            });
        }
        let accountant =
            BudgetAccountant::new(backend.num_users(), config.per_round_loss, config.budget)?;
        Ok(Self {
            backend,
            config,
            accountant,
            rounds_run: 0,
            staged_reports: 0,
            staged_refused: Vec::new(),
        })
    }

    /// Resume a campaign from recovered mid-campaign state: a backend
    /// already carrying the replayed estimator, the per-user debit ledger
    /// the write-ahead log restored, and the number of rounds the crashed
    /// run completed (so round indices continue where they stopped).
    ///
    /// # Errors
    ///
    /// Everything [`CampaignDriver::new`] rejects, plus
    /// [`ProtocolError::InvalidParameter`] when the ledger snapshot does
    /// not match the backend population or overshoots the budget.
    pub fn resume(
        backend: B,
        config: CampaignConfig,
        rounds_debited: Vec<u32>,
        rounds_run: u32,
    ) -> Result<Self, ProtocolError> {
        if rounds_debited.len() != backend.num_users() {
            return Err(ProtocolError::InvalidParameter {
                name: "rounds_debited",
                value: rounds_debited.len() as f64,
                constraint: "ledger snapshot must cover the backend population",
            });
        }
        let mut driver = Self::new(backend, config)?;
        driver.accountant =
            BudgetAccountant::resume(config.per_round_loss, config.budget, rounds_debited)?;
        driver.rounds_run = rounds_run;
        Ok(driver)
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The wrapped backend, mutably — for maintenance operations between
    /// rounds (e.g. flushing a durable backend's log on orderly
    /// shutdown), never for running rounds directly.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Consume the driver, returning the backend (e.g. to read engine
    /// metrics after the campaign).
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// The privacy ledger.
    pub fn accountant(&self) -> &BudgetAccountant {
        &self.accountant
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Rounds completed.
    pub fn rounds_run(&self) -> u32 {
        self.rounds_run
    }

    /// Hand part of round `epoch`'s stream to the backend before the
    /// round closes ([`RoundBackend::stage`]), exhausted users' reports
    /// withheld now: the ledger only changes at a close, so this is the
    /// refusal [`CampaignDriver::run_round`] would apply.
    ///
    /// # Errors
    ///
    /// Propagates the backend's refusal; nothing is staged then.
    pub fn stage(
        &mut self,
        epoch: u64,
        mut reports: Vec<StampedReport>,
    ) -> Result<(), ProtocolError> {
        let mut refused = Vec::new();
        self.withhold(&mut reports, &mut refused);
        let passed = reports.len();
        self.backend.stage(epoch, reports)?;
        self.staged_reports += passed;
        self.staged_refused.extend(refused);
        Ok(())
    }

    /// Whether the open round has staged reports and withheld every one
    /// of them: each user who submitted so far is spent out.
    pub fn only_refusals_staged(&self) -> bool {
        self.staged_reports == 0 && !self.staged_refused.is_empty()
    }

    /// Close round `epoch` over everything staged for it followed by
    /// `reports` (stream order, as delivered).
    ///
    /// # Errors
    ///
    /// Propagates backend failures — including the round where so many
    /// users' budgets are exhausted that some object loses coverage.
    /// Nothing staged survives a failed round.
    pub fn run_round(
        &mut self,
        epoch: u64,
        mut reports: Vec<StampedReport>,
    ) -> Result<DriverRound, ProtocolError> {
        self.staged_reports = 0;
        let mut refused = std::mem::take(&mut self.staged_refused);
        self.withhold(&mut reports, &mut refused);
        refused.sort_unstable();
        refused.dedup();
        let refused_users = refused.len();

        let out = self.backend.run_round(RoundInput {
            epoch,
            num_objects: self.config.num_objects,
            deadline_us: self.config.deadline_us,
            reports,
        })?;

        // Debit only what the server consumed.
        for &user in &out.accepted_users {
            self.accountant.debit(user);
        }
        self.rounds_run += 1;

        Ok(DriverRound {
            epoch,
            truths: out.truths,
            weights: out.weights,
            accepted: out.accepted_users.len(),
            refused_users,
            duplicates_discarded: out.duplicates_discarded,
            late_dropped: out.late_dropped,
            max_spent: self.accountant.max_spent(),
        })
    }

    /// Refusal: exhausted users withhold every copy of their report.
    /// Filtered in place, each withheld user pushed onto `refused`; the
    /// refused set is normally empty.
    fn withhold(&self, reports: &mut Vec<StampedReport>, refused: &mut Vec<usize>) {
        let accountant = &self.accountant;
        reports.retain(|stamped| {
            let user = stamped.report.user;
            let withheld = user < accountant.num_users() && !accountant.can_spend(user);
            if withheld {
                refused.push(user);
            }
            !withheld
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dptd_core::roles::PerturbedReport;

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

    #[test]
    fn sim_backend_applies_deadline_then_dedup() {
        let mut backend = SimBackend::new(3, Loss::Squared).unwrap();
        let out = backend
            .run_round(RoundInput {
                epoch: 0,
                num_objects: 1,
                deadline_us: 100,
                reports: vec![
                    stamped(0, 0, 50, 1.0),
                    stamped(0, 0, 60, 9.0),  // duplicate: first wins
                    stamped(0, 1, 101, 2.0), // late
                    stamped(0, 1, 100, 2.0), // exactly at deadline: on time
                    stamped(0, 2, 10, 3.0),
                ],
            })
            .unwrap();
        assert_eq!(out.accepted_users, vec![0, 1, 2]);
        assert_eq!(out.duplicates_discarded, 1);
        assert_eq!(out.late_dropped, 1);
        assert!(out.truths[0] > 1.0 && out.truths[0] < 3.0);
        assert_eq!(out.weights.len(), 3);
    }

    #[test]
    fn sim_backend_rejects_mixed_epoch_stream() {
        let mut backend = SimBackend::new(2, Loss::Squared).unwrap();
        let err = backend
            .run_round(RoundInput {
                epoch: 3,
                num_objects: 1,
                deadline_us: 100,
                reports: vec![stamped(3, 0, 10, 1.0), stamped(2, 1, 11, 2.0)],
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidParameter { .. }));
    }

    #[test]
    fn sim_backend_rejects_out_of_population_user() {
        let mut backend = SimBackend::new(2, Loss::Squared).unwrap();
        let err = backend
            .run_round(RoundInput {
                epoch: 0,
                num_objects: 1,
                deadline_us: 100,
                reports: vec![stamped(0, 7, 10, 1.0)],
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidParameter { .. }));
    }

    fn driver_config(per_round: (f64, f64), budget: (f64, f64)) -> CampaignConfig {
        CampaignConfig {
            num_objects: 1,
            deadline_us: 1_000,
            per_round_loss: PrivacyLoss::new(per_round.0, per_round.1).unwrap(),
            budget: PrivacyLoss::new(budget.0, budget.1).unwrap(),
        }
    }

    #[test]
    fn driver_debits_only_accepted_reports() {
        let config = driver_config((0.5, 0.0), (1.0, 0.0));
        let mut driver =
            CampaignDriver::new(SimBackend::new(3, Loss::Squared).unwrap(), config).unwrap();
        // User 1 is late, user 2 sends a duplicate: only accepted reports
        // debit, and the duplicate debits once.
        let round = driver
            .run_round(
                0,
                vec![
                    stamped(0, 0, 10, 1.0),
                    stamped(0, 1, 2_000, 9.0), // late: no debit
                    stamped(0, 2, 20, 2.0),
                    stamped(0, 2, 30, 2.0), // duplicate: single debit
                ],
            )
            .unwrap();
        assert_eq!(round.accepted, 2);
        assert_eq!(round.late_dropped, 1);
        assert_eq!(round.duplicates_discarded, 1);
        let ledger = driver.accountant();
        assert_eq!(ledger.rounds_debited(0), 1);
        assert_eq!(ledger.rounds_debited(1), 0);
        assert_eq!(ledger.rounds_debited(2), 1);
        assert!((round.max_spent.epsilon() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn driver_refuses_exhausted_users() {
        let config = driver_config((1.0, 0.0), (1.0, 0.0)); // one round each
        let mut driver =
            CampaignDriver::new(SimBackend::new(2, Loss::Squared).unwrap(), config).unwrap();
        let r0 = driver
            .run_round(0, vec![stamped(0, 0, 1, 1.0), stamped(0, 1, 2, 2.0)])
            .unwrap();
        assert_eq!(r0.accepted, 2);
        assert_eq!(r0.refused_users, 0);
        // Both users exhausted: their reports are withheld, the round
        // starves and errors, and nothing further is debited.
        let err = driver
            .run_round(1, vec![stamped(1, 0, 1, 1.0), stamped(1, 1, 2, 2.0)])
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Core(_)), "{err:?}");
        assert_eq!(driver.accountant().rounds_debited(0), 1);
        assert_eq!(driver.accountant().exhausted_count(), 2);
    }

    #[test]
    fn driver_resume_restores_ledger_and_round_count() {
        let config = driver_config((0.5, 0.0), (1.0, 0.0));
        let mut original =
            CampaignDriver::new(SimBackend::new(2, Loss::Squared).unwrap(), config).unwrap();
        original
            .run_round(0, vec![stamped(0, 0, 1, 1.0), stamped(0, 1, 2, 2.0)])
            .unwrap();

        let resumed = CampaignDriver::resume(
            SimBackend::new(2, Loss::Squared).unwrap(),
            config,
            original.accountant().debits_by_user().to_vec(),
            original.rounds_run(),
        )
        .unwrap();
        assert_eq!(resumed.accountant(), original.accountant());
        assert_eq!(resumed.rounds_run(), 1);

        // A snapshot sized for a different population is rejected.
        let err = CampaignDriver::resume(
            SimBackend::new(2, Loss::Squared).unwrap(),
            config,
            vec![0; 5],
            1,
        );
        assert!(err.is_err());
    }

    #[test]
    fn driver_validates_config() {
        let bad_objects = CampaignConfig {
            num_objects: 0,
            ..driver_config((0.5, 0.0), (1.0, 0.0))
        };
        assert!(
            CampaignDriver::new(SimBackend::new(2, Loss::Squared).unwrap(), bad_objects).is_err()
        );
        let bad_deadline = CampaignConfig {
            deadline_us: 0,
            ..driver_config((0.5, 0.0), (1.0, 0.0))
        };
        assert!(
            CampaignDriver::new(SimBackend::new(2, Loss::Squared).unwrap(), bad_deadline).is_err()
        );
    }
}
