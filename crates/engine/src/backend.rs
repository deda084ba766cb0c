//! The engine-powered campaign round backend.
//!
//! [`EngineBackend`] adapts the sharded streaming [`Engine`] to the
//! protocol crate's [`RoundBackend`] trait: every campaign round becomes
//! one engine epoch, the backend carries the global [`StreamingCrh`]
//! between rounds, lending it to each round's close, so user weights
//! sharpen across the campaign, and [`EngineMetrics`] accumulate over
//! rounds.
//!
//! A round's reports may also arrive in batches while it is open
//! ([`RoundBackend::stage`]): each is filtered into the engine's shards
//! at once ([`Engine::stage`]). The reports handed over with the close
//! are staged the same way, and the close then finishes the shards and
//! merges.
//!
//! Because the engine's cross-shard merge is bit-identical to the
//! single-shard streaming reference, a campaign driven through this
//! backend produces **exactly** the truths and weights of the in-process
//! [`dptd_protocol::campaign::SimBackend`] on the same stream — the
//! equivalence the campaign proptests pin down for 1/4/16 shards and
//! 1–8 workers.

use std::time::Instant;

use dptd_protocol::campaign::{RoundBackend, RoundInput, RoundOutput};
use dptd_protocol::message::StampedReport;
use dptd_protocol::ProtocolError;
use dptd_truth::streaming::{Committed, StreamingCrh};
use dptd_truth::Loss;

use crate::engine::{Engine, EpochOutcome};
use crate::metrics::EngineMetrics;
use crate::recovery::{recover_replay, RecoveredState};
use crate::store::StoreFs;
use crate::wal::{RecordLog, Replay, RoundRecord, WalPolicy, WalWriter};
use crate::EngineError;

/// A [`RoundBackend`] that executes each campaign round as one epoch of
/// the sharded streaming [`Engine`].
///
/// # Example
///
/// ```
/// use dptd_engine::{Engine, EngineBackend, EngineConfig};
/// use dptd_protocol::campaign::{RoundBackend, RoundInput};
/// use dptd_core::roles::PerturbedReport;
/// use dptd_protocol::message::StampedReport;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = Engine::new(EngineConfig {
///     num_users: 4,
///     num_objects: 1,
///     num_shards: 2,
///     epoch_deadline_us: 1_000,
///     ..EngineConfig::default()
/// })?;
/// let mut backend = EngineBackend::new(engine)?;
/// let reports = (0..4)
///     .map(|user| StampedReport {
///         epoch: 0,
///         sent_at_us: 10,
///         report: PerturbedReport { user, values: vec![(0, user as f64)] },
///     })
///     .collect();
/// let out = backend.run_round(RoundInput {
///     epoch: 0,
///     num_objects: 1,
///     deadline_us: 1_000,
///     reports,
/// })?;
/// assert_eq!(out.accepted_users, vec![0, 1, 2, 3]);
/// assert_eq!(backend.metrics().epochs_merged, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EngineBackend {
    engine: Engine,
    /// The carried-over global estimator, lent to the engine for each
    /// round. A close only mutates it when its merge succeeds, so the
    /// backend recovers from a starved round exactly like the sim
    /// backend, without a checkpoint. `None` only if a previous call
    /// panicked mid-round.
    state: Option<StreamingCrh>,
    metrics: EngineMetrics,
    rounds: u64,
    /// Durability state, present only when a write-ahead log was
    /// requested — non-WAL backends carry none of it (in particular not
    /// the `O(num_users)` debit mirror). A round is committed iff its
    /// record is durably appended: an append failure puts the touched
    /// users' losses and debits back, so memory never runs ahead of the
    /// log.
    wal: Option<WalState>,
}

/// Everything the backend tracks only because it is logging.
#[derive(Debug)]
struct WalState {
    /// The record log rounds commit through: a single-segment
    /// [`WalWriter`] or the segmented [`crate::store::SegmentStore`].
    writer: Box<dyn RecordLog>,
    /// The privacy policy stamped into every record.
    policy: WalPolicy,
    /// Mirror of the campaign driver's per-user debit ledger (one debit
    /// per accepted report — the driver's contract), persisted in every
    /// record so recovery can restore privacy accounting.
    debits: Vec<u32>,
    /// Last epoch durably logged; WAL-enabled rounds must use strictly
    /// increasing epochs so replay stays unambiguous.
    last_epoch: Option<u64>,
}

impl EngineBackend {
    /// Wrap `engine` with fresh (uniform) carried-over weights.
    ///
    /// # Errors
    ///
    /// Propagates estimator construction failures.
    pub fn new(engine: Engine) -> Result<Self, EngineError> {
        let cfg = engine.config();
        let state = StreamingCrh::new(cfg.num_users, cfg.loss)?;
        Ok(Self {
            engine,
            state: Some(state),
            metrics: EngineMetrics::default(),
            rounds: 0,
            wal: None,
        })
    }

    /// Wrap `engine` with a single-segment epoch write-ahead log
    /// ([`WalWriter`] over `fs`): replay (and torn-tail-repair) whatever
    /// its segment already holds, resume from the recovered mid-campaign
    /// state, and append one durable
    /// [`EpochRecord`](crate::wal::EpochRecord) per successful round from
    /// here on.
    ///
    /// `policy` is the privacy policy the campaign accounts debits under
    /// (the driver's per-round loss and budget); it is stamped into every
    /// record, and a log whose records were accounted under a
    /// **different** policy is rejected rather than silently
    /// reinterpreted — the debit counts would misstate real spend.
    ///
    /// Returns the recovered state alongside the backend so the caller
    /// can resume the campaign layer too (`CampaignDriver::resume` wants
    /// the debit ledger and the next epoch id).
    ///
    /// # Errors
    ///
    /// Propagates log I/O, replay and recovery failures, including the
    /// policy mismatch above.
    pub fn with_wal(
        engine: Engine,
        fs: Box<dyn StoreFs>,
        policy: WalPolicy,
    ) -> Result<(Self, RecoveredState), EngineError> {
        let (writer, replay) = WalWriter::open(fs).map_err(EngineError::Wal)?;
        Self::with_log(engine, Box::new(writer), &replay, policy)
    }

    /// Wrap `engine` over an already-opened record log (a
    /// [`WalWriter`], or the segmented
    /// [`SegmentStore`](crate::store::SegmentStore)) and the [`Replay`]
    /// its open produced. This is [`EngineBackend::with_wal`] with the
    /// log layout decoupled: recovery, the policy check, and the
    /// commit-equals-durable barrier are identical for every layout.
    ///
    /// # Errors
    ///
    /// Everything [`recover_replay`] rejects, including the
    /// policy/stream mismatch described on [`EngineBackend::with_wal`].
    pub fn with_log(
        engine: Engine,
        log: Box<dyn RecordLog>,
        replay: &Replay,
        policy: WalPolicy,
    ) -> Result<(Self, RecoveredState), EngineError> {
        let cfg = *engine.config();
        let recovered = recover_replay(replay, cfg.num_users, cfg.loss, Some(&policy))?;
        let backend = Self {
            engine,
            state: Some(recovered.crh.clone()),
            metrics: EngineMetrics::default(),
            rounds: recovered.records_applied,
            wal: Some(WalState {
                writer: log,
                policy,
                debits: recovered.rounds_debited.clone(),
                last_epoch: recovered.last_epoch,
            }),
        };
        Ok((backend, recovered))
    }

    /// Flush the record log (if any) to stable storage — the orderly
    /// shutdown path, so an exiting server never relies on `Drop` order
    /// for durability.
    ///
    /// # Errors
    ///
    /// Propagates the log's sync failure.
    pub fn sync_log(&mut self) -> Result<(), EngineError> {
        match &mut self.wal {
            Some(wal) => wal.writer.sync().map_err(EngineError::Wal),
            None => Ok(()),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Metrics accumulated over every round run so far.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Rounds committed so far — including, after
    /// [`EngineBackend::with_wal`] on a non-empty log, the rounds the
    /// crashed run had already durably committed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The carried estimator's current per-user weights.
    ///
    /// # Panics
    ///
    /// Panics if a previous round panicked mid-flight (poisoned backend).
    pub fn current_weights(&self) -> &[f64] {
        self.state
            .as_ref()
            .expect("backend poisoned by an earlier panicked round")
            .weights()
    }

    /// FNV-1a digest of [`EngineBackend::current_weights`], memoised
    /// per round: every close hashes it behind its weight refresh,
    /// beside its durable step.
    ///
    /// # Panics
    ///
    /// Panics if a previous round panicked mid-flight (poisoned backend).
    pub fn weights_digest(&self) -> u64 {
        self.state
            .as_ref()
            .expect("backend poisoned by an earlier panicked round")
            .weights_digest()
    }

    fn engine_err(e: EngineError) -> ProtocolError {
        ProtocolError::Backend {
            backend: "engine",
            message: e.to_string(),
        }
    }

    /// [`RoundBackend::run_round`] but for dropping what is staged when
    /// it fails.
    fn close_round(&mut self, input: RoundInput) -> Result<RoundOutput, ProtocolError> {
        let cfg = *self.engine.config();
        if input.num_objects != cfg.num_objects {
            return Err(ProtocolError::InvalidParameter {
                name: "num_objects",
                value: input.num_objects as f64,
                constraint: "round must match the engine's objects-per-epoch",
            });
        }
        if input.deadline_us != cfg.epoch_deadline_us {
            return Err(ProtocolError::InvalidParameter {
                name: "deadline_us",
                value: input.deadline_us as f64,
                constraint: "round must match the engine's epoch deadline",
            });
        }
        // A WAL-enabled backend requires strictly increasing epoch ids:
        // re-running an already-logged epoch would append a duplicate
        // record, and replay (which skips duplicates to avoid
        // double-charging budgets) would then disagree with the live
        // ledger.
        if let Some(wal) = &self.wal {
            if let Some(last) = wal.last_epoch {
                if input.epoch <= last {
                    return Err(ProtocolError::InvalidParameter {
                        name: "epoch",
                        value: input.epoch as f64,
                        constraint: "a WAL-enabled round must use an epoch past the logged ones",
                    });
                }
            }
        }
        // One campaign round is exactly one engine epoch: a report or a
        // staged epoch other than the round's is refused before staging.
        let staged = self.engine.staged_epoch();
        let tail = input.reports.iter().map(|r| r.epoch);
        if let Some(stray) = staged.into_iter().chain(tail).find(|&e| e != input.epoch) {
            return Err(ProtocolError::InvalidParameter {
                name: "report.epoch",
                value: stray as f64,
                constraint: "every report in a campaign round must carry the round's epoch",
            });
        }
        // The round's reports are staged like a served batch, without a
        // copy, and the staged epoch is then closed.
        let started = Instant::now();
        self.engine
            .stage(input.epoch, input.reports)
            .map_err(Self::engine_err)?;
        let mut state = self.state.take().ok_or(ProtocolError::Backend {
            backend: "engine",
            message: "backend poisoned by an earlier panicked round".to_string(),
        })?;

        // A failed round (e.g. coverage starvation once budgets bite)
        // leaves the campaign resumable without a checkpoint: the round
        // is a single epoch, and an epoch whose merge fails never touched
        // the borrowed estimator. Durable, the round commits iff its
        // record reaches the log: the merge runs the append as its step,
        // beside its weight refresh and digest, and takes the round back
        // if it fails, so the in-memory campaign never runs ahead of what
        // a crash could recover. Volatile, the step does nothing.
        let wal = &mut self.wal;
        let closed = self.engine.close(&mut state, |epoch, committed| {
            wal.as_mut()
                .map_or(Ok(()), |wal| wal.commit(epoch, cfg.loss, committed))
        });
        self.state = Some(state);
        let mut report = closed.map_err(Self::engine_err)?;
        report.metrics.elapsed = started.elapsed();

        // Nothing staged means the round had no reports at all. Counted
        // as not executed: no metrics, no round increment.
        let Some(EpochOutcome {
            truths,
            accepted_users,
            duplicates_discarded,
            late_dropped,
            ..
        }) = report.epoch
        else {
            return Err(ProtocolError::InsufficientCoverage {
                object: 0,
                reports_received: 0,
            });
        };

        self.metrics.absorb(&report.metrics);
        self.rounds += 1;

        Ok(RoundOutput {
            truths,
            weights: report.final_weights,
            accepted_users,
            duplicates_discarded: duplicates_discarded as u64,
            late_dropped,
        })
    }
}

impl RoundBackend for EngineBackend {
    fn name(&self) -> &'static str {
        "engine"
    }

    fn num_users(&self) -> usize {
        self.engine.config().num_users
    }

    /// Filters the batch into the engine's shards now
    /// ([`Engine::stage`]).
    fn stage(&mut self, epoch: u64, reports: Vec<StampedReport>) -> Result<(), ProtocolError> {
        self.engine.stage(epoch, reports).map_err(Self::engine_err)
    }

    fn run_round(&mut self, input: RoundInput) -> Result<RoundOutput, ProtocolError> {
        let closed = self.close_round(input);
        if closed.is_err() {
            // A refused round never reached the engine, so its staged
            // epoch is still parked; a failed run has dropped it already.
            self.engine.unstage();
        }
        closed
    }
}

impl WalState {
    /// A logged round's durable step, run by the merge once the round's
    /// losses are final: debit the accepted users, then append the
    /// round borrowed from the estimator and this ledger, under a
    /// `commit` span. A failed append takes the debits back (the merge
    /// takes the losses back).
    fn commit(
        &mut self,
        epoch: u64,
        loss: Loss,
        committed: Committed<'_>,
    ) -> Result<(), EngineError> {
        for &user in committed.users {
            self.debits[user] += 1;
        }
        let _span = dptd_obs::TraceScope::begin(dptd_obs::codes::COMMIT, epoch);
        let appended = self.writer.append_round(RoundRecord {
            epoch,
            batches_seen: committed.batches_seen as u64,
            loss,
            policy: self.policy,
            accepted_users: committed.users,
            cumulative_losses: committed.cumulative_losses,
            rounds_debited: &self.debits,
        });
        if let Err(e) = appended {
            for &user in committed.users {
                self.debits[user] -= 1;
            }
            return Err(EngineError::Wal(e));
        }
        self.last_epoch = Some(epoch);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use dptd_core::roles::PerturbedReport;
    use dptd_protocol::message::StampedReport;

    fn backend(users: usize, objects: usize, shards: usize) -> EngineBackend {
        let engine = Engine::new(EngineConfig {
            num_users: users,
            num_objects: objects,
            num_shards: shards,
            epoch_deadline_us: 1_000,
            ..EngineConfig::default()
        })
        .unwrap();
        EngineBackend::new(engine).unwrap()
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

    #[test]
    fn rounds_carry_weights_between_epochs() {
        let mut b = backend(3, 1, 2);
        let r0 = b
            .run_round(RoundInput {
                epoch: 0,
                num_objects: 1,
                deadline_us: 1_000,
                reports: vec![
                    stamped(0, 0, 1, 1.0),
                    stamped(0, 1, 2, 1.1),
                    stamped(0, 2, 3, 9.0),
                ],
            })
            .unwrap();
        let r1 = b
            .run_round(RoundInput {
                epoch: 1,
                num_objects: 1,
                deadline_us: 1_000,
                reports: vec![
                    stamped(1, 0, 1, 2.0),
                    stamped(1, 1, 2, 2.1),
                    stamped(1, 2, 3, 12.0),
                ],
            })
            .unwrap();
        // The outlier's weight share falls as evidence accumulates.
        let share = |w: &[f64]| w[2] / (w[0] + w[1] + w[2]);
        assert!(share(&r1.weights) <= share(&r0.weights) + 1e-9);
        assert_eq!(b.metrics().epochs_merged, 2);
        assert_eq!(b.metrics().reports_accepted, 6);
        assert_eq!(b.rounds(), 2);
    }

    #[test]
    fn sizing_mismatches_are_rejected_before_running() {
        let mut b = backend(3, 2, 2);
        let bad_objects = RoundInput {
            epoch: 0,
            num_objects: 1,
            deadline_us: 1_000,
            reports: vec![],
        };
        assert!(matches!(
            b.run_round(bad_objects),
            Err(ProtocolError::InvalidParameter { .. })
        ));
        let bad_deadline = RoundInput {
            epoch: 0,
            num_objects: 2,
            deadline_us: 7,
            reports: vec![],
        };
        assert!(matches!(
            b.run_round(bad_deadline),
            Err(ProtocolError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn mixed_epoch_stream_is_rejected_without_mutating_state() {
        let mut b = backend(2, 1, 1);
        let err = b
            .run_round(RoundInput {
                epoch: 1,
                num_objects: 1,
                deadline_us: 1_000,
                reports: vec![stamped(1, 0, 1, 1.0), stamped(0, 1, 2, 2.0)],
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidParameter { .. }));
        // The backend is not poisoned: a clean round still runs.
        assert_eq!(b.rounds(), 0);
        let ok = b.run_round(RoundInput {
            epoch: 1,
            num_objects: 1,
            deadline_us: 1_000,
            reports: vec![stamped(1, 0, 1, 1.0), stamped(1, 1, 2, 2.0)],
        });
        assert!(ok.is_ok());
    }

    /// A close refused before the engine runs — its tail holds a report
    /// of another epoch — drops what was staged for the round, so the
    /// retry closes over its own reports only.
    #[test]
    fn a_refused_close_leaves_nothing_staged() {
        let mut b = backend(4, 1, 2);
        b.stage(0, vec![stamped(0, 0, 1, 9.0), stamped(0, 1, 2, 8.0)])
            .unwrap();
        b.stage(0, vec![stamped(0, 2, 3, 7.0)]).unwrap();
        let err = b
            .run_round(RoundInput {
                epoch: 0,
                num_objects: 1,
                deadline_us: 1_000,
                reports: vec![stamped(0, 3, 4, 6.0), stamped(1, 3, 5, 6.0)],
            })
            .unwrap_err();
        assert!(
            matches!(err, ProtocolError::InvalidParameter { .. }),
            "{err:?}"
        );
        assert_eq!((b.rounds(), b.engine().staged_epoch()), (0, None));

        let retry = || RoundInput {
            epoch: 0,
            num_objects: 1,
            deadline_us: 1_000,
            reports: vec![stamped(0, 1, 1, 1.0), stamped(0, 3, 2, 2.0)],
        };
        let out = b.run_round(retry()).unwrap();
        let mut sim = dptd_protocol::campaign::SimBackend::new(4, Loss::Squared).unwrap();
        assert_eq!(out, sim.run_round(retry()).unwrap());
        assert_eq!(b.metrics().reports_submitted, 2);
    }

    fn test_policy() -> crate::wal::WalPolicy {
        crate::wal::WalPolicy {
            per_round_epsilon: 0.5,
            per_round_delta: 0.0,
            budget_epsilon: 5.0,
            budget_delta: 0.0,
            stream_tag: 0,
        }
    }

    #[test]
    fn wal_backend_logs_rounds_and_resumes_bit_identically() {
        use crate::store::MemFs;

        let engine = |users, objects, shards| {
            Engine::new(EngineConfig {
                num_users: users,
                num_objects: objects,
                num_shards: shards,
                epoch_deadline_us: 1_000,
                ..EngineConfig::default()
            })
            .unwrap()
        };
        let mem = MemFs::new();
        let (mut b, recovered) =
            EngineBackend::with_wal(engine(3, 1, 2), Box::new(mem.clone()), test_policy()).unwrap();
        assert_eq!(recovered.next_epoch(), 0);
        let round = |epoch| RoundInput {
            epoch,
            num_objects: 1,
            deadline_us: 1_000,
            reports: vec![
                stamped(epoch, 0, 1, 1.0),
                stamped(epoch, 1, 2, 1.1),
                stamped(epoch, 2, 3, 9.0),
            ],
        };
        let r0 = b.run_round(round(0)).unwrap();
        let r1 = b.run_round(round(1)).unwrap();

        // "Crash": drop the backend, reopen over the surviving bytes.
        drop(b);
        let (mut resumed, recovered) =
            EngineBackend::with_wal(engine(3, 1, 2), Box::new(mem.clone()), test_policy()).unwrap();
        assert_eq!(recovered.last_epoch, Some(1));
        assert_eq!(recovered.rounds_debited, vec![2, 2, 2]);
        assert_eq!(resumed.rounds(), 2);
        assert_eq!(resumed.current_weights(), r1.weights.as_slice());
        let _ = r0;

        // Replaying an already-logged epoch is rejected; the next one runs.
        let err = resumed.run_round(round(1)).unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidParameter { .. }));
        let r2 = resumed.run_round(round(2)).unwrap();

        // An uninterrupted twin produces bit-identical weights.
        let mut twin = EngineBackend::new(engine(3, 1, 2)).unwrap();
        for e in 0..3 {
            let out = twin.run_round(round(e)).unwrap();
            if e == 2 {
                assert_eq!(out.weights, r2.weights);
            }
        }
    }

    #[test]
    fn wal_append_failure_rolls_the_round_back() {
        use crate::store::{FailingFs, MemFs};

        let engine = Engine::new(EngineConfig {
            num_users: 2,
            num_objects: 1,
            num_shards: 1,
            epoch_deadline_us: 1_000,
            ..EngineConfig::default()
        })
        .unwrap();
        let mem = MemFs::new();
        // Budget: the 8-byte header plus 10 bytes — the first record tears.
        let failing = FailingFs::new(mem.clone(), 8 + 10);
        let (mut b, _) = EngineBackend::with_wal(engine, Box::new(failing), test_policy()).unwrap();
        let weights_before = b.current_weights().to_vec();
        let digest_before = b.weights_digest();
        let err = b
            .run_round(RoundInput {
                epoch: 0,
                num_objects: 1,
                deadline_us: 1_000,
                reports: vec![stamped(0, 0, 1, 1.0), stamped(0, 1, 2, 2.0)],
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Backend { .. }), "{err:?}");
        // Nothing committed: no round, no debit mirror, estimator restored.
        assert_eq!(b.rounds(), 0);
        assert_eq!(b.current_weights(), weights_before.as_slice());
        assert_eq!(b.weights_digest(), digest_before);
        // The torn 10 bytes are on "disk"; a reopen repairs and restarts
        // from scratch.
        let (_, recovered) = EngineBackend::with_wal(
            Engine::new(EngineConfig {
                num_users: 2,
                num_objects: 1,
                num_shards: 1,
                epoch_deadline_us: 1_000,
                ..EngineConfig::default()
            })
            .unwrap(),
            Box::new(MemFs::from_map(mem.snapshot())),
            test_policy(),
        )
        .unwrap();
        assert_eq!(recovered.truncated_bytes, 10);
        assert_eq!(recovered.last_epoch, None);
    }

    #[test]
    fn durable_round_digest_matches_its_weights() {
        use crate::store::{MemFs, SegmentStore, StoreConfig};

        let (store, replay) =
            SegmentStore::open(Box::new(MemFs::new()), StoreConfig::default()).unwrap();
        let (mut b, _) = EngineBackend::with_log(
            backend(3, 1, 2).engine,
            Box::new(store),
            &replay,
            test_policy(),
        )
        .unwrap();
        for epoch in 0..3 {
            let out = b
                .run_round(RoundInput {
                    epoch,
                    num_objects: 1,
                    deadline_us: 1_000,
                    reports: vec![
                        stamped(epoch, 0, 1, 1.0),
                        stamped(epoch, 1, 2, 1.5),
                        stamped(epoch, 2, 3, 7.0),
                    ],
                })
                .unwrap();
            assert_eq!(
                b.weights_digest(),
                dptd_stats::digest::fnv1a_f64s(&out.weights)
            );
        }
    }

    #[test]
    fn an_oversized_claim_is_refused_and_the_log_stays_recoverable() {
        use crate::store::{MemFs, SegmentStore, StoreConfig};

        // One huge but finite claim used to commit an infinite cumulative
        // loss that no reopen could restore.
        let mem = MemFs::new();
        let open = || {
            let (store, replay) =
                SegmentStore::open(Box::new(mem.clone()), StoreConfig::default()).unwrap();
            EngineBackend::with_log(
                backend(3, 1, 1).engine,
                Box::new(store),
                &replay,
                test_policy(),
            )
        };
        let round = |epoch, first: f64| RoundInput {
            epoch,
            num_objects: 1,
            deadline_us: 1_000,
            reports: vec![
                stamped(epoch, 0, 1, first),
                stamped(epoch, 1, 2, 1.0),
                stamped(epoch, 2, 3, 2.0),
            ],
        };
        let (mut b, _) = open().unwrap();
        let weights_before = b.current_weights().to_vec();
        let err = b.run_round(round(0, 1e200)).unwrap_err();
        assert!(err.to_string().contains("magnitude bound"), "{err}");
        assert_eq!(b.rounds(), 0);
        assert_eq!(b.current_weights(), weights_before.as_slice());
        let committed = b.run_round(round(1, 3.0)).unwrap();
        drop(b);

        let (resumed, recovered) = open().expect("the log reopens");
        assert_eq!(recovered.last_epoch, Some(1));
        assert_eq!(resumed.current_weights(), committed.weights.as_slice());
        assert!(recovered
            .crh
            .cumulative_losses()
            .iter()
            .all(|l| l.is_finite()));
    }

    #[test]
    fn starved_round_is_insufficient_coverage_and_recoverable() {
        let mut b = backend(2, 1, 1);
        let err = b
            .run_round(RoundInput {
                epoch: 0,
                num_objects: 1,
                deadline_us: 1_000,
                reports: vec![],
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::InsufficientCoverage { .. }));
        // The failed round executed nothing: not counted, no metrics.
        assert_eq!(b.rounds(), 0);
        assert_eq!(b.metrics().epochs_merged, 0);

        // All-late rounds starve inside the merge; the checkpoint restores
        // the pre-round estimator so the campaign can continue.
        let err = b
            .run_round(RoundInput {
                epoch: 1,
                num_objects: 1,
                deadline_us: 1_000,
                reports: vec![stamped(1, 0, 5_000, 1.0), stamped(1, 1, 5_000, 2.0)],
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Backend { .. }), "{err:?}");
        assert_eq!(b.rounds(), 0);

        let ok = b
            .run_round(RoundInput {
                epoch: 2,
                num_objects: 1,
                deadline_us: 1_000,
                reports: vec![stamped(2, 0, 1, 1.0), stamped(2, 1, 2, 2.0)],
            })
            .unwrap();
        assert_eq!(ok.accepted_users, vec![0, 1]);
        assert_eq!(b.rounds(), 1);
    }
}
