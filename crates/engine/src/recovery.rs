//! Crash recovery: rebuild mid-campaign state from a write-ahead log.
//!
//! Recovery replays the committed [`EpochRecord`]s of a log (torn tails
//! already classified by [`wal::replay`](crate::wal::replay)) and
//! rebuilds the two things a crash must not lose:
//!
//! 1. the carried [`StreamingCrh`] estimator — restored **bit-identically**
//!    from the last committed record's cumulative-loss snapshot, and
//! 2. the per-user privacy-budget debit ledger — re-derived by replaying
//!    every record's accepted-user set, then cross-checked against the
//!    last record's ledger snapshot. A disagreement means the log was
//!    tampered with or the writer mis-accounted, and recovery refuses
//!    rather than guess at privacy spend.
//!
//! Records are applied in strictly increasing epoch order. A record
//! whose epoch is not past the previously applied one is skipped only
//! when it is **byte-identical** to the applied record (a harmless
//! re-append), so replay never double-charges a user for the same epoch;
//! a non-increasing epoch with *different* content can only come from
//! interleaved writers or tampering and is refused as
//! [`WalError::Inconsistent`] — counting either copy would misstate
//! someone's privacy spend.

use dptd_truth::streaming::StreamingCrh;
use dptd_truth::Loss;

use crate::wal::{same_bits, EpochRecord, RecordKind, Replay, WalError, WalPolicy};
use crate::EngineError;

/// Mid-campaign state rebuilt from a write-ahead log.
#[derive(Debug, Clone)]
pub struct RecoveredState {
    /// The carried estimator, bit-identical to the crashed run's state
    /// after its last committed epoch (fresh if the log held no records).
    pub crh: StreamingCrh,
    /// Per-user debit counts replayed from the accepted-user histories —
    /// feed to `BudgetAccountant::resume` / `CampaignDriver::resume`.
    pub rounds_debited: Vec<u32>,
    /// The last committed epoch id, if any; a resumed campaign continues
    /// at `last_epoch + 1`.
    pub last_epoch: Option<u64>,
    /// Rounds the recovered state represents: epochs replayed record by
    /// record **plus** the rounds a seeding snapshot covered (its
    /// `batches_seen`) — i.e. what the crashed campaign had committed.
    pub records_applied: u64,
    /// Stale/duplicate records skipped (epoch not past the previous one).
    pub duplicates_skipped: u64,
    /// Torn-tail bytes the replay discarded.
    pub truncated_bytes: u64,
    /// The privacy policy every record was accounted under (`None` for
    /// an empty log). Resuming callers must account under the same
    /// policy — debit counts are meaningless under a different one.
    pub policy: Option<WalPolicy>,
    /// The newest [`RecordKind::Snapshot`] record's epoch, if the log
    /// holds one — everything at or before it is compactable.
    pub snapshot_epoch: Option<u64>,
}

impl RecoveredState {
    /// Epoch the resumed campaign should run next.
    pub fn next_epoch(&self) -> u64 {
        self.last_epoch.map_or(0, |e| e + 1)
    }
}

/// Rebuild campaign state from an already-replayed log.
///
/// `num_users` and `loss` are the engine's configuration; every record
/// must agree with them (a log from a differently-sized campaign is a
/// configuration error, not recoverable data). `expected_policy`, when
/// given, is the privacy policy the resuming campaign will account
/// under: every record must match it **bit-exactly**, because a debit
/// count replayed under a different per-round `(ε, δ)` would silently
/// misstate real privacy spend — pass `None` only for read-only
/// inspection.
///
/// # Errors
///
/// [`EngineError::InvalidParameter`] when a record disagrees with the
/// expected population, loss function or privacy policy;
/// [`EngineError::Wal`] with [`WalError::Inconsistent`] when records
/// disagree among themselves (policy drift mid-log, or a ledger snapshot
/// contradicting the replayed debit history); propagated
/// estimator-restore failures.
pub fn recover_replay(
    replay: &Replay,
    num_users: usize,
    loss: Loss,
    expected_policy: Option<&WalPolicy>,
) -> Result<RecoveredState, EngineError> {
    let mut rounds_debited = vec![0u32; num_users];
    let mut last_epoch: Option<u64> = None;
    let mut records_applied = 0u64;
    let mut duplicates_skipped = 0u64;
    let mut last_record: Option<&EpochRecord> = None;
    let mut policy: Option<WalPolicy> = None;
    let mut snapshot_epoch: Option<u64> = None;

    for record in &replay.records {
        if record.num_users() != num_users {
            return Err(EngineError::InvalidParameter {
                name: "wal.num_users",
                value: record.num_users() as f64,
                constraint: "log records must match the engine population",
            });
        }
        if record.loss != loss {
            return Err(EngineError::InvalidParameter {
                name: "wal.loss",
                value: f64::NAN,
                constraint: "log records must use the engine's loss function",
            });
        }
        if let Some(expected) = expected_policy {
            if !record.policy.matches(expected) {
                return Err(EngineError::InvalidParameter {
                    name: "wal.policy",
                    value: record.policy.per_round_epsilon,
                    constraint: "log was written under different privacy parameters or a \
                                 different input stream; resume with the original flags",
                });
            }
        }
        match &policy {
            None => policy = Some(record.policy),
            Some(first) if !record.policy.matches(first) => {
                return Err(EngineError::Wal(WalError::Inconsistent {
                    reason: "records disagree on the privacy policy",
                }));
            }
            Some(_) => {}
        }
        if record.kind == RecordKind::Snapshot {
            match last_epoch {
                // A seeding snapshot: the segments it covered were
                // garbage-collected, so the snapshot's full state IS
                // the campaign's state as of its epoch.
                None => {
                    rounds_debited = record.rounds_debited.clone();
                    records_applied = record.batches_seen;
                    last_epoch = Some(record.epoch);
                    last_record = Some(record);
                    snapshot_epoch = Some(record.epoch);
                }
                // A snapshot *behind* still-present records (a
                // compactor killed before garbage collection): it must
                // agree bit-exactly with the records it claims to
                // cover, or someone's privacy spend is ambiguous.
                Some(last) if record.epoch == last => {
                    let consistent = record.rounds_debited == rounds_debited
                        && record.batches_seen == records_applied
                        && last_record.is_some_and(|r| {
                            same_bits(&record.cumulative_losses, &r.cumulative_losses)
                        });
                    if !consistent {
                        return Err(EngineError::Wal(WalError::Inconsistent {
                            reason: "snapshot disagrees with the records it covers",
                        }));
                    }
                    last_record = Some(record);
                    snapshot_epoch = Some(record.epoch);
                }
                // A snapshot that skips past the replayed records means
                // committed epochs are missing (a lost segment), and
                // one behind them is stale (an interleaved compactor).
                Some(_) => {
                    return Err(EngineError::Wal(WalError::Inconsistent {
                        reason: "snapshot does not line up with the replayed records",
                    }));
                }
            }
            continue;
        }
        if last_epoch.is_some_and(|last| record.epoch <= last) {
            // A legitimate single writer can never commit a duplicate
            // epoch (a failed append is not committed; a successful one
            // advances the writer past it; a resumed writer replays the
            // log first). A byte-identical re-append carries zero
            // ambiguity and is skipped; any OTHER non-increasing epoch
            // means interleaved writers or tampering, where counting
            // either copy would misstate someone's privacy spend —
            // refuse rather than guess.
            if last_record == Some(record) {
                duplicates_skipped += 1;
                continue;
            }
            return Err(EngineError::Wal(WalError::Inconsistent {
                reason: "non-increasing epoch with diverging content (interleaved writers?)",
            }));
        }
        for &user in &record.accepted_users {
            // Decoding already bounds users by the record's population.
            rounds_debited[user] += 1;
        }
        last_epoch = Some(record.epoch);
        records_applied += 1;
        last_record = Some(record);
    }

    // The ledger snapshot in the last applied record must equal the
    // replayed history — otherwise privacy spend is ambiguous and
    // recovery must refuse.
    if let Some(record) = last_record {
        if record.rounds_debited != rounds_debited {
            return Err(EngineError::Wal(WalError::Inconsistent {
                reason: "ledger snapshot disagrees with the replayed accepted-user history",
            }));
        }
        if record.batches_seen != records_applied {
            return Err(EngineError::Wal(WalError::Inconsistent {
                reason: "estimator batch count disagrees with the number of applied records",
            }));
        }
    }

    let crh = match last_record {
        Some(record) => StreamingCrh::from_parts(
            loss,
            record.cumulative_losses.clone(),
            record.batches_seen as usize,
        )
        .map_err(EngineError::Truth)?,
        None => StreamingCrh::new(num_users, loss).map_err(EngineError::Truth)?,
    };

    Ok(RecoveredState {
        crh,
        rounds_debited,
        last_epoch,
        records_applied,
        duplicates_skipped,
        truncated_bytes: replay.truncated_bytes,
        policy,
        snapshot_epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{self, WAL_MAGIC};

    fn policy() -> WalPolicy {
        WalPolicy {
            per_round_epsilon: 0.5,
            per_round_delta: 0.0,
            budget_epsilon: 2.0,
            budget_delta: 0.0,
            stream_tag: 7,
        }
    }

    fn record(epoch: u64, accepted: Vec<usize>, debits: Vec<u32>) -> EpochRecord {
        EpochRecord {
            kind: RecordKind::Epoch,
            epoch,
            batches_seen: epoch + 1,
            loss: Loss::Squared,
            policy: policy(),
            accepted_users: accepted,
            cumulative_losses: vec![0.25 * (epoch + 1) as f64; 3],
            rounds_debited: debits,
        }
    }

    fn replay_of(records: &[EpochRecord]) -> Replay {
        let mut bytes = WAL_MAGIC.to_vec();
        for r in records {
            bytes.extend_from_slice(&r.encode());
        }
        wal::replay(&bytes).unwrap()
    }

    #[test]
    fn empty_log_recovers_fresh_state() {
        let r = recover_replay(&replay_of(&[]), 3, Loss::Squared, None).unwrap();
        assert_eq!(r.rounds_debited, vec![0, 0, 0]);
        assert_eq!(r.last_epoch, None);
        assert_eq!(r.next_epoch(), 0);
        assert_eq!(
            r.crh.weights(),
            StreamingCrh::new(3, Loss::Squared).unwrap().weights()
        );
    }

    #[test]
    fn debits_replay_once_per_epoch_even_with_duplicate_records() {
        // The same epoch-1 record appended twice (a crash-retry artefact):
        // replay must charge users 0 and 1 once for it, not twice.
        let records = vec![
            record(0, vec![0, 2], vec![1, 0, 1]),
            record(1, vec![0, 1], vec![2, 1, 1]),
            record(1, vec![0, 1], vec![2, 1, 1]),
        ];
        let r = recover_replay(&replay_of(&records), 3, Loss::Squared, None).unwrap();
        assert_eq!(r.rounds_debited, vec![2, 1, 1]);
        assert_eq!(r.duplicates_skipped, 1);
        assert_eq!(r.records_applied, 2);
        assert_eq!(r.last_epoch, Some(1));
        assert_eq!(r.next_epoch(), 2);
    }

    #[test]
    fn interleaved_writer_records_are_refused_not_dropped() {
        // A second writer's epoch-1 record with a DIFFERENT accepted set
        // (its users really spent privacy) must refuse recovery — silently
        // skipping it would erase real spend from the restored ledger.
        let records = vec![
            record(0, vec![0, 2], vec![1, 0, 1]),
            record(1, vec![0, 1], vec![2, 1, 1]),
            record(1, vec![2], vec![1, 0, 2]), // interleaved writer B
        ];
        let err = recover_replay(&replay_of(&records), 3, Loss::Squared, None).unwrap_err();
        assert!(
            matches!(err, EngineError::Wal(WalError::Inconsistent { .. })),
            "{err:?}"
        );
        // Same for an out-of-order older epoch with diverging content.
        let records = vec![
            record(0, vec![0, 2], vec![1, 0, 1]),
            record(1, vec![0, 1], vec![2, 1, 1]),
            record(0, vec![1], vec![0, 1, 0]),
        ];
        assert!(recover_replay(&replay_of(&records), 3, Loss::Squared, None).is_err());
    }

    #[test]
    fn a_re_append_that_differs_only_in_a_zero_sign_is_refused() {
        // `-0.0 == 0.0`, but the two are different bytes on disk: a
        // duplicate epoch is skipped only when byte-identical, so this
        // pair is a diverging writer, not a retry.
        let mut first = record(0, vec![0, 2], vec![1, 0, 1]);
        first.cumulative_losses[1] = 0.0;
        let mut second = first.clone();
        second.cumulative_losses[1] = -0.0;
        let err = recover_replay(&replay_of(&[first, second]), 3, Loss::Squared, None).unwrap_err();
        assert!(
            matches!(err, EngineError::Wal(WalError::Inconsistent { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn a_seeding_snapshot_restores_ledger_and_estimator() {
        let full = vec![
            record(0, vec![0, 2], vec![1, 0, 1]),
            record(1, vec![0, 1], vec![2, 1, 1]),
            record(2, vec![2], vec![2, 1, 2]),
        ];
        let full_state = recover_replay(&replay_of(&full), 3, Loss::Squared, None).unwrap();
        assert_eq!(full_state.snapshot_epoch, None);

        // The compacted log: a snapshot covering epochs 0–1 (its covered
        // segments garbage-collected), then the epoch-2 suffix.
        let compacted = vec![full[1].to_snapshot(), full[2].clone()];
        let r = recover_replay(&replay_of(&compacted), 3, Loss::Squared, None).unwrap();
        assert_eq!(r.rounds_debited, full_state.rounds_debited);
        assert_eq!(r.last_epoch, Some(2));
        assert_eq!(r.next_epoch(), 3);
        assert_eq!(r.records_applied, 3, "snapshot covers two rounds");
        assert_eq!(r.snapshot_epoch, Some(1));
        assert_eq!(r.crh.weights(), full_state.crh.weights());
    }

    #[test]
    fn a_snapshot_behind_uncollected_records_verifies_or_refuses() {
        let records = vec![
            record(0, vec![0, 2], vec![1, 0, 1]),
            record(1, vec![0, 1], vec![2, 1, 1]),
        ];
        // Killed-compactor layout: the covered records are still on disk
        // together with the snapshot — replay verifies and moves on.
        let mut with_snap = records.clone();
        with_snap.push(records[1].to_snapshot());
        let r = recover_replay(&replay_of(&with_snap), 3, Loss::Squared, None).unwrap();
        assert_eq!(r.rounds_debited, vec![2, 1, 1]);
        assert_eq!(r.snapshot_epoch, Some(1));
        assert_eq!(r.records_applied, 2);

        // A snapshot claiming different spend than the records it
        // covers is refused, never merged.
        let mut forged = records[1].to_snapshot();
        forged.rounds_debited = vec![1, 1, 1];
        let err = recover_replay(
            &replay_of(&[records.clone(), vec![forged]].concat()),
            3,
            Loss::Squared,
            None,
        )
        .unwrap_err();
        assert!(
            matches!(err, EngineError::Wal(WalError::Inconsistent { .. })),
            "{err:?}"
        );

        // A snapshot past the replayed records means a committed epoch
        // vanished (a lost segment): refused.
        let err = recover_replay(
            &replay_of(&[records[0].clone(), records[1].to_snapshot()]),
            3,
            Loss::Squared,
            None,
        )
        .unwrap_err();
        assert!(
            matches!(err, EngineError::Wal(WalError::Inconsistent { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn ledger_snapshot_mismatch_is_refused() {
        // A forged snapshot claiming fewer debits than the history shows.
        let records = vec![
            record(0, vec![0, 2], vec![1, 0, 1]),
            record(1, vec![0, 1], vec![1, 1, 1]), // should be [2, 1, 1]
        ];
        let err = recover_replay(&replay_of(&records), 3, Loss::Squared, None).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Wal(WalError::Inconsistent { .. })
        ));
    }

    #[test]
    fn resuming_under_a_different_privacy_policy_is_rejected() {
        let records = vec![record(0, vec![0, 2], vec![1, 0, 1])];
        let replay = replay_of(&records);
        // Same policy bits: fine.
        let ok = recover_replay(&replay, 3, Loss::Squared, Some(&policy()));
        assert!(ok.is_ok());
        assert!(ok.unwrap().policy.unwrap().matches(&policy()));
        // A cheaper per-round epsilon would reinterpret every debit.
        let reinterpreted = WalPolicy {
            per_round_epsilon: 0.1,
            ..policy()
        };
        let err = recover_replay(&replay, 3, Loss::Squared, Some(&reinterpreted)).unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidParameter {
                name: "wal.policy",
                ..
            }
        ));

        // Records disagreeing among themselves are inconsistent even for
        // read-only inspection.
        let mut drifted = record(1, vec![1], vec![1, 1, 1]);
        drifted.policy.budget_epsilon = 9.0;
        let err = recover_replay(
            &replay_of(&[records[0].clone(), drifted]),
            3,
            Loss::Squared,
            None,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Wal(WalError::Inconsistent { .. })
        ));
    }

    #[test]
    fn config_mismatches_are_rejected() {
        let records = vec![record(0, vec![0], vec![1, 0, 0])];
        assert!(recover_replay(&replay_of(&records), 4, Loss::Squared, None).is_err());
        assert!(recover_replay(&replay_of(&records), 3, Loss::Absolute, None).is_err());
    }
}
