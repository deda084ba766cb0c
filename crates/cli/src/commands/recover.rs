//! `dptd recover` — inspect a campaign write-ahead log.
//!
//! Replays the log in `--wal <dir>` **strictly read-only** (no
//! truncation, no appends, no orphan deletion — a missing log is an
//! error rather than a freshly created one) and prints one row per
//! committed record — accepted users, total debits, the restored
//! weights digest — plus the recovery summary a resumed
//! `dptd campaign --wal` would start from. Both log layouts are
//! understood: the segmented snapshot store (a `MANIFEST` plus
//! `segment-NNN.wal` files) and the legacy single-segment layout it
//! adopts. The digest of the last row is exactly the `weights digest`
//! the interrupted campaign would have printed, which makes "did the
//! log capture the run?" a shell-level diff.
//!
//! `--stats` appends the operator's view of the store itself:
//! per-segment record counts and byte sizes — split into full frames
//! and v3 delta frames — the newest snapshot epoch, and the bytes the
//! next compaction would reclaim: the numbers that show rotation,
//! compaction and delta encoding doing their job.

use std::fmt::Write as _;
use std::path::Path;

use dptd_engine::store::{self, StoreReplay};
use dptd_engine::RecoveredState;
use dptd_protocol::budget::BudgetAccountant;
use dptd_truth::streaming::StreamingCrh;

use super::box_err;
use crate::args::ArgMap;
use crate::CliError;

/// Execute `dptd recover`.
///
/// # Errors
///
/// Returns [`CliError::Usage`] when `--wal` is missing or names a
/// directory with no log in it, and propagates log I/O, corruption and
/// inconsistency failures.
pub fn execute(args: &ArgMap) -> Result<String, CliError> {
    let Some(dir) = args.get("wal") else {
        return Err(CliError::Usage(
            "dptd recover needs `--wal <dir>` (the campaign's write-ahead log directory)"
                .to_string(),
        ));
    };
    let dir_path = Path::new(dir);
    let stats = super::bool_flag(args, "stats", false)?;
    let budgets = args.get("budgets");
    args.refuse_unread()?;
    // Read-only by construction: a typo'd path must error, not fabricate
    // an empty log (which a writer's open would create). A directory we
    // cannot *read* surfaces as its own I/O error, distinct from one
    // that holds no log.
    let replayed: StoreReplay = match store::read_dir(dir_path) {
        Ok(replayed) => replayed,
        Err(dptd_engine::WalError::Io { message, .. })
            if message.contains("no write-ahead log") =>
        {
            return Err(CliError::Usage(format!(
                "no write-ahead log at `{dir}` (is --wal the directory a campaign wrote?)",
            )));
        }
        Err(e) => return Err(box_err(e)),
    };
    let replay = &replayed.replay;

    let mut out = String::new();
    let _ = writeln!(out, "# dptd recover — write-ahead log inspection\n");
    let _ = writeln!(out, "log                 {dir}");
    let _ = writeln!(
        out,
        "size                {} bytes across {} segment(s)",
        replayed.total_bytes(),
        replayed.segments.len()
    );
    let _ = writeln!(out, "committed records   {}", replay.records.len());
    let _ = writeln!(
        out,
        "torn tail           {} byte(s)",
        replay.truncated_bytes
    );

    let Some(first) = replay.records.first() else {
        if stats {
            out.push_str(&render_stats(&replayed));
        }
        let _ = writeln!(out, "\nempty log: a resumed campaign starts at round 0");
        return Ok(out);
    };
    let num_users = first.num_users();
    let loss = first.loss;
    let _ = writeln!(out, "population          {num_users} users, {loss:?} loss");
    let _ = writeln!(
        out,
        "privacy policy      per-round (ε, δ) = ({}, {}), budget = ({}, {}), stream tag {:016x}",
        first.policy.per_round_epsilon,
        first.policy.per_round_delta,
        first.policy.budget_epsilon,
        first.policy.budget_delta,
        first.policy.stream_tag,
    );

    let _ = writeln!(
        out,
        "\n| epoch | kind | accepted | total debits | weights digest |"
    );
    let _ = writeln!(out, "|---:|---|---:|---:|---:|");
    for record in &replay.records {
        // Rebuild the estimator each snapshot describes; its weights
        // digest is what the live campaign printed after that round.
        let digest = StreamingCrh::from_parts(
            record.loss,
            record.cumulative_losses.clone(),
            record.batches_seen as usize,
        )
        .map(|crh| format!("{:016x}", crh.weights_digest()))
        .unwrap_or_else(|_| "invalid".to_string());
        let total_debits: u64 = record.rounds_debited.iter().map(|&d| u64::from(d)).sum();
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} |",
            record.epoch,
            match record.kind {
                dptd_engine::RecordKind::Epoch => "epoch",
                dptd_engine::RecordKind::Snapshot => "snapshot",
            },
            record.accepted_users.len(),
            total_debits,
            digest,
        );
    }

    // The full recovery path (snapshot seeding, dedup, ledger
    // cross-check), exactly as a resuming campaign would run it.
    let recovered: RecoveredState =
        dptd_engine::recovery::recover_replay(replay, num_users, loss, None).map_err(box_err)?;
    let _ = writeln!(
        out,
        "\nledger              consistent ({} debit(s) across {} user(s), {} stale record(s) skipped)",
        recovered.rounds_debited.iter().map(|&d| u64::from(d)).sum::<u64>(),
        recovered.rounds_debited.iter().filter(|&&d| d > 0).count(),
        recovered.duplicates_skipped,
    );
    let _ = writeln!(out, "resume point        round {}", recovered.next_epoch());
    let _ = writeln!(
        out,
        "weights digest      {:016x}",
        recovered.crh.weights_digest()
    );

    if stats {
        out.push_str(&render_stats(&replayed));
    }
    if let Some(scope) = budgets {
        out.push_str(&render_budgets(scope, first.policy, &recovered)?);
    }
    Ok(out)
}

/// Render the per-segment store statistics (`--stats`): what rotation
/// and compaction have done and what the next compaction would free.
fn render_stats(replayed: &StoreReplay) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n| segment | records | bytes | full records | full bytes | delta records | delta bytes | snapshots | torn |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|---|---:|");
    for info in &replayed.segments {
        let snapshots = if info.snapshot_epochs.is_empty() {
            "-".to_string()
        } else {
            info.snapshot_epochs
                .iter()
                .map(|e| format!("@{e}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            store::segment_file_name(info.id),
            info.records,
            info.bytes,
            info.full_records(),
            info.full_bytes(),
            info.delta_records,
            info.delta_bytes,
            snapshots,
            info.torn_bytes,
        );
    }
    let segments = replayed.segments.iter();
    let _ = writeln!(
        out,
        "\nframes              {} full ({} bytes), {} delta ({} bytes)",
        segments.clone().map(|s| s.full_records()).sum::<u64>(),
        segments.map(|s| s.full_bytes()).sum::<u64>(),
        replayed.replay.delta_records,
        replayed.replay.delta_bytes,
    );
    let _ = writeln!(
        out,
        "newest snapshot     {}",
        replayed
            .newest_snapshot_epoch()
            .map(|e| format!("round {e}"))
            .unwrap_or_else(|| "none".to_string()),
    );
    let total = replayed.total_bytes();
    let reclaimable = replayed.reclaimable_bytes();
    let _ = writeln!(
        out,
        "reclaimable         {reclaimable} of {total} byte(s) ({:.0}%) freed by the next compaction",
        if total > 0 {
            100.0 * reclaimable as f64 / total as f64
        } else {
            0.0
        },
    );
    if replayed.orphans.is_empty() {
        let _ = writeln!(out, "orphans             none");
    } else {
        let bytes: u64 = replayed.orphans.iter().map(|(_, b)| b).sum();
        let _ = writeln!(
            out,
            "orphans             {} file(s), {bytes} byte(s) (interrupted rotation/compaction; the next writer deletes them)",
            replayed.orphans.len(),
        );
    }
    out
}

/// Render the per-user budget audit (`--budgets spent|all`): remaining
/// budget per user under the policy every record was accounted with —
/// strictly read-only, via [`BudgetAccountant::spent_by_user`].
fn render_budgets(
    scope: &str,
    policy: dptd_engine::WalPolicy,
    recovered: &RecoveredState,
) -> Result<String, CliError> {
    let all = match scope {
        "all" => true,
        "spent" => false,
        other => {
            return Err(CliError::Usage(format!(
                "flag `--budgets` expects spent | all, got `{other}`"
            )));
        }
    };
    let per_round = dptd_ldp::PrivacyLoss::new(policy.per_round_epsilon, policy.per_round_delta)
        .map_err(box_err)?;
    let budget =
        dptd_ldp::PrivacyLoss::new(policy.budget_epsilon, policy.budget_delta).map_err(box_err)?;
    let ledger = BudgetAccountant::resume(per_round, budget, recovered.rounds_debited.clone())
        .map_err(box_err)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n| user | debits | spent ε | spent δ | remaining ε | remaining δ | status |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|---:|---|");
    let mut untouched = 0usize;
    for (user, spent) in ledger.spent_by_user().into_iter().enumerate() {
        let debits = ledger.rounds_debited(user);
        if debits == 0 && !all {
            untouched += 1;
            continue;
        }
        let _ = writeln!(
            out,
            "| {user} | {debits} | {:.3} | {:.3} | {:.3} | {:.3} | {} |",
            spent.epsilon(),
            spent.delta(),
            (budget.epsilon() - spent.epsilon()).max(0.0),
            (budget.delta() - spent.delta()).max(0.0),
            if ledger.can_spend(user) {
                "ok"
            } else {
                "exhausted"
            },
        );
    }
    if untouched > 0 {
        let _ = writeln!(
            out,
            "\n{untouched} untouched user(s) hold the full ({}, {}) budget",
            budget.epsilon(),
            budget.delta(),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(words: &[&str]) -> ArgMap {
        ArgMap::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn temp_wal(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "dptd-recover-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    /// The directory's full contents, for strict read-only assertions.
    fn dir_image(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn missing_wal_flag_is_usage_error() {
        let err = execute(&map(&[])).unwrap_err();
        assert!(err.to_string().contains("--wal"), "{err}");
    }

    #[test]
    fn missing_log_is_an_error_and_nothing_is_created() {
        let dir = temp_wal("missing");
        let _ = std::fs::remove_dir_all(&dir);
        let err = execute(&map(&["--wal", dir.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("no write-ahead log"), "{err}");
        // Strictly read-only: the typo'd directory was not fabricated.
        assert!(!dir.exists(), "recover must not create the log directory");
    }

    #[test]
    fn empty_log_reports_round_zero() {
        let dir = temp_wal("empty");
        let _ = std::fs::remove_dir_all(&dir);
        // A writer created the log but no round ever committed.
        let fs = dptd_engine::store::DirFs::open(&dir).unwrap();
        let _ = dptd_engine::WalWriter::open(Box::new(fs)).unwrap();
        let out = execute(&map(&["--wal", dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("committed records   0"), "{out}");
        assert!(out.contains("starts at round 0"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budgets_flag_audits_per_user_remaining_budget() {
        let dir = temp_wal("budgets");
        let _ = std::fs::remove_dir_all(&dir);
        let wal = dir.to_str().unwrap().to_string();
        crate::commands::campaign::execute(&map(&[
            "--users",
            "12",
            "--objects",
            "3",
            "--rounds",
            "2",
            "--shards",
            "2",
            "--churn",
            "0.3",
            "--backend",
            "engine",
            "--wal",
            &wal,
            "--round-epsilon",
            "1.0",
            "--round-delta",
            "0.0",
            "--budget-epsilon",
            "2.0",
            "--budget-delta",
            "0.0",
        ]))
        .unwrap();

        // `spent` lists only debited users; `all` lists everyone.
        let spent = execute(&map(&["--wal", &wal, "--budgets", "spent"])).unwrap();
        assert!(spent.contains("| user | debits |"), "{spent}");
        assert!(spent.contains("exhausted"), "{spent}"); // 2 rounds of ε=1 vs budget 2
        let all = execute(&map(&["--wal", &wal, "--budgets", "all"])).unwrap();
        let data_rows = |s: &str| {
            let (_, table) = s.split_once("| user | debits |").expect("budgets table");
            table
                .lines()
                .filter(|l| l.starts_with("| ") && l.as_bytes()[2].is_ascii_digit())
                .count()
        };
        assert_eq!(data_rows(&all), 12, "{all}");
        assert!(data_rows(&spent) <= 12);
        // Remaining budget column: a user with 2 debits of ε=1 against a
        // budget of 2 has 0 remaining.
        assert!(
            all.contains("| 2 | 2.000 | 0.000 | 0.000 | 0.000 | exhausted |"),
            "{all}"
        );

        // Strictly read-only: the audit leaves every log file untouched.
        let before = dir_image(&dir);
        execute(&map(&["--wal", &wal, "--budgets", "all"])).unwrap();
        assert_eq!(before, dir_image(&dir));

        let err = execute(&map(&["--wal", &wal, "--budgets", "everyone"])).unwrap_err();
        assert!(err.to_string().contains("spent | all"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspects_a_campaign_log_and_matches_its_digest() {
        let dir = temp_wal("inspect");
        let _ = std::fs::remove_dir_all(&dir);
        let wal = dir.to_str().unwrap().to_string();
        let campaign = crate::commands::campaign::execute(&map(&[
            "--users",
            "80",
            "--objects",
            "3",
            "--rounds",
            "2",
            "--shards",
            "2",
            "--backend",
            "engine",
            "--wal",
            &wal,
        ]))
        .unwrap();
        let out = execute(&map(&["--wal", &wal])).unwrap();
        assert!(out.contains("committed records   2"), "{out}");
        assert!(out.contains("resume point        round 2"), "{out}");
        assert!(out.contains("ledger              consistent"), "{out}");
        // The recovered digest equals the one the live campaign printed.
        let digest = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("weights digest"))
                .expect("digest line")
                .to_string()
        };
        assert_eq!(digest(&campaign), digest(&out));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_flag_reports_segments_snapshots_and_reclaimable_bytes() {
        let dir = temp_wal("stats");
        let _ = std::fs::remove_dir_all(&dir);
        let wal = dir.to_str().unwrap().to_string();
        crate::commands::campaign::execute(&map(&[
            "--users",
            "30",
            "--objects",
            "3",
            "--rounds",
            "5",
            "--shards",
            "2",
            // Most users sit most rounds out, so the records that
            // follow another in their segment are stored as deltas.
            "--churn",
            "0.8",
            "--backend",
            "engine",
            "--wal",
            &wal,
            "--wal-rotate-records",
            "2",
            "--wal-compact-every",
            "3",
        ]))
        .unwrap();
        let before = dir_image(&dir);
        let out = execute(&map(&["--wal", &wal, "--stats", "true"])).unwrap();
        assert!(out.contains("| segment | records | bytes |"), "{out}");
        assert!(out.contains("segment-"), "{out}");
        assert!(out.contains("newest snapshot     round"), "{out}");
        assert!(out.contains("reclaimable"), "{out}");
        assert!(out.contains("orphans             none"), "{out}");
        // Full and delta frames are told apart per segment, and add up.
        assert!(
            out.contains("| full records | full bytes | delta records | delta bytes |"),
            "{out}"
        );
        let rows: Vec<Vec<u64>> = out
            .lines()
            .filter(|l| l.starts_with("| segment-"))
            .map(|l| {
                l.split('|')
                    .filter_map(|cell| cell.trim().parse().ok())
                    .collect()
            })
            .collect();
        assert!(!rows.is_empty(), "{out}");
        let (mut full, mut delta) = (0, 0);
        for row in &rows {
            // records, bytes, full records, full bytes, delta records,
            // delta bytes, torn.
            assert_eq!(row.len(), 7, "{out}");
            assert_eq!(row[0], row[2] + row[4], "{out}");
            assert_eq!(row[1], 8 + row[3] + row[5] + row[6], "{out}");
            assert!(row[2] >= 1, "a segment opens with a full frame: {out}");
            full += row[2];
            delta += row[4];
        }
        assert!(delta >= 1, "no delta frame in a sparse campaign: {out}");
        assert!(
            out.contains(&format!("frames              {full} full (")),
            "{out}"
        );
        assert!(out.contains(&format!("), {delta} delta (")), "{out}");
        // The stats pass is read-only too.
        assert_eq!(before, dir_image(&dir));

        // An orphan left by a killed compactor is reported, not touched.
        std::fs::write(dir.join("segment-999.wal"), b"staged").unwrap();
        let out = execute(&map(&["--wal", &wal, "--stats", "true"])).unwrap();
        assert!(out.contains("orphans             1 file(s)"), "{out}");
        assert!(dir.join("segment-999.wal").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
