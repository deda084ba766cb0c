//! `dptd campaign` — run a multi-round campaign with per-user privacy
//! budgets through a selectable round backend.
//!
//! `--backend sim` executes rounds on the in-process reference
//! ([`SimBackend`]); `--backend engine` routes each round through the
//! sharded streaming engine ([`EngineBackend`]). Both consume the same
//! deterministic multi-round load, so for a fixed seed the two backends
//! print identical truths, weights and acceptance counts — the trailing
//! `weights digest` line makes the bit-level equivalence easy to diff
//! from the shell.
//!
//! `--wal <dir>` (engine backend only) makes every round durable: each
//! merged epoch appends one checksummed record to the directory's
//! write-ahead log, and re-running the same command after a crash
//! replays the log, resumes at the next round, and lands on the **same**
//! weights digest an uninterrupted run prints.
//!
//! The three campaign drivers — this command, `dptd submit` and
//! `dptd cluster submit` — resolve their shared flags through
//! `CampaignFlags` (one set of load and privacy flags, one set of
//! defaults, so one seed is one stream everywhere) and print one report:
//! header, round table and closing ledger lines, so their outputs diff
//! row for row.

use std::fmt::Write as _;
use std::path::Path;

use dptd_engine::{
    Engine, EngineBackend, EngineConfig, LoadGen, LoadGenConfig, SegmentStore, WalLock, WalPolicy,
};
use dptd_ldp::PrivacyLoss;
use dptd_protocol::budget::BudgetAccountant;
use dptd_protocol::campaign::{CampaignConfig, CampaignDriver, RoundBackend, SimBackend};
use dptd_protocol::message::StampedReport;
use dptd_stats::summary::mae;
use dptd_truth::Loss;

use super::box_err;
use crate::args::ArgMap;
use crate::CliError;

/// The load and privacy flags every campaign driver reads, with the
/// defaults all three share, resolved into the stream they describe.
pub(crate) struct CampaignFlags {
    /// The deterministic multi-round report stream.
    pub(crate) load: LoadGen,
    /// How λ₂ was chosen, for the report header.
    lambda2_desc: String,
    /// What one aggregated report costs its user.
    pub(crate) per_round: PrivacyLoss,
    /// Each user's campaign-wide ceiling.
    pub(crate) budget: PrivacyLoss,
}

/// One round's line in the report table, whichever driver closed it.
pub(crate) struct RoundRow {
    pub(crate) epoch: u64,
    pub(crate) accepted: u64,
    pub(crate) refused: u64,
    pub(crate) duplicates: u64,
    pub(crate) late: u64,
    pub(crate) truths: Vec<f64>,
    pub(crate) max_spent_epsilon: f64,
}

/// What the report's closing lines state: the privacy ledger after the
/// last round and the weights digest.
pub(crate) struct Closing {
    pub(crate) exhausted: usize,
    pub(crate) users: usize,
    pub(crate) max_spent: (f64, f64),
    pub(crate) weights_digest: u64,
}

impl Closing {
    /// The closing lines of a driver that keeps its own ledger.
    pub(crate) fn of(ledger: &BudgetAccountant, weights_digest: u64) -> Self {
        Self {
            exhausted: ledger.exhausted_count(),
            users: ledger.num_users(),
            max_spent: (ledger.max_spent().epsilon(), ledger.max_spent().delta()),
            weights_digest,
        }
    }
}

impl CampaignFlags {
    /// Resolve the shared flags, then the command's own (`own` reads
    /// them from the same [`ArgMap`], given the shared ones), then
    /// refuse any flag neither read — before the caller connects, opens
    /// a log or runs a round.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for a malformed or unknown flag; a pipeline
    /// error for an invalid load shape or privacy loss.
    pub(crate) fn resolve<T>(
        args: &ArgMap,
        own: impl FnOnce(&Self) -> Result<T, CliError>,
    ) -> Result<(Self, T), CliError> {
        let (lambda2, lambda2_desc) = super::resolve_lambda2(args)?;
        let load = LoadGen::new(LoadGenConfig {
            num_users: args.usize_or("users", 5_000)?,
            num_objects: args.usize_or("objects", 8)?,
            epochs: args.u64_or("rounds", 5)?,
            lambda2,
            coverage: args.f64_or("coverage", 1.0)?,
            duplicate_probability: args.f64_or("dup", 0.01)?,
            straggler_fraction: args.f64_or("straggler", 0.01)?,
            churn: args.f64_or("churn", 0.1)?,
            seed: args.u64_or("seed", 42)?,
            ..LoadGenConfig::default()
        })
        .map_err(box_err)?;
        let flags = Self {
            load,
            lambda2_desc,
            per_round: PrivacyLoss::new(
                args.f64_or("round-epsilon", 0.5)?,
                args.f64_or("round-delta", 0.02)?,
            )?,
            budget: PrivacyLoss::new(
                args.f64_or("budget-epsilon", 5.0)?,
                args.f64_or("budget-delta", 0.2)?,
            )?,
        };
        let own = own(&flags)?;
        args.refuse_unread()?;
        Ok((flags, own))
    }

    /// The report up to its closing lines: `title`, the stream and its
    /// privacy terms (with the `affordable` rounds per user when the
    /// driver knows them), each of `notes`, then one table row per round
    /// `start..`, closed by `close` from that round's reports.
    ///
    /// # Errors
    ///
    /// The first error `close` returns.
    pub(crate) fn rounds(
        &self,
        title: &str,
        affordable: Option<u32>,
        notes: &[String],
        start: u64,
        mut close: impl FnMut(u64, Vec<StampedReport>) -> Result<RoundRow, CliError>,
    ) -> Result<String, CliError> {
        let cfg = self.load.config();
        let mut out = String::new();
        let _ = writeln!(out, "{title}\n");
        let _ = writeln!(out, "{}", self.lambda2_desc);
        let _ = writeln!(
            out,
            "population {} users × {} objects × {} rounds; per-round (ε, δ) = ({}, {}), budget = ({}, {}){}\n",
            cfg.num_users,
            cfg.num_objects,
            cfg.epochs,
            self.per_round.epsilon(),
            self.per_round.delta(),
            self.budget.epsilon(),
            self.budget.delta(),
            affordable.map_or(String::new(), |n| format!(
                " → {n} affordable rounds per user"
            )),
        );
        for note in notes {
            let _ = writeln!(out, "{note}\n");
        }

        let _ = writeln!(
            out,
            "| round | accepted | refused | dup | late | truth MAE | max ε spent |"
        );
        let _ = writeln!(out, "|---:|---:|---:|---:|---:|---:|---:|");
        for epoch in start..cfg.epochs {
            let row = close(epoch, self.load.epoch_reports(epoch))?;
            let truth_mae = mae(&row.truths, &self.load.ground_truths(epoch))
                .map(|v| format!("{v:.4}"))
                .unwrap_or_else(|_| "n/a".to_string());
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {:.3} |",
                row.epoch,
                row.accepted,
                row.refused,
                row.duplicates,
                row.late,
                truth_mae,
                row.max_spent_epsilon,
            );
        }
        Ok(out)
    }

    /// Append the report's closing lines to `out`.
    pub(crate) fn finish(&self, mut out: String, closing: &Closing) -> String {
        let _ = writeln!(
            out,
            "\nexhausted users     {} / {}",
            closing.exhausted, closing.users,
        );
        let _ = writeln!(
            out,
            "max spent           (ε, δ) = ({:.3}, {:.3}) of ({}, {})",
            closing.max_spent.0,
            closing.max_spent.1,
            self.budget.epsilon(),
            self.budget.delta(),
        );
        // FNV-1a over the weights' bit patterns: backend-independent by
        // the engine's bit-identical merge guarantee, so every driver on
        // the same seed prints the same digest.
        let _ = writeln!(out, "weights digest      {:016x}", closing.weights_digest);
        out
    }
}

/// Execute `dptd campaign`.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for an unknown backend or flag and invalid
/// sizing, and propagates protocol/engine failures (including the round
/// where so many budgets are exhausted that coverage collapses).
pub fn execute(args: &ArgMap) -> Result<String, CliError> {
    let (flags, (backend, engine_cfg, wal, store_cfg)) = CampaignFlags::resolve(args, |flags| {
        let load = flags.load.config();
        Ok((
            args.str_or("backend", "engine"),
            // Resolved under `--backend sim` too, so switching backends
            // never turns a sizing flag into an unknown one.
            EngineConfig {
                num_users: load.num_users,
                num_objects: load.num_objects,
                num_shards: args.usize_or("shards", 8)?,
                workers: args.usize_or("workers", 0)?,
                epoch_deadline_us: load.epoch_len_us,
                loss: Loss::Squared,
                merge_workers: args.usize_or("merge-workers", 0)?,
                ..EngineConfig::default()
            },
            args.get("wal"),
            // Rotation + compaction thresholds for `--wal`'s segmented
            // store, from the shared --wal-* flags.
            super::resolve_store_config(args)?,
        ))
    })?;
    let load_cfg = *flags.load.config();
    let campaign_cfg = CampaignConfig {
        num_objects: load_cfg.num_objects,
        deadline_us: load_cfg.epoch_len_us,
        per_round_loss: flags.per_round,
        budget: flags.budget,
    };

    match backend {
        "sim" => {
            if wal.is_some() {
                return Err(CliError::Usage(
                    "--wal requires the engine backend (`--backend engine`)".to_string(),
                ));
            }
            let backend = SimBackend::new(load_cfg.num_users, Loss::Squared).map_err(box_err)?;
            let driver = CampaignDriver::new(backend, campaign_cfg).map_err(box_err)?;
            let (out, _) = drive(&flags, driver, 0, Vec::new(), None)?;
            Ok(out)
        }
        "engine" => {
            let engine = Engine::new(engine_cfg).map_err(box_err)?;
            let (driver, start_epoch, initial_weights, banner, _wal_lock) = match wal {
                None => {
                    let backend = EngineBackend::new(engine).map_err(box_err)?;
                    let driver = CampaignDriver::new(backend, campaign_cfg).map_err(box_err)?;
                    (driver, 0, Vec::new(), None, None)
                }
                Some(dir) => {
                    // Advisory single-writer lock, held until the run
                    // finishes: a concurrent live writer (another
                    // campaign process, a `dptd serve` hosting this
                    // directory) is refused here at open instead of
                    // corrupting the ledger and being caught at recovery.
                    let lock = WalLock::acquire(Path::new(dir)).map_err(box_err)?;
                    // The segmented snapshot store; a legacy
                    // single-segment directory is adopted in place.
                    let (store, replay) =
                        SegmentStore::open_dir(Path::new(dir), store_cfg).map_err(box_err)?;
                    let segments = store.manifest().segments.len();
                    // The policy stamped into every record: a later resume
                    // with different (ε, δ) flags — or a different input
                    // stream (seed/churn/…, fingerprinted below) — is
                    // rejected instead of silently reinterpreting the
                    // debit ledger or printing a digest no uninterrupted
                    // run would produce. `--rounds` is deliberately NOT
                    // fingerprinted: extending a finished campaign by more
                    // rounds of the same stream is a legitimate resume.
                    let policy = WalPolicy::from_campaign(&campaign_cfg)
                        .with_stream_tag(stream_tag(&load_cfg));
                    let (backend, recovered) =
                        EngineBackend::with_log(engine, Box::new(store), &replay, policy)
                            .map_err(box_err)?;
                    let banner = format!(
                        "wal: {} round(s) recovered from `{dir}` ({} segment(s){}, {} stale skipped, {} torn byte(s) truncated) → resuming at round {}",
                        recovered.records_applied,
                        segments,
                        recovered
                            .snapshot_epoch
                            .map(|e| format!(", snapshot at round {e}"))
                            .unwrap_or_default(),
                        recovered.duplicates_skipped,
                        recovered.truncated_bytes,
                        recovered.next_epoch(),
                    );
                    let start = recovered.next_epoch();
                    // A log holding MORE rounds than requested is not a
                    // resume of this command: the digest printed would
                    // belong to the logged campaign, not the smaller one
                    // the header describes.
                    if start > load_cfg.epochs {
                        return Err(CliError::Usage(format!(
                            "wal already holds {start} round(s) but --rounds is {}; \
                             re-run with --rounds >= {start} (or a fresh --wal dir)",
                            load_cfg.epochs
                        )));
                    }
                    let weights = recovered.crh.weights().to_vec();
                    let driver = CampaignDriver::resume(
                        backend,
                        campaign_cfg,
                        recovered.rounds_debited,
                        recovered.records_applied.min(u64::from(u32::MAX)) as u32,
                    )
                    .map_err(box_err)?;
                    (driver, start, weights, Some(banner), Some(lock))
                }
            };
            let (mut out, backend) = drive(&flags, driver, start_epoch, initial_weights, banner)?;
            let _ = writeln!(out, "\n{}", backend.metrics().render());
            Ok(out)
        }
        other => Err(CliError::Usage(format!(
            "unknown backend `{other}` (expected sim | engine)"
        ))),
    }
}

/// Fingerprint of everything that shapes the per-round report stream —
/// a WAL written under one fingerprint refuses to resume under another.
/// `epochs` (the round count) is excluded on purpose; see the call site.
/// Shared with `dptd submit` and `dptd cluster submit`, which stamp the
/// same tag into a served campaign's WAL via the wire spec.
pub(crate) fn stream_tag(cfg: &LoadGenConfig) -> u64 {
    let mut h = dptd_stats::digest::Fnv1a::new();
    h.write_u64(cfg.seed);
    h.write_u64(cfg.num_users as u64);
    h.write_u64(cfg.num_objects as u64);
    h.write_u64(cfg.epoch_len_us);
    h.write_f64(cfg.lambda2);
    h.write_f64(cfg.coverage);
    h.write_f64(cfg.duplicate_probability);
    h.write_f64(cfg.straggler_fraction);
    h.write_f64(cfg.churn);
    h.finish()
}

/// Run rounds `start_epoch..` of the stream through `driver` and render
/// the report. `initial_weights` seed the digest when no round runs (a
/// resumed campaign that was already complete); `banner` is the WAL
/// recovery summary, printed under the header when present.
fn drive<B: RoundBackend>(
    flags: &CampaignFlags,
    mut driver: CampaignDriver<B>,
    start_epoch: u64,
    initial_weights: Vec<f64>,
    banner: Option<String>,
) -> Result<(String, B), CliError> {
    let title = format!(
        "# dptd campaign — multi-round, `{}` backend",
        driver.backend().name()
    );
    let affordable = driver.accountant().affordable_rounds();
    let notes: Vec<String> = banner.into_iter().collect();
    let mut last_weights = initial_weights;
    let out = flags.rounds(
        &title,
        Some(affordable),
        &notes,
        start_epoch,
        |epoch, reports| {
            let round = driver.run_round(epoch, reports).map_err(box_err)?;
            last_weights = round.weights;
            Ok(RoundRow {
                epoch: round.epoch,
                accepted: round.accepted as u64,
                refused: round.refused_users as u64,
                duplicates: round.duplicates_discarded,
                late: round.late_dropped,
                truths: round.truths,
                max_spent_epsilon: round.max_spent.epsilon(),
            })
        },
    )?;
    let digest = dptd_stats::digest::fnv1a_f64s(&last_weights);
    let out = flags.finish(out, &Closing::of(driver.accountant(), digest));
    Ok((out, driver.into_backend()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(words: &[&str]) -> ArgMap {
        ArgMap::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    const SMALL: &[&str] = &[
        "--users",
        "120",
        "--objects",
        "4",
        "--rounds",
        "3",
        "--shards",
        "4",
        "--churn",
        "0.2",
    ];

    #[test]
    fn backends_render_identical_round_tables() {
        let sim = execute(&map(&[SMALL, &["--backend", "sim"]].concat())).unwrap();
        let eng = execute(&map(&[SMALL, &["--backend", "engine"]].concat())).unwrap();
        // Identical truths/weights on a fixed seed: same table rows and
        // the same weights digest, differing only in the header and the
        // engine's extra metrics block.
        let rows = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.starts_with('|') || l.starts_with("weights digest"))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(rows(&sim), rows(&eng), "sim:\n{sim}\nengine:\n{eng}");
        assert!(eng.contains("throughput"), "engine metrics missing: {eng}");
        assert!(
            !sim.contains("throughput"),
            "sim should not print engine metrics"
        );
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let out = execute(&map(&[
            "--users",
            "60",
            "--objects",
            "3",
            "--rounds",
            "2",
            "--backend",
            "sim",
            "--round-epsilon",
            "1.0",
            "--budget-epsilon",
            "2.0",
            "--round-delta",
            "0.0",
            "--budget-delta",
            "0.0",
            "--churn",
            "0.0",
        ]))
        .unwrap();
        assert!(out.contains("2 affordable rounds"), "{out}");
        assert!(out.contains("exhausted users"), "{out}");
    }

    #[test]
    fn unknown_backend_is_usage_error() {
        let err = execute(&map(&["--backend", "quantum"])).unwrap_err();
        assert!(err.to_string().contains("unknown backend"));
    }

    #[test]
    fn wal_requires_engine_backend() {
        let err = execute(&map(&[
            SMALL,
            &["--backend", "sim", "--wal", "/tmp/never-created"],
        ]
        .concat()))
        .unwrap_err();
        assert!(err.to_string().contains("--wal requires"), "{err}");
    }

    /// A mistyped flag used to run the default privacy configuration
    /// (`--budget-eps` is not `--budget-epsilon`); now it is refused by
    /// name before the log directory is opened, let alone created.
    #[test]
    fn a_mistyped_flag_is_refused_before_the_wal_is_opened() {
        let dir = std::env::temp_dir().join(format!(
            "dptd-cli-wal-typo-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let err = execute(&map(&[
            SMALL,
            &["--budget-eps", "1", "--wal", dir.to_str().unwrap()],
        ]
        .concat()))
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("`--budget-eps`")),
            "{err}"
        );
        assert!(!dir.exists(), "the WAL directory must not be created");
    }

    #[test]
    fn wal_campaign_refuses_a_directory_held_by_a_live_writer() {
        let dir = std::env::temp_dir().join(format!(
            "dptd-cli-wal-locked-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = dir.to_str().unwrap().to_string();
        // Another live writer (same process, e.g. a serving campaign)
        // holds the advisory lock: the campaign must refuse at open.
        let held = WalLock::acquire(&dir).unwrap();
        let err = execute(&map(
            &[SMALL, &["--backend", "engine", "--wal", &wal]].concat()
        ))
        .unwrap_err();
        assert!(err.to_string().contains("locked"), "{err}");
        drop(held);
        // Once released, the same command runs.
        let out = execute(&map(
            &[SMALL, &["--backend", "engine", "--wal", &wal]].concat()
        ))
        .unwrap();
        assert!(out.contains("weights digest"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmented_wal_with_rotation_and_compaction_keeps_the_digest() {
        let dir = std::env::temp_dir().join(format!(
            "dptd-cli-wal-seg-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = dir.to_str().unwrap().to_string();
        let digest_line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("weights digest"))
                .expect("digest line")
                .to_string()
        };

        let reference = execute(&map(&[SMALL, &["--backend", "engine"]].concat())).unwrap();
        // Aggressive thresholds: every record rotates, compaction every
        // 2 records — the 3-round campaign crosses both paths.
        let seg_flags: &[&str] = &[
            "--backend",
            "engine",
            "--wal",
            &wal,
            "--wal-rotate-records",
            "1",
            "--wal-compact-every",
            "2",
        ];
        let first = execute(&map(&[SMALL, seg_flags].concat())).unwrap();
        assert_eq!(digest_line(&reference), digest_line(&first));
        assert!(dir.join("MANIFEST").exists(), "manifest missing");

        // Re-running resumes from the snapshot-bearing segmented log and
        // lands on the same digest.
        let resumed = execute(&map(&[SMALL, seg_flags].concat())).unwrap();
        assert!(
            resumed.contains("3 round(s) recovered") && resumed.contains("snapshot at round"),
            "{resumed}"
        );
        assert_eq!(digest_line(&reference), digest_line(&resumed));

        // Compaction actually collected: fewer segment files on disk
        // than rounds run.
        let segments = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".wal")
            })
            .count();
        assert!(segments <= 2, "{segments} segment files survived");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_campaign_resumes_to_the_uninterrupted_digest() {
        let dir = std::env::temp_dir().join(format!(
            "dptd-cli-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = dir.to_str().unwrap().to_string();

        let digest_line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("weights digest"))
                .expect("digest line")
                .to_string()
        };

        // Uninterrupted 3-round reference (no WAL).
        let reference = execute(&map(&[SMALL, &["--backend", "engine"]].concat())).unwrap();

        // "Crash" after 2 rounds (run only 2), then resume to 3 on the
        // same log.
        let partial_args: Vec<&str> = SMALL
            .iter()
            .map(|&s| if s == "3" { "2" } else { s })
            .collect();
        let partial = execute(&map(&[
            &partial_args[..],
            &["--backend", "engine", "--wal", &wal],
        ]
        .concat()))
        .unwrap();
        assert!(partial.contains("resuming at round 0"), "{partial}");
        let resumed = execute(&map(
            &[SMALL, &["--backend", "engine", "--wal", &wal]].concat()
        ))
        .unwrap();
        assert!(
            resumed.contains("2 round(s) recovered") && resumed.contains("resuming at round 2"),
            "{resumed}"
        );
        assert_eq!(digest_line(&reference), digest_line(&resumed));

        // Re-running once complete replays all rounds and prints the same
        // digest without executing anything new.
        let complete = execute(&map(
            &[SMALL, &["--backend", "engine", "--wal", &wal]].concat()
        ))
        .unwrap();
        assert!(complete.contains("3 round(s) recovered"), "{complete}");
        assert_eq!(digest_line(&reference), digest_line(&complete));

        // Resuming the same log under a different per-round ε is refused:
        // the debit ledger only means something under its original policy.
        let err = execute(&map(&[
            SMALL,
            &[
                "--backend",
                "engine",
                "--wal",
                &wal,
                "--round-epsilon",
                "0.1",
            ],
        ]
        .concat()))
        .unwrap_err();
        assert!(
            err.to_string().contains("privacy parameters"),
            "expected a policy-mismatch error, got: {err}"
        );

        // Same for a different input stream: a new --seed would replay
        // the ledger against reports it never accounted.
        let err = execute(&map(&[
            SMALL,
            &["--backend", "engine", "--wal", &wal, "--seed", "43"],
        ]
        .concat()))
        .unwrap_err();
        assert!(
            err.to_string().contains("privacy parameters"),
            "expected a stream-tag mismatch error, got: {err}"
        );

        // And shrinking --rounds below what the log holds is refused —
        // the printed digest would not belong to the described campaign.
        let err = execute(&map(&[
            &partial_args[..],
            &["--backend", "engine", "--wal", &wal],
        ]
        .concat()))
        .unwrap_err();
        assert!(
            err.to_string().contains("already holds"),
            "expected a rounds-shrink error, got: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
