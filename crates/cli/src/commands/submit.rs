//! `dptd submit` — drive a campaign over real sockets.
//!
//! The network twin of `dptd campaign`: the same deterministic
//! load-generator stream, but every report crosses a TCP connection to
//! a `dptd serve` process. Per round it streams the round's reports as
//! pipelined `SubmitReportsStream` batches (order preserved, up to
//! `DEFAULT_STREAM_WINDOW` in flight), closes the round,
//! and prints the identical round table and trailing `weights digest`
//! line — so a served campaign and an in-process `dptd campaign` run on
//! the same seed diff from the shell, digest for digest.
//!
//! `--durable true` asks the server to log the campaign to its WAL root
//! under the campaign id; re-running the same command against a
//! restarted server resumes at the first unlogged round and still lands
//! on the uninterrupted digest.

use dptd_server::client::DEFAULT_STREAM_WINDOW;
use dptd_server::{CampaignSpec, Client, RetryPolicy};

use super::box_err;
use super::campaign::{CampaignFlags, Closing, RoundRow};
use crate::args::ArgMap;
use crate::CliError;

/// Execute `dptd submit`.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for missing/invalid/unknown flags and
/// [`CliError::Pipeline`] for connection, wire and campaign failures
/// (including typed server refusals).
pub fn execute(args: &ArgMap) -> Result<String, CliError> {
    let (flags, (addr, campaign, spec, batch, retry)) = CampaignFlags::resolve(args, |flags| {
        let Some(addr) = args.get("connect") else {
            return Err(CliError::Usage(
                "dptd submit needs `--connect <addr>` (a running `dptd serve`)".to_string(),
            ));
        };
        let load = flags.load.config();
        let spec = CampaignSpec {
            num_users: load.num_users as u64,
            num_objects: load.num_objects as u64,
            num_shards: args.u64_or("shards", 8)?,
            workers: args.u64_or("workers", 0)?,
            // Inert, but an engine refuses 0.
            engine_queue: 1,
            deadline_us: load.epoch_len_us,
            submission_capacity: args.u64_or("submission-capacity", 1 << 16)?,
            per_round_epsilon: flags.per_round.epsilon(),
            per_round_delta: flags.per_round.delta(),
            budget_epsilon: flags.budget.epsilon(),
            budget_delta: flags.budget.delta(),
            // The same stream fingerprint `dptd campaign --wal`
            // stamps: a durable campaign resumed under a different
            // --seed/--churn/… is refused server-side instead of
            // replaying the ledger against reports it never
            // accounted.
            stream_tag: super::campaign::stream_tag(load),
            durable: super::bool_flag(args, "durable", false)?,
        };
        Ok((
            addr,
            args.str_or("campaign", "campaign"),
            spec,
            args.usize_or("batch", dptd_server::client::DEFAULT_SUBMIT_CHUNK)?,
            RetryPolicy {
                busy_retries: args.u64_or("busy-retries", 0)? as u32,
                busy_backoff_ms: args.u64_or("busy-backoff-ms", 25)?,
            },
        ))
    })?;

    let mut client = Client::connect(addr).map_err(box_err)?;
    let resumed = client.create_campaign(campaign, spec).map_err(box_err)?;
    let rounds = flags.load.config().epochs;
    if resumed > rounds {
        return Err(CliError::Usage(format!(
            "campaign `{campaign}` already holds {resumed} round(s) but --rounds is {rounds}; \
             re-run with --rounds >= {resumed}"
        )));
    }

    let mut notes = Vec::new();
    if resumed > 0 {
        notes.push(format!(
            "wal: server resumed campaign `{campaign}` at round {resumed}"
        ));
    }
    let mut last_digest: Option<u64> = None;
    let out = flags.rounds(
        &format!("# dptd submit — campaign `{campaign}` via {addr}"),
        None,
        &notes,
        resumed,
        |epoch, reports| {
            client
                .submit_stream_with_retry(campaign, &reports, batch, DEFAULT_STREAM_WINDOW, retry)
                .map_err(|e| match e {
                    dptd_server::ServerError::Busy => CliError::Usage(format!(
                        "server pushed back on round {epoch}: raise --submission-capacity \
                     (currently {}), add --busy-retries, or shrink the round",
                        spec.submission_capacity
                    )),
                    other => box_err(other),
                })?;
            let round = client.close_round(campaign, epoch).map_err(box_err)?;
            last_digest = Some(round.weights_digest);
            Ok(RoundRow {
                epoch: round.epoch,
                accepted: round.accepted,
                refused: round.refused,
                duplicates: round.duplicates,
                late: round.late,
                truths: round.truths,
                max_spent_epsilon: round.max_spent_epsilon,
            })
        },
    )?;

    let budget = client.query_budget(campaign).map_err(box_err)?;
    let weights_digest = match last_digest {
        Some(d) => d,
        // A fully-resumed campaign ran nothing new: the server's current
        // weights carry the digest.
        None => {
            client
                .query_truths(campaign)
                .map_err(box_err)?
                .weights_digest
        }
    };
    let closing = Closing {
        exhausted: budget.exhausted as usize,
        users: budget.debits.len(),
        max_spent: (budget.max_spent_epsilon, budget.max_spent_delta),
        weights_digest,
    };
    Ok(flags.finish(out, &closing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dptd_server::registry::RegistryConfig;
    use dptd_server::{Server, ServerConfig};

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

    fn start(wal_root: Option<std::path::PathBuf>) -> Server {
        Server::start(ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            registry: RegistryConfig {
                wal_root,
                ..RegistryConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("loopback server")
    }

    #[test]
    fn missing_connect_is_usage_error() {
        let err = execute(&map(&[])).unwrap_err();
        assert!(err.to_string().contains("--connect"), "{err}");
    }

    /// Nothing listens on port 1: a usage error here proves the flag
    /// was refused before the connect was tried.
    #[test]
    fn a_mistyped_flag_is_refused_before_connecting() {
        let err = execute(&map(&["--connect", "127.0.0.1:1", "--round-eps", "1"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("`--round-eps`")),
            "{err}"
        );
    }

    #[test]
    fn submit_over_tcp_matches_the_in_process_campaign() {
        let server = start(None);
        let addr = server.local_addr().to_string();
        let net = execute(&map(&[
            SMALL,
            &[
                "--connect",
                &addr,
                "--campaign",
                "twin",
                "--busy-retries",
                "2",
                "--busy-backoff-ms",
                "1",
            ],
        ]
        .concat()))
        .unwrap();
        let local =
            crate::commands::campaign::execute(&map(&[SMALL, &["--backend", "engine"]].concat()))
                .unwrap();
        // Identical round tables and weights digest: the wire moved the
        // bytes, the aggregation is bit-identical.
        let rows = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.starts_with('|') || l.starts_with("weights digest"))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(rows(&net), rows(&local), "net:\n{net}\nlocal:\n{local}");
        server.shutdown();
    }

    #[test]
    fn pipelined_submit_lands_on_the_same_digest() {
        let server = start(None);
        let addr = server.local_addr().to_string();
        // A small batch forces several in-flight frames per round.
        let piped = execute(&map(&[
            SMALL,
            &["--connect", &addr, "--campaign", "piped", "--batch", "64"],
        ]
        .concat()))
        .unwrap();
        let plain = execute(&map(
            &[SMALL, &["--connect", &addr, "--campaign", "plain"]].concat()
        ))
        .unwrap();
        let digest = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("weights digest"))
                .expect("digest line")
                .to_string()
        };
        assert_eq!(digest(&piped), digest(&plain), "{piped}\n{plain}");
        server.shutdown();

        // Every submit streams, so the flag chooses nothing and is
        // refused before the connect (nothing listens on port 1).
        let err = execute(&map(&["--connect", "127.0.0.1:1", "--pipeline", "true"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("`--pipeline`")),
            "{err}"
        );
    }

    #[test]
    fn durable_submit_resumes_across_server_restarts() {
        let root = std::env::temp_dir().join(format!(
            "dptd-submit-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);

        let digest_line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("weights digest"))
                .expect("digest line")
                .to_string()
        };
        let reference =
            crate::commands::campaign::execute(&map(&[SMALL, &["--backend", "engine"]].concat()))
                .unwrap();

        // Two rounds, then the server "crashes" (shutdown drops the
        // campaign and its WAL lock).
        let server = start(Some(root.clone()));
        let addr = server.local_addr().to_string();
        let partial_args: Vec<&str> = SMALL
            .iter()
            .map(|&s| if s == "3" { "2" } else { s })
            .collect();
        let partial = execute(&map(&[
            &partial_args[..],
            &[
                "--connect",
                &addr,
                "--campaign",
                "twin",
                "--durable",
                "true",
            ],
        ]
        .concat()))
        .unwrap();
        assert!(!partial.contains("resumed"), "{partial}");
        server.shutdown();

        // A fresh server on the same root resumes the campaign from its
        // per-campaign WAL and lands on the uninterrupted digest.
        let server = start(Some(root.clone()));
        let addr = server.local_addr().to_string();
        let resumed = execute(&map(&[
            SMALL,
            &[
                "--connect",
                &addr,
                "--campaign",
                "twin",
                "--durable",
                "true",
            ],
        ]
        .concat()))
        .unwrap();
        assert!(
            resumed.contains("resumed campaign `twin` at round 2"),
            "{resumed}"
        );
        assert_eq!(digest_line(&reference), digest_line(&resumed));

        // Shrinking --rounds below what the log holds is refused.
        let err = execute(&map(&[
            &partial_args[..],
            &[
                "--connect",
                &addr,
                "--campaign",
                "twin2",
                "--durable",
                "true",
            ],
        ]
        .concat()));
        assert!(err.is_ok(), "fresh id starts fresh: {err:?}");
        server.shutdown();

        let server = start(Some(root.clone()));
        let addr = server.local_addr().to_string();

        // Resuming the served WAL under a different input stream (a new
        // --seed) is refused server-side: the stream fingerprint is
        // stamped into every durable record, exactly as
        // `dptd campaign --wal` does in-process. (Checked first: the
        // refusal leaves `twin` unregistered, so the next attempt below
        // still exercises a fresh WAL resume on this server.)
        let err = execute(&map(&[
            SMALL,
            &[
                "--connect",
                &addr,
                "--campaign",
                "twin",
                "--durable",
                "true",
                "--seed",
                "43",
            ],
        ]
        .concat()))
        .unwrap_err();
        assert!(
            err.to_string().contains("privacy parameters"),
            "expected a stream-tag mismatch refusal, got: {err}"
        );

        let err = execute(&map(&[
            &partial_args[..],
            &[
                "--connect",
                &addr,
                "--campaign",
                "twin",
                "--durable",
                "true",
            ],
        ]
        .concat()))
        .unwrap_err();
        assert!(err.to_string().contains("already holds"), "{err}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}
