//! `dptd serve` — host concurrent campaigns over TCP.
//!
//! Starts the [`dptd_server::Server`] on `--listen <addr>` and serves
//! the v3 wire protocol (`CreateCampaign`, batched `SubmitReports`,
//! `CloseRound`, `QueryTruths`, `QueryBudget`) until **stdin reaches
//! EOF** — `dptd serve < /dev/null` exits immediately, `Ctrl-D` stops an
//! interactive run, and a supervisor stops the service by closing the
//! pipe. The bound address is announced on stderr as soon as the
//! listener is up (stdout carries only the shutdown summary, so scripts
//! can parse it).
//!
//! `--wal <root>` enables durable campaigns: a campaign created with
//! `durable` logs every round to `<root>/<campaign-id>` behind the
//! advisory single-writer lock, and re-creating it after a crash
//! resumes from that log.

use std::path::PathBuf;

use dptd_server::registry::RegistryConfig;
use dptd_server::{Server, ServerConfig};

use crate::args::ArgMap;
use crate::CliError;

/// Execute `dptd serve`: serve until stdin reaches EOF.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for malformed flags and
/// [`CliError::Pipeline`] when the listen address cannot be bound.
pub fn execute(args: &ArgMap) -> Result<String, CliError> {
    run(args, super::wait_for_stdin_eof)
}

/// The testable core: `wait` blocks until the service should stop.
fn run(args: &ArgMap, wait: impl FnOnce()) -> Result<String, CliError> {
    let listen = args.str_or("listen", "127.0.0.1:7878").to_string();
    let config = ServerConfig {
        listen,
        max_connections: args.usize_or("max-connections", 64)?,
        // `--reactor-threads`, `--idle-timeout-ms`, `--stall-timeout-ms`.
        io: super::resolve_io_config(args)?,
        registry: RegistryConfig {
            wal_root: args.get("wal").map(PathBuf::from),
            max_campaigns: args.usize_or("max-campaigns", 1024)?,
            max_users_per_campaign: args.u64_or("max-users", 4 << 20)?,
            // Segmented-store thresholds for every durable campaign
            // (`--wal-rotate-bytes`, `--wal-rotate-records`,
            // `--wal-compact-every`).
            store: super::resolve_store_config(args)?,
        },
    };
    let wal_desc = config
        .registry
        .wal_root
        .as_ref()
        .map_or("disabled (volatile campaigns only)".to_string(), |p| {
            format!("{} (durable campaigns resume per directory)", p.display())
        });
    // `--flight-dir` / `--trace`: the black-box recorder and the span
    // rings. Both are process-global and bounded, so arming them is
    // safe for the lifetime of the serve.
    if let Some(obs) = super::arm_observability(args)? {
        eprintln!("dptd serve: {obs}");
    }
    args.refuse_unread()?;
    let server = Server::start(config).map_err(|e| CliError::Pipeline(Box::new(e)))?;
    // Announce on stderr immediately: with `--listen 127.0.0.1:0` the
    // real port exists only now, and stdout is reserved for the final
    // summary.
    eprintln!(
        "dptd serve: listening on {} ({} reactor thread(s); wal root: {wal_desc}); \
         close stdin to stop",
        server.local_addr(),
        server.frontend().io_threads(),
    );

    wait();

    let addr = server.local_addr();
    let stats = server.shutdown();
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "# dptd serve — shutdown summary\n");
    let _ = writeln!(out, "listened on         {addr}");
    let _ = writeln!(out, "campaigns created   {}", stats.campaigns_created);
    let _ = writeln!(out, "reports submitted   {}", stats.reports_submitted);
    let _ = writeln!(out, "rounds closed       {}", stats.rounds_closed);
    let _ = writeln!(
        out,
        "campaigns flushed   {} (WAL segments fsynced, writer locks released)",
        stats.campaigns_flushed
    );
    if stats.sync_failures > 0 {
        let _ = writeln!(
            out,
            "sync failures       {} — inspect the WAL dirs with `dptd recover`",
            stats.sync_failures
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

    #[test]
    fn serves_until_the_waiter_returns() {
        let out = run(&map(&["--listen", "127.0.0.1:0"]), || {}).unwrap();
        assert!(out.contains("shutdown summary"), "{out}");
        assert!(out.contains("campaigns created   0"), "{out}");
    }

    #[test]
    fn serves_a_round_trip_before_shutdown() {
        use dptd_server::{CampaignSpec, Client};

        // Start on an ephemeral port, talk to it from the waiter, then
        // let the command shut down and summarise.
        let out = run(&map(&["--listen", "127.0.0.1:0"]), || {
            // The bound address is not observable from here (it went to
            // stderr), so bind discovery is covered by the library
            // tests; this waiter only exercises the wait hook.
        })
        .unwrap();
        assert!(out.contains("rounds closed       0"), "{out}");

        // Full loop against a directly-started server, matching what
        // the command wires together.
        let server = dptd_server::Server::start(dptd_server::ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            ..Default::default()
        })
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .create_campaign(
                "smoke",
                CampaignSpec {
                    num_users: 2,
                    num_objects: 1,
                    num_shards: 1,
                    workers: 0,
                    engine_queue: 64,
                    deadline_us: 1_000,
                    submission_capacity: 16,
                    per_round_epsilon: 0.5,
                    per_round_delta: 0.0,
                    budget_epsilon: 5.0,
                    budget_delta: 0.0,
                    stream_tag: 0,
                    durable: false,
                },
            )
            .unwrap();
        drop(client);
        let stats = server.shutdown();
        assert_eq!(stats.campaigns_created, 1);
    }

    #[test]
    fn shutdown_flushes_durable_campaigns_and_releases_locks() {
        use dptd_core::roles::PerturbedReport;
        use dptd_protocol::message::StampedReport;
        use dptd_server::{CampaignSpec, Client};

        let root = std::env::temp_dir().join(format!(
            "dptd-serve-flush-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let server = dptd_server::Server::start(dptd_server::ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            registry: dptd_server::registry::RegistryConfig {
                wal_root: Some(root.clone()),
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .create_campaign(
                "flush",
                CampaignSpec {
                    num_users: 2,
                    num_objects: 1,
                    num_shards: 1,
                    workers: 0,
                    engine_queue: 64,
                    deadline_us: 1_000,
                    submission_capacity: 16,
                    per_round_epsilon: 0.5,
                    per_round_delta: 0.0,
                    budget_epsilon: 5.0,
                    budget_delta: 0.0,
                    stream_tag: 0,
                    durable: true,
                },
            )
            .unwrap();
        let stamped = |user: usize, v: f64| StampedReport {
            epoch: 0,
            sent_at_us: 1,
            report: PerturbedReport {
                user,
                values: vec![(0, v)],
            },
        };
        client
            .submit("flush", vec![stamped(0, 1.0), stamped(1, 2.0)])
            .unwrap();
        client.close_round("flush", 0).unwrap();
        drop(client);

        let stats = server.shutdown();
        assert_eq!(stats.campaigns_flushed, 1);
        assert_eq!(stats.sync_failures, 0);
        // The writer lock was released BY shutdown, not by some later
        // Drop: a successor acquires the directory immediately.
        let lock = dptd_engine::WalLock::acquire(&root.join("flush"))
            .expect("shutdown must release the campaign's WAL lock");
        drop(lock);
        // And the flushed log replays the committed round.
        let replayed = dptd_engine::store::read_dir(&root.join("flush")).unwrap();
        assert_eq!(replayed.replay.records.len(), 1);
        assert_eq!(replayed.replay.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_unknown_flag_is_refused_before_binding() {
        let err = run(
            &map(&["--listen", "127.0.0.1:0", "--io-model", "threads"]),
            || panic!("must not start serving"),
        )
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("`--io-model`")),
            "{err}"
        );
    }

    #[test]
    fn bad_listen_address_is_an_error() {
        let err = run(&map(&["--listen", "not-an-address"]), || {
            panic!("must not start serving")
        })
        .unwrap_err();
        assert!(err.to_string().contains("failed"), "{err}");
    }
}
