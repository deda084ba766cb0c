//! Library backing the `dptd` command-line tool.
//!
//! Eleven subcommands, each usable without writing any Rust:
//!
//! ```text
//! dptd run      --dataset synthetic --algorithm crh --epsilon 1.0 --delta 0.3
//! dptd theory   --alpha 0.5 --beta 0.1 --epsilon 1.0 --delta 0.3 --users 150
//! dptd audit    --epsilon 1.0 --delta 0.3 --lambda1 2.0
//! dptd campaign --backend engine --users 5000 --rounds 5 --wal wal/
//! dptd engine   --users 100000 --epochs 5 --shards 16 --pattern bursty
//! dptd serve    --listen 127.0.0.1:7878 --wal wal-root/
//! dptd submit   --connect 127.0.0.1:7878 --campaign air-quality --rounds 5
//! dptd status   --connect 127.0.0.1:7878 --watch true
//! dptd trace    --dump --out trace.json --users 500 --rounds 3
//! dptd cluster  submit --connect 127.0.0.1:7900,127.0.0.1:7901 --rounds 5
//! dptd recover  --wal wal/ --budgets spent
//! ```
//!
//! All logic lives here (the binary is a thin `main`), so every command is
//! unit-testable: each returns its rendered output as a `String`.

#![deny(missing_docs)]

pub mod args;
pub mod commands;

use std::fmt;

/// CLI-level error: bad usage or a propagated pipeline failure.
#[derive(Debug)]
pub enum CliError {
    /// The command line could not be interpreted; the string is a
    /// user-facing message (already includes usage hints).
    Usage(String),
    /// An underlying library error.
    Pipeline(Box<dyn std::error::Error + Send + Sync>),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Pipeline(e) => write!(f, "error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<dptd_core::CoreError> for CliError {
    fn from(e: dptd_core::CoreError) -> Self {
        CliError::Pipeline(Box::new(e))
    }
}

impl From<dptd_ldp::LdpError> for CliError {
    fn from(e: dptd_ldp::LdpError) -> Self {
        CliError::Pipeline(Box::new(e))
    }
}

impl From<dptd_sensing::SensingError> for CliError {
    fn from(e: dptd_sensing::SensingError) -> Self {
        CliError::Pipeline(Box::new(e))
    }
}

impl From<dptd_truth::TruthError> for CliError {
    fn from(e: dptd_truth::TruthError) -> Self {
        CliError::Pipeline(Box::new(e))
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
dptd — differentially private truth discovery for crowd sensing

USAGE:
    dptd <COMMAND> [--key value ...]

    A flag the command does not read is refused (`unknown flag`) before
    anything binds, connects, opens a log or runs.

COMMANDS:
    run      run the private truth-discovery pipeline on a simulated world
             --dataset    synthetic | floorplan | air-quality   [synthetic]
             --algorithm  crh | crh-median | gtm | catd | mean | median [crh]
             --lambda2    noise hyper-parameter (overrides epsilon/delta)
             --epsilon    LDP epsilon target                    [1.0]
             --delta      LDP delta target                      [0.3]
             --lambda1    data-quality rate                     [2.0]
             --users      population size (synthetic only)      [150]
             --objects    object count (synthetic only)         [30]
             --replicates averaging repetitions                 [5]
             --seed       RNG seed                              [42]
    theory   print Theorem 4.3/4.8/4.9 bounds for a configuration
             --alpha --beta --epsilon --delta --lambda1 --users
    audit    empirically estimate the mechanism's privacy loss
             --epsilon --delta --lambda1 --trials [100000] --seed [42]
    campaign run a multi-round campaign with per-user privacy budgets
             --backend    sim | engine                       [engine]
             --users      population size                    [5000]
             --objects    objects per round                  [8]
             --rounds     campaign rounds                    [5]
             --churn      per-round participation churn      [0.1]
             --round-epsilon / --round-delta per-round loss  [0.5 / 0.02]
             --budget-epsilon / --budget-delta user budget   [5.0 / 0.2]
             --shards --workers (engine backend, as below)
             --wal        write-ahead-log dir: log every round durably
                          and resume after a crash (engine backend)
             --dup --straggler --coverage --seed as below
    serve    host concurrent campaigns over TCP (runs until stdin EOF)
             --listen     bind address                      [127.0.0.1:7878]
             --max-connections connection budget            [64]
             --reactor-threads reactor count (0 = one per core)
             --idle-timeout-ms / --stall-timeout-ms per-connection
                          deadlines                         [60000 / 10000]
             --max-campaigns   live campaign cap            [1024]
             --max-users       per-campaign population cap  [4194304]
             --wal        root dir for durable campaigns (per-campaign
                          subdirectory, advisory single-writer locked)
             --trace      true | false: record stage spans into the
                          trace rings (QueryTrace serves them) [false]
             --flight-dir arm the black-box flight recorder: freeze a
                          JSON bundle here on quarantine, refusal
                          storm, panic, or shutdown
    submit   drive a campaign against a running `dptd serve` over TCP
             --connect    server address (required)
             --campaign   campaign id                       [campaign]
             --durable    true | false: log rounds server-side [false]
             --batch      reports per submit frame          [1024]
             --submission-capacity server-side queue bound  [65536]
             --users --objects --rounds --churn --shards --workers
             --round-epsilon --round-delta --budget-epsilon
             --budget-delta --dup --straggler --coverage --seed as
             for campaign (same defaults, so a submit run and a
             `dptd campaign` run print the same round table and
             weights digest on one seed)
             --busy-retries    bounded retries when the server queue
                               is full (exponential backoff)  [0]
             --busy-backoff-ms initial backoff, doubled/retry [25]
             batches stream with up to 64 in flight (cumulative acks)
    status   live metrics plane of a running `dptd serve`
             --connect    server address (required)
             --watch      true | false: refresh until stdin EOF [false]
             --interval-ms refresh period with --watch         [1000]
             --format     table | prom: human table or Prometheus/
                          OpenMetrics text exposition          [table]
             renders per-campaign fair shares (% of engine busy time),
             queue depth, ingest p50/p99, and typed refusal counts
    trace    run a traced in-process campaign and dump the timeline
             --dump       emit chrome://tracing JSON (else a per-site
                          event summary)
             --out        write the JSON to a file instead of stdout
             plus the `dptd campaign` workload flags (same defaults)
    cluster  multi-node campaigns (see `dptd cluster` for subcommand flags)
             serve    host one partition node (--node-id/--nodes, --wal,
                      --replicate-to, --replica-root, --trace,
                      --flight-dir)
             submit   coordinate a campaign across nodes (--connect
                      addr1,addr2,…; same stream flags as submit)
             status   per-node metrics, connection counts, and the
                      fleet-wide aggregated campaign snapshot
             trace    run a traced coordinated campaign and merge all
                      nodes' rings + the coordinator's into one
                      clock-aligned chrome://tracing timeline
    flight   read back black-box flight recorder bundles
             dump     print the newest bundle verbatim
             inspect  triage summary (trigger, snapshot ring, drops)
             --flight-dir a serve's dump directory; --bundle <file>
                      addresses one bundle directly
    recover  inspect a campaign write-ahead log (read-only)
             --wal        the log directory a campaign wrote
             --budgets    spent | all: per-user remaining-budget audit
    engine   drive the sharded streaming aggregation engine under load,
             one round per epoch; prints each epoch's truth MAE
             --users      population size                    [10000]
             --objects    objects per epoch                  [8]
             --epochs     number of epochs                   [5]
             --shards     ingestion shards                   [8]
             --workers    filter threads (0 = auto)          [0]
             --pattern    poisson | bursty | diurnal         [poisson]
             --burst-size reports per burst (bursty)         [64]
             --idle-gap-us virtual gap between bursts (bursty) [50000]
             --periods    intensity peaks per epoch (diurnal) [2]
             --dup        duplicate probability              [0.01]
             --straggler  straggler fraction (late drops)    [0.01]
             --coverage   per-object observation probability [1.0]
             --lambda2 / --epsilon --delta --lambda1, --seed as above
    help     show this message
";

/// Dispatch a full argument vector (excluding the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown commands/flags and
/// [`CliError::Pipeline`] for propagated library failures.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(CliError::Usage(USAGE.to_string()));
    };
    match command.as_str() {
        "run" => commands::run::execute(&args::ArgMap::parse(rest)?),
        "theory" => commands::theory::execute(&args::ArgMap::parse(rest)?),
        "audit" => commands::audit::execute(&args::ArgMap::parse(rest)?),
        "campaign" => commands::campaign::execute(&args::ArgMap::parse(rest)?),
        "engine" => commands::engine::execute(&args::ArgMap::parse(rest)?),
        "serve" => commands::serve::execute(&args::ArgMap::parse(rest)?),
        "submit" => commands::submit::execute(&args::ArgMap::parse(rest)?),
        "status" => commands::status::execute(&args::ArgMap::parse(rest)?),
        "trace" => commands::trace::execute(rest),
        "cluster" => commands::cluster::execute(rest),
        "flight" => commands::flight::execute(rest),
        "recover" => commands::recover::execute(&args::ArgMap::parse(rest)?),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_argv_shows_usage() {
        let err = dispatch(&[]).unwrap_err();
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let err = dispatch(&argv(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn help_prints_usage() {
        let out = dispatch(&argv(&["help"])).unwrap();
        assert!(out.contains("COMMANDS"));
    }

    #[test]
    fn run_smoke_synthetic() {
        let out = dispatch(&argv(&[
            "run",
            "--users",
            "20",
            "--objects",
            "5",
            "--replicates",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("utility MAE"), "output: {out}");
    }

    #[test]
    fn theory_smoke() {
        let out = dispatch(&argv(&["theory", "--alpha", "0.5", "--beta", "0.1"])).unwrap();
        assert!(out.contains("c window"), "output: {out}");
    }

    #[test]
    fn engine_smoke() {
        let out = dispatch(&argv(&[
            "engine",
            "--users",
            "150",
            "--objects",
            "3",
            "--epochs",
            "2",
            "--shards",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("throughput"), "output: {out}");
    }

    #[test]
    fn campaign_smoke() {
        for backend in ["sim", "engine"] {
            let out = dispatch(&argv(&[
                "campaign",
                "--backend",
                backend,
                "--users",
                "100",
                "--objects",
                "3",
                "--rounds",
                "2",
                "--shards",
                "4",
            ]))
            .unwrap();
            assert!(out.contains("weights digest"), "{backend}: {out}");
        }
    }

    /// A flag the command does not read is a usage error naming it,
    /// raised before anything binds, connects, opens a log or runs:
    /// nothing listens on port 1 and no `no-such-*` path exists.
    /// (`trace` is left out: it resets the process-wide trace rings
    /// other tests in this binary read.)
    #[test]
    fn every_command_refuses_a_flag_it_does_not_read() {
        for command in [
            &["run"][..],
            &["theory"],
            &["audit"],
            &["campaign"],
            &["engine"],
            &["serve"],
            &["submit", "--connect", "127.0.0.1:1"],
            &["status", "--connect", "127.0.0.1:1"],
            &["recover", "--wal", "no-such-wal-dir"],
            &["flight", "dump", "--bundle", "no-such-bundle.json"],
            &["cluster", "serve"],
            &["cluster", "submit", "--connect", "127.0.0.1:1"],
            &["cluster", "status", "--connect", "127.0.0.1:1"],
        ] {
            let err = dispatch(&argv(&[command, &["--bogus", "1"]].concat())).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(msg) if msg.contains("`--bogus`")),
                "{command:?}: {err}"
            );
        }
    }

    #[test]
    fn submit_without_connect_is_usage_error() {
        let err = dispatch(&argv(&["submit"])).unwrap_err();
        assert!(err.to_string().contains("--connect"), "{err}");
    }

    #[test]
    fn audit_smoke() {
        let out = dispatch(&argv(&["audit", "--trials", "20000"])).unwrap();
        assert!(out.contains("epsilon_hat"), "output: {out}");
    }
}
