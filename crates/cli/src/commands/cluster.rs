//! `dptd cluster` — multi-node campaigns from the shell.
//!
//! Three subcommands:
//!
//! * `dptd cluster serve` starts one partition node (the cluster twin of
//!   `dptd serve`): it owns a slice of the population, buffers and
//!   filters its users' reports, and answers the coordinator's two-phase
//!   barrier. Runs until stdin reaches EOF, exactly like `dptd serve`.
//! * `dptd cluster submit` is the coordinator: the same deterministic
//!   load-generator stream as `dptd campaign` / `dptd submit`, fanned
//!   across `--connect addr1,addr2,…` by rendezvous hashing and closed
//!   with the barrier. It prints the identical round table and trailing
//!   `weights digest` line, so a 3-node run diffs digest-for-digest
//!   against a single-node or in-process run on the same seed.
//! * `dptd cluster status` snapshots each node's metrics and durable
//!   ledger position for a campaign.

use std::fmt::Write as _;
use std::path::PathBuf;

use dptd_cluster::{ClusterCampaign, ClusterSpec, NodeConfig, NodeServer};
use dptd_engine::{LoadGen, LoadGenConfig};
use dptd_ldp::PrivacyLoss;
use dptd_server::{Client, RetryPolicy};
use dptd_stats::summary::mae;

use crate::args::ArgMap;
use crate::CliError;

const CLUSTER_USAGE: &str = "\
dptd cluster needs a subcommand:

    dptd cluster serve   host one partition node until stdin EOF
        --listen         bind address                   [127.0.0.1:7900]
        --node-id        this node's index               [0]
        --nodes          total nodes in the cluster      [1]
        --max-connections connection budget              [32]
        --reactor-threads reactor thread count (0 = one per core)
        --idle-timeout-ms --stall-timeout-ms per-connection deadlines
        --wal            root dir for durable partitions
        --replicate-to   follower address: stream every durable store
                         mutation there, byte for byte
        --replica-root   accept replication streams into this dir
                         (the follower role)
        --wal-rotate-bytes --wal-rotate-records --wal-compact-every
                         segmented-store thresholds, as for `dptd serve`
        --max-campaigns  live campaign cap               [16]
        --trace          true|false: record stage spans into the node's
                         trace rings (served back via QueryTrace) [false]
        --flight-dir     arm the black-box flight recorder: freeze a
                         JSON bundle here on quarantine, refusal storm,
                         panic, or shutdown (`dptd flight` reads it)
    dptd cluster submit  coordinate a campaign across running nodes
        --connect        comma-separated node addresses, in node-id
                         order (required)
        --campaign       campaign id                     [campaign]
        --durable        true|false: nodes log every committed round
                         (resumes after node or coordinator crashes)
        --busy-retries   bounded retries when a node queue is full [0]
        --busy-backoff-ms initial backoff, doubled per retry   [25]
        --batch          reports per SubmitReports frame [1024]
        --users --objects --rounds --churn --dup --straggler
        --coverage --seed --round-epsilon --round-delta
        --budget-epsilon --budget-delta as for `dptd campaign`
        (same defaults, so the round table and weights digest match a
        `dptd campaign` run on one seed, bit for bit)
    dptd cluster status  snapshot node metrics and ledger positions
        --connect        comma-separated node addresses (required)
        --campaign       campaign id                     [campaign]
    dptd cluster trace   run a traced coordinated campaign, then fetch
                         every node's trace rings and merge them with
                         the coordinator's into ONE clock-aligned
                         chrome://tracing timeline (one pid lane per
                         process; barrier spans parent node work)
        --dump           emit the merged JSON (else a per-process
                         event summary)
        --out            write the JSON to a file instead of stdout
        plus the `dptd cluster submit` flags (nodes must be serving
        with --trace true for their lanes to hold events)
";

/// Execute `dptd cluster <serve|submit|status>`.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for a missing/unknown subcommand or bad
/// flags and [`CliError::Pipeline`] for node and barrier failures.
pub fn execute(argv: &[String]) -> Result<String, CliError> {
    let Some((sub, rest)) = argv.split_first() else {
        return Err(CliError::Usage(CLUSTER_USAGE.to_string()));
    };
    if sub.as_str() == "trace" {
        // `trace` takes a bare `--dump` switch, so it parses its own
        // argument vector.
        return trace(rest);
    }
    let args = ArgMap::parse(rest)?;
    match sub.as_str() {
        "serve" => serve(&args),
        "submit" => submit(&args),
        "status" => status(&args),
        other => Err(CliError::Usage(format!(
            "unknown cluster subcommand `{other}`\n\n{CLUSTER_USAGE}"
        ))),
    }
}

/// `dptd cluster serve`: run one node until stdin reaches EOF.
fn serve(args: &ArgMap) -> Result<String, CliError> {
    run_serve(args, || {
        use std::io::Read;
        let mut sink = [0u8; 4096];
        let stdin = std::io::stdin();
        let mut stdin = stdin.lock();
        loop {
            match stdin.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    })
}

/// The testable core of `serve`: `wait` blocks until shutdown.
fn run_serve(args: &ArgMap, wait: impl FnOnce()) -> Result<String, CliError> {
    let config = NodeConfig {
        listen: args.str_or("listen", "127.0.0.1:7900").to_string(),
        node_id: args.u64_or("node-id", 0)? as u32,
        num_nodes: args.u64_or("nodes", 1)? as u32,
        max_connections: args.usize_or("max-connections", 32)?,
        // `--reactor-threads`, `--idle-timeout-ms`, `--stall-timeout-ms`.
        io: super::resolve_io_config(args)?,
        wal_root: args.get("wal").map(PathBuf::from),
        replicate_to: args.get("replicate-to").map(str::to_string),
        replica_root: args.get("replica-root").map(PathBuf::from),
        store: super::resolve_store_config(args)?,
        max_campaigns: args.usize_or("max-campaigns", 16)?,
    };
    let node_id = config.node_id;
    let num_nodes = config.num_nodes;
    // `--flight-dir` / `--trace`, same process-global hooks as
    // `dptd serve`.
    if let Some(obs) = super::arm_observability(args)? {
        eprintln!("dptd cluster serve: {obs}");
    }
    args.refuse_unread()?;
    let node = NodeServer::start(config).map_err(box_err)?;
    eprintln!(
        "dptd cluster serve: node {node_id}/{num_nodes} listening on {}; close stdin to stop",
        node.local_addr()
    );

    wait();

    let addr = node.local_addr();
    let flushed = node.shutdown();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# dptd cluster serve — node {node_id}/{num_nodes} shutdown\n"
    );
    let _ = writeln!(out, "listened on         {addr}");
    let _ = writeln!(out, "partitions flushed  {flushed}");
    Ok(out)
}

fn node_addrs(args: &ArgMap) -> Result<Vec<String>, CliError> {
    let Some(connect) = args.get("connect") else {
        return Err(CliError::Usage(
            "dptd cluster needs `--connect <addr,addr,…>` (running `dptd cluster serve` nodes, \
             in node-id order)"
                .to_string(),
        ));
    };
    let addrs: Vec<String> = connect
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if addrs.is_empty() {
        return Err(CliError::Usage(
            "`--connect` lists no node addresses".to_string(),
        ));
    }
    Ok(addrs)
}

/// `dptd cluster submit`: coordinate the load-generator campaign.
fn submit(args: &ArgMap) -> Result<String, CliError> {
    run_submit(args).map(|(out, _cluster)| out)
}

/// The coordinated campaign `submit` and `trace` share; returns the
/// report plus the still-connected coordinator so `trace` can fetch the
/// nodes' rings afterwards.
fn run_submit(args: &ArgMap) -> Result<(String, ClusterCampaign), CliError> {
    let addrs = node_addrs(args)?;
    let campaign = args.str_or("campaign", "campaign");
    let (lambda2, lambda2_desc) = super::resolve_lambda2(args)?;

    let load_cfg = LoadGenConfig {
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
    };
    let load = LoadGen::new(load_cfg).map_err(box_err)?;
    let durable = match args.str_or("durable", "false") {
        "true" | "1" | "yes" => true,
        "false" | "0" | "no" => false,
        other => {
            return Err(CliError::Usage(format!(
                "flag `--durable` expects true|false, got `{other}`"
            )))
        }
    };
    let spec = ClusterSpec {
        num_users: load_cfg.num_users,
        num_objects: load_cfg.num_objects,
        deadline_us: load_cfg.epoch_len_us,
        per_round_loss: loss(args, "round-epsilon", 0.5, "round-delta", 0.02)?,
        budget: loss(args, "budget-epsilon", 5.0, "budget-delta", 0.2)?,
        submission_capacity: args.u64_or("submission-capacity", 1 << 16)?,
        stream_tag: super::campaign::stream_tag(&load_cfg),
        durable,
    };
    let batch = args.usize_or("batch", dptd_server::client::DEFAULT_SUBMIT_CHUNK)?;
    let retry = RetryPolicy {
        busy_retries: args.u64_or("busy-retries", 0)? as u32,
        busy_backoff_ms: args.u64_or("busy-backoff-ms", 25)?,
    };

    let (mut cluster, resumed) = if durable {
        ClusterCampaign::resume(&addrs, campaign, spec).map_err(box_err)?
    } else {
        (
            ClusterCampaign::create(&addrs, campaign, spec).map_err(box_err)?,
            0,
        )
    };
    cluster.set_retry(retry);
    if resumed > load_cfg.epochs {
        return Err(CliError::Usage(format!(
            "campaign `{campaign}` already holds {resumed} round(s) but --rounds is {}; \
             re-run with --rounds >= {resumed}",
            load_cfg.epochs
        )));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# dptd cluster submit — campaign `{campaign}` across {} node(s)\n",
        addrs.len()
    );
    let _ = writeln!(out, "{lambda2_desc}");
    let _ = writeln!(
        out,
        "population {} users × {} objects × {} rounds; per-round (ε, δ) = ({}, {}), budget = ({}, {})\n",
        load_cfg.num_users,
        load_cfg.num_objects,
        load_cfg.epochs,
        spec.per_round_loss.epsilon(),
        spec.per_round_loss.delta(),
        spec.budget.epsilon(),
        spec.budget.delta(),
    );
    if resumed > 0 || cluster.needs_redrive() {
        let _ = writeln!(
            out,
            "wal: nodes resumed campaign `{campaign}` at round {resumed}{}\n",
            if cluster.needs_redrive() {
                " (re-driving an interrupted commit)"
            } else {
                ""
            }
        );
    }

    let _ = writeln!(
        out,
        "| round | accepted | refused | dup | late | truth MAE | max ε spent |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|---:|---:|");
    for epoch in resumed..load_cfg.epochs {
        // An interrupted commit's round is re-driven from the nodes'
        // retained prepares: its reports were already submitted by the
        // run that crashed, so only later rounds get fresh submissions.
        if !(epoch == resumed && cluster.needs_redrive()) {
            cluster
                .submit(&load.epoch_reports(epoch), batch)
                .map_err(box_err)?;
        }
        let round = cluster.close_round(epoch).map_err(box_err)?;
        let truth_mae = mae(&round.truths, &load.ground_truths(epoch))
            .map(|v| format!("{v:.4}"))
            .unwrap_or_else(|_| "n/a".to_string());
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {:.3} |",
            round.epoch,
            round.accepted,
            round.refused_users,
            round.duplicates_discarded,
            round.late_dropped,
            truth_mae,
            round.max_spent.epsilon(),
        );
    }

    let ledger = cluster.accountant();
    let _ = writeln!(
        out,
        "\nexhausted users     {} / {}",
        ledger.exhausted_count(),
        ledger.num_users(),
    );
    let _ = writeln!(
        out,
        "max spent           (ε, δ) = ({:.3}, {:.3}) of ({}, {})",
        ledger.max_spent().epsilon(),
        ledger.max_spent().delta(),
        ledger.budget().epsilon(),
        ledger.budget().delta(),
    );
    let _ = writeln!(out, "weights digest      {:016x}", cluster.weights_digest());
    Ok((out, cluster))
}

/// `dptd cluster trace`: run a traced coordinated campaign, then merge
/// every process's rings into one timeline. The coordinator (this
/// process) traces its barrier spans; nodes serving with `--trace true`
/// contribute their drain/commit spans, clock-aligned by each process's
/// wall anchor. In-process nodes (tests) share this process's rings, so
/// their lanes mirror the coordinator's — the merged document is still
/// well-formed.
fn trace(argv: &[String]) -> Result<String, CliError> {
    let mut dump = false;
    let tokens: Vec<String> = argv
        .iter()
        .filter(|t| {
            if t.as_str() == "--dump" {
                dump = true;
                false
            } else {
                true
            }
        })
        .cloned()
        .collect();
    let args = ArgMap::parse(&tokens)?;
    let out_path = args.get("out").map(PathBuf::from);

    // The rings are process-global: reset so the merged timeline holds
    // exactly this run, then trace the coordinated campaign. Tracing is
    // switched off before rendering so the dump itself records nothing.
    dptd_obs::trace::reset();
    dptd_obs::trace::set_enabled(true);
    let result = run_submit(&args);
    dptd_obs::trace::set_enabled(false);
    let (report, mut cluster) = result?;

    let processes = cluster.collect_traces().map_err(box_err)?;
    if !dump {
        return Ok(summarize_trace(&report, &processes));
    }
    let json = dptd_cluster::merge_trace_timeline(&processes);
    match out_path {
        None => Ok(json),
        Some(path) => {
            std::fs::write(&path, &json).map_err(|e| {
                CliError::Pipeline(Box::new(std::io::Error::new(
                    e.kind(),
                    format!("writing merged trace to {}: {e}", path.display()),
                )))
            })?;
            let events: usize = processes.iter().map(|p| p.events.len()).sum();
            Ok(format!(
                "wrote {events} trace event(s) across {} process(es) to {} \
                 (open at chrome://tracing or ui.perfetto.dev)\n",
                processes.len(),
                path.display()
            ))
        }
    }
}

/// The non-dump rendering: the campaign report plus one row per
/// process lane — event counts and ring truncation, so a bare
/// `dptd cluster trace` is a quick "which lanes hold what".
fn summarize_trace(report: &str, processes: &[dptd_cluster::ProcessTrace]) -> String {
    let mut out = String::new();
    out.push_str(report);
    let _ = writeln!(
        out,
        "\n# cluster trace — {} process lane(s)\n",
        processes.len()
    );
    let _ = writeln!(out, "| pid | process | spans | instants | dropped |");
    let _ = writeln!(out, "|---:|---|---:|---:|---:|");
    for (i, p) in processes.iter().enumerate() {
        let spans = p.events.iter().filter(|e| e.phase == 'B').count();
        let instants = p.events.iter().filter(|e| e.phase == 'i').count();
        let dropped: u64 = p.dropped.iter().map(|&(_, n)| n).sum();
        let _ = writeln!(
            out,
            "| {} | {} | {spans} | {instants} | {dropped} |",
            i + 1,
            p.label
        );
    }
    let _ = writeln!(
        out,
        "\nre-run with --dump for the merged chrome://tracing JSON"
    );
    out
}

/// `dptd cluster status`: one row per node, then the fleet-wide
/// aggregated snapshot (per-node `QueryStatus` replies absorbed into
/// one — queue depths and connection counts sum across nodes).
fn status(args: &ArgMap) -> Result<String, CliError> {
    let addrs = node_addrs(args)?;
    let campaign = args.str_or("campaign", "campaign");
    let mut out = String::new();
    let _ = writeln!(out, "# dptd cluster status — campaign `{campaign}`\n");
    let _ = writeln!(
        out,
        "| node | address | next epoch | merges | queued | submitted | conns (live/acc/ref) |"
    );
    let _ = writeln!(out, "|---:|---|---:|---:|---:|---:|---|");
    let mut fleet = dptd_obs::MetricsSnapshot::new();
    for (id, addr) in addrs.iter().enumerate() {
        let mut client = Client::connect(addr.as_str()).map_err(box_err)?;
        let metrics = client.query_metrics(campaign).map_err(box_err)?;
        let ledger = client.query_ledger(campaign, u64::MAX).map_err(box_err)?;
        fleet.absorb(&client.query_status().map_err(box_err)?);
        let _ = writeln!(
            out,
            "| {id} | {addr} | {} | {} | {} | {} | {}/{}/{} |",
            ledger.next_epoch,
            metrics.epochs_merged,
            metrics.queue_depth,
            metrics.reports_submitted,
            metrics.conn_live,
            metrics.conn_accepted,
            metrics.conn_refused,
        );
    }
    let _ = writeln!(
        out,
        "\n## fleet (aggregated over {} node(s))\n",
        addrs.len()
    );
    out.push_str(&super::status::render("cluster", &fleet));
    Ok(out)
}

fn loss(
    args: &ArgMap,
    eps_key: &str,
    eps_default: f64,
    delta_key: &str,
    delta_default: f64,
) -> Result<PrivacyLoss, CliError> {
    PrivacyLoss::new(
        args.f64_or(eps_key, eps_default)?,
        args.f64_or(delta_key, delta_default)?,
    )
    .map_err(box_err)
}

fn box_err<E: std::error::Error + Send + Sync + 'static>(e: E) -> CliError {
    CliError::Pipeline(Box::new(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    fn start_nodes(n: u32) -> (Vec<NodeServer>, String) {
        let nodes: Vec<NodeServer> = (0..n)
            .map(|id| {
                NodeServer::start(NodeConfig {
                    node_id: id,
                    num_nodes: n,
                    ..NodeConfig::default()
                })
                .unwrap()
            })
            .collect();
        let connect = nodes
            .iter()
            .map(|s| s.local_addr().to_string())
            .collect::<Vec<_>>()
            .join(",");
        (nodes, connect)
    }

    #[test]
    fn missing_subcommand_and_connect_are_usage_errors() {
        assert!(execute(&[]).unwrap_err().to_string().contains("subcommand"));
        assert!(execute(&argv(&["frob"]))
            .unwrap_err()
            .to_string()
            .contains("unknown cluster subcommand"));
        assert!(execute(&argv(&["submit"]))
            .unwrap_err()
            .to_string()
            .contains("--connect"));
    }

    #[test]
    fn serve_runs_until_the_waiter_returns() {
        let out = run_serve(
            &ArgMap::parse(&argv(&[
                "--listen",
                "127.0.0.1:0",
                "--nodes",
                "3",
                "--node-id",
                "2",
            ]))
            .unwrap(),
            || {},
        )
        .unwrap();
        assert!(out.contains("node 2/3 shutdown"), "{out}");
    }

    #[test]
    fn serve_refuses_an_unknown_flag_before_binding() {
        let err = run_serve(
            &ArgMap::parse(&argv(&["--listen", "127.0.0.1:0", "--io-model", "threads"])).unwrap(),
            || panic!("must not start serving"),
        )
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("`--io-model`")),
            "{err}"
        );
    }

    #[test]
    fn cluster_submit_matches_the_in_process_campaign() {
        const SMALL: &[&str] = &[
            "--users",
            "120",
            "--objects",
            "4",
            "--rounds",
            "3",
            "--churn",
            "0.2",
        ];
        let (nodes, connect) = start_nodes(3);
        let map = |words: &[&str]| ArgMap::parse(&argv(words)).unwrap();
        let net = execute(&argv(
            &[
                &["submit", "--connect", &connect, "--campaign", "trio"],
                SMALL,
            ]
            .concat(),
        ))
        .unwrap();
        let local =
            crate::commands::campaign::execute(&map(&[SMALL, &["--backend", "sim"]].concat()))
                .unwrap();
        // Identical round tables and weights digest across three nodes.
        let rows = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.starts_with('|') || l.starts_with("weights digest"))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(rows(&net), rows(&local), "net:\n{net}\nlocal:\n{local}");

        // `cluster trace` drives the same campaign traced, then merges
        // the lanes. Event counts can race with other trace-enabled
        // tests in this process (the rings are global), so assert only
        // the race-proof shape: the report, the lane table, and the
        // merged document's lane metadata.
        let traced = execute(&argv(
            &[
                &["trace", "--connect", &connect, "--campaign", "traced"],
                SMALL,
            ]
            .concat(),
        ))
        .unwrap();
        assert!(traced.contains("weights digest"), "{traced}");
        assert!(traced.contains("# cluster trace"), "{traced}");
        assert!(traced.contains("| 1 | coordinator |"), "{traced}");
        assert!(traced.contains("| 4 | node2 |"), "{traced}");
        let json = execute(&argv(
            &[
                &[
                    "trace",
                    "--dump",
                    "--connect",
                    &connect,
                    "--campaign",
                    "traced2",
                ],
                SMALL,
            ]
            .concat(),
        ))
        .unwrap();
        assert!(json.trim_start().starts_with('['), "{json}");
        assert!(json.contains("\"name\":\"process_name\""), "{json}");
        assert!(json.contains("\"args\":{\"name\":\"node1\"}"), "{json}");

        let status = execute(&argv(&[
            "status",
            "--connect",
            &connect,
            "--campaign",
            "trio",
        ]))
        .unwrap();
        // All three nodes committed all three rounds.
        assert_eq!(
            status.lines().filter(|l| l.contains("| 3 |")).count(),
            3,
            "{status}"
        );
        for node in nodes {
            node.shutdown();
        }
    }
}
