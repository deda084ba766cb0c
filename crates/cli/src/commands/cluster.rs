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
//! * `dptd cluster status` prints each node's durable ledger position
//!   and, from the node's `QueryStatus` snapshot, its rounds, queue
//!   depth, submissions and connections for a campaign — then the
//!   fleet-wide total of those snapshots.

use std::fmt::Write as _;
use std::path::PathBuf;

use dptd_cluster::{ClusterCampaign, ClusterSpec, NodeConfig, NodeServer};
use dptd_obs::names;
use dptd_server::{Client, RetryPolicy};

use super::box_err;
use super::campaign::{CampaignFlags, Closing, RoundRow};
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
        --batch          reports per submit frame; each node gets
                         one pipelined stream of them  [1024]
        --users --objects --rounds --churn --dup --straggler
        --coverage --seed --round-epsilon --round-delta
        --budget-epsilon --budget-delta as for `dptd campaign`
        (same defaults, so the round table and weights digest match a
        `dptd campaign` run on one seed, bit for bit)
    dptd cluster status  one row per node (ledger position, then its
                         QueryStatus snapshot: rounds, queue depth,
                         submissions, connections) and the fleet total
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

Every subcommand refuses a flag it does not read (`unknown flag`)
before it binds, connects or runs anything.
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
    run_serve(args, super::wait_for_stdin_eof)
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
    let (flags, (addrs, campaign, spec, batch, retry)) = CampaignFlags::resolve(args, |flags| {
        let load = flags.load.config();
        let spec = ClusterSpec {
            num_users: load.num_users,
            num_objects: load.num_objects,
            deadline_us: load.epoch_len_us,
            per_round_loss: flags.per_round,
            budget: flags.budget,
            submission_capacity: args.u64_or("submission-capacity", 1 << 16)?,
            stream_tag: super::campaign::stream_tag(load),
            durable: super::bool_flag(args, "durable", false)?,
        };
        Ok((
            node_addrs(args)?,
            args.str_or("campaign", "campaign"),
            spec,
            args.usize_or("batch", dptd_server::client::DEFAULT_SUBMIT_CHUNK)?,
            RetryPolicy {
                busy_retries: args.u64_or("busy-retries", 0)? as u32,
                busy_backoff_ms: args.u64_or("busy-backoff-ms", 25)?,
            },
        ))
    })?;

    let (mut cluster, resumed) = if spec.durable {
        ClusterCampaign::resume(&addrs, campaign, spec).map_err(box_err)?
    } else {
        (
            ClusterCampaign::create(&addrs, campaign, spec).map_err(box_err)?,
            0,
        )
    };
    cluster.set_retry(retry);
    let rounds = flags.load.config().epochs;
    if resumed > rounds {
        return Err(CliError::Usage(format!(
            "campaign `{campaign}` already holds {resumed} round(s) but --rounds is {rounds}; \
             re-run with --rounds >= {resumed}"
        )));
    }

    let redrive = cluster.needs_redrive();
    let mut notes = Vec::new();
    if resumed > 0 || redrive {
        notes.push(format!(
            "wal: nodes resumed campaign `{campaign}` at round {resumed}{}",
            if redrive {
                " (re-driving an interrupted commit)"
            } else {
                ""
            }
        ));
    }
    let out = flags.rounds(
        &format!(
            "# dptd cluster submit — campaign `{campaign}` across {} node(s)",
            addrs.len()
        ),
        None,
        &notes,
        resumed,
        |epoch, reports| {
            // An interrupted commit's round is re-driven from the nodes'
            // retained prepares: its reports were already submitted by
            // the run that crashed, so only later rounds get fresh
            // submissions.
            if !(epoch == resumed && redrive) {
                cluster.submit(&reports, batch).map_err(box_err)?;
            }
            let round = cluster.close_round(epoch).map_err(box_err)?;
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
    let closing = Closing::of(cluster.accountant(), cluster.weights_digest());
    Ok((flags.finish(out, &closing), cluster))
}

/// `dptd cluster trace`: run a traced coordinated campaign, then merge
/// every process's rings into one timeline. The coordinator (this
/// process) traces its barrier spans; nodes serving with `--trace true`
/// contribute their drain/commit spans, clock-aligned by each process's
/// wall anchor. In-process nodes (tests) share this process's rings, so
/// their lanes mirror the coordinator's — the merged document is still
/// well-formed.
fn trace(argv: &[String]) -> Result<String, CliError> {
    let (dump, args) = super::dump_switch(argv)?;
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
    let Some(path) = out_path else {
        return Ok(json);
    };
    super::write_json(&path, &json, "merged trace")?;
    let events: usize = processes.iter().map(|p| p.events.len()).sum();
    Ok(format!(
        "wrote {events} trace event(s) across {} process(es) to {} \
         (open at chrome://tracing or ui.perfetto.dev)\n",
        processes.len(),
        path.display()
    ))
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
/// aggregated snapshot. Each node is asked twice: `QueryLedger` first
/// (so an unknown campaign is a typed refusal), then `QueryStatus`,
/// whose snapshot gives the node's row and is absorbed into the fleet
/// total — queue depths and connection counts sum across nodes.
fn status(args: &ArgMap) -> Result<String, CliError> {
    let addrs = node_addrs(args)?;
    let campaign = args.str_or("campaign", "campaign");
    args.refuse_unread()?;
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
        let ledger = client.query_ledger(campaign, u64::MAX).map_err(box_err)?;
        let snapshot = client.query_status().map_err(box_err)?;
        let read = |name: &str| snapshot.scalar(name).unwrap_or(0);
        let part = |suffix: &str| read(&names::campaign_metric(campaign, suffix));
        let _ = writeln!(
            out,
            "| {id} | {addr} | {} | {} | {} | {} | {}/{}/{} |",
            ledger.next_epoch,
            part(names::ROUNDS),
            part(names::QUEUE_DEPTH),
            part(names::SUBMITTED),
            read(names::SERVER_CONN_LIVE),
            read(names::SERVER_CONN_ACCEPTED),
            read(names::SERVER_CONN_REFUSED),
        );
        fleet.absorb(&snapshot);
    }
    let _ = writeln!(
        out,
        "\n## fleet (aggregated over {} node(s))\n",
        addrs.len()
    );
    out.push_str(&super::status::render("cluster", &fleet));
    Ok(out)
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

    /// `cluster submit` always streams to every node, so the flag
    /// chooses nothing and is refused — before any node is dialled
    /// (nothing listens on port 1).
    #[test]
    fn submit_refuses_the_pipeline_flag_it_has_no_mode_for() {
        let err = execute(&argv(&[
            "submit",
            "--connect",
            "127.0.0.1:1",
            "--pipeline",
            "true",
        ]))
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("`--pipeline`")),
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
        // merged document's lane metadata. It resets the rings, so it
        // holds the lock the `dptd trace` tests drain them under.
        let rings = crate::commands::trace::tests::RINGS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
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
        assert!(json.contains("\"name\":\"cluster.submit\""), "{json}");
        drop(rings);

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
