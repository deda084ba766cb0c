//! High-fan-in bench for the network service's connection front end.
//!
//! Answers the reactor's headline question over **loopback TCP** — real
//! sockets, real frames: how many *concurrent submitter connections* can
//! one process hold without one thread per connection? It opens the
//! target connection count up front (raising `RLIMIT_NOFILE` when
//! needed), keeps every socket live through a full submit, and reports
//! connections-per-I/O-thread alongside reports/sec and p50/p99 submit
//! round trips for the reactor vs the thread-per-connection model. Both
//! arms write `BenchSummary` JSON (`$DPTD_BENCH_JSON_DIR`) so CI can
//! diff the numbers per commit.
//!
//! Served-campaign throughput and latency are the benchmark's job
//! (`e2e_ledger`, rung D: `registry.*`, `client.*`); nothing there holds
//! 10 000 connections open, which is why this arm stays.
//!
//! Setting `DPTD_BENCH_SMOKE=1` shrinks the connection counts so CI can
//! run the whole binary as a regression smoke for the serving path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use criterion::{criterion_group, Criterion};

use dptd_bench::summary::{keys, BenchSummary};
use dptd_obs::Histogram;
use dptd_server::registry::RegistryConfig;
use dptd_server::{CampaignSpec, Client, IoConfig, IoModel, Server, ServerConfig};

fn smoke() -> bool {
    std::env::var_os("DPTD_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Campaign ids must be fresh per run: the server keeps campaigns for
/// its lifetime, and re-creating a live id is (correctly) refused.
static RUN_ID: AtomicU64 = AtomicU64::new(0);

/// Raise the soft `RLIMIT_NOFILE` toward `need` descriptors (client +
/// server ends both live in this process, plus slack). Best effort: on
/// refusal the bench runs with whatever the hard cap allows.
fn raise_nofile(need: u64) -> u64 {
    let mut lim = libc::rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a valid rlimit for the shim to fill and read.
    unsafe {
        if libc::getrlimit(libc::RLIMIT_NOFILE, &mut lim) != 0 {
            return 1024;
        }
        if lim.rlim_cur >= need {
            return lim.rlim_cur;
        }
        // Ask for the full request first — raising the hard cap too
        // succeeds when privileged (CI containers usually are) — then
        // settle for the existing hard cap.
        let privileged = libc::rlimit {
            rlim_cur: need,
            rlim_max: need.max(lim.rlim_max),
        };
        if libc::setrlimit(libc::RLIMIT_NOFILE, &privileged) == 0 {
            return need;
        }
        let capped = libc::rlimit {
            rlim_cur: need.min(lim.rlim_max),
            rlim_max: lim.rlim_max,
        };
        if libc::setrlimit(libc::RLIMIT_NOFILE, &capped) == 0 {
            return capped.rlim_cur;
        }
    }
    lim.rlim_cur
}

struct FanInRun {
    connections: usize,
    reports: u64,
    elapsed_s: f64,
    submit_rtt: Histogram,
    weights_digest: u64,
    io_threads: usize,
}

/// Hold `connections` live submitter connections against one campaign
/// using only `client_threads` driver threads (each owns a slice of the
/// sockets), submit one frame per connection, and close the round. The
/// campaign's user space is partitioned one user per connection, so the
/// digest is deterministic whatever the arrival interleaving — the
/// deterministic-merge guarantee, witnessed at fan-in scale.
///
/// The submitters live in **child processes** (re-execs of this bench
/// binary, see [`fan_in_child`]): one process cannot hold both ends of
/// 10k loopback connections under a typical `RLIMIT_NOFILE`, so the
/// server side keeps this process's descriptor budget and each child
/// owns a slice of the client sockets under its own budget. Children
/// connect everything first and report `READY`; only when every socket
/// is live does the parent say `GO` — the server genuinely multiplexes
/// all `connections` concurrent peers.
fn run_fan_in(io_model: IoModel, connections: usize) -> FanInRun {
    let run = RUN_ID.fetch_add(1, Ordering::Relaxed);
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        max_connections: connections + 8,
        io: IoConfig {
            io_model,
            ..IoConfig::default()
        },
        registry: RegistryConfig::default(),
    })
    .expect("loopback server");
    let addr = server.local_addr();
    let id = format!("fanin-{run}");
    let mut admin = Client::connect(addr).expect("admin connect");
    admin
        .create_campaign(
            &id,
            CampaignSpec {
                num_users: connections as u64,
                num_objects: 4,
                num_shards: 8,
                workers: 0,
                engine_queue: 8_192,
                deadline_us: 1_000_000,
                submission_capacity: (connections as u64 * 2).max(1 << 10),
                per_round_epsilon: 0.5,
                per_round_delta: 0.01,
                budget_epsilon: 8.0,
                budget_delta: 0.16,
                stream_tag: 0,
                durable: false,
            },
        )
        .expect("create fan-in campaign");

    // ≤2000 client sockets per child keeps every child far inside the
    // default descriptor budget.
    let kids = connections.div_ceil(2_000).max(1);
    let per_kid = connections.div_ceil(kids);
    let exe = std::env::current_exe().expect("bench executable path");
    let mut children: Vec<std::process::Child> = (0..kids)
        .map(|k| {
            let lo = k * per_kid;
            let hi = ((k + 1) * per_kid).min(connections);
            std::process::Command::new(&exe)
                .env("DPTD_FANIN_CHILD", format!("{addr} {id} {lo} {hi}"))
                .stdin(std::process::Stdio::piped())
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("spawn fan-in child")
        })
        .collect();

    // Barrier: every child has its whole socket slice connected.
    use std::io::{BufRead as _, BufReader, Write as _};
    let mut readers: Vec<BufReader<std::process::ChildStdout>> = children
        .iter_mut()
        .map(|c| BufReader::new(c.stdout.take().expect("child stdout")))
        .collect();
    for reader in &mut readers {
        let mut line = String::new();
        reader.read_line(&mut line).expect("child READY");
        assert_eq!(line.trim(), "READY", "child handshake: {line:?}");
    }

    let started = Instant::now();
    for child in &mut children {
        child
            .stdin
            .as_mut()
            .expect("child stdin")
            .write_all(b"GO\n")
            .expect("release child");
    }
    let mut total_reports = 0u64;
    let mut submit_rtt = Histogram::new();
    for (child, reader) in children.iter_mut().zip(&mut readers) {
        let mut reports_line = None;
        for line in reader.lines() {
            let line = line.expect("child output");
            if let Some(ns) = line.strip_prefix("R ") {
                submit_rtt.record(std::time::Duration::from_nanos(
                    ns.parse().expect("rtt line"),
                ));
            } else if let Some(n) = line.strip_prefix("DONE ") {
                reports_line = Some(n.parse::<u64>().expect("done line"));
            }
        }
        total_reports += reports_line.expect("child DONE line");
        assert!(child.wait().expect("child exit").success());
    }
    let round = admin.close_round(&id, 0).expect("close fan-in round");
    assert_eq!(round.accepted as u64, total_reports, "no report lost");
    let elapsed_s = started.elapsed().as_secs_f64();
    let io_threads = server.frontend().io_threads();
    server.shutdown();
    FanInRun {
        connections,
        reports: total_reports,
        elapsed_s,
        submit_rtt,
        weights_digest: round.weights_digest,
        io_threads,
    }
}

/// Child-process half of [`run_fan_in`]: connect users `lo..hi` (every
/// socket held open), say `READY`, wait for `GO`, submit one frame per
/// connection, then dump per-frame RTTs and exit.
fn fan_in_child(task: &str) {
    let mut parts = task.split_whitespace();
    let addr = parts.next().expect("child addr");
    let id = parts.next().expect("child campaign");
    let lo: usize = parts.next().and_then(|s| s.parse().ok()).expect("child lo");
    let hi: usize = parts.next().and_then(|s| s.parse().ok()).expect("child hi");

    let mut clients: Vec<(usize, Client)> = (lo..hi)
        .map(|user| {
            // A connect storm from several children can outrun the
            // listener's accept backlog; brief retries absorb it.
            let mut attempt = 0;
            loop {
                match Client::connect(addr) {
                    Ok(c) => break (user, c),
                    Err(e) if attempt < 50 => {
                        attempt += 1;
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        let _ = e;
                    }
                    Err(e) => panic!("fan-in child connect (user {user}): {e}"),
                }
            }
        })
        .collect();

    println!("READY"); // Rust stdout is line-buffered: this flushes
    let mut go = String::new();
    std::io::stdin().read_line(&mut go).expect("parent GO line");
    assert_eq!(go.trim(), "GO", "parent handshake: {go:?}");

    let mut rtts = Vec::with_capacity(clients.len());
    for (user, client) in &mut clients {
        let frame = vec![dptd_protocol::message::StampedReport {
            epoch: 0,
            sent_at_us: *user as u64 + 1,
            report: dptd_core::roles::PerturbedReport {
                user: *user,
                values: (0..4).map(|o| (o, (*user + o) as f64 * 0.25)).collect(),
            },
        }];
        let t0 = Instant::now();
        let outcome = client.submit(id, frame).expect("fan-in submit");
        rtts.push(t0.elapsed().as_nanos() as u64);
        assert!(
            matches!(outcome, dptd_server::client::SubmitOutcome::Queued(_)),
            "fan-in queue sized to never push back"
        );
    }
    drop(clients); // sockets stay open until the round is fully fed
    let mut out = String::with_capacity(rtts.len() * 12);
    for ns in &rtts {
        out.push_str(&format!("R {ns}\n"));
    }
    out.push_str(&format!("DONE {}\n", rtts.len()));
    print!("{out}");
}

fn summarize_fan_in(tag: &str, run: &FanInRun) {
    let ns = |d: Option<std::time::Duration>| d.map_or(0, |d| d.as_nanos() as u64);
    println!(
        "server_throughput/fanin_{tag}: {} connections over {} I/O thread(s) \
         ({:.0} conns/thread) → {} reports in {:.3} s ({:.0} reports/s); \
         submit RTT p50 {} ns p99 {} ns",
        run.connections,
        run.io_threads,
        run.connections as f64 / run.io_threads.max(1) as f64,
        run.reports,
        run.elapsed_s,
        run.reports as f64 / run.elapsed_s.max(1e-9),
        ns(run.submit_rtt.p50()),
        ns(run.submit_rtt.p99()),
    );
    let summary = BenchSummary {
        bench: format!("server_fanin_{tag}"),
        reports: run.reports,
        elapsed_s: run.elapsed_s,
        p50_ns: ns(run.submit_rtt.p50()),
        p99_ns: ns(run.submit_rtt.p99()),
        weights_digest: run.weights_digest,
        extras: vec![
            (keys::CONNECTIONS.to_string(), run.connections as f64),
            (keys::IO_THREADS.to_string(), run.io_threads as f64),
            (
                keys::CONNECTIONS_PER_THREAD.to_string(),
                run.connections as f64 / run.io_threads.max(1) as f64,
            ),
        ],
    };
    match summary.write() {
        Ok(path) => println!(
            "server_throughput/fanin_{tag}: summary → {}",
            path.display()
        ),
        Err(e) => eprintln!("server_throughput/fanin_{tag}: summary write failed: {e}"),
    }
}

/// The high-fan-in experiment: ≥10k concurrent submitters under the
/// reactor without 10k server threads; the threads model runs at a
/// budget it can survive (one thread per connection) for comparison.
fn bench_fan_in(_c: &mut Criterion) {
    let (reactor_conns, threads_conns) = if smoke() { (64, 64) } else { (10_000, 512) };
    // The client sockets live in child processes, so this process only
    // needs the server-side descriptors plus pipes and headroom.
    let have = raise_nofile(reactor_conns as u64 + 128);
    let reactor_conns = reactor_conns.min((have.saturating_sub(128)) as usize);

    let reactor = run_fan_in(IoModel::Reactor, reactor_conns);
    summarize_fan_in("reactor", &reactor);
    assert!(
        reactor.io_threads <= 8,
        "the reactor must hold {} connections on a bounded thread pool, used {}",
        reactor.connections,
        reactor.io_threads,
    );

    let threads = run_fan_in(IoModel::Threads, threads_conns);
    summarize_fan_in("threads", &threads);
    if reactor.connections == threads.connections {
        assert_eq!(
            reactor.weights_digest, threads.weights_digest,
            "identical fan-in must aggregate bit-identically across io models"
        );
    }
}

criterion_group!(benches, bench_fan_in);

// Hand-rolled `criterion_main!`: the fan-in experiment re-execs this
// binary as its submitter children, flagged by `DPTD_FANIN_CHILD`.
fn main() {
    if let Ok(task) = std::env::var("DPTD_FANIN_CHILD") {
        fan_in_child(&task);
        return;
    }
    benches();
}
