//! End-to-end pin for the observability layer.
//!
//! Two guarantees, tested over real TCP against the multi-campaign
//! server:
//!
//! 1. **Observability is free of side effects.** A served run with
//!    tracing enabled and `QueryStatus` snapshots interleaved between
//!    every submit and round close produces round tuples, weights
//!    digests, and budget debit ledgers bit-identical to both an
//!    uninstrumented served run and the sequential in-process
//!    `CampaignDriver` reference.
//! 2. **The live metrics plane tells the truth.** With three campaigns
//!    driven concurrently, one `QueryStatus` snapshot reports every
//!    campaign, fair shares that sum to at most 100%, ingest latency
//!    quantiles, connection gauges, and — after deliberately
//!    overflowing a bounded queue — the per-campaign `refused_busy`
//!    frequency counter.

mod common;

use dptd::engine::{Engine, EngineConfig, LoadGen};
use dptd::ldp::PrivacyLoss;
use dptd::obs::trace::{self, codes};
use dptd::obs::{names, MetricsSnapshot};
use dptd::protocol::campaign::{CampaignConfig, CampaignDriver};
use dptd::server::client::SubmitOutcome;
use dptd::server::registry::RegistryConfig;
use dptd::server::{CampaignSpec, Client, Server, ServerConfig};
use dptd::stats::digest::fnv1a_f64s;
use dptd::truth::Loss;

/// One campaign's shape: distinct seeds/sizes per campaign so the
/// snapshot demonstrably keeps the streams apart.
#[derive(Clone, Copy)]
struct Shape {
    id: &'static str,
    seed: u64,
    users: usize,
    objects: usize,
    rounds: u64,
    shards: usize,
    churn: f64,
}

const SHAPES: [Shape; 3] = [
    Shape {
        id: "obs-metro-air",
        seed: 41,
        users: 120,
        objects: 4,
        rounds: 3,
        shards: 4,
        churn: 0.2,
    },
    Shape {
        id: "obs-floorplan",
        seed: 42,
        users: 80,
        objects: 3,
        rounds: 3,
        shards: 2,
        churn: 0.1,
    },
    Shape {
        id: "obs-traffic.v1",
        seed: 43,
        users: 100,
        objects: 5,
        rounds: 3,
        shards: 4,
        churn: 0.25,
    },
];

fn load_for(shape: &Shape) -> LoadGen {
    common::churny_load(
        shape.users,
        shape.objects,
        shape.rounds,
        shape.churn,
        0.02,
        0.02,
        shape.seed,
    )
}

fn campaign_config(shape: &Shape) -> CampaignConfig {
    CampaignConfig {
        num_objects: shape.objects,
        deadline_us: 1_000_000,
        per_round_loss: PrivacyLoss::new(0.5, 0.01).unwrap(),
        budget: PrivacyLoss::new(1.5, 0.03).unwrap(),
    }
}

fn spec_for(shape: &Shape, durable: bool) -> CampaignSpec {
    let cfg = campaign_config(shape);
    CampaignSpec {
        num_users: shape.users as u64,
        num_objects: shape.objects as u64,
        num_shards: shape.shards as u64,
        workers: 0,
        engine_queue: 4_096,
        deadline_us: cfg.deadline_us,
        submission_capacity: 1 << 15,
        per_round_epsilon: cfg.per_round_loss.epsilon(),
        per_round_delta: cfg.per_round_loss.delta(),
        budget_epsilon: cfg.budget.epsilon(),
        budget_delta: cfg.budget.delta(),
        stream_tag: shape.seed ^ (shape.users as u64) << 20,
        durable,
    }
}

/// What one campaign run observably produced: per round
/// `(accepted, refused, duplicates, late, weights digest)` plus the
/// final per-user debit ledger.
#[derive(Debug, Clone, PartialEq)]
struct Trace {
    rounds: Vec<(u64, u64, u64, u64, u64)>,
    debits: Vec<u32>,
}

/// The sequential in-process reference: the same stream through a bare
/// `CampaignDriver<EngineBackend>`.
fn reference_trace(shape: &Shape) -> Trace {
    let load = load_for(shape);
    let engine = Engine::new(EngineConfig {
        num_users: shape.users,
        num_objects: shape.objects,
        num_shards: shape.shards,
        epoch_deadline_us: 1_000_000,
        loss: Loss::Squared,
        ..EngineConfig::default()
    })
    .unwrap();
    let backend = dptd::engine::EngineBackend::new(engine).unwrap();
    let mut driver = CampaignDriver::new(backend, campaign_config(shape)).unwrap();
    let mut rounds = Vec::new();
    for epoch in 0..shape.rounds {
        let round = driver.run_round(epoch, load.epoch_reports(epoch)).unwrap();
        rounds.push((
            round.accepted as u64,
            round.refused_users as u64,
            round.duplicates_discarded,
            round.late_dropped,
            fnv1a_f64s(&round.weights),
        ));
    }
    Trace {
        rounds,
        debits: driver.accountant().debits_by_user().to_vec(),
    }
}

/// Drive all shapes through one server sequentially. When
/// `instrumented`, a full `QueryStatus` snapshot is pulled between
/// every submit and close — the exact interleaving that must not
/// perturb a single bit — and the third campaign runs durable so the
/// WAL commit path is traced too.
fn serve_all(instrumented: bool, wal_root: Option<&std::path::Path>) -> Vec<Trace> {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        registry: RegistryConfig {
            wal_root: wal_root.map(std::path::Path::to_path_buf),
            ..RegistryConfig::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut out = Vec::new();
    for (i, shape) in SHAPES.iter().enumerate() {
        let durable = wal_root.is_some() && i == 2;
        client
            .create_campaign(shape.id, spec_for(shape, durable))
            .unwrap();
        let load = load_for(shape);
        let mut trace = Trace {
            rounds: Vec::new(),
            debits: Vec::new(),
        };
        for epoch in 0..shape.rounds {
            client
                .submit_chunked(shape.id, &load.epoch_reports(epoch), 128)
                .unwrap();
            if instrumented {
                let snap = client.query_status().unwrap();
                assert!(
                    snap.campaign_ids().iter().any(|id| id == shape.id),
                    "mid-run snapshot must list the live campaign `{}`",
                    shape.id
                );
                assert!(
                    snap.scalar(&names::campaign_metric(shape.id, names::QUEUE_DEPTH))
                        .is_some(),
                    "mid-run snapshot must carry the campaign's queue depth"
                );
            }
            let round = client.close_round(shape.id, epoch).unwrap();
            trace.rounds.push((
                round.accepted,
                round.refused,
                round.duplicates,
                round.late,
                round.weights_digest,
            ));
        }
        trace.debits = client.query_budget(shape.id).unwrap().debits;
        out.push(trace);
    }
    server.shutdown();
    out
}

#[test]
fn instrumented_runs_are_bit_identical_to_uninstrumented_and_in_process_references() {
    let wal_root = std::env::temp_dir().join(format!(
        "dptd-obs-e2e-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&wal_root);

    let references: Vec<Trace> = SHAPES.iter().map(reference_trace).collect();
    let plain = serve_all(false, None);

    // The instrumented arm: tracing on, snapshots interleaved, third
    // campaign durable (so WAL commit spans fire).
    trace::reset();
    trace::set_enabled(true);
    let traced = serve_all(true, Some(&wal_root));
    // Engine rounds under tracing cover the round/filter/merge spans of
    // a whole round handed over at once.
    let gen = common::bursty_load(2_000, 4, 2, 0.01, 0.01, 9);
    let eng = Engine::new(EngineConfig {
        num_users: 2_000,
        num_objects: 4,
        num_shards: 4,
        epoch_deadline_us: 1_000_000,
        ..EngineConfig::default()
    })
    .unwrap();
    common::run_epochs(&eng, &gen);
    trace::set_enabled(false);

    assert_eq!(
        plain, references,
        "uninstrumented served runs diverged from the in-process references"
    );
    assert_eq!(
        traced, references,
        "tracing + mid-run QueryStatus perturbed digests or debit ledgers"
    );

    // The rings saw the whole pipeline: submission instants, dequeues,
    // durable commit spans, and the batch engine's round/merge spans.
    let events = trace::collect();
    let has = |code, phase| events.iter().any(|e| e.code == code && e.phase == phase);
    assert!(has(codes::SUBMIT, 'i'), "no submit instants recorded");
    assert!(has(codes::DEQUEUE, 'i'), "no dequeue instants recorded");
    assert!(
        has(codes::COMMIT, 'B') && has(codes::COMMIT, 'E'),
        "durable campaign left no WAL commit span"
    );
    assert!(
        has(codes::ROUND, 'B') && has(codes::ROUND, 'E'),
        "batch engine run left no round span"
    );
    assert!(has(codes::MERGE, 'B'), "no merge span recorded");

    // And the dump is well-formed chrome://tracing JSON.
    let json = trace::dump_chrome_json();
    assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    for needle in [
        "\"ph\":\"B\"",
        "\"ph\":\"E\"",
        "\"ph\":\"i\"",
        "\"name\":\"commit\"",
    ] {
        assert!(json.contains(needle), "dump missing {needle}");
    }

    let _ = std::fs::remove_dir_all(&wal_root);
}

#[test]
fn live_status_snapshot_reports_fair_shares_latencies_and_refusals() {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    // Hold one extra connection open so the live-connection gauge has a
    // floor even after the campaign drivers hang up.
    let mut observer = Client::connect(addr).unwrap();

    // Three campaigns driven fully concurrently, one thread each.
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for shape in &SHAPES {
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client
                    .create_campaign(shape.id, spec_for(shape, false))
                    .unwrap();
                let load = load_for(shape);
                for epoch in 0..shape.rounds {
                    client
                        .submit_chunked(shape.id, &load.epoch_reports(epoch), 128)
                        .unwrap();
                    client.close_round(shape.id, epoch).unwrap();
                }
            }));
        }
        for handle in handles {
            handle.join().expect("campaign thread");
        }
    });

    // Overflow a tiny bounded queue so the Busy frequency counter has
    // something to say.
    let busy = &SHAPES[1];
    let busy_id = "obs-busy";
    let mut spec = spec_for(busy, false);
    spec.submission_capacity = 32;
    let load = load_for(busy);
    let reports = load.epoch_reports(0);
    observer.create_campaign(busy_id, spec).unwrap();
    match observer.submit(busy_id, reports[..32].to_vec()).unwrap() {
        SubmitOutcome::Queued(32) => {}
        other => panic!("expected 32 queued, got {other:?}"),
    }
    match observer.submit(busy_id, reports[32..34].to_vec()).unwrap() {
        SubmitOutcome::Busy { .. } => {}
        other => panic!("expected Busy, got {other:?}"),
    }

    let snapshot: MetricsSnapshot = observer.query_status().unwrap();

    // Connection plane: the observer itself is live, at least four
    // connections (observer + three drivers) were accepted, and the
    // reactor's thread count is reported.
    assert!(snapshot.scalar(names::SERVER_CONN_LIVE).unwrap_or(0) >= 1);
    assert!(snapshot.scalar(names::SERVER_CONN_ACCEPTED).unwrap_or(0) >= 4);
    assert!(snapshot.scalar(names::SERVER_IO_THREADS).unwrap_or(0) >= 1);
    assert!(snapshot.scalar(names::SERVER_REQUESTS).unwrap_or(0) > 0);

    // Campaign plane: every campaign present, fair shares a partition.
    let shares = snapshot.campaign_shares();
    for shape in &SHAPES {
        let share = shares
            .iter()
            .find(|s| s.id == shape.id)
            .unwrap_or_else(|| panic!("campaign `{}` missing from the snapshot", shape.id));
        assert!(
            share.submitted > 0,
            "`{}` reported no submissions",
            shape.id
        );
        assert!(share.accepted > 0, "`{}` reported no accepts", shape.id);
        assert_eq!(share.rounds, shape.rounds, "`{}` round count", shape.id);
        assert_eq!(share.queue_depth, 0, "`{}` should have drained", shape.id);
        assert!(!share.quarantined);
        assert!(
            share.ingest.p50_ns().is_some() && share.ingest.p99_ns().is_some(),
            "`{}` must expose ingest latency quantiles",
            shape.id
        );
        assert!((0.0..=1.0).contains(&share.share));
    }
    let total: f64 = shares.iter().map(|s| s.share).sum();
    assert!(
        total <= 1.0 + 1e-9,
        "fair shares must sum to at most 100%, got {total}"
    );

    // Refusal plane: the overflowed queue shows up as a per-campaign
    // Busy frequency, in both the share view and the raw counter.
    let busy_share = shares.iter().find(|s| s.id == busy_id).unwrap();
    assert!(
        busy_share.refused_busy >= 1,
        "the overflowed queue must be visible as refused_busy"
    );
    assert_eq!(
        snapshot.scalar(&names::campaign_metric(busy_id, names::REFUSED_BUSY)),
        Some(busy_share.refused_busy)
    );

    server.shutdown();
}
