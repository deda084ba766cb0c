//! Loopback end-to-end harness for the multi-campaign network service.
//!
//! The acceptance bar: **N campaigns served concurrently over real TCP
//! produce weights digests and budget ledgers bit-identical to N
//! sequential in-process `CampaignDriver` runs on the same seeds** —
//! including one campaign killed mid-round (its server dies with
//! reports submitted but the round never closed) and resumed from its
//! per-campaign write-ahead log by a fresh server on the same WAL root.
//!
//! The wire moves the bytes; the aggregation pipeline, budget
//! accounting and WAL semantics are exactly the in-process ones, so
//! nothing about serving may perturb a single bit.

mod common;

use std::collections::BTreeMap;

use dptd::engine::{Engine, EngineBackend, EngineConfig, LoadGen};
use dptd::ldp::PrivacyLoss;
use dptd::protocol::campaign::{CampaignConfig, CampaignDriver};
use dptd::server::client::SubmitOutcome;
use dptd::server::registry::RegistryConfig;
use dptd::server::{CampaignSpec, Client, ErrorCode, Server, ServerConfig, ServerError};
use dptd::stats::digest::fnv1a_f64s;
use dptd::truth::Loss;

/// One campaign's shape: distinct seeds/sizes per campaign so the
/// concurrent server demonstrably keeps the streams apart.
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
        id: "metro-air",
        seed: 101,
        users: 150,
        objects: 4,
        rounds: 4,
        shards: 4,
        churn: 0.2,
    },
    Shape {
        id: "floorplan-7",
        seed: 202,
        users: 90,
        objects: 3,
        rounds: 4,
        shards: 2,
        churn: 0.1,
    },
    // The durable one: budget affords only 3 of its 4 rounds, so the
    // resumed tail also exercises refusals.
    Shape {
        id: "traffic_speed.v2",
        seed: 303,
        users: 120,
        objects: 5,
        rounds: 4,
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
        // Three affordable rounds against four driven ones: the last
        // round sees budget refusals on both paths.
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
        // Fingerprint the shape (the e2e drives one fixed stream per
        // campaign); a durable resume under a different one must refuse.
        stream_tag: shape.seed ^ (shape.users as u64) << 20,
        durable,
    }
}

/// What one campaign run (served or in-process) observably produced.
#[derive(Debug, Clone, PartialEq)]
struct Trace {
    /// Per round: (accepted, refused, duplicates, late, weights digest).
    rounds: Vec<(u64, u64, u64, u64, u64)>,
    /// Final per-user debit ledger.
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
    let backend = EngineBackend::new(engine).unwrap();
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

/// Drive rounds `from..to` of `shape` over the wire, appending to
/// `trace`.
fn drive_served(client: &mut Client, shape: &Shape, from: u64, to: u64, trace: &mut Trace) {
    let load = load_for(shape);
    for epoch in from..to {
        client
            .submit_chunked(shape.id, &load.epoch_reports(epoch), 256)
            .unwrap();
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
}

/// The full concurrent + kill + WAL-resume scenario: every served
/// campaign must reproduce its in-process reference bit for bit.
#[test]
fn concurrent_campaigns_match_sequential_runs_including_a_mid_round_kill() {
    let wal_root = std::env::temp_dir().join(format!(
        "dptd-server-e2e-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&wal_root);

    let references: Vec<Trace> = SHAPES.iter().map(reference_trace).collect();
    let killed = &SHAPES[2];
    let kill_at_round = 2u64;

    // ---- Phase A: one server, three campaigns, fully concurrent. ----
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        max_connections: 16,
        registry: RegistryConfig {
            wal_root: Some(wal_root.clone()),
            ..RegistryConfig::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    let mut served: BTreeMap<&'static str, Trace> = BTreeMap::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, shape) in SHAPES.iter().enumerate() {
            handles.push((
                shape.id,
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let durable = i == 2;
                    assert_eq!(
                        client
                            .create_campaign(shape.id, spec_for(shape, durable))
                            .unwrap(),
                        0
                    );
                    let mut trace = Trace {
                        rounds: Vec::new(),
                        debits: Vec::new(),
                    };
                    if durable {
                        // Run up to the kill point, then die mid-round: part
                        // of the next round's stream is submitted but the
                        // round never closes.
                        drive_served(&mut client, shape, 0, kill_at_round, &mut trace);
                        let load = load_for(shape);
                        let partial = load.epoch_reports(kill_at_round);
                        let half = &partial[..partial.len() / 2];
                        client.submit_chunked(shape.id, half, 64).unwrap();
                        // The thread (the "phone fleet") stops here; the
                        // server dies below with the round open.
                    } else {
                        drive_served(&mut client, shape, 0, shape.rounds, &mut trace);
                    }
                    trace
                }),
            ));
        }
        for (id, handle) in handles {
            served.insert(id, handle.join().expect("campaign thread"));
        }
    });
    // Kill the server with the durable campaign's round 2 open.
    server.shutdown();

    // The two volatile campaigns already match their references.
    for (shape, reference) in SHAPES.iter().zip(&references).take(2) {
        assert_eq!(
            &served[shape.id], reference,
            "served `{}` diverged from the in-process reference",
            shape.id
        );
    }

    // ---- Phase B: a fresh server on the same WAL root resumes the ----
    // killed campaign from its per-campaign log.
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        max_connections: 16,
        registry: RegistryConfig {
            wal_root: Some(wal_root.clone()),
            ..RegistryConfig::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let resumed = client
        .create_campaign(killed.id, spec_for(killed, true))
        .unwrap();
    assert_eq!(
        resumed, kill_at_round,
        "the WAL holds exactly the rounds closed before the kill"
    );
    // The mid-round submissions died with the first server: the resumed
    // round starts from an empty queue and the full stream is re-driven.
    let mut resumed_trace = served.remove(killed.id).unwrap();
    drive_served(
        &mut client,
        killed,
        kill_at_round,
        killed.rounds,
        &mut resumed_trace,
    );
    assert_eq!(
        &resumed_trace, &references[2],
        "kill + WAL resume must reproduce the uninterrupted run bit-for-bit"
    );
    // The constrained budget actually bit: the last round refused users
    // on both paths (the equality above is not vacuous).
    assert!(
        resumed_trace.rounds.last().unwrap().1 > 0,
        "expected budget refusals in the final round"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

#[test]
fn submission_backpressure_is_an_explicit_busy_over_tcp() {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .unwrap();
    let shape = &SHAPES[1];
    let mut spec = spec_for(shape, false);
    spec.submission_capacity = 32;
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.create_campaign(shape.id, spec).unwrap();

    let load = load_for(shape);
    let reports = load.epoch_reports(0);
    assert!(reports.len() > 32, "shape must overflow the tiny queue");
    // Fill to capacity in one batch…
    match client.submit(shape.id, reports[..32].to_vec()).unwrap() {
        SubmitOutcome::Queued(32) => {}
        other => panic!("expected 32 queued, got {other:?}"),
    }
    // …then every further report is pushed back, atomically.
    match client.submit(shape.id, reports[32..34].to_vec()).unwrap() {
        SubmitOutcome::Busy {
            queued: 32,
            capacity: 32,
        } => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    // And submit_chunked surfaces it as a typed client error.
    let err = client
        .submit_chunked(shape.id, &reports[32..], 16)
        .unwrap_err();
    assert!(matches!(err, ServerError::Busy), "{err:?}");
    server.shutdown();
}

#[test]
fn a_second_live_writer_on_a_served_wal_directory_is_refused() {
    let wal_root = std::env::temp_dir().join(format!(
        "dptd-server-e2e-lock-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&wal_root);
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        registry: RegistryConfig {
            wal_root: Some(wal_root.clone()),
            ..RegistryConfig::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let shape = &SHAPES[0];
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .create_campaign(shape.id, spec_for(shape, true))
        .unwrap();
    // The served campaign holds the advisory lock on its directory: an
    // external writer (e.g. `dptd campaign --wal`) is refused at open.
    let err = dptd::engine::WalLock::acquire(&wal_root.join(shape.id)).unwrap_err();
    assert!(
        matches!(err, dptd::engine::WalError::Locked { .. }),
        "{err:?}"
    );
    // And so is a second server-side create of the same durable id on
    // this server (CampaignExists) — the id is live.
    let mut second = Client::connect(server.local_addr()).unwrap();
    let err = second
        .create_campaign(shape.id, spec_for(shape, true))
        .unwrap_err();
    match err {
        ServerError::Remote { code, .. } => assert_eq!(code, ErrorCode::CampaignExists),
        other => panic!("expected Remote(CampaignExists), got {other:?}"),
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}
