//! Loopback end-to-end harness for the cluster subsystem.
//!
//! The acceptance bar, part one: **a 3-node campaign over real TCP —
//! durable, with a budget-constrained final round — is bit-identical in
//! weights digest AND per-user debit ledger to the same campaign on a
//! single-node server and to an in-process `CampaignDriver<SimBackend>`
//! run.** Each node owns a rendezvous partition of the population, so
//! nothing about fanning the stream out and merging it back through the
//! two-phase barrier may perturb a single bit.
//!
//! Part two: **failover.** A primary node replicating its WAL directory
//! to a follower is killed without any flush; a fresh node pointed at
//! the follower's replica directory resumes the campaign via the stock
//! crash-recovery path and completes it bit-identically to an
//! uninterrupted run. (Kills at *arbitrary replication offsets* are
//! pinned by `crates/cluster/tests/replication_faults.rs`; this harness
//! pins the end-to-end TCP story.)

mod common;

use dptd::cluster::{ClusterCampaign, ClusterSpec, NodeConfig, NodeServer};
use dptd::ldp::PrivacyLoss;
use dptd::protocol::campaign::{CampaignConfig, CampaignDriver, SimBackend};
use dptd::server::registry::RegistryConfig;
use dptd::server::{CampaignSpec, Client, Server, ServerConfig};
use dptd::stats::digest::fnv1a_f64s;
use dptd::truth::Loss;

const USERS: usize = 120;
const OBJECTS: usize = 5;
const ROUNDS: u64 = 4;
const SEED: u64 = 303;

fn per_round_loss() -> PrivacyLoss {
    PrivacyLoss::new(0.5, 0.01).unwrap()
}

/// Three affordable rounds against four driven ones: the final round
/// sees budget refusals on every path.
fn budget() -> PrivacyLoss {
    PrivacyLoss::new(1.5, 0.03).unwrap()
}

fn load() -> dptd::engine::LoadGen {
    common::churny_load(USERS, OBJECTS, ROUNDS, 0.25, 0.02, 0.02, SEED)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dptd-cluster-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What one campaign run observably produced, however it was hosted.
#[derive(Debug, Clone, PartialEq)]
struct Trace {
    /// Per round: (accepted, refused, duplicates, late, weights digest).
    rounds: Vec<(u64, u64, u64, u64, u64)>,
    /// Final per-user debit ledger.
    debits: Vec<u32>,
}

fn sim_trace() -> Trace {
    let load = load();
    let mut driver = CampaignDriver::new(
        SimBackend::new(USERS, Loss::Squared).unwrap(),
        CampaignConfig {
            num_objects: OBJECTS,
            deadline_us: 1_000_000,
            per_round_loss: per_round_loss(),
            budget: budget(),
        },
    )
    .unwrap();
    let mut rounds = Vec::new();
    for epoch in 0..ROUNDS {
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

fn single_node_trace() -> Trace {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        registry: RegistryConfig::default(),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .create_campaign(
            "one-node",
            CampaignSpec {
                num_users: USERS as u64,
                num_objects: OBJECTS as u64,
                num_shards: 4,
                workers: 0,
                engine_queue: 4_096,
                deadline_us: 1_000_000,
                submission_capacity: 1 << 15,
                per_round_epsilon: per_round_loss().epsilon(),
                per_round_delta: per_round_loss().delta(),
                budget_epsilon: budget().epsilon(),
                budget_delta: budget().delta(),
                stream_tag: SEED,
                durable: false,
            },
        )
        .unwrap();
    let load = load();
    let mut rounds = Vec::new();
    for epoch in 0..ROUNDS {
        client
            .submit_chunked("one-node", &load.epoch_reports(epoch), 256)
            .unwrap();
        let round = client.close_round("one-node", epoch).unwrap();
        rounds.push((
            round.accepted,
            round.refused,
            round.duplicates,
            round.late,
            round.weights_digest,
        ));
    }
    let debits = client.query_budget("one-node").unwrap().debits;
    server.shutdown();
    Trace { rounds, debits }
}

fn cluster_spec(durable: bool) -> ClusterSpec {
    ClusterSpec {
        num_users: USERS,
        num_objects: OBJECTS,
        deadline_us: 1_000_000,
        per_round_loss: per_round_loss(),
        budget: budget(),
        submission_capacity: 1 << 15,
        stream_tag: SEED,
        durable,
    }
}

#[test]
fn three_node_campaign_is_bit_identical_to_single_node_and_sim() {
    let reference = sim_trace();
    assert!(
        reference.rounds[ROUNDS as usize - 1].1 > 0,
        "the shape must exercise budget refusals in its final round: {reference:?}"
    );
    assert_eq!(single_node_trace(), reference);

    // Three durable nodes, each with its own WAL root.
    let roots: Vec<_> = (0..3).map(|i| temp_dir(&format!("node{i}"))).collect();
    let nodes: Vec<NodeServer> = (0..3)
        .map(|id| {
            NodeServer::start(NodeConfig {
                node_id: id as u32,
                num_nodes: 3,
                wal_root: Some(roots[id].clone()),
                ..NodeConfig::default()
            })
            .unwrap()
        })
        .collect();
    let addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();

    let mut cluster = ClusterCampaign::create(&addrs, "trio", cluster_spec(true)).unwrap();
    let load = load();
    let mut trace = Trace {
        rounds: Vec::new(),
        debits: Vec::new(),
    };
    for epoch in 0..ROUNDS {
        cluster.submit(&load.epoch_reports(epoch), 256).unwrap();
        let round = cluster.close_round(epoch).unwrap();
        trace.rounds.push((
            round.accepted as u64,
            round.refused_users as u64,
            round.duplicates_discarded,
            round.late_dropped,
            round.weights_digest,
        ));
    }
    trace.debits = cluster.accountant().debits_by_user().to_vec();
    assert_eq!(trace, reference, "3-node vs in-process sim");

    // A fresh coordinator resumes the completed campaign from the node
    // ledgers alone and rebuilds the identical global estimator.
    drop(cluster);
    let (resumed, at) = ClusterCampaign::resume(&addrs, "trio", cluster_spec(true)).unwrap();
    assert_eq!(at, ROUNDS);
    assert!(!resumed.needs_redrive());
    assert_eq!(resumed.weights_digest(), reference.rounds[3].4);
    assert_eq!(resumed.accountant().debits_by_user(), &reference.debits[..]);

    for node in nodes {
        node.shutdown();
    }
    for root in roots {
        let _ = std::fs::remove_dir_all(root);
    }
}

#[test]
fn a_killed_primary_fails_over_to_its_follower_bit_identically() {
    let reference = sim_trace();

    let wal_root = temp_dir("primary");
    let replica_root = temp_dir("replica");

    let follower = NodeServer::start(NodeConfig {
        replica_root: Some(replica_root.clone()),
        ..NodeConfig::default()
    })
    .unwrap();
    let primary = NodeServer::start(NodeConfig {
        wal_root: Some(wal_root.clone()),
        replicate_to: Some(follower.local_addr().to_string()),
        ..NodeConfig::default()
    })
    .unwrap();
    let addrs = vec![primary.local_addr().to_string()];

    // Two rounds, then the primary dies abruptly: no flush, no clean
    // shutdown. Every committed store mutation has already been acked
    // by the follower, so the replica directory is a valid prefix.
    let mut cluster = ClusterCampaign::create(&addrs, "fail", cluster_spec(true)).unwrap();
    let load = load();
    for epoch in 0..2 {
        cluster.submit(&load.epoch_reports(epoch), 256).unwrap();
        let round = cluster.close_round(epoch).unwrap();
        assert_eq!(round.weights_digest, reference.rounds[epoch as usize].4);
    }
    drop(cluster);
    drop(primary); // kill: threads stop, nothing is finalized
    let flushed = follower.shutdown();
    assert_eq!(flushed, 0, "the follower holds replicas, not campaigns");

    // Failover = the stock recovery path pointed at the replica
    // directory: a fresh node adopts the follower's bytes as its WAL.
    let successor = NodeServer::start(NodeConfig {
        wal_root: Some(replica_root.clone()),
        ..NodeConfig::default()
    })
    .unwrap();
    let addrs = vec![successor.local_addr().to_string()];
    let (mut cluster, at) = ClusterCampaign::resume(&addrs, "fail", cluster_spec(true)).unwrap();
    assert_eq!(at, 2, "the replica holds both committed rounds");
    assert!(!cluster.needs_redrive());
    assert_eq!(cluster.weights_digest(), reference.rounds[1].4);

    // The resumed campaign completes bit-identically to a run that
    // never failed over.
    for epoch in 2..ROUNDS {
        cluster.submit(&load.epoch_reports(epoch), 256).unwrap();
        let round = cluster.close_round(epoch).unwrap();
        let (accepted, refused, dup, late, digest) = reference.rounds[epoch as usize];
        assert_eq!(round.accepted as u64, accepted);
        assert_eq!(round.refused_users as u64, refused);
        assert_eq!(round.duplicates_discarded, dup);
        assert_eq!(round.late_dropped, late);
        assert_eq!(round.weights_digest, digest);
    }
    assert_eq!(cluster.accountant().debits_by_user(), &reference.debits[..]);

    successor.shutdown();
    let _ = std::fs::remove_dir_all(wal_root);
    let _ = std::fs::remove_dir_all(replica_root);
}

#[test]
fn losing_the_follower_latches_a_diagnostic_without_blocking_the_primary() {
    let wal_root = temp_dir("latch-wal");
    let replica_root = temp_dir("latch-replica");

    let follower = NodeServer::start(NodeConfig {
        replica_root: Some(replica_root.clone()),
        ..NodeConfig::default()
    })
    .unwrap();
    let primary = NodeServer::start(NodeConfig {
        wal_root: Some(wal_root.clone()),
        replicate_to: Some(follower.local_addr().to_string()),
        ..NodeConfig::default()
    })
    .unwrap();
    let addrs = vec![primary.local_addr().to_string()];

    let mut cluster = ClusterCampaign::create(&addrs, "latch", cluster_spec(true)).unwrap();
    let load = load();
    cluster.submit(&load.epoch_reports(0), 256).unwrap();
    cluster.close_round(0).unwrap();
    assert_eq!(primary.replication_failure("latch"), None);

    // The follower disappears; the primary keeps committing rounds and
    // reports the replication loss through its failure slot.
    follower.shutdown();
    cluster.submit(&load.epoch_reports(1), 256).unwrap();
    let round = cluster.close_round(1).unwrap();
    assert_eq!(round.epoch, 1, "the primary never blocks on its follower");
    let failure = primary
        .replication_failure("latch")
        .expect("the lost follower must latch a diagnostic");
    assert!(failure.contains("replicating op"), "{failure}");

    primary.shutdown();
    let _ = std::fs::remove_dir_all(wal_root);
    let _ = std::fs::remove_dir_all(replica_root);
}
