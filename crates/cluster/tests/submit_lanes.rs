//! Faults in the coordinator's submit fan-out, over real `NodeServer`s.
//!
//! `ClusterCampaign::submit` runs one pipelined stream per node from
//! one thread (`dptd_server::submit_streams`): a window of batches in
//! flight on every connection. A node that pushes back on one batch, or
//! refuses one outright, does so while later batches are in flight on
//! its own connection and on the others. Afterwards every connection
//! must still be in step with its node — a status query and a whole
//! barrier (prepare + commit on each) succeed — a second submit on the
//! same connections must work, and the committed rounds must be
//! bit-identical to the in-process `SimBackend` run of the same stream.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dptd_cluster::{
    rendezvous_map, ClusterCampaign, ClusterError, ClusterRound, ClusterSpec, NodeConfig,
    NodeServer,
};
use dptd_core::roles::PerturbedReport;
use dptd_ldp::PrivacyLoss;
use dptd_obs::names;
use dptd_protocol::campaign::{CampaignConfig, CampaignDriver, SimBackend};
use dptd_protocol::message::StampedReport;
use dptd_protocol::partition::PartitionMap;
use dptd_server::{Client, ErrorCode, RetryPolicy, ServerError};
use dptd_stats::digest::fnv1a_f64s;
use dptd_truth::Loss;

const USERS: usize = 60;
const NODES: u32 = 3;
/// Small batches: every node's stream is many frames, all in flight.
const CHUNK: usize = 2;
const DEADLINE_US: u64 = 100;

fn spec(capacity: u64) -> ClusterSpec {
    ClusterSpec {
        num_users: USERS,
        num_objects: 2,
        deadline_us: DEADLINE_US,
        per_round_loss: PrivacyLoss::new(0.5, 0.0).unwrap(),
        budget: PrivacyLoss::new(1.0, 0.0).unwrap(),
        submission_capacity: capacity,
        stream_tag: 0,
        durable: false,
    }
}

fn sim() -> CampaignDriver<SimBackend> {
    CampaignDriver::new(
        SimBackend::new(USERS, Loss::Squared).unwrap(),
        CampaignConfig {
            num_objects: 2,
            deadline_us: DEADLINE_US,
            per_round_loss: PrivacyLoss::new(0.5, 0.0).unwrap(),
            budget: PrivacyLoss::new(1.0, 0.0).unwrap(),
        },
    )
    .unwrap()
}

fn start_nodes() -> (Vec<NodeServer>, Vec<String>) {
    let nodes: Vec<NodeServer> = (0..NODES)
        .map(|id| {
            NodeServer::start(NodeConfig {
                node_id: id,
                num_nodes: NODES,
                ..NodeConfig::default()
            })
            .unwrap()
        })
        .collect();
    let addrs = nodes.iter().map(|s| s.local_addr().to_string()).collect();
    (nodes, addrs)
}

fn stamped(user: usize, epoch: u64, sent_at_us: u64, value: f64) -> StampedReport {
    StampedReport {
        epoch,
        sent_at_us,
        report: PerturbedReport {
            user,
            values: vec![(0, value), (1, value * 0.5 - 1.0)],
        },
    }
}

/// Every user once, with first-wins duplicates and late drops mixed in.
fn messy_round(epoch: u64) -> Vec<StampedReport> {
    let mut reports = Vec::new();
    for user in 0..USERS {
        let jitter = ((user as u64 * 37 + epoch * 11) % 90) + 1;
        reports.push(stamped(user, epoch, jitter, user as f64 + epoch as f64));
        if user % 3 == 0 {
            reports.push(stamped(user, epoch, jitter + 1, -99.0));
        }
        if user % 4 == 1 {
            reports.push(stamped(user, epoch, 150, -77.0));
        }
    }
    reports
}

/// The coordinator's partition of the population.
fn partition() -> PartitionMap {
    rendezvous_map(USERS, NODES as usize).unwrap()
}

/// Reports per node for `stream`.
fn per_node(stream: &[StampedReport]) -> Vec<u64> {
    let partition = partition();
    let mut counts = vec![0u64; NODES as usize];
    for r in stream {
        counts[partition.node_of(r.report.user)] += 1;
    }
    counts
}

/// A round whose stream overloads node 0: `extra` late reports for its
/// users (dropped at the deadline, so they change no aggregate) follow
/// the messy round.
fn overloaded_round(epoch: u64, extra: usize) -> Vec<StampedReport> {
    let mut stream = messy_round(epoch);
    let owned = partition().locals(0).to_vec();
    stream.extend(
        owned
            .iter()
            .cycle()
            .take(extra)
            .map(|&user| stamped(user, epoch, DEADLINE_US + 50, -55.0)),
    );
    stream
}

fn assert_matches_sim(ours: &ClusterRound, reference: &dptd_protocol::campaign::DriverRound) {
    assert_eq!(ours.truths, reference.truths, "round {} truths", ours.epoch);
    assert_eq!(
        ours.weights_digest,
        fnv1a_f64s(&reference.weights),
        "round {} weights",
        ours.epoch
    );
    assert_eq!(ours.accepted, reference.accepted);
    assert_eq!(ours.refused_users, reference.refused_users);
    assert_eq!(ours.max_spent, reference.max_spent);
}

/// Each time `addr`'s node pushes back on `campaign`, drain its round-0
/// queue into the staged lane from a connection of our own — a closer
/// racing the submitter — until `done` is set.
fn drain_on_busy(addr: &str, campaign: &'static str, done: &Arc<AtomicBool>) -> JoinHandle<()> {
    let (addr, done) = (addr.to_string(), Arc::clone(done));
    std::thread::spawn(move || {
        let mut direct = Client::connect(addr.as_str()).unwrap();
        let refused_busy = names::campaign_metric(campaign, names::REFUSED_BUSY);
        let mut drained = 0;
        while !done.load(Ordering::SeqCst) {
            let refusals = direct
                .query_status()
                .unwrap()
                .scalar(&refused_busy)
                .unwrap_or(0);
            if refusals > drained {
                direct.close_round_prepare(campaign, 0, vec![]).unwrap();
                drained = refusals;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    })
}

/// Node 0 cannot queue its whole stream: it refuses one batch for
/// backpressure while later batches are in flight on it and on nodes 1
/// and 2. Retried, the batch goes in under its own sequence number once
/// a closer drains the node, and the round is exactly the reference's.
#[test]
fn a_busy_node_with_batches_in_flight_everywhere_is_retried_in_order() {
    let (nodes, addrs) = start_nodes();
    let stream0 = overloaded_round(0, 24);
    let counts = per_node(&stream0);
    let capacity = counts[0] - 7;
    assert!(
        counts[1..].iter().all(|&n| n <= capacity),
        "only node 0 may overflow: {counts:?}"
    );

    let mut cluster = ClusterCampaign::create(&addrs, "soft", spec(capacity)).unwrap();
    cluster.set_retry(RetryPolicy {
        busy_retries: 200,
        busy_backoff_ms: 2,
    });
    let done = Arc::new(AtomicBool::new(false));
    let drainer = drain_on_busy(&addrs[0], "soft", &done);
    let queued = cluster.submit(&stream0, CHUNK).unwrap();
    done.store(true, Ordering::SeqCst);
    drainer.join().unwrap();
    assert!(queued > 0);

    // Every connection answers in step, and node 0 did push back.
    let fleet = cluster.status().unwrap();
    let refused_busy = names::campaign_metric("soft", names::REFUSED_BUSY);
    assert!(fleet.scalar(&refused_busy) >= Some(1), "{fleet:?}");
    let mut reference = sim();
    let ours = cluster.close_round(0).unwrap();
    let expected = reference.run_round(0, stream0).unwrap();
    assert_matches_sim(&ours, &expected);
    assert_eq!(ours.duplicates_discarded, expected.duplicates_discarded);
    assert_eq!(ours.late_dropped, expected.late_dropped);

    // A second submit on the same connections.
    let stream1 = messy_round(1);
    cluster.submit(&stream1, CHUNK).unwrap();
    let ours = cluster.close_round(1).unwrap();
    assert_matches_sim(&ours, &reference.run_round(1, stream1).unwrap());
    assert_eq!(
        cluster.accountant().debits_by_user(),
        reference.accountant().debits_by_user()
    );
    for node in nodes {
        node.shutdown();
    }
}

/// With no retries the push-back is a hard `Busy`, surfaced only after
/// every node's outstanding acks were read — here node 0 pushes back on
/// its third batch, while nodes 1 and 2 still have most of their
/// streams in flight. Resubmitting the whole stream on the same
/// connections then completes the round: whatever prefix each node took
/// the first time is repeated in front of the same stream, and
/// first-wins dedup keeps the round the reference's.
#[test]
fn exhausted_busy_retries_leave_every_connection_in_step() {
    let (nodes, addrs) = start_nodes();
    let stream0 = messy_round(0);
    let counts = per_node(&stream0);
    // Every node's stream fits an empty queue.
    let capacity = counts.iter().max().unwrap() + 4;
    let mut cluster = ClusterCampaign::create(&addrs, "hard", spec(capacity)).unwrap();
    // Fill node 0's queue to two batches short of its capacity with late
    // reports, which change no aggregate.
    let population = partition().locals(0).len();
    let filler: Vec<StampedReport> = (0..capacity as usize - 2 * CHUNK)
        .map(|i| stamped(i % population, 0, DEADLINE_US + 50, -55.0))
        .collect();
    let mut direct = Client::connect(addrs[0].as_str()).unwrap();
    direct.submit_chunked("hard", &filler, 64).unwrap();
    assert!(
        counts[1..].iter().all(|&n| n > 4 * CHUNK as u64),
        "nodes 1 and 2 must still be streaming: {counts:?}"
    );

    match cluster.submit(&stream0, CHUNK) {
        Err(ClusterError::Server(ServerError::Busy)) => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    cluster.status().unwrap();

    cluster.set_retry(RetryPolicy {
        busy_retries: 200,
        busy_backoff_ms: 2,
    });
    // Every node still holds the prefix it took, so any of them can
    // overflow now: each gets a closer.
    let done = Arc::new(AtomicBool::new(false));
    let drainers: Vec<_> = addrs
        .iter()
        .map(|addr| drain_on_busy(addr, "hard", &done))
        .collect();
    cluster.submit(&stream0, CHUNK).unwrap();
    done.store(true, Ordering::SeqCst);
    for drainer in drainers {
        drainer.join().unwrap();
    }

    let mut reference = sim();
    let ours = cluster.close_round(0).unwrap();
    assert_matches_sim(&ours, &reference.run_round(0, stream0).unwrap());
    let stream1 = messy_round(1);
    cluster.submit(&stream1, CHUNK).unwrap();
    let ours = cluster.close_round(1).unwrap();
    assert_matches_sim(&ours, &reference.run_round(1, stream1).unwrap());
    assert_eq!(
        cluster.accountant().debits_by_user(),
        reference.accountant().debits_by_user()
    );
    for node in nodes {
        node.shutdown();
    }
}

/// One malformed claim in node 1's stream: the node refuses that batch
/// outright while later batches are in flight. The error names the node,
/// the batch's sequence number, where its reports sit in the submitted
/// slice, and the code; every connection stays in step, and the repaired
/// stream, resubmitted on the same connections, closes to the
/// reference's round.
#[test]
fn a_hard_refusal_mid_stream_names_node_and_batch_and_leaves_every_connection_in_step() {
    let (nodes, addrs) = start_nodes();
    let mut cluster = ClusterCampaign::create(&addrs, "camp", spec(1 << 12)).unwrap();
    let stream0 = messy_round(0);

    // Node 1's rows, as the coordinator partitions the slice: spoil the
    // first report of its third batch.
    let rows: Vec<usize> = (0..stream0.len())
        .filter(|&i| partition().node_of(stream0[i].report.user) == 1)
        .collect();
    let batch = 2;
    assert!(
        rows.len() > (batch + 1) * CHUNK,
        "later batches must follow"
    );
    let mut spoiled = stream0.clone();
    spoiled[rows[batch * CHUNK]].report.values[1].0 = 9; // object 9 of 2
    match cluster.submit(&spoiled, CHUNK) {
        Err(ClusterError::Server(ServerError::Remote { code, message })) => {
            assert_eq!(code, ErrorCode::InvalidRequest);
            assert_eq!(
                message,
                format!(
                    "node 1: streamed batch seq {batch} ({CHUNK} reports, slice indices {}..={}) \
                     refused: invalid-request",
                    rows[batch * CHUNK],
                    rows[batch * CHUNK + CHUNK - 1]
                )
            );
        }
        other => panic!("expected node 1's refusal, got {other:?}"),
    }
    cluster.status().unwrap();

    let mut reference = sim();
    cluster.submit(&stream0, CHUNK).unwrap();
    let ours = cluster.close_round(0).unwrap();
    assert_matches_sim(&ours, &reference.run_round(0, stream0).unwrap());
    let stream1 = messy_round(1);
    cluster.submit(&stream1, CHUNK).unwrap();
    let ours = cluster.close_round(1).unwrap();
    assert_matches_sim(&ours, &reference.run_round(1, stream1).unwrap());
    assert_eq!(
        cluster.accountant().debits_by_user(),
        reference.accountant().debits_by_user()
    );
    for node in nodes {
        node.shutdown();
    }
}
