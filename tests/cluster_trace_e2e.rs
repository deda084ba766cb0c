//! End-to-end harness for fleet-wide tracing and the flight recorder.
//!
//! The acceptance bar, part one: **tracing must be free of observable
//! effect** — a 3-node campaign run with tracing enabled (contexts on
//! every wire frame, spans recording on every layer) is bit-identical
//! in per-round weights digests and per-user debit ledgers to the same
//! campaign run untraced. Part two: the merged cluster timeline is
//! **causal** — each round's root has prepare → merge → commit
//! children on the coordinator lane, the barrier prepare/commit spans
//! parent all three nodes' (scattered, hence overlapping) drain/commit
//! spans via wire-carried span contexts, and
//! `merge_trace_timeline` renders one clock-aligned chrome://tracing
//! document with a lane per process. Part three: a forced quarantine
//! (a partition poisoned mid-campaign) leaves a flight bundle on disk
//! whose final snapshot shows the refusal.

mod common;

use dptd::cluster::{
    merge_trace_events, merge_trace_timeline, ClusterCampaign, ClusterSpec, NodeConfig, NodeServer,
};
use dptd::ldp::PrivacyLoss;
use dptd::obs::trace::{self, codes};
use dptd::obs::{flight, TraceEvent};

const USERS: usize = 120;
const OBJECTS: usize = 5;
const ROUNDS: u64 = 3;
const SEED: u64 = 707;

fn spec() -> ClusterSpec {
    ClusterSpec {
        num_users: USERS,
        num_objects: OBJECTS,
        deadline_us: 1_000_000,
        per_round_loss: PrivacyLoss::new(0.5, 0.01).unwrap(),
        budget: PrivacyLoss::new(5.0, 0.2).unwrap(),
        submission_capacity: 1 << 15,
        stream_tag: SEED,
        durable: false,
    }
}

fn load() -> dptd::engine::LoadGen {
    common::churny_load(USERS, OBJECTS, ROUNDS, 0.25, 0.02, 0.02, SEED)
}

fn start_nodes(n: u32) -> (Vec<NodeServer>, Vec<String>) {
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
    let addrs = nodes.iter().map(|s| s.local_addr().to_string()).collect();
    (nodes, addrs)
}

/// Run the full campaign on a fresh 3-node cluster; return per-round
/// weights digests, the final debit ledger, and the live coordinator.
fn run_campaign(addrs: &[String], campaign: &str) -> (Vec<u64>, Vec<u32>, ClusterCampaign) {
    let mut cluster = ClusterCampaign::create(addrs, campaign, spec()).unwrap();
    let load = load();
    let mut digests = Vec::new();
    for epoch in 0..ROUNDS {
        cluster.submit(&load.epoch_reports(epoch), 64).unwrap();
        digests.push(cluster.close_round(epoch).unwrap().weights_digest);
    }
    let debits = cluster.accountant().debits_by_user().to_vec();
    (digests, debits, cluster)
}

/// The one trace-touching test: trace state is process-global, so the
/// determinism check, the causal-linkage check, and the merged-timeline
/// check all live here (parallel tests must not reset each other's
/// rings).
#[test]
fn traced_run_is_bit_identical_and_the_merged_timeline_is_causal() {
    // Untraced reference run.
    let (nodes, addrs) = start_nodes(3);
    let (ref_digests, ref_debits, _cluster) = run_campaign(&addrs, "plain");
    for node in nodes {
        node.shutdown();
    }

    // Traced run: fresh nodes, identical workload, rings armed.
    let (nodes, addrs) = start_nodes(3);
    trace::reset();
    trace::set_enabled(true);
    let (digests, debits, mut cluster) = run_campaign(&addrs, "traced");
    trace::set_enabled(false);

    // Part one: tracing is free of observable effect.
    assert_eq!(digests, ref_digests, "weights digests must not move");
    assert_eq!(debits, ref_debits, "debit ledgers must not move");

    // Part two: causal linkage. The nodes run in-process here, so every
    // lane shares this process's rings — the coordinator's collected
    // events hold both sides of each cross-process edge.
    let events = trace::collect();
    let begins = |code: u32| -> Vec<&TraceEvent> {
        events
            .iter()
            .filter(|e| e.code == code && e.phase == 'B')
            .collect()
    };
    let prepares = begins(codes::BARRIER_PREPARE);
    let commits = begins(codes::BARRIER_COMMIT);
    assert_eq!(prepares.len(), ROUNDS as usize, "one prepare per round");
    assert_eq!(commits.len(), ROUNDS as usize, "one commit per round");
    // The coordinator lane of every round: prepare → merge → commit,
    // in that order, all children of the round's deterministic root —
    // no hole between the two barrier phases.
    for epoch in 0..ROUNDS {
        let root = dptd::obs::SpanContext::root("traced", epoch);
        let phases: Vec<u32> = events
            .iter()
            .filter(|e| {
                e.phase == 'B' && e.trace_id == root.trace_id && e.parent_span == root.span_id
            })
            .map(|e| e.code)
            .collect();
        assert_eq!(
            phases,
            [codes::BARRIER_PREPARE, codes::MERGE, codes::BARRIER_COMMIT],
            "epoch {epoch}: the round root's children on the coordinator lane"
        );
    }
    // Every node's work parents under the one barrier span whose
    // context its frame carried. The requests are scattered, so the
    // three spans of a phase overlap in time on the merged timeline —
    // but each still hangs off the same parent.
    for (barrier, node_code) in prepares
        .iter()
        .map(|p| (p, codes::NODE_DRAIN))
        .chain(commits.iter().map(|c| (c, codes::NODE_COMMIT)))
    {
        assert_ne!(barrier.trace_id, 0, "barrier spans carry the trace");
        let children = begins(node_code)
            .into_iter()
            .filter(|e| {
                e.trace_id == barrier.trace_id
                    && e.parent_span == barrier.span_id
                    && e.arg == barrier.arg
            })
            .count();
        assert_eq!(
            children,
            3,
            "epoch {}: all three nodes' {} spans must parent under the barrier \
             span via the wire-carried context; events: {events:?}",
            barrier.arg,
            codes::name(node_code)
        );
    }
    // Distinct rounds are distinct traces (deterministic per epoch).
    let trace_ids: std::collections::BTreeSet<u64> = prepares.iter().map(|e| e.trace_id).collect();
    assert_eq!(trace_ids.len(), ROUNDS as usize);

    // Part three: one merged, clock-aligned timeline with per-process
    // lanes. QueryTrace travels over real TCP to each node.
    let processes = cluster.collect_traces().unwrap();
    assert_eq!(processes.len(), 4, "coordinator + 3 nodes");
    assert_eq!(processes[0].label, "coordinator");
    let merged = merge_trace_events(&processes);
    assert!(
        merged
            .iter()
            .any(|&(pid, ref e)| pid == 1 && e.code == codes::BARRIER_PREPARE),
        "coordinator lane holds the barrier spans"
    );
    let json = merge_trace_timeline(&processes);
    assert!(json.trim_start().starts_with('['), "{json}");
    assert!(json.trim_end().ends_with(']'), "{json}");
    for lane in ["coordinator", "node0", "node1", "node2"] {
        assert!(
            json.contains(&format!("\"args\":{{\"name\":\"{lane}\"}}")),
            "missing process_name lane {lane}: {json}"
        );
    }
    assert!(json.contains("\"name\":\"barrier.prepare\""), "{json}");
    assert!(json.contains("\"name\":\"node.drain\""), "{json}");
    // Span contexts render as hex strings in args.
    assert!(json.contains("\"trace\":\""), "{json}");
    assert!(json.contains("\"parent\":\""), "{json}");

    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn a_forced_quarantine_freezes_a_flight_bundle_showing_the_refusal() {
    let dir = std::env::temp_dir().join(format!(
        "dptd-trace-e2e-flight-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    flight::global().set_dir(Some(dir.clone()));

    let (nodes, addrs) = start_nodes(2);
    let mut cluster = ClusterCampaign::create(&addrs, "camp", spec()).unwrap();
    let load = load();
    cluster.submit(&load.epoch_reports(0), 64).unwrap();
    cluster.close_round(0).unwrap();

    // Poison node 0's partition: the next frame touching it is refused
    // with CampaignQuarantined, and the node freezes the black box.
    assert!(nodes[0].poison_partition("camp"));
    let poisoned_round: Result<_, _> = cluster
        .submit(&load.epoch_reports(1), 64)
        .and_then(|_| cluster.close_round(1));
    assert!(
        poisoned_round.is_err(),
        "the poisoned partition must refuse"
    );

    // Other triggers (shutdowns from parallel tests) may also freeze
    // into the shared global recorder; the quarantine bundle must be
    // among them, and its final snapshot must show the refusal.
    let bundle_path = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with("-quarantine.json"))
        })
        .expect("a quarantine flight bundle must be written");
    let bundle = std::fs::read_to_string(&bundle_path).unwrap();
    assert!(bundle.contains("\"format\":\"dptd-flight-v1\""), "{bundle}");
    assert!(bundle.contains("\"trigger\":\"quarantine\""), "{bundle}");
    let last_snapshot = &bundle[bundle.rfind("\"reason\":").unwrap()..];
    assert!(
        last_snapshot.contains("\"campaign.camp.quarantined\":1"),
        "the freeze-time snapshot must show the quarantined partition: {bundle}"
    );

    flight::global().set_dir(None);
    for node in nodes {
        node.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
