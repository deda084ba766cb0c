//! Replication fault injection: kill the primary at **every operation
//! boundary** of a real replication stream and prove the follower's
//! directory recovers bit-identically.
//!
//! The sender replicates each committed store mutation with a
//! synchronous ack, so a primary killed at an arbitrary point leaves
//! the follower holding an *operation prefix* of the primary's
//! directory history. This harness captures the exact stream a
//! multi-round durable campaign emits — record appends, segment
//! rotations, a compaction's atomic manifest rewrite and its
//! garbage-collection removals — then, for **every** prefix length,
//! replays that prefix through [`ReplicaApplier`] into a fresh replica
//! directory and runs the stock crash-recovery path over it. Recovery
//! must always land on a committed round boundary whose weights and
//! per-user debit ledger are bit-identical to the uninterrupted run's
//! state at that round, and the full stream must recover the whole
//! campaign.
//!
//! A torn final append (the network analogue of a torn disk write:
//! bytes of the last `ReplicateSegment` frame applied partially) is
//! also injected at several cut points and must be repaired by the
//! same recovery path.
//!
//! Replication ships the primary's file bytes, so the follower needs no
//! knowledge of frame kinds — which is itself the claim under test:
//! both harnesses run on a dense 14-user campaign (mostly full frames)
//! **and** on a sparse 2 000-user campaign whose records after each
//! segment's first are v3 delta frames.

use std::sync::{Arc, Mutex};

use dptd_cluster::ReplicaApplier;
use dptd_engine::recovery::recover_replay;
use dptd_engine::store::{MemFs, ObservedFs, SegmentStore, StoreConfig, StoreFs, StoreObserver};
use dptd_engine::RecoveredState;
use dptd_engine::{Engine, EngineBackend, EngineConfig, LoadGen, LoadGenConfig, WalPolicy};
use dptd_ldp::PrivacyLoss;
use dptd_protocol::campaign::{CampaignConfig, CampaignDriver};
use dptd_server::StoreOp;
use dptd_stats::digest::fnv1a_f64s;
use dptd_truth::Loss;

const OBJECTS: usize = 3;
const ROUNDS: u64 = 5;
const SEED: u64 = 808;

/// Aggressive thresholds so five rounds exercise every replicated
/// operation kind: rotations, a compaction (atomic manifest rewrite)
/// and its garbage-collection removals.
fn store_config() -> StoreConfig {
    StoreConfig {
        rotate_bytes: 0,
        rotate_records: 2,
        compact_every: 3,
    }
}

/// Who reports: the population and the fraction sitting each round out.
#[derive(Debug, Clone, Copy)]
struct Shape {
    users: usize,
    churn: f64,
}

/// Most users report every round: deltas mostly lose the size
/// comparison and the stream carries full frames.
const DENSE: Shape = Shape {
    users: 14,
    churn: 0.25,
};

/// ~3 % of 2 000 users report per round: every record that is not the
/// first of its segment is replicated as a delta frame.
const SPARSE: Shape = Shape {
    users: 2_000,
    churn: 0.97,
};

fn load(shape: Shape) -> LoadGen {
    LoadGen::new(LoadGenConfig {
        num_users: shape.users,
        num_objects: OBJECTS,
        epochs: ROUNDS,
        churn: shape.churn,
        duplicate_probability: 0.05,
        straggler_fraction: 0.05,
        seed: SEED,
        ..LoadGenConfig::default()
    })
    .expect("valid load config")
}

fn campaign_config(load: &LoadGen) -> CampaignConfig {
    let per_round = PrivacyLoss::new(0.5, 0.0).unwrap();
    CampaignConfig {
        num_objects: OBJECTS,
        deadline_us: load.config().epoch_len_us,
        per_round_loss: per_round,
        // Four affordable rounds out of five: the final replicated
        // record carries budget refusals, and recovery must restore
        // that ledger too.
        budget: per_round.compose_k(4),
    }
}

fn policy(load: &LoadGen) -> WalPolicy {
    WalPolicy::from_campaign(&campaign_config(load)).with_stream_tag(SEED)
}

fn engine(load: &LoadGen) -> Engine {
    Engine::new(EngineConfig {
        num_users: load.config().num_users,
        num_objects: OBJECTS,
        num_shards: 2,
        queue_capacity: 256,
        epoch_deadline_us: load.config().epoch_len_us,
        loss: Loss::Squared,
        ..EngineConfig::default()
    })
    .unwrap()
}

/// One replicated operation, exactly as [`ReplicationSender`] would
/// frame it: `(op, name, arg, bytes)`.
///
/// [`ReplicationSender`]: dptd_cluster::ReplicationSender
type Op = (StoreOp, String, u64, Vec<u8>);

/// An in-process stand-in for the wire sender: records the stream the
/// observer would transmit instead of framing it over TCP, so the
/// harness can replay arbitrary prefixes of it.
#[derive(Debug)]
struct RecordingSender {
    ops: Arc<Mutex<Vec<Op>>>,
}

impl StoreObserver for RecordingSender {
    fn on_append(&mut self, name: &str, bytes: &[u8]) {
        self.push(StoreOp::Append, name, 0, bytes.to_vec());
    }
    fn on_write_atomic(&mut self, name: &str, bytes: &[u8]) {
        self.push(StoreOp::WriteAtomic, name, 0, bytes.to_vec());
    }
    fn on_truncate(&mut self, name: &str, len: u64) {
        self.push(StoreOp::Truncate, name, len, Vec::new());
    }
    fn on_remove(&mut self, name: &str) {
        self.push(StoreOp::Remove, name, 0, Vec::new());
    }
}

impl RecordingSender {
    fn push(&mut self, op: StoreOp, name: &str, arg: u64, bytes: Vec<u8>) {
        self.ops
            .lock()
            .expect("op stream")
            .push((op, name.to_string(), arg, bytes));
    }
}

/// What the uninterrupted primary looked like after each committed
/// round: `(weights digest, per-user debit ledger)`, indexed by round.
struct Reference {
    rounds: Vec<(u64, Vec<u32>)>,
    ops: Vec<Op>,
}

/// Run the campaign once on an observed store and capture both the
/// per-round state and the complete replication stream.
fn reference(shape: Shape) -> Reference {
    let load = load(shape);
    let ops: Arc<Mutex<Vec<Op>>> = Arc::new(Mutex::new(Vec::new()));
    let observed = ObservedFs::new(
        Box::new(MemFs::new()),
        Box::new(RecordingSender {
            ops: Arc::clone(&ops),
        }),
    );
    let (store, replay) = SegmentStore::open(Box::new(observed), store_config()).unwrap();
    let (backend, recovered) =
        EngineBackend::with_log(engine(&load), Box::new(store), &replay, policy(&load)).unwrap();
    assert_eq!(recovered.next_epoch(), 0, "the primary starts fresh");
    let mut driver = CampaignDriver::new(backend, campaign_config(&load)).unwrap();

    let mut rounds = Vec::new();
    for epoch in 0..ROUNDS {
        let round = driver.run_round(epoch, load.epoch_reports(epoch)).unwrap();
        rounds.push((
            fnv1a_f64s(&round.weights),
            driver.accountant().debits_by_user().to_vec(),
        ));
    }
    let ops = ops.lock().expect("op stream").clone();
    Reference { rounds, ops }
}

/// Apply the first `prefix` operations of the stream to a fresh
/// replica directory, as the follower would have before the kill.
fn replica_after(ops: &[Op], prefix: usize) -> MemFs {
    let fs = MemFs::new();
    let mut applier = ReplicaApplier::new(Box::new(fs.clone()));
    for (seq, (op, name, arg, bytes)) in ops[..prefix].iter().enumerate() {
        applier.apply(seq as u64, *op, name, *arg, bytes).unwrap();
    }
    fs
}

/// Failover: the stock recovery path pointed at the replica bytes.
fn recover(shape: Shape, fs: MemFs) -> RecoveredState {
    let load = load(shape);
    let (_store, replay) = SegmentStore::open(Box::new(fs), store_config()).unwrap();
    recover_replay(&replay, shape.users, Loss::Squared, Some(&policy(&load))).unwrap()
}

/// Whether a replicated append carries a v3 delta frame (the length
/// self-check mask in its header is `"WAL3"`).
fn is_delta_frame(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && {
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        word(0) ^ word(4) == u32::from_le_bytes(*b"WAL3")
    }
}

/// The recovered state must sit exactly on a committed round boundary
/// of the reference run; returns that round count.
fn assert_on_boundary(reference: &Reference, recovered: &RecoveredState, at: &str) -> u64 {
    let round = recovered.next_epoch();
    assert!(
        round <= ROUNDS,
        "{at}: recovered past the campaign ({round} rounds)"
    );
    if round == 0 {
        assert!(
            recovered.rounds_debited.iter().all(|&d| d == 0),
            "{at}: an empty replica must hold an empty ledger"
        );
    } else {
        let (digest, ledger) = &reference.rounds[round as usize - 1];
        assert_eq!(
            fnv1a_f64s(recovered.crh.weights()),
            *digest,
            "{at}: weights diverged at round {round}"
        );
        assert_eq!(
            &recovered.rounds_debited, ledger,
            "{at}: debit ledger diverged at round {round}"
        );
    }
    round
}

#[test]
fn every_operation_prefix_fails_over_bit_identically() {
    // In the sparse stream round 1 follows round 0 in its segment and
    // round 3 the compaction's snapshot, so both replicate as deltas;
    // the other rounds open a segment.
    for (shape, delta_appends) in [(DENSE, 0), (SPARSE, 2)] {
        every_operation_prefix_fails_over(shape, delta_appends);
    }
}

fn every_operation_prefix_fails_over(shape: Shape, delta_appends: usize) {
    let reference = reference(shape);
    let deltas = reference
        .ops
        .iter()
        .filter(|(op, _, _, bytes)| *op == StoreOp::Append && is_delta_frame(bytes))
        .count();
    assert!(
        deltas >= delta_appends,
        "{shape:?}: {deltas} replicated delta frame(s)"
    );
    assert!(
        reference
            .ops
            .iter()
            .any(|(op, ..)| *op == StoreOp::WriteAtomic),
        "the stream must include at least one atomic manifest rewrite"
    );
    assert!(
        reference.ops.iter().any(|(op, ..)| *op == StoreOp::Remove),
        "the stream must include garbage-collection removals"
    );
    let last = reference.rounds.last().unwrap();
    assert!(
        last.1.iter().any(|&d| (u64::from(d)) < ROUNDS),
        "the final round must have seen budget refusals"
    );

    let mut recovered_rounds = Vec::new();
    let mut previous = 0;
    for prefix in 0..=reference.ops.len() {
        let recovered = recover(shape, replica_after(&reference.ops, prefix));
        let round = assert_on_boundary(
            &reference,
            &recovered,
            &format!("{shape:?}: kill after op {prefix}"),
        );
        assert!(
            round >= previous,
            "op {prefix}: recovery went backwards ({previous} -> {round})"
        );
        previous = round;
        recovered_rounds.push(round);
    }
    // The stream actually carries the campaign: an empty replica holds
    // nothing, the full replica holds every round, and every committed
    // round is reachable at some kill offset.
    assert_eq!(recovered_rounds[0], 0);
    assert_eq!(*recovered_rounds.last().unwrap(), ROUNDS);
    for round in 0..=ROUNDS {
        assert!(
            recovered_rounds.contains(&round),
            "no kill offset observed the campaign at round {round}"
        );
    }
}

#[test]
fn a_torn_final_append_is_repaired_on_failover() {
    for shape in [DENSE, SPARSE] {
        a_torn_final_append_is_repaired(shape);
    }
}

fn a_torn_final_append_is_repaired(shape: Shape) {
    let reference = reference(shape);
    let mut torn_cases = 0;
    for (index, (op, name, _, bytes)) in reference.ops.iter().enumerate() {
        if *op != StoreOp::Append || bytes.len() < 2 {
            continue;
        }
        // The connection dies mid-frame: the follower applied every
        // earlier op and a partial image of this append's bytes.
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            let fs = replica_after(&reference.ops, index);
            let mut torn: Box<dyn StoreFs> = Box::new(fs.clone());
            torn.append(name, &bytes[..cut]).unwrap();
            let recovered = recover(shape, fs);
            assert_on_boundary(
                &reference,
                &recovered,
                &format!(
                    "{shape:?}: torn append (op {index}, {cut}/{} bytes)",
                    bytes.len()
                ),
            );
            torn_cases += 1;
        }
    }
    assert!(torn_cases >= 3, "the stream must offer torn-append cases");
}
