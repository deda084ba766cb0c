//! Deterministic crash-injection harness for the segmented snapshot
//! store.
//!
//! The PR-3 harness (`tests/wal_recovery.rs`) kills a campaign at every
//! byte of a single-segment log. This one extends the same guarantee to
//! the segmented store's **multi-file** operations: using a cost trace
//! of every filesystem operation an uninterrupted run performs, it
//! kills a budget-constrained campaign at every record-append boundary
//! and torn offset, and at **every byte inside rotation, compaction and
//! garbage collection** (segment staging, the atomic manifest rewrite,
//! each GC deletion) — including the window where the old segments and
//! the new snapshot coexist. After every kill it reopens the store over
//! exactly the surviving files, resumes, and requires the final budget
//! ledger, weights and the **entire directory image** (every segment
//! byte plus the manifest) to be bit-identical to the uninterrupted
//! run — which is itself pinned to the `sim` backend reference.
//!
//! Both guarantees are checked twice: on a dense 12-user campaign whose
//! rounds touch most of the population (so the store writes mostly full
//! frames) and on a **sparse** 2 000-user campaign where ~1 % report per
//! round, so every record after a segment's first is a v3 delta frame —
//! killed at every operation boundary and at **every byte** of a delta
//! frame's append. A transient append failure (the write errors, the
//! process lives, the round is retried) must leave the same directory
//! as a run that never failed.
//!
//! Also here: concurrent-writer refusal on a segmented directory
//! ([`WalLock`] held across rotations), and killed-compactor manifest
//! staleness (orphans repaired by deletion; a manifest naming a
//! *vanished* sealed segment refused).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dptd_engine::store::{FailingFs, MemFs, SegmentStore, StoreConfig, StoreFs};
use dptd_engine::wal::WalError;
use dptd_engine::{
    Engine, EngineBackend, EngineConfig, LoadGen, LoadGenConfig, WalLock, WalPolicy,
};
use dptd_ldp::PrivacyLoss;
use dptd_protocol::campaign::{CampaignConfig, CampaignDriver, SimBackend};
use dptd_stats::digest::fnv1a_f64s;
use dptd_truth::Loss;

const OBJECTS: usize = 3;

/// One campaign the harness kills: its population, how much of it
/// reports, and store thresholds aggressive enough that the rounds
/// cross every store path.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    users: usize,
    rounds: u64,
    churn: f64,
    /// Rounds each user can afford.
    budget_rounds: u32,
    store: StoreConfig,
}

/// Five rounds over 12 users: two rotations, a compaction (with GC of
/// two segments), and appends into fresh, sealed-adjacent and
/// snapshot-bearing segments. The budget binds — four affordable
/// rounds out of five, so the final round runs with refusals and
/// recovery must restore *that* too.
const DENSE: Scenario = Scenario {
    users: 12,
    rounds: 5,
    churn: 0.25,
    budget_rounds: 4,
    store: StoreConfig {
        rotate_bytes: 0,
        rotate_records: 2,
        compact_every: 3,
    },
};

/// Seven rounds over 2 000 users of whom ~1 % (20 or so, plus the
/// three anchors) report each round: the delta frame is ~0.7 KB against
/// a 24 KB full frame, so segments are one full frame followed by
/// deltas, the compaction's snapshot is a delta's base, and the
/// two-round budget makes the later rounds refuse returning users.
const SPARSE: Scenario = Scenario {
    users: 2_000,
    rounds: 7,
    churn: 0.99,
    budget_rounds: 2,
    store: StoreConfig {
        rotate_bytes: 0,
        rotate_records: 3,
        compact_every: 4,
    },
};

impl Scenario {
    fn load(&self, seed: u64) -> LoadGen {
        LoadGen::new(LoadGenConfig {
            num_users: self.users,
            num_objects: OBJECTS,
            epochs: self.rounds,
            churn: self.churn,
            duplicate_probability: 0.05,
            straggler_fraction: 0.05,
            seed,
            ..LoadGenConfig::default()
        })
        .expect("valid load config")
    }

    fn config(&self, load: &LoadGen) -> CampaignConfig {
        let per_round = PrivacyLoss::new(0.5, 0.0).unwrap();
        CampaignConfig {
            num_objects: OBJECTS,
            deadline_us: load.config().epoch_len_us,
            per_round_loss: per_round,
            budget: per_round.compose_k(self.budget_rounds),
        }
    }

    fn policy(&self, load: &LoadGen) -> WalPolicy {
        WalPolicy::from_campaign(&self.config(load))
    }

    fn engine(&self, load: &LoadGen, shards: usize) -> Engine {
        Engine::new(EngineConfig {
            num_users: self.users,
            num_objects: OBJECTS,
            num_shards: shards,
            queue_capacity: 256,
            epoch_deadline_us: load.config().epoch_len_us,
            loss: Loss::Squared,
            ..EngineConfig::default()
        })
        .unwrap()
    }
}

struct Reference {
    files: BTreeMap<String, Vec<u8>>,
    ledger: Vec<u32>,
    weights: Vec<f64>,
}

/// Uninterrupted store-backed campaign over `fs`: the ground truth
/// every crash-recovery cycle must reproduce exactly.
fn run_campaign(
    scenario: &Scenario,
    load: &LoadGen,
    shards: usize,
    fs: Box<dyn StoreFs>,
) -> Result<(Vec<u32>, Vec<f64>), String> {
    let (store, replay) =
        SegmentStore::open(fs, scenario.store).map_err(|e| format!("open: {e}"))?;
    let (backend, recovered) = EngineBackend::with_log(
        scenario.engine(load, shards),
        Box::new(store),
        &replay,
        scenario.policy(load),
    )
    .map_err(|e| format!("recover: {e}"))?;
    let next = recovered.next_epoch();
    let mut driver = CampaignDriver::resume(
        backend,
        scenario.config(load),
        recovered.rounds_debited,
        recovered.records_applied.min(u64::from(u32::MAX)) as u32,
    )
    .map_err(|e| format!("resume: {e}"))?;
    for epoch in next..scenario.rounds {
        driver
            .run_round(epoch, load.epoch_reports(epoch))
            .map_err(|e| format!("round {epoch}: {e}"))?;
    }
    let ledger = driver.accountant().debits_by_user().to_vec();
    let weights = driver.into_backend().current_weights().to_vec();
    Ok((ledger, weights))
}

fn reference(scenario: &Scenario, load: &LoadGen, shards: usize) -> Reference {
    let mem = MemFs::new();
    let (ledger, weights) =
        run_campaign(scenario, load, shards, Box::new(mem.clone())).expect("uninterrupted run");
    Reference {
        files: mem.snapshot(),
        ledger,
        weights,
    }
}

/// One filesystem operation of the uninterrupted run, with the cost
/// [`FailingFs`] charges for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// A tearable record/magic append (cost = bytes).
    Append,
    /// An all-or-nothing window: segment staging or manifest rewrite
    /// (`write_atomic`, cost = bytes) or a GC deletion (cost 1).
    Atomic,
}

/// Records the (kind, cost) of every mutating op so the harness can
/// enumerate kill budgets that land on every interesting offset.
#[derive(Debug)]
struct RecordingFs {
    inner: MemFs,
    ops: Arc<Mutex<Vec<(OpKind, u64)>>>,
}

impl StoreFs for RecordingFs {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, WalError> {
        self.inner.read(name)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.ops
            .lock()
            .unwrap()
            .push((OpKind::Append, bytes.len() as u64));
        self.inner.append(name, bytes)
    }
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError> {
        self.ops.lock().unwrap().push((OpKind::Atomic, 1));
        self.inner.truncate(name, len)
    }
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.ops
            .lock()
            .unwrap()
            .push((OpKind::Atomic, bytes.len() as u64));
        self.inner.write_atomic(name, bytes)
    }
    fn remove(&mut self, name: &str) -> Result<(), WalError> {
        self.ops.lock().unwrap().push((OpKind::Atomic, 1));
        self.inner.remove(name)
    }
    fn list(&mut self) -> Result<Vec<String>, WalError> {
        self.inner.list()
    }
    fn sync(&mut self, name: &str) -> Result<(), WalError> {
        self.inner.sync(name)
    }
}

/// Kill a fresh campaign at `budget` cost units, then recover from the
/// surviving files with no fault injection, resume to completion, and
/// return the final (ledger, weights, directory image).
fn crash_recover_resume(
    scenario: &Scenario,
    load: &LoadGen,
    shards: usize,
    budget: u64,
) -> (Vec<u32>, Vec<f64>, BTreeMap<String, Vec<u8>>) {
    let crash_mem = MemFs::new();
    let failing = FailingFs::new(crash_mem.clone(), budget);
    // The injected crash surfaces as an error somewhere inside open or a
    // round; either way the process is "dead" from that point on.
    let _ = run_campaign(scenario, load, shards, Box::new(failing));

    let resume_mem = MemFs::from_map(crash_mem.snapshot());
    let (ledger, weights) = run_campaign(scenario, load, shards, Box::new(resume_mem.clone()))
        .expect("recovery after a crash must always succeed");
    (ledger, weights, resume_mem.snapshot())
}

/// Cost trace of an uninterrupted run: every mutating op in order.
fn op_trace(scenario: &Scenario, load: &LoadGen) -> Vec<(OpKind, u64)> {
    let ops = Arc::new(Mutex::new(Vec::new()));
    let recording = RecordingFs {
        inner: MemFs::new(),
        ops: Arc::clone(&ops),
    };
    run_campaign(scenario, load, 1, Box::new(recording)).expect("recording run");
    let ops = ops.lock().unwrap().clone();
    ops
}

/// Kill at `kill`, recover, resume: ledger, weights and the whole
/// directory must equal the uninterrupted `reference`.
fn assert_kill_recovers(
    scenario: &Scenario,
    load: &LoadGen,
    shards: usize,
    kill: u64,
    reference: &Reference,
) {
    let (ledger, weights, files) = crash_recover_resume(scenario, load, shards, kill);
    assert_eq!(
        ledger, reference.ledger,
        "kill at cost {kill}, {shards} shard(s): budget ledger diverged"
    );
    assert_eq!(
        fnv1a_f64s(&weights),
        fnv1a_f64s(&reference.weights),
        "kill at cost {kill}, {shards} shard(s): weights digest diverged"
    );
    assert_eq!(weights, reference.weights);
    assert_eq!(
        files, reference.files,
        "kill at cost {kill}, {shards} shard(s): directory image diverged"
    );
}

#[test]
fn every_kill_point_recovers_bit_identically_including_directory_bytes() {
    let load = DENSE.load(31);
    let reference = reference(&DENSE, &load, 1);

    // Pin the uninterrupted store-backed run to the protocol reference:
    // the sim campaign lands on the same ledger and weights.
    let mut sim = CampaignDriver::new(
        SimBackend::new(DENSE.users, Loss::Squared).unwrap(),
        DENSE.config(&load),
    )
    .unwrap();
    let mut sim_weights = Vec::new();
    for epoch in 0..DENSE.rounds {
        sim_weights = sim
            .run_round(epoch, load.epoch_reports(epoch))
            .unwrap()
            .weights;
    }
    assert_eq!(sim.accountant().debits_by_user(), &reference.ledger[..]);
    assert_eq!(sim_weights, reference.weights);

    let ops = op_trace(&DENSE, &load);
    let total: u64 = ops.iter().map(|(_, c)| c).sum();

    // Sanity: the trace crossed every store path (staged segments,
    // manifest rewrites, GC deletions are all Atomic ops).
    assert!(
        ops.iter().filter(|(k, _)| *k == OpKind::Atomic).count() >= 7,
        "expected rotations + compaction + GC in the trace, got {ops:?}"
    );

    // Kill points: every op boundary; every byte inside every atomic
    // window (rotation staging, manifest rewrites, GC removes — the
    // compaction coexistence window included); and boundary/torn
    // offsets inside record appends.
    let mut points = std::collections::BTreeSet::new();
    let mut at = 0u64;
    for &(kind, cost) in &ops {
        points.insert(at);
        match kind {
            OpKind::Atomic => {
                for b in 0..=cost {
                    points.insert(at + b);
                }
            }
            OpKind::Append => {
                points.insert(at + 1);
                if cost > 16 {
                    points.insert(at + 16); // end of the frame header
                }
                points.insert(at + cost / 2);
                points.insert(at + cost.saturating_sub(1));
            }
        }
        at += cost;
    }
    assert_eq!(at, total);
    points.insert(total); // clean completion (no crash at all)

    for &kill in &points {
        assert_kill_recovers(&DENSE, &load, 1, kill, &reference);
    }
}

#[test]
fn sparse_campaign_kills_recover_bit_identically_through_delta_frames() {
    let load = SPARSE.load(67);
    let reference = reference(&SPARSE, &load, 1);

    // The scenario is what it claims: at most 5 % of the population is
    // accepted per round, and every record after a segment's first is
    // stored as a delta — including the one whose base is the
    // compaction's snapshot.
    let mut deltas = 0;
    let mut delta_on_a_snapshot = false;
    for (name, bytes) in reference.files.iter().filter(|(k, _)| k.ends_with(".wal")) {
        let replayed = dptd_engine::wal::replay(bytes).unwrap();
        assert_eq!(
            replayed.delta_records + 1,
            replayed.records.len() as u64,
            "{name}: one full frame, then deltas"
        );
        for record in &replayed.records {
            assert!(record.accepted_users.len() * 20 <= SPARSE.users, "{name}");
        }
        deltas += replayed.delta_records;
        delta_on_a_snapshot |= replayed.records[0].kind == dptd_engine::RecordKind::Snapshot
            && replayed.delta_records > 0;
    }
    assert!(
        deltas >= 2 && delta_on_a_snapshot,
        "{deltas} delta frame(s)"
    );

    // Kill points: every operation boundary (rotation staging, manifest
    // rewrites, the compaction and its GC included); boundary and torn
    // offsets of every append; and every byte of the last delta frame
    // of the run — the one written against a base that was itself
    // rebuilt from a delta on the compaction's snapshot.
    let ops = op_trace(&SPARSE, &load);
    let is_delta = |&(kind, cost): &(OpKind, u64)| {
        kind == OpKind::Append && cost > 16 && cost < 12 * SPARSE.users as u64
    };
    // The trace also holds the deltas the compaction later collected.
    let delta_appends = ops.iter().filter(|op| is_delta(op)).count();
    assert!(
        delta_appends as u64 > deltas,
        "{delta_appends} delta append(s)"
    );
    let last_delta = ops.iter().rposition(is_delta).unwrap();
    let mut points = std::collections::BTreeSet::new();
    let mut at = 0u64;
    for (i, &(kind, cost)) in ops.iter().enumerate() {
        points.insert(at);
        if i == last_delta {
            points.extend(at..at + cost);
        } else if kind == OpKind::Append {
            points.extend([at + 1, at + 16.min(cost), at + cost / 2, at + cost - 1]);
        }
        at += cost;
    }
    points.insert(at); // clean completion (no crash at all)

    for &kill in &points {
        assert_kill_recovers(&SPARSE, &load, 1, kill, &reference);
    }
    // The merge is shard-count independent, and so is the delta the
    // store derives from it: spot-check the boundaries at 8 shards.
    let mut at = 0u64;
    for &(_, cost) in &ops {
        assert_kill_recovers(&SPARSE, &load, 8, at, &reference);
        at += cost;
    }
}

#[test]
fn a_transient_append_failure_then_retry_equals_the_run_that_never_failed() {
    /// Fails one append — leaving half its bytes behind — and works
    /// again afterwards: a full disk that was cleared, not a crash.
    #[derive(Debug)]
    struct FlakyFs {
        inner: MemFs,
        appends_until_failure: usize,
    }
    impl StoreFs for FlakyFs {
        fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, WalError> {
            self.inner.read(name)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
            if self.appends_until_failure == 0 {
                self.appends_until_failure = usize::MAX;
                self.inner.append(name, &bytes[..bytes.len() / 2])?;
                return Err(WalError::Io {
                    op: "append",
                    message: "transient: no space left".to_string(),
                });
            }
            self.appends_until_failure -= 1;
            self.inner.append(name, bytes)
        }
        fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError> {
            self.inner.truncate(name, len)
        }
        fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
            self.inner.write_atomic(name, bytes)
        }
        fn remove(&mut self, name: &str) -> Result<(), WalError> {
            self.inner.remove(name)
        }
        fn list(&mut self) -> Result<Vec<String>, WalError> {
            self.inner.list()
        }
        fn sync(&mut self, name: &str) -> Result<(), WalError> {
            self.inner.sync(name)
        }
    }

    let load = SPARSE.load(71);
    let reference = reference(&SPARSE, &load, 1);
    // Append 0 is the first segment's magic; 1..=rounds are the rounds'
    // records — full frames, delta frames, the ones right after a
    // rotation and after the compaction.
    for failing in 1..=SPARSE.rounds as usize {
        let mem = MemFs::new();
        let flaky = FlakyFs {
            inner: mem.clone(),
            appends_until_failure: failing,
        };
        let (store, replay) = SegmentStore::open(Box::new(flaky), SPARSE.store).unwrap();
        let (backend, _) = EngineBackend::with_log(
            SPARSE.engine(&load, 2),
            Box::new(store),
            &replay,
            SPARSE.policy(&load),
        )
        .unwrap();
        let mut driver = CampaignDriver::new(backend, SPARSE.config(&load)).unwrap();
        let mut retried = 0;
        for epoch in 0..SPARSE.rounds {
            if driver.run_round(epoch, load.epoch_reports(epoch)).is_err() {
                // The round did not commit: nothing was debited, the
                // estimator rolled back, and the store's delta base is
                // still the last record that did commit.
                retried += 1;
                driver
                    .run_round(epoch, load.epoch_reports(epoch))
                    .expect("the retried round commits");
            }
        }
        assert_eq!(retried, 1, "append {failing}");
        assert_eq!(
            driver.accountant().debits_by_user(),
            &reference.ledger[..],
            "append {failing}"
        );
        assert_eq!(
            driver.into_backend().current_weights(),
            &reference.weights[..],
            "append {failing}"
        );
        assert_eq!(mem.snapshot(), reference.files, "append {failing}");

        let (_, replay) = SegmentStore::open(Box::new(mem), SPARSE.store).unwrap();
        let recovered = dptd_engine::recovery::recover_replay(
            &replay,
            SPARSE.users,
            Loss::Squared,
            Some(&SPARSE.policy(&load)),
        )
        .unwrap();
        assert_eq!(
            recovered.rounds_debited, reference.ledger,
            "append {failing}"
        );
        assert_eq!(recovered.crh.weights(), &reference.weights[..]);
    }
}

#[test]
fn op_boundary_kills_recover_identically_across_shard_counts() {
    let load = DENSE.load(47);
    let reference = reference(&DENSE, &load, 1);

    let ops = op_trace(&DENSE, &load);

    let mut boundaries = vec![0u64];
    let mut at = 0u64;
    for &(_, cost) in &ops {
        at += cost;
        boundaries.push(at);
    }

    // The engine's merge is bit-identical across shard counts, so the
    // whole store layout is too: the same reference pins 4 and 8
    // shards (of the 12-user population) at every op boundary.
    for shards in [4usize, 8] {
        for &kill in &boundaries {
            assert_kill_recovers(&DENSE, &load, shards, kill, &reference);
        }
    }
}

#[test]
fn second_writer_is_refused_across_rotation_on_a_segmented_dir() {
    let dir = std::env::temp_dir().join(format!(
        "dptd-store-lock-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let load = DENSE.load(53);

    // Writer one: holds the advisory lock, runs a store-backed campaign
    // whose log rotates and compacts under it.
    let lock = WalLock::acquire(&dir).unwrap();
    let (store, replay) = SegmentStore::open_dir(&dir, DENSE.store).unwrap();
    let (backend, recovered) = EngineBackend::with_log(
        DENSE.engine(&load, 2),
        Box::new(store),
        &replay,
        DENSE.policy(&load),
    )
    .unwrap();
    let mut driver =
        CampaignDriver::resume(backend, DENSE.config(&load), recovered.rounds_debited, 0).unwrap();
    for epoch in 0..DENSE.rounds {
        driver.run_round(epoch, load.epoch_reports(epoch)).unwrap();
        // Mid-campaign — including right after segments have rotated —
        // a second live writer is refused at open.
        match WalLock::acquire(&dir) {
            Err(WalError::Locked { pid, .. }) => assert_eq!(pid, std::process::id()),
            other => panic!("epoch {epoch}: expected Locked, got {other:?}"),
        }
    }
    let final_weights = driver.into_backend().current_weights().to_vec();
    drop(lock);

    // Lock released: a successor writer opens the segmented directory
    // and recovers the full campaign.
    let _relock = WalLock::acquire(&dir).expect("released lock must be acquirable");
    let (_, replay) = SegmentStore::open_dir(&dir, DENSE.store).unwrap();
    let recovered = dptd_engine::recovery::recover_replay(
        &replay,
        DENSE.users,
        Loss::Squared,
        Some(&DENSE.policy(&load)),
    )
    .unwrap();
    assert_eq!(recovered.records_applied, DENSE.rounds);
    assert_eq!(recovered.crh.weights(), final_weights.as_slice());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_compactor_manifests_are_repaired_or_refused_never_merged() {
    let load = DENSE.load(59);
    // Build the pre-compaction state: run rounds on a config that is
    // one record short of compacting, so the NEXT append would compact.
    let mem = MemFs::new();
    let (ledger, weights) =
        run_campaign(&DENSE, &load, 1, Box::new(mem.clone())).expect("uninterrupted");

    // Scenario A (killed right before the manifest flip): a fully
    // staged snapshot segment exists but the manifest still names the
    // old segments. The orphan must be deleted — recovering from the
    // old segments — not merged with them.
    let files = mem.snapshot();
    let staged: Vec<u8> = {
        // A plausible staged segment: the real active segment's bytes
        // under an id the manifest has never heard of.
        files
            .iter()
            .find(|(k, _)| k.ends_with(".wal"))
            .map(|(_, v)| v.clone())
            .unwrap()
    };
    let mut with_orphan = files.clone();
    with_orphan.insert("segment-777.wal".to_string(), staged);
    let orphan_mem = MemFs::from_map(with_orphan);
    let (store, replay) = SegmentStore::open(Box::new(orphan_mem.clone()), DENSE.store).unwrap();
    drop(store);
    let recovered = dptd_engine::recovery::recover_replay(
        &replay,
        DENSE.users,
        Loss::Squared,
        Some(&DENSE.policy(&load)),
    )
    .unwrap();
    assert_eq!(recovered.rounds_debited, ledger);
    assert_eq!(recovered.crh.weights(), weights.as_slice());
    assert!(
        !orphan_mem.snapshot().contains_key("segment-777.wal"),
        "stale staged segment must be deleted, not merged"
    );

    // Scenario B (manifest flipped but a named segment vanished): the
    // open refuses — committed records are gone and recovery must not
    // fabricate state. This holds for sealed segments AND the active
    // one: a committed manifest proves the file existed.
    for victim in files.keys().filter(|k| k.ends_with(".wal")) {
        let mut torn = files.clone();
        torn.remove(victim);
        let result = SegmentStore::open(Box::new(MemFs::from_map(torn)), DENSE.store);
        assert!(
            matches!(result, Err(WalError::Corrupt { .. })),
            "vanished `{victim}` must refuse, got {result:?}"
        );
    }
}
