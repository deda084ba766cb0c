//! The touched-user append against the diffing one.
//!
//! A durable campaign round reaches its [`SegmentStore`] through
//! [`RecordLog::append_round`]: the round is borrowed from the backend,
//! a delta frame lists the round's accepted users, and the store's
//! `last_record` mirror copies only their entries. Through
//! [`RecordLog::append_record`] the store finds the same users by
//! diffing the record against that mirror. Both must write the same
//! bytes: a sparse campaign on `MemFs` that crosses rotations and a
//! compaction leaves the same segments and manifest after every round
//! either way — and still does when a `FailingFs` kills the touched
//! path in the middle of an append and the campaign is resumed from
//! what survived. Rounds on either side of the delta frame's size edge
//! pick the same frame both ways.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dptd_engine::store::{FailingFs, MemFs, SegmentStore, StoreConfig, StoreFs};
use dptd_engine::wal::WalError;
use dptd_engine::{
    Engine, EngineBackend, EngineConfig, EpochRecord, LoadGen, LoadGenConfig, RecordKind,
    RecordLog, RoundRecord, WalPolicy,
};
use dptd_ldp::PrivacyLoss;
use dptd_protocol::campaign::{CampaignConfig, CampaignDriver};
use dptd_truth::Loss;

const USERS: usize = 2_000;
const OBJECTS: usize = 3;
const ROUNDS: u64 = 9;

/// Rotations every three records and a compaction every five epoch
/// records: segments of one full frame and two deltas, a snapshot
/// segment, deltas on the snapshot.
const STORE: StoreConfig = StoreConfig {
    rotate_bytes: 0,
    rotate_records: 3,
    compact_every: 5,
};

fn load() -> LoadGen {
    LoadGen::new(LoadGenConfig {
        num_users: USERS,
        num_objects: OBJECTS,
        epochs: ROUNDS,
        churn: 0.98,
        duplicate_probability: 0.05,
        straggler_fraction: 0.05,
        seed: 83,
        ..LoadGenConfig::default()
    })
    .unwrap()
}

fn config(load: &LoadGen) -> CampaignConfig {
    let per_round = PrivacyLoss::new(0.5, 0.0).unwrap();
    CampaignConfig {
        num_objects: OBJECTS,
        deadline_us: load.config().epoch_len_us,
        per_round_loss: per_round,
        budget: per_round.compose_k(4),
    }
}

fn engine(load: &LoadGen) -> Engine {
    Engine::new(EngineConfig {
        num_users: USERS,
        num_objects: OBJECTS,
        num_shards: 4,
        epoch_deadline_us: load.config().epoch_len_us,
        loss: Loss::Squared,
        ..EngineConfig::default()
    })
    .unwrap()
}

/// A store reached only through `append_record`: `append_round` is the
/// trait's default, which copies the round into an [`EpochRecord`].
#[derive(Debug)]
struct Diffing(SegmentStore);

impl RecordLog for Diffing {
    fn append_record(&mut self, record: &EpochRecord) -> Result<(), WalError> {
        self.0.append_record(record)
    }
}

/// Open the store in `fs`, resume whatever it holds, and run the
/// campaign's remaining rounds, snapshotting `mem` (the directory `fs`
/// writes through) after each. Stops at the first failed round.
fn campaign(
    load: &LoadGen,
    fs: Box<dyn StoreFs>,
    mem: &MemFs,
    diffing: bool,
) -> Result<Vec<BTreeMap<String, Vec<u8>>>, String> {
    let (store, replay) = SegmentStore::open(fs, STORE).map_err(|e| format!("open: {e}"))?;
    let log: Box<dyn RecordLog> = if diffing {
        Box::new(Diffing(store))
    } else {
        Box::new(store)
    };
    let policy = WalPolicy::from_campaign(&config(load));
    let (backend, recovered) = EngineBackend::with_log(engine(load), log, &replay, policy)
        .map_err(|e| format!("recover: {e}"))?;
    let next = recovered.next_epoch();
    let mut driver = CampaignDriver::resume(
        backend,
        config(load),
        recovered.rounds_debited,
        recovered.records_applied as u32,
    )
    .map_err(|e| format!("resume: {e}"))?;
    let mut images = Vec::new();
    for epoch in next..ROUNDS {
        driver
            .run_round(epoch, load.epoch_reports(epoch))
            .map_err(|e| format!("round {epoch}: {e}"))?;
        images.push(mem.snapshot());
    }
    Ok(images)
}

#[test]
fn touched_appends_write_the_diffing_bytes_across_rotation_and_compaction() {
    let load = load();
    let run = |diffing| {
        let mem = MemFs::new();
        campaign(&load, Box::new(mem.clone()), &mem, diffing).unwrap()
    };
    let (touched, diffed) = (run(false), run(true));
    for (round, (ours, theirs)) in touched.iter().zip(&diffed).enumerate() {
        assert_eq!(ours, theirs, "directory after round {round}");
    }

    // The campaign is what it claims: it rotated, compacted, and wrote
    // delta frames, one of them on the compaction's snapshot.
    let last = touched.last().unwrap();
    let segments: Vec<&Vec<u8>> = last
        .iter()
        .filter(|(name, _)| name.ends_with(".wal"))
        .map(|(_, bytes)| bytes)
        .collect();
    assert!(segments.len() >= 2, "{} segment(s)", segments.len());
    let replays: Vec<_> = segments
        .iter()
        .map(|bytes| dptd_engine::wal::replay(bytes).unwrap())
        .collect();
    assert_eq!(replays[0].records[0].kind, RecordKind::Snapshot);
    assert!(replays[0].delta_records > 0);
    assert!(replays
        .iter()
        .all(|r| r.delta_records + 1 == r.records.len() as u64));
}

/// Every mutating operation's cost as [`FailingFs`] charges it, and
/// whether it was a record append.
#[derive(Debug)]
struct Costs {
    inner: MemFs,
    ops: Arc<Mutex<Vec<(bool, u64)>>>,
}

impl Costs {
    fn charge(&self, append: bool, cost: u64) {
        self.ops.lock().unwrap().push((append, cost));
    }
}

impl StoreFs for Costs {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, WalError> {
        self.inner.read(name)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.charge(true, bytes.len() as u64);
        self.inner.append(name, bytes)
    }
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError> {
        self.charge(false, 1);
        self.inner.truncate(name, len)
    }
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.charge(false, bytes.len() as u64);
        self.inner.write_atomic(name, bytes)
    }
    fn remove(&mut self, name: &str) -> Result<(), WalError> {
        self.charge(false, 1);
        self.inner.remove(name)
    }
    fn list(&mut self) -> Result<Vec<String>, WalError> {
        self.inner.list()
    }
    fn sync(&mut self, name: &str) -> Result<(), WalError> {
        self.inner.sync(name)
    }
}

#[test]
fn a_touched_append_killed_midway_resumes_to_the_diffing_bytes() {
    let load = load();
    let mem = MemFs::new();
    let ops = Arc::new(Mutex::new(Vec::new()));
    let costs = Costs {
        inner: mem.clone(),
        ops: Arc::clone(&ops),
    };
    let reference = campaign(&load, Box::new(costs), &mem, true).unwrap();
    let reference = reference.last().unwrap();

    // Kill the touched path halfway through each delta frame's append
    // (longer than a magic, shorter than a full frame).
    let ops = ops.lock().unwrap().clone();
    let mut kills = Vec::new();
    let mut at = 0;
    for (append, cost) in ops {
        if append && cost > 16 && cost < 12 * USERS as u64 {
            kills.push(at + cost / 2);
        }
        at += cost;
    }
    assert!(kills.len() >= 4, "{} delta append(s)", kills.len());
    for kill in kills {
        let mem = MemFs::new();
        let failing = FailingFs::new(mem.clone(), kill);
        let err = campaign(&load, Box::new(failing), &mem, false).unwrap_err();
        assert!(err.contains("injected crash"), "kill at {kill}: {err}");
        let resumed = MemFs::from_map(mem.snapshot());
        campaign(&load, Box::new(resumed.clone()), &resumed, false).unwrap();
        assert_eq!(&resumed.snapshot(), reference, "kill at {kill}");
    }
}

/// The writer rule's size edge: a delta frame is written iff it is
/// strictly shorter than the full one, that is iff at most
/// `(12·users − 9) / 16` users changed — 8 of 12. Rounds changing 8, 9
/// and 7 users come out delta, full and delta, the same bytes both ways.
#[test]
fn both_paths_pick_the_same_frame_at_the_delta_size_edge() {
    const POPULATION: usize = 12;
    let open = || {
        let mem = MemFs::new();
        let (store, _) = SegmentStore::open(
            Box::new(mem.clone()),
            StoreConfig {
                rotate_bytes: 0,
                rotate_records: 0,
                compact_every: 0,
            },
        )
        .unwrap();
        (mem, store)
    };
    let (touched_mem, mut touched) = open();
    let (diffed_mem, mut diffed) = open();
    let policy = WalPolicy::from_campaign(&config(&load()));
    let mut losses = vec![0.0; POPULATION];
    let mut debits = vec![0u32; POPULATION];
    for (epoch, changed) in [POPULATION, 8, 9, 7].into_iter().enumerate() {
        let mut accepted: Vec<usize> = (0..changed).map(|i| (epoch + i) % POPULATION).collect();
        accepted.sort_unstable();
        for &user in &accepted {
            losses[user] += 0.5 + user as f64;
            debits[user] += 1;
        }
        let round = RoundRecord {
            epoch: epoch as u64,
            batches_seen: epoch as u64 + 1,
            loss: Loss::Squared,
            policy,
            accepted_users: &accepted,
            cumulative_losses: &losses,
            rounds_debited: &debits,
        };
        touched.append_round(round).unwrap();
        diffed.append_record(&round.to_record()).unwrap();
        assert_eq!(
            touched_mem.snapshot(),
            diffed_mem.snapshot(),
            "epoch {epoch}"
        );
    }
    let segment = &touched_mem.snapshot()["segment-000.wal"];
    let replay = dptd_engine::wal::replay(segment).unwrap();
    assert_eq!(replay.records.len(), 4);
    let full = replay.records[2].encoded_len() as u64;
    assert_eq!(replay.delta_records, 2);
    assert_eq!(
        replay.valid_len,
        8 + replay.records[0].encoded_len() as u64 + full + replay.delta_bytes
    );
}
