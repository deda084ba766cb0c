//! Acceptance harness for the segmented snapshot store: a long-horizon
//! (200-round) campaign with compaction enabled must end with on-disk
//! bytes bounded by `O(num_users + rounds_since_last_snapshot)` — a
//! fixed multiple of one snapshot, independent of campaign length — and
//! a crashed campaign resumed **from the newest snapshot** must land on
//! a weights digest and budget ledger bit-identical to an uninterrupted
//! run. The same long log is inspected through the `dptd recover`
//! read-only path and stays byte-for-byte untouched.
//!
//! A second, **sparse** campaign (2 000 users, ~3 % reporting per round)
//! runs the same crash-and-resume on a real directory whose rounds are
//! stored as v3 delta frames: the log stays within a small multiple of
//! one snapshot however many rounds follow it, a kill that tears a delta
//! frame resumes to the uninterrupted directory image, and read-only
//! recovery lands on the live weights digest and ledger.

mod common;

use dptd::engine::recovery::recover_replay;
use dptd::engine::store::{read_dir, SegmentStore, StoreConfig};
use dptd::engine::{EngineBackend, RecordKind, WalPolicy};
use dptd::ldp::PrivacyLoss;
use dptd::protocol::campaign::{CampaignConfig, CampaignDriver};
use dptd::stats::digest::fnv1a_f64s;
use dptd::truth::Loss;

const OBJECTS: usize = 4;
const ROUNDS: u64 = 200;
const COMPACT_EVERY: u64 = 16;

/// One campaign shape: who reports, for how long, under which store
/// thresholds.
#[derive(Debug, Clone, Copy)]
struct Shape {
    users: usize,
    rounds: u64,
    churn: f64,
    store: StoreConfig,
}

/// 200 rounds over 40 users, most of whom report every round.
const LONG: Shape = Shape {
    users: 40,
    rounds: ROUNDS,
    churn: 0.2,
    store: StoreConfig {
        rotate_bytes: 0,
        rotate_records: 8,
        compact_every: COMPACT_EVERY,
    },
};

/// 40 rounds over 2 000 users of whom ~3 % report per round.
const SPARSE: Shape = Shape {
    users: 2_000,
    rounds: 40,
    churn: 0.97,
    store: StoreConfig {
        rotate_bytes: 0,
        rotate_records: 6,
        compact_every: 9,
    },
};

impl Shape {
    fn load(&self) -> dptd::engine::LoadGen {
        common::churny_load(self.users, OBJECTS, self.rounds, self.churn, 0.02, 0.02, 97)
    }

    fn config(&self, load: &dptd::engine::LoadGen) -> CampaignConfig {
        let per_round = PrivacyLoss::new(0.05, 0.0).unwrap();
        CampaignConfig {
            num_objects: OBJECTS,
            deadline_us: load.config().epoch_len_us,
            per_round_loss: per_round,
            // Roomy: the whole horizon without total exhaustion.
            budget: per_round.compose_k(self.rounds as u32 + 8),
        }
    }
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum()
}

/// Every file of `dir` with its bytes, sorted by name.
fn image(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

/// Drive rounds `[from, to)` of the campaign over the store in `dir`,
/// returning (ledger, weights) at the end.
fn run_rounds(
    shape: &Shape,
    dir: &std::path::Path,
    from_hint: u64,
    to: u64,
) -> (Vec<u32>, Vec<f64>) {
    let load = shape.load();
    let (store, replay) = SegmentStore::open_dir(dir, shape.store).unwrap();
    let policy = WalPolicy::from_campaign(&shape.config(&load));
    let (backend, recovered) = EngineBackend::with_log(
        common::engine_for(&load, 4),
        Box::new(store),
        &replay,
        policy,
    )
    .unwrap();
    let next = recovered.next_epoch();
    assert!(
        next >= from_hint,
        "resume point {next} went backwards from {from_hint}"
    );
    let mut driver = CampaignDriver::resume(
        backend,
        shape.config(&load),
        recovered.rounds_debited,
        recovered.records_applied.min(u64::from(u32::MAX)) as u32,
    )
    .unwrap();
    for epoch in next..to {
        driver.run_round(epoch, load.epoch_reports(epoch)).unwrap();
    }
    let ledger = driver.accountant().debits_by_user().to_vec();
    let weights = driver.into_backend().current_weights().to_vec();
    (ledger, weights)
}

#[test]
fn two_hundred_round_campaign_has_bounded_disk_and_snapshot_resume() {
    let base = std::env::temp_dir().join(format!(
        "dptd-store-e2e-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&base);
    let uninterrupted_dir = base.join("uninterrupted");
    let crashed_dir = base.join("crashed");

    // Uninterrupted 200-round reference.
    let (ref_ledger, ref_weights) = run_rounds(&LONG, &uninterrupted_dir, 0, ROUNDS);

    // ── Bounded disk ────────────────────────────────────────────────
    // The log holds one snapshot plus at most ~compact_every records
    // (plus rotation slack); every record is O(num_users), so "a fixed
    // multiple of one snapshot" is the bound — independent of the 200
    // rounds. An uncompacted log would hold all 200 records.
    let replayed = read_dir(&uninterrupted_dir).unwrap();
    let snapshot_bytes = replayed
        .replay
        .records
        .last()
        .unwrap()
        .to_snapshot()
        .encode()
        .len() as u64;
    let total = dir_bytes(&uninterrupted_dir);
    let bound = (2 * COMPACT_EVERY + 8) * snapshot_bytes / 2;
    assert!(
        total < bound,
        "on-disk {total} bytes exceeds the compaction bound {bound} \
         (snapshot = {snapshot_bytes} bytes)"
    );
    // Far below what 200 uncompacted records would occupy.
    assert!(total < ROUNDS * snapshot_bytes / 4, "{total} bytes");
    // And recovery replays only the post-snapshot suffix, not 200
    // records: O(segment), not O(campaign-lifetime).
    assert!(
        (replayed.replay.records.len() as u64) <= 2 * COMPACT_EVERY + 2,
        "recovery replays {} records",
        replayed.replay.records.len()
    );
    assert_eq!(replayed.replay.records[0].kind, RecordKind::Snapshot);
    assert!(replayed.newest_snapshot_epoch().unwrap() >= ROUNDS - COMPACT_EVERY - 1);

    // ── Crash + resume from the newest snapshot ─────────────────────
    // Kill the campaign at round 150 (a record boundary: the store
    // fault harness covers torn offsets exhaustively), then resume.
    let (_, _) = run_rounds(&LONG, &crashed_dir, 0, 150);
    let mid = read_dir(&crashed_dir).unwrap();
    assert!(
        mid.newest_snapshot_epoch().is_some(),
        "the crashed log must carry a snapshot to seed from"
    );
    let (ledger, weights) = run_rounds(&LONG, &crashed_dir, 150, ROUNDS);
    assert_eq!(ledger, ref_ledger, "resumed ledger diverged");
    assert_eq!(
        fnv1a_f64s(&weights),
        fnv1a_f64s(&ref_weights),
        "resumed weights digest diverged"
    );
    assert_eq!(weights, ref_weights);

    // The resumed directory is byte-identical to the uninterrupted one.
    assert_eq!(image(&uninterrupted_dir), image(&crashed_dir));

    // ── Read-only inspection stays read-only ────────────────────────
    let before = image(&uninterrupted_dir);
    let _ = read_dir(&uninterrupted_dir).unwrap();
    assert_eq!(before, image(&uninterrupted_dir));

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn sparse_campaign_is_stored_as_deltas_and_resumes_through_a_torn_one() {
    let base = std::env::temp_dir().join(format!(
        "dptd-store-e2e-sparse-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&base);
    let uninterrupted_dir = base.join("uninterrupted");
    let crashed_dir = base.join("crashed");

    let (live_ledger, live_weights) = run_rounds(&SPARSE, &uninterrupted_dir, 0, SPARSE.rounds);

    // ── Stored as deltas ────────────────────────────────────────────
    // Every segment opens with a full frame (an epoch record or the
    // compaction's snapshot) and continues in deltas, so the directory
    // costs one or two population-sized frames plus ~2.5 KB per round —
    // not `rounds since the snapshot` population-sized frames.
    let stored = read_dir(&uninterrupted_dir).unwrap();
    let records = &stored.replay.records;
    assert!(records
        .iter()
        .all(|r| r.accepted_users.len() * 20 <= SPARSE.users));
    for info in &stored.segments {
        assert_eq!(info.delta_records + 1, info.records, "{info:?}");
    }
    assert!(stored.replay.delta_records >= SPARSE.store.compact_every / 2);
    let snapshot_bytes = records.last().unwrap().to_snapshot().encoded_len() as u64;
    assert!(
        stored.total_bytes() < 3 * snapshot_bytes,
        "{} bytes on disk, one snapshot is {snapshot_bytes}",
        stored.total_bytes()
    );
    assert!(stored.reclaimable_bytes() <= stored.total_bytes() - snapshot_bytes);

    // ── Read-only recovery lands on the live state ──────────────────
    let recovered = recover_replay(&stored.replay, SPARSE.users, Loss::Squared, None).unwrap();
    assert_eq!(recovered.rounds_debited, live_ledger);
    assert_eq!(
        fnv1a_f64s(recovered.crh.weights()),
        fnv1a_f64s(&live_weights)
    );
    assert_eq!(recovered.records_applied, SPARSE.rounds);

    // ── Kill mid-append of a delta frame, then resume ───────────────
    // Round 38's record follows the last snapshot's segment-mates 36
    // and 37, so it is a delta. The kill leaves its header and part of
    // its payload behind.
    let kill_round = 38;
    run_rounds(&SPARSE, &crashed_dir, 0, kill_round);
    let mid = read_dir(&crashed_dir).unwrap();
    let active = mid.segments.last().unwrap();
    assert!(active.delta_records >= 1, "{active:?}");
    let next_frame = {
        let base = records
            .iter()
            .position(|r| r.kind == RecordKind::Epoch && r.epoch == kill_round - 1)
            .unwrap();
        records[base + 1].encode_delta(&records[base]).unwrap()
    };
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(crashed_dir.join(dptd::engine::store::segment_file_name(active.id)))
            .unwrap();
        f.write_all(&next_frame[..next_frame.len() * 2 / 3])
            .unwrap();
    }
    let torn = read_dir(&crashed_dir).unwrap();
    assert_eq!(
        torn.replay.truncated_bytes as usize,
        next_frame.len() * 2 / 3
    );
    let (ledger, weights) = run_rounds(&SPARSE, &crashed_dir, kill_round, SPARSE.rounds);
    assert_eq!(ledger, live_ledger, "resumed ledger diverged");
    assert_eq!(weights, live_weights, "resumed weights diverged");
    assert_eq!(image(&uninterrupted_dir), image(&crashed_dir));

    let _ = std::fs::remove_dir_all(&base);
}
