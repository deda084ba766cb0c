//! Deterministic crash-injection harness for the epoch write-ahead log.
//!
//! Where `crates/engine/tests/wal_proptests.rs` samples kill points at
//! random, this harness is exhaustive at the interesting offsets: it
//! kills a budget-constrained multi-round campaign **after every record
//! boundary** and at torn offsets inside every frame (first byte, end of
//! the frame header, mid-payload), recovers, resumes, and requires the
//! final weights digest, budget ledger and log bytes to be bit-identical
//! to the uninterrupted engine run — and to the uninterrupted `sim`
//! reference — across 1/4/16 shards. It also exercises the on-disk
//! [`DirFs`] through a process-style stop/restart and a torn tail
//! appended behind the engine's back.

mod common;

use dptd::engine::recovery::recover_replay;
use dptd::engine::store::{DirFs, FailingFs, MemFs, StoreFs};
use dptd::engine::wal::{self, FRAME_HEADER_LEN, SEGMENT_FILE, WAL_MAGIC};
use dptd::engine::{EngineBackend, EngineConfig, LoadGen, WalPolicy};
use dptd::ldp::PrivacyLoss;
use dptd::protocol::campaign::{CampaignConfig, CampaignDriver, SimBackend};
use dptd::stats::digest::fnv1a_f64s;
use dptd::truth::Loss;

const USERS: usize = 48;
const OBJECTS: usize = 4;
const ROUNDS: u64 = 4;

fn harness_load(seed: u64) -> LoadGen {
    common::churny_load(USERS, OBJECTS, ROUNDS, 0.25, 0.05, 0.05, seed)
}

fn harness_config(load: &LoadGen) -> CampaignConfig {
    let per_round = PrivacyLoss::new(0.5, 0.0).unwrap();
    CampaignConfig {
        num_objects: OBJECTS,
        deadline_us: load.config().epoch_len_us,
        per_round_loss: per_round,
        // Binding: three affordable rounds out of four, so the final
        // round runs with refusals — recovery must restore *that* too.
        budget: per_round.compose_k(3),
    }
}

fn harness_policy(load: &LoadGen) -> WalPolicy {
    WalPolicy::from_campaign(&harness_config(load))
}

/// The single-segment log's bytes in `fs` (empty when nothing created it).
fn segment(fs: &MemFs) -> Vec<u8> {
    fs.snapshot().remove(SEGMENT_FILE).unwrap_or_default()
}

struct Reference {
    bytes: Vec<u8>,
    ledger: Vec<u32>,
    round_weights: Vec<Vec<f64>>,
}

/// Uninterrupted WAL-enabled engine campaign: the ground truth every
/// crash-recovery cycle must reproduce exactly.
fn uninterrupted(load: &LoadGen, shards: usize) -> Reference {
    let mem = MemFs::new();
    let (backend, recovered) = EngineBackend::with_wal(
        common::engine_for(load, shards, 256),
        Box::new(mem.clone()),
        harness_policy(load),
    )
    .unwrap();
    let mut driver =
        CampaignDriver::resume(backend, harness_config(load), recovered.rounds_debited, 0).unwrap();
    let mut round_weights = Vec::new();
    for epoch in 0..ROUNDS {
        let round = driver.run_round(epoch, load.epoch_reports(epoch)).unwrap();
        round_weights.push(round.weights);
    }
    Reference {
        bytes: segment(&mem),
        ledger: driver.accountant().debits_by_user().to_vec(),
        round_weights,
    }
}

/// Byte offsets of every frame boundary in a log image (including the
/// header boundary and the total length).
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = vec![WAL_MAGIC.len()];
    let mut off = WAL_MAGIC.len();
    while off < bytes.len() {
        let payload_len =
            u32::from_le_bytes(bytes[off..off + 4].try_into().expect("length prefix")) as usize;
        off += FRAME_HEADER_LEN + payload_len;
        offsets.push(off);
    }
    assert_eq!(off, bytes.len(), "reference log has a torn tail");
    offsets
}

/// Crash a campaign after exactly `kill` logged bytes, recover from what
/// survived, resume, and return (final ledger, final weights, log bytes).
fn crash_recover_resume(load: &LoadGen, shards: usize, kill: u64) -> (Vec<u32>, Vec<f64>, Vec<u8>) {
    let config = harness_config(load);

    let crash_mem = MemFs::new();
    let failing = FailingFs::new(crash_mem.clone(), kill);
    if let Ok((backend, recovered)) = EngineBackend::with_wal(
        common::engine_for(load, shards, 256),
        Box::new(failing),
        harness_policy(load),
    ) {
        let next = recovered.next_epoch();
        let mut driver = CampaignDriver::resume(
            backend,
            config,
            recovered.rounds_debited,
            recovered.records_applied as u32,
        )
        .unwrap();
        for epoch in next..ROUNDS {
            if driver.run_round(epoch, load.epoch_reports(epoch)).is_err() {
                break; // the injected crash fired
            }
        }
    }

    let resume_mem = MemFs::from_map(crash_mem.snapshot());
    let (backend, recovered) = EngineBackend::with_wal(
        common::engine_for(load, shards, 256),
        Box::new(resume_mem.clone()),
        harness_policy(load),
    )
    .expect("torn tails recover, never error");
    let next = recovered.next_epoch();
    let mut driver = CampaignDriver::resume(
        backend,
        config,
        recovered.rounds_debited,
        recovered.records_applied as u32,
    )
    .unwrap();
    for epoch in next..ROUNDS {
        driver.run_round(epoch, load.epoch_reports(epoch)).unwrap();
    }
    let ledger = driver.accountant().debits_by_user().to_vec();
    let weights = driver.into_backend().current_weights().to_vec();
    (ledger, weights, segment(&resume_mem))
}

#[test]
fn every_kill_point_recovers_bit_identically_across_shards() {
    let load = harness_load(31);
    let reference = uninterrupted(&load, 1);
    let final_weights = reference.round_weights.last().unwrap().clone();

    // The uninterrupted sim campaign lands on the same ledger and
    // weights — so recovery is pinned to the protocol reference, not
    // just to the engine's own uninterrupted run.
    let mut sim = CampaignDriver::new(
        SimBackend::new(USERS, Loss::Squared).unwrap(),
        harness_config(&load),
    )
    .unwrap();
    let mut sim_weights = Vec::new();
    for epoch in 0..ROUNDS {
        sim_weights = sim
            .run_round(epoch, load.epoch_reports(epoch))
            .unwrap()
            .weights;
    }
    assert_eq!(sim.accountant().debits_by_user(), &reference.ledger[..]);
    assert_eq!(sim_weights, final_weights);

    // Kill points: every record boundary (clean kill between records)
    // plus torn offsets inside every frame — first byte, end of the
    // frame header, mid-payload — and a torn file header.
    let boundaries = frame_boundaries(&reference.bytes);
    assert_eq!(boundaries.len() as u64, ROUNDS + 1, "one record per round");
    let mut kill_points: Vec<usize> = vec![0, 3];
    for window in boundaries.windows(2) {
        let (start, end) = (window[0], window[1]);
        kill_points.push(start);
        kill_points.extend([start + 1, start + FRAME_HEADER_LEN, (start + end) / 2]);
    }
    kill_points.push(reference.bytes.len());

    for &kill in &kill_points {
        for shards in [1usize, 4, 16] {
            let (ledger, weights, bytes) = crash_recover_resume(&load, shards, kill as u64);
            assert_eq!(
                ledger, reference.ledger,
                "kill at byte {kill}, {shards} shards: budget ledger diverged"
            );
            assert_eq!(
                fnv1a_f64s(&weights),
                fnv1a_f64s(&final_weights),
                "kill at byte {kill}, {shards} shards: weights digest diverged"
            );
            assert_eq!(weights, final_weights);
            assert_eq!(
                bytes, reference.bytes,
                "kill at byte {kill}, {shards} shards: resumed log diverged"
            );
        }
    }
}

#[test]
fn file_wal_survives_restart_and_a_torn_tail_on_disk() {
    let dir = std::env::temp_dir().join(format!(
        "dptd-wal-e2e-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let load = harness_load(47);
    let config = harness_config(&load);
    let reference = uninterrupted(&load, 4);

    // "Process one": runs the first two rounds, then stops (drop).
    {
        let sink = DirFs::open(&dir).unwrap();
        let (backend, recovered) = EngineBackend::with_wal(
            common::engine_for(&load, 4, 256),
            Box::new(sink),
            harness_policy(&load),
        )
        .unwrap();
        let mut driver =
            CampaignDriver::resume(backend, config, recovered.rounds_debited, 0).unwrap();
        for epoch in 0..2 {
            driver.run_round(epoch, load.epoch_reports(epoch)).unwrap();
        }
    }

    // Someone tears the tail behind our back (a crash mid-write).
    {
        let mut sink = DirFs::open(&dir).unwrap();
        sink.append(SEGMENT_FILE, &[0xba, 0xad, 0xf0]).unwrap();
    }

    // "Process two": recovery repairs the tail and resumes at round 2.
    let sink = DirFs::open(&dir).unwrap();
    let (backend, recovered) = EngineBackend::with_wal(
        common::engine_for(&load, 4, 256),
        Box::new(sink),
        harness_policy(&load),
    )
    .unwrap();
    assert_eq!(recovered.truncated_bytes, 3);
    assert_eq!(recovered.last_epoch, Some(1));
    assert_eq!(recovered.next_epoch(), 2);
    let mut driver = CampaignDriver::resume(
        backend,
        config,
        recovered.rounds_debited,
        recovered.records_applied as u32,
    )
    .unwrap();
    for epoch in 2..ROUNDS {
        driver.run_round(epoch, load.epoch_reports(epoch)).unwrap();
    }
    assert_eq!(driver.accountant().debits_by_user(), &reference.ledger[..]);
    assert_eq!(
        driver.into_backend().current_weights(),
        reference.round_weights.last().unwrap().as_slice()
    );

    // The on-disk log now equals the uninterrupted in-memory one.
    let mut sink = DirFs::open(&dir).unwrap();
    assert_eq!(sink.read(SEGMENT_FILE).unwrap().unwrap(), reference.bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_round_indices_are_exact() {
    let load = harness_load(53);
    let config = harness_config(&load);
    let reference = uninterrupted(&load, 4);

    // Run three of four rounds, crash, recover.
    let mem = MemFs::new();
    {
        let (backend, recovered) = EngineBackend::with_wal(
            common::engine_for(&load, 4, 256),
            Box::new(mem.clone()),
            harness_policy(&load),
        )
        .unwrap();
        let mut driver =
            CampaignDriver::resume(backend, config, recovered.rounds_debited, 0).unwrap();
        for epoch in 0..3 {
            driver.run_round(epoch, load.epoch_reports(epoch)).unwrap();
        }
    }
    let (backend, recovered) = EngineBackend::with_wal(
        common::engine_for(&load, 4, 256),
        Box::new(mem.clone()),
        harness_policy(&load),
    )
    .unwrap();

    // No off-by-one anywhere: three records, last epoch 2, resume at 3.
    assert_eq!(recovered.records_applied, 3);
    assert_eq!(recovered.last_epoch, Some(2));
    assert_eq!(recovered.next_epoch(), 3);
    assert_eq!(backend.rounds(), 3);
    // The recovered estimator is the round-2 state, bit for bit.
    assert_eq!(
        recovered.crh.weights(),
        reference.round_weights[2].as_slice()
    );

    // A read-only replay of the raw log agrees with the backend's view.
    let direct = recover_replay(
        &wal::replay(&segment(&mem)).unwrap(),
        load.config().num_users,
        EngineConfig::default().loss,
        None,
    )
    .unwrap();
    assert_eq!(direct.rounds_debited, recovered.rounds_debited);
    assert_eq!(direct.crh.weights(), recovered.crh.weights());

    // `Engine::run_with_state` resuming from the recovered estimator
    // reproduces round 3 exactly: apply the driver's refusal filter by
    // hand (budget = 3 rounds, so a user with 3 debits refuses) and the
    // raw engine epoch lands on the reference's final weights bits.
    let engine = common::engine_for(&load, 4, 256);
    let affordable: Vec<_> = load
        .epoch_reports(3)
        .into_iter()
        .filter(|r| direct.rounds_debited[r.report.user] < 3)
        .collect();
    let (_, crh) = engine.run_with_state(direct.crh, affordable).unwrap();
    assert_eq!(
        crh.weights(),
        reference.round_weights.last().unwrap().as_slice()
    );

    let mut driver = CampaignDriver::resume(
        backend,
        config,
        recovered.rounds_debited,
        recovered.records_applied as u32,
    )
    .unwrap();
    assert_eq!(driver.rounds_run(), 3);

    // Re-running an already-committed round is rejected (the WAL-enabled
    // backend enforces strictly increasing epochs) and nothing advances.
    let err = driver.run_round(2, load.epoch_reports(2)).unwrap_err();
    assert!(err.to_string().contains("epoch"), "{err}");
    assert_eq!(driver.rounds_run(), 3, "failed round must not count");

    // The correct next round completes the campaign identically.
    let round = driver.run_round(3, load.epoch_reports(3)).unwrap();
    assert_eq!(round.weights, *reference.round_weights.last().unwrap());
    assert_eq!(driver.rounds_run(), 4);
    assert_eq!(driver.accountant().debits_by_user(), &reference.ledger[..]);
}
