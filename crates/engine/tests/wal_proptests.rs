//! Crash-injection property tests for the epoch write-ahead log.
//!
//! The pinned guarantee: **for any kill point** — a clean kill at a
//! record boundary or a torn partial write anywhere inside a frame — a
//! campaign that crashes, recovers from its log and resumes produces a
//! final estimator, debit ledger *and WAL byte stream* bit-identical to
//! an uninterrupted run, across 1/4/16 shards.
//!
//! The kill point is sampled as a fraction of the uninterrupted log's
//! total byte length, so shrinking explores boundaries, torn headers
//! (a crash while the magic itself is being written), torn frame
//! prefixes and torn payloads alike.
//!
//! Also here: the v3 delta frame's own guarantee. For **arbitrary**
//! `(previous, next)` record pairs — not just ones a campaign would
//! produce — `next` encoded as a delta against `previous` replays to
//! `next` bit for bit, and the segmented store writes that delta only
//! when it is strictly the shorter frame.

use proptest::prelude::*;

use dptd_engine::store::{FailingFs, MemFs, SegmentStore, StoreConfig};
use dptd_engine::wal::{self, RecordLog, SEGMENT_FILE, WAL_MAGIC};
use dptd_engine::{
    Engine, EngineBackend, EngineConfig, EpochRecord, LoadGen, LoadGenConfig, RecordKind, WalPolicy,
};
use dptd_ldp::PrivacyLoss;
use dptd_protocol::campaign::{CampaignConfig, CampaignDriver};
use dptd_truth::Loss;

fn load(users: usize, objects: usize, rounds: u64, mix: u8, seed: u64) -> LoadGen {
    // Churn/duplicate/straggler presets: from a clean stream to a messy
    // one, so accepted sets (and therefore debit histories) vary.
    let (churn, dup, straggler) = match mix % 4 {
        0 => (0.0, 0.0, 0.0),
        1 => (0.2, 0.0, 0.0),
        2 => (0.0, 0.15, 0.1),
        _ => (0.25, 0.1, 0.15),
    };
    LoadGen::new(LoadGenConfig {
        num_users: users,
        num_objects: objects,
        epochs: rounds,
        churn,
        duplicate_probability: dup,
        straggler_fraction: straggler,
        seed,
        ..LoadGenConfig::default()
    })
    .expect("valid load config")
}

fn engine(load: &LoadGen, shards: usize) -> Engine {
    Engine::new(EngineConfig {
        num_users: load.config().num_users,
        num_objects: load.config().num_objects,
        num_shards: shards,
        queue_capacity: 256,
        epoch_deadline_us: load.config().epoch_len_us,
        loss: Loss::Squared,
        ..EngineConfig::default()
    })
    .expect("valid engine config")
}

fn campaign_config(load: &LoadGen) -> CampaignConfig {
    let per_round = PrivacyLoss::new(0.5, 0.01).expect("valid loss");
    CampaignConfig {
        num_objects: load.config().num_objects,
        deadline_us: load.config().epoch_len_us,
        per_round_loss: per_round,
        // Roomy: anchors participate every round without exhausting.
        budget: per_round.compose_k(load.config().epochs as u32 + 2),
    }
}

/// The single-segment log's bytes in `fs` (empty when nothing created it).
fn segment(fs: &MemFs) -> Vec<u8> {
    fs.snapshot().remove(SEGMENT_FILE).unwrap_or_default()
}

/// Run the whole campaign WAL-enabled and return (bytes, ledger, weights).
fn uninterrupted(load: &LoadGen, shards: usize) -> (Vec<u8>, Vec<u32>, Vec<f64>) {
    let mem = MemFs::new();
    let config = campaign_config(load);
    let (backend, recovered) = EngineBackend::with_wal(
        engine(load, shards),
        Box::new(mem.clone()),
        WalPolicy::from_campaign(&config),
    )
    .expect("fresh wal");
    let mut driver =
        CampaignDriver::resume(backend, campaign_config(load), recovered.rounds_debited, 0)
            .expect("fresh driver");
    for epoch in 0..load.config().epochs {
        driver
            .run_round(epoch, load.epoch_reports(epoch))
            .expect("uninterrupted round");
    }
    let ledger = driver.accountant().debits_by_user().to_vec();
    let weights = driver.into_backend().current_weights().to_vec();
    (segment(&mem), ledger, weights)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_kill_point_recovers_bit_identically(
        users in 16usize..48,
        objects in 1usize..4,
        rounds in 2u64..5,
        seed in 0u64..1_000,
        kill_fraction in 0.0..1.0f64,
        mix in 0u8..4,
    ) {
        let gen = load(users, objects, rounds, mix, seed);
        let config = campaign_config(&gen);

        // The reference log is shard-count independent (the merge is
        // bit-identical), so one uninterrupted run anchors all three.
        let (ref_bytes, ref_ledger, ref_weights) = uninterrupted(&gen, 1);
        let kill = (kill_fraction * ref_bytes.len() as f64) as u64;

        for shards in [1usize, 4, 16] {
            // Crash: every byte past `kill` is torn away mid-write.
            let crash_mem = MemFs::new();
            let failing = FailingFs::new(crash_mem.clone(), kill);
            let crashed =
                EngineBackend::with_wal(engine(&gen, shards), Box::new(failing), WalPolicy::from_campaign(&config));
            if let Ok((backend, recovered)) = crashed {
                let next = recovered.next_epoch();
                let mut driver = CampaignDriver::resume(
                    backend,
                    config,
                    recovered.rounds_debited,
                    recovered.records_applied as u32,
                ).expect("resume after open");
                for epoch in next..rounds {
                    if driver.run_round(epoch, gen.epoch_reports(epoch)).is_err() {
                        break; // the injected crash fired mid-append
                    }
                }
            }
            let surviving = segment(&crash_mem);
            // Determinism: what survived is a byte prefix of the
            // uninterrupted log.
            prop_assert!(surviving.len() as u64 <= ref_bytes.len() as u64);
            prop_assert_eq!(
                &surviving[..],
                &ref_bytes[..surviving.len()],
                "crash run diverged from the reference log before the kill point"
            );

            // Recover + resume on a fresh process image.
            let resume_mem = MemFs::from_map([(SEGMENT_FILE.to_string(), surviving)].into());
            let (backend, recovered) = EngineBackend::with_wal(
                engine(&gen, shards),
                Box::new(resume_mem.clone()),
                WalPolicy::from_campaign(&config),
            )
            .expect("recovery after a torn tail never errors");
            let next = recovered.next_epoch();
            let mut driver = CampaignDriver::resume(
                backend,
                config,
                recovered.rounds_debited,
                recovered.records_applied as u32,
            ).expect("resumed driver");
            for epoch in next..rounds {
                driver
                    .run_round(epoch, gen.epoch_reports(epoch))
                    .expect("resumed round");
            }

            // Bit-identical outcome: ledger, weights, and the log itself.
            prop_assert_eq!(
                driver.accountant().debits_by_user(),
                &ref_ledger[..],
                "shards={}: ledger diverged", shards
            );
            let weights = driver.into_backend().current_weights().to_vec();
            prop_assert_eq!(
                &weights, &ref_weights,
                "shards={}: weights diverged", shards
            );
            prop_assert_eq!(
                segment(&resume_mem),
                ref_bytes.clone(),
                "shards={}: resumed log diverged", shards
            );
        }
    }
}

/// One population member's `(cumulative loss, debits)` entry. Losses
/// come from a palette of bit patterns where `==` and bit equality
/// disagree (`0.0`/`-0.0`, NaNs) as well as from arbitrary bits.
fn entry() -> impl Strategy<Value = (u64, u32)> {
    (0u8..8, 0u64..u64::MAX, 0u32..4).prop_map(|(pick, bits, debits)| {
        let loss = match pick {
            0 => 0.0f64.to_bits(),
            1 => (-0.0f64).to_bits(),
            2 => f64::NAN.to_bits(),
            3 => f64::NAN.to_bits() | 1,
            4 => 1.5f64.to_bits(),
            _ => bits,
        };
        (loss, debits)
    })
}

fn record_of(
    kind: RecordKind,
    epoch: u64,
    accepted: Vec<usize>,
    entries: &[(u64, u32)],
) -> EpochRecord {
    EpochRecord {
        kind,
        epoch,
        batches_seen: epoch + 1,
        loss: Loss::Squared,
        policy: WalPolicy {
            per_round_epsilon: 0.5,
            per_round_delta: 0.0,
            budget_epsilon: 8.0,
            budget_delta: 0.0,
            stream_tag: epoch,
        },
        accepted_users: accepted,
        cumulative_losses: entries
            .iter()
            .map(|&(bits, _)| f64::from_bits(bits))
            .collect(),
        rounds_debited: entries.iter().map(|&(_, debits)| debits).collect(),
    }
}

/// Field-for-field equality with losses compared as bit patterns
/// (`EpochRecord`'s own `==` calls a NaN unequal to itself).
fn bit_identical(a: &EpochRecord, b: &EpochRecord) -> bool {
    let bits = |r: &EpochRecord| {
        r.cumulative_losses
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>()
    };
    (a.kind, a.epoch, a.batches_seen, a.loss) == (b.kind, b.epoch, b.batches_seen, b.loss)
        && a.policy.matches(&b.policy)
        && a.accepted_users == b.accepted_users
        && bits(a) == bits(b)
        && a.rounds_debited == b.rounds_debited
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_record_pair_round_trips_through_a_delta_and_the_writer_rule_holds(
        previous in prop::collection::vec(entry(), 1..48),
        fresh in prop::collection::vec((entry(), 0u8..4), 48),
        density in 0u8..5,
        previous_is_snapshot in 0u8..2,
    ) {
        // `next` differs from `previous` in an arbitrary subset of
        // users — none, a few, or (nearly) all — that has nothing to do
        // with its accepted list.
        let users = previous.len();
        let next_entries: Vec<(u64, u32)> = previous
            .iter()
            .zip(&fresh)
            .map(|(&old, &(new, roll))| if roll < density { new } else { old })
            .collect();
        let accepted: Vec<usize> = (0..users).filter(|u| fresh[*u].1 == 3).collect();
        let previous = if previous_is_snapshot == 1 {
            record_of(RecordKind::Snapshot, 4, Vec::new(), &previous)
        } else {
            record_of(RecordKind::Epoch, 4, vec![0], &previous)
        };
        let next = record_of(RecordKind::Epoch, 5, accepted, &next_entries);

        // Delta encode -> the one reader: bit for bit the record handed in.
        let delta = next.encode_delta(&previous).expect("same population");
        let log = [WAL_MAGIC.as_slice(), &previous.encode(), &delta].concat();
        let replayed = wal::replay(&log).expect("a committed delta replays");
        prop_assert_eq!(replayed.records.len(), 2);
        prop_assert_eq!(replayed.delta_records, 1);
        prop_assert!(bit_identical(&replayed.records[1], &next), "{:?} != {:?}", replayed.records[1], next);

        // The store writes whichever frame is shorter, a delta only if
        // strictly so, and its directory replays to the same records.
        let mem = MemFs::new();
        let unbounded = StoreConfig { rotate_bytes: 0, rotate_records: 0, compact_every: 0 };
        let (mut store, _) = SegmentStore::open(Box::new(mem.clone()), unbounded).expect("open");
        store.append_record(&previous).expect("append");
        store.append_record(&next).expect("append");
        let segment = mem.snapshot()["segment-000.wal"].clone();
        let written = segment.len() - WAL_MAGIC.len() - previous.encoded_len();
        let full = next.encoded_len();
        prop_assert_eq!(written, delta.len().min(full));
        let stored = wal::replay(&segment).expect("store log replays");
        prop_assert_eq!(stored.delta_records, u64::from(delta.len() < full));
        prop_assert!(bit_identical(&stored.records[0], &previous));
        prop_assert!(bit_identical(&stored.records[1], &next));
    }
}
