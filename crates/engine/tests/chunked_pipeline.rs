//! What the chunked router → worker hand-off promises: however the
//! stream is cut into chunks, spread over inboxes and squeezed through
//! small queues, the engine is the canonical server pipeline — every
//! epoch equals what [`SimBackend`] makes of the same reports, bit for
//! bit — and its metrics keep their meaning.

use proptest::prelude::*;

use dptd_core::roles::PerturbedReport;
use dptd_engine::{Engine, EngineConfig, EngineReport, LoadGen, LoadGenConfig};
use dptd_protocol::campaign::{RoundBackend, RoundInput, RoundOutput, SimBackend};
use dptd_protocol::message::StampedReport;
use dptd_truth::streaming::StreamingCrh;
use dptd_truth::Loss;

const DEADLINE_US: u64 = 1_000;

/// The in-process reference: one `SimBackend` round per epoch.
fn reference(users: usize, objects: usize, epochs: &[Vec<StampedReport>]) -> Vec<RoundOutput> {
    let mut sim = SimBackend::new(users, Loss::Squared).unwrap();
    epochs
        .iter()
        .map(|reports| {
            sim.run_round(RoundInput {
                epoch: reports[0].epoch,
                num_objects: objects,
                deadline_us: DEADLINE_US,
                reports: reports.clone(),
            })
            .unwrap()
        })
        .collect()
}

fn engine(
    users: usize,
    objects: usize,
    shards: usize,
    workers: usize,
    queue_capacity: usize,
) -> Engine {
    Engine::new(EngineConfig {
        num_users: users,
        num_objects: objects,
        num_shards: shards,
        workers,
        queue_capacity,
        epoch_deadline_us: DEADLINE_US,
        loss: Loss::Squared,
        merge_workers: 0,
    })
    .unwrap()
}

/// Every `EpochOutcome` field but `shard_drift`, the final weights and
/// the metrics' invariants, against the reference.
fn assert_matches(report: &EngineReport, expected: &[RoundOutput], submitted: usize, what: &str) {
    assert_eq!(report.epochs.len(), expected.len(), "{what}: epochs merged");
    for (outcome, want) in report.epochs.iter().zip(expected) {
        assert_eq!(outcome.truths, want.truths, "{what}: truths");
        assert_eq!(
            outcome.accepted_users, want.accepted_users,
            "{what}: accepted users"
        );
        assert_eq!(
            outcome.accepted,
            want.accepted_users.len(),
            "{what}: accepted"
        );
        assert_eq!(
            outcome.duplicates_discarded as u64, want.duplicates_discarded,
            "{what}: duplicates"
        );
        assert_eq!(outcome.late_dropped, want.late_dropped, "{what}: late");
    }
    let last = expected.last().expect("at least one epoch");
    assert_eq!(report.final_weights, last.weights, "{what}: final weights");

    let m = &report.metrics;
    assert_eq!(m.reports_submitted, submitted as u64, "{what}: submitted");
    assert_eq!(
        m.ingest_latency.count(),
        m.reports_submitted,
        "{what}: one latency sample per report"
    );
    assert_eq!(
        m.reports_submitted,
        m.reports_accepted + m.duplicates_discarded + m.late_dropped + m.out_of_order_dropped,
        "{what}: every report accounted for once"
    );
}

fn configs() -> impl Iterator<Item = (usize, usize, usize)> {
    [1usize, 4, 16].into_iter().flat_map(|shards| {
        [1usize, 2, 0].into_iter().flat_map(move |workers| {
            [1usize, 7, 64, 4_096]
                .into_iter()
                .map(move |queue| (shards, workers, queue))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Populations large enough that a shard sees several full chunks, a
    /// partial one at every epoch boundary and at the end of the stream.
    #[test]
    fn every_chunking_of_a_stream_is_the_reference_pipeline(
        users in 300usize..1_400,
        objects in 1usize..4,
        epochs in 1u64..4,
        seed in 0u64..1_000,
        dup in 0.0..0.3f64,
        straggle in 0.0..0.2f64,
    ) {
        let load = LoadGen::new(LoadGenConfig {
            num_users: users,
            num_objects: objects,
            epochs,
            epoch_len_us: DEADLINE_US,
            duplicate_probability: dup,
            straggler_fraction: straggle,
            coverage: 0.9,
            seed,
            ..LoadGenConfig::default()
        }).unwrap();
        let per_epoch: Vec<Vec<StampedReport>> =
            (0..epochs).map(|e| load.epoch_reports(e)).collect();
        let expected = reference(users, objects, &per_epoch);
        let stream: Vec<StampedReport> = per_epoch.concat();

        // The `StreamingCrh` reference itself, so that the engine is
        // pinned to the estimator and not only to another backend.
        let mut crh = StreamingCrh::new(users, Loss::Squared).unwrap();
        for (e, want) in expected.iter().enumerate() {
            let truths = crh.ingest(&load.epoch_matrix(e as u64).unwrap()).unwrap();
            prop_assert_eq!(&truths, &want.truths);
        }
        prop_assert_eq!(crh.weights(), expected.last().unwrap().weights.as_slice());

        for (shards, workers, queue) in configs() {
            let report = engine(users, objects, shards, workers, queue)
                .run(stream.clone())
                .unwrap();
            let what = format!("{shards} shards, {workers} workers, queue {queue}");
            assert_matches(&report, &expected, stream.len(), &what);
            prop_assert!(
                report.metrics.max_queue_depth <= queue,
                "{}: depth {} over capacity", what, report.metrics.max_queue_depth
            );
        }
    }
}

fn stamped(epoch: u64, user: usize, sent_at_us: u64, value: f64) -> StampedReport {
    StampedReport {
        epoch,
        sent_at_us,
        report: PerturbedReport {
            user,
            values: vec![(0, value)],
        },
    }
}

/// Where a duplicate lands relative to its first copy — an earlier chunk,
/// the same chunk, or behind a late copy — changes nothing about how it
/// is counted; and an epoch boundary in the middle of a chunk, or a
/// stream that ends on a partial chunk, loses nothing.
#[test]
fn duplicates_and_boundaries_do_not_care_where_the_chunks_fall() {
    let users = 700;
    // Epoch 0: 700 first copies — with one shard that is two full chunks
    // of 256 and a partial one — then the copies that matter.
    let mut epoch0: Vec<StampedReport> = (0..users)
        .map(|u| stamped(0, u, 10, u as f64 / 100.0))
        .collect();
    // User 5's first copy went out in the first chunk: a duplicate.
    epoch0.push(stamped(0, 5, 20, 99.0));
    // User 650 twice more, back to back: same chunk, two duplicates.
    epoch0.push(stamped(0, 650, 20, 99.0));
    epoch0.push(stamped(0, 650, 21, 98.0));
    // A late copy of an accepted user counts as late, not as duplicate.
    epoch0.push(stamped(0, 6, DEADLINE_US + 1, 99.0));
    // Epoch 1: user 3's first copy is late, so its second — on time —
    // is the one aggregated; user 4 is late twice and never counted.
    let mut epoch1 = vec![
        stamped(1, 3, DEADLINE_US + 5, 99.0),
        stamped(1, 4, DEADLINE_US + 5, 99.0),
    ];
    epoch1.extend(
        (0..300)
            .filter(|&u| u != 4)
            .map(|u| stamped(1, u, 10, 1.0 + u as f64 / 100.0)),
    );
    epoch1.push(stamped(1, 4, DEADLINE_US + 6, 99.0));
    // Epoch 2 ends the stream 44 reports into a chunk.
    let epoch2: Vec<StampedReport> = (0..300).map(|u| stamped(2, u, 10, 2.0)).collect();

    let per_epoch = vec![epoch0, epoch1, epoch2];
    let expected = reference(users, 1, &per_epoch);
    // The reference counts what the comments above say.
    assert_eq!(
        (
            expected[0].accepted_users.len(),
            expected[0].duplicates_discarded,
            expected[0].late_dropped
        ),
        (700, 3, 1)
    );
    assert_eq!(
        (
            expected[1].accepted_users.len(),
            expected[1].duplicates_discarded,
            expected[1].late_dropped
        ),
        (299, 0, 3)
    );
    assert!(expected[1].accepted_users.contains(&3));
    assert!(!expected[1].accepted_users.contains(&4));
    assert_eq!(expected[2].accepted_users.len(), 300);

    let stream: Vec<StampedReport> = per_epoch.concat();
    for (shards, workers, queue) in configs() {
        let report = engine(users, 1, shards, workers, queue)
            .run(stream.clone())
            .unwrap();
        let what = format!("{shards} shards, {workers} workers, queue {queue}");
        assert_matches(&report, &expected, stream.len(), &what);
        assert!(report.metrics.max_queue_depth <= queue, "{what}");
    }
}

/// An engine keeps its shard states and its merge arena between runs and
/// resets them by generation stamp, not by rebuilding them. A second
/// round with fewer reporters must show nothing of the first: not its
/// users, not its duplicates, not its claims.
#[test]
fn a_reused_engine_shows_nothing_of_its_previous_run() {
    let users = 600;
    let first: Vec<StampedReport> = (0..users)
        .flat_map(|u| [stamped(0, u, 10, u as f64 / 50.0), stamped(0, u, 11, 7.0)])
        .collect();
    // Every third user only, and no duplicates this time.
    let second: Vec<StampedReport> = (0..users)
        .step_by(3)
        .map(|u| stamped(1, u, 10, 3.0 + u as f64 / 50.0))
        .collect();

    for shards in [1usize, 4, 16] {
        let reused = engine(users, 1, shards, 2, 64);
        let fresh = engine(users, 1, shards, 2, 64);
        let crh = StreamingCrh::new(users, Loss::Squared).unwrap();
        let (first_report, carried) = reused.run_with_state(crh, first.clone()).unwrap();
        assert_eq!(first_report.epochs[0].accepted, users);
        assert_eq!(first_report.epochs[0].duplicates_discarded, users);

        let (again, after_reused) = reused
            .run_with_state(carried.clone(), second.clone())
            .unwrap();
        let (clean, after_fresh) = fresh.run_with_state(carried, second.clone()).unwrap();
        assert_eq!(again.epochs, clean.epochs, "{shards} shards");
        assert_eq!(again.final_weights, clean.final_weights, "{shards} shards");
        assert_eq!(after_reused.weights(), after_fresh.weights());
        let outcome = &again.epochs[0];
        assert_eq!(outcome.accepted, 200);
        assert_eq!(outcome.duplicates_discarded, 0);
        assert_eq!(
            outcome.accepted_users,
            (0..users).step_by(3).collect::<Vec<_>>()
        );

        // A run that fails part-way leaves no half-ingested epoch behind
        // for the next one either.
        let mut broken = second.clone();
        broken.push(stamped(1, users + 9, 10, 1.0));
        let crh = StreamingCrh::new(users, Loss::Squared).unwrap();
        assert!(reused.run_with_state(crh, broken).is_err());
        let crh = StreamingCrh::new(users, Loss::Squared).unwrap();
        let (after_failure, _) = reused.run_with_state(crh, second.clone()).unwrap();
        let crh = StreamingCrh::new(users, Loss::Squared).unwrap();
        let (never_failed, _) = fresh.run_with_state(crh, second.clone()).unwrap();
        assert_eq!(after_failure.epochs, never_failed.epochs, "{shards} shards");
    }
}
