//! What the engine's one ingest path promises: however a batch is
//! filtered — on the caller below [`PAR_STAGE_THRESHOLD`] reports, fanned
//! out over runs of shards at or above it — every epoch equals what
//! [`SimBackend`] makes of the same reports, bit for bit, and a reused
//! engine carries nothing of its previous run, nor of a refused one.

use dptd_core::roles::PerturbedReport;
use dptd_engine::engine::PAR_STAGE_THRESHOLD;
use dptd_engine::{Engine, EngineBackend, EngineConfig};
use dptd_obs::trace::{self, codes, SpanContext};
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

fn engine(users: usize, objects: usize, shards: usize, workers: usize) -> Engine {
    Engine::new(EngineConfig {
        num_users: users,
        num_objects: objects,
        num_shards: shards,
        workers,
        epoch_deadline_us: DEADLINE_US,
        loss: Loss::Squared,
        merge_workers: 0,
        ..EngineConfig::default()
    })
    .unwrap()
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

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `count` reports of `epoch` from users drawn with repeats out of
/// `users` (so many users report twice or more, with different values),
/// one in sixteen sent past the deadline.
fn epoch_reports(epoch: u64, count: usize, users: usize) -> Vec<StampedReport> {
    let mut x = 0x9e37_79b9_7f4a_7c15 ^ epoch;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 33
    };
    (0..count)
        .map(|_| {
            let user = next() as usize % users;
            let sent_at_us = match next() % 16 {
                0 => DEADLINE_US + 1,
                t => t * 60,
            };
            stamped(epoch, user, sent_at_us, (next() % 10_000) as f64 / 100.0)
        })
        .collect()
}

/// Epochs of threshold − 1, threshold and 4 × threshold reports, over
/// 1/4/16 shards × 1/2/3/auto workers (3 leaves a remainder shard), run
/// one epoch per call through `Engine::run_with_state` and through an
/// `EngineBackend` (its close stages the round's reports whole): every
/// epoch's truths, accepted users, duplicate and late counts and final
/// weights equal `SimBackend`'s by `to_bits`. Each filter and each close
/// is one `filter` span per thread: one below the threshold, one per
/// fanned-out run of shards at or above it, the runs covering every
/// shard.
#[test]
fn both_sides_of_the_fan_out_threshold_match_the_reference() {
    let users = 3 * PAR_STAGE_THRESHOLD;
    let sizes = [
        PAR_STAGE_THRESHOLD - 1,
        PAR_STAGE_THRESHOLD,
        4 * PAR_STAGE_THRESHOLD,
    ];
    let epochs: Vec<Vec<StampedReport>> = (0u64..)
        .zip(sizes)
        .map(|(e, count)| epoch_reports(e, count, users))
        .collect();
    let expected = reference(users, 1, &epochs);
    for want in &expected {
        assert!(want.duplicates_discarded > 0 && want.late_dropped > 0);
    }
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    trace::set_enabled(true);
    let mut case = 0;
    for shards in [1usize, 4, 16] {
        for workers in [1usize, 2, 3, 0] {
            let what = format!("{shards} shards, {workers} workers");
            let engine = engine(users, 1, shards, workers);
            let mut backend = EngineBackend::new(engine.clone()).unwrap();
            let mut crh = StreamingCrh::new(users, Loss::Squared).unwrap();
            for (reports, want) in epochs.iter().zip(&expected) {
                let what = format!("{what}, {} reports", reports.len());
                case += 1;
                let root = SpanContext::root("stage_fan_out", case);
                let (report, carried) = {
                    let _ctx = trace::enter(root);
                    engine.run_with_state(crh, reports.clone()).unwrap()
                };
                crh = carried;
                let Some(outcome) = &report.epoch else {
                    panic!("{what}: one epoch per call");
                };
                assert_eq!(bits(&outcome.truths), bits(&want.truths), "{what}");
                assert_eq!(outcome.accepted_users, want.accepted_users, "{what}");
                assert_eq!(
                    outcome.duplicates_discarded as u64, want.duplicates_discarded,
                    "{what}"
                );
                assert_eq!(outcome.late_dropped, want.late_dropped, "{what}");
                assert_eq!(bits(&report.final_weights), bits(&want.weights), "{what}");

                let threads = if reports.len() < PAR_STAGE_THRESHOLD {
                    1
                } else {
                    match workers {
                        0 => parallelism,
                        n => n,
                    }
                    .min(shards)
                };
                let runs: Vec<u64> = trace::collect()
                    .into_iter()
                    .filter(|e| e.trace_id == root.trace_id)
                    .filter(|e| e.code == codes::FILTER && e.phase == 'B')
                    .map(|e| e.arg)
                    .collect();
                assert_eq!(runs.len(), 2 * threads, "{what}: filter spans {runs:?}");
                assert_eq!(
                    runs.iter().sum::<u64>(),
                    2 * shards as u64,
                    "{what}: {runs:?}"
                );

                let out = backend
                    .run_round(RoundInput {
                        epoch: reports[0].epoch,
                        num_objects: 1,
                        deadline_us: DEADLINE_US,
                        reports: reports.clone(),
                    })
                    .unwrap();
                assert_eq!(bits(&out.truths), bits(&want.truths), "{what}: backend");
                assert_eq!(bits(&out.weights), bits(&want.weights), "{what}: backend");
                assert_eq!(out.accepted_users, want.accepted_users, "{what}: backend");
                assert_eq!(
                    (out.duplicates_discarded, out.late_dropped),
                    (want.duplicates_discarded, want.late_dropped),
                    "{what}: backend"
                );
            }
        }
    }
    trace::set_enabled(false);
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
        let reused = engine(users, 1, shards, 2);
        let fresh = engine(users, 1, shards, 2);
        let crh = StreamingCrh::new(users, Loss::Squared).unwrap();
        let (first_report, carried) = reused.run_with_state(crh, first.clone()).unwrap();
        let first_outcome = first_report.epoch.expect("one epoch per call");
        assert_eq!(first_outcome.accepted, users);
        assert_eq!(first_outcome.duplicates_discarded, users);

        let (again, after_reused) = reused
            .run_with_state(carried.clone(), second.clone())
            .unwrap();
        let (clean, after_fresh) = fresh.run_with_state(carried, second.clone()).unwrap();
        assert_eq!(again.epoch, clean.epoch, "{shards} shards");
        assert_eq!(again.final_weights, clean.final_weights, "{shards} shards");
        assert_eq!(after_reused.weights(), after_fresh.weights());
        let outcome = again.epoch.expect("one epoch per call");
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
        assert_eq!(after_failure.epoch, never_failed.epoch, "{shards} shards");
    }
}

/// A round is one epoch: a batch that spans two, or names another epoch
/// than the one staged, is refused whole on either side of the fan-out
/// threshold, and nothing stays staged — the next round on the same
/// engine equals a fresh engine's, by `to_bits`.
#[test]
fn a_batch_spanning_two_epochs_is_refused_whole() {
    let users = 3 * PAR_STAGE_THRESHOLD;
    for count in [600, PAR_STAGE_THRESHOLD] {
        let mut mixed = epoch_reports(0, count, users);
        mixed.extend(epoch_reports(1, count, users));
        let next = epoch_reports(2, count, users);
        for shards in [1usize, 4] {
            let what = format!("{count} reports per epoch, {shards} shards");
            let reused = engine(users, 1, shards, 2);
            let crh = StreamingCrh::new(users, Loss::Squared).unwrap();
            assert!(reused.run_with_state(crh, mixed.clone()).is_err(), "{what}");
            assert_eq!(reused.staged_epoch(), None, "{what}");
            // So is a batch of another epoch than the one staged, and the
            // staged epoch goes with it.
            reused.stage(0, mixed[..count].to_vec()).unwrap();
            let crh = StreamingCrh::new(users, Loss::Squared).unwrap();
            assert!(reused.run_with_state(crh, next.clone()).is_err(), "{what}");
            assert_eq!(reused.staged_epoch(), None, "{what}");

            let crh = StreamingCrh::new(users, Loss::Squared).unwrap();
            let (after, after_state) = reused.run_with_state(crh, next.clone()).unwrap();
            let crh = StreamingCrh::new(users, Loss::Squared).unwrap();
            let fresh = engine(users, 1, shards, 2);
            let (clean, clean_state) = fresh.run_with_state(crh, next.clone()).unwrap();
            let (after, clean) = (after.epoch.unwrap(), clean.epoch.unwrap());
            assert_eq!(bits(&after.truths), bits(&clean.truths), "{what}");
            assert_eq!(after.accepted_users, clean.accepted_users, "{what}");
            assert_eq!(
                (after.duplicates_discarded, after.late_dropped),
                (clean.duplicates_discarded, clean.late_dropped),
                "{what}"
            );
            assert_eq!(
                bits(after_state.weights()),
                bits(clean_state.weights()),
                "{what}"
            );
        }
    }
}
