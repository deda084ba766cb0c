//! End-to-end: the sharded streaming engine through the umbrella crate's
//! public API, cross-checked against the single-shard streaming reference.

mod common;

use dptd::truth::streaming::StreamingCrh;
use dptd::truth::Loss;

#[test]
fn engine_round_trip_matches_streaming_reference() {
    let users = 300;
    let objects = 6;
    let epochs = 4;
    let load = common::bursty_load(users, objects, epochs, 0.05, 0.05, 99);
    let engine = common::engine_for(&load, 8);

    let (outcomes, final_weights, _) = common::run_epochs(&engine, &load);
    assert_eq!(outcomes.len() as u64, epochs);

    let mut reference = StreamingCrh::new(users, Loss::Squared).unwrap();
    for (e, outcome) in outcomes.iter().enumerate() {
        let truths = reference
            .ingest(&load.epoch_matrix(e as u64).unwrap())
            .unwrap();
        assert_eq!(outcome.truths, truths, "epoch {e} diverged");
    }
    assert_eq!(final_weights, reference.weights());

    // The engine's estimates track the known ground truths.
    for outcome in &outcomes {
        let mae =
            dptd::stats::summary::mae(&outcome.truths, &load.ground_truths(outcome.epoch)).unwrap();
        assert!(mae < 1.0, "epoch {}: truth MAE {mae}", outcome.epoch);
    }
}

#[test]
fn engine_surfaces_ingest_metrics() {
    let load = common::churny_load(200, 4, 2, 0.0, 0.2, 0.2, 42);
    let engine = common::engine_for(&load, 4);
    let (_, _, m) = common::run_epochs(&engine, &load);
    assert!(m.duplicates_discarded > 0, "{m:?}");
    assert!(m.late_dropped > 0, "{m:?}");
    assert_eq!(
        m.reports_submitted,
        m.reports_accepted + m.duplicates_discarded + m.late_dropped
    );
    assert!(m.ingest_latency.p99() >= m.ingest_latency.p50());
    assert!(m.throughput_rps() > 0.0);
}
