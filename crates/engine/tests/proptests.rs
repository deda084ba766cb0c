//! Property tests for the engine's headline guarantees:
//!
//! 1. `StreamingCrh` fed a single batch reproduces batch CRH (one
//!    refinement pass) **bit-for-bit** — the streaming estimator is not a
//!    different algorithm, just an incremental evaluation order.
//! 2. Engine output is **identical across shard counts** (1/4/16) and
//!    worker counts under a fixed seed, and matches the single-shard
//!    `StreamingCrh` reference fed the canonical epoch batches.

use proptest::prelude::*;

use dptd_engine::{Engine, EngineConfig, EngineMetrics, EpochOutcome, LoadGen, LoadGenConfig};
use dptd_truth::crh::Crh;
use dptd_truth::streaming::StreamingCrh;
use dptd_truth::{Convergence, Loss, ObservationMatrix, TruthDiscoverer};

/// Every epoch of `load`, one `run_with_state` call each with the
/// estimator carried: the epochs' outcomes, the final weights and the
/// rounds' metrics summed.
fn run_epochs(engine: &Engine, load: &LoadGen) -> (Vec<EpochOutcome>, Vec<f64>, EngineMetrics) {
    let cfg = engine.config();
    let mut state = StreamingCrh::new(cfg.num_users, cfg.loss).unwrap();
    let mut metrics = EngineMetrics::default();
    let mut epochs = Vec::new();
    for epoch in 0..load.config().epochs {
        let (report, next) = engine
            .run_with_state(state, load.epoch_reports(epoch))
            .unwrap();
        state = next;
        metrics.absorb(&report.metrics);
        epochs.extend(report.epoch);
    }
    (epochs, state.weights().to_vec(), metrics)
}

fn dense_matrix() -> impl Strategy<Value = ObservationMatrix> {
    (2usize..10, 1usize..6).prop_flat_map(|(s, n)| {
        prop::collection::vec(prop::collection::vec(-50.0..50.0f64, n), s).prop_map(move |rows| {
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            ObservationMatrix::from_dense(&refs).expect("valid dims")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn streaming_single_batch_is_one_pass_crh(m in dense_matrix()) {
        // StreamingCrh's ingest is exactly one CRH refinement pass over
        // the batch: its truths equal one-iteration batch CRH bit-for-bit,
        // and its committed weights (losses measured against the refined
        // truths) equal the weights two-iteration batch CRH lands on —
        // same algorithm, incremental evaluation order.
        for loss in [Loss::Squared, Loss::Absolute, Loss::NormalizedSquared] {
            let mut streaming = StreamingCrh::new(m.num_users(), loss).unwrap();
            let streamed = streaming.ingest(&m).unwrap();

            let one_pass = Crh::new(loss, Convergence::new(1e-12, 1).unwrap())
                .discover(&m).unwrap();
            prop_assert_eq!(&streamed, &one_pass.truths, "truths diverged ({:?})", loss);

            let two_pass = Crh::new(loss, Convergence::new(f64::MIN_POSITIVE, 2).unwrap())
                .discover(&m).unwrap();
            prop_assert_eq!(streaming.weights(), two_pass.weights.as_slice(),
                "weights diverged ({:?})", loss);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engine_truths_are_invariant_across_shard_counts(
        users in 16usize..80,
        objects in 1usize..5,
        epochs in 1u64..4,
        seed in 0u64..1000,
        dup in 0.0..0.4f64,
        straggle in 0.0..0.3f64,
    ) {
        let load = LoadGen::new(LoadGenConfig {
            num_users: users,
            num_objects: objects,
            epochs,
            duplicate_probability: dup,
            straggler_fraction: straggle,
            coverage: 0.8,
            seed,
            ..LoadGenConfig::default()
        }).unwrap();

        // Single-shard reference: plain StreamingCrh over the canonical
        // epoch batches.
        let mut reference = StreamingCrh::new(users, Loss::Squared).unwrap();
        let mut ref_truths = Vec::new();
        for e in 0..epochs {
            ref_truths.push(reference.ingest(&load.epoch_matrix(e).unwrap()).unwrap());
        }

        let mut outputs = Vec::new();
        for (shards, workers) in [(1usize, 1usize), (4, 2), (16, 0)] {
            let engine = Engine::new(EngineConfig {
                num_users: users,
                num_objects: objects,
                num_shards: shards,
                workers,
                queue_capacity: 64,
                epoch_deadline_us: load.config().epoch_len_us,
                loss: Loss::Squared,
                merge_workers: 0,
            }).unwrap();
            let (outcomes, final_weights, _) = run_epochs(&engine, &load);
            prop_assert_eq!(outcomes.len() as u64, epochs);
            outputs.push((outcomes, final_weights));
        }

        for (outcomes, final_weights) in &outputs {
            for (e, outcome) in outcomes.iter().enumerate() {
                prop_assert_eq!(&outcome.truths, &ref_truths[e],
                    "shard run diverged from reference at epoch {}", e);
            }
            prop_assert_eq!(final_weights.as_slice(), reference.weights(),
                "final weights diverged from reference");
        }
        // And bit-identical across the three sharding layouts.
        for w in outputs.windows(2) {
            for (a, b) in w[0].0.iter().zip(&w[1].0) {
                prop_assert_eq!(&a.truths, &b.truths);
                prop_assert_eq!(a.accepted, b.accepted);
                prop_assert_eq!(a.duplicates_discarded, b.duplicates_discarded);
                prop_assert_eq!(a.late_dropped, b.late_dropped);
            }
            prop_assert_eq!(&w[0].1, &w[1].1);
        }
    }

    #[test]
    fn engine_accounting_is_conservative(
        users in 16usize..60,
        seed in 0u64..500,
        dup in 0.0..0.5f64,
    ) {
        let load = LoadGen::new(LoadGenConfig {
            num_users: users,
            num_objects: 3,
            epochs: 2,
            duplicate_probability: dup,
            straggler_fraction: 0.2,
            seed,
            ..LoadGenConfig::default()
        }).unwrap();
        let engine = Engine::new(EngineConfig {
            num_users: users,
            num_objects: 3,
            num_shards: 4,
            queue_capacity: 32,
            epoch_deadline_us: load.config().epoch_len_us,
            ..EngineConfig::default()
        }).unwrap();
        let (_, _, m) = run_epochs(&engine, &load);
        // Every submitted report is accounted for exactly once.
        prop_assert_eq!(
            m.reports_submitted,
            m.reports_accepted + m.duplicates_discarded + m.late_dropped,
            "accounting leak: {:?}", m
        );
        prop_assert_eq!(m.epochs_merged, 2);
        prop_assert_eq!(m.ingest_latency.count(), m.reports_submitted);
    }
}
