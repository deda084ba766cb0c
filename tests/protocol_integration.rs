//! Integration tests for the protocol simulator driving the full pipeline:
//! rounds over lossy networks, deadlines, and the privacy boundary.

use dptd::prelude::*;
use dptd::protocol::sim::{NetworkConfig, RoundConfig, SimHarness};

fn world(users: usize, objects: usize, seed: u64) -> SensingDataset {
    let mut rng = dptd::seeded_rng(seed);
    SyntheticConfig {
        num_users: users,
        num_objects: objects,
        ..Default::default()
    }
    .generate(&mut rng)
    .unwrap()
}

#[test]
fn simulated_round_matches_offline_pipeline_statistically() {
    // A protocol round with a perfect network is the same computation as
    // the offline pipeline: same aggregation on the same kind of
    // perturbed data. Compare MAE-to-truth across several seeds.
    let ds = world(60, 10, 2001);
    let harness = SimHarness::new(Crh::default(), 2.0, NetworkConfig::default()).unwrap();
    let pipeline = PrivatePipeline::new(Crh::default(), 2.0).unwrap();

    let mut protocol_mae = 0.0;
    let mut offline_mae = 0.0;
    let reps = 10;
    for seed in 0..reps {
        let mut rng1 = dptd::seeded_rng(2100 + seed);
        let out = harness
            .run_round(&ds.observations, &RoundConfig::default(), &mut rng1)
            .unwrap();
        protocol_mae += ds.mae_to_truth(&out.truths);

        let mut rng2 = dptd::seeded_rng(2200 + seed);
        let run = pipeline.run(&ds.observations, &mut rng2).unwrap();
        offline_mae += ds.mae_to_truth(&run.perturbed.truths);
    }
    protocol_mae /= reps as f64;
    offline_mae /= reps as f64;
    assert!(
        (protocol_mae - offline_mae).abs() < 0.1,
        "protocol {protocol_mae} vs offline {offline_mae}"
    );
}

#[test]
fn lossy_network_degrades_gracefully() {
    // With 20% message loss the answer quality must stay in the same
    // ballpark — truth discovery only needs coverage, not completeness.
    let ds = world(100, 8, 2002);
    let clean_harness = SimHarness::new(Crh::default(), 5.0, NetworkConfig::default()).unwrap();
    let lossy_harness = SimHarness::new(
        Crh::default(),
        5.0,
        NetworkConfig {
            drop_probability: 0.2,
            ..NetworkConfig::default()
        },
    )
    .unwrap();

    let mut rng = dptd::seeded_rng(2300);
    let clean = clean_harness
        .run_round(&ds.observations, &RoundConfig::default(), &mut rng)
        .unwrap();
    let lossy = lossy_harness
        .run_round(&ds.observations, &RoundConfig::default(), &mut rng)
        .unwrap();

    assert!(lossy.participants.len() < clean.participants.len());
    let clean_mae = ds.mae_to_truth(&clean.truths);
    let lossy_mae = ds.mae_to_truth(&lossy.truths);
    assert!(
        lossy_mae < clean_mae + 0.2,
        "loss degraded too much: {clean_mae} -> {lossy_mae}"
    );
}

#[test]
fn server_never_sees_raw_values_under_noise() {
    // With non-trivial noise, every submitted value differs from the raw
    // measurement (Gaussian noise is continuous — collision probability
    // is zero). This pins the privacy boundary end to end.
    let ds = world(20, 5, 2004);
    let mut rng = dptd::seeded_rng(2500);
    let harness = SimHarness::new(Crh::default(), 1.0, NetworkConfig::default()).unwrap();
    let out = harness
        .run_round(&ds.observations, &RoundConfig::default(), &mut rng)
        .unwrap();
    // Aggregates exist and are finite, but are not any user's raw value.
    for (n, &truth_estimate) in out.truths.iter().enumerate() {
        assert!(truth_estimate.is_finite());
        for (_, raw) in ds.observations.observations_of_object(n) {
            assert_ne!(truth_estimate, raw);
        }
    }
}

#[test]
fn round_with_everything_hostile_still_completes() {
    // Loss + stragglers + duplicates simultaneously.
    let ds = world(150, 12, 2005);
    let harness = SimHarness::new(
        Crh::default(),
        2.0,
        NetworkConfig {
            min_latency_us: 1_000,
            max_latency_us: 200_000,
            drop_probability: 0.15,
        },
    )
    .unwrap();
    let round = RoundConfig {
        deadline_us: 3_000_000,
        max_think_time_us: 500_000,
        straggler_fraction: 0.1,
        duplicate_probability: 0.1,
    };
    let mut rng = dptd::seeded_rng(2600);
    let out = harness
        .run_round(&ds.observations, &round, &mut rng)
        .unwrap();
    assert!(out.participants.len() >= 100);
    assert!(ds.mae_to_truth(&out.truths) < 0.5);
}
