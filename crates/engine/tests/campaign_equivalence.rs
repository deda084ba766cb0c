//! The campaign layer's headline property: a multi-round campaign driven
//! through the sharded streaming engine is **bit-identical** to the same
//! campaign on the in-process sim backend — truths, weights, acceptance,
//! refusals and privacy spend — for any shard count (1/4/16), any worker
//! count (1–8) and 1–10 rounds, under churn, duplicates, stragglers and
//! per-user budget refusal. And a round handed over in pieces — staged
//! batches, then a closing tail — is bit-identical to the same round
//! handed over whole, on either backend.

use proptest::prelude::*;

use dptd_engine::{Engine, EngineBackend, EngineConfig, LoadGen, LoadGenConfig};
use dptd_ldp::PrivacyLoss;
use dptd_protocol::campaign::{
    CampaignConfig, CampaignDriver, DriverRound, RoundBackend, SimBackend,
};
use dptd_protocol::message::StampedReport;
use dptd_protocol::ProtocolError;
use dptd_stats::digest::fnv1a_f64s;
use dptd_truth::Loss;

/// `0..=len` cut at `cuts` points drawn from `seed` (a 64-bit LCG),
/// ascending; repeats and both ends allowed, so empty batches, an empty
/// tail and a round staged whole all occur.
fn cut_points(len: usize, cuts: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut points: Vec<usize> = (0..cuts)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % (len + 1)
        })
        .collect();
    points.sort_unstable();
    points
}

/// Stage `reports` up to each cut point, batch by batch, then close the
/// round over the rest.
fn staged_round<B: RoundBackend>(
    driver: &mut CampaignDriver<B>,
    epoch: u64,
    reports: &[StampedReport],
    cuts: &[usize],
) -> Result<DriverRound, ProtocolError> {
    let mut from = 0;
    for &to in cuts {
        driver.stage(epoch, reports[from..to].to_vec())?;
        from = to;
    }
    driver.run_round(epoch, reports[from..].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sim_and_engine_campaigns_are_bit_identical(
        users in 16usize..48,
        objects in 1usize..4,
        rounds in 1u64..11,
        workers in 1usize..9,
        affordable in 2u32..8,
        dup in 0.0..0.3f64,
        straggle in 0.0..0.3f64,
        churn in 0.0..0.4f64,
        seed in 0u64..1000,
    ) {
        let load = LoadGen::new(LoadGenConfig {
            num_users: users,
            num_objects: objects,
            epochs: rounds,
            duplicate_probability: dup,
            straggler_fraction: straggle,
            churn,
            coverage: 0.8,
            seed,
            ..LoadGenConfig::default()
        }).unwrap();

        let per_round = PrivacyLoss::new(0.4, 0.02).unwrap();
        let config = CampaignConfig {
            num_objects: objects,
            deadline_us: load.config().epoch_len_us,
            per_round_loss: per_round,
            // A budget most users exhaust mid-campaign when rounds >
            // affordable, so the refusal path is part of the equivalence.
            budget: per_round.compose_k(affordable),
        };

        let mut sim = CampaignDriver::new(
            SimBackend::new(users, Loss::Squared).unwrap(),
            config,
        ).unwrap();
        let mut engines: Vec<CampaignDriver<EngineBackend>> = [1usize, 4, 16]
            .into_iter()
            .map(|shards| {
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
                CampaignDriver::new(EngineBackend::new(engine).unwrap(), config).unwrap()
            })
            .collect();

        for epoch in 0..rounds {
            let reports = load.epoch_reports(epoch);
            let sim_round = sim.run_round(epoch, reports.clone());
            let engine_rounds: Vec<_> = engines
                .iter_mut()
                .map(|driver| driver.run_round(epoch, reports.clone()))
                .collect();

            match sim_round {
                Ok(reference) => {
                    for (i, round) in engine_rounds.into_iter().enumerate() {
                        let round = round.unwrap();
                        // DriverRound compares truths, weights, accepted,
                        // refusals, drop counters and max spend — all must
                        // be bit-identical, shard layout and worker count
                        // notwithstanding.
                        prop_assert_eq!(
                            &round, &reference,
                            "engine layout #{} diverged at epoch {}", i, epoch
                        );
                    }
                    for driver in &engines {
                        prop_assert_eq!(
                            driver.accountant(), sim.accountant(),
                            "ledger diverged at epoch {}", epoch
                        );
                    }
                }
                Err(_) => {
                    // Budget exhaustion starved the round: every backend
                    // must agree it failed, leave its estimator untouched
                    // (sim never mutates on error; the engine backend
                    // restores its pre-round checkpoint) and keep the
                    // campaign resumable — so keep comparing rounds.
                    for round in engine_rounds {
                        prop_assert!(round.is_err(), "engines accepted a starved epoch {}", epoch);
                    }
                    for driver in &engines {
                        prop_assert_eq!(driver.accountant(), sim.accountant());
                    }
                }
            }
        }
    }

    #[test]
    fn staged_rounds_equal_one_shot_rounds(
        users in 16usize..48,
        objects in 1usize..4,
        rounds in 1u64..9,
        workers in 1usize..5,
        affordable in 2u32..6,
        dup in 0.0..0.3f64,
        straggle in 0.0..0.3f64,
        churn in 0.0..0.4f64,
        seed in 0u64..1000,
        cuts in 0usize..6,
        cut_seed in 0u64..1000,
    ) {
        let load = LoadGen::new(LoadGenConfig {
            num_users: users,
            num_objects: objects,
            epochs: rounds,
            duplicate_probability: dup,
            straggler_fraction: straggle,
            churn,
            coverage: 0.8,
            seed,
            ..LoadGenConfig::default()
        }).unwrap();
        let per_round = PrivacyLoss::new(0.4, 0.02).unwrap();
        let config = CampaignConfig {
            num_objects: objects,
            deadline_us: load.config().epoch_len_us,
            per_round_loss: per_round,
            // Rounds past `affordable` refuse users, at stage time and at
            // the close, so the refusal path is staged too.
            budget: per_round.compose_k(affordable),
        };

        let mut whole = CampaignDriver::new(
            SimBackend::new(users, Loss::Squared).unwrap(),
            config,
        ).unwrap();
        let mut sim = whole.clone();
        let mut engines: Vec<CampaignDriver<EngineBackend>> = [1usize, 4, 16]
            .into_iter()
            .map(|shards| {
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
                CampaignDriver::new(EngineBackend::new(engine).unwrap(), config).unwrap()
            })
            .collect();

        for epoch in 0..rounds {
            let reports = load.epoch_reports(epoch);
            let cuts = cut_points(reports.len(), cuts, cut_seed ^ epoch);
            let reference = whole.run_round(epoch, reports.clone());
            let sim_round = staged_round(&mut sim, epoch, &reports, &cuts);
            let engine_rounds: Vec<_> = engines
                .iter_mut()
                .map(|driver| staged_round(driver, epoch, &reports, &cuts))
                .collect();
            match reference {
                Ok(reference) => {
                    // DriverRound holds truths, weights, accepted,
                    // refusals, duplicates, late and max spend.
                    prop_assert_eq!(&sim_round.unwrap(), &reference, "sim, epoch {}", epoch);
                    for (i, round) in engine_rounds.into_iter().enumerate() {
                        prop_assert_eq!(
                            &round.unwrap(), &reference,
                            "engine layout #{} diverged at epoch {}", i, epoch
                        );
                    }
                    for driver in &engines {
                        prop_assert_eq!(
                            driver.backend().weights_digest(),
                            fnv1a_f64s(&reference.weights)
                        );
                    }
                }
                Err(_) => {
                    prop_assert!(sim_round.is_err(), "sim accepted a starved epoch {}", epoch);
                    for round in engine_rounds {
                        prop_assert!(round.is_err(), "engines accepted a starved epoch {}", epoch);
                    }
                }
            }
            // Debits, and the refusals they imply, stay bit-equal too.
            prop_assert_eq!(sim.accountant(), whole.accountant());
            for driver in &engines {
                prop_assert_eq!(driver.accountant(), whole.accountant());
            }
        }
    }
}
