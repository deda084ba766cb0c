//! Traffic-speed sensing over the full protocol.
//!
//! Run with: `cargo run --example traffic_speed`
//!
//! The paper's §1 motivates GPS-based traffic monitoring where location
//! traces are sensitive. This example runs the crowd-sensing *protocol* —
//! broadcast, local perturbation, lossy network, deadline — over a fleet
//! of vehicles reporting road-segment speeds, on the deterministic
//! discrete-event simulator (with drops and stragglers).

use dptd::prelude::*;
use dptd::protocol::sim::{NetworkConfig, RoundConfig, SimHarness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = dptd::seeded_rng(99);

    // 120 vehicles, 25 road segments, true speeds 30-110 km/h.
    let cfg = SyntheticConfig {
        num_users: 120,
        num_objects: 25,
        lambda1: 0.5, // GPS-derived speeds are fairly noisy
        truth_low: 30.0,
        truth_high: 110.0,
    };
    let dataset = cfg.generate(&mut rng)?;
    let lambda2 = 0.25; // E[noise variance] = 4 (km/h)²

    // --- Discrete-event simulation with an unreliable network ---
    let network = NetworkConfig {
        min_latency_us: 10_000,
        max_latency_us: 120_000,
        drop_probability: 0.10,
    };
    let round = RoundConfig {
        deadline_us: 2_000_000,
        max_think_time_us: 400_000,
        straggler_fraction: 0.05,
        duplicate_probability: 0.02,
    };
    let harness = SimHarness::new(Crh::default(), lambda2, network)?;
    let outcome = harness.run_round(&dataset.observations, &round, &mut rng)?;

    println!("— discrete-event round —");
    println!(
        "participants {}/{} (missing {}), messages {} sent / {} dropped / {} duplicates",
        outcome.participants.len(),
        dataset.num_users(),
        outcome.missing.len(),
        outcome.messages_sent,
        outcome.messages_dropped,
        outcome.duplicates_discarded,
    );
    println!(
        "speed-map MAE vs ground truth: {:.2} km/h (finished at t = {} ms)",
        dptd::stats::summary::mae(&outcome.truths, &dataset.ground_truths)?,
        outcome.finished_at_us / 1000,
    );

    println!(
        "\nNo user ever talked to another user, and the server only ever saw\n\
         perturbed speeds — yet the fleet-wide speed map is accurate."
    );
    Ok(())
}
