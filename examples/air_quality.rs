//! Air-quality monitoring campaign — multi-round private sensing.
//!
//! Run with: `cargo run --example air_quality`
//!
//! A city runs a week-long campaign: every day the same 200 phone users
//! sense a different part of the pollution grid. Each round runs the full
//! protocol (broadcast, local perturbation, lossy network, deadline); the
//! server refines user weights across rounds with the streaming
//! estimator, and every user's cumulative `(ε, δ)` cost is tracked via
//! composition.

use dptd::ldp::PrivacyLoss;
use dptd::prelude::*;
use dptd::protocol::sim::{NetworkConfig, RoundConfig, SimHarness};
use dptd::sensing::air_quality::AirQualityConfig;
use dptd::truth::streaming::StreamingCrh;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = dptd::seeded_rng(314);
    let num_users = 200;

    // Privacy per round: Theorem 4.8 at (ε = 1, δ = 0.3), λ₁ = 1.
    let lambda1 = 1.0;
    let sens = SensitivityBound::new(1.5, 0.9, lambda1)?;
    let req = theory::privacy::PrivacyRequirement::new(1.0, 0.3, sens)?;
    let c = theory::privacy::min_noise_level(&req);
    let lambda2 = theory::privacy::lambda2_for_noise_level(lambda1, c)?;
    println!("per-round privacy (1.0, 0.3)-LDP -> lambda2 = {lambda2:.4}\n");

    let harness = SimHarness::new(
        Crh::default(),
        lambda2,
        NetworkConfig {
            drop_probability: 0.05,
            ..NetworkConfig::default()
        },
    )?;
    let mut server = StreamingCrh::new(num_users, Loss::Squared)?;
    let per_round = PrivacyLoss::new(1.0, 0.3)?;

    println!("day | cells | participants | map MAE (ug/m3) | cumulative (eps, delta)");
    for day in 0..5 {
        // Each day covers a fresh 12x12 district of the city.
        let world = AirQualityConfig {
            num_users,
            ..Default::default()
        }
        .generate(&mut rng)?;
        let round = harness.run_round(&world.observations, &RoundConfig::default(), &mut rng)?;
        // The server aggregates the reports that survived the network
        // and the deadline, one row per population member.
        let mut rows = vec![Vec::new(); num_users];
        for report in &round.reports {
            rows[report.user] = report.values.clone();
        }
        let survived = ObservationMatrix::from_sparse_rows(world.num_objects(), &rows)?;
        let truths = server.ingest(&survived)?;
        let mae = dptd::stats::summary::mae(&truths, &world.ground_truths)?;
        let cumulative = per_round.compose_k(day + 1);
        println!(
            "{:>3} | {:>5} | {:>12} | {:>15.3} | ({:.1}, {:.2})",
            day,
            world.num_objects(),
            round.participants.len(),
            mae,
            cumulative.epsilon(),
            cumulative.delta(),
        );
    }

    println!(
        "\nThe pollution map stays accurate every day while each user's privacy\n\
         budget is explicitly accounted across rounds (basic composition)."
    );
    Ok(())
}
