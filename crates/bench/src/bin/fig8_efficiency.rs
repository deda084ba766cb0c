//! Figure 8 — efficiency: running time vs noise level.
//!
//! Paper series: truth-discovery wall time on original data (flat
//! reference line) and on perturbed data across noise levels (scatter).
//! Expected shape: perturbed slightly above original, but flat in the
//! noise level — perturbation does not change convergence behaviour.
//!
//! Run with: `cargo run --release -p dptd-bench --bin fig8_efficiency`
//! (the best of five wall-clock runs per point: it reproduces the
//! figure's shape and writes no benchmark summary).

use std::time::Instant;

use dptd_core::mechanism::PrivatePipeline;
use dptd_sensing::synthetic::SyntheticConfig;
use dptd_truth::{crh::Crh, TruthDiscoverer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = dptd_stats::seeded_rng(48);
    // Larger world so the timing is meaningful.
    let cfg = SyntheticConfig {
        num_users: 300,
        num_objects: 2_000,
        ..SyntheticConfig::default()
    };
    let dataset = cfg.generate(&mut rng)?;
    let crh = Crh::default();
    let repeats = 5;

    // Reference: original data.
    let mut best_original = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let out = crh.discover(&dataset.observations)?;
        best_original = best_original.min(t0.elapsed().as_secs_f64());
        assert!(out.converged);
    }
    println!(
        "# Figure 8: efficiency (S = {}, N = {})\n",
        cfg.num_users, cfg.num_objects
    );
    println!(
        "original-data truth discovery: {:.4} s (best of {repeats})\n",
        best_original
    );

    println!("| mean |noise| | runtime (s) | iterations |");
    println!("|---:|---:|---:|");
    for lambda2 in [50.0, 10.0, 4.0, 2.0, 1.0, 0.5] {
        let pipeline = PrivatePipeline::new(crh, lambda2)?;
        let (perturbed, stats) = pipeline.perturb(&dataset.observations, &mut rng);
        let mut best = f64::INFINITY;
        let mut iters = 0;
        for _ in 0..repeats {
            let t0 = Instant::now();
            let out = crh.discover(&perturbed)?;
            best = best.min(t0.elapsed().as_secs_f64());
            iters = out.iterations;
        }
        println!("| {:.4} | {:.4} | {} |", stats.mean_abs_noise, best, iters);
    }
    println!(
        "\nExpected: the perturbed-data rows sit slightly above {best_original:.4}s \
         and do not trend with the noise level."
    );
    Ok(())
}
