//! `dptd run` — the private truth-discovery pipeline on a simulated world.

use std::fmt::Write as _;

use dptd_core::mechanism::PrivatePipeline;
use dptd_core::report::RunMetrics;
use dptd_sensing::air_quality::AirQualityConfig;
use dptd_sensing::floorplan::FloorplanConfig;
use dptd_sensing::synthetic::SyntheticConfig;
use dptd_sensing::SensingDataset;
use dptd_stats::summary::RunningStats;
use dptd_truth::baselines::{MeanAggregator, MedianAggregator};
use dptd_truth::catd::Catd;
use dptd_truth::crh::{Aggregation, Crh};
use dptd_truth::gtm::Gtm;
use dptd_truth::{Convergence, Loss, TruthDiscoverer};

use crate::args::ArgMap;
use crate::CliError;

/// Execute `dptd run`.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown dataset/algorithm names and
/// propagates pipeline failures.
pub fn execute(args: &ArgMap) -> Result<String, CliError> {
    let (lambda2, lambda2_desc) = super::resolve_lambda2(args)?;
    let replicates = args.u64_or("replicates", 5)?;
    let seed = args.u64_or("seed", 42)?;
    let dataset_kind = args.str_or("dataset", "synthetic").to_string();
    let algorithm = args.str_or("algorithm", "crh").to_string();
    // The synthetic world's shape, resolved whichever dataset runs.
    let synthetic = SyntheticConfig {
        num_users: args.usize_or("users", 150)?,
        num_objects: args.usize_or("objects", 30)?,
        lambda1: args.f64_or("lambda1", 2.0)?,
        ..Default::default()
    };
    args.refuse_unread()?;

    let make_dataset = |rng: &mut rand::rngs::StdRng| -> Result<SensingDataset, CliError> {
        match dataset_kind.as_str() {
            "synthetic" => Ok(synthetic.generate(rng)?),
            "floorplan" => Ok(FloorplanConfig::default().generate(rng)?),
            "air-quality" => Ok(AirQualityConfig::default().generate(rng)?),
            other => Err(CliError::Usage(format!(
                "unknown dataset `{other}` (expected synthetic | floorplan | air-quality)"
            ))),
        }
    };

    // Monomorphise per algorithm through a small helper.
    fn sweep<A: TruthDiscoverer + Copy>(
        algorithm: A,
        lambda2: f64,
        replicates: u64,
        seed: u64,
        make_dataset: impl Fn(&mut rand::rngs::StdRng) -> Result<SensingDataset, CliError>,
    ) -> Result<(RunningStats, RunningStats, RunningStats), CliError> {
        let pipeline = PrivatePipeline::new(algorithm, lambda2)?;
        let mut mae = RunningStats::new();
        let mut noise = RunningStats::new();
        let mut truth_mae = RunningStats::new();
        for rep in 0..replicates {
            let mut rng = dptd_stats::seeded_rng(seed.wrapping_add(rep));
            let ds = make_dataset(&mut rng)?;
            let run = pipeline.run(&ds.observations, &mut rng)?;
            let m = RunMetrics::from_run(&run, Some(&ds.ground_truths))?;
            mae.push(m.utility_mae);
            noise.push(m.mean_abs_noise);
            truth_mae.push(m.truth_mae_perturbed.unwrap_or(f64::NAN));
        }
        Ok((mae, noise, truth_mae))
    }

    let (mae, noise, truth_mae) = match algorithm.as_str() {
        "crh" => sweep(Crh::default(), lambda2, replicates, seed, make_dataset)?,
        "crh-median" => sweep(
            Crh::with_aggregation(
                Loss::NormalizedSquared,
                Convergence::default(),
                Aggregation::WeightedMedian,
            ),
            lambda2,
            replicates,
            seed,
            make_dataset,
        )?,
        "gtm" => sweep(Gtm::default(), lambda2, replicates, seed, make_dataset)?,
        "catd" => sweep(Catd::default(), lambda2, replicates, seed, make_dataset)?,
        "mean" => sweep(
            MeanAggregator::new(),
            lambda2,
            replicates,
            seed,
            make_dataset,
        )?,
        "median" => sweep(
            MedianAggregator::new(),
            lambda2,
            replicates,
            seed,
            make_dataset,
        )?,
        other => {
            return Err(CliError::Usage(format!(
            "unknown algorithm `{other}` (expected crh | crh-median | gtm | catd | mean | median)"
        )))
        }
    };

    let mut out = String::new();
    let _ = writeln!(out, "dataset    : {dataset_kind}");
    let _ = writeln!(out, "algorithm  : {algorithm}");
    let _ = writeln!(out, "noise      : {lambda2_desc}");
    let _ = writeln!(out, "replicates : {replicates} (seed {seed})");
    let _ = writeln!(out);
    let _ = writeln!(out, "| metric | mean | std |");
    let _ = writeln!(out, "|:---|---:|---:|");
    let _ = writeln!(
        out,
        "| utility MAE (A(D) vs A(M(D))) | {:.4} | {:.4} |",
        mae.mean(),
        mae.std_dev()
    );
    let _ = writeln!(
        out,
        "| mean abs noise | {:.4} | {:.4} |",
        noise.mean(),
        noise.std_dev()
    );
    let _ = writeln!(
        out,
        "| MAE vs ground truth (perturbed) | {:.4} | {:.4} |",
        truth_mae.mean(),
        truth_mae.std_dev()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(words: &[&str]) -> ArgMap {
        ArgMap::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn rejects_unknown_dataset_and_algorithm() {
        assert!(execute(&map(&["--dataset", "moonbase"])).is_err());
        assert!(execute(&map(&["--algorithm", "oracle"])).is_err());
    }

    #[test]
    fn runs_every_algorithm_on_small_world() {
        for algo in ["crh", "crh-median", "gtm", "catd", "mean", "median"] {
            let out = execute(&map(&[
                "--algorithm",
                algo,
                "--users",
                "15",
                "--objects",
                "4",
                "--replicates",
                "2",
            ]))
            .unwrap();
            assert!(out.contains("utility MAE"), "{algo}: {out}");
        }
    }

    #[test]
    fn explicit_lambda2_is_reported() {
        let out = execute(&map(&[
            "--lambda2",
            "5.0",
            "--users",
            "10",
            "--objects",
            "3",
            "--replicates",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("explicit"));
    }
}
