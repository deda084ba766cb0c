//! `dptd engine` — drive the sharded streaming aggregation engine with a
//! synthetic open-loop load and report throughput/latency/accuracy.

use std::fmt::Write as _;

use dptd_engine::{ArrivalProcess, Engine, EngineConfig, LoadGen, LoadGenConfig};
use dptd_stats::summary::mae;
use dptd_truth::Loss;

use crate::args::ArgMap;
use crate::CliError;

/// Execute `dptd engine`.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for an unknown arrival pattern or invalid
/// sizes, and propagates engine failures.
pub fn execute(args: &ArgMap) -> Result<String, CliError> {
    let (lambda2, lambda2_desc) = super::resolve_lambda2(args)?;

    let arrival = match args.str_or("pattern", "poisson") {
        "poisson" => ArrivalProcess::Poisson,
        "bursty" => ArrivalProcess::Bursty {
            burst_size: args.usize_or("burst-size", 64)?,
            idle_gap_us: args.u64_or("idle-gap-us", 50_000)?,
        },
        "diurnal" => ArrivalProcess::Diurnal {
            periods: args.u64_or("periods", 2)? as u32,
        },
        other => {
            return Err(CliError::Usage(format!(
                "unknown pattern `{other}` (expected poisson | bursty | diurnal)"
            )))
        }
    };

    let load_cfg = LoadGenConfig {
        num_users: args.usize_or("users", 10_000)?,
        num_objects: args.usize_or("objects", 8)?,
        epochs: args.u64_or("epochs", 5)?,
        lambda2,
        coverage: args.f64_or("coverage", 1.0)?,
        duplicate_probability: args.f64_or("dup", 0.01)?,
        straggler_fraction: args.f64_or("straggler", 0.01)?,
        arrival,
        seed: args.u64_or("seed", 42)?,
        ..LoadGenConfig::default()
    };
    let load = LoadGen::new(load_cfg).map_err(box_engine_err)?;

    let engine_cfg = EngineConfig {
        num_users: load_cfg.num_users,
        num_objects: load_cfg.num_objects,
        num_shards: args.usize_or("shards", 8)?,
        workers: args.usize_or("workers", 0)?,
        queue_capacity: args.usize_or("queue-capacity", 4_096)?,
        epoch_deadline_us: load_cfg.epoch_len_us,
        loss: Loss::Squared,
        merge_workers: args.usize_or("merge-workers", 0)?,
    };
    let engine = Engine::new(engine_cfg).map_err(box_engine_err)?;
    let report = engine.run(load.stream()).map_err(box_engine_err)?;

    let mut out = String::new();
    let _ = writeln!(out, "# dptd engine — sharded streaming aggregation\n");
    let _ = writeln!(out, "{lambda2_desc}");
    let _ = writeln!(
        out,
        "population {} users × {} objects × {} epochs, {} shards, {} workers (0 = auto)\n",
        load_cfg.num_users,
        load_cfg.num_objects,
        load_cfg.epochs,
        engine_cfg.num_shards,
        engine_cfg.workers,
    );

    let _ = writeln!(
        out,
        "| epoch | accepted | dup | late | truth MAE | shard drift (unweighted shard means vs merged truths) |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|---:|");
    for outcome in &report.epochs {
        let truth_mae = mae(&outcome.truths, &load.ground_truths(outcome.epoch))
            .map(|v| format!("{v:.4}"))
            .unwrap_or_else(|_| "n/a".to_string());
        let drift = outcome
            .shard_drift
            .map(|d| format!("{d:.4}"))
            .unwrap_or_else(|| "n/a".to_string());
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} |",
            outcome.epoch,
            outcome.accepted,
            outcome.duplicates_discarded,
            outcome.late_dropped,
            truth_mae,
            drift,
        );
    }

    let _ = writeln!(out, "\n{}", report.metrics.render());
    Ok(out)
}

fn box_engine_err(e: dptd_engine::EngineError) -> CliError {
    CliError::Pipeline(Box::new(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(words: &[&str]) -> ArgMap {
        ArgMap::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn engine_smoke_run() {
        let out = execute(&map(&[
            "--users",
            "200",
            "--objects",
            "4",
            "--epochs",
            "2",
            "--shards",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("truth MAE"), "output: {out}");
        assert!(out.contains("throughput"), "output: {out}");
    }

    #[test]
    fn all_patterns_accepted() {
        for pattern in ["poisson", "bursty", "diurnal"] {
            let out = execute(&map(&[
                "--users",
                "120",
                "--objects",
                "3",
                "--epochs",
                "1",
                "--pattern",
                pattern,
            ]))
            .unwrap();
            assert!(out.contains("epochs merged"), "pattern {pattern}: {out}");
        }
    }

    #[test]
    fn unknown_pattern_is_usage_error() {
        let err = execute(&map(&["--pattern", "lunar"])).unwrap_err();
        assert!(err.to_string().contains("unknown pattern"));
    }
}
