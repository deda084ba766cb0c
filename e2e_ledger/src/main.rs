//! `e2e_ledger` — the repo's benchmark.
//!
//! ```text
//! e2e_ledger --workload <name|all> [--seed <u64>] [--seconds <n>]
//!            [--trace 0|1] [--smoke]
//! e2e_ledger --noise <n> [--seconds <n>] [--smoke]
//! e2e_ledger --print-benchmark-json
//! ```
//!
//! A single workload prints every metric by name and unit, writes its
//! result file under `target/bench-json/`, and ends on one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. The
//! process exits non-zero when any check failed. See `README.md`.

mod host;
mod json;
mod noise;
mod run;
mod scratch;
mod spec;
mod stats;
mod trace;
mod worlds;

use std::process::ExitCode;

use json::Metric;
use run::{Inject, RunOptions, RunReport};
use scratch::Scratch;
use spec::{Workload, RUN_SECONDS, SAME_DIGEST, WORKLOADS};

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    noise: Option<usize>,
    inject: Option<Inject>,
    setup_world: Option<usize>,
    print_benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        noise: None,
        inject: None,
        setup_world: None,
        print_benchmark_json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let number = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} takes a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => {
                args.seconds = number("--seconds", value("--seconds")?)?;
                if args.seconds == 0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--noise" => {
                let n = number("--noise", value("--noise")?)? as usize;
                if n < 2 {
                    return Err("--noise needs at least 2 suite runs".to_string());
                }
                args.noise = Some(n);
            }
            "--smoke" => args.smoke = true,
            "--inject" => {
                args.inject = Some(match value("--inject")?.as_str() {
                    "wrong-digest" => Inject::WrongDigest,
                    "failed-op" => Inject::FailedOp,
                    other => return Err(format!("unknown fault `{other}`")),
                })
            }
            "--setup-world" => {
                args.setup_world = Some(number("--setup-world", value("--setup-world")?)? as usize)
            }
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.print_benchmark_json {
        print!("{}", spec::benchmark_json());
        Ok(())
    } else if let Some(runs) = args.noise {
        noise::study(runs, args.seconds, args.smoke)
    } else {
        match args.workload.as_deref() {
            None => Err("--workload <name|all> is required".to_string()),
            Some("all") => run_all(&args),
            Some(name) => match spec::workload(name) {
                Some(w) => run_one(w, &args),
                None => Err(format!(
                    "unknown workload `{name}` (one of: all, {})",
                    WORKLOADS.map(|w| w.name).join(", ")
                )),
            },
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e_ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The contract's result line.
fn result_line(report: &RunReport) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.errors.is_empty(),
        report.attempted,
        report.failed,
        json::metrics_object(&report.metrics)
    )
}

/// The result file: the result line's fields plus provenance.
fn result_file(
    workload: &Workload,
    args: &Args,
    report: &RunReport,
    provenance: &host::Provenance,
) -> String {
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json::string(k), json::string(v)))
        .collect();
    let errors: Vec<String> = report.errors.iter().map(|e| json::string(e)).collect();
    let series: Vec<String> = report
        .series
        .iter()
        .map(|(k, values)| {
            let values: Vec<String> = values.iter().map(f64::to_string).collect();
            format!("{}: [{}]", json::string(k), values.join(", "))
        })
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"smoke\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"errors\": [{}],\n  \"weights_digest\": \"{:016x}\",\n  \"metrics\": {},\n  \
         \"notes\": {{{}}},\n  \"series\": {{{}}},\n  \"host\": {{\"nproc\": {}, \"scratch_fs\": {}, \"rustc\": {}, \
         \"git_commit\": {}}}\n}}\n",
        json::string(workload.name),
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        report.errors.is_empty(),
        report.attempted,
        report.failed,
        errors.join(", "),
        report.weights_digest,
        json::metrics_object(&report.metrics),
        notes.join(", "),
        series.join(", "),
        provenance.nproc,
        json::string(&provenance.scratch_fs),
        json::string(&provenance.rustc),
        json::string(&provenance.git_commit),
    )
}

fn print_metrics(metrics: &[Metric]) {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in metrics {
        println!("  {:width$}  {} {}", m.name, m.value, m.unit);
    }
}

fn run_one(workload: &Workload, args: &Args) -> Result<(), String> {
    let scratch = Scratch::create(workload.name)?;
    // A set-up sample taken for another run has no result file of its
    // own, so it skips the provenance that file records.
    let provenance = args
        .setup_world
        .is_none()
        .then(|| host::Provenance::collect(scratch.path(), scratch::crate_dir()));
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        inject: args.inject,
        setup_world: args.setup_world,
    };
    let results = scratch::results_dir();
    std::fs::create_dir_all(&results).map_err(|e| format!("create results dir: {e}"))?;

    println!(
        "e2e_ledger {} seed {} seconds {} trace {} smoke {}",
        workload.name, args.seed, args.seconds, args.trace as u8, args.smoke
    );
    if let Some(p) = &provenance {
        println!(
            "host: nproc {} scratch_fs {} {} commit {}",
            p.nproc, p.scratch_fs, p.rustc, p.git_commit
        );
    }
    let report = if args.trace {
        trace::run(workload, opts, &scratch, &results)
    } else {
        run::run(workload, opts, &scratch)
    };
    for (key, value) in &report.notes {
        println!("  {key}: {value}");
    }
    print_metrics(&report.metrics);
    println!("digest {} {:016x}", workload.name, report.weights_digest);
    for e in &report.errors {
        println!("FAILED: {e}");
    }

    if let Some(provenance) = &provenance {
        let suffix = if args.trace { "-layers" } else { "" };
        let path = results.join(format!("{}{suffix}.json", workload.name));
        std::fs::write(&path, result_file(workload, args, &report, provenance))
            .map_err(|e| format!("write `{}`: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }

    // Remove the scratch before the verdict: `ExitCode` return runs no
    // destructors of its own past this frame.
    drop(scratch);
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", bad.name));
    }
    println!("{}", result_line(&report));
    if report.errors.is_empty() {
        Ok(())
    } else {
        Err(format!("{} failed its checks", workload.name))
    }
}

/// The arguments every re-execution of this binary passes on.
pub fn child_args(seed: u64, seconds: u64, smoke: bool) -> Vec<String> {
    let mut args = vec![
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
    ];
    if smoke {
        args.push("--smoke".to_string());
    }
    args
}

/// Re-run this binary for one workload, echoing its output, and return
/// what it printed. Every workload gets a process of its own so peak RSS
/// and allocator state never depend on what ran before.
pub fn run_child(workload: &str, extra: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(extra)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        print!("{stdout}");
        return Err(format!("{workload} exited with {}", output.status));
    }
    Ok(stdout)
}

/// The `digest <workload> <hex>` line of a child's output.
pub fn digest_of(stdout: &str) -> Option<&str> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .and_then(|rest| rest.split_whitespace().nth(1))
}

fn run_all(args: &Args) -> Result<(), String> {
    let mut extra = child_args(args.seed, args.seconds, args.smoke);
    extra.extend(["--trace".to_string(), (args.trace as u8).to_string()]);
    let mut digests = Vec::new();
    for w in &WORKLOADS {
        let stdout = run_child(w.name, &extra)?;
        print!("{stdout}");
        if SAME_DIGEST.contains(&w.name) {
            let digest = digest_of(&stdout)
                .ok_or_else(|| format!("{} printed no digest", w.name))?
                .to_string();
            digests.push((w.name, digest));
        }
    }
    println!(
        "all workloads correct; dense weights digest {}",
        same_digest(&digests)?
    );
    Ok(())
}

/// The one digest every listed workload reported.
fn same_digest(digests: &[(&str, String)]) -> Result<String, String> {
    let (first, expected) = digests.first().ok_or("no digests to compare")?;
    match digests.iter().find(|(_, d)| d != expected) {
        None => Ok(expected.clone()),
        Some((name, digest)) => Err(format!(
            "{name} holds digest {digest}, {first} holds {expected}: workloads on the same \
             stream must agree"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_must_agree() {
        let same = [("a", "1f".to_string()), ("b", "1f".to_string())];
        assert_eq!(same_digest(&same), Ok("1f".to_string()));
        let differ = [("a", "1f".to_string()), ("b", "2e".to_string())];
        assert!(same_digest(&differ)
            .unwrap_err()
            .contains("b holds digest 2e"));
        assert!(same_digest(&[]).is_err());
    }

    #[test]
    fn arguments_parse() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload served_sparse --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("served_sparse"));
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, 10, true, false));
        assert!(parse_args(&argv("--seed x")).is_err());
        assert!(parse_args(&argv("--noise 1")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
        assert_eq!(digest_of("x\ndigest engine_dense 00ff\n"), Some("00ff"));
    }
}
