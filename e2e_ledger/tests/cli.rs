//! The benchmark binary end to end: the smoke suite passes and reports
//! every declared metric, and a run that fails a check exits non-zero.

use std::process::{Command, Output};
use std::time::Instant;

fn e2e_ledger(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_e2e_ledger"))
        .args(args)
        .output()
        .expect("run e2e_ledger")
}

/// The `"name"` of every entry of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json.find(&format!("\"{section}\": [")).expect("section");
    let body = &json[start..];
    let body = &body[..body.find("\n  ]").expect("section end")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name end")].to_string())
        .collect()
}

/// The metric names of every result line (the lines that start with `{`).
fn reported(stdout: &str) -> Vec<Vec<String>> {
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\": true"))
        .map(|line| {
            let metrics = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
            metrics
                .split("\": {\"value\"")
                .filter_map(|part| part.rsplit('"').next())
                .filter(|name| !name.is_empty() && !name.contains('}'))
                .map(str::to_string)
                .collect()
        })
        .collect()
}

#[test]
fn smoke_suite_passes_and_reports_every_declared_metric() {
    let workloads = declared("workloads");
    assert_eq!(workloads.len(), 4);
    for (trace, section, budget_s) in [("0", "end_to_end", 15.0), ("1", "per_layer", 60.0)] {
        let t0 = Instant::now();
        let out = e2e_ledger(&["--workload", "all", "--smoke", "--trace", trace]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "smoke --trace {trace} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            t0.elapsed().as_secs_f64() < budget_s,
            "smoke --trace {trace} took {:?}",
            t0.elapsed()
        );
        let lines = reported(&stdout);
        assert_eq!(lines.len(), workloads.len(), "one result line per workload");
        for names in lines {
            assert_eq!(names, declared(section), "--trace {trace}");
        }
        assert!(stdout.contains("all workloads correct"));
    }
}

#[test]
fn a_failed_check_exits_non_zero() {
    for fault in ["wrong-digest", "failed-op"] {
        let out = e2e_ledger(&["--workload", "engine_dense", "--smoke", "--inject", fault]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!out.status.success(), "{fault} went unnoticed:\n{stdout}");
        assert!(stdout.contains("\"correct\": false"), "{fault}:\n{stdout}");
    }
    let clean = e2e_ledger(&["--workload", "engine_dense", "--smoke"]);
    assert!(clean.status.success());
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--trace", "2", "--workload", "engine_dense"],
        &["--seconds", "0", "--workload", "engine_dense"],
        &[],
    ] {
        assert!(!e2e_ledger(args).status.success(), "{args:?} was accepted");
    }
}
