//! The noise study: run the whole suite several times back to back on
//! unchanged code and report how far the end-to-end metrics move on
//! their own. The regression bounds in [`crate::spec::END_TO_END`] are
//! taken from its output (`NOISE.md`), not guessed.

use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats;

/// Every `name value unit` metric line of a child's output that names an
/// end-to-end metric.
fn parse_metrics(stdout: &str) -> Vec<(&'static str, f64)> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (name, value) = (parts.next()?, parts.next()?);
            let declared = END_TO_END.iter().find(|m| m.name == name)?;
            Some((declared.name, value.parse().ok()?))
        })
        .collect()
}

/// Run the suite `runs` times, each suite run on its own seed, and print
/// a Markdown report: per workload and metric the median and quartiles
/// over all runs, the spread (interquartile range ÷ median), and the gap
/// between the medians of the even-numbered and the odd-numbered runs —
/// two interleaved sets, so slow drift of the machine lands in both.
pub fn study(runs: usize, seconds: u64, smoke: bool) -> Result<(), String> {
    // samples[workload][metric] = one value per suite run; calib holds
    // the reference kernel's median beside them.
    let mut samples = vec![vec![Vec::<f64>::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut calib = vec![Vec::<String>::new(); WORKLOADS.len()];
    for run in 0..runs {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let extra = crate::child_args(1_000 + run as u64, seconds, smoke);
            eprintln!("noise: run {}/{runs} {}", run + 1, workload.name);
            let stdout = crate::run_child(workload.name, &extra)?;
            calib[w].push(
                stdout
                    .lines()
                    .find_map(|l| l.trim().strip_prefix("calib_ms_p50: "))
                    .unwrap_or("?")
                    .to_string(),
            );
            let metrics = parse_metrics(&stdout);
            for (m, declared) in END_TO_END.iter().enumerate() {
                let (_, value) = metrics
                    .iter()
                    .find(|(name, _)| *name == declared.name)
                    .ok_or_else(|| format!("{} did not print {}", workload.name, declared.name))?;
                samples[w][m].push(*value);
            }
        }
    }

    println!("# e2e_ledger noise study\n");
    println!(
        "{runs} back-to-back runs of the whole suite on unchanged code (`--noise {runs} \
         --seconds {seconds}`{}), seeds 1000–{}; nproc {}. *spread* is the interquartile \
         range over all runs ÷ their median; *gap* is the distance between the medians of the \
         even-numbered and the odd-numbered runs ÷ the even set's median. The benchmark driver \
         accepts a benchmark only if, over ten runs per workload, every spread except \
         `setup_s`'s stays within the metric's bound (a third of it is the target) and no \
         median of a second ten is worse than the first by more than the bound; so a bound \
         must be at least twice the gap and no smaller than the spread, and a spread over a \
         third of its bound is remarked on.\n",
        if smoke { " --smoke" } else { "" },
        999 + runs,
        crate::host::nproc(),
    );
    println!("| workload | metric | median | q1 | q3 | spread | gap | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut misfits = 0;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, declared) in END_TO_END.iter().enumerate() {
            let values = &samples[w][m];
            let (q1, median, q3) = stats::quartiles(values);
            let set = |parity: usize| -> Vec<f64> {
                values
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 2 == parity)
                    .map(|(_, v)| *v)
                    .collect()
            };
            let (even, odd) = (stats::median(&set(0)), stats::median(&set(1)));
            let spread = (q3 - q1) / median;
            let gap = (even - odd).abs() / even;
            // The driver exempts setup_s from the spread rule (it gates
            // only the shift of its median).
            let fits = 2.0 * gap <= declared.bound
                && (declared.name == "setup_s" || spread <= declared.bound);
            let steady = spread <= declared.bound / 3.0;
            if !fits {
                misfits += 1;
            }
            println!(
                "| {} | {} | {:.5} {} | {:.5} | {:.5} | {:.2} % | {:.2} % | {:.0} % | {} |",
                workload.name,
                declared.name,
                median,
                declared.unit,
                q1,
                q3,
                100.0 * spread,
                100.0 * gap,
                100.0 * declared.bound,
                match (fits, steady) {
                    (true, true) => "ok",
                    (true, false) => "ok (spread above a third of the bound)",
                    (false, _) => "DOES NOT FIT",
                },
            );
        }
    }
    println!("\n## Every run\n");
    println!(
        "One value per suite run, in run order. `host.calib_ms_p50` is the reference kernel's \
         median during that run: where it rises, the machine was busy with something else.\n"
    );
    println!("| workload | metric | values |");
    println!("|---|---|---|");
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, declared) in END_TO_END.iter().enumerate() {
            let values: Vec<String> = samples[w][m].iter().map(|v| format!("{v:.5}")).collect();
            println!(
                "| {} | {} | {} |",
                workload.name,
                declared.name,
                values.join(" ")
            );
        }
        println!(
            "| {} | host.calib_ms_p50 | {} |",
            workload.name,
            calib[w].join(" ")
        );
    }
    if misfits == 0 {
        Ok(())
    } else {
        Err(format!(
            "{misfits} workload/metric pairs do not fit their bound"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_parse_and_other_lines_do_not() {
        let out = "e2e_ledger engine_dense seed 1\n  timed_rounds: 64\n  \
                   throughput_rps     873517.8 1/s\n  setup_s  0.25 s\ndigest engine_dense ab\n\
                   {\"correct\": true}\n";
        assert_eq!(
            parse_metrics(out),
            vec![("throughput_rps", 873517.8), ("setup_s", 0.25)]
        );
    }
}
