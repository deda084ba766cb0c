//! `dptd trace` — run a traced campaign and dump the event timeline.
//!
//! Tracing is process-local (fixed-capacity per-thread rings, see
//! [`dptd_obs::trace`]), so this command generates its own workload: it
//! enables tracing, drives the same in-process campaign as
//! `dptd campaign` (engine backend by default, so the submit → queue →
//! shard → merge → commit spans all fire), then renders what the rings
//! retained. With `--dump` the output is chrome://tracing JSON — open
//! it at `chrome://tracing` or <https://ui.perfetto.dev>; without it, a
//! per-site event summary. `--out <file>` writes the JSON to a file
//! instead of stdout.

use std::fmt::Write as _;

use dptd_obs::trace;

use crate::CliError;

/// Execute `dptd trace [--dump] [--out <file>] [campaign flags…]`.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for malformed flags and
/// [`CliError::Pipeline`] for workload or file-write failures.
pub fn execute(argv: &[String]) -> Result<String, CliError> {
    let (dump, args) = super::dump_switch(argv)?;
    let out_path = args.get("out").map(std::path::PathBuf::from);

    // Drive the traced workload. The rings are process-global, so reset
    // first: the dump should hold exactly this run's events.
    trace::reset();
    trace::set_enabled(true);
    let report = super::campaign::execute(&args);
    trace::set_enabled(false);
    let report = report?;

    let events = trace::collect();
    if !dump {
        return Ok(summarize(&report, &events, &trace::dropped_events()));
    }
    let json = trace::dump_chrome_json();
    let Some(path) = out_path else {
        return Ok(json);
    };
    super::write_json(&path, &json, "trace dump")?;
    Ok(format!(
        "wrote {} trace event(s) to {} (open at chrome://tracing or ui.perfetto.dev)\n",
        events.len(),
        path.display()
    ))
}

/// The non-dump rendering: the campaign report plus per-site event
/// counts, so a bare `dptd trace` is a quick "which stages fired".
fn summarize(report: &str, events: &[trace::TraceEvent], dropped: &[(u64, u64)]) -> String {
    let mut out = String::new();
    out.push_str(report);
    let _ = writeln!(out, "\n# trace — {} event(s) retained\n", events.len());
    // Ring wraps must be loud: a span table that silently lost its
    // oldest events reads like a shorter run.
    if !dropped.is_empty() {
        let total: u64 = dropped.iter().map(|&(_, n)| n).sum();
        let _ = writeln!(
            out,
            "WARNING: {total} event(s) overwritten by ring wrap on {} thread ring(s) — \
             the oldest events are gone\n",
            dropped.len()
        );
    }
    let _ = writeln!(out, "| site | spans | instants |");
    let _ = writeln!(out, "|---|---:|---:|");
    let mut codes: Vec<u32> = events.iter().map(|e| e.code).collect();
    codes.sort_unstable();
    codes.dedup();
    for code in codes {
        let spans = events
            .iter()
            .filter(|e| e.code == code && e.phase == 'B')
            .count();
        let instants = events
            .iter()
            .filter(|e| e.code == code && e.phase == 'i')
            .count();
        let _ = writeln!(
            out,
            "| {} | {spans} | {instants} |",
            trace::codes::name(code)
        );
    }
    let _ = writeln!(out, "\nre-run with --dump for chrome://tracing JSON");
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    const SMALL: &[&str] = &[
        "--users",
        "120",
        "--objects",
        "3",
        "--rounds",
        "2",
        "--shards",
        "2",
    ];

    // Trace rings are process-global: every test that resets, toggles or
    // drains them (here and `cluster trace` in `cluster.rs`) takes this
    // lock so parallel tests cannot clear each other's events.
    pub(crate) static RINGS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn summary_and_dump_cover_the_pipeline_spans() {
        let _rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
        let out = execute(&argv(SMALL)).unwrap();
        assert!(out.contains("weights digest"), "{out}");
        assert!(out.contains("| merge |"), "{out}");
        assert!(out.contains("| round |"), "{out}");

        let json = execute(&argv(&[SMALL, &["--dump"]].concat())).unwrap();
        assert!(json.trim_start().starts_with('['), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        assert!(json.contains("\"name\":\"merge\""), "{json}");
        assert!(json.contains("\"ph\":\"B\""), "{json}");
    }

    /// Dump `SMALL` plus `flags` rooted in a trace of its own and count
    /// the begun spans of each site in it. Campaigns other tests run
    /// meanwhile record into the same global rings, so only this run's
    /// spans count (the digest thread enters the committing thread's
    /// context).
    fn rooted_dump(test: &str, flags: &[&str]) -> impl Fn(&str) -> usize {
        let root = trace::SpanContext::root(test, 0);
        let json = {
            let _ctx = trace::enter(root);
            execute(&argv(&[SMALL, &["--dump"], flags].concat())).unwrap()
        };
        let ours = format!("\"trace\":\"{:016x}\"", root.trace_id);
        move |site: &str| {
            let begin = format!("{{\"name\":\"{site}\",\"ph\":\"B\"");
            json.lines()
                .filter(|l| l.starts_with(&begin) && l.contains(&ours))
                .count()
        }
    }

    #[test]
    fn a_durable_campaign_traces_its_digest_beside_the_commit() {
        let _rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("dptd-trace-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spans = rooted_dump("dptd-trace-digest-test", &["--wal", dir.to_str().unwrap()]);
        // Exactly one commit and one digest per round.
        assert_eq!(spans("commit"), 2);
        assert_eq!(spans("digest"), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_volatile_campaign_traces_one_digest_per_round() {
        let _rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
        let spans = rooted_dump("dptd-trace-volatile-digest-test", &[]);
        // Nothing is logged, and every round's digest is still hashed
        // beside its weight refresh.
        assert_eq!(spans("commit"), 0);
        assert_eq!(spans("digest"), 2);
    }

    #[test]
    fn dump_to_file_reports_the_path() {
        let _rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("dptd-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let out = execute(&argv(
            &[SMALL, &["--dump", "--out", path.to_str().unwrap()]].concat(),
        ))
        .unwrap();
        assert!(out.contains("trace event(s)"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"ph\""), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
