//! `dptd flight` — read back black-box flight recorder bundles.
//!
//! A serving process started with `--flight-dir <dir>` freezes a
//! self-describing JSON bundle there when something goes wrong (a
//! quarantine, a refusal storm, a panic, shutdown — see
//! [`dptd_obs::flight`]). This command is the reader side:
//!
//! * `dptd flight dump    --flight-dir <dir>` prints the newest bundle
//!   verbatim (pipe it to a file, `jq`, or an issue report).
//! * `dptd flight inspect --flight-dir <dir>` prints a short triage
//!   summary — trigger, snapshot reasons oldest → newest, trace-ring
//!   truncation — without drowning the terminal in the full bundle.
//!
//! Both accept `--bundle <path>` to address a specific bundle file
//! instead of the newest one.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::args::ArgMap;
use crate::CliError;

const FLIGHT_USAGE: &str = "\
dptd flight needs a subcommand:

    dptd flight dump     print the newest flight bundle verbatim
        --flight-dir     the directory a serve's --flight-dir pointed at
        --bundle         a specific bundle file (overrides --flight-dir)
    dptd flight inspect  summarize a bundle for triage
        --flight-dir / --bundle as for dump
";

/// Execute `dptd flight <dump|inspect>`.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for a missing/unknown subcommand or no
/// bundle source, and [`CliError::Pipeline`] when the bundle cannot be
/// read.
pub fn execute(argv: &[String]) -> Result<String, CliError> {
    let Some((sub, rest)) = argv.split_first() else {
        return Err(CliError::Usage(FLIGHT_USAGE.to_string()));
    };
    let args = ArgMap::parse(rest)?;
    match sub.as_str() {
        "dump" => {
            let (path, bundle) = load_bundle(&args)?;
            let mut out = String::new();
            let _ = writeln!(out, "# {}", path.display());
            out.push_str(&bundle);
            Ok(out)
        }
        "inspect" => {
            let (path, bundle) = load_bundle(&args)?;
            Ok(inspect(&path, &bundle))
        }
        other => Err(CliError::Usage(format!(
            "unknown flight subcommand `{other}`\n\n{FLIGHT_USAGE}"
        ))),
    }
}

/// Resolve `--bundle` / `--flight-dir` to one bundle's contents.
fn load_bundle(args: &ArgMap) -> Result<(PathBuf, String), CliError> {
    // Both are read before either is used: `--bundle` overrides
    // `--flight-dir`, it does not make it an unknown flag.
    let (bundle, dir) = (args.get("bundle"), args.get("flight-dir"));
    args.refuse_unread()?;
    let path = if let Some(bundle) = bundle {
        PathBuf::from(bundle)
    } else if let Some(dir) = dir {
        let dir = PathBuf::from(dir);
        dptd_obs::flight::latest_bundle(&dir).ok_or_else(|| {
            CliError::Usage(format!(
                "no flight-*.json bundles under {} — nothing has been frozen there (yet)",
                dir.display()
            ))
        })?
    } else {
        return Err(CliError::Usage(
            "dptd flight needs `--flight-dir <dir>` (a serve's dump directory) or \
             `--bundle <file>`"
                .to_string(),
        ));
    };
    let bundle = std::fs::read_to_string(&path).map_err(|e| {
        CliError::Pipeline(Box::new(std::io::Error::new(
            e.kind(),
            format!("reading flight bundle {}: {e}", path.display()),
        )))
    })?;
    Ok((path, bundle))
}

/// The triage summary. The bundle is self-describing line-oriented
/// JSON (`dptd-flight-v1`), so this reads it by field inspection — no
/// JSON parser in the workspace and none needed.
fn inspect(path: &std::path::Path, bundle: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# dptd flight inspect — {}\n", path.display());
    let field = |key: &str| -> Option<String> {
        let tag = format!("\"{key}\":\"");
        let start = bundle.find(&tag)? + tag.len();
        let end = bundle[start..].find('"')? + start;
        Some(bundle[start..end].to_string())
    };
    let _ = writeln!(
        out,
        "format       {}",
        field("format").unwrap_or_else(|| "(missing)".to_string())
    );
    let _ = writeln!(
        out,
        "trigger      {}",
        field("trigger").unwrap_or_else(|| "(missing)".to_string())
    );

    // Snapshot ring: every `"reason":"…"` in order, oldest first — the
    // last one is the metrics at the moment of the freeze.
    let reasons: Vec<&str> = bundle
        .match_indices("\"reason\":\"")
        .filter_map(|(at, tag)| {
            let start = at + tag.len();
            bundle[start..]
                .find('"')
                .map(|end| &bundle[start..start + end])
        })
        .collect();
    let _ = writeln!(out, "snapshots    {} (oldest first)", reasons.len());
    for (i, reason) in reasons.iter().enumerate() {
        let marker = if i + 1 == reasons.len() {
            "  <- at freeze"
        } else {
            ""
        };
        let _ = writeln!(out, "  [{i}] {reason}{marker}");
    }

    // Trace ring truncation: `"dropped_events":[[tid,n],…]`.
    if let Some(start) = bundle.find("\"dropped_events\":[") {
        let start = start + "\"dropped_events\":[".len();
        if let Some(end) = bundle[start..].find(']') {
            let inner = &bundle[start..start + end];
            if inner.trim().is_empty() {
                let _ = writeln!(out, "trace rings  no events dropped");
            } else {
                let _ = writeln!(
                    out,
                    "trace rings  dropped {inner}  (tid, events overwritten)"
                );
            }
        }
    }
    let events = bundle.matches("\"ph\":\"").count();
    let _ = writeln!(out, "trace events {events}");
    let _ = writeln!(out, "\nre-run as `dptd flight dump` for the full bundle");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dptd_obs::{FlightRecorder, MetricValue, MetricsSnapshot};

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dptd-flight-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn missing_subcommand_and_source_are_usage_errors() {
        assert!(execute(&[]).unwrap_err().to_string().contains("subcommand"));
        assert!(execute(&argv(&["replay"]))
            .unwrap_err()
            .to_string()
            .contains("unknown flight subcommand"));
        assert!(execute(&argv(&["dump"]))
            .unwrap_err()
            .to_string()
            .contains("--flight-dir"));
    }

    #[test]
    fn empty_dir_reports_nothing_frozen() {
        let dir = temp_dir("empty");
        let err = execute(&argv(&["dump", "--flight-dir", dir.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("nothing has been frozen"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_and_inspect_read_a_frozen_bundle() {
        let dir = temp_dir("frozen");
        let rec = FlightRecorder::new(4);
        rec.set_dir(Some(dir.clone()));
        let mut periodic = MetricsSnapshot::new();
        periodic.set("server.requests".to_string(), MetricValue::Counter(10));
        rec.record("status", periodic);
        let mut at_freeze = MetricsSnapshot::new();
        at_freeze.set(
            "campaign.c.refused.quarantined".to_string(),
            MetricValue::Counter(3),
        );
        rec.freeze("quarantine", at_freeze).expect("bundle written");

        let dump = execute(&argv(&["dump", "--flight-dir", dir.to_str().unwrap()])).unwrap();
        assert!(dump.contains("\"format\":\"dptd-flight-v1\""), "{dump}");
        assert!(dump.contains("\"trigger\":\"quarantine\""), "{dump}");

        let inspect = execute(&argv(&["inspect", "--flight-dir", dir.to_str().unwrap()])).unwrap();
        assert!(inspect.contains("trigger      quarantine"), "{inspect}");
        assert!(inspect.contains("[0] status"), "{inspect}");
        assert!(
            inspect.contains("[1] quarantine  <- at freeze"),
            "{inspect}"
        );

        // `--bundle` addresses the same file directly.
        let bundle = dptd_obs::flight::latest_bundle(&dir).unwrap();
        let direct = execute(&argv(&["inspect", "--bundle", bundle.to_str().unwrap()])).unwrap();
        assert_eq!(direct, inspect);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
