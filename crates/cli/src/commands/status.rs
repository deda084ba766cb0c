//! `dptd status` — the live metrics plane of a running `dptd serve`.
//!
//! Connects to a server, issues a `QueryStatus` frame, and renders the
//! returned [`MetricsSnapshot`] as a per-campaign fair-share table:
//! each campaign's share of total engine busy time, its queue
//! occupancy, ingest latency quantiles, and typed refusal counts. With
//! `--watch true` the table refreshes every `--interval-ms` until stdin
//! reaches EOF, like a minimal `top` for campaigns.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dptd_obs::{names, MetricsSnapshot};
use dptd_server::Client;

use super::box_err;
use crate::args::ArgMap;
use crate::CliError;

/// Execute `dptd status`.
///
/// # Errors
///
/// Returns [`CliError::Usage`] when `--connect` is missing or a flag is
/// malformed, and [`CliError::Pipeline`] for connection failures.
pub fn execute(args: &ArgMap) -> Result<String, CliError> {
    let Some(addr) = args.get("connect") else {
        return Err(CliError::Usage(
            "dptd status needs `--connect <addr>` (a running `dptd serve`)".to_string(),
        ));
    };
    let watch = super::bool_flag(args, "watch", false)?;
    let interval_ms = args.u64_or("interval-ms", 1_000)?;
    // `--format prom` renders the snapshot as Prometheus/OpenMetrics
    // text exposition instead of the human table, so a scraper can do
    // `dptd status --connect … --format prom > metrics.prom` (or a
    // textfile-collector cron can).
    let prom = match args.str_or("format", "table") {
        "table" => false,
        "prom" | "prometheus" | "openmetrics" => true,
        other => {
            return Err(CliError::Usage(format!(
                "flag `--format` expects table|prom, got `{other}`"
            )))
        }
    };
    args.refuse_unread()?;
    let mut client = Client::connect(addr).map_err(box_err)?;
    let view = |addr: &str, snapshot: &MetricsSnapshot| {
        if prom {
            snapshot.prometheus()
        } else {
            render(addr, snapshot)
        }
    };
    if !watch {
        let snapshot = client.query_status().map_err(box_err)?;
        return Ok(view(addr, &snapshot));
    }

    // Watch mode: refresh until stdin reaches EOF (the same stop signal
    // `dptd serve` uses), printing each frame eagerly.
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            super::wait_for_stdin_eof();
            stop.store(true, Ordering::Relaxed);
        })
    };
    let mut last = String::new();
    while !stop.load(Ordering::Relaxed) {
        let snapshot = client.query_status().map_err(box_err)?;
        last = view(addr, &snapshot);
        println!("{last}");
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
    let _ = watcher.join();
    Ok(last)
}

/// Render one snapshot as the status report.
pub(crate) fn render(addr: &str, snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# dptd status — {addr}\n");
    let scalar = |name: &str| snapshot.scalar(name).unwrap_or(0);
    let _ = writeln!(
        out,
        "connections   live {} (accepted {}, refused {}); {} io thread(s)",
        scalar(names::SERVER_CONN_LIVE),
        scalar(names::SERVER_CONN_ACCEPTED),
        scalar(names::SERVER_CONN_REFUSED),
        scalar(names::SERVER_IO_THREADS),
    );
    let _ = writeln!(out, "requests      {}", scalar(names::SERVER_REQUESTS));

    let shares = snapshot.campaign_shares();
    if shares.is_empty() {
        let _ = writeln!(out, "\nno campaigns");
        return out;
    }
    let _ = writeln!(
        out,
        "\n| campaign | share % | queued | submitted | accepted | dropped | rounds \
         | p50 ingest | p99 ingest | busy | budget | wal | quar |"
    );
    let _ = writeln!(
        out,
        "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|"
    );
    for s in &shares {
        let _ = writeln!(
            out,
            "| {} | {:.1} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            s.id,
            s.share * 100.0,
            s.queue_depth,
            s.submitted,
            s.accepted,
            s.dropped,
            s.rounds,
            latency(s.ingest.p50_ns()),
            latency(s.ingest.p99_ns()),
            s.refused_busy,
            s.refused_budget,
            s.refused_wal,
            if s.quarantined { "yes" } else { "-" },
        );
    }
    let total: f64 = shares.iter().map(|s| s.share).sum();
    let _ = writeln!(
        out,
        "\nshare of total engine busy time across {} campaign(s): {:.1}%",
        shares.len(),
        total * 100.0
    );
    out
}

fn latency(ns: Option<u64>) -> String {
    match ns {
        None => "-".to_string(),
        Some(ns) if ns < 1_000 => format!("{ns}ns"),
        Some(ns) if ns < 1_000_000 => format!("{:.1}µs", ns as f64 / 1e3),
        Some(ns) => format!("{:.2}ms", ns as f64 / 1e6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dptd_obs::MetricValue;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn missing_connect_is_usage_error() {
        let err = execute(&ArgMap::parse(&[]).unwrap()).unwrap_err();
        assert!(err.to_string().contains("--connect"), "{err}");
    }

    #[test]
    fn bad_format_flag_is_usage_error() {
        let err = execute(
            &ArgMap::parse(&argv(&["--connect", "127.0.0.1:1", "--format", "xml"])).unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--format"), "{err}");
    }

    #[test]
    fn bad_watch_flag_is_usage_error() {
        let err = execute(
            &ArgMap::parse(&argv(&["--connect", "127.0.0.1:1", "--watch", "maybe"])).unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--watch"), "{err}");
    }

    #[test]
    fn renders_connection_line_and_campaign_table() {
        let mut snapshot = MetricsSnapshot::new();
        snapshot.set(names::SERVER_CONN_LIVE.to_string(), MetricValue::Gauge(2));
        snapshot.set(names::SERVER_REQUESTS.to_string(), MetricValue::Counter(17));
        snapshot.set(
            names::campaign_metric("air", names::MERGE_BUSY_NS),
            MetricValue::Counter(3_000),
        );
        snapshot.set(
            names::campaign_metric("air", names::QUEUE_DEPTH),
            MetricValue::Gauge(5),
        );
        snapshot.set(
            names::campaign_metric("soil", names::MERGE_BUSY_NS),
            MetricValue::Counter(1_000),
        );
        let out = render("127.0.0.1:7878", &snapshot);
        assert!(out.contains("live 2"), "{out}");
        assert!(out.contains("requests      17"), "{out}");
        assert!(out.contains("| air | 75.0 | 5 |"), "{out}");
        assert!(out.contains("| soil | 25.0 |"), "{out}");
        assert!(out.contains("2 campaign(s): 100.0%"), "{out}");
    }

    #[test]
    fn empty_snapshot_renders_no_campaigns() {
        let out = render("x", &MetricsSnapshot::new());
        assert!(out.contains("no campaigns"), "{out}");
    }

    #[test]
    fn latency_units_scale() {
        assert_eq!(latency(None), "-");
        assert_eq!(latency(Some(999)), "999ns");
        assert_eq!(latency(Some(1_500)), "1.5µs");
        assert_eq!(latency(Some(2_000_000)), "2.00ms");
    }
}
