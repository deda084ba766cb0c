//! Machine-readable bench summaries.
//!
//! Each instrumented bench run writes one small JSON file (std-only —
//! no serde) so CI can archive throughput, latency, and determinism
//! numbers as artifacts and diff them across commits. The output
//! directory is `$DPTD_BENCH_JSON_DIR` when set, `target/bench-json`
//! otherwise; each run writes `<dir>/<bench>.json`.
//!
//! The digest field is the run's [`fnv1a_f64s`] weights digest: two
//! commits that disagree on it changed the *numbers*, not just the
//! speed — exactly the regression the equivalence proptests guard, now
//! visible per bench artifact.
//!
//! [`fnv1a_f64s`]: dptd_stats::digest::fnv1a_f64s

use std::io::Write;
use std::path::PathBuf;

use dptd_obs::escape_json;

/// Canonical [`BenchSummary::extras`] key names. Extras are free-form
/// `(key, number)` pairs, but CI diffs artifacts across commits by key,
/// so benches must agree on spelling — take them from here instead of
/// retyping string literals.
pub mod keys {
    /// Concurrent submitter connections held by a fan-in run.
    pub const CONNECTIONS: &str = "connections";
    /// Server I/O threads serving those connections.
    pub const IO_THREADS: &str = "io_threads";
    /// `connections / io_threads` — the reactor's multiplexing factor.
    pub const CONNECTIONS_PER_THREAD: &str = "connections_per_thread";
    /// Uninstrumented (baseline) reports/sec in an overhead A/B run.
    pub const BASELINE_RPS: &str = "baseline_rps";
    /// Instrumented reports/sec in an overhead A/B run.
    pub const INSTRUMENTED_RPS: &str = "instrumented_rps";
    /// Observability overhead as a percentage of baseline throughput
    /// (positive = instrumented run was slower).
    pub const OVERHEAD_PCT: &str = "overhead_pct";
    /// Reports/sec with tracing AND causal context propagation on
    /// (ambient root context entered, so every span derives child ids).
    pub const PROPAGATED_RPS: &str = "propagated_rps";
    /// Context-propagation overhead as a percentage of baseline
    /// throughput (positive = propagated run was slower).
    pub const PROPAGATION_OVERHEAD_PCT: &str = "propagation_overhead_pct";
}

/// One instrumented bench run, reduced to the numbers CI archives.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSummary {
    /// Bench identifier — becomes the JSON file's stem, so keep it to
    /// `[a-z0-9_]`.
    pub bench: String,
    /// Reports driven through the run.
    pub reports: u64,
    /// Wall-clock seconds of the instrumented run.
    pub elapsed_s: f64,
    /// p50 ingest latency in nanoseconds (0 when the path measured has
    /// no per-report latency histogram).
    pub p50_ns: u64,
    /// p99 ingest latency in nanoseconds (0 when not measured).
    pub p99_ns: u64,
    /// FNV-1a digest of the run's final per-user weights — the
    /// determinism witness, serialized as a hex string because JSON
    /// numbers cannot carry 64 bits exactly.
    pub weights_digest: u64,
    /// Bench-specific extra metrics appended to the JSON object as-is
    /// (key → number), e.g. the fan-in bench's `connections` and
    /// `connections_per_thread`. Keys must be `[a-z0-9_]`.
    pub extras: Vec<(String, f64)>,
}

impl BenchSummary {
    /// Reports per second over the instrumented run (0 for an empty or
    /// unmeasured run).
    pub fn reports_per_sec(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.reports as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// Serialize as a single flat JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            concat!(
                "{{\"bench\":\"{}\",\"reports\":{},\"elapsed_s\":{:.6},",
                "\"reports_per_sec\":{:.1},\"p50_ns\":{},\"p99_ns\":{},",
                "\"weights_digest\":\"{:#018x}\""
            ),
            escape_json(&self.bench),
            self.reports,
            self.elapsed_s,
            self.reports_per_sec(),
            self.p50_ns,
            self.p99_ns,
            self.weights_digest,
        );
        for (key, value) in &self.extras {
            out.push_str(&format!(",\"{}\":{:.1}", escape_json(key), value));
        }
        out.push('}');
        out
    }

    /// Write `<dir>/<bench>.json` under `$DPTD_BENCH_JSON_DIR` (default
    /// the workspace's `target/bench-json` — bench binaries run with
    /// the package directory as CWD, so a plain relative path would
    /// scatter files under `crates/bench/`), creating the directory,
    /// and return the path written.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = std::env::var_os("DPTD_BENCH_JSON_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .join("../../target")
                    .join("bench-json")
            });
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.bench));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_json().as_bytes())?;
        file.write_all(b"\n")?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_flat_and_exact() {
        let s = BenchSummary {
            bench: "engine_throughput".to_string(),
            reports: 1_000_000,
            elapsed_s: 2.5,
            p50_ns: 1_000,
            p99_ns: 9_000,
            weights_digest: 0xdead_beef_cafe_f00d,
            extras: Vec::new(),
        };
        assert_eq!(
            s.to_json(),
            "{\"bench\":\"engine_throughput\",\"reports\":1000000,\
             \"elapsed_s\":2.500000,\"reports_per_sec\":400000.0,\
             \"p50_ns\":1000,\"p99_ns\":9000,\
             \"weights_digest\":\"0xdeadbeefcafef00d\"}"
        );
    }

    #[test]
    fn escaping_and_degenerate_rates() {
        let s = BenchSummary {
            bench: "we\"ird\\name".to_string(),
            reports: 5,
            elapsed_s: 0.0,
            p50_ns: 0,
            p99_ns: 0,
            weights_digest: 0,
            extras: vec![("connections".to_string(), 64.0)],
        };
        assert_eq!(s.reports_per_sec(), 0.0);
        assert!(s.to_json().contains("we\\\"ird\\\\name"));
        assert!(
            s.to_json().ends_with(",\"connections\":64.0}"),
            "{}",
            s.to_json()
        );
    }

    #[test]
    fn write_respects_the_env_dir() {
        let dir = std::env::temp_dir().join(format!(
            "dptd-bench-json-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Env vars are process-global; set a throwaway and restore.
        std::env::set_var("DPTD_BENCH_JSON_DIR", &dir);
        let s = BenchSummary {
            bench: "smoke".to_string(),
            reports: 1,
            elapsed_s: 1.0,
            p50_ns: 0,
            p99_ns: 0,
            weights_digest: 7,
            extras: Vec::new(),
        };
        let path = s.write().expect("write summary");
        std::env::remove_var("DPTD_BENCH_JSON_DIR");
        assert_eq!(path, dir.join("smoke.json"));
        let body = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(body.trim_end(), s.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
