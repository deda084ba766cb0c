//! Black-box flight recorder: a bounded ring of [`MetricsSnapshot`]s
//! plus frozen copies of the trace rings, dumped as one self-describing
//! JSON bundle when something goes wrong.
//!
//! The recorder is the post-mortem complement to the live metrics
//! plane: `dptd status --watch` shows what is happening *now*, the
//! flight recorder preserves what was happening *just before* a
//! quarantine, a refusal storm, a panic, or shutdown — without anyone
//! having had a terminal open. Processes call
//! [`FlightRecorder::record`] periodically (every status snapshot is a
//! natural beat) and [`FlightRecorder::freeze`] on failure triggers;
//! freeze captures the snapshot ring, the current trace rings, and the
//! per-ring drop counters into `flight-NNNNNN-<trigger>.json` under the
//! configured directory (`--flight-dir`). With no directory configured
//! the recorder costs a bounded in-memory ring and freezes are no-ops —
//! safe to leave wired in always.
//!
//! Bundle format (`"format": "dptd-flight-v1"`): see the README's
//! flight-bundle table; the schema is exercised by the unit tests here
//! and parsed (by string inspection — it is self-describing) by
//! `dptd flight inspect`.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::registry::{MetricValue, MetricsSnapshot};
use crate::trace;

/// Snapshots the in-memory ring retains (oldest evicted first).
pub const DEFAULT_SNAPSHOT_RING: usize = 32;

/// Consecutive typed refusals that count as a storm and trip a freeze.
pub const REFUSAL_STORM_THRESHOLD: u64 = 32;

/// One retained snapshot: why it was taken and the metrics at that
/// moment.
#[derive(Debug, Clone)]
pub struct FlightSnapshot {
    /// What prompted the snapshot (`"periodic"`, `"quarantine"`, …).
    pub reason: String,
    /// Monotonic sequence number within this process.
    pub seq: u64,
    /// The metrics at capture time.
    pub metrics: MetricsSnapshot,
}

struct Inner {
    dir: Option<PathBuf>,
    snapshots: VecDeque<FlightSnapshot>,
    capacity: usize,
}

/// The recorder itself. One global instance (see [`global`]) serves a
/// process; the struct is freestanding so tests can run isolated
/// recorders.
pub struct FlightRecorder {
    inner: Mutex<Inner>,
    next_seq: AtomicU64,
    /// Consecutive typed refusals since the last accept (storm
    /// detector).
    refusal_run: AtomicU64,
    /// Bundles written by this recorder (also the filename counter).
    frozen: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("frozen", &self.frozen.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_SNAPSHOT_RING)
    }
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` snapshots, with no dump
    /// directory yet (freezes are in-memory no-ops until
    /// [`FlightRecorder::set_dir`]).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                dir: None,
                snapshots: VecDeque::new(),
                capacity: capacity.max(1),
            }),
            next_seq: AtomicU64::new(0),
            refusal_run: AtomicU64::new(0),
            frozen: AtomicU64::new(0),
        }
    }

    /// Configure (or clear) the directory freeze bundles are written
    /// to. The directory is created on the first freeze.
    pub fn set_dir(&self, dir: Option<PathBuf>) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .dir = dir;
    }

    /// Whether a dump directory is configured (freezes will write).
    pub fn dir(&self) -> Option<PathBuf> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .dir
            .clone()
    }

    /// Push one snapshot into the bounded ring.
    pub fn record(&self, reason: &str, metrics: MetricsSnapshot) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.snapshots.len() >= inner.capacity {
            inner.snapshots.pop_front();
        }
        inner.snapshots.push_back(FlightSnapshot {
            reason: reason.to_string(),
            seq,
            metrics,
        });
    }

    /// Count one typed refusal toward the storm detector. Returns
    /// `true` exactly when the run of consecutive refusals reaches
    /// [`REFUSAL_STORM_THRESHOLD`] — the caller should then freeze with
    /// trigger `"refusal-storm"` (the run restarts afterwards, so a
    /// sustained storm freezes once per threshold crossing, not per
    /// refusal).
    pub fn note_refusal(&self) -> bool {
        let run = self.refusal_run.fetch_add(1, Ordering::Relaxed) + 1;
        if run >= REFUSAL_STORM_THRESHOLD {
            self.refusal_run.store(0, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Reset the storm detector (an accepted request breaks the run).
    pub fn note_accept(&self) {
        self.refusal_run.store(0, Ordering::Relaxed);
    }

    /// Snapshots currently retained (oldest first).
    pub fn snapshots(&self) -> Vec<FlightSnapshot> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshots
            .iter()
            .cloned()
            .collect()
    }

    /// Render the bundle a freeze would write: the snapshot ring with
    /// `last` appended (the metrics at the moment of failure), the
    /// frozen trace rings, and drop accounting. Pure except for reading
    /// the trace rings.
    pub fn bundle_json(&self, trigger: &str, last: MetricsSnapshot) -> String {
        let mut snapshots = self.snapshots();
        snapshots.push(FlightSnapshot {
            reason: trigger.to_string(),
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            metrics: last,
        });
        let events = trace::collect();
        let dropped = trace::dropped_events();
        let mut out = String::with_capacity(4096);
        out.push_str("{\n\"format\":\"dptd-flight-v1\",\n");
        out.push_str(&format!("\"trigger\":\"{}\",\n", escape_json(trigger)));
        out.push_str(&format!(
            "\"wall_anchor_ns\":{},\n",
            trace::wall_anchor_ns()
        ));
        out.push_str("\"dropped_events\":[");
        for (i, (tid, n)) in dropped.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{tid},{n}]"));
        }
        out.push_str("],\n\"snapshots\":[");
        for (i, snap) in snapshots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"reason\":\"{}\",\"seq\":{},\"metrics\":{}}}",
                escape_json(&snap.reason),
                snap.seq,
                metrics_json(&snap.metrics)
            ));
        }
        out.push_str("\n],\n\"events\":");
        out.push_str(&trace::dump_chrome_json_events(&events, 1));
        out.push_str("\n}\n");
        out
    }

    /// Freeze the black box: write the bundle for `trigger` (with
    /// `last` as its final snapshot) under the configured directory.
    /// Returns the written path, or `None` when no directory is
    /// configured or the write fails (a failing flight dump must never
    /// take the process down with it).
    pub fn freeze(&self, trigger: &str, last: MetricsSnapshot) -> Option<PathBuf> {
        let dir = self.dir()?;
        let bundle = self.bundle_json(trigger, last);
        let n = self.frozen.fetch_add(1, Ordering::Relaxed);
        let name = format!("flight-{n:06}-{}.json", sanitize(trigger));
        let path = dir.join(name);
        if std::fs::create_dir_all(&dir).is_err() {
            return None;
        }
        match std::fs::write(&path, bundle) {
            Ok(()) => Some(path),
            Err(_) => None,
        }
    }
}

/// The process-wide recorder every subsystem shares. Unconfigured (no
/// dump directory) until a server's `--flight-dir` sets one.
pub fn global() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(FlightRecorder::default)
}

/// Chain a panic hook that freezes the global recorder (trigger
/// `"panic"`) before the previous hook runs. Idempotent per process.
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = global().freeze("panic", MetricsSnapshot::new());
            prev(info);
        }));
    });
}

/// Newest flight bundle under `dir` (by the monotonic filename), if
/// any — what `dptd flight dump` prints.
pub fn latest_bundle(dir: &Path) -> Option<PathBuf> {
    let mut bundles: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with(".json"))
        })
        .collect();
    bundles.sort();
    bundles.pop()
}

/// Escape `s` for the inside of a JSON string literal: quote, backslash
/// and newline by their short forms, every other control character as
/// `\u00XX`; everything else, non-ASCII included, passes through as-is.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn metrics_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(snap.entries.len() * 48 + 2);
    out.push('{');
    for (i, (name, value)) in snap.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":", escape_json(name)));
        match value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => out.push_str(&v.to_string()),
            MetricValue::Histogram(h) => {
                out.push_str(&format!(
                    "{{\"count\":{},\"total_ns\":{},\"max_ns\":{},\"buckets\":[",
                    h.count, h.total_ns, h.max_ns
                ));
                for (j, (idx, n)) in h.buckets.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{idx},{n}]"));
                }
                out.push_str("]}");
            }
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_json_covers_quotes_backslashes_controls_and_non_ascii() {
        assert_eq!(
            escape_json("a\"b\\c\nd\x01e\u{1f}f"),
            "a\\\"b\\\\c\\nd\\u0001e\\u001ff"
        );
        assert_eq!(escape_json("µs → ✓"), "µs → ✓");
        assert_eq!(escape_json(""), "");
    }

    fn snap(refused: u64) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.set("server.requests".to_string(), MetricValue::Counter(100));
        s.set(
            "campaign.c.refused.quarantined".to_string(),
            MetricValue::Counter(refused),
        );
        s
    }

    #[test]
    fn snapshot_ring_is_bounded_and_ordered() {
        let rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.record("periodic", snap(i));
        }
        let kept = rec.snapshots();
        assert_eq!(kept.len(), 3, "ring must evict oldest");
        assert_eq!(
            kept.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn refusal_storms_trip_once_per_threshold_run() {
        let rec = FlightRecorder::new(4);
        for _ in 0..REFUSAL_STORM_THRESHOLD - 1 {
            assert!(!rec.note_refusal());
        }
        assert!(rec.note_refusal(), "threshold crossing must trip");
        assert!(!rec.note_refusal(), "run restarts after tripping");
        rec.note_accept();
        assert!(!rec.note_refusal(), "an accept breaks the run");
    }

    #[test]
    fn bundle_is_self_describing_and_ends_with_the_failure_snapshot() {
        let rec = FlightRecorder::new(4);
        rec.record("periodic", snap(0));
        let bundle = rec.bundle_json("quarantine", snap(7));
        assert!(bundle.contains("\"format\":\"dptd-flight-v1\""), "{bundle}");
        assert!(bundle.contains("\"trigger\":\"quarantine\""), "{bundle}");
        assert!(bundle.contains("\"wall_anchor_ns\":"), "{bundle}");
        assert!(bundle.contains("\"events\":["), "{bundle}");
        // The failure snapshot is last and carries the refusal count.
        let last = bundle.rfind("\"reason\":").expect("snapshots present");
        assert!(bundle[last..].contains("quarantine"), "{bundle}");
        assert!(
            bundle[last..].contains("\"campaign.c.refused.quarantined\":7"),
            "{bundle}"
        );
    }

    #[test]
    fn freeze_writes_under_the_configured_dir_only() {
        let rec = FlightRecorder::new(4);
        assert!(
            rec.freeze("shutdown", snap(0)).is_none(),
            "no dir, no write"
        );
        let dir = std::env::temp_dir().join(format!(
            "dptd-flight-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        rec.set_dir(Some(dir.clone()));
        let path = rec.freeze("shutdown", snap(3)).expect("bundle written");
        assert!(path.exists());
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("\"trigger\":\"shutdown\""));
        assert_eq!(latest_bundle(&dir), Some(path.clone()));
        // A second freeze gets a later filename and becomes the latest.
        let path2 = rec.freeze("quarantine", snap(9)).expect("second bundle");
        assert_ne!(path, path2);
        assert_eq!(latest_bundle(&dir), Some(path2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
