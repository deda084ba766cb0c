//! Unified observability for the dptd workspace.
//!
//! Three std-only pieces, shared by the engine, the campaign server and
//! the cluster nodes:
//!
//! * [`hist`] — the log-linear latency [`Histogram`] (HDR-style
//!   power-of-two octaves split into 16 sub-buckets: p50/p90/p99 without
//!   storing samples, ≤ 6.25% relative quantile error, mergeable), its
//!   lock-free [`AtomicHistogram`] twin for concurrent writers, and the
//!   sparse [`HistogramSnapshot`] both export for the wire.
//! * [`registry`] — a [`Registry`] of lock-free [`Counter`]s, [`Gauge`]s
//!   and histograms under hierarchical dotted names
//!   (`server.conn.accepted`, `campaign.<id>.merge_busy_ns`, …), plus
//!   the [`MetricsSnapshot`] dump the serving layers expose over TCP and
//!   the per-campaign **fair-share** view ([`CampaignShare`]) derived
//!   from it.
//! * [`trace`] — fixed-capacity per-thread ring buffers of timestamped
//!   structured events (span begin/end + instants; a small code and one
//!   `u64` argument, no allocation on the hot path), the [`TraceScope`]
//!   RAII guard, Dapper-style causal [`SpanContext`] propagation
//!   (deterministic child span ids, ambient per-thread context, wall
//!   anchors for cross-process merges), and a chrome://tracing-
//!   compatible JSON dump.
//! * [`flight`] — the black-box [`FlightRecorder`]: a bounded ring of
//!   metrics snapshots plus frozen trace rings, dumped as one
//!   self-describing JSON bundle on quarantine, refusal storms, panic,
//!   or shutdown.
//!
//! Observability must never perturb results: nothing in this crate
//! touches the data plane's values, and tracing costs one relaxed
//! atomic load per site while disabled.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod flight;
pub mod hist;
pub mod registry;
pub mod trace;

pub use flight::{escape_json, FlightRecorder};
pub use hist::{AtomicHistogram, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::{names, CampaignShare, Counter, Gauge, MetricValue, MetricsSnapshot, Registry};
pub use trace::{codes, SpanContext, TraceEvent, TraceScope};
