//! Sharded streaming aggregation engine for million-user crowd sensing.
//!
//! The paper's deployment story is an untrusted server aggregating
//! perturbed reports from a huge, unsynchronised population. The protocol
//! crate demonstrates correctness at small scale (a discrete-event
//! simulator that re-runs truth discovery per round); this crate is the
//! **scale path**: reports are ingested as a
//! stream, hashed across shards, de-duplicated and deadline-filtered in
//! parallel, and folded **incrementally** into a
//! [`dptd_truth::streaming::StreamingCrh`] — per epoch, not per rerun.
//!
//! * [`engine`] — the [`Engine`]: one ingest path that stages each batch
//!   of an epoch into shards that copy accepted claims into columnar
//!   arenas ([`shard`], the round filter a cluster node runs too) — on
//!   the caller, or fanned out over runs of shards for a large batch —
//!   and a deterministic cross-shard merge whose truths are
//!   bit-identical for any shard count, worker count or batch split.
//!   Population-sized scratch lives as long as the engine, not the round.
//! * [`loadgen`] — a deterministic open-loop load generator (Poisson,
//!   bursty and diurnal arrival processes on a virtual event clock — no
//!   thread per user) that can synthesise millions of stamped reports.
//! * [`metrics`] — [`EngineMetrics`]: throughput, p50/p99 ingest latency,
//!   duplicate/late drop counters.
//! * [`backend`] — [`EngineBackend`]: adapts the engine to the protocol
//!   crate's campaign layer, executing each multi-round campaign round as
//!   one engine epoch with carried-over weights and accumulated metrics.
//! * [`wal`] — the epoch write-ahead log: checksummed, length-prefixed
//!   [`EpochRecord`]s, and the single-segment [`WalWriter`] that appends
//!   them through the store's filesystem seam ([`store::StoreFs`]).
//! * [`codec`] — the one payload codec: the log's records, the store's
//!   manifest and the server's wire frames are declared with its field
//!   kinds.
//! * [`store`] — the segmented snapshot store: [`SegmentStore`] rotates
//!   sealed segments under an atomically-rewritten manifest, and its
//!   compactor writes full-state snapshot records then garbage-collects
//!   everything they cover, bounding disk and recovery time for
//!   long-running campaigns.
//! * [`recovery`] — [`recovery::recover_replay`]/[`RecoveredState`]:
//!   replay a log to rebuild the carried estimator and the per-user
//!   budget ledger bit-identically after a crash, seeking to the newest
//!   snapshot when the log is segmented.
//!
//! # Example
//!
//! ```
//! use dptd_engine::{Engine, EngineConfig, LoadGen, LoadGenConfig};
//! use dptd_truth::streaming::StreamingCrh;
//! use dptd_truth::Loss;
//!
//! # fn main() -> Result<(), dptd_engine::EngineError> {
//! let load = LoadGen::new(LoadGenConfig {
//!     num_users: 120,
//!     num_objects: 4,
//!     epochs: 3,
//!     ..LoadGenConfig::default()
//! })?;
//! let engine = Engine::new(EngineConfig {
//!     num_users: 120,
//!     num_objects: 4,
//!     num_shards: 4,
//!     ..EngineConfig::default()
//! })?;
//! // One round per epoch, the estimator carried from each to the next.
//! let mut state = StreamingCrh::new(120, Loss::Squared)?;
//! for epoch in 0..3 {
//!     let (report, next) = engine.run_with_state(state, load.epoch_reports(epoch))?;
//!     assert_eq!(report.epoch.map(|outcome| outcome.epoch), Some(epoch));
//!     assert_eq!(report.final_weights.len(), 120);
//!     state = next;
//! }
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod backend;
pub mod codec;
pub mod engine;
pub mod loadgen;
pub mod metrics;
pub mod recovery;
pub mod shard;
pub mod store;
pub mod wal;

use std::fmt;

pub use backend::EngineBackend;
pub use engine::{Engine, EngineConfig, EngineReport, EpochOutcome};
pub use loadgen::{ArrivalProcess, LoadGen, LoadGenConfig};
pub use metrics::EngineMetrics;
pub use recovery::RecoveredState;
pub use store::{ObservedFs, SegmentStore, StoreConfig, StoreObserver};
pub use wal::{
    EpochRecord, FileWal, MemWal, RecordKind, RecordLog, RoundRecord, WalError, WalLock, WalPolicy,
    WalWriter,
};

/// Error type for the aggregation engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A configuration parameter was outside its domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Rejected value.
        value: f64,
        /// The constraint that failed.
        constraint: &'static str,
    },
    /// A report named a user outside the configured population.
    InvalidUser {
        /// The offending user id.
        user: usize,
        /// The population size.
        num_users: usize,
    },
    /// An aggregation failure (e.g. an epoch with an uncovered object).
    Truth(dptd_truth::TruthError),
    /// A write-ahead-log failure (I/O, corruption, or an inconsistent
    /// replay).
    Wal(wal::WalError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(f, "invalid engine parameter {name} = {value}: {constraint}"),
            EngineError::InvalidUser { user, num_users } => {
                write!(
                    f,
                    "report from user {user} outside population of {num_users}"
                )
            }
            EngineError::Truth(e) => write!(f, "aggregation failed: {e}"),
            EngineError::Wal(e) => write!(f, "write-ahead log failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Truth(e) => Some(e),
            EngineError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dptd_truth::TruthError> for EngineError {
    fn from(e: dptd_truth::TruthError) -> Self {
        EngineError::Truth(e)
    }
}

impl From<wal::WalError> for EngineError {
    fn from(e: wal::WalError) -> Self {
        EngineError::Wal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_propagate() {
        let e = EngineError::InvalidUser {
            user: 9,
            num_users: 4,
        };
        assert!(e.to_string().contains('9'));
        let e: EngineError = dptd_truth::TruthError::EmptyMatrix.into();
        assert!(matches!(e, EngineError::Truth(_)));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineError>();
    }
}
