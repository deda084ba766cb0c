//! Multi-node clustering for differentially private truth discovery.
//!
//! One campaign, N nodes: the population is partitioned across `dptd
//! cluster serve` processes by rendezvous hashing, each node buffers and
//! filters its own users' reports, and a coordinator closes every round
//! with a **two-phase barrier** — drain-and-filter on each node
//! (prepare), one deterministic global merge at the coordinator, then a
//! durable per-node commit. Because each user lives on exactly one node
//! and the merge is the shard merge the engine's merger runs — the
//! claims loaded into one reused
//! [`ColumnarBatch`](dptd_truth::columnar::ColumnarBatch), then
//! [`ingest_columnar_with_workers`](dptd_truth::streaming::StreamingCrh::ingest_columnar_with_workers)
//! — an N-node campaign is **bit-identical**
//! — weights digest, truths, per-user debit ledgers — to the same
//! campaign on one node, and to the in-process simulator.
//!
//! * [`partitioner`] — rendezvous (highest-random-weight) user → node
//!   assignment: deterministic, balanced, and minimally disruptive when
//!   a node joins or leaves.
//! * [`node`] — [`NodeServer`]: a partition host speaking the
//!   [`dptd_server::wire`] v2 protocol (`NodeHello`,
//!   `CloseRoundPrepare`/`Commit`, `QueryLedger`, `ReplicateSegment`),
//!   filtering with the engine's `ShardState` and persisting each
//!   committed round to the segmented snapshot store.
//!   Slot hosting — quarantine, the bounded submission queue, spec
//!   admission, durable open, the request envelope — is
//!   [`dptd_server::host`], the same code a campaign server runs; the
//!   node adds the barrier, ledger history and replication.
//! * [`replication`] — [`ReplicationSender`]: streams every committed
//!   store mutation of a primary's WAL directory to a follower node,
//!   which maintains a byte-identical replica directory; failover is
//!   the ordinary crash-recovery path pointed at the replica.
//! * [`coordinator`] — [`ClusterCampaign`]: the client-side coordinator
//!   owning the global estimator and privacy ledger; fans out
//!   create/submit, drives the barrier, and resumes from node ledgers
//!   after a coordinator or node failure.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod coordinator;
pub mod node;
pub mod partitioner;
pub mod replication;

use std::fmt;

pub use coordinator::{
    merge_trace_events, merge_trace_timeline, ClusterCampaign, ClusterRound, ClusterSpec,
    ProcessTrace,
};
pub use node::{NodeConfig, NodeServer};
pub use partitioner::{rendezvous_assignment, rendezvous_map, rendezvous_node};
pub use replication::{ReplicaApplier, ReplicationSender};

/// Errors from the clustering layer.
#[derive(Debug)]
pub enum ClusterError {
    /// A node connection or request failed.
    Server(dptd_server::ServerError),
    /// A protocol-layer failure (partitioning, estimator, budget).
    Protocol(dptd_protocol::ProtocolError),
    /// A durable-store failure on a node.
    Wal(dptd_engine::wal::WalError),
    /// The cluster's geometry is unusable (empty node, mismatched
    /// `NodeHello`, wrong address count).
    Topology(
        /// What is wrong with the topology.
        String,
    ),
    /// The two-phase barrier cannot make progress (nodes disagree about
    /// the epoch, or a re-driven commit diverged from the durable one).
    Barrier(
        /// What the barrier observed.
        String,
    ),
    /// A replicated operation stream violated its sequencing.
    Replication(
        /// What the follower observed.
        String,
    ),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Server(e) => write!(f, "node request failed: {e}"),
            ClusterError::Protocol(e) => write!(f, "protocol failure: {e}"),
            ClusterError::Wal(e) => write!(f, "node store failure: {e}"),
            ClusterError::Topology(why) => write!(f, "unusable cluster topology: {why}"),
            ClusterError::Barrier(why) => write!(f, "round barrier failed: {why}"),
            ClusterError::Replication(why) => write!(f, "replication failed: {why}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Server(e) => Some(e),
            ClusterError::Protocol(e) => Some(e),
            ClusterError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dptd_server::ServerError> for ClusterError {
    fn from(e: dptd_server::ServerError) -> Self {
        ClusterError::Server(e)
    }
}

impl From<dptd_protocol::ProtocolError> for ClusterError {
    fn from(e: dptd_protocol::ProtocolError) -> Self {
        ClusterError::Protocol(e)
    }
}

impl From<dptd_engine::wal::WalError> for ClusterError {
    fn from(e: dptd_engine::wal::WalError) -> Self {
        ClusterError::Wal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_are_send_sync() {
        let e = ClusterError::Barrier("node 2 is two epochs behind".to_string());
        assert!(e.to_string().contains("node 2"));
        let e: ClusterError = dptd_server::ServerError::Busy.into();
        assert!(matches!(e, ClusterError::Server(_)));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ClusterError>();
    }
}
