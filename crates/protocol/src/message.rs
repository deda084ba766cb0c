//! The wire protocol between server and users.
//!
//! Note what is *absent*: there is no message variant carrying raw
//! (unperturbed) values. Perturbation happens inside the client before a
//! [`Message::Submit`] is ever constructed, so an adversary observing the
//! transport — or the server itself — only ever sees perturbed data.

use dptd_core::roles::{HyperParameter, PerturbedReport, TaskAssignment};

/// Address of a protocol participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeId {
    /// The aggregation server.
    Server,
    /// User `s`.
    User(usize),
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Server → user: task list plus the public noise hyper-parameter
    /// (steps 1+3 of Algorithm 2).
    Assign {
        /// The micro-tasks the user should perform.
        tasks: TaskAssignment,
        /// The public `λ₂`.
        hyper: HyperParameter,
        /// Submission deadline in simulated microseconds since round
        /// start; reports arriving later are ignored.
        deadline_us: u64,
    },
    /// User → server: the perturbed report (step 5 of Algorithm 2).
    Submit(PerturbedReport),
    /// Server → all: final aggregated results (step 7).
    RoundResult {
        /// Estimated truths per object.
        truths: Vec<f64>,
    },
}

/// A perturbed report stamped with its **epoch** (which wave of objects
/// it belongs to) and its **virtual send time** within that epoch.
///
/// This is the unit of ingestion for the `dptd-engine` streaming
/// aggregator: the epoch routes the report to the right aggregation
/// batch, and the send time lets the server apply the same deadline
/// cut-off the discrete-event simulator applies (`sent_at_us` past the
/// epoch deadline ⇒ the report is dropped as late).
#[derive(Debug, Clone, PartialEq)]
pub struct StampedReport {
    /// Which epoch (object wave) the report answers.
    pub epoch: u64,
    /// Virtual microseconds since the epoch's round started.
    pub sent_at_us: u64,
    /// The perturbed payload (never raw values; see the module docs).
    pub report: PerturbedReport,
}

/// A message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Delivery time in simulated microseconds.
    pub deliver_at_us: u64,
    /// Payload.
    pub payload: Message,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ids_are_distinct() {
        assert_ne!(NodeId::Server, NodeId::User(0));
        assert_ne!(NodeId::User(0), NodeId::User(1));
    }

    #[test]
    fn no_raw_data_variant_exists() {
        // Compile-time documentation: constructing a Submit requires a
        // PerturbedReport — the type name itself enforces the trust
        // boundary. (This test exists to keep the invariant visible; if a
        // raw-data variant is ever added it should be deliberate.)
        let m = Message::Submit(PerturbedReport {
            user: 0,
            values: vec![(0, 1.0)],
        });
        match m {
            Message::Assign { .. } | Message::Submit(_) | Message::RoundResult { .. } => {}
        }
    }
}
