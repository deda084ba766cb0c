//! Multi-campaign network service for differentially private truth
//! discovery.
//!
//! The paper's deployment story is a cloud server aggregating perturbed
//! reports from millions of phones; this crate is that serving layer,
//! std-only and feature-gate-free. One process hosts **many concurrent
//! campaigns** behind a real TCP wire protocol:
//!
//! * [`wire`] — the length-prefixed, checksummed binary protocol
//!   (golden-pinned v2 layout): `CreateCampaign`, batched
//!   `SubmitReports`, `CloseRound`, `QueryTruths`, `QueryBudget`, typed
//!   error replies. Each frame is declared once, as a row of a field-list
//!   table from which its kind byte, exact length, encoder and decoder
//!   are derived; the frame cap is enforced on the way out as well as in
//!   ([`Request::try_encode`]), so neither side sends a frame its peer
//!   must refuse.
//! * [`host`] — campaign-slot **hosting**, shared with the cluster node
//!   (`dptd-cluster` builds its `NodeServer` on it) and the only owner
//!   of five policies: the slot map with its cap and quarantine
//!   ([`host::Host`], slot state reachable only through
//!   [`host::Host::with`]); the **bounded** submission queue with one
//!   round of lookahead and explicit `Busy` backpressure
//!   ([`host::SubmissionQueue`] — a host never buffers unboundedly);
//!   spec admission ([`host::admit`], population cap included); the
//!   durable open sequence ([`host::open_durable`]); and the request
//!   envelope ([`host::Host::handle`]: request counting, trace-context
//!   adoption, status/trace frames, per-campaign refusal counters and
//!   the flight-recorder triggers).
//! * [`registry`] — [`CampaignRegistry`]: what only a campaign server
//!   does on top of [`host`] — each slot runs its own
//!   [`CampaignDriver`](dptd_protocol::campaign::CampaignDriver) +
//!   [`EngineBackend`](dptd_engine::EngineBackend) (optionally durable
//!   via a per-campaign WAL directory), and answers the truths and
//!   budget queries. Metrics are read through `QueryStatus` alone, which
//!   [`host`] answers for both hosts.
//! * [`frontend`] — the connection front end both [`Server`] and the
//!   cluster's node server share: an event-driven **reactor** (N
//!   poll-based threads multiplexing thousands of nonblocking
//!   connections with per-connection idle/stall deadlines), capped by
//!   one connection budget with typed `ServerBusy` refusals.
//! * [`decode`] — [`FrameDecoder`]: the per-connection incremental
//!   frame accumulator the reactor reads through, proptested to decode
//!   identically to the blocking reader at every byte boundary.
//! * [`server`] — [`Server`]: a campaign registry behind the front end.
//! * [`client`] — [`Client`]: the blocking client `dptd submit`, the
//!   loopback e2e harness and the benchmark (`e2e_ledger`) drive; also
//!   the one submit loop (`submit_streams`, driving the pure lane state
//!   machine of `lane`: one window per connection, a window of one for
//!   request/reply `submit_chunked`).
//!
//! Privacy enforcement is exactly the in-process campaign layer's: the
//! per-user [`BudgetAccountant`](dptd_protocol::budget::BudgetAccountant)
//! refuses exhausted users before any report reaches the engine, and the
//! refusals surface as typed wire errors. Because each campaign's rounds
//! run under its own lock over the same deterministic pipeline, N
//! campaigns served concurrently over TCP produce weights digests and
//! budget ledgers **bit-identical** to N sequential in-process runs —
//! pinned by `tests/server_e2e.rs` at the workspace root.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod client;
pub mod decode;
pub mod frontend;
pub mod host;
mod lane;
pub mod registry;
pub mod server;
pub mod wire;

use std::fmt;

pub use client::{scatter_gather, submit_streams, Client, RetryPolicy, StreamLane, TraceOutcome};
pub use decode::FrameDecoder;
pub use frontend::{Frontend, FrontendConfig, FrontendStats, IoConfig, RequestHandler};
pub use registry::{CampaignRegistry, RegistryConfig};
pub use server::{complete_frame, read_frame_body, write_frame, Server, ServerConfig};
pub use wire::{BatchRefusal, CampaignSpec, ErrorCode, Request, Response, StoreOp, WireError};

/// Errors from the network layer (client and server plumbing).
#[derive(Debug)]
pub enum ServerError {
    /// A socket operation failed.
    Io {
        /// Which operation (`"connect"`, `"read frame"`, …).
        op: &'static str,
        /// The underlying error rendered as text.
        message: String,
    },
    /// The byte stream violated the wire protocol.
    Wire(WireError),
    /// The peer did not present the expected hello magic.
    BadHello,
    /// The server refused the connection at its worker budget.
    Busy,
    /// The server answered a request with a typed error.
    Remote {
        /// The wire-level cause.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server answered with a response of the wrong kind (protocol
    /// confusion — e.g. a `Budget` reply to a `CloseRound`).
    UnexpectedResponse(
        /// The reply actually received.
        Box<Response>,
    ),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io { op, message } => write!(f, "{op} failed: {message}"),
            ServerError::Wire(e) => write!(f, "wire protocol violation: {e}"),
            ServerError::BadHello => write!(
                f,
                "peer is not a dptd wire v{} endpoint (bad hello)",
                wire::HELLO[7]
            ),
            ServerError::Busy => write!(f, "server at its connection budget"),
            ServerError::Remote { code, message } => {
                write!(f, "server refused ({code}): {message}")
            }
            ServerError::UnexpectedResponse(resp) => {
                write!(f, "unexpected response kind: {resp:?}")
            }
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ServerError {
    fn from(e: WireError) -> Self {
        ServerError::Wire(e)
    }
}

pub(crate) fn io_err(op: &'static str, e: std::io::Error) -> ServerError {
    ServerError::Io {
        op,
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_are_send_sync() {
        let e = ServerError::Remote {
            code: ErrorCode::BudgetExhausted,
            message: "all spent".to_string(),
        };
        assert!(e.to_string().contains("budget-exhausted"));
        let e: ServerError = WireError::Checksum.into();
        assert!(matches!(e, ServerError::Wire(_)));
        assert!(ServerError::BadHello.to_string().contains("wire v3"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServerError>();
    }
}
