//! The campaign server: a [`CampaignRegistry`] behind the shared
//! connection [`Frontend`].
//!
//! All transport policy — the event-driven reactor, the hard connection
//! budget with typed
//! [`ErrorCode::ServerBusy`](crate::wire::ErrorCode::ServerBusy)
//! refusals, and the per-connection idle/stall deadlines — lives in
//! [`crate::frontend`]; all campaign semantics live in the shared
//! [`CampaignRegistry`]. This module wires the two together and keeps
//! the blocking frame-I/O helpers ([`complete_frame`],
//! [`read_frame_body`], [`write_frame`]) the client speaks.

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::Arc;

use crate::frontend::{Frontend, FrontendConfig, IoConfig};
use crate::registry::{CampaignRegistry, RegistryConfig, RegistryStats};
use crate::wire;
use crate::{io_err, ServerError};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port — the
    /// bound address is [`Server::local_addr`]).
    pub listen: String,
    /// Connection budget: live connections past this are refused with
    /// `ServerBusy`.
    pub max_connections: usize,
    /// Reactor sizing and connection deadlines.
    pub io: IoConfig,
    /// Campaign-level limits and the WAL root.
    pub registry: RegistryConfig,
}

impl Default for ServerConfig {
    /// Loopback ephemeral port, 64 connections, default I/O config and
    /// registry.
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            max_connections: 64,
            io: IoConfig::default(),
            registry: RegistryConfig::default(),
        }
    }
}

/// Complete and validate one frame whose first `prefix.len()` bytes
/// were already read off `stream`, returning the verified body. This is
/// the single place the header-then-body socket read lives: the
/// request/response loops enter it with an empty-ish prefix, and the
/// client's connect path enters it with the 8 bytes it read while
/// expecting a hello. Public so cluster nodes can speak the same frame
/// discipline from their own connections.
///
/// The header is validated by the function [`wire::split_frame`] calls
/// (`wire::FrameHeader::parse`) before the body is allocated;
/// the body is then read straight into a buffer of exactly its length
/// and checked once — a multi-megabyte body is never copied. Prefix
/// bytes past the header are the body's first bytes.
///
/// # Errors
///
/// [`ServerError::Io`] when the stream dies mid-frame,
/// [`ServerError::Wire`] for header/checksum violations, and
/// `Malformed` when `prefix` runs past the end of its frame.
pub fn complete_frame(prefix: &[u8], stream: &mut impl Read) -> Result<Vec<u8>, ServerError> {
    let (head, early) = prefix.split_at(prefix.len().min(wire::FRAME_HEADER_LEN));
    let mut header = [0; wire::FRAME_HEADER_LEN];
    header[..head.len()].copy_from_slice(head);
    stream
        .read_exact(&mut header[head.len()..])
        .map_err(|e| io_err("read frame header", e))?;
    let header = wire::FrameHeader::parse(&header)?;
    if early.len() > header.body_len() {
        return Err(wire::WireError::Malformed("prefix runs past the end of its frame").into());
    }
    let mut body = vec![0; header.body_len()];
    body[..early.len()].copy_from_slice(early);
    stream
        .read_exact(&mut body[early.len()..])
        .map_err(|e| io_err("read frame body", e))?;
    header.verify(&body)?;
    Ok(body)
}

/// Read one frame body off `stream`. `Ok(None)` is a clean close at a
/// frame boundary; dying mid-frame (the torn-write case) is an I/O
/// error; header/checksum violations are typed [`wire::WireError`]s.
///
/// # Errors
///
/// [`ServerError::Io`] and [`ServerError::Wire`] as described above.
pub fn read_frame_body(stream: &mut impl Read) -> Result<Option<Vec<u8>>, ServerError> {
    // Distinguish clean EOF (nothing to read) from a torn frame: pull
    // the first byte separately.
    let mut first = [0u8; 1];
    loop {
        match stream.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(1) => break,
            Ok(_) => unreachable!("read into a 1-byte buffer"),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err("read frame header", e)),
        }
    }
    complete_frame(&first, stream).map(Some)
}

/// Write one already-encoded frame.
///
/// # Errors
///
/// [`ServerError::Io`] when the write or flush fails.
pub fn write_frame(stream: &mut impl Write, frame: &[u8]) -> Result<(), ServerError> {
    stream
        .write_all(frame)
        .and_then(|()| stream.flush())
        .map_err(|e| io_err("write frame", e))
}

/// A running campaign service. Dropping (or [`Server::shutdown`])
/// stops the front end, closes live connections, and joins every I/O
/// thread.
#[derive(Debug)]
pub struct Server {
    registry: Arc<CampaignRegistry>,
    frontend: Frontend,
}

impl Server {
    /// Bind `config.listen` and start the reactor accepting.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] when the address cannot be bound.
    pub fn start(config: ServerConfig) -> Result<Self, ServerError> {
        let registry = Arc::new(CampaignRegistry::new(config.registry));
        let frontend = Frontend::start(
            FrontendConfig {
                listen: config.listen,
                max_connections: config.max_connections,
                io: config.io,
                thread_name: "dptd",
            },
            Arc::clone(&registry) as Arc<dyn crate::frontend::RequestHandler>,
        )?;
        registry.set_conn_stats(frontend.stats(), frontend.io_threads());
        Ok(Self { registry, frontend })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.frontend.local_addr()
    }

    /// The shared campaign registry (e.g. for stats).
    pub fn registry(&self) -> &CampaignRegistry {
        &self.registry
    }

    /// The front end (for reactor introspection, e.g. in benches).
    pub fn frontend(&self) -> &Frontend {
        &self.frontend
    }

    /// Stop accepting, close every connection, join all reactor threads,
    /// finalize every campaign (flush + fsync active WAL segments,
    /// release writer locks — see [`CampaignRegistry::finalize`]), and
    /// return the registry's aggregate counters.
    pub fn shutdown(mut self) -> RegistryStats {
        self.frontend.stop();
        // Ordering matters: reactors are joined, so no round can
        // commit concurrently with finalization.
        let (flushed, sync_failures) = self.registry.finalize();
        let mut stats = self.registry.stats();
        stats.campaigns_flushed = flushed as u64;
        stats.sync_failures = sync_failures as u64;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Request, Response, WireError};

    /// However much of the header the caller had already read — none,
    /// the one byte `read_frame_body` peeks, the eight the client reads
    /// while expecting a hello, all sixteen — `complete_frame` returns
    /// exactly the body `split_frame` yields.
    #[test]
    fn complete_frame_matches_split_frame_for_every_header_split() {
        let frames = [
            Request::QueryStatus.encode(),
            Response::Error {
                code: wire::ErrorCode::ServerBusy,
                message: "server at its 1-connection budget".to_string(),
            }
            .encode(),
            Response::Ledger {
                next_epoch: 3,
                batches_seen: 3,
                rounds_debited: (0..5_000).collect(),
                cumulative_losses: (0..5_000).map(f64::from).collect(),
            }
            .encode(),
        ];
        for frame in &frames {
            let (body, consumed) = wire::split_frame(frame).unwrap();
            assert_eq!(consumed, frame.len());
            for split in 0..=wire::FRAME_HEADER_LEN {
                let (prefix, mut rest) = frame.split_at(split);
                assert_eq!(complete_frame(prefix, &mut rest).unwrap(), body, "{split}");
                assert!(rest.is_empty(), "split {split} left bytes unread");
            }
            // A flipped body bit is still the typed checksum error.
            let mut bad = frame.clone();
            *bad.last_mut().unwrap() ^= 1;
            let (prefix, mut rest) = bad.split_at(8);
            assert!(matches!(
                complete_frame(prefix, &mut rest),
                Err(ServerError::Wire(WireError::Checksum))
            ));
        }
    }

    /// A prefix that reaches into the body is the body's first bytes; one
    /// that runs past the frame is a typed refusal, never a panic.
    #[test]
    fn a_prefix_past_the_header_is_part_of_the_body() {
        let frame = Response::Error {
            code: wire::ErrorCode::ServerBusy,
            message: "server at its 1-connection budget".to_string(),
        }
        .encode();
        let (body, _) = wire::split_frame(&frame).unwrap();
        for split in wire::FRAME_HEADER_LEN..=frame.len() {
            let (prefix, mut rest) = frame.split_at(split);
            assert_eq!(complete_frame(prefix, &mut rest).unwrap(), body, "{split}");
        }
        let long = [frame.as_slice(), &[0]].concat();
        assert!(matches!(
            complete_frame(&long, &mut std::io::empty()),
            Err(ServerError::Wire(WireError::Malformed(_)))
        ));
    }

    /// A create naming more objects than any host can keep per-object
    /// sums for is a typed refusal. Were it admitted, the round's first
    /// close would try to allocate them and abort the process.
    #[test]
    fn a_create_with_too_many_objects_is_refused_and_the_server_keeps_serving() {
        use crate::client::Client;
        use dptd_core::roles::PerturbedReport;
        use dptd_protocol::message::StampedReport;

        let server = Server::start(ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let spec = wire::CampaignSpec {
            num_users: 2,
            num_objects: 1 << 40,
            num_shards: 1,
            workers: 1,
            engine_queue: 64,
            deadline_us: 1_000,
            submission_capacity: 8,
            per_round_epsilon: 0.5,
            per_round_delta: 0.0,
            budget_epsilon: 1.0,
            budget_delta: 0.0,
            stream_tag: 0,
            durable: false,
        };
        let created = client.create_campaign("wide", spec);
        let report = StampedReport {
            epoch: 0,
            sent_at_us: 1,
            report: PerturbedReport {
                user: 0,
                values: vec![(0, 1.0)],
            },
        };
        // Had the create been admitted, this is the round that aborts.
        let _ = client.submit("wide", vec![report]);
        let _ = client.close_round("wide", 0);
        assert!(
            matches!(
                created,
                Err(ServerError::Remote {
                    code: wire::ErrorCode::InvalidRequest,
                    ..
                })
            ),
            "{created:?}"
        );
        client.query_status().unwrap();
        server.shutdown();
    }
}
