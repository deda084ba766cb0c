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
use crate::wire::{self, WireError};
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
/// # Errors
///
/// [`ServerError::Io`] when the stream dies mid-frame,
/// [`ServerError::Wire`] for header/checksum violations.
pub fn complete_frame(prefix: &[u8], stream: &mut impl Read) -> Result<Vec<u8>, ServerError> {
    let mut frame = Vec::with_capacity(prefix.len().max(wire::FRAME_HEADER_LEN));
    frame.extend_from_slice(prefix);
    if frame.len() < wire::FRAME_HEADER_LEN {
        read_up_to(
            &mut frame,
            wire::FRAME_HEADER_LEN,
            stream,
            "read frame header",
        )?;
    }
    // Validate the header exactly as the pure decoder does, without yet
    // having the body: splice it through `split_frame` — only a
    // Truncated outcome means "valid so far, body still on the wire".
    let full_len = match wire::split_frame(&frame) {
        // A zero-length body: the header bytes are the whole frame.
        Ok((body, _)) => return Ok(body.to_vec()),
        Err(WireError::Truncated { needed, .. }) => needed,
        Err(e) => return Err(ServerError::Wire(e)),
    };
    // One buffer for header and body, sized by the header that just
    // validated (so never past `MAX_FRAME_LEN`): the body lands behind
    // the header, the full check runs over both, and the header is
    // drained off — no second or third copy of a multi-megabyte body.
    read_up_to(&mut frame, full_len, stream, "read frame body")?;
    wire::split_frame(&frame)?;
    frame.drain(..wire::FRAME_HEADER_LEN);
    Ok(frame)
}

/// Grow `buf` to `len` bytes with exactly that many read off `stream`.
fn read_up_to(
    buf: &mut Vec<u8>,
    len: usize,
    stream: &mut impl Read,
    op: &'static str,
) -> Result<(), ServerError> {
    let have = buf.len();
    buf.resize(len, 0);
    stream
        .read_exact(&mut buf[have..])
        .map_err(|e| io_err(op, e))
}

/// Read one frame body off `stream`. `Ok(None)` is a clean close at a
/// frame boundary; dying mid-frame (the torn-write case) is an I/O
/// error; header/checksum violations are typed [`WireError`]s.
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
    use crate::wire::{Request, Response};

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
}
