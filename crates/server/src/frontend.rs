//! The connection front end shared by the campaign server and the
//! cluster node server, in two halves.
//!
//! The **connection machine** (`Conn`) is one connection's side of the
//! [`crate::wire`] protocol, with no socket, no syscall and no clock:
//! the 8-byte hello exchange (another version is refused by name),
//! request frames read through an incremental [`FrameDecoder`] so a torn
//! frame never blocks, every decoded request answered by one handler,
//! replies queued under a 1 MiB read throttle, the lingering close, and
//! two deadlines — a short **stall** deadline for a peer mid-hello or
//! mid-frame (the slow-loris shape) and a longer **idle** deadline
//! between frames. Its state is one phase: hello, open, closing or
//! draining.
//!
//! The **reactor** is all that touches the operating system. N threads —
//! one per core, capped at 8 — each `poll(2)` their share of
//! nonblocking connections, accept against one connection budget with
//! typed [`ErrorCode::ServerBusy`] refusals, and move bytes between each
//! socket and its machine, reading the clock for it. Thousands of
//! intermittently-connected submitters cost file descriptors, not
//! stacks. Every request is answered by one [`RequestHandler`] — so a
//! served campaign is **bit-identical** to the in-process reference
//! (pinned by the e2e suites) — and an expired deadline reclaims the
//! connection slot.
//!
//! Pipelined submission ([`Request::SubmitReportsStream`]) is handled
//! here rather than in the handlers because its cumulative-ack protocol
//! is **per-connection** state: the machine accepts only the next
//! in-order batch sequence number, translates the batch into an
//! ordinary `SubmitReports` for the handler, and answers every batch
//! frame with a [`Response::SubmitAcked`] — acks stay paired one-to-one
//! with request frames, which is what lets the blocking client speak
//! the same protocol pipelined or not.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::decode::{FrameDecoder, COMPACT_THRESHOLD};
use crate::server::write_frame;
use crate::wire::{self, BatchRefusal, ErrorCode, Request, Response};
use crate::{io_err, ServerError};

/// Something that can answer wire requests — the seam between the
/// transport layer and campaign semantics. The campaign server's
/// registry and the cluster's node state both implement it, which is
/// what lets them share one front end.
pub trait RequestHandler: Send + Sync + 'static {
    /// Answer one request. May block (a round close runs the engine);
    /// the front end accounts for that, not the handler.
    fn handle(&self, request: Request) -> Response;
}

/// Reactor sizing and connection deadlines — the knobs shared by
/// `dptd serve` and `dptd cluster serve`.
#[derive(Debug, Clone, Copy)]
pub struct IoConfig {
    /// Reactor threads; `0` = one per available core (capped at 8).
    pub reactor_threads: usize,
    /// How long a connection may sit with **no frame in progress**
    /// before it is reclaimed.
    pub idle_timeout: Duration,
    /// How long a connection may sit **mid-hello or mid-frame** —
    /// the slow-loris shape — before it is reclaimed. Must not exceed
    /// `idle_timeout`.
    pub stall_timeout: Duration,
}

impl Default for IoConfig {
    /// One reactor thread per core, 60 s idle / 10 s stall.
    fn default() -> Self {
        Self {
            reactor_threads: 0,
            idle_timeout: Duration::from_secs(60),
            stall_timeout: Duration::from_secs(10),
        }
    }
}

/// Front-end configuration: where to listen, how many connections to
/// admit, and the reactor's sizing and deadlines.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub listen: String,
    /// Connection budget: live connections past this are refused with
    /// a typed `ServerBusy` frame, never queued.
    pub max_connections: usize,
    /// Reactor sizing and deadlines.
    pub io: IoConfig,
    /// Thread-name prefix for diagnostics (`"dptd"`, `"dptd-node"`).
    pub thread_name: &'static str,
}

impl Default for FrontendConfig {
    /// Loopback ephemeral port, 64 connections, default I/O config.
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            max_connections: 64,
            io: IoConfig::default(),
            thread_name: "dptd",
        }
    }
}

/// Stop reading new requests from a connection while more than this
/// many unflushed response bytes are queued for it — read backpressure
/// so one slow-reading pipeliner cannot balloon server memory.
const OUTBUF_HIGH_WATER: usize = 1 << 20;

/// The reactor's poll tick: deadline sweeps, stop-flag checks and
/// newly-accepted connections are observed at least this often even
/// when no descriptor turns ready.
const POLL_TICK_MS: i32 = 25;

/// Connection accounting. `live` **is** the shared admission budget (the
/// same atomic every reactor checks at accept), so the gauge can never
/// drift from the number the budget actually enforces. Surfaced by the
/// observability plane as `server.conn.*`.
#[derive(Debug, Default)]
pub struct FrontendStats {
    /// Connections live right now.
    pub live: AtomicUsize,
    /// Connections accepted since the front end started.
    pub accepted: AtomicU64,
    /// Connections refused at accept because the budget was full.
    pub refused: AtomicU64,
}

/// A running connection front end. Owners hand it an
/// `Arc<dyn RequestHandler>` at start and call [`Frontend::stop`] (or
/// drop it) to tear down every reactor and its connections.
#[derive(Debug)]
pub struct Frontend {
    addr: SocketAddr,
    io_threads: usize,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    stats: Arc<FrontendStats>,
}

impl Frontend {
    /// Bind `config.listen` and start the reactor threads serving
    /// `handler`.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] when the address cannot be bound or the
    /// reactor threads cannot be spawned.
    pub fn start(
        config: FrontendConfig,
        handler: Arc<dyn RequestHandler>,
    ) -> Result<Self, ServerError> {
        let listener = TcpListener::bind(
            config
                .listen
                .to_socket_addrs()
                .map_err(|e| io_err("resolve listen address", e))?
                .next()
                .ok_or_else(|| ServerError::Io {
                    op: "resolve listen address",
                    message: format!("`{}` resolves to nothing", config.listen),
                })?,
        )
        .map_err(|e| io_err("bind", e))?;
        let addr = listener.local_addr().map_err(|e| io_err("local addr", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| io_err("set listener nonblocking", e))?;
        let listener = Arc::new(listener);

        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(FrontendStats::default());
        let io_threads = reactor_count(config.io.reactor_threads);
        let threads = (0..io_threads)
            .map(|i| {
                let reactor = Reactor {
                    listener: Arc::clone(&listener),
                    handler: Arc::clone(&handler),
                    stop: Arc::clone(&stop),
                    stats: Arc::clone(&stats),
                    max_connections: config.max_connections.max(1),
                    io: config.io,
                };
                std::thread::Builder::new()
                    .name(format!("{}-reactor-{i}", config.thread_name))
                    .spawn(move || reactor.run())
                    .map_err(|e| io_err("spawn reactor", e))
            })
            .collect::<Result<_, _>>()?;

        Ok(Self {
            addr,
            io_threads,
            stop,
            threads,
            stats,
        })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many reactor threads carry connections.
    pub fn io_threads(&self) -> usize {
        self.io_threads
    }

    /// Connection accounting, shared with the reactor threads — readable
    /// live while the front end serves.
    pub fn stats(&self) -> Arc<FrontendStats> {
        Arc::clone(&self.stats)
    }

    /// Stop accepting, close every connection, and join every reactor.
    /// Idempotent; also runs on drop.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Hasten the reactors' next tick with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `0` = one reactor per available core, capped at 8 (loopback serving
/// saturates well before that; the cap keeps idle tick cost bounded).
fn reactor_count(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(1, 8)
}

/// What a connection's requests are answered by: the reactor's
/// [`RequestHandler`], or a stub in tests.
type Handler<'a> = dyn FnMut(Request) -> Response + 'a;

/// Answer one decoded request, routing pipelined-submit batches through
/// the per-connection cumulative-ack protocol. `next_seq` is the
/// connection's stream cursor: the only batch number accepted is the
/// next in-order one, so the handler — and therefore the campaign —
/// sees reports in exactly the order the client sent them, pipelined or
/// not.
fn dispatch(handle: &mut Handler<'_>, next_seq: &mut u64, request: Request) -> Response {
    match request {
        Request::SubmitReportsStream {
            campaign,
            seq,
            reports,
            ctx,
        } => {
            if seq != *next_seq {
                // Out of order: a window continuation behind an earlier
                // refusal. Retryable — the client rewinds and resends.
                return Response::SubmitAcked {
                    contiguous: *next_seq,
                    queued: 0,
                    refusals: vec![BatchRefusal { seq, code: None }],
                };
            }
            match handle(Request::SubmitReports {
                campaign,
                reports,
                ctx,
            }) {
                Response::Submitted { queued } => {
                    *next_seq += 1;
                    Response::SubmitAcked {
                        contiguous: *next_seq,
                        queued,
                        refusals: Vec::new(),
                    }
                }
                Response::Busy { queued, .. } => Response::SubmitAcked {
                    contiguous: *next_seq,
                    queued,
                    refusals: vec![BatchRefusal { seq, code: None }],
                },
                Response::Error { code, .. } => Response::SubmitAcked {
                    contiguous: *next_seq,
                    queued: 0,
                    refusals: vec![BatchRefusal {
                        seq,
                        code: Some(code),
                    }],
                },
                other => other,
            }
        }
        other => handle(other),
    }
}

/// Encode a handler's reply for the socket — every reply is sent
/// through here. A reply past the frame cap (a ledger or budget query
/// over a population the cap cannot carry) would be refused by the very
/// peer that asked for it and cost it the connection, so it is replaced,
/// before it is built, by the typed refusal that says so.
fn encode_reply(response: &Response) -> Vec<u8> {
    response.try_encode().unwrap_or_else(|_| {
        Response::Error {
            code: ErrorCode::Internal,
            message: format!(
                "reply of {} bytes exceeds the {}-byte frame cap",
                response.body_len(),
                wire::MAX_FRAME_LEN
            ),
        }
        .encode()
    })
}

fn refuse_busy(stream: &TcpStream, max_connections: usize) {
    let mut s = stream;
    let frame = Response::Error {
        code: ErrorCode::ServerBusy,
        message: format!("server at its {max_connections}-connection budget"),
    }
    .encode();
    let _ = write_frame(&mut s, &frame);
    let _ = stream.shutdown(Shutdown::Both);
}

// ---------------------------------------------------------------------
// The connection machine
// ---------------------------------------------------------------------

/// Where a connection is in its life.
enum Phase {
    /// `got` of the peer's hello bytes have arrived, in `buf`.
    Hello { got: usize, buf: [u8; 8] },
    /// Hello exchanged: request frames in, replies out.
    Open,
    /// Nothing more is read: flush what is queued, then shut the write
    /// side.
    Closing,
    /// Write side shut; discard reads until the peer closes (so a final
    /// error frame is not destroyed by a reset-on-close while unread
    /// request bytes sit in our receive buffer).
    Draining,
}

/// One connection's side of the protocol, with no socket and no clock:
/// the reactor feeds it bytes read, bytes written and end-of-stream, at
/// a `now` measured from any origin, and asks it what to read, what to
/// write, when to shut the write side and when its deadline has passed.
pub(crate) struct Conn {
    phase: Phase,
    decoder: FrameDecoder,
    /// Encoded-but-unwritten reply bytes are `outbuf[out_pos..]`.
    outbuf: Vec<u8>,
    out_pos: usize,
    /// Pipelined-submit stream cursor (next in-order batch seq).
    next_seq: u64,
    /// When a byte last moved either way.
    last_activity: Duration,
}

impl Conn {
    pub(crate) fn new(now: Duration) -> Self {
        Self {
            phase: Phase::Hello {
                got: 0,
                buf: [0; 8],
            },
            decoder: FrameDecoder::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            last_activity: now,
        }
    }

    /// How many bytes to read now; `0`: do not poll for reads. A closing
    /// connection reads nothing, and neither does one holding more than
    /// `OUTBUF_HIGH_WATER` unwritten reply bytes.
    pub(crate) fn read_budget(&self) -> usize {
        match self.phase {
            Phase::Closing => 0,
            Phase::Draining => usize::MAX,
            _ if self.output().len() > OUTBUF_HIGH_WATER => 0,
            _ => self.decoder.read_budget(),
        }
    }

    /// Reply bytes waiting to be written (empty: do not poll for writes).
    pub(crate) fn output(&self) -> &[u8] {
        &self.outbuf[self.out_pos..]
    }

    /// `bytes` were read: take the hello, then answer every complete
    /// frame through `handle`, queueing the replies in order. A closing
    /// or draining connection discards them.
    pub(crate) fn read(&mut self, mut bytes: &[u8], now: Duration, handle: &mut Handler<'_>) {
        self.last_activity = now;
        if let Phase::Hello { got, buf } = &mut self.phase {
            let take = (buf.len() - *got).min(bytes.len());
            buf[*got..*got + take].copy_from_slice(&bytes[..take]);
            *got += take;
            bytes = &bytes[take..];
            if *got < buf.len() {
                return;
            }
            let hello = *buf;
            if hello != wire::HELLO {
                return self
                    .refuse_and_close(ErrorCode::InvalidRequest, wire::hello_refusal(&hello));
            }
            self.phase = Phase::Open;
            self.queue(wire::HELLO.to_vec());
        }
        if !matches!(self.phase, Phase::Open) {
            return;
        }
        self.decoder.extend(bytes);
        loop {
            let response = match self.decoder.next_frame() {
                // A well-framed body that fails to decode leaves the
                // stream in sync: typed error, keep serving.
                Ok(Some(body)) => match Request::decode(&body) {
                    Ok(request) => dispatch(handle, &mut self.next_seq, request),
                    Err(e) => Response::Error {
                        code: ErrorCode::InvalidRequest,
                        message: e.to_string(),
                    },
                },
                Ok(None) => return,
                // Framing is lost: answer once, then close.
                Err(e) => return self.refuse_and_close(ErrorCode::InvalidRequest, e.to_string()),
            };
            self.queue(encode_reply(&response));
        }
    }

    /// The peer closed its write side. At a frame boundary the replies
    /// are flushed and the connection closes; `false`: drop it now (a
    /// torn frame has nothing sensible to reply to, and a lingering
    /// close is over).
    pub(crate) fn eof(&mut self) -> bool {
        match self.phase {
            Phase::Draining => false,
            Phase::Open if self.decoder.has_partial() => false,
            _ => {
                self.phase = Phase::Closing;
                true
            }
        }
    }

    /// The first `n` bytes of [`output`](Self::output) were written.
    pub(crate) fn wrote(&mut self, n: usize, now: Duration) {
        self.out_pos += n;
        self.last_activity = now;
        if self.out_pos == self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
        } else if self.out_pos >= COMPACT_THRESHOLD && self.out_pos * 2 >= self.outbuf.len() {
            // Drop the written prefix only once it is at least half the
            // buffer (the decoder's compaction rule), so the memmoves
            // over a large reply's unsent remainder stay linear in its
            // size instead of one per partial write.
            self.outbuf.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }

    /// Whether to shut the socket's write side now: a closing
    /// connection has written its last byte, and lingers until the peer
    /// closes.
    pub(crate) fn shut_write(&mut self) -> bool {
        let flushed = matches!(self.phase, Phase::Closing) && self.output().is_empty();
        if flushed {
            self.phase = Phase::Draining;
        }
        flushed
    }

    /// Whether the connection's deadline has passed at `now`: the short
    /// **stall** deadline mid-hello or mid-frame (the slow-loris shape)
    /// and while draining (the peer owes us nothing), the **idle**
    /// deadline otherwise.
    pub(crate) fn expired(&self, now: Duration, io: &IoConfig) -> bool {
        let stalled = matches!(self.phase, Phase::Hello { .. } | Phase::Draining)
            || self.decoder.has_partial();
        let limit = if stalled {
            io.stall_timeout.min(io.idle_timeout)
        } else {
            io.idle_timeout
        };
        now.saturating_sub(self.last_activity) > limit
    }

    /// Queue an encoded frame behind whatever is still unwritten. With
    /// nothing unwritten — every request/reply exchange — the frame
    /// *becomes* the output buffer: a multi-megabyte reply is not
    /// copied once more on its way to the socket.
    fn queue(&mut self, frame: Vec<u8>) {
        if self.output().is_empty() {
            self.outbuf = frame;
            self.out_pos = 0;
        } else {
            self.outbuf.extend_from_slice(&frame);
        }
    }

    /// Queue a final error frame and begin the close.
    fn refuse_and_close(&mut self, code: ErrorCode, message: String) {
        self.queue(Response::Error { code, message }.encode());
        self.phase = Phase::Closing;
    }
}

// ---------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------

#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(s: &T) -> i32 {
    s.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_s: &T) -> i32 {
    // The compat poll fallback claims readiness for any nonnegative fd;
    // nonblocking reads/writes then sort truth from spin.
    0
}

struct Reactor {
    listener: Arc<TcpListener>,
    handler: Arc<dyn RequestHandler>,
    stop: Arc<AtomicBool>,
    /// Shared across *all* reactors; `stats.live` is the admission
    /// budget.
    stats: Arc<FrontendStats>,
    max_connections: usize,
    io: IoConfig,
}

impl Reactor {
    fn run(&self) {
        let origin = Instant::now();
        let mut conns: Vec<(TcpStream, Conn)> = Vec::new();
        let mut pollfds: Vec<libc::pollfd> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            pollfds.clear();
            pollfds.push(libc::pollfd {
                fd: raw_fd(&*self.listener),
                events: libc::POLLIN,
                revents: 0,
            });
            for (stream, conn) in &conns {
                let mut events = 0;
                if conn.read_budget() > 0 {
                    events |= libc::POLLIN;
                }
                if !conn.output().is_empty() {
                    events |= libc::POLLOUT;
                }
                pollfds.push(libc::pollfd {
                    fd: raw_fd(stream),
                    events,
                    revents: 0,
                });
            }

            let rc = unsafe {
                libc::poll(
                    pollfds.as_mut_ptr(),
                    pollfds.len() as libc::nfds_t,
                    POLL_TICK_MS,
                )
            };
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            if rc < 0 {
                // EINTR or a transient failure: treat as an empty tick.
                for slot in &mut pollfds {
                    slot.revents = 0;
                }
            }

            // I/O pass, then the deadline: pollfds[i + 1] describes
            // conns[i]. Connections accepted below are appended past
            // this range and first polled next tick.
            let now = origin.elapsed();
            let mut revents = pollfds[1..].iter().map(|slot| slot.revents);
            let before = conns.len();
            conns.retain_mut(|(stream, conn)| {
                let revents = revents.next().unwrap_or(0);
                self.serve(stream, conn, revents, now) && !conn.expired(now, &self.io)
            });
            let reclaimed = before - conns.len();
            if reclaimed > 0 {
                self.stats.live.fetch_sub(reclaimed, Ordering::SeqCst);
            }

            if pollfds[0].revents & libc::POLLIN != 0 {
                self.accept_ready(&mut conns, origin.elapsed());
            }
        }

        // Shutdown: every reactor closes its own connections.
        for (stream, _) in &conns {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.stats.live.fetch_sub(conns.len(), Ordering::SeqCst);
    }

    /// Accept everything currently pending. All reactors poll the one
    /// listener; losers of an accept race see `WouldBlock`, which is
    /// how connections spread across reactor threads without handoff.
    fn accept_ready(&self, conns: &mut Vec<(TcpStream, Conn)>, now: Duration) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            let admitted = self
                .stats
                .live
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n < self.max_connections).then_some(n + 1)
                })
                .is_ok();
            if !admitted {
                self.stats.refused.fetch_add(1, Ordering::Relaxed);
                refuse_busy(&stream, self.max_connections);
                continue;
            }
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                let _ = stream.shutdown(Shutdown::Both);
                self.stats.live.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            self.stats.accepted.fetch_add(1, Ordering::Relaxed);
            conns.push((stream, Conn::new(now)));
        }
    }

    /// One connection's turn of the I/O pass: read to `WouldBlock` or
    /// until the machine's read budget runs out, write what it queued,
    /// and shut the write side when it asks. `false`: the socket failed
    /// or the machine is done with the connection.
    fn serve(&self, mut stream: &TcpStream, conn: &mut Conn, revents: i16, now: Duration) -> bool {
        if revents & (libc::POLLERR | libc::POLLNVAL) != 0 {
            return false;
        }
        let mut buf = [0u8; 16 * 1024];
        let mut budget = match revents & (libc::POLLIN | libc::POLLHUP) {
            0 => 0,
            _ => conn.read_budget().min(buf.len()),
        };
        while budget > 0 {
            match stream.read(&mut buf[..budget]) {
                Ok(0) => {
                    if !conn.eof() {
                        return false;
                    }
                }
                Ok(n) => conn.read(&buf[..n], now, &mut |r| self.handler.handle(r)),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
            budget = conn.read_budget().min(buf.len());
        }
        flush(stream, conn, now)
            && !(conn.shut_write() && stream.shutdown(Shutdown::Write).is_err())
    }
}

/// Write the machine's queued output to `WouldBlock`.
fn flush(mut stream: &TcpStream, conn: &mut Conn, now: Duration) -> bool {
    while !conn.output().is_empty() {
        match stream.write(conn.output()) {
            Ok(0) => return false,
            Ok(n) => conn.wrote(n, now),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reactor_count_clamps_and_respects_overrides() {
        assert_eq!(reactor_count(3), 3);
        let auto = reactor_count(0);
        assert!((1..=8).contains(&auto), "auto count {auto} out of range");
    }

    /// A multi-megabyte reply crosses a socket whose reader takes 64 KB
    /// at a time: every partial write leaves an unsent remainder that
    /// `flush` and `Conn::wrote` must neither lose nor reorder while
    /// they compact.
    #[test]
    fn a_large_reply_survives_partial_writes_intact() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut reader = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let now = Duration::ZERO;
        let mut conn = Conn::new(now);

        let reply: Vec<u8> = (0..4usize << 20).map(|i| (i * 31 % 251) as u8).collect();
        // A small frame already unflushed: the large one queues behind
        // it instead of replacing it.
        conn.queue(wire::HELLO.to_vec());
        conn.queue(reply.clone());
        let mut received = Vec::with_capacity(wire::HELLO.len() + reply.len());
        let mut chunk = vec![0u8; 64 << 10];
        while received.len() < wire::HELLO.len() + reply.len() {
            assert!(flush(&stream, &mut conn, now));
            let n = reader.read(&mut chunk).unwrap();
            assert!(n > 0, "peer closed early");
            received.extend_from_slice(&chunk[..n]);
        }
        assert!(flush(&stream, &mut conn, now));
        assert!(conn.output().is_empty());
        assert_eq!(&received[..wire::HELLO.len()], &wire::HELLO);
        assert!(
            received[wire::HELLO.len()..] == reply[..],
            "reply bytes differ"
        );

        // With nothing unflushed, the next frame becomes the buffer.
        conn.queue(vec![7; 3]);
        assert_eq!((conn.outbuf.as_slice(), conn.out_pos), (&[7u8; 3][..], 0));
    }

    /// A handler that answers everything with `Submitted{queued: 1}`
    /// except `Busy` for a magic campaign id — enough to exercise the
    /// dispatch seam without a registry.
    struct Canned;
    impl RequestHandler for Canned {
        fn handle(&self, request: Request) -> Response {
            match request {
                Request::SubmitReports { campaign, .. } if campaign == "full" => Response::Busy {
                    queued: 9,
                    capacity: 9,
                },
                Request::SubmitReports { campaign, .. } if campaign == "gone" => Response::Error {
                    code: ErrorCode::UnknownCampaign,
                    message: "no such campaign".to_string(),
                },
                Request::SubmitReports { .. } => Response::Submitted { queued: 1 },
                _ => Response::Error {
                    code: ErrorCode::InvalidRequest,
                    message: "unexpected".to_string(),
                },
            }
        }
    }

    fn stream_batch(campaign: &str, seq: u64) -> Request {
        Request::SubmitReportsStream {
            campaign: campaign.to_string(),
            seq,
            reports: Vec::new(),
            ctx: None,
        }
    }

    #[test]
    fn in_order_stream_batches_advance_the_cumulative_ack() {
        let mut next = 0;
        for seq in 0..3 {
            let ack = dispatch(&mut |r| Canned.handle(r), &mut next, stream_batch("c", seq));
            assert_eq!(
                ack,
                Response::SubmitAcked {
                    contiguous: seq + 1,
                    queued: 1,
                    refusals: vec![],
                }
            );
        }
        assert_eq!(next, 3);
    }

    #[test]
    fn busy_and_out_of_order_batches_are_retryable_refusal_deltas() {
        let mut next = 5;
        // Backpressure on the in-order batch: refused, cursor holds.
        let ack = dispatch(
            &mut |r| Canned.handle(r),
            &mut next,
            stream_batch("full", 5),
        );
        assert_eq!(
            ack,
            Response::SubmitAcked {
                contiguous: 5,
                queued: 9,
                refusals: vec![BatchRefusal { seq: 5, code: None }],
            }
        );
        // The window continuation behind it: out of order, also
        // retryable, cursor still holds.
        let ack = dispatch(&mut |r| Canned.handle(r), &mut next, stream_batch("c", 6));
        assert_eq!(
            ack,
            Response::SubmitAcked {
                contiguous: 5,
                queued: 0,
                refusals: vec![BatchRefusal { seq: 6, code: None }],
            }
        );
        assert_eq!(next, 5);
    }

    #[test]
    fn hard_refusals_carry_their_error_code() {
        let mut next = 0;
        let ack = dispatch(
            &mut |r| Canned.handle(r),
            &mut next,
            stream_batch("gone", 0),
        );
        assert_eq!(
            ack,
            Response::SubmitAcked {
                contiguous: 0,
                queued: 0,
                refusals: vec![BatchRefusal {
                    seq: 0,
                    code: Some(ErrorCode::UnknownCampaign)
                }],
            }
        );
        assert_eq!(next, 0);
    }

    // The connection machine in virtual time: no socket, no sleep.

    const SEC: Duration = Duration::from_secs(1);

    fn io() -> IoConfig {
        IoConfig {
            reactor_threads: 1,
            idle_timeout: 10 * SEC,
            stall_timeout: SEC,
        }
    }

    fn feed(conn: &mut Conn, bytes: &[u8], now: Duration) {
        conn.read(bytes, now, &mut |r| Canned.handle(r));
    }

    /// Write everything the machine queued and decode it: the hello
    /// echo (if any) and the reply frames that follow.
    fn written(conn: &mut Conn, now: Duration) -> (bool, Vec<Response>) {
        let mut out = conn.output().to_vec();
        conn.wrote(out.len(), now);
        let hello = out.starts_with(&wire::HELLO);
        if hello {
            out.drain(..wire::HELLO.len());
        }
        let mut replies = Vec::new();
        let mut rest = &out[..];
        while !rest.is_empty() {
            let (body, used) = wire::split_frame(rest).unwrap();
            replies.push(Response::decode(body).unwrap());
            rest = &rest[used..];
        }
        (hello, replies)
    }

    fn query() -> Vec<u8> {
        Request::QueryTruths {
            campaign: "c".to_string(),
        }
        .encode()
    }

    #[test]
    fn a_hello_split_across_reads_is_answered_once_it_is_whole() {
        let mut conn = Conn::new(Duration::ZERO);
        feed(&mut conn, &wire::HELLO[..3], SEC);
        assert!(conn.output().is_empty());
        let frame = query();
        let mut rest = wire::HELLO[3..].to_vec();
        rest.extend_from_slice(&frame[..5]);
        feed(&mut conn, &rest, SEC);
        feed(&mut conn, &frame[5..], SEC);
        let (hello, replies) = written(&mut conn, SEC);
        assert!(hello);
        assert_eq!(replies.len(), 1);
        assert!(conn.read_budget() > 0);
    }

    #[test]
    fn a_bad_hello_is_answered_then_closed() {
        let mut conn = Conn::new(Duration::ZERO);
        let mut bytes = b"DPTDNET\x01".to_vec();
        bytes.extend_from_slice(&query());
        feed(&mut conn, &bytes, SEC);
        // Nothing past the hello is served, and nothing more is read
        // until the refusal is written.
        assert_eq!(conn.read_budget(), 0);
        assert!(!conn.shut_write());
        let (hello, replies) = written(&mut conn, SEC);
        assert!(!hello);
        assert_eq!(
            replies,
            vec![Response::Error {
                code: ErrorCode::InvalidRequest,
                message: "peer sent wire v1; this end speaks v3".to_string(),
            }]
        );
        // Then the write side shuts and reads are discarded until the
        // peer closes.
        assert!(conn.shut_write());
        assert!(conn.read_budget() > 0);
        feed(&mut conn, &query(), SEC);
        assert!(conn.output().is_empty());
        assert!(!conn.eof());
    }

    #[test]
    fn the_stall_deadline_covers_mid_hello_and_mid_frame_the_idle_one_between_frames() {
        let io = io();
        let mid_hello = Conn::new(Duration::ZERO);
        assert!(!mid_hello.expired(SEC, &io));
        assert!(mid_hello.expired(SEC + Duration::from_millis(1), &io));

        let mut conn = Conn::new(Duration::ZERO);
        feed(&mut conn, &wire::HELLO, Duration::ZERO);
        written(&mut conn, Duration::ZERO);
        assert!(!conn.expired(5 * SEC, &io), "between frames is idle");
        assert!(conn.expired(11 * SEC, &io));

        let frame = query();
        feed(&mut conn, &frame[..frame.len() - 1], 20 * SEC);
        assert!(conn.expired(22 * SEC, &io), "mid-frame is a stall");
        feed(&mut conn, &frame[frame.len() - 1..], 21 * SEC);
        written(&mut conn, 21 * SEC);
        assert!(!conn.expired(25 * SEC, &io));
    }

    #[test]
    fn a_draining_connection_is_on_the_stall_clock() {
        let io = io();
        let mut conn = Conn::new(Duration::ZERO);
        feed(&mut conn, b"NOTDPTD!", Duration::ZERO);
        // Closing with nothing half-read: still the idle clock.
        assert!(!conn.expired(5 * SEC, &io));
        written(&mut conn, 5 * SEC);
        assert!(conn.shut_write());
        assert!(!conn.expired(6 * SEC, &io));
        assert!(conn.expired(7 * SEC, &io));
    }

    #[test]
    fn eof_at_a_frame_boundary_flushes_then_closes_and_a_torn_eof_drops() {
        let mut conn = Conn::new(Duration::ZERO);
        let mut bytes = wire::HELLO.to_vec();
        bytes.extend_from_slice(&query());
        bytes.extend_from_slice(&query());
        feed(&mut conn, &bytes, SEC);
        assert!(conn.eof());
        assert_eq!(conn.read_budget(), 0);
        assert!(!conn.shut_write(), "replies go out before the close");
        let (hello, replies) = written(&mut conn, SEC);
        assert!(hello);
        assert_eq!(replies.len(), 2);
        assert!(conn.shut_write());
        assert!(!conn.eof());

        let mut torn = Conn::new(Duration::ZERO);
        let mut bytes = wire::HELLO.to_vec();
        bytes.extend_from_slice(&query()[..4]);
        feed(&mut torn, &bytes, SEC);
        assert!(!torn.eof());
    }

    #[test]
    fn the_read_throttle_stops_reads_past_a_mebibyte_of_replies() {
        let mut conn = Conn::new(Duration::ZERO);
        // 600 KiB of truths per reply.
        let mut big = |_| Response::Truths {
            rounds_run: 1,
            truths: vec![0.5; 75 << 10],
            weights_digest: 7,
        };
        let mut bytes = wire::HELLO.to_vec();
        bytes.extend_from_slice(&query());
        conn.read(&bytes, SEC, &mut big);
        assert!(conn.read_budget() > 0, "600 KiB queued: still reading");
        conn.read(&query(), SEC, &mut big);
        assert_eq!(conn.read_budget(), 0, "1.2 MiB queued: throttled");
        conn.wrote(300 << 10, SEC);
        assert!(conn.read_budget() > 0, "written down to 0.9 MiB");
    }

    #[test]
    fn an_out_of_order_stream_batch_gets_a_retryable_refusal_delta() {
        let mut conn = Conn::new(Duration::ZERO);
        let mut bytes = wire::HELLO.to_vec();
        for seq in [0, 2, 1] {
            bytes.extend_from_slice(&stream_batch("c", seq).encode());
        }
        feed(&mut conn, &bytes, SEC);
        let (_, replies) = written(&mut conn, SEC);
        let acked = |contiguous, queued, refusals| Response::SubmitAcked {
            contiguous,
            queued,
            refusals,
        };
        assert_eq!(
            replies,
            vec![
                acked(1, 1, vec![]),
                acked(1, 0, vec![BatchRefusal { seq: 2, code: None }]),
                acked(2, 1, vec![]),
            ]
        );
    }
}
