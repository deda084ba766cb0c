//! The connection front end shared by the campaign server and the
//! cluster node server, in two interchangeable I/O models.
//!
//! Both models speak the identical [`crate::wire`] v1 protocol (8-byte
//! hello exchange, then request/response frames), enforce the same
//! connection budget with typed
//! [`ErrorCode::ServerBusy`](crate::wire::ErrorCode::ServerBusy)
//! refusals, and dispatch every decoded request through one
//! [`RequestHandler`] — so a campaign produces **bit-identical** results
//! whichever front end carried its bytes (pinned by the e2e suites).
//!
//! * [`IoModel::Reactor`] (the default): N reactor threads — one per
//!   core — each multiplexing its share of nonblocking connections with
//!   `poll(2)` readiness, reading through a per-connection incremental
//!   [`FrameDecoder`] so a torn frame never blocks a thread. Thousands
//!   of intermittently-connected submitters cost file descriptors, not
//!   stacks. The reactor owns two per-connection deadlines: a short
//!   **stall** deadline for a peer mid-hello or mid-frame (the
//!   slow-loris shape) and a longer **idle** deadline between frames;
//!   either expiry reclaims the connection slot.
//! * [`IoModel::Threads`]: the original thread-per-connection loop,
//!   kept both as the bit-equivalence baseline and for debuggability.
//!   Every accepted socket gets read/write timeouts equal to the idle
//!   deadline, so a stalled peer pins its worker for at most one
//!   deadline instead of forever.
//!
//! Pipelined submission ([`Request::SubmitReportsStream`]) is handled
//! here rather than in the handlers because its cumulative-ack protocol
//! is **per-connection** state: the front end accepts only the next
//! in-order batch sequence number, translates the batch into an
//! ordinary `SubmitReports` for the handler, and answers every batch
//! frame with a [`Response::SubmitAcked`] — acks stay paired one-to-one
//! with request frames, which is what lets both I/O models (and the
//! blocking client) share one protocol.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
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

/// Which I/O model the front end runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoModel {
    /// Event-driven: N poll-based reactor threads multiplexing
    /// nonblocking connections (the default).
    #[default]
    Reactor,
    /// One blocking worker thread per connection, with socket
    /// read/write timeouts standing in for the reactor's deadlines.
    Threads,
}

impl std::str::FromStr for IoModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "reactor" => Ok(IoModel::Reactor),
            "threads" => Ok(IoModel::Threads),
            other => Err(format!(
                "unknown io model `{other}` (expected `reactor` or `threads`)"
            )),
        }
    }
}

impl std::fmt::Display for IoModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IoModel::Reactor => "reactor",
            IoModel::Threads => "threads",
        })
    }
}

/// I/O-model selection and connection deadlines — the knobs shared by
/// `dptd serve` and `dptd cluster serve`.
#[derive(Debug, Clone, Copy)]
pub struct IoConfig {
    /// Which front end carries connections.
    pub io_model: IoModel,
    /// Reactor threads under [`IoModel::Reactor`]; `0` = one per
    /// available core (capped at 8). Ignored under threads.
    pub reactor_threads: usize,
    /// How long a connection may sit with **no frame in progress**
    /// before it is reclaimed. Under threads this doubles as the
    /// socket read/write timeout (one knob for both deadline kinds).
    pub idle_timeout: Duration,
    /// How long a connection may sit **mid-hello or mid-frame** —
    /// the slow-loris shape — before it is reclaimed. Reactor only;
    /// must not exceed `idle_timeout`.
    pub stall_timeout: Duration,
}

impl Default for IoConfig {
    /// Reactor, one thread per core, 60 s idle / 10 s stall.
    fn default() -> Self {
        Self {
            io_model: IoModel::Reactor,
            reactor_threads: 0,
            idle_timeout: Duration::from_secs(60),
            stall_timeout: Duration::from_secs(10),
        }
    }
}

/// Front-end configuration: where to listen, how many connections to
/// admit, and the I/O model.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub listen: String,
    /// Connection budget: live connections past this are refused with
    /// a typed `ServerBusy` frame, never queued.
    pub max_connections: usize,
    /// I/O model and deadlines.
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

/// Live connections under the threads model: the stream (so shutdown
/// can force an EOF under a blocked worker) paired with its worker's
/// handle (so shutdown joins).
type ConnectionList = Arc<Mutex<Vec<(Arc<TcpStream>, JoinHandle<()>)>>>;

/// Connection accounting shared by both I/O models. Under the reactor
/// model `live` **is** the shared admission budget (the same atomic
/// every reactor checks at accept), so the gauge can never drift from
/// the number the budget actually enforces. Surfaced by the
/// observability plane as `server.conn.*`.
#[derive(Debug, Default)]
pub struct FrontendStats {
    /// Connections live right now.
    pub live: AtomicUsize,
    /// Connections accepted since the front end started.
    pub accepted: AtomicU64,
    /// Connections refused at accept because the budget was full (or a
    /// worker could not be spawned under the threads model).
    pub refused: AtomicU64,
}

/// A running connection front end. Owners hand it an
/// `Arc<dyn RequestHandler>` at start and call [`Frontend::stop`] (or
/// drop it) to tear down every thread and connection.
#[derive(Debug)]
pub struct Frontend {
    addr: SocketAddr,
    io_model: IoModel,
    io_threads: usize,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    connections: ConnectionList,
    stats: Arc<FrontendStats>,
}

impl Frontend {
    /// Bind `config.listen` and start serving `handler` under the
    /// configured I/O model.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] when the address cannot be bound or the
    /// I/O threads cannot be spawned.
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

        let stop = Arc::new(AtomicBool::new(false));
        let connections: ConnectionList = Arc::new(Mutex::new(Vec::new()));
        let max_connections = config.max_connections.max(1);
        let stats = Arc::new(FrontendStats::default());

        let mut threads = Vec::new();
        let io_threads = match config.io.io_model {
            IoModel::Threads => {
                let accept = AcceptLoop {
                    handler,
                    stop: Arc::clone(&stop),
                    connections: Arc::clone(&connections),
                    max_connections,
                    io_timeout: config.io.idle_timeout,
                    thread_name: config.thread_name,
                    stats: Arc::clone(&stats),
                };
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("{}-accept", config.thread_name))
                        .spawn(move || accept.run(listener))
                        .map_err(|e| io_err("spawn acceptor", e))?,
                );
                1
            }
            IoModel::Reactor => {
                listener
                    .set_nonblocking(true)
                    .map_err(|e| io_err("set listener nonblocking", e))?;
                let listener = Arc::new(listener);
                let n = reactor_count(config.io.reactor_threads);
                for i in 0..n {
                    let reactor = Reactor {
                        listener: Arc::clone(&listener),
                        handler: Arc::clone(&handler),
                        stop: Arc::clone(&stop),
                        stats: Arc::clone(&stats),
                        max_connections,
                        idle_timeout: config.io.idle_timeout,
                        stall_timeout: config.io.stall_timeout.min(config.io.idle_timeout),
                    };
                    threads.push(
                        std::thread::Builder::new()
                            .name(format!("{}-reactor-{i}", config.thread_name))
                            .spawn(move || reactor.run())
                            .map_err(|e| io_err("spawn reactor", e))?,
                    );
                }
                n
            }
        };

        Ok(Self {
            addr,
            io_model: config.io.io_model,
            io_threads,
            stop,
            threads,
            connections,
            stats,
        })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Which I/O model is serving.
    pub fn io_model(&self) -> IoModel {
        self.io_model
    }

    /// How many I/O threads carry connections: the reactor count, or
    /// `1` (the acceptor) under threads — workers there scale with
    /// connections and are exactly what the reactor model avoids.
    pub fn io_threads(&self) -> usize {
        self.io_threads
    }

    /// Connection accounting, shared with the I/O threads — readable
    /// live while the front end serves.
    pub fn stats(&self) -> Arc<FrontendStats> {
        Arc::clone(&self.stats)
    }

    /// Stop accepting, close every connection, and join every thread.
    /// Idempotent; also runs on drop.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock a blocking acceptor (and hasten a reactor tick) with
        // a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // Threads model: force-close live connections so blocked
        // workers see EOF, then join them.
        let conns = std::mem::take(
            &mut *self
                .connections
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for (stream, handle) in conns {
            let _ = stream.shutdown(Shutdown::Both);
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

/// Answer one decoded request, routing pipelined-submit batches through
/// the per-connection cumulative-ack protocol. `next_seq` is the
/// connection's stream cursor: the only batch number accepted is the
/// next in-order one, so the handler — and therefore the campaign —
/// sees reports in exactly the order the client sent them, pipelined or
/// not.
fn dispatch(handler: &dyn RequestHandler, next_seq: &mut u64, request: Request) -> Response {
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
            match handler.handle(Request::SubmitReports {
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
        other => handler.handle(other),
    }
}

/// Encode a handler's reply for the socket — both I/O models send
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
// Threads model
// ---------------------------------------------------------------------

struct AcceptLoop {
    handler: Arc<dyn RequestHandler>,
    stop: Arc<AtomicBool>,
    connections: ConnectionList,
    max_connections: usize,
    io_timeout: Duration,
    thread_name: &'static str,
    stats: Arc<FrontendStats>,
}

impl AcceptLoop {
    fn run(&self, listener: TcpListener) {
        for incoming in listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = incoming else { continue };
            let _ = stream.set_nodelay(true);
            // The slow-client fix for this model: every accepted socket
            // gets read/write timeouts, so a peer that goes silent
            // mid-hello or mid-frame pins its worker for at most one
            // deadline before the slot is reclaimed.
            let _ = stream.set_read_timeout(Some(self.io_timeout));
            let _ = stream.set_write_timeout(Some(self.io_timeout));

            // The list is (stream, handle) bookkeeping only; a poisoned
            // guard is recoverable.
            let mut conns = self
                .connections
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            // Reap finished workers so the budget counts only live
            // connections — this is also what returns the slot of a
            // handshake-failed (bad hello) worker to the budget.
            let mut live = Vec::with_capacity(conns.len());
            for (s, h) in conns.drain(..) {
                if h.is_finished() {
                    let _ = h.join();
                } else {
                    live.push((s, h));
                }
            }
            *conns = live;

            if conns.len() >= self.max_connections {
                // Over the worker budget: refuse with a typed frame
                // instead of queueing or hanging.
                self.stats.refused.fetch_add(1, Ordering::Relaxed);
                refuse_busy(&stream, self.max_connections);
                continue;
            }

            let stream = Arc::new(stream);
            let worker_stream = Arc::clone(&stream);
            let worker_handler = Arc::clone(&self.handler);
            let worker_stats = Arc::clone(&self.stats);
            match std::thread::Builder::new()
                .name(format!("{}-conn", self.thread_name))
                .spawn(move || {
                    serve_blocking(&worker_stream, &*worker_handler);
                    // Close the TCP side eagerly: the acceptor's
                    // bookkeeping still holds the stream handle until
                    // the next reap, and the peer must see EOF when its
                    // worker is done, not later.
                    let _ = worker_stream.shutdown(Shutdown::Both);
                    worker_stats.live.fetch_sub(1, Ordering::SeqCst);
                }) {
                Ok(handle) => {
                    self.stats.live.fetch_add(1, Ordering::SeqCst);
                    self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    conns.push((stream, handle));
                }
                Err(_) => {
                    self.stats.refused.fetch_add(1, Ordering::Relaxed);
                    // Out of threads is load, not a protocol violation:
                    // refuse this connection like an over-budget one
                    // instead of killing the acceptor (and with it every
                    // live connection's shutdown path).
                    let mut s = &*stream;
                    let frame = Response::Error {
                        code: ErrorCode::ServerBusy,
                        message: "server cannot spawn a connection worker".to_string(),
                    }
                    .encode();
                    let _ = write_frame(&mut s, &frame);
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
        }
    }
}

/// One blocking connection worker: hello exchange, then a
/// request/response loop until the peer closes, dies mid-frame,
/// desynchronises, or trips the socket timeout.
fn serve_blocking(stream: &Arc<TcpStream>, handler: &dyn RequestHandler) {
    let mut reader: &TcpStream = stream;
    let mut writer: &TcpStream = stream;

    // Hello: the client leads; anything else is not our protocol.
    let mut hello = [0u8; wire::HELLO.len()];
    if reader.read_exact(&mut hello).is_err() || hello != wire::HELLO {
        let frame = Response::Error {
            code: ErrorCode::InvalidRequest,
            message: "expected the dptd v1 hello".to_string(),
        }
        .encode();
        let _ = write_frame(&mut writer, &frame);
        return;
    }
    if writer.write_all(&wire::HELLO).is_err() {
        return;
    }

    let mut next_seq = 0u64;
    loop {
        match crate::server::read_frame_body(&mut reader) {
            Ok(None) => return, // clean close
            Ok(Some(body)) => {
                // A well-framed body that fails to decode leaves the
                // stream in sync: reply with a typed error and keep
                // serving.
                let response = match Request::decode(&body) {
                    Ok(request) => dispatch(handler, &mut next_seq, request),
                    Err(e) => Response::Error {
                        code: ErrorCode::InvalidRequest,
                        message: e.to_string(),
                    },
                };
                if write_frame(&mut writer, &encode_reply(&response)).is_err() {
                    return;
                }
            }
            Err(ServerError::Wire(e)) => {
                // Header or checksum violation: sync with the peer is
                // lost, so answer once and hang up.
                let frame = Response::Error {
                    code: ErrorCode::InvalidRequest,
                    message: e.to_string(),
                }
                .encode();
                let _ = write_frame(&mut writer, &frame);
                return;
            }
            // I/O failure, a peer that died mid-frame (torn write), or
            // the socket timeout firing on a stalled peer: nothing
            // sensible to reply to, and the slot must come back.
            Err(_) => return,
        }
    }
}

// ---------------------------------------------------------------------
// Reactor model
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

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded-but-unflushed response bytes.
    outbuf: Vec<u8>,
    out_pos: usize,
    /// Hello bytes received so far (a connection is mid-hello until 8).
    hello_got: usize,
    hello_buf: [u8; 8],
    last_activity: Instant,
    /// Pipelined-submit stream cursor (next in-order batch seq).
    next_seq: u64,
    /// Flush `outbuf`, then begin the lingering close.
    closing: bool,
    /// Write side is shut; discard reads until the peer closes (so a
    /// final error frame is not destroyed by a reset-on-close while
    /// unread request bytes sit in our receive buffer).
    draining: bool,
    /// Remove this connection at the end of the pass.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Self {
            stream,
            decoder: FrameDecoder::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            hello_got: 0,
            hello_buf: [0u8; 8],
            last_activity: now,
            next_seq: 0,
            closing: false,
            draining: false,
            dead: false,
        }
    }

    fn has_output(&self) -> bool {
        self.out_pos < self.outbuf.len()
    }

    /// Mid-hello or mid-frame: the *stall* deadline applies (a draining
    /// connection is also on the short clock — it owes us nothing).
    fn is_stalled_shape(&self) -> bool {
        self.hello_got < wire::HELLO.len() || self.decoder.has_partial() || self.draining
    }

    /// Queue an encoded frame behind whatever is still unflushed. With
    /// nothing unflushed — every request/reply exchange — the frame
    /// *becomes* the output buffer: a multi-megabyte reply is not
    /// copied once more on its way to the socket.
    fn queue(&mut self, frame: Vec<u8>) {
        if self.has_output() {
            self.outbuf.extend_from_slice(&frame);
        } else {
            self.outbuf = frame;
            self.out_pos = 0;
        }
    }

    /// Queue a final error frame and begin the close sequence.
    fn refuse_and_close(&mut self, code: ErrorCode, message: String) {
        self.queue(Response::Error { code, message }.encode());
        self.closing = true;
    }
}

struct Reactor {
    listener: Arc<TcpListener>,
    handler: Arc<dyn RequestHandler>,
    stop: Arc<AtomicBool>,
    /// Shared across *all* reactors; `stats.live` is the admission
    /// budget.
    stats: Arc<FrontendStats>,
    max_connections: usize,
    idle_timeout: Duration,
    stall_timeout: Duration,
}

impl Reactor {
    fn run(&self) {
        let mut conns: Vec<Conn> = Vec::new();
        let mut pollfds: Vec<libc::pollfd> = Vec::new();
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }

            pollfds.clear();
            pollfds.push(libc::pollfd {
                fd: raw_fd(&*self.listener),
                events: libc::POLLIN,
                revents: 0,
            });
            for conn in &conns {
                let mut events = 0;
                let throttled = conn.outbuf.len() - conn.out_pos > OUTBUF_HIGH_WATER;
                if !conn.closing && !throttled || conn.draining {
                    events |= libc::POLLIN;
                }
                if conn.has_output() {
                    events |= libc::POLLOUT;
                }
                pollfds.push(libc::pollfd {
                    fd: raw_fd(&conn.stream),
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

            // I/O pass: pollfds[i + 1] describes conns[i]. Connections
            // accepted below are appended past this range and first
            // polled next tick.
            let polled = conns.len();
            let now = Instant::now();
            for (i, conn) in conns.iter_mut().enumerate().take(polled) {
                let revents = pollfds[i + 1].revents;
                if revents & (libc::POLLERR | libc::POLLNVAL) != 0 {
                    conn.dead = true;
                    continue;
                }
                if revents & (libc::POLLIN | libc::POLLHUP) != 0 {
                    if conn.draining {
                        drain_reads(conn);
                    } else {
                        read_and_serve(conn, &*self.handler, now);
                    }
                }
                if !conn.dead && conn.has_output() {
                    flush_output(conn, now);
                }
                if !conn.dead && conn.closing && !conn.draining && !conn.has_output() {
                    // Output flushed: shut our write side and linger
                    // until the peer closes, bounded by the stall
                    // deadline below.
                    conn.draining = true;
                    if conn.stream.shutdown(Shutdown::Write).is_err() {
                        conn.dead = true;
                    }
                }
            }

            // Deadline sweep: reclaim stalled and idle connections.
            for conn in &mut conns {
                if conn.dead {
                    continue;
                }
                let limit = if conn.is_stalled_shape() {
                    self.stall_timeout
                } else {
                    self.idle_timeout
                };
                if now.duration_since(conn.last_activity) > limit {
                    conn.dead = true;
                }
            }

            let before = conns.len();
            conns.retain(|c| !c.dead);
            let reclaimed = before - conns.len();
            if reclaimed > 0 {
                self.stats.live.fetch_sub(reclaimed, Ordering::SeqCst);
            }

            if pollfds[0].revents & libc::POLLIN != 0 {
                self.accept_ready(&mut conns);
            }
        }

        // Shutdown: every reactor closes its own connections.
        let count = conns.len();
        for conn in &conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.stats.live.fetch_sub(count, Ordering::SeqCst);
    }

    /// Accept everything currently pending. All reactors poll the one
    /// listener; losers of an accept race see `WouldBlock`, which is
    /// how connections spread across reactor threads without handoff.
    fn accept_ready(&self, conns: &mut Vec<Conn>) {
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
            conns.push(Conn::new(stream, Instant::now()));
        }
    }
}

/// Read to `WouldBlock`, feed the hello then the frame decoder, and
/// serve every complete frame inline.
fn read_and_serve(conn: &mut Conn, handler: &dyn RequestHandler, now: Instant) {
    let mut buf = [0u8; 16 * 1024];
    let mut saw_eof = false;
    loop {
        let budget = conn.decoder.read_budget().min(buf.len());
        if budget == 0 {
            break;
        }
        match (&conn.stream).read(&mut buf[..budget]) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => {
                conn.last_activity = now;
                let mut bytes = &buf[..n];
                if conn.hello_got < wire::HELLO.len() {
                    let take = (wire::HELLO.len() - conn.hello_got).min(bytes.len());
                    conn.hello_buf[conn.hello_got..conn.hello_got + take]
                        .copy_from_slice(&bytes[..take]);
                    conn.hello_got += take;
                    bytes = &bytes[take..];
                    if conn.hello_got == wire::HELLO.len() {
                        if conn.hello_buf != wire::HELLO {
                            conn.refuse_and_close(
                                ErrorCode::InvalidRequest,
                                "expected the dptd v1 hello".to_string(),
                            );
                            return;
                        }
                        conn.queue(wire::HELLO.to_vec());
                    }
                }
                if !bytes.is_empty() {
                    conn.decoder.extend(bytes);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }

    loop {
        match conn.decoder.next_frame() {
            Ok(Some(body)) => {
                // A well-framed body that fails to decode leaves the
                // stream in sync: typed error, keep serving.
                let response = match Request::decode(&body) {
                    Ok(request) => dispatch(handler, &mut conn.next_seq, request),
                    Err(e) => Response::Error {
                        code: ErrorCode::InvalidRequest,
                        message: e.to_string(),
                    },
                };
                conn.queue(encode_reply(&response));
            }
            Ok(None) => break,
            Err(e) => {
                // Framing is lost: answer once, then close.
                conn.refuse_and_close(ErrorCode::InvalidRequest, e.to_string());
                break;
            }
        }
    }

    if saw_eof && !conn.closing {
        if conn.decoder.has_partial() {
            // Torn write then death: nothing sensible to reply to.
            conn.dead = true;
        } else {
            // Clean close at a frame boundary: flush replies, then go.
            conn.closing = true;
        }
    }
}

/// Lingering close: discard request bytes until the peer closes.
fn drain_reads(conn: &mut Conn) {
    let mut buf = [0u8; 4096];
    loop {
        match (&conn.stream).read(&mut buf) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(_) => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Write queued response bytes to `WouldBlock`.
fn flush_output(conn: &mut Conn, now: Instant) {
    while conn.has_output() {
        match (&conn.stream).write(&conn.outbuf[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.out_pos += n;
                conn.last_activity = now;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.has_output() {
        // Partially flushed: drop the flushed prefix only once it is at
        // least half the buffer (the decoder's compaction rule), so the
        // memmoves over a large reply's unsent remainder stay linear in
        // its size instead of one per partial write.
        if conn.out_pos >= COMPACT_THRESHOLD && conn.out_pos * 2 >= conn.outbuf.len() {
            conn.outbuf.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
    } else {
        conn.outbuf.clear();
        conn.out_pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_model_parses_and_displays() {
        assert_eq!("reactor".parse::<IoModel>().unwrap(), IoModel::Reactor);
        assert_eq!("threads".parse::<IoModel>().unwrap(), IoModel::Threads);
        assert!("epoll".parse::<IoModel>().is_err());
        assert_eq!(IoModel::Reactor.to_string(), "reactor");
        assert_eq!(IoModel::Threads.to_string(), "threads");
        assert_eq!(IoModel::default(), IoModel::Reactor);
    }

    #[test]
    fn reactor_count_clamps_and_respects_overrides() {
        assert_eq!(reactor_count(3), 3);
        let auto = reactor_count(0);
        assert!((1..=8).contains(&auto), "auto count {auto} out of range");
    }

    /// A multi-megabyte reply crosses a socket whose reader takes 64 KB
    /// at a time: every partial write leaves an unsent remainder that
    /// `flush_output` must neither lose nor reorder while it compacts.
    #[test]
    fn a_large_reply_survives_partial_writes_intact() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut reader = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let now = Instant::now();
        let mut conn = Conn::new(stream, now);

        let reply: Vec<u8> = (0..4usize << 20).map(|i| (i * 31 % 251) as u8).collect();
        // A small frame already unflushed: the large one queues behind
        // it instead of replacing it.
        conn.queue(wire::HELLO.to_vec());
        conn.queue(reply.clone());
        let mut received = Vec::with_capacity(wire::HELLO.len() + reply.len());
        let mut chunk = vec![0u8; 64 << 10];
        while received.len() < wire::HELLO.len() + reply.len() {
            flush_output(&mut conn, now);
            assert!(!conn.dead);
            let n = reader.read(&mut chunk).unwrap();
            assert!(n > 0, "peer closed early");
            received.extend_from_slice(&chunk[..n]);
        }
        flush_output(&mut conn, now);
        assert!(!conn.has_output());
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
            let ack = dispatch(&Canned, &mut next, stream_batch("c", seq));
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
        let ack = dispatch(&Canned, &mut next, stream_batch("full", 5));
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
        let ack = dispatch(&Canned, &mut next, stream_batch("c", 6));
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
        let ack = dispatch(&Canned, &mut next, stream_batch("gone", 0));
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
}
