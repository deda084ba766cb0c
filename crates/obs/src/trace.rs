//! Low-overhead event tracing: fixed-capacity per-thread ring buffers
//! of timestamped structured events, with Dapper-style causal context.
//!
//! Each event is `(timestamp ns, kind, code, arg)` — a span begin/end
//! or an instant, a small [`codes`] constant naming the site, and one
//! `u64` argument (an epoch, a report count, …) — plus an optional
//! [`SpanContext`]: a `u64` trace id shared by every span of one
//! logical operation and a deterministic span id linking children to
//! parents, across threads **and across processes** (the wire protocol
//! carries contexts on submit and barrier frames). Recording is a few
//! relaxed atomic stores into a pre-allocated thread-local ring: no
//! locks, no allocation, and while tracing is disabled every site costs
//! exactly one relaxed load. Rings register themselves in a global list
//! on first use, so [`dump_chrome_json`] can render every thread's
//! recent history as chrome://tracing-compatible JSON (open it at
//! `chrome://tracing` or <https://ui.perfetto.dev>). A thread that exits
//! hands its ring to the next thread that records, so the scoped threads
//! spawned every round do not grow the list.
//!
//! Span ids are **deterministic**: a child's id is an FNV-1a mix of
//! `(trace id, parent span id, code, arg)`, so two runs of the same
//! round produce bit-identical dumps — what lets the cluster-trace e2e
//! golden-compare merged timelines.
//!
//! Dumps are meant to be taken quiescent (after a run, or from a
//! diagnostics command); a dump raced with live recorders may catch a
//! torn slot, which shows up as one bogus event, never a crash.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Event codes: which instrumented site produced an event. Codes are
/// stable across runs (they appear in trace dumps and the README).
pub mod codes {
    /// An engine round's close: its shards finished and merged (span;
    /// arg = shards).
    pub const ROUND: u32 = 1;
    // 2 was the engine router's `route` span; it is retired: never reuse it.
    /// One thread's run of shards filtering a staged batch or finishing
    /// an epoch (span; arg = shards in the run).
    pub const FILTER: u32 = 3;
    /// The canonical cross-shard merge (span, per epoch).
    pub const MERGE: u32 = 4;
    /// Durable WAL append of a committed round (span).
    pub const COMMIT: u32 = 5;
    /// A submission batch entering a campaign queue (instant; arg =
    /// reports in the batch).
    pub const SUBMIT: u32 = 6;
    /// A batch refused at the bounded queue (instant; arg = queue cap).
    pub const QUEUE_FULL: u32 = 7;
    /// A report batch entering the engine's round filter (instant; arg
    /// = count): a submit batch as a served campaign or a cluster node
    /// stages it.
    pub const DEQUEUE: u32 = 8;
    /// A cluster barrier prepare phase (span; arg = epoch).
    pub const BARRIER_PREPARE: u32 = 9;
    /// A cluster barrier commit phase (span; arg = epoch).
    pub const BARRIER_COMMIT: u32 = 10;
    /// A node's barrier prepare checking the coordinator's refusal set
    /// (span; arg = epoch). Building the reply is `node.reply`.
    pub const NODE_DRAIN: u32 = 11;
    /// A node durably committing its slice of a merged round (span;
    /// arg = epoch).
    pub const NODE_COMMIT: u32 = 12;
    /// Ring-wrap marker synthesized into dumps (instant; arg = events
    /// the ring overwrote). Never recorded by an instrumented site.
    pub const TRUNCATED: u32 = 13;
    /// Hashing a round's weights digest on its own thread: beside a
    /// durable engine round's `commit` append, or on a cluster
    /// coordinator under `barrier.commit` while the nodes' acks are
    /// awaited (span; arg = epoch).
    pub const DIGEST: u32 = 14;
    /// A cluster coordinator fanning a round's reports out to its nodes
    /// (span; arg = epoch). The nodes' `submit` instants parent under it.
    pub const CLUSTER_SUBMIT: u32 = 15;
    /// A cluster node building its `Prepared` reply from its round
    /// filter, after `node.drain` (span; arg = epoch).
    pub const NODE_REPLY: u32 = 16;
    /// A cluster coordinator reading and decoding one node's reply in
    /// a fan-out: under `barrier.prepare` or `barrier.commit`, or while
    /// it opens the campaign (span; arg = node id).
    pub const BARRIER_REPLY: u32 = 17;
    /// Filtering one batch into a round filter before the round closes:
    /// a server's or a node's submit batch on the thread that decoded
    /// it, or a whole round handed to the engine (span; arg = reports).
    pub const STAGE: u32 = 18;

    /// The human-readable name of a code (for dumps and docs).
    pub fn name(code: u32) -> &'static str {
        match code {
            ROUND => "round",
            FILTER => "filter",
            MERGE => "merge",
            COMMIT => "commit",
            SUBMIT => "submit",
            QUEUE_FULL => "queue_full",
            DEQUEUE => "dequeue",
            BARRIER_PREPARE => "barrier.prepare",
            BARRIER_COMMIT => "barrier.commit",
            NODE_DRAIN => "node.drain",
            NODE_COMMIT => "node.commit",
            TRUNCATED => "truncated",
            DIGEST => "digest",
            CLUSTER_SUBMIT => "cluster.submit",
            NODE_REPLY => "node.reply",
            BARRIER_REPLY => "barrier.reply",
            STAGE => "stage",
            _ => "unknown",
        }
    }
}

/// Events each thread's ring retains (older events are overwritten).
pub const RING_CAPACITY: usize = 4096;

const KIND_BEGIN: u64 = 0;
const KIND_END: u64 = 1;
const KIND_INSTANT: u64 = 2;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn tracing on or off globally. Off is the default; while off,
/// every instrumented site costs one relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process trace epoch: the `Instant` all ring timestamps count
/// from, paired with the wall clock captured at the same moment (ns
/// since the Unix epoch) so dumps from different processes can be
/// aligned on one timeline.
fn epoch() -> &'static (Instant, u64) {
    static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();
    EPOCH.get_or_init(|| {
        let wall = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        (Instant::now(), wall)
    })
}

/// Wall-clock nanoseconds (since the Unix epoch) at the moment this
/// process's trace epoch was captured. `ts_ns + wall_anchor_ns()` puts
/// an event on the shared wall timeline — the basis for merging trace
/// dumps from several processes into one clock-aligned view.
pub fn wall_anchor_ns() -> u64 {
    epoch().1
}

#[inline]
fn now_ns() -> u64 {
    u64::try_from(epoch().0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// FNV-1a over a sequence of little-endian `u64`s — the deterministic
/// mix behind trace and span ids.
fn fnv1a_u64s(parts: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for b in part.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Causal trace context: which trace an event belongs to and which span
/// produced it. `trace_id == 0` means "no context" (the plain,
/// unpropagated tracing mode); real ids are never zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// Identifies one logical operation (e.g. one cluster round) across
    /// every process it touches. Zero = no context.
    pub trace_id: u64,
    /// The span that is current under this context — children derive
    /// their own ids from it and record it as their parent.
    pub span_id: u64,
}

impl SpanContext {
    /// Derive a deterministic root context for a named operation (e.g.
    /// `("campaign-id", epoch)` for one cluster round). The same inputs
    /// always yield the same ids, so traced runs stay reproducible.
    pub fn root(name: &str, seq: u64) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let trace_id = nonzero(fnv1a_u64s(&[h, seq]));
        let span_id = nonzero(fnv1a_u64s(&[trace_id, seq, 1]));
        Self { trace_id, span_id }
    }

    /// The deterministic child span id a [`TraceScope`] for `code` with
    /// argument `arg` gets under this context.
    pub fn child_span_id(&self, code: u32, arg: u64) -> u64 {
        nonzero(fnv1a_u64s(&[
            self.trace_id,
            self.span_id,
            u64::from(code),
            arg,
        ]))
    }
}

fn nonzero(id: u64) -> u64 {
    if id == 0 {
        1
    } else {
        id
    }
}

thread_local! {
    /// The ambient span context: what [`TraceScope`]s and wire clients
    /// on this thread inherit as their parent.
    static CURRENT: Cell<Option<SpanContext>> = const { Cell::new(None) };
}

/// The thread's ambient span context, if any — what a child span or an
/// outgoing wire frame should use as its parent.
pub fn current() -> Option<SpanContext> {
    CURRENT.with(Cell::get)
}

/// Install `ctx` as the thread's ambient context until the returned
/// guard drops (which restores whatever was ambient before). This is
/// how a server thread adopts the context a wire frame carried, and how
/// engine stages re-enter the caller's context on spawned threads.
pub fn enter(ctx: SpanContext) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(Some(ctx)));
    ContextGuard { prev }
}

/// RAII guard from [`enter`]: restores the previous ambient context on
/// drop.
#[derive(Debug)]
#[must_use = "dropping the guard immediately undoes enter()"]
pub struct ContextGuard {
    prev: Option<SpanContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

#[derive(Debug)]
struct Slot {
    /// Timestamp in ns since the process trace epoch.
    ts_ns: AtomicU64,
    /// `kind << 32 | code`.
    kind_code: AtomicU64,
    arg: AtomicU64,
    /// The event's trace id (0 = no context).
    trace_id: AtomicU64,
    /// The span this event belongs to (0 for contextless events and
    /// instants, which hang off their parent instead).
    span_id: AtomicU64,
    /// The parent span (0 = root or no context).
    parent_span: AtomicU64,
}

#[derive(Debug)]
struct Ring {
    /// Stable per-ring id, used as the `tid` in chrome dumps. A ring
    /// passes from an exited thread to the next one that records, so
    /// one id may name several threads that never overlapped.
    tid: u64,
    /// Total events ever written; the ring holds the last
    /// `RING_CAPACITY` of them.
    head: AtomicUsize,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(tid: u64) -> Self {
        Self {
            tid,
            head: AtomicUsize::new(0),
            slots: (0..RING_CAPACITY)
                .map(|_| Slot {
                    ts_ns: AtomicU64::new(0),
                    kind_code: AtomicU64::new(0),
                    arg: AtomicU64::new(0),
                    trace_id: AtomicU64::new(0),
                    span_id: AtomicU64::new(0),
                    parent_span: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    #[inline]
    fn push(&self, kind: u64, code: u32, arg: u64, ctx: [u64; 3]) {
        // Relaxed everywhere: each ring has exactly one writer (its
        // thread); dumps are quiescent reads.
        let i = self.head.fetch_add(1, Ordering::Relaxed) % RING_CAPACITY;
        let slot = &self.slots[i];
        slot.ts_ns.store(now_ns(), Ordering::Relaxed);
        slot.kind_code
            .store((kind << 32) | u64::from(code), Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
        slot.trace_id.store(ctx[0], Ordering::Relaxed);
        slot.span_id.store(ctx[1], Ordering::Relaxed);
        slot.parent_span.store(ctx[2], Ordering::Relaxed);
    }

    /// Events this ring has overwritten (its wrap is silent at record
    /// time; dumps report it).
    fn dropped(&self) -> u64 {
        self.head
            .load(Ordering::Relaxed)
            .saturating_sub(RING_CAPACITY) as u64
    }
}

/// Every ring ever registered.
fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registered rings whose threads have exited, for the next thread that
/// records.
fn free_rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static FREE: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    FREE.get_or_init(|| Mutex::new(Vec::new()))
}

/// A recording thread's ring, handed back to [`free_rings`] when the
/// thread exits, so short-lived threads reuse rings instead of
/// registering one each. Its retained events stay readable until the
/// next owner overwrites them; the free list's lock orders the old
/// owner's writes before the new owner's.
struct Lease(Arc<Ring>);

impl Drop for Lease {
    fn drop(&mut self) {
        free_rings()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&self.0));
    }
}

thread_local! {
    static LOCAL_RING: Lease = {
        let reused = free_rings()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        Lease(reused.unwrap_or_else(|| {
            static NEXT_TID: AtomicU64 = AtomicU64::new(1);
            let ring = Arc::new(Ring::new(NEXT_TID.fetch_add(1, Ordering::Relaxed)));
            rings()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Arc::clone(&ring));
            ring
        }))
    };
}

#[inline]
fn push(kind: u64, code: u32, arg: u64, ctx: [u64; 3]) {
    LOCAL_RING.with(|lease| lease.0.push(kind, code, arg, ctx));
}

/// Record an instant event (if tracing is enabled). Under an ambient
/// context the instant hangs off the current span (its `parent_span`),
/// so a submit instant on a server thread links to the batch's trace.
#[inline]
pub fn instant(code: u32, arg: u64) {
    if enabled() {
        let ctx = match current() {
            Some(c) => [c.trace_id, 0, c.span_id],
            None => [0, 0, 0],
        };
        push(KIND_INSTANT, code, arg, ctx);
    }
}

/// An RAII span: records a begin event on construction and the matching
/// end event on drop. When tracing is disabled, both are one relaxed
/// load and nothing else.
///
/// Under an ambient [`SpanContext`] (installed by [`enter`], a parent
/// `TraceScope`, or the wire layer) the span derives a deterministic
/// child id, records its parent edge, and installs **itself** as the
/// ambient context for its lifetime — nested spans and outgoing wire
/// frames link automatically, with no signature changes at call sites.
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in"]
pub struct TraceScope {
    code: u32,
    armed: bool,
    /// This span's context while armed and under a trace (zeros
    /// otherwise).
    ctx: [u64; 3],
    /// The ambient context to restore on drop (only meaningful when
    /// this span installed itself).
    prev: Option<SpanContext>,
}

impl TraceScope {
    /// Open a span for `code` with argument `arg`.
    #[inline]
    pub fn begin(code: u32, arg: u64) -> Self {
        let armed = enabled();
        if !armed {
            return Self {
                code,
                armed,
                ctx: [0, 0, 0],
                prev: None,
            };
        }
        let parent = current();
        let ctx = match parent {
            Some(p) => {
                let own = SpanContext {
                    trace_id: p.trace_id,
                    span_id: p.child_span_id(code, arg),
                };
                CURRENT.with(|c| c.set(Some(own)));
                [p.trace_id, own.span_id, p.span_id]
            }
            None => [0, 0, 0],
        };
        push(KIND_BEGIN, code, arg, ctx);
        Self {
            code,
            armed,
            ctx,
            prev: parent,
        }
    }

    /// This span's context (for handing to spawned threads or wire
    /// frames explicitly). `None` when the span is unarmed or carries
    /// no trace.
    pub fn context(&self) -> Option<SpanContext> {
        if self.armed && self.ctx[0] != 0 {
            Some(SpanContext {
                trace_id: self.ctx[0],
                span_id: self.ctx[1],
            })
        } else {
            None
        }
    }
}

impl Drop for TraceScope {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            push(KIND_END, self.code, 0, self.ctx);
            if self.ctx[0] != 0 {
                CURRENT.with(|c| c.set(self.prev));
            }
        }
    }
}

/// Reset every registered ring (drops retained events; rings stay
/// registered). Used by tests and by `dptd trace` between runs.
pub fn reset() {
    let rings = rings().lock().unwrap_or_else(PoisonError::into_inner);
    for ring in rings.iter() {
        ring.head.store(0, Ordering::Relaxed);
    }
}

/// One decoded trace event (for programmatic inspection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Ring (thread) id.
    pub tid: u64,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// `'B'` (span begin), `'E'` (span end) or `'i'` (instant).
    pub phase: char,
    /// The [`codes`] constant for the site.
    pub code: u32,
    /// The event's argument.
    pub arg: u64,
    /// The trace this event belongs to (0 = no context).
    pub trace_id: u64,
    /// The event's own span id (0 for instants and contextless spans).
    pub span_id: u64,
    /// The parent span id (0 = root or no context).
    pub parent_span: u64,
}

/// Decode every registered ring's retained events, oldest first per
/// ring, then sorted by timestamp across rings.
pub fn collect() -> Vec<TraceEvent> {
    let rings: Vec<Arc<Ring>> = rings()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let mut events = Vec::new();
    for ring in rings {
        let written = ring.head.load(Ordering::Relaxed);
        let retained = written.min(RING_CAPACITY);
        let start = written - retained;
        for n in start..written {
            let slot = &ring.slots[n % RING_CAPACITY];
            let kind_code = slot.kind_code.load(Ordering::Relaxed);
            let phase = match kind_code >> 32 {
                KIND_BEGIN => 'B',
                KIND_END => 'E',
                _ => 'i',
            };
            events.push(TraceEvent {
                tid: ring.tid,
                ts_ns: slot.ts_ns.load(Ordering::Relaxed),
                phase,
                code: (kind_code & u64::from(u32::MAX)) as u32,
                arg: slot.arg.load(Ordering::Relaxed),
                trace_id: slot.trace_id.load(Ordering::Relaxed),
                span_id: slot.span_id.load(Ordering::Relaxed),
                parent_span: slot.parent_span.load(Ordering::Relaxed),
            });
        }
    }
    events.sort_by_key(|e| (e.ts_ns, e.tid));
    events
}

/// Per-ring wrap accounting: `(tid, dropped)` for every registered
/// ring that has overwritten events. The 4096-event wrap is silent at
/// record time; this is what dumps and span tables report it from.
pub fn dropped_events() -> Vec<(u64, u64)> {
    rings()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .filter(|r| r.dropped() > 0)
        .map(|r| (r.tid, r.dropped()))
        .collect()
}

/// Render a slice of trace events as chrome://tracing JSON (an array of
/// event objects) under process lane `pid`. Timestamps are microseconds
/// with nanosecond fraction, as the format expects; events carrying a
/// [`SpanContext`] render it in `args` as zero-padded hex strings
/// (`u64`s exceed JSON's exact-integer range).
///
/// This is the **pure** renderer: [`dump_chrome_json`] feeds it the
/// live rings, the cluster trace merger feeds it clock-aligned events
/// from many processes, and the schema golden test feeds it fixed
/// events. Field names and lane mapping are pinned by that test.
pub fn dump_chrome_json_events(events: &[TraceEvent], pid: u64) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts_us = e.ts_ns as f64 / 1e3;
        let ctx = if e.trace_id != 0 {
            format!(
                ",\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\"",
                e.trace_id, e.span_id, e.parent_span
            )
        } else {
            String::new()
        };
        // Unmatched 'E' events (begin overwritten by ring wrap) are
        // tolerated by the viewers; emit everything we retained.
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{ts_us:.3},\"pid\":{pid},\"tid\":{},\
             \"args\":{{\"v\":{}{ctx}}}{}}}",
            codes::name(e.code),
            e.phase,
            e.tid,
            e.arg,
            if e.phase == 'i' { ",\"s\":\"t\"" } else { "" },
        ));
    }
    out.push_str("\n]");
    out
}

/// Render every registered ring as chrome://tracing JSON. Rings that
/// wrapped are reported with a leading `truncated` instant per affected
/// ring (arg = events overwritten) instead of dropping silently.
pub fn dump_chrome_json() -> String {
    let mut events: Vec<TraceEvent> = dropped_events()
        .into_iter()
        .map(|(tid, dropped)| TraceEvent {
            tid,
            ts_ns: 0,
            phase: 'i',
            code: codes::TRUNCATED,
            arg: dropped,
            trace_id: 0,
            span_id: 0,
            parent_span: 0,
        })
        .collect();
    events.extend(collect());
    events.sort_by_key(|e| (e.ts_ns, e.tid));
    dump_chrome_json_events(&events, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global, so exercise everything from one
    // test (the test harness runs tests concurrently).
    /// The site names are part of every dump's schema: each code keeps
    /// its name, and the retired code 2 and a code past the table read
    /// `unknown`.
    #[test]
    fn site_names_are_stable() {
        let table = [
            (codes::ROUND, "round"),
            (2, "unknown"),
            (codes::FILTER, "filter"),
            (codes::MERGE, "merge"),
            (codes::COMMIT, "commit"),
            (codes::SUBMIT, "submit"),
            (codes::QUEUE_FULL, "queue_full"),
            (codes::DEQUEUE, "dequeue"),
            (codes::BARRIER_PREPARE, "barrier.prepare"),
            (codes::BARRIER_COMMIT, "barrier.commit"),
            (codes::NODE_DRAIN, "node.drain"),
            (codes::NODE_COMMIT, "node.commit"),
            (codes::TRUNCATED, "truncated"),
            (codes::DIGEST, "digest"),
            (codes::CLUSTER_SUBMIT, "cluster.submit"),
            (codes::NODE_REPLY, "node.reply"),
            (codes::BARRIER_REPLY, "barrier.reply"),
            (codes::STAGE, "stage"),
        ];
        for (expected, &(code, name)) in (1..).zip(&table) {
            assert_eq!(code, expected, "{name}");
            assert_eq!(codes::name(code), name);
        }
        assert_eq!(codes::name(table.len() as u32 + 1), "unknown");
        assert_eq!(codes::name(0), "unknown");
    }

    #[test]
    fn spans_and_instants_round_trip_through_the_dump() {
        reset();
        set_enabled(true);
        {
            let _round = TraceScope::begin(codes::ROUND, 7);
            instant(codes::SUBMIT, 128);
            let _merge = TraceScope::begin(codes::MERGE, 7);
        }
        set_enabled(false);
        // Disabled sites record nothing.
        instant(codes::SUBMIT, 999);
        let _quiet = TraceScope::begin(codes::ROUND, 8);

        let events: Vec<TraceEvent> = collect()
            .into_iter()
            .filter(|e| e.ts_ns > 0 || e.code != 0)
            .collect();
        let this_ring: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.code == codes::ROUND || e.code == codes::MERGE || e.arg == 128)
            .collect();
        assert_eq!(
            this_ring.len(),
            5,
            "B round, i submit, B merge, E merge, E round"
        );
        assert_eq!(this_ring[0].phase, 'B');
        assert_eq!(this_ring[0].arg, 7);
        assert_eq!(this_ring[1].phase, 'i');
        assert_eq!(this_ring[1].arg, 128);
        // No ambient context: events carry no trace ids.
        assert!(this_ring.iter().all(|e| e.trace_id == 0));
        // Spans nest: merge closes before round.
        assert_eq!(this_ring[3].code, codes::MERGE);
        assert_eq!(this_ring[3].phase, 'E');
        assert_eq!(this_ring[4].code, codes::ROUND);
        assert_eq!(this_ring[4].phase, 'E');
        assert!(
            !events.iter().any(|e| e.arg == 999),
            "disabled instant leaked"
        );

        let json = dump_chrome_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"name\":\"merge\""), "{json}");
        assert!(json.contains("\"ph\":\"B\""), "{json}");
        assert!(json.contains("\"s\":\"t\""), "{json}");
        assert!(
            !json.contains("\"trace\""),
            "contextless events must not render trace args: {json}"
        );

        // Context propagation: spans under an entered root context link
        // parent→child with deterministic ids, instants hang off the
        // enclosing span, and the ambient context restores on drop.
        reset();
        set_enabled(true);
        let root = SpanContext::root("campaign-x", 3);
        assert_ne!(root.trace_id, 0);
        assert_eq!(root, SpanContext::root("campaign-x", 3), "roots determine");
        assert_ne!(root, SpanContext::root("campaign-x", 4));
        {
            let guard = enter(root);
            let outer = TraceScope::begin(codes::BARRIER_PREPARE, 3);
            let outer_ctx = outer.context().expect("armed span under a trace");
            assert_eq!(outer_ctx.trace_id, root.trace_id);
            assert_eq!(
                outer_ctx.span_id,
                root.child_span_id(codes::BARRIER_PREPARE, 3)
            );
            {
                let inner = TraceScope::begin(codes::NODE_DRAIN, 3);
                let inner_ctx = inner.context().expect("nested span");
                assert_eq!(
                    inner_ctx.span_id,
                    outer_ctx.child_span_id(codes::NODE_DRAIN, 3)
                );
                instant(codes::DEQUEUE, 42);
            }
            assert_eq!(current(), Some(outer_ctx), "inner span restored ambient");
            drop(outer);
            assert_eq!(current(), Some(root), "outer span restored ambient");
            drop(guard);
            assert_eq!(current(), None, "enter guard restored ambient");
        }
        set_enabled(false);
        let events = collect();
        let outer_begin = events
            .iter()
            .find(|e| e.code == codes::BARRIER_PREPARE && e.phase == 'B')
            .expect("outer begin");
        assert_eq!(outer_begin.trace_id, root.trace_id);
        assert_eq!(outer_begin.parent_span, root.span_id);
        let inner_begin = events
            .iter()
            .find(|e| e.code == codes::NODE_DRAIN && e.phase == 'B')
            .expect("inner begin");
        assert_eq!(
            inner_begin.parent_span, outer_begin.span_id,
            "child span must record its parent edge"
        );
        let tick = events
            .iter()
            .find(|e| e.code == codes::DEQUEUE && e.arg == 42)
            .expect("instant under the inner span");
        assert_eq!(tick.trace_id, root.trace_id);
        assert_eq!(tick.parent_span, inner_begin.span_id);
        let json = dump_chrome_json();
        assert!(
            json.contains(&format!("\"trace\":\"{:016x}\"", root.trace_id)),
            "{json}"
        );

        // The ring wraps rather than growing, and the wrap is reported.
        reset();
        set_enabled(true);
        for i in 0..(RING_CAPACITY + 10) as u64 {
            instant(codes::DEQUEUE, i);
        }
        set_enabled(false);
        let retained = collect()
            .into_iter()
            .filter(|e| e.code == codes::DEQUEUE)
            .count();
        assert!(retained <= RING_CAPACITY, "ring must not grow: {retained}");
        let drops = dropped_events();
        assert!(
            drops.iter().any(|&(_, d)| d == 10),
            "wrap of 10 events must be counted: {drops:?}"
        );
        let json = dump_chrome_json();
        assert!(
            json.contains("\"name\":\"truncated\""),
            "dump must surface the wrap: truncated marker missing"
        );
        reset();
        assert!(dropped_events().is_empty(), "reset clears drop accounting");
        assert!(
            collect().iter().all(|e| e.ts_ns == 0 && e.code == 0) || collect().is_empty(),
            "reset clears retained events"
        );
    }

    #[test]
    fn chrome_json_schema_is_golden_pinned() {
        // The chrome://tracing schema rendered by the pure dump: field
        // names, value shapes, and the pid/tid lane mapping. A change
        // here breaks saved traces and the cluster merge — treat it
        // like a wire format break.
        let events = vec![
            TraceEvent {
                tid: 2,
                ts_ns: 1_500,
                phase: 'B',
                code: codes::ROUND,
                arg: 7,
                trace_id: 0,
                span_id: 0,
                parent_span: 0,
            },
            TraceEvent {
                tid: 2,
                ts_ns: 2_000,
                phase: 'i',
                code: codes::SUBMIT,
                arg: 128,
                trace_id: 0xabc,
                span_id: 0,
                parent_span: 0x11,
            },
            TraceEvent {
                tid: 2,
                ts_ns: 2_250,
                phase: 'E',
                code: codes::ROUND,
                arg: 0,
                trace_id: 0,
                span_id: 0,
                parent_span: 0,
            },
        ];
        let golden = concat!(
            "[\n",
            "{\"name\":\"round\",\"ph\":\"B\",\"ts\":1.500,\"pid\":3,\"tid\":2,\"args\":{\"v\":7}},\n",
            "{\"name\":\"submit\",\"ph\":\"i\",\"ts\":2.000,\"pid\":3,\"tid\":2,",
            "\"args\":{\"v\":128,\"trace\":\"0000000000000abc\",\"span\":\"0000000000000000\",",
            "\"parent\":\"0000000000000011\"},\"s\":\"t\"},\n",
            "{\"name\":\"round\",\"ph\":\"E\",\"ts\":2.250,\"pid\":3,\"tid\":2,\"args\":{\"v\":0}}\n",
            "]",
        );
        assert_eq!(
            dump_chrome_json_events(&events, 3),
            golden,
            "chrome trace JSON schema drifted"
        );
    }
}
