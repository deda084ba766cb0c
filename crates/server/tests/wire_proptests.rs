//! Malformed-frame hardening for the wire protocol.
//!
//! The server's framing faces arbitrary internet bytes, so the decode
//! path must be total: **any** byte string yields a typed
//! [`WireError`] or a valid message — never a panic, and never an
//! allocation driven by an unvalidated length (mirroring the WAL
//! decode's size bounding). Alongside the pure-codec properties, a
//! socket-level test pins the torn-write case: a peer that dies
//! mid-frame must not take the server (or even its own connection
//! handler's peers) down.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write as _;
use std::net::TcpStream;

use proptest::prelude::*;

use dptd_core::roles::PerturbedReport;
use dptd_obs::{HistogramSnapshot, MetricValue, MetricsSnapshot, SpanContext, TraceEvent};
use dptd_protocol::message::StampedReport;
use dptd_server::registry::RegistryConfig;
use dptd_server::wire::{self, split_frame, Request, Response, WireError, FRAME_HEADER_LEN};
use dptd_server::{
    BatchRefusal, CampaignSpec, Client, ErrorCode, MetricsReport, Server, ServerConfig,
    ServerError, StoreOp,
};

thread_local! {
    /// Largest single allocation this thread has requested since the
    /// test last zeroed it.
    static PEAK_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording each thread's largest request: how
/// the count-field property below proves a lying count is refused
/// *before* a `Vec` is sized by it, rather than after the allocation
/// happened to succeed.
struct PeakTracking;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only a
// const-initialised, destructor-free thread-local `Cell`, so it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for PeakTracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = PEAK_ALLOC.try_with(|peak| peak.set(peak.get().max(layout.size())));
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakTracking = PeakTracking;

fn decode_all(bytes: &[u8]) {
    // Exercise the whole decode surface; outcomes are irrelevant, the
    // property is "total and bounded".
    if let Ok((body, consumed)) = split_frame(bytes) {
        assert!(consumed <= bytes.len());
        let _ = Request::decode(body);
        let _ = Response::decode(body);
    }
    let _ = Request::decode(bytes);
    let _ = Response::decode(bytes);
}

/// SplitMix64: one `seed` strategy drives a value of every kind.
struct Gen(u64);

impl Gen {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.u64() % n
    }
    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }
    /// Any bit pattern — NaN payloads, infinities and subnormals
    /// included.
    fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }
    /// Empty a third of the time, otherwise 1..=5 items.
    fn vec<T>(&mut self, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let len = self.below(3).min(1) * (1 + self.below(5));
        (0..len).map(|_| item(self)).collect()
    }
    fn id(&mut self) -> String {
        const CHARSET: &[u8] = b"abcXYZ019._-";
        let len = 1 + self.below(12);
        let tail: String = (0..len)
            .map(|_| CHARSET[self.below(CHARSET.len() as u64) as usize] as char)
            .collect();
        format!("c{tail}") // never starts with a dot
    }
    fn text(&mut self) -> String {
        self.vec(|g| ['a', 'é', '€', ' ', '𝛿'][g.below(5) as usize])
            .into_iter()
            .collect()
    }
    fn ctx(&mut self) -> Option<SpanContext> {
        (self.below(2) == 1).then(|| SpanContext {
            trace_id: self.u64(),
            span_id: self.u64(),
        })
    }
    fn claim(&mut self) -> PerturbedReport {
        PerturbedReport {
            user: self.u64() as usize,
            values: self.vec(|g| (g.u32() as usize, g.f64())),
        }
    }
    fn reports(&mut self) -> Vec<StampedReport> {
        self.vec(|g| StampedReport {
            epoch: g.u64(),
            sent_at_us: g.u64(),
            report: g.claim(),
        })
    }
    fn error_code(&mut self) -> ErrorCode {
        ErrorCode::from_u8(1 + self.below(9) as u8).expect("codes are 1..=9")
    }
}

/// A generated request of the given kind. Panics on a kind byte it has
/// no arm for — a new table row must come with its generator.
fn request_of(kind: u8, g: &mut Gen) -> Request {
    let campaign = g.id();
    match kind {
        0x01 => Request::CreateCampaign {
            campaign,
            spec: CampaignSpec {
                num_users: g.u64(),
                num_objects: g.u64(),
                num_shards: g.u64(),
                workers: g.u64(),
                engine_queue: g.u64(),
                deadline_us: g.u64(),
                submission_capacity: g.u64(),
                per_round_epsilon: g.f64(),
                per_round_delta: g.f64(),
                budget_epsilon: g.f64(),
                budget_delta: g.f64(),
                stream_tag: g.u64(),
                durable: g.below(2) == 1,
            },
        },
        0x02 => Request::SubmitReports {
            campaign,
            reports: g.reports(),
            ctx: g.ctx(),
        },
        0x03 => Request::CloseRound {
            campaign,
            epoch: g.u64(),
        },
        0x04 => Request::QueryTruths { campaign },
        0x05 => Request::QueryBudget { campaign },
        0x06 => Request::QueryMetrics { campaign },
        0x07 => Request::NodeHello {
            node_id: g.u32(),
            num_nodes: g.u32(),
        },
        0x08 => Request::CloseRoundPrepare {
            campaign,
            epoch: g.u64(),
            refused: g.vec(Gen::u64),
            ctx: g.ctx(),
        },
        0x09 => Request::CloseRoundCommit {
            campaign,
            epoch: g.u64(),
            batches_seen: g.u64(),
            accepted_users: g.vec(Gen::u64),
            cumulative_losses: g.vec(Gen::f64),
            rounds_debited: g.vec(Gen::u32),
            ctx: g.ctx(),
        },
        0x0a => Request::ReplicateSegment {
            campaign,
            seq: g.u64(),
            op: StoreOp::from_u8(g.below(4) as u8).expect("ops are 0..=3"),
            name: g.id(),
            arg: g.u64(),
            bytes: g.vec(|g| g.u64() as u8),
        },
        0x0b => Request::QueryLedger {
            campaign,
            upto: g.u64(),
        },
        0x0c => Request::SubmitReportsStream {
            campaign,
            seq: g.u64(),
            reports: g.reports(),
            ctx: g.ctx(),
        },
        0x0d => Request::QueryStatus,
        0x0e => Request::QueryTrace,
        other => panic!("no generator for request kind {other:#04x}: add one"),
    }
}

/// A generated response of the given kind (see [`request_of`]).
fn response_of(kind: u8, g: &mut Gen) -> Response {
    match kind {
        0x81 => Response::Created {
            resumed_rounds: g.u64(),
        },
        0x82 => Response::Submitted { queued: g.u64() },
        0x83 => Response::Busy {
            queued: g.u64(),
            capacity: g.u64(),
        },
        0x84 => Response::RoundClosed {
            epoch: g.u64(),
            accepted: g.u64(),
            refused: g.u64(),
            duplicates: g.u64(),
            late: g.u64(),
            truths: g.vec(Gen::f64),
            weights_digest: g.u64(),
            max_spent_epsilon: g.f64(),
            max_spent_delta: g.f64(),
        },
        0x85 => Response::Truths {
            rounds_run: g.u64(),
            truths: g.vec(Gen::f64),
            weights_digest: g.u64(),
        },
        0x86 => Response::Budget {
            exhausted: g.u64(),
            max_spent_epsilon: g.f64(),
            max_spent_delta: g.f64(),
            debits: g.vec(Gen::u32),
        },
        0x87 => Response::Error {
            code: g.error_code(),
            message: g.text(),
        },
        0x88 => Response::Metrics {
            metrics: Box::new(MetricsReport {
                reports_submitted: g.u64(),
                reports_accepted: g.u64(),
                duplicates_discarded: g.u64(),
                late_dropped: g.u64(),
                out_of_order_dropped: g.u64(),
                backpressure_stalls: g.u64(),
                epochs_merged: g.u64(),
                max_queue_depth: g.u64(),
                queue_depth: g.u64(),
                throughput_rps: g.f64(),
                ingest_p50_ns: g.u64(),
                ingest_p99_ns: g.u64(),
                conn_live: g.u64(),
                conn_accepted: g.u64(),
                conn_refused: g.u64(),
                io_threads: g.u64(),
            }),
        },
        0x89 => Response::NodeWelcome { node_id: g.u32() },
        0x8a => Response::Prepared {
            epoch: g.u64(),
            duplicates: g.u64(),
            late: g.u64(),
            refused_seen: g.u64(),
            claims: g.vec(Gen::claim),
        },
        0x8b => Response::Committed {
            epoch: g.u64(),
            appended: g.below(2) == 1,
        },
        0x8c => Response::Replicated { seq: g.u64() },
        0x8d => Response::Ledger {
            next_epoch: g.u64(),
            batches_seen: g.u64(),
            rounds_debited: g.vec(Gen::u32),
            cumulative_losses: g.vec(Gen::f64),
        },
        0x8e => Response::SubmitAcked {
            contiguous: g.u64(),
            queued: g.u64(),
            refusals: g.vec(|g| BatchRefusal {
                seq: g.u64(),
                code: (g.below(2) == 1).then(|| g.error_code()),
            }),
        },
        0x8f => {
            // `set` keeps names sorted and unique — the only form the
            // decoder hands back.
            let mut snapshot = MetricsSnapshot::new();
            for (i, tag) in g.vec(|g| g.below(3)).into_iter().enumerate() {
                let value = match tag {
                    0 => MetricValue::Counter(g.u64()),
                    1 => MetricValue::Gauge(g.u64()),
                    _ => {
                        // Strictly increasing bucket indices, in range.
                        let mut idx = 0u32;
                        let buckets = g.vec(|g| {
                            idx += 1 + g.below(40) as u32;
                            (idx, g.u64())
                        });
                        MetricValue::Histogram(HistogramSnapshot {
                            count: g.u64(),
                            total_ns: g.u64(),
                            max_ns: g.u64(),
                            buckets,
                        })
                    }
                };
                snapshot.set(format!("m{i}.{}", g.id()), value);
            }
            Response::Status { snapshot }
        }
        0x90 => Response::TraceDump {
            anchor_ns: g.u64(),
            dropped: g.vec(|g| (g.u64(), g.u64())),
            events: g.vec(|g| TraceEvent {
                tid: g.u64(),
                ts_ns: g.u64(),
                phase: ['B', 'E', 'i'][g.below(3) as usize],
                code: g.u32(),
                arg: g.u64(),
                trace_id: g.u64(),
                span_id: g.u64(),
                parent_span: g.u64(),
            }),
        },
        other => panic!("no generator for response kind {other:#04x}: add one"),
    }
}

/// Kinds whose payload holds at least one counted sequence or byte run.
const SEQUENCE_BEARING: &[u8] = &[
    0x02, 0x08, 0x09, 0x0a, 0x0c, 0x84, 0x85, 0x86, 0x8a, 0x8d, 0x8e, 0x8f, 0x90,
];

/// Everything the table promises about one encoded value, given its
/// codec as three closures (the two frame enums share no trait).
fn check_frame<T: PartialEq + std::fmt::Debug>(
    value: &T,
    kind: u8,
    has_ctx: bool,
    body_len: usize,
    frame: Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<T, WireError>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    // Declared length, exact allocation, and the kind byte.
    assert_eq!(FRAME_HEADER_LEN + body_len, frame.len(), "{value:?}");
    assert_eq!(
        frame.capacity(),
        frame.len(),
        "not sized up front: {value:?}"
    );
    let (body, consumed) = split_frame(&frame).unwrap();
    assert_eq!(consumed, frame.len());
    assert_eq!(body[0], kind, "{value:?}");

    // No encode() output is refused by the same build's decoder, and the
    // roundtrip is bit-exact: re-encoding the decoded value reproduces the
    // frame (which also covers NaN payloads, where `==` cannot).
    let decoded = decode(body).unwrap_or_else(|e| panic!("{e} decoding {value:?}"));
    assert_eq!(encode(&decoded), frame, "{value:?}");
    #[allow(clippy::eq_op)]
    if value == value {
        assert_eq!(&decoded, value);
    }

    // Every proper prefix of the body is Malformed — never a panic, never
    // another message. The one exception is by design: cutting exactly
    // the 16-byte context extension off leaves the valid untraced frame.
    for cut in 0..body.len() {
        match decode(&body[..cut]) {
            Err(WireError::Malformed(_)) => {}
            Ok(_) if has_ctx && cut + 16 == body.len() => {}
            other => panic!("prefix {cut}/{} of {value:?}: {other:?}", body.len()),
        }
    }

    // A count overwritten with u32::MAX is refused before anything is
    // sized by it. Every 4-byte window is overwritten in turn (so every
    // count field is, wherever the layout puts it); whatever the decoder
    // makes of each, it must not have asked the allocator for more than
    // a small multiple of the bytes it was given.
    let mut hit_a_count = false;
    let mut mutated = body.to_vec();
    for at in 1..body.len().saturating_sub(3) {
        mutated[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        PEAK_ALLOC.with(|peak| peak.set(0));
        let outcome = decode(&mutated);
        let peak = PEAK_ALLOC.with(Cell::get);
        assert!(
            peak <= 16 * body.len() + 64,
            "count at {at} sized a {peak}-byte allocation from a {}-byte body: {value:?}",
            body.len()
        );
        hit_a_count |= outcome
            == Err(WireError::Malformed(
                "claimed count larger than the payload",
            ));
        mutated[at..at + 4].copy_from_slice(&body[at..at + 4]);
    }
    if SEQUENCE_BEARING.contains(&kind) {
        assert!(hit_a_count, "no count field found in {value:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        decode_all(&bytes);
    }

    #[test]
    fn valid_frames_survive_roundtrip_and_any_flip_is_caught(
        users in prop::collection::vec((0u64..1_000, 0u64..50, 0u64..1_000_000), 0..12),
        value_bits in 0u64..u64::MAX,
        epoch in 0u64..1_000,
        flip_at in 0usize..10_000,
        flip_mask in 1u8..=255,
    ) {
        let reports: Vec<StampedReport> = users
            .iter()
            .map(|&(user, nv, sent)| StampedReport {
                epoch,
                sent_at_us: sent,
                report: PerturbedReport {
                    user: user as usize,
                    values: (0..nv as usize % 5)
                        .map(|o| (o, f64::from_bits(value_bits ^ o as u64)))
                        .collect(),
                },
            })
            .collect();
        let request = Request::SubmitReports {
            campaign: "prop-campaign".to_string(),
            reports,
            ctx: None,
        };
        let frame = request.encode();

        // Clean roundtrip (bit-exact, including NaN payload values).
        let (body, consumed) = split_frame(&frame).unwrap();
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(&Request::decode(body).unwrap(), &request);

        // Any single-byte corruption is caught by the header self-check
        // or the checksum — typed, not silent and not a panic.
        let mut mutated = frame.clone();
        let at = flip_at % mutated.len();
        mutated[at] ^= flip_mask;
        match split_frame(&mutated) {
            Ok((body, _)) => {
                // Only a flip inside the stored checksum AND a colliding
                // body could land here; FNV over an identical-length body
                // differing in one byte never collides with a flipped
                // stored sum. So reaching Ok means the flip must have
                // been... nowhere. Refuse.
                prop_assert!(false, "flip at {} went unnoticed: {:?}", at, body.len());
            }
            Err(e) => {
                prop_assert!(
                    matches!(
                        e,
                        WireError::LenCheck
                            | WireError::Checksum
                            | WireError::TooLarge { .. }
                            | WireError::Truncated { .. }
                    ),
                    "unexpected error class for flip at {}: {:?}",
                    at,
                    e
                );
            }
        }

        // Every truncation of a valid frame asks for more bytes.
        let cut = flip_at % (frame.len() + 1);
        if cut < frame.len() {
            match split_frame(&frame[..cut]) {
                Err(WireError::Truncated { needed, have }) => {
                    prop_assert_eq!(have, cut);
                    prop_assert!(needed > cut);
                }
                other => prop_assert!(false, "cut at {}: {:?}", cut, other),
            }
        }
    }

    /// For generated values of **every** kind in both tables — empty and
    /// non-empty sequences, arbitrary float bits, context present and
    /// absent — the codec keeps each of the table's promises
    /// ([`check_frame`]).
    #[test]
    fn every_kind_keeps_the_tables_promises(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for &kind in Request::KINDS {
            let request = request_of(kind, &mut g);
            let has_ctx = matches!(
                &request,
                Request::SubmitReports { ctx: Some(_), .. }
                    | Request::SubmitReportsStream { ctx: Some(_), .. }
                    | Request::CloseRoundPrepare { ctx: Some(_), .. }
                    | Request::CloseRoundCommit { ctx: Some(_), .. }
            );
            check_frame(
                &request,
                kind,
                has_ctx,
                request.body_len(),
                request.encode(),
                Request::decode,
                Request::encode,
            );
        }
        for &kind in Response::KINDS {
            let response = response_of(kind, &mut g);
            check_frame(
                &response,
                kind,
                false,
                response.body_len(),
                response.encode(),
                Response::decode,
                Response::encode,
            );
        }
    }

    #[test]
    fn length_lying_headers_are_refused_before_allocation(
        claimed in 0u32..u32::MAX,
        junk in prop::collection::vec(0u8..=255, 0..64),
    ) {
        // A header whose self-check is *consistent* but whose claimed
        // length is a lie: the decoder must answer from the header alone
        // (TooLarge past the cap, Truncated otherwise) without touching
        // a `claimed`-sized buffer.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&claimed.to_le_bytes());
        bytes.extend_from_slice(&(claimed ^ u32::from_le_bytes(*b"NET1")).to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&junk);
        match split_frame(&bytes) {
            Err(WireError::TooLarge { claimed: c }) => {
                prop_assert!(c as usize > wire::MAX_FRAME_LEN);
            }
            Err(WireError::Truncated { needed, .. }) => {
                prop_assert_eq!(needed, wire::FRAME_HEADER_LEN + claimed as usize);
            }
            Err(WireError::Checksum) => {
                // The junk happened to complete the tiny claimed frame
                // but cannot match the zero checksum... unless it can:
                // an empty body hashes to the FNV offset basis, never 0.
                prop_assert!(claimed as usize <= junk.len());
            }
            Ok((body, _)) => {
                // Only reachable when the claimed frame genuinely fits
                // in `junk` AND the zeroed checksum matches — impossible
                // for FNV-1a (no input hashes to 0 in 64 bits with these
                // lengths), so refuse.
                prop_assert!(false, "lying header accepted: {} bytes", body.len());
            }
            Err(e) => prop_assert!(false, "unexpected error: {:?}", e),
        }
    }
}

fn tiny_spec() -> CampaignSpec {
    CampaignSpec {
        num_users: 2,
        num_objects: 1,
        num_shards: 1,
        workers: 0,
        engine_queue: 64,
        deadline_us: 1_000,
        submission_capacity: 16,
        per_round_epsilon: 0.5,
        per_round_delta: 0.0,
        budget_epsilon: 5.0,
        budget_delta: 0.0,
        stream_tag: 0,
        durable: false,
    }
}

fn stamped(epoch: u64, user: usize, v: f64) -> StampedReport {
    StampedReport {
        epoch,
        sent_at_us: 1 + user as u64,
        report: PerturbedReport {
            user,
            values: vec![(0, v)],
        },
    }
}

/// A peer that dies mid-frame (the network twin of a torn WAL write)
/// must neither hang nor crash the server; concurrent and subsequent
/// clients keep full service.
#[test]
fn torn_write_mid_frame_disconnect_leaves_the_server_serving() {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        registry: RegistryConfig::default(),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    // A healthy campaign first, so the torn writer shares the process
    // with live state.
    let mut healthy = Client::connect(addr).unwrap();
    healthy.create_campaign("healthy", tiny_spec()).unwrap();

    // The torn writer: hello, then half a valid frame, then death.
    for torn_cut in [1usize, 7, 16, 20] {
        let frame = Request::SubmitReports {
            campaign: "healthy".to_string(),
            reports: vec![stamped(0, 0, 1.0)],
            ctx: None,
        }
        .encode();
        assert!(torn_cut < frame.len());
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&wire::HELLO).unwrap();
        raw.write_all(&frame[..torn_cut]).unwrap();
        drop(raw); // mid-frame disconnect
    }

    // Garbage after the hello gets a typed error reply, then hangup.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&wire::HELLO).unwrap();
    raw.write_all(&[0xde; 64]).unwrap();
    {
        use std::io::Read as _;
        let mut reply = Vec::new();
        raw.read_to_end(&mut reply).unwrap(); // server closes after replying
        let (body, _) = split_frame(&reply[8..]).expect("one error frame after the hello echo");
        match Response::decode(body).unwrap() {
            Response::Error { code, .. } => {
                assert_eq!(code, dptd_server::ErrorCode::InvalidRequest)
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
    }

    // A non-hello peer is answered and dropped without echo.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n").unwrap();
    {
        use std::io::Read as _;
        let mut reply = Vec::new();
        raw.read_to_end(&mut reply).unwrap();
        let (body, _) = split_frame(&reply).expect("typed refusal for a non-protocol peer");
        assert!(matches!(
            Response::decode(body).unwrap(),
            Response::Error { .. }
        ));
    }

    // Through all of it, the original connection and fresh ones serve.
    healthy
        .submit("healthy", vec![stamped(0, 0, 1.0), stamped(0, 1, 2.0)])
        .unwrap();
    let round = healthy.close_round("healthy", 0).unwrap();
    assert_eq!(round.accepted, 2);
    let mut fresh = Client::connect(addr).unwrap();
    let budget = fresh.query_budget("healthy").unwrap();
    assert_eq!(budget.debits, vec![1, 1]);
    server.shutdown();
}

/// The client side of the same coin: a server that vanishes mid-reply
/// surfaces as a typed I/O error, not a hang or panic.
#[test]
fn server_death_mid_reply_is_a_typed_client_error() {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.create_campaign("doomed", tiny_spec()).unwrap();
    // Kill the server, then use the now-dead connection.
    server.shutdown();
    let err = client.query_budget("doomed").unwrap_err();
    assert!(
        matches!(err, ServerError::Io { .. } | ServerError::Wire(_)),
        "{err:?}"
    );
}
