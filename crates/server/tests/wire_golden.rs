//! Wire v1, byte for byte, for every frame kind.
//!
//! One fixed fixture per kind — all 13 requests and 15 responses, plus
//! the context-present form of the four requests that carry a trace
//! context — pinned against the complete frame (header, checksum and
//! body) as hex literals. The literals were captured from the
//! hand-written codec that preceded the field-list table in `wire.rs`,
//! so this file passing is the statement that the table writes the same
//! bytes the deployed v1 peers read.
//!
//! **Adding a frame** means adding its fixture here; **changing** a
//! literal means you have changed the wire format — bump the HELLO
//! version byte and keep a v1 decoder instead.

use dptd_core::roles::PerturbedReport;
use dptd_obs::{HistogramSnapshot, MetricValue, MetricsSnapshot, SpanContext, TraceEvent};
use dptd_protocol::message::StampedReport;
use dptd_server::wire::{split_frame, FRAME_HEADER_LEN};
use dptd_server::{BatchRefusal, CampaignSpec, ErrorCode, Request, Response, StoreOp};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn ctx() -> Option<SpanContext> {
    Some(SpanContext {
        trace_id: 0x1122_3344_5566_7788,
        span_id: 0x99aa_bbcc_ddee_ff01,
    })
}

fn reports() -> Vec<StampedReport> {
    vec![
        StampedReport {
            epoch: 3,
            sent_at_us: 11,
            report: PerturbedReport {
                user: 9,
                values: vec![(1, 2.5), (4, -0.125)],
            },
        },
        StampedReport {
            epoch: 3,
            sent_at_us: 12,
            report: PerturbedReport {
                user: 10,
                values: vec![],
            },
        },
    ]
}

fn requests() -> Vec<(&'static str, Request, &'static str)> {
    let campaign = || "cafe".to_string();
    vec![
        (
            "CreateCampaign",
            Request::CreateCampaign {
                campaign: campaign(),
                spec: CampaignSpec {
                    num_users: 100,
                    num_objects: 4,
                    num_shards: 8,
                    workers: 2,
                    engine_queue: 4096,
                    deadline_us: 1_000_000,
                    submission_capacity: 65_536,
                    per_round_epsilon: 0.5,
                    per_round_delta: 0.02,
                    budget_epsilon: 5.0,
                    budget_delta: 0.2,
                    stream_tag: 0x5EED_5EED,
                    durable: true,
                },
            },
            "680000002645543154b0f7821842e1ec010400636166656400000000000000040000000000000008000000000000000200000000000000001000000000000040420f00000000000000010000000000000000000000e03f7b14ae47e17a943f00000000000014409a9999999999c93fed5eed5e0000000001",
        ),
        (
            "SubmitReports",
            Request::SubmitReports {
                campaign: campaign(),
                reports: reports(),
                ctx: None,
            },
            "5b00000015455431047ed4ba8b5df6c8020400636166650200000003000000000000000b0000000000000009000000000000000200000001000000000000000000044004000000000000000000c0bf03000000000000000c000000000000000a0000000000000000000000",
        ),
        (
            "SubmitReports+ctx",
            Request::SubmitReports {
                campaign: campaign(),
                reports: reports(),
                ctx: ctx(),
            },
            "6b000000254554310d35d13438321a62020400636166650200000003000000000000000b0000000000000009000000000000000200000001000000000000000000044004000000000000000000c0bf03000000000000000c000000000000000a0000000000000000000000887766554433221101ffeeddccbbaa99",
        ),
        (
            "CloseRound",
            Request::CloseRound {
                campaign: campaign(),
                epoch: 7,
            },
            "0f000000414554312475007de22372b0030400636166650700000000000000",
        ),
        (
            "QueryTruths",
            Request::QueryTruths {
                campaign: campaign(),
            },
            "07000000494554313ab6488da993311204040063616665",
        ),
        (
            "QueryBudget",
            Request::QueryBudget {
                campaign: campaign(),
            },
            "0700000049455431e134effc67fecf2205040063616665",
        ),
        (
            "NodeHello",
            Request::NodeHello {
                node_id: 2,
                num_nodes: 5,
            },
            "0900000047455431917d3f4ef6efdf0d070200000005000000",
        ),
        (
            "CloseRoundPrepare",
            Request::CloseRoundPrepare {
                campaign: campaign(),
                epoch: 3,
                refused: vec![0, 7, 12],
                ctx: None,
            },
            "2b00000065455431ed515f52df1d518208040063616665030000000000000003000000000000000000000007000000000000000c00000000000000",
        ),
        (
            "CloseRoundPrepare+ctx",
            Request::CloseRoundPrepare {
                campaign: campaign(),
                epoch: 3,
                refused: vec![],
                ctx: ctx(),
            },
            "230000006d455431dcb142880a2cfbe208040063616665030000000000000000000000887766554433221101ffeeddccbbaa99",
        ),
        (
            "CloseRoundCommit",
            Request::CloseRoundCommit {
                campaign: campaign(),
                epoch: 3,
                batches_seen: 4,
                accepted_users: vec![1, 2],
                cumulative_losses: vec![0.5, -1.25, 3.0e-300],
                rounds_debited: vec![2, 0, 1],
                ctx: None,
            },
            "57000000194554316b556113f9abf54a0904006361666503000000000000000400000000000000020000000100000000000000020000000000000003000000000000000000e03f000000000000f4bf83b63ad29712c00103000000020000000000000001000000",
        ),
        (
            "CloseRoundCommit+ctx",
            Request::CloseRoundCommit {
                campaign: campaign(),
                epoch: 3,
                batches_seen: 4,
                accepted_users: vec![1],
                cumulative_losses: vec![0.5],
                rounds_debited: vec![],
                ctx: ctx(),
            },
            "430000000d4554318bb8c73552f3f428090400636166650300000000000000040000000000000001000000010000000000000001000000000000000000e03f00000000887766554433221101ffeeddccbbaa99",
        ),
        (
            "ReplicateSegment",
            Request::ReplicateSegment {
                campaign: campaign(),
                seq: 42,
                op: StoreOp::WriteAtomic,
                name: "seg.0001".to_string(),
                arg: 128,
                bytes: vec![0xde, 0xad, 0xbe, 0xef],
            },
            "2a0000006445543111c832c15c6017090a0400636166652a000000000000000108007365672e30303031800000000000000004000000deadbeef",
        ),
        (
            "QueryLedger",
            Request::QueryLedger {
                campaign: campaign(),
                upto: u64::MAX,
            },
            "0f00000041455431d3fb82574124051d0b040063616665ffffffffffffffff",
        ),
        (
            "SubmitReportsStream",
            Request::SubmitReportsStream {
                campaign: campaign(),
                seq: 17,
                reports: reports(),
                ctx: None,
            },
            "630000002d455431af9b938517bff8a20c04006361666511000000000000000200000003000000000000000b0000000000000009000000000000000200000001000000000000000000044004000000000000000000c0bf03000000000000000c000000000000000a0000000000000000000000",
        ),
        (
            "SubmitReportsStream+ctx",
            Request::SubmitReportsStream {
                campaign: campaign(),
                seq: 18,
                reports: vec![],
                ctx: ctx(),
            },
            "230000006d455431c975951f6186bfb50c040063616665120000000000000000000000887766554433221101ffeeddccbbaa99",
        ),
        ("QueryStatus", Request::QueryStatus, "010000004f455431f8bc01864cc063af0d"),
        ("QueryTrace", Request::QueryTrace, "010000004f45543111c201864cc363af0e"),
    ]
}

fn responses() -> Vec<(&'static str, Response, &'static str)> {
    let mut snapshot = MetricsSnapshot::new();
    snapshot.set("server.conn.live".to_string(), MetricValue::Gauge(3));
    snapshot.set("server.requests".to_string(), MetricValue::Counter(512));
    snapshot.set(
        "campaign.air.ingest_latency".to_string(),
        MetricValue::Histogram(HistogramSnapshot {
            count: 4,
            total_ns: 10_000,
            max_ns: 4_000,
            buckets: vec![(17, 1), (42, 2), (99, 1)],
        }),
    );
    vec![
        (
            "Created",
            Response::Created { resumed_rounds: 2 },
            "09000000474554316ed14ef3b869ba45810200000000000000",
        ),
        ("Submitted", Response::Submitted { queued: 17 }, "09000000474554315477463f4785b592821100000000000000"),
        (
            "Busy",
            Response::Busy {
                queued: 64,
                capacity: 65,
            },
            "110000005f45543133eaf2367f88a5a58340000000000000004100000000000000",
        ),
        (
            "RoundClosed",
            Response::RoundClosed {
                epoch: 4,
                accepted: 90,
                refused: 3,
                duplicates: 2,
                late: 1,
                truths: vec![20.5, 19.75],
                weights_digest: 0xDEAD_BEEF,
                max_spent_epsilon: 2.5,
                max_spent_delta: 0.1,
            },
            "550000001b4554317f583eba1306aab98404000000000000005a000000000000000300000000000000020000000000000001000000000000000200000000000000008034400000000000c03340efbeadde0000000000000000000004409a9999999999b93f",
        ),
        (
            "Truths",
            Response::Truths {
                rounds_run: 4,
                truths: vec![1.0, f64::NEG_INFINITY],
                weights_digest: 7,
            },
            "250000006b455431c10d2d59fa33eb6785040000000000000002000000000000000000f03f000000000000f0ff0700000000000000",
        ),
        (
            "Budget",
            Response::Budget {
                exhausted: 5,
                max_spent_epsilon: 5.0,
                max_spent_delta: 0.2,
                debits: vec![10, 0, 3],
            },
            "29000000674554319f0ded32d9d203aa86050000000000000000000000000014409a9999999999c93f030000000a0000000000000003000000",
        ),
        (
            "Error",
            Response::Error {
                code: ErrorCode::BudgetExhausted,
                message: "everyone is out of budget — ε spent".to_string(),
            },
            "2a000000644554315b0c27c512ae272f8705260065766572796f6e65206973206f7574206f662062756467657420e2809420ceb5207370656e74",
        ),
        (
            "NodeWelcome",
            Response::NodeWelcome { node_id: 2 },
            "050000004b455431a67c78e65173ebd48902000000",
        ),
        (
            "Prepared",
            Response::Prepared {
                epoch: 3,
                duplicates: 2,
                late: 1,
                refused_seen: 6,
                claims: vec![
                    PerturbedReport {
                        user: 0,
                        values: vec![(0, 1.5), (3, -0.25)],
                    },
                    PerturbedReport {
                        user: 4,
                        values: vec![],
                    },
                ],
            },
            "550000001b455431409e9308859054198a03000000000000000200000000000000010000000000000006000000000000000200000000000000000000000200000000000000000000000000f83f03000000000000000000d0bf040000000000000000000000",
        ),
        (
            "Committed",
            Response::Committed {
                epoch: 3,
                appended: true,
            },
            "0a00000044455431d8503ed24f5cc7068b030000000000000001",
        ),
        ("Replicated", Response::Replicated { seq: 42 }, "090000004745543121e234f9fedeb3d38c2a00000000000000"),
        (
            "Ledger",
            Response::Ledger {
                next_epoch: 4,
                batches_seen: 5,
                rounds_debited: vec![2, 0, 1],
                cumulative_losses: vec![0.5, 0.0, -3.5],
            },
            "3d00000073455431df7f290117952e768d040000000000000005000000000000000300000002000000000000000100000003000000000000000000e03f00000000000000000000000000000cc0",
        ),
        (
            "SubmitAcked",
            Response::SubmitAcked {
                contiguous: 18,
                queued: 512,
                refusals: vec![
                    BatchRefusal {
                        seq: 18,
                        code: None,
                    },
                    BatchRefusal {
                        seq: 19,
                        code: Some(ErrorCode::BudgetExhausted),
                    },
                ],
            },
            "270000006945543177ccb04ca2cc5cc98e1200000000000000000200000000000002000000120000000000000000130000000000000005",
        ),
        ("Status", Response::Status { snapshot }, "98000000d6455431ab1ce70ab18290f08f030000001b0063616d706169676e2e6169722e696e676573745f6c6174656e63790204000000000000001027000000000000a00f000000000000030000001100000001000000000000002a000000020000000000000063000000010000000000000010007365727665722e636f6e6e2e6c6976650103000000000000000f007365727665722e7265717565737473000002000000000000"),
        (
            "TraceDump",
            Response::TraceDump {
                anchor_ns: 1_700_000_000_000_000_000,
                dropped: vec![(1, 0), (3, 4096)],
                events: vec![
                    TraceEvent {
                        tid: 1,
                        ts_ns: 1_500,
                        phase: 'B',
                        code: 1,
                        arg: 7,
                        trace_id: 0xABC,
                        span_id: 0x11,
                        parent_span: 0x22,
                    },
                    TraceEvent {
                        tid: 3,
                        ts_ns: 2_000,
                        phase: 'i',
                        code: 4,
                        arg: 128,
                        trace_id: 0xABD,
                        span_id: 0,
                        parent_span: 0x11,
                    },
                ],
            },
            "9b000000d5455431b3d3a2a28b98cfb09000002a36fe9c9717020000000100000000000000000000000000000003000000000000000010000000000000020000000100000000000000dc0500000000000042010000000700000000000000bc0a000000000000110000000000000022000000000000000300000000000000d00700000000000069040000008000000000000000bd0a00000000000000000000000000001100000000000000",
        ),
    ]
}

/// The pinned frame is what the encoder writes, and decoding it yields
/// the fixture.
fn check<T: std::fmt::Debug + PartialEq>(
    name: &str,
    fixture: &T,
    frame: Vec<u8>,
    golden: &str,
    decode: impl Fn(&[u8]) -> T,
) {
    assert_eq!(hex(&frame), golden, "{name}: wire v1 layout changed");
    let (body, consumed) = split_frame(&frame).unwrap();
    assert_eq!(consumed, frame.len(), "{name}");
    assert_eq!(body.len() + FRAME_HEADER_LEN, frame.len(), "{name}");
    assert_eq!(&decode(body), fixture, "{name}: decode(golden) != fixture");
}

#[test]
fn every_request_kind_is_pinned_byte_for_byte() {
    let all = requests();
    let kinds: std::collections::BTreeSet<u8> = all
        .iter()
        .map(|(_, request, _)| request.encode()[FRAME_HEADER_LEN])
        .collect();
    assert_eq!(
        kinds.into_iter().collect::<Vec<u8>>(),
        (0x01..=0x0e).filter(|&k| k != 0x06).collect::<Vec<u8>>(),
        "one fixture per request kind"
    );
    for (name, request, golden) in &all {
        check(name, request, request.encode(), golden, |body| {
            Request::decode(body).unwrap()
        });
    }
}

#[test]
fn every_response_kind_is_pinned_byte_for_byte() {
    let all = responses();
    let kinds: std::collections::BTreeSet<u8> = all
        .iter()
        .map(|(_, response, _)| response.encode()[FRAME_HEADER_LEN])
        .collect();
    assert_eq!(
        kinds.into_iter().collect::<Vec<u8>>(),
        (0x81..=0x90).filter(|&k| k != 0x88).collect::<Vec<u8>>(),
        "one fixture per response kind"
    );
    for (name, response, golden) in &all {
        check(name, response, response.encode(), golden, |body| {
            Response::decode(body).unwrap()
        });
    }
}
