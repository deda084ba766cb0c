//! Wire v3, byte for byte, for every frame kind.
//!
//! One fixed fixture per kind — all 13 requests and 15 responses, plus
//! the context-present form of the four requests that carry a trace
//! context — pinned against the complete frame (header, checksum and
//! body) as hex literals. The lengths and bodies were captured from the
//! hand-written codec that preceded the field-list table in `wire.rs`;
//! the move from v1 to v2 rewrote only each literal's 16 checksum digits
//! (bytes 8–15). The move from v2 to v3 rewrote one literal, `Prepared`'s:
//! the same 85 body bytes, regrouped into claim columns, and a new check.
//!
//! **Adding a frame** means adding its fixture here; **changing** a
//! literal means you have changed the wire format — bump the HELLO
//! version byte.

use dptd_core::roles::PerturbedReport;
use dptd_obs::{HistogramSnapshot, MetricValue, MetricsSnapshot, SpanContext, TraceEvent};
use dptd_protocol::message::StampedReport;
use dptd_server::wire::{split_frame, FRAME_HEADER_LEN};
use dptd_server::{BatchRefusal, CampaignSpec, ErrorCode, Request, Response, StoreOp};
use dptd_truth::streaming::ShardClaims;

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
            "6800000026455431c1a7f0e9d7f59f68010400636166656400000000000000040000000000000008000000000000000200000000000000001000000000000040420f00000000000000010000000000000000000000e03f7b14ae47e17a943f00000000000014409a9999999999c93fed5eed5e0000000001",
        ),
        (
            "SubmitReports",
            Request::SubmitReports {
                campaign: campaign(),
                reports: reports(),
                ctx: None,
            },
            "5b000000154554316b4c05c15f332f34020400636166650200000003000000000000000b0000000000000009000000000000000200000001000000000000000000044004000000000000000000c0bf03000000000000000c000000000000000a0000000000000000000000",
        ),
        (
            "SubmitReports+ctx",
            Request::SubmitReports {
                campaign: campaign(),
                reports: reports(),
                ctx: ctx(),
            },
            "6b000000254554316080df2f67d89baf020400636166650200000003000000000000000b0000000000000009000000000000000200000001000000000000000000044004000000000000000000c0bf03000000000000000c000000000000000a0000000000000000000000887766554433221101ffeeddccbbaa99",
        ),
        (
            "CloseRound",
            Request::CloseRound {
                campaign: campaign(),
                epoch: 7,
            },
            "0f000000414554310379f5917b446670030400636166650700000000000000",
        ),
        (
            "QueryTruths",
            Request::QueryTruths {
                campaign: campaign(),
            },
            "07000000494554310f230c64c99f99f004040063616665",
        ),
        (
            "QueryBudget",
            Request::QueryBudget {
                campaign: campaign(),
            },
            "070000004945543111d21b988e02f85405040063616665",
        ),
        (
            "NodeHello",
            Request::NodeHello {
                node_id: 2,
                num_nodes: 5,
            },
            "0900000047455431c04d7ece29b77073070200000005000000",
        ),
        (
            "CloseRoundPrepare",
            Request::CloseRoundPrepare {
                campaign: campaign(),
                epoch: 3,
                refused: vec![0, 7, 12],
                ctx: None,
            },
            "2b00000065455431cafd398893d38e7808040063616665030000000000000003000000000000000000000007000000000000000c00000000000000",
        ),
        (
            "CloseRoundPrepare+ctx",
            Request::CloseRoundPrepare {
                campaign: campaign(),
                epoch: 3,
                refused: vec![],
                ctx: ctx(),
            },
            "230000006d455431af392502d9dc6bba08040063616665030000000000000000000000887766554433221101ffeeddccbbaa99",
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
            "57000000194554317686365a0c95dda10904006361666503000000000000000400000000000000020000000100000000000000020000000000000003000000000000000000e03f000000000000f4bf83b63ad29712c00103000000020000000000000001000000",
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
            "430000000d455431bd45c7fe51eddb3f090400636166650300000000000000040000000000000001000000010000000000000001000000000000000000e03f00000000887766554433221101ffeeddccbbaa99",
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
            "2a0000006445543178e20e3a7787e1980a0400636166652a000000000000000108007365672e30303031800000000000000004000000deadbeef",
        ),
        (
            "QueryLedger",
            Request::QueryLedger {
                campaign: campaign(),
                upto: u64::MAX,
            },
            "0f000000414554311105086ad7bf92030b040063616665ffffffffffffffff",
        ),
        (
            "SubmitReportsStream",
            Request::SubmitReportsStream {
                campaign: campaign(),
                seq: 17,
                reports: reports(),
                ctx: None,
            },
            "630000002d455431914a189bdf4ca1920c04006361666511000000000000000200000003000000000000000b0000000000000009000000000000000200000001000000000000000000044004000000000000000000c0bf03000000000000000c000000000000000a0000000000000000000000",
        ),
        (
            "SubmitReportsStream+ctx",
            Request::SubmitReportsStream {
                campaign: campaign(),
                seq: 18,
                reports: vec![],
                ctx: ctx(),
            },
            "230000006d45543122e9818ebf5413170c040063616665120000000000000000000000887766554433221101ffeeddccbbaa99",
        ),
        ("QueryStatus", Request::QueryStatus, "010000004f455431f34e2e834815262a0d"),
        ("QueryTrace", Request::QueryTrace, "010000004f455431697692f3dc4562690e"),
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
            "0900000047455431af2384e78a0823a3810200000000000000",
        ),
        ("Submitted", Response::Submitted { queued: 17 }, "09000000474554317b5744de8ef4c513821100000000000000"),
        (
            "Busy",
            Response::Busy {
                queued: 64,
                capacity: 65,
            },
            "110000005f4554316e1ecc02a82082bf8340000000000000004100000000000000",
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
            "550000001b4554313e481d72d63d73c68404000000000000005a000000000000000300000000000000020000000000000001000000000000000200000000000000008034400000000000c03340efbeadde0000000000000000000004409a9999999999b93f",
        ),
        (
            "Truths",
            Response::Truths {
                rounds_run: 4,
                truths: vec![1.0, f64::NEG_INFINITY],
                weights_digest: 7,
            },
            "250000006b45543172c0cfc1487f9e1385040000000000000002000000000000000000f03f000000000000f0ff0700000000000000",
        ),
        (
            "Budget",
            Response::Budget {
                exhausted: 5,
                max_spent_epsilon: 5.0,
                max_spent_delta: 0.2,
                debits: vec![10, 0, 3],
            },
            "2900000067455431a0bb5ab916603c1786050000000000000000000000000014409a9999999999c93f030000000a0000000000000003000000",
        ),
        (
            "Error",
            Response::Error {
                code: ErrorCode::BudgetExhausted,
                message: "everyone is out of budget — ε spent".to_string(),
            },
            "2a0000006445543107a378901d3cb0d38705260065766572796f6e65206973206f7574206f662062756467657420e2809420ceb5207370656e74",
        ),
        (
            "NodeWelcome",
            Response::NodeWelcome { node_id: 2 },
            "050000004b4554317fe3bf7290f730b88902000000",
        ),
        (
            "Prepared",
            Response::Prepared {
                epoch: 3,
                duplicates: 2,
                late: 1,
                refused_seen: 6,
                claims: std::sync::Arc::new({
                    let mut claims = ShardClaims::new();
                    claims.push(0, vec![(0, 1.5), (3, -0.25)]);
                    claims.push(4, vec![]);
                    claims
                }),
            },
            "550000001b4554311e11427d54c5ddeb8a0300000000000000020000000000000001000000000000000600000000000000020000000000000000000000040000000000000002000000000000000000000003000000000000000000f83f000000000000d0bf",
        ),
        (
            "Committed",
            Response::Committed {
                epoch: 3,
                appended: true,
            },
            "0a000000444554314c75f62981efe75b8b030000000000000001",
        ),
        ("Replicated", Response::Replicated { seq: 42 }, "09000000474554312bc3b4288fd6bebc8c2a00000000000000"),
        (
            "Ledger",
            Response::Ledger {
                next_epoch: 4,
                batches_seen: 5,
                rounds_debited: vec![2, 0, 1],
                cumulative_losses: vec![0.5, 0.0, -3.5],
            },
            "3d00000073455431e6f5211ca493f86e8d040000000000000005000000000000000300000002000000000000000100000003000000000000000000e03f00000000000000000000000000000cc0",
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
            "270000006945543116bedf3f37fc6db98e1200000000000000000200000000000002000000120000000000000000130000000000000005",
        ),
        ("Status", Response::Status { snapshot }, "98000000d6455431eb9755b2f43dc00d8f030000001b0063616d706169676e2e6169722e696e676573745f6c6174656e63790204000000000000001027000000000000a00f000000000000030000001100000001000000000000002a000000020000000000000063000000010000000000000010007365727665722e636f6e6e2e6c6976650103000000000000000f007365727665722e7265717565737473000002000000000000"),
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
            "9b000000d5455431eca77622ae0222a89000002a36fe9c9717020000000100000000000000000000000000000003000000000000000010000000000000020000000100000000000000dc0500000000000042010000000700000000000000bc0a000000000000110000000000000022000000000000000300000000000000d00700000000000069040000008000000000000000bd0a00000000000000000000000000001100000000000000",
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
    assert_eq!(hex(&frame), golden, "{name}: wire v3 layout changed");
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
