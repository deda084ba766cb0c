//! What a cluster node inherits from the hosting core it shares with
//! the campaign server (`dptd_server::host`), checked over real TCP:
//! spec admission bounds the population before anything `O(users)` is
//! allocated, refusals are counted per campaign and feed the
//! refusal-storm flight trigger, and one submission queue serves both
//! hosts — a scripted sequence gets the same answers from a
//! `CampaignRegistry` and from a node, and a claim the aggregation would
//! refuse — or a frame of a retired kind — is refused by a `Server` and
//! by a node alike.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;

use dptd_cluster::{NodeConfig, NodeServer};
use dptd_core::roles::PerturbedReport;
use dptd_obs::{flight, names};
use dptd_protocol::message::StampedReport;
use dptd_server::wire::{frame_check, HELLO};
use dptd_server::{
    read_frame_body, write_frame, CampaignRegistry, CampaignSpec, Client, ErrorCode,
    RegistryConfig, Request, Response, Server, ServerConfig, ServerError, WireError,
};
use dptd_stats::digest::fnv1a_f64s;
use dptd_truth::streaming::{ShardClaims, StreamingCrh};
use dptd_truth::Loss;

fn spec(users: u64, capacity: u64) -> CampaignSpec {
    CampaignSpec {
        num_users: users,
        num_objects: 1,
        num_shards: 1,
        workers: 1,
        engine_queue: 64,
        deadline_us: 1_000,
        submission_capacity: capacity,
        per_round_epsilon: 0.5,
        per_round_delta: 0.0,
        budget_epsilon: 4.0,
        budget_delta: 0.0,
        stream_tag: 0,
        durable: false,
    }
}

fn stamped(epoch: u64, user: usize) -> StampedReport {
    StampedReport {
        epoch,
        sent_at_us: 10 + user as u64,
        report: PerturbedReport {
            user,
            values: vec![(0, user as f64)],
        },
    }
}

fn submit(campaign: &str, reports: Vec<StampedReport>) -> Request {
    Request::SubmitReports {
        campaign: campaign.to_string(),
        reports,
        ctx: None,
    }
}

fn is_invalid_request(outcome: &Result<u64, ServerError>) -> bool {
    matches!(
        outcome,
        Err(ServerError::Remote {
            code: ErrorCode::InvalidRequest,
            ..
        })
    )
}

/// A campaign's queue depth, read the one way a live process exposes
/// its numbers: the `QueryStatus` snapshot.
fn queued(client: &mut Client, campaign: &str) -> Option<u64> {
    let snapshot = client.query_status().unwrap();
    snapshot.scalar(&names::campaign_metric(campaign, names::QUEUE_DEPTH))
}

#[test]
fn an_oversized_create_is_refused_and_the_node_keeps_serving() {
    let node = NodeServer::start(NodeConfig::default()).unwrap();
    let mut hostile = Client::connect(node.local_addr()).unwrap();
    // The two frames that used to abort the process: a population no
    // host can hold, then the first `O(users)` allocation over it.
    let outcome = hostile.create_campaign("huge", spec(1 << 40, 64));
    assert!(is_invalid_request(&outcome), "{outcome:?}");
    let ledger = hostile.query_ledger("huge", u64::MAX);
    assert!(
        matches!(
            ledger,
            Err(ServerError::Remote {
                code: ErrorCode::UnknownCampaign,
                ..
            })
        ),
        "nothing may have been hosted: {ledger:?}"
    );
    let outcome = hostile.create_campaign("no-queue", spec(3, 0));
    assert!(is_invalid_request(&outcome), "{outcome:?}");
    // An object count no host can size its per-object sums for.
    let wide = CampaignSpec {
        num_objects: 1 << 40,
        ..spec(3, 64)
    };
    let outcome = hostile.create_campaign("wide", wide);
    assert!(is_invalid_request(&outcome), "{outcome:?}");
    // No objects to aggregate, or no time to report in: a server refuses
    // both, so a node must too.
    for (id, hostile_spec) in [
        (
            "no-objects",
            CampaignSpec {
                num_objects: 0,
                ..spec(3, 64)
            },
        ),
        (
            "no-deadline",
            CampaignSpec {
                deadline_us: 0,
                ..spec(3, 64)
            },
        ),
    ] {
        let outcome = hostile.create_campaign(id, hostile_spec);
        assert!(is_invalid_request(&outcome), "{id}: {outcome:?}");
    }

    // A second connection creates and runs a normal round.
    let mut client = Client::connect(node.local_addr()).unwrap();
    client.create_campaign("part", spec(3, 64)).unwrap();
    client
        .submit_chunked("part", &[stamped(0, 0), stamped(0, 2)], 8)
        .unwrap();
    let prepared = client.close_round_prepare("part", 0, vec![]).unwrap();
    assert_eq!(prepared.claims.len(), 2);
    let appended = client
        .close_round_commit(
            "part",
            0,
            1,
            vec![0, 2],
            vec![0.5, 0.0, 0.25],
            vec![1, 0, 1],
        )
        .unwrap();
    assert!(appended);
    let ledger = client.query_ledger("part", u64::MAX).unwrap();
    assert_eq!(
        (ledger.next_epoch, ledger.rounds_debited),
        (1, vec![1, 0, 1])
    );
    node.shutdown();
}

/// The frame cap holds on the way out. A population inside the 4 Mi cap
/// can still have a ledger (12 bytes a user) past the 32 MiB frame cap;
/// the node used to encode it anyway — a frame its own client must
/// refuse, losing the connection's framing in release, and in debug a
/// `debug_assert!` that took the reactor thread down with every
/// connection it owned.
#[test]
fn an_over_cap_frame_is_refused_typed_on_either_side_and_the_connection_keeps_working() {
    let node = NodeServer::start(NodeConfig::default()).unwrap();
    let mut client = Client::connect(node.local_addr()).unwrap();

    let users = 2_800_000usize;
    client
        .create_campaign("wide", spec(users as u64, 64))
        .unwrap();
    let body_len = 1 + 8 + 8 + (4 + 4 * users) + (4 + 8 * users);
    match client.query_ledger("wide", u64::MAX) {
        Err(ServerError::Remote {
            code: ErrorCode::Internal,
            message,
        }) => assert_eq!(
            message,
            format!("reply of {body_len} bytes exceeds the 33554432-byte frame cap")
        ),
        other => panic!("expected the typed refusal, got {other:?}"),
    }
    // The refusal was a well-formed frame: the same connection is
    // still aligned, and runs a normal round on the same node.
    client.query_status().unwrap();
    client.create_campaign("part", spec(3, 64)).unwrap();
    client
        .submit_chunked("part", &[stamped(0, 0), stamped(0, 2)], 8)
        .unwrap();
    let prepared = client.close_round_prepare("part", 0, vec![]).unwrap();
    assert_eq!(prepared.claims.len(), 2);
    let appended = client
        .close_round_commit(
            "part",
            0,
            1,
            vec![0, 2],
            vec![0.5, 0.0, 0.25],
            vec![1, 0, 1],
        )
        .unwrap();
    assert!(appended);

    // The client's side of the same cap: a commit past it (20 bytes a
    // user) is refused locally, before a byte is written, so the next
    // exchange on the connection still lines up.
    let wide = 1_700_000;
    let refused =
        client.close_round_commit("part", 1, 2, vec![0; wide], vec![0.5; wide], vec![1; wide]);
    assert!(
        matches!(refused, Err(ServerError::Wire(WireError::TooLarge { claimed })) if claimed > 33_554_432),
        "{refused:?}"
    );
    let ledger = client.query_ledger("part", u64::MAX).unwrap();
    assert_eq!(
        (ledger.next_epoch, ledger.rounds_debited),
        (1, vec![1, 0, 1])
    );
    node.shutdown();
}

#[test]
fn a_node_counts_its_refusals_and_a_storm_of_them_freezes_a_flight_bundle() {
    let dir = std::env::temp_dir().join(format!("dptd-node-hosting-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    flight::global().set_dir(Some(dir.clone()));

    let node = NodeServer::start(NodeConfig::default()).unwrap();
    let mut client = Client::connect(node.local_addr()).unwrap();
    client.create_campaign("busy", spec(8, 2)).unwrap();
    let resp = client
        .request(&submit("busy", vec![stamped(0, 0), stamped(0, 1)]))
        .unwrap();
    assert_eq!(resp, Response::Submitted { queued: 2 });
    let overflow = submit("busy", vec![stamped(0, 2)]);
    let busy = Response::Busy {
        queued: 2,
        capacity: 2,
    };
    assert_eq!(client.request(&overflow).unwrap(), busy);

    // The node-side twin of `observability_e2e`'s server assertion.
    let snapshot = client.query_status().unwrap();
    let counter = names::campaign_metric("busy", names::REFUSED_BUSY);
    assert_eq!(snapshot.scalar(&counter), Some(1));
    let shares = snapshot.campaign_shares();
    let share = shares.iter().find(|s| s.id == "busy").unwrap();
    assert_eq!((share.refused_busy, share.queue_depth), (1, 2));
    assert!(snapshot.scalar(names::SERVER_REQUESTS).unwrap_or(0) >= 3);

    // An unbroken run of refusals trips the storm trigger. The other
    // tests in this binary share the process-wide recorder and their
    // accepts break a run, so keep refusing until one run completes.
    let storm_bundle = || {
        std::fs::read_dir(&dir).ok()?.flatten().find(|entry| {
            let name = entry.file_name();
            name.to_string_lossy().ends_with("-refusal-storm.json")
        })
    };
    let mut refusals = 0u64;
    while storm_bundle().is_none() {
        assert!(refusals < 100_000, "no refusal-storm bundle was frozen");
        assert_eq!(client.request(&overflow).unwrap(), busy);
        refusals += 1;
    }
    let bundle = std::fs::read_to_string(storm_bundle().unwrap().path()).unwrap();
    assert!(bundle.contains("\"trigger\":\"refusal-storm\""), "{bundle}");
    assert!(bundle.contains("campaign.busy.refused.busy"), "{bundle}");

    flight::global().set_dir(None);
    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A response reduced to what the parity script compares: its kind, its
/// error code, its `queued` count.
fn outline(response: &Response) -> String {
    match response {
        Response::Submitted { queued } => format!("submitted({queued})"),
        Response::Busy { queued, capacity } => format!("busy({queued}/{capacity})"),
        Response::Error { code, .. } => format!("error({code})"),
        Response::Status { snapshot } => format!(
            "depth({})",
            snapshot
                .scalar(&names::campaign_metric("q", names::QUEUE_DEPTH))
                .expect("the campaign's queue depth")
        ),
        other => panic!("not a step of the queue script: {other:?}"),
    }
}

/// One scripted submission sequence — every queue decision once — with
/// `advance` closing the host's current round in its own way.
fn queue_script(
    mut ask: impl FnMut(Request) -> Response,
    mut advance: impl FnMut(u64),
) -> Vec<String> {
    let depth = Request::QueryStatus;
    let mut seen = Vec::new();
    let mut step = |request: Request| seen.push(outline(&ask(request)));
    // Round 0 closes first so that a stale epoch exists.
    step(submit("q", vec![stamped(0, 0), stamped(0, 1)]));
    advance(0);
    for batch in [
        vec![],                             // empty
        vec![stamped(1, 0), stamped(2, 1)], // mixed epochs
        vec![stamped(1, 4)],                // outside the population
        vec![stamped(0, 0)],                // stale
        vec![stamped(3, 0)],                // two ahead
        vec![stamped(2, 3)],                // lookahead: taken
        vec![stamped(1, 0), stamped(1, 1)], // fills the queue
        vec![stamped(1, 2)],                // overflow, current round
        vec![stamped(2, 2)],                // overflow, lookahead
    ] {
        step(submit("q", batch));
    }
    step(depth.clone());
    advance(1);
    // The lookahead was promoted: it alone is queued, for round 2.
    step(depth.clone());
    step(submit("q", vec![stamped(2, 0), stamped(2, 1)]));
    step(submit("q", vec![stamped(1, 2)]));
    step(depth);
    seen
}

#[test]
fn one_queue_serves_a_registry_and_a_node_identically() {
    let registry = CampaignRegistry::new(RegistryConfig::default());
    let created = registry.handle(Request::CreateCampaign {
        campaign: "q".to_string(),
        spec: spec(4, 3),
    });
    assert_eq!(created, Response::Created { resumed_rounds: 0 });
    let served = queue_script(
        |request| registry.handle(request),
        |epoch| {
            let closed = registry.handle(Request::CloseRound {
                campaign: "q".to_string(),
                epoch,
            });
            assert!(matches!(closed, Response::RoundClosed { .. }), "{closed:?}");
        },
    );

    let node = NodeServer::start(NodeConfig::default()).unwrap();
    let mut client = Client::connect(node.local_addr()).unwrap();
    let mut barrier = Client::connect(node.local_addr()).unwrap();
    client.create_campaign("q", spec(4, 3)).unwrap();
    let hosted = queue_script(
        |request| client.request(&request).unwrap(),
        |epoch| {
            barrier.close_round_prepare("q", epoch, vec![]).unwrap();
            let debits = vec![epoch as u32 + 1, epoch as u32 + 1, 0, 0];
            let appended = barrier
                .close_round_commit("q", epoch, epoch + 1, vec![0, 1], vec![0.0; 4], debits)
                .unwrap();
            assert!(appended);
        },
    );
    node.shutdown();

    assert_eq!(served, hosted);
    assert_eq!(
        served,
        [
            "submitted(2)",
            "submitted(0)",
            "error(invalid-request)",
            "error(invalid-request)",
            "error(invalid-request)",
            "error(invalid-request)",
            "submitted(1)",
            "submitted(3)",
            "busy(3/3)",
            "busy(3/3)",
            "depth(3)",
            "depth(1)",
            "submitted(3)",
            "error(invalid-request)",
            "depth(3)",
        ]
    );
}

/// A 100-user, 2-object round: every user reports both objects.
fn honest_round(epoch: u64) -> Vec<StampedReport> {
    (0..100)
        .map(|user| StampedReport {
            epoch,
            sent_at_us: 10 + user as u64,
            report: PerturbedReport {
                user,
                values: vec![(0, 1.0 + user as f64 / 64.0), (1, 9.0 - user as f64 / 32.0)],
            },
        })
        .collect()
}

/// One malformed claim used to fail everyone's round: nothing looked at
/// a claim's cells before the merge, so user 57 naming an object out of
/// range, a NaN, or one object twice made the close fail *after* it had
/// drained the queue — 99 honest reports consumed, the round not
/// advanced, repeatable every round. A huge but finite claim was worse:
/// it committed an infinite cumulative loss that no reopen could
/// restore. Both hosts now refuse such a batch at submit, whole, on a
/// connection that stays aligned, and the round closes with the digest
/// of a run that never saw it.
#[test]
fn a_malformed_claim_is_refused_at_submit_by_a_server_and_by_a_node() {
    let defects: [(Vec<(usize, f64)>, &str); 4] = [
        (
            vec![(0, 1.0), (7, 2.0)],
            "report from user 57 refused: object index 7 out of range for 2 objects",
        ),
        (
            vec![(0, 1.0), (1, f64::NAN)],
            "report from user 57 refused: non-finite observation NaN from user 57 on object 1",
        ),
        (
            vec![(0, 1.0), (0, 2.0)],
            "report from user 57 refused: user 57 observed object 0 more than once",
        ),
        (
            vec![(0, 1.0), (1, 1e200)],
            "report from user 57 refused: observation 1e200 from user 57 on object 1 \
             exceeds the claim magnitude bound 1e100",
        ),
    ];
    let two_objects = |capacity| CampaignSpec {
        num_objects: 2,
        ..spec(100, capacity)
    };
    // The batch user 57's bad report rides in: honest neighbours on
    // either side, none of which may be taken.
    let poisoned = |claims: &[(usize, f64)]| -> Vec<StampedReport> {
        let mut batch = honest_round(0)[56..59].to_vec();
        batch[1].report.values = claims.to_vec();
        batch
    };
    let refused_with = |response: Response, expected: &str| match response {
        Response::Error {
            code: ErrorCode::InvalidRequest,
            message,
        } => assert_eq!(message, expected),
        other => panic!("expected the typed refusal `{expected}`, got {other:?}"),
    };

    // A campaign server: the clean campaign never sees a bad batch.
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.create_campaign("clean", two_objects(256)).unwrap();
    client
        .submit_chunked("clean", &honest_round(0), 32)
        .unwrap();
    let clean = client.close_round("clean", 0).unwrap();
    assert_eq!(clean.accepted, 100);

    client.create_campaign("dirty", two_objects(256)).unwrap();
    client
        .submit_chunked("dirty", &honest_round(0)[..40], 32)
        .unwrap();
    for (claims, expected) in &defects {
        refused_with(
            client.request(&submit("dirty", poisoned(claims))).unwrap(),
            expected,
        );
        // Same connection, still frame-aligned; nothing was taken.
        assert_eq!(queued(&mut client, "dirty"), Some(40));
    }
    client
        .submit_chunked("dirty", &honest_round(0)[40..], 32)
        .unwrap();
    let dirty = client.close_round("dirty", 0).unwrap();
    assert_eq!(dirty, clean);
    server.shutdown();

    // A cluster node: same door, same refusals; what it hands the
    // coordinator's merge is what a clean partition hands it.
    let node = NodeServer::start(NodeConfig::default()).unwrap();
    let mut client = Client::connect(node.local_addr()).unwrap();
    client.create_campaign("clean", two_objects(256)).unwrap();
    client
        .submit_chunked("clean", &honest_round(0), 32)
        .unwrap();
    let clean_prepared = client.close_round_prepare("clean", 0, vec![]).unwrap();

    client.create_campaign("dirty", two_objects(256)).unwrap();
    client
        .submit_chunked("dirty", &honest_round(0)[..40], 32)
        .unwrap();
    for (claims, expected) in &defects {
        refused_with(
            client.request(&submit("dirty", poisoned(claims))).unwrap(),
            expected,
        );
        assert_eq!(queued(&mut client, "dirty"), Some(40));
    }
    client
        .submit_chunked("dirty", &honest_round(0)[40..], 32)
        .unwrap();
    let prepared = client.close_round_prepare("dirty", 0, vec![]).unwrap();
    assert_eq!(prepared, clean_prepared);
    node.shutdown();

    // Merged the way the coordinator merges it, the node's round has the
    // digest the server reported.
    let mut shard = ShardClaims::new();
    for claim in prepared.claims {
        shard.push(claim.user, claim.values);
    }
    let mut crh = StreamingCrh::new(100, Loss::Squared).unwrap();
    crh.ingest_sharded(2, vec![shard]).unwrap();
    assert_eq!(fnv1a_f64s(crh.weights()), clean.weights_digest);
}

/// A well-framed body of the retired kind `0x06` addressed to campaign
/// `cafe`, as a peer built against the old table would still send it.
fn retired_kind_frame() -> Vec<u8> {
    let body = [&[0x06, 4, 0][..], b"cafe"].concat();
    let len = body.len() as u32;
    [
        &len.to_le_bytes()[..],
        &(len ^ u32::from_le_bytes(*b"NET1")).to_le_bytes(),
        &frame_check(&body).to_le_bytes(),
        &body,
    ]
    .concat()
}

/// One framed request and its reply on a raw connection.
fn exchange(stream: &mut TcpStream, frame: &[u8]) -> Response {
    write_frame(stream, frame).unwrap();
    let body = read_frame_body(stream).unwrap().expect("a reply frame");
    Response::decode(&body).unwrap()
}

/// The retired kind bytes are refused the way any unknown kind is: a
/// typed `InvalidRequest` from a `Server` and from a node, on a
/// connection that keeps answering `QueryStatus` and runs a round.
#[test]
fn a_retired_kind_is_refused_typed_by_a_server_and_by_a_node() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let node = NodeServer::start(NodeConfig::default()).unwrap();
    for (addr, is_node) in [(server.local_addr(), false), (node.local_addr(), true)] {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&HELLO).unwrap();
        let mut echo = [0u8; 8];
        raw.read_exact(&mut echo).unwrap();
        assert_eq!(echo, HELLO);

        match exchange(&mut raw, &retired_kind_frame()) {
            Response::Error {
                code: ErrorCode::InvalidRequest,
                message,
            } => assert_eq!(message, "unknown frame kind 0x06"),
            other => panic!("expected the typed refusal, got {other:?}"),
        }
        let status = exchange(&mut raw, &Request::QueryStatus.encode());
        assert!(matches!(status, Response::Status { .. }), "{status:?}");

        let mut ask = |request: Request| exchange(&mut raw, &request.encode());
        let created = ask(Request::CreateCampaign {
            campaign: "r".to_string(),
            spec: spec(3, 64),
        });
        assert_eq!(created, Response::Created { resumed_rounds: 0 });
        let submitted = ask(submit("r", vec![stamped(0, 0), stamped(0, 2)]));
        assert_eq!(submitted, Response::Submitted { queued: 2 });
        if is_node {
            let prepared = ask(Request::CloseRoundPrepare {
                campaign: "r".to_string(),
                epoch: 0,
                refused: vec![],
                ctx: None,
            });
            assert!(
                matches!(&prepared, Response::Prepared { claims, .. } if claims.len() == 2),
                "{prepared:?}"
            );
            let committed = ask(Request::CloseRoundCommit {
                campaign: "r".to_string(),
                epoch: 0,
                batches_seen: 1,
                accepted_users: vec![0, 2],
                cumulative_losses: vec![0.5, 0.0, 0.25],
                rounds_debited: vec![1, 0, 1],
                ctx: None,
            });
            assert_eq!(
                committed,
                Response::Committed {
                    epoch: 0,
                    appended: true
                }
            );
        } else {
            let closed = ask(Request::CloseRound {
                campaign: "r".to_string(),
                epoch: 0,
            });
            assert!(
                matches!(closed, Response::RoundClosed { accepted: 2, .. }),
                "{closed:?}"
            );
        }
    }
    server.shutdown();
    node.shutdown();
}
