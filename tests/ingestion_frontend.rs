//! Slow-client and handshake-failure hardening for the ingestion
//! front end.
//!
//! Two regressions pinned here, on **both** serving paths (the campaign
//! server and the cluster node — they share `dptd_server::Frontend`):
//!
//! 1. **Slow-loris reclamation.** A peer that sends half a frame and
//!    then goes silent used to pin a connection slot forever (the old
//!    blocking reader had no read deadline). Now the stall deadline
//!    reclaims the slot: with a connection budget of 1 and a stalled
//!    half-frame peer occupying it, a well-behaved client gets in
//!    within the deadline: the reactor's stall sweep frees it.
//!
//! 2. **Handshake-failure slot accounting.** A connection refused at
//!    the `DPTDNET` hello must decrement the live-connection budget on
//!    every close path. A loop of bad-hello connects — foreign bytes,
//!    and a hello of an older wire version — must leave the budget
//!    intact for later good clients, and the older version is told both
//!    version numbers in a typed refusal.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dptd::cluster::{NodeConfig, NodeServer};
use dptd::core::roles::PerturbedReport;
use dptd::protocol::message::StampedReport;
use dptd::server::registry::RegistryConfig;
use dptd::server::wire::{split_frame, Request, Response, HELLO};
use dptd::server::{CampaignSpec, Client, ErrorCode, IoConfig, Server, ServerConfig};

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

/// Short deadlines so the reclamation happens within test time.
fn short_deadlines() -> IoConfig {
    IoConfig {
        reactor_threads: 1,
        idle_timeout: Duration::from_millis(400),
        stall_timeout: Duration::from_millis(150),
    }
}

/// Hello plus half a valid frame, then silence — the socket stays open.
fn stall_half_frame(addr: std::net::SocketAddr) -> TcpStream {
    let frame = Request::SubmitReports {
        campaign: "c".to_string(),
        reports: vec![StampedReport {
            epoch: 0,
            sent_at_us: 1,
            report: PerturbedReport {
                user: 0,
                values: vec![(0, 1.0)],
            },
        }],
        ctx: None,
    }
    .encode();
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&HELLO).unwrap();
    raw.write_all(&frame[..frame.len() / 2]).unwrap();
    raw // held open by the caller: the peer is stalled, not gone
}

/// Keep trying to get a working session until the stalled peer's slot
/// is reclaimed; panic if the deadline sweep never frees it.
fn eventually<T>(what: &str, mut attempt: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(v) = attempt() {
            return v;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: the stalled slot was never reclaimed"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn a_stalled_half_frame_peer_is_reclaimed_by_the_reactor() {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        max_connections: 1,
        io: short_deadlines(),
        registry: RegistryConfig::default(),
    })
    .unwrap();
    let addr = server.local_addr();

    // The sole slot is taken by a peer stuck mid-frame.
    let _stalled = stall_half_frame(addr);

    // Within the stall deadline the reactor reaps it, and a
    // well-behaved client gets the slot and full service.
    let mut client = eventually("server", || {
        let mut c = Client::connect(addr).ok()?;
        c.create_campaign("after", tiny_spec()).ok()?;
        Some(c)
    });
    client
        .submit(
            "after",
            vec![StampedReport {
                epoch: 0,
                sent_at_us: 1,
                report: PerturbedReport {
                    user: 0,
                    values: vec![(0, 2.0)],
                },
            }],
        )
        .unwrap();
    assert_eq!(client.close_round("after", 0).unwrap().accepted, 1);
    drop(client);
    server.shutdown();
}

#[test]
fn a_stalled_peer_on_a_cluster_node_is_reclaimed_too() {
    let node = NodeServer::start(NodeConfig {
        node_id: 0,
        num_nodes: 1,
        max_connections: 1,
        io: short_deadlines(),
        ..NodeConfig::default()
    })
    .unwrap();
    let addr = node.local_addr();
    let _stalled = stall_half_frame(addr);
    let mut client = eventually("node", || {
        let mut c = Client::connect(addr).ok()?;
        c.node_hello(0, 1).ok()?;
        Some(c)
    });
    assert_eq!(client.node_hello(0, 1).unwrap(), 0);
    drop(client);
    node.shutdown();
}

/// Far more handshake failures than a 2-slot budget holds. A quarter
/// each: foreign bytes or a v1 hello, read to EOF (orderly close) or
/// just dropped; every path must give the slot back, and a read refusal
/// is typed — naming both versions for the v1 hello.
fn refuse_bad_hellos(addr: std::net::SocketAddr) {
    for i in 0..20 {
        let mut raw = TcpStream::connect(addr).unwrap();
        let v1 = i % 4 >= 2;
        // 8 bytes each: wrong magic, or the right magic at version 1.
        raw.write_all(if v1 { b"DPTDNET\x01" } else { b"GET / HT" })
            .unwrap();
        if i % 2 == 0 {
            use std::io::Read as _;
            let mut sink = Vec::new();
            let _ = raw.read_to_end(&mut sink);
            let (body, _) = split_frame(&sink).expect("a typed refusal precedes the close");
            let Response::Error { code, message } = Response::decode(body).unwrap() else {
                panic!("expected a typed refusal");
            };
            assert_eq!(code, ErrorCode::InvalidRequest);
            if v1 {
                assert_eq!(message, "peer sent wire v1; this end speaks v2");
            } else {
                assert_eq!(message, "not a dptd hello");
            }
        }
        drop(raw);
    }
}

#[test]
fn bad_hellos_do_not_leak_connection_slots() {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        max_connections: 2,
        io: short_deadlines(),
        registry: RegistryConfig::default(),
    })
    .unwrap();
    let addr = server.local_addr();
    refuse_bad_hellos(addr);

    // Both slots are (eventually — the abrupt halves may still be
    // draining) available to good clients, concurrently.
    let mut a = eventually("bad-hello/a", || {
        let mut c = Client::connect(addr).ok()?;
        c.create_campaign("a", tiny_spec()).ok()?;
        Some(c)
    });
    let mut b = eventually("bad-hello/b", || {
        let mut c = Client::connect(addr).ok()?;
        c.query_budget("a").ok()?;
        Some(c)
    });
    assert!(a.query_truths("a").is_ok());
    assert!(b.query_budget("a").is_ok());
    drop((a, b));
    server.shutdown();
}

#[test]
fn bad_hellos_do_not_leak_connection_slots_on_a_cluster_node() {
    let node = NodeServer::start(NodeConfig {
        node_id: 0,
        num_nodes: 1,
        max_connections: 2,
        io: short_deadlines(),
        ..NodeConfig::default()
    })
    .unwrap();
    let addr = node.local_addr();
    refuse_bad_hellos(addr);

    let mut a = eventually("node bad-hello/a", || {
        let mut c = Client::connect(addr).ok()?;
        c.node_hello(0, 1).ok()?;
        Some(c)
    });
    let mut b = eventually("node bad-hello/b", || {
        let mut c = Client::connect(addr).ok()?;
        c.node_hello(0, 1).ok()?;
        Some(c)
    });
    assert_eq!(a.node_hello(0, 1).unwrap(), 0);
    assert_eq!(b.node_hello(0, 1).unwrap(), 0);
    drop((a, b));
    node.shutdown();
}
