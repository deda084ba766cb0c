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
//!    the `DPTDNET\x01` hello must decrement the live-connection
//!    budget on every close path. A loop of bad-hello connects must
//!    leave the budget intact for later good clients.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dptd::cluster::{NodeConfig, NodeServer};
use dptd::core::roles::PerturbedReport;
use dptd::protocol::message::StampedReport;
use dptd::server::registry::RegistryConfig;
use dptd::server::wire::{Request, HELLO};
use dptd::server::{CampaignSpec, Client, IoConfig, Server, ServerConfig};

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

    // Far more handshake failures than the budget holds. Half read the
    // refusal to EOF (orderly close), half just vanish; both paths must
    // give the slot back.
    for i in 0..20 {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"GET / HT").unwrap(); // 8 bytes, wrong magic
        if i % 2 == 0 {
            use std::io::Read as _;
            let mut sink = Vec::new();
            let _ = raw.read_to_end(&mut sink);
            assert!(!sink.is_empty(), "a typed refusal precedes the close");
        }
        drop(raw);
    }

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
