//! Overload suite: the server sheds load without shedding integrity.
//!
//! Two contracts, each a way a server could be wedged or bloated
//! without forging a byte:
//!
//! * **Admission**: at `max_connections = N`, N+k concurrent clients
//!   see exactly k typed BUSY refusals — never a silent RST — while
//!   the admitted N keep serving verified responses.
//! * **Idle deadline**: a slow-loris peer (partial frame, then
//!   silence) is answered with a typed TIMEOUT frame and evicted,
//!   releasing its thread; concurrent honest clients never notice.

use authsearch::core::wire;
use authsearch::core::RetryPolicy;
use authsearch::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine behind the server, the owner's broadcast parameters, and the
/// `(term, f_qt)` workloads the clients pose.
type Fixture = (Arc<SearchEngine>, VerifierParams, Vec<Vec<(u32, u32)>>);

fn fixture(mechanism: Mechanism) -> Fixture {
    let corpus = SyntheticConfig::tiny(150, 41).generate();
    let owner = DataOwner::with_cached_key(authsearch::crypto::keys::TEST_KEY_BITS);
    let config = AuthConfig::new(mechanism);
    let publication = owner.publish(&corpus, config);
    let num_terms = publication.auth.index().num_terms();
    let workloads: Vec<Vec<(u32, u32)>> =
        authsearch::corpus::workload::synthetic(num_terms, 6, 2, 9)
            .into_iter()
            .map(|terms| {
                let mut pairs: Vec<(u32, u32)> = terms.iter().map(|&t| (t, 1)).collect();
                pairs.sort_unstable();
                pairs.dedup_by_key(|p| p.0);
                pairs
            })
            .collect();
    (
        Arc::new(SearchEngine::new(publication.auth, corpus)),
        publication.verifier_params,
        workloads,
    )
}

/// `max_connections = 2` under 2 + 3 clients: the two admitted
/// connections keep verifying, the three over-cap ones each get the
/// typed BUSY code — exactly the excess is shed, nothing more.
#[test]
fn exactly_the_excess_is_shed_with_the_busy_code() {
    const CAP: usize = 2;
    const EXCESS: usize = 3;
    let (engine, params, workloads) = fixture(Mechanism::TnraCmht);
    let handle = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: CAP,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    // Fill the cap with verifying clients (a completed query proves
    // each one is admitted and registered).
    let mut admitted: Vec<Connection> = (0..CAP)
        .map(|i| {
            let mut connection = Connection::connect(handle.addr(), params.clone()).unwrap();
            let (verified, response) = connection
                .query_terms(&workloads[i], 5)
                .expect("admitted client verifies");
            assert_eq!(verified.result, response.result);
            connection
        })
        .collect();
    // The excess: each refused with a BUSY frame before sending a byte.
    for _ in 0..EXCESS {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut header = [0u8; wire::FRAME_HEADER_LEN];
        stream.read_exact(&mut header).unwrap();
        let (kind, len) = wire::decode_frame_header(&header).unwrap();
        let mut payload = vec![0u8; len];
        stream.read_exact(&mut payload).unwrap();
        match wire::decode_reply_payload(kind, &payload).unwrap() {
            wire::Reply::Err { code, .. } => assert_eq!(code, wire::errcode::BUSY),
            other => panic!("expected BUSY, got {other:?}"),
        }
    }
    // The admitted clients are untouched by the shed storm.
    for (i, connection) in admitted.iter_mut().enumerate() {
        let (verified, response) = connection
            .query_terms(&workloads[CAP + i % (workloads.len() - CAP)], 5)
            .expect("admitted client still verifies");
        assert_eq!(verified.result, response.result);
    }
    drop(admitted);
    let stats = handle.shutdown();
    assert_eq!(stats.connections as usize, CAP, "exactly the cap admitted");
    assert_eq!(
        stats.connections_shed as usize, EXCESS,
        "exactly the excess shed"
    );
    assert_eq!(stats.active_highwater as usize, CAP);
    assert_eq!(stats.requests_ok as usize, 2 * CAP);
    assert_eq!(stats.requests_err, 0);
}

/// A retrying client eventually gets through a briefly-full server.
#[test]
fn retrying_client_rides_out_the_cap() {
    let (engine, params, workloads) = fixture(Mechanism::TnraMht);
    let handle = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut holder = Connection::connect(handle.addr(), params.clone()).unwrap();
    holder
        .query_terms(&workloads[0], 5)
        .expect("holder admitted");
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        drop(holder);
    });
    let mut waiter = Connection::connect(handle.addr(), params).unwrap();
    let policy = RetryPolicy {
        max_attempts: 100,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(50),
        ..RetryPolicy::default()
    };
    let request = wire::Request::Terms {
        terms: workloads[1].clone(),
        r: 5,
        mode: QueryMode::Disjunctive,
    };
    let (_, verified, response) = waiter
        .query_retrying(&request, policy)
        .expect("retry-on-busy gets through once the slot frees");
    assert_eq!(verified.result, response.result);
    releaser.join().unwrap();
    let stats = handle.shutdown();
    assert!(stats.connections_shed >= 1);
}

/// A slow-loris peer dribbling a partial header is evicted by the idle
/// deadline with a typed TIMEOUT frame, while an honest client on the
/// same server keeps verifying throughout.
#[test]
fn slow_loris_is_evicted_while_honest_traffic_flows() {
    let (engine, params, workloads) = fixture(Mechanism::TnraCmht);
    let deadline = Duration::from_millis(300);
    let handle = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            idle_deadline: deadline,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let loris = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        // A partial header — valid magic, then silence.
        stream.write_all(&wire::FRAME_MAGIC[..3]).unwrap();
        let start = Instant::now();
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink); // TIMEOUT frame, then EOF
        let elapsed = start.elapsed();
        (sink, elapsed)
    });
    // Honest traffic during the loris' lifetime.
    let mut connection = Connection::connect(addr, params).unwrap();
    let start = Instant::now();
    while start.elapsed() < deadline + Duration::from_millis(200) {
        for pairs in &workloads {
            let (verified, response) = connection.query_terms(pairs, 5).expect("verified");
            assert_eq!(verified.result, response.result);
        }
    }
    let (sink, elapsed) = loris.join().unwrap();
    assert!(
        elapsed < deadline + Duration::from_secs(5),
        "eviction must be deadline-bounded, took {elapsed:?}"
    );
    let (kind, payload) = wire::split_frame(&sink).expect("a whole TIMEOUT frame, then EOF");
    match wire::decode_reply_payload(kind, payload).unwrap() {
        wire::Reply::Err { code, .. } => assert_eq!(code, wire::errcode::TIMEOUT),
        other => panic!("expected TIMEOUT, got {other:?}"),
    }
    drop(connection);
    let stats = handle.shutdown();
    assert_eq!(stats.connections_timed_out, 1);
}

/// A mid-payload stall is the same attack with a costume change: a
/// valid header promising bytes that never come must also be evicted.
#[test]
fn stalled_payload_is_evicted_too() {
    let (engine, _, _) = fixture(Mechanism::TnraMht);
    let handle = Server::start(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            idle_deadline: Duration::from_millis(250),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let frame = authsearch::core::wire::Request::Text {
        text: "night keeper".into(),
        r: 2,
    }
    .encode_frame()
    .unwrap();
    // Header plus two payload bytes, then silence.
    stream
        .write_all(&frame[..wire::FRAME_HEADER_LEN + 2])
        .unwrap();
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);
    let (kind, payload) = wire::split_frame(&sink).expect("typed TIMEOUT frame");
    match wire::decode_reply_payload(kind, payload).unwrap() {
        wire::Reply::Err { code, .. } => assert_eq!(code, wire::errcode::TIMEOUT),
        other => panic!("{other:?}"),
    }
    let stats = handle.shutdown();
    assert_eq!(stats.connections_timed_out, 1);
}
