//! Event-loop server suite: exact protocol verdicts and metrics for
//! scripted scenarios, while holding orders of magnitude more idle
//! connections than one thread per connection could.
//!
//! Four contracts:
//!
//! * **Idle capacity**: hundreds (env-scalable to 10k+) of parked
//!   connections cost no threads and stay serviceable — each answers a
//!   query after sitting idle through active traffic.
//! * **Exact metrics**: a fixed scenario script (verified queries,
//!   request errors, protocol violations) leaves exactly the
//!   [`ServerMetricsSnapshot`] counts the script implies.
//! * **Overload verdicts**: BUSY shedding and TIMEOUT eviction produce
//!   the typed frames and the exact counters the script implies.
//! * **Frame budget**: a peer trickling payload bytes fast enough to
//!   keep resetting the idle gap is still evicted within the total
//!   per-frame budget (the trickle-evasion regression).

use authsearch::core::wire;
use authsearch::core::ServerMetricsSnapshot;
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

/// Write one `REQ_TERMS` frame on a raw stream and read back exactly
/// one reply frame, returning `(kind, payload)`.
fn raw_roundtrip(stream: &mut TcpStream, pairs: &[(u32, u32)], r: u32) -> (u8, Vec<u8>) {
    let frame = wire::Request::Terms {
        terms: pairs.to_vec(),
        r,
        mode: QueryMode::Disjunctive,
    }
    .encode_frame()
    .expect("encodable request");
    stream.write_all(&frame).expect("request written");
    read_reply(stream)
}

/// Read exactly one reply frame off a raw stream.
fn read_reply(stream: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut header = [0u8; wire::FRAME_HEADER_LEN];
    stream.read_exact(&mut header).expect("reply header");
    let (kind, len) = wire::decode_frame_header(&header).expect("reply header decodes");
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("reply payload");
    (kind, payload)
}

/// Extract the error code from a reply frame, panicking on OK replies.
fn err_code(kind: u8, payload: &[u8]) -> u8 {
    match wire::decode_reply_payload(kind, payload).expect("reply decodes") {
        wire::Reply::Err { code, .. } => code,
        other => panic!("expected an error reply, got {other:?}"),
    }
}

/// How many parked connections the idle smoke opens. Defaults low
/// enough for a 1-CPU CI container with a 1024-fd limit (each parked
/// connection costs two fds in-process); set
/// `AUTHSEARCH_TEST_IDLE_CONNS=10000` (with `ulimit -n` raised) to run
/// the full 10k-connection version of the same test.
fn idle_conn_target() -> usize {
    std::env::var("AUTHSEARCH_TEST_IDLE_CONNS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(200)
}

/// Park a crowd of idle connections on the reactor, run verified
/// traffic past them, then prove a sample of the parked crowd is still
/// fully serviceable after sitting idle the whole time.
#[test]
fn parked_connections_stay_serviceable_through_active_traffic() {
    let (engine, params, workloads) = fixture(Mechanism::TnraCmht);
    let target = idle_conn_target();
    let handle = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: target + 16,
            idle_deadline: Duration::ZERO, // parked forever is legal here
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");

    let mut parked: Vec<TcpStream> = Vec::with_capacity(target);
    for i in 0..target {
        match TcpStream::connect(handle.addr()) {
            Ok(stream) => parked.push(stream),
            Err(e) => panic!("dial {i}/{target} failed: {e} (raise ulimit -n?)"),
        }
    }

    // Active verified traffic while the crowd sits parked.
    let mut connection = Connection::connect(handle.addr(), params).expect("connect");
    for pairs in &workloads {
        let (verified, response) = connection.query_terms(pairs, 5).expect("verified");
        assert_eq!(verified.result, response.result);
    }

    // A sample of the parked crowd must still answer (front, middle,
    // back — dial order must not matter).
    for idx in [0, target / 2, target - 1] {
        let (kind, _) = raw_roundtrip(&mut parked[idx], &workloads[0], 5);
        assert_eq!(kind, wire::kind::REPLY_OK, "parked conn {idx} must answer");
    }

    drop(parked);
    drop(connection);
    let stats = handle.shutdown();
    assert_eq!(stats.connections as usize, target + 1);
    assert_eq!(stats.connections_timed_out, 0, "nothing may be evicted");
    assert_eq!(stats.connections_shed, 0);
}

/// One fixed scenario script: six connections admitted up front (so
/// the high-water mark is deterministic), then verified queries,
/// recoverable request errors, and two terminal protocol violations.
/// Returns the final metrics snapshot.
fn mixed_scenario() -> ServerMetricsSnapshot {
    let (engine, params, workloads) = fixture(Mechanism::TnraCmht);
    let handle = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");

    // Admit everyone first — a completed roundtrip proves admission —
    // so active_highwater is exactly 6.
    let mut verifier = Connection::connect(handle.addr(), params).expect("connect");
    let (verified, response) = verifier.query_terms(&workloads[0], 5).expect("verified");
    assert_eq!(verified.result, response.result);
    let mut raws: Vec<TcpStream> = (0..5)
        .map(|i| {
            let mut stream = TcpStream::connect(handle.addr()).expect("dial");
            let (kind, _) = raw_roundtrip(&mut stream, &workloads[1 + i % 4], 5);
            assert_eq!(kind, wire::kind::REPLY_OK);
            stream
        })
        .collect();

    // raws[0]: a second valid query.
    let (kind, _) = raw_roundtrip(&mut raws[0], &workloads[2], 5);
    assert_eq!(kind, wire::kind::REPLY_OK);

    // raws[1]: out-of-dictionary term → BAD_QUERY, connection survives.
    let (kind, payload) = raw_roundtrip(&mut raws[1], &[(999_999, 1)], 5);
    assert_eq!(err_code(kind, &payload), wire::errcode::BAD_QUERY);
    let (kind, _) = raw_roundtrip(&mut raws[1], &workloads[3], 5);
    assert_eq!(kind, wire::kind::REPLY_OK, "survives a bad query");

    // raws[2]: unknown kind with a valid header → MALFORMED, survives.
    let header = wire::encode_frame_header(0x7f, 3).expect("header");
    raws[2].write_all(&header).expect("header written");
    raws[2].write_all(&[1, 2, 3]).expect("payload written");
    let (kind, payload) = read_reply(&mut raws[2]);
    assert_eq!(err_code(kind, &payload), wire::errcode::MALFORMED);
    let (kind, _) = raw_roundtrip(&mut raws[2], &workloads[0], 5);
    assert_eq!(kind, wire::kind::REPLY_OK, "survives an unknown kind");

    // raws[3]: garbage bytes → MALFORMED, then the server closes.
    raws[3]
        .write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("garbage written");
    let (kind, payload) = read_reply(&mut raws[3]);
    assert_eq!(err_code(kind, &payload), wire::errcode::MALFORMED);
    let mut sink = Vec::new();
    let _ = raws[3].read_to_end(&mut sink);
    assert!(sink.is_empty(), "nothing after the terminal MALFORMED");

    // raws[4]: oversize declaration → MALFORMED, then the server closes.
    let header = wire::encode_frame_header(wire::kind::REQ_TERMS, 1 << 21).expect("header");
    raws[4].write_all(&header).expect("header written");
    let (kind, payload) = read_reply(&mut raws[4]);
    assert_eq!(err_code(kind, &payload), wire::errcode::MALFORMED);
    let mut sink = Vec::new();
    let _ = raws[4].read_to_end(&mut sink);
    assert!(sink.is_empty(), "nothing after the oversize refusal");

    // Final verified query, then tear down.
    let (verified, response) = verifier.query_terms(&workloads[1], 5).expect("verified");
    assert_eq!(verified.result, response.result);
    drop(raws);
    drop(verifier);
    handle.shutdown()
}

/// The script must leave exactly the counters it implies behind:
/// admissions, OK/error splits, high-water mark.
#[test]
fn mixed_scenario_metrics_are_exact() {
    let stats = mixed_scenario();
    assert_eq!(stats.connections, 6);
    assert_eq!(stats.active_highwater, 6);
    assert_eq!(stats.requests_ok, 10);
    assert_eq!(stats.requests_err, 4);
    assert_eq!(stats.connections_shed, 0);
    assert_eq!(stats.connections_timed_out, 0);
    assert!(stats.bytes_in > 0 && stats.bytes_out > stats.bytes_in);
}

/// Shed scenario: cap of 1, one admitted holder, two overflow dials
/// each answered with a typed BUSY frame then closed.
fn shed_scenario() -> ServerMetricsSnapshot {
    let (engine, params, workloads) = fixture(Mechanism::TnraMht);
    let handle = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut holder = Connection::connect(handle.addr(), params).expect("connect");
    let (verified, response) = holder.query_terms(&workloads[0], 5).expect("verified");
    assert_eq!(verified.result, response.result);
    for _ in 0..2 {
        let mut stream = TcpStream::connect(handle.addr()).expect("dial");
        let (kind, payload) = read_reply(&mut stream);
        assert_eq!(err_code(kind, &payload), wire::errcode::BUSY);
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
        assert!(sink.is_empty(), "BUSY then FIN, nothing else");
    }
    drop(holder);
    handle.shutdown()
}

#[test]
fn shed_verdicts_and_metrics_are_exact() {
    let stats = shed_scenario();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.connections_shed, 2);
    assert_eq!(stats.active_highwater, 1);
    assert_eq!(stats.requests_ok, 1);
}

/// Timeout scenario: a slow-loris partial header, evicted with a typed
/// TIMEOUT frame by the idle deadline.
fn timeout_scenario() -> ServerMetricsSnapshot {
    let (engine, _, _) = fixture(Mechanism::TnraMht);
    let deadline = Duration::from_millis(250);
    let handle = Server::start(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            idle_deadline: deadline,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut stream = TcpStream::connect(handle.addr()).expect("dial");
    stream
        .write_all(&wire::FRAME_MAGIC[..3])
        .expect("partial header");
    let start = Instant::now();
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);
    assert!(
        start.elapsed() < deadline + Duration::from_secs(5),
        "eviction must be deadline-bounded"
    );
    let (kind, payload) = wire::split_frame(&sink).expect("a whole TIMEOUT frame, then EOF");
    assert_eq!(err_code(kind, payload), wire::errcode::TIMEOUT);
    handle.shutdown()
}

#[test]
fn timeout_verdicts_and_metrics_are_exact() {
    let stats = timeout_scenario();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.connections_timed_out, 1);
    assert_eq!(stats.requests_ok, 0);
    assert_eq!(stats.requests_err, 0, "an eviction is not a request error");
}

/// The trickle-evasion regression: a peer declaring a 600-byte payload
/// and then dribbling one byte per 50 ms never lets the idle *gap*
/// expire — but the total per-frame budget (idle deadline plus a
/// minimum-throughput allowance) must still evict it.
#[test]
fn trickling_payload_is_evicted_within_the_frame_budget() {
    let (engine, _, _) = fixture(Mechanism::TnraCmht);
    let idle = Duration::from_millis(200);
    let handle = Server::start(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            idle_deadline: idle,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut stream = TcpStream::connect(handle.addr()).expect("dial");
    let header = wire::encode_frame_header(wire::kind::REQ_TERMS, 600).expect("header");
    stream.write_all(&header).expect("header written");
    let start = Instant::now();

    // Dribble from a second thread; the drip keeps each byte gap
    // (50 ms) far below the idle deadline (200 ms).
    let writer = {
        let mut stream = stream.try_clone().expect("clone for writer");
        std::thread::spawn(move || {
            while stream.write_all(&[0x61]).is_ok() {
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    };
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);
    let elapsed = start.elapsed();
    // Budget: 200 ms idle + (600/1024 + 1) s allowance = 1.2 s.
    assert!(
        elapsed < Duration::from_secs(5),
        "trickler must be evicted by the frame budget, took {elapsed:?}"
    );
    assert!(elapsed >= idle, "eviction cannot precede the idle deadline");
    let (kind, payload) = wire::split_frame(&sink).expect("typed TIMEOUT frame");
    assert_eq!(err_code(kind, payload), wire::errcode::TIMEOUT);
    writer.join().expect("writer joins after server close");
    let stats = handle.shutdown();
    assert_eq!(stats.connections_timed_out, 1);
    assert_eq!(stats.requests_ok, 0);
}

/// Steady serving arms no timer per query: after 500 verified queries
/// on one persistent connection the loop's deadline heap holds at most
/// two entries (the connection's armed deadline and at most one it
/// has outlived), not one stale entry per answered query.
#[test]
fn one_connection_keeps_at_most_two_timer_entries() {
    let (engine, params, workloads) = fixture(Mechanism::TnraCmht);
    let handle =
        Server::start(engine, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let mut connection = Connection::connect(handle.addr(), params).expect("connect");
    for pairs in workloads.iter().cycle().take(500) {
        let (verified, response) = connection.query_terms(pairs, 5).expect("verified");
        assert_eq!(verified.result, response.result);
    }
    let timers = handle.transport_stats().timers;
    assert!(timers <= 2, "{timers} timer entries for one connection");
    drop(connection);
    let stats = handle.shutdown();
    assert_eq!(stats.requests_ok, 500);
}
