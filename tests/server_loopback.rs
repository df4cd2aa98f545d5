//! Loopback integration test of the long-running authenticated search
//! server: a real `TcpListener`, N concurrent verifying clients, and
//! the acceptance bar of PR 4 — every VO that comes back over the wire
//! byte-matches the sequential `serve` path and passes verification.
//!
//! Runs at whatever pool width `AUTHSEARCH_THREADS` pins (CI exercises
//! 1 and 4), since the serving pool and the per-connection dispatch
//! both sit under this test.
//!
//! CI additionally runs it once with `AUTHSEARCH_MAX_CONNECTIONS=2` and
//! an aggressive `AUTHSEARCH_IDLE_MS` — the shedding regime. Client
//! threads use retry-on-busy throughout (a no-op when nothing sheds),
//! and the exact-count assertions relax to the invariants that survive
//! admission control: every query still completes verified, and the
//! live-connection high-water mark never exceeds the cap.

use authsearch::core::wire;
use authsearch::core::{ClientNetError, RetryPolicy};
use authsearch::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 6;
const QUERIES_PER_CLIENT: usize = 12;
const TOP_R: usize = 5;

/// The connection cap the environment pinned for this run, if any.
fn env_cap() -> Option<usize> {
    std::env::var("AUTHSEARCH_MAX_CONNECTIONS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Patient backoff for the shedding regime: clients queue behind the
/// cap instead of failing the test.
fn patient() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 400,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(100),
        ..RetryPolicy::default()
    }
}

/// The disjunctive top-`TOP_R` request posing `pairs`.
fn disjunctive(pairs: &[(u32, u32)]) -> wire::Request {
    wire::Request::Terms {
        terms: pairs.to_vec(),
        r: TOP_R as u32,
        mode: QueryMode::Disjunctive,
    }
}

/// A query's `(term, f_qt)` pairs and its reference wire-encoded VO.
type ReferenceVo = (Vec<(u32, u32)>, Vec<u8>);

struct Fixture {
    engine: Arc<SearchEngine>,
    params: VerifierParams,
    /// Term-pair workloads, reused round-robin by every client thread.
    workloads: Vec<Vec<(u32, u32)>>,
}

fn fixture(mechanism: Mechanism) -> Fixture {
    let corpus = SyntheticConfig::tiny(150, 23).generate();
    let owner = DataOwner::with_cached_key(authsearch::crypto::keys::TEST_KEY_BITS);
    let config = AuthConfig::new(mechanism);
    let publication = owner.publish(&corpus, config);
    let num_terms = publication.auth.index().num_terms();
    let term_sets = authsearch::corpus::workload::synthetic(num_terms, 8, 2, 5);
    let workloads: Vec<Vec<(u32, u32)>> = term_sets
        .iter()
        .map(|terms| {
            let mut pairs: Vec<(u32, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            pairs.sort_unstable();
            pairs.dedup_by_key(|p| p.0);
            pairs
        })
        .collect();
    Fixture {
        engine: Arc::new(SearchEngine::new(publication.auth, corpus)),
        params: publication.verifier_params,
        workloads,
    }
}

/// N client threads hammer one server; every response must verify AND
/// byte-match the engine's sequential serve path.
#[test]
fn concurrent_clients_get_bit_identical_verified_responses() {
    for mechanism in [Mechanism::TnraCmht, Mechanism::TraMht] {
        let fx = fixture(mechanism);
        // Reference responses straight from the engine (no network),
        // wire-encoded for byte comparison.
        let reference: Vec<ReferenceVo> = fx
            .workloads
            .iter()
            .map(|pairs| {
                let query = Query::from_term_pairs(fx.engine.auth().index(), pairs);
                let response = fx.engine.search(&query, TOP_R);
                (pairs.clone(), wire::encode(&response.vo).unwrap())
            })
            .collect();
        let handle = Server::start(
            Arc::clone(&fx.engine),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("bind loopback");
        let addr = handle.addr();
        let reference = Arc::new(reference);
        let mut threads = Vec::new();
        for client_id in 0..CLIENTS {
            let params = fx.params.clone();
            let reference = Arc::clone(&reference);
            threads.push(std::thread::spawn(move || {
                let mut connection = Connection::connect(addr, params).expect("client connects");
                for i in 0..QUERIES_PER_CLIENT {
                    let (pairs, want_vo) = &reference[(client_id + i) % reference.len()];
                    let (_, verified, response) = connection
                        .query_retrying(&disjunctive(pairs), patient())
                        .unwrap_or_else(|e| panic!("client {client_id} query {i}: {e}"));
                    // The VO that crossed the wire is byte-identical to
                    // the sequential serve path.
                    let got_vo = wire::encode(&response.vo).unwrap();
                    assert_eq!(&got_vo, want_vo, "client {client_id} query {i}");
                    assert_eq!(verified.result, response.result);
                }
            }));
        }
        for t in threads {
            t.join().expect("client thread");
        }
        let stats = handle.shutdown();
        // Every query completed verified, whatever the admission regime.
        assert_eq!(
            stats.requests_ok as usize,
            CLIENTS * QUERIES_PER_CLIENT,
            "{mechanism:?}"
        );
        assert_eq!(stats.requests_err, 0, "{mechanism:?}");
        match env_cap() {
            // Shedding regime: admission control must actually have
            // bounded concurrency — and shed with the typed reply, not
            // by losing queries (checked above).
            Some(cap) => {
                assert!(
                    stats.active_highwater as usize <= cap,
                    "{mechanism:?}: high-water {} over cap {cap}",
                    stats.active_highwater
                );
                assert!(stats.connections >= 1, "{mechanism:?}");
            }
            None => {
                assert_eq!(stats.connections as usize, CLIENTS, "{mechanism:?}");
                assert_eq!(stats.connections_shed, 0, "{mechanism:?}");
                assert_eq!(stats.connections_timed_out, 0, "{mechanism:?}");
            }
        }
    }
}

/// The pipelined batch path over the wire: every slot of a batch
/// verifies, and a batch ten times the workload, far past the pipeline
/// window, completes on one connection.
#[test]
fn pipelined_batch_round_trips_and_verifies() {
    let fx = fixture(Mechanism::TraCmht);
    let handle = Server::start(
        Arc::clone(&fx.engine),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut connection = Connection::connect(handle.addr(), fx.params.clone()).unwrap();
    let requests: Vec<wire::Request> = fx.workloads.iter().map(|w| disjunctive(w)).collect();
    let out = connection.query_batch(&requests).expect("batch transport");
    assert_eq!(out.len(), fx.workloads.len());
    for (i, slot) in out.iter().enumerate() {
        let (_, verified, response) = slot.as_ref().unwrap_or_else(|e| panic!("query {i}: {e}"));
        assert_eq!(verified.result, response.result, "query {i}");
    }
    // A batch far larger than the pipeline window must also complete
    // (the window is what keeps the one-connection pipeline
    // deadlock-free against the server's read-one/write-one loop).
    let big: Vec<wire::Request> = (0..10).flat_map(|_| requests.clone()).collect();
    let out = connection.query_batch(&big).expect("big batch");
    assert_eq!(out.len(), big.len());
    assert!(out.iter().all(|slot| slot.is_ok()));
    handle.shutdown();
}

/// A client whose connection carries garbage between valid frames only
/// hurts itself; concurrent well-behaved clients finish verified.
#[test]
fn hostile_client_does_not_disturb_honest_ones() {
    let fx = fixture(Mechanism::TnraMht);
    let handle = Server::start(
        Arc::clone(&fx.engine),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let addr = handle.addr();
    let hostile = std::thread::spawn(move || {
        use std::io::{Read, Write};
        for seed in 0..8u64 {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            // Deterministic garbage, different every connection.
            let garbage: Vec<u8> = (0..64u64)
                .map(|i| (seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(i) >> 3) as u8)
                .collect();
            let _ = stream.write_all(&garbage);
            let mut sink = Vec::new();
            let _ = stream.read_to_end(&mut sink); // server replies error / closes
        }
    });
    let honest = {
        let params = fx.params.clone();
        let workloads = fx.workloads.clone();
        std::thread::spawn(move || {
            let mut connection = Connection::connect(addr, params).unwrap();
            for pairs in &workloads {
                let (_, verified, response) = connection
                    .query_retrying(&disjunctive(pairs), patient())
                    .expect("verified");
                assert_eq!(verified.result, response.result);
            }
        })
    };
    hostile.join().unwrap();
    honest.join().unwrap();
    let stats = handle.shutdown();
    assert_eq!(stats.requests_ok as usize, fx.workloads.len());
    // Garbage is answered: with a coded error frame when admitted, with
    // the typed BUSY refusal when it landed over a configured cap.
    assert!(
        stats.requests_err + stats.connections_shed > 0,
        "garbage must be answered, not silently dropped"
    );
    if env_cap().is_none() {
        assert!(stats.requests_err > 0);
    }
}

/// Warm-started server: every term structure is resident from the build
/// before the first connection, the first query's term proofs all come
/// from them, and the served responses verify.
#[test]
fn warm_started_server_serves_verified_responses() {
    let fx = fixture(Mechanism::TnraCmht);
    let stats_before = fx.engine.auth().cache_stats();
    let m = fx.engine.auth().index().num_terms();
    assert_eq!(stats_before.resident_terms, m);
    let handle = Server::start(
        Arc::clone(&fx.engine),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut connection = Connection::connect(handle.addr(), fx.params.clone()).unwrap();
    let (verified, response) = connection
        .query_terms(&fx.workloads[0], TOP_R)
        .expect("verified");
    assert_eq!(verified.result, response.result);
    let stats_after = fx.engine.auth().cache_stats();
    assert_eq!(
        stats_after.hits - stats_before.hits,
        fx.workloads[0].len() as u64
    );
    assert_eq!(stats_after.misses, 0);
    handle.shutdown();
}

/// Conjunctive queries over the real TCP front: every reply must
/// verify (intersection completeness proved), byte-match the engine's
/// sequential serve of the same conjunctive query, and contain only documents
/// carrying *every* query term.
#[test]
fn conjunctive_queries_verify_over_loopback() {
    for mechanism in [Mechanism::TraMht, Mechanism::TnraCmht] {
        let fx = fixture(mechanism);
        let handle = Server::start(
            Arc::clone(&fx.engine),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();
        let mut connection = Connection::connect(handle.addr(), fx.params.clone()).unwrap();
        for pairs in fx.workloads.iter().take(4) {
            let query = Query::from_term_pairs(fx.engine.auth().index(), pairs)
                .with_mode(QueryMode::Conjunctive);
            let reference = fx.engine.search(&query, TOP_R);
            let (verified, response) = connection
                .query_conjunctive(pairs, TOP_R)
                .expect("conjunctive reply verifies");
            assert_eq!(
                wire::encode(&response.vo).unwrap(),
                wire::encode(&reference.vo).unwrap(),
                "{}: network conjunctive VO differs from sequential serve",
                mechanism.name()
            );
            // Conjunctive semantics: every returned doc carries every term.
            let doc_table = fx.engine.auth().doc_table();
            for entry in &verified.result.entries {
                for &(term, _) in pairs {
                    assert!(
                        doc_table.weight(entry.doc, term) > 0.0,
                        "doc {} missing conjunct {term}",
                        entry.doc
                    );
                }
            }
        }
        drop(connection);
        handle.shutdown();
    }
}

/// A conjunctive frame whose term count is corrupted in flight gets the
/// typed MALFORMED error reply — the connection (and the server)
/// survive to serve the next, honest request.
#[test]
fn corrupted_term_count_gets_typed_error_not_a_crash() {
    use std::io::{Read, Write};
    let fx = fixture(Mechanism::TnraCmht);
    let handle = Server::start(
        Arc::clone(&fx.engine),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let addr = handle.addr();

    // Hand-corrupt a valid conjunctive frame: the payload is
    // `r u32 | n u16 | pairs`, so claim far more pairs than it carries.
    let good = wire::Request::Terms {
        terms: fx.workloads[0].clone(),
        r: TOP_R as u32,
        mode: QueryMode::Conjunctive,
    }
    .encode_frame()
    .unwrap();
    let mut bad = good;
    let count = wire::FRAME_HEADER_LEN + 4;
    bad[count..count + 2].copy_from_slice(&u16::MAX.to_le_bytes());

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(&bad).unwrap();
    let mut header = [0u8; wire::FRAME_HEADER_LEN];
    stream.read_exact(&mut header).unwrap();
    let (kind, len) = wire::decode_frame_header(&header).unwrap();
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    match wire::decode_reply_payload(kind, &payload).unwrap() {
        wire::Reply::Err { code, message } => {
            assert_eq!(code, wire::errcode::MALFORMED, "{message}");
            assert!(message.contains("count"), "{message}");
        }
        other => panic!("corrupted term count answered with {other:?}"),
    }
    drop(stream);

    // The server is still healthy: an honest conjunctive query verifies.
    let mut connection = Connection::connect(addr, fx.params.clone()).unwrap();
    connection
        .query_conjunctive(&fx.workloads[0], TOP_R)
        .expect("server survives the malformed frame");
    let stats = handle.shutdown();
    assert!(stats.requests_err >= 1);
}

/// TNRA's threshold loop evaluates at most `tnra::MAX_QUERY_TERMS`
/// terms. A longer disjunctive query, posed as term pairs or as text,
/// gets the typed BAD_QUERY reply rather than a panicking pool worker,
/// and the connection goes on serving; a TRA server answers the same
/// queries verified, and the conjunctive path, which runs no threshold
/// loop, answers under both.
#[test]
fn over_long_query_is_bad_query_under_tnra_and_served_under_tra() {
    let n = authsearch::core::tnra::MAX_QUERY_TERMS + 1;
    for mechanism in [Mechanism::TnraCmht, Mechanism::TraMht] {
        let fx = fixture(mechanism);
        let pairs: Vec<(u32, u32)> = (0..n as u32).map(|t| (t, 1)).collect();
        let words: Vec<&str> = pairs
            .iter()
            .map(|&(t, _)| fx.engine.corpus().term(t))
            .collect();
        let text = words.join(" ");
        let parsed = Query::from_text(fx.engine.corpus(), fx.engine.auth().index(), &text).unwrap();
        assert_eq!(parsed.terms().len(), n);
        let handle = Server::start(
            Arc::clone(&fx.engine),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("bind loopback");
        let mut connection = Connection::connect(handle.addr(), fx.params.clone()).unwrap();
        let by_pairs = connection.query_terms(&pairs, TOP_R).map(|(v, _)| v);
        let by_text = connection
            .query(&wire::Request::Text {
                text: text.clone(),
                r: TOP_R as u32,
            })
            .map(|(_, v, _)| v);
        for (kind, outcome) in [("terms", by_pairs), ("text", by_text)] {
            match (mechanism, outcome) {
                (Mechanism::TnraCmht, Err(ClientNetError::Server { code, message })) => {
                    assert_eq!(code, wire::errcode::BAD_QUERY, "{kind}: {message}");
                    assert!(message.contains("at most 64"), "{kind}: {message}");
                }
                (Mechanism::TraMht, Ok(verified)) => {
                    assert_eq!(verified.result.entries.len(), TOP_R, "{kind}")
                }
                (_, other) => panic!("{mechanism:?} {kind}: {other:?}"),
            }
        }
        connection
            .query_conjunctive(&pairs, TOP_R)
            .expect("long conjunctive query verifies");
        // The connection survives the refusal.
        connection
            .query_terms(&fx.workloads[0], TOP_R)
            .expect("honest query after the long one");
        drop(connection);
        let refused = if mechanism.is_tra() { 0 } else { 2 };
        assert_eq!(handle.shutdown().requests_err, refused, "{mechanism:?}");
    }
}
