//! Long-running authenticated search server over the wire protocol.
//!
//! The paper's model is a one-shot pipeline — owner builds, engine
//! answers one query, user verifies. This module is the deployment shape
//! of *Verifying Search Results Over Web Collections* (Goodrich et al.):
//! a continuously running, **untrusted** server answering verifiable
//! queries from many clients over TCP. The trust model is unchanged —
//! nothing the server sends is believed until the client's
//! [`verify`](mod@crate::verify) accepts it against the owner's public key —
//! the server is just the engine with a socket in front of it.
//!
//! The server holds no signing key. [`Server::start_booted`] loads the
//! owner's snapshot and anchors it to the owner's [`VerifierParams`],
//! the parameters its clients hold; when the snapshot fails either
//! check, the server refuses to start with the typed [`PersistError`].
//! It never rebuilds, re-signs or rewrites the artifact.
//!
//! ## Architecture
//!
//! One transport core serves every connection: a single event-loop
//! thread drives them all through the readiness reactor in
//! `crate::reactor` (epoll on Linux, `poll(2)` on other Unix; this
//! module exists on Unix only). Each connection is an explicit state
//! machine (`ReadingHeader → ReadingPayload → Writing`, the private
//! `conn` module) over the [`crate::wire`] frame codec;
//! replies leave through vectored writes from reused per-connection
//! buffers (no staging copy, no per-reply allocation at steady state);
//! idle and write deadlines are entries in one heap, at most one live
//! entry per connection, so 10k+ parked connections cost zero syscalls
//! until a byte arrives.
//!
//! Around that core:
//!
//! * **Run to completion on the loop**: a complete request is decoded,
//!   served and its reply begun on the event-loop thread, one query at a
//!   time, as the paper's engine answers one query at a time. Each
//!   connection gets at most one query per poll round, so a peer that
//!   pipelines without pause takes turns with the others. No part of a
//!   reply leaves the loop thread.
//! * **Warm from the first query**: every authentication structure is
//!   resident from the build or snapshot boot, so startup has nothing to
//!   warm and the first wave of traffic builds nothing.
//! * **Per-connection error isolation**: malformed bytes, unserviceable
//!   queries, and even a panicking query produce a coded
//!   [`crate::wire::kind::REPLY_ERR`] frame (or at worst close that one
//!   connection) — attacker-controlled input never panics the process
//!   and never touches other connections.
//! * **Typed overload**: connections over
//!   [`ServerConfig::max_connections`] are shed with a
//!   [`crate::wire::errcode::BUSY`] frame; peers idling (or trickling)
//!   past [`ServerConfig::idle_deadline`] are evicted with a
//!   [`crate::wire::errcode::TIMEOUT`] frame — never a silent RST.
//! * **Graceful shutdown**: [`ServerHandle::shutdown`] stops accepting,
//!   drains in-flight replies, and returns the final
//!   [`ServerMetricsSnapshot`].

pub(crate) mod conn;
mod reactor_core;

use crate::auth::WarmStats;
use crate::auth::{boot_authenticated_index, AuthConfig};
use crate::engine::SearchEngine;
use crate::metrics::{
    ServerMetrics, ServerMetricsSnapshot, TransportStats, TransportStatsSnapshot,
};
use crate::types::{Query, QueryError};
use crate::verify::VerifierParams;
use crate::wire::{self, Request, WireError};
use authsearch_corpus::Corpus;
use authsearch_corpus::TermId;
use authsearch_index::persist::PersistError;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Operational knobs of a [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Largest `r` a request may ask for; bigger requests get a
    /// [`crate::wire::errcode::BAD_QUERY`] reply instead of letting a
    /// remote peer size engine-side allocations.
    pub max_r: usize,
    /// Admission cap: the most connections served simultaneously
    /// (`0` = unlimited, the pre-PR-5 behavior). A connection accepted
    /// over the cap is **shed with an answer** — a
    /// [`crate::wire::errcode::BUSY`] reply frame, then a clean close —
    /// never a silent RST, so clients can back off and retry
    /// ([`crate::Connection::query_retrying`]). The default reads
    /// `AUTHSEARCH_MAX_CONNECTIONS` (unset/`0` = unlimited), which is
    /// how CI runs the loopback suite in shedding mode.
    pub max_connections: usize,
    /// Idle deadline: a connection that receives **no byte** for this
    /// long — parked between requests, or dribbling a partial frame
    /// (the slow-loris shape) — is answered with a
    /// [`crate::wire::errcode::TIMEOUT`] frame and closed, releasing
    /// its resources. The clock restarts at every received byte **and**
    /// every written reply, so time the *server* spends computing an
    /// answer is never charged to the peer; a total per-frame budget
    /// (`MIN_FRAME_BYTES_PER_SEC`) additionally bounds dribblers.
    /// `Duration::ZERO` disables the deadline (consistent with
    /// [`ServerConfig::max_connections`]'s `0` = unlimited). The
    /// default reads `AUTHSEARCH_IDLE_MS` (unset = 30 seconds).
    pub idle_deadline: Duration,
    /// Bound on writing one complete reply. This is a **total** budget
    /// for the frame, not a per-`write(2)` stall timeout: a peer
    /// trickling its reads just fast enough to keep individual writes
    /// "making progress" is the slow-loris attack moved to the write
    /// side, and it must not park the connection (or hang the graceful
    /// shutdown, which waits for in-flight replies to drain) any longer
    /// than a fully stalled one. A peer that exceeds it is dropped and
    /// counted as timed out (nothing can be *sent* through a clogged
    /// pipe). `Duration::ZERO` falls back to the 30-second default
    /// rather than disabling the bound.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_r: 1024,
            max_connections: env_usize("AUTHSEARCH_MAX_CONNECTIONS").unwrap_or(0),
            idle_deadline: env_usize("AUTHSEARCH_IDLE_MS")
                .map(|ms| Duration::from_millis(ms as u64))
                .unwrap_or(DEFAULT_IDLE_DEADLINE),
            write_timeout: DEFAULT_WRITE_TIMEOUT,
        }
    }
}

/// Default [`ServerConfig::idle_deadline`].
pub(crate) const DEFAULT_IDLE_DEADLINE: Duration = Duration::from_secs(30);

/// Default [`ServerConfig::write_timeout`]; also substituted when the
/// configured value is zero (the write bound is what keeps a
/// non-draining peer from hanging graceful shutdown).
pub(crate) const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// The write budget actually enforced: the configured value, or the
/// default when configured zero (never unbounded).
pub(crate) fn effective_write_timeout(config: &ServerConfig) -> Duration {
    if config.write_timeout.is_zero() {
        DEFAULT_WRITE_TIMEOUT
    } else {
        config.write_timeout
    }
}

/// Warn exactly once per process per `key` (a second malformed variable
/// must not be masked by the first one's warning).
fn warn_once(key: &str, message: &str) {
    static WARNED: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
    if !warned.iter().any(|n| n == key) {
        warned.push(key.to_string());
        eprintln!("{message}");
    }
}

/// Read a `usize` environment override through the shared
/// [`crate::auth::parse_usize_env`] grammar, warning and ignoring the
/// value when it does not parse — a typo in a deployment manifest
/// should surface in the logs, not silently change admission behavior.
fn env_usize(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    match crate::auth::parse_usize_env(name, &raw) {
        Ok(v) => Some(v),
        Err(why) => {
            warn_once(name, &format!("warning: {why}; ignoring the override"));
            None
        }
    }
}

/// Largest request payload the server will buffer. Well above the
/// largest encodable request (u16-capped term pairs ≈ 512 KiB) and far
/// below the wire format's [`wire::MAX_FRAME_PAYLOAD`], which exists
/// for *replies*.
pub(crate) const MAX_REQUEST_PAYLOAD: usize = 1 << 20;

/// Minimum average inbound byte rate a mid-frame peer must sustain.
/// Together with the per-gap idle deadline this bounds how long one
/// frame can be stretched: a dribbler sending one byte per
/// almost-deadline stays under the gap check but blows the total
/// budget ([`frame_budget`]). The loop arms a deadline for the
/// earlier of gap deadline and frame budget, so **total**
/// header/payload time is bounded regardless of how the bytes trickle
/// in.
pub(crate) const MIN_FRAME_BYTES_PER_SEC: u64 = 1024;

/// Total time allowed to fill one `len`-byte buffer: one full idle gap
/// (the wait for the first byte) plus the minimum-rate allowance for
/// the bytes themselves. For the 10-byte header this is ≈ the idle
/// deadline + 1 s; for a cap-sized request ≈ deadline + 17 min — long
/// enough for any honest link, finite for every dribbler.
pub(crate) fn frame_budget(idle_deadline: Duration, len: usize) -> Duration {
    idle_deadline + Duration::from_secs(len as u64 / MIN_FRAME_BYTES_PER_SEC + 1)
}

/// Most shed handshakes allowed in flight at once. Refusing a
/// connection politely costs a registered fd while the loop writes the
/// BUSY frame, then drains briefly so closing with unread request
/// bytes does not turn into an RST that destroys the refusal in the
/// peer's receive buffer. Past this bound the server is under a
/// connect flood and sheds silently (drop), keeping the acceptor
/// itself unblockable.
pub(crate) const MAX_SHED_HANDSHAKES: u64 = 64;

/// The BUSY refusal text.
pub(crate) fn busy_message(max_connections: usize) -> String {
    format!("server at capacity ({max_connections} connections); retry with backoff")
}

/// The TIMEOUT eviction text.
pub(crate) fn idle_eviction_message(deadline: Duration) -> String {
    format!("connection idle past the {deadline:?} deadline; reconnect to continue")
}

/// The over-cap request refusal text.
pub(crate) fn oversize_message(len: usize) -> String {
    format!("request payload of {len} bytes exceeds the {MAX_REQUEST_PAYLOAD}-byte request cap")
}

/// The INTERNAL error text for a query that panicked.
pub(crate) const WORKER_FAILED: &str = "query worker failed; connection remains usable";

/// State shared by the event loop and the handle: the engine, the
/// configuration, and every observable counter.
pub(crate) struct Shared {
    pub(crate) engine: Arc<SearchEngine>,
    pub(crate) config: ServerConfig,
    pub(crate) metrics: ServerMetrics,
    pub(crate) transport: TransportStats,
    pub(crate) shutdown: Arc<AtomicBool>,
}

/// A validated, decoded request ready to serve: everything needed to
/// answer it and encode the reply, nothing from the socket.
pub(crate) enum Job {
    /// A query: the `(term, f_qt)` pairs to echo, the checked query and
    /// its result size.
    Query {
        pairs: Vec<(TermId, u32)>,
        query: Query,
        r: usize,
    },
    /// The owner's publication ([`wire::kind::REQ_PUBLICATION`]).
    Publication,
}

/// Execute a [`Job`] and encode the reply **payload** into `buf`
/// (cleared first), returning the reply frame kind. Runs on the event
/// loop. A query the index refuses (`AuthenticatedIndex::check`) gets
/// the error payload of a [`BAD_QUERY`](wire::errcode::BAD_QUERY) reply,
/// counted with the served ones.
pub(crate) fn execute_job(
    engine: &SearchEngine,
    job: &Job,
    buf: &mut Vec<u8>,
) -> Result<u8, WireError> {
    let Job::Query { pairs, query, r } = job else {
        return wire::encode_publication_payload(engine.auth().publication(), buf);
    };
    match engine.auth().query(query, *r, engine.corpus()) {
        Ok(response) => wire::encode_ok_reply_payload(pairs, &response, buf),
        Err(e) => wire::encode_err_reply_payload(wire::errcode::BAD_QUERY, &e.to_string(), buf),
    }
}

/// Map an encoding failure to the coded error reply the client sees.
pub(crate) fn unrepresentable(e: WireError) -> (u8, String) {
    match e {
        WireError::TooLong { field, len, max } => (
            wire::errcode::UNREPRESENTABLE,
            format!("response not representable: {field} holds {len} entries, wire carries {max}"),
        ),
        other => (wire::errcode::UNREPRESENTABLE, other.to_string()),
    }
}

/// Decode and check one request into a [`Job`], or the coded error
/// reply it deserves: the query is built through its checked
/// constructor, [`AuthenticatedIndex::check`](crate::AuthenticatedIndex::check)
/// adds the index's facts, and `r` must be in the served range. The
/// event loop calls this before spending any engine time.
pub(crate) fn prepare_job(
    kind: u8,
    payload: &[u8],
    engine: &SearchEngine,
    max_r: usize,
) -> Result<Job, (u8, String)> {
    let request = Request::decode_payload(kind, payload)
        .map_err(|e| (wire::errcode::MALFORMED, e.to_string()))?;
    let bad_query = |e: QueryError| (wire::errcode::BAD_QUERY, e.to_string());
    let index = engine.auth().index();
    let (pairs, query, r) = match request {
        Request::Text { text, r } => {
            let query = Query::from_text(engine.corpus(), index, &text).map_err(bad_query)?;
            let pairs: Vec<(TermId, u32)> =
                query.terms().iter().map(|qt| (qt.term, qt.f_qt)).collect();
            (pairs, query, r)
        }
        Request::Terms { terms, r, mode } => {
            let query = Query::from_pairs(index, &terms, mode).map_err(bad_query)?;
            (terms, query, r)
        }
        Request::Publication => return Ok(Job::Publication),
    };
    engine.auth().check(&query).map_err(bad_query)?;
    let r = r as usize;
    if r == 0 || r > max_r {
        return Err((
            wire::errcode::BAD_QUERY,
            format!("r = {r} outside the served range 1..={max_r}"),
        ));
    }
    Ok(Job::Query { pairs, query, r })
}

/// Handle to a running server; dropping it shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: reactor_core::ReactorHandle,
}

/// The server front: binds and accepts.
pub struct Server;

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start accepting on the event-loop thread. Returns immediately;
    /// queries are served until [`ServerHandle::shutdown`] (or drop).
    pub fn start<A: ToSocketAddrs>(
        engine: Arc<SearchEngine>,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            engine,
            config,
            metrics: ServerMetrics::default(),
            transport: TransportStats::default(),
            shutdown,
        });
        let reactor = reactor_core::start(listener, Arc::clone(&shared))?;
        Ok(ServerHandle {
            addr,
            shared,
            reactor,
        })
    }

    /// Boot the owner's snapshot at `snapshot`
    /// ([`crate::auth::boot_authenticated_index`]: load it under
    /// `expected`, and require it to be the publication clients holding
    /// `owner` verify against), then bind `addr` and serve it.
    ///
    /// A snapshot that is missing, corrupt, stale or signed under any
    /// key but the owner's is refused with its typed [`PersistError`]
    /// before anything binds, and so is a `corpus` that is not the one
    /// the snapshot indexes ([`PersistError::Stale`]: another document
    /// count or, under TRA, a document whose content digest is not the
    /// signed one). The engine never builds, signs or writes an
    /// artifact. A failed bind is [`PersistError::Io`].
    pub fn start_booted<A: ToSocketAddrs>(
        snapshot: &Path,
        owner: &VerifierParams,
        expected: &AuthConfig,
        corpus: Corpus,
        addr: A,
        config: ServerConfig,
    ) -> Result<ServerHandle, PersistError> {
        let auth = boot_authenticated_index(snapshot, expected, owner)?;
        auth.check_collection(&corpus)?;
        let engine = Arc::new(SearchEngine::new(auth, corpus));
        Ok(Server::start(engine, addr, config)?)
    }
}

impl ServerHandle {
    /// The bound address (the ephemeral port when started on `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What startup warming materialized: always zero, since every
    /// structure is resident from the build or boot.
    pub fn warmed(&self) -> WarmStats {
        WarmStats::default()
    }

    /// Live counters.
    pub fn metrics(&self) -> ServerMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Transport-level diagnostics: syscalls issued by the event loop
    /// (reads, writes, accepts, poll wakeups) and its deadline heap's
    /// length. Kept apart from
    /// [`ServerMetricsSnapshot`], which counts protocol outcomes only;
    /// `authbench` reports these as
    /// `server.{reads,writes,polls}_per_query`.
    pub fn transport_stats(&self) -> TransportStatsSnapshot {
        self.shared.transport.snapshot()
    }

    /// The readiness backend serving this handle: `"epoll"` on Linux,
    /// `"poll"` on other Unix. Benchmark reports record it in their
    /// run header.
    pub fn core(&self) -> &'static str {
        if cfg!(target_os = "linux") {
            "epoll"
        } else {
            "poll"
        }
    }

    /// Stop accepting, drain in-flight replies, release every
    /// connection, and return the final counters. In-flight requests
    /// finish; idle connections are closed.
    pub fn shutdown(mut self) -> ServerMetricsSnapshot {
        self.shutdown_impl();
        self.shared.metrics.snapshot()
    }

    fn shutdown_impl(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.reactor.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthConfig;
    use crate::owner::DataOwner;
    use crate::types::QueryMode;
    use crate::vo::Mechanism;
    use authsearch_corpus::CorpusBuilder;
    use authsearch_crypto::keys::TEST_KEY_BITS;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    pub(super) fn test_engine(
        mechanism: Mechanism,
    ) -> (Arc<SearchEngine>, crate::verify::VerifierParams) {
        let config = AuthConfig::new(mechanism);
        let corpus = CorpusBuilder::new()
            .min_df(1)
            .add_text("the night keeper keeps the keep in the town")
            .add_text("in the big old house in the big old gown")
            .add_text("the house in the town had the big old keep")
            .add_text("where the old night keeper never did sleep")
            .add_text("the night keeper keeps the keep in the night")
            .build();
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let publication = owner.publish(&corpus, config);
        (
            Arc::new(SearchEngine::new(publication.auth, corpus)),
            publication.verifier_params,
        )
    }

    fn roundtrip(stream: &mut TcpStream, request: &Request) -> wire::Reply {
        let bytes = request.encode_frame().unwrap();
        stream.write_all(&bytes).unwrap();
        read_reply(stream)
    }

    pub(super) fn read_reply(stream: &mut TcpStream) -> wire::Reply {
        let mut header = [0u8; wire::FRAME_HEADER_LEN];
        stream.read_exact(&mut header).unwrap();
        let (kind, len) = wire::decode_frame_header(&header).unwrap();
        let mut payload = vec![0u8; len];
        stream.read_exact(&mut payload).unwrap();
        wire::decode_reply_payload(kind, &payload).unwrap()
    }

    #[test]
    fn server_answers_and_shuts_down_cleanly() {
        let (engine, params) = test_engine(Mechanism::TnraCmht);
        let handle =
            Server::start(engine, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
        assert_eq!(handle.warmed(), WarmStats::default());
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let reply = roundtrip(
            &mut stream,
            &Request::Text {
                text: "night keeper keep".into(),
                r: 3,
            },
        );
        let client = crate::Client::new(params);
        match reply {
            wire::Reply::Ok { terms, response } => {
                assert!(!terms.is_empty());
                client.verify_terms(&terms, 3, &response).expect("verifies");
            }
            other => panic!("expected Ok, got {other:?}"),
        }
        let stats = handle.shutdown();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.requests_ok, 1);
        assert_eq!(stats.requests_err, 0);
        assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    }

    #[test]
    fn bad_requests_get_coded_errors_and_connection_survives() {
        let (engine, _) = test_engine(Mechanism::TnraMht);
        let m = engine.auth().index().num_terms() as TermId;
        let handle = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let cases: Vec<(Request, u8)> = vec![
            // Out-of-dictionary term.
            (
                Request::Terms {
                    terms: vec![(m + 5, 1)],
                    r: 3,
                    mode: QueryMode::Disjunctive,
                },
                wire::errcode::BAD_QUERY,
            ),
            // Duplicate terms.
            (
                Request::Terms {
                    terms: vec![(1, 1), (1, 1)],
                    r: 3,
                    mode: QueryMode::Disjunctive,
                },
                wire::errcode::BAD_QUERY,
            ),
            // Unsorted terms.
            (
                Request::Terms {
                    terms: vec![(3, 1), (1, 1)],
                    r: 3,
                    mode: QueryMode::Disjunctive,
                },
                wire::errcode::BAD_QUERY,
            ),
            // Zero query frequency.
            (
                Request::Terms {
                    terms: vec![(1, 0)],
                    r: 3,
                    mode: QueryMode::Disjunctive,
                },
                wire::errcode::BAD_QUERY,
            ),
            // r outside the served range.
            (
                Request::Terms {
                    terms: vec![(1, 1)],
                    r: u32::MAX,
                    mode: QueryMode::Disjunctive,
                },
                wire::errcode::BAD_QUERY,
            ),
            (
                Request::Terms {
                    terms: vec![(1, 1)],
                    r: 0,
                    mode: QueryMode::Disjunctive,
                },
                wire::errcode::BAD_QUERY,
            ),
            // Nothing survives dictionary parsing.
            (
                Request::Text {
                    text: "zzzz qqqq".into(),
                    r: 3,
                },
                wire::errcode::BAD_QUERY,
            ),
        ];
        let n_cases = cases.len() as u64;
        for (request, want_code) in cases {
            match roundtrip(&mut stream, &request) {
                wire::Reply::Err { code, .. } => assert_eq!(code, want_code, "{request:?}"),
                other => panic!("{request:?} → {other:?}"),
            }
        }
        // The same connection still serves a good query afterwards.
        match roundtrip(
            &mut stream,
            &Request::Text {
                text: "night keeper".into(),
                r: 2,
            },
        ) {
            wire::Reply::Ok { .. } => {}
            other => panic!("connection should have survived: {other:?}"),
        }
        let stats = handle.shutdown();
        assert_eq!(stats.requests_err, n_cases);
        assert_eq!(stats.requests_ok, 1);
    }

    #[test]
    fn malformed_frames_do_not_kill_the_server() {
        let (engine, _) = test_engine(Mechanism::TraCmht);
        let handle = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
        // Garbage magic: server replies (or closes) without panicking.
        {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            let mut sink = Vec::new();
            let _ = stream.read_to_end(&mut sink); // server closes after the error reply
        }
        // A frame advertising an over-cap payload is refused up front.
        {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            let mut header = [0u8; wire::FRAME_HEADER_LEN];
            header[..4].copy_from_slice(&wire::FRAME_MAGIC);
            header[4] = wire::WIRE_VERSION;
            header[5] = wire::kind::REQ_TEXT;
            header[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
            stream.write_all(&header).unwrap();
            let mut sink = Vec::new();
            let _ = stream.read_to_end(&mut sink);
        }
        // Mid-frame hangup: connection just ends.
        {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            let good = Request::Text {
                text: "night".into(),
                r: 1,
            }
            .encode_frame()
            .unwrap();
            stream.write_all(&good[..good.len() - 2]).unwrap();
            drop(stream);
        }
        // Unknown frame kind under a valid header: the frame boundary
        // is still known, so the server consumes the payload, answers a
        // coded error, and the SAME connection keeps working (forward
        // compatibility with future kinds).
        {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            let mut frame = Vec::new();
            frame.extend_from_slice(&wire::FRAME_MAGIC);
            frame.push(wire::WIRE_VERSION);
            frame.push(0x7f); // no such kind
            frame.extend_from_slice(&3u32.to_le_bytes());
            frame.extend_from_slice(&[1, 2, 3]);
            stream.write_all(&frame).unwrap();
            match read_reply(&mut stream) {
                wire::Reply::Err { code, .. } => assert_eq!(code, wire::errcode::MALFORMED),
                other => panic!("{other:?}"),
            }
            match roundtrip(
                &mut stream,
                &Request::Text {
                    text: "night keeper".into(),
                    r: 2,
                },
            ) {
                wire::Reply::Ok { .. } => {}
                other => panic!("unknown kind must not kill the connection: {other:?}"),
            }
        }
        // A fresh connection is served normally after all of the above.
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        match roundtrip(
            &mut stream,
            &Request::Text {
                text: "night keeper".into(),
                r: 2,
            },
        ) {
            wire::Reply::Ok { .. } => {}
            other => panic!("server should have survived: {other:?}"),
        }
        drop(stream);
        let stats = handle.shutdown();
        assert!(stats.requests_err >= 3);
        assert_eq!(stats.requests_ok, 2);
    }

    #[test]
    fn env_override_values_parse_strictly() {
        let parse = |raw| crate::auth::parse_usize_env("AUTHSEARCH_MAX_CONNECTIONS", raw);
        assert_eq!(parse("2"), Ok(2));
        assert_eq!(parse(" 16 "), Ok(16));
        assert_eq!(parse("0"), Ok(0));
        for bad in ["", "   ", "two", "-3"] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("AUTHSEARCH_MAX_CONNECTIONS"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn over_cap_connection_is_shed_with_typed_busy() {
        let (engine, _) = test_engine(Mechanism::TnraCmht);
        let handle = Server::start(
            engine,
            "127.0.0.1:0",
            ServerConfig {
                max_connections: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // Admit A (the completed roundtrip proves it is registered).
        let mut a = TcpStream::connect(handle.addr()).unwrap();
        match roundtrip(
            &mut a,
            &Request::Text {
                text: "night keeper".into(),
                r: 2,
            },
        ) {
            wire::Reply::Ok { .. } => {}
            other => panic!("admitted connection must serve: {other:?}"),
        }
        // B lands over the cap: a typed BUSY frame, then close — the
        // refusal arrives unprompted, before B sends a single byte.
        let mut b = TcpStream::connect(handle.addr()).unwrap();
        match read_reply(&mut b) {
            wire::Reply::Err { code, message } => {
                assert_eq!(code, wire::errcode::BUSY);
                assert!(message.contains("capacity"), "{message}");
            }
            other => panic!("expected BUSY, got {other:?}"),
        }
        let mut rest = Vec::new();
        let _ = b.read_to_end(&mut rest);
        assert!(rest.is_empty(), "nothing after the BUSY frame");
        // A is unaffected by the shed.
        match roundtrip(
            &mut a,
            &Request::Text {
                text: "night keeper".into(),
                r: 2,
            },
        ) {
            wire::Reply::Ok { .. } => {}
            other => panic!("shedding must not disturb admitted peers: {other:?}"),
        }
        let stats = handle.shutdown();
        assert_eq!(stats.connections, 1, "only A was admitted");
        assert_eq!(stats.connections_shed, 1);
        assert_eq!(stats.active_highwater, 1);
        assert_eq!(stats.requests_ok, 2);
    }

    #[test]
    fn slow_loris_peer_evicted_by_idle_deadline() {
        let (engine, _) = test_engine(Mechanism::TnraMht);
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
        // Three bytes of a valid header, then silence — the classic
        // slow-loris shape that used to park a server thread forever.
        stream.write_all(&wire::FRAME_MAGIC[..3]).unwrap();
        let start = std::time::Instant::now();
        match read_reply(&mut stream) {
            wire::Reply::Err { code, message } => {
                assert_eq!(code, wire::errcode::TIMEOUT);
                assert!(message.contains("idle"), "{message}");
            }
            other => panic!("expected TIMEOUT, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "eviction must happen within the deadline, not hang"
        );
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
        assert!(rest.is_empty(), "connection closed after the eviction");
        let stats = handle.shutdown();
        assert_eq!(stats.connections_timed_out, 1);
        assert_eq!(stats.requests_err, 0, "an eviction is not a request error");
    }

    #[test]
    fn dribbling_peer_is_evicted_by_the_frame_budget() {
        // One byte every 100ms stays under the 200ms per-gap deadline
        // forever — the trickling slow loris. The total frame budget
        // (deadline + len/rate) must evict it anyway.
        let (engine, _) = test_engine(Mechanism::TnraMht);
        let handle = Server::start(
            engine,
            "127.0.0.1:0",
            ServerConfig {
                idle_deadline: Duration::from_millis(200),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // A valid header declaring a 600-byte payload: budget ≈ 1.2s.
        let header = wire::encode_frame_header(wire::kind::REQ_TEXT, 600).unwrap();
        stream.write_all(&header).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let dribbler = std::thread::spawn(move || {
            for _ in 0..60 {
                if writer.write_all(&[0u8]).is_err() {
                    break; // server evicted us
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let start = std::time::Instant::now();
        match read_reply(&mut stream) {
            wire::Reply::Err { code, .. } => assert_eq!(code, wire::errcode::TIMEOUT),
            other => panic!("expected TIMEOUT, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the frame budget must bound the dribble, took {:?}",
            start.elapsed()
        );
        dribbler.join().unwrap();
        let stats = handle.shutdown();
        assert_eq!(stats.connections_timed_out, 1);
    }

    #[test]
    fn oversized_request_declaration_is_refused() {
        // 64 MiB frames exist for replies; a *request* claiming more
        // than MAX_REQUEST_PAYLOAD is refused before any buffering (it
        // would otherwise size our allocation and feed the dribble
        // clock a multi-megabyte frame to stretch).
        let (engine, _) = test_engine(Mechanism::TnraCmht);
        let handle = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let header = wire::encode_frame_header(wire::kind::REQ_TERMS, MAX_REQUEST_PAYLOAD + 1)
            .expect("within the wire frame cap");
        stream.write_all(&header).unwrap();
        match read_reply(&mut stream) {
            wire::Reply::Err { code, message } => {
                assert_eq!(code, wire::errcode::MALFORMED);
                assert!(message.contains("request cap"), "{message}");
            }
            other => panic!("expected MALFORMED, got {other:?}"),
        }
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
        assert!(rest.is_empty(), "connection dropped after the refusal");
        handle.shutdown();
    }

    #[test]
    fn zero_idle_deadline_disables_eviction() {
        let (engine, _) = test_engine(Mechanism::TnraMht);
        let handle = Server::start(
            engine,
            "127.0.0.1:0",
            ServerConfig {
                idle_deadline: Duration::ZERO,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Sit silent across many poll ticks; a zero deadline must mean
        // "never evict", not "evict at the first tick".
        std::thread::sleep(Duration::from_millis(120));
        match roundtrip(
            &mut stream,
            &Request::Text {
                text: "night keeper".into(),
                r: 2,
            },
        ) {
            wire::Reply::Ok { .. } => {}
            other => panic!("idle connection must survive: {other:?}"),
        }
        let stats = handle.shutdown();
        assert_eq!(stats.connections_timed_out, 0);
    }

    #[test]
    fn shutdown_drains_in_flight_reply() {
        let (engine, params) = test_engine(Mechanism::TnraCmht);
        let handle =
            Server::start(engine, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let request = Request::Text {
            text: "night keeper keep".into(),
            r: 3,
        };
        stream.write_all(&request.encode_frame().unwrap()).unwrap();
        // Give the server time to consume the frame, then shut down
        // while the reply may still be in flight: the drain contract
        // says a request the server accepted is answered.
        std::thread::sleep(Duration::from_millis(150));
        let stats = handle.shutdown();
        assert_eq!(stats.requests_ok, 1, "the in-flight request completed");
        match read_reply(&mut stream) {
            wire::Reply::Ok { terms, response } => {
                let client = crate::Client::new(params);
                client.verify_terms(&terms, 3, &response).expect("verifies");
            }
            other => panic!("drained reply expected, got {other:?}"),
        }
    }

    #[test]
    fn warm_start_is_config_driven() {
        // Every term is resident from the build, and startup warms
        // nothing on top.
        let (engine, _) = test_engine(Mechanism::TnraCmht);
        let m = engine.auth().index().num_terms();
        let handle =
            Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default()).unwrap();
        assert_eq!(handle.warmed(), WarmStats::default());
        assert_eq!(engine.auth().cache_stats().resident_terms, m);
        handle.shutdown();
    }
}
