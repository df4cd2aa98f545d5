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
//! ## Architecture
//!
//! Two interchangeable transport cores sit behind one public API and
//! one [`ServerMetrics`] contract ([`ServerCore`] selects; counters and
//! reply frames are byte-identical across the two, enforced by the
//! parity suite in `tests/server_reactor.rs`):
//!
//! * **Reactor core** (default on Linux, [`ServerCore::Reactor`]): a
//!   single event-loop thread drives every connection through a
//!   readiness reactor over raw `epoll` ([`crate::reactor`]). Each
//!   connection is an explicit state machine (`ReadingHeader →
//!   ReadingPayload → Dispatched → Writing`, the private `conn` module) over the
//!   [`crate::wire`] frame codec; replies leave through vectored
//!   writes from reused per-connection buffers (no staging copy, no
//!   per-reply allocation at steady state); idle and write deadlines
//!   are timer-wheel entries, so 10k+ parked connections cost zero
//!   syscalls until a byte arrives.
//! * **Threaded core** ([`ServerCore::Threaded`], the fallback on
//!   non-Linux platforms): a background acceptor hands each connection
//!   its own OS thread, which owns the socket and does blocking framing
//!   I/O with a read-timeout poll tick.
//!
//! Shared by both cores:
//!
//! * **Persistent pool dispatch**: query execution is
//!   [`submit`](crate::pool::ThreadPool::submit)-ted onto the engine's
//!   persistent job queue
//!   ([`AuthenticatedIndex::serve_pool`](crate::AuthenticatedIndex::serve_pool)
//!   — workers spawned once, when the artifact is built or booted), so N
//!   connections share one executor instead of oversubscribing the
//!   machine, and a `threads = 1` deployment still runs the paper's
//!   sequential model with no thread spawned anywhere.
//! * **Warm from the first query**: every authentication structure is
//!   resident from the build or snapshot boot, so startup has nothing to
//!   warm and the first wave of traffic builds nothing.
//! * **Per-connection error isolation**: malformed bytes, unserviceable
//!   queries, and even a panicking query worker produce a coded
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
#[cfg(target_os = "linux")]
mod reactor_core;
mod threaded;

use crate::auth::{boot_authenticated_index, AuthConfig, BootReport, BootSource};
use crate::engine::SearchEngine;
use crate::metrics::{
    ServerMetrics, ServerMetricsSnapshot, TransportStats, TransportStatsSnapshot,
};
use crate::pool::ThreadPool;
use crate::types::{Query, QueryMode};
use crate::wire::{self, Request, WireError};
use crate::WarmStats;
use authsearch_corpus::Corpus;
use authsearch_corpus::TermId;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Which transport core serves connections; see the [module
/// docs](self) for the architecture of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerCore {
    /// Single-threaded `epoll` event loop with per-connection state
    /// machines ([`crate::reactor`]). Linux-only; selecting it on
    /// another platform falls back to [`ServerCore::Threaded`] at
    /// startup.
    Reactor,
    /// One blocking OS thread per connection (the pre-reactor core;
    /// portable everywhere std is).
    Threaded,
}

impl Default for ServerCore {
    /// Reads `AUTHSEARCH_CORE` (`"reactor"` / `"threaded"`; a typo
    /// warns once and is ignored), then platform default: the reactor
    /// on Linux, the threaded core elsewhere.
    fn default() -> ServerCore {
        let platform = if cfg!(target_os = "linux") {
            ServerCore::Reactor
        } else {
            ServerCore::Threaded
        };
        match std::env::var("AUTHSEARCH_CORE") {
            Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
                "reactor" => ServerCore::Reactor,
                "threaded" => ServerCore::Threaded,
                _ => {
                    warn_once(
                        "AUTHSEARCH_CORE",
                        &format!(
                            "warning: AUTHSEARCH_CORE={raw:?} is not \"reactor\" or \
                             \"threaded\"; ignoring the override"
                        ),
                    );
                    platform
                }
            },
            Err(_) => platform,
        }
    }
}

/// Operational knobs of a [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Largest `r` a request may ask for; bigger requests get a
    /// [`crate::wire::errcode::BAD_QUERY`] reply instead of letting a
    /// remote peer size engine-side allocations.
    pub max_r: usize,
    /// **Threaded core:** socket read poll interval — how long a
    /// connection thread blocks in `read` before re-checking the
    /// shutdown flag (bounds shutdown latency for idle connections).
    /// **Reactor core:** the timer-wheel tick width — deadlines fire at
    /// most this much late; the loop itself sleeps event-driven, not on
    /// this interval.
    pub poll_interval: Duration,
    /// Admission cap: the most connections served simultaneously
    /// (`0` = unlimited, the pre-PR-5 behavior). A connection accepted
    /// over the cap is **shed with an answer** — a
    /// [`crate::wire::errcode::BUSY`] reply frame, then a clean close —
    /// never a silent RST, so clients can back off and retry
    /// ([`crate::Connection::query_terms_retrying`]). The default reads
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
    /// Where [`Server::start_booted`] looks for (and heals) the
    /// authenticated snapshot
    /// ([`crate::AuthenticatedIndex::save_snapshot`]). `None` (the
    /// default) always builds fresh. A configured path that is missing,
    /// stale, or corrupt falls back to a fresh build — counted in
    /// [`ServerMetricsSnapshot::boot_fresh_builds`] — and the rebuilt
    /// artifact is written back so the next boot takes the fast path.
    pub snapshot_path: Option<std::path::PathBuf>,
    /// Which transport core serves connections. The default reads
    /// `AUTHSEARCH_CORE`, then picks the platform default (reactor on
    /// Linux, threaded elsewhere) — see [`ServerCore`].
    pub core: ServerCore,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_r: 1024,
            poll_interval: Duration::from_millis(50),
            max_connections: env_usize("AUTHSEARCH_MAX_CONNECTIONS").unwrap_or(0),
            idle_deadline: env_usize("AUTHSEARCH_IDLE_MS")
                .map(|ms| Duration::from_millis(ms as u64))
                .unwrap_or(DEFAULT_IDLE_DEADLINE),
            write_timeout: DEFAULT_WRITE_TIMEOUT,
            snapshot_path: None,
            core: ServerCore::default(),
        }
    }
}

/// Default [`ServerConfig::idle_deadline`].
pub const DEFAULT_IDLE_DEADLINE: Duration = Duration::from_secs(30);

/// Default [`ServerConfig::write_timeout`]; also substituted when the
/// configured value is zero (the write bound is what keeps a
/// non-draining peer from hanging graceful shutdown).
pub const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

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
pub const MAX_REQUEST_PAYLOAD: usize = 1 << 20;

/// Minimum average inbound byte rate a mid-frame peer must sustain.
/// Together with the per-gap idle deadline this bounds how long one
/// frame can be stretched: a dribbler sending one byte per
/// almost-deadline stays under the gap check but blows the total
/// budget ([`frame_budget`]). Both cores enforce it — the threaded
/// core re-checks at every poll tick, the reactor core arms a
/// timer-wheel entry for the earlier of gap deadline and frame budget,
/// so **total** header/payload time is bounded regardless of how the
/// bytes trickle in.
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
/// connection politely costs resources — on the threaded core a
/// short-lived thread, on the reactor a registered fd — writing the
/// BUSY frame, then draining briefly so closing with unread request
/// bytes does not turn into an RST that destroys the refusal in the
/// peer's receive buffer. Past this bound the server is under a
/// connect flood and sheds silently (drop), keeping the acceptor
/// itself unblockable.
pub(crate) const MAX_SHED_HANDSHAKES: u64 = 64;

/// The BUSY refusal text; one definition so both cores shed with
/// byte-identical frames.
pub(crate) fn busy_message(max_connections: usize) -> String {
    format!("server at capacity ({max_connections} connections); retry with backoff")
}

/// The TIMEOUT eviction text; one definition so both cores evict with
/// byte-identical frames.
pub(crate) fn idle_eviction_message(deadline: Duration) -> String {
    format!("connection idle past the {deadline:?} deadline; reconnect to continue")
}

/// The over-cap request refusal text; one definition for both cores.
pub(crate) fn oversize_message(len: usize) -> String {
    format!("request payload of {len} bytes exceeds the {MAX_REQUEST_PAYLOAD}-byte request cap")
}

/// The INTERNAL error text for a panicked query worker.
pub(crate) const WORKER_FAILED: &str = "query worker failed; connection remains usable";

/// State shared by both transport cores: the engine, its persistent
/// pool, the configuration, and every observable counter.
pub(crate) struct Shared {
    pub(crate) engine: Arc<SearchEngine>,
    pub(crate) pool: Arc<ThreadPool>,
    pub(crate) config: ServerConfig,
    pub(crate) metrics: ServerMetrics,
    pub(crate) transport: TransportStats,
    pub(crate) shutdown: Arc<AtomicBool>,
}

/// A validated, decoded query ready for the pool: everything a worker
/// needs to execute and encode the reply, nothing it needs the socket
/// for.
pub(crate) struct QueryJob {
    pub(crate) pairs: Vec<(TermId, u32)>,
    pub(crate) query: Query,
    pub(crate) r: usize,
    pub(crate) digest_mode: bool,
    pub(crate) mode: QueryMode,
}

/// Decode and validate one request into a [`QueryJob`], or the coded
/// error reply it deserves. Both cores call this on the connection's
/// I/O side before spending any engine time.
pub(crate) fn prepare_job(
    kind: u8,
    payload: &[u8],
    engine: &SearchEngine,
    max_r: usize,
) -> Result<QueryJob, (u8, String)> {
    let request = Request::decode_payload(kind, payload)
        .map_err(|e| (wire::errcode::MALFORMED, e.to_string()))?;
    let (pairs, query, r, want_digests, mode) = prepare(engine, request, max_r)?;
    // Digest mode is honored only for TNRA deployments: TRA
    // verification hashes the delivered result contents against the
    // signed document-MHT roots, so stripping them would turn every
    // honest TRA reply into a rejection. TNRA verification never reads
    // them, so the verdict is unchanged (the falls-back-to-full-echo
    // contract the client handles).
    let digest_mode = want_digests && !engine.auth().config().mechanism.is_tra();
    Ok(QueryJob {
        pairs,
        query,
        r,
        digest_mode,
        mode,
    })
}

/// Execute a [`QueryJob`] and encode the reply **payload** into `buf`
/// (cleared first), returning the reply frame kind. Runs on a pool
/// worker in both cores.
pub(crate) fn execute_job(
    engine: &SearchEngine,
    job: &QueryJob,
    buf: &mut Vec<u8>,
) -> Result<u8, WireError> {
    let response = match job.mode {
        QueryMode::Disjunctive => engine.search(&job.query, job.r),
        QueryMode::Conjunctive => engine.search_conjunctive(&job.query, job.r),
    };
    if job.digest_mode {
        wire::encode_ok_digest_reply_payload(&job.pairs, &response, buf)
    } else {
        wire::encode_ok_reply_payload(&job.pairs, &response, buf)
    }
}

/// Map an encoding failure to the coded error reply the client sees;
/// one definition so both cores reply byte-identically.
pub(crate) fn unrepresentable(e: WireError) -> (u8, String) {
    match e {
        WireError::TooLong { field, len, max } => (
            wire::errcode::UNREPRESENTABLE,
            format!("response not representable: {field} holds {len} entries, wire carries {max}"),
        ),
        other => (wire::errcode::UNREPRESENTABLE, other.to_string()),
    }
}

/// Validate one `(term, f_qt)`-pairs request body (shared by the
/// disjunctive and conjunctive kinds): strictly ascending distinct
/// terms, all in dictionary, no zero query frequencies.
fn validate_term_pairs(engine: &SearchEngine, terms: &[(TermId, u32)]) -> Result<(), (u8, String)> {
    let num_terms = engine.auth().index().num_terms() as TermId;
    for window in terms.windows(2) {
        if window[0].0 >= window[1].0 {
            return Err((
                wire::errcode::BAD_QUERY,
                "query terms must be strictly ascending (no duplicates)".to_string(),
            ));
        }
    }
    for &(t, f_qt) in terms {
        if t >= num_terms {
            return Err((
                wire::errcode::BAD_QUERY,
                format!("term {t} out of dictionary (m = {num_terms})"),
            ));
        }
        if f_qt == 0 {
            return Err((wire::errcode::BAD_QUERY, format!("term {t} has f_qt = 0")));
        }
    }
    Ok(())
}

/// Turn a decoded request into the `(echo, query, r, want_digests,
/// mode)` tuple, rejecting anything the engine should not be asked to
/// do.
#[allow(clippy::type_complexity)]
fn prepare(
    engine: &SearchEngine,
    request: Request,
    max_r: usize,
) -> Result<(Vec<(TermId, u32)>, Query, usize, bool, QueryMode), (u8, String)> {
    let (pairs, query, r, want_digests, mode) = match request {
        Request::Text {
            text,
            r,
            want_digests,
        } => {
            let query = engine.parse_query(&text).query;
            let pairs: Vec<(TermId, u32)> =
                query.terms.iter().map(|qt| (qt.term, qt.f_qt)).collect();
            (pairs, query, r, want_digests, QueryMode::Disjunctive)
        }
        Request::Terms {
            terms,
            r,
            want_digests,
        } => {
            validate_term_pairs(engine, &terms)?;
            let query = Query::from_term_pairs(engine.auth().index(), &terms);
            (terms, query, r, want_digests, QueryMode::Disjunctive)
        }
        Request::ConjunctiveTerms {
            terms,
            r,
            want_digests,
        } => {
            validate_term_pairs(engine, &terms)?;
            let query = Query::from_term_pairs(engine.auth().index(), &terms);
            (terms, query, r, want_digests, QueryMode::Conjunctive)
        }
    };
    if query.is_empty() {
        return Err((
            wire::errcode::BAD_QUERY,
            "no query terms in dictionary".to_string(),
        ));
    }
    let r = r as usize;
    if r == 0 || r > max_r {
        return Err((
            wire::errcode::BAD_QUERY,
            format!("r = {r} outside the served range 1..={max_r}"),
        ));
    }
    Ok((pairs, query, r, want_digests, mode))
}

/// Handle to a running server; dropping it shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    inner: CoreHandle,
}

/// The per-core shutdown machinery behind a [`ServerHandle`].
enum CoreHandle {
    Threaded(threaded::ThreadedHandle),
    #[cfg(target_os = "linux")]
    Reactor(reactor_core::ReactorHandle),
}

/// The server front: binds and accepts.
pub struct Server;

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start accepting in the background on the configured
    /// [`ServerCore`]. Returns immediately; queries are served until
    /// [`ServerHandle::shutdown`] (or drop).
    pub fn start<A: ToSocketAddrs>(
        engine: Arc<SearchEngine>,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let pool = engine.auth().serve_pool();
        let shutdown = Arc::new(AtomicBool::new(false));
        let core = config.core;
        let shared = Arc::new(Shared {
            engine,
            pool,
            config,
            metrics: ServerMetrics::default(),
            transport: TransportStats::default(),
            shutdown,
        });
        let inner = match core {
            #[cfg(target_os = "linux")]
            ServerCore::Reactor => {
                CoreHandle::Reactor(reactor_core::start(listener, Arc::clone(&shared))?)
            }
            #[cfg(not(target_os = "linux"))]
            ServerCore::Reactor => {
                // No epoll on this platform; the threaded core is the
                // documented fallback.
                CoreHandle::Threaded(threaded::start(listener, Arc::clone(&shared))?)
            }
            ServerCore::Threaded => {
                CoreHandle::Threaded(threaded::start(listener, Arc::clone(&shared))?)
            }
        };
        Ok(ServerHandle {
            addr,
            shared,
            inner,
        })
    }

    /// Boot the engine's artifact through the snapshot decision tree
    /// ([`crate::auth::boot_authenticated_index`]) and start serving it.
    ///
    /// With [`ServerConfig::snapshot_path`] set and a valid snapshot on
    /// disk, the server is up in near-O(1) — load, verify the owner's
    /// signature, serve — and `fallback` never runs. When the snapshot
    /// is unconfigured, missing, stale, or corrupt, `fallback` rebuilds
    /// the artifact (and the result is saved back, best effort). Either
    /// way the outcome is visible twice: in the returned
    /// [`BootReport`], and in the
    /// [`boot_snapshot_loads`](ServerMetricsSnapshot::boot_snapshot_loads) /
    /// [`boot_fresh_builds`](ServerMetricsSnapshot::boot_fresh_builds)
    /// counters.
    pub fn start_booted<A, F>(
        corpus: Corpus,
        expected: &AuthConfig,
        fallback: F,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<(ServerHandle, BootReport)>
    where
        A: ToSocketAddrs,
        F: FnOnce() -> crate::AuthenticatedIndex,
    {
        let (auth, report) =
            boot_authenticated_index(config.snapshot_path.as_deref(), expected, fallback);
        let engine = Arc::new(SearchEngine::new(auth, corpus));
        let handle = Server::start(engine, addr, config)?;
        let counter = match report.source {
            BootSource::Snapshot => &handle.shared.metrics.boot_snapshot_loads,
            BootSource::FreshBuild => &handle.shared.metrics.boot_fresh_builds,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok((handle, report))
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

    /// Transport-level diagnostics: syscalls issued by the serving core
    /// (reads, writes, accepts, poll wakeups). Deliberately **not**
    /// part of [`ServerMetricsSnapshot`] — the two cores are
    /// byte-identical on the metrics contract but necessarily differ
    /// here (`authbench` reports the difference as
    /// `server.{reads,writes,polls}_per_query`).
    pub fn transport_stats(&self) -> TransportStatsSnapshot {
        self.shared.transport.snapshot()
    }

    /// Which core is serving this handle (after any platform fallback).
    pub fn core(&self) -> ServerCore {
        match self.inner {
            CoreHandle::Threaded(_) => ServerCore::Threaded,
            #[cfg(target_os = "linux")]
            CoreHandle::Reactor(_) => ServerCore::Reactor,
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
        match &mut self.inner {
            CoreHandle::Threaded(h) => h.shutdown(self.addr),
            #[cfg(target_os = "linux")]
            CoreHandle::Reactor(h) => h.shutdown(),
        }
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
    use crate::vo::Mechanism;
    use authsearch_corpus::CorpusBuilder;
    use authsearch_crypto::keys::TEST_KEY_BITS;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn test_engine(mechanism: Mechanism) -> (Arc<SearchEngine>, crate::verify::VerifierParams) {
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            ..AuthConfig::new(mechanism)
        };
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

    fn read_reply(stream: &mut TcpStream) -> wire::Reply {
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
                want_digests: false,
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
                    want_digests: false,
                },
                wire::errcode::BAD_QUERY,
            ),
            // Duplicate terms.
            (
                Request::Terms {
                    terms: vec![(1, 1), (1, 1)],
                    r: 3,
                    want_digests: false,
                },
                wire::errcode::BAD_QUERY,
            ),
            // Unsorted terms.
            (
                Request::Terms {
                    terms: vec![(3, 1), (1, 1)],
                    r: 3,
                    want_digests: false,
                },
                wire::errcode::BAD_QUERY,
            ),
            // Zero query frequency.
            (
                Request::Terms {
                    terms: vec![(1, 0)],
                    r: 3,
                    want_digests: false,
                },
                wire::errcode::BAD_QUERY,
            ),
            // r outside the served range.
            (
                Request::Terms {
                    terms: vec![(1, 1)],
                    r: u32::MAX,
                    want_digests: false,
                },
                wire::errcode::BAD_QUERY,
            ),
            (
                Request::Terms {
                    terms: vec![(1, 1)],
                    r: 0,
                    want_digests: false,
                },
                wire::errcode::BAD_QUERY,
            ),
            // Nothing survives dictionary parsing.
            (
                Request::Text {
                    text: "zzzz qqqq".into(),
                    r: 3,
                    want_digests: false,
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
                want_digests: false,
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
                want_digests: false,
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
                    want_digests: false,
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
                want_digests: false,
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
                want_digests: false,
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
                want_digests: false,
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
                poll_interval: Duration::from_millis(20),
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
                poll_interval: Duration::from_millis(20),
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
                poll_interval: Duration::from_millis(10),
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
                want_digests: false,
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
            want_digests: false,
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
    fn digest_mode_negotiated_for_tnra_only() {
        // TNRA: the flag is honored — OkDigest with empty contents.
        let (engine, params) = test_engine(Mechanism::TnraCmht);
        let handle = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let request = Request::Text {
            text: "night keeper keep".into(),
            r: 3,
            want_digests: true,
        };
        match roundtrip(&mut stream, &request) {
            wire::Reply::OkDigest {
                terms,
                response,
                digests,
            } => {
                assert!(response.contents.is_empty());
                assert_eq!(digests.len(), response.result.entries.len());
                let client = crate::Client::new(params);
                client.verify_terms(&terms, 3, &response).expect("verifies");
            }
            other => panic!("expected OkDigest, got {other:?}"),
        }
        handle.shutdown();
        // TRA: verification hashes delivered contents, so the server
        // falls back to the full echo rather than break every verdict.
        let (engine, _) = test_engine(Mechanism::TraCmht);
        let handle = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        match roundtrip(&mut stream, &request) {
            wire::Reply::Ok { response, .. } => assert!(!response.contents.is_empty()),
            other => panic!("TRA must fall back to the full echo, got {other:?}"),
        }
        handle.shutdown();
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

    #[test]
    fn both_cores_are_selectable_and_reported() {
        let (engine, _) = test_engine(Mechanism::TnraCmht);
        for core in [ServerCore::Threaded, ServerCore::Reactor] {
            let handle = Server::start(
                Arc::clone(&engine),
                "127.0.0.1:0",
                ServerConfig {
                    core,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            if cfg!(target_os = "linux") {
                assert_eq!(handle.core(), core);
            } else {
                assert_eq!(handle.core(), ServerCore::Threaded);
            }
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            match roundtrip(
                &mut stream,
                &Request::Text {
                    text: "night keeper".into(),
                    r: 2,
                    want_digests: false,
                },
            ) {
                wire::Reply::Ok { .. } => {}
                other => panic!("{core:?} core must serve: {other:?}"),
            }
            drop(stream);
            let stats = handle.shutdown();
            assert_eq!(stats.requests_ok, 1);
        }
    }
}
