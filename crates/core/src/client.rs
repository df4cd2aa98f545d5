//! The user (paper §3.1 system model): poses queries and verifies
//! results against the data owner's public parameters — locally, or
//! over the wire against a running [`crate::server`].

use crate::auth::serve::QueryResponse;
use crate::types::{Query, QueryMode, QueryTerm};
use crate::verify::{self, VerifiedResult, VerifierParams, VerifyError};
use crate::vo::Mechanism;
use crate::wire::{self, Reply, Request, WireError};
use authsearch_corpus::{DocId, TermId};
use authsearch_index::okapi;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A verifying client.
pub struct Client {
    params: VerifierParams,
}

impl Client {
    /// Client configured with the owner's broadcast parameters.
    pub fn new(params: VerifierParams) -> Client {
        Client { params }
    }

    /// The public parameters.
    pub fn params(&self) -> &VerifierParams {
        &self.params
    }

    /// Verify a response to a query the user posed as `(term, f_{Q,t})`
    /// pairs. The query-side weights are recomputed locally from the
    /// *signed* `f_t` values in the VO and the owner's public collection
    /// size — nothing the engine reports unsigned is trusted.
    pub fn verify_terms(
        &self,
        terms: &[(TermId, u32)],
        r: usize,
        response: &QueryResponse,
    ) -> Result<VerifiedResult, VerifyError> {
        self.verify_posed(terms, QueryMode::Disjunctive, r, response)
    }

    /// [`Client::verify_terms`] for a **conjunctive** query: the replay
    /// checks the intersection is exactly right ([`verify::verify`]).
    /// Kept for the benchmark driver until it poses the mode itself
    /// (ROADMAP item 1 folds both into one call).
    pub fn verify_conjunctive_terms(
        &self,
        terms: &[(TermId, u32)],
        r: usize,
        response: &QueryResponse,
    ) -> Result<VerifiedResult, VerifyError> {
        self.verify_posed(terms, QueryMode::Conjunctive, r, response)
    }

    /// Rebuild the weighted query from the posed `(term, f_{Q,t})` pairs
    /// and the **signed** `f_t` values inside the VO — nothing the
    /// engine reports unsigned is trusted — and verify the response
    /// under the posed `mode`. Pairs that do not make a [`Query`] are
    /// [`VerifyError::MalformedQuery`] before any proof is checked, and
    /// [`verify::verify`] requires the VO's terms to be the posed ones.
    fn verify_posed(
        &self,
        terms: &[(TermId, u32)],
        mode: QueryMode,
        r: usize,
        response: &QueryResponse,
    ) -> Result<VerifiedResult, VerifyError> {
        if response.vo.terms.len() != terms.len() {
            return Err(VerifyError::QueryShapeMismatch(format!(
                "{} proofs for {} query terms",
                response.vo.terms.len(),
                terms.len()
            )));
        }
        let weighted = terms
            .iter()
            .zip(&response.vo.terms)
            .map(|(&(term, f_qt), tv)| QueryTerm {
                term,
                f_qt,
                wq: okapi::query_weight(self.params.num_docs, tv.ft, f_qt),
            })
            .collect();
        let query = Query::new(weighted, mode).map_err(VerifyError::MalformedQuery)?;
        verify::verify(&self.params, &query, r, response)
    }
}

/// Why a networked query failed. Everything except
/// [`ClientNetError::Verify`] is a transport- or server-level problem;
/// `Verify` means bytes arrived intact but the **proof** did not check
/// out — the signal the whole scheme exists to produce.
#[derive(Debug)]
pub enum ClientNetError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server's bytes did not decode as a protocol frame.
    Wire(WireError),
    /// The server answered with a coded error frame
    /// (see [`crate::wire::errcode`]).
    Server {
        /// An [`crate::wire::errcode`] constant.
        code: u8,
        /// The server's message.
        message: String,
    },
    /// The reply decoded but broke the protocol contract (e.g. the term
    /// echo does not match the terms this client asked for).
    Protocol(String),
    /// The response failed cryptographic verification.
    Verify(VerifyError),
}

impl std::fmt::Display for ClientNetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientNetError::Io(e) => write!(f, "network I/O: {e}"),
            ClientNetError::Wire(e) => write!(f, "protocol decode: {e}"),
            ClientNetError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientNetError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientNetError::Verify(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl std::error::Error for ClientNetError {}

impl From<io::Error> for ClientNetError {
    fn from(e: io::Error) -> Self {
        ClientNetError::Io(e)
    }
}
impl From<WireError> for ClientNetError {
    fn from(e: WireError) -> Self {
        ClientNetError::Wire(e)
    }
}
impl From<VerifyError> for ClientNetError {
    fn from(e: VerifyError) -> Self {
        ClientNetError::Verify(e)
    }
}

/// Backoff schedule for [`Connection::query_retrying`]: capped
/// exponential with **decorrelating jitter** — attempt `i` waits
/// `min(base · 2^i, cap)`, then shaves off a seeded-random fraction of
/// up to [`RetryPolicy::jitter`] so a herd of clients shed by the same
/// overloaded server does not reconnect in lockstep and re-create the
/// spike that shed them. The cap keeps a long outage from growing
/// unbounded sleeps.
///
/// The jittered delay is a **pure function of `(seed, attempt)`**
/// ([`RetryPolicy::jittered_delay`]): per-client seeds (the entropy
/// default) decorrelate the herd, while a fixed seed makes every sleep
/// reproducible — which is how the schedule is unit-tested.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, the first included (`1` = no retry).
    pub max_attempts: usize,
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Largest fraction of the exponential delay that jitter may remove:
    /// attempt `i` sleeps uniformly in `[(1 − jitter) · dᵢ, dᵢ]`.
    /// Clamped to `[0, 1]`; `0.0` (or NaN) restores the exact
    /// deterministic schedule of [`RetryPolicy::delay`]. Default `0.5`.
    pub jitter: f64,
    /// Seed of the jitter stream. The default draws per-policy entropy
    /// (distinct clients → distinct schedules); pin it for reproducible
    /// sleeps in tests and simulations.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(800),
            jitter: 0.5,
            seed: entropy_seed(),
        }
    }
}

/// A per-call entropy seed: hasher-keyed randomness (the same source
/// the key cache uses — see `crypto::rsa`), good enough to decorrelate
/// client backoff schedules; no cryptographic claim.
fn entropy_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish()
}

impl RetryPolicy {
    /// The undithered delay after failed attempt `attempt` (0-based) —
    /// the upper envelope of [`RetryPolicy::jittered_delay`].
    pub fn delay(&self, attempt: usize) -> Duration {
        // 2^attempt with the shift clamped so the multiply cannot
        // overflow before the cap applies.
        let factor = 1u32 << attempt.min(20) as u32;
        self.cap.min(self.base.saturating_mul(factor))
    }

    /// The delay actually slept after failed attempt `attempt`:
    /// [`RetryPolicy::delay`] minus a uniform random shave of up to
    /// [`RetryPolicy::jitter`] of it. Pure in `(seed, attempt)` — same
    /// inputs, same `Duration`, with no state carried between calls —
    /// so a retry loop that skips attempts (or several loops sharing a
    /// policy) stays reproducible.
    pub fn jittered_delay(&self, attempt: usize) -> Duration {
        let d = self.delay(attempt);
        // `clamp` passes NaN through, and `mul_f64(NaN)` panics.
        let jitter = if self.jitter.is_nan() {
            0.0
        } else {
            self.jitter.clamp(0.0, 1.0)
        };
        if jitter == 0.0 {
            return d;
        }
        // Decorrelate attempts by mixing the attempt index into the
        // seed (SplitMix64's odd constant), then draw one uniform.
        let stream = self.seed ^ (attempt as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let u: f64 = StdRng::seed_from_u64(stream).gen();
        d.mul_f64(1.0 - jitter * u)
    }
}

/// A verifying client connected to a running [`crate::server`]: sends
/// framed queries, receives framed responses, and accepts **nothing**
/// until the VO inside checks out against the owner's public
/// parameters — the server stays untrusted end to end.
pub struct Connection {
    stream: TcpStream,
    client: Client,
    /// Resolved peer address, kept for [`Connection::reconnect`] (the
    /// retry-on-busy path needs a fresh socket — a shed connection is
    /// closed by the server right after the BUSY frame).
    addr: SocketAddr,
    /// The stream's framing can no longer be trusted (a reply header
    /// failed to parse, so the next frame boundary is unknown). Every
    /// subsequent operation fails fast instead of misreading stale
    /// bytes as answers to new queries.
    desynced: bool,
}

/// Bound on one TCP handshake. `TcpStream::connect` can block for the
/// OS's connect timeout, minutes against a silently dropping peer.
const DIAL_TIMEOUT: Duration = Duration::from_secs(10);

/// Open one socket to `addr` under [`DIAL_TIMEOUT`], with `TCP_NODELAY`:
/// request and reply frames are small, and Nagle batching would add a
/// delayed-ACK round trip to every exchange.
fn dial(addr: &SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(addr, DIAL_TIMEOUT)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

impl Connection {
    /// Connect to a server and verify against `params` (obtained from
    /// the data owner's broadcast, *not* from the server). Each
    /// resolved address is dialed in turn, the handshake bounded by a
    /// 10-second timeout, until one answers.
    pub fn connect<A: ToSocketAddrs>(addr: A, params: VerifierParams) -> io::Result<Connection> {
        let mut last_err: Option<io::Error> = None;
        for addr in addr.to_socket_addrs()? {
            match dial(&addr) {
                Ok(stream) => {
                    return Ok(Connection {
                        stream,
                        client: Client::new(params),
                        addr,
                        desynced: false,
                    })
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to no candidates",
            )
        }))
    }

    /// Drop the current socket and dial the same server again under
    /// the same bound, clearing any desynchronization — the transport
    /// is fresh; the verification parameters (and their trust root) are
    /// unchanged.
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = dial(&self.addr)?;
        self.desynced = false;
        Ok(())
    }

    /// Pose `request` and verify the reply. The server's term echo
    /// comes back with the verified result and the reply itself.
    ///
    /// - [`Request::Terms`]: the echo must byte-match the posed pairs —
    ///   a server answering a different query than asked is a protocol
    ///   violation, caught before any crypto runs — and the reply is
    ///   verified under the mode the client posed, never one the reply
    ///   could claim.
    /// - [`Request::Text`]: the server parses the text against its
    ///   dictionary and the echo is that parse, which is what gets
    ///   verified. **The client trusts that parse**: no dictionary leaf
    ///   binds a word, so a server may drop or swap a word and its honest
    ///   answer to the query it chose still verifies. The guarantees hold
    ///   for the echoed query, not necessarily the one asked (ROADMAP
    ///   item 15); callers that hold term ids should pose `Terms`.
    #[allow(clippy::type_complexity)]
    pub fn query(
        &mut self,
        request: &Request,
    ) -> Result<(Vec<(TermId, u32)>, VerifiedResult, QueryResponse), ClientNetError> {
        let frame = request.encode_frame()?;
        self.stream.write_all(&frame)?;
        self.read_verified(request)
    }

    /// A disjunctive [`Connection::query`] of explicit `(term, f_{Q,t})`
    /// pairs (strictly ascending term ids).
    pub fn query_terms(
        &mut self,
        terms: &[(TermId, u32)],
        r: usize,
    ) -> Result<(VerifiedResult, QueryResponse), ClientNetError> {
        self.query(&terms_request(terms, r, QueryMode::Disjunctive)?)
            .map(|(_, verified, response)| (verified, response))
    }

    /// A **conjunctive** [`Connection::query`] of explicit
    /// `(term, f_{Q,t})` pairs (strictly ascending term ids): only
    /// documents containing every term may appear, and the client
    /// accepts nothing until the VO proves the intersection is exact.
    pub fn query_conjunctive(
        &mut self,
        terms: &[(TermId, u32)],
        r: usize,
    ) -> Result<(VerifiedResult, QueryResponse), ClientNetError> {
        self.query(&terms_request(terms, r, QueryMode::Conjunctive)?)
            .map(|(_, verified, response)| (verified, response))
    }

    /// [`Connection::query`] with retry-on-busy: a server at its
    /// connection cap answers with a typed
    /// [`crate::wire::errcode::BUSY`] frame and closes — this wrapper
    /// backs off per `policy` (capped exponential), reconnects, and
    /// tries again, up to `policy.max_attempts` total attempts.
    /// A [`crate::wire::errcode::TIMEOUT`] idle eviction and
    /// connection-level I/O failures (reset/EOF — the close racing a
    /// refusal frame, or a server mid-restart) retry the same way;
    /// every other error, above all a **verification failure**,
    /// surfaces immediately — retrying cannot make a forged proof
    /// honest.
    #[allow(clippy::type_complexity)]
    pub fn query_retrying(
        &mut self,
        request: &Request,
        policy: RetryPolicy,
    ) -> Result<(Vec<(TermId, u32)>, VerifiedResult, QueryResponse), ClientNetError> {
        let mut attempt = 0usize;
        loop {
            let result = self.query(request);
            let retriable = match &result {
                // TIMEOUT is the server's idle eviction ("reconnect to
                // continue") — the same condition surfaces as an I/O
                // error when the close wins the race, so treat both
                // uniformly.
                Err(ClientNetError::Server { code, .. }) => {
                    *code == wire::errcode::BUSY || *code == wire::errcode::TIMEOUT
                }
                Err(ClientNetError::Io(e)) => matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionReset
                        | io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::BrokenPipe
                        | io::ErrorKind::UnexpectedEof
                ),
                _ => false,
            };
            if !retriable || attempt + 1 >= policy.max_attempts.max(1) {
                return result;
            }
            std::thread::sleep(policy.jittered_delay(attempt));
            attempt += 1;
            // A failed reconnect leaves the dead socket in place; the
            // next attempt fails fast with a retriable I/O error and
            // dials again, so the policy's budget still bounds the loop.
            // lint:allow(swallowed-result): a failed dial is retried by the bounded policy loop (see comment above)
            let _ = self.reconnect();
        }
    }

    /// Pose a batch of requests, **pipelined**: up to eight
    /// (`PIPELINE_WINDOW`) requests are in flight before the oldest
    /// reply is read (amortizing round trips without a per-query wait),
    /// and each reply is checked as it is read, exactly as
    /// [`Connection::query`] checks its one reply. Replies arrive in
    /// request order, so result `i` is the verdict on the reply to
    /// request `i`; a bad reply (an error frame, a wrong echo, or a
    /// failed verification) taints only its own slot.
    ///
    /// The window is what makes the pipeline deadlock-free against the
    /// server's read-one/write-one connection loop: with unbounded
    /// writes, a large batch of large responses can fill both TCP
    /// buffers while each side blocks in `write_all`. Bounding the
    /// in-flight requests keeps the client draining replies, so the
    /// server's writes always make progress.
    #[allow(clippy::type_complexity)]
    pub fn query_batch(
        &mut self,
        requests: &[Request],
    ) -> Result<
        Vec<Result<(Vec<(TermId, u32)>, VerifiedResult, QueryResponse), ClientNetError>>,
        ClientNetError,
    > {
        // Encode every request *before* sending the first one: an
        // unencodable request (e.g. > 2¹⁶ terms) must fail the batch
        // while the connection is still clean — aborting mid-batch would
        // leave pipelined replies unread and desynchronize the stream.
        let frames: Vec<Vec<u8>> = requests
            .iter()
            .map(Request::encode_frame)
            .collect::<Result<_, _>>()?;
        // Slot `i` is filled by reading the reply to request `i`, so a
        // verdict cannot land in a neighbor's slot.
        let mut answered = requests.iter();
        let mut out = Vec::with_capacity(requests.len());
        for (sent, frame) in frames.iter().enumerate() {
            if sent >= PIPELINE_WINDOW {
                if let Some(request) = answered.next() {
                    out.push(self.read_verified(request));
                }
            }
            // A socket-level write failure means the connection is dead;
            // outstanding replies are unreadable anyway.
            self.stream.write_all(frame)?;
        }
        for request in answered {
            out.push(self.read_verified(request));
        }
        Ok(out)
    }

    /// Read the reply to `request` and verify it as
    /// [`Connection::query`] describes.
    #[allow(clippy::type_complexity)]
    fn read_verified(
        &mut self,
        request: &Request,
    ) -> Result<(Vec<(TermId, u32)>, VerifiedResult, QueryResponse), ClientNetError> {
        let (echo, response) = self.receive()?;
        let (mode, r) = match request {
            Request::Terms { terms, r, mode } => {
                if echo != *terms {
                    return Err(ClientNetError::Protocol(format!(
                        "server echoed terms {echo:?} for a query posing {terms:?}"
                    )));
                }
                (*mode, *r)
            }
            // Text is always disjunctive, and its echo is what gets
            // verified.
            Request::Text { r, .. } => (QueryMode::Disjunctive, *r),
        };
        let verified = self
            .client
            .verify_posed(&echo, mode, r as usize, &response)?;
        Ok((echo, verified, response))
    }

    /// Read one reply frame, surfacing server-side error frames as
    /// [`ClientNetError::Server`]. A header that fails to parse loses
    /// the frame boundary and permanently poisons the connection (see
    /// [`Connection::desynced`]); a well-framed reply whose *payload*
    /// is malformed keeps the stream in sync — exactly the advertised
    /// bytes were consumed — so later queries on the connection remain
    /// sound.
    fn receive(&mut self) -> Result<(Vec<(TermId, u32)>, QueryResponse), ClientNetError> {
        if self.desynced {
            return Err(ClientNetError::Protocol(
                "connection desynchronized by an earlier framing error; reconnect".to_string(),
            ));
        }
        let mut header = [0u8; wire::FRAME_HEADER_LEN];
        self.stream.read_exact(&mut header)?;
        let (kind, len) = match wire::decode_frame_header(&header) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.desynced = true;
                return Err(ClientNetError::Wire(e));
            }
        };
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload)?;
        match wire::decode_reply_payload(kind, &payload)? {
            Reply::Ok { terms, response } => Ok((terms, *response)),
            Reply::Err { code, message } => Err(ClientNetError::Server { code, message }),
        }
    }
}

/// Maximum requests in flight on one connection during
/// [`Connection::query_batch`]. Requests are small (≤ ~0.5 MiB by the
/// u16 length prefixes, a few hundred bytes in practice), so eight of
/// them sit comfortably inside the kernel socket buffers — the client's
/// sends never block, which is the invariant the deadlock-freedom
/// argument in `query_batch` rests on.
const PIPELINE_WINDOW: usize = 8;

/// Client-side **phrase** post-filter over a verified conjunctive
/// response: keep only the result documents whose delivered content
/// contains the phrase's tokens adjacently, in order.
///
/// This needs **no new server trust** under TRA. A TRA response
/// delivers the full result-document contents, and verification has
/// hashed each one into its document-table leaf under the owner's
/// signed manifest (any altered byte fails the manifest signature) — so
/// by the time this filter runs, the bytes it scans are provably the
/// owner's. The conjunctive VO proves every result document contains
/// all the phrase's words; adjacency is then a pure client-side
/// predicate over authenticated text. Call it only **after**
/// [`Client::verify_conjunctive_terms`] (or a conjunctive
/// [`Connection::query`], which verifies internally)
/// accepted the response, and pass the mechanism the client verified
/// under ([`VerifierParams::mechanism`]), not the one the reply claims.
///
/// A TNRA reply authenticates result ids and scores but not contents,
/// so a server could move documents in or out of the phrase result by
/// editing the bytes it echoes. Under TNRA the filter therefore refuses
/// with [`VerifyError::ContentsUnauthenticated`].
///
/// Matching mirrors the indexing pipeline: the phrase and the contents
/// are tokenized with stopwords **kept** ([`tokenize_all`] — a phrase
/// is about exact adjacency, which stopword removal would fake), and
/// compared case-insensitively. An empty phrase (or one that tokenizes
/// to nothing) filters nothing: every result document is returned, in
/// result order.
///
/// [`tokenize_all`]: authsearch_corpus::tokenizer::tokenize_all
pub fn phrase_filter(
    phrase: &str,
    mechanism: Mechanism,
    response: &QueryResponse,
) -> Result<Vec<DocId>, VerifyError> {
    if !mechanism.is_tra() {
        return Err(VerifyError::ContentsUnauthenticated { mechanism });
    }
    let want: Vec<String> = authsearch_corpus::tokenizer::tokenize_all(phrase).collect();
    if want.is_empty() {
        return Ok(response.result.docs());
    }
    Ok(response
        .result
        .entries
        .iter()
        .map(|e| e.doc)
        .filter(|&d| {
            let Some((_, bytes)) = response.contents.iter().find(|(doc, _)| *doc == d) else {
                return false;
            };
            let text = String::from_utf8_lossy(bytes);
            let words: Vec<String> = authsearch_corpus::tokenizer::tokenize_all(&text).collect();
            words.windows(want.len()).any(|w| w == want.as_slice())
        })
        .collect())
}

/// The term request posing `terms` under `mode`, with an `r` a request
/// frame can carry.
fn terms_request(
    terms: &[(TermId, u32)],
    r: usize,
    mode: QueryMode,
) -> Result<Request, ClientNetError> {
    let r = u32::try_from(r)
        .map_err(|_| ClientNetError::Protocol(format!("r = {r} not representable on the wire")))?;
    Ok(Request::Terms {
        terms: terms.to_vec(),
        r,
        mode,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthConfig;
    use crate::engine::SearchEngine;
    use crate::owner::DataOwner;
    use authsearch_corpus::SyntheticConfig;
    use authsearch_crypto::keys::TEST_KEY_BITS;

    fn setup(mechanism: Mechanism) -> (SearchEngine, Client, Vec<TermId>) {
        let corpus = SyntheticConfig::tiny(120, 17).generate();
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let config = AuthConfig::new(mechanism);
        let publication = owner.publish(&corpus, config);
        let terms =
            authsearch_corpus::workload::synthetic(publication.auth.index().num_terms(), 1, 3, 7)
                .remove(0);
        let client = Client::new(publication.verifier_params);
        (SearchEngine::new(publication.auth, corpus), client, terms)
    }

    #[test]
    fn client_verifies_all_mechanisms_from_terms_alone() {
        for mechanism in Mechanism::ALL {
            let (engine, client, terms) = setup(mechanism);
            let query = Query::from_term_ids(engine.auth().index(), &terms);
            let response = engine.search(&query, 5);
            let pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            client
                .verify_terms(&pairs, 5, &response)
                .unwrap_or_else(|e| panic!("{}: {e}", mechanism.name()));
        }
    }

    #[test]
    fn client_rejects_wrong_term_alignment() {
        let (engine, client, terms) = setup(Mechanism::TnraMht);
        let query = Query::from_term_ids(engine.auth().index(), &terms);
        let response = engine.search(&query, 5);
        let mut pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
        pairs.swap(0, 1);
        assert!(matches!(
            client.verify_terms(&pairs, 5, &response),
            Err(VerifyError::QueryShapeMismatch(_))
        ));
    }

    /// A disjunctive term request.
    fn disjunctive(terms: Vec<(TermId, u32)>, r: u32) -> Request {
        Request::Terms {
            terms,
            r,
            mode: QueryMode::Disjunctive,
        }
    }

    fn loopback(mechanism: Mechanism) -> (crate::server::ServerHandle, Connection, Vec<TermId>) {
        let (engine, client, terms) = setup(mechanism);
        let params = client.params().clone();
        let handle = crate::server::Server::start(
            std::sync::Arc::new(engine),
            "127.0.0.1:0",
            crate::server::ServerConfig::default(),
        )
        .expect("bind loopback");
        let connection = Connection::connect(handle.addr(), params).expect("connect");
        (handle, connection, terms)
    }

    #[test]
    fn connected_client_verifies_term_queries() {
        let (handle, mut connection, terms) = loopback(Mechanism::TraCmht);
        let mut pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
        pairs.sort_unstable();
        let (verified, response) = connection.query_terms(&pairs, 5).expect("verified");
        assert_eq!(verified.result, response.result);
        handle.shutdown();
    }

    #[test]
    fn connect_timeout_dials_queries_and_redials_under_the_bound() {
        let (engine, client, terms) = setup(Mechanism::TraCmht);
        let params = client.params().clone();
        let handle = crate::server::Server::start(
            std::sync::Arc::new(engine),
            "127.0.0.1:0",
            crate::server::ServerConfig::default(),
        )
        .expect("bind loopback");
        let mut connection = Connection::connect(handle.addr(), params).expect("bounded dial");
        let mut pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
        pairs.sort_unstable();
        let (verified, response) = connection.query_terms(&pairs, 5).expect("verified");
        assert_eq!(verified.result, response.result);
        // Redial goes through the same bounded dial and yields a
        // working frame stream again.
        connection.reconnect().expect("bounded redial");
        let (verified, response) = connection.query_terms(&pairs, 5).expect("after redial");
        assert_eq!(verified.result, response.result);
        handle.shutdown();
    }

    #[test]
    fn connect_timeout_to_a_dead_port_fails_rather_than_hanging() {
        // Bind a port, then drop the listener: the port is known-dead,
        // so the bounded dial must fail promptly (refused), not park.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
            listener.local_addr().expect("probe addr").port()
        };
        let (_, client, _) = setup(Mechanism::TraCmht);
        let started = std::time::Instant::now();
        let result = Connection::connect(("127.0.0.1", port), client.params().clone());
        assert!(result.is_err(), "dial to a dead port must not succeed");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "bounded dial must not hang"
        );
    }

    #[test]
    fn connected_client_batch_is_pipelined_and_isolated() {
        let (handle, mut connection, _) = loopback(Mechanism::TnraCmht);
        let queries: Vec<Request> = [
            vec![(0, 1), (3, 1)],
            vec![(999_999, 1)], // out of dictionary → server error slot
            vec![(0, 1), (3, 1)],
            vec![(2, 2)],
        ]
        .into_iter()
        .map(|terms| disjunctive(terms, 4))
        .collect();
        let out = connection.query_batch(&queries).expect("batch");
        assert_eq!(out.len(), 4);
        assert!(out[0].is_ok(), "{:?}", out[0].as_ref().err());
        assert!(matches!(
            out[1],
            Err(ClientNetError::Server {
                code: crate::wire::errcode::BAD_QUERY,
                ..
            })
        ));
        assert!(out[2].is_ok());
        assert!(out[3].is_ok());
        // Repeated query: bit-identical responses.
        let (a, b) = (out[0].as_ref().unwrap(), out[2].as_ref().unwrap());
        assert_eq!(a.2, b.2);
        handle.shutdown();
    }

    #[test]
    fn connected_client_text_query_returns_server_parse() {
        let (engine, client, _) = setup(Mechanism::TnraMht);
        let params = client.params().clone();
        let engine = std::sync::Arc::new(engine);
        let handle = crate::server::Server::start(
            std::sync::Arc::clone(&engine),
            "127.0.0.1:0",
            crate::server::ServerConfig::default(),
        )
        .unwrap();
        let mut connection = Connection::connect(handle.addr(), params).unwrap();
        // Build a text query from real dictionary words.
        let text = engine.corpus().term(1).to_string();
        let (parse, verified, response) = connection
            .query(&Request::Text { text, r: 3 })
            .expect("verified");
        assert_eq!(parse.len(), 1);
        assert_eq!(verified.result, response.result);
        handle.shutdown();
    }

    #[test]
    fn retrying_query_waits_out_a_busy_server() {
        let (engine, client, terms) = setup(Mechanism::TnraCmht);
        let params = client.params().clone();
        let handle = crate::server::Server::start(
            std::sync::Arc::new(engine),
            "127.0.0.1:0",
            crate::server::ServerConfig {
                max_connections: 1,
                ..crate::server::ServerConfig::default()
            },
        )
        .unwrap();
        let mut pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
        pairs.sort_unstable();
        pairs.dedup_by_key(|p| p.0);
        // A occupies the single slot.
        let mut a = Connection::connect(handle.addr(), params.clone()).unwrap();
        a.query_terms(&pairs, 5).expect("A is admitted");
        // B without retry: the typed BUSY error, immediately.
        let mut b = Connection::connect(handle.addr(), params).unwrap();
        match b.query_terms(&pairs, 5) {
            Err(ClientNetError::Server { code, .. }) => {
                assert_eq!(code, crate::wire::errcode::BUSY)
            }
            other => panic!("expected BUSY, got {other:?}"),
        }
        // Free the slot shortly; B's retry loop must then get through.
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            drop(a);
        });
        let policy = RetryPolicy {
            max_attempts: 60,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        let (_, verified, response) = b
            .query_retrying(&disjunctive(pairs, 5), policy)
            .expect("retry succeeds once the slot frees");
        assert_eq!(verified.result, response.result);
        release.join().unwrap();
        let stats = handle.shutdown();
        assert!(stats.connections_shed >= 1, "B was shed at least once");
        assert_eq!(stats.active_highwater, 1);
    }

    #[test]
    fn retrying_conjunctive_query_waits_out_a_busy_server() {
        let (engine, client, terms) = setup(Mechanism::TraMht);
        let params = client.params().clone();
        let engine = std::sync::Arc::new(engine);
        let handle = crate::server::Server::start(
            std::sync::Arc::clone(&engine),
            "127.0.0.1:0",
            crate::server::ServerConfig {
                max_connections: 1,
                ..crate::server::ServerConfig::default()
            },
        )
        .unwrap();
        let mut pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
        pairs.sort_unstable();
        pairs.dedup_by_key(|p| p.0);
        let request = Request::Terms {
            terms: pairs.clone(),
            r: 5,
            mode: QueryMode::Conjunctive,
        };
        // A occupies the single slot.
        let mut a = Connection::connect(handle.addr(), params.clone()).unwrap();
        a.query(&request).expect("A is admitted");
        // B without retry: the typed BUSY error, immediately.
        let mut b = Connection::connect(handle.addr(), params).unwrap();
        match b.query(&request) {
            Err(ClientNetError::Server { code, .. }) => {
                assert_eq!(code, crate::wire::errcode::BUSY)
            }
            other => panic!("expected BUSY, got {other:?}"),
        }
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            drop(a);
        });
        let policy = RetryPolicy {
            max_attempts: 60,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        let (echo, verified, response) = b
            .query_retrying(&request, policy)
            .expect("retry succeeds once the slot frees");
        assert_eq!(echo, pairs);
        assert_eq!(verified.result, response.result);
        let query =
            Query::from_term_pairs(engine.auth().index(), &pairs).with_mode(QueryMode::Conjunctive);
        assert_eq!(response, engine.search(&query, 5), "the conjunctive answer");
        release.join().unwrap();
        let stats = handle.shutdown();
        assert!(stats.connections_shed >= 1, "B was shed at least once");
        assert_eq!(stats.active_highwater, 1);
    }

    #[test]
    fn mixed_batch_slots_match_the_same_requests_posed_alone() {
        type Verified = (Vec<(TermId, u32)>, VerifiedResult, QueryResponse);
        // Error variants carry no `PartialEq`; their messages compare.
        fn verdict(answer: &Result<Verified, ClientNetError>) -> Result<&Verified, String> {
            answer.as_ref().map_err(|e| e.to_string())
        }
        for mechanism in [Mechanism::TraCmht, Mechanism::TnraMht] {
            let (engine, client, terms) = setup(mechanism);
            let params = client.params().clone();
            let words = format!("{} {}", engine.corpus().term(1), engine.corpus().term(2));
            let handle = crate::server::Server::start(
                std::sync::Arc::new(engine),
                "127.0.0.1:0",
                crate::server::ServerConfig::default(),
            )
            .expect("bind loopback");
            let mut pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            pairs.sort_unstable();
            pairs.dedup_by_key(|p| p.0);
            let conjunctive = |terms: Vec<(TermId, u32)>, r| Request::Terms {
                terms,
                r,
                mode: QueryMode::Conjunctive,
            };
            let text = |text: &str, r| Request::Text {
                text: text.to_string(),
                r,
            };
            let round = [
                disjunctive(pairs.clone(), 5),
                conjunctive(pairs.clone(), 5),
                text(&words, 3),
                disjunctive(vec![(999_999, 1)], 4), // out of dictionary
                conjunctive(pairs.get(..2).unwrap_or(&pairs).to_vec(), 2),
                text("zzzz qqqq", 3), // parses to nothing
                disjunctive(pairs.get(1..).unwrap_or(&pairs).to_vec(), 10),
            ];
            // Two rounds: more requests than the pipeline window, so
            // replies are read while later requests are still unsent.
            let requests: Vec<Request> = round.iter().chain(&round).cloned().collect();
            assert!(requests.len() > PIPELINE_WINDOW);
            let mut connection = Connection::connect(handle.addr(), params).expect("connect");
            let batch = connection.query_batch(&requests).expect("batch");
            assert_eq!(batch.len(), requests.len());
            for (i, (request, slot)) in requests.iter().zip(&batch).enumerate() {
                let alone = connection.query(request);
                assert_eq!(
                    verdict(slot),
                    verdict(&alone),
                    "{} slot {i}: {request:?}",
                    mechanism.name()
                );
            }
            let ok = |i: usize| batch.get(i).is_some_and(|slot| slot.is_ok());
            assert!(
                ok(0) && ok(1) && ok(2),
                "{}: every mode answers",
                mechanism.name()
            );
            assert!(!ok(3) && !ok(5), "{}: bad requests fail", mechanism.name());
            handle.shutdown();
        }
    }

    #[test]
    fn retry_policy_backoff_is_capped_exponential() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(70),
            ..RetryPolicy::default()
        };
        assert_eq!(policy.delay(0), Duration::from_millis(10));
        assert_eq!(policy.delay(1), Duration::from_millis(20));
        assert_eq!(policy.delay(2), Duration::from_millis(40));
        assert_eq!(policy.delay(3), Duration::from_millis(70)); // capped
        assert_eq!(policy.delay(60), Duration::from_millis(70)); // no overflow
    }

    #[test]
    fn jittered_backoff_is_deterministic_under_a_fixed_seed() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(800),
            jitter: 0.5,
            seed: 42,
        };
        for attempt in 0..8 {
            let a = policy.jittered_delay(attempt);
            let b = policy.jittered_delay(attempt);
            assert_eq!(a, b, "pure in (seed, attempt)");
            // Bounded by [(1 − jitter)·d, d].
            let d = policy.delay(attempt);
            assert!(a <= d, "attempt {attempt}: {a:?} > {d:?}");
            assert!(
                a >= d.mul_f64(0.5),
                "attempt {attempt}: {a:?} shaved too far"
            );
        }
        // Replays are independent of call order (no hidden RNG state).
        let late = policy.jittered_delay(5);
        let early = policy.jittered_delay(1);
        assert_eq!(late, policy.jittered_delay(5));
        assert_eq!(early, policy.jittered_delay(1));
    }

    #[test]
    fn jittered_backoff_decorrelates_across_seeds() {
        let base = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(10),
            jitter: 1.0,
            seed: 0,
        };
        // Across many seeds, some attempt must differ: identical full
        // schedules would mean the seed is ignored (the thundering-herd
        // bug this field exists to prevent).
        let schedule = |seed: u64| -> Vec<Duration> {
            let policy = RetryPolicy { seed, ..base };
            (0..6).map(|i| policy.jittered_delay(i)).collect()
        };
        let reference = schedule(1);
        assert!(
            (2..32).any(|s| schedule(s) != reference),
            "every seed produced the same schedule"
        );
    }

    #[test]
    fn zero_jitter_restores_the_exact_schedule() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(70),
            jitter: 0.0,
            seed: 7,
        };
        for attempt in 0..8 {
            assert_eq!(policy.jittered_delay(attempt), policy.delay(attempt));
        }
        // Out-of-range jitter clamps instead of inverting the range, and
        // NaN is the exact schedule rather than a panic.
        for jitter in [7.5, -1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let wild = RetryPolicy { jitter, ..policy };
            for attempt in 0..8 {
                assert!(wild.jittered_delay(attempt) <= wild.delay(attempt));
            }
        }
        let nan = RetryPolicy {
            jitter: f64::NAN,
            ..policy
        };
        for attempt in 0..8 {
            assert_eq!(nan.jittered_delay(attempt), nan.delay(attempt));
        }
    }

    #[test]
    fn batch_slots_stay_aligned_through_a_misbehaving_server() {
        // Regression for the pipelined batch: an error frame in slot 1,
        // a tampered echo in slot 2 and a flipped manifest signature in
        // slot 4 must surface as exactly those slots' errors — and
        // slots 3 and 5 must verify against their OWN responses, not
        // inherit a neighbor's verdict.
        use std::net::TcpListener;
        let (engine, client, _) = setup(Mechanism::TnraCmht);
        let engine = std::sync::Arc::new(engine);
        let params = client.params().clone();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let engine = std::sync::Arc::clone(&engine);
            std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let mut slot = 0usize;
                loop {
                    let mut header = [0u8; wire::FRAME_HEADER_LEN];
                    if stream.read_exact(&mut header).is_err() {
                        return; // client done
                    }
                    let (kind, len) = wire::decode_frame_header(&header).unwrap();
                    let mut payload = vec![0u8; len];
                    stream.read_exact(&mut payload).unwrap();
                    let Request::Terms { terms, r, .. } =
                        Request::decode_payload(kind, &payload).unwrap()
                    else {
                        panic!("term requests only")
                    };
                    let query = Query::from_term_pairs(engine.auth().index(), &terms);
                    let mut response = engine.search(&query, r as usize);
                    if slot == 4 {
                        // Honest echo, manifest signature flipped.
                        response.vo.signature[0] ^= 0x80;
                    }
                    let bytes = match slot {
                        1 => wire::encode_err_reply(crate::wire::errcode::INTERNAL, "injected")
                            .unwrap(),
                        2 => {
                            // Honest response, lying echo.
                            let mut echo = terms.clone();
                            echo[0].1 += 7;
                            wire::encode_ok_reply(&echo, &response).unwrap()
                        }
                        _ => wire::encode_ok_reply(&terms, &response).unwrap(),
                    };
                    stream.write_all(&bytes).unwrap();
                    slot += 1;
                }
            })
        };
        let mut connection = Connection::connect(addr, params).unwrap();
        let queries: Vec<Vec<(TermId, u32)>> = vec![
            vec![(0, 1), (2, 1)],
            vec![(1, 1)],
            vec![(0, 1), (3, 1)],
            vec![(2, 2)],
            vec![(1, 1), (3, 1)],
            vec![(0, 2), (1, 1)],
        ];
        let requests: Vec<Request> = queries
            .iter()
            .map(|terms| disjunctive(terms.clone(), 5))
            .collect();
        let out = connection.query_batch(&requests).expect("batch");
        assert_eq!(out.len(), 6);
        assert!(out[0].is_ok(), "{:?}", out[0].as_ref().err());
        assert!(matches!(
            out[1],
            Err(ClientNetError::Server {
                code: crate::wire::errcode::INTERNAL,
                ..
            })
        ));
        assert!(matches!(out[2], Err(ClientNetError::Protocol(_))));
        assert!(
            matches!(
                out[4],
                Err(ClientNetError::Verify(VerifyError::ManifestSignature))
            ),
            "{:?}",
            out[4].as_ref().err()
        );
        // The alignment proof: each honest slot's response is the
        // engine's answer to ITS query (not a shifted neighbor's).
        for slot in [3, 5] {
            let (_, verified, response) = out[slot].as_ref().expect("slot is honest");
            assert_eq!(verified.result, response.result);
            let want = engine.search(
                &Query::from_term_pairs(engine.auth().index(), &queries[slot]),
                5,
            );
            assert_eq!(response.result, want.result, "slot {slot}");
            assert_eq!(response.vo, want.vo, "slot {slot}");
        }
        drop(connection);
        server.join().unwrap();
    }

    #[test]
    fn mode_swapping_server_is_rejected_under_the_posed_mode() {
        // A lying server answers each term query with the honest
        // response of the *other* mode for the same pairs. The client
        // verifies under the mode it posed, so both lies are rejected.
        use std::net::TcpListener;
        let (engine, client, terms) = setup(Mechanism::TraMht);
        let engine = std::sync::Arc::new(engine);
        let mut pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
        pairs.sort_unstable();
        pairs.dedup_by_key(|p| p.0);
        let query = Query::from_term_pairs(engine.auth().index(), &pairs);
        assert_ne!(
            engine.search(&query, 5).result,
            engine
                .search(&query.clone().with_mode(QueryMode::Conjunctive), 5)
                .result,
            "the swap must change the result"
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let engine = std::sync::Arc::clone(&engine);
            std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                loop {
                    let mut header = [0u8; wire::FRAME_HEADER_LEN];
                    if stream.read_exact(&mut header).is_err() {
                        return; // client done
                    }
                    let (kind, len) = wire::decode_frame_header(&header).unwrap();
                    let mut payload = vec![0u8; len];
                    stream.read_exact(&mut payload).unwrap();
                    let Request::Terms { terms, r, mode } =
                        Request::decode_payload(kind, &payload).unwrap()
                    else {
                        panic!("term requests only")
                    };
                    let other = if mode == QueryMode::Conjunctive {
                        QueryMode::Disjunctive
                    } else {
                        QueryMode::Conjunctive
                    };
                    let query =
                        Query::from_term_pairs(engine.auth().index(), &terms).with_mode(other);
                    let response = engine.search(&query, r as usize);
                    let bytes = wire::encode_ok_reply(&terms, &response).unwrap();
                    stream.write_all(&bytes).unwrap();
                }
            })
        };
        let mut connection = Connection::connect(addr, client.params().clone()).unwrap();
        let conj = connection.query_conjunctive(&pairs, 5);
        assert!(
            matches!(conj, Err(ClientNetError::Verify(_))),
            "{:?}",
            conj.as_ref().err()
        );
        let disj = connection.query_terms(&pairs, 5);
        assert!(
            matches!(disj, Err(ClientNetError::Verify(_))),
            "{:?}",
            disj.as_ref().err()
        );
        drop(connection);
        server.join().unwrap();
    }

    #[test]
    fn connected_client_verifies_conjunctive_queries() {
        for mechanism in [Mechanism::TraMht, Mechanism::TnraCmht] {
            let (handle, mut connection, terms) = loopback(mechanism);
            let mut pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            pairs.sort_unstable();
            pairs.dedup_by_key(|p| p.0);
            let (verified, response) = connection
                .query_conjunctive(&pairs, 5)
                .unwrap_or_else(|e| panic!("{}: {e}", mechanism.name()));
            assert_eq!(verified.result, response.result);
            handle.shutdown();
        }
    }

    #[test]
    fn conjunctive_verdict_rejects_a_disjunctive_response() {
        // A server answering a conjunctive ask with its disjunctive VO
        // must be rejected by the client's conjunctive verifier.
        let (engine, client, terms) = setup(Mechanism::TnraCmht);
        let mut pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
        pairs.sort_unstable();
        pairs.dedup_by_key(|p| p.0);
        let query = Query::from_term_pairs(engine.auth().index(), &pairs);
        let disj = engine.search(&query, 5);
        let conj = engine.search(&query.with_mode(QueryMode::Conjunctive), 5);
        client
            .verify_conjunctive_terms(&pairs, 5, &conj)
            .expect("honest conjunctive response verifies");
        if disj.result != conj.result {
            assert!(
                client.verify_conjunctive_terms(&pairs, 5, &disj).is_err(),
                "disjunctive response must not pass the conjunctive verifier"
            );
        }
    }

    #[test]
    fn phrase_filter_keeps_adjacent_in_order_matches_only() {
        use crate::auth::AuthConfig;
        use authsearch_corpus::CorpusBuilder;
        let corpus = CorpusBuilder::new()
            .min_df(1)
            .add_text("the night keeper keeps the keep")
            .add_text("the keeper of night shifts")
            .add_text("night keeper night keeper")
            .build();
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let config = AuthConfig::new(Mechanism::TraMht);
        let publication = owner.publish(&corpus, config);
        let engine = SearchEngine::new(publication.auth, corpus);
        let query = Query::from_text(engine.corpus(), engine.auth().index(), "night keeper")
            .unwrap()
            .with_mode(QueryMode::Conjunctive);
        let response = engine.search(&query, 5);
        let client = Client::new(publication.verifier_params);
        let pairs: Vec<(TermId, u32)> = query.terms().iter().map(|qt| (qt.term, qt.f_qt)).collect();
        client
            .verify_conjunctive_terms(&pairs, 5, &response)
            .expect("verify before filtering");
        // All three docs contain both words; only 0 and 2 have them
        // adjacent in order ("keeper of night" is reversed in doc 1).
        let hits = phrase_filter("night keeper", Mechanism::TraMht, &response).unwrap();
        assert!(hits.contains(&0), "{hits:?}");
        assert!(hits.contains(&2), "{hits:?}");
        assert!(!hits.contains(&1), "{hits:?}");
        // Result order is preserved.
        let order: Vec<DocId> = response
            .result
            .docs()
            .into_iter()
            .filter(|d| hits.contains(d))
            .collect();
        assert_eq!(hits, order);
        // An empty phrase filters nothing.
        let filter = |phrase| phrase_filter(phrase, Mechanism::TraMht, &response).unwrap();
        assert_eq!(filter(""), response.result.docs());
        assert_eq!(filter("!!!"), response.result.docs());
        // A phrase absent everywhere filters everything.
        assert!(filter("keep the night").is_empty());
    }

    #[test]
    fn phrase_filter_refuses_tnra_contents() {
        // A TNRA server swaps the phrase's word order in a delivered
        // document. Verification accepts (TNRA does not authenticate
        // contents), so the filter must refuse rather than let the
        // server's bytes decide phrase membership.
        use crate::auth::AuthConfig;
        use authsearch_corpus::CorpusBuilder;
        let corpus = CorpusBuilder::new()
            .min_df(1)
            .add_text("the night keeper keeps the keep")
            .add_text("the keeper of night shifts")
            .add_text("night keeper night keeper")
            .build();
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        for mechanism in [Mechanism::TnraMht, Mechanism::TnraCmht] {
            let config = AuthConfig::new(mechanism);
            let publication = owner.publish(&corpus, config);
            let engine = SearchEngine::new(publication.auth, corpus.clone());
            let query = Query::from_text(engine.corpus(), engine.auth().index(), "night keeper")
                .unwrap()
                .with_mode(QueryMode::Conjunctive);
            let mut response = engine.search(&query, 5);
            let doc0 = response.contents.iter_mut().find(|(d, _)| *d == 0).unwrap();
            doc0.1 = b"the keeper night keeps the keep".to_vec();
            let client = Client::new(publication.verifier_params);
            let pairs: Vec<(TermId, u32)> =
                query.terms().iter().map(|qt| (qt.term, qt.f_qt)).collect();
            client
                .verify_conjunctive_terms(&pairs, 5, &response)
                .expect("TNRA verification never reads the contents");
            let verified = client.params().mechanism;
            assert_eq!(
                phrase_filter("night keeper", verified, &response),
                Err(VerifyError::ContentsUnauthenticated { mechanism }),
            );
        }
    }

    #[test]
    fn client_recomputed_weights_match_engine() {
        // The client's wq (from signed ft + public n) must agree with the
        // engine's (from the index) — otherwise honest replays would fail.
        let (engine, client, terms) = setup(Mechanism::TnraCmht);
        let query = Query::from_term_ids(engine.auth().index(), &terms);
        let response = engine.search(&query, 5);
        for (qt, tv) in query.terms().iter().zip(&response.vo.terms) {
            let wq = okapi::query_weight(client.params().num_docs, tv.ft, qt.f_qt);
            assert_eq!(wq, qt.wq);
        }
    }
}
