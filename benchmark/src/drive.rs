//! The phases of a run: correctness pass, negative control, closed-loop
//! passes and the open-loop schedule, all from one verifying
//! `Connection` (the client's `verify` is inside every timed interval).

use crate::fixture::{Fixture, Pairs};
use crate::spec::{Workload, TOP_R};
use crate::stats;
use authsearch_core::{
    wire, Client, ClientNetError, Connection, Query, QueryMode, QueryResponse, VerifiedResult,
    VerifyError,
};
use std::time::{Duration, Instant};

/// Requests attempted and failed in one phase. A failure is a transport
/// error, an error frame or a `VerifyError`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Open the run's one connection to the fixture's server.
pub fn connect(fx: &Fixture) -> Connection {
    Connection::connect(fx.server.addr(), fx.params.clone()).expect("connect over loopback")
}

/// One verified round trip in the workload's query mode.
pub fn ask(
    conn: &mut Connection,
    mode: QueryMode,
    pairs: &Pairs,
) -> Result<(VerifiedResult, QueryResponse), ClientNetError> {
    match mode {
        QueryMode::Disjunctive => conn.query_terms(pairs, TOP_R),
        QueryMode::Conjunctive => conn.query_conjunctive(pairs, TOP_R),
    }
}

/// Serve a query in-process, exactly as a pool worker would.
pub fn serve(fx: &Fixture, mode: QueryMode, pairs: &Pairs) -> QueryResponse {
    let query = Query::from_term_pairs(fx.engine.auth().index(), pairs);
    match mode {
        QueryMode::Disjunctive => fx.engine.search(&query, TOP_R),
        QueryMode::Conjunctive => fx.engine.search_conjunctive(&query, TOP_R),
    }
}

/// Verify a response in-process, exactly as `Connection` does.
pub fn verify(
    client: &Client,
    mode: QueryMode,
    pairs: &Pairs,
    response: &QueryResponse,
) -> Result<VerifiedResult, VerifyError> {
    match mode {
        QueryMode::Disjunctive => client.verify_terms(pairs, TOP_R, response),
        QueryMode::Conjunctive => client.verify_conjunctive_terms(pairs, TOP_R, response),
    }
}

/// The untimed first pass, which also warms the server's caches: every
/// reply must verify, the verified result must be the reported one, and
/// the VO that crossed the socket must be byte-identical to the one
/// `SearchEngine` builds for the same query in-process.
pub fn correctness_pass(
    fx: &Fixture,
    conn: &mut Connection,
    w: &Workload,
    queries: &[Pairs],
) -> Result<Tally, String> {
    for (i, pairs) in queries.iter().enumerate() {
        let (verified, response) =
            ask(conn, w.mode, pairs).map_err(|e| format!("query {i} failed: {e}"))?;
        if verified.result != response.result {
            return Err(format!(
                "query {i}: verified result differs from the reply's"
            ));
        }
        let local = serve(fx, w.mode, pairs);
        let over_wire = wire::encode(&response.vo).map_err(|e| format!("query {i}: {e}"))?;
        let in_process = wire::encode(&local.vo).map_err(|e| format!("query {i}: {e}"))?;
        if over_wire != in_process || local.result != response.result {
            return Err(format!(
                "query {i}: loopback reply differs from SearchEngine's"
            ));
        }
    }
    Ok(Tally {
        attempted: queries.len() as u64,
        failed: 0,
    })
}

/// Tamper with one honest response and require a typed rejection: proof
/// that the timed path really verifies. Returns the rejection's text.
pub fn negative_control(fx: &Fixture, w: &Workload, queries: &[Pairs]) -> Result<String, String> {
    let client = Client::new(fx.params.clone());
    for pairs in queries {
        let mut response = serve(fx, w.mode, pairs);
        if !w.attack.apply(&mut response) {
            continue;
        }
        return match verify(&client, w.mode, pairs, &response) {
            Err(rejection) => Ok(rejection.to_string()),
            Ok(_) => Err(format!(
                "the verifier ACCEPTED a response tampered by '{}'",
                w.attack.name()
            )),
        };
    }
    Err(format!(
        "attack '{}' applies to no query of the list",
        w.attack.name()
    ))
}

/// One closed-loop pass: the next query is sent when the previous
/// verified reply is in hand. `latencies_ms` is cleared and receives one
/// entry per query, in list order: send → verified, in milliseconds, or
/// `+∞` for a query that failed. `fastest_ms` keeps each query's minimum
/// over the passes so far.
///
/// Every pass poses the same queries to a server in the same state, so a
/// query has one sample per pass, and its latency is taken as the fastest:
/// on a shared host the noise is one-sided. A busy neighbour slows the
/// process down by a quarter for seconds at a time; nothing speeds it up.
pub fn closed_pass(
    conn: &mut Connection,
    mode: QueryMode,
    queries: &[Pairs],
    latencies_ms: &mut Vec<f64>,
    fastest_ms: &mut [f64],
) -> (Duration, Tally) {
    latencies_ms.clear();
    let mut tally = Tally::default();
    let start = Instant::now();
    for (pairs, fastest) in queries.iter().zip(fastest_ms) {
        let sent = Instant::now();
        let outcome = ask(conn, mode, pairs);
        let latency = sent.elapsed();
        tally.attempted += 1;
        let latency_ms = match outcome {
            Ok(reply) => {
                std::hint::black_box(reply);
                latency.as_secs_f64() * 1e3
            }
            Err(_) => {
                tally.failed += 1;
                f64::INFINITY
            }
        };
        latencies_ms.push(latency_ms);
        *fastest = fastest.min(latency_ms);
    }
    (start.elapsed(), tally)
}

/// Run `pass` at least `min` times, and again as long as at least half
/// of another pass (taking the last one's duration) fits into `budget`.
/// Returns how many passes ran.
pub fn repeat_within(
    budget: Duration,
    min: usize,
    mut pass: impl FnMut() -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let (mut passes, mut last) = (0, Duration::ZERO);
    while passes < min || start.elapsed() + last / 2 < budget {
        let began = Instant::now();
        pass()?;
        last = began.elapsed();
        passes += 1;
    }
    Ok(passes)
}

/// What the open-loop phase saw.
#[derive(Debug, Default)]
pub struct OpenLoop {
    pub tally: Tally,
    /// Requests that finished verified within the workload's limit.
    pub within_limit: u64,
    /// Due time → verified, ms, successful requests, ascending.
    pub latency_ms: Vec<f64>,
    /// Due time → actually sent, ms, every request, ascending.
    pub wait_ms: Vec<f64>,
}

impl OpenLoop {
    /// Share of attempted requests that met the limit; a failure is a
    /// miss.
    pub fn within_limit_share(&self) -> f64 {
        self.within_limit as f64 / self.tally.attempted as f64
    }
}

/// The open-loop phase: `requests` requests cycling through the list,
/// request `i` due at `i / rate` seconds on an evenly spaced schedule.
/// The generator spins until the due time, and latency counts from the
/// **due** time, so a stalled server pays for the requests queued
/// behind the stall.
pub fn open_loop(
    conn: &mut Connection,
    w: &Workload,
    queries: &[Pairs],
    requests: usize,
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let start = Instant::now();
    for (i, pairs) in queries.iter().cycle().take(requests).enumerate() {
        let due = Duration::from_secs_f64(i as f64 / w.open_rate);
        while start.elapsed() < due {
            std::hint::spin_loop();
        }
        let sent = start.elapsed();
        let outcome = ask(conn, w.mode, pairs);
        let done = start.elapsed();
        out.tally.attempted += 1;
        out.wait_ms.push((sent - due).as_secs_f64() * 1e3);
        match outcome {
            Ok(reply) => {
                std::hint::black_box(reply);
                let latency_ms = (done - due).as_secs_f64() * 1e3;
                if latency_ms <= w.open_limit_ms {
                    out.within_limit += 1;
                }
                out.latency_ms.push(latency_ms);
            }
            Err(_) => out.tally.failed += 1,
        }
    }
    stats::sort(&mut out.latency_ms);
    stats::sort(&mut out.wait_ms);
    out
}
