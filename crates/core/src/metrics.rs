//! Per-query measurement: the cost metrics of the paper's §4.1
//! ("performance metrics") — plus the live operational counters of the
//! long-running network server ([`crate::server`]).
//!
//! For one (query, mechanism) pair this captures: entries read per list
//! (Fig 13a/14a/15a), fraction of each list read (13b/14b/15b), simulated
//! disk time at the engine (13c/14c/15c), VO size with its Table 2
//! breakdown (13d/14d/15d), and wall-clock user verification time
//! (13e/14e/15e).

use crate::auth::serve::QueryResponse;
use crate::auth::{AuthenticatedIndex, ContentProvider};
use crate::types::Query;
use crate::verify::{self, VerifierParams, VerifyError};
use crate::vo::VoSize;
use authsearch_corpus::DocId;
use authsearch_crypto::counters::{self, WorkCounts};
use authsearch_index::{DiskModel, IoStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Live counters of a running server, updated lock-free by every
/// connection handler; snapshot with [`ServerMetrics::snapshot`].
#[derive(Debug, Default)]
pub(crate) struct ServerMetrics {
    /// Connections admitted (shed connections are **not** counted here).
    pub connections: AtomicU64,
    /// Requests answered with a [`crate::wire::kind::REPLY_OK`] frame.
    pub requests_ok: AtomicU64,
    /// Requests answered with a [`crate::wire::kind::REPLY_ERR`] frame.
    pub requests_err: AtomicU64,
    /// Request payload bytes read off the wire.
    pub bytes_in: AtomicU64,
    /// Reply frame bytes written to the wire.
    pub bytes_out: AtomicU64,
    /// Connections refused at admission because the server sat at
    /// [`crate::ServerConfig::max_connections`]. Each gets a typed
    /// [`crate::wire::errcode::BUSY`] reply while the polite-refusal
    /// path has capacity; past its bound (a connect flood) the
    /// remainder are dropped without one — both count here, because
    /// both were shed.
    pub connections_shed: AtomicU64,
    /// Connections evicted by the idle deadline (slow-loris peers and
    /// parked sockets), answered with a
    /// [`crate::wire::errcode::TIMEOUT`] reply.
    pub connections_timed_out: AtomicU64,
    /// High-water mark of simultaneously admitted connections — how
    /// close the server has come to its cap.
    pub active_highwater: AtomicU64,
}

/// A point-in-time copy of `ServerMetrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerMetricsSnapshot {
    /// Connections admitted.
    pub connections: u64,
    /// Requests answered with a [`crate::wire::kind::REPLY_OK`] frame.
    pub requests_ok: u64,
    /// Requests answered with an error reply.
    pub requests_err: u64,
    /// Request payload bytes read.
    pub bytes_in: u64,
    /// Reply frame bytes written.
    pub bytes_out: u64,
    /// Connections shed at admission with a typed BUSY reply.
    pub connections_shed: u64,
    /// Connections evicted by the idle deadline.
    pub connections_timed_out: u64,
    /// High-water mark of simultaneously admitted connections.
    pub active_highwater: u64,
}

impl ServerMetrics {
    /// Read every counter at once (relaxed loads; counters are advisory).
    pub fn snapshot(&self) -> ServerMetricsSnapshot {
        ServerMetricsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests_ok: self.requests_ok.load(Ordering::Relaxed),
            requests_err: self.requests_err.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            connections_shed: self.connections_shed.load(Ordering::Relaxed),
            connections_timed_out: self.connections_timed_out.load(Ordering::Relaxed),
            active_highwater: self.active_highwater.load(Ordering::Relaxed),
        }
    }
}

/// Transport-level syscall counters and the deadline heap gauge, kept
/// **separate** from [`ServerMetrics`]: those count protocol outcomes,
/// which a scripted scenario pins exactly, while the syscall mix
/// depends on how bytes happen to arrive and on the readiness backend.
///
/// Read with [`TransportStats::snapshot`]; divide by `requests_ok` for
/// the syscalls-per-query rows `authbench` reports
/// (`server.{reads,writes,polls}_per_query`).
#[derive(Debug, Default)]
pub(crate) struct TransportStats {
    /// `accept(2)` attempts (including the final `EAGAIN` probe that
    /// ends an accept burst).
    pub accepts: AtomicU64,
    /// `read(2)`/`recv(2)` calls issued on connection sockets.
    pub reads: AtomicU64,
    /// `write(2)`/`writev(2)` calls issued on connection sockets.
    pub writes: AtomicU64,
    /// Readiness waits: the event loop's `epoll_wait(2)` calls on
    /// Linux, `poll(2)` calls on other Unix.
    pub polls: AtomicU64,
    /// A gauge, not a counter: the event loop's deadline heap length,
    /// outlived entries included, stored once per loop turn. Steady
    /// serving holds about one entry per open connection.
    pub timers: AtomicU64,
}

/// A point-in-time copy of `TransportStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportStatsSnapshot {
    /// `accept(2)` attempts.
    pub accepts: u64,
    /// Socket read calls.
    pub reads: u64,
    /// Socket write calls.
    pub writes: u64,
    /// Readiness waits.
    pub polls: u64,
    /// Deadline heap entries at the end of the last loop turn.
    pub timers: u64,
}

impl TransportStats {
    /// Read every counter at once (relaxed loads; counters are advisory).
    pub fn snapshot(&self) -> TransportStatsSnapshot {
        TransportStatsSnapshot {
            accepts: self.accepts.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            polls: self.polls.load(Ordering::Relaxed),
            timers: self.timers.load(Ordering::Relaxed),
        }
    }
}

/// Measurements for one verified query.
#[derive(Debug, Clone)]
pub struct QueryMetrics {
    /// Entries fetched per query-term list.
    pub entries_read: Vec<usize>,
    /// True lengths of the query-term lists.
    pub list_lens: Vec<usize>,
    /// Engine disk trace.
    pub io: IoStats,
    /// Simulated engine I/O time in seconds.
    pub io_secs: f64,
    /// VO size breakdown.
    pub vo_size: VoSize,
    /// The share of [`QueryMetrics::vo_size`] that proves document facts
    /// (TRA): the proved documents' ids and the doc-order proofs.
    pub facts_size: VoSize,
    /// The documents the reply proves (TRA), in encounter order.
    pub proved_docs: Vec<DocId>,
    /// The result's documents, best first.
    pub result_docs: Vec<DocId>,
    /// Signatures the paper's scheme would carry for the same reply
    /// (`VerificationObject::paper_signature_count`).
    pub paper_signatures: usize,
    /// Wall-clock verification time at the user.
    pub verify_time: Duration,
    /// Hash and signature work serving the query took at the engine
    /// (zero unless `authsearch_crypto::counters` counts).
    pub serve_work: WorkCounts,
    /// Hash and signature work verifying the reply took at the user,
    /// counted the same way.
    pub verify_work: WorkCounts,
}

impl QueryMetrics {
    /// Mean entries read per query term (Figure 13(a)'s y-axis).
    pub fn mean_entries_read(&self) -> f64 {
        if self.entries_read.is_empty() {
            return 0.0;
        }
        self.entries_read.iter().sum::<usize>() as f64 / self.entries_read.len() as f64
    }

    /// Mean list length over the query terms (the "List Length"
    /// baseline).
    pub fn mean_list_len(&self) -> f64 {
        if self.list_lens.is_empty() {
            return 0.0;
        }
        self.list_lens.iter().sum::<usize>() as f64 / self.list_lens.len() as f64
    }

    /// Mean percentage of each queried list that was read
    /// (Figure 13(b)'s y-axis).
    pub fn mean_pct_read(&self) -> f64 {
        if self.entries_read.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .entries_read
            .iter()
            .zip(&self.list_lens)
            .map(|(&k, &l)| {
                if l == 0 {
                    0.0
                } else {
                    100.0 * k as f64 / l as f64
                }
            })
            .sum();
        sum / self.entries_read.len() as f64
    }
}

/// Serve and verify one query, measuring everything.
pub fn measure<C: ContentProvider>(
    auth: &AuthenticatedIndex,
    params: &VerifierParams,
    query: &Query,
    r: usize,
    contents: &C,
    disk: &DiskModel,
) -> Result<QueryMetrics, VerifyError> {
    let start = counters::current();
    let response: QueryResponse = auth
        .query(query, r, contents)
        .map_err(VerifyError::MalformedQuery)?;
    let served = counters::current();

    let t1 = Instant::now();
    verify::verify(params, query, r, &response)?;
    let verify_time = t1.elapsed();
    let verified = counters::current();

    let list_lens = query
        .terms()
        .iter()
        .map(|qt| auth.index().list(qt.term).len())
        .collect();

    Ok(QueryMetrics {
        entries_read: response.entries_read,
        list_lens,
        io: response.io,
        io_secs: disk.service_time(response.io),
        vo_size: response.vo.size(),
        facts_size: response.vo.facts_size(),
        result_docs: response.result.docs(),
        paper_signatures: response.vo.paper_signature_count(),
        verify_time,
        serve_work: served - start,
        verify_work: verified - served,
        proved_docs: response.vo.docs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthConfig;
    use crate::owner::DataOwner;
    use crate::toy::{toy_contents, toy_index, toy_query};
    use crate::vo::Mechanism;
    use authsearch_crypto::keys::TEST_KEY_BITS;

    #[test]
    fn measure_toy_query() {
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let config = AuthConfig::new(Mechanism::TnraCmht);
        let publication = owner.publish_index(toy_index(), config, &toy_contents());
        let m = measure(
            &publication.auth,
            &publication.verifier_params,
            &toy_query(),
            2,
            &toy_contents(),
            &DiskModel::default(),
        )
        .unwrap();
        assert_eq!(m.entries_read, vec![1, 4, 4, 1]);
        assert_eq!(m.list_lens, vec![1, 6, 6, 1]);
        assert!((m.mean_entries_read() - 2.5).abs() < 1e-12);
        assert!(m.io_secs > 0.0);
        assert!(m.vo_size.total() > 0);
        // 1/1, 4/6, 4/6, 1/1 → mean %.
        let expect = (100.0 + 400.0 / 6.0 + 400.0 / 6.0 + 100.0) / 4.0;
        assert!((m.mean_pct_read() - expect).abs() < 1e-9);
    }
}
