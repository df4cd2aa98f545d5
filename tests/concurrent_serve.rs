//! Concurrent serving stress coverage: many OS threads hammering mixed
//! hot/cold queries through one engine's resident structures, and the
//! pool-backed [`SearchEngine::serve_batch`] path at several widths.
//! The contract under test is the tentpole invariant — every VO served
//! concurrently must **byte-equal** the sequential (`threads = 1`)
//! output and still verify against the owner's public parameters.

use authsearch::core::wire;
use authsearch::prelude::*;
use authsearch_corpus::TermId;

const KEY_BITS: usize = authsearch::crypto::keys::TEST_KEY_BITS;

/// One published engine plus a mixed hot/cold query workload and the
/// sequential reference encodings of every response.
struct Fixture {
    engine: SearchEngine,
    client: Client,
    queries: Vec<Query>,
    reference: Vec<Vec<u8>>,
}

fn fixture(mechanism: Mechanism) -> Fixture {
    let corpus = SyntheticConfig::tiny(120, 9).generate();
    let owner = DataOwner::with_cached_key(KEY_BITS);
    let config = AuthConfig {
        key_bits: KEY_BITS,
        threads: 1,
        ..AuthConfig::new(mechanism)
    };
    let publication = owner.publish(&corpus, config);
    let client = Client::new(publication.verifier_params.clone());
    let engine = SearchEngine::new(publication.auth, corpus);

    let num_terms = engine.auth().index().num_terms();
    // 12 distinct query shapes; threads below replay the head of the
    // list far more often than the tail (hot/cold mix).
    let workload = authsearch::corpus::workload::synthetic(num_terms, 12, 2, 5);
    let queries: Vec<Query> = workload
        .iter()
        .map(|terms| Query::from_term_ids(engine.auth().index(), terms))
        .collect();
    let reference: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| wire::encode(&engine.search(q, 4).vo).expect("VO fits the wire format"))
        .collect();
    Fixture {
        engine,
        client,
        queries,
        reference,
    }
}

#[test]
fn concurrent_hammering_yields_sequential_bytes() {
    for mechanism in [Mechanism::TnraCmht, Mechanism::TraMht] {
        let fx = fixture(mechanism);
        let engine = &fx.engine;
        let queries = &fx.queries;
        let reference = &fx.reference;
        std::thread::scope(|s| {
            for t in 0..8usize {
                s.spawn(move || {
                    for round in 0..3usize {
                        for i in 0..queries.len() {
                            // Rotate per thread; revisit the hot head
                            // (queries 0-2) on every step of the walk.
                            let qi = if i % 2 == 0 {
                                i % 3
                            } else {
                                (i + t) % queries.len()
                            };
                            let resp = engine.search(&queries[qi], 4);
                            let bytes = wire::encode(&resp.vo).expect("VO fits the wire format");
                            assert_eq!(
                                bytes,
                                reference[qi],
                                "{} thread {t} round {round} query {qi}: \
                                 concurrent VO diverged from sequential bytes",
                                mechanism.name()
                            );
                        }
                    }
                });
            }
        });
        // Every response above byte-equals the reference, so verifying
        // the reference set once covers them all.
        for (q, bytes) in fx.queries.iter().zip(&fx.reference) {
            let mut resp = fx.engine.search(q, 4);
            resp.vo = wire::decode(bytes).expect("reference bytes decode");
            fx.client
                .verify_query(q, 4, &resp)
                .unwrap_or_else(|e| panic!("{}: {e}", mechanism.name()));
        }
        let stats = fx.engine.auth().cache_stats();
        assert!(stats.hits > 0, "term proofs come from resident structures");
        assert_eq!(stats.misses, 0, "no term structure is rebuilt");
    }
}

#[test]
fn serve_batch_bit_identical_across_widths_and_verifies() {
    for mechanism in [Mechanism::TnraMht, Mechanism::TraCmht] {
        let mut fx = fixture(mechanism);
        // A batch that repeats hot queries between cold ones.
        let batch: Vec<Query> = (0..24)
            .map(|i| {
                fx.queries[if i % 2 == 0 {
                    i % 3
                } else {
                    i % fx.queries.len()
                }]
                .clone()
            })
            .collect();
        fx.engine.set_threads(1);
        let sequential = fx.engine.serve_batch(&batch, 4);
        for threads in [2usize, 4, 8] {
            fx.engine.set_threads(threads);
            let parallel = fx.engine.serve_batch(&batch, 4);
            assert_eq!(parallel.len(), sequential.len());
            for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
                assert_eq!(
                    wire::encode(&p.vo).unwrap(),
                    wire::encode(&s.vo).unwrap(),
                    "{} threads={threads} query {i}",
                    mechanism.name()
                );
                assert_eq!(p.result, s.result);
                assert_eq!(p.io, s.io);
                assert_eq!(p.entries_read, s.entries_read);
            }
        }
        // Batch responses verify through the client's batch path.
        let pairs: Vec<Vec<(TermId, u32)>> = batch
            .iter()
            .map(|q| q.terms.iter().map(|t| (t.term, t.f_qt)).collect())
            .collect();
        let requests: Vec<(&[(TermId, u32)], &QueryResponse)> = pairs
            .iter()
            .zip(&sequential)
            .map(|(p, r)| (p.as_slice(), r))
            .collect();
        for (i, verdict) in fx.client.verify_batch(&requests, 4).iter().enumerate() {
            verdict
                .as_ref()
                .unwrap_or_else(|e| panic!("{} response {i}: {e}", mechanism.name()));
        }
    }
}
