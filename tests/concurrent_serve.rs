//! Concurrent serving stress coverage: many OS threads hammering mixed
//! hot/cold queries through one engine's resident structures. The
//! contract under test is the tentpole invariant — every VO served
//! concurrently must **byte-equal** the sequential output and still
//! verify against the owner's public parameters.

use authsearch::core::wire;
use authsearch::prelude::*;

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
            authsearch::core::verify(fx.client.params(), q, 4, &resp)
                .unwrap_or_else(|e| panic!("{}: {e}", mechanism.name()));
        }
        let stats = fx.engine.auth().cache_stats();
        assert!(stats.hits > 0, "term proofs come from resident structures");
        assert_eq!(stats.misses, 0, "no term structure is rebuilt");
    }
}
