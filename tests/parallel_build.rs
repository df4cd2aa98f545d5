//! Integration coverage for the parallel owner build: whatever
//! `AuthConfig::threads` the owner uses, the published artifact — and
//! every proof the engine derives from it — must be bit-identical to the
//! paper's sequential (`threads = 1`) model.

use authsearch::core::wire;
use authsearch::index::IoStats;
use authsearch::prelude::*;

/// Publish the same synthetic corpus at a given thread count and answer
/// a fixed query workload, returning the wire-encoded VOs.
fn publish_and_serve(mechanism: Mechanism, threads: usize) -> (Vec<Vec<u8>>, VerifierParams) {
    let corpus = SyntheticConfig::tiny(80, 4).generate();
    let owner = DataOwner::with_cached_key(authsearch::crypto::keys::TEST_KEY_BITS);
    let config = AuthConfig {
        threads,
        ..AuthConfig::new(mechanism)
    };
    let publication = owner.publish(&corpus, config);
    let params = publication.verifier_params.clone();
    let engine = SearchEngine::new(publication.auth, corpus);
    let num_terms = engine.auth().index().num_terms();
    let workload = authsearch::corpus::workload::synthetic(num_terms, 6, 2, 4);
    let vos = workload
        .iter()
        .map(|terms| {
            let query = Query::from_term_ids(engine.auth().index(), terms);
            let response = engine.search(&query, 5);
            wire::encode(&response.vo).expect("VO fits the wire format")
        })
        .collect();
    (vos, params)
}

#[test]
fn proofs_are_bit_identical_across_thread_counts() {
    for mechanism in Mechanism::ALL {
        let (reference, _) = publish_and_serve(mechanism, 1);
        for threads in [2, 4] {
            let (vos, _) = publish_and_serve(mechanism, threads);
            assert_eq!(
                vos,
                reference,
                "{} VOs changed with threads={threads}",
                mechanism.name()
            );
        }
    }
}

/// Serve TRA replies that prove over a hundred documents — the four
/// most frequent terms of a 400-document collection, disjunctive and
/// conjunctive — from a publication whose doc-order trees the build
/// folded `threads` wide. Returns each reply's wire-encoded VO and I/O
/// trace.
fn serve_wide_tra(mechanism: Mechanism, threads: usize) -> Vec<(Vec<u8>, IoStats)> {
    let corpus = SyntheticConfig::tiny(400, 7).generate();
    let owner = DataOwner::with_cached_key(authsearch::crypto::keys::TEST_KEY_BITS);
    let config = AuthConfig {
        threads,
        ..AuthConfig::new(mechanism)
    };
    let engine = SearchEngine::new(owner.publish(&corpus, config).auth, corpus);
    let index = engine.auth().index();
    let mut terms: Vec<u32> = (0..index.num_terms() as u32).collect();
    terms.sort_by_key(|&t| std::cmp::Reverse(index.ft(t)));
    let mut top = terms[..4].to_vec();
    top.sort_unstable();
    let query = Query::from_term_ids(index, &top);
    [QueryMode::Disjunctive, QueryMode::Conjunctive]
        .map(|mode| engine.search(&query.clone().with_mode(mode), 10))
        .into_iter()
        .map(|response| {
            let docs = response.vo.docs.len();
            assert!(docs >= 100, "{docs} proved documents");
            let vo = wire::encode(&response.vo).expect("VO fits the wire format");
            (vo, response.io)
        })
        .collect()
}

#[test]
fn tra_document_proofs_are_bit_identical_across_fan_out_widths() {
    for mechanism in [Mechanism::TraMht, Mechanism::TraCmht] {
        let reference = serve_wide_tra(mechanism, 1);
        for threads in [2, 4] {
            assert_eq!(
                serve_wide_tra(mechanism, threads),
                reference,
                "{} VOs or I/O traces changed with threads={threads}",
                mechanism.name()
            );
        }
    }
}

#[test]
fn parallel_built_publication_verifies() {
    let corpus = SyntheticConfig::tiny(80, 4).generate();
    let owner = DataOwner::with_cached_key(authsearch::crypto::keys::TEST_KEY_BITS);
    let config = AuthConfig {
        threads: 4,
        ..AuthConfig::new(Mechanism::TraCmht)
    };
    let publication = owner.publish(&corpus, config);
    let params = publication.verifier_params.clone();
    let engine = SearchEngine::new(publication.auth, corpus);
    let query = Query::from_term_ids(engine.auth().index(), &[0, 1]);
    let response = engine.search(&query, 5);
    let verified = authsearch::core::verify(&params, &query, 5, &response).expect("honest");
    assert_eq!(verified.result, response.result);
}
