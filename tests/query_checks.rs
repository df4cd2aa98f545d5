//! A query is checked where it is made. `Query::new` refuses what no
//! index can answer (no term, a repeated id, `f_{Q,t} = 0`, a weight
//! that is not finite and positive), `AuthenticatedIndex::check` what
//! this index cannot (an id outside its dictionary, TNRA's term limit),
//! and the client refuses a malformed posed query before it checks a
//! single proof. Every refusal is a typed error, under every mechanism
//! and query mode; nothing panics.

use authsearch_core::tnra::MAX_QUERY_TERMS;
use authsearch_core::{
    AuthConfig, Client, DataOwner, Mechanism, Publication, Query, QueryError, QueryMode, QueryTerm,
    VerifyError,
};
use authsearch_corpus::{Corpus, SyntheticConfig, TermId};
use authsearch_crypto::keys::TEST_KEY_BITS;
use authsearch_index::{build_index, ImpactEntry, InvertedIndex, InvertedList, OkapiParams};

const MODES: [QueryMode; 2] = [QueryMode::Disjunctive, QueryMode::Conjunctive];

fn publish(mechanism: Mechanism) -> (Publication, Corpus) {
    let corpus = SyntheticConfig::tiny(150, 23).generate();
    let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
    let publication = owner.publish(&corpus, AuthConfig::new(mechanism));
    (publication, corpus)
}

fn term(term: TermId, wq: f64) -> QueryTerm {
    QueryTerm { term, f_qt: 1, wq }
}

/// The paper's model (§2) scores with non-negative weights, and both
/// threshold bounds assume them. A negative `w_{Q,t}` once made TRA rank
/// a top r of negative scores that the replay agreed with; now such a
/// query cannot be built, while the same terms at their dictionary
/// weights are served and verify.
#[test]
fn negative_weight_query_is_refused() {
    for mechanism in Mechanism::ALL {
        let (publication, corpus) = publish(mechanism);
        let terms: Vec<TermId> = vec![0, 1, 2];
        let negative: Vec<(TermId, f64)> = terms.iter().map(|&t| (t, -1.0)).collect();
        assert_eq!(
            Query::with_weights(&negative),
            Err(QueryError::BadWeight { term: 0, wq: -1.0 }),
            "{mechanism:?}"
        );
        for mode in MODES {
            let query = Query::from_term_ids(publication.auth.index(), &terms).with_mode(mode);
            let reply = publication
                .auth
                .query(&query, 10, &corpus)
                .unwrap_or_else(|e| panic!("{mechanism:?} {mode:?}: {e}"));
            assert!(reply.result.entries.iter().all(|e| e.score >= 0.0));
            let verified =
                authsearch_core::verify(&publication.verifier_params, &query, 10, &reply)
                    .unwrap_or_else(|e| panic!("{mechanism:?} {mode:?}: {e}"));
            assert_eq!(verified.result, reply.result, "{mechanism:?} {mode:?}");
        }
    }
}

/// Each malformed query ends in its own `QueryError`, at the
/// constructors or at `AuthenticatedIndex::query`, under 4 mechanisms ×
/// both modes. TNRA's engine used to panic on a 65-term query, and every
/// mechanism on an id outside the dictionary.
#[test]
fn malformed_queries_never_panic() {
    for mechanism in Mechanism::ALL {
        let (publication, corpus) = publish(mechanism);
        let auth = &publication.auth;
        let index = auth.index();
        let m = index.num_terms();
        assert!(m > MAX_QUERY_TERMS, "the corpus must hold 65 terms");
        let outside = m as TermId + 3;

        for mode in MODES {
            let what = format!("{mechanism:?} {mode:?}");
            let new = |terms: Vec<QueryTerm>| Query::new(terms, mode);

            // No term.
            assert_eq!(new(Vec::new()), Err(QueryError::Empty), "{what}");
            assert_eq!(
                Query::from_pairs(index, &[], mode),
                Err(QueryError::Empty),
                "{what}"
            );
            assert_eq!(
                Query::from_text(&corpus, index, "zzzz qqqq"),
                Err(QueryError::Empty),
                "{what}"
            );

            // NaN and negative weights.
            for wq in [f64::NAN, -1.0] {
                let refused = new(vec![term(0, 1.0), term(4, wq)]);
                assert!(
                    matches!(refused, Err(QueryError::BadWeight { term: 4, wq: got })
                        if got.to_bits() == wq.to_bits()),
                    "{what} wq={wq}: {refused:?}"
                );
            }

            // A repeated id: a duplicate to the constructor, not the
            // canonical ascending form on the wire.
            assert_eq!(
                new(vec![term(5, 1.0), term(2, 1.0), term(5, 1.0)]),
                Err(QueryError::DuplicateTerm(5)),
                "{what}"
            );
            assert_eq!(
                Query::from_pairs(index, &[(2, 1), (2, 1)], mode),
                Err(QueryError::NotAscending),
                "{what}"
            );
            assert_eq!(
                Query::from_pairs(index, &[(2, 0)], mode),
                Err(QueryError::ZeroFrequency(2)),
                "{what}"
            );

            // An id outside the dictionary: the index-aware builder
            // refuses it before reading its `f_t`, the index before
            // scanning.
            let out = QueryError::OutOfDictionary { term: outside, m };
            assert_eq!(
                Query::from_pairs(index, &[(1, 1), (outside, 1)], mode),
                Err(out.clone()),
                "{what}"
            );
            let query = new(vec![term(1, 1.0), term(outside, 1.0)]).unwrap();
            assert_eq!(auth.check(&query), Err(out.clone()), "{what}");
            assert_eq!(auth.query(&query, 10, &corpus).err(), Some(out), "{what}");

            // 65 terms: only a disjunctive TNRA query is over the limit.
            let pairs: Vec<(TermId, u32)> =
                (0..=MAX_QUERY_TERMS as TermId).map(|t| (t, 1)).collect();
            let long = Query::from_pairs(index, &pairs, mode).unwrap();
            let served = auth.query(&long, 10, &corpus);
            if mode == QueryMode::Disjunctive && !mechanism.is_tra() {
                let limit = QueryError::TooManyTerms {
                    q: MAX_QUERY_TERMS + 1,
                    max: MAX_QUERY_TERMS,
                };
                assert_eq!(served.err(), Some(limit.clone()), "{what}");
                assert!(limit.to_string().contains("at most 64"));
            } else {
                let reply = served.unwrap_or_else(|e| panic!("{what}: {e}"));
                authsearch_core::verify(&publication.verifier_params, &long, 10, &reply)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
            }
        }
    }
}

/// The client rebuilds the query it posed from its `(t, f_{Q,t})` pairs
/// and the reply's signed `f_t`, through the same constructor. A posed
/// query that does not make a `Query` is refused before any proof is
/// checked: here the reply's dictionary proof is also forged, and the
/// verdict is still the malformed query, not the proof.
#[test]
fn client_refuses_malformed_posed_query() {
    for mechanism in Mechanism::ALL {
        let (publication, corpus) = publish(mechanism);
        let client = Client::new(publication.verifier_params.clone());
        let index = publication.auth.index();
        let pairs = [(3, 1), (7, 1)];
        let query = Query::from_pairs(index, &pairs, QueryMode::Disjunctive).unwrap();
        let honest = publication.auth.query(&query, 10, &corpus).unwrap();
        client
            .verify_terms(&pairs, 10, &honest)
            .unwrap_or_else(|e| panic!("{mechanism:?}: {e}"));
        let mut forged = honest.clone();
        forged.vo.dict.as_mut().unwrap().proof.digests[0].0[0] ^= 0x40;

        // f_{Q,t} = 0.
        assert_eq!(
            client.verify_terms(&[(3, 0), (7, 1)], 10, &forged).err(),
            Some(VerifyError::MalformedQuery(QueryError::ZeroFrequency(3))),
            "{mechanism:?}"
        );

        // A repeated id, against a reply whose term entries repeat it.
        let mut repeated = forged.clone();
        repeated.vo.terms[1] = repeated.vo.terms[0].clone();
        assert_eq!(
            client.verify_terms(&[(3, 1), (3, 1)], 10, &repeated).err(),
            Some(VerifyError::MalformedQuery(QueryError::DuplicateTerm(3))),
            "{mechanism:?}"
        );

        // No term, against a reply with no term entries.
        let mut empty = forged.clone();
        empty.vo.terms.clear();
        assert_eq!(
            client.verify_terms(&[], 10, &empty).err(),
            Some(VerifyError::MalformedQuery(QueryError::Empty)),
            "{mechanism:?}"
        );

        // Unsorted pairs against the reply to the sorted query: the
        // term entries do not line up with the posed pairs.
        assert!(
            matches!(
                client.verify_terms(&[(7, 1), (3, 1)], 10, &forged),
                Err(VerifyError::QueryShapeMismatch(_))
            ),
            "{mechanism:?}"
        );
    }
}

/// Serving is total even over an index the paper's model excludes.
/// `OkapiParams::new` refuses the parameters that give negative or NaN
/// document weights, but `InvertedIndex::from_parts` admits any weight:
/// over lists of negative weights TNRA's per-pop guard refuses the
/// scan, and the engine returns that refusal as `QueryError::Refused`;
/// it used to panic.
#[test]
fn scan_refusal_is_a_typed_error() {
    let corpus = SyntheticConfig::tiny(150, 23).generate();
    let honest = build_index(&corpus, OkapiParams::default());
    let m = honest.num_terms() as TermId;
    let negated = |t: TermId| {
        let entries = honest.list(t).entries().iter();
        InvertedList::from_entries(
            entries
                .map(|e| ImpactEntry {
                    doc: e.doc,
                    weight: -e.weight,
                })
                .collect(),
        )
    };
    let index = InvertedIndex::from_parts(
        honest.params(),
        honest.num_docs(),
        honest.avg_doc_len(),
        (0..m).map(|t| honest.ft(t)).collect(),
        (0..m).map(negated).collect(),
    );
    let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
    for mechanism in [Mechanism::TnraMht, Mechanism::TnraCmht] {
        let publication = owner.publish_index(index.clone(), AuthConfig::new(mechanism), &corpus);
        let query = Query::from_term_ids(publication.auth.index(), &[0, 1, 2]);
        let refused = publication.auth.query(&query, 150, &corpus);
        assert!(
            matches!(&refused, Err(QueryError::Refused(e)) if e.what.contains("not a non-negative")),
            "{mechanism:?}: {:?}",
            refused.map(|r| r.result)
        );
    }
}
