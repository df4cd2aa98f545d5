//! Authenticated conjunctive queries, specified against brute force:
//! the verified conjunctive result must equal the intersection of the
//! per-term *disjunctive* results, ranked by the summed per-term
//! scores — over random corpora and random term subsets. A second
//! battery pins the bit-identity bar: the conjunctive VO for a query is
//! byte-identical whatever pool width the owner published at.

use authsearch::core::wire;
use authsearch::core::{verify, Query};
use authsearch::prelude::*;
use proptest::prelude::*;

const TOLERANCE: f64 = 1e-9;

fn build_engine(mechanism: Mechanism, docs: usize, seed: u64) -> (SearchEngine, VerifierParams) {
    publish(AuthConfig::new(mechanism), docs, seed)
}

/// Publish a synthetic corpus of `docs` documents under `config`.
fn publish(config: AuthConfig, docs: usize, seed: u64) -> (SearchEngine, VerifierParams) {
    let corpus = SyntheticConfig::tiny(docs, seed).generate();
    let owner = DataOwner::with_cached_key(authsearch::crypto::keys::TEST_KEY_BITS);
    let publication = owner.publish(&corpus, config);
    let params = publication.verifier_params.clone();
    (SearchEngine::new(publication.auth, corpus), params)
}

/// Brute-force reference: intersect the per-term disjunctive result
/// sets (each fetched exhaustively with `r = num_docs`), score each
/// surviving document by summing its per-term disjunctive scores in
/// query-term order, rank descending (ties broken by ascending doc
/// id), and keep the top `r`.
fn brute_force_intersection(engine: &SearchEngine, query: &Query, r: usize) -> Vec<(u32, f64)> {
    let num_docs = engine.corpus().num_docs();
    let per_term: Vec<Vec<(u32, f64)>> = query
        .terms()
        .iter()
        .map(|qt| {
            let single = Query::from_term_pairs(engine.auth().index(), &[(qt.term, qt.f_qt)]);
            engine
                .search(&single, num_docs)
                .result
                .entries
                .iter()
                .map(|e| (e.doc, e.score))
                .collect()
        })
        .collect();
    let mut scored: Vec<(u32, f64)> = Vec::new();
    if let Some(first) = per_term.first() {
        'docs: for &(doc, _) in first {
            let mut score = 0.0f64;
            for term_docs in &per_term {
                match term_docs.iter().find(|(d, _)| *d == doc) {
                    Some(&(_, s)) => score += s,
                    None => continue 'docs,
                }
            }
            scored.push((doc, score));
        }
    }
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
    scored.truncate(r);
    scored
}

/// `terms` posed as a conjunctive query.
fn conjunctive(engine: &SearchEngine, terms: &[u32]) -> Query {
    Query::from_term_ids(engine.auth().index(), terms).with_mode(QueryMode::Conjunctive)
}

/// One equivalence check: serve the conjunctive query, verify it, and
/// compare docs + scores against brute force.
fn check_case(engine: &SearchEngine, params: &VerifierParams, query: &Query, r: usize) {
    let response = engine.search(query, r);
    let verified = verify(params, query, r, &response).expect("honest conjunctive VO verifies");
    let expected = brute_force_intersection(engine, query, r);
    let got: Vec<(u32, f64)> = verified
        .result
        .entries
        .iter()
        .map(|e| (e.doc, e.score))
        .collect();
    assert_eq!(
        got.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
        expected.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
        "conjunctive docs diverge from brute-force intersection"
    );
    for (&(d, gs), &(_, es)) in got.iter().zip(expected.iter()) {
        assert!(
            (gs - es).abs() < TOLERANCE,
            "doc {d}: conjunctive score {gs} vs brute force {es}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The tentpole's specification, randomized: for random corpora and
    /// random 1–3 term subsets, the verified conjunctive result equals
    /// the brute-force intersection of per-term disjunctive results.
    #[test]
    fn verified_conjunctive_equals_brute_force_intersection(
        corpus_seed in 1u64..1_000,
        raw_terms in proptest::collection::vec(any::<u32>(), 1..4),
        mech_pick in 0usize..4,
        r in 1usize..6,
    ) {
        let mechanism = Mechanism::ALL[mech_pick];
        let (engine, params) = build_engine(mechanism, 60, corpus_seed);
        let num_terms = engine.auth().index().num_terms() as u32;
        let mut ids: Vec<u32> = raw_terms.iter().map(|&t| t % num_terms).collect();
        ids.sort_unstable();
        ids.dedup();
        check_case(&engine, &params, &conjunctive(&engine, &ids), r);
    }
}

/// Acceptance bar, pinned deterministically: the resident structures
/// are folded over the owner's pool, so the same corpus published at
/// pool widths 1/2/4/8 must serve byte-identical conjunctive VOs, for
/// every mechanism.
#[test]
fn conjunctive_vo_bytes_identical_across_pool_widths() {
    for mechanism in Mechanism::ALL {
        let at_width = |threads: usize| {
            publish(
                AuthConfig {
                    threads,
                    ..AuthConfig::new(mechanism)
                },
                120,
                41,
            )
        };
        let (engine, params) = at_width(1);
        let num_terms = engine.auth().index().num_terms();
        let workloads = authsearch::corpus::workload::synthetic(num_terms, 6, 2, 9);
        let queries: Vec<Query> = workloads
            .iter()
            .map(|terms| conjunctive(&engine, terms))
            .collect();

        // Width-1 references (and the honesty check, once per query).
        let reference: Vec<Vec<u8>> = queries
            .iter()
            .map(|query| {
                let response = engine.search(query, 5);
                verify(&params, query, 5, &response).expect("verifies");
                wire::encode(&response.vo).unwrap()
            })
            .collect();

        for width in [2usize, 4, 8] {
            let (engine, _) = at_width(width);
            for (i, query) in queries.iter().enumerate() {
                let bytes = wire::encode(&engine.search(query, 5).vo).unwrap();
                assert_eq!(
                    bytes,
                    reference[i],
                    "{} query {i}: VO published at width {width} differs from width 1",
                    mechanism.name()
                );
            }
        }
    }
}

/// The server-proved intersection pays for itself in bytes: under TRA,
/// one conjunctive VO is smaller than the only sound alternative —
/// fetching every query term's full list (`r = n`), verifying each, and
/// intersecting client-side — and every verified conjunctive result
/// document lies in that client-side intersection.
#[test]
fn conjunctive_vo_is_smaller_than_fetching_every_full_list() {
    const R: usize = 10;
    for mechanism in [Mechanism::TraMht, Mechanism::TraCmht] {
        let (engine, params) = build_engine(mechanism, 200, 23);
        let num_docs = engine.corpus().num_docs();
        let index = engine.auth().index();
        let workloads = authsearch::corpus::workload::synthetic(index.num_terms(), 8, 2, 17);
        let (mut conj_bytes, mut fetch_bytes) = (0usize, 0usize);
        for terms in &workloads {
            let query = conjunctive(&engine, terms);
            let response = engine.search(&query, R);
            let verified =
                verify(&params, &query, R, &response).expect("honest conjunctive VO verifies");
            conj_bytes += wire::encode(&response.vo).unwrap().len();

            let mut intersection: Option<Vec<u32>> = None;
            for qt in query.terms() {
                let single = Query::from_term_pairs(index, &[(qt.term, qt.f_qt)]);
                let full = engine.search(&single, num_docs);
                fetch_bytes += wire::encode(&full.vo).unwrap().len();
                let list =
                    verify(&params, &single, num_docs, &full).expect("honest full list verifies");
                let docs: Vec<u32> = list.result.entries.iter().map(|e| e.doc).collect();
                intersection = Some(match intersection {
                    None => docs,
                    Some(prev) => prev.into_iter().filter(|d| docs.contains(d)).collect(),
                });
            }
            let intersection = intersection.unwrap_or_default();
            for e in &verified.result.entries {
                assert!(
                    intersection.contains(&e.doc),
                    "{}: conjunctive doc {} outside the client-side intersection",
                    mechanism.name(),
                    e.doc
                );
            }
        }
        assert!(
            conj_bytes < fetch_bytes,
            "{}: conjunctive VOs {conj_bytes} B, fetch-and-intersect {fetch_bytes} B",
            mechanism.name()
        );
    }
}

/// A conjunctive query containing a term with an empty posting list (or
/// a query whose terms share no document) yields a verifiably empty
/// result — the absence proofs carry the whole weight.
#[test]
fn disjoint_terms_verify_as_provably_empty() {
    for mechanism in Mechanism::ALL {
        let (engine, params) = build_engine(mechanism, 60, 7);
        let num_terms = engine.auth().index().num_terms();
        // Scan for a term pair with an empty intersection; synthetic
        // tiny corpora always contain plenty.
        let mut found = false;
        'search: for a in 0..num_terms.min(40) {
            for b in (a + 1)..num_terms.min(40) {
                let query = conjunctive(&engine, &[a as u32, b as u32]);
                if brute_force_intersection(&engine, &query, 60).is_empty() {
                    let response = engine.search(&query, 5);
                    let verified = verify(&params, &query, 5, &response)
                        .expect("empty intersection still verifies");
                    assert!(verified.result.entries.is_empty());
                    found = true;
                    break 'search;
                }
            }
        }
        assert!(found, "{}: no disjoint term pair found", mechanism.name());
    }
}
