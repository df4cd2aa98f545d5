//! End-to-end integration: owner → engine → client across all four
//! mechanisms, on text corpora, synthetic corpora, and the paper's toy
//! example, including the §3.4 dictionary-MHT every reply carries and
//! buddy-inclusion ablations.

use authsearch_core::{
    verify, AuthConfig, Client, DataOwner, Mechanism, Query, SearchEngine, VerifierParams,
};
use authsearch_corpus::{CorpusBuilder, SyntheticConfig, TermId};
use authsearch_crypto::keys::TEST_KEY_BITS;

fn synthetic_setup(
    mechanism: Mechanism,
    num_docs: usize,
    seed: u64,
) -> (SearchEngine, VerifierParams) {
    let corpus = SyntheticConfig::tiny(num_docs, seed).generate();
    let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
    let publication = owner.publish(&corpus, AuthConfig::new(mechanism));
    (
        SearchEngine::new(publication.auth, corpus),
        publication.verifier_params,
    )
}

#[test]
fn all_mechanisms_verify_on_synthetic_workload() {
    for mechanism in Mechanism::ALL {
        let (engine, params) = synthetic_setup(mechanism, 200, 42);
        let client = Client::new(params);
        let m = engine.auth().index().num_terms();
        for (qi, terms) in authsearch_corpus::workload::synthetic(m, 8, 3, 7)
            .into_iter()
            .enumerate()
        {
            let query = Query::from_term_ids(engine.auth().index(), &terms);
            let response = engine.search(&query, 10);
            assert!(response.result.is_ordered(), "{} q{qi}", mechanism.name());
            let pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            client
                .verify_terms(&pairs, 10, &response)
                .unwrap_or_else(|e| panic!("{} q{qi}: {e}", mechanism.name()));
        }
    }
}

#[test]
fn all_mechanisms_verify_on_trec_like_workload() {
    for mechanism in Mechanism::ALL {
        let (engine, params) = synthetic_setup(mechanism, 300, 11);
        let client = Client::new(params);
        let dfs = engine.auth().index().document_frequencies().to_vec();
        for (qi, terms) in authsearch_corpus::workload::trec_like(&dfs, 5, 0.35, 3)
            .into_iter()
            .enumerate()
        {
            let query = Query::from_term_ids(engine.auth().index(), &terms);
            let response = engine.search(&query, 20);
            let pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            client
                .verify_terms(&pairs, 20, &response)
                .unwrap_or_else(|e| panic!("{} q{qi}: {e}", mechanism.name()));
        }
    }
}

#[test]
fn toy_example_verifies_under_all_mechanisms() {
    use authsearch_core::toy::{toy_contents, toy_index, toy_query};
    for mechanism in Mechanism::ALL {
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let publication =
            owner.publish_index(toy_index(), AuthConfig::new(mechanism), &toy_contents());
        let response = publication
            .auth
            .query(&toy_query(), 2, &toy_contents())
            .unwrap();
        assert_eq!(response.result.docs(), vec![6, 5], "{}", mechanism.name());
        let verified = verify::verify(&publication.verifier_params, &toy_query(), 2, &response)
            .unwrap_or_else(|e| panic!("{}: {e}", mechanism.name()));
        assert_eq!(verified.result.docs(), vec![6, 5]);
    }
}

#[test]
fn dictionary_mht_mode_verifies() {
    for mechanism in Mechanism::ALL {
        let corpus = SyntheticConfig::tiny(150, 5).generate();
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let publication = owner.publish(&corpus, AuthConfig::new(mechanism));
        let engine = SearchEngine::new(publication.auth, corpus);
        let client = Client::new(publication.verifier_params);
        let terms =
            authsearch_corpus::workload::synthetic(engine.auth().index().num_terms(), 1, 4, 9)
                .remove(0);
        let query = Query::from_term_ids(engine.auth().index(), &terms);
        let response = engine.search(&query, 5);
        assert!(response.vo.dict.is_some());
        let pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
        client
            .verify_terms(&pairs, 5, &response)
            .unwrap_or_else(|e| panic!("{} dict mode: {e}", mechanism.name()));
    }
}

#[test]
fn buddy_ablation_both_settings_verify() {
    for mechanism in [Mechanism::TraCmht, Mechanism::TnraCmht] {
        for buddy in [false, true] {
            let corpus = SyntheticConfig::tiny(150, 8).generate();
            let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
            let config = AuthConfig {
                buddy,
                ..AuthConfig::new(mechanism)
            };
            let publication = owner.publish(&corpus, config);
            let engine = SearchEngine::new(publication.auth, corpus);
            let client = Client::new(publication.verifier_params);
            let terms =
                authsearch_corpus::workload::synthetic(engine.auth().index().num_terms(), 1, 3, 13)
                    .remove(0);
            let query = Query::from_term_ids(engine.auth().index(), &terms);
            let response = engine.search(&query, 10);
            let pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            client
                .verify_terms(&pairs, 10, &response)
                .unwrap_or_else(|e| panic!("{} buddy={buddy}: {e}", mechanism.name()));
        }
    }
}

#[test]
fn result_size_sweep_verifies() {
    let (engine, params) = synthetic_setup(Mechanism::TnraCmht, 250, 21);
    let client = Client::new(params);
    let terms = authsearch_corpus::workload::synthetic(engine.auth().index().num_terms(), 1, 3, 30)
        .remove(0);
    let query = Query::from_term_ids(engine.auth().index(), &terms);
    let pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
    for r in [1usize, 5, 10, 40, 80, 10_000] {
        let response = engine.search(&query, r);
        assert!(response.result.entries.len() <= r);
        client
            .verify_terms(&pairs, r, &response)
            .unwrap_or_else(|e| panic!("r={r}: {e}"));
    }
}

#[test]
fn single_term_and_repeated_term_queries() {
    let corpus = CorpusBuilder::new()
        .min_df(1)
        .add_text("alpha beta gamma alpha")
        .add_text("alpha delta")
        .add_text("beta beta gamma")
        .build();
    let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
    for mechanism in Mechanism::ALL {
        let publication = owner.publish(&corpus, AuthConfig::new(mechanism));
        let engine = SearchEngine::new(publication.auth, corpus.clone());
        let client = Client::new(publication.verifier_params);
        // Repeated word: f_{Q,t} = 2 for 'alpha'.
        let query =
            Query::from_text(engine.corpus(), engine.auth().index(), "alpha alpha beta").unwrap();
        let response = engine.search(&query, 2);
        let alpha = corpus.term_id("alpha").unwrap();
        let qt = query.terms().iter().find(|t| t.term == alpha).unwrap();
        assert_eq!(qt.f_qt, 2);
        let pairs: Vec<(TermId, u32)> = query.terms().iter().map(|t| (t.term, t.f_qt)).collect();
        client
            .verify_terms(&pairs, 2, &response)
            .unwrap_or_else(|e| panic!("{}: {e}", mechanism.name()));
    }
}

#[test]
fn vo_reports_sane_sizes() {
    let (engine, _params) = synthetic_setup(Mechanism::TnraCmht, 200, 55);
    let terms = authsearch_corpus::workload::synthetic(engine.auth().index().num_terms(), 1, 3, 2)
        .remove(0);
    let query = Query::from_term_ids(engine.auth().index(), &terms);
    let response = engine.search(&query, 10);
    let size = response.vo.size();
    // No signature: the client holds the owner's signed manifest.
    assert_eq!(size.signature, 0);
    assert!(size.data > 0);
    assert_eq!(size.total(), size.data + size.digest + size.signature);
}

#[test]
fn space_reports_match_paper_shape() {
    // §4.1: TRA needs far more extra space than TNRA (its document
    // facts' trees).
    let corpus = SyntheticConfig::tiny(300, 77).generate();
    let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
    let contents_bytes: u64 = (0..corpus.num_docs() as u32)
        .map(|d| corpus.content_bytes(d).len() as u64)
        .sum();
    let mut extras = Vec::new();
    for mechanism in Mechanism::ALL {
        let publication = owner.publish(&corpus, AuthConfig::new(mechanism));
        let report = publication.auth.space_report(contents_bytes);
        extras.push(report.auth_extra_bytes());
    }
    let (tra_mht, tnra_mht, tnra_cmht) = (extras[0], extras[2], extras[3]);
    assert!(tra_mht > tnra_mht, "TRA {tra_mht} vs TNRA {tnra_mht}");
    assert!(tra_mht > tnra_cmht);
}

#[test]
fn baseline_full_list_scheme_vs_threshold_mechanisms() {
    // §3.2 "approach 3": certified full lists + PSCAN. Correct, but the
    // VO is the lists themselves — the threshold mechanisms must beat it
    // on VO data volume whenever long lists are only partially read.
    use authsearch_core::baseline::{verify_baseline, BaselineIndex};
    use authsearch_index::{build_index, BlockLayout, OkapiParams};

    let corpus = SyntheticConfig::tiny(400, 60).generate();
    let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
    let index = build_index(&corpus, OkapiParams::default());
    let baseline = BaselineIndex::build(index.clone(), owner.key(), BlockLayout::default());
    let publication = owner.publish(&corpus, AuthConfig::new(Mechanism::TnraCmht));
    let engine = SearchEngine::new(publication.auth, corpus);

    // A query mixing the longest list with rare terms: the threshold
    // algorithm prunes the long list, the baseline cannot.
    let dfs = index.document_frequencies();
    let longest = (0..dfs.len()).max_by_key(|&t| dfs[t]).unwrap() as u32;
    let shortest = (0..dfs.len()).min_by_key(|&t| dfs[t]).unwrap() as u32;
    let terms = vec![shortest, longest];
    let query = Query::from_term_ids(&index, &terms);

    let base_resp = baseline.query(&query, 10);
    let base_verified = verify_baseline(baseline.public_key(), &query, 10, &base_resp).unwrap();
    let auth_resp = engine.search(&query, 10);
    let client = Client::new(publication.verifier_params);
    let pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
    let auth_verified = client.verify_terms(&pairs, 10, &auth_resp).unwrap();

    // Same ranking from both schemes.
    assert_eq!(base_verified.docs(), auth_verified.result.docs());
    // The threshold mechanism ships less list data than the full lists.
    assert!(
        auth_resp.vo.size().data < base_resp.vo_size().data,
        "threshold VO data {} !< baseline {}",
        auth_resp.vo.size().data,
        base_resp.vo_size().data
    );
}

#[test]
fn vo_wire_roundtrip_end_to_end() {
    // A response survives transmission: encode → decode → verify.
    use authsearch_core::wire;
    for mechanism in Mechanism::ALL {
        let (engine, params) = synthetic_setup(mechanism, 150, 91);
        let terms =
            authsearch_corpus::workload::synthetic(engine.auth().index().num_terms(), 1, 3, 14)
                .remove(0);
        let query = Query::from_term_ids(engine.auth().index(), &terms);
        let mut response = engine.search(&query, 10);
        let bytes = wire::encode(&response.vo).expect("VO fits the wire format");
        response.vo = wire::decode(&bytes).unwrap();
        verify::verify(&params, &query, 10, &response)
            .unwrap_or_else(|e| panic!("{}: {e}", mechanism.name()));
    }
}
