//! Property-based cross-algorithm tests: on random corpora and random
//! queries, PSCAN, TRA, and TNRA must agree with naive scoring (the
//! correctness criteria of §3.1), and every honest response must verify
//! under every mechanism.

use authsearch_core::access::{IndexLists, ListAccess, TableFreqs};
use authsearch_core::types::DocOrderedLists;
use authsearch_core::{pscan, tnra, tra, Query};
use authsearch_corpus::{SyntheticConfig, TermId};
use authsearch_index::{build_index, InvertedIndex, OkapiParams};
use proptest::prelude::*;

/// Build a deterministic corpus + index from a seed.
fn index_for(seed: u64, num_docs: usize) -> InvertedIndex {
    let corpus = SyntheticConfig::tiny(num_docs, seed).generate();
    build_index(&corpus, OkapiParams::default())
}

/// Pick `q` distinct pseudo-random terms from the dictionary.
fn pick_terms(index: &InvertedIndex, q: usize, seed: u64) -> Vec<TermId> {
    authsearch_corpus::workload::synthetic(index.num_terms(), 1, q, seed).remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn tra_equals_naive_topk(
        corpus_seed in 0u64..6,
        query_seed in 0u64..50,
        q in 1usize..5,
        r in 1usize..15,
    ) {
        let index = index_for(corpus_seed, 120);
        let table = DocOrderedLists::from_index(&index);
        let terms = pick_terms(&index, q, query_seed);
        let query = Query::from_term_ids(&index, &terms);
        let lists = IndexLists::new(&index, &query);
        let freqs = TableFreqs::new(&table, &query);

        let out = tra::run(&lists, &freqs, &query, r).unwrap();
        let naive = pscan::naive_topk(&table, &query, r);
        // TRA may retain zero-score docs that naive skips; compare the
        // positive-score heads.
        let k = naive.entries.len().min(out.result.entries.len());
        prop_assert_eq!(&out.result.docs()[..k], &naive.docs()[..k]);
        for (a, b) in out.result.entries.iter().zip(&naive.entries) {
            prop_assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    #[test]
    fn tnra_equals_tra(
        corpus_seed in 0u64..6,
        query_seed in 50u64..100,
        q in 1usize..5,
        r in 1usize..15,
    ) {
        let index = index_for(corpus_seed, 120);
        let table = DocOrderedLists::from_index(&index);
        let terms = pick_terms(&index, q, query_seed);
        let query = Query::from_term_ids(&index, &terms);
        let lists = IndexLists::new(&index, &query);
        let freqs = TableFreqs::new(&table, &query);

        let a = tra::run(&lists, &freqs, &query, r).unwrap();
        let b = tnra::run(&lists, &query, r).unwrap();
        // The rankings must agree exactly. Scores differ in nature: TRA
        // reports the exact S(d|Q) (random access resolves every term),
        // while TNRA reports SLB(d) — a certified lower bound that can
        // fall short of S(d|Q) by unresolved low-impact contributions
        // once the ordering conditions hold. SLB never exceeds the truth.
        prop_assert_eq!(a.result.docs(), b.result.docs());
        for (x, y) in a.result.entries.iter().zip(&b.result.entries) {
            prop_assert!(y.score <= x.score + 1e-9,
                "doc {}: TNRA SLB {} exceeds TRA score {}", x.doc, y.score, x.score);
        }
    }

    #[test]
    fn pscan_equals_naive(
        corpus_seed in 0u64..6,
        query_seed in 100u64..150,
        q in 1usize..5,
        r in 1usize..15,
    ) {
        let index = index_for(corpus_seed, 120);
        let table = DocOrderedLists::from_index(&index);
        let terms = pick_terms(&index, q, query_seed);
        let query = Query::from_term_ids(&index, &terms);
        let lists = IndexLists::new(&index, &query);

        let out = pscan::run(&lists, &query, r).unwrap();
        let naive = pscan::naive_topk(&table, &query, r);
        let k = naive.entries.len().min(out.result.entries.len());
        prop_assert_eq!(&out.result.docs()[..k], &naive.docs()[..k]);
    }

    #[test]
    fn threshold_algorithms_never_read_more_than_lists(
        corpus_seed in 0u64..6,
        query_seed in 150u64..200,
        q in 1usize..5,
        r in 1usize..20,
    ) {
        let index = index_for(corpus_seed, 120);
        let table = DocOrderedLists::from_index(&index);
        let terms = pick_terms(&index, q, query_seed);
        let query = Query::from_term_ids(&index, &terms);
        let lists = IndexLists::new(&index, &query);
        let freqs = TableFreqs::new(&table, &query);

        for out in [
            tra::run(&lists, &freqs, &query, r).unwrap(),
            tnra::run(&lists, &query, r).unwrap(),
        ] {
            for (i, &read) in out.prefix_lens.iter().enumerate() {
                prop_assert!(read <= lists.list_len(i));
                prop_assert!(read >= 1); // fronts are always fetched
            }
            prop_assert!(out.result.is_ordered());
            prop_assert!(out.result.entries.len() <= r);
        }
    }

    #[test]
    fn correctness_criteria_hold(
        corpus_seed in 0u64..4,
        query_seed in 200u64..230,
        q in 1usize..4,
        r in 1usize..10,
    ) {
        // The §3.1 criteria verbatim: results ordered by non-increasing
        // score, and every excluded document scores at most R.s_r.
        let index = index_for(corpus_seed, 100);
        let table = DocOrderedLists::from_index(&index);
        let terms = pick_terms(&index, q, query_seed);
        let query = Query::from_term_ids(&index, &terms);
        let lists = IndexLists::new(&index, &query);
        let freqs = TableFreqs::new(&table, &query);
        let out = tra::run(&lists, &freqs, &query, r).unwrap();
        let result = &out.result;
        prop_assert!(result.is_ordered());
        if result.entries.len() == r {
            let s_r = result.entries[r - 1].score;
            let in_result: std::collections::HashSet<u32> =
                result.docs().into_iter().collect();
            for d in 0..table.num_docs() as u32 {
                if in_result.contains(&d) {
                    continue;
                }
                let mut s = 0.0f64;
                for qt in query.terms() {
                    s += qt.wq * table.weight(d, qt.term) as f64;
                }
                prop_assert!(
                    s <= s_r + 1e-9,
                    "excluded doc {} scores {} > R.s_r = {}", d, s, s_r
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    #[test]
    fn honest_responses_always_verify(
        query_seed in 0u64..40,
        q in 1usize..4,
        r in 1usize..12,
        mech_idx in 0usize..4,
    ) {
        use authsearch_core::{verify, AuthConfig, DataOwner, Mechanism};
        use authsearch_crypto::keys::TEST_KEY_BITS;

        let mechanism = Mechanism::ALL[mech_idx];
        let corpus = SyntheticConfig::tiny(100, 1234).generate();
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let config = AuthConfig::new(mechanism);
        let publication = owner.publish(&corpus, config);
        let terms = pick_terms(publication.auth.index(), q, query_seed);
        let query = Query::from_term_ids(publication.auth.index(), &terms);
        let response = publication.auth.query(&query, r, &corpus).unwrap();
        let verified =
            verify::verify(&publication.verifier_params, &query, r, &response);
        prop_assert!(verified.is_ok(), "{}: {:?}", mechanism.name(), verified.err());
    }
}
