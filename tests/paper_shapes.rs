//! The paper's qualitative shapes, pinned at one small recorded scale.
//!
//! Figures 13–15 and Table 2 are curves over the WSJ collection; what
//! survives a change of scale are their orderings. This suite pins nine
//! of them on one synthetic corpus (`SyntheticConfig::tiny(2000, 2008)`,
//! 512-bit test keys) and one seeded query set, so a change that bends a
//! curve shows up as a failing ordering rather than silently:
//!
//! * (a) threshold algorithms stop short of the end of long lists;
//! * (b) TNRA VOs prove no document; TRA VOs prove every encountered
//!   document;
//! * (c) chain-MHT VOs carry fewer digest bytes than plain-MHT VOs over
//!   lists spanning several chain blocks;
//! * (d) VO size grows with `r`;
//! * (e) VO size grows with query length;
//! * (f) TRA VOs are larger than TNRA VOs under the same tree type
//!   (§4.2);
//! * (g) Table 2's split of VO bytes into data, digests and signatures
//!   stays inside a recorded band per mechanism;
//! * (h) buddy inclusion lowers TRA-CMHT's digest bytes and total VO
//!   bytes (§3.3.2);
//! * (i) score-prioritised TNRA polling reads fewer entries than
//!   Fagin's equal depth (§3);
//! * (j) one doc-order proof per query term carries fewer digests than
//!   the paper's document-MHTs would for the same documents (§3.3.1's
//!   bounding pairs, one tree per document in term-id order).

use authsearch_core::access::{IndexLists, ListAccess};
use authsearch_core::{tnra, AuthConfig, DataOwner, Mechanism, Query, SearchEngine, VoSize};
use authsearch_corpus::{workload, DocId, SyntheticConfig, TermId};
use authsearch_crypto::keys::TEST_KEY_BITS;
use authsearch_crypto::merkle;
use std::collections::HashSet;
use std::sync::OnceLock;

/// Corpus size and seed of the recorded scale.
const NUM_DOCS: usize = 2000;
const SEED: u64 = 2008;
/// Queries in the set, and terms per query ((e) draws longer ones).
const QUERIES: usize = 12;
const TERMS_PER_QUERY: usize = 3;
/// (e) compares the first [`SHORT_QUERY`] terms of each query against
/// all [`LONG_QUERY`].
const SHORT_QUERY: usize = 2;
const LONG_QUERY: usize = 5;
/// Result size for (a)–(c), (e) and (f).
const R: usize = 10;
/// (c) compares terms whose lists span at least this many chain blocks.
const MIN_BLOCKS: usize = 4;

/// One engine per mechanism over the same corpus.
fn engines() -> &'static Vec<SearchEngine> {
    static ENGINES: OnceLock<Vec<SearchEngine>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let corpus = SyntheticConfig::tiny(NUM_DOCS, SEED).generate();
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        Mechanism::ALL
            .iter()
            .map(|&mechanism| {
                let config = AuthConfig::new(mechanism);
                SearchEngine::new(owner.publish(&corpus, config).auth, corpus.clone())
            })
            .collect()
    })
}

fn engine(mechanism: Mechanism) -> &'static SearchEngine {
    let at = Mechanism::ALL.iter().position(|&m| m == mechanism).unwrap();
    &engines()[at]
}

/// Multi-term queries over long lists: terms drawn (seeded) from those
/// whose lists span at least [`MIN_BLOCKS`] TNRA chain blocks.
fn long_list_queries() -> Vec<Vec<TermId>> {
    long_list_queries_of(TERMS_PER_QUERY)
}

/// [`long_list_queries`] with `terms_per_query` terms each.
fn long_list_queries_of(terms_per_query: usize) -> Vec<Vec<TermId>> {
    let auth = engine(Mechanism::TnraCmht).auth();
    let capacity = auth.config().chain_capacity();
    let long: Vec<TermId> = (0..auth.index().num_terms() as TermId)
        .filter(|&t| auth.index().list(t).len() > (MIN_BLOCKS - 1) * capacity)
        .collect();
    assert!(
        long.len() >= 2 * terms_per_query,
        "scale too small: {} long lists",
        long.len()
    );
    workload::synthetic(long.len(), QUERIES, terms_per_query, SEED)
        .into_iter()
        .map(|picks| {
            let mut terms: Vec<TermId> = picks.into_iter().map(|i| long[i as usize]).collect();
            terms.sort_unstable();
            terms
        })
        .collect()
}

fn search(mechanism: Mechanism, terms: &[TermId], r: usize) -> authsearch_core::QueryResponse {
    let engine = engine(mechanism);
    engine.search(&Query::from_term_ids(engine.auth().index(), terms), r)
}

/// Σ VO bytes of `queries` under `mechanism` at result size `r`.
fn total_vo_bytes(mechanism: Mechanism, queries: &[Vec<TermId>], r: usize) -> usize {
    queries
        .iter()
        .map(|terms| search(mechanism, terms, r).vo.size().total())
        .sum()
}

#[test]
fn threshold_algorithms_stop_short_of_long_lists() {
    for mechanism in [Mechanism::TraMht, Mechanism::TnraMht] {
        let index = engine(mechanism).auth().index();
        let (mut read, mut total) = (0usize, 0usize);
        for terms in long_list_queries() {
            let response = search(mechanism, &terms, R);
            read += response.entries_read.iter().sum::<usize>();
            total += terms.iter().map(|&t| index.list(t).len()).sum::<usize>();
        }
        // Recorded: TRA-MHT 3,670 and TNRA-MHT 19,112 of 30,682.
        assert!(
            read < total,
            "{}: read {read} of Σ f_t = {total}",
            mechanism.name()
        );
    }
}

#[test]
fn only_tra_vos_carry_document_proofs() {
    for terms in long_list_queries() {
        for mechanism in [Mechanism::TnraMht, Mechanism::TnraCmht] {
            let vo = search(mechanism, &terms, R).vo;
            assert!(vo.docs.is_empty(), "{} {terms:?}", mechanism.name());
        }
        for mechanism in [Mechanism::TraMht, Mechanism::TraCmht] {
            let index = engine(mechanism).auth().index();
            let response = search(mechanism, &terms, R);
            // Encountered documents: every document in a fetched prefix.
            let encountered: HashSet<DocId> = terms
                .iter()
                .zip(&response.entries_read)
                .flat_map(|(&t, &n)| index.list(t).entries()[..n].iter().map(|e| e.doc))
                .collect();
            let proved: Vec<DocId> = response.vo.docs.clone();
            assert_eq!(proved.len(), encountered.len(), "{}", mechanism.name());
            assert_eq!(
                proved.into_iter().collect::<HashSet<_>>(),
                encountered,
                "{} {terms:?}",
                mechanism.name()
            );
        }
    }
}

#[test]
fn chain_mht_vos_carry_fewer_digest_bytes_than_plain_mht() {
    let digest_bytes = |mechanism: Mechanism| -> usize {
        long_list_queries()
            .iter()
            .map(|terms| {
                let vo = search(mechanism, terms, R).vo;
                // Both carry the same dictionary proof; the term proofs
                // make the difference.
                assert!(vo.docs.is_empty());
                vo.size().digest
            })
            .sum()
    };
    let (cmht, mht) = (
        digest_bytes(Mechanism::TnraCmht),
        digest_bytes(Mechanism::TnraMht),
    );
    // Recorded: 5,104 B vs 5,856 B, of which 4,352 B are dictionary
    // proofs in both.
    assert!(cmht < mht, "TNRA-CMHT {cmht} B vs TNRA-MHT {mht} B");
}

#[test]
fn vo_bytes_grow_with_r() {
    for mechanism in Mechanism::ALL {
        let vo_bytes = |r: usize| total_vo_bytes(mechanism, &long_list_queries(), r);
        // Recorded: r = 1 → 50 grows TRA-MHT 286 → 1,162 KB and
        // TNRA-MHT 68 → 182 KB.
        let (one, fifty) = (vo_bytes(1), vo_bytes(50));
        assert!(
            fifty > one,
            "{}: r=50 {fifty} B vs r=1 {one} B",
            mechanism.name()
        );
    }
}

#[test]
fn vo_bytes_grow_with_query_length() {
    let long = long_list_queries_of(LONG_QUERY);
    let short: Vec<Vec<TermId>> = long.iter().map(|q| q[..SHORT_QUERY].to_vec()).collect();
    for mechanism in Mechanism::ALL {
        let (two, five) = (
            total_vo_bytes(mechanism, &short, R),
            total_vo_bytes(mechanism, &long, R),
        );
        // Recorded: 2 → 5 terms grows TRA-MHT 171 → 2,055 KB, TRA-CMHT
        // 155 → 1,746 KB, TNRA-MHT 95 → 186 KB and TNRA-CMHT
        // 95 → 185 KB.
        assert!(
            five > two,
            "{}: {LONG_QUERY} terms {five} B vs {SHORT_QUERY} terms {two} B",
            mechanism.name()
        );
    }
}

#[test]
fn tra_vos_are_larger_than_tnra_vos() {
    let queries = long_list_queries();
    for (tra, tnra) in [
        (Mechanism::TraMht, Mechanism::TnraMht),
        (Mechanism::TraCmht, Mechanism::TnraCmht),
    ] {
        let (tra_bytes, tnra_bytes) = (
            total_vo_bytes(tra, &queries, R),
            total_vo_bytes(tnra, &queries, R),
        );
        // Recorded: TRA-MHT 691 KB vs TNRA-MHT 120 KB, TRA-CMHT 604 KB
        // vs TNRA-CMHT 120 KB.
        assert!(
            tra_bytes > tnra_bytes,
            "{} {tra_bytes} B vs {} {tnra_bytes} B",
            tra.name(),
            tnra.name()
        );
    }
}

/// Σ VO byte breakdown of `queries` under `mechanism` at result size `r`.
fn total_vo_size(mechanism: Mechanism, queries: &[Vec<TermId>], r: usize) -> VoSize {
    queries
        .iter()
        .map(|terms| search(mechanism, terms, r).vo.size())
        .fold(VoSize::default(), |a, b| a + b)
}

/// A closed percentage band `[lo, hi]`.
type Band = (f64, f64);

#[test]
fn table2_vo_split_stays_in_band() {
    // (mechanism, data, digest, signature): each component's share of
    // the total VO bytes. Recorded with no signature, document-table
    // proof or content digest in a reply (the client holds them), one
    // doc-order proof per query term and every field charged at its
    // varint width:
    // TRA-MHT 39.6 / 60.4 / 0 %, TRA-CMHT 40.5 / 59.5 / 0 %,
    // TNRA-MHT 95.1 / 4.9 / 0 %, TNRA-CMHT 95.7 / 4.3 / 0 %.
    let bands: [(Mechanism, Band, Band, Band); 4] = [
        (Mechanism::TraMht, (35.0, 45.0), (55.0, 65.0), (0.0, 0.0)),
        (Mechanism::TraCmht, (35.5, 45.5), (54.5, 64.5), (0.0, 0.0)),
        (Mechanism::TnraMht, (94.0, 99.0), (0.5, 5.0), (0.0, 0.0)),
        (Mechanism::TnraCmht, (94.0, 99.0), (0.2, 4.5), (0.0, 0.0)),
    ];
    let queries = long_list_queries();
    for (mechanism, data, digest, signature) in bands {
        let size = total_vo_size(mechanism, &queries, R);
        let share = |bytes: usize| 100.0 * bytes as f64 / size.total() as f64;
        for (what, got, (lo, hi)) in [
            ("data", share(size.data), data),
            ("digest", share(size.digest), digest),
            ("signature", share(size.signature), signature),
        ] {
            assert!(
                (lo..=hi).contains(&got),
                "{}: {what} is {got:.2} % of {} VO bytes, outside [{lo}, {hi}]",
                mechanism.name(),
                size.total()
            );
        }
    }
}

#[test]
fn buddy_inclusion_lowers_tra_cmht_digest_and_vo_bytes() {
    let paper = engine(Mechanism::TraCmht);
    let config = AuthConfig {
        buddy: false,
        ..*paper.auth().config()
    };
    let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
    let corpus = paper.corpus().clone();
    let no_buddy = SearchEngine::new(owner.publish(&corpus, config).auth, corpus);
    let queries = workload::synthetic(paper.auth().index().num_terms(), 20, TERMS_PER_QUERY, SEED);
    let size = |engine: &SearchEngine| -> VoSize {
        queries
            .iter()
            .map(|terms| {
                let query = Query::from_term_ids(engine.auth().index(), terms);
                engine.search(&query, R).vo.size()
            })
            .fold(VoSize::default(), |a, b| a + b)
    };
    let (on, off) = (size(paper), size(&no_buddy));
    // Recorded: digest 238,432 → 165,008 B and total 283,286 →
    // 254,799 B with buddy inclusion on.
    assert!(
        on.digest < off.digest,
        "digest: on {} B vs off {} B",
        on.digest,
        off.digest
    );
    assert!(
        on.total() < off.total(),
        "total: on {} B vs off {} B",
        on.total(),
        off.total()
    );
}

#[test]
fn prioritised_polling_reads_fewer_entries_than_equal_depth() {
    let index = engine(Mechanism::TnraMht).auth().index();
    let (mut prioritised, mut equal_depth) = (0usize, 0usize);
    for terms in workload::trec_like(index.document_frequencies(), 10, 0.35, SEED) {
        let query = Query::from_term_ids(index, &terms);
        let lists = IndexLists::new(index, &query);
        let out = tnra::run(&lists, &query, R).unwrap();
        prioritised += out.prefix_lens.iter().sum::<usize>();
        // Equal depth: every list read to the depth of the deepest one,
        // what Fagin's round-robin NRA fetches.
        let deepest = out.prefix_lens.iter().copied().max().unwrap_or(0);
        equal_depth += (0..query.terms().len())
            .map(|i| deepest.min(lists.list_len(i)))
            .sum::<usize>();
    }
    // Recorded: 10,160 entries prioritised vs 14,596 at equal depth.
    assert!(
        prioritised < equal_depth,
        "prioritised {prioritised} entries vs equal depth {equal_depth}"
    );
}

/// Digests in the proof of document `leaves` (its term ids, ascending)
/// for `query`, had its MHT stayed in term-id order: each present query
/// term's leaf, and the consecutive pair bounding each absent one.
fn term_id_order_digests(leaves: &[TermId], query: &[TermId]) -> usize {
    let mut positions = Vec::new();
    for t in query {
        match leaves.binary_search(t) {
            Ok(p) => positions.push(p),
            Err(p) => {
                positions.extend(p.checked_sub(1));
                positions.extend((p < leaves.len()).then_some(p));
            }
        }
    }
    positions.sort_unstable();
    positions.dedup();
    merkle::proof_len(leaves.len(), &positions)
}

#[test]
fn term_major_proofs_carry_fewer_digests_than_document_mhts() {
    let engine = engine(Mechanism::TraMht);
    let index = engine.auth().index();
    // The paper's document-MHT leaves: each document's term ids.
    let mut rows: Vec<Vec<TermId>> = vec![Vec::new(); index.num_docs()];
    for t in 0..index.num_terms() as TermId {
        for e in index.list(t).entries() {
            rows[e.doc as usize].push(t);
        }
    }
    let (mut shipped, mut paper) = (0usize, 0usize);
    for terms in workload::trec_like(index.document_frequencies(), QUERIES, 0.35, SEED) {
        let response = engine.search(&Query::from_term_ids(index, &terms), R);
        shipped += (response.vo.facts.iter())
            .map(|f| f.proof.digests.len())
            .sum::<usize>();
        for &d in &response.vo.docs {
            paper += term_id_order_digests(&rows[d as usize], &terms);
        }
    }
    // Recorded: 5,705 doc-order digests vs 45,390 in the paper's
    // document-MHTs (0.126).
    let ratio = shipped as f64 / paper as f64;
    assert!(
        shipped < paper && ratio <= 0.15,
        "{shipped} doc-order digests vs {paper} in document-MHTs ({ratio:.3})"
    );
}
