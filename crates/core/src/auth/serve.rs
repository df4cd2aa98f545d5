//! Server-side query processing with VO construction (§3.3, §3.4).
//!
//! The (untrusted, but here honest) search engine runs the threshold
//! algorithm, then assembles the verification object: per query term the
//! processed list prefix with complementary digests, one dictionary-MHT
//! multi-proof over the query terms, and for the TRA mechanisms the
//! encountered documents and, per query term, one multi-proof in the
//! term's doc-order tree of every fact the replay reads about them. Every
//! root these proofs reach is bound in the dictionary-MHT, whose root is
//! in the owner's publication the client holds (`crate::publication`),
//! so the VO carries no signature, no document-table proof and no
//! content digest. The whole reply is built on the calling thread.
//!
//! Disk traffic is accounted per the paper's storage layout: plain-MHT
//! variants re-read entire lists to regenerate internal digests,
//! chain-MHT variants stop at the cut-off block, and each encountered
//! document costs the random fetch of its document-MHT, as the paper's
//! TRA proves a document's facts (§3.3.1), whatever the proofs here
//! read.

use super::cache::TermStructure;
use super::{fact_leaf_digest, term_leaf, AuthenticatedIndex, ContentProvider};
use crate::access::{IndexLists, TableFreqs};
use crate::buddy::{buddy_group_size, expand_prefix};
use crate::types::{ProcessingOutcome, Query, QueryError, QueryMode, QueryResult};
use crate::vo::{DictVo, FactLeaf, PrefixData, TermFacts, TermProof, TermVo, VerificationObject};
use crate::{tnra, tra};
use authsearch_corpus::{DocId, TermId};
use authsearch_crypto::merkle::prove_from_interior;
use authsearch_crypto::DIGEST_LEN;
use authsearch_index::{ImpactEntry, InvertedList, IoStats};
use std::convert::Infallible;

/// What the search engine returns to the user: the ranked result, the
/// verification object, the contents of the result documents (their
/// digests are checked against the ones the client holds), and the
/// simulated disk trace of serving the query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The ranked top-r result.
    pub result: QueryResult,
    /// The integrity proof.
    pub vo: VerificationObject,
    /// Contents of the result documents, in result order.
    pub contents: Vec<(DocId, Vec<u8>)>,
    /// Disk-access trace at the engine.
    pub io: IoStats,
    /// Entries fetched per query-term list (pre-buddy-padding) — the
    /// paper's "# entries read" metric.
    pub entries_read: Vec<usize>,
}

/// What a TRA reply reveals: per query term the prefix length to show
/// (before buddy rounding), and the documents to prove, in proof order.
type Reveal = (Vec<usize>, Vec<DocId>);

impl AuthenticatedIndex {
    /// The facts about `query` that depend on this index: every id is
    /// inside the dictionary, and a disjunctive TNRA query has at most
    /// [`tnra::MAX_QUERY_TERMS`] terms. [`Query::new`] has checked the
    /// rest.
    pub fn check(&self, query: &Query) -> Result<(), QueryError> {
        let m = self.index.num_terms();
        if let Some(qt) = query.terms().iter().find(|qt| qt.term as usize >= m) {
            return Err(QueryError::OutOfDictionary { term: qt.term, m });
        }
        let q = query.terms().len();
        if query.mode() == QueryMode::Disjunctive
            && !self.config.mechanism.is_tra()
            && q > tnra::MAX_QUERY_TERMS
        {
            return Err(QueryError::TooManyTerms {
                q,
                max: tnra::MAX_QUERY_TERMS,
            });
        }
        Ok(())
    }

    /// Process a query under its [`QueryMode`] and produce the result
    /// with its integrity proof: the threshold algorithm's top `r` for a
    /// disjunctive query, the ranked intersection for a conjunctive one
    /// (its proof strategy is on `conjunctive_outcome`). A query
    /// [`Self::check`] refuses is its [`QueryError`].
    ///
    /// Responses are bit-identical across thread counts and
    /// snapshot-booted vs. cold-built engines, in either mode.
    pub fn query<C: ContentProvider>(
        &self,
        query: &Query,
        r: usize,
        contents: &C,
    ) -> Result<QueryResponse, QueryError> {
        self.check(query)?;
        let outcome = match query.mode() {
            QueryMode::Disjunctive => {
                let lists = IndexLists::new(&self.index, query);
                let scanned = if self.config.mechanism.is_tra() {
                    let freqs = TableFreqs::new(self.doc_table(), query);
                    tra::run(&lists, &freqs, query, r)
                } else {
                    tnra::run(&lists, query, r)
                };
                // `check` bounds a TNRA query's terms, the one refusal a
                // scan over the owner's index makes.
                scanned.expect("a checked query scans the owner's index")
            }
            QueryMode::Conjunctive => self.conjunctive_outcome(query, r),
        };
        Ok(self.respond(query, outcome, contents))
    }

    /// Run the conjunctive intersection and decide which prefixes the VO
    /// must reveal.
    ///
    /// The proof strategy reuses the owner's existing signed structures
    /// — no new signatures, no VO format change:
    ///
    /// * **TRA**: scan the *anchor* list (the shortest one,
    ///   `crate::conjunctive::anchor_index`) until the threshold stop of
    ///   `crate::conjunctive::rank_intersection` holds. The VO then
    ///   reveals the anchor prefix up to and including the front the stop
    ///   was decided on, and every other list's head, and proves exactly
    ///   those documents: the doc-order proofs certify the weights the
    ///   client's replay of the scan and its stop need, and prove the
    ///   *absence* of a query term by adjacent bracketing leaves, so
    ///   dropping a member is detectable, not just asserted. A scan that
    ///   reads the whole anchor — or whose early reveal buddy rounding
    ///   would complete — reveals the anchor in full and gives every
    ///   other term a zero-length prefix, whose proof still reconstructs
    ///   the signed root (the proof degenerates to the root digest
    ///   itself).
    /// * **TNRA**: reveal every query term's list in full; absence is
    ///   then provable by exhaustion against the signed roots.
    fn conjunctive_outcome(&self, query: &Query, r: usize) -> ProcessingOutcome {
        let terms = query.terms();
        let lists: Vec<&InvertedList> = terms.iter().map(|qt| self.index.list(qt.term)).collect();
        let fts: Vec<usize> = lists.iter().map(|l| l.len()).collect();
        let anchor = crate::conjunctive::anchor_index(&fts);
        let wq: Vec<f64> = terms.iter().map(|qt| qt.wq).collect();
        let tra = self.config.mechanism.is_tra();
        let heads: Option<Vec<f32>> = tra.then(|| {
            lists
                .iter()
                .map(|l| l.entries().first().map_or(0.0, |e| e.weight))
                .collect()
        });
        let Ok(scan) = crate::conjunctive::rank_intersection(
            anchor,
            lists[anchor].entries().iter().map(|e| e.doc),
            &wq,
            heads.as_deref(),
            |d, i| Ok::<_, Infallible>(self.doc_table().weight(d, terms[i].term)),
            r,
        );

        let (prefix_lens, encountered) = if !tra {
            // Every list revealed in full: absence by exhaustion.
            (fts, Vec::new())
        } else if scan.stopped
            && self.revealed_len(terms[anchor].term, scan.popped + 1) < fts[anchor]
        {
            self.early_reveal(query, anchor, scan.popped)
        } else {
            // The scan read the whole anchor, or buddy rounding would
            // complete the early reveal's prefix.
            self.full_reveal(query, anchor)
        };
        ProcessingOutcome {
            result: scan.result,
            prefix_lens,
            encountered,
            iterations: scan.popped,
        }
    }

    /// The full-anchor TRA reveal: the whole anchor, and zero-length
    /// prefixes elsewhere.
    fn full_reveal(&self, query: &Query, anchor: usize) -> Reveal {
        let list = self.index.list(query.terms()[anchor].term);
        let mut lens = vec![0; query.terms().len()];
        lens[anchor] = list.len();
        (lens, list.entries().iter().map(|e| e.doc).collect())
    }

    /// The TRA reveal of a scan that stopped after `popped` anchor
    /// entries: the anchor prefix up to and including the front, and
    /// every other list's head.
    fn early_reveal(&self, query: &Query, anchor: usize, popped: usize) -> Reveal {
        let terms = query.terms();
        let mut lens = vec![1; terms.len()];
        lens[anchor] = popped + 1;
        let anchor_list = self.index.list(terms[anchor].term).entries();
        let docs = crate::conjunctive::early_proofs(
            anchor_list[..=popped].iter().map(|e| e.doc),
            terms
                .iter()
                .map(|qt| self.index.list(qt.term).entries()[0].doc),
        );
        (lens, docs)
    }

    /// Assemble the response for an already-computed processing outcome.
    pub(crate) fn respond<C: ContentProvider>(
        &self,
        query: &Query,
        outcome: ProcessingOutcome,
        contents: &C,
    ) -> QueryResponse {
        let mechanism = self.config.mechanism;
        let mut io = IoStats::new();
        let mut terms = Vec::with_capacity(query.terms().len());

        for (i, qt) in query.terms().iter().enumerate() {
            let k = outcome.prefix_lens[i];
            terms.push(self.build_term_vo(qt.term, k, &mut io));
        }

        // TRA: the encountered documents, and per query term one proof
        // of every fact about them.
        let (docs, facts) = if mechanism.is_tra() {
            let docs = outcome.encountered;
            let mut sorted = docs.clone();
            sorted.sort_unstable();
            let facts = (query.terms().iter())
                .map(|qt| self.term_facts(qt.term, &sorted))
                .collect();
            // The paper's random fetch of each document's document-MHT:
            // its `(t, w)` leaves and the stored root.
            for &d in &docs {
                let mht_bytes = self.doc_table().doc_terms(d) * 8 + 16;
                io.random_access(self.config.layout.blocks_for_bytes(mht_bytes) as u64);
            }
            (docs, facts)
        } else {
            (Vec::new(), Vec::new())
        };
        self.cache.count_proofs(terms.len(), docs.len());

        let terms_asked: Vec<TermId> = query.terms().iter().map(|qt| qt.term).collect();

        // Result document contents (retrieval cost excluded from the I/O
        // metric, as in §4.1: constant across all algorithms).
        let contents_out: Vec<(DocId, Vec<u8>)> = (outcome.result.docs())
            .into_iter()
            .map(|d| (d, contents.content(d)))
            .collect();

        QueryResponse {
            result: outcome.result,
            vo: VerificationObject {
                mechanism,
                terms,
                docs,
                facts,
                dict: Some(self.dict_vo(&terms_asked)),
            },
            contents: contents_out,
            io,
            entries_read: outcome.prefix_lens,
        }
    }

    /// The dictionary-MHT multi-proof for `terms`: one `prove` over the
    /// resident tree at their term ids.
    pub(crate) fn dict_vo(&self, terms: &[TermId]) -> DictVo {
        let mut positions: Vec<usize> = terms.iter().map(|&t| t as usize).collect();
        positions.sort_unstable();
        DictVo {
            num_terms: u32::try_from(self.index.num_terms()).expect("term ids are u32"),
            proof: self.cache.dict_tree.prove(&positions),
        }
    }

    /// How many entries of `term`'s list a VO that must reveal `k` of
    /// them shows: `k` rounded up to whole buddy groups, which under a
    /// chain-MHT align to the tail block.
    fn revealed_len(&self, term: TermId, k: usize) -> usize {
        let config = &self.config;
        let li = self.index.list(term).len();
        if k == 0 || !config.buddy {
            return k;
        }
        let group = buddy_group_size(config.term_leaf_bytes(), DIGEST_LEN);
        match &self.cache.terms[term as usize] {
            TermStructure::Cmht(_) => {
                let cap = config.chain_capacity();
                let lo = (k - 1) / cap * cap;
                lo + expand_prefix(k - lo, cap.min(li - lo), group)
            }
            TermStructure::Mht(_) => expand_prefix(k, li, group),
        }
    }

    /// Build one term's VO entry, revealing at least `k` entries, and
    /// account its disk traffic.
    fn build_term_vo(&self, term: TermId, k: usize, io: &mut IoStats) -> TermVo {
        let config = &self.config;
        let list = self.index.list(term);
        let li = list.len();
        let kr = self.revealed_len(term, k);

        // Proofs come from the resident structure; the I/O accounting
        // below models the paper's on-disk layout.
        match &self.cache.terms[term as usize] {
            TermStructure::Cmht(chain) => {
                let proof = TermProof::Cmht(chain.prove_prefix(kr));
                // Chain-MHT: only the blocks holding the prefix are read.
                io.sequential_run(chain.blocks_touched(kr) as u64);
                TermVo {
                    term,
                    ft: li as u32,
                    prefix: self.prefix_data(list, kr),
                    proof,
                    signature: None,
                }
            }
            TermStructure::Mht(interior) => {
                let revealed: Vec<usize> = (0..kr).collect();
                // A revealed prefix leaves at most one unrevealed sibling
                // leaf to rehash.
                let leaf = |i: usize| term_leaf(config.mechanism, &list.entries()[i]);
                let proof = TermProof::Mht(prove_from_interior(li, interior, &revealed, leaf));
                // Plain MHT: the whole list must be read to regenerate the
                // complementary digests (the §3.3.1 inefficiency).
                let stored_blocks = config
                    .layout
                    .blocks_for(li, config.layout.plain_capacity(ImpactEntry::BYTES));
                io.sequential_run(stored_blocks as u64);
                TermVo {
                    term,
                    ft: li as u32,
                    prefix: self.prefix_data(list, kr),
                    proof,
                    signature: None,
                }
            }
        }
    }

    fn prefix_data(&self, list: &authsearch_index::InvertedList, kr: usize) -> PrefixData {
        if self.config.mechanism.is_tra() {
            PrefixData::DocIds(list.entries()[..kr].iter().map(|e| e.doc).collect())
        } else {
            PrefixData::Entries(list.entries()[..kr].to_vec())
        }
    }

    /// The positions of term `t`'s doc-order tree a reply proving the
    /// documents `sorted` (ascending, distinct) reveals, ascending: each
    /// document's leaf where `t` occurs in it, and where not the two
    /// leaves whose doc ids bracket it, or the one end leaf past which it
    /// falls. This is the least set that settles every fact, and the only
    /// one the verifier accepts.
    fn fact_positions(&self, t: TermId, sorted: &[DocId]) -> Vec<usize> {
        let list = self.doc_table().list(t);
        let mut positions: Vec<usize> = Vec::with_capacity(2 * sorted.len());
        // Positions come out ascending but for brackets shared by
        // consecutive documents, which are kept once.
        let mut reveal = |p: usize| {
            if positions.last().is_none_or(|&last| last < p) {
                positions.push(p);
            }
        };
        // Each search starts where the last one landed.
        let mut lo = 0;
        for &d in sorted {
            match list[lo..].binary_search_by_key(&d, |e| e.doc) {
                Ok(i) => {
                    reveal(lo + i);
                    lo += i + 1;
                }
                Err(i) => {
                    lo += i;
                    if lo > 0 {
                        reveal(lo - 1);
                    }
                    if lo < list.len() {
                        reveal(lo);
                    }
                }
            }
        }
        positions
    }

    /// Term `t`'s doc-order proof revealing the leaves at `positions`
    /// (ascending), from its resident levels: the proof rehashes only the
    /// unrevealed sibling leaves it needs.
    pub(crate) fn facts_at(&self, t: TermId, positions: &[usize]) -> TermFacts {
        let list = self.doc_table().list(t);
        let revealed = (positions.iter())
            .map(|&p| FactLeaf {
                pos: u32::try_from(p).expect("f_t is a u32"),
                doc: list[p].doc,
                weight: list[p].weight,
            })
            .collect();
        let levels = &self.cache.doc_order_levels[t as usize];
        let proof = prove_from_interior(list.len(), levels, positions, |p| {
            fact_leaf_digest(&list[p])
        });
        TermFacts { revealed, proof }
    }

    /// Term `t`'s doc-order proof of every fact about the documents
    /// `sorted` (ascending, distinct).
    fn term_facts(&self, t: TermId, sorted: &[DocId]) -> TermFacts {
        self.facts_at(t, &self.fact_positions(t, sorted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthConfig;
    use crate::toy::{toy_contents, toy_index, toy_query};
    use crate::vo::Mechanism;
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};
    use authsearch_crypto::MerkleTree;

    fn conjunctive_toy_query() -> Query {
        toy_query().with_mode(QueryMode::Conjunctive)
    }

    fn auth(mechanism: Mechanism) -> AuthenticatedIndex {
        let key = cached_keypair(TEST_KEY_BITS);
        let config = AuthConfig::new(mechanism);
        AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents())
    }

    #[test]
    fn tra_response_has_doc_proofs() {
        let a = auth(Mechanism::TraMht);
        let resp = a.query(&toy_query(), 2, &toy_contents()).unwrap();
        assert_eq!(resp.result.docs(), vec![6, 5]);
        assert_eq!(resp.vo.terms.len(), 4);
        // Encountered docs 5, 3, 6 plus cut-off doc 1, and one doc-order
        // proof per query term.
        assert_eq!(resp.vo.docs, vec![5, 3, 6, 1]);
        assert_eq!(resp.vo.facts.len(), 4);
        // Result docs ship contents; their digests are in the
        // publication the client holds.
        assert_eq!(resp.contents.len(), 2);
    }

    #[test]
    fn tnra_response_has_no_doc_proofs() {
        let a = auth(Mechanism::TnraCmht);
        let resp = a.query(&toy_query(), 2, &toy_contents()).unwrap();
        assert_eq!(resp.result.docs(), vec![6, 5]);
        assert!(resp.vo.docs.is_empty() && resp.vo.facts.is_empty());
        // Prefixes carry full impact entries.
        assert!(matches!(resp.vo.terms[0].prefix, PrefixData::Entries(_)));
    }

    #[test]
    fn entries_read_match_figure6_and_11() {
        // TRA (Figure 6): sleeps 1, in 1, the 4, dark 1.
        let a = auth(Mechanism::TraMht);
        let resp = a.query(&toy_query(), 2, &toy_contents()).unwrap();
        assert_eq!(resp.entries_read, vec![1, 1, 4, 1]);
        // TNRA (Figure 11): sleeps 1, in 4, the 4, dark 1.
        let b = auth(Mechanism::TnraMht);
        let resp = b.query(&toy_query(), 2, &toy_contents()).unwrap();
        assert_eq!(resp.entries_read, vec![1, 4, 4, 1]);
    }

    #[test]
    fn mht_variant_reads_whole_lists() {
        let a = auth(Mechanism::TnraMht);
        let resp = a.query(&toy_query(), 2, &toy_contents()).unwrap();
        // 4 lists, each ≤ 127 entries → one block per list, 4 seeks.
        assert_eq!(resp.io.seeks, 4);
        assert_eq!(resp.io.blocks, 4);
    }

    #[test]
    fn tra_random_accesses_encountered_docs() {
        let a = auth(Mechanism::TraCmht);
        let resp = a.query(&toy_query(), 2, &toy_contents()).unwrap();
        // 4 list runs + 4 encountered documents' document-MHT fetches,
        // the paper's TRA I/O model.
        assert_eq!(resp.io.seeks, 8);
    }

    #[test]
    fn buddy_pads_prefixes_in_cmht() {
        let a = auth(Mechanism::TnraCmht);
        let resp = a.query(&toy_query(), 2, &toy_contents()).unwrap();
        // 'the' read 4 entries; buddy group for 8-byte leaves is 4 → no
        // padding; 'in' read 4 → no padding; singleton lists read 1 and
        // pad to min(group, len) = 1.
        for tv in &resp.vo.terms {
            assert!(!tv.prefix.is_empty());
        }
        let the_vo = resp
            .vo
            .terms
            .iter()
            .find(|t| t.term == crate::toy::toy_term_id("the"))
            .unwrap();
        assert_eq!(the_vo.prefix.len(), 4);
    }

    #[test]
    fn vo_sizes_are_positive_and_tnra_smaller() {
        let tra = auth(Mechanism::TraMht)
            .query(&toy_query(), 2, &toy_contents())
            .unwrap();
        let tnra = auth(Mechanism::TnraMht)
            .query(&toy_query(), 2, &toy_contents())
            .unwrap();
        let ts = tra.vo.size();
        let ns = tnra.vo.size();
        assert!(ts.total() > 0 && ns.total() > 0);
        // §4.2: TRA VOs are several times larger than TNRA's.
        assert!(ts.total() > ns.total());
    }

    /// Re-derive every proof of `vo` from a fresh fold of the stored
    /// leaves and check it equals the served one.
    fn assert_proofs_match_fresh_trees(
        auth: &AuthenticatedIndex,
        query: &Query,
        vo: &VerificationObject,
        what: &str,
    ) {
        use crate::auth::tests_support::dict_bound_root;
        use crate::auth::{dict_leaf_digest, term_leaves};
        let config = auth.config();
        for tv in &vo.terms {
            let list = auth.index().list(tv.term);
            let revealed = tv.prefix.len();
            let fresh = match TermStructure::build(config, list).1 {
                TermStructure::Cmht(chain) => TermProof::Cmht(chain.prove_prefix(revealed)),
                TermStructure::Mht(_) => {
                    let tree = MerkleTree::from_leaf_digests(term_leaves(config.mechanism, list));
                    TermProof::Mht(tree.prove(&(0..revealed).collect::<Vec<_>>()))
                }
            };
            assert_eq!(tv.proof, fresh, "{what}: term {}", tv.term);
        }
        for (tv, facts) in vo.terms.iter().zip(&vo.facts) {
            let (sorted, ..) = crate::auth::doc_order_tree(auth.index().list(tv.term));
            let leaves = sorted.iter().map(fact_leaf_digest).collect();
            let positions: Vec<usize> = facts.revealed.iter().map(|l| l.pos as usize).collect();
            let fresh = MerkleTree::from_leaf_digests(leaves).prove(&positions);
            assert_eq!(facts.proof, fresh, "{what}: term {} facts", tv.term);
        }
        let dict = vo
            .dict
            .as_ref()
            .expect("every reply carries a dictionary proof");
        let m = auth.index().num_terms() as TermId;
        let leaves = (0..m)
            .map(|t| dict_leaf_digest(t, auth.index().ft(t), &dict_bound_root(auth, t)))
            .collect();
        let mut positions: Vec<usize> = query.terms().iter().map(|qt| qt.term as usize).collect();
        positions.sort_unstable();
        let fresh = MerkleTree::from_leaf_digests(leaves).prove(&positions);
        assert_eq!(dict.proof, fresh, "{what}: dictionary");
    }

    #[test]
    fn resident_proofs_match_fresh_trees() {
        // Every proof served from the structures resident since the build
        // equals the proof a fresh fold of the leaves gives: term-MHT and
        // chain-MHT prefixes, doc-order trees and the dictionary-MHT.
        for mechanism in Mechanism::ALL {
            let auth = auth(mechanism);
            for mode in [QueryMode::Disjunctive, QueryMode::Conjunctive] {
                let query = toy_query().with_mode(mode);
                for r in [1usize, 2, 5] {
                    let response = auth.query(&query, r, &toy_contents()).unwrap();
                    let what = format!("{mechanism:?} {mode:?} r={r}");
                    assert!(!response.vo.terms.is_empty(), "{what}");
                    assert_eq!(response.vo.docs.is_empty(), !mechanism.is_tra(), "{what}");
                    assert_eq!(response.vo.facts.is_empty(), !mechanism.is_tra(), "{what}");
                    assert_proofs_match_fresh_trees(&auth, &toy_query(), &response.vo, &what);
                }
            }
        }
    }

    #[test]
    fn conjunctive_toy_intersects_to_d6() {
        // Figure 1: d6 is the only document containing all four query
        // terms, so the conjunctive answer is exactly [6] and its score
        // matches the disjunctive top-1 score for d6.
        for mechanism in Mechanism::ALL {
            let a = auth(mechanism);
            let conj = a
                .query(&conjunctive_toy_query(), 2, &toy_contents())
                .unwrap();
            assert_eq!(conj.result.docs(), vec![6], "{mechanism:?}");
            let disj = a.query(&toy_query(), 2, &toy_contents()).unwrap();
            let d6 = disj.result.entries.iter().find(|e| e.doc == 6).unwrap();
            // Same formula, but the conjunctive path accumulates in
            // query-term order while the threshold algorithm accumulates
            // in pop order — identical up to f64 rounding.
            assert!(
                (conj.result.entries[0].score - d6.score).abs() < 1e-9,
                "{mechanism:?}"
            );
            assert_eq!(conj.contents.len(), 1);
            assert_eq!(conj.contents[0].0, 6);
        }
    }

    /// The reveal the engine made before the scan stopped early: the
    /// whole anchor, ranked whole, and zero-length prefixes elsewhere.
    fn full_anchor_outcome(a: &AuthenticatedIndex, query: &Query, r: usize) -> ProcessingOutcome {
        let terms = query.terms();
        let fts: Vec<usize> = terms
            .iter()
            .map(|qt| a.index().list(qt.term).len())
            .collect();
        let anchor = crate::conjunctive::anchor_index(&fts);
        let docs: Vec<DocId> = a
            .index()
            .list(terms[anchor].term)
            .entries()
            .iter()
            .map(|e| e.doc)
            .collect();
        let mut entries = Vec::new();
        for &d in &docs {
            let weights: Vec<f32> = terms
                .iter()
                .map(|qt| a.doc_table().weight(d, qt.term))
                .collect();
            if weights.iter().all(|&w| w > 0.0) {
                let score = terms
                    .iter()
                    .zip(&weights)
                    .fold(0.0f64, |s, (qt, &w)| s + qt.wq * w as f64);
                entries.push(crate::types::ResultEntry { doc: d, score });
            }
        }
        entries.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        entries.truncate(r);
        let mut prefix_lens = vec![0; terms.len()];
        prefix_lens[anchor] = fts[anchor];
        ProcessingOutcome {
            result: QueryResult { entries },
            prefix_lens,
            iterations: docs.len(),
            encountered: docs,
        }
    }

    /// Three-term conjunctive queries over a 400-document corpus, drawn
    /// the way the TREC-like workloads draw them (mostly common words).
    fn conjunctive_workload(
        mechanism: Mechanism,
    ) -> (
        crate::owner::Publication,
        authsearch_corpus::Corpus,
        Vec<Query>,
    ) {
        let corpus = authsearch_corpus::SyntheticConfig::tiny(400, 47).generate();
        let owner = crate::owner::DataOwner::with_cached_key(TEST_KEY_BITS);
        let publication = owner.publish(&corpus, AuthConfig::new(mechanism));
        let index = publication.auth.index();
        let df = index.document_frequencies();
        let queries = authsearch_corpus::workload::trec_like(df, 60, 0.9, 5)
            .into_iter()
            .filter_map(|mut terms| {
                terms.truncate(3);
                terms.sort_unstable();
                terms.dedup();
                (terms.len() > 1)
                    .then(|| Query::from_term_ids(index, &terms).with_mode(QueryMode::Conjunctive))
            })
            .collect();
        (publication, corpus, queries)
    }

    #[test]
    fn conjunctive_tra_reveals_anchor_prefix_and_heads() {
        // Exhausted scan (the toy anchor is one document long): the whole
        // anchor, zero-length prefixes elsewhere, and every anchor
        // document proved, in list order.
        let a = auth(Mechanism::TraMht);
        let query = conjunctive_toy_query();
        let resp = a.query(&query, 2, &toy_contents()).unwrap();
        let full = a.respond(&query, full_anchor_outcome(&a, &query, 2), &toy_contents());
        assert_eq!(resp, full);

        // Early stop: the anchor prefix is the popped entries plus the
        // front, every other list reveals its head, and exactly those
        // documents ship proofs (TRA-MHT reveals no buddies).
        let (publication, corpus, queries) = conjunctive_workload(Mechanism::TraMht);
        let a = &publication.auth;
        let mut early = 0;
        for query in &queries {
            let resp = a.query(query, 5, &corpus).unwrap();
            let lists: Vec<&[ImpactEntry]> = query
                .terms()
                .iter()
                .map(|qt| a.index().list(qt.term).entries())
                .collect();
            let fts: Vec<usize> = lists.iter().map(|l| l.len()).collect();
            let anchor = crate::conjunctive::anchor_index(&fts);
            let front = resp.entries_read[anchor];
            if front == fts[anchor] {
                continue;
            }
            early += 1;
            for (i, tv) in resp.vo.terms.iter().enumerate() {
                let want = if i == anchor { front } else { 1 };
                assert_eq!((tv.prefix.len(), resp.entries_read[i]), (want, want));
            }
            let mut want: Vec<DocId> = lists[anchor][..front].iter().map(|e| e.doc).collect();
            for list in &lists {
                if !want.contains(&list[0].doc) {
                    want.push(list[0].doc);
                }
            }
            assert_eq!(resp.vo.docs, want);
        }
        assert!(early > 0, "no query stopped early");
    }

    #[test]
    fn early_stop_keeps_the_result_bit_for_bit() {
        // Against the full-anchor reveal of the same query: the same
        // result bit for bit, and strictly fewer proved documents on some
        // query, so the stop fires. The early reply verifies.
        for mechanism in [Mechanism::TraMht, Mechanism::TraCmht] {
            let (publication, corpus, queries) = conjunctive_workload(mechanism);
            assert!(queries.len() >= 50, "{}", queries.len());
            let a = &publication.auth;
            let mut fewer = 0;
            for query in &queries {
                for r in [1usize, 5, 10] {
                    let what = format!("{mechanism:?} r={r} {:?}", query.terms());
                    let resp = a.query(query, r, &corpus).unwrap();
                    let full = a.respond(query, full_anchor_outcome(a, query, r), &corpus);
                    let bits = |res: &QueryResult| -> Vec<(DocId, u64)> {
                        res.entries
                            .iter()
                            .map(|e| (e.doc, e.score.to_bits()))
                            .collect()
                    };
                    assert_eq!(bits(&resp.result), bits(&full.result), "{what}");
                    fewer += usize::from(resp.vo.docs.len() < full.vo.docs.len());
                    crate::verify::verify(&publication.verifier_params, query, r, &resp)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                }
            }
            assert!(fewer > 0, "{mechanism:?}: the stop never shrank a reply");
        }
    }

    #[test]
    fn conjunctive_tnra_reveals_every_list_in_full() {
        for mechanism in [Mechanism::TnraMht, Mechanism::TnraCmht] {
            let a = auth(mechanism);
            let resp = a
                .query(&conjunctive_toy_query(), 2, &toy_contents())
                .unwrap();
            assert!(resp.vo.docs.is_empty(), "{mechanism:?}");
            for (tv, qt) in resp.vo.terms.iter().zip(toy_query().terms()) {
                assert_eq!(
                    tv.prefix.len(),
                    a.index().list(qt.term).len(),
                    "{mechanism:?} term {}",
                    qt.term
                );
            }
        }
    }

    #[test]
    fn empty_conjunctive_query_is_empty_response() {
        // An empty query cannot be built, so the engine never answers
        // one, in either mode.
        for mode in [QueryMode::Conjunctive, QueryMode::Disjunctive] {
            assert_eq!(Query::new(Vec::new(), mode), Err(QueryError::Empty));
        }
    }

    #[test]
    fn dict_mode_emits_dict_proof() {
        // Every reply, under every mechanism and query mode, carries one
        // dictionary proof and no signature at all: the manifest's is in
        // the publication the client holds.
        for mechanism in Mechanism::ALL {
            let a = auth(mechanism);
            for resp in [
                a.query(&toy_query(), 2, &toy_contents()).unwrap(),
                a.query(&conjunctive_toy_query(), 2, &toy_contents())
                    .unwrap(),
            ] {
                assert!(resp.vo.dict.is_some(), "{mechanism:?}");
                assert!(resp.vo.terms.iter().all(|t| t.signature.is_none()));
                assert_eq!(resp.vo.size().signature, 0, "{mechanism:?}");
            }
        }
    }
}
