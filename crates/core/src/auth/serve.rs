//! Server-side query processing with VO construction (§3.3, §3.4).
//!
//! The (untrusted, but here honest) search engine runs the threshold
//! algorithm, then assembles the verification object: per query term the
//! processed list prefix with complementary digests, one dictionary-MHT
//! multi-proof over the query terms, for the TRA mechanisms one
//! document-MHT proof per encountered document and one document-table
//! multi-proof over them, and the owner's one manifest signature, which
//! covers both trees' roots. Disk traffic is accounted per the paper's
//! storage layout: plain-MHT variants re-read entire lists to regenerate
//! internal digests, chain-MHT variants stop at the cut-off block, and
//! every document-MHT fetch is a random access.

use super::cache::TermStructure;
use super::{doc_leaf_digest, term_leaf, AuthenticatedIndex, ContentProvider};
use crate::access::{IndexLists, TableFreqs};
use crate::buddy::{buddy_group_size, expand_buddies, expand_prefix};
use crate::types::{ProcessingOutcome, Query, QueryResult};
use crate::vo::{DictVo, DocTableVo, DocVo, PrefixData, TermProof, TermVo, VerificationObject};
use crate::{tnra, tra};
use authsearch_corpus::{DocId, TermId};
use authsearch_crypto::merkle::prove_from_interior;
use authsearch_crypto::{Digest, MerkleProof};
use authsearch_index::{ImpactEntry, IoStats};

/// What the search engine returns to the user: the ranked result, the
/// verification object, the contents of the result documents (their
/// digests are checked against the signed document-MHT roots), and the
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

impl QueryResponse {
    /// `(doc, h(content))` for every delivered result document, in
    /// result order — what the digest-mode wire reply
    /// ([`crate::wire::Reply::OkDigest`]) ships in place of the
    /// contents themselves.
    pub fn content_digests(&self) -> Vec<(DocId, Digest)> {
        self.contents
            .iter()
            .map(|(d, bytes)| (*d, Digest::hash(bytes)))
            .collect()
    }
}

impl AuthenticatedIndex {
    /// Process a query and produce the result with its integrity proof.
    pub fn query<C: ContentProvider>(
        &self,
        query: &Query,
        r: usize,
        contents: &C,
    ) -> QueryResponse {
        let lists = IndexLists::new(&self.index, query);
        let outcome = if self.config.mechanism.is_tra() {
            let freqs = TableFreqs::new(&self.doc_table, query);
            tra::run(&lists, &freqs, query, r).expect("engine-side access is total")
        } else {
            tnra::run(&lists, query, r).expect("engine-side access is total")
        };
        self.respond(query, outcome, contents)
    }

    /// Process a query under AND-semantics
    /// ([`QueryMode::Conjunctive`](crate::types::QueryMode)) and produce
    /// the intersection with its integrity proof.
    ///
    /// The proof strategy reuses the owner's existing signed structures
    /// — no new signatures, no VO format change:
    ///
    /// * **TRA**: reveal the *anchor* list (the shortest one,
    ///   `crate::conjunctive::anchor_index`) in full; every other term
    ///   gets a zero-length prefix whose proof still reconstructs the
    ///   signed root (the proof degenerates to the root digest itself).
    ///   Every anchor document ships its document-MHT proof, whose
    ///   adjacent-leaf bounding pairs prove *absence* of the other query
    ///   terms where they do not occur — so dropping a candidate from
    ///   the intersection is detectable, not just asserted.
    /// * **TNRA**: reveal every query term's list in full; absence is
    ///   then provable by exhaustion against the signed roots.
    ///
    /// Responses are bit-identical across thread counts and
    /// snapshot-booted vs. cold-built engines, exactly like the
    /// disjunctive path ([`Self::query`]).
    pub fn query_conjunctive<C: ContentProvider>(
        &self,
        query: &Query,
        r: usize,
        contents: &C,
    ) -> QueryResponse {
        let outcome = self.conjunctive_outcome(query, r);
        self.respond(query, outcome, contents)
    }

    /// Run the conjunctive intersection and decide which prefixes the VO
    /// must reveal (see [`Self::query_conjunctive`] for the strategy).
    fn conjunctive_outcome(&self, query: &Query, r: usize) -> ProcessingOutcome {
        let q = query.terms.len();
        if q == 0 {
            return ProcessingOutcome {
                result: QueryResult::default(),
                prefix_lens: Vec::new(),
                encountered: Vec::new(),
                iterations: 0,
            };
        }
        let fts: Vec<usize> = query
            .terms
            .iter()
            .map(|qt| self.index.list(qt.term).len())
            .collect();
        let anchor = crate::conjunctive::anchor_index(&fts);
        let candidates: Vec<DocId> = self
            .index
            .list(query.terms[anchor].term)
            .entries()
            .iter()
            .map(|e| e.doc)
            .collect();
        let wq: Vec<f64> = query.terms.iter().map(|qt| qt.wq).collect();
        let result = crate::conjunctive::rank_intersection(
            &candidates,
            &wq,
            |d, i| Some(self.doc_table.weight(d, query.terms[i].term)),
            r,
        )
        .expect("engine-side access is total");

        let (prefix_lens, encountered) = if self.config.mechanism.is_tra() {
            // Anchor revealed in full; other terms prove only their
            // signed root (zero-length prefix). Absence comes from the
            // candidates' document-MHT bounding pairs.
            let mut lens = vec![0usize; q];
            lens[anchor] = fts[anchor];
            (lens, candidates.clone())
        } else {
            // Every list revealed in full: absence by exhaustion.
            (fts, Vec::new())
        };
        ProcessingOutcome {
            result,
            prefix_lens,
            encountered,
            iterations: candidates.len(),
        }
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
        let mut terms = Vec::with_capacity(query.terms.len());

        for (i, qt) in query.terms.iter().enumerate() {
            let k = outcome.prefix_lens[i];
            terms.push(self.build_term_vo(qt.term, k, &mut io));
        }

        // Document proofs (TRA only).
        let result_docs = outcome.result.docs();
        let docs: Vec<DocVo> = if mechanism.is_tra() {
            outcome
                .encountered
                .iter()
                .map(|&d| self.build_doc_vo(d, query, result_docs.contains(&d), &mut io))
                .collect()
        } else {
            Vec::new()
        };
        self.cache.count_proofs(terms.len(), docs.len());

        let terms_asked: Vec<TermId> = query.terms.iter().map(|qt| qt.term).collect();

        // Result document contents (retrieval cost excluded from the I/O
        // metric, as in §4.1: constant across all algorithms).
        let contents_out: Vec<(DocId, Vec<u8>)> = result_docs
            .into_iter()
            .map(|d| (d, contents.content(d)))
            .collect();

        QueryResponse {
            result: outcome.result,
            vo: VerificationObject {
                mechanism,
                terms,
                docs,
                dict: Some(self.dict_vo(&terms_asked)),
                doc_table: self.doc_table_vo(&outcome.encountered),
                signature: self.signature.clone(),
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

    /// The document-table multi-proof for `docs` (TRA only): one `prove`
    /// over the resident tree at their doc ids.
    pub(crate) fn doc_table_vo(&self, docs: &[DocId]) -> Option<DocTableVo> {
        let tree = self.doc_tree.as_ref()?;
        let mut positions: Vec<usize> = docs.iter().map(|&d| d as usize).collect();
        positions.sort_unstable();
        Some(DocTableVo {
            proof: tree.prove(&positions),
        })
    }

    /// Build one term's VO entry and account its disk traffic.
    fn build_term_vo(&self, term: TermId, k: usize, io: &mut IoStats) -> TermVo {
        let config = &self.config;
        let list = self.index.list(term);
        let li = list.len();
        let leaf_bytes = config.term_leaf_bytes();

        // Proofs come from the resident structure; the I/O accounting
        // below models the paper's on-disk layout.
        match &self.cache.terms[term as usize] {
            TermStructure::Cmht(chain) => {
                let cap = config.chain_capacity();
                // Buddy-expand within the tail block (groups align per
                // block MHT).
                let kr = if k == 0 {
                    0
                } else if config.buddy {
                    let group = buddy_group_size(leaf_bytes, 16);
                    let jb = (k - 1) / cap;
                    let lo = jb * cap;
                    let block_len = cap.min(li - lo);
                    lo + expand_prefix(k - lo, block_len, group)
                } else {
                    k
                };
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
                let kr = if config.buddy {
                    expand_prefix(k, li, buddy_group_size(leaf_bytes, 16))
                } else {
                    k
                };
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

    /// Build one document's VO entry (TRA) and account the random fetch.
    fn build_doc_vo(&self, d: DocId, query: &Query, in_result: bool, io: &mut IoStats) -> DocVo {
        let leaves = self.doc_table.doc_terms(d);
        let n = leaves.len();

        // Required positions: query terms present, boundary pairs for
        // absent query terms.
        let mut required: Vec<usize> = Vec::with_capacity(2 * query.terms.len());
        for qt in &query.terms {
            match leaves.binary_search_by_key(&qt.term, |&(t, _)| t) {
                Ok(p) => required.push(p),
                Err(p) => {
                    // Bounding leaves prove the gap (paper §3.3.1: "the
                    // pair of consecutive terms that bound the query
                    // term").
                    if p > 0 {
                        required.push(p - 1);
                    }
                    if p < n {
                        required.push(p);
                    }
                }
            }
        }
        required.sort_unstable();
        required.dedup();
        let positions = if self.config.buddy {
            expand_buddies(&required, n, buddy_group_size(8, 16))
        } else {
            required
        };

        let revealed: Vec<(u32, TermId, f32)> = positions
            .iter()
            .map(|&p| (p as u32, leaves[p].0, leaves[p].1))
            .collect();
        // Resident levels: the proof rehashes only the unrevealed sibling
        // leaves it needs.
        let leaf = |i: usize| {
            let (t, w) = leaves[i];
            doc_leaf_digest(t, w)
        };
        let proof = if n == 0 {
            MerkleProof::default()
        } else {
            prove_from_interior(n, &self.cache.doc_levels[d as usize], &positions, leaf)
        };

        // Random fetch: the document-MHT spans its leaves plus the stored
        // root (the document table stays resident).
        let mht_bytes = n * 8 + 16;
        io.random_access(self.config.layout.blocks_for_bytes(mht_bytes) as u64);

        DocVo {
            doc: d,
            num_leaves: n as u32,
            revealed,
            proof,
            content_digest: if in_result {
                None
            } else {
                Some(self.doc_content_digests[d as usize])
            },
        }
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

    fn auth(mechanism: Mechanism) -> AuthenticatedIndex {
        let key = cached_keypair(TEST_KEY_BITS);
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            ..AuthConfig::new(mechanism)
        };
        AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents())
    }

    #[test]
    fn tra_response_has_doc_proofs() {
        let a = auth(Mechanism::TraMht);
        let resp = a.query(&toy_query(), 2, &toy_contents());
        assert_eq!(resp.result.docs(), vec![6, 5]);
        assert_eq!(resp.vo.terms.len(), 4);
        // Encountered docs 5, 3, 6 plus cut-off doc 1.
        let doc_ids: Vec<DocId> = resp.vo.docs.iter().map(|d| d.doc).collect();
        assert_eq!(doc_ids, vec![5, 3, 6, 1]);
        // Result docs ship contents, not content digests.
        for dv in &resp.vo.docs {
            let is_result = resp.result.docs().contains(&dv.doc);
            assert_eq!(dv.content_digest.is_none(), is_result, "doc {}", dv.doc);
        }
        assert_eq!(resp.contents.len(), 2);
        // One document-table proof for all four documents.
        let table = resp.vo.doc_table.as_ref().unwrap();
        assert_eq!(
            table.proof,
            a.doc_tree.as_ref().unwrap().prove(&[1, 3, 5, 6])
        );
    }

    #[test]
    fn tnra_response_has_no_doc_proofs() {
        let a = auth(Mechanism::TnraCmht);
        let resp = a.query(&toy_query(), 2, &toy_contents());
        assert_eq!(resp.result.docs(), vec![6, 5]);
        assert!(resp.vo.docs.is_empty());
        assert!(resp.vo.doc_table.is_none());
        // Prefixes carry full impact entries.
        assert!(matches!(resp.vo.terms[0].prefix, PrefixData::Entries(_)));
    }

    #[test]
    fn entries_read_match_figure6_and_11() {
        // TRA (Figure 6): sleeps 1, in 1, the 4, dark 1.
        let a = auth(Mechanism::TraMht);
        let resp = a.query(&toy_query(), 2, &toy_contents());
        assert_eq!(resp.entries_read, vec![1, 1, 4, 1]);
        // TNRA (Figure 11): sleeps 1, in 4, the 4, dark 1.
        let b = auth(Mechanism::TnraMht);
        let resp = b.query(&toy_query(), 2, &toy_contents());
        assert_eq!(resp.entries_read, vec![1, 4, 4, 1]);
    }

    #[test]
    fn mht_variant_reads_whole_lists() {
        let a = auth(Mechanism::TnraMht);
        let resp = a.query(&toy_query(), 2, &toy_contents());
        // 4 lists, each ≤ 127 entries → one block per list, 4 seeks.
        assert_eq!(resp.io.seeks, 4);
        assert_eq!(resp.io.blocks, 4);
    }

    #[test]
    fn tra_random_accesses_encountered_docs() {
        let a = auth(Mechanism::TraCmht);
        let resp = a.query(&toy_query(), 2, &toy_contents());
        // 4 list runs + 4 encountered document fetches.
        assert_eq!(resp.io.seeks, 8);
    }

    #[test]
    fn buddy_pads_prefixes_in_cmht() {
        let a = auth(Mechanism::TnraCmht);
        let resp = a.query(&toy_query(), 2, &toy_contents());
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
        let tra = auth(Mechanism::TraMht).query(&toy_query(), 2, &toy_contents());
        let tnra = auth(Mechanism::TnraMht).query(&toy_query(), 2, &toy_contents());
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
        for dv in &vo.docs {
            let leaves: Vec<Digest> = auth
                .doc_table()
                .doc_terms(dv.doc)
                .iter()
                .map(|&(t, w)| doc_leaf_digest(t, w))
                .collect();
            let fresh = if leaves.is_empty() {
                MerkleProof::default()
            } else {
                let positions: Vec<usize> = dv.revealed.iter().map(|&(p, ..)| p as usize).collect();
                MerkleTree::from_leaf_digests(leaves).prove(&positions)
            };
            assert_eq!(dv.proof, fresh, "{what}: doc {}", dv.doc);
        }
        let dict = vo
            .dict
            .as_ref()
            .expect("every reply carries a dictionary proof");
        let m = auth.index().num_terms() as TermId;
        let leaves = (0..m)
            .map(|t| dict_leaf_digest(t, auth.index().ft(t), &auth.term_root(t)))
            .collect();
        let mut positions: Vec<usize> = query.terms.iter().map(|qt| qt.term as usize).collect();
        positions.sort_unstable();
        let fresh = MerkleTree::from_leaf_digests(leaves).prove(&positions);
        assert_eq!(dict.proof, fresh, "{what}: dictionary");
    }

    #[test]
    fn resident_proofs_match_fresh_trees() {
        // Every proof served from the structures resident since the build
        // equals the proof a fresh fold of the leaves gives: term-MHT and
        // chain-MHT prefixes, document-MHTs and the dictionary-MHT.
        for mechanism in Mechanism::ALL {
            let auth = auth(mechanism);
            type Serve = fn(&AuthenticatedIndex, &Query, usize, &Vec<Vec<u8>>) -> QueryResponse;
            let modes: [(&str, Serve); 2] = [
                ("disjunctive", AuthenticatedIndex::query),
                ("conjunctive", AuthenticatedIndex::query_conjunctive),
            ];
            for (mode, serve) in modes {
                for r in [1usize, 2, 5] {
                    let response = serve(&auth, &toy_query(), r, &toy_contents());
                    let what = format!("{mechanism:?} {mode} r={r}");
                    assert!(!response.vo.terms.is_empty(), "{what}");
                    assert_eq!(response.vo.docs.is_empty(), !mechanism.is_tra(), "{what}");
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
            let conj = a.query_conjunctive(&toy_query(), 2, &toy_contents());
            assert_eq!(conj.result.docs(), vec![6], "{mechanism:?}");
            let disj = a.query(&toy_query(), 2, &toy_contents());
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

    #[test]
    fn conjunctive_tra_reveals_anchor_only() {
        let a = auth(Mechanism::TraMht);
        let resp = a.query_conjunctive(&toy_query(), 2, &toy_contents());
        let fts: Vec<usize> = toy_query()
            .terms
            .iter()
            .map(|qt| a.index().list(qt.term).len())
            .collect();
        let anchor = crate::conjunctive::anchor_index(&fts);
        for (i, tv) in resp.vo.terms.iter().enumerate() {
            let want = if i == anchor { fts[i] } else { 0 };
            assert_eq!(tv.prefix.len(), want, "term #{i}");
            assert_eq!(resp.entries_read[i], want);
        }
        // One document proof per anchor-list document, in list order.
        let anchor_docs: Vec<DocId> = a
            .index()
            .list(toy_query().terms[anchor].term)
            .entries()
            .iter()
            .map(|e| e.doc)
            .collect();
        let proved: Vec<DocId> = resp.vo.docs.iter().map(|d| d.doc).collect();
        assert_eq!(proved, anchor_docs);
    }

    #[test]
    fn conjunctive_tnra_reveals_every_list_in_full() {
        for mechanism in [Mechanism::TnraMht, Mechanism::TnraCmht] {
            let a = auth(mechanism);
            let resp = a.query_conjunctive(&toy_query(), 2, &toy_contents());
            assert!(resp.vo.docs.is_empty(), "{mechanism:?}");
            for (tv, qt) in resp.vo.terms.iter().zip(&toy_query().terms) {
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
        let a = auth(Mechanism::TraCmht);
        let resp = a.query_conjunctive(&Query::default(), 5, &toy_contents());
        assert!(resp.result.entries.is_empty());
        assert!(resp.vo.terms.is_empty());
        assert!(resp.contents.is_empty());
    }

    #[test]
    fn dict_mode_emits_dict_proof() {
        // Every reply, under every mechanism and query mode, carries one
        // dictionary proof and the one manifest signature, and no
        // per-list signature.
        for mechanism in Mechanism::ALL {
            let a = auth(mechanism);
            for resp in [
                a.query(&toy_query(), 2, &toy_contents()),
                a.query_conjunctive(&toy_query(), 2, &toy_contents()),
                a.query(&Query::default(), 2, &toy_contents()),
            ] {
                assert!(resp.vo.dict.is_some(), "{mechanism:?}");
                assert!(resp.vo.terms.iter().all(|t| t.signature.is_none()));
                assert_eq!(resp.vo.signature, a.signature, "{mechanism:?}");
                assert_eq!(resp.vo.signature_count(), 1, "{mechanism:?}");
            }
        }
    }
}
