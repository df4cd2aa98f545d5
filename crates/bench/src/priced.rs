//! Both designs of TRA's document facts, priced exactly over the same
//! encounter lists.
//!
//! A TRA reply proves, for every document it encounters and every query
//! term, the term's weight in the document or its absence. The paper
//! proves them inside one document-MHT per document (§3.3.1, Figure 8):
//! leaves `(t, w_{d,t})` in term-id order, a present term by its leaf, an
//! absent one by the two consecutive leaves that bound it. Each such
//! proof travels with the document's signature and, for a document
//! outside the result, its content digest `h(doc)`. This repository
//! proves them per term instead, in one doc-order tree per query term
//! (`authsearch_core::vo::TermFacts`).
//!
//! [`Models::paper`] prices the paper's design over a served reply's
//! proved documents with `merkle::proof_len`; [`Models::here`] models the
//! shipped one from the same documents, and a test holds it equal to the
//! served replies' bytes. The ledger prints the first beside the served
//! replies ("paper (priced)" beside "here").

use authsearch_core::buddy::{buddy_group_size, expand_buddies};
use authsearch_core::types::DocOrderedLists;
use authsearch_core::vo::VoSize;
use authsearch_corpus::{DocId, TermId};
use authsearch_crypto::merkle::proof_len;
use authsearch_crypto::DIGEST_LEN;
use authsearch_index::codec::varint_len;
use authsearch_index::InvertedIndex;

/// Bytes of one paper document-MHT leaf: a 4-byte term id and a 4-byte
/// weight (§4.1).
const PAPER_LEAF_BYTES: usize = 8;

/// The cost of proving one reply's document facts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Priced {
    /// The VO bytes, split as [`VoSize`] splits them.
    pub(crate) size: VoSize,
    /// SHA-256 compressions the user spends checking them.
    pub(crate) compressions: u64,
    /// RSA signatures the user checks.
    pub(crate) signatures: u64,
}

/// The index in both orders the two designs prove from.
pub(crate) struct Models {
    /// Per document, its term ids ascending: the paper's document-MHT
    /// leaves.
    rows: Vec<Vec<TermId>>,
    /// Per term, its list in doc-id order: the doc-order tree's leaves.
    lists: DocOrderedLists,
}

impl Models {
    /// Transpose `index` into both orders.
    pub(crate) fn new(index: &InvertedIndex) -> Models {
        let mut rows = vec![Vec::new(); index.num_docs()];
        for t in 0..index.num_terms() as TermId {
            for e in index.list(t).entries() {
                rows[e.doc as usize].push(t);
            }
        }
        let lists = DocOrderedLists::from_index(index);
        Models { rows, lists }
    }

    /// The paper's document-MHT proofs of the facts of `proved` about
    /// `terms`, `results` being the result documents (whose content the
    /// client hashes itself). Per document: the present terms' leaves
    /// and each absent term's bounding pair, rounded to buddy groups when
    /// `buddy` is on (§3.3.2), with the proof's digests, `h(doc)` outside
    /// the result, and one signature. Verifying one hashes each revealed
    /// leaf, folds the tree (one compression per interior node rebuilt),
    /// and hashes the signed `h(doc) | d | root` message.
    pub(crate) fn paper(
        &self,
        terms: &[TermId],
        proved: &[DocId],
        results: &[DocId],
        buddy: bool,
    ) -> Priced {
        let group = buddy_group_size(PAPER_LEAF_BYTES, DIGEST_LEN);
        let mut priced = Priced::default();
        for &d in proved {
            let row = &self.rows[d as usize];
            let mut required = Vec::with_capacity(2 * terms.len());
            for t in terms {
                match row.binary_search(t) {
                    Ok(p) => required.push(p),
                    Err(p) => {
                        required.extend(p.checked_sub(1));
                        required.extend((p < row.len()).then_some(p));
                    }
                }
            }
            required.sort_unstable();
            required.dedup();
            let revealed = if buddy {
                expand_buddies(&required, row.len(), group)
            } else {
                required
            };
            let digests = proof_len(row.len(), &revealed) + usize::from(!results.contains(&d));
            priced.size.data += PAPER_LEAF_BYTES * revealed.len();
            priced.size.digest += DIGEST_LEN * digests;
            let inputs = revealed.len() + proof_len(row.len(), &revealed);
            priced.compressions += (revealed.len() + inputs.saturating_sub(1) + 1) as u64;
            priced.signatures += 1;
        }
        priced
    }

    /// The shipped doc-order proofs of the facts of `proved` about
    /// `terms`, as the engine builds and the wire encodes them: the
    /// proved doc ids, then per term the least revealed set (each
    /// document's leaf, or the leaves bracketing it) with gap-coded
    /// positions and doc ids and 4-byte weights, and its digests.
    /// Verifying one term hashes each revealed leaf, folds the tree, and
    /// hashes the combined root the dictionary leaf binds.
    pub(crate) fn here(&self, terms: &[TermId], proved: &[DocId]) -> Priced {
        let count = |n: usize| varint_len(n as u64);
        let mut priced = Priced::default();
        priced.size.data = proved.iter().map(|&d| varint_len(d.into())).sum();
        priced.size.framing = count(proved.len()) + count(terms.len());
        let mut sorted = proved.to_vec();
        sorted.sort_unstable();
        for &t in terms {
            let list = self.lists.list(t);
            let mut positions: Vec<usize> = Vec::new();
            for &d in &sorted {
                let reveal = match list.binary_search_by_key(&d, |e| e.doc) {
                    Ok(p) => [Some(p), None],
                    Err(p) => [p.checked_sub(1), (p < list.len()).then_some(p)],
                };
                for p in reveal.into_iter().flatten() {
                    if positions.last().is_none_or(|&last| last < p) {
                        positions.push(p);
                    }
                }
            }
            let digests = proof_len(list.len(), &positions);
            let (mut next_pos, mut next_doc) = (0, 0);
            for &p in &positions {
                let doc = u64::from(list[p].doc);
                priced.size.data +=
                    varint_len(p as u64 - next_pos) + varint_len(doc - next_doc) + 4;
                (next_pos, next_doc) = (p as u64 + 1, doc + 1);
            }
            priced.size.digest += DIGEST_LEN * digests;
            priced.size.framing += count(positions.len()) + count(digests);
            let inputs = positions.len() + digests;
            priced.compressions += (positions.len() + inputs.saturating_sub(1) + 1) as u64;
        }
        priced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scale, Workbench};
    use authsearch_core::{measure, Mechanism, Query, QueryMode};
    use authsearch_crypto::keys::TEST_KEY_BITS;

    /// The shipped design's model is exact: on the smoke corpus, for both
    /// TRA mechanisms in both query modes, over the synthetic and the
    /// TREC-like workloads, its bytes equal the served replies' doc-fact
    /// bytes field for field.
    #[test]
    fn shipped_model_equals_the_served_replies() {
        let mut wb = Workbench::new(Scale {
            frac: 0.001,
            queries: 3,
            key_bits: TEST_KEY_BITS,
        });
        let (corpus, disk) = (wb.corpus.clone(), wb.disk);
        let models = Models::new(&wb.index);
        let mut workloads = wb.synthetic_queries(3, 2100);
        workloads.extend(wb.trec_queries(3, 11));
        let mut proved = 0;
        for mechanism in [Mechanism::TraMht, Mechanism::TraCmht] {
            let (auth, params) = wb.auth(mechanism);
            for mode in [QueryMode::Disjunctive, QueryMode::Conjunctive] {
                for terms in &workloads {
                    let query = Query::from_term_ids(auth.index(), terms).with_mode(mode);
                    let m = measure(auth, params, &query, 10, &corpus, &disk).unwrap();
                    let ids: Vec<TermId> = query.terms().iter().map(|qt| qt.term).collect();
                    let model = models.here(&ids, &m.proved_docs);
                    assert_eq!(model.size, m.facts_size, "{mechanism:?} {mode:?} {terms:?}");
                    proved += m.proved_docs.len();
                }
            }
        }
        assert!(proved > 100, "{proved} documents proved");
    }

    #[test]
    fn paper_prices_present_terms_and_bounding_pairs() {
        // Document 0 holds terms 1, 3 and 5; a query for 3 and 4 reveals
        // leaf 1 (term 3) and the pair bounding 4 (leaves 1 and 2).
        let models = Models {
            rows: vec![vec![1, 3, 5]],
            lists: DocOrderedLists::from_index(
                &InvertedIndex::from_parts(Default::default(), 1, 1.0, Vec::new(), Vec::new())
                    .unwrap(),
            ),
        };
        let priced = models.paper(&[3, 4], &[0], &[], false);
        // Leaves 1 and 2 revealed; leaf 0 is the one digest, h(doc) the
        // other.
        assert_eq!(priced.size.data, 2 * PAPER_LEAF_BYTES);
        assert_eq!(priced.size.digest, 2 * DIGEST_LEN);
        // Two leaves, two interior nodes, one signed message.
        assert_eq!((priced.compressions, priced.signatures), (5, 1));
        // A result document carries no content digest.
        let result = models.paper(&[3, 4], &[0], &[0], false);
        assert_eq!(result.size.digest, DIGEST_LEN);
    }
}
