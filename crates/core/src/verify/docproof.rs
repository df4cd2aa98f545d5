//! Document-MHT proof verification and frequency resolution (TRA).
//!
//! For every encountered document the VO carries a [`crate::vo::DocVo`].
//! This module authenticates each one — reconstructing the document-MHT
//! root from the revealed `(t, w_{d,t}, c_t)` leaves and hashing it, the
//! document id and the digest of the document's content into that
//! document's leaf of the document table, whose root the owner's
//! manifest signs — and then resolves, for every (document, query term)
//! pair, either the certified weight or a *proven absence* (weight 0).
//!
//! ## Leaves in key order
//!
//! The owner orders each document's leaves by the key `(c_t descending,
//! t)` ([`crate::types::leaf_key`]), where `c_t` is the bit length of the
//! term's `f_t`, so a document's common terms share the front of its
//! tree. Every leaf binds its `c_t`, and the verifier computes each query
//! term's key from the `f_t` its dictionary proof authenticates. An
//! absence is then a revealed pair of position-adjacent leaves whose keys
//! bound the query term's key (the paper's "pair of consecutive terms
//! that bound the query term", §3.3.1, consecutive in key order), or a
//! revealed first/last leaf for keys outside the document's range. Any
//! order the verifier can compute for its query terms serves; a forged
//! `f_t` moves the dictionary root, and a forged `c_t` the document root,
//! so both fail the manifest signature.
//!
//! ## Why one document-table proof is as strong as a signature per document
//!
//! * **Positions are doc ids.** Leaf `d` of the table is the digest of
//!   document `d`'s message, and the verifier places every recomputed
//!   leaf at its own document's id; a proof for the right leaf at the
//!   wrong position reconstructs a different root.
//! * **`n` is inside the signed manifest.** The tree's shape is a
//!   function of the leaf count alone, and
//!   [`crate::auth::publication_message`] binds `params.num_docs`, so no
//!   proof can be replayed against a table of another size; ids `≥ n` are
//!   rejected before any hashing.
//! * **Leaves are hashed by the verifier.** Each leaf is the leaf digest
//!   (`h(0x00 | message)`) of a 54-byte `doc_message` the verifier builds
//!   itself, while an interior node hashes `0x01 | left | right`, so no
//!   interior digest can be presented as a leaf.

use super::{VerifierParams, VerifyError};
use crate::auth::serve::QueryResponse;
use crate::auth::{doc_table_leaf, empty_doc_root};
use crate::pool::{self, DOCS_PER_THREAD};
use crate::types::DocIdMap;
use crate::vo::{DocLeaf, DocVo, TermVo, VerificationObject};
use authsearch_corpus::DocId;
use authsearch_crypto::{reconstruct_root, Digest};
use std::collections::BTreeMap;

/// Authenticated frequencies of the proved documents, in VO order: proof
/// `k`'s weight for query term `i` at `weights[k * q + i]`, `None` when
/// the proof settles nothing about it, and `index` from doc id to `k`.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ResolvedFreqs {
    q: usize,
    weights: Vec<Option<f32>>,
    index: DocIdMap<u32>,
}

impl ResolvedFreqs {
    /// Certified `w_{d, t_i}`; `None` when the VO proves nothing about it.
    pub(crate) fn weight_of(&self, d: DocId, i: usize) -> Option<f32> {
        let k = *self.index.get(&d)? as usize;
        let row = self.weights.get(k * self.q..(k + 1) * self.q)?;
        row.get(i).copied().flatten()
    }

    /// True when the VO carried an authenticated proof for document `d`
    /// (even if some query-term weights remained unproven).
    pub(crate) fn contains(&self, d: DocId) -> bool {
        self.index.contains_key(&d)
    }
}

/// Verify every document proof in the response, resolve the frequencies
/// for the replay, and reconstruct the document-table root.
///
/// Each document proof yields its document-table leaf; the leaves and
/// the reply's one multi-proof give the root the caller checks against
/// the owner's manifest signature.
///
/// The per-document check ([`resolve_one`]) is a pure function of one
/// proof, so it runs over chunks of [`DOCS_PER_THREAD`] proofs through
/// [`pool::map`] at `width` threads, each chunk with its own scratch
/// buffer and its own run of the weight array. The checks that span
/// documents — a doc id proved twice, or outside the table — then run in
/// VO order, and the first error in that order is returned. The verdict
/// is therefore the sequential loop's at every width.
pub(super) fn resolve_doc_proofs(
    params: &VerifierParams,
    response: &QueryResponse,
    width: usize,
) -> Result<(ResolvedFreqs, Digest), VerifyError> {
    let mut contents = delivered_contents(response)?;
    let result_docs: Vec<DocId> = response.result.docs();
    // Result documents must arrive with their contents, which are hashed.
    for &d in &result_docs {
        if !contents.contains_key(&d) {
            return Err(VerifyError::MissingContent { doc: d });
        }
    }
    contents.retain(|d, _| result_docs.contains(d));

    // The VO's terms are the query's (`check_query_shape`).
    let terms = &response.vo.terms;
    let docs = &response.vo.docs;
    let chunks = docs.len().div_ceil(DOCS_PER_THREAD);
    let (weights, leaves): (Vec<_>, Vec<_>) = pool::map(width, chunks, |c| {
        // One `(position, leaf digest)` buffer serves the chunk's MHTs.
        let mut revealed = Vec::new();
        let chunk: &[DocVo] = docs.chunks(DOCS_PER_THREAD).nth(c).unwrap_or_default();
        let mut weights = Vec::with_capacity(chunk.len() * terms.len());
        let leaves: Vec<_> = (chunk.iter())
            .map(|dv| resolve_one(terms, dv, &contents, &mut revealed, &mut weights))
            .collect();
        (weights, leaves)
    })
    .into_iter()
    .unzip();

    let mut index = DocIdMap::with_capacity_and_hasher(docs.len(), Default::default());
    let mut table_leaves = Vec::with_capacity(docs.len());
    for ((k, dv), one) in (0..).zip(docs).zip(leaves.into_iter().flatten()) {
        if index.contains_key(&dv.doc) {
            return Err(VerifyError::MalformedProof(format!(
                "duplicate document proof for {}",
                dv.doc
            )));
        }
        if dv.doc as usize >= params.num_docs {
            return Err(VerifyError::DocTableProof(format!(
                "document {} outside the {}-document table",
                dv.doc, params.num_docs
            )));
        }
        table_leaves.push((dv.doc as usize, one?));
        index.insert(dv.doc, k);
    }
    let root = doc_table_root(params, &response.vo, table_leaves)?;
    let (q, weights) = (terms.len(), weights.concat());
    Ok((ResolvedFreqs { q, weights, index }, root))
}

/// The delivered contents by doc id. A document delivered twice is
/// refused: only one copy is hashed into the document's table leaf, and
/// a caller reading the other would read unauthenticated bytes. The ids
/// are not yet checked against anything, so they are ordered, not
/// hashed through `DocIdMap`'s weak hash.
fn delivered_contents(response: &QueryResponse) -> Result<BTreeMap<DocId, &[u8]>, VerifyError> {
    let mut delivered = BTreeMap::new();
    for (d, bytes) in &response.contents {
        if delivered.insert(*d, bytes.as_slice()).is_some() {
            return Err(VerifyError::DuplicateContent { doc: *d });
        }
    }
    Ok(delivered)
}

/// Reconstruct the document-table root from the reply's leaves and
/// multi-proof.
fn doc_table_root(
    params: &VerifierParams,
    vo: &VerificationObject,
    mut leaves: Vec<(usize, Digest)>,
) -> Result<Digest, VerifyError> {
    let table = vo
        .doc_table
        .as_ref()
        .ok_or_else(|| VerifyError::DocTableProof("TRA reply without a document table".into()))?;
    leaves.sort_unstable_by_key(|&(d, _)| d);
    reconstruct_root(params.num_docs, &leaves, &table.proof)
        .ok_or_else(|| VerifyError::DocTableProof("multi-proof shape".into()))
}

/// Authenticate one document proof *structurally* — reconstruct the
/// document-MHT root and resolve the weight of each query term of
/// `terms`, keyed by the `f_t` its dictionary leaf binds, onto the end
/// of `weights` — and return the document's document-table leaf, which
/// binds the digest of its content in `results` if it is a result
/// document; the caller folds the leaves into the table root with the
/// table's multi-proof. `pairs` is scratch space for the revealed
/// leaves, reused across documents. A pure function of its inputs but
/// for the weights it appends (one per term, and only on success), so
/// proofs can be checked in any order, on any thread.
fn resolve_one(
    terms: &[TermVo],
    dv: &DocVo,
    results: &BTreeMap<DocId, &[u8]>,
    pairs: &mut Vec<(usize, Digest)>,
    weights: &mut Vec<Option<f32>>,
) -> Result<Digest, VerifyError> {
    let n = dv.num_leaves as usize;

    // Structural checks: positions strictly increasing, in range, keys
    // strictly increasing (the owner sorts document-MHT leaves by key).
    if dv
        .revealed
        .windows(2)
        .any(|pair| matches!(pair, [a, b] if a.pos >= b.pos || a.key() >= b.key()))
    {
        return Err(VerifyError::MalformedProof(format!(
            "document {}: revealed leaves not strictly ordered",
            dv.doc
        )));
    }
    if dv.revealed.iter().any(|l| l.pos as usize >= n) {
        return Err(VerifyError::MalformedProof(format!(
            "document {}: revealed position beyond leaf count",
            dv.doc
        )));
    }

    // Reconstruct the document-MHT root.
    let root = if n == 0 {
        if !dv.revealed.is_empty() || !dv.proof.digests.is_empty() {
            return Err(VerifyError::MalformedProof(format!(
                "document {}: empty MHT with payload",
                dv.doc
            )));
        }
        empty_doc_root()
    } else {
        pairs.clear();
        pairs.extend(dv.revealed.iter().map(|l| (l.pos as usize, l.digest())));
        reconstruct_root(n, pairs, &dv.proof).ok_or_else(|| {
            VerifyError::MalformedProof(format!("document {}: MHT proof shape", dv.doc))
        })?
    };

    // Content digest: hash the delivered document for result entries,
    // take the VO's digest otherwise.
    let content_digest = match results.get(&dv.doc) {
        Some(bytes) => Digest::hash(bytes),
        None => (dv.content_digest).ok_or(VerifyError::MissingContent { doc: dv.doc })?,
    };

    // The table leaf binds document id, content digest, and MHT root.
    let leaf = doc_table_leaf(dv.doc, &content_digest, &root);

    // Resolve each query term: present (revealed leaf), provably absent
    // (bounding leaves), or unproven.
    for k in terms.iter().map(TermVo::leaf_key) {
        let w = match dv.revealed.binary_search_by_key(&k, DocLeaf::key) {
            Ok(i) => dv.revealed.get(i).map(|l| l.weight),
            Err(i) => {
                // Candidate bounding pair: revealed[i-1] and revealed[i].
                let lower = i.checked_sub(1).and_then(|j| dv.revealed.get(j));
                let upper = dv.revealed.get(i);
                let absent = match (lower, upper) {
                    // Adjacent positions with keys bracketing k.
                    (Some(l), Some(u)) => u.pos == l.pos + 1 && l.key() < k && k < u.key(),
                    // k below the first leaf: position 0 must be revealed.
                    (None, Some(u)) => u.pos == 0 && k < u.key(),
                    // k above the last leaf: position n-1 must be revealed.
                    (Some(l), None) => l.pos as usize == n - 1 && l.key() < k,
                    // Empty document: trivially absent.
                    (None, None) => n == 0,
                };
                absent.then_some(0.0)
            }
        };
        weights.push(w);
    }
    Ok(leaf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::{
        absent_through_gap_response, doc_beyond_table_response, interior_as_leaf_response, Attack,
        Tree,
    };
    use crate::auth::{AuthConfig, AuthenticatedIndex};
    use crate::owner::{DataOwner, Publication};
    use crate::toy::{toy_contents, toy_index, toy_query};
    use crate::types::Query;
    use crate::vo::Mechanism;
    use authsearch_corpus::{SyntheticConfig, TermId};
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};
    use authsearch_index::BlockLayout;

    fn setup() -> (QueryResponse, VerifierParams) {
        let key = cached_keypair(TEST_KEY_BITS);
        let config = AuthConfig::new(Mechanism::TraMht);
        let auth = AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents());
        let resp = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
        let params = VerifierParams {
            public_key: key.public_key().clone(),
            layout: BlockLayout::default(),
            mechanism: Mechanism::TraMht,
            num_docs: 9,
        };
        (resp, params)
    }

    #[test]
    fn honest_doc_proofs_resolve() {
        let (resp, params) = setup();
        let (freqs, _) = resolve_doc_proofs(&params, &resp, 1).unwrap();
        assert_eq!(freqs.index.len(), 4); // docs 5, 3, 6, 1
                                          // d6 contains all four query terms (Figure 8).
        for i in 0..4 {
            let w = freqs.weight_of(6, i).unwrap();
            assert!(w > 0.0, "term #{i}");
        }
        // d5 lacks 'sleeps' (term index 0) and 'dark' (index 3): proven 0.
        assert_eq!(freqs.weight_of(5, 0), Some(0.0));
        assert_eq!(freqs.weight_of(5, 3), Some(0.0));
        assert!(freqs.weight_of(5, 1).unwrap() > 0.0); // 'in' = 0.142
    }

    #[test]
    fn tampered_weight_breaks_signature() {
        let (mut resp, params) = setup();
        // Inflate a revealed weight in doc 5's proof.
        let dv = resp.vo.docs.iter_mut().find(|d| d.doc == 5).unwrap();
        let idx = dv.revealed.iter().position(|l| l.weight > 0.0).unwrap();
        dv.revealed[idx].weight *= 2.0;
        let err = super::super::verify(&params, &toy_query(), 2, &resp).unwrap_err();
        assert_eq!(err, VerifyError::ManifestSignature);
    }

    #[test]
    fn dropped_leaf_breaks_proof_shape() {
        let (mut resp, params) = setup();
        let dv = &mut resp.vo.docs[0];
        dv.revealed.remove(0);
        let err = resolve_doc_proofs(&params, &resp, 1).unwrap_err();
        assert!(matches!(err, VerifyError::MalformedProof(_)), "{err:?}");
    }

    #[test]
    fn missing_result_content_rejected() {
        let (mut resp, params) = setup();
        resp.contents.remove(0);
        let err = resolve_doc_proofs(&params, &resp, 1).unwrap_err();
        assert!(matches!(err, VerifyError::MissingContent { .. }));
    }

    #[test]
    fn tampered_result_content_breaks_signature() {
        let (mut resp, params) = setup();
        resp.contents[0].1 = b"forged document body".to_vec();
        let err = super::super::verify(&params, &toy_query(), 2, &resp).unwrap_err();
        assert_eq!(err, VerifyError::ManifestSignature);
    }

    /// A TRA reply with at least `4 × DOCS_PER_THREAD` document proofs,
    /// so widths 1, 2 and 4 each split it differently: the four most
    /// frequent terms of a 400-document collection.
    fn wide_reply() -> (Publication, Query, QueryResponse) {
        let corpus = SyntheticConfig::tiny(400, 7).generate();
        let config = AuthConfig::new(Mechanism::TraMht);
        let publication = DataOwner::with_cached_key(TEST_KEY_BITS).publish(&corpus, config);
        let index = publication.auth.index();
        let mut terms: Vec<TermId> = (0..index.num_terms() as TermId).collect();
        terms.sort_by_key(|&t| std::cmp::Reverse(index.ft(t)));
        let mut top = terms[..4].to_vec();
        top.sort_unstable();
        let query = Query::from_term_ids(index, &top);
        let response = publication.auth.query(&query, 10, &corpus).unwrap();
        (publication, query, response)
    }

    #[test]
    fn verdict_is_the_same_at_every_width() {
        let (publication, _, honest) = wide_reply();
        let params = &publication.verifier_params;
        let docs = honest.vo.docs.len();
        assert!(docs >= 4 * DOCS_PER_THREAD, "{docs} document proofs");
        let sequential = |response: &QueryResponse| resolve_doc_proofs(params, response, 1);
        assert!(sequential(&honest).is_ok());

        // Every catalogue attack that applies to a TRA reply, and every
        // forged reply the catalogue builds from one.
        let mut cases = vec![("honest".to_string(), honest.clone())];
        let catalogue = Attack::COMMON
            .iter()
            .chain(&Attack::TRA_ONLY)
            .chain(&Attack::DOC_TABLE)
            .chain(&Attack::DOC_KEY)
            .chain(&Attack::CONJUNCTIVE);
        for &attack in catalogue {
            let mut tampered = honest.clone();
            if attack.apply(&mut tampered) {
                cases.push((attack.name().into(), tampered));
            }
        }
        let beyond = doc_beyond_table_response(&honest, &publication.auth).unwrap();
        cases.push(("doc id past the table".into(), beyond));
        let gap = absent_through_gap_response(&honest, &publication.auth).unwrap();
        cases.push(("present term claimed absent".into(), gap));
        for tree in [Tree::DocMht, Tree::DocTable] {
            let forged = interior_as_leaf_response(&honest, &publication.auth, tree).unwrap();
            cases.push((format!("interior node as a {tree:?} leaf"), forged));
        }

        // A duplicate proof in the last chunk whose first copy is in the
        // first chunk.
        let mut duplicated = honest.clone();
        duplicated.vo.docs.push(honest.vo.docs[0].clone());
        let first = honest.vo.docs[0].doc;
        assert_eq!(
            sequential(&duplicated).err(),
            Some(VerifyError::MalformedProof(format!(
                "duplicate document proof for {first}"
            )))
        );
        cases.push(("duplicate across chunks".into(), duplicated));

        // A doc id at `n` in the last chunk, after a malformed proof in
        // the first: the malformed proof comes first in VO order.
        let mut both = honest.clone();
        both.vo.docs[1].proof.digests.push(Digest::ZERO);
        both.vo.docs.last_mut().unwrap().doc = params.num_docs as DocId;
        let bad = both.vo.docs[1].doc;
        assert_eq!(
            sequential(&both).err(),
            Some(VerifyError::MalformedProof(format!(
                "document {bad}: MHT proof shape"
            )))
        );
        cases.push(("doc id past the table after a malformed proof".into(), both));

        for (name, response) in &cases {
            let want = sequential(response);
            for width in [2, 4] {
                let got = resolve_doc_proofs(params, response, width);
                assert_eq!(got, want, "{name} at width {width}");
            }
        }
    }

    #[test]
    fn duplicate_doc_proof_rejected() {
        let (mut resp, params) = setup();
        let dup = resp.vo.docs[0].clone();
        resp.vo.docs.push(dup);
        let err = resolve_doc_proofs(&params, &resp, 1).unwrap_err();
        assert!(matches!(err, VerifyError::MalformedProof(_)));
    }
}
