//! Document-MHT proof verification and frequency resolution (TRA).
//!
//! For every encountered document the VO carries a [`crate::vo::DocVo`].
//! This module authenticates each one — reconstructing the document-MHT
//! root from the revealed `(t, w)` leaves and hashing it, the document id
//! and the digest of the document's content into that document's leaf of
//! the document table, whose root the owner's manifest signs — and then
//! resolves, for every
//! (document, query term) pair, either the certified weight or a *proven
//! absence* (weight 0), established by a revealed pair of
//! position-adjacent leaves whose terms bound the query term (paper
//! §3.3.1), or by a revealed first/last leaf for query terms outside the
//! document's term range.
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

use super::{FreqMap, VerifierParams, VerifyError};
use crate::auth::serve::QueryResponse;
use crate::auth::{doc_leaf_digest, doc_root, doc_table_leaf};
use crate::types::Query;
use crate::vo::{DocVo, VerificationObject};
use authsearch_corpus::DocId;
use authsearch_crypto::{reconstruct_root, Digest};
use std::collections::HashMap;

/// Authenticated frequencies of the encountered documents, per query term.
#[derive(Debug, Clone, Default)]
pub struct ResolvedFreqs {
    map: FreqMap,
}

impl ResolvedFreqs {
    /// Certified `w_{d, t_i}`; `None` when the VO proves nothing about it.
    pub fn weight_of(&self, d: DocId, i: usize) -> Option<f32> {
        self.map.get(&d).and_then(|v| v.get(i).copied().flatten())
    }

    /// Number of documents with proofs.
    pub fn num_docs(&self) -> usize {
        self.map.len()
    }

    /// True when the VO carried an authenticated proof for document `d`
    /// (even if some query-term weights remained unproven).
    pub fn contains(&self, d: DocId) -> bool {
        self.map.contains_key(&d)
    }
}

/// Verify every document proof in the response, build the frequency map
/// for the replay, and reconstruct the document-table root.
///
/// Each document proof yields its document-table leaf; the leaves and
/// the reply's one multi-proof give the root the caller checks against
/// the owner's manifest signature.
pub(super) fn resolve_doc_proofs(
    params: &VerifierParams,
    query: &Query,
    response: &QueryResponse,
) -> Result<(ResolvedFreqs, Digest), VerifyError> {
    // Contents of result documents, for content-digest computation.
    let delivered: HashMap<DocId, &[u8]> = response
        .contents
        .iter()
        .map(|(d, bytes)| (*d, bytes.as_slice()))
        .collect();
    let result_docs: Vec<DocId> = response.result.docs();
    // Every result document must arrive with its content.
    for &d in &result_docs {
        if !delivered.contains_key(&d) {
            return Err(VerifyError::MissingContent { doc: d });
        }
    }

    let mut map: FreqMap = HashMap::with_capacity(response.vo.docs.len());
    let mut leaves = Vec::with_capacity(response.vo.docs.len());
    // One `(position, leaf digest)` buffer serves every document's MHT.
    let mut revealed = Vec::new();
    for dv in &response.vo.docs {
        if map.contains_key(&dv.doc) {
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
        let (weights, leaf) = resolve_one(query, dv, &delivered, &result_docs, &mut revealed)?;
        leaves.push((dv.doc as usize, leaf));
        map.insert(dv.doc, weights);
    }
    let root = doc_table_root(params, &response.vo, leaves)?;
    Ok((ResolvedFreqs { map }, root))
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
/// document-MHT root and resolve per-query-term weights — and return
/// the document's document-table leaf; the caller folds the leaves into
/// the table root with the table's multi-proof. `pairs` is scratch space
/// for the revealed leaves, reused across documents.
fn resolve_one(
    query: &Query,
    dv: &DocVo,
    delivered: &HashMap<DocId, &[u8]>,
    result_docs: &[DocId],
    pairs: &mut Vec<(usize, Digest)>,
) -> Result<(Vec<Option<f32>>, Digest), VerifyError> {
    let n = dv.num_leaves as usize;

    // Structural checks: positions strictly increasing, in range, terms
    // strictly increasing (the owner sorts document-MHT leaves by term).
    if dv
        .revealed
        .windows(2)
        .any(|pair| matches!(pair, [a, b] if a.0 >= b.0 || a.1 >= b.1))
    {
        return Err(VerifyError::MalformedProof(format!(
            "document {}: revealed leaves not strictly ordered",
            dv.doc
        )));
    }
    if dv.revealed.iter().any(|&(p, _, _)| p as usize >= n) {
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
        doc_root(&[])
    } else {
        pairs.clear();
        pairs.extend(
            dv.revealed
                .iter()
                .map(|&(p, t, w)| (p as usize, doc_leaf_digest(t, w))),
        );
        reconstruct_root(n, pairs, &dv.proof).ok_or_else(|| {
            VerifyError::MalformedProof(format!("document {}: MHT proof shape", dv.doc))
        })?
    };

    // Content digest: hash the delivered document for result entries,
    // take the VO's digest otherwise.
    let content_digest = if result_docs.contains(&dv.doc) {
        let bytes = delivered
            .get(&dv.doc)
            .ok_or(VerifyError::MissingContent { doc: dv.doc })?;
        Digest::hash(bytes)
    } else {
        dv.content_digest
            .ok_or(VerifyError::MissingContent { doc: dv.doc })?
    };

    // The table leaf binds document id, content digest, and MHT root.
    let leaf = doc_table_leaf(dv.doc, &content_digest, &root);

    // Resolve each query term: present (revealed leaf), provably absent
    // (bounding leaves), or unproven.
    let mut weights = Vec::with_capacity(query.terms.len());
    for qt in &query.terms {
        let t = qt.term;
        let found = dv.revealed.binary_search_by_key(&t, |&(_, rt, _)| rt);
        let w = match found {
            Ok(i) => dv.revealed.get(i).map(|r| r.2),
            Err(i) => {
                // Candidate bounding pair: revealed[i-1] and revealed[i].
                let lower = i.checked_sub(1).and_then(|j| dv.revealed.get(j).copied());
                let upper = dv.revealed.get(i).copied();
                let absent = match (lower, upper) {
                    // Adjacent positions with terms bracketing t.
                    (Some((pl, tl, _)), Some((pu, tu, _))) => pu == pl + 1 && tl < t && t < tu,
                    // t below the first leaf: position 0 must be revealed.
                    (None, Some((pu, tu, _))) => pu == 0 && t < tu,
                    // t above the last leaf: position n-1 must be revealed.
                    (Some((pl, tl, _)), None) => pl as usize == n - 1 && tl < t,
                    // Empty document: trivially absent.
                    (None, None) => n == 0,
                };
                if absent {
                    Some(0.0)
                } else {
                    None
                }
            }
        };
        weights.push(w);
    }
    Ok((weights, leaf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{AuthConfig, AuthenticatedIndex};
    use crate::toy::{toy_contents, toy_index, toy_query};
    use crate::vo::Mechanism;
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};
    use authsearch_index::BlockLayout;

    fn setup() -> (QueryResponse, VerifierParams) {
        let key = cached_keypair(TEST_KEY_BITS);
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            ..AuthConfig::new(Mechanism::TraMht)
        };
        let auth = AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents());
        let resp = auth.query(&toy_query(), 2, &toy_contents());
        let params = VerifierParams {
            public_key: key.public_key().clone(),
            layout: BlockLayout::default(),
            mechanism: Mechanism::TraMht,
            num_docs: 9,
            okapi: authsearch_index::OkapiParams::default(),
        };
        (resp, params)
    }

    #[test]
    fn honest_doc_proofs_resolve() {
        let (resp, params) = setup();
        let (freqs, _) = resolve_doc_proofs(&params, &toy_query(), &resp).unwrap();
        assert_eq!(freqs.num_docs(), 4); // docs 5, 3, 6, 1
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
        let idx = dv.revealed.iter().position(|&(_, _, w)| w > 0.0).unwrap();
        dv.revealed[idx].2 *= 2.0;
        let err = super::super::verify(&params, &toy_query(), 2, &resp).unwrap_err();
        assert_eq!(err, VerifyError::ManifestSignature);
    }

    #[test]
    fn dropped_leaf_breaks_proof_shape() {
        let (mut resp, params) = setup();
        let dv = &mut resp.vo.docs[0];
        dv.revealed.remove(0);
        let err = resolve_doc_proofs(&params, &toy_query(), &resp).unwrap_err();
        assert!(matches!(err, VerifyError::MalformedProof(_)), "{err:?}");
    }

    #[test]
    fn missing_result_content_rejected() {
        let (mut resp, params) = setup();
        resp.contents.remove(0);
        let err = resolve_doc_proofs(&params, &toy_query(), &resp).unwrap_err();
        assert!(matches!(err, VerifyError::MissingContent { .. }));
    }

    #[test]
    fn tampered_result_content_breaks_signature() {
        let (mut resp, params) = setup();
        resp.contents[0].1 = b"forged document body".to_vec();
        let err = super::super::verify(&params, &toy_query(), 2, &resp).unwrap_err();
        assert_eq!(err, VerifyError::ManifestSignature);
    }

    #[test]
    fn duplicate_doc_proof_rejected() {
        let (mut resp, params) = setup();
        let dup = resp.vo.docs[0].clone();
        resp.vo.docs.push(dup);
        let err = resolve_doc_proofs(&params, &toy_query(), &resp).unwrap_err();
        assert!(matches!(err, VerifyError::MalformedProof(_)));
    }
}
