//! Document-MHT proof verification and frequency resolution (TRA).
//!
//! For every encountered document the VO carries a [`crate::vo::DocVo`].
//! This module authenticates each one — reconstructing the document-MHT
//! root from the revealed `(t, w_{d,t}, c_t)` leaves and comparing it
//! with the root the client holds for that document, and for a result
//! document hashing its delivered content and comparing that with the
//! held `h(doc)` — and then resolves, for every (document, query term)
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
//! `f_t` moves the dictionary root off the held manifest's, and a forged
//! `c_t` the document root off the held one.
//!
//! ## Why held leaves are as strong as a signature per document
//!
//! The paper signs every document's `h(doc) | d | root` (Figure 8). Here
//! the client holds, for every document `d`, the `(h(doc), root)` pair
//! the owner bound into leaf `d` of the document table, checked once
//! ([`crate::VerifierParams::open`]) against the table root the manifest
//! signs.
//!
//! * **The held leaves are the signed ones.** The client folds the `n`
//!   records it takes in, each at its own doc id, into the table and
//!   compares the root with the signed one; a record changed, moved,
//!   added or dropped folds to another root, and `n` is inside the
//!   signed manifest, so the table has no room for one more.
//! * **A reply is looked up, not folded.** Each document proof is
//!   compared with the held record at the doc id it names, so a proof
//!   for the right document at the wrong id, or another publication's
//!   proof for the right id, meets a root it does not reconstruct; an id
//!   `≥ n` names no record and is refused before any hashing.
//! * **Leaves are hashed by the verifier.** Each document-MHT leaf is
//!   the leaf digest (`h(0x00 | t | w | c_t)`) of data the verifier reads
//!   from the reply, while an interior node hashes `0x01 | left | right`,
//!   so no interior digest can be presented as a leaf.

use super::VerifyError;
use crate::auth::empty_doc_root;
use crate::auth::serve::QueryResponse;
use crate::pool::{self, DOCS_PER_THREAD};
use crate::publication::SignedPublication;
use crate::types::DocIdMap;
use crate::vo::{DocLeaf, DocVo, TermVo};
use authsearch_corpus::DocId;
use authsearch_crypto::merkle::least_leaf_count;
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

/// Verify every document proof in the response against the held
/// publication `held`, and resolve the frequencies for the replay.
///
/// The per-document check ([`resolve_one`]) is a pure function of one
/// proof and the held records, so it runs over chunks of
/// [`DOCS_PER_THREAD`] proofs through [`pool::map`] at `width` threads,
/// each chunk with its own scratch buffer and its own run of the weight
/// array. The check that spans documents — a doc id proved twice — then
/// runs in VO order, and the first error in that order is returned. The
/// verdict is therefore the sequential loop's at every width.
pub(super) fn resolve_doc_proofs(
    held: &SignedPublication,
    response: &QueryResponse,
    width: usize,
) -> Result<ResolvedFreqs, VerifyError> {
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
    let (weights, verdicts): (Vec<_>, Vec<_>) = pool::map(width, chunks, |c| {
        // One `(position, leaf digest)` buffer serves the chunk's MHTs.
        let mut revealed = Vec::new();
        let chunk: &[DocVo] = docs.chunks(DOCS_PER_THREAD).nth(c).unwrap_or_default();
        let mut weights = Vec::with_capacity(chunk.len() * terms.len());
        let verdicts: Vec<_> = (chunk.iter())
            .map(|dv| resolve_one(held, terms, dv, &contents, &mut revealed, &mut weights))
            .collect();
        (weights, verdicts)
    })
    .into_iter()
    .unzip();

    let mut index = DocIdMap::with_capacity_and_hasher(docs.len(), Default::default());
    for ((k, dv), verdict) in (0..).zip(docs).zip(verdicts.into_iter().flatten()) {
        if index.contains_key(&dv.doc) {
            return Err(VerifyError::MalformedProof(format!(
                "duplicate document proof for {}",
                dv.doc
            )));
        }
        verdict?;
        index.insert(dv.doc, k);
    }
    let (q, weights) = (terms.len(), weights.concat());
    Ok(ResolvedFreqs { q, weights, index })
}

/// The delivered contents by doc id. A document delivered twice is
/// refused: only one copy is checked against the document's held digest,
/// and a caller reading the other would read unauthenticated bytes. The ids
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

/// Authenticate one document proof against `held` — its doc id must
/// name a held record, the document-MHT root it reconstructs must be the
/// held root, and the delivered content of a result document (in
/// `results`) must hash to the held `h(doc)` — and resolve the weight of
/// each query term of `terms`, keyed by the `f_t` its dictionary leaf
/// binds, onto the end of `weights`. `pairs` is scratch space for the
/// revealed leaves, reused across documents. A pure function of its
/// inputs but for the weights it appends (one per term, and only on
/// success), so proofs can be checked in any order, on any thread.
fn resolve_one(
    held: &SignedPublication,
    terms: &[TermVo],
    dv: &DocVo,
    results: &BTreeMap<DocId, &[u8]>,
    pairs: &mut Vec<(usize, Digest)>,
    weights: &mut Vec<Option<f32>>,
) -> Result<(), VerifyError> {
    let record = held
        .doc(dv.doc)
        .ok_or(VerifyError::UnknownDocument { doc: dv.doc })?;
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
    // Every count from the least to the true one reconstructs the same
    // root, so the proof carries the least (and a revealed last leaf is
    // the document's last).
    let last = dv.revealed.last().map(|l| l.pos as usize);
    if least_leaf_count(n, last) != n {
        return Err(VerifyError::MalformedProof(format!(
            "document {}: leaf count {n} is not the least of its proof's shape",
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

    if root != record.root {
        return Err(VerifyError::DocumentRoot { doc: dv.doc });
    }
    // A result document's delivered content must be the held one.
    if results
        .get(&dv.doc)
        .is_some_and(|bytes| Digest::hash(bytes) != record.content)
    {
        return Err(VerifyError::ContentDigest { doc: dv.doc });
    }

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
    Ok(())
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
    use crate::verify::VerifierParams;
    use crate::vo::Mechanism;
    use authsearch_corpus::{SyntheticConfig, TermId};
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};

    fn setup() -> (QueryResponse, VerifierParams) {
        let key = cached_keypair(TEST_KEY_BITS);
        let config = AuthConfig::new(Mechanism::TraMht);
        let auth = AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents());
        let resp = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
        (resp, auth.verifier_params())
    }

    #[test]
    fn honest_doc_proofs_resolve() {
        let (resp, params) = setup();
        let freqs = resolve_doc_proofs(params.publication(), &resp, 1).unwrap();
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
    fn tampered_weight_breaks_the_held_root() {
        let (mut resp, params) = setup();
        // Inflate a revealed weight in doc 5's proof.
        let dv = resp.vo.docs.iter_mut().find(|d| d.doc == 5).unwrap();
        let idx = dv.revealed.iter().position(|l| l.weight > 0.0).unwrap();
        dv.revealed[idx].weight *= 2.0;
        let err = super::super::verify(&params, &toy_query(), 2, &resp).unwrap_err();
        assert_eq!(err, VerifyError::DocumentRoot { doc: 5 });
    }

    #[test]
    fn dropped_leaf_breaks_proof_shape() {
        let (mut resp, params) = setup();
        let dv = &mut resp.vo.docs[0];
        dv.revealed.remove(0);
        let err = resolve_doc_proofs(params.publication(), &resp, 1).unwrap_err();
        assert!(matches!(err, VerifyError::MalformedProof(_)), "{err:?}");
    }

    #[test]
    fn missing_result_content_rejected() {
        let (mut resp, params) = setup();
        resp.contents.remove(0);
        let err = resolve_doc_proofs(params.publication(), &resp, 1).unwrap_err();
        assert!(matches!(err, VerifyError::MissingContent { .. }));
    }

    #[test]
    fn tampered_result_content_breaks_the_held_digest() {
        let (mut resp, params) = setup();
        resp.contents[0].1 = b"forged document body".to_vec();
        let doc = resp.contents[0].0;
        let err = super::super::verify(&params, &toy_query(), 2, &resp).unwrap_err();
        assert_eq!(err, VerifyError::ContentDigest { doc });
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
        let held = params.publication();
        let sequential = |response: &QueryResponse| resolve_doc_proofs(held, response, 1);
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
        let forged = interior_as_leaf_response(&honest, &publication.auth, Tree::DocMht).unwrap();
        cases.push(("interior node as a document-MHT leaf".into(), forged));

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
        both.vo.docs.last_mut().unwrap().doc = params.num_docs() as DocId;
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
                let got = resolve_doc_proofs(held, response, width);
                assert_eq!(got, want, "{name} at width {width}");
            }
        }
    }

    #[test]
    fn duplicate_doc_proof_rejected() {
        let (mut resp, params) = setup();
        let dup = resp.vo.docs[0].clone();
        resp.vo.docs.push(dup);
        let err = resolve_doc_proofs(params.publication(), &resp, 1).unwrap_err();
        assert!(matches!(err, VerifyError::MalformedProof(_)));
    }
}
