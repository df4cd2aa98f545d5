//! Document facts by term (TRA): the proved documents, their facts, and
//! the result documents' contents.
//!
//! A TRA replay reads, for every document it meets and every query term
//! `t`, either `w_{d,t}` or the fact that `t ∉ d`. The VO lists the
//! documents it proves (`vo.docs`, in encounter order) and carries one
//! proof per query term in that term's doc-order tree: an MHT over the
//! term's `⟨d, w_{d,t}⟩` entries in doc-id order, `f_t` leaves, whose
//! root the term's dictionary leaf binds beside its list root
//! (`crate::auth::combined_root`). This module checks each term's proof
//! once and resolves its facts:
//!
//! * **present**: `d`'s own leaf is revealed, and gives `w_{d,t}`;
//! * **absent**: the two revealed leaves whose doc ids bracket `d` sit at
//!   adjacent positions (the paper's "pair of consecutive terms that
//!   bound the query term", §3.3.1, here consecutive doc ids), or `d`
//!   falls before the revealed leaf at position 0 or after the one at
//!   position `f_t − 1`.
//!
//! The paper proves the same facts inside one document-MHT per document
//! (Figure 8), so every absent fact brackets the same rare term again in
//! each document's tree; per term, a rare term's short list is revealed
//! once, and a common term's upper levels are shared by every document
//! proved in it.
//!
//! ## One encoding per VO
//!
//! The revealed set must be the least one: every revealed leaf settles a
//! fact of a proved document (its own, or as a bracket). The leaves the
//! facts need are fixed by the list and the proved documents, so an
//! honest VO has exactly one set, and the verifier refuses any other.
//! The tree's leaf count is `f_t`, which the dictionary leaf binds, so a
//! proof carries no count to vary.
//!
//! ## What the held publication adds
//!
//! The client holds each document's `h(doc)`, checked once against the
//! document-table root the manifest signs
//! ([`crate::VerifierParams::open`]). A proved doc id must name a held
//! record (an id `≥ n` is refused before any hashing), and a result
//! document's delivered content must hash to its held `h(doc)`. Each
//! leaf is the leaf digest (`h(0x00 | F | d | w)`) of data the verifier
//! reads from the reply, while an interior node hashes `0x01 | left |
//! right` and a combined root `0x02 | list root | doc-order root`, so no
//! digest of one kind can be presented as another.

use super::VerifyError;
use crate::auth::fact_leaf_digest;
use crate::auth::serve::QueryResponse;
use crate::publication::SignedPublication;
use crate::types::DocIdMap;
use crate::vo::TermFacts;
use authsearch_corpus::{DocId, TermId};
use authsearch_crypto::{reconstruct_root, Digest};
use std::collections::BTreeMap;

/// Authenticated frequencies of the proved documents, in VO order:
/// document `k`'s weight for query term `i` at `weights[k * q + i]`
/// (0 for a proven absence), and `index` from doc id to `k`.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ResolvedFreqs {
    q: usize,
    weights: Vec<f32>,
    index: DocIdMap<u32>,
}

impl ResolvedFreqs {
    /// Room for the facts of the proved documents `docs` about `q` query
    /// terms. Every id must name a held record, and none may repeat.
    pub(super) fn new(
        held: &SignedPublication,
        docs: &[DocId],
        q: usize,
    ) -> Result<ResolvedFreqs, VerifyError> {
        // Distinct held ids number at most `n`, however many the reply
        // lists; the weights are sized once every id has passed.
        let capacity = docs.len().min(held.docs.len());
        let mut index = DocIdMap::with_capacity_and_hasher(capacity, Default::default());
        for (k, &doc) in (0..).zip(docs) {
            if held.doc(doc).is_none() {
                return Err(VerifyError::UnknownDocument { doc });
            }
            if index.insert(doc, k).is_some() {
                return Err(VerifyError::MalformedProof(format!(
                    "duplicate document proof for {doc}"
                )));
            }
        }
        let weights = vec![0.0; docs.len() * q];
        Ok(ResolvedFreqs { q, weights, index })
    }

    /// Certified `w_{d, t_i}` (0 for a proven absence); `None` for a
    /// document the VO does not prove.
    pub(crate) fn weight_of(&self, d: DocId, i: usize) -> Option<f32> {
        let k = *self.index.get(&d)? as usize;
        self.weights.get(k * self.q + i).copied()
    }

    /// Check query term `i`'s doc-order proof `facts` — `term` with
    /// `f_t = ft` — and resolve its fact about each of the proved
    /// `docs` (the ones [`ResolvedFreqs::new`] took). Returns the
    /// doc-order root the proof reconstructs, which the caller binds into
    /// the term's dictionary leaf. The checks, in order: the revealed
    /// leaves strictly ascend by position and doc id inside the tree; they
    /// and the digests have the tree's shape; every proved document's
    /// fact is settled, in `docs` order; and every revealed leaf settles
    /// one.
    pub(super) fn resolve_term(
        &mut self,
        i: usize,
        term: TermId,
        ft: usize,
        facts: &TermFacts,
        docs: &[DocId],
    ) -> Result<Digest, VerifyError> {
        let revealed = &facts.revealed;
        let malformed = |why: String| VerifyError::MalformedProof(format!("term {term}: {why}"));
        if revealed
            .windows(2)
            .any(|pair| matches!(pair, [a, b] if a.pos >= b.pos || a.doc >= b.doc))
        {
            return Err(malformed("doc-order leaves not strictly ordered".into()));
        }
        if revealed.last().is_some_and(|l| l.pos as usize >= ft) {
            return Err(malformed("doc-order leaf position beyond f_t".into()));
        }
        let pairs: Vec<(usize, Digest)> = (revealed.iter())
            .map(|l| (l.pos as usize, fact_leaf_digest(&l.entry())))
            .collect();
        let root = reconstruct_root(ft, &pairs, &facts.proof)
            .ok_or_else(|| malformed("doc-order proof shape".into()))?;

        // A fact settled, and the revealed leaves it used.
        let settle = |doc: DocId| -> Option<(f32, [Option<usize>; 2])> {
            match revealed.binary_search_by_key(&doc, |l| l.doc) {
                Ok(j) => Some((revealed.get(j)?.weight, [Some(j), None])),
                Err(j) => {
                    // The leaves on either side of where `doc` would sit.
                    let lower = j.checked_sub(1);
                    let pos = |at: Option<usize>| Some(revealed.get(at?)?.pos as usize);
                    let absent = match (pos(lower), pos(Some(j))) {
                        (Some(l), Some(u)) => u == l + 1,
                        (None, Some(u)) => u == 0,
                        (Some(l), None) => l + 1 == ft,
                        (None, None) => false,
                    };
                    absent.then_some((0.0, [lower, Some(j)]))
                }
            }
        };
        let mut used = vec![false; revealed.len()];
        let slots = self.weights.iter_mut().skip(i).step_by(self.q.max(1));
        for (&doc, slot) in docs.iter().zip(slots) {
            let (weight, leaves) =
                settle(doc).ok_or(VerifyError::FrequencyUnproven { doc, term })?;
            for at in leaves.into_iter().flatten() {
                if let Some(u) = used.get_mut(at) {
                    *u = true;
                }
            }
            *slot = weight;
        }
        if let Some(leaf) = revealed
            .iter()
            .zip(&used)
            .find_map(|(l, &u)| (!u).then_some(l))
        {
            return Err(malformed(format!(
                "revealed leaf {} (document {}) settles no proved document's fact",
                leaf.pos, leaf.doc
            )));
        }
        Ok(root)
    }
}

/// The result documents' contents, checked against the held digests:
/// each result document arrives once ([`VerifyError::DuplicateContent`]
/// for any document delivered twice, whose other copy a caller could
/// read unchecked) and hashes to its held `h(doc)`. Contents of other
/// documents are ignored.
pub(super) fn check_contents(
    held: &SignedPublication,
    response: &QueryResponse,
) -> Result<(), VerifyError> {
    // The ids are not yet checked against anything, so they are
    // ordered, not hashed through `DocIdMap`'s weak hash.
    let mut delivered = BTreeMap::new();
    for (d, bytes) in &response.contents {
        if delivered.insert(*d, bytes.as_slice()).is_some() {
            return Err(VerifyError::DuplicateContent { doc: *d });
        }
    }
    for doc in response.result.docs() {
        let bytes = delivered
            .get(&doc)
            .ok_or(VerifyError::MissingContent { doc })?;
        let content = held.doc(doc).ok_or(VerifyError::UnknownDocument { doc })?;
        if Digest::hash(bytes) != *content {
            return Err(VerifyError::ContentDigest { doc });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{AuthConfig, AuthenticatedIndex};
    use crate::toy::{toy_contents, toy_index, toy_query};
    use crate::verify::{verify, VerifierParams};
    use crate::vo::Mechanism;
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};

    fn setup() -> (QueryResponse, VerifierParams) {
        let key = cached_keypair(TEST_KEY_BITS);
        let config = AuthConfig::new(Mechanism::TraMht);
        let auth = AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents());
        let resp = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
        (resp, auth.verifier_params())
    }

    /// Resolve every term's facts of `resp` as the verifier does.
    fn resolve(
        resp: &QueryResponse,
        params: &VerifierParams,
    ) -> Result<ResolvedFreqs, VerifyError> {
        let vo = &resp.vo;
        let mut freqs = ResolvedFreqs::new(params.publication(), &vo.docs, vo.terms.len())?;
        for (i, (tv, facts)) in vo.terms.iter().zip(&vo.facts).enumerate() {
            freqs.resolve_term(i, tv.term, tv.ft as usize, facts, &vo.docs)?;
        }
        Ok(freqs)
    }

    #[test]
    fn honest_doc_proofs_resolve() {
        let (resp, params) = setup();
        let freqs = resolve(&resp, &params).unwrap();
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
        assert_eq!(freqs.weight_of(8, 0), None);
    }

    #[test]
    fn tampered_weight_breaks_the_held_root() {
        // An inflated revealed weight moves its term's doc-order root, so
        // the dictionary root off the held manifest's.
        let (mut resp, params) = setup();
        let leaf = (resp.vo.facts.iter_mut())
            .flat_map(|f| f.revealed.iter_mut())
            .find(|l| l.doc == 5)
            .unwrap();
        leaf.weight *= 2.0;
        let err = verify(&params, &toy_query(), 2, &resp).unwrap_err();
        assert_eq!(err, VerifyError::DictionaryRoot);
    }

    #[test]
    fn dropped_leaf_breaks_proof_shape() {
        // Without a revealed leaf whose absence the tree's shape shows,
        // the digests no longer fit it.
        let (mut resp, params) = setup();
        let (i, j) = (resp.vo.terms.iter().zip(&resp.vo.facts).enumerate())
            .find_map(|(i, (tv, facts))| {
                let positions: Vec<usize> = facts.revealed.iter().map(|l| l.pos as usize).collect();
                (0..positions.len()).find_map(|j| {
                    let mut fewer = positions.clone();
                    fewer.remove(j);
                    let len = authsearch_crypto::merkle::proof_len(tv.ft as usize, &fewer);
                    (len != facts.proof.digests.len()).then_some((i, j))
                })
            })
            .unwrap();
        resp.vo.facts[i].revealed.remove(j);
        let term = resp.vo.terms[i].term;
        let err = resolve(&resp, &params).unwrap_err();
        assert_eq!(
            err,
            VerifyError::MalformedProof(format!("term {term}: doc-order proof shape"))
        );
    }

    #[test]
    fn missing_result_content_rejected() {
        let (mut resp, params) = setup();
        resp.contents.remove(0);
        let err = check_contents(params.publication(), &resp).unwrap_err();
        assert!(matches!(err, VerifyError::MissingContent { .. }));
    }

    #[test]
    fn tampered_result_content_breaks_the_held_digest() {
        let (mut resp, params) = setup();
        resp.contents[0].1 = b"forged document body".to_vec();
        let doc = resp.contents[0].0;
        let err = verify(&params, &toy_query(), 2, &resp).unwrap_err();
        assert_eq!(err, VerifyError::ContentDigest { doc });
    }

    #[test]
    fn duplicate_doc_proof_rejected() {
        let (mut resp, params) = setup();
        resp.vo.docs.push(resp.vo.docs[0]);
        let err = resolve(&resp, &params).unwrap_err();
        assert_eq!(
            err,
            VerifyError::MalformedProof(format!(
                "duplicate document proof for {}",
                resp.vo.docs[0]
            ))
        );
    }
}
