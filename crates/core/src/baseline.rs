//! The §3.2 "approach 3" baseline: pre-certify every inverted list and
//! return the *entire* lists of the query terms.
//!
//! > "Pre-certify every inverted list, and return to the user those that
//! > correspond to the query terms. After checking the integrity of the
//! > lists, the user may compute the document scores to produce the query
//! > result. This approach fits naturally with the PSCAN algorithm […]
//! > However, the retrieval of entire lists imposes very large I/O costs
//! > on the search engine. Also, returning the entire inverted lists as
//! > proof incurs excessive communication cost, as well as high
//! > verification and memory requirements at the user-side."
//!
//! Implemented here as the quantitative baseline the threshold mechanisms
//! are compared against: one signature per list over a digest of the full
//! list contents, a VO that *is* the lists, and a verifier that re-runs
//! PSCAN. Every cost the paper attributes to it is measurable with the
//! same metrics as the real mechanisms.

use crate::access::{AccessError, ListAccess};
use crate::pscan;
use crate::types::{Query, QueryResult};
use crate::verify::VerifyError;
use crate::vo::VoSize;
use authsearch_corpus::TermId;
use authsearch_crypto::{Digest, RsaPrivateKey, RsaPublicKey};
use authsearch_index::{BlockLayout, ImpactEntry, InvertedIndex, IoStats};

/// Owner-side artifact: one signature per full inverted list.
#[derive(Debug)]
pub struct BaselineIndex {
    index: InvertedIndex,
    layout: BlockLayout,
    list_sigs: Vec<Vec<u8>>,
    public_key: RsaPublicKey,
}

/// The baseline's "VO": the complete inverted lists of the query terms.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineResponse {
    /// The ranked result (computed with PSCAN).
    pub result: QueryResult,
    /// Per query term: `(term, full list, signature)`.
    pub lists: Vec<(TermId, Vec<ImpactEntry>, Vec<u8>)>,
    /// Engine disk trace (whole lists, sequentially).
    pub io: IoStats,
}

impl BaselineResponse {
    /// VO size under the same accounting as the real mechanisms.
    pub fn vo_size(&self) -> VoSize {
        let mut s = VoSize::default();
        for (_, list, sig) in &self.lists {
            s.data += 8 + list.len() * ImpactEntry::BYTES;
            s.signature += sig.len();
        }
        s
    }
}

/// Digest of a full inverted list (leaf-hash chain over the canonical
/// entry encodings, bound to the term and its `f_t`).
fn list_digest(term: TermId, list: &[ImpactEntry]) -> Digest {
    let mut bytes = Vec::with_capacity(24 + list.len() * 8);
    bytes.extend_from_slice(b"authsearch:fulllist:v1|");
    bytes.extend_from_slice(&term.to_le_bytes());
    // lint:allow(truncating-cast): list length is bounded by the collection size cap (2^28) at construction, and this u32 is a stable digest preimage — widening it would change every published digest
    bytes.extend_from_slice(&(list.len() as u32).to_le_bytes());
    for e in list {
        bytes.extend_from_slice(&e.encode());
    }
    Digest::hash(&bytes)
}

impl BaselineIndex {
    /// Sign every list.
    pub fn build(index: InvertedIndex, key: &RsaPrivateKey, layout: BlockLayout) -> Self {
        let list_sigs = (0..index.num_terms() as TermId)
            .map(|t| {
                let digest = list_digest(t, index.list(t).entries());
                key.sign(digest.as_bytes()).expect("list signature")
            })
            .collect();
        BaselineIndex {
            index,
            layout,
            list_sigs,
            public_key: key.public_key().clone(),
        }
    }

    /// The underlying index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The owner's public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public_key
    }

    /// Serve a query: run PSCAN, ship the full lists.
    pub fn query(&self, query: &Query, r: usize) -> BaselineResponse {
        let lists = crate::access::IndexLists::new(&self.index, query);
        let outcome = pscan::run(&lists, query, r).expect("engine access is total");
        let mut io = IoStats::new();
        let mut out = Vec::with_capacity(query.terms().len());
        for qt in query.terms() {
            let list = self.index.list(qt.term);
            let blocks = self
                .layout
                .blocks_for(list.len(), self.layout.plain_capacity(ImpactEntry::BYTES));
            io.sequential_run(blocks as u64);
            out.push((
                qt.term,
                list.entries().to_vec(),
                self.list_sigs[qt.term as usize].clone(),
            ));
        }
        BaselineResponse {
            result: outcome.result,
            lists: out,
            io,
        }
    }
}

/// User-side verification: check every list signature, then recompute the
/// result with PSCAN over the delivered lists.
pub fn verify_baseline(
    public_key: &RsaPublicKey,
    query: &Query,
    r: usize,
    response: &BaselineResponse,
) -> Result<QueryResult, VerifyError> {
    if response.lists.len() != query.terms().len() {
        return Err(VerifyError::QueryShapeMismatch(format!(
            "{} lists for {} query terms",
            response.lists.len(),
            query.terms().len()
        )));
    }
    for ((term, list, sig), qt) in response.lists.iter().zip(query.terms()) {
        if *term != qt.term {
            return Err(VerifyError::QueryShapeMismatch(format!(
                "list for term {term} where query has {}",
                qt.term
            )));
        }
        let digest = list_digest(*term, list);
        public_key
            .verify(digest.as_bytes(), sig)
            .map_err(|_| VerifyError::TermSignature { term: *term })?;
        if list.windows(2).any(|w| w[0].weight < w[1].weight) {
            return Err(VerifyError::PrefixNotOrdered { term: *term });
        }
    }
    // Recompute with PSCAN over the authenticated lists.
    struct Full<'a>(&'a BaselineResponse);
    impl ListAccess for Full<'_> {
        fn list_len(&self, i: usize) -> usize {
            self.0.lists[i].1.len()
        }
        fn entry(&self, i: usize, pos: usize) -> Result<Option<ImpactEntry>, AccessError> {
            Ok(self.0.lists[i].1.get(pos).copied())
        }
    }
    let outcome = pscan::run(&Full(response), query, r)?;
    if outcome.result != response.result {
        return Err(VerifyError::ResultMismatch(
            "PSCAN over the certified lists disagrees with the reported result".into(),
        ));
    }
    Ok(outcome.result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{toy_index, toy_query};
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};

    fn setup() -> BaselineIndex {
        let key = cached_keypair(TEST_KEY_BITS);
        BaselineIndex::build(toy_index(), &key, BlockLayout::default())
    }

    #[test]
    fn baseline_result_matches_threshold_algorithms() {
        let baseline = setup();
        let resp = baseline.query(&toy_query(), 2);
        assert_eq!(resp.result.docs(), vec![6, 5]);
        verify_baseline(baseline.public_key(), &toy_query(), 2, &resp).unwrap();
    }

    #[test]
    fn baseline_ships_entire_lists() {
        let baseline = setup();
        let resp = baseline.query(&toy_query(), 2);
        // 'the' and 'in' have 6 entries each; sleeps/dark 1 each.
        let total: usize = resp.lists.iter().map(|(_, l, _)| l.len()).sum();
        assert_eq!(total, 14);
        // VO data dwarfs the threshold mechanisms' prefixes.
        assert_eq!(resp.vo_size().data, 4 * 8 + 14 * 8);
    }

    #[test]
    fn tampered_list_rejected() {
        let baseline = setup();
        let mut resp = baseline.query(&toy_query(), 2);
        resp.lists[2].1[0].weight = 9.9;
        let err = verify_baseline(baseline.public_key(), &toy_query(), 2, &resp).unwrap_err();
        assert!(matches!(err, VerifyError::TermSignature { .. }));
    }

    #[test]
    fn truncated_list_rejected() {
        let baseline = setup();
        let mut resp = baseline.query(&toy_query(), 2);
        resp.lists[2].1.pop();
        let err = verify_baseline(baseline.public_key(), &toy_query(), 2, &resp).unwrap_err();
        assert!(matches!(err, VerifyError::TermSignature { .. }));
    }

    #[test]
    fn tampered_result_rejected() {
        let baseline = setup();
        let mut resp = baseline.query(&toy_query(), 2);
        resp.result.entries.swap(0, 1);
        let err = verify_baseline(baseline.public_key(), &toy_query(), 2, &resp).unwrap_err();
        assert!(matches!(err, VerifyError::ResultMismatch(_)));
    }

    #[test]
    fn io_covers_whole_lists() {
        let baseline = setup();
        let resp = baseline.query(&toy_query(), 2);
        // All four toy lists fit one block each.
        assert_eq!(resp.io.seeks, 4);
        assert_eq!(resp.io.blocks, 4);
    }
}
