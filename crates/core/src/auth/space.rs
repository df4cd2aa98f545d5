//! Storage accounting for the authentication structures (§4.1: "The
//! authentication information introduced by TNRA requires less than 1%
//! extra space over a plain, non-authenticated inverted index, while TRA
//! requires around 25% more space (due to its document-MHTs)").

use super::cache::mht_resident_digests;
use super::AuthenticatedIndex;
use authsearch_corpus::TermId;
use authsearch_crypto::DIGEST_LEN;
use authsearch_index::ImpactEntry;

/// Byte-level storage breakdown of an authenticated index: what the
/// paper's storage model persists on disk, and the engine RAM held by
/// the structures resident since the build or boot (see the
/// `auth::cache` module and [`super::CacheStats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceReport {
    /// Plain (unauthenticated) index: dictionary plus block-padded
    /// postings storage.
    pub plain_index_bytes: u64,
    /// Raw document contents (the collection itself), as reported by the
    /// caller.
    pub contents_bytes: u64,
    /// Term-side authentication: the one manifest signature, stored
    /// roots/heads, and the change in list storage from re-blocking
    /// (chain blocks hold fewer entries than plain blocks, but TRA chain
    /// blocks hold doc ids only).
    pub term_auth_bytes: i64,
    /// Document-side authentication (TRA): the document-MHT leaf layer
    /// and per-document root.
    pub doc_auth_bytes: u64,
    /// Stored signatures: the one over the publication manifest.
    pub signatures: u64,
    /// Signatures the paper's scheme stores for the same artifact: one
    /// per term (§3.3) plus one per document under TRA (Figure 8), the
    /// `m + n` the manifest replaces.
    pub paper_signatures: u64,
    /// Engine RAM held by the resident structures, counted exactly
    /// ([`AuthenticatedIndex::cache_resident_bytes`]): the
    /// dictionary-MHT, every term structure, and (TRA) every
    /// document-MHT's interior levels.
    pub cache_resident_bytes: u64,
}

impl SpaceReport {
    /// Total extra bytes attributable to authentication under the
    /// paper's storage model (what must persist on disk).
    pub fn auth_extra_bytes(&self) -> i64 {
        self.term_auth_bytes + self.doc_auth_bytes as i64
    }

    /// Extra space as a percentage of the plain index.
    pub fn overhead_vs_index_pct(&self) -> f64 {
        100.0 * self.auth_extra_bytes() as f64 / self.plain_index_bytes as f64
    }

    /// Extra space as a percentage of index + collection — the base that
    /// the search engine actually stores.
    pub fn overhead_vs_total_pct(&self) -> f64 {
        let base = (self.plain_index_bytes + self.contents_bytes) as f64;
        100.0 * self.auth_extra_bytes() as f64 / base
    }
}

impl AuthenticatedIndex {
    /// Compute the storage report. `contents_bytes` is the collection
    /// size (513 MB for the paper's WSJ corpus).
    pub fn space_report(&self, contents_bytes: u64) -> SpaceReport {
        let layout = &self.config.layout;
        let index = &self.index;
        let block = layout.block_bytes as u64;
        let plain_cap = layout.plain_capacity(ImpactEntry::BYTES);

        let mut plain_blocks = 0u64;
        let mut auth_blocks = 0u64;
        for t in 0..index.num_terms() as TermId {
            let li = index.list(t).len();
            plain_blocks += layout.blocks_for(li, plain_cap) as u64;
            if self.config.mechanism.is_cmht() {
                auth_blocks += layout.blocks_for(li, self.config.chain_capacity()) as u64;
            } else {
                // Plain-MHT lists keep the plain block layout.
                auth_blocks += layout.blocks_for(li, plain_cap) as u64;
            }
        }
        let plain_index_bytes = index.dictionary_bytes() as u64 + plain_blocks * block;

        let sig_len = self.publication.signature.len() as u64;
        let m = index.num_terms() as u64;
        // The manifest signature plus a stored root/head digest per term
        // (16 bytes each).
        let term_auth_bytes =
            (auth_blocks as i64 - plain_blocks as i64) * block as i64 + (sig_len + m * 16) as i64;

        let n = index.num_docs() as u64;
        let (doc_auth_bytes, paper_doc_sigs) = if self.config.mechanism.is_tra() {
            // A stored leaf is `(t, w)`; the `c_t` its digest binds is
            // the dictionary's `f_t`, not stored per leaf.
            let leaf_bytes: u64 = (0..index.num_docs() as u32)
                .map(|d| self.doc_table.num_leaves(d) as u64 * 8)
                .sum();
            (leaf_bytes + n * 16, n)
        } else {
            (0, 0)
        };

        SpaceReport {
            plain_index_bytes,
            contents_bytes,
            term_auth_bytes,
            doc_auth_bytes,
            signatures: 1,
            paper_signatures: m + paper_doc_sigs,
            cache_resident_bytes: self.cache_resident_bytes(),
        }
    }

    /// Bytes held by the resident structures: the dictionary-MHT (leaves
    /// included), every term structure, and every document-MHT's
    /// interior levels. Nothing is ever evicted, so this is the
    /// artifact's exact residency from the build or boot on.
    pub fn cache_resident_bytes(&self) -> u64 {
        let cache = &self.cache;
        let dict = mht_resident_digests(cache.dict_tree.num_leaves());
        let terms: u64 = cache
            .terms
            .iter()
            .map(|s| s.resident_digests() as u64)
            .sum();
        let docs: u64 = cache.doc_levels.iter().map(|l| l.len() as u64).sum();
        (dict + terms + docs) * DIGEST_LEN as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::tests_support::test_auth;
    use crate::auth::AuthConfig;
    use crate::toy::{toy_contents, toy_index};
    use crate::vo::Mechanism;
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};

    fn report(mechanism: Mechanism) -> SpaceReport {
        test_auth(mechanism).space_report(1000)
    }

    #[test]
    fn tra_costs_more_than_tnra() {
        let tra = report(Mechanism::TraMht);
        let tnra = report(Mechanism::TnraMht);
        assert!(tra.auth_extra_bytes() > tnra.auth_extra_bytes());
        assert!(tra.doc_auth_bytes > 0);
        assert_eq!(tnra.doc_auth_bytes, 0);
    }

    #[test]
    fn signature_counts_report_paper_beside_here() {
        // Toy collection: 16 terms, 9 documents. Paper: m + n, here: 1.
        let tra = report(Mechanism::TraMht);
        assert_eq!((tra.paper_signatures, tra.signatures), (16 + 9, 1));
        let tnra = report(Mechanism::TnraMht);
        assert_eq!((tnra.paper_signatures, tnra.signatures), (16, 1));
    }

    #[test]
    fn dict_mode_slashes_signature_space() {
        // The term side stores one signature where the paper stores one
        // per list: less than the paper's signatures alone.
        let r = report(Mechanism::TnraMht);
        let sig_len = TEST_KEY_BITS as i64 / 8;
        assert!(r.term_auth_bytes < r.paper_signatures as i64 * sig_len);
        assert!(r.term_auth_bytes >= sig_len + 16 * 16);
    }

    #[test]
    fn percentages_are_consistent() {
        let r = report(Mechanism::TnraCmht);
        assert!(r.overhead_vs_index_pct() >= r.overhead_vs_total_pct());
        assert!(r.plain_index_bytes > 0);
    }

    #[test]
    fn live_residency_tracks_queries() {
        // Residency is fixed by the build: the first query finds every
        // structure in place and no query adds to it.
        use crate::toy::toy_query;
        let auth = test_auth(Mechanism::TnraCmht);
        let before = auth.cache_resident_bytes();
        assert!(before > 0);
        assert_eq!(before, auth.space_report(0).cache_resident_bytes);
        for _ in 0..2 {
            let _ = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
            assert_eq!(auth.cache_resident_bytes(), before);
        }
    }

    #[test]
    fn resident_document_levels_are_counted_exactly() {
        // TRA and TNRA under the same MHT hold the same term structures,
        // so TRA's extra residency is exactly its document levels.
        use authsearch_crypto::merkle::interior_len;
        let tra = test_auth(Mechanism::TraMht);
        let tnra = test_auth(Mechanism::TnraMht);
        let levels: u64 = (0..tra.index().num_docs() as u32)
            .map(|d| interior_len(tra.doc_table().num_leaves(d)) as u64)
            .sum();
        let want = levels * DIGEST_LEN as u64;
        assert!(want > 0);
        assert_eq!(
            tra.cache_resident_bytes() - tnra.cache_resident_bytes(),
            want
        );
    }

    #[test]
    fn resident_bytes_are_counted_exactly() {
        // Every term structure, every TRA document's interior levels and
        // the dictionary-MHT, from the index alone.
        use authsearch_crypto::merkle::interior_len;
        let key = cached_keypair(TEST_KEY_BITS);
        for mechanism in Mechanism::ALL {
            let config = AuthConfig::new(mechanism);
            let auth = AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents());
            let (index, cap) = (auth.index(), config.chain_capacity());
            let m = index.num_terms();
            let terms: usize = (0..m as TermId)
                .map(|t| match index.list(t).len() {
                    li if mechanism.is_cmht() => li + li.div_ceil(cap),
                    li => interior_len(li),
                })
                .sum();
            let docs: usize = (0..index.num_docs() as u32)
                .filter(|_| mechanism.is_tra())
                .map(|d| interior_len(auth.doc_table().num_leaves(d)))
                .sum();
            let dict = m + interior_len(m);
            let want = ((terms + docs + dict) * DIGEST_LEN) as u64;
            assert_eq!(auth.cache_resident_bytes(), want, "{mechanism:?}");
            assert_eq!(
                auth.space_report(0).cache_resident_bytes,
                want,
                "{mechanism:?}"
            );
        }
    }

    #[test]
    fn mht_resident_digest_shapes() {
        // 1 leaf → 1; 7 leaves → 7+4+2+1 = 14 (Figure 8's shape).
        assert_eq!(mht_resident_digests(0), 0);
        assert_eq!(mht_resident_digests(1), 1);
        assert_eq!(mht_resident_digests(7), 14);
        assert_eq!(mht_resident_digests(8), 15);
    }
}
