//! Storage accounting for the authentication structures (§4.1: "The
//! authentication information introduced by TNRA requires less than 1%
//! extra space over a plain, non-authenticated inverted index, while TRA
//! requires around 25% more space (due to its document-MHTs)").

use super::cache::mht_resident_digests;
use super::AuthenticatedIndex;
use authsearch_corpus::TermId;
use authsearch_crypto::DIGEST_LEN;
use authsearch_index::ImpactEntry;

/// Byte-level storage breakdown of an authenticated index, covering both
/// serving modes: the paper's regenerate-from-leaves model (disk only)
/// and the cached mode, which additionally holds materialized structures
/// in engine RAM (see the `auth::cache` module and [`super::CacheStats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceReport {
    /// Plain (unauthenticated) index: dictionary plus block-padded
    /// postings storage.
    pub plain_index_bytes: u64,
    /// Raw document contents (the collection itself), as reported by the
    /// caller.
    pub contents_bytes: u64,
    /// Term-side authentication: signatures, stored roots/heads, and the
    /// change in list storage from re-blocking (chain blocks hold fewer
    /// entries than plain blocks, but TRA chain blocks hold doc ids only).
    pub term_auth_bytes: i64,
    /// Document-side authentication (TRA): the document-MHT leaf layer,
    /// per-document root, and the one document-table signature.
    pub doc_auth_bytes: u64,
    /// Stored signatures: one per term (or one dictionary-MHT
    /// signature), plus one for the document table under TRA.
    pub signatures: u64,
    /// Signatures the paper's scheme stores for the same artifact: the
    /// term-side ones plus one per document under TRA (Figure 8).
    pub paper_signatures: u64,
    /// Engine RAM held by the structures resident in the cached serving
    /// mode, counted exactly ([`AuthenticatedIndex::cache_resident_bytes`]):
    /// the dictionary-MHT, every term structure, and (TRA) every
    /// document-MHT's interior levels. Zero in paper mode
    /// (`serve_cache: false`) — that mode's whole point is storing
    /// nothing beyond roots and leaves.
    pub cache_resident_bytes: u64,
}

impl SpaceReport {
    /// Total extra bytes attributable to authentication under the
    /// paper's storage model (what must persist on disk — identical in
    /// both serving modes).
    pub fn auth_extra_bytes(&self) -> i64 {
        self.term_auth_bytes + self.doc_auth_bytes as i64
    }

    /// Total extra bytes of the cached serving mode: the paper-mode
    /// storage plus the resident structures.
    pub fn cached_mode_extra_bytes(&self) -> i64 {
        self.auth_extra_bytes() + self.cache_resident_bytes as i64
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

        let sig_len = self.public_key.signature_len() as u64;
        let m = index.num_terms() as u64;
        let term_sigs = if self.config.dict_mht { 1 } else { m };
        let sig_total = term_sigs * sig_len;
        // Stored per-term root/head digest (16 bytes each).
        let term_auth_bytes =
            (auth_blocks as i64 - plain_blocks as i64) * block as i64 + (sig_total + m * 16) as i64;

        let n = index.num_docs() as u64;
        let (doc_auth_bytes, doc_sigs, paper_doc_sigs) = if self.config.mechanism.is_tra() {
            let leaf_bytes: u64 = (0..index.num_docs() as u32)
                .map(|d| self.doc_table.doc_terms(d).len() as u64 * 8)
                .sum();
            (leaf_bytes + n * 16 + sig_len, 1, n)
        } else {
            (0, 0, 0)
        };

        SpaceReport {
            plain_index_bytes,
            contents_bytes,
            term_auth_bytes,
            doc_auth_bytes,
            signatures: term_sigs + doc_sigs,
            paper_signatures: term_sigs + paper_doc_sigs,
            cache_resident_bytes: self.cache_resident_bytes(),
        }
    }

    /// Bytes held by the resident structures: the dictionary-MHT (leaves
    /// included), every term structure, and every document-MHT's
    /// interior levels. Nothing is ever evicted, so this is the exact
    /// footprint from the build or boot on.
    pub fn cache_resident_bytes(&self) -> u64 {
        let cache = &self.cache;
        let dict = cache
            .dict_tree
            .as_ref()
            .map_or(0, |t| mht_resident_digests(t.num_leaves()));
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
    use crate::auth::AuthConfig;
    use crate::toy::{toy_contents, toy_index};
    use crate::vo::Mechanism;
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};

    fn report(mechanism: Mechanism) -> SpaceReport {
        let key = cached_keypair(TEST_KEY_BITS);
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            ..AuthConfig::new(mechanism)
        };
        let auth = AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents());
        auth.space_report(1000)
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
        // Toy collection: 16 terms, 9 documents.
        let tra = report(Mechanism::TraMht);
        assert_eq!((tra.paper_signatures, tra.signatures), (16 + 9, 16 + 1));
        let tnra = report(Mechanism::TnraMht);
        assert_eq!((tnra.paper_signatures, tnra.signatures), (16, 16));
    }

    #[test]
    fn dict_mode_slashes_signature_space() {
        let key = cached_keypair(TEST_KEY_BITS);
        let per_list = AuthenticatedIndex::build(
            toy_index(),
            &key,
            AuthConfig {
                key_bits: TEST_KEY_BITS,
                ..AuthConfig::new(Mechanism::TnraMht)
            },
            &toy_contents(),
        )
        .space_report(0);
        let dict = AuthenticatedIndex::build(
            toy_index(),
            &key,
            AuthConfig {
                key_bits: TEST_KEY_BITS,
                dict_mht: true,
                ..AuthConfig::new(Mechanism::TnraMht)
            },
            &toy_contents(),
        )
        .space_report(0);
        assert!(dict.term_auth_bytes < per_list.term_auth_bytes);
    }

    #[test]
    fn percentages_are_consistent() {
        let r = report(Mechanism::TnraCmht);
        assert!(r.overhead_vs_index_pct() >= r.overhead_vs_total_pct());
        assert!(r.plain_index_bytes > 0);
    }

    #[test]
    fn both_serving_modes_reported() {
        let key = cached_keypair(TEST_KEY_BITS);
        let build = |serve_cache: bool| {
            AuthenticatedIndex::build(
                toy_index(),
                &key,
                AuthConfig {
                    key_bits: TEST_KEY_BITS,
                    serve_cache,
                    ..AuthConfig::new(Mechanism::TnraMht)
                },
                &toy_contents(),
            )
        };
        let cached = build(true).space_report(1000);
        let paper = build(false).space_report(1000);
        // On-disk storage is identical; only residency differs.
        assert_eq!(cached.auth_extra_bytes(), paper.auth_extra_bytes());
        assert_eq!(paper.cache_resident_bytes, 0);
        assert!(cached.cache_resident_bytes > 0);
        assert_eq!(
            cached.cached_mode_extra_bytes(),
            cached.auth_extra_bytes() + cached.cache_resident_bytes as i64
        );
        assert_eq!(paper.cached_mode_extra_bytes(), paper.auth_extra_bytes());
    }

    #[test]
    fn live_residency_tracks_queries() {
        // Residency is fixed by the build: the first query finds every
        // structure in place and no query adds to it.
        use crate::toy::toy_query;
        let key = cached_keypair(TEST_KEY_BITS);
        let build = |serve_cache: bool| {
            AuthenticatedIndex::build(
                toy_index(),
                &key,
                AuthConfig {
                    key_bits: TEST_KEY_BITS,
                    serve_cache,
                    ..AuthConfig::new(Mechanism::TnraCmht)
                },
                &toy_contents(),
            )
        };
        for serve_cache in [true, false] {
            let auth = build(serve_cache);
            let before = auth.cache_resident_bytes();
            assert_eq!(before > 0, serve_cache);
            assert_eq!(before, auth.space_report(0).cache_resident_bytes);
            for _ in 0..2 {
                let _ = auth.query(&toy_query(), 2, &toy_contents());
                assert_eq!(auth.cache_resident_bytes(), before);
            }
        }
    }

    #[test]
    fn resident_document_levels_are_counted_exactly() {
        // TRA and TNRA under the same MHT hold the same term structures,
        // so TRA's extra residency is exactly its document levels.
        use authsearch_crypto::merkle::interior_len;
        let key = cached_keypair(TEST_KEY_BITS);
        let build = |mechanism: Mechanism, serve_cache: bool| {
            AuthenticatedIndex::build(
                toy_index(),
                &key,
                AuthConfig {
                    key_bits: TEST_KEY_BITS,
                    serve_cache,
                    ..AuthConfig::new(mechanism)
                },
                &toy_contents(),
            )
        };
        let tra = build(Mechanism::TraMht, true);
        let tnra = build(Mechanism::TnraMht, true);
        let levels: u64 = (0..tra.index().num_docs() as u32)
            .map(|d| interior_len(tra.doc_table().doc_terms(d).len()) as u64)
            .sum();
        let want = levels * DIGEST_LEN as u64;
        assert!(want > 0);
        assert_eq!(
            tra.cache_resident_bytes() - tnra.cache_resident_bytes(),
            want
        );
        let paper = build(Mechanism::TraMht, false);
        assert_eq!(paper.cache_resident_bytes(), 0);
        assert_eq!(paper.space_report(0).cache_resident_bytes, 0);
    }

    #[test]
    fn resident_bytes_are_counted_exactly() {
        // Every term structure, every TRA document's interior levels and
        // the dictionary-MHT, from the index alone; nothing in paper mode.
        use authsearch_crypto::merkle::interior_len;
        let key = cached_keypair(TEST_KEY_BITS);
        for mechanism in Mechanism::ALL {
            for (serve_cache, dict_mht) in [(true, false), (true, true), (false, false)] {
                let config = AuthConfig {
                    key_bits: TEST_KEY_BITS,
                    serve_cache,
                    dict_mht,
                    ..AuthConfig::new(mechanism)
                };
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
                    .map(|d| interior_len(auth.doc_table().doc_terms(d).len()))
                    .sum();
                let dict = if dict_mht { m + interior_len(m) } else { 0 };
                let want = if serve_cache {
                    ((terms + docs + dict) * DIGEST_LEN) as u64
                } else {
                    0
                };
                let what = format!("{mechanism:?} serve_cache={serve_cache} dict_mht={dict_mht}");
                assert_eq!(auth.cache_resident_bytes(), want, "{what}");
                assert_eq!(auth.space_report(0).cache_resident_bytes, want, "{what}");
            }
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
