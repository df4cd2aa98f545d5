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
    /// Worst-case engine RAM held by the serve cache: the materialized
    /// dictionary-MHT, the term-structure LRU filled with the
    /// `term_cache_capacity` longest lists, and (TRA) every document-MHT's
    /// resident interior levels, counted exactly. Zero in paper mode
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
    /// storage plus the worst-case materialized-structure residency.
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
            cache_resident_bytes: self.worst_case_cache_bytes(),
        }
    }

    /// Worst-case serve-cache residency in bytes: dictionary-MHT (when
    /// materialized), the term LRU filled with the structures of the
    /// longest lists — the adversarial workload for cache footprint —
    /// and the resident document-MHT levels, which are always all there.
    fn worst_case_cache_bytes(&self) -> u64 {
        if !self.config.serve_cache {
            return 0;
        }
        let index = &self.index;
        let m = index.num_terms();
        let dict_digests: u64 = if self.config.dict_mht {
            mht_resident_digests(m)
        } else {
            0
        };
        let mut lens: Vec<usize> = (0..m as TermId).map(|t| index.list(t).len()).collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        let cap = self.config.term_cache_capacity.min(m);
        let term_digests: u64 = lens[..cap]
            .iter()
            .map(|&li| {
                if self.config.mechanism.is_cmht() {
                    li as u64 + li.div_ceil(self.config.chain_capacity()) as u64
                } else {
                    mht_resident_digests(li)
                }
            })
            .sum();
        (dict_digests + term_digests + self.resident_doc_digests()) * DIGEST_LEN as u64
    }

    /// Digests held by the resident document-MHT levels: Σ `interior_len`
    /// over every document (0 unless TRA with the serve cache on).
    fn resident_doc_digests(&self) -> u64 {
        self.cache.doc_levels.iter().map(|l| l.len() as u64).sum()
    }

    /// Bytes currently held by the serve cache (live residency, as
    /// opposed to the worst-case bound in the report).
    pub fn cache_resident_bytes_now(&self) -> u64 {
        let dict: u64 = self
            .cache
            .dict_tree
            .as_ref()
            .map(|t| mht_resident_digests(t.num_leaves()))
            .unwrap_or(0);
        let mut terms: u64 = 0;
        self.cache
            .terms
            .for_each_value(|s| terms += s.resident_digests() as u64);
        (dict + terms + self.resident_doc_digests()) * DIGEST_LEN as u64
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
        use crate::toy::toy_query;
        let key = cached_keypair(TEST_KEY_BITS);
        let auth = AuthenticatedIndex::build(
            toy_index(),
            &key,
            AuthConfig {
                key_bits: TEST_KEY_BITS,
                ..AuthConfig::new(Mechanism::TnraCmht)
            },
            &toy_contents(),
        );
        assert_eq!(auth.cache_resident_bytes_now(), 0);
        let _ = auth.query(&toy_query(), 2, &toy_contents());
        let live = auth.cache_resident_bytes_now();
        assert!(live > 0);
        // Live residency never exceeds the report's worst-case bound.
        assert!(live <= auth.space_report(0).cache_resident_bytes);
    }

    #[test]
    fn resident_document_levels_are_counted_exactly() {
        use authsearch_crypto::merkle::interior_len;
        let key = cached_keypair(TEST_KEY_BITS);
        let build = |serve_cache: bool| {
            AuthenticatedIndex::build(
                toy_index(),
                &key,
                AuthConfig {
                    key_bits: TEST_KEY_BITS,
                    serve_cache,
                    ..AuthConfig::new(Mechanism::TraMht)
                },
                &toy_contents(),
            )
        };
        let cached = build(true);
        let levels: u64 = (0..cached.index().num_docs() as u32)
            .map(|d| interior_len(cached.doc_table().doc_terms(d).len()) as u64)
            .sum();
        let want = levels * DIGEST_LEN as u64;
        assert!(want > 0);
        // Before any query only the document levels are resident; the
        // report's bound adds the term LRU at capacity on top.
        assert_eq!(cached.cache_resident_bytes_now(), want);
        assert!(cached.space_report(0).cache_resident_bytes > want);
        let paper = build(false);
        assert_eq!(paper.cache_resident_bytes_now(), 0);
        assert_eq!(paper.space_report(0).cache_resident_bytes, 0);
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
