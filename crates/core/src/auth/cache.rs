//! Engine-side resident structures (the VO-construction hot path).
//!
//! The paper's storage model ([13], §3.3.1) keeps only roots and leaves
//! on disk and regenerates every interior digest at query time. The
//! owner build (and a snapshot boot) already folds every one of those
//! structures once for its root, so it keeps what the fold produced:
//!
//! * the **dictionary-MHT**, whole;
//! * every **term structure**, indexed by term id
//!   ([`ServeCache::terms`]): a plain term-MHT's levels above its
//!   leaves, or the whole chain-MHT;
//! * every **document-MHT**'s levels above its leaves (TRA,
//!   [`ServeCache::doc_levels`]).
//!
//! Every reply proves from these. Nothing is built, inserted or evicted
//! while serving, so a reply reads them without taking a lock.
//!
//! A resident structure holds the digests a fresh fold of the stored
//! leaves produces, so its proofs are the ones that fold gives; the
//! serve tests compare the two (`resident_proofs_match_fresh_trees`).
//!
//! The simulated disk trace is *not* affected: the I/O metrics continue
//! to model the paper's storage layout so Figures 13–15 remain
//! comparable; residency removes CPU (hashing) cost only.

use super::{term_leaves, AuthConfig, AuthenticatedIndex};
use authsearch_crypto::merkle::{interior_len, interior_levels};
use authsearch_crypto::{ChainMht, Digest, MerkleTree};
use authsearch_index::InvertedList;
use std::sync::atomic::{AtomicU64, Ordering};

/// A term's authentication structure, as the engine proves from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TermStructure {
    /// Plain term-MHT: its levels above the leaves ([`interior_levels`]),
    /// the same slice a document-MHT keeps. A prefix proof needs at most
    /// one unrevealed leaf, which it rehashes from the list.
    Mht(Box<[Digest]>),
    /// Chain of per-block MHTs (§3.3.2).
    Cmht(ChainMht),
}

impl TermStructure {
    /// Fold a list's stored leaf layer into its root (plain MHT) or head
    /// (chain-MHT) digest and the structure its proofs come from — the
    /// single source of truth for the build, the boot, and the tests'
    /// fresh-fold reference.
    pub(crate) fn build(config: &AuthConfig, list: &InvertedList) -> (Digest, TermStructure) {
        let leaves = term_leaves(config.mechanism, list);
        if config.mechanism.is_cmht() {
            let chain = ChainMht::build(leaves, config.chain_capacity());
            (chain.head_digest(), TermStructure::Cmht(chain))
        } else {
            let interior = interior_levels(&leaves);
            let root = *interior
                .last()
                .or(leaves.first())
                .expect("indexed lists are never empty");
            (root, TermStructure::Mht(interior.into_boxed_slice()))
        }
    }

    /// Digests this structure holds resident: the interior levels of a
    /// plain MHT, or a chain's leaves plus its block digests.
    pub(crate) fn resident_digests(&self) -> usize {
        match self {
            TermStructure::Mht(interior) => interior.len(),
            TermStructure::Cmht(chain) => chain.num_leaves() + chain.num_blocks(),
        }
    }
}

/// Digests a fully materialized MHT over `n` leaves holds: the sum of
/// every level's width under the odd-node-promotion shape (Figure 8).
/// The resident dictionary-MHT keeps its leaves as well as its interior.
pub(crate) fn mht_resident_digests(n: usize) -> u64 {
    (n + interior_len(n)) as u64
}

/// The structures one [`AuthenticatedIndex`] proves from, all resident
/// from its build or boot, and the proof counters.
#[derive(Debug)]
pub(crate) struct ServeCache {
    /// The dictionary-MHT, leaves included.
    pub(crate) dict_tree: MerkleTree,
    /// Every term's structure, indexed by term id.
    pub(crate) terms: Vec<TermStructure>,
    /// Per document, its document-MHT's levels above the leaves
    /// ([`interior_levels`]). One entry per document under TRA; TNRA
    /// ships no document proofs. Leaf digests are not kept: a proof
    /// rehashes the few unrevealed sibling leaves it needs.
    pub(crate) doc_levels: Vec<Box<[Digest]>>,
    term_proofs: AtomicU64,
    doc_proofs: AtomicU64,
}

impl ServeCache {
    /// The structures the build or boot made resident.
    pub(crate) fn new(
        dict_tree: MerkleTree,
        terms: Vec<TermStructure>,
        doc_levels: Vec<Box<[Digest]>>,
    ) -> ServeCache {
        ServeCache {
            dict_tree,
            terms,
            doc_levels,
            term_proofs: AtomicU64::new(0),
            doc_proofs: AtomicU64::new(0),
        }
    }

    /// Count one reply's `terms` term proofs and `docs` document proofs.
    pub(crate) fn count_proofs(&self, terms: usize, docs: usize) {
        self.term_proofs.fetch_add(terms as u64, Ordering::Relaxed);
        self.doc_proofs.fetch_add(docs as u64, Ordering::Relaxed);
    }
}

/// Counters of the engine's resident structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Term proofs served, all from resident term structures.
    pub hits: u64,
    /// Always 0: no term structure is rebuilt while serving.
    pub misses: u64,
    /// Terms whose structure is resident: every term.
    pub resident_terms: usize,
    /// Document proofs served (TRA), all from resident document-MHT
    /// levels.
    pub doc_hits: u64,
    /// Always 0: no document-MHT is rebuilt while serving.
    pub doc_misses: u64,
    /// Documents whose document-MHT levels are resident: every document
    /// under TRA, 0 under TNRA.
    pub resident_docs: usize,
}

/// What startup warming materialized ([`crate::ServerHandle::warmed`]).
/// Always zero: every structure is resident from the build or boot, so
/// a server has nothing left to warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
// lint:allow(unused-pub): reached only as the value of `ServerHandle::warmed`
pub struct WarmStats {
    /// Always 0.
    pub terms: usize,
    /// Always 0.
    pub docs: usize,
}

impl AuthenticatedIndex {
    /// Snapshot of the resident-structure counters (for benchmarks and
    /// ops).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache.term_proofs.load(Ordering::Relaxed),
            misses: 0,
            resident_terms: self.cache.terms.len(),
            doc_hits: self.cache.doc_proofs.load(Ordering::Relaxed),
            doc_misses: 0,
            resident_docs: self.cache.doc_levels.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::dict_leaf_digest;
    use crate::auth::tests_support::test_auth;
    use crate::toy::{toy_contents, toy_query};
    use crate::vo::Mechanism;
    use authsearch_corpus::TermId;

    #[test]
    fn term_structures_match_fresh_builds() {
        for mechanism in Mechanism::ALL {
            let auth = test_auth(mechanism);
            for t in 0..auth.index().num_terms() as TermId {
                let (root, fresh) = TermStructure::build(auth.config(), auth.index().list(t));
                assert_eq!(
                    auth.cache.terms[t as usize], fresh,
                    "term {t} ({mechanism:?})"
                );
                let leaf = dict_leaf_digest(t, auth.index().ft(t), &root);
                assert_eq!(leaf, auth.dict_leaf(t), "term {t} ({mechanism:?})");
            }
        }
    }

    #[test]
    fn cache_hits_on_repeated_queries() {
        // Every term proof of every query is served from a resident
        // structure, the first query's included.
        let auth = test_auth(Mechanism::TnraCmht);
        assert_eq!((auth.cache_stats().hits, auth.cache_stats().misses), (0, 0));
        let terms = toy_query().terms().len() as u64;
        for round in 1..=2 {
            let _ = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
            let stats = auth.cache_stats();
            assert_eq!((stats.hits, stats.misses), (round * terms, 0));
        }
    }

    #[test]
    fn structures_resident_when_built_and_booted() {
        // Every term's structure, and under TRA every document's levels,
        // is resident after the build and after a snapshot boot, so every
        // proof of a reply is served from one. TNRA holds no document
        // levels and ships no document proofs.
        let dir = std::env::temp_dir().join("authsearch-resident");
        std::fs::create_dir_all(&dir).unwrap();
        for mechanism in Mechanism::ALL {
            let built = test_auth(mechanism);
            let path = dir.join(format!("{mechanism:?}.snap"));
            built.save_snapshot(&path).unwrap();
            let booted = AuthenticatedIndex::load_snapshot(&path, built.config()).unwrap();
            std::fs::remove_file(&path).ok();
            std::fs::remove_file(authsearch_index::persist::manifest_path(&path)).ok();
            let tra = mechanism.is_tra();
            let docs = if tra { built.index().num_docs() } else { 0 };
            for (auth, how) in [(&built, "built"), (&booted, "booted")] {
                let what = format!("{mechanism:?} {how}");
                let response = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
                let doc_proofs = response.vo.docs.len() as u64;
                assert_eq!(doc_proofs > 0, tra, "{what}");
                let stats = auth.cache_stats();
                let want = CacheStats {
                    hits: toy_query().terms().len() as u64,
                    misses: 0,
                    resident_terms: built.index().num_terms(),
                    doc_hits: doc_proofs,
                    doc_misses: 0,
                    resident_docs: docs,
                };
                assert_eq!(stats, want, "{what}");
            }
            assert_eq!(built.cache.terms, booted.cache.terms, "{mechanism:?}");
            assert_eq!(
                built.cache.dict_tree.leaf_digests(),
                booted.cache.dict_tree.leaf_digests(),
                "{mechanism:?}"
            );
            assert_eq!(
                built.cache.doc_levels, booted.cache.doc_levels,
                "{mechanism:?}"
            );
        }
    }

    #[test]
    fn doc_structures_match_fresh_builds() {
        use super::super::doc_leaf_digests;
        use authsearch_corpus::DocId;
        let auth = test_auth(Mechanism::TraCmht);
        for d in 0..auth.index().num_docs() as DocId {
            let leaves = doc_leaf_digests(auth.doc_table(), d);
            let resident = &auth.cache.doc_levels[d as usize];
            assert_eq!(**resident, *interior_levels(&leaves), "doc {d}");
            if !leaves.is_empty() {
                // The publication holds the root a fresh fold gives.
                let fresh = MerkleTree::from_leaf_digests(leaves);
                let held = auth.publication().doc(d).unwrap();
                assert_eq!(held.root, fresh.root(), "doc {d}");
            }
        }
    }

    #[test]
    fn resident_digest_counts() {
        // 7-leaf MHT: interior widths 4,2,1 → 7 digests resident.
        let leaves: Vec<Digest> = (0..7u32).map(|i| Digest::hash(&i.to_le_bytes())).collect();
        let mht = TermStructure::Mht(interior_levels(&leaves).into_boxed_slice());
        assert_eq!(mht.resident_digests(), 7);
        // Chain of 7 leaves in blocks of 3 → 7 + 3 block digests.
        let cmht = TermStructure::Cmht(ChainMht::build(leaves, 3));
        assert_eq!(cmht.resident_digests(), 10);
    }
}
