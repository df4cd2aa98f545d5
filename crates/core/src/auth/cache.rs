//! Engine-side resident structures (the VO-construction hot path).
//!
//! The paper's storage model ([13], §3.3.1) keeps only roots and leaves
//! on disk and regenerates every interior digest at query time, so each
//! query rehashes entire term structures — and, in dictionary-MHT mode,
//! all `m` dictionary leaves. The owner build (and a snapshot boot)
//! already folds every one of those structures once for its root, so
//! with [`AuthConfig::serve_cache`] on it keeps what the fold produced:
//!
//! * the **dictionary-MHT**, whole;
//! * every **term structure**, indexed by term id
//!   ([`ServeCache::terms`]): a plain term-MHT's levels above its
//!   leaves, or the whole chain-MHT;
//! * every **document-MHT**'s levels above its leaves (TRA,
//!   [`ServeCache::doc_levels`]).
//!
//! Nothing is built, inserted or evicted while serving, so a reply reads
//! these structures without taking a lock.
//!
//! Proof **bit-compatibility** is the invariant: a resident structure
//! holds the digests a fresh build from the stored leaves produces, so
//! roots, proofs, and signatures are byte-identical whether the
//! structures are resident or regenerated per query (`serve_cache:
//! false`, the paper's model, kept as the reference the tests compare
//! against and for the space benchmarks — see [`super::space`]).
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
    /// single source of truth for the build, the boot, and paper mode.
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

/// Proofs of one kind made from resident structures (hits) or
/// regenerated from leaves (misses).
#[derive(Debug, Default)]
struct ProofCounter {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProofCounter {
    fn add(&self, resident: bool, proofs: usize) {
        let counter = if resident { &self.hits } else { &self.misses };
        counter.fetch_add(proofs as u64, Ordering::Relaxed);
    }

    fn read(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// The structures one [`AuthenticatedIndex`] proves from, all resident
/// from its build or boot (empty in paper mode, which regenerates each
/// structure from its leaves per query), and the proof counters.
#[derive(Debug)]
pub(crate) struct ServeCache {
    /// Dictionary-MHT (dictionary mode with the serve cache on).
    pub(crate) dict_tree: Option<MerkleTree>,
    /// Every term's structure, indexed by term id.
    pub(crate) terms: Vec<TermStructure>,
    /// Per document, its document-MHT's levels above the leaves
    /// ([`interior_levels`]). One entry per document under TRA; TNRA
    /// ships no document proofs. Leaf digests are not kept: a proof
    /// rehashes the few unrevealed sibling leaves it needs.
    pub(crate) doc_levels: Vec<Box<[Digest]>>,
    term_proofs: ProofCounter,
    doc_proofs: ProofCounter,
}

impl ServeCache {
    /// The structures the build or boot made resident.
    pub(crate) fn new(
        dict_tree: Option<MerkleTree>,
        terms: Vec<TermStructure>,
        doc_levels: Vec<Box<[Digest]>>,
    ) -> ServeCache {
        ServeCache {
            dict_tree,
            terms,
            doc_levels,
            term_proofs: ProofCounter::default(),
            doc_proofs: ProofCounter::default(),
        }
    }

    /// Count one reply's `terms` term proofs and `docs` document proofs,
    /// each as served from resident structures or as regenerated when
    /// none are resident.
    pub(crate) fn count_proofs(&self, terms: usize, docs: usize) {
        self.term_proofs.add(!self.terms.is_empty(), terms);
        self.doc_proofs.add(!self.doc_levels.is_empty(), docs);
    }
}

/// Counters of the engine's resident structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Term proofs served from resident term structures.
    pub hits: u64,
    /// Term proofs whose structure was regenerated from its leaves — the
    /// paper-mode path (`serve_cache: false`); always 0 with the cache on.
    pub misses: u64,
    /// Terms whose structure is resident: every term with the serve
    /// cache on, otherwise 0.
    pub resident_terms: usize,
    /// Document proofs served from resident document-MHT levels (TRA
    /// with the serve cache on).
    pub doc_hits: u64,
    /// Document proofs whose tree was regenerated from its leaves — the
    /// paper-mode path; always 0 with the cache on.
    pub doc_misses: u64,
    /// Documents whose document-MHT levels are resident: every document
    /// under TRA with the serve cache on, otherwise 0.
    pub resident_docs: usize,
}

/// What startup warming materialized ([`crate::ServerHandle::warmed`]).
/// Always zero: every structure is resident from the build or boot, so
/// a server has nothing left to warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
        let (hits, misses) = self.cache.term_proofs.read();
        let (doc_hits, doc_misses) = self.cache.doc_proofs.read();
        CacheStats {
            hits,
            misses,
            resident_terms: self.cache.terms.len(),
            doc_hits,
            doc_misses,
            resident_docs: self.cache.doc_levels.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::tests_support::test_auth;
    use crate::toy::{toy_contents, toy_query};
    use crate::vo::Mechanism;
    use authsearch_corpus::TermId;

    /// Hand `check` a toy engine of every mechanism × serve-cache
    /// setting as built and as booted from its snapshot.
    fn for_built_and_booted(
        tag: &str,
        mut check: impl FnMut(&AuthenticatedIndex, &AuthenticatedIndex),
    ) {
        let dir = std::env::temp_dir().join(format!("authsearch-resident-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        for mechanism in Mechanism::ALL {
            for serve_cache in [true, false] {
                let built = test_auth(mechanism, serve_cache);
                let path = dir.join(format!("{mechanism:?}-{serve_cache}.snap"));
                built.save_snapshot(&path).unwrap();
                let booted = AuthenticatedIndex::load_snapshot(&path, built.config()).unwrap();
                std::fs::remove_file(&path).ok();
                std::fs::remove_file(authsearch_index::persist::manifest_path(&path)).ok();
                check(&built, &booted);
            }
        }
    }

    #[test]
    fn term_structures_match_fresh_builds() {
        for mechanism in Mechanism::ALL {
            let auth = test_auth(mechanism, true);
            for t in 0..auth.index().num_terms() as TermId {
                let (root, fresh) = TermStructure::build(auth.config(), auth.index().list(t));
                assert_eq!(
                    auth.cache.terms[t as usize], fresh,
                    "term {t} ({mechanism:?})"
                );
                assert_eq!(root, auth.term_root(t), "term {t} ({mechanism:?})");
            }
        }
    }

    #[test]
    fn cache_hits_on_repeated_queries() {
        // Every term proof of every query is served from a resident
        // structure, the first query's included.
        let auth = test_auth(Mechanism::TnraCmht, true);
        assert_eq!((auth.cache_stats().hits, auth.cache_stats().misses), (0, 0));
        let terms = toy_query().terms.len() as u64;
        for round in 1..=2 {
            let _ = auth.query(&toy_query(), 2, &toy_contents());
            let stats = auth.cache_stats();
            assert_eq!((stats.hits, stats.misses), (round * terms, 0));
        }
    }

    #[test]
    fn disabled_cache_never_retains() {
        let auth = test_auth(Mechanism::TnraCmht, false);
        let _ = auth.query(&toy_query(), 2, &toy_contents());
        let stats = auth.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, toy_query().terms.len() as u64);
        assert_eq!(stats.resident_terms, 0);
        assert_eq!(stats.resident_docs, 0);
    }

    #[test]
    fn term_structures_resident_for_cached_only() {
        // Every term's structure is resident after the build and after a
        // snapshot boot, under every mechanism, so no term proof
        // regenerates one. Paper mode holds none.
        for_built_and_booted("terms", |built, booted| {
            let config = built.config();
            let resident = if config.serve_cache {
                built.index().num_terms()
            } else {
                0
            };
            for (auth, how) in [(built, "built"), (booted, "booted")] {
                let what = format!(
                    "{:?} serve_cache={} {how}",
                    config.mechanism, config.serve_cache
                );
                let _ = auth.query(&toy_query(), 2, &toy_contents());
                let proofs = toy_query().terms.len() as u64;
                let stats = auth.cache_stats();
                assert_eq!(stats.resident_terms, resident, "{what}");
                let (hits, misses) = if config.serve_cache {
                    (proofs, 0)
                } else {
                    (0, proofs)
                };
                assert_eq!((stats.hits, stats.misses), (hits, misses), "{what}");
            }
            assert_eq!(built.cache.terms, booted.cache.terms);
        });
    }

    #[test]
    fn doc_levels_resident_for_cached_tra_only() {
        // Every TRA document's levels are resident after the build and
        // after a snapshot boot, so no document proof regenerates a tree.
        // TNRA holds none, and neither does paper mode.
        for_built_and_booted("docs", |built, booted| {
            let config = built.config();
            let tra = config.mechanism.is_tra();
            let resident = if tra && config.serve_cache {
                built.index().num_docs()
            } else {
                0
            };
            for (auth, how) in [(built, "built"), (booted, "booted")] {
                let what = format!(
                    "{:?} serve_cache={} {how}",
                    config.mechanism, config.serve_cache
                );
                let response = auth.query(&toy_query(), 2, &toy_contents());
                let proofs = response.vo.docs.len() as u64;
                let stats = auth.cache_stats();
                assert_eq!(stats.resident_docs, resident, "{what}");
                assert_eq!(proofs > 0, tra, "{what}");
                let (hits, misses) = if config.serve_cache {
                    (proofs, 0)
                } else {
                    (0, proofs)
                };
                assert_eq!((stats.doc_hits, stats.doc_misses), (hits, misses), "{what}");
            }
            assert_eq!(built.cache.doc_levels, booted.cache.doc_levels);
        });
    }

    #[test]
    fn doc_structures_match_fresh_builds() {
        use super::super::doc_leaf_digest;
        use authsearch_corpus::DocId;
        let auth = test_auth(Mechanism::TraCmht, true);
        for d in 0..auth.index().num_docs() as DocId {
            let leaves: Vec<Digest> = auth
                .doc_table()
                .doc_terms(d)
                .iter()
                .map(|&(t, w)| doc_leaf_digest(t, w))
                .collect();
            let resident = &auth.cache.doc_levels[d as usize];
            assert_eq!(**resident, *interior_levels(&leaves), "doc {d}");
            if !leaves.is_empty() {
                let fresh = MerkleTree::from_leaf_digests(leaves);
                assert_eq!(fresh.root(), auth.doc_roots[d as usize], "doc {d}");
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
