//! Engine-side structure cache (the VO-construction hot path).
//!
//! The paper's storage model ([13], §3.3.1) keeps only roots and leaves
//! on disk and regenerates every interior digest at query time; the seed
//! reproduction did exactly that, so each query rehashed entire term
//! structures — and, in dictionary-MHT mode, all `m` dictionary leaves.
//! This module gives [`AuthenticatedIndex`] a server-side cache:
//!
//! * the **dictionary-MHT** is materialized once at construction and
//!   reused by every query;
//! * **term structures** (term-MHTs / chain-MHTs) are materialized on
//!   first use and kept in a bounded, sharded LRU ([`ShardedLru`]) keyed
//!   by [`TermId`], so hot terms skip the leaf-layer rehash entirely and
//!   concurrent queries ([`AuthenticatedIndex::serve_batch`]) only
//!   contend when two lookups hash to the same shard;
//! * **document-MHTs** (TRA) are not cached at all: the owner build
//!   already folds every document's tree for its root, so it keeps each
//!   tree's levels above the leaves ([`ServeCache::doc_levels`]) and
//!   every document proof reads them.
//!
//! Proof **bit-compatibility** is the invariant: a cached structure is
//! the same `MerkleTree` / `ChainMht` value that a fresh build from the
//! stored leaves produces, and a resident document tree holds the same
//! interior digests, so roots, proofs, and signatures are byte-identical
//! whether the cache is on ([`AuthConfig::serve_cache`]) or off (the
//! paper's regenerate-from-leaves model, kept for the space benchmarks —
//! see [`super::space`]).
//!
//! The simulated disk trace is *not* affected by the cache: the I/O
//! metrics continue to model the paper's storage layout so Figures 13–15
//! remain comparable; the cache removes CPU (hashing) cost only.

use super::{term_leaves, AuthConfig, AuthenticatedIndex};
use crate::cache::ShardedLru;
use authsearch_corpus::TermId;
use authsearch_crypto::merkle::interior_len;
use authsearch_crypto::{ChainMht, Digest, MerkleTree};
use authsearch_index::InvertedList;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A materialized per-term authentication structure.
#[derive(Debug, Clone)]
pub(crate) enum TermStructure {
    /// Plain term-MHT over the whole list.
    Mht(MerkleTree),
    /// Chain of per-block MHTs (§3.3.2).
    Cmht(ChainMht),
}

impl TermStructure {
    /// Build from a list's stored leaf layer — the single source of truth
    /// for both the cached and the regenerate-from-leaves paths.
    pub(crate) fn build(config: &AuthConfig, list: &InvertedList) -> TermStructure {
        let leaves = term_leaves(config.mechanism, list);
        if config.mechanism.is_cmht() {
            TermStructure::Cmht(ChainMht::build(leaves, config.chain_capacity()))
        } else {
            TermStructure::Mht(MerkleTree::from_leaf_digests(leaves))
        }
    }

    /// Root (MHT) or head (chain-MHT) digest.
    pub(crate) fn root(&self) -> Digest {
        match self {
            TermStructure::Mht(tree) => tree.root(),
            TermStructure::Cmht(chain) => chain.head_digest(),
        }
    }

    /// Digests held resident by this materialized structure (all MHT
    /// levels, or chain leaves + block digests) — the space-accounting
    /// counterpart of the paper's "only roots and leaves are stored".
    pub(crate) fn resident_digests(&self) -> usize {
        match self {
            TermStructure::Mht(tree) => mht_resident_digests(tree.num_leaves()) as usize,
            TermStructure::Cmht(chain) => chain.num_leaves() + chain.num_blocks(),
        }
    }
}

/// Digests a fully materialized MHT over `n` leaves holds: the sum of
/// every level's width under the odd-node-promotion shape (Figure 8).
/// Shared by the cache accounting here and the worst-case residency
/// bound in [`super::space`].
pub(crate) fn mht_resident_digests(n: usize) -> u64 {
    (n + interior_len(n)) as u64
}

/// Cache state attached to one [`AuthenticatedIndex`].
///
/// The term LRU is **sharded** ([`ShardedLru`]): N power-of-two shards,
/// each behind its own lock, with keys routed by `TermId` hash. Under the
/// concurrent serving path ([`AuthenticatedIndex::serve_batch`]) parallel
/// lookups therefore contend only on shard collisions instead of
/// serializing every query on one global mutex; hit/miss counters are
/// aggregated across shards for [`CacheStats`]. Document-MHTs need no
/// cache: with the serve cache on, every TRA document's interior levels
/// are resident from construction ([`ServeCache::doc_levels`]).
#[derive(Debug)]
pub(crate) struct ServeCache {
    /// Dictionary-MHT, materialized once (dictionary mode + cache on).
    pub(crate) dict_tree: Option<MerkleTree>,
    /// Sharded bounded LRU of materialized term structures.
    pub(crate) terms: ShardedLru<TermId, Arc<TermStructure>>,
    /// Per document, its document-MHT's levels above the leaves
    /// ([`authsearch_crypto::merkle::interior_levels`]), kept by the
    /// owner build and rebuilt at snapshot boot. One entry per document
    /// under TRA with the cache on; empty otherwise (TNRA ships no
    /// document proofs, and paper mode regenerates every tree from its
    /// leaves). Leaf digests are not kept: a proof rehashes the few
    /// unrevealed sibling leaves it needs.
    pub(crate) doc_levels: Vec<Box<[Digest]>>,
    /// Document proofs served from [`ServeCache::doc_levels`].
    doc_hits: AtomicU64,
    /// Document proofs regenerated from leaves (paper mode).
    doc_misses: AtomicU64,
}

impl ServeCache {
    /// Cache sized per the configuration (term capacity 0 when the cache
    /// is disabled, which makes every lookup a miss), holding the
    /// structures the build or boot already made resident.
    pub(crate) fn new(
        config: &AuthConfig,
        dict_tree: Option<MerkleTree>,
        doc_levels: Vec<Box<[Digest]>>,
    ) -> ServeCache {
        let term_capacity = if config.serve_cache {
            config.term_cache_capacity
        } else {
            0
        };
        ServeCache {
            dict_tree,
            terms: ShardedLru::new(term_capacity, config.cache_shards),
            doc_levels,
            doc_hits: AtomicU64::new(0),
            doc_misses: AtomicU64::new(0),
        }
    }

    /// Count `proofs` document proofs of one reply as served from the
    /// resident levels, or as regenerated when none are resident.
    pub(crate) fn count_doc_proofs(&self, proofs: usize) {
        let counter = if self.doc_levels.is_empty() {
            &self.doc_misses
        } else {
            &self.doc_hits
        };
        counter.fetch_add(proofs as u64, Ordering::Relaxed);
    }
}

/// Hit/miss counters of the engine's structure caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Term lookups served from the cache.
    pub hits: u64,
    /// Term lookups that had to rebuild from leaves.
    pub misses: u64,
    /// Terms currently materialized.
    pub resident_terms: usize,
    /// Maximum number of materialized terms.
    pub capacity: usize,
    /// Document proofs served from resident document-MHT levels (TRA
    /// with the serve cache on).
    pub doc_hits: u64,
    /// Document proofs whose tree was regenerated from its leaves — the
    /// paper-mode path (`serve_cache: false`); always 0 with the cache on.
    pub doc_misses: u64,
    /// Documents whose document-MHT levels are resident: every document
    /// under TRA with the serve cache on, otherwise 0.
    pub resident_docs: usize,
    /// Equal to [`CacheStats::resident_docs`]: the levels are kept for
    /// every document, so nothing is ever evicted.
    pub doc_capacity: usize,
    /// Lock shards of the term-structure cache (power of two).
    pub term_shards: usize,
}

/// What [`AuthenticatedIndex::warm_cache`] materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmStats {
    /// Term structures materialized into the term LRU.
    pub terms: usize,
    /// Always 0: every document's MHT levels are resident from
    /// construction, so there is nothing left to warm.
    pub docs: usize,
}

impl AuthenticatedIndex {
    /// Pre-warm the term LRU with the `top_k` terms of **highest
    /// document frequency** (ties by ascending term id) — the head of a
    /// Zipf query workload.
    ///
    /// Called by server startup ([`crate::server`], via
    /// [`crate::server::ServerConfig::warm_top_k`]) so the first wave of
    /// traffic hits warm structures instead of stampeding the sharded
    /// LRU with concurrent cold builds; callable standalone for offline
    /// warm-up. Materialization fans out over the persistent
    /// [`serve pool`](AuthenticatedIndex::serve_pool).
    ///
    /// `top_k` is clamped to the term LRU's capacity (warming past it
    /// would only evict hotter entries). A no-op returning zeros when
    /// the serve cache is disabled. Warm lookups count as ordinary
    /// misses in [`CacheStats`]; proofs are bit-identical either way —
    /// warming moves CPU cost, never results.
    ///
    /// The returned [`WarmStats`] report what is actually **resident**
    /// after warming (capped at the attempted count): capacity is
    /// enforced per [`crate::cache::ShardedLru`] shard, so warming
    /// close to the total capacity can still evict within unlucky
    /// shards — the numbers are honest about that rather than assuming
    /// every insert stuck.
    pub fn warm_cache(&self, top_k: usize) -> WarmStats {
        if !self.config.serve_cache || top_k == 0 {
            return WarmStats::default();
        }
        let m = self.index.num_terms();
        let mut by_df: Vec<TermId> = (0..m as TermId).collect();
        by_df.sort_unstable_by_key(|&t| (std::cmp::Reverse(self.index.ft(t)), t));
        by_df.truncate(top_k.min(self.config.term_cache_capacity));

        self.serve_pool().scope(|s| {
            for &t in &by_df {
                s.spawn(move || {
                    let _ = self.term_structure(t);
                });
            }
        });
        WarmStats {
            terms: self.cache_stats().resident_terms.min(by_df.len()),
            docs: 0,
        }
    }

    /// Drop every materialized term structure from the LRU (the
    /// dictionary-MHT and the document-MHT levels, built once at
    /// construction, are kept). An ops / benchmarking knob — the next
    /// queries rebuild from leaves exactly as a cold start would, with
    /// bit-identical proofs.
    pub fn clear_serve_cache(&self) {
        self.cache.terms.clear();
    }

    /// The materialized structure for `term`: from the cache when
    /// enabled (building and inserting on miss), fresh otherwise.
    ///
    /// Building happens outside any shard lock; two racing queries may
    /// both build, but the structures are identical by construction so
    /// either insert is correct.
    pub(crate) fn term_structure(&self, term: TermId) -> Arc<TermStructure> {
        if self.config.serve_cache {
            if let Some(hit) = self.cache.terms.get(&term) {
                return hit;
            }
        }
        let built = Arc::new(TermStructure::build(&self.config, self.index.list(term)));
        if self.config.serve_cache {
            self.cache.terms.put(term, Arc::clone(&built));
        }
        built
    }

    /// Snapshot of the structure-cache counters, aggregated across every
    /// shard (for benchmarks and ops).
    pub fn cache_stats(&self) -> CacheStats {
        let terms = self.cache.terms.stats();
        let resident_docs = self.cache.doc_levels.len();
        CacheStats {
            hits: terms.hits,
            misses: terms.misses,
            resident_terms: terms.len,
            capacity: terms.capacity,
            doc_hits: self.cache.doc_hits.load(Ordering::Relaxed),
            doc_misses: self.cache.doc_misses.load(Ordering::Relaxed),
            resident_docs,
            doc_capacity: resident_docs,
            term_shards: self.cache.terms.num_shards(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::tests_support::test_auth;
    use crate::toy::{toy_contents, toy_query};
    use crate::vo::Mechanism;

    #[test]
    fn term_structures_match_fresh_builds() {
        for mechanism in Mechanism::ALL {
            let auth = test_auth(mechanism, true);
            for t in 0..auth.index().num_terms() as TermId {
                let cached = auth.term_structure(t);
                let fresh = TermStructure::build(auth.config(), auth.index().list(t));
                assert_eq!(cached.root(), fresh.root(), "term {t} ({mechanism:?})");
                assert_eq!(cached.root(), auth.term_root(t));
            }
        }
    }

    #[test]
    fn cache_hits_on_repeated_queries() {
        let auth = test_auth(Mechanism::TnraCmht, true);
        let before = auth.cache_stats();
        assert_eq!(before.hits, 0);
        let _ = auth.query(&toy_query(), 2, &toy_contents());
        let after_first = auth.cache_stats();
        assert!(after_first.misses > 0);
        assert!(after_first.resident_terms > 0);
        let _ = auth.query(&toy_query(), 2, &toy_contents());
        let after_second = auth.cache_stats();
        assert!(after_second.hits >= after_first.resident_terms as u64);
        assert_eq!(after_second.misses, after_first.misses);
    }

    #[test]
    fn disabled_cache_never_retains() {
        let auth = test_auth(Mechanism::TnraCmht, false);
        let _ = auth.query(&toy_query(), 2, &toy_contents());
        let stats = auth.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.resident_terms, 0);
        assert_eq!(stats.capacity, 0);
        assert_eq!(stats.resident_docs, 0);
    }

    #[test]
    fn doc_levels_resident_for_cached_tra_only() {
        // Every TRA document's levels are resident after the build and
        // after a snapshot boot, so no document proof regenerates a tree.
        // TNRA holds none, and neither does paper mode.
        let dir = std::env::temp_dir().join("authsearch-doc-levels");
        std::fs::create_dir_all(&dir).unwrap();
        for mechanism in Mechanism::ALL {
            for serve_cache in [true, false] {
                let built = test_auth(mechanism, serve_cache);
                let path = dir.join(format!("{mechanism:?}-{serve_cache}.snap"));
                built.save_snapshot(&path).unwrap();
                let booted = AuthenticatedIndex::load_snapshot(&path, built.config()).unwrap();
                std::fs::remove_file(&path).ok();
                std::fs::remove_file(authsearch_index::persist::manifest_path(&path)).ok();
                let tra = mechanism.is_tra();
                let resident = if tra && serve_cache {
                    built.index().num_docs()
                } else {
                    0
                };
                for (auth, how) in [(&built, "built"), (&booted, "booted")] {
                    let what = format!("{mechanism:?} serve_cache={serve_cache} {how}");
                    let response = auth.query(&toy_query(), 2, &toy_contents());
                    let proofs = response.vo.docs.len() as u64;
                    let stats = auth.cache_stats();
                    assert_eq!(stats.resident_docs, resident, "{what}");
                    assert_eq!(stats.doc_capacity, resident, "{what}");
                    assert_eq!(proofs > 0, tra, "{what}");
                    let (hits, misses) = if serve_cache {
                        (proofs, 0)
                    } else {
                        (0, proofs)
                    };
                    assert_eq!((stats.doc_hits, stats.doc_misses), (hits, misses), "{what}");
                }
                assert_eq!(built.cache.doc_levels, booted.cache.doc_levels);
            }
        }
    }

    #[test]
    fn doc_structures_match_fresh_builds() {
        use super::super::doc_leaf_digest;
        use authsearch_corpus::DocId;
        use authsearch_crypto::merkle::interior_levels;
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
    fn cache_stats_report_shard_counts() {
        let auth = test_auth(Mechanism::TraMht, true);
        let stats = auth.cache_stats();
        assert!(stats.term_shards.is_power_of_two());
        assert!(stats.term_shards >= 1);
        // Capacity is preserved exactly under sharding.
        assert_eq!(stats.capacity, auth.config().term_cache_capacity);
    }

    #[test]
    fn poisoned_shard_does_not_kill_serving() {
        // A worker panicking while holding a shard lock must not take
        // the engine down: the guard is recovered (the LRU is left
        // structurally valid by every operation) and later queries on
        // the same shard keep being served.
        let auth = test_auth(Mechanism::TraCmht, true);
        let before = auth.query(&toy_query(), 2, &toy_contents());
        for t in 0..auth.index().num_terms() as TermId {
            auth.cache.terms.poison_shard_of(&t);
        }
        let after = auth.query(&toy_query(), 2, &toy_contents());
        assert_eq!(before.vo, after.vo);
        assert_eq!(before.result, after.result);
        assert!(auth.cache_stats().hits > 0, "cache still serving hits");
    }

    #[test]
    fn warm_cache_populates_top_df_terms() {
        let auth = test_auth(Mechanism::TnraCmht, true);
        let warmed = auth.warm_cache(3);
        assert_eq!(warmed, WarmStats { terms: 3, docs: 0 });
        let stats = auth.cache_stats();
        assert_eq!(stats.resident_terms, 3);
        assert_eq!(stats.misses, 3, "warm lookups count as ordinary misses");
        // The three warmed terms are exactly the three highest-df terms
        // (ties by ascending id): querying one of them is now a hit.
        let mut by_df: Vec<TermId> = (0..auth.index().num_terms() as TermId).collect();
        by_df.sort_unstable_by_key(|&t| (std::cmp::Reverse(auth.index().ft(t)), t));
        let hits_before = auth.cache_stats().hits;
        let _ = auth.term_structure(by_df[0]);
        let _ = auth.term_structure(by_df[2]);
        assert_eq!(auth.cache_stats().hits, hits_before + 2);
    }

    #[test]
    fn warm_cache_leaves_documents_to_the_build() {
        // The build made every document resident; warming adds terms only
        // and serves bit-identically to an unwarmed engine.
        let auth = test_auth(Mechanism::TraMht, true);
        let resident = auth.cache_stats().resident_docs;
        assert_eq!(resident, auth.index().num_docs());
        assert_eq!(auth.warm_cache(4), WarmStats { terms: 4, docs: 0 });
        assert_eq!(auth.cache_stats().resident_docs, resident);
        let cold = test_auth(Mechanism::TraMht, true);
        let a = auth.query(&toy_query(), 2, &toy_contents());
        let b = cold.query(&toy_query(), 2, &toy_contents());
        assert_eq!(a.vo, b.vo);
        assert_eq!(a.result, b.result);
    }

    #[test]
    fn warm_cache_clamps_and_degenerates_cleanly() {
        let auth = test_auth(Mechanism::TnraCmht, true);
        // Asking for more terms than exist (or than fit) clamps.
        let warmed = auth.warm_cache(usize::MAX);
        assert!(warmed.terms <= auth.config().term_cache_capacity);
        assert_eq!(warmed.terms, auth.index().num_terms());
        // top_k = 0 is a no-op.
        assert_eq!(auth.warm_cache(0), WarmStats::default());
        // Disabled cache: warming has nothing to populate.
        let uncached = test_auth(Mechanism::TnraCmht, false);
        assert_eq!(uncached.warm_cache(8), WarmStats::default());
        assert_eq!(uncached.cache_stats().resident_terms, 0);
    }

    #[test]
    fn clear_serve_cache_forces_cold_rebuilds() {
        let auth = test_auth(Mechanism::TraCmht, true);
        let warm_response = auth.query(&toy_query(), 2, &toy_contents());
        assert!(auth.cache_stats().resident_terms > 0);
        let resident_docs = auth.cache_stats().resident_docs;
        auth.clear_serve_cache();
        let stats = auth.cache_stats();
        assert_eq!(stats.resident_terms, 0);
        // Document levels belong to the artifact, not to the LRU.
        assert_eq!(stats.resident_docs, resident_docs);
        // Cold rebuilds produce bit-identical responses.
        let cold_response = auth.query(&toy_query(), 2, &toy_contents());
        assert_eq!(warm_response.vo, cold_response.vo);
    }

    #[test]
    fn resident_digest_counts() {
        // 7-leaf MHT: widths 7,4,2,1 → 14 digests resident.
        let leaves: Vec<Digest> = (0..7u32).map(|i| Digest::hash(&i.to_le_bytes())).collect();
        let mht = TermStructure::Mht(MerkleTree::from_leaf_digests(leaves.clone()));
        assert_eq!(mht.resident_digests(), 14);
        // Chain of 7 leaves in blocks of 3 → 7 + 3 block digests.
        let cmht = TermStructure::Cmht(ChainMht::build(leaves, 3));
        assert_eq!(cmht.resident_digests(), 10);
    }
}
