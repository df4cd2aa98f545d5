//! Owner-side authentication structures (paper §3.3, §3.4).
//!
//! The data owner builds, once, for the whole collection:
//!
//! * a **term-MHT** (or **chain-MHT**) over every inverted list, its root
//!   (head) digest bound to the term and `f_t` by a signature;
//! * for the TRA mechanisms, a **document-MHT** over every document's
//!   `(t, w_{d,t})` leaves, its root bound to the document id and the
//!   digest of the document's content by `doc_message` — and one
//!   **document-table MHT** over those messages' digests, in doc-id
//!   order, whose root carries the collection's single document-side
//!   signature (the paper signs every document instead; see
//!   `doc_table_message`);
//! * optionally (§3.4), a single **dictionary-MHT** over all term roots,
//!   replacing the per-list signatures with one signature at the cost of
//!   extra digests per VO.
//!
//! Following \[13\] (and §3.3.1), only roots and leaves are stored;
//! intermediate digests are regenerated at runtime — which is exactly why
//! the plain-MHT variants must re-read entire inverted lists at query time
//! while the chain-MHT variants stop at the cut-off block.
//!
//! ## Cache vs. the paper's storage model
//!
//! Regenerating interior digests on every query is the right *storage*
//! trade-off (the paper's §3.4 space analysis depends on it) but a poor
//! *serving* trade-off: a production engine answering heavy traffic
//! re-hashes the same hot lists — and in dictionary-MHT mode all `m`
//! dictionary leaves — thousands of times over. The build folds every
//! structure once for its root anyway, so [`AuthConfig::serve_cache`]
//! (default **on**) keeps what that fold produced, for every structure:
//! the dictionary-MHT, every term's (chain-)MHT ([`term_structures`]),
//! and every document-MHT's levels above its leaves (TRA, [`doc_mhts`]).
//! A snapshot boot refolds them the same way. Resident and regenerated
//! structures are *bit-identical* — same roots, same proofs, same
//! signatures — so verification is unaffected; only engine CPU time
//! changes. The simulated disk accounting deliberately keeps modeling
//! the paper's on-disk layout in both modes, so the I/O figures stay
//! comparable. Setting `serve_cache: false` restores the paper's
//! regenerate-from-leaves behavior exactly; [`space::SpaceReport`]
//! reports the residency cost of both modes.

mod cache;
pub mod serve;
pub mod snapshot;
pub mod space;

pub use cache::{CacheStats, WarmStats};
pub use snapshot::{boot_authenticated_index, BootReport, BootSource};

use crate::pool::ThreadPool;
use crate::types::DocTable;
use crate::vo::Mechanism;
use authsearch_corpus::{DocId, TermId};
use authsearch_crypto::keys::PAPER_KEY_BITS;
use authsearch_crypto::merkle::interior_levels;
use authsearch_crypto::{Digest, MerkleTree, RsaPrivateKey, RsaPublicKey};
use authsearch_index::{BlockLayout, ImpactEntry, InvertedIndex, InvertedList};
use std::sync::{Arc, Mutex};

/// Source of raw document contents (for `h(doc)`); implemented by
/// [`authsearch_corpus::Corpus`] and by plain `Vec<Vec<u8>>` fixtures.
///
/// `Sync` is a supertrait because the parallel owner build
/// ([`AuthenticatedIndex::build`]) hashes document contents from several
/// worker threads at once.
pub trait ContentProvider: Sync {
    /// Canonical content bytes of document `d`.
    fn content(&self, d: DocId) -> Vec<u8>;
}

impl ContentProvider for authsearch_corpus::Corpus {
    fn content(&self, d: DocId) -> Vec<u8> {
        self.content_bytes(d)
    }
}

impl ContentProvider for Vec<Vec<u8>> {
    fn content(&self, d: DocId) -> Vec<u8> {
        self[d as usize].clone()
    }
}

/// Authentication configuration.
///
/// [`AuthConfig::new`] is the paper's configuration for a mechanism;
/// individual knobs are overridden with struct-update syntax:
///
/// ```
/// use authsearch_core::{AuthConfig, Mechanism};
///
/// let config = AuthConfig {
///     threads: 1, // exact sequential paper model (default 0 = all cores)
///     ..AuthConfig::new(Mechanism::TnraCmht)
/// };
/// assert!(config.buddy); // chain-MHT mechanisms default buddy on
/// assert_eq!(config.build_threads(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuthConfig {
    /// Query-processing + authentication mechanism.
    pub mechanism: Mechanism,
    /// Disk block layout (determines ρ / ρ′).
    pub layout: BlockLayout,
    /// Buddy inclusion (paper default: on for CMHT, off for plain MHT).
    pub buddy: bool,
    /// Replace per-list signatures with one dictionary-MHT signature
    /// (§3.4 space optimization; off by default — the paper finds the
    /// trade-off unappealing except under storage pressure).
    pub dict_mht: bool,
    /// RSA modulus size (paper: 1024).
    pub key_bits: usize,
    /// Keep every authentication structure the build (or snapshot boot)
    /// folds resident at the engine: the dictionary-MHT, every term's
    /// (chain-)MHT, every document-MHT's interior levels. `false`
    /// reproduces the paper's regenerate-from-leaves storage model
    /// byte-for-byte on every query. Proof output is bit-identical
    /// either way; see the module docs for the trade-off.
    pub serve_cache: bool,
    /// Worker threads for the owner-side build
    /// ([`AuthenticatedIndex::build`]) **and** the engine-side batch
    /// serving path ([`AuthenticatedIndex::serve_batch`]): `0` (the
    /// default) uses the machine's available parallelism, `1` runs the
    /// paper's sequential model on the calling thread, and `n ≥ 2` fans
    /// the per-term/per-document (build) or per-query (serve) work out
    /// over a [`crate::pool::ThreadPool`]. Artifacts and per-query VOs
    /// are **bit-identical for every value** — only wall-clock time
    /// changes.
    ///
    /// The default can be forced process-wide through the
    /// `AUTHSEARCH_THREADS` environment variable (read by
    /// [`AuthConfig::new`]; explicit struct updates still win), which is
    /// how CI runs the whole test suite at `threads = 1` and
    /// `threads = 4` without touching every call site.
    pub threads: usize,
}

impl AuthConfig {
    /// The paper's configuration for a mechanism.
    ///
    /// The default [`AuthConfig::threads`] is `0` (auto), unless the
    /// `AUTHSEARCH_THREADS` environment variable holds a number — the
    /// process-wide override CI uses to pin the whole suite to a thread
    /// count. Explicit `threads:` struct updates override either way.
    pub fn new(mechanism: Mechanism) -> AuthConfig {
        AuthConfig {
            mechanism,
            layout: BlockLayout::default(),
            buddy: mechanism.is_cmht(),
            dict_mht: false,
            key_bits: PAPER_KEY_BITS,
            serve_cache: true,
            threads: default_threads(),
        }
    }

    /// The effective owner-build worker count: [`AuthConfig::threads`],
    /// with `0` resolved to [`crate::pool::available_parallelism`].
    pub fn build_threads(&self) -> usize {
        if self.threads == 0 {
            crate::pool::available_parallelism()
        } else {
            self.threads
        }
    }

    /// Chain-MHT block capacity for this mechanism's leaf size
    /// (ρ = 251 for TRA's doc-id leaves, ρ′ = 125 for TNRA's ⟨d,f⟩).
    pub fn chain_capacity(&self) -> usize {
        self.layout.chain_capacity(self.term_leaf_bytes())
    }

    /// Leaf size of the term-(chain-)MHTs.
    pub fn term_leaf_bytes(&self) -> usize {
        if self.mechanism.is_tra() {
            4
        } else {
            ImpactEntry::BYTES
        }
    }
}

/// Parse one non-negative-integer environment override named `name` —
/// the shared grammar of every `AUTHSEARCH_*` numeric knob
/// (`AUTHSEARCH_THREADS`, `AUTHSEARCH_MAX_CONNECTIONS`,
/// `AUTHSEARCH_IDLE_MS`): surrounding whitespace tolerated; empty,
/// negative, or non-numeric values rejected with a message naming the
/// variable and the offending value. Pure, so the reject paths are
/// unit-testable without mutating process environment; callers decide
/// unset semantics and warn-once policy.
pub(crate) fn parse_usize_env(name: &str, raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err(format!(
            "{name} is set but empty; expected a non-negative integer"
        ));
    }
    trimmed
        .parse::<usize>()
        .map_err(|_| format!("{name}={trimmed:?} is not a valid non-negative integer"))
}

/// Parse an `AUTHSEARCH_THREADS` value: `None` (unset) and `"0"` both
/// mean auto; any non-empty decimal is a pinned width; everything else
/// is rejected via [`parse_usize_env`].
pub(crate) fn parse_threads_env(raw: Option<&str>) -> Result<usize, String> {
    let Some(raw) = raw else { return Ok(0) };
    parse_usize_env("AUTHSEARCH_THREADS", raw).map_err(|why| format!("{why} (0 = auto)"))
}

/// The process-wide default for [`AuthConfig::threads`]: the
/// `AUTHSEARCH_THREADS` environment variable when set to a number,
/// otherwise `0` (auto). An **invalid** value — empty, negative, or
/// non-numeric — is rejected, not silently ignored: a warning naming the
/// bad value is printed to stderr (once per process) and the default
/// falls back to auto, so a typo in a deployment manifest surfaces in
/// the logs instead of quietly serving at an unintended width.
fn default_threads() -> usize {
    static WARN_ONCE: std::sync::Once = std::sync::Once::new();
    let raw = std::env::var("AUTHSEARCH_THREADS").ok();
    match parse_threads_env(raw.as_deref()) {
        Ok(n) => n,
        Err(why) => {
            WARN_ONCE.call_once(|| {
                eprintln!("warning: {why}; falling back to auto (all cores)");
            });
            0
        }
    }
}

// ---- canonical leaf & message encodings ----------------------------------

/// Digest of one term-MHT leaf for the TRA mechanisms (doc id only).
pub(crate) fn tra_leaf_digest(doc: DocId) -> Digest {
    Digest::hash(&doc.to_le_bytes())
}

/// Digest of one term-MHT leaf for the TNRA mechanisms (`⟨d, f⟩`).
pub(crate) fn tnra_leaf_digest(entry: &ImpactEntry) -> Digest {
    Digest::hash(&entry.encode())
}

/// Term-MHT leaf digest of one list entry under a mechanism.
pub(crate) fn term_leaf(mechanism: Mechanism, entry: &ImpactEntry) -> Digest {
    if mechanism.is_tra() {
        tra_leaf_digest(entry.doc)
    } else {
        tnra_leaf_digest(entry)
    }
}

/// Term-MHT leaf digests for a list under a mechanism.
pub(crate) fn term_leaves(mechanism: Mechanism, list: &InvertedList) -> Vec<Digest> {
    list.entries()
        .iter()
        .map(|e| term_leaf(mechanism, e))
        .collect()
}

/// Encoding of one document-MHT leaf: `(t, w_{d,t})`, 8 bytes.
pub(crate) fn doc_leaf_bytes(term: TermId, weight: f32) -> [u8; 8] {
    let mut out = [0u8; 8];
    out[..4].copy_from_slice(&term.to_le_bytes());
    out[4..].copy_from_slice(&weight.to_bits().to_le_bytes());
    out
}

/// Digest of one document-MHT leaf.
pub(crate) fn doc_leaf_digest(term: TermId, weight: f32) -> Digest {
    Digest::hash(&doc_leaf_bytes(term, weight))
}

/// Document-MHT root over `(t, w)` leaves; documents with no indexed
/// terms get a distinguished constant.
pub(crate) fn doc_root(doc_terms: &[(TermId, f32)]) -> Digest {
    doc_mht(doc_terms).0
}

/// Document-MHT root and interior levels
/// ([`authsearch_crypto::merkle::interior_levels`]) over `(t, w)` leaves:
/// one fold yields both, so keeping the levels costs no extra hashing.
pub(crate) fn doc_mht(doc_terms: &[(TermId, f32)]) -> (Digest, Box<[Digest]>) {
    let leaves: Vec<Digest> = doc_terms
        .iter()
        .map(|&(t, w)| doc_leaf_digest(t, w))
        .collect();
    let interior = interior_levels(&leaves);
    let root = match (interior.last(), leaves.first()) {
        (Some(&root), _) | (None, Some(&root)) => root,
        (None, None) => Digest::hash(b"authsearch:empty-doc-mht:v1"),
    };
    (root, interior.into_boxed_slice())
}

/// Every document's MHT root, folded over `pool`, plus — when `keep` —
/// its interior levels, the resident source of document proofs
/// ([`cache::ServeCache::doc_levels`]; empty when not kept).
pub(crate) fn doc_mhts(
    pool: &ThreadPool,
    doc_table: &DocTable,
    keep: bool,
) -> (Vec<Digest>, Vec<Box<[Digest]>>) {
    let per_doc = pool.map(doc_table.num_docs(), |d| {
        let (root, interior) = doc_mht(doc_table.doc_terms(d as DocId));
        (root, if keep { interior } else { Box::default() })
    });
    let (roots, levels): (Vec<Digest>, Vec<Box<[Digest]>>) = per_doc.into_iter().unzip();
    (roots, if keep { levels } else { Vec::new() })
}

/// Every term's root (plain MHT) or head (chain-MHT) digest, folded over
/// `pool`, plus — when `keep` — the structure each fold produced, the
/// resident source of term proofs ([`cache::ServeCache::terms`]; empty
/// when not kept).
pub(crate) fn term_structures(
    pool: &ThreadPool,
    config: &AuthConfig,
    index: &InvertedIndex,
    keep: bool,
) -> (Vec<Digest>, Vec<cache::TermStructure>) {
    let per_term = pool.map(index.num_terms(), |t| {
        let (root, structure) = cache::TermStructure::build(config, index.list(t as TermId));
        (root, keep.then_some(structure))
    });
    let (roots, structures): (Vec<Digest>, Vec<_>) = per_term.into_iter().unzip();
    (roots, structures.into_iter().flatten().collect())
}

/// Concatenate `parts` into a fixed-size message. Every signed message
/// below is at most 55 bytes, so hashing one is a single SHA-256 block
/// and building one allocates nothing.
fn message<const N: usize>(parts: &[&[u8]]) -> [u8; N] {
    let mut msg = [0u8; N];
    let mut at = 0;
    for part in parts {
        msg[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    assert_eq!(at, N, "message parts must fill the encoding exactly");
    msg
}

/// Signed message binding a term's list: `h(tag | t | f_t | digest)` —
/// the paper's `sign(h(t_i | f_{t_i} | i | digest_{i,1}))`.
pub(crate) fn term_message(term: TermId, ft: u32, root: &Digest) -> [u8; 43] {
    message(&[
        b"authsearch:term:v1|",
        &term.to_le_bytes(),
        &ft.to_le_bytes(),
        root.as_bytes(),
    ])
}

/// Message binding a document: the `h(doc) | d | root` of the paper's
/// `sign(h(h(doc) | d | root))` (Figure 8). The paper signs it per
/// document; here its digest is leaf `d` of the document table
/// ([`doc_table_leaf`]).
pub(crate) fn doc_message(doc: DocId, content_digest: &Digest, root: &Digest) -> [u8; 54] {
    message(&[
        b"authsearch:doc:v1|",
        &content_digest.0,
        &doc.to_le_bytes(),
        root.as_bytes(),
    ])
}

/// Document-table leaf for document `doc`: the digest of its
/// [`doc_message`]. The verifier hashes the 54-byte message itself, so
/// no interior node (a hash of 32 bytes) can stand in for a leaf.
pub(crate) fn doc_table_leaf(doc: DocId, content_digest: &Digest, root: &Digest) -> Digest {
    Digest::hash(&doc_message(doc, content_digest, root))
}

/// The document-table MHT: leaf `d` is [`doc_table_leaf`] of document
/// `d`, so a leaf's position *is* its document id.
pub(crate) fn doc_table_tree(content_digests: &[Digest], roots: &[Digest]) -> MerkleTree {
    let leaves = (0..)
        .zip(content_digests.iter().zip(roots))
        .map(|(d, (cd, root))| doc_table_leaf(d, cd, root))
        .collect();
    MerkleTree::from_leaf_digests(leaves)
}

/// Signed message for the document-table root: one signature for the
/// whole collection, binding its size `n` (the tree's shape) and the
/// root. This is §3.4's dictionary-MHT trick applied to documents: a
/// TRA reply carries one multi-proof and one signature instead of one
/// signature per encountered document.
pub(crate) fn doc_table_message(num_docs: u32, root: &Digest) -> [u8; 43] {
    message(&[
        b"authsearch:doctable:v1|",
        &num_docs.to_le_bytes(),
        root.as_bytes(),
    ])
}

/// Signed message for the dictionary-MHT root (§3.4).
pub(crate) fn dict_message(num_terms: u32, root: &Digest) -> [u8; 39] {
    message(&[
        b"authsearch:dict:v1|",
        &num_terms.to_le_bytes(),
        root.as_bytes(),
    ])
}

/// Dictionary-MHT leaf for one term: the digest of its signed message
/// (binding term id, `f_t`, and list root together).
pub(crate) fn dict_leaf_digest(term: TermId, ft: u32, root: &Digest) -> Digest {
    Digest::hash(&term_message(term, ft, root))
}

// ---- the owner's artifact -------------------------------------------------

/// Everything the data owner hands the search engine: the index, the
/// document table, and the signatures/digests of the authentication
/// structures.
#[derive(Debug)]
pub struct AuthenticatedIndex {
    config: AuthConfig,
    index: InvertedIndex,
    doc_table: DocTable,
    /// Root/head digest of every term's (chain-)MHT.
    term_roots: Vec<Digest>,
    /// Per-list signatures (empty in dictionary-MHT mode).
    term_sigs: Vec<Vec<u8>>,
    /// Dictionary-MHT signature (dictionary-MHT mode only).
    dict_sig: Option<Vec<u8>>,
    /// TRA only: per-document content digests `h(doc)`.
    doc_content_digests: Vec<Digest>,
    /// TRA only: per-document document-MHT roots.
    doc_roots: Vec<Digest>,
    /// TRA only: the document-table MHT ([`doc_table_tree`]), resident
    /// so every reply's multi-proof is one `prove` call.
    doc_tree: Option<MerkleTree>,
    /// TRA only: the owner's one signature over [`doc_table_message`].
    doc_table_sig: Option<Vec<u8>>,
    public_key: RsaPublicKey,
    /// Engine-side resident structures (see [`cache`] and the module docs).
    cache: cache::ServeCache,
    /// Persistent serving pool, shared by [`AuthenticatedIndex::serve_batch`]
    /// and the network server ([`crate::server`]). Seeded with the pool
    /// the build used, so worker threads are spawned once per artifact,
    /// not once per call; swapped lazily when
    /// [`AuthenticatedIndex::set_threads`] changes the width. `None` only
    /// transiently (during a swap).
    serve_pool: Mutex<Option<Arc<ThreadPool>>>,
}

impl AuthenticatedIndex {
    /// Build every authentication structure and sign the roots. This is
    /// the owner's one-off preprocessing step (the dominant cost is one
    /// RSA signature per dictionary term, plus one for the document
    /// table under TRA).
    ///
    /// The work is embarrassingly parallel — every term's structure and
    /// signature, and every document's content digest and MHT root, is
    /// independent — so it fans out over a work-stealing
    /// [`crate::pool::ThreadPool`] sized by [`AuthConfig::build_threads`]
    /// (`threads: 1` keeps the paper's sequential owner model on the
    /// calling thread). Workers share `key` by reference, so every
    /// signature reuses the key's cached per-factor Montgomery contexts;
    /// results are collected in index order, making the artifact
    /// **bit-identical for any thread count**.
    ///
    /// ```
    /// use authsearch_core::{AuthConfig, AuthenticatedIndex, Mechanism};
    /// use authsearch_corpus::CorpusBuilder;
    /// use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};
    /// use authsearch_index::{build_index, OkapiParams};
    ///
    /// let corpus = CorpusBuilder::new()
    ///     .min_df(1)
    ///     .add_text("the night keeper keeps the keep in the town")
    ///     .add_text("in the big old house in the big old gown")
    ///     .build();
    /// let index = build_index(&corpus, OkapiParams::default());
    /// let key = cached_keypair(TEST_KEY_BITS);
    ///
    /// let sequential = AuthConfig {
    ///     key_bits: TEST_KEY_BITS,
    ///     threads: 1,
    ///     ..AuthConfig::new(Mechanism::TnraCmht)
    /// };
    /// let parallel = AuthConfig { threads: 4, ..sequential };
    /// let a = AuthenticatedIndex::build(index.clone(), &key, sequential, &corpus);
    /// let b = AuthenticatedIndex::build(index, &key, parallel, &corpus);
    /// // Same roots (and signatures) regardless of thread count.
    /// assert_eq!(a.term_root(0), b.term_root(0));
    /// ```
    pub fn build<C: ContentProvider>(
        index: InvertedIndex,
        key: &RsaPrivateKey,
        config: AuthConfig,
        contents: &C,
    ) -> AuthenticatedIndex {
        let m = index.num_terms();
        for t in 0..m as TermId {
            assert!(
                !index.list(t).is_empty(),
                "term {t} has an empty inverted list; prune before authenticating"
            );
        }

        let doc_table = DocTable::from_index(&index);
        let pool = ThreadPool::new(config.build_threads());

        // Term structures: one independent task per term (hash the leaf
        // layer, fold the (chain-)MHT), kept when serving from cache.
        let (term_roots, terms) = term_structures(&pool, &config, &index, config.serve_cache);

        let mut dict_tree = None;
        let (term_sigs, dict_sig) = if config.dict_mht {
            let leaves: Vec<Digest> = pool.map(m, |t| {
                let t = t as TermId;
                dict_leaf_digest(t, index.ft(t), &term_roots[t as usize])
            });
            let tree = MerkleTree::from_leaf_digests(leaves);
            let root = tree.root();
            if config.serve_cache {
                // Built once here; every query's dictionary proof reuses
                // it instead of rehashing all m leaves.
                dict_tree = Some(tree);
            }
            let sig = key
                .sign(&dict_message(m as u32, &root))
                .expect("dictionary signature");
            (Vec::new(), Some(sig))
        } else {
            // One RSA signature per term — the dominant build cost, and
            // perfectly parallel: workers share the key (and therefore
            // its cached Montgomery contexts) read-only.
            let sigs: Vec<Vec<u8>> = pool.map(m, |t| {
                let t = t as TermId;
                key.sign(&term_message(t, index.ft(t), &term_roots[t as usize]))
                    .expect("term signature")
            });
            (sigs, None)
        };

        // Document structures (TRA mechanisms only): hash the content and
        // fold the document-MHT independently per document — keeping its
        // interior levels when serving from cache — then fold the
        // document table and sign its root once.
        let (doc_content_digests, doc_roots, doc_levels, doc_tree, doc_table_sig) =
            if config.mechanism.is_tra() {
                let n = index.num_docs();
                let digests = pool.map(n, |d| Digest::hash(&contents.content(d as DocId)));
                let (roots, levels) = doc_mhts(&pool, &doc_table, config.serve_cache);
                let tree = doc_table_tree(&digests, &roots);
                let num_docs = u32::try_from(n).expect("document ids are u32");
                let sig = key
                    .sign(&doc_table_message(num_docs, &tree.root()))
                    .expect("document-table signature");
                (digests, roots, levels, Some(tree), Some(sig))
            } else {
                (Vec::new(), Vec::new(), Vec::new(), None, None)
            };

        AuthenticatedIndex {
            config,
            index,
            doc_table,
            term_roots,
            term_sigs,
            dict_sig,
            doc_content_digests,
            doc_roots,
            doc_tree,
            doc_table_sig,
            public_key: key.public_key().clone(),
            cache: cache::ServeCache::new(dict_tree, terms, doc_levels),
            // The build's workers live on as the serving pool: a server
            // standing up from a fresh build never spawns a second set.
            serve_pool: Mutex::new(Some(Arc::new(pool))),
        }
    }

    /// The persistent serving pool, (re)created at the width
    /// [`AuthConfig::build_threads`] currently resolves to. The same
    /// pool instance is returned across calls — workers are spawned
    /// once, not per batch — until [`AuthenticatedIndex::set_threads`]
    /// changes the width, at which point the old pool is drained,
    /// joined, and replaced here.
    pub fn serve_pool(&self) -> Arc<ThreadPool> {
        let mut guard = crate::pool::lock_recover(&self.serve_pool);
        let want = self.config.build_threads();
        match guard.as_ref() {
            Some(pool) if pool.threads() == want => Arc::clone(pool),
            _ => {
                let pool = Arc::new(ThreadPool::new(want));
                *guard = Some(Arc::clone(&pool));
                pool
            }
        }
    }

    /// The configuration this artifact was built with.
    pub fn config(&self) -> &AuthConfig {
        &self.config
    }

    /// Resize the serving pool: subsequent
    /// [`AuthenticatedIndex::serve_batch`] calls use `threads` workers
    /// (`0` = available parallelism). The persistent pool is swapped
    /// lazily on the next [`AuthenticatedIndex::serve_pool`] call (the
    /// old workers are drained and joined then). Purely an ops knob —
    /// proofs are bit-identical at any width, so this never invalidates
    /// the published artifact or the resident structures.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads;
    }

    /// The underlying inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The per-document frequency table (the document-MHT leaf layer).
    pub fn doc_table(&self) -> &DocTable {
        &self.doc_table
    }

    /// Root/head digest of term `t`'s list structure.
    pub fn term_root(&self, t: TermId) -> Digest {
        self.term_roots[t as usize]
    }

    /// The owner's public key (what users verify against).
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public_key
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::toy::{toy_contents, toy_index};
    use crate::vo::Mechanism;
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};

    /// Toy-collection authenticated index with the cache toggled.
    pub(crate) fn test_auth(mechanism: Mechanism, serve_cache: bool) -> AuthenticatedIndex {
        let key = cached_keypair(TEST_KEY_BITS);
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            serve_cache,
            ..AuthConfig::new(mechanism)
        };
        AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{toy_contents, toy_index};
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};

    fn test_config(mechanism: Mechanism) -> AuthConfig {
        AuthConfig {
            key_bits: TEST_KEY_BITS,
            ..AuthConfig::new(mechanism)
        }
    }

    #[test]
    fn config_defaults_follow_paper() {
        let c = AuthConfig::new(Mechanism::TraCmht);
        assert!(c.buddy);
        assert!(!c.dict_mht);
        assert_eq!(c.key_bits, 1024);
        assert_eq!(c.chain_capacity(), 251);
        let c2 = AuthConfig::new(Mechanism::TnraCmht);
        assert_eq!(c2.chain_capacity(), 125);
        assert!(!AuthConfig::new(Mechanism::TnraMht).buddy);
    }

    #[test]
    fn build_signs_every_term() {
        let key = cached_keypair(TEST_KEY_BITS);
        let auth = AuthenticatedIndex::build(
            toy_index(),
            &key,
            test_config(Mechanism::TnraMht),
            &toy_contents(),
        );
        assert_eq!(auth.term_sigs.len(), 16);
        // Spot-verify one signature.
        let t = 15u32; // 'the'
        let msg = term_message(t, auth.index.ft(t), &auth.term_root(t));
        auth.public_key()
            .verify(&msg, &auth.term_sigs[t as usize])
            .unwrap();
    }

    #[test]
    fn tra_build_signs_the_document_table_once() {
        let key = cached_keypair(TEST_KEY_BITS);
        let auth = AuthenticatedIndex::build(
            toy_index(),
            &key,
            test_config(Mechanism::TraMht),
            &toy_contents(),
        );
        let tree = auth.doc_tree.as_ref().unwrap();
        assert_eq!(tree.num_leaves(), 9);
        // Leaf d is the digest of document d's message.
        let d = 6u32;
        let root = doc_root(auth.doc_table().doc_terms(d));
        assert_eq!(auth.doc_roots[d as usize], root);
        let msg = doc_message(d, &auth.doc_content_digests[d as usize], &root);
        assert_eq!(tree.leaf_digests()[d as usize], Digest::hash(&msg));
        auth.public_key()
            .verify(
                &doc_table_message(9, &tree.root()),
                auth.doc_table_sig.as_ref().unwrap(),
            )
            .unwrap();
    }

    #[test]
    fn tnra_build_has_no_doc_structures() {
        let key = cached_keypair(TEST_KEY_BITS);
        let auth = AuthenticatedIndex::build(
            toy_index(),
            &key,
            test_config(Mechanism::TnraCmht),
            &toy_contents(),
        );
        assert!(auth.doc_tree.is_none() && auth.doc_table_sig.is_none());
        assert!(auth.doc_content_digests.is_empty() && auth.doc_roots.is_empty());
    }

    #[test]
    fn doc_table_leaves_cannot_pass_as_interior_nodes() {
        // A leaf hashes a 54-byte message; an interior node hashes two
        // 16-byte digests. The lengths differ, so one preimage cannot
        // serve as both.
        let msg = doc_message(3, &Digest::hash(b"content"), &Digest::hash(b"root"));
        assert_eq!(msg.len(), 54);
        assert_ne!(msg.len(), 2 * authsearch_crypto::DIGEST_LEN);
        assert!(doc_table_message(9, &Digest::ZERO).starts_with(b"authsearch:doctable:v1|"));
    }

    #[test]
    fn signed_messages_fit_one_sha256_block() {
        // SHA-256 pads a message of at most 55 bytes into a single
        // 64-byte block, so every leaf and signature digest below is one
        // compression.
        let d = Digest::hash(b"x");
        let lens = [
            term_message(1, 2, &d).len(),
            doc_message(1, &d, &d).len(),
            doc_table_message(1, &d).len(),
            dict_message(1, &d).len(),
        ];
        assert!(lens.iter().all(|&n| n <= 55), "{lens:?}");
    }

    #[test]
    #[should_panic(expected = "message parts must fill the encoding exactly")]
    fn message_parts_must_fill_the_encoding() {
        let _: [u8; 8] = message(&[b"short"]);
    }

    /// Digests of the toy collection, pinned at the commit before the
    /// SHA-NI hash layer and unchanged by it: any change to the hash, a
    /// leaf encoding or a signed message moves at least one of them,
    /// which would invalidate every snapshot and signature already
    /// published.
    #[test]
    fn golden_roots_are_byte_stable() {
        // (mechanism, term 0 root/head, term 15 root/head, dictionary
        // root, document-table root)
        let golden = [
            (
                Mechanism::TraMht,
                "7aa8ca4a02506da9133d8f889678b76f",
                "a4a40dc93738a756e2bab0aa35e60ee3",
                "7d00e5939878e1f70b6df4a54f9aac60",
                Some("76161ae5fd274627ba90cdbb24451d38"),
            ),
            (
                Mechanism::TraCmht,
                "7aa8ca4a02506da9133d8f889678b76f",
                "4f388cd5c6a316ddd0974eafd46bae97",
                "d201976ba0e6ce08bc9ff20f4a2d6041",
                Some("76161ae5fd274627ba90cdbb24451d38"),
            ),
            (
                Mechanism::TnraMht,
                "2d1913b16164a616ec1cce07c81479a3",
                "14e909b5f2e7264092d6e51c7e97d0b3",
                "9878214462dbe272ef2eb6c5518b518b",
                None,
            ),
            (
                Mechanism::TnraCmht,
                "2d1913b16164a616ec1cce07c81479a3",
                "03244fda71fc686b6a95fe6bc169376c",
                "5d5e5b5e4a73cd0aefe0bc6c4617d87e",
                None,
            ),
        ];
        let key = cached_keypair(TEST_KEY_BITS);
        for (mechanism, first, last, dict, table) in golden {
            // 32-byte blocks hold 3 TRA leaves or 1 TNRA leaf, so the toy
            // lists span several chain blocks and no chain head coincides
            // with a plain MHT root.
            let config = AuthConfig {
                layout: BlockLayout {
                    block_bytes: 32,
                    ..BlockLayout::default()
                },
                ..test_config(mechanism)
            };
            let auth = AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents());
            let m = auth.index.num_terms() as TermId;
            let dict_leaves = (0..m)
                .map(|t| dict_leaf_digest(t, auth.index.ft(t), &auth.term_root(t)))
                .collect();
            let got = (
                auth.term_root(0).to_hex(),
                auth.term_root(m - 1).to_hex(),
                MerkleTree::from_leaf_digests(dict_leaves).root().to_hex(),
                auth.doc_tree.as_ref().map(|t| t.root().to_hex()),
            );
            let want = (
                first.to_string(),
                last.to_string(),
                dict.to_string(),
                table.map(str::to_string),
            );
            assert_eq!(got, want, "{mechanism:?}");
        }
    }

    #[test]
    fn dict_mode_has_single_signature() {
        let key = cached_keypair(TEST_KEY_BITS);
        let config = AuthConfig {
            dict_mht: true,
            ..test_config(Mechanism::TnraMht)
        };
        let auth = AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents());
        assert!(auth.term_sigs.is_empty());
        assert!(auth.dict_sig.is_some());
    }

    #[test]
    fn mechanism_changes_term_roots() {
        let key = cached_keypair(TEST_KEY_BITS);
        let a = AuthenticatedIndex::build(
            toy_index(),
            &key,
            test_config(Mechanism::TraMht),
            &toy_contents(),
        );
        let b = AuthenticatedIndex::build(
            toy_index(),
            &key,
            test_config(Mechanism::TnraMht),
            &toy_contents(),
        );
        // TRA roots cover doc ids only; TNRA roots cover ⟨d, f⟩ — they
        // must differ.
        assert_ne!(a.term_root(15), b.term_root(15));
    }

    #[test]
    fn empty_doc_has_stable_root() {
        // Doc 0 of the toy collection has no terms.
        let root = doc_root(&[]);
        assert_eq!(root, doc_root(&[]));
        assert_ne!(root, doc_root(&[(1, 0.5)]));
    }

    #[test]
    fn parallel_build_is_bit_identical_to_sequential() {
        // The paper model is the single-threaded build; any thread count
        // must reproduce it exactly: same roots, same signatures.
        let key = cached_keypair(TEST_KEY_BITS);
        for mechanism in Mechanism::ALL {
            let sequential = AuthConfig {
                threads: 1,
                ..test_config(mechanism)
            };
            let reference =
                AuthenticatedIndex::build(toy_index(), &key, sequential, &toy_contents());
            for threads in [2, 4, 8] {
                let config = AuthConfig {
                    threads,
                    ..sequential
                };
                let built = AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents());
                assert_eq!(
                    built.term_roots, reference.term_roots,
                    "{mechanism:?} threads={threads}"
                );
                assert_eq!(
                    built.term_sigs, reference.term_sigs,
                    "{mechanism:?} threads={threads}"
                );
                assert_eq!(
                    built.doc_content_digests, reference.doc_content_digests,
                    "{mechanism:?} threads={threads}"
                );
                assert_eq!(
                    built.doc_roots, reference.doc_roots,
                    "{mechanism:?} threads={threads}"
                );
                assert_eq!(
                    built.doc_table_sig, reference.doc_table_sig,
                    "{mechanism:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_in_dict_mht_mode() {
        let key = cached_keypair(TEST_KEY_BITS);
        let sequential = AuthConfig {
            dict_mht: true,
            threads: 1,
            ..test_config(Mechanism::TnraMht)
        };
        let reference = AuthenticatedIndex::build(toy_index(), &key, sequential, &toy_contents());
        let parallel = AuthConfig {
            threads: 4,
            ..sequential
        };
        let built = AuthenticatedIndex::build(toy_index(), &key, parallel, &toy_contents());
        assert_eq!(built.term_roots, reference.term_roots);
        assert_eq!(built.dict_sig, reference.dict_sig);
    }

    #[test]
    fn parallel_build_proofs_verify_end_to_end() {
        // Proofs produced from a parallel-built artifact must verify
        // exactly like sequential ones (bit-identical structures in,
        // bit-identical VOs out).
        use crate::toy::toy_query;
        use crate::verify::{verify, VerifierParams};
        let key = cached_keypair(TEST_KEY_BITS);
        for mechanism in Mechanism::ALL {
            let config = AuthConfig {
                threads: 4,
                ..test_config(mechanism)
            };
            let auth = AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents());
            let params = VerifierParams {
                public_key: key.public_key().clone(),
                layout: config.layout,
                mechanism,
                num_docs: auth.index().num_docs(),
                okapi: auth.index().params(),
            };
            let response = auth.query(&toy_query(), 2, &toy_contents());
            let verified = verify(&params, &toy_query(), 2, &response)
                .unwrap_or_else(|e| panic!("{mechanism:?}: {e}"));
            assert_eq!(verified.result, response.result);
        }
    }

    #[test]
    fn build_threads_resolves_auto() {
        let auto = test_config(Mechanism::TnraMht);
        // The default honors the CI env override when present.
        let env_default = std::env::var("AUTHSEARCH_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        assert_eq!(auto.threads, env_default);
        if env_default == 0 {
            assert_eq!(auto.build_threads(), crate::pool::available_parallelism());
        } else {
            assert_eq!(auto.build_threads(), env_default);
        }
        let fixed = AuthConfig { threads: 3, ..auto };
        assert_eq!(fixed.build_threads(), 3);
    }

    #[test]
    fn threads_env_parsing_accepts_valid_values() {
        // Unset and "0" both mean auto; pinned widths parse exactly;
        // surrounding whitespace is tolerated.
        assert_eq!(parse_threads_env(None), Ok(0));
        assert_eq!(parse_threads_env(Some("0")), Ok(0));
        assert_eq!(parse_threads_env(Some("1")), Ok(1));
        assert_eq!(parse_threads_env(Some("4")), Ok(4));
        assert_eq!(parse_threads_env(Some(" 8 ")), Ok(8));
    }

    #[test]
    fn threads_env_parsing_rejects_invalid_values() {
        // Empty / whitespace-only: set-but-empty is a deployment bug the
        // warning must name, not a silent auto.
        let empty = parse_threads_env(Some("")).unwrap_err();
        assert!(empty.contains("empty"), "{empty}");
        let blank = parse_threads_env(Some("   ")).unwrap_err();
        assert!(blank.contains("empty"), "{blank}");
        // Garbage values: rejected with the offending value named.
        for bad in ["four", "-1", "3.5", "0x4", "4threads", "∞"] {
            let err = parse_threads_env(Some(bad)).unwrap_err();
            assert!(
                err.contains(bad.trim()) && err.contains("not a valid"),
                "{bad:?} → {err}"
            );
        }
    }

    #[test]
    fn serve_pool_is_persistent_and_resizes_lazily() {
        let key = cached_keypair(TEST_KEY_BITS);
        let mut auth = AuthenticatedIndex::build(
            toy_index(),
            &key,
            AuthConfig {
                threads: 2,
                ..test_config(Mechanism::TnraMht)
            },
            &toy_contents(),
        );
        let a = auth.serve_pool();
        let b = auth.serve_pool();
        // Same pool instance across calls — workers spawned once.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.threads(), 2);
        auth.set_threads(3);
        let c = auth.serve_pool();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.threads(), 3);
        // Unchanged width keeps the swapped pool.
        assert!(Arc::ptr_eq(&c, &auth.serve_pool()));
    }

    #[test]
    fn leaf_encodings_are_canonical() {
        assert_eq!(doc_leaf_bytes(1, 0.159).len(), 8);
        assert_ne!(tra_leaf_digest(1), tra_leaf_digest(2));
        let e1 = ImpactEntry {
            doc: 1,
            weight: 0.5,
        };
        let e2 = ImpactEntry {
            doc: 1,
            weight: 0.25,
        };
        assert_ne!(tnra_leaf_digest(&e1), tnra_leaf_digest(&e2));
    }
}
