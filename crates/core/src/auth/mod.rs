//! Owner-side authentication structures (paper §3.3, §3.4).
//!
//! The data owner builds, once, for the whole collection:
//!
//! * a **term-MHT** (or **chain-MHT**) over every inverted list;
//! * for the TRA mechanisms, a **doc-order tree** per term: an MHT over
//!   the term's `⟨d, w_{d,t}⟩` entries in doc-id order (`fact_leaf_bytes`),
//!   which proves every `w_{d,t}` a TRA replay reads, and every absence,
//!   by adjacent leaves. Its leaf count is `f_t`. The paper proves these
//!   facts in one document-MHT per document (§3.3.1, Figure 8); here they
//!   are proved per term;
//! * the §3.4 **dictionary-MHT** over every term's root (head) digest,
//!   leaf `t` binding term `t`, its `f_t` and that root — under TRA the
//!   `combined_root` of its list root and its doc-order root;
//! * for the TRA mechanisms, one **document-table MHT** over every
//!   document's `h(doc) | d` message (`doc_message`), in doc-id order,
//!   folded for its root only;
//! * one signature over the **publication manifest**
//!   (`publication_message`): mechanism, `m`, `n`, the dictionary root
//!   and the document-table root. The paper signs every list (§3.3) and,
//!   under TRA, every document (Figure 8): `m + n` signatures where this
//!   build makes one. The manifest, its signature and each document's
//!   `h(doc)` are the publication (`crate::publication`) every client
//!   holds, so a reply carries no signature at all.
//!
//! Every tree hashes its leaves with [`Digest::leaf`] and its interior
//! nodes with [`Digest::combine`], in separate domains.
//!
//! The paper (following \[13\], §3.3.1) stores only roots and leaves and
//! regenerates every interior digest per query. Here the build folds
//! every structure once for its root and keeps what the fold produced:
//! the dictionary-MHT, every term's (chain-)MHT and, under TRA, every
//! doc-order tree's levels above its leaves (`term_structures`). One
//! crate-private fold (`fold`) makes all of them and the manifest; the
//! build signs its manifest and a snapshot boot verifies it, so every
//! reply proves from structures resident since the build or boot (the
//! `cache` module). The proofs are the ones a fresh fold of the leaves
//! gives; only engine CPU time differs from the paper's model.
//! The simulated disk accounting keeps modeling the paper's on-disk
//! layout — plain-MHT terms re-read whole lists, chain-MHT terms stop at
//! the cut-off block — so the I/O figures stay comparable, and
//! [`space::SpaceReport`] reports the residency exactly.

mod cache;
pub mod serve;
pub mod snapshot;
pub mod space;

pub use cache::CacheStats;
pub use cache::WarmStats; // lint:allow(unused-pub): reached only as the value of `ServerHandle::warmed`
pub use snapshot::boot_authenticated_index;

use crate::pool;
use crate::publication::{fold_doc_table, Manifest, SignedPublication};
use crate::types::{doc_ordered, DocOrderedLists};
use crate::verify::VerifierParams;
use crate::vo::Mechanism;
use authsearch_corpus::{DocId, TermId};
use authsearch_crypto::merkle::interior_levels;
use authsearch_crypto::{Digest, MerkleTree, RsaPrivateKey, RsaPublicKey};
use authsearch_index::{BlockLayout, ImpactEntry, InvertedIndex, InvertedList};
use std::sync::{Arc, OnceLock};

/// Source of raw document contents (for `h(doc)`); implemented by
/// [`authsearch_corpus::Corpus`] and by plain `Vec<Vec<u8>>` fixtures.
///
/// `Sync` is a supertrait because the parallel owner build
/// ([`AuthenticatedIndex::build`]) hashes document contents from several
/// worker threads at once.
// lint:allow(unused-pub): reached only as the content bound of `AuthenticatedIndex::build`, `query` and `DataOwner::publish_index`
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
/// individual knobs are overridden with struct-update syntax. The key is
/// not a knob: the build takes the owner's key itself
/// ([`AuthenticatedIndex::build`]), whose size the owner chose when
/// making it.
///
/// ```
/// use authsearch_core::{AuthConfig, Mechanism};
///
/// let config = AuthConfig {
///     threads: 1, // exact sequential paper model (default 0 = all cores)
///     ..AuthConfig::new(Mechanism::TnraCmht)
/// };
/// assert!(config.buddy); // chain-MHT mechanisms default buddy on
/// assert_eq!(config.chain_capacity(), 125); // ρ′ for TNRA's ⟨d, f⟩ leaves
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuthConfig {
    /// Query-processing + authentication mechanism.
    pub mechanism: Mechanism,
    /// Disk block layout (determines ρ / ρ′).
    pub layout: BlockLayout,
    /// Buddy inclusion (paper default: on for CMHT, off for plain MHT).
    pub buddy: bool,
    /// The width of every `crate::pool::map`: the owner-side build
    /// ([`AuthenticatedIndex::build`]) and the snapshot boot. `0` (the
    /// default) uses the machine's available parallelism, `1` runs the
    /// paper's sequential model on the calling thread, and `n ≥ 2` fans
    /// the per-term and per-document work out over up to `n` threads.
    /// Queries themselves are served one at a time, each on the calling
    /// thread (the server's event-loop thread).
    /// Artifacts and per-query VOs are **bit-identical for every
    /// value** — only wall-clock time changes.
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
            threads: default_threads(),
        }
    }

    /// The effective owner-build worker count: [`AuthConfig::threads`],
    /// with `0` resolved to `crate::pool::available_parallelism`.
    pub(crate) fn build_threads(&self) -> usize {
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
    Digest::leaf(&doc.to_le_bytes())
}

/// Digest of one term-MHT leaf for the TNRA mechanisms (`⟨d, f⟩`).
pub(crate) fn tnra_leaf_digest(entry: &ImpactEntry) -> Digest {
    Digest::leaf(&entry.encode())
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

/// Encoding of one doc-order tree leaf: `F | d | w_{d,t}`, 9 bytes. The
/// tag keeps it apart from a TNRA list leaf, which encodes the same
/// `⟨d, w⟩` in 8 bytes.
pub(crate) fn fact_leaf_bytes(entry: &ImpactEntry) -> [u8; 9] {
    let mut out = [0u8; 9];
    out[0] = b'F';
    out[1..].copy_from_slice(&entry.encode());
    out
}

/// Digest of one doc-order tree leaf.
pub(crate) fn fact_leaf_digest(entry: &ImpactEntry) -> Digest {
    Digest::leaf(&fact_leaf_bytes(entry))
}

/// The domain byte of [`combined_root`], beside the leaf (`0x00`) and
/// interior (`0x01`) domains of every tree.
const COMBINED_ROOT_TAG: u8 = 0x02;

/// What a TRA dictionary leaf binds for its term: `h(0x02 | list root |
/// doc-order root)`. The tag is its own hash domain, so the combined root
/// cannot pass as an interior node of any tree. 33 bytes: one SHA-256
/// block.
pub(crate) fn combined_root(list_root: &Digest, doc_order_root: &Digest) -> Digest {
    let msg: [u8; 33] = message(&[
        &[COMBINED_ROOT_TAG],
        list_root.as_bytes(),
        doc_order_root.as_bytes(),
    ]);
    Digest::hash(&msg)
}

/// Term `t`'s doc-order tree over its `list` (TRA): the list in doc-id
/// order, and the tree's root and levels above its leaves
/// ([`interior_levels`]), which one fold yields together.
pub(crate) fn doc_order_tree(list: &InvertedList) -> (Box<[ImpactEntry]>, Digest, Box<[Digest]>) {
    let sorted = doc_ordered(list.entries());
    let leaves: Vec<Digest> = sorted.iter().map(fact_leaf_digest).collect();
    let interior = interior_levels(&leaves);
    let root = *interior
        .last()
        .or(leaves.first())
        .expect("indexed lists are never empty");
    (sorted, root, interior.into_boxed_slice())
}

/// One term's share of the fold: the root its dictionary leaf binds, its
/// list structure, and under TRA its list in doc-id order and its
/// doc-order tree's levels.
type TermFold = (
    Digest,
    cache::TermStructure,
    Option<(Box<[ImpactEntry]>, Box<[Digest]>)>,
);

/// Every term's [`TermFold`], folded `pool::map`-parallel over
/// `threads`: the dictionary roots, and the structures that are the
/// resident source of term and fact proofs ([`cache::ServeCache`]).
fn term_structures(threads: usize, config: &AuthConfig, index: &InvertedIndex) -> Vec<TermFold> {
    pool::map(threads, index.num_terms(), |t| {
        let list = index.list(t as TermId);
        let (root, structure) = cache::TermStructure::build(config, list);
        if config.mechanism.is_tra() {
            let (sorted, doc_root, levels) = doc_order_tree(list);
            (
                combined_root(&root, &doc_root),
                structure,
                Some((sorted, levels)),
            )
        } else {
            (root, structure, None)
        }
    })
}

/// Concatenate `parts` into a fixed-size message. Every message below
/// is at most 55 bytes (54 for a leaf, whose domain prefix takes the
/// 55th), so hashing one is a single SHA-256 block and building one
/// allocates nothing.
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

/// Message binding a document: the `h(doc) | d` of the paper's
/// `sign(h(h(doc) | d | root))` (Figure 8), without the document-MHT
/// root the paper also binds: its facts are proved per term here. The
/// paper signs it per document; here its digest is leaf `d` of the
/// document table ([`doc_table_leaf`], folded by [`fold_doc_table`]).
pub(crate) fn doc_message(doc: DocId, content_digest: &Digest) -> [u8; 38] {
    message(&[b"authsearch:doc:v2|", &content_digest.0, &doc.to_le_bytes()])
}

/// Document-table leaf for document `doc`: the leaf digest of its
/// [`doc_message`], which the verifier builds itself.
pub(crate) fn doc_table_leaf(doc: DocId, content_digest: &Digest) -> Digest {
    Digest::leaf(&doc_message(doc, content_digest))
}

/// Dictionary-MHT leaf for one term: the leaf digest of
/// `tag | t | f_t | root`, the paper's `h(t_i | f_{t_i} | i | digest_{i,1})`
/// that §3.3 signs per list and §3.4 hashes into the dictionary-MHT.
/// Under TRA `root` is the term's [`combined_root`].
pub(crate) fn dict_leaf_digest(term: TermId, ft: u32, root: &Digest) -> Digest {
    let leaf: [u8; 43] = message(&[
        b"authsearch:term:v1|",
        &term.to_le_bytes(),
        &ft.to_le_bytes(),
        root.as_bytes(),
    ]);
    Digest::leaf(&leaf)
}

/// The dictionary-MHT over every term of `index`, leaf `t` binding term
/// `t`, its `f_t` and `roots[t]`, folded `pool::map`-parallel.
fn dict_tree(threads: usize, index: &InvertedIndex, roots: &[Digest]) -> MerkleTree {
    let leaves = pool::map(threads, roots.len(), |t| {
        let t = t as TermId;
        dict_leaf_digest(t, index.ft(t), &roots[t as usize])
    });
    MerkleTree::from_leaf_digests(leaves)
}

/// The document-table root in the manifest of a mechanism without a
/// document table (TNRA): a fixed constant, so the manifest keeps one
/// shape for every mechanism.
pub(crate) const NO_DOC_TABLE_ROOT: Digest = Digest::ZERO;

/// The one message the owner signs per publication: the mechanism
/// ([`Mechanism::code`]), the dictionary size `m`, the collection size
/// `n`, the dictionary-MHT root and the document-table root
/// ([`NO_DOC_TABLE_ROOT`] under TNRA). Binding `m` and `n` fixes both
/// trees' shapes, and binding the mechanism keeps one mechanism's proofs
/// from passing under another's verifier. 55 bytes: one SHA-256 block.
pub(crate) fn publication_message(
    mechanism: Mechanism,
    num_terms: u32,
    num_docs: u32,
    dict_root: &Digest,
    table_root: &Digest,
) -> [u8; 55] {
    message(&[
        b"authsearch:pub",
        &[mechanism.code()],
        &num_terms.to_le_bytes(),
        &num_docs.to_le_bytes(),
        dict_root.as_bytes(),
        table_root.as_bytes(),
    ])
}

// ---- the one fold ---------------------------------------------------------

/// The content digest `h(doc)` of every document `0..n`, hashed
/// `pool::map`-parallel over `threads`: what the TRA build binds into
/// the document table, and what a boot compares a served corpus against.
fn content_digests<C: ContentProvider>(threads: usize, n: usize, contents: &C) -> Vec<Digest> {
    pool::map(threads, n, |d| Digest::hash(&contents.content(d as DocId)))
}

/// Everything derived from an index and, under TRA, its documents'
/// content digests: what the build signs and a boot verifies.
struct Fold {
    cache: cache::ServeCache,
    /// TRA only: the lists in doc-id order the doc-order trees were
    /// folded from.
    doc_table: Option<DocOrderedLists>,
    /// The manifest over both roots.
    manifest: Manifest,
    /// TRA only: each document's content digest `h(doc)`.
    docs: Vec<Digest>,
}

/// The one fold shared by [`AuthenticatedIndex::build`] and
/// [`AuthenticatedIndex::load_snapshot`]: every term structure (under TRA
/// with its doc-order tree) and the dictionary-MHT over their roots; under
/// TRA the document table over `content_digests` (one per document; empty
/// under TNRA); and the manifest over both roots.
///
/// Every list of `index` must be non-empty. Fails only when `m` or `n`
/// does not fit the manifest's `u32`s, or a TRA index has no documents.
fn fold(
    threads: usize,
    config: &AuthConfig,
    index: &InvertedIndex,
    content_digests: Vec<Digest>,
) -> Result<Fold, &'static str> {
    // Term structures: one independent task per term (hash the leaf
    // layers, fold the (chain-)MHT and under TRA the doc-order tree),
    // each kept for serving, then the dictionary-MHT over their roots.
    let mut roots = Vec::with_capacity(index.num_terms());
    let mut terms = Vec::with_capacity(index.num_terms());
    let (mut lists, mut levels) = (Vec::new(), Vec::new());
    for (root, structure, doc_order) in term_structures(threads, config, index) {
        roots.push(root);
        terms.push(structure);
        if let Some((list, level)) = doc_order {
            lists.push(list);
            levels.push(level);
        }
    }
    let dict = dict_tree(threads, index, &roots);
    let count = |n: usize| u32::try_from(n).map_err(|_| "term or document count exceeds u32");
    let (num_terms, num_docs) = (count(index.num_terms())?, count(index.num_docs())?);
    let (doc_table, docs, table_root) = if config.mechanism.is_tra() {
        let table_root =
            fold_doc_table(threads, &content_digests).ok_or("a TRA index has no documents")?;
        let doc_table = DocOrderedLists::from_lists(lists, index.num_docs());
        (Some(doc_table), content_digests, table_root)
    } else {
        (None, Vec::new(), NO_DOC_TABLE_ROOT)
    };
    let manifest = Manifest {
        mechanism: config.mechanism,
        num_terms,
        num_docs,
        dict_root: dict.root(),
        table_root,
    };
    Ok(Fold {
        cache: cache::ServeCache::new(dict, terms, levels),
        doc_table,
        manifest,
        docs,
    })
}

impl Fold {
    /// The artifact over this fold, once `signature` over its manifest
    /// has been made (build) or checked (boot) under `public_key`.
    fn into_index(
        self,
        config: AuthConfig,
        index: InvertedIndex,
        signature: Vec<u8>,
        public_key: RsaPublicKey,
    ) -> AuthenticatedIndex {
        AuthenticatedIndex {
            doc_table: self.doc_table.map_or_else(OnceLock::new, OnceLock::from),
            config,
            index,
            publication: Arc::new(SignedPublication {
                manifest: self.manifest,
                signature,
                docs: self.docs,
            }),
            public_key,
            cache: self.cache,
        }
    }
}

// ---- the owner's artifact -------------------------------------------------

/// A `pool::map` width with no thread behind it, as
/// [`AuthenticatedIndex::serve_pool`] reports it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint:allow(unused-pub): reached only through `AuthenticatedIndex::serve_pool` (`serve_pool().threads()`)
pub struct MapWidth(usize);

impl MapWidth {
    /// The width, counting the calling thread.
    pub fn threads(self) -> usize {
        self.0
    }
}

/// Everything the data owner hands the search engine: the index, its
/// lists in doc-id order, the digests of the authentication structures
/// and the publication with its one manifest signature.
#[derive(Debug)]
pub struct AuthenticatedIndex {
    config: AuthConfig,
    index: InvertedIndex,
    /// Every list in doc-id order: built with the doc-order trees under
    /// TRA, whose scans random-access it. TNRA's scans never do, so
    /// under TNRA it is built on first use (a conjunctive query's
    /// intersection, or a caller of [`AuthenticatedIndex::doc_table`]).
    doc_table: OnceLock<DocOrderedLists>,
    /// The manifest, its signature and, under TRA, each document's
    /// content digest: shared with every [`VerifierParams`] this
    /// artifact hands out, and sent to a client that asks for it.
    publication: Arc<SignedPublication>,
    public_key: RsaPublicKey,
    /// Engine-side resident structures (see [`cache`] and the module docs).
    cache: cache::ServeCache,
}

impl AuthenticatedIndex {
    /// Build every authentication structure and sign the manifest once.
    /// This is the owner's one-off preprocessing step: hashing and
    /// folding every term's list (under TRA in both orders) and, under
    /// TRA, the document table, then one RSA signature over the
    /// publication manifest (`publication_message`).
    ///
    /// The folds are embarrassingly parallel — every term's structures
    /// and dictionary leaf, and every document's content digest, is
    /// independent — so they fan out through `pool::map` over
    /// [`AuthConfig::threads`] threads (`threads: 1` keeps the
    /// paper's sequential owner model on the calling thread). Results are
    /// collected in index order, making the artifact **bit-identical for
    /// any thread count**.
    ///
    /// ```
    /// use authsearch_core::{AuthConfig, AuthenticatedIndex, Mechanism, Query};
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
    ///     threads: 1,
    ///     ..AuthConfig::new(Mechanism::TnraCmht)
    /// };
    /// let parallel = AuthConfig { threads: 4, ..sequential };
    /// let a = AuthenticatedIndex::build(index.clone(), &key, sequential, &corpus);
    /// let b = AuthenticatedIndex::build(index, &key, parallel, &corpus);
    /// // Same structures (and signature) regardless of thread count, so
    /// // the same reply, proofs included, byte for byte.
    /// let query = Query::from_text(&corpus, a.index(), "old keeper").unwrap();
    /// assert_eq!(
    ///     a.query(&query, 2, &corpus).unwrap(),
    ///     b.query(&query, 2, &corpus).unwrap()
    /// );
    /// ```
    pub fn build<C: ContentProvider>(
        index: InvertedIndex,
        key: &RsaPrivateKey,
        config: AuthConfig,
        contents: &C,
    ) -> AuthenticatedIndex {
        let m = index.num_terms();
        assert!(m > 0, "an index without terms has nothing to authenticate");
        for t in 0..m as TermId {
            assert!(
                !index.list(t).is_empty(),
                "term {t} has an empty inverted list; prune before authenticating"
            );
        }

        let threads = config.build_threads();
        let digests = if config.mechanism.is_tra() {
            content_digests(threads, index.num_docs(), contents)
        } else {
            Vec::new()
        };
        let fold = fold(threads, &config, &index, digests).expect("term and document ids are u32");
        let signature = key
            .sign(&fold.manifest.message())
            .expect("manifest signature");
        fold.into_index(config, index, signature, key.public_key().clone())
    }

    /// The `pool::map` width of the build and the boot. Serving runs
    /// on the calling thread; the value stays for a report line.
    #[doc(hidden)]
    pub fn serve_pool(&self) -> MapWidth {
        MapWidth(self.config.build_threads())
    }

    /// The configuration this artifact was built with.
    pub fn config(&self) -> &AuthConfig {
        &self.config
    }

    /// The underlying inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Every term's list in doc-id order: under TRA the doc-order trees'
    /// leaf layer, and the engine's random-access source. Under TNRA it
    /// is sorted on the first call.
    pub fn doc_table(&self) -> &DocOrderedLists {
        (self.doc_table).get_or_init(|| DocOrderedLists::from_index(&self.index))
    }

    /// The owner's public key (what users verify against).
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public_key
    }

    /// The public parameters clients verify this artifact's replies
    /// against, sharing its publication: what the owner hands its users
    /// at publication ([`crate::DataOwner::publish_index`]) and what boot
    /// checks a loaded snapshot against ([`boot_authenticated_index`]).
    pub fn verifier_params(&self) -> VerifierParams {
        VerifierParams::held(
            self.public_key.clone(),
            self.config.layout,
            Arc::clone(&self.publication),
        )
    }

    /// The publication: the manifest, its signature and, under TRA, each
    /// document's content digest.
    pub(crate) fn publication(&self) -> &SignedPublication {
        &self.publication
    }

    /// Leaf `t` of the resident dictionary-MHT.
    pub(crate) fn dict_leaf(&self, t: TermId) -> Digest {
        self.cache.dict_tree.leaf_digests()[t as usize]
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::toy::{toy_contents, toy_index};
    use crate::vo::Mechanism;
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};

    /// Toy-collection authenticated index under `mechanism`.
    pub(crate) fn test_auth(mechanism: Mechanism) -> AuthenticatedIndex {
        let key = cached_keypair(TEST_KEY_BITS);
        let config = AuthConfig::new(mechanism);
        AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents())
    }

    /// Root/head digest of term `t`'s list structure, refolded from
    /// `auth`'s index.
    pub(crate) fn term_root(auth: &AuthenticatedIndex, t: TermId) -> Digest {
        cache::TermStructure::build(&auth.config, auth.index.list(t)).0
    }

    /// The root term `t`'s dictionary leaf binds, refolded from `auth`'s
    /// index: its list root, combined under TRA with its doc-order root.
    pub(crate) fn dict_bound_root(auth: &AuthenticatedIndex, t: TermId) -> Digest {
        let root = term_root(auth, t);
        if auth.config.mechanism.is_tra() {
            combined_root(&root, &doc_order_tree(auth.index.list(t)).1)
        } else {
            root
        }
    }

    /// The manifest `auth` was signed over, refolded from its index.
    pub(crate) fn manifest_of(auth: &AuthenticatedIndex) -> [u8; 55] {
        let digests = auth.publication.docs.clone();
        fold(1, &auth.config, &auth.index, digests)
            .unwrap()
            .manifest
            .message()
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{manifest_of, term_root};
    use super::*;
    use crate::toy::{toy_contents, toy_index};
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};

    #[test]
    fn config_defaults_follow_paper() {
        let c = AuthConfig::new(Mechanism::TraCmht);
        assert!(c.buddy);
        assert_eq!(c.chain_capacity(), 251);
        let c2 = AuthConfig::new(Mechanism::TnraCmht);
        assert_eq!(c2.chain_capacity(), 125);
        assert!(!AuthConfig::new(Mechanism::TnraMht).buddy);
    }

    #[test]
    fn build_signs_every_term() {
        // Every term's root sits in the dictionary-MHT, and the one
        // signature covers the dictionary root.
        let key = cached_keypair(TEST_KEY_BITS);
        let auth = AuthenticatedIndex::build(
            toy_index(),
            &key,
            AuthConfig::new(Mechanism::TnraMht),
            &toy_contents(),
        );
        let dict = &auth.cache.dict_tree;
        assert_eq!(dict.num_leaves(), 16);
        let t = 15u32; // 'the'
        assert_eq!(
            dict.leaf_digests()[t as usize],
            dict_leaf_digest(t, auth.index.ft(t), &term_root(&auth, t))
        );
        auth.public_key()
            .verify(&manifest_of(&auth), &auth.publication.signature)
            .unwrap();
    }

    #[test]
    fn tra_build_signs_the_document_table_once() {
        let key = cached_keypair(TEST_KEY_BITS);
        let auth = AuthenticatedIndex::build(
            toy_index(),
            &key,
            AuthConfig::new(Mechanism::TraMht),
            &toy_contents(),
        );
        // The publication holds each document's content digest, in
        // doc-id order.
        let docs = &auth.publication.docs;
        assert_eq!(docs.len(), 9);
        let d = 6u32;
        assert_eq!(docs[d as usize], Digest::hash(&toy_contents()[d as usize]));
        // Leaf d of the table is the leaf digest of document d's message.
        let leaves: Vec<Digest> = (0..)
            .zip(docs)
            .map(|(d, content)| doc_table_leaf(d, content))
            .collect();
        let msg = doc_message(d, &docs[d as usize]);
        assert_eq!(leaves[d as usize], Digest::leaf(&msg));
        // The one signature binds the table root through the manifest.
        let tree = MerkleTree::from_leaf_digests(leaves);
        let manifest = manifest_of(&auth);
        assert_eq!(&manifest[manifest.len() - 16..], tree.root().as_bytes());
        auth.public_key()
            .verify(&manifest, &auth.publication.signature)
            .unwrap();
    }

    #[test]
    fn tnra_build_has_no_doc_structures() {
        let key = cached_keypair(TEST_KEY_BITS);
        let auth = AuthenticatedIndex::build(
            toy_index(),
            &key,
            AuthConfig::new(Mechanism::TnraCmht),
            &toy_contents(),
        );
        assert!(auth.publication.docs.is_empty());
        // The manifest's table slot holds the fixed constant.
        let manifest = manifest_of(&auth);
        assert_eq!(
            &manifest[manifest.len() - 16..],
            NO_DOC_TABLE_ROOT.as_bytes()
        );
        auth.public_key()
            .verify(&manifest, &auth.publication.signature)
            .unwrap();
    }

    #[test]
    fn doc_table_leaves_cannot_pass_as_interior_nodes() {
        // A leaf hashes `0x00 | message`, an interior node
        // `0x01 | left | right`: even a 32-byte leaf encoding equal to an
        // interior node's children hashes into the other domain.
        let msg = doc_message(3, &Digest::hash(b"content"));
        assert_eq!(msg.len(), 38);
        assert_ne!(Digest::leaf(&msg), Digest::hash(&msg));
        let (l, r) = (Digest::hash(b"l"), Digest::hash(b"r"));
        let children = [l.0, r.0].concat();
        assert_ne!(Digest::leaf(&children), Digest::combine(&l, &r));
        // A combined root is in a third domain: neither the interior node
        // nor the leaf over the same two digests.
        assert_ne!(combined_root(&l, &r), Digest::combine(&l, &r));
        assert_ne!(combined_root(&l, &r), Digest::leaf(&children));
        let manifest = publication_message(Mechanism::TraMht, 16, 9, &l, &r);
        assert!(manifest.starts_with(b"authsearch:pub"));
    }

    #[test]
    fn signed_messages_fit_one_sha256_block() {
        // SHA-256 pads an input of at most 55 bytes into a single 64-byte
        // block, so every leaf (message plus its domain byte), every
        // interior node and combined root (33 bytes) and the signed
        // manifest is one compression.
        let d = Digest::hash(b"x");
        let dict_leaf: [u8; 43] = message(&[b"authsearch:term:v1|", &[0; 4], &[0; 4], &d.0]);
        let entry = ImpactEntry {
            doc: 1,
            weight: 0.5,
        };
        let lens = [
            1 + dict_leaf.len(),
            1 + doc_message(1, &d).len(),
            1 + fact_leaf_bytes(&entry).len(),
            1 + 2 * authsearch_crypto::DIGEST_LEN,
            publication_message(Mechanism::TnraCmht, 1, 2, &d, &d).len(),
        ];
        assert!(lens.iter().all(|&n| n <= 55), "{lens:?}");
    }

    #[test]
    #[should_panic(expected = "message parts must fill the encoding exactly")]
    fn message_parts_must_fill_the_encoding() {
        let _: [u8; 8] = message(&[b"short"]);
    }

    /// Digests of the toy collection: any change to the hash, a leaf
    /// encoding, a domain prefix or the tree shapes moves at least one of
    /// them, which would invalidate every snapshot and signature already
    /// published. The values come from an independent textbook fold —
    /// SHA-256 padded by hand over the crypto crate's scalar compression
    /// function, every tree folded level by level with `h(0x00 | leaf)`
    /// leaves and `h(0x01 | l | r)` interior nodes — which, with the
    /// prefixes dropped, reproduces the digests pinned before domain
    /// separation. Under TRA the dictionary binds each list root
    /// combined with its doc-order root, and the document table folds
    /// `h(doc) | d` messages.
    #[test]
    fn golden_roots_are_byte_stable() {
        // (mechanism, term 0 list root/head, term 15 list root/head,
        // dictionary root, document-table root)
        let golden = [
            (
                Mechanism::TraMht,
                "b0b26bc74921ecfff713a2f2301974f1",
                "bef7cb5358a6d9eaa66e6b7f5c15ac96",
                "876c283125f067300cfbf2f958f86355",
                Some("f0eb43fd6e4285e7f14a28d965b62c26"),
            ),
            (
                Mechanism::TraCmht,
                "b0b26bc74921ecfff713a2f2301974f1",
                "edcff7fa707dc603332c1b4828752710",
                "7dae37c072982bad24e4f6da66ecf3cb",
                Some("f0eb43fd6e4285e7f14a28d965b62c26"),
            ),
            (
                Mechanism::TnraMht,
                "74178b9e3a95d23247aa014233ca65da",
                "0079047af4a25118e2af507164cb24a1",
                "87968b25612ba13fac05813a49fbfec9",
                None,
            ),
            (
                Mechanism::TnraCmht,
                "74178b9e3a95d23247aa014233ca65da",
                "f574c3b37cedb2b5e20902979ede2165",
                "8e78c2af022c4f3427cca3e47eb24689",
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
                ..AuthConfig::new(mechanism)
            };
            let auth = AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents());
            let m = auth.index.num_terms() as TermId;
            let got = (
                term_root(&auth, 0).to_hex(),
                term_root(&auth, m - 1).to_hex(),
                auth.cache.dict_tree.root().to_hex(),
                (mechanism.is_tra()).then(|| auth.publication.manifest.table_root.to_hex()),
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
        // Every build is §3.4's dictionary mode: one signature, whatever
        // the mechanism.
        let key = cached_keypair(TEST_KEY_BITS);
        for mechanism in Mechanism::ALL {
            let auth = AuthenticatedIndex::build(
                toy_index(),
                &key,
                AuthConfig::new(mechanism),
                &toy_contents(),
            );
            assert_eq!(
                auth.publication.signature.len(),
                key.public_key().signature_len()
            );
            assert_eq!(auth.space_report(0).signatures, 1, "{mechanism:?}");
        }
    }

    #[test]
    fn mechanism_changes_term_roots() {
        let key = cached_keypair(TEST_KEY_BITS);
        let a = AuthenticatedIndex::build(
            toy_index(),
            &key,
            AuthConfig::new(Mechanism::TraMht),
            &toy_contents(),
        );
        let b = AuthenticatedIndex::build(
            toy_index(),
            &key,
            AuthConfig::new(Mechanism::TnraMht),
            &toy_contents(),
        );
        // TRA roots cover doc ids only; TNRA roots cover ⟨d, f⟩ — they
        // must differ.
        assert_ne!(term_root(&a, 15), term_root(&b, 15));
    }

    #[test]
    fn parallel_build_is_bit_identical_to_sequential() {
        // The paper model is the single-threaded build; any thread count
        // must reproduce it exactly: same roots, same signature.
        let key = cached_keypair(TEST_KEY_BITS);
        for mechanism in Mechanism::ALL {
            let sequential = AuthConfig {
                threads: 1,
                ..AuthConfig::new(mechanism)
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
                    built.cache.dict_tree.leaf_digests(),
                    reference.cache.dict_tree.leaf_digests(),
                    "{mechanism:?} threads={threads}: dictionary leaves (every term root)"
                );
                assert_eq!(
                    built.cache.dict_tree.root(),
                    reference.cache.dict_tree.root(),
                    "{mechanism:?} threads={threads}"
                );
                // The manifest, its signature, and every document's
                // content digest.
                assert_eq!(
                    built.publication, reference.publication,
                    "{mechanism:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_build_proofs_verify_end_to_end() {
        // Proofs produced from a parallel-built artifact must verify
        // exactly like sequential ones (bit-identical structures in,
        // bit-identical VOs out).
        use crate::toy::toy_query;
        use crate::verify::verify;
        let key = cached_keypair(TEST_KEY_BITS);
        for mechanism in Mechanism::ALL {
            let config = AuthConfig {
                threads: 4,
                ..AuthConfig::new(mechanism)
            };
            let auth = AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents());
            let params = auth.verifier_params();
            let response = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
            let verified = verify(&params, &toy_query(), 2, &response)
                .unwrap_or_else(|e| panic!("{mechanism:?}: {e}"));
            assert_eq!(verified.result, response.result);
        }
    }

    #[test]
    fn build_threads_resolves_auto() {
        let auto = AuthConfig::new(Mechanism::TnraMht);
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
    fn leaf_encodings_are_canonical() {
        // One SHA-256 block with the leaf domain byte; a doc-order leaf
        // binds its weight and is not the TNRA list leaf of its entry.
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
        assert_eq!(fact_leaf_bytes(&e1).len(), 9);
        assert_ne!(fact_leaf_digest(&e1), fact_leaf_digest(&e2));
        assert_ne!(fact_leaf_digest(&e1), tnra_leaf_digest(&e1));
    }
}
