//! The owner's publication, as the engine and every client hold it: the
//! one manifest the owner signs, its signature, and under TRA each
//! document's content digest `h(doc)` and document-MHT root.
//!
//! The manifest binds the mechanism, the dictionary size `m`, the
//! collection size `n`, the dictionary-MHT root and the document-table
//! root (`crate::auth::publication_message`). Leaf `d` of the document
//! table is the digest of document `d`'s `h(doc) | d | root` message,
//! so the `n` records below fold to the table root the manifest signs.
//!
//! A client checks the publication once, when it takes it in
//! ([`crate::VerifierParams::open`]): one RSA verification of the
//! manifest, one fold of the records to the signed table root. From then
//! on it compares every reply against what it holds: the dictionary root
//! and `m` a reply's proofs reconstruct with the manifest's, each
//! recomputed document-MHT root with the held root at its doc id, and
//! each result document's content hash with the held `h(doc)`. A reply
//! therefore carries no signature, no document-table proof and no
//! content digest.
//!
//! ## Encoding
//!
//! The payload of a [`crate::wire::kind::REPLY_PUBLICATION`] frame, and
//! what [`crate::VerifierParams::open`] reads:
//!
//! ```text
//! manifest (55) | signature: len u16, bytes | TRA only: n × (h(doc) 16, root 16)
//! ```
//!
//! `n` and the mechanism come from the manifest, so the records carry no
//! count; bytes after the last record are refused.

use crate::auth::{doc_table_leaf, publication_message, NO_DOC_TABLE_ROOT};
use crate::pool;
use crate::verify::VerifyError;
use crate::vo::Mechanism;
use authsearch_corpus::DocId;
use authsearch_crypto::merkle::interior_levels;
use authsearch_crypto::{Digest, RsaPublicKey, DIGEST_LEN};
use authsearch_index::codec::{self, CodecError, Reader, Writer};
use std::fmt;

/// Length of the signed manifest: one SHA-256 block.
pub(crate) const MANIFEST_LEN: usize = 55;

/// The tag every manifest starts with.
const MANIFEST_TAG: &[u8; 14] = b"authsearch:pub";

/// The signed manifest, parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Manifest {
    pub(crate) mechanism: Mechanism,
    /// Dictionary size `m`.
    pub(crate) num_terms: u32,
    /// Collection size `n`.
    pub(crate) num_docs: u32,
    pub(crate) dict_root: Digest,
    /// [`NO_DOC_TABLE_ROOT`] under TNRA.
    pub(crate) table_root: Digest,
}

impl Manifest {
    /// The bytes the owner signs.
    pub(crate) fn message(&self) -> [u8; MANIFEST_LEN] {
        publication_message(
            self.mechanism,
            self.num_terms,
            self.num_docs,
            &self.dict_root,
            &self.table_root,
        )
    }

    /// The manifest `bytes` encode; `None` for another tag or an unknown
    /// mechanism.
    fn parse(bytes: &[u8; MANIFEST_LEN]) -> Option<Manifest> {
        let (tag, rest) = bytes.split_first_chunk::<14>()?;
        let (&[code], rest) = rest.split_first_chunk::<1>()?;
        let (m, rest) = rest.split_first_chunk::<4>()?;
        let (n, rest) = rest.split_first_chunk::<4>()?;
        let (dict, rest) = rest.split_first_chunk::<DIGEST_LEN>()?;
        let table: &[u8; DIGEST_LEN] = rest.try_into().ok()?;
        if tag != MANIFEST_TAG {
            return None;
        }
        Some(Manifest {
            mechanism: Mechanism::from_code(code)?,
            num_terms: u32::from_le_bytes(*m),
            num_docs: u32::from_le_bytes(*n),
            dict_root: Digest(*dict),
            table_root: Digest(*table),
        })
    }
}

/// One document's entry of the held document table: what leaf `d` of
/// the table binds besides `d` itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DocRecord {
    /// `h(doc)`, the digest of the document's content.
    pub(crate) content: Digest,
    /// The root of the document's document-MHT.
    pub(crate) root: Digest,
}

/// The owner's publication: the manifest, the owner's signature over
/// it, and under TRA one [`DocRecord`] per document, in doc-id order
/// (none under TNRA). Held behind one `Arc` by the engine's artifact and
/// by every [`crate::VerifierParams`] cloned from it.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct SignedPublication {
    pub(crate) manifest: Manifest,
    pub(crate) signature: Vec<u8>,
    pub(crate) docs: Vec<DocRecord>,
}

impl fmt::Debug for SignedPublication {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SignedPublication")
            .field("manifest", &self.manifest)
            .field("signature_len", &self.signature.len())
            .field("docs", &self.docs.len())
            .finish()
    }
}

impl SignedPublication {
    /// Document `d`'s record; `None` past the collection or under TNRA.
    pub(crate) fn doc(&self, d: DocId) -> Option<&DocRecord> {
        self.docs.get(usize::try_from(d).ok()?)
    }

    /// Bytes a holder keeps for the check of every reply: the manifest
    /// and the document records.
    pub(crate) fn held_bytes(&self) -> usize {
        MANIFEST_LEN + self.docs.len() * 2 * DIGEST_LEN
    }

    /// Append the encoding of the module doc.
    pub(crate) fn write(&self, w: &mut Writer<'_>) -> Result<(), CodecError> {
        w.bytes(&self.manifest.message());
        w.bytes16(&self.signature, "manifest signature")?;
        for doc in &self.docs {
            w.bytes(doc.content.as_bytes());
            w.bytes(doc.root.as_bytes());
        }
        Ok(())
    }

    /// The encoding of the module doc.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(MANIFEST_LEN + 2 + self.signature.len() + 32 * self.docs.len());
        self.write(&mut Writer(&mut out))
            .expect("an RSA signature fits a u16 length");
        out
    }

    /// Decode `bytes` and check them under the owner's `key`: the
    /// signature over the manifest, then the document records' fold to
    /// the signed table root (the empty-table constant under TNRA).
    pub(crate) fn open(key: &RsaPublicKey, bytes: &[u8]) -> Result<SignedPublication, VerifyError> {
        let publication = codec::read_all(bytes, read)
            .map_err(|Malformed(why)| VerifyError::MalformedPublication(why))?;
        key.verify(&publication.manifest.message(), &publication.signature)
            .map_err(|_| VerifyError::ManifestSignature)?;
        let table_root = if publication.manifest.mechanism.is_tra() {
            fold_doc_table(pool::available_parallelism(), &publication.docs)
        } else {
            Some(NO_DOC_TABLE_ROOT)
        };
        if table_root != Some(publication.manifest.table_root) {
            return Err(VerifyError::DocTableRoot);
        }
        Ok(publication)
    }
}

/// Why publication bytes do not decode.
struct Malformed(String);

impl From<CodecError> for Malformed {
    fn from(e: CodecError) -> Self {
        Malformed(e.to_string())
    }
}

/// Parse the encoding of the module doc, without checking it.
fn read(r: &mut Reader<'_>) -> Result<SignedPublication, Malformed> {
    let manifest = Manifest::parse(&r.array()?)
        .ok_or_else(|| Malformed("not a publication manifest".into()))?;
    let signature = r.bytes16()?.to_vec();
    let docs = if manifest.mechanism.is_tra() {
        let digests = r.digests(2 * u64::from(manifest.num_docs), "document record digest")?;
        let (pairs, _) = digests.as_chunks::<2>();
        pairs
            .iter()
            .map(|&[content, root]| DocRecord { content, root })
            .collect()
    } else {
        Vec::new()
    };
    Ok(SignedPublication {
        manifest,
        signature,
        docs,
    })
}

/// The document-table root over `docs`: leaf `d` is
/// [`doc_table_leaf`] of document `d`'s record, the leaves hashed
/// [`pool::map`]-parallel over `threads`. `None` for no documents.
pub(crate) fn fold_doc_table(threads: usize, docs: &[DocRecord]) -> Option<Digest> {
    let leaves = pool::map(threads, docs.len(), |d| {
        let doc = &docs[d];
        doc_table_leaf(d as DocId, &doc.content, &doc.root)
    });
    let interior = interior_levels(&leaves);
    interior.last().or(leaves.first()).copied()
}
