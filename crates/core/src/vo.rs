//! Verification objects: the integrity proofs returned with every query
//! result, and their size accounting (the paper's Figures 13(d), 14(d),
//! 15(d) and Table 2).

use authsearch_corpus::{DocId, TermId};
use authsearch_crypto::{ChainPrefixProof, Digest, MerkleProof, DIGEST_LEN};
use authsearch_index::codec::varint_len;
use authsearch_index::ImpactEntry;

/// Encoded bytes of a `u32` varint: an id, `f_t` or leaf count.
fn varint32_len(v: u32) -> usize {
    varint_len(v.into())
}

/// Encoded bytes of a count's varint.
fn count_len(n: usize) -> usize {
    varint_len(n as u64)
}

/// The four authentication mechanisms evaluated in the paper (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Threshold with Random Access + plain Merkle-hash-tree lists.
    TraMht,
    /// Threshold with Random Access + chain-MHT lists (with buddy
    /// inclusion by default).
    TraCmht,
    /// Threshold with No Random Access + plain MHT lists.
    TnraMht,
    /// Threshold with No Random Access + chain-MHT lists.
    TnraCmht,
}

impl Mechanism {
    /// All four, in the paper's presentation order.
    pub const ALL: [Mechanism; 4] = [
        Mechanism::TraMht,
        Mechanism::TraCmht,
        Mechanism::TnraMht,
        Mechanism::TnraCmht,
    ];

    /// True for the TRA query-processing variants.
    pub fn is_tra(self) -> bool {
        matches!(self, Mechanism::TraMht | Mechanism::TraCmht)
    }

    /// True for the chain-MHT authentication variants.
    pub fn is_cmht(self) -> bool {
        matches!(self, Mechanism::TraCmht | Mechanism::TnraCmht)
    }

    /// One-byte code on the wire, in snapshots and in the publication
    /// manifest: the mechanism's index in [`Mechanism::ALL`].
    pub fn code(self) -> u8 {
        match self {
            Mechanism::TraMht => 0,
            Mechanism::TraCmht => 1,
            Mechanism::TnraMht => 2,
            Mechanism::TnraCmht => 3,
        }
    }

    /// The mechanism a [`Mechanism::code`] names; `None` for an unknown
    /// code.
    pub(crate) fn from_code(code: u8) -> Option<Mechanism> {
        Mechanism::ALL.get(usize::from(code)).copied()
    }

    /// Display name used in benchmark tables ("TRA-MHT" etc.).
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::TraMht => "TRA-MHT",
            Mechanism::TraCmht => "TRA-CMHT",
            Mechanism::TnraMht => "TNRA-MHT",
            Mechanism::TnraCmht => "TNRA-CMHT",
        }
    }
}

/// The authenticated prefix of one query term's inverted list.
#[derive(Debug, Clone, PartialEq)]
pub enum PrefixData {
    /// TRA lists: document identifiers only (a varint each); their
    /// frequencies travel in the document-MHTs.
    DocIds(Vec<DocId>),
    /// TNRA lists: full `⟨d, f⟩` impact entries (a varint doc id and a
    /// 4-byte weight each).
    Entries(Vec<ImpactEntry>),
}

impl PrefixData {
    /// Number of entries in the prefix.
    pub fn len(&self) -> usize {
        match self {
            PrefixData::DocIds(v) => v.len(),
            PrefixData::Entries(v) => v.len(),
        }
    }

    /// True when no entries were read.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// VO bytes of the prefix data, as encoded.
    pub(crate) fn data_bytes(&self) -> usize {
        match self {
            PrefixData::DocIds(v) => v.iter().map(|&d| varint32_len(d)).sum(),
            PrefixData::Entries(v) => v.iter().map(|e| varint32_len(e.doc) + 4).sum(),
        }
    }
}

/// Complementary digests for one inverted-list prefix.
#[derive(Debug, Clone, PartialEq)]
// lint:allow(unused-pub): reached only through `TermVo::proof`
pub enum TermProof {
    /// Plain MHT over the whole list (the server reads the entire list to
    /// regenerate these).
    Mht(MerkleProof),
    /// Chain-MHT: digests confined to the last-touched block plus its
    /// successor's digest.
    Cmht(ChainPrefixProof),
}

impl TermProof {
    /// Number of digests carried.
    pub fn num_digests(&self) -> usize {
        match self {
            TermProof::Mht(p) => p.digests.len(),
            TermProof::Cmht(p) => p.num_digests(),
        }
    }
}

/// Per-query-term verification data.
#[derive(Debug, Clone, PartialEq)]
// lint:allow(unused-pub): reached only through `VerificationObject::terms`
pub struct TermVo {
    /// The query term this list belongs to.
    pub term: TermId,
    /// `f_t` from the dictionary (bound into the term's dictionary-MHT
    /// leaf).
    pub ft: u32,
    /// Authenticated prefix (processed entries, buddy-padded under CMHT).
    pub prefix: PrefixData,
    /// Complementary digests.
    pub proof: TermProof,
    /// Always `None`, and never encoded: the one manifest signature
    /// ([`VerificationObject::signature`]) covers every term. The field
    /// goes with ROADMAP item 1, once the benchmark counts signatures
    /// through `VerificationObject::signature_count`.
    pub signature: Option<Vec<u8>>,
}

impl TermVo {
    /// The term's document-MHT leaf key, from the `f_t` its dictionary
    /// leaf binds.
    pub(crate) fn leaf_key(&self) -> u64 {
        crate::types::leaf_key(crate::types::freq_class(self.ft), self.term)
    }
}

/// Per-document verification data (TRA only): certifies the query-term
/// frequencies of one encountered document via its document-MHT.
#[derive(Debug, Clone, PartialEq)]
// lint:allow(unused-pub): reached only through `VerificationObject::docs`
pub struct DocVo {
    /// The document.
    pub doc: DocId,
    /// Total leaves in the document-MHT (distinct terms in the document).
    pub num_leaves: u32,
    /// Revealed leaves, ascending position: the query terms present in
    /// the document, the boundary pairs proving absent query terms, and
    /// any buddies.
    pub revealed: Vec<DocLeaf>,
    /// Complementary digests up to the document-MHT root.
    pub proof: MerkleProof,
    /// `h(doc)` for non-result documents; result documents are delivered
    /// in full and the user hashes them itself.
    pub content_digest: Option<Digest>,
}

/// One revealed document-MHT leaf: the leaf message `(t, w_{d,t}, c_t)`
/// at its position. Leaves are ordered by `crate::types::leaf_key` of
/// `(c_t, t)`, so a verifier checks a bounding pair by key.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint:allow(unused-pub): reached only through `DocVo::revealed`
pub struct DocLeaf {
    /// Position in the document-MHT.
    pub pos: u32,
    /// The term.
    pub term: TermId,
    /// `w_{d,t}`.
    pub weight: f32,
    /// `c_t`, the term's frequency class (`crate::types::freq_class`).
    pub class: u8,
}

impl DocLeaf {
    /// The leaf's sort key.
    pub fn key(&self) -> u64 {
        crate::types::leaf_key(self.class, self.term)
    }

    /// The leaf's digest in its document-MHT.
    pub(crate) fn digest(&self) -> Digest {
        crate::auth::doc_leaf_digest(self.term, self.weight, self.class)
    }
}

/// Proof connecting every [`DocVo`] to the document-table root in the
/// owner's signed manifest (TRA only): leaf `d` of that tree is the
/// digest of document `d`'s `h(doc) | d | root` message, so the client
/// recomputes each leaf from data it authenticates anyway and checks one
/// multi-proof for the whole reply.
#[derive(Debug, Clone, PartialEq)]
// lint:allow(unused-pub): reached only through `VerificationObject::doc_table`
pub struct DocTableVo {
    /// Multi-proof for the encountered documents' leaf positions (their
    /// doc ids, ascending).
    pub proof: MerkleProof,
}

/// Proof connecting the query terms' roots to the dictionary-MHT root in
/// the owner's signed manifest (§3.4).
#[derive(Debug, Clone, PartialEq)]
// lint:allow(unused-pub): reached only through `VerificationObject::dict`
pub struct DictVo {
    /// Dictionary size `m` (tree shape parameter, bound by the manifest).
    pub num_terms: u32,
    /// Multi-proof for the query terms' leaf positions.
    pub proof: MerkleProof,
}

/// The complete verification object for one query result.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationObject {
    /// Which mechanism produced this VO.
    pub mechanism: Mechanism,
    /// One entry per query term, in query order.
    pub terms: Vec<TermVo>,
    /// Document proofs (TRA mechanisms only), in encounter order.
    pub docs: Vec<DocVo>,
    /// Dictionary-MHT proof: present on every reply.
    pub dict: Option<DictVo>,
    /// Document-table proof: present iff the mechanism is TRA.
    pub doc_table: Option<DocTableVo>,
    /// The owner's one signature over the publication manifest
    /// (mechanism, `m`, `n`, dictionary root, document-table root).
    pub signature: Vec<u8>,
}

/// Byte breakdown of a VO — the paper's Table 2 splits VOs into data
/// (leaf) bytes and digest bytes; signatures are reported separately.
/// Every field is charged at its encoded width (`crate::wire`), so a
/// VO's encoding is exactly [`VoSize::total`] plus [`VoSize::framing`]
/// bytes long.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VoSize {
    /// Leaf/data bytes: term ids and `f_t`, prefix entries, document
    /// ids and leaf counts, revealed document-MHT leaves and the
    /// dictionary size.
    pub data: usize,
    /// Digest bytes (16 per digest, including content digests).
    pub digest: usize,
    /// Signature bytes.
    pub signature: usize,
    /// The rest of the encoding, which no table of the paper counts:
    /// the magic, the mechanism, tags, content flags and every list,
    /// digest and signature-length count.
    pub framing: usize,
}

impl VoSize {
    /// VO size in bytes as the paper counts it: data, digests and
    /// signatures, without [`VoSize::framing`].
    pub fn total(&self) -> usize {
        self.data + self.digest + self.signature
    }
}

impl std::ops::Add for VoSize {
    type Output = VoSize;
    fn add(self, rhs: VoSize) -> VoSize {
        VoSize {
            data: self.data + rhs.data,
            digest: self.digest + rhs.digest,
            signature: self.signature + rhs.signature,
            framing: self.framing + rhs.framing,
        }
    }
}

impl VerificationObject {
    /// Signatures this VO carries: the one manifest signature.
    pub(crate) fn signature_count(&self) -> usize {
        usize::from(!self.signature.is_empty())
    }

    /// Signatures the paper's scheme carries for the same reply: one per
    /// query term's list (§3.3) plus one per document proof (Figure 8
    /// signs every document-MHT root), where this VO carries one.
    pub(crate) fn paper_signature_count(&self) -> usize {
        self.terms.len() + self.docs.len()
    }

    /// Compute the byte breakdown of the VO's encoding.
    pub fn size(&self) -> VoSize {
        // Magic, mechanism, and the term and document counts.
        let mut s = VoSize {
            framing: crate::wire::MAGIC.len()
                + 1
                + count_len(self.terms.len())
                + count_len(self.docs.len()),
            ..VoSize::default()
        };
        for t in &self.terms {
            s.data += varint32_len(t.term) + varint32_len(t.ft);
            s.data += t.prefix.data_bytes();
            let digests = t.proof.num_digests();
            // Prefix and proof tags, and their counts.
            s.framing += 2 + count_len(t.prefix.len()) + count_len(digests);
            s.digest += digests * DIGEST_LEN;
        }
        for d in &self.docs {
            s.data += varint32_len(d.doc) + varint32_len(d.num_leaves);
            let mut next = 0;
            for leaf in &d.revealed {
                // A leaf out of order does not encode; charge it a gap
                // of zero.
                let packed = crate::wire::packed_leaf(next, leaf.pos, leaf.class)
                    .unwrap_or(leaf.class.into());
                s.data += varint_len(packed) + varint32_len(leaf.term) + 4;
                next = u64::from(leaf.pos) + 1;
            }
            // Revealed and digest counts, and the content flag.
            s.framing += count_len(d.revealed.len()) + count_len(d.proof.digests.len()) + 1;
            s.digest += d.proof.digests.len() * DIGEST_LEN;
            if d.content_digest.is_some() {
                s.digest += DIGEST_LEN;
            }
        }
        if let Some(dict) = &self.dict {
            s.data += varint32_len(dict.num_terms);
            s.framing += count_len(dict.proof.digests.len());
            s.digest += dict.proof.digests.len() * DIGEST_LEN;
        }
        if let Some(table) = &self.doc_table {
            s.framing += count_len(table.proof.digests.len());
            s.digest += table.proof.digests.len() * DIGEST_LEN;
        }
        s.framing += count_len(self.signature.len());
        s.signature += self.signature.len();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanism_predicates() {
        assert!(Mechanism::TraMht.is_tra());
        assert!(Mechanism::TraCmht.is_tra() && Mechanism::TraCmht.is_cmht());
        assert!(!Mechanism::TnraMht.is_cmht());
        assert!(Mechanism::TnraCmht.is_cmht() && !Mechanism::TnraCmht.is_tra());
        assert_eq!(Mechanism::ALL.len(), 4);
    }

    #[test]
    fn prefix_data_bytes() {
        // A varint doc id each, and a 4-byte weight per impact entry.
        assert_eq!(PrefixData::DocIds(vec![1, 2, 3]).data_bytes(), 3);
        assert_eq!(PrefixData::DocIds(vec![127, 128, 1 << 14]).data_bytes(), 6);
        let entries = vec![ImpactEntry {
            doc: 1,
            weight: 0.5,
        }];
        assert_eq!(PrefixData::Entries(entries).data_bytes(), 5);
    }

    #[test]
    fn vo_size_accounting() {
        let vo = VerificationObject {
            mechanism: Mechanism::TnraMht,
            terms: vec![TermVo {
                term: 7,
                ft: 10,
                prefix: PrefixData::Entries(vec![
                    ImpactEntry {
                        doc: 1,
                        weight: 0.5,
                    },
                    ImpactEntry {
                        doc: 2,
                        weight: 0.4,
                    },
                ]),
                proof: TermProof::Mht(MerkleProof {
                    digests: vec![Digest::ZERO; 3],
                }),
                signature: None,
            }],
            docs: vec![],
            dict: Some(DictVo {
                num_terms: 16,
                proof: MerkleProof {
                    digests: vec![Digest::ZERO; 4],
                },
            }),
            doc_table: None,
            signature: vec![0u8; 128],
        };
        let s = vo.size();
        // Term id and f_t, two entries of a 1-byte doc id and a weight,
        // and the dictionary size: one varint byte each.
        assert_eq!(s.data, 2 + 2 * 5 + 1);
        assert_eq!(s.digest, 48 + 64);
        assert_eq!(s.signature, 128);
        assert_eq!(s.total(), 13 + 48 + 64 + 128);
        // Magic, mechanism and the two top-level counts; two tags and
        // two counts for the term; the dictionary's digest count; and
        // the signature length, 128, in two bytes.
        assert_eq!(s.framing, (4 + 1 + 2) + 4 + 1 + 2);
        assert_eq!((vo.signature_count(), vo.paper_signature_count()), (1, 1));
    }

    #[test]
    fn doc_table_counts_one_signature_and_its_digests() {
        // The document table adds its digests and no signature: the
        // reply's one signature is the manifest's.
        let doc = DocVo {
            doc: 3,
            num_leaves: 0,
            revealed: vec![],
            proof: MerkleProof::default(),
            content_digest: None,
        };
        let vo = VerificationObject {
            mechanism: Mechanism::TraMht,
            terms: vec![],
            docs: vec![doc.clone(), DocVo { doc: 4, ..doc }],
            dict: None,
            doc_table: Some(DocTableVo {
                proof: MerkleProof {
                    digests: vec![Digest::ZERO; 5],
                },
            }),
            signature: vec![0u8; 128],
        };
        let s = vo.size();
        // A 1-byte doc id and leaf count per document.
        assert_eq!((s.data, s.digest, s.signature), (4, 5 * DIGEST_LEN, 128));
        assert_eq!(vo.signature_count(), 1);
        assert_eq!(vo.paper_signature_count(), 2);
    }
}
