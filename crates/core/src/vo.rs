//! Verification objects: the integrity proofs returned with every query
//! result, and their size accounting (the paper's Figures 13(d), 14(d),
//! 15(d) and Table 2).

use authsearch_corpus::{DocId, TermId};
use authsearch_crypto::{ChainPrefixProof, MerkleProof, DIGEST_LEN};
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
    /// frequencies travel in the doc-order proofs ([`TermFacts`]).
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
    /// Always `None`, and never encoded: the owner's one manifest
    /// signature covers every term, and the client checks it once, when
    /// it takes the publication in. The field goes with ROADMAP item 1,
    /// once the benchmark stops reading it.
    pub signature: Option<Vec<u8>>,
}

/// One query term's doc-order proof (TRA): the least set of leaves of
/// the term's doc-order tree that settles, for every proved document
/// `d`, either `w_{d,t}` (d's leaf) or "t ∉ d" (the two position-adjacent
/// leaves whose doc ids bracket `d`, or the first or last leaf when `d`
/// lies outside the list's range). The tree has `f_t` leaves, the count
/// the term's dictionary leaf binds, so the proof carries none.
#[derive(Debug, Clone, PartialEq, Default)]
// lint:allow(unused-pub): reached only through `VerificationObject::facts`
pub struct TermFacts {
    /// Revealed leaves, by ascending position (and so ascending doc id).
    pub revealed: Vec<FactLeaf>,
    /// Complementary digests up to the doc-order root.
    pub proof: MerkleProof,
}

/// One revealed doc-order leaf: entry `⟨d, w_{d,t}⟩` at its position in
/// the term's list in doc-id order.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint:allow(unused-pub): reached only through `TermFacts::revealed`
pub struct FactLeaf {
    /// Position in the doc-order tree.
    pub pos: u32,
    /// The document.
    pub doc: DocId,
    /// `w_{d,t}`.
    pub weight: f32,
}

impl FactLeaf {
    /// The leaf's entry.
    pub(crate) fn entry(&self) -> ImpactEntry {
        ImpactEntry {
            doc: self.doc,
            weight: self.weight,
        }
    }
}

/// Proof connecting the query terms' roots to the dictionary-MHT root in
/// the owner's signed manifest (§3.4), which the client holds.
#[derive(Debug, Clone, PartialEq)]
// lint:allow(unused-pub): reached only through `VerificationObject::dict`
pub struct DictVo {
    /// Dictionary size `m` (tree shape parameter, bound by the manifest).
    pub num_terms: u32,
    /// Multi-proof for the query terms' leaf positions.
    pub proof: MerkleProof,
}

/// The complete verification object for one query result. It carries
/// no signature: every root it reconstructs is compared with the owner's
/// publication the client holds (`crate::publication`), whose manifest
/// signature the client checked once.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationObject {
    /// Which mechanism produced this VO.
    pub mechanism: Mechanism,
    /// One entry per query term, in query order.
    pub terms: Vec<TermVo>,
    /// The proved documents (TRA mechanisms only), in encounter order:
    /// each one's every query-term fact is in [`VerificationObject::facts`].
    pub docs: Vec<DocId>,
    /// One doc-order proof per query term (TRA mechanisms only), in
    /// query order.
    pub facts: Vec<TermFacts>,
    /// Dictionary-MHT proof: present on every reply.
    pub dict: Option<DictVo>,
}

/// Byte breakdown of a VO — the paper's Table 2 splits VOs into data
/// (leaf) bytes and digest bytes; signatures are reported separately,
/// and a reply here carries none. Every field is charged at its encoded
/// width (`crate::wire`), so a VO's encoding is exactly
/// [`VoSize::total`] plus [`VoSize::framing`] bytes long.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VoSize {
    /// Leaf/data bytes: term ids and `f_t`, prefix entries, proved
    /// document ids, revealed doc-order leaves and the dictionary size.
    pub data: usize,
    /// Digest bytes (16 per digest).
    pub digest: usize,
    /// Signature bytes: always 0, since a reply carries no signature.
    /// The field stays for the paper's Table 2 split, beside `data` and
    /// `digest`.
    pub signature: usize,
    /// The rest of the encoding, which no table of the paper counts:
    /// the magic, the mechanism, tags and every list and digest count.
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
    /// Signatures the paper's scheme carries for the same reply: one per
    /// query term's list (§3.3) plus one per proved document (Figure 8
    /// signs every document-MHT root), where this VO carries none.
    pub(crate) fn paper_signature_count(&self) -> usize {
        self.terms.len() + self.docs.len()
    }

    /// Compute the byte breakdown of the VO's encoding.
    pub fn size(&self) -> VoSize {
        // Magic, mechanism and the term count.
        let mut s = VoSize {
            framing: crate::wire::MAGIC.len() + 1 + count_len(self.terms.len()),
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
        s = s + self.facts_size();
        if let Some(dict) = &self.dict {
            s.data += varint32_len(dict.num_terms);
            s.framing += count_len(dict.proof.digests.len());
            s.digest += dict.proof.size_bytes();
        }
        s
    }
}

impl VerificationObject {
    /// The byte breakdown of the proved documents and the doc-order
    /// proofs (TRA): the document count and ids, then under TRA the
    /// proof count and every proof.
    pub(crate) fn facts_size(&self) -> VoSize {
        let mut s = VoSize {
            data: self.docs.iter().map(|&d| varint32_len(d)).sum(),
            framing: count_len(self.docs.len()),
            ..VoSize::default()
        };
        if self.mechanism.is_tra() {
            s.framing += count_len(self.facts.len());
        }
        self.facts.iter().fold(s, |s, f| s + f.size())
    }
}

impl TermFacts {
    /// The byte breakdown of this proof's encoding: per leaf its position
    /// and doc id, each a gap from the previous leaf's (a leaf out of
    /// order is charged a gap of zero), and its 4-byte weight; then the
    /// digests; framed by the leaf and digest counts.
    pub(crate) fn size(&self) -> VoSize {
        let (mut next_pos, mut next_doc) = (0, 0);
        let mut data = 0;
        for leaf in &self.revealed {
            let pos = u64::from(leaf.pos);
            let doc = u64::from(leaf.doc);
            data += varint_len(pos.saturating_sub(next_pos))
                + varint_len(doc.saturating_sub(next_doc))
                + 4;
            (next_pos, next_doc) = (pos + 1, doc + 1);
        }
        VoSize {
            data,
            digest: self.proof.size_bytes(),
            signature: 0,
            framing: count_len(self.revealed.len()) + count_len(self.proof.digests.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use authsearch_crypto::Digest;

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
            facts: vec![],
            dict: Some(DictVo {
                num_terms: 16,
                proof: MerkleProof {
                    digests: vec![Digest::ZERO; 4],
                },
            }),
        };
        let s = vo.size();
        // Term id and f_t, two entries of a 1-byte doc id and a weight,
        // and the dictionary size: one varint byte each.
        assert_eq!(s.data, 2 + 2 * 5 + 1);
        assert_eq!(s.digest, 48 + 64);
        assert_eq!(s.signature, 0);
        assert_eq!(s.total(), 13 + 48 + 64);
        // Magic, mechanism and the two top-level counts; two tags and
        // two counts for the term; and the dictionary's digest count.
        assert_eq!(s.framing, (4 + 1 + 2) + 4 + 1);
        assert_eq!(vo.paper_signature_count(), 1);
    }

    #[test]
    fn tra_vo_counts_no_signature_and_no_table() {
        // The proved documents add their ids, and each doc-order proof
        // its leaves, digests and two counts: no signature, no table
        // proof and no content digest, all of which the client holds.
        let leaf = |pos, doc| FactLeaf {
            pos,
            doc,
            weight: 0.5,
        };
        let facts = TermFacts {
            revealed: vec![leaf(2, 130), leaf(3, 140)],
            proof: MerkleProof {
                digests: vec![Digest::ZERO; 2],
            },
        };
        let vo = VerificationObject {
            mechanism: Mechanism::TraMht,
            terms: vec![],
            docs: vec![3, 140],
            facts: vec![facts.clone(), TermFacts::default()],
            dict: None,
        };
        let s = vo.size();
        // Doc ids of 1 and 2 bytes; leaves of a 1-byte position gap, a
        // 2- then 1-byte doc-id gap and a weight.
        let leaves = (1 + 2 + 4) + (1 + 1 + 4);
        assert_eq!(
            (s.data, s.digest, s.signature),
            (3 + leaves, 2 * DIGEST_LEN, 0)
        );
        // Magic, mechanism, the three top-level counts, and two counts
        // per doc-order proof.
        assert_eq!(s.framing, (4 + 1 + 3) + 2 * 2);
        assert_eq!(facts.size().total(), leaves + 2 * DIGEST_LEN);
        assert_eq!(vo.paper_signature_count(), 2);
    }
}
