//! Wire serialization: verification objects, and the framed
//! request/reply protocol of the network server.
//!
//! The VO travels from the search engine to the user, who pays for
//! every byte of it (the paper's Table 2 and Figures 13–15(d)), so its
//! encoding carries what the proof needs and little else. Ids, `f_t`,
//! leaf positions and every count are LEB128 varints
//! (`authsearch_index::codec`, minimal form only, so each VO has exactly
//! one encoding); weights keep their 4 bytes of `f32` bits and digests
//! their 16. The size model of [`crate::vo`] charges each field at this
//! width: an encoding is `VoSize::total() + VoSize::framing` bytes.
//!
//! ## VO layout
//!
//! `v` is a varint; `v16` a varint the layout caps at `u16::MAX`.
//!
//! ```text
//! "AVO1" (4) | mechanism u8 | n_terms v16 | terms | n_docs v | n_docs × (d v)
//!   | TRA only: n_facts v16, n_facts × facts
//!   | dict: m v, n v16, n × digest
//! term:  t v | f_t v | prefix | proof
//!   prefix: 0 u8, n v, n × (d v)               TRA: doc ids
//!         | 1 u8, n v, n × (d v, w f32)        TNRA: impact entries
//!   proof:  0 u8 (MHT) | 1 u8 (chain-MHT tail), n v16, n × digest
//! facts: n v | n × leaf | n v16, n × digest    one per query term
//! leaf:  pos gap v | doc gap v | w f32
//! ```
//!
//! A VO carries no signature, no document-table proof and no content
//! digest: the client holds the owner's publication
//! (`crate::publication`) and compares what the VO reconstructs with
//! it. The `docs` are the proved documents in encounter order; each
//! `facts` entry is one query term's doc-order proof of every fact about
//! them, and carries no leaf count: the tree has `f_t` leaves.
//!
//! A revealed leaf's position gap is its position minus the previous
//! leaf's position minus one (the first leaf's is its position), and its
//! doc gap likewise for its doc id, so both ascend strictly by
//! construction. Decoding refuses a gap that runs past `u32` (computed in
//! `u64`, so a forged gap cannot wrap), a value too large for its field,
//! and a count the remaining bytes could not hold, before allocating for
//! it. A TNRA VO has no `facts` section, so its bytes are those of v8.
//!
//! ## Frame protocol
//!
//! The long-running server ([`crate::server`]) speaks length-prefixed
//! frames over TCP. Every frame is a fixed 10-byte header followed by a
//! payload:
//!
//! ```text
//! "ASRV" (4) | version u8 | kind u8 | payload_len u32 LE | payload
//! ```
//!
//! Requests carry a query (natural-language text, or explicit
//! `(term, f_{Q,t})` pairs) plus the result size `r` ([`Request`]); the
//! frame kind alone says whether a term query is disjunctive or
//! conjunctive. Replies carry either the full [`QueryResponse`] —
//! ranked result, VO bytes, result-document contents, I/O trace —
//! prefixed by the `(term, f_{Q,t})` echo the client verifies against,
//! or a coded error ([`Reply`]). One more request kind,
//! [`kind::REQ_PUBLICATION`], asks for the owner's publication: a
//! client that holds only the owner's key fetches it once and checks it
//! under the key ([`crate::VerifierParams::open`]) before it trusts a
//! reply. Every decode path returns a
//! [`WireError`] on malformed input — attacker-controlled bytes can
//! never panic the server or force an implausible allocation (counts
//! are bounded before `Vec::with_capacity`, payload length by
//! [`MAX_FRAME_PAYLOAD`]), and an unknown version or kind is rejected
//! at the header.
//! Every field goes through `authsearch_index::codec`, the one bounded
//! reader and writer the snapshot uses too; a reply's VO is written in
//! place behind a back-patched length. Frame fields outside the VO are
//! fixed-width and little-endian.

use crate::auth::serve::QueryResponse;
use crate::publication::SignedPublication;
use crate::types::{QueryMode, QueryResult, ResultEntry};
use crate::vo::{
    DictVo, FactLeaf, Mechanism, PrefixData, TermFacts, TermProof, TermVo, VerificationObject,
};
use authsearch_corpus::TermId;
use authsearch_crypto::{ChainPrefixProof, Digest, MerkleProof};
use authsearch_index::codec::{self, CodecError, Reader, Writer};
use authsearch_index::{ImpactEntry, IoStats};

pub(crate) const MAGIC: &[u8; 4] = b"AVO1";

/// Wire-format error: a malformed transmission on decode, or a VO whose
/// collections exceed what their length prefixes can represent on
/// encode. The verifier treats either like any other invalid VO.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(unused-pub): reached only as the error of the `wire` codec and `ClientNetError::Wire`
pub enum WireError {
    /// Decoding found bytes that are not a well-formed VO or frame (or
    /// encoding was handed a VO the layout cannot carry).
    Malformed(String),
    /// Encoding refused a collection longer than its length prefix can
    /// carry, rather than truncate it into a VO that decodes into
    /// something else.
    TooLong {
        /// Which collection overflowed (e.g. `"term proofs"`).
        field: &'static str,
        /// The collection's actual length.
        len: usize,
        /// The largest length the prefix can represent.
        max: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed(what) => write!(f, "malformed VO encoding: {what}"),
            WireError::TooLong { field, len, max } => {
                write!(f, "VO not encodable: {field} holds {len} entries, wire format carries at most {max}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::TooLong(field, len, max) => WireError::TooLong { field, len, max },
            other => WireError::Malformed(other.to_string()),
        }
    }
}

fn err(what: &str) -> WireError {
    WireError::Malformed(what.into())
}

// ---- verification objects ---------------------------------------------------

/// Serialize a VO to bytes, in the layout of the module doc.
///
/// Fails with [`WireError::TooLong`] when a collection exceeds what the
/// layout carries (≥ 2¹⁶ term proofs or proof digests) — truncating it
/// would produce an unverifiable transmission — and with
/// [`WireError::Malformed`] on a VO the layout cannot carry: one without
/// a dictionary proof, a TNRA one with doc-order proofs, or one with
/// revealed doc-order leaves whose positions or doc ids do not strictly
/// ascend.
/// [`TermVo`]'s per-list signature is never written.
pub fn encode(vo: &VerificationObject) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::new();
    write_vo(&mut Writer(&mut buf), vo)?;
    Ok(buf)
}

/// A count the layout caps at `u16::MAX`, as a varint.
fn count16(w: &mut Writer<'_>, n: usize, field: &'static str) -> Result<(), WireError> {
    let v = u16::try_from(n).map_err(|_| WireError::TooLong {
        field,
        len: n,
        max: u16::MAX.into(),
    })?;
    w.varint(v.into());
    Ok(())
}

/// An uncapped count, as a varint.
fn count(w: &mut Writer<'_>, n: usize) {
    w.varint(n as u64);
}

/// The gap-coded value of `v` after values up to `next − 1`; `None` for
/// a value that does not come after `next`.
fn gap(next: u64, v: u32) -> Option<u64> {
    u64::from(v).checked_sub(next)
}

fn write_vo(w: &mut Writer<'_>, vo: &VerificationObject) -> Result<(), WireError> {
    w.bytes(MAGIC);
    w.u8(vo.mechanism.code());
    count16(w, vo.terms.len(), "term proofs")?;
    for tv in &vo.terms {
        w.varint(tv.term.into());
        w.varint(tv.ft.into());
        match &tv.prefix {
            PrefixData::DocIds(ids) => {
                w.u8(0);
                count(w, ids.len());
                for &d in ids {
                    w.varint(d.into());
                }
            }
            PrefixData::Entries(entries) => {
                w.u8(1);
                count(w, entries.len());
                for e in entries {
                    w.varint(e.doc.into());
                    w.u32(e.weight.to_bits());
                }
            }
        }
        let digests = match &tv.proof {
            TermProof::Mht(p) => {
                w.u8(0);
                &p.digests
            }
            TermProof::Cmht(p) => {
                w.u8(1);
                &p.tail.digests
            }
        };
        write_digests16(w, digests, "term proof digests")?;
    }
    count(w, vo.docs.len());
    for &d in &vo.docs {
        w.varint(d.into());
    }
    if vo.mechanism.is_tra() {
        count16(w, vo.facts.len(), "doc-order proofs")?;
    } else if !vo.facts.is_empty() {
        return Err(err("a TNRA VO carries no doc-order proofs"));
    }
    for facts in &vo.facts {
        count(w, facts.revealed.len());
        let (mut next_pos, mut next_doc) = (0, 0);
        for leaf in &facts.revealed {
            let (Some(pos), Some(doc)) = (gap(next_pos, leaf.pos), gap(next_doc, leaf.doc)) else {
                return Err(err("revealed doc-order leaves out of order"));
            };
            w.varint(pos);
            w.varint(doc);
            w.u32(leaf.weight.to_bits());
            (next_pos, next_doc) = (u64::from(leaf.pos) + 1, u64::from(leaf.doc) + 1);
        }
        write_digests16(w, &facts.proof.digests, "doc-order proof digests")?;
    }
    let dict = vo
        .dict
        .as_ref()
        .ok_or_else(|| err("every VO carries a dictionary proof"))?;
    w.varint(dict.num_terms.into());
    write_digests16(w, &dict.proof.digests, "dictionary proof digests")
}

/// A capped digest count, then the digests.
fn write_digests16(
    w: &mut Writer<'_>,
    digests: &[Digest],
    field: &'static str,
) -> Result<(), WireError> {
    count16(w, digests.len(), field)?;
    w.digests(digests);
    Ok(())
}

/// Deserialize a VO from bytes.
pub fn decode(bytes: &[u8]) -> Result<VerificationObject, WireError> {
    codec::read_all(bytes, read_vo)
}

/// A varint that must fit a `T`: an id or `f_t` (`u32`), or a count the
/// layout caps at `u16::MAX`.
#[inline(always)]
fn varint<T: TryFrom<u64>>(r: &mut Reader<'_>, what: &'static str) -> Result<T, WireError> {
    let v = r.varint()?;
    T::try_from(v).map_err(|_| out_of_range(what, v))
}

#[cold]
fn out_of_range(what: &str, v: u64) -> WireError {
    WireError::Malformed(format!("{what} {v} out of range"))
}

/// A capped digest count, then the digests.
fn digests16(r: &mut Reader<'_>) -> Result<Vec<Digest>, WireError> {
    let n: u16 = varint(r, "digest count")?;
    Ok(r.digests(n.into(), "digest list")?)
}

/// A gap-coded `u32` after values up to `next − 1`, which it advances
/// past the value. Added in `u64` and refused past `u32`, so a forged gap
/// cannot wrap.
fn ungap(r: &mut Reader<'_>, next: &mut u64, what: &'static str) -> Result<u32, WireError> {
    let v = r.varint()?;
    let at = (next.checked_add(v))
        .and_then(|at| u32::try_from(at).ok())
        .ok_or_else(|| out_of_range(what, v))?;
    *next = u64::from(at) + 1;
    Ok(at)
}

fn read_vo(r: &mut Reader<'_>) -> Result<VerificationObject, WireError> {
    if r.bytes(4)? != MAGIC {
        return Err(err("bad magic"));
    }
    let mechanism = Mechanism::from_code(r.u8()?).ok_or_else(|| err("unknown mechanism"))?;
    let num_terms: u16 = varint(r, "term proof count")?;
    // Smallest term: term id, f_t, prefix tag and count, proof tag and
    // digest count, one byte each.
    let terms = r.list(num_terms.into(), 6, "VO term", |r| {
        let term = varint(r, "term id")?;
        let ft = varint(r, "f_t")?;
        let prefix = match r.u8()? {
            0 => {
                let n = r.varint()?;
                PrefixData::DocIds(r.list(n, 1, "doc-id prefix", |r| varint(r, "doc id"))?)
            }
            1 => {
                let n = r.varint()?;
                PrefixData::Entries(r.list(n, 5, "impact-entry prefix", |r| {
                    Ok::<_, WireError>(ImpactEntry {
                        doc: varint(r, "doc id")?,
                        weight: f32::from_bits(r.u32()?),
                    })
                })?)
            }
            _ => return Err(err("unknown prefix kind")),
        };
        let proof = match r.u8()? {
            0 => TermProof::Mht(MerkleProof {
                digests: digests16(r)?,
            }),
            1 => TermProof::Cmht(ChainPrefixProof {
                tail: MerkleProof {
                    digests: digests16(r)?,
                },
            }),
            _ => return Err(err("unknown proof kind")),
        };
        Ok(TermVo {
            term,
            ft,
            prefix,
            proof,
            signature: None,
        })
    })?;
    let num_docs = r.varint()?;
    let docs = r.list(num_docs, 1, "proved document", |r| varint(r, "doc id"))?;
    let num_facts: u16 = if mechanism.is_tra() {
        varint(r, "doc-order proof count")?
    } else {
        0
    };
    // Smallest doc-order proof: leaf and digest counts, one byte each.
    let facts = r.list(num_facts.into(), 2, "doc-order proof", |r| {
        let n = r.varint()?;
        let (mut next_pos, mut next_doc) = (0u64, 0u64);
        // Smallest leaf: two one-byte gaps and the 4-byte weight.
        let revealed = r.list(n, 6, "revealed leaf", |r| {
            Ok::<_, WireError>(FactLeaf {
                pos: ungap(r, &mut next_pos, "doc-order leaf position")?,
                doc: ungap(r, &mut next_doc, "doc-order leaf doc id")?,
                weight: f32::from_bits(r.u32()?),
            })
        })?;
        let proof = MerkleProof {
            digests: digests16(r)?,
        };
        Ok::<_, WireError>(TermFacts { revealed, proof })
    })?;
    let dict = DictVo {
        num_terms: varint(r, "dictionary size")?,
        proof: MerkleProof {
            digests: digests16(r)?,
        },
    };
    Ok(VerificationObject {
        mechanism,
        terms,
        docs,
        facts,
        dict: Some(dict),
    })
}

// ---- frame protocol -------------------------------------------------------

/// Frame preamble: protocol name, followed by [`WIRE_VERSION`].
pub const FRAME_MAGIC: [u8; 4] = *b"ASRV";

/// Protocol version carried in every frame header. A server or client
/// seeing any other value rejects the frame as
/// [`WireError::Malformed`] — it never guesses at a foreign layout.
///
/// **v2** added a request flags byte, a digest-mode reply and the
/// conjunctive request kind. **v3** replaced the TRA VO's per-document
/// signatures with one document-table trailer (TNRA payloads are
/// byte-identical to v2). **v4** carries one manifest signature per VO
/// in place of the per-term, dictionary and document-table signatures,
/// puts a dictionary proof in every VO, and hashes Merkle leaves and
/// interior nodes in separate domains. **v5** deletes the flags byte,
/// the digest-mode reply and the conjunctive request's mode byte: both
/// term-query kinds carry `r u32 | n u16 | pairs`, and the kind is the
/// query mode. **v6** orders every document-MHT by `(c_t descending,
/// t)` and carries each revealed document leaf's `c_t` in the top six
/// bits of its position field (TNRA payloads are byte-identical to v5).
/// **v7** encodes the VO compactly (the module doc's layout): ids,
/// `f_t`, leaf counts and every count are varints, and each revealed
/// document leaf's position is the gap from the previous one, packed
/// with its `c_t` (requests and error replies are byte-identical to v6
/// but for the version byte). **v8** drops the manifest signature, the
/// TRA document-table trailer and each document proof's content flag
/// and digest from the VO, since the client holds the owner's
/// publication, and adds the publication request
/// ([`kind::REQ_PUBLICATION`]) and its reply. **v9** replaces the TRA
/// VO's per-document proofs with the proved doc ids and one doc-order
/// proof per query term, and the TRA publication's per-document root
/// leaves it (TNRA VOs and publications are byte-identical to v8).
/// Older frames are rejected by the version check, never misparsed.
pub const WIRE_VERSION: u8 = 9;

/// Fixed size of the frame header: magic (4) + version (1) + kind (1) +
/// payload length (4).
pub const FRAME_HEADER_LEN: usize = 10;

/// Upper bound on a frame payload (64 MiB). A header advertising more
/// is rejected before any allocation — the cap is what lets a reader
/// trust the length prefix enough to buffer the payload.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 26;

/// Frame kinds. Requests have the high bit clear, replies set.
pub mod kind {
    /// Natural-language query request.
    pub const REQ_TEXT: u8 = 0x01;
    /// Disjunctive (OR-semantics) `(term, f_qt)`-pairs query request:
    /// `r u32 | n u16 | n × (term u32, f_qt u32)`.
    pub const REQ_TERMS: u8 = 0x02;
    /// Conjunctive (AND-semantics) `(term, f_qt)`-pairs query request:
    /// the same payload as [`REQ_TERMS`]; the kind is the query mode.
    pub const REQ_CONJ_TERMS: u8 = 0x03;
    /// The owner's publication, asked for by a client that holds only
    /// the owner's key: an empty payload.
    pub const REQ_PUBLICATION: u8 = 0x04;
    /// Successful reply: query echo + full `QueryResponse`.
    pub const REPLY_OK: u8 = 0x81;
    /// Error reply: code + message.
    pub const REPLY_ERR: u8 = 0x82;
    /// The reply to [`REQ_PUBLICATION`]: the publication's encoding
    /// (`crate::publication`), which the client checks under the key
    /// ([`crate::VerifierParams::open`]).
    pub const REPLY_PUBLICATION: u8 = 0x83;
}

/// Error codes carried by [`kind::REPLY_ERR`] frames.
pub mod errcode {
    /// The request frame did not decode.
    pub const MALFORMED: u8 = 1;
    /// The request decoded but names an unserviceable query (term out
    /// of dictionary, unsorted/duplicate terms, empty query, oversized
    /// `r`).
    pub const BAD_QUERY: u8 = 2;
    /// The engine failed internally (e.g. a worker panicked); the
    /// connection survives.
    pub(crate) const INTERNAL: u8 = 3;
    /// The response exists but cannot be represented on the wire.
    pub(crate) const UNREPRESENTABLE: u8 = 4;
    /// The server is at its connection cap and shed this connection
    /// instead of serving it. The reply is typed — never a silent RST —
    /// so a client can back off and retry
    /// ([`crate::Connection::query_retrying`]).
    pub const BUSY: u8 = 5;
    /// The connection sat idle (or dribbled a partial frame) past the
    /// server's idle deadline and was evicted to free its thread.
    pub const TIMEOUT: u8 = 6;
}

/// Encode a frame header for `payload_len` bytes of `kind`.
pub fn encode_frame_header(
    kind: u8,
    payload_len: usize,
) -> Result<[u8; FRAME_HEADER_LEN], WireError> {
    let len32 = u32::try_from(payload_len)
        .ok()
        .filter(|_| payload_len <= MAX_FRAME_PAYLOAD)
        .ok_or(WireError::TooLong {
            field: "frame payload",
            len: payload_len,
            max: MAX_FRAME_PAYLOAD,
        })?;
    let [m0, m1, m2, m3] = FRAME_MAGIC;
    let [l0, l1, l2, l3] = len32.to_le_bytes();
    Ok([m0, m1, m2, m3, WIRE_VERSION, kind, l0, l1, l2, l3])
}

/// Decode a frame header's transport fields — magic, version, payload
/// length — **without** validating the kind byte.
///
/// These three fields are what establish the frame boundary; a reader
/// that trusts them still knows exactly how many payload bytes an
/// *unknown* kind carries, so it can consume the frame and answer with
/// a coded error instead of tearing the connection down (forward
/// compatibility — see the server's connection loop). Use
/// [`decode_frame_header`] when an unknown kind should be rejected
/// outright.
pub(crate) fn decode_frame_header_any(
    header: &[u8; FRAME_HEADER_LEN],
) -> Result<(u8, usize), WireError> {
    let &[m0, m1, m2, m3, version, kind, l0, l1, l2, l3] = header;
    if [m0, m1, m2, m3] != FRAME_MAGIC {
        return Err(err("bad frame magic"));
    }
    if version != WIRE_VERSION {
        return Err(WireError::Malformed(format!(
            "unsupported protocol version {version} (this build speaks {WIRE_VERSION})"
        )));
    }
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(WireError::Malformed(format!(
            "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
        )));
    }
    Ok((kind, len))
}

/// Decode and validate a frame header, returning `(kind, payload_len)`.
///
/// Rejects a bad magic, a foreign version, an unknown kind, and a
/// payload length above [`MAX_FRAME_PAYLOAD`] — all as [`WireError`],
/// never a panic, because the header is the first attacker-controlled
/// thing a server reads.
pub fn decode_frame_header(header: &[u8; FRAME_HEADER_LEN]) -> Result<(u8, usize), WireError> {
    let (kind, len) = decode_frame_header_any(header)?;
    match kind {
        kind::REQ_TEXT
        | kind::REQ_TERMS
        | kind::REQ_CONJ_TERMS
        | kind::REQ_PUBLICATION
        | kind::REPLY_OK
        | kind::REPLY_ERR
        | kind::REPLY_PUBLICATION => Ok((kind, len)),
        _ => Err(WireError::Malformed(format!(
            "unknown frame kind {kind:#04x}"
        ))),
    }
}

/// A query request, as it travels client → server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Natural-language query; the server parses it against its
    /// dictionary and echoes the parse back in the reply. Always
    /// disjunctive. The VO authenticates the answer to the echoed
    /// parse, not the parse itself: a server can drop or swap a word
    /// undetected (ROADMAP item 15).
    Text {
        /// The query text (parsed server-side; out-of-dictionary words
        /// are dropped per the system model).
        text: String,
        /// Requested result size.
        r: u32,
    },
    /// Explicit `(term id, f_{Q,t})` pairs, strictly ascending by term —
    /// the paper's user-posed query shape, verified end to end. A
    /// conjunctive query admits only documents containing **every**
    /// term, and its VO proves the intersection is exact.
    Terms {
        /// Distinct query terms with their query-side frequencies.
        terms: Vec<(TermId, u32)>,
        /// Requested result size.
        r: u32,
        /// Carried by the frame kind: [`kind::REQ_TERMS`] or
        /// [`kind::REQ_CONJ_TERMS`].
        mode: QueryMode,
    },
    /// The owner's publication ([`kind::REQ_PUBLICATION`]), answered
    /// with [`Reply::Publication`].
    Publication,
}

impl Request {
    /// Serialize to a complete frame (header + payload).
    pub fn encode_frame(&self) -> Result<Vec<u8>, WireError> {
        match self {
            Request::Text { text, r } => framed(kind::REQ_TEXT, |w| {
                w.u32(*r);
                Ok(w.bytes16(text.as_bytes(), "query text")?)
            }),
            Request::Terms { terms, r, mode } => {
                let kind = match mode {
                    QueryMode::Disjunctive => kind::REQ_TERMS,
                    QueryMode::Conjunctive => kind::REQ_CONJ_TERMS,
                };
                framed(kind, |w| {
                    w.u32(*r);
                    write_pairs(w, terms, "query terms")
                })
            }
            Request::Publication => framed(kind::REQ_PUBLICATION, |_| Ok(())),
        }
    }

    /// Deserialize a request payload of the given frame kind.
    pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<Request, WireError> {
        codec::read_all(payload, |r| match kind {
            kind::REQ_TEXT => {
                let top_r = r.u32()?;
                let text = std::str::from_utf8(r.bytes16()?)
                    .map_err(|_| err("query text is not UTF-8"))?;
                Ok(Request::Text {
                    text: text.to_owned(),
                    r: top_r,
                })
            }
            kind::REQ_TERMS | kind::REQ_CONJ_TERMS => {
                let top_r = r.u32()?;
                let terms = read_pairs(r, "query term")?;
                let mode = if kind == kind::REQ_TERMS {
                    QueryMode::Disjunctive
                } else {
                    QueryMode::Conjunctive
                };
                Ok(Request::Terms {
                    terms,
                    r: top_r,
                    mode,
                })
            }
            kind::REQ_PUBLICATION => Ok(Request::Publication),
            _ => Err(err("not a request frame")),
        })
    }
}

/// A `u16` count, then `(term, f_qt)` pairs.
fn write_pairs(
    w: &mut Writer<'_>,
    pairs: &[(TermId, u32)],
    field: &'static str,
) -> Result<(), WireError> {
    w.len16(pairs.len(), field)?;
    for &(t, f_qt) in pairs {
        w.u32(t);
        w.u32(f_qt);
    }
    Ok(())
}

fn read_pairs(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<(TermId, u32)>, CodecError> {
    let n = r.u16()?;
    r.list(n.into(), 8, what, |r| Ok((r.u32()?, r.u32()?)))
}

/// A server reply, as it travels server → client.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The query was served.
    Ok {
        /// The `(term, f_{Q,t})` pairs the response answers — the echo
        /// of a [`Request::Terms`] query, or the server-side parse of a
        /// [`Request::Text`] one. The client verifies against these.
        terms: Vec<(TermId, u32)>,
        /// The full response: ranked result, VO, result-document
        /// contents, and the engine's simulated I/O trace.
        response: Box<QueryResponse>,
    },
    /// The query was not served; the connection stays up.
    Err {
        /// An [`errcode`] constant.
        code: u8,
        /// Human-readable cause.
        message: String,
    },
    /// The owner's publication, unchecked: what
    /// [`crate::VerifierParams::open`] takes in under the owner's key.
    Publication {
        /// The publication's encoding.
        bytes: Vec<u8>,
    },
}

/// Serialize a successful reply to a complete frame.
pub fn encode_ok_reply(
    terms: &[(TermId, u32)],
    response: &QueryResponse,
) -> Result<Vec<u8>, WireError> {
    framed(kind::REPLY_OK, |w| write_ok_reply(w, terms, response))
}

/// Serialize a successful reply **payload only** into a caller-owned
/// buffer (cleared first), returning the frame kind to put in the
/// header. This is the zero-copy path the reactor core uses: the
/// 10-byte header goes out through a vectored write alongside this
/// buffer, so a reply costs no staging copy and — once the buffer has
/// grown to its working size — no allocation.
pub(crate) fn encode_ok_reply_payload(
    terms: &[(TermId, u32)],
    response: &QueryResponse,
    payload: &mut Vec<u8>,
) -> Result<u8, WireError> {
    payload.clear();
    write_ok_reply(&mut Writer(payload), terms, response)?;
    Ok(kind::REPLY_OK)
}

fn write_ok_reply(
    w: &mut Writer<'_>,
    terms: &[(TermId, u32)],
    response: &QueryResponse,
) -> Result<(), WireError> {
    // The `(term, f_qt)` echo.
    write_pairs(w, terms, "reply term echo")?;
    // Ranked result.
    w.len32(response.result.entries.len(), "result entries")?;
    for e in &response.result.entries {
        w.u32(e.doc);
        w.u64(e.score.to_bits());
    }
    // Nested VO (its own magic + encoding), in place.
    w.prefixed32("VO bytes", |w| write_vo(w, &response.vo))?;
    // Result-document contents.
    w.len32(response.contents.len(), "result contents")?;
    for (d, bytes) in &response.contents {
        w.u32(*d);
        w.bytes32(bytes, "document content")?;
    }
    // Engine-side accounting.
    w.u64(response.io.seeks);
    w.u64(response.io.blocks);
    w.len16(response.entries_read.len(), "entries-read counts")?;
    for &n in &response.entries_read {
        w.len32(n, "entries-read value")?;
    }
    Ok(())
}

/// Serialize the reply to [`Request::Publication`], **payload only**,
/// into a caller-owned buffer (cleared first), returning the frame kind,
/// as [`encode_ok_reply_payload`] does.
pub(crate) fn encode_publication_payload(
    publication: &SignedPublication,
    payload: &mut Vec<u8>,
) -> Result<u8, WireError> {
    payload.clear();
    publication.write(&mut Writer(payload))?;
    Ok(kind::REPLY_PUBLICATION)
}

/// Serialize an error reply to a complete frame.
pub fn encode_err_reply(code: u8, message: &str) -> Result<Vec<u8>, WireError> {
    framed(kind::REPLY_ERR, |w| write_err_reply(w, code, message))
}

/// Payload-only variant of [`encode_err_reply`]; see
/// [`encode_ok_reply_payload`] for the reuse contract. Like the framed
/// form it truncates rather than fails — an error reply must always be
/// representable — and truncates on a char boundary, so the peer's
/// UTF-8 validation accepts what we send.
pub(crate) fn encode_err_reply_payload(
    code: u8,
    message: &str,
    payload: &mut Vec<u8>,
) -> Result<u8, WireError> {
    payload.clear();
    write_err_reply(&mut Writer(payload), code, message)?;
    Ok(kind::REPLY_ERR)
}

fn write_err_reply(w: &mut Writer<'_>, code: u8, message: &str) -> Result<(), WireError> {
    w.u8(code);
    let mut end = message.len().min(u16::MAX as usize);
    while !message.is_char_boundary(end) {
        end -= 1;
    }
    let text = message.as_bytes().get(..end).unwrap_or_default();
    Ok(w.bytes16(text, "error message")?)
}

/// Deserialize a reply payload of the given frame kind.
pub fn decode_reply_payload(kind: u8, payload: &[u8]) -> Result<Reply, WireError> {
    if kind == kind::REPLY_PUBLICATION {
        // Decoded, and checked, by `VerifierParams::open`.
        return Ok(Reply::Publication {
            bytes: payload.to_vec(),
        });
    }
    codec::read_all(payload, |r| match kind {
        kind::REPLY_OK => {
            let terms = read_pairs(r, "reply term")?;
            let ne = r.u32()?;
            let entries = r.list(ne.into(), 12, "result entry", |r| {
                Ok::<_, CodecError>(ResultEntry {
                    doc: r.u32()?,
                    score: f64::from_bits(r.u64()?),
                })
            })?;
            let vo = decode(r.bytes32()?)?;
            let nc = r.u32()?;
            let contents = r.list(nc.into(), 8, "result content", |r| {
                Ok::<_, CodecError>((r.u32()?, r.bytes32()?.to_vec()))
            })?;
            let io = IoStats {
                seeks: r.u64()?,
                blocks: r.u64()?,
            };
            let nr = r.u16()?;
            let entries_read = r.list(nr.into(), 4, "entries-read list", |r| {
                Ok::<_, CodecError>(r.u32()? as usize)
            })?;
            Ok(Reply::Ok {
                terms,
                response: Box::new(QueryResponse {
                    result: QueryResult { entries },
                    vo,
                    contents,
                    io,
                    entries_read,
                }),
            })
        }
        kind::REPLY_ERR => {
            let code = r.u8()?;
            let message =
                std::str::from_utf8(r.bytes16()?).map_err(|_| err("error message is not UTF-8"))?;
            Ok(Reply::Err {
                code,
                message: message.to_owned(),
            })
        }
        _ => Err(err("not a reply frame")),
    })
}

/// A complete frame of `kind`: the header, then the payload `write`
/// appends, written in one buffer and never copied.
fn framed(
    kind: u8,
    write: impl FnOnce(&mut Writer<'_>) -> Result<(), WireError>,
) -> Result<Vec<u8>, WireError> {
    let mut buf = vec![0; FRAME_HEADER_LEN];
    write(&mut Writer(&mut buf))?;
    let header = encode_frame_header(kind, buf.len() - FRAME_HEADER_LEN)?;
    buf.splice(..FRAME_HEADER_LEN, header);
    Ok(buf)
}

/// Split a complete frame into `(kind, payload)`, validating the header
/// and that the payload length matches exactly. Convenience for callers
/// that already hold whole frames (tests, fuzzing); the streaming
/// server and client read the header and payload separately.
pub fn split_frame(bytes: &[u8]) -> Result<(u8, &[u8]), WireError> {
    let header = bytes
        .first_chunk()
        .ok_or_else(|| err("truncated frame header"))?;
    let (kind, len) = decode_frame_header(header)?;
    let payload = bytes.get(FRAME_HEADER_LEN..).unwrap_or_default();
    if payload.len() != len {
        return Err(err("frame length mismatch"));
    }
    Ok((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthConfig;
    use crate::owner::DataOwner;
    use crate::toy::{toy_contents, toy_index, toy_query};
    use authsearch_crypto::keys::TEST_KEY_BITS;

    fn sample_vo(mechanism: Mechanism) -> VerificationObject {
        sample_response(mechanism).vo
    }

    #[test]
    fn roundtrip_all_mechanisms() {
        for mechanism in Mechanism::ALL {
            let vo = sample_vo(mechanism);
            let bytes = encode(&vo).unwrap();
            let back = decode(&bytes).unwrap();
            assert_eq!(back, vo, "{}", mechanism.name());
        }
    }

    #[test]
    fn roundtrip_dict_mode() {
        // Every VO carries its dictionary proof; one without is refused
        // at encode time.
        let vo = sample_vo(Mechanism::TnraCmht);
        assert!(vo.dict.is_some());
        let back = decode(&encode(&vo).unwrap()).unwrap();
        assert_eq!(back, vo);
        let mut missing = vo;
        missing.dict = None;
        assert!(matches!(encode(&missing), Err(WireError::Malformed(_))));
    }

    #[test]
    fn wire_size_tracks_size_model() {
        // The size model charges every byte of the encoding: its data,
        // digests and signature, plus the framing.
        for mechanism in Mechanism::ALL {
            for mode in [QueryMode::Disjunctive, QueryMode::Conjunctive] {
                let vo = sample_response_in(mechanism, mode).vo;
                let s = vo.size();
                assert_eq!(
                    encode(&vo).unwrap().len(),
                    s.total() + s.framing,
                    "{} {mode:?}: {s:?}",
                    mechanism.name()
                );
            }
        }
    }

    #[test]
    fn forged_counts_cannot_size_allocations() {
        // An 8-byte VO whose varint term count claims 65,535 proofs:
        // `checked_count` must reject the count against the bytes
        // actually present, before any `Vec::with_capacity` sees it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(0); // mechanism TRA-MHT
        bytes.extend_from_slice(&[0xFF, 0xFF, 0x03]); // forged num_terms
        let err = decode(&bytes).expect_err("forged count must be rejected");
        let msg = err.to_string();
        assert!(
            msg.contains("65535") && msg.contains("count"),
            "error should name the forged count: {msg}"
        );
        // One more and the count is past what the layout carries.
        bytes[5..8].copy_from_slice(&[0x80, 0x80, 0x04]);
        let msg = decode(&bytes).unwrap_err().to_string();
        assert!(msg.contains("term proof count 65536 out of range"), "{msg}");

        // A 10-byte VO claiming 2^26 proved documents dies the same way.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(0);
        bytes.push(0); // no term proofs
        bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x20]); // 2^26
        let msg = decode(&bytes).unwrap_err().to_string();
        assert!(msg.contains("proved document count 67108864"), "{msg}");

        // Same property on a well-formed VO whose count field is bumped
        // after encoding: every inflated count dies in validation.
        let vo = sample_vo(Mechanism::TraMht);
        let mut bytes = encode(&vo).unwrap();
        assert_eq!(bytes[5], 4, "four term proofs, in one byte");
        bytes.splice(5..6, [0xFF, 0xFF, 0x03]);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected_everywhere() {
        // Every cut of every mechanism's VO is a typed error, never a
        // panic.
        for mechanism in Mechanism::ALL {
            let bytes = encode(&sample_vo(mechanism)).unwrap();
            for cut in 0..bytes.len() {
                assert!(
                    matches!(decode(&bytes[..cut]), Err(WireError::Malformed(_))),
                    "{mechanism:?} cut={cut}"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let vo = sample_vo(Mechanism::TnraMht);
        let mut bytes = encode(&vo).unwrap();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let vo = sample_vo(Mechanism::TnraMht);
        let mut bytes = encode(&vo).unwrap();
        bytes[0] ^= 0xff;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn oversized_digest_list_refused_at_u16_boundary() {
        // Regression for the silent `as u16` truncation: 65_535 proof
        // digests is the last representable length; 65_536 must be a
        // TooLong error, not a VO that decodes into a 0-digest proof.
        let vo = |digests| {
            one_facts_vo(TermFacts {
                revealed: Vec::new(),
                proof: MerkleProof {
                    digests: vec![Digest::ZERO; digests],
                },
            })
        };
        let at_boundary = encode(&vo(u16::MAX as usize)).unwrap();
        let back = decode(&at_boundary).unwrap();
        assert_eq!(back.facts[0].proof.digests.len(), u16::MAX as usize);
        assert_eq!(
            encode(&vo(u16::MAX as usize + 1)).unwrap_err(),
            WireError::TooLong {
                field: "doc-order proof digests",
                len: 65_536,
                max: 65_535,
            }
        );
    }

    /// A TRA-MHT VO proving document 1 by the one doc-order proof
    /// `facts`.
    fn one_facts_vo(facts: TermFacts) -> VerificationObject {
        VerificationObject {
            mechanism: Mechanism::TraMht,
            terms: Vec::new(),
            docs: vec![1],
            facts: vec![facts],
            dict: Some(DictVo {
                num_terms: 1,
                proof: MerkleProof::default(),
            }),
        }
    }

    #[test]
    fn fact_leaf_gaps_are_bounded() {
        let leaf = |pos, doc| FactLeaf {
            pos,
            doc,
            weight: 0.25,
        };
        let leaves = |revealed| {
            one_facts_vo(TermFacts {
                revealed,
                proof: MerkleProof::default(),
            })
        };
        // Positions and doc ids are gap-coded, so none is too large: the
        // last of each u32 takes a 5-byte gap.
        let last = u32::MAX;
        let honest = leaves(vec![leaf(0, 7), leaf(1, 8), leaf(last, last)]);
        let bytes = encode(&honest).unwrap();
        assert_eq!(decode(&bytes).unwrap(), honest);
        let empty = encode(&leaves(Vec::new())).unwrap();
        // Two gaps and a weight: 1 + 1 + 4 for each of the first two
        // leaves, 5 + 5 + 4 for the last one.
        assert_eq!(bytes.len() - empty.len(), 6 + 6 + 14);

        // Encode refuses leaves a gap cannot carry: out of order or
        // repeated, by position or by doc id; and doc-order proofs in a
        // TNRA VO.
        for bad in [
            vec![leaf(2, 1), leaf(1, 2)],
            vec![leaf(1, 1), leaf(1, 2)],
            vec![leaf(1, 2), leaf(2, 1)],
            vec![leaf(1, 1), leaf(2, 1)],
        ] {
            assert_eq!(
                encode(&leaves(bad.clone())),
                Err(err("revealed doc-order leaves out of order")),
                "{bad:?}"
            );
        }
        let tnra = VerificationObject {
            mechanism: Mechanism::TnraMht,
            ..leaves(Vec::new())
        };
        assert_eq!(
            encode(&tnra),
            Err(err("a TNRA VO carries no doc-order proofs"))
        );

        // Decode refuses a gap that runs past u32, computed without
        // wrapping. Byte `at` is the last leaf's position gap, after the
        // magic, the mechanism, the term, document and proof counts, the
        // doc id, the revealed count and two 6-byte leaves.
        let at = 4 + 1 + 1 + 1 + 1 + 1 + 1 + 6 + 6;
        assert_eq!(bytes[at..at + 5], [0xFD, 0xFF, 0xFF, 0xFF, 0x0F]);
        let forged = |gap: &[u8]| {
            let mut b = bytes[..at].to_vec();
            b.extend_from_slice(gap);
            b.extend_from_slice(&bytes[at + 5..]);
            decode(&b)
        };
        // u32::MAX − 2 is the last gap that fits after position 1.
        assert!(forged(&[0xFD, 0xFF, 0xFF, 0xFF, 0x0F]).is_ok());
        assert_eq!(
            forged(&[0xFE, 0xFF, 0xFF, 0xFF, 0x0F]).unwrap_err(),
            err("doc-order leaf position 4294967294 out of range")
        );
        // 2^64 − 1, in a ten-byte varint, cannot wrap past the check.
        let huge = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert_eq!(
            forged(&huge).unwrap_err(),
            err("doc-order leaf position 18446744073709551615 out of range")
        );
    }

    #[test]
    fn oversized_term_count_refused_at_u16_boundary() {
        let term_vo = TermVo {
            term: 0,
            ft: 0,
            prefix: PrefixData::DocIds(Vec::new()),
            proof: TermProof::Mht(MerkleProof::default()),
            signature: None,
        };
        let mut vo = VerificationObject {
            mechanism: Mechanism::TnraMht,
            terms: vec![term_vo; u16::MAX as usize + 1],
            docs: Vec::new(),
            facts: Vec::new(),
            dict: Some(DictVo {
                num_terms: 1,
                proof: MerkleProof::default(),
            }),
        };
        assert_eq!(
            encode(&vo).unwrap_err(),
            WireError::TooLong {
                field: "term proofs",
                len: 65_536,
                max: 65_535,
            }
        );
        // One fewer term sits exactly on the boundary and round-trips.
        vo.terms.truncate(u16::MAX as usize);
        let bytes = encode(&vo).unwrap();
        assert_eq!(decode(&bytes).unwrap(), vo);
    }

    /// The toy publication's parameters under `mechanism`.
    fn sample_params(mechanism: Mechanism) -> crate::VerifierParams {
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let config = AuthConfig::new(mechanism);
        owner
            .publish_index(toy_index(), config, &toy_contents())
            .verifier_params
    }

    #[test]
    fn doc_table_trailer_is_tra_only() {
        // The publication's trailer of document records is TRA's alone:
        // a TNRA publication ends with its signature, a TRA one carries
        // each document's content digest after it, 16 bytes for each of
        // the toy collection's nine documents.
        let signature = DataOwner::with_cached_key(TEST_KEY_BITS)
            .key()
            .public_key()
            .signature_len();
        let head = crate::publication::MANIFEST_LEN + 2 + signature;
        let tnra = sample_params(Mechanism::TnraMht).publication_bytes();
        assert_eq!(tnra.len(), head);
        let tra = sample_params(Mechanism::TraMht);
        let bytes = tra.publication_bytes();
        assert_eq!(bytes.len(), head + 9 * 16);
        assert_eq!(tra.held_bytes(), crate::publication::MANIFEST_LEN + 9 * 16);
        // The server's reply payload is the same encoding.
        let engine_side = DataOwner::with_cached_key(TEST_KEY_BITS)
            .publish_index(
                toy_index(),
                AuthConfig::new(Mechanism::TraMht),
                &toy_contents(),
            )
            .auth;
        let mut payload = Vec::new();
        let kind = encode_publication_payload(engine_side.publication(), &mut payload).unwrap();
        assert_eq!((kind, payload), (kind::REPLY_PUBLICATION, bytes));
    }

    #[test]
    fn oversized_signature_refused() {
        // The publication carries its signature behind a u16 length: one
        // longer is refused at encode time, not truncated.
        let auth = DataOwner::with_cached_key(TEST_KEY_BITS)
            .publish_index(
                toy_index(),
                AuthConfig::new(Mechanism::TnraMht),
                &toy_contents(),
            )
            .auth;
        let mut publication = auth.publication().clone();
        publication.signature = vec![0u8; u16::MAX as usize + 1];
        assert_eq!(
            encode_publication_payload(&publication, &mut Vec::new()),
            Err(WireError::TooLong {
                field: "manifest signature",
                len: 65_536,
                max: 65_535,
            })
        );
    }

    #[test]
    fn publication_request_and_reply_round_trip() {
        let frame = Request::Publication.encode_frame().unwrap();
        assert_eq!(frame.len(), FRAME_HEADER_LEN);
        let (kind, payload) = split_frame(&frame).unwrap();
        assert_eq!(kind, kind::REQ_PUBLICATION);
        assert_eq!(
            Request::decode_payload(kind, payload).unwrap(),
            Request::Publication
        );
        // A publication request carries nothing.
        assert!(Request::decode_payload(kind, &[0]).is_err());
        let bytes = sample_params(Mechanism::TraCmht).publication_bytes();
        assert_eq!(
            decode_reply_payload(kind::REPLY_PUBLICATION, &bytes).unwrap(),
            Reply::Publication { bytes }
        );
    }

    fn sample_response(mechanism: Mechanism) -> QueryResponse {
        sample_response_in(mechanism, QueryMode::Disjunctive)
    }

    fn sample_response_in(mechanism: Mechanism, mode: QueryMode) -> QueryResponse {
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let config = AuthConfig::new(mechanism);
        let publication = owner.publish_index(toy_index(), config, &toy_contents());
        publication
            .auth
            .query(&toy_query().with_mode(mode), 2, &toy_contents())
            .unwrap()
    }

    #[test]
    fn request_frames_round_trip() {
        let requests = [
            Request::Text {
                text: "night keeper keep".into(),
                r: 5,
            },
            Request::Text {
                text: String::new(),
                r: 0,
            },
            Request::Terms {
                terms: vec![(1, 1), (7, 2), (15, 1)],
                r: 10,
                mode: QueryMode::Disjunctive,
            },
            Request::Terms {
                terms: Vec::new(),
                r: 1,
                mode: QueryMode::Disjunctive,
            },
            Request::Terms {
                terms: vec![(2, 1), (9, 3)],
                r: 4,
                mode: QueryMode::Conjunctive,
            },
            Request::Terms {
                terms: Vec::new(),
                r: 1,
                mode: QueryMode::Conjunctive,
            },
        ];
        for request in requests {
            let bytes = request.encode_frame().unwrap();
            let (kind, payload) = split_frame(&bytes).unwrap();
            assert_eq!(Request::decode_payload(kind, payload).unwrap(), request);
        }
    }

    #[test]
    fn conjunctive_request_rejects_oversized_term_count() {
        // A tiny payload claiming 2¹⁶−1 term pairs must be refused
        // before any allocation sized by the claim.
        let good = Request::Terms {
            terms: vec![(1, 1)],
            r: 3,
            mode: QueryMode::Conjunctive,
        }
        .encode_frame()
        .unwrap();
        let (kind, payload) = split_frame(&good).unwrap();
        assert_eq!(kind, kind::REQ_CONJ_TERMS);
        let mut bad = payload.to_vec();
        // r(4), then the u16 count at offset 4.
        bad[4..6].copy_from_slice(&u16::MAX.to_le_bytes());
        let err = Request::decode_payload(kind, &bad).unwrap_err();
        assert!(err.to_string().contains("count"), "{err}");
    }

    #[test]
    fn ok_reply_round_trips_full_response() {
        for mechanism in Mechanism::ALL {
            let response = sample_response(mechanism);
            let terms: Vec<(TermId, u32)> = response.vo.terms.iter().map(|t| (t.term, 1)).collect();
            let bytes = encode_ok_reply(&terms, &response).unwrap();
            let (kind, payload) = split_frame(&bytes).unwrap();
            match decode_reply_payload(kind, payload).unwrap() {
                Reply::Ok {
                    terms: back_terms,
                    response: back,
                } => {
                    assert_eq!(back_terms, terms, "{}", mechanism.name());
                    assert_eq!(back.vo, response.vo);
                    assert_eq!(back.result, response.result);
                    assert_eq!(back.contents, response.contents);
                    assert_eq!(back.io, response.io);
                    assert_eq!(back.entries_read, response.entries_read);
                }
                other => panic!("expected Ok reply, got {other:?}"),
            }
        }
    }

    #[test]
    fn err_reply_round_trips_and_truncates_long_messages() {
        let bytes = encode_err_reply(errcode::BAD_QUERY, "term 99 out of dictionary").unwrap();
        let (kind, payload) = split_frame(&bytes).unwrap();
        assert_eq!(
            decode_reply_payload(kind, payload).unwrap(),
            Reply::Err {
                code: errcode::BAD_QUERY,
                message: "term 99 out of dictionary".into()
            }
        );
        // A pathological message cannot make the error reply unencodable.
        let long = "x".repeat(u16::MAX as usize + 500);
        let bytes = encode_err_reply(errcode::INTERNAL, &long).unwrap();
        let (kind, payload) = split_frame(&bytes).unwrap();
        match decode_reply_payload(kind, payload).unwrap() {
            Reply::Err { code, message } => {
                assert_eq!(code, errcode::INTERNAL);
                assert_eq!(message.len(), u16::MAX as usize);
            }
            other => panic!("{other:?}"),
        }
        // Truncation must land on a char boundary: a multi-byte char
        // straddling the 65535 limit may not yield a reply the peer's
        // UTF-8 validation rejects.
        let multibyte = "é".repeat(u16::MAX as usize); // 2 bytes each
        let bytes = encode_err_reply(errcode::INTERNAL, &multibyte).unwrap();
        let (kind, payload) = split_frame(&bytes).unwrap();
        match decode_reply_payload(kind, payload).unwrap() {
            Reply::Err { message, .. } => {
                assert_eq!(message.len(), u16::MAX as usize - 1);
                assert!(message.chars().all(|c| c == 'é'));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn frame_header_rejects_bad_magic_version_kind_and_length() {
        let good = encode_frame_header(kind::REQ_TEXT, 8).unwrap();
        let parse = |h: [u8; FRAME_HEADER_LEN]| decode_frame_header(&h);
        assert_eq!(parse(good).unwrap(), (kind::REQ_TEXT, 8));
        let mut bad_magic = good;
        bad_magic[0] ^= 0xff;
        assert!(parse(bad_magic).is_err());
        let mut bad_version = good;
        bad_version[4] = WIRE_VERSION + 1;
        let msg = parse(bad_version).unwrap_err().to_string();
        assert!(msg.contains("version"), "{msg}");
        let mut bad_kind = good;
        bad_kind[5] = 0x7f;
        assert!(parse(bad_kind).is_err());
        let mut bad_len = good;
        bad_len[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let msg = parse(bad_len).unwrap_err().to_string();
        assert!(msg.contains("cap"), "{msg}");
        // Oversized payloads are refused at encode time, too.
        assert!(matches!(
            encode_frame_header(kind::REPLY_OK, MAX_FRAME_PAYLOAD + 1),
            Err(WireError::TooLong { .. })
        ));
    }

    /// Every cut of a whole frame is refused, at the frame layer or by
    /// `decode` on the shortened payload.
    fn every_cut_is_refused(bytes: &[u8], decode: impl Fn(u8, &[u8]) -> bool) {
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            let rejected = match split_frame(truncated) {
                Err(_) => true,
                Ok((kind, payload)) => !decode(kind, payload),
            };
            assert!(rejected, "cut={cut}");
            // The payload alone, cut, under the frame's own kind.
            if let Some(payload) = bytes.get(FRAME_HEADER_LEN..cut) {
                assert!(!decode(bytes[5], payload), "payload cut={cut}");
            }
        }
    }

    #[test]
    fn truncated_frames_and_payloads_rejected() {
        for mechanism in Mechanism::ALL {
            let response = sample_response(mechanism);
            let terms: Vec<(TermId, u32)> = response.vo.terms.iter().map(|t| (t.term, 1)).collect();
            let bytes = encode_ok_reply(&terms, &response).unwrap();
            every_cut_is_refused(&bytes, |kind, payload| {
                decode_reply_payload(kind, payload).is_ok()
            });
            // Trailing garbage in the payload is rejected as well.
            let mut padded = bytes.clone();
            padded.push(0);
            assert!(split_frame(&padded).is_err());
        }
        let bytes = encode_err_reply(errcode::BAD_QUERY, "term 99 out of dictionary").unwrap();
        every_cut_is_refused(&bytes, |kind, payload| {
            decode_reply_payload(kind, payload).is_ok()
        });
    }

    #[test]
    fn every_cut_of_a_request_frame_is_refused() {
        let requests = [
            Request::Text {
                text: "sleeps in the dark".into(),
                r: 2,
            },
            Request::Terms {
                terms: vec![(2, 1), (7, 1), (14, 2)],
                r: 10,
                mode: QueryMode::Disjunctive,
            },
            Request::Terms {
                terms: vec![(2, 1), (9, 3)],
                r: 4,
                mode: QueryMode::Conjunctive,
            },
        ];
        for request in requests {
            let bytes = request.encode_frame().unwrap();
            every_cut_is_refused(&bytes, |kind, payload| {
                Request::decode_payload(kind, payload).is_ok()
            });
        }
    }

    #[test]
    fn request_decode_rejects_non_utf8_and_trailing_bytes() {
        let good = Request::Text {
            text: "abc".into(),
            r: 3,
        }
        .encode_frame()
        .unwrap();
        let (kind, payload) = split_frame(&good).unwrap();
        let mut bad = payload.to_vec();
        *bad.last_mut().unwrap() = 0xff; // invalid UTF-8 continuation
        assert!(Request::decode_payload(kind, &bad).is_err());
        let mut long = payload.to_vec();
        long.push(7);
        assert!(Request::decode_payload(kind, &long).is_err());
        // Reply kinds are not requests and vice versa.
        assert!(Request::decode_payload(kind::REPLY_OK, payload).is_err());
        assert!(decode_reply_payload(kind::REQ_TEXT, payload).is_err());
    }

    #[test]
    fn decoded_vo_still_verifies() {
        // Serialization must not lose anything the verifier needs.
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let config = AuthConfig::new(Mechanism::TraCmht);
        let publication = owner.publish_index(toy_index(), config, &toy_contents());
        let mut resp = publication
            .auth
            .query(&toy_query(), 2, &toy_contents())
            .unwrap();
        resp.vo = decode(&encode(&resp.vo).unwrap()).unwrap();
        crate::verify::verify(&publication.verifier_params, &toy_query(), 2, &resp).unwrap();
    }
}
