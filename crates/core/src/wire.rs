//! Wire serialization: verification objects, and the framed
//! request/reply protocol of the network server.
//!
//! The VO travels from the search engine to the user; this module defines
//! its byte encoding (little-endian, length-prefixed) so transmission
//! sizes are concrete rather than estimated. The encoding is
//! deliberately plain — every field the size model of [`crate::vo`]
//! charges appears exactly once.
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
//! `(term, f_{Q,t})` pairs) plus the result size `r` and a flags byte
//! ([`Request`]); replies carry either the full [`QueryResponse`] —
//! ranked result, VO bytes, result-document contents, I/O trace —
//! prefixed by the `(term, f_{Q,t})` echo the client verifies against,
//! a **digest-mode** reply ([`Reply::OkDigest`]: same echo, result and
//! VO, but `(doc, h(content))` pairs in place of the contents echo —
//! the TNRA streaming mode, where verification never consumes the
//! contents), or a coded error ([`Reply`]). Every decode path returns a
//! [`WireError`] on malformed input — attacker-controlled bytes can
//! never panic the server or force an implausible allocation (counts
//! are bounded before `Vec::with_capacity`, payload length by
//! [`MAX_FRAME_PAYLOAD`]), and an unknown version or kind is rejected
//! at the header.

use crate::auth::serve::QueryResponse;
use crate::types::{QueryResult, ResultEntry};
use crate::vo::{
    DictVo, DocTableVo, DocVo, Mechanism, PrefixData, TermProof, TermVo, VerificationObject,
};
use authsearch_corpus::{DocId, TermId};
use authsearch_crypto::{ChainPrefixProof, Digest, MerkleProof, DIGEST_LEN};
use authsearch_index::{ImpactEntry, IoStats};

const MAGIC: &[u8; 4] = b"AVO1";

/// Wire-format error: a malformed transmission on decode, or a VO whose
/// collections exceed what their length prefixes can represent on
/// encode. The verifier treats either like any other invalid VO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Decoding found bytes that are not a well-formed VO (or encoding
    /// was handed a VO whose document table does not match its
    /// mechanism).
    Malformed(String),
    /// Encoding refused a collection longer than its length prefix can
    /// carry. Silently truncating (the old `as u16`/`as u32` casts)
    /// would emit a VO that decodes into something else entirely — a
    /// malformed, unverifiable proof — so oversized inputs are an error
    /// at the source instead.
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

fn err(what: &str) -> WireError {
    WireError::Malformed(what.into())
}

// ---- encoding -------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Write a u16 length prefix, refusing lengths it cannot represent.
    fn len16(&mut self, n: usize, field: &'static str) -> Result<(), WireError> {
        let v = u16::try_from(n).map_err(|_| WireError::TooLong {
            field,
            len: n,
            max: u16::MAX as usize,
        })?;
        self.u16(v);
        Ok(())
    }
    /// Write a u32 length prefix, refusing lengths it cannot represent.
    fn len32(&mut self, n: usize, field: &'static str) -> Result<(), WireError> {
        let v = u32::try_from(n).map_err(|_| WireError::TooLong {
            field,
            len: n,
            max: u32::MAX as usize,
        })?;
        self.u32(v);
        Ok(())
    }
    fn digest(&mut self, d: &Digest) {
        self.buf.extend_from_slice(d.as_bytes());
    }
    fn bytes16(&mut self, b: &[u8], field: &'static str) -> Result<(), WireError> {
        self.len16(b.len(), field)?;
        self.buf.extend_from_slice(b);
        Ok(())
    }
    fn digests16(&mut self, ds: &[Digest], field: &'static str) -> Result<(), WireError> {
        self.len16(ds.len(), field)?;
        for d in ds {
            self.digest(d);
        }
        Ok(())
    }
}

/// Serialize a VO to bytes.
///
/// Fails with [`WireError::TooLong`] when a collection exceeds its
/// length prefix (e.g. ≥ 2¹⁶ term proofs or proof digests) — the VO is
/// simply not representable in this format, and truncating it would
/// produce an unverifiable transmission.
///
/// Every VO carries a dictionary block: `m`, then the multi-proof. The
/// document-table proof follows it, written for TRA VOs only (so TNRA
/// encodings carry no byte for it): a 32-bit digest count and the
/// digests. The one manifest signature closes the VO. [`TermVo`]'s
/// per-list signature is never written.
pub fn encode(vo: &VerificationObject) -> Result<Vec<u8>, WireError> {
    let mut w = Writer { buf: Vec::new() };
    w.buf.extend_from_slice(MAGIC);
    w.u8(vo.mechanism.code());
    w.len16(vo.terms.len(), "term proofs")?;
    for tv in &vo.terms {
        w.u32(tv.term);
        w.u32(tv.ft);
        match &tv.prefix {
            PrefixData::DocIds(ids) => {
                w.u8(0);
                w.len32(ids.len(), "doc-id prefix")?;
                for &d in ids {
                    w.u32(d);
                }
            }
            PrefixData::Entries(entries) => {
                w.u8(1);
                w.len32(entries.len(), "impact-entry prefix")?;
                for e in entries {
                    w.buf.extend_from_slice(&e.encode());
                }
            }
        }
        match &tv.proof {
            TermProof::Mht(p) => {
                w.u8(0);
                w.digests16(&p.digests, "term proof digests")?;
            }
            TermProof::Cmht(p) => {
                w.u8(1);
                w.digests16(&p.tail.digests, "chain proof digests")?;
            }
        }
    }
    w.len32(vo.docs.len(), "document proofs")?;
    for dv in &vo.docs {
        w.u32(dv.doc);
        w.u32(dv.num_leaves);
        w.len32(dv.revealed.len(), "revealed leaves")?;
        for &(pos, term, weight) in &dv.revealed {
            w.u32(pos);
            w.u32(term);
            w.u32(weight.to_bits());
        }
        w.digests16(&dv.proof.digests, "document proof digests")?;
        match &dv.content_digest {
            Some(d) => {
                w.u8(1);
                w.digest(d);
            }
            None => w.u8(0),
        }
    }
    let dict = vo
        .dict
        .as_ref()
        .ok_or_else(|| err("every VO carries a dictionary proof"))?;
    w.u32(dict.num_terms);
    w.digests16(&dict.proof.digests, "dictionary proof digests")?;
    match (&vo.doc_table, vo.mechanism.is_tra()) {
        (Some(table), true) => {
            w.len32(table.proof.digests.len(), "document-table proof digests")?;
            for d in &table.proof.digests {
                w.digest(d);
            }
        }
        (None, false) => {}
        _ => {
            return Err(err(
                "a document table is carried by TRA VOs, and only by them",
            ))
        }
    }
    w.bytes16(&vo.signature, "manifest signature")?;
    Ok(w.buf)
}

// ---- decoding -------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or_else(|| err("truncated"))?;
        let out = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| err("truncated"))?;
        self.pos = end;
        Ok(out)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?.try_into().map_err(|_| err("truncated"))
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        let [b] = self.array()?;
        Ok(b)
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn digest(&mut self) -> Result<Digest, WireError> {
        let b = self.take(DIGEST_LEN)?;
        Digest::from_slice(b).ok_or_else(|| err("digest"))
    }
    fn bytes16(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u16()? as usize;
        Ok(self.take(n)?.to_vec())
    }
    fn digests16(&mut self) -> Result<Vec<Digest>, WireError> {
        let n = self.u16()? as usize;
        let n = self.checked_count(n, DIGEST_LEN, "digest list")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.digest()?);
        }
        Ok(out)
    }
    /// A count that claims `n` entries of at least `per` encoded bytes
    /// each, validated against the bytes actually remaining — a tiny
    /// frame advertising 2²⁶ entries is rejected *before* any
    /// `Vec::with_capacity`, so attacker-chosen counts can never size
    /// an allocation beyond the payload they paid to send.
    fn checked_count(&self, n: usize, per: usize, what: &str) -> Result<usize, WireError> {
        let remaining = self.buf.len().saturating_sub(self.pos);
        if n > remaining / per.max(1) {
            return Err(WireError::Malformed(format!(
                "{what} count {n} exceeds what the remaining {remaining} bytes can hold"
            )));
        }
        Ok(n)
    }
}

/// Deserialize a VO from bytes.
pub fn decode(bytes: &[u8]) -> Result<VerificationObject, WireError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(err("bad magic"));
    }
    let mechanism = Mechanism::from_code(r.u8()?).ok_or_else(|| err("unknown mechanism"))?;
    let num_terms = r.u16()? as usize;
    // Minimum encoding per term: term id (4) + ft (4) + prefix tag (1).
    let num_terms = r.checked_count(num_terms, 9, "VO term")?;
    let mut terms = Vec::with_capacity(num_terms);
    for _ in 0..num_terms {
        let term = r.u32()?;
        let ft = r.u32()?;
        let prefix = match r.u8()? {
            0 => {
                let n = r.u32()? as usize;
                let n = r.checked_count(n, 4, "doc-id prefix")?;
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(r.u32()?);
                }
                PrefixData::DocIds(ids)
            }
            1 => {
                let n = r.u32()? as usize;
                let n = r.checked_count(n, 8, "impact-entry prefix")?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let raw = r.take(8)?;
                    let mut arr = [0u8; 8];
                    arr.copy_from_slice(raw);
                    entries.push(ImpactEntry::decode(&arr));
                }
                PrefixData::Entries(entries)
            }
            _ => return Err(err("unknown prefix kind")),
        };
        let proof = match r.u8()? {
            0 => TermProof::Mht(MerkleProof {
                digests: r.digests16()?,
            }),
            1 => TermProof::Cmht(ChainPrefixProof {
                tail: MerkleProof {
                    digests: r.digests16()?,
                },
            }),
            _ => return Err(err("unknown proof kind")),
        };
        terms.push(TermVo {
            term,
            ft,
            prefix,
            proof,
            signature: None,
        });
    }
    let num_docs = r.u32()? as usize;
    // Smallest possible document proof: ids + counts + flags + prefixes.
    let num_docs = r.checked_count(num_docs, 15, "document proof")?;
    let mut docs = Vec::with_capacity(num_docs);
    for _ in 0..num_docs {
        let doc = r.u32()?;
        let num_leaves = r.u32()?;
        let n = r.u32()? as usize;
        let n = r.checked_count(n, 12, "revealed leaf")?;
        let mut revealed = Vec::with_capacity(n);
        for _ in 0..n {
            let pos = r.u32()?;
            let term = r.u32()?;
            let weight = f32::from_bits(r.u32()?);
            revealed.push((pos, term, weight));
        }
        let proof = MerkleProof {
            digests: r.digests16()?,
        };
        let content_digest = match r.u8()? {
            0 => None,
            1 => Some(r.digest()?),
            _ => return Err(err("bad content flag")),
        };
        docs.push(DocVo {
            doc,
            num_leaves,
            revealed,
            proof,
            content_digest,
        });
    }
    let dict = DictVo {
        num_terms: r.u32()?,
        proof: MerkleProof {
            digests: r.digests16()?,
        },
    };
    let doc_table = if mechanism.is_tra() {
        let n = r.u32()? as usize;
        let n = r.checked_count(n, DIGEST_LEN, "document-table digest")?;
        let mut digests = Vec::with_capacity(n);
        for _ in 0..n {
            digests.push(r.digest()?);
        }
        Some(DocTableVo {
            proof: MerkleProof { digests },
        })
    } else {
        None
    };
    let signature = r.bytes16()?;
    if r.pos != bytes.len() {
        return Err(err("trailing bytes"));
    }
    Ok(VerificationObject {
        mechanism,
        terms,
        docs,
        dict: Some(dict),
        doc_table,
        signature,
    })
}

// ---- frame protocol -------------------------------------------------------

/// Frame preamble: protocol name, followed by [`WIRE_VERSION`].
pub const FRAME_MAGIC: [u8; 4] = *b"ASRV";

/// Protocol version carried in every frame header. A server or client
/// seeing any other value rejects the frame as
/// [`WireError::Malformed`] — it never guesses at a foreign layout.
///
/// **v2** added a flags byte to every request payload (bit 0 =
/// [`FLAG_DIGEST_VO`], requesting the streaming digest-mode reply) and
/// the [`kind::REPLY_OK_DIGEST`] frame. **v3** replaced the TRA VO's
/// per-document signatures with one document-table trailer (TNRA
/// payloads are byte-identical to v2). **v4** carries one manifest
/// signature per VO in place of the per-term, dictionary and
/// document-table signatures, puts a dictionary proof in every VO, and
/// hashes Merkle leaves and interior nodes in separate domains. Older
/// frames are rejected by the version check, never misparsed.
pub const WIRE_VERSION: u8 = 4;

/// Request flag bit: ask for a [`Reply::OkDigest`] — the VO with
/// per-document content digests instead of the full contents echo.
/// Honored only for TNRA deployments (whose verification never consumes
/// the contents); TRA servers fall back to the full [`Reply::Ok`].
/// Unknown flag bits are rejected at decode, so a client cannot ask for
/// semantics this build would silently ignore.
pub const FLAG_DIGEST_VO: u8 = 0x01;

/// Fixed size of the frame header: magic (4) + version (1) + kind (1) +
/// payload length (4).
pub const FRAME_HEADER_LEN: usize = 10;

/// Upper bound on a frame payload (64 MiB). A header advertising more
/// is rejected before any allocation — the cap is what lets a reader
/// trust the length prefix enough to buffer the payload.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 26;

/// The query-mode byte of a [`kind::REQ_CONJ_TERMS`] payload. The
/// conjunctive frame carries the mode explicitly (rather than implying
/// it from the kind alone) so a future mode can reuse the frame layout;
/// any value other than this one is rejected at decode as
/// [`WireError::Malformed`] — a server must never guess which semantics
/// a client meant.
pub const MODE_CONJUNCTIVE: u8 = 1;

/// Frame kinds. Requests have the high bit clear, replies set.
pub mod kind {
    /// Natural-language query request.
    pub const REQ_TEXT: u8 = 0x01;
    /// Explicit `(term, f_qt)`-pairs query request.
    pub const REQ_TERMS: u8 = 0x02;
    /// Conjunctive (AND-semantics) `(term, f_qt)`-pairs query request
    /// (**v2**): same pair layout as [`REQ_TERMS`] behind an explicit
    /// mode byte ([`super::MODE_CONJUNCTIVE`]).
    pub const REQ_CONJ_TERMS: u8 = 0x03;
    /// Successful reply: query echo + full `QueryResponse`.
    pub const REPLY_OK: u8 = 0x81;
    /// Error reply: code + message.
    pub const REPLY_ERR: u8 = 0x82;
    /// Successful digest-mode reply: query echo + result + VO +
    /// per-document content digests (no contents echo).
    pub const REPLY_OK_DIGEST: u8 = 0x83;
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
    pub const INTERNAL: u8 = 3;
    /// The response exists but cannot be represented on the wire.
    pub const UNREPRESENTABLE: u8 = 4;
    /// The server is at its connection cap and shed this connection
    /// instead of serving it. The reply is typed — never a silent RST —
    /// so a client can back off and retry
    /// ([`crate::Connection::query_terms_retrying`]).
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
    if payload_len > MAX_FRAME_PAYLOAD {
        return Err(WireError::TooLong {
            field: "frame payload",
            len: payload_len,
            max: MAX_FRAME_PAYLOAD,
        });
    }
    let len32 = u32::try_from(payload_len).map_err(|_| WireError::TooLong {
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
pub fn decode_frame_header_any(header: &[u8; FRAME_HEADER_LEN]) -> Result<(u8, usize), WireError> {
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
        | kind::REPLY_OK
        | kind::REPLY_ERR
        | kind::REPLY_OK_DIGEST => Ok((kind, len)),
        _ => Err(WireError::Malformed(format!(
            "unknown frame kind {kind:#04x}"
        ))),
    }
}

/// A query request, as it travels client → server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Natural-language query; the server parses it against its
    /// dictionary and echoes the parse back in the reply.
    Text {
        /// The query text (parsed server-side; out-of-dictionary words
        /// are dropped per the system model).
        text: String,
        /// Requested result size.
        r: u32,
        /// Ask for a digest-mode reply ([`FLAG_DIGEST_VO`]); the server
        /// honors it only for TNRA deployments.
        want_digests: bool,
    },
    /// Explicit `(term id, f_{Q,t})` pairs, strictly ascending by term —
    /// the paper's user-posed query shape, verified end to end.
    Terms {
        /// Distinct query terms with their query-side frequencies.
        terms: Vec<(TermId, u32)>,
        /// Requested result size.
        r: u32,
        /// Ask for a digest-mode reply ([`FLAG_DIGEST_VO`]); the server
        /// honors it only for TNRA deployments.
        want_digests: bool,
    },
    /// Conjunctive (AND-semantics) query over explicit `(term, f_{Q,t})`
    /// pairs: only documents containing **every** term qualify, and the
    /// server's VO proves the intersection is exact. Same validation
    /// rules as [`Request::Terms`]; the payload carries an explicit
    /// [`MODE_CONJUNCTIVE`] byte that decode enforces.
    ConjunctiveTerms {
        /// Distinct query terms with their query-side frequencies.
        terms: Vec<(TermId, u32)>,
        /// Requested result size.
        r: u32,
        /// Ask for a digest-mode reply ([`FLAG_DIGEST_VO`]); the server
        /// honors it only for TNRA deployments.
        want_digests: bool,
    },
}

/// Encode a request's flags byte.
fn request_flags(want_digests: bool) -> u8 {
    if want_digests {
        FLAG_DIGEST_VO
    } else {
        0
    }
}

/// Decode a request's flags byte, rejecting bits this build does not
/// understand (a server cannot honor semantics it does not know, and
/// silently dropping them would let a lying middlebox downgrade the
/// request unnoticed).
fn parse_request_flags(flags: u8) -> Result<bool, WireError> {
    if flags & !FLAG_DIGEST_VO != 0 {
        return Err(WireError::Malformed(format!(
            "unknown request flags {flags:#04x} (this build understands {FLAG_DIGEST_VO:#04x})"
        )));
    }
    Ok(flags & FLAG_DIGEST_VO != 0)
}

impl Request {
    /// Serialize to a complete frame (header + payload).
    pub fn encode_frame(&self) -> Result<Vec<u8>, WireError> {
        let mut w = Writer { buf: Vec::new() };
        let kind = match self {
            Request::Text {
                text,
                r,
                want_digests,
            } => {
                w.u8(request_flags(*want_digests));
                w.u32(*r);
                w.bytes16(text.as_bytes(), "query text")?;
                kind::REQ_TEXT
            }
            Request::Terms {
                terms,
                r,
                want_digests,
            } => {
                w.u8(request_flags(*want_digests));
                w.u32(*r);
                w.len16(terms.len(), "query terms")?;
                for &(t, f_qt) in terms {
                    w.u32(t);
                    w.u32(f_qt);
                }
                kind::REQ_TERMS
            }
            Request::ConjunctiveTerms {
                terms,
                r,
                want_digests,
            } => {
                w.u8(request_flags(*want_digests));
                w.u8(MODE_CONJUNCTIVE);
                w.u32(*r);
                w.len16(terms.len(), "query terms")?;
                for &(t, f_qt) in terms {
                    w.u32(t);
                    w.u32(f_qt);
                }
                kind::REQ_CONJ_TERMS
            }
        };
        frame(kind, w.buf)
    }

    /// Deserialize a request payload of the given frame kind.
    pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let request = match kind {
            kind::REQ_TEXT => {
                let want_digests = parse_request_flags(r.u8()?)?;
                let top_r = r.u32()?;
                let text =
                    String::from_utf8(r.bytes16()?).map_err(|_| err("query text is not UTF-8"))?;
                Request::Text {
                    text,
                    r: top_r,
                    want_digests,
                }
            }
            kind::REQ_TERMS => {
                let want_digests = parse_request_flags(r.u8()?)?;
                let top_r = r.u32()?;
                let n = r.u16()? as usize;
                let n = r.checked_count(n, 8, "query term")?;
                let mut terms = Vec::with_capacity(n);
                for _ in 0..n {
                    terms.push((r.u32()?, r.u32()?));
                }
                Request::Terms {
                    terms,
                    r: top_r,
                    want_digests,
                }
            }
            kind::REQ_CONJ_TERMS => {
                let want_digests = parse_request_flags(r.u8()?)?;
                let mode = r.u8()?;
                if mode != MODE_CONJUNCTIVE {
                    return Err(WireError::Malformed(format!(
                        "unknown query mode {mode} (this build understands mode {MODE_CONJUNCTIVE})"
                    )));
                }
                let top_r = r.u32()?;
                let n = r.u16()? as usize;
                let n = r.checked_count(n, 8, "conjunctive query term")?;
                let mut terms = Vec::with_capacity(n);
                for _ in 0..n {
                    terms.push((r.u32()?, r.u32()?));
                }
                Request::ConjunctiveTerms {
                    terms,
                    r: top_r,
                    want_digests,
                }
            }
            _ => return Err(err("not a request frame")),
        };
        if r.pos != payload.len() {
            return Err(err("trailing bytes in request"));
        }
        Ok(request)
    }
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
        response: QueryResponse,
    },
    /// The query was served in digest mode ([`FLAG_DIGEST_VO`]): the
    /// full result, VO, and I/O trace travel as usual, but the
    /// result-document contents are replaced by `(doc, h(content))`
    /// pairs. TNRA verification never consumes the contents — the
    /// verifier authenticates list prefixes and replays the threshold
    /// algorithm — so the accept/reject verdict is **identical** to the
    /// full-echo path (regression-tested against the attack suite); the
    /// digests let a client fetch the documents out of band and check
    /// it received what the engine served.
    OkDigest {
        /// The `(term, f_{Q,t})` echo, exactly as in [`Reply::Ok`].
        terms: Vec<(TermId, u32)>,
        /// The response with `contents` empty (nothing travelled).
        response: QueryResponse,
        /// `(doc, h(content))` per result document, in result order.
        digests: Vec<(DocId, Digest)>,
    },
    /// The query was not served; the connection stays up.
    Err {
        /// An [`errcode`] constant.
        code: u8,
        /// Human-readable cause.
        message: String,
    },
}

/// Write the sections shared by both OK reply shapes: the
/// `(term, f_qt)` echo, the ranked result, and the nested VO.
fn write_ok_head(
    w: &mut Writer,
    terms: &[(TermId, u32)],
    response: &QueryResponse,
) -> Result<(), WireError> {
    w.len16(terms.len(), "reply term echo")?;
    for &(t, f_qt) in terms {
        w.u32(t);
        w.u32(f_qt);
    }
    // Ranked result.
    w.len32(response.result.entries.len(), "result entries")?;
    for e in &response.result.entries {
        w.u32(e.doc);
        w.u64(e.score.to_bits());
    }
    // Nested VO (its own magic + encoding).
    let vo = encode(&response.vo)?;
    w.len32(vo.len(), "VO bytes")?;
    w.buf.extend_from_slice(&vo);
    Ok(())
}

/// Write the trailing engine-side accounting shared by both OK shapes.
fn write_ok_tail(w: &mut Writer, response: &QueryResponse) -> Result<(), WireError> {
    w.u64(response.io.seeks);
    w.u64(response.io.blocks);
    w.len16(response.entries_read.len(), "entries-read counts")?;
    for &n in &response.entries_read {
        w.len32(n, "entries-read value")?;
    }
    Ok(())
}

/// Serialize a successful reply to a complete frame.
pub fn encode_ok_reply(
    terms: &[(TermId, u32)],
    response: &QueryResponse,
) -> Result<Vec<u8>, WireError> {
    let mut payload = Vec::new();
    let kind = encode_ok_reply_payload(terms, response, &mut payload)?;
    frame(kind, payload)
}

/// Serialize a successful reply **payload only** into a caller-owned
/// buffer (cleared first), returning the frame kind to put in the
/// header. This is the zero-copy path the reactor core uses: the
/// 10-byte header lives on the caller's stack and goes out through a
/// vectored write alongside this buffer, so a reply costs no staging
/// copy and — once the connection's buffer has grown to its working
/// size — no allocation. [`encode_ok_reply`] is this plus
/// framing.
pub fn encode_ok_reply_payload(
    terms: &[(TermId, u32)],
    response: &QueryResponse,
    payload: &mut Vec<u8>,
) -> Result<u8, WireError> {
    payload.clear();
    let mut w = Writer {
        buf: std::mem::take(payload),
    };
    write_ok_head(&mut w, terms, response)?;
    // Result-document contents.
    w.len32(response.contents.len(), "result contents")?;
    for (d, bytes) in &response.contents {
        w.u32(*d);
        w.len32(bytes.len(), "document content")?;
        w.buf.extend_from_slice(bytes);
    }
    write_ok_tail(&mut w, response)?;
    *payload = w.buf;
    Ok(kind::REPLY_OK)
}

/// Serialize a digest-mode reply ([`Reply::OkDigest`]): identical to
/// [`encode_ok_reply`] except the contents section is replaced by
/// `(doc, h(content))` pairs — the TNRA streaming mode that saves the
/// dominant share of bytes on the wire for content-heavy results.
pub fn encode_ok_digest_reply(
    terms: &[(TermId, u32)],
    response: &QueryResponse,
) -> Result<Vec<u8>, WireError> {
    let mut payload = Vec::new();
    let kind = encode_ok_digest_reply_payload(terms, response, &mut payload)?;
    frame(kind, payload)
}

/// Payload-only variant of [`encode_ok_digest_reply`]; see
/// [`encode_ok_reply_payload`] for the reuse contract.
pub fn encode_ok_digest_reply_payload(
    terms: &[(TermId, u32)],
    response: &QueryResponse,
    payload: &mut Vec<u8>,
) -> Result<u8, WireError> {
    payload.clear();
    let mut w = Writer {
        buf: std::mem::take(payload),
    };
    write_ok_head(&mut w, terms, response)?;
    let digests = response.content_digests();
    w.len32(digests.len(), "content digests")?;
    for (d, digest) in &digests {
        w.u32(*d);
        w.digest(digest);
    }
    write_ok_tail(&mut w, response)?;
    *payload = w.buf;
    Ok(kind::REPLY_OK_DIGEST)
}

/// Serialize an error reply to a complete frame.
pub fn encode_err_reply(code: u8, message: &str) -> Result<Vec<u8>, WireError> {
    let mut payload = Vec::new();
    let kind = encode_err_reply_payload(code, message, &mut payload)?;
    frame(kind, payload)
}

/// Payload-only variant of [`encode_err_reply`]; see
/// [`encode_ok_reply_payload`] for the reuse contract. Like the framed
/// form it truncates rather than fails — an error reply must always be
/// representable — and truncates on a char boundary, so the peer's
/// UTF-8 validation accepts what we send.
pub fn encode_err_reply_payload(
    code: u8,
    message: &str,
    payload: &mut Vec<u8>,
) -> Result<u8, WireError> {
    payload.clear();
    let mut w = Writer {
        buf: std::mem::take(payload),
    };
    w.u8(code);
    let mut end = message.len().min(u16::MAX as usize);
    while !message.is_char_boundary(end) {
        end -= 1;
    }
    w.bytes16(
        message.as_bytes().get(..end).unwrap_or_default(),
        "error message",
    )?;
    *payload = w.buf;
    Ok(kind::REPLY_ERR)
}

/// Deserialize a reply payload of the given frame kind.
pub fn decode_reply_payload(kind: u8, payload: &[u8]) -> Result<Reply, WireError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let reply = match kind {
        kind::REPLY_OK | kind::REPLY_OK_DIGEST => {
            let nt = r.u16()? as usize;
            let nt = r.checked_count(nt, 8, "reply term")?;
            let mut terms = Vec::with_capacity(nt);
            for _ in 0..nt {
                terms.push((r.u32()?, r.u32()?));
            }
            let ne = r.u32()? as usize;
            let ne = r.checked_count(ne, 12, "result entry")?;
            let mut entries = Vec::with_capacity(ne);
            for _ in 0..ne {
                let doc = r.u32()?;
                let score = f64::from_bits(r.u64()?);
                entries.push(ResultEntry { doc, score });
            }
            let vo_len = r.u32()? as usize;
            let vo = decode(r.take(vo_len)?)?;
            // The one structural difference between the two OK shapes:
            // delivered contents (full echo) vs `(doc, digest)` pairs.
            let mut contents = Vec::new();
            let mut digests = Vec::new();
            if kind == kind::REPLY_OK {
                let nc = r.u32()? as usize;
                let nc = r.checked_count(nc, 8, "result content")?;
                contents.reserve_exact(nc);
                for _ in 0..nc {
                    let doc = r.u32()?;
                    let len = r.u32()? as usize;
                    contents.push((doc, r.take(len)?.to_vec()));
                }
            } else {
                let nd = r.u32()? as usize;
                let nd = r.checked_count(nd, 4 + DIGEST_LEN, "content digest")?;
                digests.reserve_exact(nd);
                for _ in 0..nd {
                    let doc = r.u32()?;
                    digests.push((doc, r.digest()?));
                }
            }
            let io = IoStats {
                seeks: r.u64()?,
                blocks: r.u64()?,
            };
            let nr = r.u16()? as usize;
            let nr = r.checked_count(nr, 4, "entries-read list")?;
            let mut entries_read = Vec::with_capacity(nr);
            for _ in 0..nr {
                entries_read.push(r.u32()? as usize);
            }
            let response = QueryResponse {
                result: QueryResult { entries },
                vo,
                contents,
                io,
                entries_read,
            };
            if kind == kind::REPLY_OK {
                Reply::Ok { terms, response }
            } else {
                Reply::OkDigest {
                    terms,
                    response,
                    digests,
                }
            }
        }
        kind::REPLY_ERR => {
            let code = r.u8()?;
            let message =
                String::from_utf8(r.bytes16()?).map_err(|_| err("error message is not UTF-8"))?;
            Reply::Err { code, message }
        }
        _ => return Err(err("not a reply frame")),
    };
    if r.pos != payload.len() {
        return Err(err("trailing bytes in reply"));
    }
    Ok(reply)
}

/// Prepend the frame header to a finished payload.
fn frame(kind: u8, payload: Vec<u8>) -> Result<Vec<u8>, WireError> {
    let header = encode_frame_header(kind, payload.len())?;
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&header);
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Split a complete frame into `(kind, payload)`, validating the header
/// and that the payload length matches exactly. Convenience for callers
/// that already hold whole frames (tests, fuzzing); the streaming
/// server and client read the header and payload separately.
pub fn split_frame(bytes: &[u8]) -> Result<(u8, &[u8]), WireError> {
    let header: [u8; FRAME_HEADER_LEN] = bytes
        .get(..FRAME_HEADER_LEN)
        .and_then(|h| h.try_into().ok())
        .ok_or_else(|| err("truncated frame header"))?;
    let (kind, len) = decode_frame_header(&header)?;
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
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            ..AuthConfig::new(mechanism)
        };
        let publication = owner.publish_index(toy_index(), config, &toy_contents());
        publication.auth.query(&toy_query(), 2, &toy_contents()).vo
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
        // The wire encoding carries the modeled bytes plus only small
        // fixed framing overhead (< 10% for realistic VOs).
        for mechanism in Mechanism::ALL {
            let vo = sample_vo(mechanism);
            let modeled = vo.size().total();
            let wire = encode(&vo).unwrap().len();
            assert!(
                wire >= modeled,
                "{}: wire {wire} < modeled {modeled}",
                mechanism.name()
            );
            assert!(
                wire <= modeled + 64 + 24 * (vo.terms.len() + vo.docs.len()),
                "{}: framing overhead too large ({wire} vs {modeled})",
                mechanism.name()
            );
        }
    }

    #[test]
    fn forged_counts_cannot_size_allocations() {
        // A 9-byte frame advertising 65,535 VO terms: `checked_count`
        // must reject the count against the bytes actually present,
        // before any `Vec::with_capacity` sees it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(0); // mechanism TRA-MHT
        bytes.extend_from_slice(&u16::MAX.to_le_bytes()); // forged num_terms
        bytes.extend_from_slice(&[0, 0]); // far too little payload
        let err = decode(&bytes).expect_err("forged count must be rejected");
        let msg = err.to_string();
        assert!(
            msg.contains("65535") && msg.contains("count"),
            "error should name the forged count: {msg}"
        );

        // Same property on a well-formed VO whose count field is bumped
        // after encoding: every inflated count dies in validation.
        let vo = sample_vo(Mechanism::TraMht);
        let mut bytes = encode(&vo).unwrap();
        bytes[5..7].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let vo = sample_vo(Mechanism::TraMht);
        let bytes = encode(&vo).unwrap();
        // Cut at a sample of offsets; decoding must error, never panic.
        for cut in (0..bytes.len()).step_by(7) {
            assert!(decode(&bytes[..cut]).is_err(), "cut={cut}");
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
        let doc_vo = |digests: usize| DocVo {
            doc: 1,
            num_leaves: 4,
            revealed: Vec::new(),
            proof: MerkleProof {
                digests: vec![Digest::ZERO; digests],
            },
            content_digest: None,
        };
        let vo = |digests| VerificationObject {
            mechanism: Mechanism::TraMht,
            terms: Vec::new(),
            docs: vec![doc_vo(digests)],
            dict: Some(DictVo {
                num_terms: 1,
                proof: MerkleProof::default(),
            }),
            doc_table: Some(DocTableVo {
                proof: MerkleProof::default(),
            }),
            signature: vec![0u8; 4],
        };
        let at_boundary = encode(&vo(u16::MAX as usize)).unwrap();
        let back = decode(&at_boundary).unwrap();
        assert_eq!(back.docs[0].proof.digests.len(), u16::MAX as usize);
        assert_eq!(
            encode(&vo(u16::MAX as usize + 1)).unwrap_err(),
            WireError::TooLong {
                field: "document proof digests",
                len: 65_536,
                max: 65_535,
            }
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
            dict: Some(DictVo {
                num_terms: 1,
                proof: MerkleProof::default(),
            }),
            doc_table: None,
            signature: vec![0u8; 4],
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

    #[test]
    fn doc_table_trailer_is_tra_only() {
        // TNRA encodings carry no trailer byte at all.
        let tnra = sample_vo(Mechanism::TnraMht);
        assert!(tnra.doc_table.is_none());
        let tra = sample_vo(Mechanism::TraMht);
        let table = tra.doc_table.clone().unwrap();
        let bytes = encode(&tra).unwrap();
        let trailer = 4 + table.proof.size_bytes();
        let mut stripped = tra.clone();
        stripped.mechanism = Mechanism::TnraMht;
        stripped.doc_table = None;
        assert_eq!(encode(&stripped).unwrap().len() + trailer, bytes.len());
        // A mismatched VO is refused at encode time, both ways.
        let mut missing = tra.clone();
        missing.doc_table = None;
        assert!(matches!(encode(&missing), Err(WireError::Malformed(_))));
        let mut extra = tnra;
        extra.doc_table = Some(table);
        assert!(matches!(encode(&extra), Err(WireError::Malformed(_))));
        // A digest count larger than the bytes behind it is refused
        // before allocation (truncations: tests/attack_suite.rs).
        let mut forged = bytes.clone();
        let at = bytes.len() - 2 - tra.signature.len() - trailer;
        forged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&forged).is_err());
    }

    #[test]
    fn oversized_signature_refused() {
        let mut vo = sample_vo(Mechanism::TnraMht);
        vo.signature = vec![0u8; u16::MAX as usize + 1];
        assert!(matches!(
            encode(&vo),
            Err(WireError::TooLong {
                field: "manifest signature",
                ..
            })
        ));
    }

    fn sample_response(mechanism: Mechanism) -> QueryResponse {
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            ..AuthConfig::new(mechanism)
        };
        let publication = owner.publish_index(toy_index(), config, &toy_contents());
        publication.auth.query(&toy_query(), 2, &toy_contents())
    }

    #[test]
    fn request_frames_round_trip() {
        let requests = [
            Request::Text {
                text: "night keeper keep".into(),
                r: 5,
                want_digests: false,
            },
            Request::Text {
                text: String::new(),
                r: 0,
                want_digests: true,
            },
            Request::Terms {
                terms: vec![(1, 1), (7, 2), (15, 1)],
                r: 10,
                want_digests: true,
            },
            Request::Terms {
                terms: Vec::new(),
                r: 1,
                want_digests: false,
            },
            Request::ConjunctiveTerms {
                terms: vec![(2, 1), (9, 3)],
                r: 4,
                want_digests: false,
            },
            Request::ConjunctiveTerms {
                terms: Vec::new(),
                r: 1,
                want_digests: true,
            },
        ];
        for request in requests {
            let bytes = request.encode_frame().unwrap();
            let (kind, payload) = split_frame(&bytes).unwrap();
            assert_eq!(Request::decode_payload(kind, payload).unwrap(), request);
        }
    }

    #[test]
    fn unknown_request_flag_bits_rejected() {
        // A request advertising semantics this build does not implement
        // must be refused, not silently downgraded.
        let good = Request::Terms {
            terms: vec![(1, 1)],
            r: 3,
            want_digests: true,
        }
        .encode_frame()
        .unwrap();
        let (kind, payload) = split_frame(&good).unwrap();
        let mut bad = payload.to_vec();
        bad[0] |= 0x80; // an unknown flag bit
        let err = Request::decode_payload(kind, &bad).unwrap_err();
        assert!(err.to_string().contains("flags"), "{err}");
    }

    #[test]
    fn conjunctive_request_rejects_unknown_mode_byte() {
        let good = Request::ConjunctiveTerms {
            terms: vec![(1, 1), (4, 2)],
            r: 3,
            want_digests: false,
        }
        .encode_frame()
        .unwrap();
        let (kind, payload) = split_frame(&good).unwrap();
        assert_eq!(kind, kind::REQ_CONJ_TERMS);
        assert_eq!(payload[1], MODE_CONJUNCTIVE);
        for bad_mode in [0u8, 2, 0x7f, 0xff] {
            let mut bad = payload.to_vec();
            bad[1] = bad_mode;
            let err = Request::decode_payload(kind, &bad).unwrap_err();
            assert!(err.to_string().contains("mode"), "mode {bad_mode}: {err}");
        }
    }

    #[test]
    fn conjunctive_request_rejects_oversized_term_count() {
        // A tiny payload claiming 2¹⁶−1 term pairs must be refused
        // before any allocation sized by the claim.
        let good = Request::ConjunctiveTerms {
            terms: vec![(1, 1)],
            r: 3,
            want_digests: false,
        }
        .encode_frame()
        .unwrap();
        let (kind, payload) = split_frame(&good).unwrap();
        let mut bad = payload.to_vec();
        // flags(1) + mode(1) + r(4) then the u16 count at offset 6.
        bad[6..8].copy_from_slice(&u16::MAX.to_le_bytes());
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
    fn ok_digest_reply_round_trips_and_sheds_content_bytes() {
        for mechanism in Mechanism::ALL {
            let response = sample_response(mechanism);
            let terms: Vec<(TermId, u32)> = response.vo.terms.iter().map(|t| (t.term, 1)).collect();
            let full = encode_ok_reply(&terms, &response).unwrap();
            let slim = encode_ok_digest_reply(&terms, &response).unwrap();
            // Digest mode drops each content body and its u32 length
            // prefix, shipping a 16-byte digest instead.
            let content_bytes: usize = response.contents.iter().map(|(_, b)| b.len()).sum();
            assert_eq!(
                full.len() - content_bytes + 12 * response.contents.len(),
                slim.len(),
                "{}",
                mechanism.name()
            );
            let (kind, payload) = split_frame(&slim).unwrap();
            assert_eq!(kind, kind::REPLY_OK_DIGEST);
            match decode_reply_payload(kind, payload).unwrap() {
                Reply::OkDigest {
                    terms: back_terms,
                    response: back,
                    digests,
                } => {
                    assert_eq!(back_terms, terms);
                    assert_eq!(back.vo, response.vo);
                    assert_eq!(back.result, response.result);
                    assert_eq!(back.io, response.io);
                    assert_eq!(back.entries_read, response.entries_read);
                    assert!(back.contents.is_empty(), "nothing travelled");
                    assert_eq!(digests, response.content_digests());
                }
                other => panic!("expected OkDigest, got {other:?}"),
            }
        }
    }

    #[test]
    fn ok_digest_truncations_rejected() {
        let response = sample_response(Mechanism::TnraCmht);
        let terms: Vec<(TermId, u32)> = response.vo.terms.iter().map(|t| (t.term, 1)).collect();
        let bytes = encode_ok_digest_reply(&terms, &response).unwrap();
        for cut in (0..bytes.len()).step_by(9) {
            let truncated = &bytes[..cut];
            let rejected = match split_frame(truncated) {
                Err(_) => true,
                Ok((kind, payload)) => decode_reply_payload(kind, payload).is_err(),
            };
            assert!(rejected, "cut={cut}");
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

    #[test]
    fn truncated_frames_and_payloads_rejected() {
        let response = sample_response(Mechanism::TraCmht);
        let terms: Vec<(TermId, u32)> = response.vo.terms.iter().map(|t| (t.term, 1)).collect();
        let bytes = encode_ok_reply(&terms, &response).unwrap();
        // Any truncation must error cleanly (header-level or payload-level).
        for cut in (0..bytes.len()).step_by(11) {
            let truncated = &bytes[..cut];
            let rejected = match split_frame(truncated) {
                Err(_) => true, // rejected at the frame layer
                Ok((kind, payload)) => decode_reply_payload(kind, payload).is_err(),
            };
            assert!(rejected, "cut={cut}");
        }
        // Trailing garbage in the payload is rejected as well.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(split_frame(&padded).is_err());
    }

    #[test]
    fn request_decode_rejects_non_utf8_and_trailing_bytes() {
        let good = Request::Text {
            text: "abc".into(),
            r: 3,
            want_digests: false,
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
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            ..AuthConfig::new(Mechanism::TraCmht)
        };
        let publication = owner.publish_index(toy_index(), config, &toy_contents());
        let mut resp = publication.auth.query(&toy_query(), 2, &toy_contents());
        resp.vo = decode(&encode(&resp.vo).unwrap()).unwrap();
        crate::verify::verify(&publication.verifier_params, &toy_query(), 2, &resp).unwrap();
    }
}
