//! Binary persistence for indexes — and the crash-safe, checksummed
//! **snapshot container** the authenticated artifact ships in.
//!
//! Hand-rolled little-endian format (no serde): the data owner in the
//! paper's system model *transfers* the index to the third-party search
//! engine, so it needs a durable wire form.
//!
//! Two layers live here:
//!
//! * the **index record** (`ASIX`) — a flat stream with a magic +
//!   version header ([`write_index`]/[`read_index`]), carried as one
//!   section of the snapshot;
//! * the **v2 snapshot container** (`ASNP`): a sequence of
//!   length-framed sections, each closed by a digest trailer over its
//!   tag, length, and payload, written crash-safely (write-temp → flush
//!   → fsync → atomic rename, plus a sidecar manifest) by
//!   [`save_snapshot_file`]. Section payloads are opaque here; the
//!   authenticated-artifact codec on top lives in `authsearch-core`.
//!
//! Everything read from disk is treated as **attacker bytes** (the
//! engine is untrusted in the paper's model, and bit rot is
//! indistinguishable from tampering): every count is validated against
//! the bytes that could actually back it before any allocation, every
//! pre-allocation is clamped to [`PREALLOC_CLAMP`], and corruption
//! surfaces as a typed [`PersistError`] — never a panic, never an
//! attacker-sized `Vec::with_capacity`.

use crate::dictionary::InvertedIndex;
use crate::okapi::OkapiParams;
use crate::postings::{ImpactEntry, InvertedList};
use authsearch_crypto::{Digest, DIGEST_LEN};
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const INDEX_MAGIC: &[u8; 4] = b"ASIX";
const VERSION: u32 = 1;

/// Upper bound on any single `Vec::with_capacity` fed by bytes read
/// from disk. Reads past the clamp grow organically, so a forged length
/// field costs at most one modest buffer before the stream runs dry and
/// the decoder returns [`PersistError::Corrupt`] — the persistence
/// mirror of `wire.rs`'s `checked_count` discipline.
pub const PREALLOC_CLAMP: usize = 1 << 16;

/// Clamp a length field read from untrusted bytes to a safe capacity.
fn capped(len: usize) -> usize {
    len.min(PREALLOC_CLAMP)
}

/// Errors from (de)serialization.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structurally invalid or truncated file.
    Corrupt(String),
    /// A snapshot section's bytes do not match its digest trailer: the
    /// payload was altered (bit rot, torn write, tampering) after the
    /// trailer was computed.
    SectionDigest {
        /// Tag of the failing section, as printable ASCII.
        section: String,
    },
    /// The file is structurally valid but describes a different
    /// artifact than the caller expects (configuration, collection or
    /// owner mismatch) — reload is pointless; obtain the owner's current
    /// publication.
    Stale(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Corrupt(why) => write!(f, "corrupt file: {why}"),
            PersistError::SectionDigest { section } => {
                write!(f, "section {section:?} fails its digest trailer")
            }
            PersistError::Stale(why) => write!(f, "stale snapshot: {why}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn corrupt(why: impl Into<String>) -> PersistError {
    PersistError::Corrupt(why.into())
}

// ---- primitive encoders -------------------------------------------------

/// Write one little-endian `u32` (shared by the section codecs built on
/// top of this module).
pub fn put_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Write one little-endian `u64`.
pub fn put_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Write one `f64` as its little-endian bit pattern.
pub fn put_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_bits().to_le_bytes())
}

fn get_u32<R: Read>(r: &mut R) -> Result<u32, PersistError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn get_u64<R: Read>(r: &mut R) -> Result<u64, PersistError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn get_f64<R: Read>(r: &mut R) -> Result<f64, PersistError> {
    Ok(f64::from_bits(get_u64(r)?))
}

// ---- index --------------------------------------------------------------

/// Serialize an index to any writer.
pub fn write_index<W: Write>(w: &mut W, index: &InvertedIndex) -> Result<(), PersistError> {
    w.write_all(INDEX_MAGIC)?;
    put_u32(w, VERSION)?;
    put_f64(w, index.params().k1)?;
    put_f64(w, index.params().b)?;
    put_u64(w, index.num_docs() as u64)?;
    put_f64(w, index.avg_doc_len())?;
    put_u64(w, index.num_terms() as u64)?;
    for t in 0..index.num_terms() as u32 {
        let list = index.list(t);
        let list_len =
            u32::try_from(list.len()).map_err(|_| corrupt("posting list length exceeds u32"))?;
        put_u32(w, list_len)?;
        for e in list.entries() {
            w.write_all(&e.encode())?;
        }
    }
    Ok(())
}

/// Deserialize an index from any reader.
pub fn read_index<R: Read>(r: &mut R) -> Result<InvertedIndex, PersistError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != INDEX_MAGIC {
        return Err(corrupt("bad index magic"));
    }
    if get_u32(r)? != VERSION {
        return Err(corrupt("unsupported index version"));
    }
    let k1 = get_f64(r)?;
    let b = get_f64(r)?;
    if !(k1.is_finite() && b.is_finite()) {
        return Err(corrupt("non-finite Okapi parameters"));
    }
    let num_docs = get_u64(r)? as usize;
    let avg = get_f64(r)?;
    let m = get_u64(r)? as usize;
    if m > 1 << 28 {
        return Err(corrupt("dictionary size implausible"));
    }
    let mut ft = Vec::with_capacity(capped(m));
    let mut lists = Vec::with_capacity(capped(m));
    let mut entry_buf = [0u8; 8];
    for t in 0..m {
        let len32 = get_u32(r)?;
        let len = len32 as usize;
        if len > num_docs {
            return Err(corrupt("list longer than collection"));
        }
        let mut entries = Vec::with_capacity(capped(len));
        for _ in 0..len {
            r.read_exact(&mut entry_buf)?;
            let entry = ImpactEntry::decode(&entry_buf);
            if entry.doc as usize >= num_docs {
                return Err(corrupt(format!(
                    "term {t}: document {} outside the collection of {num_docs}",
                    entry.doc
                )));
            }
            entries.push(entry);
        }
        // Untrusted input: validate the canonical ordering invariant
        // before wrapping (from_sorted only debug-asserts it).
        let canonical = entries.windows(2).all(|pair| {
            matches!(pair, [a, b] if a.weight > b.weight || (a.weight == b.weight && a.doc < b.doc))
        });
        if !canonical {
            return Err(corrupt("list not frequency-ordered"));
        }
        ft.push(len32);
        lists.push(InvertedList::from_sorted(entries));
    }
    Ok(InvertedIndex::from_parts(
        OkapiParams { k1, b },
        num_docs,
        avg,
        ft,
        lists,
    ))
}

// ---- v2 snapshot container ------------------------------------------------

/// Magic of the v2 snapshot container.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"ASNP";
/// Magic of the sidecar manifest file.
pub const MANIFEST_MAGIC: &[u8; 4] = b"ASMF";
/// Container version of the section-framed, digest-trailed layout.
pub const SNAPSHOT_VERSION: u32 = 2;
/// Largest section payload a reader accepts (2 GiB covers WSJ-scale
/// artifacts with room to spare; anything bigger is a forged length —
/// and readers never pre-allocate the claimed size anyway, see
/// [`PREALLOC_CLAMP`]).
pub const MAX_SECTION_PAYLOAD: u64 = 1 << 31;
/// Largest section count a reader accepts.
pub const MAX_SECTIONS: u32 = 64;

/// Four-byte section tag (printable ASCII by convention).
pub type SectionTag = [u8; 4];

/// A parsed container body: every section's tag and payload, in file
/// order, each with a verified digest trailer.
pub type Sections = Vec<(SectionTag, Vec<u8>)>;

/// Domain-separation prefix of every section digest trailer.
const SECTION_DIGEST_DOMAIN: &[u8] = b"authsearch:section:v2|";

fn section_digest(tag: &SectionTag, payload: &[u8]) -> Digest {
    Digest::hash_parts(&[
        SECTION_DIGEST_DOMAIN,
        tag,
        &(payload.len() as u64).to_le_bytes(),
        payload,
    ])
}

fn tag_name(tag: &SectionTag) -> String {
    tag.iter()
        .map(|&b| {
            if b.is_ascii_graphic() {
                char::from(b)
            } else {
                '.'
            }
        })
        .collect()
}

/// Serialize a snapshot container: header, then every section as
/// `tag | u64 len | payload | digest(tag, len, payload)`.
pub fn write_snapshot<W: Write>(
    w: &mut W,
    sections: &[(SectionTag, Vec<u8>)],
) -> Result<(), PersistError> {
    let num_sections = u32::try_from(sections.len())
        .ok()
        .filter(|&n| n <= MAX_SECTIONS)
        .ok_or_else(|| corrupt("too many sections"))?;
    w.write_all(SNAPSHOT_MAGIC)?;
    put_u32(w, SNAPSHOT_VERSION)?;
    put_u32(w, num_sections)?;
    for (tag, payload) in sections {
        if payload.len() as u64 > MAX_SECTION_PAYLOAD {
            return Err(corrupt(format!("section {} too large", tag_name(tag))));
        }
        w.write_all(tag)?;
        put_u64(w, payload.len() as u64)?;
        w.write_all(payload)?;
        w.write_all(section_digest(tag, payload).as_bytes())?;
    }
    Ok(())
}

/// Encode a snapshot container into memory (the unit [`save_snapshot_file`]
/// writes atomically).
pub fn encode_snapshot(sections: &[(SectionTag, Vec<u8>)]) -> Result<Vec<u8>, PersistError> {
    let mut buf = Vec::new();
    write_snapshot(&mut buf, sections)?;
    Ok(buf)
}

/// Parse a snapshot container, verifying every section's digest trailer.
///
/// Every length field is attacker bytes: payloads are read through
/// `take` with a clamped pre-allocation, so a forged length meets EOF
/// (→ [`PersistError::Corrupt`]) instead of sizing an allocation, and a
/// flipped payload or trailer bit fails the digest comparison
/// (→ [`PersistError::SectionDigest`]).
pub fn read_snapshot<R: Read>(r: &mut R) -> Result<Vec<(SectionTag, Vec<u8>)>, PersistError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != SNAPSHOT_MAGIC {
        return Err(corrupt("bad snapshot magic"));
    }
    let version = get_u32(r)?;
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(format!("unsupported snapshot version {version}")));
    }
    let count = get_u32(r)?;
    if count > MAX_SECTIONS {
        return Err(corrupt("section count implausible"));
    }
    let mut sections = Vec::with_capacity(capped(count as usize));
    for _ in 0..count {
        let mut tag: SectionTag = [0u8; 4];
        r.read_exact(&mut tag)?;
        let len = get_u64(r)?;
        if len > MAX_SECTION_PAYLOAD {
            return Err(corrupt(format!(
                "section {} length implausible",
                tag_name(&tag)
            )));
        }
        let mut payload = Vec::with_capacity(capped(len as usize));
        let read = r.by_ref().take(len).read_to_end(&mut payload)?;
        if read as u64 != len {
            return Err(corrupt(format!("section {} truncated", tag_name(&tag))));
        }
        let mut trailer = [0u8; DIGEST_LEN];
        r.read_exact(&mut trailer)?;
        if trailer != section_digest(&tag, &payload).0 {
            return Err(PersistError::SectionDigest {
                section: tag_name(&tag),
            });
        }
        sections.push((tag, payload));
    }
    // The container is the whole stream: trailing bytes mean the
    // section count was tampered down (or the file was concatenated) —
    // refuse rather than silently ignore unverified bytes.
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(corrupt("trailing bytes after final section"));
    }
    Ok(sections)
}

/// A bounds-checked cursor over one section's verified payload —
/// the reader every section codec parses through. Counts are validated
/// against the bytes actually present ([`SectionReader::checked_count`])
/// before any allocation, mirroring `wire.rs`.
#[derive(Debug)]
pub struct SectionReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> SectionReader<'a> {
    /// Wrap a section payload; `section` names it in error messages.
    pub fn new(buf: &'a [u8], section: &'static str) -> SectionReader<'a> {
        SectionReader {
            buf,
            pos: 0,
            section,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn fail(&self, why: &str) -> PersistError {
        corrupt(format!("section {}: {why}", self.section))
    }

    /// Consume `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| self.fail("truncated"))?;
        let out = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| self.fail("truncated"))?;
        self.pos = end;
        Ok(out)
    }

    /// Consume exactly `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        let section = self.section;
        self.bytes(N)?
            .try_into()
            .map_err(|_| corrupt(format!("section {section}: truncated")))
    }

    /// Consume one `u8`.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// Consume one little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Consume one little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Validate a claimed element count against the bytes that could
    /// back it: each element occupies at least `per` bytes, so any
    /// `claimed > remaining / per` is a forgery — rejected before a
    /// single element (or byte of capacity) is allocated.
    pub fn checked_count(
        &self,
        claimed: u64,
        per: usize,
        what: &str,
    ) -> Result<usize, PersistError> {
        let max = self.remaining() / per.max(1);
        if claimed > max as u64 {
            return Err(self.fail(&format!(
                "{what} count {claimed} exceeds the {max} the remaining bytes could hold"
            )));
        }
        Ok(claimed as usize)
    }

    /// Assert the payload was consumed exactly (no trailing garbage).
    pub fn finish(self) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(self.fail("trailing bytes"));
        }
        Ok(())
    }
}

// ---- crash-safe file protocol ---------------------------------------------

/// What one committed snapshot looks like on disk (returned by
/// [`save_snapshot_file`], re-derived by [`load_snapshot_file`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Monotonic save counter (1 for the first snapshot at a path).
    pub generation: u64,
    /// Container size in bytes.
    pub bytes: u64,
    /// Digest of the full container file.
    pub digest: Digest,
}

/// Sidecar manifest path of a snapshot: `<path>.manifest`. Public so
/// callers (tests, ops tooling) can clean up or inspect the pair.
pub fn manifest_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".manifest");
    path.with_file_name(name)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Digest of the whole container file, as recorded in the manifest.
fn file_digest(bytes: &[u8]) -> Digest {
    Digest::hash_parts(&[b"authsearch:snapshot-file:v2|", bytes])
}

fn encode_manifest(info: &SnapshotInfo) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + 4 + 8 + 8 + 2 * DIGEST_LEN);
    buf.extend_from_slice(MANIFEST_MAGIC);
    // lint:allow(swallowed-result): writing into a Vec is infallible; put_* carry io::Result only for the File path
    let _ = put_u32(&mut buf, SNAPSHOT_VERSION);
    // lint:allow(swallowed-result): writing into a Vec is infallible; put_* carry io::Result only for the File path
    let _ = put_u64(&mut buf, info.generation);
    // lint:allow(swallowed-result): writing into a Vec is infallible; put_* carry io::Result only for the File path
    let _ = put_u64(&mut buf, info.bytes);
    buf.extend_from_slice(info.digest.as_bytes());
    // Self-check trailer: a torn manifest write must not be mistaken
    // for a description of any file.
    let self_digest = Digest::hash_parts(&[b"authsearch:manifest:v2|", &buf]);
    buf.extend_from_slice(self_digest.as_bytes());
    buf
}

fn decode_manifest(bytes: &[u8]) -> Option<SnapshotInfo> {
    let body_len = 4 + 4 + 8 + 8 + DIGEST_LEN;
    if bytes.len() != body_len + DIGEST_LEN {
        return None;
    }
    let (body, trailer) = bytes.split_at(body_len);
    if trailer != Digest::hash_parts(&[b"authsearch:manifest:v2|", body]).0 {
        return None;
    }
    if body.get(..4)? != MANIFEST_MAGIC.as_slice()
        || body.get(4..8)? != SNAPSHOT_VERSION.to_le_bytes().as_slice()
    {
        return None;
    }
    Some(SnapshotInfo {
        generation: u64::from_le_bytes(body.get(8..16)?.try_into().ok()?),
        bytes: u64::from_le_bytes(body.get(16..24)?.try_into().ok()?),
        digest: Digest::from_slice(body.get(24..24 + DIGEST_LEN)?)?,
    })
}

/// Read the sidecar manifest of `path`, if present and intact. A
/// missing, torn, or corrupt manifest is `None` — the manifest is an
/// integrity accelerator and generation record, never the only line of
/// defense (the container's section digests stand on their own).
pub fn read_manifest(path: &Path) -> Option<SnapshotInfo> {
    let bytes = std::fs::read(manifest_path(path)).ok()?;
    decode_manifest(&bytes)
}

/// Write `bytes` to a temp sibling of `path`, flush, fsync, then
/// atomically rename over `path` and fsync the directory — the POSIX
/// commit dance. A crash at any byte of the write leaves `path`
/// untouched (the previous snapshot, or nothing).
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.flush()?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable. Directory fsync is a Unix-ism;
    // where opening a directory fails the rename is still atomic, just
    // not yet guaranteed on stable storage — best effort by design.
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Ok(d) = File::open(dir) {
                // lint:allow(swallowed-result): directory fsync is best effort by design (see comment above)
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

/// Commit an encoded snapshot container to `path` crash-safely and
/// record it in the sidecar manifest (`<path>.manifest`).
///
/// Commit order: (1) container → `<path>.tmp`, flushed and fsynced;
/// (2) atomic rename onto `path` — the data commit point; (3) manifest
/// → `<path>.manifest.tmp` → rename. A torn write crashing in (1)
/// leaves the previous snapshot *and* its matching manifest; a crash
/// between (2) and (3) leaves a new, internally consistent container
/// with a stale manifest — which [`load_snapshot_file`] resolves by
/// falling back to the container's own section digests.
pub fn save_snapshot_file(path: &Path, bytes: &[u8]) -> Result<SnapshotInfo, PersistError> {
    let generation = read_manifest(path).map(|m| m.generation + 1).unwrap_or(1);
    let info = SnapshotInfo {
        generation,
        bytes: bytes.len() as u64,
        digest: file_digest(bytes),
    };
    write_atomic(path, bytes)?;
    write_atomic(&manifest_path(path), &encode_manifest(&info))?;
    Ok(info)
}

/// Load and verify a snapshot container from `path`.
///
/// When the manifest matches the file byte-for-byte, that whole-file
/// digest is the fast outer integrity check; when the manifest is
/// missing or disagrees (the legal crash window between data commit and
/// manifest commit), the container must prove itself through its own
/// per-section digest trailers. Either way every section returned has a
/// verified trailer, and any corruption is a typed [`PersistError`].
pub fn load_snapshot_file(path: &Path) -> Result<(Sections, SnapshotInfo), PersistError> {
    let bytes = std::fs::read(path)?;
    let digest = file_digest(&bytes);
    let manifest = read_manifest(path);
    let generation = match manifest {
        Some(m) if m.bytes == bytes.len() as u64 && m.digest == digest => m.generation,
        // Stale or absent manifest: the container stands on its own
        // section digests below; generation 0 marks "unrecorded".
        _ => 0,
    };
    let sections = read_snapshot(&mut io::Cursor::new(&bytes))?;
    Ok((
        sections,
        SnapshotInfo {
            generation,
            bytes: bytes.len() as u64,
            digest,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_index;
    use authsearch_corpus::SyntheticConfig;
    use std::io::Cursor;

    #[test]
    fn index_roundtrip() {
        let corpus = SyntheticConfig::tiny(80, 5).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let mut buf = Vec::new();
        write_index(&mut buf, &index).unwrap();
        let back = read_index(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back.num_docs(), index.num_docs());
        assert_eq!(back.num_terms(), index.num_terms());
        for t in 0..index.num_terms() as u32 {
            assert_eq!(back.list(t), index.list(t), "term {t}");
            assert_eq!(back.ft(t), index.ft(t));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_index(&mut Cursor::new(b"NOPE....".to_vec())).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)));
    }

    #[test]
    fn truncated_file_rejected() {
        let corpus = SyntheticConfig::tiny(30, 2).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let mut buf = Vec::new();
        write_index(&mut buf, &index).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_index(&mut Cursor::new(&buf)).is_err());
    }

    #[test]
    fn corrupted_ordering_rejected() {
        // Flip the weight bytes of the first entry of the first non-trivial
        // list so it is no longer frequency-ordered.
        let corpus = SyntheticConfig::tiny(50, 3).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let mut buf = Vec::new();
        write_index(&mut buf, &index).unwrap();
        // Header: 4 magic + 4 version + 8 k1 + 8 b + 8 n + 8 avg + 8 m = 48;
        // then first list: 4 len + entries. Zero the first weight.
        let off = 48 + 4 + 4;
        buf[off..off + 4].copy_from_slice(&0f32.to_bits().to_le_bytes());
        let res = read_index(&mut Cursor::new(&buf));
        assert!(matches!(res, Err(PersistError::Corrupt(_))));
    }

    // ---- forged-length regression (the index-record prealloc fix) --------

    #[test]
    fn forged_huge_term_count_does_not_allocate() {
        // An index header claiming 2^28 - 1 terms (the old cap) followed
        // by no data: the loader must fail fast on EOF instead of
        // reserving two quarter-billion-element vectors up front.
        let mut buf = Vec::new();
        buf.extend_from_slice(INDEX_MAGIC);
        put_u32(&mut buf, VERSION).unwrap();
        put_f64(&mut buf, 1.2).unwrap();
        put_f64(&mut buf, 0.75).unwrap();
        put_u64(&mut buf, 1000).unwrap(); // num_docs
        put_f64(&mut buf, 100.0).unwrap(); // avg
        put_u64(&mut buf, (1u64 << 28) - 1).unwrap(); // forged m
        let err = read_index(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(
            err,
            PersistError::Io(_) | PersistError::Corrupt(_)
        ));
    }

    // ---- v2 snapshot container -------------------------------------------

    fn sample_sections() -> Vec<(SectionTag, Vec<u8>)> {
        vec![
            (*b"AAAA", b"first payload".to_vec()),
            (*b"BBBB", Vec::new()),
            (*b"CCCC", vec![0xA5; 1000]),
        ]
    }

    #[test]
    fn snapshot_container_roundtrip() {
        let sections = sample_sections();
        let bytes = encode_snapshot(&sections).unwrap();
        let back = read_snapshot(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(back, sections);
    }

    #[test]
    fn snapshot_every_truncation_is_a_typed_error() {
        let bytes = encode_snapshot(&sample_sections()).unwrap();
        for cut in 0..bytes.len() {
            let err = read_snapshot(&mut Cursor::new(&bytes[..cut])).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::Io(_)
                        | PersistError::Corrupt(_)
                        | PersistError::SectionDigest { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn snapshot_every_bit_flip_is_caught() {
        let bytes = encode_snapshot(&sample_sections()).unwrap();
        // Flip one bit of every byte. Flips inside a payload or trailer
        // must fail the digest; flips in the header/framing must fail
        // structurally. Nothing may parse cleanly.
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 1 << (i % 8);
            assert!(
                read_snapshot(&mut Cursor::new(&evil)).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn snapshot_forged_section_length_fails_fast() {
        let sections = vec![(*b"HUGE", b"tiny".to_vec())];
        let mut bytes = encode_snapshot(&sections).unwrap();
        // Forge the section length (offset: 4 magic + 4 version +
        // 4 count + 4 tag = 16) to just under the cap.
        bytes[16..24].copy_from_slice(&(MAX_SECTION_PAYLOAD - 1).to_le_bytes());
        let err = read_snapshot(&mut Cursor::new(&bytes)).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        // Over the cap: rejected before any read.
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_snapshot(&mut Cursor::new(&bytes)).is_err());
    }

    #[test]
    fn section_reader_checked_count_rejects_forgeries() {
        let payload = [0u8; 64];
        let r = SectionReader::new(&payload, "test");
        assert_eq!(r.checked_count(8, 8, "roots").unwrap(), 8);
        assert!(r.checked_count(9, 8, "roots").is_err());
        assert!(r.checked_count(u64::MAX, 1, "bytes").is_err());
        // Zero-size elements cannot divide by zero.
        assert_eq!(r.checked_count(64, 0, "units").unwrap(), 64);
    }

    #[test]
    fn section_reader_rejects_trailing_garbage() {
        let payload = [1u8, 2, 3, 4, 5];
        let mut r = SectionReader::new(&payload, "test");
        assert_eq!(r.u32().unwrap(), u32::from_le_bytes([1, 2, 3, 4]));
        assert!(r.finish().is_err());
        let mut r = SectionReader::new(&payload[..4], "test");
        let _ = r.u32().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn atomic_save_and_manifest_roundtrip() {
        let dir = std::env::temp_dir().join("authsearch-persist-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.asnp");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(manifest_path(&path)).ok();

        let bytes = encode_snapshot(&sample_sections()).unwrap();
        let info1 = save_snapshot_file(&path, &bytes).unwrap();
        assert_eq!(info1.generation, 1);
        assert_eq!(info1.bytes, bytes.len() as u64);
        let (sections, info) = load_snapshot_file(&path).unwrap();
        assert_eq!(sections, sample_sections());
        assert_eq!(info, info1);

        // A second save bumps the generation.
        let info2 = save_snapshot_file(&path, &bytes).unwrap();
        assert_eq!(info2.generation, 2);

        // No temp litter after a clean commit.
        assert!(!tmp_path(&path).exists());

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(manifest_path(&path)).ok();
    }

    #[test]
    fn stale_manifest_falls_back_to_section_digests() {
        // Simulate a crash between the data commit and the manifest
        // commit: the file is a new, internally consistent container but
        // the manifest still describes the previous generation. The
        // loader must accept the container on its own digests.
        let dir = std::env::temp_dir().join("authsearch-persist-stale-manifest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.asnp");
        let old = encode_snapshot(&sample_sections()).unwrap();
        save_snapshot_file(&path, &old).unwrap();
        let new = encode_snapshot(&[(*b"NEWS", b"regenerated".to_vec())]).unwrap();
        std::fs::write(&path, &new).unwrap(); // data replaced, manifest not
        let (sections, info) = load_snapshot_file(&path).unwrap();
        assert_eq!(sections[0].0, *b"NEWS");
        assert_eq!(info.generation, 0, "unrecorded by the stale manifest");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(manifest_path(&path)).ok();
    }

    #[test]
    fn corrupt_manifest_is_ignored_not_fatal() {
        let dir = std::env::temp_dir().join("authsearch-persist-bad-manifest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.asnp");
        let bytes = encode_snapshot(&sample_sections()).unwrap();
        save_snapshot_file(&path, &bytes).unwrap();
        std::fs::write(manifest_path(&path), b"torn garbage").unwrap();
        assert!(read_manifest(&path).is_none());
        let (sections, _) = load_snapshot_file(&path).unwrap();
        assert_eq!(sections, sample_sections());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(manifest_path(&path)).ok();
    }
}
