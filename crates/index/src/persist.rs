//! Binary persistence for indexes — and the crash-safe, checksummed
//! **snapshot container** the authenticated artifact ships in.
//!
//! Hand-rolled little-endian format (no serde): the data owner in the
//! paper's system model *transfers* the index to the third-party search
//! engine, so it needs a durable wire form.
//!
//! Two layers live here:
//!
//! * the **index record** (`ASIX`) — a flat record with a magic +
//!   version header ([`write_index`]/[`read_index`]), carried as one
//!   section of the snapshot;
//! * the **v2 snapshot container** (`ASNP`): a sequence of
//!   length-framed sections, each closed by a digest trailer over its
//!   tag, length, and payload, written crash-safely (write-temp → flush
//!   → fsync → atomic rename, plus a sidecar manifest) by
//!   [`save_snapshot_file`]. Section payloads are opaque here; the
//!   authenticated-artifact codec on top lives in `authsearch-core`.
//!
//! Both, and the manifest, are written into a `Vec<u8>` and parsed from
//! bytes held whole through [`crate::codec`]. Everything read from disk
//! is **attacker bytes** (the engine is untrusted in the paper's model,
//! and bit rot is indistinguishable from tampering): corruption is a
//! typed [`PersistError`], never a panic or an attacker-sized
//! allocation.

use crate::codec::{self, capped, CodecError, Writer};
use crate::dictionary::InvertedIndex;
use crate::okapi::OkapiParams;
use crate::postings::{ImpactEntry, InvertedList};
use authsearch_crypto::{Digest, DIGEST_LEN};
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const INDEX_MAGIC: &[u8; 4] = b"ASIX";
const VERSION: u32 = 1;

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

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        corrupt(e.to_string())
    }
}

fn corrupt(why: impl Into<String>) -> PersistError {
    PersistError::Corrupt(why.into())
}

// ---- index --------------------------------------------------------------

/// Append the index record of `index` to `buf`.
pub fn write_index(buf: &mut Vec<u8>, index: &InvertedIndex) -> Result<(), PersistError> {
    let mut w = Writer(buf);
    w.bytes(INDEX_MAGIC);
    w.u32(VERSION);
    w.f64(index.params().k1());
    w.f64(index.params().b());
    w.u64(index.num_docs() as u64);
    w.f64(index.avg_doc_len());
    w.u64(index.num_terms() as u64);
    for t in 0..index.num_terms() as u32 {
        let list = index.list(t);
        w.len32(list.len(), "posting list")?;
        for e in list.entries() {
            w.bytes(&e.encode());
        }
    }
    Ok(())
}

/// Parse an index record; bytes past its last list are refused.
pub fn read_index(bytes: &[u8]) -> Result<InvertedIndex, PersistError> {
    codec::read_all(bytes, |r| {
        if r.bytes(4)? != INDEX_MAGIC {
            return Err(corrupt("bad index magic"));
        }
        if r.u32()? != VERSION {
            return Err(corrupt("unsupported index version"));
        }
        let params = OkapiParams::new(r.f64()?, r.f64()?)
            .ok_or_else(|| corrupt("Okapi parameters outside k1 ≥ 0, 0 ≤ b ≤ 1"))?;
        let num_docs = r.u64()? as usize;
        let avg = r.f64()?;
        // Every term carries at least its 4-byte list length.
        let claimed = r.u64()?;
        let m = r.checked_count(claimed, 4, "term")?;
        let mut ft = Vec::with_capacity(capped(m));
        let mut lists = Vec::with_capacity(capped(m));
        for t in 0..m {
            let len32 = r.u32()?;
            if len32 as usize > num_docs {
                return Err(corrupt("list longer than collection"));
            }
            let entries = r.list(len32.into(), 8, "posting", |r| {
                let entry = ImpactEntry::decode(&r.array()?);
                if entry.doc as usize >= num_docs {
                    return Err(corrupt(format!(
                        "term {t}: document {} outside the collection of {num_docs}",
                        entry.doc
                    )));
                }
                Ok(entry)
            })?;
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
        InvertedIndex::from_parts(params, num_docs, avg, ft, lists)
            .map_err(|e| corrupt(e.to_string()))
    })
}

// ---- v2 snapshot container ------------------------------------------------

/// Magic of the v2 snapshot container.
pub(crate) const SNAPSHOT_MAGIC: &[u8; 4] = b"ASNP";
/// Magic of the sidecar manifest file.
pub(crate) const MANIFEST_MAGIC: &[u8; 4] = b"ASMF";
/// Container version of the section-framed, digest-trailed layout.
pub(crate) const SNAPSHOT_VERSION: u32 = 2;
/// Largest section payload a reader accepts (2 GiB covers WSJ-scale
/// artifacts with room to spare; anything bigger is a forged length).
pub(crate) const MAX_SECTION_PAYLOAD: u64 = 1 << 31;
/// Largest section count a reader accepts.
pub(crate) const MAX_SECTIONS: u32 = 64;

/// Four-byte section tag (printable ASCII by convention).
pub type SectionTag = [u8; 4];

/// A parsed container body: every section's tag and payload, in file
/// order, each with a verified digest trailer.
pub(crate) type Sections = Vec<(SectionTag, Vec<u8>)>;

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

/// Encode a snapshot container: header, then every section as
/// `tag | u64 len | payload | digest(tag, len, payload)`. The unit
/// [`save_snapshot_file`] writes atomically.
pub fn encode_snapshot(sections: &[(SectionTag, Vec<u8>)]) -> Result<Vec<u8>, PersistError> {
    let num_sections = u32::try_from(sections.len())
        .ok()
        .filter(|&n| n <= MAX_SECTIONS)
        .ok_or_else(|| corrupt("too many sections"))?;
    let mut buf = Vec::new();
    let mut w = Writer(&mut buf);
    w.bytes(SNAPSHOT_MAGIC);
    w.u32(SNAPSHOT_VERSION);
    w.u32(num_sections);
    for (tag, payload) in sections {
        if payload.len() as u64 > MAX_SECTION_PAYLOAD {
            return Err(corrupt(format!("section {} too large", tag_name(tag))));
        }
        w.bytes(tag);
        w.u64(payload.len() as u64);
        w.bytes(payload);
        w.bytes(section_digest(tag, payload).as_bytes());
    }
    Ok(buf)
}

/// Parse a snapshot container, verifying every section's digest trailer.
///
/// Every length field is attacker bytes: a forged length runs past the
/// end (→ [`PersistError::Corrupt`]) before anything is copied, and a
/// flipped payload or trailer bit fails the digest comparison
/// (→ [`PersistError::SectionDigest`]).
pub fn read_snapshot(bytes: &[u8]) -> Result<Sections, PersistError> {
    // The container is the whole file: trailing bytes mean the section
    // count was tampered down (or the file was concatenated) — refused
    // rather than silently ignored.
    codec::read_all(bytes, |r| {
        if r.bytes(4)? != SNAPSHOT_MAGIC {
            return Err(corrupt("bad snapshot magic"));
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(corrupt(format!("unsupported snapshot version {version}")));
        }
        let count = r.u32()?;
        if count > MAX_SECTIONS {
            return Err(corrupt("section count implausible"));
        }
        let mut sections = Vec::with_capacity(capped(count as usize));
        for _ in 0..count {
            let tag: SectionTag = r.array()?;
            let len = r.u64()?;
            if len > MAX_SECTION_PAYLOAD {
                return Err(corrupt(format!(
                    "section {} length implausible",
                    tag_name(&tag)
                )));
            }
            let payload = r
                .bytes(len as usize)
                .map_err(|_| corrupt(format!("section {} truncated", tag_name(&tag))))?;
            if r.array::<DIGEST_LEN>()? != section_digest(&tag, payload).0 {
                return Err(PersistError::SectionDigest {
                    section: tag_name(&tag),
                });
            }
            sections.push((tag, payload.to_vec()));
        }
        Ok(sections)
    })
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

/// Bytes of a manifest before its self-check trailer.
const MANIFEST_BODY_LEN: usize = 4 + 4 + 8 + 8 + DIGEST_LEN;

fn manifest_digest(body: &[u8]) -> Digest {
    Digest::hash_parts(&[b"authsearch:manifest:v2|", body])
}

fn encode_manifest(info: &SnapshotInfo) -> Vec<u8> {
    let mut buf = Vec::with_capacity(MANIFEST_BODY_LEN + DIGEST_LEN);
    let mut w = Writer(&mut buf);
    w.bytes(MANIFEST_MAGIC);
    w.u32(SNAPSHOT_VERSION);
    w.u64(info.generation);
    w.u64(info.bytes);
    w.bytes(info.digest.as_bytes());
    // Self-check trailer: a torn manifest write must not be mistaken
    // for a description of any file.
    let self_digest = manifest_digest(&buf);
    buf.extend_from_slice(self_digest.as_bytes());
    buf
}

fn decode_manifest(bytes: &[u8]) -> Option<SnapshotInfo> {
    let (body, trailer) = bytes.split_at_checked(MANIFEST_BODY_LEN)?;
    let (magic, version, generation, bytes, digest) = codec::read_all(body, |r| {
        Ok::<_, CodecError>((r.array::<4>()?, r.u32()?, r.u64()?, r.u64()?, r.digest()?))
    })
    .ok()?;
    let intact = trailer == manifest_digest(body).as_bytes();
    (intact && magic == *MANIFEST_MAGIC && version == SNAPSHOT_VERSION).then_some(SnapshotInfo {
        generation,
        bytes,
        digest,
    })
}

/// Read the sidecar manifest of `path`, if present and intact. A
/// missing, torn, or corrupt manifest is `None` — the manifest is an
/// integrity accelerator and generation record, never the only line of
/// defense (the container's section digests stand on their own).
pub(crate) fn read_manifest(path: &Path) -> Option<SnapshotInfo> {
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
    let sections = read_snapshot(&bytes)?;
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

    #[test]
    fn index_roundtrip() {
        let corpus = SyntheticConfig::tiny(80, 5).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let mut buf = Vec::new();
        write_index(&mut buf, &index).unwrap();
        let back = read_index(&buf).unwrap();
        assert_eq!(back.num_docs(), index.num_docs());
        assert_eq!(back.num_terms(), index.num_terms());
        for t in 0..index.num_terms() as u32 {
            assert_eq!(back.list(t), index.list(t), "term {t}");
            assert_eq!(back.ft(t), index.ft(t));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_index(b"NOPE....").unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)));
    }

    #[test]
    fn truncated_file_rejected() {
        let corpus = SyntheticConfig::tiny(30, 2).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let mut buf = Vec::new();
        write_index(&mut buf, &index).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_index(&buf).is_err());
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
        let res = read_index(&buf);
        assert!(matches!(res, Err(PersistError::Corrupt(_))));
    }

    // ---- forged-length regression (the index-record prealloc fix) --------

    /// An index header over `num_docs` documents claiming `m` terms.
    fn index_header(params: OkapiParams, num_docs: u64, m: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = Writer(&mut buf);
        w.bytes(INDEX_MAGIC);
        w.u32(VERSION);
        w.f64(params.k1());
        w.f64(params.b());
        w.u64(num_docs);
        w.f64(100.0); // avg
        w.u64(m);
        buf
    }

    #[test]
    fn forged_huge_term_count_does_not_allocate() {
        // An index header claiming 2^28 - 1 terms followed by no data:
        // the count is refused against the bytes behind it before either
        // per-term vector is reserved.
        let buf = index_header(OkapiParams::default(), 1000, (1 << 28) - 1);
        let err = read_index(&buf).unwrap_err();
        assert!(matches!(
            err,
            PersistError::Io(_) | PersistError::Corrupt(_)
        ));
    }

    #[test]
    fn out_of_range_okapi_parameters_are_refused() {
        // The stored parameters are checked as `OkapiParams::new` checks
        // them: k1 = -3 (which gives negative and NaN weights) is
        // corrupt, as is b outside [0, 1] or a non-finite value.
        let honest = OkapiParams::default();
        let mut good = index_header(honest, 4, 1);
        good.extend_from_slice(&0u32.to_le_bytes()); // one empty list
        assert!(read_index(&good).is_ok());
        for (k1, b) in [
            (-3.0, 0.0),
            (1.2, 1.5),
            (1.2, -0.25),
            (f64::NAN, 0.75),
            (f64::INFINITY, 0.5),
        ] {
            let mut bytes = good.clone();
            bytes[8..16].copy_from_slice(&k1.to_bits().to_le_bytes());
            bytes[16..24].copy_from_slice(&f64::to_bits(b).to_le_bytes());
            match read_index(&bytes) {
                Err(PersistError::Corrupt(why)) => assert!(why.contains("Okapi"), "{why}"),
                other => panic!("k1 = {k1}, b = {b}: {:?}", other.map(|i| i.params())),
            }
        }
    }

    #[test]
    fn every_cut_of_an_index_record_is_a_typed_error() {
        let corpus = SyntheticConfig::tiny(30, 2).generate();
        let mut buf = Vec::new();
        write_index(&mut buf, &build_index(&corpus, OkapiParams::default())).unwrap();
        for cut in 0..buf.len() {
            assert!(
                matches!(read_index(&buf[..cut]), Err(PersistError::Corrupt(_))),
                "cut at {cut}"
            );
        }
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
        let back = read_snapshot(&bytes).unwrap();
        assert_eq!(back, sections);
    }

    #[test]
    fn snapshot_every_truncation_is_a_typed_error() {
        let bytes = encode_snapshot(&sample_sections()).unwrap();
        for cut in 0..bytes.len() {
            let err = read_snapshot(&bytes[..cut]).unwrap_err();
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
                read_snapshot(&evil).is_err(),
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
        let err = read_snapshot(&bytes).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        // Over the cap: rejected before any read.
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_snapshot(&bytes).is_err());
    }

    #[test]
    fn section_reader_checked_count_rejects_forgeries() {
        // A posting count larger than the bytes behind it is refused by
        // name before the list is reserved.
        let mut buf = index_header(OkapiParams::default(), 1 << 20, 1);
        buf.extend_from_slice(&1000u32.to_le_bytes());
        buf.extend_from_slice(&[0; 16]);
        match read_index(&buf) {
            Err(PersistError::Corrupt(why)) => assert_eq!(
                why,
                "posting count 1000 exceeds what the remaining 16 bytes can hold"
            ),
            other => panic!("{:?}", other.map(|i| i.num_terms())),
        }
    }

    #[test]
    fn section_reader_rejects_trailing_garbage() {
        // An index record is its whole section: a byte past its last
        // list is refused.
        let mut buf = index_header(OkapiParams::default(), 4, 1);
        buf.extend_from_slice(&0u32.to_le_bytes());
        read_index(&buf).unwrap();
        buf.push(0);
        match read_index(&buf) {
            Err(PersistError::Corrupt(why)) => assert_eq!(why, "trailing bytes"),
            other => panic!("{:?}", other.map(|i| i.num_terms())),
        }
    }

    #[test]
    fn every_cut_of_a_manifest_is_ignored() {
        let info = SnapshotInfo {
            generation: 3,
            bytes: 845,
            digest: Digest::hash(b"container"),
        };
        let bytes = encode_manifest(&info);
        assert_eq!(decode_manifest(&bytes), Some(info));
        for cut in 0..bytes.len() {
            assert_eq!(decode_manifest(&bytes[..cut]), None, "cut at {cut}");
        }
        let mut long = bytes;
        long.push(0);
        assert_eq!(decode_manifest(&long), None);
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
