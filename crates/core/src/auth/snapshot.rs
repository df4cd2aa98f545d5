//! Crash-safe authenticated snapshots: persist the *entire* owner
//! artifact ([`AuthenticatedIndex`]) and boot it back trust-but-verify.
//!
//! The paper's owner transfers the collection and index to the
//! untrusted engine once; rebuilding the artifact on every server start
//! re-pays the owner's dominant preprocessing cost (one RSA signature
//! per term, plus the document-table signature for TRA) for nothing. A
//! snapshot reloads with parsing, hashing and signature *verification*
//! only — no signing.
//!
//! ## Container layout
//!
//! One [`authsearch_index::persist`] v2 container (`ASNP` magic,
//! version 2) holding three digest-trailed sections, in order:
//!
//! | tag    | payload |
//! |--------|---------|
//! | `ACFG` | artifact identity: mechanism, buddy, dict-MHT mode, key bits, block layout |
//! | `ASIX` | the inverted index (the v1 `ASIX` record, re-framed as a checksummed section) |
//! | `ASA2` | the authentication artifact: term roots, term/dictionary signatures, document content digests and document-MHT roots, the document-table signature, the owner's public key |
//!
//! The authentication section's tag carries its layout version: `ASA2`
//! replaced `ASAU`, whose TRA artifacts held one signature per
//! document. A snapshot with the old section is [`PersistError::Stale`]
//! and boots through a fresh build.
//!
//! ## Trust model at boot
//!
//! The file is **attacker bytes** (the engine host is untrusted and bit
//! rot is indistinguishable from tampering), so loading is layered:
//!
//! 1. structural parse under the container's length framing, per-section
//!    digest trailers, and clamped pre-allocations — random corruption
//!    (every fault the [`authsearch_index::faults`] harness injects)
//!    dies here as a typed [`PersistError`];
//! 2. identity check of `ACFG` against the caller's expected
//!    [`AuthConfig`] — a snapshot of a *different* artifact is
//!    [`PersistError::Stale`], not silently served;
//! 3. **signature verification** against the embedded public key:
//!    the dictionary-MHT signature over the root recomputed from the
//!    loaded term roots (dictionary mode), or every per-term signature
//!    otherwise (fanned out through [`crate::pool::map`]); for TRA, the
//!    document-table signature over the table rebuilt from every
//!    document's content digest and root — all `n` documents. Then every
//!    term root and every document-MHT root is recomputed from the
//!    loaded index, folded through [`crate::pool::map`] at the
//!    configured width, and must equal the signed one. That fold also rebuilds the structures
//!    the engine proves from, so checking all `m` term roots and `n`
//!    document roots costs no hashing beyond what serving needs anyway.
//!
//! A forgery that survives all three (consistent digests *and* valid
//! signatures over altered data) would require breaking the owner's
//! RSA key — and even then, the per-query VO verification at the client
//! remains: a VO built from tampered structures cannot verify, so no
//! wrong answer is ever *accepted*, only detected later than boot.

use super::{
    cache, dict_leaf_digest, dict_message, doc_mhts, doc_table_message, doc_table_tree,
    term_message, term_structures, AuthConfig, AuthenticatedIndex,
};
use crate::pool::{self, ThreadPool};
use crate::types::DocTable;
use crate::vo::Mechanism;
use authsearch_corpus::TermId;
use authsearch_crypto::{Digest, MerkleTree, RsaPublicKey, DIGEST_LEN};
use authsearch_index::persist::{
    self, put_str, put_u32, put_u64, PersistError, SectionReader, SectionTag,
};
use authsearch_index::SnapshotInfo;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;

/// Section tags of the authenticated snapshot, in file order.
pub const TAG_CONFIG: SectionTag = *b"ACFG";
/// The inverted-index section (the v1 `ASIX` record as a section).
pub const TAG_INDEX: SectionTag = *b"ASIX";
/// The authentication-artifact section (layout 2: one document-table
/// signature).
pub const TAG_AUTH: SectionTag = *b"ASA2";
/// The layout-1 authentication section (one signature per document).
const TAG_AUTH_V1: SectionTag = *b"ASAU";

fn corrupt(why: impl Into<String>) -> PersistError {
    PersistError::Corrupt(why.into())
}

fn stale(why: impl Into<String>) -> PersistError {
    PersistError::Stale(why.into())
}

fn mechanism_code(m: Mechanism) -> u8 {
    // Must stay in step with `Mechanism::ALL` — `mechanism_from_code`
    // is the inverse, and the round-trip is asserted in tests.
    match m {
        Mechanism::TraMht => 0,
        Mechanism::TraCmht => 1,
        Mechanism::TnraMht => 2,
        Mechanism::TnraCmht => 3,
    }
}

fn mechanism_from_code(code: u8) -> Option<Mechanism> {
    Mechanism::ALL.get(code as usize).copied()
}

// ---- section codecs -------------------------------------------------------

fn encode_config(config: &AuthConfig) -> Vec<u8> {
    let mut buf = Vec::with_capacity(3 + 4 * 8);
    buf.push(mechanism_code(config.mechanism));
    buf.push(u8::from(config.buddy));
    buf.push(u8::from(config.dict_mht));
    let _ = put_u64(&mut buf, config.key_bits as u64);
    let _ = put_u64(&mut buf, config.layout.block_bytes as u64);
    let _ = put_u64(&mut buf, config.layout.addr_bytes as u64);
    let _ = put_u64(&mut buf, config.layout.digest_bytes as u64);
    buf
}

/// Check the artifact identity the snapshot declares against what the
/// caller expects. The thread count is deliberately *not* part of
/// identity — it is the caller's to choose at boot.
fn check_config(payload: &[u8], expected: &AuthConfig) -> Result<(), PersistError> {
    let mut r = SectionReader::new(payload, "ACFG");
    let mechanism =
        mechanism_from_code(r.u8()?).ok_or_else(|| corrupt("ACFG: unknown mechanism code"))?;
    let buddy = r.u8()? != 0;
    let dict_mht = r.u8()? != 0;
    let key_bits = r.u64()? as usize;
    let block_bytes = r.u64()? as usize;
    let addr_bytes = r.u64()? as usize;
    let digest_bytes = r.u64()? as usize;
    r.finish()?;
    let same = mechanism == expected.mechanism
        && buddy == expected.buddy
        && dict_mht == expected.dict_mht
        && key_bits == expected.key_bits
        && block_bytes == expected.layout.block_bytes
        && addr_bytes == expected.layout.addr_bytes
        && digest_bytes == expected.layout.digest_bytes;
    if !same {
        return Err(stale(format!(
            "snapshot artifact is {mechanism:?} (buddy={buddy}, dict_mht={dict_mht}, \
             key_bits={key_bits}), expected {:?} (buddy={}, dict_mht={}, key_bits={})",
            expected.mechanism, expected.buddy, expected.dict_mht, expected.key_bits
        )));
    }
    Ok(())
}

fn put_sig(buf: &mut Vec<u8>, sig: &[u8]) -> Result<(), PersistError> {
    let len = u32::try_from(sig.len()).map_err(|_| corrupt("signature length exceeds u32"))?;
    let _ = put_u32(buf, len);
    buf.extend_from_slice(sig);
    Ok(())
}

fn get_sig<'a>(r: &mut SectionReader<'a>, what: &str) -> Result<&'a [u8], PersistError> {
    let len = r.u32()? as usize;
    if len == 0 || len > r.remaining() {
        return Err(corrupt(format!("ASA2: {what} signature length forged")));
    }
    r.bytes(len)
}

fn encode_auth(auth: &AuthenticatedIndex) -> Result<Vec<u8>, PersistError> {
    let mut buf = Vec::new();
    let _ = put_u64(&mut buf, auth.term_roots.len() as u64);
    for root in &auth.term_roots {
        buf.extend_from_slice(root.as_bytes());
    }
    let _ = put_u64(&mut buf, auth.term_sigs.len() as u64);
    for sig in &auth.term_sigs {
        put_sig(&mut buf, sig)?;
    }
    match &auth.dict_sig {
        Some(sig) => {
            buf.push(1);
            put_sig(&mut buf, sig)?;
        }
        None => buf.push(0),
    }
    for digests in [&auth.doc_content_digests, &auth.doc_roots] {
        let _ = put_u64(&mut buf, digests.len() as u64);
        for d in digests {
            buf.extend_from_slice(d.as_bytes());
        }
    }
    match &auth.doc_table_sig {
        Some(sig) => {
            buf.push(1);
            put_sig(&mut buf, sig)?;
        }
        None => buf.push(0),
    }
    let _ = put_str(&mut buf, "").map_err(PersistError::Io); // reserved (future key metadata)
    let key = auth.public_key.to_bytes();
    let key_len = u32::try_from(key.len()).map_err(|_| corrupt("public key length exceeds u32"))?;
    let _ = put_u32(&mut buf, key_len);
    buf.extend_from_slice(&key);
    Ok(buf)
}

struct AuthParts {
    term_roots: Vec<Digest>,
    term_sigs: Vec<Vec<u8>>,
    dict_sig: Option<Vec<u8>>,
    doc_content_digests: Vec<Digest>,
    doc_roots: Vec<Digest>,
    doc_table_sig: Option<Vec<u8>>,
    public_key: RsaPublicKey,
}

/// Read a `u64`-counted run of digests.
fn get_digests(r: &mut SectionReader<'_>, what: &str) -> Result<Vec<Digest>, PersistError> {
    let claimed = r.u64()?;
    let n = r.checked_count(claimed, DIGEST_LEN, what)?;
    let mut out = Vec::with_capacity(n.min(persist::PREALLOC_CLAMP));
    for _ in 0..n {
        out.push(
            Digest::from_slice(r.bytes(DIGEST_LEN)?)
                .ok_or_else(|| corrupt(format!("ASA2: malformed {what}")))?,
        );
    }
    Ok(out)
}

/// Read a flag-prefixed optional signature.
fn get_opt_sig(r: &mut SectionReader<'_>, what: &str) -> Result<Option<Vec<u8>>, PersistError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_sig(r, what)?.to_vec())),
        _ => Err(corrupt(format!("ASA2: bad {what}-signature flag"))),
    }
}

fn decode_auth(payload: &[u8]) -> Result<AuthParts, PersistError> {
    let mut r = SectionReader::new(payload, "ASA2");

    let term_roots = get_digests(&mut r, "term root")?;

    let claimed = r.u64()?;
    let sig_count = r.checked_count(claimed, 4, "term signature")?;
    let mut term_sigs = Vec::with_capacity(sig_count.min(persist::PREALLOC_CLAMP));
    for _ in 0..sig_count {
        term_sigs.push(get_sig(&mut r, "term")?.to_vec());
    }

    let dict_sig = get_opt_sig(&mut r, "dictionary")?;
    let doc_content_digests = get_digests(&mut r, "doc content digest")?;
    let doc_roots = get_digests(&mut r, "doc root")?;
    let doc_table_sig = get_opt_sig(&mut r, "document-table")?;

    let reserved = r.u32()? as usize;
    if reserved != 0 {
        // Skip forward-compatible metadata written by a newer minor
        // revision; its bytes are still digest-protected.
        let _ = r.bytes(reserved)?;
    }
    let key_len = r.u32()? as usize;
    if key_len == 0 || key_len > r.remaining() {
        return Err(corrupt("ASA2: public-key length forged"));
    }
    let public_key = RsaPublicKey::from_bytes(r.bytes(key_len)?)
        .ok_or_else(|| corrupt("ASA2: public key fails to parse"))?;
    r.finish()?;

    Ok(AuthParts {
        term_roots,
        term_sigs,
        dict_sig,
        doc_content_digests,
        doc_roots,
        doc_table_sig,
        public_key,
    })
}

// ---- save / load ----------------------------------------------------------

impl AuthenticatedIndex {
    /// Persist the whole artifact to `path` crash-safely: encode the
    /// three-section container, then commit it through the
    /// write-temp → flush → fsync → atomic-rename (+ manifest) protocol
    /// of [`persist::save_snapshot_file`]. A crash at any byte leaves
    /// the previous snapshot (or its absence) loadable.
    pub fn save_snapshot(&self, path: &Path) -> Result<SnapshotInfo, PersistError> {
        let mut index_payload = Vec::new();
        persist::write_index(&mut index_payload, &self.index)?;
        let sections = vec![
            (TAG_CONFIG, encode_config(&self.config)),
            (TAG_INDEX, index_payload),
            (TAG_AUTH, encode_auth(self)?),
        ];
        let bytes = persist::encode_snapshot(&sections)?;
        persist::save_snapshot_file(path, &bytes)
    }

    /// Reload an artifact saved by [`AuthenticatedIndex::save_snapshot`],
    /// verifying it end to end before it can serve a single query — see
    /// the [module docs](self) for the three verification layers.
    /// `expected` supplies both the identity the snapshot must match
    /// (mechanism, buddy, dictionary mode, key bits, layout) and the
    /// thread count the reloaded engine should run with.
    pub fn load_snapshot(
        path: &Path,
        expected: &AuthConfig,
    ) -> Result<AuthenticatedIndex, PersistError> {
        let (sections, _info) = persist::load_snapshot_file(path)?;
        let [config_s, index_s, auth_s] = match sections.as_slice() {
            [a, b, c] => [a, b, c],
            other => {
                return Err(corrupt(format!(
                    "expected 3 sections, found {}",
                    other.len()
                )))
            }
        };
        if auth_s.0 == TAG_AUTH_V1 {
            return Err(stale(
                "snapshot holds one signature per document (section ASAU); \
                 this build signs the document table once (ASA2)",
            ));
        }
        for ((tag, _), want) in [config_s, index_s, auth_s]
            .iter()
            .zip([TAG_CONFIG, TAG_INDEX, TAG_AUTH])
        {
            if *tag != want {
                return Err(corrupt(format!(
                    "section order: found {:?}, want {:?}",
                    String::from_utf8_lossy(tag),
                    String::from_utf8_lossy(&want)
                )));
            }
        }

        check_config(&config_s.1, expected)?;
        let index = persist::read_index(&mut Cursor::new(&index_s.1))?;
        let parts = decode_auth(&auth_s.1)?;

        // Cross-checks: the sections must describe one coherent artifact.
        let m = index.num_terms();
        let n = index.num_docs();
        if parts.term_roots.len() != m {
            return Err(corrupt(format!(
                "{} term roots for {m} terms",
                parts.term_roots.len()
            )));
        }
        if let Some(t) = (0..m as TermId).find(|&t| index.list(t).is_empty()) {
            return Err(corrupt(format!("term {t}: empty inverted list")));
        }
        if expected.dict_mht {
            if parts.dict_sig.is_none() || !parts.term_sigs.is_empty() {
                return Err(corrupt(
                    "dictionary mode needs a dict signature and no term sigs",
                ));
            }
        } else if parts.term_sigs.len() != m || parts.dict_sig.is_some() {
            return Err(corrupt(format!(
                "{} term signatures for {m} terms",
                parts.term_sigs.len()
            )));
        }
        if expected.mechanism.is_tra() {
            if n == 0
                || parts.doc_content_digests.len() != n
                || parts.doc_roots.len() != n
                || parts.doc_table_sig.is_none()
            {
                return Err(corrupt(format!(
                    "{} doc digests / {} doc roots / {} table signature for {n} documents",
                    parts.doc_content_digests.len(),
                    parts.doc_roots.len(),
                    if parts.doc_table_sig.is_some() {
                        "a"
                    } else {
                        "no"
                    }
                )));
            }
        } else if !parts.doc_content_digests.is_empty()
            || !parts.doc_roots.is_empty()
            || parts.doc_table_sig.is_some()
        {
            return Err(corrupt("TNRA snapshot carries document structures"));
        }
        if parts.public_key.modulus_bits() != expected.key_bits {
            return Err(stale(format!(
                "snapshot key is {} bits, expected {}",
                parts.public_key.modulus_bits(),
                expected.key_bits
            )));
        }

        // Boot-time signature verification: prove the loaded roots carry
        // the owner's endorsement before serving anything.
        let threads = expected.build_threads();
        let doc_table = DocTable::from_index(&index);
        let mut dict_tree = None;
        if expected.dict_mht {
            let leaves: Vec<Digest> = parts
                .term_roots
                .iter()
                .enumerate()
                .map(|(t, root)| dict_leaf_digest(t as TermId, index.ft(t as TermId), root))
                .collect();
            let tree = MerkleTree::from_leaf_digests(leaves);
            let msg = dict_message(m as u32, &tree.root());
            let Some(dict_sig) = parts.dict_sig.as_deref() else {
                return Err(corrupt("dictionary mode without a dictionary signature"));
            };
            parts
                .public_key
                .verify(&msg, dict_sig)
                .map_err(|e| corrupt(format!("dictionary signature rejected at boot: {e}")))?;
            dict_tree = Some(tree);
        } else {
            // Every term signature, fanned out like the build's signing;
            // the lowest rejected term is the one reported.
            let verdicts = pool::map(threads, m, |t| {
                let (root, sig) = parts
                    .term_roots
                    .get(t)
                    .zip(parts.term_sigs.get(t))
                    .ok_or_else(|| corrupt(format!("term {t} out of range")))?;
                let msg = term_message(t as TermId, index.ft(t as TermId), root);
                parts
                    .public_key
                    .verify(&msg, sig)
                    .map_err(|e| corrupt(format!("term {t} signature rejected at boot: {e}")))
            });
            verdicts.into_iter().collect::<Result<(), _>>()?;
        }
        // Refold every term: each recomputed root must be the signed one,
        // which ties every loaded list to the owner's signatures.
        let (roots, terms) = term_structures(threads, expected, &index);
        if let Some(t) = roots
            .iter()
            .zip(&parts.term_roots)
            .position(|(a, b)| a != b)
        {
            return Err(corrupt(format!(
                "term {t}: index disagrees with its signed root"
            )));
        }
        let (doc_tree, doc_levels) = if expected.mechanism.is_tra() {
            // One signature covers every document's content digest and
            // root; refolding every document then ties each root to the
            // loaded index.
            let tree = doc_table_tree(&parts.doc_content_digests, &parts.doc_roots);
            let num_docs = u32::try_from(n).map_err(|_| corrupt("document count exceeds u32"))?;
            let sig = parts.doc_table_sig.as_deref().unwrap_or_default();
            parts
                .public_key
                .verify(&doc_table_message(num_docs, &tree.root()), sig)
                .map_err(|e| corrupt(format!("document-table signature rejected at boot: {e}")))?;
            let (roots, levels) = doc_mhts(threads, &doc_table);
            if let Some(d) = roots.iter().zip(&parts.doc_roots).position(|(a, b)| a != b) {
                return Err(corrupt(format!(
                    "doc {d}: index disagrees with its signed root"
                )));
            }
            (Some(tree), levels)
        } else {
            (None, Vec::new())
        };

        Ok(AuthenticatedIndex {
            config: *expected,
            index,
            doc_table,
            term_roots: parts.term_roots,
            term_sigs: parts.term_sigs,
            dict_sig: parts.dict_sig,
            doc_content_digests: parts.doc_content_digests,
            doc_roots: parts.doc_roots,
            doc_tree,
            doc_table_sig: parts.doc_table_sig,
            public_key: parts.public_key,
            cache: cache::ServeCache::new(dict_tree, terms, doc_levels),
            serve_pool: Arc::new(ThreadPool::new(threads)),
        })
    }
}

// ---- boot decision tree ---------------------------------------------------

/// Where a booted engine's artifact came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootSource {
    /// Loaded and verified from the snapshot file — no rebuild.
    Snapshot,
    /// Rebuilt from scratch (snapshot missing, stale, or corrupt — see
    /// [`BootReport::reason`]).
    FreshBuild,
}

/// What [`boot_authenticated_index`] did and why.
#[derive(Debug, Clone)]
pub struct BootReport {
    /// Snapshot or fresh build.
    pub source: BootSource,
    /// Why the snapshot path was not used (`None` on the happy path).
    pub reason: Option<String>,
    /// After a fresh build with a snapshot path configured: whether the
    /// rebuilt artifact was saved back so the *next* boot is fast.
    pub healed: bool,
}

/// The boot decision tree: try the snapshot, fall back to building.
///
/// * no `path` → build (reason: unconfigured);
/// * snapshot loads and verifies against `expected` → serve it;
/// * snapshot missing / stale / corrupt → `fallback()` builds fresh,
///   and the fresh artifact is written back to `path` (best effort) so
///   the failure is healed for the next boot.
///
/// Never panics on snapshot trouble: every failure mode lands in
/// `fallback` with the typed error preserved in [`BootReport::reason`].
pub fn boot_authenticated_index<F>(
    path: Option<&Path>,
    expected: &AuthConfig,
    fallback: F,
) -> (AuthenticatedIndex, BootReport)
where
    F: FnOnce() -> AuthenticatedIndex,
{
    let Some(path) = path else {
        let auth = fallback();
        return (
            auth,
            BootReport {
                source: BootSource::FreshBuild,
                reason: Some("no snapshot path configured".into()),
                healed: false,
            },
        );
    };
    match AuthenticatedIndex::load_snapshot(path, expected) {
        Ok(auth) => (
            auth,
            BootReport {
                source: BootSource::Snapshot,
                reason: None,
                healed: false,
            },
        ),
        Err(e) => {
            let auth = fallback();
            let healed = auth.save_snapshot(path).is_ok();
            (
                auth,
                BootReport {
                    source: BootSource::FreshBuild,
                    reason: Some(e.to_string()),
                    healed,
                },
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::tests_support::test_auth;
    use crate::toy::{toy_contents, toy_index, toy_query};
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};
    use authsearch_index::ImpactEntry;
    use std::fs;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("authsearch-auth-snapshot");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn dict_auth() -> AuthenticatedIndex {
        let key = cached_keypair(TEST_KEY_BITS);
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            dict_mht: true,
            ..AuthConfig::new(Mechanism::TnraCmht)
        };
        AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents())
    }

    #[test]
    fn mechanism_code_round_trips_for_every_mechanism() {
        // `mechanism_code` is a hand-written match while
        // `mechanism_from_code` indexes `Mechanism::ALL`; if the two ever
        // drift, a snapshot saved under one mechanism would boot as
        // another. Assert the full round-trip in both directions.
        for (i, &m) in Mechanism::ALL.iter().enumerate() {
            let code = mechanism_code(m);
            assert_eq!(code as usize, i, "{m:?} must encode as its ALL index");
            assert_eq!(mechanism_from_code(code), Some(m), "{m:?}");
        }
        assert_eq!(mechanism_from_code(Mechanism::ALL.len() as u8), None);
        assert_eq!(mechanism_from_code(u8::MAX), None);
    }

    #[test]
    fn roundtrip_serves_identical_vos_for_every_mechanism() {
        for mechanism in Mechanism::ALL {
            let auth = test_auth(mechanism);
            let path = temp_path(&format!("roundtrip-{mechanism:?}.snap"));
            let info = auth.save_snapshot(&path).unwrap();
            assert!(info.bytes > 0);
            let loaded = AuthenticatedIndex::load_snapshot(&path, auth.config()).unwrap();
            let a = auth.query(&toy_query(), 2, &toy_contents());
            let b = loaded.query(&toy_query(), 2, &toy_contents());
            assert_eq!(a.result, b.result, "{mechanism:?}");
            assert_eq!(a.vo, b.vo, "{mechanism:?}: VOs must be byte-identical");
            fs::remove_file(&path).ok();
            fs::remove_file(persist::manifest_path(&path)).ok();
        }
    }

    #[test]
    fn roundtrip_in_dictionary_mht_mode() {
        let auth = dict_auth();
        let path = temp_path("roundtrip-dict.snap");
        auth.save_snapshot(&path).unwrap();
        let loaded = AuthenticatedIndex::load_snapshot(&path, auth.config()).unwrap();
        let a = auth.query(&toy_query(), 2, &toy_contents());
        let b = loaded.query(&toy_query(), 2, &toy_contents());
        assert_eq!(a.vo, b.vo);
        // The dictionary tree rebuilt at boot is the serving tree.
        assert!(loaded.cache.dict_tree.is_some());
        fs::remove_file(&path).ok();
        fs::remove_file(persist::manifest_path(&path)).ok();
    }

    #[test]
    fn mismatched_config_is_stale_not_corrupt() {
        let auth = test_auth(Mechanism::TnraCmht);
        let path = temp_path("stale.snap");
        auth.save_snapshot(&path).unwrap();
        let other = AuthConfig {
            key_bits: TEST_KEY_BITS,
            ..AuthConfig::new(Mechanism::TraMht)
        };
        match AuthenticatedIndex::load_snapshot(&path, &other) {
            Err(PersistError::Stale(why)) => assert!(why.contains("TnraCmht"), "{why}"),
            other => panic!("expected Stale, got {other:?}"),
        }
        fs::remove_file(&path).ok();
        fs::remove_file(persist::manifest_path(&path)).ok();
    }

    #[test]
    fn tampered_auth_section_is_rejected() {
        let auth = test_auth(Mechanism::TraMht);
        let path = temp_path("tampered.snap");
        auth.save_snapshot(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip one bit near the end (inside the ASAU section payload).
        let at = bytes.len() - 40;
        bytes[at] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match AuthenticatedIndex::load_snapshot(&path, auth.config()) {
            Err(PersistError::SectionDigest { .. }) | Err(PersistError::Corrupt(_)) => {}
            other => panic!("expected a corruption error, got {other:?}"),
        }
        fs::remove_file(&path).ok();
        fs::remove_file(persist::manifest_path(&path)).ok();
    }

    #[test]
    fn boot_verifies_the_document_table_over_every_document() {
        // A doc root the owner never signed, at any position, fails the
        // one table signature at boot.
        for d in 0..9 {
            let mut auth = test_auth(Mechanism::TraMht);
            auth.doc_roots[d] = Digest::hash(b"not the owner's root");
            let path = temp_path(&format!("doc-root-{d}.snap"));
            auth.save_snapshot(&path).unwrap();
            match AuthenticatedIndex::load_snapshot(&path, auth.config()) {
                Err(PersistError::Corrupt(why)) => assert!(why.contains("document-table"), "{why}"),
                other => panic!("doc {d}: expected Corrupt, got {other:?}"),
            }
            fs::remove_file(&path).ok();
            fs::remove_file(persist::manifest_path(&path)).ok();
        }
    }

    /// A 60-document synthetic engine: enough documents and terms that a
    /// fixed interior target sits far from either end.
    fn synthetic_auth(mechanism: Mechanism) -> AuthenticatedIndex {
        use authsearch_corpus::SyntheticConfig;
        use authsearch_index::{build_index, OkapiParams};
        let corpus = SyntheticConfig::tiny(60, 7).generate();
        let key = cached_keypair(TEST_KEY_BITS);
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            ..AuthConfig::new(mechanism)
        };
        let index = build_index(&corpus, OkapiParams::default());
        AuthenticatedIndex::build(index, &key, config, &corpus)
    }

    /// Save `auth` to `path` with term `t`'s list passed through `edit`
    /// in the index section, and that section's digest recomputed.
    fn save_with_edited_list(
        auth: &AuthenticatedIndex,
        t: TermId,
        path: &Path,
        edit: impl Fn(&mut Vec<ImpactEntry>),
    ) {
        use authsearch_index::{InvertedIndex, InvertedList};
        let index = auth.index();
        let m = index.num_terms() as TermId;
        let lists: Vec<InvertedList> = (0..m)
            .map(|u| {
                let mut entries = index.list(u).entries().to_vec();
                if u == t {
                    edit(&mut entries);
                }
                InvertedList::from_sorted(entries)
            })
            .collect();
        let ft = lists
            .iter()
            .map(|l| u32::try_from(l.len()).unwrap())
            .collect();
        let forged = InvertedIndex::from_parts(
            index.params(),
            index.num_docs(),
            index.avg_doc_len(),
            ft,
            lists,
        );
        auth.save_snapshot(path).unwrap();
        let (mut sections, _) = persist::load_snapshot_file(path).unwrap();
        sections[1].1.clear();
        persist::write_index(&mut sections[1].1, &forged).unwrap();
        persist::save_snapshot_file(path, &persist::encode_snapshot(&sections).unwrap()).unwrap();
    }

    /// Halve the weight of a list's last entry: it is the list's lowest
    /// weight, so the list stays in canonical order and the forgery gets
    /// past the parser.
    fn halve_last_weight(entries: &mut [ImpactEntry]) {
        entries.last_mut().unwrap().weight /= 2.0;
    }

    /// Boot `auth` from `path` and return the `Corrupt` reason.
    fn corrupt_reason(auth: &AuthenticatedIndex, path: &Path) -> String {
        let booted = AuthenticatedIndex::load_snapshot(path, auth.config()).map(drop);
        fs::remove_file(path).ok();
        fs::remove_file(persist::manifest_path(path)).ok();
        match booted {
            Err(PersistError::Corrupt(why)) => why,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// The fixed interior term the forgery tests below target: the
    /// middle of the dictionary, whose list ends in a positive weight.
    fn interior_term(auth: &AuthenticatedIndex) -> (TermId, ImpactEntry) {
        let index = auth.index();
        let t = (index.num_terms() / 2) as TermId;
        let last = *index.list(t).entries().last().unwrap();
        assert!(last.weight > 0.0, "term {t} ends in a zero weight");
        (t, last)
    }

    #[test]
    fn boot_recomputes_every_document_root() {
        // Forge the weight of one interior document, and boot must
        // reject it by name.
        let auth = synthetic_auth(Mechanism::TraMht);
        let (t, entry) = interior_term(&auth);
        let path = temp_path("forged-weight.snap");
        save_with_edited_list(&auth, t, &path, |e| halve_last_weight(e));
        let why = corrupt_reason(&auth, &path);
        assert!(why.starts_with(&format!("doc {}:", entry.doc)), "{why}");
    }

    #[test]
    fn boot_recomputes_every_term_root() {
        // Forge the list of one interior term: its signed root and f_t
        // are untouched, so its signature still verifies and only a
        // refold of the list catches it. TNRA leaves carry the weight.
        for mechanism in [Mechanism::TnraMht, Mechanism::TnraCmht] {
            let auth = synthetic_auth(mechanism);
            let (t, _) = interior_term(&auth);
            let path = temp_path(&format!("forged-list-{mechanism:?}.snap"));
            save_with_edited_list(&auth, t, &path, |e| halve_last_weight(e));
            assert_eq!(
                corrupt_reason(&auth, &path),
                format!("term {t}: index disagrees with its signed root"),
                "{mechanism:?}"
            );
        }
    }

    #[test]
    fn boot_verifies_every_term_signature() {
        // Term 1 is no endpoint, and no evenly spaced sample of 16 out of
        // m > 30 terms reaches it. One flipped byte of its signature,
        // saved under honest section digests, must fail boot by name.
        let mut auth = synthetic_auth(Mechanism::TnraCmht);
        let m = auth.index().num_terms();
        assert!(m > 30, "{m} terms");
        let t: TermId = 1;
        let sig = &mut auth.term_sigs[t as usize];
        *sig.last_mut().unwrap() ^= 0x01;
        let msg = term_message(t, auth.index().ft(t), &auth.term_root(t));
        let e = auth
            .public_key()
            .verify(&msg, &auth.term_sigs[t as usize])
            .unwrap_err();
        let path = temp_path("forged-term-signature.snap");
        auth.save_snapshot(&path).unwrap();
        assert_eq!(
            corrupt_reason(&auth, &path),
            format!("term {t} signature rejected at boot: {e}")
        );
    }

    #[test]
    fn boot_rejects_an_empty_list() {
        // Folding an empty list has no root; boot refuses it by name
        // instead.
        let auth = test_auth(Mechanism::TnraMht);
        let path = temp_path("empty-list.snap");
        save_with_edited_list(&auth, 3, &path, Vec::clear);
        assert_eq!(corrupt_reason(&auth, &path), "term 3: empty inverted list");
    }

    #[test]
    fn per_document_signature_snapshot_is_stale() {
        let auth = test_auth(Mechanism::TraCmht);
        let path = temp_path("layout-1.snap");
        auth.save_snapshot(&path).unwrap();
        let (mut sections, _) = persist::load_snapshot_file(&path).unwrap();
        sections[2].0 = TAG_AUTH_V1;
        persist::save_snapshot_file(&path, &persist::encode_snapshot(&sections).unwrap()).unwrap();
        match AuthenticatedIndex::load_snapshot(&path, auth.config()) {
            Err(PersistError::Stale(why)) => assert!(why.contains("ASAU"), "{why}"),
            other => panic!("expected Stale, got {other:?}"),
        }
        fs::remove_file(&path).ok();
        fs::remove_file(persist::manifest_path(&path)).ok();
    }

    #[test]
    fn boot_heals_a_missing_snapshot_then_loads_it() {
        let path = temp_path("boot-heal.snap");
        fs::remove_file(&path).ok();
        fs::remove_file(persist::manifest_path(&path)).ok();
        let reference = test_auth(Mechanism::TnraMht);
        let expected = *reference.config();

        let (first, report) =
            boot_authenticated_index(Some(&path), &expected, || test_auth(Mechanism::TnraMht));
        assert_eq!(report.source, BootSource::FreshBuild);
        assert!(report.reason.is_some());
        assert!(report.healed, "fresh build should be saved back");

        let (second, report) = boot_authenticated_index(Some(&path), &expected, || {
            panic!("snapshot exists; fallback must not run")
        });
        assert_eq!(report.source, BootSource::Snapshot);
        assert_eq!(report.reason, None);
        let a = first.query(&toy_query(), 2, &toy_contents());
        let b = second.query(&toy_query(), 2, &toy_contents());
        assert_eq!(a.vo, b.vo);

        let (_, report) =
            boot_authenticated_index(None, &expected, || test_auth(Mechanism::TnraMht));
        assert_eq!(report.source, BootSource::FreshBuild);
        assert!(!report.healed);
        fs::remove_file(&path).ok();
        fs::remove_file(persist::manifest_path(&path)).ok();
    }
}
