//! Crash-safe authenticated snapshots: the owner persists the *entire*
//! artifact ([`AuthenticatedIndex`]), and the engine boots it back
//! trust-but-verify.
//!
//! The paper's owner transfers the collection and index to the
//! untrusted engine once (§3.1). The snapshot is that hand-off: the
//! owner writes it, and the engine reloads it with parsing, hashing and
//! one signature *verification*. The engine holds no signing key, so it
//! never builds or re-signs an artifact: a snapshot that fails any check
//! below is refused with the typed [`PersistError`]
//! ([`boot_authenticated_index`]).
//!
//! ## Container layout
//!
//! One [`authsearch_index::persist`] v2 container (`ASNP` magic,
//! version 2) holding three digest-trailed sections, in order:
//!
//! | tag    | payload |
//! |--------|---------|
//! | `ACFG` | artifact identity: mechanism, buddy, key bits, block layout |
//! | `ASIX` | the inverted index (the v1 `ASIX` record, re-framed as a checksummed section) |
//! | `ASA3` | the authentication artifact: term roots, document content digests and document-MHT roots, the one manifest signature, the owner's public key |
//!
//! The authentication section's tag carries its layout version. `ASA3`
//! holds one signature over the publication manifest, in a scheme whose
//! Merkle leaves and interior nodes hash in separate domains. It
//! replaced `ASA2` (one signature per term plus one for the document
//! table) and `ASAU` (one signature per term and per document). A
//! snapshot with either old section is [`PersistError::Stale`].
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
//! 3. **one signature verification** against the owner's key: the
//!    dictionary-MHT is folded from the loaded term roots and, for TRA,
//!    the document table from every document's content digest and root,
//!    and the manifest over both roots must carry a valid signature
//!    under the snapshot's embedded key, which
//!    [`boot_authenticated_index`] requires to be the owner's
//!    ([`VerifierParams::public_key`]). Then every term root and every
//!    document-MHT root is recomputed from the loaded index, folded through
//!    [`crate::pool::map`] at the configured width, and must equal the
//!    signed one. That fold also rebuilds the structures the engine
//!    proves from, so checking all `m` term roots and `n` document roots
//!    costs no hashing beyond what serving needs anyway.
//!
//! A forgery that survives all three (consistent digests *and* a valid
//! signature over altered data) would require breaking the owner's
//! RSA key — and even then, the per-query VO verification at the client
//! remains: a VO built from tampered structures cannot verify, so no
//! wrong answer is ever *accepted*, only detected later than boot.

use super::{
    cache, dict_tree, doc_mhts, doc_table_tree, manifest, term_structures, AuthConfig,
    AuthenticatedIndex,
};
use crate::pool::ThreadPool;
use crate::types::DocTable;
use crate::verify::VerifierParams;
use crate::vo::Mechanism;
use authsearch_corpus::TermId;
use authsearch_crypto::{Digest, RsaPublicKey, DIGEST_LEN};
use authsearch_index::persist::{self, put_u32, put_u64, PersistError, SectionReader, SectionTag};
use authsearch_index::SnapshotInfo;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;

/// Section tags of the authenticated snapshot, in file order.
pub const TAG_CONFIG: SectionTag = *b"ACFG";
/// The inverted-index section (the v1 `ASIX` record as a section).
pub const TAG_INDEX: SectionTag = *b"ASIX";
/// The authentication-artifact section (layout 3: one manifest
/// signature, domain-separated Merkle hashing).
pub const TAG_AUTH: SectionTag = *b"ASA3";
/// Earlier authentication sections, each stale: layout 1 (`ASAU`, one
/// signature per term and per document) and layout 2 (`ASA2`, one per
/// term plus one for the document table).
const TAG_AUTH_STALE: [SectionTag; 2] = [*b"ASAU", *b"ASA2"];

fn corrupt(why: impl Into<String>) -> PersistError {
    PersistError::Corrupt(why.into())
}

fn stale(why: impl Into<String>) -> PersistError {
    PersistError::Stale(why.into())
}

// ---- section codecs -------------------------------------------------------

fn encode_config(config: &AuthConfig) -> Vec<u8> {
    let mut buf = Vec::with_capacity(2 + 4 * 8);
    buf.push(config.mechanism.code());
    buf.push(u8::from(config.buddy));
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
        Mechanism::from_code(r.u8()?).ok_or_else(|| corrupt("ACFG: unknown mechanism code"))?;
    let buddy = r.u8()? != 0;
    let key_bits = r.u64()? as usize;
    let block_bytes = r.u64()? as usize;
    let addr_bytes = r.u64()? as usize;
    let digest_bytes = r.u64()? as usize;
    r.finish()?;
    let same = mechanism == expected.mechanism
        && buddy == expected.buddy
        && key_bits == expected.key_bits
        && block_bytes == expected.layout.block_bytes
        && addr_bytes == expected.layout.addr_bytes
        && digest_bytes == expected.layout.digest_bytes;
    if !same {
        return Err(stale(format!(
            "snapshot artifact is {mechanism:?} (buddy={buddy}, key_bits={key_bits}), \
             expected {:?} (buddy={}, key_bits={})",
            expected.mechanism, expected.buddy, expected.key_bits
        )));
    }
    Ok(())
}

fn encode_auth(auth: &AuthenticatedIndex) -> Result<Vec<u8>, PersistError> {
    let mut buf = Vec::new();
    for digests in [&auth.term_roots, &auth.doc_content_digests, &auth.doc_roots] {
        let _ = put_u64(&mut buf, digests.len() as u64);
        for d in digests {
            buf.extend_from_slice(d.as_bytes());
        }
    }
    let key = auth.public_key.to_bytes();
    for bytes in [auth.signature.as_slice(), key.as_slice()] {
        let len = u32::try_from(bytes.len()).map_err(|_| corrupt("ASA3 field exceeds u32"))?;
        let _ = put_u32(&mut buf, len);
        buf.extend_from_slice(bytes);
    }
    Ok(buf)
}

struct AuthParts {
    term_roots: Vec<Digest>,
    doc_content_digests: Vec<Digest>,
    doc_roots: Vec<Digest>,
    signature: Vec<u8>,
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
                .ok_or_else(|| corrupt(format!("ASA3: malformed {what}")))?,
        );
    }
    Ok(out)
}

/// Read a `u32`-length-prefixed, non-empty byte field.
fn get_field<'a>(r: &mut SectionReader<'a>, what: &str) -> Result<&'a [u8], PersistError> {
    let len = r.u32()? as usize;
    if len == 0 || len > r.remaining() {
        return Err(corrupt(format!("ASA3: {what} length forged")));
    }
    r.bytes(len)
}

fn decode_auth(payload: &[u8]) -> Result<AuthParts, PersistError> {
    let mut r = SectionReader::new(payload, "ASA3");
    let term_roots = get_digests(&mut r, "term root")?;
    let doc_content_digests = get_digests(&mut r, "doc content digest")?;
    let doc_roots = get_digests(&mut r, "doc root")?;
    let signature = get_field(&mut r, "signature")?.to_vec();
    let public_key = RsaPublicKey::from_bytes(get_field(&mut r, "public-key")?)
        .ok_or_else(|| corrupt("ASA3: public key fails to parse"))?;
    r.finish()?;
    Ok(AuthParts {
        term_roots,
        doc_content_digests,
        doc_roots,
        signature,
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
    /// checking its integrity end to end before it can serve a single
    /// query — see the [module docs](self) for the three verification
    /// layers. `expected` supplies both the identity the snapshot must
    /// match (mechanism, buddy, key bits, layout) and the thread count
    /// the reloaded engine should run with.
    ///
    /// The manifest signature is checked against the public key embedded
    /// in the snapshot only, so a snapshot signed throughout under
    /// another key of the same size loads. [`boot_authenticated_index`]
    /// is the entry point anchored to the owner's key.
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
        if TAG_AUTH_STALE.contains(&auth_s.0) {
            return Err(stale(format!(
                "snapshot holds per-term signatures (section {}); \
                 this build signs one manifest (ASA3)",
                String::from_utf8_lossy(&auth_s.0)
            )));
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
        if m == 0 {
            return Err(corrupt("snapshot indexes no terms"));
        }
        if parts.term_roots.len() != m {
            return Err(corrupt(format!(
                "{} term roots for {m} terms",
                parts.term_roots.len()
            )));
        }
        if let Some(t) = (0..m as TermId).find(|&t| index.list(t).is_empty()) {
            return Err(corrupt(format!("term {t}: empty inverted list")));
        }
        if expected.mechanism.is_tra() {
            if n == 0 || parts.doc_content_digests.len() != n || parts.doc_roots.len() != n {
                return Err(corrupt(format!(
                    "{} doc digests / {} doc roots for {n} documents",
                    parts.doc_content_digests.len(),
                    parts.doc_roots.len(),
                )));
            }
        } else if !parts.doc_content_digests.is_empty() || !parts.doc_roots.is_empty() {
            return Err(corrupt("TNRA snapshot carries document structures"));
        }
        if parts.public_key.modulus_bits() != expected.key_bits {
            return Err(stale(format!(
                "snapshot key is {} bits, expected {}",
                parts.public_key.modulus_bits(),
                expected.key_bits
            )));
        }

        // Boot-time signature verification: fold the dictionary and the
        // document table from the loaded roots and check the one
        // signature over their manifest before serving anything.
        let threads = expected.build_threads();
        let doc_table = DocTable::from_index(&index);
        let dict = dict_tree(threads, &index, &parts.term_roots);
        let doc_tree = expected
            .mechanism
            .is_tra()
            .then(|| doc_table_tree(&parts.doc_content_digests, &parts.doc_roots));
        let manifest = manifest(expected.mechanism, &dict, n, doc_tree.as_ref())
            .ok_or_else(|| corrupt("term or document count exceeds u32"))?;
        parts
            .public_key
            .verify(&manifest, &parts.signature)
            .map_err(|e| corrupt(format!("manifest signature rejected at boot: {e}")))?;
        // Refold every term and document: each recomputed root must be
        // the signed one, which ties every loaded list and document-MHT
        // to the owner's signature.
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
        let doc_levels = if expected.mechanism.is_tra() {
            let (roots, levels) = doc_mhts(threads, &doc_table);
            if let Some(d) = roots.iter().zip(&parts.doc_roots).position(|(a, b)| a != b) {
                return Err(corrupt(format!(
                    "doc {d}: index disagrees with its signed root"
                )));
            }
            levels
        } else {
            Vec::new()
        };

        Ok(AuthenticatedIndex {
            config: *expected,
            index,
            doc_table,
            term_roots: parts.term_roots,
            doc_content_digests: parts.doc_content_digests,
            doc_roots: parts.doc_roots,
            doc_tree,
            signature: parts.signature,
            public_key: parts.public_key,
            cache: cache::ServeCache::new(dict, terms, doc_levels),
            serve_pool: Arc::new(ThreadPool::new(threads)),
        })
    }
}

// ---- boot -----------------------------------------------------------------

/// Boot the engine's artifact from the owner's snapshot at `path`, or
/// refuse with the typed error. The engine never builds or signs.
///
/// This is [`AuthenticatedIndex::load_snapshot`] under `expected`, plus
/// the trust anchor: the loaded artifact's public parameters
/// ([`AuthenticatedIndex::verifier_params`]: key, mechanism, layout,
/// `n`, Okapi) must equal `owner`'s, the parameters clients verify
/// against. A snapshot signed under any other key, or describing a
/// collection those clients would reject every reply for, is
/// [`PersistError::Stale`]. Nothing is written, whatever the outcome.
pub fn boot_authenticated_index(
    path: &Path,
    expected: &AuthConfig,
    owner: &VerifierParams,
) -> Result<AuthenticatedIndex, PersistError> {
    let auth = AuthenticatedIndex::load_snapshot(path, expected)?;
    let loaded = auth.verifier_params();
    let differ: Vec<&str> = [
        ("public key", loaded.public_key == owner.public_key),
        ("mechanism", loaded.mechanism == owner.mechanism),
        ("layout", loaded.layout == owner.layout),
        ("num_docs", loaded.num_docs == owner.num_docs),
        ("okapi", loaded.okapi == owner.okapi),
    ]
    .into_iter()
    .filter_map(|(what, same)| (!same).then_some(what))
    .collect();
    if !differ.is_empty() {
        return Err(stale(format!(
            "snapshot is not the owner's publication: {} differ from the owner's",
            differ.join(", ")
        )));
    }
    Ok(auth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::tests_support::test_auth;
    use crate::toy::{toy_contents, toy_query};
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};
    use authsearch_index::ImpactEntry;
    use std::fs;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("authsearch-auth-snapshot");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn mechanism_code_round_trips_for_every_mechanism() {
        // `Mechanism::code` is a hand-written match while
        // `Mechanism::from_code` indexes `Mechanism::ALL`; if the two ever
        // drift, a snapshot saved under one mechanism would boot as
        // another. Assert the full round-trip in both directions.
        for (i, &m) in Mechanism::ALL.iter().enumerate() {
            let code = m.code();
            assert_eq!(code as usize, i, "{m:?} must encode as its ALL index");
            assert_eq!(Mechanism::from_code(code), Some(m), "{m:?}");
        }
        assert_eq!(Mechanism::from_code(Mechanism::ALL.len() as u8), None);
        assert_eq!(Mechanism::from_code(u8::MAX), None);
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
        let auth = test_auth(Mechanism::TnraCmht);
        let path = temp_path("roundtrip-dict.snap");
        auth.save_snapshot(&path).unwrap();
        let loaded = AuthenticatedIndex::load_snapshot(&path, auth.config()).unwrap();
        let a = auth.query(&toy_query(), 2, &toy_contents());
        let b = loaded.query(&toy_query(), 2, &toy_contents());
        assert_eq!(a.vo, b.vo);
        // The dictionary tree rebuilt at boot is the serving tree.
        assert_eq!(loaded.cache.dict_tree.root(), auth.cache.dict_tree.root());
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
        // Flip one bit near the end (inside the ASA3 section payload).
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
        // A doc root the owner never signed, at any position, moves the
        // document-table root and fails the one manifest signature at
        // boot.
        for d in 0..9 {
            let mut auth = test_auth(Mechanism::TraMht);
            auth.doc_roots[d] = Digest::hash(b"not the owner's root");
            let path = temp_path(&format!("doc-root-{d}.snap"));
            auth.save_snapshot(&path).unwrap();
            match AuthenticatedIndex::load_snapshot(&path, auth.config()) {
                Err(PersistError::Corrupt(why)) => {
                    assert!(why.starts_with("manifest signature rejected"), "{why}")
                }
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
    fn boot_rejects_a_forged_manifest_signature() {
        // One flipped byte of the manifest signature, saved under honest
        // section digests, fails boot by name under every mechanism.
        for mechanism in Mechanism::ALL {
            let mut auth = synthetic_auth(mechanism);
            *auth.signature.last_mut().unwrap() ^= 0x01;
            let manifest = super::super::tests_support::manifest_of(&auth);
            let e = auth
                .public_key()
                .verify(&manifest, &auth.signature)
                .unwrap_err();
            let path = temp_path(&format!("forged-manifest-{mechanism:?}.snap"));
            auth.save_snapshot(&path).unwrap();
            assert_eq!(
                corrupt_reason(&auth, &path),
                format!("manifest signature rejected at boot: {e}"),
                "{mechanism:?}"
            );
        }
    }

    #[test]
    fn boot_rejects_a_term_root_the_manifest_does_not_cover() {
        // A stored term root replaced by another term's: the dictionary
        // folded from the loaded roots no longer has the signed root, so
        // the manifest check fails before any list is refolded.
        let mut auth = synthetic_auth(Mechanism::TnraMht);
        let (t, _) = interior_term(&auth);
        auth.term_roots[t as usize] = auth.term_roots[0];
        let path = temp_path("foreign-term-root.snap");
        auth.save_snapshot(&path).unwrap();
        let why = corrupt_reason(&auth, &path);
        assert!(
            why.starts_with("manifest signature rejected at boot"),
            "{why}"
        );
    }

    #[test]
    fn boot_rejects_an_index_without_terms() {
        // A dictionary-MHT over zero terms has no root; boot refuses the
        // index by name instead of folding it.
        use authsearch_index::InvertedIndex;
        let auth = test_auth(Mechanism::TnraMht);
        let path = temp_path("no-terms.snap");
        auth.save_snapshot(&path).unwrap();
        let index = auth.index();
        let empty = InvertedIndex::from_parts(
            index.params(),
            index.num_docs(),
            index.avg_doc_len(),
            Vec::new(),
            Vec::new(),
        );
        let (mut sections, _) = persist::load_snapshot_file(&path).unwrap();
        sections[1].1.clear();
        persist::write_index(&mut sections[1].1, &empty).unwrap();
        persist::save_snapshot_file(&path, &persist::encode_snapshot(&sections).unwrap()).unwrap();
        assert_eq!(corrupt_reason(&auth, &path), "snapshot indexes no terms");
    }

    #[test]
    fn boot_refuses_a_missing_snapshot_and_writes_nothing() {
        // A missing path is refused as `Io`; boot neither builds nor
        // writes, so the snapshot and its sidecar stay missing.
        let auth = test_auth(Mechanism::TnraMht);
        let path = temp_path("never-written.snap");
        fs::remove_file(&path).ok();
        fs::remove_file(persist::manifest_path(&path)).ok();
        match boot_authenticated_index(&path, auth.config(), &auth.verifier_params()) {
            Err(PersistError::Io(_)) => {}
            other => panic!("expected Io, got {:?}", other.map(drop)),
        }
        assert!(!path.exists() && !persist::manifest_path(&path).exists());
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
        // Both earlier layouts — per-document signatures (ASAU) and
        // per-term signatures (ASA2) — boot as a typed Stale.
        let auth = test_auth(Mechanism::TraCmht);
        for tag in TAG_AUTH_STALE {
            let name = String::from_utf8_lossy(&tag).into_owned();
            let path = temp_path(&format!("layout-{name}.snap"));
            auth.save_snapshot(&path).unwrap();
            let (mut sections, _) = persist::load_snapshot_file(&path).unwrap();
            sections[2].0 = tag;
            persist::save_snapshot_file(&path, &persist::encode_snapshot(&sections).unwrap())
                .unwrap();
            match AuthenticatedIndex::load_snapshot(&path, auth.config()) {
                Err(PersistError::Stale(why)) => assert!(why.contains(&name), "{why}"),
                other => panic!("{name}: expected Stale, got {other:?}"),
            }
            fs::remove_file(&path).ok();
            fs::remove_file(persist::manifest_path(&path)).ok();
        }
    }
}
