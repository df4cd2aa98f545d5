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
//! | `ACFG` | artifact identity: mechanism, buddy, block layout |
//! | `ASIX` | the inverted index (the v1 `ASIX` record, re-framed as a checksummed section) |
//! | `ASA6` | the authentication artifact: the documents' content digests (TRA only), the one manifest signature, the owner's public key |
//!
//! The snapshot stores only what boot cannot recompute: every root,
//! tree and the manifest itself are refolded from the index and the
//! content digests by the fold the owner's build runs
//! (`super::fold`). The authentication section's tag carries its
//! layout version: a snapshot with any older one (`TAG_AUTH_STALE`) is
//! [`PersistError::Stale`].
//!
//! ## Trust model at boot
//!
//! The file is **attacker bytes** (the engine host is untrusted and bit
//! rot is indistinguishable from tampering), so loading is layered:
//!
//! 1. structural parse under the container's length framing, per-section
//!    digest trailers, and clamped pre-allocations — random corruption
//!    (every fault the `tests/support/faults.rs` harness injects)
//!    dies here as a typed [`PersistError`]. The digest trailers are
//!    unkeyed, so a crafted file passes them; no count it declares sizes
//!    an allocation before the signature below vouches for it;
//! 2. identity check of `ACFG` against the caller's expected
//!    [`AuthConfig`] — a snapshot of a *different* artifact is
//!    [`PersistError::Stale`], not silently served;
//! 3. **refold, then one signature**: the owner's fold runs over the
//!    loaded index and content digests, through `crate::pool::map` at
//!    the configured width, and the manifest it yields must carry a
//!    valid signature under the snapshot's embedded key, which
//!    [`boot_authenticated_index`] requires to be the owner's
//!    ([`VerifierParams::public_key`]). A forged list, document or
//!    content digest moves a root the manifest binds, so it fails this
//!    one check. The fold also builds the structures the engine proves
//!    from, so the check costs no hashing beyond what serving needs
//!    anyway.
//!
//! A forgery that survives all three (consistent digests *and* a valid
//! signature over altered data) would require breaking the owner's
//! RSA key — and even then, the per-query VO verification at the client
//! remains: a VO built from tampered structures cannot verify, so no
//! wrong answer is ever *accepted*, only detected later than boot.

use super::{content_digests, fold, AuthConfig, AuthenticatedIndex};
use crate::verify::VerifierParams;
use crate::vo::Mechanism;
use authsearch_corpus::{Corpus, TermId};
use authsearch_crypto::{Digest, RsaPublicKey};
use authsearch_index::codec::{self, CodecError, Reader, Writer};
use authsearch_index::persist::{self, PersistError, SectionTag};
use authsearch_index::SnapshotInfo;
use std::path::Path;

/// Section tags of the authenticated snapshot, in file order.
pub(crate) const TAG_CONFIG: SectionTag = *b"ACFG";
/// The inverted-index section (the v1 `ASIX` record as a section).
pub(crate) const TAG_INDEX: SectionTag = *b"ASIX";
/// The authentication-artifact section (layout 6: content digests, one
/// manifest signature and the key; every root is refolded at boot, and
/// under TRA each dictionary leaf binds its term's doc-order root).
pub(crate) const TAG_AUTH: SectionTag = *b"ASA6";
/// Earlier authentication sections, each stale: layout 1 (`ASAU`, one
/// signature per term and per document), layout 2 (`ASA2`, one per term
/// plus one for the document table), layout 3 (`ASA3`, one manifest
/// signature beside every term and document-MHT root), layout 4
/// (`ASA4`, layout 6's fields, signed over document-MHTs in term-id
/// order) and layout 5 (`ASA5`, the same fields, signed over
/// document-MHTs in frequency-class order). Under layouts 4 and 5 the
/// signature would fail the refold.
const TAG_AUTH_STALE: [SectionTag; 5] = [*b"ASAU", *b"ASA2", *b"ASA3", *b"ASA4", *b"ASA5"];

fn corrupt(why: impl Into<String>) -> PersistError {
    PersistError::Corrupt(why.into())
}

fn stale(why: impl Into<String>) -> PersistError {
    PersistError::Stale(why.into())
}

// ---- section codecs -------------------------------------------------------

/// Parse the whole of a section payload, naming the section in any
/// structural error.
fn read_section<'a, T>(
    payload: &'a [u8],
    tag: &str,
    parse: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<T, PersistError> {
    codec::read_all(payload, parse).map_err(|e| corrupt(format!("section {tag}: {e}")))
}

fn encode_config(config: &AuthConfig) -> Vec<u8> {
    let mut buf = Vec::with_capacity(2 + 3 * 8);
    let mut w = Writer(&mut buf);
    w.u8(config.mechanism.code());
    w.u8(u8::from(config.buddy));
    w.u64(config.layout.block_bytes as u64);
    w.u64(config.layout.addr_bytes as u64);
    w.u64(config.layout.digest_bytes as u64);
    buf
}

/// Check the artifact identity the snapshot declares against what the
/// caller expects: the bytes `encode_config` writes for it. The thread
/// count is deliberately *not* part of identity — it is the caller's to
/// choose at boot.
fn check_config(payload: &[u8], expected: &AuthConfig) -> Result<(), PersistError> {
    if payload == encode_config(expected) {
        return Ok(());
    }
    let (code, buddy, block_bytes) = read_section(payload, "ACFG", |r| {
        let declared = (r.u8()?, r.u8()? != 0, r.u64()?);
        r.bytes(2 * 8)?; // addr_bytes, digest_bytes
        Ok(declared)
    })?;
    let mechanism =
        Mechanism::from_code(code).ok_or_else(|| corrupt("ACFG: unknown mechanism code"))?;
    Err(stale(format!(
        "snapshot artifact is {mechanism:?} (buddy={buddy}, block_bytes={block_bytes}), \
         expected {:?} (buddy={}, block_bytes={})",
        expected.mechanism, expected.buddy, expected.layout.block_bytes
    )))
}

fn encode_auth(auth: &AuthenticatedIndex) -> Result<Vec<u8>, PersistError> {
    let publication = auth.publication();
    let mut buf = Vec::new();
    let mut w = Writer(&mut buf);
    w.u64(publication.docs.len() as u64);
    w.digests(&publication.docs);
    w.bytes32(&publication.signature, "ASA6 signature")?;
    w.bytes32(&auth.public_key.to_bytes(), "ASA6 public key")?;
    Ok(buf)
}

/// The authentication section: the content digests, the signature and
/// the public key.
fn decode_auth(payload: &[u8]) -> Result<(Vec<Digest>, Vec<u8>, RsaPublicKey), PersistError> {
    let (content_digests, signature, key) = read_section(payload, "ASA6", |r| {
        let claimed = r.u64()?;
        Ok((
            r.digests(claimed, "content digest")?,
            r.bytes32()?,
            r.bytes32()?,
        ))
    })?;
    let public_key =
        RsaPublicKey::from_bytes(key).ok_or_else(|| corrupt("ASA6: public key fails to parse"))?;
    Ok((content_digests, signature.to_vec(), public_key))
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
    /// match (mechanism, buddy, layout) and the thread count the
    /// reloaded engine should run with.
    ///
    /// The manifest signature is checked against the public key embedded
    /// in the snapshot only, so a snapshot signed throughout under
    /// another key loads. [`boot_authenticated_index`] is the entry
    /// point anchored to the owner's key.
    pub fn load_snapshot(
        path: &Path,
        expected: &AuthConfig,
    ) -> Result<AuthenticatedIndex, PersistError> {
        let (sections, _info) = persist::load_snapshot_file(path)?;
        let tags: Vec<_> = sections
            .iter()
            .map(|(tag, _)| String::from_utf8_lossy(tag))
            .collect();
        if let Some((old, _)) = sections.get(2).filter(|(t, _)| TAG_AUTH_STALE.contains(t)) {
            return Err(stale(format!(
                "snapshot holds the older authentication section {}; \
                 this build reads {}",
                String::from_utf8_lossy(old),
                String::from_utf8_lossy(&TAG_AUTH)
            )));
        }
        let [(TAG_CONFIG, config_s), (TAG_INDEX, index_s), (TAG_AUTH, auth_s)] =
            sections.as_slice()
        else {
            return Err(corrupt(format!(
                "sections {tags:?}, expected [\"ACFG\", \"ASIX\", \"ASA6\"]"
            )));
        };

        check_config(config_s, expected)?;
        let index = persist::read_index(index_s)?;
        let (content_digests, signature, public_key) = decode_auth(auth_s)?;

        // Cross-checks: the sections must describe one coherent artifact
        // the fold can run over.
        let m = index.num_terms();
        let n = index.num_docs();
        if m == 0 {
            return Err(corrupt("snapshot indexes no terms"));
        }
        if let Some(t) = (0..m as TermId).find(|&t| index.list(t).is_empty()) {
            return Err(corrupt(format!("term {t}: empty inverted list")));
        }
        let digests = content_digests.len();
        if expected.mechanism.is_tra() {
            // The digests are stored bytes, so they back the `n` the
            // document table is sized by.
            if n == 0 || digests != n {
                return Err(corrupt(format!(
                    "{digests} content digests for {n} documents"
                )));
            }
        } else if digests != 0 {
            return Err(corrupt("TNRA snapshot carries content digests"));
        }

        // The owner's fold over the loaded bytes, then the one check: the
        // owner's signature over the manifest it yields.
        let fold =
            fold(expected.build_threads(), expected, &index, content_digests).map_err(corrupt)?;
        public_key
            .verify(&fold.manifest.message(), &signature)
            .map_err(|e| corrupt(format!("manifest signature rejected at boot: {e}")))?;
        Ok(fold.into_index(*expected, index, signature, public_key))
    }

    /// Refuse, as [`PersistError::Stale`], a collection that is not the
    /// one this artifact indexes: a different document count or, under
    /// TRA, a document whose content digest is not the signed one. TNRA
    /// authenticates no content, so only the count is checked there.
    pub(crate) fn check_collection(&self, corpus: &Corpus) -> Result<(), PersistError> {
        let n = self.index.num_docs();
        if corpus.num_docs() != n {
            return Err(stale(format!(
                "the corpus holds {} documents; the snapshot indexes {n}",
                corpus.num_docs()
            )));
        }
        if self.config.mechanism.is_tra() {
            let served = content_digests(self.config.build_threads(), n, corpus);
            let signed = self.publication().docs.iter();
            if let Some(d) = served.iter().zip(signed).position(|(a, b)| a != b) {
                return Err(stale(format!(
                    "corpus document {d} differs from the snapshot's signed content"
                )));
            }
        }
        Ok(())
    }
}

// ---- boot -----------------------------------------------------------------

/// Boot the engine's artifact from the owner's snapshot at `path`, or
/// refuse with the typed error. The engine never builds or signs.
///
/// This is [`AuthenticatedIndex::load_snapshot`] under `expected`, plus
/// the trust anchor: the loaded artifact's public parameters
/// ([`AuthenticatedIndex::verifier_params`]: the manifest it refolded,
/// the key and the layout) must equal `owner`'s, the parameters clients
/// verify against. The manifest binds the mechanism, `m`, `n` and every
/// root, so a snapshot of any other publication — another collection,
/// or an older one of this collection — is [`PersistError::Stale`] like
/// one signed under another key: those clients would reject every reply
/// it serves. Nothing is written, whatever the outcome.
pub fn boot_authenticated_index(
    path: &Path,
    expected: &AuthConfig,
    owner: &VerifierParams,
) -> Result<AuthenticatedIndex, PersistError> {
    let auth = AuthenticatedIndex::load_snapshot(path, expected)?;
    let loaded = auth.verifier_params();
    let differ: Vec<&str> = [
        (
            "manifest",
            loaded.publication().manifest == owner.publication().manifest,
        ),
        ("public key", loaded.public_key() == owner.public_key()),
        ("layout", loaded.layout() == owner.layout()),
    ]
    .into_iter()
    .filter_map(|(what, same)| (!same).then_some(what))
    .collect();
    if !differ.is_empty() {
        let verb = if differ.len() == 1 {
            "differs"
        } else {
            "differ"
        };
        return Err(stale(format!(
            "snapshot is not the owner's publication: its {} {verb} from the owner's",
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
    use authsearch_corpus::DocId;
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};
    use authsearch_index::{ImpactEntry, InvertedIndex, InvertedList};
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
            let a = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
            let b = loaded.query(&toy_query(), 2, &toy_contents()).unwrap();
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
        let a = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
        let b = loaded.query(&toy_query(), 2, &toy_contents()).unwrap();
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
        let other = AuthConfig::new(Mechanism::TraMht);
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
        // Flip one bit near the end (inside the ASA6 section payload).
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
        // A content digest the owner never signed, at any position, moves
        // the document-table root and fails the one manifest signature at
        // boot.
        for d in 0..9 {
            let mut auth = test_auth(Mechanism::TraMht);
            let docs = &mut std::sync::Arc::make_mut(&mut auth.publication).docs;
            docs[d] = Digest::hash(b"not the owner's content");
            let path = temp_path(&format!("doc-content-{d}.snap"));
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
        let config = AuthConfig::new(mechanism);
        let index = build_index(&corpus, OkapiParams::default());
        AuthenticatedIndex::build(index, &key, config, &corpus)
    }

    /// Save `auth` to `path` with `forged` in place of its index section,
    /// and that section's digest recomputed: the digest trailers are
    /// unkeyed, so anyone who writes the file can do this.
    fn save_with_index(auth: &AuthenticatedIndex, path: &Path, forged: &InvertedIndex) {
        auth.save_snapshot(path).unwrap();
        let (mut sections, _) = persist::load_snapshot_file(path).unwrap();
        sections[1].1.clear();
        persist::write_index(&mut sections[1].1, forged).unwrap();
        persist::save_snapshot_file(path, &persist::encode_snapshot(&sections).unwrap()).unwrap();
    }

    /// `auth`'s index with term `t`'s list passed through `edit` and the
    /// collection size set to `num_docs`.
    fn forged_index(
        auth: &AuthenticatedIndex,
        t: TermId,
        num_docs: usize,
        edit: impl Fn(&mut Vec<ImpactEntry>),
    ) -> InvertedIndex {
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
        InvertedIndex::from_parts(index.params(), num_docs, index.avg_doc_len(), ft, lists).unwrap()
    }

    /// Save `auth` to `path` with term `t`'s list passed through `edit`
    /// in the index section, and that section's digest recomputed.
    fn save_with_edited_list(
        auth: &AuthenticatedIndex,
        t: TermId,
        path: &Path,
        edit: impl Fn(&mut Vec<ImpactEntry>),
    ) {
        let n = auth.index().num_docs();
        save_with_index(auth, path, &forged_index(auth, t, n, edit));
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
    fn boot_refuses_a_negative_weight_by_name() {
        // An index section whose one weight is negated, in canonical
        // order still, is refused where its weights enter the index,
        // before any fold.
        for mechanism in [Mechanism::TraMht, Mechanism::TnraMht] {
            let auth = synthetic_auth(mechanism);
            // The last entry of the last list: the record's last bytes.
            let t = auth.index().num_terms() as TermId - 1;
            let last = *auth.index().list(t).entries().last().unwrap();
            let path = temp_path(&format!("negative-weight-{mechanism:?}.snap"));
            auth.save_snapshot(&path).unwrap();
            let (mut sections, _) = persist::load_snapshot_file(&path).unwrap();
            let index = &mut sections[1].1;
            let at = index.len() - ImpactEntry::BYTES;
            assert_eq!(index[at..], last.encode());
            index[at + 7] ^= 0x80; // the weight's sign bit
            persist::save_snapshot_file(&path, &persist::encode_snapshot(&sections).unwrap())
                .unwrap();
            let why = corrupt_reason(&auth, &path);
            let want = format!(
                "term {t}: document {} has weight {}, not a finite non-negative number",
                last.doc, -last.weight
            );
            assert_eq!(why, want, "{mechanism:?}");
        }
    }

    #[test]
    fn boot_recomputes_every_document_root() {
        // Forge the weight of one interior document: under TRA the term
        // leaves carry no weight, so only the refolded doc-order tree
        // moves a root the manifest binds.
        let auth = synthetic_auth(Mechanism::TraMht);
        let (t, _) = interior_term(&auth);
        let path = temp_path("forged-weight.snap");
        save_with_edited_list(&auth, t, &path, |e| halve_last_weight(e));
        let why = corrupt_reason(&auth, &path);
        assert!(
            why.starts_with("manifest signature rejected at boot"),
            "{why}"
        );
    }

    #[test]
    fn boot_recomputes_every_term_root() {
        // Forge the list of one interior term, keeping its f_t: TNRA
        // leaves carry the weight, so the refolded term root, and with it
        // the dictionary root the manifest binds, moves.
        for mechanism in [Mechanism::TnraMht, Mechanism::TnraCmht] {
            let auth = synthetic_auth(mechanism);
            let (t, _) = interior_term(&auth);
            let path = temp_path(&format!("forged-list-{mechanism:?}.snap"));
            save_with_edited_list(&auth, t, &path, |e| halve_last_weight(e));
            let why = corrupt_reason(&auth, &path);
            assert!(
                why.starts_with("manifest signature rejected at boot"),
                "{mechanism:?}: {why}"
            );
        }
    }

    #[test]
    fn crafted_index_sections_end_in_typed_errors() {
        // Each row rewrites the index section and its digest. A posting
        // past the collection would index the document table out of
        // bounds, and a TNRA collection size of 2^34 would size it at
        // hundreds of GB: boot refuses both before allocating anything.
        let past_the_end = |auth: &AuthenticatedIndex| {
            let (t, last) = interior_term(auth);
            let n = auth.index().num_docs();
            let entry = ImpactEntry {
                doc: n as DocId,
                weight: last.weight / 2.0,
            };
            let why = format!("term {t}: document {n} outside the collection of {n}");
            (forged_index(auth, t, n, |e| e.push(entry)), why)
        };
        let huge_collection = |auth: &AuthenticatedIndex| {
            let forged = forged_index(auth, 0, 1 << 34, |_| {});
            (forged, "term or document count exceeds u32".to_string())
        };
        type Row = fn(&AuthenticatedIndex) -> (InvertedIndex, String);
        let rows: [(&str, Mechanism, Row); 3] = [
            ("TRA posting past n", Mechanism::TraMht, past_the_end),
            ("TNRA posting past n", Mechanism::TnraCmht, past_the_end),
            ("TNRA n = 2^34", Mechanism::TnraMht, huge_collection),
        ];
        for (row, mechanism, forge) in rows {
            let auth = synthetic_auth(mechanism);
            let (forged, want) = forge(&auth);
            let path = temp_path("crafted-index.snap");
            save_with_index(&auth, &path, &forged);
            assert_eq!(corrupt_reason(&auth, &path), want, "{row}");
        }
    }

    #[test]
    fn boot_rejects_a_forged_manifest_signature() {
        // One flipped byte of the manifest signature, saved under honest
        // section digests, fails boot by name under every mechanism.
        for mechanism in Mechanism::ALL {
            let mut auth = synthetic_auth(mechanism);
            let signature = &mut std::sync::Arc::make_mut(&mut auth.publication).signature;
            *signature.last_mut().unwrap() ^= 0x01;
            let manifest = super::super::tests_support::manifest_of(&auth);
            let e = auth
                .public_key()
                .verify(&manifest, &auth.publication.signature)
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
    fn boot_rejects_an_index_without_terms() {
        // A dictionary-MHT over zero terms has no root; boot refuses the
        // index by name instead of folding it.
        let auth = test_auth(Mechanism::TnraMht);
        let path = temp_path("no-terms.snap");
        let index = auth.index();
        let empty = InvertedIndex::from_parts(
            index.params(),
            index.num_docs(),
            index.avg_doc_len(),
            Vec::new(),
            Vec::new(),
        )
        .unwrap();
        save_with_index(&auth, &path, &empty);
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
        // Every earlier layout — per-document signatures (ASAU),
        // per-term signatures (ASA2), stored roots (ASA3), term-id
        // ordered document-MHTs (ASA4) and class-ordered ones (ASA5) —
        // boots as a typed Stale naming the section and the layout this
        // build reads.
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
                Err(PersistError::Stale(why)) => assert_eq!(
                    why,
                    format!(
                        "snapshot holds the older authentication section {name}; \
                         this build reads ASA6"
                    )
                ),
                other => panic!("{name}: expected Stale, got {other:?}"),
            }
            fs::remove_file(&path).ok();
            fs::remove_file(persist::manifest_path(&path)).ok();
        }
    }
}
