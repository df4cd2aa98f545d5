//! Verified boot from the owner's snapshot: a server booted from the
//! owner's publication comes up without building or signing anything,
//! and the engine it serves is *indistinguishable* from the owner's
//! built one — byte-identical VOs on honest queries, identical
//! rejections across the attack catalogue. A snapshot that is missing,
//! corrupt, stale, or not the owner's publication is refused with a
//! typed error, and the refusal writes nothing.

use authsearch_core::attacks::{older_index, Attack};
use authsearch_core::{
    boot_authenticated_index, verify, AuthConfig, AuthenticatedIndex, Connection, DataOwner,
    Mechanism, Query, QueryMode, Server, ServerConfig, VerifierParams,
};
use authsearch_corpus::{Corpus, SyntheticConfig};
use authsearch_crypto::keys::TEST_KEY_BITS;
use authsearch_index::persist::{
    encode_snapshot, load_snapshot_file, manifest_path, save_snapshot_file, PersistError,
};
use authsearch_index::BlockLayout;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("authsearch-boot-{name}"));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_corpus() -> Corpus {
    SyntheticConfig::tiny(120, 41).generate()
}

fn sample_query(auth: &AuthenticatedIndex, seed: u64) -> Query {
    let terms =
        authsearch_corpus::workload::synthetic(auth.index().num_terms(), 1, 3, seed).remove(0);
    Query::from_term_ids(auth.index(), &terms)
}

/// A snapshot-booted engine is the built engine, across every mechanism
/// and the whole attack catalogue: honest VOs byte-identical, every
/// attack detected identically.
#[test]
fn booted_engine_matches_built_engine_across_attack_catalogue() {
    let dir = temp_dir("attacks");
    let corpus = test_corpus();
    for mechanism in Mechanism::ALL {
        let config = AuthConfig::new(mechanism);
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let publication = owner.publish(&corpus, config);
        let path = dir.join(format!("{mechanism:?}.snap"));
        publication.auth.save_snapshot(&path).unwrap();
        let booted =
            boot_authenticated_index(&path, &config, &publication.verifier_params).unwrap();

        for seed in [4u64, 5, 6] {
            let query = sample_query(&publication.auth, seed);
            let a = publication.auth.query(&query, 10, &corpus).unwrap();
            let b = booted.query(&query, 10, &corpus).unwrap();
            assert_eq!(a.result, b.result, "{mechanism:?} seed {seed}");
            assert_eq!(
                a.vo, b.vo,
                "{mechanism:?} seed {seed}: VO must be byte-identical"
            );
            verify::verify(&publication.verifier_params, &query, 10, &b)
                .unwrap_or_else(|e| panic!("{mechanism:?}: booted honest response rejected: {e}"));

            let attacks = Attack::COMMON.iter().chain(if mechanism.is_tra() {
                Attack::TRA_ONLY.iter()
            } else {
                [].iter()
            });
            for attack in attacks {
                let mut tampered = b.clone();
                if !attack.apply(&mut tampered) {
                    continue;
                }
                assert!(
                    verify::verify(&publication.verifier_params, &query, 10, &tampered).is_err(),
                    "{mechanism:?}: attack '{}' undetected against the booted engine",
                    attack.name()
                );
            }
        }
    }
    fs::remove_dir_all(&dir).ok();
}

/// Happy path: the owner saves the publication, and the server boots it
/// against the owner's public parameters and serves verifying answers
/// over the wire.
#[test]
fn server_boots_from_snapshot_without_rebuilding() {
    let dir = temp_dir("server-happy");
    let path = dir.join("engine.snap");
    let corpus = test_corpus();
    let config = AuthConfig::new(Mechanism::TnraCmht);
    let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
    let publication = owner.publish(&corpus, config);
    publication.auth.save_snapshot(&path).unwrap();

    let handle = Server::start_booted(
        &path,
        &publication.verifier_params,
        &config,
        corpus,
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();

    let mut connection =
        Connection::connect(handle.addr(), publication.verifier_params.clone()).unwrap();
    let query = sample_query(&publication.auth, 9);
    let mut pairs: Vec<_> = query.terms().iter().map(|qt| (qt.term, qt.f_qt)).collect();
    pairs.sort_unstable();
    pairs.dedup_by_key(|p| p.0);
    let (verified, response) = connection.query_terms(&pairs, 5).expect("verified answer");
    assert_eq!(verified.result, response.result);

    handle.shutdown();
    fs::remove_dir_all(&dir).ok();
}

/// The trust anchor: boot serves a snapshot only when its public
/// parameters are the owner's, the ones clients verify against: the
/// manifest, the key and the layout. Each row is a snapshot that passes
/// every integrity check yet that those clients would reject every reply
/// from, so boot refuses it as `Stale`, naming what differs.
#[test]
fn boot_refuses_a_snapshot_that_is_not_the_owners_publication() {
    let dir = temp_dir("anchor");
    let corpus = test_corpus();
    let config = AuthConfig::new(Mechanism::TnraCmht);
    let publication = DataOwner::with_cached_key(TEST_KEY_BITS).publish(&corpus, config);
    let owner = publication.verifier_params;
    let honest = dir.join("owner.snap");
    publication.auth.save_snapshot(&honest).unwrap();
    // A second owner key of the same bit length signs the whole
    // publication: every digest and the manifest signature are sound.
    let intruder = DataOwner::generate(TEST_KEY_BITS, &mut StdRng::seed_from_u64(0x0a11));
    assert_eq!(intruder.key().public_key().modulus_bits(), TEST_KEY_BITS);
    assert_ne!(intruder.key().public_key(), owner.public_key());
    let foreign = dir.join("foreign.snap");
    intruder
        .publish(&corpus, config)
        .auth
        .save_snapshot(&foreign)
        .unwrap();

    boot_authenticated_index(&honest, &config, &owner).expect("the owner's publication boots");
    // The owner's publication under another mechanism, and the owner's
    // publication of a smaller collection: another manifest each.
    let other_mechanism = DataOwner::with_cached_key(TEST_KEY_BITS)
        .publish(&corpus, AuthConfig::new(Mechanism::TnraMht))
        .verifier_params;
    let smaller = DataOwner::with_cached_key(TEST_KEY_BITS)
        .publish(&SyntheticConfig::tiny(119, 41).generate(), config)
        .verifier_params;
    let layout = BlockLayout {
        block_bytes: 2 * owner.layout().block_bytes,
        ..owner.layout()
    };
    let key = owner.public_key().clone();
    let other_layout = VerifierParams::open(key, layout, &owner.publication_bytes()).unwrap();
    let rows = [
        ("public key", &foreign, owner.clone()),
        ("manifest", &honest, other_mechanism),
        ("manifest", &honest, smaller),
        ("layout", &honest, other_layout),
    ];
    for (field, path, params) in rows {
        match boot_authenticated_index(path, &config, &params) {
            Err(PersistError::Stale(why)) => assert_eq!(
                why,
                format!(
                    "snapshot is not the owner's publication: its {field} differs from the owner's"
                )
            ),
            other => panic!("{field}: expected Stale, got {:?}", other.map(drop)),
        }
    }
    fs::remove_dir_all(&dir).ok();
}

/// A snapshot of an **older** publication of the same collection by the
/// same owner — same key, configuration, `m` and `n`, one list edited
/// ([`older_index`]) — passes every integrity check, but it is not the
/// publication the owner's clients hold: boot refuses it as `Stale`,
/// naming the manifest, under every mechanism, and writes nothing.
#[test]
fn older_publication_snapshot_is_refused() {
    let dir = temp_dir("refused-older");
    let corpus = test_corpus();
    for mechanism in Mechanism::ALL {
        let config = AuthConfig::new(mechanism);
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let publication = owner.publish(&corpus, config);
        let older_index =
            older_index(publication.auth.index(), 0).expect("a list lacks a document");
        let older = owner.publish_index(older_index, config, &corpus);
        let path = dir.join(format!("older-{mechanism:?}.snap"));
        older.auth.save_snapshot(&path).unwrap();
        // The older snapshot is sound: it boots against its own
        // parameters.
        boot_authenticated_index(&path, &config, &older.verifier_params).unwrap();
        match assert_refused_and_untouched(
            &path,
            &publication.verifier_params,
            &config,
            corpus.clone(),
            &["Stale"],
        ) {
            PersistError::Stale(why) => assert_eq!(
                why,
                "snapshot is not the owner's publication: its manifest differs from the owner's",
                "{mechanism:?}"
            ),
            other => panic!("{mechanism:?}: {other:?}"),
        }
    }
    fs::remove_dir_all(&dir).ok();
}

/// Boot `path` through `Server::start_booted` against the owner's
/// `params` and assert that it is refused with one of the error kinds in
/// `want`, and that the snapshot file and its manifest sidecar are
/// byte-identical afterwards (a missing one stays missing): a refused
/// boot writes nothing. Returns the refusal.
fn assert_refused_and_untouched(
    path: &Path,
    params: &VerifierParams,
    config: &AuthConfig,
    corpus: Corpus,
    want: &[&str],
) -> PersistError {
    let on_disk = || [path.to_path_buf(), manifest_path(path)].map(|f| fs::read(f).ok());
    let before = on_disk();
    let Err(e) = Server::start_booted(
        path,
        params,
        config,
        corpus,
        "127.0.0.1:0",
        ServerConfig::default(),
    ) else {
        panic!("{}: the server started", path.display());
    };
    let kind = match &e {
        PersistError::Io(_) => "Io",
        PersistError::Corrupt(_) => "Corrupt",
        PersistError::SectionDigest { .. } => "SectionDigest",
        PersistError::Stale(_) => "Stale",
    };
    assert!(want.contains(&kind), "{}: got {e:?}", path.display());
    assert_eq!(
        on_disk(),
        before,
        "{}: a refused boot wrote to disk",
        path.display()
    );
    e
}

/// A snapshot corrupted mid-file, inside a section payload, is refused
/// as `SectionDigest`/`Corrupt`, and the file is left as it was.
#[test]
fn corrupted_snapshot_is_refused_and_left_unchanged() {
    let dir = temp_dir("refused-corrupted");
    let corpus = test_corpus();
    let config = AuthConfig::new(Mechanism::TraMht);
    let publication = DataOwner::with_cached_key(TEST_KEY_BITS).publish(&corpus, config);
    let path = dir.join("corrupted.snap");
    publication.auth.save_snapshot(&path).unwrap();
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&path, &bytes).unwrap();

    assert_refused_and_untouched(
        &path,
        &publication.verifier_params,
        &config,
        corpus,
        &["SectionDigest", "Corrupt"],
    );
    fs::remove_dir_all(&dir).ok();
}

/// A missing snapshot is refused as `Io`, and neither it nor its
/// manifest sidecar is written.
#[test]
fn missing_snapshot_is_refused_and_stays_missing() {
    let dir = temp_dir("refused-missing");
    let corpus = test_corpus();
    let config = AuthConfig::new(Mechanism::TraMht);
    let publication = DataOwner::with_cached_key(TEST_KEY_BITS).publish(&corpus, config);
    let path = dir.join("never-written.snap");

    assert_refused_and_untouched(
        &path,
        &publication.verifier_params,
        &config,
        corpus,
        &["Io"],
    );
    assert!(!path.exists() && !manifest_path(&path).exists());
    fs::remove_dir_all(&dir).ok();
}

/// A snapshot in an older authentication layout — per-term signatures
/// (`ASA2`), stored term and document roots (`ASA3`) or term-id ordered
/// document-MHTs (`ASA4`) — is refused as
/// `Stale`, and the file is left as it was.
#[test]
fn old_layout_snapshot_is_refused_as_stale() {
    let dir = temp_dir("refused-old-layout");
    let corpus = test_corpus();
    let config = AuthConfig::new(Mechanism::TraMht);
    let publication = DataOwner::with_cached_key(TEST_KEY_BITS).publish(&corpus, config);
    for tag in [*b"ASA2", *b"ASA3", *b"ASA4"] {
        let path = dir.join(format!("{}.snap", String::from_utf8_lossy(&tag)));
        publication.auth.save_snapshot(&path).unwrap();
        let (mut sections, _) = load_snapshot_file(&path).unwrap();
        sections[2].0 = tag;
        save_snapshot_file(&path, &encode_snapshot(&sections).unwrap()).unwrap();

        assert_refused_and_untouched(
            &path,
            &publication.verifier_params,
            &config,
            corpus.clone(),
            &["Stale"],
        );
    }
    fs::remove_dir_all(&dir).ok();
}

/// A snapshot of the previous layout, `ASA4`, holds the fields `ASA5`
/// holds, but its signature signs document-MHTs whose leaves were in
/// term-id order, so the refold would reject it as a bad manifest
/// signature. It is refused first as `Stale`, naming its tag.
#[test]
fn asa4_snapshot_is_refused_as_stale_by_name() {
    let dir = temp_dir("refused-asa4");
    let corpus = test_corpus();
    let config = AuthConfig::new(Mechanism::TraCmht);
    let publication = DataOwner::with_cached_key(TEST_KEY_BITS).publish(&corpus, config);
    // The publication's encoding: the 55-byte manifest, the signature's
    // u16 length, the signature.
    let bytes = publication.verifier_params.publication_bytes();
    let len = usize::from(u16::from_le_bytes([bytes[55], bytes[56]]));
    let signature = bytes[57..57 + len].to_vec();
    let path = dir.join("ASA4.snap");
    publication.auth.save_snapshot(&path).unwrap();
    let (mut sections, _) = load_snapshot_file(&path).unwrap();
    // A signature over other document roots: this one, one bit off.
    let auth = &mut sections[2].1;
    let at = auth
        .windows(signature.len())
        .position(|w| w == signature)
        .expect("the section holds the manifest signature");
    auth[at] ^= 0x01;
    save_snapshot_file(&path, &encode_snapshot(&sections).unwrap()).unwrap();
    let boot = |path: &Path| {
        boot_authenticated_index(path, &config, &publication.verifier_params).map(drop)
    };
    match boot(&path) {
        Err(PersistError::Corrupt(why)) => {
            assert!(
                why.starts_with("manifest signature rejected at boot"),
                "{why}"
            )
        }
        other => panic!("ASA5 with a foreign signature: got {other:?}"),
    }

    sections[2].0 = *b"ASA4";
    save_snapshot_file(&path, &encode_snapshot(&sections).unwrap()).unwrap();
    match boot(&path) {
        Err(PersistError::Stale(why)) => assert_eq!(
            why,
            "snapshot holds the older authentication section ASA4; this build reads ASA5"
        ),
        other => panic!("ASA4: got {other:?}"),
    }
    assert_refused_and_untouched(
        &path,
        &publication.verifier_params,
        &config,
        corpus,
        &["Stale"],
    );
    fs::remove_dir_all(&dir).ok();
}

/// A sound snapshot served over a corpus that is not the one it indexes
/// is refused as `Stale` before anything binds: another document count
/// under either mechanism family, or, under TRA, documents of the same
/// count whose contents are not the signed ones.
#[test]
fn snapshot_over_another_corpus_is_refused_as_stale() {
    let dir = temp_dir("refused-corpus");
    let corpus = test_corpus();
    let rows = [
        (
            Mechanism::TnraCmht,
            SyntheticConfig::tiny(119, 41).generate(),
            "the corpus holds 119 documents; the snapshot indexes 120",
        ),
        (
            Mechanism::TraMht,
            SyntheticConfig::tiny(121, 41).generate(),
            "the corpus holds 121 documents; the snapshot indexes 120",
        ),
        (
            Mechanism::TraCmht,
            SyntheticConfig::tiny(120, 42).generate(),
            "differs from the snapshot's signed content",
        ),
    ];
    for (mechanism, served, want) in rows {
        let config = AuthConfig::new(mechanism);
        let publication = DataOwner::with_cached_key(TEST_KEY_BITS).publish(&corpus, config);
        let path = dir.join(format!("{mechanism:?}.snap"));
        publication.auth.save_snapshot(&path).unwrap();
        let refusal = assert_refused_and_untouched(
            &path,
            &publication.verifier_params,
            &config,
            served,
            &["Stale"],
        );
        assert!(
            refusal.to_string().contains(want),
            "{mechanism:?}: {refusal}"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

/// The acceptance bar of the conjunctive tentpole, at the snapshot
/// layer: a booted engine serves conjunctive VOs byte-identical to the
/// cold-built engine's, across every mechanism, and they verify.
#[test]
fn booted_engine_serves_byte_identical_conjunctive_vos() {
    let dir = temp_dir("conjunctive");
    let corpus = test_corpus();
    for mechanism in Mechanism::ALL {
        let config = AuthConfig::new(mechanism);
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let publication = owner.publish(&corpus, config);
        let path = dir.join(format!("{mechanism:?}.snap"));
        publication.auth.save_snapshot(&path).unwrap();
        let booted =
            boot_authenticated_index(&path, &config, &publication.verifier_params).unwrap();

        for seed in [11u64, 12, 13] {
            let query = sample_query(&publication.auth, seed).with_mode(QueryMode::Conjunctive);
            let cold = publication.auth.query(&query, 5, &corpus).unwrap();
            let warm = booted.query(&query, 5, &corpus).unwrap();
            assert_eq!(
                cold.vo, warm.vo,
                "{mechanism:?} seed {seed}: conjunctive VO must be byte-identical"
            );
            assert_eq!(cold.result, warm.result, "{mechanism:?} seed {seed}");
            verify::verify(&publication.verifier_params, &query, 5, &warm).unwrap_or_else(|e| {
                panic!("{mechanism:?}: booted conjunctive response rejected: {e}")
            });
        }
    }
    fs::remove_dir_all(&dir).ok();
}
