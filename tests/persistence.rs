//! Persistence integration: the owner's transfer artifact (the index)
//! survives a round trip through the binary format, and an engine
//! rebuilt from the persisted index produces byte-identical VOs.

use authsearch_core::{verify, AuthConfig, DataOwner, Mechanism, Query, VerifierParams};
use authsearch_corpus::SyntheticConfig;
use authsearch_crypto::keys::TEST_KEY_BITS;
use authsearch_index::persist;
use authsearch_index::{build_index, OkapiParams};

#[test]
fn engine_rebuilt_from_persisted_index_is_equivalent() {
    let corpus = SyntheticConfig::tiny(150, 3).generate();
    let index = build_index(&corpus, OkapiParams::default());

    // Round-trip the index through the binary format.
    let mut buf = Vec::new();
    persist::write_index(&mut buf, &index).unwrap();
    let restored = persist::read_index(&buf).unwrap();

    let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
    let config = AuthConfig::new(Mechanism::TnraCmht);
    let pub_a = owner.publish_index(index, config, &corpus);
    let pub_b = owner.publish_index(restored, config, &corpus);

    let terms =
        authsearch_corpus::workload::synthetic(pub_a.auth.index().num_terms(), 1, 3, 17).remove(0);
    let query = Query::from_term_ids(pub_a.auth.index(), &terms);
    let resp_a = pub_a.auth.query(&query, 10, &corpus).unwrap();
    let resp_b = pub_b.auth.query(&query, 10, &corpus).unwrap();

    // Identical artifacts → identical results and identical VOs.
    assert_eq!(resp_a.result, resp_b.result);
    assert_eq!(resp_a.vo, resp_b.vo);
    assert_eq!(resp_a.io, resp_b.io);

    verify::verify(&pub_a.verifier_params, &query, 10, &resp_b).unwrap();
}

#[test]
fn file_level_roundtrip_in_tempdir() {
    // The index travels to disk as the `ASIX` section of a snapshot
    // container, committed through the crash-safe file protocol.
    let dir = std::env::temp_dir().join("authsearch-persistence-it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.asnp");

    let corpus = SyntheticConfig::tiny(80, 12).generate();
    let index = build_index(&corpus, OkapiParams::default());
    let mut payload = Vec::new();
    persist::write_index(&mut payload, &index).unwrap();
    let bytes = persist::encode_snapshot(&[(*b"ASIX", payload)]).unwrap();
    persist::save_snapshot_file(&path, &bytes).unwrap();

    let (sections, _) = persist::load_snapshot_file(&path).unwrap();
    let [(tag, payload)] = sections.as_slice() else {
        panic!("expected one section, got {}", sections.len());
    };
    assert_eq!(tag, b"ASIX");
    let index2 = persist::read_index(payload).unwrap();
    assert_eq!(index2.total_entries(), index.total_entries());
    for t in 0..index.num_terms() as u32 {
        assert_eq!(index2.list(t), index.list(t), "term {t}");
    }

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(persist::manifest_path(&path)).ok();
}

#[test]
fn public_key_distribution_roundtrip() {
    // The owner's public key travels to clients out of band; its byte
    // form must verify the publication signed before serialization,
    // which the client then verifies replies against.
    let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
    let corpus = SyntheticConfig::tiny(60, 4).generate();
    let config = AuthConfig::new(Mechanism::TnraMht);
    let publication = owner.publish(&corpus, config);

    let owner_params = &publication.verifier_params;
    let key_bytes = owner_params.public_key().to_bytes();
    let restored = authsearch_crypto::RsaPublicKey::from_bytes(&key_bytes).unwrap();
    let params = VerifierParams::open(
        restored,
        owner_params.layout(),
        &owner_params.publication_bytes(),
    )
    .unwrap();

    let terms =
        authsearch_corpus::workload::synthetic(publication.auth.index().num_terms(), 1, 2, 5)
            .remove(0);
    let query = Query::from_term_ids(publication.auth.index(), &terms);
    let response = publication.auth.query(&query, 5, &corpus).unwrap();
    verify::verify(&params, &query, 5, &response).unwrap();
}

// ---- v2 snapshot container (PR 6) -----------------------------------------

mod snapshot_container {
    use authsearch_index::persist::{self, PersistError, SectionTag};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Deterministic arbitrary section list: tags and payload bytes are
    /// a pure function of `seed`.
    fn arbitrary_sections(seed: u64, count: usize, max_len: usize) -> Vec<(SectionTag, Vec<u8>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let mut tag = [0u8; 4];
                rng.fill_bytes(&mut tag);
                let len = rng.gen_range(0..=max_len);
                let mut payload = vec![0u8; len];
                rng.fill_bytes(&mut payload);
                (tag, payload)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn container_roundtrip(seed in any::<u64>(), count in 0usize..6, max_len in 0usize..512) {
            let sections = arbitrary_sections(seed, count, max_len);
            let bytes = persist::encode_snapshot(&sections).unwrap();
            let back = persist::read_snapshot(&bytes).unwrap();
            prop_assert_eq!(back, sections);
        }

        #[test]
        fn every_flip_in_every_section_is_caught(seed in any::<u64>()) {
            // Three sections of distinct sizes; flip every payload byte
            // of each and assert the *owning* section's digest trailer
            // reports it — corruption is caught and localized.
            let sections = vec![
                (*b"AAAA", arbitrary_sections(seed, 1, 40).remove(0).1),
                (*b"BBBB", arbitrary_sections(seed ^ 1, 1, 80).remove(0).1),
                (*b"CCCC", arbitrary_sections(seed ^ 2, 1, 20).remove(0).1),
            ];
            let bytes = persist::encode_snapshot(&sections).unwrap();
            // Walk the framing to find each payload's byte range:
            // header = 4 magic + 4 version + 4 count; per section:
            // 4 tag + 8 len + payload + 16 digest.
            let mut at = 12usize;
            for (tag, payload) in &sections {
                let start = at + 12;
                for i in 0..payload.len() {
                    let mut evil = bytes.clone();
                    evil[start + i] ^= 1 << (i % 8);
                    match persist::read_snapshot(&evil) {
                        Err(PersistError::SectionDigest { section }) => {
                            prop_assert_eq!(
                                section.as_bytes(), &tag[..],
                                "flip at byte {} blamed the wrong section", i
                            );
                        }
                        other => prop_assert!(
                            false,
                            "payload flip at byte {} of {:?} not caught: {:?}",
                            i, String::from_utf8_lossy(tag), other.map(|_| ())
                        ),
                    }
                }
                at = start + payload.len() + 16;
            }
        }

        #[test]
        fn every_truncation_is_an_error(seed in any::<u64>(), count in 1usize..4) {
            let sections = arbitrary_sections(seed, count, 64);
            let bytes = persist::encode_snapshot(&sections).unwrap();
            for cut in 0..bytes.len() {
                prop_assert!(
                    persist::read_snapshot(&bytes[..cut]).is_err(),
                    "truncation to {} bytes parsed", cut
                );
            }
        }
    }
}
