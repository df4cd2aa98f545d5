//! Robustness fuzzing: arbitrary corruption of the VO wire encoding must
//! never panic the decoder or the verifier, and any corruption that still
//! decodes must be rejected (every byte of the encoding is covered by a
//! signature, directly or through a digest).

use authsearch_core::{verify, wire, AuthConfig, DataOwner, Mechanism, Query};
use authsearch_corpus::SyntheticConfig;
use authsearch_crypto::keys::TEST_KEY_BITS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn single_byte_corruptions_never_verify() {
    let corpus = SyntheticConfig::tiny(150, 31).generate();
    let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
    let mut rng = StdRng::seed_from_u64(0xfacade);

    for mechanism in Mechanism::ALL {
        let config = AuthConfig::new(mechanism);
        let publication = owner.publish(&corpus, config);
        let terms =
            authsearch_corpus::workload::synthetic(publication.auth.index().num_terms(), 1, 3, 77)
                .remove(0);
        let query = Query::from_term_ids(publication.auth.index(), &terms);
        let honest = publication.auth.query(&query, 10, &corpus).unwrap();
        let encoded = wire::encode(&honest.vo).expect("VO fits the wire format");

        // Sanity: the unmutated encoding round-trips and verifies.
        let decoded = wire::decode(&encoded).expect("honest VO decodes");
        let mut replayed = honest.clone();
        replayed.vo = decoded;
        verify::verify(&publication.verifier_params, &query, 10, &replayed)
            .expect("honest VO verifies after roundtrip");

        for _ in 0..120 {
            let mut mutated = encoded.clone();
            let idx = rng.gen_range(0..mutated.len());
            let bit = 1u8 << rng.gen_range(0..8);
            mutated[idx] ^= bit;

            // Decoding may fail (fine) — but must not panic.
            let Ok(vo) = wire::decode(&mutated) else {
                continue;
            };
            if vo == honest.vo {
                continue; // mutation landed in unreachable padding (none today)
            }
            let mut tampered = honest.clone();
            tampered.vo = vo;
            let outcome = verify::verify(&publication.verifier_params, &query, 10, &tampered);
            assert!(
                outcome.is_err(),
                "{}: byte {idx} bit {bit:#x} flipped yet the VO verified",
                mechanism.name()
            );
        }
    }
}

#[test]
fn random_garbage_never_panics_decoder() {
    let mut rng = StdRng::seed_from_u64(0xbadcafe);
    for len in [0usize, 1, 4, 16, 100, 1000] {
        for _ in 0..50 {
            let junk: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let _ = wire::decode(&junk); // must not panic
        }
    }
    // Valid magic + garbage body.
    for _ in 0..100 {
        let mut junk = b"AVO1".to_vec();
        let extra = rng.gen_range(0..300);
        junk.extend((0..extra).map(|_| rng.gen::<u8>()));
        let _ = wire::decode(&junk);
    }
}
