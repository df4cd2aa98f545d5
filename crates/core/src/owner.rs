//! The data owner (paper §3.1 system model).
//!
//! The owner manages the collection, builds the inverted index and all
//! authentication structures, signs one manifest over their roots, and
//! transfers everything to the third-party search engine while
//! broadcasting the public verification parameters to users. The
//! transfer is a snapshot ([`AuthenticatedIndex::save_snapshot`]); the
//! engine boots it against the same parameters
//! ([`crate::Server::start_booted`]) and never holds the signing key.
//!
//! Building is the owner's dominant one-off cost (hashing and folding
//! every list and, under TRA, every document, then one RSA signature),
//! so [`DataOwner::publish`] runs it on the parallel build path sized by
//! [`AuthConfig::threads`] — the default uses every core, `threads: 1`
//! is the paper's sequential model, and the published artifact is
//! bit-identical either way.

use crate::auth::{AuthConfig, AuthenticatedIndex};
use crate::verify::VerifierParams;
use authsearch_corpus::Corpus;
use authsearch_crypto::keys::cached_keypair;
use authsearch_crypto::RsaPrivateKey;
use authsearch_index::{build_index, InvertedIndex, OkapiParams};
use rand::Rng;

/// The data owner: holds the signing key.
pub struct DataOwner {
    key: RsaPrivateKey,
}

/// Everything a publication produces: the engine-side artifact and the
/// user-side public parameters.
pub struct Publication {
    /// What is transferred to the (untrusted) search engine.
    pub auth: AuthenticatedIndex,
    /// What is broadcast to users.
    pub verifier_params: VerifierParams,
}

impl DataOwner {
    /// Owner with a freshly generated key.
    pub fn generate<R: Rng>(key_bits: usize, rng: &mut R) -> DataOwner {
        DataOwner {
            key: RsaPrivateKey::generate(key_bits, rng),
        }
    }

    /// Owner with the process-wide cached key of the given size (fast
    /// path for tests, examples, and benchmarks).
    pub fn with_cached_key(key_bits: usize) -> DataOwner {
        DataOwner {
            key: cached_keypair(key_bits),
        }
    }

    /// The signing key (exposed for advanced flows; handle with care).
    pub fn key(&self) -> &RsaPrivateKey {
        &self.key
    }

    /// Index a corpus under the paper's Okapi parameters and build +
    /// sign the authentication structures.
    pub fn publish(&self, corpus: &Corpus, config: AuthConfig) -> Publication {
        let index = build_index(corpus, OkapiParams::default());
        self.publish_index(index, config, corpus)
    }

    /// Publish a pre-built index (used by the toy example, whose index is
    /// given by the paper rather than derived from text).
    pub fn publish_index<C: crate::auth::ContentProvider>(
        &self,
        index: InvertedIndex,
        config: AuthConfig,
        contents: &C,
    ) -> Publication {
        let auth = AuthenticatedIndex::build(index, &self.key, config, contents);
        Publication {
            verifier_params: auth.verifier_params(),
            auth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vo::Mechanism;
    use authsearch_corpus::SyntheticConfig;
    use authsearch_crypto::keys::TEST_KEY_BITS;

    #[test]
    fn publish_produces_consistent_parameters() {
        let corpus = SyntheticConfig::tiny(60, 3).generate();
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let config = AuthConfig::new(Mechanism::TnraCmht);
        let publication = owner.publish(&corpus, config);
        assert_eq!(publication.verifier_params.num_docs, 60);
        assert_eq!(publication.verifier_params.mechanism, Mechanism::TnraCmht);
        assert_eq!(
            publication.auth.public_key(),
            &publication.verifier_params.public_key
        );
    }

    #[test]
    fn publish_is_thread_count_invariant() {
        // The publication an engine receives must not depend on how many
        // cores the owner's build machine had.
        let corpus = SyntheticConfig::tiny(40, 3).generate();
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let base = AuthConfig {
            threads: 1,
            ..AuthConfig::new(Mechanism::TraCmht)
        };
        let sequential = owner.publish(&corpus, base);
        let parallel = owner.publish(&corpus, AuthConfig { threads: 4, ..base });
        for t in 0..sequential.auth.index().num_terms() as u32 {
            assert_eq!(sequential.auth.term_root(t), parallel.auth.term_root(t));
        }
        assert_eq!(
            sequential.verifier_params.public_key,
            parallel.verifier_params.public_key
        );
    }

    #[test]
    fn generated_owner_has_distinct_key() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let a = DataOwner::generate(256, &mut rng);
        let b = DataOwner::generate(256, &mut rng);
        assert_ne!(a.key.public_key(), b.key.public_key());
    }
}
