//! # authsearch
//!
//! Umbrella facade over the authenticated text-search workspace — a
//! from-scratch reproduction of *Pang & Mouratidis, "Authenticating the
//! Query Results of Text Search Engines", PVLDB 1(1), 2008* — growing
//! into a production-scale authenticated search engine.
//!
//! The implementation lives in four layer crates, re-exported here:
//!
//! * [`crypto`] (`authsearch-crypto`) — digests, Merkle/chain MHTs,
//!   bignum arithmetic with Montgomery modular exponentiation, RSA;
//! * [`corpus`] (`authsearch-corpus`) — tokenization, synthetic
//!   WSJ-like corpora, query workloads;
//! * [`index`] (`authsearch-index`) — Okapi BM25 impact-ordered
//!   inverted indexes, block layout, the simulated testbed disk;
//! * [`core`] (`authsearch-core`) — the three-party protocol: owner
//!   signing, engine-side VO construction (over authentication
//!   structures resident from the build), and user-side verification.
//!
//! Workspace-level `tests/` and `examples/` exercise the crates through
//! this facade's dependency edges.

#![warn(missing_docs)]

pub use authsearch_core as core;
pub use authsearch_corpus as corpus;
pub use authsearch_crypto as crypto;
pub use authsearch_index as index;

/// Convenience prelude mirroring the most common imports.
pub mod prelude {
    pub use authsearch_core::{
        phrase_filter, AuthConfig, AuthenticatedIndex, Client, Connection, DataOwner, Mechanism,
        ParsedQuery, Query, QueryMode, QueryResponse, RetryPolicy, SearchEngine, Server,
        ServerConfig, ServerCore, VerifierParams,
    };
    pub use authsearch_corpus::{Corpus, CorpusBuilder, SyntheticConfig};
    pub use authsearch_crypto::{Digest, RsaPrivateKey, RsaPublicKey};
    pub use authsearch_index::{build_index, InvertedIndex, OkapiParams};
}
