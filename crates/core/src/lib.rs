//! # authsearch-core
//!
//! Authenticated text retrieval — a from-scratch reproduction of
//! *Pang & Mouratidis, "Authenticating the Query Results of Text Search
//! Engines", PVLDB 1(1), 2008*.
//!
//! A data owner outsources a document collection and its frequency-ordered
//! inverted index to an untrusted search engine. Every top-r similarity
//! query is answered together with a **verification object** (VO) that
//! lets the user check the result is *complete*, *correctly ranked*, and
//! *free of spurious documents* — exactly what an intact engine would have
//! returned.
//!
//! ## Components
//!
//! * [`types`] — queries, results, the per-document frequency table;
//! * [`pscan`] — the conventional Prioritized Scanning baseline (Fig. 2);
//! * [`tra`] / [`tnra`] — the threshold algorithms (Figs. 5, 10);
//! * [`auth`] — owner-side structures: term-MHTs, chain-MHTs, document-
//!   MHTs, dictionary-MHT, signatures; server-side VO construction with
//!   disk accounting over structures resident from the build or boot;
//!   storage reports;
//! * [`pool`] — the scoped-thread parallel `map` behind the owner build,
//!   the snapshot boot and both ends of a TRA reply (the server's job
//!   queue and its readiness reactor are crate-internal);
//! * [`verify`](mod@verify) — user-side verification (authenticate,
//!   then replay);
//! * [`buddy`] — the buddy-inclusion VO optimization (§3.3.2);
//! * [`owner`] / [`engine`] / [`client`] — the three-party system model;
//! * [`server`] — the long-running network front: framed queries over
//!   TCP, dispatched onto the persistent pool;
//! * [`attacks`] — the threat-model attack catalogue;
//! * [`toy`] — the paper's worked example (Figures 1, 6, 11);
//! * [`metrics`] — per-query cost measurement for the evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use authsearch_core::{AuthConfig, Client, DataOwner, Mechanism, Query, SearchEngine};
//! use authsearch_corpus::CorpusBuilder;
//!
//! // The data owner indexes and signs the collection…
//! let corpus = CorpusBuilder::new()
//!     .min_df(1)
//!     .add_text("the night keeper keeps the keep in the town")
//!     .add_text("in the big old house in the big old gown")
//!     .build();
//! let config = AuthConfig::new(Mechanism::TnraCmht);
//! let owner = DataOwner::with_cached_key(512); // paper uses 1024; tests favour speed
//! let publication = owner.publish(&corpus, config);
//!
//! // …hands index + collection to the (untrusted) search engine…
//! let engine = SearchEngine::new(publication.auth, corpus);
//! let query = Query::from_text(engine.corpus(), engine.auth().index(), "night keeper").unwrap();
//! let response = engine.search(&query, 5);
//!
//! // …and the user verifies each result against the owner's public key,
//! // recomputing the query-side weights from the posed `(t, f_{Q,t})`
//! // pairs and the signed `f_t` values.
//! let pairs: Vec<_> = query.terms().iter().map(|qt| (qt.term, qt.f_qt)).collect();
//! let client = Client::new(publication.verifier_params);
//! let verified = client.verify_terms(&pairs, 5, &response).expect("honest result");
//! assert_eq!(verified.result, response.result);
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod attacks;
pub mod auth;
pub mod baseline;
pub mod buddy;
pub mod client;
mod conjunctive;
pub mod engine;
pub mod metrics;
pub mod owner;
pub mod pool;
pub mod pscan;
pub(crate) mod publication;
#[cfg(unix)]
pub(crate) mod reactor;
#[cfg(unix)]
pub mod server;
pub mod tnra;
pub mod toy;
pub mod tra;
pub mod types;
pub mod verify;
pub mod vo;
pub mod wire;

pub use auth::serve::QueryResponse;
pub use auth::{boot_authenticated_index, AuthConfig, AuthenticatedIndex, CacheStats};
pub use client::{phrase_filter, Client, ClientNetError, Connection, RetryPolicy};
pub use engine::SearchEngine;
pub use metrics::{measure, ServerMetricsSnapshot, TransportStatsSnapshot};
pub use owner::{DataOwner, Publication};
#[cfg(unix)]
pub use server::{Server, ServerConfig, ServerHandle};
pub use types::{DocTable, Query, QueryError, QueryMode, QueryTerm};
pub use verify::{verify, VerifiedResult, VerifierParams, VerifyError};
pub use vo::{Mechanism, VoSize};
