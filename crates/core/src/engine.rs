//! The third-party search engine (paper §3.1 system model).
//!
//! Operates the collection and authenticated index it received from the
//! data owner: answers queries (a natural-language one is parsed by
//! [`Query::from_text`]), runs the threshold algorithm, and returns
//! results with their verification objects. The engine is the
//! *untrusted* party — [`crate::attacks`] models what a compromised
//! instance might return instead.
//!
//! The artifact handed over by [`crate::DataOwner::publish`] is
//! identical whatever [`crate::AuthConfig::threads`] the owner built it
//! with, so the engine (and the user's verifier) never needs to know the
//! owner's build parallelism. Serving is fully concurrent: the
//! structures behind [`AuthenticatedIndex`] are resident from the build
//! and read without a lock, so any number of threads may call
//! [`SearchEngine::search`] on one engine at once, each getting the
//! response the sequential path would.

use crate::auth::serve::QueryResponse;
use crate::auth::AuthenticatedIndex;
use crate::types::{Query, QueryMode};
use authsearch_corpus::Corpus;

/// A running search engine instance.
pub struct SearchEngine {
    auth: AuthenticatedIndex,
    corpus: Corpus,
}

impl SearchEngine {
    /// Stand up an engine from the owner's transfer.
    ///
    /// # Panics
    ///
    /// When the index and the collection hold different numbers of
    /// documents ("index/collection mismatch").
    /// `AuthenticatedIndex::check_collection` is the typed check, which
    /// `Server::start_booted` runs before it builds an engine.
    pub fn new(auth: AuthenticatedIndex, corpus: Corpus) -> SearchEngine {
        assert_eq!(
            auth.index().num_docs(),
            corpus.num_docs(),
            "index/collection mismatch"
        );
        SearchEngine { auth, corpus }
    }

    /// Answer a query under its own mode: the top-`r` documents plus the
    /// VO ([`AuthenticatedIndex::query`]).
    ///
    /// # Panics
    ///
    /// When [`AuthenticatedIndex::query`] refuses the query.
    pub fn search(&self, query: &Query, r: usize) -> QueryResponse {
        self.auth
            .query(query, r, &self.corpus)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::search`] with the query posed as
    /// [`QueryMode::Conjunctive`]. Kept for the benchmark driver until it
    /// poses the mode on the query itself (ROADMAP item 1 deletes it).
    ///
    /// # Panics
    ///
    /// As [`Self::search`].
    pub fn search_conjunctive(&self, query: &Query, r: usize) -> QueryResponse {
        self.search(&query.clone().with_mode(QueryMode::Conjunctive), r)
    }

    /// The authenticated index (e.g. for space reports).
    pub fn auth(&self) -> &AuthenticatedIndex {
        &self.auth
    }

    /// The hosted collection.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthConfig;
    use crate::owner::DataOwner;
    use crate::verify;
    use crate::vo::Mechanism;
    use authsearch_corpus::CorpusBuilder;
    use authsearch_crypto::keys::TEST_KEY_BITS;

    fn engine(mechanism: Mechanism) -> (SearchEngine, crate::verify::VerifierParams) {
        let corpus = CorpusBuilder::new()
            .min_df(1)
            .add_text("the night keeper keeps the keep in the town")
            .add_text("in the big old house in the big old gown")
            .add_text("the house in the town had the big old keep")
            .add_text("where the old night keeper never did sleep")
            .add_text("the night keeper keeps the keep in the night")
            .build();
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let publication = owner.publish(&corpus, AuthConfig::new(mechanism));
        (
            SearchEngine::new(publication.auth, corpus),
            publication.verifier_params,
        )
    }

    #[test]
    fn text_search_end_to_end_all_mechanisms() {
        // A natural-language query parsed by `from_text` is answered and
        // its reply verifies, under every mechanism — also when a word is
        // repeated (f_{Q,t} = 2) or out of the dictionary (dropped).
        for mechanism in Mechanism::ALL {
            let (engine, params) = engine(mechanism);
            for text in [
                "night keeper keep",
                "keeper xyzzyqwerty",
                "night keeper NIGHT",
            ] {
                let query = Query::from_text(engine.corpus(), engine.auth().index(), text).unwrap();
                let response = engine.search(&query, 3);
                let what = format!("{} '{text}'", mechanism.name());
                assert!(!response.result.entries.is_empty(), "{what}");
                let verified = verify::verify(&params, &query, 3, &response)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(verified.result, response.result, "{what}");
            }
        }
    }

    #[test]
    fn unknown_words_are_ignored() {
        let (engine, _) = engine(Mechanism::TnraMht);
        let corpus = engine.corpus();
        let query = Query::from_text(corpus, engine.auth().index(), "keeper xyzzyqwerty").unwrap();
        assert_eq!(query.terms().len(), 1);
        assert_eq!(query.terms()[0].term, corpus.term_id("keeper").unwrap());
        let query = Query::from_text(corpus, engine.auth().index(), "night keeper NIGHT").unwrap();
        let night = query
            .terms()
            .iter()
            .find(|qt| qt.term == corpus.term_id("night").unwrap())
            .unwrap();
        assert_eq!((query.terms().len(), night.f_qt), (2, 2));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_corpus_rejected() {
        let corpus = CorpusBuilder::new()
            .min_df(1)
            .add_text("the night keeper keeps the keep in the town")
            .add_text("in the big old house in the big old gown")
            .build();
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let publication = owner.publish(&corpus, AuthConfig::new(Mechanism::TnraMht));
        let other = CorpusBuilder::new().min_df(1).add_text("one doc").build();
        SearchEngine::new(publication.auth, other);
    }
}
