//! The third-party search engine (paper §3.1 system model).
//!
//! Operates the collection and authenticated index it received from the
//! data owner: accepts natural-language queries, runs the threshold
//! algorithm, and returns results with their verification objects. The
//! engine is the *untrusted* party — [`crate::attacks`] models what a
//! compromised instance might return instead.
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
use crate::types::Query;
use authsearch_corpus::{Corpus, TermId};

/// How one token of a natural-language query resolved against the
/// dictionary. `term: None` means the token is out of dictionary (or a
/// stopword-free token the collection never saw); the system model
/// drops it from a *disjunctive* query, but a *conjunctive* query that
/// names an unindexed word can match nothing — callers must see the
/// failure instead of a silently widened query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenResolution {
    /// The normalized token as tokenized from the query text.
    pub token: String,
    /// Its dictionary id, or `None` when unindexed.
    pub term: Option<TermId>,
}

/// The full outcome of parsing a natural-language query: the usable
/// [`Query`] (resolved terms only) *plus* the per-token resolution
/// record. The old `parse_query -> Query` silently dropped unknown
/// tokens, which is fine for OR semantics but silently **widens** an
/// AND query — this struct is the fix.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedQuery {
    /// The query over the tokens that resolved (deduplicated, with
    /// `f_{Q,t}` counting repetitions).
    pub query: Query,
    /// One entry per token of the input, in text order.
    pub tokens: Vec<TokenResolution>,
}

impl ParsedQuery {
    /// Did every token resolve against the dictionary?
    pub fn fully_resolved(&self) -> bool {
        self.tokens.iter().all(|t| t.term.is_some())
    }

    /// The tokens that did not resolve, in text order.
    pub fn unresolved(&self) -> Vec<&str> {
        self.tokens
            .iter()
            .filter(|t| t.term.is_none())
            .map(|t| t.token.as_str())
            .collect()
    }
}

/// A running search engine instance.
pub struct SearchEngine {
    auth: AuthenticatedIndex,
    corpus: Corpus,
}

impl SearchEngine {
    /// Stand up an engine from the owner's transfer.
    pub fn new(auth: AuthenticatedIndex, corpus: Corpus) -> SearchEngine {
        assert_eq!(
            auth.index().num_docs(),
            corpus.num_docs(),
            "index/collection mismatch"
        );
        SearchEngine { auth, corpus }
    }

    /// Parse a natural-language query against the dictionary. The
    /// returned [`ParsedQuery`] carries both the usable query (terms not
    /// in the dictionary are dropped, per the system model) and the
    /// per-token resolution record, so a caller with AND semantics can
    /// tell a narrowed parse from a complete one.
    pub fn parse_query(&self, text: &str) -> ParsedQuery {
        let tokens: Vec<TokenResolution> = authsearch_corpus::tokenizer::tokenize(text)
            .map(|token| {
                let term = self.corpus.term_id(&token);
                TokenResolution { token, term }
            })
            .collect();
        ParsedQuery {
            query: Query::from_text(&self.corpus, self.auth.index(), text),
            tokens,
        }
    }

    /// Answer a parsed query: the top-`r` documents plus the VO.
    pub fn search(&self, query: &Query, r: usize) -> QueryResponse {
        self.auth.query(query, r, &self.corpus)
    }

    /// Answer a parsed query with **AND semantics**: only documents
    /// containing every query term are candidates, and the VO proves the
    /// intersection is exact (see
    /// [`AuthenticatedIndex::query_conjunctive`]).
    pub fn search_conjunctive(&self, query: &Query, r: usize) -> QueryResponse {
        self.auth.query_conjunctive(query, r, &self.corpus)
    }

    /// Convenience: parse then search (disjunctive).
    pub fn search_text(&self, text: &str, r: usize) -> (Query, QueryResponse) {
        let query = self.parse_query(text).query;
        let response = self.search(&query, r);
        (query, response)
    }

    /// Parse then search with AND semantics. A query naming an
    /// **unindexed** token can match nothing, so instead of silently
    /// widening the intersection (the old lossy parse), the engine
    /// serves the empty conjunctive query — a trivially verifiable
    /// empty result — and the returned [`ParsedQuery`] tells the caller
    /// which token sank the query.
    pub fn search_text_conjunctive(&self, text: &str, r: usize) -> (ParsedQuery, QueryResponse) {
        let parsed = self.parse_query(text);
        let query = if parsed.fully_resolved() {
            parsed.query.clone()
        } else {
            Query::default()
        };
        let response = self.search_conjunctive(&query, r);
        (parsed, response)
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
        let config = AuthConfig::new(mechanism);
        let publication = owner.publish(&corpus, config);
        (
            SearchEngine::new(publication.auth, corpus),
            publication.verifier_params,
        )
    }

    #[test]
    fn text_search_end_to_end_all_mechanisms() {
        for mechanism in Mechanism::ALL {
            let (engine, params) = engine(mechanism);
            let (query, response) = engine.search_text("night keeper keep", 3);
            assert!(!response.result.entries.is_empty(), "{}", mechanism.name());
            let verified = verify::verify(&params, &query, 3, &response)
                .unwrap_or_else(|e| panic!("{}: {e}", mechanism.name()));
            assert_eq!(verified.result, response.result);
        }
    }

    #[test]
    fn unknown_words_are_ignored() {
        let (engine, _) = engine(Mechanism::TnraMht);
        let query = engine.parse_query("keeper xyzzyqwerty").query;
        assert_eq!(query.len(), 1);
    }

    #[test]
    fn parse_reports_unresolved_tokens_instead_of_dropping_them() {
        // Regression: parse_query used to return a bare Query, silently
        // dropping out-of-dictionary tokens — which widens an AND query.
        let (engine, _) = engine(Mechanism::TnraMht);
        let parsed = engine.parse_query("keeper xyzzyqwerty night");
        assert_eq!(parsed.query.len(), 2);
        assert!(!parsed.fully_resolved());
        assert_eq!(parsed.unresolved(), vec!["xyzzyqwerty"]);
        assert_eq!(parsed.tokens.len(), 3);
        assert!(parsed.tokens[0].term.is_some());
        assert_eq!(parsed.tokens[1].token, "xyzzyqwerty");
        assert!(parsed.tokens[1].term.is_none());
        let clean = engine.parse_query("keeper night");
        assert!(clean.fully_resolved());
        assert!(clean.unresolved().is_empty());
    }

    #[test]
    fn conjunctive_text_search_with_unindexed_term_is_provably_empty() {
        // An AND query naming an unindexed word matches nothing; the
        // engine must serve (and the client must be able to verify) an
        // EMPTY result rather than the intersection of the other terms.
        for mechanism in [Mechanism::TraMht, Mechanism::TnraCmht] {
            let (engine, params) = engine(mechanism);
            let (parsed, response) = engine.search_text_conjunctive("night xyzzyqwerty", 3);
            assert!(!parsed.fully_resolved());
            assert!(response.result.entries.is_empty(), "{}", mechanism.name());
            verify::verify_conjunctive(&params, &Query::default(), 3, &response)
                .unwrap_or_else(|e| panic!("{}: {e}", mechanism.name()));
            // The fully-resolved parse serves the real intersection.
            let (parsed, response) = engine.search_text_conjunctive("night keeper", 3);
            assert!(parsed.fully_resolved());
            assert!(!response.result.entries.is_empty());
            verify::verify_conjunctive(&params, &parsed.query, 3, &response)
                .unwrap_or_else(|e| panic!("{}: {e}", mechanism.name()));
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_corpus_rejected() {
        let (engine, _) = engine(Mechanism::TnraMht);
        let other = CorpusBuilder::new().min_df(1).add_text("one doc").build();
        let auth = {
            // Rebuild a second engine and steal its auth artifact.
            let (e2, _) = super::tests::engine(Mechanism::TnraMht);
            let SearchEngine { auth, .. } = e2;
            auth
        };
        let _ = engine; // silence unused
        SearchEngine::new(auth, other);
    }
}
