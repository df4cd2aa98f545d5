//! Shared types: queries, results, processing outcomes, and the
//! document-side frequency table.

use crate::access::AccessError;
use authsearch_corpus::{Corpus, DocId, TermId};
use authsearch_index::InvertedIndex;
use std::collections::HashMap;
use std::fmt;

/// How a multi-term query combines its terms.
///
/// The paper's query model is purely disjunctive (top-r by the summed
/// Okapi similarity, §2). Conjunctive mode keeps the identical scoring
/// formula but admits only documents that contain *every* query term,
/// and its VO additionally proves that intersection is exactly right.
/// A [`Query`] carries its mode, and [`crate::verify::verify`] checks a
/// reply under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryMode {
    /// OR-semantics: any document containing at least one query term is
    /// a candidate (the paper's model).
    Disjunctive,
    /// AND-semantics: only documents containing all query terms are
    /// candidates, and absence from the result must be provable.
    Conjunctive,
}

/// One search term of a query with its query-side weight.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTerm {
    /// Dictionary term id.
    pub term: TermId,
    /// `f_{Q,t}` — occurrences of the term in the query.
    pub f_qt: u32,
    /// `w_{Q,t}` — the query-side Okapi weight.
    pub wq: f64,
}

/// Why a query cannot be built ([`Query::new`] and the builders), or
/// cannot be answered by an index ([`crate::AuthenticatedIndex::check`]).
/// The server sends its `Display` text in a `BAD_QUERY` reply.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// No term: nothing was posed, or no word of a text is in the
    /// dictionary.
    Empty,
    /// Wire pairs whose ids do not strictly ascend ([`Query::from_pairs`]).
    NotAscending,
    /// A term id that occurs twice.
    DuplicateTerm(TermId),
    /// A term posed with `f_{Q,t} = 0`.
    ZeroFrequency(TermId),
    /// A `w_{Q,t}` that is not finite and positive: the threshold bounds
    /// of Figures 5 and 10 hold only for non-negative term scores.
    BadWeight {
        /// The term.
        term: TermId,
        /// Its weight.
        wq: f64,
    },
    /// A term id outside the index's dictionary of `m` terms.
    OutOfDictionary {
        /// The term.
        term: TermId,
        /// Dictionary size.
        m: usize,
    },
    /// A disjunctive TNRA query of more than
    /// [`crate::tnra::MAX_QUERY_TERMS`] terms.
    TooManyTerms {
        /// Terms posed.
        q: usize,
        /// The limit.
        max: usize,
    },
    /// The engine's scan refused a checked query, which only a list
    /// holding a negative or NaN weight makes TNRA's per-pop guard do.
    Refused(AccessError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Empty => write!(f, "no query terms in dictionary"),
            QueryError::NotAscending => {
                write!(f, "query terms must be strictly ascending (no duplicates)")
            }
            QueryError::DuplicateTerm(t) => write!(f, "term {t} occurs twice"),
            QueryError::ZeroFrequency(t) => write!(f, "term {t} has f_qt = 0"),
            QueryError::BadWeight { term, wq } => {
                write!(
                    f,
                    "term {term} has query weight {wq}, not a positive number"
                )
            }
            QueryError::OutOfDictionary { term, m } => {
                write!(f, "term {term} out of dictionary (m = {m})")
            }
            QueryError::TooManyTerms { q, max } => {
                write!(f, "{q} query terms; TNRA evaluates at most {max}")
            }
            QueryError::Refused(e) => write!(f, "the index refused the query: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A query `Q = {⟨t, f_{Q,t}⟩}` with its weights `w_{Q,t}`, posed under
/// one [`QueryMode`]. It is checked when it is built: every builder
/// routes into [`Query::new`], so a `Query` has at least one term,
/// distinct ids, every `f_{Q,t} ≥ 1` and every `w_{Q,t}` finite and
/// positive. The facts that depend on an index are
/// [`crate::AuthenticatedIndex::check`]'s.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    terms: Vec<QueryTerm>,
    mode: QueryMode,
}

impl Query {
    /// Check `terms` and pose them under `mode`. The terms keep the
    /// caller's order, the list index the threshold loops break ties by
    /// (Figure 6 poses "sleeps in the dark" in that order).
    pub fn new(terms: Vec<QueryTerm>, mode: QueryMode) -> Result<Query, QueryError> {
        if terms.is_empty() {
            return Err(QueryError::Empty);
        }
        for qt in &terms {
            if qt.f_qt == 0 {
                return Err(QueryError::ZeroFrequency(qt.term));
            }
            if !(qt.wq.is_finite() && qt.wq > 0.0) {
                return Err(QueryError::BadWeight {
                    term: qt.term,
                    wq: qt.wq,
                });
            }
        }
        // Ascending ids are distinct; any other order is sorted aside.
        if terms.windows(2).any(|w| w[0].term >= w[1].term) {
            let mut ids: Vec<TermId> = terms.iter().map(|qt| qt.term).collect();
            ids.sort_unstable();
            if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
                return Err(QueryError::DuplicateTerm(w[0]));
            }
        }
        Ok(Query { terms, mode })
    }

    /// Build from `(t, f_{Q,t})` pairs in the wire's form (strictly
    /// ascending ids, [`crate::wire::Request::Terms`]), weighted from the
    /// index dictionary.
    pub fn from_pairs(
        index: &InvertedIndex,
        pairs: &[(TermId, u32)],
        mode: QueryMode,
    ) -> Result<Query, QueryError> {
        if pairs.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(QueryError::NotAscending);
        }
        Query::new(weighted(index, pairs.iter().copied())?, mode)
    }

    /// Build from distinct term ids with `f_{Q,t} = 1`, weighted from the
    /// index dictionary (the common case for generated workloads).
    ///
    /// # Panics
    ///
    /// When an id is outside the dictionary or repeated.
    pub fn from_term_ids(index: &InvertedIndex, terms: &[TermId]) -> Query {
        weighted(index, terms.iter().map(|&t| (t, 1)))
            .and_then(|terms| Query::new(terms, QueryMode::Disjunctive))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Query::from_pairs`], posed disjunctively.
    ///
    /// # Panics
    ///
    /// When [`Query::from_pairs`] refuses the pairs.
    pub fn from_term_pairs(index: &InvertedIndex, pairs: &[(TermId, u32)]) -> Query {
        Query::from_pairs(index, pairs, QueryMode::Disjunctive).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parse a natural-language query string against a corpus dictionary:
    /// tokenize, drop out-of-dictionary terms (per the system model), count
    /// duplicates into `f_{Q,t}`.
    pub fn from_text(
        corpus: &Corpus,
        index: &InvertedIndex,
        text: &str,
    ) -> Result<Query, QueryError> {
        let mut counts: HashMap<TermId, u32> = HashMap::new();
        for token in authsearch_corpus::tokenizer::tokenize(text) {
            if let Some(t) = corpus.term_id(&token) {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        let mut terms: Vec<(TermId, u32)> = counts.into_iter().collect();
        terms.sort_unstable_by_key(|&(t, _)| t);
        Query::new(weighted(index, terms.into_iter())?, QueryMode::Disjunctive)
    }

    /// Build with explicit weights and `f_{Q,t} = 1` (the paper's worked
    /// example gives its `w_{Q,t}` rather than deriving them).
    pub fn with_weights(weights: &[(TermId, f64)]) -> Result<Query, QueryError> {
        let terms = weights
            .iter()
            .map(|&(term, wq)| QueryTerm { term, f_qt: 1, wq })
            .collect();
        Query::new(terms, QueryMode::Disjunctive)
    }

    /// The same terms, posed under `mode`.
    pub fn with_mode(self, mode: QueryMode) -> Query {
        Query { mode, ..self }
    }

    /// The distinct query terms, in the order posed (the list index).
    pub fn terms(&self) -> &[QueryTerm] {
        &self.terms
    }

    /// How the terms combine.
    pub fn mode(&self) -> QueryMode {
        self.mode
    }
}

/// Weigh `(t, f_{Q,t})` pairs from the index dictionary, checking each id
/// against it before its `f_t` is read.
fn weighted(
    index: &InvertedIndex,
    pairs: impl ExactSizeIterator<Item = (TermId, u32)>,
) -> Result<Vec<QueryTerm>, QueryError> {
    let m = index.num_terms();
    let mut terms = Vec::with_capacity(pairs.len());
    for (term, f_qt) in pairs {
        if term as usize >= m {
            return Err(QueryError::OutOfDictionary { term, m });
        }
        terms.push(QueryTerm {
            term,
            f_qt,
            wq: index.query_weight(term, f_qt),
        });
    }
    Ok(terms)
}

/// One result entry `⟨d, s⟩`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultEntry {
    /// Result document.
    pub doc: DocId,
    /// Similarity score `S(d|Q)`.
    pub score: f64,
}

/// The ordered query result `R` (non-increasing scores; ties broken by
/// ascending document id so every component of the system is
/// deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Result entries, best first.
    pub entries: Vec<ResultEntry>,
}

impl QueryResult {
    /// Checks the ordering half of the paper's correctness criteria.
    pub fn is_ordered(&self) -> bool {
        self.entries
            .windows(2)
            .all(|w| w[0].score > w[1].score || (w[0].score == w[1].score && w[0].doc < w[1].doc))
    }

    /// Documents only.
    pub fn docs(&self) -> Vec<DocId> {
        self.entries.iter().map(|e| e.doc).collect()
    }
}

/// Everything a query-processing run produces, beyond the result itself:
/// the inputs to VO construction and to the evaluation metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessingOutcome {
    /// The top-r result.
    pub result: QueryResult,
    /// Per query term: number of entries *fetched* from its inverted list
    /// (popped entries plus the fetched-but-unpopped cut-off front). This
    /// is both Figure 13(a)'s "# entries read" and the per-list VO prefix.
    pub prefix_lens: Vec<usize>,
    /// Every document appearing in some fetched prefix, in first-encounter
    /// order. For TRA these are exactly the documents whose query-term
    /// frequencies the VO must certify.
    pub encountered: Vec<DocId>,
    /// Main-loop iterations executed (pops).
    pub iterations: usize,
}

/// Document-side frequency table: for every document, its `(t, w_{d,t})`
/// pairs in ascending term order — precisely the leaf layer of the
/// document-MHTs (Figure 8), and the engine's random-access source in TRA.
///
/// Built by *transposing the inverted index*, which guarantees the
/// invariant the correctness criteria rely on: the frequency vector
/// `freq(d|Q)` a document-MHT certifies is identical to what the inverted
/// lists contain.
#[derive(Debug, Clone)]
pub struct DocTable {
    per_doc: Vec<Vec<(TermId, f32)>>,
}

impl DocTable {
    /// Transpose an index into its per-document view.
    pub fn from_index(index: &InvertedIndex) -> DocTable {
        let mut per_doc: Vec<Vec<(TermId, f32)>> = vec![Vec::new(); index.num_docs()];
        for t in 0..index.num_terms() as TermId {
            for e in index.list(t).entries() {
                per_doc[e.doc as usize].push((t, e.weight));
            }
        }
        // Lists are walked in ascending term order, so each per-doc vector
        // is already sorted by term id.
        debug_assert!(per_doc
            .iter()
            .all(|v| v.windows(2).all(|w| w[0].0 < w[1].0)));
        DocTable { per_doc }
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.per_doc.len()
    }

    /// The `(t, w_{d,t})` leaf layer for document `d`.
    pub fn doc_terms(&self, d: DocId) -> &[(TermId, f32)] {
        &self.per_doc[d as usize]
    }

    /// `w_{d,t}` (0 when `t` does not occur in `d`).
    pub fn weight(&self, d: DocId, t: TermId) -> f32 {
        let v = &self.per_doc[d as usize];
        match v.binary_search_by_key(&t, |&(tt, _)| tt) {
            Ok(i) => v[i].1,
            Err(_) => 0.0,
        }
    }
}

/// Insert `⟨doc, score⟩` into a descending-ordered result vector
/// (ties by ascending doc id). Shared by PSCAN / TRA and the verifier's
/// replay.
pub(crate) fn insert_ranked(entries: &mut Vec<ResultEntry>, doc: DocId, score: f64) {
    let pos = entries.partition_point(|e| e.score > score || (e.score == score && e.doc < doc));
    entries.insert(pos, ResultEntry { doc, score });
}

#[cfg(test)]
mod tests {
    use super::*;
    use authsearch_corpus::CorpusBuilder;
    use authsearch_index::{build_index, OkapiParams};

    fn setup() -> (Corpus, InvertedIndex) {
        let corpus = CorpusBuilder::new()
            .min_df(1)
            .add_text("night keeper keeps house")
            .add_text("big house big gown")
            .add_text("old night watch")
            .build();
        let index = build_index(&corpus, OkapiParams::default());
        (corpus, index)
    }

    #[test]
    fn query_from_text_counts_duplicates() {
        let (corpus, index) = setup();
        let q = Query::from_text(&corpus, &index, "night NIGHT keeper").unwrap();
        let night = corpus.term_id("night").unwrap();
        let qt = q.terms().iter().find(|t| t.term == night).unwrap();
        assert_eq!(qt.f_qt, 2);
        assert_eq!(q.terms().len(), 2);
    }

    #[test]
    fn out_of_dictionary_terms_ignored() {
        let (corpus, index) = setup();
        let q = Query::from_text(&corpus, &index, "zzzunknown house").unwrap();
        assert_eq!(q.terms().len(), 1);
        assert_eq!(
            Query::from_text(&corpus, &index, "zzzunknown"),
            Err(QueryError::Empty)
        );
    }

    #[test]
    fn from_term_ids_uses_index_weights() {
        let (corpus, index) = setup();
        let house = corpus.term_id("house").unwrap();
        let q = Query::from_term_ids(&index, &[house]);
        assert_eq!(q.terms()[0].wq, index.query_weight(house, 1));
    }

    #[test]
    fn new_checks_every_index_free_fact() {
        let term = |term, f_qt, wq| QueryTerm { term, f_qt, wq };
        let mode = QueryMode::Disjunctive;
        assert_eq!(Query::new(Vec::new(), mode), Err(QueryError::Empty));
        assert_eq!(
            Query::new(
                vec![term(4, 1, 1.0), term(1, 1, 1.0), term(4, 1, 1.0)],
                mode
            ),
            Err(QueryError::DuplicateTerm(4))
        );
        // The caller's order stands; only the wire's form must ascend.
        let unsorted = vec![term(3, 1, 1.0), term(1, 1, 1.0)];
        assert_eq!(Query::new(unsorted, mode).unwrap().terms()[0].term, 3);
        assert_eq!(
            Query::new(vec![term(2, 0, 1.0)], mode),
            Err(QueryError::ZeroFrequency(2))
        );
        for wq in [0.0, -1.0, f64::INFINITY] {
            assert_eq!(
                Query::new(vec![term(0, 1, 1.0), term(4, 1, wq)], mode),
                Err(QueryError::BadWeight { term: 4, wq })
            );
        }
        let nan = Query::new(vec![term(5, 1, f64::NAN)], mode);
        assert!(matches!(nan, Err(QueryError::BadWeight { term: 5, wq }) if wq.is_nan()));
        let q = Query::new(vec![term(0, 2, 0.5), term(7, 1, 3.0)], mode).unwrap();
        assert_eq!(q.terms().len(), 2);
        assert_eq!(
            q.with_mode(QueryMode::Conjunctive).mode(),
            QueryMode::Conjunctive
        );
    }

    #[test]
    fn index_aware_builder_checks_the_dictionary_before_reading_it() {
        let (_, index) = setup();
        let m = index.num_terms();
        let out = m as TermId + 5;
        assert_eq!(
            Query::from_pairs(&index, &[(0, 1), (out, 1)], QueryMode::Disjunctive),
            Err(QueryError::OutOfDictionary { term: out, m })
        );
        assert_eq!(
            Query::from_pairs(&index, &[(0, 0)], QueryMode::Disjunctive),
            Err(QueryError::ZeroFrequency(0))
        );
        // Only the wire's form must ascend.
        for unordered in [[(3, 1), (1, 1)], [(1, 1), (1, 1)]] {
            assert_eq!(
                Query::from_pairs(&index, &unordered, QueryMode::Disjunctive),
                Err(QueryError::NotAscending)
            );
        }
        let q = Query::from_pairs(&index, &[(0, 2)], QueryMode::Conjunctive).unwrap();
        assert_eq!(q.mode(), QueryMode::Conjunctive);
        assert_eq!(q.terms()[0].wq, index.query_weight(0, 2));
    }

    #[test]
    fn result_ordering_check() {
        let good = QueryResult {
            entries: vec![
                ResultEntry { doc: 2, score: 0.9 },
                ResultEntry { doc: 0, score: 0.9 },
            ],
        };
        assert!(!good.is_ordered()); // tie must order by doc id
        let fixed = QueryResult {
            entries: vec![
                ResultEntry { doc: 0, score: 0.9 },
                ResultEntry { doc: 2, score: 0.9 },
            ],
        };
        assert!(fixed.is_ordered());
    }

    #[test]
    fn insert_ranked_keeps_order() {
        let mut v = Vec::new();
        insert_ranked(&mut v, 5, 0.5);
        insert_ranked(&mut v, 3, 0.9);
        insert_ranked(&mut v, 9, 0.5);
        insert_ranked(&mut v, 1, 0.7);
        let docs: Vec<DocId> = v.iter().map(|e| e.doc).collect();
        assert_eq!(docs, vec![3, 1, 5, 9]);
    }

    #[test]
    fn doc_table_transposes_index() {
        let (corpus, index) = setup();
        let table = DocTable::from_index(&index);
        assert_eq!(table.num_docs(), 3);
        let house = corpus.term_id("house").unwrap();
        // Weight in the table equals the list entry's weight.
        let from_list = index
            .list(house)
            .entries()
            .iter()
            .find(|e| e.doc == 0)
            .unwrap()
            .weight;
        assert_eq!(table.weight(0, house), from_list);
        // Absent term → 0.
        let gown = corpus.term_id("gown").unwrap();
        assert_eq!(table.weight(0, gown), 0.0);
    }

    #[test]
    fn doc_table_terms_sorted() {
        let (_, index) = setup();
        let table = DocTable::from_index(&index);
        for d in 0..table.num_docs() as DocId {
            assert!(table.doc_terms(d).windows(2).all(|w| w[0].0 < w[1].0));
        }
    }
}
