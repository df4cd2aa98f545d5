//! Shared types: queries, results, processing outcomes, and the
//! document-side frequency table.

use authsearch_corpus::{Corpus, DocId, TermId};
use authsearch_index::InvertedIndex;
use std::collections::HashMap;

/// How a multi-term query combines its terms.
///
/// The paper's query model is purely disjunctive (top-r by the summed
/// Okapi similarity, §2). Conjunctive mode keeps the identical scoring
/// formula but admits only documents that contain *every* query term,
/// and its VO additionally proves that intersection is exactly right.
/// A [`Query`] carries its mode, and [`crate::verify::verify`] checks a
/// reply under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueryMode {
    /// OR-semantics: any document containing at least one query term is
    /// a candidate (the paper's model).
    #[default]
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

/// A parsed query `Q = {⟨t, f_{Q,t}⟩}` with precomputed `w_{Q,t}`, posed
/// under one [`QueryMode`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// Distinct query terms (order defines the list index used in traces).
    pub terms: Vec<QueryTerm>,
    /// How the terms combine. Every constructor poses
    /// [`QueryMode::Disjunctive`], the paper's model; [`Query::with_mode`]
    /// poses the query the other way.
    pub mode: QueryMode,
}

impl Query {
    /// Build from distinct term ids with `f_{Q,t} = 1`, taking weights
    /// from the index dictionary (the common case for generated
    /// workloads).
    pub fn from_term_ids(index: &InvertedIndex, terms: &[TermId]) -> Query {
        Query {
            terms: terms
                .iter()
                .map(|&t| QueryTerm {
                    term: t,
                    f_qt: 1,
                    wq: index.query_weight(t, 1),
                })
                .collect(),
            mode: QueryMode::Disjunctive,
        }
    }

    /// Build from explicit `(t, f_{Q,t})` pairs, taking the query-side
    /// weights from the index dictionary — the shape a network client
    /// submits over the wire ([`crate::wire::Request::Terms`]).
    pub fn from_term_pairs(index: &InvertedIndex, pairs: &[(TermId, u32)]) -> Query {
        Query {
            terms: pairs
                .iter()
                .map(|&(term, f_qt)| QueryTerm {
                    term,
                    f_qt,
                    wq: index.query_weight(term, f_qt),
                })
                .collect(),
            mode: QueryMode::Disjunctive,
        }
    }

    /// Parse a natural-language query string against a corpus dictionary:
    /// tokenize, drop out-of-dictionary terms (per the system model), count
    /// duplicates into `f_{Q,t}`.
    pub fn from_text(corpus: &Corpus, index: &InvertedIndex, text: &str) -> Query {
        let mut counts: HashMap<TermId, u32> = HashMap::new();
        for token in authsearch_corpus::tokenizer::tokenize(text) {
            if let Some(t) = corpus.term_id(&token) {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        let mut terms: Vec<(TermId, u32)> = counts.into_iter().collect();
        terms.sort_unstable_by_key(|&(t, _)| t);
        Query {
            terms: terms
                .into_iter()
                .map(|(term, f_qt)| QueryTerm {
                    term,
                    f_qt,
                    wq: index.query_weight(term, f_qt),
                })
                .collect(),
            mode: QueryMode::Disjunctive,
        }
    }

    /// Build with explicit weights (used by the paper's worked example,
    /// whose `w_{Q,t}` values are given rather than derived). The
    /// threshold algorithms assume non-negative weights; TNRA refuses a
    /// negative or NaN one with an `AccessError`.
    pub fn with_weights(weights: &[(TermId, f64)]) -> Query {
        Query {
            terms: weights
                .iter()
                .map(|&(term, wq)| QueryTerm { term, f_qt: 1, wq })
                .collect(),
            mode: QueryMode::Disjunctive,
        }
    }

    /// The same terms, posed under `mode`.
    pub fn with_mode(self, mode: QueryMode) -> Query {
        Query { mode, ..self }
    }

    /// Number of distinct terms `q`.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True for the empty query.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
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
#[derive(Debug, Clone, PartialEq, Default)]
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
        let q = Query::from_text(&corpus, &index, "night NIGHT keeper");
        let night = corpus.term_id("night").unwrap();
        let qt = q.terms.iter().find(|t| t.term == night).unwrap();
        assert_eq!(qt.f_qt, 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn out_of_dictionary_terms_ignored() {
        let (corpus, index) = setup();
        let q = Query::from_text(&corpus, &index, "zzzunknown house");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn from_term_ids_uses_index_weights() {
        let (corpus, index) = setup();
        let house = corpus.term_id("house").unwrap();
        let q = Query::from_term_ids(&index, &[house]);
        assert_eq!(q.terms[0].wq, index.query_weight(house, 1));
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
