//! Data-access abstractions shared by the search engine and the verifier.
//!
//! The query-processing algorithms (TRA / TNRA) are written against these
//! traits so the *same deterministic code path* runs in two places:
//!
//! * at the **search engine**, over the full inverted index and document
//!   table;
//! * at the **user**, replaying the algorithm over the authenticated list
//!   prefixes and frequencies carried by the VO. If the replay ever needs
//!   an entry the VO does not substantiate, the access fails and the
//!   result is rejected.
//!
//! Determinism of the algorithms plus authenticity of the inputs is what
//! turns a successful replay into a proof of the correctness criteria.

use crate::types::{DocTable, Query};
use authsearch_corpus::{DocId, TermId};
use authsearch_index::{ImpactEntry, InvertedIndex};
use std::fmt;

/// Error raised when a data source cannot substantiate an access — at the
/// engine this is impossible; at the verifier it means the VO is
/// insufficient or inconsistent, and the result must be rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(unused-pub): reached only as the error of `ListAccess::entry` and the scans
pub struct AccessError {
    /// Human-readable description of what was missing.
    pub what: String,
}

impl AccessError {
    /// Convenience constructor.
    pub fn new(what: impl Into<String>) -> AccessError {
        AccessError { what: what.into() }
    }
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "data access failed: {}", self.what)
    }
}

impl std::error::Error for AccessError {}

/// Read access to the inverted lists of the query terms, indexed by
/// position within the query (0..q).
pub trait ListAccess {
    /// True length `l_i` of query term `i`'s inverted list (from the
    /// dictionary at the engine; from the signed `f_t` at the verifier).
    fn list_len(&self, i: usize) -> usize;

    /// Entry at `pos` of query term `i`'s list. `Ok(None)` past the end of
    /// the list; `Err` when the entry exists but the source cannot supply
    /// it (VO too short).
    fn entry(&self, i: usize, pos: usize) -> Result<Option<ImpactEntry>, AccessError>;
}

/// Random access to document-side weights `w_{d, t_i}` for query term `i`
/// (the paper's document-MHT fetch).
// lint:allow(unused-pub): reached only as the frequency bound of `tra::run`
pub trait FreqAccess {
    /// `w_{d, t_i}`; `Err` when the source cannot substantiate the value.
    fn weight(&self, d: DocId, i: usize) -> Result<f32, AccessError>;
}

/// Entries fetched from each list by a threshold scan that popped
/// `pos[i]` of list `i`: those plus the fetched cut-off front, or the
/// whole list once it is exhausted. This is both Figure 13(a)'s
/// "# entries read" and the per-list VO prefix.
pub(crate) fn fetched<L: ListAccess>(lists: &L, pos: &[usize]) -> Vec<usize> {
    let read = |(i, &p): (usize, &usize)| (p + 1).min(lists.list_len(i));
    pos.iter().enumerate().map(read).collect()
}

/// Engine-side [`ListAccess`]: the full inverted index.
pub struct IndexLists<'a> {
    index: &'a InvertedIndex,
    terms: Vec<TermId>,
}

impl<'a> IndexLists<'a> {
    /// View of the index restricted to a query's terms.
    pub fn new(index: &'a InvertedIndex, query: &Query) -> Self {
        IndexLists {
            index,
            terms: query.terms().iter().map(|t| t.term).collect(),
        }
    }
}

impl ListAccess for IndexLists<'_> {
    fn list_len(&self, i: usize) -> usize {
        self.index.list(self.terms[i]).len()
    }

    fn entry(&self, i: usize, pos: usize) -> Result<Option<ImpactEntry>, AccessError> {
        let list = self.index.list(self.terms[i]);
        Ok(list.entries().get(pos).copied())
    }
}

/// Engine-side [`FreqAccess`]: the document table.
pub struct TableFreqs<'a> {
    table: &'a DocTable,
    terms: Vec<TermId>,
}

impl<'a> TableFreqs<'a> {
    /// View of the document table restricted to a query's terms.
    pub fn new(table: &'a DocTable, query: &Query) -> Self {
        TableFreqs {
            table,
            terms: query.terms().iter().map(|t| t.term).collect(),
        }
    }
}

impl FreqAccess for TableFreqs<'_> {
    fn weight(&self, d: DocId, i: usize) -> Result<f32, AccessError> {
        Ok(self.table.weight(d, self.terms[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use authsearch_corpus::CorpusBuilder;
    use authsearch_index::{build_index, OkapiParams};

    #[test]
    fn index_lists_expose_query_term_lists() {
        let corpus = CorpusBuilder::new()
            .min_df(1)
            .add_text("apple banana")
            .add_text("apple cherry")
            .build();
        let index = build_index(&corpus, OkapiParams::default());
        let apple = corpus.term_id("apple").unwrap();
        let banana = corpus.term_id("banana").unwrap();
        let q = Query::from_term_ids(&index, &[banana, apple]);
        let lists = IndexLists::new(&index, &q);
        assert_eq!(lists.list_len(0), 1); // banana
        assert_eq!(lists.list_len(1), 2); // apple
        assert!(lists.entry(1, 0).unwrap().is_some());
        assert!(lists.entry(1, 2).unwrap().is_none()); // past end
    }

    #[test]
    fn table_freqs_match_doc_table() {
        let corpus = CorpusBuilder::new()
            .min_df(1)
            .add_text("apple banana")
            .add_text("apple cherry")
            .build();
        let index = build_index(&corpus, OkapiParams::default());
        let table = DocTable::from_index(&index);
        let apple = corpus.term_id("apple").unwrap();
        let q = Query::from_term_ids(&index, &[apple]);
        let freqs = TableFreqs::new(&table, &q);
        assert_eq!(freqs.weight(0, 0).unwrap(), table.weight(0, apple));
    }
}
