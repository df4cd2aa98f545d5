//! The frequency-ordered inverted index: dictionary + inverted lists
//! (paper §2.1, Figure 1).

use crate::okapi::{self, OkapiParams};
use crate::postings::InvertedList;
use authsearch_corpus::{DocId, TermId};
use std::fmt;

/// Why [`InvertedIndex::from_parts`] refuses its parts.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexError {
    /// A weight that is NaN, infinite or negative. Every threshold bound
    /// of the scans (Figures 5 and 10) holds only for finite
    /// non-negative term scores, so the index admits no other.
    BadWeight {
        /// The term whose list holds it.
        term: TermId,
        /// The document.
        doc: DocId,
        /// The weight.
        weight: f32,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::BadWeight { term, doc, weight } => write!(
                f,
                "term {term}: document {doc} has weight {weight}, not a finite non-negative number"
            ),
        }
    }
}

impl std::error::Error for IndexError {}

/// The paper's inverted index: for every dictionary term, the document
/// count `f_t` and a frequency-ordered list of `⟨d, w_{d,t}⟩` pairs.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    params: OkapiParams,
    num_docs: usize,
    avg_doc_len: f64,
    /// `f_t` per term — stored in the dictionary and included in each
    /// list's signed header.
    ft: Vec<u32>,
    lists: Vec<InvertedList>,
}

impl InvertedIndex {
    /// Assemble from parts (used by the builder and the persistence
    /// layer). Every weight must be finite and non-negative: the one
    /// check the scans and their replays rely on, made where weights
    /// enter; any other is refused with [`IndexError::BadWeight`].
    pub fn from_parts(
        params: OkapiParams,
        num_docs: usize,
        avg_doc_len: f64,
        ft: Vec<u32>,
        lists: Vec<InvertedList>,
    ) -> Result<InvertedIndex, IndexError> {
        assert_eq!(ft.len(), lists.len(), "dictionary/list count mismatch");
        debug_assert!(ft.iter().zip(&lists).all(|(&f, l)| f as usize == l.len()));
        for (term, list) in (0..).zip(&lists) {
            let bad = list
                .entries()
                .iter()
                .find(|e| !(e.weight.is_finite() && e.weight >= 0.0));
            if let Some(e) = bad {
                return Err(IndexError::BadWeight {
                    term,
                    doc: e.doc,
                    weight: e.weight,
                });
            }
        }
        Ok(InvertedIndex {
            params,
            num_docs,
            avg_doc_len,
            ft,
            lists,
        })
    }

    /// Number of documents `n` in the indexed collection.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Number of dictionary terms `m`.
    pub fn num_terms(&self) -> usize {
        self.lists.len()
    }

    /// Average document length `W_A`.
    pub fn avg_doc_len(&self) -> f64 {
        self.avg_doc_len
    }

    /// Okapi parameters the index was built with.
    pub fn params(&self) -> OkapiParams {
        self.params
    }

    /// `f_t` — number of documents containing term `t`.
    pub fn ft(&self, t: TermId) -> u32 {
        self.ft[t as usize]
    }

    /// The inverted list for term `t`.
    pub fn list(&self, t: TermId) -> &InvertedList {
        &self.lists[t as usize]
    }

    /// Query-side weight `w_{Q,t}` for a term occurring `f_qt` times in
    /// the query.
    pub fn query_weight(&self, t: TermId, f_qt: u32) -> f64 {
        okapi::query_weight(self.num_docs, self.ft(t), f_qt)
    }

    /// All document frequencies (for workload generators and Figure 4).
    pub fn document_frequencies(&self) -> &[u32] {
        &self.ft
    }

    /// Total number of impact entries across all lists.
    pub fn total_entries(&self) -> usize {
        self.lists.iter().map(|l| l.len()).sum()
    }

    /// Size in bytes of the dictionary (term id → f_t plus a list
    /// pointer; 4 + 4 + 8 bytes per term, a conventional layout).
    pub fn dictionary_bytes(&self) -> usize {
        self.num_terms() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postings::ImpactEntry;
    use authsearch_corpus::DocId;

    fn entry(doc: DocId, weight: f32) -> ImpactEntry {
        ImpactEntry { doc, weight }
    }

    fn small_index() -> InvertedIndex {
        let lists = vec![
            InvertedList::from_entries(vec![entry(0, 0.9), entry(1, 0.3)]),
            InvertedList::from_entries(vec![entry(1, 0.7)]),
        ];
        InvertedIndex::from_parts(OkapiParams::default(), 2, 10.0, vec![2, 1], lists).unwrap()
    }

    #[test]
    fn non_finite_or_negative_weights_are_refused() {
        for weight in [-0.5, f32::NAN, f32::INFINITY] {
            let lists = vec![
                InvertedList::from_entries(vec![entry(0, 0.9)]),
                InvertedList::from_entries(vec![entry(0, weight)]),
            ];
            let refused =
                InvertedIndex::from_parts(OkapiParams::default(), 2, 1.0, vec![1, 1], lists);
            let err = refused.unwrap_err();
            assert!(
                matches!(err, IndexError::BadWeight { term: 1, doc: 0, weight: w } if w.to_bits() == weight.to_bits()),
                "{err:?}"
            );
            assert!(err.to_string().contains("not a finite non-negative number"));
        }
        // Zero is a weight.
        let lists = vec![InvertedList::from_entries(vec![entry(0, 0.0)])];
        assert!(InvertedIndex::from_parts(OkapiParams::default(), 1, 1.0, vec![1], lists).is_ok());
    }

    #[test]
    fn accessors() {
        let idx = small_index();
        assert_eq!(idx.num_docs(), 2);
        assert_eq!(idx.num_terms(), 2);
        assert_eq!(idx.ft(0), 2);
        assert_eq!(idx.list(1).len(), 1);
        assert_eq!(idx.total_entries(), 3);
        assert_eq!(idx.dictionary_bytes(), 32);
    }

    #[test]
    fn query_weight_uses_ft() {
        let idx = small_index();
        // t=1: ln((2 - 1 + 0.5) / 1.5) = ln(1) = 0 → floored epsilon
        assert!(idx.query_weight(1, 1) <= 1e-6);
        // t=0: ft = n → negative idf → floored
        assert!(idx.query_weight(0, 1) <= 1e-6);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_parts_rejected() {
        let _ = InvertedIndex::from_parts(OkapiParams::default(), 1, 1.0, vec![1], vec![]);
    }
}
