//! The paper's running example: the 8-document, 16-term collection of
//! Figure 1 and the query "sleeps in the dark" of Figures 6 and 11.
//!
//! The published inverted index stores the exact `w_{d,t}` values shown in
//! Figure 1, and the query-side weights of Figure 6 are the exact
//! logarithms `ln 11`, `ln 3`, `ln(8/3)`, `ln 11` (they reproduce every
//! threshold in both traces to the printed precision). Golden tests replay
//! both traces against these inputs iteration by iteration.

use crate::types::Query;
use authsearch_index::{ImpactEntry, InvertedIndex, InvertedList, OkapiParams};

/// Term names of Figure 1 in dictionary order (term id = position).
pub const TOY_TERMS: [&str; 16] = [
    "and", "big", "dark", "did", "gown", "had", "house", "in", "keep", "keeper", "keeps", "light",
    "night", "old", "sleeps", "the",
];

/// Term id of a toy term.
pub fn toy_term_id(term: &str) -> u32 {
    TOY_TERMS
        .iter()
        .position(|&t| t == term)
        // lint:allow(truncating-cast): position indexes the fixed toy dictionary (a handful of entries) — the cast cannot lose bits
        .unwrap_or_else(|| panic!("{term} is not in the toy dictionary")) as u32
}

/// The inverted index of Figure 1. Document ids 1..=8 as printed (the toy
/// collection is sized for 9 ids with id 0 unused).
pub fn toy_index() -> InvertedIndex {
    let lists_data: [&[(u32, f32)]; 16] = [
        // and
        &[(6, 0.159)],
        // big
        &[(2, 0.148), (3, 0.088)],
        // dark
        &[(6, 0.079)],
        // did
        &[(4, 0.125)],
        // gown
        &[(2, 0.074)],
        // had
        &[(3, 0.088)],
        // house
        &[(3, 0.088), (2, 0.074)],
        // in
        &[
            (6, 0.159),
            (2, 0.148),
            (5, 0.142),
            (1, 0.058),
            (7, 0.058),
            (8, 0.053),
        ],
        // keep
        &[(5, 0.088), (1, 0.088), (3, 0.088)],
        // keeper
        &[(4, 0.125), (5, 0.088), (1, 0.088)],
        // keeps
        &[(5, 0.088), (1, 0.088), (6, 0.079)],
        // light
        &[(6, 0.079)],
        // night
        &[(5, 0.177), (4, 0.125), (1, 0.088)],
        // old
        &[(2, 0.148), (4, 0.125), (1, 0.088), (3, 0.088)],
        // sleeps
        &[(6, 0.079)],
        // the
        &[
            (5, 0.265),
            (3, 0.263),
            (6, 0.200),
            (1, 0.159),
            (2, 0.148),
            (4, 0.125),
        ],
    ];

    let lists: Vec<InvertedList> = lists_data
        .iter()
        .map(|entries| {
            InvertedList::from_entries(
                entries
                    .iter()
                    .map(|&(doc, weight)| ImpactEntry { doc, weight })
                    .collect(),
            )
        })
        .collect();
    // lint:allow(truncating-cast): the Figure-1 toy lists hold at most eight postings each
    let ft: Vec<u32> = lists.iter().map(|l| l.len() as u32).collect();
    // 9 document slots (ids 1..=8 used; Okapi parameters are irrelevant —
    // the toy query carries explicit weights).
    InvertedIndex::from_parts(OkapiParams::default(), 9, 5.0, ft, lists)
        .expect("Figure 1's weights are positive")
}

/// The query of Figure 6: "sleeps in the dark" with the paper's exact
/// query-side weights, in the paper's word order.
pub fn toy_query() -> Query {
    Query::with_weights(&[
        (toy_term_id("sleeps"), 11f64.ln()),     // 2.3979
        (toy_term_id("in"), 3f64.ln()),          // 1.0986
        (toy_term_id("the"), (8f64 / 3.0).ln()), // 0.9808
        (toy_term_id("dark"), 11f64.ln()),       // 2.3979
    ])
    .expect("the Figure 6 query is well formed")
}

/// Dummy content bytes for the toy documents (the article texts are not
/// published; contents only feed the document digests, not the traces).
pub fn toy_contents() -> Vec<Vec<u8>> {
    (0..9u32)
        .map(|d| format!("toy document #{d} full text").into_bytes())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_dictionary_matches_figure1() {
        assert_eq!(toy_term_id("and"), 0);
        assert_eq!(toy_term_id("the"), 15);
        assert_eq!(toy_term_id("sleeps"), 14);
    }

    #[test]
    fn toy_lists_are_frequency_ordered() {
        let idx = toy_index();
        for t in 0..16u32 {
            assert!(idx.list(t).is_frequency_ordered(), "term {t}");
        }
    }

    #[test]
    fn toy_ft_matches_list_lengths() {
        let idx = toy_index();
        assert_eq!(idx.ft(toy_term_id("the")), 6);
        assert_eq!(idx.ft(toy_term_id("sleeps")), 1);
        assert_eq!(idx.ft(toy_term_id("keep")), 3);
    }

    #[test]
    fn toy_query_weights_match_figure6() {
        let q = toy_query();
        assert!((q.terms()[0].wq - 2.3979).abs() < 1e-4); // sleeps
        assert!((q.terms()[1].wq - 1.0986).abs() < 1e-4); // in
        assert!((q.terms()[2].wq - 0.9808).abs() < 1e-4); // the
        assert!((q.terms()[3].wq - 2.3979).abs() < 1e-4); // dark
    }

    #[test]
    #[should_panic(expected = "not in the toy dictionary")]
    fn unknown_toy_term_panics() {
        toy_term_id("zebra");
    }
}
