//! PSCAN — Prioritized Scanning (paper Figure 2).
//!
//! The conventional, non-authenticated evaluation algorithm: repeatedly
//! consume the impact entry with the highest term score across the query
//! lists, accumulating partial scores until every list is exhausted. It
//! reads each list completely — this is the "List Length" baseline of
//! Figures 13(a), 14(a) and 15(a) — and is the reference implementation
//! the threshold algorithms are tested against. It accumulates through
//! the one doc-id map and ranks through the one top-r, as every scan does.

use crate::access::{AccessError, ListAccess};
use crate::types::{
    DocIdMap, DocOrderedLists, ProcessingOutcome, Query, QueryResult, ResultEntry, TopR,
};
use authsearch_corpus::DocId;
use std::collections::hash_map::Entry;

/// Run PSCAN to find the top `r` documents.
pub fn run<L: ListAccess>(
    lists: &L,
    query: &Query,
    r: usize,
) -> Result<ProcessingOutcome, AccessError> {
    let q = query.terms().len();
    let mut pos = vec![0usize; q];
    let mut fronts: Vec<Option<f32>> = Vec::with_capacity(q);
    for i in 0..q {
        fronts.push(lists.entry(i, 0)?.map(|e| e.weight));
    }

    let mut accumulators: DocIdMap<f64> = DocIdMap::default();
    let mut encounter_order: Vec<DocId> = Vec::new();
    let mut iterations = 0usize;

    loop {
        // Step 2(a): highest term score c = w_{Q,t} · w_{d,t}.
        let mut best: Option<(usize, f64)> = None;
        for (i, front) in fronts.iter().enumerate() {
            if let Some(w) = front {
                let c = query.terms()[i].wq * *w as f64;
                if best.is_none_or(|(_, bc)| c > bc) {
                    best = Some((i, c));
                }
            }
        }
        let Some((i, c)) = best else { break };

        let entry = lists
            .entry(i, pos[i])?
            .expect("front tracked but entry missing");
        // Steps 2(b)-(c): accumulate.
        match accumulators.entry(entry.doc) {
            Entry::Vacant(v) => {
                v.insert(c);
                encounter_order.push(entry.doc);
            }
            Entry::Occupied(mut o) => *o.get_mut() += c,
        }
        // Step 2(d): advance.
        pos[i] += 1;
        fronts[i] = lists.entry(i, pos[i])?.map(|e| e.weight);
        iterations += 1;
    }

    // Step 3: the r largest accumulators.
    let mut top = TopR::new(r, accumulators.len());
    for (&doc, &score) in &accumulators {
        top.offer(ResultEntry { doc, score }, ());
    }

    let prefix_lens = (0..q).map(|i| lists.list_len(i)).collect();
    Ok(ProcessingOutcome {
        result: top.into_result(),
        prefix_lens,
        encountered: encounter_order,
        iterations,
    })
}

/// Reference scorer: compute `S(d|Q)` for every document by direct lookup
/// in the document table and return the top `r`. Used as the ground truth
/// in cross-algorithm tests.
pub fn naive_topk(table: &DocOrderedLists, query: &Query, r: usize) -> QueryResult {
    let mut top = TopR::new(r, table.num_docs());
    for d in 0..table.num_docs() as DocId {
        let mut score = 0.0f64;
        for qt in query.terms() {
            score += qt.wq * table.weight(d, qt.term) as f64;
        }
        if score > 0.0 {
            top.offer(ResultEntry { doc: d, score }, ());
        }
    }
    top.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::IndexLists;
    use authsearch_corpus::CorpusBuilder;
    use authsearch_index::{build_index, OkapiParams};

    fn setup() -> (authsearch_corpus::Corpus, authsearch_index::InvertedIndex) {
        let corpus = CorpusBuilder::new()
            .min_df(1)
            .add_text("night keeper keeps house house")
            .add_text("big house big gown")
            .add_text("old night keeper watch")
            .add_text("keeper keeper keeper night")
            .build();
        let index = build_index(&corpus, OkapiParams::default());
        (corpus, index)
    }

    #[test]
    fn pscan_matches_naive() {
        let (corpus, index) = setup();
        let table = DocOrderedLists::from_index(&index);
        let keeper = corpus.term_id("keeper").unwrap();
        let night = corpus.term_id("night").unwrap();
        let q = Query::from_term_ids(&index, &[keeper, night]);
        let lists = IndexLists::new(&index, &q);
        let pscan = run(&lists, &q, 3).unwrap();
        let naive = naive_topk(&table, &q, 3);
        assert_eq!(pscan.result.docs(), naive.docs());
        for (a, b) in pscan.result.entries.iter().zip(&naive.entries) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    #[test]
    fn pscan_reads_entire_lists() {
        let (corpus, index) = setup();
        let keeper = corpus.term_id("keeper").unwrap();
        let q = Query::from_term_ids(&index, &[keeper]);
        let lists = IndexLists::new(&index, &q);
        let out = run(&lists, &q, 1).unwrap();
        assert_eq!(out.prefix_lens, vec![index.list(keeper).len()]);
        assert_eq!(out.iterations, index.list(keeper).len());
    }

    #[test]
    fn result_is_ordered_and_truncated() {
        let (corpus, index) = setup();
        let keeper = corpus.term_id("keeper").unwrap();
        let night = corpus.term_id("night").unwrap();
        let q = Query::from_term_ids(&index, &[keeper, night]);
        let lists = IndexLists::new(&index, &q);
        let out = run(&lists, &q, 2).unwrap();
        assert!(out.result.is_ordered());
        assert_eq!(out.result.entries.len(), 2);
    }

    #[test]
    fn empty_query_yields_empty_result() {
        // There is no empty query to scan: the constructor refuses it.
        assert_eq!(
            Query::new(Vec::new(), crate::types::QueryMode::Disjunctive),
            Err(crate::types::QueryError::Empty)
        );
    }

    #[test]
    fn naive_ignores_zero_score_docs() {
        let (corpus, index) = setup();
        let table = DocOrderedLists::from_index(&index);
        let gown = corpus.term_id("gown").unwrap();
        let q = Query::from_term_ids(&index, &[gown]);
        let res = naive_topk(&table, &q, 10);
        assert_eq!(res.entries.len(), 1); // only doc 1 contains 'gown'
        assert_eq!(res.entries[0].doc, 1);
    }
}
