//! TRA — Threshold with Random Access (paper Figure 5).
//!
//! Adaptation of Fagin's TA \[10\] to frequency-ordered inverted lists: pops
//! always come from the list with the highest current term score (not
//! equal depth across lists), and the algorithm terminates as soon as the
//! running threshold — the sum of the current front term scores, an upper
//! bound on any unseen document's similarity — drops to or below the
//! r-th best score found so far.
//!
//! On first encounter of a document, *all* its query-term weights are
//! fetched at once (the random access; served by the document-MHTs in the
//! authenticated setting) and its exact score computed.

use crate::access::{AccessError, FreqAccess, ListAccess};
use crate::types::{insert_ranked, ProcessingOutcome, Query, QueryResult, ResultEntry};
use authsearch_corpus::DocId;
use std::collections::HashSet;

/// One iteration record for trace replay (Figure 6).
#[derive(Debug, Clone, PartialEq)]
pub struct TraIteration {
    /// Threshold at the top of the iteration (before the pop).
    pub thres: f64,
    /// `(query term index, entry doc, entry weight)` popped; `None` on the
    /// terminating iteration.
    pub popped: Option<(usize, DocId, f32)>,
    /// Result list snapshot after the pop (docs with scores, best first).
    pub result: Vec<ResultEntry>,
}

/// Run TRA for the top `r` documents.
pub fn run<L: ListAccess, F: FreqAccess>(
    lists: &L,
    freqs: &F,
    query: &Query,
    r: usize,
) -> Result<ProcessingOutcome, AccessError> {
    run_inner(lists, freqs, query, r, None)
}

/// Run TRA capturing a per-iteration trace (used by the Figure 6 golden
/// tests and the `trace` bench binary).
pub fn run_traced<L: ListAccess, F: FreqAccess>(
    lists: &L,
    freqs: &F,
    query: &Query,
    r: usize,
) -> Result<(ProcessingOutcome, Vec<TraIteration>), AccessError> {
    let mut trace = Vec::new();
    let outcome = run_inner(lists, freqs, query, r, Some(&mut trace))?;
    Ok((outcome, trace))
}

fn run_inner<L: ListAccess, F: FreqAccess>(
    lists: &L,
    freqs: &F,
    query: &Query,
    r: usize,
    mut trace: Option<&mut Vec<TraIteration>>,
) -> Result<ProcessingOutcome, AccessError> {
    let q = query.terms().len();

    // Step 2: fetch the first entry of each list.
    let mut pos = vec![0usize; q]; // popped entries per list
    let mut fronts: Vec<Option<(DocId, f32)>> = Vec::with_capacity(q);
    for i in 0..q {
        fronts.push(lists.entry(i, 0)?.map(|e| (e.doc, e.weight)));
    }

    let mut result: Vec<ResultEntry> = Vec::new();
    let mut seen: HashSet<DocId> = HashSet::new();
    let mut encountered: Vec<DocId> = Vec::new();
    let mut iterations = 0usize;

    loop {
        // Step 3 / 4(d): thres = Σ_i c_i over current fronts.
        let thres: f64 = (0..q)
            .map(|i| fronts[i].map_or(0.0, |(_, w)| query.terms()[i].wq * w as f64))
            .sum();

        // Step 4(a): top-r found once R.s_r ≥ thres.
        if r == 0 || (result.len() >= r && result[r - 1].score >= thres) {
            if let Some(t) = trace.as_deref_mut() {
                t.push(TraIteration {
                    thres,
                    popped: None,
                    result: result.clone(),
                });
            }
            break;
        }

        // Step 4(b): pop the entry with the highest term score
        // (ties: lowest query-term index — fixed so engine and verifier
        // replay identically).
        let mut best: Option<(usize, f64)> = None;
        for (i, front) in fronts.iter().enumerate() {
            if let Some((_, w)) = front {
                let c = query.terms()[i].wq * *w as f64;
                if best.is_none_or(|(_, bc)| c > bc) {
                    best = Some((i, c));
                }
            }
        }
        let Some((i, _)) = best else {
            if let Some(t) = trace.as_deref_mut() {
                t.push(TraIteration {
                    thres,
                    popped: None,
                    result: result.clone(),
                });
            }
            break; // all lists exhausted
        };

        let (d, w) = fronts[i].expect("selected list has a front");

        // Step 4(c): first encounter → random-access all query-term
        // weights and score the document exactly.
        if seen.insert(d) {
            encountered.push(d);
            let mut s = 0.0f64;
            for (j, qt) in query.terms().iter().enumerate() {
                s += qt.wq * freqs.weight(d, j)? as f64;
            }
            insert_ranked(&mut result, d, s);
        }

        // Advance list i.
        pos[i] += 1;
        fronts[i] = lists.entry(i, pos[i])?.map(|e| (e.doc, e.weight));
        iterations += 1;

        if let Some(t) = trace.as_deref_mut() {
            t.push(TraIteration {
                thres,
                popped: Some((i, d, w)),
                result: result.clone(),
            });
        }
    }

    // Cut-off fronts were fetched; their documents' frequencies are part
    // of the proof obligation even when never popped.
    for front in fronts.iter().flatten() {
        if seen.insert(front.0) {
            encountered.push(front.0);
        }
    }

    let prefix_lens: Vec<usize> = (0..q)
        .map(|i| {
            let li = lists.list_len(i);
            if pos[i] < li {
                pos[i] + 1 // popped plus the fetched cut-off front
            } else {
                li
            }
        })
        .collect();

    let mut entries = result;
    entries.truncate(r);
    Ok(ProcessingOutcome {
        result: QueryResult { entries },
        prefix_lens,
        encountered,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{IndexLists, TableFreqs};
    use crate::pscan;
    use crate::types::DocTable;
    use authsearch_corpus::{CorpusBuilder, SyntheticConfig};
    use authsearch_index::{build_index, OkapiParams};

    fn setup_small() -> (authsearch_corpus::Corpus, authsearch_index::InvertedIndex) {
        let corpus = CorpusBuilder::new()
            .min_df(1)
            .add_text("night keeper keeps house house")
            .add_text("big house big gown")
            .add_text("old night keeper watch")
            .add_text("keeper keeper keeper night")
            .add_text("watch gown night keeps")
            .build();
        let index = build_index(&corpus, OkapiParams::default());
        (corpus, index)
    }

    #[test]
    fn tra_matches_pscan_on_small_corpus() {
        let (corpus, index) = setup_small();
        let table = DocTable::from_index(&index);
        let keeper = corpus.term_id("keeper").unwrap();
        let night = corpus.term_id("night").unwrap();
        let q = Query::from_term_ids(&index, &[keeper, night]);
        let lists = IndexLists::new(&index, &q);
        let freqs = TableFreqs::new(&table, &q);
        for r in 1..=4 {
            let tra = run(&lists, &freqs, &q, r).unwrap();
            let ps = pscan::run(&lists, &q, r).unwrap();
            assert_eq!(tra.result.docs(), ps.result.docs(), "r={r}");
        }
    }

    #[test]
    fn tra_matches_naive_on_synthetic() {
        let corpus = SyntheticConfig::tiny(150, 21).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let table = DocTable::from_index(&index);
        // A few deterministic queries over different term ranges.
        for (seed, qsize) in [(1u64, 2usize), (2, 3), (3, 5)] {
            let terms =
                authsearch_corpus::workload::synthetic(index.num_terms(), 1, qsize, seed).remove(0);
            let q = Query::from_term_ids(&index, &terms);
            let lists = IndexLists::new(&index, &q);
            let freqs = TableFreqs::new(&table, &q);
            let tra = run(&lists, &freqs, &q, 10).unwrap();
            let naive = pscan::naive_topk(&table, &q, 10);
            assert_eq!(tra.result.docs(), naive.docs(), "seed={seed} qsize={qsize}");
        }
    }

    #[test]
    fn tra_reads_fewer_entries_than_list_length() {
        let corpus = SyntheticConfig::tiny(300, 5).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let table = DocTable::from_index(&index);
        // Pick the longest list plus a short one: early termination should
        // prune the long list.
        let dfs = index.document_frequencies();
        let longest = (0..dfs.len()).max_by_key(|&t| dfs[t]).unwrap() as u32;
        let shortest = (0..dfs.len()).min_by_key(|&t| dfs[t]).unwrap() as u32;
        let q = Query::from_term_ids(&index, &[shortest, longest]);
        let lists = IndexLists::new(&index, &q);
        let freqs = TableFreqs::new(&table, &q);
        let out = run(&lists, &freqs, &q, 3).unwrap();
        let total_read: usize = out.prefix_lens.iter().sum();
        let total_len = index.list(longest).len() + index.list(shortest).len();
        assert!(
            total_read < total_len,
            "read {total_read} of {total_len} entries"
        );
    }

    #[test]
    fn prefix_lens_include_cutoff_front() {
        let (corpus, index) = setup_small();
        let table = DocTable::from_index(&index);
        let night = corpus.term_id("night").unwrap();
        let q = Query::from_term_ids(&index, &[night]);
        let lists = IndexLists::new(&index, &q);
        let freqs = TableFreqs::new(&table, &q);
        let out = run(&lists, &freqs, &q, 1).unwrap();
        // Single list, r=1: pops until front weight can't beat the best.
        assert!(out.prefix_lens[0] >= 1);
        assert!(out.prefix_lens[0] <= index.list(night).len());
    }

    #[test]
    fn encountered_covers_all_prefix_docs() {
        let corpus = SyntheticConfig::tiny(200, 8).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let table = DocTable::from_index(&index);
        let terms = authsearch_corpus::workload::synthetic(index.num_terms(), 1, 3, 9).remove(0);
        let q = Query::from_term_ids(&index, &terms);
        let lists = IndexLists::new(&index, &q);
        let freqs = TableFreqs::new(&table, &q);
        let out = run(&lists, &freqs, &q, 5).unwrap();
        let enc: HashSet<DocId> = out.encountered.iter().copied().collect();
        for (i, &plen) in out.prefix_lens.iter().enumerate() {
            for pos in 0..plen {
                let e = lists.entry(i, pos).unwrap().unwrap();
                assert!(enc.contains(&e.doc), "prefix doc {} missing", e.doc);
            }
        }
    }

    #[test]
    fn traced_run_matches_untraced() {
        let (corpus, index) = setup_small();
        let table = DocTable::from_index(&index);
        let keeper = corpus.term_id("keeper").unwrap();
        let house = corpus.term_id("house").unwrap();
        let q = Query::from_term_ids(&index, &[keeper, house]);
        let lists = IndexLists::new(&index, &q);
        let freqs = TableFreqs::new(&table, &q);
        let plain = run(&lists, &freqs, &q, 2).unwrap();
        let (traced, trace) = run_traced(&lists, &freqs, &q, 2).unwrap();
        assert_eq!(plain, traced);
        assert_eq!(trace.len(), plain.iterations + 1); // + terminating row
        assert!(trace.last().unwrap().popped.is_none());
    }

    #[test]
    fn zero_r_terminates_immediately() {
        let (corpus, index) = setup_small();
        let table = DocTable::from_index(&index);
        let night = corpus.term_id("night").unwrap();
        let q = Query::from_term_ids(&index, &[night]);
        let lists = IndexLists::new(&index, &q);
        let freqs = TableFreqs::new(&table, &q);
        let out = run(&lists, &freqs, &q, 0).unwrap();
        assert!(out.result.entries.is_empty());
    }
}
