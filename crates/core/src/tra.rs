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
//! fetched at once (the random access; served by each term's list in
//! doc-id order, and proved by its doc-order tree, in the authenticated
//! setting) and its exact score computed.
//!
//! The same [`run`] is the engine's scan and the client's replay. It
//! finds first encounters through the one doc-id map (`types::DocIdMap`)
//! and ranks through the one top-r (`types::TopR`), whose r-th entry the
//! termination test reads; only a traced run keeps, and sorts, the rest.

use crate::access::{fetched, AccessError, FreqAccess, ListAccess};
use crate::types::{DocIdMap, ProcessingOutcome, Query, ResultEntry, TopR, RESERVED_SLOTS};
use authsearch_corpus::DocId;

/// One iteration record for trace replay (Figure 6).
#[derive(Debug, Clone, PartialEq)]
// lint:allow(unused-pub): reached only through `tra::run_traced`'s trace
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

    // Room for every candidate, up to a bound, as TNRA's slots reserve.
    let room = (0..q)
        .map(|i| lists.list_len(i))
        .sum::<usize>()
        .min(RESERVED_SLOTS);
    let mut top = TopR::new(r, room);
    let mut seen: DocIdMap<()> = DocIdMap::with_capacity_and_hasher(room, Default::default());
    let mut encountered: Vec<DocId> = Vec::with_capacity(room);
    // Every scored document, kept only for a trace's snapshots.
    let mut scored: Vec<ResultEntry> = Vec::new();
    let mut iterations = 0usize;

    loop {
        // Step 3 / 4(d): thres = Σ_i c_i over current fronts.
        let thres: f64 = (0..q)
            .map(|i| fronts[i].map_or(0.0, |(_, w)| query.terms()[i].wq * w as f64))
            .sum();

        // Step 4(a): top-r found once R.s_r ≥ thres.
        let found = r == 0 || top.rth().is_some_and(|rth| rth.score >= thres);

        // Step 4(b): pop the entry with the highest term score
        // (ties: lowest query-term index — fixed so engine and verifier
        // replay identically).
        let mut best: Option<(usize, f64)> = None;
        for (i, front) in fronts.iter().enumerate() {
            if let Some((_, w)) = front.filter(|_| !found) {
                let c = query.terms()[i].wq * w as f64;
                if best.is_none_or(|(_, bc)| c > bc) {
                    best = Some((i, c));
                }
            }
        }
        // Found, or all lists exhausted.
        let Some((i, _)) = best else {
            if let Some(t) = trace.as_deref_mut() {
                t.push(TraIteration {
                    thres,
                    popped: None,
                    result: ranked(&scored),
                });
            }
            break;
        };

        let (d, w) = fronts[i].expect("selected list has a front");

        // Step 4(c): first encounter → random-access all query-term
        // weights and score the document exactly.
        if seen.insert(d, ()).is_none() {
            encountered.push(d);
            let mut score = 0.0f64;
            for (j, qt) in query.terms().iter().enumerate() {
                score += qt.wq * freqs.weight(d, j)? as f64;
            }
            let entry = ResultEntry { doc: d, score };
            top.offer(entry, ());
            if trace.is_some() {
                scored.push(entry);
            }
        }

        // Advance list i.
        pos[i] += 1;
        fronts[i] = lists.entry(i, pos[i])?.map(|e| (e.doc, e.weight));
        iterations += 1;

        if let Some(t) = trace.as_deref_mut() {
            t.push(TraIteration {
                thres,
                popped: Some((i, d, w)),
                result: ranked(&scored),
            });
        }
    }

    // Cut-off fronts were fetched; their documents' frequencies are part
    // of the proof obligation even when never popped.
    for front in fronts.iter().flatten() {
        if seen.insert(front.0, ()).is_none() {
            encountered.push(front.0);
        }
    }

    Ok(ProcessingOutcome {
        result: top.into_result(),
        prefix_lens: fetched(lists, &pos),
        encountered,
        iterations,
    })
}

/// Every scored document in rank order: a trace's snapshot of `R`.
fn ranked(scored: &[ResultEntry]) -> Vec<ResultEntry> {
    let mut all = scored.to_vec();
    all.sort_unstable_by(ResultEntry::rank);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{IndexLists, TableFreqs};
    use crate::pscan;
    use crate::types::{DocOrderedLists, QueryResult};
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
        let table = DocOrderedLists::from_index(&index);
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
        let table = DocOrderedLists::from_index(&index);
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
        let table = DocOrderedLists::from_index(&index);
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
        let table = DocOrderedLists::from_index(&index);
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
        let table = DocOrderedLists::from_index(&index);
        let terms = authsearch_corpus::workload::synthetic(index.num_terms(), 1, 3, 9).remove(0);
        let q = Query::from_term_ids(&index, &terms);
        let lists = IndexLists::new(&index, &q);
        let freqs = TableFreqs::new(&table, &q);
        let out = run(&lists, &freqs, &q, 5).unwrap();
        for (i, &plen) in out.prefix_lens.iter().enumerate() {
            for pos in 0..plen {
                let e = lists.entry(i, pos).unwrap().unwrap();
                let met = out.encountered.contains(&e.doc);
                assert!(met, "prefix doc {} missing", e.doc);
            }
        }
    }

    #[test]
    fn traced_run_matches_untraced() {
        let (corpus, index) = setup_small();
        let table = DocOrderedLists::from_index(&index);
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
        let table = DocOrderedLists::from_index(&index);
        let night = corpus.term_id("night").unwrap();
        let q = Query::from_term_ids(&index, &[night]);
        let lists = IndexLists::new(&index, &q);
        let freqs = TableFreqs::new(&table, &q);
        let out = run(&lists, &freqs, &q, 0).unwrap();
        assert!(out.result.entries.is_empty());
    }

    // ---- Oracle: the loop before the one top-r ------------------------
    //
    // Every encountered document kept sorted in one vector by a shifting
    // insert, first encounters found through a SipHash set, the r-th read
    // off that vector, and a snapshot cloned from it; kept to pin
    // `run_inner` above.

    fn oracle_insert_ranked(entries: &mut Vec<ResultEntry>, doc: DocId, score: f64) {
        let pos = entries.partition_point(|e| e.score > score || (e.score == score && e.doc < doc));
        entries.insert(pos, ResultEntry { doc, score });
    }

    fn oracle_run<L: ListAccess, F: FreqAccess>(
        lists: &L,
        freqs: &F,
        query: &Query,
        r: usize,
    ) -> (ProcessingOutcome, Vec<TraIteration>) {
        let q = query.terms().len();
        let mut trace = Vec::new();
        let mut pos = vec![0usize; q];
        let mut fronts: Vec<Option<(DocId, f32)>> = (0..q)
            .map(|i| lists.entry(i, 0).unwrap().map(|e| (e.doc, e.weight)))
            .collect();
        let mut result: Vec<ResultEntry> = Vec::new();
        let mut seen: std::collections::HashSet<DocId> = Default::default();
        let mut encountered: Vec<DocId> = Vec::new();
        let mut iterations = 0usize;
        loop {
            let thres: f64 = (0..q)
                .map(|i| fronts[i].map_or(0.0, |(_, w)| query.terms()[i].wq * w as f64))
                .sum();
            if r == 0 || (result.len() >= r && result[r - 1].score >= thres) {
                let result = result.clone();
                trace.push(TraIteration {
                    thres,
                    popped: None,
                    result,
                });
                break;
            }
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
                let result = result.clone();
                trace.push(TraIteration {
                    thres,
                    popped: None,
                    result,
                });
                break;
            };
            let (d, w) = fronts[i].unwrap();
            if seen.insert(d) {
                encountered.push(d);
                let mut s = 0.0f64;
                for (j, qt) in query.terms().iter().enumerate() {
                    s += qt.wq * freqs.weight(d, j).unwrap() as f64;
                }
                oracle_insert_ranked(&mut result, d, s);
            }
            pos[i] += 1;
            fronts[i] = lists.entry(i, pos[i]).unwrap().map(|e| (e.doc, e.weight));
            iterations += 1;
            let popped = Some((i, d, w));
            trace.push(TraIteration {
                thres,
                popped,
                result: result.clone(),
            });
        }
        for front in fronts.iter().flatten() {
            if seen.insert(front.0) {
                encountered.push(front.0);
            }
        }
        let prefix_lens = (0..q)
            .map(|i| (pos[i] + 1).min(lists.list_len(i)))
            .collect();
        result.truncate(r);
        let outcome = ProcessingOutcome {
            result: QueryResult { entries: result },
            prefix_lens,
            encountered,
            iterations,
        };
        (outcome, trace)
    }

    /// Seeded texts over a 40-word vocabulary, every other one added
    /// twice: two documents with one text score alike on every query.
    fn tied_corpus(seed: u64) -> authsearch_corpus::Corpus {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = CorpusBuilder::new().min_df(1);
        for k in 0..60 {
            let len = rng.gen_range(2..12usize);
            let words: Vec<String> = (0..len)
                .map(|_| format!("t{}", rng.gen_range(0..40u32).min(rng.gen_range(0..40u32))))
                .collect();
            let text = words.join(" ");
            builder = builder.add_text(text.clone());
            if k % 2 == 0 {
                builder = builder.add_text(text);
            }
        }
        builder.build()
    }

    #[test]
    fn top_r_loop_matches_the_sorted_vector_oracle() {
        let bits = |o: &ProcessingOutcome| -> Vec<(DocId, u64)> {
            o.result
                .entries
                .iter()
                .map(|e| (e.doc, e.score.to_bits()))
                .collect()
        };
        let mut ties = 0;
        for seed in 0..8u64 {
            let corpus = tied_corpus(seed);
            let index = build_index(&corpus, OkapiParams::default());
            let table = DocOrderedLists::from_index(&index);
            for qsize in 1..=6usize {
                let terms = authsearch_corpus::workload::synthetic(
                    index.num_terms(),
                    1,
                    qsize,
                    seed * 31 + qsize as u64,
                )
                .remove(0);
                let q = Query::from_term_ids(&index, &terms);
                let lists = IndexLists::new(&index, &q);
                let freqs = TableFreqs::new(&table, &q);
                let candidates: usize = (0..qsize).map(|i| lists.list_len(i)).sum();
                // None, one, ten, more than the candidates, all.
                for r in [0, 1, 10, candidates + 1, usize::MAX] {
                    let case = format!("seed={seed} qsize={qsize} r={r}");
                    let (want, want_trace) = oracle_run(&lists, &freqs, &q, r);
                    let got = run(&lists, &freqs, &q, r).unwrap();
                    assert_eq!(bits(&got), bits(&want), "{case}: scores");
                    assert_eq!(got.prefix_lens, want.prefix_lens, "{case}: prefixes");
                    assert_eq!(got.encountered, want.encountered, "{case}: encountered");
                    assert_eq!(got.iterations, want.iterations, "{case}: iterations");
                    let (traced, trace) = run_traced(&lists, &freqs, &q, r).unwrap();
                    assert_eq!(traced, want, "{case}: traced outcome");
                    assert_eq!(trace.len(), want_trace.len(), "{case}: trace length");
                    for (k, (a, b)) in trace.iter().zip(&want_trace).enumerate() {
                        assert_eq!(a, b, "{case}: iteration {k}");
                        let snap = |t: &TraIteration| -> Vec<u64> {
                            t.result.iter().map(|e| e.score.to_bits()).collect()
                        };
                        assert_eq!(snap(a), snap(b), "{case}: iteration {k} scores");
                    }
                    let scores = want.result.entries.windows(2);
                    ties += scores.filter(|w| w[0].score == w[1].score).count();
                }
            }
        }
        assert!(ties > 0, "no tied scores in any result");
    }
}
