//! TNRA — Threshold with No Random Access (paper Figure 10).
//!
//! Adaptation of Fagin's NRA \[10\]: no random accesses at all — the
//! algorithm maintains, for every polled document, a lower bound `SLB`
//! (sum of the weights actually seen) and an upper bound `SUB` (seen
//! weights plus, for each list the document has not been seen in, that
//! list's current front weight). Like the paper's TRA adaptation, pops
//! favour the list with the highest current term score rather than equal
//! depth.
//!
//! Termination (Figure 10, step 4a) requires all three of:
//!
//! 1. complete ordering among the top r: `SLB(d_j) ≥ SUB(d_k)` ∀ j<k≤r;
//! 2. every other polled document cannot climb in: `SUB(d) ≤ SLB(d_r)`;
//! 3. no unseen document can climb in: `thres ≤ SLB(d_r)`.
//!
//! The same [`run`] is the engine's scan and the user's replay over the
//! VO's prefixes, so its bookkeeping is laid out for both, at O(r) per
//! pop:
//!
//! * each polled document gets an *encounter slot* the first time it is
//!   popped — its id at `docs[slot]`, its bounds at `states[slot]` —
//!   found through the one doc-id map (`types::DocIdMap`, a multiply,
//!   not SipHash);
//! * the one top-r every scan ranks through (`types::TopR`) holds the
//!   current top r slots in rank order (`SLB` descending, doc id
//!   ascending), and every other candidate stays unordered. A pop only
//!   raises the popped document's `SLB`, so it moves up inside the top r
//!   or enters it at the bottom, evicting the r-th: the top r is always
//!   the first r of the full rank order (the paper's `R`). Condition 1
//!   reads the top r; condition 2 walks every slot outside it, in any
//!   order, since it holds for all or fails.
//!
//! Term scores are finite and non-negative: every query weight is
//! checked at construction (`Query::new`) and every index weight where it
//! enters the index (`InvertedIndex::from_parts`), and a replay reads
//! only weights authenticated against the owner's index. A negative or
//! NaN score would lower a bound and void both the threshold and the
//! top-r order.

use crate::access::{fetched, AccessError, ListAccess};
use crate::types::{DocIdMap, ProcessingOutcome, Query, ResultEntry, TopR, RESERVED_SLOTS};
use authsearch_corpus::DocId;

/// Longest query TNRA evaluates: a document's seen-in-list set is a
/// `u64` bitmask (TREC tops out at 20 terms). [`run`] refuses longer
/// queries with an [`AccessError`], and
/// [`AuthenticatedIndex::check`](crate::AuthenticatedIndex::check) before
/// they reach it.
pub const MAX_QUERY_TERMS: usize = 64;

/// Bound state of the document at one encounter slot: `SLB` and the
/// lists the document has been seen in (one bit per query term).
#[derive(Debug, Clone, Copy, Default)]
struct DocState {
    lb: f64,
    seen_mask: u64,
}

impl DocState {
    /// `SUB`: `SLB` plus the front score `cs[i]` of every list `i` the
    /// document has not been seen in.
    fn ub(&self, cs: &[f64]) -> f64 {
        let mut ub = self.lb;
        for (i, &c) in cs.iter().enumerate() {
            if self.seen_mask & (1 << i) == 0 {
                ub += c;
            }
        }
        ub
    }
}

/// Every document the run has met, by encounter slot: slot `s` has id
/// `docs[s]` and bounds `states[s]`, and `index` maps an id to its slot.
/// `top` ranks the slots by `⟨d, SLB⟩`.
struct Slots {
    index: DocIdMap<u32>,
    docs: Vec<DocId>,
    states: Vec<DocState>,
    top: TopR<u32>,
}

impl Slots {
    /// Room for `n` slots, ranking the top `r`.
    fn new(n: usize, r: usize) -> Slots {
        Slots {
            index: DocIdMap::with_capacity_and_hasher(n, Default::default()),
            docs: Vec::with_capacity(n),
            states: Vec::with_capacity(n),
            top: TopR::new(r, n),
        }
    }

    /// The slot of `d`, allocating the next one the first time `d` is
    /// met.
    fn of(&mut self, d: DocId) -> u32 {
        *self.index.entry(d).or_insert_with(|| {
            self.docs.push(d);
            self.states.push(DocState::default());
            // lint:allow(truncating-cast): one slot per distinct u32 doc id, so every slot index fits in u32
            (self.docs.len() - 1) as u32
        })
    }

    fn state(&self, s: u32) -> &DocState {
        &self.states[s as usize]
    }

    /// `⟨d, SLB⟩` of slot `s`, the entry it ranks by.
    fn entry(&self, s: u32) -> ResultEntry {
        ResultEntry {
            doc: self.docs[s as usize],
            score: self.state(s).lb,
        }
    }

    /// Add `c` to the `SLB` of `slot`, seen in list `i`, and re-seat it
    /// in `top`.
    fn raise(&mut self, slot: u32, i: usize, c: f64) {
        let st = &mut self.states[slot as usize];
        st.lb += c;
        st.seen_mask |= 1 << i;
        self.top.offer(self.entry(slot), slot);
    }
}

/// One iteration record for trace replay (Figure 11).
#[derive(Debug, Clone, PartialEq)]
// lint:allow(unused-pub): reached only through `tnra::run_traced`'s trace
pub struct TnraIteration {
    /// Threshold at the top of the iteration.
    pub thres: f64,
    /// `(query term index, doc, weight)` popped; `None` when terminating.
    pub popped: Option<(usize, DocId, f32)>,
    /// `(doc, SLB, SUB)` snapshot, ordered by descending SLB.
    pub bounds: Vec<(DocId, f64, f64)>,
}

/// Run TNRA for the top `r` documents. A query of more than
/// [`MAX_QUERY_TERMS`] terms is an [`AccessError`].
pub fn run<L: ListAccess>(
    lists: &L,
    query: &Query,
    r: usize,
) -> Result<ProcessingOutcome, AccessError> {
    run_inner(lists, query, r, None)
}

/// Run TNRA capturing a per-iteration trace (Figure 11 golden tests and
/// the `trace` bench binary).
pub fn run_traced<L: ListAccess>(
    lists: &L,
    query: &Query,
    r: usize,
) -> Result<(ProcessingOutcome, Vec<TnraIteration>), AccessError> {
    let mut trace = Vec::new();
    let outcome = run_inner(lists, query, r, Some(&mut trace))?;
    Ok((outcome, trace))
}

fn run_inner<L: ListAccess>(
    lists: &L,
    query: &Query,
    r: usize,
    mut trace: Option<&mut Vec<TnraIteration>>,
) -> Result<ProcessingOutcome, AccessError> {
    let q = query.terms().len();
    if q > MAX_QUERY_TERMS {
        return Err(AccessError::new(format!(
            "TNRA query of {q} terms exceeds the {MAX_QUERY_TERMS}-term limit"
        )));
    }

    let mut pos = vec![0usize; q];
    let mut fronts: Vec<Option<(DocId, f32)>> = Vec::with_capacity(q);
    for i in 0..q {
        fronts.push(lists.entry(i, 0)?.map(|e| (e.doc, e.weight)));
    }

    let candidates = (0..q)
        .map(|i| lists.list_len(i))
        .fold(0usize, usize::saturating_add);
    let mut slots = Slots::new(candidates.min(RESERVED_SLOTS), r);
    // Current front term scores c_i, refilled at the top of each iteration.
    let mut cs = vec![0.0f64; q];
    let mut iterations = 0usize;

    loop {
        fill_front_scores(&mut cs, &fronts, query);
        let thres: f64 = cs.iter().sum();

        // Step 4(a): the three termination conditions, cheapest first.
        // R holds at least r documents exactly when `top` has an r-th.
        let terminated = r == 0
            || slots.top.rth().is_some_and(|rth| {
                let slb_r = rth.score;
                let cond3 = slb_r >= thres;
                let cond1 = cond3
                    && (slots.top.entries().windows(2))
                        .all(|w| w[0].0.score >= slots.state(w[1].1).ub(&cs));
                // Condition 2 is over the slots ranking after the r-th.
                // SUB(d) ≤ SLB(d) + thres, so the sum settles most of them
                // without the rank test or the per-list walk.
                cond1
                    && slots.states.iter().zip(&slots.docs).all(|(st, &doc)| {
                        st.lb + thres <= slb_r
                            || ResultEntry { doc, score: st.lb }.rank(rth).is_le()
                            || st.ub(&cs) <= slb_r
                    })
            });

        // Step 4(b): pop the highest term score (ties: lowest index).
        let mut best: Option<(usize, f64)> = None;
        if !terminated {
            for (i, &c) in cs.iter().enumerate() {
                if fronts[i].is_some() && best.is_none_or(|(_, bc)| c > bc) {
                    best = Some((i, c));
                }
            }
        }
        // Terminated, or all lists exhausted.
        let Some((i, c)) = best else {
            if let Some(t) = trace.as_deref_mut() {
                t.push(TnraIteration {
                    thres,
                    popped: None,
                    bounds: snapshot(&slots, &cs),
                });
            }
            break;
        };
        let (d, w) = fronts[i].expect("selected list has a front");

        // Step 4(c): create or update the document's bounds, and its
        // place in the top r.
        let slot = slots.of(d);
        slots.raise(slot, i, c);

        // Advance list i.
        pos[i] += 1;
        fronts[i] = lists.entry(i, pos[i])?.map(|e| (e.doc, e.weight));
        iterations += 1;

        if let Some(t) = trace.as_deref_mut() {
            // Bounds against the advanced fronts (the next iteration
            // refills `cs` from the same fronts).
            fill_front_scores(&mut cs, &fronts, query);
            t.push(TnraIteration {
                thres,
                popped: Some((i, d, w)),
                bounds: snapshot(&slots, &cs),
            });
        }
    }

    // Fetched-but-unpopped fronts count as encountered (they are in the
    // VO prefixes).
    for &(d, _) in fronts.iter().flatten() {
        slots.of(d);
    }

    Ok(ProcessingOutcome {
        result: slots.top.into_result(),
        prefix_lens: fetched(lists, &pos),
        encountered: slots.docs,
        iterations,
    })
}

/// `cs[i] = w_{Q,t_i} · w` of list `i`'s front entry (0 once exhausted).
fn fill_front_scores(cs: &mut [f64], fronts: &[Option<(DocId, f32)>], query: &Query) {
    for ((c, front), qt) in cs.iter_mut().zip(fronts).zip(query.terms()) {
        *c = front.map_or(0.0, |(_, w)| qt.wq * w as f64);
    }
}

/// `(doc, SLB, SUB)` of every polled document, in rank order: the full
/// `R`, sorted here because the loop orders only its top r.
fn snapshot(slots: &Slots, cs: &[f64]) -> Vec<(DocId, f64, f64)> {
    // lint:allow(truncating-cast): one slot per distinct u32 doc id, so every slot index fits in u32
    let mut order: Vec<u32> = (0..slots.docs.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| slots.entry(a).rank(&slots.entry(b)));
    order
        .iter()
        .map(|&s| {
            let st = slots.state(s);
            (slots.docs[s as usize], st.lb, st.ub(cs))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::IndexLists;
    use crate::pscan;
    use crate::types::{DocOrderedLists, QueryError, QueryResult};
    use authsearch_corpus::SyntheticConfig;
    use authsearch_index::{build_index, ImpactEntry, InvertedIndex, InvertedList, OkapiParams};
    use std::collections::HashMap;

    #[test]
    fn tnra_matches_naive_top_docs() {
        let corpus = SyntheticConfig::tiny(150, 33).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let table = DocOrderedLists::from_index(&index);
        for (seed, qsize) in [(10u64, 2usize), (11, 3), (12, 4)] {
            let terms =
                authsearch_corpus::workload::synthetic(index.num_terms(), 1, qsize, seed).remove(0);
            let q = crate::types::Query::from_term_ids(&index, &terms);
            let lists = IndexLists::new(&index, &q);
            let out = run(&lists, &q, 10).unwrap();
            let naive = pscan::naive_topk(&table, &q, 10);
            // Document sets must agree up to the shorter of the two (naive
            // drops zero-score docs).
            let k = out.result.entries.len().min(naive.entries.len());
            assert_eq!(
                out.result.docs()[..k],
                naive.docs()[..k],
                "seed={seed} qsize={qsize}"
            );
        }
    }

    #[test]
    fn tnra_scores_are_exact_at_termination() {
        // At termination the top-r documents' SLB must equal their true
        // scores whenever their bounds have fully converged; spot-check
        // against the naive scorer.
        let corpus = SyntheticConfig::tiny(120, 44).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let table = DocOrderedLists::from_index(&index);
        let terms = authsearch_corpus::workload::synthetic(index.num_terms(), 1, 3, 5).remove(0);
        let q = crate::types::Query::from_term_ids(&index, &terms);
        let lists = IndexLists::new(&index, &q);
        let out = run(&lists, &q, 5).unwrap();
        for e in &out.result.entries {
            let mut truth = 0.0f64;
            for qt in q.terms() {
                truth += qt.wq * table.weight(e.doc, qt.term) as f64;
            }
            assert!(
                e.score <= truth + 1e-9,
                "SLB {} exceeds true score {truth}",
                e.score
            );
        }
    }

    #[test]
    fn tnra_reads_at_least_as_much_as_tra() {
        // §3.4: "TNRA is expected to poll a higher fraction of the
        // inverted lists than TRA."
        let corpus = SyntheticConfig::tiny(250, 55).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let table = DocOrderedLists::from_index(&index);
        let mut tra_total = 0usize;
        let mut tnra_total = 0usize;
        for seed in 0..10u64 {
            let terms =
                authsearch_corpus::workload::synthetic(index.num_terms(), 1, 3, seed).remove(0);
            let q = crate::types::Query::from_term_ids(&index, &terms);
            let lists = IndexLists::new(&index, &q);
            let freqs = crate::access::TableFreqs::new(&table, &q);
            tra_total += crate::tra::run(&lists, &freqs, &q, 10)
                .unwrap()
                .prefix_lens
                .iter()
                .sum::<usize>();
            tnra_total += run(&lists, &q, 10)
                .unwrap()
                .prefix_lens
                .iter()
                .sum::<usize>();
        }
        assert!(
            tnra_total >= tra_total,
            "TNRA read {tnra_total} < TRA {tra_total}"
        );
    }

    #[test]
    fn traced_matches_untraced() {
        let corpus = SyntheticConfig::tiny(100, 66).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let terms = authsearch_corpus::workload::synthetic(index.num_terms(), 1, 3, 77).remove(0);
        let q = crate::types::Query::from_term_ids(&index, &terms);
        let lists = IndexLists::new(&index, &q);
        let plain = run(&lists, &q, 4).unwrap();
        let (traced, trace) = run_traced(&lists, &q, 4).unwrap();
        assert_eq!(plain, traced);
        assert_eq!(trace.len(), plain.iterations + 1);
    }

    #[test]
    fn bounds_sane_in_trace() {
        let corpus = SyntheticConfig::tiny(100, 88).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let terms = authsearch_corpus::workload::synthetic(index.num_terms(), 1, 2, 99).remove(0);
        let q = crate::types::Query::from_term_ids(&index, &terms);
        let lists = IndexLists::new(&index, &q);
        let (_, trace) = run_traced(&lists, &q, 3).unwrap();
        for it in &trace {
            for &(_, lb, ub) in &it.bounds {
                assert!(lb <= ub + 1e-9, "lb {lb} > ub {ub}");
            }
            // Ordered by descending lb.
            assert!(it.bounds.windows(2).all(|w| w[0].1 >= w[1].1));
        }
    }

    #[test]
    fn over_long_query_is_an_access_error() {
        let weights = |q: u32| (0..q).map(|t| (t, 1.0)).collect::<Vec<_>>();
        let q = Query::with_weights(&weights(MAX_QUERY_TERMS as u32 + 1)).unwrap();
        let lists = VecLists(vec![vec![entry(0, 1.0)]; MAX_QUERY_TERMS + 1]);
        let err = run(&lists, &q, 1).unwrap_err();
        assert!(err.what.contains("65 terms"), "{err}");
        // The limit itself is served.
        let q = Query::with_weights(&weights(MAX_QUERY_TERMS as u32)).unwrap();
        let lists = VecLists(vec![vec![entry(0, 1.0)]; MAX_QUERY_TERMS]);
        assert_eq!(run(&lists, &q, 1).unwrap().result.docs(), vec![0]);
    }

    // ---- Oracle: the loop before slot-indexed state and the top-r order --
    //
    // Bounds in a SipHash `HashMap<DocId, OracleState>` looked up on every
    // probe, every candidate in one `ranked` vector of doc ids kept in
    // rank order by remove-and-insert, a fresh front-score `Vec` per
    // iteration; kept to pin `run_inner` above.

    /// The oracle's own bound state: `SLB` and the seen-in-list bitmask.
    #[derive(Debug, Clone, Copy)]
    struct OracleState {
        lb: f64,
        seen_mask: u64,
    }

    fn oracle_run<L: ListAccess>(
        lists: &L,
        query: &Query,
        r: usize,
    ) -> (ProcessingOutcome, Vec<TnraIteration>) {
        let q = query.terms().len();
        assert!(q <= 64, "query size beyond the 64-term bitmask");
        let mut trace = Vec::new();

        let mut pos = vec![0usize; q];
        let mut fronts: Vec<Option<(DocId, f32)>> = Vec::with_capacity(q);
        for i in 0..q {
            fronts.push(lists.entry(i, 0).unwrap().map(|e| (e.doc, e.weight)));
        }

        let mut ranked: Vec<DocId> = Vec::new();
        let mut states: HashMap<DocId, OracleState> = HashMap::new();
        let mut encountered: Vec<DocId> = Vec::new();
        let mut iterations = 0usize;

        let front_score = |fronts: &[Option<(DocId, f32)>], i: usize| -> f64 {
            fronts[i].map_or(0.0, |(_, w)| query.terms()[i].wq * w as f64)
        };

        loop {
            let cs: Vec<f64> = (0..q).map(|i| front_score(&fronts, i)).collect();
            let thres: f64 = cs.iter().sum();
            let sub = |st: &OracleState| -> f64 {
                let mut ub = st.lb;
                for (i, &c) in cs.iter().enumerate() {
                    if st.seen_mask & (1 << i) == 0 {
                        ub += c;
                    }
                }
                ub
            };

            let terminated = r == 0
                || (ranked.len() >= r && {
                    let slb_r = states[&ranked[r - 1]].lb;
                    let cond3 = slb_r >= thres;
                    let cond1 = cond3
                        && ranked[..r]
                            .windows(2)
                            .all(|w| states[&w[0]].lb >= sub(&states[&w[1]]));
                    let cond2 = cond1
                        && ranked[r..].iter().all(|d| {
                            let st = &states[d];
                            st.lb + thres <= slb_r || sub(st) <= slb_r
                        });
                    cond1 && cond2
                });
            if terminated {
                trace.push(TnraIteration {
                    thres,
                    popped: None,
                    bounds: oracle_snapshot(&ranked, &states, &sub),
                });
                break;
            }

            let mut best: Option<(usize, f64)> = None;
            for (i, &c) in cs.iter().enumerate() {
                if fronts[i].is_some() && best.is_none_or(|(_, bc)| c > bc) {
                    best = Some((i, c));
                }
            }
            let Some((i, c)) = best else {
                trace.push(TnraIteration {
                    thres,
                    popped: None,
                    bounds: oracle_snapshot(&ranked, &states, &sub),
                });
                break;
            };

            let (d, w) = fronts[i].expect("selected list has a front");
            let st = states.entry(d).or_insert_with(|| {
                encountered.push(d);
                OracleState {
                    lb: 0.0,
                    seen_mask: 0,
                }
            });
            let was_new = st.seen_mask == 0;
            st.lb += c;
            st.seen_mask |= 1 << i;
            let new_lb = st.lb;

            if !was_new {
                let old = ranked.iter().position(|&x| x == d).expect("ranked doc");
                ranked.remove(old);
            }
            let ins = ranked.partition_point(|&x| {
                let s = states[&x].lb;
                s > new_lb || (s == new_lb && x < d)
            });
            ranked.insert(ins, d);

            pos[i] += 1;
            fronts[i] = lists.entry(i, pos[i]).unwrap().map(|e| (e.doc, e.weight));
            iterations += 1;

            let cs2: Vec<f64> = (0..q).map(|j| front_score(&fronts, j)).collect();
            let sub2 = |st: &OracleState| -> f64 {
                let mut ub = st.lb;
                for (j, &cc) in cs2.iter().enumerate() {
                    if st.seen_mask & (1 << j) == 0 {
                        ub += cc;
                    }
                }
                ub
            };
            trace.push(TnraIteration {
                thres,
                popped: Some((i, d, w)),
                bounds: oracle_snapshot(&ranked, &states, &sub2),
            });
        }

        for front in fronts.iter().flatten() {
            states.entry(front.0).or_insert_with(|| {
                encountered.push(front.0);
                OracleState {
                    lb: 0.0,
                    seen_mask: 0,
                }
            });
        }

        let prefix_lens: Vec<usize> = (0..q)
            .map(|i| {
                let li = lists.list_len(i);
                if pos[i] < li {
                    pos[i] + 1
                } else {
                    li
                }
            })
            .collect();

        let entries: Vec<ResultEntry> = ranked
            .iter()
            .take(r)
            .map(|&d| ResultEntry {
                doc: d,
                score: states[&d].lb,
            })
            .collect();

        let outcome = ProcessingOutcome {
            result: QueryResult { entries },
            prefix_lens,
            encountered,
            iterations,
        };
        (outcome, trace)
    }

    fn oracle_snapshot<F: Fn(&OracleState) -> f64>(
        ranked: &[DocId],
        states: &HashMap<DocId, OracleState>,
        sub: &F,
    ) -> Vec<(DocId, f64, f64)> {
        ranked
            .iter()
            .map(|&d| {
                let st = &states[&d];
                (d, st.lb, sub(st))
            })
            .collect()
    }

    /// In-memory lists for hand-shaped inputs (ties, empty lists).
    struct VecLists(Vec<Vec<ImpactEntry>>);

    impl ListAccess for VecLists {
        fn list_len(&self, i: usize) -> usize {
            self.0[i].len()
        }

        fn entry(&self, i: usize, pos: usize) -> Result<Option<ImpactEntry>, AccessError> {
            Ok(self.0[i].get(pos).copied())
        }
    }

    fn entry(doc: DocId, weight: f32) -> ImpactEntry {
        ImpactEntry { doc, weight }
    }

    /// `run` and `run_traced` against the oracle: equal outcomes, and
    /// equal traces iteration by iteration, with every float compared by
    /// its bits.
    fn assert_matches_oracle<L: ListAccess>(lists: &L, q: &Query, r: usize, case: &str) {
        let (want, want_trace) = oracle_run(lists, q, r);
        let got = run(lists, q, r).unwrap();
        assert_eq!(got, want, "{case} r={r}");
        let bits = |o: &ProcessingOutcome| -> Vec<u64> {
            o.result.entries.iter().map(|e| e.score.to_bits()).collect()
        };
        assert_eq!(bits(&got), bits(&want), "{case} r={r}: scores");
        let (traced, trace) = run_traced(lists, q, r).unwrap();
        assert_eq!(traced, want, "{case} r={r}: traced outcome");
        assert_eq!(trace.len(), want_trace.len(), "{case} r={r}: iterations");
        for (k, (a, b)) in trace.iter().zip(&want_trace).enumerate() {
            assert_eq!(a, b, "{case} r={r}: iteration {k}");
            assert_eq!(a.thres.to_bits(), b.thres.to_bits(), "{case} r={r}: {k}");
            for (x, y) in a.bounds.iter().zip(&b.bounds) {
                assert_eq!(
                    (x.1.to_bits(), x.2.to_bits()),
                    (y.1.to_bits(), y.2.to_bits()),
                    "{case} r={r}: iteration {k} doc {}",
                    x.0
                );
            }
        }
    }

    #[test]
    fn slot_loop_matches_hashmap_oracle_on_generated_corpora() {
        for seed in 0..6u64 {
            let num_docs = 40 + 30 * seed as usize;
            let corpus = SyntheticConfig::tiny(num_docs, 100 + seed).generate();
            let index = build_index(&corpus, OkapiParams::default());
            for qsize in 1..=12usize {
                let terms =
                    authsearch_corpus::workload::synthetic(index.num_terms(), 1, qsize, seed)
                        .remove(0);
                let q = crate::types::Query::from_term_ids(&index, &terms);
                let lists = IndexLists::new(&index, &q);
                // More than the candidates: every list is read to its end.
                for r in [0, 1, 2, 10, num_docs + 1] {
                    let case = format!("seed={seed} qsize={qsize}");
                    assert_matches_oracle(&lists, &q, r, &case);
                }
            }
        }
    }

    #[test]
    fn slot_loop_matches_hashmap_oracle_on_ties_and_exhausted_lists() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x746e_7261);
        for case in 0..300 {
            let qsize = rng.gen_range(1..=12usize);
            let docs = rng.gen_range(1..=16u32);
            // Two weights and two query weights: equal term scores,
            // equal bounds and equal thresholds are the common case.
            let lists: Vec<Vec<ImpactEntry>> = (0..qsize)
                .map(|_| {
                    let mut list: Vec<ImpactEntry> = (0..docs)
                        .filter_map(|d| {
                            let weight = if rng.gen_bool(0.5) { 1.0 } else { 0.5 };
                            rng.gen_bool(0.5).then(|| entry(d, weight))
                        })
                        .collect();
                    list.sort_by(|a, b| b.weight.total_cmp(&a.weight));
                    list
                })
                .collect();
            let weights: Vec<(authsearch_corpus::TermId, f64)> = (0..qsize as u32)
                .map(|t| (t, if rng.gen_bool(0.5) { 1.0 } else { 2.0 }))
                .collect();
            let q = Query::with_weights(&weights).unwrap();
            let lists = VecLists(lists);
            for r in [0, 1, 2, 10, docs as usize + 1] {
                assert_matches_oracle(&lists, &q, r, &format!("case={case}"));
            }
        }
    }

    #[test]
    fn top_r_loop_matches_oracle_on_a_wsj_shaped_workload() {
        use crate::auth::AuthConfig;
        use crate::owner::DataOwner;
        use crate::vo::Mechanism;
        use authsearch_crypto::keys::TEST_KEY_BITS;

        // The benchmark's TNRA shape at a tenth of its size: WSJ-like
        // lengths and skew, 3-term synthetic queries.
        let corpus = SyntheticConfig::wsj(0.002).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let n = index.num_docs();
        let queries = authsearch_corpus::workload::synthetic(index.num_terms(), 12, 3, 7);
        for (k, terms) in queries.iter().enumerate() {
            let q = crate::types::Query::from_term_ids(&index, terms);
            let lists = IndexLists::new(&index, &q);
            for r in [1, 10, 50, n + 1] {
                assert_matches_oracle(&lists, &q, r, &format!("query {k}"));
            }
        }

        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        for mechanism in [Mechanism::TnraMht, Mechanism::TnraCmht] {
            let publication =
                owner.publish_index(index.clone(), AuthConfig::new(mechanism), &corpus);
            for (k, terms) in queries.iter().enumerate() {
                let q = crate::types::Query::from_term_ids(&index, terms);
                let reply = publication.auth.query(&q, 10, &corpus).unwrap();
                let verified = crate::verify::verify(&publication.verifier_params, &q, 10, &reply)
                    .unwrap_or_else(|e| panic!("{mechanism:?} query {k}: {e}"));
                assert_eq!(verified.result, reply.result, "{mechanism:?} query {k}");
            }
        }
    }

    #[test]
    fn negative_or_nan_query_weight_is_an_access_error_at_both_ends() {
        // A negative or NaN query weight cannot be built, and neither
        // can an index holding such a document weight, so neither the
        // engine's scan nor the client's replay (which reads only
        // weights authenticated against the owner's index) meets one.
        for wq in [-1.0, f64::NAN] {
            let refused = Query::with_weights(&[(0, 1.0), (1, wq)]);
            assert!(
                matches!(refused, Err(QueryError::BadWeight { term: 1, .. })),
                "wq={wq}: {refused:?}"
            );
        }
        for w in [-1.0, f32::NAN] {
            let lists = vec![InvertedList::from_entries(vec![entry(3, w)])];
            let index = InvertedIndex::from_parts(OkapiParams::default(), 4, 1.0, vec![1], lists);
            assert!(index.is_err(), "w={w}");
        }
        let q = Query::with_weights(&[(0, 1.0), (1, 1.0)]).unwrap();
        // A zero term score is a legal pop.
        let lists = VecLists(vec![vec![entry(3, 0.0)], vec![entry(4, 1.0)]]);
        assert_eq!(run(&lists, &q, 2).unwrap().result.docs(), vec![4, 3]);
    }

    #[test]
    fn zero_r_terminates_immediately() {
        let corpus = SyntheticConfig::tiny(80, 1).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let terms = authsearch_corpus::workload::synthetic(index.num_terms(), 1, 2, 2).remove(0);
        let q = crate::types::Query::from_term_ids(&index, &terms);
        let lists = IndexLists::new(&index, &q);
        let out = run(&lists, &q, 0).unwrap();
        assert!(out.result.entries.is_empty());
        assert_eq!(out.iterations, 0);
    }
}
