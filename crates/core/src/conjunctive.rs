//! Conjunctive (AND-semantics) candidate ranking, shared verbatim by
//! the engine ([`crate::auth::AuthenticatedIndex::query`]) and the
//! verifier ([`crate::verify::verify`]) when a query is posed as
//! [`crate::types::QueryMode::Conjunctive`].
//!
//! Every member of the intersection is on the *anchor* list (the
//! shortest, [`anchor_index`]), so [`rank_intersection`] scans that list
//! in its impact order and random-accesses each popped document's
//! query-term weights. Under TRA it stops early, as the paper's TRA
//! (Figure 5) does over all lists: before each pop, with `front` the
//! next anchor entry, it stops once the r-th ranked score is strictly
//! greater than `Σ_i wq_i·ŵ_i`, where `ŵ_a = w_a(front)` for the anchor
//! and `ŵ_j = w_j(head_j)` for every other list. No unpopped member can
//! score more: its anchor weight is at most the front's, its weight in
//! every other list at most that list's head. The bound is summed in
//! query-term order, as a score is, and `f64` rounding is monotone, so it
//! bounds every unpopped score in `f64` too. The comparison is strict, so
//! no unpopped member can even tie the r-th: the early top r is the
//! whole anchor's top r bit for bit, ties included.
//!
//! Both sides run *this exact code* over the same inputs: candidates in
//! anchor-list order, per-term weights queried in ascending query-term
//! index order, scores accumulated in `f64` in that same order, the top
//! r kept in rank order (score descending, doc id ascending) by the one
//! top-r every scan ranks through (`types::TopR`). That is
//! what makes the verifier's score comparison an equality check (modulo
//! [`SCORE_EPS`]) rather than a tolerance band, what lets the verifier
//! reach the engine's stop at the same entry, and what keeps conjunctive
//! responses bit-identical across thread counts.
//!
//! [`SCORE_EPS`]: crate::verify

use crate::types::{QueryResult, ResultEntry, TopR};
use authsearch_corpus::DocId;

/// The anchor list of a conjunctive query: the shortest posting list
/// (smallest `f_t`), ties broken by the lowest query-term index. Every
/// intersection member must appear in every list, so scanning the
/// shortest one covers all candidates with the cheapest full reveal.
///
/// The engine computes this from list lengths; the verifier recomputes
/// it from the *signed* `f_t` values, so a lying server cannot steer the
/// choice without breaking a signature.
pub(crate) fn anchor_index(fts: &[usize]) -> usize {
    let mut best = 0;
    for (i, &ft) in fts.iter().enumerate() {
        if ft < fts[best] {
            best = i;
        }
    }
    best
}

/// What one [`rank_intersection`] scan found.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Scan {
    /// The top r of the intersection.
    pub(crate) result: QueryResult,
    /// Anchor entries popped.
    pub(crate) popped: usize,
    /// Whether the stop held before entry `popped`, the front, was
    /// popped. `false` when the candidates ran out first.
    pub(crate) stopped: bool,
}

/// Rank the conjunctive top-`r` over `candidates`, the documents of the
/// anchor list (query term `anchor`) in list order: the whole list, or
/// on the verifier's side the revealed prefix. `wq` carries one
/// query-side weight per query term, in query order.
///
/// `heads` carries, per query term, the weight of that list's first
/// entry (the anchor's own slot is unused). With it the scan stops early
/// (module docs); without it, it ranks every candidate.
///
/// `weight_of(d, i)` returns the weight `w_{d,t_i}` of query term `i` in
/// document `d`, `0.0` for a (proven) absence, or the caller's error
/// when it cannot substantiate the weight at all — the verifier's "VO
/// is insufficient" case. The engine's source never fails, so it ranks
/// with `E = Infallible`. Terms are probed in ascending index order and
/// the first absence short-circuits, so both sides demand exactly the
/// same weights.
pub(crate) fn rank_intersection<I, F, E>(
    anchor: usize,
    candidates: I,
    wq: &[f64],
    heads: Option<&[f32]>,
    weight_of: F,
    r: usize,
) -> Result<Scan, E>
where
    I: IntoIterator<Item = DocId>,
    F: Fn(DocId, usize) -> Result<f32, E>,
{
    if let Some(heads) = heads {
        assert_eq!(heads.len(), wq.len(), "one head weight per query term");
    }
    let candidates = candidates.into_iter();
    let mut top = TopR::new(r, candidates.size_hint().0);
    let mut popped = 0;
    for d in candidates {
        if let (Some(heads), Some(rth)) = (heads, top.rth().map(|e| e.score)) {
            let mut bound = 0.0f64;
            for (i, (&wq_i, &head)) in wq.iter().zip(heads).enumerate() {
                let w = if i == anchor { weight_of(d, i)? } else { head };
                bound += wq_i * w as f64;
            }
            if rth > bound {
                return Ok(Scan {
                    result: top.into_result(),
                    popped,
                    stopped: true,
                });
            }
        }
        popped += 1;
        let mut score = 0.0f64;
        let mut member = true;
        for (i, &wq_i) in wq.iter().enumerate() {
            let w = weight_of(d, i)?;
            if w <= 0.0 {
                member = false;
                break;
            }
            score += wq_i * w as f64;
        }
        if member {
            top.offer(ResultEntry { doc: d, score }, ());
        }
    }
    Ok(Scan {
        result: top.into_result(),
        popped,
        stopped: false,
    })
}

/// The documents an early-stopped TRA reveal proves, in proof order:
/// the anchor's popped entries and its front (`anchor`), then each
/// list's head (`heads`, in query order) not already listed.
pub(crate) fn early_proofs(
    anchor: impl Iterator<Item = DocId>,
    heads: impl Iterator<Item = DocId>,
) -> Vec<DocId> {
    let mut docs: Vec<DocId> = anchor.collect();
    for head in heads {
        if !docs.contains(&head) {
            docs.push(head);
        }
    }
    docs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank every candidate without a stop: the result.
    fn rank_all<F: Fn(DocId, usize) -> Result<f32, ()>>(
        candidates: &[DocId],
        wq: &[f64],
        weight_of: F,
        r: usize,
    ) -> Result<QueryResult, ()> {
        rank_intersection(0, candidates.iter().copied(), wq, None, weight_of, r).map(|s| s.result)
    }

    /// The full-anchor oracle: every member scored in query-term order,
    /// all of them sorted, the first `r` kept.
    fn oracle(
        candidates: &[DocId],
        wq: &[f64],
        weights: &[Vec<f32>],
        r: usize,
    ) -> Vec<ResultEntry> {
        let mut all = Vec::new();
        for (k, &d) in candidates.iter().enumerate() {
            if weights[k].iter().all(|&w| w > 0.0) {
                let score = wq
                    .iter()
                    .zip(&weights[k])
                    .fold(0.0f64, |s, (&q, &w)| s + q * w as f64);
                all.push(ResultEntry { doc: d, score });
            }
        }
        all.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        all.truncate(r);
        all
    }

    #[test]
    fn anchor_is_smallest_ft_lowest_index_on_ties() {
        assert_eq!(anchor_index(&[5, 3, 9]), 1);
        assert_eq!(anchor_index(&[3, 3, 3]), 0);
        assert_eq!(anchor_index(&[7]), 0);
        assert_eq!(anchor_index(&[4, 2, 2, 8]), 1);
    }

    #[test]
    fn rank_intersection_keeps_only_full_members() {
        // Doc 1 has both terms, doc 2 misses term 1, doc 3 has both.
        let weights = |d: DocId, i: usize| -> Result<f32, ()> {
            Ok(match (d, i) {
                (1, _) => 1.0,
                (2, 0) => 2.0,
                (2, 1) => 0.0,
                (3, 0) => 3.0,
                (3, 1) => 1.0,
                _ => 0.0,
            })
        };
        let out = rank_all(&[1, 2, 3], &[1.0, 1.0], weights, 10).unwrap();
        assert_eq!(out.docs(), vec![3, 1]); // 4.0 > 2.0
        assert!(out.is_ordered());
    }

    #[test]
    fn rank_intersection_truncates_to_r() {
        let out = rank_all(&[4, 5, 6], &[1.0], |d, _| Ok(d as f32), 2).unwrap();
        assert_eq!(out.docs(), vec![6, 5]);
    }

    #[test]
    fn unproven_weight_aborts_with_the_culprit() {
        let err = rank_intersection(
            0,
            [7, 8],
            &[1.0, 1.0],
            None,
            |d, i| {
                if d == 8 && i == 1 {
                    Err((d, i))
                } else {
                    Ok(1.0)
                }
            },
            10,
        )
        .unwrap_err();
        assert_eq!(err, (8, 1));
    }

    #[test]
    fn absence_short_circuits_before_later_terms() {
        // Term 0 already absent from doc 9: term 1 must never be probed,
        // so an `Err` there is irrelevant (both sides behave identically).
        let out = rank_all(
            &[9],
            &[1.0, 1.0],
            |_, i| if i == 0 { Ok(0.0) } else { Err(()) },
            10,
        )
        .unwrap();
        assert!(out.entries.is_empty());
    }

    #[test]
    fn enumeration_order_is_canonicalized() {
        let weights = |d: DocId, _: usize| Ok(d as f32);
        let a = rank_all(&[1, 2, 3], &[1.0], weights, 10).unwrap();
        let b = rank_all(&[3, 1, 2], &[1.0], weights, 10).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stop_is_strict_so_ties_past_it_are_still_ranked() {
        // Anchor (term 0) weights 3, 2, 2; term 1's head weighs 1 and
        // every document has weight 1 there. After doc 10 (score 4) the
        // bound at doc 20 is 2 + 1 = 3 < 4: stop at r = 1. At r = 2 the
        // 2nd score 3 (doc 20) equals the bound at doc 5 (2 + 1): a tie
        // may outrank on doc id, so the scan pops doc 5, which does.
        let anchor_w = |d: DocId| match d {
            10 => 3.0,
            _ => 2.0,
        };
        let weight = |d: DocId, i: usize| Ok::<_, ()>(if i == 0 { anchor_w(d) } else { 1.0 });
        let heads = [0.0, 1.0];
        let one = rank_intersection(0, [10, 20, 5], &[1.0, 1.0], Some(&heads), weight, 1).unwrap();
        assert_eq!((one.popped, one.stopped), (1, true));
        assert_eq!(one.result.docs(), vec![10]);
        let two = rank_intersection(0, [10, 20, 5], &[1.0, 1.0], Some(&heads), weight, 2).unwrap();
        assert_eq!((two.popped, two.stopped), (3, false));
        assert_eq!(two.result.docs(), vec![10, 5]);
    }

    #[test]
    fn early_stop_equals_the_full_ranking_bit_for_bit() {
        // Seeded lists with few distinct weights, so ties at the r-th
        // score are common: the stopped scan's top r is the oracle's.
        let mut seed = 0x5EED_u64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        let mut stops = 0;
        for case in 0..300 {
            let q = 1 + next(3) as usize;
            let len = 1 + next(40) as usize;
            let wq: Vec<f64> = (0..q).map(|_| 0.5 + next(3) as f64).collect();
            // Anchor weights non-increasing down the list; other terms
            // absent for about a third of the documents.
            let mut anchor_w: Vec<f32> = (0..len).map(|_| 1.0 + next(4) as f32).collect();
            anchor_w.sort_by(|a, b| b.total_cmp(a));
            let weights: Vec<Vec<f32>> = anchor_w
                .iter()
                .map(|&wa| {
                    let mut w = vec![wa];
                    w.extend((1..q).map(|_| [0.0, 1.0, 2.0][next(3) as usize]));
                    w
                })
                .collect();
            // Distinct ids, not in id order.
            let candidates: Vec<DocId> = (0..len as DocId).map(|d| d * 7 % 101).collect();
            let mut heads = vec![0.0f32; q];
            for (j, head) in heads.iter_mut().enumerate().skip(1) {
                *head = weights.iter().map(|w| w[j]).fold(0.0, f32::max);
            }
            let at = |d: DocId| candidates.iter().position(|&c| c == d).expect("candidate");
            let weight = |d: DocId, i: usize| Ok::<_, ()>(weights[at(d)][i]);
            // A drawn r, then none, one, more than the candidates, all.
            for r in [1 + next(6) as usize, 0, 1, 10, len + 1, usize::MAX] {
                let scan =
                    rank_intersection(0, candidates.iter().copied(), &wq, Some(&heads), weight, r)
                        .unwrap();
                let want = oracle(&candidates, &wq, &weights, r);
                assert_eq!(scan.result.entries.len(), want.len(), "case {case} r={r}");
                for (a, b) in scan.result.entries.iter().zip(&want) {
                    assert_eq!(
                        (a.doc, a.score.to_bits()),
                        (b.doc, b.score.to_bits()),
                        "case {case} r={r}"
                    );
                }
                stops += usize::from(scan.stopped);
            }
        }
        assert!(stops > 30, "the stop fired on only {stops} of 1,800 scans");
    }
}
