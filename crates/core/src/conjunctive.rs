//! Conjunctive (AND-semantics) candidate ranking, shared verbatim by
//! the engine ([`crate::auth::AuthenticatedIndex::query`]) and the
//! verifier ([`crate::verify::verify`]) when a query is posed as
//! [`crate::types::QueryMode::Conjunctive`].
//!
//! Both sides run *this exact code* over the same inputs: candidates in
//! anchor-list order, per-term weights queried in ascending query-term
//! index order, scores accumulated in `f64` in that same order, results
//! canonicalized by [`insert_ranked`]. That is what makes the verifier's
//! score comparison an equality check (modulo [`SCORE_EPS`]) rather than
//! a tolerance band, and what keeps conjunctive responses bit-identical
//! across thread counts.
//!
//! [`SCORE_EPS`]: crate::verify
//! [`insert_ranked`]: crate::types

use crate::types::{insert_ranked, QueryResult};
use authsearch_corpus::DocId;

/// The anchor list of a conjunctive query: the shortest posting list
/// (smallest `f_t`), ties broken by the lowest query-term index. Every
/// intersection member must appear in every list, so enumerating the
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

/// Rank the conjunctive top-`r` over `candidates` (the anchor list's
/// documents, in list order). `wq` carries one query-side weight per
/// query term, in query order.
///
/// `weight_of(d, i)` returns the weight `w_{d,t_i}` of query term `i` in
/// document `d`, `0.0` for a (proven) absence, or the caller's error
/// when it cannot substantiate the weight at all — the verifier's "VO
/// is insufficient" case. The engine's source never fails, so it ranks
/// with `E = Infallible`. Terms are probed in ascending index order and
/// the first absence short-circuits, so both sides demand exactly the
/// same weights.
pub(crate) fn rank_intersection<F, E>(
    candidates: &[DocId],
    wq: &[f64],
    weight_of: F,
    r: usize,
) -> Result<QueryResult, E>
where
    F: Fn(DocId, usize) -> Result<f32, E>,
{
    let mut entries = Vec::new();
    for &d in candidates {
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
            insert_ranked(&mut entries, d, score);
        }
    }
    entries.truncate(r);
    Ok(QueryResult { entries })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let out = rank_intersection(&[1, 2, 3], &[1.0, 1.0], weights, 10).unwrap();
        assert_eq!(out.docs(), vec![3, 1]); // 4.0 > 2.0
        assert!(out.is_ordered());
    }

    #[test]
    fn rank_intersection_truncates_to_r() {
        let out = rank_intersection(&[4, 5, 6], &[1.0], |d, _| Ok::<_, ()>(d as f32), 2).unwrap();
        assert_eq!(out.docs(), vec![6, 5]);
    }

    #[test]
    fn unproven_weight_aborts_with_the_culprit() {
        let err = rank_intersection(
            &[7, 8],
            &[1.0, 1.0],
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
        let out = rank_intersection(
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
        let weights = |d: DocId, _: usize| Ok::<_, ()>(d as f32);
        let a = rank_intersection(&[1, 2, 3], &[1.0], weights, 10).unwrap();
        let b = rank_intersection(&[3, 1, 2], &[1.0], weights, 10).unwrap();
        assert_eq!(a, b);
    }
}
