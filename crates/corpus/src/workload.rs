//! Query workload generators.
//!
//! The paper evaluates with two workloads (§4.1):
//!
//! 1. **Synthetic** — 1000 queries of terms drawn uniformly at random from
//!    the dictionary. Because the overwhelming majority of dictionary terms
//!    are rare (Figure 4), such queries mostly hit short lists, resembling
//!    terse Web queries.
//! 2. **TREC** — the TREC-2/TREC-3 ad-hoc topics 101–200: longer natural
//!    language queries (2–20 terms) that regularly contain common words
//!    with very long inverted lists (e.g. Topic 181 has four terms with
//!    df > 10,000). The topics themselves ship with licensed TREC data, so
//!    [`trec_like`] draws a mixture of document-frequency-weighted terms
//!    (the common words) and uniform terms (the content words) with the
//!    published length range — reproducing exactly the access pattern that
//!    drives Figure 15.

use crate::document::TermId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A query as a set of distinct dictionary terms.
pub(crate) type QueryTerms = Vec<TermId>;

/// The synthetic workload: `num_queries` queries of exactly
/// `terms_per_query` distinct terms drawn uniformly from a dictionary of
/// `num_terms` terms.
pub fn synthetic(
    num_terms: usize,
    num_queries: usize,
    terms_per_query: usize,
    seed: u64,
) -> Vec<QueryTerms> {
    assert!(num_terms >= terms_per_query, "query longer than dictionary");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_queries)
        .map(|_| {
            draw_distinct(num_terms, terms_per_query, &mut rng, |rng| {
                rng.gen_range(0..num_terms)
            })
        })
        .collect()
}

/// TREC-like workload over a dictionary with document frequencies `df`:
/// query lengths uniform in `2..=20` (the published TREC topic range) and
/// each term drawn df-weighted with probability `common_prob` (default
/// use: 0.35), uniformly otherwise.
pub fn trec_like(df: &[u32], num_queries: usize, common_prob: f64, seed: u64) -> Vec<QueryTerms> {
    assert!(df.len() >= 20, "dictionary too small for TREC-like queries");
    let mut rng = StdRng::seed_from_u64(seed);
    // Cumulative df table for weighted draws.
    let mut cum: Vec<u64> = Vec::with_capacity(df.len());
    let mut acc = 0u64;
    for &d in df {
        acc += d as u64;
        cum.push(acc);
    }
    let total = acc.max(1);

    (0..num_queries)
        .map(|_| {
            let len = rng.gen_range(2..=20usize);
            draw_distinct(df.len(), len, &mut rng, |rng| {
                if rng.gen::<f64>() < common_prob {
                    let x = rng.gen_range(0..total);
                    cum.partition_point(|&c| c <= x).min(df.len() - 1)
                } else {
                    rng.gen_range(0..df.len())
                }
            })
        })
        .collect()
}

/// Draw `k` distinct term ids using `draw`, retrying on duplicates.
fn draw_distinct<F>(num_terms: usize, k: usize, rng: &mut StdRng, mut draw: F) -> QueryTerms
where
    F: FnMut(&mut StdRng) -> usize,
{
    debug_assert!(k <= num_terms);
    let mut terms: Vec<TermId> = Vec::with_capacity(k);
    while terms.len() < k {
        let t = draw(rng) as TermId;
        if !terms.contains(&t) {
            terms.push(t);
        }
    }
    terms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_shapes() {
        let w = synthetic(1000, 50, 3, 42);
        assert_eq!(w.len(), 50);
        for q in &w {
            assert_eq!(q.len(), 3);
            let mut sorted = q.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicate terms in {q:?}");
            assert!(q.iter().all(|&t| (t as usize) < 1000));
        }
    }

    #[test]
    fn synthetic_deterministic() {
        assert_eq!(synthetic(100, 10, 4, 7), synthetic(100, 10, 4, 7));
        assert_ne!(synthetic(100, 10, 4, 7), synthetic(100, 10, 4, 8));
    }

    #[test]
    fn trec_like_lengths_in_published_range() {
        let df: Vec<u32> = (0..500).map(|i| if i < 5 { 10_000 } else { 3 }).collect();
        let w = trec_like(&df, 100, 0.35, 1);
        assert_eq!(w.len(), 100);
        assert!(w.iter().all(|q| (2..=20).contains(&q.len())));
    }

    #[test]
    fn trec_like_hits_common_terms_more() {
        // Terms 0..5 hold almost all document mass; they must appear far
        // more often than any individual rare term.
        let df: Vec<u32> = (0..1000).map(|i| if i < 5 { 50_000 } else { 2 }).collect();
        let w = trec_like(&df, 200, 0.35, 3);
        let common_hits: usize = w.iter().flatten().filter(|&&t| (t as usize) < 5).count();
        let queries_with_common = w
            .iter()
            .filter(|q| q.iter().any(|&t| (t as usize) < 5))
            .count();
        assert!(common_hits > 100, "common_hits={common_hits}");
        assert!(
            queries_with_common > 120,
            "queries_with_common={queries_with_common}"
        );
    }

    #[test]
    fn trec_like_terms_distinct() {
        let df: Vec<u32> = vec![100; 50];
        let w = trec_like(&df, 50, 0.5, 9);
        for q in &w {
            let mut s = q.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), q.len());
        }
    }

    #[test]
    #[should_panic(expected = "query longer than dictionary")]
    fn synthetic_rejects_impossible_query() {
        synthetic(2, 1, 3, 0);
    }
}
