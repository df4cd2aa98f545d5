//! Index construction: Corpus → [`InvertedIndex`].
//!
//! This replaces the role Lucene plays in the paper's system
//! implementation (§4.1): "we write out Lucene's index into a dictionary
//! of terms, along with an inverted list for each of them". Here the
//! tokenized corpus is turned directly into frequency-ordered impact lists
//! with precomputed Okapi `w_{d,t}` weights.

use crate::dictionary::InvertedIndex;
use crate::okapi::OkapiParams;
use crate::postings::{ImpactEntry, InvertedList};
use authsearch_corpus::Corpus;

/// Build the frequency-ordered inverted index for a corpus.
pub fn build_index(corpus: &Corpus, params: OkapiParams) -> InvertedIndex {
    let m = corpus.num_terms();
    let avg_len = corpus.avg_doc_len();

    // Pre-size each list: first pass counts df.
    let mut ft = vec![0u32; m];
    for doc in corpus.docs() {
        for &(t, _) in &doc.counts {
            ft[t as usize] += 1;
        }
    }
    let mut lists: Vec<Vec<ImpactEntry>> =
        ft.iter().map(|&f| Vec::with_capacity(f as usize)).collect();

    // Second pass fills impact entries. Documents are visited in id order,
    // so equal-weight entries arrive in ascending doc id and the final
    // per-list sort is stable with respect to the canonical tie-break.
    for doc in corpus.docs() {
        for &(t, f_dt) in &doc.counts {
            let w = params.doc_weight(f_dt, doc.token_len, avg_len);
            lists[t as usize].push(ImpactEntry {
                doc: doc.id,
                weight: w,
            });
        }
    }

    let lists: Vec<InvertedList> = lists.into_iter().map(InvertedList::from_entries).collect();
    InvertedIndex::from_parts(params, corpus.num_docs(), avg_len, ft, lists)
        .expect("checked Okapi parameters give finite non-negative weights")
}

#[cfg(test)]
mod tests {
    use super::*;
    use authsearch_corpus::{CorpusBuilder, SyntheticConfig};

    fn small() -> InvertedIndex {
        let corpus = CorpusBuilder::new()
            .min_df(1)
            .add_text("keeper keeps house house house")
            .add_text("house keeper")
            .add_text("night watch")
            .build();
        build_index(&corpus, OkapiParams::default())
    }

    #[test]
    fn ft_matches_document_frequency() {
        let corpus = CorpusBuilder::new()
            .min_df(1)
            .add_text("keeper keeps house house house")
            .add_text("house keeper")
            .add_text("night watch")
            .build();
        let idx = build_index(&corpus, OkapiParams::default());
        let house = corpus.term_id("house").unwrap();
        let night = corpus.term_id("night").unwrap();
        assert_eq!(idx.ft(house), 2);
        assert_eq!(idx.ft(night), 1);
    }

    #[test]
    fn lists_are_frequency_ordered() {
        let idx = small();
        for t in 0..idx.num_terms() {
            assert!(idx.list(t as u32).is_frequency_ordered(), "term {t}");
        }
    }

    #[test]
    fn list_lengths_equal_ft() {
        let idx = small();
        for t in 0..idx.num_terms() as u32 {
            assert_eq!(idx.list(t).len(), idx.ft(t) as usize);
        }
    }

    #[test]
    fn higher_tf_sorts_first() {
        // 'house' appears 3x in doc 0 (len 5) and 1x in doc 1 (len 2);
        // despite doc 1 being shorter, tf=3 dominates here.
        let corpus = CorpusBuilder::new()
            .min_df(1)
            .add_text("house house house filler filler")
            .add_text("house word")
            .build();
        let idx = build_index(&corpus, OkapiParams::default());
        let house = corpus.term_id("house").unwrap();
        let entries = idx.list(house).entries();
        assert_eq!(entries[0].doc, 0);
        assert!(entries[0].weight > entries[1].weight);
    }

    #[test]
    fn synthetic_corpus_roundtrips_through_builder() {
        let corpus = SyntheticConfig::tiny(120, 11).generate();
        let idx = build_index(&corpus, OkapiParams::default());
        assert_eq!(idx.num_docs(), 120);
        assert_eq!(idx.num_terms(), corpus.num_terms());
        // Every entry's weight is positive and every list is ordered.
        for t in 0..idx.num_terms() as u32 {
            let list = idx.list(t);
            assert!(list.is_frequency_ordered());
            assert!(list.entries().iter().all(|e| e.weight > 0.0));
            assert!(list.len() >= 2, "df>=2 invariant violated for term {t}");
        }
    }

    #[test]
    fn weights_match_okapi_formula() {
        let corpus = CorpusBuilder::new()
            .min_df(1)
            .add_text("alpha alpha beta")
            .add_text("alpha gamma")
            .build();
        let params = OkapiParams::default();
        let idx = build_index(&corpus, params);
        let alpha = corpus.term_id("alpha").unwrap();
        let entries = idx.list(alpha).entries();
        let e0 = entries.iter().find(|e| e.doc == 0).unwrap();
        let expect = params.doc_weight(2, 3, corpus.avg_doc_len());
        assert_eq!(e0.weight, expect);
    }
}
