//! Property-based tests of the index substrate: builder invariants on
//! arbitrary synthetic corpora, persistence round-trips, block-layout
//! arithmetic, and disk-model monotonicity.

use authsearch_corpus::SyntheticConfig;
use authsearch_index::{build_index, persist, BlockLayout, DiskModel, IoStats, OkapiParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn builder_invariants(seed in any::<u64>(), docs in 30usize..150) {
        let corpus = SyntheticConfig::tiny(docs, seed).generate();
        let index = build_index(&corpus, OkapiParams::default());
        prop_assert_eq!(index.num_docs(), docs);
        prop_assert_eq!(index.num_terms(), corpus.num_terms());
        let mut total = 0usize;
        for t in 0..index.num_terms() as u32 {
            let list = index.list(t);
            prop_assert!(list.is_frequency_ordered(), "term {}", t);
            prop_assert_eq!(list.len(), index.ft(t) as usize);
            prop_assert!(list.len() >= 2, "df>=2 violated for term {}", t);
            // Doc ids are unique within a list.
            let mut docs_in_list: Vec<u32> =
                list.entries().iter().map(|e| e.doc).collect();
            docs_in_list.sort_unstable();
            docs_in_list.dedup();
            prop_assert_eq!(docs_in_list.len(), list.len());
            total += list.len();
        }
        prop_assert_eq!(total, index.total_entries());
        // Postings mirror the corpus counts exactly.
        let from_corpus: usize = corpus.docs().iter().map(|d| d.counts.len()).sum();
        prop_assert_eq!(total, from_corpus);
    }

    #[test]
    fn index_persistence_roundtrip(seed in any::<u64>(), docs in 30usize..100) {
        let corpus = SyntheticConfig::tiny(docs, seed).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let mut buf = Vec::new();
        persist::write_index(&mut buf, &index).unwrap();
        let back = persist::read_index(&buf).unwrap();
        prop_assert_eq!(back.num_docs(), index.num_docs());
        for t in 0..index.num_terms() as u32 {
            prop_assert_eq!(back.list(t), index.list(t));
        }
    }

    #[test]
    fn truncation_never_panics(seed in any::<u64>(), cut in 1usize..400) {
        // Deserializing any truncated index must error, never panic.
        let corpus = SyntheticConfig::tiny(30, seed).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let mut buf = Vec::new();
        persist::write_index(&mut buf, &index).unwrap();
        let cut = cut.min(buf.len().saturating_sub(1));
        buf.truncate(cut);
        prop_assert!(persist::read_index(&buf).is_err());
    }

    #[test]
    fn block_capacity_monotone(leaf in 1usize..64, block in 64usize..4096) {
        let layout = BlockLayout { block_bytes: block, ..BlockLayout::default() };
        prop_assume!(block > 20 + leaf);
        let cap = layout.chain_capacity(leaf);
        prop_assert!(cap >= 1);
        // Capacity × leaf never exceeds the usable payload.
        prop_assert!(cap * leaf <= block - 20);
        prop_assert!((cap + 1) * leaf > block - 20);
    }

    #[test]
    fn disk_time_monotone(s1 in 0u64..1000, b1 in 0u64..10_000,
                          extra_s in 0u64..100, extra_b in 0u64..1000) {
        let disk = DiskModel::seagate_st973401kc();
        let a = disk.service_time(IoStats { seeks: s1, blocks: b1 });
        let b = disk.service_time(IoStats { seeks: s1 + extra_s, blocks: b1 + extra_b });
        prop_assert!(b >= a);
    }

    #[test]
    fn okapi_doc_weight_monotone_in_tf(len in 10u32..2000, f1 in 1u32..50) {
        let p = OkapiParams::default();
        let w1 = p.doc_weight(f1, len, 300.0);
        let w2 = p.doc_weight(f1 + 1, len, 300.0);
        prop_assert!(w2 >= w1);
        prop_assert!(w1 > 0.0);
        prop_assert!((w2 as f64) < p.k1() + 1.0);
    }
}
