//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! 1. buddy inclusion on/off (VO bytes traded against digests);
//! 2. chain-MHT block capacity ρ (via the block size);
//! 3. per-list signatures vs the §3.4 dictionary-MHT;
//! 4. score-prioritised vs equal-depth polling (the paper's adaptation
//!    of Fagin's algorithms vs the originals), measured in entries read.

use authsearch_core::{verify, AuthConfig, AuthenticatedIndex, Mechanism, Query, VerifierParams};
use authsearch_corpus::{Corpus, SyntheticConfig};
use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};
use authsearch_index::{build_index, BlockLayout, OkapiParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn build(config: AuthConfig, corpus: &Corpus) -> (AuthenticatedIndex, VerifierParams) {
    let key = cached_keypair(config.key_bits);
    let index = build_index(corpus, OkapiParams::default());
    let params = VerifierParams {
        public_key: key.public_key().clone(),
        layout: config.layout,
        mechanism: config.mechanism,
        num_docs: index.num_docs(),
        okapi: index.params(),
    };
    (
        AuthenticatedIndex::build(index, &key, config, corpus),
        params,
    )
}

fn bench_serve_verify(
    group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>,
    label: BenchmarkId,
    auth: &AuthenticatedIndex,
    params: &VerifierParams,
    corpus: &Corpus,
    queries: &[Query],
) {
    group.bench_function(label, |b| {
        b.iter(|| {
            for q in queries {
                let resp = auth.query(q, 10, corpus);
                verify::verify(params, q, 10, &resp).unwrap();
            }
        })
    });
}

fn ablation_buddy(c: &mut Criterion) {
    let corpus = SyntheticConfig::wsj(0.01).generate();
    let mut group = c.benchmark_group("ablation_buddy");
    group
        .sample_size(12)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for buddy in [false, true] {
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            buddy,
            ..AuthConfig::new(Mechanism::TnraCmht)
        };
        let (auth, params) = build(config, &corpus);
        let queries: Vec<Query> =
            authsearch_corpus::workload::synthetic(auth.index().num_terms(), 8, 3, 4)
                .iter()
                .map(|t| Query::from_term_ids(auth.index(), t))
                .collect();
        // Report the VO-size effect alongside the timing.
        let vo_bytes: usize = queries
            .iter()
            .map(|q| auth.query(q, 10, &corpus).vo.size().total())
            .sum();
        eprintln!("[ablation_buddy] buddy={buddy}: total VO bytes = {vo_bytes}");
        bench_serve_verify(
            &mut group,
            BenchmarkId::new("serve_verify", format!("buddy_{buddy}")),
            &auth,
            &params,
            &corpus,
            &queries,
        );
    }
    group.finish();
}

fn ablation_rho(c: &mut Criterion) {
    let corpus = SyntheticConfig::wsj(0.01).generate();
    let mut group = c.benchmark_group("ablation_rho");
    group
        .sample_size(12)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    // Block size drives ρ′ = (block − 20)/8: 512 B → 61, 1 KB → 125 (the
    // paper), 4 KB → 509.
    for block_bytes in [512usize, 1024, 4096] {
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            layout: BlockLayout {
                block_bytes,
                ..BlockLayout::default()
            },
            ..AuthConfig::new(Mechanism::TnraCmht)
        };
        let (auth, params) = build(config, &corpus);
        let queries: Vec<Query> =
            authsearch_corpus::workload::synthetic(auth.index().num_terms(), 8, 3, 4)
                .iter()
                .map(|t| Query::from_term_ids(auth.index(), t))
                .collect();
        bench_serve_verify(
            &mut group,
            BenchmarkId::new("serve_verify", format!("block_{block_bytes}")),
            &auth,
            &params,
            &corpus,
            &queries,
        );
    }
    group.finish();
}

fn ablation_dict_mht(c: &mut Criterion) {
    let corpus = SyntheticConfig::wsj(0.01).generate();
    let mut group = c.benchmark_group("ablation_dict_mht");
    group
        .sample_size(12)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for dict_mht in [false, true] {
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            dict_mht,
            ..AuthConfig::new(Mechanism::TnraCmht)
        };
        let (auth, params) = build(config, &corpus);
        let queries: Vec<Query> =
            authsearch_corpus::workload::synthetic(auth.index().num_terms(), 8, 3, 4)
                .iter()
                .map(|t| Query::from_term_ids(auth.index(), t))
                .collect();
        bench_serve_verify(
            &mut group,
            BenchmarkId::new("serve_verify", format!("dict_{dict_mht}")),
            &auth,
            &params,
            &corpus,
            &queries,
        );
    }
    group.finish();
}

fn ablation_equal_depth(c: &mut Criterion) {
    // The paper's key adaptation of Fagin's algorithms: pop from the list
    // with the highest term score instead of round-robin equal depth.
    // Measured as entries read (the paper's own metric) and wall time.
    use authsearch_core::access::{IndexLists, ListAccess};
    use authsearch_core::tnra;

    let corpus = SyntheticConfig::wsj(0.02).generate();
    let index = build_index(&corpus, OkapiParams::default());
    let queries: Vec<Query> =
        authsearch_corpus::workload::trec_like(index.document_frequencies(), 10, 0.35, 8)
            .iter()
            .map(|t| Query::from_term_ids(&index, t))
            .collect();

    // Entries read, reported once.
    let mut prioritized = 0usize;
    let mut equal_depth = 0usize;
    for q in &queries {
        let lists = IndexLists::new(&index, q);
        let out = tnra::run(&lists, q, 10).unwrap();
        prioritized += out.prefix_lens.iter().sum::<usize>();
        // Equal depth = every queried list read to the depth of the
        // deepest one (what the original NRA's round-robin would fetch).
        let deepest = out.prefix_lens.iter().copied().max().unwrap_or(0);
        equal_depth += q
            .terms
            .iter()
            .enumerate()
            .map(|(i, _)| deepest.min(lists.list_len(i)))
            .sum::<usize>();
    }
    eprintln!(
        "[ablation_equal_depth] entries read: prioritized = {prioritized}, \
         equal-depth(simulated) = {equal_depth} ({:.1}x)",
        equal_depth as f64 / prioritized.max(1) as f64
    );

    let mut group = c.benchmark_group("ablation_equal_depth");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("tnra_prioritized", |b| {
        b.iter(|| {
            for q in &queries {
                let lists = IndexLists::new(&index, q);
                tnra::run(&lists, q, 10).unwrap();
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_buddy,
    ablation_rho,
    ablation_dict_mht,
    ablation_equal_depth
);
criterion_main!(benches);
