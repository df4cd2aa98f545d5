//! Engine-side cost of serving an authenticated query (processing + VO
//! construction), per mechanism — the CPU companion to Figure 13(c)/(d).
//!
//! The `serve_cached_vs_uncached` group times the engine structure
//! cache: the same repeated workload served with materialized
//! structures (cache warm) against the paper's regenerate-from-leaves
//! storage model.

use authsearch_core::{AuthConfig, AuthenticatedIndex, Mechanism, Query};
use authsearch_corpus::{Corpus, SyntheticConfig};
use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};
use authsearch_index::{build_index, OkapiParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn setup(mechanism: Mechanism, corpus: &Corpus) -> AuthenticatedIndex {
    setup_with_cache(mechanism, corpus, true)
}

fn setup_with_cache(
    mechanism: Mechanism,
    corpus: &Corpus,
    serve_cache: bool,
) -> AuthenticatedIndex {
    let key = cached_keypair(TEST_KEY_BITS);
    let config = AuthConfig {
        key_bits: TEST_KEY_BITS,
        serve_cache,
        ..AuthConfig::new(mechanism)
    };
    let index = build_index(corpus, OkapiParams::default());
    AuthenticatedIndex::build(index, &key, config, corpus)
}

/// Repeated-workload serving: cached (warm structures) vs the paper's
/// regenerate-from-leaves model. Responses are bit-identical; only CPU
/// differs.
fn serve_cached_vs_uncached(c: &mut Criterion) {
    let corpus = SyntheticConfig::wsj(0.01).generate();
    let mut group = c.benchmark_group("serve_cached_vs_uncached");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));

    for mechanism in Mechanism::ALL {
        for cached in [true, false] {
            let auth = setup_with_cache(mechanism, &corpus, cached);
            let workloads =
                authsearch_corpus::workload::synthetic(auth.index().num_terms(), 10, 3, 5);
            let queries: Vec<Query> = workloads
                .iter()
                .map(|terms| Query::from_term_ids(auth.index(), terms))
                .collect();
            // Warm the cache so the cached measurement reflects steady
            // state (the warm-up phase of the bencher does this too).
            for q in &queries {
                criterion::black_box(auth.query(q, 10, &corpus));
            }
            let label = if cached { "cached" } else { "uncached" };
            group.bench_with_input(
                BenchmarkId::new(label, mechanism.name()),
                &queries,
                |b, qs| {
                    b.iter(|| {
                        for q in qs {
                            criterion::black_box(auth.query(q, 10, &corpus));
                        }
                    })
                },
            );
        }
    }
    group.finish();
}

fn vo_construction(c: &mut Criterion) {
    let corpus = SyntheticConfig::wsj(0.01).generate(); // ~1.7k docs
    let mut group = c.benchmark_group("vo_construction");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for mechanism in Mechanism::ALL {
        let auth = setup(mechanism, &corpus);
        let workloads = authsearch_corpus::workload::synthetic(auth.index().num_terms(), 10, 3, 5);
        let queries: Vec<Query> = workloads
            .iter()
            .map(|terms| Query::from_term_ids(auth.index(), terms))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("serve_q3_r10", mechanism.name()),
            &queries,
            |b, qs| {
                b.iter(|| {
                    for q in qs {
                        criterion::black_box(auth.query(q, 10, &corpus));
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, vo_construction, serve_cached_vs_uncached);
criterion_main!(benches);
