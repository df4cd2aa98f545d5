//! Engine-side cost of serving an authenticated query (processing + VO
//! construction), per mechanism — the CPU companion to Figure 13(c)/(d).

use authsearch_core::{AuthConfig, AuthenticatedIndex, Mechanism, Query};
use authsearch_corpus::{Corpus, SyntheticConfig};
use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};
use authsearch_index::{build_index, OkapiParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn setup(mechanism: Mechanism, corpus: &Corpus) -> AuthenticatedIndex {
    let key = cached_keypair(TEST_KEY_BITS);
    let config = AuthConfig {
        key_bits: TEST_KEY_BITS,
        ..AuthConfig::new(mechanism)
    };
    let index = build_index(corpus, OkapiParams::default());
    AuthenticatedIndex::build(index, &key, config, corpus)
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

criterion_group!(benches, vo_construction);
criterion_main!(benches);
