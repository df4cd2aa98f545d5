//! Owner-side build scaling: `AuthenticatedIndex::build` across thread
//! counts, which `pool::map` spreads its per-term and per-document work
//! over.
//!
//! The artifact is bit-identical at every thread count; only wall-clock
//! time changes, and only on machines that actually have the cores
//! (`threads = 1` is the sequential paper model on the calling thread).

use authsearch_core::{AuthConfig, AuthenticatedIndex, Mechanism};
use authsearch_corpus::SyntheticConfig;
use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};
use authsearch_index::{build_index, OkapiParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn build_scaling(c: &mut Criterion) {
    let corpus = SyntheticConfig::wsj(0.005).generate();
    let index = build_index(&corpus, OkapiParams::default());
    let key = cached_keypair(TEST_KEY_BITS);
    let mut group = c.benchmark_group("owner_build_threads");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // TNRA-CMHT: per-term work only. TRA-CMHT adds the per-document
    // digests + MHTs + signatures — the heaviest owner workload.
    for mechanism in [Mechanism::TnraCmht, Mechanism::TraCmht] {
        for threads in [1usize, 2, 4, 8] {
            let config = AuthConfig {
                key_bits: TEST_KEY_BITS,
                threads,
                ..AuthConfig::new(mechanism)
            };
            group.bench_with_input(
                BenchmarkId::new(mechanism.name(), threads),
                &threads,
                |b, _| {
                    // `build` consumes the index, so each iteration pays
                    // one clone (~sub-ms memcpy, <1% of a build at this
                    // scale).
                    b.iter(|| {
                        criterion::black_box(AuthenticatedIndex::build(
                            index.clone(),
                            &key,
                            config,
                            &corpus,
                        ))
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, build_scaling);
criterion_main!(benches);
