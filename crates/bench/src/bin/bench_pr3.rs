//! PR 3 perf-trajectory benchmark: concurrent query serving
//! (`AuthenticatedIndex::serve_batch` over the sharded structure caches)
//! and client-side batch RSA verification.
//!
//! Emits machine-readable `BENCH_PR3.json` (override the path with
//! `--out <path>`; corpus with `--scale <frac>`, key with
//! `--key-bits <n>`, workload size with `--queries <n>`). Two sections:
//!
//! * **serve**: batch-serving throughput (queries/s) at pool widths
//!   1/2/4/8 over a df-weighted (hot-term-heavy) workload, per
//!   mechanism. As with `BENCH_PR2.json`, speedups above 1x need actual
//!   cores — the JSON records `available_parallelism` so a 1-CPU
//!   container's ~1x rows read as what they are.
//! * **verify**: per-signature latency of individual RSA verification
//!   vs `verify_batch` (exact semantics: dedup + per-distinct-pair
//!   checks in one Montgomery domain), for batches of distinct messages
//!   and for the realistic "hot" shape where most pairs are duplicates
//!   (the dedup amortization). The checked-in `BENCH_PR3.json` also
//!   carries `screen_*` rows from a randomized-combination screen that
//!   lost at e = 65537 and has since been deleted; that file is frozen.
//!
//! Plain `std::time` loops, no dev-dependencies, CI-smoke friendly.

use authsearch_bench::json::{num, Json};
use authsearch_core::pool::available_parallelism;
use authsearch_core::{AuthConfig, AuthenticatedIndex, Mechanism, Query};
use authsearch_corpus::SyntheticConfig;
use authsearch_crypto::keys::{cached_keypair, PAPER_KEY_BITS};
use authsearch_index::{build_index, OkapiParams};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_PR3.json");
    let mut scale_frac = 0.01f64;
    let mut key_bits = PAPER_KEY_BITS;
    let mut num_queries = 256usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = it.next().expect("--out needs a value").clone(),
            "--scale" => {
                scale_frac = it
                    .next()
                    .expect("--scale needs a value")
                    .parse()
                    .expect("bad --scale value")
            }
            "--key-bits" => {
                key_bits = it
                    .next()
                    .expect("--key-bits needs a value")
                    .parse()
                    .expect("bad --key-bits value")
            }
            "--queries" => {
                num_queries = it
                    .next()
                    .expect("--queries needs a value")
                    .parse()
                    .expect("bad --queries value")
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: [--out <path>] [--scale <frac>] \
                     [--key-bits <n>] [--queries <n>]"
                );
                std::process::exit(2);
            }
        }
    }
    let cores = available_parallelism();
    eprintln!(
        "[bench_pr3] corpus scale {scale_frac}, key {key_bits} bits, \
         {num_queries} queries, {cores} core(s)…"
    );
    let corpus = SyntheticConfig::wsj(scale_frac).generate();
    let index = build_index(&corpus, OkapiParams::default());
    let key = cached_keypair(key_bits);

    let mut json = Json::new();
    json.field(1, "pr", "3", false);
    json.field(
        1,
        "description",
        "\"Concurrent query serving (sharded term LRU + pool-backed serve_batch) and client-side batch RSA verification\"",
        false,
    );
    json.open(1, "machine");
    json.field(2, "available_parallelism", &cores.to_string(), cores >= 4);
    if cores < 4 {
        json.field(
            2,
            "note",
            "\"host lacks the cores for the requested pool widths; serve speedups necessarily ~1x — re-run on a multi-core machine\"",
            true,
        );
    }
    json.close(1, false);

    // ---- serve throughput -------------------------------------------------
    // df-weighted workload: hot terms recur, which is both the realistic
    // query distribution and the shape the sharded LRU serves from RAM.
    let df: Vec<u32> = (0..index.num_terms() as u32).map(|t| index.ft(t)).collect();
    let term_sets = authsearch_corpus::workload::trec_like(&df, num_queries, 0.35, 11);

    json.open(1, "serve");
    json.field(2, "corpus_scale", &format!("{scale_frac}"), false);
    json.field(2, "num_docs", &corpus.num_docs().to_string(), false);
    json.field(2, "num_terms", &index.num_terms().to_string(), false);
    json.field(2, "num_queries", &num_queries.to_string(), false);
    json.field(2, "top_r", "10", false);
    let mechanisms = [Mechanism::TnraCmht, Mechanism::TraCmht];
    let thread_counts = [1usize, 2, 4, 8];
    for (mi, &mechanism) in mechanisms.iter().enumerate() {
        eprintln!("[bench_pr3] serve {}…", mechanism.name());
        let config = AuthConfig {
            key_bits,
            ..AuthConfig::new(mechanism)
        };
        let mut auth = AuthenticatedIndex::build(index.clone(), &key, config, &corpus);
        let queries: Vec<Query> = term_sets
            .iter()
            .map(|t| Query::from_term_ids(auth.index(), t))
            .collect();
        // Warm the structure caches once: steady-state serving is the
        // regime the paper's engine lives in (the cold-start cost is
        // bench_pr1's subject).
        let _ = auth.serve_batch(&queries, 10, &corpus);
        json.open(2, mechanism.name());
        let mut secs = Vec::new();
        for &threads in &thread_counts {
            auth.set_threads(threads);
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let start = Instant::now();
                std::hint::black_box(auth.serve_batch(&queries, 10, &corpus));
                best = best.min(start.elapsed().as_secs_f64());
            }
            eprintln!(
                "[bench_pr3]   threads={threads}: {:.1} q/s",
                queries.len() as f64 / best
            );
            secs.push(best);
        }
        for (i, &threads) in thread_counts.iter().enumerate() {
            json.field(
                3,
                &format!("threads_{threads}_qps"),
                &num(queries.len() as f64 / secs[i]),
                false,
            );
        }
        for (i, &threads) in thread_counts.iter().enumerate().skip(1) {
            json.field(
                3,
                &format!("speedup_{threads}"),
                &num(secs[0] / secs[i]),
                i + 1 == thread_counts.len(),
            );
        }
        json.close(2, mi + 1 == mechanisms.len());
    }
    json.close(1, false);

    // ---- batch vs individual verification ---------------------------------
    eprintln!("[bench_pr3] verify…");
    let public = key.public_key();
    let batch_size = 64usize;
    let messages: Vec<Vec<u8>> = (0..batch_size)
        .map(|i| format!("bench_pr3 signed root #{i}").into_bytes())
        .collect();
    let sigs: Vec<Vec<u8>> = messages.iter().map(|m| key.sign(m).unwrap()).collect();
    let distinct: Vec<(&[u8], &[u8])> = messages
        .iter()
        .map(|m| m.as_slice())
        .zip(sigs.iter().map(|s| s.as_slice()))
        .collect();
    // The hot shape: the same few (message, signature) pairs over and
    // over — what a batch of responses sharing hot-term signatures
    // actually hands the client.
    let hot_distinct = 4usize;
    let hot: Vec<(&[u8], &[u8])> = (0..batch_size)
        .map(|i| distinct[i % hot_distinct])
        .collect();

    let reps = 20usize;
    let time_us = |f: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            f();
            best = best.min(start.elapsed().as_secs_f64());
        }
        best * 1e6
    };
    let individual_us = time_us(&mut || {
        for (m, s) in &distinct {
            public.verify(m, s).unwrap();
        }
    });
    let batch_distinct_us = time_us(&mut || public.verify_batch(&distinct).unwrap());
    let individual_hot_us = time_us(&mut || {
        for (m, s) in &hot {
            public.verify(m, s).unwrap();
        }
    });
    let batch_hot_us = time_us(&mut || public.verify_batch(&hot).unwrap());

    json.open(1, "verify");
    json.field(2, "key_bits", &key_bits.to_string(), false);
    json.field(2, "batch_size", &batch_size.to_string(), false);
    json.field(2, "hot_distinct_pairs", &hot_distinct.to_string(), false);
    json.field(
        2,
        "individual_us_per_sig",
        &num(individual_us / batch_size as f64),
        false,
    );
    json.field(
        2,
        "batch_distinct_us_per_sig",
        &num(batch_distinct_us / batch_size as f64),
        false,
    );
    json.field(
        2,
        "individual_hot_us_per_sig",
        &num(individual_hot_us / batch_size as f64),
        false,
    );
    json.field(
        2,
        "batch_hot_us_per_sig",
        &num(batch_hot_us / batch_size as f64),
        false,
    );
    json.field(
        2,
        "hot_speedup",
        &num(individual_hot_us / batch_hot_us),
        false,
    );
    json.field(
        2,
        "note",
        "\"verify_batch = exact per-distinct-pair checks (dedup + one Montgomery domain; the randomized product combination is unsound for exact acceptance: n-s forgeries); dedup (hot rows) is where the batch path wins\"",
        true,
    );
    json.close(1, true);

    let out = json.finish();
    std::fs::write(&out_path, &out).expect("write BENCH_PR3.json");
    eprintln!("[bench_pr3] wrote {out_path}");
    print!("{out}");
}
