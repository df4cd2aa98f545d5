//! PR 4 perf-trajectory benchmark: the persistent executor and the
//! long-running authenticated search server.
//!
//! Emits machine-readable `BENCH_PR4.json` (override the path with
//! `--out <path>`; corpus with `--scale <frac>`, key with
//! `--key-bits <n>`, workload size with `--queries <n>`). Two
//! sections:
//!
//! * **pool**: per-batch latency of small-batch serving (the server's
//!   steady-state shape) on the **persistent** pool vs the PR 2/3
//!   scoped behavior of spawning and joining a fresh pool per batch —
//!   the spawn/join tax the refactor removes. Also the raw
//!   fixed-overhead comparison on trivial map work.
//! * **server**: loopback q/s through the full stack (frame decode →
//!   pool dispatch → serve → frame encode → client verify) at 1/2/4/8
//!   concurrent connections.
//!
//! The checked-in `BENCH_PR4.json` also has a **warm** section (first
//! query on cold term structures vs after the startup warm-up). Term
//! structures are now resident from the build, so there is no cold
//! state left to measure and this binary no longer writes it.
//!
//! Plain `std::time` loops, no dev-dependencies, CI-smoke friendly. As
//! with earlier trajectory points, wall-clock *speedups* need real
//! cores — the JSON records `available_parallelism` so single-CPU
//! container numbers read as what they are.

use authsearch_bench::json::{num, Json};
use authsearch_core::pool::{available_parallelism, ThreadPool};
use authsearch_core::{
    AuthConfig, AuthenticatedIndex, Connection, Mechanism, Query, SearchEngine, Server,
    ServerConfig,
};
use authsearch_corpus::{SyntheticConfig, TermId};
use authsearch_crypto::keys::{cached_keypair, PAPER_KEY_BITS};
use authsearch_index::{build_index, OkapiParams};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_PR4.json");
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
        "[bench_pr4] corpus scale {scale_frac}, key {key_bits} bits, \
         {num_queries} queries, {cores} core(s)…"
    );
    let corpus = SyntheticConfig::wsj(scale_frac).generate();
    let index = build_index(&corpus, OkapiParams::default());
    let key = cached_keypair(key_bits);
    let mechanism = Mechanism::TnraCmht;
    let config = AuthConfig {
        key_bits,
        ..AuthConfig::new(mechanism)
    };
    let auth = AuthenticatedIndex::build(index.clone(), &key, config, &corpus);
    let df: Vec<u32> = (0..index.num_terms() as u32).map(|t| index.ft(t)).collect();
    let term_sets = authsearch_corpus::workload::trec_like(&df, num_queries, 0.35, 11);
    let queries: Vec<Query> = term_sets
        .iter()
        .map(|t| Query::from_term_ids(auth.index(), t))
        .collect();

    let mut json = Json::new();
    json.field(1, "pr", "4", false);
    json.field(
        1,
        "description",
        "\"Persistent executor (workers alive across batches) + long-running authenticated search server over the framed wire protocol\"",
        false,
    );
    json.open(1, "machine");
    json.field(2, "available_parallelism", &cores.to_string(), cores >= 4);
    if cores < 4 {
        json.field(
            2,
            "note",
            "\"host lacks the cores for the requested widths; parallel speedups necessarily ~1x — re-run on a multi-core machine\"",
            true,
        );
    }
    json.close(1, false);

    // ---- persistent vs scoped (fresh-spawn) pool --------------------------
    // The server's steady state is many *small* batches; the scoped pool
    // paid one spawn/join per batch for exactly that shape.
    eprintln!("[bench_pr4] pool: persistent vs per-batch spawn…");
    let batch = 4usize;
    let width = if cores > 1 { cores } else { 2 };
    let small_batches: Vec<&[Query]> = queries.chunks(batch).collect();
    let reps = 3usize;
    let mut persistent_best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for chunk in &small_batches {
            std::hint::black_box(auth.serve_batch(chunk, 10, &corpus));
        }
        persistent_best = persistent_best.min(start.elapsed().as_secs_f64());
    }
    let mut scoped_best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for chunk in &small_batches {
            // The PR 2/3 behavior: a fresh pool (spawn + join) per batch.
            let pool = ThreadPool::new(width);
            std::hint::black_box(pool.map(chunk.len(), |i| auth.query(&chunk[i], 10, &corpus)));
        }
        scoped_best = scoped_best.min(start.elapsed().as_secs_f64());
    }
    // Raw fixed overhead on trivial work: what one spawn/join round
    // costs by itself.
    let trivial_rounds = 200usize;
    let persistent_pool = ThreadPool::new(width);
    let start = Instant::now();
    for _ in 0..trivial_rounds {
        std::hint::black_box(persistent_pool.map(batch, |i| i as u64 + 1));
    }
    let trivial_persistent_us = start.elapsed().as_secs_f64() * 1e6 / trivial_rounds as f64;
    let start = Instant::now();
    for _ in 0..trivial_rounds {
        let pool = ThreadPool::new(width);
        std::hint::black_box(pool.map(batch, |i| i as u64 + 1));
    }
    let trivial_scoped_us = start.elapsed().as_secs_f64() * 1e6 / trivial_rounds as f64;
    json.open(1, "pool");
    json.field(2, "pool_width", &width.to_string(), false);
    json.field(2, "batch_size", &batch.to_string(), false);
    json.field(2, "num_batches", &small_batches.len().to_string(), false);
    json.field(
        2,
        "persistent_us_per_batch",
        &num(persistent_best * 1e6 / small_batches.len() as f64),
        false,
    );
    json.field(
        2,
        "scoped_us_per_batch",
        &num(scoped_best * 1e6 / small_batches.len() as f64),
        false,
    );
    json.field(
        2,
        "spawn_join_tax_us_per_batch",
        &num((scoped_best - persistent_best) * 1e6 / small_batches.len() as f64),
        false,
    );
    json.field(
        2,
        "trivial_map_persistent_us",
        &num(trivial_persistent_us),
        false,
    );
    json.field(2, "trivial_map_scoped_us", &num(trivial_scoped_us), false);
    json.field(
        2,
        "trivial_overhead_ratio",
        &num(trivial_scoped_us / trivial_persistent_us.max(1e-9)),
        true,
    );
    json.close(1, false);

    // ---- loopback server throughput ---------------------------------------
    eprintln!("[bench_pr4] loopback server q/s at 1/2/4/8 connections…");
    let engine = Arc::new(SearchEngine::new(auth, corpus));
    let params = {
        // Rebuild the public parameters the owner would broadcast.
        authsearch_core::VerifierParams {
            public_key: key.public_key().clone(),
            layout: config.layout,
            mechanism,
            num_docs: engine.corpus().num_docs(),
            okapi: engine.auth().index().params(),
        }
    };
    let pair_sets: Vec<Vec<(TermId, u32)>> = term_sets
        .iter()
        .map(|terms| {
            let mut pairs: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            pairs.sort_unstable();
            pairs.dedup_by_key(|p| p.0);
            pairs
        })
        .collect();
    let handle = Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let addr = handle.addr();
    json.open(1, "server");
    json.field(2, "corpus_scale", &format!("{scale_frac}"), false);
    json.field(
        2,
        "num_docs",
        &engine.corpus().num_docs().to_string(),
        false,
    );
    json.field(2, "num_terms", &index.num_terms().to_string(), false);
    json.field(2, "mechanism", &format!("\"{}\"", mechanism.name()), false);
    json.field(2, "queries_per_connection", &num_queries.to_string(), false);
    let connection_counts = [1usize, 2, 4, 8];
    for (ci, &conns) in connection_counts.iter().enumerate() {
        let start = Instant::now();
        let mut clients = Vec::new();
        for c in 0..conns {
            let params = params.clone();
            let pair_sets = pair_sets.clone();
            clients.push(std::thread::spawn(move || {
                let mut connection = Connection::connect(addr, params).expect("connect");
                for i in 0..pair_sets.len() {
                    let pairs = &pair_sets[(c + i) % pair_sets.len()];
                    connection
                        .query_terms(pairs, 10)
                        .expect("verified response");
                }
            }));
        }
        for client in clients {
            client.join().expect("client thread");
        }
        let secs = start.elapsed().as_secs_f64();
        let total = (conns * num_queries) as f64;
        eprintln!(
            "[bench_pr4]   {conns} connection(s): {:.1} q/s",
            total / secs
        );
        json.field(
            2,
            &format!("connections_{conns}_qps"),
            &num(total / secs),
            ci + 1 == connection_counts.len(),
        );
    }
    json.close(1, true);
    handle.shutdown();

    let out = json.finish();
    std::fs::write(&out_path, &out).expect("write BENCH_PR4.json");
    eprintln!("[bench_pr4] wrote {out_path}");
    print!("{out}");
}
