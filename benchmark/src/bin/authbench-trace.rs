//! `authbench-trace`: the traced run of one workload. Same set-up and
//! query list as `authbench`; attributes the time and bytes of a
//! verified query to this repository's layers by timing calls into their
//! public functions from outside.
//!
//! ```text
//! authbench-trace --workload tra-long [--seed 7] [--seconds 18] [--smoke] [--out DIR]
//! ```
//!
//! Spans go to `DIR/trace-<workload>.json`.

use authbench::cli::{self, RunArgs};
use authbench::drive::{self, Tally};
use authbench::fixture::{self, Fixture, Pairs};
use authbench::report::{self, Row, Verdict};
use authbench::trace::Trace;
use authbench::{procfs, spec, stats};
use authsearch_core::access::{IndexLists, TableFreqs};
use authsearch_core::{
    tnra, tra, wire, CacheStats, Client, Query, QueryMode, QueryResponse, ServerMetricsSnapshot,
    TransportStatsSnapshot,
};
use authsearch_crypto::keys::{cached_keypair, PAPER_KEY_BITS};
use authsearch_crypto::{Digest, MerkleTree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// `System` with relaxed allocation counters. Only this binary installs
/// it: the end-to-end binary measures the program with its own
/// allocator path.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards the caller's layout and pointer to
// `System` unchanged, so `System`'s contract is the one the caller
// already promised; the counters are atomics updated beside the call.
// lint:allow(unsafe-audit): a counting GlobalAlloc cannot be written without unsafe; it delegates to System and lives only in the traced binary
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout to `System.alloc` untouched.
    // lint:allow(unsafe-audit): GlobalAlloc::alloc is an unsafe fn by signature; pure delegation
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    // SAFETY: forwards the caller's pointer and layout to
    // `System.dealloc` untouched.
    // lint:allow(unsafe-audit): GlobalAlloc::dealloc is an unsafe fn by signature; pure delegation
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    // SAFETY: forwards the caller's pointer, layout and new size to
    // `System.realloc` untouched.
    // lint:allow(unsafe-audit): GlobalAlloc::realloc is an unsafe fn by signature; pure delegation
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = cli::parse_run(&args)
        .map_err(|e| format!("{e}\nusage: authbench-trace {}", cli::RUN_USAGE))
        .and_then(run);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("authbench-trace: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Where the span file and the scratch snapshot go: `--out`, or a
/// directory under cargo's target directory.
fn out_dir(args: &RunArgs) -> PathBuf {
    args.out.clone().unwrap_or_else(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("benchmark/target"), PathBuf::from);
        target.join("authbench")
    })
}

/// Sums over the in-process pass, beside the spans.
#[derive(Default)]
struct LayerCounts {
    entries_read: usize,
    terms: usize,
    pct_read_sum: f64,
    vo_data: usize,
    vo_digest: usize,
    vo_signature: usize,
    frame_bytes: usize,
    signatures: usize,
    docs: usize,
}

fn run(args: RunArgs) -> Result<bool, String> {
    fixture::scrub_env();
    let w = args.workload;
    let out = out_dir(&args);
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;

    let mut rows: Vec<Row> = Vec::with_capacity(spec::PER_LAYER.len());
    let mut trace = Trace::new(8 * w.queries.per_pass() + 16);

    // Set-up, once, with a span per stage.
    let started = Instant::now();
    fixture::owner_key();
    trace.record("keygen", started, Instant::now(), None);
    let fx = fixture::setup(w, args.size);
    let setup_span = trace.record(
        "setup",
        fx.stages[0].1,
        fx.stages[fx.stages.len() - 1].2,
        None,
    );
    for &(name, start, end) in &fx.stages {
        trace.record(name, start, end, Some(setup_span));
    }
    let warmed = fx.server.warmed();
    rows.extend([
        Row::one("setup.keygen_s", "s", trace.total_us("keygen") / 1e6),
        Row::one("setup.corpus_s", "s", trace.total_us("corpus") / 1e6),
        Row::one(
            "setup.index_build_s",
            "s",
            trace.total_us("index_build") / 1e6,
        ),
        Row::one("setup.sign_s", "s", trace.total_us("sign") / 1e6),
        Row::one(
            "setup.server_start_s",
            "s",
            trace.total_us("server_start") / 1e6,
        ),
        Row::one("setup.warmed_terms", "count", warmed.terms as f64),
        Row::one("setup.warmed_docs", "count", warmed.docs as f64),
    ]);
    rows.extend(snapshot_rows(
        &fx,
        &out.join(format!("snapshot-{}.bin", w.name)),
        &mut trace,
    )?);

    let df = fx.engine.auth().index().document_frequencies();
    let queries = fixture::generate_queries(w, args.size, df, args.seed);
    report::print_header(w, &fx, args.seed, args.size.scale(w), queries.len());

    // The same correctness gate as the end-to-end run; it also warms
    // the server's caches.
    let mut conn = drive::connect(&fx);
    let warmup = drive::correctness_pass(&fx, &mut conn, w, &queries)?;
    drop(conn);
    let rejection = drive::negative_control(&fx, w, &queries)?;
    println!(
        "negative_control '{}' rejected: {rejection}",
        w.attack.name()
    );

    // What `--seconds` leaves once the open-loop schedule is taken out is
    // split between in-process passes and loopback passes; as in the
    // end-to-end run, a query's time in a layer is the fastest of its
    // samples, one per pass.
    let budget = args.closed_budget() / 2;

    // In-process, without sockets, a span around each layer.
    let mut counts = LayerCounts::default();
    let traced_passes = drive::repeat_within(budget, 1, || {
        counts = traced_pass(&fx, w.mode, &queries, &mut trace)?;
        Ok(())
    })?;
    let n = queries.len() as f64;
    let per_query = |span: &str| trace.fastest_us(span) / n;
    let query_us = per_query("query");
    let (scan_us, serve_us, verify_us) =
        (per_query("scan"), per_query("serve"), per_query("verify"));
    rows.extend([
        Row::one("scan.us_per_query", "us", scan_us),
        Row::one(
            "scan.entries_read_per_term",
            "count",
            counts.entries_read as f64 / counts.terms as f64,
        ),
        Row::one(
            "scan.pct_list_read",
            "%",
            counts.pct_read_sum / counts.terms as f64,
        ),
        Row::one("serve.us_per_query", "us", serve_us),
        Row::one("serve.vo_build_us_per_query", "us", serve_us - scan_us),
        Row::one("vo.data_bytes", "B", counts.vo_data as f64 / n),
        Row::one("vo.digest_bytes", "B", counts.vo_digest as f64 / n),
        Row::one("vo.signature_bytes", "B", counts.vo_signature as f64 / n),
        Row::one("codec.encode_us", "us", per_query("encode")),
        Row::one("codec.decode_us", "us", per_query("decode")),
        Row::one("codec.frame_bytes", "B", counts.frame_bytes as f64 / n),
        Row::one("verify.us_per_query", "us", verify_us),
        Row::one(
            "verify.signatures_per_query",
            "count",
            counts.signatures as f64 / n,
        ),
        Row::one("verify.docs_per_query", "count", counts.docs as f64 / n),
    ]);

    // Over loopback, bracketed by the program's own counters.
    let mut conn = drive::connect(&fx);
    let before = Counters::read(&fx)?;
    let mut loopback = Tally::default();
    let mut latencies = Vec::with_capacity(queries.len());
    let mut best = vec![f64::INFINITY; queries.len()];
    let loopback_passes = drive::repeat_within(budget, 1, || {
        let (_, tally) = drive::closed_pass(&mut conn, w.mode, &queries, &mut latencies, &mut best);
        loopback.add(tally);
        Ok(())
    })?;
    let after = Counters::read(&fx)?;
    if best.iter().any(|l| l.is_infinite()) {
        return Err("a query failed in every loopback pass".to_string());
    }
    let done = loopback.succeeded() as f64;
    let loopback_us = stats::mean(&best) * 1e3;
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let (term_hits, term_misses) = (
        after.cache.hits - before.cache.hits,
        after.cache.misses - before.cache.misses,
    );
    let (doc_hits, doc_misses) = (
        after.cache.doc_hits - before.cache.doc_hits,
        after.cache.doc_misses - before.cache.doc_misses,
    );
    rows.extend([
        Row::one(
            "serve.term_cache_hit_ratio",
            "share",
            ratio(term_hits, term_misses),
        ),
        Row::one(
            "serve.doc_cache_hit_ratio",
            "share",
            ratio(doc_hits, doc_misses),
        ),
        Row::one(
            "serve.term_cache_misses_per_query",
            "count",
            term_misses as f64 / done,
        ),
        Row::one(
            "serve.doc_cache_misses_per_query",
            "count",
            doc_misses as f64 / done,
        ),
        Row::one(
            "server.reads_per_query",
            "count",
            (after.net.reads - before.net.reads) as f64 / done,
        ),
        Row::one(
            "server.writes_per_query",
            "count",
            (after.net.writes - before.net.writes) as f64 / done,
        ),
        Row::one(
            "server.polls_per_query",
            "count",
            (after.net.polls - before.net.polls) as f64 / done,
        ),
        Row::one(
            "server.bytes_in_per_query",
            "B",
            (after.served.bytes_in - before.served.bytes_in) as f64 / done,
        ),
        Row::one("server.residual_us_per_query", "us", loopback_us - query_us),
        Row::one(
            "process.cpu_ms_per_query",
            "ms",
            (after.cpu_ms - before.cpu_ms) / done,
        ),
        Row::one(
            "process.allocs_per_query",
            "count",
            (after.allocs - before.allocs) as f64 / done,
        ),
        Row::one(
            "process.alloc_bytes_per_query",
            "B",
            (after.alloc_bytes - before.alloc_bytes) as f64 / done,
        ),
    ]);

    // The open-loop schedule, for its own layer rows.
    let open = drive::open_loop(&mut conn, w, &queries, args.size.open_queries(w));
    drop(conn);
    let served = fx.server.shutdown();
    let p95 = |sorted: &[f64]| {
        if sorted.is_empty() {
            0.0
        } else {
            stats::percentile(sorted, 0.95)
        }
    };
    rows.extend([
        Row::one("server.open_p95_ms", "ms", p95(&open.latency_ms)),
        Row::one("server.open_wait_p95_ms", "ms", p95(&open.wait_ms)),
        Row::one(
            "server.open_backlog_max_ms",
            "ms",
            open.wait_ms.last().copied().unwrap_or(0.0),
        ),
    ]);

    rows.extend(crypto_rows());

    rows.extend([
        Row::one("trace.query_us", "us", query_us),
        Row::one("trace.verify_share", "share", verify_us / query_us),
        Row::one("trace.serve_share", "share", serve_us / query_us),
        Row::one(
            "trace.residual_share",
            "share",
            (loopback_us - query_us) / loopback_us,
        ),
        Row::one("trace.loopback_qps", "1/s", 1e6 / loopback_us),
        Row::one("trace.spans", "count", trace.len() as f64),
    ]);

    let span_file = out.join(format!("trace-{}.json", w.name));
    trace
        .write_json(&span_file, w.name, args.seed)
        .map_err(|e| format!("write {}: {e}", span_file.display()))?;
    println!("spans {} -> {}", trace.len(), span_file.display());
    println!("traced_passes {traced_passes} loopback_passes {loopback_passes}");
    println!(
        "query self time (glue between the layer calls) {} us",
        trace.self_us("query") / (n * traced_passes as f64)
    );

    let total = report::print_phases(&[
        ("warmup", warmup),
        ("loopback", loopback),
        ("open", open.tally),
    ]);

    let ordered = report::in_manifest_order(&rows, spec::PER_LAYER.iter().map(|m| m.0))?;
    report::print_rows(&ordered);
    let verdict = Verdict {
        correct: total.failed == 0 && served.requests_err == 0,
        attempted: total.attempted,
        failed: total.failed,
    };
    println!("{}", report::result_line(verdict, &ordered));
    Ok(verdict.correct)
}

/// The program's own counters and the process's, read together around
/// the loopback passes.
struct Counters {
    cache: CacheStats,
    net: TransportStatsSnapshot,
    served: ServerMetricsSnapshot,
    cpu_ms: f64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Counters {
    fn read(fx: &Fixture) -> Result<Counters, String> {
        Ok(Counters {
            cache: fx.engine.auth().cache_stats(),
            net: fx.server.transport_stats(),
            served: fx.server.metrics(),
            cpu_ms: procfs::cpu_ms().ok_or("no CPU times in /proc/self/stat")?,
            allocs: ALLOCS.load(Ordering::Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        })
    }
}

/// Save the artifact as a snapshot, load it back (which verifies it
/// end to end), and remove the file. Nothing in `setup_s` pays for
/// this today; the rows are the baseline for a boot-from-snapshot
/// change.
fn snapshot_rows(fx: &Fixture, path: &Path, trace: &mut Trace) -> Result<[Row; 3], String> {
    let auth = fx.engine.auth();
    let root = trace.open("snapshot", None, None);
    let info = trace
        .span("snapshot_save", Some(root), None, || {
            auth.save_snapshot(path)
        })
        .map_err(|e| format!("save snapshot: {e}"))?;
    let loaded = trace
        .span("snapshot_load", Some(root), None, || {
            authsearch_core::AuthenticatedIndex::load_snapshot(path, auth.config())
        })
        .map_err(|e| format!("load snapshot: {e}"))?;
    trace.close(root);
    drop(loaded);
    for file in [
        path.to_path_buf(),
        authsearch_index::persist::manifest_path(path),
    ] {
        std::fs::remove_file(&file).map_err(|e| format!("remove {}: {e}", file.display()))?;
    }
    Ok([
        Row::one(
            "snapshot.save_ms",
            "ms",
            trace.total_us("snapshot_save") / 1e3,
        ),
        Row::one(
            "snapshot.load_ms",
            "ms",
            trace.total_us("snapshot_load") / 1e3,
        ),
        Row::one("snapshot.bytes", "B", info.bytes as f64),
    ])
}

/// The in-process pass. Per query: a root span `query` with children
/// `serve`, `encode`, `decode` and `verify` (the layers a round trip
/// crosses, minus the transport), and beside it a `scan` span around
/// the bare threshold algorithm. `scan` repeats work `serve` already
/// contains, so it is not a child of `query`; conjunctive serving has
/// no separately callable scan and records none.
fn traced_pass(
    fx: &Fixture,
    mode: QueryMode,
    queries: &[Pairs],
    trace: &mut Trace,
) -> Result<LayerCounts, String> {
    let auth = fx.engine.auth();
    let index = auth.index();
    let client = Client::new(fx.params.clone());
    let mut counts = LayerCounts::default();
    for (qid, pairs) in queries.iter().enumerate() {
        let id = Some(qid);
        let query = Query::from_term_pairs(index, pairs);

        if mode == QueryMode::Disjunctive {
            let lists = IndexLists::new(index, &query);
            let outcome = trace.span("scan", None, id, || {
                if auth.config().mechanism.is_tra() {
                    let freqs = TableFreqs::new(auth.doc_table(), &query);
                    tra::run(&lists, &freqs, &query, spec::TOP_R)
                } else {
                    tnra::run(&lists, &query, spec::TOP_R)
                }
            });
            black_box(outcome.map_err(|e| format!("query {qid}: scan: {e:?}"))?);
        }

        let root = trace.open("query", None, id);
        let response: QueryResponse =
            trace.span("serve", Some(root), id, || drive::serve(fx, mode, pairs));
        let frame = trace
            .span("encode", Some(root), id, || {
                wire::encode_ok_reply(pairs, &response)
            })
            .map_err(|e| format!("query {qid}: encode: {e}"))?;
        let reply = trace
            .span("decode", Some(root), id, || {
                wire::split_frame(&frame)
                    .and_then(|(kind, payload)| wire::decode_reply_payload(kind, payload))
            })
            .map_err(|e| format!("query {qid}: decode: {e}"))?;
        let wire::Reply::Ok {
            terms: echo,
            response: decoded,
        } = reply
        else {
            return Err(format!("query {qid}: decoded reply is not Reply::Ok"));
        };
        let verified = trace
            .span("verify", Some(root), id, || {
                drive::verify(&client, mode, &echo, &decoded)
            })
            .map_err(|e| format!("query {qid}: verify: {e}"))?;
        trace.close(root);
        black_box(verified);

        for (&(term, _), &read) in pairs.iter().zip(&response.entries_read) {
            let len = index.list(term).len();
            counts.entries_read += read;
            counts.pct_read_sum += 100.0 * read as f64 / len.max(1) as f64;
        }
        counts.terms += pairs.len();
        let size = response.vo.size();
        counts.vo_data += size.data;
        counts.vo_digest += size.digest;
        counts.vo_signature += size.signature;
        counts.frame_bytes += frame.len();
        counts.docs += response.vo.docs.len();
        counts.signatures += response.vo.docs.len()
            + response
                .vo
                .terms
                .iter()
                .filter(|t| t.signature.is_some())
                .count()
            + usize::from(response.vo.dict.is_some());
    }
    Ok(counts)
}

/// Median per-operation time over `BATCHES` batches of `reps` calls.
fn micro(
    name: &'static str,
    unit: &'static str,
    per_unit: f64,
    reps: usize,
    mut op: impl FnMut(),
) -> Row {
    const BATCHES: usize = 5;
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                op();
            }
            t.elapsed().as_secs_f64() * per_unit / reps as f64
        })
        .collect();
    Row::median_of(name, unit, &samples)
}

/// The crypto layer on its own: the primitives every other layer's
/// cost is made of, on the run's own key.
fn crypto_rows() -> [Row; 5] {
    let key = cached_keypair(PAPER_KEY_BITS);
    let message = [0x5au8; 48];
    let signature = key.sign(&message).expect("sign with the cached key");
    let public = key.public_key();
    let block = [0xa5u8; 1024];
    let (left, right) = (Digest::hash(b"left"), Digest::hash(b"right"));
    let leaves: Vec<Digest> = (0..256u32)
        .map(|i| Digest::hash(&i.to_le_bytes()))
        .collect();
    [
        micro("crypto.rsa_verify_us", "us", 1e6, 200, || {
            black_box(public.verify(black_box(&message), &signature)).expect("honest signature");
        }),
        micro("crypto.rsa_sign_us", "us", 1e6, 40, || {
            black_box(key.sign(black_box(&message))).expect("sign with the cached key");
        }),
        micro("crypto.hash_1k_ns", "ns", 1e9, 2_000, || {
            black_box(Digest::hash(black_box(&block)));
        }),
        micro("crypto.combine_ns", "ns", 1e9, 20_000, || {
            black_box(Digest::combine(black_box(&left), black_box(&right)));
        }),
        micro("crypto.merkle_build_256_us", "us", 1e6, 100, || {
            black_box(MerkleTree::from_leaf_digests(black_box(leaves.clone())));
        }),
    ]
}
