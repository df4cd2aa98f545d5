//! What the benchmark measures: the four workloads, the end-to-end
//! metrics with their regression bounds, and the per-layer metric
//! names. `BENCHMARK.json` at the repository root is rendered from
//! these tables (`authbench --manifest`), so a name lives in one place.

use authsearch_core::attacks::Attack;
use authsearch_core::{Mechanism, QueryMode};

/// Top-r of every query (the paper's default).
pub const TOP_R: usize = 10;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 18;

/// How the per-pass query list is drawn from `--seed`.
#[derive(Debug, Clone, Copy)]
pub enum QueryGen {
    /// `workload::synthetic(m, n, terms, seed)`: uniform dictionary
    /// terms, the paper's first workload.
    Synthetic { n: usize, terms: usize },
    /// `workload::trec_like(df, n, common_prob, seed)` (2-20 terms, a
    /// share of them common words), each query cut to its first `cut`
    /// terms: the paper's second workload.
    TrecLike {
        n: usize,
        common_prob: f64,
        cut: usize,
    },
}

impl QueryGen {
    /// Queries per pass.
    pub fn per_pass(&self) -> usize {
        match *self {
            QueryGen::Synthetic { n, .. } | QueryGen::TrecLike { n, .. } => n,
        }
    }
}

/// One named workload: everything that differs between runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, recorded in `BENCHMARK.json`).
    pub why: &'static str,
    /// `SyntheticConfig::wsj(scale)`.
    pub scale: f64,
    pub mechanism: Mechanism,
    pub mode: QueryMode,
    pub queries: QueryGen,
    /// Open-loop phase: requests per second on the fixed schedule.
    pub open_rate: f64,
    /// Open-loop phase: a request must finish verified within this many
    /// milliseconds of its due time.
    pub open_limit_ms: f64,
    /// Open-loop phase: how many requests are scheduled, cycling through
    /// the list; about five seconds' worth at `open_rate`.
    pub open_queries: usize,
    /// Full set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// The negative control: one tampering the verifier must reject.
    pub attack: Attack,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tnra-short",
        why: "3-term TNRA queries, all cache hits, ~12 KB replies: the per-message path (codec, reactor-pool hand-offs, syscalls, allocations) has its largest share here",
        scale: 0.02,
        mechanism: Mechanism::TnraCmht,
        mode: QueryMode::Disjunctive,
        queries: QueryGen::Synthetic { n: 2000, terms: 3 },
        open_rate: 900.0,
        open_limit_ms: 10.0,
        open_queries: 4000,
        setup_repeats: 3,
        attack: Attack::AlterPrefixWeight,
    },
    Workload {
        name: "tra-long",
        why: "2-12-term TRA queries (the paper's TREC shape, Fig 15): ~0.4 MB VOs with hundreds of document proofs and signatures, so client-side verify dominates",
        scale: 0.02,
        mechanism: Mechanism::TraMht,
        mode: QueryMode::Disjunctive,
        queries: QueryGen::TrecLike {
            n: 240,
            common_prob: 0.35,
            cut: 12,
        },
        open_rate: 20.0,
        open_limit_ms: 400.0,
        open_queries: 100,
        setup_repeats: 3,
        attack: Attack::TamperContent,
    },
    Workload {
        name: "tra-conj",
        why: "3-term conjunctive queries on the same TRA index, caches, codec and verifier: a disjunctive-path gain paid for by the conjunctive path shows here",
        scale: 0.02,
        mechanism: Mechanism::TraMht,
        mode: QueryMode::Conjunctive,
        queries: QueryGen::TrecLike {
            n: 400,
            common_prob: 0.9,
            cut: 3,
        },
        open_rate: 60.0,
        open_limit_ms: 200.0,
        open_queries: 300,
        setup_repeats: 3,
        attack: Attack::WrongIntersection,
    },
    Workload {
        name: "tra-churn",
        why: "3-term TRA queries on a 17k-document corpus, twice the default document-MHT cache: half the proof lookups miss, so engine-side VO construction dominates",
        scale: 0.1,
        mechanism: Mechanism::TraMht,
        mode: QueryMode::Disjunctive,
        queries: QueryGen::TrecLike {
            n: 200,
            common_prob: 0.6,
            cut: 3,
        },
        open_rate: 20.0,
        open_limit_ms: 400.0,
        open_queries: 100,
        setup_repeats: 1,
        attack: Attack::DropDocProof,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "verified_qps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "reply_bytes_per_query",
        unit: "B",
        higher_is_better: false,
        bound: 0.08,
    },
    EndToEnd {
        name: "open_within_limit_share",
        unit: "share",
        higher_is_better: true,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.1,
    },
];

/// `(name, unit, higher_is_better)` of every per-layer metric the
/// traced run reports, grouped by the layer (module) it measures.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    // set-up: corpus, index::builder, core::owner/auth, server
    ("setup.keygen_s", "s", false),
    ("setup.corpus_s", "s", false),
    ("setup.index_build_s", "s", false),
    ("setup.sign_s", "s", false),
    ("setup.server_start_s", "s", false),
    ("setup.warmed_terms", "count", true),
    ("setup.warmed_docs", "count", true),
    // snapshot: index::persist, auth::snapshot
    ("snapshot.save_ms", "ms", false),
    ("snapshot.load_ms", "ms", false),
    ("snapshot.bytes", "B", false),
    // crypto
    ("crypto.rsa_verify_us", "us", false),
    ("crypto.rsa_sign_us", "us", false),
    ("crypto.hash_1k_ns", "ns", false),
    ("crypto.combine_ns", "ns", false),
    ("crypto.merkle_build_256_us", "us", false),
    // scan: core::tra / core::tnra over access::IndexLists
    ("scan.us_per_query", "us", false),
    ("scan.entries_read_per_term", "count", false),
    ("scan.pct_list_read", "%", false),
    // serve / VO build: core::engine, auth::serve, auth::cache
    ("serve.us_per_query", "us", false),
    ("serve.vo_build_us_per_query", "us", false),
    ("serve.term_cache_hit_ratio", "share", true),
    ("serve.doc_cache_hit_ratio", "share", true),
    ("serve.term_cache_misses_per_query", "count", false),
    ("serve.doc_cache_misses_per_query", "count", false),
    ("vo.data_bytes", "B", false),
    ("vo.digest_bytes", "B", false),
    ("vo.signature_bytes", "B", false),
    // codec: core::wire
    ("codec.encode_us", "us", false),
    ("codec.decode_us", "us", false),
    ("codec.frame_bytes", "B", false),
    // verify: core::client, core::verify
    ("verify.us_per_query", "us", false),
    ("verify.signatures_per_query", "count", false),
    ("verify.docs_per_query", "count", false),
    // transport: core::server, reactor, pool
    ("server.reads_per_query", "count", false),
    ("server.writes_per_query", "count", false),
    ("server.polls_per_query", "count", false),
    ("server.bytes_in_per_query", "B", false),
    ("server.residual_us_per_query", "us", false),
    ("server.open_p95_ms", "ms", false),
    ("server.open_wait_p95_ms", "ms", false),
    ("server.open_backlog_max_ms", "ms", false),
    // whole process
    ("process.cpu_ms_per_query", "ms", false),
    ("process.allocs_per_query", "count", false),
    ("process.alloc_bytes_per_query", "B", false),
    // the traced run itself
    ("trace.query_us", "us", false),
    ("trace.verify_share", "share", false),
    ("trace.serve_share", "share", false),
    ("trace.residual_share", "share", false),
    ("trace.loopback_qps", "1/s", true),
    ("trace.spans", "count", false),
];

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// Render `BENCHMARK.json` from the tables above.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|&(name, unit, higher)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(higher)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
