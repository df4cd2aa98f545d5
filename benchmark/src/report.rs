//! What a run prints: a header block describing the machine and the
//! configuration, one `name unit value n q1 q3` row per metric, and the
//! result object the driver reads from the last line.

use crate::drive::Tally;
use crate::fixture::Fixture;
use crate::spec::{Workload, TOP_R};
use crate::stats;
use authsearch_crypto::keys::PAPER_KEY_BITS;
use std::process::Command;

/// One reported metric: its value, and the count and quartiles of the
/// samples behind it (set-ups, passes or micro-benchmark batches).
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Row {
    /// A single reading.
    pub fn one(name: &'static str, unit: &'static str, value: f64) -> Row {
        Row {
            name,
            unit,
            value,
            n: 1,
            q1: value,
            q3: value,
        }
    }

    /// A value estimated over `per_pass.len()` passes, with the
    /// quartiles of the per-pass readings beside it.
    pub fn over_passes(
        name: &'static str,
        unit: &'static str,
        value: f64,
        per_pass: &[f64],
    ) -> Row {
        let (q1, _, q3) = stats::quartiles(per_pass);
        Row {
            name,
            unit,
            value,
            n: per_pass.len(),
            q1,
            q3,
        }
    }

    /// The median of `samples`, with their quartiles.
    pub fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Row {
        let (q1, value, q3) = stats::quartiles(samples);
        Row {
            name,
            unit,
            value,
            n: samples.len(),
            q1,
            q3,
        }
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpuinfo_processors() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|text| text.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// Print the self-describing header block.
pub fn print_header(w: &Workload, fx: &Fixture, seed: u64, scale: f64, queries_per_pass: usize) {
    let auth = fx.engine.auth();
    println!("# authbench");
    // Only a checkout that is itself a repository is asked: elsewhere
    // git would search the parent directories, outside the checkout.
    let git_rev = if std::path::Path::new(".git").exists() {
        tool_line("git", &["rev-parse", "--short", "HEAD"])
    } else {
        "unknown".to_string()
    };
    println!("git_rev {git_rev}");
    println!("rustc {}", tool_line("rustc", &["--version"]));
    println!("nproc {}", cpuinfo_processors());
    println!(
        "available_parallelism {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("key_bits {PAPER_KEY_BITS}");
    println!("seed {seed}");
    println!("scale {scale}");
    println!("workload {}", w.name);
    println!("mechanism {}", w.mechanism.name());
    println!("mode {:?}", w.mode);
    println!("top_r {TOP_R}");
    println!("server_core {:?}", fx.server.core());
    println!("pool_threads {}", auth.serve_pool().threads());
    println!(
        "corpus {} docs, {} terms",
        auth.index().num_docs(),
        auth.index().num_terms()
    );
    println!("queries_per_pass {queries_per_pass}");
}

/// Print the rows as `name unit value n q1 q3`.
pub fn print_rows(rows: &[Row]) {
    println!("# name unit value n q1 q3");
    for r in rows {
        println!(
            "{} {} {} {} {} {}",
            r.name, r.unit, r.value, r.n, r.q1, r.q3
        );
    }
}

/// Print attempted / succeeded / failed per phase; returns their sum.
pub fn print_phases(phases: &[(&str, Tally)]) -> Tally {
    let mut total = Tally::default();
    for &(phase, tally) in phases {
        println!(
            "phase {phase} attempted {} succeeded {} failed {}",
            tally.attempted,
            tally.succeeded(),
            tally.failed
        );
        total.add(tally);
    }
    total
}

/// What a run concluded, beside its rows.
#[derive(Debug, Clone, Copy)]
pub struct Verdict {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// The rows named by the manifest, in its order; an error if the run
/// measured a different set, because the driver reads exactly these.
pub fn in_manifest_order<'a>(
    rows: &[Row],
    names: impl ExactSizeIterator<Item = &'a str>,
) -> Result<Vec<Row>, String> {
    if names.len() != rows.len() {
        return Err(format!(
            "{} metrics measured, the manifest names {}",
            rows.len(),
            names.len()
        ));
    }
    names
        .map(|name| {
            rows.iter()
                .find(|r| r.name == name)
                .cloned()
                .ok_or_else(|| format!("metric {name} was not measured"))
        })
        .collect()
}

fn result_object(head: &str, verdict: Verdict, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name, r.value, r.unit
            )
        })
        .collect();
    format!(
        "{{{head}\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.correct,
        verdict.attempted,
        verdict.failed,
        metrics.join(", ")
    )
}

/// The result object of the driver's contract: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(verdict: Verdict, rows: &[Row]) -> String {
    result_object("", verdict, rows)
}

/// The record `--out` writes for `--compare`: the result object with
/// the workload and the seed in front.
pub fn record(workload: &str, seed: u64, verdict: Verdict, rows: &[Row]) -> String {
    let head = format!("\"workload\": \"{workload}\", \"seed\": {seed}, ");
    result_object(&head, verdict, rows)
}
