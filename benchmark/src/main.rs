//! `authbench`: the end-to-end run of one workload, untraced.
//!
//! ```text
//! authbench --workload tra-long [--seed 7] [--seconds 18] [--smoke] [--out run.json]
//! authbench --compare a.json b.json
//! authbench --manifest
//! ```

use authbench::cli::{self, RunArgs};
use authbench::drive::{self, Tally};
use authbench::fixture::{self, Fixture};
use authbench::report::{self, Row, Verdict};
use authbench::{compare, procfs, spec, stats};
use std::process::ExitCode;
use std::time::Instant;

/// Fewest timed closed-loop passes, however short `--seconds` is.
const MIN_PASSES: usize = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--manifest") => {
            print!("{}", spec::manifest());
            Ok(true)
        }
        Some("--compare") => match args.as_slice() {
            [_, a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err("usage: authbench --compare a.json b.json".to_string()),
        },
        _ => cli::parse_run(&args)
            .map_err(|e| format!("{e}\nusage: authbench {}", cli::RUN_USAGE))
            .and_then(run),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("authbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Set up `repeats` times, keeping the last; every earlier server is
/// shut down and its index dropped before the next is built, so peak
/// memory is one set-up's.
fn setup_repeatedly(args: &RunArgs, repeats: usize) -> (Fixture, Vec<f64>) {
    let mut totals = Vec::with_capacity(repeats);
    loop {
        let fx = fixture::setup(args.workload, args.size);
        totals.push(fx.setup_s());
        let stages: Vec<String> = fx
            .stages
            .iter()
            .map(|(name, start, end)| format!("{name}_s {}", (*end - *start).as_secs_f64()))
            .collect();
        println!("setup {} {}", totals.len(), stages.join(" "));
        if totals.len() == repeats {
            return (fx, totals);
        }
        fx.server.shutdown();
    }
}

fn run(args: RunArgs) -> Result<bool, String> {
    fixture::scrub_env();
    let w = args.workload;

    let started = Instant::now();
    fixture::owner_key();
    println!("keygen_s {}", started.elapsed().as_secs_f64());
    let (fx, setup_totals) = setup_repeatedly(&args, args.size.setup_repeats(w));
    let df = fx.engine.auth().index().document_frequencies();
    let queries = fixture::generate_queries(w, args.size, df, args.seed);
    report::print_header(w, &fx, args.seed, args.size.scale(w), queries.len());

    // Correctness first, inside the run: nothing is timed until every
    // reply has verified and a tampered one has been rejected.
    let mut conn = drive::connect(&fx);
    let warmup = drive::correctness_pass(&fx, &mut conn, w, &queries)?;
    let rejection = drive::negative_control(&fx, w, &queries)?;
    println!(
        "negative_control '{}' rejected: {rejection}",
        w.attack.name()
    );

    // Timed closed-loop passes over the identical list, for what
    // `--seconds` leaves once the open-loop schedule is taken out. A
    // query's latency is the fastest of its samples, one per pass (see
    // `drive::closed_pass`); the per-pass readings, printed beside the
    // values built on it, move two to three times as much from run to run.
    let mut closed = Tally::default();
    let (mut qps, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
    let mut latencies = Vec::with_capacity(queries.len());
    let mut best = vec![f64::INFINITY; queries.len()];
    let bytes_before = fx.server.metrics().bytes_out;
    drive::repeat_within(args.closed_budget(), MIN_PASSES, || {
        let (wall, tally) =
            drive::closed_pass(&mut conn, w.mode, &queries, &mut latencies, &mut best);
        closed.add(tally);
        latencies.retain(|l| l.is_finite());
        if latencies.is_empty() {
            return Err("a closed-loop pass had no successful query".to_string());
        }
        stats::sort(&mut latencies);
        qps.push(tally.succeeded() as f64 / wall.as_secs_f64());
        p50.push(stats::percentile(&latencies, 0.50));
        p95.push(stats::percentile(&latencies, 0.95));
        println!(
            "pass {} verified_qps {} latency_p50_ms {} latency_p95_ms {}",
            qps.len(),
            qps[qps.len() - 1],
            p50[p50.len() - 1],
            p95[p95.len() - 1]
        );
        Ok(())
    })?;
    if best.iter().any(|l| l.is_infinite()) {
        return Err("a query failed in every closed-loop pass".to_string());
    }
    let best_pass_s = best.iter().sum::<f64>() / 1e3;
    stats::sort(&mut best);
    let reply_bytes = (fx.server.metrics().bytes_out - bytes_before) as f64;

    // Open loop: independent users at a fixed rate.
    let open = drive::open_loop(&mut conn, w, &queries, args.size.open_queries(w));
    drop(conn);
    let served = fx.server.shutdown();

    let total =
        report::print_phases(&[("warmup", warmup), ("closed", closed), ("open", open.tally)]);
    println!(
        "server requests_ok {} requests_err {}",
        served.requests_ok, served.requests_err
    );
    println!(
        "closed_passes {} samples_per_pass {}",
        qps.len(),
        queries.len()
    );
    if !open.latency_ms.is_empty() {
        println!(
            "open_p95_ms {} (rate {}/s, limit {} ms)",
            stats::percentile(&open.latency_ms, 0.95),
            w.open_rate,
            w.open_limit_ms
        );
    }

    let rows = [
        Row::median_of("setup_s", "s", &setup_totals),
        Row::over_passes(
            "verified_qps",
            "1/s",
            queries.len() as f64 / best_pass_s,
            &qps,
        ),
        Row::over_passes("latency_p50_ms", "ms", stats::percentile(&best, 0.50), &p50),
        Row::over_passes("latency_p95_ms", "ms", stats::percentile(&best, 0.95), &p95),
        Row::one(
            "reply_bytes_per_query",
            "B",
            reply_bytes / closed.succeeded() as f64,
        ),
        Row::one(
            "open_within_limit_share",
            "share",
            open.within_limit_share(),
        ),
        Row::one(
            "peak_rss_mb",
            "MB",
            procfs::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
        ),
    ];
    let rows = report::in_manifest_order(&rows, spec::END_TO_END.iter().map(|m| m.name))?;
    report::print_rows(&rows);
    println!(
        "failed_share share {} {} 0 0",
        total.failed as f64 / total.attempted as f64,
        total.attempted
    );

    let verdict = Verdict {
        correct: total.failed == 0 && served.requests_err == 0,
        attempted: total.attempted,
        failed: total.failed,
    };
    if let Some(path) = &args.out {
        std::fs::write(
            path,
            report::record(w.name, args.seed, verdict, &rows) + "\n",
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", report::result_line(verdict, &rows));
    Ok(verdict.correct)
}
