//! `authbench --compare a.json b.json`: is `b` worse than `a` by more
//! than the benchmark's own bounds?
//!
//! Each file is one `--out` record or `{"runs": [record, ...]}`. Runs
//! are grouped by workload; with several runs per workload the medians
//! are compared and each side's spread (interquartile range over
//! median, the acceptance check's measure) is printed beside them.

use crate::json::{self, Value};
use crate::spec::END_TO_END;
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// Per workload: per-metric values, and failed requests, over its runs.
#[derive(Default)]
struct Side {
    metrics: BTreeMap<String, Vec<f64>>,
    failed: f64,
    attempted: f64,
}

fn load(path: &Path) -> Result<BTreeMap<String, Side>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = match doc.get("runs").and_then(Value::as_array) {
        Some(runs) => runs,
        None => std::slice::from_ref(&doc),
    };
    let mut sides: BTreeMap<String, Side> = BTreeMap::new();
    for run in runs {
        let field = |key: &str| {
            run.get(key)
                .ok_or_else(|| format!("{}: a run lacks {key:?}", path.display()))
        };
        let workload = field("workload")?.as_str().unwrap_or_default();
        let side = sides.entry(workload.to_string()).or_default();
        side.failed += field("failed")?.as_f64().unwrap_or(0.0);
        side.attempted += field("attempted")?.as_f64().unwrap_or(0.0);
        for (name, metric) in field("metrics")?.as_object().into_iter().flatten() {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                side.metrics.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(sides)
}

fn spread(values: &[f64]) -> f64 {
    let (q1, median, q3) = stats::quartiles(values);
    (q3 - q1) / median
}

/// Print the comparison; `Ok(false)` when any metric of `b` is worse
/// than `a`'s by more than its bound, or more of `b`'s requests failed.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (side_a, side_b) = (load(a)?, load(b)?);
    let mut within = true;
    println!("# workload metric unit median_a median_b worse_by bound spread_a spread_b verdict");
    for (workload, runs_a) in &side_a {
        let runs_b = side_b
            .get(workload)
            .ok_or_else(|| format!("{} has no run of {workload}", b.display()))?;
        for m in &END_TO_END {
            let values = |side: &Side, path: &Path| {
                side.metrics
                    .get(m.name)
                    .cloned()
                    .ok_or_else(|| format!("{}: {workload} lacks {}", path.display(), m.name))
            };
            let (va, vb) = (values(runs_a, a)?, values(runs_b, b)?);
            let (median_a, median_b) = (stats::median(&va), stats::median(&vb));
            let change = (median_b - median_a) / median_a;
            let worse_by = if m.higher_is_better { -change } else { change };
            let ok = worse_by <= m.bound;
            within &= ok;
            println!(
                "{workload} {} {} {median_a} {median_b} {worse_by:+.4} {} {:.4} {:.4} {}",
                m.name,
                m.unit,
                m.bound,
                spread(&va),
                spread(&vb),
                if ok { "ok" } else { "BREACH" }
            );
        }
        let share = |side: &Side| side.failed / side.attempted;
        let ok = share(runs_b) <= share(runs_a);
        within &= ok;
        println!(
            "{workload} failed_share share {} {} {:+.4} 0 0 0 {}",
            share(runs_a),
            share(runs_b),
            share(runs_b) - share(runs_a),
            if ok { "ok" } else { "BREACH" }
        );
    }
    Ok(within)
}
