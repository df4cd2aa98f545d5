//! Figure 15: TREC ad-hoc query workload, varying result size.

use crate::figures::{all_mechanisms, print_abcde};
use crate::Workbench;

/// The paper's result-size sweep.
pub(crate) const RESULT_SIZES: [usize; 5] = [10, 20, 40, 60, 80];

/// The paper uses TREC topics 101–200: 100 queries.
pub(crate) const NUM_TREC_QUERIES: usize = 100;

/// Seed of the workload's queries.
pub const SEED: u64 = 1500;

/// Run the sweep and print sub-figures (a)–(e).
pub fn run(wb: &mut Workbench) {
    let n = NUM_TREC_QUERIES.min(wb.scale.queries);
    println!("\n#### Figure 15 — TREC-like workload ({n} queries, 2-20 terms) ####");
    let queries = wb.trec_queries(n, SEED);
    let mut agg = Vec::with_capacity(RESULT_SIZES.len());
    for &r in &RESULT_SIZES {
        agg.push(all_mechanisms(wb, &queries, r));
    }
    print_abcde(
        "Figure 15",
        "r",
        &RESULT_SIZES,
        &agg,
        &[
            "paper: TREC queries hit long lists; absolute costs >20x the \
             synthetic workload, TRA's early-termination edge grows to \
             10-20% (15a)",
            "paper: TNRA-CMHT stays at sub-second I/O, <50 KB VOs, and tens \
             of ms verification even at r = 80",
        ],
    );
}
