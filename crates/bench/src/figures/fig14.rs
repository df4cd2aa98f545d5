//! Figure 14: synthetic workload, varying result size (query size = 3).

use crate::figures::{all_mechanisms, print_abcde};
use crate::Workbench;

/// The paper's result-size sweep.
pub(crate) const RESULT_SIZES: [usize; 5] = [10, 20, 40, 60, 80];

/// Query size fixed at the Table 1 default.
pub(crate) const QUERY_SIZE: usize = 3;

/// Seed of the workload's queries.
pub const SEED: u64 = 1400;

/// Run the sweep and print sub-figures (a)–(e).
pub fn run(wb: &mut Workbench) {
    println!(
        "\n#### Figure 14 — synthetic workload ({} queries/point), q = {QUERY_SIZE} ####",
        wb.scale.queries
    );
    let queries = wb.synthetic_queries(QUERY_SIZE, SEED);
    let mut agg = Vec::with_capacity(RESULT_SIZES.len());
    for &r in &RESULT_SIZES {
        agg.push(all_mechanisms(wb, &queries, r));
    }
    print_abcde(
        "Figure 14",
        "r",
        &RESULT_SIZES,
        &agg,
        &[
            "paper: costs grow with r; TNRA-CMHT I/O rises only marginally \
             (further results come from scanning one remaining list) (14c)",
        ],
    );
}
