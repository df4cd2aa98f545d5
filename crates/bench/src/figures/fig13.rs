//! Figure 13: synthetic workload, varying query size (result size = 10).

use crate::figures::{all_mechanisms, print_abcde};
use crate::Workbench;

/// Query sizes sampled along the paper's 0–20 x-axis.
pub(crate) const QUERY_SIZES: [usize; 8] = [1, 2, 3, 5, 8, 12, 16, 20];

/// Result size fixed at the Table 1 default.
pub(crate) const RESULT_SIZE: usize = 10;

/// Run the sweep and print sub-figures (a)–(e).
pub fn run(wb: &mut Workbench) {
    println!(
        "\n#### Figure 13 — synthetic workload ({} queries/point), r = {RESULT_SIZE} ####",
        wb.scale.queries
    );
    let mut agg = Vec::with_capacity(QUERY_SIZES.len());
    for (i, &qsize) in QUERY_SIZES.iter().enumerate() {
        let queries = wb.synthetic_queries(qsize, 1300 + i as u64);
        agg.push(all_mechanisms(wb, &queries, RESULT_SIZE));
    }
    print_abcde(
        "Figure 13",
        "qsize",
        &QUERY_SIZES,
        &agg,
        &[
            "paper: early termination reads far fewer entries than list length, \
             rising with query size (13a)",
            "paper: TRA variants cost more I/O than TNRA (random doc-MHT fetches); \
             TNRA-CMHT < 40% the I/O of TNRA-MHT (13c)",
            "paper: TRA VOs are several times larger than TNRA's; \
             TNRA-CMHT 10-20% below TNRA-MHT (13d)",
        ],
    );
}
