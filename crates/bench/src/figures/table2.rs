//! Table 2: breakdown of TRA's VO into data bytes vs digest bytes, for
//! the plain-MHT and chain-MHT (+ buddy inclusion) variants.

use crate::runner::run_workload;
use crate::tables::Table;
use crate::Workbench;
use authsearch_core::Mechanism;

/// The paper's query-size rows.
pub const QUERY_SIZES: [usize; 10] = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20];

/// Paper's published percentages, for side-by-side comparison
/// (`(qsize, MHT data %, CMHT data %)`).
pub const PAPER_DATA_PCT: [(usize, f64, f64); 10] = [
    (2, 6.0, 22.0),
    (4, 8.0, 28.0),
    (6, 9.0, 31.0),
    (8, 10.0, 34.0),
    (10, 11.0, 36.0),
    (12, 12.0, 38.0),
    (14, 12.0, 40.0),
    (16, 13.0, 41.0),
    (18, 13.0, 42.0),
    (20, 14.0, 43.0),
];

/// Run the sweep and print the table.
pub fn run(wb: &mut Workbench) {
    println!(
        "\n#### Table 2 — VO composition of the TRA variants ({} queries/point, r = 10) ####",
        wb.scale.queries
    );
    let corpus = wb.corpus.clone();
    let disk = wb.disk;
    let mut t = Table::new(
        "Table 2: Breakdown of VO size (TRA)",
        &[
            "qsize",
            "MHT data%",
            "MHT digest%",
            "CMHT data%",
            "CMHT digest%",
            "paper MHT data%",
            "paper CMHT data%",
            "sigs paper",
            "sigs here",
        ],
    );
    for (i, &qsize) in QUERY_SIZES.iter().enumerate() {
        let queries = wb.synthetic_queries(qsize, 200 + i as u64);
        let (auth, params) = wb.auth(Mechanism::TraMht);
        let mht = run_workload(auth, params, &corpus, &disk, &queries, 10);
        let (auth, params) = wb.auth(Mechanism::TraCmht);
        let cmht = run_workload(auth, params, &corpus, &disk, &queries, 10);
        let pct = |data: f64, digest: f64| 100.0 * data / (data + digest).max(1.0);
        let (_, paper_mht, paper_cmht) = PAPER_DATA_PCT[i];
        t.row(vec![
            qsize.to_string(),
            format!("{:.0}", pct(mht.mean_vo_data, mht.mean_vo_digest)),
            format!("{:.0}", 100.0 - pct(mht.mean_vo_data, mht.mean_vo_digest)),
            format!("{:.0}", pct(cmht.mean_vo_data, cmht.mean_vo_digest)),
            format!("{:.0}", 100.0 - pct(cmht.mean_vo_data, cmht.mean_vo_digest)),
            format!("{paper_mht:.0}"),
            format!("{paper_cmht:.0}"),
            format!("{:.0}", mht.mean_paper_signatures),
            format!("{:.0}", mht.mean_signatures),
        ]);
    }
    t.note("paper: chain-MHT + buddy inclusion shift the VO towards data, cutting it ~30%");
    t.note(
        "signatures per VO (TRA-MHT; excluded from data/digest %): the paper signs \
         every term list and every encountered document; here one document-table \
         signature replaces the per-document ones, so a reply carries one per term \
         plus one, and the document-table multi-proof adds its digests to the \
         digest column",
    );
    t.print();
}
