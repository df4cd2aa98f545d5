//! One module per reproduced table/figure, plus the ablations of the
//! paper's design choices.

pub mod ablations;
pub mod fig04;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod hashwork;
pub mod space;
pub mod table2;
pub mod trace;

use crate::runner::AggregateMetrics;
use crate::tables::{fmt_bytes, fmt_secs, Table};
use crate::Workbench;
use authsearch_core::Mechanism;

/// What the "paper (priced)" columns are.
pub(crate) const PAPER_PRICED_NOTE: &str =
    "paper (priced): the same replies with their document facts proved the paper's \
     way (§3.3.1, Figure 8), one document-MHT per encountered document, priced with \
     merkle::proof_len over the same encounter lists (8 B leaves, 16 B digests, h(doc) \
     outside the result, buddy groups under CMHT); the unmarked columns are the served \
     replies, which prove them in one doc-order tree per query term";

/// The sub-figure layout shared by Figures 13, 14, and 15: given one
/// x-axis (query size or result size) and per-mechanism aggregates,
/// render the five sub-tables (a)–(e). The paper's claims print under
/// (d), the last count table: (e) is wall-clock time.
pub(crate) fn print_abcde(
    figure: &str,
    x_label: &str,
    xs: &[usize],
    // agg[x][mechanism]
    agg: &[[AggregateMetrics; 4]],
    notes: &[&str],
) {
    let mech_names: Vec<&str> = Mechanism::ALL.iter().map(|m| m.name()).collect();

    let mut a = Table::new(
        format!("{figure}(a) Average # entries read per term"),
        &[x_label, "List Length", "TNRA", "TRA"],
    );
    for (i, &x) in xs.iter().enumerate() {
        a.row(vec![
            x.to_string(),
            format!("{:.1}", agg[i][2].mean_list_len),
            format!("{:.1}", agg[i][2].mean_entries_read),
            format!("{:.1}", agg[i][0].mean_entries_read),
        ]);
    }
    a.print();

    let mut b = Table::new(
        format!("{figure}(b) % of inverted list read"),
        &[x_label, "TNRA", "TRA"],
    );
    for (i, &x) in xs.iter().enumerate() {
        b.row(vec![
            x.to_string(),
            format!("{:.1}", agg[i][2].mean_pct_read),
            format!("{:.1}", agg[i][0].mean_pct_read),
        ]);
    }
    b.print();

    let mut c = Table::new(
        format!("{figure}(c) Simulated I/O time"),
        &[&[x_label], mech_names.as_slice()].concat(),
    );
    for (i, &x) in xs.iter().enumerate() {
        let mut row = vec![x.to_string()];
        row.extend((0..4).map(|m| fmt_secs(agg[i][m].mean_io_secs)));
        c.row(row);
    }
    c.note(
        "TRA's I/O is the paper's model: lists as stored, plus a random fetch of each \
         encountered document's document-MHT",
    );
    c.print();

    let mut d = Table::new(
        format!("{figure}(d) VO size"),
        &[
            x_label,
            "TRA-MHT",
            "paper (priced)",
            "TRA-CMHT",
            "paper (priced)",
            "TNRA-MHT",
            "TNRA-CMHT",
        ],
    );
    for (i, &x) in xs.iter().enumerate() {
        let [tra, tra_c, tnra, tnra_c] = &agg[i];
        d.row(vec![
            x.to_string(),
            fmt_bytes(tra.mean_vo_bytes),
            fmt_bytes(tra.mean_paper_vo_bytes),
            fmt_bytes(tra_c.mean_vo_bytes),
            fmt_bytes(tra_c.mean_paper_vo_bytes),
            fmt_bytes(tnra.mean_vo_bytes),
            fmt_bytes(tnra_c.mean_vo_bytes),
        ]);
    }
    for note in notes {
        d.note(*note);
    }
    d.note(PAPER_PRICED_NOTE);
    d.print();

    let mut e = Table::new(
        format!("{figure}(e) User verification CPU time"),
        &[&[x_label], mech_names.as_slice()].concat(),
    );
    for (i, &x) in xs.iter().enumerate() {
        let mut row = vec![x.to_string()];
        row.extend((0..4).map(|m| fmt_secs(agg[i][m].mean_verify_secs)));
        e.row(row);
    }
    e.print();
}

/// Collect aggregates for all four mechanisms at one data point.
pub(crate) fn all_mechanisms(
    wb: &mut Workbench,
    queries: &[Vec<authsearch_corpus::TermId>],
    r: usize,
) -> [AggregateMetrics; 4] {
    let corpus = wb.corpus.clone();
    let disk = wb.disk;
    let models = std::rc::Rc::clone(&wb.models);
    let mut out = [AggregateMetrics::default(); 4];
    for (i, mechanism) in Mechanism::ALL.into_iter().enumerate() {
        let (auth, params) = wb.auth(mechanism);
        out[i] = crate::runner::run_workload(&models, auth, params, &corpus, &disk, queries, r);
    }
    out
}
