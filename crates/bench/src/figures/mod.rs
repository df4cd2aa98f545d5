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
    c.print();

    let mut d = Table::new(
        format!("{figure}(d) VO size"),
        &[&[x_label], mech_names.as_slice()].concat(),
    );
    for (i, &x) in xs.iter().enumerate() {
        let mut row = vec![x.to_string()];
        row.extend((0..4).map(|m| fmt_bytes(agg[i][m].mean_vo_bytes)));
        d.row(row);
    }
    for note in notes {
        d.note(*note);
    }
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
    let mut out = [AggregateMetrics::default(); 4];
    for (i, mechanism) in Mechanism::ALL.into_iter().enumerate() {
        let (auth, params) = wb.auth(mechanism);
        out[i] = crate::runner::run_workload(auth, params, &corpus, &disk, queries, r);
    }
    out
}
