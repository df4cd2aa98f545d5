//! Figures 6 and 11: the worked example's execution traces, regenerated.

use authsearch_core::access::{IndexLists, TableFreqs};
use authsearch_core::toy::{toy_index, toy_query, TOY_TERMS};
use authsearch_core::types::DocOrderedLists;
use authsearch_core::{tnra, tra};

use crate::tables::Table;

/// Print both traces.
pub fn run() {
    let index = toy_index();
    let table = DocOrderedLists::from_index(&index);
    let query = toy_query();
    let lists = IndexLists::new(&index, &query);
    let freqs = TableFreqs::new(&table, &query);
    let term_name = |i: usize| TOY_TERMS[query.terms()[i].term as usize];

    println!("\n#### Figures 6 & 11 — \"sleeps in the dark\", top r = 2 ####");

    let (outcome, trace) = tra::run_traced(&lists, &freqs, &query, 2).unwrap();
    let mut t = Table::new("Figure 6: TRA trace", &["iter", "thres", "pop entry", "R"]);
    for (i, row) in trace.iter().enumerate() {
        let pop = match row.popped {
            Some((list, doc, w)) => format!("<{doc}, {w:.3}> for '{}'", term_name(list)),
            None => "terminate".to_string(),
        };
        let r: Vec<String> = row
            .result
            .iter()
            .map(|e| format!("<{}, {:.3}>", e.doc, e.score))
            .collect();
        t.row(vec![
            (i + 1).to_string(),
            format!("{:.4}", row.thres),
            pop,
            format!("[{}]", r.join(", ")),
        ]);
    }
    t.note(format!(
        "result: {:?}  (paper: [<6, 0.750>, <5, 0.416>])",
        outcome
            .result
            .entries
            .iter()
            .map(|e| format!("<{}, {:.3}>", e.doc, e.score))
            .collect::<Vec<_>>()
    ));
    t.print();

    let (outcome, trace) = tnra::run_traced(&lists, &query, 2).unwrap();
    let mut t = Table::new(
        "Figure 11: TNRA trace",
        &["iter", "thres", "pop entry", "R (doc, SLB, SUB)"],
    );
    for (i, row) in trace.iter().enumerate() {
        let pop = match row.popped {
            Some((list, doc, w)) => format!("<{doc}, {w:.3}> for '{}'", term_name(list)),
            None => "terminate".to_string(),
        };
        let r: Vec<String> = row
            .bounds
            .iter()
            .map(|&(d, lb, ub)| format!("<{d}, {lb:.3}, {ub:.3}>"))
            .collect();
        t.row(vec![
            (i + 1).to_string(),
            format!("{:.3}", row.thres),
            pop,
            format!("[{}]", r.join(", ")),
        ]);
    }
    t.note(format!(
        "result: {:?}  (paper: [<6, 0.750>, <5, 0.416>]; TNRA terminates in 9 \
         iterations where TRA needs 6)",
        outcome
            .result
            .entries
            .iter()
            .map(|e| format!("<{}, {:.3}>", e.doc, e.score))
            .collect::<Vec<_>>()
    ));
    t.print();
}
