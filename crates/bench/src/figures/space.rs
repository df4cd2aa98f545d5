//! §4.1 storage overheads: authentication space per mechanism.
//!
//! The "resident" column is this reproduction's extension: engine RAM
//! held by the structures the engine keeps resident from the build —
//! every term's (chain-)MHT, the dictionary-MHT and, under TRA, every
//! document-MHT's interior levels — counted exactly.

use crate::tables::{fmt_bytes, Table};
use crate::Workbench;
use authsearch_core::Mechanism;

/// Print the storage report table.
pub fn run(wb: &mut Workbench) {
    println!("\n#### §4.1 — authentication storage overheads ####");
    let contents_bytes: u64 = (0..wb.corpus.num_docs() as u32)
        .map(|d| wb.corpus.content_bytes(d).len() as u64)
        .sum();

    let mut t = Table::new(
        "Authentication space",
        &[
            "mechanism",
            "plain index",
            "collection",
            "term auth",
            "doc auth",
            "signatures",
            "resident",
            "extra vs index",
            "extra vs total",
        ],
    );
    let mut row = |name: String, report: &authsearch_core::auth::space::SpaceReport| {
        t.row(vec![
            name,
            fmt_bytes(report.plain_index_bytes as f64),
            fmt_bytes(report.contents_bytes as f64),
            fmt_bytes(report.term_auth_bytes as f64),
            fmt_bytes(report.doc_auth_bytes as f64),
            format!(
                "paper: {}, here: {}",
                report.paper_signatures, report.signatures
            ),
            fmt_bytes(report.cache_resident_bytes as f64),
            format!("{:.1}%", report.overhead_vs_index_pct()),
            format!("{:.1}%", report.overhead_vs_total_pct()),
        ]);
    };
    for mechanism in Mechanism::ALL {
        let (auth, _) = wb.auth(mechanism);
        let report = auth.space_report(contents_bytes);
        row(mechanism.name().to_string(), &report);
    }
    t.note(
        "paper: TNRA needs <1% extra space over the plain index; TRA ~25% \
         (document-MHTs). Shape: TRA >> TNRA. 'resident' is the engine RAM \
         of the structures kept from the build: every term structure, the \
         dictionary-MHT and, under TRA, the interior levels of every \
         document-MHT, counted exactly. The paper stores only roots and \
         leaves and regenerates the rest per query.",
    );
    t.note(
        "signatures — paper: m + n, here: 1. The paper signs every term list \
         and, under TRA, every document; here the owner signs one manifest \
         over the dictionary-MHT and document-table roots.",
    );
    t.print();
}
