//! §4.1 storage overheads: authentication space per mechanism, plus the
//! §3.4 dictionary-MHT ablation.
//!
//! The "serve cache" column is this reproduction's extension: engine RAM
//! held by the structures the cached engine keeps resident from the
//! build — every term's (chain-)MHT and, under TRA, every document-MHT's
//! interior levels — counted exactly. The paper's storage model
//! (`serve_cache: false`) holds zero — both modes store the same bytes
//! on disk.

use crate::tables::{fmt_bytes, Table};
use crate::Workbench;
use authsearch_core::{AuthConfig, Mechanism};

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
            "sigs paper",
            "sigs here",
            "serve cache",
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
            report.paper_signatures.to_string(),
            report.signatures.to_string(),
            fmt_bytes(report.cache_resident_bytes as f64),
            format!("{:.1}%", report.overhead_vs_index_pct()),
            format!("{:.1}%", report.overhead_vs_total_pct()),
        ]);
    };
    // The memoized Workbench auths run in paper mode (so the timing
    // figures stay comparable to the paper); their rows therefore show
    // 0 serve-cache residency.
    for mechanism in Mechanism::ALL {
        let (auth, _) = wb.auth(mechanism);
        let report = auth.space_report(contents_bytes);
        row(mechanism.name().to_string(), &report);
    }
    // §3.4 ablation: one dictionary-MHT signature instead of per-list.
    let dict_config = AuthConfig {
        key_bits: wb.scale.key_bits,
        dict_mht: true,
        ..AuthConfig::new(Mechanism::TnraCmht)
    };
    let (auth, _) = wb.build_auth(dict_config);
    row(
        "TNRA-CMHT+dictMHT".to_string(),
        &auth.space_report(contents_bytes),
    );
    // Cached serving mode: identical disk bytes, plus engine RAM for the
    // resident structures. One row per family — TRA-MHT
    // is the residency-heaviest, TNRA-CMHT the paper's pick.
    for mechanism in [Mechanism::TraMht, Mechanism::TnraCmht] {
        let cached_config = AuthConfig {
            key_bits: wb.scale.key_bits,
            serve_cache: true,
            ..AuthConfig::new(mechanism)
        };
        let (auth, _) = wb.build_auth(cached_config);
        row(
            format!("{} (cached)", mechanism.name()),
            &auth.space_report(contents_bytes),
        );
    }
    t.note(
        "paper: TNRA needs <1% extra space over the plain index; TRA ~25% \
         (document-MHTs). Shape: TRA >> TNRA; the dictionary-MHT removes \
         almost all per-list signature space. 'serve cache' is engine RAM \
         of the cached serving mode ('(cached)' rows): every term \
         structure plus, under TRA, the interior levels of every \
         document-MHT, counted exactly. Disk bytes are identical; it is 0 \
         under the paper's regenerate-from-leaves model used by the \
         timing figures.",
    );
    t.note(
        "signatures: the paper stores one per term and, under TRA, one per \
         document; here one document-table signature replaces the per-document \
         ones ('sigs paper' vs 'sigs here').",
    );
    t.print();
}
