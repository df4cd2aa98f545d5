//! Ablations of the paper's design choices, in the paper's own units:
//! buddy inclusion and the chain-MHT block capacity ρ′ (§3.3.2) in VO
//! bytes, simulated I/O and entries read, and score-prioritised polling
//! in place of Fagin's equal-depth NRA (§3) in entries read.
//!
//! The buddy and block tables run Figure 14's q = 3 workload at r = 10,
//! so their paper-configuration rows (buddy on, 1 KB blocks) repeat
//! Figure 14's r = 10 cells; the polling table runs Figure 15's
//! TREC-like workload.

use crate::figures::{fig14, fig15};
use crate::runner::{run_workload, AggregateMetrics};
use crate::tables::{fmt_bytes, fmt_secs, Table};
use crate::Workbench;
use authsearch_core::access::{IndexLists, ListAccess};
use authsearch_core::{tnra, AuthConfig, Mechanism, Query};
use authsearch_corpus::TermId;
use authsearch_index::BlockLayout;

/// Result size: the Table 1 default.
pub(crate) const RESULT_SIZE: usize = 10;

/// Block sizes of the ρ′ sweep: ρ′ = 61, 125 (the paper's 1 KB) and 509
/// ⟨d, f⟩ leaves per chain block.
pub(crate) const BLOCK_SIZES: [usize; 3] = [512, 1024, 4096];

/// Run the three ablations and print one table each.
pub fn run(wb: &mut Workbench) {
    println!(
        "\n#### Ablations — buddy inclusion, block capacity, polling order ({} queries/point, r = {RESULT_SIZE}) ####",
        wb.scale.queries
    );
    let queries = wb.synthetic_queries(fig14::QUERY_SIZE, fig14::SEED);
    buddy(wb, &queries);
    block_capacity(wb, &queries);
    polling_order(wb);
}

/// Aggregates of `queries` under `config`: the workbench's memoized
/// index for the paper's configuration, a fresh build for any other.
fn aggregate(wb: &mut Workbench, config: AuthConfig, queries: &[Vec<TermId>]) -> AggregateMetrics {
    let corpus = wb.corpus.clone();
    let disk = wb.disk;
    if config == AuthConfig::new(config.mechanism) {
        let (auth, params) = wb.auth(config.mechanism);
        run_workload(auth, params, &corpus, &disk, queries, RESULT_SIZE)
    } else {
        let (auth, params) = wb.build_auth(config);
        run_workload(&auth, &params, &corpus, &disk, queries, RESULT_SIZE)
    }
}

fn buddy(wb: &mut Workbench, queries: &[Vec<TermId>]) {
    let mut t = Table::new(
        "Ablation: buddy inclusion (mean VO bytes per query)",
        &["mechanism", "buddy", "VO data", "VO digest", "VO total"],
    );
    for mechanism in [Mechanism::TnraCmht, Mechanism::TraCmht] {
        for buddy in [false, true] {
            let config = AuthConfig {
                buddy,
                ..AuthConfig::new(mechanism)
            };
            let agg = aggregate(wb, config, queries);
            t.row(vec![
                mechanism.name().to_string(),
                if buddy { "on" } else { "off" }.to_string(),
                fmt_bytes(agg.mean_vo_data),
                fmt_bytes(agg.mean_vo_digest),
                fmt_bytes(agg.mean_vo_bytes),
            ]);
        }
    }
    t.note(
        "paper (§3.3.2): leaves are smaller than digests, so buddy inclusion \
         ships a revealed leaf's whole group of 2^g leaves in place of the \
         group's digests: more data bytes, fewer digest bytes, a smaller VO. \
         'on' is the paper's configuration",
    );
    t.print();
}

fn block_capacity(wb: &mut Workbench, queries: &[Vec<TermId>]) {
    let mut t = Table::new(
        "Ablation: chain-MHT block capacity (TNRA-CMHT)",
        &[
            "block",
            "leaves/block",
            "entries read/term",
            "simulated I/O",
            "VO size",
        ],
    );
    for block_bytes in BLOCK_SIZES {
        let config = AuthConfig {
            layout: BlockLayout {
                block_bytes,
                ..BlockLayout::default()
            },
            ..AuthConfig::new(Mechanism::TnraCmht)
        };
        let agg = aggregate(wb, config, queries);
        t.row(vec![
            format!("{block_bytes} B"),
            config.chain_capacity().to_string(),
            format!("{:.1}", agg.mean_entries_read),
            fmt_secs(agg.mean_io_secs),
            fmt_bytes(agg.mean_vo_bytes),
        ]);
    }
    t.note(
        "paper (§3.3.2): ρ′ = (block − 20) / 8 leaves per chain block; the \
         paper's 1 KB blocks give ρ′ = 125",
    );
    t.print();
}

fn polling_order(wb: &Workbench) {
    let n = fig15::NUM_TREC_QUERIES.min(wb.scale.queries);
    let queries: Vec<Query> = wb
        .trec_queries(n, fig15::SEED)
        .iter()
        .map(|terms| Query::from_term_ids(&wb.index, terms))
        .collect();
    let mut prioritized = 0usize;
    let mut equal_depth = 0usize;
    for q in &queries {
        let lists = IndexLists::new(&wb.index, q);
        let out = tnra::run(&lists, q, RESULT_SIZE).expect("TNRA over the index's own lists");
        prioritized += out.prefix_lens.iter().sum::<usize>();
        // Equal depth = every queried list read to the depth of the
        // deepest one (what the original NRA's round-robin would fetch).
        let deepest = out.prefix_lens.iter().copied().max().unwrap_or(0);
        equal_depth += (0..q.terms().len())
            .map(|i| deepest.min(lists.list_len(i)))
            .sum::<usize>();
    }
    let mut t = Table::new(
        format!("Ablation: TNRA polling order ({n} TREC-like queries, entries read)"),
        &["polling", "entries read", "vs prioritised"],
    );
    for (name, entries) in [
        ("score-prioritised", prioritized),
        ("equal depth", equal_depth),
    ] {
        t.row(vec![
            name.to_string(),
            entries.to_string(),
            format!("{:.2}x", entries as f64 / prioritized.max(1) as f64),
        ]);
    }
    t.note(
        "paper (§3): polling the list with the highest term score, in place of \
         Fagin's round-robin, reads fewer entries. Equal depth is simulated: \
         every queried list read to the depth of the deepest list TNRA reached",
    );
    t.print();
}
