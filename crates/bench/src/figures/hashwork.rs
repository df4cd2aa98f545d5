//! Hash work per query: the SHA-256 compressions it takes the engine to
//! serve a query and the user to verify the reply, and the RSA
//! signature checks the user makes, under every mechanism and query
//! mode. The counts are exact (`authsearch_crypto::counters`, which this
//! harness builds with the `count-work` feature), so a change to the
//! proofs states what it saves in hashes, not in noisy microseconds.
//! Beside each TRA row, the same replies' verification is priced under
//! the paper's per-document MHTs (`crate::priced`).

use crate::runner::term_ids;
use crate::tables::Table;
use crate::Workbench;
use authsearch_core::{measure, Mechanism, Query, QueryMode};
use authsearch_crypto::counters::WorkCounts;

/// Query size of the workload: the synthetic workload's middle point.
const QUERY_SIZE: usize = 3;

/// Result size fixed at the Table 1 default.
const RESULT_SIZE: usize = 10;

/// Run the workload in both modes under every mechanism and print the
/// table.
pub fn run(wb: &mut Workbench) {
    println!(
        "\n#### Hash work — synthetic workload ({} queries, q = {QUERY_SIZE}), r = {RESULT_SIZE} ####",
        wb.scale.queries
    );
    let queries = wb.synthetic_queries(QUERY_SIZE, 2100);
    let corpus = wb.corpus.clone();
    let disk = wb.disk;
    let mut t = Table::new(
        "Hash work per query (SHA-256 compressions, RSA verifies)",
        &[
            "mechanism",
            "mode",
            "serve",
            "verify",
            "verify RSA",
            "paper (priced) verify",
            "paper (priced) RSA",
        ],
    );
    let models = std::rc::Rc::clone(&wb.models);
    for mechanism in Mechanism::ALL {
        for mode in [QueryMode::Disjunctive, QueryMode::Conjunctive] {
            let (auth, params) = wb.auth(mechanism);
            let (mut serve, mut verify) = (WorkCounts::default(), WorkCounts::default());
            let (mut paper_verify, mut paper_rsa) = (0, 0);
            for terms in &queries {
                let query = Query::from_term_ids(auth.index(), terms).with_mode(mode);
                let m = measure(auth, params, &query, RESULT_SIZE, &corpus, &disk)
                    .unwrap_or_else(|e| panic!("honest query failed verification: {e}"));
                serve = serve + m.serve_work;
                verify = verify + m.verify_work;
                // The paper checks one signature per list and, under TRA,
                // hashes per-document MHTs in place of the doc-order
                // proofs.
                paper_verify += m.verify_work.compressions;
                if mechanism.is_tra() {
                    let ids = term_ids(&query);
                    let here = models.here(&ids, &m.proved_docs);
                    let buddy = auth.config().buddy;
                    let paper = models.paper(&ids, &m.proved_docs, &m.result_docs, buddy);
                    paper_verify = paper_verify - here.compressions + paper.compressions;
                }
                paper_rsa += m.paper_signatures as u64;
            }
            let n = queries.len().max(1) as f64;
            let mode = match mode {
                QueryMode::Disjunctive => "disjunctive",
                QueryMode::Conjunctive => "conjunctive",
            };
            t.row(vec![
                mechanism.name().to_string(),
                mode.to_string(),
                format!("{:.1}", serve.compressions as f64 / n),
                format!("{:.1}", verify.compressions as f64 / n),
                format!("{:.2}", verify.rsa_verifies as f64 / n),
                format!("{:.1}", paper_verify as f64 / n),
                format!("{:.2}", paper_rsa as f64 / n),
            ]);
        }
    }
    t.note(
        "compressions are SHA-256 blocks, helper threads included; verify counts every \
         hash the user makes, the result documents' content hashes among them",
    );
    t.note(
        "paper (priced): the same replies checked the paper's way — one signature per \
         query term's list and, under TRA, per encountered document, whose \
         document-MHT proof replaces the doc-order proofs: its leaves, the interior \
         nodes rebuilt and the signed h(h(doc) | d | root) message are hashed in place \
         of the doc-order leaves, nodes and combined roots; RSA's own hashing is not \
         counted",
    );
    t.print();
}
