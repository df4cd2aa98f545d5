//! A miniature version of the paper's evaluation pipeline (§4): generate
//! a WSJ-like corpus, index it, publish under each mechanism, run a
//! TREC-like workload, and print the cost metrics side by side.
//!
//! ```sh
//! cargo run --release -p authsearch-core --example trec_pipeline
//! ```

use authsearch_core::{measure, AuthConfig, DataOwner, Mechanism, Query, VerifierParams};
use authsearch_corpus::SyntheticConfig;
use authsearch_index::DiskModel;

fn main() {
    // ~1700 documents: 1% of the WSJ corpus, generated in milliseconds.
    let corpus = SyntheticConfig::wsj(0.01).generate();
    println!(
        "corpus: {} docs, {} terms (WSJ-like @ 1% scale)",
        corpus.num_docs(),
        corpus.num_terms()
    );

    let owner = DataOwner::with_cached_key(512); // small key: demo speed
    let disk = DiskModel::seagate_st973401kc();

    // One publication per mechanism (each has its own signed structures).
    let publications: Vec<(Mechanism, _, VerifierParams)> = Mechanism::ALL
        .into_iter()
        .map(|mechanism| {
            let config = AuthConfig::new(mechanism);
            let p = owner.publish(&corpus, config);
            (mechanism, p.auth, p.verifier_params)
        })
        .collect();

    // TREC-like workload: 2-20 terms, common words included.
    let dfs = publications[0].1.index().document_frequencies().to_vec();
    let queries = authsearch_corpus::workload::trec_like(&dfs, 20, 0.35, 181);
    println!("workload: {} TREC-like queries, r = 10\n", queries.len());

    println!(
        "{:<10} {:>9} {:>9} {:>11} {:>11} {:>11}",
        "mechanism", "entries", "% read", "I/O (sim)", "VO bytes", "verify"
    );
    for (mechanism, auth, params) in &publications {
        let mut entries = 0.0;
        let mut pct = 0.0;
        let mut io = 0.0;
        let mut vo = 0.0;
        let mut verify = 0.0;
        for terms in &queries {
            let query = Query::from_term_ids(auth.index(), terms);
            let m = measure(auth, params, &query, 10, &corpus, &disk)
                .expect("honest engine must verify");
            entries += m.mean_entries_read();
            pct += m.mean_pct_read();
            io += m.io_secs;
            vo += m.vo_size.total() as f64;
            verify += m.verify_time.as_secs_f64();
        }
        let n = queries.len() as f64;
        println!(
            "{:<10} {:>9.1} {:>8.1}% {:>9.2}ms {:>11.0} {:>9.2}ms",
            mechanism.name(),
            entries / n,
            pct / n,
            1e3 * io / n,
            vo / n,
            1e3 * verify / n,
        );
    }
    println!(
        "\npaper's conclusion (§4.5): TNRA-CMHT is the consistent winner in \
         I/O, VO size, and verification cost."
    );
}
