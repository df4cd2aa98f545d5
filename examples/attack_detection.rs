//! The full threat-model catalogue (§3.1), demonstrated: every attack a
//! compromised engine can mount against a query result, and its
//! detection, under each mechanism it applies to.
//!
//! ```sh
//! cargo run --release -p authsearch-core --example attack_detection
//! ```

use authsearch_core::attacks::{
    doc_beyond_table_response, stale_doc_table_response, truncated_prefix_response, Attack,
};
use authsearch_core::{verify, AuthConfig, DataOwner, Mechanism, Query, QueryResponse};
use authsearch_corpus::SyntheticConfig;

fn main() {
    let corpus = SyntheticConfig::tiny(300, 2024).generate();
    // A different collection of the same size: the source of a stale
    // document table.
    let older_corpus = SyntheticConfig::tiny(300, 2023).generate();
    let owner = DataOwner::with_cached_key(512);

    let mut detected = 0usize;
    let mut mounted = 0usize;

    for mechanism in Mechanism::ALL {
        let config = AuthConfig {
            key_bits: 512,
            ..AuthConfig::new(mechanism)
        };
        let publication = owner.publish(&corpus, config);
        let terms =
            authsearch_corpus::workload::synthetic(publication.auth.index().num_terms(), 1, 3, 7)
                .remove(0);
        let query = Query::from_term_ids(publication.auth.index(), &terms);
        let honest = publication.auth.query(&query, 10, &corpus);
        assert!(
            verify::verify(&publication.verifier_params, &query, 10, &honest).is_ok(),
            "honest baseline must verify"
        );
        println!("\n=== {} ===", mechanism.name());

        let mut mount = |name: &str, tampered: Option<QueryResponse>| {
            let Some(tampered) = tampered else {
                println!("  -  {name:<40} (not applicable)");
                return;
            };
            mounted += 1;
            match verify::verify(&publication.verifier_params, &query, 10, &tampered) {
                Err(e) => {
                    detected += 1;
                    println!("  ✓  {name:<40} rejected: {e}");
                }
                Ok(_) => println!("  ✗  {name:<40} ACCEPTED — bug!"),
            }
        };

        let doc_side: Vec<Attack> = if mechanism.is_tra() {
            Attack::TRA_ONLY
                .iter()
                .chain(&Attack::DOC_TABLE)
                .copied()
                .collect()
        } else {
            Vec::new()
        };
        for &attack in Attack::COMMON.iter().chain(&doc_side) {
            let mut tampered = honest.clone();
            mount(
                attack.name(),
                attack.apply(&mut tampered).then_some(tampered),
            );
        }

        // The subtle one: a well-formed VO over truncated prefixes.
        mount(
            "truncate prefixes",
            truncated_prefix_response(&publication.auth, &query, 10, &corpus),
        );

        // The owner's genuine signature over another publication's
        // document table, and a document past the end of the table.
        if mechanism.is_tra() {
            let older = owner.publish(&older_corpus, config);
            mount(
                "stale document table",
                stale_doc_table_response(&honest, &older.auth),
            );
            mount(
                "doc id past the table",
                doc_beyond_table_response(&honest, &publication.auth),
            );
        }
    }

    println!("\n{detected}/{mounted} attacks detected");
    assert_eq!(detected, mounted, "verifier must reject every attack");
}
