//! The full threat-model catalogue (§3.1), demonstrated: every attack a
//! compromised engine can mount against a query result, and its
//! detection, under each mechanism it applies to.
//!
//! ```sh
//! cargo run --release -p authsearch-core --example attack_detection
//! ```

use authsearch_core::attacks::{
    absent_through_gap_response, doc_beyond_table_response, foreign_term_response,
    interior_as_leaf_response, mechanism_swapped_response, older_index, shifted_dict_leaf_response,
    truncated_prefix_response, Attack, Tree,
};
use authsearch_core::{
    verify, AuthConfig, AuthenticatedIndex, DataOwner, Mechanism, Query, QueryResponse,
    VerifierParams,
};
use authsearch_corpus::{Corpus, SyntheticConfig};
use authsearch_index::{build_index, OkapiParams};

/// Attacks this catalogue mounts across the four mechanisms; a change
/// that drops or adds one must say so here.
const EXPECTED_MOUNTED: usize = 77;

fn main() {
    let corpus = SyntheticConfig::tiny(300, 2024).generate();
    let owner = DataOwner::with_cached_key(512);

    let mut detected = 0usize;
    let mut mounted = 0usize;

    for mechanism in Mechanism::ALL {
        let config = AuthConfig::new(mechanism);
        let publication = owner.publish(&corpus, config);
        let terms =
            authsearch_corpus::workload::synthetic(publication.auth.index().num_terms(), 1, 3, 7)
                .remove(0);
        let query = Query::from_term_ids(publication.auth.index(), &terms);
        let honest = serve(&publication.auth, &query, &corpus);
        assert!(
            verify::verify(&publication.verifier_params, &query, 10, &honest).is_ok(),
            "honest baseline must verify"
        );
        println!("\n=== {} ===", mechanism.name());

        // The publication itself, with its signature flipped: a client
        // taking it in under the owner's key refuses it.
        let params = &publication.verifier_params;
        let mut forged = params.publication_bytes();
        forged[57] ^= 0x40;
        let name = "publication with a flipped signature";
        mounted += 1;
        match VerifierParams::open(params.public_key().clone(), params.layout(), &forged) {
            Err(e) => {
                detected += 1;
                println!("  ✓  {name:<40} refused: {e}");
            }
            Ok(_) => println!("  ✗  {name:<40} ACCEPTED — bug!"),
        }

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
                .chain(&Attack::DOC_KEY)
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

        // The held manifest: the whole reply of an older publication of
        // the same collection (one list edited, same m and n), a term
        // root taken from it, the reply relabeled as the other tree
        // type, and a query term answered with its dictionary
        // neighbour's list.
        let older_index = older_index(publication.auth.index(), terms[0]).expect("a short list");
        let older = owner.publish_index(older_index, config, &corpus);
        mount(
            "reply of an older publication",
            Some(serve(&older.auth, &query, &corpus)),
        );
        mount(
            "term root from an older publication",
            foreign_term_response(&honest, &serve(&older.auth, &query, &corpus), 0),
        );
        let other = *Mechanism::ALL
            .iter()
            .find(|m| m.is_tra() == mechanism.is_tra() && **m != mechanism)
            .expect("each algorithm has two tree types");
        let other_publication = owner.publish_index(
            build_index(&corpus, OkapiParams::default()),
            AuthConfig {
                mechanism: other,
                buddy: other.is_cmht(),
                ..config
            },
            &corpus,
        );
        mount(
            "mechanism field swapped",
            mechanism_swapped_response(&serve(&other_publication.auth, &query, &corpus), mechanism),
        );
        mount(
            "dictionary leaf shifted by one",
            shifted_dict_leaf_response(&query, publication.auth.index().num_terms(), |q| {
                serve(&publication.auth, q, &corpus)
            }),
        );
        // An interior node presented as a leaf, in every tree the reply
        // proves from. Buddy inclusion is off so that prefixes end
        // mid-group; the verifier's parameters are the same.
        let unpadded = owner.publish_index(
            build_index(&corpus, OkapiParams::default()),
            AuthConfig {
                buddy: false,
                ..config
            },
            &corpus,
        );
        let plain = serve(&unpadded.auth, &query, &corpus);
        for tree in Tree::ALL.into_iter().filter(|t| t.in_replies_of(mechanism)) {
            mount(
                &format!("interior node as a {tree:?} leaf"),
                interior_as_leaf_response(&plain, &unpadded.auth, tree),
            );
        }

        // A document past the end of the collection, and a present query term
        // claimed absent through a non-adjacent pair of leaves.
        if mechanism.is_tra() {
            mount(
                "doc id past the collection",
                doc_beyond_table_response(&honest, &publication.auth),
            );
            mount(
                "present term claimed absent",
                absent_through_gap_response(&honest, &publication.auth),
            );
        }
    }

    println!("\n{detected}/{mounted} attacks detected");
    assert_eq!(detected, mounted, "verifier must reject every attack");
    assert_eq!(mounted, EXPECTED_MOUNTED, "attacks mounted");
}

/// The honest reply at r = 10; every query here is generated well formed.
fn serve(auth: &AuthenticatedIndex, query: &Query, corpus: &Corpus) -> QueryResponse {
    auth.query(query, 10, corpus)
        .expect("a generated query is well formed")
}
