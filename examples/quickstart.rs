//! Quickstart: the three-party protocol in ~60 lines.
//!
//! ```sh
//! cargo run --release -p authsearch-core --example quickstart
//! ```

use authsearch_core::{AuthConfig, Client, DataOwner, Mechanism, Query, SearchEngine};
use authsearch_corpus::CorpusBuilder;
use authsearch_crypto::keys::PAPER_KEY_BITS;

fn main() {
    // ------------------------------------------------------------------
    // 1. The data owner tokenizes and indexes a collection, builds the
    //    authentication structures, and signs their roots.
    // ------------------------------------------------------------------
    let corpus = CorpusBuilder::new()
        .min_df(1)
        .add_text("the night keeper keeps the keep in the town")
        .add_text("in the big old house in the big old gown")
        .add_text("the house in the town had the big old keep")
        .add_text("where the old night keeper never did sleep")
        .add_text("the night keeper keeps the keep in the night")
        .add_text("a ship sails past the harbour light at dawn")
        .add_text("morning markets open early in the harbour town")
        .add_text("the gown was sewn from silk and silver thread")
        .add_text("dawn breaks over the silver market stalls")
        .add_text("sails and thread and silk fill the market")
        .build();
    println!(
        "owner: indexed {} documents, {} dictionary terms",
        corpus.num_docs(),
        corpus.num_terms()
    );

    let config = AuthConfig::new(Mechanism::TnraCmht); // the paper's winner
    let owner = DataOwner::with_cached_key(PAPER_KEY_BITS);
    let publication = owner.publish(&corpus, config);
    println!(
        "owner: signed {} inverted lists ({}-bit RSA), mechanism {}",
        publication.auth.index().num_terms(),
        publication.verifier_params.public_key.modulus_bits(),
        config.mechanism.name()
    );

    // ------------------------------------------------------------------
    // 2. The (untrusted) search engine receives collection + index and
    //    serves queries with verification objects.
    // ------------------------------------------------------------------
    let engine = SearchEngine::new(publication.auth, corpus);
    let query = Query::from_text(engine.corpus(), engine.auth().index(), "night keeper keep")
        .expect("a word of the query is in the dictionary");
    let response = engine.search(&query, 3);
    println!("\nengine: top-3 for \"night keeper keep\":");
    for (rank, entry) in response.result.entries.iter().enumerate() {
        println!(
            "  {}. doc {} (score {:.4}): {:?}",
            rank + 1,
            entry.doc,
            entry.score,
            engine.corpus().text(entry.doc).unwrap_or("<synthetic>")
        );
    }
    let size = response.vo.size();
    println!(
        "engine: VO = {} bytes ({} data + {} digest + {} signature)",
        size.total(),
        size.data,
        size.digest,
        size.signature
    );

    // ------------------------------------------------------------------
    // 3. The user verifies: complete, correctly ranked, nothing spurious.
    //    The query-side weights are recomputed from the posed
    //    `(t, f_{Q,t})` pairs and the signed `f_t` values in the VO.
    // ------------------------------------------------------------------
    let pairs: Vec<_> = query.terms().iter().map(|qt| (qt.term, qt.f_qt)).collect();
    let client = Client::new(publication.verifier_params);
    match client.verify_terms(&pairs, 3, &response) {
        Ok(verified) => println!(
            "\nclient: VERIFIED — result provably correct ({} entries)",
            verified.result.entries.len()
        ),
        Err(e) => println!("\nclient: REJECTED — {e}"),
    }
}
