//! Owner → long-running server → verifying network client, over
//! loopback TCP — the paper's three-party protocol deployed as a
//! service.
//!
//! ```sh
//! cargo run --release --example server_roundtrip
//! ```
//!
//! The data owner publishes once; the (untrusted) engine runs behind a
//! TCP front speaking the length-prefixed frame protocol of
//! `authsearch_core::wire`; several concurrent clients send queries and
//! accept **nothing** until the verification object checks out against
//! the owner's broadcast public parameters.

use authsearch::prelude::*;
use std::sync::Arc;

fn main() {
    // ------------------------------------------------------------------
    // 1. The data owner indexes, signs, and publishes.
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
    let config = AuthConfig::new(Mechanism::TnraCmht); // the paper's winner
    let owner = DataOwner::with_cached_key(config.key_bits);
    let publication = owner.publish(&corpus, config);
    println!(
        "owner: published {} signed lists over {} documents ({}-bit RSA)",
        publication.auth.index().num_terms(),
        corpus.num_docs(),
        publication.verifier_params.public_key.modulus_bits()
    );

    // ------------------------------------------------------------------
    // 2. The untrusted engine stands up as a long-running server: TCP
    //    acceptor in front, persistent work-stealing pool behind, every
    //    term structure resident from the build before the first
    //    connection lands.
    // ------------------------------------------------------------------
    let engine = Arc::new(SearchEngine::new(publication.auth, corpus));
    let handle = Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    println!(
        "server: listening on {} ({} term structures resident from the build)",
        handle.addr(),
        engine.auth().cache_stats().resident_terms
    );

    // ------------------------------------------------------------------
    // 3. Concurrent users connect, query, and verify. The owner's
    //    public parameters arrive out of band — never from the server.
    // ------------------------------------------------------------------
    let queries = [
        "night keeper keep",
        "big old house",
        "harbour market dawn",
        "silk silver thread",
    ];
    let addr = handle.addr();
    let mut users = Vec::new();
    for (who, text) in queries.into_iter().enumerate() {
        let params = publication.verifier_params.clone();
        users.push(std::thread::spawn(move || {
            let mut connection = Connection::connect(addr, params).expect("connect");
            let (parse, verified, response) =
                connection.query_text(text, 3).expect("response verifies");
            let shown: Vec<String> = verified
                .result
                .entries
                .iter()
                .map(|e| format!("doc {} ({:.3})", e.doc, e.score))
                .collect();
            println!(
                "user {who}: \"{text}\" → [{}]  ({} query terms, VO {} bytes, VERIFIED)",
                shown.join(", "),
                parse.len(),
                verified.vo_size.total()
            );
            let _ = response;
        }));
    }
    for user in users {
        user.join().expect("user thread");
    }

    // ------------------------------------------------------------------
    // 4. Digest mode (TNRA only): the same query streamed without the
    //    contents echo — identical verification verdict, fewer bytes on
    //    the wire; the digests let the user fetch documents out of band.
    // ------------------------------------------------------------------
    let mut connection =
        Connection::connect(addr, publication.verifier_params.clone()).expect("connect");
    let dictionary = |text: &str| {
        engine
            .parse_query(text)
            .query
            .terms
            .iter()
            .map(|qt| (qt.term, qt.f_qt))
            .collect::<Vec<_>>()
    };
    let pairs = dictionary("night keeper keep");
    let (_, full_response) = connection.query_terms(&pairs, 3).expect("full echo");
    let (verified, slim_response, digests) = connection
        .query_terms_digests(&pairs, 3)
        .expect("digest mode");
    let saved: usize = full_response.contents.iter().map(|(_, b)| b.len()).sum();
    println!(
        "digest mode: verdict unchanged ({} results VERIFIED), {} content bytes replaced by {} digests ({}B saved on the wire)",
        verified.result.entries.len(),
        saved,
        digests.len(),
        saved.saturating_sub(16 * digests.len())
    );
    assert!(slim_response.contents.is_empty());

    // ------------------------------------------------------------------
    // 5. Graceful shutdown; the handle returns the final counters —
    //    including the overload ones (shed / timed-out / high-water),
    //    all zero on this polite loopback run.
    // ------------------------------------------------------------------
    let stats = handle.shutdown();
    println!(
        "server: shut down after {} connections (high-water {}), {} ok / {} error replies, \
         {} shed / {} timed out, {}B in / {}B out",
        stats.connections,
        stats.active_highwater,
        stats.requests_ok,
        stats.requests_err,
        stats.connections_shed,
        stats.connections_timed_out,
        stats.bytes_in,
        stats.bytes_out
    );
}
