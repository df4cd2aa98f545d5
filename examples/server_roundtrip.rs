//! Owner → long-running server → verifying network client, over
//! loopback TCP — the paper's three-party protocol deployed as a
//! service.
//!
//! ```sh
//! cargo run --release --example server_roundtrip
//! ```
//!
//! The data owner publishes once and hands the engine a snapshot file;
//! the (untrusted) engine, which holds no signing key, boots that file
//! against the owner's public parameters and runs behind a TCP front
//! speaking the length-prefixed frame protocol of
//! `authsearch_core::wire`; several concurrent clients send queries and
//! accept **nothing** until the verification object checks out against
//! the owner's broadcast public parameters.

use authsearch::core::wire::Request;
use authsearch::crypto::keys::PAPER_KEY_BITS;
use authsearch::index::persist::manifest_path;
use authsearch::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. The data owner indexes, signs, and publishes: the artifact goes
    //    to the engine as a snapshot file, the public parameters to
    //    users.
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
    let owner = DataOwner::with_cached_key(PAPER_KEY_BITS);
    let publication = owner.publish(&corpus, config);
    println!(
        "owner: published {} signed lists over {} documents ({}-bit RSA)",
        publication.auth.index().num_terms(),
        corpus.num_docs(),
        publication.verifier_params.public_key.modulus_bits()
    );
    let snapshot = std::env::temp_dir().join(format!(
        "authsearch-server-roundtrip-{}.snap",
        std::process::id()
    ));
    let info = publication
        .auth
        .save_snapshot(&snapshot)
        .expect("owner saves the publication");
    println!("owner: saved the publication ({} bytes)", info.bytes);

    // ------------------------------------------------------------------
    // 2. The untrusted engine boots the owner's snapshot, checked against
    //    the owner's public parameters, and stands up as a long-running
    //    server: TCP acceptor in front, a persistent job queue behind,
    //    every term structure resident from the boot before the first
    //    connection lands. The engine never builds or signs; a snapshot
    //    that fails a check is refused with a typed error.
    // ------------------------------------------------------------------
    let handle = Server::start_booted(
        &snapshot,
        &publication.verifier_params,
        &config,
        corpus,
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("boot the owner's snapshot");
    println!(
        "server: booted the owner's snapshot, listening on {}",
        handle.addr()
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
            let request = Request::Text {
                text: text.to_string(),
                r: 3,
            };
            let (parse, verified, response) =
                connection.query(&request).expect("response verifies");
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
                response.vo.size().total()
            );
        }));
    }
    for user in users {
        user.join().expect("user thread");
    }

    // ------------------------------------------------------------------
    // 4. Graceful shutdown; the handle returns the final counters —
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
    for file in [manifest_path(&snapshot), snapshot] {
        std::fs::remove_file(file).expect("remove the snapshot");
    }
}
