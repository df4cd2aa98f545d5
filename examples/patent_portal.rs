//! The paper's motivating scenario (§1): a MicroPatent-style portal.
//!
//! A patent office (the data owner) outsources its collection to a portal
//! operator. A patent examiner searches it and *must* detect whether a
//! breached portal omits a competitor's patent, biases the ranking, or
//! plants a fake one.
//!
//! ```sh
//! cargo run --release -p authsearch-core --example patent_portal
//! ```

use authsearch_core::attacks::Attack;
use authsearch_core::{AuthConfig, Client, DataOwner, Mechanism, Query, SearchEngine};
use authsearch_corpus::CorpusBuilder;
use authsearch_crypto::keys::PAPER_KEY_BITS;

const PATENTS: [&str; 10] = [
    "wireless charging coil alignment for electric vehicles using magnetic resonance",
    "battery thermal management with phase change material in electric vehicles",
    "wireless power transfer efficiency optimization through adaptive coil geometry",
    "fast charging protocol negotiation between vehicle and charging station",
    "inductive charging pad with foreign object detection and thermal shutdown",
    "regenerative braking energy storage in supercapacitor banks",
    "vehicle to grid bidirectional charging with islanding protection",
    "solid state battery electrolyte composition with ceramic separators",
    "dynamic wireless charging lane embedded in roadway with segmented coils",
    "charging cable cooling system using dielectric liquid circulation",
];

fn main() {
    // The patent office publishes with TRA-CMHT: its publication also
    // binds each patent's full text, so examiners detect content
    // tampering too.
    let corpus = CorpusBuilder::new().min_df(1).add_texts(PATENTS).build();
    let config = AuthConfig::new(Mechanism::TraCmht);
    let owner = DataOwner::with_cached_key(PAPER_KEY_BITS);
    let publication = owner.publish(&corpus, config);
    let engine = SearchEngine::new(publication.auth, corpus);
    let client = Client::new(publication.verifier_params);

    let text = "wireless charging coil";
    let query = Query::from_text(engine.corpus(), engine.auth().index(), text)
        .expect("a word of the query is in the dictionary");
    let pairs: Vec<_> = query.terms().iter().map(|qt| (qt.term, qt.f_qt)).collect();
    let honest = engine.search(&query, 3);
    println!("examiner searches: \"{text}\" (top 3)");
    for (rank, e) in honest.result.entries.iter().enumerate() {
        println!(
            "  {}. [patent #{}] {:.60}…",
            rank + 1,
            e.doc,
            engine.corpus().text(e.doc).unwrap()
        );
    }
    match client.verify_terms(&pairs, 3, &honest) {
        Ok(_) => println!("  integrity proof: ACCEPTED\n"),
        Err(e) => unreachable!("honest portal rejected: {e}"),
    }

    // A breached portal tries the three §1 tampering classes.
    println!("now simulating a compromised portal:");
    let scenarios = [
        (
            Attack::OmitTopResult,
            "incomplete result — competitor's patent silently dropped",
        ),
        (
            Attack::SwapRanking,
            "altered ranking — attention diverted from the best match",
        ),
        (
            Attack::InjectSpurious,
            "spurious result — fabricated patent planted",
        ),
        (
            Attack::TamperContent,
            "tampered content — claim text rewritten",
        ),
    ];
    for (attack, story) in scenarios {
        let mut tampered = honest.clone();
        assert!(attack.apply(&mut tampered), "{story}");
        match client.verify_terms(&pairs, 3, &tampered) {
            Ok(_) => println!("  ✗ {story}: NOT DETECTED (bug!)"),
            Err(e) => println!("  ✓ {story}\n      rejected: {e}"),
        }
    }
}
