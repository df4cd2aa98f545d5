//! Golden bytes: the length and digest of every encoding the system
//! emits, on the paper's toy collection.
//!
//! A verification object for each mechanism and query mode, the OK reply
//! that carries it, an error reply, each request kind, the index record,
//! the snapshot container of each mechanism and its sidecar manifest.
//! Every input is deterministic (the cached test key, the Figure 1
//! index, the Figure 6 query), so a change to any codec that moves one
//! byte moves a pin here. A change that moves bytes on purpose re-pins
//! only the vectors it moves, and says which.

use authsearch::core::wire::{self, errcode, Request};
use authsearch::prelude::*;
use authsearch_core::toy::{toy_contents, toy_index, toy_query};
use authsearch_crypto::keys::TEST_KEY_BITS;
use authsearch_crypto::Digest;
use authsearch_index::persist;

/// `(name, length, digest)` of one encoding.
type Pin = (&'static str, usize, &'static str);

const PINS: &[Pin] = &[
    (
        "vo TRA-MHT/disjunctive",
        807,
        "80b7982b4ef127bb6090801d59f6d592",
    ),
    (
        "ok reply TRA-MHT/disjunctive",
        987,
        "1078f70c6a59b8aff2d60029d9937899",
    ),
    (
        "vo TRA-MHT/conjunctive",
        458,
        "dc604a4e0b0cd040d49fb5b0a047da70",
    ),
    (
        "ok reply TRA-MHT/conjunctive",
        593,
        "f98182cc31d9bf57d7a90dbab643407e",
    ),
    ("snapshot TRA-MHT", 845, "07683c099bed8d20c04f2261f8944dba"),
    ("manifest TRA-MHT", 56, "8715613303d8d5f4939374b0d18bf9a9"),
    (
        "vo TRA-CMHT/disjunctive",
        787,
        "bc2425688851d55088e87a409245c0a7",
    ),
    (
        "ok reply TRA-CMHT/disjunctive",
        967,
        "d7f1cbf907c11304287dfd703098f361",
    ),
    (
        "vo TRA-CMHT/conjunctive",
        462,
        "1aaf7cde6085b2ee9ed540dee30b668b",
    ),
    (
        "ok reply TRA-CMHT/conjunctive",
        597,
        "a7b73a223e8ee024bbd5318c2056dbdb",
    ),
    ("snapshot TRA-CMHT", 845, "6275d6db92006da58ed0cc351968c498"),
    ("manifest TRA-CMHT", 56, "f647b6429fb788eb00805535a526c34b"),
    (
        "vo TNRA-MHT/disjunctive",
        355,
        "9704b76ed383a900f92358569c41e671",
    ),
    (
        "ok reply TNRA-MHT/disjunctive",
        535,
        "119eed5191ca9488532b3a94d049c315",
    ),
    (
        "vo TNRA-MHT/conjunctive",
        355,
        "a4efa8c4300bfd60268c0486cbf05c1a",
    ),
    (
        "ok reply TNRA-MHT/conjunctive",
        490,
        "f2bc1980ff1c10e51fe865305083d94e",
    ),
    ("snapshot TNRA-MHT", 701, "fc1f15cd13f10e20257d15fd63ac0c49"),
    ("manifest TNRA-MHT", 56, "378ac3dc8e62e97a287e02d350ff4018"),
    (
        "vo TNRA-CMHT/disjunctive",
        355,
        "fab61fd0c2a17a84a2208c4eb99b850d",
    ),
    (
        "ok reply TNRA-CMHT/disjunctive",
        535,
        "5727d9ec07734aa88cecf66d6ade8525",
    ),
    (
        "vo TNRA-CMHT/conjunctive",
        355,
        "085c58d648af989c0a0352c937e70c9f",
    ),
    (
        "ok reply TNRA-CMHT/conjunctive",
        490,
        "5b88d337f98fd979e37172d840a22ace",
    ),
    (
        "snapshot TNRA-CMHT",
        701,
        "72f00b689fd9333e31f95800b6867bc2",
    ),
    ("manifest TNRA-CMHT", 56, "2734bb0936092ac937d4d79fb9129480"),
    ("err reply", 38, "d8a915e481e31e62bf7ede385a85087e"),
    ("request text", 34, "f06b059ffd8788b0591c4d48f72f339c"),
    (
        "request terms/disjunctive",
        48,
        "75e7473ecf6861b5177135732dd34f58",
    ),
    (
        "request terms/conjunctive",
        48,
        "76e87acba1ee790e9c1dc5332d62c48c",
    ),
    ("index record", 424, "93056bf833d4b6f196167aad42905d04"),
];

fn modes() -> [(QueryMode, &'static str); 2] {
    [
        (QueryMode::Disjunctive, "disjunctive"),
        (QueryMode::Conjunctive, "conjunctive"),
    ]
}

fn encodings() -> Vec<(String, Vec<u8>)> {
    let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
    let mut out = Vec::new();
    for mechanism in Mechanism::ALL {
        let publication =
            owner.publish_index(toy_index(), AuthConfig::new(mechanism), &toy_contents());
        let auth = &publication.auth;
        for (mode, mode_name) in modes() {
            let query = toy_query().with_mode(mode);
            let response = auth.query(&query, 2, &toy_contents()).unwrap();
            let name = format!("{}/{mode_name}", mechanism.name());
            out.push((format!("vo {name}"), wire::encode(&response.vo).unwrap()));
            let echo: Vec<(u32, u32)> = query.terms().iter().map(|qt| (qt.term, 1)).collect();
            out.push((
                format!("ok reply {name}"),
                wire::encode_ok_reply(&echo, &response).unwrap(),
            ));
        }
        let dir = std::env::temp_dir().join("authsearch-golden-bytes");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}.snap", mechanism.name()));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(persist::manifest_path(&path)).ok();
        auth.save_snapshot(&path).unwrap();
        let container = std::fs::read(&path).unwrap();
        let manifest = std::fs::read(persist::manifest_path(&path)).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(persist::manifest_path(&path)).ok();
        out.push((format!("snapshot {}", mechanism.name()), container));
        out.push((format!("manifest {}", mechanism.name()), manifest));
    }
    out.push((
        "err reply".into(),
        wire::encode_err_reply(errcode::BAD_QUERY, "term 99 out of dictionary").unwrap(),
    ));
    let requests = [
        (
            "request text",
            Request::Text {
                text: "sleeps in the dark".into(),
                r: 2,
            },
        ),
        (
            "request terms/disjunctive",
            Request::Terms {
                terms: vec![(2, 1), (7, 1), (14, 1), (15, 1)],
                r: 2,
                mode: QueryMode::Disjunctive,
            },
        ),
        (
            "request terms/conjunctive",
            Request::Terms {
                terms: vec![(2, 1), (7, 1), (14, 1), (15, 1)],
                r: 2,
                mode: QueryMode::Conjunctive,
            },
        ),
    ];
    for (name, request) in requests {
        out.push((name.into(), request.encode_frame().unwrap()));
    }
    let mut index = Vec::new();
    persist::write_index(&mut index, &toy_index()).unwrap();
    out.push(("index record".into(), index));
    out
}

#[test]
fn every_encoding_is_byte_stable() {
    let got: Vec<(String, usize, String)> = encodings()
        .into_iter()
        .map(|(name, bytes)| {
            let digest = Digest::hash(&bytes).to_hex();
            (name, bytes.len(), digest)
        })
        .collect();
    let want: Vec<(String, usize, String)> = PINS
        .iter()
        .map(|&(name, len, digest)| (name.to_string(), len, digest.to_string()))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, len, digest)| format!("    ({name:?}, {len}, {digest:?}),\n"))
        .collect();
    assert_eq!(got, want, "current encodings:\n{table}");
}
