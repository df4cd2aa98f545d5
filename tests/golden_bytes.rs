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
        614,
        "7677552edeb9b99a2e3a782f1cb428ff",
    ),
    (
        "ok reply TRA-MHT/disjunctive",
        794,
        "639ddad8f1488da040db88ce8ad96994",
    ),
    (
        "vo TRA-MHT/conjunctive",
        370,
        "3ce1433fc4a1da235a380d48d2c8c7c6",
    ),
    (
        "ok reply TRA-MHT/conjunctive",
        505,
        "4b1ca3d059e1a205e0762ba27629d6b8",
    ),
    ("snapshot TRA-MHT", 845, "07683c099bed8d20c04f2261f8944dba"),
    ("manifest TRA-MHT", 56, "8715613303d8d5f4939374b0d18bf9a9"),
    (
        "vo TRA-CMHT/disjunctive",
        497,
        "6acc3db66921732ff1c4e81b10f4c6e5",
    ),
    (
        "ok reply TRA-CMHT/disjunctive",
        677,
        "5eafd2821b68446b63573385b05eba67",
    ),
    (
        "vo TRA-CMHT/conjunctive",
        355,
        "eacf83508712bb4fc8e885d0a78ac0c6",
    ),
    (
        "ok reply TRA-CMHT/conjunctive",
        490,
        "a2fa878b8711f30eaa85da788d7afde9",
    ),
    ("snapshot TRA-CMHT", 845, "6275d6db92006da58ed0cc351968c498"),
    ("manifest TRA-CMHT", 56, "f647b6429fb788eb00805535a526c34b"),
    (
        "vo TNRA-MHT/disjunctive",
        276,
        "2bc7e9bf95c62b8fae665577bd7864a2",
    ),
    (
        "ok reply TNRA-MHT/disjunctive",
        456,
        "aec1b934009d4b62789f803fa8a10622",
    ),
    (
        "vo TNRA-MHT/conjunctive",
        264,
        "c34caa37e333e6b441a7e75036cf14cf",
    ),
    (
        "ok reply TNRA-MHT/conjunctive",
        399,
        "4d3a3c49c2b6a1b17f4c636e78caa0a2",
    ),
    ("snapshot TNRA-MHT", 701, "fc1f15cd13f10e20257d15fd63ac0c49"),
    ("manifest TNRA-MHT", 56, "378ac3dc8e62e97a287e02d350ff4018"),
    (
        "vo TNRA-CMHT/disjunctive",
        276,
        "46f9cc2e0f1f2608949327bf0118b091",
    ),
    (
        "ok reply TNRA-CMHT/disjunctive",
        456,
        "dee1b0092adbaf871e1b327da0ccbe13",
    ),
    (
        "vo TNRA-CMHT/conjunctive",
        264,
        "034ed569f01640aac8b9483718aa8772",
    ),
    (
        "ok reply TNRA-CMHT/conjunctive",
        399,
        "1a276cc7a0064321c24055c2e29d4936",
    ),
    (
        "snapshot TNRA-CMHT",
        701,
        "72f00b689fd9333e31f95800b6867bc2",
    ),
    ("manifest TNRA-CMHT", 56, "2734bb0936092ac937d4d79fb9129480"),
    ("err reply", 38, "19fddcb13af8d8a498de655ac0a1dbc3"),
    ("request text", 34, "bc6524ab386445880162c10232da20d6"),
    (
        "request terms/disjunctive",
        48,
        "da1d80b502fad42c05b4a4ac4ead9c73",
    ),
    (
        "request terms/conjunctive",
        48,
        "511554e857e659f1952d544958e456fa",
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
            let vo = wire::encode(&response.vo).unwrap();
            // The one encoding: the bytes decode to this VO, which
            // encodes back to the same bytes.
            let back = wire::decode(&vo).unwrap();
            assert_eq!(back, response.vo, "{name}");
            assert_eq!(wire::encode(&back).unwrap(), vo, "{name}");
            out.push((format!("vo {name}"), vo));
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
