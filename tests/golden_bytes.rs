//! Golden bytes: the length and digest of every encoding the system
//! emits, on the paper's toy collection.
//!
//! A verification object for each mechanism and query mode, the OK reply
//! that carries it, the publication of each mechanism (the payload of
//! the reply to a publication request), an error reply, each request
//! kind, the index record, the snapshot container of each mechanism and
//! its sidecar manifest.
//! Every input is deterministic (the cached test key, the Figure 1
//! index, the Figure 6 query), so a change to any codec that moves one
//! byte moves a pin here. A change that moves bytes on purpose re-pins
//! only the vectors it moves, and says which.

use authsearch::core::wire::{self, errcode, kind, Request};
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
        432,
        "512ded6a73d16c644220d8ecb3cefe96",
    ),
    (
        "ok reply TRA-MHT/disjunctive",
        612,
        "b7cb02c14be660ed15d5c5375c86fef1",
    ),
    (
        "vo TRA-MHT/conjunctive",
        239,
        "35722a5bbcc1780e912e4722a65bafc3",
    ),
    (
        "ok reply TRA-MHT/conjunctive",
        374,
        "5eae173e7224dae62e3477e126521624",
    ),
    ("snapshot TRA-MHT", 845, "07683c099bed8d20c04f2261f8944dba"),
    ("manifest TRA-MHT", 56, "8715613303d8d5f4939374b0d18bf9a9"),
    (
        "publication TRA-MHT",
        409,
        "07a89523f35047c1c0b3d9a22b29b0e3",
    ),
    (
        "vo TRA-CMHT/disjunctive",
        315,
        "e37944d7b9c60b96d71c229f4171ace4",
    ),
    (
        "ok reply TRA-CMHT/disjunctive",
        495,
        "31e13e9b6551a706286a64b7f2d18d42",
    ),
    (
        "vo TRA-CMHT/conjunctive",
        224,
        "2a59c1e4d0a87e5ae68ef286c174b8e0",
    ),
    (
        "ok reply TRA-CMHT/conjunctive",
        359,
        "8f879e5011bb6729e707b2602ff35545",
    ),
    ("snapshot TRA-CMHT", 845, "6275d6db92006da58ed0cc351968c498"),
    ("manifest TRA-CMHT", 56, "f647b6429fb788eb00805535a526c34b"),
    (
        "publication TRA-CMHT",
        409,
        "ab74e00e79ce5877b1b1e8ee38c0b8eb",
    ),
    (
        "vo TNRA-MHT/disjunctive",
        211,
        "5af495368c7e60c3550d814575080c7f",
    ),
    (
        "ok reply TNRA-MHT/disjunctive",
        391,
        "092e1c8c82433c6b4587937c4a187f88",
    ),
    (
        "vo TNRA-MHT/conjunctive",
        199,
        "098fa2182cc9280f01cd62bac116e16d",
    ),
    (
        "ok reply TNRA-MHT/conjunctive",
        334,
        "e2ef910572b8f43b411bd8aa3debbc9a",
    ),
    ("snapshot TNRA-MHT", 701, "fc1f15cd13f10e20257d15fd63ac0c49"),
    ("manifest TNRA-MHT", 56, "378ac3dc8e62e97a287e02d350ff4018"),
    (
        "publication TNRA-MHT",
        121,
        "f690ad02b0cd23801fd147320ea37fff",
    ),
    (
        "vo TNRA-CMHT/disjunctive",
        211,
        "b49f3905f208bf080ee0cf2683847905",
    ),
    (
        "ok reply TNRA-CMHT/disjunctive",
        391,
        "f4f8ef888196303b382c6eff33db1b57",
    ),
    (
        "vo TNRA-CMHT/conjunctive",
        199,
        "ac4e1c3df1016cbe1cfea900e6cc34f2",
    ),
    (
        "ok reply TNRA-CMHT/conjunctive",
        334,
        "1e04be77700af1dd24b36b3c086bfebf",
    ),
    (
        "snapshot TNRA-CMHT",
        701,
        "72f00b689fd9333e31f95800b6867bc2",
    ),
    ("manifest TNRA-CMHT", 56, "2734bb0936092ac937d4d79fb9129480"),
    (
        "publication TNRA-CMHT",
        121,
        "6fa36e20a95fa78f83d8e965d4d3becf",
    ),
    ("err reply", 38, "3e81a96c95c84319f7bc86f2a172ac85"),
    ("request text", 34, "c0e6b03f2998fd4be78325b25e1ac64e"),
    (
        "request terms/disjunctive",
        48,
        "fbcdef184f5c03376d62d21aca14987f",
    ),
    (
        "request terms/conjunctive",
        48,
        "0f60bca90aab742a85128f02a9ab82c2",
    ),
    (
        "request publication",
        10,
        "8a984b2deb4157582f0e57a75b5ec460",
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
        let bytes = publication.verifier_params.publication_bytes();
        out.push((format!("publication {}", mechanism.name()), bytes));
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
    let publication = Request::Publication.encode_frame().unwrap();
    assert_eq!(publication[5], kind::REQ_PUBLICATION);
    out.push(("request publication".into(), publication));
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
