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
        321,
        "f69924fc5000fdb43c1449e7ab712703",
    ),
    (
        "ok reply TRA-MHT/disjunctive",
        501,
        "473cf49d51a8201c07ba5f7f2331ac77",
    ),
    (
        "vo TRA-MHT/conjunctive",
        292,
        "88fd84e4f6f8e263060b16ca6707ddd1",
    ),
    (
        "ok reply TRA-MHT/conjunctive",
        427,
        "b73afb4015b726bd25788fe8763d468f",
    ),
    ("snapshot TRA-MHT", 845, "93cf10f16138c8e8a75c7d812c767f79"),
    ("manifest TRA-MHT", 56, "f882ea6b588a664b9a0b1a0d00c2e6c8"),
    (
        "publication TRA-MHT",
        265,
        "e51e749990ccfa68f31618339a3c84ed",
    ),
    (
        "vo TRA-CMHT/disjunctive",
        264,
        "057852c566173cb80ce0b2c3509c9a8c",
    ),
    (
        "ok reply TRA-CMHT/disjunctive",
        444,
        "a8b981209d595e15ebe91c0347bc806f",
    ),
    (
        "vo TRA-CMHT/conjunctive",
        292,
        "f5830e6c6a44fef5e65f4b81666377c7",
    ),
    (
        "ok reply TRA-CMHT/conjunctive",
        427,
        "f64982f846f0b1e8c358501b50fc5073",
    ),
    ("snapshot TRA-CMHT", 845, "7eb870c53590ca3b586a1cb4c93491f1"),
    ("manifest TRA-CMHT", 56, "72634511adb81b3fe583159553ef1374"),
    (
        "publication TRA-CMHT",
        265,
        "ae3aa440712c5faddcee14c325ad7aad",
    ),
    (
        "vo TNRA-MHT/disjunctive",
        211,
        "5af495368c7e60c3550d814575080c7f",
    ),
    (
        "ok reply TNRA-MHT/disjunctive",
        391,
        "3fc40104c4043baaada18a01db4b0318",
    ),
    (
        "vo TNRA-MHT/conjunctive",
        199,
        "098fa2182cc9280f01cd62bac116e16d",
    ),
    (
        "ok reply TNRA-MHT/conjunctive",
        334,
        "e8147d8a41da9a97f8ba4df624ca5868",
    ),
    ("snapshot TNRA-MHT", 701, "a8f6d038e06c1c0423de16c2b337c31e"),
    ("manifest TNRA-MHT", 56, "57d00a8f75a91632f9b5d75e15a28482"),
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
        "396f37bfd581dce8af59acbaa4e88f25",
    ),
    (
        "vo TNRA-CMHT/conjunctive",
        199,
        "ac4e1c3df1016cbe1cfea900e6cc34f2",
    ),
    (
        "ok reply TNRA-CMHT/conjunctive",
        334,
        "d4ef279c62f448f2a0f8d4a549fc0b62",
    ),
    (
        "snapshot TNRA-CMHT",
        701,
        "fe20652f244b7edc946707e8bf0d00da",
    ),
    ("manifest TNRA-CMHT", 56, "68e68d104abeabce092d683fda3c360d"),
    (
        "publication TNRA-CMHT",
        121,
        "6fa36e20a95fa78f83d8e965d4d3becf",
    ),
    ("err reply", 38, "60cfb7233a1e01afbf93b055cc095ff5"),
    ("request text", 34, "a56bf1e64d456e3db6e5c89f3c9787ae"),
    (
        "request terms/disjunctive",
        48,
        "62e74981fe00d39f818e37854cb57975",
    ),
    (
        "request terms/conjunctive",
        48,
        "7ce63f23a29466110c1e6908428f7ca6",
    ),
    (
        "request publication",
        10,
        "d2c60ff0106566780c7a05c537fe3e4a",
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
