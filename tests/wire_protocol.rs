//! Property-based and fuzz-style tests of the framed wire protocol:
//! round trips over arbitrary requests, and a mutation corpus asserting
//! that no attacker-controlled byte sequence — truncated, oversized,
//! version-bumped, or randomly corrupted — ever panics a decoder. Every
//! malformed input must come back as a `WireError`.

use authsearch::core::wire::{
    self, decode_frame_header, decode_reply_payload, encode_err_reply, encode_ok_reply,
    split_frame, Reply, Request, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
};
use authsearch::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn text_requests_round_trip(text in ".{0,300}", r in 0u32..100_000) {
        let request = Request::Text { text: text.clone(), r };
        let bytes = request.encode_frame().unwrap();
        let (kind, payload) = split_frame(&bytes).unwrap();
        prop_assert_eq!(Request::decode_payload(kind, payload).unwrap(), request);
    }

    #[test]
    fn term_requests_round_trip(
        raw in proptest::collection::vec(any::<u32>(), 0..40),
        freqs in proptest::collection::vec(1u32..16, 0..40),
        r in 1u32..10_000,
    ) {
        let request = Request::Terms {
            terms: ascending_terms(raw, &freqs),
            r,
            mode: QueryMode::Disjunctive,
        };
        let bytes = request.encode_frame().unwrap();
        let (kind, payload) = split_frame(&bytes).unwrap();
        prop_assert_eq!(kind, wire::kind::REQ_TERMS);
        prop_assert_eq!(Request::decode_payload(kind, payload).unwrap(), request);
    }

    #[test]
    fn conjunctive_requests_round_trip(
        raw in proptest::collection::vec(any::<u32>(), 0..40),
        freqs in proptest::collection::vec(1u32..16, 0..40),
        r in 1u32..10_000,
    ) {
        // Same payload as a disjunctive request; only the kind differs.
        let request = Request::Terms {
            terms: ascending_terms(raw, &freqs),
            r,
            mode: QueryMode::Conjunctive,
        };
        let bytes = request.encode_frame().unwrap();
        let (kind, payload) = split_frame(&bytes).unwrap();
        prop_assert_eq!(kind, wire::kind::REQ_CONJ_TERMS);
        prop_assert_eq!(Request::decode_payload(kind, payload).unwrap(), request);
    }

    #[test]
    fn mutated_term_requests_never_panic(
        conjunctive in any::<bool>(),
        cut in 0usize..32,
        claimed in any::<u16>(),
    ) {
        // Build a valid term payload of either kind, then corrupt the
        // claimed term count and truncate. Every outcome must be Ok or
        // a typed WireError, never a panic, and the payload decodes
        // exactly when its length matches the count it claims.
        let mode = if conjunctive { QueryMode::Conjunctive } else { QueryMode::Disjunctive };
        let terms = vec![(3, 1), (9, 2), (17, 1)];
        let good = Request::Terms { terms: terms.clone(), r: 5, mode }
            .encode_frame()
            .unwrap();
        let (kind, payload) = split_frame(&good).unwrap();
        let mut bad = payload.to_vec();
        // `r u32 | n u16 | pairs`: the count sits at offset 4.
        bad[4..6].copy_from_slice(&claimed.to_le_bytes());
        bad.truncate(bad.len().saturating_sub(cut));
        let outcome = Request::decode_payload(kind, &bad);
        let fits = bad.len() == 6 + 8 * claimed as usize;
        prop_assert_eq!(outcome.is_ok(), fits, "claimed {} pairs in {} bytes", claimed, bad.len());
        if let Ok(decoded) = outcome {
            let want = Request::Terms { terms: terms[..claimed as usize].to_vec(), r: 5, mode };
            prop_assert_eq!(decoded, want);
        }
    }

    #[test]
    fn error_replies_round_trip(code in any::<u8>(), message in "[a-zA-Z0-9 .,]{0,200}") {
        let bytes = encode_err_reply(code, &message).unwrap();
        let (kind, payload) = split_frame(&bytes).unwrap();
        prop_assert_eq!(
            decode_reply_payload(kind, payload).unwrap(),
            Reply::Err { code, message }
        );
    }

    #[test]
    fn random_headers_never_panic(header in proptest::collection::vec(any::<u8>(), FRAME_HEADER_LEN)) {
        let mut arr = [0u8; FRAME_HEADER_LEN];
        arr.copy_from_slice(&header);
        // Either parses to a known kind with a sane length, or errors.
        if let Ok((kind, len)) = decode_frame_header(&arr) {
            prop_assert!(len <= MAX_FRAME_PAYLOAD);
            prop_assert!(
                [wire::kind::REQ_TEXT, wire::kind::REQ_TERMS, wire::kind::REQ_CONJ_TERMS,
                 wire::kind::REPLY_OK, wire::kind::REPLY_ERR]
                    .contains(&kind)
            );
        }
    }

    #[test]
    fn random_payloads_never_panic_decoders(
        kind in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        // Feed arbitrary bytes to both payload decoders — must return,
        // never panic (the outer harness would abort on panic).
        let _ = Request::decode_payload(kind, &payload);
        let _ = decode_reply_payload(kind, &payload);
    }
}

/// Strictly ascending distinct term ids, paired with frequencies
/// (padding with 1 where `freqs` runs short).
fn ascending_terms(mut ids: Vec<u32>, freqs: &[u32]) -> Vec<(u32, u32)> {
    ids.sort_unstable();
    ids.dedup();
    ids.iter()
        .zip(freqs.iter().chain(std::iter::repeat(&1)))
        .map(|(&t, &f)| (t, f))
        .collect()
}

/// A real OK reply carrying a full `QueryResponse`, used as the
/// mutation-corpus seed.
fn sample_ok_frame() -> Vec<u8> {
    let corpus = CorpusBuilder::new()
        .min_df(1)
        .add_text("the night keeper keeps the keep in the town")
        .add_text("in the big old house in the big old gown")
        .add_text("the house in the town had the big old keep")
        .build();
    let owner = DataOwner::with_cached_key(authsearch::crypto::keys::TEST_KEY_BITS);
    let config = AuthConfig::new(Mechanism::TraCmht);
    let publication = owner.publish(&corpus, config);
    let engine = SearchEngine::new(publication.auth, corpus);
    let query =
        Query::from_text(engine.corpus(), engine.auth().index(), "night keeper keep").unwrap();
    let response = engine.search(&query, 2);
    let terms: Vec<(u32, u32)> = query.terms().iter().map(|qt| (qt.term, qt.f_qt)).collect();
    encode_ok_reply(&terms, &response).unwrap()
}

/// Fuzz-style corpus: random byte mutations of a valid frame must
/// decode to the original, a different well-formed value, or a
/// `WireError` — never a panic, never an implausible allocation.
#[test]
fn mutated_frames_never_panic() {
    let seed = sample_ok_frame();
    let mut rng = StdRng::seed_from_u64(0x5eed_f4a3);
    let mut decoded_ok = 0u32;
    let mut rejected = 0u32;
    for _ in 0..2_000 {
        let mut frame = seed.clone();
        // 1–8 random single-byte mutations (flip, overwrite, or chop).
        let edits = rng.gen_range(1usize..9);
        for _ in 0..edits {
            match rng.gen_range(0u8..3) {
                0 if !frame.is_empty() => {
                    let i = rng.gen_range(0..frame.len());
                    frame[i] ^= 1 << rng.gen_range(0u8..8);
                }
                1 if !frame.is_empty() => {
                    let i = rng.gen_range(0..frame.len());
                    frame[i] = rng.gen();
                }
                _ => {
                    let keep = rng.gen_range(0..=frame.len());
                    frame.truncate(keep);
                }
            }
        }
        let outcome = match split_frame(&frame) {
            Err(_) => Err(()),
            Ok((kind, payload)) => decode_reply_payload(kind, payload).map_err(|_| ()),
        };
        match outcome {
            Ok(_) => decoded_ok += 1,
            Err(()) => rejected += 1,
        }
    }
    // The corpus must actually exercise the reject paths (almost every
    // mutation lands in one), and nothing panicked to get here.
    assert!(rejected > 1_000, "rejected only {rejected} of 2000");
    let _ = decoded_ok;
}

/// Oversized advertisements are refused before allocation: a header
/// claiming a >cap payload fails `decode_frame_header`, and `Vec`
/// preallocation in payload decoders is bounded by the actual payload.
#[test]
fn oversized_claims_rejected_cheaply() {
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&wire::FRAME_MAGIC);
    header[4] = wire::WIRE_VERSION;
    header[5] = wire::kind::REPLY_OK;
    header[6..10].copy_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
    assert!(decode_frame_header(&header).is_err());

    // A tiny payload claiming 2^26 result entries must be rejected by
    // bounds/truncation checks, not attempted.
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u16.to_le_bytes()); // no terms
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd result count
    assert!(decode_reply_payload(wire::kind::REPLY_OK, &payload).is_err());

    // Same for an absurd count nested inside the VO encoding: a
    // 10-byte VO whose varint document count claims 2^26 proofs is
    // refused before any allocation sized by the claim.
    let mut vo = Vec::new();
    vo.extend_from_slice(b"AVO1");
    vo.push(0); // mechanism
    vo.push(0); // no term proofs
    vo.extend_from_slice(&[0x80, 0x80, 0x80, 0x20]); // 2^26 doc proofs
    let err = wire::decode(&vo).unwrap_err().to_string();
    assert!(err.contains("document proof count 67108864"), "{err}");
    // And one that claims 2^26 revealed leaves in a 2^26-leaf tree.
    let mut vo = Vec::new();
    vo.extend_from_slice(b"AVO1");
    vo.push(0);
    vo.push(0);
    vo.push(1); // one document proof
    vo.push(1); // doc id 1
    vo.extend_from_slice(&[0x80, 0x80, 0x80, 0x20]); // 2^26 leaves
    vo.extend_from_slice(&[0x80, 0x80, 0x80, 0x20]); // all revealed
    let err = wire::decode(&vo).unwrap_err().to_string();
    assert!(err.contains("revealed leaf count 67108864"), "{err}");
}

/// A foreign version is rejected by name: a future client cannot be
/// silently misparsed by this server, and neither can the four previous
/// versions. A v7 reply ends its VO with a manifest signature (and under
/// TRA a document-table proof, with a content flag in every document
/// proof) that v8 drops, a v6 reply carries its VO in fixed-width fields
/// where v7 writes varints and gap-coded leaf positions, a v5 TRA reply
/// carries plain document-leaf positions where v6 packs each leaf's
/// `c_t` into the top bits, and a v4 conjunctive request (flags byte,
/// mode byte, then `r | n | pairs`) reuses kind `0x03` under a
/// different payload layout, so the header check must refuse all three
/// before any payload decoder sees them.
#[test]
fn foreign_version_rejected_by_name() {
    assert_eq!(wire::WIRE_VERSION, 8);
    let mut bumped = sample_ok_frame();
    bumped[4] = wire::WIRE_VERSION + 1;

    let mut v7_reply = sample_ok_frame();
    v7_reply[4] = 7;

    let mut v6_reply = sample_ok_frame();
    v6_reply[4] = 6;

    let mut v5_reply = sample_ok_frame();
    v5_reply[4] = 5;

    let mut v4_payload = vec![0u8, 1]; // flags byte, mode byte
    v4_payload.extend_from_slice(&5u32.to_le_bytes()); // r
    v4_payload.extend_from_slice(&1u16.to_le_bytes()); // one pair
    v4_payload.extend_from_slice(&3u32.to_le_bytes());
    v4_payload.extend_from_slice(&1u32.to_le_bytes());
    let mut v4_request = wire::encode_frame_header(wire::kind::REQ_CONJ_TERMS, v4_payload.len())
        .unwrap()
        .to_vec();
    v4_request[4] = 4;
    v4_request.extend_from_slice(&v4_payload);

    let frames = [
        (9, bumped),
        (7, v7_reply),
        (6, v6_reply),
        (5, v5_reply),
        (4, v4_request),
    ];
    for (version, frame) in frames {
        let named = format!("version {version} (this build speaks 8)");
        let header: [u8; FRAME_HEADER_LEN] = frame[..FRAME_HEADER_LEN].try_into().unwrap();
        let err = decode_frame_header(&header).unwrap_err();
        assert!(err.to_string().contains(&named), "{err}");
        let err = split_frame(&frame).unwrap_err();
        assert!(err.to_string().contains(&named), "{err}");
    }
}
