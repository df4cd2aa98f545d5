//! Threat-model test suite (§3.1): every simulated attack by a
//! compromised search engine must be rejected by the verifier, under
//! every mechanism it applies to. A verifier that accepts any of these
//! responses would defeat the entire construction, so these tests are the
//! security contract of the library.

use authsearch_core::attacks::{
    doc_beyond_table_response, foreign_term_response, incomplete_conjunct_response,
    interior_as_leaf_response, mechanism_swapped_response, older_index, shifted_dict_leaf_response,
    stale_manifest_response, truncated_prefix_response, Attack, Tree,
};
use authsearch_core::toy::{toy_contents, toy_index, toy_query};
use authsearch_core::{
    verify, wire, AuthConfig, DataOwner, Mechanism, Publication, Query, QueryMode, QueryResponse,
    VerifyError,
};
use authsearch_corpus::{CorpusBuilder, SyntheticConfig};
use authsearch_crypto::keys::TEST_KEY_BITS;

fn publish(mechanism: Mechanism) -> (Publication, authsearch_corpus::Corpus) {
    let corpus = SyntheticConfig::tiny(200, 99).generate();
    let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
    let config = AuthConfig {
        key_bits: TEST_KEY_BITS,
        ..AuthConfig::new(mechanism)
    };
    let publication = owner.publish(&corpus, config);
    (publication, corpus)
}

fn sample_query(publication: &Publication, seed: u64) -> authsearch_core::Query {
    let terms =
        authsearch_corpus::workload::synthetic(publication.auth.index().num_terms(), 1, 3, seed)
            .remove(0);
    authsearch_core::Query::from_term_ids(publication.auth.index(), &terms)
}

#[test]
fn every_common_attack_rejected_under_every_mechanism() {
    for mechanism in Mechanism::ALL {
        let (publication, corpus) = publish(mechanism);
        let query = sample_query(&publication, 4);
        let honest = publication.auth.query(&query, 10, &corpus);
        // The honest response must verify (otherwise the attacks below
        // prove nothing).
        verify::verify(&publication.verifier_params, &query, 10, &honest)
            .unwrap_or_else(|e| panic!("{}: honest response rejected: {e}", mechanism.name()));

        for attack in Attack::COMMON {
            let mut tampered = honest.clone();
            if !attack.apply(&mut tampered) {
                continue; // not applicable under this mechanism
            }
            let outcome = verify::verify(&publication.verifier_params, &query, 10, &tampered);
            assert!(
                outcome.is_err(),
                "{}: attack '{}' was NOT detected",
                mechanism.name(),
                attack.name()
            );
        }
    }
}

#[test]
fn tra_specific_attacks_rejected() {
    for mechanism in [Mechanism::TraMht, Mechanism::TraCmht] {
        let (publication, corpus) = publish(mechanism);
        let query = sample_query(&publication, 5);
        let honest = publication.auth.query(&query, 10, &corpus);

        for attack in Attack::TRA_ONLY {
            let mut tampered = honest.clone();
            assert!(
                attack.apply(&mut tampered),
                "{}: attack '{}' not applicable",
                mechanism.name(),
                attack.name()
            );
            let outcome = verify::verify(&publication.verifier_params, &query, 10, &tampered);
            assert!(
                outcome.is_err(),
                "{}: attack '{}' was NOT detected",
                mechanism.name(),
                attack.name()
            );
        }
    }
}

#[test]
fn truncated_prefix_with_valid_proofs_rejected() {
    // The clever attack: perfectly well-formed VO over shortened
    // prefixes. Every signature checks out; only the replay notices the
    // result is unsubstantiated.
    for mechanism in Mechanism::ALL {
        let (publication, corpus) = publish(mechanism);
        let query = sample_query(&publication, 6);
        let Some(tampered) = truncated_prefix_response(&publication.auth, &query, 10, &corpus)
        else {
            continue;
        };
        let outcome = verify::verify(&publication.verifier_params, &query, 10, &tampered);
        assert!(
            matches!(
                outcome,
                Err(VerifyError::InsufficientData(_)) | Err(VerifyError::ResultMismatch(_))
            ),
            "{}: truncated prefixes not detected ({outcome:?})",
            mechanism.name()
        );
    }
}

#[test]
fn attacks_rejected_on_the_paper_example() {
    // The MicroPatent story, concretely: every attack on the worked
    // example's result is caught.
    for mechanism in Mechanism::ALL {
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            ..AuthConfig::new(mechanism)
        };
        let publication = owner.publish_index(toy_index(), config, &toy_contents());
        let honest = publication.auth.query(&toy_query(), 2, &toy_contents());
        verify::verify(&publication.verifier_params, &toy_query(), 2, &honest).unwrap();

        let applicable = Attack::COMMON.iter().chain(if mechanism.is_tra() {
            Attack::TRA_ONLY.iter()
        } else {
            [].iter()
        });
        for &attack in applicable {
            let mut tampered = honest.clone();
            if !attack.apply(&mut tampered) {
                continue;
            }
            assert!(
                verify::verify(&publication.verifier_params, &toy_query(), 2, &tampered).is_err(),
                "{}: '{}' undetected on the toy example",
                mechanism.name(),
                attack.name()
            );
        }
    }
}

/// A small text collection with a guaranteed non-trivial intersection:
/// "night" and "keeper" co-occur in exactly three of the six documents,
/// so a top-2 conjunctive query leaves one revealed-but-excluded
/// candidate for the widening attack to promote.
fn conjunctive_fixture(mechanism: Mechanism) -> (Publication, authsearch_corpus::Corpus, Query) {
    let corpus = CorpusBuilder::new()
        .min_df(1)
        .add_text("the night keeper keeps the keep in the town")
        .add_text("in the big old house in the big old gown")
        .add_text("the house in the town had the big old keep")
        .add_text("where the old night keeper never did sleep")
        .add_text("the night keeper keeps the keep in the night")
        .add_text("the town crier cried about the big old night")
        .build();
    let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
    let config = AuthConfig {
        key_bits: TEST_KEY_BITS,
        ..AuthConfig::new(mechanism)
    };
    let publication = owner.publish(&corpus, config);
    let query = Query::from_text(&corpus, publication.auth.index(), "night keeper");
    assert_eq!(query.len(), 2);
    (publication, corpus, query)
}

/// The conjunctive security contract: every applicable attack from the
/// whole catalogue — the original eleven plus the four conjunctive/
/// phrase variants — is rejected by [`verify::verify_conjunctive`]
/// under every mechanism, and the honest response verifies first.
#[test]
fn every_conjunctive_attack_rejected_under_every_mechanism() {
    for mechanism in Mechanism::ALL {
        let (publication, corpus, query) = conjunctive_fixture(mechanism);
        let honest = publication.auth.query_conjunctive(&query, 2, &corpus);
        assert_eq!(
            honest.result.entries.len(),
            2,
            "{}: fixture must yield a full top-2 intersection",
            mechanism.name()
        );
        verify::verify_conjunctive(&publication.verifier_params, &query, 2, &honest)
            .unwrap_or_else(|e| {
                panic!(
                    "{}: honest conjunctive response rejected: {e}",
                    mechanism.name()
                )
            });

        let catalogue = Attack::COMMON
            .iter()
            .chain(Attack::CONJUNCTIVE.iter())
            .chain(if mechanism.is_tra() {
                Attack::TRA_ONLY.iter()
            } else {
                [].iter()
            });
        for &attack in catalogue {
            let mut tampered = honest.clone();
            if !attack.apply(&mut tampered) {
                // The only legitimate non-applicability on this fixture:
                // phrase tampering without delivered contents (TNRA),
                // entry-weight tampering without entries (TRA), and
                // understating a length when every list is already fully
                // revealed (TNRA).
                assert!(
                    matches!(
                        attack,
                        Attack::PhraseOrderSwap
                            | Attack::AlterPrefixWeight
                            | Attack::UnderstateListLength
                    ),
                    "{}: '{}' unexpectedly not applicable",
                    mechanism.name(),
                    attack.name()
                );
                continue;
            }
            let outcome =
                verify::verify_conjunctive(&publication.verifier_params, &query, 2, &tampered);
            assert!(
                outcome.is_err(),
                "{}: conjunctive attack '{}' was NOT detected",
                mechanism.name(),
                attack.name()
            );
        }
    }
}

/// The four new variants must actually bite on this fixture: the three
/// intersection attacks under every mechanism, phrase tampering wherever
/// contents are delivered (TRA).
#[test]
fn conjunctive_attacks_applicable_on_the_fixture() {
    for mechanism in Mechanism::ALL {
        let (publication, corpus, query) = conjunctive_fixture(mechanism);
        let honest = publication.auth.query_conjunctive(&query, 2, &corpus);
        for attack in Attack::CONJUNCTIVE {
            let mut tampered = honest.clone();
            let expect = attack != Attack::PhraseOrderSwap || mechanism.is_tra();
            assert_eq!(
                attack.apply(&mut tampered),
                expect,
                "{}: '{}'",
                mechanism.name(),
                attack.name()
            );
        }
    }
}

/// The clever conjunctive attack: a *perfectly well-formed* VO over a
/// reveal one buddy group short of the completeness bar, honest result,
/// valid proofs and signatures. Only the typed completeness check
/// stands in the way, and it must name the under-revealed term.
#[test]
fn incomplete_conjunct_with_valid_proofs_rejected() {
    for mechanism in Mechanism::ALL {
        let (publication, corpus) = publish(mechanism);
        let index = publication.auth.index();
        // Pick the two longest lists so the shortened reveal survives
        // buddy re-expansion (the helper bails on tiny lists).
        let mut terms: Vec<u32> = (0..index.num_terms() as u32).collect();
        terms.sort_by_key(|&t| std::cmp::Reverse(index.ft(t)));
        let mut pick = [terms[0], terms[1]];
        pick.sort_unstable();
        let query = Query::from_term_ids(index, &pick);
        let honest = publication.auth.query_conjunctive(&query, 10, &corpus);
        verify::verify_conjunctive(&publication.verifier_params, &query, 10, &honest)
            .unwrap_or_else(|e| panic!("{}: honest rejected: {e}", mechanism.name()));
        let tampered = incomplete_conjunct_response(&publication.auth, &query, 10, &corpus)
            .unwrap_or_else(|| panic!("{}: fixture lists too short", mechanism.name()));
        let outcome =
            verify::verify_conjunctive(&publication.verifier_params, &query, 10, &tampered);
        assert!(
            matches!(outcome, Err(VerifyError::ConjunctIncomplete { .. })),
            "{}: incomplete conjunct not typed correctly ({outcome:?})",
            mechanism.name()
        );
    }
}

/// Mode confusion on the worked example, where the conjunctive ([6]) and
/// disjunctive ([6, 5]) answers provably differ: neither VO may pass the
/// other model's verifier, in either direction, under any mechanism.
#[test]
fn conjunctive_mode_confusion_rejected() {
    for mechanism in Mechanism::ALL {
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            ..AuthConfig::new(mechanism)
        };
        let publication = owner.publish_index(toy_index(), config, &toy_contents());
        let conj = publication
            .auth
            .query_conjunctive(&toy_query(), 2, &toy_contents());
        let disj = publication.auth.query(&toy_query(), 2, &toy_contents());
        assert_ne!(conj.result, disj.result, "{}", mechanism.name());
        assert!(
            verify::verify(&publication.verifier_params, &toy_query(), 2, &conj).is_err(),
            "{}: conjunctive VO accepted by the disjunctive verifier",
            mechanism.name()
        );
        assert!(
            verify::verify_conjunctive(&publication.verifier_params, &toy_query(), 2, &disj)
                .is_err(),
            "{}: disjunctive VO accepted by the conjunctive verifier",
            mechanism.name()
        );
    }
}

/// Conjunctive wrong-key / wrong-query sanity, mirroring the disjunctive
/// suite: foreign keys and replayed VOs for other queries are rejected.
#[test]
fn conjunctive_wrong_key_and_query_rejected() {
    let (publication, corpus, query) = conjunctive_fixture(Mechanism::TnraCmht);
    let honest = publication.auth.query_conjunctive(&query, 2, &corpus);
    let other_key = authsearch_crypto::keys::cached_keypair(768);
    let mut params = publication.verifier_params.clone();
    params.public_key = other_key.public_key().clone();
    assert!(verify::verify_conjunctive(&params, &query, 2, &honest).is_err());

    let other = Query::from_text(&corpus, publication.auth.index(), "town house");
    assert!(matches!(
        verify::verify_conjunctive(&publication.verifier_params, &other, 2, &honest),
        Err(VerifyError::QueryShapeMismatch(_))
    ));
}

#[test]
fn wrong_key_rejected() {
    let (publication, corpus) = publish(Mechanism::TnraCmht);
    let query = sample_query(&publication, 7);
    let honest = publication.auth.query(&query, 10, &corpus);
    // A verifier configured with a different owner's key must reject.
    let other_key = authsearch_crypto::keys::cached_keypair(768);
    let mut params = publication.verifier_params.clone();
    params.public_key = other_key.public_key().clone();
    assert!(verify::verify(&params, &query, 10, &honest).is_err());
}

#[test]
fn vo_for_different_query_rejected() {
    // Replaying a (legitimate) response to a different query must fail:
    // the term binding in the signatures catches it.
    let (publication, corpus) = publish(Mechanism::TnraMht);
    let query_a = sample_query(&publication, 8);
    let query_b = sample_query(&publication, 9);
    assert_ne!(
        query_a.terms[0].term, query_b.terms[0].term,
        "seeds must give distinct queries"
    );
    let response_a = publication.auth.query(&query_a, 10, &corpus);
    let outcome = verify::verify(&publication.verifier_params, &query_b, 10, &response_a);
    assert!(matches!(outcome, Err(VerifyError::QueryShapeMismatch(_))));
}

#[test]
fn wrong_r_rejected() {
    // Asking for 10 but verifying as if 5 were requested: the replay
    // produces a different result length.
    let (publication, corpus) = publish(Mechanism::TnraCmht);
    let query = sample_query(&publication, 10);
    let response = publication.auth.query(&query, 10, &corpus);
    if response.result.entries.len() > 5 {
        let outcome = verify::verify(&publication.verifier_params, &query, 5, &response);
        assert!(matches!(outcome, Err(VerifyError::ResultMismatch(_))));
    }
}

#[test]
fn mechanism_confusion_rejected() {
    // A TNRA response presented to a TRA verifier (and vice versa).
    let (pub_tnra, corpus) = publish(Mechanism::TnraMht);
    let query = sample_query(&pub_tnra, 11);
    let response = pub_tnra.auth.query(&query, 10, &corpus);
    let mut params = pub_tnra.verifier_params.clone();
    params.mechanism = Mechanism::TraMht;
    assert!(matches!(
        verify::verify(&params, &query, 10, &response),
        Err(VerifyError::QueryShapeMismatch(_))
    ));
}

// ---- the document-table catalogue, with typed verdicts ---------------------

/// How a tampered reply reaches the verifier.
#[derive(Debug, Clone, Copy)]
enum Path {
    InProcess,
    Wire,
}

/// The verdict a document-table or manifest attack must produce.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// `VerifyError::DocTableProof(_)`.
    Proof,
    /// `VerifyError::ManifestSignature`.
    Manifest,
}

impl Expect {
    fn of(attack: Attack) -> Expect {
        match attack {
            Attack::DropDocTableDigest | Attack::ExtraDocTableDigest => Expect::Proof,
            Attack::ShiftDocId | Attack::ForgeManifestSignature => Expect::Manifest,
            other => panic!("'{}' has no typed verdict here", other.name()),
        }
    }

    fn holds(self, outcome: &Result<authsearch_core::VerifiedResult, VerifyError>) -> bool {
        match self {
            Expect::Proof => matches!(outcome, Err(VerifyError::DocTableProof(_))),
            Expect::Manifest => matches!(outcome, Err(VerifyError::ManifestSignature)),
        }
    }
}

/// Send `response` down `path`: unchanged, or encoded as a full reply
/// frame and decoded again, exactly as a client receives it.
fn deliver(path: Path, query: &Query, response: QueryResponse) -> QueryResponse {
    match path {
        Path::InProcess => response,
        Path::Wire => {
            let pairs: Vec<(u32, u32)> = query.terms.iter().map(|qt| (qt.term, qt.f_qt)).collect();
            let frame = wire::encode_ok_reply(&pairs, &response).expect("tampered reply encodes");
            let (kind, payload) = wire::split_frame(&frame).expect("frame header");
            match wire::decode_reply_payload(kind, payload).expect("tampered reply decodes") {
                wire::Reply::Ok { response, .. } => response,
                other => panic!("expected an OK reply, got {other:?}"),
            }
        }
    }
}

fn verify_in(
    mode: QueryMode,
    publication: &Publication,
    query: &Query,
    response: &QueryResponse,
) -> Result<authsearch_core::VerifiedResult, VerifyError> {
    verify_with(mode, &publication.verifier_params, query, response)
}

fn verify_with(
    mode: QueryMode,
    params: &authsearch_core::VerifierParams,
    query: &Query,
    response: &QueryResponse,
) -> Result<authsearch_core::VerifiedResult, VerifyError> {
    match mode {
        QueryMode::Disjunctive => verify::verify(params, query, 10, response),
        QueryMode::Conjunctive => verify::verify_conjunctive(params, query, 10, response),
    }
}

fn serve_in(
    mode: QueryMode,
    publication: &Publication,
    query: &Query,
    corpus: &authsearch_corpus::Corpus,
) -> QueryResponse {
    match mode {
        QueryMode::Disjunctive => publication.auth.query(query, 10, corpus),
        QueryMode::Conjunctive => publication.auth.query_conjunctive(query, 10, corpus),
    }
}

/// The first sampled query whose honest response every document-table
/// attack applies to (so no cell of the matrix is skipped).
fn doc_table_query(
    mode: QueryMode,
    publication: &Publication,
    corpus: &authsearch_corpus::Corpus,
) -> (Query, QueryResponse) {
    let terms = match mode {
        QueryMode::Disjunctive => 3,
        QueryMode::Conjunctive => 2,
    };
    let m = publication.auth.index().num_terms();
    (0..64)
        .map(|seed| {
            let ids = authsearch_corpus::workload::synthetic(m, 1, terms, seed).remove(0);
            let query = Query::from_term_ids(publication.auth.index(), &ids);
            let honest = serve_in(mode, publication, &query, corpus);
            (query, honest)
        })
        .find(|(_, honest)| {
            Attack::DOC_TABLE
                .iter()
                .all(|attack| attack.apply(&mut honest.clone()))
        })
        .expect("some sampled query admits every document-table attack")
}

/// Every document-table attack — the three response mutations and a doc
/// id past the table — is rejected with its exact `VerifyError`, on
/// TRA-MHT and TRA-CMHT × disjunctive / conjunctive × in-process / over
/// the wire.
#[test]
fn doc_table_attacks_rejected_with_typed_verdicts() {
    for mechanism in [Mechanism::TraMht, Mechanism::TraCmht] {
        let (publication, corpus) = publish(mechanism);
        for mode in [QueryMode::Disjunctive, QueryMode::Conjunctive] {
            let (query, honest) = doc_table_query(mode, &publication, &corpus);
            let mut cases: Vec<(String, QueryResponse, Expect)> = Attack::DOC_TABLE
                .iter()
                .map(|&attack| {
                    let mut tampered = honest.clone();
                    assert!(attack.apply(&mut tampered));
                    (attack.name().to_string(), tampered, Expect::of(attack))
                })
                .collect();
            cases.push((
                "doc id past the table".into(),
                doc_beyond_table_response(&honest, &publication.auth).expect("document proofs"),
                Expect::Proof,
            ));
            for path in [Path::InProcess, Path::Wire] {
                let delivered = deliver(path, &query, honest.clone());
                verify_in(mode, &publication, &query, &delivered).unwrap_or_else(|e| {
                    panic!(
                        "{} {mode:?} {path:?}: honest reply rejected: {e}",
                        mechanism.name()
                    )
                });
                for (name, tampered, expect) in &cases {
                    let delivered = deliver(path, &query, tampered.clone());
                    let outcome = verify_in(mode, &publication, &query, &delivered);
                    assert!(
                        expect.holds(&outcome),
                        "{} {mode:?} {path:?}: '{name}' gave {outcome:?}, want {expect:?}",
                        mechanism.name()
                    );
                }
            }
        }
    }
}

/// Wire fuzz: a reply whose VO stops anywhere inside the trailer — the
/// document-table proof and the manifest signature after it — (with the
/// VO and frame lengths fixed up to match) never decodes, and a flipped
/// byte anywhere in the trailer never verifies.
#[test]
fn truncated_or_flipped_doc_table_trailer_rejected() {
    let (publication, corpus) = publish(Mechanism::TraMht);
    let query = sample_query(&publication, 5);
    let honest = publication.auth.query(&query, 10, &corpus);
    let pairs: Vec<(u32, u32)> = query.terms.iter().map(|qt| (qt.term, qt.f_qt)).collect();
    let vo = wire::encode(&honest.vo).unwrap();
    let table = honest.vo.doc_table.as_ref().unwrap();
    let trailer = 4 + table.proof.size_bytes() + 2 + honest.vo.signature.len();

    // Locate the nested VO inside the reply payload: term echo, result
    // entries, then a u32 length and the VO bytes.
    let frame = wire::encode_ok_reply(&pairs, &honest).unwrap();
    let payload = &frame[wire::FRAME_HEADER_LEN..];
    let vo_at = 2 + 8 * pairs.len() + 4 + 12 * honest.result.entries.len() + 4;
    assert_eq!(&payload[vo_at..vo_at + vo.len()], vo.as_slice());
    let (head, tail) = (&payload[..vo_at - 4], &payload[vo_at + vo.len()..]);

    for cut in 1..=trailer {
        let short = &vo[..vo.len() - cut];
        let mut body = head.to_vec();
        body.extend_from_slice(&(short.len() as u32).to_le_bytes());
        body.extend_from_slice(short);
        body.extend_from_slice(tail);
        let mut framed = wire::encode_frame_header(wire::kind::REPLY_OK, body.len())
            .unwrap()
            .to_vec();
        framed.extend_from_slice(&body);
        let (kind, payload) = wire::split_frame(&framed).unwrap();
        assert!(
            wire::decode_reply_payload(kind, payload).is_err(),
            "VO cut {cut} bytes into the trailer still decoded"
        );
    }

    for at in vo.len() - trailer..vo.len() {
        let mut flipped = vo.clone();
        flipped[at] ^= 0x01;
        let Ok(decoded) = wire::decode(&flipped) else {
            continue;
        };
        let mut tampered = honest.clone();
        tampered.vo = decoded;
        assert!(
            verify::verify(&publication.verifier_params, &query, 10, &tampered).is_err(),
            "trailer byte {at} flipped yet the reply verified"
        );
    }
}

// ---- the manifest catalogue, with typed verdicts ---------------------------

/// `publication` republished with term `t`'s list edited
/// ([`older_index`]): the same collection, configuration, `m`, `n` and
/// key.
fn older_publication(
    publication: &Publication,
    corpus: &authsearch_corpus::Corpus,
    t: u32,
) -> Publication {
    let index = older_index(publication.auth.index(), t).expect("list lacks some document");
    DataOwner::with_cached_key(TEST_KEY_BITS).publish_index(
        index,
        *publication.auth.config(),
        corpus,
    )
}

/// The other mechanism of the same query algorithm (TRA or TNRA).
fn other_tree_type(mechanism: Mechanism) -> Mechanism {
    *Mechanism::ALL
        .iter()
        .find(|&&m| m.is_tra() == mechanism.is_tra() && m != mechanism)
        .unwrap()
}

/// The first sampled query whose lists all fit one chain block of
/// either tree type and one of whose terms has a dictionary sibling
/// outside the query — so every manifest cell applies.
fn manifest_query(mode: QueryMode, publication: &Publication) -> Query {
    let index = publication.auth.index();
    let m = index.num_terms();
    let capacity = AuthConfig::new(publication.auth.config().mechanism).chain_capacity();
    let terms = match mode {
        QueryMode::Disjunctive => 3,
        QueryMode::Conjunctive => 2,
    };
    (0..64)
        .map(|seed| {
            let ids = authsearch_corpus::workload::synthetic(m, 1, terms, seed).remove(0);
            Query::from_term_ids(index, &ids)
        })
        .find(|query| {
            query
                .terms
                .iter()
                .all(|qt| index.list(qt.term).len() <= capacity)
                && query.terms.iter().any(|qt| {
                    let s = qt.term ^ 1;
                    (s as usize) < m && query.terms.iter().all(|o| o.term != s)
                })
        })
        .expect("some sampled query admits every manifest attack")
}

/// Every attack on the one signed manifest is rejected with
/// `VerifyError::ManifestSignature`, under every mechanism × disjunctive
/// / conjunctive × in-process / over the wire: a forged signature, the
/// manifest of an older publication with the same `m` and `n`, the
/// mechanism field swapped, a dictionary leaf shifted by one, and a term
/// root taken from another publication.
#[test]
fn manifest_attacks_rejected_with_typed_verdicts() {
    for mechanism in Mechanism::ALL {
        let (publication, corpus) = publish(mechanism);
        for mode in [QueryMode::Disjunctive, QueryMode::Conjunctive] {
            let query = manifest_query(mode, &publication);
            let honest = serve_in(mode, &publication, &query, &corpus);
            let older = older_publication(&publication, &corpus, query.terms[0].term);
            let other = other_tree_type(mechanism);
            let mut other_params = publication.verifier_params.clone();
            other_params.mechanism = other;
            let mut forged = honest.clone();
            assert!(Attack::ForgeManifestSignature.apply(&mut forged));
            let m = publication.auth.index().num_terms();
            let cases: Vec<(
                &str,
                Option<QueryResponse>,
                &authsearch_core::VerifierParams,
            )> = vec![
                (
                    "forged signature",
                    Some(forged),
                    &publication.verifier_params,
                ),
                (
                    "manifest of an older publication",
                    stale_manifest_response(&honest, &older.auth),
                    &publication.verifier_params,
                ),
                (
                    "term root from an older publication",
                    foreign_term_response(&honest, &serve_in(mode, &older, &query, &corpus), 0),
                    &publication.verifier_params,
                ),
                (
                    "mechanism field swapped",
                    mechanism_swapped_response(&honest, other),
                    &other_params,
                ),
                (
                    "dictionary leaf shifted by one",
                    shifted_dict_leaf_response(&query, m, |q| {
                        serve_in(mode, &publication, q, &corpus)
                    }),
                    &publication.verifier_params,
                ),
            ];
            for path in [Path::InProcess, Path::Wire] {
                let delivered = deliver(path, &query, honest.clone());
                verify_in(mode, &publication, &query, &delivered).unwrap_or_else(|e| {
                    panic!(
                        "{} {mode:?} {path:?}: honest reply rejected: {e}",
                        mechanism.name()
                    )
                });
                for (name, tampered, params) in &cases {
                    let tampered = tampered.clone().unwrap_or_else(|| {
                        panic!("{} {mode:?}: '{name}' not applicable", mechanism.name())
                    });
                    let delivered = deliver(path, &query, tampered);
                    let outcome = verify_with(mode, params, &query, &delivered);
                    assert!(
                        Expect::Manifest.holds(&outcome),
                        "{} {mode:?} {path:?}: '{name}' gave {outcome:?}",
                        mechanism.name()
                    );
                }
            }
        }
    }
}

/// An interior node presented as a leaf, in each tree type a mechanism's
/// replies prove from (term-MHT or chain-MHT block, document-MHT,
/// document table, dictionary), is rejected with
/// `VerifyError::ManifestSignature`, in-process and over the wire.
/// Buddy inclusion is off, so prefixes and document reveals end
/// mid-group and leave single unrevealed leaves in the proofs.
#[test]
fn interior_node_as_leaf_rejected_in_every_tree() {
    for mechanism in Mechanism::ALL {
        let corpus = SyntheticConfig::tiny(200, 99).generate();
        let publication = DataOwner::with_cached_key(TEST_KEY_BITS).publish(
            &corpus,
            AuthConfig {
                key_bits: TEST_KEY_BITS,
                buddy: false,
                ..AuthConfig::new(mechanism)
            },
        );
        let trees: Vec<Tree> = Tree::ALL
            .into_iter()
            .filter(|t| t.in_replies_of(mechanism))
            .collect();
        let m = publication.auth.index().num_terms();
        let (query, cases) = (0..64)
            .find_map(|seed| {
                let ids = authsearch_corpus::workload::synthetic(m, 1, 3, seed).remove(0);
                let query = Query::from_term_ids(publication.auth.index(), &ids);
                let honest = publication.auth.query(&query, 10, &corpus);
                let cases: Option<Vec<(Tree, QueryResponse)>> = trees
                    .iter()
                    .map(|&tree| {
                        interior_as_leaf_response(&honest, &publication.auth, tree)
                            .map(|r| (tree, r))
                    })
                    .collect();
                Some((query, cases?))
            })
            .expect("some sampled query admits the attack in every tree");
        for path in [Path::InProcess, Path::Wire] {
            for (tree, tampered) in &cases {
                let delivered = deliver(path, &query, tampered.clone());
                let outcome = verify::verify(&publication.verifier_params, &query, 10, &delivered);
                assert!(
                    Expect::Manifest.holds(&outcome),
                    "{} {path:?}: interior node as a {tree:?} leaf gave {outcome:?}",
                    mechanism.name()
                );
            }
        }
    }
}
