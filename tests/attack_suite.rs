//! Threat-model test suite (§3.1): every simulated attack by a
//! compromised search engine must be rejected by the verifier, under
//! every mechanism it applies to. A verifier that accepts any of these
//! responses would defeat the entire construction, so these tests are the
//! security contract of the library.

use authsearch_core::attacks::{
    absent_through_gap_response, doc_beyond_table_response, foreign_term_response,
    interior_as_leaf_response, mechanism_swapped_response, older_index, rebuilt_response,
    shifted_dict_leaf_response, truncated_prefix_response, Attack, Tree,
};
use authsearch_core::toy::{toy_contents, toy_index, toy_query};
use authsearch_core::vo::{PrefixData, VerificationObject};
use authsearch_core::{
    verify, wire, AuthConfig, DataOwner, Mechanism, Publication, Query, QueryMode, QueryResponse,
    VerifierParams, VerifyError,
};
use authsearch_corpus::{CorpusBuilder, SyntheticConfig};
use authsearch_crypto::keys::TEST_KEY_BITS;

fn publish(mechanism: Mechanism) -> (Publication, authsearch_corpus::Corpus) {
    let corpus = SyntheticConfig::tiny(200, 99).generate();
    let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
    let config = AuthConfig::new(mechanism);
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
        let honest = publication.auth.query(&query, 10, &corpus).unwrap();
        // The honest response must verify (otherwise the attacks below
        // prove nothing).
        verify::verify(&publication.verifier_params, &query, 10, &honest)
            .unwrap_or_else(|e| panic!("{}: honest response rejected: {e}", mechanism.name()));

        for attack in Attack::COMMON {
            let mut tampered = honest.clone();
            if !attack.apply(&mut tampered) {
                continue; // not applicable under this mechanism
            }
            assert_one_encoding(&tampered.vo);
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
        let honest = publication.auth.query(&query, 10, &corpus).unwrap();

        for attack in Attack::TRA_ONLY {
            let mut tampered = honest.clone();
            assert!(
                attack.apply(&mut tampered),
                "{}: attack '{}' not applicable",
                mechanism.name(),
                attack.name()
            );
            assert_one_encoding(&tampered.vo);
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
        let config = AuthConfig::new(mechanism);
        let publication = owner.publish_index(toy_index(), config, &toy_contents());
        let honest = publication
            .auth
            .query(&toy_query(), 2, &toy_contents())
            .unwrap();
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
    let config = AuthConfig::new(mechanism);
    let publication = owner.publish(&corpus, config);
    let query = Query::from_text(&corpus, publication.auth.index(), "night keeper")
        .unwrap()
        .with_mode(QueryMode::Conjunctive);
    assert_eq!(query.terms().len(), 2);
    (publication, corpus, query)
}

/// The conjunctive security contract: every applicable attack from the
/// whole catalogue — the original eleven plus the four conjunctive/
/// phrase variants — is rejected by [`verify::verify`]
/// under every mechanism, and the honest response verifies first.
#[test]
fn every_conjunctive_attack_rejected_under_every_mechanism() {
    for mechanism in Mechanism::ALL {
        let (publication, corpus, query) = conjunctive_fixture(mechanism);
        let honest = publication.auth.query(&query, 2, &corpus).unwrap();
        assert_eq!(
            honest.result.entries.len(),
            2,
            "{}: fixture must yield a full top-2 intersection",
            mechanism.name()
        );
        verify::verify(&publication.verifier_params, &query, 2, &honest).unwrap_or_else(|e| {
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
            let outcome = verify::verify(&publication.verifier_params, &query, 2, &tampered);
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
        let honest = publication.auth.query(&query, 2, &corpus).unwrap();
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
        let query = Query::from_term_ids(index, &pick).with_mode(QueryMode::Conjunctive);
        let honest = publication.auth.query(&query, 10, &corpus).unwrap();
        verify::verify(&publication.verifier_params, &query, 10, &honest)
            .unwrap_or_else(|e| panic!("{}: honest rejected: {e}", mechanism.name()));
        let tampered = truncated_prefix_response(&publication.auth, &query, 10, &corpus)
            .unwrap_or_else(|| panic!("{}: fixture lists too short", mechanism.name()));
        let outcome = verify::verify(&publication.verifier_params, &query, 10, &tampered);
        assert!(
            matches!(outcome, Err(VerifyError::ConjunctIncomplete { .. })),
            "{}: incomplete conjunct not typed correctly ({outcome:?})",
            mechanism.name()
        );
    }
}

/// Entries one buddy group spans in a term list (1 without buddies).
fn buddy_pad(publication: &Publication) -> usize {
    let config = publication.auth.config();
    if config.buddy {
        authsearch_core::buddy::buddy_group_size(config.term_leaf_bytes(), 16)
    } else {
        1
    }
}

/// A conjunctive query whose honest TRA reply stopped early, with room
/// for every early-stop cell: the anchor prefix is longer than one
/// buddy group, every other list holds a second entry, and some proved
/// document is outside the intersection. Returns the anchor's index.
fn early_stop_query(
    publication: &Publication,
    corpus: &authsearch_corpus::Corpus,
) -> (Query, QueryResponse, usize) {
    let index = publication.auth.index();
    let pad = buddy_pad(publication);
    let mut common: Vec<u32> = (0..index.num_terms() as u32).collect();
    common.sort_by_key(|&t| (std::cmp::Reverse(index.ft(t)), t));
    common.truncate(24);
    let member = |d: u32, query: &Query| {
        query
            .terms()
            .iter()
            .all(|qt| index.list(qt.term).entries().iter().any(|e| e.doc == d))
    };
    (0..common.len())
        .flat_map(|a| (a + 1..common.len()).map(move |b| (a, b)))
        .find_map(|(a, b)| {
            let mut terms = [common[a], common[b]];
            terms.sort_unstable();
            let query = Query::from_term_ids(index, &terms).with_mode(QueryMode::Conjunctive);
            let honest = publication.auth.query(&query, 10, corpus).unwrap();
            let fts: Vec<u32> = honest.vo.terms.iter().map(|tv| tv.ft).collect();
            let anchor = (0..fts.len()).min_by_key(|&i| fts[i]).unwrap();
            let revealed = honest.vo.terms[anchor].prefix.len();
            let fits = revealed > pad
                && revealed < fts[anchor] as usize
                && fts.iter().all(|&ft| ft >= 2)
                && !honest.result.entries.is_empty()
                && honest.vo.docs.iter().any(|dv| !member(dv.doc, &query));
            fits.then_some((query, honest, anchor))
        })
        .expect("some pair of common terms stops early")
}

/// The verdict an early-stop cell must produce.
#[derive(Debug)]
enum Verdict {
    Exactly(VerifyError),
    ResultMismatch,
}

/// The early-stop reveal of a conjunctive TRA reply, cell by cell, on
/// TRA-MHT and TRA-CMHT × in-process / over the wire: the honest reply
/// verifies, and each way of under-revealing or misreporting it is
/// rejected with its exact `VerifyError`.
#[test]
fn early_stopped_conjunctive_reveal_rejected_with_typed_verdicts() {
    for mechanism in [Mechanism::TraMht, Mechanism::TraCmht] {
        let (publication, corpus) = publish(mechanism);
        let auth = &publication.auth;
        let (query, honest, anchor) = early_stop_query(&publication, &corpus);
        let terms: Vec<u32> = query.terms().iter().map(|qt| qt.term).collect();
        let other = usize::from(anchor == 0);
        let head = match &honest.vo.terms[other].prefix {
            PrefixData::DocIds(ids) => ids[0],
            PrefixData::Entries(_) => unreachable!("TRA prefixes are doc ids"),
        };
        let proved: Vec<u32> = honest.vo.docs.iter().map(|dv| dv.doc).collect();
        let rebuilt = |edit: &dyn Fn(&mut Vec<usize>, &mut Vec<u32>)| {
            let (mut lens, mut docs) = (honest.entries_read.clone(), proved.clone());
            edit(&mut lens, &mut docs);
            rebuilt_response(auth, &query, &honest, lens, docs, &corpus)
        };
        let cut_anchor = rebuilt(&|lens, _| {
            // One buddy group (one entry without buddies) short: the
            // front is no longer revealed.
            lens[anchor] = honest.vo.terms[anchor].prefix.len() - buddy_pad(&publication);
        });
        let no_head = rebuilt(&|lens, _| lens[other] = 0);
        let no_head_proof = rebuilt(&|_, docs| docs.retain(|&d| d != head));
        let mut swapped_head = honest.clone();
        if let PrefixData::DocIds(ids) = &mut swapped_head.vo.terms[other].prefix {
            ids[0] = auth.index().list(terms[other]).entries()[1].doc;
        }
        let mut non_member = honest.clone();
        let outsider = proved
            .iter()
            .copied()
            .find(|&d| {
                !terms
                    .iter()
                    .all(|&t| auth.index().list(t).entries().iter().any(|e| e.doc == d))
            })
            .unwrap();
        let last = non_member.result.entries.last_mut().unwrap();
        let dropped = std::mem::replace(&mut last.doc, outsider);
        // The outsider arrives with its real content, so its held
        // digest matches.
        for (d, bytes) in &mut non_member.contents {
            if *d == dropped {
                *d = outsider;
                *bytes = corpus.content_bytes(outsider);
            }
        }
        let mut member_dropped = honest.clone();
        assert!(Attack::WrongIntersection.apply(&mut member_dropped));

        let cells = [
            (
                "anchor prefix cut before the stop",
                cut_anchor,
                Verdict::Exactly(VerifyError::ConjunctIncomplete {
                    term: terms[anchor],
                }),
            ),
            (
                "head withheld",
                no_head,
                Verdict::Exactly(VerifyError::ConjunctIncomplete { term: terms[other] }),
            ),
            (
                "head's document proof dropped",
                no_head_proof,
                Verdict::Exactly(VerifyError::MissingDocProof { doc: head }),
            ),
            (
                "head swapped for a lower entry",
                swapped_head,
                Verdict::Exactly(VerifyError::DictionaryRoot),
            ),
            ("non-member ranked", non_member, Verdict::ResultMismatch),
            ("member dropped", member_dropped, Verdict::ResultMismatch),
        ];
        for path in [Path::InProcess, Path::Wire] {
            let delivered = deliver(path, &query, honest.clone());
            verify::verify(&publication.verifier_params, &query, 10, &delivered).unwrap_or_else(
                |e| {
                    panic!(
                        "{} {path:?}: honest early-stopped reply rejected: {e}",
                        mechanism.name()
                    )
                },
            );
            for (name, tampered, verdict) in &cells {
                let delivered = deliver(path, &query, tampered.clone());
                let outcome = verify::verify(&publication.verifier_params, &query, 10, &delivered);
                let holds = match verdict {
                    Verdict::Exactly(want) => outcome.as_ref().err() == Some(want),
                    Verdict::ResultMismatch => {
                        matches!(outcome, Err(VerifyError::ResultMismatch(_)))
                    }
                };
                assert!(
                    holds,
                    "{} {path:?}: '{name}' gave {outcome:?}, want {verdict:?}",
                    mechanism.name()
                );
            }
        }
    }
}

/// A narrowed intersection with every proof intact reaches the
/// intersection check: exactly `ResultMismatch`, under every mechanism,
/// in-process and over the wire.
#[test]
fn wrong_intersection_is_a_result_mismatch_under_every_mechanism() {
    for mechanism in Mechanism::ALL {
        let (publication, corpus, query) = conjunctive_fixture(mechanism);
        let honest = publication.auth.query(&query, 2, &corpus).unwrap();
        let mut tampered = honest.clone();
        assert!(Attack::WrongIntersection.apply(&mut tampered));
        for path in [Path::InProcess, Path::Wire] {
            let delivered = deliver(path, &query, tampered.clone());
            let outcome = verify::verify(&publication.verifier_params, &query, 2, &delivered);
            assert!(
                matches!(outcome, Err(VerifyError::ResultMismatch(_))),
                "{} {path:?}: gave {outcome:?}",
                mechanism.name()
            );
        }
    }
}

/// Mode confusion on the worked example, where the conjunctive ([6]) and
/// disjunctive ([6, 5]) answers provably differ: neither VO may pass the
/// other model's verifier, in either direction, under any mechanism.
#[test]
fn conjunctive_mode_confusion_rejected() {
    for mechanism in Mechanism::ALL {
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let config = AuthConfig::new(mechanism);
        let publication = owner.publish_index(toy_index(), config, &toy_contents());
        let conjunctive = toy_query().with_mode(QueryMode::Conjunctive);
        let conj = publication
            .auth
            .query(&conjunctive, 2, &toy_contents())
            .unwrap();
        let disj = publication
            .auth
            .query(&toy_query(), 2, &toy_contents())
            .unwrap();
        assert_ne!(conj.result, disj.result, "{}", mechanism.name());
        assert!(
            verify::verify(&publication.verifier_params, &toy_query(), 2, &conj).is_err(),
            "{}: conjunctive VO accepted by the disjunctive verifier",
            mechanism.name()
        );
        assert!(
            verify::verify(&publication.verifier_params, &conjunctive, 2, &disj).is_err(),
            "{}: disjunctive VO accepted by the conjunctive verifier",
            mechanism.name()
        );
    }
}

/// A client holding another owner's key, and that owner's publication:
/// this publication does not open under the key, and this engine's
/// reply does not verify against the other publication.
fn assert_foreign_owner_rejects(
    publication: &Publication,
    query: &Query,
    r: usize,
    honest: &QueryResponse,
) {
    let other = DataOwner::with_cached_key(768);
    let params = &publication.verifier_params;
    let key = other.key().public_key().clone();
    assert_eq!(
        VerifierParams::open(key, params.layout(), &params.publication_bytes()).err(),
        Some(VerifyError::ManifestSignature)
    );
    let corpus = SyntheticConfig::tiny(150, 98).generate();
    let theirs = other
        .publish(&corpus, *publication.auth.config())
        .verifier_params;
    assert!(verify::verify(&theirs, query, r, honest).is_err());
}

/// Conjunctive wrong-key / wrong-query sanity, mirroring the disjunctive
/// suite: foreign keys and replayed VOs for other queries are rejected.
#[test]
fn conjunctive_wrong_key_and_query_rejected() {
    let (publication, corpus, query) = conjunctive_fixture(Mechanism::TnraCmht);
    let honest = publication.auth.query(&query, 2, &corpus).unwrap();
    assert_foreign_owner_rejects(&publication, &query, 2, &honest);

    let other = Query::from_text(&corpus, publication.auth.index(), "town house")
        .unwrap()
        .with_mode(QueryMode::Conjunctive);
    assert!(matches!(
        verify::verify(&publication.verifier_params, &other, 2, &honest),
        Err(VerifyError::QueryShapeMismatch(_))
    ));
}

#[test]
fn wrong_key_rejected() {
    let (publication, corpus) = publish(Mechanism::TnraCmht);
    let query = sample_query(&publication, 7);
    let honest = publication.auth.query(&query, 10, &corpus).unwrap();
    // A client configured with a different owner's key must reject.
    assert_foreign_owner_rejects(&publication, &query, 10, &honest);
}

#[test]
fn vo_for_different_query_rejected() {
    // Replaying a (legitimate) response to a different query must fail:
    // the term binding in the signatures catches it.
    let (publication, corpus) = publish(Mechanism::TnraMht);
    let query_a = sample_query(&publication, 8);
    let query_b = sample_query(&publication, 9);
    assert_ne!(
        query_a.terms()[0].term,
        query_b.terms()[0].term,
        "seeds must give distinct queries"
    );
    let response_a = publication.auth.query(&query_a, 10, &corpus).unwrap();
    let outcome = verify::verify(&publication.verifier_params, &query_b, 10, &response_a);
    assert!(matches!(outcome, Err(VerifyError::QueryShapeMismatch(_))));
}

#[test]
fn wrong_r_rejected() {
    // Asking for 10 but verifying as if 5 were requested: the replay
    // produces a different result length.
    let (publication, corpus) = publish(Mechanism::TnraCmht);
    let query = sample_query(&publication, 10);
    let response = publication.auth.query(&query, 10, &corpus).unwrap();
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
    let response = pub_tnra.auth.query(&query, 10, &corpus).unwrap();
    let (pub_tra, _) = publish(Mechanism::TraMht);
    assert!(matches!(
        verify::verify(&pub_tra.verifier_params, &query, 10, &response),
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

/// A VO the wire can carry has exactly one encoding: it decodes back to
/// itself, and encodes back to the same bytes.
fn assert_one_encoding(vo: &VerificationObject) {
    if let Ok(bytes) = wire::encode(vo) {
        let back = wire::decode(&bytes).expect("an encoded VO decodes");
        assert_eq!(&back, vo);
        assert_eq!(wire::encode(&back).unwrap(), bytes);
    }
}

/// Send `response` down `path`: unchanged, or encoded as a full reply
/// frame and decoded again, exactly as a client receives it. The frame
/// must be the one encoding of what it decodes to.
fn deliver(path: Path, query: &Query, response: QueryResponse) -> QueryResponse {
    match path {
        Path::InProcess => response,
        Path::Wire => {
            let pairs: Vec<(u32, u32)> =
                query.terms().iter().map(|qt| (qt.term, qt.f_qt)).collect();
            let frame = wire::encode_ok_reply(&pairs, &response).expect("tampered reply encodes");
            let (kind, payload) = wire::split_frame(&frame).expect("frame header");
            let delivered =
                match wire::decode_reply_payload(kind, payload).expect("tampered reply decodes") {
                    wire::Reply::Ok { response, .. } => *response,
                    other => panic!("expected an OK reply, got {other:?}"),
                };
            assert_eq!(delivered.vo, response.vo);
            assert_eq!(wire::encode_ok_reply(&pairs, &delivered).unwrap(), frame);
            delivered
        }
    }
}

/// The first sampled query whose honest response every document-table
/// attack, and the tampering of a revealed weight, applies to (so no
/// cell of the matrix is skipped).
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
            let query = Query::from_term_ids(publication.auth.index(), &ids).with_mode(mode);
            let honest = publication.auth.query(&query, 10, corpus).unwrap();
            (query, honest)
        })
        .find(|(_, honest)| {
            Attack::DOC_TABLE
                .iter()
                .chain(&[Attack::AlterDocFrequency, Attack::TamperContent])
                .all(|attack| attack.apply(&mut honest.clone()))
        })
        .expect("some sampled query admits every document-table attack")
}

/// The one document proof `tampered` changed, by position, and its doc
/// id after the change.
fn changed_proof(honest: &QueryResponse, tampered: &QueryResponse) -> u32 {
    let (_, after) = honest
        .vo
        .docs
        .iter()
        .zip(&tampered.vo.docs)
        .find(|(a, b)| a != b)
        .expect("one document proof changed");
    after.doc
}

/// Every attack on the held document table is rejected with its exact
/// `VerifyError`, on TRA-MHT and TRA-CMHT × disjunctive / conjunctive ×
/// in-process / over the wire: a proof relabeled with a neighbour's doc
/// id, or with a revealed weight changed, meets a held root it does not
/// reconstruct; a result document's content changed meets its held
/// digest; and a doc id past the collection names no held record.
#[test]
fn doc_table_attacks_rejected_with_typed_verdicts() {
    for mechanism in [Mechanism::TraMht, Mechanism::TraCmht] {
        let (publication, corpus) = publish(mechanism);
        for mode in [QueryMode::Disjunctive, QueryMode::Conjunctive] {
            let (query, honest) = doc_table_query(mode, &publication, &corpus);
            let mut cases: Vec<(String, QueryResponse, VerifyError)> = Vec::new();
            for attack in [Attack::ShiftDocId, Attack::AlterDocFrequency] {
                let mut tampered = honest.clone();
                assert!(attack.apply(&mut tampered));
                let doc = changed_proof(&honest, &tampered);
                let want = VerifyError::DocumentRoot { doc };
                cases.push((attack.name().to_string(), tampered, want));
            }
            let mut tampered = honest.clone();
            assert!(Attack::TamperContent.apply(&mut tampered));
            let doc = tampered.contents[0].0;
            let want = VerifyError::ContentDigest { doc };
            cases.push((Attack::TamperContent.name().into(), tampered, want));
            let n = publication.verifier_params.num_docs() as u32;
            cases.push((
                "doc id past the collection".into(),
                doc_beyond_table_response(&honest, &publication.auth).expect("document proofs"),
                VerifyError::UnknownDocument { doc: n },
            ));
            for path in [Path::InProcess, Path::Wire] {
                let delivered = deliver(path, &query, honest.clone());
                verify::verify(&publication.verifier_params, &query, 10, &delivered)
                    .unwrap_or_else(|e| {
                        panic!(
                            "{} {mode:?} {path:?}: honest reply rejected: {e}",
                            mechanism.name()
                        )
                    });
                for (name, tampered, want) in &cases {
                    let delivered = deliver(path, &query, tampered.clone());
                    let outcome =
                        verify::verify(&publication.verifier_params, &query, 10, &delivered);
                    assert_eq!(
                        outcome.as_ref().err(),
                        Some(want),
                        "{} {mode:?} {path:?}: '{name}'",
                        mechanism.name()
                    );
                }
            }
        }
    }
}

/// The document proofs are the replay's encounters, in order: a reply
/// whose proofs are reordered, padded with an honest proof of a document
/// the scan never met, or duplicated gets its exact `VerifyError`, on
/// TRA-MHT and TRA-CMHT × disjunctive / conjunctive × in-process / over
/// the wire.
#[test]
fn document_proofs_off_the_encounter_order_rejected_with_typed_verdicts() {
    for mechanism in [Mechanism::TraMht, Mechanism::TraCmht] {
        let (publication, corpus) = publish(mechanism);
        for mode in [QueryMode::Disjunctive, QueryMode::Conjunctive] {
            let (query, honest) = doc_table_query(mode, &publication, &corpus);
            let proved: Vec<u32> = honest.vo.docs.iter().map(|dv| dv.doc).collect();
            assert!(
                proved.len() >= 2,
                "{} {mode:?}: {proved:?}",
                mechanism.name()
            );
            let mut reordered = honest.clone();
            reordered.vo.docs.swap(0, 1);
            let stranger = (0..).find(|d| !proved.contains(d)).unwrap();
            let mut padded = proved.clone();
            padded.push(stranger);
            let lens = honest.entries_read.clone();
            let extra = rebuilt_response(&publication.auth, &query, &honest, lens, padded, &corpus);
            let mut duplicated = honest.clone();
            duplicated.vo.docs.push(honest.vo.docs[0].clone());
            let malformed = |why: String| VerifyError::MalformedProof(why);
            let cells = [
                (
                    "proofs reordered",
                    reordered,
                    malformed(format!(
                        "document proof 0 is for document {} where the replay met document {}",
                        proved[1], proved[0]
                    )),
                ),
                (
                    "an honest proof of a document never met",
                    extra,
                    malformed(format!(
                        "document proof {} is for document {stranger} where the replay met no document",
                        proved.len()
                    )),
                ),
                (
                    "a proof duplicated",
                    duplicated,
                    malformed(format!("duplicate document proof for {}", proved[0])),
                ),
            ];
            for path in [Path::InProcess, Path::Wire] {
                let delivered = deliver(path, &query, honest.clone());
                verify::verify(&publication.verifier_params, &query, 10, &delivered)
                    .unwrap_or_else(|e| panic!("{} {mode:?} {path:?}: {e}", mechanism.name()));
                for (name, tampered, want) in &cells {
                    let delivered = deliver(path, &query, tampered.clone());
                    let got = verify::verify(&publication.verifier_params, &query, 10, &delivered);
                    assert_eq!(
                        got.as_ref().err(),
                        Some(want),
                        "{} {mode:?} {path:?}: '{name}'",
                        mechanism.name()
                    );
                }
            }
        }
    }
}

/// The first sampled query whose honest response admits both key-order
/// mutations and the claimed absence through a gap.
fn doc_key_query(
    mode: QueryMode,
    publication: &Publication,
    corpus: &authsearch_corpus::Corpus,
) -> (Query, QueryResponse) {
    let m = publication.auth.index().num_terms();
    (0..64)
        .map(|seed| {
            let ids = authsearch_corpus::workload::synthetic(m, 1, 3, seed).remove(0);
            let query = Query::from_term_ids(publication.auth.index(), &ids).with_mode(mode);
            let honest = publication.auth.query(&query, 10, corpus).unwrap();
            (query, honest)
        })
        .find(|(_, honest)| {
            Attack::DOC_KEY
                .iter()
                .all(|attack| attack.apply(&mut honest.clone()))
                && absent_through_gap_response(honest, &publication.auth).is_some()
        })
        .expect("some sampled query admits every key-order attack")
}

/// The one document proof `tampered` changed, and the query term (by
/// index) whose revealed leaf it withholds, if any.
fn changed_doc(honest: &QueryResponse, tampered: &QueryResponse) -> (u32, Option<usize>) {
    let (before, after) = honest
        .vo
        .docs
        .iter()
        .zip(&tampered.vo.docs)
        .find(|(a, b)| a != b)
        .expect("one document proof changed");
    let hidden = before.revealed.iter().find_map(|leaf| {
        let gone = !after.revealed.iter().any(|l| l.pos == leaf.pos);
        let at = honest.vo.terms.iter().position(|tv| tv.term == leaf.term);
        at.filter(|_| gone)
    });
    (before.doc, hidden)
}

/// Every attack on the key order of document-MHT leaves gets its exact
/// `VerifyError`, on TRA-MHT and TRA-CMHT × disjunctive / conjunctive ×
/// in-process / over the wire: a bounding pair out of key order is a
/// malformed proof of its document; a forged `c_t` moves the document
/// root off the held one; a present query term claimed
/// absent through a non-adjacent pair leaves its weight unproven, which
/// the replay reports as insufficient (disjunctive) or as that
/// document's unproven term (conjunctive).
#[test]
fn doc_key_attacks_rejected_with_typed_verdicts() {
    for mechanism in [Mechanism::TraMht, Mechanism::TraCmht] {
        let (publication, corpus) = publish(mechanism);
        for mode in [QueryMode::Disjunctive, QueryMode::Conjunctive] {
            let (query, honest) = doc_key_query(mode, &publication, &corpus);
            let mut cases: Vec<(String, QueryResponse, VerifyError)> = Vec::new();
            for attack in Attack::DOC_KEY {
                let mut tampered = honest.clone();
                assert!(attack.apply(&mut tampered));
                let (doc, _) = changed_doc(&honest, &tampered);
                let want = match attack {
                    Attack::SwapBoundingPair => VerifyError::MalformedProof(format!(
                        "document {doc}: revealed leaves not strictly ordered"
                    )),
                    _ => VerifyError::DocumentRoot { doc },
                };
                cases.push((attack.name().into(), tampered, want));
            }
            let gap = absent_through_gap_response(&honest, &publication.auth).unwrap();
            let (doc, hidden) = changed_doc(&honest, &gap);
            let term = query.terms()[hidden.expect("a query-term leaf withheld")].term;
            let want = match mode {
                QueryMode::Disjunctive => VerifyError::InsufficientData(String::new()),
                QueryMode::Conjunctive => VerifyError::FrequencyUnproven { doc, term },
            };
            cases.push(("present term claimed absent".into(), gap, want));

            for path in [Path::InProcess, Path::Wire] {
                let delivered = deliver(path, &query, honest.clone());
                verify::verify(&publication.verifier_params, &query, 10, &delivered)
                    .unwrap_or_else(|e| panic!("{} {mode:?} {path:?}: {e}", mechanism.name()));
                for (name, tampered, want) in &cases {
                    let delivered = deliver(path, &query, tampered.clone());
                    let got = verify::verify(&publication.verifier_params, &query, 10, &delivered)
                        .expect_err(name);
                    let holds = match (&got, want) {
                        // The replay names the document whose weight it
                        // could not read.
                        (VerifyError::InsufficientData(why), VerifyError::InsufficientData(_)) => {
                            why.contains(&format!("doc {doc} "))
                        }
                        _ => &got == want,
                    };
                    assert!(
                        holds,
                        "{} {mode:?} {path:?}: '{name}' gave {got:?}, want {want:?}",
                        mechanism.name()
                    );
                }
            }
        }
    }
}

/// A forged copy of a result document's content, delivered ahead of the
/// real one, is rejected with `VerifyError::DuplicateContent` naming the
/// document, on TRA-MHT and TRA-CMHT × disjunctive / conjunctive ×
/// in-process / over the wire. Only one copy is checked against the
/// document's held digest; a caller that looks contents up by id (as
/// `phrase_filter` does) would read the other.
#[test]
fn duplicate_content_rejected_with_typed_verdict() {
    for mechanism in [Mechanism::TraMht, Mechanism::TraCmht] {
        let (publication, corpus) = publish(mechanism);
        for mode in [QueryMode::Disjunctive, QueryMode::Conjunctive] {
            let (query, honest) = doc_table_query(mode, &publication, &corpus);
            let doc = honest.contents.first().expect("a result document").0;
            let mut tampered = honest.clone();
            assert!(Attack::DuplicateContent.apply(&mut tampered));
            for path in [Path::InProcess, Path::Wire] {
                let delivered = deliver(path, &query, tampered.clone());
                assert_eq!(delivered.contents, tampered.contents, "{path:?}");
                let outcome = verify::verify(&publication.verifier_params, &query, 10, &delivered);
                assert_eq!(
                    outcome,
                    Err(VerifyError::DuplicateContent { doc }),
                    "{} {mode:?} {path:?}",
                    mechanism.name()
                );
            }
        }
    }
}

/// A reply that reports every score as NaN (`Attack::NanScore`) is
/// rejected with `VerifyError::ResultMismatch` on all four mechanisms ×
/// disjunctive / conjunctive × in-process / over the wire: a NaN is
/// within no tolerance of the replayed score, and the client never hands
/// it out as verified.
#[test]
fn nan_reported_score_is_rejected() {
    for mechanism in Mechanism::ALL {
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let publication =
            owner.publish_index(toy_index(), AuthConfig::new(mechanism), &toy_contents());
        for mode in [QueryMode::Disjunctive, QueryMode::Conjunctive] {
            let query = toy_query().with_mode(mode);
            let honest = publication.auth.query(&query, 2, &toy_contents()).unwrap();
            let verified = verify::verify(&publication.verifier_params, &query, 2, &honest)
                .unwrap_or_else(|e| {
                    panic!("{} {mode:?}: honest reply rejected: {e}", mechanism.name())
                });
            assert_eq!(verified.result, honest.result);
            let mut tampered = honest.clone();
            assert!(Attack::NanScore.apply(&mut tampered));
            for path in [Path::InProcess, Path::Wire] {
                let delivered = deliver(path, &query, tampered.clone());
                assert!(delivered.result.entries.iter().all(|e| e.score.is_nan()));
                let outcome = verify::verify(&publication.verifier_params, &query, 2, &delivered);
                assert!(
                    matches!(outcome, Err(VerifyError::ResultMismatch(_))),
                    "{} {mode:?} {path:?}: {outcome:?}",
                    mechanism.name()
                );
            }
        }
    }
}

/// Send publication `bytes` down `path`: unchanged, or as the payload of
/// a publication reply frame, decoded again as a client receives it.
fn deliver_publication(path: Path, bytes: &[u8]) -> Vec<u8> {
    match path {
        Path::InProcess => bytes.to_vec(),
        Path::Wire => {
            let mut frame = wire::encode_frame_header(wire::kind::REPLY_PUBLICATION, bytes.len())
                .unwrap()
                .to_vec();
            frame.extend_from_slice(bytes);
            let (kind, payload) = wire::split_frame(&frame).expect("frame header");
            match wire::decode_reply_payload(kind, payload).expect("a publication reply") {
                wire::Reply::Publication { bytes } => bytes,
                other => panic!("expected a publication reply, got {other:?}"),
            }
        }
    }
}

/// Take publication `bytes` in under the owner's key, as `params` did.
fn open(params: &VerifierParams, bytes: &[u8]) -> Result<VerifierParams, VerifyError> {
    VerifierParams::open(params.public_key().clone(), params.layout(), bytes)
}

/// Fuzz the publication's trailer of document records (TRA), in-process
/// and over the wire: every cut of the publication is malformed, one
/// record short and one record over by exact message; two records
/// swapped, or a flipped byte anywhere in the records, fold to another
/// table root; a flipped byte of the signature fails the signature.
#[test]
fn truncated_or_flipped_doc_table_trailer_rejected() {
    let (publication, _) = publish(Mechanism::TraMht);
    let params = &publication.verifier_params;
    let bytes = params.publication_bytes();
    let n = params.num_docs();
    let records = 32 * n;
    let signature = params.public_key().signature_len();
    assert_eq!(bytes.len(), 55 + 2 + signature + records);
    let (head, trailer) = bytes.split_at(bytes.len() - records);
    let mut swapped = head.to_vec();
    swapped.extend_from_slice(&trailer[32..64]);
    swapped.extend_from_slice(&trailer[..32]);
    swapped.extend_from_slice(&trailer[64..]);
    let mut extra = bytes.clone();
    extra.extend_from_slice(&trailer[..32]);
    let short = &bytes[..bytes.len() - 32];
    let cells: [(&str, &[u8], VerifyError); 3] = [
        (
            "one record short",
            short,
            VerifyError::MalformedPublication(format!(
                "document record digest count {} exceeds what the remaining {} bytes can hold",
                2 * n,
                records - 32
            )),
        ),
        (
            "one record over",
            &extra,
            VerifyError::MalformedPublication("trailing bytes".into()),
        ),
        ("two records swapped", &swapped, VerifyError::DocTableRoot),
    ];
    for path in [Path::InProcess, Path::Wire] {
        let honest = open(params, &deliver_publication(path, &bytes)).expect("honest publication");
        assert_eq!(honest.publication_bytes(), bytes);
        for (name, forged, want) in &cells {
            let got = open(params, &deliver_publication(path, forged)).err();
            assert_eq!(got.as_ref(), Some(want), "{path:?}: '{name}'");
        }
        for cut in 0..bytes.len() {
            let got = open(params, &deliver_publication(path, &bytes[..cut])).err();
            assert!(
                matches!(got, Some(VerifyError::MalformedPublication(_))),
                "{path:?}: cut at {cut} gave {got:?}"
            );
        }
    }
    for at in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x01;
        let got = open(params, &flipped).err();
        let want = match at {
            // The manifest and the signature's length: a tag or
            // mechanism that no longer parses, a size that no longer
            // matches the bytes, or a manifest the signature does not
            // sign.
            0..57 => None,
            _ if at < bytes.len() - records => Some(VerifyError::ManifestSignature),
            _ => Some(VerifyError::DocTableRoot),
        };
        match want {
            Some(want) => assert_eq!(got, Some(want), "byte {at}"),
            None => assert!(
                got.is_some(),
                "byte {at} flipped yet the publication opened"
            ),
        }
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
            Query::from_term_ids(index, &ids).with_mode(mode)
        })
        .find(|query| {
            query
                .terms()
                .iter()
                .all(|qt| index.list(qt.term).len() <= capacity)
                && query.terms().iter().any(|qt| {
                    let s = qt.term ^ 1;
                    (s as usize) < m && query.terms().iter().all(|o| o.term != s)
                })
        })
        .expect("some sampled query admits every manifest attack")
}

/// Every attack on the held manifest is rejected with its exact
/// `VerifyError`, under every mechanism × disjunctive / conjunctive ×
/// in-process / over the wire: a publication whose signature is flipped
/// does not open; a term root taken from an older publication with the
/// same `m` and `n`, or a dictionary leaf shifted by one, reconstructs
/// another dictionary root than the held one; and a reply relabeled as
/// the other mechanism of its query algorithm is not the held
/// manifest's mechanism.
#[test]
fn manifest_attacks_rejected_with_typed_verdicts() {
    for mechanism in Mechanism::ALL {
        let (publication, corpus) = publish(mechanism);
        let params = &publication.verifier_params;
        let mut flipped = params.publication_bytes();
        flipped[55 + 2] ^= 0x40;
        for path in [Path::InProcess, Path::Wire] {
            assert_eq!(
                open(params, &deliver_publication(path, &flipped)).err(),
                Some(VerifyError::ManifestSignature),
                "{} {path:?}: flipped publication signature",
                mechanism.name()
            );
        }
        for mode in [QueryMode::Disjunctive, QueryMode::Conjunctive] {
            let query = manifest_query(mode, &publication);
            let honest = publication.auth.query(&query, 10, &corpus).unwrap();
            let older = older_publication(&publication, &corpus, query.terms()[0].term);
            let other = other_tree_type(mechanism);
            let m = publication.auth.index().num_terms();
            let cases: Vec<(&str, Option<QueryResponse>, VerifyError)> = vec![
                (
                    "term root from an older publication",
                    foreign_term_response(
                        &honest,
                        &older.auth.query(&query, 10, &corpus).unwrap(),
                        0,
                    ),
                    VerifyError::DictionaryRoot,
                ),
                (
                    "mechanism field swapped",
                    mechanism_swapped_response(&honest, other),
                    VerifyError::QueryShapeMismatch(format!(
                        "mechanism {} but owner deployed {}",
                        other.name(),
                        mechanism.name()
                    )),
                ),
                (
                    "dictionary leaf shifted by one",
                    shifted_dict_leaf_response(&query, m, |q| {
                        publication.auth.query(q, 10, &corpus).unwrap()
                    }),
                    VerifyError::DictionaryRoot,
                ),
            ];
            for path in [Path::InProcess, Path::Wire] {
                let delivered = deliver(path, &query, honest.clone());
                verify::verify(params, &query, 10, &delivered).unwrap_or_else(|e| {
                    panic!(
                        "{} {mode:?} {path:?}: honest reply rejected: {e}",
                        mechanism.name()
                    )
                });
                for (name, tampered, want) in &cases {
                    let tampered = tampered.clone().unwrap_or_else(|| {
                        panic!("{} {mode:?}: '{name}' not applicable", mechanism.name())
                    });
                    let delivered = deliver(path, &query, tampered);
                    let outcome = verify::verify(params, &query, 10, &delivered);
                    assert_eq!(
                        outcome.as_ref().err(),
                        Some(want),
                        "{} {mode:?} {path:?}: '{name}'",
                        mechanism.name()
                    );
                }
            }
        }
    }
}

/// A whole reply of an **older** publication of the same collection by
/// the same owner — same `m` and `n`, one list edited
/// ([`older_index`]), asked with an `r` large enough that its result
/// differs from this publication's — is refused with
/// `VerifyError::DictionaryRoot`, under every mechanism, in-process and
/// over the wire: every proof in it is the owner's, but its dictionary
/// root is not the one the client holds.
#[test]
fn older_publication_reply_is_refused() {
    for mechanism in Mechanism::ALL {
        let (publication, corpus) = publish(mechanism);
        let index = publication.auth.index();
        // The longest list, so the document the edit moves into it
        // surfaces in a long enough result.
        let t = (0..index.num_terms() as u32)
            .filter(|&t| index.list(t).len() < index.num_docs())
            .max_by_key(|&t| (index.list(t).len(), t))
            .expect("a list lacks some document");
        let older = older_publication(&publication, &corpus, t);
        let query = Query::from_term_ids(index, &[t]);
        let r = index.num_docs();
        let current = publication.auth.query(&query, r, &corpus).unwrap();
        let stale = older.auth.query(&query, r, &corpus).unwrap();
        assert_ne!(stale.result, current.result, "{}", mechanism.name());
        verify::verify(&older.verifier_params, &query, r, &stale)
            .unwrap_or_else(|e| panic!("{}: the older reply is honest: {e}", mechanism.name()));
        for path in [Path::InProcess, Path::Wire] {
            let delivered = deliver(path, &query, stale.clone());
            assert_eq!(
                verify::verify(&publication.verifier_params, &query, r, &delivered),
                Err(VerifyError::DictionaryRoot),
                "{} {path:?}",
                mechanism.name()
            );
        }
    }
}

/// An interior node presented as a leaf, in each tree type a mechanism's
/// replies prove from (term-MHT or chain-MHT block, document-MHT,
/// dictionary), is rejected in-process and over the wire: in a term or
/// the dictionary tree with `VerifyError::DictionaryRoot`, in a
/// document-MHT with `VerifyError::DocumentRoot` naming the document.
/// Buddy inclusion is off, so prefixes and document reveals end
/// mid-group and leave single unrevealed leaves in the proofs.
#[test]
fn interior_node_as_leaf_rejected_in_every_tree() {
    for mechanism in Mechanism::ALL {
        let corpus = SyntheticConfig::tiny(200, 99).generate();
        let publication = DataOwner::with_cached_key(TEST_KEY_BITS).publish(
            &corpus,
            AuthConfig {
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
                let honest = publication.auth.query(&query, 10, &corpus).unwrap();
                let cases: Option<Vec<(Tree, QueryResponse, VerifyError)>> = trees
                    .iter()
                    .map(|&tree| {
                        let forged = interior_as_leaf_response(&honest, &publication.auth, tree)?;
                        let want = match tree {
                            Tree::DocMht => VerifyError::DocumentRoot {
                                doc: changed_proof(&honest, &forged),
                            },
                            _ => VerifyError::DictionaryRoot,
                        };
                        Some((tree, forged, want))
                    })
                    .collect();
                Some((query, cases?))
            })
            .expect("some sampled query admits the attack in every tree");
        for path in [Path::InProcess, Path::Wire] {
            for (tree, tampered, want) in &cases {
                let delivered = deliver(path, &query, tampered.clone());
                let outcome = verify::verify(&publication.verifier_params, &query, 10, &delivered);
                assert_eq!(
                    outcome.as_ref().err(),
                    Some(want),
                    "{} {path:?}: interior node as a {tree:?} leaf",
                    mechanism.name()
                );
            }
        }
    }
}
