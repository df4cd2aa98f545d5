//! Attack simulation: the threat model of §3.1.
//!
//! "The search engine may alter the document collection or the inverted
//! index, it may execute the query processing algorithm incorrectly, or
//! it may tamper with the search results." Each attack here mutates an
//! honest [`QueryResponse`] (or re-serves one from doctored processing
//! state) the way a compromised engine would, *including recomputing any
//! unsigned fields an intelligent attacker could fix up*. The attack
//! suite asserts that the verifier rejects every one of them.

use crate::auth::serve::QueryResponse;
use crate::auth::AuthenticatedIndex;
use crate::types::{ProcessingOutcome, Query, ResultEntry};
use crate::vo::PrefixData;
use authsearch_corpus::DocId;
use authsearch_crypto::Digest;

/// The catalogue of simulated attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// Incomplete result: silently drop the best-ranked document
    /// (the MicroPatent scenario: make a patent vanish).
    OmitTopResult,
    /// Altered ranking: swap ranks 1 and 2.
    SwapRanking,
    /// Altered ranking: report an inflated score for rank 1.
    InflateScore,
    /// Spurious result: inject a fabricated document at rank 1.
    InjectSpurious,
    /// Tamper with a frequency inside a TNRA list prefix.
    AlterPrefixWeight,
    /// Reorder two entries within a list prefix.
    ReorderPrefix,
    /// Flip a bit in a list signature.
    ForgeTermSignature,
    /// Lie about a list's f_t (shortening the claimed list).
    UnderstateListLength,
    /// TRA: tamper with a revealed document-MHT frequency.
    AlterDocFrequency,
    /// TRA: withhold the document proof of an encountered document.
    DropDocProof,
    /// TRA: substitute the content of a result document.
    TamperContent,
    /// Conjunctive: shorten a revealed list prefix, hiding the tail a
    /// complete intersection must account for (dropping a conjunct's
    /// evidence).
    DropConjunct,
    /// Conjunctive: report a silently narrowed intersection (drop the
    /// last member while keeping every proof intact).
    WrongIntersection,
    /// Conjunctive: smuggle a revealed-but-nonqualifying document into
    /// the reported intersection, with fabricated content.
    ExtraIntersectionDoc,
    /// Phrase (TRA): swap two adjacent words inside a delivered result
    /// document, breaking phrase order while preserving the word
    /// multiset — term frequencies are unchanged, so only the
    /// content-digest binding can catch it.
    PhraseOrderSwap,
    /// TRA: flip a bit in the document-table signature.
    ForgeDocTableSignature,
    /// TRA: drop the last digest of the document-table multi-proof.
    DropDocTableDigest,
    /// TRA: append one digest to the document-table multi-proof.
    ExtraDocTableDigest,
    /// TRA: relabel a non-result document proof with its neighbour's doc
    /// id, putting its leaf in the neighbour's slot of the document
    /// table (its sibling, so the multi-proof keeps its shape).
    ShiftDocId,
}

impl Attack {
    /// Attacks applicable to every mechanism.
    pub const COMMON: [Attack; 8] = [
        Attack::OmitTopResult,
        Attack::SwapRanking,
        Attack::InflateScore,
        Attack::InjectSpurious,
        Attack::AlterPrefixWeight,
        Attack::ReorderPrefix,
        Attack::ForgeTermSignature,
        Attack::UnderstateListLength,
    ];

    /// Attacks specific to the TRA mechanisms (document-MHTs).
    pub const TRA_ONLY: [Attack; 3] = [
        Attack::AlterDocFrequency,
        Attack::DropDocProof,
        Attack::TamperContent,
    ];

    /// Attacks on the TRA document-table proof; each applies to every
    /// TRA response with a non-result document proof whose sibling slot
    /// is free (see [`Attack::ShiftDocId`]).
    pub const DOC_TABLE: [Attack; 4] = [
        Attack::ForgeDocTableSignature,
        Attack::DropDocTableDigest,
        Attack::ExtraDocTableDigest,
        Attack::ShiftDocId,
    ];

    /// Attacks against the conjunctive / phrase query model
    /// ([`crate::types::QueryMode::Conjunctive`]). `PhraseOrderSwap`
    /// applies only to TRA responses (TNRA delivers no authenticated
    /// contents); the rest apply to every mechanism.
    pub const CONJUNCTIVE: [Attack; 4] = [
        Attack::DropConjunct,
        Attack::WrongIntersection,
        Attack::ExtraIntersectionDoc,
        Attack::PhraseOrderSwap,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Attack::OmitTopResult => "omit top result",
            Attack::SwapRanking => "swap ranking",
            Attack::InflateScore => "inflate score",
            Attack::InjectSpurious => "inject spurious document",
            Attack::AlterPrefixWeight => "alter prefix weight",
            Attack::ReorderPrefix => "reorder prefix",
            Attack::ForgeTermSignature => "forge list signature",
            Attack::UnderstateListLength => "understate list length",
            Attack::AlterDocFrequency => "alter document frequency",
            Attack::DropDocProof => "drop document proof",
            Attack::TamperContent => "tamper with document content",
            Attack::DropConjunct => "drop conjunct evidence",
            Attack::WrongIntersection => "narrow the intersection",
            Attack::ExtraIntersectionDoc => "widen the intersection",
            Attack::PhraseOrderSwap => "swap phrase word order",
            Attack::ForgeDocTableSignature => "forge document-table signature",
            Attack::DropDocTableDigest => "drop a document-table digest",
            Attack::ExtraDocTableDigest => "add a document-table digest",
            Attack::ShiftDocId => "shift a doc id into its neighbour's slot",
        }
    }

    /// Apply the attack to an honest response. Returns `false` when the
    /// attack is not applicable to this response (e.g. too few results to
    /// swap, or a TRA-only attack against a TNRA response).
    pub fn apply(self, response: &mut QueryResponse) -> bool {
        match self {
            Attack::OmitTopResult => {
                if response.result.entries.is_empty() {
                    return false;
                }
                let gone = response.result.entries.remove(0);
                response.contents.retain(|(d, _)| *d != gone.doc);
                true
            }
            Attack::SwapRanking => {
                if response.result.entries.len() < 2 {
                    return false;
                }
                response.result.entries.swap(0, 1);
                response.contents.swap(0, 1);
                true
            }
            Attack::InflateScore => {
                let Some(first) = response.result.entries.first_mut() else {
                    return false;
                };
                first.score += 1.0;
                true
            }
            Attack::InjectSpurious => {
                let fake_doc: DocId = u32::MAX - 1;
                let score = response
                    .result
                    .entries
                    .first()
                    .map_or(1.0, |e| e.score + 0.5);
                response.result.entries.insert(
                    0,
                    ResultEntry {
                        doc: fake_doc,
                        score,
                    },
                );
                response
                    .contents
                    .insert(0, (fake_doc, b"fabricated patent".to_vec()));
                if !response.result.entries.is_empty() {
                    response.result.entries.pop();
                    if response.contents.len() > response.result.entries.len() {
                        response.contents.pop();
                    }
                }
                true
            }
            Attack::AlterPrefixWeight => {
                for tv in &mut response.vo.terms {
                    if let PrefixData::Entries(entries) = &mut tv.prefix {
                        if let Some(e) = entries.first_mut() {
                            e.weight *= 1.5;
                            return true;
                        }
                    }
                }
                false
            }
            Attack::ReorderPrefix => {
                for tv in &mut response.vo.terms {
                    match &mut tv.prefix {
                        PrefixData::Entries(entries) if entries.len() >= 2 => {
                            entries.swap(0, 1);
                            return true;
                        }
                        PrefixData::DocIds(ids) if ids.len() >= 2 => {
                            ids.swap(0, 1);
                            return true;
                        }
                        _ => {}
                    }
                }
                false
            }
            Attack::ForgeTermSignature => {
                for tv in &mut response.vo.terms {
                    if let Some(sig) = &mut tv.signature {
                        sig[0] ^= 0x40;
                        return true;
                    }
                }
                false
            }
            Attack::UnderstateListLength => {
                for tv in &mut response.vo.terms {
                    let prefix_len = u32::try_from(tv.prefix.len()).unwrap_or(u32::MAX);
                    if tv.ft > prefix_len {
                        tv.ft = prefix_len;
                        return true;
                    }
                }
                false
            }
            Attack::AlterDocFrequency => {
                for dv in &mut response.vo.docs {
                    if let Some(leaf) = dv.revealed.iter_mut().find(|l| l.2 > 0.0) {
                        leaf.2 *= 2.0;
                        return true;
                    }
                }
                false
            }
            Attack::DropDocProof => {
                if response.vo.docs.is_empty() {
                    return false;
                }
                response.vo.docs.remove(0);
                true
            }
            Attack::TamperContent => {
                let Some((_, bytes)) = response.contents.first_mut() else {
                    return false;
                };
                *bytes = b"this patent never existed".to_vec();
                true
            }
            Attack::DropConjunct => {
                // Pop the tail of the first non-empty revealed prefix:
                // the hidden entry is exactly the evidence a complete
                // intersection would have had to account for.
                for tv in &mut response.vo.terms {
                    match &mut tv.prefix {
                        PrefixData::Entries(entries) if !entries.is_empty() => {
                            entries.pop();
                            return true;
                        }
                        PrefixData::DocIds(ids) if !ids.is_empty() => {
                            ids.pop();
                            return true;
                        }
                        _ => {}
                    }
                }
                false
            }
            Attack::WrongIntersection => {
                // Too-narrow intersection: silently drop the *last*
                // member (OmitTopResult already covers the first) while
                // every proof stays untouched.
                let Some(gone) = response.result.entries.pop() else {
                    return false;
                };
                response.contents.retain(|(d, _)| *d != gone.doc);
                true
            }
            Attack::ExtraIntersectionDoc => {
                // Too-wide intersection: promote a document the VO
                // itself reveals (so its existence is plausible) but the
                // result excludes, appending fabricated content for it.
                let result_docs = response.result.docs();
                let revealed: Vec<DocId> = if response.vo.mechanism.is_tra() {
                    response.vo.docs.iter().map(|d| d.doc).collect()
                } else {
                    response
                        .vo
                        .terms
                        .iter()
                        .flat_map(|tv| match &tv.prefix {
                            PrefixData::Entries(entries) => {
                                entries.iter().map(|e| e.doc).collect::<Vec<_>>()
                            }
                            PrefixData::DocIds(ids) => ids.clone(),
                        })
                        .collect()
                };
                let Some(doc) = revealed.into_iter().find(|d| !result_docs.contains(d)) else {
                    return false;
                };
                let score = response
                    .result
                    .entries
                    .last()
                    .map_or(0.5, |e| e.score / 2.0);
                response.result.entries.push(ResultEntry { doc, score });
                response
                    .contents
                    .push((doc, b"smuggled into the intersection".to_vec()));
                true
            }
            Attack::PhraseOrderSwap => {
                // Word-order tampering is invisible to every frequency-
                // based proof; only TRA's content-digest binding is in a
                // position to catch it.
                if !response.vo.mechanism.is_tra() {
                    return false;
                }
                for (_, bytes) in &mut response.contents {
                    let mut words: Vec<String> = String::from_utf8_lossy(bytes)
                        .split_whitespace()
                        .map(str::to_owned)
                        .collect();
                    let Some(i) = words.windows(2).position(|w| w[0] != w[1]) else {
                        continue;
                    };
                    words.swap(i, i + 1);
                    *bytes = words.join(" ").into_bytes();
                    return true;
                }
                false
            }
            Attack::ForgeDocTableSignature => {
                let Some(sig) = response.vo.doc_table.as_mut().map(|t| &mut t.signature) else {
                    return false;
                };
                let Some(byte) = sig.first_mut() else {
                    return false;
                };
                *byte ^= 0x40;
                true
            }
            Attack::DropDocTableDigest => response
                .vo
                .doc_table
                .as_mut()
                .and_then(|t| t.proof.digests.pop())
                .is_some(),
            Attack::ExtraDocTableDigest => {
                let Some(table) = response.vo.doc_table.as_mut() else {
                    return false;
                };
                table.proof.digests.push(Digest::ZERO);
                true
            }
            Attack::ShiftDocId => {
                // An odd id's sibling is the even id below it; a
                // non-result document keeps the content check out of the
                // way, so only the table can object.
                let taken: Vec<DocId> = response.vo.docs.iter().map(|d| d.doc).collect();
                let Some(dv) = response.vo.docs.iter_mut().find(|dv| {
                    dv.doc % 2 == 1 && dv.content_digest.is_some() && !taken.contains(&(dv.doc - 1))
                }) else {
                    return false;
                };
                dv.doc -= 1;
                true
            }
        }
    }
}

/// TRA: the document-table signature and multi-proof of an **older**
/// publication of a same-sized collection spliced into an honest reply —
/// the owner's genuine signature, over a table that is not this one.
/// Returns `None` when either side carries no document table.
pub fn stale_doc_table_response(
    honest: &QueryResponse,
    older: &AuthenticatedIndex,
) -> Option<QueryResponse> {
    honest.vo.doc_table.as_ref()?;
    let docs: Vec<DocId> = honest.vo.docs.iter().map(|d| d.doc).collect();
    let mut stale = honest.clone();
    stale.vo.doc_table = Some(older.doc_table_vo(&docs)?);
    Some(stale)
}

/// TRA: relabel the last document proof with id `n`, one past the end of
/// the signed document table. Returns `None` without document proofs.
pub fn doc_beyond_table_response(
    honest: &QueryResponse,
    auth: &AuthenticatedIndex,
) -> Option<QueryResponse> {
    let mut beyond = honest.clone();
    beyond.vo.docs.last_mut()?.doc = DocId::try_from(auth.index().num_docs()).ok()?;
    Some(beyond)
}

/// A smarter attack that cannot be expressed as a response mutation: the
/// engine stops early (reads shorter prefixes than the algorithm
/// requires) but builds a perfectly well-formed VO for the shortened
/// prefixes, still reporting the honest result. The replay must detect
/// that the prefixes cannot substantiate the claimed result.
pub fn truncated_prefix_response<C: crate::auth::ContentProvider>(
    auth: &AuthenticatedIndex,
    query: &Query,
    r: usize,
    contents: &C,
) -> Option<QueryResponse> {
    let honest = auth.query(query, r, contents);
    // Shorten the longest prefix — past any buddy padding, which would
    // otherwise round the prefix back up and (correctly!) keep the VO
    // sufficient. Bail when every prefix is too short to truncate.
    let pad = if auth.config().buddy {
        crate::buddy::buddy_group_size(auth.config().term_leaf_bytes(), 16)
    } else {
        1
    };
    let (argmax, &len) = honest
        .entries_read
        .iter()
        .enumerate()
        .max_by_key(|&(_, &l)| l)?;
    if len <= pad {
        return None;
    }
    let mut prefix_lens = honest.entries_read.clone();
    prefix_lens[argmax] = len - pad;
    let outcome = ProcessingOutcome {
        result: honest.result.clone(),
        prefix_lens,
        encountered: honest.vo.docs.iter().map(|d| d.doc).collect(),
        iterations: 0,
    };
    Some(auth.respond(query, outcome, contents))
}

/// The conjunctive analogue of [`truncated_prefix_response`]: the engine
/// reveals one buddy group less than the conjunctive completeness bar
/// requires (the anchor list under TRA, the longest list under TNRA) but
/// re-derives a *perfectly well-formed* VO for the shortened reveal —
/// honest result, valid proofs, valid signatures. Only the
/// [`VerifyError::ConjunctIncomplete`](crate::verify::VerifyError)
/// completeness check stands between this response and acceptance.
///
/// Returns `None` when every revealed prefix is too short to shorten
/// further.
pub fn incomplete_conjunct_response<C: crate::auth::ContentProvider>(
    auth: &AuthenticatedIndex,
    query: &Query,
    r: usize,
    contents: &C,
) -> Option<QueryResponse> {
    let honest = auth.query_conjunctive(query, r, contents);
    // Shorten past the buddy padding, which would otherwise round the
    // reveal back up to the full list.
    let pad = if auth.config().buddy {
        crate::buddy::buddy_group_size(auth.config().term_leaf_bytes(), 16)
    } else {
        1
    };
    let (argmax, &len) = honest
        .entries_read
        .iter()
        .enumerate()
        .max_by_key(|&(_, &l)| l)?;
    if len <= pad {
        return None;
    }
    let mut prefix_lens = honest.entries_read.clone();
    prefix_lens[argmax] = len - pad;
    let outcome = ProcessingOutcome {
        result: honest.result.clone(),
        prefix_lens,
        encountered: honest.vo.docs.iter().map(|d| d.doc).collect(),
        iterations: 0,
    };
    Some(auth.respond(query, outcome, contents))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthConfig;
    use crate::owner::DataOwner;
    use crate::vo::Mechanism;
    use authsearch_crypto::keys::TEST_KEY_BITS;

    #[test]
    fn attack_names_unique() {
        let mut names: Vec<&str> = Attack::COMMON
            .iter()
            .chain(&Attack::TRA_ONLY)
            .chain(&Attack::CONJUNCTIVE)
            .chain(&Attack::DOC_TABLE)
            .map(|a| a.name())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 19);
    }

    #[test]
    fn conjunctive_attacks_apply_to_toy_conjunctive_responses() {
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        for mechanism in [Mechanism::TraMht, Mechanism::TnraCmht] {
            let config = AuthConfig {
                key_bits: TEST_KEY_BITS,
                ..AuthConfig::new(mechanism)
            };
            let publication =
                owner.publish_index(crate::toy::toy_index(), config, &crate::toy::toy_contents());
            let honest = publication.auth.query_conjunctive(
                &crate::toy::toy_query(),
                2,
                &crate::toy::toy_contents(),
            );
            for attack in Attack::CONJUNCTIVE {
                let mut copy = honest.clone();
                let applied = attack.apply(&mut copy);
                // Phrase tampering needs delivered contents → TRA only.
                // Widening needs a revealed non-result doc, which the toy
                // TRA anchor (exactly the one result doc) cannot offer.
                let expect = match attack {
                    Attack::PhraseOrderSwap => mechanism.is_tra(),
                    Attack::ExtraIntersectionDoc => !mechanism.is_tra(),
                    _ => true,
                };
                assert_eq!(applied, expect, "{mechanism:?}: {}", attack.name());
                if applied {
                    assert_ne!(
                        (&copy.vo, &copy.result, &copy.contents),
                        (&honest.vo, &honest.result, &honest.contents),
                        "{mechanism:?}: {} left the response unchanged",
                        attack.name()
                    );
                }
            }
        }
    }

    #[test]
    fn attacks_apply_to_toy_responses() {
        let owner = DataOwner::with_cached_key(TEST_KEY_BITS);
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            ..AuthConfig::new(Mechanism::TraMht)
        };
        let publication =
            owner.publish_index(crate::toy::toy_index(), config, &crate::toy::toy_contents());
        let honest =
            publication
                .auth
                .query(&crate::toy::toy_query(), 2, &crate::toy::toy_contents());
        let catalogue = Attack::COMMON
            .iter()
            .chain(&Attack::TRA_ONLY)
            .chain(&Attack::DOC_TABLE);
        for attack in catalogue {
            let mut copy = honest.clone();
            let applied = attack.apply(&mut copy);
            // AlterPrefixWeight targets TNRA entries; everything else
            // must apply to a TRA response.
            if *attack != Attack::AlterPrefixWeight {
                assert!(applied, "{}", attack.name());
                assert_ne!(
                    format!("{:?}", copy.vo)
                        + &format!("{:?}", copy.result)
                        + &format!("{:?}", copy.contents),
                    format!("{:?}", honest.vo)
                        + &format!("{:?}", honest.result)
                        + &format!("{:?}", honest.contents),
                    "{} left the response unchanged",
                    attack.name()
                );
            }
        }
    }
}
