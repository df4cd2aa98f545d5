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
use crate::auth::{tnra_leaf_digest, tra_leaf_digest, AuthenticatedIndex};
use crate::types::{ProcessingOutcome, Query, ResultEntry};
use crate::vo::{DocLeaf, Mechanism, PrefixData, TermProof, TermVo};
use authsearch_corpus::{DocId, TermId};
use authsearch_crypto::merkle::prove_with;
use authsearch_crypto::{ChainPrefixProof, Digest, MerkleProof, DIGEST_LEN};
use authsearch_index::{ImpactEntry, InvertedIndex, InvertedList};

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
    /// Altered ranking: report every score as NaN, which compares
    /// neither above nor below any tolerance.
    NanScore,
    /// Spurious result: inject a fabricated document at rank 1.
    InjectSpurious,
    /// Tamper with a frequency inside a TNRA list prefix.
    AlterPrefixWeight,
    /// Reorder two entries within a list prefix.
    ReorderPrefix,
    /// Lie about a list's f_t (shortening the claimed list).
    UnderstateListLength,
    /// TRA: tamper with a revealed document-MHT frequency.
    AlterDocFrequency,
    /// TRA: withhold the document proof of an encountered document.
    DropDocProof,
    /// TRA: substitute the content of a result document.
    TamperContent,
    /// TRA: deliver a forged copy of a result document's content ahead
    /// of the real one, so a caller that reads the first copy by id
    /// reads the forgery.
    DuplicateContent,
    /// Conjunctive: shorten a revealed list prefix, hiding the tail a
    /// complete intersection must account for (dropping a conjunct's
    /// evidence).
    DropConjunct,
    /// Conjunctive: report a silently narrowed intersection (drop the
    /// last member and its content while keeping every proof intact).
    WrongIntersection,
    /// Conjunctive: smuggle a revealed-but-nonqualifying document into
    /// the reported intersection, with fabricated content.
    ExtraIntersectionDoc,
    /// Phrase (TRA): swap two adjacent words inside a delivered result
    /// document, breaking phrase order while preserving the word
    /// multiset — term frequencies are unchanged, so only the held
    /// content digest can catch it.
    PhraseOrderSwap,
    /// TRA: relabel a non-result document proof with its neighbour's doc
    /// id (one not proved already), so the proof meets the neighbour's
    /// held document-MHT root.
    ShiftDocId,
    /// TRA: swap the two leaves of a bounding pair (position-adjacent
    /// revealed leaves whose keys bound a query term's), each keeping
    /// its position, so the pair is out of key order.
    SwapBoundingPair,
    /// TRA: forge the `c_t` of a bounding leaf, to a class that keeps
    /// the revealed leaves in key order.
    ForgeBoundingClass,
}

impl Attack {
    /// Attacks applicable to every mechanism.
    pub const COMMON: [Attack; 8] = [
        Attack::OmitTopResult,
        Attack::SwapRanking,
        Attack::InflateScore,
        Attack::NanScore,
        Attack::InjectSpurious,
        Attack::AlterPrefixWeight,
        Attack::ReorderPrefix,
        Attack::UnderstateListLength,
    ];

    /// Attacks specific to the TRA mechanisms (document-MHTs).
    pub const TRA_ONLY: [Attack; 4] = [
        Attack::AlterDocFrequency,
        Attack::DropDocProof,
        Attack::TamperContent,
        Attack::DuplicateContent,
    ];

    /// Attacks on the held document table (TRA); each applies to every
    /// TRA response with a non-result document proof whose lower
    /// neighbour is not proved (see [`Attack::ShiftDocId`]).
    pub const DOC_TABLE: [Attack; 1] = [Attack::ShiftDocId];

    /// Attacks on the key order of document-MHT leaves; each applies to
    /// every TRA response that proves a query term absent from some
    /// document by a bounding pair.
    pub const DOC_KEY: [Attack; 2] = [Attack::SwapBoundingPair, Attack::ForgeBoundingClass];

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
            Attack::NanScore => "report NaN scores",
            Attack::InjectSpurious => "inject spurious document",
            Attack::AlterPrefixWeight => "alter prefix weight",
            Attack::ReorderPrefix => "reorder prefix",
            Attack::UnderstateListLength => "understate list length",
            Attack::AlterDocFrequency => "alter document frequency",
            Attack::DropDocProof => "drop document proof",
            Attack::TamperContent => "tamper with document content",
            Attack::DuplicateContent => "deliver a forged second copy of a document",
            Attack::DropConjunct => "drop conjunct evidence",
            Attack::WrongIntersection => "narrow the intersection",
            Attack::ExtraIntersectionDoc => "widen the intersection",
            Attack::PhraseOrderSwap => "swap phrase word order",
            Attack::ShiftDocId => "shift a doc id onto its neighbour's",
            Attack::SwapBoundingPair => "swap a bounding pair out of key order",
            Attack::ForgeBoundingClass => "forge the c_t of a bounding leaf",
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
            Attack::NanScore => {
                for e in &mut response.result.entries {
                    e.score = f64::NAN;
                }
                !response.result.entries.is_empty()
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
                    if let Some(leaf) = dv.revealed.iter_mut().find(|l| l.weight > 0.0) {
                        leaf.weight *= 2.0;
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
            Attack::DuplicateContent => {
                let Some(doc) = response.contents.first().map(|(d, _)| *d) else {
                    return false;
                };
                response
                    .contents
                    .insert(0, (doc, b"a forged copy of this patent".to_vec()));
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
                // member (OmitTopResult already covers the first) and its
                // content while every proof stays intact, so only the
                // intersection check can catch the lie.
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
            Attack::ShiftDocId => {
                // A non-result document keeps the content check out of
                // the way, so only the held root can object.
                let taken: Vec<DocId> = response.vo.docs.iter().map(|d| d.doc).collect();
                let results = response.result.docs();
                let Some(dv) = response.vo.docs.iter_mut().find(|dv| {
                    dv.doc % 2 == 1 && !results.contains(&dv.doc) && !taken.contains(&(dv.doc - 1))
                }) else {
                    return false;
                };
                dv.doc -= 1;
                true
            }
            Attack::SwapBoundingPair => {
                let keys = query_keys(response);
                response.vo.docs.iter_mut().any(|dv| {
                    let Some(i) = bounding_pair(&dv.revealed, &keys) else {
                        return false;
                    };
                    let (lower, upper) = (dv.revealed[i], dv.revealed[i + 1]);
                    dv.revealed[i] = DocLeaf {
                        pos: lower.pos,
                        ..upper
                    };
                    dv.revealed[i + 1] = DocLeaf {
                        pos: upper.pos,
                        ..lower
                    };
                    true
                })
            }
            Attack::ForgeBoundingClass => {
                let keys = query_keys(response);
                response.vo.docs.iter_mut().any(|dv| {
                    let Some(i) = bounding_pair(&dv.revealed, &keys) else {
                        return false;
                    };
                    // Either leaf of the pair, to any other class that
                    // keeps its key strictly between its neighbours'.
                    for at in [i, i + 1] {
                        let below = at.checked_sub(1).map(|j| dv.revealed[j].key());
                        let above = dv.revealed.get(at + 1).map(DocLeaf::key);
                        let leaf = dv.revealed[at];
                        let forged = (1..=32u8).filter(|&c| c != leaf.class).find(|&c| {
                            let key = DocLeaf { class: c, ..leaf }.key();
                            below.is_none_or(|b| b < key) && above.is_none_or(|a| key < a)
                        });
                        if let Some(class) = forged {
                            dv.revealed[at].class = class;
                            return true;
                        }
                    }
                    false
                })
            }
        }
    }
}

/// Each query term's leaf key, from the `f_t` its term proof claims.
fn query_keys(response: &QueryResponse) -> Vec<u64> {
    response.vo.terms.iter().map(TermVo::leaf_key).collect()
}

/// The index `i` of the first bounding pair among `revealed`:
/// `revealed[i]` and `revealed[i + 1]` sit at adjacent positions and
/// their keys bound one of `keys`.
fn bounding_pair(revealed: &[DocLeaf], keys: &[u64]) -> Option<usize> {
    revealed.windows(2).position(|pair| {
        let (l, u) = (pair[0], pair[1]);
        u.pos == l.pos + 1 && keys.iter().any(|&k| l.key() < k && k < u.key())
    })
}

/// TRA: a query term present in a result document, claimed absent. The
/// engine withholds the term's leaf and reveals the leaves on either
/// side of it instead, with an honest proof for that reveal: a pair
/// whose keys bound the term's, but not at adjacent positions. A result
/// document's every query-term weight is read by both query modes'
/// replays. Returns `None` when no result document has a revealed
/// query-term leaf with neighbours on both sides.
pub fn absent_through_gap_response(
    honest: &QueryResponse,
    auth: &AuthenticatedIndex,
) -> Option<QueryResponse> {
    let keys = query_keys(honest);
    let result = honest.result.docs();
    for (i, dv) in honest.vo.docs.iter().enumerate() {
        if !result.contains(&dv.doc) {
            continue;
        }
        let n = dv.num_leaves;
        let Some(hidden) = dv
            .revealed
            .iter()
            .find(|l| keys.contains(&l.key()) && l.pos > 0 && l.pos + 1 < n)
        else {
            continue;
        };
        let mut positions: Vec<usize> = dv
            .revealed
            .iter()
            .filter(|l| l.pos != hidden.pos)
            .map(|l| l.pos as usize)
            .chain([hidden.pos as usize - 1, hidden.pos as usize + 1])
            .collect();
        positions.sort_unstable();
        positions.dedup();
        let mut forged = honest.clone();
        forged.vo.docs[i] = auth.doc_vo(dv.doc, &positions);
        return Some(forged);
    }
    None
}

/// The index of an **older** publication of the same collection: term
/// `t`'s last entry moved to the lowest document id its list lacks, at
/// half the list's lowest weight (so the list keeps its canonical
/// order). `m`, `n` and every `f_t` are unchanged; term `t`'s root
/// differs under every mechanism, and so do two documents' MHTs. Returns
/// `None` when the list already holds every document.
pub fn older_index(index: &InvertedIndex, t: TermId) -> Option<InvertedIndex> {
    let mut lists: Vec<InvertedList> = (0..index.num_terms() as TermId)
        .map(|u| index.list(u).clone())
        .collect();
    let entries = lists.get(t as usize)?.entries();
    let held: Vec<DocId> = entries.iter().map(|e| e.doc).collect();
    let doc = (0..index.num_docs() as DocId).find(|d| !held.contains(d))?;
    let mut edited = entries.to_vec();
    let last = edited.last_mut()?;
    *last = ImpactEntry {
        doc,
        weight: last.weight / 2.0,
    };
    lists[t as usize] = InvertedList::from_sorted(edited);
    let ft = (0..index.num_terms() as TermId)
        .map(|u| index.ft(u))
        .collect();
    Some(InvertedIndex::from_parts(
        index.params(),
        index.num_docs(),
        index.avg_doc_len(),
        ft,
        lists,
    ))
}

/// The reply relabeled as mechanism `to` of the same query algorithm,
/// each term proof converted to `to`'s kind (a chain proof's tail-block
/// multi-proof becomes a plain MHT proof, and back): one publication's
/// reply presented as another mechanism's. Where every query list fits
/// in one chain block the two mechanisms' term roots coincide, so only
/// the mechanism of the client's held manifest tells them apart.
/// Returns `None` when `to` is the reply's own mechanism or runs the
/// other query algorithm (TRA vs TNRA).
pub fn mechanism_swapped_response(honest: &QueryResponse, to: Mechanism) -> Option<QueryResponse> {
    if to == honest.vo.mechanism || to.is_tra() != honest.vo.mechanism.is_tra() {
        return None;
    }
    let mut swapped = honest.clone();
    swapped.vo.mechanism = to;
    for tv in &mut swapped.vo.terms {
        let digests = match &tv.proof {
            TermProof::Mht(p) => p.digests.clone(),
            TermProof::Cmht(p) => p.tail.digests.clone(),
        };
        let proof = MerkleProof { digests };
        tv.proof = if to.is_cmht() {
            TermProof::Cmht(ChainPrefixProof { tail: proof })
        } else {
            TermProof::Mht(proof)
        };
    }
    Some(swapped)
}

/// A query term answered with its dictionary neighbour's list. `serve`
/// answers a copy of the query in which the first term `t` whose
/// dictionary sibling `t ^ 1` exists and is not queried itself is
/// replaced by that sibling (same `f_{Q,t}` and weight); the sibling's
/// proof is then labeled `t`. Sibling leaves share every ancestor, so
/// the dictionary multi-proof keeps its shape and only the leaf's
/// binding of term, `f_t` and root can object. Returns `None` when no
/// query term has such a sibling.
pub fn shifted_dict_leaf_response(
    query: &Query,
    num_terms: usize,
    serve: impl FnOnce(&Query) -> QueryResponse,
) -> Option<QueryResponse> {
    let asked: Vec<TermId> = query.terms().iter().map(|qt| qt.term).collect();
    let (i, neighbour) = asked.iter().enumerate().find_map(|(i, &t)| {
        let s = t ^ 1;
        ((s as usize) < num_terms && !asked.contains(&s)).then_some((i, s))
    })?;
    let mut terms = query.terms().to_vec();
    terms.get_mut(i)?.term = neighbour;
    let shifted = Query::new(terms, query.mode()).ok()?;
    let mut response = serve(&shifted);
    response.vo.terms.get_mut(i)?.term = asked[i];
    Some(response)
}

/// Query term `at`'s entry — prefix, proof and `f_t` — taken from a reply
/// of **another** publication to the same query, so its term root is
/// that publication's. Returns `None` when the two entries are equal.
pub fn foreign_term_response(
    honest: &QueryResponse,
    foreign: &QueryResponse,
    at: usize,
) -> Option<QueryResponse> {
    let entry = foreign.vo.terms.get(at)?;
    if honest.vo.terms.get(at)? == entry {
        return None;
    }
    let mut spliced = honest.clone();
    spliced.vo.terms[at] = entry.clone();
    Some(spliced)
}

/// A tree of the scheme, as a target of [`interior_as_leaf_response`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tree {
    /// A plain term-MHT (the `*-MHT` mechanisms).
    TermMht,
    /// The last-touched block of a chain-MHT (the `*-CMHT` mechanisms).
    ChainBlock,
    /// A document-MHT (TRA).
    DocMht,
    /// The dictionary-MHT (every mechanism).
    Dictionary,
}

impl Tree {
    /// Every tree a reply proves from. The document table is not one: a
    /// client holds its leaves and checks none of its proofs.
    pub const ALL: [Tree; 4] = [
        Tree::TermMht,
        Tree::ChainBlock,
        Tree::DocMht,
        Tree::Dictionary,
    ];

    /// True when replies of `mechanism` carry a proof in this tree.
    pub fn in_replies_of(self, mechanism: Mechanism) -> bool {
        match self {
            Tree::TermMht => !mechanism.is_cmht(),
            Tree::ChainBlock => mechanism.is_cmht(),
            Tree::DocMht => mechanism.is_tra(),
            Tree::Dictionary => true,
        }
    }
}

/// An interior node presented in a leaf's slot of `tree`: the first
/// complementary digest of a single leaf whose sibling leaf is revealed
/// is replaced by the digest of their parent, an interior node of the
/// same tree. Leaves hash as `h(0x00 | leaf)` and interior nodes as
/// `h(0x01 | l | r)`, so the two never stand in for each other and the
/// reconstructed root moves. Returns `None` when the reply proves no
/// such leaf in that tree.
pub fn interior_as_leaf_response(
    honest: &QueryResponse,
    auth: &AuthenticatedIndex,
    tree: Tree,
) -> Option<QueryResponse> {
    let mut forged = honest.clone();
    let vo = &mut forged.vo;
    let applied = match tree {
        Tree::TermMht | Tree::ChainBlock => vo.terms.iter_mut().any(|tv| {
            let leaves: Vec<Digest> = match &tv.prefix {
                PrefixData::DocIds(ids) => ids.iter().map(|&d| tra_leaf_digest(d)).collect(),
                PrefixData::Entries(entries) => entries.iter().map(tnra_leaf_digest).collect(),
            };
            let ft = tv.ft as usize;
            match (&mut tv.proof, tree) {
                (TermProof::Mht(proof), Tree::TermMht) => {
                    parent_in_leaf_slot(ft, &indexed(&leaves), proof)
                }
                (TermProof::Cmht(proof), Tree::ChainBlock) if !leaves.is_empty() => {
                    let cap = auth.config().chain_capacity();
                    let lo = (leaves.len() - 1) / cap * cap;
                    let hi = (lo + cap).min(ft);
                    let objects = hi - lo + usize::from(hi < ft);
                    parent_in_leaf_slot(objects, &indexed(&leaves[lo..]), &mut proof.tail)
                }
                _ => false,
            }
        }),
        Tree::DocMht => vo.docs.iter_mut().any(|dv| {
            let leaves: Vec<(usize, Digest)> = dv
                .revealed
                .iter()
                .map(|l| (l.pos as usize, l.digest()))
                .collect();
            parent_in_leaf_slot(dv.num_leaves as usize, &leaves, &mut dv.proof)
        }),
        Tree::Dictionary => {
            let mut terms: Vec<TermId> = vo.terms.iter().map(|t| t.term).collect();
            terms.sort_unstable();
            let leaves: Vec<(usize, Digest)> = terms
                .iter()
                .map(|&t| (t as usize, auth.dict_leaf(t)))
                .collect();
            match vo.dict.as_mut() {
                Some(dict) => {
                    parent_in_leaf_slot(dict.num_terms as usize, &leaves, &mut dict.proof)
                }
                None => false,
            }
        }
    };
    applied.then_some(forged)
}

/// `leaves` at their positions.
fn indexed(leaves: &[Digest]) -> Vec<(usize, Digest)> {
    leaves.iter().copied().enumerate().collect()
}

/// In `proof` of an `n`-leaf tree with `revealed` `(position, leaf
/// digest)` pairs (ascending), replace the first digest that stands for a
/// single unrevealed leaf with a revealed sibling by the digest of their
/// parent. Returns whether such a slot existed.
fn parent_in_leaf_slot(n: usize, revealed: &[(usize, Digest)], proof: &mut MerkleProof) -> bool {
    let positions: Vec<usize> = revealed.iter().map(|&(p, _)| p).collect();
    let mut slots = Vec::new();
    prove_with(n, &positions, |level, idx| {
        slots.push((level, idx));
        Digest::ZERO
    });
    if slots.len() != proof.digests.len() {
        return false;
    }
    for (slot, &(level, idx)) in proof.digests.iter_mut().zip(&slots) {
        let sibling = revealed.iter().find(|&&(p, _)| p == idx ^ 1);
        if let (0, Some(&(_, sibling))) = (level, sibling) {
            *slot = if idx % 2 == 0 {
                Digest::combine(slot, &sibling)
            } else {
                Digest::combine(&sibling, slot)
            };
            return true;
        }
    }
    false
}

/// TRA: relabel the last document proof with id `n`, one past the end of
/// the collection the client holds. Returns `None` without document
/// proofs.
pub fn doc_beyond_table_response(
    honest: &QueryResponse,
    auth: &AuthenticatedIndex,
) -> Option<QueryResponse> {
    let mut beyond = honest.clone();
    beyond.vo.docs.last_mut()?.doc = DocId::try_from(auth.index().num_docs()).ok()?;
    Some(beyond)
}

/// A smarter attack that cannot be expressed as a response mutation: the
/// engine stops early (reads shorter prefixes than the query's mode
/// requires) but builds a perfectly well-formed VO for the shortened
/// prefixes, still reporting the honest result. A disjunctive replay
/// must detect that the prefixes cannot substantiate the claimed result;
/// for a conjunctive query the longest reveal falls one buddy group
/// short of what the result needs — under TRA the anchor prefix then
/// ends before the front the client's scan must stop on, or short of
/// the anchor's `f_t`; under TNRA a list short of its `f_t` — and only
/// the [`VerifyError::ConjunctIncomplete`](crate::verify::VerifyError)
/// check stands between the response and acceptance.
///
/// Returns `None` when every prefix is too short to truncate.
pub fn truncated_prefix_response<C: crate::auth::ContentProvider>(
    auth: &AuthenticatedIndex,
    query: &Query,
    r: usize,
    contents: &C,
) -> Option<QueryResponse> {
    let honest = auth.query(query, r, contents).ok()?;
    // Shorten the longest prefix — past any buddy padding, which would
    // otherwise round the prefix back up and (correctly!) keep the VO
    // sufficient. Bail when every prefix is too short to truncate.
    let pad = if auth.config().buddy {
        crate::buddy::buddy_group_size(auth.config().term_leaf_bytes(), DIGEST_LEN)
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
    let encountered = honest.vo.docs.iter().map(|d| d.doc).collect();
    Some(rebuilt_response(
        auth,
        query,
        &honest,
        prefix_lens,
        encountered,
        contents,
    ))
}

/// The engine's reply to `query` rebuilt around the `honest` result over
/// another reveal: each list revealed to (at least, after buddy
/// rounding) `prefix_lens[i]` entries and document proofs for exactly
/// `encountered`, every proof built honestly. A verifier must judge the
/// reveal itself.
pub fn rebuilt_response<C: crate::auth::ContentProvider>(
    auth: &AuthenticatedIndex,
    query: &Query,
    honest: &QueryResponse,
    prefix_lens: Vec<usize>,
    encountered: Vec<DocId>,
    contents: &C,
) -> QueryResponse {
    let outcome = ProcessingOutcome {
        result: honest.result.clone(),
        prefix_lens,
        encountered,
        iterations: 0,
    };
    auth.respond(query, outcome, contents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthConfig;
    use crate::owner::DataOwner;
    use crate::types::QueryMode;
    use crate::vo::Mechanism;
    use authsearch_crypto::keys::TEST_KEY_BITS;

    #[test]
    fn attack_names_unique() {
        let mut names: Vec<&str> = Attack::COMMON
            .iter()
            .chain(&Attack::TRA_ONLY)
            .chain(&Attack::CONJUNCTIVE)
            .chain(&Attack::DOC_TABLE)
            .chain(&Attack::DOC_KEY)
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
            let config = AuthConfig::new(mechanism);
            let publication =
                owner.publish_index(crate::toy::toy_index(), config, &crate::toy::toy_contents());
            let query = crate::toy::toy_query().with_mode(QueryMode::Conjunctive);
            let honest = publication
                .auth
                .query(&query, 2, &crate::toy::toy_contents())
                .unwrap();
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
        let config = AuthConfig::new(Mechanism::TraMht);
        let publication =
            owner.publish_index(crate::toy::toy_index(), config, &crate::toy::toy_contents());
        let honest = publication
            .auth
            .query(&crate::toy::toy_query(), 2, &crate::toy::toy_contents())
            .unwrap();
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
