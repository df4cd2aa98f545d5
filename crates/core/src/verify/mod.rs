//! User-side result verification.
//!
//! The verifier receives the query result, the VO, and (for TRA) the
//! result documents themselves, and decides whether the result satisfies
//! the paper's correctness criteria with respect to the owner's signed
//! index. The strategy:
//!
//! 1. **Authenticate the inputs**: reconstruct every term-(chain-)MHT
//!    root from the VO's list prefixes and complementary digests, and
//!    from those roots (each bound to its term and `f_t`) the
//!    dictionary-MHT root; for TRA likewise reconstruct every
//!    document-MHT root and, from them, the document-table root, and
//!    resolve the query-term frequency of every encountered document
//!    (present value, or a proven absence via adjacent-leaf bounding).
//!    Then make one RSA check: the owner's signature over the
//!    publication manifest that binds the mechanism, `m`, `n` and both
//!    roots.
//! 2. **Replay the deterministic threshold algorithm** over exactly those
//!    authenticated inputs. If the replay ever needs data the VO does not
//!    substantiate, the VO is insufficient and the result is rejected; a
//!    replay that terminates must reproduce the reported result exactly.
//!
//! Authentic prefixes + deterministic replay imply the correctness
//! criteria of §3.1: the threshold logic guarantees no unseen document
//! can outscore the reported ones (completeness), the recomputed scores
//! guarantee correct ranking, and the signature rules out spurious
//! entries.

mod docproof;

use crate::access::{AccessError, FreqAccess, ListAccess};
use crate::auth::serve::QueryResponse;
use crate::auth::{dict_leaf_digest, publication_message, NO_DOC_TABLE_ROOT};
use crate::types::{Query, QueryResult};
use crate::vo::{Mechanism, PrefixData, TermProof, TermVo, VerificationObject, VoSize};
use crate::{tnra, tra};
use authsearch_corpus::{DocId, TermId};
use authsearch_crypto::{reconstruct_head, reconstruct_root, Digest, RsaPublicKey};
use authsearch_index::{BlockLayout, ImpactEntry};
use std::collections::HashMap;
use std::fmt;

pub use docproof::ResolvedFreqs;

/// Why a query result was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// VO does not match the query's shape (missing/mismatched terms).
    QueryShapeMismatch(String),
    /// A term list's signature did not validate (the §3.2 baseline,
    /// which signs every list; [`crate::baseline`]).
    TermSignature {
        /// The offending term.
        term: TermId,
    },
    /// The document-table multi-proof (TRA) is missing, has the wrong
    /// shape, or places a document outside the collection.
    DocTableProof(String),
    /// The manifest signature did not validate over the roots the reply
    /// reconstructs: a term's list, `f_t` or position, a document's id,
    /// content or weights, the mechanism, or `m` differ from what the
    /// owner signed, or the manifest is not this publication's.
    ManifestSignature,
    /// The caller asked for something only authenticated document
    /// contents can answer, from a mechanism whose replies do not
    /// authenticate contents (TNRA).
    ContentsUnauthenticated {
        /// The deployed mechanism.
        mechanism: Mechanism,
    },
    /// A Merkle/chain proof had the wrong shape.
    MalformedProof(String),
    /// A TNRA prefix was not in non-increasing weight order.
    PrefixNotOrdered {
        /// The offending term.
        term: TermId,
    },
    /// The replay needed data the VO does not substantiate.
    InsufficientData(String),
    /// A query-term frequency could be neither proven present nor absent.
    FrequencyUnproven {
        /// Document in question.
        doc: DocId,
        /// Query term in question.
        term: TermId,
    },
    /// An encountered document lacks its document-MHT proof.
    MissingDocProof {
        /// The document.
        doc: DocId,
    },
    /// A result document's content was not delivered (or does not match).
    MissingContent {
        /// The document.
        doc: DocId,
    },
    /// The replayed result differs from the reported one.
    ResultMismatch(String),
    /// A conjunctive VO does not reveal enough of a term's list for the
    /// intersection to be complete (the anchor list under TRA, every
    /// list under TNRA, must be revealed up to its signed `f_t`).
    ConjunctIncomplete {
        /// The term whose list is not fully revealed.
        term: TermId,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::QueryShapeMismatch(w) => write!(f, "VO/query mismatch: {w}"),
            VerifyError::TermSignature { term } => {
                write!(f, "invalid signature on term {term}'s inverted list")
            }
            VerifyError::DocTableProof(w) => write!(f, "malformed document-table proof: {w}"),
            VerifyError::ManifestSignature => write!(f, "invalid manifest signature"),
            VerifyError::ContentsUnauthenticated { mechanism } => write!(
                f,
                "{} replies do not authenticate document contents",
                mechanism.name()
            ),
            VerifyError::MalformedProof(w) => write!(f, "malformed proof: {w}"),
            VerifyError::PrefixNotOrdered { term } => {
                write!(f, "term {term}'s prefix violates frequency ordering")
            }
            VerifyError::InsufficientData(w) => write!(f, "VO insufficient: {w}"),
            VerifyError::FrequencyUnproven { doc, term } => {
                write!(f, "frequency of term {term} in document {doc} unproven")
            }
            VerifyError::MissingDocProof { doc } => {
                write!(f, "no document-MHT proof for encountered document {doc}")
            }
            VerifyError::MissingContent { doc } => {
                write!(f, "content of result document {doc} missing")
            }
            VerifyError::ResultMismatch(w) => write!(f, "result incorrect: {w}"),
            VerifyError::ConjunctIncomplete { term } => write!(
                f,
                "term {term}'s list not fully revealed: conjunctive completeness unproven"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<AccessError> for VerifyError {
    fn from(e: AccessError) -> Self {
        VerifyError::InsufficientData(e.what)
    }
}

/// A verified result plus bookkeeping for the evaluation metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedResult {
    /// The result, now known to satisfy the correctness criteria.
    pub result: QueryResult,
    /// Size breakdown of the VO that was checked.
    pub vo_size: VoSize,
}

/// Public parameters the verifier needs (distributed by the data owner
/// alongside the public key).
#[derive(Debug, Clone)]
pub struct VerifierParams {
    /// The owner's public key.
    pub public_key: RsaPublicKey,
    /// Block layout (for chain-MHT capacities).
    pub layout: BlockLayout,
    /// The mechanism the owner deployed.
    pub mechanism: Mechanism,
    /// Collection size `n` (public metadata; feeds `w_{Q,t}`).
    pub num_docs: usize,
    /// Okapi parameters the index was built with.
    pub okapi: authsearch_index::OkapiParams,
}

impl VerifierParams {
    fn chain_capacity(&self) -> usize {
        let leaf = if self.mechanism.is_tra() { 4 } else { 8 };
        self.layout.chain_capacity(leaf)
    }
}

/// Score comparison tolerance: engine and verifier execute the identical
/// f64 operations in the identical order, so any real discrepancy is a
/// lie; the epsilon only absorbs platform-level FMA contraction.
const SCORE_EPS: f64 = 1e-9;

/// Verify a response against a query whose weights the caller already
/// trusts (`query.wq` computed locally, or the toy example's published
/// weights). `r` is the result size the user requested.
pub fn verify(
    params: &VerifierParams,
    query: &Query,
    r: usize,
    response: &QueryResponse,
) -> Result<VerifiedResult, VerifyError> {
    let vo = &response.vo;
    // Step 1: authenticate every list prefix and document proof.
    let freqs = authenticate(params, query, response)?;

    // Step 2: mechanism-specific replay.
    let replayed = if let Some(freqs) = freqs {
        let lists = TraVoLists::build(vo, &freqs)?;
        tra::run(&lists, &freqs, query, r)?
    } else {
        let lists = TnraVoLists::build(vo)?;
        tnra::run(&lists, query, r)?
    };

    // Step 3: the reported result must equal the replayed one.
    compare_results(&replayed.result, &response.result)?;

    Ok(VerifiedResult {
        result: response.result.clone(),
        vo_size: vo.size(),
    })
}

/// Verify a conjunctive (AND-semantics) response: same inputs as
/// [`verify`], but the result is required to be the *exact* top-`r` of
/// the documents containing **every** query term.
///
/// Beyond authenticating the list prefixes and signatures exactly as
/// the disjunctive verifier does, this enforces *intersection
/// completeness* from the existing signed structures alone:
///
/// * the anchor list (smallest signed `f_t`,
///   `crate::conjunctive::anchor_index` — recomputed here from the
///   signed values, never taken from the server) must be revealed in
///   full, so the candidate set is provably exhaustive;
/// * under **TRA**, every candidate's membership in the other lists is
///   settled by its authenticated document-MHT: a revealed `(t, w)`
///   leaf proves presence, an adjacent bounding pair proves absence —
///   so no conjunct can be silently dropped and no outsider smuggled
///   in;
/// * under **TNRA**, every query term's list must be revealed in full
///   ([`VerifyError::ConjunctIncomplete`] otherwise) and absence is
///   proven by exhaustion against the signed roots.
///
/// The ranking replay is byte-for-byte the engine's own code
/// (`crate::conjunctive`), so any score or ordering deviation is a lie,
/// not a rounding artifact.
pub fn verify_conjunctive(
    params: &VerifierParams,
    query: &Query,
    r: usize,
    response: &QueryResponse,
) -> Result<VerifiedResult, VerifyError> {
    let vo = &response.vo;
    // Authenticate every list prefix and document proof, exactly as the
    // disjunctive path does.
    let freqs = authenticate(params, query, response)?;

    let q = query.terms.len();
    if q == 0 {
        // The empty conjunction: trivially the empty result.
        compare_results(&QueryResult::default(), &response.result)?;
        return Ok(VerifiedResult {
            result: response.result.clone(),
            vo_size: vo.size(),
        });
    }

    // The anchor is derived from the *signed* f_t values: understating
    // one to shrink the reveal obligation breaks the manifest signature
    // first.
    let fts: Vec<usize> = vo.terms.iter().map(|tv| tv.ft as usize).collect();
    let anchor = crate::conjunctive::anchor_index(&fts);
    let wq: Vec<f64> = query.terms.iter().map(|qt| qt.wq).collect();

    let expected = if let Some(freqs) = freqs {
        let atv = vo.terms.get(anchor).ok_or_else(|| {
            VerifyError::MalformedProof(format!("anchor {anchor} has no VO term"))
        })?;
        if atv.prefix.len() != atv.ft as usize {
            return Err(VerifyError::ConjunctIncomplete { term: atv.term });
        }
        let PrefixData::DocIds(candidates) = &atv.prefix else {
            return Err(VerifyError::MalformedProof(format!(
                "term {}: prefix payload does not match mechanism",
                atv.term
            )));
        };
        // The authenticated document-MHT proofs certify, for every
        // candidate × query term, either the weight or a proven absence.
        crate::conjunctive::rank_intersection(candidates, &wq, |d, i| freqs.weight_of(d, i), r)
            .map_err(|(doc, i)| {
                if freqs.contains(doc) {
                    VerifyError::FrequencyUnproven {
                        doc,
                        term: query.terms.get(i).map_or(0, |qt| qt.term),
                    }
                } else {
                    VerifyError::MissingDocProof { doc }
                }
            })?
    } else {
        // TNRA: every list fully revealed → membership lookups by map,
        // absence by exhaustion.
        let mut maps: Vec<HashMap<DocId, f32>> = Vec::with_capacity(q);
        let mut candidates: Vec<DocId> = Vec::new();
        for (i, tv) in vo.terms.iter().enumerate() {
            let PrefixData::Entries(entries) = &tv.prefix else {
                return Err(VerifyError::MalformedProof(format!(
                    "term {}: prefix payload does not match mechanism",
                    tv.term
                )));
            };
            if entries.len() != tv.ft as usize {
                return Err(VerifyError::ConjunctIncomplete { term: tv.term });
            }
            // Same defense-in-depth screen as the disjunctive replay.
            if entries
                .windows(2)
                .any(|pair| matches!(pair, [a, b] if a.weight < b.weight))
            {
                return Err(VerifyError::PrefixNotOrdered { term: tv.term });
            }
            if i == anchor {
                candidates = entries.iter().map(|e| e.doc).collect();
            }
            maps.push(entries.iter().map(|e| (e.doc, e.weight)).collect());
        }
        crate::conjunctive::rank_intersection(
            &candidates,
            &wq,
            |d, i| Some(maps.get(i).and_then(|m| m.get(&d)).copied().unwrap_or(0.0)),
            r,
        )
        .map_err(|(doc, i)| VerifyError::FrequencyUnproven {
            doc,
            term: query.terms.get(i).map_or(0, |qt| qt.term),
        })?
    };

    compare_results(&expected, &response.result)?;
    Ok(VerifiedResult {
        result: response.result.clone(),
        vo_size: vo.size(),
    })
}

/// Step 1 of both verifiers: check the VO's shape, reconstruct every
/// term root and the dictionary root, and under TRA every document-MHT
/// root and the document-table root, then check the one manifest
/// signature over them. Returns the authenticated document frequencies
/// under TRA, `None` under TNRA.
fn authenticate(
    params: &VerifierParams,
    query: &Query,
    response: &QueryResponse,
) -> Result<Option<ResolvedFreqs>, VerifyError> {
    let vo = &response.vo;
    check_query_shape(params, query, vo)?;
    let mut term_roots = Vec::with_capacity(vo.terms.len());
    for tv in &vo.terms {
        term_roots.push(verify_term_prefix(params, tv)?);
    }
    let (num_terms, dict_root) = dict_root(vo, &term_roots)?;
    let (freqs, doc_table_root) = if params.mechanism.is_tra() {
        let (freqs, root) = docproof::resolve_doc_proofs(params, query, response)?;
        (Some(freqs), root)
    } else {
        (None, NO_DOC_TABLE_ROOT)
    };
    let num_docs = u32::try_from(params.num_docs)
        .map_err(|_| VerifyError::DocTableProof("collection size exceeds u32".into()))?;
    let manifest = publication_message(
        params.mechanism,
        num_terms,
        num_docs,
        &dict_root,
        &doc_table_root,
    );
    params
        .public_key
        .verify(&manifest, &vo.signature)
        .map_err(|_| VerifyError::ManifestSignature)?;
    Ok(freqs)
}

/// The VO must speak for this mechanism and exactly this query's terms.
fn check_query_shape(
    params: &VerifierParams,
    query: &Query,
    vo: &VerificationObject,
) -> Result<(), VerifyError> {
    if vo.mechanism != params.mechanism {
        return Err(VerifyError::QueryShapeMismatch(format!(
            "mechanism {} but owner deployed {}",
            vo.mechanism.name(),
            params.mechanism.name()
        )));
    }
    if vo.terms.len() != query.terms.len() {
        return Err(VerifyError::QueryShapeMismatch(format!(
            "{} term proofs for {} query terms",
            vo.terms.len(),
            query.terms.len()
        )));
    }
    for (tv, qt) in vo.terms.iter().zip(&query.terms) {
        if tv.term != qt.term {
            return Err(VerifyError::QueryShapeMismatch(format!(
                "term proof for {} where query has {}",
                tv.term, qt.term
            )));
        }
    }
    if vo.doc_table.is_some() != params.mechanism.is_tra() {
        return Err(VerifyError::DocTableProof(format!(
            "a {} reply must {}carry a document table",
            params.mechanism.name(),
            if params.mechanism.is_tra() {
                ""
            } else {
                "not "
            }
        )));
    }
    Ok(())
}

/// Reconstruct one term's root/head digest from its prefix + proof.
fn verify_term_prefix(params: &VerifierParams, tv: &TermVo) -> Result<Digest, VerifyError> {
    let li = tv.ft as usize;
    let k = tv.prefix.len();
    if k > li {
        return Err(VerifyError::MalformedProof(format!(
            "term {}: prefix of {k} entries exceeds f_t = {li}",
            tv.term
        )));
    }
    let leaf_digests: Vec<Digest> = match (&tv.prefix, params.mechanism.is_tra()) {
        (PrefixData::DocIds(ids), true) => ids
            .iter()
            .map(|&d| crate::auth::tra_leaf_digest(d))
            .collect(),
        (PrefixData::Entries(entries), false) => {
            entries.iter().map(crate::auth::tnra_leaf_digest).collect()
        }
        _ => {
            return Err(VerifyError::MalformedProof(format!(
                "term {}: prefix payload does not match mechanism",
                tv.term
            )))
        }
    };

    match (&tv.proof, params.mechanism.is_cmht()) {
        (TermProof::Mht(proof), false) => {
            let pairs: Vec<(usize, Digest)> = leaf_digests
                .iter()
                .enumerate()
                .map(|(i, &d)| (i, d))
                .collect();
            reconstruct_root(li, &pairs, proof).ok_or_else(|| {
                VerifyError::MalformedProof(format!("term {}: MHT proof shape", tv.term))
            })
        }
        (TermProof::Cmht(proof), true) => {
            reconstruct_head(li, params.chain_capacity(), &leaf_digests, proof).ok_or_else(|| {
                VerifyError::MalformedProof(format!("term {}: chain proof shape", tv.term))
            })
        }
        _ => Err(VerifyError::MalformedProof(format!(
            "term {}: proof kind does not match mechanism",
            tv.term
        ))),
    }
}

/// Reconstruct the dictionary-MHT root from the query terms' leaves —
/// each binding the term, its `f_t` and its reconstructed root — and the
/// reply's multi-proof. Returns the tree's claimed size `m`, which the
/// manifest binds, with the root.
fn dict_root(vo: &VerificationObject, term_roots: &[Digest]) -> Result<(u32, Digest), VerifyError> {
    let dict = vo
        .dict
        .as_ref()
        .ok_or_else(|| VerifyError::MalformedProof("missing dictionary-MHT proof".into()))?;
    let mut pairs: Vec<(usize, Digest)> = vo
        .terms
        .iter()
        .zip(term_roots)
        .map(|(tv, root)| (tv.term as usize, dict_leaf_digest(tv.term, tv.ft, root)))
        .collect();
    pairs.sort_unstable_by_key(|&(p, _)| p);
    pairs.dedup_by_key(|&mut (p, _)| p);
    let root = reconstruct_root(dict.num_terms as usize, &pairs, &dict.proof)
        .ok_or_else(|| VerifyError::MalformedProof("dictionary-MHT proof shape".into()))?;
    Ok((dict.num_terms, root))
}

fn compare_results(replayed: &QueryResult, reported: &QueryResult) -> Result<(), VerifyError> {
    if replayed.entries.len() != reported.entries.len() {
        return Err(VerifyError::ResultMismatch(format!(
            "{} entries reported, replay yields {}",
            reported.entries.len(),
            replayed.entries.len()
        )));
    }
    for (a, b) in replayed.entries.iter().zip(&reported.entries) {
        if a.doc != b.doc {
            return Err(VerifyError::ResultMismatch(format!(
                "rank holds document {} but replay yields {}",
                b.doc, a.doc
            )));
        }
        if (a.score - b.score).abs() > SCORE_EPS {
            return Err(VerifyError::ResultMismatch(format!(
                "document {} reported score {} but replay yields {}",
                b.doc, b.score, a.score
            )));
        }
    }
    Ok(())
}

// ---- VO-backed data sources for the replay --------------------------------

/// TNRA replay lists: the `⟨d, f⟩` prefixes from the VO.
struct TnraVoLists {
    lens: Vec<usize>,
    prefixes: Vec<Vec<ImpactEntry>>,
}

impl TnraVoLists {
    fn build(vo: &VerificationObject) -> Result<TnraVoLists, VerifyError> {
        let mut lens = Vec::with_capacity(vo.terms.len());
        let mut prefixes = Vec::with_capacity(vo.terms.len());
        for tv in &vo.terms {
            let PrefixData::Entries(entries) = &tv.prefix else {
                return Err(VerifyError::MalformedProof(
                    "TNRA VO without impact entries".into(),
                ));
            };
            // Defense in depth: the owner's lists are frequency-ordered;
            // an out-of-order prefix can only be a corrupt artifact.
            if entries
                .windows(2)
                .any(|pair| matches!(pair, [a, b] if a.weight < b.weight))
            {
                return Err(VerifyError::PrefixNotOrdered { term: tv.term });
            }
            lens.push(tv.ft as usize);
            prefixes.push(entries.clone());
        }
        Ok(TnraVoLists { lens, prefixes })
    }
}

impl ListAccess for TnraVoLists {
    fn list_len(&self, i: usize) -> usize {
        self.lens.get(i).copied().unwrap_or(0)
    }

    fn entry(&self, i: usize, pos: usize) -> Result<Option<ImpactEntry>, AccessError> {
        if pos >= self.list_len(i) {
            return Ok(None);
        }
        let prefix = self
            .prefixes
            .get(i)
            .ok_or_else(|| AccessError::new(format!("replay touched unknown query list {i}")))?;
        prefix.get(pos).copied().map(Some).ok_or_else(|| {
            AccessError::new(format!(
                "replay needs entry {pos} of query list {i}, prefix has {}",
                prefix.len()
            ))
        })
    }
}

/// TRA replay lists: doc-id prefixes whose weights are resolved *lazily*
/// through the authenticated document-MHT frequencies. Laziness matters:
/// buddy inclusion pads prefixes with entries beyond the cut-off whose
/// documents were never encountered and thus carry no document proof —
/// the replay never reads them, so they must not trigger a rejection.
struct TraVoLists<'a> {
    lens: Vec<usize>,
    prefixes: Vec<Vec<DocId>>,
    freqs: &'a ResolvedFreqs,
}

impl<'a> TraVoLists<'a> {
    fn build(
        vo: &VerificationObject,
        freqs: &'a ResolvedFreqs,
    ) -> Result<TraVoLists<'a>, VerifyError> {
        let mut lens = Vec::with_capacity(vo.terms.len());
        let mut prefixes = Vec::with_capacity(vo.terms.len());
        for tv in &vo.terms {
            let PrefixData::DocIds(ids) = &tv.prefix else {
                return Err(VerifyError::MalformedProof(
                    "TRA VO without doc-id prefix".into(),
                ));
            };
            lens.push(tv.ft as usize);
            prefixes.push(ids.clone());
        }
        Ok(TraVoLists {
            lens,
            prefixes,
            freqs,
        })
    }
}

impl ListAccess for TraVoLists<'_> {
    fn list_len(&self, i: usize) -> usize {
        self.lens.get(i).copied().unwrap_or(0)
    }

    fn entry(&self, i: usize, pos: usize) -> Result<Option<ImpactEntry>, AccessError> {
        if pos >= self.list_len(i) {
            return Ok(None);
        }
        let prefix = self
            .prefixes
            .get(i)
            .ok_or_else(|| AccessError::new(format!("replay touched unknown query list {i}")))?;
        let Some(&doc) = prefix.get(pos) else {
            return Err(AccessError::new(format!(
                "replay needs entry {pos} of query list {i}, prefix has {}",
                prefix.len()
            )));
        };
        let weight = self.freqs.weight_of(doc, i).ok_or_else(|| {
            AccessError::new(format!(
                "prefix doc {doc} of query list {i} has no certified frequency"
            ))
        })?;
        Ok(Some(ImpactEntry { doc, weight }))
    }
}

impl FreqAccess for ResolvedFreqs {
    fn weight(&self, d: DocId, i: usize) -> Result<f32, AccessError> {
        self.weight_of(d, i).ok_or_else(|| {
            AccessError::new(format!("frequency of doc {d} for query term #{i} unproven"))
        })
    }
}

/// Lookup map `doc → per-query-term weight` produced by document-proof
/// resolution; shared with the replay as its [`FreqAccess`].
pub(crate) type FreqMap = HashMap<DocId, Vec<Option<f32>>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{AuthConfig, AuthenticatedIndex};
    use crate::toy::{toy_contents, toy_index, toy_query};
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};

    fn setup(mechanism: Mechanism) -> (AuthenticatedIndex, VerifierParams) {
        let key = cached_keypair(TEST_KEY_BITS);
        let config = AuthConfig {
            key_bits: TEST_KEY_BITS,
            ..AuthConfig::new(mechanism)
        };
        let auth = AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents());
        let params = VerifierParams {
            public_key: key.public_key().clone(),
            layout: config.layout,
            mechanism,
            num_docs: 9,
            okapi: authsearch_index::OkapiParams::default(),
        };
        (auth, params)
    }

    #[test]
    fn missing_term_proof_rejected() {
        let (auth, params) = setup(Mechanism::TnraMht);
        let mut resp = auth.query(&toy_query(), 2, &toy_contents());
        resp.vo.terms.pop();
        assert!(matches!(
            verify(&params, &toy_query(), 2, &resp),
            Err(VerifyError::QueryShapeMismatch(_))
        ));
    }

    #[test]
    fn prefix_longer_than_ft_rejected() {
        let (auth, params) = setup(Mechanism::TnraMht);
        let mut resp = auth.query(&toy_query(), 2, &toy_contents());
        // Claim a tiny ft for a list with a longer prefix.
        resp.vo.terms[2].ft = 1;
        assert!(matches!(
            verify(&params, &toy_query(), 2, &resp),
            Err(VerifyError::MalformedProof(_))
        ));
    }

    #[test]
    fn prefix_kind_mismatch_rejected() {
        let (auth, params) = setup(Mechanism::TnraMht);
        let mut resp = auth.query(&toy_query(), 2, &toy_contents());
        // Swap in a TRA-style doc-id prefix under a TNRA mechanism.
        let ids = match &resp.vo.terms[0].prefix {
            PrefixData::Entries(entries) => entries.iter().map(|e| e.doc).collect(),
            PrefixData::DocIds(ids) => ids.clone(),
        };
        resp.vo.terms[0].prefix = PrefixData::DocIds(ids);
        assert!(matches!(
            verify(&params, &toy_query(), 2, &resp),
            Err(VerifyError::MalformedProof(_))
        ));
    }

    #[test]
    fn proof_kind_mismatch_rejected() {
        let (auth, params) = setup(Mechanism::TnraCmht);
        let mut resp = auth.query(&toy_query(), 2, &toy_contents());
        // Replace the chain proof with a plain-MHT proof.
        let digests = match &resp.vo.terms[0].proof {
            TermProof::Cmht(p) => p.tail.digests.clone(),
            TermProof::Mht(p) => p.digests.clone(),
        };
        resp.vo.terms[0].proof = TermProof::Mht(authsearch_crypto::MerkleProof { digests });
        assert!(matches!(
            verify(&params, &toy_query(), 2, &resp),
            Err(VerifyError::MalformedProof(_))
        ));
    }

    #[test]
    fn missing_manifest_signature_rejected() {
        for mechanism in Mechanism::ALL {
            let (auth, params) = setup(mechanism);
            let mut resp = auth.query(&toy_query(), 2, &toy_contents());
            resp.vo.signature.clear();
            assert_eq!(
                verify(&params, &toy_query(), 2, &resp),
                Err(VerifyError::ManifestSignature),
                "{mechanism:?}"
            );
        }
    }

    #[test]
    fn unordered_tnra_prefix_rejected() {
        let (auth, params) = setup(Mechanism::TnraMht);
        let mut resp = auth.query(&toy_query(), 2, &toy_contents());
        // Make a prefix weight-increasing; even with a fixed-up proof the
        // ordering screen fires first.
        if let PrefixData::Entries(entries) = &mut resp.vo.terms[2].prefix {
            entries.reverse();
        }
        let err = verify(&params, &toy_query(), 2, &resp).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::PrefixNotOrdered { .. } | VerifyError::ManifestSignature
        ));
    }

    #[test]
    fn doc_proof_for_unencountered_doc_is_harmless_but_duplicates_reject() {
        // Adding an unrelated (valid) doc proof is not itself an attack —
        // the result must still match — but duplicates are rejected.
        let (auth, params) = setup(Mechanism::TraMht);
        let resp = auth.query(&toy_query(), 2, &toy_contents());
        let mut dup = resp.clone();
        dup.vo.docs.push(resp.vo.docs[0].clone());
        assert!(matches!(
            verify(&params, &toy_query(), 2, &dup),
            Err(VerifyError::MalformedProof(_))
        ));
    }

    #[test]
    fn extra_unrelated_content_rejected_only_if_results_differ() {
        // Appending extra content for a non-result doc changes nothing
        // the verifier checks (contents are looked up by result doc id).
        let (auth, params) = setup(Mechanism::TraMht);
        let mut resp = auth.query(&toy_query(), 2, &toy_contents());
        resp.contents.push((8, b"irrelevant".to_vec()));
        assert!(verify(&params, &toy_query(), 2, &resp).is_ok());
    }

    #[test]
    fn forged_dictionary_proof_rejected() {
        // Zeroed digests of the right shape reconstruct another root; a
        // proof of the wrong shape, or none at all, is malformed.
        let (auth, params) = setup(Mechanism::TnraMht);
        let resp = auth.query(&toy_query(), 2, &toy_contents());
        let dict = resp.vo.dict.clone().unwrap();
        let mut zeroed = resp.clone();
        zeroed.vo.dict.as_mut().unwrap().proof.digests =
            vec![authsearch_crypto::Digest::ZERO; dict.proof.digests.len()];
        assert_eq!(
            verify(&params, &toy_query(), 2, &zeroed),
            Err(VerifyError::ManifestSignature)
        );
        let mut short = resp.clone();
        short.vo.dict.as_mut().unwrap().proof.digests.pop();
        let mut missing = resp;
        missing.vo.dict = None;
        for bad in [short, missing] {
            assert!(matches!(
                verify(&params, &toy_query(), 2, &bad),
                Err(VerifyError::MalformedProof(_))
            ));
        }
    }

    #[test]
    fn empty_query_verifies_trivially() {
        let (auth, params) = setup(Mechanism::TnraCmht);
        let q = Query::default();
        let resp = auth.query(&q, 5, &toy_contents());
        assert!(resp.result.entries.is_empty());
        let verified = verify(&params, &q, 5, &resp).unwrap();
        assert!(verified.result.entries.is_empty());
    }

    #[test]
    fn honest_conjunctive_verifies_under_every_mechanism() {
        for mechanism in Mechanism::ALL {
            let (auth, params) = setup(mechanism);
            let resp = auth.query_conjunctive(&toy_query(), 2, &toy_contents());
            let verified = verify_conjunctive(&params, &toy_query(), 2, &resp)
                .unwrap_or_else(|e| panic!("{mechanism:?}: {e}"));
            assert_eq!(verified.result.docs(), vec![6], "{mechanism:?}");
        }
    }

    #[test]
    fn empty_conjunctive_query_verifies_trivially() {
        let (auth, params) = setup(Mechanism::TraMht);
        let q = Query::default();
        let resp = auth.query_conjunctive(&q, 5, &toy_contents());
        let verified = verify_conjunctive(&params, &q, 5, &resp).unwrap();
        assert!(verified.result.entries.is_empty());
    }

    #[test]
    fn widened_conjunctive_result_rejected() {
        // The engine reports a doc that misses a conjunct (d5 lacks
        // 'sleeps' and 'dark') with plausible score and valid proofs —
        // the replay must narrow the intersection back to [6].
        let (auth, params) = setup(Mechanism::TnraMht);
        let mut resp = auth.query_conjunctive(&toy_query(), 2, &toy_contents());
        let score = resp.result.entries[0].score / 2.0;
        resp.result
            .entries
            .push(crate::types::ResultEntry { doc: 5, score });
        resp.contents.push((5, toy_contents()[5].clone()));
        assert!(matches!(
            verify_conjunctive(&params, &toy_query(), 2, &resp),
            Err(VerifyError::ResultMismatch(_))
        ));
    }

    #[test]
    fn conjunctive_vo_fails_disjunctive_verification_and_vice_versa() {
        // Mode confusion must not slip through: a conjunctive VO's
        // zero-length prefixes cannot substantiate a disjunctive replay
        // (TRA), and a disjunctive VO's short prefixes fail the
        // conjunctive completeness bar. Results differ for the toy
        // query ([6] vs [6, 5]), so the two VOs are never interchangeable.
        let (auth, params) = setup(Mechanism::TraMht);
        let conj = auth.query_conjunctive(&toy_query(), 2, &toy_contents());
        let disj = auth.query(&toy_query(), 2, &toy_contents());
        assert_ne!(conj.result, disj.result);
        assert!(verify(&params, &toy_query(), 2, &conj).is_err());
        assert!(verify_conjunctive(&params, &toy_query(), 2, &disj).is_err());
    }
}
