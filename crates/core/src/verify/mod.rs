//! User-side result verification.
//!
//! The verifier receives the query result, the VO, and (for TRA) the
//! result documents themselves, and decides whether the result satisfies
//! the paper's correctness criteria with respect to the owner's signed
//! index. The strategy:
//!
//! 1. **Authenticate the inputs** against the owner's publication the
//!    client holds ([`VerifierParams`], checked once under the owner's
//!    key by [`VerifierParams::open`]): reconstruct every
//!    term-(chain-)MHT root from the VO's list prefixes and
//!    complementary digests — under TRA also every term's doc-order
//!    root from its proof of the proved documents' facts, resolving each
//!    (present value, or a proven absence by adjacent bracketing leaves;
//!    `docproof`) — and from those roots (each bound to its term and
//!    `f_t`) the dictionary-MHT root, which must be the held manifest's
//!    over its `m` leaves; for TRA then hash every result document's
//!    content, which must be the held `h(doc)`. A reply carries no
//!    signature: nothing in it is checked under the key.
//! 2. **Replay the deterministic threshold algorithm** over exactly those
//!    authenticated inputs (a conjunctive query instead recomputes the
//!    ranked intersection, see [`verify`]). If the replay ever needs data
//!    the VO does not substantiate, the VO is insufficient and the result
//!    is rejected; a replay that terminates must reproduce the reported
//!    result exactly, and the VO's proved documents must be exactly the
//!    documents the replay met, in the order it met them.
//!
//! Authentic prefixes + deterministic replay imply the correctness
//! criteria of §3.1: the threshold logic guarantees no unseen document
//! can outscore the reported ones (completeness), the recomputed scores
//! guarantee correct ranking, and the roots the owner signed rule out
//! spurious entries.

mod docproof;

use crate::access::{AccessError, FreqAccess, ListAccess};
use crate::auth::serve::QueryResponse;
use crate::auth::{combined_root, dict_leaf_digest};
use crate::publication::SignedPublication;
use crate::types::{DocIdMap, Query, QueryError, QueryMode, QueryResult};
use crate::vo::{Mechanism, PrefixData, TermProof, TermVo, VerificationObject};
use crate::{tnra, tra};
use authsearch_corpus::{DocId, TermId};
use authsearch_crypto::{reconstruct_head, reconstruct_root, Digest, RsaPublicKey};
use authsearch_index::{BlockLayout, ImpactEntry};
use docproof::ResolvedFreqs;
use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;

/// Why a query result was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// VO does not match the query's shape (missing/mismatched terms).
    QueryShapeMismatch(String),
    /// The query was refused before any proof was checked: the posed
    /// pairs do not make a [`Query`], or the engine refused it.
    MalformedQuery(QueryError),
    /// A term list's signature did not validate (the §3.2 baseline,
    /// which signs every list; [`crate::baseline`]).
    TermSignature {
        /// The offending term.
        term: TermId,
    },
    /// Publication bytes ([`VerifierParams::open`]) do not decode: cut
    /// short, longer than their manifest says, or not a manifest.
    MalformedPublication(String),
    /// The publication's manifest signature does not validate under the
    /// owner's key.
    ManifestSignature,
    /// The publication's document records do not fold to the
    /// document-table root its manifest signs.
    DocTableRoot,
    /// The dictionary-MHT root or size `m` a reply's proofs reconstruct
    /// is not the held manifest's: a term's list, `f_t` or position, or
    /// under TRA a revealed doc-order leaf (a weight, doc id or
    /// position), differs from what the owner signed, or the reply is
    /// another publication's.
    DictionaryRoot,
    /// A result document's content (TRA) does not hash to the held
    /// `h(doc)`.
    ContentDigest {
        /// The document.
        doc: DocId,
    },
    /// A reply proves or ranks a document outside the held collection
    /// (TRA).
    UnknownDocument {
        /// The document.
        doc: DocId,
    },
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
    /// A proved document's query-term frequency (TRA) is neither
    /// present nor bracketed as absent in the term's doc-order proof.
    FrequencyUnproven {
        /// Document in question.
        doc: DocId,
        /// Query term in question.
        term: TermId,
    },
    /// A document the conjunctive recomputation reads is not among the
    /// proved documents (TRA).
    MissingDocProof {
        /// The document.
        doc: DocId,
    },
    /// A result document's content was not delivered.
    MissingContent {
        /// The document.
        doc: DocId,
    },
    /// A document's content was delivered more than once (TRA): only one
    /// copy can be the one its held digest authenticates.
    DuplicateContent {
        /// The document.
        doc: DocId,
    },
    /// The replayed result differs from the reported one.
    ResultMismatch(String),
    /// A conjunctive VO does not reveal enough of a term's list for the
    /// intersection to be settled: under TRA, an anchor prefix short of
    /// its signed `f_t` inside which the replayed scan does not stop, or
    /// a withheld head of another list that the stop needs; under TNRA,
    /// any list short of its signed `f_t`.
    ConjunctIncomplete {
        /// The term whose list is revealed too short.
        term: TermId,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::QueryShapeMismatch(w) => write!(f, "VO/query mismatch: {w}"),
            VerifyError::MalformedQuery(e) => write!(f, "malformed posed query: {e}"),
            VerifyError::TermSignature { term } => {
                write!(f, "invalid signature on term {term}'s inverted list")
            }
            VerifyError::MalformedPublication(w) => write!(f, "malformed publication: {w}"),
            VerifyError::ManifestSignature => write!(f, "invalid manifest signature"),
            VerifyError::DocTableRoot => write!(
                f,
                "the publication's documents do not fold to the signed document-table root"
            ),
            VerifyError::DictionaryRoot => write!(
                f,
                "the reply's dictionary-MHT is not the held publication's"
            ),
            VerifyError::ContentDigest { doc } => write!(
                f,
                "content of result document {doc} does not hash to its held digest"
            ),
            VerifyError::UnknownDocument { doc } => {
                write!(f, "document {doc} is outside the publication's collection")
            }
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
                write!(f, "no proof of the facts of encountered document {doc}")
            }
            VerifyError::MissingContent { doc } => {
                write!(f, "content of result document {doc} missing")
            }
            VerifyError::DuplicateContent { doc } => {
                write!(f, "content of document {doc} delivered twice")
            }
            VerifyError::ResultMismatch(w) => write!(f, "result incorrect: {w}"),
            VerifyError::ConjunctIncomplete { term } => write!(
                f,
                "term {term}'s list revealed too short: conjunctive completeness unproven"
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
    /// The result recomputed from the authenticated inputs, which the
    /// reported one matched: it satisfies the correctness criteria.
    pub result: QueryResult,
}

/// What a client verifies against: the owner's public key, the block
/// layout, and the owner's publication (`crate::publication`) checked
/// under that key — the signed manifest and, under TRA, each document's
/// content digest. The publication sits behind one
/// `Arc`, so clones share it; [`VerifierParams::held_bytes`] is what it
/// costs a client to hold.
///
/// The owner's own parameters come with the publication
/// ([`crate::DataOwner::publish_index`]); a client holding only the key
/// takes the publication in from bytes with [`VerifierParams::open`],
/// fetched from anywhere, the untrusted engine included
/// ([`crate::Connection::connect_with_key`]).
#[derive(Debug, Clone)]
pub struct VerifierParams {
    public_key: RsaPublicKey,
    layout: BlockLayout,
    publication: Arc<SignedPublication>,
}

impl VerifierParams {
    /// Take in publication bytes ([`VerifierParams::publication_bytes`])
    /// under the owner's `public_key`: one RSA verification of the
    /// manifest, one fold of the document records to the signed
    /// document-table root. Bytes that do not decode are
    /// [`VerifyError::MalformedPublication`], a signature that does not
    /// validate [`VerifyError::ManifestSignature`], and records that do
    /// not fold to the signed root [`VerifyError::DocTableRoot`].
    pub fn open(
        public_key: RsaPublicKey,
        layout: BlockLayout,
        bytes: &[u8],
    ) -> Result<VerifierParams, VerifyError> {
        let publication = SignedPublication::open(&public_key, bytes)?;
        Ok(VerifierParams::held(
            public_key,
            layout,
            Arc::new(publication),
        ))
    }

    /// Parameters over a publication already checked (or made) by the
    /// caller.
    pub(crate) fn held(
        public_key: RsaPublicKey,
        layout: BlockLayout,
        publication: Arc<SignedPublication>,
    ) -> VerifierParams {
        VerifierParams {
            public_key,
            layout,
            publication,
        }
    }

    /// The owner's public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public_key
    }

    /// Block layout (for chain-MHT capacities).
    pub fn layout(&self) -> BlockLayout {
        self.layout
    }

    /// The mechanism the owner deployed.
    pub fn mechanism(&self) -> Mechanism {
        self.publication.manifest.mechanism
    }

    /// Collection size `n` (feeds `w_{Q,t}`).
    pub fn num_docs(&self) -> usize {
        self.publication.manifest.num_docs as usize
    }

    /// The publication's encoding, as [`VerifierParams::open`] reads it
    /// and a server sends it in reply to
    /// [`crate::wire::kind::REQ_PUBLICATION`].
    pub fn publication_bytes(&self) -> Vec<u8> {
        self.publication.to_bytes()
    }

    /// Bytes held for checking replies: the 55-byte manifest and, under
    /// TRA, 16 per document.
    pub fn held_bytes(&self) -> usize {
        self.publication.held_bytes()
    }

    /// The held publication.
    pub(crate) fn publication(&self) -> &SignedPublication {
        &self.publication
    }

    fn chain_capacity(&self) -> usize {
        let leaf = if self.mechanism().is_tra() { 4 } else { 8 };
        self.layout.chain_capacity(leaf)
    }
}

/// Score comparison tolerance. Engine and verifier execute the identical
/// f64 operations in the identical order, and Rust never contracts
/// `a * b + c` into a fused multiply-add on its own, so a replay
/// reproduces the engine's scores bit for bit and any real discrepancy
/// is a lie. The tolerance absorbs nothing a replay produces; it stays
/// only until replayed scores are compared bit for bit, which deletes it
/// (ROADMAP.md, "The verdict is a function of the reply's bytes").
const SCORE_EPS: f64 = 1e-9;

/// Verify a response against a query whose weights the caller already
/// trusts (`query.wq` computed locally, or the toy example's published
/// weights), under the query's own [`QueryMode`]. `r` is the result size
/// the user requested.
///
/// Both modes authenticate the same inputs; they differ in what they
/// recompute from them:
///
/// * **Disjunctive** (the paper's model): the deterministic threshold
///   algorithm is replayed over the authenticated prefixes.
/// * **Conjunctive**: the result must be the *exact* top-`r` of the
///   documents containing **every** query term. Every member is on the
///   anchor list (smallest signed `f_t`, `crate::conjunctive::anchor_index`
///   — recomputed here from the signed values, never taken from the
///   server). Under **TRA** the anchor is either revealed in full and
///   ranked whole, or revealed as a prefix: then every other list must
///   reveal its head, and the replayed scan must reach its threshold stop
///   inside the prefix, on the front the engine stopped on
///   ([`VerifyError::ConjunctIncomplete`] otherwise). Each scanned
///   document's membership in the other lists is settled by the terms'
///   authenticated doc-order proofs: a revealed `⟨d, w⟩` leaf proves
///   presence, an adjacent bracketing pair proves absence — so no
///   conjunct can be silently dropped and no outsider smuggled in. Under **TNRA**
///   every query term's list must be revealed in full
///   ([`VerifyError::ConjunctIncomplete`] otherwise) and absence is
///   proven by exhaustion against the signed roots. The scan and its
///   ranking are byte-for-byte the engine's own code
///   (`crate::conjunctive`), so any score or ordering deviation is a
///   lie, not a rounding artifact.
pub fn verify(
    params: &VerifierParams,
    query: &Query,
    r: usize,
    response: &QueryResponse,
) -> Result<VerifiedResult, VerifyError> {
    // Step 1: authenticate every list prefix and document fact.
    let inputs = authenticate(params, query, response)?;

    // Step 2: recompute the result from the authenticated inputs alone.
    let (expected, met) = match query.mode() {
        QueryMode::Disjunctive => replay(&inputs, query, r)?,
        QueryMode::Conjunctive => intersect(&inputs, query, r)?,
    };

    // Step 3: the reported result must equal the recomputed one. The
    // caller gets the recomputed one: its scores came from
    // authenticated inputs.
    compare_results(&expected, &response.result)?;
    // Step 4: the reply proves exactly the documents the recomputation
    // met, in the order it met them.
    check_proof_order(&response.vo.docs, &met)?;

    Ok(VerifiedResult { result: expected })
}

/// What [`authenticate`] vouches for: per query term, in query order,
/// the signed `f_t` and the revealed prefix, and under TRA the certified
/// frequencies of the encountered documents.
enum Inputs<'a> {
    Tra(TraVoLists<'a>),
    Tnra(TnraVoLists<'a>),
}

/// A recomputed result, and the documents whose proofs the reply must
/// carry, in proof order.
type Recomputed = (QueryResult, Vec<DocId>);

/// The disjunctive replay: the mechanism's threshold algorithm over the
/// authenticated inputs. If it needs data the VO does not substantiate,
/// the VO is insufficient. TRA proves the documents it met; TNRA none.
fn replay(inputs: &Inputs, query: &Query, r: usize) -> Result<Recomputed, VerifyError> {
    Ok(match inputs {
        Inputs::Tra(lists) => {
            let outcome = tra::run(lists, &lists.freqs, query, r)?;
            (outcome.result, outcome.encountered)
        }
        Inputs::Tnra(lists) => (tnra::run(lists, query, r)?.result, Vec::new()),
    })
}

/// The conjunctive recomputation: the ranked intersection over the
/// anchor list's revealed documents, once the reveal is shown to settle
/// it. Under TRA the reply proves the whole anchor when it is complete,
/// else the early reveal's documents; under TNRA none.
fn intersect(inputs: &Inputs, query: &Query, r: usize) -> Result<Recomputed, VerifyError> {
    let term = |i: usize| query.terms().get(i).map_or(0, |qt| qt.term);
    let wq: Vec<f64> = query.terms().iter().map(|qt| qt.wq).collect();
    // The anchor is derived from the *signed* f_t values: understating
    // one to shrink the reveal obligation breaks the manifest signature
    // first.
    match inputs {
        Inputs::Tra(lists) => {
            let anchor = crate::conjunctive::anchor_index(&lists.lens);
            let candidates = lists.prefixes.get(anchor).ok_or_else(|| {
                VerifyError::MalformedProof(format!("anchor {anchor} has no VO term"))
            })?;
            // The authenticated doc-order proofs certify, for every
            // proved document × query term, either the weight or a
            // proven absence; the scan may read no other document.
            let weight = |d: DocId, i: usize| lists.freqs.weight_of(d, i).ok_or(d);
            let unproven = |doc: DocId| VerifyError::MissingDocProof { doc };
            // A complete anchor is ranked whole. Otherwise the scan must
            // stop inside the revealed prefix, against the proven head
            // of every other list.
            let complete = lists.lens.get(anchor) == Some(&candidates.len());
            let heads = if complete {
                None
            } else {
                let mut heads = Vec::with_capacity(lists.prefixes.len());
                for (j, prefix) in lists.prefixes.iter().enumerate() {
                    heads.push(if j == anchor {
                        0.0
                    } else {
                        let &head = prefix
                            .first()
                            .ok_or(VerifyError::ConjunctIncomplete { term: term(j) })?;
                        weight(head, j).map_err(unproven)?
                    });
                }
                Some(heads)
            };
            let scan = crate::conjunctive::rank_intersection(
                anchor,
                candidates.iter().copied(),
                &wq,
                heads.as_deref(),
                weight,
                r,
            )
            .map_err(unproven)?;
            if complete {
                Ok((scan.result, candidates.to_vec()))
            } else if scan.stopped {
                let met = candidates.iter().take(scan.popped + 1).copied();
                let heads = lists.prefixes.iter().filter_map(|p| p.first().copied());
                Ok((scan.result, crate::conjunctive::early_proofs(met, heads)))
            } else {
                Err(VerifyError::ConjunctIncomplete { term: term(anchor) })
            }
        }
        Inputs::Tnra(lists) => {
            // Every list fully revealed → membership lookups by map,
            // absence by exhaustion.
            for (i, prefix) in lists.prefixes.iter().enumerate() {
                if lists.lens.get(i) != Some(&prefix.len()) {
                    return Err(VerifyError::ConjunctIncomplete { term: term(i) });
                }
            }
            let anchor = crate::conjunctive::anchor_index(&lists.lens);
            let candidates = lists.prefixes.get(anchor).copied().unwrap_or_default();
            let maps: Vec<DocIdMap<f32>> = lists
                .prefixes
                .iter()
                .map(|prefix| prefix.iter().map(|e| (e.doc, e.weight)).collect())
                .collect();
            let Ok(scan) = crate::conjunctive::rank_intersection(
                anchor,
                candidates.iter().map(|e| e.doc),
                &wq,
                None,
                |d, i| {
                    Ok::<_, Infallible>(maps.get(i).and_then(|m| m.get(&d)).copied().unwrap_or(0.0))
                },
                r,
            );
            Ok((scan.result, Vec::new()))
        }
    }
}

/// Step 1 of verification: check the VO's shape, reconstruct every term
/// root — under TRA combined with its doc-order root, resolving the
/// proved documents' facts on the way — and the dictionary root, and
/// compare the latter with the held manifest's; then under TRA check
/// every result document's content against its held digest. Only then
/// are the prefixes handed out, TNRA's after the ordering screen.
fn authenticate<'a>(
    params: &VerifierParams,
    query: &Query,
    response: &'a QueryResponse,
) -> Result<Inputs<'a>, VerifyError> {
    let vo = &response.vo;
    let held = params.publication();
    check_query_shape(params, query, vo)?;
    let mut freqs = if params.mechanism().is_tra() {
        Some(ResolvedFreqs::new(held, &vo.docs, vo.terms.len())?)
    } else {
        None
    };
    let mut term_roots = Vec::with_capacity(vo.terms.len());
    for (i, tv) in vo.terms.iter().enumerate() {
        let root = verify_term_prefix(params, tv)?;
        term_roots.push(match (&mut freqs, vo.facts.get(i)) {
            (Some(freqs), Some(facts)) => {
                let doc_root = freqs.resolve_term(i, tv.term, tv.ft as usize, facts, &vo.docs)?;
                combined_root(&root, &doc_root)
            }
            _ => root,
        });
    }
    check_dict_root(held, vo, &term_roots)?;
    if freqs.is_some() {
        docproof::check_contents(held, response)?;
    }

    let lens = vo.terms.iter().map(|tv| tv.ft as usize).collect();
    Ok(match freqs {
        Some(freqs) => Inputs::Tra(TraVoLists {
            lens,
            prefixes: vo
                .terms
                .iter()
                .map(|tv| match &tv.prefix {
                    PrefixData::DocIds(ids) => Ok(ids.as_slice()),
                    PrefixData::Entries(_) => Err(payload_mismatch(tv.term)),
                })
                .collect::<Result<_, _>>()?,
            freqs,
        }),
        None => Inputs::Tnra(TnraVoLists {
            lens,
            prefixes: vo
                .terms
                .iter()
                .map(|tv| match &tv.prefix {
                    // Defense in depth: the owner's lists are
                    // frequency-ordered; an out-of-order prefix can only
                    // be a corrupt artifact.
                    PrefixData::Entries(entries)
                        if entries
                            .windows(2)
                            .any(|pair| matches!(pair, [a, b] if a.weight < b.weight)) =>
                    {
                        Err(VerifyError::PrefixNotOrdered { term: tv.term })
                    }
                    PrefixData::Entries(entries) => Ok(entries.as_slice()),
                    PrefixData::DocIds(_) => Err(payload_mismatch(tv.term)),
                })
                .collect::<Result<_, _>>()?,
            freqs: (),
        }),
    })
}

fn payload_mismatch(term: TermId) -> VerifyError {
    VerifyError::MalformedProof(format!(
        "term {term}: prefix payload does not match mechanism"
    ))
}

/// The VO must speak for this mechanism and exactly this query's terms.
fn check_query_shape(
    params: &VerifierParams,
    query: &Query,
    vo: &VerificationObject,
) -> Result<(), VerifyError> {
    if vo.mechanism != params.mechanism() {
        return Err(VerifyError::QueryShapeMismatch(format!(
            "mechanism {} but owner deployed {}",
            vo.mechanism.name(),
            params.mechanism().name()
        )));
    }
    if vo.terms.len() != query.terms().len() {
        return Err(VerifyError::QueryShapeMismatch(format!(
            "{} term proofs for {} query terms",
            vo.terms.len(),
            query.terms().len()
        )));
    }
    for (tv, qt) in vo.terms.iter().zip(query.terms()) {
        if tv.term != qt.term {
            return Err(VerifyError::QueryShapeMismatch(format!(
                "term proof for {} where query has {}",
                tv.term, qt.term
            )));
        }
    }
    // TRA proves its documents' facts once per query term; TNRA none.
    let want = if vo.mechanism.is_tra() {
        vo.terms.len()
    } else {
        0
    };
    if vo.facts.len() != want {
        return Err(VerifyError::QueryShapeMismatch(format!(
            "{} doc-order proofs for {want} expected",
            vo.facts.len()
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
    if matches!(tv.prefix, PrefixData::DocIds(_)) != params.mechanism().is_tra() {
        return Err(payload_mismatch(tv.term));
    }
    match (&tv.proof, params.mechanism().is_cmht()) {
        (TermProof::Mht(proof), false) => {
            let pairs: Vec<(usize, Digest)> = prefix_leaves(&tv.prefix, |i, d| (i, d));
            reconstruct_root(li, &pairs, proof).ok_or_else(|| {
                VerifyError::MalformedProof(format!("term {}: MHT proof shape", tv.term))
            })
        }
        (TermProof::Cmht(proof), true) => {
            let leaf_digests: Vec<Digest> = prefix_leaves(&tv.prefix, |_, d| d);
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

/// `each(i, leaf digest of entry i)` over a term's revealed prefix, in
/// order, collected.
fn prefix_leaves<T, B: FromIterator<T>>(
    prefix: &PrefixData,
    each: impl Fn(usize, Digest) -> T,
) -> B {
    match prefix {
        PrefixData::DocIds(ids) => ids
            .iter()
            .enumerate()
            .map(|(i, &d)| each(i, crate::auth::tra_leaf_digest(d)))
            .collect(),
        PrefixData::Entries(entries) => entries
            .iter()
            .enumerate()
            .map(|(i, e)| each(i, crate::auth::tnra_leaf_digest(e)))
            .collect(),
    }
}

/// Reconstruct the dictionary-MHT root from the query terms' leaves —
/// each binding the term, its `f_t` and its reconstructed root — and the
/// reply's multi-proof, over the held manifest's `m` leaves, and compare
/// it with the held root. A reply that claims another `m` is another
/// publication's.
fn check_dict_root(
    held: &SignedPublication,
    vo: &VerificationObject,
    term_roots: &[Digest],
) -> Result<(), VerifyError> {
    let dict = vo
        .dict
        .as_ref()
        .ok_or_else(|| VerifyError::MalformedProof("missing dictionary-MHT proof".into()))?;
    let manifest = &held.manifest;
    if dict.num_terms != manifest.num_terms {
        return Err(VerifyError::DictionaryRoot);
    }
    let mut pairs: Vec<(usize, Digest)> = vo
        .terms
        .iter()
        .zip(term_roots)
        .map(|(tv, root)| (tv.term as usize, dict_leaf_digest(tv.term, tv.ft, root)))
        .collect();
    // The VO's terms are the query's (`check_query_shape`), so distinct.
    pairs.sort_unstable_by_key(|&(p, _)| p);
    let root = reconstruct_root(dict.num_terms as usize, &pairs, &dict.proof)
        .ok_or_else(|| VerifyError::MalformedProof("dictionary-MHT proof shape".into()))?;
    if root != manifest.dict_root {
        return Err(VerifyError::DictionaryRoot);
    }
    Ok(())
}

/// The reply's proved documents must be exactly the documents `met`, in
/// that order; any other list is malformed at its first difference.
fn check_proof_order(proofs: &[DocId], met: &[DocId]) -> Result<(), VerifyError> {
    let at = |k: usize| (proofs.get(k).copied(), met.get(k).copied());
    let Some(k) = (0..proofs.len().max(met.len())).find(|&k| at(k).0 != at(k).1) else {
        return Ok(());
    };
    let doc = |d: Option<DocId>| d.map_or("no document".into(), |d| format!("document {d}"));
    let (proved, want) = at(k);
    Err(VerifyError::MalformedProof(format!(
        "document proof {k} is for {} where the replay met {}",
        doc(proved),
        doc(want)
    )))
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
        // Accept only a score within the tolerance: a NaN is within
        // none.
        let close = (a.score - b.score).abs() <= SCORE_EPS;
        if !close {
            return Err(VerifyError::ResultMismatch(format!(
                "document {} reported score {} but replay yields {}",
                b.doc, b.score, a.score
            )));
        }
    }
    Ok(())
}

// ---- VO-backed data sources for the replay --------------------------------

/// Replay lists borrowed from the VO: per query term its signed length
/// and its revealed prefix, of `⟨d, f⟩` entries under TNRA and of doc
/// ids under TRA, whose weights `freqs` looks up *lazily* among the
/// authenticated facts of the proved documents. Laziness matters: buddy
/// inclusion pads prefixes with entries beyond the cut-off whose
/// documents were never encountered and thus are not proved — the
/// replay never reads them, so they must not trigger a rejection.
struct VoLists<'a, T, F = ()> {
    lens: Vec<usize>,
    prefixes: Vec<&'a [T]>,
    freqs: F,
}

type TnraVoLists<'a> = VoLists<'a, ImpactEntry>;
type TraVoLists<'a> = VoLists<'a, DocId, ResolvedFreqs>;

impl<T: Copy, F> VoLists<'_, T, F>
where
    Self: ListAccess,
{
    /// Entry `pos` of query list `i`: `None` past the list's signed
    /// length, an error where its revealed prefix stops short.
    fn revealed(&self, i: usize, pos: usize) -> Result<Option<T>, AccessError> {
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

impl ListAccess for TnraVoLists<'_> {
    fn list_len(&self, i: usize) -> usize {
        self.lens.get(i).copied().unwrap_or(0)
    }

    fn entry(&self, i: usize, pos: usize) -> Result<Option<ImpactEntry>, AccessError> {
        self.revealed(i, pos)
    }
}

impl ListAccess for TraVoLists<'_> {
    fn list_len(&self, i: usize) -> usize {
        self.lens.get(i).copied().unwrap_or(0)
    }

    fn entry(&self, i: usize, pos: usize) -> Result<Option<ImpactEntry>, AccessError> {
        let Some(doc) = self.revealed(i, pos)? else {
            return Ok(None);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{AuthConfig, AuthenticatedIndex};
    use crate::toy::{toy_contents, toy_index, toy_query};
    use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};

    fn conjunctive_toy_query() -> Query {
        toy_query().with_mode(QueryMode::Conjunctive)
    }

    fn setup(mechanism: Mechanism) -> (AuthenticatedIndex, VerifierParams) {
        let key = cached_keypair(TEST_KEY_BITS);
        let config = AuthConfig::new(mechanism);
        let auth = AuthenticatedIndex::build(toy_index(), &key, config, &toy_contents());
        let params = auth.verifier_params();
        (auth, params)
    }

    #[test]
    fn missing_term_proof_rejected() {
        let (auth, params) = setup(Mechanism::TnraMht);
        let mut resp = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
        resp.vo.terms.pop();
        assert!(matches!(
            verify(&params, &toy_query(), 2, &resp),
            Err(VerifyError::QueryShapeMismatch(_))
        ));
    }

    #[test]
    fn prefix_longer_than_ft_rejected() {
        let (auth, params) = setup(Mechanism::TnraMht);
        let mut resp = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
        // Claim a tiny ft for a list with a longer prefix.
        resp.vo.terms[2].ft = 1;
        assert!(matches!(
            verify(&params, &toy_query(), 2, &resp),
            Err(VerifyError::MalformedProof(_))
        ));
    }

    #[test]
    fn over_long_tnra_query_is_a_typed_error() {
        // An authentic VO of 65 fully revealed lists (a PSCAN outcome, so
        // the engine's TNRA never runs): authentication passes, and the
        // replay refuses the query instead of panicking.
        let corpus = authsearch_corpus::SyntheticConfig::tiny(150, 23).generate();
        let owner = crate::owner::DataOwner::with_cached_key(TEST_KEY_BITS);
        let config = AuthConfig::new(Mechanism::TnraCmht);
        let publication = owner.publish(&corpus, config);
        let auth = &publication.auth;
        let terms: Vec<TermId> = (0..=tnra::MAX_QUERY_TERMS as TermId).collect();
        let query = Query::from_term_ids(auth.index(), &terms);
        let lists = crate::access::IndexLists::new(auth.index(), &query);
        let outcome = crate::pscan::run(&lists, &query, 2).unwrap();
        let resp = auth.respond(&query, outcome, &corpus);
        match verify(&publication.verifier_params, &query, 2, &resp) {
            Err(VerifyError::InsufficientData(what)) => {
                assert!(what.contains("65 terms"), "{what}")
            }
            other => panic!("65-term TNRA replay gave {other:?}"),
        }
    }

    #[test]
    fn prefix_kind_mismatch_rejected() {
        let (auth, params) = setup(Mechanism::TnraMht);
        let mut resp = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
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
        let mut resp = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
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
        // A publication without its signature does not open, and its
        // bytes with it do, under every mechanism.
        for mechanism in Mechanism::ALL {
            let (_, params) = setup(mechanism);
            let (key, layout) = (params.public_key().clone(), params.layout());
            let mut unsigned = params.publication().clone();
            unsigned.signature.clear();
            assert_eq!(
                VerifierParams::open(key.clone(), layout, &unsigned.to_bytes()).err(),
                Some(VerifyError::ManifestSignature),
                "{mechanism:?}"
            );
            let opened = VerifierParams::open(key, layout, &params.publication_bytes()).unwrap();
            assert_eq!(opened.publication(), params.publication(), "{mechanism:?}");
        }
    }

    #[test]
    fn unordered_tnra_prefix_rejected() {
        let (auth, params) = setup(Mechanism::TnraMht);
        let mut resp = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
        // Make a prefix weight-increasing; even with a fixed-up proof the
        // ordering screen fires first.
        if let PrefixData::Entries(entries) = &mut resp.vo.terms[2].prefix {
            entries.reverse();
        }
        let err = verify(&params, &toy_query(), 2, &resp).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::PrefixNotOrdered { .. } | VerifyError::DictionaryRoot
        ));
    }

    #[test]
    fn doc_proofs_must_be_the_replays_encounters_in_order() {
        // An honest proof of a document the scan never met, a duplicate,
        // or a proof in a TNRA reply, which proves no document: each is
        // malformed, named by the first proof off the replay's list.
        let (auth, params) = setup(Mechanism::TraMht);
        let resp = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
        let mut met: Vec<DocId> = resp.vo.docs.clone();
        assert_eq!(met, [5, 3, 6, 1]);
        met.push(8);
        let lens = resp.entries_read.clone();
        let extra = crate::attacks::rebuilt_response(
            &auth,
            &toy_query(),
            &resp,
            lens,
            met,
            &toy_contents(),
        );
        assert_eq!(
            verify(&params, &toy_query(), 2, &extra),
            Err(VerifyError::MalformedProof(
                "document proof 4 is for document 8 where the replay met no document".into()
            ))
        );
        let mut dup = resp.clone();
        dup.vo.docs.push(resp.vo.docs[0]);
        assert_eq!(
            verify(&params, &toy_query(), 2, &dup),
            Err(VerifyError::MalformedProof(
                "duplicate document proof for 5".into()
            ))
        );
        let (tnra_auth, tnra_params) = setup(Mechanism::TnraMht);
        let mut tnra = tnra_auth.query(&toy_query(), 2, &toy_contents()).unwrap();
        assert!(verify(&tnra_params, &toy_query(), 2, &tnra).is_ok());
        tnra.vo.docs.push(resp.vo.docs[2]);
        assert_eq!(
            verify(&tnra_params, &toy_query(), 2, &tnra),
            Err(VerifyError::MalformedProof(
                "document proof 0 is for document 6 where the replay met no document".into()
            ))
        );
    }

    #[test]
    fn extra_unrelated_content_rejected_only_if_results_differ() {
        // Appending extra content for a non-result doc changes nothing
        // the verifier checks (contents are looked up by result doc id).
        let (auth, params) = setup(Mechanism::TraMht);
        let mut resp = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
        resp.contents.push((8, b"irrelevant".to_vec()));
        assert!(verify(&params, &toy_query(), 2, &resp).is_ok());
    }

    #[test]
    fn forged_dictionary_proof_rejected() {
        // Zeroed digests of the right shape reconstruct another root; a
        // proof of the wrong shape, or none at all, is malformed.
        let (auth, params) = setup(Mechanism::TnraMht);
        let resp = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
        let dict = resp.vo.dict.clone().unwrap();
        let mut zeroed = resp.clone();
        zeroed.vo.dict.as_mut().unwrap().proof.digests =
            vec![authsearch_crypto::Digest::ZERO; dict.proof.digests.len()];
        assert_eq!(
            verify(&params, &toy_query(), 2, &zeroed),
            Err(VerifyError::DictionaryRoot)
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
        // The empty query is refused at construction, so no reply to it
        // reaches the verifier.
        assert_eq!(
            Query::new(Vec::new(), QueryMode::Disjunctive),
            Err(QueryError::Empty)
        );
    }

    #[test]
    fn honest_conjunctive_verifies_under_every_mechanism() {
        for mechanism in Mechanism::ALL {
            let (auth, params) = setup(mechanism);
            let resp = auth
                .query(&conjunctive_toy_query(), 2, &toy_contents())
                .unwrap();
            let verified = verify(&params, &conjunctive_toy_query(), 2, &resp)
                .unwrap_or_else(|e| panic!("{mechanism:?}: {e}"));
            assert_eq!(verified.result.docs(), vec![6], "{mechanism:?}");
        }
    }

    #[test]
    fn empty_conjunctive_query_verifies_trivially() {
        assert_eq!(
            Query::new(Vec::new(), QueryMode::Conjunctive),
            Err(QueryError::Empty)
        );
    }

    #[test]
    fn widened_conjunctive_result_rejected() {
        // The engine reports a doc that misses a conjunct (d5 lacks
        // 'sleeps' and 'dark') with plausible score and valid proofs —
        // the replay must narrow the intersection back to [6].
        let (auth, params) = setup(Mechanism::TnraMht);
        let mut resp = auth
            .query(&conjunctive_toy_query(), 2, &toy_contents())
            .unwrap();
        let score = resp.result.entries[0].score / 2.0;
        resp.result
            .entries
            .push(crate::types::ResultEntry { doc: 5, score });
        resp.contents.push((5, toy_contents()[5].clone()));
        assert!(matches!(
            verify(&params, &conjunctive_toy_query(), 2, &resp),
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
        let conj = auth
            .query(&conjunctive_toy_query(), 2, &toy_contents())
            .unwrap();
        let disj = auth.query(&toy_query(), 2, &toy_contents()).unwrap();
        assert_ne!(conj.result, disj.result);
        assert!(verify(&params, &toy_query(), 2, &conj).is_err());
        assert!(verify(&params, &conjunctive_toy_query(), 2, &disj).is_err());
    }
}
