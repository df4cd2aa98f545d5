//! Shared types: queries, results, processing outcomes, and the
//! doc-ordered lists.

use authsearch_corpus::{Corpus, DocId, TermId};
use authsearch_index::{ImpactEntry, InvertedIndex};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// How a multi-term query combines its terms.
///
/// The paper's query model is purely disjunctive (top-r by the summed
/// Okapi similarity, §2). Conjunctive mode keeps the identical scoring
/// formula but admits only documents that contain *every* query term,
/// and its VO additionally proves that intersection is exactly right.
/// A [`Query`] carries its mode, and [`crate::verify::verify`] checks a
/// reply under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryMode {
    /// OR-semantics: any document containing at least one query term is
    /// a candidate (the paper's model).
    Disjunctive,
    /// AND-semantics: only documents containing all query terms are
    /// candidates, and absence from the result must be provable.
    Conjunctive,
}

/// One search term of a query with its query-side weight.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTerm {
    /// Dictionary term id.
    pub term: TermId,
    /// `f_{Q,t}` — occurrences of the term in the query.
    pub f_qt: u32,
    /// `w_{Q,t}` — the query-side Okapi weight.
    pub wq: f64,
}

/// Why a query cannot be built ([`Query::new`] and the builders), or
/// cannot be answered by an index ([`crate::AuthenticatedIndex::check`]).
/// The server sends its `Display` text in a `BAD_QUERY` reply.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// No term: nothing was posed, or no word of a text is in the
    /// dictionary.
    Empty,
    /// Wire pairs whose ids do not strictly ascend ([`Query::from_pairs`]).
    NotAscending,
    /// A term id that occurs twice.
    DuplicateTerm(TermId),
    /// A term posed with `f_{Q,t} = 0`.
    ZeroFrequency(TermId),
    /// A `w_{Q,t}` that is not finite and positive: the threshold bounds
    /// of Figures 5 and 10 hold only for non-negative term scores.
    BadWeight {
        /// The term.
        term: TermId,
        /// Its weight.
        wq: f64,
    },
    /// A term id outside the index's dictionary of `m` terms.
    OutOfDictionary {
        /// The term.
        term: TermId,
        /// Dictionary size.
        m: usize,
    },
    /// A disjunctive TNRA query of more than
    /// [`crate::tnra::MAX_QUERY_TERMS`] terms.
    TooManyTerms {
        /// Terms posed.
        q: usize,
        /// The limit.
        max: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Empty => write!(f, "no query terms in dictionary"),
            QueryError::NotAscending => {
                write!(f, "query terms must be strictly ascending (no duplicates)")
            }
            QueryError::DuplicateTerm(t) => write!(f, "term {t} occurs twice"),
            QueryError::ZeroFrequency(t) => write!(f, "term {t} has f_qt = 0"),
            QueryError::BadWeight { term, wq } => {
                write!(
                    f,
                    "term {term} has query weight {wq}, not a positive number"
                )
            }
            QueryError::OutOfDictionary { term, m } => {
                write!(f, "term {term} out of dictionary (m = {m})")
            }
            QueryError::TooManyTerms { q, max } => {
                write!(f, "{q} query terms; TNRA evaluates at most {max}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A query `Q = {⟨t, f_{Q,t}⟩}` with its weights `w_{Q,t}`, posed under
/// one [`QueryMode`]. It is checked when it is built: every builder
/// routes into [`Query::new`], so a `Query` has at least one term,
/// distinct ids, every `f_{Q,t} ≥ 1` and every `w_{Q,t}` finite and
/// positive. The facts that depend on an index are
/// [`crate::AuthenticatedIndex::check`]'s.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    terms: Vec<QueryTerm>,
    mode: QueryMode,
}

impl Query {
    /// Check `terms` and pose them under `mode`. The terms keep the
    /// caller's order, the list index the threshold loops break ties by
    /// (Figure 6 poses "sleeps in the dark" in that order).
    pub fn new(terms: Vec<QueryTerm>, mode: QueryMode) -> Result<Query, QueryError> {
        if terms.is_empty() {
            return Err(QueryError::Empty);
        }
        for qt in &terms {
            if qt.f_qt == 0 {
                return Err(QueryError::ZeroFrequency(qt.term));
            }
            if !(qt.wq.is_finite() && qt.wq > 0.0) {
                return Err(QueryError::BadWeight {
                    term: qt.term,
                    wq: qt.wq,
                });
            }
        }
        // Ascending ids are distinct; any other order is sorted aside.
        if terms.windows(2).any(|w| w[0].term >= w[1].term) {
            let mut ids: Vec<TermId> = terms.iter().map(|qt| qt.term).collect();
            ids.sort_unstable();
            if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
                return Err(QueryError::DuplicateTerm(w[0]));
            }
        }
        Ok(Query { terms, mode })
    }

    /// Build from `(t, f_{Q,t})` pairs in the wire's form (strictly
    /// ascending ids, [`crate::wire::Request::Terms`]), weighted from the
    /// index dictionary.
    pub fn from_pairs(
        index: &InvertedIndex,
        pairs: &[(TermId, u32)],
        mode: QueryMode,
    ) -> Result<Query, QueryError> {
        if pairs.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(QueryError::NotAscending);
        }
        Query::new(weighted(index, pairs.iter().copied())?, mode)
    }

    /// Build from distinct term ids with `f_{Q,t} = 1`, weighted from the
    /// index dictionary (the common case for generated workloads).
    ///
    /// # Panics
    ///
    /// When an id is outside the dictionary or repeated.
    pub fn from_term_ids(index: &InvertedIndex, terms: &[TermId]) -> Query {
        weighted(index, terms.iter().map(|&t| (t, 1)))
            .and_then(|terms| Query::new(terms, QueryMode::Disjunctive))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Query::from_pairs`], posed disjunctively.
    ///
    /// # Panics
    ///
    /// When [`Query::from_pairs`] refuses the pairs.
    pub fn from_term_pairs(index: &InvertedIndex, pairs: &[(TermId, u32)]) -> Query {
        Query::from_pairs(index, pairs, QueryMode::Disjunctive).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parse a natural-language query string against a corpus dictionary:
    /// tokenize, drop out-of-dictionary terms (per the system model), count
    /// duplicates into `f_{Q,t}`.
    pub fn from_text(
        corpus: &Corpus,
        index: &InvertedIndex,
        text: &str,
    ) -> Result<Query, QueryError> {
        let mut counts: HashMap<TermId, u32> = HashMap::new();
        for token in authsearch_corpus::tokenizer::tokenize(text) {
            if let Some(t) = corpus.term_id(&token) {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        let mut terms: Vec<(TermId, u32)> = counts.into_iter().collect();
        terms.sort_unstable_by_key(|&(t, _)| t);
        Query::new(weighted(index, terms.into_iter())?, QueryMode::Disjunctive)
    }

    /// Build with explicit weights and `f_{Q,t} = 1` (the paper's worked
    /// example gives its `w_{Q,t}` rather than deriving them).
    pub fn with_weights(weights: &[(TermId, f64)]) -> Result<Query, QueryError> {
        let terms = weights
            .iter()
            .map(|&(term, wq)| QueryTerm { term, f_qt: 1, wq })
            .collect();
        Query::new(terms, QueryMode::Disjunctive)
    }

    /// The same terms, posed under `mode`.
    pub fn with_mode(self, mode: QueryMode) -> Query {
        Query { mode, ..self }
    }

    /// The distinct query terms, in the order posed (the list index).
    pub fn terms(&self) -> &[QueryTerm] {
        &self.terms
    }

    /// How the terms combine.
    pub fn mode(&self) -> QueryMode {
        self.mode
    }
}

/// Weigh `(t, f_{Q,t})` pairs from the index dictionary, checking each id
/// against it before its `f_t` is read.
fn weighted(
    index: &InvertedIndex,
    pairs: impl ExactSizeIterator<Item = (TermId, u32)>,
) -> Result<Vec<QueryTerm>, QueryError> {
    let m = index.num_terms();
    let mut terms = Vec::with_capacity(pairs.len());
    for (term, f_qt) in pairs {
        if term as usize >= m {
            return Err(QueryError::OutOfDictionary { term, m });
        }
        terms.push(QueryTerm {
            term,
            f_qt,
            wq: index.query_weight(term, f_qt),
        });
    }
    Ok(terms)
}

/// One result entry `⟨d, s⟩`.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint:allow(unused-pub): reached only through `QueryResult::entries`
pub struct ResultEntry {
    /// Result document.
    pub doc: DocId,
    /// Similarity score `S(d|Q)`.
    pub score: f64,
}

impl ResultEntry {
    /// The rank order of every result: score descending, then doc id
    /// ascending. Scores are sums of products of finite non-negative
    /// weights, never NaN, so over distinct documents the order is total.
    pub(crate) fn rank(&self, other: &ResultEntry) -> Ordering {
        let by_score = other.score.partial_cmp(&self.score);
        by_score.map_or(Ordering::Equal, |o| o.then(self.doc.cmp(&other.doc)))
    }
}

/// Most entries a scan reserves room for up front (it grows past them).
pub(crate) const RESERVED_SLOTS: usize = 1024;

/// The first `r` entries of the rank order among the documents offered
/// so far, in that order, each with a tag of the caller's (TNRA's slot).
/// Every scan ranks through it, at the engine and in the client's
/// replay, and leaves every other candidate unordered.
#[derive(Debug, Clone)]
pub(crate) struct TopR<T = ()> {
    r: usize,
    top: Vec<(ResultEntry, T)>,
}

impl<T: Copy> TopR<T> {
    /// No entry yet, with room for `min(r, candidates)`.
    pub(crate) fn new(r: usize, candidates: usize) -> TopR<T> {
        let top = Vec::with_capacity(r.min(candidates));
        TopR { r, top }
    }

    /// The r-th entry, once r documents have been offered.
    pub(crate) fn rth(&self) -> Option<&ResultEntry> {
        self.top.get(self.r.checked_sub(1)?).map(|(e, _)| e)
    }

    /// The top r, best first, with their tags.
    pub(crate) fn entries(&self) -> &[(ResultEntry, T)] {
        &self.top
    }

    /// Offer `e`, whose document may have been offered before at a
    /// score no higher: a document in the top r moves up to its new
    /// score; another enters while there is room, or when it ranks before
    /// the r-th, which leaves.
    pub(crate) fn offer(&mut self, e: ResultEntry, tag: T) {
        if self.r == 0 || self.rth().is_some_and(|rth| e.rank(rth).is_ge()) {
            return;
        }
        // Its document leaves its old place, or else a full top r its r-th.
        let place = self.top.iter().position(|(x, _)| x.doc == e.doc);
        if let Some(k) = place.or((self.top.len() == self.r).then_some(self.r - 1)) {
            self.top.remove(k);
        }
        let at = self.top.partition_point(|(x, _)| x.rank(&e).is_lt());
        self.top.insert(at, (e, tag));
    }

    /// The top r as a result.
    pub(crate) fn into_result(self) -> QueryResult {
        let entries = self.top.into_iter().map(|(e, _)| e).collect();
        QueryResult { entries }
    }
}

/// Doc-id hasher: one multiply, its high half folded into the low. Not
/// collision-resistant, and it need not be: it hashes the owner's ids,
/// signature-checked prefix ids, and distinct proof ids below the
/// collection size `n`, so no reply crowds a bucket past the ids below
/// `n` that share it.
#[derive(Default)]
pub(crate) struct DocIdHasher(u64);

/// The one map keyed by doc id, at both ends, through [`DocIdHasher`].
pub(crate) type DocIdMap<V> = HashMap<DocId, V, BuildHasherDefault<DocIdHasher>>;

/// 2^64 / φ, odd: multiplying by it permutes `u64` and spreads
/// consecutive ids across the high bits.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for DocIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(GOLDEN);
        }
    }

    fn write_u32(&mut self, id: u32) {
        let h = u64::from(id).wrapping_mul(GOLDEN);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The ordered query result `R` (non-increasing scores; ties broken by
/// ascending document id so every component of the system is
/// deterministic).
#[derive(Debug, Clone, PartialEq)]
// lint:allow(unused-pub): reached only through `QueryResponse::result` and `VerifiedResult::result`
pub struct QueryResult {
    /// Result entries, best first.
    pub entries: Vec<ResultEntry>,
}

impl QueryResult {
    /// Checks the ordering half of the paper's correctness criteria.
    pub fn is_ordered(&self) -> bool {
        self.entries.windows(2).all(|w| w[0].rank(&w[1]).is_lt())
    }

    /// Documents only.
    pub fn docs(&self) -> Vec<DocId> {
        self.entries.iter().map(|e| e.doc).collect()
    }
}

/// Everything a query-processing run produces, beyond the result itself:
/// the inputs to VO construction and to the evaluation metrics.
#[derive(Debug, Clone, PartialEq)]
// lint:allow(unused-pub): reached only as the value of `tra::run`, `tnra::run` and `pscan::run`
pub struct ProcessingOutcome {
    /// The top-r result.
    pub result: QueryResult,
    /// Per query term: number of entries *fetched* from its inverted list
    /// (popped entries plus the fetched-but-unpopped cut-off front). This
    /// is both Figure 13(a)'s "# entries read" and the per-list VO prefix.
    pub prefix_lens: Vec<usize>,
    /// Every document appearing in some fetched prefix, in first-encounter
    /// order. For TRA these are exactly the documents whose query-term
    /// frequencies the VO must certify.
    pub encountered: Vec<DocId>,
    /// Main-loop iterations executed (pops).
    pub iterations: usize,
}

/// Every term's inverted list in doc-id order: the leaf layer of the
/// term's doc-order tree (TRA), and the engine's one random-access
/// source. A list holds each document at most once, so a lookup of
/// `w_{d,t}` is one binary search, and the position it lands on is the
/// position a proof of the fact reveals.
///
/// Built by *sorting the index's own lists*, which guarantees the
/// invariant the correctness criteria rely on: the weights a doc-order
/// tree certifies are exactly the ones its list holds.
#[derive(Debug, Clone)]
pub struct DocOrderedLists {
    /// Per term, its `⟨d, w_{d,t}⟩` entries by ascending doc id.
    lists: Vec<Box<[ImpactEntry]>>,
    /// Per document, the number of distinct terms it holds.
    doc_terms: Vec<u32>,
}

impl DocOrderedLists {
    /// Sort every list of `index` by doc id.
    pub fn from_index(index: &InvertedIndex) -> DocOrderedLists {
        let lists = (0..index.num_terms() as TermId)
            .map(|t| doc_ordered(index.list(t).entries()))
            .collect();
        DocOrderedLists::from_lists(lists, index.num_docs())
    }

    /// Lists already in doc-id order, one per term, over `num_docs`
    /// documents.
    pub(crate) fn from_lists(lists: Vec<Box<[ImpactEntry]>>, num_docs: usize) -> DocOrderedLists {
        let mut doc_terms = vec![0u32; num_docs];
        for e in lists.iter().flat_map(|l| l.iter()) {
            doc_terms[e.doc as usize] += 1;
        }
        DocOrderedLists { lists, doc_terms }
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.doc_terms.len()
    }

    /// Term `t`'s entries by ascending doc id.
    pub fn list(&self, t: TermId) -> &[ImpactEntry] {
        &self.lists[t as usize]
    }

    /// The number of distinct terms document `d` holds.
    pub(crate) fn doc_terms(&self, d: DocId) -> usize {
        self.doc_terms[d as usize] as usize
    }

    /// The position of `d`'s entry in term `t`'s list, or, when `t` does
    /// not occur in `d`, the position `d` would take.
    pub(crate) fn position(&self, t: TermId, d: DocId) -> Result<usize, usize> {
        self.list(t).binary_search_by_key(&d, |e| e.doc)
    }

    /// `w_{d,t}` (0 when `t` does not occur in `d`, or is not a term of
    /// the index).
    pub fn weight(&self, d: DocId, t: TermId) -> f32 {
        if t as usize >= self.lists.len() {
            return 0.0;
        }
        self.position(t, d).map_or(0.0, |p| self.list(t)[p].weight)
    }
}

/// `entries` sorted by doc id.
pub(crate) fn doc_ordered(entries: &[ImpactEntry]) -> Box<[ImpactEntry]> {
    let mut sorted: Box<[ImpactEntry]> = entries.into();
    sorted.sort_unstable_by_key(|e| e.doc);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use authsearch_corpus::CorpusBuilder;
    use authsearch_index::{build_index, OkapiParams};

    fn setup() -> (Corpus, InvertedIndex) {
        let corpus = CorpusBuilder::new()
            .min_df(1)
            .add_text("night keeper keeps house")
            .add_text("big house big gown")
            .add_text("old night watch")
            .build();
        let index = build_index(&corpus, OkapiParams::default());
        (corpus, index)
    }

    #[test]
    fn query_from_text_counts_duplicates() {
        let (corpus, index) = setup();
        let q = Query::from_text(&corpus, &index, "night NIGHT keeper").unwrap();
        let night = corpus.term_id("night").unwrap();
        let qt = q.terms().iter().find(|t| t.term == night).unwrap();
        assert_eq!(qt.f_qt, 2);
        assert_eq!(q.terms().len(), 2);
    }

    #[test]
    fn out_of_dictionary_terms_ignored() {
        let (corpus, index) = setup();
        let q = Query::from_text(&corpus, &index, "zzzunknown house").unwrap();
        assert_eq!(q.terms().len(), 1);
        assert_eq!(
            Query::from_text(&corpus, &index, "zzzunknown"),
            Err(QueryError::Empty)
        );
    }

    #[test]
    fn from_term_ids_uses_index_weights() {
        let (corpus, index) = setup();
        let house = corpus.term_id("house").unwrap();
        let q = Query::from_term_ids(&index, &[house]);
        assert_eq!(q.terms()[0].wq, index.query_weight(house, 1));
    }

    #[test]
    fn new_checks_every_index_free_fact() {
        let term = |term, f_qt, wq| QueryTerm { term, f_qt, wq };
        let mode = QueryMode::Disjunctive;
        assert_eq!(Query::new(Vec::new(), mode), Err(QueryError::Empty));
        assert_eq!(
            Query::new(
                vec![term(4, 1, 1.0), term(1, 1, 1.0), term(4, 1, 1.0)],
                mode
            ),
            Err(QueryError::DuplicateTerm(4))
        );
        // The caller's order stands; only the wire's form must ascend.
        let unsorted = vec![term(3, 1, 1.0), term(1, 1, 1.0)];
        assert_eq!(Query::new(unsorted, mode).unwrap().terms()[0].term, 3);
        assert_eq!(
            Query::new(vec![term(2, 0, 1.0)], mode),
            Err(QueryError::ZeroFrequency(2))
        );
        for wq in [0.0, -1.0, f64::INFINITY] {
            assert_eq!(
                Query::new(vec![term(0, 1, 1.0), term(4, 1, wq)], mode),
                Err(QueryError::BadWeight { term: 4, wq })
            );
        }
        let nan = Query::new(vec![term(5, 1, f64::NAN)], mode);
        assert!(matches!(nan, Err(QueryError::BadWeight { term: 5, wq }) if wq.is_nan()));
        let q = Query::new(vec![term(0, 2, 0.5), term(7, 1, 3.0)], mode).unwrap();
        assert_eq!(q.terms().len(), 2);
        assert_eq!(
            q.with_mode(QueryMode::Conjunctive).mode(),
            QueryMode::Conjunctive
        );
    }

    #[test]
    fn index_aware_builder_checks_the_dictionary_before_reading_it() {
        let (_, index) = setup();
        let m = index.num_terms();
        let out = m as TermId + 5;
        assert_eq!(
            Query::from_pairs(&index, &[(0, 1), (out, 1)], QueryMode::Disjunctive),
            Err(QueryError::OutOfDictionary { term: out, m })
        );
        assert_eq!(
            Query::from_pairs(&index, &[(0, 0)], QueryMode::Disjunctive),
            Err(QueryError::ZeroFrequency(0))
        );
        // Only the wire's form must ascend.
        for unordered in [[(3, 1), (1, 1)], [(1, 1), (1, 1)]] {
            assert_eq!(
                Query::from_pairs(&index, &unordered, QueryMode::Disjunctive),
                Err(QueryError::NotAscending)
            );
        }
        let q = Query::from_pairs(&index, &[(0, 2)], QueryMode::Conjunctive).unwrap();
        assert_eq!(q.mode(), QueryMode::Conjunctive);
        assert_eq!(q.terms()[0].wq, index.query_weight(0, 2));
    }

    #[test]
    fn result_ordering_check() {
        let good = QueryResult {
            entries: vec![
                ResultEntry { doc: 2, score: 0.9 },
                ResultEntry { doc: 0, score: 0.9 },
            ],
        };
        assert!(!good.is_ordered()); // tie must order by doc id
        let fixed = QueryResult {
            entries: vec![
                ResultEntry { doc: 0, score: 0.9 },
                ResultEntry { doc: 2, score: 0.9 },
            ],
        };
        assert!(fixed.is_ordered());
    }

    /// The oracle: every offered entry sorted whole (score descending by
    /// `total_cmp`, doc id ascending), the first `r` kept.
    fn sorted_top(all: &[ResultEntry], r: usize) -> Vec<ResultEntry> {
        let mut all = all.to_vec();
        all.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        all.truncate(r);
        all
    }

    fn top_entries<T: Copy>(top: &TopR<T>) -> Vec<ResultEntry> {
        top.entries().iter().map(|&(e, _)| e).collect()
    }

    #[test]
    fn top_r_matches_a_full_sort_over_seeded_offers() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x7070_5252);
        for case in 0..300 {
            let n = rng.gen_range(0..40u32);
            // Four scores: ties at the r-th entry are the common case.
            let offers: Vec<ResultEntry> = (0..n)
                .map(|d| ResultEntry {
                    doc: d * 7 % 101,
                    score: [0.0, 0.5, 1.0, 2.0][rng.gen_range(0..4usize)],
                })
                .collect();
            for r in [0, 1, 2, 10, n as usize + 1, usize::MAX] {
                let mut top = TopR::new(r, offers.len());
                for (k, &e) in offers.iter().enumerate() {
                    top.offer(e, k);
                    let want = sorted_top(&offers[..=k], r);
                    assert_eq!(top_entries(&top), want, "case {case} r={r} offer {k}");
                    assert_eq!(top.rth(), want.get(r.wrapping_sub(1)), "case {case} r={r}");
                    // Each entry keeps its own tag.
                    assert!(top.entries().iter().all(|&(e, t)| offers[t] == e));
                }
                let result = top.into_result();
                assert!(result.is_ordered(), "case {case} r={r}");
                assert_eq!(result.entries, sorted_top(&offers, r), "case {case} r={r}");
            }
        }
    }

    #[test]
    fn top_r_matches_a_full_sort_over_seeded_raises() {
        // TNRA re-offers a document each time its SLB rises.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x7261_6973);
        for case in 0..200 {
            let m = rng.gen_range(1..=12u32);
            for r in [0, 1, 2, 3, 10, m as usize + 1] {
                let mut top = TopR::new(r, m as usize);
                let mut scores: Vec<Option<f64>> = vec![None; m as usize];
                for step in 0..60 {
                    let d = rng.gen_range(0..m);
                    let add = [0.0, 0.5, 1.0][rng.gen_range(0..3usize)];
                    let score = scores[d as usize].unwrap_or(0.0) + add;
                    scores[d as usize] = Some(score);
                    top.offer(ResultEntry { doc: d, score }, d);
                    let all: Vec<ResultEntry> = (0..m)
                        .filter_map(|d| {
                            scores[d as usize].map(|score| ResultEntry { doc: d, score })
                        })
                        .collect();
                    let want = sorted_top(&all, r);
                    assert_eq!(top_entries(&top), want, "case {case} r={r} step {step}");
                    assert!(top.entries().iter().all(|&(e, t)| e.doc == t));
                }
            }
        }
    }

    #[test]
    fn doc_table_transposes_index() {
        let (corpus, index) = setup();
        let table = DocOrderedLists::from_index(&index);
        assert_eq!(table.num_docs(), 3);
        let house = corpus.term_id("house").unwrap();
        // Weight in the table equals the list entry's weight.
        let from_list = index
            .list(house)
            .entries()
            .iter()
            .find(|e| e.doc == 0)
            .unwrap()
            .weight;
        assert_eq!(table.weight(0, house), from_list);
        // Absent term → 0.
        let gown = corpus.term_id("gown").unwrap();
        assert_eq!(table.weight(0, gown), 0.0);
        // A term outside the dictionary → 0.
        assert_eq!(table.weight(0, index.num_terms() as TermId), 0.0);
    }

    #[test]
    fn doc_table_terms_sorted() {
        // Every term's row strictly ascends by doc id, holds its list's
        // entries, and each document counts its distinct terms.
        let corpus = authsearch_corpus::SyntheticConfig::tiny(300, 19).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let table = DocOrderedLists::from_index(&index);
        let mut per_doc = vec![0usize; index.num_docs()];
        for t in 0..index.num_terms() as TermId {
            let row = table.list(t);
            assert!(row.windows(2).all(|w| w[0].doc < w[1].doc), "term {t}");
            let mut want = index.list(t).entries().to_vec();
            want.sort_unstable_by_key(|e| e.doc);
            assert_eq!(row, want.as_slice(), "term {t}");
            for (p, e) in row.iter().enumerate() {
                assert_eq!(table.position(t, e.doc), Ok(p), "term {t}");
                per_doc[e.doc as usize] += 1;
            }
        }
        for (d, &n) in per_doc.iter().enumerate() {
            assert_eq!(table.doc_terms(d as DocId), n, "doc {d}");
        }
    }
}
