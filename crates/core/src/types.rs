//! Shared types: queries, results, processing outcomes, and the
//! document-side frequency table.

use crate::access::AccessError;
use authsearch_corpus::{Corpus, DocId, TermId};
use authsearch_index::InvertedIndex;
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
    /// The engine's scan refused a checked query, which only a list
    /// holding a negative or NaN weight makes TNRA's per-pop guard do.
    Refused(AccessError),
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
            QueryError::Refused(e) => write!(f, "the index refused the query: {e}"),
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

/// `c_t`, the frequency class of a term that occurs in `f_t` documents:
/// the bit length of `f_t` (1 for `f_t = 1`, 2 for 2–3, 3 for 4–7, …).
/// Document-MHT leaves are ordered by it ([`leaf_key`]).
pub(crate) fn freq_class(ft: u32) -> u8 {
    // At most 32, so the narrowing is exact.
    (u32::BITS - ft.leading_zeros()) as u8
}

/// The sort key of a document-MHT leaf for term `t` of class `c_t`:
/// `(c_t descending, t ascending)` as one integer. Every document's
/// leaves are in strictly ascending key order, so a document's common
/// terms sit together at the front of its tree.
pub(crate) fn leaf_key(class: u8, term: TermId) -> u64 {
    (u64::from(u8::MAX - class) << 32) | u64::from(term)
}

/// Document-side frequency table: for every document, its
/// `(t, w_{d,t}, c_t)` leaves in `leaf_key` order — precisely the leaf layer of the
/// document-MHTs (Figure 8, with the leaves ordered by frequency class
/// rather than by term), and the engine's random-access source in TRA.
///
/// Built by *transposing the inverted index*, which guarantees the
/// invariant the correctness criteria rely on: the frequency vector
/// `freq(d|Q)` a document-MHT certifies is identical to what the inverted
/// lists contain. All documents' leaves sit in one flat array, document
/// `d`'s at `offsets[d]..offsets[d + 1]`, each as a `(rank, w_{d,t})`
/// pair: the rank is the term's place in key order over the whole
/// dictionary, so a lookup compares ranks alone.
#[derive(Debug, Clone)]
pub struct DocTable {
    /// `(rank of t, w_{d,t})` for every posting, grouped by document.
    leaves: Vec<(u32, f32)>,
    offsets: Vec<u32>,
    /// `(t, c_t)` of each rank: the dictionary in key order.
    by_rank: Vec<(TermId, u8)>,
    /// The rank of each term.
    ranks: Vec<u32>,
}

impl DocTable {
    /// Transpose an index into its per-document view: count each
    /// document's terms, then walk the lists once in key order, so that
    /// each document's leaves come out already sorted.
    ///
    /// Panics if the index holds `2^32` postings or more.
    pub fn from_index(index: &InvertedIndex) -> DocTable {
        let m = index.num_terms() as TermId;
        let mut by_rank: Vec<(TermId, u8)> = (0..m).map(|t| (t, freq_class(index.ft(t)))).collect();
        by_rank.sort_unstable_by_key(|&(t, class)| leaf_key(class, t));
        let mut ranks = vec![0; by_rank.len()];
        for (rank, &(t, _)) in (0..).zip(&by_rank) {
            ranks[t as usize] = rank;
        }
        let mut offsets = vec![0u32; index.num_docs() + 1];
        for t in 0..m {
            for e in index.list(t).entries() {
                offsets[e.doc as usize + 1] += 1;
            }
        }
        let mut total = 0u32;
        for o in &mut offsets {
            total = total.checked_add(*o).expect("fewer than 2^32 postings");
            *o = total;
        }
        let mut next: Vec<u32> = offsets[..offsets.len() - 1].to_vec();
        let mut leaves = vec![(0, 0.0); total as usize];
        for (rank, &(t, _)) in (0..).zip(&by_rank) {
            for e in index.list(t).entries() {
                let at = &mut next[e.doc as usize];
                leaves[*at as usize] = (rank, e.weight);
                *at += 1;
            }
        }
        DocTable {
            leaves,
            offsets,
            by_rank,
            ranks,
        }
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Document `d`'s `(rank, w)` pairs.
    fn row(&self, d: DocId) -> &[(u32, f32)] {
        let d = d as usize;
        &self.leaves[self.offsets[d] as usize..self.offsets[d + 1] as usize]
    }

    /// Leaves of document `d`'s MHT (its distinct terms).
    pub fn num_leaves(&self, d: DocId) -> usize {
        self.row(d).len()
    }

    /// The `(t, w_{d,t}, c_t)` leaf layer for document `d`, in key order.
    pub fn doc_leaves(&self, d: DocId) -> impl ExactSizeIterator<Item = (TermId, f32, u8)> + '_ {
        self.row(d).iter().map(|&pair| self.unrank(pair))
    }

    /// The `(t, w_{d,t}, c_t)` leaf at position `p` of document `d`'s MHT.
    pub(crate) fn leaf(&self, d: DocId, p: usize) -> (TermId, f32, u8) {
        self.unrank(self.row(d)[p])
    }

    fn unrank(&self, (rank, w): (u32, f32)) -> (TermId, f32, u8) {
        let (t, class) = self.by_rank[rank as usize];
        (t, w, class)
    }

    /// The position of term `t`'s leaf in document `d`'s MHT, or, when
    /// `t` does not occur in `d`, the position its key would take.
    pub(crate) fn position(&self, d: DocId, t: TermId) -> Result<usize, usize> {
        let rank = self.ranks[t as usize];
        self.row(d).binary_search_by_key(&rank, |&(r, _)| r)
    }

    /// `w_{d,t}` (0 when `t` does not occur in `d`, or is not a term of
    /// the index).
    pub fn weight(&self, d: DocId, t: TermId) -> f32 {
        if t as usize >= self.ranks.len() {
            return 0.0;
        }
        match self.position(d, t) {
            Ok(p) => self.row(d)[p].1,
            Err(_) => 0.0,
        }
    }
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
        let table = DocTable::from_index(&index);
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
        // Strictly ascending keys, and every posting of the index is in
        // its document's row once.
        let (_, index) = setup();
        let table = DocTable::from_index(&index);
        let mut postings = 0;
        for d in 0..table.num_docs() as DocId {
            let keys: Vec<u64> = table
                .doc_leaves(d)
                .map(|(t, _, c)| leaf_key(c, t))
                .collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "doc {d}");
            postings += keys.len();
        }
        let lists: usize = (0..index.num_terms() as TermId)
            .map(|t| index.list(t).len())
            .sum();
        assert_eq!(postings, lists);
    }

    #[test]
    fn document_mht_leaves_are_in_key_order() {
        // Every document of a seeded corpus: each leaf's c_t is its
        // term's, c_t never rises across the leaves, and within a class
        // term ids ascend.
        let corpus = authsearch_corpus::SyntheticConfig::tiny(300, 19).generate();
        let index = build_index(&corpus, OkapiParams::default());
        let table = DocTable::from_index(&index);
        let mut class_steps = 0;
        for d in 0..table.num_docs() as DocId {
            let leaves: Vec<(TermId, f32, u8)> = table.doc_leaves(d).collect();
            for pair in leaves.windows(2) {
                let [(a, ..), (b, ..)] = pair else { continue };
                let (ca, cb) = (freq_class(index.ft(*a)), freq_class(index.ft(*b)));
                assert!(ca >= cb, "doc {d}: c_t rises {ca} → {cb}");
                assert!(ca > cb || a < b, "doc {d}: terms {a}, {b} in class {ca}");
                class_steps += usize::from(ca > cb);
            }
            for (p, &(t, w, c)) in leaves.iter().enumerate() {
                assert_eq!(c, freq_class(index.ft(t)), "doc {d} term {t}");
                assert_eq!(table.weight(d, t), w, "doc {d} term {t}");
                assert_eq!(table.position(d, t), Ok(p), "doc {d} term {t}");
            }
        }
        // The order is not term-id order on this corpus.
        assert!(class_steps > 0);
    }

    #[test]
    fn freq_class_is_the_bit_length_of_ft() {
        let classes: Vec<u8> = [1, 2, 3, 4, 7, 8, 1000, u32::MAX]
            .into_iter()
            .map(freq_class)
            .collect();
        assert_eq!(classes, [1, 2, 2, 3, 3, 4, 10, 32]);
        // A higher class sorts first; a class ties by term id.
        assert!(leaf_key(4, 900) < leaf_key(3, 2));
        assert!(leaf_key(3, 2) < leaf_key(3, 5));
    }
}
