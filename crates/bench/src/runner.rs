//! Shared experiment scaffolding: corpus/index generation, per-mechanism
//! authenticated-index construction, and workload aggregation.

use crate::priced::Models;
use crate::scale::Scale;
use authsearch_core::metrics::QueryMetrics;
use authsearch_core::vo::VoSize;
use authsearch_core::{measure, AuthConfig, AuthenticatedIndex, Mechanism, Query, VerifierParams};
use authsearch_corpus::{Corpus, SyntheticConfig, TermId};
use authsearch_crypto::keys::cached_keypair;
use authsearch_index::{build_index, DiskModel, InvertedIndex, OkapiParams};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

/// A loaded experiment environment: the WSJ-scale corpus, its index, the
/// simulated disk, and lazily built authenticated indexes per mechanism.
pub struct Workbench {
    /// Scale this bench was created at.
    pub scale: Scale,
    /// The synthetic WSJ-like corpus.
    pub corpus: Corpus,
    /// The plain inverted index.
    pub index: InvertedIndex,
    /// The simulated testbed disk.
    pub disk: DiskModel,
    /// The index in both orders the TRA proofs are priced over.
    pub(crate) models: Rc<Models>,
    auths: HashMap<Mechanism, (AuthenticatedIndex, VerifierParams)>,
}

impl Workbench {
    /// Generate the corpus and build its index.
    pub fn new(scale: Scale) -> Workbench {
        let t = Instant::now();
        eprintln!(
            "[bench] generating WSJ-like corpus at scale {:.4} ({} docs)…",
            scale.frac,
            scale.num_docs()
        );
        let corpus = SyntheticConfig::wsj(scale.frac).generate();
        eprintln!("[bench] generated in {:.1?}", t.elapsed());

        let t = Instant::now();
        eprintln!("[bench] building inverted index…");
        let index = build_index(&corpus, OkapiParams::default());
        eprintln!(
            "[bench] indexed {} postings over {} terms in {:.1?}",
            index.total_entries(),
            index.num_terms(),
            t.elapsed()
        );

        Workbench {
            scale,
            corpus,
            models: Rc::new(Models::new(&index)),
            index,
            disk: DiskModel::seagate_st973401kc(),
            auths: HashMap::new(),
        }
    }

    /// The authenticated index for a mechanism (built and memoized on
    /// first use — key generation is cached process-wide, signatures are
    /// the bulk of the cost).
    pub fn auth(&mut self, mechanism: Mechanism) -> (&AuthenticatedIndex, &VerifierParams) {
        if !self.auths.contains_key(&mechanism) {
            let built = self.build_auth(AuthConfig::new(mechanism));
            self.auths.insert(mechanism, built);
        }
        let (a, p) = self.auths.get(&mechanism).expect("just inserted");
        (a, p)
    }

    /// Build an authenticated index for an arbitrary configuration
    /// (ablations) under this bench's key size; not memoized.
    pub(crate) fn build_auth(&self, config: AuthConfig) -> (AuthenticatedIndex, VerifierParams) {
        let t = Instant::now();
        eprintln!(
            "[bench] signing authentication structures for {}…",
            config.mechanism.name()
        );
        let key = cached_keypair(self.scale.key_bits);
        let auth = AuthenticatedIndex::build(self.index.clone(), &key, config, &self.corpus);
        eprintln!(
            "[bench] {} ready in {:.1?}",
            config.mechanism.name(),
            t.elapsed()
        );
        let params = auth.verifier_params();
        (auth, params)
    }

    /// Synthetic workload: `scale.queries` queries of `qsize` uniform
    /// dictionary terms (the paper's first workload).
    pub(crate) fn synthetic_queries(&self, qsize: usize, seed: u64) -> Vec<Vec<TermId>> {
        authsearch_corpus::workload::synthetic(
            self.index.num_terms(),
            self.scale.queries,
            qsize,
            seed,
        )
    }

    /// TREC-like workload: `n` natural-language-shaped queries
    /// (2–20 terms with common words; the paper's second workload).
    pub(crate) fn trec_queries(&self, n: usize, seed: u64) -> Vec<Vec<TermId>> {
        authsearch_corpus::workload::trec_like(self.index.document_frequencies(), n, 0.35, seed)
    }
}

/// Averaged metrics over a workload — one data point of a figure.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AggregateMetrics {
    /// Number of queries aggregated.
    pub queries: usize,
    /// Figure (a): mean entries read per queried list.
    pub mean_entries_read: f64,
    /// The "List Length" baseline of figure (a).
    pub mean_list_len: f64,
    /// Figure (b): mean % of each queried list read.
    pub mean_pct_read: f64,
    /// Figure (c): mean simulated engine I/O seconds.
    pub mean_io_secs: f64,
    /// Figure (d): mean VO size in bytes.
    pub mean_vo_bytes: f64,
    /// Table 2: mean VO data bytes.
    pub mean_vo_data: f64,
    /// Table 2: mean VO digest bytes.
    pub mean_vo_digest: f64,
    /// Figure (d) and Table 2 under the paper's design: the same replies
    /// with their document facts proved in per-document MHTs instead
    /// ([`Models::paper`]); equal to the served VO under TNRA.
    pub mean_paper_vo_bytes: f64,
    /// The paper-priced VO's data bytes.
    pub mean_paper_vo_data: f64,
    /// The paper-priced VO's digest bytes.
    pub mean_paper_vo_digest: f64,
    /// Mean RSA signature checks per verified reply (counted by
    /// `authsearch_crypto::counters`).
    pub mean_signatures: f64,
    /// Mean signatures the paper's scheme carries for the same replies
    /// (one per term plus one per encountered document under TRA).
    pub mean_paper_signatures: f64,
    /// Figure (e): mean user verification seconds (wall clock).
    pub mean_verify_secs: f64,
}

/// Run a workload through one authenticated index, verifying every
/// response, and average the metrics; `models` prices each reply's
/// document facts under the paper's design.
pub(crate) fn run_workload(
    models: &Models,
    auth: &AuthenticatedIndex,
    params: &VerifierParams,
    corpus: &Corpus,
    disk: &DiskModel,
    queries: &[Vec<TermId>],
    r: usize,
) -> AggregateMetrics {
    let mut agg = AggregateMetrics::default();
    let mut vo_total = VoSize::default();
    let mut paper_total = VoSize::default();
    for terms in queries {
        let query = Query::from_term_ids(auth.index(), terms);
        let m = measure(auth, params, &query, r, corpus, disk)
            .unwrap_or_else(|e| panic!("honest query failed verification: {e}"));
        paper_total = paper_total + paper_vo_size(models, auth, &query, &m);
        agg.queries += 1;
        agg.mean_entries_read += m.mean_entries_read();
        agg.mean_list_len += m.mean_list_len();
        agg.mean_pct_read += m.mean_pct_read();
        agg.mean_io_secs += m.io_secs;
        vo_total = vo_total + m.vo_size;
        agg.mean_signatures += m.verify_work.rsa_verifies as f64;
        agg.mean_paper_signatures += m.paper_signatures as f64;
        agg.mean_verify_secs += m.verify_time.as_secs_f64();
    }
    let n = agg.queries.max(1) as f64;
    agg.mean_entries_read /= n;
    agg.mean_list_len /= n;
    agg.mean_pct_read /= n;
    agg.mean_io_secs /= n;
    agg.mean_vo_bytes = vo_total.total() as f64 / n;
    agg.mean_vo_data = vo_total.data as f64 / n;
    agg.mean_vo_digest = vo_total.digest as f64 / n;
    agg.mean_paper_vo_bytes = paper_total.total() as f64 / n;
    agg.mean_paper_vo_data = paper_total.data as f64 / n;
    agg.mean_paper_vo_digest = paper_total.digest as f64 / n;
    agg.mean_signatures /= n;
    agg.mean_paper_signatures /= n;
    agg.mean_verify_secs /= n;
    agg
}

/// The ids of `query`'s terms, in the order posed.
pub(crate) fn term_ids(query: &Query) -> Vec<TermId> {
    query.terms().iter().map(|qt| qt.term).collect()
}

/// The VO a reply measured as `m` would be under the paper's design: its
/// document facts (TRA) proved in per-document MHTs in place of the
/// doc-order proofs, everything else as served.
fn paper_vo_size(
    models: &Models,
    auth: &AuthenticatedIndex,
    query: &Query,
    m: &QueryMetrics,
) -> VoSize {
    if !auth.config().mechanism.is_tra() {
        return m.vo_size;
    }
    let paper = models.paper(
        &term_ids(query),
        &m.proved_docs,
        &m.result_docs,
        auth.config().buddy,
    );
    let (served, facts) = (m.vo_size, m.facts_size);
    VoSize {
        data: served.data - facts.data + paper.size.data,
        digest: served.digest - facts.digest + paper.size.digest,
        signature: served.signature,
        framing: served.framing - facts.framing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use authsearch_crypto::keys::TEST_KEY_BITS;

    #[test]
    fn workbench_tiny_end_to_end() {
        // A miniature full pipeline through the harness itself.
        let scale = Scale {
            frac: 0.001, // ~173 documents
            queries: 3,
            key_bits: TEST_KEY_BITS,
        };
        let mut wb = Workbench::new(scale);
        assert!(wb.corpus.num_docs() >= 100);
        let queries = wb.synthetic_queries(3, 1);
        assert_eq!(queries.len(), 3);
        let disk = wb.disk;
        let corpus = wb.corpus.clone();
        let models = Rc::clone(&wb.models);
        let (auth, params) = wb.auth(Mechanism::TnraCmht);
        let agg = run_workload(&models, auth, params, &corpus, &disk, &queries, 10);
        assert_eq!(agg.queries, 3);
        assert!(agg.mean_entries_read > 0.0);
        assert!(agg.mean_vo_bytes > 0.0);
        assert!(agg.mean_io_secs > 0.0);
    }

    #[test]
    fn nearby_scales_get_their_own_corpus() {
        // 0.001 and 0.00104 both print as "0.0010": a workbench keyed on
        // that string would hand the second scale the first's corpus.
        let cache = std::path::Path::new("target/authsearch-cache");
        let cache_existed = cache.exists();
        for frac in [0.001, 0.00104] {
            let wb = Workbench::new(Scale {
                frac,
                queries: 1,
                key_bits: TEST_KEY_BITS,
            });
            assert_eq!(
                wb.corpus.num_docs(),
                SyntheticConfig::wsj(frac).num_docs,
                "scale {frac}"
            );
        }
        assert!(
            cache_existed || !cache.exists(),
            "Workbench::new must not write a cache into the source tree"
        );
    }

    #[test]
    fn trec_queries_have_published_lengths() {
        let scale = Scale {
            frac: 0.001,
            queries: 5,
            key_bits: TEST_KEY_BITS,
        };
        let wb = Workbench::new(scale);
        for q in wb.trec_queries(20, 2) {
            assert!((2..=20).contains(&q.len()));
        }
    }
}
