//! Set-up shared by both binaries: a hermetic environment, the owner's
//! publication served by a real `Server` on loopback, and the query
//! list drawn from `--seed`.

use crate::spec::{QueryGen, Workload};
use authsearch_core::{
    AuthConfig, DataOwner, QueryMode, SearchEngine, Server, ServerConfig, ServerHandle,
    VerifierParams,
};
use authsearch_corpus::{workload, SyntheticConfig, TermId};
use authsearch_crypto::keys::PAPER_KEY_BITS;
use authsearch_index::{build_index, OkapiParams};
use std::sync::Arc;
use std::time::Instant;

/// A query as the wire carries it: ascending `(term, f_qt)` pairs.
pub type Pairs = Vec<(TermId, u32)>;

/// Remove every `AUTHSEARCH_*` variable, so `AuthConfig::new` and
/// `ServerConfig::default` mean the same thing on every machine. Call
/// before constructing either (and before spawning any thread).
pub fn scrub_env() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(name, _)| name)
        .filter(|name| name.to_string_lossy().starts_with("AUTHSEARCH_"))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}

/// One timed stage of the set-up: `(name, start, end)`.
pub type Stage = (&'static str, Instant, Instant);

/// A published collection behind a running server.
pub struct Fixture {
    pub engine: Arc<SearchEngine>,
    pub params: VerifierParams,
    pub server: ServerHandle,
    /// `corpus`, `index_build`, `sign`, `server_start`, in that order.
    pub stages: Vec<Stage>,
}

impl Fixture {
    /// Corpus generation through server accepting, in seconds.
    pub fn setup_s(&self) -> f64 {
        let (_, start, _) = self.stages[0];
        let (_, _, end) = self.stages[self.stages.len() - 1];
        (end - start).as_secs_f64()
    }
}

/// The size a run uses: the workload's own, or under `--smoke` a
/// twentieth of the corpus, twenty queries and ten open-loop requests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub smoke: bool,
}

impl Size {
    pub fn scale(&self, w: &Workload) -> f64 {
        if self.smoke {
            w.scale / 20.0
        } else {
            w.scale
        }
    }

    fn queries(&self, w: &Workload) -> usize {
        if self.smoke {
            20
        } else {
            w.queries.per_pass()
        }
    }

    pub fn open_queries(&self, w: &Workload) -> usize {
        if self.smoke {
            10
        } else {
            w.open_queries
        }
    }

    pub fn setup_repeats(&self, w: &Workload) -> usize {
        if self.smoke {
            1
        } else {
            w.setup_repeats
        }
    }
}

/// Generate the corpus, publish it as the data owner would, and start
/// the server on an ephemeral loopback port, all at default
/// configuration. The owner's key is the process-wide cached one
/// ([`owner_key`]); generating it is not part of any stage.
pub fn setup(w: &Workload, size: Size) -> Fixture {
    let mut stages = Vec::with_capacity(4);
    let mut stage = |name: &'static str, start: Instant| stages.push((name, start, Instant::now()));

    let t = Instant::now();
    let corpus = SyntheticConfig::wsj(size.scale(w)).generate();
    stage("corpus", t);

    let t = Instant::now();
    let index = build_index(&corpus, OkapiParams::default());
    stage("index_build", t);

    let t = Instant::now();
    let publication = owner_key().publish_index(index, AuthConfig::new(w.mechanism), &corpus);
    stage("sign", t);

    let t = Instant::now();
    let engine = Arc::new(SearchEngine::new(publication.auth, corpus));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
        .expect("bind a loopback port");
    stage("server_start", t);

    Fixture {
        engine,
        params: publication.verifier_params,
        server,
        stages,
    }
}

/// The data owner with the fixed-seed 1024-bit key every workload signs
/// with (byte-identical signatures run to run). The first call of a
/// process generates the key (tens of milliseconds); call it once
/// before the first [`setup`] so that no set-up's `sign` stage pays for
/// it.
pub fn owner_key() -> DataOwner {
    DataOwner::with_cached_key(PAPER_KEY_BITS)
}

/// The per-pass query list for `seed`.
///
/// The *shape* of the list is fixed: the paper's generator run on
/// [`SHAPE_SEED`] decides how many terms each query has and which common
/// words it holds. `seed` then replaces every **rare** term (one that
/// occurs in at most [`RARE_DF`] documents; most of the dictionary) by
/// another term of exactly the same document frequency, drawn uniformly.
/// Every seed therefore poses the same common words with other content
/// words: different queries, lists and documents, the same posting
/// volume query by query.
///
/// A plain re-draw per seed moves every metric of a trec-like list by
/// 5-15 %, because a few hundred queries with a heavy-tailed cost do not
/// average out. Replacing the common terms too, by terms of nearly the
/// same frequency, still moves the median disjunctive query's cost by
/// 5-15 %: how deep TRA reads a long list depends on the weights in it.
/// Both would be workload noise, not a property of the program. The cost
/// of a conjunctive query depends on list lengths alone, so there the
/// common terms are replaced as well, within 5 % of their frequency.
pub fn generate_queries(w: &Workload, size: Size, df: &[u32], seed: u64) -> Vec<Pairs> {
    let n = size.queries(w);
    let mut shapes = match w.queries {
        QueryGen::Synthetic { terms, .. } => workload::synthetic(df.len(), n, terms, SHAPE_SEED),
        QueryGen::TrecLike { common_prob, .. } => {
            workload::trec_like(df, n, common_prob, SHAPE_SEED)
        }
    };
    if let QueryGen::TrecLike { cut, .. } = w.queries {
        for q in &mut shapes {
            q.truncate(cut);
        }
    }

    let num_terms = TermId::try_from(df.len()).expect("term ids fit in u32");
    let mut by_df: Vec<TermId> = (0..num_terms).collect();
    by_df.sort_by_key(|&t| (df[t as usize], t));
    let sorted_df: Vec<u32> = by_df.iter().map(|&t| df[t as usize]).collect();
    let mut rng = SplitMix64(seed);
    let mut peer = |t: TermId| -> TermId {
        let d = df[t as usize];
        // How far from `d` a stand-in's document frequency may be.
        let slack = match w.mode {
            _ if d <= RARE_DF => 0,
            QueryMode::Conjunctive => d / 20,
            QueryMode::Disjunctive => return t,
        };
        let lo = sorted_df.partition_point(|&x| x < d - slack);
        let hi = sorted_df.partition_point(|&x| x <= d + slack);
        by_df[lo + (rng.next() % (hi - lo) as u64) as usize]
    };
    shapes
        .iter()
        .map(|shape| {
            let mut terms: Vec<TermId> = Vec::with_capacity(shape.len());
            for &t in shape {
                // A peer already in the query is drawn again, then the
                // original term is tried; a term that still collides is
                // left out (the server refuses duplicate terms).
                let pick = (0..8)
                    .map(|_| peer(t))
                    .chain([t])
                    .find(|p| !terms.contains(p));
                terms.extend(pick);
            }
            terms.sort_unstable();
            terms.into_iter().map(|t| (t, 1)).collect()
        })
        .collect()
}

/// Fixes the shape of every query list (see [`generate_queries`]).
const SHAPE_SEED: u64 = 2008;

/// A term in at most this many documents is rare: `--seed` replaces it.
const RARE_DF: u32 = 20;

/// The SplitMix64 generator: the benchmark needs a few thousand
/// reproducible draws and links no random-number crate.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
