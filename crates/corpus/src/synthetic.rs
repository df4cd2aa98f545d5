//! Synthetic WSJ-like corpus generation.
//!
//! The paper evaluates on the WSJ corpus from the TREC collection
//! (172,961 Wall Street Journal articles, 513 MB, 181,978 dictionary terms
//! after stopword and df<2 removal). That corpus is licensed and cannot be
//! redistributed, so this module generates a synthetic collection
//! calibrated against the published statistics:
//!
//! * `n` documents (scalable; paper scale n = 172,961);
//! * dictionary of about `1.052·n` terms (the WSJ m/n ratio);
//! * token stream drawn from a two-component mixture: a Zipf-distributed
//!   *common pool* (heavy head → a few inverted lists orders of magnitude
//!   longer than the rest) and a uniform *rare pool* whose terms land in
//!   only a handful of documents (→ more than half of all lists have 2–5
//!   entries, Figure 4);
//! * log-normal document lengths around the WSJ average article.
//!
//! Every measured quantity in the paper's evaluation (entries read,
//! fraction of list read, I/O time, VO size, verification time) is a
//! function of the list-length distribution and Okapi weights only, so
//! matching Figure 4's shape is exactly what the substitution must achieve.
//! The bench harness's Figure 4 table prints the generated CDF next to
//! the paper's published anchor points.

use crate::document::{Corpus, DocId, TermId, TokenizedDoc};
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Number of WSJ articles (paper Table 1).
pub const WSJ_NUM_DOCS: usize = 172_961;

/// WSJ dictionary size (paper Table 1).
pub(crate) const WSJ_NUM_TERMS: usize = 181_978;

/// Configuration for the synthetic generator.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Number of documents to generate.
    pub num_docs: usize,
    /// Target dictionary size (pre-pruning vocabulary is inflated ~12 % so
    /// that after dropping df<2 terms roughly this many survive).
    pub target_vocab: usize,
    /// Zipf exponent for the common-term pool.
    pub zipf_s: f64,
    /// Fraction of the vocabulary assigned to the rare pool.
    pub rare_vocab_frac: f64,
    /// Probability that a token is drawn from the rare pool.
    pub rare_token_prob: f64,
    /// Zipf exponent *within* the rare pool: a mild skew spreads rare
    /// terms across document frequencies 2–300 (the middle of Figure 4's
    /// CDF) while the pool's tail keeps the 2–5-entry majority.
    pub rare_zipf_s: f64,
    /// Mean document length in tokens (post-stopword WSJ articles).
    pub mean_doc_len: f64,
    /// Standard deviation of ln(length) for the log-normal length model.
    pub doc_len_sigma: f64,
    /// Minimum document length.
    pub min_doc_len: u32,
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
}

impl SyntheticConfig {
    /// WSJ-calibrated configuration at a given scale factor
    /// (`scale = 1.0` reproduces the paper's n = 172,961).
    pub fn wsj(scale: f64) -> SyntheticConfig {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let num_docs = ((WSJ_NUM_DOCS as f64 * scale).round() as usize).max(50);
        let target_vocab =
            ((WSJ_NUM_TERMS as f64 / WSJ_NUM_DOCS as f64) * num_docs as f64).round() as usize;
        SyntheticConfig {
            num_docs,
            target_vocab: target_vocab.max(100),
            zipf_s: 1.05,
            rare_vocab_frac: 0.78,
            rare_token_prob: 0.015,
            rare_zipf_s: 0.3,
            mean_doc_len: 280.0,
            doc_len_sigma: 0.45,
            min_doc_len: 16,
            seed: 0x0057_5a4a_2008, // "WSJ 2008"
        }
    }

    /// A tiny corpus for unit tests (hundreds of documents).
    pub fn tiny(num_docs: usize, seed: u64) -> SyntheticConfig {
        SyntheticConfig {
            num_docs,
            target_vocab: (num_docs as f64 * 1.052) as usize + 20,
            zipf_s: 1.05,
            rare_vocab_frac: 0.78,
            rare_token_prob: 0.015,
            rare_zipf_s: 0.3,
            mean_doc_len: 60.0,
            doc_len_sigma: 0.4,
            min_doc_len: 8,
            seed,
        }
    }

    /// Generate the corpus.
    pub fn generate(&self) -> Corpus {
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Inflate the raw vocabulary: df<2 pruning will eat ~10 % of it.
        let raw_vocab = ((self.target_vocab as f64) * 1.115).ceil() as usize;
        let rare_size = ((raw_vocab as f64) * self.rare_vocab_frac) as usize;
        let common_size = (raw_vocab - rare_size).max(1);
        let zipf = Zipf::new(common_size, self.zipf_s);
        let rare_zipf = (rare_size > 0).then(|| Zipf::new(rare_size, self.rare_zipf_s));

        // Scatter common-pool ranks across raw term ids so that term id
        // carries no frequency information (like a real alphabetical
        // dictionary). We map rank r -> id via a fixed permutation.
        let mut perm: Vec<u32> = (0..raw_vocab as u32).collect();
        // Fisher-Yates with the seeded rng.
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }

        let mu = self.mean_doc_len.ln() - self.doc_len_sigma * self.doc_len_sigma / 2.0;

        // Per-document raw term counts.
        let mut raw_docs: Vec<Vec<(u32, u32)>> = Vec::with_capacity(self.num_docs);
        let mut token_lens: Vec<u32> = Vec::with_capacity(self.num_docs);
        let mut df: Vec<u32> = vec![0; raw_vocab];
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for _ in 0..self.num_docs {
            let len = sample_lognormal(&mut rng, mu, self.doc_len_sigma)
                .round()
                // lint:allow(truncating-cast): float→int `as` saturates (never wraps), and the lognormal is parameterized by config-sized document lengths
                .max(self.min_doc_len as f64) as u32;
            counts.clear();
            for _ in 0..len {
                let raw_id = match &rare_zipf {
                    Some(rz) if rng.gen::<f64>() < self.rare_token_prob => {
                        common_size + rz.sample(&mut rng)
                    }
                    _ => zipf.sample(&mut rng),
                };
                *counts.entry(perm[raw_id]).or_insert(0) += 1;
            }
            let mut vec: Vec<(u32, u32)> = counts.drain().collect();
            vec.sort_unstable_by_key(|&(t, _)| t);
            for &(t, _) in &vec {
                df[t as usize] += 1;
            }
            raw_docs.push(vec);
            token_lens.push(len);
        }

        // Prune df<2 terms and compact ids (paper: remove words appearing
        // in only one document).
        let mut remap: Vec<Option<TermId>> = vec![None; raw_vocab];
        let mut next: TermId = 0;
        for (raw, &d) in df.iter().enumerate() {
            if d >= 2 {
                remap[raw] = Some(next);
                next += 1;
            }
        }
        let kept = next as usize;

        // Synthetic dictionary strings, zero-padded so lexicographic order
        // equals id order (the invariant Corpus::from_parts expects).
        let width = kept.to_string().len().max(6);
        let dictionary: Vec<String> = (0..kept).map(|i| format!("t{i:0width$}")).collect();

        let docs: Vec<TokenizedDoc> = raw_docs
            .into_iter()
            .enumerate()
            .map(|(i, raw)| {
                let counts: Vec<(TermId, u32)> = raw
                    .into_iter()
                    .filter_map(|(t, c)| remap[t as usize].map(|id| (id, c)))
                    .collect();
                TokenizedDoc {
                    id: i as DocId,
                    counts,
                    token_len: token_lens[i],
                }
            })
            .collect();

        Corpus::from_parts(dictionary, docs, None)
    }
}

fn sample_lognormal<R: Rng>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    // Box-Muller.
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (mu + sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::list_length_stats;

    #[test]
    fn deterministic_given_seed() {
        let a = SyntheticConfig::tiny(100, 7).generate();
        let b = SyntheticConfig::tiny(100, 7).generate();
        assert_eq!(a.num_terms(), b.num_terms());
        assert_eq!(a.docs(), b.docs());
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticConfig::tiny(100, 7).generate();
        let b = SyntheticConfig::tiny(100, 8).generate();
        assert_ne!(a.docs(), b.docs());
    }

    #[test]
    fn no_term_has_df_below_two() {
        let c = SyntheticConfig::tiny(200, 3).generate();
        let mut df = vec![0u32; c.num_terms()];
        for d in c.docs() {
            for &(t, _) in &d.counts {
                df[t as usize] += 1;
            }
        }
        assert!(df.iter().all(|&d| d >= 2), "min df = {:?}", df.iter().min());
    }

    #[test]
    fn dictionary_sorted() {
        let c = SyntheticConfig::tiny(150, 1).generate();
        assert!(c.dictionary().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn doc_lengths_respect_floor() {
        let cfg = SyntheticConfig::tiny(200, 5);
        let c = cfg.generate();
        assert!(c.docs().iter().all(|d| d.token_len >= cfg.min_doc_len));
    }

    #[test]
    fn wsj_scale_config_matches_paper_defaults() {
        let cfg = SyntheticConfig::wsj(1.0);
        assert_eq!(cfg.num_docs, WSJ_NUM_DOCS);
        assert_eq!(cfg.target_vocab, WSJ_NUM_TERMS);
    }

    #[test]
    fn list_length_distribution_is_skewed() {
        // Even a small-scale corpus must show Figure 4's signature:
        // a majority of short lists plus a very long head list.
        let c = SyntheticConfig::wsj(0.01).generate(); // ~1.7k docs
        let stats = list_length_stats(&c);
        assert!(
            stats.frac_in_2_to_5 > 0.35,
            "short-list share = {}",
            stats.frac_in_2_to_5
        );
        assert!(
            stats.max_len as f64 > 0.5 * c.num_docs() as f64,
            "max list = {} of {} docs",
            stats.max_len,
            c.num_docs()
        );
    }
}
