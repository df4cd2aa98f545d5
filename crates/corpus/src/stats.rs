//! Corpus statistics: the inverted-list length distribution of Figure 4.

use crate::document::Corpus;

/// Summary of the inverted-list (document-frequency) length distribution.
#[derive(Debug, Clone, PartialEq)]
// lint:allow(unused-pub): reached only as the value of `list_length_stats`
pub struct ListLengthStats {
    /// Document frequency of every dictionary term, ascending.
    pub sorted_lengths: Vec<u32>,
    /// Longest inverted list (paper: 127,848 for WSJ).
    pub max_len: u32,
    /// Fraction of terms whose list holds 2–5 entries (paper: > 50 %).
    pub frac_in_2_to_5: f64,
    /// Mean list length.
    pub mean_len: f64,
}

/// Compute document frequencies and the Figure 4 summary for a corpus.
pub fn list_length_stats(corpus: &Corpus) -> ListLengthStats {
    let mut df = vec![0u32; corpus.num_terms()];
    for doc in corpus.docs() {
        for &(t, _) in &doc.counts {
            df[t as usize] += 1;
        }
    }
    df.sort_unstable();
    let max_len = df.last().copied().unwrap_or(0);
    let in_2_to_5 = df.iter().filter(|&&d| (2..=5).contains(&d)).count();
    let frac = if df.is_empty() {
        0.0
    } else {
        in_2_to_5 as f64 / df.len() as f64
    };
    let mean = if df.is_empty() {
        0.0
    } else {
        df.iter().map(|&d| d as f64).sum::<f64>() / df.len() as f64
    };
    ListLengthStats {
        sorted_lengths: df,
        max_len,
        frac_in_2_to_5: frac,
        mean_len: mean,
    }
}

impl ListLengthStats {
    /// Cumulative frequency (%) of terms with list length ≤ `len` —
    /// one point of Figure 4's CDF.
    pub(crate) fn cumulative_pct(&self, len: u32) -> f64 {
        if self.sorted_lengths.is_empty() {
            return 0.0;
        }
        let below = self.sorted_lengths.partition_point(|&d| d <= len);
        100.0 * below as f64 / self.sorted_lengths.len() as f64
    }

    /// CDF sampled at logarithmically spaced lengths (Figure 4's x-axis
    /// spans 10^1..10^5).
    pub fn log_cdf(&self, points_per_decade: usize) -> Vec<(u32, f64)> {
        let max = self.max_len.max(1);
        let decades = (max as f64).log10().ceil() as usize + 1;
        let mut out = Vec::new();
        let mut last_len = 0u32;
        for i in 0..=decades * points_per_decade {
            let len = 10f64.powf(i as f64 / points_per_decade as f64).round() as u32;
            if len == last_len || len > max {
                continue;
            }
            last_len = len;
            out.push((len, self.cumulative_pct(len)));
        }
        if last_len != max {
            out.push((max, 100.0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::CorpusBuilder;

    fn corpus() -> Corpus {
        // df: shared=3, pair=2, x/y appear once (pruned by min_df=2).
        CorpusBuilder::new()
            .min_df(2)
            .add_text("shared pair x")
            .add_text("shared pair y")
            .add_text("shared solo1 solo2")
            .build()
    }

    #[test]
    fn df_computed() {
        let c = corpus();
        let s = list_length_stats(&c);
        assert_eq!(s.sorted_lengths, vec![2, 3]);
        assert_eq!(s.max_len, 3);
    }

    #[test]
    fn frac_counts_short_lists() {
        let s = list_length_stats(&corpus());
        assert!((s.frac_in_2_to_5 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cumulative_pct_monotone() {
        let s = list_length_stats(&corpus());
        assert_eq!(s.cumulative_pct(0), 0.0);
        assert_eq!(s.cumulative_pct(1), 0.0);
        assert_eq!(s.cumulative_pct(2), 50.0);
        assert_eq!(s.cumulative_pct(3), 100.0);
        assert_eq!(s.cumulative_pct(100), 100.0);
    }

    #[test]
    fn log_cdf_ends_at_max() {
        let s = list_length_stats(&corpus());
        let cdf = s.log_cdf(4);
        assert_eq!(cdf.last(), Some(&(3, 100.0)));
        assert!(cdf.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn empty_corpus() {
        let c = CorpusBuilder::new().build();
        let s = list_length_stats(&c);
        assert_eq!(s.max_len, 0);
        assert_eq!(s.mean_len, 0.0);
    }
}
