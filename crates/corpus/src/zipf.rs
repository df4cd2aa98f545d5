//! Zipfian sampling over ranked items.
//!
//! Term occurrences in natural-language corpora follow a Zipf law; the
//! synthetic WSJ-like corpus draws tokens from this distribution to
//! reproduce the highly skewed inverted-list length distribution of the
//! paper's Figure 4.

use rand::Rng;

/// Zipf(s) distribution over ranks `0..n`: P(rank k) ∝ (k+1)^-s.
///
/// Sampling is inverse-CDF with binary search over a precomputed table —
/// O(log n) per draw, n up to a few hundred thousand here.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the sampler; `n` must be positive and `s` finite.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over empty support");
        assert!(s.is_finite() && s >= 0.0, "invalid Zipf exponent {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += ((k + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point shortfall at the top.
        *cdf.last_mut().unwrap() = 1.0;
        Zipf { cdf }
    }

    /// Support size.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draw a rank in `0..n`.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `k` (for calibration tests).
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(1000, 1.0);
        let total: f64 = (0..1000).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_zero_is_most_probable() {
        let z = Zipf::new(100, 1.2);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
    }

    #[test]
    fn uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn samples_in_range_and_skewed() {
        let z = Zipf::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; 50];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Every sample in range; head much heavier than tail.
        assert!(counts[0] > counts[49] * 5);
        // Empirical head frequency close to theoretical (1/H_50 ≈ 0.2228).
        let head = counts[0] as f64 / 20_000.0;
        assert!((head - z.pmf(0)).abs() < 0.02, "head={head}");
    }

    #[test]
    fn single_item_support() {
        let z = Zipf::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(z.sample(&mut rng), 0);
    }
}
