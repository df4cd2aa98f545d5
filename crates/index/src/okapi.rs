//! The Okapi BM25 similarity weights of the paper's Formula (1).
//!
//! ```text
//! S(d|Q)  = Σ_{t∈Q}  w_{Q,t} · w_{d,t}
//! K_d     = k1 · ((1 − b) + b · W_d / W_A)
//! w_{d,t} = (k1 + 1) · f_{d,t} / (K_d + f_{d,t})
//! w_{Q,t} = ln( (n − f_t + 0.5) / (f_t + 0.5) ) · f_{Q,t}
//! ```
//!
//! with the recommended k1 = 1.2 and b = 0.75. `w_{d,t}` is precomputed at
//! index build time and stored as the 4-byte frequency of each impact entry
//! (the paper's inverted lists store exactly these); `w_{Q,t}` is computed
//! per query from the dictionary's `f_t` ([`query_weight`]), and reads
//! neither parameter.

/// Okapi parameters, checked where they are made: `k1 ≥ 0` and
/// `0 ≤ b ≤ 1`, both finite ([`OkapiParams::new`]). Outside that range
/// Formula (1) gives negative or NaN document weights, which the
/// paper's threshold algorithms exclude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OkapiParams {
    k1: f64,
    b: f64,
}

impl Default for OkapiParams {
    fn default() -> Self {
        OkapiParams { k1: 1.2, b: 0.75 }
    }
}

impl OkapiParams {
    /// The parameters `k1` and `b`, or `None` when `k1 < 0`, `b` lies
    /// outside `[0, 1]` or either is not finite.
    pub fn new(k1: f64, b: f64) -> Option<OkapiParams> {
        (k1.is_finite() && k1 >= 0.0 && (0.0..=1.0).contains(&b)).then_some(OkapiParams { k1, b })
    }

    /// Term-frequency saturation (recommended 1.2).
    pub fn k1(&self) -> f64 {
        self.k1
    }

    /// Length-normalization strength (recommended 0.75).
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Document-side weight `w_{d,t}`, stored (as `f32`) in impact entries.
    pub fn doc_weight(&self, f_dt: u32, doc_len: u32, avg_doc_len: f64) -> f32 {
        if f_dt == 0 {
            return 0.0;
        }
        let wd = doc_len as f64;
        let wa = if avg_doc_len > 0.0 { avg_doc_len } else { 1.0 };
        let kd = self.k1 * ((1.0 - self.b) + self.b * wd / wa);
        let f = f_dt as f64;
        (((self.k1 + 1.0) * f) / (kd + f)) as f32
    }
}

/// Query-side weight `w_{Q,t}` of a term with `f_t` postings, in a
/// collection of `n` documents, occurring `f_qt` times in the query.
///
/// Note the IDF component goes *negative* for terms appearing in more
/// than half the collection; such terms would subtract from scores and
/// break the threshold algorithms' monotonicity assumption, so — as
/// standard in impact-ordered indexes — it is floored at a small
/// positive epsilon. (In the WSJ-scale corpus, post-stopword terms
/// essentially never cross n/2.)
pub fn query_weight(n: usize, f_t: u32, f_qt: u32) -> f64 {
    if f_qt == 0 || f_t == 0 {
        return 0.0;
    }
    let idf = (((n as f64) - f_t as f64 + 0.5) / (f_t as f64 + 0.5)).ln();
    idf.max(1e-6) * f_qt as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_weight_increases_with_frequency() {
        let p = OkapiParams::default();
        let w1 = p.doc_weight(1, 100, 100.0);
        let w2 = p.doc_weight(2, 100, 100.0);
        let w10 = p.doc_weight(10, 100, 100.0);
        assert!(w1 < w2 && w2 < w10);
    }

    #[test]
    fn parameters_outside_the_model_are_refused() {
        assert_eq!(OkapiParams::new(1.2, 0.75), Some(OkapiParams::default()));
        for (k1, b) in [(0.0, 0.0), (0.0, 1.0), (100.0, 0.5)] {
            assert!(OkapiParams::new(k1, b).is_some(), "k1 = {k1}, b = {b}");
        }
        for (k1, b) in [
            (-3.0, 0.0),
            (-f64::MIN_POSITIVE, 0.5),
            (1.2, -0.01),
            (1.2, 1.01),
            (f64::NAN, 0.5),
            (1.2, f64::NAN),
            (f64::INFINITY, 0.5),
        ] {
            assert_eq!(OkapiParams::new(k1, b), None, "k1 = {k1}, b = {b}");
        }
    }

    #[test]
    fn doc_weight_saturates_below_k1_plus_1() {
        let p = OkapiParams::default();
        let w = p.doc_weight(1_000_000, 100, 100.0);
        assert!(w < (p.k1 + 1.0) as f32);
        assert!(w > 2.0); // approaches 2.2
    }

    #[test]
    fn longer_docs_weighted_down() {
        // Heuristic (c) of §2.1: documents containing many terms get less
        // weight.
        let p = OkapiParams::default();
        let short = p.doc_weight(3, 50, 100.0);
        let long = p.doc_weight(3, 400, 100.0);
        assert!(short > long);
    }

    #[test]
    fn zero_frequency_is_zero_weight() {
        let p = OkapiParams::default();
        assert_eq!(p.doc_weight(0, 100, 100.0), 0.0);
        assert_eq!(query_weight(1000, 0, 1), 0.0);
    }

    #[test]
    fn rare_terms_get_higher_query_weight() {
        // Heuristic (a): terms appearing in many documents weigh less.
        let rare = query_weight(100_000, 3, 1);
        let common = query_weight(100_000, 40_000, 1);
        assert!(rare > common);
    }

    #[test]
    fn query_weight_scales_with_query_frequency() {
        let w1 = query_weight(10_000, 10, 1);
        let w3 = query_weight(10_000, 10, 3);
        assert!((w3 - 3.0 * w1).abs() < 1e-9);
    }

    #[test]
    fn over_half_collection_floors_at_epsilon() {
        let w = query_weight(100, 90, 1);
        assert!(w > 0.0 && w <= 1e-6);
    }

    #[test]
    fn known_value_spot_check() {
        // n=1000, ft=9: ln(991.5/9.5) = ln(104.368...) ≈ 4.64798
        let w = query_weight(1000, 9, 1);
        assert!((w - (991.5f64 / 9.5).ln()).abs() < 1e-12);
    }
}
