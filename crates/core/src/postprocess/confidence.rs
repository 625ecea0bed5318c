//! Free lower-confidence intervals from SVT gaps (Lemma 5, §6.2).
//!
//! An above-threshold answer's gap `γᵢ` satisfies
//! `γᵢ = qᵢ(D) - T + (ηᵢ - η)` where `ηᵢ ~ Lap(1/ε*)` is the query noise of
//! the branch that fired and `η ~ Lap(1/ε₀)` the threshold noise. Lemma 5's
//! closed-form lower tail of `ηᵢ - η` therefore yields, at any confidence
//! `c`: `qᵢ(D) ≥ (γᵢ + T) - t_c` with probability `c` — e.g. a free
//! certificate that the query really is above the threshold.

use crate::error::MechanismError;
use free_gap_noise::LaplaceDiff;

/// A gap-derived point estimate with its lower confidence bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapConfidence {
    /// The point estimate `gap + T` of the true query answer.
    pub estimate: f64,
    /// The lower bound holding with the requested confidence.
    pub lower_bound: f64,
    /// The requested confidence level.
    pub confidence: f64,
}

impl GapConfidence {
    /// True when the bound certifies the answer is at least the threshold.
    pub fn certifies_above(&self, threshold: f64) -> bool {
        self.lower_bound >= threshold
    }
}

/// Solves Lemma 5 for the interval half-width `t_c`:
/// `P(ηᵢ - η ≥ -t_c) = confidence`, with `rate_query = ε*` (the budget of
/// the branch that answered: `ε₁` or `ε₂`) and `rate_threshold = ε₀`.
pub fn gap_confidence_offset(
    rate_query: f64,
    rate_threshold: f64,
    confidence: f64,
) -> Result<f64, MechanismError> {
    let diff = LaplaceDiff::new(rate_query, rate_threshold).map_err(|_| {
        MechanismError::InvalidEpsilon {
            value: rate_query.min(rate_threshold),
        }
    })?;
    diff.confidence_offset(confidence)
        .map_err(|_| MechanismError::InvalidFraction {
            name: "confidence",
            value: confidence,
        })
}

/// Builds the §6.2 confidence certificate for one answered gap.
pub fn gap_confidence(
    gap: f64,
    threshold: f64,
    rate_query: f64,
    rate_threshold: f64,
    confidence: f64,
) -> Result<GapConfidence, MechanismError> {
    let t = gap_confidence_offset(rate_query, rate_threshold, confidence)?;
    Ok(GapConfidence {
        estimate: gap + threshold,
        lower_bound: gap + threshold - t,
        confidence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answers::QueryAnswers;
    use crate::api::testing::reference;
    use crate::sparse_vector::SparseVectorWithGap;
    use free_gap_noise::rng::rng_from_seed;

    #[test]
    fn validates_inputs() {
        assert!(gap_confidence_offset(0.0, 1.0, 0.95).is_err());
        assert!(gap_confidence_offset(1.0, 1.0, 1.5).is_err());
    }

    #[test]
    fn offset_grows_with_confidence() {
        let t90 = gap_confidence_offset(1.0, 2.0, 0.90).unwrap();
        let t99 = gap_confidence_offset(1.0, 2.0, 0.99).unwrap();
        assert!(t99 > t90 && t90 > 0.0);
    }

    #[test]
    fn certificate_fields() {
        let c = gap_confidence(12.0, 100.0, 1.0, 4.0, 0.95).unwrap();
        assert_eq!(c.estimate, 112.0);
        assert!(c.lower_bound < c.estimate);
        assert!(c.certifies_above(100.0) == (c.lower_bound >= 100.0));
    }

    #[test]
    fn empirical_coverage_through_the_mechanism() {
        // End-to-end: run SVT-with-Gap on one far-above query and check the
        // 90% lower bound covers the true answer ~90% of the time. (The
        // conditioning on answering is negligible at this margin.)
        let truth = 400.0;
        let threshold = 100.0;
        let m = SparseVectorWithGap::new(1, 1.0, threshold, true).unwrap();
        let answers = QueryAnswers::counting(vec![truth]);
        let rate_query = m.epsilon2() / 1.0; // k = 1, monotone: scale 1/ε₂
        let rate_threshold = m.epsilon1();
        let t90 = gap_confidence_offset(rate_query, rate_threshold, 0.90).unwrap();
        let mut rng = rng_from_seed(64);
        let mut covered = 0usize;
        let mut total = 0usize;
        for _ in 0..40_000 {
            let out = reference(&m, &answers, &mut rng).unwrap().into_sv();
            if let Some((_, gap)) = out.gaps().first() {
                total += 1;
                if gap + threshold - t90 <= truth {
                    covered += 1;
                }
            }
        }
        let rate = covered as f64 / total as f64;
        assert!(
            (rate - 0.90).abs() < 0.01,
            "coverage {rate} over {total} runs"
        );
    }
}
