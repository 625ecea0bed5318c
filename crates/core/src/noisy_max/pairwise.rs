//! Pairwise gap algebra (§5.1).
//!
//! The released gaps telescope: the estimated gap between the `a`-th and
//! `b`-th selected queries is `Σ_{i=a}^{b-1} gᵢ = q̃_{j_a} - q̃_{j_b}`, whose
//! randomness is just *two* Laplace noises (the intermediate ones cancel),
//! so its variance is `4·scale²` — `16k²/ε²` at Algorithm 1's general scale,
//! independent of how far apart `a` and `b` are.

use super::gap::TopKOutput;
use super::top_k_scale;

/// Estimated noisy gap between the `a`-th and `b`-th selected queries
/// (1-indexed ranks, `a < b <= k`): `q̃_{j_a} - q̃_{j_b}`.
///
/// # Panics
/// Panics unless `1 <= a < b <= k + 1` where `k` is the number of items
/// (rank `k + 1` is the runner-up, reachable because the `k`-th gap bridges
/// to it).
pub fn pairwise_gap(output: &TopKOutput, a: usize, b: usize) -> f64 {
    let k = output.items.len();
    // lint:allow(panic-freedom): documented precondition on rank indices — a caller property, not data
    assert!(
        a >= 1 && a < b && b <= k + 1,
        "need 1 <= a < b <= k+1, got a={a}, b={b}, k={k}"
    );
    output.items[(a - 1)..(b - 1)].iter().map(|it| it.gap).sum()
}

/// Variance of any pairwise gap estimate from a mechanism configured with
/// (`k`, `epsilon`, `monotonic`): `4·scale²`, i.e. `16k²/ε²` in general and
/// `4k²/ε²` for monotone workloads.
pub fn pairwise_gap_variance(k: usize, epsilon: f64, monotonic: bool) -> f64 {
    let s = top_k_scale(k, epsilon, monotonic);
    4.0 * s * s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answers::QueryAnswers;
    use crate::api::testing::reference;
    use crate::noisy_max::{NoisyTopKWithGap, TopKItem};
    use free_gap_noise::rng::rng_from_seed;
    use free_gap_noise::stats::RunningMoments;

    fn output() -> TopKOutput {
        TopKOutput {
            items: vec![
                TopKItem { index: 3, gap: 2.0 },
                TopKItem { index: 1, gap: 0.5 },
                TopKItem { index: 4, gap: 1.5 },
            ],
        }
    }

    #[test]
    fn telescoping_sums() {
        let o = output();
        assert_eq!(pairwise_gap(&o, 1, 2), 2.0);
        assert_eq!(pairwise_gap(&o, 1, 3), 2.5);
        assert_eq!(pairwise_gap(&o, 2, 4), 2.0);
        assert_eq!(pairwise_gap(&o, 1, 4), 4.0); // down to the runner-up
    }

    #[test]
    #[should_panic(expected = "need 1 <= a < b")]
    fn rank_bounds_checked() {
        pairwise_gap(&output(), 2, 2);
    }

    #[test]
    fn variance_formula_matches_paper() {
        // General: 16 k² / ε².
        assert!((pairwise_gap_variance(3, 0.5, false) - 16.0 * 9.0 / 0.25).abs() < 1e-9);
        // Monotone: 4 k² / ε².
        assert!((pairwise_gap_variance(3, 0.5, true) - 4.0 * 9.0 / 0.25).abs() < 1e-9);
    }

    #[test]
    fn empirical_pairwise_variance_independent_of_distance() {
        // Variance of q̃_a − q̃_b must not grow with b − a.
        let answers = QueryAnswers::counting(vec![1000.0, 900.0, 800.0, 700.0, 0.0]);
        let m = NoisyTopKWithGap::new(4, 8.0, true).unwrap();
        let mut rng = rng_from_seed(77);
        let mut adjacent = RunningMoments::new();
        let mut distant = RunningMoments::new();
        for _ in 0..30_000 {
            let o = reference(&m, &answers, &mut rng).unwrap().into_top_k();
            // Condition on the dominant ordering so ranks map to fixed queries.
            if o.indices() == vec![0, 1, 2, 3] {
                adjacent.push(pairwise_gap(&o, 1, 2));
                distant.push(pairwise_gap(&o, 1, 4));
            }
        }
        let expect = pairwise_gap_variance(4, 8.0, true);
        let rel_adj = (adjacent.variance() - expect).abs() / expect;
        let rel_dist = (distant.variance() - expect).abs() / expect;
        assert!(
            rel_adj < 0.1,
            "adjacent var {} vs {expect}",
            adjacent.variance()
        );
        assert!(
            rel_dist < 0.1,
            "distant var {} vs {expect}",
            distant.variance()
        );
    }
}
