//! Integration tests: the paper's quantitative claims, end to end.
//!
//! Each test exercises a theorem/corollary through the *public facade API*
//! (not internal shortcuts), at the same operating points the paper quotes.

mod common;

use common::{adaptive, sv, top_k};
use free_gap::prelude::*;
use free_gap_noise::rng::derive_stream;
use free_gap_noise::stats::RunningMoments;
use free_gap_noise::ContinuousDistribution;

#[test]
fn theorem2_gap_variance_matches_16k2_over_eps2() {
    // §5.1: pairwise gap estimates have variance 16k²/ε² (general queries).
    let k = 3;
    let eps = 0.5;
    let answers = QueryAnswers::general(vec![900.0, 800.0, 700.0, 600.0, 0.0]);
    let mech = NoisyTopKWithGap::new(k, eps, false).unwrap();
    let mut gaps = RunningMoments::new();
    for run in 0..40_000u64 {
        let mut rng = derive_stream(1, run);
        let out = top_k(mech, &answers, &mut rng).unwrap();
        if out.indices() == vec![0, 1, 2] {
            // gap between ranks 1 and 2 — two noise terms only
            gaps.push(out.items[0].gap);
        }
    }
    let expect = 16.0 * (k * k) as f64 / (eps * eps);
    let rel = (gaps.variance() - expect).abs() / expect;
    assert!(
        rel < 0.05,
        "variance {} vs 16k²/ε² = {expect}",
        gaps.variance()
    );
    assert!(
        (pairwise_gap_variance(k, eps, false) - expect).abs() < 1e-9,
        "closed form disagrees"
    );
}

#[test]
fn corollary1_error_reduction_at_paper_operating_point() {
    // k = 25, counting queries: the paper quotes "(k-1)/2k … close to 50%".
    let reduction = 100.0 * (1.0 - blue_variance_ratio(25, 1.0));
    assert!((reduction - 48.0).abs() < 0.5, "reduction {reduction}");
}

#[test]
fn section62_limits() {
    // §6.2: improvement approaches 20% (general) and 50% (monotone).
    assert!((100.0 * (1.0 - svt_error_ratio(1_000_000, false)) - 20.0).abs() < 0.1);
    assert!((100.0 * (1.0 - svt_error_ratio(1_000_000, true)) - 50.0).abs() < 0.1);
}

#[test]
fn lemma5_tail_is_exact_for_both_rate_regimes() {
    for (rq, rt) in [(1.0, 1.0), (0.4, 2.0)] {
        let diff = LaplaceDiff::new(rq, rt).unwrap();
        let mut rng = rng_from_seed(9);
        for t in [0.0, 0.7, 2.5] {
            let n = 120_000;
            let hits = (0..n).filter(|_| diff.sample(&mut rng) >= -t).count() as f64;
            let p = diff.lower_tail(t);
            let sigma = (p * (1.0 - p) / n as f64).sqrt();
            assert!(
                (hits / n as f64 - p).abs() < 5.0 * sigma,
                "rates ({rq},{rt}), t = {t}"
            );
        }
    }
}

#[test]
fn appendix_a1_tie_bound_certifies_machine_epsilon_implementations() {
    // §5.1 implementation-issues: with γ = 2⁻⁵² and a million queries the
    // failure probability δ is negligible.
    let delta = free_gap::noise::tie::union_tie_bound(1_000_000, 1.0, 2f64.powi(-52)).unwrap();
    assert!(delta < 1e-3, "δ = {delta}");
    // …and with float32-like granularity it would NOT be: the bound warns.
    let delta32 = free_gap::noise::tie::union_tie_bound(1_000_000, 1.0, 2f64.powi(-23)).unwrap();
    assert!(
        delta32 > 0.1,
        "a coarse grid must look risky, got {delta32}"
    );
}

#[test]
fn adaptive_svt_answers_up_to_twice_k_far_from_threshold() {
    // §6.1: "if queries are very far from the threshold, our adaptive
    // version will be able to find twice as many of them".
    let k = 8;
    let answers = QueryAnswers::counting(vec![1e9; 64]);
    let mech = AdaptiveSparseVector::new(k, 0.7, 0.0, true).unwrap();
    let mut rng = rng_from_seed(12);
    let out = adaptive(mech, &answers, &mut rng);
    assert!(
        out.answered() >= 2 * k - 2,
        "answered {} with k = {k}",
        out.answered()
    );
}

#[test]
fn gap_plus_threshold_is_consistent_estimator() {
    // §6.2: gap + T estimates q(D); at growing ε the estimate concentrates.
    let truth = 750.0;
    let answers = QueryAnswers::counting(vec![truth]);
    let spread = |eps: f64| {
        let m = SparseVectorWithGap::new(1, eps, 500.0, true).unwrap();
        let mut moments = RunningMoments::new();
        for run in 0..5_000u64 {
            let mut rng = derive_stream(13, run);
            if let Some((_, g)) = sv(m, &answers, &mut rng).gaps().first() {
                moments.push(g + 500.0 - truth);
            }
        }
        moments.variance()
    };
    let wide = spread(0.2);
    let tight = spread(2.0);
    assert!(
        tight < wide / 50.0,
        "variance did not shrink: {tight} vs {wide}"
    );
}
