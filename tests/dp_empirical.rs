//! Integration tests: black-box empirical privacy audits.
//!
//! Complementary to the alignment checks: these treat each mechanism as a
//! black box over a tiny workload, estimate output distributions on a pair
//! of adjacent inputs, and verify the max log-ratio stays within the
//! claimed ε (plus sampling slack). Gaps are discretized onto a coarse grid
//! so the output space is finite.

mod common;

use common::{adaptive, sv, top_k};
use free_gap::alignment::empirical::empirical_epsilon;
use free_gap::prelude::*;
use free_gap_noise::rng::rng_from_seed;
use rand::rngs::StdRng;

const TRIALS: usize = 60_000;
const MIN_COUNT: usize = 200;

/// Sampling slack on ε̂: with ≥ MIN_COUNT observations per cell the ratio
/// estimate is within ~2/√200 ≈ 0.15 at 2σ.
const SLACK: f64 = 0.2;

#[test]
fn noisy_max_with_gap_epsilon_hat() {
    // Output: (argmax index, gap rounded to a coarse grid). The paper's
    // claim is ε-DP for the *joint* release. Mixed-direction deltas require
    // the general (non-monotone) mechanism configuration.
    let eps = 1.0;
    let mech = NoisyTopKWithGap::new(1, eps, false).unwrap();
    let run = |answers: &[f64], rng: &mut StdRng| {
        let item = top_k(mech, &QueryAnswers::general(answers.to_vec()), rng)
            .unwrap()
            .items[0];
        (item.index, (item.gap / 4.0).floor().min(6.0) as i64)
    };
    let d = vec![3.0, 2.0, 0.0];
    let dp = vec![2.0, 3.0, 1.0]; // mixed directions, each |δ| <= 1
    let mut rng = rng_from_seed(1);
    let audit = empirical_epsilon(run, &d, &dp, TRIALS, MIN_COUNT, &mut rng);
    assert!(
        audit.epsilon_hat <= eps + SLACK,
        "ε̂ = {} (witness {})",
        audit.epsilon_hat,
        audit.witness
    );
}

#[test]
fn monotone_configuration_under_non_monotone_adjacency_is_flagged() {
    // The monotone configuration halves the noise (Theorem 2's tighter
    // analysis) and is only valid for monotone workloads. Feeding it
    // mixed-direction adjacent inputs breaks the assumption, and the audit
    // observes a loss near 2ε — exactly the factor the skipped analysis
    // would have paid. This is the audit catching a *workload-assumption*
    // violation, not a mechanism bug.
    let eps = 1.0;
    let mech = NoisyTopKWithGap::new(1, eps, true).unwrap();
    let run = |answers: &[f64], rng: &mut StdRng| {
        let item = top_k(mech, &QueryAnswers::counting(answers.to_vec()), rng)
            .unwrap()
            .items[0];
        (item.index, (item.gap / 4.0).floor().min(6.0) as i64)
    };
    let d = vec![3.0, 2.0, 0.0];
    let dp = vec![2.0, 3.0, 1.0]; // NOT monotone
    let mut rng = rng_from_seed(6);
    let audit = empirical_epsilon(run, &d, &dp, TRIALS, MIN_COUNT, &mut rng);
    assert!(
        audit.epsilon_hat > eps + SLACK,
        "expected a flagged violation, got ε̂ = {}",
        audit.epsilon_hat
    );
    assert!(
        audit.epsilon_hat < 2.0 * eps + 2.0 * SLACK,
        "ε̂ = {}",
        audit.epsilon_hat
    );
}

#[test]
fn monotone_noisy_max_consumes_half_budget() {
    // Theorem 2: with monotone (all-up) adjacency, the mechanism configured
    // for ε is actually ε-DP with the *halved* noise — equivalently, the
    // observed loss at matched noise should stay within ε.
    let eps = 0.8;
    let mech = NoisyTopKWithGap::new(1, eps, true).unwrap();
    let run = |answers: &[f64], rng: &mut StdRng| {
        let out = top_k(mech, &QueryAnswers::counting(answers.to_vec()), rng).unwrap();
        (
            out.items[0].index,
            (out.items[0].gap / 5.0).floor().min(5.0) as i64,
        )
    };
    let d = vec![4.0, 3.0, 1.0];
    let dp = vec![5.0, 4.0, 2.0]; // all +1: monotone adjacency
    let mut rng = rng_from_seed(2);
    let audit = empirical_epsilon(run, &d, &dp, TRIALS, MIN_COUNT, &mut rng);
    assert!(
        audit.epsilon_hat <= eps + SLACK,
        "ε̂ = {}",
        audit.epsilon_hat
    );
}

#[test]
fn adaptive_svt_epsilon_hat() {
    let eps = 0.7;
    let threshold = 5.0;
    let mech = AdaptiveSparseVector::new(2, eps, threshold, true).unwrap();
    let run = |answers: &[f64], rng: &mut StdRng| {
        let out = adaptive(mech, &QueryAnswers::counting(answers.to_vec()), rng);
        // Discretize: per query, branch tag only (gap coarsened to sign).
        out.outcomes
            .iter()
            .map(|o| match o {
                free_gap::core::sparse_vector::AdaptiveOutcome::Below => 0u8,
                free_gap::core::sparse_vector::AdaptiveOutcome::Above { branch, .. } => {
                    match branch {
                        Branch::Top => 1,
                        Branch::Middle => 2,
                    }
                }
            })
            .collect::<Vec<u8>>()
    };
    let d = vec![6.0, 4.0, 5.0, 3.0];
    let dp = vec![5.0, 5.0, 4.0, 4.0];
    let mut rng = rng_from_seed(3);
    let audit = empirical_epsilon(run, &d, &dp, TRIALS, MIN_COUNT, &mut rng);
    assert!(
        audit.epsilon_hat <= eps + SLACK,
        "ε̂ = {} (witness {})",
        audit.epsilon_hat,
        audit.witness
    );
}

#[test]
fn classic_svt_epsilon_hat() {
    let eps = 0.9;
    let mech = ClassicSparseVector::new(1, eps, 4.0, true).unwrap();
    let run = |answers: &[f64], rng: &mut StdRng| {
        let out = sv(mech, &QueryAnswers::counting(answers.to_vec()), rng);
        out.above.iter().map(|o| o.is_some()).collect::<Vec<bool>>()
    };
    let d = vec![5.0, 3.0, 4.0];
    let dp = vec![4.0, 4.0, 3.0];
    let mut rng = rng_from_seed(4);
    let audit = empirical_epsilon(run, &d, &dp, TRIALS, MIN_COUNT, &mut rng);
    assert!(
        audit.epsilon_hat <= eps + SLACK,
        "ε̂ = {}",
        audit.epsilon_hat
    );
}

#[test]
fn sanity_the_audit_catches_overconfident_budgets() {
    // Same mechanism, but we *claim* a quarter of the true budget. The
    // empirical loss must expose the gap — demonstrating the audit has
    // teeth at these trial counts.
    let true_eps = 2.0;
    let claimed = 0.5;
    let mech = NoisyTopKWithGap::new(1, true_eps, true).unwrap();
    let run = |answers: &[f64], rng: &mut StdRng| {
        top_k(mech, &QueryAnswers::counting(answers.to_vec()), rng)
            .unwrap()
            .items[0]
            .index
    };
    let d = vec![3.0, 2.0];
    let dp = vec![2.0, 3.0];
    let mut rng = rng_from_seed(5);
    let audit = empirical_epsilon(run, &d, &dp, TRIALS, MIN_COUNT, &mut rng);
    assert!(
        audit.epsilon_hat > claimed + SLACK,
        "audit failed to flag: ε̂ = {} vs claimed {claimed}",
        audit.epsilon_hat
    );
}
