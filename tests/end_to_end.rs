//! Integration tests: full dataset → mechanism → postprocessing workflows
//! through the facade crate, spanning all member crates.

mod common;

use common::{adaptive, indices, multi_branch, sv, svt_pipeline, top_k, topk_pipeline};
use free_gap::prelude::*;
use free_gap_noise::rng::derive_stream;

/// Shared small workload: a scaled T40 dataset's counting queries.
fn workload() -> (ItemCounts, QueryAnswers) {
    let db = Dataset::T40I10D100K.generate_scaled(0.02, 1234);
    let counts = db.item_counts();
    let answers = QueryAnswers::from_counts(counts.as_u64());
    (counts, answers)
}

#[test]
fn dataset_to_topk_selection_finds_heavy_items() {
    let (counts, answers) = workload();
    let truth = counts.top_k_indices(5);
    let mech = NoisyTopKWithGap::new(5, 5.0, true).unwrap();
    let mut rng = rng_from_seed(1);
    let mut hits = 0usize;
    let runs = 200;
    for _ in 0..runs {
        let got = top_k(mech, &answers, &mut rng);
        let q = selection_quality(&got.unwrap().indices(), &truth);
        if q.recall > 0.79 {
            hits += 1;
        }
    }
    assert!(
        hits > runs / 2,
        "top-k recall was rarely high: {hits}/{runs}"
    );
}

#[test]
fn full_select_measure_blue_workflow_improves_mse() {
    let (_, answers) = workload();
    let k = 8;
    let mut sse_base = 0.0;
    let mut sse_blue = 0.0;
    for run in 0..1_500u64 {
        let mut rng = derive_stream(77, run);
        let r = topk_pipeline(&answers, k, 0.7, &mut rng).unwrap();
        for i in 0..k {
            sse_base += (r.measurements[i] - r.truths[i]).powi(2);
            sse_blue += (r.blue[i] - r.truths[i]).powi(2);
        }
    }
    let improvement = mse_improvement_percent(sse_base, sse_blue);
    let theory = 100.0 * (1.0 - blue_variance_ratio(k, 1.0));
    assert!(
        (improvement - theory).abs() < 6.0,
        "improvement {improvement}% vs theory {theory}%"
    );
}

#[test]
fn full_svt_workflow_matches_section_6_2() {
    let (counts, answers) = workload();
    let k = 6;
    let threshold = counts.sorted_desc()[4 * k] as f64;
    let mut sse_base = 0.0;
    let mut sse_comb = 0.0;
    for run in 0..1_500u64 {
        let mut rng = derive_stream(78, run);
        let r = svt_pipeline(&answers, k, 0.7, threshold, &mut rng).unwrap();
        for i in 0..r.indices.len() {
            sse_base += (r.measurements[i] - r.truths[i]).powi(2);
            sse_comb += (r.combined[i] - r.truths[i]).powi(2);
        }
    }
    let ratio = sse_comb / sse_base;
    let theory = svt_error_ratio(k, true);
    assert!(
        (ratio - theory).abs() < 0.06,
        "ratio {ratio} vs theory {theory}"
    );
}

#[test]
fn adaptive_svt_beats_classic_on_real_workload() {
    let (counts, answers) = workload();
    let k = 10;
    let threshold = counts.sorted_desc()[5 * k] as f64;
    let classic = ClassicSparseVector::new(k, 0.7, threshold, true).unwrap();
    let adaptive_mech = AdaptiveSparseVector::new(k, 0.7, threshold, true).unwrap();
    let mut classic_total = 0usize;
    let mut adaptive_total = 0usize;
    for run in 0..300u64 {
        let mut rng = derive_stream(79, run);
        classic_total += sv(classic, &answers, &mut rng).answered();
        adaptive_total += adaptive(adaptive_mech, &answers, &mut rng).answered();
    }
    assert!(
        adaptive_total as f64 > 1.5 * classic_total as f64,
        "adaptive {adaptive_total} vs classic {classic_total}"
    );
}

#[test]
fn budget_accountant_tracks_pipeline_spend() {
    let mut budget = PrivacyBudget::new(1.0).unwrap();
    let (_, answers) = workload();
    // Select with half, measure with half, as the pipelines do.
    let shares = budget.split(&[0.5, 0.5]).unwrap();
    let selector = NoisyTopKWithGap::new(3, shares[0], true).unwrap();
    let mut rng = rng_from_seed(2);
    let out = top_k(selector, &answers, &mut rng);
    budget.try_debit(shares[0]).unwrap();
    let measurer = LaplaceMechanism::new(shares[1]).unwrap();
    let out = out.unwrap();
    let truths: Vec<f64> = out.indices().iter().map(|&i| answers.values()[i]).collect();
    let _ = measurer.run(&truths, &mut rng);
    budget.try_debit(shares[1]).unwrap();
    assert!(budget.remaining() < 1e-9);
    assert!(budget.try_debit(0.01).is_err());
}

#[test]
fn exponential_mechanism_agrees_with_noisy_max_on_easy_instances() {
    // Both selection baselines should find the dominant item w.h.p.
    let answers = QueryAnswers::counting(vec![500.0, 10.0, 20.0, 30.0]);
    let expo = ExponentialTopK::new(ExponentialMechanism::new(1.0, true).unwrap(), 1).unwrap();
    let nmax = ClassicNoisyTopK::new(1, 1.0, true).unwrap();
    let mut rng = rng_from_seed(3);
    let mut expo_hits = 0;
    let mut nmax_hits = 0;
    for _ in 0..500 {
        if indices(expo, &answers, &mut rng).unwrap() == [0] {
            expo_hits += 1;
        }
        if indices(nmax, &answers, &mut rng).unwrap() == [0] {
            nmax_hits += 1;
        }
    }
    assert!(expo_hits > 480, "exponential mechanism hits {expo_hits}");
    assert!(nmax_hits > 480, "noisy max hits {nmax_hits}");
}

#[test]
fn multi_branch_ladder_dominates_algorithm2_on_real_workload() {
    // The §6.1 extension through the facade: on a rank-thresholded dataset
    // workload, 3 branches answer at least as many as Algorithm 2 (m = 2),
    // which answers more than SVT-with-Gap (m = 1).
    let (counts, answers) = workload();
    let k = 8;
    let threshold = counts.sorted_desc()[4 * k] as f64;
    let mut totals = [0usize; 3];
    for run in 0..200u64 {
        let mut rng = derive_stream(501, run);
        for (i, m) in [1usize, 2, 3].into_iter().enumerate() {
            let mech = MultiBranchAdaptiveSparseVector::new(k, 0.7, threshold, true, m).unwrap();
            totals[i] += multi_branch(mech, &answers, &mut rng).answered();
        }
    }
    assert!(
        totals[1] > totals[0],
        "m=2 {} vs m=1 {}",
        totals[1],
        totals[0]
    );
    assert!(
        totals[2] >= totals[1],
        "m=3 {} vs m=2 {}",
        totals[2],
        totals[1]
    );
}

#[test]
fn discrete_topk_tracks_continuous_on_integer_counts() {
    // Facade-level check of the §5.1 finite-precision variant: selection
    // quality on real integer counts matches the continuous mechanism.
    let (counts, answers) = workload();
    let truth = counts.top_k_indices(5);
    let disc = DiscreteNoisyTopKWithGap::new(5, 2.0, true).unwrap();
    let cont = NoisyTopKWithGap::new(5, 2.0, true).unwrap();
    let mut rng = rng_from_seed(7);
    let mut d_recall = 0.0;
    let mut c_recall = 0.0;
    let runs = 300;
    for _ in 0..runs {
        d_recall +=
            selection_quality(&top_k(disc, &answers, &mut rng).unwrap().indices(), &truth).recall;
        c_recall +=
            selection_quality(&top_k(cont, &answers, &mut rng).unwrap().indices(), &truth).recall;
    }
    assert!(
        (d_recall - c_recall).abs() / (runs as f64) < 0.05,
        "recall gap: discrete {d_recall} vs continuous {c_recall}"
    );
    // And its δ ledger is available for the workload size.
    assert!(disc.delta(answers.len()).is_finite());
}

#[test]
fn transaction_adjacency_induces_monotone_unit_perturbations() {
    // The data-layer adjacency (remove one record) must induce exactly the
    // query-layer adjacency the mechanisms assume.
    let db = Dataset::BmsPos.generate_scaled(0.0005, 9);
    let counts = db.item_counts();
    for idx in [0usize, 57, 200] {
        let neighbor = db.neighbor_without(idx % db.num_records());
        let ncounts = neighbor.item_counts();
        let mut deltas = Vec::new();
        for i in 0..counts.len() {
            deltas.push(ncounts.as_u64()[i] as f64 - counts.as_u64()[i] as f64);
        }
        assert!(deltas.iter().all(|&d| (-1.0..=0.0).contains(&d)));
        assert!(deltas.iter().any(|&d| d == -1.0), "some count must drop");
    }
}
