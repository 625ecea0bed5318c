//! Adaptive-Sparse-Vector-with-Gap (Algorithm 2) versus classic SVT: more
//! answers from the same privacy budget.
//!
//! Finds items whose counts exceed a public threshold in a click-stream-like
//! dataset. Classic SVT pays a fixed per-answer budget; the adaptive
//! mechanism tests each query with extra-cheap noise first and only falls
//! back to the expensive test near the threshold — so queries far above the
//! threshold cost half as much.
//!
//! Run with: `cargo run --release --example adaptive_svt`

use free_gap::prelude::*;
use free_gap_noise::rng::derive_stream;

fn main() {
    let db = Dataset::Kosarak.generate_scaled(0.02, 3);
    let counts = db.item_counts();
    let answers = QueryAnswers::from_counts(counts.as_u64());

    let epsilon = 0.7;
    let k = 10; // budget sized for k baseline answers
                // Public threshold at the value of descending rank 5k.
    let threshold = counts.sorted_desc()[5 * k] as f64;
    let truly_above = counts.num_at_or_above(threshold);
    println!(
        "workload: {} queries; threshold T = {threshold} ({truly_above} truly above); ε = {epsilon}, k = {k}\n",
        answers.len()
    );

    let req = QuerySlice::from_answers(&answers);
    let runs = 500;
    let mut svt_total = 0usize;
    let mut adaptive_total = 0usize;
    let mut top_total = 0usize;
    let mut remaining = 0.0;
    for run in 0..runs {
        let mut rng = derive_stream(41, run);
        let svt: AnyMechanism = ClassicSparseVector::new(k, epsilon, threshold, true)
            .unwrap()
            .into();
        let adaptive: AnyMechanism = AdaptiveSparseVector::new(k, epsilon, threshold, true)
            .unwrap()
            .into();
        let (mut s, mut a) = (
            MechanismOutput::new_for(&svt),
            MechanismOutput::new_for(&adaptive),
        );
        svt.call_reference(&req, &mut rng, &mut s).unwrap();
        adaptive.call_reference(&req, &mut rng, &mut a).unwrap();
        let (s, a) = (s.sparse_vector_mut(), a.adaptive_mut());
        svt_total += s.answered();
        adaptive_total += a.answered();
        top_total += a.answered_via(Branch::Top);
        remaining += a.remaining_fraction();
    }
    let rf = runs as f64;
    println!("average above-threshold answers over {runs} runs:");
    println!("  classic SVT            : {:6.2}", svt_total as f64 / rf);
    println!(
        "  Adaptive-SVT-with-Gap  : {:6.2}  ({:.0}% via the cheap top branch)",
        adaptive_total as f64 / rf,
        100.0 * top_total as f64 / adaptive_total.max(1) as f64
    );
    println!(
        "  leftover budget (adaptive, unstopped): {:.1}%",
        100.0 * remaining / rf
    );

    // One run in detail: gaps + free 95% lower-confidence bounds (Lemma 5).
    let adaptive = AdaptiveSparseVector::new(k, epsilon, threshold, true).unwrap();
    let mut out = MechanismOutput::new_for(&adaptive.into());
    AnyMechanism::from(adaptive)
        .call_reference(&req, &mut rng_from_seed(5), &mut out)
        .unwrap();
    let out = out.adaptive_mut();
    println!(
        "\none run: answered {} queries; first five with certificates:",
        out.answered()
    );
    for (idx, gap) in out.gaps().into_iter().take(5) {
        // Branch budgets: this demo conservatively uses the middle branch's
        // (larger-noise) rates for the certificate.
        let t95 = gap_confidence_offset(adaptive.epsilon2(), adaptive.epsilon0(), 0.95).unwrap();
        println!(
            "  item {idx:>5}: estimate {est:9.1}, true {truth:>6}, 95% lower bound {lb:9.1}",
            est = gap + threshold,
            truth = counts.count(idx),
            lb = gap + threshold - t95,
        );
    }
}
