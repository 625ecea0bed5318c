//! The §5.2 workflow: select the top-k queries, measure them, and use the
//! free gaps to cut the measurement error by up to half.
//!
//! A data analyst wants both the *identities* and the *values* of the top-k
//! most frequent items. The standard recipe splits the budget: half to
//! select (Noisy-Top-K), half to measure (Laplace). The paper's insight is
//! that the selection step can hand back k free gaps, and the BLUE of
//! Theorem 3 folds them into the measurements.
//!
//! Run with: `cargo run --release --example top_k_measure`

use free_gap::prelude::*;
use free_gap_noise::rng::derive_stream;

fn main() {
    let db = Dataset::T40I10D100K.generate_scaled(0.05, 11);
    let counts = db.item_counts();
    let answers = QueryAnswers::from_counts(counts.as_u64());

    let epsilon = 0.7;
    let k = 10;
    let runs = 2_000;

    println!(
        "workload: {} counting queries; ε = {epsilon}, k = {k}, {runs} runs\n",
        answers.len()
    );

    // Monte-Carlo the full pipeline to show the MSE effect.
    let mut sse_baseline = 0.0;
    let mut sse_blue = 0.0;
    let mut pairs = 0usize;
    // The protocol (f = 1/2 split, BLUE) is one function; the draw
    // provider is the caller's choice — `RngDraws` is the batched,
    // draw-exact one.
    let mut scratch = TopKScratch::new();
    for run in 0..runs {
        let mut rng = derive_stream(99, run);
        let mut provider = RngDraws::new(&mut rng);
        let r =
            topk_select_measure(&answers, k, epsilon, 0.5, &mut provider, &mut scratch).unwrap();
        for i in 0..k {
            sse_baseline += (r.measurements[i] - r.truths[i]).powi(2);
            sse_blue += (r.blue[i] - r.truths[i]).powi(2);
            pairs += 1;
        }
    }
    let mse_baseline = sse_baseline / pairs as f64;
    let mse_blue = sse_blue / pairs as f64;

    println!("measurement-only baseline MSE : {mse_baseline:10.1}");
    println!("BLUE (measurements + gaps) MSE: {mse_blue:10.1}");
    println!(
        "improvement: {:.1}%  (Corollary 1 predicts {:.1}% at k = {k}, λ = 1)",
        mse_improvement_percent(mse_baseline, mse_blue),
        100.0 * (1.0 - blue_variance_ratio(k, 1.0)),
    );

    // One concrete run, for intuition.
    let mut rng = rng_from_seed(7);
    let mut provider = RngDraws::new(&mut rng);
    let r = topk_select_measure(&answers, k, epsilon, 0.5, &mut provider, &mut scratch).unwrap();
    println!("\none run, per-query estimates (true / measured / BLUE):");
    for i in 0..k {
        println!(
            "  item {:>4}: {:>8.0} / {:>9.1} / {:>9.1}",
            r.indices[i], r.truths[i], r.measurements[i], r.blue[i]
        );
    }
}
