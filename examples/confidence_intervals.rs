//! Free lower-confidence intervals from SVT gaps (Lemma 5 / §6.2).
//!
//! When Sparse-Vector-with-Gap reports a gap γ for a query, `γ + T` is a
//! noisy estimate of the true answer whose noise is the difference of two
//! Laplace variables. Lemma 5 gives that distribution in closed form, so we
//! can attach calibrated lower bounds to every answer — for free.
//!
//! This example validates the calibration empirically: the c-confidence
//! bound should cover the truth in a c fraction of runs, for every c.
//!
//! Run with: `cargo run --release --example confidence_intervals`

use free_gap::prelude::*;
use free_gap_noise::rng::derive_stream;

fn main() {
    let truth = 2_000.0;
    let threshold = 1_500.0;
    let epsilon = 0.5;
    let m = SparseVectorWithGap::new(1, epsilon, threshold, true).unwrap();
    let answers = QueryAnswers::counting(vec![truth]);

    // Lemma 5 parameters for this mechanism: the query-noise rate is ε₂
    // (k = 1, monotone ⇒ scale 1/ε₂) and the threshold-noise rate ε₁.
    let rate_query = m.epsilon2();
    let rate_threshold = m.epsilon1();
    println!(
        "SVT-with-Gap: ε = {epsilon} (threshold share {:.3}), query rate {:.3}, threshold rate {:.3}",
        m.epsilon1() / epsilon,
        rate_query,
        rate_threshold
    );
    println!("true answer {truth}, threshold {threshold}\n");

    println!("confidence   offset t_c   empirical coverage   certifies q ≥ T?");
    let runs = 30_000;
    let mech = AnyMechanism::from(m);
    let req = QuerySlice::from_answers(&answers);
    let mut out = MechanismOutput::new_for(&mech);
    for confidence in [0.5, 0.8, 0.9, 0.95, 0.99] {
        let t_c = gap_confidence_offset(rate_query, rate_threshold, confidence).unwrap();
        let mut covered = 0usize;
        let mut certified = 0usize;
        let mut answered = 0usize;
        for run in 0..runs {
            mech.call_reference(&req, &mut derive_stream(17, run), &mut out)
                .unwrap();
            if let Some((_, gap)) = out.sparse_vector_mut().gaps().first() {
                answered += 1;
                let lower = gap + threshold - t_c;
                if lower <= truth {
                    covered += 1;
                }
                if lower >= threshold {
                    certified += 1;
                }
            }
        }
        println!(
            "      {confidence:.2}   {t_c:10.1}              {:.3}               {:5.1}%",
            covered as f64 / answered as f64,
            100.0 * certified as f64 / answered as f64,
        );
    }
    println!(
        "\nthe empirical coverage matches the requested confidence — the bound is\n\
         calibrated, and it consumed zero additional privacy budget."
    );
}
