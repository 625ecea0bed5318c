//! Quickstart: the free gap in 60 lines.
//!
//! Selects the top-3 most frequent items of a small synthetic retail
//! dataset under differential privacy, showing what the classic mechanism
//! returns versus what the gap-releasing mechanism returns *at the same
//! privacy cost*.
//!
//! Run with: `cargo run --release --example quickstart`

use free_gap::prelude::*;

fn main() {
    // A tiny BMS-POS-like dataset: transactions over an item universe.
    let db = Dataset::BmsPos.generate_scaled(0.002, 7);
    let counts = db.item_counts();
    let answers = QueryAnswers::from_counts(counts.as_u64());
    println!(
        "dataset: {} transactions, {} items",
        db.num_records(),
        db.num_unique_items()
    );

    let epsilon = 1.0;
    let k = 3;
    let mut rng = rng_from_seed(2019);
    // Every mechanism takes the same request and fills the same output
    // enum; `call_reference` draws its noise through the dyn reference
    // provider (`call_batched` would pick the batched fast one).
    let req = QuerySlice::from_answers(&answers);

    // The classic mechanism: indices only.
    let classic: AnyMechanism = ClassicNoisyTopK::new(k, epsilon, true).unwrap().into();
    let mut out = MechanismOutput::new_for(&classic);
    classic.call_reference(&req, &mut rng, &mut out).unwrap();
    let indices = out.indices_mut();
    println!("\nclassic Noisy Top-{k} (ε = {epsilon}): items {indices:?} — and that's all");

    // The paper's mechanism: same privacy cost, same selection quality,
    // plus one free gap per selected query.
    let with_gap: AnyMechanism = NoisyTopKWithGap::new(k, epsilon, true).unwrap().into();
    with_gap.call_reference(&req, &mut rng, &mut out).unwrap();
    let out = out.top_k_mut();
    println!("\nNoisy-Top-{k}-with-Gap (ε = {epsilon}, same cost):");
    for (rank, item) in out.items.iter().enumerate() {
        println!(
            "  #{rank_n}: item {idx:>4}  (true count {truth:>5}, noisy gap to next ≈ {gap:8.1})",
            rank_n = rank + 1,
            idx = item.index,
            truth = counts.count(item.index),
            gap = item.gap,
        );
    }

    // The gaps telescope: a free estimate of the spread between the best
    // and the runner-up after the selection, with known variance.
    let spread = pairwise_gap(out, 1, k + 1);
    let sd = pairwise_gap_variance(k, epsilon, true).sqrt();
    println!("\nfree estimate of (best − runner-up after top-{k}): {spread:.1} ± {sd:.1} (1σ)",);
    println!("privacy spent either way: ε = {epsilon} — the gaps cost nothing.");
}
