//! Criterion microbenchmarks: mechanism throughput on realistic workloads.
//!
//! These measure the *cost* of the free-gap mechanisms against their
//! classic baselines — the paper's claim is that the gap information is
//! free in privacy; these benches confirm it is also essentially free in
//! compute (same noise draws, same selection pass) — and the batched fast
//! providers ([`AnyMechanism::call_batched`]) against the dyn reference
//! ([`AnyMechanism::call_reference`]) (see `repro bench` for the full grid
//! with JSON output).

use criterion::{criterion_group, criterion_main, Criterion};
use free_gap_core::noisy_max::{ClassicNoisyTopK, NoisyTopKWithGap};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, ClassicSparseVector, SparseVectorWithGap,
};
use free_gap_core::{AnyMechanism, CallScratch, MechanismOutput, QueryAnswers, QuerySlice};
use free_gap_data::Dataset;
use free_gap_noise::rng::{fast_rng_from_seed, rng_from_seed};
use std::hint::black_box;

fn workload(n_hint: usize) -> QueryAnswers {
    // A scaled BMS-POS-like count vector; n_hint trims the query count so
    // benches can sweep workload size.
    let db = Dataset::BmsPos.generate_scaled(0.02, 7);
    let counts = db.item_counts();
    let values: Vec<f64> = counts.to_f64().into_iter().take(n_hint).collect();
    QueryAnswers::counting(values)
}

/// The execution path a bench drives: the dyn reference provider, or the
/// batched fast provider under the ChaCha (`Batched`) or Xoshiro
/// (`BatchedFast`) generator.
#[derive(Clone, Copy)]
enum Path {
    Reference,
    Batched,
    BatchedFast,
}

fn bench(
    c: &mut Criterion,
    group: &str,
    id: String,
    mech: AnyMechanism,
    a: &QueryAnswers,
    seed: u64,
    path: Path,
) {
    let mut group = c.benchmark_group(group);
    let req = QuerySlice::from_answers(a);
    let mut out = MechanismOutput::new_for(&mech);
    let mut scratch = CallScratch::new();
    group.bench_function(id, |b| match path {
        Path::Reference => {
            let mut rng = rng_from_seed(seed);
            b.iter(|| black_box(mech.call_reference(&req, &mut rng, &mut out)));
        }
        Path::Batched => {
            let mut rng = rng_from_seed(seed);
            b.iter(|| black_box(mech.call_batched(&req, &mut rng, &mut scratch, &mut out)));
        }
        Path::BatchedFast => {
            let mut rng = fast_rng_from_seed(seed);
            b.iter(|| black_box(mech.call_batched(&req, &mut rng, &mut scratch, &mut out)));
        }
    });
    group.finish();
}

fn bench_noisy_max_family(c: &mut Criterion) {
    for &n in &[256usize, 1657] {
        let answers = workload(n);
        let k = 10.min(n - 1);
        let classic: AnyMechanism = ClassicNoisyTopK::new(k, 0.7, true).unwrap().into();
        let with_gap: AnyMechanism = NoisyTopKWithGap::new(k, 0.7, true).unwrap().into();
        for (name, mech, path) in [
            ("classic_topk", classic, Path::Reference),
            ("topk_with_gap", with_gap, Path::Reference),
            ("topk_with_gap_scratch", with_gap, Path::Batched),
            ("topk_with_gap_scratch_fast", with_gap, Path::BatchedFast),
        ] {
            bench(
                c,
                "noisy_max",
                format!("{name}/{n}"),
                mech,
                &answers,
                1,
                path,
            );
        }
    }
}

fn bench_sparse_vector_family(c: &mut Criterion) {
    let answers = workload(1657);
    let threshold = {
        // A mid-range threshold so the mechanisms process a realistic prefix.
        let mut sorted: Vec<f64> = answers.values().to_vec();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        sorted[40]
    };
    let k = 10;
    let classic: AnyMechanism = ClassicSparseVector::new(k, 0.7, threshold, true)
        .unwrap()
        .into();
    let with_gap: AnyMechanism = SparseVectorWithGap::new(k, 0.7, threshold, true)
        .unwrap()
        .into();
    let adaptive: AnyMechanism = AdaptiveSparseVector::new(k, 0.7, threshold, true)
        .unwrap()
        .into();
    for (name, mech, path) in [
        ("classic_svt", classic, Path::Reference),
        ("svt_with_gap", with_gap, Path::Reference),
        ("adaptive_svt_with_gap", adaptive, Path::Reference),
        ("adaptive_svt_with_gap_scratch", adaptive, Path::Batched),
        (
            "adaptive_svt_with_gap_scratch_fast",
            adaptive,
            Path::BatchedFast,
        ),
    ] {
        bench(
            c,
            "sparse_vector",
            name.to_string(),
            mech,
            &answers,
            2,
            path,
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_noisy_max_family, bench_sparse_vector_family
}
criterion_main!(benches);
