//! Output reuse: a `MechanismOutput` kept alive across calls is coerced in
//! place — bit-identical to a fresh output per call, and genuinely
//! allocation-free once its buffer has grown to steady state (reused,
//! never reallocated).

use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, SparseVectorWithGap,
};
use free_gap_core::staircase_mech::StaircaseMechanism;
use free_gap_core::{
    AnyMechanism, CallScratch, ExponentialTopK, Mechanism, MechanismOutput, QuerySlice,
};
use free_gap_noise::rng::derive_stream;
use rand::Rng;

fn workload(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = derive_stream(seed, 999);
    (0..n)
        .map(|i| (n - i) as f64 * 0.37 + rng.gen_range(0.0..30.0))
        .collect()
}

/// Capacity of the output's payload buffer, and whether its length is
/// data-independent (fixed by `k` or `n`, so capacity must never move
/// after the first call).
fn capacity(out: &MechanismOutput) -> (usize, bool) {
    match out {
        MechanismOutput::TopK(o) => (o.items.capacity(), true),
        MechanismOutput::Indices(o) => (o.capacity(), true),
        MechanismOutput::Measurements(o) => (o.capacity(), true),
        MechanismOutput::SparseVector(o) => (o.above.capacity(), false),
        MechanismOutput::Adaptive(o) => (o.outcomes.capacity(), false),
        MechanismOutput::MultiBranch(o) => (o.outcomes.capacity(), false),
    }
}

#[test]
fn every_mechanism_reuses_its_output_bit_identically() {
    let values = workload(1, 300);
    let integers: Vec<f64> = values.iter().map(|v| v.round()).collect();
    let threshold = values[30];
    let int_threshold = threshold.round();
    let expo = ExponentialMechanism::new(0.9, true).unwrap();
    let grid: Vec<(AnyMechanism, &[f64])> = vec![
        (NoisyTopKWithGap::new(8, 0.7, true).unwrap().into(), &values),
        (ClassicNoisyTopK::new(5, 0.9, true).unwrap().into(), &values),
        (
            DiscreteNoisyTopKWithGap::new(6, 0.8, true).unwrap().into(),
            &integers,
        ),
        (ExponentialTopK::new(expo, 8).unwrap().into(), &values),
        (StaircaseMechanism::new(1.1).unwrap().into(), &values),
        (
            ClassicSparseVector::new(6, 0.7, threshold, true)
                .unwrap()
                .into(),
            &values,
        ),
        (
            SparseVectorWithGap::new(6, 0.7, threshold, true)
                .unwrap()
                .into(),
            &values,
        ),
        (
            AdaptiveSparseVector::new(8, 0.7, threshold, true)
                .unwrap()
                .into(),
            &values,
        ),
        (
            MultiBranchAdaptiveSparseVector::new(5, 0.7, threshold, true, 3)
                .unwrap()
                .into(),
            &values,
        ),
        (
            DiscreteSparseVectorWithGap::new(5, 0.8, int_threshold, true)
                .unwrap()
                .into(),
            &integers,
        ),
    ];
    for (mech, queries) in grid {
        let req = QuerySlice::new(queries);
        let mut scratch = CallScratch::new();
        // Start from a mismatched variant: the first call must coerce it.
        let mut reused = MechanismOutput::Indices(vec![usize::MAX; 3]);
        let mut steady = None;
        for run in 0..100u64 {
            let mut fresh = MechanismOutput::new_for(&mech);
            mech.call_batched(&req, &mut derive_stream(3, run), &mut scratch, &mut fresh)
                .unwrap();
            mech.call_batched(&req, &mut derive_stream(3, run), &mut scratch, &mut reused)
                .unwrap();
            assert_eq!(fresh, reused, "{} run {run}", mech.name());
            assert_eq!(
                fresh.digest(0),
                reused.digest(0),
                "{} run {run}",
                mech.name()
            );
            let (cap, fixed_len) = capacity(&reused);
            if fixed_len {
                assert_eq!(
                    *steady.get_or_insert(cap),
                    cap,
                    "{} run {run} reallocated",
                    mech.name()
                );
            }
        }
        // Steady state on one fixed stream: the consumption prediction
        // (which pre-sizes the SVT outputs) stabilizes after two calls, and
        // the reused buffer must then stop growing entirely.
        let mut steady = 0;
        for rep in 0..20 {
            mech.call_batched(&req, &mut derive_stream(3, 0), &mut scratch, &mut reused)
                .unwrap();
            let (cap, _) = capacity(&reused);
            if rep == 2 {
                steady = cap;
            } else if rep > 2 {
                assert_eq!(cap, steady, "{} rep {rep} reallocated", mech.name());
            }
        }
    }
}
