//! Pins the unified call surface (`free_gap_core::api`):
//!
//! * `call_reference` and `call_batched` reproduce the reference provider
//!   call (`Mechanism::call` through a recording `TapeSource`) bit for bit;
//! * a call recorded onto a tape replays from it bit for bit, for every
//!   grid mechanism;
//! * names and costs — what the bench grid and the serving ledger key on —
//!   are stable;
//! * the resumable streaming SVT (`stream_open`/`stream_feed`) is
//!   bit-identical to a one-shot streaming run under any batching of the
//!   query feed.
//!
//! Together with `tests/scratch_equivalence.rs` (which pins every provider
//! and the lazy streaming entries to the reference) this makes the call
//! surface a pure re-packaging: no mechanism's served distribution changes.

use free_gap_alignment::TapeSource;
use free_gap_core::api::{
    AnyMechanism, CallScratch, ExponentialTopK, Mechanism, MechanismOutput, QuerySlice,
};
use free_gap_core::draw::ParallelDraws;
use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, SparseVectorWithGap, SvOutput,
};
use free_gap_core::staircase_mech::StaircaseMechanism;
use free_gap_core::{MechanismError, SvtScratch, TopKScratch};
use free_gap_noise::rng::{derive_fast_stream, derive_stream};

fn values() -> Vec<f64> {
    vec![120.0, 40.0, 97.0, 80.0, 3.0, 55.0, 101.0, 12.0]
}

fn grid() -> Vec<AnyMechanism> {
    let expo = ExponentialMechanism::new(0.8, true).unwrap();
    vec![
        NoisyTopKWithGap::new(3, 1.0, true).unwrap().into(),
        ClassicNoisyTopK::new(3, 1.0, true).unwrap().into(),
        DiscreteNoisyTopKWithGap::new(3, 1.0, true).unwrap().into(),
        ExponentialTopK::new(expo, 3).unwrap().into(),
        StaircaseMechanism::new(1.0).unwrap().into(),
        SparseVectorWithGap::new(3, 0.7, 60.0, true).unwrap().into(),
        ClassicSparseVector::new(3, 0.7, 60.0, true).unwrap().into(),
        AdaptiveSparseVector::new(3, 0.7, 60.0, true)
            .unwrap()
            .into(),
        MultiBranchAdaptiveSparseVector::new(3, 0.7, 60.0, true, 3)
            .unwrap()
            .into(),
        DiscreteSparseVectorWithGap::new(3, 0.7, 60.0, true)
            .unwrap()
            .into(),
    ]
}

/// `call_reference` is `Mechanism::call` through `RngDraws`, and
/// `call_batched` picks each mechanism's fast provider (`RngDraws` or the
/// `ScratchDraws` tape): on the same `StdRng` stream both must reproduce
/// the per-draw recording `TapeSource` call bit for bit.
#[test]
fn call_reference_and_call_batched_match_the_reference_provider() {
    let vals = values();
    let req = QuerySlice::new(&vals);
    for mech in grid() {
        let mut scratch = CallScratch::new();
        let (mut reference, mut batched) = (
            MechanismOutput::new_for(&mech),
            MechanismOutput::new_for(&mech),
        );
        for seed in 0..20u64 {
            let mut expect = MechanismOutput::new_for(&mech);
            let mut rng = derive_stream(seed, 0);
            mech.call(
                &req,
                &mut TapeSource::record(&mut rng),
                &mut TopKScratch::new(),
                &mut expect,
            )
            .unwrap();
            mech.call_reference(&req, &mut derive_stream(seed, 0), &mut reference)
                .unwrap();
            assert_eq!(reference, expect, "{} seed {seed} (reference)", mech.name());
            mech.call_batched(
                &req,
                &mut derive_stream(seed, 0),
                &mut scratch,
                &mut batched,
            )
            .unwrap();
            assert_eq!(batched, expect, "{} seed {seed} (batched)", mech.name());
            assert_eq!(
                batched.digest(0),
                expect.digest(0),
                "{} seed {seed}",
                mech.name()
            );
        }
    }
}

/// Recording a call onto a tape and replaying the tape reproduces the call
/// bit for bit and consumes the tape exactly — for every grid mechanism,
/// including the exponential race and the staircase, which implement no
/// `AlignedMechanism` and so are never replayed by the alignment checker.
#[test]
fn recorded_tape_replays_bit_identically_through_call() {
    let vals = values();
    let req = QuerySlice::new(&vals);
    for mech in grid() {
        for seed in 0..20u64 {
            let mut rng = derive_stream(seed, 0);
            let mut recorder = TapeSource::record(&mut rng);
            let mut recorded = MechanismOutput::new_for(&mech);
            mech.call(&req, &mut recorder, &mut TopKScratch::new(), &mut recorded)
                .unwrap();
            let tape = recorder.into_tape();
            assert!(!tape.is_empty(), "{} seed {seed}: no draws", mech.name());
            let mut replay = TapeSource::replay(tape);
            let mut replayed = MechanismOutput::new_for(&mech);
            mech.call(&req, &mut replay, &mut TopKScratch::new(), &mut replayed)
                .unwrap();
            assert_eq!(replayed, recorded, "{} seed {seed}", mech.name());
            assert_eq!(
                replayed.digest(0),
                recorded.digest(0),
                "{} seed {seed}",
                mech.name()
            );
            assert!(replay.fully_consumed(), "{} seed {seed}", mech.name());
            assert_eq!(replay.overrun(), 0, "{} seed {seed}", mech.name());
            assert_eq!(replay.mismatch(), None, "{} seed {seed}", mech.name());
        }
    }
}

/// Names and costs are what a uniform caller (benchmark grid, serving
/// ledger) keys on: pin them.
#[test]
fn names_and_costs_are_stable() {
    let expect = [
        ("NoisyTopKWithGap", 1.0),
        ("ClassicNoisyTopK", 1.0),
        ("DiscreteNoisyTopKWithGap", 1.0),
        ("ExponentialMechanism", 2.4), // k = 3 peels at ε = 0.8 each
        ("StaircaseMechanism", 1.0),
        ("SparseVectorWithGap", 0.7),
        ("ClassicSparseVector", 0.7),
        ("AdaptiveSparseVector", 0.7),
        ("MultiBranchAdaptiveSparseVector", 0.7),
        ("DiscreteSparseVectorWithGap", 0.7),
    ];
    let grid = grid();
    assert_eq!(grid.len(), expect.len());
    for (mech, (name, cost)) in grid.iter().zip(expect) {
        assert_eq!(mech.name(), name);
        assert!((mech.cost() - cost).abs() < 1e-12, "{name} cost");
    }
}

/// Feeding a streaming SVT run one query at a time (or in any other
/// batching) through `stream_open`/`stream_feed` must reproduce the
/// one-shot streaming run bit for bit — the property that lets a server
/// hold a session open across requests.
#[test]
fn resumable_stream_matches_one_shot() {
    let queries = values();
    let gap = SparseVectorWithGap::new(3, 0.7, 60.0, true).unwrap();
    let classic = ClassicSparseVector::new(3, 0.7, 60.0, true).unwrap();
    // Batchings: one-at-a-time, pairs, front-loaded, everything-at-once.
    let batchings: &[&[usize]] = &[
        &[1, 1, 1, 1, 1, 1, 1, 1],
        &[2, 2, 2, 2],
        &[5, 3],
        &[8],
        &[3, 1, 4],
    ];
    for seed in 0..30u64 {
        let mut one_shot_gap = SvOutput { above: Vec::new() };
        gap.run_streaming_with_scratch_into(
            queries.iter().copied(),
            &mut derive_fast_stream(seed, 2),
            &mut SvtScratch::new(),
            &mut one_shot_gap,
        );
        let mut one_shot_classic = SvOutput { above: Vec::new() };
        classic.run_streaming_with_scratch_into(
            queries.iter().copied(),
            &mut derive_fast_stream(seed, 2),
            &mut SvtScratch::new(),
            &mut one_shot_classic,
        );
        for batching in batchings {
            assert_eq!(batching.iter().sum::<usize>(), queries.len());
            // Gap-releasing variant.
            let mut rng = derive_fast_stream(seed, 2);
            let mut scratch = SvtScratch::new();
            let mut state = gap.stream_open(&mut rng, &mut scratch);
            let mut decisions = Vec::new();
            let mut offset = 0;
            for &batch in *batching {
                for &q in &queries[offset..offset + batch] {
                    if let Some(d) = gap.stream_feed(&mut state, q, &mut rng, &mut scratch) {
                        decisions.push(d);
                    }
                }
                offset += batch;
            }
            assert_eq!(
                decisions, one_shot_gap.above,
                "gap seed {seed} batching {batching:?}"
            );
            assert_eq!(state.answered(), one_shot_gap.answered());
            assert_eq!(state.is_halted(), one_shot_gap.answered() == gap.k());
            // Classic variant: same decisions, gaps withheld.
            let mut rng = derive_fast_stream(seed, 2);
            let mut scratch = SvtScratch::new();
            let mut state = classic.stream_open(&mut rng, &mut scratch);
            let mut decisions = Vec::new();
            for &q in &queries {
                if let Some(d) = classic.stream_feed(&mut state, q, &mut rng, &mut scratch) {
                    decisions.push(d);
                }
            }
            assert_eq!(
                decisions, one_shot_classic.above,
                "classic seed {seed} batching {batching:?}"
            );
        }
    }
}

/// Once the answer cap is reached, further feeds return `None` without
/// observing the query or advancing the noise stream.
#[test]
fn halted_stream_ignores_further_queries() {
    let gap = SparseVectorWithGap::new(1, 1.0, 10.0, true).unwrap();
    let mut rng = derive_fast_stream(7, 3);
    let mut scratch = SvtScratch::new();
    let mut state = gap.stream_open(&mut rng, &mut scratch);
    // A query far above threshold: answered immediately, halting the run.
    let mut fed = 0;
    while !state.is_halted() {
        if gap
            .stream_feed(&mut state, 500.0, &mut rng, &mut scratch)
            .is_none()
        {
            break;
        }
        fed += 1;
        assert!(fed < 100, "far-above query never answered");
    }
    assert!(state.is_halted());
    assert_eq!(state.answered(), 1);
    assert_eq!(state.k(), 1);
    assert!(gap
        .stream_feed(&mut state, 500.0, &mut rng, &mut scratch)
        .is_none());
}

/// A finite ε can still overflow a derived noise scale (`2k/ε` at
/// `ε = 1e-310` is `inf`). Every grid mechanism must either refuse such an
/// ε at construction with `InvalidEpsilon`, or run every path — the
/// reference, batched and parallel providers — to a result or a typed
/// error without panicking.
#[test]
fn tiny_epsilon_is_rejected_or_runs_on_every_path() {
    fn grid_at(eps: f64) -> Vec<Result<AnyMechanism, MechanismError>> {
        vec![
            NoisyTopKWithGap::new(3, eps, true).map(Into::into),
            ClassicNoisyTopK::new(3, eps, true).map(Into::into),
            DiscreteNoisyTopKWithGap::new(3, eps, true).map(Into::into),
            ExponentialMechanism::new(eps, true)
                .and_then(|m| ExponentialTopK::new(m, 3))
                .map(Into::into),
            StaircaseMechanism::new(eps).map(Into::into),
            SparseVectorWithGap::new(3, eps, 60.0, true).map(Into::into),
            ClassicSparseVector::new(3, eps, 60.0, true).map(Into::into),
            AdaptiveSparseVector::new(3, eps, 60.0, true).map(Into::into),
            MultiBranchAdaptiveSparseVector::new(3, eps, 60.0, true, 3).map(Into::into),
            DiscreteSparseVectorWithGap::new(3, eps, 60.0, true).map(Into::into),
        ]
    }
    let answers = values();
    let req = QuerySlice::new(&answers);
    for eps in [1e-310, 5e-324] {
        for (row, mech) in grid_at(eps).into_iter().enumerate() {
            let mech = match mech {
                Ok(m) => m,
                Err(e) => {
                    assert_eq!(
                        e,
                        MechanismError::InvalidEpsilon { value: eps },
                        "row {row}"
                    );
                    continue;
                }
            };
            let mut out = MechanismOutput::new_for(&mech);
            let mut scratch = CallScratch::new();
            let _ = mech.call_reference(&req, &mut derive_stream(1, 0), &mut out);
            let _ = mech.call_batched(&req, &mut derive_stream(1, 0), &mut scratch, &mut out);
            for threads in [1, 2] {
                let mut par = ParallelDraws::new(1, threads);
                let _ = mech.call_par(&req, &mut par, &mut scratch, &mut out);
            }
        }
    }
}
