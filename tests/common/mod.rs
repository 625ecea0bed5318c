//! Shared test shorthands: one mechanism call on the dyn reference path
//! (`AnyMechanism::call_reference` — `SourceDraws` over a `StdRng`), with
//! the output unpacked to the mechanism's shape.

// Each test crate uses a subset of these helpers.
#![allow(dead_code)]

use free_gap::alignment::SamplingSource;
use free_gap::core::pipelines::{SvtPipelineResult, TopKPipelineResult};
use free_gap::core::sparse_vector::{AdaptiveSvOutput, MultiBranchSvOutput, SvOutput};
use free_gap::prelude::*;
use rand::rngs::StdRng;

/// One call of `mech` over `answers` on the dyn reference path.
pub fn reference(
    mech: impl Into<AnyMechanism>,
    answers: &QueryAnswers,
    rng: &mut StdRng,
) -> Result<MechanismOutput, MechanismError> {
    let mech = mech.into();
    let mut out = MechanismOutput::new_for(&mech);
    mech.call_reference(&QuerySlice::from_answers(answers), rng, &mut out)?;
    Ok(out)
}

/// A Noisy-Top-K-with-Gap-family run.
pub fn top_k(
    mech: impl Into<AnyMechanism>,
    answers: &QueryAnswers,
    rng: &mut StdRng,
) -> Result<TopKOutput, MechanismError> {
    match reference(mech, answers, rng)? {
        MechanismOutput::TopK(out) => Ok(out),
        other => panic!("expected a Top-K output, got {other:?}"),
    }
}

/// An index-only selection run (classic Top-K, exponential mechanism).
pub fn indices(
    mech: impl Into<AnyMechanism>,
    answers: &QueryAnswers,
    rng: &mut StdRng,
) -> Result<Vec<usize>, MechanismError> {
    match reference(mech, answers, rng)? {
        MechanismOutput::Indices(out) => Ok(out),
        other => panic!("expected indices, got {other:?}"),
    }
}

/// A classic / gap / discrete SVT run (infallible).
pub fn sv(mech: impl Into<AnyMechanism>, answers: &QueryAnswers, rng: &mut StdRng) -> SvOutput {
    match reference(mech, answers, rng) {
        Ok(MechanismOutput::SparseVector(out)) => out,
        other => panic!("expected an SVT output, got {other:?}"),
    }
}

/// An Adaptive-SVT-with-Gap run (infallible).
pub fn adaptive(
    mech: AdaptiveSparseVector,
    answers: &QueryAnswers,
    rng: &mut StdRng,
) -> AdaptiveSvOutput {
    match reference(mech, answers, rng) {
        Ok(MechanismOutput::Adaptive(out)) => out,
        other => panic!("expected an adaptive output, got {other:?}"),
    }
}

/// A multi-branch adaptive SVT run (infallible).
pub fn multi_branch(
    mech: MultiBranchAdaptiveSparseVector,
    answers: &QueryAnswers,
    rng: &mut StdRng,
) -> MultiBranchSvOutput {
    match reference(mech, answers, rng) {
        Ok(MechanismOutput::MultiBranch(out)) => out,
        other => panic!("expected a multi-branch output, got {other:?}"),
    }
}

/// The §5.2 Top-K select-then-measure pipeline (50/50 split) on the dyn
/// reference path.
pub fn topk_pipeline(
    answers: &QueryAnswers,
    k: usize,
    epsilon: f64,
    rng: &mut StdRng,
) -> Result<TopKPipelineResult, MechanismError> {
    let mut source = SamplingSource::new(rng);
    let mut provider = SourceDraws::new(&mut source);
    topk_select_measure(
        answers,
        k,
        epsilon,
        0.5,
        &mut provider,
        &mut TopKScratch::new(),
    )
}

/// The §6.2 SVT select-then-measure pipeline on the dyn reference path:
/// the measurements continue the selection's stream.
pub fn svt_pipeline(
    answers: &QueryAnswers,
    k: usize,
    epsilon: f64,
    threshold: f64,
    rng: &mut StdRng,
) -> Result<SvtPipelineResult, MechanismError> {
    let mut source = SamplingSource::new(rng);
    let mut provider = SourceDraws::new(&mut source);
    svt_select_measure(
        answers,
        k,
        epsilon,
        threshold,
        &mut provider,
        |p, truths, scale| {
            let mut out = Vec::new();
            p.fill_offset(truths, scale, &mut out);
            out
        },
    )
}
