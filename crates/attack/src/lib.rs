//! # free-gap-attack
//!
//! A black-box privacy fault-injection harness over the Sparse Vector
//! family: the correct mechanisms from the paper and the deliberately
//! broken variant zoo (`free_gap_core::sparse_vector::broken`) behind one
//! [`AttackTarget`] trait, attacked with the same machinery.
//!
//! The attack shape follows dp-sniper (Bichsel et al., and the excerpt in
//! this repo's SNIPPETS.md): treat the mechanism as an opaque sampler and
//! look for a *witness* — a neighboring input pair `(D, D')` plus an output
//! event `E` with `P[M(D) ∈ E] > e^ε · P[M(D') ∈ E]`. The harness is
//! deliberately two-phase so the reported numbers are statistically sound:
//!
//! 1. **Search** ([`estimator`]): run every candidate input pair
//!    ([`inputs`]) through the target, project each output through a fixed
//!    family of classifiers ([`events`]), and score every observed
//!    `(pair, classifier, value, direction)` event with a Clopper–Pearson
//!    ε lower bound on the search sample.
//! 2. **Estimate**: re-run the *single* chosen event on fresh, disjoint
//!    RNG streams and report
//!    [`free_gap_alignment::binomial::epsilon_lower_bound`] at the
//!    configured significance. Because the event was fixed before these
//!    samples were drawn, the bound needs no multiple-testing correction —
//!    selection bias lives entirely in phase 1.
//!
//! The Monte-Carlo loops run every target on the blocked `ScratchDraws`
//! tape (`Mechanism::call` for the correct mechanisms, the zoo's
//! `run_with_scratch_into`) across worker threads, one derived
//! [`free_gap_noise::rng::FastRng`] sub-stream per trial, so results are
//! bit-reproducible for a given seed regardless of thread count.
//!
//! A sound lower bound can never exceed a mechanism's *true* ε (up to the
//! configured significance α), which is what makes the suite a two-sided
//! oracle: correct mechanisms must never be flagged, and every zoo variant
//! must be — see [`suite::run_suite`] and the `repro attack` CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimator;
pub mod events;
pub mod inputs;
pub mod suite;
pub mod target;

pub use estimator::{attack, AttackConfig, AttackResult};
pub use inputs::{standard_pairs, InputPair};
pub use suite::{
    run_suite, run_suite_with, standard_suite, SuiteEntry, SuiteReport, SUITE_THRESHOLD,
};
pub use target::{AttackTarget, Observation};
