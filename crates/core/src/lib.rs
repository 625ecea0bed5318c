//! # free-gap-core
//!
//! The primary contribution of Ding, Wang, Zhang & Kifer, *"Free Gap
//! Information from the Differentially Private Sparse Vector and Noisy Max
//! Mechanisms"* (VLDB 2019), as a production Rust library — plus every
//! baseline the paper compares against.
//!
//! ## Mechanisms
//!
//! | Module | Mechanism | Paper reference |
//! |--------|-----------|-----------------|
//! | [`noisy_max::NoisyTopKWithGap`] | Noisy-Top-K-with-Gap | Algorithm 1, Theorem 2 |
//! | [`noisy_max::ClassicNoisyTopK`] | index-only Noisy Max / Top-K baseline | Dwork & Roth, §5 |
//! | [`sparse_vector::AdaptiveSparseVector`] | Adaptive-Sparse-Vector-with-Gap | Algorithm 2, Theorem 4 |
//! | [`sparse_vector::SparseVectorWithGap`] | Sparse-Vector-with-Gap (Wang et al.) | §6.1 (σ = ∞ case) |
//! | [`sparse_vector::ClassicSparseVector`] | SVT baseline (Lyu et al.) | §2, §7.3 |
//! | [`exponential_mech::ExponentialMechanism`] | exponential-mechanism selection baseline | §2 related work |
//! | [`laplace_mech::LaplaceMechanism`] | Laplace measurement | Theorem 1 |
//!
//! ## Free-gap postprocessing
//!
//! * [`postprocess::blue`] — the best linear unbiased estimator combining
//!   direct measurements with Top-K gaps (Theorem 3) and its error ratio
//!   (Corollary 1, up to 50% MSE reduction for counting queries).
//! * [`postprocess::weighted`] — inverse-variance combination of SVT gaps
//!   with measurements (§6.2, up to 50%/20% reduction).
//! * [`postprocess::confidence`] — free lower-confidence intervals from the
//!   gap (Lemma 5).
//! * [`pipelines`] — end-to-end select-then-measure workflows with a 50/50
//!   budget split, the protocol of the paper's §7.2 experiments.
//!
//! Every mechanism implements
//! [`free_gap_alignment::AlignedMechanism`], packaging the local alignment
//! from its privacy proof (Lemma 2 / Lemma 4) so the test-suite can execute
//! the proof obligations on concrete runs.
//!
//! ## One core per mechanism, one way in
//!
//! Each mechanism's decision/budget logic exists in **exactly one**
//! function, generic over the [`draw::DrawProvider`] it draws noise
//! through, and is reached through [`api::Mechanism::call`]: a
//! [`api::QuerySlice`] in, a coercible [`api::MechanismOutput`] out. The
//! execution path is the caller's choice of provider:
//!
//! * [`draw::SourceDraws`] — the adapter over `dyn NoiseSource`. This is
//!   the path the alignment checker interposes on (recording and
//!   replaying tapes) and the reference semantics; it is strictly
//!   draw-exact, so tapes stay draw-for-draw faithful.
//! * [`draw::RngDraws`] (Top-K family, exponential race) and
//!   [`draw::ScratchDraws`] (SVT family, staircase) — the batched fast
//!   paths for Monte-Carlo and high-traffic serving. Noise is drawn in
//!   batches (through the chunked [`free_gap_noise::BlockBuffer`] for
//!   `ScratchDraws`), noisy-value buffers live in a reusable
//!   [`scratch::TopKScratch`] / [`scratch::SvtScratch`], and the RNG is a
//!   monomorphic generic (no virtual dispatch). Outputs are **bit-for-bit
//!   identical** to the reference on the same RNG stream; `ScratchDraws`
//!   may consume *more* of the stream (batch lookahead), so derive a fresh
//!   [`free_gap_noise::rng::derive_stream`] per run.
//! * [`draw::ParallelDraws`] — per-block sub-streams filled from scoped
//!   threads, bit-identical for any thread count.
//!
//! [`api::AnyMechanism`] packages the ten grid mechanisms behind one
//! dispatch enum with the provider-choosing conveniences
//! [`api::AnyMechanism::call_batched`] (fast path),
//! [`api::AnyMechanism::call_par`] (parallel path) and
//! [`api::AnyMechanism::call_reference`] (dyn reference path) — the
//! surface the benchmark grid and the `free-gap-serve` multi-tenant server
//! build on. Two shapes sit beside `call`:
//!
//! * **lazy streams** — each SVT mechanism's `run_streaming_with_scratch_into`
//!   (and the exponential race's and staircase measurement's streaming
//!   twins) runs the same core over `impl IntoIterator<Item = f64>`,
//!   answering each query as it is pulled and halting the pull the moment
//!   the mechanism stops (k-th `⊤`, answer limit, or exhausted adaptive
//!   budget). Queries after the halt are **never observed** — the
//!   privacy-relevant property of SVT's online form;
//! * **resumable sessions** — [`sparse_vector::ClassicSparseVector::stream_open`] /
//!   [`sparse_vector::ClassicSparseVector::stream_feed`], whose batched
//!   feeds are bit-identical to a one-shot streaming run, which is what an
//!   open server session drives.
//!
//! See [`draw`] for the provider contract, [`scratch`] for the buffer
//! discipline, and [`pipelines`] for the select-then-measure protocols
//! (one provider-generic function each). The `repro bench` command in
//! `free-gap-bench` tracks the speedup of the fast providers and
//! `repro bench-compare` gates CI on the recorded trajectory.
//!
//! ## Example
//!
//! ```
//! use free_gap_core::noisy_max::NoisyTopKWithGap;
//! use free_gap_core::{Mechanism, MechanismOutput, QuerySlice, RngDraws, TopKScratch};
//! use free_gap_noise::rng::rng_from_seed;
//!
//! // 5 counting queries, budget ε = 1.0, top-3 with free gaps.
//! let answers = [120.0, 40.0, 97.0, 80.0, 3.0];
//! let mech = NoisyTopKWithGap::new(3, 1.0, true).unwrap();
//! let mut out = MechanismOutput::Indices(Vec::new()); // coerced by `call`
//! let mut rng = rng_from_seed(1);
//! mech.call(
//!     &QuerySlice::new(&answers),
//!     &mut RngDraws::new(&mut rng), // the provider picks the path
//!     &mut TopKScratch::new(),
//!     &mut out,
//! )
//! .unwrap();
//! let MechanismOutput::TopK(top) = &out else { unreachable!() };
//! assert_eq!(top.items.len(), 3);
//! for item in &top.items {
//!     assert!(item.gap >= 0.0); // gaps are free — and always non-negative
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// R3 (panic-freedom) surfaced in the compiler too: every non-test unwrap/expect
// in the two privacy-critical crates must carry a per-site justification.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod answers;
pub mod api;
pub mod budget;
pub mod draw;
pub mod error;
pub mod exponential_mech;
pub mod laplace_mech;
pub mod metrics;
pub mod noisy_max;
pub mod pipelines;
pub mod postprocess;
pub mod scratch;
pub mod sparse_vector;
pub mod staircase_mech;

pub use answers::QueryAnswers;
pub use api::{AnyMechanism, CallScratch, ExponentialTopK, Mechanism, MechanismOutput, QuerySlice};
pub use budget::PrivacyBudget;
pub use draw::{DrawProvider, RngDraws, ScratchDraws, SourceDraws};
pub use error::MechanismError;
pub use scratch::{SvtScratch, TopKScratch};
