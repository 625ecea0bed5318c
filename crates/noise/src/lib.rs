//! # free-gap-noise
//!
//! Noise-distribution substrate for the `free-gap` workspace, which reproduces
//! *"Free Gap Information from the Differentially Private Sparse Vector and
//! Noisy Max Mechanisms"* (Ding, Wang, Zhang, Kifer; VLDB 2019).
//!
//! Every differentially private mechanism in the paper draws additive noise
//! from one of a small family of distributions. This crate implements that
//! family from scratch:
//!
//! * [`Laplace`] — the workhorse continuous distribution (Theorem 1 of the
//!   paper). Sampling, pdf, cdf, quantile, moments.
//! * [`Exponential`] — one-sided building block (also used by [`Staircase`]).
//! * [`DiscreteLaplace`] — the discretized Laplace over multiples of a base
//!   `γ` discussed in the paper's "implementation issues" (§5.1) and
//!   Appendix A.1.
//! * [`Geometric`] — the one-sided geometric distribution on `{0, 1, 2, …}`,
//!   both a mechanism in its own right (Ghosh et al.) and the sampling
//!   primitive behind [`DiscreteLaplace`] and [`Staircase`].
//! * [`Staircase`] — the optimal additive-noise distribution of Geng &
//!   Viswanath, cited by the paper as a drop-in replacement for Laplace.
//! * [`LaplaceDiff`] — the distribution of the difference of two independent
//!   zero-mean Laplace variables (Lemma 5), which drives the free
//!   lower-confidence intervals of §6.2.
//!
//! [`Noise`] wraps any of the five sampled families in one `Copy` spec, so
//! the draw interfaces above this crate take the family as a parameter of
//! the draw instead of carrying one method per family.
//!
//! It also ships the supporting analysis the paper relies on:
//!
//! * [`block`] — the chunked noise-fill discipline ([`BlockBuffer`]): raw
//!   uniforms are pulled in bounded blocks and served as continuous
//!   ([`SingleUniform`]) or discrete-Laplace draws one draw (or one m-tuple)
//!   at a time, preserving the sequential draw order bit-for-bit. This is
//!   the substrate of the scratch and streaming fast paths in
//!   `free-gap-core`, where the stream length is unknown up front.
//! * [`tie`] — the probability-of-tie bounds for discretized noise
//!   (Appendix A.1) that justify treating the continuous analysis as
//!   `(ε, δ)`-DP with negligible `δ`.
//! * [`stats`] — Welford moments, empirical CDFs and Kolmogorov–Smirnov
//!   distances used by the statistical test-suite and the experiment harness.
//!
//! All distributions are deterministic given an [`rand::Rng`]; the workspace
//! convention is a seeded [`rand::rngs::StdRng`] (see [`rng`]).
//!
//! ## Example
//!
//! ```
//! use free_gap_noise::{Laplace, ContinuousDistribution, rng::rng_from_seed};
//!
//! let lap = Laplace::new(2.0).unwrap(); // scale b = 2 (Lap(2k/ε) style)
//! let mut rng = rng_from_seed(7);
//! let x = lap.sample(&mut rng);
//! assert!(lap.pdf(x) > 0.0);
//! assert!((lap.cdf(lap.quantile(0.25).unwrap()) - 0.25).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// R3 (panic-freedom) surfaced in the compiler too: every non-test unwrap/expect
// in the two privacy-critical crates must carry a per-site justification.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod block;
pub mod discrete_laplace;
pub mod error;
pub mod exponential;
pub mod geometric;
pub mod gumbel;
pub mod laplace;
pub mod laplace_diff;
pub mod par;
pub mod rng;
pub mod spec;
pub mod staircase;
pub mod stats;
pub mod tie;
pub mod traits;

pub use block::BlockBuffer;
pub use discrete_laplace::DiscreteLaplace;
pub use error::NoiseError;
pub use exponential::Exponential;
pub use geometric::Geometric;
pub use gumbel::Gumbel;
pub use laplace::Laplace;
pub use laplace_diff::LaplaceDiff;
pub use spec::Noise;
pub use staircase::Staircase;
pub use traits::{ContinuousDistribution, DiscreteDistribution, SingleUniform};
