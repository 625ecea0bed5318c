//! Reusable scratch buffers for the allocation-free mechanism fast paths.
//!
//! The reference provider, [`SourceDraws`](crate::draw::SourceDraws), draws
//! noise through `dyn NoiseSource` — one virtual call and one
//! distribution construction per draw. That is the right shape for the
//! alignment checker (which must interpose on every draw), but it is pure
//! overhead for Monte-Carlo loops that execute the same mechanism tens of
//! thousands of times on workloads with up to ~100k queries (§7 of the
//! paper).
//!
//! The fast providers feed the same mechanism core
//! ([`Mechanism::call`](crate::api::Mechanism::call)) with the buffers
//! below and a plain [`rand::Rng`] — [`RngDraws`](crate::draw::RngDraws)
//! for the Top-K family with its buffers in a [`TopKScratch`],
//! [`ScratchDraws`](crate::draw::ScratchDraws) over an [`SvtScratch`] noise
//! tape for the SVT family and the staircase measurement — so that:
//!
//! * noise is drawn **in batches** via
//!   [`ContinuousDistribution::fill_into`](free_gap_noise::ContinuousDistribution::fill_into),
//!   not draw-by-draw;
//! * noisy-value buffers live in the scratch and are **reused across runs**;
//! * the RNG is a **monomorphic** generic parameter, so the whole inner loop
//!   inlines — no `dyn` dispatch anywhere.
//!
//! Outputs are guaranteed **bit-for-bit identical** across providers on the
//! same RNG stream (asserted by the `scratch_equivalence` test-suite). The
//! SVT mechanisms' lazy streaming entries
//! (`run_streaming_with_scratch_into`) share the same scratch: lookahead
//! applies to *noise* only — query answers are pulled strictly on demand
//! and never buffered ahead of the mechanism's halting point.
//!
//! ## Stream discipline
//!
//! A [`ScratchDraws`](crate::draw::ScratchDraws) run buffers lookahead
//! from the stream it is given, and *how much* depends on the scratch's
//! consumption history (the prediction that sizes its batches). Outputs are unaffected — they depend
//! only on the draws actually served — but the stream's final position is
//! not reproducible across scratch histories. Two rules keep everything
//! deterministic:
//!
//! 1. derive a fresh stream per run
//!    ([`free_gap_noise::rng::derive_stream`]), and
//! 2. make the scratch call the **last** consumer of that stream — when one
//!    run executes several mechanisms, give each its own sub-stream (e.g.
//!    seed one from a `rng.gen::<u64>()` drawn up front) instead of running
//!    them back-to-back on a shared stream.
//!
//! [`RngDraws`](crate::draw::RngDraws) draws exactly `n` variates (no
//! lookahead), so it is exempt from rule 2 — which is what lets the Top-K pipeline stay
//! bit-identical end-to-end.
//!
//! ```
//! use free_gap_core::noisy_max::NoisyTopKWithGap;
//! use free_gap_core::{Mechanism, MechanismOutput, QuerySlice, RngDraws, TopKScratch};
//! use free_gap_noise::rng::derive_stream;
//!
//! let answers = [120.0, 40.0, 97.0, 80.0, 3.0];
//! let mech = NoisyTopKWithGap::new(3, 1.0, true).unwrap();
//! let mut scratch = TopKScratch::new();
//! let mut out = MechanismOutput::Indices(Vec::new());
//! for run in 0..100 {
//!     let mut rng = derive_stream(7, run);
//!     let mut provider = RngDraws::new(&mut rng);
//!     mech.call(&QuerySlice::new(&answers), &mut provider, &mut scratch, &mut out)
//!         .unwrap();
//!     assert_eq!(out.top_k_mut().items.len(), 3);
//! }
//! ```

use free_gap_noise::{BlockBuffer, DiscreteLaplace, Exponential, Gumbel, Laplace, Staircase};
use rand::Rng;

/// Reusable buffers for the Noisy Top-K family's batched fast path.
///
/// Holds the noisy-answer vector (length `n`), the selection buffer
/// (length `k + 1`), and an auxiliary vector the batched Gumbel race uses
/// for its scaled-utility base; all are grown on first use and reused
/// afterwards.
#[derive(Debug, Default, Clone)]
pub struct TopKScratch {
    pub(crate) noisy: Vec<f64>,
    pub(crate) top: Vec<usize>,
    pub(crate) aux: Vec<f64>,
}

impl TopKScratch {
    /// Creates an empty scratch (buffers grow on first run).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable noise tape for the Sparse Vector family's batched fast and
/// streaming paths — the state behind
/// [`ScratchDraws`](crate::draw::ScratchDraws).
///
/// SVT draws at several scales (threshold noise, per-branch query noise),
/// and the finite-precision variants draw discrete Laplace noise at several
/// rates — so the scratch buffers **raw uniforms** (a [`BlockBuffer`]) and
/// derives every draw from them at serve time: continuous draws as *unit*
/// `Lap(1)` transforms rescaled per draw (IEEE multiplication makes
/// `unit * scale` bit-identical to drawing `Lap(scale)` directly), discrete
/// draws as one-uniform closed-form geometric-tail inversions with the
/// distribution's `exp`/`ln` normalization hoisted and cached per rate.
/// Because both families serve off one tape, any interleaving of continuous
/// and discrete draws preserves the sequential stream order. Block sizing
/// (first block from the previous run's consumption, later blocks tapered
/// and cache-clamped) lives in [`BlockBuffer`]; this type pins the
/// continuous distribution to unit Laplace and exposes the draw shapes the
/// [`DrawProvider`](crate::draw::DrawProvider) contract needs: single
/// scaled draws, whole blocks of scaled `m`-tuples, and their discrete
/// twins.
#[derive(Debug, Clone)]
pub struct SvtScratch {
    block: BlockBuffer,
    unit: Laplace,
    /// Scaled view of the currently peeked tuple block (rebuilt per peek,
    /// reused across runs).
    scaled: Vec<f64>,
    /// Cached discrete distributions keyed by `(unit_epsilon, gamma)` bits —
    /// constructing a [`DiscreteLaplace`] costs an `exp` and an `ln`, which
    /// the batched discrete path hoists out of the per-draw loop (a run uses
    /// one or two rates, so a linear scan beats any map).
    discrete_dists: Vec<((u64, u64), DiscreteLaplace)>,
    /// Per-slot distributions of the currently peeked discrete tuple block.
    discrete_tuple: Vec<DiscreteLaplace>,
}

impl SvtScratch {
    /// Creates an empty scratch.
    #[allow(clippy::expect_used)]
    pub fn new() -> Self {
        Self {
            block: BlockBuffer::new(),
            // lint:allow(panic-freedom): the constant unit scale is always a valid Laplace parameter
            unit: Laplace::new(1.0).expect("unit scale is valid"),
            scaled: Vec::new(),
            discrete_dists: Vec::new(),
            discrete_tuple: Vec::new(),
        }
    }

    /// Starts a new run: discards draws buffered from the previous RNG
    /// stream and predicts this run's consumption from the last one.
    pub(crate) fn begin(&mut self) {
        self.block.begin();
    }

    /// Next `Lap(scale)` draw (bit-identical to sampling at `scale`),
    /// refilling the unit buffer in blocks as needed.
    #[inline]
    pub(crate) fn next_scaled<R: Rng + ?Sized>(&mut self, rng: &mut R, scale: f64) -> f64 {
        self.block.next(&self.unit, rng) * scale
    }

    /// Predicted draw consumption of the current run (last run's usage) —
    /// used by mechanisms to pre-size their output buffers.
    pub(crate) fn predicted_draws(&self) -> usize {
        self.block.predicted_draws()
    }

    /// The buffered draws ahead of the cursor as whole scaled
    /// `scales.len()`-tuples (slot `b` of each tuple is `Lap(scales[b])`,
    /// bit-identical to sampling at that scale) — see
    /// [`BlockBuffer::peek_tuples_scaled`].
    #[inline]
    pub(crate) fn peek_tuples_scaled<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        scales: &[f64],
    ) -> &[f64] {
        self.block
            .peek_tuples_scaled(&self.unit, rng, scales, &mut self.scaled);
        &self.scaled
    }

    /// Advances the cursor past `draws` units previously obtained from
    /// [`peek_tuples_scaled`](Self::peek_tuples_scaled).
    #[inline]
    pub(crate) fn consume(&mut self, draws: usize) {
        self.block.consume(draws);
    }

    /// The cached discrete Laplace for `(unit_epsilon, gamma)`, constructed
    /// once per distinct rate and reused across draws and runs.
    #[allow(clippy::expect_used)]
    fn discrete_dist(
        dists: &mut Vec<((u64, u64), DiscreteLaplace)>,
        unit_epsilon: f64,
        gamma: f64,
    ) -> DiscreteLaplace {
        let key = (unit_epsilon.to_bits(), gamma.to_bits());
        if let Some((_, d)) = dists.iter().find(|(k, _)| *k == key) {
            return *d;
        }
        // lint:allow(panic-freedom): the scale/rate was validated by the mechanism constructor; re-validation cannot fail
        let d = DiscreteLaplace::new(unit_epsilon, gamma).expect("mechanism-validated rate");
        dists.push((key, d));
        d
    }

    /// Next discrete Laplace draw over `{kγ}` at per-unit rate
    /// `unit_epsilon`, served from the shared raw-uniform tape (one
    /// uniform through the closed-form tail inversion, bit-identical to
    /// [`sample_value`](free_gap_noise::DiscreteDistribution::sample_value)
    /// at the same stream position).
    #[inline]
    pub(crate) fn discrete_next<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        unit_epsilon: f64,
        gamma: f64,
    ) -> f64 {
        let d = Self::discrete_dist(&mut self.discrete_dists, unit_epsilon, gamma);
        self.block.next_discrete(&d, rng)
    }

    /// The buffered draws ahead of the cursor as whole
    /// `unit_epsilons.len()`-tuples of discrete Laplace values (slot `b` of
    /// each tuple at rate `unit_epsilons[b]`) — see
    /// [`BlockBuffer::discrete_peek_tuples`]. Commit consumption with
    /// [`consume_discrete`](Self::consume_discrete) in served values.
    #[inline]
    pub(crate) fn discrete_peek_tuples<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        unit_epsilons: &[f64],
        gamma: f64,
    ) -> &[f64] {
        self.discrete_tuple.clear();
        for &rate in unit_epsilons {
            self.discrete_tuple
                .push(Self::discrete_dist(&mut self.discrete_dists, rate, gamma));
        }
        self.block
            .discrete_peek_tuples(&self.discrete_tuple, rng, &mut self.scaled);
        &self.scaled
    }

    /// Advances the cursor past `draws` discrete values previously obtained
    /// from [`discrete_peek_tuples`](Self::discrete_peek_tuples) (one raw
    /// uniform each, like the continuous draws).
    #[inline]
    pub(crate) fn consume_discrete(&mut self, draws: usize) {
        self.block.consume(draws);
    }

    /// Next standard-shape Gumbel(`beta`) draw, served from the shared
    /// raw-uniform tape through the uncached transform path (the scale may
    /// vary per draw and differs from the run's cached unit-Laplace
    /// transform). Bit-identical to
    /// [`Gumbel::sample`](free_gap_noise::ContinuousDistribution::sample)
    /// at the same stream position.
    #[inline]
    #[allow(clippy::expect_used)]
    pub(crate) fn gumbel_next<R: Rng + ?Sized>(&mut self, rng: &mut R, beta: f64) -> f64 {
        // lint:allow(panic-freedom): the scale/rate was validated by the mechanism constructor; re-validation cannot fail
        let dist = Gumbel::new(beta).expect("mechanism-validated scale");
        self.block.next_uncached(&dist, rng)
    }

    /// Next one-sided Exponential(`beta`) draw from the shared tape; same
    /// serving contract as [`gumbel_next`](Self::gumbel_next).
    #[inline]
    #[allow(clippy::expect_used)]
    pub(crate) fn exp_next<R: Rng + ?Sized>(&mut self, rng: &mut R, beta: f64) -> f64 {
        // lint:allow(panic-freedom): the scale/rate was validated by the mechanism constructor; re-validation cannot fail
        let dist = Exponential::new(beta).expect("mechanism-validated scale");
        self.block.next_uncached(&dist, rng)
    }

    /// Next staircase draw (four tape uniforms through the four-variable
    /// transform), bit-identical to
    /// [`Staircase::sample`](free_gap_noise::ContinuousDistribution::sample)
    /// at the same stream position.
    #[inline]
    pub(crate) fn staircase_next<R: Rng + ?Sized>(&mut self, rng: &mut R, dist: &Staircase) -> f64 {
        self.block.next_staircase(dist, rng)
    }

    /// Fused `base[i] + staircase draw` batch over the shared tape — the
    /// measurement shape, with the distribution constructed once by the
    /// caller and any buffered lookahead drained first, in order.
    pub(crate) fn staircase_fill_offset<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        base: &[f64],
        dist: &Staircase,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend(
            base.iter()
                .map(|b| b + self.block.next_staircase(dist, rng)),
        );
    }

    /// Fused `base[i] + discrete draw` batch over the shared tape — the
    /// discrete Noisy-Max shape, with the distribution construction hoisted
    /// out of the loop and any buffered lookahead drained first, in order.
    pub(crate) fn discrete_fill_offset<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        base: &[f64],
        unit_epsilon: f64,
        gamma: f64,
        out: &mut Vec<f64>,
    ) {
        let d = Self::discrete_dist(&mut self.discrete_dists, unit_epsilon, gamma);
        out.clear();
        out.extend(base.iter().map(|b| b + self.block.next_discrete(&d, rng)));
    }
}

impl Default for SvtScratch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_gap_noise::rng::rng_from_seed;
    use free_gap_noise::ContinuousDistribution;

    #[test]
    fn svt_scratch_replays_the_sequential_scaled_stream() {
        let lap = Laplace::new(2.5).unwrap();
        let mut expect_rng = rng_from_seed(3);
        let mut scratch = SvtScratch::new();
        let mut rng = rng_from_seed(3);
        scratch.begin();
        for i in 0..1000 {
            let got = scratch.next_scaled(&mut rng, 2.5);
            let want = lap.sample(&mut expect_rng);
            assert_eq!(got.to_bits(), want.to_bits(), "draw {i}");
        }
    }

    #[test]
    fn prefill_tracks_previous_consumption() {
        // Block sizing internals are covered in `free_gap_noise::block`;
        // here we only pin that the scratch forwards the prediction.
        let mut scratch = SvtScratch::new();
        let mut rng = rng_from_seed(6);
        scratch.begin();
        for _ in 0..1000 {
            scratch.next_scaled(&mut rng, 1.0);
        }
        scratch.begin();
        assert_eq!(scratch.predicted_draws(), 1000);
    }

    #[test]
    fn peek_tuples_scaled_preserves_sequential_order() {
        // Forwarding check for the scaled tuple API: the served stream
        // equals sequential draws at the per-slot scales. Refill/leftover
        // edge cases live in `free_gap_noise::block`.
        let scales = [3.0f64, 0.5, 7.0];
        let m = scales.len();
        let mut expect_rng = rng_from_seed(21);
        let mut scratch = SvtScratch::new();
        let mut rng = rng_from_seed(21);
        scratch.begin();
        let mut tuples_seen = 0usize;
        while tuples_seen < 200 {
            let slab = scratch.peek_tuples_scaled(&mut rng, &scales);
            assert!(slab.len() >= m && slab.len().is_multiple_of(m));
            let take = (slab.len() / m).min(2) * m;
            for tuple in slab[..take].chunks_exact(m) {
                for (j, &v) in tuple.iter().enumerate() {
                    let want = Laplace::new(scales[j]).unwrap().sample(&mut expect_rng);
                    assert_eq!(v.to_bits(), want.to_bits(), "tuple {tuples_seen} slot {j}");
                }
                tuples_seen += 1;
            }
            scratch.consume(take);
        }
    }
}
