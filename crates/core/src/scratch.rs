//! Reusable scratch buffers for the allocation-free mechanism fast paths.
//!
//! The reference path ([`call_reference`](crate::api::AnyMechanism::call_reference))
//! allocates fresh output and selection buffers on every call, and the
//! alignment checker's `TapeSource` serves one draw per request and
//! records each one. That is the right shape for one-off calls and for the
//! checker (which must interpose on every draw), but it is pure overhead
//! for Monte-Carlo loops that execute the same mechanism tens of thousands
//! of times on workloads with up to ~100k queries (§7 of the paper).
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

use crate::draw::{check_tuple, MAX_TUPLE};
use free_gap_noise::{BlockBuffer, Laplace, Noise};
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
/// Mechanisms draw at several scales and from several families (threshold
/// and per-branch Laplace noise, discrete Laplace at per-slot rates,
/// Gumbel, staircase), so the scratch buffers **raw uniforms** (a
/// [`BlockBuffer`]) and derives every draw from them at serve time, through
/// one `match` on the requested [`Noise`]. Laplace draws are *unit* `Lap(1)`
/// transforms rescaled per draw (IEEE multiplication makes `unit * scale`
/// bit-identical to drawing `Lap(scale)` directly), cached behind the
/// buffer's transform watermark; every other family is a pure transform of
/// the uniforms at the cursor. Because all families serve off one tape, any
/// interleaving of them preserves the sequential stream order. Block sizing
/// (first block from the previous run's consumption, later blocks tapered
/// and cache-clamped) lives in [`BlockBuffer`].
#[derive(Debug, Clone)]
pub struct SvtScratch {
    block: BlockBuffer,
    unit: Laplace,
    /// Served view of the currently peeked tuple block (rebuilt per peek,
    /// reused across runs).
    scaled: Vec<f64>,
}

impl SvtScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self {
            block: BlockBuffer::new(),
            unit: Laplace::standard(),
            scaled: Vec::new(),
        }
    }

    /// Starts a new run: discards draws buffered from the previous RNG
    /// stream and predicts this run's consumption from the last one.
    pub(crate) fn begin(&mut self) {
        self.block.begin();
    }

    /// Predicted draw consumption of the current run (last run's usage) —
    /// used by mechanisms to pre-size their output buffers.
    pub(crate) fn predicted_draws(&self) -> usize {
        self.block.predicted_draws()
    }

    /// Next draw from `noise`, refilling the tape in blocks as needed;
    /// bit-identical to sampling `noise` at the same stream position.
    /// Always inlined: every core passes a spec of known family, so the
    /// `match` folds away at the call site.
    #[inline(always)]
    pub(crate) fn next<R: Rng + ?Sized>(&mut self, rng: &mut R, noise: Noise) -> f64 {
        match noise {
            Noise::Laplace(d) => self.block.next(&self.unit, rng) * d.scale(),
            Noise::DiscreteLaplace(d) => self.block.next_discrete(&d, rng),
            Noise::Gumbel(d) => self.block.next_uncached(&d, rng),
            Noise::Exp(d) => self.block.next_uncached(&d, rng),
            Noise::Staircase(d) => self.block.next_staircase(&d, rng),
        }
    }

    /// The buffered draws ahead of the cursor as whole
    /// `noises.len()`-tuples, slot `b` of each tuple drawn from `noises[b]`
    /// in sequential order. An all-Laplace tuple is served off the cached
    /// unit transform ([`BlockBuffer::peek_tuples_scaled`]); any other tuple
    /// is transformed slot by slot from the raw uniforms
    /// ([`BlockBuffer::peek_uniforms`]). Commit with
    /// [`consume`](Self::consume).
    ///
    /// # Panics
    /// As [`DrawProvider::peek`](crate::draw::DrawProvider::peek): on an
    /// arity outside `1..=MAX_TUPLE` or a staircase slot.
    #[inline]
    pub(crate) fn peek<R: Rng + ?Sized>(&mut self, rng: &mut R, noises: &[Noise]) -> &[f64] {
        check_tuple(noises);
        let m = noises.len();
        let mut scales = [0.0; MAX_TUPLE];
        let all_laplace = noises.iter().zip(&mut scales).all(|(n, s)| match n {
            Noise::Laplace(d) => {
                *s = d.scale();
                true
            }
            _ => false,
        });
        if all_laplace {
            self.block
                .peek_tuples_scaled(&self.unit, rng, &scales[..m], &mut self.scaled);
        } else {
            self.peek_slots(rng, noises);
        }
        &self.scaled
    }

    /// The slot-by-slot transform behind [`peek`](Self::peek) for tuples
    /// that are not all Laplace, one tuple slot (a strided column of the
    /// slab) at a time so each column dispatches on its family once — kept
    /// out of line so the all-Laplace hot path stays small.
    #[inline(never)]
    fn peek_slots<R: Rng + ?Sized>(&mut self, rng: &mut R, noises: &[Noise]) {
        let m = noises.len();
        let raw = self.block.peek_uniforms(rng, m);
        self.scaled.clear();
        self.scaled.resize(raw.len(), 0.0);
        for (b, noise) in noises.iter().enumerate() {
            let column = self.scaled[b..].iter_mut().step_by(m);
            let uniforms = raw[b..].iter().step_by(m);
            match noise {
                Noise::DiscreteLaplace(d) => {
                    for (v, &u) in column.zip(uniforms) {
                        *v = d.value_from_uniform(u);
                    }
                }
                _ => {
                    for (v, u) in column.zip(uniforms) {
                        *v = noise.from_uniforms(std::slice::from_ref(u));
                    }
                }
            }
        }
    }

    /// Advances the cursor past `draws` values (whole tuples) served by the
    /// last [`peek`](Self::peek).
    #[inline]
    pub(crate) fn consume(&mut self, draws: usize) {
        self.block.consume(draws);
    }

    /// Fused `base[i] + draw` batch over the shared tape, with any buffered
    /// lookahead drained first, in order.
    pub(crate) fn fill<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        base: &[f64],
        noise: Noise,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend(base.iter().map(|b| b + self.next(rng, noise)));
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
            let got = scratch.next(&mut rng, Noise::Laplace(lap));
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
            scratch.next(&mut rng, Noise::Laplace(Laplace::new(1.0).unwrap()));
        }
        scratch.begin();
        assert_eq!(scratch.predicted_draws(), 1000);
    }

    #[test]
    fn peek_preserves_sequential_order() {
        // Forwarding check for the all-Laplace tuple path: the served
        // stream equals sequential draws at the per-slot scales.
        // Refill/leftover edge cases live in `free_gap_noise::block`.
        let scales = [3.0f64, 0.5, 7.0];
        let noises = scales.map(|s| Noise::Laplace(Laplace::new(s).unwrap()));
        let m = scales.len();
        let mut expect_rng = rng_from_seed(21);
        let mut scratch = SvtScratch::new();
        let mut rng = rng_from_seed(21);
        scratch.begin();
        let mut tuples_seen = 0usize;
        while tuples_seen < 200 {
            let slab = scratch.peek(&mut rng, &noises);
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
