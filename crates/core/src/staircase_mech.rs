//! Staircase measurement mechanism — the §3.1 alternative to Laplace noise.
//!
//! Geng & Viswanath's staircase distribution is the variance-optimal
//! additive noise for ε-DP; the paper lists it (with Discrete Laplace) as a
//! drop-in replacement wherever the Laplace mechanism is used. This module
//! provides the measurement-mechanism counterpart of
//! [`crate::laplace_mech::LaplaceMechanism`] so the select-then-measure
//! pipelines can trade Laplace for staircase noise.
//!
//! A note on alignment: the staircase density is *piecewise constant*, so
//! its log-density ratio is not bounded by `|x - y|/α` pointwise (crossing
//! a stair edge by an inch costs a full `e^ε`) — only by
//! `ε·⌈|x - y|/Δ⌉`. The Definition-6 cost accounting of the alignment
//! framework therefore does not apply draw-for-draw, and this mechanism
//! deliberately does not implement `AlignedMechanism`; its privacy is the
//! classical per-measurement argument (each coordinate is an ε-DP additive
//! release, composed sequentially).

//! ## Execution paths
//!
//! The measurement loop exists once, generic over the
//! [`DrawProvider`] noise comes through (one [`Noise::Staircase`] spec per
//! batch, drawn through [`fill`](DrawProvider::fill) /
//! [`next`](DrawProvider::next), four uniforms per draw).
//! [`Mechanism::call`](crate::api::Mechanism::call) runs it over a query
//! slice with the caller's provider — every provider reuses the batch's
//! distribution, and [`ScratchDraws`] serves the four uniforms per draw off
//! the blocked raw-uniform tape —
//! and [`measure_split_streaming_with_scratch_into`](StaircaseMechanism::measure_split_streaming_with_scratch_into)
//! runs it over a lazy answer stream with an explicit batch size (the
//! budget divisor, which a stream cannot supply). All providers are
//! bit-identical on the same RNG stream (`tests/scratch_equivalence.rs`).

use crate::draw::{DrawProvider, ScratchDraws};
use crate::error::{require_epsilon, require_positive, MechanismError};
use crate::scratch::SvtScratch;
use free_gap_noise::{ContinuousDistribution, Noise, Staircase};
use rand::Rng;

/// Vector measurement with variance-optimal staircase noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaircaseMechanism {
    epsilon: f64,
    sensitivity: f64,
}

impl StaircaseMechanism {
    /// Creates the mechanism with budget `epsilon` per sensitivity-1 query.
    pub fn new(epsilon: f64) -> Result<Self, MechanismError> {
        let mech = Self {
            epsilon: require_epsilon(epsilon)?,
            sensitivity: 1.0,
        };
        mech.noise_for_batch(1)?;
        Ok(mech)
    }

    /// The privacy budget `ε` one measurement batch costs.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Overrides the sensitivity `Δ`.
    pub fn with_sensitivity(mut self, sensitivity: f64) -> Result<Self, MechanismError> {
        self.sensitivity = require_positive("sensitivity", sensitivity)?;
        self.noise_for_batch(1)?;
        Ok(self)
    }

    /// The noise distribution used per coordinate when the budget is split
    /// over `k` queries (optimal `γ*` split).
    pub fn noise_for_batch(&self, k: usize) -> Result<Staircase, MechanismError> {
        let per_query = self.epsilon / k.max(1) as f64;
        Staircase::optimal(per_query, self.sensitivity)
            .map_err(|_| MechanismError::InvalidEpsilon { value: per_query })
    }

    /// Per-coordinate noise variance when one call measures `k` answers.
    #[allow(clippy::expect_used)]
    pub fn split_variance(&self, k: usize) -> f64 {
        self.noise_for_batch(k)
            // lint:allow(panic-freedom): parameters were validated at construction; the batch distribution cannot fail
            .expect("validated at construction")
            .variance()
    }

    /// The single copy of the measurement loop (materialized shape):
    /// construct the batch's noise distribution once, then one staircase
    /// draw per answer in index order through the provider's batch shape.
    ///
    /// # Errors
    /// [`MechanismError::InvalidEpsilon`] when the per-query share
    /// `ε / answers.len()` is too small for a staircase distribution.
    pub(crate) fn measure_core<P: DrawProvider>(
        &self,
        answers: &[f64],
        provider: &mut P,
        out: &mut Vec<f64>,
    ) -> Result<(), MechanismError> {
        let noise = Noise::Staircase(self.noise_for_batch(answers.len())?);
        provider.begin();
        provider.fill(answers, noise, out);
        Ok(())
    }

    /// The measurement loop over a lazy answer stream. `count` is the
    /// sequential-composition divisor (the batch size a materialized call
    /// reads off `answers.len()`, which a stream cannot supply up front).
    fn measure_streaming_core<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        answers: I,
        count: usize,
        provider: &mut P,
        out: &mut Vec<f64>,
    ) -> Result<(), MechanismError> {
        let noise = Noise::Staircase(self.noise_for_batch(count)?);
        provider.begin();
        out.clear();
        out.extend(answers.into_iter().map(|a| a + provider.next(noise)));
        Ok(())
    }

    /// The lazy streaming entry: measures an answer stream through
    /// [`ScratchDraws`] without materializing it, splitting the budget by
    /// the caller-supplied `count` (sequential composition, as a slice call
    /// splits it over `answers.len()`). Bit-identical to
    /// [`Mechanism::call`](crate::api::Mechanism::call) through
    /// [`ScratchDraws`] on the same RNG stream when the stream yields
    /// `count` answers.
    ///
    /// # Errors
    /// [`MechanismError::InvalidEpsilon`] when the per-query share
    /// `ε / count` is too small for a staircase distribution.
    pub fn measure_split_streaming_with_scratch_into<
        R: Rng + ?Sized,
        I: IntoIterator<Item = f64>,
    >(
        &self,
        answers: I,
        count: usize,
        rng: &mut R,
        scratch: &mut SvtScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), MechanismError> {
        self.measure_streaming_core(answers, count, &mut ScratchDraws::new(scratch, rng), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answers::QueryAnswers;
    use crate::api::testing::reference;
    use crate::laplace_mech::LaplaceMechanism;
    use free_gap_noise::rng::rng_from_seed;
    use free_gap_noise::stats::RunningMoments;

    #[test]
    fn validation() {
        assert!(StaircaseMechanism::new(0.0).is_err());
        assert!(matches!(
            StaircaseMechanism::new(1.0).unwrap().with_sensitivity(-1.0),
            Err(MechanismError::InvalidParameter {
                name: "sensitivity",
                ..
            })
        ));
        // exp(-ε) rounds to 1: no staircase exists at this budget.
        assert!(matches!(
            StaircaseMechanism::new(1e-17),
            Err(MechanismError::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn unbiased_with_advertised_variance() {
        let m = StaircaseMechanism::new(2.0).unwrap();
        let mut rng = rng_from_seed(1);
        let mut err = RunningMoments::new();
        let answers = QueryAnswers::general(vec![50.0, 60.0]);
        for _ in 0..100_000 {
            let out = reference(&m, &answers, &mut rng)
                .unwrap()
                .into_measurements();
            err.push(out[0] - 50.0);
        }
        assert!(err.mean().abs() < 0.05, "bias {}", err.mean());
        let expect = m.split_variance(2);
        assert!((err.variance() - expect).abs() / expect < 0.05);
    }

    #[test]
    fn beats_laplace_at_high_epsilon() {
        // Geng-Viswanath: staircase variance < Laplace variance, with the
        // advantage growing with ε.
        for (eps, k) in [(4.0, 1usize), (8.0, 2)] {
            let stair = StaircaseMechanism::new(eps).unwrap().split_variance(k);
            let lap = LaplaceMechanism::new(eps).unwrap().split_variance(k);
            assert!(
                stair < lap,
                "ε={eps}, k={k}: staircase {stair} vs laplace {lap}"
            );
        }
    }

    #[test]
    fn close_to_laplace_at_low_epsilon() {
        // As ε → 0 the two mechanisms' variances converge (ratio → 1).
        let stair = StaircaseMechanism::new(0.05).unwrap().split_variance(1);
        let lap = LaplaceMechanism::new(0.05).unwrap().split_variance(1);
        let ratio = stair / lap;
        assert!((0.9..=1.01).contains(&ratio), "ratio {ratio}");
    }
}
