//! The [`AlignedMechanism`] trait: a randomized mechanism packaged with its
//! local-alignment constructor.

use crate::source::TapeSource;
use crate::tape::NoiseTape;
use std::fmt::Debug;

/// A randomized mechanism together with the local alignment `φ_{D,D',ω}`
/// from its privacy proof (paper Definition 4).
///
/// Implementors provide:
///
/// * [`run`](Self::run) — the mechanism itself, drawing noise only through
///   the given [`TapeSource`] (this is what makes record/replay possible);
/// * [`align`](Self::align) — given the input `D`, a neighbor `D'`, the
///   recorded noise `H` and the produced output `ω`, the aligned noise
///   `H' = φ_{D,D',ω}(H)` under which `M(D', H')` must reproduce `ω`;
/// * [`epsilon`](Self::epsilon) — the privacy budget the alignment cost must
///   not exceed (Definition 6 / Lemma 1 condition (iv)).
pub trait AlignedMechanism {
    /// Input type (typically a query-answer vector).
    type Input: ?Sized;
    /// Output type; equality of outputs is the alignment's correctness
    /// criterion, so it must be comparable and printable.
    type Output: PartialEq + Debug;

    /// Executes the mechanism on `input`, drawing noise from `source`.
    fn run(&self, input: &Self::Input, source: &mut TapeSource<'_>) -> Self::Output;

    /// Builds the aligned tape `H' = φ_{D,D',ω}(H)`.
    ///
    /// `input` is `D` (the run that produced `tape` and `output`),
    /// `neighbor` is `D'`.
    fn align(
        &self,
        input: &Self::Input,
        neighbor: &Self::Input,
        tape: &NoiseTape,
        output: &Self::Output,
    ) -> NoiseTape;

    /// The privacy budget `ε` that bounds the alignment cost.
    fn epsilon(&self) -> f64;

    /// Whether two outputs count as "the same ω".
    ///
    /// Defaults to exact equality, which is right for discrete outputs
    /// (indices, branch tags). Mechanisms whose outputs contain real numbers
    /// (gaps!) must override with a tolerance: the alignment reproduces the
    /// gap algebraically, but floating-point re-association across the two
    /// executions perturbs the last few ulps.
    fn outputs_match(&self, a: &Self::Output, b: &Self::Output) -> bool {
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_alignment;
    use free_gap_noise::rng::rng_from_seed;
    use free_gap_noise::{Laplace, Noise};

    /// The paper's Example 2: output ⊤ iff `q(D) + η₁ >= threshold`, with
    /// alignment η'₁ = η₁ ± sensitivity depending on the branch.
    struct ThresholdMechanism {
        threshold: f64,
        sensitivity: f64,
        epsilon: f64,
    }

    impl AlignedMechanism for ThresholdMechanism {
        type Input = f64;
        type Output = bool;

        fn run(&self, input: &f64, source: &mut TapeSource<'_>) -> bool {
            let scale = self.sensitivity / self.epsilon;
            input + source.draw(&Noise::Laplace(Laplace::new(scale).unwrap())) >= self.threshold
        }

        fn align(
            &self,
            _input: &f64,
            _neighbor: &f64,
            tape: &NoiseTape,
            output: &bool,
        ) -> NoiseTape {
            // Example 2's piecewise alignment: push the noise up for ⊤ runs,
            // down for ⊥ runs, by the full sensitivity.
            let delta = if *output {
                self.sensitivity
            } else {
                -self.sensitivity
            };
            tape.aligned_by(|_, _| delta)
        }

        fn epsilon(&self) -> f64 {
            self.epsilon
        }
    }

    #[test]
    fn example2_alignment_checks_out() {
        let mech = ThresholdMechanism {
            threshold: 10_000.0,
            sensitivity: 100.0,
            epsilon: 0.5,
        };
        let mut rng = rng_from_seed(17);
        for trial in 0..200 {
            let d = 9_900.0 + (trial as f64);
            // any |d - d'| <= 100 neighbor
            let dprime = d - 100.0;
            let report = check_alignment(&mech, &d, &dprime, &mut rng).unwrap();
            assert!(report.cost <= mech.epsilon() + 1e-9, "cost {}", report.cost);
        }
    }

    #[test]
    fn example2_wrong_alignment_is_caught() {
        /// Deliberately broken alignment (shifts the wrong way for ⊥).
        struct Broken(ThresholdMechanism);
        impl AlignedMechanism for Broken {
            type Input = f64;
            type Output = bool;
            fn run(&self, input: &f64, source: &mut TapeSource<'_>) -> bool {
                self.0.run(input, source)
            }
            fn align(&self, _: &f64, _: &f64, tape: &NoiseTape, _: &bool) -> NoiseTape {
                tape.aligned_by(|_, _| 0.0) // identity: cannot preserve the output
            }
            fn epsilon(&self) -> f64 {
                self.0.epsilon()
            }
        }

        let mech = Broken(ThresholdMechanism {
            threshold: 10_000.0,
            sensitivity: 100.0,
            epsilon: 0.5,
        });
        let mut rng = rng_from_seed(3);
        let mut failures = 0;
        for _ in 0..400 {
            // Sit right at the threshold so the identity alignment flips
            // outputs with noticeable probability.
            let d = 10_000.0;
            let dprime = 9_900.0;
            if check_alignment(&mech, &d, &dprime, &mut rng).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "broken alignment was never caught");
    }
}
