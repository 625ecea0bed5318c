//! The alignment checker: executes the proof obligations of Lemma 1 on
//! concrete runs.

use crate::mechanism::AlignedMechanism;
use crate::source::{DrawMismatch, TapeSource};
use crate::tape::NoiseTape;
use rand::rngs::StdRng;
use std::fmt;

/// Everything observed during one alignment check.
#[derive(Debug, Clone)]
pub struct AlignmentReport {
    /// The recorded original tape `H`.
    pub original_tape: NoiseTape,
    /// The aligned tape `H' = φ(H)`.
    pub aligned_tape: NoiseTape,
    /// Definition-6 cost of the alignment on this execution.
    pub cost: f64,
    /// The mechanism's budget `ε` the cost was checked against.
    pub epsilon: f64,
}

/// Ways an alignment check can fail.
#[derive(Debug)]
pub enum AlignmentError {
    /// `M(D', φ(H))` produced a different output than `M(D, H)`.
    OutputMismatch {
        /// Debug rendering of `M(D, H)`.
        original: String,
        /// Debug rendering of `M(D', φ(H))`.
        aligned: String,
    },
    /// The alignment cost exceeded the mechanism's `ε`.
    CostExceeded {
        /// Observed Definition-6 cost.
        cost: f64,
        /// The budget it was checked against.
        epsilon: f64,
    },
    /// The neighbor execution requested a draw from a different family or
    /// scale than the original run drew at the same position.
    DrawMismatch(DrawMismatch),
    /// The neighbor execution did not consume exactly the aligned tape.
    TapeNotDrained {
        /// Draws left unconsumed.
        remaining: usize,
    },
    /// The neighbor execution requested more draws than the original run
    /// took — its control flow diverged past the original stopping point.
    TapeOverrun {
        /// Extra draws requested beyond the tape.
        extra: usize,
    },
}

impl fmt::Display for AlignmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlignmentError::OutputMismatch { original, aligned } => {
                write!(
                    f,
                    "aligned run diverged: M(D,H) = {original} but M(D',φ(H)) = {aligned}"
                )
            }
            AlignmentError::CostExceeded { cost, epsilon } => {
                write!(f, "alignment cost {cost} exceeds ε = {epsilon}")
            }
            AlignmentError::DrawMismatch(m) => {
                write!(
                    f,
                    "draw {}: aligned run requested {:?} at scale {} but original drew {:?} at scale {} (draw structure diverged)",
                    m.index, m.requested_kind, m.requested_scale, m.recorded_kind, m.recorded_scale
                )
            }
            AlignmentError::TapeNotDrained { remaining } => {
                write!(
                    f,
                    "aligned run left {remaining} draws unconsumed (draw structure diverged)"
                )
            }
            AlignmentError::TapeOverrun { extra } => {
                write!(
                    f,
                    "aligned run requested {extra} draws past the tape (control flow diverged)"
                )
            }
        }
    }
}

impl std::error::Error for AlignmentError {}

/// Numerical slack applied to the `cost <= ε` comparison (the cost is a sum
/// of float divisions; exact-boundary alignments like Noisy-Top-K's
/// monotone case land within a few ulps of ε).
const COST_SLACK: f64 = 1e-9;

/// Runs one end-to-end alignment check:
///
/// 1. `ω = M(D, H)` with fresh recorded noise `H`;
/// 2. `H' = φ_{D,D',ω}(H)` from the mechanism's alignment constructor;
/// 3. `ω' = M(D', H')` by replay (verifying draw-for-draw family and scale
///    equality);
/// 4. check `ω' = ω`, the tape is fully drained, and `cost(φ) ≤ ε`.
///
/// Returns the report on success, or the first violated condition.
pub fn check_alignment<M: AlignedMechanism>(
    mechanism: &M,
    input: &M::Input,
    neighbor: &M::Input,
    rng: &mut StdRng,
) -> Result<AlignmentReport, AlignmentError> {
    // (1) original execution with recording.
    let mut recorder = TapeSource::record(rng);
    let output = mechanism.run(input, &mut recorder);
    let original_tape = recorder.into_tape();

    // (2) build the aligned tape.
    let aligned_tape = mechanism.align(input, neighbor, &original_tape, &output);

    // (3) neighbor execution by replay.
    let mut replay = TapeSource::replay(aligned_tape.clone());
    let aligned_output = mechanism.run(neighbor, &mut replay);
    if let Some(mismatch) = replay.mismatch() {
        return Err(AlignmentError::DrawMismatch(mismatch));
    }
    if replay.overrun() > 0 {
        return Err(AlignmentError::TapeOverrun {
            extra: replay.overrun(),
        });
    }
    if !replay.fully_consumed() {
        return Err(AlignmentError::TapeNotDrained {
            remaining: replay.remaining(),
        });
    }

    // (4) verify the two Lemma-1 obligations.
    if !mechanism.outputs_match(&output, &aligned_output) {
        return Err(AlignmentError::OutputMismatch {
            original: format!("{output:?}"),
            aligned: format!("{aligned_output:?}"),
        });
    }
    let cost = original_tape.alignment_cost(&aligned_tape);
    let epsilon = mechanism.epsilon();
    if cost > epsilon + COST_SLACK {
        return Err(AlignmentError::CostExceeded { cost, epsilon });
    }

    Ok(AlignmentReport {
        original_tape,
        aligned_tape,
        cost,
        epsilon,
    })
}

/// Convenience: runs [`check_alignment`] for `trials` independent noise
/// draws and returns the maximum observed cost. Any failure aborts with the
/// underlying error.
pub fn check_alignment_many<M: AlignedMechanism>(
    mechanism: &M,
    input: &M::Input,
    neighbor: &M::Input,
    trials: usize,
    rng: &mut StdRng,
) -> Result<f64, AlignmentError> {
    let mut max_cost: f64 = 0.0;
    for _ in 0..trials {
        let report = check_alignment(mechanism, input, neighbor, rng)?;
        max_cost = max_cost.max(report.cost);
    }
    Ok(max_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::AlignedMechanism;
    use free_gap_noise::rng::rng_from_seed;
    use free_gap_noise::{Laplace, Noise};

    fn lap(scale: f64) -> Noise {
        Noise::Laplace(Laplace::new(scale).unwrap())
    }

    /// Example 1 of the paper: the Laplace mechanism on a sum query, aligned
    /// by η'₁ = η₁ + q(D) - q(D').
    struct LaplaceSum {
        epsilon: f64,
        sensitivity: f64,
    }

    impl AlignedMechanism for LaplaceSum {
        type Input = f64;
        // Noisy output discretized so PartialEq is meaningful: the alignment
        // reproduces the *exact* real number, so raw f64 equality works too.
        type Output = f64;

        fn run(&self, input: &f64, source: &mut TapeSource<'_>) -> f64 {
            input + source.draw(&lap(self.sensitivity / self.epsilon))
        }

        fn align(&self, input: &f64, neighbor: &f64, tape: &NoiseTape, _: &f64) -> NoiseTape {
            tape.aligned_by(|_, _| input - neighbor)
        }

        fn epsilon(&self) -> f64 {
            self.epsilon
        }

        fn outputs_match(&self, a: &f64, b: &f64) -> bool {
            // Continuous output: equal up to re-association rounding.
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
        }
    }

    #[test]
    fn laplace_mechanism_aligns_exactly() {
        let mech = LaplaceSum {
            epsilon: 0.3,
            sensitivity: 100.0,
        };
        let mut rng = rng_from_seed(8);
        let max = check_alignment_many(&mech, &5_000.0, &4_930.0, 300, &mut rng).unwrap();
        // cost = |q - q'| * eps / sensitivity = 70 * 0.3/100 = 0.21 exactly.
        assert!((max - 0.21).abs() < 1e-12, "max cost = {max}");
    }

    #[test]
    fn over_budget_alignment_reports_cost() {
        let mech = LaplaceSum {
            epsilon: 0.3,
            sensitivity: 100.0,
        };
        let mut rng = rng_from_seed(8);
        // |q - q'| = 200 > sensitivity: cost 0.6 > ε.
        let err = check_alignment(&mech, &5_000.0, &4_800.0, &mut rng).unwrap_err();
        match err {
            AlignmentError::CostExceeded { cost, epsilon } => {
                assert!((cost - 0.6).abs() < 1e-12);
                assert_eq!(epsilon, 0.3);
            }
            other => panic!("expected CostExceeded, got {other}"),
        }
    }

    /// A mechanism whose neighbor execution consumes fewer draws — the
    /// checker must flag the undrained tape.
    struct ShrinkingDraws;

    impl AlignedMechanism for ShrinkingDraws {
        type Input = usize;
        type Output = usize;

        fn run(&self, input: &usize, source: &mut TapeSource<'_>) -> usize {
            for _ in 0..*input {
                source.draw(&lap(1.0));
            }
            *input
        }

        fn align(&self, _: &usize, _: &usize, tape: &NoiseTape, _: &usize) -> NoiseTape {
            tape.clone()
        }

        fn epsilon(&self) -> f64 {
            1.0
        }
    }

    #[test]
    fn undrained_tape_is_detected() {
        let mut rng = rng_from_seed(1);
        let err = check_alignment(&ShrinkingDraws, &3usize, &2usize, &mut rng).unwrap_err();
        assert!(matches!(
            err,
            AlignmentError::TapeNotDrained { remaining: 1 }
        ));
    }

    #[test]
    fn output_mismatch_is_detected_before_cost() {
        // ShrinkingDraws with neighbor > input panics in replay (exhausted);
        // with equal draw counts but different outputs we get OutputMismatch.
        struct EchoInput;
        impl AlignedMechanism for EchoInput {
            type Input = usize;
            type Output = usize;
            fn run(&self, input: &usize, source: &mut TapeSource<'_>) -> usize {
                source.draw(&lap(1.0));
                *input
            }
            fn align(&self, _: &usize, _: &usize, tape: &NoiseTape, _: &usize) -> NoiseTape {
                tape.clone()
            }
            fn epsilon(&self) -> f64 {
                1.0
            }
        }
        let mut rng = rng_from_seed(1);
        let err = check_alignment(&EchoInput, &1usize, &2usize, &mut rng).unwrap_err();
        assert!(
            matches!(err, AlignmentError::OutputMismatch { .. }),
            "{err}"
        );
    }

    /// A mechanism whose draw scale depends on its input: the neighbor's
    /// replay requests a scale the tape never recorded.
    struct InputScaled;

    impl AlignedMechanism for InputScaled {
        type Input = f64;
        type Output = bool;

        fn run(&self, input: &f64, source: &mut TapeSource<'_>) -> bool {
            source.draw(&lap(*input)) > 0.0
        }

        fn align(&self, _: &f64, _: &f64, tape: &NoiseTape, _: &bool) -> NoiseTape {
            tape.clone()
        }

        fn epsilon(&self) -> f64 {
            1.0
        }
    }

    #[test]
    fn draw_mismatch_is_an_error_not_a_panic() {
        let mut rng = rng_from_seed(1);
        let err = check_alignment(&InputScaled, &1.0, &2.0, &mut rng).unwrap_err();
        match err {
            AlignmentError::DrawMismatch(m) => {
                assert_eq!(m.index, 0);
                assert_eq!(m.recorded_scale, 1.0);
                assert_eq!(m.requested_scale, 2.0);
                assert_eq!(m.recorded_kind, crate::tape::DrawKind::Laplace);
                assert_eq!(m.requested_kind, crate::tape::DrawKind::Laplace);
            }
            other => panic!("expected DrawMismatch, got {other}"),
        }
        // The same mechanism on equal-scale neighbors checks out.
        assert!(check_alignment(&InputScaled, &1.0, &1.0, &mut rng).is_ok());
    }

    #[test]
    fn errors_display_readably() {
        let e = AlignmentError::CostExceeded {
            cost: 1.5,
            epsilon: 1.0,
        };
        assert!(e.to_string().contains("1.5"));
        let e = AlignmentError::TapeNotDrained { remaining: 2 };
        assert!(e.to_string().contains("2 draws"));
        let e = AlignmentError::DrawMismatch(DrawMismatch {
            index: 3,
            recorded_scale: 1.0,
            recorded_kind: crate::tape::DrawKind::Laplace,
            requested_scale: 2.0,
            requested_kind: crate::tape::DrawKind::Gumbel,
        });
        assert!(e
            .to_string()
            .starts_with("draw 3: aligned run requested Gumbel at scale 2"));
    }
}
