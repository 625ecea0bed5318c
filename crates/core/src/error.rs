//! Error type for mechanism construction and execution.

use free_gap_noise::{DiscreteLaplace, Laplace};
use std::fmt;

/// Errors raised when configuring or running a mechanism.
#[derive(Debug, Clone, PartialEq)]
pub enum MechanismError {
    /// The privacy budget must be positive and finite.
    InvalidEpsilon {
        /// The rejected value.
        value: f64,
    },
    /// A parameter that is not a privacy budget (support step γ, threshold,
    /// sensitivity, σ-multiplier, variance, λ) left its domain.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `k` must satisfy the documented bounds (e.g. `1 <= k < n` for
    /// Noisy-Top-K, which needs a `(k+1)`-st query for the last gap).
    InvalidK {
        /// The rejected `k`.
        k: usize,
        /// Human-readable constraint.
        requirement: &'static str,
    },
    /// A ratio/fraction parameter (θ, budget split) left `(0, 1)`.
    InvalidFraction {
        /// Name of the parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The query workload was too small for the mechanism configuration.
    NotEnoughQueries {
        /// Queries supplied.
        got: usize,
        /// Queries required.
        need: usize,
    },
    /// The privacy accountant refused an over-budget spend.
    BudgetExhausted {
        /// Amount requested.
        requested: f64,
        /// Amount remaining.
        remaining: f64,
    },
    /// A budget split request was malformed (empty list, non-positive or
    /// non-finite fractions, or fractions summing above 1).
    InvalidSplit {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A benchmark/serving configuration knob was degenerate (zero
    /// tenants, a zero or non-finite duration cap, a non-positive QPS
    /// target, …). Degenerate knobs used to be silently clamped or
    /// filtered; typed rejection keeps a mistyped flag from quietly
    /// producing an empty run.
    InvalidBenchConfig {
        /// Name of the rejected knob.
        name: &'static str,
        /// Human-readable constraint.
        requirement: &'static str,
    },
    /// A worker thread panicked mid-run. The run is aborted and the
    /// panic surfaced as a typed error instead of a hang or an opaque
    /// propagated unwind, so callers can report which worker died.
    WorkerPanicked {
        /// Index of the worker whose thread panicked.
        worker: usize,
    },
    /// A utility/answer fed to a selection mechanism was NaN or infinite.
    /// Selection over non-finite scores is undefined (a NaN poisons any
    /// comparison-based race and `±inf` degenerates the softmax), so the
    /// mechanisms reject the workload up front instead of panicking in a
    /// sort or silently mis-selecting.
    NonFiniteUtility {
        /// Index of the offending query.
        index: usize,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for MechanismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MechanismError::InvalidEpsilon { value } => {
                write!(
                    f,
                    "privacy budget ε must be positive and finite, got {value}"
                )
            }
            MechanismError::InvalidParameter { name, value } => {
                write!(f, "parameter `{name}` is out of its domain: got {value}")
            }
            MechanismError::InvalidK { k, requirement } => {
                write!(f, "invalid k = {k}: {requirement}")
            }
            MechanismError::InvalidFraction { name, value } => {
                write!(f, "parameter `{name}` must lie in (0, 1), got {value}")
            }
            MechanismError::NotEnoughQueries { got, need } => {
                write!(
                    f,
                    "workload has {got} queries but the mechanism needs {need}"
                )
            }
            MechanismError::BudgetExhausted {
                requested,
                remaining,
            } => {
                write!(f, "requested ε = {requested} but only {remaining} remains")
            }
            MechanismError::InvalidSplit { reason } => {
                write!(f, "invalid budget split: {reason}")
            }
            MechanismError::InvalidBenchConfig { name, requirement } => {
                write!(f, "invalid benchmark config `{name}`: {requirement}")
            }
            MechanismError::WorkerPanicked { worker } => {
                write!(f, "worker {worker} panicked; run aborted")
            }
            MechanismError::NonFiniteUtility { index, value } => {
                write!(
                    f,
                    "utility {index} is {value}; selection requires finite utilities"
                )
            }
        }
    }
}

impl std::error::Error for MechanismError {}

/// Validates a privacy budget.
pub(crate) fn require_epsilon(value: f64) -> Result<f64, MechanismError> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(MechanismError::InvalidEpsilon { value })
    }
}

/// Validates a non-budget parameter that must be positive and finite.
pub(crate) fn require_positive(name: &'static str, value: f64) -> Result<f64, MechanismError> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(MechanismError::InvalidParameter { name, value })
    }
}

/// Builds the `Lap(scale)` noise for a scale derived from the budget
/// `epsilon`. A finite ε can still overflow its derived scale (`2k/ε` at
/// `ε = 1e-310` is `inf`), so the ε is rejected when the scale is not a
/// valid Laplace parameter.
pub(crate) fn laplace_noise(epsilon: f64, scale: f64) -> Result<Laplace, MechanismError> {
    Laplace::new(scale).map_err(|_| MechanismError::InvalidEpsilon { value: epsilon })
}

/// Discrete twin of [`laplace_noise`]: the discrete Laplace at the per-unit
/// `rate` derived from `epsilon`, over the lattice `{kγ}`. A rate so small
/// that `e^{-rate·γ}` rounds to 1 is rejected like an overflowing scale.
pub(crate) fn discrete_noise(
    epsilon: f64,
    rate: f64,
    gamma: f64,
) -> Result<DiscreteLaplace, MechanismError> {
    DiscreteLaplace::new(rate, gamma).map_err(|_| MechanismError::InvalidEpsilon { value: epsilon })
}

/// Validates a fraction strictly inside `(0, 1)`.
pub(crate) fn require_fraction(name: &'static str, value: f64) -> Result<f64, MechanismError> {
    if value.is_finite() && value > 0.0 && value < 1.0 {
        Ok(value)
    } else {
        Err(MechanismError::InvalidFraction { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_validation() {
        assert_eq!(require_epsilon(0.5), Ok(0.5));
        for v in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(require_epsilon(v).is_err());
        }
    }

    #[test]
    fn derived_noise_rejects_overflowing_epsilon() {
        assert_eq!(
            laplace_noise(1e-310, 2.0 / 1e-310),
            Err(MechanismError::InvalidEpsilon { value: 1e-310 })
        );
        assert!(discrete_noise(1e-20, 1e-20, 1.0).is_err());
        assert!(laplace_noise(1.0, 2.0).is_ok());
        assert!(matches!(
            require_positive("gamma", f64::NAN),
            Err(MechanismError::InvalidParameter { name: "gamma", .. })
        ));
    }

    #[test]
    fn fraction_validation() {
        assert!(require_fraction("theta", 0.5).is_ok());
        for v in [0.0, 1.0, -0.2, 2.0] {
            assert!(require_fraction("theta", v).is_err());
        }
    }

    #[test]
    fn messages_are_informative() {
        let e = MechanismError::InvalidK {
            k: 0,
            requirement: "k >= 1",
        };
        assert!(e.to_string().contains("k >= 1"));
        let e = MechanismError::BudgetExhausted {
            requested: 1.0,
            remaining: 0.25,
        };
        assert!(e.to_string().contains("0.25"));
        let e = MechanismError::NotEnoughQueries { got: 2, need: 4 };
        assert!(e.to_string().contains('4'));
        let e = MechanismError::InvalidSplit {
            reason: "fraction list must be non-empty",
        };
        assert!(e.to_string().contains("non-empty"));
        let e = MechanismError::NonFiniteUtility {
            index: 3,
            value: f64::NAN,
        };
        assert!(e.to_string().contains("utility 3"));
        let e = MechanismError::InvalidBenchConfig {
            name: "tenants",
            requirement: "must be at least 1",
        };
        assert!(e.to_string().contains("tenants"));
        let e = MechanismError::InvalidParameter {
            name: "gamma",
            value: -1.0,
        };
        assert!(e.to_string().contains("gamma") && !e.to_string().contains('ε'));
        let e = MechanismError::WorkerPanicked { worker: 2 };
        assert!(e.to_string().contains("worker 2"));
    }
}
