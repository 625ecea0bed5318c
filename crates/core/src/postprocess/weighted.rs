//! Inverse-variance combination of SVT gaps with direct measurements (§6.2).
//!
//! When (Adaptive-)Sparse-Vector-with-Gap answers a query with gap `γᵢ`, the
//! quantity `γᵢ + T` is already a noisy estimate of `qᵢ(D)`. Given an
//! independent measurement `αᵢ`, the minimum-variance unbiased combination
//! is the standard inverse-variance weighting
//!
//! ```text
//! βᵢ = (αᵢ/Var(αᵢ) + (γᵢ+T)/Var(γᵢ)) / (1/Var(αᵢ) + 1/Var(γᵢ))
//! ```
//!
//! With the §6.2 budget layout (half the budget to SVT with the optimal
//! `1:(2k)^{2/3}` internal split, half to measurement), the error ratio is
//! `(1+∛(4k²))³ / ((1+∛(4k²))³ + k²)` → 80% (i.e. 20% improvement) as
//! `k → ∞`; for monotone workloads `(1+∛(k²))³/((1+∛(k²))³+k²)` → 50%.

use crate::error::{require_positive, MechanismError};

/// Inverse-variance weighted mean of two independent unbiased estimates.
///
/// # Errors
/// Rejects non-positive or non-finite variances.
pub fn inverse_variance_combine(
    estimate_a: f64,
    variance_a: f64,
    estimate_b: f64,
    variance_b: f64,
) -> Result<f64, MechanismError> {
    for v in [variance_a, variance_b] {
        require_positive("variance", v)?;
    }
    let wa = 1.0 / variance_a;
    let wb = 1.0 / variance_b;
    Ok((estimate_a * wa + estimate_b * wb) / (wa + wb))
}

/// Variance of the inverse-variance combination of two independent
/// estimates: `1 / (1/Va + 1/Vb)`.
pub fn combined_variance(variance_a: f64, variance_b: f64) -> f64 {
    1.0 / (1.0 / variance_a + 1.0 / variance_b)
}

/// §6.2's specific combiner: gap `γ` (from SVT-with-Gap, public threshold
/// `T`) plus measurement `α`.
pub fn combine_gap_with_measurement(
    gap: f64,
    threshold: f64,
    gap_variance: f64,
    measurement: f64,
    measurement_variance: f64,
) -> Result<f64, MechanismError> {
    inverse_variance_combine(
        measurement,
        measurement_variance,
        gap + threshold,
        gap_variance,
    )
}

/// The §6.2 closed-form error ratio `Var(β)/Var(α)` for the half/half budget
/// protocol with the optimal internal SVT split.
pub fn svt_error_ratio(k: usize, monotonic: bool) -> f64 {
    let kf = k as f64;
    let c = if monotonic {
        kf.powf(2.0 / 3.0)
    } else {
        (2.0 * kf).powf(2.0 / 3.0)
    };
    let cube = (1.0 + c).powi(3);
    cube / (cube + kf * kf)
}

/// The λ of [`super::blue::BlueInput`] for the §5.2 half/half protocol:
/// selection with `ε/2` (per-query scale `c·k/(ε/2)`… reduced: `2ck/ε`) vs
/// measurement with `ε/2` over `k` queries (scale `2k/ε`); hence `λ = c²` —
/// 1 for monotone workloads, 4 for general ones.
pub fn topk_lambda_for_even_split(monotonic: bool) -> f64 {
    if monotonic {
        1.0
    } else {
        4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_variances() {
        for (va, vb) in [(0.0, 1.0), (1.0, f64::NAN)] {
            assert!(matches!(
                inverse_variance_combine(0.0, va, 1.0, vb),
                Err(MechanismError::InvalidParameter {
                    name: "variance",
                    ..
                })
            ));
        }
    }

    #[test]
    fn equal_variances_average() {
        let c = inverse_variance_combine(2.0, 5.0, 4.0, 5.0).unwrap();
        assert!((c - 3.0).abs() < 1e-12);
    }

    #[test]
    fn weighting_prefers_the_tighter_estimate() {
        let c = inverse_variance_combine(0.0, 1.0, 10.0, 1e6).unwrap();
        assert!(c < 0.1, "combined {c} should hug the low-variance estimate");
    }

    #[test]
    fn combined_variance_below_both() {
        let v = combined_variance(4.0, 4.0);
        assert!((v - 2.0).abs() < 1e-12);
        assert!(combined_variance(1.0, 100.0) < 1.0);
    }

    #[test]
    fn gap_combiner_adds_threshold() {
        // gap 7 over threshold 50 => estimate 57, combined with α = 59.
        let c = combine_gap_with_measurement(7.0, 50.0, 2.0, 59.0, 2.0).unwrap();
        assert!((c - 58.0).abs() < 1e-12);
    }

    #[test]
    fn error_ratio_limits_match_paper() {
        // §6.2: general → 4/5 as k → ∞ (20% improvement)…
        let big = svt_error_ratio(100_000, false);
        assert!((big - 0.8).abs() < 0.01, "general limit {big}");
        // …monotone → 1/2 (50% improvement).
        let big_m = svt_error_ratio(100_000, true);
        assert!((big_m - 0.5).abs() < 0.01, "monotone limit {big_m}");
        // Always a strict improvement.
        for k in 1..30 {
            assert!(svt_error_ratio(k, true) < 1.0);
            assert!(svt_error_ratio(k, false) < 1.0);
        }
    }

    #[test]
    fn error_ratio_closed_form_spot_check() {
        // k = 10 monotone: (1+10^{2/3})³/((1+10^{2/3})³+100).
        let c = 10f64.powf(2.0 / 3.0);
        let expect = (1.0 + c).powi(3) / ((1.0 + c).powi(3) + 100.0);
        assert!((svt_error_ratio(10, true) - expect).abs() < 1e-12);
    }

    #[test]
    fn lambda_constants() {
        assert_eq!(topk_lambda_for_even_split(true), 1.0);
        assert_eq!(topk_lambda_for_even_split(false), 4.0);
    }
}
