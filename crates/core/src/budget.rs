//! Privacy-budget accounting under sequential composition.
//!
//! The paper's adaptive mechanism (Algorithm 2) is budget accounting *inside*
//! a mechanism; this module is the conventional *outer* accountant an
//! application uses when chaining mechanisms (e.g. the 50/50
//! selection/measurement split of §5.2 and §6.2).

use crate::error::MechanismError;

/// A sequential-composition privacy accountant for pure ε-DP.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyBudget {
    total: f64,
    spent: f64,
}

impl PrivacyBudget {
    /// Creates an accountant with `total` budget.
    ///
    /// # Errors
    /// Rejects non-positive or non-finite totals.
    pub fn new(total: f64) -> Result<Self, MechanismError> {
        let total = crate::error::require_epsilon(total)?;
        Ok(Self { total, spent: 0.0 })
    }

    /// The configured total `ε`.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Budget consumed so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Budget still available.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// Fraction of the budget still available, in `[0, 1]`.
    pub fn remaining_fraction(&self) -> f64 {
        self.remaining() / self.total
    }

    /// Records a spend of `epsilon`, failing if it would exceed the total.
    ///
    /// A tiny relative slack (1e-12) absorbs floating-point drift when
    /// callers split a budget into shares that sum exactly to the total.
    pub fn spend(&mut self, epsilon: f64) -> Result<(), MechanismError> {
        self.try_debit(epsilon)
    }

    /// The debit-or-reject primitive behind [`spend`](Self::spend): on
    /// `Ok` exactly `epsilon` was deducted; on `Err` the accountant is
    /// unchanged. A serving ledger holds this under a lock so concurrent
    /// requests can never jointly oversubscribe the total.
    ///
    /// # Errors
    /// [`MechanismError::InvalidEpsilon`] for non-positive or non-finite
    /// requests, [`MechanismError::BudgetExhausted`] (carrying the
    /// requested and remaining amounts) when the debit does not fit.
    pub fn try_debit(&mut self, epsilon: f64) -> Result<(), MechanismError> {
        let epsilon = crate::error::require_epsilon(epsilon)?;
        let slack = 1e-12 * self.total;
        if self.spent + epsilon > self.total + slack {
            return Err(MechanismError::BudgetExhausted {
                requested: epsilon,
                remaining: self.remaining(),
            });
        }
        // No clamp back to `total`: `spent` records the true sum, so once
        // the slack is used up even the tiniest debit is rejected.
        self.spent += epsilon;
        Ok(())
    }

    /// Returns previously debited budget — the outer-accountant analogue
    /// of Algorithm 2's remaining-budget output: a mechanism that halts
    /// early (or a session evicted before exhausting its answer cap) hands
    /// its unspent share back. Only ever credits what was actually spent.
    ///
    /// # Errors
    /// [`MechanismError::InvalidEpsilon`] for negative or non-finite
    /// amounts (zero is a no-op), [`MechanismError::InvalidSplit`] when
    /// the credit exceeds what was spent (beyond the usual 1e-12 relative
    /// slack) — releasing budget that was never debited is a caller bug,
    /// not drift.
    pub fn release(&mut self, epsilon: f64) -> Result<(), MechanismError> {
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(MechanismError::InvalidEpsilon { value: epsilon });
        }
        if epsilon == 0.0 {
            return Ok(());
        }
        if epsilon > self.spent + 1e-12 * self.total {
            return Err(MechanismError::InvalidSplit {
                reason: "cannot release more budget than was spent",
            });
        }
        self.spent = (self.spent - epsilon).max(0.0);
        Ok(())
    }

    /// True when at least `epsilon` is still available (with the same slack
    /// as [`spend`](Self::spend)).
    pub fn can_spend(&self, epsilon: f64) -> bool {
        epsilon.is_finite()
            && epsilon > 0.0
            && self.spent + epsilon <= self.total + 1e-12 * self.total
    }

    /// Splits the *remaining* budget into `fractions` (which must sum to at
    /// most 1) and returns the corresponding ε shares without spending them.
    ///
    /// # Errors
    /// Rejects an empty fraction list (a vacuous split is almost certainly a
    /// caller bug — it would silently produce no shares), and any fraction
    /// that is non-positive or non-finite, and sums exceeding 1 + 1e-12.
    pub fn split(&self, fractions: &[f64]) -> Result<Vec<f64>, MechanismError> {
        if fractions.is_empty() {
            return Err(MechanismError::InvalidSplit {
                reason: "fraction list must be non-empty",
            });
        }
        if !fractions.iter().all(|f| f.is_finite() && *f > 0.0) {
            return Err(MechanismError::InvalidSplit {
                reason: "every fraction must be positive and finite",
            });
        }
        let sum: f64 = fractions.iter().sum();
        if sum > 1.0 + 1e-12 {
            return Err(MechanismError::InvalidSplit {
                reason: "fractions must sum to at most 1",
            });
        }
        Ok(fractions.iter().map(|f| f * self.remaining()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spend_and_remaining() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        assert_eq!(b.remaining(), 1.0);
        b.spend(0.3).unwrap();
        b.spend(0.3).unwrap();
        assert!((b.spent() - 0.6).abs() < 1e-15);
        assert!((b.remaining() - 0.4).abs() < 1e-15);
        assert!((b.remaining_fraction() - 0.4).abs() < 1e-15);
    }

    #[test]
    fn overspend_rejected() {
        let mut b = PrivacyBudget::new(0.5).unwrap();
        b.spend(0.4).unwrap();
        let err = b.spend(0.2).unwrap_err();
        assert!(matches!(err, MechanismError::BudgetExhausted { .. }));
        // The failed spend must not change state.
        assert!((b.spent() - 0.4).abs() < 1e-15);
    }

    #[test]
    fn exact_exhaustion_allowed() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        // Ten shares of 0.1 accumulate float error; the slack must absorb it.
        for _ in 0..10 {
            b.spend(0.1).unwrap();
        }
        assert!(b.remaining() < 1e-12);
        assert!(!b.can_spend(0.01));
    }

    #[test]
    fn exhausted_budget_rejects_tiny_debits() {
        // Regression: `try_debit` used to clamp `spent` back to `total`, so
        // an exhausted budget accepted every debit that fit in the slack.
        let total = 1.0;
        let eps = 5e-13;
        let mut b = PrivacyBudget::new(total).unwrap();
        b.try_debit(total).unwrap();
        let accepted = (0..1_000_000).filter(|_| b.try_debit(eps).is_ok()).count();
        let bound = (1e-12 * total / eps).floor() as usize + 1;
        assert!(
            accepted <= bound,
            "{accepted} tiny debits accepted after exhaustion"
        );
        assert!(b.spent() <= total * (1.0 + 1e-12), "spent {}", b.spent());
    }

    #[test]
    fn can_spend_matches_spend() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        b.spend(0.75).unwrap();
        assert!(b.can_spend(0.25));
        assert!(!b.can_spend(0.26));
        assert!(!b.can_spend(-1.0));
        assert!(!b.can_spend(f64::NAN));
    }

    #[test]
    fn split_scales_remaining() {
        let mut b = PrivacyBudget::new(2.0).unwrap();
        b.spend(1.0).unwrap();
        let shares = b.split(&[0.5, 0.5]).unwrap();
        assert_eq!(shares, vec![0.5, 0.5]);
    }

    #[test]
    fn split_rejects_malformed_requests() {
        let b = PrivacyBudget::new(1.0).unwrap();
        for bad in [
            &[0.7, 0.7][..],      // oversubscribed
            &[][..],              // vacuously "valid" before: now rejected
            &[0.5, 0.0][..],      // non-positive
            &[0.5, -0.1][..],     // negative
            &[0.5, f64::NAN][..], // NaN
            &[f64::INFINITY][..], // non-finite
        ] {
            assert!(
                matches!(b.split(bad), Err(MechanismError::InvalidSplit { .. })),
                "accepted {bad:?}"
            );
        }
        // Exactly 1 (within slack) still passes.
        assert!(b.split(&[0.5, 0.5]).is_ok());
    }

    #[test]
    fn rejects_bad_total() {
        assert!(PrivacyBudget::new(0.0).is_err());
        assert!(PrivacyBudget::new(f64::NAN).is_err());
    }

    #[test]
    fn try_debit_edge_cases() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        // Zero, negative and non-finite debits are typed InvalidEpsilon.
        for bad in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(b.try_debit(bad), Err(MechanismError::InvalidEpsilon { .. })),
                "accepted {bad}"
            );
            assert_eq!(b.spent(), 0.0, "failed debit of {bad} mutated state");
        }
        // An over-debit reports both sides and leaves state unchanged.
        b.try_debit(0.9).unwrap();
        match b.try_debit(0.2) {
            Err(MechanismError::BudgetExhausted {
                requested,
                remaining,
            }) => {
                assert!((requested - 0.2).abs() < 1e-15);
                assert!((remaining - 0.1).abs() < 1e-12);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert!((b.spent() - 0.9).abs() < 1e-15);
    }

    #[test]
    fn release_returns_spent_budget() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        b.try_debit(0.6).unwrap();
        b.release(0.25).unwrap();
        assert!((b.spent() - 0.35).abs() < 1e-12);
        assert!((b.remaining() - 0.65).abs() < 1e-12);
        // The freed budget is spendable again.
        b.try_debit(0.65).unwrap();
        assert!(!b.can_spend(0.01));
    }

    #[test]
    fn release_edge_cases() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        b.try_debit(0.5).unwrap();
        // Zero is a no-op.
        b.release(0.0).unwrap();
        assert!((b.spent() - 0.5).abs() < 1e-15);
        // Negative / non-finite are typed InvalidEpsilon.
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                b.release(bad),
                Err(MechanismError::InvalidEpsilon { .. })
            ));
        }
        // Releasing more than was spent is a caller bug, and must not
        // mint budget.
        assert!(matches!(
            b.release(0.6),
            Err(MechanismError::InvalidSplit { .. })
        ));
        assert!((b.spent() - 0.5).abs() < 1e-15);
        // Releasing exactly what was spent returns to a fresh accountant.
        b.release(0.5).unwrap();
        assert_eq!(b.spent(), 0.0);
    }
}
