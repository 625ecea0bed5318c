//! Per-tenant privacy-budget ledger: a [`PrivacyBudget`] a serving tenant
//! debits and credits through a shared reference.
//!
//! The ledger is not thread-safe on its own. The server keeps each
//! tenant's ledger inside the tenant state, behind the one tenant lock,
//! so every debit, refund and session release is serialized with the
//! session table it accounts for. The invariant the server leans on: at
//! every instant, `spent ≤ total (+ the accountant's 1e-12 relative
//! slack)` — no interleaving of concurrent requests can jointly
//! oversubscribe a tenant's ε, because each debit checks and mutates
//! under that lock (`tests/serve.rs` races this through
//! `QueryServer::handle`).

use free_gap_core::{MechanismError, PrivacyBudget};
use std::cell::Cell;

/// Budget accountant for one tenant.
#[derive(Debug)]
pub struct BudgetLedger {
    budget: Cell<PrivacyBudget>,
}

impl BudgetLedger {
    /// Creates a ledger with `total` budget.
    ///
    /// # Errors
    /// Rejects non-positive or non-finite totals.
    pub fn new(total: f64) -> Result<Self, MechanismError> {
        Ok(Self {
            budget: Cell::new(PrivacyBudget::new(total)?),
        })
    }

    /// Debits `epsilon`, or rejects without changing state.
    ///
    /// # Errors
    /// [`MechanismError::InvalidEpsilon`] for malformed requests,
    /// [`MechanismError::BudgetExhausted`] when the debit does not fit.
    pub fn try_debit(&self, epsilon: f64) -> Result<(), MechanismError> {
        let mut budget = self.budget.get();
        budget.try_debit(epsilon)?;
        self.budget.set(budget);
        Ok(())
    }

    /// Returns previously debited budget (refunds a failed call, or an
    /// evicted session's unspent share).
    ///
    /// # Errors
    /// As [`PrivacyBudget::release`].
    pub fn release(&self, epsilon: f64) -> Result<(), MechanismError> {
        let mut budget = self.budget.get();
        budget.release(epsilon)?;
        self.budget.set(budget);
        Ok(())
    }

    /// Budget still available.
    pub fn remaining(&self) -> f64 {
        self.budget.get().remaining()
    }

    /// Budget consumed so far.
    pub fn spent(&self) -> f64 {
        self.budget.get().spent()
    }

    /// The configured total `ε`.
    pub fn total(&self) -> f64 {
        self.budget.get().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debit_and_release_round_trip() {
        let ledger = BudgetLedger::new(1.0).unwrap();
        ledger.try_debit(0.7).unwrap();
        assert!(matches!(
            ledger.try_debit(0.5),
            Err(MechanismError::BudgetExhausted { .. })
        ));
        ledger.release(0.2).unwrap();
        ledger.try_debit(0.5).unwrap();
        assert!(ledger.remaining() < 1e-12);
        assert!((ledger.total() - 1.0).abs() < 1e-15);
    }
}
