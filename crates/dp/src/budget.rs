//! ε-budget accounting that fails closed.

use crate::{DpError, Result};

/// Tracks cumulative ε spending under sequential composition.
///
/// Once the budget is exhausted every further `spend` fails — the
/// "impossibility to support additional updates" branch of the paper's
/// dichotomy, surfaced as an error instead of silent privacy loss.
#[derive(Clone, Debug)]
pub struct BudgetAccountant {
    total: f64,
    spent: f64,
    releases: u64,
}

impl BudgetAccountant {
    /// A budget of `total` ε.
    pub fn new(total: f64) -> Result<Self> {
        if total <= 0.0 || !total.is_finite() {
            return Err(DpError::InvalidEpsilon(total));
        }
        Ok(BudgetAccountant { total, spent: 0.0, releases: 0 })
    }

    /// Attempts to spend `epsilon`; errs if it would overdraw.
    pub fn spend(&mut self, epsilon: f64) -> Result<()> {
        let _span = prever_obs::span!("dp.budget.spend");
        if epsilon <= 0.0 || !epsilon.is_finite() {
            return Err(DpError::InvalidEpsilon(epsilon));
        }
        if self.spent + epsilon > self.total + 1e-12 {
            prever_obs::counter!("dp.budget.denied").inc();
            prever_obs::log!(
                Warn,
                "dp budget exhausted: spent {:.4}/{:.4}, requested {epsilon:.4}",
                self.spent,
                self.total
            );
            return Err(DpError::BudgetExhausted {
                total: self.total,
                spent: self.spent,
                requested: epsilon,
            });
        }
        self.spent += epsilon;
        self.releases += 1;
        prever_obs::counter!("dp.budget.spends").inc();
        // Remaining budget in micro-ε so the level survives integer
        // gauge semantics.
        prever_obs::gauge!("dp.budget.remaining_micro_eps")
            .set((self.remaining() * 1e6) as i64);
        Ok(())
    }

    /// ε remaining.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// ε spent so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Number of successful releases.
    pub fn releases(&self) -> u64 {
        self.releases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spends_until_exhausted() {
        let mut b = BudgetAccountant::new(1.0).unwrap();
        for _ in 0..10 {
            b.spend(0.1).unwrap();
        }
        assert!(b.remaining() < 1e-9);
        assert_eq!(b.releases(), 10);
        assert!(matches!(b.spend(0.1), Err(DpError::BudgetExhausted { .. })));
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(BudgetAccountant::new(0.0).is_err());
        assert!(BudgetAccountant::new(-1.0).is_err());
        let mut b = BudgetAccountant::new(1.0).unwrap();
        assert!(b.spend(0.0).is_err());
        assert!(b.spend(f64::INFINITY).is_err());
    }

    #[test]
    fn partial_overdraw_rejected_whole() {
        let mut b = BudgetAccountant::new(1.0).unwrap();
        b.spend(0.9).unwrap();
        assert!(b.spend(0.2).is_err());
        // The failed attempt spent nothing.
        assert!((b.spent() - 0.9).abs() < 1e-12);
    }
}
