//! The external authority: defines regulation windows, issues blinded
//! token budgets.

use crate::{Result, TokenError};
use prever_crypto::bignum::BigUint;
use prever_crypto::rsa;
use rand::Rng;
use std::collections::HashMap;

/// The trusted external authority (paper §5: "Separ uses a trusted third
/// party to act as the authority that expresses public regulations").
///
/// It knows *who* requests tokens (issuance requires identification so
/// budgets bind to participants) but — because signing is blind — cannot
/// recognize tokens when they are later spent.
pub struct TokenAuthority {
    key: rsa::PrivateKey,
    /// Tokens each participant may draw per window (the regulation
    /// bound, e.g. 40 for FLSA hours).
    budget_per_window: u64,
    /// (participant, window) → tokens issued so far.
    issued: HashMap<(String, u64), u64>,
}

impl TokenAuthority {
    /// Creates an authority with an RSA key of `prime_bits`-bit primes
    /// and a per-window issuance budget.
    pub fn new<R: Rng + ?Sized>(prime_bits: usize, budget_per_window: u64, rng: &mut R) -> Self {
        TokenAuthority {
            key: rsa::keygen(prime_bits, rng),
            budget_per_window,
            issued: HashMap::new(),
        }
    }

    /// The verification key platforms use.
    pub fn public_key(&self) -> &rsa::PublicKey {
        &self.key.public
    }

    /// The per-window budget (the regulation bound).
    pub fn budget(&self) -> u64 {
        self.budget_per_window
    }

    /// Tokens issued to `participant` in `window` so far.
    pub fn issued_to(&self, participant: &str, window: u64) -> u64 {
        self.issued
            .get(&(participant.to_string(), window))
            .copied()
            .unwrap_or(0)
    }

    /// Signs one blinded token element for `participant` in `window`,
    /// debiting the budget. The authority never sees the token itself.
    pub fn issue_blinded(
        &mut self,
        participant: &str,
        window: u64,
        blinded: &BigUint,
    ) -> Result<BigUint> {
        let key = (participant.to_string(), window);
        let used = self.issued.get(&key).copied().unwrap_or(0);
        if used >= self.budget_per_window {
            return Err(TokenError::BudgetExhausted {
                participant: participant.to_string(),
                window,
                budget: self.budget_per_window,
            });
        }
        let sig = self.key.sign_blinded(blinded)?;
        self.issued.insert(key, used + 1);
        Ok(sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn budget_is_enforced_per_participant_per_window() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut authority = TokenAuthority::new(96, 3, &mut rng);
        let blinded = BigUint::from_u64(12345); // opaque to the authority
        for _ in 0..3 {
            authority.issue_blinded("worker-1", 23, &blinded).unwrap();
        }
        assert!(matches!(
            authority.issue_blinded("worker-1", 23, &blinded),
            Err(TokenError::BudgetExhausted { .. })
        ));
        // Other participants and other windows have their own budgets.
        authority.issue_blinded("worker-2", 23, &blinded).unwrap();
        authority.issue_blinded("worker-1", 24, &blinded).unwrap();
        assert_eq!(authority.issued_to("worker-1", 23), 3);
        assert_eq!(authority.issued_to("worker-1", 24), 1);
        assert_eq!(authority.issued_to("worker-3", 23), 0);
    }

    #[test]
    fn rejects_oversized_blinded_element() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut authority = TokenAuthority::new(96, 5, &mut rng);
        let too_big = authority.public_key().n.clone();
        assert!(authority.issue_blinded("w", 1, &too_big).is_err());
    }
}
