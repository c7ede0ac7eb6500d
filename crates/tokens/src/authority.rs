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
    /// The batch of one of [`Self::issue_blinded_many`].
    pub fn issue_blinded(
        &mut self,
        participant: &str,
        window: u64,
        blinded: &BigUint,
    ) -> Result<BigUint> {
        let sigs = self.issue_blinded_many(participant, window, std::slice::from_ref(blinded))?;
        Ok(sigs.into_iter().next().expect("a budget left signs the one element"))
    }

    /// Signs one request's blinded token elements for `participant` in
    /// `window`, in order, as many as the budget has left, and debits
    /// them: fewer signatures than elements once the budget runs out
    /// part-way, [`TokenError::BudgetExhausted`] when none was left. One
    /// [`rsa::PrivateKey::sign_blinded_many`] signs them.
    pub fn issue_blinded_many(
        &mut self,
        participant: &str,
        window: u64,
        blinded: &[BigUint],
    ) -> Result<Vec<BigUint>> {
        let key = (participant.to_string(), window);
        let used = self.issued.get(&key).copied().unwrap_or(0);
        let left = self.budget_per_window.saturating_sub(used);
        if left == 0 && !blinded.is_empty() {
            return Err(TokenError::BudgetExhausted {
                participant: participant.to_string(),
                window,
                budget: self.budget_per_window,
            });
        }
        let take = blinded.len().min(usize::try_from(left).unwrap_or(usize::MAX));
        let sigs = self.key.sign_blinded_many(&blinded[..take])?;
        self.issued.insert(key, used + take as u64);
        Ok(sigs)
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
    fn a_request_is_signed_up_to_the_budget_left() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut authority = TokenAuthority::new(96, 5, &mut rng);
        let blinded: Vec<BigUint> = (1..=4).map(|i| BigUint::from_u64(1000 + i)).collect();
        let signed = authority.issue_blinded_many("w", 1, &blinded).unwrap();
        assert_eq!(signed.len(), 4);
        for (b, s) in blinded.iter().zip(&signed) {
            assert_eq!(s, &authority.key.sign_blinded(b).unwrap());
        }
        assert_eq!(authority.issue_blinded_many("w", 1, &blinded).unwrap().len(), 1);
        assert_eq!(authority.issued_to("w", 1), 5);
        assert!(matches!(
            authority.issue_blinded_many("w", 1, &blinded),
            Err(TokenError::BudgetExhausted { budget: 5, .. })
        ));
        // An element out of range signs nothing and debits nothing.
        let too_big = [blinded[0].clone(), authority.public_key().n.clone()];
        assert!(authority.issue_blinded_many("w", 2, &too_big).is_err());
        assert_eq!(authority.issued_to("w", 2), 0);
    }

    #[test]
    fn rejects_oversized_blinded_element() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut authority = TokenAuthority::new(96, 5, &mut rng);
        let too_big = authority.public_key().n.clone();
        assert!(authority.issue_blinded("w", 1, &too_big).is_err());
    }
}
