//! Participant-side token wallet: blinding, unblinding, spending.

use crate::authority::TokenAuthority;
use crate::{Result, TokenError};
use prever_crypto::rsa::{self, Signature};
use rand::Rng;
use std::collections::HashMap;

/// A single-use pseudonymous token.
///
/// The message the authority (blindly) signed is
/// `"prever-token" ‖ window ‖ nonce`; the nonce makes every token
/// unique, and nothing in it identifies the participant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// Regulation window the token is valid for.
    pub window: u64,
    /// Random 32-byte nonce (the token's identity).
    pub nonce: [u8; 32],
    /// The authority's unblinded signature.
    pub signature: Signature,
}

impl Token {
    /// The signed message bytes.
    pub fn message(window: u64, nonce: &[u8; 32]) -> Vec<u8> {
        let mut m = Vec::with_capacity(12 + 8 + 32);
        m.extend_from_slice(b"prever-token");
        m.extend_from_slice(&window.to_be_bytes());
        m.extend_from_slice(nonce);
        m
    }

    /// Hex id of the token (its nonce), used as the ledger spend key.
    pub fn id_hex(&self) -> String {
        prever_crypto::Digest(self.nonce).to_hex()
    }
}

/// A participant's wallet.
pub struct Wallet {
    /// The participant's (authority-facing) identity.
    pub participant: String,
    tokens: HashMap<u64, Vec<Token>>,
}

impl Wallet {
    /// An empty wallet for `participant`.
    pub fn new(participant: &str) -> Self {
        Wallet { participant: participant.to_string(), tokens: HashMap::new() }
    }

    /// Tokens remaining for `window`.
    pub fn balance(&self, window: u64) -> usize {
        self.tokens.get(&window).map(|v| v.len()).unwrap_or(0)
    }

    /// Requests `count` tokens for `window` from the authority via the
    /// blind-signature protocol. Returns how many were issued (the
    /// authority may cut the request short at the budget).
    pub fn request_tokens<R: Rng + ?Sized>(
        &mut self,
        authority: &mut TokenAuthority,
        window: u64,
        count: u64,
        rng: &mut R,
    ) -> Result<u64> {
        let pk = authority.public_key().clone();
        let mut obtained = 0;
        for _ in 0..count {
            let mut nonce = [0u8; 32];
            rng.fill(&mut nonce);
            let msg = Token::message(window, &nonce);
            let (blinded, state) = rsa::blind(&pk, &msg, rng)?;
            let blind_sig = match authority.issue_blinded(&self.participant, window, &blinded) {
                Ok(s) => s,
                Err(TokenError::BudgetExhausted { .. }) if obtained > 0 => break,
                Err(e) => return Err(e),
            };
            let signature = rsa::unblind(&pk, &blind_sig, &state)?;
            self.tokens
                .entry(window)
                .or_default()
                .push(Token { window, nonce, signature });
            obtained += 1;
        }
        Ok(obtained)
    }

    /// Takes one token for `window` out of the wallet (to hand to a
    /// platform).
    pub fn spend(&mut self, window: u64) -> Result<Token> {
        self.tokens
            .get_mut(&window)
            .and_then(|v| v.pop())
            .ok_or(TokenError::WalletEmpty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn request_and_spend() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut authority = TokenAuthority::new(96, 40, &mut rng);
        let mut wallet = Wallet::new("worker-1");
        let got = wallet.request_tokens(&mut authority, 23, 5, &mut rng).unwrap();
        assert_eq!(got, 5);
        assert_eq!(wallet.balance(23), 5);
        let token = wallet.spend(23).unwrap();
        assert_eq!(wallet.balance(23), 4);
        // The token verifies under the authority's public key.
        let msg = Token::message(token.window, &token.nonce);
        authority.public_key().verify(&msg, &token.signature).unwrap();
    }

    #[test]
    fn request_truncated_at_budget() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut authority = TokenAuthority::new(96, 3, &mut rng);
        let mut wallet = Wallet::new("worker-1");
        let got = wallet.request_tokens(&mut authority, 1, 10, &mut rng).unwrap();
        assert_eq!(got, 3);
        assert_eq!(wallet.balance(1), 3);
        // A fresh request fails outright (nothing left).
        assert!(matches!(
            wallet.request_tokens(&mut authority, 1, 1, &mut rng),
            Err(TokenError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn spend_from_empty_wallet_fails() {
        let mut wallet = Wallet::new("w");
        assert_eq!(wallet.spend(1).unwrap_err(), TokenError::WalletEmpty);
    }

    #[test]
    fn tokens_are_unique_and_unlinkable_in_form() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut authority = TokenAuthority::new(96, 10, &mut rng);
        let mut wallet = Wallet::new("worker-1");
        wallet.request_tokens(&mut authority, 5, 4, &mut rng).unwrap();
        let mut nonces = Vec::new();
        for _ in 0..4 {
            nonces.push(wallet.spend(5).unwrap().nonce);
        }
        nonces.sort();
        nonces.dedup();
        assert_eq!(nonces.len(), 4, "nonces must be unique");
    }

    #[test]
    fn windows_are_bound_into_the_signature() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut authority = TokenAuthority::new(96, 10, &mut rng);
        let mut wallet = Wallet::new("w");
        wallet.request_tokens(&mut authority, 7, 1, &mut rng).unwrap();
        let token = wallet.spend(7).unwrap();
        // Re-attributing the token to another window breaks the
        // signature.
        let forged_msg = Token::message(8, &token.nonce);
        assert!(authority.public_key().verify(&forged_msg, &token.signature).is_err());
    }
}
