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
    /// blind-signature protocol, as one request. Returns how many were
    /// issued (the authority may cut the request short at the budget).
    ///
    /// The request draws from `rng` what a loop of one `blind` a token
    /// would, up to and including the first token the authority refuses
    /// (a nonce, then its blinding factor, for each of `min(count, left +
    /// 1)` tokens, `left` being the budget the authority has left), and
    /// adds the tokens in that order. With no budget left it fails after
    /// that one draw.
    pub fn request_tokens<R: Rng + ?Sized>(
        &mut self,
        authority: &mut TokenAuthority,
        window: u64,
        count: u64,
        rng: &mut R,
    ) -> Result<u64> {
        let left = authority.budget().saturating_sub(authority.issued_to(&self.participant, window));
        let draws = usize::try_from(count.min(left.saturating_add(1))).unwrap_or(usize::MAX);
        let mut nonces = Vec::with_capacity(draws);
        let draw = |rng: &mut R| {
            let mut nonce = [0u8; 32];
            rng.fill(&mut nonce);
            nonces.push(nonce);
            Token::message(window, &nonce)
        };
        let (blinded, states) = rsa::blind_many(authority.public_key(), draws, draw, rng)?;
        let blind_sigs = authority.issue_blinded_many(&self.participant, window, &blinded)?;
        let signed = blind_sigs.len();
        let signatures = rsa::unblind_many(authority.public_key(), &blind_sigs, &states[..signed])?;
        self.tokens
            .entry(window)
            .or_default()
            .extend(nonces.into_iter().zip(signatures).map(|(nonce, signature)| Token {
                window,
                nonce,
                signature,
            }));
        Ok(signed as u64)
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

    /// The loop `request_tokens` was: one `blind`, `issue_blinded` and
    /// `unblind` a token, stopping at the first refusal (an error if it
    /// was the first token).
    fn one_at_a_time(
        authority: &mut TokenAuthority,
        participant: &str,
        window: u64,
        count: u64,
        rng: &mut StdRng,
    ) -> Result<Vec<Token>> {
        let pk = authority.public_key().clone();
        let mut tokens = Vec::new();
        for _ in 0..count {
            let mut nonce = [0u8; 32];
            rng.fill(&mut nonce);
            let (blinded, state) = rsa::blind(&pk, &Token::message(window, &nonce), rng)?;
            let blind_sig = match authority.issue_blinded(participant, window, &blinded) {
                Ok(s) => s,
                Err(TokenError::BudgetExhausted { .. }) if !tokens.is_empty() => break,
                Err(e) => return Err(e),
            };
            let signature = rsa::unblind(&pk, &blind_sig, &state)?;
            tokens.push(Token { window, nonce, signature });
        }
        Ok(tokens)
    }

    /// At the benchmark's key size (512-bit primes, so the lane kernel
    /// signs where the CPU has it), one request gives what the loop gave:
    /// the same tokens in the same order, and the rng left where the loop
    /// left it — for a count below the budget left, above it, with none
    /// left (an error after one draw), and equal to it.
    #[test]
    fn one_request_draws_and_issues_what_a_token_at_a_time_did() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut authority = TokenAuthority::new(512, 12, &mut rng);
        let mut wallet = Wallet::new("batched");
        let (mut rng, mut loop_rng) = (StdRng::seed_from_u64(6), StdRng::seed_from_u64(6));
        for (window, count) in [(1, 3), (1, 10), (1, 1), (2, 12)] {
            let got = wallet.request_tokens(&mut authority, window, count, &mut rng);
            let want = one_at_a_time(&mut authority, "looped", window, count, &mut loop_rng);
            assert_eq!(rng.gen::<u64>(), loop_rng.gen::<u64>(), "window {window}, {count}: draws");
            let want = match (got, want) {
                (Ok(n), Ok(want)) => {
                    assert_eq!(n, want.len() as u64, "window {window}, {count}");
                    want
                }
                (Err(e), Err(want)) => {
                    assert!(matches!(e, TokenError::BudgetExhausted { .. }), "{e:?}");
                    assert!(matches!(want, TokenError::BudgetExhausted { .. }), "{want:?}");
                    continue;
                }
                other => panic!("window {window}, {count}: {other:?}"),
            };
            let mut tokens: Vec<Token> = want.iter().map(|_| wallet.spend(window).unwrap()).collect();
            tokens.reverse();
            assert_eq!(tokens, want, "window {window}, {count}");
            assert_eq!(
                authority.issued_to("batched", window),
                authority.issued_to("looped", window),
                "window {window}"
            );
        }
        assert_eq!(authority.issued_to("batched", 1), 12);
        assert_eq!(authority.issued_to("batched", 2), 12);
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
