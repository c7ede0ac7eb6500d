//! Platform-side token verification and the shared spent-token ledger.

use crate::wallet::Token;
use crate::{Result, TokenError};
use bytes::Bytes;
use prever_crypto::rsa::{PublicKey, Signature};
use prever_ledger::LedgerKv;

/// A crowdworking platform (data manager role).
///
/// Platforms verify tokens against the authority's public key and the
/// shared spent-token ledger, then record spends. The ledger is the
/// "global system state … shared among the mutually distrustful
/// crowdworking platforms" (§5); its journal digests are what the
/// permissioned blockchain replicates.
pub struct Platform {
    /// Platform name (recorded with each spend).
    pub name: String,
    authority_key: PublicKey,
    /// Tokens this platform has accepted (its private task record count).
    accepted: u64,
}

impl Platform {
    /// Creates a platform trusting `authority_key`.
    pub fn new(name: &str, authority_key: PublicKey) -> Self {
        Platform { name: name.to_string(), authority_key, accepted: 0 }
    }

    /// Number of tokens this platform accepted.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Verifies and spends a token for `window`, recording it on the
    /// shared ledger at logical time `now`. The batch of one of
    /// [`Self::verify_and_spend_all`].
    pub fn verify_and_spend(
        &mut self,
        token: &Token,
        window: u64,
        ledger: &mut LedgerKv,
        now: u64,
    ) -> Result<()> {
        self.verify_and_spend_all(std::slice::from_ref(token), window, ledger, now)
    }

    /// Verifies and spends all of one task's tokens for `window`,
    /// recording them on the shared ledger at logical time `now` — every
    /// one of them, or none.
    ///
    /// Order of checks: every token's window → no token twice in the
    /// slice → every signature, by one Bellare–Garay–Rabin screening
    /// batch ([`PublicKey::batch_verify`]) → no token already on the
    /// ledger. Every failure is an explicit error, and only then are the
    /// spends put, in the slice's order.
    pub fn verify_and_spend_all(
        &mut self,
        tokens: &[Token],
        window: u64,
        ledger: &mut LedgerKv,
        now: u64,
    ) -> Result<()> {
        if let Some(token) = tokens.iter().find(|t| t.window != window) {
            return Err(TokenError::WrongWindow { token_window: token.window, expected: window });
        }
        for (i, token) in tokens.iter().enumerate() {
            if tokens[..i].iter().any(|t| t.nonce == token.nonce) {
                return Err(TokenError::DoubleSpend { token_id: token.id_hex() });
            }
        }
        let msgs: Vec<Vec<u8>> = tokens.iter().map(|t| Token::message(t.window, &t.nonce)).collect();
        let items: Vec<(&[u8], &Signature)> =
            msgs.iter().map(Vec::as_slice).zip(tokens.iter().map(|t| &t.signature)).collect();
        self.authority_key.batch_verify(&items)?;
        let keys: Vec<String> = tokens.iter().map(|t| format!("spent:{}", t.id_hex())).collect();
        if let Some(i) = keys.iter().position(|key| ledger.get(key).is_some()) {
            return Err(TokenError::DoubleSpend { token_id: tokens[i].id_hex() });
        }
        for key in &keys {
            ledger.put(now, key, Bytes::from(format!("{}@{}", self.name, now)));
        }
        self.accepted += tokens.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::TokenAuthority;
    use crate::wallet::Wallet;
    use rand::{rngs::StdRng, SeedableRng};

    struct Setup {
        authority: TokenAuthority,
        wallet: Wallet,
        ledger: LedgerKv,
        rng: StdRng,
    }

    fn setup(budget: u64) -> Setup {
        let mut rng = StdRng::seed_from_u64(7);
        let authority = TokenAuthority::new(96, budget, &mut rng);
        Setup {
            authority,
            wallet: Wallet::new("worker-1"),
            ledger: LedgerKv::new(),
            rng,
        }
    }

    #[test]
    fn valid_token_is_accepted_once() {
        let mut s = setup(40);
        s.wallet.request_tokens(&mut s.authority, 23, 1, &mut s.rng).unwrap();
        let token = s.wallet.spend(23).unwrap();
        let mut uber = Platform::new("uber", s.authority.public_key().clone());
        uber.verify_and_spend(&token, 23, &mut s.ledger, 100).unwrap();
        assert_eq!(uber.accepted(), 1);
        // Replaying the same token — at any platform — is a double spend.
        let mut lyft = Platform::new("lyft", s.authority.public_key().clone());
        assert!(matches!(
            lyft.verify_and_spend(&token, 23, &mut s.ledger, 101),
            Err(TokenError::DoubleSpend { .. })
        ));
        assert_eq!(lyft.accepted(), 0);
    }

    #[test]
    fn forged_token_rejected() {
        let mut s = setup(40);
        s.wallet.request_tokens(&mut s.authority, 23, 1, &mut s.rng).unwrap();
        let mut token = s.wallet.spend(23).unwrap();
        token.nonce[0] ^= 1;
        let mut platform = Platform::new("p", s.authority.public_key().clone());
        assert_eq!(
            platform.verify_and_spend(&token, 23, &mut s.ledger, 1).unwrap_err(),
            TokenError::InvalidToken
        );
        // Nothing hit the ledger.
        assert_eq!(s.ledger.journal().len(), 0);
    }

    #[test]
    fn a_forged_token_spends_none_of_its_task() {
        let mut s = setup(40);
        s.wallet.request_tokens(&mut s.authority, 23, 4, &mut s.rng).unwrap();
        let mut tokens: Vec<Token> = (0..4).map(|_| s.wallet.spend(23).unwrap()).collect();
        tokens[2].nonce[0] ^= 1;
        let mut platform = Platform::new("p", s.authority.public_key().clone());
        assert_eq!(
            platform.verify_and_spend_all(&tokens, 23, &mut s.ledger, 1).unwrap_err(),
            TokenError::InvalidToken
        );
        assert_eq!(s.ledger.journal().len(), 0, "no token of the task reached the ledger");
        assert_eq!(platform.accepted(), 0);
        // The three valid ones still spend together, in order.
        tokens.remove(2);
        platform.verify_and_spend_all(&tokens, 23, &mut s.ledger, 2).unwrap();
        assert_eq!(s.ledger.journal().len(), 3);
        // A token twice in one task, or already spent, spends nothing.
        let twice = [tokens[0].clone(), tokens[0].clone()];
        let mut other = Platform::new("q", s.authority.public_key().clone());
        for batch in [&twice[..], &tokens[1..]] {
            assert!(matches!(
                other.verify_and_spend_all(batch, 23, &mut s.ledger, 3),
                Err(TokenError::DoubleSpend { .. })
            ));
        }
        assert_eq!(s.ledger.journal().len(), 3);
    }

    #[test]
    fn wrong_window_rejected_before_ledger_lookup() {
        let mut s = setup(40);
        s.wallet.request_tokens(&mut s.authority, 23, 1, &mut s.rng).unwrap();
        let token = s.wallet.spend(23).unwrap();
        let mut platform = Platform::new("p", s.authority.public_key().clone());
        assert!(matches!(
            platform.verify_and_spend(&token, 24, &mut s.ledger, 1),
            Err(TokenError::WrongWindow { .. })
        ));
    }

    #[test]
    fn flsa_end_to_end_across_two_platforms() {
        // Budget 5 (a small "work week"): the worker splits spends
        // across two platforms; the 6th unit of work is impossible.
        let mut s = setup(5);
        let issued = s.wallet.request_tokens(&mut s.authority, 23, 5, &mut s.rng).unwrap();
        assert_eq!(issued, 5);
        let mut uber = Platform::new("uber", s.authority.public_key().clone());
        let mut lyft = Platform::new("lyft", s.authority.public_key().clone());
        for i in 0..3 {
            let t = s.wallet.spend(23).unwrap();
            uber.verify_and_spend(&t, 23, &mut s.ledger, i).unwrap();
        }
        for i in 3..5 {
            let t = s.wallet.spend(23).unwrap();
            lyft.verify_and_spend(&t, 23, &mut s.ledger, i).unwrap();
        }
        // Wallet empty and the authority refuses more.
        assert_eq!(s.wallet.spend(23).unwrap_err(), TokenError::WalletEmpty);
        assert!(matches!(
            s.wallet.request_tokens(&mut s.authority, 23, 1, &mut s.rng),
            Err(TokenError::BudgetExhausted { .. })
        ));
        // Neither platform knows the other's count except via the public
        // pseudonymous ledger total.
        assert_eq!(uber.accepted(), 3);
        assert_eq!(lyft.accepted(), 2);
        assert_eq!(s.ledger.journal().len(), 5);
        // The ledger's journal is verifiable end to end.
        prever_ledger::Journal::verify_chain(s.ledger.journal().entries(), &s.ledger.digest())
            .unwrap();
    }

    #[test]
    fn spends_are_pseudonymous_on_ledger() {
        let mut s = setup(5);
        s.wallet.request_tokens(&mut s.authority, 23, 2, &mut s.rng).unwrap();
        let mut platform = Platform::new("p", s.authority.public_key().clone());
        let t = s.wallet.spend(23).unwrap();
        platform.verify_and_spend(&t, 23, &mut s.ledger, 1).unwrap();
        // The ledger key embeds only the nonce, never the participant id.
        for e in s.ledger.journal().entries() {
            let payload = String::from_utf8_lossy(&e.payload);
            assert!(!payload.contains("worker-1"));
        }
    }
}
