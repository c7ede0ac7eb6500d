//! # prever-tokens
//!
//! Separ-style single-use pseudonymous tokens — the centralized
//! token-based mechanism PReVer names for Research Challenge 2 and walks
//! through in §5.
//!
//! The cast, mapped from the paper:
//!
//! * **Authority** ([`authority::TokenAuthority`]) — "a trusted third
//!   party … that expresses public regulations." Per regulation window
//!   (e.g. FLSA week 23) it issues each participant a budget of
//!   single-use tokens equal to the regulation bound (40 hours → 40
//!   tokens) via **blind signatures**, so the authority cannot link a
//!   later token spend back to an issuance.
//! * **Participant** ([`wallet::Wallet`]) — a worker holding unblinded
//!   tokens; spends one per regulated unit through whichever platform
//!   the task runs on.
//! * **Platform** ([`platform::Platform`]) — a data manager. Verifies a
//!   token's signature and that it is unspent on the **shared spent-token
//!   ledger**, then records the spend. Platforms are mutually
//!   distrustful; the shared ledger object stands in for the
//!   SharPer-replicated global state (consensus is exercised separately
//!   in `prever-consensus`; the integration example wires both).
//!
//! The regulation holds globally because the *total* number of tokens a
//! worker can spend across all platforms per window equals the bound —
//! no platform learns how much the worker did elsewhere (privacy), yet
//! none can admit above-bound work (integrity). Double-spends are caught
//! on the ledger by any platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authority;
pub mod platform;
pub mod wallet;

pub use authority::TokenAuthority;
pub use platform::Platform;
pub use wallet::{Token, Wallet};

use prever_crypto::CryptoError;

/// Errors from the token subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenError {
    /// The participant's issuance budget for the window is exhausted.
    BudgetExhausted {
        /// Participant.
        participant: String,
        /// Window id.
        window: u64,
        /// The budget that was available.
        budget: u64,
    },
    /// A token failed signature verification.
    InvalidToken,
    /// The token was already spent (recorded on the ledger).
    DoubleSpend {
        /// Hex of the token nonce.
        token_id: String,
    },
    /// A token was presented for a different window than it was issued
    /// for.
    WrongWindow {
        /// Window the token carries.
        token_window: u64,
        /// Window being checked.
        expected: u64,
    },
    /// Underlying cryptographic failure.
    Crypto(CryptoError),
    /// The wallet has no tokens left for this window.
    WalletEmpty,
}

impl From<CryptoError> for TokenError {
    fn from(e: CryptoError) -> Self {
        match e {
            CryptoError::VerificationFailed(_) | CryptoError::BatchItemInvalid { .. } => {
                TokenError::InvalidToken
            }
            other => TokenError::Crypto(other),
        }
    }
}

impl std::fmt::Display for TokenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TokenError::BudgetExhausted { participant, window, budget } => {
                write!(f, "budget of {budget} for {participant} in window {window} exhausted")
            }
            TokenError::InvalidToken => write!(f, "invalid token signature"),
            TokenError::DoubleSpend { token_id } => write!(f, "token {token_id} already spent"),
            TokenError::WrongWindow { token_window, expected } => {
                write!(f, "token for window {token_window}, expected {expected}")
            }
            TokenError::Crypto(e) => write!(f, "crypto error: {e}"),
            TokenError::WalletEmpty => write!(f, "no tokens left in wallet"),
        }
    }
}

impl std::error::Error for TokenError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, TokenError>;
