//! # prever-crypto
//!
//! From-scratch cryptographic substrate for the PReVer framework
//! ("PReVer: Towards Private Regulated Verified Data", EDBT 2022).
//!
//! PReVer's research challenges name a toolbox of cryptographic techniques:
//! homomorphic encryption and zero-knowledge proofs for private constraint
//! verification on a single untrusted database (RC1), secret sharing /
//! secure multi-party computation and blind-signature tokens for federated
//! settings (RC2), private information retrieval for public data (RC3), and
//! authenticated data structures (Merkle trees) for ledger integrity (RC4).
//! This crate provides every primitive those techniques are built from:
//!
//! * [`sha256`](mod@sha256) — SHA-256, the hash underlying every authenticated structure.
//! * [`hmac`] — HMAC-SHA256 and HKDF for keyed hashing / key derivation.
//! * [`bignum`] — arbitrary-precision unsigned integers ([`BigUint`]) with
//!   modular exponentiation, inversion, and Miller–Rabin primality testing.
//! * [`field`] — the 61-bit Mersenne prime field [`field::Fp61`] used by
//!   secret sharing and MPC.
//! * [`fixed_base`] — Lim–Lee comb precomputation for the generators every
//!   request reuses, plus batch-verification support in [`schnorr`].
//! * [`merkle`] — append-only Merkle trees with RFC-6962-style inclusion and
//!   consistency proofs.
//! * [`shamir`] — Shamir and additive secret sharing over `Fp61`.
//! * [`paillier`] — Paillier additively homomorphic encryption (the paper's
//!   FHE stand-in for RC1; see DESIGN.md for the substitution argument).
//! * [`rsa`] — RSA full-domain-hash signatures and *blind* signatures, the
//!   basis of Separ-style single-use pseudonymous tokens.
//! * [`schnorr`] — Schnorr groups, signatures, Pedersen commitments and
//!   sigma-protocol zero-knowledge proofs (knowledge, equality, range).
//! * [`transcript`] — Fiat–Shamir transcripts for non-interactive proofs.
//!
//! ## Security disclaimer
//!
//! This is a **research artifact**: implementations are not constant-time,
//! default parameter sizes are demo-scale, and no attempt is made to resist
//! side channels. Do not use for production secrets.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bignum;
pub mod field;
pub mod fixed_base;
pub mod hmac;
pub mod merkle;
pub mod montgomery;
pub mod paillier;
pub mod rsa;
pub mod schnorr;
pub mod sha256;
pub mod shamir;
pub mod transcript;

pub use bignum::BigUint;
pub use field::Fp61;
pub use fixed_base::FixedBaseTable;
pub use merkle::MerkleTree;
pub use sha256::{sha256, Digest, Sha256};

/// Errors produced by cryptographic operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A proof or signature failed verification.
    VerificationFailed(&'static str),
    /// A batch verification failed; bisection isolated the first
    /// offending item at this index.
    BatchItemInvalid {
        /// Index of the first invalid item in the batch.
        index: usize,
        /// What kind of item failed.
        what: &'static str,
    },
    /// An operand was outside the valid range (e.g. message ≥ modulus).
    OutOfRange(&'static str),
    /// A modular inverse does not exist (operand not coprime to modulus).
    NotInvertible,
    /// Not enough shares were provided to reconstruct a secret.
    InsufficientShares {
        /// Shares required by the threshold.
        needed: usize,
        /// Shares actually supplied.
        got: usize,
    },
    /// Two shares carried the same evaluation point.
    DuplicateShare,
    /// A structure (proof, key, ciphertext) was malformed.
    Malformed(&'static str),
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::VerificationFailed(what) => {
                write!(f, "verification failed: {what}")
            }
            CryptoError::BatchItemInvalid { index, what } => {
                write!(f, "batch verification failed: {what} at index {index}")
            }
            CryptoError::OutOfRange(what) => write!(f, "operand out of range: {what}"),
            CryptoError::NotInvertible => write!(f, "modular inverse does not exist"),
            CryptoError::InsufficientShares { needed, got } => {
                write!(f, "insufficient shares: need {needed}, got {got}")
            }
            CryptoError::DuplicateShare => write!(f, "duplicate share evaluation point"),
            CryptoError::Malformed(what) => write!(f, "malformed structure: {what}"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, CryptoError>;
