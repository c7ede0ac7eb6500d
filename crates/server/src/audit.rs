//! Signed audit-digest attestations with batched verification.
//!
//! `Request::AuditDigest` lets an auditor collect each gateway's view of
//! the replicated hash-chain digest, but a bare digest is hearsay: a
//! gateway could later deny having served it. A [`DigestAttestation`]
//! binds the digest (and the gateway's identity) to its Schnorr key, so
//! the gateway cannot deny the digest it signed.
//!
//! What a signed digest does not yet give: the digest is a linear hash
//! chain over the executed commands, not a Merkle log root, so there is
//! no consistency proof that a later digest extends an earlier one, and
//! an attestation cannot be checked against a later state. And because
//! [`verify_round`] requires every digest of a round to be equal, an
//! honest gateway that is merely behind (it has executed a prefix of the
//! others' history) is reported as [`AuditError::Diverged`], exactly like
//! one that forked. ROADMAP item 17 replaces the chain with a Merkle log
//! root, which gives both the proof and the prefix check.
//!
//! [`verify_round`] checks a whole round of attestations with ONE
//! random-linear-combination batch check
//! ([`prever_crypto::schnorr::batch_verify`]) before comparing digests,
//! so per-round verification cost stays near a single signature check
//! as the federation grows; a forged attestation is pinpointed to its
//! gateway by the batch verifier's bisection.

use prever_crypto::schnorr::{self, KeyPair, SchnorrGroup, SchnorrSignature};
use prever_crypto::{BigUint, CryptoError};
use rand::Rng;

/// One gateway's signed claim about its current state digest.
#[derive(Clone, Debug)]
pub struct DigestAttestation {
    /// The attesting gateway's node id.
    pub gateway: u64,
    /// The hash-chain digest it serves.
    pub digest: [u8; 32],
    /// The gateway's public key.
    pub signer: BigUint,
    /// Schnorr signature over the canonical attestation encoding.
    pub signature: SchnorrSignature,
}

/// Canonical byte encoding of an attestation for signing: domain tag,
/// gateway id, digest. Binding the id prevents replaying one gateway's
/// attestation as another's.
fn attestation_message(gateway: u64, digest: &[u8; 32]) -> Vec<u8> {
    let mut m = Vec::with_capacity(20 + 8 + 32);
    m.extend_from_slice(b"prever-audit-digest");
    m.extend_from_slice(&gateway.to_be_bytes());
    m.extend_from_slice(digest);
    m
}

/// Signs `digest` as `gateway`'s current state.
pub fn attest<R: Rng + ?Sized>(
    group: &SchnorrGroup,
    key: &KeyPair,
    gateway: u64,
    digest: [u8; 32],
    rng: &mut R,
) -> DigestAttestation {
    let signature = schnorr::sign(group, key, &attestation_message(gateway, &digest), rng);
    DigestAttestation { gateway, digest, signer: key.public.clone(), signature }
}

/// Why an audit round failed.
#[derive(Debug)]
pub enum AuditError {
    /// No attestations were collected.
    Empty,
    /// This gateway's signature does not verify.
    Forged {
        /// The offending gateway's node id.
        gateway: u64,
    },
    /// This gateway attests a digest different from gateway 0's.
    Diverged {
        /// The diverging gateway's node id.
        gateway: u64,
    },
    /// Underlying crypto failure unrelated to a specific attestation.
    Crypto(CryptoError),
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Empty => write!(f, "audit round has no attestations"),
            AuditError::Forged { gateway } => {
                write!(f, "forged audit attestation from gateway {gateway}")
            }
            AuditError::Diverged { gateway } => {
                write!(f, "gateway {gateway} attests a divergent digest")
            }
            AuditError::Crypto(e) => write!(f, "audit verification failed: {e}"),
        }
    }
}

impl std::error::Error for AuditError {}

/// Verifies an audit round: every attestation signature valid (one
/// batched check) and every gateway attesting the same digest. Returns
/// the agreed digest.
pub fn verify_round(
    group: &SchnorrGroup,
    attestations: &[DigestAttestation],
) -> std::result::Result<[u8; 32], AuditError> {
    let first = attestations.first().ok_or(AuditError::Empty)?;
    let msgs: Vec<Vec<u8>> = attestations
        .iter()
        .map(|a| attestation_message(a.gateway, &a.digest))
        .collect();
    let items: Vec<(&BigUint, &[u8], &SchnorrSignature)> = attestations
        .iter()
        .zip(&msgs)
        .map(|(a, m)| (&a.signer, m.as_slice(), &a.signature))
        .collect();
    schnorr::batch_verify(group, &items).map_err(|e| match e {
        CryptoError::BatchItemInvalid { index, .. } => {
            AuditError::Forged { gateway: attestations[index].gateway }
        }
        other => AuditError::Crypto(other),
    })?;
    if let Some(diverged) = attestations.iter().find(|a| a.digest != first.digest) {
        return Err(AuditError::Diverged { gateway: diverged.gateway });
    }
    Ok(first.digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn round(n: usize) -> (SchnorrGroup, Vec<KeyPair>, Vec<DigestAttestation>, StdRng) {
        let mut rng = StdRng::seed_from_u64(41);
        let group = SchnorrGroup::test_group_256();
        let keys: Vec<KeyPair> = (0..n).map(|_| KeyPair::generate(&group, &mut rng)).collect();
        let digest = [7u8; 32];
        let attests = keys
            .iter()
            .enumerate()
            .map(|(i, k)| attest(&group, k, i as u64, digest, &mut rng))
            .collect();
        (group, keys, attests, rng)
    }

    #[test]
    fn audit_round_roundtrip() {
        let (group, _, attests, _) = round(4);
        assert_eq!(verify_round(&group, &attests).unwrap(), [7u8; 32]);
    }

    #[test]
    fn forged_attestation_names_the_gateway() {
        let (group, keys, mut attests, mut rng) = round(4);
        // Gateway 2's signature replaced by one from a different key.
        attests[2].signature =
            schnorr::sign(&group, &keys[0], &attestation_message(2, &[7u8; 32]), &mut rng);
        match verify_round(&group, &attests) {
            Err(AuditError::Forged { gateway: 2 }) => {}
            other => panic!("expected forged at gateway 2, got {other:?}"),
        }
    }

    #[test]
    fn replayed_attestation_rejected() {
        // Gateway 3 replays gateway 1's (valid) attestation under its
        // own id: the id is bound into the signed message, so the
        // signature no longer verifies.
        let (group, _, mut attests, _) = round(4);
        attests[3].signature = attests[1].signature.clone();
        attests[3].digest = attests[1].digest;
        match verify_round(&group, &attests) {
            Err(AuditError::Forged { gateway: 3 }) => {}
            other => panic!("expected forged at gateway 3, got {other:?}"),
        }
    }

    #[test]
    fn divergent_digest_names_the_gateway() {
        let (group, keys, mut attests, mut rng) = round(3);
        attests[1] = attest(&group, &keys[1], 1, [9u8; 32], &mut rng);
        match verify_round(&group, &attests) {
            Err(AuditError::Diverged { gateway: 1 }) => {}
            other => panic!("expected divergence at gateway 1, got {other:?}"),
        }
    }

    #[test]
    fn empty_round_rejected() {
        let group = SchnorrGroup::test_group_256();
        assert!(matches!(verify_round(&group, &[]), Err(AuditError::Empty)));
    }
}
