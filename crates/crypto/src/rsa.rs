//! RSA full-domain-hash signatures and RSA *blind* signatures.
//!
//! Blind signatures are the engine of the Separ instantiation (§5 of the
//! paper): an external authority signs single-use tokens *without seeing
//! them*, so a platform can later verify that a worker holds a valid,
//! authority-issued token while neither the authority nor the platform can
//! link the token to the issuance — the "single-use pseudonymous tokens"
//! that enforce regulations like the FLSA 40-hour week.
//!
//! The full-domain hash expands SHA-256 output to the modulus size with a
//! counter-mode MGF, so signatures cover the whole group.

use crate::bignum::BigUint;
use crate::montgomery::MontgomeryCtx;
use crate::sha256::Sha256;
use crate::{CryptoError, Result};
use rand::Rng;

/// RSA public key `(n, e)`.
///
/// Caches a [`MontgomeryCtx`] for `n` so verification and blinding
/// reuse the same precomputed reduction state.
#[derive(Clone, Debug)]
pub struct PublicKey {
    /// Modulus.
    pub n: BigUint,
    /// Public exponent (65537).
    pub e: BigUint,
    mont_n: MontgomeryCtx,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        // (n, e) determine the Montgomery precomputation.
        self.n == other.n && self.e == other.e
    }
}

impl Eq for PublicKey {}

/// Precomputed CRT state for signing: exponentiate mod `p` and `q`
/// separately (half-width, ~4x cheaper) and recombine with Garner.
#[derive(Clone, Debug)]
struct RsaCrt {
    /// Prime factor `p`.
    p: BigUint,
    /// Prime factor `q`.
    q: BigUint,
    /// `d mod (p−1)`.
    d_p: BigUint,
    /// `d mod (q−1)`.
    d_q: BigUint,
    /// `q^{−1} mod p`, for Garner recombination.
    q_inv: BigUint,
    /// Montgomery state for `p`.
    mont_p: MontgomeryCtx,
    /// Montgomery state for `q`.
    mont_q: MontgomeryCtx,
}

/// RSA private key.
#[derive(Clone, Debug)]
pub struct PrivateKey {
    /// The public part.
    pub public: PublicKey,
    /// The private exponent. Signing goes through the CRT state, but
    /// `d` stays the canonical secret (and the reference the CRT path
    /// is tested against).
    #[allow(dead_code)]
    d: BigUint,
    crt: RsaCrt,
}

/// An RSA-FDH signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature(pub BigUint);

/// Generates an RSA keypair with `bits`-bit primes (modulus ≈ `2·bits`).
pub fn keygen<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> PrivateKey {
    let e = BigUint::from_u64(65537);
    loop {
        let p = BigUint::gen_prime(bits, rng);
        let q = BigUint::gen_prime(bits, rng);
        if p == q {
            continue;
        }
        let n = p.mul(&q);
        let one = BigUint::one();
        let p1 = p.sub(&one);
        let q1 = q.sub(&one);
        let phi = p1.mul(&q1);
        let d = match e.mod_inv(&phi) {
            Ok(d) => d,
            Err(_) => continue, // gcd(e, phi) != 1; retry with new primes
        };
        let crt = match RsaCrt::new(&p, &q, &d) {
            Ok(crt) => crt,
            Err(_) => continue,
        };
        let mont_n = match MontgomeryCtx::new(&n) {
            Ok(ctx) => ctx, // n odd for any odd primes
            Err(_) => continue,
        };
        let public = PublicKey { n, e: e.clone(), mont_n };
        return PrivateKey { public, d, crt };
    }
}

impl RsaCrt {
    fn new(p: &BigUint, q: &BigUint, d: &BigUint) -> Result<RsaCrt> {
        let one = BigUint::one();
        Ok(RsaCrt {
            p: p.clone(),
            q: q.clone(),
            d_p: d.rem(&p.sub(&one))?,
            d_q: d.rem(&q.sub(&one))?,
            q_inv: q.mod_inv(p)?,
            mont_p: MontgomeryCtx::new(p)?,
            mont_q: MontgomeryCtx::new(q)?,
        })
    }

    /// `x^d mod n` via half-width exponentiations and Garner's formula.
    fn pow_d(&self, x: &BigUint) -> Result<BigUint> {
        let (m1, m2) = self.mont_p.pow_pair(x, &self.d_p, &self.mont_q, x, &self.d_q)?;
        // sig = m2 + q · ((m1 − m2) · q^{-1} mod p).
        let h = m1
            .sub_mod(&m2.rem(&self.p)?, &self.p)?
            .mul_mod(&self.q_inv, &self.p)?;
        Ok(m2.add(&self.q.mul(&h)))
    }
}

/// Full-domain hash of `msg` into `[0, n)`.
pub fn full_domain_hash(msg: &[u8], n: &BigUint) -> BigUint {
    let out_bytes = n.bits().div_ceil(8) + 8;
    let mut material = Vec::with_capacity(out_bytes);
    let mut counter = 0u32;
    while material.len() < out_bytes {
        let mut h = Sha256::new();
        h.update(b"prever-fdh");
        h.update(&counter.to_be_bytes());
        h.update(msg);
        material.extend_from_slice(h.finalize().as_bytes());
        counter += 1;
    }
    BigUint::from_bytes_be(&material).rem(n).expect("modulus non-zero")
}

impl PrivateKey {
    /// Signs `msg` with RSA-FDH: `sig = H(msg)^d mod n` (via CRT).
    pub fn sign(&self, msg: &[u8]) -> Result<Signature> {
        let h = full_domain_hash(msg, &self.public.n);
        Ok(Signature(self.crt.pow_d(&h)?))
    }

    /// Signs a *blinded* element directly (the authority's role in the
    /// blind-signature protocol). The authority never learns the message.
    pub fn sign_blinded(&self, blinded: &BigUint) -> Result<BigUint> {
        if blinded.cmp_to(&self.public.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::OutOfRange("blinded element >= n"));
        }
        self.crt.pow_d(blinded)
    }
}

impl PublicKey {
    /// Verifies an RSA-FDH signature: `sig^e == H(msg) mod n`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<()> {
        if sig.0.cmp_to(&self.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::OutOfRange("signature >= n"));
        }
        let recovered = self.mont_n.pow(&sig.0, &self.e)?;
        if recovered == full_domain_hash(msg, &self.n) {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed("RSA-FDH signature"))
        }
    }

    /// Batch-verifies FDH signatures by Bellare–Garay–Rabin screening:
    /// `(Π sigᵢ)^e == Π H(msgᵢ) mod n` — one `e`-exponentiation for
    /// the whole batch instead of one per signature.
    ///
    /// Fixed-base tables buy nothing here (`e = 65537` is 17 bits, the
    /// exponentiation is already ~18 multiplications); the amortization
    /// for RSA is collapsing the *count* of exponentiations. Screening
    /// requires **pairwise-distinct messages** — with duplicates an
    /// adversary can shift one signature by a factor it divides out of
    /// another — so duplicates are rejected up front. On a failed
    /// product check, bisection attributes the first bad signature.
    pub fn batch_verify(&self, items: &[(&[u8], &Signature)]) -> Result<()> {
        for (i, (msg, sig)) in items.iter().enumerate() {
            if sig.0.is_zero() || sig.0.cmp_to(&self.n) != std::cmp::Ordering::Less {
                return Err(CryptoError::BatchItemInvalid { index: i, what: "RSA signature range" });
            }
            if items[..i].iter().any(|(m, _)| m == msg) {
                return Err(CryptoError::BatchItemInvalid {
                    index: i,
                    what: "duplicate message in screening batch",
                });
            }
        }
        prever_obs::counter!("crypto.batch_verify.size").add(items.len() as u64);
        if self.screen(items)? {
            return Ok(());
        }
        let (mut lo, mut hi) = (0usize, items.len());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if !self.screen(&items[lo..mid])? {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let (msg, sig) = items[lo];
        if self.verify(msg, sig).is_err() {
            return Err(CryptoError::BatchItemInvalid { index: lo, what: "RSA-FDH signature" });
        }
        for (i, (msg, sig)) in items.iter().enumerate() {
            if self.verify(msg, sig).is_err() {
                return Err(CryptoError::BatchItemInvalid { index: i, what: "RSA-FDH signature" });
            }
        }
        Err(CryptoError::VerificationFailed("RSA screening batch"))
    }

    /// The screening product check over a sub-range.
    fn screen(&self, items: &[(&[u8], &Signature)]) -> Result<bool> {
        let mut sig_prod = BigUint::one();
        let mut hash_prod = BigUint::one();
        for (msg, sig) in items {
            sig_prod = self.mont_n.mul_mod(&sig_prod, &sig.0)?;
            hash_prod = self.mont_n.mul_mod(&hash_prod, &full_domain_hash(msg, &self.n))?;
        }
        Ok(self.mont_n.pow(&sig_prod, &self.e)? == hash_prod)
    }
}

/// Client-side state of a blind-signature request: what `unblind` needs
/// to strip the blinding factor from the authority's response.
#[derive(Clone, Debug)]
pub struct BlindingState {
    /// `r⁻¹ mod n` for the blinding factor `r`.
    r_inv: BigUint,
    msg_hash: BigUint,
}

/// Blinds `msg` for signing: returns the blinded element to send to the
/// authority and the state needed to unblind its response.
///
/// `blinded = H(msg) · r^e mod n` for random `r` coprime to `n`. The
/// coprimality test *is* the inversion `unblind` needs — `r` is
/// invertible exactly when it is coprime to `n` (which also rules out
/// zero) — so each blinding factor meets Euclid once, here.
pub fn blind<R: Rng + ?Sized>(
    pk: &PublicKey,
    msg: &[u8],
    rng: &mut R,
) -> Result<(BigUint, BlindingState)> {
    let msg_hash = full_domain_hash(msg, &pk.n);
    let (r, r_inv) = loop {
        let r = BigUint::random_below(&pk.n, rng);
        match r.mod_inv(&pk.n) {
            Ok(r_inv) => break (r, r_inv),
            Err(CryptoError::NotInvertible) => continue,
            Err(e) => return Err(e),
        }
    };
    let re = pk.mont_n.pow(&r, &pk.e)?;
    let blinded = pk.mont_n.mul_mod(&msg_hash, &re)?;
    Ok((blinded, BlindingState { r_inv, msg_hash }))
}

/// Unblinds the authority's signature on a blinded element:
/// `sig = blind_sig · r^−1 mod n`, a valid FDH signature on the original
/// message. Verifies the result before returning it.
pub fn unblind(pk: &PublicKey, blind_sig: &BigUint, state: &BlindingState) -> Result<Signature> {
    let sig = pk.mont_n.mul_mod(blind_sig, &state.r_inv)?;
    // Sanity-check against the stored hash (catches a cheating authority).
    let recovered = pk.mont_n.pow(&sig, &pk.e)?;
    if recovered != state.msg_hash {
        return Err(CryptoError::VerificationFailed("unblinded signature"));
    }
    Ok(Signature(sig))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn key() -> PrivateKey {
        let mut rng = StdRng::seed_from_u64(21);
        keygen(96, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = key();
        let sig = sk.sign(b"update: worker-7 completed task-12").unwrap();
        sk.public.verify(b"update: worker-7 completed task-12", &sig).unwrap();
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let sk = key();
        let sig = sk.sign(b"msg-a").unwrap();
        assert!(sk.public.verify(b"msg-b", &sig).is_err());
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let sk = key();
        let mut sig = sk.sign(b"msg").unwrap();
        sig.0 = sig.0.add(&BigUint::one()).rem(&sk.public.n).unwrap();
        assert!(sk.public.verify(b"msg", &sig).is_err());
    }

    #[test]
    fn verify_rejects_oversized_signature() {
        let sk = key();
        let sig = Signature(sk.public.n.clone());
        assert!(sk.public.verify(b"msg", &sig).is_err());
    }

    #[test]
    fn blind_signature_roundtrip() {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(22);
        let token = b"token: worker-7 / week-23 / nonce-abc123";
        let (blinded, state) = blind(&sk.public, token, &mut rng).unwrap();
        // The authority signs without seeing the token.
        let blind_sig = sk.sign_blinded(&blinded).unwrap();
        let sig = unblind(&sk.public, &blind_sig, &state).unwrap();
        sk.public.verify(token, &sig).unwrap();
    }

    #[test]
    fn blinding_hides_the_message() {
        // The blinded element must differ from the raw FDH hash and vary
        // per blinding even for the same message.
        let sk = key();
        let mut rng = StdRng::seed_from_u64(23);
        let (b1, _) = blind(&sk.public, b"same-token", &mut rng).unwrap();
        let (b2, _) = blind(&sk.public, b"same-token", &mut rng).unwrap();
        assert_ne!(b1, b2);
        assert_ne!(b1, full_domain_hash(b"same-token", &sk.public.n));
    }

    #[test]
    fn unblind_detects_cheating_authority() {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(24);
        let (blinded, state) = blind(&sk.public, b"token", &mut rng).unwrap();
        let mut bad = sk.sign_blinded(&blinded).unwrap();
        bad = bad.add(&BigUint::one()).rem(&sk.public.n).unwrap();
        assert!(unblind(&sk.public, &bad, &state).is_err());
    }

    #[test]
    fn signatures_unlinkable_to_blinded_requests() {
        // The authority sees `blinded`; the platform later sees `sig`.
        // They must not be equal (unlinkability needs more, but this is
        // the structural check a unit test can make).
        let sk = key();
        let mut rng = StdRng::seed_from_u64(25);
        let (blinded, state) = blind(&sk.public, b"token-x", &mut rng).unwrap();
        let blind_sig = sk.sign_blinded(&blinded).unwrap();
        let sig = unblind(&sk.public, &blind_sig, &state).unwrap();
        assert_ne!(sig.0, blind_sig);
        assert_ne!(sig.0, blinded);
    }

    #[test]
    fn crt_sign_matches_plain_exponentiation() {
        let sk = key();
        for msg in [b"crt-a".as_slice(), b"crt-b", b""] {
            let h = full_domain_hash(msg, &sk.public.n);
            let plain = h.mod_exp_schoolbook(&sk.d, &sk.public.n).unwrap();
            assert_eq!(sk.crt.pow_d(&h).unwrap(), plain);
        }
    }

    #[test]
    fn batch_verify_accepts_valid_batches() {
        let sk = key();
        for n in [0usize, 1, 8] {
            let msgs: Vec<Vec<u8>> = (0..n).map(|i| format!("batch-msg-{i}").into_bytes()).collect();
            let sigs: Vec<Signature> = msgs.iter().map(|m| sk.sign(m).unwrap()).collect();
            let items: Vec<(&[u8], &Signature)> =
                msgs.iter().map(|m| m.as_slice()).zip(sigs.iter()).collect();
            sk.public.batch_verify(&items).unwrap();
        }
    }

    #[test]
    fn batch_verify_pinpoints_tampered_signature() {
        let sk = key();
        let msgs: Vec<Vec<u8>> = (0..8).map(|i| format!("screen-{i}").into_bytes()).collect();
        let mut sigs: Vec<Signature> = msgs.iter().map(|m| sk.sign(m).unwrap()).collect();
        sigs[5].0 = sigs[5].0.add(&BigUint::one()).rem(&sk.public.n).unwrap();
        let items: Vec<(&[u8], &Signature)> =
            msgs.iter().map(|m| m.as_slice()).zip(sigs.iter()).collect();
        match sk.public.batch_verify(&items) {
            Err(CryptoError::BatchItemInvalid { index: 5, .. }) => {}
            other => panic!("expected pinpoint at 5, got {other:?}"),
        }
    }

    #[test]
    fn batch_verify_rejects_duplicate_messages() {
        // Screening is only sound for pairwise-distinct messages; a
        // duplicate pair lets forged signatures cancel in the product.
        let sk = key();
        let sig_a = sk.sign(b"dup").unwrap();
        // Forge a cancelling pair: sig · x and sig · x⁻¹ multiply back to
        // sig², so the product check alone would pass.
        let x = BigUint::from_u64(7);
        let x_inv = x.mod_inv(&sk.public.n).unwrap();
        let f1 = Signature(sk.public.mont_n.mul_mod(&sig_a.0, &x).unwrap());
        let f2 = Signature(sk.public.mont_n.mul_mod(&sig_a.0, &x_inv).unwrap());
        assert!(sk.public.verify(b"dup", &f1).is_err());
        let items: Vec<(&[u8], &Signature)> = vec![(b"dup", &f1), (b"dup", &f2)];
        match sk.public.batch_verify(&items) {
            Err(CryptoError::BatchItemInvalid { index: 1, what }) => {
                assert!(what.contains("duplicate"));
            }
            other => panic!("expected duplicate rejection, got {other:?}"),
        }
    }

    #[test]
    fn batch_verify_rejects_out_of_range_signature() {
        let sk = key();
        let sig = sk.sign(b"ok").unwrap();
        let oversized = Signature(sk.public.n.clone());
        let items: Vec<(&[u8], &Signature)> = vec![(b"ok", &sig), (b"big", &oversized)];
        match sk.public.batch_verify(&items) {
            Err(CryptoError::BatchItemInvalid { index: 1, .. }) => {}
            other => panic!("expected range rejection at 1, got {other:?}"),
        }
    }

    #[test]
    fn fdh_is_deterministic_and_in_range() {
        let sk = key();
        let h1 = full_domain_hash(b"m", &sk.public.n);
        let h2 = full_domain_hash(b"m", &sk.public.n);
        assert_eq!(h1, h2);
        assert!(h1 < sk.public.n);
        assert_ne!(h1, full_domain_hash(b"m2", &sk.public.n));
    }
}
