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
use crate::montgomery::{MontgomeryCtx, MAX_LANES};
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
        self.garner(&m1, &m2)
    }

    /// `xᵢ^d mod n` for every `xᵢ`. Groups of up to [`MAX_LANES`] that
    /// both halves run on the lane kernel exponentiate as two groups, the
    /// `p` lanes (one exponent `d_p`) and the `q` lanes (`d_q`); smaller
    /// groups take [`Self::pow_d`]'s lockstep pair per element.
    fn pow_d_many(&self, xs: &[BigUint]) -> Result<Vec<BigUint>> {
        let mut out = Vec::with_capacity(xs.len());
        for group in xs.chunks(MAX_LANES) {
            let k = group.len();
            if self.mont_p.runs_on_lanes(k) && self.mont_q.runs_on_lanes(k) {
                let m1 = self.mont_p.pow_many(group, &self.d_p)?;
                let m2 = self.mont_q.pow_many(group, &self.d_q)?;
                for (m1, m2) in m1.iter().zip(&m2) {
                    out.push(self.garner(m1, m2)?);
                }
            } else {
                for x in group {
                    out.push(self.pow_d(x)?);
                }
            }
        }
        Ok(out)
    }

    /// Garner's recombination of `m1 = x^d mod p` and `m2 = x^d mod q`:
    /// `m2 + q · ((m1 − m2) · q⁻¹ mod p)`.
    fn garner(&self, m1: &BigUint, m2: &BigUint) -> Result<BigUint> {
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
        Ok(self.sign_blinded_many(std::slice::from_ref(blinded))?.remove(0))
    }

    /// Signs every blinded element of one request, in order: the bytes
    /// and [`prever_obs::work::Unit::MontMul`] count of a `sign_blinded`
    /// each. From the lane kernel's crossover up, the request's `p`
    /// halves are one lane-parallel exponentiation and its `q` halves
    /// another, with Garner per element. Nothing is signed unless every
    /// element is below `n`.
    pub fn sign_blinded_many(&self, blinded: &[BigUint]) -> Result<Vec<BigUint>> {
        if blinded.iter().any(|b| b.cmp_to(&self.public.n) != std::cmp::Ordering::Less) {
            return Err(CryptoError::OutOfRange("blinded element >= n"));
        }
        self.crt.pow_d_many(blinded)
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

    /// The screening product check over a sub-range. The products start
    /// from the first item, so a range of one costs what `verify` does.
    fn screen(&self, items: &[(&[u8], &Signature)]) -> Result<bool> {
        let Some(((msg, sig), rest)) = items.split_first() else {
            return Ok(true);
        };
        let mut sig_prod = sig.0.clone();
        let mut hash_prod = full_domain_hash(msg, &self.n);
        for (msg, sig) in rest {
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
/// authority and the state needed to unblind its response. The batch of
/// one of [`blind_many`].
pub fn blind<R: Rng + ?Sized>(
    pk: &PublicKey,
    msg: &[u8],
    rng: &mut R,
) -> Result<(BigUint, BlindingState)> {
    let (mut blinded, mut states) = blind_many(pk, 1, |_| msg.to_vec(), rng)?;
    Ok((blinded.remove(0), states.remove(0)))
}

/// Blinds the `count` messages of one request: the blinded elements to
/// send to the authority and the states that unblind its responses.
///
/// `blindedᵢ = H(msgᵢ) · rᵢ^e mod n` for random `rᵢ` coprime to `n`.
/// `message` draws message `i`, and `rᵢ` is drawn right after it, so a
/// request takes from `rng` exactly what `count` calls of [`blind`] take.
/// The `rᵢ^e` are one lane-parallel exponentiation
/// ([`MontgomeryCtx::pow_many`]). The `rᵢ⁻¹` that unblinding needs cost
/// one inversion for the whole request (Montgomery's trick: prefix
/// products forward, one `mod_inv`, then each inverse backward; `3(k − 1)`
/// multiplications). The inversion is also the coprimality test: should a
/// factor share a prime with `n` (which would factor the key), the factors
/// are inverted one by one and each such one redrawn, as `blind` always
/// has, after the request's other draws.
pub fn blind_many<R: Rng + ?Sized>(
    pk: &PublicKey,
    count: usize,
    mut message: impl FnMut(&mut R) -> Vec<u8>,
    rng: &mut R,
) -> Result<(Vec<BigUint>, Vec<BlindingState>)> {
    let (mut hashes, mut rs) = (Vec::with_capacity(count), Vec::with_capacity(count));
    for _ in 0..count {
        hashes.push(full_domain_hash(&message(rng), &pk.n));
        rs.push(BigUint::random_below(&pk.n, rng));
    }
    let r_invs = invert_all(pk, &mut rs, rng)?;
    let res = pk.mont_n.pow_many(&rs, &pk.e)?;
    let blinded = hashes
        .iter()
        .zip(&res)
        .map(|(h, re)| pk.mont_n.mul_mod(h, re))
        .collect::<Result<Vec<_>>>()?;
    let states = r_invs
        .into_iter()
        .zip(hashes)
        .map(|(r_inv, msg_hash)| BlindingState { r_inv, msg_hash })
        .collect();
    Ok((blinded, states))
}

/// `rᵢ⁻¹ mod n` for every blinding factor, by [`blind_many`]'s one
/// inversion, redrawing a factor that is not invertible.
fn invert_all<R: Rng + ?Sized>(
    pk: &PublicKey,
    rs: &mut [BigUint],
    rng: &mut R,
) -> Result<Vec<BigUint>> {
    // prefix[i] = r₀ · … · rᵢ.
    let mut prefix: Vec<BigUint> = Vec::with_capacity(rs.len());
    for r in rs.iter() {
        let next = match prefix.last() {
            Some(p) => pk.mont_n.mul_mod(p, r)?,
            None => r.clone(),
        };
        prefix.push(next);
    }
    let Some(all) = prefix.last() else {
        return Ok(Vec::new());
    };
    let mut inv = match all.mod_inv(&pk.n) {
        Ok(inv) => inv,
        Err(CryptoError::NotInvertible) => {
            return rs
                .iter_mut()
                .map(|r| loop {
                    match r.mod_inv(&pk.n) {
                        Ok(r_inv) => break Ok(r_inv),
                        Err(CryptoError::NotInvertible) => *r = BigUint::random_below(&pk.n, rng),
                        Err(e) => break Err(e),
                    }
                })
                .collect();
        }
        Err(e) => return Err(e),
    };
    // Walking back, `inv` is (r₀ · … · rᵢ)⁻¹.
    let mut out = vec![BigUint::zero(); rs.len()];
    for i in (1..rs.len()).rev() {
        out[i] = pk.mont_n.mul_mod(&inv, &prefix[i - 1])?;
        inv = pk.mont_n.mul_mod(&inv, &rs[i])?;
    }
    out[0] = inv;
    Ok(out)
}

/// Unblinds the authority's signature on a blinded element:
/// `sig = blind_sig · r^−1 mod n`, a valid FDH signature on the original
/// message. Verifies the result before returning it. The batch of one of
/// [`unblind_many`].
pub fn unblind(pk: &PublicKey, blind_sig: &BigUint, state: &BlindingState) -> Result<Signature> {
    let sigs = unblind_many(pk, std::slice::from_ref(blind_sig), std::slice::from_ref(state))?;
    Ok(sigs.into_iter().next().expect("one signature per state"))
}

/// Unblinds the authority's signatures on one request's blinded
/// elements, pairing `blind_sigs[i]` with `states[i]`, and checks every
/// `sigᵢ^e = H(msgᵢ)` (catches a cheating authority) with one
/// lane-parallel exponentiation. Returns every signature or none.
pub fn unblind_many(
    pk: &PublicKey,
    blind_sigs: &[BigUint],
    states: &[BlindingState],
) -> Result<Vec<Signature>> {
    if blind_sigs.len() != states.len() {
        return Err(CryptoError::OutOfRange("unblind operand length mismatch"));
    }
    let sigs = blind_sigs
        .iter()
        .zip(states)
        .map(|(s, state)| pk.mont_n.mul_mod(s, &state.r_inv))
        .collect::<Result<Vec<_>>>()?;
    let recovered = pk.mont_n.pow_many(&sigs, &pk.e)?;
    if recovered.iter().zip(states).any(|(r, state)| *r != state.msg_hash) {
        return Err(CryptoError::VerificationFailed("unblinded signature"));
    }
    Ok(sigs.into_iter().map(Signature).collect())
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

    /// The key at the benchmark's size (512-bit primes) with its three
    /// contexts rebuilt, so a test's kernel rule applies to them.
    fn rebuilt(key: &PrivateKey) -> PrivateKey {
        let (n, d) = (&key.public.n, &key.d);
        let mont_n = MontgomeryCtx::new(n).unwrap();
        let public = PublicKey { n: n.clone(), e: key.public.e.clone(), mont_n };
        let crt = RsaCrt::new(&key.crt.p, &key.crt.q, d).unwrap();
        PrivateKey { public, d: d.clone(), crt }
    }

    /// Every batch operation against its single-item form looped, at the
    /// benchmark's key size and for 1 to 9 elements: under the
    /// crossovers, and forced onto each kernel (the vector one takes the
    /// lanes from one element up). `sign_blinded_many` and `unblind_many`
    /// give the same bytes and `MontMul` count; `blind_many` gives the
    /// same blinded elements and states from the same draws, and 6(k − 1)
    /// more multiplications (Montgomery's trick, 3(k − 1) `mul_mod`s of
    /// two each, in place of k − 1 inversions).
    #[test]
    fn batches_give_the_bytes_and_work_of_one_at_a_time() {
        use crate::montgomery::tests::{forcing, kernels};
        use prever_obs::work::{measure, Unit};
        let key = keygen(512, &mut StdRng::seed_from_u64(26));
        let mut rules = vec![("crossovers", None)];
        rules.extend(kernels().into_iter().map(|(name, kernel)| (name, Some(kernel))));
        for (name, rule) in rules {
            let key = match rule {
                Some(kernel) => forcing(kernel, || rebuilt(&key)),
                None => rebuilt(&key),
            };
            let pk = &key.public;
            let mut rng = StdRng::seed_from_u64(27);
            for k in 1..=9usize {
                let msgs: Vec<Vec<u8>> = (0..k).map(|i| format!("token-{k}-{i}").into_bytes()).collect();
                let mut each_rng = rng.clone();
                let mut next = msgs.iter();
                let ((blinded, states), many) =
                    measure(|| blind_many(pk, k, |_| next.next().unwrap().clone(), &mut rng).unwrap());
                let (each, one) = measure(|| {
                    msgs.iter().map(|m| blind(pk, m, &mut each_rng).unwrap()).collect::<Vec<_>>()
                });
                assert_eq!(rng.gen::<u64>(), each_rng.gen::<u64>(), "{name}, k = {k}: draws");
                for ((b, s), (b1, s1)) in blinded.iter().zip(&states).zip(&each) {
                    assert_eq!((b, &s.r_inv, &s.msg_hash), (b1, &s1.r_inv, &s1.msg_hash), "{name}, k = {k}");
                }
                let extra = 6 * (k as u64 - 1);
                assert_eq!(many[Unit::MontMul], one[Unit::MontMul] + extra, "{name}, k = {k}: blind");

                let (sigs, many) = measure(|| key.sign_blinded_many(&blinded).unwrap());
                let (each, one) =
                    measure(|| blinded.iter().map(|b| key.sign_blinded(b).unwrap()).collect::<Vec<_>>());
                assert_eq!(sigs, each, "{name}, k = {k}: signatures");
                assert_eq!(many[Unit::MontMul], one[Unit::MontMul], "{name}, k = {k}: sign");
                let per = measure(|| key.sign_blinded(&blinded[0]).unwrap()).1[Unit::MontMul];
                assert_eq!(one[Unit::MontMul], per * k as u64, "{name}, k = {k}: per signature");

                let (unblinded, many) = measure(|| unblind_many(pk, &sigs, &states).unwrap());
                let (each, one) = measure(|| {
                    sigs.iter().zip(&states).map(|(s, st)| unblind(pk, s, st).unwrap()).collect::<Vec<_>>()
                });
                assert_eq!(unblinded, each, "{name}, k = {k}: unblinded");
                assert_eq!(many[Unit::MontMul], one[Unit::MontMul], "{name}, k = {k}: unblind");
                for (m, sig) in msgs.iter().zip(&unblinded) {
                    pk.verify(m, sig).unwrap();
                }
            }
            // A wrong element anywhere fails the whole unblinding.
            let (blinded, states) = blind_many(pk, 3, |_| b"t".to_vec(), &mut rng).unwrap();
            let mut sigs = key.sign_blinded_many(&blinded).unwrap();
            sigs[2] = sigs[2].add(&BigUint::one()).rem(&pk.n).unwrap();
            assert!(unblind_many(pk, &sigs, &states).is_err(), "{name}");
            assert!(unblind_many(pk, &sigs[..2], &states).is_err(), "{name}: length mismatch");
            // So does an element out of range anywhere in a signing batch.
            assert!(key.sign_blinded_many(&[blinded[0].clone(), pk.n.clone()]).is_err(), "{name}");
        }
    }

    #[test]
    fn a_factor_that_is_not_invertible_is_redrawn() {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(28);
        let mut rs = vec![BigUint::from_u64(3), sk.crt.p.clone(), BigUint::from_u64(5)];
        let invs = invert_all(&sk.public, &mut rs, &mut rng).unwrap();
        assert_ne!(rs[1], sk.crt.p, "the factor sharing p was redrawn");
        for (r, inv) in rs.iter().zip(&invs) {
            assert!(sk.public.mont_n.mul_mod(r, inv).unwrap().is_one());
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
