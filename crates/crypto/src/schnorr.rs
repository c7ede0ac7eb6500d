//! Schnorr groups, signatures, Pedersen commitments and sigma-protocol
//! zero-knowledge proofs.
//!
//! Research Challenge 1 requires an untrusted data manager to *prove* that
//! it performed the correct action on private data ("verifiable proofs
//! that they actually perform the correct actions they claim"). The paper
//! points at zk-SNARKs; we substitute classical sigma protocols made
//! non-interactive with Fiat–Shamir (see DESIGN.md) — the same role, a
//! construction that was deployed for exactly these statements pre-SNARK:
//!
//! * [`ProofOfKnowledge`] — knowledge of a discrete log (key ownership);
//! * [`OpeningProof`] — knowledge of a Pedersen commitment opening;
//! * [`EqualityProof`] — two commitments hide the same value;
//! * [`BitProof`] — a commitment hides 0 or 1 (CDS OR-composition);
//! * [`RangeProof`] — a commitment hides a value in `[0, 2^k)`, the proof
//!   PReVer needs for upper-bound regulations ("hours worked this week is
//!   a committed value below 40") without revealing the value.
//!
//! All arithmetic is in the order-`q` subgroup of `Z_p^*` for a safe prime
//! `p = 2q + 1`; exponents live in `Z_q`.

use crate::bignum::BigUint;
use crate::fixed_base::FixedBaseTable;
use crate::montgomery::MontgomeryCtx;
use crate::transcript::Transcript;
use crate::{CryptoError, Result};
use rand::Rng;
use std::cmp::Ordering;

/// A Schnorr group: the order-`q` subgroup of `Z_p^*`, `p = 2q + 1` safe.
///
/// Caches a [`MontgomeryCtx`] for `p`, so all group exponentiations
/// share one precomputed reduction state, plus Lim–Lee comb tables
/// for the fixed generators `g` and `h` — every signature, proof and
/// commitment exponentiates those two, so the per-group table build
/// (about one exponentiation each) repays itself immediately — and
/// `g⁻¹`, the one inverse the proofs need. Everything else that looks
/// like a division is an exponentiation: inside the prime-order
/// subgroup `Y⁻ᶜ = Y^(q−c)`.
#[derive(Clone, Debug)]
pub struct SchnorrGroup {
    /// Safe prime modulus.
    pub p: BigUint,
    /// Subgroup order, `q = (p − 1) / 2`.
    pub q: BigUint,
    /// Generator of the order-`q` subgroup.
    pub g: BigUint,
    /// Second generator with unknown discrete log w.r.t. `g` (for Pedersen).
    pub h: BigUint,
    mont_p: MontgomeryCtx,
    fb_g: FixedBaseTable,
    fb_h: FixedBaseTable,
    /// `g⁻¹ mod p`: every bit proof's second statement is `C·g⁻¹`.
    g_inv: BigUint,
}

impl PartialEq for SchnorrGroup {
    fn eq(&self, other: &Self) -> bool {
        // (p, q, g, h) determine the Montgomery precomputation.
        self.p == other.p && self.q == other.q && self.g == other.g && self.h == other.h
    }
}

impl Eq for SchnorrGroup {}

impl SchnorrGroup {
    /// Generates a fresh group with a `bits`-bit safe prime. Slow for
    /// large sizes; use [`SchnorrGroup::rfc2409_1024`] or
    /// [`SchnorrGroup::test_group_256`] instead where possible.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        let p = BigUint::gen_safe_prime(bits, rng);
        Self::from_safe_prime(p)
    }

    /// The 1024-bit MODP group from RFC 2409 §6.2 (Oakley Group 2); its
    /// modulus is a safe prime. Generator `g = 4` (a quadratic residue,
    /// hence of order `q`).
    pub fn rfc2409_1024() -> Self {
        let p = BigUint::from_hex(
            "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08\
             8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B\
             302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9\
             A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6\
             49286651ECE65381FFFFFFFFFFFFFFFF",
        )
        .expect("hardcoded hex");
        Self::from_safe_prime(p)
    }

    /// A small, precomputed 256-bit safe-prime group for fast tests.
    pub fn test_group_256() -> Self {
        // p = 2q + 1, both prime (verified in tests).
        let p = BigUint::from_hex(
            "fbddc92e4cdb3608f19ef41d3ba1fb2c7e4338666ee1c857ae19582bb6d73e1b",
        )
        .expect("hardcoded hex");
        Self::from_safe_prime(p)
    }

    /// Builds the group from a safe prime, deriving `g` and `h`.
    pub fn from_safe_prime(p: BigUint) -> Self {
        let q = p.sub(&BigUint::one()).shr(1);
        // g = 4 = 2² is a QR mod any safe prime p > 5, hence has order q.
        let g = BigUint::from_u64(4);
        // h: hash-to-group with unknown dlog — square of an FDH value.
        let seed = crate::rsa::full_domain_hash(b"prever-pedersen-h", &p);
        let mut h = seed.mul_mod(&seed, &p).expect("p > 1");
        if h.is_one() || h.is_zero() {
            // Astronomically unlikely; fall back to g² to stay well-defined.
            h = g.mul_mod(&g, &p).expect("p > 1");
        }
        let mont_p = MontgomeryCtx::new(&p).expect("safe prime is odd and > 1");
        // Exponents live in Z_q, so the combs cover q's width.
        let fb_g = FixedBaseTable::new(&mont_p, &g, q.bits()).expect("group generator");
        let fb_h = FixedBaseTable::new(&mont_p, &h, q.bits()).expect("group generator");
        let g_inv = g.mod_inv(&p).expect("0 < g < p prime");
        SchnorrGroup { p, q, g, h, mont_p, fb_g, fb_h, g_inv }
    }

    /// `g^e mod p` through the fixed-base comb.
    pub fn pow_g(&self, e: &BigUint) -> BigUint {
        self.fb_g.pow(e).expect("p > 1")
    }

    /// `h^e mod p` through the fixed-base comb.
    pub fn pow_h(&self, e: &BigUint) -> BigUint {
        self.fb_h.pow(e).expect("p > 1")
    }

    /// `g^a · h^b mod p` on one shared squaring chain — the Pedersen
    /// commitment shape, for barely more than a single fixed-base pow.
    pub fn pow_gh(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.fb_g.mul_pow(a, &self.fb_h, b).expect("p > 1")
    }

    /// `base^e mod p` (variable base: sliding-window Montgomery).
    pub fn pow(&self, base: &BigUint, e: &BigUint) -> BigUint {
        self.mont_p.pow(base, e).expect("p > 1")
    }

    /// `Π bᵢ^{eᵢ} mod p` (variable bases, shared squaring chain).
    pub fn multi_pow(&self, bases: &[&BigUint], exps: &[&BigUint]) -> Result<BigUint> {
        self.mont_p.multi_pow(bases, exps)
    }

    /// Product in the group.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.mont_p.mul_mod(a, b).expect("p > 1")
    }

    /// Inverse in the group.
    pub fn inv(&self, a: &BigUint) -> Result<BigUint> {
        a.mod_inv(&self.p)
    }

    /// A random exponent in `[1, q)`.
    pub fn random_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        loop {
            let e = BigUint::random_below(&self.q, rng);
            if !e.is_zero() {
                return e;
            }
        }
    }

    /// Checks that `x` is a valid element of the order-`q` subgroup.
    ///
    /// For a safe prime `p = 2q + 1` the order-`q` subgroup is exactly
    /// the quadratic residues, so membership reduces to the Jacobi
    /// symbol `(x/p) = 1` — a gcd-priced division chain instead of the
    /// full `x^q = 1` exponentiation. This runs on every signature and
    /// proof verification (and twice per item in the batch paths), so
    /// the difference is material.
    pub fn check_element(&self, x: &BigUint) -> Result<()> {
        if x.is_zero() || x.cmp_to(&self.p) != Ordering::Less {
            return Err(CryptoError::OutOfRange("element outside Z_p"));
        }
        if x.jacobi(&self.p)? != 1 {
            return Err(CryptoError::Malformed("element not in order-q subgroup"));
        }
        Ok(())
    }
}

/// A Schnorr signing keypair.
#[derive(Clone, Debug)]
pub struct KeyPair {
    /// Secret exponent `x ∈ [1, q)`.
    pub secret: BigUint,
    /// Public element `y = g^x`.
    pub public: BigUint,
}

impl KeyPair {
    /// Generates a keypair in `group`.
    pub fn generate<R: Rng + ?Sized>(group: &SchnorrGroup, rng: &mut R) -> Self {
        let secret = group.random_exponent(rng);
        let public = group.pow_g(&secret);
        KeyPair { secret, public }
    }
}

/// A Schnorr signature `(r, s)`: the commitment `r = g^k` travels with
/// the response, so verification is the group equation
/// `g^s = r · y^e` with `e = H(y, r, msg)`.
///
/// The commitment form (rather than the `(e, s)` hash form) is what
/// makes signatures *batchable*: a random linear combination of many
/// such equations is still one equation over known group elements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchnorrSignature {
    r: BigUint,
    s: BigUint,
}

/// The challenge `e = H(y, r, msg)` of the signature equation.
fn sig_challenge(group: &SchnorrGroup, y: &BigUint, r: &BigUint, msg: &[u8]) -> BigUint {
    let mut t = Transcript::new("prever-schnorr-sig");
    t.append_biguint("y", y);
    t.append_biguint("r", r);
    t.append_bytes("msg", msg);
    t.challenge_below("e", &group.q)
}

/// Signs `msg` under `key` in `group`.
pub fn sign<R: Rng + ?Sized>(
    group: &SchnorrGroup,
    key: &KeyPair,
    msg: &[u8],
    rng: &mut R,
) -> SchnorrSignature {
    let k = group.random_exponent(rng);
    let r = group.pow_g(&k);
    let e = sig_challenge(group, &key.public, &r, msg);
    // s = k + e·x mod q.
    let s = k.add(&e.mul_mod(&key.secret, &group.q).expect("q > 1")).rem(&group.q).expect("q > 1");
    SchnorrSignature { r, s }
}

/// Verifies a Schnorr signature on `msg` under public key `y`.
pub fn verify(
    group: &SchnorrGroup,
    y: &BigUint,
    msg: &[u8],
    sig: &SchnorrSignature,
) -> Result<()> {
    group.check_element(y)?;
    group.check_element(&sig.r)?;
    if sig.s.cmp_to(&group.q) != Ordering::Less {
        return Err(CryptoError::OutOfRange("signature scalar"));
    }
    let e = sig_challenge(group, y, &sig.r, msg);
    // g^s == r · y^e.
    let lhs = group.pow_g(&sig.s);
    let rhs = group.mul(&sig.r, &group.pow(y, &e));
    if lhs == rhs {
        Ok(())
    } else {
        Err(CryptoError::VerificationFailed("Schnorr signature"))
    }
}

/// One verification equation `g^s = t · y^e` prepared for the random-
/// linear-combination batch: both signatures and sigma proofs reduce
/// to this shape.
struct RlcItem<'a> {
    y: &'a BigUint,
    t: &'a BigUint,
    e: BigUint,
    s: &'a BigUint,
}

/// Draws the `n` 128-bit batch weights from a transcript that has
/// absorbed every item — an adversary committing to proofs cannot
/// steer weights they have not seen, and any post-hoc tweak to any
/// item reshuffles all of them.
fn rlc_weights(domain: &'static str, items: &[RlcItem<'_>]) -> Vec<BigUint> {
    let mut t = Transcript::new(domain);
    for it in items {
        t.append_biguint("y", it.y);
        t.append_biguint("t", it.t);
        t.append_biguint("e", &it.e);
        t.append_biguint("s", it.s);
    }
    items
        .iter()
        .map(|_| {
            // The weight bound is exactly 2^128, so the low 16 bytes of
            // one challenge digest are already uniform — no reduction
            // (and none of `challenge_below`'s extra squeezing) needed.
            let w = BigUint::from_bytes_be(&t.challenge_bytes("w").as_bytes()[..16]);
            // A zero weight would drop its item from the equation.
            if w.is_zero() {
                BigUint::one()
            } else {
                w
            }
        })
        .collect()
}

/// Checks the combined equation `g^(Σ wᵢsᵢ) = Π tᵢ^{wᵢ} · Π yᵢ^{wᵢeᵢ}`
/// for a sub-range of items. Soundness: all elements are in the prime-
/// order-q subgroup (checked by the caller), so a single invalid item
/// survives the random weights with probability ≤ 2⁻¹²⁸ + 1/q.
fn rlc_check(group: &SchnorrGroup, domain: &'static str, items: &[RlcItem<'_>]) -> Result<bool> {
    let weights = rlc_weights(domain, items);
    let q = &group.q;
    let mut s_sum = BigUint::zero();
    let mut bases: Vec<&BigUint> = Vec::with_capacity(2 * items.len());
    let mut exps: Vec<BigUint> = Vec::with_capacity(2 * items.len());
    for (it, w) in items.iter().zip(&weights) {
        s_sum = s_sum.add(&w.mul_mod(it.s, q)?).rem(q)?;
        bases.push(it.t);
        exps.push(w.clone());
        bases.push(it.y);
        exps.push(w.mul_mod(&it.e, q)?);
    }
    let lhs = group.fb_g.pow(&s_sum)?;
    let exp_refs: Vec<&BigUint> = exps.iter().collect();
    let rhs = group.multi_pow(&bases, &exp_refs)?;
    Ok(lhs == rhs)
}

/// Verifies each item's equation directly (no RLC) — the size-1 leaf
/// of the bisection.
fn direct_check(group: &SchnorrGroup, it: &RlcItem<'_>) -> Result<bool> {
    let lhs = group.fb_g.pow(it.s)?;
    let rhs = group.mul(it.t, &group.pow(it.y, &it.e));
    Ok(lhs == rhs)
}

/// Batch-verifies prepared equations; on failure, bisects to the first
/// offending index. Range/membership checks must already have passed.
fn rlc_verify(
    group: &SchnorrGroup,
    domain: &'static str,
    what: &'static str,
    items: &[RlcItem<'_>],
) -> Result<()> {
    if items.is_empty() {
        return Ok(());
    }
    prever_obs::counter!("crypto.batch_verify.size").add(items.len() as u64);
    if items.len() == 1 {
        return if direct_check(group, &items[0])? {
            Ok(())
        } else {
            Err(CryptoError::BatchItemInvalid { index: 0, what })
        };
    }
    if rlc_check(group, domain, items)? {
        return Ok(());
    }
    // Bisect: re-run the RLC on halves (fresh weights per sub-batch)
    // until a single offender remains. A batch can only fail its RLC
    // while both halves pass with negligible probability; the linear
    // sweep at the end covers even that.
    let mut lo = 0usize;
    let mut hi = items.len();
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let left_bad = !rlc_check(group, domain, &items[lo..mid])?;
        if left_bad {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    if !direct_check(group, &items[lo])? {
        return Err(CryptoError::BatchItemInvalid { index: lo, what });
    }
    for (i, it) in items.iter().enumerate() {
        if !direct_check(group, it)? {
            return Err(CryptoError::BatchItemInvalid { index: i, what });
        }
    }
    Err(CryptoError::VerificationFailed(what))
}

/// Batch-verifies Schnorr signatures `(yᵢ, msgᵢ, sigᵢ)` with one
/// random-linear-combination multi-exponentiation.
///
/// Accepts iff every signature verifies individually (up to the
/// 2⁻¹²⁸ RLC soundness slack); on failure the error carries the index
/// of the first invalid signature, isolated by bisection.
pub fn batch_verify(
    group: &SchnorrGroup,
    items: &[(&BigUint, &[u8], &SchnorrSignature)],
) -> Result<()> {
    for (i, (y, _, sig)) in items.iter().enumerate() {
        if sig.s.cmp_to(&group.q) != Ordering::Less {
            return Err(CryptoError::BatchItemInvalid { index: i, what: "signature scalar" });
        }
        if group.check_element(y).is_err() || group.check_element(&sig.r).is_err() {
            return Err(CryptoError::BatchItemInvalid { index: i, what: "group element" });
        }
    }
    let prepared: Vec<RlcItem<'_>> = items
        .iter()
        .map(|&(y, msg, sig)| RlcItem {
            y,
            t: &sig.r,
            e: sig_challenge(group, y, &sig.r, msg),
            s: &sig.s,
        })
        .collect();
    rlc_verify(group, "prever-schnorr-batch", "Schnorr signature", &prepared)
}

/// A Pedersen commitment `C = g^m · h^r` to value `m` with randomness `r`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Commitment(pub BigUint);

/// Commits to `m ∈ Z_q` with fresh randomness; returns `(C, r)`.
pub fn commit<R: Rng + ?Sized>(
    group: &SchnorrGroup,
    m: &BigUint,
    rng: &mut R,
) -> Result<(Commitment, BigUint)> {
    if m.cmp_to(&group.q) != Ordering::Less {
        return Err(CryptoError::OutOfRange("committed value >= q"));
    }
    let r = group.random_exponent(rng);
    Ok((commit_with(group, m, &r)?, r))
}

/// Commits with caller-chosen randomness.
pub fn commit_with(group: &SchnorrGroup, m: &BigUint, r: &BigUint) -> Result<Commitment> {
    if m.cmp_to(&group.q) != Ordering::Less {
        return Err(CryptoError::OutOfRange("committed value >= q"));
    }
    Ok(Commitment(group.pow_gh(m, r)))
}

/// Verifies an opening `(m, r)` of commitment `c`.
pub fn open(group: &SchnorrGroup, c: &Commitment, m: &BigUint, r: &BigUint) -> Result<()> {
    if commit_with(group, m, r)?.0 == c.0 {
        Ok(())
    } else {
        Err(CryptoError::VerificationFailed("commitment opening"))
    }
}

/// Homomorphic addition of commitments: `C1·C2` commits to `m1 + m2` with
/// randomness `r1 + r2`.
pub fn commitment_add(group: &SchnorrGroup, c1: &Commitment, c2: &Commitment) -> Commitment {
    Commitment(group.mul(&c1.0, &c2.0))
}

/// Non-interactive proof of knowledge of `x` with `y = g^x`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProofOfKnowledge {
    commitment: BigUint,
    response: BigUint,
}

impl ProofOfKnowledge {
    /// Proves knowledge of the secret in `key`, bound to `context`.
    pub fn prove<R: Rng + ?Sized>(
        group: &SchnorrGroup,
        key: &KeyPair,
        context: &[u8],
        rng: &mut R,
    ) -> Self {
        let k = group.random_exponent(rng);
        let t_val = group.pow_g(&k);
        let c = pok_challenge(group, &key.public, &t_val, context);
        let response = k
            .add(&c.mul_mod(&key.secret, &group.q).expect("q > 1"))
            .rem(&group.q)
            .expect("q > 1");
        ProofOfKnowledge { commitment: t_val, response }
    }

    /// Verifies the proof for public key `y` bound to `context`.
    pub fn verify(&self, group: &SchnorrGroup, y: &BigUint, context: &[u8]) -> Result<()> {
        group.check_element(y)?;
        group.check_element(&self.commitment)?;
        let c = pok_challenge(group, y, &self.commitment, context);
        // g^s == t · y^c.
        let lhs = group.pow_g(&self.response);
        let rhs = group.mul(&self.commitment, &group.pow(y, &c));
        if lhs == rhs {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed("proof of knowledge"))
        }
    }

    /// Batch-verifies proofs of knowledge `(yᵢ, contextᵢ, proofᵢ)` via
    /// the same random-linear-combination collapse as signature
    /// [`batch_verify`] — a PoK is the equation `g^s = t · y^c` with a
    /// transcript-derived challenge, exactly the batchable shape.
    ///
    /// Accepts iff every proof verifies individually; on failure the
    /// error pinpoints the first invalid proof by bisection.
    pub fn batch_verify(
        group: &SchnorrGroup,
        items: &[(&BigUint, &[u8], &ProofOfKnowledge)],
    ) -> Result<()> {
        for (i, (y, _, proof)) in items.iter().enumerate() {
            if proof.response.cmp_to(&group.q) != Ordering::Less {
                return Err(CryptoError::BatchItemInvalid { index: i, what: "proof scalar" });
            }
            if group.check_element(y).is_err() || group.check_element(&proof.commitment).is_err()
            {
                return Err(CryptoError::BatchItemInvalid { index: i, what: "group element" });
            }
        }
        let prepared: Vec<RlcItem<'_>> = items
            .iter()
            .map(|&(y, context, proof)| RlcItem {
                y,
                t: &proof.commitment,
                e: pok_challenge(group, y, &proof.commitment, context),
                s: &proof.response,
            })
            .collect();
        rlc_verify(group, "prever-pok-batch", "proof of knowledge", &prepared)
    }
}

fn pok_challenge(group: &SchnorrGroup, y: &BigUint, t_val: &BigUint, context: &[u8]) -> BigUint {
    let mut t = Transcript::new("prever-pok-dlog");
    t.append_biguint("y", y);
    t.append_biguint("t", t_val);
    t.append_bytes("ctx", context);
    t.challenge_below("c", &group.q)
}

/// Proof of knowledge of an opening `(m, r)` of a Pedersen commitment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpeningProof {
    t_val: BigUint,
    s_m: BigUint,
    s_r: BigUint,
}

impl OpeningProof {
    /// Proves knowledge of `(m, r)` opening `c`.
    pub fn prove<R: Rng + ?Sized>(
        group: &SchnorrGroup,
        c: &Commitment,
        m: &BigUint,
        r: &BigUint,
        context: &[u8],
        rng: &mut R,
    ) -> Self {
        let km = group.random_exponent(rng);
        let kr = group.random_exponent(rng);
        let t_val = group.mul(&group.pow_g(&km), &group.pow_h(&kr));
        let ch = opening_challenge(group, &c.0, &t_val, context);
        let s_m = km.add(&ch.mul_mod(m, &group.q).expect("q")).rem(&group.q).expect("q");
        let s_r = kr.add(&ch.mul_mod(r, &group.q).expect("q")).rem(&group.q).expect("q");
        OpeningProof { t_val, s_m, s_r }
    }

    /// Verifies the proof against commitment `c`.
    pub fn verify(&self, group: &SchnorrGroup, c: &Commitment, context: &[u8]) -> Result<()> {
        group.check_element(&c.0)?;
        let ch = opening_challenge(group, &c.0, &self.t_val, context);
        // g^{s_m} h^{s_r} == t · C^{ch}.
        let lhs = group.mul(&group.pow_g(&self.s_m), &group.pow_h(&self.s_r));
        let rhs = group.mul(&self.t_val, &group.pow(&c.0, &ch));
        if lhs == rhs {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed("opening proof"))
        }
    }
}

fn opening_challenge(group: &SchnorrGroup, c: &BigUint, t_val: &BigUint, context: &[u8]) -> BigUint {
    let mut t = Transcript::new("prever-pok-opening");
    t.append_biguint("c", c);
    t.append_biguint("t", t_val);
    t.append_bytes("ctx", context);
    t.challenge_below("c", &group.q)
}

/// Proof that two commitments hide the same value (possibly under
/// different randomness).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EqualityProof {
    t1: BigUint,
    t2: BigUint,
    s_m: BigUint,
    s_r1: BigUint,
    s_r2: BigUint,
}

impl EqualityProof {
    /// Proves `c1` and `c2` both commit to `m` (with randomness `r1`, `r2`).
    #[allow(clippy::too_many_arguments)]
    pub fn prove<R: Rng + ?Sized>(
        group: &SchnorrGroup,
        c1: &Commitment,
        c2: &Commitment,
        m: &BigUint,
        r1: &BigUint,
        r2: &BigUint,
        context: &[u8],
        rng: &mut R,
    ) -> Self {
        let km = group.random_exponent(rng);
        let kr1 = group.random_exponent(rng);
        let kr2 = group.random_exponent(rng);
        let t1 = group.mul(&group.pow_g(&km), &group.pow_h(&kr1));
        let t2 = group.mul(&group.pow_g(&km), &group.pow_h(&kr2));
        let ch = equality_challenge(group, &c1.0, &c2.0, &t1, &t2, context);
        let q = &group.q;
        let s_m = km.add(&ch.mul_mod(m, q).expect("q")).rem(q).expect("q");
        let s_r1 = kr1.add(&ch.mul_mod(r1, q).expect("q")).rem(q).expect("q");
        let s_r2 = kr2.add(&ch.mul_mod(r2, q).expect("q")).rem(q).expect("q");
        EqualityProof { t1, t2, s_m, s_r1, s_r2 }
    }

    /// Verifies the proof against the two commitments.
    pub fn verify(
        &self,
        group: &SchnorrGroup,
        c1: &Commitment,
        c2: &Commitment,
        context: &[u8],
    ) -> Result<()> {
        let ch = equality_challenge(group, &c1.0, &c2.0, &self.t1, &self.t2, context);
        let lhs1 = group.mul(&group.pow_g(&self.s_m), &group.pow_h(&self.s_r1));
        let rhs1 = group.mul(&self.t1, &group.pow(&c1.0, &ch));
        let lhs2 = group.mul(&group.pow_g(&self.s_m), &group.pow_h(&self.s_r2));
        let rhs2 = group.mul(&self.t2, &group.pow(&c2.0, &ch));
        if lhs1 == rhs1 && lhs2 == rhs2 {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed("equality proof"))
        }
    }
}

fn equality_challenge(
    group: &SchnorrGroup,
    c1: &BigUint,
    c2: &BigUint,
    t1: &BigUint,
    t2: &BigUint,
    context: &[u8],
) -> BigUint {
    let mut t = Transcript::new("prever-pok-equality");
    t.append_biguint("c1", c1);
    t.append_biguint("c2", c2);
    t.append_biguint("t1", t1);
    t.append_biguint("t2", t2);
    t.append_bytes("ctx", context);
    t.challenge_below("c", &group.q)
}

/// CDS OR-proof that a commitment hides a bit (0 or 1).
///
/// Statement: `C = h^r` (bit 0) OR `C·g^{-1} = h^r` (bit 1). The real
/// branch is proven honestly; the other is simulated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitProof {
    t0: BigUint,
    t1: BigUint,
    c0: BigUint,
    c1: BigUint,
    s0: BigUint,
    s1: BigUint,
}

impl BitProof {
    /// Proves that `c` commits to `bit` with randomness `r`.
    ///
    /// `c` must lie in the order-`q` subgroup (checked here, a Jacobi
    /// symbol): the simulated branch computes `Y⁻ᶜ` as `Y^(q−c)`, which
    /// is the inverse only where `Y^q = 1`.
    pub fn prove<R: Rng + ?Sized>(
        group: &SchnorrGroup,
        c: &Commitment,
        bit: bool,
        r: &BigUint,
        context: &[u8],
        rng: &mut R,
    ) -> Result<Self> {
        group.check_element(&c.0)?;
        let q = &group.q;
        // Statement bases: Y0 = C, Y1 = C / g; real witness satisfies
        // Y_real = h^r.
        let y_sim = if bit { c.0.clone() } else { group.mul(&c.0, &group.g_inv) };
        // Simulated branch.
        let c_sim = group.random_exponent(rng);
        let s_sim = group.random_exponent(rng);
        // Real branch nonce.
        let k = group.random_exponent(rng);
        let t_real = group.pow_h(&k);
        // t_sim = h^{s_sim} · Y_sim^{-c_sim}, with c_sim ∈ [1, q).
        let t_sim = group.mul(&group.pow_h(&s_sim), &group.pow(&y_sim, &q.sub(&c_sim)));
        let (t0, t1) = if bit { (t_sim, t_real) } else { (t_real, t_sim) };
        let ch = bit_challenge(group, &c.0, &t0, &t1, context);
        // c_real = ch − c_sim mod q.
        let c_real = ch.sub_mod(&c_sim, q)?;
        let s_real = k.add(&c_real.mul_mod(r, q)?).rem(q)?;
        let (c0, c1, s0, s1) = if bit {
            (c_sim, c_real, s_sim, s_real)
        } else {
            (c_real, c_sim, s_real, s_sim)
        };
        Ok(BitProof { t0, t1, c0, c1, s0, s1 })
    }

    /// Verifies the bit proof against commitment `c`.
    pub fn verify(&self, group: &SchnorrGroup, c: &Commitment, context: &[u8]) -> Result<()> {
        let q = &group.q;
        let ch = bit_challenge(group, &c.0, &self.t0, &self.t1, context);
        if self.c0.add(&self.c1).rem(q)? != ch {
            return Err(CryptoError::VerificationFailed("bit proof: challenge split"));
        }
        let y1 = group.mul(&c.0, &group.g_inv);
        // h^{s0} == t0 · Y0^{c0}  and  h^{s1} == t1 · Y1^{c1}.
        let ok0 = group.pow_h(&self.s0) == group.mul(&self.t0, &group.pow(&c.0, &self.c0));
        let ok1 = group.pow_h(&self.s1) == group.mul(&self.t1, &group.pow(&y1, &self.c1));
        if ok0 && ok1 {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed("bit proof"))
        }
    }
}

fn bit_challenge(
    group: &SchnorrGroup,
    c: &BigUint,
    t0: &BigUint,
    t1: &BigUint,
    context: &[u8],
) -> BigUint {
    let mut t = Transcript::new("prever-bit-proof");
    t.append_biguint("c", c);
    t.append_biguint("t0", t0);
    t.append_biguint("t1", t1);
    t.append_bytes("ctx", context);
    t.challenge_below("c", &group.q)
}

/// Range proof: a commitment hides a value in `[0, 2^k)`.
///
/// Bit-decomposition construction: commitments to each bit, a [`BitProof`]
/// per bit, and the algebraic identity `C == Π C_i^{2^i}` enforced by
/// choosing the bit randomness to sum (2^i-weighted) to the outer
/// randomness. This is what lets a worker prove "my committed weekly hours
/// are below 2^6" without revealing them (the FLSA check in §5, made
/// private).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeProof {
    bit_commitments: Vec<Commitment>,
    bit_proofs: Vec<BitProof>,
}

impl RangeProof {
    /// Proves `c = g^m h^r` with `m < 2^k`. Returns an error if `m` is out
    /// of range (a prover bug, not an adversarial case).
    pub fn prove<R: Rng + ?Sized>(
        group: &SchnorrGroup,
        c: &Commitment,
        m: &BigUint,
        r: &BigUint,
        k: usize,
        context: &[u8],
        rng: &mut R,
    ) -> Result<Self> {
        if m.bits() > k {
            return Err(CryptoError::OutOfRange("value exceeds range bound"));
        }
        // Guard against prover bugs: (m, r) must actually open c.
        open(group, c, m, r)?;
        let q = &group.q;
        // Choose randomness for bits 1..k freely; solve for bit 0 so that
        // Σ 2^i r_i = r (mod q).
        let mut rs = vec![BigUint::zero(); k];
        let mut weighted_sum = BigUint::zero();
        for (i, ri) in rs.iter_mut().enumerate().skip(1) {
            *ri = group.random_exponent(rng);
            let w = BigUint::one().shl(i).rem(q)?;
            weighted_sum = weighted_sum.add(&w.mul_mod(ri, q)?).rem(q)?;
        }
        rs[0] = r.rem(q)?.sub_mod(&weighted_sum, q)?;
        let mut bit_commitments = Vec::with_capacity(k);
        let mut bit_proofs = Vec::with_capacity(k);
        for (i, ri) in rs.iter().enumerate() {
            let bit = m.bit(i);
            let mi = if bit { BigUint::one() } else { BigUint::zero() };
            let ci = commit_with(group, &mi, ri)?;
            let proof = BitProof::prove(group, &ci, bit, ri, context, rng)?;
            bit_commitments.push(ci);
            bit_proofs.push(proof);
        }
        Ok(RangeProof { bit_commitments, bit_proofs })
    }

    /// Verifies the proof against commitment `c` and range `[0, 2^k)`.
    pub fn verify(
        &self,
        group: &SchnorrGroup,
        c: &Commitment,
        k: usize,
        context: &[u8],
    ) -> Result<()> {
        if self.bit_commitments.len() != k || self.bit_proofs.len() != k {
            return Err(CryptoError::Malformed("range proof arity"));
        }
        // Each bit commitment hides 0 or 1.
        for (ci, pi) in self.bit_commitments.iter().zip(&self.bit_proofs) {
            pi.verify(group, ci, context)?;
        }
        // Π C_i^{2^i} == C.
        let mut acc = BigUint::one();
        for (i, ci) in self.bit_commitments.iter().enumerate() {
            let w = BigUint::one().shl(i);
            acc = group.mul(&acc, &group.pow(&ci.0, &w));
        }
        if acc == c.0 {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed("range proof: recomposition"))
        }
    }

    /// Proof size in group/scalar elements (for the E6-style reporting).
    pub fn size_elements(&self) -> usize {
        self.bit_commitments.len() + self.bit_proofs.len() * 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn group() -> SchnorrGroup {
        SchnorrGroup::test_group_256()
    }

    #[test]
    fn test_group_is_well_formed() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = group();
        assert!(g.p.is_probable_prime(20, &mut rng), "p must be prime");
        assert!(g.q.is_probable_prime(20, &mut rng), "q must be prime");
        assert_eq!(g.q.shl(1).add(&BigUint::one()), g.p);
        g.check_element(&g.g).unwrap();
        g.check_element(&g.h).unwrap();
        assert!(!g.g.is_one());
        assert!(!g.h.is_one());
        assert_ne!(g.g, g.h);
    }

    #[test]
    fn rfc2409_group_is_well_formed() {
        let g = SchnorrGroup::rfc2409_1024();
        assert_eq!(g.p.bits(), 1024);
        g.check_element(&g.g).unwrap();
        g.check_element(&g.h).unwrap();
    }

    #[test]
    fn sign_verify_roundtrip() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(1);
        let key = KeyPair::generate(&g, &mut rng);
        let sig = sign(&g, &key, b"checkpoint digest", &mut rng);
        verify(&g, &key.public, b"checkpoint digest", &sig).unwrap();
        assert!(verify(&g, &key.public, b"other message", &sig).is_err());
    }

    #[test]
    fn signature_rejects_wrong_key() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(2);
        let k1 = KeyPair::generate(&g, &mut rng);
        let k2 = KeyPair::generate(&g, &mut rng);
        let sig = sign(&g, &k1, b"msg", &mut rng);
        assert!(verify(&g, &k2.public, b"msg", &sig).is_err());
    }

    #[test]
    fn batch_verify_accepts_valid_batches() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(40);
        for n in [0usize, 1, 2, 3, 17] {
            let sigs: Vec<(KeyPair, Vec<u8>, SchnorrSignature)> = (0..n)
                .map(|i| {
                    let key = KeyPair::generate(&g, &mut rng);
                    let msg = format!("digest-{i}").into_bytes();
                    let sig = sign(&g, &key, &msg, &mut rng);
                    (key, msg, sig)
                })
                .collect();
            let items: Vec<(&BigUint, &[u8], &SchnorrSignature)> = sigs
                .iter()
                .map(|(k, m, s)| (&k.public, m.as_slice(), s))
                .collect();
            batch_verify(&g, &items).unwrap();
        }
    }

    #[test]
    fn batch_verify_does_a_third_of_the_sequential_multiplications() {
        // Counted rather than timed. At n = 64 the RLC collapse does
        // 6 425 Montgomery multiplications against 24 322 for 64
        // `verify` calls; the Jacobi checks and challenge hashes both
        // paths pay do none.
        use crate::montgomery::count_muls;
        let g = group();
        let mut rng = StdRng::seed_from_u64(45);
        let sigs: Vec<(KeyPair, Vec<u8>, SchnorrSignature)> = (0..64)
            .map(|i| {
                let key = KeyPair::generate(&g, &mut rng);
                let msg = format!("digest-{i}").into_bytes();
                let sig = sign(&g, &key, &msg, &mut rng);
                (key, msg, sig)
            })
            .collect();
        let items: Vec<(&BigUint, &[u8], &SchnorrSignature)> = sigs
            .iter()
            .map(|(k, m, s)| (&k.public, m.as_slice(), s))
            .collect();
        let (_, batched) = count_muls(|| batch_verify(&g, &items).unwrap());
        let (_, sequential) = count_muls(|| {
            for (y, m, s) in &items {
                verify(&g, y, m, s).unwrap();
            }
        });
        assert!(
            3 * batched <= sequential,
            "batch_verify: {batched} multiplications vs {sequential} sequential"
        );
    }

    #[test]
    fn batch_verify_pinpoints_tampered_signature() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(41);
        let n = 9;
        let mut sigs: Vec<(KeyPair, Vec<u8>, SchnorrSignature)> = (0..n)
            .map(|i| {
                let key = KeyPair::generate(&g, &mut rng);
                let msg = format!("digest-{i}").into_bytes();
                let sig = sign(&g, &key, &msg, &mut rng);
                (key, msg, sig)
            })
            .collect();
        // Tamper with the response scalar of item 5.
        let bad = 5usize;
        sigs[bad].2.s = sigs[bad].2.s.add(&BigUint::one()).rem(&g.q).unwrap();
        let items: Vec<(&BigUint, &[u8], &SchnorrSignature)> = sigs
            .iter()
            .map(|(k, m, s)| (&k.public, m.as_slice(), s))
            .collect();
        match batch_verify(&g, &items) {
            Err(CryptoError::BatchItemInvalid { index, .. }) => assert_eq!(index, bad),
            other => panic!("expected BatchItemInvalid, got {other:?}"),
        }
    }

    #[test]
    fn batch_verify_rejects_out_of_subgroup_commitment() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(42);
        let key = KeyPair::generate(&g, &mut rng);
        let mut sig = sign(&g, &key, b"msg", &mut rng);
        // A quadratic non-residue is outside the order-q subgroup; a
        // batch that skipped membership checks would have soundness
        // error 1/2 against it.
        let mut x = BigUint::from_u64(2);
        while x.jacobi(&g.p).unwrap() == 1 {
            x = x.add(&BigUint::one());
        }
        sig.r = x;
        let items: Vec<(&BigUint, &[u8], &SchnorrSignature)> =
            vec![(&key.public, b"msg".as_slice(), &sig)];
        match batch_verify(&g, &items) {
            Err(CryptoError::BatchItemInvalid { index: 0, what }) => {
                assert_eq!(what, "group element")
            }
            other => panic!("expected group-element rejection, got {other:?}"),
        }
    }

    #[test]
    fn batch_weights_are_transcript_bound() {
        // Cancellation attack: shift two responses by ±δ. Under any
        // *attacker-known equal* weights (w, w) the combined equation
        // still balances — w(s₀+δ) + w(s₁−δ) = w·s₀ + w·s₁ — so a
        // verifier with fixed or predictable weights accepts two
        // individually-invalid signatures. Transcript-derived 128-bit
        // weights make the collision probability 2⁻¹²⁸.
        let g = group();
        let mut rng = StdRng::seed_from_u64(43);
        let k0 = KeyPair::generate(&g, &mut rng);
        let k1 = KeyPair::generate(&g, &mut rng);
        let s0 = sign(&g, &k0, b"m0", &mut rng);
        let s1 = sign(&g, &k1, b"m1", &mut rng);
        let delta = BigUint::from_u64(12345);
        let mut f0 = s0.clone();
        let mut f1 = s1.clone();
        f0.s = f0.s.add(&delta).rem(&g.q).unwrap();
        f1.s = f1.s.sub_mod(&delta, &g.q).unwrap();
        // Both forgeries are individually invalid…
        assert!(verify(&g, &k0.public, b"m0", &f0).is_err());
        assert!(verify(&g, &k1.public, b"m1", &f1).is_err());
        // …and the naive equal-weight combination *does* balance,
        // which is exactly what the attack exploits:
        let e0 = sig_challenge(&g, &k0.public, &f0.r, b"m0");
        let e1 = sig_challenge(&g, &k1.public, &f1.r, b"m1");
        let s_sum = f0.s.add(&f1.s).rem(&g.q).unwrap();
        let lhs = g.pow_g(&s_sum);
        let rhs = g.mul(
            &g.mul(&f0.r, &g.pow(&k0.public, &e0)),
            &g.mul(&f1.r, &g.pow(&k1.public, &e1)),
        );
        assert_eq!(lhs, rhs, "equal-weight combination must balance (attack setup)");
        // The transcript-weighted batch still rejects, and isolates
        // the first forged index.
        let items: Vec<(&BigUint, &[u8], &SchnorrSignature)> = vec![
            (&k0.public, b"m0".as_slice(), &f0),
            (&k1.public, b"m1".as_slice(), &f1),
        ];
        match batch_verify(&g, &items) {
            Err(CryptoError::BatchItemInvalid { index: 0, .. }) => {}
            other => panic!("expected rejection at index 0, got {other:?}"),
        }
    }

    #[test]
    fn pok_batch_verify_roundtrip_and_pinpoint() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(44);
        let proofs: Vec<(KeyPair, Vec<u8>, ProofOfKnowledge)> = (0..6)
            .map(|i| {
                let key = KeyPair::generate(&g, &mut rng);
                let ctx = format!("ctx-{i}").into_bytes();
                let proof = ProofOfKnowledge::prove(&g, &key, &ctx, &mut rng);
                (key, ctx, proof)
            })
            .collect();
        let items: Vec<(&BigUint, &[u8], &ProofOfKnowledge)> = proofs
            .iter()
            .map(|(k, c, p)| (&k.public, c.as_slice(), p))
            .collect();
        ProofOfKnowledge::batch_verify(&g, &items).unwrap();
        // A context mismatch on item 3 is caught and attributed.
        let mut items = items;
        items[3].1 = b"wrong-context";
        match ProofOfKnowledge::batch_verify(&g, &items) {
            Err(CryptoError::BatchItemInvalid { index, .. }) => assert_eq!(index, 3),
            other => panic!("expected BatchItemInvalid, got {other:?}"),
        }
    }

    #[test]
    fn commitment_roundtrip_and_hiding() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(3);
        let m = BigUint::from_u64(40);
        let (c1, r1) = commit(&g, &m, &mut rng).unwrap();
        let (c2, _r2) = commit(&g, &m, &mut rng).unwrap();
        assert_ne!(c1, c2, "commitments must be hiding (probabilistic)");
        open(&g, &c1, &m, &r1).unwrap();
        assert!(open(&g, &c1, &BigUint::from_u64(41), &r1).is_err());
    }

    #[test]
    fn commitment_is_additively_homomorphic() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(4);
        let (c1, r1) = commit(&g, &BigUint::from_u64(30), &mut rng).unwrap();
        let (c2, r2) = commit(&g, &BigUint::from_u64(12), &mut rng).unwrap();
        let csum = commitment_add(&g, &c1, &c2);
        let rsum = r1.add(&r2).rem(&g.q).unwrap();
        open(&g, &csum, &BigUint::from_u64(42), &rsum).unwrap();
    }

    #[test]
    fn pok_roundtrip() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(5);
        let key = KeyPair::generate(&g, &mut rng);
        let proof = ProofOfKnowledge::prove(&g, &key, b"ctx", &mut rng);
        proof.verify(&g, &key.public, b"ctx").unwrap();
        assert!(proof.verify(&g, &key.public, b"other-ctx").is_err());
        let other = KeyPair::generate(&g, &mut rng);
        assert!(proof.verify(&g, &other.public, b"ctx").is_err());
    }

    #[test]
    fn opening_proof_roundtrip() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(6);
        let m = BigUint::from_u64(7);
        let (c, r) = commit(&g, &m, &mut rng).unwrap();
        let proof = OpeningProof::prove(&g, &c, &m, &r, b"ctx", &mut rng);
        proof.verify(&g, &c, b"ctx").unwrap();
        let (c2, _) = commit(&g, &m, &mut rng).unwrap();
        assert!(proof.verify(&g, &c2, b"ctx").is_err());
    }

    #[test]
    fn equality_proof_roundtrip() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(7);
        let m = BigUint::from_u64(123);
        let (c1, r1) = commit(&g, &m, &mut rng).unwrap();
        let (c2, r2) = commit(&g, &m, &mut rng).unwrap();
        let proof = EqualityProof::prove(&g, &c1, &c2, &m, &r1, &r2, b"ctx", &mut rng);
        proof.verify(&g, &c1, &c2, b"ctx").unwrap();
        // Unequal values must not verify.
        let (c3, _r3) = commit(&g, &BigUint::from_u64(124), &mut rng).unwrap();
        assert!(proof.verify(&g, &c1, &c3, b"ctx").is_err());
    }

    #[test]
    fn bit_proof_zero_and_one() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(8);
        for bit in [false, true] {
            let m = if bit { BigUint::one() } else { BigUint::zero() };
            let (c, r) = commit(&g, &m, &mut rng).unwrap();
            let proof = BitProof::prove(&g, &c, bit, &r, b"ctx", &mut rng).unwrap();
            proof.verify(&g, &c, b"ctx").unwrap();
        }
    }

    /// `BitProof::prove` as it was before the simulated branch stopped
    /// inverting: `t_sim = h^s · inv(Y^c)`, `Y1 = C · inv(g)`.
    fn bit_prove_by_inversion(
        group: &SchnorrGroup,
        c: &Commitment,
        bit: bool,
        r: &BigUint,
        context: &[u8],
        rng: &mut StdRng,
    ) -> BitProof {
        let q = &group.q;
        let y0 = c.0.clone();
        let y1 = group.mul(&c.0, &group.inv(&group.g).unwrap());
        let c_sim = group.random_exponent(rng);
        let s_sim = group.random_exponent(rng);
        let k = group.random_exponent(rng);
        let t_real = group.pow_h(&k);
        let y_sim = if bit { y0 } else { y1 };
        let t_sim = group.mul(
            &group.pow_h(&s_sim),
            &group.inv(&group.pow(&y_sim, &c_sim)).unwrap(),
        );
        let (t0, t1) = if bit { (t_sim, t_real) } else { (t_real, t_sim) };
        let ch = bit_challenge(group, &c.0, &t0, &t1, context);
        let c_real = ch.sub_mod(&c_sim, q).unwrap();
        let s_real = k.add(&c_real.mul_mod(r, q).unwrap()).rem(q).unwrap();
        let (c0, c1, s0, s1) = if bit {
            (c_sim, c_real, s_sim, s_real)
        } else {
            (c_real, c_sim, s_real, s_sim)
        };
        BitProof { t0, t1, c0, c1, s0, s1 }
    }

    /// `BitProof::verify` with `Y1 = C · inv(g)` recomputed by inversion.
    fn bit_verify_by_inversion(
        proof: &BitProof,
        group: &SchnorrGroup,
        c: &Commitment,
        context: &[u8],
    ) -> bool {
        let ch = bit_challenge(group, &c.0, &proof.t0, &proof.t1, context);
        let y1 = group.mul(&c.0, &group.inv(&group.g).unwrap());
        proof.c0.add(&proof.c1).rem(&group.q).unwrap() == ch
            && group.pow_h(&proof.s0) == group.mul(&proof.t0, &group.pow(&c.0, &proof.c0))
            && group.pow_h(&proof.s1) == group.mul(&proof.t1, &group.pow(&y1, &proof.c1))
    }

    #[test]
    fn bit_proof_without_inversion_is_the_same_proof() {
        // Exponentiating by q − c inside the order-q subgroup is the
        // inversion: for one rng stream the two provers emit the same
        // proof, and each verifier accepts what the other's prover made
        // and rejects a proof for another commitment.
        let g = group();
        for (seed, bit) in [(80u64, false), (81, true), (82, false), (83, true)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = if bit { BigUint::one() } else { BigUint::zero() };
            let (c, r) = commit(&g, &m, &mut rng).unwrap();
            let (other, _) = commit(&g, &m, &mut rng).unwrap();
            let new = BitProof::prove(&g, &c, bit, &r, b"ctx", &mut rng.clone()).unwrap();
            let old = bit_prove_by_inversion(&g, &c, bit, &r, b"ctx", &mut rng);
            assert_eq!(new, old);
            old.verify(&g, &c, b"ctx").unwrap();
            assert!(bit_verify_by_inversion(&new, &g, &c, b"ctx"));
            assert!(old.verify(&g, &other, b"ctx").is_err());
            assert!(!bit_verify_by_inversion(&new, &g, &other, b"ctx"));
        }
    }

    #[test]
    fn bit_proof_refuses_commitment_outside_subgroup() {
        // Y^(q−c) inverts Y^c only where Y^q = 1, so the prover checks
        // membership itself instead of trusting its caller.
        let g = group();
        let mut rng = StdRng::seed_from_u64(84);
        let mut x = BigUint::from_u64(2);
        while x.jacobi(&g.p).unwrap() == 1 {
            x = x.add(&BigUint::one());
        }
        let r = g.random_exponent(&mut rng);
        assert!(BitProof::prove(&g, &Commitment(x), false, &r, b"ctx", &mut rng).is_err());
    }

    #[test]
    fn bit_proof_rejects_non_bit() {
        // A commitment to 2 admits no valid bit proof; a dishonest prover
        // who runs the honest prover code with bit=false produces a proof
        // that fails.
        let g = group();
        let mut rng = StdRng::seed_from_u64(9);
        let (c, r) = commit(&g, &BigUint::from_u64(2), &mut rng).unwrap();
        let forged = BitProof::prove(&g, &c, false, &r, b"ctx", &mut rng).unwrap();
        assert!(forged.verify(&g, &c, b"ctx").is_err());
        let forged = BitProof::prove(&g, &c, true, &r, b"ctx", &mut rng).unwrap();
        assert!(forged.verify(&g, &c, b"ctx").is_err());
    }

    #[test]
    fn range_proof_roundtrip() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(10);
        // FLSA: hours ∈ [0, 64) with k = 6 bits.
        for hours in [0u64, 1, 39, 40, 63] {
            let m = BigUint::from_u64(hours);
            let (c, r) = commit(&g, &m, &mut rng).unwrap();
            let proof = RangeProof::prove(&g, &c, &m, &r, 6, b"flsa", &mut rng).unwrap();
            proof.verify(&g, &c, 6, b"flsa").unwrap();
        }
    }

    #[test]
    fn range_proof_rejects_out_of_range_value() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(11);
        let m = BigUint::from_u64(64);
        let (c, r) = commit(&g, &m, &mut rng).unwrap();
        // Honest prover refuses.
        assert!(RangeProof::prove(&g, &c, &m, &r, 6, b"flsa", &mut rng).is_err());
    }

    #[test]
    fn range_proof_rejects_wrong_commitment() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(12);
        let m = BigUint::from_u64(10);
        let (c, r) = commit(&g, &m, &mut rng).unwrap();
        let proof = RangeProof::prove(&g, &c, &m, &r, 6, b"ctx", &mut rng).unwrap();
        let (c2, _) = commit(&g, &m, &mut rng).unwrap();
        assert!(proof.verify(&g, &c2, 6, b"ctx").is_err());
    }

    #[test]
    fn range_proof_rejects_wrong_arity() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(13);
        let m = BigUint::from_u64(10);
        let (c, r) = commit(&g, &m, &mut rng).unwrap();
        let proof = RangeProof::prove(&g, &c, &m, &r, 6, b"ctx", &mut rng).unwrap();
        assert!(proof.verify(&g, &c, 7, b"ctx").is_err());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        fn shared_group() -> &'static SchnorrGroup {
            static GROUP: OnceLock<SchnorrGroup> = OnceLock::new();
            GROUP.get_or_init(SchnorrGroup::test_group_256)
        }

        /// The ways a single batch item can go bad.
        #[derive(Debug, Clone, Copy)]
        enum Tamper {
            /// Response scalar shifted by a nonzero δ.
            ShiftResponse,
            /// Commitment replaced by an unrelated group element.
            SwapCommitment,
            /// Signature presented against a different message.
            SwapMessage,
            /// Signature presented under a different public key.
            SwapKey,
        }

        fn arb_tamper() -> impl Strategy<Value = Tamper> {
            prop_oneof![
                Just(Tamper::ShiftResponse),
                Just(Tamper::SwapCommitment),
                Just(Tamper::SwapMessage),
                Just(Tamper::SwapKey),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            // batch_verify accepts exactly when every signature
            // verifies individually — tampered subsets of any shape
            // flip both answers together.
            #[test]
            fn prop_batch_accepts_iff_each_verifies(
                seed in any::<u64>(),
                n in 1usize..8,
                bad_mask in any::<u8>(),
            ) {
                let g = shared_group();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut sigs: Vec<(KeyPair, Vec<u8>, SchnorrSignature)> = (0..n)
                    .map(|i| {
                        let key = KeyPair::generate(g, &mut rng);
                        let msg = format!("m{i}").into_bytes();
                        let sig = sign(g, &key, &msg, &mut rng);
                        (key, msg, sig)
                    })
                    .collect();
                for (i, entry) in sigs.iter_mut().enumerate() {
                    if bad_mask & (1 << i) != 0 {
                        entry.2.s = entry.2.s.add(&BigUint::from_u64(7)).rem(&g.q).unwrap();
                    }
                }
                let items: Vec<(&BigUint, &[u8], &SchnorrSignature)> = sigs
                    .iter()
                    .map(|(k, m, s)| (&k.public, m.as_slice(), s))
                    .collect();
                let each_ok = items.iter().all(|(y, m, s)| verify(g, y, m, s).is_ok());
                let batch = batch_verify(g, &items);
                prop_assert_eq!(each_ok, batch.is_ok());
                if let Err(CryptoError::BatchItemInvalid { index, .. }) = batch {
                    // The attributed index really is the first bad one.
                    let first_bad = (0..n).find(|i| bad_mask & (1 << i) != 0).unwrap();
                    prop_assert_eq!(index, first_bad);
                }
            }

            // A single corrupted item — whatever the corruption — is
            // rejected and attributed to its exact index.
            #[test]
            fn prop_batch_pinpoints_single_corruption(
                seed in any::<u64>(),
                n in 1usize..8,
                bad_offset in any::<usize>(),
                tamper in arb_tamper(),
            ) {
                let g = shared_group();
                let bad = bad_offset % n;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut sigs: Vec<(KeyPair, Vec<u8>, SchnorrSignature)> = (0..n)
                    .map(|i| {
                        let key = KeyPair::generate(g, &mut rng);
                        let msg = format!("m{i}").into_bytes();
                        let sig = sign(g, &key, &msg, &mut rng);
                        (key, msg, sig)
                    })
                    .collect();
                match tamper {
                    Tamper::ShiftResponse => {
                        sigs[bad].2.s =
                            sigs[bad].2.s.add(&BigUint::from_u64(3)).rem(&g.q).unwrap();
                    }
                    Tamper::SwapCommitment => {
                        sigs[bad].2.r = g.pow_g(&BigUint::from_u64(99));
                    }
                    Tamper::SwapMessage => {
                        sigs[bad].1 = b"substituted".to_vec();
                    }
                    Tamper::SwapKey => {
                        let other = KeyPair::generate(g, &mut rng);
                        sigs[bad].0 = other;
                    }
                }
                let items: Vec<(&BigUint, &[u8], &SchnorrSignature)> = sigs
                    .iter()
                    .map(|(k, m, s)| (&k.public, m.as_slice(), s))
                    .collect();
                match batch_verify(g, &items) {
                    Err(CryptoError::BatchItemInvalid { index, .. }) => {
                        prop_assert_eq!(index, bad)
                    }
                    other => prop_assert!(false, "expected BatchItemInvalid, got {:?}", other),
                }
            }

            // PoK batches obey the same accept-iff-all-valid contract.
            #[test]
            fn prop_pok_batch_accepts_iff_each_verifies(
                seed in any::<u64>(),
                n in 1usize..6,
                bad_mask in any::<u8>(),
            ) {
                let g = shared_group();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut proofs: Vec<(KeyPair, Vec<u8>, ProofOfKnowledge)> = (0..n)
                    .map(|i| {
                        let key = KeyPair::generate(g, &mut rng);
                        let ctx = format!("c{i}").into_bytes();
                        let proof = ProofOfKnowledge::prove(g, &key, &ctx, &mut rng);
                        (key, ctx, proof)
                    })
                    .collect();
                for (i, entry) in proofs.iter_mut().enumerate() {
                    if bad_mask & (1 << i) != 0 {
                        entry.1 = format!("corrupted-{i}").into_bytes();
                    }
                }
                let items: Vec<(&BigUint, &[u8], &ProofOfKnowledge)> = proofs
                    .iter()
                    .map(|(k, c, p)| (&k.public, c.as_slice(), p))
                    .collect();
                let each_ok = items
                    .iter()
                    .all(|(y, c, p)| p.verify(g, y, c).is_ok());
                prop_assert_eq!(each_ok, ProofOfKnowledge::batch_verify(g, &items).is_ok());
            }
        }
    }
}
