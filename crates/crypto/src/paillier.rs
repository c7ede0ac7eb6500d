//! Paillier additively homomorphic encryption.
//!
//! PReVer's Research Challenge 1 proposes fully homomorphic encryption so
//! an *untrusted data manager* can verify updates against constraints over
//! data it cannot read. The constraints PReVer and its Separ instantiation
//! actually evaluate are linear-arithmetic bounds (SUM/COUNT vs threshold),
//! for which additive homomorphism suffices; Paillier therefore exercises
//! the same architectural path (encrypted state, homomorphic accumulation,
//! owner-side decryption/threshold check) at realistic cost. See DESIGN.md
//! for the substitution argument.
//!
//! Scheme (Paillier 1999): `n = p·q`, ciphertext `c = g^m · r^n mod n²`
//! with `g = n + 1`, decryption via the Carmichael function `λ`.

use crate::bignum::BigUint;
use crate::fixed_base::FixedBaseTable;
use crate::montgomery::MontgomeryCtx;
use crate::{CryptoError, Result};
use rand::Rng;

/// Paillier public key.
///
/// Carries a cached [`MontgomeryCtx`] for `n²` so every encryption and
/// homomorphic operation reuses the same precomputed reduction state
/// instead of paying a division per multiplication, plus a fixed-base
/// comb for the precomputed randomizer base `h_n` (see
/// [`PublicKey::encrypt`]) that turns the `r^n` term — the entire cost
/// of an encryption — into a short fixed-base exponentiation.
#[derive(Clone, Debug)]
pub struct PublicKey {
    /// Modulus `n = p·q`.
    pub n: BigUint,
    n_squared: BigUint,
    mont_n2: MontgomeryCtx,
    /// Comb table for `h_n = x^n mod n²` with `x` derived from `n` by
    /// full-domain hashing — the amortized randomizer base.
    fb_hn: FixedBaseTable,
    /// Bit width of the short randomizer exponent `a`.
    rand_bits: usize,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        // n determines n² and the Montgomery precomputation.
        self.n == other.n
    }
}

impl Eq for PublicKey {}

/// Precomputed CRT state for decryption over `p` and `q` separately.
///
/// Working mod `p²` and `q²` (half-width moduli) and recombining with
/// Garner's formula is ~4x cheaper than a single `λ`-exponentiation
/// mod `n²`; the result is identical because decryption is unique.
#[derive(Clone, Debug)]
struct CrtContext {
    /// Prime factor `p` of `n`.
    p: BigUint,
    /// Prime factor `q` of `n`.
    q: BigUint,
    /// Montgomery state for `p²`.
    mont_p2: MontgomeryCtx,
    /// Montgomery state for `q²`.
    mont_q2: MontgomeryCtx,
    /// `h_p = L_p((n+1)^{p−1} mod p²)^{−1} mod p`.
    h_p: BigUint,
    /// `h_q = L_q((n+1)^{q−1} mod q²)^{−1} mod q`.
    h_q: BigUint,
    /// `p^{−1} mod q`, for Garner recombination.
    p_inv_q: BigUint,
}

/// Paillier private key.
#[derive(Clone, Debug)]
pub struct PrivateKey {
    /// The public part.
    pub public: PublicKey,
    /// `λ = lcm(p−1, q−1)`.
    lambda: BigUint,
    /// `μ = (L(g^λ mod n²))^−1 mod n`.
    mu: BigUint,
    /// CRT decryption state.
    crt: CrtContext,
}

/// A Paillier ciphertext (value in `Z*_{n²}`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ciphertext(BigUint);

impl Ciphertext {
    /// The raw group element (for serialization).
    pub fn as_biguint(&self) -> &BigUint {
        &self.0
    }

    /// Reconstructs a ciphertext from its raw value under `pk`.
    pub fn from_biguint(pk: &PublicKey, v: BigUint) -> Result<Self> {
        if v.is_zero() || v.cmp_to(&pk.n_squared) != std::cmp::Ordering::Less {
            return Err(CryptoError::OutOfRange("ciphertext outside Z_{n^2}"));
        }
        Ok(Ciphertext(v))
    }
}

/// Generates a Paillier keypair with `bits`-bit primes (modulus `2·bits`).
///
/// Demo-scale sizes (256-bit primes) keep the benchmarks responsive; a
/// production deployment would use ≥ 1536-bit primes.
pub fn keygen<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> PrivateKey {
    let _span = prever_obs::span!("paillier.keygen");
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
        // λ = lcm(p-1, q-1) = (p-1)(q-1)/gcd(p-1, q-1).
        let g = p1.gcd(&q1);
        let lambda = p1.mul(&q1).div_rem(&g).expect("gcd nonzero").0;
        let n_squared = n.mul(&n);
        let mont_n2 = match MontgomeryCtx::new(&n_squared) {
            Ok(ctx) => ctx, // n = p·q is odd for any odd primes, so n² is odd
            Err(_) => continue,
        };
        // g = n + 1 makes L(g^λ mod n²) = λ mod n, so μ = λ^{-1} mod n.
        let g_plus_1 = n.add(&one);
        let g_lambda = mont_n2.pow(&g_plus_1, &lambda).expect("n² > 1");
        let l = l_function(&g_lambda, &n).expect("structure of g^λ");
        let mu = match l.mod_inv(&n) {
            Ok(m) => m,
            Err(_) => continue, // pathological p, q; retry
        };
        let crt = match CrtContext::new(&p, &q, &n) {
            Ok(crt) => crt,
            Err(_) => continue,
        };
        // Amortized randomizer base (Damgård–Jurik §4.2 style): a
        // public x ∈ Z_n* derived by full-domain hashing, raised to
        // the n-th power once at keygen. Every encryption then draws
        // its randomizer as h_n^a for a short fresh exponent `a`
        // through the comb table instead of computing r^n from
        // scratch. Exponent width: |n|/2 + 64 bits, comfortably past
        // the subgroup's statistical distance for demo parameters.
        let x = crate::rsa::full_domain_hash(b"prever-paillier-hn", &n);
        if x.is_zero() || !x.gcd(&n).is_one() {
            continue; // FDH value sharing a factor with n: astronomically unlikely
        }
        let h_n = match mont_n2.pow(&x, &n) {
            Ok(v) => v,
            Err(_) => continue,
        };
        let rand_bits = n.bits() / 2 + 64;
        let fb_hn = match FixedBaseTable::new(&mont_n2, &h_n, rand_bits) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let public = PublicKey { n, n_squared, mont_n2, fb_hn, rand_bits };
        return PrivateKey { public, lambda, mu, crt };
    }
}

impl CrtContext {
    /// Precomputes the per-prime decryption state for `n = p·q`.
    fn new(p: &BigUint, q: &BigUint, n: &BigUint) -> Result<CrtContext> {
        let one = BigUint::one();
        let mont_p2 = MontgomeryCtx::new(&p.mul(p))?;
        let mont_q2 = MontgomeryCtx::new(&q.mul(q))?;
        let g = n.add(&one); // generator g = n + 1
        // h_p = L_p(g^{p-1} mod p²)^{-1} mod p, and symmetrically for q.
        let p1 = p.sub(&one);
        let q1 = q.sub(&one);
        let h_p = l_function(&mont_p2.pow(&g, &p1)?, p)?.mod_inv(p)?;
        let h_q = l_function(&mont_q2.pow(&g, &q1)?, q)?.mod_inv(q)?;
        let p_inv_q = p.mod_inv(q)?;
        Ok(CrtContext {
            p: p.clone(),
            q: q.clone(),
            mont_p2,
            mont_q2,
            h_p,
            h_q,
            p_inv_q,
        })
    }

    /// Decrypts `c` by working mod `p²` and `q²` and recombining.
    fn decrypt(&self, c: &BigUint) -> Result<BigUint> {
        let one = BigUint::one();
        // m_p = L_p(c^{p-1} mod p²) · h_p mod p, likewise m_q.
        let m_p = l_function(&self.mont_p2.pow(c, &self.p.sub(&one))?, &self.p)?
            .mul_mod(&self.h_p, &self.p)?;
        let m_q = l_function(&self.mont_q2.pow(c, &self.q.sub(&one))?, &self.q)?
            .mul_mod(&self.h_q, &self.q)?;
        // Garner: m = m_p + p · ((m_q − m_p) · p^{-1} mod q).
        let t = m_q
            .sub_mod(&m_p.rem(&self.q)?, &self.q)?
            .mul_mod(&self.p_inv_q, &self.q)?;
        Ok(m_p.add(&self.p.mul(&t)))
    }
}

/// `L(x) = (x − 1) / n`, defined for `x ≡ 1 (mod n)`.
fn l_function(x: &BigUint, n: &BigUint) -> Result<BigUint> {
    let x1 = x.checked_sub(&BigUint::one())?;
    let (q, r) = x1.div_rem(n)?;
    if !r.is_zero() {
        return Err(CryptoError::Malformed("L-function: x != 1 mod n"));
    }
    Ok(q)
}

impl PublicKey {
    /// Encrypts `m ∈ [0, n)`.
    ///
    /// `c = (1 + m·n) · h_n^a mod n²` with a fresh short exponent `a`:
    /// `h_n = x^n` is itself an `n`-th power, so `h_n^a` ranges over
    /// the randomizer subgroup exactly as `r^n` does, and the comb
    /// table makes it ~5× cheaper than the from-scratch `r^n` of
    /// [`PublicKey::encrypt_standard`]. Decryption strips any `n`-th
    /// power, so ciphertexts from the two paths are interchangeable.
    pub fn encrypt<R: Rng + ?Sized>(&self, m: &BigUint, rng: &mut R) -> Result<Ciphertext> {
        let _span = prever_obs::span!("paillier.encrypt");
        if m.cmp_to(&self.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::OutOfRange("plaintext >= n"));
        }
        let a = loop {
            let a = BigUint::random_bits(self.rand_bits, rng);
            if !a.is_zero() {
                break a;
            }
        };
        let one = BigUint::one();
        let gm = one.add(&m.mul(&self.n)).rem(&self.n_squared)?;
        let rn = self.fb_hn.pow(&a)?;
        Ok(Ciphertext(self.mont_n2.mul_mod(&gm, &rn)?))
    }

    /// Encrypts `m ∈ [0, n)` with a uniform randomizer `r ∈ Z_n*`
    /// raised to the `n`-th power from scratch — the textbook path,
    /// kept as the reference (and benchmark baseline) for the
    /// amortized [`PublicKey::encrypt`].
    pub fn encrypt_standard<R: Rng + ?Sized>(&self, m: &BigUint, rng: &mut R) -> Result<Ciphertext> {
        let _span = prever_obs::span!("paillier.encrypt");
        if m.cmp_to(&self.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::OutOfRange("plaintext >= n"));
        }
        let r = loop {
            let r = BigUint::random_below(&self.n, rng);
            if !r.is_zero() && r.gcd(&self.n).is_one() {
                break r;
            }
        };
        // c = (n+1)^m * r^n mod n²  =  (1 + m·n) · r^n mod n².
        let one = BigUint::one();
        let gm = one.add(&m.mul(&self.n)).rem(&self.n_squared)?;
        let rn = self.mont_n2.pow(&r, &self.n)?;
        Ok(Ciphertext(self.mont_n2.mul_mod(&gm, &rn)?))
    }

    /// Encrypts a `u64` convenience value.
    pub fn encrypt_u64<R: Rng + ?Sized>(&self, m: u64, rng: &mut R) -> Result<Ciphertext> {
        self.encrypt(&BigUint::from_u64(m), rng)
    }

    /// Homomorphic addition: `Dec(add(c1, c2)) = m1 + m2 mod n`.
    pub fn add(&self, c1: &Ciphertext, c2: &Ciphertext) -> Result<Ciphertext> {
        Ok(Ciphertext(self.mont_n2.mul_mod(&c1.0, &c2.0)?))
    }

    /// Homomorphic addition of a plaintext: `Dec(...) = m + k mod n`.
    pub fn add_plain(&self, c: &Ciphertext, k: &BigUint) -> Result<Ciphertext> {
        // c * (n+1)^k = c * (1 + k·n) mod n².
        let gk = BigUint::one().add(&k.rem(&self.n)?.mul(&self.n)).rem(&self.n_squared)?;
        Ok(Ciphertext(self.mont_n2.mul_mod(&c.0, &gk)?))
    }

    /// Homomorphic scalar multiplication: `Dec(mul_plain(c, k)) = k·m mod n`.
    pub fn mul_plain(&self, c: &Ciphertext, k: &BigUint) -> Result<Ciphertext> {
        Ok(Ciphertext(self.mont_n2.pow(&c.0, k)?))
    }

    /// Homomorphic weighted sum: `Dec(weighted_sum([(cᵢ, kᵢ)])) =
    /// Σ kᵢ·mᵢ mod n`, computed as `Π cᵢ^{kᵢ} mod n²` by simultaneous
    /// multi-exponentiation.
    ///
    /// Equivalent to folding [`PublicKey::mul_plain`] results through
    /// [`PublicKey::add`], but all terms share one squaring chain — the
    /// PIR server's dot product is the intended caller. An empty term
    /// list yields the (unrandomized) identity `Enc(0) = 1`.
    pub fn weighted_sum(&self, terms: &[(&Ciphertext, u64)]) -> Result<Ciphertext> {
        let _span = prever_obs::span!("paillier.weighted_sum");
        let bases: Vec<&BigUint> = terms.iter().map(|(c, _)| &c.0).collect();
        let exps: Vec<u64> = terms.iter().map(|&(_, k)| k).collect();
        Ok(Ciphertext(self.mont_n2.multi_pow_u64(&bases, &exps)?))
    }

    /// Batched homomorphic weighted sums sharing one weight vector:
    /// `out[j] = Enc(Σᵢ kᵢ·m_{j,i})`, computed as `Πᵢ c_{j,i}^{kᵢ}` by
    /// Pippenger's bucket method with the exponent-digit schedule built
    /// once and reused by every row (the weights are shared; only the
    /// ciphertexts differ). The multi-query PIR server's matrix pass is
    /// the intended caller — for `k` rows this beats `k` calls to
    /// [`PublicKey::weighted_sum`] because each row pays one
    /// multiplication per nonzero *digit* instead of per set *bit*.
    pub fn weighted_sum_rows(
        &self,
        rows: &[&[&Ciphertext]],
        weights: &[u64],
    ) -> Result<Vec<Ciphertext>> {
        let _span = prever_obs::span!("paillier.weighted_sum");
        let row_b: Vec<Vec<&BigUint>> =
            rows.iter().map(|r| r.iter().map(|c| &c.0).collect()).collect();
        let row_refs: Vec<&[&BigUint]> = row_b.iter().map(|r| r.as_slice()).collect();
        let products = self.mont_n2.multi_pow_u64_rows(&row_refs, weights)?;
        Ok(products.into_iter().map(Ciphertext).collect())
    }

    /// Homomorphic negation: `Dec(neg(c)) = n − m mod n`.
    pub fn neg(&self, c: &Ciphertext) -> Result<Ciphertext> {
        let inv = c.0.mod_inv(&self.n_squared)?;
        Ok(Ciphertext(inv))
    }

    /// Homomorphic subtraction: `Dec(sub(c1, c2)) = m1 − m2 mod n`.
    pub fn sub(&self, c1: &Ciphertext, c2: &Ciphertext) -> Result<Ciphertext> {
        self.add(c1, &self.neg(c2)?)
    }

    /// Re-randomizes a ciphertext (same plaintext, fresh randomness) so
    /// the data manager cannot link it to its origin.
    pub fn rerandomize<R: Rng + ?Sized>(&self, c: &Ciphertext, rng: &mut R) -> Result<Ciphertext> {
        let zero = self.encrypt(&BigUint::zero(), rng)?;
        self.add(c, &zero)
    }
}

impl PrivateKey {
    /// Decrypts a ciphertext to `m ∈ [0, n)`.
    ///
    /// Uses CRT over `p` and `q` (see [`CrtContext`]); equivalent to —
    /// and property-tested against — the textbook `λ`/`μ` path in
    /// [`PrivateKey::decrypt_lambda`].
    pub fn decrypt(&self, c: &Ciphertext) -> Result<BigUint> {
        let _span = prever_obs::span!("paillier.decrypt");
        self.crt.decrypt(&c.0)
    }

    /// Textbook decryption: `m = L(c^λ mod n²) · μ mod n`.
    ///
    /// One full-width exponentiation instead of two half-width ones —
    /// kept as the reference implementation for the CRT fast path.
    pub fn decrypt_lambda(&self, c: &Ciphertext) -> Result<BigUint> {
        let pk = &self.public;
        let c_lambda = pk.mont_n2.pow(&c.0, &self.lambda)?;
        let l = l_function(&c_lambda, &pk.n)?;
        l.mul_mod(&self.mu, &pk.n)
    }

    /// Decrypts and interprets the result as a signed value in
    /// `(−n/2, n/2]` — the natural reading after homomorphic subtraction.
    pub fn decrypt_signed(&self, c: &Ciphertext) -> Result<i128> {
        let m = self.decrypt(c)?;
        let half = self.public.n.shr(1);
        if m.cmp_to(&half) == std::cmp::Ordering::Greater {
            let mag = self.public.n.sub(&m);
            let v = mag.to_u128().ok_or(CryptoError::OutOfRange("signed value too large"))?;
            Ok(-(v as i128))
        } else {
            let v = m.to_u128().ok_or(CryptoError::OutOfRange("signed value too large"))?;
            Ok(v as i128)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn key() -> PrivateKey {
        let mut rng = StdRng::seed_from_u64(7);
        keygen(96, &mut rng) // small primes: fast tests
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(8);
        for m in [0u64, 1, 40, 123456789, u32::MAX as u64] {
            let c = sk.public.encrypt_u64(m, &mut rng).unwrap();
            assert_eq!(sk.decrypt(&c).unwrap(), BigUint::from_u64(m));
        }
    }

    #[test]
    fn amortized_and_standard_encrypt_interoperate() {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(17);
        for m in [0u64, 1, 40, 123456789] {
            let fast = sk.public.encrypt_u64(m, &mut rng).unwrap();
            let slow = sk
                .public
                .encrypt_standard(&BigUint::from_u64(m), &mut rng)
                .unwrap();
            assert_eq!(sk.decrypt(&fast).unwrap(), BigUint::from_u64(m));
            assert_eq!(sk.decrypt(&slow).unwrap(), BigUint::from_u64(m));
            // Ciphertexts from the two paths combine homomorphically.
            let sum = sk.public.add(&fast, &slow).unwrap();
            assert_eq!(sk.decrypt(&sum).unwrap(), BigUint::from_u64(2 * m));
        }
        assert!(sk.public.encrypt_standard(&sk.public.n, &mut rng).is_err());
    }

    #[test]
    fn plaintext_out_of_range_rejected() {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(8);
        assert!(sk.public.encrypt(&sk.public.n, &mut rng).is_err());
    }

    #[test]
    fn homomorphic_addition() {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(9);
        let c1 = sk.public.encrypt_u64(30, &mut rng).unwrap();
        let c2 = sk.public.encrypt_u64(12, &mut rng).unwrap();
        let sum = sk.public.add(&c1, &c2).unwrap();
        assert_eq!(sk.decrypt(&sum).unwrap(), BigUint::from_u64(42));
    }

    #[test]
    fn homomorphic_scalar_mul_and_plain_add() {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(10);
        let c = sk.public.encrypt_u64(7, &mut rng).unwrap();
        let c3 = sk.public.mul_plain(&c, &BigUint::from_u64(6)).unwrap();
        assert_eq!(sk.decrypt(&c3).unwrap(), BigUint::from_u64(42));
        let cp = sk.public.add_plain(&c, &BigUint::from_u64(35)).unwrap();
        assert_eq!(sk.decrypt(&cp).unwrap(), BigUint::from_u64(42));
    }

    #[test]
    fn homomorphic_subtraction_signed() {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(11);
        // The RC1 pattern: encrypted total hours minus the 40-hour bound.
        let total = sk.public.encrypt_u64(38, &mut rng).unwrap();
        let bound = sk.public.encrypt_u64(40, &mut rng).unwrap();
        let diff = sk.public.sub(&total, &bound).unwrap();
        assert_eq!(sk.decrypt_signed(&diff).unwrap(), -2);
        let diff2 = sk.public.sub(&bound, &total).unwrap();
        assert_eq!(sk.decrypt_signed(&diff2).unwrap(), 2);
    }

    #[test]
    fn rerandomize_changes_ciphertext_not_plaintext() {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(12);
        let c = sk.public.encrypt_u64(5, &mut rng).unwrap();
        let c2 = sk.public.rerandomize(&c, &mut rng).unwrap();
        assert_ne!(c, c2);
        assert_eq!(sk.decrypt(&c2).unwrap(), BigUint::from_u64(5));
    }

    #[test]
    fn ciphertexts_are_probabilistic() {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(13);
        let c1 = sk.public.encrypt_u64(5, &mut rng).unwrap();
        let c2 = sk.public.encrypt_u64(5, &mut rng).unwrap();
        assert_ne!(c1, c2, "same plaintext must encrypt differently");
    }

    #[test]
    fn ciphertext_raw_roundtrip() {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(14);
        let c = sk.public.encrypt_u64(99, &mut rng).unwrap();
        let raw = c.as_biguint().clone();
        let c2 = Ciphertext::from_biguint(&sk.public, raw).unwrap();
        assert_eq!(sk.decrypt(&c2).unwrap(), BigUint::from_u64(99));
        assert!(Ciphertext::from_biguint(&sk.public, BigUint::zero()).is_err());
    }

    #[test]
    fn crt_decrypt_matches_lambda_decrypt() {
        let sk = key();
        let mut rng = StdRng::seed_from_u64(16);
        for m in [0u64, 1, 41, 987654321, u64::MAX >> 1] {
            let c = sk.public.encrypt_u64(m, &mut rng).unwrap();
            assert_eq!(sk.decrypt(&c).unwrap(), sk.decrypt_lambda(&c).unwrap());
            assert_eq!(sk.decrypt(&c).unwrap(), BigUint::from_u64(m));
        }
    }

    #[test]
    fn weighted_sum_rows_does_half_the_per_row_multiplications() {
        // The multi-query PIR server's matrix pass at k = 8 over 256
        // full-width records, counted rather than timed: one shared
        // digit schedule does 31 040 Montgomery multiplications where
        // eight `weighted_sum` calls do 67 576.
        use crate::montgomery::count_muls;
        let sk = key();
        let mut rng = StdRng::seed_from_u64(18);
        let cts: Vec<Ciphertext> = (0..256u64)
            .map(|i| sk.public.encrypt_u64(i, &mut rng).unwrap())
            .collect();
        let weights: Vec<u64> = (0..256).map(|_| rng.gen::<u64>().max(1)).collect();
        let rows: Vec<Vec<&Ciphertext>> = (0..8)
            .map(|j| cts.iter().cycle().skip(j).take(cts.len()).collect())
            .collect();
        let row_refs: Vec<&[&Ciphertext]> = rows.iter().map(|r| r.as_slice()).collect();

        let (rows_out, batched) =
            count_muls(|| sk.public.weighted_sum_rows(&row_refs, &weights).unwrap());
        let (each_out, sequential) = count_muls(|| {
            rows.iter()
                .map(|r| {
                    let terms: Vec<(&Ciphertext, u64)> =
                        r.iter().copied().zip(weights.iter().copied()).collect();
                    sk.public.weighted_sum(&terms).unwrap()
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(rows_out, each_out);
        assert!(
            2 * batched <= sequential,
            "weighted_sum_rows: {batched} multiplications vs {sequential} sequential"
        );
    }

    #[test]
    fn accumulator_pattern() {
        // Homomorphic running total, as the single-database deployment
        // maintains encrypted aggregates per regulated subject.
        let sk = key();
        let mut rng = StdRng::seed_from_u64(15);
        let mut acc = sk.public.encrypt_u64(0, &mut rng).unwrap();
        let hours = [8u64, 9, 7, 8, 6];
        for h in hours {
            let c = sk.public.encrypt_u64(h, &mut rng).unwrap();
            acc = sk.public.add(&acc, &c).unwrap();
        }
        assert_eq!(sk.decrypt(&acc).unwrap(), BigUint::from_u64(38));
    }
}
