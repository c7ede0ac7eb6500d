//! Arbitrary-precision unsigned integers.
//!
//! A deliberately compact big-integer implementation: little-endian `u64`
//! limbs, schoolbook multiplication with a Karatsuba path for large
//! operands, Knuth Algorithm D division, modular inversion, and
//! Miller–Rabin primality testing. Both modular exponentiation and
//! inversion dispatch on the modulus, and for the odd moduli every
//! protocol here uses neither divides: exponentiation goes through the
//! Montgomery engine in [`crate::montgomery`] (one fused multiply-reduce
//! kernel plus sliding 4-bit-window exponentiation), inversion through
//! Bernstein–Yang division steps taken 62 at a time on the low words.
//! Even moduli fall back to binary square-and-multiply with one
//! division per step ([`BigUint::mod_exp_schoolbook`]) and to extended
//! Euclid. `gcd` and `mod_inv` calls are counted (`crypto.bignum.gcd`,
//! `crypto.bignum.mod_inv`), so tests can assert that a request path
//! inverts exactly as often as its algebra requires. It is sized for the
//! demo-scale moduli PReVer's experiments use (256–2048 bits), not for
//! general-purpose numerics.

use crate::{CryptoError, Result};
use rand::Rng;
use std::cmp::Ordering;

/// Limb count above which multiplication switches to Karatsuba
/// (16 limbs = 1024 bits; tuned roughly, validated by the crypto bench).
const KARATSUBA_THRESHOLD: usize = 16;

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` is little-endian and *normalized* — the most
/// significant limb is non-zero. Zero is represented by an empty vector.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Constructs from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = BigUint { limbs: vec![lo, hi] };
        n.normalize();
        n
    }

    /// Constructs from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serializes to minimal-length big-endian bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the top limb.
                let first = bytes.iter().position(|&b| b != 0).unwrap_or(7);
                out.extend_from_slice(&bytes[first..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Parses a hexadecimal string (no prefix).
    pub fn from_hex(hex: &str) -> Result<Self> {
        let hex = hex.trim();
        let mut nibbles = Vec::with_capacity(hex.len());
        for c in hex.chars() {
            if c == '_' || c.is_whitespace() {
                continue;
            }
            let d = c.to_digit(16).ok_or(CryptoError::Malformed("invalid hex digit"))?;
            nibbles.push(d as u8);
        }
        let mut bytes = Vec::with_capacity(nibbles.len() / 2 + 1);
        let mut iter = nibbles.iter();
        if nibbles.len() % 2 == 1 {
            bytes.push(*iter.next().unwrap());
        }
        while let Some(&hi) = iter.next() {
            let lo = *iter.next().unwrap();
            bytes.push((hi << 4) | lo);
        }
        Ok(Self::from_bytes_be(&bytes))
    }

    /// Renders as lowercase hexadecimal ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian indexing).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Converts to `u64`, if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128`, if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | ((self.limbs[1] as u128) << 64)),
            _ => None,
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Little-endian limb view (no trailing zero limbs).
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Constructs from little-endian limbs, normalizing.
    pub(crate) fn from_limbs(limbs: Vec<u64>) -> BigUint {
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`; returns an error if `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Result<BigUint> {
        if self.cmp_to(other) == Ordering::Less {
            return Err(CryptoError::OutOfRange("subtraction underflow"));
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        Ok(n)
    }

    /// `self - other`; panics on underflow (use when ordering is known).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other).expect("BigUint::sub underflow")
    }

    /// Multiplication: schoolbook below the Karatsuba threshold (16 limbs),
    /// Karatsuba above it (O(n^1.585) vs O(n²) — matters for the n²
    /// arithmetic of Paillier at production key sizes).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        if self.limbs.len().min(other.limbs.len()) >= KARATSUBA_THRESHOLD {
            return self.mul_karatsuba(other);
        }
        self.mul_schoolbook(other)
    }

    fn mul_schoolbook(&self, other: &BigUint) -> BigUint {
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Karatsuba: split both operands at `m` limbs; then
    /// `a·b = z2·B^{2m} + z1·B^m + z0` with three recursive products,
    /// where `z1 = (a0+a1)(b0+b1) − z0 − z2`.
    fn mul_karatsuba(&self, other: &BigUint) -> BigUint {
        let m = self.limbs.len().max(other.limbs.len()) / 2;
        let (a0, a1) = self.split_at_limb(m);
        let (b0, b1) = other.split_at_limb(m);
        let z0 = a0.mul(&b0);
        let z2 = a1.mul(&b1);
        let z1 = a0.add(&a1).mul(&b0.add(&b1)).sub(&z0).sub(&z2);
        z2.shl(2 * m * 64).add(&z1.shl(m * 64)).add(&z0)
    }

    /// Splits into (low `m` limbs, remaining high limbs), normalized.
    fn split_at_limb(&self, m: usize) -> (BigUint, BigUint) {
        if self.limbs.len() <= m {
            return (self.clone(), BigUint::zero());
        }
        let mut lo = BigUint { limbs: self.limbs[..m].to_vec() };
        lo.normalize();
        let mut hi = BigUint { limbs: self.limbs[m..].to_vec() };
        hi.normalize();
        (lo, hi)
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Total-order comparison.
    pub fn cmp_to(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// Quotient and remainder; returns an error on division by zero.
    ///
    /// Knuth TAOCP vol. 2, Algorithm 4.3.1 D, with `u64` limbs.
    pub fn div_rem(&self, divisor: &BigUint) -> Result<(BigUint, BigUint)> {
        if divisor.is_zero() {
            return Err(CryptoError::OutOfRange("division by zero"));
        }
        match self.cmp_to(divisor) {
            Ordering::Less => return Ok((BigUint::zero(), self.clone())),
            Ordering::Equal => return Ok((BigUint::one(), BigUint::zero())),
            Ordering::Greater => {}
        }
        // Single-limb fast path.
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = vec![0u64; self.limbs.len()];
            let mut rem = 0u128;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | self.limbs[i] as u128;
                q[i] = (cur / d as u128) as u64;
                rem = cur % d as u128;
            }
            let mut quot = BigUint { limbs: q };
            quot.normalize();
            return Ok((quot, BigUint::from_u64(rem as u64)));
        }

        // Normalize so the top limb of the divisor has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl(shift);
        let u = self.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        // Working copy of the dividend with one extra high limb.
        let mut un = u.limbs.clone();
        un.push(0);
        let vn = &v.limbs;
        let mut q = vec![0u64; m + 1];

        let v_top = vn[n - 1];
        let v_next = vn[n - 2];

        for j in (0..=m).rev() {
            // Estimate qhat from the top two limbs of the current remainder.
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = num / v_top as u128;
            let mut rhat = num % v_top as u128;
            // Correct qhat (at most two decrements per Knuth).
            while qhat >> 64 != 0
                || qhat * v_next as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply and subtract: un[j..j+n+1] -= qhat * vn.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[i + j] as i128 - (p as u64) as i128 + borrow;
                un[i + j] = t as u64;
                borrow = t >> 64; // arithmetic shift: 0 or -1
            }
            let t = un[j + n] as i128 - carry as i128 + borrow;
            un[j + n] = t as u64;
            borrow = t >> 64;

            q[j] = qhat as u64;
            if borrow < 0 {
                // qhat was one too large: add back.
                q[j] -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let t = un[i + j] as u128 + vn[i] as u128 + carry;
                    un[i + j] = t as u64;
                    carry = t >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
        }

        let mut quot = BigUint { limbs: q };
        quot.normalize();
        let mut rem = BigUint { limbs: un[..n].to_vec() };
        rem.normalize();
        Ok((quot, rem.shr(shift)))
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &BigUint) -> Result<BigUint> {
        Ok(self.div_rem(modulus)?.1)
    }

    /// `(self + other) mod modulus`, assuming both operands are reduced.
    pub fn add_mod(&self, other: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        let s = self.add(other);
        if s.cmp_to(modulus) == Ordering::Less {
            Ok(s)
        } else {
            s.checked_sub(modulus)
        }
    }

    /// `(self - other) mod modulus`, assuming both operands are reduced.
    pub fn sub_mod(&self, other: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        if self.cmp_to(other) != Ordering::Less {
            self.checked_sub(other)
        } else {
            self.add(modulus).checked_sub(other)
        }
    }

    /// `(self * other) mod modulus`.
    pub fn mul_mod(&self, other: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        self.mul(other).rem(modulus)
    }

    /// `self^exp mod modulus`.
    ///
    /// Odd moduli go through the division-free Montgomery path
    /// ([`crate::montgomery::MontgomeryCtx`]); even moduli fall back to
    /// [`BigUint::mod_exp_schoolbook`]. Callers that exponentiate by
    /// the same modulus repeatedly should hold their own
    /// `MontgomeryCtx` to amortize its setup division.
    pub fn mod_exp(&self, exp: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        if modulus.is_zero() {
            return Err(CryptoError::OutOfRange("zero modulus"));
        }
        if modulus.is_one() {
            return Ok(BigUint::zero());
        }
        if modulus.is_even() {
            return self.mod_exp_schoolbook(exp, modulus);
        }
        crate::montgomery::MontgomeryCtx::new(modulus)?.pow(self, exp)
    }

    /// `self^exp mod modulus` by binary square-and-multiply, one
    /// Knuth division per step.
    ///
    /// Kept as the fallback for even moduli (where Montgomery
    /// reduction does not apply) and as the reference implementation
    /// the Montgomery path is property-tested against.
    pub fn mod_exp_schoolbook(&self, exp: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        if modulus.is_zero() {
            return Err(CryptoError::OutOfRange("zero modulus"));
        }
        if modulus.is_one() {
            return Ok(BigUint::zero());
        }
        let mut base = self.rem(modulus)?;
        let mut result = BigUint::one();
        for i in 0..exp.bits() {
            if exp.bit(i) {
                result = result.mul_mod(&base, modulus)?;
            }
            if i + 1 < exp.bits() {
                base = base.mul_mod(&base, modulus)?;
            }
        }
        Ok(result)
    }

    /// Greatest common divisor (binary-free Euclid via div_rem).
    ///
    /// Counted in `crypto.bignum.gcd`: key generation may call this, a
    /// request path should not.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        prever_obs::counter!("crypto.bignum.gcd").inc();
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b).expect("b nonzero");
            a = b;
            b = r;
        }
        a
    }

    /// Jacobi symbol `(self / n)` for odd `n > 1`.
    ///
    /// Returns `1` or `-1` when `gcd(self, n) = 1`, `0` otherwise.
    /// For a safe prime `p = 2q + 1` the symbol decides membership in
    /// the order-`q` subgroup of `Z_p^*` (the quadratic residues)
    /// without any exponentiation — the division chain here costs
    /// about as much as a gcd, versus `log q` Montgomery squarings for
    /// the `x^q = 1` test. Batch proof verification leans on this.
    pub fn jacobi(&self, n: &BigUint) -> Result<i32> {
        if n.is_even() || n.is_zero() || n.is_one() {
            return Err(CryptoError::OutOfRange("jacobi modulus must be odd and > 1"));
        }
        // Binary Jacobi on raw limb vectors: one initial reduction, then
        // only in-place shifts, compares, and subtractions — no BigUint
        // allocations or divisions in the loop. Each subtraction of two
        // odd values leaves an even value, so every pass strips at least
        // one bit and the loop runs O(bits) cheap iterations.
        if n.limbs.len() <= 4 {
            // Moduli up to 256 bits (every Schnorr subgroup check in the
            // batch-verify hot path) run on stack arrays with fully
            // unrolled limb loops — no heap traffic at all.
            let reduced;
            let a_src = if self.cmp_to(n) == Ordering::Less {
                self.limbs()
            } else {
                reduced = self.rem(n)?;
                reduced.limbs()
            };
            let mut a4 = [0u64; 4];
            a4[..a_src.len()].copy_from_slice(a_src);
            let mut m4 = [0u64; 4];
            m4[..n.limbs.len()].copy_from_slice(&n.limbs);
            return Ok(jacobi_fixed4(a4, m4));
        }
        Ok(jacobi_limbs(self.rem(n)?.limbs().to_vec(), n.limbs().to_vec()))
    }

    /// Modular inverse: `self^-1 mod modulus`, or
    /// [`CryptoError::NotInvertible`] when the two share a factor.
    ///
    /// Odd moduli — every modulus a request path inverts by — take the
    /// division-free batched divsteps of [`mod_inv_odd`]; `self` is
    /// reduced first only if it is not already below the modulus. That
    /// algorithm divides by two modulo `m`, which needs `m` odd, so
    /// even moduli (RSA key generation's `e⁻¹ mod φ(n)` is the one
    /// caller) keep extended Euclid. Counted in `crypto.bignum.mod_inv`.
    pub fn mod_inv(&self, modulus: &BigUint) -> Result<BigUint> {
        if modulus.is_zero() || modulus.is_one() {
            return Err(CryptoError::OutOfRange("modulus must be > 1"));
        }
        prever_obs::counter!("crypto.bignum.mod_inv").inc();
        if modulus.is_even() {
            return self.mod_inv_euclid(modulus);
        }
        let reduced;
        let a = if self.cmp_to(modulus) == Ordering::Less {
            self
        } else {
            reduced = self.rem(modulus)?;
            &reduced
        };
        if a.is_zero() {
            return Err(CryptoError::NotInvertible);
        }
        mod_inv_odd(&a.limbs, &modulus.limbs)
            .map(BigUint::from_limbs)
            .ok_or(CryptoError::NotInvertible)
    }

    /// Modular inverse by extended Euclid with explicitly signed Bézout
    /// coefficients: one Knuth division per step. Serves even moduli,
    /// and is the reference [`mod_inv_odd`] is tested against.
    fn mod_inv_euclid(&self, modulus: &BigUint) -> Result<BigUint> {
        let a = self.rem(modulus)?;
        if a.is_zero() {
            return Err(CryptoError::NotInvertible);
        }
        // (old_r, r), (old_s, s) where s coefficients carry a sign flag.
        let mut old_r = a;
        let mut r = modulus.clone();
        let mut old_s = (BigUint::one(), false); // (magnitude, negative?)
        let mut s = (BigUint::zero(), false);
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r).expect("r nonzero");
            old_r = std::mem::replace(&mut r, rem);
            // new_s = old_s - q * s (signed arithmetic on magnitudes).
            let qs = q.mul(&s.0);
            let new_s = signed_sub(&old_s, &(qs, s.1));
            old_s = std::mem::replace(&mut s, new_s);
        }
        if !old_r.is_one() {
            return Err(CryptoError::NotInvertible);
        }
        let (mag, neg) = old_s;
        let mag = mag.rem(modulus)?;
        if neg && !mag.is_zero() {
            modulus.checked_sub(&mag)
        } else {
            Ok(mag)
        }
    }

    /// Uniformly random value in `[0, bound)`. `bound` must be non-zero.
    pub fn random_below<R: Rng + ?Sized>(bound: &BigUint, rng: &mut R) -> BigUint {
        assert!(!bound.is_zero(), "random_below bound must be non-zero");
        let bits = bound.bits();
        loop {
            let candidate = Self::random_bits(bits, rng);
            if candidate.cmp_to(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Uniformly random value with at most `bits` bits.
    pub fn random_bits<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
        let limbs_needed = bits.div_ceil(64);
        let mut limbs = Vec::with_capacity(limbs_needed);
        for _ in 0..limbs_needed {
            limbs.push(rng.gen::<u64>());
        }
        let extra = limbs_needed * 64 - bits;
        if extra > 0 {
            if let Some(top) = limbs.last_mut() {
                *top >>= extra;
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random bases.
    pub fn is_probable_prime<R: Rng + ?Sized>(&self, rounds: usize, rng: &mut R) -> bool {
        const SMALL_PRIMES: [u64; 18] =
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61];
        if self.bits() <= 6 {
            let v = self.to_u64().unwrap();
            return SMALL_PRIMES.contains(&v);
        }
        for &p in &SMALL_PRIMES {
            let pb = BigUint::from_u64(p);
            if self.rem(&pb).expect("nonzero").is_zero() {
                return false;
            }
        }
        // Write self - 1 = d * 2^s.
        let one = BigUint::one();
        let n_minus_1 = self.sub(&one);
        let mut d = n_minus_1.clone();
        let mut s = 0usize;
        while d.is_even() {
            d = d.shr(1);
            s += 1;
        }
        let two = BigUint::from_u64(2);
        let upper = self.sub(&BigUint::from_u64(3));
        'witness: for _ in 0..rounds {
            let a = BigUint::random_below(&upper, rng).add(&two);
            let mut x = a.mod_exp(&d, self).expect("modulus > 1");
            if x.is_one() || x == n_minus_1 {
                continue;
            }
            for _ in 0..s - 1 {
                x = x.mul_mod(&x, self).expect("modulus > 1");
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Generates a random probable prime with exactly `bits` bits.
    pub fn gen_prime<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
        assert!(bits >= 8, "prime size too small");
        loop {
            let mut candidate = Self::random_bits(bits, rng);
            // Force top and bottom bits: exact size and odd.
            let top = BigUint::one().shl(bits - 1);
            candidate = candidate.add(&top).rem(&top.shl(1)).unwrap();
            if candidate.cmp_to(&top) == Ordering::Less {
                candidate = candidate.add(&top);
            }
            if candidate.is_even() {
                candidate = candidate.add(&BigUint::one());
            }
            if candidate.is_probable_prime(20, rng) {
                return candidate;
            }
        }
    }

    /// Generates a safe prime `p = 2q + 1` (both prime) with `bits` bits.
    ///
    /// Safe primes back the Schnorr group; generation is slow for large
    /// sizes, so [`crate::schnorr::SchnorrGroup::rfc2409_1024`] provides a
    /// hardcoded production-size group.
    pub fn gen_safe_prime<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
        loop {
            let q = Self::gen_prime(bits - 1, rng);
            let p = q.shl(1).add(&BigUint::one());
            if p.is_probable_prime(20, rng) {
                return p;
            }
        }
    }
}

/// `-x^-1 mod 2^64` for odd `x`, by Newton iteration: `x·x = 1 mod 8`,
/// and each step doubles the number of correct low bits
/// (3 -> 6 -> 12 -> 24 -> 48 -> 96 >= 64).
pub(crate) fn word_neg_inv(x: u64) -> u64 {
    let mut inv = x;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

/// Divsteps per batch: the transition matrix of 62 of them has entries
/// of magnitude at most `2^62`, which an `i64` holds.
const DIVSTEPS: u32 = 62;

/// `a^-1 mod m` for odd `m > 1` and `0 < a < m`, or `None` when
/// `gcd(a, m) != 1`. No division anywhere.
///
/// Bernstein–Yang division steps (`δ` carried as `η = −δ`), batched the
/// way libsecp256k1's variable-time `modinv64` batches them. A divstep
/// maps `(f, g)` with `f` odd to `(g, (g − f)/2)` when `δ > 0` and `g`
/// is odd, and to `(f, (g + (g mod 2)·f)/2)` otherwise; it reads only
/// the low bits of `f` and `g`, so [`divsteps`] runs 62 of them on the
/// low words alone and returns their product as one 2×2 integer matrix.
/// That matrix is then applied once to the full-width `(f, g)`
/// ([`update_fg`], an exact division by `2^62`) and once, modulo `m`,
/// to the cofactors `(d, e)` ([`update_de`]), which keep `f ≡ d·a` and
/// `g ≡ e·a (mod m)`. So the big numbers are touched once per 62 bit
/// steps instead of once per step. `g` reaches zero with `f = ±gcd`.
///
/// `f` and `g` are two's-complement `k + 1`-limb values (neither ever
/// exceeds `max(|f|, |g|) ≤ m` in magnitude), and shed their top limb
/// as they shrink; `d` and `e` stay in `[0, m)`.
fn mod_inv_odd(a: &[u64], m: &[u64]) -> Option<Vec<u64>> {
    let k = m.len();
    let m_neg_inv = word_neg_inv(m[0]);
    let (mut f, mut g) = (m.to_vec(), a.to_vec());
    f.push(0);
    g.resize(k + 1, 0);
    let (mut d, mut e) = (vec![0u64; k], vec![0u64; k]);
    e[0] = 1;
    // `m − d`, `m − e` for the matrix's negative entries, and the two
    // buffers the next `(d, e)` is written to.
    let mut scratch = [(); 4].map(|()| vec![0u64; k]);
    let mut eta = -1i64;
    let mut len = k + 1;
    while g[..len].iter().any(|&l| l != 0) {
        let t;
        (eta, t) = divsteps(eta, f[0], g[0]);
        update_fg(&mut f[..len], &mut g[..len], t);
        let [neg_d, neg_e, next_d, next_e] = &mut scratch;
        for (neg, x) in [(&mut *neg_d, &d), (&mut *neg_e, &e)] {
            neg.copy_from_slice(m);
            sub_in_place(neg, x);
        }
        update_de(next_d, signed(t[0], &d, neg_d), signed(t[1], &e, neg_e), m, m_neg_inv);
        update_de(next_e, signed(t[2], &d, neg_d), signed(t[3], &e, neg_e), m, m_neg_inv);
        std::mem::swap(&mut d, next_d);
        std::mem::swap(&mut e, next_e);
        // Drop the top limb once it is pure sign extension in both.
        let redundant = |x: &[u64]| x[x.len() - 1] == ((x[x.len() - 2] as i64) >> 63) as u64;
        while len > 2 && redundant(&f[..len]) && redundant(&g[..len]) {
            len -= 1;
        }
    }
    // f = ±1, or the inputs share a factor; d·a ≡ f.
    let f = &f[..len];
    if f[0] == 1 && f[1..].iter().all(|&l| l == 0) {
        Some(d)
    } else if f.iter().all(|&l| l == u64::MAX) {
        let mut inv = m.to_vec();
        sub_in_place(&mut inv, &d);
        Some(inv)
    } else {
        None
    }
}

/// [`DIVSTEPS`] division steps on the low words `f0` (odd) and `g0`.
/// Returns the new `η` and `[u, v, q, r]` with
/// `2^62·(f', g') = (u·f + v·g, q·f + r·g)`; `|u| + |v|` and
/// `|q| + |r|` are at most `2^62`. Runs of zero bits in `g` are
/// divsteps that only halve, and are taken in one shift each.
fn divsteps(mut eta: i64, f0: u64, g0: u64) -> (i64, [i64; 4]) {
    let (mut f, mut g) = (f0, g0);
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let mut left = DIVSTEPS;
    loop {
        // The sentinel bit stops the count at the steps left.
        let zeros = (g | (u64::MAX << left)).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= zeros as i64;
        left -= zeros;
        if left == 0 {
            return (eta, [u as i64, v as i64, q as i64, r as i64]);
        }
        // g is odd. δ > 0: (f, g) ← (g, −f), then in either case g += f
        // leaves g even for the next round's shift.
        if eta < 0 {
            eta = -eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
        }
        g = g.wrapping_add(f);
        q = q.wrapping_add(u);
        r = r.wrapping_add(v);
    }
}

/// `(f, g) ← ((u·f + v·g) / 2^62, (q·f + r·g) / 2^62)` in place over
/// two's-complement limbs of one length; the divisions are exact.
fn update_fg(f: &mut [u64], g: &mut [u64], [u, v, q, r]: [i64; 4]) {
    let n = f.len();
    let [u, v, q, r] = [u, v, q, r].map(i128::from);
    // |u·fⱼ + v·gⱼ| ≤ (|u| + |v|)·2^64 ≤ 2^126: the sums fit an i128.
    let (mut carry_f, mut carry_g) = (0i128, 0i128);
    let (mut prev_f, mut prev_g) = (0u64, 0u64);
    for j in 0..n {
        // The top limb carries the sign; the rest are plain digits.
        let (fj, gj) = if j + 1 == n {
            (f[j] as i64 as i128, g[j] as i64 as i128)
        } else {
            (f[j] as i128, g[j] as i128)
        };
        let (sf, sg) = (u * fj + v * gj + carry_f, q * fj + r * gj + carry_g);
        (carry_f, carry_g) = (sf >> 64, sg >> 64);
        if j > 0 {
            f[j - 1] = (prev_f >> DIVSTEPS) | ((sf as u64) << (64 - DIVSTEPS));
            g[j - 1] = (prev_g >> DIVSTEPS) | ((sg as u64) << (64 - DIVSTEPS));
        }
        (prev_f, prev_g) = (sf as u64, sg as u64);
    }
    f[n - 1] = (prev_f >> DIVSTEPS) | ((carry_f as u64) << (64 - DIVSTEPS));
    g[n - 1] = (prev_g >> DIVSTEPS) | ((carry_g as u64) << (64 - DIVSTEPS));
}

/// A signed matrix entry times a residue, as a non-negative multiplier
/// and operand: `c·x ≡ |c|·(m − x) (mod m)` for negative `c`.
fn signed<'a>(c: i64, x: &'a [u64], neg_x: &'a [u64]) -> (u128, &'a [u64]) {
    (c.unsigned_abs() as u128, if c < 0 { neg_x } else { x })
}

/// `out ← (a·x + b·y) / 2^62 mod m`, in `[0, m)`, for `x, y ≤ m` and
/// `a + b ≤ 2^62`: adds the multiple `c·m` that clears the low 62 bits
/// (`c = −(a·x + b·y)·m⁻¹ mod 2^62`, the Montgomery trick at that
/// radix) and shifts, in one sweep. The sum is below `2^63·m`, the
/// quotient below `2m`: one conditional subtraction finishes.
fn update_de(
    out: &mut [u64],
    (a, x): (u128, &[u64]),
    (b, y): (u128, &[u64]),
    m: &[u64],
    m_neg_inv: u64,
) {
    let k = m.len();
    let (x, y, out) = (&x[..k], &y[..k], &mut out[..k]);
    let low = (a as u64).wrapping_mul(x[0]).wrapping_add((b as u64).wrapping_mul(y[0]));
    let c = (low.wrapping_mul(m_neg_inv) & ((1 << DIVSTEPS) - 1)) as u128;
    let (mut carry, mut prev) = (0u128, 0u64);
    for j in 0..k {
        let s = a * x[j] as u128 + b * y[j] as u128 + carry;
        let with_m = (s as u64) as u128 + c * m[j] as u128;
        carry = (s >> 64) + (with_m >> 64);
        if j > 0 {
            out[j - 1] = (prev >> DIVSTEPS) | ((with_m as u64) << (64 - DIVSTEPS));
        }
        prev = with_m as u64;
    }
    out[k - 1] = (prev >> DIVSTEPS) | ((carry as u64) << (64 - DIVSTEPS));
    if carry >> DIVSTEPS != 0 || limbs_cmp(out, m) != Ordering::Less {
        sub_in_place(out, m);
    }
}

/// `a -= b` in place, `b` no longer than `a`; returns whether it
/// borrowed out of the top.
pub(crate) fn sub_in_place(a: &mut [u64], b: &[u64]) -> bool {
    let (low, high) = a.split_at_mut(b.len());
    let mut borrow = false;
    for (ai, &bi) in low.iter_mut().zip(b) {
        let (d1, b1) = ai.overflowing_sub(bi);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        *ai = d2;
        borrow = b1 | b2;
    }
    for ai in high {
        if !borrow {
            break;
        }
        (*ai, borrow) = ai.overflowing_sub(1);
    }
    borrow
}

/// Trims trailing zero limbs in place (zero becomes the empty vector,
/// matching `normalize`).
fn limbs_trim(v: &mut Vec<u64>) {
    while v.last() == Some(&0) {
        v.pop();
    }
}

/// Trailing zero bits of a little-endian limb vector (nonzero input).
fn limbs_trailing_zeros(v: &[u64]) -> usize {
    let mut z = 0usize;
    for &l in v {
        if l == 0 {
            z += 64;
        } else {
            return z + l.trailing_zeros() as usize;
        }
    }
    z
}

/// In-place right shift by `k` bits.
fn limbs_shr(v: &mut Vec<u64>, k: usize) {
    let words = k / 64;
    let bits = k % 64;
    if words > 0 {
        v.drain(..words.min(v.len()));
    }
    if bits > 0 {
        for i in 0..v.len() {
            let hi = if i + 1 < v.len() { v[i + 1] } else { 0 };
            v[i] = (v[i] >> bits) | (hi << (64 - bits));
        }
    }
    limbs_trim(v);
}

/// Compares two little-endian limb vectors, both trimmed or both of
/// one width.
pub(crate) fn limbs_cmp(a: &[u64], b: &[u64]) -> Ordering {
    match a.len().cmp(&b.len()) {
        Ordering::Equal => {}
        o => return o,
    }
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => {}
            o => return o,
        }
    }
    Ordering::Equal
}

/// Binary Jacobi `(a/m)` on limb vectors, for `a < m` and `m` odd: the
/// path of [`BigUint::jacobi`] for moduli wider than 256 bits.
fn jacobi_limbs(mut a: Vec<u64>, mut m: Vec<u64>) -> i32 {
    let mut t = 1i32;
    loop {
        limbs_trim(&mut a);
        if a.is_empty() {
            break;
        }
        // Pull out factors of two: (2/m) = -1 iff m = ±3 mod 8.
        let z = limbs_trailing_zeros(&a);
        if z > 0 {
            limbs_shr(&mut a, z);
            if z & 1 == 1 {
                let r = m[0] & 7;
                if r == 3 || r == 5 {
                    t = -t;
                }
            }
        }
        // Both odd. Quadratic reciprocity on swap: flip sign iff
        // both are 3 mod 4.
        if limbs_cmp(&a, &m) == Ordering::Less {
            if (a[0] & 3 == 3) && (m[0] & 3 == 3) {
                t = -t;
            }
            std::mem::swap(&mut a, &mut m);
        }
        let borrow = sub_in_place(&mut a, &m);
        debug_assert!(!borrow, "a >= m after the swap");
    }
    limbs_trim(&mut m);
    if m == [1] {
        t
    } else {
        0
    }
}

/// Binary Jacobi specialised to 4-limb (≤256-bit) operands on stack
/// arrays: the algorithm of [`jacobi_limbs`], step for step, but every
/// limb loop has a fixed trip count the compiler unrolls, and each
/// step's two data-dependent choices — flip the sign? swap? — are taken
/// with masks: which operand is smaller is a coin flip, one a branch
/// predictor loses about every other step.
fn jacobi_fixed4(mut a: [u64; 4], mut m: [u64; 4]) -> i32 {
    // Bit 0 of `flips` is the parity of the sign flips so far (the
    // other bits are noise): the symbol is −1 iff it ends set.
    let mut flips = 0u64;
    while a != [0u64; 4] {
        if a[2] | a[3] | m[2] | m[3] == 0 {
            // Both are below 2¹²⁸: finish on native words.
            let lo = |v: [u64; 4]| ((v[1] as u128) << 64) | v[0] as u128;
            return jacobi_u128(lo(a), lo(m), flips);
        }
        // Pull out factors of two: (2/m) = −1 iff m = ±3 mod 8, that is
        // iff bits 1 and 2 of m differ.
        let z = tz4(&a);
        shr4(&mut a, z);
        flips ^= z as u64 & ((m[0] >> 1) ^ (m[0] >> 2));
        // Both odd. Keep the smaller as the modulus and the difference
        // as `a`; quadratic reciprocity flips the sign on a swap iff both
        // are 3 mod 4.
        let (diff, borrow) = sub4(&a, &m);
        let swap = borrow.wrapping_neg();
        flips ^= swap & ((a[0] & m[0]) >> 1);
        for (mi, ai) in m.iter_mut().zip(a) {
            *mi ^= (*mi ^ ai) & swap;
        }
        // On a swap `diff` is a − m + 2²⁵⁶, so m − a is its negation.
        a = neg4_if(diff, swap);
    }
    if m != [1, 0, 0, 0] {
        0
    } else if flips & 1 == 0 {
        1
    } else {
        -1
    }
}

/// The loop of [`jacobi_fixed4`] on 128-bit words, from the state
/// `(a, m, flips)` it hands over.
fn jacobi_u128(mut a: u128, mut m: u128, mut flips: u64) -> i32 {
    while a != 0 {
        let z = a.trailing_zeros();
        a >>= z;
        let m0 = m as u64;
        flips ^= z as u64 & ((m0 >> 1) ^ (m0 >> 2));
        let (diff, borrow) = a.overflowing_sub(m);
        let swap = (borrow as u128).wrapping_neg();
        flips ^= (swap as u64) & (((a as u64) & m0) >> 1);
        m ^= (m ^ a) & swap;
        a = (diff ^ swap).wrapping_sub(swap);
    }
    if m != 1 {
        0
    } else if flips & 1 == 0 {
        1
    } else {
        -1
    }
}

/// Trailing zero bits of a nonzero 4-limb value.
fn tz4(v: &[u64; 4]) -> usize {
    for (i, &l) in v.iter().enumerate() {
        if l != 0 {
            return i * 64 + l.trailing_zeros() as usize;
        }
    }
    256
}

/// In-place right shift of a 4-limb value by `k < 256` bits.
fn shr4(v: &mut [u64; 4], k: usize) {
    let words = k / 64;
    let bits = k % 64;
    if words > 0 {
        for i in 0..4 {
            v[i] = if i + words < 4 { v[i + words] } else { 0 };
        }
    }
    if bits > 0 {
        for i in 0..4 {
            let hi = if i + 1 < 4 { v[i + 1] } else { 0 };
            v[i] = (v[i] >> bits) | (hi << (64 - bits));
        }
    }
}

/// `a − b` modulo 2²⁵⁶, and the borrow out: 1 iff `a < b`.
fn sub4(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out[i] = d2;
        borrow = (b1 | b2) as u64;
    }
    (out, borrow)
}

/// `v`, negated modulo 2²⁵⁶ where `mask` is all ones; `mask` is 0 or !0.
fn neg4_if(v: [u64; 4], mask: u64) -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut carry = mask & 1;
    for i in 0..4 {
        let (s, c) = (v[i] ^ mask).overflowing_add(carry);
        out[i] = s;
        carry = c as u64;
    }
    out
}

/// Signed subtraction of (magnitude, negative?) pairs: `a - b`.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with both non-negative.
        (false, false) => {
            if a.0.cmp_to(&b.0) != Ordering::Less {
                (a.0.sub(&b.0), false)
            } else {
                (b.0.sub(&a.0), true)
            }
        }
        // a - (-b) = a + b.
        (false, true) => (a.0.add(&b.0), false),
        // (-a) - b = -(a + b).
        (true, false) => (a.0.add(&b.0), true),
        // (-a) - (-b) = b - a.
        (true, true) => {
            if b.0.cmp_to(&a.0) != Ordering::Less {
                (b.0.sub(&a.0), false)
            } else {
                (a.0.sub(&b.0), true)
            }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_to(other)
    }
}

impl std::fmt::Debug for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl std::fmt::Display for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn b(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn jacobi_matches_euler_criterion() {
        // Against an odd prime p, (a/p) is the Legendre symbol, which
        // Euler's criterion computes as a^((p-1)/2) mod p.
        let mut rng = StdRng::seed_from_u64(31);
        for bits in [64usize, 128, 192, 256] {
            let p = BigUint::gen_prime(bits, &mut rng);
            let exp = p.sub(&BigUint::one()).shr(1);
            for _ in 0..12 {
                let a = BigUint::random_below(&p, &mut rng);
                let euler = a.mod_exp(&exp, &p).unwrap();
                let want = if a.is_zero() {
                    0
                } else if euler.is_one() {
                    1
                } else {
                    -1
                };
                assert_eq!(a.jacobi(&p).unwrap(), want);
            }
        }
        // Shared factors give 0; composite odd moduli multiply symbols.
        assert_eq!(b(6).jacobi(&b(9)).unwrap(), 0);
        assert_eq!(b(2).jacobi(&b(15)).unwrap(), 1); // (2/3)(2/5) = (-1)(-1)
        // Known small table: (a/7) for a = 1..6 is 1,1,-1,1,-1,-1.
        for (a, want) in [(1, 1), (2, 1), (3, -1), (4, 1), (5, -1), (6, -1)] {
            assert_eq!(b(a).jacobi(&b(7)).unwrap(), want);
        }
        // Even or trivial moduli are rejected.
        assert!(b(3).jacobi(&b(8)).is_err());
        assert!(b(3).jacobi(&b(1)).is_err());
    }

    #[test]
    fn basic_arithmetic_u128_agreement() {
        let cases: [(u128, u128); 6] = [
            (0, 0),
            (1, 1),
            (u64::MAX as u128, 1),
            (u64::MAX as u128, u64::MAX as u128),
            (1 << 100, (1 << 60) + 12345),
            (u128::MAX / 2, u128::MAX / 3),
        ];
        for (x, y) in cases {
            assert_eq!(b(x).add(&b(y)).to_u128(), x.checked_add(y));
            if x >= y {
                assert_eq!(b(x).sub(&b(y)).to_u128(), Some(x - y));
            }
            if let Some(p) = x.checked_mul(y) {
                assert_eq!(b(x).mul(&b(y)).to_u128(), Some(p));
            }
            if y != 0 {
                let (q, r) = b(x).div_rem(&b(y)).unwrap();
                assert_eq!(q.to_u128(), Some(x / y));
                assert_eq!(r.to_u128(), Some(x % y));
            }
        }
    }

    #[test]
    fn sub_underflow_errors() {
        assert!(b(1).checked_sub(&b(2)).is_err());
        assert!(b(0).checked_sub(&b(1)).is_err());
        assert_eq!(b(2).checked_sub(&b(2)).unwrap(), BigUint::zero());
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(b(10).div_rem(&BigUint::zero()).is_err());
    }

    #[test]
    fn shifts() {
        let x = b(0xdead_beef);
        assert_eq!(x.shl(64).shr(64), x);
        assert_eq!(x.shl(3).to_u128(), Some(0xdead_beef << 3));
        assert_eq!(x.shr(100), BigUint::zero());
        assert_eq!(BigUint::zero().shl(100), BigUint::zero());
    }

    #[test]
    fn bytes_roundtrip() {
        let x = BigUint::from_hex("deadbeefcafebabe0123456789abcdef00").unwrap();
        assert_eq!(BigUint::from_bytes_be(&x.to_bytes_be()), x);
        assert_eq!(x.to_hex(), "deadbeefcafebabe0123456789abcdef00");
    }

    #[test]
    fn hex_roundtrip_zero() {
        assert_eq!(BigUint::zero().to_hex(), "0");
        assert_eq!(BigUint::from_hex("0").unwrap(), BigUint::zero());
        assert_eq!(BigUint::from_hex("00000").unwrap(), BigUint::zero());
        assert!(BigUint::from_hex("xyz").is_err());
    }

    #[test]
    fn mod_exp_known_values() {
        // 2^10 mod 1000 = 24
        assert_eq!(
            b(2).mod_exp(&b(10), &b(1000)).unwrap(),
            b(24)
        );
        // Fermat: a^(p-1) = 1 mod p for prime p.
        let p = b(1_000_000_007);
        for a in [2u128, 3, 123456, 999999999] {
            assert_eq!(b(a).mod_exp(&p.sub(&b(1)), &p).unwrap(), BigUint::one());
        }
        // Anything mod 1 is 0.
        assert_eq!(b(5).mod_exp(&b(5), &b(1)).unwrap(), BigUint::zero());
    }

    #[test]
    fn mod_inv_known_values() {
        // 3 * 4 = 12 = 1 mod 11.
        assert_eq!(b(3).mod_inv(&b(11)).unwrap(), b(4));
        // Non-invertible.
        assert_eq!(b(6).mod_inv(&b(9)).unwrap_err(), CryptoError::NotInvertible);
        assert_eq!(b(0).mod_inv(&b(7)).unwrap_err(), CryptoError::NotInvertible);
    }

    #[test]
    fn primality_known_values() {
        let mut rng = StdRng::seed_from_u64(7);
        for p in [2u128, 3, 5, 101, 65537, 1_000_000_007, 2_305_843_009_213_693_951] {
            assert!(b(p).is_probable_prime(20, &mut rng), "{p} should be prime");
        }
        for c in [1u128, 4, 100, 65541, 1_000_000_008, (1 << 61) + 1] {
            assert!(!b(c).is_probable_prime(20, &mut rng), "{c} should be composite");
        }
    }

    #[test]
    fn gen_prime_has_exact_bits() {
        let mut rng = StdRng::seed_from_u64(42);
        for bits in [16usize, 32, 64, 128] {
            let p = BigUint::gen_prime(bits, &mut rng);
            assert_eq!(p.bits(), bits);
            assert!(p.is_probable_prime(20, &mut rng));
        }
    }

    #[test]
    fn gen_safe_prime_small() {
        let mut rng = StdRng::seed_from_u64(42);
        let p = BigUint::gen_safe_prime(48, &mut rng);
        let q = p.sub(&BigUint::one()).shr(1);
        assert!(p.is_probable_prime(20, &mut rng));
        assert!(q.is_probable_prime(20, &mut rng));
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let bound = BigUint::from_hex("ffffffffffffffffffffffffffff").unwrap();
        for _ in 0..100 {
            let x = BigUint::random_below(&bound, &mut rng);
            assert!(x < bound);
        }
    }

    // ---- property-based tests ----

    fn arb_biguint() -> impl Strategy<Value = BigUint> {
        proptest::collection::vec(any::<u64>(), 0..6).prop_map(|limbs| {
            let mut n = BigUint { limbs };
            n.normalize();
            n
        })
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in arb_biguint(), x in arb_biguint()) {
            prop_assert_eq!(a.add(&x), x.add(&a));
        }

        #[test]
        fn prop_add_sub_roundtrip(a in arb_biguint(), x in arb_biguint()) {
            prop_assert_eq!(a.add(&x).sub(&x), a);
        }

        #[test]
        fn prop_mul_commutative(a in arb_biguint(), x in arb_biguint()) {
            prop_assert_eq!(a.mul(&x), x.mul(&a));
        }

        /// Karatsuba must agree with schoolbook at and around the
        /// threshold, including asymmetric operand sizes.
        #[test]
        fn prop_karatsuba_matches_schoolbook(
            a in proptest::collection::vec(any::<u64>(), 1..80),
            b in proptest::collection::vec(any::<u64>(), 1..80),
        ) {
            let mut a = BigUint { limbs: a };
            a.normalize();
            let mut b = BigUint { limbs: b };
            b.normalize();
            prop_assume!(!a.is_zero() && !b.is_zero());
            prop_assert_eq!(a.mul_karatsuba(&b), a.mul_schoolbook(&b));
        }

        /// The stack-array Jacobi agrees with the limb-vector loop on
        /// coprime and on non-coprime operands.
        #[test]
        fn prop_jacobi_fixed4_matches_limb_loop(
            m in proptest::collection::vec(any::<u64>(), 1..=3),
            a in proptest::collection::vec(any::<u64>(), 0..=4),
            f in any::<u64>(),
        ) {
            let f = BigUint::from_u64(f | 1);
            let mut m = BigUint { limbs: m };
            m.limbs[0] |= 1;
            m.normalize();
            let mut a = BigUint { limbs: a };
            a.normalize();
            // `a` against `m`, and `a·f` against `m·f`, which share `f`.
            for (a, m) in [(a.clone(), m.clone()), (a.mul(&f), m.mul(&f))] {
                if m.is_one() {
                    continue;
                }
                let a = a.rem(&m).unwrap();
                let (mut a4, mut m4) = ([0u64; 4], [0u64; 4]);
                a4[..a.limbs.len()].copy_from_slice(&a.limbs);
                m4[..m.limbs.len()].copy_from_slice(&m.limbs);
                prop_assert_eq!(jacobi_fixed4(a4, m4), jacobi_limbs(a.limbs, m.limbs));
            }
        }

        #[test]
        fn prop_div_rem_identity(a in arb_biguint(), d in arb_biguint()) {
            prop_assume!(!d.is_zero());
            let (q, r) = a.div_rem(&d).unwrap();
            prop_assert!(r < d);
            prop_assert_eq!(q.mul(&d).add(&r), a);
        }

        #[test]
        fn prop_mul_div_exact(a in arb_biguint(), d in arb_biguint()) {
            prop_assume!(!d.is_zero());
            let (q, r) = a.mul(&d).div_rem(&d).unwrap();
            prop_assert_eq!(q, a);
            prop_assert!(r.is_zero());
        }

        #[test]
        fn prop_bytes_roundtrip(a in arb_biguint()) {
            prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a.clone());
            prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
        }

        #[test]
        fn prop_shift_roundtrip(a in arb_biguint(), s in 0usize..200) {
            prop_assert_eq!(a.shl(s).shr(s), a);
        }

        #[test]
        fn prop_mod_inv_correct(a in arb_biguint()) {
            // A fixed prime modulus larger than most generated values.
            let p = BigUint::from_hex("ffffffffffffffffffffffffffffff61").unwrap(); // 2^128 - 159, prime
            let a = a.rem(&p).unwrap();
            prop_assume!(!a.is_zero());
            let inv = a.mod_inv(&p).unwrap();
            prop_assert_eq!(a.mul_mod(&inv, &p).unwrap(), BigUint::one());
        }

        /// `mod_inv` against the extended-Euclid reference: odd moduli
        /// of 1–40 limbs (the binary path) and even ones (whatever
        /// serves them), with the operands most likely to trip an
        /// in-place limb algorithm.
        #[test]
        fn prop_mod_inv_matches_euclid(
            m_limbs in proptest::collection::vec(any::<u64>(), 1..=40),
            a_limbs in proptest::collection::vec(any::<u64>(), 0..=42),
            zero_low_limbs in 0usize..4,
            factor in any::<u64>(),
            even in any::<bool>(),
        ) {
            let mut m_limbs = m_limbs;
            m_limbs[0] = if even { m_limbs[0] & !1 } else { m_limbs[0] | 1 };
            let m = BigUint::from_limbs(m_limbs);
            prop_assume!(!m.is_zero() && !m.is_one());
            let one = BigUint::one();
            let random = BigUint::from_limbs(a_limbs); // often >= m
            let plain = [
                BigUint::zero(),
                one.clone(),
                m.sub(&one),
                m.clone(),
                m.add(&one),
                random.clone(),
                random.shl(64 * zero_low_limbs).add(&one.shl(64 * zero_low_limbs)),
                one.shl(64 * zero_low_limbs),
            ];
            // A modulus with a known odd factor, and multiples of that
            // factor: both sides must refuse.
            let f = BigUint::from_u64(factor | 1).add(&BigUint::from_u64(2));
            let m_f = m.mul(&f);
            let multiples: Vec<BigUint> = plain.iter().map(|a| a.mul(&f)).collect();
            for a in plain.iter().chain(&multiples) {
                for modulus in [&m, &m_f] {
                    let want = a.mod_inv_euclid(modulus);
                    let got = a.mod_inv(modulus);
                    prop_assert_eq!(&got, &want, "a = {:?}, m = {:?}", a, modulus);
                    if let Ok(inv) = got {
                        prop_assert!(inv < *modulus);
                        prop_assert_eq!(a.mul_mod(&inv, modulus).unwrap(), one.clone());
                    }
                }
                prop_assert_eq!(a.mul(&f).mod_inv(&m_f), Err(CryptoError::NotInvertible));
            }
        }

        #[test]
        fn prop_mod_exp_multiplicative(a in arb_biguint(), e1 in 0u64..50, e2 in 0u64..50) {
            let m = BigUint::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff").unwrap();
            let a = a.rem(&m).unwrap();
            let lhs = a.mod_exp(&BigUint::from_u64(e1 + e2), &m).unwrap();
            let rhs = a
                .mod_exp(&BigUint::from_u64(e1), &m).unwrap()
                .mul_mod(&a.mod_exp(&BigUint::from_u64(e2), &m).unwrap(), &m).unwrap();
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn prop_gcd_divides(a in arb_biguint(), x in arb_biguint()) {
            prop_assume!(!a.is_zero() && !x.is_zero());
            let g = a.gcd(&x);
            prop_assert!(a.rem(&g).unwrap().is_zero());
            prop_assert!(x.rem(&g).unwrap().is_zero());
        }
    }
}
