//! Montgomery-form modular arithmetic for odd moduli.
//!
//! The schoolbook [`BigUint::mod_exp`] pays a full Knuth division per
//! multiplication. A [`MontgomeryCtx`] precomputes, once per modulus,
//! everything needed to replace those divisions with Montgomery
//! multiplications: the word inverse `n0 = -n^-1` modulo the radix,
//! `R mod n`, and `R^2 mod n`.
//!
//! A context has one of two kernels, chosen once in
//! [`MontgomeryCtx::new`] from the modulus width and the CPU:
//!
//! * the scalar `mont_mul_into`, on `k` 64-bit limbs with `R = 2^(64k)`:
//!   a finely-integrated operand scan. For each limb `bᵢ` it walks the
//!   accumulator once, adding the `a·bᵢ` row and the `m·n` reduction
//!   row in the same inner loop on two independent carry chains (the
//!   multiplier `m` is fixed by the first column, so neither chain waits
//!   for the other), and stores each limb one place down — the division
//!   by `2^64`. The accumulator is the caller's `k`-limb buffer plus one
//!   carry bit held in a register. It runs on every CPU, below
//!   [`VECTOR_MIN_BITS`], and is the reference the vector kernel is
//!   tested against;
//! * from [`VECTOR_MIN_BITS`] up, on a CPU with AVX-512 IFMA, the
//!   vector kernel in `ifma`: `d = ⌈(bits + 2)/52⌉` digits of 52 bits
//!   padded to whole 512-bit vectors, `R = 2^(52·d)`.
//!
//! Both return every product fully reduced, and values cross the
//! context boundary as [`BigUint`], so nothing outside can tell which
//! ran. [`MontgomeryCtx::pow_pair`] runs two exponentiations on two
//! contexts in lockstep, so the vector kernel can interleave their
//! products.
//!
//! Scratch discipline: the kernels never allocate. Every exponentiation
//! loop ([`MontgomeryCtx::pow`], the `multi_pow*` family, the combs in
//! [`crate::fixed_base`]) owns an accumulator and one spare buffer and
//! ping-pongs them through `mul_assign` / `square_assign`; window tables
//! are one flat `Vec` with a stride of `k` words, and the spare buffer
//! ends its life as the result's limb vector.
//!
//! Values enter and leave as [`BigUint`]; in between they are
//! little-endian `u64` word slices of length exactly `k`
//! ([`MontgomeryCtx::limb_count`]): limbs or digits, per the kernel.
//! Exponentiation uses a sliding 4-bit window with a table of the 8
//! odd powers of the base, cutting multiplications by ~4x over binary
//! square-and-multiply on top of the per-step division savings.
//!
//! Montgomery reduction requires `gcd(n, 2^64) = 1`, so even moduli
//! are rejected at construction; callers (see [`BigUint::mod_exp`])
//! fall back to the schoolbook path for them.

use crate::bignum::{limbs_cmp, sub_in_place, word_neg_inv, BigUint};
use crate::{CryptoError, Result};
use prever_obs::work::{self, Unit};
use std::borrow::Cow;
use std::cmp::Ordering;

#[cfg(target_arch = "x86_64")]
mod ifma;

/// Odd powers `base^1, base^3, …, base^15` kept per sliding window.
const WINDOW_TABLE: usize = 8;

/// Narrowest modulus, in bits, that runs on the vector kernel where the
/// CPU has one. Below it the scalar kernel is at least as fast
/// (DESIGN.md §6, "Vector kernel", has the measurement).
pub const VECTOR_MIN_BITS: usize = 384;

/// The multiplication kernel a context runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// `mont_mul_into`'s limb loop.
    Scalar,
    /// The AVX-512 IFMA AMM over `digits` 52-bit digits.
    #[cfg(target_arch = "x86_64")]
    Ifma { cpu: ifma::Ifma, digits: usize },
}

impl Kernel {
    /// The kernel for a `bits`-wide modulus: the vector kernel from
    /// [`VECTOR_MIN_BITS`] up where the CPU has it, else the scalar one.
    fn choose(bits: usize) -> Kernel {
        #[cfg(test)]
        if let Some(forced) = tests::FORCED.get() {
            return forced.kernel(bits);
        }
        if bits >= VECTOR_MIN_BITS {
            if let Some(vector) = Kernel::vector(bits) {
                return vector;
            }
        }
        Kernel::Scalar
    }

    /// The vector kernel at this width, if the CPU has it and the width
    /// fits it.
    fn vector(bits: usize) -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        {
            let digits = (bits + 2).div_ceil(ifma::DIGIT_BITS);
            if digits.div_ceil(ifma::LANES) <= ifma::MAX_VECTORS {
                return ifma::Ifma::detect().map(|cpu| Kernel::Ifma { cpu, digits });
            }
        }
        let _ = bits;
        None
    }
}

/// Precomputed per-modulus state for Montgomery arithmetic.
///
/// Construction costs two big-number divisions (for `R mod n` and
/// `R^2 mod n`); every subsequent multiplication avoids division
/// entirely, so cache a context wherever the same modulus is used
/// repeatedly (Paillier `n^2`, RSA `n`/`p`/`q`, Schnorr `p`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MontgomeryCtx {
    /// The (odd, > 1) modulus.
    n: BigUint,
    /// The modulus in residue words, exactly `k` of them: 64-bit limbs
    /// on the scalar kernel, 52-bit digits on the vector one.
    n_limbs: Vec<u64>,
    /// Words per residue.
    k: usize,
    /// `-n^-1` modulo the word radix (`2^64` or `2^52`).
    n0: u64,
    /// `R mod n` — the Montgomery form of 1.
    r1: Vec<u64>,
    /// `R^2 mod n` — multiplier that maps a value into Montgomery form.
    r2: Vec<u64>,
    /// Plain 1 — multiplier that maps a value out of Montgomery form.
    one: Vec<u64>,
    /// Which kernel multiplies.
    kernel: Kernel,
}

impl MontgomeryCtx {
    /// Builds a context for an odd modulus `n > 1`.
    ///
    /// Returns [`CryptoError::OutOfRange`] for even moduli (Montgomery
    /// reduction needs `n` coprime to the `2^64` radix) and for
    /// `n <= 1` (no residue system to work in).
    pub fn new(n: &BigUint) -> Result<MontgomeryCtx> {
        if n.is_zero() || n.is_one() {
            return Err(CryptoError::OutOfRange("montgomery modulus must be > 1"));
        }
        if n.is_even() {
            return Err(CryptoError::OutOfRange("montgomery modulus must be odd"));
        }
        let kernel = Kernel::choose(n.bits());
        let n_limbs = n.limbs().to_vec();
        #[cfg(target_arch = "x86_64")]
        if let Kernel::Ifma { digits, .. } = kernel {
            // R = 2^(52d), residues padded to whole vectors.
            let k = digits.next_multiple_of(ifma::LANES);
            let r1_big = BigUint::one().shl(ifma::DIGIT_BITS * digits).rem(n)?;
            let r2_big = BigUint::one().shl(2 * ifma::DIGIT_BITS * digits).rem(n)?;
            return Ok(MontgomeryCtx {
                n: n.clone(),
                n0: word_neg_inv(n_limbs[0]) & ifma::MASK,
                n_limbs: to_digits(&n_limbs, k),
                k,
                r1: to_digits(r1_big.limbs(), k),
                r2: to_digits(r2_big.limbs(), k),
                one: to_digits(&[1], k),
                kernel,
            });
        }
        let k = n_limbs.len();

        // R = 2^(64k): one shifted division each for R mod n and
        // R^2 mod n. These are the only divisions the context ever does.
        let r1_big = BigUint::one().shl(64 * k).rem(n)?;
        let r2_big = BigUint::one().shl(128 * k).rem(n)?;

        Ok(MontgomeryCtx {
            n: n.clone(),
            n0: word_neg_inv(n_limbs[0]),
            n_limbs,
            k,
            r1: pad(&r1_big, k),
            r2: pad(&r2_big, k),
            one: pad(&BigUint::one(), k),
            kernel,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Words per residue: 64-bit limbs on the scalar kernel, 52-bit
    /// digits padded to whole vectors on the vector one.
    pub fn limb_count(&self) -> usize {
        self.k
    }

    /// The kernel this context multiplies with: `"scalar"` or
    /// `"avx512ifma"`.
    pub fn kernel(&self) -> &'static str {
        match self.kernel {
            Kernel::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma { .. } => "avx512ifma",
        }
    }

    /// `R mod n` — the Montgomery form of 1 (identity accumulator).
    pub(crate) fn mont_one(&self) -> &[u64] {
        &self.r1
    }

    /// Montgomery multiplication into caller scratch:
    /// `out = a * b * R^-1 mod n`.
    ///
    /// `a` and `b` are `k`-word values `< n`; `out` is any `k`-word
    /// buffer (its old contents are ignored) and comes back `< n`: the
    /// accumulator stays below `2n`, so it needs one bit above `out`
    /// and at most one trailing subtraction. Counts one [`Unit::MontMul`].
    pub(crate) fn mont_mul_into(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        work::add(Unit::MontMul, 1);
        #[cfg(target_arch = "x86_64")]
        if let Kernel::Ifma { cpu, digits } = self.kernel {
            cpu.mul(self.amm(digits, out, a, b), None);
            return;
        }
        // Every slice cut to `k` here, so the loops below index without
        // bounds checks.
        let k = self.k;
        let (t, a, b, n) = (&mut out[..k], &a[..k], &b[..k], &self.n_limbs[..k]);
        t.fill(0);
        let mut top = 0u64;
        for &bi in b {
            let bi = bi as u128;
            // Column 0 fixes m so that the low word of t + a·bᵢ + m·n
            // cancels; after that the two rows only meet in the store.
            let s = t[0] as u128 + a[0] as u128 * bi;
            let m = (s as u64).wrapping_mul(self.n0) as u128;
            let r = (s as u64) as u128 + m * n[0] as u128;
            let (mut c1, mut c2) = ((s >> 64) as u64, (r >> 64) as u64);
            for j in 1..k {
                let s = t[j] as u128 + a[j] as u128 * bi + c1 as u128;
                c1 = (s >> 64) as u64;
                let r = (s as u64) as u128 + m * n[j] as u128 + c2 as u128;
                c2 = (r >> 64) as u64;
                t[j - 1] = r as u64;
            }
            let s = top as u128 + c1 as u128 + c2 as u128;
            t[k - 1] = s as u64;
            top = (s >> 64) as u64;
        }
        if top != 0 || limbs_cmp(t, n) != Ordering::Less {
            let borrow = sub_in_place(t, n);
            debug_assert_eq!(borrow as u64, top, "montgomery accumulator reached 2n");
        }
    }

    /// One product on this context, as the vector kernel takes it.
    #[cfg(target_arch = "x86_64")]
    fn amm<'a>(
        &'a self,
        digits: usize,
        out: &'a mut [u64],
        a: &'a [u64],
        b: &'a [u64],
    ) -> ifma::Amm<'a> {
        let k = self.k;
        let (out, a, b) = (&mut out[..k], &a[..k], &b[..k]);
        ifma::Amm { out, a, b, n: &self.n_limbs, n0: self.n0, digits }
    }

    /// `out = a·b·R⁻¹ mod n` on this context and `out2 = a2·b2·R'⁻¹ mod
    /// n'` on `other`: in one interleaved loop when both run the vector
    /// kernel at one width, else one after the other. Counts two
    /// [`Unit::MontMul`] either way.
    #[allow(clippy::too_many_arguments)]
    fn mont_mul_pair(
        &self,
        out: &mut [u64],
        a: &[u64],
        b: &[u64],
        other: &MontgomeryCtx,
        out2: &mut [u64],
        a2: &[u64],
        b2: &[u64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if let (Kernel::Ifma { cpu, digits }, Kernel::Ifma { digits: digits2, .. }) =
            (self.kernel, other.kernel)
        {
            if digits == digits2 {
                work::add(Unit::MontMul, 2);
                cpu.mul(self.amm(digits, out, a, b), Some(other.amm(digits, out2, a2, b2)));
                return;
            }
        }
        self.mont_mul_into(out, a, b);
        other.mont_mul_into(out2, a2, b2);
    }

    /// Allocating form of [`Self::mont_mul_into`], for table entries
    /// and conversions that keep their result.
    fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.k];
        self.mont_mul_into(&mut out, a, b);
        out
    }

    /// `acc ← acc · b` through the spare buffer `tmp` (which then holds
    /// the old accumulator's storage).
    #[inline]
    pub(crate) fn mul_assign(&self, acc: &mut Vec<u64>, tmp: &mut Vec<u64>, b: &[u64]) {
        self.mont_mul_into(tmp, acc, b);
        std::mem::swap(acc, tmp);
    }

    /// `acc ← acc²` through the spare buffer `tmp`.
    #[inline]
    pub(crate) fn square_assign(&self, acc: &mut Vec<u64>, tmp: &mut Vec<u64>) {
        self.mont_mul_into(tmp, acc, acc);
        std::mem::swap(acc, tmp);
    }

    /// Maps the Montgomery-form `acc` back (`acc * R^-1 mod n`) into
    /// the spare buffer, which becomes the result's limbs.
    pub(crate) fn finish(&self, acc: &[u64], mut tmp: Vec<u64>) -> BigUint {
        self.mont_mul_into(&mut tmp, acc, &self.one);
        self.value(tmp)
    }

    /// The plain value of `k` residue words.
    fn value(&self, words: Vec<u64>) -> BigUint {
        match self.kernel {
            Kernel::Scalar => BigUint::from_limbs(words),
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma { .. } => BigUint::from_limbs(from_digits(&words)),
        }
    }

    /// `v mod n` as exactly `k` words. On the scalar kernel, values
    /// already `< n` and `k` limbs wide — ciphertexts, group elements,
    /// anything produced by this context — are borrowed as they are: no
    /// Knuth division, no copy. The vector kernel converts every value
    /// to digits here.
    fn reduced<'a>(&self, v: &'a BigUint) -> Result<Cow<'a, [u64]>> {
        #[cfg(target_arch = "x86_64")]
        if let Kernel::Ifma { .. } = self.kernel {
            return Ok(Cow::Owned(if v.cmp_to(&self.n) != Ordering::Less {
                to_digits(v.rem(&self.n)?.limbs(), self.k)
            } else {
                to_digits(v.limbs(), self.k)
            }));
        }
        if v.cmp_to(&self.n) != Ordering::Less {
            return Ok(Cow::Owned(pad(&v.rem(&self.n)?, self.k)));
        }
        Ok(if v.limbs().len() == self.k {
            Cow::Borrowed(v.limbs())
        } else {
            Cow::Owned(pad(v, self.k))
        })
    }

    /// Reduces (only if needed) and maps a value into Montgomery form:
    /// `v * R mod n`.
    pub(crate) fn prepare(&self, v: &BigUint) -> Result<Vec<u64>> {
        Ok(self.mont_mul(&self.reduced(v)?, &self.r2))
    }

    /// `(a * b) mod n` without division.
    ///
    /// Only one operand needs the Montgomery conversion: mapping `a`
    /// to `aR` and multiplying by plain `b` yields `aR * b * R^-1 =
    /// ab mod n` directly.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> Result<BigUint> {
        let am = self.prepare(a)?;
        Ok(self.value(self.mont_mul(&am, &self.reduced(b)?)))
    }

    /// The 8 odd powers `bm^1, bm^3, …, bm^15` of a Montgomery-form
    /// base, flat with a stride of `k` words. `tmp` is scratch.
    fn odd_powers(&self, bm: &[u64], tmp: &mut [u64]) -> Vec<u64> {
        let k = self.k;
        self.mont_mul_into(tmp, bm, bm);
        let mut table = vec![0u64; WINDOW_TABLE * k];
        table[..k].copy_from_slice(bm);
        for i in 1..WINDOW_TABLE {
            let (done, rest) = table.split_at_mut(i * k);
            self.mont_mul_into(&mut rest[..k], &done[(i - 1) * k..], tmp);
        }
        table
    }

    /// `base^exp mod n` by sliding-window Montgomery exponentiation.
    ///
    /// Window width is 4 bits with a precomputed table of the 8 odd
    /// powers `base^1, base^3, ..., base^15` (all in Montgomery form),
    /// so long runs of exponent bits cost squarings plus one table
    /// multiplication per window; an exponent of at most 9 set bits
    /// skips the table.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> Result<BigUint> {
        if exp.is_zero() {
            return Ok(BigUint::one());
        }
        let mut chain = Chain::new(self, base, exp)?;
        while let Some(op) = chain.ops.next() {
            chain.step(op);
        }
        Ok(chain.finish())
    }

    /// `(x^e mod n, y^f mod n')` for this context's `n` and `other`'s
    /// `n'` — the two halves of a CRT exponentiation.
    ///
    /// The same products as `self.pow(x, e)` and `other.pow(y, f)`, in
    /// each one's order, with the same results and [`Unit::MontMul`]
    /// count. When both contexts run the vector kernel, the two
    /// schedules advance in lockstep, one product of each per step of
    /// the interleaved kernel; otherwise this is those two `pow`s.
    pub fn pow_pair(
        &self,
        x: &BigUint,
        e: &BigUint,
        other: &MontgomeryCtx,
        y: &BigUint,
        f: &BigUint,
    ) -> Result<(BigUint, BigUint)> {
        let scalar = self.kernel == Kernel::Scalar || other.kernel == Kernel::Scalar;
        if scalar || e.is_zero() || f.is_zero() {
            return Ok((self.pow(x, e)?, other.pow(y, f)?));
        }
        let (mut c1, mut c2) = (Chain::new(self, x, e)?, Chain::new(other, y, f)?);
        loop {
            match (c1.ops.next(), c2.ops.next()) {
                (Some(op1), Some(op2)) => Chain::step_pair(&mut c1, op1, &mut c2, op2),
                (Some(op1), None) => c1.step(op1),
                (None, Some(op2)) => c2.step(op2),
                (None, None) => break,
            }
        }
        Ok((c1.finish(), c2.finish()))
    }

    /// Simultaneous multi-exponentiation (Straus): `Π bᵢ^{eᵢ} mod n`
    /// for small `u64` exponents.
    ///
    /// All bases share one squaring chain — the accumulator is squared
    /// once per bit of the *longest* exponent (≤ 64 squarings total),
    /// and each base multiplies in only at its set bits. For a PIR-style
    /// dot product over thousands of bases this replaces a full
    /// exponentiation per base with ~popcount(eᵢ) multiplications per
    /// base, plus one Montgomery conversion each.
    pub fn multi_pow_u64(&self, bases: &[&BigUint], exps: &[u64]) -> Result<BigUint> {
        if bases.len() != exps.len() {
            return Err(CryptoError::OutOfRange("multi_pow operand length mismatch"));
        }
        let bases_m: Vec<Vec<u64>> = bases
            .iter()
            .map(|b| self.prepare(b))
            .collect::<Result<_>>()?;
        let max_bits = exps.iter().map(|e| 64 - e.leading_zeros()).max().unwrap_or(0);

        let mut acc = self.r1.clone();
        let mut tmp = vec![0u64; self.k];
        for bit in (0..max_bits).rev() {
            self.square_assign(&mut acc, &mut tmp);
            for (bm, &e) in bases_m.iter().zip(exps) {
                if (e >> bit) & 1 == 1 {
                    self.mul_assign(&mut acc, &mut tmp, bm);
                }
            }
        }
        Ok(self.finish(&acc, tmp))
    }

    /// Shared-exponent multi-exponentiation over a whole batch:
    /// `out[j] = Π_i rows[j][i]^{exps[i]} mod n` for every row, with ONE
    /// digit decomposition of the shared exponent vector.
    ///
    /// Pippenger's bucket method: exponents split into `w`-bit digits
    /// (width chosen to minimize total multiplications); per digit
    /// position each base lands in the bucket of its digit (one
    /// multiplication per *nonzero digit*, versus one per *set bit* in
    /// [`Self::multi_pow_u64`]), and buckets collapse with the
    /// descending running-product trick (≤ 2·2^w multiplications per
    /// position). The digit schedule depends only on `exps`, so it is
    /// computed once and reused by every row — the multi-query PIR
    /// server's matrix pass is the intended caller. Rows with no work
    /// return 1.
    pub fn multi_pow_u64_rows(&self, rows: &[&[&BigUint]], exps: &[u64]) -> Result<Vec<BigUint>> {
        let n = exps.len();
        for row in rows {
            if row.len() != n {
                return Err(CryptoError::OutOfRange("multi_pow row length mismatch"));
            }
        }
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let max_bits = exps.iter().map(|e| 64 - e.leading_zeros()).max().unwrap_or(0) as usize;
        if max_bits == 0 {
            return Ok(vec![BigUint::one(); rows.len()]);
        }
        // Window width minimizing positions·(per-row muls + bucket merge).
        let (mut w, mut best) = (1usize, usize::MAX);
        for cand in 1..=16usize {
            let cost = max_bits.div_ceil(cand) * (n + 2 * ((1usize << cand) - 1));
            if cost < best {
                (w, best) = (cand, cost);
            }
        }
        let positions = max_bits.div_ceil(w);
        let mask = (1u64 << w) - 1;
        // Shared digit schedule: digits[p] lists (base index, digit)
        // pairs with a nonzero digit at position p, plus the largest
        // digit seen there (bounds the merge walk).
        let mut digits: Vec<(Vec<(u32, u32)>, usize)> = vec![(Vec::new(), 0); positions];
        for (i, &e) in exps.iter().enumerate() {
            let (mut e, mut p) = (e, 0usize);
            while e != 0 {
                let d = (e & mask) as usize;
                if d != 0 {
                    digits[p].0.push((i as u32, d as u32));
                    digits[p].1 = digits[p].1.max(d);
                }
                e >>= w;
                p += 1;
            }
        }
        let mut tmp = vec![0u64; self.k];
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let row_m: Vec<Vec<u64>> =
                row.iter().map(|b| self.prepare(b)).collect::<Result<_>>()?;
            // Absent accumulators stand for the identity, so empty
            // buckets and positions cost nothing.
            let mut acc: Option<Vec<u64>> = None;
            for p in (0..positions).rev() {
                if let Some(a) = acc.as_mut() {
                    for _ in 0..w {
                        self.square_assign(a, &mut tmp);
                    }
                }
                let (events, max_d) = &digits[p];
                if events.is_empty() {
                    continue;
                }
                let mut buckets: Vec<Option<Vec<u64>>> = vec![None; max_d + 1];
                for &(i, d) in events {
                    self.fold(&mut buckets[d as usize], &mut tmp, &row_m[i as usize]);
                }
                // W_p = Π_d bucket[d]^d: walking d downward, `running`
                // is Π_{d'≥d} bucket[d'] and folds into `sum` once per
                // step, so bucket[d'] ends up multiplied in d' times.
                let (mut running, mut sum): (Option<Vec<u64>>, Option<Vec<u64>>) = (None, None);
                for bucket in buckets[1..].iter().rev() {
                    if let Some(b) = bucket {
                        self.fold(&mut running, &mut tmp, b);
                    }
                    if let Some(r) = &running {
                        self.fold(&mut sum, &mut tmp, r);
                    }
                }
                if let Some(s) = sum {
                    self.fold(&mut acc, &mut tmp, &s);
                }
            }
            out.push(match acc {
                Some(a) => self.finish(&a, vec![0u64; self.k]),
                None => BigUint::one(),
            });
        }
        Ok(out)
    }

    /// Simultaneous multi-exponentiation for full-width exponents:
    /// `Π bᵢ^{eᵢ} mod n` with arbitrary [`BigUint`] exponents.
    ///
    /// Interleaved sliding-window Straus: one squaring chain driven by
    /// the *longest* exponent, shared by every base, plus per base an
    /// 8-entry odd-power table and one multiplication per ~5-bit
    /// greedy window. For `m` bases of `b`-bit exponents this costs
    /// `b` squarings + `m·(8 + b/5)` multiplications versus
    /// `m·(b + 8 + b/5)` for independent pows — the collapse that
    /// makes random-linear-combination batch verification profitable.
    pub fn multi_pow(&self, bases: &[&BigUint], exps: &[&BigUint]) -> Result<BigUint> {
        if bases.len() != exps.len() {
            return Err(CryptoError::OutOfRange("multi_pow operand length mismatch"));
        }
        let max_bits = exps.iter().map(|e| e.bits()).max().unwrap_or(0);
        if max_bits == 0 {
            return Ok(BigUint::one());
        }
        let k = self.k;
        let mut tmp = vec![0u64; k];
        // Per-base odd-power table (base^1, base^3, …, base^15) and a
        // greedy sliding-window recoding of its exponent — the same
        // recoding `pow` uses, but all bases ride one squaring chain.
        // A window `(base, table entry, next)` is a multiplication that
        // fires once the chain has squared down to its lowest bit;
        // `first[pos]` starts the chain, linked through `next`, of the
        // windows whose lowest bit is `pos`.
        const END: u32 = u32::MAX;
        let mut first = vec![END; max_bits];
        let mut windows: Vec<(u32, u8, u32)> = Vec::with_capacity(bases.len() * (max_bits / 5 + 1));
        let mut tables: Vec<Vec<u64>> = Vec::with_capacity(bases.len());
        for (bi, (b, e)) in bases.iter().zip(exps).enumerate() {
            if e.is_zero() {
                tables.push(Vec::new());
                continue;
            }
            tables.push(self.odd_powers(&self.prepare(b)?, &mut tmp));
            let mut i = e.bits() as isize - 1;
            while i >= 0 {
                if !e.bit(i as usize) {
                    i -= 1;
                    continue;
                }
                let (lo, idx) = window_at(e, i);
                windows.push((bi as u32, idx as u8, first[lo as usize]));
                first[lo as usize] = (windows.len() - 1) as u32;
                i = lo - 1;
            }
        }

        let mut acc = self.r1.clone();
        for pos in (0..max_bits).rev() {
            self.square_assign(&mut acc, &mut tmp);
            let mut w = first[pos];
            while w != END {
                let (bi, idx, next) = windows[w as usize];
                let entry = &tables[bi as usize][idx as usize * k..][..k];
                self.mul_assign(&mut acc, &mut tmp, entry);
                w = next;
            }
        }
        Ok(self.finish(&acc, tmp))
    }

    /// `acc ← acc · b`, an absent accumulator standing for the identity
    /// (so the first factor is a copy, not a multiplication).
    #[inline]
    pub(crate) fn fold(&self, acc: &mut Option<Vec<u64>>, tmp: &mut Vec<u64>, b: &[u64]) {
        match acc {
            Some(a) => self.mul_assign(a, tmp, b),
            None => *acc = Some(b.to_vec()),
        }
    }
}

/// The greedy sliding window whose top bit is the set bit `i` of `exp`:
/// extend down to 4 bits, then shrink back so the window ends on a set
/// bit (keeps the table odd-only). Returns the window's lowest bit and
/// the odd-power table index `(value − 1) / 2`.
fn window_at(exp: &BigUint, i: isize) -> (isize, usize) {
    let mut lo = (i - 3).max(0);
    while !exp.bit(lo as usize) {
        lo += 1;
    }
    let mut val = 0usize;
    for b in (lo..=i).rev() {
        val = (val << 1) | exp.bit(b as usize) as usize;
    }
    (lo, (val - 1) / 2)
}

/// One step of an exponentiation's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// `acc ← acc²`.
    Square,
    /// `acc ← acc · table[i]`.
    Mul(usize),
}

/// The multiplications `pow` makes after its table, in order: plain
/// left-to-right square-and-multiply for an exponent of at most 9 set
/// bits (scalar weights, small plaintexts, RSA's `e = 2^16 + 1`: there
/// the window table's 8 multiplications cost more than it saves), else
/// the greedy 4-bit sliding window of [`window_at`]. Once exhausted it
/// stays exhausted.
struct Schedule<'e> {
    exp: &'e BigUint,
    sparse: bool,
    /// The next exponent bit to read; negative when done.
    i: isize,
    /// Squarings due before `then`.
    squares: usize,
    /// The table multiplication that closes the current window.
    then: Option<usize>,
}

impl<'e> Schedule<'e> {
    /// `exp` is nonzero.
    fn new(exp: &'e BigUint) -> Schedule<'e> {
        let sparse = exp.limbs().iter().map(|l| l.count_ones()).sum::<u32>() <= 9;
        // The sparse walk starts from the base itself, past the top bit.
        let top = exp.bits() as isize - 1;
        Schedule { exp, sparse, i: if sparse { top - 1 } else { top }, squares: 0, then: None }
    }
}

impl Iterator for Schedule<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.squares > 0 {
            self.squares -= 1;
            return Some(Op::Square);
        }
        if let Some(idx) = self.then.take() {
            return Some(Op::Mul(idx));
        }
        if self.i < 0 {
            return None;
        }
        let i = self.i;
        if self.sparse {
            self.then = self.exp.bit(i as usize).then_some(0);
            self.i -= 1;
        } else if !self.exp.bit(i as usize) {
            self.i -= 1;
        } else {
            let (lo, idx) = window_at(self.exp, i);
            self.squares = (i - lo) as usize;
            self.then = Some(idx);
            self.i = lo - 1;
        }
        Some(Op::Square)
    }
}

/// One exponentiation in progress: its schedule, its window table (or,
/// on the sparse walk, the base alone as entry 0), an accumulator and
/// its spare buffer.
struct Chain<'a> {
    ctx: &'a MontgomeryCtx,
    ops: Schedule<'a>,
    table: Vec<u64>,
    acc: Vec<u64>,
    tmp: Vec<u64>,
}

impl<'a> Chain<'a> {
    /// Maps `base` into Montgomery form and builds the table: the
    /// products `pow` makes before its loop. `exp` is nonzero.
    fn new(ctx: &'a MontgomeryCtx, base: &BigUint, exp: &'a BigUint) -> Result<Chain<'a>> {
        let bm = ctx.prepare(base)?;
        let mut tmp = vec![0u64; ctx.k];
        let ops = Schedule::new(exp);
        let (table, acc) = if ops.sparse {
            let acc = bm.clone();
            (bm, acc)
        } else {
            (ctx.odd_powers(&bm, &mut tmp), ctx.r1.clone())
        };
        Ok(Chain { ctx, ops, table, acc, tmp })
    }

    /// The second operand of `op`.
    fn operand<'t>(acc: &'t [u64], table: &'t [u64], op: Op, k: usize) -> &'t [u64] {
        match op {
            Op::Square => acc,
            Op::Mul(idx) => &table[idx * k..][..k],
        }
    }

    /// Applies `op` to the accumulator.
    fn step(&mut self, op: Op) {
        let b = Self::operand(&self.acc, &self.table, op, self.ctx.k);
        self.ctx.mont_mul_into(&mut self.tmp, &self.acc, b);
        std::mem::swap(&mut self.acc, &mut self.tmp);
    }

    /// Applies `op1` to `c1` and `op2` to `c2` as one paired product.
    fn step_pair(c1: &mut Chain<'_>, op1: Op, c2: &mut Chain<'_>, op2: Op) {
        let b1 = Self::operand(&c1.acc, &c1.table, op1, c1.ctx.k);
        let b2 = Self::operand(&c2.acc, &c2.table, op2, c2.ctx.k);
        c1.ctx.mont_mul_pair(&mut c1.tmp, &c1.acc, b1, c2.ctx, &mut c2.tmp, &c2.acc, b2);
        std::mem::swap(&mut c1.acc, &mut c1.tmp);
        std::mem::swap(&mut c2.acc, &mut c2.tmp);
    }

    /// The result, out of Montgomery form.
    fn finish(self) -> BigUint {
        self.ctx.finish(&self.acc, self.tmp)
    }
}

/// 64-bit limbs (little-endian, any length) as exactly `k` 52-bit
/// digits; the value must fit.
#[cfg(target_arch = "x86_64")]
fn to_digits(limbs: &[u64], k: usize) -> Vec<u64> {
    let mut digits = vec![0u64; k];
    for (i, d) in digits.iter_mut().enumerate() {
        let (w, s) = (ifma::DIGIT_BITS * i / 64, ifma::DIGIT_BITS * i % 64);
        let Some(&low) = limbs.get(w) else { break };
        let high = match limbs.get(w + 1) {
            Some(&h) if s > 64 - ifma::DIGIT_BITS => h << (64 - s),
            _ => 0,
        };
        *d = ((low >> s) | high) & ifma::MASK;
    }
    digits
}

/// 52-bit digits back to 64-bit limbs.
#[cfg(target_arch = "x86_64")]
fn from_digits(digits: &[u64]) -> Vec<u64> {
    let mut limbs = vec![0u64; (ifma::DIGIT_BITS * digits.len()).div_ceil(64)];
    for (i, &d) in digits.iter().enumerate() {
        let (w, s) = (ifma::DIGIT_BITS * i / 64, ifma::DIGIT_BITS * i % 64);
        limbs[w] |= d << s;
        if s > 64 - ifma::DIGIT_BITS {
            limbs[w + 1] |= d >> (64 - s);
        }
    }
    limbs
}

/// Pads a reduced value out to exactly `k` limbs.
fn pad(v: &BigUint, k: usize) -> Vec<u64> {
    let mut limbs = v.limbs().to_vec();
    debug_assert!(limbs.len() <= k);
    limbs.resize(k, 0);
    limbs
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use prever_obs::work::measure;
    use rand::{rngs::StdRng, SeedableRng};
    use std::cell::Cell;

    /// A kernel a test asks for, in place of [`Kernel::choose`]'s rule.
    #[derive(Clone, Copy, Debug)]
    pub(crate) enum Forced {
        Scalar,
        /// The vector kernel at every width it fits, crossover ignored.
        Vector,
    }

    impl Forced {
        pub(super) fn kernel(self, bits: usize) -> Kernel {
            match self {
                Forced::Scalar => Kernel::Scalar,
                Forced::Vector => Kernel::vector(bits).unwrap_or(Kernel::Scalar),
            }
        }
    }

    thread_local! {
        pub(super) static FORCED: Cell<Option<Forced>> = const { Cell::new(None) };
    }

    /// Runs `f` with every context this thread builds on `kernel`.
    pub(crate) fn forcing<R>(kernel: Forced, f: impl FnOnce() -> R) -> R {
        let before = FORCED.replace(Some(kernel));
        let out = f();
        FORCED.set(before);
        out
    }

    /// The scalar kernel, and the vector one where the CPU has it (with
    /// the reason printed where it does not).
    pub(crate) fn kernels() -> Vec<(&'static str, Forced)> {
        let mut all = vec![("scalar", Forced::Scalar)];
        if Kernel::vector(VECTOR_MIN_BITS).is_some() {
            all.push(("avx512ifma", Forced::Vector));
        } else {
            eprintln!(
                "skipped: this CPU does not report avx512f/avx512ifma; only the scalar kernel ran"
            );
        }
        all
    }

    fn ctx(hex: &str) -> MontgomeryCtx {
        MontgomeryCtx::new(&BigUint::from_hex(hex).unwrap()).unwrap()
    }

    /// `log2 R` of a context.
    fn r_bits(ctx: &MontgomeryCtx) -> usize {
        match ctx.kernel {
            Kernel::Scalar => 64 * ctx.k,
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma { digits, .. } => ifma::DIGIT_BITS * digits,
        }
    }

    /// A random odd modulus of exactly `bits` bits.
    fn odd_modulus(bits: usize, rng: &mut StdRng) -> BigUint {
        let m = BigUint::one().shl(bits - 1).add(&BigUint::random_bits(bits - 1, rng));
        if m.is_even() {
            m.add(&BigUint::one())
        } else {
            m
        }
    }

    #[test]
    fn rejects_even_and_trivial_moduli() {
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_err());
        assert!(MontgomeryCtx::new(&BigUint::one()).is_err());
        assert!(MontgomeryCtx::new(&BigUint::from_u64(100)).is_err());
        assert!(MontgomeryCtx::new(&BigUint::from_u64(101)).is_ok());
    }

    #[test]
    fn word_inverse_is_correct() {
        for n in [3u64, 0xffff_ffff_ffff_ffff, 0x1234_5678_9abc_def1] {
            let ctx = MontgomeryCtx::new(&BigUint::from_u64(n)).unwrap();
            assert_eq!(n.wrapping_mul(ctx.n0), u64::MAX); // n * (-n^-1) = -1
        }
    }

    #[test]
    fn the_kernel_follows_the_width_and_the_cpu() {
        let mut rng = StdRng::seed_from_u64(3);
        let vector = Kernel::vector(VECTOR_MIN_BITS).is_some();
        for (bits, wide) in [(VECTOR_MIN_BITS - 1, false), (VECTOR_MIN_BITS, true), (2048, true)] {
            let ctx = MontgomeryCtx::new(&odd_modulus(bits, &mut rng)).unwrap();
            let want = if wide && vector { "avx512ifma" } else { "scalar" };
            assert_eq!(ctx.kernel(), want, "{bits} bits");
        }
    }

    /// The coarsely-integrated (CIOS) multiplication `mont_mul_into`
    /// replaced — the `a·bᵢ` row, then the `m·n` row, on a `k + 2`-limb
    /// accumulator — kept as its reference.
    fn mont_mul_cios(ctx: &MontgomeryCtx, a: &[u64], b: &[u64]) -> Vec<u64> {
        let k = ctx.k;
        let n = &ctx.n_limbs;
        let mut t = vec![0u64; k + 2];
        for &bi in b.iter().take(k) {
            let mut carry: u64 = 0;
            for j in 0..k {
                let s = t[j] as u128 + a[j] as u128 * bi as u128 + carry as u128;
                t[j] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = t[k] as u128 + carry as u128;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;

            let m = t[0].wrapping_mul(ctx.n0);
            let s = t[0] as u128 + m as u128 * n[0] as u128;
            let mut carry = (s >> 64) as u64;
            for j in 1..k {
                let s = t[j] as u128 + m as u128 * n[j] as u128 + carry as u128;
                t[j - 1] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = t[k] as u128 + carry as u128;
            t[k - 1] = s as u64;
            t[k] = t[k + 1] + (s >> 64) as u64;
            t[k + 1] = 0;
        }
        let mut t = BigUint::from_limbs(t);
        if t.cmp_to(&ctx.n) != Ordering::Less {
            t = t.sub(&ctx.n);
        }
        pad(&t, k)
    }

    /// `mont_mul_into` is `a·b·R⁻¹ mod n`: checked against `mul().rem()`
    /// (multiply the answer back by `R`), into an output buffer that
    /// holds stale words; the scalar kernel also against the CIOS body,
    /// the vector one for whole 52-bit digits.
    fn check_mont_mul(ctx: &MontgomeryCtx, a: &BigUint, b: &BigUint) {
        let (k, kernel) = (ctx.k, ctx.kernel());
        let (al, bl) = (ctx.reduced(a).unwrap().into_owned(), ctx.reduced(b).unwrap().into_owned());
        let mut out = vec![0xdead_beef_dead_beef_u64; k];
        ctx.mont_mul_into(&mut out, &al, &bl);
        if ctx.kernel == Kernel::Scalar {
            assert_eq!(out, mont_mul_cios(ctx, &al, &bl), "k = {k}: {a:?} * {b:?}");
        } else {
            assert!(out.iter().all(|&d| d >> 52 == 0), "{kernel}, k = {k}: a digit above 2^52");
        }
        let got = ctx.value(out);
        assert!(got < ctx.n, "{kernel}, k = {k}: {a:?} * {b:?} not reduced");
        assert_eq!(
            got.shl(r_bits(ctx)).rem(&ctx.n).unwrap(),
            a.mul(b).rem(&ctx.n).unwrap(),
            "{kernel}, k = {k}: {a:?} * {b:?}"
        );
    }

    #[test]
    fn mont_mul_into_matches_schoolbook_at_every_width() {
        // Limb widths 1–33, both sides of the crossover, and of the
        // digit padding: 830 bits is 16 digits (two whole vectors), 831
        // is 17; 2048 and 2049 bits are 40 digits, 2112 is 41.
        let mut widths: Vec<usize> = [1usize, 2, 3, 4, 8, 16, 17, 32, 33].map(|k| 64 * k).to_vec();
        widths.extend([VECTOR_MIN_BITS - 1, VECTOR_MIN_BITS, 830, 831, 1023, 1025, 2047, 2049]);
        for (name, kernel) in kernels() {
            let mut rng = StdRng::seed_from_u64(5);
            for &bits in &widths {
                // The all-ones modulus makes the longest carries; the
                // others are random odd values with the top bit set.
                let all_ones = BigUint::one().shl(bits).sub(&BigUint::one());
                let mut moduli = vec![all_ones];
                moduli.extend((0..3).map(|_| odd_modulus(bits, &mut rng)));
                for n in moduli {
                    let ctx = forcing(kernel, || MontgomeryCtx::new(&n).unwrap());
                    assert_eq!(ctx.kernel(), name, "{bits} bits");
                    let top = n.sub(&BigUint::one());
                    let edge = [BigUint::zero(), BigUint::one(), top.clone()];
                    for a in &edge {
                        for b in &edge {
                            check_mont_mul(&ctx, a, b);
                        }
                    }
                    for _ in 0..8 {
                        let a = BigUint::random_below(&n, &mut rng);
                        let b = BigUint::random_below(&n, &mut rng);
                        check_mont_mul(&ctx, &a, &b);
                        check_mont_mul(&ctx, &a, &top);
                        check_mont_mul(&ctx, &a, &a);
                    }
                }
            }
        }
    }

    #[test]
    fn pow_pair_matches_two_pows() {
        let mut rng = StdRng::seed_from_u64(19);
        let one = BigUint::one();
        for (name, kernel) in kernels() {
            // One, two and three vectors a side (the interleaved vector
            // kernel), five (one product after the other), and unequal
            // digit counts (one after the other).
            let shapes =
                [(96, 96), (512, 512), (1024, 1024), (2048, 2048), (1023, 1100), (512, 2048)];
            for (bits1, bits2) in shapes {
                let (n1, n2) = (odd_modulus(bits1, &mut rng), odd_modulus(bits2, &mut rng));
                let (c1, c2) = forcing(kernel, || {
                    (MontgomeryCtx::new(&n1).unwrap(), MontgomeryCtx::new(&n2).unwrap())
                });
                let x = BigUint::random_below(&n1, &mut rng);
                let y = BigUint::random_below(&n2, &mut rng);
                // Dense, sparse, zero and one, and of different lengths.
                let exps = [
                    BigUint::random_bits(bits1 / 2, &mut rng),
                    BigUint::random_bits(bits2 / 3, &mut rng),
                    BigUint::from_u64(65537),
                    BigUint::zero(),
                    one.clone(),
                ];
                for e in &exps {
                    for f in &exps {
                        let (pair, pair_muls) = measure(|| c1.pow_pair(&x, e, &c2, &y, f).unwrap());
                        let (two, two_muls) =
                            measure(|| (c1.pow(&x, e).unwrap(), c2.pow(&y, f).unwrap()));
                        assert_eq!(pair, two, "{name}: {bits1}/{bits2} bits, e = {e:?}, f = {f:?}");
                        assert_eq!(pair_muls, two_muls, "{name}: {bits1}/{bits2} bits");
                    }
                }
            }
        }
    }

    /// Paillier and RSA at the benchmark's key sizes (`keygen(512)`: a
    /// 2 048-bit `n²`, 1 024-bit `p²`, `q²` and RSA `n`, 512-bit RSA
    /// primes) from one seed: on every kernel, the same ciphertexts,
    /// decryption, signature and blinded token — the bytes the
    /// scalar-only code made from this seed, pinned by their SHA-256 —
    /// and the same count of Montgomery multiplications for each step:
    /// encrypt, rerandomize, decrypt, sign, blind, verify.
    #[test]
    fn benchmark_key_sizes_give_the_same_bytes_and_work_on_every_kernel() {
        use crate::sha256::Sha256;
        use crate::{paillier, rsa};
        for (name, kernel) in kernels() {
            let (digest, counts) = forcing(kernel, || {
                let mut rng = StdRng::seed_from_u64(1);
                let sk = paillier::keygen(512, &mut rng);
                let (c, enc) = measure(|| sk.public.encrypt_u64(40, &mut rng).unwrap());
                let (c2, rer) = measure(|| sk.public.rerandomize(&c, &mut rng).unwrap());
                let (m, dec) = measure(|| sk.decrypt(&c2).unwrap());
                let key = rsa::keygen(512, &mut rng);
                let (sig, sign) = measure(|| key.sign(b"token").unwrap());
                let ((blinded, _), blind) =
                    measure(|| rsa::blind(&key.public, b"token", &mut rng).unwrap());
                let ((), verify) = measure(|| key.public.verify(b"token", &sig).unwrap());
                assert_eq!(m, BigUint::from_u64(40), "{name}");
                let mut h = Sha256::new();
                for v in [c.as_biguint(), c2.as_biguint(), &m, &sig.0, &blinded] {
                    h.update(&v.to_bytes_be());
                }
                let counts = [enc, rer, dec, sign, blind, verify].map(|w| w[Unit::MontMul]);
                (h.finalize().to_hex(), counts)
            });
            assert_eq!(
                digest, "1b853ed52893b66d2665163b17b62cc5cae6b0f6a5d456283e703a3c194fdb3d",
                "{name}: outputs differ from the scalar kernel's"
            );
            assert_eq!(counts, [145, 147, 1255, 1250, 21, 19], "{name}: multiplications per step");
        }
    }

    #[test]
    fn mul_matches_schoolbook_small() {
        let m = ctx("fffffffb"); // prime
        for a in [0u64, 1, 2, 0x1234, 0xfffffffa] {
            for b in [0u64, 1, 3, 0xffff, 0xfffffffa] {
                let want = BigUint::from_u64(a)
                    .mul_mod(&BigUint::from_u64(b), m.modulus())
                    .unwrap();
                let got = m
                    .mul_mod(&BigUint::from_u64(a), &BigUint::from_u64(b))
                    .unwrap();
                assert_eq!(got, want, "{a} * {b}");
            }
        }
    }

    #[test]
    fn pow_matches_schoolbook_multi_limb() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = BigUint::gen_prime(192, &mut rng);
        let mctx = MontgomeryCtx::new(&m).unwrap();
        for _ in 0..10 {
            let base = BigUint::random_below(&m, &mut rng);
            let exp = BigUint::random_bits(192, &mut rng);
            let want = base.mod_exp_schoolbook(&exp, &m).unwrap();
            let got = mctx.pow(&base, &exp).unwrap();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn dispatch_edge_cases() {
        // mod_exp must keep its edge semantics across the dispatch:
        // modulus 1 -> 0, exponent 0 -> 1, even modulus -> schoolbook.
        let b = BigUint::from_u64(7);
        let e = BigUint::from_u64(3);
        assert_eq!(b.mod_exp(&e, &BigUint::one()).unwrap(), BigUint::zero());
        assert!(b.mod_exp(&e, &BigUint::zero()).is_err());
        assert_eq!(
            b.mod_exp(&BigUint::zero(), &BigUint::from_u64(10)).unwrap(),
            BigUint::one()
        );
        let even = BigUint::from_u64(100);
        assert_eq!(
            b.mod_exp(&e, &even).unwrap(),
            b.mod_exp_schoolbook(&e, &even).unwrap()
        );
        assert_eq!(b.mod_exp(&e, &even).unwrap(), BigUint::from_u64(43));
    }

    #[test]
    fn pow_edge_exponents() {
        let m = ctx("10000000000000001f"); // odd, > 1 limb boundary
        let b = BigUint::from_u64(0xdead_beef);
        assert_eq!(m.pow(&b, &BigUint::zero()).unwrap(), BigUint::one());
        assert_eq!(m.pow(&b, &BigUint::one()).unwrap(), b);
        assert_eq!(
            m.pow(&BigUint::zero(), &BigUint::from_u64(5)).unwrap(),
            BigUint::zero()
        );
        // Either side of the sparse-exponent cut (9 set bits), however
        // far apart the bits sit.
        for e in ["10001", "80000000000000ff", "800000000000000000001ff"] {
            let e = BigUint::from_hex(e).unwrap();
            assert_eq!(
                m.pow(&b, &e).unwrap(),
                b.mod_exp_schoolbook(&e, m.modulus()).unwrap()
            );
        }
        // base >= n gets reduced first
        let big_base = m.modulus().add(&b);
        assert_eq!(
            m.pow(&big_base, &BigUint::from_u64(3)).unwrap(),
            b.mod_exp_schoolbook(&BigUint::from_u64(3), m.modulus())
                .unwrap()
        );
    }

    #[test]
    fn multi_pow_matches_per_base_pow() {
        for (_, kernel) in kernels() {
            let mut rng = StdRng::seed_from_u64(11);
            let m = BigUint::gen_prime(160, &mut rng);
            let mctx = forcing(kernel, || MontgomeryCtx::new(&m).unwrap());
            let bases: Vec<BigUint> =
                (0..20).map(|_| BigUint::random_below(&m, &mut rng)).collect();
            let exps: Vec<u64> = (0..20).map(|i| [0u64, 1, 7, 64, 513, u64::MAX][i % 6]).collect();
            let mut want = BigUint::one();
            for (b, &e) in bases.iter().zip(&exps) {
                let term = mctx.pow(b, &BigUint::from_u64(e)).unwrap();
                want = want.mul_mod(&term, &m).unwrap();
            }
            let refs: Vec<&BigUint> = bases.iter().collect();
            assert_eq!(mctx.multi_pow_u64(&refs, &exps).unwrap(), want);
            // Empty product is 1.
            assert_eq!(mctx.multi_pow_u64(&[], &[]).unwrap(), BigUint::one());
            // Length mismatch is rejected.
            assert!(mctx.multi_pow_u64(&refs, &exps[1..]).is_err());
        }
    }

    #[test]
    fn multi_pow_rows_matches_per_row_multi_pow() {
        for (_, kernel) in kernels() {
            let mut rng = StdRng::seed_from_u64(17);
            let m = BigUint::gen_prime(160, &mut rng);
            let mctx = forcing(kernel, || MontgomeryCtx::new(&m).unwrap());
            // Mixed exponent regimes: full 64-bit, small values (flag-like
            // records), zeros, and single bits — every bucket-width choice.
            for exps in [
                vec![u64::MAX, 0, 1, 0x1234_5678_9abc_def0, 7, 2, 255, 1 << 63],
                vec![1, 2, 3, 0, 1, 2, 3, 0],
                vec![0, 0, 0, 0, 0, 0, 0, 0],
                (1..=8u64).collect(),
            ] {
                let rows_data: Vec<Vec<BigUint>> = (0..3)
                    .map(|_| (0..exps.len()).map(|_| BigUint::random_below(&m, &mut rng)).collect())
                    .collect();
                let rows_refs: Vec<Vec<&BigUint>> =
                    rows_data.iter().map(|r| r.iter().collect()).collect();
                let rows: Vec<&[&BigUint]> = rows_refs.iter().map(|r| r.as_slice()).collect();
                let got = mctx.multi_pow_u64_rows(&rows, &exps).unwrap();
                for (row, g) in rows.iter().zip(&got) {
                    assert_eq!(g, &mctx.multi_pow_u64(row, &exps).unwrap());
                }
            }
            // Empty batch, empty rows, and length mismatches.
            assert!(mctx.multi_pow_u64_rows(&[], &[1, 2]).unwrap().is_empty());
            let empty: &[&BigUint] = &[];
            assert_eq!(mctx.multi_pow_u64_rows(&[empty], &[]).unwrap(), vec![BigUint::one()]);
            let b = BigUint::from_u64(5);
            let one_row: &[&BigUint] = &[&b];
            assert!(mctx.multi_pow_u64_rows(&[one_row], &[1, 2]).is_err());
        }
    }

    #[test]
    fn multi_pow_full_width_matches_per_base_pow() {
        for (_, kernel) in kernels() {
            let mut rng = StdRng::seed_from_u64(13);
            let m = BigUint::gen_prime(192, &mut rng);
            let mctx = forcing(kernel, || MontgomeryCtx::new(&m).unwrap());
            let bases: Vec<BigUint> =
                (0..8).map(|_| BigUint::random_below(&m, &mut rng)).collect();
            // Mixed widths: zero, single-bit, full-width, and ragged exponents.
            let mut exps: Vec<BigUint> = vec![
                BigUint::zero(),
                BigUint::one(),
                BigUint::random_bits(192, &mut rng),
                BigUint::from_u64(0xffff_ffff_ffff_ffff),
            ];
            while exps.len() < bases.len() {
                let w = 1 + 29 * exps.len();
                exps.push(BigUint::random_bits(w, &mut rng));
            }
            let mut want = BigUint::one();
            for (b, e) in bases.iter().zip(&exps) {
                let term = mctx.pow(b, e).unwrap();
                want = want.mul_mod(&term, &m).unwrap();
            }
            let base_refs: Vec<&BigUint> = bases.iter().collect();
            let exp_refs: Vec<&BigUint> = exps.iter().collect();
            assert_eq!(mctx.multi_pow(&base_refs, &exp_refs).unwrap(), want);
            // Empty product is 1, as is the all-zero-exponent product.
            assert_eq!(mctx.multi_pow(&[], &[]).unwrap(), BigUint::one());
            let zero = BigUint::zero();
            assert_eq!(
                mctx.multi_pow(&[&bases[0]], &[&zero]).unwrap(),
                BigUint::one()
            );
            // Length mismatch is rejected.
            assert!(mctx.multi_pow(&base_refs, &exp_refs[1..]).is_err());
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Random value of up to `max_limbs` limbs (possibly zero).
        fn arb_biguint(max_limbs: usize) -> impl Strategy<Value = BigUint> {
            proptest::collection::vec(any::<u64>(), 0..=max_limbs)
                .prop_map(BigUint::from_limbs)
        }

        /// Random odd modulus of 1..=`max_limbs` limbs, always > 1.
        fn arb_odd_modulus(max_limbs: usize) -> impl Strategy<Value = BigUint> {
            proptest::collection::vec(any::<u64>(), 1..=max_limbs).prop_map(|mut limbs| {
                limbs[0] |= 1; // force odd (also rules out zero)
                let n = BigUint::from_limbs(limbs);
                if n.is_one() {
                    BigUint::from_u64(3)
                } else {
                    n
                }
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // Full-width agreement on products: odd moduli up to 40
            // limbs (2560 bits), operands a shade wider than the
            // modulus so reduction-on-entry is exercised too.
            #[test]
            fn prop_mul_mod_matches_schoolbook(
                m in arb_odd_modulus(40),
                a in arb_biguint(42),
                b in arb_biguint(42),
            ) {
                let ctx = MontgomeryCtx::new(&m).unwrap();
                prop_assert_eq!(
                    ctx.mul_mod(&a, &b).unwrap(),
                    a.mul_mod(&b, &m).unwrap()
                );
            }

            // The kernel itself, between the conversions `mul_mod`
            // wraps around it: any odd modulus up to 40 limbs, any
            // reduced operands, output buffer arbitrary on entry.
            #[test]
            fn prop_mont_mul_into_matches_schoolbook(
                m in arb_odd_modulus(40),
                a in arb_biguint(41),
                b in arb_biguint(41),
            ) {
                for (_, kernel) in kernels() {
                    let ctx = forcing(kernel, || MontgomeryCtx::new(&m).unwrap());
                    check_mont_mul(&ctx, &a.rem(&m).unwrap(), &b.rem(&m).unwrap());
                }
            }

            // Exponentiation agreement. The schoolbook reference pays a
            // division per exponent bit, so keep exponents to one limb
            // while still ranging moduli up to 40 limbs.
            #[test]
            fn prop_pow_matches_schoolbook(
                m in arb_odd_modulus(40),
                base in arb_biguint(41),
                e in any::<u64>(),
            ) {
                let e = BigUint::from_u64(e);
                let want = base.mod_exp_schoolbook(&e, &m).unwrap();
                for (_, kernel) in kernels() {
                    let ctx = forcing(kernel, || MontgomeryCtx::new(&m).unwrap());
                    prop_assert_eq!(ctx.pow(&base, &e).unwrap(), want.clone());
                }
            }

            // Wider exponents at narrower moduli, through the public
            // mod_exp dispatch (which picks the Montgomery path for
            // these odd moduli).
            #[test]
            fn prop_mod_exp_dispatch_matches_schoolbook(
                m in arb_odd_modulus(6),
                base in arb_biguint(7),
                e in arb_biguint(3),
            ) {
                prop_assert_eq!(
                    base.mod_exp(&e, &m).unwrap(),
                    base.mod_exp_schoolbook(&e, &m).unwrap()
                );
            }

            // Even moduli must keep working through the fallback.
            #[test]
            fn prop_even_modulus_fallback(
                m in arb_biguint(4).prop_filter("modulus > 1 and even", |m| {
                    m.is_even() && !m.is_zero()
                }),
                base in arb_biguint(5),
                e in any::<u64>(),
            ) {
                let e = BigUint::from_u64(e);
                prop_assert_eq!(
                    base.mod_exp(&e, &m).unwrap(),
                    base.mod_exp_schoolbook(&e, &m).unwrap()
                );
            }
        }
    }
}
