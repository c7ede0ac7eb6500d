//! Montgomery-form modular arithmetic for odd moduli.
//!
//! The schoolbook [`BigUint::mod_exp`] pays a full Knuth division per
//! multiplication. A [`MontgomeryCtx`] precomputes, once per modulus,
//! everything needed to replace those divisions with Montgomery
//! multiplications: the word inverse `n0 = -n^-1 mod 2^64`, `R mod n`,
//! and `R^2 mod n` where `R = 2^(64k)` for a `k`-limb modulus.
//!
//! One kernel does every multiplication: `mont_mul_into`, a
//! finely-integrated operand scan. For each limb `bᵢ` it walks the
//! accumulator once, adding the `a·bᵢ` row and the `m·n` reduction row
//! in the same inner loop on two independent carry chains (the
//! multiplier `m` is fixed by the first column, so neither chain waits
//! for the other), and stores each limb one place down — the division
//! by `2^64`. The accumulator is the caller's `k`-limb buffer plus one
//! carry bit held in a register.
//!
//! Scratch discipline: the kernel never allocates. Every exponentiation
//! loop ([`MontgomeryCtx::pow`], the `multi_pow*` family, the combs in
//! [`crate::fixed_base`]) owns an accumulator and one spare buffer and
//! ping-pongs them through `mul_assign` / `square_assign`; window tables
//! are one flat `Vec` with a stride of `k` limbs, and the spare buffer
//! ends its life as the result's limb vector.
//!
//! Values enter and leave as [`BigUint`]; in between they are
//! little-endian `u64` limb slices of length exactly `k`.
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

/// Odd powers `base^1, base^3, …, base^15` kept per sliding window.
const WINDOW_TABLE: usize = 8;

/// Precomputed per-modulus state for Montgomery arithmetic.
///
/// Construction costs one big-number division (for `R^2 mod n`);
/// every subsequent multiplication avoids division entirely, so cache
/// a context wherever the same modulus is used repeatedly (Paillier
/// `n^2`, RSA `n`/`p`/`q`, Schnorr `p`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MontgomeryCtx {
    /// The (odd, > 1) modulus.
    n: BigUint,
    /// Modulus limbs, little-endian, exactly `k` words.
    n_limbs: Vec<u64>,
    /// Limb count of the modulus.
    k: usize,
    /// `-n^-1 mod 2^64`.
    n0: u64,
    /// `R mod n` — the Montgomery form of 1.
    r1: Vec<u64>,
    /// `R^2 mod n` — multiplier that maps a value into Montgomery form.
    r2: Vec<u64>,
    /// Plain 1 — multiplier that maps a value out of Montgomery form.
    one: Vec<u64>,
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
        let n_limbs = n.limbs().to_vec();
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
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Limb width `k` of this context's residues.
    pub(crate) fn limb_count(&self) -> usize {
        self.k
    }

    /// `R mod n` — the Montgomery form of 1 (identity accumulator).
    pub(crate) fn mont_one(&self) -> &[u64] {
        &self.r1
    }

    /// Montgomery multiplication into caller scratch:
    /// `out = a * b * R^-1 mod n`.
    ///
    /// `a` and `b` are `k`-limb values `< n`; `out` is any `k`-limb
    /// buffer (its old contents are ignored) and comes back `< n`: the
    /// accumulator stays below `2n`, so it needs one bit above `out`
    /// and at most one trailing subtraction. Counts one [`Unit::MontMul`].
    pub(crate) fn mont_mul_into(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        work::add(Unit::MontMul, 1);
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
        BigUint::from_limbs(tmp)
    }

    /// `v mod n` as exactly `k` limbs. Values already `< n` and `k`
    /// limbs wide — ciphertexts, group elements, anything produced by
    /// this context — are borrowed as they are: no Knuth division, no
    /// copy.
    fn reduced<'a>(&self, v: &'a BigUint) -> Result<Cow<'a, [u64]>> {
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
        Ok(BigUint::from_limbs(self.mont_mul(&am, &self.reduced(b)?)))
    }

    /// The 8 odd powers `bm^1, bm^3, …, bm^15` of a Montgomery-form
    /// base, flat with a stride of `k` limbs. `tmp` is scratch.
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
    /// multiplication per window.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> Result<BigUint> {
        if exp.is_zero() {
            return Ok(BigUint::one());
        }
        let k = self.k;
        let bm = self.prepare(base)?;
        let mut tmp = vec![0u64; k];

        // Sparse exponents (scalar weights, small plaintexts, RSA's
        // e = 2^16 + 1): with at most 9 set bits the window table's 8
        // multiplications cost more than it saves, so run plain
        // left-to-right square-and-multiply.
        let bits = exp.bits();
        if exp.limbs().iter().map(|l| l.count_ones()).sum::<u32>() <= 9 {
            let mut acc = bm.clone();
            for i in (0..bits - 1).rev() {
                self.square_assign(&mut acc, &mut tmp);
                if exp.bit(i) {
                    self.mul_assign(&mut acc, &mut tmp, &bm);
                }
            }
            return Ok(self.finish(&acc, tmp));
        }

        let table = self.odd_powers(&bm, &mut tmp);
        let mut acc = self.r1.clone();
        let mut i = bits as isize - 1;
        while i >= 0 {
            if !exp.bit(i as usize) {
                self.square_assign(&mut acc, &mut tmp);
                i -= 1;
                continue;
            }
            let (lo, idx) = window_at(exp, i);
            for _ in lo..=i {
                self.square_assign(&mut acc, &mut tmp);
            }
            self.mul_assign(&mut acc, &mut tmp, &table[idx * k..(idx + 1) * k]);
            i = lo - 1;
        }
        Ok(self.finish(&acc, tmp))
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

/// Pads a reduced value out to exactly `k` limbs.
fn pad(v: &BigUint, k: usize) -> Vec<u64> {
    let mut limbs = v.limbs().to_vec();
    debug_assert!(limbs.len() <= k);
    limbs.resize(k, 0);
    limbs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn ctx(hex: &str) -> MontgomeryCtx {
        MontgomeryCtx::new(&BigUint::from_hex(hex).unwrap()).unwrap()
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
    /// (multiply the answer back by `R`) and against the CIOS body, into
    /// an output buffer that holds stale limbs.
    fn check_mont_mul(ctx: &MontgomeryCtx, a: &BigUint, b: &BigUint) {
        let k = ctx.k;
        let (al, bl) = (pad(a, k), pad(b, k));
        let mut out = vec![0xdead_beef_dead_beef_u64; k];
        ctx.mont_mul_into(&mut out, &al, &bl);
        assert_eq!(out, mont_mul_cios(ctx, &al, &bl), "k = {k}: {a:?} * {b:?}");
        let got = BigUint::from_limbs(out);
        assert!(got < ctx.n);
        assert_eq!(
            got.shl(64 * k).rem(&ctx.n).unwrap(),
            a.mul(b).rem(&ctx.n).unwrap(),
            "k = {k}: {a:?} * {b:?}"
        );
    }

    #[test]
    fn mont_mul_into_matches_schoolbook_at_every_width() {
        let mut rng = StdRng::seed_from_u64(5);
        for k in [1usize, 2, 3, 4, 8, 16, 17, 32, 33] {
            // The all-ones modulus makes the longest carries; the others
            // are random odd values with the top limb in use.
            let all_ones = BigUint::from_limbs(vec![u64::MAX; k]);
            let mut moduli = vec![all_ones];
            for _ in 0..3 {
                let mut limbs: Vec<u64> = (0..k).map(|_| rand::Rng::gen(&mut rng)).collect();
                limbs[0] |= 1;
                limbs[k - 1] |= 1 << 63;
                moduli.push(BigUint::from_limbs(limbs));
            }
            for n in moduli {
                let ctx = MontgomeryCtx::new(&n).unwrap();
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
        let mut rng = StdRng::seed_from_u64(11);
        let m = BigUint::gen_prime(160, &mut rng);
        let mctx = MontgomeryCtx::new(&m).unwrap();
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

    #[test]
    fn multi_pow_rows_matches_per_row_multi_pow() {
        let mut rng = StdRng::seed_from_u64(17);
        let m = BigUint::gen_prime(160, &mut rng);
        let mctx = MontgomeryCtx::new(&m).unwrap();
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

    #[test]
    fn multi_pow_full_width_matches_per_base_pow() {
        let mut rng = StdRng::seed_from_u64(13);
        let m = BigUint::gen_prime(192, &mut rng);
        let mctx = MontgomeryCtx::new(&m).unwrap();
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
                let ctx = MontgomeryCtx::new(&m).unwrap();
                check_mont_mul(&ctx, &a.rem(&m).unwrap(), &b.rem(&m).unwrap());
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
                let ctx = MontgomeryCtx::new(&m).unwrap();
                let e = BigUint::from_u64(e);
                prop_assert_eq!(
                    ctx.pow(&base, &e).unwrap(),
                    base.mod_exp_schoolbook(&e, &m).unwrap()
                );
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
