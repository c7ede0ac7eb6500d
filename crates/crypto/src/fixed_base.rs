//! Fixed-base exponentiation via Lim–Lee comb precomputation.
//!
//! The serving path exponentiates the *same* bases on every request:
//! Schnorr's generators `g`/`h` on each signature and commitment, and
//! Paillier's precomputed randomizer base on each encryption. A
//! [`FixedBaseTable`] spends one table build per `(modulus, base)`
//! pair — about as much as a single exponentiation — and then answers
//! every later `base^e` with `~2·⌈bits/h⌉` Montgomery multiplications
//! instead of the `~1.2·bits` a sliding-window pow costs.
//!
//! The comb splits an exponent `e` of at most `max_bits` bits into
//! `h` blocks of `a = ⌈max_bits/h⌉` bits: `e = Σⱼ eⱼ·2^(j·a)`. The
//! table holds, for every tooth subset `m ⊆ {0..h}`, the product
//! `T[m] = Π_{j∈m} base^(2^(j·a))` in Montgomery form (`2^h`
//! entries). Reading the blocks one bit-column at a time,
//! `base^e = Π_i T[mᵢ]^(2^i)`, which evaluates MSB-column-first as
//! `a-1` squarings and at most `a` table multiplications. With the
//! default `h = 8` a 256-bit exponent costs ~63 multiplications —
//! ~5× fewer than the variable-base path — for a 2^8-entry table
//! (8 KiB at a 256-bit modulus).
//!
//! Two tables over the same modulus can also share one squaring
//! chain ([`FixedBaseTable::mul_pow`]), putting Pedersen's `g^m·h^r`
//! at barely more than one fixed-base exponentiation.
//!
//! The table is one flat limb vector (entry `m` at offset `m·k`), and
//! an evaluation is a walk over it with an accumulator and one spare
//! buffer handed to the Montgomery kernel in turn: two allocations per
//! call however wide the exponent, and none per multiplication.

use crate::bignum::BigUint;
use crate::montgomery::MontgomeryCtx;
use crate::Result;

/// Comb teeth: table size is `2^TEETH` entries. 8 keeps the table at
/// a few KiB while cutting evaluation to `2·⌈bits/8⌉` multiplications.
const TEETH: usize = 8;

/// Precomputed comb table for one `(modulus, base)` pair.
#[derive(Clone, Debug)]
pub struct FixedBaseTable {
    ctx: MontgomeryCtx,
    /// The base, kept for the variable-width fallback path.
    base: BigUint,
    /// Column count `a = ⌈max_bits / TEETH⌉` — squarings per call.
    cols: usize,
    /// Widest exponent the comb covers.
    max_bits: usize,
    /// `2^TEETH` entries of `k` limbs each, flat, Montgomery form;
    /// entry `m` is `Π_{j: bit j of m} base^(2^(j·cols))`.
    table: Vec<u64>,
}

impl FixedBaseTable {
    /// Builds the comb for exponents up to `max_bits` bits.
    ///
    /// Costs `(TEETH-1)·a` squarings plus `2^TEETH - TEETH - 1`
    /// multiplications — roughly one exponentiation — so build once
    /// per key/group and reuse.
    pub fn new(ctx: &MontgomeryCtx, base: &BigUint, max_bits: usize) -> Result<FixedBaseTable> {
        let max_bits = max_bits.max(1);
        let cols = max_bits.div_ceil(TEETH);
        let k = ctx.limb_count();
        let mut table = vec![0u64; k << TEETH];
        table[..k].copy_from_slice(ctx.mont_one());

        // Tooth anchors: base^(2^(j·cols)) for each tooth j, by
        // repeated squaring of the previous anchor; tooth j alone is
        // entry 2^j.
        let mut anchor = ctx.prepare(base)?;
        let mut tmp = vec![0u64; k];
        for j in 0..TEETH {
            table[k << j..][..k].copy_from_slice(&anchor);
            if j + 1 < TEETH {
                for _ in 0..cols {
                    ctx.square_assign(&mut anchor, &mut tmp);
                }
            }
        }
        // Subset products: entry m extends entry m-with-lowest-bit-
        // cleared (earlier in the table) by one anchor multiplication.
        for m in 1usize..(1 << TEETH) {
            let rest = m & (m - 1);
            if rest != 0 {
                let (done, entry) = table.split_at_mut(m * k);
                let low = m & m.wrapping_neg();
                ctx.mont_mul_into(&mut entry[..k], &done[rest * k..][..k], &done[low * k..][..k]);
            }
        }

        Ok(FixedBaseTable {
            ctx: ctx.clone(),
            base: base.clone(),
            cols,
            max_bits,
            table,
        })
    }

    /// The modulus this table reduces by.
    pub fn modulus(&self) -> &BigUint {
        self.ctx.modulus()
    }

    /// Widest exponent the comb covers without falling back.
    pub fn max_bits(&self) -> usize {
        self.max_bits
    }

    /// The table entry for bit column `i` of `exp`: the product of the
    /// teeth whose block has that bit set, or `None` for the empty
    /// subset (the identity — nothing to multiply) and for columns this
    /// comb does not have.
    #[inline]
    fn column(&self, exp: &BigUint, i: usize) -> Option<&[u64]> {
        if i >= self.cols {
            return None;
        }
        let mut m = 0usize;
        for j in 0..TEETH {
            m |= (exp.bit(j * self.cols + i) as usize) << j;
        }
        let k = self.ctx.limb_count();
        (m != 0).then(|| &self.table[m * k..][..k])
    }

    /// `base^exp mod n` through the comb.
    ///
    /// Exponents wider than `max_bits` (possible only when a caller
    /// hands in an unreduced scalar) fall back to the variable-base
    /// sliding-window path.
    pub fn pow(&self, exp: &BigUint) -> Result<BigUint> {
        if exp.bits() > self.max_bits {
            return self.ctx.pow(&self.base, exp);
        }
        prever_obs::counter!("crypto.fixed_base.hits").inc();
        Ok(comb_product(&self.ctx, &[(self, exp)]))
    }

    /// `self.base^e1 · other.base^e2 mod n` with one shared squaring
    /// chain — the Pedersen commitment shape.
    ///
    /// Both tables must be over the same modulus; column periods may
    /// differ (each table reads its own comb layout).
    pub fn mul_pow(&self, e1: &BigUint, other: &FixedBaseTable, e2: &BigUint) -> Result<BigUint> {
        if self.ctx.modulus() != other.ctx.modulus() {
            return Err(crate::CryptoError::OutOfRange(
                "fixed-base mul_pow tables use different moduli",
            ));
        }
        if e1.bits() > self.max_bits || e2.bits() > other.max_bits {
            return self
                .ctx
                .multi_pow(&[&self.base, &other.base], &[e1, e2]);
        }
        prever_obs::counter!("crypto.fixed_base.hits").add(2);
        Ok(comb_product(&self.ctx, &[(self, e1), (other, e2)]))
    }
}

/// The comb evaluation both entry points share: `Π_t Π_i T_t[mᵢ]^(2^i)`
/// over tables on one modulus, most-significant column first — one
/// squaring per column and one multiplication per nonempty table
/// entry, on an accumulator and one spare buffer (nothing allocated per
/// step; leading empty columns cost nothing at all).
fn comb_product(ctx: &MontgomeryCtx, terms: &[(&FixedBaseTable, &BigUint)]) -> BigUint {
    let cols = terms.iter().map(|(tab, _)| tab.cols).max().unwrap_or(0);
    let mut tmp = vec![0u64; ctx.limb_count()];
    let mut acc: Option<Vec<u64>> = None;
    for i in (0..cols).rev() {
        if let Some(a) = acc.as_mut() {
            ctx.square_assign(a, &mut tmp);
        }
        for (tab, exp) in terms {
            if let Some(entry) = tab.column(exp, i) {
                ctx.fold(&mut acc, &mut tmp, entry);
            }
        }
    }
    match acc {
        Some(a) => ctx.finish(&a, tmp),
        None => BigUint::one(),
    }
}

/// Equality ignores the precomputed table (it is derived data): two
/// tables are equal when they answer for the same base and modulus.
impl PartialEq for FixedBaseTable {
    fn eq(&self, other: &Self) -> bool {
        self.base == other.base
            && self.ctx.modulus() == other.ctx.modulus()
            && self.max_bits == other.max_bits
    }
}

impl Eq for FixedBaseTable {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montgomery::tests::{forcing, kernels};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn comb_matches_sliding_window() {
        for (_, kernel) in kernels() {
            let mut rng = StdRng::seed_from_u64(21);
            let m = BigUint::gen_prime(192, &mut rng);
            let ctx = forcing(kernel, || MontgomeryCtx::new(&m).unwrap());
            let base = BigUint::random_below(&m, &mut rng);
            let table = FixedBaseTable::new(&ctx, &base, 160).unwrap();
            for bits in [0usize, 1, 7, 8, 64, 159, 160] {
                let e = if bits == 0 {
                    BigUint::zero()
                } else {
                    BigUint::random_bits(bits, &mut rng)
                };
                assert_eq!(
                    table.pow(&e).unwrap(),
                    ctx.pow(&base, &e).unwrap(),
                    "bits={bits}"
                );
            }
        }
    }

    #[test]
    fn comb_does_an_eighth_of_the_sliding_windows_multiplications() {
        for (_, kernel) in kernels() {
            // The comb's claim, counted rather than timed: one kernel
            // serves both paths, so time follows the multiplication count.
            use prever_obs::work::{measure, Unit::MontMul};
            let muls = |f: &dyn Fn() -> BigUint| measure(f).1[MontMul];
            let mut rng = StdRng::seed_from_u64(25);
            let m = BigUint::gen_prime(256, &mut rng);
            let ctx = forcing(kernel, || MontgomeryCtx::new(&m).unwrap());
            let (g, h) = (BigUint::from_u64(4), BigUint::random_below(&m, &mut rng));
            let bits = 255usize;
            let (tg, th) = (
                FixedBaseTable::new(&ctx, &g, bits).unwrap(),
                FixedBaseTable::new(&ctx, &h, bits).unwrap(),
            );
            let cols = bits.div_ceil(TEETH) as u64;
            for _ in 0..8 {
                let top = BigUint::one().shl(bits - 1);
                let e1 = top.add(&BigUint::random_bits(bits - 1, &mut rng));
                let e2 = top.add(&BigUint::random_bits(bits - 1, &mut rng));
                // Per column at most one squaring and one multiplication
                // per table, then the conversion out of Montgomery form.
                let comb = muls(&|| tg.pow(&e1).unwrap());
                assert!(comb <= 2 * cols, "comb: {comb} > 2·{cols}");
                let shared = muls(&|| tg.mul_pow(&e1, &th, &e2).unwrap());
                assert!(shared <= 3 * cols, "shared chain: {shared} > 3·{cols}");
                // The variable-base path squares once per exponent bit
                // before it multiplies at all.
                let window = muls(&|| ctx.pow(&g, &e1).unwrap());
                assert!(window >= bits as u64, "sliding window: {window} < {bits}");
                assert!(window >= 4 * comb, "sliding window {window} vs comb {comb}");
            }
        }
    }

    #[test]
    fn oversized_exponent_falls_back() {
        for (_, kernel) in kernels() {
            let mut rng = StdRng::seed_from_u64(22);
            let m = BigUint::gen_prime(128, &mut rng);
            let ctx = forcing(kernel, || MontgomeryCtx::new(&m).unwrap());
            let base = BigUint::random_below(&m, &mut rng);
            let table = FixedBaseTable::new(&ctx, &base, 64).unwrap();
            let wide = BigUint::random_bits(200, &mut rng);
            assert_eq!(table.pow(&wide).unwrap(), ctx.pow(&base, &wide).unwrap());
        }
    }

    #[test]
    fn shared_chain_matches_two_pows() {
        for (_, kernel) in kernels() {
            let mut rng = StdRng::seed_from_u64(23);
            let m = BigUint::gen_prime(192, &mut rng);
            let ctx = forcing(kernel, || MontgomeryCtx::new(&m).unwrap());
            let g = BigUint::random_below(&m, &mut rng);
            let h = BigUint::random_below(&m, &mut rng);
            // Different widths on purpose: the chains still interleave.
            let tg = FixedBaseTable::new(&ctx, &g, 160).unwrap();
            let th = FixedBaseTable::new(&ctx, &h, 96).unwrap();
            for _ in 0..8 {
                let e1 = BigUint::random_bits(160, &mut rng);
                let e2 = BigUint::random_bits(96, &mut rng);
                let want = ctx
                    .pow(&g, &e1)
                    .unwrap()
                    .mul_mod(&ctx.pow(&h, &e2).unwrap(), &m)
                    .unwrap();
                assert_eq!(tg.mul_pow(&e1, &th, &e2).unwrap(), want);
            }
            // Zero exponents collapse to the other side / to 1.
            let z = BigUint::zero();
            let e = BigUint::random_bits(90, &mut rng);
            assert_eq!(tg.mul_pow(&z, &th, &e).unwrap(), ctx.pow(&h, &e).unwrap());
            assert_eq!(tg.mul_pow(&z, &th, &z).unwrap(), BigUint::one());
        }
    }

    #[test]
    fn mismatched_moduli_rejected() {
        let mut rng = StdRng::seed_from_u64(24);
        let m1 = BigUint::gen_prime(96, &mut rng);
        let m2 = BigUint::gen_prime(96, &mut rng);
        let c1 = MontgomeryCtx::new(&m1).unwrap();
        let c2 = MontgomeryCtx::new(&m2).unwrap();
        let t1 = FixedBaseTable::new(&c1, &BigUint::from_u64(5), 64).unwrap();
        let t2 = FixedBaseTable::new(&c2, &BigUint::from_u64(7), 64).unwrap();
        assert!(t1.mul_pow(&BigUint::one(), &t2, &BigUint::one()).is_err());
    }
}
