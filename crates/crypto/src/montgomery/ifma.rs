//! The Montgomery product on the AVX-512 IFMA unit (`vpmadd52luq` /
//! `vpmadd52huq`, Gueron and Krasnov's radix-2⁵² layout).
//!
//! A residue is `d` digits of 52 bits, one per 64-bit lane, padded with
//! zero digits to whole 512-bit vectors; `R = 2^(52·d)` with `4n < R`.
//! Each product is one almost-Montgomery multiplication (AMM): for each
//! digit `bᵢ` of `b`, the low halves of `a·bᵢ` and `n·y` are added into
//! the accumulator (the multiplier `y` comes from digit 0 in scalar
//! code), the accumulator moves down one lane — the division by `2⁵²` —
//! and the high halves of the same two products are added where they now
//! belong. Lanes are not carried inside the loop: each gains under `2⁵⁴`
//! per digit, so 64 digits stay below `2⁶⁰`, and one scalar pass at the
//! end normalizes them. Operands below `n` keep the result below `2n`,
//! and one conditional subtraction brings it below `n`, so every result
//! is the unique value the scalar kernel's domain maps it to.
//!
//! Every intrinsic used here is a safe fn inside a `#[target_feature]`
//! context; values enter vectors through `_mm512_set_epi64` and leave
//! through lane extracts, never through a pointer.

use std::arch::x86_64::*;

/// 64-bit lanes in one vector.
pub(super) const LANES: usize = 8;

/// Bits per digit.
pub(super) const DIGIT_BITS: usize = 52;

/// The low `DIGIT_BITS` of a lane.
pub(super) const MASK: u64 = (1 << DIGIT_BITS) - 1;

/// Widest residue the kernel is compiled for, in vectors (64 digits,
/// moduli up to 3 326 bits); wider ones stay on the scalar kernel.
pub(super) const MAX_VECTORS: usize = 8;

/// Evidence that the running CPU reports `avx512f` and `avx512ifma`:
/// [`Ifma::detect`] is the only way to make one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Ifma(());

/// One product to compute: `out = a·b·2^(−52·digits) mod n`. All four
/// slices are the same whole number of vectors long; `a` and `b` are
/// below `n`, `out` may hold anything, `n0 = −n⁻¹ mod 2⁵²`.
pub(super) struct Amm<'a> {
    pub(super) out: &'a mut [u64],
    pub(super) a: &'a [u64],
    pub(super) b: &'a [u64],
    pub(super) n: &'a [u64],
    pub(super) n0: u64,
    pub(super) digits: usize,
}

impl Ifma {
    /// An `Ifma` if this CPU has the instructions, else `None`. (`std`
    /// caches the CPUID answer.)
    pub(super) fn detect() -> Option<Ifma> {
        (is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma"))
            .then_some(Ifma(()))
    }

    /// Computes `first`, and `second` beside it when given: two
    /// independent products in one loop, so each hides the other's
    /// latency. A pair must agree in width and digit count.
    pub(super) fn mul(self, first: Amm<'_>, second: Option<Amm<'_>>) {
        // SAFETY: `one` and `pair` are safe fns whose only requirement of
        // their caller is their `#[target_feature]` set, and `self` exists
        // only because `detect` saw both features reported by this CPU.
        #[allow(unsafe_code)]
        unsafe {
            match second {
                None => one(first),
                Some(second) => pair(first, second),
            }
        }
    }
}

/// Runs [`amm`] at the product's vector count.
#[target_feature(enable = "avx512f,avx512ifma")]
fn one(x: Amm<'_>) {
    match x.n.len() / LANES {
        1 => amm::<1, 1>([x]),
        2 => amm::<2, 1>([x]),
        3 => amm::<3, 1>([x]),
        4 => amm::<4, 1>([x]),
        5 => amm::<5, 1>([x]),
        6 => amm::<6, 1>([x]),
        7 => amm::<7, 1>([x]),
        8 => amm::<8, 1>([x]),
        v => unreachable!("{v} vectors: wider than MAX_VECTORS"),
    }
}

/// Runs [`amm`] on two products of one vector count in lockstep. From
/// four vectors up one product already fills the multiply unit, and two
/// outgrow the register file, so they run one after the other.
#[target_feature(enable = "avx512f,avx512ifma")]
fn pair(x: Amm<'_>, y: Amm<'_>) {
    assert!(x.n.len() == y.n.len() && x.digits == y.digits, "a pair shares its shape");
    match x.n.len() / LANES {
        1 => amm::<1, 2>([x, y]),
        2 => amm::<2, 2>([x, y]),
        3 => amm::<3, 2>([x, y]),
        _ => {
            one(x);
            one(y);
        }
    }
}

/// Lanes `0..8` of `w` as a vector.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn load(w: &[u64]) -> __m512i {
    let w = |i: usize| w[i] as i64;
    _mm512_set_epi64(w(7), w(6), w(5), w(4), w(3), w(2), w(1), w(0))
}

/// The vector's lanes, lowest first.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn lanes(v: __m512i) -> [u64; LANES] {
    let (lo, hi) = (_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v));
    [
        _mm256_extract_epi64::<0>(lo) as u64,
        _mm256_extract_epi64::<1>(lo) as u64,
        _mm256_extract_epi64::<2>(lo) as u64,
        _mm256_extract_epi64::<3>(lo) as u64,
        _mm256_extract_epi64::<0>(hi) as u64,
        _mm256_extract_epi64::<1>(hi) as u64,
        _mm256_extract_epi64::<2>(hi) as u64,
        _mm256_extract_epi64::<3>(hi) as u64,
    ]
}

/// `P` independent AMMs of `V` vectors each, interleaved digit by digit.
///
/// The accumulator is split in two, one half for the `a·bᵢ` rows and one
/// for the `n·y` rows, so neither chain of `madd52lo`, shift, `madd52hi`
/// waits for the other. Digit 0 — the one `y` is computed from — is
/// kept in scalar code and built from lane 1 one digit ahead: lane 1
/// is read when the digit starts, and the four scalar products that
/// land on it are added there, so the next `y` never waits for the
/// vector chain.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn amm<const V: usize, const P: usize>(jobs: [Amm<'_>; P]) {
    let digits = jobs[0].digits;
    let zero = _mm512_setzero_si512();
    let mut a = [[zero; V]; P];
    let mut n = [[zero; V]; P];
    for (p, job) in jobs.iter().enumerate() {
        for v in 0..V {
            a[p][v] = load(&job.a[LANES * v..]);
            n[p][v] = load(&job.n[LANES * v..]);
        }
    }
    let (mut acc_a, mut acc_n) = ([[zero; V]; P], [[zero; V]; P]);
    // Digit 0 of the whole accumulator: the vectors' lane 0 plus every
    // carry out of the digit below it.
    let mut low = [0u64; P];
    for i in 0..digits {
        for (p, job) in jobs.iter().enumerate() {
            let (bi, a_0, a_1, n_0, n_1) = (job.b[i], job.a[0], job.a[1], job.n[0], job.n[1]);
            let lane1 = _mm_extract_epi64::<1>(_mm512_castsi512_si128(_mm512_add_epi64(
                acc_a[p][0],
                acc_n[p][0],
            ))) as u64;
            let ab0 = a_0 as u128 * bi as u128;
            let t = low[p] + (ab0 as u64 & MASK);
            let y = t.wrapping_mul(job.n0) & MASK;
            let ny0 = n_0 as u128 * y as u128;
            // Digit 0 is now a multiple of 2⁵²: it carries out and digit
            // 1 moves down into its place, with its low halves and the
            // high halves of digit 0's products.
            let carry = (t + (ny0 as u64 & MASK)) >> DIGIT_BITS;
            low[p] = lane1
                + (a_1.wrapping_mul(bi) & MASK)
                + (n_1.wrapping_mul(y) & MASK)
                + (ab0 >> DIGIT_BITS) as u64
                + (ny0 >> DIGIT_BITS) as u64
                + carry;
            let (bv, yv) = (_mm512_set1_epi64(bi as i64), _mm512_set1_epi64(y as i64));
            row(&mut acc_a[p], &a[p], bv);
            row(&mut acc_n[p], &n[p], yv);
        }
    }
    for (p, job) in jobs.into_iter().enumerate() {
        for (v, out) in job.out.chunks_exact_mut(LANES).enumerate() {
            out.copy_from_slice(&lanes(_mm512_add_epi64(acc_a[p][v], acc_n[p][v])));
        }
        job.out[0] = low[p];
        normalize(job.out, job.n);
    }
}

/// `acc ← (acc + x·s) / 2⁵²` lane-wise: the low halves of the products
/// where they fall, one lane down, then the high halves (whose place
/// is one lane up, i.e. where the low halves were).
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn row<const V: usize>(acc: &mut [__m512i; V], x: &[__m512i; V], s: __m512i) {
    for v in 0..V {
        acc[v] = _mm512_madd52lo_epu64(acc[v], x[v], s);
    }
    for v in 0..V {
        let above = if v + 1 < V { acc[v + 1] } else { _mm512_setzero_si512() };
        acc[v] = _mm512_alignr_epi64::<1>(above, acc[v]);
    }
    for v in 0..V {
        acc[v] = _mm512_madd52hi_epu64(acc[v], x[v], s);
    }
}

/// Carries the accumulator's lanes into 52-bit digits and subtracts `n`
/// once if the value is not below it.
fn normalize(t: &mut [u64], n: &[u64]) {
    let mut carry = 0;
    for w in t.iter_mut() {
        let s = *w + carry;
        *w = s & MASK;
        carry = s >> DIGIT_BITS;
    }
    debug_assert_eq!(carry, 0, "AMM result reached R");
    if t.iter().rev().cmp(n.iter().rev()) != std::cmp::Ordering::Less {
        let mut borrow = 0u64;
        for (w, &m) in t.iter_mut().zip(n) {
            let s = w.wrapping_sub(m).wrapping_sub(borrow);
            *w = s & MASK;
            borrow = s >> 63;
        }
        debug_assert_eq!(borrow, 0, "AMM result reached 2n");
    }
}
