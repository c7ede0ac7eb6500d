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
//! [`LaneAmm`] is the other layout: eight residues over one modulus, one
//! per lane, so vector `j` holds digit `j` of every lane's residue. Each
//! lane computes its own `y` with `madd52lo`, there is no scalar digit,
//! and results stay below `2n` with no final subtraction (operands below
//! `2n` and `4n < R` keep an AMM there), so the loop has no branch on the
//! data.
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

/// Eight products over one modulus, one per lane: lane `l` computes
/// `out = a·b·2^(−52·D) mod n` with `out < 2n`, where `D = n.len()` and
/// word `8·j + l` of `out`, `a` and `b` is digit `j` of lane `l`'s
/// residue. `a` and `b` are below `2n`, `4n < 2^(52·D)`, `out` may hold
/// anything; `n` is the modulus's `D` digits and `n0 = −n⁻¹ mod 2⁵²`.
pub(super) struct LaneAmm<'a> {
    pub(super) out: &'a mut [u64],
    pub(super) a: &'a [u64],
    pub(super) b: &'a [u64],
    pub(super) n: &'a [u64],
    pub(super) n0: u64,
}

/// What one call of the vector unit computes.
pub(super) enum Job<'a> {
    /// One product.
    One(Amm<'a>),
    /// Two independent products in one loop, so each hides the other's
    /// latency; they agree in width and digit count.
    Pair(Amm<'a>, Amm<'a>),
    /// Eight products over one modulus, one per lane.
    Lanes(LaneAmm<'a>),
}

impl Ifma {
    /// An `Ifma` if this CPU has the instructions, else `None`. (`std`
    /// caches the CPUID answer.)
    pub(super) fn detect() -> Option<Ifma> {
        (is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma"))
            .then_some(Ifma(()))
    }

    /// Computes `job`.
    pub(super) fn mul(self, job: Job<'_>) {
        // SAFETY: `one`, `pair` and `lanes_amm` are safe fns whose only
        // requirement of their caller is their `#[target_feature]` set,
        // and `self` exists only because `detect` saw both features
        // reported by this CPU.
        #[allow(unsafe_code)]
        unsafe {
            match job {
                Job::One(x) => one(x),
                Job::Pair(x, y) => pair(x, y),
                Job::Lanes(x) => lanes_amm(x),
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

/// Runs [`lane_amm`] at the product's digit count: 10 (a 467–518-bit
/// modulus, such as a 1 024-bit RSA key's primes) or 20 (987–1 038 bits,
/// its `n`), the widths `LANE_CROSSOVER` lists.
#[target_feature(enable = "avx512f,avx512ifma")]
fn lanes_amm(x: LaneAmm<'_>) {
    match x.n.len() {
        10 => lane_amm::<10>(x),
        20 => lane_amm::<20>(x),
        d => unreachable!("{d} digits: no lane kernel at this width"),
    }
}

/// `$body` once for each `$i` in `0..$d` (at most 20), each with `$i` a
/// constant: no loop is left for the compiler to keep or unroll.
macro_rules! unrolled {
    ($i:ident < $d:expr => $body:block) => {
        unrolled!(@ $i $d, $body; 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19)
    };
    (@ $i:ident $d:expr, $body:block; $($n:literal)*) => {$(
        if $n < $d {
            const $i: usize = $n;
            $body
        }
    )*};
}

/// The lane-parallel AMM over `D` digits. For each digit vector `bᵢ`:
/// the low halves of `a·bᵢ` land on the accumulator, each lane's
/// `y = t₀·n0 mod 2⁵²` is one `madd52lo`, the low halves of `n·y` clear
/// digit 0, whose carry moves into digit 1 as the accumulator moves down
/// one digit, and the high halves of both products land where they now
/// belong. Digits are not carried inside the loop (each gains under `2⁵⁴`
/// a step); one vector pass normalizes them at the end.
///
/// The loop over the digits of `b` stays a loop and everything inside it
/// is unrolled, so every vector index is a constant: the accumulator lives
/// in registers and moving it down one digit is register moves. (Inner
/// loops left to the compiler kept it on the stack, with a store after
/// every `madd52` and a `memmove` a step; unrolling the outer loop too
/// serialized the 20-digit products on one register at a time, 2× slower.)
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn lane_amm<const D: usize>(x: LaneAmm<'_>) {
    let zero = _mm512_setzero_si512();
    let n0 = _mm512_set1_epi64(x.n0 as i64);
    let n = |j: usize| _mm512_set1_epi64(x.n[j] as i64);
    let mut a = [zero; D];
    unrolled!(J < D => {
        a[J] = load(&x.a[LANES * J..]);
    });
    let mut acc = [zero; D];
    for i in 0..D {
        let bi = load(&x.b[LANES * i..]);
        unrolled!(J < D => {
            acc[J] = _mm512_madd52lo_epu64(acc[J], a[J], bi);
        });
        let y = _mm512_madd52lo_epu64(zero, acc[0], n0);
        unrolled!(J < D => {
            acc[J] = _mm512_madd52lo_epu64(acc[J], n(J), y);
        });
        // Digit 0 is now a multiple of 2⁵²: it leaves, carrying into
        // digit 1, and every digit moves down one place.
        let carry = _mm512_srli_epi64::<52>(acc[0]);
        unrolled!(J < D => {
            acc[J] = if J + 1 < D { acc[(J + 1) % D] } else { zero };
        });
        acc[0] = _mm512_add_epi64(acc[0], carry);
        unrolled!(J < D => {
            acc[J] = _mm512_madd52hi_epu64(acc[J], a[J], bi);
            acc[J] = _mm512_madd52hi_epu64(acc[J], n(J), y);
        });
    }
    let mask = _mm512_set1_epi64(MASK as i64);
    let mut carry = zero;
    unrolled!(J < D => {
        let s = _mm512_add_epi64(acc[J], carry);
        carry = _mm512_srli_epi64::<52>(s);
        x.out[LANES * J..LANES * (J + 1)].copy_from_slice(&lanes(_mm512_and_si512(s, mask)));
    });
    debug_assert_eq!(lanes(carry), [0; LANES], "lane AMM result reached R");
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
