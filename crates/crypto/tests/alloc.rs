//! Allocation audit for the exponentiation loops.
//!
//! The Montgomery kernel writes into caller scratch, and every loop
//! over it — `pow`, the `multi_pow*` family, the fixed-base combs —
//! ping-pongs an accumulator and one spare buffer. This test pins that
//! down by counting limb-vector-sized allocations: they must not grow
//! with the exponent, i.e. with the number of multiplications. A
//! regression to one `Vec` per multiplication trips it at once.
//!
//! The counting allocator lives in this dedicated integration-test
//! binary so the instrumentation cannot leak into the library (which is
//! `forbid(unsafe_code)`) or other tests.

use prever_crypto::bignum::BigUint;
use prever_crypto::fixed_base::FixedBaseTable;
use prever_crypto::montgomery::MontgomeryCtx;
use rand::{rngs::StdRng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Limb width of the modulus: 33 limbs is 264 bytes, a size no other
/// buffer in these loops (power-of-two `Vec` growth) asks for.
const LIMBS: usize = 33;
const LIMB_BYTES: usize = LIMBS * 8;

static LIMB_ALLOCS: AtomicU64 = AtomicU64::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was given; the counters beside
// it are atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() == LIMB_BYTES && ENABLED.load(Ordering::Relaxed) {
            LIMB_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() == LIMB_BYTES && ENABLED.load(Ordering::Relaxed) {
            LIMB_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Limb-vector-sized allocations `f` makes.
fn limb_allocs(f: impl FnOnce() -> BigUint) -> u64 {
    LIMB_ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    assert!(!out.is_zero());
    LIMB_ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn limb_allocations_do_not_grow_with_the_exponent() {
    let mut rng = StdRng::seed_from_u64(33);
    let top = BigUint::one().shl(64 * LIMBS - 1);
    let m = top.add(&BigUint::random_bits(64 * LIMBS - 2, &mut rng).shl(1)).add(&BigUint::one());
    let ctx = MontgomeryCtx::new(&m).unwrap();
    let a = BigUint::random_below(&m, &mut rng);
    let b = BigUint::random_below(&m, &mut rng);
    // Both past the 8-bit square-and-multiply shortcut; the long one
    // costs ~100× the multiplications of the short one.
    let short = BigUint::random_bits(20, &mut rng).add(&BigUint::one().shl(20));
    let long = BigUint::random_bits(2000, &mut rng).add(&BigUint::one().shl(2000));

    let pow = |e: &BigUint| limb_allocs(|| ctx.pow(&a, e).unwrap());
    assert_eq!(pow(&long), pow(&short), "pow");
    assert!(pow(&long) <= 4, "pow: base, accumulator, spare, {} in all", pow(&long));

    let multi = |e: &BigUint| limb_allocs(|| ctx.multi_pow(&[&a, &b], &[e, e]).unwrap());
    assert_eq!(multi(&long), multi(&short), "multi_pow");

    let multi_u64 = |e: u64| limb_allocs(|| ctx.multi_pow_u64(&[&a, &b], &[e, e | 1]).unwrap());
    assert_eq!(multi_u64(u64::MAX), multi_u64(0x101), "multi_pow_u64");

    let ta = FixedBaseTable::new(&ctx, &a, 2001).unwrap();
    let tb = FixedBaseTable::new(&ctx, &b, 2001).unwrap();
    let comb = |e: &BigUint| limb_allocs(|| ta.pow(e).unwrap());
    assert_eq!(comb(&long), comb(&short), "comb pow");
    assert!(comb(&long) <= 2, "comb pow: accumulator and spare, {} in all", comb(&long));
    let shared = |e: &BigUint| limb_allocs(|| ta.mul_pow(e, &tb, e).unwrap());
    assert_eq!(shared(&long), shared(&short), "comb mul_pow");
}
