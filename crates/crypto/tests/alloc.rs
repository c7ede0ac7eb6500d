//! Allocation audit for the exponentiation loops.
//!
//! The Montgomery kernels write into caller scratch, and every loop
//! over them — `pow`, the `multi_pow*` family, the fixed-base combs —
//! ping-pongs an accumulator and one spare buffer. This test pins that
//! down by counting allocations of one residue's size (the context's
//! own: 64-bit limbs on the scalar kernel, 52-bit digits padded to whole
//! vectors on the vector one): they must not grow with the exponent,
//! i.e. with the number of multiplications, and each loop makes some,
//! so a count of zero means the audit watched the wrong size. A
//! regression to one `Vec` per multiplication trips it at once. It runs
//! at a width above the vector kernel's crossover and one below it, so
//! on a CPU with the vector kernel both kernels are audited.
//!
//! The counting allocator lives in this dedicated integration-test
//! binary so the instrumentation cannot leak into the library (which is
//! `forbid(unsafe_code)`) or other tests.

use prever_crypto::bignum::BigUint;
use prever_crypto::fixed_base::FixedBaseTable;
use prever_crypto::montgomery::MontgomeryCtx;
use rand::{rngs::StdRng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Bytes of one residue of the context under audit.
static RESIDUE_BYTES: AtomicUsize = AtomicUsize::new(0);
static RESIDUE_ALLOCS: AtomicU64 = AtomicU64::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Counts `layout` if it is one residue's size and counting is on.
fn count(layout: Layout) {
    if layout.size() == RESIDUE_BYTES.load(Ordering::Relaxed) && ENABLED.load(Ordering::Relaxed) {
        RESIDUE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was given; the counters beside
// it are atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout);
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

/// Residue-sized allocations `f` makes.
fn residue_allocs(f: impl FnOnce() -> BigUint) -> u64 {
    RESIDUE_ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    assert!(!out.is_zero());
    RESIDUE_ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn limb_allocations_do_not_grow_with_the_exponent() {
    // 33 limbs (2 112 bits) is above the vector kernel's crossover and
    // 5 (320 bits) below it; neither residue size (264 or 384 bytes on
    // the wide context, 40 on the narrow one) is one that other buffers
    // in these loops ask for.
    for limbs in [33usize, 5] {
        audit(limbs);
    }
}

fn audit(limbs: usize) {
    let mut rng = StdRng::seed_from_u64(33);
    let top = BigUint::one().shl(64 * limbs - 1);
    let m = top.add(&BigUint::random_bits(64 * limbs - 2, &mut rng).shl(1)).add(&BigUint::one());
    let ctx = MontgomeryCtx::new(&m).unwrap();
    let bytes = ctx.limb_count() * 8;
    RESIDUE_BYTES.store(bytes, Ordering::SeqCst);
    println!("{limbs} limbs: {} kernel, {bytes}-byte residues", ctx.kernel());
    let at = format!("{} kernel at {limbs} limbs", ctx.kernel());
    let a = BigUint::random_below(&m, &mut rng);
    let b = BigUint::random_below(&m, &mut rng);
    // Both past the 8-bit square-and-multiply shortcut; the long one
    // costs ~100× the multiplications of the short one.
    let short = BigUint::random_bits(20, &mut rng).add(&BigUint::one().shl(20));
    let long = BigUint::random_bits(2000, &mut rng).add(&BigUint::one().shl(2000));
    let same = |what: &str, long: u64, short: u64| {
        assert!(short > 0, "{what}, {at}: no residue-sized allocation seen");
        assert_eq!(long, short, "{what}, {at}");
    };

    let pow = |e: &BigUint| residue_allocs(|| ctx.pow(&a, e).unwrap());
    same("pow", pow(&long), pow(&short));
    assert!(pow(&long) <= 4, "pow, {at}: base, accumulator, spare, {} in all", pow(&long));

    let multi = |e: &BigUint| residue_allocs(|| ctx.multi_pow(&[&a, &b], &[e, e]).unwrap());
    same("multi_pow", multi(&long), multi(&short));

    let multi_u64 = |e: u64| residue_allocs(|| ctx.multi_pow_u64(&[&a, &b], &[e, e | 1]).unwrap());
    same("multi_pow_u64", multi_u64(u64::MAX), multi_u64(0x101));

    let ta = FixedBaseTable::new(&ctx, &a, 2001).unwrap();
    let tb = FixedBaseTable::new(&ctx, &b, 2001).unwrap();
    let comb = |e: &BigUint| residue_allocs(|| ta.pow(e).unwrap());
    same("comb pow", comb(&long), comb(&short));
    assert!(comb(&long) <= 2, "comb pow, {at}: accumulator and spare, {} in all", comb(&long));
    let shared = |e: &BigUint| residue_allocs(|| ta.mul_pow(e, &tb, e).unwrap());
    same("comb mul_pow", shared(&long), shared(&short));
}
