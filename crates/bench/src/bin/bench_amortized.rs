//! Emits the "after" side of BENCH_crypto.json's `amortized` section:
//! best-of-trials wall-clock minima for fixed-base Schnorr/Paillier,
//! RLC batch verification at n ∈ {1, 8, 64, 256}, multi-query CPIR at
//! k ∈ {1, 4, 8, 16}, the limb kernel (`mont_mul/k`, `mod_inv/bits`,
//! the wallet side of a blind-signature round; `mont_mul` and `modexp`
//! lines name the kernel that ran) and Merkle roots at
//! 1k/64k leaves (cold build, then warm root and inclusion proof), and
//! the key-size sweeps DESIGN.md §5 chooses its parameters from
//! (`modexp/bits`, Paillier at 96- and 256-bit primes), and the 6-bit
//! range proof (`range_prove/6`, `range_verify/6`), one JSON line
//! each. The "before"
//! numbers were produced by this same harness backported onto the
//! pre-amortization commit (same seeds, same workloads, the then-current
//! single-item APIs).
//!
//! Each number is the *best* of several trials: the minimum is the
//! statistic least affected by scheduler noise, and the question asked
//! is what a kernel can cost, not what it costs under load. Pin with
//! `taskset -c 0`.

use prever_crypto::bignum::BigUint;
use prever_crypto::merkle::{leaf_hash, MerkleTree};
use prever_crypto::montgomery::MontgomeryCtx;
use prever_crypto::schnorr::{self, SchnorrGroup};
use prever_crypto::sha256::Digest;
use prever_crypto::{paillier, rsa};
use prever_obs::work::{measure, Unit};
use prever_pir::cpir::{CpirClient, CpirServer};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Best-of-`trials` wall time of `iters` runs of `f`, in nanoseconds
/// per iteration.
fn best_ns<F: FnMut()>(trials: usize, iters: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// A random odd `bits`-bit modulus (top bit set, so the limb count is
/// exact) and a random invertible residue below it.
fn odd_modulus_and_residue<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> (BigUint, BigUint) {
    let top = BigUint::one().shl(bits - 1);
    let m = top.add(&BigUint::random_bits(bits - 1, rng));
    let m = if m.is_even() { m.add(&BigUint::one()) } else { m };
    loop {
        let a = BigUint::random_below(&m, rng);
        if a.mod_inv(&m).is_ok() {
            return (m, a);
        }
    }
}

/// A fresh tree over ready leaf hashes: what `merkle_root/*` builds per
/// iteration, because `root()` on a tree that has answered before is a
/// lookup.
fn merkle_tree_over(hashes: &[Digest]) -> MerkleTree {
    let mut t = MerkleTree::new();
    for h in hashes {
        t.append_leaf_hash(*h);
    }
    t
}

fn main() {
    let mut rng = StdRng::seed_from_u64(9);
    let group = SchnorrGroup::test_group_256();

    // Schnorr sign (fixed-base comb tables).
    let key = schnorr::KeyPair::generate(&group, &mut rng);
    let sign_ns = best_ns(5, 50, || {
        schnorr::sign(&group, &key, b"bench message", &mut rng);
    });
    println!("{{\"id\": \"schnorr_sign\", \"ns\": {sign_ns:.1}}}");

    // Batched verification via one RLC multi-exponentiation.
    let n = 256usize;
    let keys: Vec<schnorr::KeyPair> =
        (0..n).map(|_| schnorr::KeyPair::generate(&group, &mut rng)).collect();
    let msgs: Vec<Vec<u8>> = (0..n).map(|i| format!("batch-msg-{i}").into_bytes()).collect();
    let sigs: Vec<_> =
        keys.iter().zip(&msgs).map(|(k, m)| schnorr::sign(&group, k, m, &mut rng)).collect();
    for count in [1usize, 8, 64, 256] {
        let items: Vec<_> = keys[..count]
            .iter()
            .zip(&msgs[..count])
            .zip(&sigs[..count])
            .map(|((k, m), s)| (&k.public, m.as_slice(), s))
            .collect();
        let ns = best_ns(3, 3, || {
            schnorr::batch_verify(&group, &items).unwrap();
        });
        println!("{{\"id\": \"batch_verify/{count}\", \"ns\": {ns:.1}}}");
        let seq_ns = best_ns(3, 3, || {
            for ((k, m), s) in keys[..count].iter().zip(&msgs[..count]).zip(&sigs[..count]) {
                schnorr::verify(&group, &k.public, m, s).unwrap();
            }
        });
        println!("{{\"id\": \"verify_seq/{count}\", \"ns\": {seq_ns:.1}}}");
    }

    // Paillier encrypt (amortized g^m via comb, precomputed h_n path).
    let pkey = paillier::keygen(96, &mut rng);
    let m = BigUint::from_u64(40);
    let enc_ns = best_ns(5, 50, || {
        pkey.public.encrypt(&m, &mut rng).unwrap();
    });
    println!("{{\"id\": \"paillier_encrypt\", \"ns\": {enc_ns:.1}}}");

    // Multi-query CPIR: one matrix pass for k queries at n=512.
    let pir_n = 512usize;
    let client = CpirClient::new(96, &mut rng);
    let records: Vec<u64> = (0..pir_n).map(|_| rng.gen::<u64>().max(1)).collect();
    let mut server = CpirServer::new(records);
    let query = client.query(pir_n / 2, pir_n, &mut rng).unwrap();
    for k in [1usize, 4, 8, 16] {
        let qrefs: Vec<_> = (0..k).map(|_| query.as_slice()).collect();
        let ns = best_ns(3, 2, || {
            server.answer_many(client.public_key(), &qrefs).unwrap();
        });
        println!("{{\"id\": \"answer_many/{k}\", \"ns\": {ns:.1}}}");
        let seq_ns = best_ns(3, 2, || {
            for _ in 0..k {
                server.answer(client.public_key(), &query).unwrap();
            }
        });
        println!("{{\"id\": \"answer_seq/{k}\", \"ns\": {seq_ns:.1}}}");
    }

    // The bignum kernels. `mont_mul/k` is nanoseconds per Montgomery
    // multiplication of a k-limb modulus inside `pow(base, 2^2048)`
    // (2 048 squarings and the two conversions, counted), on the kernel
    // its context chose (`kernel`: "scalar" or "avx512ifma");
    // `mod_inv/bits` inverts a random residue of a random odd modulus.
    for k in [4usize, 16, 32] {
        let (m, base) = odd_modulus_and_residue(64 * k, &mut rng);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let exp = BigUint::one().shl(2048);
        let calls = measure(|| ctx.pow(&base, &exp).unwrap()).1[Unit::MontMul] as f64;
        let ns = best_ns(5, 5, || {
            black_box(ctx.pow(black_box(&base), &exp).unwrap());
        });
        let ns = ns / calls;
        let kernel = ctx.kernel();
        println!("{{\"id\": \"mont_mul/{k}\", \"ns\": {ns:.1}, \"kernel\": \"{kernel}\"}}");
    }
    for bits in [256usize, 1024, 2048] {
        let (m, a) = odd_modulus_and_residue(bits, &mut rng);
        let ns = best_ns(5, 20, || {
            black_box(black_box(&a).mod_inv(&m).unwrap());
        });
        println!("{{\"id\": \"mod_inv/{bits}\", \"ns\": {ns:.1}}}");
    }

    // The wallet's side of one blind-signature round at a 1024-bit
    // modulus: `blind` plus `unblind` (which checks sig^e == H(msg));
    // the authority's signature in between is not timed.
    let rsa_key = rsa::keygen(512, &mut rng);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let mut wallet = Duration::ZERO;
        for _ in 0..20 {
            let start = Instant::now();
            let (blinded, state) = rsa::blind(&rsa_key.public, b"token", &mut rng).unwrap();
            wallet += start.elapsed();
            let blind_sig = rsa_key.sign_blinded(&blinded).unwrap();
            let start = Instant::now();
            black_box(rsa::unblind(&rsa_key.public, &blind_sig, &state).unwrap());
            wallet += start.elapsed();
        }
        best = best.min(wallet.as_nanos() as f64 / 20.0);
    }
    println!("{{\"id\": \"rsa_blind_unblind/1024\", \"ns\": {best:.1}}}");

    // Merkle. `merkle_root/*` is the cold cost `verify_chain` and recovery
    // pay: a fresh tree over ready leaf hashes, then its root (n − 1 node
    // hashes). On a tree that has answered before, a root or proof is
    // lookups plus the ragged right edge, longest one leaf short of a
    // power of two: `merkle_root_cached/*` and `prove_inclusion/*`.
    for leaves in [1024usize, 65_536] {
        let hashes: Vec<_> =
            (0..leaves).map(|i| leaf_hash(format!("leaf-{i}").as_bytes())).collect();
        let iters = if leaves > 10_000 { 5 } else { 50 };
        let ns = best_ns(3, iters, || {
            black_box(merkle_tree_over(&hashes).root());
        });
        println!("{{\"id\": \"merkle_root/{leaves}\", \"ns\": {ns:.1}}}");
        let n = leaves - 1;
        let warm = merkle_tree_over(&hashes[..n]);
        let ns = best_ns(5, 1000, || {
            black_box(black_box(&warm).root());
        });
        println!("{{\"id\": \"merkle_root_cached/{n}\", \"ns\": {ns:.1}}}");
        let ns = best_ns(5, 1000, || {
            black_box(black_box(&warm).prove_inclusion(n / 3, n).unwrap());
        });
        println!("{{\"id\": \"prove_inclusion/{n}\", \"ns\": {ns:.1}}}");
    }

    // The key-size sweeps. `modexp/bits` is one full-width exponent at a
    // random odd `bits`-bit modulus, the inner loop of Paillier, RSA and
    // Schnorr; `paillier_*/bits` prices encrypt and CRT decrypt at the
    // demo 96-bit primes against 256-bit ones.
    for bits in [256usize, 512, 1024, 2048] {
        let (m, base) = odd_modulus_and_residue(bits, &mut rng);
        let exp = BigUint::random_bits(bits, &mut rng);
        let ns = best_ns(5, 10, || {
            black_box(black_box(&base).mod_exp(&exp, &m).unwrap());
        });
        let kernel = MontgomeryCtx::new(&m).unwrap().kernel();
        println!("{{\"id\": \"modexp/{bits}\", \"ns\": {ns:.1}, \"kernel\": \"{kernel}\"}}");
    }
    for prime_bits in [96usize, 256] {
        let key = paillier::keygen(prime_bits, &mut rng);
        let ns = best_ns(5, 20, || {
            black_box(key.public.encrypt_u64(40, &mut rng).unwrap());
        });
        println!("{{\"id\": \"paillier_encrypt/{prime_bits}\", \"ns\": {ns:.1}}}");
        let ct = key.public.encrypt_u64(40, &mut rng).unwrap();
        let ns = best_ns(5, 20, || {
            black_box(key.decrypt(black_box(&ct)).unwrap());
        });
        println!("{{\"id\": \"paillier_decrypt/{prime_bits}\", \"ns\": {ns:.1}}}");
    }

    // RC1's range proof at the FLSA width, `[0, 2^6)`: prove (six
    // commitments and bit proofs) and verify (one combined check).
    let hours = BigUint::from_u64(39);
    let (c, r) = schnorr::commit(&group, &hours, &mut rng).unwrap();
    let mut prove = || schnorr::RangeProof::prove(&group, &c, &hours, &r, 6, b"flsa", &mut rng);
    let ns = best_ns(5, 20, || {
        black_box(prove().unwrap());
    });
    println!("{{\"id\": \"range_prove/6\", \"ns\": {ns:.1}}}");
    let proof = prove().unwrap();
    let ns = best_ns(5, 20, || {
        black_box(&proof).verify(&group, &c, 6, b"flsa").unwrap();
    });
    println!("{{\"id\": \"range_verify/6\", \"ns\": {ns:.1}}}");
}
