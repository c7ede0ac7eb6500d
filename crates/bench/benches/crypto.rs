//! Cryptographic-primitive ablation: the cost of every building block
//! the deployments compose, including the demo-vs-production key-size
//! sweep that justifies DESIGN.md's parameter choices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prever_crypto::bignum::BigUint;
use prever_crypto::schnorr::{self, RangeProof, SchnorrGroup};
use prever_crypto::sha256::sha256;
use rand::{rngs::StdRng, SeedableRng};

fn bench(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);

    // SHA-256 throughput.
    {
        let mut group = c.benchmark_group("crypto_sha256");
        for size in [64usize, 1024, 65_536] {
            let data = vec![0xabu8; size];
            group.throughput(Throughput::Bytes(size as u64));
            group.bench_with_input(BenchmarkId::new("digest", size), &size, |b, _| {
                b.iter(|| sha256(&data));
            });
        }
        group.finish();
    }

    // Modular exponentiation by modulus size — the inner loop of
    // Paillier, RSA and Schnorr; the key-size ablation.
    {
        let mut group = c.benchmark_group("crypto_modexp");
        for bits in [256usize, 512, 1024, 2048] {
            // Force an odd modulus: real crypto moduli (RSA/Paillier n,
            // safe primes) are odd, and odd is the Montgomery fast path.
            let mut m = BigUint::random_bits(bits, &mut rng);
            if m.is_even() {
                m = m.add(&BigUint::one());
            }
            let base = BigUint::random_below(&m, &mut rng);
            let exp = BigUint::random_bits(bits, &mut rng);
            group.bench_with_input(BenchmarkId::new("modexp", bits), &bits, |b, _| {
                b.iter(|| base.mod_exp(&exp, &m).unwrap());
            });
        }
        group.finish();
    }

    // Paillier at the two parameter points (demo 96-bit primes vs
    // heavier 256-bit primes).
    {
        let mut group = c.benchmark_group("crypto_paillier");
        group.sample_size(10);
        for prime_bits in [96usize, 256] {
            let key = prever_crypto::paillier::keygen(prime_bits, &mut rng);
            group.bench_with_input(BenchmarkId::new("encrypt", prime_bits), &prime_bits, |b, _| {
                b.iter(|| key.public.encrypt_u64(40, &mut rng).unwrap());
            });
            let ct = key.public.encrypt_u64(40, &mut rng).unwrap();
            group.bench_with_input(BenchmarkId::new("decrypt", prime_bits), &prime_bits, |b, _| {
                b.iter(|| key.decrypt(&ct).unwrap());
            });
            let c2 = key.public.encrypt_u64(2, &mut rng).unwrap();
            group.bench_with_input(BenchmarkId::new("hom_add", prime_bits), &prime_bits, |b, _| {
                b.iter(|| key.public.add(&ct, &c2).unwrap());
            });
        }
        group.finish();
    }

    // The limb kernel under all of the above: one Montgomery
    // multiplication at k limbs (timed as `pow(base, 2^2048)`, which is
    // `KERNEL_CALLS_POW_2_2048` of them), one modular inversion, and the
    // wallet's two halves of a blind-signature round at a 1024-bit
    // modulus.
    {
        use prever_bench::amortized::{odd_modulus_and_residue, KERNEL_CALLS_POW_2_2048};
        use prever_crypto::montgomery::MontgomeryCtx;
        use prever_crypto::rsa;
        let mut group = c.benchmark_group("crypto_kernel");
        group.sample_size(10);
        group.throughput(Throughput::Elements(KERNEL_CALLS_POW_2_2048));
        for k in [4usize, 16, 32] {
            let (m, base) = odd_modulus_and_residue(64 * k, &mut rng);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let exp = BigUint::one().shl(2048);
            group.bench_with_input(BenchmarkId::new("mont_mul", k), &k, |b, _| {
                b.iter(|| ctx.pow(&base, &exp).unwrap());
            });
        }
        group.throughput(Throughput::Elements(1));
        for bits in [256usize, 1024, 2048] {
            let (m, a) = odd_modulus_and_residue(bits, &mut rng);
            group.bench_with_input(BenchmarkId::new("mod_inv", bits), &bits, |b, _| {
                b.iter(|| a.mod_inv(&m).unwrap());
            });
        }
        // The two halves are timed apart (the authority's signature
        // sits between them); `bench_amortized` sums them in one loop as
        // `rsa_blind_unblind/1024`.
        let key = rsa::keygen(512, &mut rng);
        group.bench_function("rsa_blind/1024", |b| {
            b.iter(|| rsa::blind(&key.public, b"token", &mut rng).unwrap());
        });
        group.bench_function("rsa_unblind/1024", |b| {
            b.iter_batched(
                || {
                    let (blinded, state) = rsa::blind(&key.public, b"token", &mut rng).unwrap();
                    (key.sign_blinded(&blinded).unwrap(), state)
                },
                |(blind_sig, state)| rsa::unblind(&key.public, &blind_sig, &state).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
        group.finish();
    }

    // Blind-signature token issuance roundtrip.
    {
        let mut group = c.benchmark_group("crypto_blindsig");
        group.sample_size(10);
        let key = prever_crypto::rsa::keygen(96, &mut rng);
        group.bench_function("blind_sign_unblind", |b| {
            b.iter(|| {
                let (blinded, state) =
                    prever_crypto::rsa::blind(&key.public, b"token", &mut rng).unwrap();
                let bs = key.sign_blinded(&blinded).unwrap();
                prever_crypto::rsa::unblind(&key.public, &bs, &state).unwrap()
            });
        });
        group.finish();
    }

    // Range proof size sweep: proof cost is linear in the bit width.
    {
        let mut group = c.benchmark_group("crypto_rangeproof");
        group.sample_size(10);
        let group256 = SchnorrGroup::test_group_256();
        for bits in [4usize, 6, 8] {
            let m = BigUint::from_u64(5);
            let (commitment, r) = schnorr::commit(&group256, &m, &mut rng).unwrap();
            group.bench_with_input(BenchmarkId::new("prove", bits), &bits, |b, &bits| {
                b.iter(|| {
                    RangeProof::prove(&group256, &commitment, &m, &r, bits, b"bench", &mut rng)
                        .unwrap()
                });
            });
            let proof =
                RangeProof::prove(&group256, &commitment, &m, &r, bits, b"bench", &mut rng).unwrap();
            group.bench_with_input(BenchmarkId::new("verify", bits), &bits, |b, &bits| {
                b.iter(|| proof.verify(&group256, &commitment, bits, b"bench").unwrap());
            });
        }
        group.finish();
    }

    // Fixed-base comb vs generic exponentiation, and amortized
    // (precomputed h_n, short exponent) vs standard (r^n) Paillier
    // encryption — the amortized-engine headline numbers.
    {
        let mut group = c.benchmark_group("crypto_fixed_base");
        group.sample_size(20);
        let g256 = SchnorrGroup::test_group_256();
        let key = prever_crypto::schnorr::KeyPair::generate(&g256, &mut rng);
        group.bench_function("schnorr_sign_comb", |b| {
            b.iter(|| schnorr::sign(&g256, &key, b"bench message", &mut rng));
        });
        let k = g256.random_exponent(&mut rng);
        group.bench_function("pow_g_comb", |b| {
            b.iter(|| g256.pow_g(&k));
        });
        group.bench_function("pow_g_generic", |b| {
            b.iter(|| g256.pow(&g256.g, &k));
        });
        let pkey = prever_crypto::paillier::keygen(96, &mut rng);
        let m = BigUint::from_u64(40);
        group.bench_function("paillier_encrypt_amortized", |b| {
            b.iter(|| pkey.public.encrypt(&m, &mut rng).unwrap());
        });
        group.bench_function("paillier_encrypt_standard", |b| {
            b.iter(|| pkey.public.encrypt_standard(&m, &mut rng).unwrap());
        });
        group.finish();
    }

    // Batched signature verification: one RLC multi-exponentiation for
    // the whole batch vs one verification per signature.
    {
        let mut group = c.benchmark_group("crypto_batch_verify");
        group.sample_size(10);
        let g256 = SchnorrGroup::test_group_256();
        let keys: Vec<prever_crypto::schnorr::KeyPair> =
            (0..256).map(|_| prever_crypto::schnorr::KeyPair::generate(&g256, &mut rng)).collect();
        let msgs: Vec<Vec<u8>> = (0..256).map(|i| format!("batch-msg-{i}").into_bytes()).collect();
        let sigs: Vec<prever_crypto::schnorr::SchnorrSignature> =
            keys.iter().zip(&msgs).map(|(k, m)| schnorr::sign(&g256, k, m, &mut rng)).collect();
        for n in [1usize, 8, 64, 256] {
            let items: Vec<_> = keys[..n]
                .iter()
                .zip(&msgs[..n])
                .zip(&sigs[..n])
                .map(|((k, m), s)| (&k.public, m.as_slice(), s))
                .collect();
            group.bench_with_input(BenchmarkId::new("batch", n), &n, |b, _| {
                b.iter(|| schnorr::batch_verify(&g256, &items).unwrap());
            });
            group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
                b.iter(|| {
                    for ((k, m), s) in keys[..n].iter().zip(&msgs[..n]).zip(&sigs[..n]) {
                        schnorr::verify(&g256, &k.public, m, s).unwrap();
                    }
                });
            });
        }
        group.finish();
    }

    // Merkle: `build_root` is the cold cost (fresh tree over ready leaf
    // hashes, then its root: n − 1 node hashes); the `_cached` ids ask a
    // tree that has answered before, one leaf short of a power of two so
    // the ragged edge is at its longest.
    {
        use prever_bench::amortized::merkle_tree_over;
        use prever_crypto::merkle::leaf_hash;
        let mut group = c.benchmark_group("crypto_merkle");
        group.sample_size(10);
        for leaves in [1_024usize, 65_536] {
            let hashes: Vec<_> =
                (0..leaves).map(|i| leaf_hash(format!("leaf-{i}").as_bytes())).collect();
            group.bench_with_input(BenchmarkId::new("build_root", leaves), &leaves, |b, _| {
                b.iter(|| merkle_tree_over(&hashes).root());
            });
            let n = leaves - 1;
            let warm = merkle_tree_over(&hashes[..n]);
            group.bench_with_input(BenchmarkId::new("root_cached", n), &n, |b, _| {
                b.iter(|| warm.root());
            });
            group.bench_with_input(BenchmarkId::new("prove_inclusion_cached", n), &n, |b, _| {
                b.iter(|| warm.prove_inclusion(n / 3, n).unwrap());
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
